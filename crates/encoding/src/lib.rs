//! Byte-level encodings shared by the SIRI index implementations.
//!
//! * [`rlp`] — Recursive Length Prefix, Ethereum's canonical serialization.
//!   Used by the MPT node codec (as in Ethereum, §3.4.1 of the paper) and by
//!   the synthetic Ethereum transaction workload (§5.1.3).
//! * [`nibble`] — nibble paths and the hex-prefix compaction used by MPT
//!   extension/leaf nodes.
//! * [`varint`] — LEB128-style variable-length integers for compact node
//!   encodings.
//! * [`rw`] — a small checked binary reader/writer used by all node codecs.

pub mod nibble;
pub mod rlp;
pub mod rw;
pub mod varint;

pub use nibble::{NibbleView, Nibbles};
pub use rlp::{FlatList, RlpError, RlpItem};
pub use rw::{ByteReader, ByteWriter, CodecError, Scratch};
