//! Cryptographic and non-cryptographic hash primitives for the SIRI index
//! family.
//!
//! Everything in this crate is implemented from scratch so the repository has
//! no external cryptography dependencies:
//!
//! * [`sha256()`] — FIPS 180-4 SHA-256, the content address of every index
//!   page, one digest per page, on the hardware backend (SHA-NI / NEON)
//!   CPU detection picks, or the portable one.
//! * [`struct@Hash`] — a 32-byte digest with hex formatting and ordering.
//! * [`rolling`] — a Rabin-style rolling fingerprint over a sliding window,
//!   the boundary detector used by POS-Tree leaf chunking (§3.4.3 of the
//!   paper).
//! * [`fasthash`] — an FxHash-style multiplicative hasher used where HashDoS
//!   resistance is irrelevant: MBT bucket placement and internal hash maps.
//! * [`hex`] — minimal hex encode/decode used by displays and tests.

pub mod fasthash;
pub mod hex;
pub mod rolling;
pub mod sha256;

mod digest;

pub use digest::Hash;
pub use fasthash::{fx_hash_bytes, FxHashMap, FxHashSet, FxHasher};
pub use rolling::{RollingHash, DEFAULT_WINDOW};
pub use sha256::{
    active_backend, available_backends, digest_with, hash_many, sha256, Sha256, Sha256Backend,
};
