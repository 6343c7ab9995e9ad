//! The SIRI framework — *Structurally Invariant and Reusable Indexes*.
//!
//! This crate is the paper's analytical lens turned into code. It defines:
//!
//! * [`SiriIndex`] — the unified interface all four index structures
//!   implement: atomic [`WriteBatch`] commits (put + delete), point lookup,
//!   streaming [`EntryCursor`] range scans, diff, merge, proofs, page sets;
//! * [`Entry`]/[`entry_codec`] — the canonical record representation shared
//!   by leaf codecs;
//! * [`Proof`] — Merkle proofs and the tamper-evidence contract;
//! * [`PageReader`] — the one place a content address becomes a decoded
//!   node, and [`ordered`] — the lookup and range cursor POS-Tree and
//!   MVMB+ share;
//! * [`metrics`] — the deduplication ratio η(S) of §4.2 and the node
//!   sharing ratio of §5.4.2;
//! * [`merge`] — two-way, conflict-aware merge built on structural diff
//!   (§4.1.4);
//! * [`cost_model`] — the closed-form operation bounds of §4.1, used to
//!   cross-check measured asymptotics;
//! * [`siri_properties`] — executable checks of the three SIRI properties
//!   from Definition 3.1.

mod batch;
mod cursor;
mod diff;
mod entry;
mod error;
mod index;
mod proof;
mod reader;
mod session;
mod shard;
mod structure;
mod verify;

pub mod cost_model;
pub mod entry_codec;
pub mod metrics;
pub mod ordered;
pub mod siri_properties;

pub use batch::{apply_ops, BatchOp, CommitInfo, Op, WriteBatch};
pub use cursor::{
    before_start, own_bound, past_end, prefix_successor, start_seek_key, EntryCursor, EntrySource,
};
pub use diff::{
    diff_by_scan, diff_sorted_entries, merge, merge_with_base, DiffEntry, DiffSide, MergeOutcome,
    MergeStrategy,
};
pub use entry::Entry;
pub use error::{IndexError, Result};
pub use index::{record_read, search_entries, LookupTrace, LookupTracer, SiriIndex, TimedTrace};
pub use proof::{Proof, ProofVerdict, MAX_PROOF_PAGES};
pub use reader::{PageNode, PageReader};
pub use session::Session;
pub use shard::{
    chain_cursors, head_digest, open_head, ShardCommit, ShardManifest, ShardRouter, MANIFEST_MAGIC,
};
pub use structure::{StructureReport, StructureStats};
pub use verify::{
    verify_anchored_batch, verify_anchored_membership, verify_anchored_range, AnchoredReader,
    BatchVerdict, PagePool, ProofScheme, RangeVerdict, Recorder,
};

// Re-exports so downstream crates (and examples) need only `siri_core`.
pub use bytes::Bytes;
pub use siri_crypto::Hash;
pub use siri_store::{
    CacheStats, FileStore, FsyncPolicy, MemStore, NodeCache, NodeStore, PageSet, Reclaim,
    SharedStore, StoreError, StoreResult, StoreStats, DEFAULT_NODE_CACHE_CAPACITY,
};
