//! # siri — Indexing Structures for Immutable Data
//!
//! A faithful Rust reproduction of *"Analysis of Indexing Structures for
//! Immutable Data"* (SIGMOD 2020): the three SIRI structures — Merkle
//! Patricia Trie, Merkle Bucket Tree, POS-Tree — and the MVMB+-Tree
//! baseline, unified behind one [`SiriIndex`] interface over a shared
//! content-addressed page store, plus the paper's workloads, metrics and
//! benchmark harness.
//!
//! ## Quickstart
//!
//! ```
//! use std::ops::Bound;
//! use siri::{MemStore, PosParams, PosTree, SiriIndex, WriteBatch};
//!
//! let store = MemStore::new_shared();
//! let mut index = PosTree::new(store, PosParams::default());
//!
//! // Every commit produces a new immutable version; clones are snapshots.
//! index.insert(b"alice", bytes::Bytes::from_static(b"100")).unwrap();
//! let v1 = index.clone();
//!
//! // The atomic write unit is a batch of puts and deletes.
//! let mut batch = WriteBatch::new();
//! batch.put(&b"bob"[..], &b"75"[..]).delete(&b"alice"[..]);
//! index.commit(batch).unwrap();
//!
//! assert_eq!(v1.get(b"alice").unwrap().unwrap().as_ref(), b"100");
//! assert_eq!(index.get(b"alice").unwrap(), None);
//!
//! // Reads stream through a lazy cursor; scans never materialize.
//! let window: Vec<_> = index
//!     .range(Bound::Included(&b"a"[..]), Bound::Unbounded)
//!     .map(|e| e.unwrap().key)
//!     .collect();
//! assert_eq!(window, vec![bytes::Bytes::from_static(b"bob")]);
//!
//! // The root digest is tamper-evident; proofs verify against it alone.
//! let proof = index.prove(b"bob").unwrap();
//! let verdict = PosTree::verify_proof(index.root(), b"bob", &proof);
//! assert_eq!(verdict.value().unwrap().as_ref(), b"75");
//! ```
//!
//! See `examples/` for full scenarios (blockchain ledger, collaborative
//! analytics, wiki versioning) and DESIGN.md / EXPERIMENTS.md for the
//! paper-reproduction map.

pub use siri_core::{
    apply_ops, chain_cursors, cost_model, diff_by_scan, diff_sorted_entries, entry_codec, merge,
    merge_with_base, metrics, open_head, ordered, prefix_successor, siri_properties,
    verify_anchored_batch, verify_anchored_membership, verify_anchored_range, BatchOp,
    BatchVerdict, Bytes, CacheStats, CommitInfo, DiffEntry, DiffSide, Entry, EntryCursor,
    EntrySource, Hash, IndexError, LookupTrace, MemStore, MergeOutcome, MergeStrategy, NodeStore,
    Op, PageNode, PagePool, PageReader, PageSet, Proof, ProofScheme, ProofVerdict, RangeVerdict,
    Reclaim, Recorder, Result, Session, ShardCommit, ShardManifest, ShardRouter, SharedStore,
    SiriIndex, StoreError, StoreResult, StoreStats, StructureReport, StructureStats, WriteBatch,
    MANIFEST_MAGIC, MAX_PROOF_PAGES,
};

pub use siri_client::{ClientOptions, RemoteSession, SyncOptions, SyncReport};
pub use siri_crypto as crypto;
pub use siri_encoding as encoding;
pub use siri_forkbase::{
    scheme_by_name, EngineStats, Forkbase, IndexFactory, MbtFactory, MptFactory, MvmbFactory,
    PosFactory, ShardStats, ShardingPolicy, MAX_COMMIT_ATTEMPTS, MAX_SHARDS,
};
pub use siri_mbt::{MbtProofScheme, MerkleBucketTree, DEFAULT_BUCKETS, DEFAULT_FANOUT};
pub use siri_mpt::{MerklePatriciaTrie, MptProofScheme};
pub use siri_mvmb::{MvmbParams, MvmbProofScheme, MvmbTree};
pub use siri_pos_tree::{
    self as pos_tree, ChunkerKind, InternalChunking, PosParams, PosProofScheme, PosTree,
    SplitPolicy,
};
pub use siri_server::{self as server, proto, serve, serve_addr, ServerHandle, ServerOptions};
pub use siri_store::{gc, ship, FileStore, FileStoreOptions, FsyncPolicy, DEFAULT_SEGMENT_BYTES};
pub use siri_workloads as workloads;
