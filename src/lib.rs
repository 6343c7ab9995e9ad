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
    SiriIndex, StoreError, StoreResult, StoreStats, StructureReport, StructureStats, VersionStore,
    VersionTag, WriteBatch, MANIFEST_MAGIC, MAX_PROOF_PAGES,
};

pub use siri_client::{ClientOptions, RemoteSession, SyncOptions, SyncReport};
pub use siri_crypto as crypto;
pub use siri_encoding as encoding;
pub use siri_forkbase::{
    max_commit_attempts, scheme_by_name, EngineStats, Forkbase, IndexFactory, MbtFactory,
    MptFactory, MvmbFactory, PosFactory, ShardStats, ShardingPolicy, MAX_COMMIT_ATTEMPTS,
    MAX_SHARDS,
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

/// The store the `SIRI_STORE` environment variable selects: `"file"` opens
/// a fresh [`FileStore`] under the system temp directory (fsync disabled —
/// these are tests, not databases), anything else is a [`MemStore`].
///
/// This is how CI runs the integration suite against the durable backend
/// without forking the tests: suites whose store choice is incidental call
/// this instead of [`MemStore::new_shared`].
pub fn env_store() -> SharedStore {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    match std::env::var("SIRI_STORE").as_deref() {
        Ok("file") => {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join("siri-env-stores")
                .join(format!("{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let opts =
                FileStoreOptions { fsync: FsyncPolicy::Never, ..FileStoreOptions::default() };
            let (fs, _) = FileStore::open_with(&dir, opts)
                .expect("SIRI_STORE=file: cannot create temp store");
            std::sync::Arc::new(fs)
        }
        _ => MemStore::new_shared(),
    }
}

/// A [`Session`] plus whatever infrastructure keeps it alive: nothing for
/// the in-process engine, a loopback server for the remote case. Deref to
/// `dyn Session` — callers never learn which they got.
pub struct SessionHandle {
    session: Box<dyn Session>,
    _server: Option<ServerHandle<PosFactory>>,
}

impl std::ops::Deref for SessionHandle {
    type Target = dyn Session;
    fn deref(&self) -> &Self::Target {
        self.session.as_ref()
    }
}

/// The session the `SIRI_REMOTE` environment variable selects: `"1"`
/// spins up a loopback `siri-server` over [`env_store`] and connects a
/// [`RemoteSession`] to it, anything else is the in-process engine over
/// the same store.
///
/// This is how CI runs the behavioral suites across the network boundary
/// without forking the tests: every commit, scan page and proof crosses
/// the wire, and the assertions stay byte-for-byte the ones the
/// in-process engine passes.
pub fn env_session() -> SessionHandle {
    let engine =
        std::sync::Arc::new(Forkbase::with_store(PosFactory(PosParams::default()), env_store()));
    if std::env::var("SIRI_REMOTE").as_deref() == Ok("1") {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .expect("SIRI_REMOTE=1: cannot bind a loopback listener");
        let server = serve(engine, listener, ServerOptions::default(), None)
            .expect("SIRI_REMOTE=1: cannot start the loopback server");
        let session = RemoteSession::connect(server.addr())
            .expect("SIRI_REMOTE=1: cannot connect to the loopback server");
        SessionHandle { session: Box::new(session), _server: Some(server) }
    } else {
        SessionHandle { session: Box::new(engine), _server: None }
    }
}
