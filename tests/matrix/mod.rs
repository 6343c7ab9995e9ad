//! The configurations the integration suites run under: one explicit list
//! of store × shard count × transport, so `cargo test` alone covers every
//! combination and nothing in the environment changes what a test builds.
//!
//! * [`STORES`]: a `MemStore` and a `FileStore`, for suites that test an
//!   index on its own;
//! * [`ENGINES`]: those two × a single-shard head and a `pinned(8)` one,
//!   for suites that drive a `Forkbase`;
//! * [`SESSIONS`]: those four × the in-process engine and a loopback
//!   `RemoteSession`, for suites written against `&dyn Session`.
//!
//! [`each`] runs a test body once per configuration and names the
//! configuration in any failure. A configuration's file store lives in a
//! fresh temporary directory that is deleted when the store is dropped.

#![allow(dead_code)] // every suite uses its own part of the module

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use siri::{
    serve, Bytes, FileStore, FileStoreOptions, Forkbase, FsyncPolicy, Hash, IndexFactory, MemStore,
    NodeStore, PosFactory, PosParams, RemoteSession, ServerHandle, ServerOptions, Session,
    ShardingPolicy, SharedStore, StoreResult, StoreStats,
};
use siri_store::PageBatch;

/// The page store under a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    Mem,
    File,
}

/// One point of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub backing: Backing,
    /// Shards per branch head: 1, or a `pinned` partition.
    pub shards: usize,
    /// Reach the engine through a loopback server and `RemoteSession`.
    pub remote: bool,
}

const fn config(backing: Backing, shards: usize, remote: bool) -> Config {
    Config { backing, shards, remote }
}

/// A test that is not about the store, the partition or the transport.
pub const DEFAULT: Config = config(Backing::Mem, 1, false);

/// Index suites: each store.
pub const STORES: &[Config] = &[config(Backing::Mem, 1, false), config(Backing::File, 1, false)];

/// Engine suites: each store × {single, `pinned(8)`}.
pub const ENGINES: &[Config] = &[
    config(Backing::Mem, 1, false),
    config(Backing::File, 1, false),
    config(Backing::Mem, 8, false),
    config(Backing::File, 8, false),
];

/// Session suites: each engine configuration × {in-process, loopback}.
pub const SESSIONS: &[Config] = &[
    config(Backing::Mem, 1, false),
    config(Backing::File, 1, false),
    config(Backing::Mem, 8, false),
    config(Backing::File, 8, false),
    config(Backing::Mem, 1, true),
    config(Backing::File, 1, true),
    config(Backing::Mem, 8, true),
    config(Backing::File, 8, true),
];

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = match self.backing {
            Backing::Mem => "mem",
            Backing::File => "file",
        };
        let transport = if self.remote { "loopback" } else { "in-process" };
        write!(f, "{store} store, {} shard(s), {transport}", self.shards)
    }
}

impl Config {
    /// A fresh, empty store of this configuration's backing.
    pub fn store(&self) -> SharedStore {
        match self.backing {
            Backing::Mem => MemStore::new_shared(),
            Backing::File => Arc::new(TempFileStore::new()),
        }
    }

    /// The sharding policy of this configuration's engines.
    pub fn policy(&self) -> ShardingPolicy {
        match self.shards {
            1 => ShardingPolicy::single(),
            n => ShardingPolicy::pinned(n),
        }
    }

    /// An engine over a fresh store of this configuration.
    pub fn engine<F: IndexFactory>(&self, factory: F) -> Forkbase<F> {
        Forkbase::with_sharding(factory, self.store(), self.policy(), 0)
    }

    /// A POS-Tree session of this configuration: the engine itself, or a
    /// `RemoteSession` to a loopback server over it.
    pub fn session(&self) -> TestSession {
        let engine = Arc::new(self.engine(PosFactory(PosParams::default())));
        if !self.remote {
            return TestSession { session: Box::new(engine), _server: None };
        }
        let listener =
            std::net::TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let server = serve(engine, listener, ServerOptions::default(), None)
            .expect("start the loopback server");
        let session =
            RemoteSession::connect(server.addr()).expect("connect to the loopback server");
        TestSession { session: Box::new(session), _server: Some(server) }
    }
}

/// Run `body` once per configuration in `configs`. A failure re-panics
/// with the configuration's name in front of the original message.
pub fn each(configs: &[Config], mut body: impl FnMut(Config)) {
    for &cfg in configs {
        let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(cfg))) else {
            continue;
        };
        let msg = match (panic.downcast_ref::<String>(), panic.downcast_ref::<&str>()) {
            (Some(msg), _) => msg.clone(),
            (None, Some(msg)) => msg.to_string(),
            (None, None) => resume_unwind(panic),
        };
        panic!("[{cfg}] {msg}");
    }
}

/// A [`Session`] plus what keeps it alive: nothing in process, the
/// loopback server otherwise. Derefs to `dyn Session`.
pub struct TestSession {
    session: Box<dyn Session>,
    _server: Option<ServerHandle<PosFactory>>,
}

impl std::ops::Deref for TestSession {
    type Target = dyn Session;
    fn deref(&self) -> &Self::Target {
        self.session.as_ref()
    }
}

/// A `FileStore` in a fresh temporary directory, deleted on drop. Fsync is
/// off: these are tests, not databases.
struct TempFileStore {
    store: FileStore,
    dir: PathBuf,
}

impl TempFileStore {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("siri-matrix-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FileStoreOptions { fsync: FsyncPolicy::Never, ..FileStoreOptions::default() };
        let (store, _) = FileStore::open_with(&dir, opts).expect("create a temporary file store");
        TempFileStore { store, dir }
    }
}

impl Drop for TempFileStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl NodeStore for TempFileStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        self.store.try_put(page)
    }
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        self.store.try_get(hash)
    }
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        self.store.try_put_batch(batch)
    }
    fn note_commit(&self) -> StoreResult<()> {
        self.store.note_commit()
    }
    fn contains(&self, hash: &Hash) -> bool {
        self.store.contains(hash)
    }
    fn stats(&self) -> StoreStats {
        self.store.stats()
    }
}
