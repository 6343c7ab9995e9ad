//! The stacks an op stream can run on — the rungs of the layer ladder.
//!
//! One [`Exec`] is one fully built stack: a `RemoteSession` talking to a
//! loopback `siri-server`, an in-process `Forkbase`, or a bare `SiriIndex`,
//! each over the store its [`StackSpec`] names. Every policy the engine
//! would otherwise read from the environment (`SIRI_SHARDS` and friends)
//! is passed explicitly here, so the environment cannot change a run.

use std::collections::HashMap;
use std::net::TcpListener;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

use siri::proto::WireServerStats;
use siri::{
    merge_with_base, verify_anchored_batch, verify_anchored_membership, BatchVerdict, CacheStats,
    ChunkerKind, ClientOptions, EngineStats, Entry, FileStore, FileStoreOptions, Forkbase,
    FsyncPolicy, Hash, IndexError, IndexFactory, MbtFactory, MemStore, MergeStrategy, MptFactory,
    MvmbFactory, MvmbParams, PageSet, PosFactory, PosParams, ProofScheme, ProofVerdict,
    RemoteSession, ServerHandle, ServerOptions, Session, ShardingPolicy, SharedStore, SiriIndex,
    StoreStats, StructureReport, StructureStats, WriteBatch,
};

use crate::ops::{Branch, Op, Outcome};
use crate::span::{SpanSink, SpanStore};

/// POS-Tree parameters, spelled out (not `Default`) so a changed default
/// cannot move the numbers: ~1 KB leaves, 32-way fan-out, buzhash chunker.
pub const POS_PARAMS: PosParams = PosParams {
    leaf_pattern_bits: 10,
    internal_pattern_bits: 5,
    window: 67,
    internal_chunking: siri::InternalChunking::HashPattern,
    split_policy: siri::SplitPolicy::Pattern,
    chunker: ChunkerKind::Buzhash,
};
const MBT_BUCKETS: usize = 1024;
const MBT_FANOUT: usize = 32;
const MVMB_PARAMS: MvmbParams = MvmbParams { max_leaf_entries: 4, max_internal_children: 24 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    Pos,
    Mpt,
    Mbt,
    Mvmb,
}

impl Structure {
    /// The metric-name spelling (`mixed_ops_per_s.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Structure::Pos => "pos-tree",
            Structure::Mpt => "mpt",
            Structure::Mbt => "mbt",
            Structure::Mvmb => "mvmb",
        }
    }

    /// Whether the root digest is a pure function of the contents. MVMB+
    /// is the paper's order-dependent baseline.
    pub fn structurally_invariant(self) -> bool {
        self != Structure::Mvmb
    }

    /// What a client holding only a branch digest verifies proofs with.
    pub fn scheme(self) -> &'static dyn ProofScheme {
        match self {
            Structure::Pos => &siri::PosProofScheme,
            Structure::Mpt => &siri::MptProofScheme,
            Structure::Mbt => &siri::MbtProofScheme,
            Structure::Mvmb => &siri::MvmbProofScheme,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    Mem,
    File(FsyncPolicy),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `RemoteSession` → loopback TCP → `siri-server` → engine.
    Wire,
    /// The in-process `Forkbase`.
    Engine,
    /// A bare `SiriIndex` per branch; no engine, no sharding.
    Index,
}

impl Transport {
    /// The layer whose name op spans on this stack carry.
    pub fn layer(self) -> &'static str {
        match self {
            Transport::Wire => "client",
            Transport::Engine => "forkbase",
            Transport::Index => "index",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct StackSpec {
    pub structure: Structure,
    pub shards: usize,
    pub backing: Backing,
    pub transport: Transport,
    /// Put a [`SpanStore`] between the stack and its store (the two lowest
    /// rungs of the ladder); takes effect only where a sink is supplied.
    pub span_store: bool,
}

/// Shape of one branch head as the index reports it.
pub struct Shape {
    pub report: StructureReport,
    pub cache: CacheStats,
}

pub trait Exec {
    /// Load `entries` into `master` server-side: `bulk_load` on one shard,
    /// one routed commit when the branch is pinned to several (a bulk load
    /// would replace the pinned partition with an equal-count one).
    fn preload(&mut self, entries: Vec<Entry>) -> siri::Result<()>;
    fn run(&mut self, op: &Op) -> siri::Result<Outcome>;
    fn digest(&self, branch: Branch) -> siri::Result<Hash>;
    /// Re-attach `digest` as `master`, as a restarted server does with the
    /// head it persisted. Only an engine over a reopened store can.
    fn open_master(&mut self, _digest: Hash) -> siri::Result<()> {
        Err(IndexError::Unsupported("only the in-process engine re-attaches a head"))
    }
    fn store_stats(&self) -> StoreStats;
    fn wire_stats(&self) -> Option<WireServerStats> {
        None
    }
    fn engine_stats(&self) -> Option<EngineStats> {
        None
    }
    fn scan_all(&self, branch: Branch) -> siri::Result<Vec<Entry>>;
    fn shape(&self, branch: Branch) -> siri::Result<Shape>;
    fn pages_loaded(&self, branch: Branch, key: &[u8]) -> siri::Result<u32>;
    fn page_set(&self, branch: Branch) -> Option<PageSet>;
    /// Stop whatever the stack started (server threads, sockets) and wait
    /// for it; the store directory can be reopened afterwards.
    fn close(self: Box<Self>);
}

pub fn build(
    spec: &StackSpec,
    dir: &Path,
    sink: Option<Arc<SpanSink>>,
) -> std::io::Result<Box<dyn Exec>> {
    match spec.structure {
        Structure::Pos => build_with(PosFactory(POS_PARAMS), spec, dir, sink),
        Structure::Mpt => build_with(MptFactory, spec, dir, sink),
        Structure::Mbt => {
            build_with(MbtFactory { buckets: MBT_BUCKETS, fanout: MBT_FANOUT }, spec, dir, sink)
        }
        Structure::Mvmb => build_with(MvmbFactory(MVMB_PARAMS), spec, dir, sink),
    }
}

fn build_with<F>(
    factory: F,
    spec: &StackSpec,
    dir: &Path,
    sink: Option<Arc<SpanSink>>,
) -> std::io::Result<Box<dyn Exec>>
where
    F: IndexFactory + 'static,
    F::Index: 'static,
{
    let scheme = factory.scheme();
    let sink = sink.filter(|_| spec.span_store);
    let policy = if spec.shards > 1 {
        ShardingPolicy::pinned(spec.shards)
    } else {
        ShardingPolicy::single()
    };
    let file_opts =
        |fsync| FileStoreOptions { max_segment_bytes: siri::DEFAULT_SEGMENT_BYTES, fsync };
    let open_store = |sink: Option<Arc<SpanSink>>| -> std::io::Result<SharedStore> {
        let base: SharedStore = match spec.backing {
            Backing::Mem => MemStore::new_shared(),
            Backing::File(fsync) => Arc::new(FileStore::open_with(dir, file_opts(fsync))?.0),
        };
        Ok(match sink {
            Some(sink) => SpanStore::wrap(base, sink),
            None => base,
        })
    };
    if spec.transport == Transport::Index {
        let store = open_store(sink)?;
        let mut heads = HashMap::new();
        heads.insert("master", factory.empty(store.clone()));
        return Ok(Box::new(IndexExec::<F> { store, heads, fork_base: HashMap::new(), scheme }));
    }
    let engine = match (spec.backing, sink) {
        // The durable constructor is the only one that hands the engine a
        // handle to fsync through.
        (Backing::File(fsync), None) => {
            Forkbase::new_durable_with_sharding(factory, dir, file_opts(fsync), policy, 0)?
        }
        (backing, sink) => {
            // A span-wrapped file store has no such handle: it is the
            // ladder's fsync-free rung by construction.
            assert!(
                matches!(backing, Backing::Mem | Backing::File(FsyncPolicy::Never)),
                "a SpanStore stack cannot fsync"
            );
            Forkbase::with_sharding(factory, open_store(sink)?, policy, 0)
        }
    };
    let engine = Arc::new(engine);
    let shards = spec.shards;
    if spec.transport == Transport::Engine {
        return Ok(Box::new(EngineExec { engine, fork_base: HashMap::new(), scheme, shards }));
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let server = siri::serve(engine.clone(), listener, ServerOptions::default(), None)?;
    let client = RemoteSession::connect_with(
        server.addr(),
        ClientOptions { scheme, ..ClientOptions::default() },
    )?;
    let inner = EngineExec { engine, fork_base: HashMap::new(), scheme, shards };
    Ok(Box::new(WireExec { client, server, inner }))
}

fn verified(
    scheme: &'static dyn ProofScheme,
    digest: Hash,
    key: &[u8],
    proof: siri::Proof,
) -> siri::Result<Outcome> {
    match verify_anchored_membership(scheme, digest, key, &proof) {
        ProofVerdict::Present(v) => Ok(Outcome::Proved { digest, value: Some(v), proof }),
        ProofVerdict::Absent => Ok(Outcome::Proved { digest, value: None, proof }),
        ProofVerdict::Invalid(why) => Err(IndexError::ProofRejected(why)),
    }
}

fn verified_many(
    scheme: &'static dyn ProofScheme,
    digest: Hash,
    keys: &[siri::Bytes],
    proof: siri::Proof,
) -> siri::Result<Outcome> {
    match verify_anchored_batch(scheme, digest, keys, &proof) {
        BatchVerdict::Verified(verdicts) => Ok(Outcome::ProvedMany {
            digest,
            values: verdicts.iter().map(|v| v.value().cloned()).collect(),
            proof,
        }),
        BatchVerdict::Invalid(why) => Err(IndexError::ProofRejected(why)),
    }
}

/// The ops a [`Session`] can serve, shared by the wire and engine stacks.
fn run_session(
    session: &dyn Session,
    scheme: &'static dyn ProofScheme,
    op: &Op,
) -> siri::Result<Outcome> {
    match op {
        Op::Get { branch, key } => session.get(branch, key).map(Outcome::Value),
        Op::Scan { branch, start, limit } => session
            .range(branch, Bound::Included(&start[..]), Bound::Unbounded)?
            .take(*limit)
            .collect::<siri::Result<Vec<Entry>>>()
            .map(Outcome::Entries),
        Op::Commit { branch, batch } => {
            let info = session.commit(branch, batch.clone())?;
            Ok(Outcome::Committed { root: info.root, shards: info.shards.len() })
        }
        // `RemoteSession::verified_get` is this same pair of calls; they are
        // spelled out because the benchmark also wants the proof.
        Op::VerifiedGet { branch, key } => {
            let (digest, proof) = session.prove(branch, key)?;
            verified(scheme, digest, key, proof)
        }
        Op::VerifiedGetMany { branch, keys } => {
            let (digest, proof) = session.prove_batch(branch, keys)?;
            verified_many(scheme, digest, keys, proof)
        }
        Op::Fork { from, to } => session.fork(from, to).map(|()| Outcome::Done),
        Op::Diff { .. } | Op::Merge { .. } => {
            Err(IndexError::Unsupported("diff and merge are engine calls, not Session verbs"))
        }
    }
}

struct EngineExec<F: IndexFactory> {
    engine: Arc<Forkbase<F>>,
    /// Digest each forked branch started from: the merge base.
    fork_base: HashMap<Branch, Hash>,
    scheme: &'static dyn ProofScheme,
    shards: usize,
}

impl<F: IndexFactory> EngineExec<F> {
    fn head(&self, branch: Branch) -> siri::Result<F::Index> {
        self.engine.head(branch).ok_or(IndexError::Unsupported("unknown branch"))
    }
}

impl<F: IndexFactory> Exec for EngineExec<F> {
    fn preload(&mut self, entries: Vec<Entry>) -> siri::Result<()> {
        if self.shards > 1 {
            self.engine.commit("master", WriteBatch::from_entries(entries)).map(drop)
        } else {
            self.engine.bulk_load("master", entries, 1).map(drop)
        }
    }

    fn run(&mut self, op: &Op) -> siri::Result<Outcome> {
        match op {
            Op::Fork { from, to } => {
                self.fork_base.insert(to, self.engine.branch_digest(from)?);
                self.engine.fork(from, to).map(|()| Outcome::Done)
            }
            Op::Diff { a, b } => self.head(a)?.diff(&self.head(b)?).map(Outcome::Diff),
            Op::Merge { into, other } => {
                let base = *self
                    .fork_base
                    .get(other)
                    .ok_or(IndexError::Unsupported("merge of a branch that was never forked"))?;
                self.engine.merge_branches_with_base(
                    into,
                    other,
                    base,
                    MergeStrategy::PreferRight,
                )?;
                Ok(Outcome::Merged { root: self.engine.branch_digest(into)? })
            }
            _ => run_session(self.engine.as_ref(), self.scheme, op),
        }
    }

    fn digest(&self, branch: Branch) -> siri::Result<Hash> {
        self.engine.branch_digest(branch)
    }

    fn open_master(&mut self, digest: Hash) -> siri::Result<()> {
        self.engine.open_branch("master", digest);
        Ok(())
    }

    fn store_stats(&self) -> StoreStats {
        self.engine.server_stats()
    }

    fn engine_stats(&self) -> Option<EngineStats> {
        Some(self.engine.engine_stats())
    }

    fn scan_all(&self, branch: Branch) -> siri::Result<Vec<Entry>> {
        self.engine.range(branch, Bound::Unbounded, Bound::Unbounded)?.collect()
    }

    fn shape(&self, branch: Branch) -> siri::Result<Shape> {
        let head = self.head(branch)?;
        Ok(Shape { report: head.structure_stats()?, cache: head.node_cache_stats() })
    }

    fn pages_loaded(&self, branch: Branch, key: &[u8]) -> siri::Result<u32> {
        Ok(self.head(branch)?.get_traced(key)?.1.pages_loaded)
    }

    fn page_set(&self, branch: Branch) -> Option<PageSet> {
        self.engine.head(branch).map(|h| h.page_set())
    }

    fn close(self: Box<Self>) {}
}

struct WireExec<F: IndexFactory> {
    client: RemoteSession,
    server: ServerHandle<F>,
    /// The engine behind the server: preload, counters and the final
    /// checks reach it directly; measured ops never do.
    inner: EngineExec<F>,
}

impl<F> Exec for WireExec<F>
where
    F: IndexFactory + 'static,
    F::Index: 'static,
{
    fn preload(&mut self, entries: Vec<Entry>) -> siri::Result<()> {
        self.inner.preload(entries)
    }

    fn run(&mut self, op: &Op) -> siri::Result<Outcome> {
        run_session(&self.client, self.inner.scheme, op)
    }

    fn digest(&self, branch: Branch) -> siri::Result<Hash> {
        self.client.branch_digest(branch)
    }

    fn store_stats(&self) -> StoreStats {
        self.inner.store_stats()
    }

    fn wire_stats(&self) -> Option<WireServerStats> {
        Some(self.server.stats())
    }

    fn engine_stats(&self) -> Option<EngineStats> {
        self.inner.engine_stats()
    }

    fn scan_all(&self, branch: Branch) -> siri::Result<Vec<Entry>> {
        self.inner.scan_all(branch)
    }

    fn shape(&self, branch: Branch) -> siri::Result<Shape> {
        self.inner.shape(branch)
    }

    fn pages_loaded(&self, branch: Branch, key: &[u8]) -> siri::Result<u32> {
        self.inner.pages_loaded(branch, key)
    }

    fn page_set(&self, branch: Branch) -> Option<PageSet> {
        self.inner.page_set(branch)
    }

    fn close(self: Box<Self>) {
        let WireExec { client, server, inner } = *self;
        drop(client);
        // Joins the acceptor and every connection handler.
        server.shutdown();
        drop(inner);
    }
}

struct IndexExec<F: IndexFactory> {
    store: SharedStore,
    heads: HashMap<Branch, F::Index>,
    fork_base: HashMap<Branch, Hash>,
    scheme: &'static dyn ProofScheme,
}

impl<F: IndexFactory> IndexExec<F> {
    fn head(&self, branch: Branch) -> siri::Result<&F::Index> {
        self.heads.get(branch).ok_or(IndexError::Unsupported("unknown branch"))
    }

    fn head_mut(&mut self, branch: Branch) -> siri::Result<&mut F::Index> {
        self.heads.get_mut(branch).ok_or(IndexError::Unsupported("unknown branch"))
    }
}

impl<F: IndexFactory> Exec for IndexExec<F> {
    fn preload(&mut self, entries: Vec<Entry>) -> siri::Result<()> {
        self.head_mut("master")?.batch_insert(entries)
    }

    fn run(&mut self, op: &Op) -> siri::Result<Outcome> {
        match op {
            Op::Get { branch, key } => self.head(branch)?.get(key).map(Outcome::Value),
            Op::Scan { branch, start, limit } => self
                .head(branch)?
                .range(Bound::Included(&start[..]), Bound::Unbounded)
                .take(*limit)
                .collect::<siri::Result<Vec<Entry>>>()
                .map(Outcome::Entries),
            Op::Commit { branch, batch } => {
                let root = self.head_mut(branch)?.commit(batch.clone())?;
                Ok(Outcome::Committed { root, shards: 1 })
            }
            Op::VerifiedGet { branch, key } => {
                let head = self.head(branch)?;
                verified(self.scheme, head.root(), key, head.prove(key)?)
            }
            Op::VerifiedGetMany { branch, keys } => {
                let head = self.head(branch)?;
                verified_many(self.scheme, head.root(), keys, head.prove_batch(keys)?)
            }
            Op::Fork { from, to } => {
                let head = self.head(from)?.clone();
                self.fork_base.insert(to, head.root());
                self.heads.insert(to, head);
                Ok(Outcome::Done)
            }
            Op::Diff { a, b } => self.head(a)?.diff(self.head(b)?).map(Outcome::Diff),
            Op::Merge { into, other } => {
                let base_root = *self
                    .fork_base
                    .get(other)
                    .ok_or(IndexError::Unsupported("merge of a branch that was never forked"))?;
                let left = self.head(into)?;
                let base = left.at_root(base_root);
                let merged =
                    merge_with_base(&base, left, self.head(other)?, MergeStrategy::PreferRight)?
                        .merged;
                let root = merged.root();
                self.heads.insert(into, merged);
                Ok(Outcome::Merged { root })
            }
        }
    }

    fn digest(&self, branch: Branch) -> siri::Result<Hash> {
        Ok(self.head(branch)?.root())
    }

    fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    fn scan_all(&self, branch: Branch) -> siri::Result<Vec<Entry>> {
        self.head(branch)?.scan()
    }

    fn shape(&self, branch: Branch) -> siri::Result<Shape> {
        let head = self.head(branch)?;
        Ok(Shape { report: head.structure_stats()?, cache: head.node_cache_stats() })
    }

    fn pages_loaded(&self, branch: Branch, key: &[u8]) -> siri::Result<u32> {
        Ok(self.head(branch)?.get_traced(key)?.1.pages_loaded)
    }

    fn page_set(&self, branch: Branch) -> Option<PageSet> {
        self.heads.get(branch).map(|h| h.page_set())
    }

    fn close(self: Box<Self>) {}
}

/// Bytes a store directory occupies: segment files plus the manifest.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else { return 0 };
    rd.filter_map(|e| e.ok()).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
}
