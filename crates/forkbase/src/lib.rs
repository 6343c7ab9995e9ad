//! A Forkbase-style storage engine over any SIRI index (§5.6).
//!
//! This crate is the *server* of the paper's single-servlet setup, grown
//! to many concurrent sessions — what `siri-server` serves and what the
//! in-process [`Session`] is. The client side (verifying what it is told
//! against a digest it trusts) lives in `siri-client`, not here.
//!
//! * **writes** execute against the shared page store ("the write
//!   operations will be performed on the server side completely");
//! * **reads** go through the same shard heads commits build on: one read
//!   path, one decoded-node cache per shard lineage, warmed by both;
//! * **branches** are named heads over immutable roots, so forking is
//!   O(1) and history is always intact.
//!
//! ## Concurrency model
//!
//! Every operation takes `&self`: the engine is shared across threads by
//! reference (or `Arc`), not serialized behind one lock. The paper's
//! structures make this nearly free — all data is immutable and
//! content-addressed, so the only mutable state is a *tiny head table
//! per branch*:
//!
//! * the branch table is an `RwLock<HashMap<_, Arc<BranchSlot>>>` — taken
//!   briefly to resolve a name to its slot; commits and reads on
//!   *different* branches then proceed on disjoint per-slot locks;
//! * a branch head is an immutable **shard table**: `N` per-key-range
//!   sub-roots, each checked on its own at publish time, plus a
//!   [`ShardRouter`] describing the partition (`N = 1` — the default — is exactly the classic single
//!   mutable head). A multi-shard head is summarized by a
//!   content-addressed [`ShardManifest`](siri_core::ShardManifest) page,
//!   so the branch digest stays a single hash;
//! * same-branch commits are **optimistic**: the batch is routed by key
//!   range and each touched shard's next version is staged against its
//!   observed sub-root (unlocked). The untouched sub-roots are read once
//!   the builds are done, and every staged page plus the manifest page the
//!   new head needs reach the store in one append and one flush. Only then
//!   is the table's write lock taken, for a check and one pointer swap —
//!   never for tree building, store I/O or fsync. Writers whose batches
//!   touch *disjoint shards* therefore never conflict: their parents still
//!   match, and a writer that lost only to a commit on another shard
//!   re-stages just the manifest. A genuinely lost race (same shard)
//!   re-applies only the mismatched slices on the fresher sub-roots,
//!   bounded by [`MAX_COMMIT_ATTEMPTS`]. Lost races surface in
//!   [`EngineStats::conflicts`] and per-shard in [`ShardStats`];
//! * with [`ShardingPolicy::adaptive`] the partition itself adapts at
//!   publish points: a shard absorbing conflicts splits at its median
//!   key, persistently cold adjacent shards merge back (the
//!   contention-adapting-tree idea applied to immutable sub-roots);
//! * a read takes shared locks only: it clones the owning shard's head
//!   handle under the table's read lock and traverses unlocked, so readers
//!   never serialize. A cursor clones every covering shard head under that
//!   one read lock and chains the per-shard scans in partition order, so
//!   `range`/`scan_prefix` see one logical tree at one atomic snapshot.
//!
//! Every publication — commit, merge, bulk load, reshard — goes through
//! one step: the engine, not the index, writes the staged pages and the
//! head's manifest page in one append, flushes once through
//! [`NodeStore::note_commit`] (a [`FileStore`] applies its
//! [`siri_store::FsyncPolicy`] there — including group commit; an
//! in-memory store does nothing), and only then swaps the head. An
//! observable head is always a durable head, manifest page included, so a
//! returned digest is always re-openable.
//!
//! [`IndexFactory`] abstracts over which of the four structures backs the
//! store ([`PosFactory::noms`] gives Noms' Prolly-tree chunking for the
//! Figure 22 comparison).

mod factory;

use std::collections::HashMap;
use std::ops::{Bound, RangeInclusive};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{LockClass, RwLock};
use siri_core::{
    chain_cursors, head_digest, merge, merge_with_base, open_head, AnchoredReader, BatchOp,
    CommitInfo, Entry, EntryCursor, IndexError, MergeOutcome, MergeStrategy, Proof, Recorder,
    Result, Session, ShardCommit, ShardRouter, SiriIndex, WriteBatch,
};
use siri_crypto::Hash;
use siri_store::{
    FileStore, FileStoreOptions, MemStore, NodeStore, PageBatch, SharedStore, StoreStats,
};

pub use factory::{scheme_by_name, IndexFactory, MbtFactory, MptFactory, MvmbFactory, PosFactory};

/// Upper bound on optimistic-commit attempts before a commit gives up with
/// [`IndexError::CommitContention`]. Each lost race implies another
/// writer's commit was published, so reaching this bound means the branch
/// absorbed at least this many competing commits while one batch was
/// being rebuilt — pathological contention, not deadlock.
pub const MAX_COMMIT_ATTEMPTS: u32 = 1_000;

/// Lock classes for the runtime lock-order tracker (DESIGN.md §9): the
/// engine's documented acquisition order is branch map → slot head (the
/// shard table) → store internals. Debug builds with `SIRI_LOCK_ORDER=1`
/// panic on any out-of-order acquisition.
static BRANCH_MAP_CLASS: LockClass = LockClass::new(10, "forkbase.branch-map");
static SLOT_HEAD_CLASS: LockClass = LockClass::new(20, "forkbase.slot-head");

/// Engine-level commit counters (monotone, relaxed atomics underneath).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Head publications: successful commits and merges across all
    /// branches.
    pub commits: u64,
    /// Optimistic-commit head races lost (each one triggered a rebuild of
    /// the mismatched batch slices against fresher sub-roots). A round
    /// lost only to a commit on an untouched shard re-stages the manifest
    /// and is not a conflict. `conflicts / commits` is the
    /// branch-contention ratio; it stays 0 while writers touch disjoint
    /// branches *or disjoint shards*.
    pub conflicts: u64,
    /// Adaptive re-sharding: hot shards split at their median key.
    pub splits: u64,
    /// Adaptive re-sharding: cold adjacent shards merged back.
    pub merges: u64,
}

/// Per-shard commit/conflict counters for one branch, in partition order.
/// Disjoint writers are expected to drive `conflicts` of *their* shards to
/// zero; a hot shard's rising count is what trips an adaptive split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Sub-root publications routed into this shard.
    pub commits: u64,
    /// Sub-root CAS races lost on this shard.
    pub conflicts: u64,
}

/// Hard cap on shards per branch: [`ShardingPolicy::pinned`] clamps to it,
/// adaptive splits stop here, and [`Forkbase::bulk_load`] builds at most
/// this many sub-trees.
pub const MAX_SHARDS: usize = 64;

/// Conflicts one shard absorbs (since it was created) before an adaptive
/// policy splits it at its median key.
const SPLIT_THRESHOLD: u64 = 16;

/// A shard with at most this many commits counts as cold when an adaptive
/// policy considers merging adjacent shards.
const MERGE_THRESHOLD: u64 = 1;

/// Commits a branch must absorb before cold shards may merge — prevents
/// collapsing a partition that simply has not seen traffic yet.
const OBSERVE_WINDOW: u64 = 64;

/// How a branch's key space is partitioned into shards, and whether the
/// partition adapts to observed contention.
///
/// The default ([`ShardingPolicy::single`]) is one shard — byte-for-byte
/// the classic single-head engine. [`ShardingPolicy::pinned`] fixes a
/// static count (reproducible benchmarks);
/// [`ShardingPolicy::adaptive_default`] lets conflict counters drive
/// splits and merges at publish points. An engine gets anything but the
/// default only through [`Forkbase::with_sharding`] or
/// [`Forkbase::new_durable_with_sharding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingPolicy {
    /// Shard count for newly created branches (uniform byte-prefix
    /// boundaries). Forked branches inherit the source partition instead.
    pub initial: usize,
    /// Adapt the partition to contention at publish points.
    pub adaptive: bool,
}

impl ShardingPolicy {
    /// One shard, no adaptation — the classic single-slot branch head.
    pub fn single() -> Self {
        ShardingPolicy { initial: 1, adaptive: false }
    }

    /// A static `n`-shard partition (uniform byte-prefix boundaries), `n`
    /// clamped to `1..=`[`MAX_SHARDS`].
    pub fn pinned(n: usize) -> Self {
        ShardingPolicy { initial: n.clamp(1, MAX_SHARDS), ..Self::single() }
    }

    /// Start unsharded and let conflict counters drive splits/merges.
    pub fn adaptive_default() -> Self {
        ShardingPolicy { adaptive: true, ..Self::single() }
    }

    fn initial_router(&self) -> ShardRouter {
        if self.initial > 1 {
            ShardRouter::uniform(self.initial)
        } else {
            ShardRouter::single()
        }
    }
}

impl Default for ShardingPolicy {
    fn default() -> Self {
        Self::single()
    }
}

/// One shard's commit/conflict scoreboard. A commit's table shares it with
/// the table it replaces; a reshape gives the shards it creates fresh ones.
#[derive(Default)]
struct ShardScore {
    commits: AtomicU64,
    conflicts: AtomicU64,
}

/// A branch head: the partition, one head handle and scoreboard per shard,
/// and the logical digest. A published table is never edited: every
/// publication (commit, merge, bulk load, reshard) swaps in a whole new
/// table under the enclosing [`BranchSlot`]'s write lock, so a reader
/// holding the read lock sees one consistent multi-shard snapshot. `epoch`
/// bumps whenever the partition shape changes, invalidating routed-but-
/// unpublished builds.
#[derive(Clone)]
struct ShardTable<I> {
    router: ShardRouter,
    /// One head per shard, in partition order.
    heads: Vec<I>,
    scores: Vec<Arc<ShardScore>>,
    epoch: u64,
    /// The branch's logical head digest: the sole sub-root when `N = 1`,
    /// the manifest digest otherwise ([`head_digest`]).
    digest: Hash,
}

impl<I: SiriIndex> ShardTable<I> {
    /// A table of `heads` over `router`, each shard with a fresh
    /// scoreboard. Its manifest page, if it needs one, is not stored here.
    fn new(router: ShardRouter, heads: Vec<I>, epoch: u64) -> Self {
        let scores = heads.iter().map(|_| Arc::default()).collect();
        let (digest, _) = head_digest(&router, heads.iter().map(SiriIndex::root).collect());
        ShardTable { router, heads, scores, epoch, digest }
    }

    fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// Sub-roots in partition order.
    fn roots(&self) -> Vec<Hash> {
        self.heads.iter().map(SiriIndex::root).collect()
    }

    /// Whether this is still the head `base` was: the same partition
    /// generation over the same sub-roots.
    fn is(&self, base: &Self) -> bool {
        self.epoch == base.epoch
            && self.heads.iter().map(SiriIndex::root).eq(base.heads.iter().map(SiriIndex::root))
    }

    /// This table reshaped: shards `range` become `heads` under `router`,
    /// with fresh scoreboards, and the epoch moves on. The digest is set
    /// when the table is landed.
    fn reshaped(&self, router: ShardRouter, range: RangeInclusive<usize>, heads: Vec<I>) -> Self {
        let mut next = self.clone();
        next.scores.splice(range.clone(), heads.iter().map(|_| Arc::default()));
        next.heads.splice(range, heads);
        next.router = router;
        next.epoch += 1;
        next
    }
}

/// The per-branch mutable state: the shard table.
///
/// This is the whole trick from the paper's immutability argument: all
/// versions are immutable and shared, so concurrency control reduces to
/// one tiny pointer per branch, behind a branch-local lock. Slots are
/// handed out as `Arc`s — a commit holds the slot, not the branch table,
/// so renames/deletes/creates of *other* branches never block it.
struct BranchSlot<I> {
    /// The authoritative head. Readers take it shared; a publication takes
    /// it exclusive for its check and one swap only.
    head: RwLock<ShardTable<I>>,
    /// Set (under the head write lock) when the slot leaves the branch
    /// map — deleted or replaced: all shards are retired atomically and
    /// any in-flight commit fails its publication with
    /// [`IndexError::BranchDeleted`] instead of publishing into a
    /// dismantled head.
    retired: AtomicBool,
}

impl<I: SiriIndex> BranchSlot<I> {
    fn new(table: ShardTable<I>) -> Self {
        BranchSlot {
            head: RwLock::with_class(table, &SLOT_HEAD_CLASS),
            retired: AtomicBool::new(false),
        }
    }

    /// Turn every later publication away. The write lock drains any
    /// publication in its swap phase first, so a racing commit either
    /// published whole before this or fails — never a partial multi-shard
    /// publish.
    fn retire(&self) {
        let _table = self.head.write();
        self.retired.store(true, Ordering::Release);
    }
}

/// One touched shard's slice of a commit, and its staged next version
/// (`None` until staged, and again once its parent moved).
struct ShardBuild<I> {
    shard: usize,
    ops: Vec<BatchOp>,
    parent: Hash,
    next: Option<I>,
}

impl<I> ShardBuild<I> {
    /// `ops` routed over `table`'s partition, nothing staged yet.
    fn route(table: &ShardTable<I>, ops: &[BatchOp]) -> Vec<Self> {
        let routed = table.router.route_ops(ops.to_vec());
        let unstaged = |(shard, ops)| ShardBuild { shard, ops, parent: Hash::ZERO, next: None };
        routed.into_iter().map(unstaged).collect()
    }
}

/// What [`Forkbase::publish`] did.
enum Published<I> {
    /// The new head is visible; `parent` is the digest it replaced.
    Done { parent: Hash, digest: Hash },
    /// The head had moved on from the base: nothing was swapped. This is
    /// the head the check found.
    Lost(ShardTable<I>),
}

/// A Forkbase-style versioned KV engine backed by index `F::Index`.
///
/// The page store is pluggable: the default is an in-memory
/// [`MemStore`] (the paper's experiments), while
/// [`Forkbase::new_durable`] runs the same engine over a [`FileStore`].
/// Every publication ends in the store's [`NodeStore::note_commit`], so an
/// engine over a `FileStore` fsyncs acknowledged commits per that store's
/// [`siri_store::FsyncPolicy`] whichever constructor built it.
///
/// All operations take `&self`; share the engine across writer and reader
/// threads freely (see the module docs for the locking discipline).
pub struct Forkbase<F: IndexFactory> {
    factory: F,
    server: SharedStore,
    /// Branch name → slot. The map lock is only for name resolution and
    /// branch creation/deletion; all per-branch state hides behind the
    /// slot's own locks.
    branches: RwLock<HashMap<String, Arc<BranchSlot<F::Index>>>>,
    policy: ShardingPolicy,
    commits: AtomicU64,
    conflicts: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
}

impl<F: IndexFactory> Forkbase<F> {
    /// A single-shard engine over a fresh [`MemStore`], with one empty
    /// branch `"master"`.
    pub fn new(factory: F) -> Self {
        Self::with_store(factory, MemStore::new_shared())
    }

    /// A single-shard engine over a caller-supplied server store, with one
    /// empty branch `"master"`. Commits flush through the store's
    /// [`NodeStore::note_commit`], so a [`FileStore`] here is as durable
    /// as one [`Forkbase::new_durable`] opens.
    pub fn with_store(factory: F, server: SharedStore) -> Self {
        Self::with_sharding(factory, server, ShardingPolicy::single(), 0)
    }

    /// [`Forkbase::with_store`] with an explicit [`ShardingPolicy`] — the
    /// one way, with [`Forkbase::new_durable_with_sharding`], to ask for
    /// more than one shard. `_reserved` is ignored; `bench/e2e` still
    /// passes a `0` there (see the *Owed by this PR* list under ROADMAP
    /// item 2).
    pub fn with_sharding(
        factory: F,
        server: SharedStore,
        policy: ShardingPolicy,
        _reserved: u64,
    ) -> Self {
        let master = Self::fresh_table(&factory, &server, policy.initial_router());
        let engine = Forkbase {
            factory,
            server,
            branches: RwLock::with_class(HashMap::new(), &BRANCH_MAP_CLASS),
            policy,
            commits: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
        };
        engine.install("master", master);
        engine
    }

    /// A single-shard engine whose server store persists to `path` (a
    /// [`FileStore`] directory). Commits are flushed per the options' fsync
    /// policy. Branch heads themselves are in-memory — callers that need
    /// them to survive a restart persist the roots (e.g. a sidecar file,
    /// as the `siri` CLI does) and re-attach with [`Forkbase::open_branch`].
    pub fn new_durable(
        factory: F,
        path: impl AsRef<std::path::Path>,
        opts: FileStoreOptions,
    ) -> std::io::Result<Self> {
        Self::new_durable_with_sharding(factory, path, opts, ShardingPolicy::single(), 0)
    }

    /// [`Forkbase::new_durable`] with an explicit [`ShardingPolicy`].
    /// `_reserved` is ignored, as on [`Forkbase::with_sharding`].
    pub fn new_durable_with_sharding(
        factory: F,
        path: impl AsRef<std::path::Path>,
        opts: FileStoreOptions,
        policy: ShardingPolicy,
        _reserved: u64,
    ) -> std::io::Result<Self> {
        let (fs, _) = FileStore::open_with(path, opts)?;
        Ok(Self::with_sharding(factory, Arc::new(fs), policy, 0))
    }

    /// A table of empty sub-roots over `router`'s partition.
    fn fresh_table(factory: &F, server: &SharedStore, router: ShardRouter) -> ShardTable<F::Index> {
        let heads = (0..router.shard_count()).map(|_| factory.empty(server.clone())).collect();
        ShardTable::new(router, heads, 0)
    }

    /// Resolve a branch name to its slot. Holding the returned `Arc` keeps
    /// the slot alive even across a concurrent `delete_branch`.
    fn slot(&self, branch: &str) -> Result<Arc<BranchSlot<F::Index>>> {
        self.branches.read().get(branch).cloned().ok_or(IndexError::Unsupported("unknown branch"))
    }

    /// Make `table` the head of `branch` — the one place a branch is
    /// created or replaced. A slot it displaces is retired like a deleted
    /// branch's, so a commit still holding that slot fails with
    /// [`IndexError::BranchDeleted`] instead of acknowledging a write no
    /// branch name reaches.
    fn install(&self, branch: &str, table: ShardTable<F::Index>) {
        let displaced =
            self.branches.write().insert(branch.to_string(), Arc::new(BranchSlot::new(table)));
        if let Some(slot) = displaced {
            slot.retire();
        }
    }

    /// Attach a branch head at an existing root (e.g. one recovered from a
    /// durable store's sidecar after a restart). The root may be either a
    /// plain index root or a shard-manifest digest ([`open_head`] tells
    /// them apart); a manifest re-opens as a sharded head with the
    /// persisted partition. Replaces the branch if it exists.
    pub fn open_branch(&self, branch: &str, root: Hash) {
        self.install(branch, self.table_at(root));
    }

    /// The head `root` names in the server store; a root the store cannot
    /// resolve opens as a bare index root.
    fn table_at(&self, root: Hash) -> ShardTable<F::Index> {
        let (router, roots) = open_head(self.server.as_ref(), root)
            .unwrap_or_else(|_| (ShardRouter::single(), vec![root]));
        let heads = roots.into_iter().map(|r| self.factory.open(self.server.clone(), r)).collect();
        ShardTable { digest: root, ..ShardTable::new(router, heads, 0) }
    }

    /// The store half of a publication: `pages` plus the manifest page
    /// `next`'s head needs, in one append, made durable by the store's one
    /// commit point ([`NodeStore::note_commit`]); sets `next`'s digest. On
    /// error no head has changed, and whatever did land is orphaned for
    /// the next sweep.
    fn land(&self, next: &mut ShardTable<F::Index>, mut pages: PageBatch) -> Result<()> {
        let (digest, manifest) = head_digest(&next.router, next.roots());
        if let Some(page) = manifest {
            pages.push(page);
        }
        next.digest = digest;
        self.server.try_put_batch(&pages)?;
        Ok(self.server.note_commit()?)
    }

    /// The one way a branch head changes: [`Forkbase::land`] `next` with
    /// its staged `pages`, then take `slot`'s write lock and swap `next` in
    /// if three things hold — the slot is not retired, and its epoch and
    /// every sub-root are still `base`'s. The lock covers that check and
    /// one pointer swap: nothing is stored or flushed under it. A retired
    /// slot fails with [`IndexError::BranchDeleted`]; a moved head is
    /// [`Published::Lost`], and the caller decides what to rebuild.
    fn publish(
        &self,
        slot: &BranchSlot<F::Index>,
        base: &ShardTable<F::Index>,
        mut next: ShardTable<F::Index>,
        pages: PageBatch,
    ) -> Result<Published<F::Index>> {
        self.land(&mut next, pages)?;
        let digest = next.digest;
        let mut t = slot.head.write();
        if slot.retired.load(Ordering::Acquire) {
            return Err(IndexError::BranchDeleted);
        }
        if !t.is(base) {
            return Ok(Published::Lost(t.clone()));
        }
        let old = std::mem::replace(&mut *t, next);
        drop(t);
        Ok(Published::Done { parent: old.digest, digest })
    }

    /// One commit ([`Session::commit`]) on a resolved slot: the receipt
    /// names the observed parent head, the published root, the per-shard
    /// sub-root edges, and how many head races were lost on the way.
    ///
    /// The sharded optimistic protocol, one round at a time:
    ///
    /// 1. stage every touched shard's slice that has no build yet against
    ///    the shard's head in the last table seen — fully unlocked;
    /// 2. read the table again: the untouched sub-roots the new head will
    ///    name are the ones current *after* the builds;
    /// 3. if the epoch and every touched parent still match,
    ///    [`Forkbase::publish`]: one append, one flush, one checked swap.
    ///
    /// A round that does not publish looks at the table it found. A
    /// reshaped partition re-routes the whole batch; a touched shard whose
    /// parent moved is rebuilt — the only case that counts a conflict and a
    /// retry; and if only untouched shards moved, the next round re-stages
    /// just the manifest. Every round counts against
    /// [`MAX_COMMIT_ATTEMPTS`]. The flush strictly precedes the swap, so
    /// any head a reader can observe is durable.
    fn commit_on_slot(&self, slot: &BranchSlot<F::Index>, batch: WriteBatch) -> Result<CommitInfo> {
        let ops = batch.normalize();
        let mut table = slot.head.read().clone();
        let mut builds = ShardBuild::route(&table, &ops);
        let mut pages = PageBatch::new();
        let (mut attempts, mut retries) = (0u32, 0u32);
        loop {
            for b in builds.iter_mut().filter(|b| b.next.is_none()) {
                let base = &table.heads[b.shard];
                b.parent = base.root();
                b.next = Some(base.stage(WriteBatch::from_ops(b.ops.clone()), &mut pages)?);
            }
            let now = slot.head.read().clone();
            let fresh = now.epoch == table.epoch
                && builds.iter().all(|b| now.heads[b.shard].root() == b.parent);
            let seen = if fresh {
                let mut next = now.clone();
                for b in &builds {
                    if let Some(head) = &b.next {
                        next.heads[b.shard] = head.clone();
                    }
                }
                match self.publish(slot, &now, next, std::mem::take(&mut pages))? {
                    Published::Done { parent, digest } => {
                        for b in &builds {
                            now.scores[b.shard].commits.fetch_add(1, Ordering::Relaxed);
                        }
                        self.commits.fetch_add(1, Ordering::Relaxed);
                        if self.policy.adaptive {
                            self.maybe_reshard(slot);
                        }
                        let shards = builds
                            .iter()
                            .map(|b| ShardCommit {
                                shard: b.shard,
                                parent: b.parent,
                                root: b.next.as_ref().map_or(Hash::ZERO, SiriIndex::root),
                            })
                            .collect();
                        return Ok(CommitInfo { parent, root: digest, retries, shards });
                    }
                    Published::Lost(seen) => seen,
                }
            } else {
                now
            };
            // Lost the round. The losing builds' pages, landed or not, are
            // orphans for the next sweep. Score the genuinely contended
            // shards — the signal an adaptive policy splits on.
            if seen.epoch != table.epoch {
                builds = ShardBuild::route(&seen, &ops);
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                retries += 1;
            } else {
                let mut lost = false;
                for b in builds.iter_mut().filter(|b| seen.heads[b.shard].root() != b.parent) {
                    seen.scores[b.shard].conflicts.fetch_add(1, Ordering::Relaxed);
                    b.next = None;
                    lost = true;
                }
                if lost {
                    self.conflicts.fetch_add(1, Ordering::Relaxed);
                    retries += 1;
                }
            }
            table = seen;
            attempts += 1;
            if attempts >= MAX_COMMIT_ATTEMPTS {
                return Err(IndexError::CommitContention { attempts });
            }
        }
    }

    /// The optimistic publish-retry loop for whole-branch operations
    /// (merges): `build` the next version against the *collapsed* logical
    /// head, then publish it as a fresh single-shard table if the head has
    /// not moved. Merging a sharded branch therefore resets its partition —
    /// under an adaptive policy the partition re-grows where contention
    /// returns.
    fn publish_whole<T>(
        &self,
        slot: &BranchSlot<F::Index>,
        mut build: impl FnMut(&F::Index) -> Result<(F::Index, T)>,
    ) -> Result<T> {
        let mut attempts = 0u32;
        loop {
            let (base, table) = self.logical_head(slot)?;
            let (next, payload) = build(&base)?;
            let next = ShardTable::new(ShardRouter::single(), vec![next], table.epoch + 1);
            if let Published::Done { .. } = self.publish(slot, &table, next, PageBatch::new())? {
                self.commits.fetch_add(1, Ordering::Relaxed);
                return Ok(payload);
            }
            self.conflicts.fetch_add(1, Ordering::Relaxed);
            attempts += 1;
            if attempts >= MAX_COMMIT_ATTEMPTS {
                return Err(IndexError::CommitContention { attempts });
            }
        }
    }

    /// The branch's logical head as one index handle, plus the table it
    /// was read from. Single-shard heads clone out for free; multi-shard
    /// heads collapse (a rebuild over the merged cursor, stored at once so
    /// the handle can be read) — whole-branch operations are the slow path
    /// by design.
    fn logical_head(
        &self,
        slot: &BranchSlot<F::Index>,
    ) -> Result<(F::Index, ShardTable<F::Index>)> {
        let table = slot.head.read().clone();
        let index = match &table.heads[..] {
            [only] => only.clone(),
            heads => {
                let mut pages = PageBatch::new();
                let index = self.collapse(heads, &mut pages)?;
                self.server.try_put_batch(&pages)?;
                index
            }
        };
        Ok((index, table))
    }

    /// Every entry of `heads`, in key order when the heads are in
    /// partition order.
    fn entries_of(heads: &[F::Index]) -> Result<Vec<Entry>> {
        heads.iter().flat_map(|h| h.range(Bound::Unbounded, Bound::Unbounded)).collect()
    }

    /// A fresh index over the server store holding `entries`, its pages
    /// staged into `pages`.
    fn build(&self, entries: Vec<Entry>, pages: &mut PageBatch) -> Result<F::Index> {
        self.factory.empty(self.server.clone()).stage(WriteBatch::from_entries(entries), pages)
    }

    /// Rebuild the logical contents of per-shard sub-trees into one fresh
    /// index, staged into `pages`. For the structurally invariant
    /// structures the result's digest equals the unsharded build of the
    /// same surviving KV set.
    fn collapse(&self, heads: &[F::Index], pages: &mut PageBatch) -> Result<F::Index> {
        self.build(Self::entries_of(heads)?, pages)
    }

    /// Bulk-load `entries` into `branch` (replacing its contents), building
    /// the per-shard sub-trees on up to `threads` (at most [`MAX_SHARDS`])
    /// worker threads over an equal-count partition of the sorted data.
    /// Each worker stages into its own batch; the joined batch and the
    /// manifest land in one append and one flush before the digest is
    /// returned. Like [`Forkbase::open_branch`], the branch is (re)created
    /// at the loaded state, so there is no parent head to check.
    pub fn bulk_load(&self, branch: &str, entries: Vec<Entry>, threads: usize) -> Result<Hash> {
        // Sort + last-write-wins dedup, same as batch normalization.
        let mut entries = entries;
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let mut data: Vec<Entry> = Vec::with_capacity(entries.len());
        for e in entries {
            match data.last_mut() {
                Some(last) if last.key == e.key => *last = e,
                _ => data.push(e),
            }
        }
        let want = threads.clamp(1, MAX_SHARDS).min(data.len().max(1));
        // Equal-count cut points; duplicate cuts collapse.
        let mut boundaries: Vec<Bytes> = Vec::new();
        for i in 1..want {
            let b = data[i * data.len() / want].key.clone();
            if boundaries.last().is_none_or(|p| *p < b) {
                boundaries.push(b);
            }
        }
        let router = ShardRouter::new(boundaries);
        let mut slices: Vec<Vec<Entry>> = (0..router.shard_count()).map(|_| Vec::new()).collect();
        for e in data {
            slices[router.shard_of(&e.key)].push(e);
        }
        // Parallel sub-tree builds: one worker per shard slice.
        type Staged<I> = Result<(I, PageBatch)>;
        let built: Vec<Staged<F::Index>> = std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .into_iter()
                .map(|slice| {
                    scope.spawn(move || -> Staged<F::Index> {
                        let mut pages = PageBatch::new();
                        Ok((self.build(slice, &mut pages)?, pages))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(IndexError::CorruptStructure("bulk-load worker panicked"))
                    })
                })
                .collect()
        });
        let mut heads = Vec::with_capacity(built.len());
        let mut pages = PageBatch::new();
        for b in built {
            let (head, staged) = b?;
            heads.push(head);
            pages.append(staged);
        }
        let mut table = ShardTable::new(router, heads, 0);
        self.land(&mut table, pages)?;
        let digest = table.digest;
        self.install(branch, table);
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(digest)
    }

    /// The head handles of every shard `[start, end]` can touch, in
    /// partition order, cloned under one table read lock — publications
    /// need that lock exclusively, so the handles are one atomic snapshot
    /// of the branch however many shards it spans.
    fn covering_heads(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<Vec<F::Index>> {
        let slot = self.slot(branch)?;
        let t = slot.head.read();
        let (lo, hi) = t.router.covering(start, end);
        Ok(t.heads[lo..=hi].to_vec())
    }

    /// Merge branch `other` into `into` (paper §4.1.4 semantics). The
    /// merge is computed against a snapshot of both *logical* heads
    /// (sharded branches collapse first) and published with the same
    /// compare-and-swap as commits: a concurrent commit to `into` forces a
    /// re-merge rather than being silently overwritten. The published
    /// result is a single-shard head.
    pub fn merge_branches(
        &self,
        into: &str,
        other: &str,
        strategy: MergeStrategy,
    ) -> Result<MergeOutcome<F::Index>> {
        let into_slot = self.slot(into)?;
        let right = {
            let right_slot = self.slot(other)?;
            self.logical_head(&right_slot)?.0
        };
        self.publish_whole(&into_slot, |left| {
            let outcome = merge(left, &right, strategy)?;
            Ok((outcome.merged.clone(), outcome))
        })
    }

    /// Three-way merge of `other` into `into` from a common base version —
    /// usually the root `other` was forked at. Unlike [`Forkbase::merge_branches`]
    /// (a two-way union), this sees deletions made on either branch since
    /// the base and propagates them (edit-vs-delete conflicts resolve per
    /// `strategy`).
    pub fn merge_branches_with_base(
        &self,
        into: &str,
        other: &str,
        base_root: Hash,
        strategy: MergeStrategy,
    ) -> Result<MergeOutcome<F::Index>> {
        let into_slot = self.slot(into)?;
        let right = {
            let right_slot = self.slot(other)?;
            self.logical_head(&right_slot)?.0
        };
        self.publish_whole(&into_slot, |left| {
            // The base is just another version in the shared store;
            // re-rooting the left handle reads it through the same caches.
            let base = left.at_root(base_root);
            let outcome = merge_with_base(&base, left, &right, strategy)?;
            Ok((outcome.merged.clone(), outcome))
        })
    }

    /// The branch's current head handle — an owned snapshot: immutable
    /// versions make a clone of the handle a point-in-time view of the
    /// branch. A multi-shard head collapses into one fresh logical index
    /// (for the structurally invariant structures its digest equals the
    /// unsharded build of the same contents).
    pub fn head(&self, branch: &str) -> Option<F::Index> {
        let slot = self.slot(branch).ok()?;
        self.logical_head(&slot).ok().map(|(index, _)| index)
    }

    /// The branch's current shard count.
    pub fn shard_count(&self, branch: &str) -> Result<usize> {
        Ok(self.slot(branch)?.head.read().shard_count())
    }

    /// Per-shard commit/conflict counters, in partition order. A reshape
    /// gives the shards it creates fresh counters; untouched shards keep
    /// theirs.
    pub fn shard_stats(&self, branch: &str) -> Result<Vec<ShardStats>> {
        let slot = self.slot(branch)?;
        let t = slot.head.read();
        Ok(t.scores
            .iter()
            .map(|s| ShardStats {
                commits: s.commits.load(Ordering::Relaxed),
                conflicts: s.conflicts.load(Ordering::Relaxed),
            })
            .collect())
    }

    /// Adaptive policy hook, run after successful publications: split the
    /// hottest over-threshold shard, or merge the coldest adjacent pair
    /// once the branch has seen enough traffic to judge. Best-effort —
    /// a lost race simply leaves the partition for the next publish.
    fn maybe_reshard(&self, slot: &BranchSlot<F::Index>) {
        let (split_at, merge_at) = {
            let t = slot.head.read();
            let n = t.shard_count();
            let mut split: Option<(usize, u64)> = None;
            if n < MAX_SHARDS {
                for (i, s) in t.scores.iter().enumerate() {
                    let c = s.conflicts.load(Ordering::Relaxed);
                    if c >= SPLIT_THRESHOLD && split.is_none_or(|(_, best)| c > best) {
                        split = Some((i, c));
                    }
                }
            }
            let mut merge: Option<usize> = None;
            if split.is_none() && n > 1 {
                let total: u64 = t.scores.iter().map(|s| s.commits.load(Ordering::Relaxed)).sum();
                if total >= OBSERVE_WINDOW {
                    for i in 0..n - 1 {
                        let cold = |s: &ShardScore| {
                            s.commits.load(Ordering::Relaxed) <= MERGE_THRESHOLD
                                && s.conflicts.load(Ordering::Relaxed) == 0
                        };
                        if cold(&t.scores[i]) && cold(&t.scores[i + 1]) {
                            merge = Some(i);
                            break;
                        }
                    }
                }
            }
            (split.map(|(i, _)| i), merge)
        };
        if let Some(i) = split_at {
            let _ = self.split_shard(slot, i);
        } else if let Some(i) = merge_at {
            let _ = self.merge_shards(slot, i);
        }
    }

    /// Split `branch`'s shard `shard` at its median key (deterministic
    /// hook for the adaptive policy; also usable directly in tests and
    /// tools). Returns `Ok(false)` when the split is not applicable (too
    /// few keys, shard cap, lost race).
    pub fn split_branch_shard(&self, branch: &str, shard: usize) -> Result<bool> {
        let slot = self.slot(branch)?;
        self.split_shard(&slot, shard)
    }

    /// Merge `branch`'s shards `left` and `left + 1` back into one
    /// (deterministic hook for the adaptive policy). Returns `Ok(false)`
    /// when not applicable.
    pub fn merge_branch_shards(&self, branch: &str, left: usize) -> Result<bool> {
        let slot = self.slot(branch)?;
        self.merge_shards(&slot, left)
    }

    fn split_shard(&self, slot: &BranchSlot<F::Index>, shard: usize) -> Result<bool> {
        let table = slot.head.read().clone();
        if shard >= table.shard_count() || table.shard_count() >= MAX_SHARDS {
            return Ok(false);
        }
        let mut left = Self::entries_of(&table.heads[shard..=shard])?;
        if left.len() < 2 {
            return Ok(false);
        }
        let right = left.split_off(left.len() / 2);
        let median = right[0].key.clone();
        // The median must strictly refine the partition (the publication
        // checks the epoch, so this is the router it replaces).
        let mut boundaries = table.router.boundaries().to_vec();
        if shard > 0 && median <= boundaries[shard - 1]
            || boundaries.get(shard).is_some_and(|b| median >= *b)
        {
            return Ok(false);
        }
        boundaries.insert(shard, median);
        let mut pages = PageBatch::new();
        let halves = vec![self.build(left, &mut pages)?, self.build(right, &mut pages)?];
        let next = table.reshaped(ShardRouter::new(boundaries), shard..=shard, halves);
        if let Published::Lost(_) = self.publish(slot, &table, next, pages)? {
            return Ok(false);
        }
        self.splits.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    fn merge_shards(&self, slot: &BranchSlot<F::Index>, left: usize) -> Result<bool> {
        let table = slot.head.read().clone();
        if left + 1 >= table.shard_count() {
            return Ok(false);
        }
        let mut pages = PageBatch::new();
        let merged = self.collapse(&table.heads[left..=left + 1], &mut pages)?;
        let mut boundaries = table.router.boundaries().to_vec();
        boundaries.remove(left);
        let next = table.reshaped(ShardRouter::new(boundaries), left..=left + 1, vec![merged]);
        if let Published::Lost(_) = self.publish(slot, &table, next, pages)? {
            return Ok(false);
        }
        self.merges.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Engine-level commit/conflict/reshard counters (the optimistic-
    /// concurrency scoreboard).
    pub fn engine_stats(&self) -> EngineStats {
        EngineStats {
            commits: self.commits.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
        }
    }

    /// The engine's sharding policy.
    pub fn sharding_policy(&self) -> ShardingPolicy {
        self.policy
    }

    /// What a proof of `branch` is recorded against: the published digest
    /// and a [`Recorder`] over the server store. On a sharded head the
    /// recorder already holds the manifest page, re-encoded from the table
    /// under its read lock (publications swap sub-roots and the digest
    /// while holding it exclusively, so the two can never be observed
    /// torn) rather than fetched: the table *is* the decoded manifest, and
    /// a proof must not depend on that page having reached — or survived GC
    /// in — the store. Everything below the digest is immutable, so the
    /// read itself needs no lock.
    fn witness(&self, branch: &str) -> Result<(Hash, Arc<Recorder>)> {
        let slot = self.slot(branch)?;
        let t = slot.head.read();
        let rec = Recorder::new(self.server.clone());
        let (digest, manifest) = head_digest(&t.router, t.roots());
        debug_assert_eq!(digest, t.digest, "the table must encode to its digest");
        if let Some(page) = manifest {
            rec.note(t.digest, page);
        }
        Ok((t.digest, rec))
    }

    /// Server storage counters.
    pub fn server_stats(&self) -> StoreStats {
        self.server.stats()
    }

    /// The shared server store every branch head lives in — the page
    /// source a network server hands to its sync/fetch handlers, and the
    /// sink an anti-entropy pull fills on the receiving site.
    pub fn server_store(&self) -> SharedStore {
        self.server.clone()
    }
}

/// The in-process side of the [`Session`] abstraction: the engine *is* a
/// session, and the trait is its only way to read or write a branch.
/// `siri-client`'s `RemoteSession` implements the same trait over the
/// wire, so `&dyn Session` callers (the CLI, the behavioral test suites'
/// loopback configurations) cannot tell the two apart.
impl<F: IndexFactory> Session for Forkbase<F> {
    fn commit(&self, branch: &str, batch: WriteBatch) -> Result<CommitInfo> {
        let slot = self.slot(branch)?;
        self.commit_on_slot(&slot, batch)
    }

    /// Point read through the head handle of the one shard owning the key
    /// — the handle commits build on, so both warm one decoded-node cache.
    fn get(&self, branch: &str, key: &[u8]) -> Result<Option<Bytes>> {
        let slot = self.slot(branch)?;
        let head = {
            let t = slot.head.read();
            t.heads[t.router.shard_of(key)].clone()
        };
        head.get(key)
    }

    /// Per-shard lazy cursors chained in partition order, so the caller
    /// sees one logical tree. The cursor reads the snapshot it was created
    /// on — concurrent writes to the branch do not disturb it
    /// (immutability in action).
    fn range(&self, branch: &str, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<EntryCursor> {
        let heads = self.covering_heads(branch, start, end)?;
        Ok(chain_cursors(heads.iter().map(|h| h.range(start, end)).collect()))
    }

    /// O(#shards), pages fully shared. The fork inherits the source
    /// partition (with fresh per-shard counters) and replaces `to` if it
    /// exists.
    fn fork(&self, from: &str, to: &str) -> Result<()> {
        let src = self.slot(from)?;
        let table = {
            let t = src.head.read();
            ShardTable { digest: t.digest, ..ShardTable::new(t.router.clone(), t.heads.clone(), 0) }
        };
        self.install(to, table);
        Ok(())
    }

    /// Pages stay in the store — they are content-addressed and may be
    /// shared with other branches; reclaiming unreachable ones is the
    /// offline GC's job. All of the branch's shards retire
    /// **atomically**: a commit racing the deletion either fully published
    /// before it or fails cleanly with [`IndexError::BranchDeleted`].
    fn delete_branch(&self, branch: &str) -> Result<()> {
        let slot = self
            .branches
            .write()
            .remove(branch)
            .ok_or(IndexError::Unsupported("unknown branch"))?;
        slot.retire();
        Ok(())
    }

    fn branches(&self) -> Result<Vec<String>> {
        let mut names: Vec<String> = self.branches.read().keys().cloned().collect();
        names.sort_unstable();
        Ok(names)
    }

    /// The sole sub-root when unsharded, the shard-manifest digest
    /// otherwise ([`head_digest`]) — the hash `commit` returns and
    /// [`Forkbase::open_branch`] re-attaches from.
    fn branch_digest(&self, branch: &str) -> Result<Hash> {
        Ok(self.slot(branch)?.head.read().digest)
    }

    // A proof is a recorded read (DESIGN.md §14): the three provers run the
    // reader a verifier will replay — same routing, same page order — over
    // a recording store, anchored at the *published* branch digest, i.e.
    // the hash `commit` returned and `branch_digest` reports, the only one
    // a light client holds. (An earlier revision proved against the
    // collapsed logical head instead; on a sharded branch that root
    // differs from the published manifest digest — and for the MVMB+
    // baseline it is not even derivable from the shard sub-roots — so
    // those proofs never verified against anything a client could trust.)

    fn prove(&self, branch: &str, key: &[u8]) -> Result<(Hash, Proof)> {
        let (digest, rec) = self.witness(branch)?;
        AnchoredReader::open(self.factory.scheme(), rec.clone(), digest)?.get(key)?;
        Ok((digest, rec.proof()))
    }

    fn prove_range(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<(Hash, Proof)> {
        let (digest, rec) = self.witness(branch)?;
        AnchoredReader::open(self.factory.scheme(), rec.clone(), digest)?.range(start, end)?;
        Ok((digest, rec.proof()))
    }

    fn prove_batch(&self, branch: &str, keys: &[Bytes]) -> Result<(Hash, Proof)> {
        if keys.is_empty() {
            // Convention shared with the verifier: no keys, no pages.
            return Ok((self.branch_digest(branch)?, Proof::new(Vec::new())));
        }
        let (digest, rec) = self.witness(branch)?;
        let reader = AnchoredReader::open(self.factory.scheme(), rec.clone(), digest)?;
        for key in keys {
            reader.get(key)?;
        }
        Ok((digest, rec.proof()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_pos_tree::PosParams;

    fn entries(range: std::ops::Range<usize>) -> Vec<Entry> {
        range
            .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 64]))
            .collect()
    }

    fn single_engine() -> Forkbase<PosFactory> {
        Forkbase::new(PosFactory(PosParams::default()))
    }

    fn sharded_engine(n: usize) -> Forkbase<PosFactory> {
        Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            Arc::new(MemStore::new()),
            ShardingPolicy::pinned(n),
            0,
        )
    }

    /// Commit `entries` as one batch of puts; the new head digest.
    fn put(fb: &impl Session, branch: &str, entries: Vec<Entry>) -> Result<Hash> {
        fb.commit(branch, WriteBatch::from_entries(entries)).map(|info| info.root)
    }

    /// Commit the deletion of `keys`; the new head digest.
    fn delete<K: Into<Bytes>>(
        fb: &impl Session,
        branch: &str,
        keys: impl IntoIterator<Item = K>,
    ) -> Result<Hash> {
        let mut batch = WriteBatch::new();
        for key in keys {
            batch.delete(key);
        }
        fb.commit(branch, batch).map(|info| info.root)
    }

    #[test]
    fn pinned_policy_clamps_to_the_shard_cap() {
        assert_eq!(ShardingPolicy::pinned(100).initial, MAX_SHARDS);
        assert_eq!(ShardingPolicy::pinned(0).initial, 1);
    }

    #[test]
    fn put_get_round_trip() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..500)).unwrap();
        assert_eq!(fb.get("master", b"key00123").unwrap().unwrap().len(), 64);
        assert_eq!(fb.get("master", b"missing").unwrap(), None);
    }

    #[test]
    fn forks_share_pages_and_diverge() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..300)).unwrap();
        fb.fork("master", "feature").unwrap();
        put(&fb, "feature", entries(300..350)).unwrap();
        assert_eq!(fb.get("master", b"key00320").unwrap(), None);
        assert!(fb.get("feature", b"key00320").unwrap().is_some());
        // Page sharing between branches.
        let m = fb.head("master").unwrap().page_set();
        let f = fb.head("feature").unwrap().page_set();
        assert!(!m.intersection(&f).is_empty());
    }

    #[test]
    fn merge_branches_combines_and_detects_conflicts() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..100)).unwrap();
        fb.fork("master", "other").unwrap();
        put(&fb, "other", entries(100..120)).unwrap();
        let outcome = fb.merge_branches("master", "other", MergeStrategy::Strict).unwrap();
        assert_eq!(outcome.added_from_right, 20);
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 120);

        // Now a real conflict.
        put(&fb, "other", vec![Entry::new(b"key00005".to_vec(), b"theirs".to_vec())]).unwrap();
        put(&fb, "master", vec![Entry::new(b"key00005".to_vec(), b"ours".to_vec())]).unwrap();
        let err = fb.merge_branches("master", "other", MergeStrategy::Strict).unwrap_err();
        assert!(matches!(err, IndexError::MergeConflict { .. }));
        // Resolvable with a policy.
        let outcome = fb.merge_branches("master", "other", MergeStrategy::PreferRight).unwrap();
        assert_eq!(outcome.conflicts_resolved, 1);
        assert_eq!(fb.get("master", b"key00005").unwrap().unwrap().as_ref(), b"theirs");
    }

    #[test]
    fn unknown_branch_is_an_error() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        assert!(put(&fb, "ghost", entries(0..1)).is_err());
        assert!(fb.get("ghost", b"k").is_err());
        assert!(fb.delete_branch("ghost").is_err());
        assert!(fb.range("ghost", std::ops::Bound::Unbounded, std::ops::Bound::Unbounded).is_err());
    }

    #[test]
    fn branch_deletes_flow_through_write_batches() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..100)).unwrap();
        let before = fb.head("master").unwrap().root();
        delete(&fb, "master", [&b"key00042"[..]]).unwrap();
        assert_eq!(fb.get("master", b"key00042").unwrap(), None);
        assert_ne!(fb.head("master").unwrap().root(), before);
        // Mixed batch through commit.
        let mut batch = WriteBatch::new();
        batch.put(&b"zz-new"[..], &b"v"[..]).delete(&b"key00001"[..]);
        fb.commit("master", batch).unwrap();
        assert!(fb.get("master", b"zz-new").unwrap().is_some());
        assert_eq!(fb.get("master", b"key00001").unwrap(), None);
        // Put-back restores the original digest (structural invariance).
        let mut batch = WriteBatch::new();
        batch.delete(&b"zz-new"[..]);
        for i in [1usize, 42] {
            let e = &entries(i..i + 1)[0];
            batch.put(e.key.clone(), e.value.clone());
        }
        fb.commit("master", batch).unwrap();
        assert_eq!(fb.head("master").unwrap().root(), before);
    }

    #[test]
    fn three_way_merge_propagates_branch_deletions() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..100)).unwrap();
        let base_root = fb.head("master").unwrap().root();
        fb.fork("master", "cleaning").unwrap();
        // The branch deletes 10 records and edits one; master stays put.
        delete(&fb, "cleaning", (0..10).map(|i| format!("key{i:05}").into_bytes())).unwrap();
        put(&fb, "cleaning", vec![Entry::new(b"key00050".to_vec(), b"edited".to_vec())]).unwrap();

        // Three-way merge from the fork point propagates the deletions
        // (the two-way union merge, by documented construction, cannot).
        let outcome = fb
            .merge_branches_with_base("master", "cleaning", base_root, MergeStrategy::Strict)
            .unwrap();
        assert_eq!(outcome.removed_by_right, 10);
        assert_eq!(outcome.added_from_right, 1, "the edit applies cleanly");
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 90);
        assert_eq!(fb.get("master", b"key00005").unwrap(), None);
        assert_eq!(fb.get("master", b"key00050").unwrap().unwrap().as_ref(), b"edited");

        // Edit-vs-delete is a conflict under Strict, resolvable by policy.
        let base2 = fb.head("master").unwrap().root();
        fb.fork("master", "hotfix").unwrap();
        delete(&fb, "hotfix", [&b"key00060"[..]]).unwrap();
        put(&fb, "master", vec![Entry::new(b"key00060".to_vec(), b"kept".to_vec())]).unwrap();
        let err = fb
            .merge_branches_with_base("master", "hotfix", base2, MergeStrategy::Strict)
            .unwrap_err();
        assert!(matches!(err, IndexError::MergeConflict { .. }));
        let outcome = fb
            .merge_branches_with_base("master", "hotfix", base2, MergeStrategy::PreferRight)
            .unwrap();
        assert_eq!(outcome.conflicts_resolved, 1);
        assert_eq!(fb.get("master", b"key00060").unwrap(), None, "delete won");
        // Both sides deleting the same key converges without conflict.
        let base3 = fb.head("master").unwrap().root();
        fb.fork("master", "twin").unwrap();
        delete(&fb, "twin", [&b"key00070"[..]]).unwrap();
        delete(&fb, "master", [&b"key00070"[..]]).unwrap();
        let outcome =
            fb.merge_branches_with_base("master", "twin", base3, MergeStrategy::Strict).unwrap();
        assert_eq!(outcome.conflicts_resolved, 0);
        assert_eq!(outcome.removed_by_right, 0, "already gone on the left");
    }

    #[test]
    fn delete_branch_leaves_other_branches_pages_intact() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..300)).unwrap();
        fb.fork("master", "doomed").unwrap();
        put(&fb, "doomed", entries(300..400)).unwrap();
        assert_eq!(fb.branches().unwrap(), vec!["doomed".to_string(), "master".to_string()]);

        let master_pages = fb.head("master").unwrap().page_set();
        fb.delete_branch("doomed").unwrap();
        assert_eq!(fb.branches().unwrap(), vec!["master".to_string()]);
        // The surviving branch's page set is bit-identical and fully
        // readable.
        let after = fb.head("master").unwrap().page_set();
        assert_eq!(master_pages.len(), after.len());
        assert_eq!(master_pages.intersection(&after).len(), after.len());
        assert!(fb.get("master", b"key00123").unwrap().is_some());
    }

    #[test]
    fn client_range_cursor_streams_in_key_order() {
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        put(&fb, "master", entries(0..2000)).unwrap();
        let gets_before = fb.server_stats().gets;
        use std::ops::Bound;
        let window: Vec<Entry> = fb
            .range("master", Bound::Included(b"key00100"), Bound::Excluded(b"key00110"))
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(window.len(), 10);
        assert_eq!(window[0].key.as_ref(), b"key00100");
        // Prefix cursor.
        let pre: Vec<Entry> =
            fb.scan_prefix("master", b"key0003").unwrap().collect::<Result<_>>().unwrap();
        assert_eq!(pre.len(), 10, "key00030..key00039");
        // A bounded window must not pull the whole dataset out of the
        // store: page reads stay far below the page count.
        let fetches = fb.server_stats().gets - gets_before;
        let total_pages = fb.head("master").unwrap().page_set().len() as u64;
        assert!(fetches < total_pages / 2, "cursor reads fetched {fetches} of {total_pages} pages");
        // An open cursor survives a concurrent branch write (it reads the
        // snapshot it was created on).
        let mut cursor =
            fb.range("master", Bound::Included(b"key01000"), Bound::Excluded(b"key01005")).unwrap();
        let first = cursor.next().unwrap().unwrap();
        put(&fb, "master", entries(2000..2001)).unwrap();
        let rest: Vec<Entry> = cursor.collect::<Result<_>>().unwrap();
        assert_eq!(first.key.as_ref(), b"key01000");
        assert_eq!(rest.len(), 4);
    }

    #[test]
    fn durable_engine_commits_survive_reopen() {
        use siri_store::FsyncPolicy;
        let dir = std::env::temp_dir()
            .join("siri-forkbase-tests")
            .join(format!("durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FileStoreOptions { fsync: FsyncPolicy::OnCommit, ..FileStoreOptions::default() };

        let root = {
            let fb = Forkbase::new_durable(PosFactory(PosParams::default()), &dir, opts).unwrap();
            put(&fb, "master", entries(0..300)).unwrap()
        }; // "process exits" — the commit was fsynced before put returned

        let fb = Forkbase::new_durable(PosFactory(PosParams::default()), &dir, opts).unwrap();
        fb.open_branch("master", root);
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 300);
        assert_eq!(fb.get("master", b"key00123").unwrap().unwrap().len(), 64);
        // Writes keep flowing after the reopen.
        put(&fb, "master", entries(300..310)).unwrap();
        assert!(fb.get("master", b"key00305").unwrap().is_some());
    }

    #[test]
    fn concurrent_commits_to_disjoint_branches_never_conflict() {
        let fb = Arc::new(Forkbase::new(PosFactory(PosParams::default())));
        for t in 0..4 {
            fb.fork("master", &format!("b{t}")).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4usize {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    let branch = format!("b{t}");
                    for k in 0..10usize {
                        let e = Entry::new(
                            format!("t{t}-k{k:03}").into_bytes(),
                            format!("v{t}-{k}").into_bytes(),
                        );
                        put(&fb, &branch, vec![e]).unwrap();
                    }
                });
            }
        });
        let stats = fb.engine_stats();
        assert_eq!(stats.commits, 40);
        assert_eq!(stats.conflicts, 0, "disjoint branches must not contend");
        for t in 0..4 {
            assert_eq!(fb.head(&format!("b{t}")).unwrap().len().unwrap(), 10);
        }
    }

    #[test]
    fn contended_commits_all_land_exactly_once() {
        let fb = Arc::new(single_engine());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for k in 0..15usize {
                        let e = Entry::new(
                            format!("t{t}-k{k:03}").into_bytes(),
                            format!("v{t}-{k}").into_bytes(),
                        );
                        let info = fb.commit("master", WriteBatch::from_entries(vec![e]));
                        let info = info.unwrap();
                        assert_ne!(info.parent, info.root, "a put must move the head");
                        assert_eq!(info.shards.len(), 1, "single-shard receipt");
                        assert_eq!(info.shards[0].parent, info.parent);
                        assert_eq!(info.shards[0].root, info.root);
                    }
                });
            }
        });
        let stats = fb.engine_stats();
        assert_eq!(stats.commits, 60);
        let head = fb.head("master").unwrap();
        assert_eq!(head.len().unwrap(), 60, "every batch applied exactly once");
        for t in 0..4 {
            for k in 0..15 {
                let key = format!("t{t}-k{k:03}");
                assert_eq!(
                    fb.get("master", key.as_bytes()).unwrap().as_deref(),
                    Some(format!("v{t}-{k}").as_bytes()),
                );
            }
        }
    }

    #[test]
    fn disjoint_shard_writers_record_zero_conflicts() {
        // 4 writers on one branch, each confined to its own key-range
        // shard: per-shard CAS makes the branch behave like 4 disjoint
        // branches — zero conflicts, zero rebuilds.
        let fb = Arc::new(sharded_engine(4));
        assert_eq!(fb.shard_count("master").unwrap(), 4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    // First key byte pins the writer to shard t under the
                    // uniform single-byte partition.
                    let lead = (t * 64 + 10) as u8;
                    for k in 0..12usize {
                        let mut key = vec![lead];
                        key.extend_from_slice(format!("w{t}-k{k:03}").as_bytes());
                        let info = fb
                            .commit(
                                "master",
                                WriteBatch::from_entries(vec![Entry::new(
                                    key,
                                    format!("v{t}-{k}").into_bytes(),
                                )]),
                            )
                            .unwrap();
                        assert_eq!(info.retries, 0, "disjoint shards never race");
                        assert_eq!(info.shards.len(), 1);
                        assert_eq!(info.shards[0].shard, t);
                    }
                });
            }
        });
        let stats = fb.engine_stats();
        assert_eq!(stats.commits, 48);
        assert_eq!(stats.conflicts, 0, "disjoint shards must not contend");
        for s in fb.shard_stats("master").unwrap() {
            assert_eq!(s.commits, 12);
            assert_eq!(s.conflicts, 0);
        }
        // The logical tree is complete and ordered across shards.
        let all: Vec<Entry> = fb
            .range("master", Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(all.len(), 48);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key), "chained cursors stay sorted");
    }

    #[test]
    fn sharded_head_digest_is_the_manifest_and_reopens() {
        let fb = sharded_engine(4);
        put(&fb, "master", entries(0..200)).unwrap();
        let digest = fb.branch_digest("master").unwrap();
        // The digest is a stored manifest page over 4 sub-roots.
        let page = fb.server_stats();
        assert!(page.puts > 0);
        // Reattach over the same store via a second engine.
        let fb2 = Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            fb.server.clone(),
            ShardingPolicy::single(),
            0,
        );
        fb2.open_branch("restored", digest);
        assert_eq!(fb2.shard_count("restored").unwrap(), 4, "manifest partition restored");
        assert_eq!(fb2.branch_digest("restored").unwrap(), digest);
        assert_eq!(fb2.get("restored", b"key00123").unwrap().unwrap().len(), 64);
        // Logical contents equal the unsharded build (structural
        // invariance of the collapsed head).
        let single = single_engine();
        put(&single, "master", entries(0..200)).unwrap();
        assert_eq!(
            fb.head("master").unwrap().root(),
            single.head("master").unwrap().root(),
            "collapsed sharded head must match the unsharded digest"
        );
    }

    #[test]
    fn batches_spanning_shards_commit_atomically() {
        let fb = sharded_engine(4);
        // One batch across all four shards: every slice publishes in one
        // critical section, and the receipt carries all four edges.
        let data: Vec<Entry> =
            (0u16..256).step_by(16).map(|b| Entry::new(vec![b as u8, 1], vec![b as u8])).collect();
        let info = fb.commit("master", WriteBatch::from_entries(data.clone())).unwrap();
        assert_eq!(info.shards.len(), 4, "all four shards touched");
        assert!(info.shards.windows(2).all(|w| w[0].shard < w[1].shard));
        let all: Vec<Entry> = fb
            .range("master", Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(all.len(), data.len());
        // Deleting across shards works the same way.
        let mut batch = WriteBatch::new();
        for e in &data {
            batch.delete(e.key.clone());
        }
        let info = fb.commit("master", batch).unwrap();
        assert_eq!(info.shards.len(), 4);
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 0);
    }

    #[test]
    fn racing_commit_into_deleted_branch_fails_cleanly() {
        let fb = single_engine();
        fb.fork("master", "doomed").unwrap();
        put(&fb, "doomed", entries(0..10)).unwrap();
        // A commit that resolved its slot before the delete must observe
        // the atomic retirement, not publish into the dismantled head.
        let slot = fb.slot("doomed").unwrap();
        fb.delete_branch("doomed").unwrap();
        let err = fb.commit_on_slot(&slot, WriteBatch::from_entries(entries(10..11))).unwrap_err();
        assert!(matches!(err, IndexError::BranchDeleted), "got {err:?}");
        // Same for the sharded head: every slot retires at once.
        let fbs = sharded_engine(4);
        fbs.fork("master", "doomed").unwrap();
        let slot = fbs.slot("doomed").unwrap();
        fbs.delete_branch("doomed").unwrap();
        let err = fbs.commit_on_slot(&slot, WriteBatch::from_entries(entries(0..50))).unwrap_err();
        assert!(matches!(err, IndexError::BranchDeleted), "got {err:?}");
        // Replacing a branch retires the slot it displaces the same way: a
        // commit still holding that slot must fail, not acknowledge a write
        // no branch name reaches.
        type Replace = fn(&Forkbase<PosFactory>);
        let replacements: [(&str, Replace); 3] = [
            ("open_branch", |fb| fb.open_branch("doomed", Hash::ZERO)),
            ("fork", |fb| fb.fork("master", "doomed").unwrap()),
            ("bulk_load", |fb| assert!(fb.bulk_load("doomed", entries(0..5), 1).is_ok())),
        ];
        for (how, replace) in replacements {
            let fb = single_engine();
            fb.fork("master", "doomed").unwrap();
            let slot = fb.slot("doomed").unwrap();
            replace(&fb);
            let err = fb.commit_on_slot(&slot, WriteBatch::from_entries(entries(10..11)));
            assert!(matches!(err, Err(IndexError::BranchDeleted)), "{how}: got {err:?}");
            assert_eq!(fb.get("doomed", b"key00010").unwrap(), None, "{how}");
        }
    }

    #[test]
    fn split_and_merge_hooks_preserve_contents() {
        let fb = single_engine();
        put(&fb, "master", entries(0..300)).unwrap();
        let before = fb.head("master").unwrap().root();
        assert!(fb.split_branch_shard("master", 0).unwrap());
        assert_eq!(fb.shard_count("master").unwrap(), 2);
        assert!(fb.split_branch_shard("master", 1).unwrap());
        assert_eq!(fb.shard_count("master").unwrap(), 3);
        assert_eq!(fb.engine_stats().splits, 2);
        // Contents and collapsed digest survive the reshard.
        assert_eq!(fb.head("master").unwrap().root(), before);
        assert_eq!(fb.get("master", b"key00123").unwrap().unwrap().len(), 64);
        let all: Vec<Entry> = fb
            .range("master", Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        // Writes keep landing in the new partition.
        put(&fb, "master", entries(300..320)).unwrap();
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 320);
        // Merge back down to one shard.
        assert!(fb.merge_branch_shards("master", 1).unwrap());
        assert!(fb.merge_branch_shards("master", 0).unwrap());
        assert_eq!(fb.shard_count("master").unwrap(), 1);
        assert_eq!(fb.engine_stats().merges, 2);
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 320);
    }

    #[test]
    fn adaptive_policy_splits_hot_shard() {
        // Two writers fighting over one shard long enough trip the
        // adaptive split; the logical contents are untouched.
        let fb = Arc::new(Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            Arc::new(MemStore::new()),
            ShardingPolicy::adaptive_default(),
            0,
        ));
        put(&fb, "master", entries(0..200)).unwrap();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for k in 0..30usize {
                        put(
                            &fb,
                            "master",
                            vec![Entry::new(
                                format!("key{:05}", 1000 + t * 100 + k).into_bytes(),
                                vec![7u8; 16],
                            )],
                        )
                        .unwrap();
                    }
                });
            }
        });
        let stats = fb.engine_stats();
        if stats.conflicts >= SPLIT_THRESHOLD {
            assert!(stats.splits > 0, "sustained contention must split the hot shard");
            assert!(fb.shard_count("master").unwrap() > 1);
        }
        assert_eq!(fb.head("master").unwrap().len().unwrap(), 200 + 120);
    }

    #[test]
    fn bulk_load_parallel_build_matches_serial_digest() {
        let data = entries(0..2000);
        let fb = sharded_engine(1);
        let digest = fb.bulk_load("loaded", data.clone(), 4).unwrap();
        assert!(fb.shard_count("loaded").unwrap() > 1, "parallel load shards the branch");
        assert_eq!(fb.branch_digest("loaded").unwrap(), digest);
        assert_eq!(fb.get("loaded", b"key01234").unwrap().unwrap().len(), 64);
        // The collapsed logical tree equals the serial unsharded build
        // (structural invariance).
        let single = single_engine();
        put(&single, "master", data).unwrap();
        assert_eq!(fb.head("loaded").unwrap().root(), single.head("master").unwrap().root());
        // The manifest digest round-trips through open_branch.
        fb.open_branch("reloaded", digest);
        assert_eq!(fb.head("reloaded").unwrap().root(), single.head("master").unwrap().root());
        // Degenerate loads stay sane.
        let one = fb.bulk_load("tiny", entries(0..1), 8).unwrap();
        assert_eq!(fb.shard_count("tiny").unwrap(), 1);
        assert_ne!(one, Hash::ZERO);
        fb.bulk_load("empty", Vec::new(), 8).unwrap();
        assert_eq!(fb.head("empty").unwrap().len().unwrap(), 0);
    }

    #[test]
    fn noms_engine_writes_one_by_one_same_content() {
        // Noms (§5.6.2) applies writes one record at a time; Forkbase
        // batches them.
        let noms = Forkbase::new(PosFactory::noms());
        let fb = Forkbase::new(PosFactory::noms());
        let data = entries(0..200);
        for e in data.clone() {
            put(&noms, "master", vec![e]).unwrap();
        }
        put(&fb, "master", data).unwrap();
        // Structural invariance ⇒ same root despite different batching…
        assert_eq!(noms.head("master").unwrap().root(), fb.head("master").unwrap().root());
        // …but the unbatched path paid many more page writes.
        assert!(
            noms.server_stats().puts > fb.server_stats().puts * 5,
            "noms {} vs forkbase {}",
            noms.server_stats().puts,
            fb.server_stats().puts
        );
    }
}
