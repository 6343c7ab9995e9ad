//! Runtime lock-order tracker battery (ISSUE 7).
//!
//! The vendored `parking_lot` shim assigns classed locks a position in the
//! engine's documented acquisition order (branch map → slot head → shard
//! head → store internals, DESIGN.md §9) and — in debug builds with
//! `SIRI_LOCK_ORDER=1` — panics the moment any thread acquires a
//! lower-order lock while holding a higher-order guard.
//!
//! This suite proves both directions:
//!
//! * a deliberately inverted acquisition panics with a diagnostic naming
//!   both classes (the detector detects);
//! * the real engine — commit, merge, fork, delete_branch and group-commit
//!   interleavings — runs clean with the tracker armed (the engine honors
//!   its own order, and the tracker is silent on legal schedules), on the
//!   store and engine configurations of the shared `matrix` module;
//! * [`MAX_COMMIT_ATTEMPTS`] bounds the optimistic publish loop, proven by
//!   forcing `CommitContention` deterministically with a store hook that
//!   commits a competing batch every time the victim's publication
//!   appends.

mod matrix;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex, Once, Weak};

use matrix::{ENGINES, STORES};
use parking_lot::{lock_order, LockClass, Mutex, RwLock};
use siri::{
    Bytes, FileStoreOptions, Forkbase, FsyncPolicy, Hash, IndexError, MergeStrategy, NodeStore,
    PosFactory, PosParams, Session, ShardingPolicy, SharedStore, SiriIndex, StoreResult,
    StoreStats, WriteBatch, MAX_COMMIT_ATTEMPTS,
};
use siri_store::PageBatch;

/// Arm the tracker before any classed lock runs in this process. The knob
/// is read once through a `OnceLock`, so it must be set before first use;
/// every test calls this first.
fn init() {
    static INIT: Once = Once::new();
    INIT.call_once(|| std::env::set_var("SIRI_LOCK_ORDER", "1"));
}

fn factory() -> PosFactory {
    PosFactory(PosParams::default())
}

fn batch(tag: &str, k: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for i in 0..10 {
        b.put(format!("{tag}-k{k:04}-{i}").into_bytes(), format!("v-{tag}-{k}-{i}").into_bytes());
    }
    b
}

// ---------------------------------------------------------------------------
// The detector detects: a deliberate inversion panics.
// ---------------------------------------------------------------------------

#[test]
fn deliberately_inverted_acquisition_panics() {
    init();
    if !cfg!(debug_assertions) {
        return; // tracker is compiled down to a constant-false in release
    }
    assert!(lock_order::is_active(), "init() must arm the tracker");

    static LOW: LockClass = LockClass::new(1, "test.low");
    static HIGH: LockClass = LockClass::new(9, "test.high");
    let low = Mutex::with_class(0u32, &LOW);
    let high = RwLock::with_class(0u32, &HIGH);

    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _h = high.read();
        let _l = low.lock(); // lower order while higher is held: inversion
    }))
    .expect_err("inverted acquisition must panic under SIRI_LOCK_ORDER=1");

    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("lock-order violation"), "unexpected panic message: {msg}");
    assert!(msg.contains("test.low") && msg.contains("test.high"), "message names both: {msg}");
}

#[test]
fn ascending_order_and_try_lock_stay_silent() {
    init();
    static A: LockClass = LockClass::new(2, "test.a");
    static B: LockClass = LockClass::new(4, "test.b");
    let a = RwLock::with_class(1u32, &A);
    let b = Mutex::with_class(2u32, &B);

    // Ascending acquisition is the contract.
    {
        let ga = a.write();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }
    // try_lock never blocks, so it is allowed to succeed against the order
    // without panicking — it cannot complete a deadlock cycle on its own.
    {
        let ga = a.write();
        let gb = b.lock();
        drop(gb);
        drop(ga);
        static LOWER: LockClass = LockClass::new(1, "test.lower");
        let lower = Mutex::with_class(3u32, &LOWER);
        let gb = b.lock();
        let gl = lower.try_lock().expect("uncontended try_lock succeeds");
        assert_eq!(*gl + *gb, 5);
    }
}

// ---------------------------------------------------------------------------
// The engine is clean: commit/merge/fork/delete interleavings under the
// armed tracker.
// ---------------------------------------------------------------------------

#[test]
fn engine_commit_merge_fork_delete_interleavings_run_clean() {
    init();
    matrix::each(ENGINES, |cfg| {
        let fb = Arc::new(cfg.engine(factory()));
        const WRITERS: usize = 4;
        const COMMITS: usize = 6;

        for t in 0..WRITERS {
            fb.fork("master", &format!("b{t}")).unwrap();
        }

        std::thread::scope(|s| {
            // Writers: each commits to its own branch (disjoint heads, so
            // none ever loses a publish race).
            for t in 0..WRITERS {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    let branch = format!("b{t}");
                    for k in 0..COMMITS {
                        fb.commit(&branch, batch(&format!("w{t}"), k)).unwrap();
                    }
                });
            }
            // Merger: repeatedly merges writer branches into master while the
            // writers are still committing — exercising slot resolution,
            // cross-slot head reads and the CAS publish together.
            {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for round in 0..3 {
                        for t in 0..WRITERS {
                            fb.merge_branches(
                                "master",
                                &format!("b{t}"),
                                MergeStrategy::PreferRight,
                            )
                            .unwrap();
                        }
                        let _ = round;
                    }
                });
            }
            // Churner: forks and deletes short-lived branches, racing the
            // branch-map lock against everyone else's slot locks.
            {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for i in 0..20 {
                        let name = format!("tmp{i}");
                        fb.fork("master", &name).unwrap();
                        let _ = fb.commit(&name, batch("tmp", i));
                        fb.delete_branch(&name).unwrap();
                    }
                });
            }
            // Readers: gets through the moving branches' heads (shared locks
            // only: branch map, then slot head → shard head).
            {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for i in 0..200 {
                        let branch = format!("b{}", i % WRITERS);
                        let _ = fb.get(&branch, format!("w0-k0000-{}", i % 10).as_bytes());
                    }
                });
            }
        });

        // Every writer branch must hold exactly its own commits' records.
        for t in 0..WRITERS {
            let head = fb.head(&format!("b{t}")).unwrap();
            assert_eq!(head.len().unwrap(), COMMITS * 10);
        }
        // The in-flight merge rounds saw arbitrary prefixes of each writer's
        // commits (on a loaded box possibly none — the merger can drain its
        // rounds before a writer is scheduled). One final quiescent merge per
        // branch makes the content check deterministic: master must now hold
        // every writer's records.
        for t in 0..WRITERS {
            fb.merge_branches("master", &format!("b{t}"), MergeStrategy::PreferRight).unwrap();
            let probe = format!("w{t}-k0000-0");
            assert!(
                fb.get("master", probe.as_bytes()).unwrap().is_some(),
                "master lost writer {t}'s merged records"
            );
        }
    });
}

#[test]
fn sharded_commit_merge_delete_interleavings_run_clean() {
    // The sharded head is one table behind the slot head (20), above the
    // store internals (40+). This interleaving drives every acquisition
    // pattern the sharded engine has — routed commits (20r snapshots,
    // store appends with no engine lock held, then a 20w check-and-swap),
    // spanning batches, whole-branch merges, split/merge resharding,
    // branch deletion's atomic retirement, and routed reads (20r) — under
    // the armed tracker.
    init();
    matrix::each(STORES, |cfg| {
        const SHARDS: usize = 4;
        let fb = Arc::new(Forkbase::with_sharding(
            factory(),
            cfg.store(),
            ShardingPolicy::pinned(SHARDS),
            0,
        ));
        // Writers confined to their own shard: disjoint shards never lose a
        // CAS race.
        std::thread::scope(|s| {
            for t in 0..SHARDS {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    let lead = (t * 64 + 1) as u8;
                    for k in 0..6usize {
                        let mut b = WriteBatch::new();
                        for i in 0..10 {
                            let mut key = vec![lead];
                            key.extend_from_slice(format!("s{t}-k{k:04}-{i}").as_bytes());
                            b.put(key, format!("v-{t}-{k}-{i}").into_bytes());
                        }
                        fb.commit("master", b).unwrap();
                    }
                });
            }
            // Churner: forks inherit the 4-shard partition; their commits,
            // reshard hooks and deletions interleave with master's writers.
            {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for i in 0..10usize {
                        let name = format!("tmp{i}");
                        fb.fork("master", &name).unwrap();
                        let mut b = WriteBatch::new();
                        for shard in 0..SHARDS {
                            b.put(vec![(shard * 64 + 2) as u8, i as u8], vec![i as u8]);
                        }
                        let _ = fb.commit(&name, b); // spans every shard
                        let _ = fb.merge_branch_shards(&name, 0);
                        let _ = fb.split_branch_shard(&name, 0);
                        fb.delete_branch(&name).unwrap();
                    }
                });
            }
            // Readers: routed gets and cross-shard range cursors (20r to
            // clone the covering heads, then unlocked cursor reads).
            {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for i in 0..100usize {
                        let lead = ((i % SHARDS) * 64 + 1) as u8;
                        let mut key = vec![lead];
                        key.extend_from_slice(format!("s{}-k0000-0", i % SHARDS).as_bytes());
                        let _ = fb.get("master", &key);
                        if i % 10 == 0 {
                            let _ = fb
                                .range(
                                    "master",
                                    std::ops::Bound::Unbounded,
                                    std::ops::Bound::Unbounded,
                                )
                                .and_then(|c| c.collect::<siri::Result<Vec<_>>>());
                        }
                    }
                });
            }
        });
        let stats = fb.engine_stats();
        assert_eq!(stats.conflicts, 0, "disjoint shards and branches must not contend");
        assert_eq!(fb.head("master").unwrap().len().unwrap(), SHARDS * 6 * 10);
    });
}

#[test]
fn group_commit_interleavings_run_clean_under_tracker() {
    init();
    let dir =
        std::env::temp_dir().join("siri-lock-order").join(format!("group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = FileStoreOptions {
        fsync: FsyncPolicy::Group(std::time::Duration::from_millis(1)),
        ..FileStoreOptions::default()
    };
    let fb = Arc::new(Forkbase::new_durable(factory(), &dir, opts).unwrap());
    const WRITERS: usize = 4;
    for t in 0..WRITERS {
        fb.fork("master", &format!("g{t}")).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let fb = Arc::clone(&fb);
            s.spawn(move || {
                let branch = format!("g{t}");
                for k in 0..4 {
                    // Ack implies fsync coverage; the group path couples the
                    // appender mutex, the index/readers rwlocks and the
                    // (untracked, std) condvar state machine.
                    fb.commit(&branch, batch(&format!("g{t}"), k)).unwrap();
                }
            });
        }
    });
    for t in 0..WRITERS {
        assert_eq!(fb.head(&format!("g{t}")).unwrap().len().unwrap(), 4 * 10);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// MAX_COMMIT_ATTEMPTS: deterministic CommitContention.
// ---------------------------------------------------------------------------

/// A store wrapper that, when armed, publishes a competing commit to the
/// victim branch every time a page or a publication's batch is appended
/// through it — so an optimistic publish loop loses its CAS race on every
/// attempt, deterministically, at one rival per attempt.
/// The reentrancy flag keeps the competing commit's own writes from
/// re-triggering the hook (which would recurse forever).
struct ContentionStore {
    inner: SharedStore,
    engine: StdMutex<Option<Weak<Forkbase<PosFactory>>>>,
    armed: AtomicBool,
    firing: AtomicBool,
    fired: AtomicUsize,
}

impl ContentionStore {
    fn new(inner: SharedStore) -> Self {
        ContentionStore {
            inner,
            engine: StdMutex::new(None),
            armed: AtomicBool::new(false),
            firing: AtomicBool::new(false),
            fired: AtomicUsize::new(0),
        }
    }

    fn maybe_fire(&self) {
        if !self.armed.load(Ordering::Acquire) {
            return;
        }
        if self.firing.swap(true, Ordering::AcqRel) {
            return; // a competing commit is already in flight on this store
        }
        let engine = self.engine.lock().unwrap().clone().and_then(|w| w.upgrade());
        if let Some(fb) = engine {
            let n = self.fired.fetch_add(1, Ordering::Relaxed);
            fb.commit("master", batch("rival", n)).unwrap();
        }
        self.firing.store(false, Ordering::Release);
    }
}

impl NodeStore for ContentionStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        self.maybe_fire();
        self.inner.try_put(page)
    }
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        self.maybe_fire();
        self.inner.try_put_batch(batch)
    }
    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        self.inner.try_get(hash)
    }
    fn contains(&self, hash: &Hash) -> bool {
        self.inner.contains(hash)
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

#[test]
fn bounded_commit_attempts_force_deterministic_contention() {
    init();
    let hook = Arc::new(ContentionStore::new(siri::MemStore::new_shared()));
    let store: SharedStore = hook.clone();
    let fb = Arc::new(Forkbase::with_store(factory(), store));
    *hook.engine.lock().unwrap() = Some(Arc::downgrade(&fb));

    // Sanity: unarmed, commits go through.
    fb.commit("master", batch("setup", 0)).unwrap();

    // Armed: every append of the victim's publication publishes a rival
    // commit first, so all permitted attempts lose their CAS race.
    hook.armed.store(true, Ordering::Release);
    let err = fb.commit("master", batch("victim", 0)).unwrap_err();
    hook.armed.store(false, Ordering::Release);

    match err {
        IndexError::CommitContention { attempts } => {
            assert_eq!(attempts, MAX_COMMIT_ATTEMPTS, "the bound is the reported attempt count");
        }
        other => panic!("expected CommitContention, got {other:?}"),
    }
    let rivals = hook.fired.load(Ordering::Relaxed) as u64;
    assert_eq!(rivals, MAX_COMMIT_ATTEMPTS as u64, "a rival commit per attempt");
    assert!(fb.engine_stats().conflicts >= rivals, "every lost race is counted");

    // The branch stays healthy: with the hook disarmed the next commit
    // lands on top of whichever rival head won.
    fb.commit("master", batch("after", 0)).unwrap();
    assert!(fb.get("master", b"after-k0000-0").unwrap().is_some());
}

// ---------------------------------------------------------------------------
// Telemetry: the recorded acquisition graph respects the class order.
// ---------------------------------------------------------------------------

#[test]
fn recorded_acquisition_edges_are_ascending() {
    init();
    if !lock_order::is_active() {
        return;
    }
    // Drive a little real engine traffic so engine/store edges exist.
    matrix::each(ENGINES, |cfg| {
        let fb = cfg.engine(factory());
        fb.commit("master", batch("edges", 0)).unwrap();
        let _ = fb.get("master", b"edges-k0000-0");

        for ((from_order, from_name), (to_order, to_name)) in lock_order::edges() {
            // The engine has exactly two lock classes; a read clones a shard
            // head out of the table, with no per-shard or per-branch view lock
            // between the table and the store.
            for name in [from_name, to_name] {
                assert!(
                    !name.starts_with("forkbase.")
                        || matches!(name, "forkbase.branch-map" | "forkbase.slot-head"),
                    "unexpected engine lock class in edge {from_name} -> {to_name}"
                );
            }
            // Test-local classes above deliberately invert; engine/store
            // classes (the `forkbase.`/`store.` namespaces) never may.
            let project = |n: &str| n.starts_with("forkbase.") || n.starts_with("store.");
            if project(from_name) && project(to_name) {
                assert!(
                    from_order <= to_order,
                    "observed inverted edge {from_name}({from_order}) -> {to_name}({to_order})"
                );
            }
        }
    });
}
