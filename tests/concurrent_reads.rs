//! Concurrency coverage for the lock-free read path and the shared
//! decoded-node cache (ISSUE 1 satellite): many readers over one store +
//! cache must agree with the single-threaded truth, and the store/cache
//! counters must stay coherent. Plus a property test pinning cached and
//! uncached lookups to each other for every index structure. Each test
//! runs on the store or engine configurations of the shared `matrix`
//! module.

mod matrix;

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use matrix::{Config, ENGINES, STORES};
use proptest::prelude::*;
use siri::workloads::YcsbConfig;
use siri::{
    Entry, Forkbase, IndexFactory, MbtFactory, MerklePatriciaTrie, MptFactory, MvmbFactory,
    MvmbParams, PosFactory, PosParams, PosTree, Session, ShardingPolicy, SiriIndex, WriteBatch,
};

const N: usize = 5_000;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 2_000;

/// Shared-store, shared-cache stress: every thread hammers point lookups
/// (plus periodic scans) against clones of one handle while asserting
/// values, then the counters are checked for coherence.
fn stress<I: SiriIndex + 'static>(index: I, label: &str) {
    let index = Arc::new(index);
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let index = Arc::clone(&index);
        handles.push(thread::spawn(move || {
            let ycsb = YcsbConfig::default();
            // Each clone shares the store and the node cache.
            let reader = (*index).clone();
            for i in 0..OPS_PER_THREAD {
                let id = ((t * 2_654_435_761) ^ (i * 40_503)) as u64 % N as u64;
                let got = reader.get(&ycsb.key(id)).expect("get failed");
                assert_eq!(
                    got.as_deref(),
                    Some(ycsb.value(id, 0).as_ref()),
                    "thread {t} op {i}: wrong value for id {id}"
                );
                // Absent keys stay absent under concurrency.
                if i % 512 == 0 {
                    assert!(reader.get(b"\xff\xff absent key").unwrap().is_none());
                }
            }
            // One full scan per thread: ordered, complete, stable.
            let scan = reader.scan().expect("scan failed");
            assert_eq!(scan.len(), N);
            assert!(scan.windows(2).all(|w| w[0].key < w[1].key));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = index.store().stats();
    assert_eq!(stats.gets, stats.hits, "{label}: every page the index asked for exists");
    // The absent-key probes never reach the store (the trees' structure
    // answers them), so gets simply count real page loads; the counter
    // must not have torn or lost updates (it is monotone and exact).
    assert!(stats.puts > 0 && stats.unique_pages > 0, "{label}: build accounted");
}

#[test]
fn concurrent_reads_pos_tree() {
    matrix::each(STORES, |cfg| {
        let ycsb = YcsbConfig::default();
        let mut t = PosTree::new(cfg.store(), PosParams::default());
        t.batch_insert(ycsb.dataset(N)).unwrap();
        let before = t.node_cache_stats();
        stress(t.clone(), "pos-tree");
        let after = t.node_cache_stats();
        let probes = (after.hits - before.hits) + (after.misses - before.misses);
        assert!(probes > 0, "readers must go through the node cache");
        assert!(after.hits > before.hits, "a hot working set must produce cache hits");
        assert!(after.len <= after.capacity.max(1), "cache respects its bound");
    });
}

#[test]
fn concurrent_reads_mpt() {
    matrix::each(STORES, |cfg| {
        let ycsb = YcsbConfig::default();
        let mut t = MerklePatriciaTrie::new(cfg.store());
        t.batch_insert(ycsb.dataset(N)).unwrap();
        stress(t.clone(), "mpt");
        let cache = t.node_cache_stats();
        assert!(cache.hits > 0);
        assert!(cache.len <= cache.capacity);
    });
}

#[test]
fn concurrent_readers_with_concurrent_version_writer() {
    // Readers pinned to a snapshot must be wait-free with respect to a
    // writer producing new versions into the same store + cache: the
    // snapshot's answers never change.
    matrix::each(STORES, |cfg| {
        let ycsb = YcsbConfig::default();
        let mut base = PosTree::new(cfg.store(), PosParams::default());
        base.batch_insert(ycsb.dataset(N)).unwrap();
        let snapshot = base.clone();

        let writer = {
            let mut head = base.clone();
            thread::spawn(move || {
                for round in 1..=20u32 {
                    let batch: Vec<Entry> =
                        (0..200u64).map(|i| ycsb.entry(i * 17 % N as u64, round)).collect();
                    head.batch_insert(batch).unwrap();
                }
                head.root()
            })
        };

        let mut readers = Vec::new();
        for t in 0..4 {
            let snap = snapshot.clone();
            readers.push(thread::spawn(move || {
                let ycsb = YcsbConfig::default();
                for i in 0..1_000usize {
                    let id = ((t * 131 + i) % N) as u64;
                    let got = snap.get(&ycsb.key(id)).unwrap();
                    assert_eq!(got.as_deref(), Some(ycsb.value(id, 0).as_ref()));
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        let new_root = writer.join().unwrap();
        assert_ne!(new_root, snapshot.root(), "writer advanced the head");
        // Snapshot still answers from its version after the writer finished.
        assert_eq!(snapshot.get(&ycsb.key(0)).unwrap().as_deref(), Some(ycsb.value(0, 0).as_ref()));
    });
}

/// The `STRESS_N` iteration multiplier of the CI stress legs (1 by default).
fn stress_n() -> usize {
    std::env::var("STRESS_N").ok().and_then(|v| v.parse().ok()).unwrap_or(1).max(1)
}

#[test]
fn concurrent_readers_of_moving_branch_heads_read_consistently() {
    // A read takes shared locks only (branch map, shard table, shard
    // head), so nothing serializes readers — not across branches, not
    // several on the same branch — while a writer advances every head
    // under them. Correctness here; that no exclusive lock or mutex sits
    // on the read path is by construction (tests/lock_order.rs pins the
    // engine's lock classes).
    matrix::each(ENGINES, |cfg| {
        const BRANCHES: usize = 6;
        const READERS_PER_BRANCH: usize = 3;
        const RECORDS: usize = 400;
        let stress = stress_n();
        let fb = Arc::new(cfg.engine(PosFactory(PosParams::default())));
        for b in 0..BRANCHES {
            let branch = format!("b{b}");
            fb.fork("master", &branch).unwrap();
            let data: Vec<Entry> = (0..RECORDS)
                .map(|i| {
                    Entry::new(
                        format!("b{b}-k{i:04}").into_bytes(),
                        format!("v{b}-{i}").into_bytes(),
                    )
                })
                .collect();
            fb.commit(&branch, WriteBatch::from_entries(data)).unwrap();
        }

        thread::scope(|s| {
            // One writer commits fresh keys round-robin across every branch:
            // heads keep moving under the readers.
            let writer = {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for round in 0..40 * stress {
                        let branch = format!("b{}", round % BRANCHES);
                        let e = Entry::new(
                            format!("new-{round:05}").into_bytes(),
                            format!("nv{round}").into_bytes(),
                        );
                        fb.commit(&branch, WriteBatch::from_entries(vec![e])).unwrap();
                    }
                })
            };
            for r in 0..BRANCHES * READERS_PER_BRANCH {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    let b = r % BRANCHES;
                    let branch = format!("b{b}");
                    for i in 0..800 * stress {
                        let id = (i * 37 + r) % RECORDS;
                        let key = format!("b{b}-k{id:04}");
                        // The initial records are immutable under the writer's
                        // append-only churn: every read must see them.
                        let got = fb.get(&branch, key.as_bytes()).unwrap();
                        assert_eq!(
                            got.as_deref(),
                            Some(format!("v{b}-{id}").as_bytes()),
                            "branch {branch} read {i} went wrong"
                        );
                        if i % 200 == 0 {
                            let pre: Vec<Entry> = fb
                                .scan_prefix(&branch, format!("b{b}-k000").as_bytes())
                                .unwrap()
                                .collect::<siri::Result<_>>()
                                .unwrap();
                            assert_eq!(pre.len(), 10, "prefix scan on a moving head");
                        }
                    }
                });
            }
            writer.join().unwrap();
        });

        // Every branch converged: original records plus its share of new ones.
        for b in 0..BRANCHES {
            let head = fb.head(&format!("b{b}")).unwrap();
            assert!(head.len().unwrap() > RECORDS, "writer's commits must be visible at the end");
        }
        assert_eq!(fb.engine_stats().conflicts, 0, "distinct branches: no CAS conflicts");
    });
}

/// Sets its flag when dropped — also when its thread unwinds, so a failed
/// assertion in one thread stops the others instead of leaving them waiting.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A cross-shard read is one snapshot, also while the partition is being
/// reshaped: a writer stamps one version number into a key of every shard
/// with spanning batches, a second thread splits and merges shards under
/// it, and readers assert that every scan — full `range` and `scan_prefix`
/// alike — sees a single version, that versions never go backwards, and
/// that a `get` issued after `commit` returned sees that commit.
fn cross_shard_reads_are_one_snapshot<F: IndexFactory>(
    cfg: Config,
    factory: F,
    policy: ShardingPolicy,
) {
    const STAMPED: usize = 16;
    let commits = 60 * stress_n() as u64;
    // Lead bytes 8, 24, … 248: four keys in each quarter of the key space,
    // so every shard of a uniform 4-way partition (and both halves of any
    // median split) holds stamped keys.
    let key = |i: usize| vec![(i * 16 + 8) as u8, b's', i as u8];
    let stamp = |v: u64| {
        let mut batch = WriteBatch::new();
        for i in 0..STAMPED {
            batch.put(key(i), format!("{v:08}").into_bytes());
        }
        batch
    };
    let version = |value: &[u8]| std::str::from_utf8(value).unwrap().parse::<u64>().unwrap();
    // Every stamped key of one scan must carry the same version.
    let scan_version = |scan: siri::EntryCursor, what: &str| {
        let entries: Vec<Entry> = scan.collect::<siri::Result<_>>().unwrap();
        assert_eq!(entries.len(), STAMPED, "{what}: a scan lost or duplicated keys");
        let v = version(&entries[0].value);
        for e in &entries {
            assert_eq!(version(&e.value), v, "{what}: torn cross-shard snapshot at {:?}", e.key);
        }
        v
    };

    let fb = Forkbase::with_sharding(factory, cfg.store(), policy, 0);
    fb.commit("master", stamp(0)).unwrap();
    let done = AtomicBool::new(false);
    let reshapes = AtomicUsize::new(0);
    // All four threads start together, so scans overlap commits and reshapes.
    let start = Barrier::new(4);
    let last_version = thread::scope(|s| {
        let writer = s.spawn(|| {
            let _stop = SetOnDrop(&done);
            start.wait();
            // Keep committing until enough reshapes landed in between.
            let mut v = 0;
            while !done.load(Ordering::Acquire)
                && (v < commits || reshapes.load(Ordering::Acquire) < 8)
            {
                v += 1;
                fb.commit("master", stamp(v)).unwrap();
                let got = fb.get("master", &key(v as usize % STAMPED)).unwrap().unwrap();
                assert_eq!(version(&got), v, "a get after commit returned must see it");
            }
            v
        });
        s.spawn(|| {
            let _stop = SetOnDrop(&done);
            start.wait();
            let mut step = 0usize;
            while !done.load(Ordering::Acquire) {
                let n = fb.shard_count("master").unwrap();
                // A lost race (Ok(false)) just leaves the shape for the
                // next step; only a store error would be a failure.
                let reshaped = if n >= 6 || (n > 1 && step % 3 == 2) {
                    fb.merge_branch_shards("master", step % (n - 1)).unwrap()
                } else {
                    fb.split_branch_shard("master", step % n).unwrap()
                };
                reshapes.fetch_add(reshaped as usize, Ordering::Release);
                step += 1;
            }
        });
        for _ in 0..2 {
            s.spawn(|| {
                let _stop = SetOnDrop(&done);
                start.wait();
                let mut last = 0u64;
                let mut scans = 0usize;
                while !done.load(Ordering::Acquire) || scans < 10 {
                    let full = fb.range("master", Bound::Unbounded, Bound::Unbounded).unwrap();
                    let v = scan_version(full, "range");
                    assert!(v >= last, "range went back in time: {v} after {last}");
                    let w = scan_version(fb.scan_prefix("master", b"").unwrap(), "scan_prefix");
                    assert!(w >= v, "scan_prefix went back in time: {w} after {v}");
                    last = w;
                    scans += 1;
                }
            });
        }
        writer.join().unwrap()
    });
    let end = fb.range("master", Bound::Unbounded, Bound::Unbounded).unwrap();
    assert_eq!(scan_version(end, "final"), last_version);
}

#[test]
fn cross_shard_reads_are_one_snapshot_under_reshaping() {
    matrix::each(STORES, |cfg| {
        for policy in [ShardingPolicy::pinned(4), ShardingPolicy::adaptive_default()] {
            cross_shard_reads_are_one_snapshot(cfg, PosFactory(PosParams::default()), policy);
            cross_shard_reads_are_one_snapshot(cfg, MptFactory, policy);
        }
    });
}

fn to_entries(raw: &[(Vec<u8>, Vec<u8>)]) -> Vec<Entry> {
    raw.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()
}

fn arb_entries(max: usize) -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::num::u8::ANY, 1..6),
            proptest::collection::vec(proptest::num::u8::ANY, 0..24),
        ),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Cached and uncached lookups agree on every key (present and absent)
    /// for all four structures — the cache must be invisible to semantics.
    #[test]
    fn cached_and_uncached_lookups_agree(raw in arb_entries(100)) {
        let entries = to_entries(&raw);

        macro_rules! check {
            ($cfg:expr, $factory:expr, $disable:expr) => {{
                let mut cached = $factory.empty($cfg.store());
                cached.batch_insert(entries.clone()).unwrap();
                let uncached = $disable(cached.clone());
                for (k, _) in &raw {
                    prop_assert_eq!(cached.get(k).unwrap(), uncached.get(k).unwrap());
                    // Re-probe: the second cached read is served from the
                    // node cache and must still agree.
                    prop_assert_eq!(cached.get(k).unwrap(), uncached.get(k).unwrap());
                }
                let absent: &[u8] = b"\xff\xff\xff nothing here";
                prop_assert_eq!(cached.get(absent).unwrap(), None);
                prop_assert_eq!(uncached.get(absent).unwrap(), None);
                prop_assert_eq!(cached.scan().unwrap(), uncached.scan().unwrap());
            }};
        }
        matrix::each(STORES, |cfg| {
            check!(cfg, PosFactory(PosParams::default()), |t: PosTree| t
                .with_node_cache_capacity(0));
            check!(cfg, MptFactory, |t: MerklePatriciaTrie| t.with_node_cache_capacity(0));
            check!(cfg, MbtFactory { buckets: 32, fanout: 4 }, |t: siri::MerkleBucketTree| t
                .with_node_cache_capacity(0));
            check!(cfg, MvmbFactory(MvmbParams::default()), |t: siri::MvmbTree| t
                .with_node_cache_capacity(0));
        });
    }
}
