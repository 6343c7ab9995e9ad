//! Multi-writer engine stress suite (ISSUE 5): the `&self`-concurrent
//! Forkbase must linearize commits.
//!
//! Three families:
//!
//! * **disjoint branches** — N writer threads, one branch each, on every
//!   engine configuration of [`matrix::ENGINES`]. Every final head must equal a
//!   single-threaded replay of the same batches (structural invariance
//!   makes the comparison exact: same surviving set ⇒ same root digest),
//!   and per-branch head slots mean zero CAS conflicts.
//! * **one contended branch** — many threads CAS-committing interleaved
//!   batches to `master`. The [`siri::CommitInfo`] receipts' `parent →
//!   root` edges must form one chain from the empty root to the final
//!   head, visiting every commit exactly once; replaying the batches in
//!   chain order on a sequential model must reproduce every intermediate
//!   root digest. That is linearizability made checkable.
//! * **group commit** — a durable engine under `FsyncPolicy::Group` must
//!   ack every commit while issuing strictly fewer fsyncs, and the acked
//!   roots must be fully readable after a reopen.
//!
//! `STRESS_N` multiplies the iteration counts (CI's stress job sets it).

mod matrix;

use std::collections::HashMap;
use std::sync::Arc;

use matrix::{Config, ENGINES, STORES};
use siri::{
    CommitInfo, Entry, FileStoreOptions, Forkbase, FsyncPolicy, Hash, IndexError, IndexFactory,
    MemStore, PosFactory, PosParams, Session, ShardingPolicy, SiriIndex, WriteBatch,
};

const BATCH: usize = 20;

fn stress_n() -> usize {
    std::env::var("STRESS_N").ok().and_then(|v| v.parse().ok()).unwrap_or(1).max(1)
}

fn factory() -> PosFactory {
    PosFactory(PosParams::default())
}

fn engine(cfg: Config) -> Arc<Forkbase<PosFactory>> {
    Arc::new(cfg.engine(factory()))
}

/// An engine over `cfg`'s store, pinned to a static `n`-shard partition.
fn sharded_engine(cfg: Config, n: usize) -> Arc<Forkbase<PosFactory>> {
    Arc::new(Forkbase::with_sharding(factory(), cfg.store(), ShardingPolicy::pinned(n), 0))
}

/// The deterministic batch writer `t` commits at step `k`: 20 fresh puts
/// plus (past the first step) one delete of an earlier key, so the replay
/// exercises the full write path, not just inserts. Keys are disjoint
/// across writers, making the contended test's expected final state
/// order-independent while the chain replay still checks exact order.
fn batch_for(t: usize, k: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for i in 0..BATCH {
        b.put(
            format!("t{t:02}-k{:05}", k * BATCH + i).into_bytes(),
            format!("v{t}-{k}-{i}").into_bytes(),
        );
    }
    if k > 0 {
        b.delete(format!("t{t:02}-k{:05}", (k - 1) * BATCH).into_bytes());
    }
    b
}

/// Replay `batches` sequentially on a fresh in-memory index, returning the
/// root after each commit. The ground truth every concurrent schedule is
/// held against.
fn sequential_replay(batches: &[(usize, usize)]) -> Vec<Hash> {
    let mut model = factory().empty(MemStore::new_shared());
    batches.iter().map(|&(t, k)| model.commit(batch_for(t, k)).unwrap()).collect()
}

#[test]
fn disjoint_branch_writers_match_single_threaded_replay() {
    const WRITERS: usize = 6;
    let commits = 8 * stress_n();
    matrix::each(ENGINES, |cfg| {
        let fb = engine(cfg);
        for t in 0..WRITERS {
            fb.fork("master", &format!("b{t}")).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    let branch = format!("b{t}");
                    for k in 0..commits {
                        fb.commit(&branch, batch_for(t, k)).unwrap();
                    }
                });
            }
        });

        // Per-branch slots: writers on different branches never race a head.
        let stats = fb.engine_stats();
        assert_eq!(stats.commits, (WRITERS * commits) as u64);
        assert_eq!(stats.conflicts, 0, "disjoint branches must not contend");

        // Every head equals the single-threaded replay of its own batches.
        for t in 0..WRITERS {
            let replay: Vec<(usize, usize)> = (0..commits).map(|k| (t, k)).collect();
            let expected = *sequential_replay(&replay).last().unwrap();
            let head = fb.head(&format!("b{t}")).unwrap();
            assert_eq!(head.root(), expected, "branch b{t} diverged from its sequential replay");
            assert_eq!(head.len().unwrap(), commits * BATCH - (commits - 1));
        }
    });
}

/// A batch wide enough that a POS-Tree commit splits its leaf work into
/// key ranges on a multi-core host (DESIGN.md §8, *Two-stage commit*): 300
/// puts spread over the writer's keys, with 200-byte pseudo-random values
/// — enough bytes for an entry to end a leaf by itself.
fn wide_batch(t: usize, k: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for i in 0..300u64 {
        let id = (i * 7 + k as u64 * 3) % 2_000;
        let mut x = (id << 20 | (t as u64) << 8 | k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let value: Vec<u8> = (0..200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        b.put(format!("t{t:02}-w{id:05}").into_bytes(), value);
    }
    b
}

#[test]
fn disjoint_branch_writers_whose_commits_split_match_single_threaded_replay() {
    // Each writer's commits run their own leaf-stage workers, which take
    // store locks from threads of their own — under `SIRI_LOCK_ORDER=1`
    // the tracker checks those too, on both stores and partitions.
    matrix::each(ENGINES, |cfg| {
        let (writers, commits) = (4, 3 * stress_n());
        let fb = engine(cfg);
        for t in 0..writers {
            fb.fork("master", &format!("w{t}")).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..writers {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    for k in 0..commits {
                        fb.commit(&format!("w{t}"), wide_batch(t, k)).unwrap();
                    }
                });
            }
        });
        for t in 0..writers {
            let mut model = factory().empty(MemStore::new_shared());
            for k in 0..commits {
                model.commit(wide_batch(t, k)).unwrap();
            }
            let head = fb.head(&format!("w{t}")).unwrap();
            assert_eq!(
                head.root(),
                model.root(),
                "branch w{t} diverged from its sequential replay"
            );
        }
    });
}

/// Reconstruct the head-commit order from the commit receipts: the
/// `parent → root` edges must chain from `start` through every commit
/// exactly once. Panics (with context) when the receipts do not form a
/// chain — which would mean two commits published over the same head.
fn chain_order(start: Hash, infos: &[(usize, usize, CommitInfo)]) -> Vec<(usize, usize)> {
    let mut by_parent: HashMap<Hash, (usize, usize, Hash)> = HashMap::new();
    for (t, k, info) in infos {
        let clash = by_parent.insert(info.parent, (*t, *k, info.root));
        assert!(clash.is_none(), "two commits claim the same parent head {:?}", info.parent);
    }
    let mut order = Vec::with_capacity(infos.len());
    let mut cur = start;
    while let Some((t, k, next)) = by_parent.remove(&cur) {
        order.push((t, k));
        cur = next;
    }
    assert!(by_parent.is_empty(), "commit receipts do not form a single chain");
    order
}

#[test]
fn contended_shared_branch_commits_linearize() {
    matrix::each(STORES, |cfg| {
        const WRITERS: usize = 8;
        let commits = 12 * stress_n();
        // Conflicts are scheduling-dependent; accumulate across rounds and
        // require at least one CAS retry overall so the retry path is known to
        // have run. Correctness is asserted in *every* round regardless; when
        // the scheduler happens to serialize the first rounds perfectly (most
        // plausible on a loaded single-core box), extra rounds run until a
        // race is observed, up to a generous cap.
        let mut total_conflicts = 0u64;
        let mut round = 0;
        while round < 3 || (total_conflicts == 0 && round < 12) {
            // Single-slot head on purpose (`STORES` are unsharded): the
            // chain audit equates receipt digests with plain tree roots,
            // which only holds unsharded.
            let fb = engine(cfg);
            let infos: Vec<(usize, usize, CommitInfo)> = {
                let collected = std::sync::Mutex::new(Vec::new());
                std::thread::scope(|s| {
                    for t in 0..WRITERS {
                        let fb = Arc::clone(&fb);
                        let collected = &collected;
                        s.spawn(move || {
                            let mut mine = Vec::with_capacity(commits);
                            for k in 0..commits {
                                let info = fb.commit("master", batch_for(t, k)).unwrap();
                                mine.push((t, k, info));
                            }
                            collected.lock().unwrap().extend(mine);
                        });
                    }
                });
                collected.into_inner().unwrap()
            };

            // Exactly once: every commit produced exactly one receipt, and the
            // receipts chain from the empty root to the final head.
            assert_eq!(infos.len(), WRITERS * commits);
            let head_root = fb.head("master").unwrap().root();
            let order = chain_order(Hash::ZERO, &infos);
            assert_eq!(order.len(), WRITERS * commits, "every commit must appear in the chain");

            // The sequential model, fed the batches in head-commit order, must
            // reproduce every intermediate root digest the engine published.
            let model_roots = sequential_replay(&order);
            let mut by_step: HashMap<(usize, usize), Hash> =
                infos.iter().map(|(t, k, info)| ((*t, *k), info.root)).collect();
            for (step, &(t, k)) in order.iter().enumerate() {
                assert_eq!(
                    model_roots[step],
                    by_step.remove(&(t, k)).unwrap(),
                    "round {round}: root mismatch at chain step {step} (writer {t}, commit {k})"
                );
            }
            assert_eq!(*model_roots.last().unwrap(), head_root, "final head must match the model");

            let stats = fb.engine_stats();
            assert_eq!(stats.commits, (WRITERS * commits) as u64);
            total_conflicts += stats.conflicts;
            round += 1;
        }
        assert!(
            total_conflicts > 0,
            "8 writers x {commits} commits x {round} rounds on one branch produced no CAS retry",
        );
    });
}

#[test]
fn group_commit_engine_acks_survive_reopen_with_fewer_fsyncs() {
    const WRITERS: usize = 4;
    let commits = 6 * stress_n();
    let dir = std::env::temp_dir()
        .join("siri-concurrent-writes")
        .join(format!("group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = FileStoreOptions {
        fsync: FsyncPolicy::Group(std::time::Duration::from_millis(1)),
        ..FileStoreOptions::default()
    };

    let mut final_roots = vec![Hash::ZERO; WRITERS];
    {
        let fb = Arc::new(Forkbase::new_durable(factory(), &dir, opts).unwrap());
        for t in 0..WRITERS {
            fb.fork("master", &format!("b{t}")).unwrap();
        }
        let roots = std::sync::Mutex::new(&mut final_roots);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let fb = Arc::clone(&fb);
                let roots = &roots;
                s.spawn(move || {
                    let branch = format!("b{t}");
                    let mut last = Hash::ZERO;
                    for k in 0..commits {
                        // Returning ⇒ the commit is fsync-covered: the root
                        // is durable before it is observable.
                        last = fb.commit(&branch, batch_for(t, k)).unwrap().root;
                    }
                    roots.lock().unwrap()[t] = last;
                });
            }
        });
        let stats = fb.server_stats();
        // One store commit per engine commit: the publication's pages land
        // in one append and one `note_commit` (DESIGN.md §10).
        assert_eq!(stats.commits, (WRITERS * commits) as u64);
        assert!(
            stats.fsyncs < stats.commits,
            "group commit must share flushes: {} fsyncs for {} commits",
            stats.fsyncs,
            stats.commits
        );
    } // drop the engine without any extra sync — acked roots must stand alone

    let fb = Forkbase::new_durable(factory(), &dir, opts).unwrap();
    for (t, root) in final_roots.iter().enumerate() {
        let branch = format!("b{t}");
        fb.open_branch(&branch, *root);
        let head = fb.head(&branch).unwrap();
        assert_eq!(
            head.len().unwrap(),
            commits * BATCH - (commits - 1),
            "acked branch {branch} lost records across reopen"
        );
        // Spot-check a value written by the last acked commit.
        let key = format!("t{t:02}-k{:05}", (commits - 1) * BATCH + 1);
        assert!(fb.get(&branch, key.as_bytes()).unwrap().is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_commit_and_branch_delete_never_corrupts() {
    // A commit may race the deletion of its branch: either it errors
    // (branch gone before the commit resolved the slot) or it lands in the
    // orphaned slot and vanishes with it. Other branches are untouched.
    matrix::each(ENGINES, |cfg| {
        let fb = engine(cfg);
        let anchor = vec![Entry::new(b"anchor".to_vec(), b"v".to_vec())];
        fb.commit("master", WriteBatch::from_entries(anchor)).unwrap();
        for round in 0..10 * stress_n() {
            let doomed = format!("doomed{round}");
            fb.fork("master", &doomed).unwrap();
            std::thread::scope(|s| {
                let writer = {
                    let fb = Arc::clone(&fb);
                    let doomed = doomed.clone();
                    s.spawn(move || {
                        for k in 0..5 {
                            if fb.commit(&doomed, batch_for(99, k)).is_err() {
                                break; // branch deleted under us — legal
                            }
                        }
                    })
                };
                let fb2 = Arc::clone(&fb);
                let doomed2 = doomed.clone();
                s.spawn(move || {
                    let _ = fb2.delete_branch(&doomed2);
                });
                writer.join().unwrap();
            });
            assert!(!fb.branches().unwrap().contains(&doomed), "branch must be gone");
            assert_eq!(fb.get("master", b"anchor").unwrap().as_deref(), Some(&b"v"[..]));
        }
    });
}

/// A batch spanning all of an 8-shard partition (one key per top byte
/// octant plus a marker), so a racing delete is maximally tempted to
/// interleave mid-publish.
fn spanning_batch(round: usize, k: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for shard in 0..8usize {
        b.put(vec![(shard * 32) as u8, round as u8, k as u8], format!("r{round}-{k}").into_bytes());
    }
    b
}

#[test]
fn racing_sharded_commit_and_delete_is_all_or_nothing() {
    // ISSUE 8 satellite: delete_branch retires every shard slot
    // atomically, so a commit racing it either fully publishes (its
    // returned manifest digest re-opens with ALL the batch's keys) or
    // fails with the clean `BranchDeleted` error — never a partial
    // multi-shard publish, and never a head that dangles after the
    // delete.
    matrix::each(STORES, |cfg| {
        let fb = sharded_engine(cfg, 8);
        let anchor = vec![Entry::new(b"anchor".to_vec(), b"v".to_vec())];
        fb.commit("master", WriteBatch::from_entries(anchor)).unwrap();
        for round in 0..10 * stress_n() {
            let doomed = format!("doomed{round}");
            fb.fork("master", &doomed).unwrap();
            let published = std::thread::scope(|s| {
                let writer = {
                    let fb = Arc::clone(&fb);
                    let doomed = doomed.clone();
                    s.spawn(move || {
                        let mut acked = Vec::new();
                        for k in 0..5usize {
                            match fb.commit(&doomed, spanning_batch(round, k)) {
                                Ok(info) => acked.push((k, info.root)),
                                // Legal outcomes: the branch vanished before
                                // the slot resolved, or mid-flight.
                                Err(IndexError::Unsupported(_))
                                | Err(IndexError::BranchDeleted) => break,
                                Err(other) => panic!("unexpected commit error: {other:?}"),
                            }
                        }
                        acked
                    })
                };
                let fb2 = Arc::clone(&fb);
                let doomed2 = doomed.clone();
                s.spawn(move || {
                    let _ = fb2.delete_branch(&doomed2);
                });
                writer.join().unwrap()
            });
            assert!(!fb.branches().unwrap().contains(&doomed), "branch must be gone");
            // Every acked digest must re-open to a head holding ALL of its
            // batch's keys — an ack with missing shard writes would be the
            // partial-publish bug this test exists to catch.
            for (k, root) in published {
                let probe = format!("probe{round}-{k}");
                fb.open_branch(&probe, root);
                for shard in 0..8usize {
                    let key = vec![(shard * 32) as u8, round as u8, k as u8];
                    assert_eq!(
                        fb.get(&probe, &key).unwrap().as_deref(),
                        Some(format!("r{round}-{k}").as_bytes()),
                        "round {round} commit {k}: acked root missing shard {shard}'s write"
                    );
                }
                fb.delete_branch(&probe).unwrap();
            }
            assert_eq!(fb.get("master", b"anchor").unwrap().as_deref(), Some(&b"v"[..]));
        }
    });
}

#[test]
fn disjoint_shard_writers_on_one_branch_never_conflict() {
    // The tentpole property: 8 writers on ONE branch, each confined to
    // its own key-range shard, commit concurrently with zero CAS
    // conflicts and zero retries — the sharded head makes a contended
    // branch behave like disjoint branches.
    matrix::each(STORES, |cfg| {
        const WRITERS: usize = 8;
        let commits = 10 * stress_n();
        let fb = sharded_engine(cfg, WRITERS);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let fb = Arc::clone(&fb);
                s.spawn(move || {
                    let lead = (t * 32 + 1) as u8; // pins the writer to shard t
                    for k in 0..commits {
                        let mut b = WriteBatch::new();
                        for i in 0..BATCH {
                            let mut key = vec![lead];
                            key.extend_from_slice(
                                format!("t{t:02}-k{:05}", k * BATCH + i).as_bytes(),
                            );
                            b.put(key, format!("v{t}-{k}-{i}").into_bytes());
                        }
                        let info = fb.commit("master", b).unwrap();
                        assert_eq!(info.retries, 0, "writer {t} raced on its private shard");
                        assert_eq!(info.shards.len(), 1);
                        assert_eq!(info.shards[0].shard, t);
                    }
                });
            }
        });
        let stats = fb.engine_stats();
        assert_eq!(stats.commits, (WRITERS * commits) as u64);
        assert_eq!(stats.conflicts, 0, "disjoint shards must not contend");
        for (i, s) in fb.shard_stats("master").unwrap().iter().enumerate() {
            assert_eq!(s.commits, commits as u64, "shard {i} commit count");
            assert_eq!(s.conflicts, 0, "shard {i} must be conflict-free");
        }
        // The logical tree holds every record, in key order, across shards.
        let head = fb.head("master").unwrap();
        assert_eq!(head.len().unwrap(), WRITERS * commits * BATCH);
        // And it is bit-identical to the unsharded single-slot build of the
        // same surviving KV set (structural invariance across the partition).
        let single = engine(cfg);
        for t in 0..WRITERS {
            let lead = (t * 32 + 1) as u8;
            let mut b = WriteBatch::new();
            for k in 0..commits {
                for i in 0..BATCH {
                    let mut key = vec![lead];
                    key.extend_from_slice(format!("t{t:02}-k{:05}", k * BATCH + i).as_bytes());
                    b.put(key, format!("v{t}-{k}-{i}").into_bytes());
                }
            }
            single.commit("master", b).unwrap();
        }
        assert_eq!(head.root(), single.head("master").unwrap().root());
    });
}
