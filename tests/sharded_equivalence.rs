//! Sharded-head equivalence property (ISSUE 8 satellite): a branch
//! partitioned into per-key-range shard slots must be *logically
//! indistinguishable* from the classic single-slot branch.
//!
//! For every structure and both stores of `matrix::STORES`:
//!
//! * applying the same batch schedule to a pinned-4-shard engine and an
//!   unsharded engine yields bit-identical logical contents — the full
//!   range cursor (the k-way shard merge) enumerates exactly the entries
//!   the unsharded head holds;
//! * for the three structurally invariant structures the *collapsed*
//!   sharded head's digest equals the unsharded head's digest exactly
//!   (the MVMB+-Tree baseline is order-dependent by design, so it gets
//!   the contents check only);
//! * the equivalence survives **adaptive re-sharding**: driving the
//!   deterministic split/merge hooks between batches must never change
//!   what the branch contains.

mod matrix;

use std::ops::Bound;

use matrix::{Config, STORES};
use proptest::prelude::*;
use siri::{
    Entry, Forkbase, IndexFactory, MbtFactory, MptFactory, MvmbFactory, MvmbParams, PosFactory,
    PosParams, Session, ShardingPolicy, SiriIndex, WriteBatch,
};

/// A deterministic mixed put/delete schedule: `rounds` batches whose keys
/// spread across the whole byte space (so a uniform partition actually
/// routes to different shards) with periodic deletes and overwrites.
fn schedule(rounds: usize, per_round: usize, seed: u64) -> Vec<WriteBatch> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rounds)
        .map(|r| {
            let mut b = WriteBatch::new();
            for i in 0..per_round {
                let n = next();
                let key =
                    vec![(n >> 56) as u8, (n >> 40) as u8, (n >> 24) as u8, (r as u8), (i as u8)];
                if n % 7 == 0 && r > 0 {
                    b.delete(key);
                } else {
                    b.put(key, format!("v{r}-{i}-{n}").into_bytes());
                }
            }
            b
        })
        .collect()
}

fn sorted_contents<F: IndexFactory>(fb: &Forkbase<F>) -> Vec<Entry> {
    fb.range("master", Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .collect::<siri::Result<Vec<Entry>>>()
        .unwrap()
}

/// Apply `batches` to a sharded and an unsharded engine and assert the
/// logical equivalence; `reshard` optionally drives the split/merge hooks
/// between batches. `digest_equal` is asserted only for the structurally
/// invariant structures.
fn check_equivalence<F: IndexFactory + Clone>(
    cfg: Config,
    factory: F,
    batches: &[WriteBatch],
    digest_equal: bool,
    reshard: bool,
) {
    let sharded =
        Forkbase::with_sharding(factory.clone(), cfg.store(), ShardingPolicy::pinned(4), 0);
    let single = Forkbase::with_store(factory, cfg.store());
    for (i, b) in batches.iter().enumerate() {
        sharded.commit("master", b.clone()).unwrap();
        single.commit("master", b.clone()).unwrap();
        if reshard {
            // Exercise both directions of adaptive resharding mid-stream;
            // the hooks are best-effort, so a `false` return is fine —
            // what matters is that contents never move.
            match i % 3 {
                0 => {
                    let _ = sharded.split_branch_shard("master", i % 4);
                }
                1 => {
                    let _ = sharded.merge_branch_shards("master", 0);
                }
                _ => {}
            }
        }
    }
    let left = sorted_contents(&sharded);
    let right = sorted_contents(&single);
    assert_eq!(left, right, "sharded and single-slot contents diverged");
    assert!(left.windows(2).all(|w| w[0].key < w[1].key), "merged cursor must stay sorted");
    if digest_equal {
        assert_eq!(
            sharded.head("master").unwrap().root(),
            single.head("master").unwrap().root(),
            "collapsed sharded digest must equal the unsharded build (structural invariance)"
        );
    } else {
        // Order-dependent baseline: contents equal, digests may differ.
        assert_eq!(
            sharded.head("master").unwrap().len().unwrap(),
            single.head("master").unwrap().len().unwrap()
        );
    }
}

#[test]
fn all_structures_sharded_equals_unsharded() {
    let batches = schedule(6, 40, 42);
    matrix::each(STORES, |cfg| {
        check_equivalence(cfg, PosFactory(PosParams::default()), &batches, true, false);
        check_equivalence(cfg, MptFactory, &batches, true, false);
        check_equivalence(cfg, MbtFactory { buckets: 64, fanout: 8 }, &batches, true, false);
        check_equivalence(cfg, MvmbFactory(MvmbParams::default()), &batches, false, false);
    });
}

#[test]
fn equivalence_survives_adaptive_split_and_merge() {
    let batches = schedule(9, 30, 7);
    matrix::each(STORES, |cfg| {
        check_equivalence(cfg, PosFactory(PosParams::default()), &batches, true, true);
        check_equivalence(cfg, MptFactory, &batches, true, true);
        check_equivalence(cfg, MbtFactory { buckets: 64, fanout: 8 }, &batches, true, true);
        check_equivalence(cfg, MvmbFactory(MvmbParams::default()), &batches, false, true);
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Randomized schedules: the sharded POS-Tree branch stays digest-
    /// identical to the unsharded build across arbitrary put/delete mixes
    /// and interleaved reshard hooks.
    #[test]
    fn pos_tree_sharded_equivalence_holds_for_random_schedules(
        seed in 0u64..1_000_000,
        rounds in 2usize..7,
        per_round in 10usize..50,
        reshard in proptest::bool::ANY,
    ) {
        let batches = schedule(rounds, per_round, seed);
        matrix::each(STORES, |cfg| {
            check_equivalence(cfg, PosFactory(PosParams::default()), &batches, true, reshard);
        });
    }
}
