//! Criterion micro-benchmarks for Merkle proof generation/verification —
//! the tamper-evidence cost every SIRI structure pays (§2.3): single-key
//! membership, range windows, and batched multi-key proofs, prove and
//! verify sides both.
//!
//! `PROOFS_SMOKE=1` (CI) trims the dataset and sample counts: the point
//! of the CI leg is that every prove/verify path runs and verifies on
//! every push, not stable timings.

use std::ops::Bound;

use criterion::{criterion_group, criterion_main, Criterion};
use siri::workloads::YcsbConfig;
use siri::{IndexFactory, SiriIndex};
use siri_bench::harness::{
    load_batched, mbt_factory, mpt_factory, mvmb_factory, pos_factory, IndexCfg,
};

fn bench_proofs(c: &mut Criterion) {
    let smoke = std::env::var_os("PROOFS_SMOKE").is_some();
    let n: usize = if smoke { 2_000 } else { 20_000 };
    let ycsb = YcsbConfig::default();
    let data = ycsb.dataset(n);
    let cfg = IndexCfg::ycsb(1024);
    // Range windows are addressed by rank in key order: YCSB keys do not
    // sort by record id, so `key(i)..key(i + 20)` can be an inverted,
    // empty window that reads nothing.
    let mut sorted_keys: Vec<_> = data.iter().map(|e| e.key.clone()).collect();
    sorted_keys.sort_unstable();

    let mut g = c.benchmark_group(if smoke { "proofs_smoke" } else { "proofs_20k" });
    g.sample_size(if smoke { 10 } else { 20 });

    macro_rules! per_index {
        ($name:expr, $factory:expr) => {{
            let factory = $factory;
            let scheme = factory.scheme();
            let (idx, _) = load_batched(&factory, &data, 8_000);
            let root = idx.root();

            // Membership: prove and verify a rotating key.
            let mut i = 0u64;
            g.bench_function(concat!($name, "/prove"), |b| {
                b.iter(|| {
                    i = (i + 1) % n as u64;
                    std::hint::black_box(idx.prove(&ycsb.key(i)).unwrap().len())
                })
            });
            let key = ycsb.key(7);
            let proof = idx.prove(&key).unwrap();
            g.bench_function(concat!($name, "/verify"), |b| {
                b.iter(|| {
                    std::hint::black_box(
                        siri::verify_anchored_membership(scheme, root, &key, &proof).is_valid(),
                    )
                })
            });

            // Range: a 20-entry window (the YCSB scan shape).
            let sb = Bound::Included(&sorted_keys[n / 2][..]);
            let eb = Bound::Excluded(&sorted_keys[n / 2 + 20][..]);
            g.bench_function(concat!($name, "/prove_range"), |b| {
                b.iter(|| std::hint::black_box(idx.prove_range(sb, eb).unwrap().len()))
            });
            let range_proof = idx.prove_range(sb, eb).unwrap();
            let verdict = siri::verify_anchored_range(scheme, root, sb, eb, &range_proof);
            assert_eq!(verdict.entries().map(<[_]>::len), Some(20), "{}: range window", $name);
            g.bench_function(concat!($name, "/verify_range"), |b| {
                b.iter(|| {
                    std::hint::black_box(
                        siri::verify_anchored_range(scheme, root, sb, eb, &range_proof).is_valid(),
                    )
                })
            });

            // Batch: 16 keys spread across the key space, shared interior
            // pages deduplicated.
            let keys: Vec<siri::Bytes> =
                (0..16u64).map(|k| ycsb.key(k * (n as u64 / 16))).collect();
            g.bench_function(concat!($name, "/prove_batch"), |b| {
                b.iter(|| std::hint::black_box(idx.prove_batch(&keys).unwrap().len()))
            });
            let batch_proof = idx.prove_batch(&keys).unwrap();
            g.bench_function(concat!($name, "/verify_batch"), |b| {
                b.iter(|| {
                    std::hint::black_box(
                        siri::verify_anchored_batch(scheme, root, &keys, &batch_proof).is_valid(),
                    )
                })
            });
        }};
    }

    per_index!("pos-tree", pos_factory(cfg));
    per_index!("mbt", mbt_factory(cfg));
    per_index!("mpt", mpt_factory(cfg));
    per_index!("mvmb+", mvmb_factory(cfg));
    g.finish();
}

criterion_group!(benches, bench_proofs);
criterion_main!(benches);
