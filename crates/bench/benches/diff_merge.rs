//! Criterion micro-benchmarks for diff and merge — Figure 8's companion.
//!
//! Besides timing, the POS-Tree diff cell *asserts* what the co-descent
//! promises — the same answer as `diff_by_scan`, for a page budget set by
//! the pages that differ — and prints store gets per cold diff next to the
//! symmetric-difference page count, so the diff cannot rot back into
//! compiles-but-walks-everything.
//!
//! `DIFF_MERGE_N` overrides the dataset size (CI smoke-runs use a small
//! value); each side's delta is 1 % of it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::{diff_by_scan, merge, merge_with_base, Entry, MergeStrategy, SiriIndex};
use siri_bench::harness::{
    load_batched, mbt_factory, mpt_factory, mvmb_factory, pos_factory, IndexCfg,
};

fn dataset_size() -> usize {
    let n = std::env::var("DIFF_MERGE_N").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000);
    n.max(200)
}

/// One diff between cache-less handles: what it read from the store, and
/// what it was entitled to read.
fn assert_diff_costs_what_differs(a: &siri::PosTree, b: &siri::PosTree, label: &str) {
    let (a, b) = (a.clone().with_node_cache_capacity(0), b.clone().with_node_cache_capacity(0));
    let before = a.store().stats().gets;
    let diff = a.diff(&b).unwrap();
    let gets = (a.store().stats().gets - before) as usize;
    assert_eq!(diff, diff_by_scan(&a, &b).unwrap(), "{label}: diff != diff_by_scan");
    let (pages_a, pages_b) = (a.page_set(), b.page_set());
    let unshared = pages_a.difference(&pages_b).len() + pages_b.difference(&pages_a).len();
    println!("{label}: {gets} store gets per cold diff, {unshared} pages differ");
    let budget = unshared * 6 / 5 + 2 * a.height().unwrap() as usize;
    assert!(gets <= budget, "{label}: {gets} store gets for {unshared} differing pages");
}

fn bench_diff(c: &mut Criterion) {
    let n = dataset_size();
    let delta = n / 100;
    let ycsb = YcsbConfig::default();
    let data = ycsb.dataset(n);
    // Scattered overwrites, a different 1 % of the records per side.
    let changes = |stride: u64, version: u32| -> Vec<Entry> {
        (0..delta as u64).map(|i| ycsb.entry(i * stride % n as u64, version)).collect()
    };
    let cfg = IndexCfg::ycsb(1024);

    macro_rules! bench_index {
        ($group:expr, $name:expr, $factory:expr) => {{
            let (a, _) = load_batched(&$factory, &data, 8_000);
            let mut b = a.clone();
            b.batch_insert(changes(97, 1)).unwrap();
            $group.bench_function(BenchmarkId::from_parameter($name), |bch| {
                bch.iter(|| std::hint::black_box(a.diff(&b).unwrap().len()))
            });
            (a, b)
        }};
    }

    let diff_group = format!("diff_{n}_delta{delta}");
    let mut group = c.benchmark_group(&diff_group);
    group.sample_size(10);
    let (base, right) = bench_index!(group, "pos-tree", pos_factory(cfg));
    assert_diff_costs_what_differs(&base, &right, &format!("{diff_group}/pos-tree"));
    bench_index!(group, "mbt", mbt_factory(cfg));
    bench_index!(group, "mpt", mpt_factory(cfg));
    bench_index!(group, "mvmb+", mvmb_factory(cfg));
    group.finish();

    // Two-way merge on the favoured structure, disjoint key ranges.
    let mut group = c.benchmark_group(format!("merge_{n}"));
    group.sample_size(10);
    let extra: Vec<Entry> = (0..delta as u64).map(|i| ycsb.entry(n as u64 + i, 0)).collect();
    let mut grown = base.clone();
    grown.batch_insert(extra).unwrap();
    group.bench_function("pos-tree", |b| {
        b.iter(|| {
            let out = merge(&base, &grown, MergeStrategy::Strict).unwrap();
            std::hint::black_box(out.added_from_right)
        })
    });
    group.finish();

    // Three-way merge: only the right side moved (a fast-forward: one diff,
    // no commit), and both sides moved (two diffs and one commit).
    let mut group = c.benchmark_group(format!("merge_with_base_{n}"));
    group.sample_size(10);
    let mut left = base.clone();
    left.batch_insert(changes(101, 2)).unwrap();
    assert_diff_costs_what_differs(&left, &right, &format!("diff_{n}_both_moved/pos-tree"));
    let fast_forward = merge_with_base(&base, &base, &right, MergeStrategy::PreferRight).unwrap();
    assert_eq!(fast_forward.merged.root(), right.root());
    group.bench_function("fast-forward", |b| {
        b.iter(|| {
            let out = merge_with_base(&base, &base, &right, MergeStrategy::PreferRight).unwrap();
            std::hint::black_box(out.added_from_right)
        })
    });
    group.bench_function("both-sides-moved", |b| {
        b.iter(|| {
            let out = merge_with_base(&base, &left, &right, MergeStrategy::PreferRight).unwrap();
            std::hint::black_box(out.added_from_right)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_diff);
criterion_main!(benches);
