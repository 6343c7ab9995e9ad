//! Cursor-based range reads vs. materializing full scans.
//!
//! The API redesign's claim, measured: a bounded `range` cursor walks only
//! the window's leaf path while the old read pattern (`scan()` + filter)
//! materializes and sorts the entire dataset. At 100k entries the gap is
//! orders of magnitude for the ordered structures; MBT — whose hashing
//! destroys order — pays O(B) bucket pins either way, which is exactly the
//! paper's point about hash-based layouts and range queries.
//!
//! `RANGE_SCAN_N` overrides the dataset size (CI smoke-runs use a small
//! value so the bench executes on every push without burning minutes).
//!
//! Every window must yield exactly `WINDOW` entries. The cold-window page
//! budget of the two ordered trees is a test (`tests/cross_index.rs`).

use std::ops::Bound;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::SiriIndex;
use siri_bench::harness::{
    load_batched, mbt_factory, mpt_factory, mvmb_factory, pos_factory, IndexCfg,
};

/// Window width in entries (what a paginated UI or a YCSB-E scan pulls).
const WINDOW: usize = 100;

fn dataset_size() -> usize {
    let n = std::env::var("RANGE_SCAN_N").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000);
    // The window-start rotation needs room past the window.
    n.max(WINDOW * 2)
}

fn bench_range_scan(c: &mut Criterion) {
    let n = dataset_size();
    let ycsb = YcsbConfig::default();
    // Sorted keys so windows can be addressed by dataset rank.
    let mut sorted_keys: Vec<_> = (0..n as u64).map(|i| ycsb.key(i)).collect();
    sorted_keys.sort_unstable();
    let data = ycsb.dataset(n);
    let cfg = IndexCfg::ycsb(1024);

    macro_rules! bench_index {
        ($group:expr, $name:expr, $factory:expr, $cursor:expr) => {{
            let (idx, _) = load_batched(&$factory, &data, 10_000);
            let mut w = 0usize;
            $group.bench_function(BenchmarkId::from_parameter($name), |b| {
                b.iter(|| {
                    // Rotate the window start across the key space.
                    w = (w + 7919) % (n - WINDOW);
                    let start = &sorted_keys[w];
                    let end = &sorted_keys[w + WINDOW];
                    let streamed: usize = if $cursor {
                        idx.range(Bound::Included(&start[..]), Bound::Excluded(&end[..]))
                            .map(|e| e.expect("range failed"))
                            .count()
                    } else {
                        // The pre-redesign read pattern: materialize
                        // everything, filter afterwards.
                        idx.scan()
                            .expect("scan failed")
                            .into_iter()
                            .filter(|e| e.key >= *start && e.key < *end)
                            .count()
                    };
                    assert_eq!(streamed, WINDOW, "{}: window at rank {w}", $name);
                })
            });
        }};
    }

    let mut group = c.benchmark_group(format!("range_cursor_{}", n));
    group.sample_size(10);
    bench_index!(group, "pos-tree", pos_factory(cfg), true);
    bench_index!(group, "mbt", mbt_factory(cfg), true);
    bench_index!(group, "mpt", mpt_factory(cfg), true);
    bench_index!(group, "mvmb+", mvmb_factory(cfg), true);
    group.finish();

    let mut group = c.benchmark_group(format!("range_materialize_{}", n));
    group.sample_size(10);
    bench_index!(group, "pos-tree", pos_factory(cfg), false);
    bench_index!(group, "mbt", mbt_factory(cfg), false);
    bench_index!(group, "mpt", mpt_factory(cfg), false);
    bench_index!(group, "mvmb+", mvmb_factory(cfg), false);
    group.finish();
}

criterion_group!(benches, bench_range_scan);
criterion_main!(benches);
