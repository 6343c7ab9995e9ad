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
//! It also asserts what it measures: every window yields exactly `WINDOW`
//! entries, and on the two ordered trees one cold-cache window costs a
//! descent plus its own leaves ([`assert_cold_window_cost`]).

use std::ops::Bound;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::{SiriIndex, StructureStats};
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

/// One window read with no node cache must cost a descent plus the leaves
/// under the window — at most `2 × height + WINDOW` store gets, however few
/// entries a leaf holds — not a walk of the tree (≈ 5× that at
/// `RANGE_SCAN_N=2000`). Guards the shared ordered-tree cursor against
/// turning into one that is correct but reads too much.
fn assert_cold_window_cost<I: SiriIndex + StructureStats>(name: &str, idx: &I, window: [&[u8]; 2]) {
    let height = idx.structure_stats().expect("structure_stats failed").height as usize;
    let cold = idx.with_store(idx.store().clone());
    let before = idx.store().stats().gets;
    let streamed = cold.range(Bound::Included(window[0]), Bound::Excluded(window[1])).count();
    let gets = (idx.store().stats().gets - before) as usize;
    let budget = 2 * height + WINDOW;
    println!(
        "range_scan/{name}: cold window of {streamed} entries = {gets} store gets \
         (budget {budget}, height {height})"
    );
    assert!(gets <= budget, "{name}: a {WINDOW}-entry window read {gets} pages");
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
            if $cursor && matches!($name, "pos-tree" | "mvmb+") {
                assert_cold_window_cost(
                    $name,
                    &idx,
                    [&sorted_keys[n / 2], &sorted_keys[n / 2 + WINDOW]],
                );
            }
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
