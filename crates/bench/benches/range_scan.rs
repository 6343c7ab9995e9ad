//! Cursor-based range reads vs. materializing full scans.
//!
//! The API redesign's claim, measured: a bounded `range` cursor walks only
//! the window's leaf path while the old read pattern (`scan()` + filter)
//! materializes and sorts the entire dataset. At 100k entries the gap is
//! orders of magnitude for the ordered structures. MBT's hashing destroys
//! order, so its cursor pays O(B) either way: it pins all B buckets, seeds
//! each with a binary search over the bucket's key-prefix column, and
//! merges them (DESIGN.md §4). That is the paper's point about hash-based
//! layouts and range queries.
//!
//! `RANGE_SCAN_N` overrides the dataset size. CI smoke-runs use 20,000:
//! small enough to run on every push, and about 20 entries per MBT bucket,
//! so seeding inside a bucket and merging across buckets are exercised.
//!
//! Every window must yield exactly `WINDOW` entries. The cold-window page
//! budget of the two ordered trees is a test (`tests/cross_index.rs`).
//!
//! The `remote_take` group serves POS-Tree and MPT single-shard engines
//! over loopback and times the benchmark's short scan end to end:
//! `session.range(Included(start), Unbounded).take(REMOTE_TAKE)`, whose
//! cap the client passes down so the server walks `REMOTE_TAKE + 1`
//! entries. Every window must equal the in-process window.

use std::ops::Bound;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::{Entry, Forkbase, IndexFactory, Session, SiriIndex};
use siri_bench::harness::{
    load_batched, mbt_factory, mpt_factory, mvmb_factory, pos_factory, serve_loopback, IndexCfg,
};

/// Window width in entries (what a paginated UI or a YCSB-E scan pulls).
const WINDOW: usize = 100;

/// Entries a `remote_take` scan takes (the short scan of the wire
/// workloads).
const REMOTE_TAKE: usize = 20;

/// Distinct window starts `remote_take` rotates through.
const REMOTE_STARTS: usize = 97;

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

/// Time `take(REMOTE_TAKE)` scans through a loopback session on a served
/// single-shard engine over `factory`, checking each window against the
/// engine's own.
fn bench_remote_take<F>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    factory: F,
    data: &[Entry],
    sorted_keys: &[siri::Bytes],
) where
    F: IndexFactory + 'static,
    F::Index: Send + Sync,
{
    let engine = Arc::new(Forkbase::new(factory));
    engine.commit("master", siri::WriteBatch::from_entries(data.to_vec())).expect("load");
    let stride = (sorted_keys.len() - REMOTE_TAKE) / REMOTE_STARTS;
    let windows: Vec<(&[u8], Vec<Entry>)> = (0..REMOTE_STARTS)
        .map(|i| {
            let start = &sorted_keys[i * stride][..];
            let local =
                Session::range(&*engine, "master", Bound::Included(start), Bound::Unbounded)
                    .expect("in-process range")
                    .take(REMOTE_TAKE)
                    .collect::<siri::Result<Vec<_>>>()
                    .expect("in-process scan");
            assert_eq!(local.len(), REMOTE_TAKE, "{name}: window at rank {}", i * stride);
            (start, local)
        })
        .collect();
    let (_server, session) = serve_loopback(engine);
    let mut w = 0usize;
    group.bench_function(BenchmarkId::from_parameter(name), |b| {
        b.iter(|| {
            w = (w + 1) % windows.len();
            let (start, want) = &windows[w];
            let got = session
                .range("master", Bound::Included(start), Bound::Unbounded)
                .expect("remote range")
                .take(REMOTE_TAKE)
                .collect::<siri::Result<Vec<_>>>()
                .expect("remote scan");
            assert_eq!(&got, want, "{name}: remote window {w} differs from the engine's");
        })
    });
}

fn bench_remote_range_take(c: &mut Criterion) {
    let n = dataset_size();
    let ycsb = YcsbConfig::default();
    let mut sorted_keys: Vec<_> = (0..n as u64).map(|i| ycsb.key(i)).collect();
    sorted_keys.sort_unstable();
    let data = ycsb.dataset(n);
    let cfg = IndexCfg::ycsb(1024);

    let mut group = c.benchmark_group(format!("remote_take_{}", n));
    group.sample_size(10);
    bench_remote_take(&mut group, "pos-tree", pos_factory(cfg), &data, &sorted_keys);
    bench_remote_take(&mut group, "mpt", mpt_factory(cfg), &data, &sorted_keys);
    group.finish();
}

criterion_group!(benches, bench_range_scan, bench_remote_range_take);
criterion_main!(benches);
