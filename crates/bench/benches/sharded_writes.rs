//! Sharded branch-head benchmarks (ISSUE 8): what partitioning one
//! branch's head into per-key-range CAS slots buys under write
//! contention.
//!
//! Three cells:
//!
//! * **contended single slot vs sharded** — 8 writers hammering ONE
//!   branch with disjoint key ranges, on the classic single-slot head
//!   (every commit races every other) and on a pinned-8-shard head
//!   (routing makes the writers conflict-free). The acceptance target is
//!   a ≥2x commit-throughput win for the sharded head with *zero*
//!   per-shard conflicts.
//! * **spanning batches** — batches crossing all shards, measuring the
//!   multi-shard publish (manifest page + grouped swaps) against the
//!   single-slot equivalent.
//! * **parallel bulk load** — `Forkbase::bulk_load` building shard
//!   sub-trees on 1/2/4/8 threads, criterion-timed.
//!
//! `MULTI_WRITER_COMMITS` overrides the per-writer commit count (CI smoke
//! runs use a small value so this executes on every push).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::{
    Entry, Forkbase, MemStore, PosFactory, PosParams, Session, ShardingPolicy, SiriIndex,
    WriteBatch,
};
use siri_bench::harness::run_concurrent_writers;

const BATCH: usize = 50;
const WRITERS: usize = 8;

fn commits_per_writer() -> usize {
    std::env::var("MULTI_WRITER_COMMITS").ok().and_then(|v| v.parse().ok()).unwrap_or(50)
}

fn engine(policy: ShardingPolicy) -> Arc<Forkbase<PosFactory>> {
    Arc::new(Forkbase::with_sharding(
        PosFactory(PosParams::default()),
        MemStore::new_shared(),
        policy,
        0,
    ))
}

/// Writer `t`'s batch `c`: `BATCH` puts whose first key byte pins them to
/// shard `t` of the uniform `WRITERS`-way partition — the same keys hit
/// the same leaves on the single-slot engine, so the comparison isolates
/// head contention, not tree shape.
fn range_batch(t: usize, c: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    let lead = (t * 256 / WRITERS + 1) as u8;
    for i in 0..BATCH {
        let mut key = vec![lead];
        key.extend_from_slice(format!("w{t:02}-c{c:04}-{i:03}").as_bytes());
        b.put(key, vec![(t ^ c ^ i) as u8; 64]);
    }
    b
}

fn kops(ops: usize, dt: Duration) -> f64 {
    ops as f64 / dt.as_secs_f64() / 1e3
}

fn bench_sharded_writes(c: &mut Criterion) {
    let commits = commits_per_writer();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // ── one contended branch: single slot vs pinned shards ──────────────
    let ops = WRITERS * commits * BATCH;
    let single = engine(ShardingPolicy::single());
    let dt_single =
        run_concurrent_writers(&single, WRITERS, commits, |_| "master".into(), range_batch);
    let single_stats = single.engine_stats();
    assert_eq!(single.head("master").unwrap().len().unwrap(), ops, "single-slot lost a batch");

    let sharded = engine(ShardingPolicy::pinned(WRITERS));
    let dt_sharded =
        run_concurrent_writers(&sharded, WRITERS, commits, |_| "master".into(), range_batch);
    let sharded_stats = sharded.engine_stats();
    assert_eq!(sharded.head("master").unwrap().len().unwrap(), ops, "sharded head lost a batch");
    assert_eq!(sharded_stats.conflicts, 0, "disjoint-shard writers must not conflict");
    for s in sharded.shard_stats("master").unwrap() {
        assert_eq!(s.conflicts, 0, "per-shard conflict counters must stay zero");
    }
    println!(
        "sharded_writes/contended ({cores} core(s)): single-slot {:.1} kops/s \
         ({} conflicts), {WRITERS}-shard {:.1} kops/s (0 conflicts), speedup {:.2}x",
        kops(ops, dt_single),
        single_stats.conflicts,
        kops(ops, dt_sharded),
        dt_single.as_secs_f64() / dt_sharded.as_secs_f64().max(1e-9),
    );

    // Criterion cell: the steady-state contended commit, both heads. One
    // writer-burst per iteration keeps the measurement comparable.
    let mut group = c.benchmark_group("contended_commits");
    group.sample_size(10);
    for (label, policy) in
        [("single_slot", ShardingPolicy::single()), ("sharded_8", ShardingPolicy::pinned(WRITERS))]
    {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let fb = engine(policy);
                run_concurrent_writers(
                    &fb,
                    WRITERS,
                    commits.min(10),
                    |_| "master".into(),
                    range_batch,
                )
            })
        });
    }
    group.finish();

    // ── spanning batches: the multi-shard publish path ──────────────────
    let mut group = c.benchmark_group("spanning_batch_commit");
    group.sample_size(10);
    for (label, policy) in
        [("single_slot", ShardingPolicy::single()), ("sharded_8", ShardingPolicy::pinned(8))]
    {
        let fb = engine(policy);
        let mut c_no = 0usize;
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let mut batch = WriteBatch::new();
                for shard in 0..8usize {
                    let mut key = vec![(shard * 32 + 1) as u8];
                    key.extend_from_slice(format!("span-{c_no:06}").as_bytes());
                    batch.put(key, vec![shard as u8; 64]);
                }
                c_no += 1;
                fb.commit("master", batch).unwrap()
            })
        });
    }
    group.finish();

    // ── parallel bulk load ──────────────────────────────────────────────
    let data: Vec<Entry> = YcsbConfig::default().dataset(20_000);
    let mut group = c.benchmark_group("bulk_load_20k");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::from_parameter(threads), |b| {
            b.iter(|| {
                let fb = engine(ShardingPolicy::single());
                fb.bulk_load("loaded", data.clone(), threads).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_writes);
criterion_main!(benches);
