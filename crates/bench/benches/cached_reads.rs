//! Cache-on vs cache-off point lookups across the four indexes, the
//! Figure 21-style client-cache capacity sweep over loopback, and what a
//! commit costs over a full node cache.
//!
//! The acceptance bar for the read-path overhaul: on a ≥100k-entry index,
//! cached point lookups must be ≥2× faster than the uncached path for MPT
//! and POS-Tree. `cached` uses the default decoded-node cache (warmed by
//! one pass); `uncached` sets capacity 0, so every fetch pays
//! store-lock + page-clone + decode.
//!
//! `commit_full_cache` is the write path's side of the cache (DESIGN.md
//! §3): a ledger-style block of 200 fresh 64-byte hex keys committed into
//! an MPT whose default-capacity node cache is full, so any install a
//! commit made would evict a node a reader still wants.
//!
//! `CACHED_READS_N` overrides the dataset size (CI smoke-runs use a small
//! value so the bench executes on every push without burning minutes).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::crypto::sha256;
use siri::workloads::YcsbConfig;
use siri::{
    Bytes, Entry, Forkbase, MemStore, MerkleBucketTree, MerklePatriciaTrie, MvmbParams, MvmbTree,
    PosFactory, PosParams, PosTree, Session, ShardingPolicy, SiriIndex, WriteBatch,
};
use siri_bench::harness::{client_cache_sweep, engine_lookups, serve_loopback};

/// Cache sized to hold the whole decoded working set of a 100k-entry
/// index — the "cache covers the hot set" end of the sweep, where the
/// §5.6.1 hit ratio approaches 1.
const WARM_CACHE_NODES: usize = 512 * 1024;

/// Keys per block in `commit_full_cache`, as in the ledger workload.
const BLOCK_KEYS: u64 = 200;

/// Distinct blocks of fresh keys, more than one run of the group commits.
const BLOCKS: u64 = 64;

fn dataset_size() -> usize {
    std::env::var("CACHED_READS_N").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000).max(1)
}

/// The `i`-th ledger key: the 64-byte ASCII hex of a digest.
fn hex_key(i: u64) -> Bytes {
    Bytes::from(sha256(&i.to_le_bytes()).to_hex().into_bytes())
}

fn bench_cached_reads(c: &mut Criterion) {
    let n = dataset_size();
    let ycsb = YcsbConfig::default();
    let data = ycsb.dataset(n);
    // Pre-generated lookup keys so the measured loop is pure index work.
    let lookup_keys: Vec<_> = (0..n as u64).map(|i| ycsb.key(i)).collect();

    // One index per structure over its own store, built once.
    macro_rules! bench_pair {
        ($group:expr, $name:expr, $build:expr) => {{
            let idx = $build;
            // Cached: node cache sized to the working set, fully warmed.
            let cached = idx.clone().with_node_cache_capacity(WARM_CACHE_NODES);
            for key in &lookup_keys {
                let _ = cached.get(key).unwrap();
            }
            let mut i = 0usize;
            $group.bench_function(BenchmarkId::new($name, "cached"), |b| {
                b.iter(|| {
                    i = (i + 7) % n;
                    std::hint::black_box(cached.get(&lookup_keys[i]).unwrap())
                })
            });
            // Uncached: capacity 0 — every lookup re-fetches and re-decodes.
            let uncached = idx.with_node_cache_capacity(0);
            let mut i = 0usize;
            $group.bench_function(BenchmarkId::new($name, "uncached"), |b| {
                b.iter(|| {
                    i = (i + 7) % n;
                    std::hint::black_box(uncached.get(&lookup_keys[i]).unwrap())
                })
            });
        }};
    }

    let mut group = c.benchmark_group("lookup");
    group.sample_size(20);
    bench_pair!(group, "mpt", {
        let mut t = MerklePatriciaTrie::new(MemStore::new_shared());
        for chunk in data.chunks(10_000) {
            t.batch_insert(chunk.to_vec()).unwrap();
        }
        t
    });
    bench_pair!(group, "pos-tree", {
        let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
        t.batch_insert(data.clone()).unwrap();
        t
    });
    bench_pair!(group, "mbt", {
        let mut t = MerkleBucketTree::new(MemStore::new_shared(), 4096, 32).unwrap();
        for chunk in data.chunks(10_000) {
            t.batch_insert(chunk.to_vec()).unwrap();
        }
        t
    });
    bench_pair!(group, "mvmb+", {
        let mut t = MvmbTree::new(MemStore::new_shared(), MvmbParams::for_node_size(1024, 271, 10));
        t.batch_insert(data.clone()).unwrap();
        t
    });
    group.finish();

    // Write path over a full cache. Blocks commit one after another onto
    // the head, as a ledger's do, so each reads the path nodes the block
    // before it wrote, which no reader has installed.
    let value = Bytes::from(vec![0x5a; 128]);
    let mut ledger = MerklePatriciaTrie::new(MemStore::new_shared());
    for start in (0..n as u64).step_by(10_000) {
        let end = (start + 10_000).min(n as u64);
        ledger
            .batch_insert((start..end).map(|i| Entry::new(hex_key(i), value.clone())).collect())
            .unwrap();
    }
    for i in 0..n as u64 {
        let _ = ledger.get(&hex_key(i)).unwrap();
    }
    let before = ledger.node_cache_stats();
    println!(
        "commit_full_cache/mpt: {} of {} cache slots filled by reads",
        before.len, before.capacity
    );
    // Later cycles re-put the same records, which still reads and rewrites
    // every path.
    let blocks: Vec<WriteBatch> = (0..BLOCKS)
        .map(|b| {
            let first = n as u64 + b * BLOCK_KEYS;
            let block = (first..first + BLOCK_KEYS).map(|i| Entry::new(hex_key(i), value.clone()));
            WriteBatch::from_entries(block.collect())
        })
        .collect();
    let mut group = c.benchmark_group("commit_full_cache");
    group.sample_size(10);
    let mut next = 0usize;
    group.bench_function(BenchmarkId::new("mpt", BLOCK_KEYS), |b| {
        b.iter(|| {
            next = (next + 1) % blocks.len();
            ledger.commit(blocks[next].clone()).unwrap()
        })
    });
    group.finish();
    let after = ledger.node_cache_stats();
    println!(
        "commit_full_cache/mpt: commits moved the cache by {} misses, {} evictions",
        after.misses - before.misses,
        after.evictions - before.evictions
    );
    drop(ledger);

    // Figure 21-style capacity sweep: a light client reads a served
    // engine over loopback through `session.pages()`, and the handle's
    // node cache is the client cache. Each capacity is one timed pass
    // that checks every value against the engine's.
    let records = (n / 5).max(2) as u64;
    let params = PosParams::default();
    let engine = Arc::new(Forkbase::with_sharding(
        PosFactory(params),
        MemStore::new_shared(),
        ShardingPolicy::single(),
        0,
    ));
    engine.commit("master", WriteBatch::from_entries(ycsb.dataset(records as usize))).unwrap();
    let keys: Vec<_> = (0..records / 2).map(|i| ycsb.key(i)).collect();
    let lookups = engine_lookups(&engine, "master", &keys);
    let (_server, session) = serve_loopback(engine);
    let root = session.branch_digest("master").unwrap();
    let points = client_cache_sweep(
        |capacity| PosTree::open(session.pages(), params, root).with_node_cache_capacity(capacity),
        &lookups,
        &[64, 512, 4096, 32_768],
    );
    for p in &points {
        println!(
            "client_cache_sweep/pos-tree capacity {:>6}: hit ratio {:.3}, \
             {:>10.0} ns/lookup over loopback, {} evictions",
            p.capacity,
            p.hit_ratio,
            p.nanos_per_lookup(lookups.len()),
            p.evictions
        );
    }
}

criterion_group!(benches, bench_cached_reads);
criterion_main!(benches);
