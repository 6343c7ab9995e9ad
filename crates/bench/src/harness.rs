//! Index-agnostic experiment drivers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use siri::workloads::ycsb::Op;
use siri::{
    serve_addr, Bytes, Entry, Forkbase, Hash, IndexFactory, MbtFactory, MemStore, MptFactory,
    MvmbFactory, MvmbParams, PosFactory, PosParams, RemoteSession, ServerHandle, ServerOptions,
    Session, SiriIndex, StructureStats, WriteBatch,
};

/// Per-workload structure tuning, following §5's "node size ≈ 1 KB" rule.
#[derive(Debug, Clone, Copy)]
pub struct IndexCfg {
    pub node_bytes: usize,
    /// Average encoded entry size of the workload (keys + values).
    pub avg_entry: usize,
    pub avg_key: usize,
    /// MBT capacity — fixed for the index's lifetime (§3.4.2).
    pub mbt_buckets: usize,
    pub mbt_fanout: usize,
}

impl IndexCfg {
    pub fn ycsb(node_bytes: usize) -> Self {
        IndexCfg { node_bytes, avg_entry: 271, avg_key: 10, mbt_buckets: 1024, mbt_fanout: 32 }
    }

    pub fn wiki(node_bytes: usize) -> Self {
        IndexCfg { node_bytes, avg_entry: 150, avg_key: 50, mbt_buckets: 1024, mbt_fanout: 32 }
    }

    pub fn eth(node_bytes: usize) -> Self {
        IndexCfg { node_bytes, avg_entry: 600, avg_key: 64, mbt_buckets: 256, mbt_fanout: 32 }
    }
}

/// Drive `writers` threads through one shared engine — the multi-writer
/// cell used by both the `repro concurrency` experiment and the
/// `multi_writer` bench. Writer `t` commits `commits` batches (built by
/// `make_batch(t, k)`) to the branch `branch_of(t)` names: the same
/// string for every writer exercises the contended CAS path, distinct
/// strings the parallel per-slot path. Returns the wall time of the whole
/// burst; every commit is unwrapped, so an engine error fails the run.
pub fn run_concurrent_writers<F: IndexFactory>(
    fb: &Arc<Forkbase<F>>,
    writers: usize,
    commits: usize,
    branch_of: impl Fn(usize) -> String,
    make_batch: impl Fn(usize, usize) -> WriteBatch + Sync,
) -> Duration {
    let make_batch = &make_batch;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..writers {
            let fb = Arc::clone(fb);
            let branch = branch_of(t);
            s.spawn(move || {
                for k in 0..commits {
                    fb.commit(&branch, make_batch(t, k)).unwrap();
                }
            });
        }
    });
    t0.elapsed()
}

pub fn pos_factory(cfg: IndexCfg) -> PosFactory {
    PosFactory(PosParams::default().with_node_bytes(cfg.node_bytes))
}

pub fn mbt_factory(cfg: IndexCfg) -> MbtFactory {
    MbtFactory { buckets: cfg.mbt_buckets, fanout: cfg.mbt_fanout }
}

pub fn mpt_factory(_cfg: IndexCfg) -> MptFactory {
    MptFactory
}

pub fn mvmb_factory(cfg: IndexCfg) -> MvmbFactory {
    MvmbFactory(MvmbParams::for_node_size(cfg.node_bytes, cfg.avg_entry, cfg.avg_key))
}

/// Run `body` once per index structure, passing its display name and
/// factory. The single place that enumerates the four candidates.
#[macro_export]
macro_rules! for_each_index {
    ($cfg:expr, |$name:ident, $factory:ident| $body:block) => {{
        {
            let $name = "pos-tree";
            let $factory = $crate::harness::pos_factory($cfg);
            $body
        }
        {
            let $name = "mbt";
            let $factory = $crate::harness::mbt_factory($cfg);
            $body
        }
        {
            let $name = "mpt";
            let $factory = $crate::harness::mpt_factory($cfg);
            $body
        }
        {
            let $name = "mvmb+";
            let $factory = $crate::harness::mvmb_factory($cfg);
            $body
        }
    }};
}

/// Build an index over a fresh store, loading `entries` in batches;
/// returns the handle plus the root of every batch-version.
pub fn load_batched<F: IndexFactory>(
    factory: &F,
    entries: &[Entry],
    batch: usize,
) -> (F::Index, Vec<Hash>) {
    load_batched_on(factory, MemStore::new_shared(), entries, batch)
}

/// [`load_batched`] over a caller-supplied store, so the caller can read
/// its counters afterwards.
pub fn load_batched_on<F: IndexFactory>(
    factory: &F,
    store: siri::SharedStore,
    entries: &[Entry],
    batch: usize,
) -> (F::Index, Vec<Hash>) {
    let mut index = factory.empty(store);
    let mut roots = Vec::new();
    for chunk in entries.chunks(batch.max(1)) {
        index.batch_insert(chunk.to_vec()).expect("load failed");
        roots.push(index.root());
    }
    (index, roots)
}

/// The operation a latency sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpVerb {
    Read,
    Write,
    Delete,
    Scan,
}

impl OpVerb {
    /// Whether the verb mutates the tree (deletes rewrite paths too).
    pub fn is_write(self) -> bool {
        matches!(self, OpVerb::Write | OpVerb::Delete)
    }
}

/// Outcome of replaying an operation stream.
#[derive(Debug, Default)]
pub struct WorkloadStats {
    pub reads: usize,
    pub writes: usize,
    /// Delete ops (also counted into `writes`: they mutate the tree).
    pub deletes: usize,
    /// Scan ops (also counted into `reads`); `scan_entries` tallies the
    /// entries their cursors streamed.
    pub scans: usize,
    pub scan_entries: usize,
    pub read_nanos: u64,
    pub write_nanos: u64,
    /// (verb, latency ns) per op, for the distribution figures.
    pub latencies: Vec<(OpVerb, u64)>,
}

impl WorkloadStats {
    pub fn total_nanos(&self) -> u64 {
        self.read_nanos + self.write_nanos
    }

    pub fn total_ops(&self) -> usize {
        self.reads + self.writes
    }

    /// Latency percentile over the read class (`writes == false`: reads +
    /// scans) or the write class (writes + deletes), in µs; 0.0 when the
    /// class never ran.
    pub fn percentile_micros(&self, writes: bool, p: f64) -> f64 {
        let mut lats: Vec<u64> = self
            .latencies
            .iter()
            .filter(|(v, _)| v.is_write() == writes)
            .map(|(_, n)| *n)
            .collect();
        if lats.is_empty() {
            return 0.0;
        }
        lats.sort_unstable();
        let idx = ((lats.len() - 1) as f64 * p).round() as usize;
        lats[idx] as f64 / 1e3
    }
}

/// Replay an op stream against an index, timing each operation. Writes and
/// deletes are applied one at a time (per-op versions), as in the paper's
/// throughput/latency runs; scans stream through the unified range cursor
/// without materializing.
pub fn run_ops<I: SiriIndex>(index: &mut I, ops: &[Op]) -> WorkloadStats {
    use std::ops::Bound;
    let mut stats =
        WorkloadStats { latencies: Vec::with_capacity(ops.len()), ..Default::default() };
    for op in ops {
        match op {
            Op::Read(key) => {
                let t = Instant::now();
                let _ = index.get(key).expect("read failed");
                let n = t.elapsed().as_nanos() as u64;
                stats.reads += 1;
                stats.read_nanos += n;
                stats.latencies.push((OpVerb::Read, n));
            }
            Op::Write(entry) => {
                let t = Instant::now();
                index.insert(&entry.key, entry.value.clone()).expect("write failed");
                let n = t.elapsed().as_nanos() as u64;
                stats.writes += 1;
                stats.write_nanos += n;
                stats.latencies.push((OpVerb::Write, n));
            }
            Op::Delete(key) => {
                let t = Instant::now();
                index.delete(key).expect("delete failed");
                let n = t.elapsed().as_nanos() as u64;
                stats.writes += 1;
                stats.deletes += 1;
                stats.write_nanos += n;
                stats.latencies.push((OpVerb::Delete, n));
            }
            Op::Scan { start, limit } => {
                let t = Instant::now();
                let mut streamed = 0usize;
                for entry in index.range(Bound::Included(start), Bound::Unbounded).take(*limit) {
                    entry.expect("scan failed");
                    streamed += 1;
                }
                let n = t.elapsed().as_nanos() as u64;
                stats.reads += 1;
                stats.scans += 1;
                stats.scan_entries += streamed;
                stats.read_nanos += n;
                stats.latencies.push((OpVerb::Scan, n));
            }
        }
    }
    stats
}

/// A key to look up and the value a correct read of it returns.
pub type Lookup = (Bytes, Option<Bytes>);

/// The engine's answer for each of `keys` on `branch`: what a client
/// reading that branch must see.
pub fn engine_lookups<F: IndexFactory>(
    fb: &Forkbase<F>,
    branch: &str,
    keys: &[Bytes],
) -> Vec<Lookup> {
    keys.iter()
        .map(|k| (k.clone(), Session::get(fb, branch, k).expect("engine read failed")))
        .collect()
}

/// Serve `fb` on an ephemeral loopback port and connect one client: the
/// §5.6.1 client/server deployment on one machine. Dropping the handle
/// stops the server.
pub fn serve_loopback<F>(fb: Arc<Forkbase<F>>) -> (ServerHandle<F>, RemoteSession)
where
    F: IndexFactory + 'static,
    F::Index: Send + Sync,
{
    let server = serve_addr(fb, "127.0.0.1:0", ServerOptions::default(), None)
        .expect("bind a loopback port");
    let session = RemoteSession::connect(server.addr()).expect("connect over loopback");
    (server, session)
}

/// Look every key up through `index`, asserting that each read returns
/// the expected value; returns the wall time of the lookups in ns.
pub fn checked_lookups<I: SiriIndex>(index: &I, lookups: &[Lookup]) -> u64 {
    let started = Instant::now();
    for (key, want) in lookups {
        let got = index.get(key).expect("client lookup failed");
        assert_eq!(&got, want, "client read of {key:?} differs from the engine");
    }
    started.elapsed().as_nanos() as u64
}

/// One point of a Figure 21-style client-cache sweep: lookups through an
/// index handle whose decoded-node cache holds at most `capacity` nodes.
#[derive(Debug, Clone, Copy)]
pub struct CacheSweepPoint {
    /// Node-cache capacity in nodes (the sweep's x-axis).
    pub capacity: usize,
    /// Node-cache hit ratio over the run (Figure 21's left axis).
    pub hit_ratio: f64,
    /// Wall-clock time of the lookups (ns).
    pub wall_nanos: u64,
    /// Nodes evicted to stay under the capacity bound.
    pub evictions: u64,
}

impl CacheSweepPoint {
    /// Measured client-side latency per lookup in nanoseconds.
    pub fn nanos_per_lookup(&self, lookups: usize) -> f64 {
        self.wall_nanos as f64 / lookups.max(1) as f64
    }
}

/// Replay `lookups` through a fresh handle at each node-cache capacity in
/// `capacities`, reproducing the §5.6.1 hit-ratio/latency tradeoff.
/// `open(capacity)` opens the index over the client's page source — for
/// the real client, a `RemoteSession::pages()` — with that node-cache
/// capacity. Every read is checked against its expected value.
pub fn client_cache_sweep<I: SiriIndex + StructureStats>(
    open: impl Fn(usize) -> I,
    lookups: &[Lookup],
    capacities: &[usize],
) -> Vec<CacheSweepPoint> {
    capacities
        .iter()
        .map(|&capacity| {
            let index = open(capacity);
            let wall_nanos = checked_lookups(&index, lookups);
            let cache = index.node_cache_stats();
            CacheSweepPoint {
                capacity,
                hit_ratio: cache.hit_ratio(),
                wall_nanos,
                evictions: cache.evictions,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri::workloads::YcsbConfig;

    #[test]
    fn load_and_run_roundtrip() {
        let cfg = IndexCfg::ycsb(1024);
        let ycsb = YcsbConfig::default();
        let data = ycsb.dataset(2_000);
        let factory = pos_factory(cfg);
        let (mut idx, roots) = load_batched(&factory, &data, 500);
        assert_eq!(roots.len(), 4);
        assert_eq!(idx.len().unwrap(), 2_000);
        let ops = ycsb.operations(2_000, 200, 50, 0.0, 7);
        let stats = run_ops(&mut idx, &ops);
        assert_eq!(stats.total_ops(), 200);
        assert!(stats.reads > 0 && stats.writes > 0);
        assert!(stats.percentile_micros(false, 0.5) > 0.0);
    }

    #[test]
    fn crud_scan_stream_runs_on_every_structure() {
        let cfg = IndexCfg::ycsb(1024);
        let ycsb = YcsbConfig::default();
        let data = ycsb.dataset(1_000);
        let mix = siri::workloads::OpMix::crud_scan(50, 20, 15, 15).with_scan_limit(10);
        let ops = ycsb.operations_mix(1_000, 400, mix, 0.5, 11);
        for_each_index!(cfg, |name, factory| {
            let (mut idx, _) = load_batched(&factory, &data, 1_000);
            let stats = run_ops(&mut idx, &ops);
            assert_eq!(stats.total_ops(), 400, "{name}");
            assert!(stats.deletes > 0 && stats.scans > 0, "{name}");
            assert!(stats.scan_entries >= stats.scans, "{name} scans streamed nothing");
            assert!(idx.len().unwrap() <= 1_000, "{name} deletes must shrink or hold");
        });
    }

    #[test]
    fn for_each_index_covers_four() {
        let cfg = IndexCfg::ycsb(1024);
        let mut names = Vec::new();
        for_each_index!(cfg, |name, factory| {
            let store = MemStore::new_shared();
            let mut idx = factory.empty(store);
            idx.insert(b"k", bytes::Bytes::from_static(b"v")).unwrap();
            assert!(idx.get(b"k").unwrap().is_some());
            names.push(name);
        });
        assert_eq!(names, vec!["pos-tree", "mbt", "mpt", "mvmb+"]);
    }

    #[test]
    fn cache_sweep_hit_ratio_grows_with_capacity() {
        let cfg = IndexCfg::ycsb(1024);
        let ycsb = YcsbConfig::default();
        let factory = pos_factory(cfg);
        let mut base = factory.empty(MemStore::new_shared());
        base.batch_insert(ycsb.dataset(3_000)).unwrap();
        let lookups: Vec<Lookup> = (0..2_000u64)
            .map(|i| ycsb.key(i % 3_000))
            .map(|k| (k.clone(), base.get(&k).unwrap()))
            .collect();

        let points = client_cache_sweep(
            |capacity| base.clone().with_node_cache_capacity(capacity),
            &lookups,
            &[0, 64, 100_000],
        );
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].hit_ratio, 0.0, "capacity 0 cannot hit");
        assert!(points[2].hit_ratio > points[1].hit_ratio, "{points:?}");
        assert!(points[2].hit_ratio > 0.5, "unbounded-ish cache must mostly hit");
        assert!(points[1].evictions > 0, "64-node cache must evict");
        assert!(points[0].nanos_per_lookup(lookups.len()) > 0.0);
    }

    #[test]
    fn per_verb_percentiles_split_the_classes() {
        let stats = WorkloadStats {
            latencies: vec![
                (OpVerb::Read, 1_000),
                (OpVerb::Scan, 5_000),
                (OpVerb::Write, 2_000),
                (OpVerb::Delete, 8_000),
            ],
            ..Default::default()
        };
        // Class-level percentiles pool {read,scan} and {write,delete}.
        assert_eq!(stats.percentile_micros(false, 0.0), 1.0);
        assert_eq!(stats.percentile_micros(false, 1.0), 5.0);
        assert_eq!(stats.percentile_micros(true, 0.0), 2.0);
        assert_eq!(stats.percentile_micros(true, 1.0), 8.0);
        // A class that never ran reports 0, not a panic.
        let empty = WorkloadStats::default();
        assert_eq!(empty.percentile_micros(false, 0.5), 0.0);
    }
}
