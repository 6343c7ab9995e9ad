//! Durable-backend benchmarks: what running the same index on disk costs.
//!
//! Four questions, all against the segmented `FileStore`:
//!
//! * **cold open** — how long does recovery (manifest parse + per-segment
//!   digest-verified scan) take for an N-record index?
//! * **get** — disk-resident point reads (positioned `read_at` through the
//!   OS page cache) vs memory-resident ones.
//! * **commit** — write-batch throughput at the three fsync policies.
//! * **compaction** — reclaim rate when retired versions are swept and the
//!   live pages are rewritten into a fresh generation.
//!
//! `DURABLE_N` overrides the dataset size (CI smoke-runs use a small value
//! so this executes on every push).

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::{
    FileStore, FileStoreOptions, FsyncPolicy, MemStore, NodeStore, PosParams, PosTree, Reclaim,
    SharedStore, SiriIndex,
};

fn dataset_size() -> usize {
    std::env::var("DURABLE_N").ok().and_then(|v| v.parse().ok()).unwrap_or(20_000)
}

fn bench_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("siri-durable-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn opts(fsync: FsyncPolicy) -> FileStoreOptions {
    FileStoreOptions { fsync, ..FileStoreOptions::default() }
}

/// Build an N-record POS-Tree on a fresh `FileStore`, returning its root.
fn populate(path: &std::path::Path, n: usize) -> siri::Hash {
    let (fs, _) = FileStore::open_with(path, opts(FsyncPolicy::Never)).unwrap();
    let fs = Arc::new(fs);
    let mut t = PosTree::new(fs.clone() as SharedStore, PosParams::default());
    t.batch_insert(YcsbConfig::default().dataset(n)).unwrap();
    fs.sync().unwrap();
    t.root()
}

fn bench_durable(c: &mut Criterion) {
    let n = dataset_size();
    let ycsb = YcsbConfig::default();

    // ── cold-open recovery ──────────────────────────────────────────────
    let cold_path = bench_dir("cold-open");
    let cold_root = populate(&cold_path, n);
    {
        let mut group = c.benchmark_group(format!("durable_cold_open_{n}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::from_parameter("recovery-scan"), |b| {
            b.iter(|| {
                let (fs, recovered) =
                    FileStore::open_with(&cold_path, opts(FsyncPolicy::Never)).unwrap();
                assert!(recovered > 0);
                std::hint::black_box(fs);
            })
        });
        group.finish();
    }

    // ── point reads: disk vs memory ─────────────────────────────────────
    {
        let (fs, _) = FileStore::open_with(&cold_path, opts(FsyncPolicy::Never)).unwrap();
        let disk_idx = PosTree::open(Arc::new(fs) as SharedStore, PosParams::default(), cold_root);
        let mem_store = MemStore::new_shared();
        let mut mem_idx = PosTree::new(mem_store, PosParams::default());
        mem_idx.batch_insert(ycsb.dataset(n)).unwrap();

        let mut group = c.benchmark_group(format!("durable_get_{n}"));
        group.sample_size(20);
        let mut k = 0u64;
        group.bench_function(BenchmarkId::from_parameter("file"), |b| {
            b.iter(|| {
                k = (k + 7919) % n as u64;
                std::hint::black_box(disk_idx.get(&ycsb.key(k)).unwrap().unwrap());
            })
        });
        let mut k = 0u64;
        group.bench_function(BenchmarkId::from_parameter("mem"), |b| {
            b.iter(|| {
                k = (k + 7919) % n as u64;
                std::hint::black_box(mem_idx.get(&ycsb.key(k)).unwrap().unwrap());
            })
        });
        group.finish();
    }

    // ── commit throughput per fsync policy ──────────────────────────────
    {
        let mut group = c.benchmark_group("durable_commit_100");
        group.sample_size(10);
        let policies: [(&str, Option<FsyncPolicy>); 4] = [
            ("mem", None),
            ("file-never", Some(FsyncPolicy::Never)),
            ("file-every8", Some(FsyncPolicy::EveryN(8))),
            ("file-commit", Some(FsyncPolicy::OnCommit)),
        ];
        for (label, policy) in policies {
            let (store, durable): (SharedStore, Option<Arc<FileStore>>) = match policy {
                None => (MemStore::new_shared(), None),
                Some(p) => {
                    let path = bench_dir(&format!("commit-{label}"));
                    let (fs, _) = FileStore::open_with(&path, opts(p)).unwrap();
                    let fs = Arc::new(fs);
                    (fs.clone() as SharedStore, Some(fs))
                }
            };
            let mut idx = PosTree::new(store, PosParams::default());
            idx.batch_insert(ycsb.dataset(n.min(5_000))).unwrap();
            let mut v = 1u32;
            let before = durable.as_ref().map(|fs| fs.stats());
            group.bench_function(BenchmarkId::from_parameter(label), |b| {
                b.iter(|| {
                    v += 1;
                    let batch: Vec<_> =
                        (0..100u64).map(|i| ycsb.entry((i * 37 + v as u64) % 5_000, v)).collect();
                    idx.batch_insert(batch).unwrap();
                    if let Some(fs) = &durable {
                        fs.note_commit().unwrap();
                    }
                })
            });
            // Every commit's pages are one append (a regression back to
            // per-page appends shows up here, not only as a slower row).
            if let (Some(fs), Some(before)) = (&durable, before) {
                let after = fs.stats();
                let commits = after.commits - before.commits;
                let appends = after.appends - before.appends;
                println!(
                    "durable_commit_100/{label}: {appends} appends over {commits} commits \
                     ({:.2} per commit)",
                    appends as f64 / commits.max(1) as f64
                );
                assert_eq!(appends, commits, "{label}: one append per commit");
            }
        }
        group.finish();
    }

    // ── compaction reclaim rate (one-shot: sweeping is not repeatable) ──
    {
        let path = bench_dir("compaction");
        let (fs, _) = FileStore::open_with(&path, opts(FsyncPolicy::Never)).unwrap();
        let fs = Arc::new(fs);
        let mut head = PosTree::new(fs.clone() as SharedStore, PosParams::default());
        head.batch_insert(ycsb.dataset(n)).unwrap();
        for v in 1..=10u32 {
            head.batch_insert(
                (0..(n as u64 / 20)).map(|i| ycsb.entry(i * 13 % n as u64, v)).collect(),
            )
            .unwrap();
        }
        let disk_before = fs.disk_bytes();
        let live = head.page_set();
        let start = Instant::now();
        let (pages, bytes) = fs.sweep(&live).unwrap();
        let dt = start.elapsed();
        let disk_after = fs.disk_bytes();
        assert!(pages > 0, "retired versions must reclaim pages");
        assert_eq!(head.len().unwrap(), n, "head must survive compaction");
        println!(
            "durable_compaction_{n}: reclaimed {pages} pages / {bytes} B in {dt:?} \
             ({:.1} MB/s reclaim rate; disk {disk_before} B -> {disk_after} B, {:.1}% live)",
            bytes as f64 / dt.as_secs_f64() / 1e6,
            disk_after as f64 / disk_before as f64 * 100.0,
        );
    }
}

criterion_group!(benches, bench_durable);
criterion_main!(benches);
