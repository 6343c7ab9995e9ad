//! Multi-writer engine benchmarks: what the `&self`-concurrent Forkbase
//! front-end buys (and costs).
//!
//! Four cells:
//!
//! * **disjoint branches** — N writers committing to N branches through
//!   one shared engine; per-branch head slots mean zero CAS conflicts, so
//!   throughput should track the core count (flat on a 1-core box).
//! * **one shared branch** — N writers hammering `master`; optimistic
//!   commits retry on lost head races. Reports the conflict/commit ratio
//!   and checks model agreement (disjoint keys ⇒ the final count is
//!   order-independent).
//! * **group commit** — the same disjoint-branch write burst on a durable
//!   `FileStore` under `FsyncPolicy::OnCommit` vs `FsyncPolicy::Group`:
//!   the group policy must ack every commit while issuing strictly fewer
//!   fsyncs.
//! * **commit latency** — a criterion measurement of the single-writer
//!   `&self` commit path (the CAS loop's uncontended overhead).
//!
//! `MULTI_WRITER_COMMITS` overrides the per-writer commit count (CI smoke
//! runs use a small value so this executes on every push).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use siri::workloads::YcsbConfig;
use siri::{
    Entry, FileStoreOptions, Forkbase, FsyncPolicy, PosFactory, PosParams, Session, SiriIndex,
    WriteBatch,
};
use siri_bench::harness::run_concurrent_writers;

const BATCH: usize = 50;

fn commits_per_writer() -> usize {
    std::env::var("MULTI_WRITER_COMMITS").ok().and_then(|v| v.parse().ok()).unwrap_or(50)
}

fn bench_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("siri-multi-writer-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// The shared multi-writer burst (`siri_bench::harness`) with this
/// bench's batch shape: `BATCH` disjoint-keyed puts per commit.
fn run_writers(
    fb: &Arc<Forkbase<PosFactory>>,
    writers: usize,
    commits: usize,
    branch_of: impl Fn(usize) -> String,
) -> Duration {
    run_concurrent_writers(fb, writers, commits, branch_of, |t, c| {
        let mut batch = WriteBatch::new();
        for i in 0..BATCH {
            batch.put(format!("w{t:02}-c{c:04}-{i:03}").into_bytes(), vec![(t ^ c ^ i) as u8; 64]);
        }
        batch
    })
}

fn kops(ops: usize, dt: Duration) -> f64 {
    ops as f64 / dt.as_secs_f64() / 1e3
}

fn bench_multi_writer(c: &mut Criterion) {
    let commits = commits_per_writer();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // ── disjoint branches: per-slot heads, no CAS conflicts ─────────────
    for writers in [1usize, 2, 4, 8] {
        let fb = Arc::new(Forkbase::new(PosFactory(PosParams::default())));
        for t in 0..writers {
            fb.fork("master", &format!("w{t}")).unwrap();
        }
        let dt = run_writers(&fb, writers, commits, |t| format!("w{t}"));
        let stats = fb.engine_stats();
        assert_eq!(stats.conflicts, 0, "disjoint branches must not contend");
        for t in 0..writers {
            assert_eq!(
                fb.head(&format!("w{t}")).unwrap().len().unwrap(),
                commits * BATCH,
                "writer {t} must land every batch"
            );
        }
        println!(
            "multi_writer_disjoint: writers={writers} cores={cores} commits={} \
             throughput={:.1} kops/s conflicts=0",
            stats.commits,
            kops(writers * commits * BATCH, dt),
        );
    }

    // ── one shared branch: optimistic CAS with re-apply ─────────────────
    for writers in [2usize, 4, 8] {
        let fb = Arc::new(Forkbase::new(PosFactory(PosParams::default())));
        let dt = run_writers(&fb, writers, commits, |_| "master".to_string());
        let stats = fb.engine_stats();
        let expected = writers * commits * BATCH;
        assert_eq!(
            fb.head("master").unwrap().len().unwrap(),
            expected,
            "every contended batch must apply exactly once"
        );
        println!(
            "multi_writer_contended: writers={writers} commits={} conflicts={} \
             ({:.2} retries/commit) throughput={:.1} kops/s",
            stats.commits,
            stats.conflicts,
            stats.conflicts as f64 / stats.commits.max(1) as f64,
            kops(expected, dt),
        );
    }

    // ── group commit vs fsync-per-commit on the durable store ───────────
    {
        let writers = 4usize;
        let durable_commits = commits.min(25);
        let mut fsyncs_by_policy = Vec::new();
        for (label, policy) in [
            ("commit", FsyncPolicy::OnCommit),
            ("group2ms", FsyncPolicy::Group(Duration::from_millis(2))),
        ] {
            let path = bench_dir(&format!("group-{label}"));
            let opts = FileStoreOptions { fsync: policy, ..FileStoreOptions::default() };
            let fb = Arc::new(
                Forkbase::new_durable(PosFactory(PosParams::default()), &path, opts).unwrap(),
            );
            for t in 0..writers {
                fb.fork("master", &format!("w{t}")).unwrap();
            }
            let dt = run_writers(&fb, writers, durable_commits, |t| format!("w{t}"));
            let stats = fb.server_stats();
            println!(
                "multi_writer_group[{label}]: writers={writers} commits={} fsyncs={} \
                 throughput={:.1} kops/s",
                stats.commits,
                stats.fsyncs,
                kops(writers * durable_commits * BATCH, dt),
            );
            fsyncs_by_policy.push((stats.commits, stats.fsyncs));
            let _ = std::fs::remove_dir_all(&path);
        }
        let (commit_commits, commit_fsyncs) = fsyncs_by_policy[0];
        let (group_commits, group_fsyncs) = fsyncs_by_policy[1];
        assert_eq!(commit_fsyncs, commit_commits, "OnCommit pays one fsync per commit");
        assert!(
            group_fsyncs < group_commits,
            "group commit must batch: {group_fsyncs} fsyncs for {group_commits} commits"
        );
    }

    // ── uncontended commit latency through the &self CAS path ───────────
    {
        let ycsb = YcsbConfig::default();
        let fb = Forkbase::new(PosFactory(PosParams::default()));
        fb.commit("master", WriteBatch::from_entries(ycsb.dataset(5_000))).unwrap();
        let mut group = c.benchmark_group("multi_writer_commit_latency");
        group.sample_size(20);
        let mut v = 1u32;
        group.bench_function(BenchmarkId::from_parameter("single-writer-cas"), |b| {
            b.iter(|| {
                v += 1;
                let batch: Vec<Entry> =
                    (0..BATCH as u64).map(|i| ycsb.entry((i * 37 + v as u64) % 5_000, v)).collect();
                std::hint::black_box(fb.commit("master", WriteBatch::from_entries(batch)).unwrap());
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_multi_writer);
criterion_main!(benches);
