//! The traced run: the same seeded op stream replayed down the layer
//! ladder, with spans recorded around every call into a layer.
//!
//! | rung | stack | spans |
//! |---|---|---|
//! | R0 | `RemoteSession` → wire → server → engine → FileStore, fsync on commit | `client.<verb>` |
//! | R1 | in-process engine → FileStore, fsync on commit | `forkbase.<verb>` |
//! | R2 | in-process engine → `SpanStore(FileStore, fsync never)` | `forkbase.<verb>` + `store.put`/`store.get` children |
//! | R3 | bare index → `SpanStore(MemStore)` | `index.<verb>` + `store.*` children |
//!
//! The in-process workloads have no R0, and their R1 and R2 run over
//! MemStore. Spans of one op share its `op_id` on every rung, so a layer's
//! cost is the p50 of per-op differences between adjacent rungs: wire =
//! R0 − R1, fsync = R1 − R2, store = R2's children, engine = R2 self −
//! R3 self, index = R3 self. After the rungs, kernel passes time SHA-256,
//! the rolling hash, the node codec, proof verification and the wire codec
//! on the pages, proofs and messages the rungs produced.
//!
//! Beside the rungs runs an untraced twin of the workload's own stack: it
//! gives the numbers only this workload has (diff, merge, per-structure
//! throughput) with tracing off, and the base `trace.overhead_pct` is
//! measured against.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use siri::crypto::{hash_many, sha256, RollingHash};
use siri::proto::{Request, Response, WireBound};
use siri::{
    metrics as space, verify_anchored_batch, verify_anchored_membership, Bytes, CommitInfo,
    FileStore, FileStoreOptions, FsyncPolicy, NodeStore, PageSet,
};

use crate::exec::{Backing, StackSpec, Structure, Transport};
use crate::metrics::PER_LAYER;
use crate::ops::{Kind, Op, Outcome};
use crate::run::{
    final_checks, ops_per_s_over_rounds, p50_over_rounds, Inputs, OpRec, Reference, RoundStats,
    RunConfig, RunResult, Samples, Stack,
};
use crate::span::{self, group_by_op, self_time, Span, SpanSink};
use crate::stats::{mean, median, p50_us, tail};
use crate::workload::Workload;

pub fn span_name(layer: &'static str, kind: Kind) -> &'static str {
    const NAMES: [[&str; 8]; 3] = [
        [
            "client.get",
            "client.scan",
            "client.commit",
            "client.verified_get",
            "client.verified_get_many",
            "client.fork",
            "client.diff",
            "client.merge",
        ],
        [
            "forkbase.get",
            "forkbase.scan",
            "forkbase.commit",
            "forkbase.verified_get",
            "forkbase.verified_get_many",
            "forkbase.fork",
            "forkbase.diff",
            "forkbase.merge",
        ],
        [
            "index.get",
            "index.scan",
            "index.commit",
            "index.verified_get",
            "index.verified_get_many",
            "index.fork",
            "index.diff",
            "index.merge",
        ],
    ];
    let row = match layer {
        "client" => 0,
        "forkbase" => 1,
        _ => 2,
    };
    NAMES[row][kind.index()]
}

/// The rungs below (and including) the workload's own stack.
fn ladder(own: StackSpec) -> Vec<(&'static str, StackSpec)> {
    let engine = StackSpec { transport: Transport::Engine, ..own };
    let r3 = StackSpec {
        transport: Transport::Index,
        backing: Backing::Mem,
        shards: 1,
        span_store: true,
        ..own
    };
    if own.transport == Transport::Wire {
        let unsynced = Backing::File(FsyncPolicy::Never);
        vec![
            ("R0", own),
            ("R1", engine),
            ("R2", StackSpec { backing: unsynced, span_store: true, ..engine }),
            ("R3", r3),
        ]
    } else {
        vec![("R1", own), ("R2", StackSpec { span_store: true, ..own }), ("R3", r3)]
    }
}

/// One traced op with its store children folded in.
struct OpView {
    rec: OpRec,
    self_ns: u64,
    put_ns: u64,
    put_pages: u64,
    put_bytes: u64,
    gets: u64,
}

fn views(stack: &Stack, spans: &[Span]) -> Vec<OpView> {
    let groups = group_by_op(spans);
    assert_eq!(groups.len(), stack.recs.len(), "{}: one op span per traced op", stack.rung);
    stack
        .recs
        .iter()
        .zip(groups)
        .map(|(rec, (op, kids))| {
            assert_eq!(spans[op].op_id, rec.op_id, "{}: spans follow op order", stack.rung);
            let kids: Vec<&Span> = kids.iter().map(|&i| &spans[i]).collect();
            let puts = kids.iter().filter(|s| s.name == "store.put");
            OpView {
                rec: *rec,
                self_ns: self_time(&spans[op], &kids),
                put_ns: puts.clone().map(|s| s.dur()).sum(),
                put_pages: puts.clone().map(|s| s.pages as u64).sum(),
                put_bytes: puts.map(|s| s.bytes).sum(),
                gets: kids.iter().filter(|s| s.name == "store.get").count() as u64,
            }
        })
        .collect()
}

fn of_kind(recs: &[OpRec], kind: Kind) -> impl Iterator<Item = &OpRec> {
    recs.iter().filter(move |r| r.kind == kind)
}

fn p50_of_kind(recs: &[OpRec], kind: Kind) -> f64 {
    p50_us(&of_kind(recs, kind).map(|r| r.ns).collect::<Vec<_>>())
}

/// Mean of a per-op count over the ops of one kind.
fn mean_of(recs: &[OpRec], kind: Kind, f: fn(&OpRec) -> u64) -> f64 {
    mean(&of_kind(recs, kind).map(|r| f(r) as f64).collect::<Vec<_>>())
}

/// p50, in microseconds, of a signed per-op quantity in nanoseconds.
fn p50_signed_us(values: impl Iterator<Item = i64>) -> f64 {
    let mut v: Vec<i64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[(v.len() - 1) / 2] as f64 / 1e3
}

/// Per op of `kind`: how much longer it took on rung `a` than on rung `b`.
fn diff_by_op<'a>(a: &'a [OpRec], b: &'a [OpRec], kind: Kind) -> impl Iterator<Item = i64> + 'a {
    a.iter().zip(b).filter(move |(x, _)| x.kind == kind).map(|(x, y)| {
        assert_eq!(x.op_id, y.op_id, "rungs replay one op stream");
        x.ns as i64 - y.ns as i64
    })
}

struct Lane {
    structure: Structure,
    untraced: Stack,
    /// Top rung first. Only lane 0 carries the rungs below its own stack.
    rungs: Vec<Stack>,
}

impl Lane {
    fn rung(&self, name: &str) -> Option<&Stack> {
        self.rungs.iter().find(|s| s.rung == name)
    }
}

type Values = Vec<(String, f64)>;

fn put(v: &mut Values, name: &str, value: f64) {
    v.push((name.to_string(), value));
}

pub fn run_traced(cfg: &RunConfig, root: &Path) -> Result<RunResult, String> {
    let w = cfg.workload;
    let epoch = Instant::now();
    let mut inputs = Inputs::new(cfg);
    let mut lanes: Vec<Lane> = Vec::new();
    for (li, &structure) in w.lanes().iter().enumerate() {
        let own = w.spec(structure);
        let setup = |rung: &'static str, spec: StackSpec, sink: Option<Arc<SpanSink>>| {
            let dir = root.join(format!("{}-{rung}", structure.name()));
            Stack::setup(rung, spec, dir, sink, &inputs.dataset, &inputs.base_oracle, &inputs.warm)
                .map(|(stack, _)| stack)
        };
        let untraced = setup("untraced", own, None)?;
        let mut rungs = Vec::new();
        for (rung, spec) in ladder(own).into_iter().take(if li == 0 { usize::MAX } else { 1 }) {
            rungs.push(setup(rung, spec, Some(SpanSink::new(rung, epoch)))?);
        }
        lanes.push(Lane { structure, untraced, rungs });
    }

    // Lockstep: every stack runs round r before any runs round r + 1, so
    // all of them hold the same data when an op of round r arrives.
    let started = Instant::now();
    let mut samples = Samples::default();
    let mut page_sets: Vec<PageSet> = Vec::new();
    let mut r = 0u32;
    loop {
        r += 1;
        let ops = inputs.round(r);
        for (li, lane) in lanes.iter_mut().enumerate() {
            let st = lane.untraced.round(&ops, r, false, None);
            lane.untraced.rounds.push(st);
            for (ri, stack) in lane.rungs.iter_mut().enumerate() {
                let sink = stack.sink.clone().expect("every rung has a sink");
                sink.set_recording(true);
                let keep = (li == 0 && ri == 0).then_some(&mut samples);
                let st = stack.round(&ops, r, true, keep);
                sink.set_recording(false);
                stack.rounds.push(st);
            }
        }
        if w == Workload::CollabPosInproc {
            // The paper's η is over the page sets of the versions kept:
            // here the three branch heads at the end of every round.
            let exec = &lanes[0].untraced.exec;
            page_sets.extend(["master", "a", "b"].iter().filter_map(|b| exec.page_set(b)));
        }
        if r >= 2 && started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let mut v = Values::new();
    untraced_metrics(&mut v, w, &lanes, &page_sets);
    ladder_metrics(&mut v, w, &lanes[0], &inputs, &samples, root);

    let span_file = cfg.out_dir.join(format!("trace-{}.jsonl", w.name()));
    let sinks: Vec<Arc<SpanSink>> = lanes[0].rungs.iter().filter_map(|s| s.sink.clone()).collect();
    let written = span::write_jsonl(&span_file, &sinks).map_err(|e| e.to_string())?;
    eprintln!("# {written} spans written to {}", span_file.display());

    // Checks: every stack against its oracle, every rung's digest against
    // the top rung's, the top rung against a MemStore rebuild and, when it
    // is file-backed, against its reopened directory.
    let mut attempted = 0;
    let mut failed = 0;
    let mut notes = Vec::new();
    let rebuild_dir = root.join("rebuild");
    for lane in lanes {
        let mut top_digest = None;
        let own_shards = lane.untraced.spec.shards;
        for (i, mut stack) in lane.rungs.into_iter().chain([lane.untraced]).enumerate() {
            attempted += stack.rounds.iter().map(|r| r.attempted).sum::<u64>();
            failed += stack.rounds.iter().map(|r| r.failed).sum::<u64>();
            notes.append(&mut stack.notes);
            let reference = match top_digest {
                None => Reference::Rebuild(&rebuild_dir),
                Some(d) if stack.spec.shards == own_shards => Reference::Digest(d),
                // The bare index of a sharded workload has no manifest.
                Some(_) => Reference::None,
            };
            let (bad, digest, reopen_ms) = final_checks(stack, cfg.seed, reference);
            if i == 0 {
                top_digest = digest;
                if reopen_ms > 0.0 {
                    put(&mut v, "store.reopen_ms", reopen_ms);
                }
            }
            failed += bad.len() as u64;
            notes.extend(bad);
        }
    }
    put(&mut v, "failed_ops_share", failed as f64 / attempted.max(1) as f64);
    Ok(RunResult {
        workload: w,
        metrics: per_layer_in_table_order(&v),
        attempted,
        failed,
        correct: notes.is_empty() && failed == 0,
        input_sha256: inputs.input_sha256,
        rounds: r,
        notes,
    })
}

/// Fill a per-layer result in table order; metrics a workload does not
/// have stay 0 (the no-change controls read "absent" as zero).
fn per_layer_in_table_order(values: &Values) -> Vec<(&'static str, f64)> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is printed but not in the table"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| n == m.name).map_or(0.0, |(_, v)| *v);
            (m.name, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

/// Tracing off: what this workload alone does, and what tracing costs.
fn untraced_metrics(v: &mut Values, w: Workload, lanes: &[Lane], page_sets: &[PageSet]) {
    let own = &lanes[0].untraced;
    put(v, "diff_p50_us", p50_over_rounds(&own.rounds, Kind::Diff));
    put(v, "merge_p50_us", p50_over_rounds(&own.rounds, Kind::Merge));
    if !page_sets.is_empty() {
        put(v, "dedup_ratio", space::deduplication_ratio(page_sets));
    }
    if w == Workload::FourIndexMixed {
        for lane in lanes {
            let s = lane.structure.name();
            let rounds = &lane.untraced.rounds;
            put(v, &format!("mixed_ops_per_s.{s}"), ops_per_s_over_rounds(rounds));
            put(v, &format!("{s}.commit_us_p50"), p50_over_rounds(rounds, Kind::Commit));
            put(v, &format!("{s}.get_us_p50"), p50_over_rounds(rounds, Kind::Get));
            put(v, &format!("{s}.scan_us_p50"), p50_over_rounds(rounds, Kind::Scan));
        }
    }
    // The top rung against its untraced twin, by the wall time of whole
    // rounds (span pushes and counter reads included).
    let rate = |s: &Stack| {
        let per_round: Vec<f64> =
            s.rounds.iter().map(|r| r.attempted as f64 / r.wall_ns.max(1) as f64).collect();
        median(&per_round)
    };
    put(v, "trace.overhead_pct", (1.0 - rate(&lanes[0].rungs[0]) / rate(own)) * 100.0);
}

/// Everything derived from lane 0's rungs and the kernel passes.
fn ladder_metrics(
    v: &mut Values,
    w: Workload,
    lane: &Lane,
    inputs: &Inputs,
    samples: &Samples,
    root: &Path,
) {
    let top = &lane.rungs[0];
    let r1 = lane.rung("R1").expect("every ladder has an in-process engine rung");
    let r2 = lane.rung("R2").expect("every ladder has a span-store engine rung");
    let r3 = lane.rung("R3").expect("every ladder has a bare-index rung");
    let durable = matches!(r1.spec.backing, Backing::File(_));

    // client + server: the wire rung against the in-process one.
    let mut wire_us = 0.0;
    if let Some(r0) = lane.rung("R0") {
        for (kind, name) in
            [(Kind::Get, "get"), (Kind::Commit, "commit"), (Kind::VerifiedGet, "verified_get")]
        {
            let mut ns: Vec<u64> = of_kind(&r0.recs, kind).map(|r| r.ns).collect();
            ns.sort_unstable();
            if let Some((_, value)) = tail(&ns) {
                put(v, &format!("client.{name}_tail_us"), value as f64 / 1e3);
                put(v, &format!("client.{name}_tail_n"), ns.len() as f64);
            }
        }
        let trips = |kind| mean_of(&r0.recs, kind, |r| r.requests);
        put(v, "client.round_trips_per_verified_get", trips(Kind::VerifiedGet));
        put(v, "client.round_trips_per_scan", trips(Kind::Scan));
        let overhead = |kind| p50_signed_us(diff_by_op(&r0.recs, &r1.recs, kind));
        wire_us = overhead(Kind::Commit);
        put(v, "server.wire_overhead_get_us", overhead(Kind::Get));
        put(v, "server.wire_overhead_commit_us", wire_us);
        put(v, "server.bytes_out_per_get", mean_of(&r0.recs, Kind::Get, |r| r.bytes_out));
        put(v, "server.bytes_in_per_commit", mean_of(&r0.recs, Kind::Commit, |r| r.bytes_in));
        put(v, "server.rejected", r0.exec.wire_stats().map_or(0.0, |s| s.rejected as f64));
    }

    // forkbase + store counters: the in-process engine on the workload's
    // own store, the rung that really fsyncs.
    let total = |f: fn(&RoundStats) -> u64| r1.rounds.iter().map(f).sum::<u64>() as f64;
    let commits = total(|r| r.commits).max(1.0);
    let proofs = total(|r| r.proofs).max(1.0);
    let commit_r1 = p50_of_kind(&r1.recs, Kind::Commit);
    put(v, "forkbase.commit_us_p50", commit_r1);
    put(v, "forkbase.get_us_p50", p50_of_kind(&r1.recs, Kind::Get));
    put(v, "forkbase.shards_touched_per_commit", total(|r| r.shards_touched) / commits);
    if let Some(es) = r1.exec.engine_stats() {
        put(v, "forkbase.conflicts_per_commit", es.conflicts as f64 / es.commits.max(1) as f64);
    }
    put(v, "forkbase.bulk_load_records_per_s", inputs.dataset.len() as f64 / r1.load_s.max(1e-9));
    put(v, "core.proof_bytes_per_get", total(|r| r.proof_bytes) / proofs);
    put(v, "core.proof_pages_per_get", total(|r| r.proof_pages) / proofs);
    let (s0, s1) = (r1.store_at_start, r1.exec.store_stats());
    let fsyncs: u64 = of_kind(&r1.recs, Kind::Commit).map(|r| r.store_fsyncs).sum();
    put(v, "store.fsyncs_per_commit", fsyncs as f64 / commits);
    put(
        v,
        "store.shared_put_share",
        (s1.shared_puts - s0.shared_puts) as f64 / (s1.puts - s0.puts).max(1) as f64,
    );
    let reads = [Kind::Get, Kind::Scan, Kind::VerifiedGet, Kind::VerifiedGetMany];
    let writes_in_reads: u64 = r1
        .recs
        .iter()
        .filter(|r| reads.contains(&r.kind))
        .map(|r| r.store_puts + r.store_fsyncs)
        .sum();
    put(v, "store.puts_during_reads", writes_in_reads as f64);
    if durable {
        put(
            v,
            "store.disk_bytes_per_unique_byte",
            r1.stored_bytes() as f64 / s1.unique_bytes.max(1) as f64,
        );
    }

    // store + engine: the span-store rung; index: the bare index.
    let spans_of = |s: &Stack| s.sink.as_ref().map(|k| k.spans()).unwrap_or_default();
    let (spans2, spans3) = (spans_of(r2), spans_of(r3));
    let (v2, v3) = (views(r2, &spans2), views(r3, &spans3));
    let child = |name: &'static str| spans2.iter().filter(move |s| s.name == name);
    // Per page: a batched put is one call for many sibling pages.
    let put_ns: Vec<u64> = child("store.put").map(|s| s.dur() / s.pages.max(1) as u64).collect();
    put(v, "store.put_us_p50", p50_us(&put_ns));
    put(v, "store.get_us_p50", p50_us(&child("store.get").map(Span::dur).collect::<Vec<_>>()));
    let pick = |views: &[OpView], kind: Kind| -> Vec<usize> {
        (0..views.len()).filter(|&i| views[i].rec.kind == kind).collect()
    };
    let commits2 = pick(&v2, Kind::Commit);
    let p50_commits2 =
        |f: fn(&OpView) -> u64| p50_us(&commits2.iter().map(|&i| f(&v2[i])).collect::<Vec<_>>());
    put(v, "store.put_time_per_commit_us", p50_commits2(|o| o.put_ns));
    let gets2: Vec<f64> = pick(&v2, Kind::Get).iter().map(|&i| v2[i].gets as f64).collect();
    put(v, "store.gets_per_get", mean(&gets2));
    let fsync_us = p50_signed_us(diff_by_op(&r1.recs, &r2.recs, Kind::Commit));
    if durable {
        put(v, "store.fsync_share_of_commit", (fsync_us / commit_r1.max(1e-9)).max(0.0));
    }
    let engine_us =
        p50_signed_us(commits2.iter().map(|&i| v2[i].self_ns as i64 - v3[i].self_ns as i64));
    put(v, "forkbase.engine_overhead_commit_us", engine_us);
    let index_commit_us = p50_of_kind(&r3.recs, Kind::Commit);
    put(v, "index.commit_us_p50", index_commit_us);
    put(v, "index.get_us_p50", p50_of_kind(&r3.recs, Kind::Get));
    put(v, "index.scan_us_p50", p50_of_kind(&r3.recs, Kind::Scan));
    put(v, "index.prove_us_p50", p50_of_kind(&r3.recs, Kind::VerifiedGet));
    let commits3 = pick(&v3, Kind::Commit);
    let sum3 = |f: fn(&OpView) -> u64| commits3.iter().map(|&i| f(&v3[i])).sum::<u64>() as f64;
    let n3 = commits3.len().max(1) as f64;
    let hashed_per_commit = sum3(|o| o.put_bytes) / n3;
    put(v, "index.pages_written_per_commit", sum3(|o| o.put_pages) / n3);
    put(
        v,
        "index.written_bytes_per_user_byte",
        sum3(|o| o.put_bytes) / sum3(|o| o.rec.user_bytes).max(1.0),
    );
    put(v, "crypto.bytes_hashed_per_commit", hashed_per_commit);
    for (kind, name) in
        [(Kind::Diff, "index.store_gets_per_diff"), (Kind::Merge, "index.store_gets_per_merge")]
    {
        let gets: Vec<f64> = pick(&v3, kind).iter().map(|&i| v3[i].gets as f64).collect();
        if !gets.is_empty() {
            put(v, name, mean(&gets));
        }
    }
    if let Ok(shape) = r3.exec.shape("master") {
        put(v, "index.height", shape.report.height as f64);
        put(v, "index.mean_node_bytes", shape.report.avg_node_bytes());
        put(v, "index.node_cache_hit_rate", shape.cache.hit_ratio());
    }
    let loaded: Vec<f64> = samples
        .exchanges
        .iter()
        .filter_map(|(op, _)| match op {
            Op::Get { key, .. } => Some(key),
            _ => None,
        })
        .take(200)
        .filter_map(|k| r3.exec.pages_loaded("master", k).ok())
        .map(f64::from)
        .collect();
    put(v, "index.pages_loaded_per_get", mean(&loaded));

    // The commit ladder: do the layers' p50s add up to the top rung's?
    let store_us = p50_commits2(|o| o.rec.ns - o.self_ns);
    let index_us = p50_us(&commits3.iter().map(|&i| v3[i].self_ns).collect::<Vec<_>>());
    let top_commit = p50_of_kind(&top.recs, Kind::Commit);
    let layers = wire_us + fsync_us + store_us + engine_us + index_us;
    put(
        v,
        "trace.commit_ladder_residual_pct",
        (layers - top_commit).abs() / top_commit.max(1e-9) * 100.0,
    );
    // On MemStore R1 − R2 is no flush, only what the SpanStore itself costs.
    let r1_r2 = if durable { "fsync" } else { "span-store" };
    eprintln!(
        "# {} commit ladder (us, p50 per op): wire {wire_us:.1} + {r1_r2} {fsync_us:.1} + store {store_us:.1} + engine {engine_us:.1} + index {index_us:.1} = {layers:.1}; {} commit p50 {top_commit:.1}",
        w.name(),
        top.rung
    );

    // Kernels, on what the rungs produced.
    let pages = r3.sink.as_ref().map(|s| s.captured_pages()).unwrap_or_default();
    let sha_mbps = kernels(v, &pages, samples, lane.structure, top.spec, root);
    if sha_mbps > 0.0 && index_commit_us > 0.0 {
        put(v, "crypto.hash_share_of_commit", hashed_per_commit / sha_mbps / index_commit_us);
    }
}

/// Median over `passes` of the MB/s a pass over `pages` reaches.
fn mbps(pages: &[Bytes], passes: usize, mut pass: impl FnMut(&[Bytes])) -> f64 {
    let bytes: usize = pages.iter().map(|p| p.len()).sum();
    if bytes == 0 {
        return 0.0;
    }
    let rates: Vec<f64> = (0..passes)
        .map(|_| {
            let t0 = Instant::now();
            pass(pages);
            bytes as f64 / 1e6 / t0.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    median(&rates)
}

/// Time the kernels on the pages, proofs and exchanges the rungs produced;
/// returns the SHA-256 rate in MB/s.
fn kernels(
    v: &mut Values,
    pages: &[Bytes],
    samples: &Samples,
    structure: Structure,
    top: StackSpec,
    root: &Path,
) -> f64 {
    // crypto, over the page-size distribution this workload really wrote.
    let sha = mbps(pages, 5, |ps| {
        for p in ps {
            black_box(sha256(black_box(p)));
        }
    });
    put(v, "crypto.sha256_mbps", sha);
    put(
        v,
        "crypto.hash_many_mbps",
        mbps(pages, 5, |ps| {
            for batch in ps.chunks(8) {
                let refs: Vec<&[u8]> = batch.iter().map(|p| &p[..]).collect();
                black_box(hash_many(black_box(&refs)));
            }
        }),
    );
    put(
        v,
        "crypto.rolling_mbps",
        mbps(pages, 3, |ps| {
            let mut h = RollingHash::with_default_window();
            for p in ps {
                h.push_slice(black_box(p));
            }
            black_box(h.fingerprint());
        }),
    );

    // encoding: the facade exposes the POS-Tree node codec only.
    if structure == Structure::Pos {
        let t0 = Instant::now();
        let nodes: Vec<siri::pos_tree::Node> =
            pages.iter().filter_map(|p| siri::pos_tree::Node::decode_zc(p).ok()).collect();
        let decode_ns = t0.elapsed().as_nanos() as f64;
        if !nodes.is_empty() {
            put(v, "encoding.node_decode_ns_per_page", decode_ns / pages.len() as f64);
            let t0 = Instant::now();
            for n in &nodes {
                black_box(n.encode());
            }
            put(
                v,
                "encoding.node_encode_ns_per_page",
                t0.elapsed().as_nanos() as f64 / nodes.len() as f64,
            );
        }
    }

    // core: re-verify the proofs the top rung received.
    let scheme = structure.scheme();
    let ns: Vec<u64> = samples
        .proofs
        .iter()
        .map(|(digest, key, proof)| {
            let t0 = Instant::now();
            black_box(verify_anchored_membership(scheme, *digest, key, proof));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    put(v, "core.verify_membership_us_p50", p50_us(&ns));
    let ns: Vec<u64> = samples
        .batch_proofs
        .iter()
        .map(|(digest, keys, proof)| {
            let t0 = Instant::now();
            black_box(verify_anchored_batch(scheme, *digest, keys, proof));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    put(v, "core.verify_batch_us_p50", p50_us(&ns));

    if top.transport == Transport::Wire {
        let messages: Vec<(Request, Response)> =
            samples.exchanges.iter().filter_map(|(op, out)| exchange(op, out)).collect();
        let (mut enc, mut dec) = (0u128, 0u128);
        for (req, resp) in &messages {
            let t0 = Instant::now();
            let (a, b) = (black_box(req.encode()), black_box(resp.encode()));
            enc += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            black_box((Request::decode(&a).is_ok(), Response::decode(&b).is_ok()));
            dec += t0.elapsed().as_nanos();
        }
        let n = (2 * messages.len()).max(1) as f64;
        put(v, "server.proto_encode_ns_per_msg", enc as f64 / n);
        put(v, "server.proto_decode_ns_per_msg", dec as f64 / n);
    }

    // store: the flush itself, on a scratch store fed a commit's worth of
    // fresh pages before each `note_commit`.
    if matches!(top.backing, Backing::File(_)) {
        let dir = root.join("fsync-scratch");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FileStoreOptions {
            max_segment_bytes: siri::DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::OnCommit,
        };
        if let Ok((store, _)) = FileStore::open_with(&dir, opts) {
            let ns: Vec<u64> = pages
                .chunks(64)
                .take(40)
                .filter_map(|batch| {
                    for p in batch {
                        store.try_put(p.clone()).ok()?;
                    }
                    let t0 = Instant::now();
                    store.note_commit().ok()?;
                    Some(t0.elapsed().as_nanos() as u64)
                })
                .collect();
            put(v, "store.fsync_us_p50", p50_us(&ns));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    sha
}

/// The request and response frames an op and its outcome travelled as,
/// rebuilt from the two (the client keeps no copy of its frames).
fn exchange(op: &Op, out: &Outcome) -> Option<(Request, Response)> {
    let b = |branch: &str| branch.to_string();
    Some(match (op, out) {
        (Op::Get { branch, key }, Outcome::Value(v)) => {
            (Request::Get { branch: b(branch), key: key.clone() }, Response::Value(v.clone()))
        }
        (Op::Scan { branch, start, .. }, Outcome::Entries(entries)) => (
            Request::Range {
                branch: b(branch),
                start: WireBound::Included(start.clone()),
                end: WireBound::Unbounded,
                after: None,
                limit: 256,
            },
            Response::Page { entries: entries.clone(), done: false },
        ),
        (Op::Commit { branch, batch }, Outcome::Committed { root, .. }) => (
            Request::Commit { branch: b(branch), ops: batch.clone().normalize() },
            Response::Committed(CommitInfo {
                parent: *root,
                root: *root,
                retries: 0,
                shards: Vec::new(),
            }),
        ),
        (Op::VerifiedGet { branch, key }, Outcome::Proved { digest, proof, .. }) => (
            Request::Prove { branch: b(branch), key: key.clone() },
            Response::Proof { root: *digest, pages: proof.pages().to_vec() },
        ),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_carry_layer_and_verb() {
        assert_eq!(span_name("client", Kind::Get), "client.get");
        assert_eq!(span_name("forkbase", Kind::Commit), "forkbase.commit");
        assert_eq!(span_name("index", Kind::Merge), "index.merge");
        for kind in crate::ops::KINDS {
            let verb = span_name("index", kind).trim_start_matches("index.");
            assert_eq!(span_name("client", kind), format!("client.{verb}"));
            assert_eq!(span_name("forkbase", kind), format!("forkbase.{verb}"));
        }
    }

    #[test]
    fn signed_p50_keeps_negative_differences() {
        assert_eq!(p50_signed_us([3_000, -1_000, 1_000].into_iter()), 1.0);
        assert_eq!(p50_signed_us([-2_000, -1_000, 5_000].into_iter()), -1.0);
        assert_eq!(p50_signed_us(std::iter::empty()), 0.0);
    }
}
