//! One run of one workload: set-up, the closed measurement loop, and the
//! output checks. [`run`] is what `--workload … --trace 0|1` executes.
//!
//! Closed loop, one client: the next op is sent only after the previous
//! one completed. On the wire workloads the client thread and the server's
//! handler thread are the only busy threads.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use siri::proto::WireServerStats;
use siri::{Bytes, Entry, FsyncPolicy, Hash, Proof, StoreStats};

use crate::exec::{self, Backing, Exec, StackSpec, Transport};
use crate::metrics::END_TO_END;
use crate::ops::{entries_user_bytes, Kind, Op, Oracle, Outcome, StreamHash, KINDS};
use crate::rng::SplitMix64;
use crate::span::SpanSink;
use crate::stats::{geomean, median, p50_us};
use crate::trace;
use crate::workload::{Gen, Sizes, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Measured rounds every untraced run completes, however slow the system.
/// The count that must repeat exactly (stored bytes per user byte) is taken
/// when exactly these rounds are done, never over the time-boxed tail.
pub const FIXED_ROUNDS: u32 = 5;
/// Rounds (warm-up included) that `input_sha256` covers; every run, traced
/// or not, generates at least these.
const HASH_ROUNDS: u32 = 2;
/// Keys re-read from the reopened store directory.
const REOPEN_SAMPLE: usize = 1_000;
/// Least time between the starts of two durable commits in a measured
/// round; the client sleeps the rest (think time, outside every timed
/// window). The sandbox's disk sustains about 350 operations a second
/// behind a burst allowance of about 1 600, and an fsynced commit costs 3
/// to 4 of them (6 on a multi-shard branch, whose publish flushes twice): an
/// unpaced loop of 150 commits a second drains the allowance some 9 s into a
/// run, one paced at 80 a second some 15 s into it or sooner when the runs
/// before it left the allowance low, and the commit p50 then steps from
/// 5.4 ms to 8 ms — a property of the box, not of the program. At 40 commits
/// a second the device sees 140 to 240 operations a second, the allowance
/// refills while the run goes on, and every round of every run is in the
/// same regime.
const COMMIT_PACE: Duration = Duration::from_millis(25);

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub out_dir: PathBuf,
}

pub struct RunResult {
    pub workload: Workload,
    /// Every end-to-end metric (untraced) or every per-layer metric
    /// (traced), in table order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub input_sha256: String,
    pub rounds: u32,
    /// Failed checks and the first few failed ops, for the log.
    pub notes: Vec<String>,
}

/// What one round of ops did on one stack.
#[derive(Default)]
pub struct RoundStats {
    pub lat: [Vec<u64>; KINDS.len()],
    /// Sum of the op latencies: the time the client waited on the system.
    pub busy_ns: u64,
    /// Wall time of the round, oracle checks included.
    pub wall_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub proof_bytes: u64,
    pub proof_pages: u64,
    pub proofs: u64,
    pub user_bytes: u64,
    pub commits: u64,
    pub shards_touched: u64,
}

impl RoundStats {
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }
}

/// One traced op on one rung.
#[derive(Clone, Copy)]
pub struct OpRec {
    pub op_id: u64,
    pub kind: Kind,
    pub ns: u64,
    pub user_bytes: u64,
    /// Wire counter deltas around the op (wire rung only).
    pub requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// `StoreStats` deltas around the op.
    pub store_puts: u64,
    pub store_fsyncs: u64,
}

/// Material the traced run keeps for the kernel measurements.
#[derive(Default)]
pub struct Samples {
    pub proofs: Vec<(Hash, Bytes, Proof)>,
    pub batch_proofs: Vec<(Hash, Vec<Bytes>, Proof)>,
    pub exchanges: Vec<(Op, Outcome)>,
}

const MAX_PROOF_SAMPLES: usize = 512;
const MAX_EXCHANGE_SAMPLES: usize = 2_048;

/// A built stack plus its oracle and what it recorded.
pub struct Stack {
    pub rung: &'static str,
    pub spec: StackSpec,
    pub dir: PathBuf,
    pub exec: Box<dyn Exec>,
    pub oracle: Oracle,
    pub sink: Option<Arc<SpanSink>>,
    pub rounds: Vec<RoundStats>,
    pub recs: Vec<OpRec>,
    /// Seconds of the preload alone.
    pub load_s: f64,
    /// Store counters when set-up ended, the base of per-run deltas.
    pub store_at_start: StoreStats,
    pub notes: Vec<String>,
    last_commit: Option<Instant>,
}

impl Stack {
    /// Build the stack, preload the dataset and run the warm-up round.
    /// Returns the stack and its set-up time: build + load + serve +
    /// connect + the warm-up round's op time.
    pub fn setup(
        rung: &'static str,
        spec: StackSpec,
        dir: PathBuf,
        sink: Option<Arc<SpanSink>>,
        dataset: &[Entry],
        base_oracle: &Oracle,
        warm: &[Op],
    ) -> Result<(Stack, f64), String> {
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(parent) = dir.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        let data = dataset.to_vec();
        let oracle = base_oracle.clone();
        let t0 = Instant::now();
        let mut exec =
            exec::build(&spec, &dir, sink.clone()).map_err(|e| format!("{rung}: build: {e}"))?;
        let t_load = Instant::now();
        exec.preload(data).map_err(|e| format!("{rung}: preload: {e}"))?;
        let load_s = t_load.elapsed().as_secs_f64();
        let built_s = t0.elapsed().as_secs_f64();
        let mut stack = Stack {
            rung,
            spec,
            dir,
            exec,
            oracle,
            sink,
            rounds: Vec::new(),
            recs: Vec::new(),
            load_s,
            store_at_start: StoreStats::default(),
            notes: Vec::new(),
            last_commit: None,
        };
        let warm_stats = stack.round(warm, 0, false, None);
        if warm_stats.failed > 0 {
            return Err(format!(
                "{rung}: {} of {} warm-up ops failed: {:?}",
                warm_stats.failed, warm_stats.attempted, stack.notes
            ));
        }
        stack.store_at_start = stack.exec.store_stats();
        let setup_s = built_s + warm_stats.busy_ns as f64 / 1e9;
        Ok((stack, setup_s))
    }

    /// Run one round of ops, closed loop, checking each outcome against
    /// the oracle after its timed window. A traced round also opens an op
    /// span per op and reads the wire and store counters around it (outside
    /// the timed window); `samples` keeps outcomes for the kernel pass.
    pub fn round(
        &mut self,
        ops: &[Op],
        round: u32,
        traced: bool,
        mut samples: Option<&mut Samples>,
    ) -> RoundStats {
        let layer = self.spec.transport.layer();
        let sink = self.sink.clone().filter(|_| traced);
        let paced = round > 0 && self.spec.backing == Backing::File(FsyncPolicy::OnCommit);
        let mut st = RoundStats::default();
        let wall = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let kind = op.kind();
            let op_id = (round as u64) << 32 | i as u64;
            if paced && kind == Kind::Commit {
                if let Some(due) = self.last_commit.map(|t| t + COMMIT_PACE) {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                }
                self.last_commit = Some(Instant::now());
            }
            let before = traced.then(|| (self.exec.wire_stats(), self.exec.store_stats()));
            if let Some(sink) = &sink {
                sink.begin_op(trace::span_name(layer, kind), op_id);
            }
            let t0 = Instant::now();
            let res = self.exec.run(op);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(sink) = &sink {
                sink.end_op();
            }
            st.lat[kind.index()].push(ns);
            st.busy_ns += ns;
            st.attempted += 1;
            let user_bytes = op.user_bytes();
            if let Some((wire0, store0)) = before {
                let d = wire_delta(wire0.as_ref(), self.exec.wire_stats().as_ref());
                let store1 = self.exec.store_stats();
                self.recs.push(OpRec {
                    op_id,
                    kind,
                    ns,
                    user_bytes,
                    requests: d.0,
                    bytes_in: d.1,
                    bytes_out: d.2,
                    store_puts: store1.puts - store0.puts,
                    store_fsyncs: store1.fsyncs - store0.fsyncs,
                });
            }
            match res {
                Ok(out) => {
                    if !self.oracle.check(op, &out) {
                        st.failed += 1;
                        self.note(format!(
                            "{}: wrong answer to op {i} ({kind:?}) of round {round}",
                            self.rung
                        ));
                    }
                    match &out {
                        Outcome::Committed { shards, .. } => {
                            st.commits += 1;
                            st.shards_touched += *shards as u64;
                            st.user_bytes += user_bytes;
                        }
                        Outcome::Proved { proof, .. } => {
                            st.proofs += 1;
                            st.proof_bytes += proof.encode().len() as u64;
                            st.proof_pages += proof.len() as u64;
                        }
                        _ => {}
                    }
                    if let Some(s) = samples.as_deref_mut() {
                        keep_sample(s, op, out);
                    }
                }
                Err(e) => {
                    st.failed += 1;
                    self.note(format!(
                        "{}: op {i} ({kind:?}) of round {round} failed: {e}",
                        self.rung
                    ));
                }
            }
        }
        st.wall_ns = wall.elapsed().as_nanos() as u64;
        st
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Bytes the stack's store holds: the directory on disk for a file
    /// store, the deduplicated page bytes for a memory store.
    pub fn stored_bytes(&self) -> u64 {
        match self.spec.backing {
            Backing::File(_) => exec::dir_bytes(&self.dir),
            Backing::Mem => self.exec.store_stats().unique_bytes,
        }
    }
}

fn wire_delta(a: Option<&WireServerStats>, b: Option<&WireServerStats>) -> (u64, u64, u64) {
    match (a, b) {
        (Some(a), Some(b)) => (
            b.total_requests - a.total_requests,
            b.total_bytes_in - a.total_bytes_in,
            b.total_bytes_out - a.total_bytes_out,
        ),
        _ => (0, 0, 0),
    }
}

fn keep_sample(s: &mut Samples, op: &Op, out: Outcome) {
    match (&op, &out) {
        (Op::VerifiedGet { key, .. }, Outcome::Proved { digest, proof, .. })
            if s.proofs.len() < MAX_PROOF_SAMPLES =>
        {
            s.proofs.push((*digest, key.clone(), proof.clone()));
        }
        (Op::VerifiedGetMany { keys, .. }, Outcome::ProvedMany { digest, proof, .. })
            if s.batch_proofs.len() < MAX_PROOF_SAMPLES =>
        {
            s.batch_proofs.push((*digest, keys.clone(), proof.clone()));
        }
        _ => {}
    }
    if s.exchanges.len() < MAX_EXCHANGE_SAMPLES {
        s.exchanges.push((op.clone(), out));
    }
}

/// Median over rounds of the per-round p50 of `kind`, in microseconds.
/// Taking the p50 inside each round and the median across rounds removes
/// drift within the process and the one cold round.
pub fn p50_over_rounds(rounds: &[RoundStats], kind: Kind) -> f64 {
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.lat[kind.index()].is_empty())
        .map(|r| p50_us(&r.lat[kind.index()]))
        .collect();
    median(&per_round)
}

pub fn ops_per_s_over_rounds(rounds: &[RoundStats]) -> f64 {
    median(&rounds.iter().map(RoundStats::ops_per_s).collect::<Vec<_>>())
}

/// What the final digest of a stack is compared with.
pub enum Reference<'a> {
    /// A fresh in-process MemStore engine loaded with the oracle's contents
    /// (built under this scratch path).
    Rebuild(&'a Path),
    /// The digest another rung reached on the same op stream.
    Digest(Hash),
    /// Nothing: the stack's partition differs from every other rung's.
    None,
}

/// The checks every run ends with. Consumes the stack: a file-backed one
/// is closed so its directory can be reopened the way a restarted server
/// would. Returns the notes of failed checks, the final digest and the
/// reopen time.
pub fn final_checks(
    stack: Stack,
    seed: u64,
    reference: Reference<'_>,
) -> (Vec<String>, Option<Hash>, f64) {
    let mut notes = Vec::new();
    let Stack { rung, spec, dir, exec, oracle, .. } = stack;
    let want = oracle.entries("master");
    match exec.scan_all("master") {
        Ok(got) if got == want => {}
        Ok(got) => notes.push(format!(
            "{rung}: master holds {} entries that differ from the oracle's {}",
            got.len(),
            want.len()
        )),
        Err(e) => notes.push(format!("{rung}: final scan failed: {e}")),
    }
    let digest = match exec.digest("master") {
        Ok(d) => d,
        Err(e) => {
            notes.push(format!("{rung}: no final digest: {e}"));
            exec.close();
            return (notes, None, 0.0);
        }
    };
    // Structural invariance: the digest is a function of the contents, so
    // loading the oracle's contents into a fresh in-process MemStore engine
    // with the same partition must reproduce it, whatever path (wire,
    // FileStore, hundreds of commits) the measured stack took.
    if !spec.structure.structurally_invariant() {
        // MVMB+ is order-dependent by design; its contents were compared above.
    } else if let Reference::Digest(other) = reference {
        if other != digest {
            notes.push(format!(
                "{rung}: final digest {} differs from the top rung's {}",
                digest.to_hex(),
                other.to_hex()
            ));
        }
    } else if let Reference::Rebuild(scratch) = reference {
        let twin = StackSpec {
            backing: Backing::Mem,
            transport: if spec.transport == Transport::Index {
                Transport::Index
            } else {
                Transport::Engine
            },
            ..spec
        };
        let rebuilt =
            exec::build(&twin, scratch, None).map_err(|e| e.to_string()).and_then(|mut t| {
                t.preload(want.clone()).map_err(|e| e.to_string())?;
                t.digest("master").map_err(|e| e.to_string())
            });
        match rebuilt {
            Ok(d) if d == digest => {}
            Ok(d) => notes.push(format!(
                "{rung}: final digest {} differs from the MemStore rebuild {}",
                digest.to_hex(),
                d.to_hex()
            )),
            Err(e) => notes.push(format!("{rung}: MemStore rebuild failed: {e}")),
        }
    }
    exec.close();
    let mut reopen_ms = 0.0;
    if matches!(spec.backing, Backing::File(_)) && spec.transport != Transport::Index {
        // What a restarted server does: open the directory, re-attach the
        // last acked digest, serve reads.
        let restarted = StackSpec {
            backing: Backing::File(FsyncPolicy::Never),
            transport: Transport::Engine,
            span_store: false,
            ..spec
        };
        let t0 = Instant::now();
        let reopened = exec::build(&restarted, &dir, None)
            .map_err(|e| e.to_string())
            .and_then(|mut e| e.open_master(digest).map(|()| e).map_err(|e| e.to_string()));
        match reopened {
            Err(e) => notes.push(format!("{rung}: reopen failed: {e}")),
            Ok(mut branch) => {
                reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
                if branch.digest("master").ok() != Some(digest) {
                    notes.push(format!("{rung}: reopened head is not the last acked digest"));
                }
                let mut rng = SplitMix64::stream(seed, 0xC0FFEE);
                let mut bad = 0;
                for _ in 0..REOPEN_SAMPLE.min(want.len()) {
                    let e = &want[rng.below(want.len())];
                    let read = branch.run(&Op::Get { branch: "master", key: e.key.clone() });
                    if !matches!(read, Ok(Outcome::Value(Some(v))) if v == e.value) {
                        bad += 1;
                    }
                }
                if bad > 0 {
                    notes.push(format!("{rung}: {bad} sampled keys wrong after reopen"));
                }
            }
        }
    }
    (notes, Some(digest), reopen_ms)
}

/// Where a run keeps its store directories; removed when the run ends.
pub fn data_root(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join("data").join(format!("{}-{}", cfg.workload.name(), std::process::id()))
}

pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let root = data_root(cfg);
    // Before the stack spawns its threads: they inherit the mask.
    if cfg.workload.lanes().iter().any(|&s| cfg.workload.spec(s).transport == Transport::Wire) {
        match crate::affinity::pin_to_one_cpu() {
            Some(cpu) => eprintln!("# {} pinned to cpu {cpu}", cfg.workload.name()),
            None => eprintln!("# {} not pinned: no affinity call here", cfg.workload.name()),
        }
    }
    let res = if cfg.trace { trace::run_traced(cfg, &root) } else { run_untraced(cfg, &root) };
    let _ = std::fs::remove_dir_all(&root);
    res
}

/// Datasets and rounds of one run, with the fingerprint of what was
/// generated.
pub struct Inputs {
    pub gen: Gen,
    pub dataset: Vec<Entry>,
    pub dataset_user_bytes: u64,
    pub base_oracle: Oracle,
    pub warm: Vec<Op>,
    hash: Option<StreamHash>,
    pub input_sha256: String,
}

impl Inputs {
    pub fn new(cfg: &RunConfig) -> Inputs {
        let mut gen = Gen::new(cfg.workload, cfg.seed, cfg.sizes);
        let dataset = gen.dataset();
        let mut hash = StreamHash::new();
        hash.entries(&dataset);
        let warm = gen.round(0);
        for op in &warm {
            hash.op(op);
        }
        Inputs {
            dataset_user_bytes: entries_user_bytes(&dataset),
            base_oracle: Oracle::with_master(&dataset),
            gen,
            dataset,
            warm,
            hash: Some(hash),
            input_sha256: String::new(),
        }
    }

    /// Ops of measured round `r` (1-based; rounds come in order).
    pub fn round(&mut self, r: u32) -> Vec<Op> {
        let ops = self.gen.round(r);
        if r <= HASH_ROUNDS {
            if let Some(h) = self.hash.as_mut() {
                for op in &ops {
                    h.op(op);
                }
            }
        }
        if r == HASH_ROUNDS {
            if let Some(h) = self.hash.take() {
                self.input_sha256 = h.finish();
            }
        }
        ops
    }
}

fn run_untraced(cfg: &RunConfig, root: &Path) -> Result<RunResult, String> {
    let w = cfg.workload;
    let mut inputs = Inputs::new(cfg);
    let lanes = w.lanes();

    // Set up several times; measure on the last set of stacks.
    let mut setup_times = Vec::new();
    let mut stacks: Vec<Stack> = Vec::new();
    for s in 0..SETUPS {
        for old in stacks.drain(..) {
            let dir = old.dir.clone();
            old.exec.close();
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut total = 0.0;
        for &structure in lanes {
            let dir = root.join(format!("setup{s}-{}", structure.name()));
            let (stack, secs) = Stack::setup(
                "e2e",
                w.spec(structure),
                dir,
                None,
                &inputs.dataset,
                &inputs.base_oracle,
                &inputs.warm,
            )?;
            total += secs;
            stacks.push(stack);
        }
        setup_times.push(total);
    }

    // Closed measurement loop: whole rounds until the time is up.
    let started = Instant::now();
    let mut r = 0u32;
    let mut fixed: Option<(u64, u64)> = None; // (stored bytes, user bytes) after FIXED_ROUNDS
    let mut user_bytes = (inputs.dataset_user_bytes
        + inputs.warm.iter().map(Op::user_bytes).sum::<u64>())
        * lanes.len() as u64;
    loop {
        r += 1;
        let ops = inputs.round(r);
        for stack in &mut stacks {
            let st = stack.round(&ops, r, false, None);
            user_bytes += st.user_bytes;
            eprintln!(
                "# {} {} round {r}: {:.0} ops/s, p50 us: get {:.1} scan {:.1} commit {:.1} verified_get {:.1}",
                w.name(),
                stack.spec.structure.name(),
                st.ops_per_s(),
                p50_us(&st.lat[Kind::Get.index()]),
                p50_us(&st.lat[Kind::Scan.index()]),
                p50_us(&st.lat[Kind::Commit.index()]),
                p50_us(&st.lat[Kind::VerifiedGet.index()]),
            );
            stack.rounds.push(st);
        }
        if r == FIXED_ROUNDS {
            fixed = Some((stacks.iter().map(Stack::stored_bytes).sum(), user_bytes));
        }
        if r >= FIXED_ROUNDS && started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }

    let per_lane =
        |f: &dyn Fn(&Stack) -> f64| -> f64 { geomean(&stacks.iter().map(f).collect::<Vec<_>>()) };
    let (stored, committed) = fixed.expect("the loop runs at least FIXED_ROUNDS rounds");
    let values = [
        ("setup_s", median(&setup_times)),
        ("ops_per_s", per_lane(&|s| ops_per_s_over_rounds(&s.rounds))),
        ("get_p50_us", per_lane(&|s| p50_over_rounds(&s.rounds, Kind::Get))),
        ("scan_p50_us", per_lane(&|s| p50_over_rounds(&s.rounds, Kind::Scan))),
        ("commit_p50_us", per_lane(&|s| p50_over_rounds(&s.rounds, Kind::Commit))),
        ("verified_get_p50_us", per_lane(&|s| p50_over_rounds(&s.rounds, Kind::VerifiedGet))),
        ("stored_bytes_per_user_byte", stored as f64 / committed.max(1) as f64),
    ];
    let metrics: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let v = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            (m.name, v.expect("every end-to-end metric is computed"))
        })
        .collect();

    let attempted: u64 = stacks.iter().flat_map(|s| &s.rounds).map(|r| r.attempted).sum();
    let mut failed: u64 = stacks.iter().flat_map(|s| &s.rounds).map(|r| r.failed).sum();
    let mut notes: Vec<String> = stacks.iter_mut().flat_map(|s| s.notes.drain(..)).collect();
    for stack in stacks {
        let (bad, _, _) = final_checks(stack, cfg.seed, Reference::Rebuild(&root.join("rebuild")));
        failed += bad.len() as u64;
        notes.extend(bad);
    }
    for (name, v) in &metrics {
        if !(v.is_finite() && *v > 0.0) {
            notes
                .push(format!("{name} is {v}: an end-to-end metric must be measured and non-zero"));
        }
    }
    Ok(RunResult {
        workload: w,
        correct: notes.is_empty() && failed == 0,
        metrics,
        attempted,
        failed,
        input_sha256: inputs.input_sha256,
        rounds: r,
        notes,
    })
}
