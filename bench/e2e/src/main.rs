//! `e2e` — the wire-to-fsync benchmark of record for the siri workspace.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line last
//! e2e [--seed N] [--seconds S] [--trace]                  all five workloads
//! e2e --repeat N [...]                                    N passes, quartiles per metric
//! e2e compare A.json B.json                               two result files against the bounds
//! e2e benchmark-json                                      the text of BENCHMARK.json
//! ```
//!
//! Built on the `siri` facade's public API alone. See `README.md` beside
//! this package for the workloads, the metrics and how to read a trace.

mod affinity;
mod compare;
mod exec;
mod json;
mod metrics;
mod ops;
mod rng;
mod run;
mod span;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{RunConfig, RunResult};
use workload::{Sizes, Workload};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] \
     [--repeat N] [--out DIR]\n       e2e compare A.json B.json\n       e2e benchmark-json"
        .into()
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        argv.get(*i).ok_or_else(|| format!("{} needs a value\n{}", argv[*i - 1], usage()))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                a.workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<_> = workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => a.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value(&mut i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--smoke" => a.smoke = true,
            "--repeat" => {
                a.repeat = value(&mut i)?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat needs at least one pass".into());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut i)?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
        i += 1;
    }
    Ok(a)
}

/// Results, traces and store directories go under the build's target
/// directory, so a checkout stays clean and a run never writes outside it.
fn default_out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("e2e")
}

fn header(seed: u64, smoke: bool) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("seed", seed.to_string()),
        ("sizes", if smoke { "smoke" } else { "full" }.to_string()),
        ("sha256_backend", siri::crypto::active_backend().name().to_string()),
        ("chunker", exec::POS_PARAMS.chunker.name().to_string()),
        ("nproc", nproc.to_string()),
        ("loop", "closed, 1 client connection".to_string()),
        ("flush_policy", "fsync on every commit".to_string()),
    ]
}

fn print_result(res: &RunResult) {
    let w = res.workload.name();
    println!("{w} input_sha256 {}", res.input_sha256);
    println!("{w} rounds {} count", res.rounds);
    for (name, value) in &res.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        println!("{w} {name} {} {unit}", json::number(*value));
    }
    println!("{w} attempted {} count", res.attempted);
    println!("{w} failed {} count", res.failed);
    for note in &res.notes {
        eprintln!("# {w}: CHECK FAILED: {note}");
    }
}

/// The contract's last line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(results: &[RunResult], qualify: bool) -> String {
    let mut metrics = Vec::new();
    for res in results {
        for (name, value) in &res.metrics {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            let key =
                if qualify { format!("{}:{name}", res.workload.name()) } else { name.to_string() };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&key),
                json::number(*value),
                json::quote(unit)
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(|r| r.correct),
        results.iter().map(|r| r.attempted).sum::<u64>().max(1),
        results.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

/// `result.json`: the header plus one `{workload: {metric: value}}` object
/// per pass — what `e2e compare` reads.
fn write_result_file(
    path: &std::path::Path,
    header: &[(&'static str, String)],
    passes: &[Vec<RunResult>],
) -> std::io::Result<()> {
    let head: Vec<String> =
        header.iter().map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v))).collect();
    let passes: Vec<String> = passes
        .iter()
        .map(|pass| {
            let workloads: Vec<String> = pass
                .iter()
                .map(|res| {
                    let mut fields: Vec<String> = res
                        .metrics
                        .iter()
                        .map(|(n, v)| format!("{}: {}", json::quote(n), json::number(*v)))
                        .collect();
                    fields.push(format!("\"input_sha256\": {}", json::quote(&res.input_sha256)));
                    format!("    {}: {{{}}}", json::quote(res.workload.name()), fields.join(", "))
                })
                .collect();
            format!("  {{\n{}\n  }}", workloads.join(",\n"))
        })
        .collect();
    let text = format!(
        "{{\n\"header\": {{{}}},\n\"passes\": [\n{}\n]\n}}\n",
        head.join(", "),
        passes.join(",\n")
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// A generator change must fail loudly, not move numbers: the full-size
/// streams of seed 42 are pinned.
fn pinned_input_sha256(w: Workload) -> &'static str {
    match w {
        Workload::YcsbReadWire => {
            "a6f8f922292e12c729eb7bae0c360b42cd468a79270a6fc09daca961242bd03f"
        }
        Workload::YcsbWriteDurable => {
            "0bb3d78b0a51d53e6be6b1ec9699f4268dc13e854906d3d077ba941a9ccbc297"
        }
        Workload::LedgerMptVerified => {
            "8bf644fb951f1138848b8d51841333afe72a199fd8d35ccbfe7d4afe180c5a89"
        }
        Workload::CollabPosInproc => {
            "d315430123ccdf2240ee4d9c24e7ff70f2fee0342bfd596a5cd7733245a1f321"
        }
        Workload::FourIndexMixed => {
            "62e05efbb1c93064691326a993c961096c0b528725b0fe3b3e69c5297a258006"
        }
    }
}

fn run_one(
    args: &Args,
    w: Workload,
    seed: u64,
    out_dir: &std::path::Path,
) -> Result<RunResult, String> {
    let cfg = RunConfig {
        workload: w,
        seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.smoke { Sizes::smoke() } else { Sizes::full() },
        out_dir: out_dir.to_path_buf(),
    };
    let mut res = run::run(&cfg)?;
    if seed == 42 && !args.smoke && res.input_sha256 != pinned_input_sha256(w) {
        res.correct = false;
        res.notes.push(format!(
            "input_sha256 {} is not the pinned {}: the generated inputs changed",
            res.input_sha256,
            pinned_input_sha256(w)
        ));
    }
    Ok(res)
}

fn bench(args: &Args) -> Result<bool, String> {
    let out_dir = args.out.clone().unwrap_or_else(default_out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let head = header(args.seed, args.smoke);
    for (k, v) in &head {
        println!("# {k} {v}");
    }
    let workloads: Vec<Workload> = args.workload.map_or(workload::ALL.to_vec(), |w| vec![w]);
    let mut passes: Vec<Vec<RunResult>> = Vec::new();
    for pass in 0..args.repeat {
        if args.repeat > 1 {
            println!("# pass {} of {}", pass + 1, args.repeat);
        }
        let mut results = Vec::new();
        for &w in &workloads {
            let res = run_one(args, w, args.seed, &out_dir)?;
            print_result(&res);
            results.push(res);
        }
        passes.push(results);
    }
    if args.repeat > 1 {
        compare::print_quartiles(&passes);
    }
    let file = out_dir.join(if args.trace { "result-trace.json" } else { "result.json" });
    write_result_file(&file, &head, &passes).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("# results written to {}", file.display());
    let last = passes.last().expect("at least one pass");
    println!("{}", result_line(last, args.workload.is_none()));
    Ok(passes.iter().flatten().all(|r| r.correct))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") => match (argv.get(1), argv.get(2), argv.get(3)) {
            (Some(a), Some(b), None) => compare::compare_files(a, b),
            _ => Err(usage()),
        },
        Some("benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(true)
        }
        _ => parse(&argv).and_then(|args| bench(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args(&[
            "--workload",
            "ycsb-read-wire",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::YcsbReadWire));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        assert!(args(&["--workload", "four-index-mixed", "--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--smoke"]).unwrap().smoke);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// All five workloads at about 1 % size, untraced and traced, with every
    /// check on: oracle on each op, digest against the MemStore rebuild,
    /// reopen of the store directory, and the result line's shape.
    #[test]
    fn smoke_run_of_all_five_workloads() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("smoke-{}", std::process::id()));
        for trace in [false, true] {
            let a = Args {
                workload: None,
                seed: 42,
                seconds: 0.05,
                trace,
                smoke: true,
                repeat: 1,
                out: Some(out.clone()),
            };
            for w in workload::ALL {
                let res = run_one(&a, w, a.seed, &out).unwrap();
                assert!(res.correct, "{} trace={trace}: {:?}", w.name(), res.notes);
                assert_eq!(res.failed, 0);
                assert!(res.attempted > 0);
                assert_eq!(res.input_sha256.len(), 64);
                let table = if trace { metrics::PER_LAYER } else { metrics::END_TO_END };
                let names: Vec<&str> = res.metrics.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, table.iter().map(|m| m.name).collect::<Vec<_>>());
                if !trace {
                    assert!(res.metrics.iter().all(|(_, v)| *v > 0.0), "{:?}", res.metrics);
                }
                let line = result_line(std::slice::from_ref(&res), false);
                let doc = json::parse(&line).unwrap();
                let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(doc.get("metrics").unwrap().members().len(), table.len());
                if trace {
                    assert!(out.join(format!("trace-{}.jsonl", w.name())).exists());
                    // The no-change controls: nothing of the wire or of
                    // fsync on the in-process workloads.
                    let in_process =
                        matches!(w, Workload::CollabPosInproc | Workload::FourIndexMixed);
                    for (name, v) in &res.metrics {
                        if in_process && (name.starts_with("server.") || name.contains("fsync")) {
                            assert_eq!(*v, 0.0, "{}: {name}", w.name());
                        }
                        if *name == "store.puts_during_reads" {
                            assert_eq!(*v, 0.0, "{}: reads must not write", w.name());
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
