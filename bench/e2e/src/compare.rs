//! `e2e compare A.json B.json` and the quartile table of `--repeat`.
//!
//! The rule is the one the benchmark fixes for every later change: per
//! workload and end-to-end metric, B's median may be worse than A's by at
//! most the metric's bound. Where A's own run-to-run spread (interquartile
//! range over median) is wider than the bound, the pair is `unresolved`,
//! not `ok`. Per-layer metrics have no bound and are listed with their
//! difference only.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::{self, MetricDef};
use crate::run::RunResult;
use crate::stats::{median, quartiles, spread};
use crate::workload;

/// workload → metric → one value per pass.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn table_of_passes(passes: &[Vec<RunResult>]) -> Table {
    let mut t = Table::new();
    for res in passes.iter().flatten() {
        let row = t.entry(res.workload.name().to_string()).or_default();
        for (name, v) in &res.metrics {
            row.entry(name.to_string()).or_default().push(*v);
        }
    }
    t
}

fn table_of_file(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let passes = doc
        .get("passes")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"passes\" array (not an e2e result file)"))?;
    let mut t = Table::new();
    for pass in passes {
        for (w, metrics) in pass.members() {
            let row = t.entry(w.clone()).or_default();
            for (name, v) in metrics.members() {
                if let Some(v) = v.as_f64() {
                    row.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(t)
}

/// Workloads and metrics in table order, not alphabetical.
fn ordered(t: &Table) -> Vec<(&str, &'static MetricDef, &Vec<f64>)> {
    let mut out = Vec::new();
    for w in workload::ALL {
        let Some(row) = t.get(w.name()) else { continue };
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            if let Some(values) = row.get(m.name) {
                out.push((w.name(), m, values));
            }
        }
    }
    out
}

pub fn print_quartiles(passes: &[Vec<RunResult>]) {
    let t = table_of_passes(passes);
    println!("# quartiles over {} passes: workload metric q1 median q3 spread unit", passes.len());
    for (w, m, values) in ordered(&t) {
        let Some([q1, q2, q3]) = quartiles(values) else { continue };
        let spread = spread(values).map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
        println!("{w} {} {q1:.4} {q2:.4} {q3:.4} {spread} {}", m.name, m.unit);
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// No bound to judge against (per-layer metrics).
    Unbounded,
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// direction (negative = better).
pub fn worse_by(m: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a.abs();
    if m.better == "higher" {
        -rel
    } else {
        rel
    }
}

pub fn judge(m: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    if m.bound == 0.0 {
        return Verdict::Unbounded;
    }
    if spread(a).is_some_and(|s| s > m.bound) {
        return Verdict::Unresolved;
    }
    if worse_by(m, median(a), median(b)) > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(false)` when any end-to-end pair is
/// `regressed` or `unresolved`.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (ta, tb) = (table_of_file(a)?, table_of_file(b)?);
    println!("# workload metric a b worse_by bound verdict   (a = {a}, b = {b})");
    let mut clean = true;
    for (w, m, va) in ordered(&ta) {
        let Some(vb) = tb.get(w).and_then(|row| row.get(m.name)) else { continue };
        let (ma, mb) = (median(va), median(vb));
        let verdict = judge(m, va, vb);
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        };
        clean &= !matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
        let bound =
            if m.bound > 0.0 { format!("{:.1}%", m.bound * 100.0) } else { "-".to_string() };
        println!(
            "{w} {} {ma:.4} {mb:.4} {:+.2}% {bound} {word}",
            m.name,
            worse_by(m, ma, mb) * 100.0
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(def("get_p50_us"), 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(def("ops_per_s"), 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(def("ops_per_s"), 100.0, 120.0) < 0.0);
        assert_eq!(worse_by(def("get_p50_us"), 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = def("get_p50_us");
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(judge(m, &steady, &[104.0, 105.0, 103.0]), Verdict::Ok);
        assert_eq!(judge(m, &steady, &[130.0, 131.0, 129.0]), Verdict::Regressed);
        assert_eq!(judge(m, &steady, &[50.0, 51.0, 49.0]), Verdict::Ok);
        let noisy = [100.0, 160.0, 60.0, 140.0, 80.0];
        assert_eq!(judge(m, &noisy, &[100.0, 100.0, 100.0]), Verdict::Unresolved);
        // A single pass has no spread to hold against it.
        assert_eq!(judge(m, &[100.0], &[104.0]), Verdict::Ok);
        assert_eq!(judge(def("index.get_us_p50"), &steady, &[500.0]), Verdict::Unbounded);
    }

    #[test]
    fn result_files_read_back() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/target");
        std::fs::create_dir_all(dir).unwrap();
        let path = format!("{dir}/compare-test-{}.json", std::process::id());
        let text = r#"{"header": {"seed": "42"}, "passes": [
            {"ycsb-read-wire": {"get_p50_us": 50.5, "input_sha256": "ab"}},
            {"ycsb-read-wire": {"get_p50_us": 51.5, "input_sha256": "ab"}}]}"#;
        std::fs::write(&path, text).unwrap();
        let t = table_of_file(&path).unwrap();
        assert_eq!(t["ycsb-read-wire"]["get_p50_us"], vec![50.5, 51.5]);
        assert_eq!(compare_files(&path, &path), Ok(true));
        std::fs::remove_file(&path).unwrap();
        assert!(table_of_file(&path).is_err());
    }
}
