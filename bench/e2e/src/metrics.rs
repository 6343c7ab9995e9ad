//! Every metric the benchmark can print, in one table: name, unit,
//! direction and — for end-to-end metrics — the bound by which it may get
//! worse before a change counts as a regression. `BENCHMARK.json` is
//! rendered from this table (`e2e benchmark-json`) and a test keeps the
//! committed file equal to it.

use crate::json::quote;
use crate::workload;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median; 0 for per-layer metrics (no bound).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one of
/// them (the contract's rule), so each is a verb all five workloads
/// perform; what only one workload does is in [`PER_LAYER`].
///
/// The timing bounds are the widest the contract allows: on this shared
/// 2-core sandbox the speed of memory-bound work steps by ±15 % now and
/// then; ten runs of unchanged code spread (interquartile range over median)
/// by 1–8 % in a calm hour and by up to 14 % when the set straddles a step.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("get_p50_us", "us", "lower", 0.25),
    e2e("scan_p50_us", "us", "lower", 0.25),
    e2e("commit_p50_us", "us", "lower", 0.25),
    e2e("verified_get_p50_us", "us", "lower", 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", "lower", 0.08),
];

pub const PER_LAYER: &[MetricDef] = &[
    // What one workload alone does, measured with tracing off.
    layer("diff_p50_us", "us", "lower"),
    layer("merge_p50_us", "us", "lower"),
    layer("dedup_ratio", "ratio", "higher"),
    layer("failed_ops_share", "ratio", "lower"),
    layer("mixed_ops_per_s.pos-tree", "1/s", "higher"),
    layer("mixed_ops_per_s.mpt", "1/s", "higher"),
    layer("mixed_ops_per_s.mbt", "1/s", "higher"),
    layer("mixed_ops_per_s.mvmb", "1/s", "higher"),
    // client
    layer("client.get_tail_us", "us", "lower"),
    layer("client.get_tail_n", "count", "higher"),
    layer("client.commit_tail_us", "us", "lower"),
    layer("client.commit_tail_n", "count", "higher"),
    layer("client.verified_get_tail_us", "us", "lower"),
    layer("client.verified_get_tail_n", "count", "higher"),
    layer("client.round_trips_per_verified_get", "count", "lower"),
    layer("client.round_trips_per_scan", "count", "lower"),
    // server
    layer("server.wire_overhead_get_us", "us", "lower"),
    layer("server.wire_overhead_commit_us", "us", "lower"),
    layer("server.bytes_out_per_get", "bytes", "lower"),
    layer("server.bytes_in_per_commit", "bytes", "lower"),
    layer("server.proto_encode_ns_per_msg", "ns", "lower"),
    layer("server.proto_decode_ns_per_msg", "ns", "lower"),
    layer("server.rejected", "count", "lower"),
    // forkbase
    layer("forkbase.commit_us_p50", "us", "lower"),
    layer("forkbase.get_us_p50", "us", "lower"),
    layer("forkbase.engine_overhead_commit_us", "us", "lower"),
    layer("forkbase.shards_touched_per_commit", "count", "lower"),
    layer("forkbase.conflicts_per_commit", "count", "lower"),
    layer("forkbase.bulk_load_records_per_s", "1/s", "higher"),
    // index
    layer("index.commit_us_p50", "us", "lower"),
    layer("index.get_us_p50", "us", "lower"),
    layer("index.scan_us_p50", "us", "lower"),
    layer("index.prove_us_p50", "us", "lower"),
    layer("index.pages_written_per_commit", "count", "lower"),
    layer("index.written_bytes_per_user_byte", "ratio", "lower"),
    layer("index.pages_loaded_per_get", "count", "lower"),
    layer("index.height", "count", "lower"),
    layer("index.mean_node_bytes", "bytes", "lower"),
    layer("index.node_cache_hit_rate", "ratio", "higher"),
    layer("index.store_gets_per_diff", "count", "lower"),
    layer("index.store_gets_per_merge", "count", "lower"),
    layer("pos-tree.commit_us_p50", "us", "lower"),
    layer("pos-tree.get_us_p50", "us", "lower"),
    layer("pos-tree.scan_us_p50", "us", "lower"),
    layer("mpt.commit_us_p50", "us", "lower"),
    layer("mpt.get_us_p50", "us", "lower"),
    layer("mpt.scan_us_p50", "us", "lower"),
    layer("mbt.commit_us_p50", "us", "lower"),
    layer("mbt.get_us_p50", "us", "lower"),
    layer("mbt.scan_us_p50", "us", "lower"),
    layer("mvmb.commit_us_p50", "us", "lower"),
    layer("mvmb.get_us_p50", "us", "lower"),
    layer("mvmb.scan_us_p50", "us", "lower"),
    // core
    layer("core.verify_membership_us_p50", "us", "lower"),
    layer("core.verify_batch_us_p50", "us", "lower"),
    layer("core.proof_bytes_per_get", "bytes", "lower"),
    layer("core.proof_pages_per_get", "count", "lower"),
    // encoding
    layer("encoding.node_decode_ns_per_page", "ns", "lower"),
    layer("encoding.node_encode_ns_per_page", "ns", "lower"),
    // crypto
    layer("crypto.sha256_mbps", "MB/s", "higher"),
    layer("crypto.hash_many_mbps", "MB/s", "higher"),
    layer("crypto.rolling_mbps", "MB/s", "higher"),
    layer("crypto.bytes_hashed_per_commit", "bytes", "lower"),
    layer("crypto.hash_share_of_commit", "ratio", "lower"),
    // store
    layer("store.put_us_p50", "us", "lower"),
    layer("store.get_us_p50", "us", "lower"),
    layer("store.put_time_per_commit_us", "us", "lower"),
    layer("store.fsync_us_p50", "us", "lower"),
    layer("store.fsyncs_per_commit", "count", "lower"),
    layer("store.fsync_share_of_commit", "ratio", "lower"),
    layer("store.gets_per_get", "count", "lower"),
    layer("store.shared_put_share", "ratio", "higher"),
    layer("store.disk_bytes_per_unique_byte", "ratio", "lower"),
    layer("store.reopen_ms", "ms", "lower"),
    layer("store.puts_during_reads", "count", "lower"),
    // the benchmark itself
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.commit_ladder_residual_pct", "%", "lower"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub const RUN_SECONDS: u32 = 18;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bench/e2e/Cargo.toml",
        "--bin",
        "e2e",
        "--",
    ];
    let mut s = String::from("{\n  \"command\": [");
    s.push_str(&command.map(quote).join(", "));
    s.push_str("],\n  \"paths\": [\"bench/e2e\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"));
    let rows: Vec<String> = workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name()), quote(w.why())))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_table_fits_the_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for w in workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = find("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// Every metric name the binary can print is in `BENCHMARK.json`, and
    /// the other way round: the committed file is the rendered table.
    #[test]
    fn benchmark_json_is_the_rendered_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `e2e benchmark-json`");
        let doc = json::parse(&committed).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let names = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(|s| s.as_arr())
                .unwrap()
                .iter()
                .map(|m| match m.get("name") {
                    Some(json::Json::Str(name)) => name.clone(),
                    other => panic!("a {section} entry without a name: {other:?}"),
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("workloads"), workload::ALL.map(|w| w.name()));
        assert!(committed.len() <= 64 * 1024);
    }
}
