//! `repro` — regenerates the paper's §5 tables and figures as text tables.
//!
//! Usage:
//! ```text
//! repro [experiment] [--scale F] [--ops N] [--threads N] [--csv]
//! ```
//! Experiments: fig1 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//! fig15 fig16 fig17 fig18 tab3 fig19 fig20 fig21 fig22 bounds
//! concurrency, or `all` (the default).
//!
//! `--scale` multiplies the paper's dataset sizes (default 0.05: laptop
//! scale, a couple of minutes for `all`; 1.0 = full paper sizes). Shapes —
//! who wins, slopes, crossovers — are scale-stable; absolute numbers are
//! not expected to match the paper's hardware. Performance is gated by
//! `bench/e2e`, not by these tables.

use std::sync::Arc;
use std::time::Instant;

use siri::workloads::eth::EthConfig;
use siri::workloads::params;
use siri::workloads::wiki::WikiConfig;
use siri::workloads::ycsb::YcsbConfig;
use siri::{
    cost_model, metrics, Bytes, Entry, FileStoreOptions, Forkbase, FsyncPolicy, IndexFactory,
    MemStore, PosFactory, PosParams, PosTree, Session, ShardingPolicy, SiriIndex, WriteBatch,
};
use siri_bench::harness::*;
use siri_bench::table::{kops, mib, micros, ratio, Table};
use siri_bench::{for_each_index, RunConfig};

const HELP: &str = "\
repro — regenerate the paper's §5 experiments

USAGE:
    repro [EXPERIMENT] [FLAGS]

EXPERIMENTS:
    all            every figure/table experiment (default)
    fig1..fig22, tab3, bounds
                   one §5 figure or table
    concurrency    multi-writer Forkbase cells: disjoint-branch commit
                   scaling, same-branch CAS contention (retry counter +
                   model agreement), and group-commit fsync sharing

FLAGS:
    --scale F      multiply the paper's dataset sizes (default 0.05)
    --ops N        operations per measured workload (default 5000)
    --threads N    writer-thread ceiling for the concurrency cells
                   (default 4; swept in powers of two)
    --csv          print tables as CSV instead of aligned text
    -h, --help     this text
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig::default();
    let mut csv = false;
    let mut experiment = String::from("all");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args[i].parse().expect("--scale takes a float");
            }
            "--ops" => {
                i += 1;
                cfg.ops = args[i].parse().expect("--ops takes an integer");
            }
            "--threads" => {
                i += 1;
                cfg.threads = args[i].parse().expect("--threads takes an integer");
                assert!(cfg.threads > 0, "--threads must be positive");
            }
            "--csv" => csv = true,
            "-h" | "--help" => {
                print!("{HELP}");
                return;
            }
            name if !name.starts_with("--") => experiment = name.to_string(),
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let all = [
        "fig1",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "tab3",
        "fig19",
        "fig20",
        "fig21",
        "fig22",
        "bounds",
        "concurrency",
    ];
    let todo: Vec<&str> = if experiment == "all" {
        all.to_vec()
    } else if all.contains(&experiment.as_str()) {
        vec![all[all.iter().position(|e| *e == experiment).unwrap()]]
    } else {
        eprintln!("unknown experiment '{experiment}'; choose one of {all:?} or 'all'");
        std::process::exit(2);
    };

    println!(
        "# repro: scale={} ops={} — shapes are comparable to the paper; absolute numbers are not",
        cfg.scale, cfg.ops
    );
    for exp in todo {
        let started = Instant::now();
        let tables = match exp {
            "fig1" => fig1(cfg),
            "fig6" => fig6(cfg),
            "fig7" => fig7(cfg),
            "fig8" => fig8(cfg),
            "fig9" => fig9(cfg),
            "fig10" => fig10(cfg),
            "fig11" => fig11(cfg),
            "fig12" => fig12(cfg),
            "fig13" => fig13(cfg),
            "fig14" => fig14(cfg),
            "fig15" => fig15(cfg),
            "fig16" => fig16(cfg),
            "fig17" => fig17_18(cfg, None),
            "fig18" => fig17_18(cfg, Some(50)),
            "tab3" => tab3(cfg),
            "fig19" => fig19_20(cfg, AblationKind::ForcedSplit),
            "fig20" => fig19_20(cfg, AblationKind::CopyAll),
            "fig21" => fig21(cfg),
            "fig22" => fig22(cfg),
            "bounds" => bounds(cfg),
            "concurrency" => concurrency(cfg),
            _ => unreachable!(),
        };
        for t in tables {
            if csv {
                print!("{}", t.render_csv());
            } else {
                t.print();
            }
        }
        eprintln!("[{exp}] done in {:.1}s", started.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------------
// Figure 1 — storage & transmission time, deduplicated vs raw
// ---------------------------------------------------------------------------
fn fig1(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let initial = cfg.scaled(100_000);
    let per_version = cfg.scaled(1_000).min(initial / 10).max(100);
    let mut checkpoints: Vec<usize> = [100usize, 200, 300, 400, 500]
        .iter()
        .map(|v| ((*v as f64 * cfg.scale) as usize).max(5))
        .collect();
    // Small scales clamp several checkpoints to the floor; keep each once.
    checkpoints.dedup();
    let max_versions = *checkpoints.last().unwrap();

    let factory = PosFactory(PosParams::default());
    let store = MemStore::new_shared();
    let mut index = factory.empty(store.clone());
    index.batch_insert(ycsb.dataset(initial)).unwrap();

    let mut t = Table::new(
        "Figure 1 — storage (MiB) and 1 GbE transfer time (s): raw vs deduplicated (POS-Tree)",
        &["versions", "raw_mib", "dedup_mib", "raw_seconds", "dedup_seconds"],
    );
    let mut raw_bytes: u64 = index.page_set().byte_size();
    let mut union = index.page_set();
    for v in 1..=max_versions {
        let updates: Vec<Entry> = (0..per_version as u64)
            .map(|i| ycsb.entry((v as u64 * 7919 + i) % initial as u64, v as u32))
            .collect();
        index.batch_insert(updates).unwrap();
        let pages = index.page_set();
        raw_bytes += pages.byte_size();
        union.union_with(&pages);
        if checkpoints.contains(&v) {
            let gbe = |b: u64| format!("{:.2}", b as f64 * 8.0 / 1e9);
            t.row(vec![
                v.to_string(),
                mib(raw_bytes),
                mib(union.byte_size()),
                gbe(raw_bytes),
                gbe(union.byte_size()),
            ]);
        }
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figure 6 — YCSB throughput grid (θ × write-ratio × #records)
// ---------------------------------------------------------------------------
fn fig6(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let mut sizes: Vec<usize> = params::DATASET_SIZES.iter().map(|s| cfg.scaled(*s)).collect();
    sizes.dedup();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);

    let mut tables = Vec::new();
    for &theta in params::THETAS {
        for &wr in params::WRITE_RATIOS {
            let mut t = Table::new(
                format!("Figure 6 — YCSB throughput (kops/s), θ={theta}, write-ratio={wr}%"),
                &["records", "pos-tree", "mbt", "mpt", "mvmb+"],
            );
            for &n in &sizes {
                let mut cells = vec![n.to_string()];
                let data = ycsb.dataset(n);
                let ops = ycsb.operations(n, cfg.ops, wr, theta, 1000 + n as u64);
                for_each_index!(icfg, |_name, factory| {
                    let (mut idx, _) = load_batched(&factory, &data, 4_000);
                    let stats = run_ops(&mut idx, &ops);
                    cells.push(kops(stats.total_ops(), stats.total_nanos()));
                });
                t.row(cells);
            }
            tables.push(t);
        }
    }
    tables
}

// ---------------------------------------------------------------------------
// Figure 7 — throughput on Wiki and Ethereum
// ---------------------------------------------------------------------------
fn fig7(cfg: RunConfig) -> Vec<Table> {
    let mut tables = Vec::new();

    // (a) Wiki: load all versions, then uniform read / write streams.
    let wiki = WikiConfig { pages: cfg.scaled(50_000), ..Default::default() };
    let versions = ((300.0 * cfg.scale) as u32).max(5);
    let icfg = IndexCfg::wiki(cfg.node_bytes);
    let mut t = Table::new(
        format!(
            "Figure 7(a) — Wiki throughput (kops/s), {} pages, {} versions",
            wiki.pages, versions
        ),
        &["workload", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut read_cells = vec!["read".to_string()];
    let mut write_cells = vec!["write".to_string()];
    for_each_index!(icfg, |_name, factory| {
        let (mut idx, _) = load_batched(&factory, &wiki.initial_dump(), 4_000);
        for v in 1..=versions {
            idx.batch_insert(wiki.version_delta(v)).unwrap();
        }
        // Reads over known pages.
        let t0 = Instant::now();
        let reads = cfg.ops.min(4_000);
        for i in 0..reads {
            let key = wiki.url((i * 13 % wiki.pages) as u64);
            idx.get(&key).unwrap();
        }
        read_cells.push(kops(reads, t0.elapsed().as_nanos() as u64));
        let t0 = Instant::now();
        let writes = cfg.ops.min(2_000);
        for i in 0..writes {
            let page = wiki.page((i * 31 % wiki.pages) as u64, versions + 1);
            idx.insert(&page.key, page.value).unwrap();
        }
        write_cells.push(kops(writes, t0.elapsed().as_nanos() as u64));
    });
    t.row(read_cells);
    t.row(write_cells);
    tables.push(t);

    // (b) Ethereum: one index per block + a block chain scanned linearly.
    let eth = EthConfig::default();
    let blocks = ((300_000.0 * cfg.scale / 1000.0) as u64).clamp(10, 200);
    let mut t = Table::new(
        format!(
            "Figure 7(b) — Ethereum throughput (kops/s), {blocks} blocks × {} txs",
            eth.txs_per_block
        ),
        &["workload", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut read_cells = vec!["read".to_string()];
    let mut write_cells = vec!["write".to_string()];
    let icfg = IndexCfg::eth(cfg.node_bytes);
    for_each_index!(icfg, |_name, factory| {
        // Build the chain: write throughput is bulk-building block indexes.
        let store = MemStore::new_shared();
        let mut chain: Vec<(u64, siri::Hash)> = Vec::new();
        let t0 = Instant::now();
        let mut total_txs = 0usize;
        for b in 0..blocks {
            let mut idx = factory.empty(store.clone());
            let entries = eth.block_entries(b);
            total_txs += entries.len();
            idx.batch_insert(entries).unwrap();
            chain.push((b, idx.root()));
        }
        write_cells.push(kops(total_txs, t0.elapsed().as_nanos() as u64));

        // Reads: scan the chain from the tip for the block holding the tx.
        let reads = cfg.ops.min(500);
        let t0 = Instant::now();
        for i in 0..reads as u64 {
            let target_block = i * 7 % blocks;
            let tx_key = eth.transaction(target_block, (i % 5) as u32).hash_key();
            let mut found = None;
            for (b, root) in chain.iter().rev() {
                let _ = b;
                let idx = factory.open(store.clone(), *root);
                if let Some(v) = idx.get(&tx_key).unwrap() {
                    found = Some(v);
                    break;
                }
            }
            assert!(found.is_some(), "tx must exist");
        }
        read_cells.push(kops(reads, t0.elapsed().as_nanos() as u64));
    });
    t.row(read_cells);
    t.row(write_cells);
    tables.push(t);
    tables
}

// ---------------------------------------------------------------------------
// Figure 8 — diff latency vs #records
// ---------------------------------------------------------------------------
fn fig8(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let sizes: Vec<usize> = [500_000usize, 1_000_000, 1_500_000, 2_000_000, 2_500_000]
        .iter()
        .map(|s| cfg.scaled(*s))
        .collect();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let mut t = Table::new(
        "Figure 8 — diff latency (ms) between two versions loaded in different orders",
        &["records", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    for &n in &sizes {
        let delta = (n / 100).max(100);
        let data = ycsb.dataset(n);
        let mut data_shuffled = data.clone();
        data_shuffled.reverse();
        let changes: Vec<Entry> =
            (0..delta as u64).map(|i| ycsb.entry(i * 97 % n as u64, 1)).collect();
        let mut cells = vec![n.to_string()];
        for_each_index!(icfg, |_name, factory| {
            // Version A loaded forward, version B loaded in another order
            // and then modified — defeats any shared-build shortcuts.
            let (a, _) = load_batched(&factory, &data, 8_000);
            let (mut b, _) = load_batched(&factory, &data_shuffled, 8_000);
            b.batch_insert(changes.clone()).unwrap();
            let t0 = Instant::now();
            let d = a.diff(&b).unwrap();
            let nanos = t0.elapsed().as_nanos() as u64;
            assert!(d.len() >= delta / 2, "diff missed changes");
            cells.push(format!("{:.2}", nanos as f64 / 1e6));
        });
        t.row(cells);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figure 9 — traversed tree-height histogram
// ---------------------------------------------------------------------------
fn fig9(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let n = cfg.scaled(1_600_000);
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let probes = cfg.ops.min(4_000);
    let mut t = Table::new(
        format!("Figure 9 — traversed height histogram over {probes} lookups, {n} records"),
        &["height", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let data = ycsb.dataset(n);
    let mut hists: Vec<Vec<usize>> = Vec::new();
    for_each_index!(icfg, |_name, factory| {
        let (idx, _) = load_batched(&factory, &data, 8_000);
        let mut hist = vec![0usize; 16];
        for i in 0..probes {
            let key = ycsb.key((i * 37 % n) as u64);
            let (_, trace) = idx.get_traced(&key).unwrap();
            hist[(trace.height as usize).min(15)] += 1;
        }
        hists.push(hist);
    });
    for h in 1..12 {
        if hists.iter().all(|hist| hist[h] == 0) {
            continue;
        }
        t.row(vec![
            h.to_string(),
            hists[0][h].to_string(),
            hists[1][h].to_string(),
            hists[2][h].to_string(),
            hists[3][h].to_string(),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figures 10–12 — latency distributions (YCSB / Wiki / Ethereum)
// ---------------------------------------------------------------------------
fn latency_table<F: IndexFactory>(
    factory: &F,
    idx: &mut F::Index,
    ops: &[siri::workloads::ycsb::Op],
    rows: &mut Vec<Vec<String>>,
    label: &str,
) {
    let _ = factory;
    let stats = run_ops(idx, ops);
    for (writes, class) in [(false, "read"), (true, "write")] {
        if stats.latencies.iter().any(|(v, _)| v.is_write() == writes) {
            rows.push(vec![
                label.to_string(),
                class.to_string(),
                format!("{:.1}", stats.percentile_micros(writes, 0.50)),
                format!("{:.1}", stats.percentile_micros(writes, 0.90)),
                format!("{:.1}", stats.percentile_micros(writes, 0.99)),
            ]);
        }
    }
}

fn fig10(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let n = cfg.scaled(1_600_000);
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let data = ycsb.dataset(n);
    let mut tables = Vec::new();
    for (theta, skew) in [(0.0, "balanced"), (0.9, "skewed")] {
        let mut t = Table::new(
            format!("Figure 10 — YCSB latency percentiles (µs), {n} records, {skew}"),
            &["index", "class", "p50", "p90", "p99"],
        );
        let mut rows = Vec::new();
        for_each_index!(icfg, |name, factory| {
            let (mut idx, _) = load_batched(&factory, &data, 8_000);
            let reads = ycsb.operations(n, cfg.ops.min(5_000), 0, theta, 5);
            latency_table(&factory, &mut idx, &reads, &mut rows, name);
            let writes = ycsb.operations(n, cfg.ops.min(2_000), 100, theta, 6);
            latency_table(&factory, &mut idx, &writes, &mut rows, name);
        });
        for r in rows {
            t.row(r);
        }
        tables.push(t);
    }
    tables
}

fn fig11(cfg: RunConfig) -> Vec<Table> {
    let wiki = WikiConfig { pages: cfg.scaled(500_000), ..Default::default() };
    let icfg = IndexCfg::wiki(cfg.node_bytes);
    let dump = wiki.initial_dump();
    let mut t = Table::new(
        format!("Figure 11 — Wiki latency percentiles (µs), {} pages", wiki.pages),
        &["index", "class", "p50", "p90", "p99"],
    );
    let mut rows = Vec::new();
    for_each_index!(icfg, |name, factory| {
        let (mut idx, _) = load_batched(&factory, &dump, 8_000);
        let ops: Vec<siri::workloads::ycsb::Op> = (0..cfg.ops.min(3_000) as u64)
            .map(|i| {
                if i % 2 == 0 {
                    siri::workloads::ycsb::Op::Read(wiki.url(i * 17 % wiki.pages as u64))
                } else {
                    siri::workloads::ycsb::Op::Write(wiki.page(i * 17 % wiki.pages as u64, 1))
                }
            })
            .collect();
        latency_table(&factory, &mut idx, &ops, &mut rows, name);
    });
    for r in rows {
        t.row(r);
    }
    vec![t]
}

fn fig12(cfg: RunConfig) -> Vec<Table> {
    let eth = EthConfig::default();
    let blocks = ((100_000.0 * cfg.scale / 1000.0) as u64).clamp(5, 50);
    let icfg = IndexCfg::eth(cfg.node_bytes);
    let mut t = Table::new(
        format!(
            "Figure 12 — Ethereum latency percentiles (µs), {blocks} blocks (reads scan the chain)"
        ),
        &["index", "class", "p50", "p90", "p99"],
    );
    for_each_index!(icfg, |name, factory| {
        let store = MemStore::new_shared();
        let mut chain = Vec::new();
        let mut write_lat = Vec::new();
        for b in 0..blocks {
            let entries = eth.block_entries(b);
            let t0 = Instant::now();
            let mut idx = factory.empty(store.clone());
            idx.batch_insert(entries).unwrap();
            // Per-tx write latency: amortize the block build.
            write_lat.push(t0.elapsed().as_nanos() as u64 / eth.txs_per_block as u64);
            chain.push(idx.root());
        }
        let mut read_lat = Vec::new();
        for i in 0..cfg.ops.min(300) as u64 {
            let target = i * 13 % blocks;
            let key = eth.transaction(target, 0).hash_key();
            let t0 = Instant::now();
            let mut found = false;
            for root in chain.iter().rev() {
                if factory.open(store.clone(), *root).get(&key).unwrap().is_some() {
                    found = true;
                    break;
                }
            }
            assert!(found);
            read_lat.push(t0.elapsed().as_nanos() as u64);
        }
        let pct = |v: &mut Vec<u64>, p: f64| {
            v.sort_unstable();
            v[((v.len() - 1) as f64 * p) as usize] as f64 / 1e3
        };
        t.row(vec![
            name.to_string(),
            "read".into(),
            format!("{:.1}", pct(&mut read_lat, 0.5)),
            format!("{:.1}", pct(&mut read_lat, 0.9)),
            format!("{:.1}", pct(&mut read_lat, 0.99)),
        ]);
        t.row(vec![
            name.to_string(),
            "write".into(),
            format!("{:.1}", pct(&mut write_lat, 0.5)),
            format!("{:.1}", pct(&mut write_lat, 0.9)),
            format!("{:.1}", pct(&mut write_lat, 0.99)),
        ]);
    });
    vec![t]
}

// ---------------------------------------------------------------------------
// Figure 13 — MBT lookup breakdown: load vs scan
// ---------------------------------------------------------------------------
fn fig13(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let sizes: Vec<usize> = (1..=8).map(|i| cfg.scaled(i * 200_000)).collect();
    let mut t = Table::new(
        format!("Figure 13 — MBT lookup breakdown (µs), B={}", icfg.mbt_buckets),
        &["records", "load_us", "scan_us", "bucket_entries"],
    );
    for &n in &sizes {
        let factory = mbt_factory(icfg);
        let (idx, _) = load_batched(&factory, &ycsb.dataset(n), 8_000);
        let probes = 500;
        let (mut load, mut scan, mut scanned) = (0u64, 0u64, 0u64);
        for i in 0..probes {
            let key = ycsb.key((i * 41 % n) as u64);
            let (_, trace) = idx.get_traced(&key).unwrap();
            load += trace.load_nanos;
            scan += trace.scan_nanos;
            scanned += trace.leaf_entries_scanned as u64;
        }
        t.row(vec![
            n.to_string(),
            micros(load / probes as u64),
            micros(scan / probes as u64),
            format!("{:.1}", scanned as f64 / probes as f64),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Figures 14–16 — storage & node counts (YCSB / Wiki / Ethereum)
// ---------------------------------------------------------------------------
fn fig14(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let sizes: Vec<usize> =
        [40_000usize, 80_000, 160_000, 320_000, 640_000].iter().map(|s| cfg.scaled(*s)).collect();
    let mut storage = Table::new(
        "Figure 14(a) — storage usage (MiB), single group, all versions retained",
        &["records", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut nodes = Table::new(
        "Figure 14(b) — stored pages (x1000)",
        &["records", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    for &n in &sizes {
        let data = ycsb.dataset(n);
        let mut s_cells = vec![n.to_string()];
        let mut n_cells = vec![n.to_string()];
        for_each_index!(icfg, |_name, factory| {
            let (idx, _roots) = load_batched(&factory, &data, 4_000);
            let stats = idx.store().stats();
            s_cells.push(mib(stats.unique_bytes));
            n_cells.push(format!("{:.1}", stats.unique_pages as f64 / 1e3));
        });
        storage.row(s_cells);
        nodes.row(n_cells);
    }
    vec![storage, nodes]
}

fn fig15(cfg: RunConfig) -> Vec<Table> {
    let wiki = WikiConfig { pages: cfg.scaled(200_000), update_pct: 1, ..Default::default() };
    let icfg = IndexCfg::wiki(cfg.node_bytes);
    let mut checkpoints: Vec<u32> = [100u32, 150, 200, 250, 300]
        .iter()
        .map(|v| ((*v as f64 * cfg.scale) as u32).max(3))
        .collect();
    // One row per distinct checkpoint: the rows below index `points`,
    // which records each version once.
    checkpoints.dedup();
    let max_v = *checkpoints.last().unwrap();
    let mut storage = Table::new(
        format!("Figure 15(a) — Wiki storage (MiB), {} pages", wiki.pages),
        &["versions", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut nodes = Table::new(
        "Figure 15(b) — Wiki stored pages (x1000)",
        &["versions", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut per_index: Vec<Vec<(u64, u64)>> = Vec::new();
    for_each_index!(icfg, |_name, factory| {
        let (mut idx, _) = load_batched(&factory, &wiki.initial_dump(), 8_000);
        let mut points = Vec::new();
        for v in 1..=max_v {
            idx.batch_insert(wiki.version_delta(v)).unwrap();
            if checkpoints.contains(&v) {
                let stats = idx.store().stats();
                points.push((stats.unique_bytes, stats.unique_pages));
            }
        }
        per_index.push(points);
    });
    for (i, v) in checkpoints.iter().enumerate() {
        storage.row(vec![
            v.to_string(),
            mib(per_index[0][i].0),
            mib(per_index[1][i].0),
            mib(per_index[2][i].0),
            mib(per_index[3][i].0),
        ]);
        nodes.row(vec![
            v.to_string(),
            format!("{:.1}", per_index[0][i].1 as f64 / 1e3),
            format!("{:.1}", per_index[1][i].1 as f64 / 1e3),
            format!("{:.1}", per_index[2][i].1 as f64 / 1e3),
            format!("{:.1}", per_index[3][i].1 as f64 / 1e3),
        ]);
    }
    vec![storage, nodes]
}

fn fig16(cfg: RunConfig) -> Vec<Table> {
    let eth = EthConfig::default();
    let icfg = IndexCfg::eth(cfg.node_bytes);
    let mut checkpoints: Vec<u64> = [100_000u64, 200_000, 300_000]
        .iter()
        .map(|b| ((*b as f64 * cfg.scale / 100.0) as u64).max(20))
        .collect();
    // One row per distinct checkpoint, as in Figure 15.
    checkpoints.dedup();
    let max_b = *checkpoints.last().unwrap();
    let mut storage = Table::new(
        format!("Figure 16(a) — Ethereum storage (MiB), {} txs/block", eth.txs_per_block),
        &["blocks", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut nodes = Table::new(
        "Figure 16(b) — Ethereum stored pages (x1000)",
        &["blocks", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut per_index: Vec<Vec<(u64, u64)>> = Vec::new();
    for_each_index!(icfg, |_name, factory| {
        let store = MemStore::new_shared();
        let mut points = Vec::new();
        for b in 0..max_b {
            let mut idx = factory.empty(store.clone());
            idx.batch_insert(eth.block_entries(b)).unwrap();
            if checkpoints.contains(&(b + 1)) {
                let stats = store.stats();
                points.push((stats.unique_bytes, stats.unique_pages));
            }
        }
        per_index.push(points);
    });
    for (i, b) in checkpoints.iter().enumerate() {
        storage.row(vec![
            b.to_string(),
            mib(per_index[0][i].0),
            mib(per_index[1][i].0),
            mib(per_index[2][i].0),
            mib(per_index[3][i].0),
        ]);
        nodes.row(vec![
            b.to_string(),
            format!("{:.1}", per_index[0][i].1 as f64 / 1e3),
            format!("{:.1}", per_index[1][i].1 as f64 / 1e3),
            format!("{:.1}", per_index[2][i].1 as f64 / 1e3),
            format!("{:.1}", per_index[3][i].1 as f64 / 1e3),
        ]);
    }
    vec![storage, nodes]
}

// ---------------------------------------------------------------------------
// Figures 17 & 18 — diverse-group collaboration
// ---------------------------------------------------------------------------
fn fig17_18(cfg: RunConfig, fixed_overlap: Option<u32>) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let parties = 10;
    let init = cfg.scaled(40_000);
    let ops = cfg.scaled(160_000);

    let (title, xlabel, xs): (&str, &str, Vec<(u32, usize)>) = match fixed_overlap {
        None => (
            "Figure 17 — collaboration vs overlap ratio (batch 4000)",
            "overlap_%",
            params::OVERLAP_RATIOS.iter().skip(1).map(|o| (*o, 4_000)).collect(),
        ),
        Some(overlap) => (
            "Figure 18 — collaboration vs batch size (overlap 50%)",
            "batch",
            params::BATCH_SIZES.iter().map(|b| (overlap, *b)).collect(),
        ),
    };

    let mut storage =
        Table::new(format!("{title}: storage (MiB)"), &[xlabel, "pos-tree", "mbt", "mpt", "mvmb+"]);
    let mut nodes = Table::new(
        format!("{title}: stored pages (x1000)"),
        &[xlabel, "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut dedup = Table::new(
        format!("{title}: deduplication ratio"),
        &[xlabel, "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut sharing = Table::new(
        format!("{title}: node sharing ratio"),
        &[xlabel, "pos-tree", "mbt", "mpt", "mvmb+"],
    );

    for (overlap, batch) in xs {
        let x = match fixed_overlap {
            None => overlap.to_string(),
            Some(_) => batch.to_string(),
        };
        let init_data = ycsb.dataset(init);
        let party_loads = ycsb.collaboration(parties, ops, overlap);
        let mut cells: Vec<Vec<String>> =
            vec![vec![x.clone()], vec![x.clone()], vec![x.clone()], vec![x]];
        for_each_index!(icfg, |_name, factory| {
            let store = MemStore::new_shared();
            let mut sets = Vec::new();
            for load in &party_loads {
                let mut idx = factory.empty(store.clone());
                idx.batch_insert(init_data.clone()).unwrap();
                sets.push(idx.page_set());
                for chunk in load.chunks(batch) {
                    idx.batch_insert(chunk.to_vec()).unwrap();
                    sets.push(idx.page_set());
                }
            }
            let report = metrics::storage_report(&sets);
            cells[0].push(mib(report.stored_bytes));
            cells[1].push(format!("{:.1}", report.stored_pages as f64 / 1e3));
            cells[2].push(ratio(report.deduplication_ratio));
            cells[3].push(ratio(report.node_sharing_ratio));
        });
        storage.row(cells.remove(0));
        nodes.row(cells.remove(0));
        dedup.row(cells.remove(0));
        sharing.row(cells.remove(0));
    }
    vec![storage, nodes, dedup, sharing]
}

// ---------------------------------------------------------------------------
// Table 3 — parameter sensitivity of the deduplication ratio
// ---------------------------------------------------------------------------
fn tab3(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let n = cfg.scaled(160_000);
    let updates = (n / 10).max(500);
    let data = ycsb.dataset(n);
    let delta: Vec<Entry> = (0..updates as u64).map(|i| ycsb.entry(i * 31 % n as u64, 1)).collect();

    // Two sequential versions; η over their page sets (§4.2.2 setting).
    // Four decimals: the MPT key-length effect is small (the paper's own
    // Table 3 spans just 0.9685→0.9823).
    let eta_for = |sets: &[siri::PageSet]| format!("{:.4}", metrics::deduplication_ratio(sets));

    let mut pos_t = Table::new("Table 3 — η(POS-Tree) vs node size", &["node_bytes", "eta"]);
    for node in [512usize, 1024, 2048, 4096] {
        let factory = PosFactory(PosParams::default().with_node_bytes(node));
        let (mut idx, _) = load_batched(&factory, &data, usize::MAX);
        let v1 = idx.page_set();
        idx.batch_insert(delta.clone()).unwrap();
        pos_t.row(vec![node.to_string(), eta_for(&[v1, idx.page_set()])]);
    }

    let mut mbt_t = Table::new("Table 3 — η(MBT) vs bucket count", &["buckets", "eta"]);
    for buckets in [4_000usize, 6_000, 8_000, 10_000] {
        let factory = siri::MbtFactory { buckets, fanout: 32 };
        let (mut idx, _) = load_batched(&factory, &data, usize::MAX);
        let v1 = idx.page_set();
        idx.batch_insert(delta.clone()).unwrap();
        mbt_t.row(vec![buckets.to_string(), eta_for(&[v1, idx.page_set()])]);
    }

    // Small values for the MPT sweep: the key-length effect lives in the
    // trie-path bytes, which 256 B payloads would drown (the paper's MPT
    // η values sit near 0.97 for the same reason — tiny deltas).
    let mut mpt_t = Table::new("Table 3 — η(MPT) vs mean key length", &["mean_keylen", "eta"]);
    for key_min in [5usize, 8, 11, 14] {
        let gen = YcsbConfig {
            key_len_min: key_min,
            key_len_max: 15,
            value_len_avg: 32,
            ..Default::default()
        };
        let d = gen.dataset(n);
        let mean: f64 = d.iter().map(|e| e.key.len() as f64).sum::<f64>() / d.len() as f64;
        let dd: Vec<Entry> = (0..updates as u64).map(|i| gen.entry(i * 31 % n as u64, 1)).collect();
        let factory = siri::MptFactory;
        let (mut idx, _) = load_batched(&factory, &d, usize::MAX);
        let v1 = idx.page_set();
        idx.batch_insert(dd).unwrap();
        mpt_t.row(vec![format!("{mean:.1}"), eta_for(&[v1, idx.page_set()])]);
    }
    vec![pos_t, mbt_t, mpt_t]
}

// ---------------------------------------------------------------------------
// Figures 19 & 20 — SIRI property ablations
// ---------------------------------------------------------------------------
enum AblationKind {
    ForcedSplit,
    CopyAll,
}

fn fig19_20(cfg: RunConfig, kind: AblationKind) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let parties = 10;
    let init = cfg.scaled(40_000);
    let ops = cfg.scaled(160_000) / 2; // ablation rebuilds are heavier
    let (title, normal_lbl, ablated_lbl) = match kind {
        AblationKind::ForcedSplit => (
            "Figure 19 — disabling Structurally Invariant (POS-Tree)",
            "structurally_invariant",
            "non_structurally_invariant",
        ),
        AblationKind::CopyAll => (
            "Figure 20 — disabling Recursively Identical (POS-Tree)",
            "recursively_identical",
            "non_recursively_identical",
        ),
    };
    let mut dedup = Table::new(
        format!("{title}: deduplication ratio"),
        &["overlap_%", normal_lbl, ablated_lbl],
    );
    let mut sharing =
        Table::new(format!("{title}: node sharing ratio"), &["overlap_%", normal_lbl, ablated_lbl]);

    for &overlap in params::OVERLAP_RATIOS.iter().skip(1) {
        let init_data = ycsb.dataset(init);
        let party_loads = ycsb.collaboration(parties, ops, overlap);
        let run = |ablated: bool| -> (f64, f64) {
            let store = MemStore::new_shared();
            // The instance set S includes every post-batch *version* of
            // every party — sharing across versions is exactly what the
            // Recursively Identical ablation destroys (§5.5.2).
            let mut sets = Vec::new();
            for (party, load) in party_loads.iter().enumerate() {
                let mut idx: PosTree = match (&kind, ablated) {
                    (_, false) => PosTree::new(store.clone(), PosParams::default()),
                    (AblationKind::ForcedSplit, true) => PosTree::new_forced_split(store.clone()),
                    (AblationKind::CopyAll, true) => {
                        PosTree::new_copy_all(store.clone(), PosParams::default(), party as u64)
                    }
                };
                idx.batch_insert(init_data.clone()).unwrap();
                sets.push(idx.page_set());
                for chunk in load.chunks(1_000) {
                    idx.batch_insert(chunk.to_vec()).unwrap();
                    sets.push(idx.page_set());
                }
            }
            (metrics::deduplication_ratio(&sets), metrics::node_sharing_ratio(&sets))
        };
        let (d_norm, s_norm) = run(false);
        let (d_abl, s_abl) = run(true);
        dedup.row(vec![overlap.to_string(), ratio(d_norm), ratio(d_abl)]);
        sharing.row(vec![overlap.to_string(), ratio(s_norm), ratio(s_abl)]);
    }
    vec![dedup, sharing]
}

// ---------------------------------------------------------------------------
// Figure 21 — Forkbase-integrated throughput (a light client over loopback)
// ---------------------------------------------------------------------------

/// The engine of Figures 21/22, pinned to one shard so the branch digest
/// is a bare index root whatever `SIRI_SHARDS` says.
fn single_shard_engine<F: IndexFactory>(factory: F) -> Arc<Forkbase<F>> {
    Arc::new(Forkbase::with_sharding(factory, MemStore::new_shared(), ShardingPolicy::single(), 0))
}

/// The §5.6.1 client: serve `fb` on loopback and look `keys` up at its
/// master head through `factory.open(session.pages(), digest)`, so the
/// handle's default-capacity node cache is the client cache and every
/// miss is one `Fetch` round trip. Each value read is checked against the
/// engine's. Returns the measured wall time, in nanoseconds.
fn client_read_nanos<F>(fb: &Arc<Forkbase<F>>, factory: &F, keys: &[Bytes]) -> u64
where
    F: IndexFactory + 'static,
    F::Index: Send + Sync,
{
    let lookups = engine_lookups(fb, "master", keys);
    let (_server, session) = serve_loopback(fb.clone());
    let digest = session.branch_digest("master").unwrap();
    checked_lookups(&factory.open(session.pages(), digest), &lookups)
}

fn fig21(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let mut sizes: Vec<usize> = [10_000usize, 40_000, 160_000, 640_000, 2_560_000, 5_120_000]
        .iter()
        .map(|s| cfg.scaled(*s))
        .collect();
    sizes.dedup();
    let mut read_t = Table::new(
        "Figure 21(a) — Forkbase-integrated read throughput (kops/s), client over loopback",
        &["records", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    let mut write_t = Table::new(
        "Figure 21(b) — Forkbase-integrated write throughput (kops/s)",
        &["records", "pos-tree", "mbt", "mpt", "mvmb+"],
    );
    for &n in &sizes {
        let data = ycsb.dataset(n);
        let mut r_cells = vec![n.to_string()];
        let mut w_cells = vec![n.to_string()];
        for_each_index!(icfg, |_name, factory| {
            let fb = single_shard_engine(factory.clone());
            for chunk in data.chunks(8_000) {
                fb.commit("master", WriteBatch::from_entries(chunk.to_vec())).unwrap();
            }
            // Client reads over loopback, measured wall time.
            let reads = cfg.ops.min(3_000);
            let keys: Vec<Bytes> = (0..reads).map(|i| ycsb.key((i * 29 % n) as u64)).collect();
            r_cells.push(kops(reads, client_read_nanos(&fb, &factory, &keys)));
            // Server-side writes.
            let writes = cfg.ops.min(1_500);
            let t0 = Instant::now();
            for i in 0..writes {
                fb.commit(
                    "master",
                    WriteBatch::from_entries(vec![ycsb.entry((i * 53 % n) as u64, 9)]),
                )
                .unwrap();
            }
            w_cells.push(kops(writes, t0.elapsed().as_nanos() as u64));
        });
        read_t.row(r_cells);
        write_t.row(w_cells);
    }
    vec![read_t, write_t]
}

// ---------------------------------------------------------------------------
// Figure 22 — Forkbase vs Noms
// ---------------------------------------------------------------------------
fn fig22(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let mut sizes: Vec<usize> =
        [10_000usize, 20_000, 40_000, 80_000, 128_000].iter().map(|s| cfg.scaled(*s)).collect();
    sizes.dedup();
    let mut t = Table::new(
        "Figure 22 — Forkbase (POS-Tree, 4K nodes, batched) vs Noms (Prolly, per-op) throughput (kops/s)",
        &["records", "fb_read", "noms_read", "fb_write", "noms_write"],
    );
    for &n in &sizes {
        let data = ycsb.dataset(n);
        let reads = cfg.ops.min(2_000);
        let writes = cfg.ops.min(500);
        let keys: Vec<Bytes> = (0..reads).map(|i| ycsb.key((i * 29 % n) as u64)).collect();

        // Forkbase: POS-Tree with Noms' 4 KB node size, batched writes.
        let factory = PosFactory(PosParams::default().with_node_bytes(4096));
        let fb = single_shard_engine(factory.clone());
        for chunk in data.chunks(8_000) {
            fb.commit("master", WriteBatch::from_entries(chunk.to_vec())).unwrap();
        }
        let fb_read = client_read_nanos(&fb, &factory, &keys);
        let t0 = Instant::now();
        let batch = (0..writes as u64).map(|i| ycsb.entry(i * 53 % n as u64, 9)).collect();
        fb.commit("master", WriteBatch::from_entries(batch)).unwrap();
        let fb_write = t0.elapsed().as_nanos() as u64;

        // Noms: Prolly chunking (sliding-window internal hashing), per-op
        // writes.
        let noms = single_shard_engine(PosFactory::noms());
        for chunk in data.chunks(8_000) {
            // Initial load may batch — the measured difference is the
            // update path, as in the paper's experiment.
            noms.commit("master", WriteBatch::from_entries(chunk.to_vec())).unwrap();
        }
        let noms_read = client_read_nanos(&noms, &PosFactory::noms(), &keys);
        let t0 = Instant::now();
        for i in 0..writes as u64 {
            noms.commit("master", WriteBatch::from_entries(vec![ycsb.entry(i * 53 % n as u64, 9)]))
                .unwrap();
        }
        let noms_write = t0.elapsed().as_nanos() as u64;

        t.row(vec![
            n.to_string(),
            kops(reads, fb_read),
            kops(reads, noms_read),
            kops(writes, fb_write),
            kops(writes, noms_write),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------------------
// Concurrency — multi-writer Forkbase (CAS branch heads + group commit)
// ---------------------------------------------------------------------------
fn concurrency(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let batch = 50usize;
    let commits_per_writer = (cfg.ops / batch).clamp(10, 200);
    let ycsb_batch = |t: usize, c: usize, version: u32| {
        WriteBatch::from_entries(
            (0..batch)
                .map(|i| ycsb.entry((t * 1_000_003 + c * batch + i) as u64, version))
                .collect(),
        )
    };

    // (a) Commits to disjoint branches: per-branch head slots mean zero
    // contention, so throughput should scale with writers until the
    // hardware (or the store's append path) saturates. The core count is
    // stamped into the title — on a 1-core box the correct shape is
    // *flat*, i.e. no slowdown from adding writers.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut scaling = Table::new(
        format!(
            "Concurrency (a) — disjoint-branch commit throughput \
             (POS-Tree, MemStore, {cores} core(s))"
        ),
        &["writers", "kops/s", "conflicts"],
    );
    let mut writers = 1usize;
    while writers <= cfg.threads.max(1) {
        let fb = Arc::new(Forkbase::new(PosFactory(PosParams::default())));
        for t in 0..writers {
            fb.fork("master", &format!("w{t}")).unwrap();
        }
        let dt = run_concurrent_writers(
            &fb,
            writers,
            commits_per_writer,
            |t| format!("w{t}"),
            |t, c| ycsb_batch(t, c, 1),
        );
        let ops = writers * commits_per_writer * batch;
        scaling.row(vec![
            writers.to_string(),
            kops(ops, dt.as_nanos() as u64),
            fb.engine_stats().conflicts.to_string(),
        ]);
        writers *= 2;
    }

    // (b) Contended commits to ONE branch: optimistic CAS with re-apply.
    // Disjoint keys per writer make the expected final state
    // order-independent, so model agreement is exact: every batch applied
    // exactly once ⇔ the final record count matches.
    let mut contended = Table::new(
        "Concurrency (b) — same-branch CAS commits (POS-Tree, MemStore)",
        &["writers", "commits", "conflicts", "kops/s", "model_agrees"],
    );
    let mut writers = 2usize;
    while writers <= cfg.threads.max(2) {
        let fb = Arc::new(Forkbase::new(PosFactory(PosParams::default())));
        let dt = run_concurrent_writers(
            &fb,
            writers,
            commits_per_writer,
            |_| "master".into(),
            |t, c| {
                let mut b = WriteBatch::new();
                for i in 0..batch {
                    b.put(format!("w{t:02}-c{c:04}-{i:03}").into_bytes(), vec![t as u8; 16]);
                }
                b
            },
        );
        let stats = fb.engine_stats();
        let expected = writers * commits_per_writer * batch;
        let agrees = fb.head("master").unwrap().len().unwrap() == expected;
        contended.row(vec![
            writers.to_string(),
            stats.commits.to_string(),
            stats.conflicts.to_string(),
            kops(expected, dt.as_nanos() as u64),
            agrees.to_string(),
        ]);
        writers *= 2;
    }

    // (d) Sharded branch head (ISSUE 8): the same contended single-branch
    // workload as (b), but with writers confined to disjoint key-range
    // shards of a pinned-N partition. Against the single-slot baseline of
    // PR 5 the per-shard CAS should show zero conflicts and zero retries
    // — the speedup column is sharded vs single-slot wall-clock at the
    // same writer count.
    let mut sharded = Table::new(
        "Concurrency (d) — sharded vs single-slot head, one branch, \
         disjoint key ranges (POS-Tree, MemStore)",
        &["writers", "single_kops/s", "sharded_kops/s", "speedup", "conflicts", "shard_conflicts"],
    );
    let mut writers = 2usize;
    while writers <= cfg.threads.max(2) {
        // First key byte pins writer t to shard t of the uniform
        // `writers`-way partition.
        let lead = move |t: usize, writers: usize| (t * 256 / writers + 1) as u8;
        let make = move |t: usize, c: usize, writers: usize| {
            let mut b = WriteBatch::new();
            for i in 0..batch {
                let mut key = vec![lead(t, writers)];
                key.extend_from_slice(format!("w{t:02}-c{c:04}-{i:03}").as_bytes());
                b.put(key, vec![t as u8; 16]);
            }
            b
        };
        // Single-slot baseline.
        let single = Arc::new(Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            MemStore::new_shared(),
            ShardingPolicy::single(),
            0,
        ));
        let dt_single = run_concurrent_writers(
            &single,
            writers,
            commits_per_writer,
            |_| "master".into(),
            move |t, c| make(t, c, writers),
        );
        // Pinned N-shard head.
        let fb = Arc::new(Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            MemStore::new_shared(),
            ShardingPolicy::pinned(writers),
            0,
        ));
        let dt_sharded = run_concurrent_writers(
            &fb,
            writers,
            commits_per_writer,
            |_| "master".into(),
            move |t, c| make(t, c, writers),
        );
        let expected = writers * commits_per_writer * batch;
        debug_assert_eq!(fb.head("master").unwrap().len().unwrap(), expected);
        let shard_conflicts: u64 =
            fb.shard_stats("master").unwrap().iter().map(|s| s.conflicts).sum();
        sharded.row(vec![
            writers.to_string(),
            kops(expected, dt_single.as_nanos() as u64),
            kops(expected, dt_sharded.as_nanos() as u64),
            format!("{:.2}x", dt_single.as_secs_f64() / dt_sharded.as_secs_f64().max(1e-9)),
            fb.engine_stats().conflicts.to_string(),
            shard_conflicts.to_string(),
        ]);
        writers *= 2;
    }

    // (e) Parallel bulk load: shard sub-trees built on N threads, one
    // manifest committed over the finished sub-roots.
    let mut bulk = Table::new(
        "Concurrency (e) — parallel bulk load via sharded build (POS-Tree, MemStore)",
        &["threads", "records", "kops/s", "speedup"],
    );
    let load_n = (cfg.ops * 20).clamp(5_000, 200_000);
    let data: Vec<Entry> = ycsb.dataset(load_n);
    let mut serial_nanos = 0u64;
    let mut threads = 1usize;
    while threads <= cfg.threads.max(1) {
        let fb = Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            MemStore::new_shared(),
            ShardingPolicy::single(),
            0,
        );
        let t0 = Instant::now();
        fb.bulk_load("loaded", data.clone(), threads).unwrap();
        let dt = t0.elapsed().as_nanos() as u64;
        if threads == 1 {
            serial_nanos = dt;
        }
        bulk.row(vec![
            threads.to_string(),
            load_n.to_string(),
            kops(load_n, dt),
            format!("{:.2}x", serial_nanos as f64 / dt.max(1) as f64),
        ]);
        threads *= 2;
    }

    // (c) Group commit on the durable store: one shared fsync per flush
    // tick instead of one per commit.
    let mut group = Table::new(
        "Concurrency (c) — durable commit fsync sharing (POS-Tree, FileStore)",
        &["policy", "writers", "commits", "fsyncs", "kops/s"],
    );
    let writers = cfg.threads.max(2);
    for (label, policy) in [
        ("commit", FsyncPolicy::OnCommit),
        ("group=2ms", FsyncPolicy::Group(std::time::Duration::from_millis(2))),
    ] {
        let dir = std::env::temp_dir()
            .join("siri-repro-concurrency")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FileStoreOptions { fsync: policy, ..FileStoreOptions::default() };
        let fb =
            Arc::new(Forkbase::new_durable(PosFactory(PosParams::default()), &dir, opts).unwrap());
        for t in 0..writers {
            fb.fork("master", &format!("w{t}")).unwrap();
        }
        let durable_commits = commits_per_writer.min(25);
        let dt = run_concurrent_writers(
            &fb,
            writers,
            durable_commits,
            |t| format!("w{t}"),
            |t, c| ycsb_batch(t, c, 2),
        );
        let stats = fb.server_stats();
        group.row(vec![
            label.to_string(),
            writers.to_string(),
            stats.commits.to_string(),
            stats.fsyncs.to_string(),
            kops(writers * durable_commits * batch, dt.as_nanos() as u64),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    vec![scaling, contended, sharded, bulk, group]
}

// ---------------------------------------------------------------------------
// §4.1 operation bounds — measured heights vs model
// ---------------------------------------------------------------------------
fn bounds(cfg: RunConfig) -> Vec<Table> {
    let ycsb = YcsbConfig::default();
    let icfg = IndexCfg::ycsb(cfg.node_bytes);
    let mut sizes: Vec<usize> = params::DATASET_SIZES.iter().map(|s| cfg.scaled(*s)).collect();
    sizes.dedup();
    let mut t = Table::new(
        "§4.1 bounds — measured avg traversed height (pages) vs model predictions",
        &[
            "records",
            "pos",
            "pos_model",
            "mbt",
            "mbt_model",
            "mpt",
            "mpt_model",
            "mvmb+",
            "mvmb_model",
        ],
    );
    for &n in &sizes {
        let data = ycsb.dataset(n);
        let p = cost_model::ModelParams {
            n: n as f64,
            m: (icfg.node_bytes / (32 + icfg.avg_key)) as f64,
            b: icfg.mbt_buckets as f64,
            l: 2.0 * icfg.avg_key as f64, // nibbles
        };
        let mut measured = Vec::new();
        for_each_index!(icfg, |_name, factory| {
            let (idx, _) = load_batched(&factory, &data, 8_000);
            let probes = 300;
            let mut pages = 0u64;
            for i in 0..probes {
                let (_, trace) = idx.get_traced(&ycsb.key((i * 17 % n) as u64)).unwrap();
                pages += trace.pages_loaded as u64;
            }
            measured.push(pages as f64 / probes as f64);
        });
        t.row(vec![
            n.to_string(),
            format!("{:.1}", measured[0]),
            format!("{:.1}", cost_model::pos_lookup(p)),
            format!("{:.1}", measured[1]),
            format!("{:.1}", cost_model::mbt_lookup(p)),
            format!("{:.1}", measured[2]),
            format!("{:.1}", cost_model::mpt_lookup(p) / 4.0), // compaction factor
            format!("{:.1}", measured[3]),
            format!("{:.1}", cost_model::mvmb_lookup(p)),
        ]);
    }
    vec![t]
}
