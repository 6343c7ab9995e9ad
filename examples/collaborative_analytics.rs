//! Collaborative data analytics — the paper's §5.4.2 scenario: several
//! teams branch the same dataset, clean/curate (including *deleting* bad
//! records via write batches) independently, and merge back. Page-level
//! deduplication keeps the storage bill near a single copy, and the
//! deduplication metrics quantify it.
//!
//! Run with: `cargo run --release --example collaborative_analytics`

use siri::workloads::YcsbConfig;
use siri::{
    metrics, Forkbase, MergeStrategy, PosFactory, PosParams, Session, SiriIndex, WriteBatch,
};

fn main() -> siri::Result<()> {
    let ycsb = YcsbConfig::default();
    let lab = Forkbase::new(PosFactory(PosParams::default()));

    // The shared source dataset. Remember the fork-point root: it is the
    // *base* for deletion-aware three-way merges later.
    lab.commit("master", WriteBatch::from_entries(ycsb.dataset(20_000)))?;
    let fork_root = lab.head("master").unwrap().root();
    println!("master: {} records, digest {fork_root}", 20_000);

    // Three teams fork and work on different slices.
    for team in ["cleaning", "enrichment", "qa"] {
        lab.fork("master", team)?;
    }
    // Cleaning team normalizes 500 records and *drops* 50 known-bad rows
    // in the same atomic batch — the branch moves one version forward.
    let mut cleaning = WriteBatch::new();
    for i in 0..500 {
        let e = ycsb.entry(i * 3, 1);
        cleaning.put(e.key, e.value);
    }
    for i in 0..50u64 {
        cleaning.delete(ycsb.key(7_000 + i));
    }
    lab.commit("cleaning", cleaning)?;
    assert_eq!(lab.get("cleaning", &ycsb.key(7_010))?, None);
    assert!(lab.get("master", &ycsb.key(7_010))?.is_some(), "master unaffected");
    // Enrichment team adds 1000 derived records.
    let derived = (0..1000).map(|i| ycsb.entry(100_000 + i, 0)).collect();
    lab.commit("enrichment", WriteBatch::from_entries(derived))?;
    // QA team flags 200 records (disjoint from cleaning's edits).
    let flagged = (0..200).map(|i| ycsb.entry(50_000 + i, 2)).collect();
    lab.commit("qa", WriteBatch::from_entries(flagged))?;
    println!("branches: {:?}", lab.branches()?);

    // How much storage do four branches cost? Almost one copy:
    let sets: Vec<siri::PageSet> = ["master", "cleaning", "enrichment", "qa"]
        .iter()
        .map(|b| lab.head(b).unwrap().page_set())
        .collect();
    let report = metrics::storage_report(&sets);
    println!(
        "4 branches: stored {:.1} MiB vs {:.1} MiB if private copies — dedup ratio {:.3}, sharing {:.3}",
        report.stored_bytes as f64 / 1048576.0,
        report.logical_bytes as f64 / 1048576.0,
        report.deduplication_ratio,
        report.node_sharing_ratio,
    );

    // Merge everything back. Enrichment and QA only *added* records, so
    // the strict policy merges them cleanly…
    for team in ["enrichment", "qa"] {
        let outcome = lab.merge_branches("master", team, MergeStrategy::Strict)?;
        println!(
            "merged {team}: +{} records, {} conflicts",
            outcome.added_from_right, outcome.conflicts_resolved
        );
    }
    // …while cleaning *edited* and *deleted* shared records. A two-way
    // merge cannot see deletions (absent-on-right is indistinguishable
    // from never-added), so merge three-way from the fork point: edits of
    // keys master left alone apply cleanly, and the 50 dropped rows
    // actually stay dropped in master.
    let outcome =
        lab.merge_branches_with_base("master", "cleaning", fork_root, MergeStrategy::Strict)?;
    println!(
        "merged cleaning (3-way): {} edit(s)/add(s), {} deletion(s) propagated, {} conflict(s)",
        outcome.added_from_right, outcome.removed_by_right, outcome.conflicts_resolved
    );
    assert_eq!(lab.get("master", &ycsb.key(7_010))?, None, "the takedown survived the merge");

    // …while overlapping edits are caught.
    lab.fork("master", "rogue")?;
    lab.commit("rogue", WriteBatch::from_entries(vec![ycsb.entry(0, 7)]))?;
    lab.commit("master", WriteBatch::from_entries(vec![ycsb.entry(0, 8)]))?;
    match lab.merge_branches("master", "rogue", MergeStrategy::Strict) {
        Err(siri::IndexError::MergeConflict { conflicts }) => {
            println!("strict merge rejected {} conflicting key(s) ✓", conflicts.len());
        }
        other => panic!("expected a conflict, got {other:?}"),
    }
    // Resolve by policy.
    let outcome = lab.merge_branches("master", "rogue", MergeStrategy::PreferRight)?;
    println!("re-merged preferring rogue: {} conflict(s) resolved", outcome.conflicts_resolved);

    // Merged and absorbed, the rogue branch can go. Deleting a branch
    // drops only its head pointer — pages are content-addressed and
    // shared, so every other branch keeps its full page set.
    lab.delete_branch("rogue")?;
    println!("after cleanup, branches: {:?}", lab.branches()?);
    assert!(lab.get("master", &ycsb.key(1))?.is_some());
    Ok(())
}
