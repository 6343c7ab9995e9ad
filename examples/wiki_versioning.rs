//! Wikipedia-style document versioning — the paper's §5.1.2 scenario: a
//! corpus of page abstracts evolving over many versions, with history
//! tracking, rollback, page *takedowns* (write-batch deletes), and storage
//! that grows with the *delta*, not the corpus.
//!
//! Versions are the engine's: each commit's receipt names the new head
//! root, the list of those roots is the history, and rolling back opens a
//! branch at an older root.
//!
//! Run with: `cargo run --release --example wiki_versioning`

use siri::workloads::wiki::WikiConfig;
use siri::{Forkbase, MemStore, PosFactory, PosParams, PosTree, Session, SiriIndex, WriteBatch};

fn main() -> siri::Result<()> {
    let wiki = WikiConfig { pages: 20_000, update_pct: 1, new_pages_per_version: 25, seed: 3 };
    let store = MemStore::new_shared();
    let engine = Forkbase::with_store(PosFactory(PosParams::default()), store.clone());

    // Oldest first: the head root every commit on "master" published.
    let mut history = Vec::new();
    history.push(engine.commit("master", WriteBatch::from_entries(wiki.initial_dump()))?.root);
    let baseline_bytes = store.stats().unique_bytes;

    // Sixty days of edits.
    for day in 1..=60u32 {
        let edits = WriteBatch::from_entries(wiki.version_delta(day));
        history.push(engine.commit("master", edits)?.root);
    }
    let stats = store.stats();
    println!(
        "61 versions of a {}-page corpus: {:.1} MiB stored ({:.1} MiB baseline, {:.2}x)",
        wiki.pages,
        stats.unique_bytes as f64 / 1048576.0,
        baseline_bytes as f64 / 1048576.0,
        stats.unique_bytes as f64 / baseline_bytes as f64,
    );
    println!("full history: {} commits on 'master'", history.len());

    // Compare today's corpus against two weeks ago.
    engine.open_branch("two-weeks-ago", history[history.len() - 15]);
    let drift = engine.head("master").unwrap().diff(&engine.head("two-weeks-ago").unwrap())?;
    engine.delete_branch("two-weeks-ago")?;
    assert!(!drift.is_empty(), "two weeks of edits must show");
    println!("pages changed vs 14 versions ago: {}", drift.len());

    // A takedown request removes three pages — one atomic write batch,
    // one new version, history untouched.
    let mut takedown = WriteBatch::new();
    for page in [100u64, 101, 102] {
        takedown.delete(wiki.url(page));
    }
    history.push(engine.commit("master", takedown)?.root);
    assert_eq!(engine.get("master", &wiki.url(101))?, None);
    println!(
        "after takedown: {} pages (previous versions still serve them)",
        engine.head("master").unwrap().len()?
    );

    // Browse one URL neighborhood through the streaming prefix cursor —
    // no corpus-sized allocation.
    let prefix = wiki.url(200);
    let prefix = &prefix[..prefix.len().saturating_sub(2)];
    let nearby = engine.scan_prefix("master", prefix)?.count();
    println!("pages sharing the URL prefix {:?}: {nearby}", String::from_utf8_lossy(prefix));

    // An editor branches an old version to restore vandalized content.
    engine.open_branch("restore", history[history.len() - 11]);
    let restored = engine.head("restore").unwrap();
    assert!(engine.get("restore", &wiki.url(101))?.is_some(), "rollback predates the takedown");
    println!(
        "branch 'restore' rolled back 10 versions → digest {} ({} pages)",
        engine.branch_digest("restore")?,
        restored.len()?
    );

    // Immutability means the rollback is non-destructive.
    assert_eq!(engine.branch_digest("master")?, *history.last().unwrap());

    // Proof that a specific revision of a page is in a specific version.
    let url = wiki.url(123);
    let proof = restored.prove(&url)?;
    let verdict = PosTree::verify_proof(restored.root(), &url, &proof);
    assert!(verdict.is_valid());
    println!(
        "membership proof for page 123 in the restored version: {} pages, ok={}",
        proof.len(),
        verdict.is_valid()
    );
    Ok(())
}
