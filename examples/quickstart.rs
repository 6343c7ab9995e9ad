//! Quickstart: versioned, tamper-evident key-value indexing in a few
//! lines — write batches in, streaming cursors out.
//!
//! Run with: `cargo run --release --example quickstart`

use std::ops::Bound;

use siri::{Bytes, MemStore, MergeStrategy, NodeStore, PosParams, PosTree, SiriIndex, WriteBatch};

fn main() -> siri::Result<()> {
    // One shared content-addressed store; every index version lives in it.
    let store = MemStore::new_shared();
    let mut accounts = PosTree::new(store, PosParams::default());

    // All writes are batches of puts and deletes, applied atomically in
    // one copy-on-write pass. Each commit creates a new immutable version.
    let mut genesis = WriteBatch::new();
    genesis
        .put(&b"alice"[..], &b"100"[..])
        .put(&b"bob"[..], &b"250"[..])
        .put(&b"carol"[..], &b"75"[..]);
    accounts.commit(genesis)?;
    println!("v1 digest: {}", accounts.root());

    // Snapshots are free: clone the handle. A mixed batch then closes
    // carol's account and reprices alice in a single version step.
    let v1 = accounts.clone();
    let mut day_two = WriteBatch::new();
    day_two.put(&b"alice"[..], &b"42"[..]).delete(&b"carol"[..]);
    accounts.commit(day_two)?;
    println!("v2 digest: {}", accounts.root());

    // Old versions stay fully readable — including the deleted record.
    assert_eq!(v1.get(b"alice")?.unwrap().as_ref(), b"100");
    assert_eq!(v1.get(b"carol")?.unwrap().as_ref(), b"75");
    assert_eq!(accounts.get(b"alice")?.unwrap().as_ref(), b"42");
    assert_eq!(accounts.get(b"carol")?, None);

    // Reads stream through a lazy cursor: scans, prefix scans and bounded
    // ranges never materialize the dataset.
    print!("v2 accounts in [a, c): ");
    for entry in accounts.range(Bound::Included(b"a"), Bound::Excluded(b"c")) {
        let entry = entry?;
        print!(
            "{}={} ",
            String::from_utf8_lossy(&entry.key),
            String::from_utf8_lossy(&entry.value)
        );
    }
    println!();

    // Diff two versions structurally — only changed subtrees are visited.
    let changes = v1.diff(&accounts)?;
    println!("v1 → v2 changed {} record(s):", changes.len());
    for d in &changes {
        println!(
            "  {}: {:?} → {:?}",
            String::from_utf8_lossy(&d.key),
            d.left.as_deref().map(String::from_utf8_lossy),
            d.right.as_deref().map(String::from_utf8_lossy),
        );
    }

    // Merge a divergent branch. Both sides touched `alice` (main set it to
    // 42, the branch still carries 100), so the strict policy aborts —
    // "the process must be interrupted and a selection strategy must be
    // given by the end user" (§4.1.4). Resolve by preferring main.
    let mut branch = v1.clone();
    branch.insert(b"dave", Bytes::from_static(b"500"))?;
    assert!(siri::merge(&accounts, &branch, MergeStrategy::Strict).is_err());
    let outcome = siri::merge(&accounts, &branch, MergeStrategy::PreferLeft)?;
    println!(
        "merged branch: +{} record(s), {} conflict(s) resolved, digest {}",
        outcome.added_from_right,
        outcome.conflicts_resolved,
        outcome.merged.root()
    );

    // Tamper evidence: prove membership against the digest alone.
    let proof = accounts.prove(b"bob")?;
    let verdict = PosTree::verify_proof(accounts.root(), b"bob", &proof);
    println!("proof for bob ({} pages): {:?}", proof.len(), verdict.value().is_some());

    // A tampered proof is rejected.
    let mut bad = proof.clone();
    bad.tamper(0, 12);
    assert!(!PosTree::verify_proof(accounts.root(), b"bob", &bad).is_valid());
    println!("tampered proof rejected ✓");

    // ── Persistence ─────────────────────────────────────────────────────
    // The same index runs unchanged on the durable backend: a segmented,
    // compacting, fsync-on-commit FileStore. Only the store handle differs.
    let dir = std::env::temp_dir().join("siri-quickstart-db");
    let _ = std::fs::remove_dir_all(&dir);
    let durable_root = {
        let (fs, _) = siri::FileStore::open(&dir).expect("open store directory");
        let fs = std::sync::Arc::new(fs);
        let mut ledger = PosTree::new(fs.clone() as siri::SharedStore, PosParams::default());
        let mut batch = WriteBatch::new();
        batch.put(&b"alice"[..], &b"42"[..]).put(&b"bob"[..], &b"250"[..]);
        let root = ledger.commit(batch)?;
        fs.note_commit().expect("fsync"); // durable before acknowledged
        root
    }; // handle dropped — "the process exits"

    let (fs, recovered) = siri::FileStore::open(&dir).expect("reopen store directory");
    let reopened = PosTree::open(
        std::sync::Arc::new(fs) as siri::SharedStore,
        PosParams::default(),
        durable_root,
    );
    println!(
        "reopened from disk: {} page(s) recovered, alice={}",
        recovered,
        String::from_utf8_lossy(&reopened.get(b"alice")?.unwrap())
    );
    assert_eq!(reopened.root(), durable_root, "same digest on disk as in memory");
    Ok(())
}
