//! Cross-index behavioural equivalence: all four structures must agree on
//! the *content* of any workload, whatever their internal shape — plus the
//! executable SIRI property checks of Definition 3.1.

use siri::workloads::YcsbConfig;
use siri::{
    siri_properties, Entry, IndexFactory, MbtFactory, MptFactory, MvmbFactory, MvmbParams,
    PosFactory, PosParams, SiriIndex,
};

fn dataset(n: usize) -> Vec<Entry> {
    YcsbConfig::default().dataset(n)
}

fn build<F: IndexFactory>(factory: &F, entries: &[Entry]) -> F::Index {
    let mut idx = factory.empty(siri::env_store());
    idx.batch_insert(entries.to_vec()).unwrap();
    idx
}

fn check_content<I: SiriIndex>(idx: &I, entries: &[Entry]) {
    let mut sorted = entries.to_vec();
    sorted.sort();
    assert_eq!(idx.scan().unwrap(), sorted, "{} scan mismatch", idx.kind());
    assert_eq!(idx.len().unwrap(), sorted.len());
    for e in sorted.iter().step_by(97) {
        assert_eq!(idx.get(&e.key).unwrap().as_ref(), Some(&e.value), "{}", idx.kind());
    }
    assert_eq!(idx.get(b"\xff\xff definitely absent").unwrap(), None);
}

#[test]
fn all_indexes_agree_on_content() {
    let entries = dataset(3_000);
    check_content(&build(&PosFactory(PosParams::default()), &entries), &entries);
    check_content(&build(&MptFactory, &entries), &entries);
    check_content(&build(&MbtFactory { buckets: 256, fanout: 8 }, &entries), &entries);
    check_content(&build(&MvmbFactory(MvmbParams::default()), &entries), &entries);
}

#[test]
#[allow(unused_assignments)] // macro writes `reference` on the first expansion only
fn all_indexes_agree_on_diffs() {
    let base = dataset(2_000);
    let ycsb = YcsbConfig::default();
    let changes: Vec<Entry> = (0..40u64).map(|i| ycsb.entry(i * 31 % 2_000, 1)).collect();

    // The diff of (base, base+changes) must be identical across structures.
    let mut reference: Option<Vec<(bytes::Bytes, bool)>> = None;
    macro_rules! check {
        ($factory:expr) => {{
            let a = build(&$factory, &base);
            let mut b = a.clone();
            b.batch_insert(changes.clone()).unwrap();
            let mut d: Vec<(bytes::Bytes, bool)> =
                a.diff(&b).unwrap().into_iter().map(|x| (x.key, x.left.is_some())).collect();
            d.sort();
            match &reference {
                None => reference = Some(d),
                Some(r) => assert_eq!(&d, r, "{} diff mismatch", $factory.name()),
            }
        }};
    }
    check!(PosFactory(PosParams::default()));
    check!(MptFactory);
    check!(MbtFactory { buckets: 256, fanout: 8 });
    check!(MvmbFactory(MvmbParams::default()));
}

#[test]
fn siri_structures_are_structurally_invariant_baseline_is_not() {
    let entries = dataset(400);

    let store = siri::env_store();
    assert!(siri_properties::check_structurally_invariant(
        || PosFactory(PosParams::default()).empty(store.clone()),
        &entries,
        4
    )
    .unwrap());

    let store = siri::env_store();
    assert!(siri_properties::check_structurally_invariant(
        || MptFactory.empty(store.clone()),
        &entries,
        4
    )
    .unwrap());

    let store = siri::env_store();
    assert!(siri_properties::check_structurally_invariant(
        || MbtFactory { buckets: 64, fanout: 4 }.empty(store.clone()),
        &entries,
        4
    )
    .unwrap());

    // The baseline is *expected* to fail: order-dependent splits.
    let store = siri::env_store();
    assert!(!siri_properties::check_structurally_invariant(
        || MvmbFactory(MvmbParams::default()).empty(store.clone()),
        &entries,
        4
    )
    .unwrap());
}

#[test]
fn recursively_identical_scores_high_for_all_tree_indexes() {
    let entries = dataset(300);
    macro_rules! score {
        ($factory:expr) => {{
            let store = siri::env_store();
            let f = $factory;
            siri_properties::recursively_identical_score(|| f.empty(store.clone()), &entries)
                .unwrap()
        }};
    }
    // Copy-on-write trees overwhelmingly reuse pages on single inserts.
    assert!(score!(PosFactory(PosParams::default())) > 0.9);
    assert!(score!(MptFactory) > 0.9);
    assert!(score!(MbtFactory { buckets: 64, fanout: 4 }) > 0.9);
    assert!(score!(MvmbFactory(MvmbParams::default())) > 0.9);
}

#[test]
fn universally_reusable_holds() {
    let entries = dataset(500);
    let extra = YcsbConfig::default().dataset(600)[500..].to_vec();
    macro_rules! check {
        ($factory:expr) => {{
            let idx = build(&$factory, &entries);
            assert!(
                siri_properties::check_universally_reusable(&idx, &extra).unwrap(),
                "{}",
                idx.kind()
            );
        }};
    }
    check!(PosFactory(PosParams::default()));
    check!(MptFactory);
    check!(MbtFactory { buckets: 64, fanout: 4 });
    check!(MvmbFactory(MvmbParams::default()));
}

#[test]
fn copy_on_write_preserves_arbitrary_version_history() {
    // Ten versions of each structure; every historical version must stay
    // exactly readable.
    let ycsb = YcsbConfig::default();
    macro_rules! check {
        ($factory:expr) => {{
            let factory = $factory;
            let mut idx = factory.empty(siri::env_store());
            let mut snapshots = Vec::new();
            for v in 0..10u32 {
                let batch: Vec<Entry> = (0..200u64).map(|i| ycsb.entry(i, v)).collect();
                idx.batch_insert(batch).unwrap();
                snapshots.push((v, idx.clone()));
            }
            for (v, snap) in &snapshots {
                let expect = ycsb.value(7, *v);
                assert_eq!(
                    snap.get(&ycsb.key(7)).unwrap().unwrap(),
                    expect,
                    "{} version {v}",
                    snap.kind()
                );
            }
        }};
    }
    check!(PosFactory(PosParams::default()));
    check!(MptFactory);
    check!(MbtFactory { buckets: 64, fanout: 4 });
    check!(MvmbFactory(MvmbParams::default()));
}

/// An exclusive start bound on every stored key in turn — so on the first
/// and the last key of every leaf or bucket too — yields exactly the keys
/// after it: the cursors drop the start bound once one entry is inside it.
#[test]
fn exclusive_start_at_every_key_including_leaf_edges() {
    use std::ops::Bound;
    let mut sorted = dataset(600);
    sorted.sort();
    fn check<I: SiriIndex>(idx: &I, sorted: &[Entry]) {
        for (i, e) in sorted.iter().enumerate() {
            let got: Vec<Entry> = idx
                .range(Bound::Excluded(&e.key), Bound::Unbounded)
                .take(3)
                .collect::<siri::Result<_>>()
                .unwrap();
            let want = &sorted[i + 1..sorted.len().min(i + 4)];
            assert_eq!(got, want, "{} after key #{i}", idx.kind());
        }
    }
    check(&build(&PosFactory(PosParams::default().with_node_bytes(256)), &sorted), &sorted);
    check(&build(&MptFactory, &sorted), &sorted);
    check(&build(&MbtFactory { buckets: 16, fanout: 4 }, &sorted), &sorted);
    check(&build(&MvmbFactory(MvmbParams::default()), &sorted), &sorted);
}
