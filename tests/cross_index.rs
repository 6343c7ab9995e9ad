//! Cross-index behavioural equivalence: all four structures must agree on
//! the *content* of any workload, whatever their internal shape — plus the
//! executable SIRI property checks of Definition 3.1. Every test that
//! builds a tree runs on both stores of `matrix::STORES`.

mod matrix;

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

use matrix::{Config, STORES};
use siri::crypto::sha256;
use siri::ordered::{ChildRun, OrderedNode};
use siri::workloads::YcsbConfig;
use siri::{
    siri_properties, Bytes, Entry, Hash, IndexError, IndexFactory, MbtFactory, MemStore,
    MptFactory, MvmbFactory, MvmbParams, NodeStore, PageNode, PagePool, PageReader, PosFactory,
    PosParams, Recorder, SharedStore, SiriIndex, StructureStats, WriteBatch,
};

fn dataset(n: usize) -> Vec<Entry> {
    YcsbConfig::default().dataset(n)
}

fn build<F: IndexFactory>(cfg: Config, factory: &F, entries: &[Entry]) -> F::Index {
    let mut idx = factory.empty(cfg.store());
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
    matrix::each(STORES, |cfg| {
        let entries = dataset(3_000);
        check_content(&build(cfg, &PosFactory(PosParams::default()), &entries), &entries);
        check_content(&build(cfg, &MptFactory, &entries), &entries);
        check_content(&build(cfg, &MbtFactory { buckets: 256, fanout: 8 }, &entries), &entries);
        check_content(&build(cfg, &MvmbFactory(MvmbParams::default()), &entries), &entries);
    });
}

#[test]
#[allow(unused_assignments)] // macro writes `reference` on the first expansion only
fn all_indexes_agree_on_diffs() {
    matrix::each(STORES, |cfg| {
        let base = dataset(2_000);
        let ycsb = YcsbConfig::default();
        let changes: Vec<Entry> = (0..40u64).map(|i| ycsb.entry(i * 31 % 2_000, 1)).collect();

        // The diff of (base, base+changes) must be identical across structures.
        let mut reference: Option<Vec<(bytes::Bytes, bool)>> = None;
        macro_rules! check {
            ($factory:expr) => {{
                let a = build(cfg, &$factory, &base);
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
    });
}

#[test]
fn siri_structures_are_structurally_invariant_baseline_is_not() {
    matrix::each(STORES, |cfg| {
        let entries = dataset(400);

        let store = cfg.store();
        assert!(siri_properties::check_structurally_invariant(
            || PosFactory(PosParams::default()).empty(store.clone()),
            &entries,
            4
        )
        .unwrap());

        let store = cfg.store();
        assert!(siri_properties::check_structurally_invariant(
            || MptFactory.empty(store.clone()),
            &entries,
            4
        )
        .unwrap());

        let store = cfg.store();
        assert!(siri_properties::check_structurally_invariant(
            || MbtFactory { buckets: 64, fanout: 4 }.empty(store.clone()),
            &entries,
            4
        )
        .unwrap());

        // The baseline is *expected* to fail: order-dependent splits.
        let store = cfg.store();
        assert!(!siri_properties::check_structurally_invariant(
            || MvmbFactory(MvmbParams::default()).empty(store.clone()),
            &entries,
            4
        )
        .unwrap());
    });
}

#[test]
fn recursively_identical_scores_high_for_all_tree_indexes() {
    matrix::each(STORES, |cfg| {
        let entries = dataset(300);
        macro_rules! score {
            ($factory:expr) => {{
                let store = cfg.store();
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
    });
}

#[test]
fn universally_reusable_holds() {
    matrix::each(STORES, |cfg| {
        let entries = dataset(500);
        let extra = YcsbConfig::default().dataset(600)[500..].to_vec();
        macro_rules! check {
            ($factory:expr) => {{
                let idx = build(cfg, &$factory, &entries);
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
    });
}

#[test]
fn copy_on_write_preserves_arbitrary_version_history() {
    // Ten versions of each structure; every historical version must stay
    // exactly readable.
    matrix::each(STORES, |cfg| {
        let ycsb = YcsbConfig::default();
        macro_rules! check {
            ($factory:expr) => {{
                let factory = $factory;
                let mut idx = factory.empty(cfg.store());
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
    });
}

/// An exclusive start bound on every stored key in turn — so on the first
/// and the last key of every leaf or bucket too — yields exactly the keys
/// after it: the cursors drop the start bound once one entry is inside it.
#[test]
fn exclusive_start_at_every_key_including_leaf_edges() {
    use std::ops::Bound;
    matrix::each(STORES, |cfg| {
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
        check(
            &build(cfg, &PosFactory(PosParams::default().with_node_bytes(256)), &sorted),
            &sorted,
        );
        check(&build(cfg, &MptFactory, &sorted), &sorted);
        check(&build(cfg, &MbtFactory { buckets: 16, fanout: 4 }, &sorted), &sorted);
        check(&build(cfg, &MvmbFactory(MvmbParams::default()), &sorted), &sorted);
    });
}

/// Readers install, writers borrow (DESIGN.md §3). Over a node cache
/// warmed by reading every key, a mixed commit leaves the cache's contents
/// and counters exactly as they were, yet reads the store less often than
/// the same commit with no cache at all; a read afterwards still installs.
#[test]
fn commits_borrow_the_node_cache_and_reads_install() {
    fn check<F: IndexFactory>(cfg: Config, factory: &F, structurally_invariant: bool) {
        let base = dataset(1_000);
        let built = build(cfg, factory, &base);
        // A fresh handle: its node cache holds exactly what the reads install.
        let idx = factory.open(built.store().clone(), built.root());
        for e in &base {
            assert!(idx.get(&e.key).unwrap().is_some());
        }
        let warm = idx.node_cache_stats();
        assert!(warm.len > 0 && warm.evictions == 0, "{}: {warm:?}", idx.kind());

        let ycsb = YcsbConfig::default();
        let mut want: BTreeMap<Bytes, Bytes> =
            base.iter().map(|e| (e.key.clone(), e.value.clone())).collect();
        let mut batch = WriteBatch::new();
        for i in 0..60u64 {
            let e = if i % 4 == 3 { ycsb.entry(1_000 + i, 0) } else { ycsb.entry(i * 13, 1) };
            batch.put(e.key.clone(), e.value.clone());
            want.insert(e.key, e.value);
        }
        for e in base.iter().skip(7).step_by(53) {
            batch.delete(e.key.clone());
            want.remove(&e.key);
        }

        let gets = |i: &F::Index| i.store().stats().gets;
        let mut head = idx.clone();
        let before = gets(&head);
        head.commit(batch.clone()).unwrap();
        let warm_gets = gets(&head) - before;
        let after = head.node_cache_stats();
        assert_eq!(
            (after.len, after.hits, after.misses, after.evictions),
            (warm.len, warm.hits, warm.misses, warm.evictions),
            "{}: the commit moved the node cache",
            head.kind()
        );

        // The same commit on a cold handle (a fresh, empty node cache) reads
        // every node it replaces.
        let mut cold = factory.open(idx.store().clone(), idx.root());
        let before = gets(&cold);
        cold.commit(batch).unwrap();
        let cold_gets = gets(&cold) - before;
        assert_eq!(cold.root(), head.root(), "{}: the cache changed the digest", head.kind());
        assert!(warm_gets < cold_gets, "{}: {warm_gets} vs {cold_gets} gets", head.kind());

        let (key, value) = want.iter().find(|(k, _)| !base.iter().any(|e| e.key == **k)).unwrap();
        assert_eq!(head.get(key).unwrap().as_ref(), Some(value));
        let read = head.node_cache_stats();
        assert!(
            read.misses > after.misses && read.len > after.len,
            "{}: a read installs",
            head.kind()
        );

        let want: Vec<Entry> = want.into_iter().map(|(k, v)| Entry::new(k, v)).collect();
        assert_eq!(head.scan().unwrap(), want, "{}", head.kind());
        if structurally_invariant {
            assert_eq!(head.root(), build(cfg, factory, &want).root(), "{}", head.kind());
        }
    }
    matrix::each(STORES, |cfg| {
        check(cfg, &pos(), true);
        check(cfg, &MptFactory, true);
        check(cfg, &MbtFactory { buckets: 64, fanout: 4 }, true);
        check(cfg, &mvmb(), false);
    });
}

// ---- POS-Tree and MVMB+ are read by one descent (`siri::ordered`) ----------
//
// Each check is written once over `SiriIndex` and the two-method node view
// and run for both trees.

type PosNode = siri::pos_tree::Node;
type MvmbNode = siri_mvmb::Node;

fn pos() -> PosFactory {
    PosFactory(PosParams::default())
}

fn mvmb() -> MvmbFactory {
    MvmbFactory(MvmbParams::default())
}

fn sorted_dataset() -> Vec<Entry> {
    let mut sorted = dataset(600);
    sorted.sort();
    sorted
}

/// The leaves of the tree at `root`, left to right: digest and entries.
fn leaves<N: PageNode + OrderedNode>(store: &SharedStore, root: Hash) -> Vec<(Hash, Vec<Entry>)> {
    let reader = PageReader::<N>::new(store.clone(), 0);
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(hash) = stack.pop() {
        let node = reader.load(&hash).unwrap();
        match node.entries() {
            Some(entries) => out.push((hash, entries.to_vec())),
            None => stack.extend(node.children().iter().rev().map(|c| c.hash())),
        }
    }
    out
}

/// A fault in the middle of a scan: every entry before the missing leaf
/// arrives, then the error, once, then the end of the stream.
#[test]
fn cursor_delivers_a_missing_leaf_as_one_error_after_the_entries_before_it() {
    fn check<F: IndexFactory, N: PageNode + OrderedNode>(cfg: Config, factory: &F) {
        let sorted = sorted_dataset();
        let idx = build(cfg, factory, &sorted);
        let leaves = leaves::<N>(idx.store(), idx.root());
        let (missing, _) = leaves[leaves.len() / 2];
        let holey = MemStore::new_shared();
        for (hash, _) in idx.page_set().iter().filter(|(hash, _)| **hash != missing) {
            holey.put(idx.store().get(hash).unwrap());
        }
        let before: usize = leaves[..leaves.len() / 2].iter().map(|(_, es)| es.len()).sum();
        assert!(before > 0 && before < sorted.len());

        let mut cursor = factory.open(holey, idx.root()).range(Unbounded, Unbounded);
        for want in &sorted[..before] {
            assert_eq!(cursor.next(), Some(Ok(want.clone())), "{}", idx.kind());
        }
        assert_eq!(cursor.next(), Some(Err(IndexError::MissingPage(missing))));
        assert_eq!(cursor.next(), None);
    }
    matrix::each(STORES, |cfg| {
        check::<_, PosNode>(cfg, &pos());
        check::<_, MvmbNode>(cfg, &mvmb());
    });
}

/// The cursor loads a leaf when it needs its first entry: a reader that
/// stops on the last entry of a leaf never fetches the next one.
#[test]
fn take_ending_on_a_leaf_edge_does_not_load_the_next_leaf() {
    fn check<F: IndexFactory, N: PageNode + OrderedNode>(cfg: Config, factory: &F) {
        let sorted = sorted_dataset();
        let idx = build(cfg, factory, &sorted);
        let leaves = leaves::<N>(idx.store(), idx.root());
        let k: usize = leaves[..3].iter().map(|(_, es)| es.len()).sum();

        // A recording handle keeps every page it reads, cached or not.
        let rec = Recorder::new();
        let got: Vec<Entry> = idx
            .recording(&rec)
            .unwrap()
            .range(Unbounded, Unbounded)
            .take(k)
            .collect::<siri::Result<_>>()
            .unwrap();
        assert_eq!(got, sorted[..k]);
        let fetched: Vec<Hash> = rec.proof().pages().iter().map(|p| sha256(p)).collect();
        assert!(fetched.contains(&leaves[2].0));
        assert!(!fetched.contains(&leaves[3].0), "{}: loaded a leaf nobody read", idx.kind());
    }
    matrix::each(STORES, |cfg| {
        check::<_, PosNode>(cfg, &pos());
        check::<_, MvmbNode>(cfg, &mvmb());
    });
}

/// A stored leaf without entries decodes, but the descent relies on leaves
/// having a first entry; an internal node without children does not even
/// decode. Either is an error on every read, never a panic.
#[test]
fn childless_internal_and_empty_leaf_roots_are_errors() {
    fn check<F: IndexFactory>(factory: &F, childless: Bytes, empty_leaf: Bytes) {
        let empty = IndexError::CorruptStructure("empty stored leaf");
        for (page, want) in [(childless, None), (empty_leaf, Some(empty))] {
            let pool = PagePool::build(std::slice::from_ref(&page)).unwrap();
            let idx = factory.open(pool, sha256(&page));
            let errors = [
                idx.get(b"k").unwrap_err(),
                idx.len().unwrap_err(),
                idx.range(Unbounded, Unbounded).next().unwrap().unwrap_err(),
            ];
            for err in errors {
                assert!(want.as_ref().is_none_or(|w| *w == err), "{}: {err}", idx.kind());
            }
            assert_eq!(idx.range(Unbounded, Unbounded).count(), 1, "the error ends the stream");
        }
    }
    let childless = PosNode::Internal { salt: 0, level: 1, children: ChildRun::new(&[]) };
    let empty_leaf = PosNode::Leaf { salt: 0, entries: Vec::new(), page: Bytes::new() };
    check(&pos(), childless.encode(), empty_leaf.encode());
    let childless = MvmbNode::Internal(ChildRun::new(&[]));
    check(&mvmb(), childless.encode(), MvmbNode::encode_leaf(&[]));
}

/// A window read through a cold node cache costs a descent plus the leaves under
/// the window — at most `2 × height + 100` store gets for 100 entries,
/// however few entries a leaf holds — not a walk of the tree (≈ 4× that
/// here).
#[test]
fn cold_window_reads_a_descent_plus_its_leaves() {
    const WINDOW: usize = 100;
    fn check<F: IndexFactory>(cfg: Config, factory: &F) {
        let mut sorted = dataset(2_000);
        sorted.sort();
        let idx = build(cfg, factory, &sorted);
        let height = idx.structure_stats().unwrap().height as usize;
        let window = (&sorted[1_000].key[..], &sorted[1_000 + WINDOW].key[..]);
        let before = idx.store().stats().gets;
        let streamed = factory
            .open(idx.store().clone(), idx.root())
            .range(Included(window.0), Excluded(window.1))
            .map(Result::unwrap)
            .count();
        let gets = (idx.store().stats().gets - before) as usize;
        assert_eq!(streamed, WINDOW, "{}", idx.kind());
        assert!(gets <= 2 * height + WINDOW, "{}: the window read {gets} pages", idx.kind());
    }
    matrix::each(STORES, |cfg| {
        check(cfg, &pos());
        check(cfg, &mvmb());
    });
}

#[test]
fn ordered_cursor_iterates_all_entries_in_order() {
    fn check<F: IndexFactory>(cfg: Config, factory: &F) {
        let sorted = sorted_dataset();
        let idx = build(cfg, factory, &sorted);
        let mut cursor = idx.range(Unbounded, Unbounded);
        let seen: Vec<Entry> = cursor.by_ref().map(Result::unwrap).collect();
        assert_eq!(seen, sorted, "{}", idx.kind());
        assert_eq!(cursor.next(), None, "a finished cursor stays finished");
    }
    matrix::each(STORES, |cfg| {
        check(cfg, &pos());
        check(cfg, &mvmb());
    });
}

#[test]
fn ordered_cursor_warm_second_scan_is_all_cache_hits() {
    fn check<F: IndexFactory>(cfg: Config, factory: &F) {
        let sorted = sorted_dataset();
        let built = build(cfg, factory, &sorted);
        // A fresh handle: its node cache has seen nothing yet.
        let idx = factory.open(built.store().clone(), built.root());
        assert_eq!(idx.scan().unwrap(), sorted, "{} cold scan", idx.kind());
        let cold = idx.node_cache_stats();
        assert!(cold.misses > 0 && cold.hits == 0);
        assert_eq!(idx.scan().unwrap(), sorted, "{} warm scan", idx.kind());
        let warm = idx.node_cache_stats();
        assert_eq!(warm.misses, cold.misses, "second scan must be all cache hits");
        assert_eq!(warm.hits, cold.misses);
    }
    matrix::each(STORES, |cfg| {
        check(cfg, &pos());
        check(cfg, &mvmb());
    });
}

#[test]
fn ordered_cursor_over_an_empty_tree() {
    fn check<F: IndexFactory>(cfg: Config, factory: &F) {
        let idx = factory.empty(cfg.store());
        assert_eq!(idx.range(Unbounded, Unbounded).next(), None);
        assert_eq!(idx.len().unwrap(), 0);
    }
    matrix::each(STORES, |cfg| {
        check(cfg, &pos());
        check(cfg, &mvmb());
    });
}
