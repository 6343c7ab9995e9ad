//! `merge_with_base` on its three paths — only the right side moved
//! (fast-forward), only the left side moved, both moved — for all four
//! structures: same outcome whichever path produced it, and the one-sided
//! paths write nothing.

use std::collections::BTreeMap;

use siri::{
    merge_with_base, Bytes, Entry, IndexError, IndexFactory, MbtFactory, MemStore, MergeStrategy,
    MptFactory, MvmbFactory, MvmbParams, PosFactory, PosParams, PosTree, SiriIndex, WriteBatch,
};

type Contents = BTreeMap<Vec<u8>, Vec<u8>>;

fn key(id: u32) -> Vec<u8> {
    format!("key{id:05}").into_bytes()
}

fn base_contents() -> Contents {
    (0..2000).map(|id| (key(id), format!("base-{id}").into_bytes())).collect()
}

/// `(id range, Some(value) = put | None = delete)` edits as one batch, and
/// the same edits applied to an oracle.
fn apply(edits: &[(std::ops::Range<u32>, Option<&str>)], oracle: &mut Contents) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for (ids, value) in edits {
        for id in ids.clone() {
            match value {
                Some(v) => {
                    batch.put(key(id), v.as_bytes().to_vec());
                    oracle.insert(key(id), v.as_bytes().to_vec());
                }
                None => {
                    batch.delete(key(id));
                    oracle.remove(&key(id));
                }
            }
        }
    }
    batch
}

/// The right branch: against the base 87 keys put (60 + 15 + 5 + 5 + 2) and
/// 28 deleted (25 + 3).
const RIGHT: [(std::ops::Range<u32>, Option<&str>); 7] = [
    (100..160, Some("right")),   // overwrites
    (300..325, None),            // deletes
    (2000..2015, Some("right")), // adds
    (700..705, Some("same")),    // the left side makes the same edit
    (710..713, None),            // the left side deletes them too
    (720..725, Some("right")),   // the left side edits them differently
    (730..732, Some("right")),   // the left side deletes them
];

/// The left branch: 75 of the right side's puts and 25 of its deletes land
/// on keys it left alone; 7 keys diverge.
const LEFT: [(std::ops::Range<u32>, Option<&str>); 7] = [
    (500..540, Some("left")),
    (600..610, None),
    (2100..2105, Some("left")),
    (700..705, Some("same")),
    (710..713, None),
    (720..725, Some("left")),
    (730..732, None),
];

fn entries(contents: &Contents) -> Vec<Entry> {
    contents.iter().map(|(k, v)| Entry::new(k.clone(), v.clone())).collect()
}

struct Branches<I> {
    base: I,
    left: I,
    right: I,
    /// Left's contents with the right side's changes since the base laid
    /// over them — the `PreferRight` merge.
    merged: Contents,
}

fn branches<I: SiriIndex>(empty: I) -> Branches<I> {
    let mut base = empty;
    base.batch_insert(entries(&base_contents())).unwrap();
    let (mut left, mut right) = (base.clone(), base.clone());
    let (mut left_oracle, mut merged) = (base_contents(), base_contents());
    left.commit(apply(&LEFT, &mut left_oracle)).unwrap();
    right.commit(apply(&RIGHT, &mut base_contents())).unwrap();
    apply(&LEFT, &mut merged);
    apply(&RIGHT, &mut merged);
    Branches { base, left, right, merged }
}

fn puts<I: SiriIndex>(index: &I) -> u64 {
    index.store().stats().puts
}

/// All three paths for one structure. `invariant`: the digest is a function
/// of the contents, so a merged root can be checked against a fresh build.
fn check_paths<F: IndexFactory>(factory: F, invariant: bool) {
    let name = factory.name();
    let b = branches(factory.empty(MemStore::new_shared()));

    // Only the right side moved: its tree is the result, nothing is written.
    let before = puts(&b.base);
    let out = merge_with_base(&b.base, &b.base, &b.right, MergeStrategy::Strict).unwrap();
    assert_eq!(puts(&b.base), before, "{name}: a fast-forward writes no page");
    assert_eq!(out.merged.root(), b.right.root(), "{name}: fast-forward root");
    assert_eq!((out.added_from_right, out.removed_by_right, out.conflicts_resolved), (87, 28, 0));

    // Only the left side moved: it is the result.
    let before = puts(&b.base);
    let out = merge_with_base(&b.base, &b.left, &b.base, MergeStrategy::Strict).unwrap();
    assert_eq!(puts(&b.base), before, "{name}: nothing to import, nothing written");
    assert_eq!(out.merged.root(), b.left.root(), "{name}: left-only root");
    assert_eq!((out.added_from_right, out.removed_by_right, out.conflicts_resolved), (0, 0, 0));

    // Both moved: seven keys diverge.
    match merge_with_base(&b.base, &b.left, &b.right, MergeStrategy::Strict) {
        Err(IndexError::MergeConflict { conflicts }) => assert_eq!(conflicts.len(), 7, "{name}"),
        other => panic!("{name}: expected a conflict, got {other:?}"),
    }
    let out = merge_with_base(&b.base, &b.left, &b.right, MergeStrategy::PreferRight).unwrap();
    assert_eq!((out.added_from_right, out.removed_by_right, out.conflicts_resolved), (75, 25, 7));
    assert_eq!(out.merged.scan().unwrap(), entries(&b.merged), "{name}: merged contents");
    if invariant {
        let mut fresh = factory.empty(MemStore::new_shared());
        fresh.batch_insert(entries(&b.merged)).unwrap();
        assert_eq!(out.merged.root(), fresh.root(), "{name}: merged root = fresh build");
    }
}

#[test]
fn pos_tree_merge_paths() {
    check_paths(PosFactory(PosParams::default()), true);
}

#[test]
fn mpt_merge_paths() {
    check_paths(MptFactory, true);
}

#[test]
fn mbt_merge_paths() {
    check_paths(MbtFactory { buckets: 256, fanout: 8 }, true);
}

#[test]
fn mvmb_merge_paths() {
    check_paths(MvmbFactory(MvmbParams::default()), false);
}

/// The non-RI ablation exists to share no page between versions or
/// parties, so its merge must keep committing even when a fast-forward
/// would do.
#[test]
fn copy_all_ablation_never_fast_forwards() {
    let store = MemStore::new_shared();
    let mut base = PosTree::new_copy_all(store.clone(), PosParams::default(), 1);
    base.batch_insert(entries(&base_contents())).unwrap();
    // Another party's tree in the same store: the base's contents plus the
    // right branch's edits.
    let mut theirs = base_contents();
    apply(&RIGHT, &mut theirs);
    let mut right = PosTree::new_copy_all(store, PosParams::default(), 2);
    right.batch_insert(entries(&theirs)).unwrap();

    let out = merge_with_base(&base, &base, &right, MergeStrategy::Strict).unwrap();
    assert_eq!((out.added_from_right, out.removed_by_right), (87, 28));
    assert_eq!(out.merged.scan().unwrap(), entries(&theirs));
    assert_eq!(out.merged.page_set().intersection(&right.page_set()).len(), 0);
    assert_eq!(out.merged.page_set().intersection(&base.page_set()).len(), 0);
}

/// A fast-forward re-roots `left`, which is only sound when `left`'s store
/// holds the right side's tree. Equal contents in another store must take
/// the committing path and come out readable.
#[test]
fn right_side_in_another_store_is_copied_not_adopted() {
    let factory = PosFactory(PosParams::default());
    let b = branches(factory.empty(MemStore::new_shared()));
    let mut left = factory.empty(MemStore::new_shared());
    left.batch_insert(entries(&base_contents())).unwrap();
    assert_eq!(left.root(), b.base.root());
    let out = merge_with_base(&b.base, &left, &b.right, MergeStrategy::Strict).unwrap();
    assert_eq!(out.merged.root(), b.right.root());
    assert_eq!(out.merged.scan().unwrap(), b.right.scan().unwrap());
    assert_eq!(out.merged.get(&key(100)).unwrap(), Some(Bytes::from_static(b"right")));
}
