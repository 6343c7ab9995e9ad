//! Structure-aware POS-Tree diff: a hash-guided co-descent.
//!
//! Both trees are cut at one level into *runs* — the node hashes of that
//! level in key order. Equal hash means equal subtree means equal keys, so
//! a hash on both sides cancels, and because keys rise along a run the
//! matches are monotone: one hash map over the right run and one forward
//! pass over the left find them all. Between two consecutive matches each
//! side is left with a *segment* of unmatched nodes, and the two segments
//! cover the same open key interval (it is bounded by the same two shared
//! subtrees), so they can be compared in isolation: expand both into their
//! child hashes and cancel again one level down, or — at the leaves —
//! merge-join their entries. Segments arrive in key order, so the output
//! is sorted for free.
//!
//! Only sortedness is needed for *correctness*; structural invariance is
//! what makes it cheap. Trees whose boundaries drifted apart (the
//! `ForcedSplice` ablation), share no page (`copy_all`) or differ in height
//! just match fewer hashes and fall through to the join.
//!
//! Cost: every loaded page is the root of one side, a page levelling the
//! taller side, or a page of `pages(a) △ pages(b)` — a matched hash is
//! never loaded, and an unmatched node is loaded once. For δ scattered
//! edits that is §4.1.3's O(δ·log N). Memory is the hash list of the
//! unmatched children on the descent path (32 B per page, at worst one
//! level of each tree) plus **one decoded leaf per side**: the join streams
//! and never holds a segment's leaves.

use std::cmp::Ordering;
use std::sync::Arc;

use siri_core::{DiffEntry, Entry, IndexError, Result, SiriIndex};
use siri_crypto::{FxHashMap, Hash};

use crate::node::Node;
use crate::PosTree;

pub(crate) fn diff(a: &PosTree, b: &PosTree) -> Result<Vec<DiffEntry>> {
    let mut walk = CoDescent { a, b, out: Vec::new() };
    if a.root() == b.root() {
        return Ok(walk.out);
    }
    // Level the roots: cut the taller tree at the shorter one's height (an
    // empty tree is an empty run of leaves).
    let (mut run_a, mut level_a) = root_run(a)?;
    let (mut run_b, mut level_b) = root_run(b)?;
    while level_a > level_b {
        run_a = children(a, &run_a, level_a)?;
        level_a -= 1;
    }
    while level_b > level_a {
        run_b = children(b, &run_b, level_b)?;
        level_b -= 1;
    }
    walk.runs(level_a, &run_a, &run_b)?;
    Ok(walk.out)
}

/// The one-node run a tree starts as (none for an empty tree) and its level
/// (0 = leaves).
fn root_run(tree: &PosTree) -> Result<(Vec<Hash>, u32)> {
    if tree.root().is_zero() {
        return Ok((Vec::new(), 0));
    }
    let level = tree.reader.fetch(&tree.root())?.0.level();
    Ok((vec![tree.root()], level))
}

/// The run one level below `run`: the child hashes of its nodes, in order.
fn children(tree: &PosTree, run: &[Hash], level: u32) -> Result<Vec<Hash>> {
    let mut out = Vec::new();
    for hash in run {
        match &*tree.reader.fetch(hash)?.0 {
            Node::Internal { level: l, children, .. } if *l == level => {
                out.extend(children.iter().map(|c| c.hash()));
            }
            _ => return Err(IndexError::CorruptStructure("level mismatch")),
        }
    }
    Ok(out)
}

struct CoDescent<'t> {
    a: &'t PosTree,
    b: &'t PosTree,
    out: Vec<DiffEntry>,
}

impl CoDescent<'_> {
    /// Cancel the hashes two runs of one level share and compare what is
    /// left between them, segment pair by segment pair.
    fn runs(&mut self, level: u32, run_a: &[Hash], run_b: &[Hash]) -> Result<()> {
        let in_b: FxHashMap<Hash, usize> = run_b.iter().enumerate().map(|(j, h)| (*h, j)).collect();
        let (mut from_a, mut from_b) = (0, 0);
        for (i, hash) in run_a.iter().enumerate() {
            // `j >= from_b` always holds between sorted trees (matches are
            // monotone); a page that breaks it is simply not a match.
            if let Some(&j) = in_b.get(hash).filter(|j| **j >= from_b) {
                self.segments(level, &run_a[from_a..i], &run_b[from_b..j])?;
                (from_a, from_b) = (i + 1, j + 1);
            }
        }
        self.segments(level, &run_a[from_a..], &run_b[from_b..])
    }

    /// Two unmatched segments over one key interval: descend, or at the
    /// leaves merge-join their entries.
    fn segments(&mut self, level: u32, seg_a: &[Hash], seg_b: &[Hash]) -> Result<()> {
        if seg_a.is_empty() && seg_b.is_empty() {
            return Ok(());
        }
        if level > 0 {
            let below_a = children(self.a, seg_a, level)?;
            let below_b = children(self.b, seg_b, level)?;
            return self.runs(level - 1, &below_a, &below_b);
        }
        let mut left = LeafStream::open(self.a, seg_a)?;
        let mut right = LeafStream::open(self.b, seg_b)?;
        loop {
            let (l, r) = (left.peek(), right.peek());
            let order = match (l, r) {
                (None, None) => return Ok(()),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some(l), Some(r)) => l.key.cmp(&r.key),
            };
            // The side whose key is ahead sits this round out.
            let (l, r) = (l.filter(|_| order.is_le()), r.filter(|_| order.is_ge()));
            let (lv, rv) = (l.map(|e| &e.value), r.map(|e| &e.value));
            if let (true, Some(e)) = (lv != rv, l.or(r)) {
                self.out.push(DiffEntry {
                    key: e.key.clone(),
                    left: lv.cloned(),
                    right: rv.cloned(),
                });
            }
            if order.is_le() {
                left.advance()?;
            }
            if order.is_ge() {
                right.advance()?;
            }
        }
    }
}

/// The entries of a segment of leaves, one decoded leaf at a time.
struct LeafStream<'t> {
    tree: &'t PosTree,
    rest: std::slice::Iter<'t, Hash>,
    leaf: Option<Arc<Node>>,
    idx: usize,
}

impl<'t> LeafStream<'t> {
    fn open(tree: &'t PosTree, leaves: &'t [Hash]) -> Result<Self> {
        let mut stream = LeafStream { tree, rest: leaves.iter(), leaf: None, idx: 0 };
        stream.next_leaf()?;
        Ok(stream)
    }

    fn next_leaf(&mut self) -> Result<()> {
        self.idx = 0;
        self.leaf = match self.rest.next() {
            Some(hash) => Some(self.tree.reader.fetch(hash)?.0),
            None => None,
        };
        match self.leaf.as_deref() {
            Some(Node::Internal { .. }) => Err(IndexError::CorruptStructure("level mismatch")),
            Some(Node::Leaf { entries, .. }) if entries.is_empty() => {
                Err(IndexError::CorruptStructure("empty stored leaf"))
            }
            _ => Ok(()),
        }
    }

    fn peek(&self) -> Option<&Entry> {
        match self.leaf.as_deref()? {
            Node::Leaf { entries, .. } => entries.get(self.idx),
            Node::Internal { .. } => None,
        }
    }

    fn advance(&mut self) -> Result<()> {
        self.idx += 1;
        if self.peek().is_none() {
            self.next_leaf()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use siri_core::{DiffSide, Entry, MemStore};
    use siri_store::NodeStore;

    fn tree(n: usize) -> PosTree {
        let mut t = PosTree::new(MemStore::new_shared(), crate::PosParams::default());
        t.batch_insert(
            (0..n)
                .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn identical_trees_diff_empty() {
        let a = tree(1000);
        let b = a.clone();
        assert!(diff(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn small_delta_found_and_few_pages_read() {
        let a = tree(5000);
        let mut b = a.clone();
        b.insert(b"key02500", Bytes::from_static(b"changed")).unwrap();
        b.insert(b"new-key-x", Bytes::from_static(b"added")).unwrap();

        let gets_before = a.store().stats().gets;
        let d = a.diff(&b).unwrap();
        let gets = a.store().stats().gets - gets_before;

        assert_eq!(d.len(), 2);
        assert_eq!(d[0].key.as_ref(), b"key02500");
        assert_eq!(d[0].side(), DiffSide::Changed);
        assert_eq!(d[1].side(), DiffSide::RightOnly);
        // Shared subtrees must be pruned: far fewer page reads than the
        // ~700 pages of either tree.
        assert!(gets < 200, "diff read {gets} pages");
    }

    #[test]
    fn matches_scan_reference() {
        let a = tree(800);
        let mut b = tree(0);
        // Rebuild b with overlapping-but-different content.
        b.batch_insert(
            (400..1200)
                .map(|i| {
                    Entry::new(
                        format!("key{i:05}").into_bytes(),
                        vec![(i % 251) as u8; if i < 800 { 100 } else { 60 }],
                    )
                })
                .collect(),
        )
        .unwrap();
        let structural = diff(&a, &b).unwrap();
        let reference = siri_core::diff_by_scan(&a, &b).unwrap();
        assert_eq!(structural, reference);
    }

    #[test]
    fn diff_against_empty() {
        let a = tree(100);
        let empty = PosTree::new(MemStore::new_shared(), crate::PosParams::default());
        let d = diff(&a, &empty).unwrap();
        assert_eq!(d.len(), 100);
        assert!(d.iter().all(|x| x.side() == DiffSide::LeftOnly));
        let d = diff(&empty, &a).unwrap();
        assert!(d.iter().all(|x| x.side() == DiffSide::RightOnly));
    }
}
