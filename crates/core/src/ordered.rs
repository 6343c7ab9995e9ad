//! Reading a B+-shaped Merkle tree: one descent for POS-Tree and MVMB+.
//!
//! The two ordered structures differ in how node boundaries are *chosen*
//! (content-defined chunking vs. capacity splits), not in what a stored
//! node looks like to a reader: a leaf is a sorted run of entries, an
//! internal node a sorted run of `(max key, child digest)` pairs — one
//! [`ChildRun`] codec for both. Each crate's `Node` exposes that through
//! [`OrderedNode`], and the point lookup, the height and record counts and
//! the range cursor are written once here over a [`PageReader`].
//!
//! Nothing below trusts a page beyond what its codec checked: an internal
//! node without children or a stored leaf without entries is
//! [`IndexError::CorruptStructure`], never a panic.

use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use siri_crypto::Hash;

use crate::cursor::{before_start, past_end, start_seek_key};
use crate::{search_entries, Entry, IndexError, LookupTracer, PageNode, PageReader, Result};

mod child_run;

pub(crate) use child_run::reservation;
pub use child_run::{Child, ChildRun, Children};

/// Routing entry of an internal node, owned: the maximum key in the
/// child's subtree, and the child's digest. What builders collect; a
/// decoded node holds a [`ChildRun`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChildRef {
    pub max_key: Bytes,
    pub hash: Hash,
}

/// What a reader needs to know of a decoded node.
pub trait OrderedNode {
    /// The sorted entries of a leaf; `None` for an internal node.
    fn entries(&self) -> Option<&[Entry]>;
    /// The routing entries of an internal node; empty for a leaf.
    fn children(&self) -> &ChildRun;
}

/// What a leaf answers for [`OrderedNode::children`].
pub fn no_children() -> &'static ChildRun {
    &child_run::NO_CHILDREN
}

const EMPTY_INTERNAL: IndexError = IndexError::CorruptStructure("empty internal node");
const EMPTY_LEAF: IndexError = IndexError::CorruptStructure("empty stored leaf");

/// The point-lookup descent behind `SiriIndex::lookup`.
pub fn lookup<N: PageNode + OrderedNode>(
    reader: &PageReader<N>,
    root: Hash,
    key: &[u8],
    t: &mut impl LookupTracer,
) -> Result<Option<Bytes>> {
    if root.is_zero() {
        return Ok(None);
    }
    let mut hash = root;
    loop {
        let (node, cached) = reader.fetch(&hash)?;
        t.node(cached);
        match node.entries() {
            None => {
                let children = node.children();
                let slot = children.route(key)?;
                if key > children.key(slot) {
                    // Clamped: the key lies beyond every key of the tree.
                    t.loaded();
                    return Ok(None);
                }
                hash = children.hash(slot);
            }
            Some([]) => return Err(EMPTY_LEAF),
            Some(entries) => {
                t.loaded();
                return Ok(search_entries(entries, key, t));
            }
        }
    }
}

/// Number of levels, counting root and leaf (0 for an empty tree).
pub fn height<N: PageNode + OrderedNode>(reader: &PageReader<N>, root: Hash) -> Result<u32> {
    if root.is_zero() {
        return Ok(0);
    }
    let mut levels = 1;
    let mut hash = root;
    loop {
        let node = reader.fetch(&hash)?.0;
        if node.entries().is_some() {
            return Ok(levels);
        }
        hash = node.children().get(0).ok_or(EMPTY_INTERNAL)?.hash();
        levels += 1;
    }
}

/// Number of records: walks the tree summing leaf entry counts; nothing is
/// cloned or sorted, and interior nodes come out of the cache.
pub fn count<N: PageNode + OrderedNode>(reader: &PageReader<N>, root: Hash) -> Result<usize> {
    let mut n = 0usize;
    let mut stack = if root.is_zero() { Vec::new() } else { vec![root] };
    while let Some(hash) = stack.pop() {
        let node = reader.fetch(&hash)?.0;
        match node.entries() {
            Some([]) => return Err(EMPTY_LEAF),
            Some(entries) => n += entries.len(),
            None if node.children().is_empty() => return Err(EMPTY_INTERNAL),
            None => stack.extend(node.children().iter().map(|c| c.hash())),
        }
    }
    Ok(n)
}

/// Bounded in-order cursor over one tree version — what `SiriIndex::range`
/// hands to [`crate::EntryCursor`].
///
/// Nodes are held as `Arc`s straight out of the reader's node cache, so
/// crossing a leaf boundary on a warm cache costs a shard probe, not a
/// store fetch and a decode. The cursor is lazy twice over: the first call
/// to `next` seeks to the start bound (so constructing a range never
/// fails), and a leaf is loaded by the call that needs its first entry —
/// a caller that stops after the last entry of a leaf never pays for the
/// next one. A failed page load is the item of the call that needed the
/// page; the stream ends after it.
pub struct RangeCursor<N> {
    reader: PageReader<N>,
    /// Root still to be descended from.
    root: Option<Hash>,
    /// Internal nodes from the root down, each with the slot being visited.
    stack: Vec<(Arc<N>, usize)>,
    leaf: Option<Arc<N>>,
    /// Next entry of `leaf`; equals its length once the leaf is consumed.
    idx: usize,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    done: bool,
}

impl<N: PageNode + OrderedNode> RangeCursor<N> {
    /// The cursor owns its reader (store and cache handles are `Arc`s), so
    /// it can outlive the index handle that spawned it.
    pub fn new(
        reader: PageReader<N>,
        root: Hash,
        start: Bound<Vec<u8>>,
        end: Bound<Vec<u8>>,
    ) -> Self {
        RangeCursor {
            reader,
            root: (!root.is_zero()).then_some(root),
            stack: Vec::new(),
            leaf: None,
            idx: 0,
            start,
            end,
            done: false,
        }
    }

    /// Descend from `hash` to the first entry beneath it that is ≥ the
    /// start bound's key (past the leaf's end when there is none — the
    /// rightmost spine only). Once an entry inside the start bound has been
    /// yielded the bound is `Unbounded`, so the same descent lands on the
    /// first entry of the next leaf.
    fn descend(&mut self, mut hash: Hash) -> Result<()> {
        loop {
            let node = self.reader.fetch(&hash)?.0;
            let key = start_seek_key(&self.start);
            match node.entries() {
                None => {
                    let slot = node.children().route(key)?;
                    hash = node.children().hash(slot);
                    self.stack.push((node, slot));
                }
                Some([]) => return Err(EMPTY_LEAF),
                Some(entries) => {
                    // No search for the empty key: a binary search would pull
                    // in the cold entries that iteration reads in order anyway.
                    self.idx = match key {
                        [] => 0,
                        _ => entries.partition_point(|e| e.key.as_ref() < key),
                    };
                    self.leaf = Some(node);
                    return Ok(());
                }
            }
        }
    }

    /// Move to the first entry of the next leaf; `false` at the end of the
    /// tree.
    fn next_leaf(&mut self) -> Result<bool> {
        while let Some((node, slot)) = self.stack.last_mut() {
            *slot += 1;
            if let Some(child) = node.children().get(*slot) {
                let hash = child.hash();
                self.descend(hash)?;
                return Ok(true);
            }
            self.stack.pop();
        }
        Ok(false)
    }

    /// Load the leaf the next entry is in: the seek to the start bound on
    /// the first call, the next leaf after that; `false` at the end of the
    /// tree.
    fn advance(&mut self) -> Result<bool> {
        match self.root.take() {
            Some(root) => self.descend(root).map(|()| true),
            None => self.next_leaf(),
        }
    }

    fn finish(&mut self, last: Option<IndexError>) -> Option<Result<Entry>> {
        self.done = true;
        last.map(Err)
    }
}

impl<N: PageNode + OrderedNode> Iterator for RangeCursor<N> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let at = self.leaf.as_deref().and_then(N::entries).and_then(|es| es.get(self.idx));
            let Some(entry) = at else {
                match self.advance() {
                    Ok(true) => continue,
                    Ok(false) => return self.finish(None),
                    Err(e) => return self.finish(Some(e)),
                }
            };
            // Entries arrive in key order: the first one past the end bound
            // finishes the stream, and once one is inside the start bound
            // every later one is, so stop comparing against it.
            if past_end(&self.end, &entry.key) {
                return self.finish(None);
            }
            self.idx += 1;
            if before_start(&self.start, &entry.key) {
                continue; // exclusive start: skip the seeked-to match
            }
            let entry = entry.clone();
            self.start = Bound::Unbounded;
            return Some(Ok(entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Routing among real children is tested where the run is
    // (`child_run.rs`); these are the edges the shared descent adds.
    #[test]
    fn route_takes_the_empty_key_left_and_rejects_a_childless_node() {
        let child = |key: &'static str| ChildRef {
            max_key: Bytes::from_static(key.as_bytes()),
            hash: Hash::ZERO,
        };
        assert_eq!(ChildRun::new(&[child("f"), child("m")]).route(b""), Ok(0));
        assert_eq!(no_children().route(b"a"), Err(EMPTY_INTERNAL));
    }
}
