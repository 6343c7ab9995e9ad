//! In-order cursor over a POS-Tree — the engine behind scans and bounded
//! range reads.

use std::ops::Bound;
use std::sync::Arc;

use siri_core::{before_start, past_end, Entry, IndexError, Result};
use siri_crypto::Hash;
use siri_store::{NodeCache, SharedStore};

use crate::node::{Node, Piece};

struct Frame {
    /// Always an `Internal` node.
    node: Arc<Node>,
    idx: usize,
}

impl Frame {
    fn children(&self) -> &[Piece] {
        match &*self.node {
            Node::Internal { children, .. } => children,
            Node::Leaf { .. } => unreachable!("frames hold internal nodes only"),
        }
    }
}

/// Iterates entries in key order.
///
/// Nodes are held as `Arc`s straight out of the tree's decoded-node cache
/// (when one is supplied): advancing across a leaf boundary on a warm
/// cache costs a shard probe, not a store fetch + decode.
pub struct Cursor {
    store: SharedStore,
    cache: Option<Arc<NodeCache<Node>>>,
    /// Internal-node frames from the root down; empty when the root is a
    /// leaf.
    stack: Vec<Frame>,
    /// The current leaf node; `None` before the first descent / when done.
    leaf: Option<Arc<Node>>,
    leaf_idx: usize,
    done: bool,
}

impl Cursor {
    pub fn new(store: SharedStore, root: Hash) -> Result<Self> {
        Self::with_cache(store, None, root)
    }

    /// A cursor whose node loads go through `cache`. The cursor owns its
    /// store and cache handles (both are `Arc`s), so it is `'static` and
    /// can outlive the index handle that spawned it.
    pub fn with_cache(
        store: SharedStore,
        cache: Option<Arc<NodeCache<Node>>>,
        root: Hash,
    ) -> Result<Self> {
        let mut c = Cursor {
            store,
            cache,
            stack: Vec::new(),
            leaf: None,
            leaf_idx: 0,
            done: root.is_zero(),
        };
        if !c.done {
            c.descend_to_first_leaf(root)?;
        }
        Ok(c)
    }

    fn fetch(&self, hash: &Hash) -> Result<Arc<Node>> {
        let load = || {
            let page = self.store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
            Node::decode_zc(&page)
        };
        match &self.cache {
            Some(cache) => cache.get_or_load(hash, load).map(|(node, _)| node),
            None => load().map(Arc::new),
        }
    }

    fn leaf_entries(&self) -> &[Entry] {
        match self.leaf.as_deref() {
            Some(Node::Leaf { entries, .. }) => entries,
            _ => &[],
        }
    }

    fn descend_to_first_leaf(&mut self, mut hash: Hash) -> Result<()> {
        loop {
            let node = self.fetch(&hash)?;
            match &*node {
                Node::Leaf { entries, .. } => {
                    if entries.is_empty() {
                        return Err(IndexError::CorruptStructure("empty stored leaf"));
                    }
                    self.leaf = Some(node);
                    self.leaf_idx = 0;
                    return Ok(());
                }
                Node::Internal { children, .. } => {
                    hash = children[0].hash;
                    self.stack.push(Frame { node: node.clone(), idx: 0 });
                }
            }
        }
    }

    /// The entry at the current position.
    pub fn peek(&self) -> Option<&Entry> {
        if self.done {
            None
        } else {
            self.leaf_entries().get(self.leaf_idx)
        }
    }

    /// Move to the next entry.
    pub fn advance(&mut self) -> Result<()> {
        if self.done {
            return Ok(());
        }
        self.leaf_idx += 1;
        if self.leaf_idx >= self.leaf_entries().len() {
            self.move_to_next_leaf()?;
        }
        Ok(())
    }

    fn move_to_next_leaf(&mut self) -> Result<()> {
        loop {
            let Some(frame) = self.stack.last_mut() else {
                self.done = true;
                return Ok(());
            };
            frame.idx += 1;
            if frame.idx < frame.children().len() {
                let hash = frame.children()[frame.idx].hash;
                return self.descend_to_first_leaf(hash);
            }
            self.stack.pop();
        }
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Position the cursor at the first entry with key ≥ `key`
    /// (or exhaust it if no such entry exists). O(log N).
    pub fn seek(store: SharedStore, root: Hash, key: &[u8]) -> Result<Self> {
        Self::seek_with_cache(store, None, root, key)
    }

    /// [`Cursor::seek`] with node loads through `cache`.
    pub fn seek_with_cache(
        store: SharedStore,
        cache: Option<Arc<NodeCache<Node>>>,
        root: Hash,
        key: &[u8],
    ) -> Result<Self> {
        let mut c = Cursor {
            store,
            cache,
            stack: Vec::new(),
            leaf: None,
            leaf_idx: 0,
            done: root.is_zero(),
        };
        if c.done {
            return Ok(c);
        }
        let mut hash = root;
        loop {
            let node = c.fetch(&hash)?;
            match &*node {
                Node::Leaf { entries, .. } => {
                    if entries.is_empty() {
                        return Err(IndexError::CorruptStructure("empty stored leaf"));
                    }
                    let idx = entries.partition_point(|e| e.key.as_ref() < key);
                    c.leaf = Some(node.clone());
                    c.leaf_idx = idx;
                    if c.leaf_idx >= c.leaf_entries().len() {
                        // Key is beyond this leaf (can only happen on the
                        // rightmost spine): move on.
                        c.move_to_next_leaf()?;
                    }
                    return Ok(c);
                }
                Node::Internal { children, .. } => {
                    // First child whose max_key ≥ key; clamp to the right
                    // so seeks past the maximum land at stream end.
                    let slot = children.partition_point(|p| p.max_key.as_ref() < key);
                    let slot = slot.min(children.len() - 1);
                    hash = children[slot].hash;
                    c.stack.push(Frame { node: node.clone(), idx: slot });
                }
            }
        }
    }
}

/// Bound-checking iterator adapter over a seeked [`Cursor`] — what
/// [`crate::PosTree`]'s `range` hands to [`siri_core::EntryCursor`]. The
/// cursor arrives positioned at the first key ≥ the start bound; this
/// wrapper skips an exclusive-start match and stops at the end bound
/// (entries stream in key order, so the first out-of-window key finishes
/// the iteration).
pub(crate) struct RangeIter {
    pub(crate) cursor: Cursor,
    pub(crate) start: Bound<Vec<u8>>,
    pub(crate) end: Bound<Vec<u8>>,
    /// Error hit while advancing *past* an entry that was already read and
    /// in bounds; delivered on the call after that entry, so a failing
    /// next-leaf fetch never swallows the last readable entry.
    pub(crate) pending_err: Option<siri_core::IndexError>,
    pub(crate) done: bool,
}

impl Iterator for RangeIter {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(e) = self.pending_err.take() {
            self.done = true;
            return Some(Err(e));
        }
        loop {
            let Some(entry) = self.cursor.peek().cloned() else {
                self.done = true;
                return None;
            };
            if past_end(&self.end, &entry.key) {
                self.done = true;
                return None;
            }
            let skipped = before_start(&self.start, &entry.key);
            if !skipped {
                // Entries arrive in key order: once one is inside the start
                // bound every later one is, so stop comparing against it.
                self.start = Bound::Unbounded;
            }
            if let Err(e) = self.cursor.advance() {
                if skipped {
                    self.done = true;
                    return Some(Err(e));
                }
                self.pending_err = Some(e);
                return Some(Ok(entry));
            }
            if skipped {
                continue; // exclusive start: skip the seeked-to match
            }
            return Some(Ok(entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::build_from_entries;
    use crate::PosParams;
    use siri_core::MemStore;

    fn entries(n: usize) -> Vec<Entry> {
        (0..n)
            .map(|i| Entry::new(format!("key{i:05}").into_bytes(), vec![(i % 251) as u8; 100]))
            .collect()
    }

    #[test]
    fn iterates_all_entries_in_order() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let mut c = Cursor::new(store.clone(), root.hash).unwrap();
        let mut seen = Vec::new();
        while let Some(e) = c.peek() {
            seen.push(e.clone());
            c.advance().unwrap();
        }
        assert_eq!(seen, es);
        assert!(c.is_done());
    }

    #[test]
    fn cached_cursor_agrees_and_hits() {
        let store = MemStore::new_shared();
        let es = entries(2500);
        let root = build_from_entries(&store, &PosParams::default(), 0, &es).unwrap().unwrap();
        let cache = NodeCache::new_shared(4096);
        let collect = |cache: Option<Arc<NodeCache<Node>>>| {
            let mut c = Cursor::with_cache(store.clone(), cache, root.hash).unwrap();
            let mut seen = Vec::new();
            while let Some(e) = c.peek() {
                seen.push(e.clone());
                c.advance().unwrap();
            }
            seen
        };
        assert_eq!(collect(Some(cache.clone())), es, "cold cached scan");
        let misses_after_first = cache.stats().misses;
        assert_eq!(collect(Some(cache.clone())), es, "warm cached scan");
        assert_eq!(cache.stats().misses, misses_after_first, "second scan must be all cache hits");
        assert_eq!(collect(None), es, "uncached scan agrees");
    }

    #[test]
    fn empty_tree_cursor() {
        let store = MemStore::new_shared();
        let c = Cursor::new(store, Hash::ZERO).unwrap();
        assert!(c.peek().is_none());
        assert!(c.is_done());
    }
}
