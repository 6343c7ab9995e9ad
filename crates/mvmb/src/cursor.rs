//! Streaming in-order range cursor over the MVMB+-Tree — leaf-by-leaf
//! B+-tree iteration with an O(log N) seek, mirroring the POS-Tree cursor
//! so the baseline pays the same per-entry costs in range benchmarks.

use std::ops::Bound;
use std::sync::Arc;

use siri_core::{before_start, past_end, Entry, IndexError, Result};
use siri_crypto::Hash;
use siri_store::{NodeCache, SharedStore};

use crate::node::Node;

struct Frame {
    /// Always an `Internal` node.
    node: Arc<Node>,
    idx: usize,
}

impl Frame {
    fn children(&self) -> &[crate::ChildRef] {
        match &*self.node {
            Node::Internal(children) => children,
            Node::Leaf(_) => unreachable!("frames hold internal nodes only"),
        }
    }
}

/// Bounded in-order cursor over one tree version. Owns `Arc` handles to
/// the store and the decoded-node cache, so it is `'static`.
pub struct RangeCursor {
    store: SharedStore,
    cache: Arc<NodeCache<Node>>,
    stack: Vec<Frame>,
    leaf: Option<Arc<Node>>,
    leaf_idx: usize,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    done: bool,
    /// Root still to be descended (deferred so constructor errors surface
    /// as stream items).
    pending_root: Option<Hash>,
    /// Error hit advancing past an already-read, in-bounds entry; yielded
    /// on the following call so the entry itself is not swallowed.
    pending_err: Option<IndexError>,
}

impl RangeCursor {
    pub fn new(
        store: SharedStore,
        cache: Arc<NodeCache<Node>>,
        root: Hash,
        start: Bound<Vec<u8>>,
        end: Bound<Vec<u8>>,
    ) -> Self {
        RangeCursor {
            store,
            cache,
            stack: Vec::new(),
            leaf: None,
            leaf_idx: 0,
            start,
            end,
            done: root.is_zero(),
            pending_root: (!root.is_zero()).then_some(root),
            pending_err: None,
        }
    }

    fn fetch(&self, hash: &Hash) -> Result<Arc<Node>> {
        self.cache
            .get_or_load(hash, || {
                let page = self.store.try_get(hash)?.ok_or(IndexError::MissingPage(*hash))?;
                Node::decode_zc(&page)
            })
            .map(|(node, _)| node)
    }

    fn leaf_entries(&self) -> &[Entry] {
        match self.leaf.as_deref() {
            Some(Node::Leaf(entries)) => entries,
            _ => &[],
        }
    }

    /// Descend to the first leaf that can hold a key ≥ the start bound,
    /// positioning `leaf_idx` by binary search.
    fn seek(&mut self, root: Hash) -> Result<()> {
        let key = siri_core::start_seek_key(&self.start).to_vec();
        let mut hash = root;
        loop {
            let node = self.fetch(&hash)?;
            match &*node {
                Node::Internal(children) => {
                    if children.is_empty() {
                        return Err(IndexError::CorruptStructure("empty internal node"));
                    }
                    // First child whose max_key ≥ key, clamped right so
                    // seeks past the maximum land at stream end.
                    let slot = children.partition_point(|c| c.max_key.as_ref() < key.as_slice());
                    let slot = slot.min(children.len() - 1);
                    let next = children[slot].child;
                    self.stack.push(Frame { node: node.clone(), idx: slot });
                    hash = next;
                }
                Node::Leaf(entries) => {
                    if entries.is_empty() {
                        return Err(IndexError::CorruptStructure("empty stored leaf"));
                    }
                    self.leaf_idx = entries.partition_point(|e| e.key.as_ref() < key.as_slice());
                    self.leaf = Some(node);
                    if self.leaf_idx >= self.leaf_entries().len() {
                        self.next_leaf()?;
                    }
                    return Ok(());
                }
            }
        }
    }

    fn next_leaf(&mut self) -> Result<()> {
        loop {
            let Some(frame) = self.stack.last_mut() else {
                self.done = true;
                return Ok(());
            };
            frame.idx += 1;
            if frame.idx < frame.children().len() {
                let mut hash = frame.children()[frame.idx].child;
                loop {
                    let node = self.fetch(&hash)?;
                    match &*node {
                        Node::Internal(children) => {
                            hash = children
                                .first()
                                .ok_or(IndexError::CorruptStructure("empty internal node"))?
                                .child;
                            self.stack.push(Frame { node: node.clone(), idx: 0 });
                        }
                        Node::Leaf(_) => {
                            self.leaf = Some(node);
                            self.leaf_idx = 0;
                            return Ok(());
                        }
                    }
                }
            }
            self.stack.pop();
        }
    }
}

impl Iterator for RangeCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(root) = self.pending_root.take() {
            if let Err(e) = self.seek(root) {
                self.done = true;
                return Some(Err(e));
            }
        }
        if let Some(e) = self.pending_err.take() {
            self.done = true;
            return Some(Err(e));
        }
        loop {
            if self.done {
                return None;
            }
            let Some(entry) = self.leaf_entries().get(self.leaf_idx).cloned() else {
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
            self.leaf_idx += 1;
            if self.leaf_idx >= self.leaf_entries().len() {
                if let Err(e) = self.next_leaf() {
                    if skipped {
                        self.done = true;
                        return Some(Err(e));
                    }
                    // Deliver the entry now, the error on the next call.
                    self.pending_err = Some(e);
                    return Some(Ok(entry));
                }
            }
            if skipped {
                continue; // exclusive start: skip the seeked-to match
            }
            return Some(Ok(entry));
        }
    }
}
