//! Lazy in-order range traversal of the trie — the MPT engine behind
//! [`siri_core::SiriIndex::range`].
//!
//! The cursor keeps an explicit DFS stack of nodes to visit and one nibble
//! prefix they all extend, and yields entries one at a time, fetching
//! nodes through the trie's decoded-node cache only as the walk reaches
//! them. Subtrees whose
//! nibble prefix falls entirely outside the requested bounds are pruned
//! without being fetched: every key below a prefix `p` extends `p`, so a
//! strict difference between `p` and a bound's nibbles on their common
//! length decides the whole subtree. Traversal order is nibble-
//! lexicographic, which for whole-byte keys is byte-lexicographic — branch
//! values (keys that are strict prefixes of deeper keys) are emitted before
//! the subtree below them.

use std::cmp::Ordering;
use std::ops::Bound;

use bytes::Bytes;
use siri_core::{before_start, past_end, Entry, Result};
use siri_crypto::Hash;
use siri_encoding::NibbleView;

use crate::node::Node;
use crate::{key_of, MerklePatriciaTrie};

/// A node to visit: every key below it extends the cursor's prefix cut
/// to `depth` nibbles, then `nib` for a branch's child.
struct Visit {
    hash: Hash,
    depth: usize,
    nib: Option<u8>,
}

/// Where a bound lies relative to the keys below a prefix.
enum Edge {
    /// The bound sorts before every key below the prefix.
    Below,
    /// The prefix matches the bound on their common length; the bound's
    /// next nibble, if it has one, decides each child.
    Tied(Option<u8>),
    /// The bound sorts after every key below the prefix.
    Above,
}

fn edge(prefix: &[u8], bound: &Bound<Vec<u8>>) -> Option<Edge> {
    let (Bound::Included(k) | Bound::Excluded(k)) = bound else { return None };
    let bound = NibbleView::key(k);
    Some(match prefix.iter().zip(bound.iter()).map(|(a, b)| a.cmp(&b)).find(|o| o.is_ne()) {
        Some(Ordering::Less) => Edge::Above,
        Some(_) => Edge::Below,
        None => Edge::Tied((prefix.len() < bound.len()).then(|| bound.at(prefix.len()))),
    })
}

/// Streaming `[start, end)`-style cursor over one trie version. The cursor
/// owns a cheap handle clone (store + root + shared node cache), so it is
/// `'static` and survives the handle it was created from.
pub struct RangeCursor {
    trie: MerklePatriciaTrie,
    stack: Vec<Visit>,
    /// The nibbles from the root to the node being visited: one buffer
    /// that each visit cuts back and extends.
    prefix: Vec<u8>,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    done: bool,
}

impl RangeCursor {
    pub fn new(trie: MerklePatriciaTrie, start: Bound<Vec<u8>>, end: Bound<Vec<u8>>) -> Self {
        let root = trie.root;
        let mut stack = Vec::new();
        if !root.is_zero() {
            stack.push(Visit { hash: root, depth: 0, nib: None });
        }
        RangeCursor { trie, stack, prefix: Vec::new(), start, end, done: false }
    }

    /// Could any key under the current prefix fall inside the bounds? A
    /// key under the prefix differs from a bound key at the first position
    /// where the prefix itself differs, so comparing the common-length
    /// prefixes decides the subtree wholesale; ties stay conservative
    /// (descend).
    fn may_intersect(&self) -> bool {
        !matches!(edge(&self.prefix, &self.start), Some(Edge::Above))
            && !matches!(edge(&self.prefix, &self.end), Some(Edge::Below))
    }

    /// The entry `key → value` if it lies inside the bounds; past the end
    /// the cursor is done.
    fn emit(&mut self, key: Bytes, value: Bytes) -> Option<Entry> {
        if past_end(&self.end, &key) {
            self.done = true;
            return None;
        }
        (!before_start(&self.start, &key)).then_some(Entry { key, value })
    }

    fn fail(&mut self, e: siri_core::IndexError) -> Option<Result<Entry>> {
        self.done = true;
        Some(Err(e))
    }
}

impl Iterator for RangeCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let Some(visit) = self.stack.pop() else {
                self.done = true;
                return None;
            };
            self.prefix.truncate(visit.depth);
            self.prefix.extend(visit.nib);
            let node = match self.trie.reader.fetch(&visit.hash) {
                Ok((node, _)) => node,
                Err(e) => return self.fail(e),
            };
            match &*node {
                Node::Leaf(l) => match key_of(&self.prefix, l.path()) {
                    Ok(key) => {
                        if let Some(entry) = self.emit(key, l.value()) {
                            return Some(Ok(entry));
                        }
                    }
                    Err(e) => return self.fail(e),
                },
                Node::Extension(e) => {
                    self.prefix.extend(e.path().iter());
                    if self.may_intersect() {
                        let depth = self.prefix.len();
                        self.stack.push(Visit { hash: e.child(), depth, nib: None });
                    }
                }
                Node::Branch(b) => {
                    // Children pushed high-nibble-first so nibble 0 pops
                    // first; the branch value (shortest key) is yielded
                    // before any of them.
                    let depth = self.prefix.len();
                    let low = edge(&self.prefix, &self.start);
                    let high = edge(&self.prefix, &self.end);
                    for (nib, child) in b.children().rev() {
                        let nib = nib as u8;
                        let after_start = match low {
                            Some(Edge::Above) => false,
                            Some(Edge::Tied(Some(s))) => nib >= s,
                            _ => true,
                        };
                        let before_end = match high {
                            Some(Edge::Below) => false,
                            Some(Edge::Tied(Some(e))) => nib <= e,
                            _ => true,
                        };
                        if after_start && before_end {
                            self.stack.push(Visit { hash: child, depth, nib: Some(nib) });
                        }
                    }
                    if let Some(value) = b.value() {
                        match key_of(&self.prefix, NibbleView::key(&[])) {
                            Ok(key) => {
                                if let Some(entry) = self.emit(key, value) {
                                    return Some(Ok(entry));
                                }
                            }
                            Err(e) => return self.fail(e),
                        }
                    }
                }
            }
        }
        None
    }
}
