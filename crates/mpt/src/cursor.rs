//! Lazy in-order range traversal of the trie — the MPT engine behind
//! [`siri_core::SiriIndex::range`].
//!
//! The cursor keeps an explicit DFS stack of `(node, nibble-prefix)` work
//! items and yields entries one at a time, fetching nodes through the
//! trie's decoded-node cache only as the walk reaches them. Subtrees whose
//! nibble prefix falls entirely outside the requested bounds are pruned
//! without being fetched: every key below a prefix `p` extends `p`, so a
//! strict difference between `p` and a bound's nibbles on their common
//! length decides the whole subtree. Traversal order is nibble-
//! lexicographic, which for whole-byte keys is byte-lexicographic — branch
//! values (keys that are strict prefixes of deeper keys) are emitted before
//! the subtree below them.

use std::ops::Bound;

use siri_core::{before_start, past_end, Entry, Result};
use siri_crypto::Hash;
use siri_encoding::Nibbles;

use crate::node::Node;
use crate::{nibbles_to_key, MerklePatriciaTrie};

enum Work {
    /// Visit the node at `hash`; every key below shares the nibble prefix.
    Node(Hash, Vec<u8>),
    /// A branch value ready to yield (already bounds-unchecked).
    Emit(Entry),
}

/// Streaming `[start, end)`-style cursor over one trie version. The cursor
/// owns a cheap handle clone (store + root + shared node cache), so it is
/// `'static` and survives the handle it was created from.
pub struct RangeCursor {
    trie: MerklePatriciaTrie,
    stack: Vec<Work>,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    /// `start`/`end` keys unpacked to nibbles, for subtree pruning.
    start_nibs: Option<Vec<u8>>,
    end_nibs: Option<Vec<u8>>,
    done: bool,
}

fn bound_nibbles(bound: &Bound<Vec<u8>>) -> Option<Vec<u8>> {
    match bound {
        Bound::Included(k) | Bound::Excluded(k) => Some(Nibbles::from_key(k).as_slice().to_vec()),
        Bound::Unbounded => None,
    }
}

impl RangeCursor {
    pub fn new(trie: MerklePatriciaTrie, start: Bound<Vec<u8>>, end: Bound<Vec<u8>>) -> Self {
        let root = trie.root;
        let mut stack = Vec::new();
        if !root.is_zero() {
            stack.push(Work::Node(root, Vec::new()));
        }
        RangeCursor {
            trie,
            stack,
            start_nibs: bound_nibbles(&start),
            end_nibs: bound_nibbles(&end),
            start,
            end,
            done: false,
        }
    }

    /// Could any key with nibble prefix `p` fall inside the bounds? A key
    /// under `p` differs from a bound key at the first position where `p`
    /// itself differs, so comparing the common-length prefixes decides the
    /// subtree wholesale; ties stay conservative (descend).
    fn may_intersect(&self, p: &[u8]) -> bool {
        if let Some(s) = &self.start_nibs {
            let l = p.len().min(s.len());
            if p[..l] < s[..l] {
                return false; // every key under p precedes start
            }
        }
        if let Some(e) = &self.end_nibs {
            let l = p.len().min(e.len());
            if p[..l] > e[..l] {
                return false; // every key under p follows end
            }
        }
        true
    }
}

impl Iterator for RangeCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        while !self.done {
            let Some(work) = self.stack.pop() else {
                self.done = true;
                return None;
            };
            let (hash, prefix) = match work {
                Work::Emit(entry) => {
                    if past_end(&self.end, &entry.key) {
                        self.done = true;
                        return None;
                    }
                    if before_start(&self.start, &entry.key) {
                        continue;
                    }
                    return Some(Ok(entry));
                }
                Work::Node(hash, prefix) => (hash, prefix),
            };
            let node = match self.trie.reader.fetch(&hash) {
                Ok((node, _)) => node,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            match &*node {
                Node::Leaf { path, value, .. } => {
                    let mut full = prefix;
                    full.extend_from_slice(path.as_slice());
                    match nibbles_to_key(&full) {
                        Ok(key) => self.stack.push(Work::Emit(Entry { key, value: value.clone() })),
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    }
                }
                Node::Extension { path, child, .. } => {
                    let mut full = prefix;
                    full.extend_from_slice(path.as_slice());
                    if self.may_intersect(&full) {
                        self.stack.push(Work::Node(*child, full));
                    }
                }
                Node::Branch { children, value, .. } => {
                    // Children pushed high-nibble-first so nibble 0 pops
                    // first; the branch value (shortest key) pops before
                    // any of them.
                    for (nib, child) in children.iter().enumerate().rev() {
                        if let Some(child) = child {
                            let mut p = prefix.clone();
                            p.push(nib as u8);
                            if self.may_intersect(&p) {
                                self.stack.push(Work::Node(*child, p));
                            }
                        }
                    }
                    if let Some(v) = value {
                        match nibbles_to_key(&prefix) {
                            Ok(key) => self.stack.push(Work::Emit(Entry { key, value: v.clone() })),
                            Err(e) => {
                                self.done = true;
                                return Some(Err(e));
                            }
                        }
                    }
                }
            }
        }
        None
    }
}
