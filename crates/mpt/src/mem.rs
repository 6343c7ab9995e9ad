//! In-memory overlay used for batched copy-on-write commits.
//!
//! A batch is applied to a tree of [`MemNode`]s: stored pages are pulled in
//! lazily (one load per touched node) and stay as [`MemNode::Stored`]
//! stubs when untouched, so committing writes exactly one new page per
//! modified node — the copy-on-write cost the paper's update bound counts
//! (§4.1.2).
//!
//! Deletion ([`MemNode::remove`]) maintains the trie's canonical form so
//! Structural Invariance survives: a branch left with a lone child (or only
//! its value) collapses, and the freed nibble run re-compacts into the
//! surrounding extension/leaf paths — delete-then-reinsert restores the
//! identical root digest.

use bytes::Bytes;
use siri_core::Result;
use siri_crypto::Hash;
use siri_encoding::{Nibbles, Scratch};
use siri_store::{PageBatch, SharedStore};

use crate::node::Node;
use crate::MerklePatriciaTrie;

/// A node in the mutable overlay.
pub(crate) enum MemNode {
    /// An untouched subtree, by page digest.
    Stored(Hash),
    Branch {
        children: Box<[Option<MemNode>; 16]>,
        value: Option<Bytes>,
    },
    Extension {
        path: Nibbles,
        child: Box<MemNode>,
    },
    Leaf {
        path: Nibbles,
        value: Bytes,
    },
}

fn empty_children() -> Box<[Option<MemNode>; 16]> {
    Box::default()
}

impl MemNode {
    /// Materialize a stored page as a shallow overlay node (children remain
    /// `Stored` stubs). The commit replaces every node it materializes, so
    /// it borrows a cached node but installs none (DESIGN.md §3).
    fn load(trie: &MerklePatriciaTrie, hash: Hash) -> Result<MemNode> {
        Ok(match &*trie.reader.load(&hash)? {
            Node::Branch { children, value, .. } => {
                let mut slots = empty_children();
                for (i, c) in children.iter().enumerate() {
                    slots[i] = c.map(MemNode::Stored);
                }
                MemNode::Branch { children: slots, value: value.clone() }
            }
            Node::Extension { path, child, .. } => {
                MemNode::Extension { path: path.clone(), child: Box::new(MemNode::Stored(*child)) }
            }
            Node::Leaf { path, value, .. } => {
                MemNode::Leaf { path: path.clone(), value: value.clone() }
            }
        })
    }

    /// Insert `(suffix → value)` into the subtree, consuming and returning
    /// the rebuilt overlay. Standard MPT insertion (§3.4.1's description of
    /// branch creation at diverging bytes).
    pub(crate) fn insert(
        this: Option<MemNode>,
        trie: &MerklePatriciaTrie,
        suffix: Nibbles,
        value: Bytes,
    ) -> Result<MemNode> {
        let node = match this {
            None => return Ok(MemNode::Leaf { path: suffix, value }),
            Some(MemNode::Stored(h)) => Self::load(trie, h)?,
            Some(other) => other,
        };
        match node {
            MemNode::Leaf { path, value: old_value } => {
                let common = suffix.common_prefix_len(&path);
                if common == path.len() && common == suffix.len() {
                    return Ok(MemNode::Leaf { path, value });
                }
                let mut children = empty_children();
                let mut branch_value = None;
                // Park the existing leaf below the divergence…
                if common == path.len() {
                    branch_value = Some(old_value);
                } else {
                    children[path.at(common) as usize] =
                        Some(MemNode::Leaf { path: path.suffix(common + 1), value: old_value });
                }
                // …and the new entry beside it.
                if common == suffix.len() {
                    branch_value = Some(value);
                } else {
                    children[suffix.at(common) as usize] =
                        Some(MemNode::Leaf { path: suffix.suffix(common + 1), value });
                }
                let branch = MemNode::Branch { children, value: branch_value };
                Ok(wrap_extension(path.slice(0, common), branch))
            }
            MemNode::Extension { path, child } => {
                let common = suffix.common_prefix_len(&path);
                if common == path.len() {
                    let new_child = Self::insert(Some(*child), trie, suffix.suffix(common), value)?;
                    return Ok(MemNode::Extension { path, child: Box::new(new_child) });
                }
                // Diverged inside the compacted run: split it with a branch
                // (the "new branch node at diverging byte" of §3.4.1).
                let mut children = empty_children();
                let mut branch_value = None;
                let below = if path.len() == common + 1 {
                    *child
                } else {
                    MemNode::Extension { path: path.suffix(common + 1), child }
                };
                children[path.at(common) as usize] = Some(below);
                if common == suffix.len() {
                    branch_value = Some(value);
                } else {
                    children[suffix.at(common) as usize] =
                        Some(MemNode::Leaf { path: suffix.suffix(common + 1), value });
                }
                let branch = MemNode::Branch { children, value: branch_value };
                Ok(wrap_extension(path.slice(0, common), branch))
            }
            MemNode::Branch { mut children, value: branch_value } => {
                if suffix.is_empty() {
                    return Ok(MemNode::Branch { children, value: Some(value) });
                }
                let slot = suffix.at(0) as usize;
                let taken = children[slot].take();
                children[slot] = Some(Self::insert(taken, trie, suffix.suffix(1), value)?);
                Ok(MemNode::Branch { children, value: branch_value })
            }
            MemNode::Stored(_) => unreachable!("materialized above"),
        }
    }

    /// Remove `suffix` from the subtree, consuming the overlay and
    /// returning its replacement (`None` when the subtree vanishes).
    /// Deleting an absent key returns the subtree unchanged. The returned
    /// overlay is re-canonicalized: no single-child branches, no
    /// extension-of-extension chains.
    pub(crate) fn remove(
        this: Option<MemNode>,
        trie: &MerklePatriciaTrie,
        suffix: Nibbles,
    ) -> Result<Option<MemNode>> {
        let node = match this {
            None => return Ok(None),
            Some(MemNode::Stored(h)) => Self::load(trie, h)?,
            Some(other) => other,
        };
        match node {
            MemNode::Leaf { path, value } => {
                if path == suffix {
                    Ok(None)
                } else {
                    Ok(Some(MemNode::Leaf { path, value }))
                }
            }
            MemNode::Extension { path, child } => {
                if !suffix.starts_with(&path) {
                    return Ok(Some(MemNode::Extension { path, child }));
                }
                let rest = suffix.suffix(path.len());
                match Self::remove(Some(*child), trie, rest)? {
                    None => Ok(None),
                    Some(new_child) => Ok(Some(recompact_extension(path, new_child))),
                }
            }
            MemNode::Branch { mut children, value } => {
                if suffix.is_empty() {
                    // The key terminates here: drop the branch value.
                    return collapse_branch(trie, children, None);
                }
                let slot = suffix.at(0) as usize;
                let taken = children[slot].take();
                children[slot] = Self::remove(taken, trie, suffix.suffix(1))?;
                collapse_branch(trie, children, value)
            }
            MemNode::Stored(_) => unreachable!("materialized above"),
        }
    }

    /// Encode the overlay's dirty nodes into the commit's `batch`,
    /// returning the subtree digest. Untouched `Stored` stubs cost nothing.
    /// The caller hands the batch to the store; a store fault there (or in
    /// an early spill to `store`) propagates without touching the handle's
    /// root — spilled pages are garbage a future sweep reclaims, never a
    /// visible version.
    ///
    /// Dirty branch children join the batch as one sibling group
    /// ([`PageBatch::push_many`], the multi-lane hasher); the node itself
    /// is encoded into the commit's reusable `scratch` and copied in.
    pub(crate) fn commit(
        self,
        store: &SharedStore,
        batch: &mut PageBatch,
        scratch: &mut Scratch,
    ) -> Result<Hash> {
        match self {
            MemNode::Stored(h) => Ok(h),
            dirty => {
                let node = dirty.into_committed_node(store, batch, scratch)?;
                let w = scratch.start();
                w.reserve_total(node.encoded_len());
                node.encode_into(w.buf_mut());
                Ok(batch.push_slice(scratch.bytes()))
            }
        }
    }

    /// Commit every descendant, turning this materialized overlay node into
    /// a codec [`Node`] whose child references are digests. Branch children
    /// that are dirty encode into owned pages and join the batch as one
    /// `push_many` group (after which a full batch spills to `store`); an
    /// extension's lone child commits on its own.
    fn into_committed_node(
        self,
        store: &SharedStore,
        batch: &mut PageBatch,
        scratch: &mut Scratch,
    ) -> Result<Node> {
        Ok(match self {
            MemNode::Stored(_) => unreachable!("commit resolves stored stubs"),
            MemNode::Leaf { path, value } => Node::Leaf { path, value, page: Bytes::new() },
            MemNode::Extension { path, child } => {
                let child = child.commit(store, batch, scratch)?;
                Node::Extension { path, child, page: Bytes::new() }
            }
            MemNode::Branch { children, value } => {
                let mut slots: [Option<Hash>; 16] = Default::default();
                let mut dirty_pages: Vec<Bytes> = Vec::new();
                let mut dirty_slots: Vec<usize> = Vec::new();
                for (i, c) in children.into_iter().enumerate() {
                    match c {
                        None => {}
                        Some(MemNode::Stored(h)) => slots[i] = Some(h),
                        Some(dirty) => {
                            // Batch members must coexist, so each gets an
                            // owned page (exact-sized, single allocation).
                            let node = dirty.into_committed_node(store, batch, scratch)?;
                            dirty_pages.push(node.encode());
                            dirty_slots.push(i);
                        }
                    }
                }
                if !dirty_pages.is_empty() {
                    let hashes = batch.push_many(dirty_pages);
                    for (slot, h) in dirty_slots.into_iter().zip(hashes) {
                        slots[slot] = Some(h);
                    }
                    batch.spill_if_full(store)?;
                }
                Node::Branch { children: slots, value, page: Bytes::new() }
            }
        })
    }
}

/// Wrap `node` in an extension for `path`, unless the path is empty.
/// Extensions with empty paths are illegal (and pointless).
fn wrap_extension(path: Nibbles, node: MemNode) -> MemNode {
    if path.is_empty() {
        node
    } else {
        MemNode::Extension { path, child: Box::new(node) }
    }
}

/// Re-attach `path` above a child that deletion may have collapsed: merge
/// into the child's own path when the child is a leaf or extension, keep a
/// plain extension above a branch. The child must be materialized (remove
/// always returns materialized overlays).
fn recompact_extension(path: Nibbles, child: MemNode) -> MemNode {
    match child {
        MemNode::Leaf { path: rest, value } => MemNode::Leaf { path: path.concat(&rest), value },
        MemNode::Extension { path: rest, child } => {
            MemNode::Extension { path: path.concat(&rest), child }
        }
        branch @ MemNode::Branch { .. } => wrap_extension(path, branch),
        MemNode::Stored(_) => unreachable!("remove returns materialized overlays"),
    }
}

/// Restore a branch to canonical form after one of its slots (or its
/// value) was removed:
///
/// * value + no children → the branch *is* the record: a leaf with an
///   empty path;
/// * no value + no children → the subtree vanished;
/// * no value + exactly one child → the branch is a useless fork: collapse
///   into the child, prepending the child's nibble (path re-compaction);
/// * otherwise the branch genuinely still forks — keep it.
fn collapse_branch(
    trie: &MerklePatriciaTrie,
    mut children: Box<[Option<MemNode>; 16]>,
    value: Option<Bytes>,
) -> Result<Option<MemNode>> {
    let occupied: Vec<usize> =
        children.iter().enumerate().filter(|(_, c)| c.is_some()).map(|(i, _)| i).collect();
    if let Some(v) = value {
        return Ok(Some(if occupied.is_empty() {
            MemNode::Leaf { path: Nibbles::empty(), value: v }
        } else {
            MemNode::Branch { children, value: Some(v) }
        }));
    }
    match occupied.as_slice() {
        [] => Ok(None),
        [nib] => {
            let lone = children[*nib].take().expect("slot is occupied");
            // The lone survivor may be an untouched stub: materialize it so
            // its path can absorb the branch's nibble.
            let lone = match lone {
                MemNode::Stored(h) => MemNode::load(trie, h)?,
                other => other,
            };
            let prefix = Nibbles::from_raw(vec![*nib as u8]);
            Ok(Some(recompact_extension(prefix, lone)))
        }
        _ => Ok(Some(MemNode::Branch { children, value: None })),
    }
}
