//! In-memory overlay used for batched copy-on-write commits.
//!
//! A batch is applied to a tree of [`MemNode`]s held in one arena: stored
//! pages are pulled in lazily (one load per touched node) and stay as
//! [`MemNode::Stored`] stubs when untouched, so committing writes exactly
//! one new page per modified node — the copy-on-write cost the paper's
//! update bound counts (§4.1.2).
//!
//! The overlay copies nothing it can borrow. A loaded branch keeps the
//! decoded node and reads its untouched children's digests from that
//! page; a loaded path is a window of its page, a new leaf's path a window
//! of its key, and the walk moves an index along the key's nibbles.
//! Dirty nodes are encoded from these parts and hashed into the commit's
//! batch one page at a time, children before their parent.
//!
//! Deletion ([`Overlay::remove`]) maintains the trie's canonical form so
//! Structural Invariance survives: a branch left with a lone child (or only
//! its value) collapses, and the freed nibble run re-compacts into the
//! surrounding extension/leaf paths — delete-then-reinsert restores the
//! identical root digest.

use std::sync::Arc;

use bytes::Bytes;
use siri_core::Result;
use siri_crypto::Hash;
use siri_store::{PageBatch, SharedStore};

use crate::node::{branch_page, pair_page, Node, Path};
use crate::MerklePatriciaTrie;

/// A node's place in the overlay's arena.
pub(crate) type Id = u32;

/// A branch child slot.
#[derive(Clone, Copy)]
enum Kid {
    Empty,
    /// The slot as the branch's loaded page holds it: occupied, untouched.
    Base,
    Mem(Id),
}

/// A node in the mutable overlay.
enum MemNode {
    /// An untouched subtree, by page digest.
    Stored(Hash),
    Branch {
        /// The page this branch was loaded from, whose digests the `Base`
        /// slots read; `None` for a branch the batch created.
        base: Option<Arc<Node>>,
        kids: [Kid; 16],
        value: Option<Bytes>,
    },
    Extension {
        path: Path,
        child: Id,
    },
    Leaf {
        path: Path,
        value: Bytes,
    },
}

/// Digest `nib` of a loaded branch page.
fn base_digest(base: &Option<Arc<Node>>, nib: usize) -> Option<&[u8; 32]> {
    match base.as_deref() {
        Some(Node::Branch(b)) => b.digest(nib),
        _ => None,
    }
}

/// One commit's overlay over `trie`.
pub(crate) struct Overlay<'t> {
    trie: &'t MerklePatriciaTrie,
    nodes: Vec<MemNode>,
}

impl<'t> Overlay<'t> {
    pub(crate) fn new(trie: &'t MerklePatriciaTrie) -> Self {
        Overlay { trie, nodes: Vec::new() }
    }

    /// A stub for the stored subtree `hash`.
    pub(crate) fn stored(&mut self, hash: Hash) -> Id {
        self.push(MemNode::Stored(hash))
    }

    fn push(&mut self, node: MemNode) -> Id {
        self.nodes.push(node);
        (self.nodes.len() - 1) as Id
    }

    fn set(&mut self, id: Id, node: MemNode) -> Id {
        self.nodes[id as usize] = node;
        id
    }

    /// Take node `id` out to rebuild it; the caller puts back what replaces
    /// it (or abandons the slot when the node vanishes).
    fn take(&mut self, id: Id) -> MemNode {
        std::mem::replace(&mut self.nodes[id as usize], MemNode::Stored(Hash::ZERO))
    }

    /// The child in slot `kid` of a branch loaded from `base`.
    fn kid(&mut self, base: &Option<Arc<Node>>, nib: usize, kid: Kid) -> Option<Id> {
        match kid {
            Kid::Empty => None,
            Kid::Base => {
                base_digest(base, nib).map(|d| self.push(MemNode::Stored(Hash::from_bytes(*d))))
            }
            Kid::Mem(id) => Some(id),
        }
    }

    /// Materialize a stored stub in place as a shallow overlay node whose
    /// children stay in the page. The commit replaces every node it
    /// materializes, so it borrows a cached node but installs none
    /// (DESIGN.md §3).
    fn materialize(&mut self, id: Id) -> Result<()> {
        let MemNode::Stored(hash) = self.nodes[id as usize] else { return Ok(()) };
        let node = self.trie.reader.load(&hash)?;
        self.nodes[id as usize] = match &*node {
            Node::Branch(b) => MemNode::Branch {
                kids: std::array::from_fn(|nib| {
                    if b.digest(nib).is_some() {
                        Kid::Base
                    } else {
                        Kid::Empty
                    }
                }),
                value: b.value(),
                base: Some(node.clone()),
            },
            Node::Extension(e) => {
                let child = self.push(MemNode::Stored(e.child()));
                MemNode::Extension { path: e.path_buf(), child }
            }
            Node::Leaf(l) => MemNode::Leaf { path: l.path_buf(), value: l.value() },
        };
        Ok(())
    }

    /// Insert `key → value` into the subtree at `at`, whose position is
    /// nibble `depth` of the key; returns the rebuilt subtree. Standard
    /// MPT insertion (§3.4.1's description of branch creation at diverging
    /// bytes).
    pub(crate) fn insert(
        &mut self,
        at: Option<Id>,
        key: &Path,
        depth: usize,
        value: Bytes,
    ) -> Result<Id> {
        let Some(id) = at else {
            return Ok(self.push(MemNode::Leaf { path: key.suffix(depth), value }));
        };
        self.materialize(id)?;
        let rest = key.view().suffix(depth);
        match self.take(id) {
            MemNode::Leaf { path, value: old_value } => {
                let common = rest.common_prefix_len(path.view());
                if common == path.len() && common == rest.len() {
                    return Ok(self.set(id, MemNode::Leaf { path, value }));
                }
                let mut kids = [Kid::Empty; 16];
                let mut branch_value = None;
                // Park the existing leaf below the divergence…
                if common == path.len() {
                    branch_value = Some(old_value);
                } else {
                    let below = MemNode::Leaf { path: path.suffix(common + 1), value: old_value };
                    kids[path.at(common) as usize] = Kid::Mem(self.set(id, below));
                }
                // …and the new entry beside it.
                if common == rest.len() {
                    branch_value = Some(value);
                } else {
                    let leaf = MemNode::Leaf { path: key.suffix(depth + common + 1), value };
                    kids[rest.at(common) as usize] = Kid::Mem(self.push(leaf));
                }
                let branch = self.push(MemNode::Branch { base: None, kids, value: branch_value });
                Ok(self.wrap_extension(path.prefix(common), branch))
            }
            MemNode::Extension { path, child } => {
                let common = rest.common_prefix_len(path.view());
                if common == path.len() {
                    let child = self.insert(Some(child), key, depth + common, value)?;
                    return Ok(self.set(id, MemNode::Extension { path, child }));
                }
                // Diverged inside the compacted run: split it with a branch
                // (the "new branch node at diverging byte" of §3.4.1).
                let mut kids = [Kid::Empty; 16];
                let mut branch_value = None;
                let below = if path.len() == common + 1 {
                    child
                } else {
                    self.set(id, MemNode::Extension { path: path.suffix(common + 1), child })
                };
                kids[path.at(common) as usize] = Kid::Mem(below);
                if common == rest.len() {
                    branch_value = Some(value);
                } else {
                    let leaf = MemNode::Leaf { path: key.suffix(depth + common + 1), value };
                    kids[rest.at(common) as usize] = Kid::Mem(self.push(leaf));
                }
                let branch = self.push(MemNode::Branch { base: None, kids, value: branch_value });
                Ok(self.wrap_extension(path.prefix(common), branch))
            }
            MemNode::Branch { base, mut kids, value: branch_value } => {
                if rest.is_empty() {
                    return Ok(self.set(id, MemNode::Branch { base, kids, value: Some(value) }));
                }
                let nib = rest.at(0) as usize;
                let child = self.kid(&base, nib, kids[nib]);
                kids[nib] = Kid::Mem(self.insert(child, key, depth + 1, value)?);
                Ok(self.set(id, MemNode::Branch { base, kids, value: branch_value }))
            }
            MemNode::Stored(_) => unreachable!("materialized above"),
        }
    }

    /// Remove `key` from the subtree at `at` (at nibble `depth` of the key),
    /// returning its replacement (`None` when the subtree vanishes).
    /// Deleting an absent key leaves the subtree's content unchanged. The
    /// returned overlay is re-canonicalized: no single-child branches, no
    /// extension-of-extension chains.
    pub(crate) fn remove(
        &mut self,
        at: Option<Id>,
        key: &Path,
        depth: usize,
    ) -> Result<Option<Id>> {
        let Some(id) = at else { return Ok(None) };
        self.materialize(id)?;
        let rest = key.view().suffix(depth);
        match self.take(id) {
            MemNode::Leaf { path, value } => {
                if path.view() == rest {
                    Ok(None)
                } else {
                    Ok(Some(self.set(id, MemNode::Leaf { path, value })))
                }
            }
            MemNode::Extension { path, child } => {
                if !rest.starts_with(path.view()) {
                    return Ok(Some(self.set(id, MemNode::Extension { path, child })));
                }
                match self.remove(Some(child), key, depth + path.len())? {
                    None => Ok(None),
                    Some(new_child) => Ok(Some(self.recompact(path, new_child))),
                }
            }
            MemNode::Branch { base, mut kids, value } => {
                if rest.is_empty() {
                    // The key terminates here: drop the branch value.
                    return self.collapse(id, base, kids, None);
                }
                let nib = rest.at(0) as usize;
                let child = self.kid(&base, nib, kids[nib]);
                kids[nib] = match self.remove(child, key, depth + 1)? {
                    Some(child) => Kid::Mem(child),
                    None => Kid::Empty,
                };
                self.collapse(id, base, kids, value)
            }
            MemNode::Stored(_) => unreachable!("materialized above"),
        }
    }

    /// Wrap `node` in an extension for `path`, unless the path is empty.
    /// Extensions with empty paths are illegal (and pointless).
    fn wrap_extension(&mut self, path: Path, node: Id) -> Id {
        if path.is_empty() {
            node
        } else {
            self.push(MemNode::Extension { path, child: node })
        }
    }

    /// Re-attach `path` above a child that deletion may have collapsed:
    /// merge into the child's own path when the child is a leaf or
    /// extension, keep a plain extension above a branch. The child must be
    /// materialized (remove always returns materialized overlays).
    fn recompact(&mut self, path: Path, child: Id) -> Id {
        let joined = |rest: &Path| Path::packed(path.view().iter().chain(rest.view().iter()));
        match self.take(child) {
            MemNode::Leaf { path: rest, value } => {
                self.set(child, MemNode::Leaf { path: joined(&rest), value })
            }
            MemNode::Extension { path: rest, child: below } => {
                self.set(child, MemNode::Extension { path: joined(&rest), child: below })
            }
            branch @ MemNode::Branch { .. } => {
                self.set(child, branch);
                self.wrap_extension(path, child)
            }
            MemNode::Stored(_) => unreachable!("remove returns materialized overlays"),
        }
    }

    /// Restore branch `id` to canonical form after one of its slots (or its
    /// value) was removed:
    ///
    /// * value + no children → the branch *is* the record: a leaf with an
    ///   empty path;
    /// * no value + no children → the subtree vanished;
    /// * no value + exactly one child → the branch is a useless fork:
    ///   collapse into the child, prepending the child's nibble (path
    ///   re-compaction);
    /// * otherwise the branch genuinely still forks — keep it.
    fn collapse(
        &mut self,
        id: Id,
        base: Option<Arc<Node>>,
        kids: [Kid; 16],
        value: Option<Bytes>,
    ) -> Result<Option<Id>> {
        let mut occupied = (0..16).filter(|&nib| !matches!(kids[nib], Kid::Empty));
        let (first, second) = (occupied.next(), occupied.next());
        match (value, first, second) {
            (Some(value), None, _) => {
                Ok(Some(self.set(id, MemNode::Leaf { path: Path::empty(), value })))
            }
            (None, None, _) => Ok(None),
            (None, Some(nib), None) => {
                // The lone survivor may be an untouched stub: materialize it
                // so its path can absorb the branch's nibble.
                let Some(lone) = self.kid(&base, nib, kids[nib]) else { return Ok(None) };
                self.materialize(lone)?;
                Ok(Some(self.recompact(Path::packed(std::iter::once(nib as u8)), lone)))
            }
            (value, _, _) => Ok(Some(self.set(id, MemNode::Branch { base, kids, value }))),
        }
    }

    /// Encode the overlay's dirty nodes under `root` into the commit's
    /// `batch`, returning the subtree digest. Untouched `Stored` stubs cost
    /// nothing. The caller hands the batch to the store; a store fault
    /// there (or in an early spill to `store`) propagates without touching
    /// the handle's root — spilled pages are garbage a future sweep
    /// reclaims, never a visible version.
    pub(crate) fn commit(
        mut self,
        root: Id,
        store: &SharedStore,
        batch: &mut PageBatch,
    ) -> Result<Hash> {
        match self.nodes[root as usize] {
            MemNode::Stored(h) => Ok(h),
            _ => {
                let page = self.encode(root, store, batch)?;
                Ok(batch.push(page))
            }
        }
    }

    /// The page of dirty node `id`, once its dirty descendants are in the
    /// batch. Each dirty child joins the batch as soon as it is encoded;
    /// after a branch's child, a full batch spills to `store`.
    fn encode(&mut self, id: Id, store: &SharedStore, batch: &mut PageBatch) -> Result<Bytes> {
        match self.take(id) {
            MemNode::Stored(_) => unreachable!("commit resolves stored stubs"),
            MemNode::Leaf { path, value } => Ok(pair_page(path.view(), true, &value)),
            MemNode::Extension { path, child } => {
                let child = match self.nodes[child as usize] {
                    MemNode::Stored(h) => h,
                    _ => {
                        let page = self.encode(child, store, batch)?;
                        batch.push(page)
                    }
                };
                Ok(pair_page(path.view(), false, child.as_bytes()))
            }
            MemNode::Branch { base, kids, value } => {
                let mut digests = [None::<Hash>; 16];
                for (nib, kid) in kids.iter().enumerate() {
                    let Kid::Mem(child) = *kid else { continue };
                    digests[nib] = Some(match self.nodes[child as usize] {
                        MemNode::Stored(h) => h,
                        _ => {
                            let page = self.encode(child, store, batch)?;
                            let hash = batch.push(page);
                            batch.spill_if_full(store)?;
                            hash
                        }
                    });
                }
                let children = std::array::from_fn(|nib| match kids[nib] {
                    Kid::Empty => None,
                    Kid::Base => base_digest(&base, nib),
                    Kid::Mem(_) => digests[nib].as_ref().map(Hash::as_bytes),
                });
                Ok(branch_page(&children, value.as_deref()))
            }
        }
    }
}
