//! Structure-aware MPT diff.
//!
//! Because MPT is Structurally Invariant, equal subtree digests imply equal
//! key/value content under the same prefix, so the diff walks the two
//! tries in lockstep and prunes every shared subtree — the O(δ·L) bound of
//! §4.1.3. Extension nodes make the two sides structurally misaligned
//! (a one-nibble branch edge on one side can face a multi-nibble extension
//! on the other), so the walk is phrased over *cursors* that consume one
//! nibble at a time, materializing nodes only when the digests differ.

use bytes::Bytes;
use siri_core::{DiffEntry, Result, SiriIndex};
use siri_crypto::Hash;
use siri_encoding::NibbleView;

use crate::node::{Node, Path};
use crate::{key_of, MerklePatriciaTrie};

/// A position in a (possibly virtual) subtree: `path` nibbles still to be
/// consumed before reaching `target`. Paths are windows of the pages they
/// were read from, so consuming a nibble copies nothing.
#[derive(Clone, PartialEq, Eq)]
enum Cursor {
    /// A stored subtree.
    Node { path: Path, hash: Hash },
    /// The tail of a leaf already being traversed.
    Value { path: Path, value: Bytes },
}

type Slots = Box<[Option<Cursor>; 16]>;

fn empty_slots() -> Slots {
    Box::default()
}

/// One step of the lockstep walk: the value terminating exactly at the
/// current prefix, plus per-nibble child cursors.
fn expand(trie: &MerklePatriciaTrie, cursor: Cursor) -> Result<(Option<Bytes>, Slots)> {
    let mut slots = empty_slots();
    match cursor {
        Cursor::Value { path, value } => {
            if path.is_empty() {
                return Ok((Some(value), slots));
            }
            slots[path.at(0) as usize] = Some(Cursor::Value { path: path.suffix(1), value });
            Ok((None, slots))
        }
        Cursor::Node { path, hash } if !path.is_empty() => {
            slots[path.at(0) as usize] = Some(Cursor::Node { path: path.suffix(1), hash });
            Ok((None, slots))
        }
        Cursor::Node { hash, .. } => {
            // Through the trie's node cache: diffing adjacent versions
            // re-visits the shared spine, which the cache serves for free.
            match &*trie.reader.fetch(&hash)?.0 {
                Node::Leaf(l) => {
                    let path = l.path_buf();
                    if path.is_empty() {
                        return Ok((Some(l.value()), slots));
                    }
                    slots[path.at(0) as usize] =
                        Some(Cursor::Value { path: path.suffix(1), value: l.value() });
                    Ok((None, slots))
                }
                Node::Extension(e) => {
                    let path = e.path_buf();
                    slots[path.at(0) as usize] =
                        Some(Cursor::Node { path: path.suffix(1), hash: e.child() });
                    Ok((None, slots))
                }
                Node::Branch(b) => {
                    for (i, hash) in b.children() {
                        slots[i] = Some(Cursor::Node { path: Path::empty(), hash });
                    }
                    Ok((b.value(), slots))
                }
            }
        }
    }
}

fn diff_rec(
    a_trie: &MerklePatriciaTrie,
    b_trie: &MerklePatriciaTrie,
    a: Option<Cursor>,
    b: Option<Cursor>,
    prefix: &mut Vec<u8>,
    out: &mut Vec<DiffEntry>,
) -> Result<()> {
    if a == b {
        // Equal digests (or equal leaf tails) at the same position: the
        // whole subtree is shared — prune. This is where structural
        // invariance pays off.
        return Ok(());
    }
    let (va, slots_a) = match a {
        Some(c) => expand(a_trie, c)?,
        None => (None, empty_slots()),
    };
    let (vb, slots_b) = match b {
        Some(c) => expand(b_trie, c)?,
        None => (None, empty_slots()),
    };
    if va != vb {
        out.push(DiffEntry { key: key_of(prefix, NibbleView::key(&[]))?, left: va, right: vb });
    }
    for (i, (ca, cb)) in slots_a.into_iter().zip(*slots_b).enumerate() {
        if ca.is_none() && cb.is_none() {
            continue;
        }
        prefix.push(i as u8);
        diff_rec(a_trie, b_trie, ca, cb, prefix, out)?;
        prefix.pop();
    }
    Ok(())
}

pub(crate) fn diff(a: &MerklePatriciaTrie, b: &MerklePatriciaTrie) -> Result<Vec<DiffEntry>> {
    let cursor = |t: &MerklePatriciaTrie| {
        (!t.root().is_zero()).then(|| Cursor::Node { path: Path::empty(), hash: t.root() })
    };
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    diff_rec(a, b, cursor(a), cursor(b), &mut prefix, &mut out)?;
    out.sort_by(|x, y| x.key.cmp(&y.key));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MerklePatriciaTrie;
    use siri_core::{DiffSide, Entry, MemStore, SiriIndex};

    fn populated(n: usize) -> MerklePatriciaTrie {
        let mut t = MerklePatriciaTrie::new(MemStore::new_shared());
        t.batch_insert(
            (0..n)
                .map(|i| {
                    Entry::new(format!("key{i:04}").into_bytes(), format!("v{i}").into_bytes())
                })
                .collect(),
        )
        .unwrap();
        t
    }

    #[test]
    fn identical_tries_diff_empty() {
        let a = populated(100);
        let b = a.clone();
        assert!(diff(&a, &b).unwrap().is_empty());
    }

    #[test]
    fn finds_changes_additions_removals() {
        let a = populated(100);
        let mut b = a.clone();
        b.insert(b"key0042", bytes::Bytes::from_static(b"changed")).unwrap();
        b.insert(b"brand-new", bytes::Bytes::from_static(b"x")).unwrap();
        let d = a.diff(&b).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].key.as_ref(), b"brand-new");
        assert_eq!(d[0].side(), DiffSide::RightOnly);
        assert_eq!(d[1].key.as_ref(), b"key0042");
        assert_eq!(d[1].side(), DiffSide::Changed);
        // Reverse direction flips sides.
        let d = b.diff(&a).unwrap();
        assert_eq!(d[0].side(), DiffSide::LeftOnly);
    }

    #[test]
    fn diff_against_empty_lists_everything() {
        let a = populated(25);
        let empty = MerklePatriciaTrie::new(MemStore::new_shared());
        let d = a.diff(&empty).unwrap();
        assert_eq!(d.len(), 25);
        assert!(d.iter().all(|x| x.side() == DiffSide::LeftOnly));
    }

    #[test]
    fn matches_scan_reference_on_misaligned_structures() {
        // Different key shapes on each side: extensions vs branches differ
        // structurally; the cursor walk must still align by prefix.
        let store = MemStore::new_shared();
        let mut a = MerklePatriciaTrie::new(store.clone());
        a.batch_insert(vec![
            Entry::new(b"a".to_vec(), b"1".to_vec()),
            Entry::new(b"ab".to_vec(), b"2".to_vec()),
            Entry::new(b"abc".to_vec(), b"3".to_vec()),
            Entry::new(b"xyz".to_vec(), b"4".to_vec()),
        ])
        .unwrap();
        let mut b = MerklePatriciaTrie::new(store);
        b.batch_insert(vec![
            Entry::new(b"ab".to_vec(), b"2".to_vec()),
            Entry::new(b"abd".to_vec(), b"5".to_vec()),
            Entry::new(b"x".to_vec(), b"6".to_vec()),
        ])
        .unwrap();
        let structural = a.diff(&b).unwrap();
        let reference = siri_core::diff_by_scan(&a, &b).unwrap();
        assert_eq!(structural, reference);
    }
}
