//! POS-Tree page codec.
//!
//! * **Leaf** (level 0): a run of sorted entries — one pattern-aware
//!   partition of the bottom data layer (Figure 5).
//! * **Internal**: a run of `(split key, child digest)` pairs, where the
//!   split key is the maximum key of the child's subtree, "a sequence of
//!   split keys and cryptographic hashes of the nodes in the lower layer".
//!
//! Every page carries the tree level (so equal content at different heights
//! cannot collide) and a `salt` that is 0 in normal operation. The salt
//! exists solely for the §5.5.2 ablation: bumping it per version makes
//! every page byte-unique, which is exactly "forcibly copying all nodes in
//! the tree" under content addressing.

use bytes::Bytes;
use siri_core::ordered::{self, ChildRef, ChildRun, OrderedNode};
use siri_core::{entry_codec, Entry, PageNode, Result};
use siri_crypto::Hash;
use siri_encoding::{varint, ByteReader, ByteWriter, CodecError};

const TAG_LEAF: u8 = 0x21;
const TAG_INTERNAL: u8 = 0x22;

/// Longest possible leaf header: tag, then two 10-byte varints.
pub(crate) const LEAF_HEADER_MAX: usize = 21;

/// Everything of a leaf page that precedes its first entry:
/// `tag ‖ varint(salt) ‖ varint(count)` — `count` being the run prefix
/// `entry_codec::decode_entries_zc` reads. The one place that layout is
/// written: [`Node::encode_into`] and the leaf builder (which appends
/// entries first and the header last) both call it.
pub(crate) fn write_leaf_header(w: &mut ByteWriter, salt: u64, count: u64) {
    w.put_u8(TAG_LEAF);
    w.put_varint(salt);
    w.put_varint(count);
}

/// Everything of an internal page that precedes its child run:
/// `tag ‖ varint(salt) ‖ varint(level)`.
fn write_internal_header(w: &mut ByteWriter, salt: u64, level: u32) {
    w.put_u8(TAG_INTERNAL);
    w.put_varint(salt);
    w.put_varint(level as u64);
}

fn internal_header_len(salt: u64, level: u32) -> usize {
    1 + varint::len(salt) + varint::len(level as u64)
}

/// Encode the internal page of `children` straight from the builder's
/// list — the write path's encoder, which never builds a decoded node.
pub(crate) fn encode_internal(w: &mut ByteWriter, salt: u64, level: u32, children: &[ChildRef]) {
    w.reserve_total(internal_header_len(salt, level) + ChildRun::encoded_len(children));
    write_internal_header(w, salt, level);
    ChildRun::write(w, children);
}

/// Decoded POS-Tree page. A decoded node keeps its page: a leaf beside
/// its entries, an internal node in its [`ChildRun`] ([`PageNode::page`]).
/// A leaf built to be encoded has no page yet (`Bytes::new()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Leaf { salt: u64, entries: Vec<Entry>, page: Bytes },
    Internal { salt: u64, level: u32, children: ChildRun },
}

impl Node {
    pub fn encode(&self) -> Bytes {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        debug_assert_eq!(w.len(), self.encoded_len());
        Bytes::from(w.into_vec())
    }

    /// Exact byte length of [`Node::encode`]'s output — pages are sized to
    /// their final length in one allocation.
    pub fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf { salt, entries, .. } => {
                1 + varint::len(*salt) + entry_codec::entries_encoded_len(entries)
            }
            Node::Internal { salt, level, children } => {
                internal_header_len(*salt, *level) + children.as_bytes().len()
            }
        }
    }

    /// Serialize into an existing writer — entries stream straight into the
    /// page buffer instead of transiting a temporary `Vec`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Node::Leaf { salt, entries, .. } => {
                write_leaf_header(w, *salt, entries.len() as u64);
                for e in entries {
                    entry_codec::write_entry(w, e);
                }
            }
            Node::Internal { salt, level, children } => {
                write_internal_header(w, *salt, *level);
                w.put_raw(children.as_bytes());
            }
        }
    }

    /// Zero-copy decode: keys, values and the child run are refcounted
    /// slices of the page — the one decoder.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let mut r = ByteReader::new(page);
        match r.get_u8()? {
            TAG_LEAF => {
                let salt = r.get_varint()?;
                let entries = entry_codec::decode_entries_zc(page, r.offset())?;
                Ok(Node::Leaf { salt, entries, page: page.clone() })
            }
            TAG_INTERNAL => {
                let salt = r.get_varint()?;
                let level = r.get_varint()? as u32;
                let children = ChildRun::decode(page, r.offset())?;
                Ok(Node::Internal { salt, level, children })
            }
            other => Err(CodecError::BadTag(other).into()),
        }
    }

    /// Child digests referenced by a page — the store-walk decoder. A leaf
    /// says so in its tag byte and is not decoded; an internal page's run
    /// is read in place.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        let mut r = ByteReader::new(page);
        let header = (r.get_u8(), r.get_varint(), r.get_varint());
        match header {
            (Ok(TAG_INTERNAL), Ok(_), Ok(_)) => {
                ChildRun::digests(&page[r.offset()..]).unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Level of the node in its tree (0 = leaf).
    pub fn level(&self) -> u32 {
        match self {
            Node::Leaf { .. } => 0,
            Node::Internal { level, .. } => *level,
        }
    }

    pub fn max_key(&self) -> Option<Bytes> {
        match self {
            Node::Leaf { entries, .. } => entries.last().map(|e| e.key.clone()),
            Node::Internal { children, .. } => children.max_key(),
        }
    }
}

impl PageNode for Node {
    fn decode_page(page: &Bytes) -> Result<Self> {
        Node::decode_zc(page)
    }

    fn page(&self) -> &Bytes {
        match self {
            Node::Leaf { page, .. } => page,
            Node::Internal { children, .. } => children.page(),
        }
    }
}

impl OrderedNode for Node {
    fn entries(&self) -> Option<&[Entry]> {
        match self {
            Node::Leaf { entries, .. } => Some(entries),
            Node::Internal { .. } => None,
        }
    }

    fn children(&self) -> &ChildRun {
        match self {
            Node::Leaf { .. } => ordered::no_children(),
            Node::Internal { children, .. } => children,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_crypto::sha256;

    fn e(k: &str, v: &str) -> Entry {
        Entry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec())
    }

    fn p(k: &str, s: &str) -> ChildRef {
        ChildRef { max_key: Bytes::copy_from_slice(k.as_bytes()), hash: sha256(s.as_bytes()) }
    }

    fn leaf(salt: u64, entries: Vec<Entry>) -> Node {
        Node::Leaf { salt, entries, page: Bytes::new() }
    }

    /// Decoding `node`'s page gives back its content, holding that page.
    fn round_trip(node: &Node) {
        let page = node.encode();
        let back = Node::decode_zc(&page).unwrap();
        assert_eq!(back.encode(), page);
        assert_eq!(back.page(), &page);
        assert_eq!(
            (back.level(), back.entries(), back.children()),
            (node.level(), node.entries(), node.children())
        );
    }

    #[test]
    fn round_trips() {
        round_trip(&leaf(0, vec![e("a", "1"), e("b", "2")]));
        round_trip(&Node::Internal {
            salt: 3,
            level: 2,
            children: ChildRun::new(&[p("m", "x"), p("z", "y")]),
        });
    }

    #[test]
    fn salt_changes_bytes() {
        let a = leaf(0, vec![e("a", "1")]).encode();
        let b = leaf(1, vec![e("a", "1")]).encode();
        assert_ne!(a, b, "salted pages must not deduplicate");
    }

    #[test]
    fn level_distinguishes_pages() {
        let a =
            Node::Internal { salt: 0, level: 1, children: ChildRun::new(&[p("k", "c")]) }.encode();
        let b =
            Node::Internal { salt: 0, level: 2, children: ChildRun::new(&[p("k", "c")]) }.encode();
        assert_ne!(a, b);
    }

    #[test]
    fn rejects_corruption() {
        assert!(Node::decode_zc(&Bytes::from_static(&[0x99])).is_err());
        let unsorted = leaf(0, vec![e("b", "1"), e("a", "2")]);
        assert!(Node::decode_zc(&unsorted.encode()).is_err());
        let internal =
            Node::Internal { salt: 0, level: 1, children: ChildRun::new(&[p("a", "x")]) };
        let enc = internal.encode();
        assert!(Node::decode_zc(&enc.slice(..enc.len() - 2)).is_err());
    }

    #[test]
    fn routing_clamps() {
        let node = Node::Internal {
            salt: 0,
            level: 1,
            children: ChildRun::new(&[p("f", "1"), p("m", "2")]),
        };
        assert_eq!(node.children().route(b"a"), Ok(0));
        assert_eq!(node.children().route(b"f"), Ok(0));
        assert_eq!(node.children().route(b"zzz"), Ok(1));
    }
}
