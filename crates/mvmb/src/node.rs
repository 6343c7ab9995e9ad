//! MVMB+-Tree page codec.
//!
//! Internal nodes route by the *maximum key* of each child subtree (the
//! same split-key convention POS-Tree uses, Figure 5), so the two
//! structures differ only in how node boundaries are chosen — exactly the
//! comparison the paper draws. Children are referenced by content hash
//! instead of pointers; "we replace the pointers stored in index nodes
//! with the hash of their immediate children" (§5.2).

use bytes::Bytes;
use siri_core::ordered::{self, ChildRef, ChildRun, OrderedNode};
use siri_core::{entry_codec, Entry, PageNode, Result};
use siri_crypto::Hash;
use siri_encoding::{ByteReader, ByteWriter, CodecError};

const TAG_INTERNAL: u8 = 0x11;
const TAG_LEAF: u8 = 0x12;

/// Decoded MVMB+-Tree page. It keeps its page: an internal node in its
/// [`ChildRun`], a leaf beside its entries ([`PageNode::page`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Internal(ChildRun),
    Leaf { entries: Vec<Entry>, page: Bytes },
}

impl Node {
    /// The internal page of `children`, encoded straight from the
    /// builder's list — no decoded node is built on the write path.
    pub fn encode_internal(children: &[ChildRef]) -> Bytes {
        let mut w = ByteWriter::with_capacity(1 + ChildRun::encoded_len(children));
        w.put_u8(TAG_INTERNAL);
        ChildRun::write(&mut w, children);
        Bytes::from(w.into_vec())
    }

    /// The leaf page of `entries`, encoded straight from the slice.
    pub fn encode_leaf(entries: &[Entry]) -> Bytes {
        let mut w = ByteWriter::with_capacity(1 + entry_codec::entries_encoded_len(entries));
        w.put_u8(TAG_LEAF);
        entry_codec::encode_entries_into(&mut w, entries);
        Bytes::from(w.into_vec())
    }

    /// The page: the tag, then the child run or the entry run.
    pub fn encode(&self) -> Bytes {
        match self {
            Node::Internal(children) => {
                Bytes::from([&[TAG_INTERNAL], children.as_bytes()].concat())
            }
            Node::Leaf { entries, .. } => Self::encode_leaf(entries),
        }
    }

    /// Zero-copy decode: keys, values and the child run are refcounted
    /// slices of the page — the one decoder.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let mut r = ByteReader::new(page);
        match r.get_u8()? {
            TAG_INTERNAL => Ok(Node::Internal(ChildRun::decode(page, r.offset())?)),
            TAG_LEAF => {
                let entries = entry_codec::decode_entries_zc(page, r.offset())?;
                Ok(Node::Leaf { entries, page: page.clone() })
            }
            other => Err(CodecError::BadTag(other).into()),
        }
    }

    /// Child hashes referenced by a page — the store-walk decoder. A leaf
    /// says so in its tag byte and is not decoded; an internal page's run
    /// is read in place.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        match page.split_first() {
            Some((&TAG_INTERNAL, run)) => ChildRun::digests(run).unwrap_or_default(),
            _ => Vec::new(),
        }
    }

    /// Max key of this node's content (used when building parents).
    pub fn max_key(&self) -> Option<Bytes> {
        match self {
            Node::Internal(children) => children.max_key(),
            Node::Leaf { entries, .. } => entries.last().map(|e| e.key.clone()),
        }
    }
}

impl PageNode for Node {
    fn decode_page(page: &Bytes) -> Result<Self> {
        Node::decode_zc(page)
    }

    fn page(&self) -> &Bytes {
        match self {
            Node::Internal(children) => children.page(),
            Node::Leaf { page, .. } => page,
        }
    }
}

impl OrderedNode for Node {
    fn entries(&self) -> Option<&[Entry]> {
        match self {
            Node::Leaf { entries, .. } => Some(entries),
            Node::Internal(_) => None,
        }
    }

    fn children(&self) -> &ChildRun {
        match self {
            Node::Leaf { .. } => ordered::no_children(),
            Node::Internal(children) => children,
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

    fn cr(k: &str, seed: &str) -> ChildRef {
        ChildRef { max_key: Bytes::copy_from_slice(k.as_bytes()), hash: sha256(seed.as_bytes()) }
    }

    /// The leaf of `entries`, decoded from its page.
    fn leaf(entries: Vec<Entry>) -> Node {
        Node::decode_zc(&Node::encode_leaf(&entries)).unwrap()
    }

    #[test]
    fn round_trips() {
        let leaf = leaf(vec![e("a", "1"), e("b", "2")]);
        assert_eq!(leaf.page(), &leaf.encode());
        assert_eq!(Node::decode_zc(&leaf.encode()).unwrap(), leaf);
        let internal = Node::Internal(ChildRun::new(&[cr("m", "c1"), cr("z", "c2")]));
        let page = internal.encode();
        assert_eq!(Node::decode_zc(&page).unwrap(), internal);
        assert_eq!(Node::decode_zc(&page).unwrap().page(), &page);
    }

    #[test]
    fn max_key() {
        assert_eq!(leaf(vec![e("a", "1"), e("q", "2")]).max_key().unwrap().as_ref(), b"q");
        assert_eq!(
            Node::Internal(ChildRun::new(&[cr("m", "x"), cr("z", "y")]))
                .max_key()
                .unwrap()
                .as_ref(),
            b"z"
        );
        assert!(leaf(Vec::new()).max_key().is_none());
    }

    #[test]
    fn routing() {
        let node = Node::Internal(ChildRun::new(&[cr("f", "1"), cr("m", "2"), cr("t", "3")]));
        assert_eq!(node.children().route(b"a"), Ok(0));
        assert_eq!(node.children().route(b"f"), Ok(0), "boundary key belongs left");
        assert_eq!(node.children().route(b"g"), Ok(1));
        assert_eq!(node.children().route(b"m"), Ok(1));
        assert_eq!(node.children().route(b"t"), Ok(2));
        assert_eq!(node.children().route(b"zz"), Ok(2), "beyond max clamps right");
    }

    #[test]
    fn decode_rejects_disorder_and_bad_tags() {
        let bad_leaf = Node::encode_leaf(&[e("b", "1"), e("a", "1")]);
        assert!(Node::decode_zc(&bad_leaf).is_err());
        let bad_internal = Node::Internal(ChildRun::new(&[cr("z", "1"), cr("a", "2")]));
        assert!(Node::decode_zc(&bad_internal.encode()).is_err());
        assert!(Node::decode_zc(&Bytes::from_static(&[0x55])).is_err());
        assert!(Node::decode_zc(&Bytes::from_static(&[TAG_INTERNAL, 0])).is_err(), "zero children");
    }
}
