//! MBT page codec.
//!
//! Two page kinds:
//!
//! * **Internal** — the Merkle fan-in: child hashes in slot order.
//! * **Bucket** — sorted entries ("the entries within each bucket are
//!   arranged in sorted order", §3.4.2).
//!
//! Every page embeds the structure parameters (B, fanout) so that proof
//! verification needs nothing beyond the trusted digest, and so that pages
//! from differently-parameterised MBTs can never be confused.
//!
//! A decoded bucket also carries a key-prefix column ([`BucketEntries`]),
//! which range cursors search and merge on. It lives only in memory: the
//! page bytes, and so every digest, are the same with or without it.

use std::ops::Deref;

use bytes::Bytes;
use siri_core::{entry_codec, Entry, IndexError, PageNode, Result};
use siri_crypto::Hash;
use siri_encoding::{varint, ByteReader, ByteWriter, CodecError};

const TAG_INTERNAL: u8 = 0x01;
const TAG_BUCKET: u8 = 0x02;

/// The first 8 bytes of `key`, big-endian, zero-padded. Prefixes order
/// like keys up to ties — `a < b ⇒ key_prefix(a) ≤ key_prefix(b)` — so two
/// keys with different prefixes are ordered by them, and two with equal
/// prefixes (`ab` and `ab\0`, or a shared 8-byte stem) need a full compare.
pub fn key_prefix(key: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = key.len().min(8);
    word[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(word)
}

/// A bucket's sorted entries and, beside them, one contiguous
/// [`key_prefix`] per entry. A search compares the column's integers and
/// reads a key only inside a run of equal prefixes, instead of following
/// every probe's `Bytes` into the page buffer. The constructor is the only
/// place the column is built, so it cannot disagree with the entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketEntries {
    entries: Vec<Entry>,
    prefixes: Vec<u64>,
}

/// What an internal page holds in place of a bucket.
pub(crate) static NO_ENTRIES: BucketEntries =
    BucketEntries { entries: Vec::new(), prefixes: Vec::new() };

impl BucketEntries {
    pub fn new(entries: Vec<Entry>) -> Self {
        let prefixes = entries.iter().map(|e| key_prefix(&e.key)).collect();
        BucketEntries { entries, prefixes }
    }

    /// `prefixes()[i] == key_prefix(&self[i].key)`.
    pub fn prefixes(&self) -> &[u64] {
        &self.prefixes
    }
}

impl Deref for BucketEntries {
    type Target = [Entry];

    fn deref(&self) -> &[Entry] {
        &self.entries
    }
}

/// Decoded MBT page. It keeps the page it was decoded from
/// ([`PageNode::page`]); the write path encodes straight from parts
/// ([`Node::encode_internal`], [`Node::encode_bucket`]) and never builds one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Internal { buckets: u64, fanout: u64, children: Vec<Hash>, page: Bytes },
    Bucket { buckets: u64, fanout: u64, entries: BucketEntries, page: Bytes },
}

impl Node {
    pub fn params(&self) -> (u64, u64) {
        match self {
            Node::Internal { buckets, fanout, .. } | Node::Bucket { buckets, fanout, .. } => {
                (*buckets, *fanout)
            }
        }
    }

    /// Encode an internal page straight from its child digests, sized to
    /// its final length in one allocation.
    pub fn encode_internal(buckets: u64, fanout: u64, children: &[Hash]) -> Bytes {
        let len = 1
            + varint::len(buckets)
            + varint::len(fanout)
            + varint::len(children.len() as u64)
            + children.len() * Hash::LEN;
        let mut w = ByteWriter::with_capacity(len);
        w.put_u8(TAG_INTERNAL);
        w.put_varint(buckets);
        w.put_varint(fanout);
        w.put_varint(children.len() as u64);
        for c in children {
            w.put_raw(c.as_bytes());
        }
        debug_assert_eq!(w.len(), len);
        Bytes::from(w.into_vec())
    }

    /// Encode a bucket page straight from its entries — the write path's
    /// encoder, which never builds a prefix column. The page is sized to
    /// its final length in one allocation, and the entries stream straight
    /// into it.
    pub fn encode_bucket(buckets: u64, fanout: u64, entries: &[Entry]) -> Bytes {
        let len = 1
            + varint::len(buckets)
            + varint::len(fanout)
            + entry_codec::entries_encoded_len(entries);
        let mut w = ByteWriter::with_capacity(len);
        w.put_u8(TAG_BUCKET);
        w.put_varint(buckets);
        w.put_varint(fanout);
        entry_codec::encode_entries_into(&mut w, entries);
        debug_assert_eq!(w.len(), len);
        Bytes::from(w.into_vec())
    }

    /// Zero-copy decode — the one decoder.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let mut r = ByteReader::new(page);
        let tag = r.get_u8()?;
        let buckets = r.get_varint()?;
        let fanout = r.get_varint()?;
        match tag {
            TAG_INTERNAL => {
                let children = internal_children(&mut r)?;
                Ok(Node::Internal { buckets, fanout, children, page: page.clone() })
            }
            TAG_BUCKET => {
                // Buckets must be sorted for binary search: the entry codec
                // rejects a key out of order, so corrupted pages cannot
                // produce wrong lookups.
                let entries = BucketEntries::new(entry_codec::decode_entries_zc(page, r.offset())?);
                Ok(Node::Bucket { buckets, fanout, entries, page: page.clone() })
            }
            other => Err(CodecError::BadTag(other).into()),
        }
    }

    /// Child hashes referenced by a page — the store-walk decoder. A bucket
    /// says so in its tag byte and is not decoded; an internal page's
    /// digests are read in place.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        let mut r = ByteReader::new(page);
        match (r.get_u8(), r.get_varint(), r.get_varint()) {
            (Ok(TAG_INTERNAL), Ok(_), Ok(_)) => internal_children(&mut r).unwrap_or_default(),
            _ => Vec::new(),
        }
    }
}

/// The rest of an internal page after its parameters: the child count,
/// then one digest per child, then nothing.
fn internal_children(r: &mut ByteReader) -> Result<Vec<Hash>> {
    let count = r.get_varint()?;
    // One digest per child: the bytes left bound the reservation.
    if count > (r.remaining() / Hash::LEN) as u64 {
        return Err(CodecError::BadLength { what: "child count" }.into());
    }
    let mut children = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let raw = r.get_raw(Hash::LEN)?;
        let child =
            Hash::from_slice(raw).ok_or(IndexError::CorruptStructure("bad child digest length"))?;
        children.push(child);
    }
    r.finish()?;
    Ok(children)
}

impl PageNode for Node {
    fn decode_page(page: &Bytes) -> Result<Self> {
        Node::decode_zc(page)
    }

    fn page(&self) -> &Bytes {
        match self {
            Node::Internal { page, .. } | Node::Bucket { page, .. } => page,
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

    #[test]
    fn internal_round_trip() {
        let children = vec![sha256(b"a"), sha256(b"b"), sha256(b"c")];
        let enc = Node::encode_internal(1000, 4, &children);
        let node = Node::decode_zc(&enc).unwrap();
        assert_eq!(node, Node::Internal { buckets: 1000, fanout: 4, children, page: enc.clone() });
        assert_eq!(node.page().as_ptr(), enc.as_ptr(), "the node keeps the page, uncopied");
    }

    #[test]
    fn bucket_round_trip() {
        let entries = vec![e("a", "1"), e("b", "2")];
        let enc = Node::encode_bucket(8, 2, &entries);
        let node = Node::decode_zc(&enc).unwrap();
        let entries = BucketEntries::new(entries);
        assert_eq!(node, Node::Bucket { buckets: 8, fanout: 2, entries, page: enc.clone() });
        assert_eq!(node.page().as_ptr(), enc.as_ptr(), "the node keeps the page, uncopied");
    }

    #[test]
    fn empty_bucket_pages_are_identical() {
        // All-empty buckets must share one page — this is what makes the
        // fixed MBT skeleton cheap under content addressing.
        let a = Node::encode_bucket(8, 2, &[]);
        let b = Node::encode_bucket(8, 2, &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_unsorted_bucket() {
        // encode_bucket() doesn't sort; decode must reject a descent, a
        // descent hidden behind equal prefixes, and a repeated key.
        for pair in [["b", "a"], ["ab\0", "ab"], ["abcdefgh2", "abcdefgh1"], ["k", "k"]] {
            let page = Node::encode_bucket(8, 2, &[e(pair[0], "1"), e(pair[1], "2")]);
            assert!(
                matches!(Node::decode_zc(&page), Err(IndexError::CorruptStructure(_))),
                "{pair:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        assert!(Node::decode_zc(&Bytes::from_static(&[0x77, 0, 0])).is_err());
        let enc = Node::encode_internal(4, 2, &[sha256(b"x")]);
        assert!(Node::decode_zc(&enc.slice(..enc.len() - 1)).is_err());
        assert!(Node::children_of_page(&enc[..enc.len() - 1]).is_empty());
    }

    #[test]
    fn children_decoder_for_walks() {
        let inner = Node::encode_internal(4, 2, &[sha256(b"x")]);
        assert_eq!(Node::children_of_page(&inner), vec![sha256(b"x")]);
        assert!(Node::children_of_page(&Node::encode_bucket(4, 2, &[])).is_empty());
    }
}
