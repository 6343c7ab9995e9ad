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

use bytes::Bytes;
use siri_core::{entry_codec, Entry, IndexError, PageNode, Result};
use siri_crypto::Hash;
use siri_encoding::{ByteReader, ByteWriter, CodecError};

const TAG_INTERNAL: u8 = 0x01;
const TAG_BUCKET: u8 = 0x02;

/// Decoded MBT page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Internal { buckets: u64, fanout: u64, children: Vec<Hash> },
    Bucket { buckets: u64, fanout: u64, entries: Vec<Entry> },
}

impl Node {
    pub fn params(&self) -> (u64, u64) {
        match self {
            Node::Internal { buckets, fanout, .. } | Node::Bucket { buckets, fanout, .. } => {
                (*buckets, *fanout)
            }
        }
    }

    pub fn encode(&self) -> Bytes {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        self.encode_into(&mut w);
        debug_assert_eq!(w.len(), self.encoded_len());
        Bytes::from(w.into_vec())
    }

    /// Exact byte length of [`Node::encode`]'s output — pages are sized to
    /// their final length in one allocation.
    pub fn encoded_len(&self) -> usize {
        use siri_encoding::varint;
        match self {
            Node::Internal { buckets, fanout, children } => {
                1 + varint::len(*buckets)
                    + varint::len(*fanout)
                    + varint::len(children.len() as u64)
                    + children.len() * Hash::LEN
            }
            Node::Bucket { buckets, fanout, entries } => {
                1 + varint::len(*buckets)
                    + varint::len(*fanout)
                    + entry_codec::entries_encoded_len(entries)
            }
        }
    }

    /// Serialize into an existing writer — entries stream straight into the
    /// page buffer instead of transiting a temporary `Vec`.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Node::Internal { buckets, fanout, children } => {
                w.put_u8(TAG_INTERNAL);
                w.put_varint(*buckets);
                w.put_varint(*fanout);
                w.put_varint(children.len() as u64);
                for c in children {
                    w.put_raw(c.as_bytes());
                }
            }
            Node::Bucket { buckets, fanout, entries } => {
                w.put_u8(TAG_BUCKET);
                w.put_varint(*buckets);
                w.put_varint(*fanout);
                entry_codec::encode_entries_into(w, entries);
            }
        }
    }

    /// Copying decode (tests, diagnostics, store walks).
    pub fn decode(page: &[u8]) -> Result<Node> {
        Self::decode_zc(&Bytes::copy_from_slice(page))
    }

    /// Zero-copy decode — the hot read path.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let mut r = ByteReader::new(page);
        let tag = r.get_u8()?;
        let buckets = r.get_varint()?;
        let fanout = r.get_varint()?;
        match tag {
            TAG_INTERNAL => {
                let count = r.get_varint()?;
                if count > page.len() as u64 / Hash::LEN as u64 + 1 {
                    return Err(CodecError::BadLength { what: "child count" }.into());
                }
                let mut children = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let raw = r.get_raw(Hash::LEN)?;
                    let child = Hash::from_slice(raw)
                        .ok_or(IndexError::CorruptStructure("bad child digest length"))?;
                    children.push(child);
                }
                r.finish()?;
                Ok(Node::Internal { buckets, fanout, children })
            }
            TAG_BUCKET => {
                let entries = entry_codec::decode_entries_zc(page, r.offset())?;
                // Buckets must be sorted for binary search; enforce on
                // decode so corrupted pages cannot produce wrong lookups.
                if entries.windows(2).any(|w| w[0].key >= w[1].key) {
                    return Err(IndexError::CorruptStructure("unsorted bucket"));
                }
                Ok(Node::Bucket { buckets, fanout, entries })
            }
            other => Err(CodecError::BadTag(other).into()),
        }
    }

    /// Child hashes referenced by a page — the store-walk decoder. A bucket
    /// says so in its tag byte and is not decoded.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        if page.first() == Some(&TAG_BUCKET) {
            return Vec::new();
        }
        match Node::decode(page) {
            Ok(Node::Internal { children, .. }) => children,
            _ => Vec::new(),
        }
    }
}

impl PageNode for Node {
    fn decode_page(page: &Bytes) -> Result<Self> {
        Node::decode_zc(page)
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
        let node = Node::Internal {
            buckets: 1000,
            fanout: 4,
            children: vec![sha256(b"a"), sha256(b"b"), sha256(b"c")],
        };
        let enc = node.encode();
        assert_eq!(Node::decode(&enc).unwrap(), node);
    }

    #[test]
    fn bucket_round_trip() {
        let node = Node::Bucket { buckets: 8, fanout: 2, entries: vec![e("a", "1"), e("b", "2")] };
        let enc = node.encode();
        assert_eq!(Node::decode(&enc).unwrap(), node);
    }

    #[test]
    fn empty_bucket_pages_are_identical() {
        // All-empty buckets must share one page — this is what makes the
        // fixed MBT skeleton cheap under content addressing.
        let a = Node::Bucket { buckets: 8, fanout: 2, entries: Vec::new() }.encode();
        let b = Node::Bucket { buckets: 8, fanout: 2, entries: Vec::new() }.encode();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_unsorted_bucket() {
        let node = Node::Bucket { buckets: 8, fanout: 2, entries: vec![e("b", "2"), e("a", "1")] };
        // encode() doesn't sort; decode must reject.
        assert!(matches!(Node::decode(&node.encode()), Err(IndexError::CorruptStructure(_))));
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        assert!(Node::decode(&[0x77, 0, 0]).is_err());
        let node = Node::Internal { buckets: 4, fanout: 2, children: vec![sha256(b"x")] };
        let enc = node.encode();
        assert!(Node::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn children_decoder_for_walks() {
        let inner = Node::Internal { buckets: 4, fanout: 2, children: vec![sha256(b"x")] };
        assert_eq!(Node::children_of_page(&inner.encode()), vec![sha256(b"x")]);
        let bucket = Node::Bucket { buckets: 4, fanout: 2, entries: Vec::new() };
        assert!(Node::children_of_page(&bucket.encode()).is_empty());
    }
}
