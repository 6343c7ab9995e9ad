//! MPT node codec — the four node kinds of §3.4.1, RLP-encoded as in
//! Ethereum.
//!
//! * **branch** — 16 child slots (one per nibble) plus an optional value;
//! * **extension** — a compacted shared path and one child;
//! * **leaf** — a compacted terminal path and a value;
//! * **null** — represented by [`Hash::ZERO`], never stored.
//!
//! Wire format: branch = RLP list of 17 strings (empty string for an absent
//! child; 32-byte digest otherwise; slot 16 holds the value, marker-
//! prefixed); extension/leaf = RLP list of 2 strings (hex-prefix path,
//! then digest/value). One deviation from Ethereum, documented in
//! DESIGN.md: children are always referenced by digest — nodes under 32
//! bytes are not inlined into their parents.

use bytes::Bytes;
use siri_core::{IndexError, PageNode, Result};
use siri_crypto::Hash;
use siri_encoding::{rlp, Nibbles, RlpItem};

/// A decoded MPT node.
///
/// The Branch variant is much larger than the others (16 optional child
/// digests); nodes are short-lived decode products on the read path, so
/// boxing the array would add an allocation per branch visit for no
/// footprint win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// 16 children (by nibble) and an optional value terminating exactly
    /// at this position.
    Branch { children: [Option<Hash>; 16], value: Option<Bytes> },
    /// A run of nibbles shared by every key below, then one child.
    Extension { path: Nibbles, child: Hash },
    /// A terminal run of nibbles and the value.
    Leaf { path: Nibbles, value: Bytes },
}

/// Branch value slots need "absent" ≠ "empty value": absent encodes as the
/// empty string, present values carry a 0x01 marker byte.
fn value_slot_len(value: &Option<Bytes>) -> usize {
    match value {
        None => 1,                    // empty string: 0x80
        Some(v) if v.is_empty() => 1, // lone marker byte: single-byte literal
        Some(v) => rlp::str_header_len(v.len() + 1) + v.len() + 1,
    }
}

/// Stream the value slot: the marker byte and the borrowed value land in
/// `out` directly — no `0x01 ++ value` temporary.
fn write_value_slot(out: &mut Vec<u8>, value: &Option<Bytes>) {
    match value {
        None => rlp::write_str(out, &[]),
        Some(v) if v.is_empty() => out.push(0x01),
        Some(v) => {
            rlp::write_str_header(out, v.len() + 1);
            out.push(0x01);
            out.extend_from_slice(v);
        }
    }
}

/// Encoded length of a hex-prefix path as an RLP string. A one-byte
/// encoding starts with the flag nibble (≤ 0x3f), so it always takes the
/// single-byte literal form.
fn hp_str_len(path: &Nibbles) -> usize {
    let hp = path.hex_prefix_encoded_len();
    if hp == 1 {
        1
    } else {
        rlp::str_header_len(hp) + hp
    }
}

/// Stream a hex-prefix path as an RLP string, headerless when it is the
/// single-byte literal form.
fn write_hp_str(out: &mut Vec<u8>, path: &Nibbles, is_leaf: bool) {
    let hp = path.hex_prefix_encoded_len();
    if hp > 1 {
        rlp::write_str_header(out, hp);
    }
    path.hex_prefix_encode_into(is_leaf, out);
}

fn decode_value_slot(raw: &[u8]) -> Result<Option<Bytes>> {
    match raw.split_first() {
        None => Ok(None),
        Some((0x01, rest)) => Ok(Some(Bytes::copy_from_slice(rest))),
        Some(_) => Err(IndexError::CorruptStructure("bad branch value marker")),
    }
}

impl Node {
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        debug_assert_eq!(out.len(), self.encoded_len());
        Bytes::from(out)
    }

    /// RLP payload length (list items only, excluding the list header).
    fn payload_len(&self) -> usize {
        match self {
            Node::Branch { children, value } => {
                // Occupied child: 0xa0 header + 32-byte digest. Empty: 0x80.
                let kids: usize = children.iter().map(|c| if c.is_some() { 33 } else { 1 }).sum();
                kids + value_slot_len(value)
            }
            Node::Extension { path, .. } => hp_str_len(path) + 33,
            Node::Leaf { path, value } => hp_str_len(path) + rlp::str_encoded_len(value),
        }
    }

    /// Exact byte length of [`Node::encode`]'s output, computed without
    /// serializing — commit paths pre-size page buffers to it.
    pub fn encoded_len(&self) -> usize {
        let payload = self.payload_len();
        rlp::list_header_len(payload) + payload
    }

    /// Stream the canonical encoding into `out` — byte-identical to
    /// [`Node::encode`] but with zero intermediate allocations, so a commit
    /// can serialize every node into one reusable scratch buffer. (The old
    /// encoder built an [`RlpItem`] tree: ~18 short-lived `Vec`s per
    /// branch page.)
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        rlp::write_list_header(out, self.payload_len());
        match self {
            Node::Branch { children, value } => {
                for child in children {
                    match child {
                        Some(h) => rlp::write_str(out, h.as_bytes()),
                        None => rlp::write_str(out, &[]),
                    }
                }
                write_value_slot(out, value);
            }
            Node::Extension { path, child } => {
                write_hp_str(out, path, false);
                rlp::write_str(out, child.as_bytes());
            }
            Node::Leaf { path, value } => {
                write_hp_str(out, path, true);
                rlp::write_str(out, value);
            }
        }
    }

    /// Zero-copy decode: branch/leaf values are refcounted slices of the
    /// page — the hot read path, mirroring POS-Tree's `decode_zc`. A cache
    /// hit downstream therefore shares the page allocation instead of
    /// re-copying values out of it. Validation is byte-for-byte identical
    /// to [`Node::decode`] (both reject the same corrupt inputs).
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let ranges = rlp::flat_list_ranges(page)?;
        match ranges.len() {
            17 => {
                let mut children: [Option<Hash>; 16] = Default::default();
                for (i, range) in ranges[..16].iter().enumerate() {
                    let raw = &page[range.clone()];
                    children[i] = if raw.is_empty() {
                        None
                    } else {
                        Some(
                            Hash::from_slice(raw)
                                .ok_or(IndexError::CorruptStructure("bad child digest length"))?,
                        )
                    };
                }
                let vr = &ranges[16];
                let value = match page[vr.clone()].split_first() {
                    None => None,
                    Some((0x01, _)) => Some(page.slice(vr.start + 1..vr.end)),
                    Some(_) => return Err(IndexError::CorruptStructure("bad branch value marker")),
                };
                if value.is_none() && children.iter().all(Option::is_none) {
                    return Err(IndexError::CorruptStructure("empty branch node"));
                }
                Ok(Node::Branch { children, value })
            }
            2 => {
                let (path, is_leaf) = Nibbles::hex_prefix_decode(&page[ranges[0].clone()])
                    .ok_or(IndexError::CorruptStructure("bad hex-prefix path"))?;
                if is_leaf {
                    Ok(Node::Leaf { path, value: page.slice(ranges[1].clone()) })
                } else {
                    if path.is_empty() {
                        return Err(IndexError::CorruptStructure("empty extension path"));
                    }
                    let child = Hash::from_slice(&page[ranges[1].clone()])
                        .ok_or(IndexError::CorruptStructure("bad extension child digest"))?;
                    Ok(Node::Extension { path, child })
                }
            }
            _ => Err(IndexError::CorruptStructure("MPT node is neither branch nor pair")),
        }
    }

    pub fn decode(page: &[u8]) -> Result<Node> {
        let item = RlpItem::decode_all(page)?;
        let list = item.as_list()?;
        match list.len() {
            17 => {
                let mut children: [Option<Hash>; 16] = Default::default();
                for (i, slot) in list[..16].iter().enumerate() {
                    let raw = slot.as_bytes()?;
                    children[i] = if raw.is_empty() {
                        None
                    } else {
                        Some(
                            Hash::from_slice(raw)
                                .ok_or(IndexError::CorruptStructure("bad child digest length"))?,
                        )
                    };
                }
                let value = decode_value_slot(list[16].as_bytes()?)?;
                if value.is_none() && children.iter().all(Option::is_none) {
                    return Err(IndexError::CorruptStructure("empty branch node"));
                }
                Ok(Node::Branch { children, value })
            }
            2 => {
                let (path, is_leaf) = Nibbles::hex_prefix_decode(list[0].as_bytes()?)
                    .ok_or(IndexError::CorruptStructure("bad hex-prefix path"))?;
                let payload = list[1].as_bytes()?;
                if is_leaf {
                    Ok(Node::Leaf { path, value: Bytes::copy_from_slice(payload) })
                } else {
                    if path.is_empty() {
                        return Err(IndexError::CorruptStructure("empty extension path"));
                    }
                    let child = Hash::from_slice(payload)
                        .ok_or(IndexError::CorruptStructure("bad extension child digest"))?;
                    Ok(Node::Extension { path, child })
                }
            }
            _ => Err(IndexError::CorruptStructure("MPT node is neither branch nor pair")),
        }
    }

    /// Child digests referenced by a page — the store-walk decoder.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        match Node::decode(page) {
            Ok(Node::Branch { children, .. }) => children.into_iter().flatten().collect(),
            Ok(Node::Extension { child, .. }) => vec![child],
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

    fn nib(raw: &[u8]) -> Nibbles {
        Nibbles::from_raw(raw.to_vec())
    }

    #[test]
    fn leaf_round_trip() {
        let node = Node::Leaf { path: nib(&[1, 2, 3]), value: Bytes::from_static(b"val") };
        assert_eq!(Node::decode(&node.encode()).unwrap(), node);
        // Empty path and empty value are legal leaves.
        let node = Node::Leaf { path: Nibbles::empty(), value: Bytes::new() };
        assert_eq!(Node::decode(&node.encode()).unwrap(), node);
    }

    #[test]
    fn extension_round_trip() {
        let node = Node::Extension { path: nib(&[0xa]), child: sha256(b"child") };
        assert_eq!(Node::decode(&node.encode()).unwrap(), node);
    }

    #[test]
    fn branch_round_trip_with_and_without_value() {
        let mut children: [Option<Hash>; 16] = Default::default();
        children[3] = Some(sha256(b"c3"));
        children[15] = Some(sha256(b"c15"));
        for value in [None, Some(Bytes::from_static(b"v")), Some(Bytes::new())] {
            let node = Node::Branch { children, value: value.clone() };
            assert_eq!(Node::decode(&node.encode()).unwrap(), node, "value {value:?}");
        }
    }

    /// The streamed encoder must be byte-identical to a reference encoding
    /// built through the generic [`RlpItem`] tree — this is the
    /// digest-stability contract: a codec change that alters one byte
    /// changes every page address above it.
    #[test]
    fn streamed_encode_matches_rlp_item_reference() {
        fn reference(node: &Node) -> Vec<u8> {
            let item = match node {
                Node::Branch { children, value } => {
                    let mut items: Vec<RlpItem> = children
                        .iter()
                        .map(|c| match c {
                            Some(h) => RlpItem::bytes(h.as_bytes().to_vec()),
                            None => RlpItem::bytes(Vec::new()),
                        })
                        .collect();
                    items.push(match value {
                        None => RlpItem::bytes(Vec::new()),
                        Some(v) => {
                            let mut out = vec![0x01];
                            out.extend_from_slice(v);
                            RlpItem::bytes(out)
                        }
                    });
                    RlpItem::list(items)
                }
                Node::Extension { path, child } => RlpItem::list(vec![
                    RlpItem::bytes(path.hex_prefix_encode(false)),
                    RlpItem::bytes(child.as_bytes().to_vec()),
                ]),
                Node::Leaf { path, value } => RlpItem::list(vec![
                    RlpItem::bytes(path.hex_prefix_encode(true)),
                    RlpItem::bytes(value.to_vec()),
                ]),
            };
            item.encode()
        }
        let mut children: [Option<Hash>; 16] = Default::default();
        children[0] = Some(sha256(b"a"));
        children[7] = Some(sha256(b"b"));
        let full: [Option<Hash>; 16] = std::array::from_fn(|i| Some(sha256(&[i as u8])));
        let nodes = vec![
            Node::Leaf { path: Nibbles::empty(), value: Bytes::new() },
            Node::Leaf { path: nib(&[5]), value: Bytes::from_static(b"v") }, // 1-byte hex-prefix
            Node::Leaf { path: nib(&[1, 2]), value: Bytes::from(vec![0x7fu8]) }, // 1-byte literal value
            Node::Leaf { path: nib(&[1, 2, 3]), value: Bytes::from(vec![9u8; 300]) }, // long string
            Node::Extension { path: nib(&[0xf]), child: sha256(b"c") },
            Node::Extension { path: nib(&[1, 2, 3, 4]), child: sha256(b"c") },
            Node::Branch { children, value: None },
            Node::Branch { children, value: Some(Bytes::new()) },
            Node::Branch { children, value: Some(Bytes::from_static(b"value")) },
            Node::Branch { children: full, value: Some(Bytes::from(vec![3u8; 100])) },
        ];
        for node in nodes {
            let streamed = node.encode();
            assert_eq!(streamed.as_ref(), reference(&node).as_slice(), "{node:?}");
            assert_eq!(streamed.len(), node.encoded_len());
        }
    }

    #[test]
    fn empty_value_distinct_from_absent() {
        let mut children: [Option<Hash>; 16] = Default::default();
        children[0] = Some(sha256(b"c"));
        let absent = Node::Branch { children, value: None }.encode();
        let empty = Node::Branch { children, value: Some(Bytes::new()) }.encode();
        assert_ne!(absent, empty);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Node::decode(b"not rlp").is_err());
        // A 3-element list is no MPT node.
        let bad =
            RlpItem::list(vec![RlpItem::uint(1), RlpItem::uint(2), RlpItem::uint(3)]).encode();
        assert!(Node::decode(&bad).is_err());
        // Extension with empty path.
        let bad = RlpItem::list(vec![
            RlpItem::bytes(Nibbles::empty().hex_prefix_encode(false)),
            RlpItem::bytes(sha256(b"c").as_bytes().to_vec()),
        ])
        .encode();
        assert!(Node::decode(&bad).is_err());
        // Branch with all slots empty.
        let mut items = vec![RlpItem::bytes(Vec::new()); 16];
        items.push(RlpItem::bytes(Vec::new()));
        assert!(Node::decode(&RlpItem::list(items).encode()).is_err());
    }

    #[test]
    fn zero_copy_decode_matches_copying_decode() {
        let mut children: [Option<Hash>; 16] = Default::default();
        children[2] = Some(sha256(b"c2"));
        children[9] = Some(sha256(b"c9"));
        let nodes = vec![
            Node::Leaf { path: nib(&[1, 2, 3]), value: Bytes::from_static(b"value bytes") },
            Node::Leaf { path: Nibbles::empty(), value: Bytes::new() },
            Node::Extension { path: nib(&[0xa, 0xb]), child: sha256(b"child") },
            Node::Branch { children, value: Some(Bytes::from_static(b"bv")) },
            Node::Branch { children, value: None },
        ];
        for node in nodes {
            let page = node.encode();
            assert_eq!(Node::decode_zc(&page).unwrap(), node);
            assert_eq!(Node::decode(&page).unwrap(), node);
        }
        // Values are slices of the page (no copy).
        let leaf = Node::Leaf { path: nib(&[1]), value: Bytes::from_static(b"shared-payload") };
        let page = leaf.encode();
        let Node::Leaf { value, .. } = Node::decode_zc(&page).unwrap() else { panic!() };
        let base = page.as_ptr() as usize;
        let v = value.as_ptr() as usize;
        assert!(v > base && v < base + page.len(), "value must point into the page");
    }

    #[test]
    fn zero_copy_decode_rejects_what_decode_rejects() {
        let bad_inputs: Vec<Vec<u8>> = vec![
            b"not rlp".to_vec(),
            RlpItem::list(vec![RlpItem::uint(1), RlpItem::uint(2), RlpItem::uint(3)]).encode(),
            {
                // Branch with a non-0x01 value marker.
                let mut items = vec![RlpItem::bytes(sha256(b"c").as_bytes().to_vec())];
                items.extend(std::iter::repeat_n(RlpItem::bytes(Vec::new()), 15));
                items.push(RlpItem::bytes(vec![0x02, 0xff]));
                RlpItem::list(items).encode()
            },
        ];
        for raw in bad_inputs {
            let page = Bytes::from(raw.clone());
            assert!(Node::decode_zc(&page).is_err(), "input {raw:?}");
            assert!(Node::decode(&raw).is_err());
        }
    }

    #[test]
    fn children_decoder() {
        let ext = Node::Extension { path: nib(&[1]), child: sha256(b"c") };
        assert_eq!(Node::children_of_page(&ext.encode()), vec![sha256(b"c")]);
        let leaf = Node::Leaf { path: nib(&[1]), value: Bytes::from_static(b"v") };
        assert!(Node::children_of_page(&leaf.encode()).is_empty());
    }
}
