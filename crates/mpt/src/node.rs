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
use siri_encoding::{rlp, Nibbles};

/// A decoded MPT node. Each kind keeps the page it was decoded from
/// ([`PageNode::page`]); a node the commit path builds to be encoded has
/// none yet (`Bytes::new()`).
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
    Branch { children: [Option<Hash>; 16], value: Option<Bytes>, page: Bytes },
    /// A run of nibbles shared by every key below, then one child.
    Extension { path: Nibbles, child: Hash, page: Bytes },
    /// A terminal run of nibbles and the value.
    Leaf { path: Nibbles, value: Bytes, page: Bytes },
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

/// A branch's child slot: empty, or a 32-byte digest.
fn child_slot(raw: &[u8]) -> Result<Option<Hash>> {
    if raw.is_empty() {
        return Ok(None);
    }
    Hash::from_slice(raw).map(Some).ok_or(IndexError::CorruptStructure("bad child digest length"))
}

/// An extension's path and child, or a leaf's path alone (`None`).
fn pair_path(hp: &[u8], payload: &[u8]) -> Result<(Nibbles, Option<Hash>)> {
    let (path, is_leaf) = Nibbles::hex_prefix_decode(hp)
        .ok_or(IndexError::CorruptStructure("bad hex-prefix path"))?;
    if is_leaf {
        return Ok((path, None));
    }
    if path.is_empty() {
        return Err(IndexError::CorruptStructure("empty extension path"));
    }
    let child = Hash::from_slice(payload)
        .ok_or(IndexError::CorruptStructure("bad extension child digest"))?;
    Ok((path, Some(child)))
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
            Node::Branch { children, value, .. } => {
                // Occupied child: 0xa0 header + 32-byte digest. Empty: 0x80.
                let kids: usize = children.iter().map(|c| if c.is_some() { 33 } else { 1 }).sum();
                kids + value_slot_len(value)
            }
            Node::Extension { path, .. } => hp_str_len(path) + 33,
            Node::Leaf { path, value, .. } => hp_str_len(path) + rlp::str_encoded_len(value),
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
    /// encoder built an [`RlpItem`](siri_encoding::RlpItem) tree: ~18
    /// short-lived `Vec`s per branch page.)
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        rlp::write_list_header(out, self.payload_len());
        match self {
            Node::Branch { children, value, .. } => {
                for child in children {
                    match child {
                        Some(h) => rlp::write_str(out, h.as_bytes()),
                        None => rlp::write_str(out, &[]),
                    }
                }
                write_value_slot(out, value);
            }
            Node::Extension { path, child, .. } => {
                write_hp_str(out, path, false);
                rlp::write_str(out, child.as_bytes());
            }
            Node::Leaf { path, value, .. } => {
                write_hp_str(out, path, true);
                rlp::write_str(out, value);
            }
        }
    }

    /// Zero-copy decode: branch/leaf values are refcounted slices of the
    /// page — the one decoder. A cache hit downstream therefore shares the
    /// page allocation instead of re-copying values out of it.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let ranges = rlp::flat_list_ranges(page)?;
        match ranges.len() {
            17 => {
                let mut children: [Option<Hash>; 16] = Default::default();
                for (slot, range) in children.iter_mut().zip(&ranges[..16]) {
                    *slot = child_slot(&page[range.clone()])?;
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
                Ok(Node::Branch { children, value, page: page.clone() })
            }
            2 => match pair_path(&page[ranges[0].clone()], &page[ranges[1].clone()])? {
                (path, None) => Ok(Node::Leaf {
                    path,
                    value: page.slice(ranges[1].clone()),
                    page: page.clone(),
                }),
                (path, Some(child)) => Ok(Node::Extension { path, child, page: page.clone() }),
            },
            _ => Err(IndexError::CorruptStructure("MPT node is neither branch nor pair")),
        }
    }

    /// Child digests referenced by a page — the store-walk decoder, which
    /// reads the slots in place and builds no node. A page that does not
    /// parse has none.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        let Ok(ranges) = rlp::flat_list_ranges(page) else {
            return Vec::new();
        };
        let slot = |i: usize| &page[ranges[i].clone()];
        match ranges.len() {
            17 => (0..16)
                .map(|i| child_slot(slot(i)))
                .collect::<Result<Vec<_>>>()
                .map(|slots| slots.into_iter().flatten().collect())
                .unwrap_or_default(),
            2 => match pair_path(slot(0), slot(1)) {
                Ok((_, Some(child))) => vec![child],
                _ => Vec::new(),
            },
            _ => Vec::new(),
        }
    }
}

impl PageNode for Node {
    fn decode_page(page: &Bytes) -> Result<Self> {
        Node::decode_zc(page)
    }

    fn page(&self) -> &Bytes {
        match self {
            Node::Branch { page, .. } | Node::Extension { page, .. } | Node::Leaf { page, .. } => {
                page
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_crypto::sha256;
    use siri_encoding::RlpItem;

    fn nib(raw: &[u8]) -> Nibbles {
        Nibbles::from_raw(raw.to_vec())
    }

    fn leaf(path: Nibbles, value: Bytes) -> Node {
        Node::Leaf { path, value, page: Bytes::new() }
    }

    fn ext(path: Nibbles, child: Hash) -> Node {
        Node::Extension { path, child, page: Bytes::new() }
    }

    fn branch(children: [Option<Hash>; 16], value: Option<Bytes>) -> Node {
        Node::Branch { children, value, page: Bytes::new() }
    }

    /// `node` encodes to a page that decodes back to its content, holding
    /// that page.
    fn round_trip(node: Node) {
        let page = node.encode();
        let back = Node::decode_zc(&page).unwrap();
        let want = match node {
            Node::Branch { children, value, .. } => Node::Branch { children, value, page },
            Node::Extension { path, child, .. } => Node::Extension { path, child, page },
            Node::Leaf { path, value, .. } => Node::Leaf { path, value, page },
        };
        assert_eq!(back, want);
        assert_eq!(back.page(), want.page());
    }

    #[test]
    fn leaf_round_trip() {
        round_trip(leaf(nib(&[1, 2, 3]), Bytes::from_static(b"val")));
        // Empty path and empty value are legal leaves.
        round_trip(leaf(Nibbles::empty(), Bytes::new()));
    }

    #[test]
    fn extension_round_trip() {
        round_trip(ext(nib(&[0xa]), sha256(b"child")));
    }

    #[test]
    fn branch_round_trip_with_and_without_value() {
        let mut children: [Option<Hash>; 16] = Default::default();
        children[3] = Some(sha256(b"c3"));
        children[15] = Some(sha256(b"c15"));
        for value in [None, Some(Bytes::from_static(b"v")), Some(Bytes::new())] {
            round_trip(branch(children, value));
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
                Node::Branch { children, value, .. } => {
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
                Node::Extension { path, child, .. } => RlpItem::list(vec![
                    RlpItem::bytes(path.hex_prefix_encode(false)),
                    RlpItem::bytes(child.as_bytes().to_vec()),
                ]),
                Node::Leaf { path, value, .. } => RlpItem::list(vec![
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
            leaf(Nibbles::empty(), Bytes::new()),
            leaf(nib(&[5]), Bytes::from_static(b"v")), // 1-byte hex-prefix
            leaf(nib(&[1, 2]), Bytes::from(vec![0x7fu8])), // 1-byte literal value
            leaf(nib(&[1, 2, 3]), Bytes::from(vec![9u8; 300])), // long string
            ext(nib(&[0xf]), sha256(b"c")),
            ext(nib(&[1, 2, 3, 4]), sha256(b"c")),
            branch(children, None),
            branch(children, Some(Bytes::new())),
            branch(children, Some(Bytes::from_static(b"value"))),
            branch(full, Some(Bytes::from(vec![3u8; 100]))),
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
        let absent = branch(children, None).encode();
        let empty = branch(children, Some(Bytes::new())).encode();
        assert_ne!(absent, empty);
    }

    #[test]
    fn rejects_malformed() {
        let bad_inputs: Vec<Vec<u8>> = vec![
            b"not rlp".to_vec(),
            // A 3-element list is no MPT node.
            RlpItem::list(vec![RlpItem::uint(1), RlpItem::uint(2), RlpItem::uint(3)]).encode(),
            // Extension with empty path.
            RlpItem::list(vec![
                RlpItem::bytes(Nibbles::empty().hex_prefix_encode(false)),
                RlpItem::bytes(sha256(b"c").as_bytes().to_vec()),
            ])
            .encode(),
            // Branch with all slots empty.
            RlpItem::list(vec![RlpItem::bytes(Vec::new()); 17]).encode(),
        ];
        for raw in bad_inputs {
            assert!(Node::decode_zc(&Bytes::from(raw.clone())).is_err(), "input {raw:?}");
        }
    }

    #[test]
    fn zero_copy_decode_rejects_what_decode_rejects() {
        // The store reads pages through `PageNode::decode_page`; it must
        // refuse exactly what `decode_zc` refuses.
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
            assert!(<Node as PageNode>::decode_page(&page).is_err(), "input {raw:?}");
        }
    }

    #[test]
    fn decode_shares_the_page() {
        // Values are slices of the page (no copy), and the node keeps it.
        let page = leaf(nib(&[1]), Bytes::from_static(b"shared-payload")).encode();
        let node = Node::decode_zc(&page).unwrap();
        let Node::Leaf { value, .. } = &node else { panic!() };
        let base = page.as_ptr() as usize;
        let v = value.as_ptr() as usize;
        assert!(v > base && v < base + page.len(), "value must point into the page");
        assert_eq!(node.page().as_ptr(), page.as_ptr(), "the node keeps the page, uncopied");
    }

    #[test]
    fn children_decoder() {
        let ext_page = ext(nib(&[1]), sha256(b"c")).encode();
        assert_eq!(Node::children_of_page(&ext_page), vec![sha256(b"c")]);
        assert!(
            Node::children_of_page(&leaf(nib(&[1]), Bytes::from_static(b"v")).encode()).is_empty()
        );
        let mut children: [Option<Hash>; 16] = Default::default();
        children[2] = Some(sha256(b"c2"));
        children[9] = Some(sha256(b"c9"));
        let page = branch(children, Some(Bytes::from_static(b"bv"))).encode();
        assert_eq!(Node::children_of_page(&page), vec![sha256(b"c2"), sha256(b"c9")]);
        assert!(Node::children_of_page(&page[..page.len() - 1]).is_empty(), "truncated");
        assert!(Node::children_of_page(b"not rlp").is_empty());
    }
}
