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
//!
//! A decoded node is a view of its page (DESIGN.md §11 *The in-place
//! node*): one pass over the RLP list fills a fixed table of offsets, and
//! children, values and paths are read from the page when asked.

use bytes::Bytes;
use siri_core::{IndexError, PageNode, Result};
use siri_crypto::Hash;
use siri_encoding::{rlp, FlatList, NibbleView};

/// A decoded MPT node: its page and where in the page each part lies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// 16 children (by nibble) and an optional value terminating exactly
    /// at this position.
    Branch(Branch),
    /// A run of nibbles shared by every key below, then one child.
    Extension(Extension),
    /// A terminal run of nibbles and the value.
    Leaf(Leaf),
}

// Every read decodes or shares one of these per node it visits; the
// offsets keep it small whatever the page holds.
const _: () = assert!(std::mem::size_of::<Node>() <= 128);

/// A byte range of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of(range: std::ops::Range<usize>) -> Span {
        // `parse` refuses pages of 2 GiB and more.
        Span { start: range.start as u32, end: range.end as u32 }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A hex-prefix path inside a page, in nibbles of the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    fn view(self, page: &[u8]) -> NibbleView<'_> {
        NibbleView::new(page, self.start as usize, self.len as usize)
    }
}

/// A branch page: where each child digest starts, and the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    page: Bytes,
    /// Offset of child `i`'s 32-byte digest, 0 for an empty slot (offset 0
    /// is the list header, never a payload). A digest starts within the
    /// first 505 bytes of a page (a list header of at most 9 bytes, at
    /// most 15 slots of 33 bytes, one string header), so 16 bits hold it.
    children: [u16; 16],
    /// The value after its marker byte, `None` when the slot is empty.
    value: Option<Span>,
}

impl Branch {
    /// Child `nib`'s digest as it lies in the page.
    pub fn digest(&self, nib: usize) -> Option<&[u8; 32]> {
        match self.children[nib] as usize {
            0 => None,
            at => <&[u8; 32]>::try_from(&self.page[at..at + Hash::LEN]).ok(),
        }
    }

    /// Child `nib`, if the slot is occupied.
    pub fn child(&self, nib: usize) -> Option<Hash> {
        self.digest(nib).map(|d| Hash::from_bytes(*d))
    }

    /// The occupied slots in nibble order.
    pub fn children(&self) -> impl DoubleEndedIterator<Item = (usize, Hash)> + '_ {
        (0..16).filter_map(|nib| self.child(nib).map(|h| (nib, h)))
    }

    /// The value terminating here, a slice of the page.
    pub fn value(&self) -> Option<Bytes> {
        self.value.map(|v| self.page.slice(v.range()))
    }

    pub fn has_value(&self) -> bool {
        self.value.is_some()
    }
}

/// An extension page: its path and where its child's digest starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extension {
    page: Bytes,
    path: Run,
    child: u32,
}

impl Extension {
    /// The compacted run, read in place.
    pub fn path(&self) -> NibbleView<'_> {
        self.path.view(&self.page)
    }

    pub fn child(&self) -> Hash {
        let at = self.child as usize;
        let mut digest = [0u8; Hash::LEN];
        digest.copy_from_slice(&self.page[at..at + Hash::LEN]);
        Hash::from_bytes(digest)
    }

    /// The path as a window of the page, for the commit overlay.
    pub(crate) fn path_buf(&self) -> Path {
        Path::window(&self.page, self.path)
    }
}

/// A leaf page: its path and its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leaf {
    page: Bytes,
    path: Run,
    value: Span,
}

impl Leaf {
    /// The terminal run, read in place.
    pub fn path(&self) -> NibbleView<'_> {
        self.path.view(&self.page)
    }

    /// The value, a slice of the page.
    pub fn value(&self) -> Bytes {
        self.page.slice(self.value.range())
    }

    /// The path as a window of the page, for the commit overlay.
    pub(crate) fn path_buf(&self) -> Path {
        Path::window(&self.page, self.path)
    }
}

/// A nibble path held as a window of a refcounted buffer — a page or a
/// key — so the commit overlay and the diff walk slice paths by moving
/// two numbers instead of copying nibbles.
#[derive(Clone)]
pub(crate) struct Path {
    buf: Bytes,
    start: usize,
    len: usize,
}

impl Path {
    pub(crate) fn empty() -> Path {
        Path { buf: Bytes::new(), start: 0, len: 0 }
    }

    /// Every nibble of `key`.
    pub(crate) fn key(key: &Bytes) -> Path {
        Path { buf: key.clone(), start: 0, len: key.len() * 2 }
    }

    fn window(page: &Bytes, run: Run) -> Path {
        Path { buf: page.clone(), start: run.start as usize, len: run.len as usize }
    }

    /// `nibbles`, packed into a buffer of their own — what deletion's
    /// path merges build.
    pub(crate) fn packed(nibbles: impl Iterator<Item = u8>) -> Path {
        let mut buf = Vec::new();
        let mut len = 0usize;
        for n in nibbles {
            if len.is_multiple_of(2) {
                buf.push(n << 4);
            } else if let Some(last) = buf.last_mut() {
                *last |= n;
            }
            len += 1;
        }
        Path { buf: Bytes::from(buf), start: 0, len }
    }

    pub(crate) fn view(&self) -> NibbleView<'_> {
        NibbleView::new(&self.buf, self.start, self.len)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn at(&self, i: usize) -> u8 {
        self.view().at(i)
    }

    /// The path from nibble `from` on.
    pub(crate) fn suffix(&self, from: usize) -> Path {
        assert!(from <= self.len, "suffix {from} of {}", self.len);
        Path { buf: self.buf.clone(), start: self.start + from, len: self.len - from }
    }

    /// The first `len` nibbles.
    pub(crate) fn prefix(&self, len: usize) -> Path {
        assert!(len <= self.len, "prefix {len} of {}", self.len);
        Path { buf: self.buf.clone(), start: self.start, len }
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Path {}

/// Where each part of a page lies, before the page is attached.
enum Offsets {
    Branch { children: [u16; 16], value: Option<Span> },
    Extension { path: Run, child: u32 },
    Leaf { path: Run, value: Span },
}

fn corrupt(what: &'static str) -> IndexError {
    IndexError::CorruptStructure(what)
}

/// The one pass over a page: RLP list, slot shapes, hex-prefix flag.
fn parse(page: &[u8]) -> Result<Offsets> {
    // Offsets are kept as `u32` nibble indexes.
    if page.len() > (u32::MAX / 2) as usize {
        return Err(corrupt("MPT page too large"));
    }
    let list = FlatList::<17>::parse(page)?;
    match list.len() {
        17 => {
            let mut children = [0u16; 16];
            let mut any = false;
            for (nib, slot) in children.iter_mut().enumerate() {
                let r = list.range(nib);
                match r.len() {
                    0 => {}
                    // Below 505: see `Branch::children`.
                    Hash::LEN => {
                        *slot = r.start as u16;
                        any = true;
                    }
                    _ => return Err(corrupt("bad child digest length")),
                }
            }
            let v = list.range(16);
            let value = match page[v.clone()].first() {
                None => None,
                Some(0x01) => Some(Span::of(v.start + 1..v.end)),
                Some(_) => return Err(corrupt("bad branch value marker")),
            };
            if value.is_none() && !any {
                return Err(corrupt("empty branch node"));
            }
            Ok(Offsets::Branch { children, value })
        }
        2 => {
            let hp = list.range(0);
            let payload = list.range(1);
            let (path, is_leaf) =
                NibbleView::hex_prefix(&page[hp.clone()]).ok_or(corrupt("bad hex-prefix path"))?;
            let path = Run { start: (2 * hp.start + path.start()) as u32, len: path.len() as u32 };
            if is_leaf {
                return Ok(Offsets::Leaf { path, value: Span::of(payload) });
            }
            if path.len == 0 {
                return Err(corrupt("empty extension path"));
            }
            if payload.len() != Hash::LEN {
                return Err(corrupt("bad extension child digest"));
            }
            Ok(Offsets::Extension { path, child: payload.start as u32 })
        }
        _ => Err(corrupt("MPT node is neither branch nor pair")),
    }
}

/// Branch value slots need "absent" ≠ "empty value": absent encodes as the
/// empty string, present values carry a 0x01 marker byte.
fn value_slot_len(value: Option<&[u8]>) -> usize {
    match value {
        None => 1,     // empty string: 0x80
        Some([]) => 1, // lone marker byte: single-byte literal
        Some(v) => rlp::str_header_len(v.len() + 1) + v.len() + 1,
    }
}

/// Stream the value slot: the marker byte and the borrowed value land in
/// `out` directly — no `0x01 ++ value` temporary.
fn write_value_slot(out: &mut Vec<u8>, value: Option<&[u8]>) {
    match value {
        None => rlp::write_str(out, &[]),
        Some([]) => out.push(0x01),
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
fn hp_str_len(path: NibbleView<'_>) -> usize {
    let hp = path.hex_prefix_encoded_len();
    if hp == 1 {
        1
    } else {
        rlp::str_header_len(hp) + hp
    }
}

/// A page of `payload` list bytes, written by `write` into one buffer of
/// exactly the page's size.
fn page_of(payload: usize, write: impl FnOnce(&mut Vec<u8>)) -> Bytes {
    let len = rlp::list_header_len(payload) + payload;
    let mut out = Vec::with_capacity(len);
    rlp::write_list_header(&mut out, payload);
    write(&mut out);
    debug_assert_eq!(out.len(), len);
    Bytes::from(out)
}

/// Encode a branch page from its parts, each borrowed where it lies.
pub(crate) fn branch_page(children: &[Option<&[u8; 32]>; 16], value: Option<&[u8]>) -> Bytes {
    // Occupied child: 0xa0 header + 32-byte digest. Empty: 0x80.
    let kids: usize = children.iter().map(|c| if c.is_some() { 33 } else { 1 }).sum();
    page_of(kids + value_slot_len(value), |out| {
        for child in children {
            rlp::write_str(out, child.map_or(&[][..], |d| &d[..]));
        }
        write_value_slot(out, value);
    })
}

/// Encode a leaf (`payload` = value) or extension (`payload` = child
/// digest) page from its parts.
pub(crate) fn pair_page(path: NibbleView<'_>, is_leaf: bool, payload: &[u8]) -> Bytes {
    page_of(hp_str_len(path) + rlp::str_encoded_len(payload), |out| {
        let hp = path.hex_prefix_encoded_len();
        if hp > 1 {
            rlp::write_str_header(out, hp);
        }
        path.hex_prefix_encode_into(is_leaf, out);
        rlp::write_str(out, payload);
    })
}

impl Node {
    /// Zero-copy decode — the one decoder. The node keeps the page and
    /// the offsets of its parts; nothing is copied out of it.
    pub fn decode_zc(page: &Bytes) -> Result<Node> {
        let page = page.clone();
        Ok(match parse(&page)? {
            Offsets::Branch { children, value } => Node::Branch(Branch { page, children, value }),
            Offsets::Extension { path, child } => Node::Extension(Extension { page, path, child }),
            Offsets::Leaf { path, value } => Node::Leaf(Leaf { page, path, value }),
        })
    }

    /// Child digests referenced by a page — the store-walk decoder, which
    /// reads the offsets in place and builds no node. A page that does not
    /// parse has none.
    pub fn children_of_page(page: &[u8]) -> Vec<Hash> {
        let digest = |at: usize| {
            let mut d = [0u8; Hash::LEN];
            d.copy_from_slice(&page[at..at + Hash::LEN]);
            Hash::from_bytes(d)
        };
        match parse(page) {
            Ok(Offsets::Branch { children, .. }) => {
                children.iter().filter(|&&at| at != 0).map(|&at| digest(at as usize)).collect()
            }
            Ok(Offsets::Extension { child, .. }) => vec![digest(child as usize)],
            Ok(Offsets::Leaf { .. }) | Err(_) => Vec::new(),
        }
    }
}

impl PageNode for Node {
    fn decode_page(page: &Bytes) -> Result<Self> {
        Node::decode_zc(page)
    }

    fn page(&self) -> &Bytes {
        match self {
            Node::Branch(Branch { page, .. })
            | Node::Extension(Extension { page, .. })
            | Node::Leaf(Leaf { page, .. }) => page,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_crypto::sha256;
    use siri_encoding::{Nibbles, RlpItem};

    fn nib(raw: &[u8]) -> Nibbles {
        Nibbles::from_raw(raw.to_vec())
    }

    /// A node's parts, as the pre-view codec held them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Parts {
        Branch { children: Box<[Option<Hash>; 16]>, value: Option<Bytes> },
        Extension { path: Nibbles, child: Hash },
        Leaf { path: Nibbles, value: Bytes },
    }

    fn leaf(path: Nibbles, value: Bytes) -> Parts {
        Parts::Leaf { path, value }
    }

    fn ext(path: Nibbles, child: Hash) -> Parts {
        Parts::Extension { path, child }
    }

    fn branch(children: [Option<Hash>; 16], value: Option<Bytes>) -> Parts {
        Parts::Branch { children: Box::new(children), value }
    }

    fn packed(nibbles: &Nibbles) -> Path {
        Path::packed(nibbles.as_slice().iter().copied())
    }

    fn encode(parts: &Parts) -> Bytes {
        match parts {
            Parts::Branch { children, value } => branch_page(
                &std::array::from_fn(|i| children[i].as_ref().map(Hash::as_bytes)),
                value.as_deref(),
            ),
            Parts::Extension { path, child } => {
                pair_page(packed(path).view(), false, child.as_bytes())
            }
            Parts::Leaf { path, value } => pair_page(packed(path).view(), true, value),
        }
    }

    /// What the view reads back.
    fn parts_of(node: &Node) -> Parts {
        match node {
            Node::Branch(b) => Parts::Branch {
                children: Box::new(std::array::from_fn(|i| b.child(i))),
                value: b.value(),
            },
            Node::Extension(e) => {
                Parts::Extension { path: e.path().to_nibbles(), child: e.child() }
            }
            Node::Leaf(l) => Parts::Leaf { path: l.path().to_nibbles(), value: l.value() },
        }
    }

    /// `parts` encode to a page that decodes back to them, holding that
    /// page.
    fn round_trip(parts: Parts) {
        let page = encode(&parts);
        let back = Node::decode_zc(&page).unwrap();
        assert_eq!(parts_of(&back), parts);
        assert_eq!(back.page(), &page);
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
        fn reference(node: &Parts) -> Vec<u8> {
            let item = match node {
                Parts::Branch { children, value } => {
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
                Parts::Extension { path, child } => RlpItem::list(vec![
                    RlpItem::bytes(path.hex_prefix_encode(false)),
                    RlpItem::bytes(child.as_bytes().to_vec()),
                ]),
                Parts::Leaf { path, value } => RlpItem::list(vec![
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
            let streamed = encode(&node);
            assert_eq!(streamed.as_ref(), reference(&node).as_slice(), "{node:?}");
            // What the view reads back encodes to the same bytes.
            let back = parts_of(&Node::decode_zc(&streamed).unwrap());
            assert_eq!(encode(&back), streamed, "{node:?}");
        }
    }

    #[test]
    fn paths_at_either_alignment_encode_alike() {
        // The same nibbles read from an odd and an even start.
        let buf = [0x01, 0x23, 0x45];
        for len in 0..5 {
            let odd = NibbleView::new(&buf, 1, len);
            let even = NibbleView::new(&buf[1..], 0, len);
            let want = odd.to_nibbles();
            assert_eq!(even.to_nibbles().as_slice(), &[2, 3, 4, 5][..len]);
            assert_eq!(want.as_slice(), &[1, 2, 3, 4][..len]);
            for is_leaf in [false, true] {
                let page = pair_page(odd, is_leaf, sha256(b"c").as_bytes());
                let reference = encode(&if is_leaf {
                    leaf(want.clone(), Bytes::copy_from_slice(sha256(b"c").as_bytes()))
                } else {
                    ext(want.clone(), sha256(b"c"))
                });
                assert_eq!(page, reference, "len {len} leaf {is_leaf}");
            }
        }
    }

    #[test]
    fn empty_value_distinct_from_absent() {
        let mut children: [Option<Hash>; 16] = Default::default();
        children[0] = Some(sha256(b"c"));
        let absent = encode(&branch(children, None));
        let empty = encode(&branch(children, Some(Bytes::new())));
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
            // 18 items: one more than the offset table holds.
            RlpItem::list(vec![RlpItem::bytes(Vec::new()); 18]).encode(),
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
        let page = encode(&leaf(nib(&[1]), Bytes::from_static(b"shared-payload")));
        let node = Node::decode_zc(&page).unwrap();
        let Node::Leaf(l) = &node else { panic!() };
        let value = l.value();
        let base = page.as_ptr() as usize;
        let v = value.as_ptr() as usize;
        assert!(v > base && v < base + page.len(), "value must point into the page");
        assert_eq!(node.page().as_ptr(), page.as_ptr(), "the node keeps the page, uncopied");
    }

    #[test]
    fn children_decoder() {
        let ext_page = encode(&ext(nib(&[1]), sha256(b"c")));
        assert_eq!(Node::children_of_page(&ext_page), vec![sha256(b"c")]);
        assert!(
            Node::children_of_page(&encode(&leaf(nib(&[1]), Bytes::from_static(b"v")))).is_empty()
        );
        let mut children: [Option<Hash>; 16] = Default::default();
        children[2] = Some(sha256(b"c2"));
        children[9] = Some(sha256(b"c9"));
        let page = encode(&branch(children, Some(Bytes::from_static(b"bv"))));
        assert_eq!(Node::children_of_page(&page), vec![sha256(b"c2"), sha256(b"c9")]);
        assert!(Node::children_of_page(&page[..page.len() - 1]).is_empty(), "truncated");
        assert!(Node::children_of_page(b"not rlp").is_empty());
    }
}
