//! The in-place node against the generic decoder. Every page of a ledger
//! trie — with branch values, extensions and the paths deletion
//! re-compacts — must read the same through `Node::decode_zc`'s offsets
//! as through the `RlpItem` item tree; so must every single-byte flip of
//! a sample of those pages, where a decode either fails or gives a node
//! whose parts re-encode to the flipped bytes.

use siri_core::{Bytes, MemStore, SiriIndex, WriteBatch};
use siri_crypto::Hash;
use siri_encoding::{Nibbles, RlpItem};
use siri_mpt::{MerklePatriciaTrie, Node};
use siri_workloads::eth::EthConfig;

/// A node's parts as the item-tree decoder reads them.
#[derive(Debug, PartialEq, Eq)]
enum Parts {
    Branch { children: Vec<Option<Hash>>, value: Option<Vec<u8>> },
    Extension { path: Nibbles, child: Hash },
    Leaf { path: Nibbles, value: Vec<u8> },
}

/// The reference decoder: the page as an `RlpItem` tree, then the slot
/// rules of the MPT codec. `None` for a page the codec must refuse.
fn reference(page: &[u8]) -> Option<Parts> {
    let item = RlpItem::decode_all(page).ok()?;
    let slots: Vec<&[u8]> =
        item.as_list().ok()?.iter().map(|i| i.as_bytes()).collect::<Result<_, _>>().ok()?;
    match slots.len() {
        17 => {
            let children = slots[..16]
                .iter()
                .map(|s| if s.is_empty() { Some(None) } else { Hash::from_slice(s).map(Some) })
                .collect::<Option<Vec<_>>>()?;
            let value = match slots[16].split_first() {
                None => None,
                Some((0x01, rest)) => Some(rest.to_vec()),
                Some(_) => return None,
            };
            if value.is_none() && children.iter().all(Option::is_none) {
                return None;
            }
            Some(Parts::Branch { children, value })
        }
        2 => {
            let (path, is_leaf) = Nibbles::hex_prefix_decode(slots[0])?;
            if is_leaf {
                return Some(Parts::Leaf { path, value: slots[1].to_vec() });
            }
            if path.is_empty() {
                return None;
            }
            Some(Parts::Extension { path, child: Hash::from_slice(slots[1])? })
        }
        _ => None,
    }
}

/// The same parts, read through the view.
fn viewed(node: &Node) -> Parts {
    match node {
        Node::Branch(b) => Parts::Branch {
            children: (0..16).map(|i| b.child(i)).collect(),
            value: b.value().map(|v| v.to_vec()),
        },
        Node::Extension(e) => Parts::Extension { path: e.path().to_nibbles(), child: e.child() },
        Node::Leaf(l) => Parts::Leaf { path: l.path().to_nibbles(), value: l.value().to_vec() },
    }
}

/// The page `parts` encode to, through the `RlpItem` item tree.
fn reference_page(parts: &Parts) -> Vec<u8> {
    let item = |b: &[u8]| RlpItem::bytes(b.to_vec());
    let items = match parts {
        Parts::Branch { children, value } => {
            let mut items: Vec<RlpItem> = children
                .iter()
                .map(|c| item(c.as_ref().map_or(&[][..], |h| h.as_bytes())))
                .collect();
            items.push(match value {
                None => item(&[]),
                Some(v) => item(&[&[0x01][..], v].concat()),
            });
            items
        }
        Parts::Extension { path, child } => {
            vec![item(&path.hex_prefix_encode(false)), item(child.as_bytes())]
        }
        Parts::Leaf { path, value } => vec![item(&path.hex_prefix_encode(true)), item(value)],
    };
    RlpItem::list(items).encode()
}

/// The digests a page references, from the reference parts.
fn reference_children(parts: &Option<Parts>) -> Vec<Hash> {
    match parts {
        Some(Parts::Branch { children, .. }) => children.iter().flatten().copied().collect(),
        Some(Parts::Extension { child, .. }) => vec![*child],
        Some(Parts::Leaf { .. }) | None => Vec::new(),
    }
}

/// `page` reads alike through both decoders; returns whether it decoded.
fn agree(page: &Bytes) -> bool {
    let want = reference(page);
    let got = Node::decode_zc(page);
    assert_eq!(got.as_ref().ok().map(viewed), want, "page {page:?}");
    assert_eq!(Node::children_of_page(page), reference_children(&want), "page {page:?}");
    if let Ok(node) = got {
        assert_eq!(
            reference_page(&viewed(&node)),
            page.as_ref(),
            "the parts re-encode to the page"
        );
    }
    want.is_some()
}

/// A ledger trie whose pages hold every node shape: 20 blocks, prefixes of
/// some keys (values in branch slots), then a batch deleting every third
/// key and some of the prefixes, so that branches collapse and paths
/// re-compact.
fn ledger_pages() -> Vec<Bytes> {
    let eth = EthConfig { txs_per_block: 200, seed: 3 };
    let mut trie = MerklePatriciaTrie::new(MemStore::new_shared());
    let mut keys = Vec::new();
    for block in 0..20 {
        let entries = eth.block_entries(block);
        keys.extend(entries.iter().map(|e| e.key.clone()));
        let mut batch = WriteBatch::from_entries(entries);
        for (i, key) in keys.iter().enumerate().skip(block as usize).step_by(97) {
            batch.put(key.slice(..1 + i % 63), Bytes::from(format!("prefix {i}")));
        }
        trie.commit(batch).unwrap();
    }
    let mut deletes = WriteBatch::new();
    for (i, key) in keys.iter().enumerate() {
        if i % 3 == 0 {
            deletes.delete(key.clone());
        }
        if i % 194 == 0 {
            deletes.delete(key.slice(..1 + i % 63));
        }
    }
    trie.commit(deletes).unwrap();
    let store = trie.store().clone();
    trie.page_set().iter().map(|(h, _)| store.try_get(h).unwrap().unwrap()).collect()
}

#[test]
fn the_view_reads_every_ledger_page_as_the_item_tree_does() {
    let pages = ledger_pages();
    let (mut valued, mut bare, mut extensions, mut leaves) = (0, 0, 0, 0);
    let mut odd_paths = 0;
    for page in &pages {
        assert!(agree(page), "a stored page decodes");
        match Node::decode_zc(page).unwrap() {
            Node::Branch(b) if b.has_value() => valued += 1,
            Node::Branch(_) => bare += 1,
            Node::Extension(e) => {
                extensions += 1;
                odd_paths += e.path().len() % 2;
            }
            Node::Leaf(l) => {
                leaves += 1;
                odd_paths += l.path().len() % 2;
            }
        }
    }
    assert!(valued > 10 && bare > 100, "branches: {valued} with a value, {bare} without");
    assert!(extensions > 10 && leaves > 1_000, "{extensions} extensions, {leaves} leaves");
    assert!(odd_paths > 100, "{odd_paths} odd-length paths");
}

#[test]
fn every_single_byte_flip_fails_or_re_encodes_to_itself() {
    let pages = ledger_pages();
    let (mut refused, mut decoded) = (0usize, 0usize);
    for page in pages.iter().step_by(pages.len() / 60) {
        for at in 0..page.len() {
            for mask in [0x01u8, 0x10, 0x80, 0xff] {
                let mut flipped = page.to_vec();
                flipped[at] ^= mask;
                if agree(&Bytes::from(flipped)) {
                    decoded += 1;
                } else {
                    refused += 1;
                }
            }
        }
    }
    assert!(refused > 1_000 && decoded > 1_000, "{refused} refused, {decoded} decoded");
}
