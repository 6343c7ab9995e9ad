//! A page's count field must not size an allocation before the page is
//! parsed. An 8 MiB page (the wire frame cap) of zeros whose count field
//! claims millions of children or entries goes through the POS-Tree,
//! MVMB+ and MBT page decoders and through proof verification; each must
//! fail, and no single allocation made meanwhile may be larger than the
//! page. (Reserving `count` 64-byte slots up front would allocate 511 MiB.)
//!
//! MPT pages have no count field; their RLP list header claims a length
//! instead. Two 8 MiB pages go through the MPT decoder and verifier under
//! the same rule: a list header claiming the whole page of one-byte items
//! (millions of items where a node has at most 17), and a two-item list
//! whose second item's long-form length runs past the page's end.
//!
//! The counting allocator is global to this binary, so it holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use siri::crypto::sha256;
use siri::encoding::ByteWriter;
use siri::{
    verify_anchored_membership, Bytes, Entry, MbtProofScheme, MptProofScheme, MvmbProofScheme,
    PageNode, PosProofScheme, Proof, ProofScheme,
};

type PosNode = siri::pos_tree::Node;
type MvmbNode = siri_mvmb::Node;
type MbtNode = siri_mbt::Node;
type MptNode = siri_mpt::Node;

/// The system allocator, remembering the largest single request.
struct Peak;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic `fetch_max`.
unsafe impl GlobalAlloc for Peak {
    // SAFETY: the caller's layout goes to `System.alloc` as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's pointer and layout go to `System.dealloc` as given.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's arguments go to `System.realloc` as given.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Peak = Peak;

const PAGE: usize = 8 << 20;

/// `header ‖ varint(count)`, then zeros up to 8 MiB. Zeros parse as empty
/// keys (and values, and digests), so a decoder that gets past the count
/// meets a repeated key at the second item.
fn crafted(header: &[u8], count: u64) -> Bytes {
    let mut w = ByteWriter::with_capacity(PAGE);
    w.put_raw(header);
    w.put_varint(count);
    let mut page = w.into_vec();
    page.resize(PAGE, 0);
    Bytes::from(page)
}

/// Whether decoding `page` as an `N` fails.
fn fails<N: PageNode>(page: &Bytes) -> bool {
    N::decode_page(page).is_err()
}

/// Each page kind: its name, the bytes in front of its run (taken from a
/// real page), its decoder and its proof scheme.
type Kind = (&'static str, Vec<u8>, fn(&Bytes) -> bool, &'static dyn ProofScheme);

fn kinds() -> Vec<Kind> {
    let entry = [Entry::new(b"k".to_vec(), b"v".to_vec())];
    let pos_leaf = PosNode::Leaf { salt: 0, entries: entry.to_vec(), page: Bytes::new() }.encode();
    let mvmb_leaf = MvmbNode::encode_leaf(&entry);
    let mbt_bucket = MbtNode::encode_bucket(4, 2, &entry);
    let ends_with_run = |page: &[u8]| page[..page.len() - 5].to_vec(); // count 1, "k", "v"
    let child = siri::ordered::ChildRef { max_key: Bytes::from_static(b"k"), hash: sha256(b"c") };
    let pos_internal = PosNode::Internal {
        salt: 0,
        level: 1,
        children: siri::ordered::ChildRun::new(std::slice::from_ref(&child)),
    }
    .encode();
    let mvmb_internal = MvmbNode::encode_internal(&[child]);
    let mbt_internal = MbtNode::encode_internal(4, 2, &[sha256(b"c")]);
    let mbt_header = mbt_internal[..3].to_vec(); // tag, buckets, fanout
                                                 // count 1, key length 1, "k", digest
    let before_children = |page: &[u8]| page[..page.len() - 35].to_vec();
    vec![
        ("POS leaf", ends_with_run(&pos_leaf), fails::<PosNode>, &PosProofScheme),
        ("POS internal", before_children(&pos_internal), fails::<PosNode>, &PosProofScheme),
        ("MVMB+ leaf", ends_with_run(&mvmb_leaf), fails::<MvmbNode>, &MvmbProofScheme),
        ("MVMB+ internal", before_children(&mvmb_internal), fails::<MvmbNode>, &MvmbProofScheme),
        ("MBT bucket", ends_with_run(&mbt_bucket), fails::<MbtNode>, &MbtProofScheme),
        ("MBT internal", mbt_header, fails::<MbtNode>, &MbtProofScheme),
    ]
}

/// Decoding `page` as `what` and verifying a proof of it must fail, and no
/// allocation made meanwhile may be larger than the page.
fn refused_within_the_page(
    what: &str,
    page: &Bytes,
    decode_fails: fn(&Bytes) -> bool,
    scheme: &dyn ProofScheme,
) {
    let digest = sha256(page);
    let proof = Proof::new(vec![page.clone()]);

    LARGEST.store(0, Ordering::Relaxed);
    assert!(decode_fails(page), "{what}: decoded");
    let verdict = verify_anchored_membership(scheme, digest, b"k", &proof);
    assert!(!verdict.is_valid(), "{what}: verified");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(largest <= PAGE, "{what}: one allocation of {largest} bytes");
}

/// A long-form RLP list header claiming the rest of an 8 MiB page.
fn whole_page_list() -> Vec<u8> {
    let payload = PAGE - 4; // 0xfa: three length bytes follow
    let mut page = vec![0xfa];
    page.extend_from_slice(&(payload as u32).to_be_bytes()[1..]);
    page
}

/// The MPT pages: every 0x00 byte after the header is a one-byte item, so
/// the first holds millions of items; the second is a leaf's hex-prefix
/// path (flag 0x20, empty) and then a string whose long-form length
/// (0xba: three length bytes) runs past the page.
fn mpt_pages() -> Vec<(&'static str, Bytes)> {
    let mut items = whole_page_list();
    items.resize(PAGE, 0);
    let mut pair = whole_page_list();
    pair.extend_from_slice(&[0x20, 0xba, 0xff, 0xff, 0xff]);
    pair.resize(PAGE, 0);
    vec![("MPT list of one-byte items", items.into()), ("MPT pair past the end", pair.into())]
}

#[test]
fn a_lying_count_field_allocates_no_more_than_the_page() {
    for (what, header, decode_fails, scheme) in kinds() {
        // Within the old `count <= page.len()` check, and small enough
        // that the bytes could hold it.
        for count in [PAGE as u64 - 16, (PAGE / 64) as u64] {
            let page = crafted(&header, count);
            refused_within_the_page(&format!("{what}, count {count}"), &page, decode_fails, scheme);
        }
    }
    for (what, page) in mpt_pages() {
        assert_eq!(page.len(), PAGE, "{what}");
        refused_within_the_page(what, &page, fails::<MptNode>, &MptProofScheme);
    }
}
