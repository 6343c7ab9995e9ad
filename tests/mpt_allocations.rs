//! Heap allocations per MPT operation on the ledger, held to budgets.
//!
//! Set-up: a `pinned(4)` MPT engine over `MemStore`, loaded with 50 ledger
//! blocks of 200 transactions. Then 20 rounds, each committing the next
//! block and then, on one random past key, a get, `range(k..).take(20)`
//! and prove + `verify_anchored_membership`. The counts are means over
//! the rounds.
//!
//! Before MPT nodes became views of their pages (one RLP parse into a
//! fixed offset table, paths compared in place, a commit overlay that
//! borrows loaded nodes), this set-up made per op:
//!
//! | op | allocations |
//! |---|---|
//! | get | 48.5 |
//! | scan of 20 | 338.8 |
//! | prove + verify | 69.5 |
//! | commit of 200 | 11,054.9 |
//!
//! (Preloaded with 500 blocks, the same rounds made 54.6 / 355.4 / 75.2 /
//! 14,837.8.) The budgets below are a third of the 50-block counts for
//! get, scan and commit and two thirds for prove + verify.
//!
//! The counting allocator is global to this binary, so it holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};

use siri::workloads::eth::EthConfig;
use siri::{
    verify_anchored_membership, Bytes, Forkbase, MemStore, MptFactory, MptProofScheme, PageNode,
    Session, ShardingPolicy, SiriIndex, WriteBatch,
};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic increment.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's layout goes to `System.alloc` as given.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made while `f` runs, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

const BLOCKS: u64 = 50;
const ROUNDS: u64 = 20;

/// Mean allocations per op before the change, as in the table above.
const BEFORE_GET: f64 = 48.5;
const BEFORE_SCAN: f64 = 338.8;
const BEFORE_PROVE_VERIFY: f64 = 69.5;
const BEFORE_COMMIT: f64 = 11_054.9;

#[test]
fn ledger_ops_stay_within_their_allocation_budgets() {
    let eth = EthConfig { txs_per_block: 200, seed: 42 };
    let engine =
        Forkbase::with_sharding(MptFactory, MemStore::new_shared(), ShardingPolicy::pinned(4), 0);
    let mut keys: Vec<Bytes> = Vec::new();
    for block in 0..BLOCKS {
        let entries = eth.block_entries(block);
        keys.extend(entries.iter().map(|e| e.key.clone()));
        Session::commit(&engine, "master", WriteBatch::from_entries(entries)).unwrap();
    }

    // SplitMix64: a fixed stream of past keys.
    let mut state = 7u64;
    let mut pick = |n: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let (mut get, mut scan, mut prove_verify, mut commit) = (0, 0, 0, 0);
    for block in BLOCKS..BLOCKS + ROUNDS {
        let entries = eth.block_entries(block);
        keys.extend(entries.iter().map(|e| e.key.clone()));
        let batch = WriteBatch::from_entries(entries);
        let (n, info) = counted(|| Session::commit(&engine, "master", batch));
        info.unwrap();
        commit += n;

        let key = keys[pick(keys.len())].clone();
        let (n, value) = counted(|| Session::get(&engine, "master", &key));
        assert!(value.unwrap().is_some(), "a past key is present");
        get += n;

        let (n, window) = counted(|| {
            Session::range(&engine, "master", Bound::Included(&key[..]), Bound::Unbounded)
                .unwrap()
                .take(20)
                .map(|e| e.unwrap().key.len())
                .sum::<usize>()
        });
        assert_eq!(window, 20 * 64, "twenty 64-byte keys from a past key on");
        scan += n;

        let (n, verdict) = counted(|| {
            let (digest, proof) = Session::prove(&engine, "master", &key).unwrap();
            verify_anchored_membership(&MptProofScheme, digest, &key, &proof)
        });
        assert!(verdict.value().is_some(), "the proof shows the key present");
        prove_verify += n;
    }

    // Every page of the trie decodes without touching the heap.
    let head = engine.head("master").unwrap();
    let store = head.store().clone();
    let pages: Vec<Bytes> =
        head.page_set().iter().map(|(h, _)| store.try_get(h).unwrap().unwrap()).collect();
    assert!(pages.len() > 10_000, "{} pages", pages.len());
    let (n, decoded) =
        counted(|| pages.iter().filter(|p| siri_mpt::Node::decode_page(p).is_ok()).count());
    assert_eq!(decoded, pages.len(), "every page decodes");
    assert_eq!(n, 0, "decoding {} pages allocated {n} times", pages.len());

    let per = |total: usize| total as f64 / ROUNDS as f64;
    let (get, scan, prove_verify, commit) = (per(get), per(scan), per(prove_verify), per(commit));
    eprintln!(
        "allocations per op: get {get:.1}, scan {scan:.1}, prove+verify {prove_verify:.1}, \
         commit {commit:.1}"
    );
    assert!(get <= BEFORE_GET / 3.0, "get: {get:.1} allocations");
    assert!(scan <= BEFORE_SCAN / 3.0, "scan: {scan:.1} allocations");
    assert!(
        prove_verify <= BEFORE_PROVE_VERIFY * 2.0 / 3.0,
        "prove + verify: {prove_verify:.1} allocations"
    );
    assert!(commit <= BEFORE_COMMIT / 3.0, "commit: {commit:.1} allocations");
}
