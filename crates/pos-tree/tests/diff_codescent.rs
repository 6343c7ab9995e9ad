//! The co-descent diff against its oracle and its page budget: for every
//! POS-Tree variant `diff` must equal `siri_core::diff_by_scan`, and on a
//! structurally invariant tree it may load only what differs.

use proptest::prelude::*;
use siri_core::{diff_by_scan, DiffEntry, Entry, MemStore, SharedStore, SiriIndex, WriteBatch};
use siri_pos_tree::{PosParams, PosTree};

/// SplitMix64 — edit scripts are derived from one proptest-drawn seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn key(id: u64) -> Vec<u8> {
    format!("key{id:06}").into_bytes()
}

fn entry(id: u64, stamp: u64) -> Entry {
    Entry::new(key(id), vec![(id ^ stamp) as u8; 20 + ((id * 7 + stamp) % 100) as usize])
}

/// One commit's worth of edits over an id space of `space` keys: scattered
/// puts and deletes, a clustered run of overwrites or deletes, or a tail
/// appended past every existing key.
fn edit_batch(rng: &mut Rng, space: u64, stamp: u64) -> WriteBatch {
    let mut batch = WriteBatch::new();
    match rng.below(4) {
        0 => {
            for _ in 0..1 + rng.below(40) {
                let id = rng.below(space);
                if rng.below(4) == 0 {
                    batch.delete(key(id));
                } else {
                    let e = entry(id, stamp);
                    batch.put(e.key, e.value);
                }
            }
        }
        1 | 2 => {
            let start = rng.below(space);
            let delete = rng.below(3) == 0;
            for id in start..start + 1 + rng.below(60) {
                if delete {
                    batch.delete(key(id));
                } else {
                    let e = entry(id, stamp);
                    batch.put(e.key, e.value);
                }
            }
        }
        _ => {
            for id in space..space + 1 + rng.below(80) {
                let e = entry(id + stamp * 1000, stamp);
                batch.put(e.key, e.value);
            }
        }
    }
    batch
}

type Variant = (&'static str, fn(SharedStore) -> PosTree);

/// The four shapes the diff must be right on. Small nodes keep the trees
/// three levels tall at proptest sizes.
const VARIANTS: [Variant; 4] = [
    ("pos-tree", |s| PosTree::new(s, PosParams::default().with_node_bytes(256))),
    ("prolly", |s| PosTree::new(s, PosParams::noms().with_node_bytes(256))),
    ("forced-splice", PosTree::new_forced_split),
    ("copy-all", |s| PosTree::new_copy_all(s, PosParams::default().with_node_bytes(256), 1)),
];

fn mirror(diff: Vec<DiffEntry>) -> Vec<DiffEntry> {
    diff.into_iter().map(|d| DiffEntry { key: d.key, left: d.right, right: d.left }).collect()
}

/// `diff` ≡ `diff_by_scan`, both ways round.
fn assert_matches_oracle(name: &str, a: &PosTree, b: &PosTree) {
    let reference = diff_by_scan(a, b).unwrap();
    assert_eq!(a.diff(b).unwrap(), reference, "{name}: diff(a, b)");
    assert_eq!(b.diff(a).unwrap(), mirror(reference), "{name}: diff(b, a)");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn codescent_equals_scan_diff_over_random_edit_scripts(
        seed in proptest::num::u64::ANY,
        base_len in 0usize..1500,
        left_commits in 0usize..4,
        right_commits in 0usize..4,
    ) {
        for (name, make) in VARIANTS {
            let mut rng = Rng(seed);
            let store = MemStore::new_shared();
            let space = (base_len as u64 * 5 / 4).max(8);
            let mut base = make(store.clone());
            base.batch_insert((0..base_len).map(|_| entry(rng.below(space), 0)).collect()).unwrap();
            let (mut left, mut right) = (base.clone(), base.clone());
            for stamp in 0..left_commits as u64 {
                left.commit(edit_batch(&mut rng, space, 1 + stamp)).unwrap();
            }
            for stamp in 0..right_commits as u64 {
                right.commit(edit_batch(&mut rng, space, 11 + stamp)).unwrap();
            }
            assert_matches_oracle(name, &left, &right);
            assert_matches_oracle(name, &base, &right);

            // The right side's contents rebuilt from scratch in another
            // insertion order: same answer whatever the page sharing, and
            // for the structurally invariant variants the same digest.
            let mut shuffled = right.scan().unwrap();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut rebuilt = make(MemStore::new_shared());
            for chunk in shuffled.chunks(97) {
                rebuilt.batch_insert(chunk.to_vec()).unwrap();
            }
            assert_matches_oracle(name, &left, &rebuilt);
            if !matches!(name, "forced-splice" | "copy-all") {
                prop_assert_eq!(right.root(), rebuilt.root(), "{} is structurally invariant", name);
            }
        }
    }
}

fn tree(ids: std::ops::Range<u64>) -> PosTree {
    let mut t = PosTree::new(MemStore::new_shared(), PosParams::default());
    t.batch_insert(ids.map(|id| entry(id, 0)).collect()).unwrap();
    t
}

#[test]
fn empty_single_leaf_and_mixed_height_pairs() {
    let empty = tree(0..0);
    let leaf = tree(100..103);
    let short = tree(0..400);
    let tall = tree(50..6000);
    assert_eq!(leaf.height().unwrap(), 1, "root is a leaf");
    assert!(short.height().unwrap() < tall.height().unwrap());
    for (a, b) in [(&empty, &tall), (&leaf, &tall), (&short, &tall), (&empty, &leaf)] {
        assert_matches_oracle("pos-tree", a, b);
    }
    assert!(empty.diff(&empty).unwrap().is_empty());
}

#[test]
fn equal_digests_diff_empty_without_a_page_load() {
    let a = tree(0..3000);
    // Same contents, other insertion order, other store.
    let mut b = PosTree::new(MemStore::new_shared(), PosParams::default());
    for chunk in (0..3000).rev().map(|id| entry(id, 0)).collect::<Vec<_>>().chunks(331) {
        b.batch_insert(chunk.to_vec()).unwrap();
    }
    assert_eq!(a.root(), b.root());
    let (a, b) = (a.with_node_cache_capacity(0), b.with_node_cache_capacity(0));
    let gets = |t: &PosTree| t.store().stats().gets;
    let before = (gets(&a), gets(&b));
    assert!(a.diff(&b).unwrap().is_empty());
    assert_eq!((gets(&a), gets(&b)), before);
}

/// The bound the cursor-pair diff broke: scattered edits on both sides of a
/// 20k-record tree must cost the pages that differ, not the tree.
#[test]
fn scattered_edits_load_only_the_unshared_pages() {
    let base = tree(0..20_000).with_node_cache_capacity(0);
    let overwrite = |stride: u64, stamp: u64| {
        let mut t = base.clone();
        t.batch_insert((0..200).map(|i| entry(i * stride % 20_000, stamp)).collect()).unwrap();
        t
    };
    let (a, b) = (overwrite(97, 1), overwrite(101, 2));
    let (pages_a, pages_b) = (a.page_set(), b.page_set());
    let unshared = pages_a.difference(&pages_b).len() + pages_b.difference(&pages_a).len();
    assert!(unshared < pages_a.len(), "{unshared} of {} pages differ", pages_a.len());

    let before = base.store().stats().gets;
    let forward = a.diff(&b).unwrap();
    let gets = (base.store().stats().gets - before) as usize;
    let budget = unshared * 6 / 5 + 2 * a.height().unwrap() as usize;
    assert!(gets <= budget, "diff loaded {gets} pages, {unshared} differ (budget {budget})");

    assert_eq!(forward, diff_by_scan(&a, &b).unwrap());
    assert_eq!(b.diff(&a).unwrap(), mirror(forward));
}
