//! The child-run codec (`siri::ordered::ChildRun`) against a reference walk
//! of the page bytes written here, on every internal page of random
//! POS-Tree and MVMB+ trees; and malformed runs, which must be errors,
//! never panics.
//!
//! `STRESS_N` multiplies the number of random trees (CI's stress job sets
//! it).

use siri::ordered::{ChildRef, ChildRun, OrderedNode};
use siri::{Bytes, Entry, Hash, MemStore, MvmbParams, MvmbTree, NodeStore, PosParams, PosTree};
use siri::{PageNode, PageSet, SharedStore, SiriIndex};

type PosNode = siri::pos_tree::Node;
type MvmbNode = siri_mvmb::Node;

const TREES: usize = 6;

fn stress_n() -> usize {
    std::env::var("STRESS_N").ok().and_then(|v| v.parse().ok()).unwrap_or(1).max(1)
}

/// xorshift64: trees differ per seed, and a failure names its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random entries: keys of 0–24 random bytes (so runs hold empty keys,
/// shared prefixes and multi-byte length varints rarely but surely), and
/// values of 0–300 bytes.
fn entries(rng: &mut Rng) -> Vec<Entry> {
    let n = 300 + rng.below(2_500) as usize;
    (0..n)
        .map(|_| {
            let klen = rng.below(25) as usize;
            let key: Vec<u8> = (0..klen).map(|_| rng.below(4) as u8 * 60).collect();
            let value: Vec<u8> = (0..rng.below(300)).map(|_| rng.next() as u8).collect();
            Entry::new(key, value)
        })
        .collect()
}

fn varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..).step_by(7) {
        let byte = bytes[*at];
        *at += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
    }
    unreachable!()
}

/// The reference walk: the `(max key, digest)` pairs of the run that
/// starts at byte `at` of a well-formed page.
fn reference(page: &[u8], mut at: usize) -> Vec<(Vec<u8>, Hash)> {
    let count = varint(page, &mut at);
    let children: Vec<_> = (0..count)
        .map(|_| {
            let len = varint(page, &mut at) as usize;
            let key = page[at..at + len].to_vec();
            at += len;
            let hash = Hash::from_slice(&page[at..at + Hash::LEN]).unwrap();
            at += Hash::LEN;
            (key, hash)
        })
        .collect();
    assert_eq!(at, page.len(), "the run ends the page");
    children
}

/// First child whose max key is `>= key`, clamped to the last — by scan.
fn reference_route(children: &[(Vec<u8>, Hash)], key: &[u8]) -> usize {
    children.iter().position(|(max, _)| max.as_slice() >= key).unwrap_or(children.len() - 1)
}

/// Where the run starts on an internal page of each structure.
fn pos_run_start(page: &[u8]) -> usize {
    let mut at = 1;
    varint(page, &mut at); // salt
    varint(page, &mut at); // level
    at
}

fn mvmb_run_start(_: &[u8]) -> usize {
    1
}

/// The internal pages among `pages`, raw and decoded.
fn internal_pages<N: PageNode + OrderedNode>(
    store: &SharedStore,
    pages: impl Iterator<Item = Hash>,
) -> Vec<(Bytes, N)> {
    pages
        .map(|hash| store.get(&hash).unwrap())
        .map(|page| {
            let node = N::decode_page(&page).unwrap();
            (page, node)
        })
        .filter(|(_, node)| node.entries().is_none())
        .collect()
}

fn check_run(page: &Bytes, run: &ChildRun, want: &[(Vec<u8>, Hash)]) {
    assert_eq!(run.len(), want.len());
    assert!(!run.is_empty());
    for (i, (key, hash)) in want.iter().enumerate() {
        assert_eq!((run.key(i), run.hash(i)), (key.as_slice(), *hash), "child {i}");
        let child = run.get(i).unwrap();
        assert_eq!((child.key(), child.hash()), (key.as_slice(), *hash));
    }
    assert!(run.get(want.len()).is_none());
    let forward: Vec<ChildRef> = run.iter().map(|c| c.to_ref()).collect();
    let expected: Vec<ChildRef> = want
        .iter()
        .map(|(k, h)| ChildRef { max_key: Bytes::copy_from_slice(k), hash: *h })
        .collect();
    assert_eq!(forward, expected);
    let backward: Vec<ChildRef> = run.iter().rev().map(|c| c.to_ref()).collect();
    assert!(backward.iter().eq(expected.iter().rev()));
    assert_eq!(run.iter().len(), want.len());
    assert_eq!(run.max_key().unwrap().as_ref(), want[want.len() - 1].0.as_slice());
    // Keys present, absent between neighbours, below every key and above
    // every key.
    let mut probes: Vec<Vec<u8>> = vec![Vec::new(), vec![0xff; 40]];
    for (key, _) in want {
        probes.push(key.clone());
        let mut after = key.clone();
        after.push(0);
        probes.push(after);
        if let Some((&last, stem)) = key.split_last() {
            if last > 0 {
                probes.push([stem, &[last - 1]].concat());
            }
        }
    }
    for probe in &probes {
        assert_eq!(run.route(probe), Ok(reference_route(want, probe)), "route {probe:?}");
    }
    let digests: Vec<Hash> = want.iter().map(|(_, h)| *h).collect();
    let start = page.len() - run.as_bytes().len();
    assert_eq!(ChildRun::digests(&page[start..]).unwrap(), digests);
}

#[test]
fn decoded_runs_match_a_reference_walk_of_the_page() {
    let mut checked = [0usize; 2];
    for seed in 0..(TREES * stress_n()) as u64 {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (seed + 1).wrapping_mul(0x2545_F491_4F6C_DD1D));
        let data = entries(&mut rng);

        let store = MemStore::new_shared();
        let params = match seed % 3 {
            0 => PosParams::default(),
            1 => PosParams::noms(),
            _ => PosParams::forced_split(),
        };
        let mut pos = PosTree::new(store.clone(), params);
        pos.batch_insert(data.clone()).unwrap();
        let hashes = pos.page_set().iter().map(|(h, _)| *h).collect::<Vec<_>>();
        for (page, node) in internal_pages::<PosNode>(&store, hashes.into_iter()) {
            let want = reference(&page, pos_run_start(&page));
            check_run(&page, node.children(), &want);
            assert_eq!(
                PosNode::children_of_page(&page),
                want.iter().map(|c| c.1).collect::<Vec<_>>()
            );
            assert_eq!(node.encode(), page, "re-encodes to the same page");
            checked[0] += 1;
        }

        let store = MemStore::new_shared();
        let fanout = 2 + rng.below(30) as usize;
        let params = MvmbParams {
            max_leaf_entries: 2 + rng.below(8) as usize,
            max_internal_children: fanout,
        };
        let mut mvmb = MvmbTree::new(store.clone(), params);
        mvmb.batch_insert(data).unwrap();
        let hashes = mvmb.page_set().iter().map(|(h, _)| *h).collect::<Vec<_>>();
        for (page, node) in internal_pages::<MvmbNode>(&store, hashes.into_iter()) {
            let want = reference(&page, mvmb_run_start(&page));
            check_run(&page, node.children(), &want);
            assert_eq!(
                MvmbNode::children_of_page(&page),
                want.iter().map(|c| c.1).collect::<Vec<_>>()
            );
            assert_eq!(node.encode(), page, "re-encodes to the same page");
            checked[1] += 1;
        }
    }
    assert!(checked.iter().all(|&n| n >= TREES), "internal pages checked: {checked:?}");
}

/// Every way of breaking a real internal page is an error from the
/// decoder and an empty child list from the store walk — never a panic.
#[test]
fn malformed_internal_pages_are_errors() {
    fn check<N: PageNode + OrderedNode>(
        store: &SharedStore,
        pages: PageSet,
        run_start: fn(&[u8]) -> usize,
        children_of_page: fn(&[u8]) -> Vec<Hash>,
    ) {
        // The widest internal page of the tree.
        let internal = internal_pages::<N>(store, pages.iter().map(|(h, _)| *h));
        let (page, _) = internal.into_iter().max_by_key(|(_, n)| n.children().len()).unwrap();
        let start = run_start(&page);
        let header = &page[..start];
        let children = reference(&page, start);
        assert!(children.len() >= 3);
        let rebuild = |children: &[(Vec<u8>, Hash)]| {
            let refs: Vec<ChildRef> = children
                .iter()
                .map(|(k, h)| ChildRef { max_key: Bytes::copy_from_slice(k), hash: *h })
                .collect();
            Bytes::from([header, ChildRun::new(&refs).as_bytes()].concat())
        };
        assert_eq!(rebuild(&children), page);

        let mut bad: Vec<(String, Bytes)> = Vec::new();
        for cut in 0..page.len() {
            bad.push((format!("truncated at {cut}"), page.slice(..cut)));
        }
        bad.push(("a trailing byte".into(), Bytes::from([&page[..], &[0]].concat())));
        for i in 0..children.len() - 1 {
            let mut swapped = children.clone();
            swapped.swap(i, i + 1);
            bad.push((format!("children {i} and {} swapped", i + 1), rebuild(&swapped)));
            let mut repeated = children.clone();
            repeated[i + 1].0 = repeated[i].0.clone();
            bad.push((format!("key {i} repeated"), rebuild(&repeated)));
        }
        bad.push(("count 0".into(), Bytes::from([header, &[0]].concat())));
        let mut at = start;
        varint(&page, &mut at);
        let body = &page[at..];
        for count in [children.len() as u64 + 1, page.len() as u64, u32::MAX as u64, u64::MAX] {
            let mut w = siri::encoding::ByteWriter::new();
            w.put_varint(count);
            let raw = [header, w.as_slice(), body].concat();
            bad.push((format!("count {count}"), Bytes::from(raw)));
        }
        for (what, page) in bad {
            assert!(N::decode_page(&page).is_err(), "{what}: decoded");
            assert!(children_of_page(&page).is_empty(), "{what}: walked");
        }
    }

    let mut rng = Rng(7);
    let data = entries(&mut rng);
    let store = MemStore::new_shared();
    let mut pos = PosTree::new(store.clone(), PosParams::default());
    pos.batch_insert(data.clone()).unwrap();
    check::<PosNode>(&store, pos.page_set(), pos_run_start, PosNode::children_of_page);

    let store = MemStore::new_shared();
    let mut mvmb = MvmbTree::new(store.clone(), MvmbParams::default());
    mvmb.batch_insert(data).unwrap();
    check::<MvmbNode>(&store, mvmb.page_set(), mvmb_run_start, MvmbNode::children_of_page);
}
