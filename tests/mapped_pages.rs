//! Pages served by the durable `FileStore` are windows onto mapped segment
//! files: each must stay readable and bit-identical for as long as it is
//! held, whatever the store does afterwards — drop, compaction (which
//! deletes the old segment files), rotation, appends to the segment it was
//! mapped from, or a remap for a page past the first reservation. A
//! differential property test then runs random put / batch / get / sweep /
//! reopen sequences against a `MemStore` oracle.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use proptest::prelude::*;
use siri_crypto::Hash;
use siri_store::{
    FileStore, FileStoreOptions, FsyncPolicy, MemStore, NodeStore, PageBatch, PageSet, Reclaim,
};

/// A fresh, empty directory for one store; removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join("siri-mapped-pages")
            .join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn opts(max_segment_bytes: u64) -> FileStoreOptions {
    FileStoreOptions { max_segment_bytes, fsync: FsyncPolicy::Never }
}

/// Deterministic distinct page `i` of `len` bytes.
fn page(i: u32, len: usize) -> Bytes {
    let mut v: Vec<u8> = (0..len).map(|j| (i as usize * 31 + j * 7) as u8).collect();
    if len >= 4 {
        v[..4].copy_from_slice(&i.to_le_bytes());
    }
    Bytes::from(v)
}

/// Segment files in `dir`.
fn segment_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".seg"))
        .collect();
    names.sort();
    names
}

/// Put `pages`, then serve each one back: `(page, served)` pairs.
fn put_and_serve(store: &FileStore, pages: &[Bytes]) -> Vec<(Bytes, Bytes)> {
    let hashes: Vec<Hash> = pages.iter().map(|p| store.put(p.clone())).collect();
    hashes.iter().zip(pages).map(|(h, p)| (p.clone(), store.get(h).unwrap())).collect()
}

fn assert_identical(served: &[(Bytes, Bytes)]) {
    for (i, (expected, got)) in served.iter().enumerate() {
        assert_eq!(got, expected, "served page {i} changed");
    }
}

#[test]
fn a_served_page_outlives_its_store() {
    let dir = TempDir::new("outlives-store");
    let pages: Vec<Bytes> = (0..50).map(|i| page(i, 100 + i as usize * 13)).collect();
    let (store, _) = FileStore::open(dir.path()).unwrap();
    let served = put_and_serve(&store, &pages);
    drop(store);
    assert_identical(&served);
}

#[test]
fn a_served_page_outlives_compaction_and_its_deleted_segment() {
    let dir = TempDir::new("outlives-sweep");
    let (store, _) = FileStore::open_with(dir.path(), opts(1024)).unwrap();
    let pages: Vec<Bytes> = (0..60).map(|i| page(i, 200)).collect();
    let served = put_and_serve(&store, &pages);
    let old = segment_files(dir.path());
    assert!(old.len() > 1);

    let mut live = PageSet::new();
    for p in pages.iter().step_by(3) {
        live.insert(siri_crypto::sha256(p), p.len() as u64);
    }
    let (dead, _) = store.sweep(&live).unwrap();
    assert_eq!(dead, 40);
    let new = segment_files(dir.path());
    assert!(old.iter().all(|n| !new.contains(n)), "every old segment file is deleted");
    assert_identical(&served);
    for p in pages.iter().step_by(3) {
        assert_eq!(store.get(&siri_crypto::sha256(p)).unwrap(), *p);
    }
    drop(store);
    assert_identical(&served);
}

#[test]
fn served_pages_survive_rotation() {
    let dir = TempDir::new("rotation");
    let (store, _) = FileStore::open_with(dir.path(), opts(256)).unwrap();
    let mut served = Vec::new();
    for round in 0..5u32 {
        let pages: Vec<Bytes> = (0..12).map(|i| page(round * 100 + i, 40 + i as usize)).collect();
        served.extend(put_and_serve(&store, &pages));
        assert_identical(&served);
    }
    assert!(store.segment_count() > 10, "a 256-byte cap rotates");
}

#[test]
fn pages_appended_after_their_segment_was_mapped_are_served() {
    let dir = TempDir::new("append-after-map");
    let (store, _) = FileStore::open(dir.path()).unwrap();
    let mut served = put_and_serve(&store, &[page(0, 64)]);
    for i in 1..200 {
        served.extend(put_and_serve(&store, &[page(i, 64 + i as usize)]));
    }
    let mut batch = PageBatch::new();
    let batch_pages: Vec<Bytes> = (200..260).map(|i| page(i, 500)).collect();
    let hashes: Vec<_> = batch_pages.iter().map(|p| batch.push(p.clone())).collect();
    store.try_put_batch(&batch).unwrap();
    for (h, p) in hashes.iter().zip(batch_pages) {
        served.push((p, store.get(h).unwrap()));
    }
    assert_eq!(store.segment_count(), 1, "one growing segment");
    assert_identical(&served);
}

#[test]
fn a_page_longer_than_the_reservation_is_served() {
    let dir = TempDir::new("past-reservation");
    // A 256-byte cap reserves 256 bytes for the first mapping; the segment
    // then overshoots it by one append of a page forty times longer.
    let (store, _) = FileStore::open_with(dir.path(), opts(256)).unwrap();
    let mut served = put_and_serve(&store, &[page(1, 100)]);
    served.extend(put_and_serve(&store, &[page(2, 10_000)]));
    served.extend(put_and_serve(&store, &[page(3, 50_000)]));
    assert_identical(&served);
    drop(store);
    let (store, recovered) = FileStore::open_with(dir.path(), opts(256)).unwrap();
    assert_eq!(recovered, 3);
    for (p, _) in &served {
        assert_eq!(store.get(&siri_crypto::sha256(p)).unwrap(), *p);
    }
    assert_identical(&served);
}

#[test]
fn an_uncapped_segment_is_served() {
    let dir = TempDir::new("uncapped");
    let (store, _) = FileStore::open_with(dir.path(), opts(u64::MAX)).unwrap();
    let pages: Vec<Bytes> = (0..100).map(|i| page(i, 1000 + i as usize)).collect();
    let served = put_and_serve(&store, &pages);
    assert_eq!(store.segment_count(), 1);
    drop(store);
    let (store, recovered) = FileStore::open_with(dir.path(), opts(u64::MAX)).unwrap();
    assert_eq!(recovered, 100);
    assert_identical(&put_and_serve(&store, &pages));
    assert_identical(&served);
}

/// Page `id` of the property test's pool: mostly small, every 16th larger
/// than a small segment cap.
fn pool_page(id: u8) -> Bytes {
    let len = (id as usize * 37) % 600 + if id.is_multiple_of(16) { 5000 } else { 0 };
    page(id as u32, len)
}

/// One step of the differential test: `(kind, id, ids)`.
type RawOp = (u8, u8, Vec<u8>);

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    let id = 0u8..64;
    let op = (0u8..10, id.clone(), proptest::collection::vec(id, 0..12));
    proptest::collection::vec(op, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random put / batch / get / sweep / reopen sequences: every get
    /// answers what a `MemStore` holding the same pages answers, and every
    /// page served along the way stays bit-identical to the end.
    #[test]
    fn file_store_serves_what_a_mem_store_holds(
        ops in arb_ops(),
        cap in prop_oneof![Just(256u64), Just(4096u64), Just(u64::MAX)],
    ) {
        let dir = TempDir::new("differential");
        let (mut store, _) = FileStore::open_with(dir.path(), opts(cap)).unwrap();
        let mut oracle = MemStore::new();
        let mut served: Vec<(Bytes, Bytes)> = Vec::new();
        for (kind, id, ids) in ops {
            match kind {
                0..=2 => {
                    let p = pool_page(id);
                    prop_assert_eq!(store.try_put(p.clone()).unwrap(), oracle.put(p));
                }
                3 | 4 => {
                    let mut batch = PageBatch::new();
                    for &i in &ids {
                        batch.push(pool_page(i));
                    }
                    store.try_put_batch(&batch).unwrap();
                    oracle.try_put_batch(&batch).unwrap();
                }
                5..=7 => {
                    let h = siri_crypto::sha256(&pool_page(id));
                    let got = store.try_get(&h).unwrap();
                    prop_assert_eq!(&got, &oracle.try_get(&h).unwrap());
                    if let Some(got) = got {
                        served.push((pool_page(id), got));
                    }
                }
                8 => {
                    // Keep the pool pages whose id shares `id`'s parity.
                    let mut live = PageSet::new();
                    let kept = MemStore::new();
                    for i in (id % 2..64).step_by(2) {
                        let p = pool_page(i);
                        let h = siri_crypto::sha256(&p);
                        if oracle.contains(&h) {
                            live.insert(h, p.len() as u64);
                            kept.put(p);
                        }
                    }
                    let (dead, _) = store.sweep(&live).unwrap();
                    prop_assert_eq!(dead as usize, oracle.len() - kept.len());
                    oracle = kept;
                }
                _ => {
                    drop(store);
                    let (reopened, recovered) = FileStore::open_with(dir.path(), opts(cap)).unwrap();
                    prop_assert_eq!(recovered, oracle.len());
                    store = reopened;
                }
            }
            assert_identical(&served);
        }
        prop_assert_eq!(store.len(), oracle.len());
        for id in 0..64 {
            let h = siri_crypto::sha256(&pool_page(id));
            prop_assert_eq!(store.try_get(&h).unwrap(), oracle.try_get(&h).unwrap());
        }
        drop(store);
        assert_identical(&served);
    }
}
