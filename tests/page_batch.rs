//! `NodeStore::try_put_batch` ≡ a loop of `try_put`, on both backends.
//!
//! A commit's pages reach the store as one `PageBatch`; the store must
//! account for them exactly as if they had been put one by one — repeats
//! inside the batch and pages already stored count as shared puts — and on
//! `FileStore` write the same bytes to disk (`disk_bytes` is the numerator
//! of `e2e`'s `stored_bytes_per_user_byte`), in one append.

use bytes::Bytes;
use proptest::prelude::*;
use siri_store::{
    FileStore, FileStoreOptions, FsyncPolicy, MemStore, NodeStore, PageBatch, StoreStats,
};

/// Deterministic page for index `i`: distinct per index, varied length.
fn page(i: usize) -> Bytes {
    let mut v = vec![i as u8; 1 + (i * 13) % 90];
    v[0] = 0xC0 ^ i as u8;
    Bytes::from(v)
}

/// The counters the batch path must move exactly as the loop does.
fn counters(s: StoreStats) -> [u64; 7] {
    [
        s.puts,
        s.logical_bytes,
        s.shared_puts,
        s.shared_bytes,
        s.unique_pages,
        s.unique_bytes,
        s.bytes_written,
    ]
}

/// Put the pages for `indices`, one by one or as one batch.
fn put_all<S: NodeStore>(store: &S, indices: &[usize], batched: bool) {
    if batched {
        let mut batch = PageBatch::new();
        for &i in indices {
            batch.push(page(i));
        }
        store.try_put_batch(&batch).unwrap();
    } else {
        for &i in indices {
            store.try_put(page(i)).unwrap();
        }
    }
}

fn file_store(name: &str, case: u64) -> FileStore {
    let dir = std::env::temp_dir().join("siri-page-batch-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let opts = FileStoreOptions { fsync: FsyncPolicy::Never, ..FileStoreOptions::default() };
    FileStore::open_with(path, opts).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn a_batch_put_counts_like_a_loop_of_puts(
        // A small index space forces repeats inside the batch and hits
        // against pages stored before it.
        stored in proptest::collection::vec(0usize..24, 0..12),
        incoming in proptest::collection::vec(0usize..24, 0..40),
        case in 0u64..u64::MAX,
    ) {
        let (looped, batched) = (MemStore::new(), MemStore::new());
        for (store, batch) in [(&looped, false), (&batched, true)] {
            put_all(store, &stored, false);
            put_all(store, &incoming, batch);
        }
        prop_assert_eq!(counters(batched.stats()), counters(looped.stats()));
        prop_assert_eq!(batched.page_hashes(), looped.page_hashes());

        let (looped, batched) = (file_store("loop", case), file_store("batch", case));
        put_all(&looped, &stored, false);
        put_all(&looped, &incoming, false);
        put_all(&batched, &stored, false);
        let before = batched.stats();
        put_all(&batched, &incoming, true);
        let after = batched.stats();
        prop_assert_eq!(counters(after), counters(looped.stats()));
        prop_assert_eq!(batched.disk_bytes(), looped.disk_bytes(), "same bytes on disk");
        prop_assert_eq!(batched.len(), looped.len());
        let fresh = after.unique_pages > before.unique_pages;
        prop_assert_eq!(after.appends - before.appends, fresh as u64, "one append, if anything is new");
        for dir in [looped.path().to_path_buf(), batched.path().to_path_buf()] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
