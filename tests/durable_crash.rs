//! Crash-recovery properties of the segmented `FileStore`.
//!
//! Two failure families, both driven by proptest:
//!
//! * **Torn append** — the active segment (or the manifest) is truncated at
//!   an arbitrary byte offset, simulating power loss mid-write. Reopen must
//!   recover *exactly* the committed prefix: every frame wholly before the
//!   cut, nothing after it, and the store must keep working. A commit's
//!   `PageBatch` is one append, so the cut may also land inside a batch:
//!   its whole frames before the cut survive, the rest is gone.
//! * **Crashed compaction** — the sweep is aborted at each of its
//!   crash points (new generation written / manifest tmp written / manifest
//!   swapped but old generation not yet deleted), optionally with the
//!   partial new generation itself torn. Reopen must serve every live page
//!   from whichever generation survived intact.
//! * **Group commit** — commits acknowledged under `FsyncPolicy::Group`
//!   are flush-covered before `note_commit` returns; a crash *between
//!   flush ticks* (simulated by cutting the segment anywhere inside the
//!   not-yet-acknowledged tail) must recover exactly an acked-commit
//!   prefix: no acked page lost, no torn frame surfaced.

use bytes::Bytes;
use proptest::prelude::*;
use siri_crypto::{sha256, Hash};
use siri_store::{
    CrashPoint, FileStore, FileStoreOptions, FsyncPolicy, NodeStore, PageBatch, PageSet, Reclaim,
};

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("siri-crash-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// Deterministic distinct page for index `i`.
fn page(i: usize) -> Bytes {
    let len = 20 + (i * 7) % 50;
    let mut v = vec![(i % 251) as u8; len];
    v[0] = (i / 251) as u8; // keep pages distinct past 251
    Bytes::from(v)
}

/// Bytes one frame occupies on disk: header (37) + payload.
fn frame_len(i: usize) -> u64 {
    37 + page(i).len() as u64
}

fn opts(max_segment_bytes: u64) -> FileStoreOptions {
    FileStoreOptions { max_segment_bytes, fsync: FsyncPolicy::Never }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Torn append on a single-segment store: truncating the segment at any
    /// offset keeps exactly the frames wholly before the cut.
    #[test]
    fn torn_append_recovers_exact_committed_prefix(
        n in 1usize..25,
        cut_permille in 0u64..1000,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp("torn-append", case);
        let hashes: Vec<Hash> = {
            let (store, _) = FileStore::open_with(&dir, opts(u64::MAX)).unwrap();
            let hs = (0..n).map(|i| store.put(page(i))).collect();
            store.sync().unwrap();
            hs
        };

        // Cut the lone segment at an arbitrary byte offset.
        let seg = dir.join("seg-00000001.seg");
        let total: u64 = (0..n).map(frame_len).sum();
        let cut = total * cut_permille / 1000;
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

        // Expected surviving prefix: frames fully within `cut`.
        let mut end = 0u64;
        let mut expect = 0usize;
        for i in 0..n {
            end += frame_len(i);
            if end <= cut {
                expect = i + 1;
            } else {
                break;
            }
        }

        let (store, recovered) = FileStore::open_with(&dir, opts(u64::MAX)).unwrap();
        prop_assert_eq!(recovered, expect, "exactly the committed prefix");
        for (i, h) in hashes.iter().enumerate() {
            if i < expect {
                prop_assert_eq!(store.get(h).unwrap(), page(i));
            } else {
                prop_assert!(!store.contains(h), "page {} past the cut must be gone", i);
            }
        }
        // The truncated store keeps accepting and serving writes.
        let h = store.put(Bytes::from_static(b"post-crash"));
        prop_assert_eq!(store.get(&h).unwrap().as_ref(), b"post-crash");
        drop(store);
        let (store, re2) = FileStore::open_with(&dir, opts(u64::MAX)).unwrap();
        prop_assert_eq!(re2, expect + 1);
        prop_assert!(store.contains(&h));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn *batch*: `k` synced one-append batches, then one more batch
    /// whose single write is cut at an arbitrary byte. Reopen keeps every
    /// synced page plus exactly the torn batch's frames wholly before the
    /// cut, and the store keeps appending across a second reopen.
    #[test]
    fn torn_batch_recovers_synced_batches_and_whole_frames(
        k in 0usize..5,
        per_batch in 1usize..12,
        cut_permille in 0u64..1000,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp("torn-batch", case);
        let synced = k * per_batch;
        let batch_of = |pages: std::ops::Range<usize>| {
            let mut batch = PageBatch::new();
            for i in pages {
                batch.push(page(i));
            }
            batch
        };
        {
            let (store, _) = FileStore::open_with(&dir, opts(u64::MAX)).unwrap();
            for b in 0..k {
                store.try_put_batch(&batch_of(b * per_batch..(b + 1) * per_batch)).unwrap();
                store.sync().unwrap();
            }
            store.try_put_batch(&batch_of(synced..synced + per_batch)).unwrap();
            prop_assert_eq!(store.stats().appends, k as u64 + 1, "one append per batch");
        } // power loss during the last batch's write

        let synced_bytes: u64 = (0..synced).map(frame_len).sum();
        let torn_bytes: u64 = (synced..synced + per_batch).map(frame_len).sum();
        let cut = synced_bytes + torn_bytes * cut_permille / 1000;
        let seg = dir.join("seg-00000001.seg");
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

        let mut end = synced_bytes;
        let mut expect = synced;
        for i in synced..synced + per_batch {
            end += frame_len(i);
            if end > cut {
                break;
            }
            expect = i + 1;
        }

        let (store, recovered) = FileStore::open_with(&dir, opts(u64::MAX)).unwrap();
        prop_assert_eq!(recovered, expect, "synced pages plus the torn batch's whole frames");
        for i in 0..synced + per_batch {
            let h = sha256(&page(i));
            if i < expect {
                prop_assert_eq!(store.get(&h), Some(page(i)));
            } else {
                prop_assert!(!store.contains(&h), "page {} past the cut must be gone", i);
            }
        }
        // Appends resume at the clean boundary and survive another reopen.
        let next = synced + per_batch;
        store.try_put_batch(&batch_of(next..next + 2)).unwrap();
        drop(store);
        let (store, re2) = FileStore::open_with(&dir, opts(u64::MAX)).unwrap();
        prop_assert_eq!(re2, expect + 2);
        prop_assert!(store.contains(&sha256(&page(next + 1))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash between group-commit flush ticks: every acknowledged commit
    /// is durable (`note_commit` only returns once a flush covered it), so
    /// cutting the segment anywhere inside the unacknowledged tail must
    /// recover all acked pages plus exactly the whole frames before the
    /// cut — never a torn frame, never a lost ack.
    #[test]
    fn group_commit_crash_recovers_acked_prefix(
        n_acked in 1usize..15,
        n_unacked in 0usize..8,
        cut_permille in 0u64..1000,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp("group-crash", case);
        let group_opts = FileStoreOptions {
            max_segment_bytes: u64::MAX,
            // Zero window: the flush tick is immediate, keeping the 24
            // proptest cases fast; the ack rule under test is identical.
            fsync: FsyncPolicy::Group(std::time::Duration::ZERO),
        };
        {
            let (store, _) = FileStore::open_with(&dir, group_opts).unwrap();
            for i in 0..n_acked {
                store.put(page(i));
                // Returning ⇒ a flush started after this append completed.
                store.note_commit().unwrap();
            }
            prop_assert_eq!(store.stats().commits, n_acked as u64);
            prop_assert!(store.stats().fsyncs >= 1);
            // The crash window: pages appended after the last tick whose
            // commit was never acknowledged.
            for i in n_acked..n_acked + n_unacked {
                store.put(page(i));
            }
        } // process dies between flush ticks

        // Power loss eats an arbitrary suffix of the *unacknowledged*
        // bytes (the acked prefix is flush-covered by construction).
        let acked_bytes: u64 = (0..n_acked).map(frame_len).sum();
        let unacked_bytes: u64 = (n_acked..n_acked + n_unacked).map(frame_len).sum();
        let cut = acked_bytes + unacked_bytes * cut_permille / 1000;
        let seg = dir.join("seg-00000001.seg");
        std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();

        // Expected survivors: all acked frames plus the whole unacked
        // frames wholly before the cut.
        let mut end = acked_bytes;
        let mut expect = n_acked;
        for i in n_acked..n_acked + n_unacked {
            end += frame_len(i);
            if end <= cut {
                expect = i + 1;
            } else {
                break;
            }
        }

        let (store, recovered) = FileStore::open_with(&dir, group_opts).unwrap();
        prop_assert_eq!(recovered, expect, "acked prefix plus whole pre-cut frames");
        for i in 0..n_acked {
            prop_assert_eq!(
                store.get(&sha256(&page(i))).as_ref(),
                Some(&page(i)),
                "acked page {} lost", i
            );
        }
        // The store keeps working after the crash, acks included.
        store.put(Bytes::from_static(b"post-group-crash"));
        store.note_commit().unwrap();
        drop(store);
        let (store, re2) = FileStore::open_with(&dir, group_opts).unwrap();
        prop_assert_eq!(re2, expect + 1);
        prop_assert!(store.contains(&sha256(b"post-group-crash")));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn or missing manifest must never lose pages: recovery falls
    /// back to loading every segment on disk.
    #[test]
    fn torn_manifest_loses_nothing(
        n in 1usize..40,
        cut_permille in 0u64..1000,
        delete in proptest::bool::ANY,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmp("torn-manifest", case);
        let hashes: Vec<Hash> = {
            // Small segments: several rotations, so the manifest matters.
            let (store, _) = FileStore::open_with(&dir, opts(256)).unwrap();
            let hs = (0..n).map(|i| store.put(page(i))).collect();
            store.sync().unwrap();
            hs
        };

        let manifest = dir.join("MANIFEST");
        if delete {
            std::fs::remove_file(&manifest).unwrap();
        } else {
            let len = std::fs::metadata(&manifest).unwrap().len();
            let cut = len * cut_permille / 1000;
            std::fs::OpenOptions::new().write(true).open(&manifest).unwrap().set_len(cut).unwrap();
        }

        let (store, recovered) = FileStore::open_with(&dir, opts(256)).unwrap();
        prop_assert_eq!(recovered, n, "no page may vanish with the manifest");
        for (i, h) in hashes.iter().enumerate() {
            prop_assert_eq!(store.get(h).unwrap(), page(i));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction aborted at any crash point (with the partial generation
    /// optionally torn as well) reopens to a store holding every live page.
    #[test]
    fn crashed_compaction_preserves_all_live_pages(
        n in 2usize..30,
        live_mask in proptest::collection::vec(proptest::bool::ANY, 30),
        crash_sel in 0usize..3,
        // >= 1000 means "no tear"; below that, the permille of the cut.
        tear_permille in 0u64..2000,
        case in 0u64..u64::MAX,
    ) {
        let crash = [
            CrashPoint::AfterSegmentsWritten,
            CrashPoint::AfterManifestTmp,
            CrashPoint::AfterSwap,
        ][crash_sel];
        let dir = tmp("crash-compact", case);
        let (store, _) = FileStore::open_with(&dir, opts(512)).unwrap();
        let hashes: Vec<Hash> = (0..n).map(|i| store.put(page(i))).collect();
        store.sync().unwrap();

        let mut live = PageSet::new();
        let mut live_idx = Vec::new();
        for (i, h) in hashes.iter().enumerate() {
            if live_mask[i] {
                live.insert(*h, page(i).len() as u64);
                live_idx.push(i);
            }
        }

        // Crash the compaction, then "kill the process".
        store.sweep_with_crash(&live, Some(crash)).unwrap();
        drop(store);

        // Optionally tear the tail of the newest segment file on disk —
        // a crash mid-write of the new generation.
        if tear_permille < 1000 {
            let mut segs: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
                .map(|e| e.path())
                .collect();
            segs.sort();
            if let Some(newest) = segs.last() {
                // Only tear when the newest segment is an unreferenced
                // stray (pre-swap crash): tearing the *live* generation is
                // the torn-append scenario, covered above.
                if crash != CrashPoint::AfterSwap {
                    let len = std::fs::metadata(newest).unwrap().len();
                    let cut = len * tear_permille / 1000;
                    std::fs::OpenOptions::new()
                        .write(true)
                        .open(newest)
                        .unwrap()
                        .set_len(cut)
                        .unwrap();
                }
            }
        }

        // Reopen: every live page must be served, whatever generation won.
        let (store, _) = FileStore::open_with(&dir, opts(512)).unwrap();
        for &i in &live_idx {
            let got = store.try_get(&hashes[i]).unwrap();
            prop_assert_eq!(got.as_ref(), Some(&page(i)), "live page {} lost", i);
        }

        // And a completed sweep afterwards converges to exactly the live set.
        let (_, _) = store.sweep(&live).unwrap();
        prop_assert_eq!(store.len(), live_idx.len());
        for &i in &live_idx {
            prop_assert_eq!(store.get(&hashes[i]).unwrap(), page(i));
        }
        // Digest spot-check: content addressing holds after two generations.
        if let Some(&i) = live_idx.first() {
            prop_assert_eq!(sha256(&store.get(&hashes[i]).unwrap()), hashes[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
