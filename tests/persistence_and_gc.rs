//! End-to-end persistence and garbage collection: a real index on the
//! file-backed store surviving process "restarts", and version retirement
//! reclaiming exclusive pages while shared ones survive — on *both*
//! backends, now that GC is generic over [`siri::Reclaim`]. On the durable
//! backend a sweep is a compaction: the on-disk footprint must shrink to
//! (almost) the live page set's byte size.

use std::sync::Arc;

use siri::workloads::YcsbConfig;
use siri::{
    CachingStore, Entry, FileStoreOptions, Forkbase, FsyncPolicy, MemStore, NodeStore, PageSet,
    PosParams, PosTree, Reclaim, Session, ShardingPolicy, SharedStore, SiriIndex, WriteBatch,
};
use siri_store::{gc, FileStore};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("siri-integration-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.db", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn pos_tree_survives_restart_on_file_store() {
    let path = tmp("pos-restart");
    let ycsb = YcsbConfig::default();
    let root;
    {
        let (fs, _) = FileStore::open(&path).unwrap();
        let store: SharedStore = Arc::new(fs);
        let mut t = PosTree::new(store, PosParams::default());
        t.batch_insert(ycsb.dataset(2_000)).unwrap();
        root = t.root();
    } // "process exits"

    let (fs, recovered) = FileStore::open(&path).unwrap();
    assert!(recovered > 0, "pages must persist");
    let store: SharedStore = Arc::new(fs);
    let t = PosTree::open(store, PosParams::default(), root);
    assert_eq!(t.len().unwrap(), 2_000);
    assert_eq!(t.get(&ycsb.key(42)).unwrap().unwrap(), ycsb.value(42, 0));
    // Proofs still verify against the persisted digest.
    let proof = t.prove(&ycsb.key(7)).unwrap();
    assert!(PosTree::verify_proof(root, &ycsb.key(7), &proof).is_valid());
}

#[test]
fn all_indexes_work_over_the_file_store() {
    use siri::{IndexFactory, MbtFactory, MptFactory, MvmbFactory, MvmbParams, PosFactory};
    let entries: Vec<Entry> = YcsbConfig::default().dataset(500);

    macro_rules! check {
        ($name:expr, $factory:expr) => {{
            let path = tmp($name);
            let (fs, _) = FileStore::open(&path).unwrap();
            let store: SharedStore = Arc::new(fs);
            let mut idx = $factory.empty(store);
            idx.batch_insert(entries.clone()).unwrap();
            assert_eq!(idx.len().unwrap(), 500, "{}", $name);
            assert!(idx.get(&entries[99].key).unwrap().is_some());
        }};
    }
    check!("fs-pos", PosFactory(PosParams::default()));
    check!("fs-mpt", MptFactory);
    check!("fs-mbt", MbtFactory { buckets: 64, fanout: 4 });
    check!("fs-mvmb", MvmbFactory(MvmbParams::default()));
}

/// One append per commit: every structure hands a commit's pages to the
/// store as one `PageBatch`, which `FileStore` writes with one `write(2)`.
#[test]
fn an_index_commit_is_one_append_on_the_file_store() {
    use siri::{IndexFactory, MbtFactory, MptFactory, MvmbFactory, MvmbParams, PosFactory};
    let ycsb = YcsbConfig::default();
    // 150 overwrites and fresh keys plus 50 deletes.
    let ops = || {
        let mut batch = WriteBatch::new();
        for i in 0..150u64 {
            batch.put(ycsb.key(i * 17 % 2_500), ycsb.value(i, 1));
        }
        for i in 0..50u64 {
            batch.delete(ycsb.key(i * 31 % 2_000 + 1));
        }
        batch
    };

    macro_rules! check {
        ($name:expr, $factory:expr) => {{
            let (fs, _) = FileStore::open(tmp($name)).unwrap();
            let fs = Arc::new(fs);
            let mut idx = $factory.empty(fs.clone() as SharedStore);
            idx.batch_insert(ycsb.dataset(2_000)).unwrap();
            let before = fs.stats();
            idx.commit(ops()).unwrap();
            let after = fs.stats();
            assert!(after.unique_pages > before.unique_pages, "{}: the commit wrote pages", $name);
            assert_eq!(after.appends - before.appends, 1, "{}: one append per commit", $name);
        }};
    }
    check!("append-pos", PosFactory(PosParams::default()));
    check!("append-mpt", MptFactory);
    check!("append-mbt", MbtFactory { buckets: 64, fanout: 4 });
    check!("append-mvmb", MvmbFactory(MvmbParams::default()));

    // A sharded commit pays one append per shard it touches, plus one for
    // the manifest page that publishes it.
    let engine = Forkbase::new_durable_with_sharding(
        MptFactory,
        tmp("append-sharded"),
        FileStoreOptions { fsync: FsyncPolicy::Never, ..FileStoreOptions::default() },
        ShardingPolicy::pinned(4),
        0,
    )
    .unwrap();
    let mut batch = WriteBatch::new();
    for i in 0..100u8 {
        batch.put(vec![0x10, i], vec![i; 40]); // shard 0 of 4
        batch.put(vec![0x50, i], vec![i; 40]); // shard 1 of 4
    }
    let before = engine.server_stats().appends;
    let info = engine.commit("master", batch).unwrap();
    assert_eq!(info.shards.len(), 2, "the commit spans two shards");
    assert_eq!(engine.server_stats().appends - before, 2 + 1);
}

/// Build versions, retire all but the head, sweep, and check the head
/// survives intact — shared logic for both backends.
fn gc_retires_versions_on<S: Reclaim + 'static>(store_arc: Arc<S>) -> (Arc<S>, PosTree) {
    let ycsb = YcsbConfig::default();
    let shared: SharedStore = store_arc.clone();
    let mut t = PosTree::new(shared, PosParams::default());
    t.batch_insert(ycsb.dataset(3_000)).unwrap();
    let old = t.clone();
    for v in 1..=5u32 {
        t.batch_insert((0..150u64).map(|i| ycsb.entry(i * 11 % 3_000, v)).collect()).unwrap();
    }

    // Retire everything but the head: reclaim must free pages exclusive to
    // the old versions, while the head stays fully intact.
    let live: Vec<PageSet> = vec![t.page_set()];
    let (reclaimed_pages, reclaimed_bytes) =
        gc::sweep_unreachable(store_arc.as_ref(), &live).unwrap();
    assert!(reclaimed_pages > 0 && reclaimed_bytes > 0, "retired versions must free pages");

    // Head unaffected; the retired snapshot is now (correctly) broken.
    assert_eq!(t.len().unwrap(), 3_000);
    assert_eq!(t.scan().unwrap().len(), 3_000);
    assert!(old.scan().is_err() || old.page_set().len() < live[0].len());
    (store_arc, t)
}

#[test]
fn gc_reclaims_retired_versions_only() {
    let (mem, t) = gc_retires_versions_on(Arc::new(MemStore::new()));
    assert_eq!(mem.len(), t.page_set().len(), "only the head's pages remain");
}

#[test]
fn gc_compacts_the_file_store_on_disk() {
    let path = tmp("gc-compact");
    let (fs, _) = FileStore::open(&path).unwrap();
    let fs = Arc::new(fs);
    let disk_before = fs.disk_bytes();
    let (fs, t) = gc_retires_versions_on(fs);

    // The acceptance bar: after sweeping, the on-disk footprint is within
    // 10% of the live page set's byte size (frame headers are 37 B/page).
    let live_bytes = t.page_set().byte_size();
    let disk = fs.disk_bytes();
    assert!(disk > 0 && disk_before < disk);
    assert!(
        disk as f64 <= live_bytes as f64 * 1.10,
        "disk {disk} B not within 10% of live {live_bytes} B"
    );

    // Crash-free reopen sees exactly the live set and the head still reads.
    let root = t.root();
    drop(t);
    drop(fs);
    let (fs, recovered) = FileStore::open(&path).unwrap();
    let reopened = PosTree::open(Arc::new(fs) as SharedStore, PosParams::default(), root);
    assert_eq!(recovered, reopened.page_set().len());
    assert_eq!(reopened.len().unwrap(), 3_000);
}

#[test]
fn concurrent_readers_during_writes() {
    // Handles are snapshots: readers on a fixed version see stable content
    // while a writer advances the head on the same shared store.
    let store = MemStore::new_shared();
    let ycsb = YcsbConfig::default();
    let mut head = PosTree::new(store, PosParams::default());
    head.batch_insert(ycsb.dataset(2_000)).unwrap();
    let frozen = head.clone();
    let frozen_root = frozen.root();

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let snapshot = frozen.clone();
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    let key = YcsbConfig::default().key((i * 7 + r) % 2_000);
                    assert!(snapshot.get(&key).unwrap().is_some());
                }
                snapshot.root()
            })
        })
        .collect();

    // Writer mutates the head concurrently.
    for v in 1..=10u32 {
        head.batch_insert((0..100u64).map(|i| ycsb.entry(i, v)).collect()).unwrap();
    }

    for r in readers {
        assert_eq!(r.join().unwrap(), frozen_root, "snapshot must be stable");
    }
    assert_ne!(head.root(), frozen_root);
}

#[test]
fn concurrent_readers_survive_a_file_store_compaction() {
    // Readers race a compaction on the durable backend: every lookup must
    // come back correct — served from either generation, never an error.
    let path = tmp("gc-race");
    let (fs, _) = FileStore::open(&path).unwrap();
    let fs = Arc::new(fs);
    let ycsb = YcsbConfig::default();
    let mut head = PosTree::new(Arc::clone(&fs) as SharedStore, PosParams::default());
    head.batch_insert(ycsb.dataset(2_000)).unwrap();
    let old = head.clone();
    head.batch_insert((0..200u64).map(|i| ycsb.entry(i, 1)).collect()).unwrap();
    let _ = old; // retired version: its exclusive pages are garbage

    let snapshot = head.clone();
    let reader = std::thread::spawn(move || {
        for round in 0..20u64 {
            for i in (0..2_000u64).step_by(97) {
                assert!(snapshot.get(&ycsb.key(i)).unwrap().is_some(), "round {round} key {i}");
            }
        }
    });
    let (reclaimed, _) = fs.sweep(&head.page_set()).unwrap();
    assert!(reclaimed > 0);
    reader.join().unwrap();
    assert_eq!(head.len().unwrap(), 2_000);
}

#[test]
fn caching_store_serves_a_live_index() {
    // Client-side cached reads return exactly the server's content.
    let server = MemStore::new_shared();
    let ycsb = YcsbConfig::default();
    let mut server_idx = PosTree::new(server.clone(), PosParams::default());
    server_idx.batch_insert(ycsb.dataset(1_000)).unwrap();

    let client_store: SharedStore = Arc::new(CachingStore::new(server, 1_000));
    let client_idx = PosTree::open(client_store, PosParams::default(), server_idx.root());
    for i in (0..1_000u64).step_by(50) {
        assert_eq!(client_idx.get(&ycsb.key(i)).unwrap().unwrap(), ycsb.value(i, 0));
    }
}
