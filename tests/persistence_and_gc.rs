//! End-to-end persistence and garbage collection: a real index on the
//! file-backed store surviving process "restarts", and version retirement
//! reclaiming exclusive pages while shared ones survive — on *both*
//! backends, now that GC is generic over [`siri::Reclaim`]. On the durable
//! backend a sweep is a compaction: the on-disk footprint must shrink to
//! (almost) the live page set's byte size.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use siri::workloads::YcsbConfig;
use siri::{
    Entry, FileStoreOptions, Forkbase, FsyncPolicy, MemStore, NodeStore, PageSet, PosParams,
    PosTree, Reclaim, Session, ShardingPolicy, SharedStore, SiriIndex, WriteBatch,
};
use siri_store::{gc, FileStore, PageBatch, StoreError, StoreResult};

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
}

/// One append and one fsync per engine publication: a commit spanning
/// shards, a reshape and a bulk load each hand every page they stage, and
/// the manifest page, to the store in one batch, then flush once.
#[test]
fn an_engine_publication_is_one_append_and_one_fsync() {
    use siri::{IndexError, MptFactory};
    let engine = Forkbase::new_durable_with_sharding(
        MptFactory,
        tmp("append-sharded"),
        FileStoreOptions { fsync: FsyncPolicy::OnCommit, ..FileStoreOptions::default() },
        ShardingPolicy::pinned(4),
        0,
    )
    .unwrap();
    let io = || {
        let s = engine.server_stats();
        (s.appends, s.fsyncs)
    };
    let mut batch = WriteBatch::new();
    for i in 0..100u8 {
        batch.put(vec![0x10, i], vec![i; 40]); // shard 0 of 4
        batch.put(vec![0x50, i], vec![i; 40]); // shard 1 of 4
    }
    let before = io();
    let info = engine.commit("master", batch).unwrap();
    assert_eq!(info.shards.len(), 2, "the commit spans two shards");
    let after = io();
    assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1), "spanning commit");

    type Publication<'a> = (&'a str, Box<dyn Fn() -> Result<bool, IndexError> + 'a>);
    let publications: [Publication<'_>; 3] = [
        ("split", Box::new(|| engine.split_branch_shard("master", 0))),
        ("merge", Box::new(|| engine.merge_branch_shards("master", 1))),
        (
            "bulk load",
            Box::new(|| {
                engine.bulk_load("loaded", YcsbConfig::default().dataset(500), 4).map(|_| true)
            }),
        ),
    ];
    for (what, publish) in publications {
        let before = io();
        assert!(publish().unwrap(), "{what} applies");
        let after = io();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1), "{what}");
    }
    assert_eq!(engine.shard_count("loaded").unwrap(), 4, "the load built four sub-trees");
}

/// A store whose next batch append fails once armed.
struct FailingAppend {
    inner: MemStore,
    armed: AtomicBool,
}

impl NodeStore for FailingAppend {
    fn try_put(&self, page: bytes::Bytes) -> StoreResult<siri::Hash> {
        self.inner.try_put(page)
    }
    fn try_get(&self, hash: &siri::Hash) -> StoreResult<Option<bytes::Bytes>> {
        self.inner.try_get(hash)
    }
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        if self.armed.swap(false, Ordering::SeqCst) {
            return Err(StoreError::io("append", std::io::Error::other("injected append fault")));
        }
        self.inner.try_put_batch(batch)
    }
    fn contains(&self, hash: &siri::Hash) -> bool {
        self.inner.contains(hash)
    }
    fn stats(&self) -> siri::StoreStats {
        self.inner.stats()
    }
}

fn failing_append() -> Arc<FailingAppend> {
    Arc::new(FailingAppend { inner: MemStore::new(), armed: AtomicBool::new(false) })
}

/// A commit whose append fails leaves every handle and head where it was:
/// nothing points at pages that never landed, and the next commit works.
#[test]
fn a_failed_append_changes_nothing() {
    use siri::PosFactory;
    use siri::{IndexError, IndexFactory, MbtFactory, MptFactory, MvmbFactory, MvmbParams};
    let ycsb = YcsbConfig::default();
    let rewrite = || WriteBatch::from_entries((0..50u64).map(|i| ycsb.entry(i * 7, 1)).collect());

    macro_rules! check {
        ($name:expr, $factory:expr) => {{
            let store = failing_append();
            let mut idx = $factory.empty(store.clone() as SharedStore);
            idx.batch_insert(ycsb.dataset(500)).unwrap();
            let root = idx.root();
            store.armed.store(true, Ordering::SeqCst);
            let err = idx.commit(rewrite()).unwrap_err();
            assert!(matches!(err, IndexError::Store(_)), "{}: {err:?}", $name);
            assert_eq!(idx.root(), root, "{}: the handle stays at the old version", $name);
            assert_eq!(idx.get(&ycsb.key(7)).unwrap().unwrap(), ycsb.value(7, 0), "{}", $name);
            idx.commit(rewrite()).unwrap();
            assert_eq!(idx.get(&ycsb.key(7)).unwrap().unwrap(), ycsb.value(7, 1), "{}", $name);
        }};
    }
    check!("pos-tree", PosFactory(PosParams::default()));
    check!("mpt", MptFactory);
    check!("mbt", MbtFactory { buckets: 64, fanout: 4 });
    check!("mvmb", MvmbFactory(MvmbParams::default()));

    // On the engine: a commit spanning all four shards of a pinned head.
    let store = failing_append();
    let engine = Forkbase::with_sharding(MptFactory, store.clone(), ShardingPolicy::pinned(4), 0);
    let spanning = |v: u8| {
        let mut batch = WriteBatch::new();
        for lead in [0x10u8, 0x50, 0x90, 0xd0] {
            batch.put(vec![lead, 1], vec![v; 8]);
        }
        batch
    };
    engine.commit("master", spanning(0)).unwrap();
    let (digest, stats, shards) = (
        engine.branch_digest("master").unwrap(),
        engine.engine_stats(),
        engine.shard_stats("master").unwrap(),
    );
    store.armed.store(true, Ordering::SeqCst);
    let err = engine.commit("master", spanning(1)).unwrap_err();
    assert!(matches!(err, IndexError::Store(StoreError::Io { .. })), "{err:?}");
    assert_eq!(engine.branch_digest("master").unwrap(), digest);
    assert_eq!(engine.engine_stats(), stats, "no commit and no conflict counted");
    assert_eq!(engine.shard_stats("master").unwrap(), shards, "no sub-root swapped");
    assert_eq!(engine.get("master", &[0x90, 1]).unwrap().unwrap().as_ref(), &[0u8; 8]);
    let info = engine.commit("master", spanning(1)).unwrap();
    assert_eq!((info.parent, info.shards.len()), (digest, 4));
    assert_eq!(engine.get("master", &[0x90, 1]).unwrap().unwrap().as_ref(), &[1u8; 8]);
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
    // A light client — an index handle over the server's verified pages,
    // its node cache the client cache — reads exactly the server's content,
    // and stays pinned to its version while the server commits past it.
    use siri::{serve, PosFactory, RemoteSession, ServerOptions};

    let ycsb = YcsbConfig::default();
    let engine = Arc::new(Forkbase::with_sharding(
        PosFactory(PosParams::default()),
        MemStore::new_shared(),
        ShardingPolicy::single(),
        0,
    ));
    let commit = |entries: Vec<Entry>| {
        let mut b = WriteBatch::new();
        for e in entries {
            b.put(e.key, e.value);
        }
        Session::commit(engine.as_ref(), "master", b).unwrap();
        Session::branch_digest(engine.as_ref(), "master").unwrap()
    };
    let v0 = commit(ycsb.dataset(1_000));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = serve(engine.clone(), listener, ServerOptions::default(), None).unwrap();
    let session = RemoteSession::connect(server.addr()).unwrap();

    let client = PosTree::open(session.pages(), PosParams::default(), v0);
    for i in (0..1_000u64).step_by(50) {
        assert_eq!(client.get(&ycsb.key(i)).unwrap().unwrap(), ycsb.value(i, 0));
    }

    let v1 = commit((0..1_000u64).step_by(50).map(|i| ycsb.entry(i, 1)).collect());
    let fresh = PosTree::open(session.pages(), PosParams::default(), v1);
    for i in (0..1_000u64).step_by(50) {
        assert_eq!(client.get(&ycsb.key(i)).unwrap().unwrap(), ycsb.value(i, 0));
        assert_eq!(fresh.get(&ycsb.key(i)).unwrap().unwrap(), ycsb.value(i, 1));
    }
    assert!(client.node_cache_stats().hits > 0, "the pinned client reread its cache");
}
