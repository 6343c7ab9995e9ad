//! Loopback integration tests for the wire stack: a real `siri-server`
//! on 127.0.0.1, real `RemoteSession` clients, real TCP in between.
//!
//! Covers: concurrent clients on disjoint branches replay to the exact
//! digests the in-process engine produces; paged cursors stream faithfully
//! at tiny page sizes; remote proofs verify offline; a light client reads
//! exactly the engine's values through verified pages, and a lying server
//! cannot feed it; Merkle anti-entropy ships a small delta cheaply and
//! resumes after a mid-sync disconnect; an oversized response leaves the
//! session usable; backpressure and shutdown behave. The tests whose
//! answer could depend on the store or the partition run on every engine
//! configuration of the shared `matrix` module; the transport-only ones
//! run on its default.

mod matrix;

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use matrix::{Config, DEFAULT, ENGINES, STORES};
use siri::{
    serve, ClientOptions, Forkbase, Hash, IndexError, IndexFactory, MbtFactory, MemStore,
    MptFactory, MvmbFactory, MvmbParams, NodeStore, PosFactory, PosParams, RemoteSession,
    ServerHandle, ServerOptions, Session, SiriIndex, StoreError, StructureStats, SyncOptions,
    WriteBatch,
};

fn engine(cfg: Config) -> Arc<Forkbase<PosFactory>> {
    Arc::new(cfg.engine(PosFactory(PosParams::default())))
}

fn loopback(
    cfg: Config,
    opts: ServerOptions,
) -> (Arc<Forkbase<PosFactory>>, ServerHandle<PosFactory>) {
    let engine = engine(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = serve(engine.clone(), listener, opts, None).unwrap();
    (engine, handle)
}

fn batch_for(worker: usize, round: usize) -> WriteBatch {
    let mut b = WriteBatch::new();
    for i in 0..20 {
        b.put(
            format!("w{worker}-key{round:02}-{i:03}").into_bytes(),
            format!("value-{worker}-{round}-{i}").into_bytes(),
        );
    }
    b
}

#[test]
fn concurrent_clients_on_disjoint_branches_match_in_process_replay() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 4;
    matrix::each(ENGINES, |cfg| {
        let (served, handle) = loopback(cfg, ServerOptions::default());
        let addr = handle.addr();

        // Eight clients, each on its own connection and its own branch.
        std::thread::scope(|scope| {
            for w in 0..CLIENTS {
                scope.spawn(move || {
                    let session = RemoteSession::connect(addr).unwrap();
                    let branch = format!("writer-{w}");
                    session.fork("master", &branch).unwrap();
                    for r in 0..ROUNDS {
                        session.commit(&branch, batch_for(w, r)).unwrap();
                    }
                });
            }
        });

        // Replay the same work single-threaded on a fresh in-process engine:
        // every branch digest must agree bit-for-bit (structural invariance
        // across transports and schedules).
        let replay = engine(cfg);
        for w in 0..CLIENTS {
            let branch = format!("writer-{w}");
            Session::fork(replay.as_ref(), "master", &branch).unwrap();
            for r in 0..ROUNDS {
                Session::commit(replay.as_ref(), &branch, batch_for(w, r)).unwrap();
            }
        }
        for w in 0..CLIENTS {
            let branch = format!("writer-{w}");
            assert_eq!(
                served.branch_digest(&branch).unwrap(),
                Session::branch_digest(replay.as_ref(), &branch).unwrap(),
                "{branch} diverged from the in-process replay"
            );
        }

        // The server saw all the traffic and every connection retired cleanly.
        let stats = handle.stats();
        assert_eq!(stats.accepted, CLIENTS as u64);
        assert_eq!(stats.rejected, 0);
        assert!(stats.total_requests >= (CLIENTS * (ROUNDS + 2)) as u64);
    });
}

#[test]
fn tiny_pages_stream_the_full_range() {
    matrix::each(ENGINES, |cfg| {
        let (served, handle) = loopback(cfg, ServerOptions::default());
        let mut b = WriteBatch::new();
        for i in 0..100u32 {
            b.put(format!("k{i:03}").into_bytes(), format!("v{i}").into_bytes());
        }
        Session::commit(served.as_ref(), "master", b).unwrap();

        // A 7-entry page forces ~15 round trips for one scan.
        let opts = ClientOptions { page_size: 7, ..ClientOptions::default() };
        let session = RemoteSession::connect_with(handle.addr(), opts).unwrap();
        let all: Vec<_> = session
            .range("master", std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key));
        assert_eq!(all[42].key.as_ref(), b"k042");
        assert_eq!(all[42].value.as_ref(), b"v42");

        // Prefix scan pages the same way.
        let tens: Vec<_> =
            session.scan_prefix("master", b"k04").unwrap().collect::<siri::Result<_>>().unwrap();
        assert_eq!(tens.len(), 10);

        // The server really served multiple scan pages for those cursors.
        let stats = session.server_stats().unwrap();
        assert!(
            stats.conns.iter().any(|c| c.scan_pages >= 15),
            "expected paged scans in the counters: {stats:?}"
        );
    });
}

/// Per `Range` request: the `limit` asked for and how many cursor steps
/// serving it drained.
type RangeLog = Arc<std::sync::Mutex<Vec<(u32, usize)>>>;

/// A hand-rolled server over a real engine that records every `Range` it
/// serves (the real server's `limit + 1` look-ahead included).
fn recording_range_server(
    engine: Arc<Forkbase<PosFactory>>,
) -> (std::net::SocketAddr, RangeLog, std::thread::JoinHandle<()>) {
    use siri::proto::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES, WIRE_VERSION};

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let log = RangeLog::default();
    let recorded = log.clone();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(frame) = read_frame(&mut stream, MAX_FRAME_BYTES) {
            let resp = match Request::decode(&frame).unwrap() {
                Request::Hello { .. } => Response::Hello { version: WIRE_VERSION },
                Request::Range { branch, start, end, after, limit } => {
                    let from = match &after {
                        Some(k) => std::ops::Bound::Excluded(k.as_ref()),
                        None => start.as_bound(),
                    };
                    let mut drained = 0;
                    let mut entries: Vec<_> =
                        Session::range(&*engine, &branch, from, end.as_bound())
                            .unwrap()
                            .take(limit as usize + 1)
                            .inspect(|_| drained += 1)
                            .collect::<siri::Result<_>>()
                            .unwrap();
                    let done = entries.len() <= limit as usize;
                    entries.truncate(limit as usize);
                    recorded.lock().unwrap().push((limit, drained));
                    Response::Page { entries, done }
                }
                _ => Response::Ok,
            };
            if write_frame(&mut stream, &resp.encode()).is_err() {
                return;
            }
        }
    });
    (addr, log, server)
}

/// A scan capped by `take(n)` asks each page for what is left of `n` (up to
/// `page_size`), so the server walks `n + 1` entries, not a whole page. An
/// uncapped scan starts with a small page and ramps up to `page_size`, and
/// stays seamless across every page boundary.
#[test]
fn scan_paging_starts_small_and_ramps_to_the_cap() {
    use std::ops::Bound::{Excluded, Included, Unbounded};

    let served = engine(DEFAULT);
    let mut b = WriteBatch::new();
    for i in 0..700u32 {
        b.put(format!("k{i:04}").into_bytes(), format!("v{i}").into_bytes());
    }
    Session::commit(served.as_ref(), "master", b).unwrap();
    let local = |start, end| -> Vec<siri::Entry> {
        Session::range(served.as_ref(), "master", start, end)
            .unwrap()
            .collect::<siri::Result<_>>()
            .unwrap()
    };

    let (addr, log, server) = recording_range_server(served.clone());
    let session = RemoteSession::connect(addr).unwrap();
    let take_log = || std::mem::take(&mut *log.lock().unwrap());

    // The common short scan: one round trip, exactly the entries taken.
    let take = |n: usize| -> Vec<siri::Entry> {
        session
            .range("master", Unbounded, Unbounded)
            .unwrap()
            .take(n)
            .collect::<siri::Result<_>>()
            .unwrap()
    };
    assert_eq!(take(50), local(Unbounded, Unbounded)[..50]);
    assert_eq!(take_log(), [(50, 51)], "take(50) must cost one 50-entry page");
    // A cap past the first-page size skips the ramp.
    assert_eq!(take(200), local(Unbounded, Unbounded)[..200]);
    assert_eq!(take_log(), [(200, 201)]);
    // Taking nothing asks for nothing.
    assert!(take(0).is_empty());
    assert_eq!(take_log(), []);

    // A full scan ramps 64 → 256 and stays there; the result is the
    // in-process scan, seams (63|64, 319|320, 575|576) included.
    let all: Vec<_> = session
        .range("master", Unbounded, Unbounded)
        .unwrap()
        .collect::<siri::Result<_>>()
        .unwrap();
    assert_eq!(all, local(Unbounded, Unbounded));
    assert_eq!(take_log(), [(64, 65), (256, 257), (256, 257), (256, 124)]);

    // A range of exactly 64 + 256 + 256 entries ends on `done`, with no
    // fourth round trip to discover the end.
    let (lo, hi) = (b"k0010".as_ref(), b"k0586".as_ref());
    let exact: Vec<_> = session
        .range("master", Included(lo), Excluded(hi))
        .unwrap()
        .collect::<siri::Result<_>>()
        .unwrap();
    assert_eq!(exact.len(), 576);
    assert_eq!(exact, local(Included(lo), Excluded(hi)));
    assert_eq!(take_log(), [(64, 65), (256, 257), (256, 256)]);
    drop(session);
    server.join().unwrap();

    // `page_size` bounds every page, the first included; the last page of
    // a capped scan asks only for the remainder.
    let (addr, log, server) = recording_range_server(served.clone());
    let opts = ClientOptions { page_size: 7, ..ClientOptions::default() };
    let session = RemoteSession::connect_with(addr, opts).unwrap();
    let some: Vec<_> = session
        .range("master", Unbounded, Unbounded)
        .unwrap()
        .take(30)
        .collect::<siri::Result<_>>()
        .unwrap();
    assert_eq!(some, local(Unbounded, Unbounded)[..30]);
    assert_eq!(*log.lock().unwrap(), [(7, 8), (7, 8), (7, 8), (7, 8), (2, 3)]);
    drop(session);
    server.join().unwrap();
}

#[test]
fn remote_proofs_verify_offline() {
    matrix::each(ENGINES, |cfg| {
        let (served, handle) = loopback(cfg, ServerOptions::default());
        let mut b = WriteBatch::new();
        for i in 0..200u32 {
            b.put(format!("acct{i:04}").into_bytes(), format!("balance{i}").into_bytes());
        }
        Session::commit(served.as_ref(), "master", b).unwrap();

        let session = RemoteSession::connect(handle.addr()).unwrap();
        let (root, proof) = session.prove("master", b"acct0123").unwrap();
        assert_eq!(root, session.branch_digest("master").unwrap());
        // Verification is pure local computation: no server, no store. The
        // anchored verifier handles both bare and manifest-rooted proofs, so
        // this holds on every partition.
        let scheme = &siri::PosProofScheme;
        let verdict = siri::verify_anchored_membership(scheme, root, b"acct0123", &proof);
        assert_eq!(verdict.value().unwrap().as_ref(), b"balance123");
        assert!(!siri::verify_anchored_membership(scheme, root, b"acct9999", &proof).is_valid());
    });
}

/// A server that lies about proofs must not get past the client. The
/// client's only trust anchor is the branch digest it fetched itself;
/// any proof whose claimed root differs from that digest — or whose
/// pages don't hash up to it — is rejected with `ProofRejected` before
/// a single byte of it is believed.
#[test]
fn malicious_server_proofs_are_rejected_client_side() {
    use bytes::Bytes;
    use siri::proto::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES, WIRE_VERSION};

    // A hand-rolled "server" speaking just enough of the wire protocol to
    // lie: honest handshake, honest digest, doctored proofs.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let digest = siri::crypto::sha256(b"the-root-the-client-trusts");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        loop {
            let frame = match read_frame(&mut stream, MAX_FRAME_BYTES) {
                Ok(f) => f,
                Err(_) => return, // client hung up
            };
            let resp = match Request::decode(&frame).unwrap() {
                Request::Hello { .. } => Response::Hello { version: WIRE_VERSION },
                Request::BranchDigest { .. } => Response::Digest(digest),
                // Self-consistent proof (its page hashes to its root) —
                // but the root is not the digest this server vouched for.
                Request::Prove { .. } => {
                    let page = Bytes::from_static(b"an honest-looking page");
                    Response::Proof { root: siri::crypto::sha256(&page), pages: vec![page] }
                }
                // Claims the trusted digest, but the pages don't hash to it.
                Request::ProveRange { .. } => Response::Proof {
                    root: digest,
                    pages: vec![Bytes::from_static(b"garbage that anchors nowhere")],
                },
                // Claims the trusted digest with no evidence at all.
                Request::ProveBatch { .. } => Response::Proof { root: digest, pages: vec![] },
                _ => Response::Ok,
            };
            if write_frame(&mut stream, &resp.encode()).is_err() {
                return;
            }
        }
    });

    let session = RemoteSession::connect(addr).unwrap();

    // Root ≠ trusted digest: rejected before any verification walk.
    assert!(
        matches!(session.prove("master", b"k"), Err(IndexError::ProofRejected(_))),
        "a proof anchored at the server's own root must be rejected"
    );
    // Root matches but the pages are forged: the anchored walk rejects.
    assert!(matches!(
        session.prove_range("master", std::ops::Bound::Unbounded, std::ops::Bound::Unbounded),
        Err(IndexError::ProofRejected(_))
    ));
    // An empty proof cannot claim a non-zero digest.
    let keys = vec![bytes::Bytes::from_static(b"k")];
    assert!(matches!(session.prove_batch("master", &keys), Err(IndexError::ProofRejected(_))));

    // The value-returning helpers share that one checked round trip: the
    // same three lies are rejected before any value reaches the caller.
    assert!(matches!(session.verified_get("master", b"k"), Err(IndexError::ProofRejected(_))));
    assert!(matches!(
        session.verified_scan("master", std::ops::Bound::Unbounded, std::ops::Bound::Unbounded),
        Err(IndexError::ProofRejected(_))
    ));
    assert!(matches!(
        session.verified_get_many("master", &keys),
        Err(IndexError::ProofRejected(_))
    ));

    drop(session);
    server.join().unwrap();
}

/// One light-client pass over `keys`: every read through `client` must
/// equal the engine's own answer.
fn read_like_the_engine<F: IndexFactory>(
    client: &F::Index,
    engine: &Forkbase<F>,
    keys: &[Vec<u8>],
) {
    for key in keys {
        let want = Session::get(engine, "master", key).unwrap();
        assert_eq!(client.get(key).unwrap(), want, "{} key {key:?}", client.kind());
    }
}

/// A light client on `factory`'s structure: a single-shard engine served
/// over loopback, read through `factory.open(session.pages(), digest)`.
fn light_client_reads_what_the_engine_holds_on<F>(cfg: Config, factory: F)
where
    F: IndexFactory + 'static,
    F::Index: Send + Sync,
{
    let engine = Arc::new(cfg.engine(factory.clone()));
    let mut b = WriteBatch::new();
    for i in 0..600u32 {
        b.put(format!("key{i:04}").into_bytes(), format!("value-{i}").into_bytes());
    }
    Session::commit(engine.as_ref(), "master", b).unwrap();
    let handle = serve(
        engine.clone(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        ServerOptions::default(),
        None,
    )
    .unwrap();
    let fetched = || handle.stats().conns.iter().map(|c| c.sync_pages).sum::<u64>();

    let session = RemoteSession::connect(handle.addr()).unwrap();
    let digest = session.branch_digest("master").unwrap();
    let pages = session.pages();
    let client = factory.open(pages.clone(), digest);
    let name = factory.name();
    let keys: Vec<Vec<u8>> = (0..600u32)
        .step_by(7)
        .map(|i| format!("key{i:04}"))
        .chain((0..20u32).map(|i| format!("absent{i:02}")))
        .map(String::into_bytes)
        .collect();

    // Cold: every miss is one verified `Fetch`.
    read_like_the_engine(&client, &engine, &keys);
    let cold = client.node_cache_stats();
    let cold_fetches = fetched();
    assert!(cold_fetches > 0 && cold.misses > 0, "{}: {cold:?}", name);
    assert_eq!(pages.stats().gets, cold_fetches, "one Fetch per page read");
    assert_eq!(pages.stats().hits, cold_fetches, "every fetched page verified");

    // Warm: the node cache serves the same keys with no round trip.
    read_like_the_engine(&client, &engine, &keys);
    let warm = client.node_cache_stats();
    assert_eq!((warm.misses, warm.evictions, warm.len), (cold.misses, cold.evictions, cold.len));
    assert!(warm.hits > cold.hits, "{}: {warm:?}", name);
    assert_eq!(fetched(), cold_fetches, "{}: a warm pass fetched pages", name);

    // The page source is read-only.
    assert!(pages.try_put(siri::Bytes::from_static(b"page")).is_err());
}

#[test]
fn light_client_reads_what_the_engine_holds() {
    matrix::each(STORES, |cfg| {
        light_client_reads_what_the_engine_holds_on(cfg, PosFactory(PosParams::default()));
        light_client_reads_what_the_engine_holds_on(cfg, MptFactory);
        light_client_reads_what_the_engine_holds_on(
            cfg,
            MbtFactory { buckets: siri::DEFAULT_BUCKETS, fanout: siri::DEFAULT_FANOUT },
        );
        light_client_reads_what_the_engine_holds_on(cfg, MvmbFactory(MvmbParams::default()));
    });
}

/// The light client trusts only content addresses: a page that does not
/// hash to the address it asked for fails the read before it is decoded
/// or cached, and a page the server withholds is a missing page.
#[test]
fn a_lying_server_cannot_feed_the_light_client() {
    use bytes::Bytes;
    use siri::proto::{read_frame, write_frame, Request, Response, MAX_FRAME_BYTES, WIRE_VERSION};

    let forged = siri::crypto::sha256(b"a root the server answers with other bytes");
    let withheld = siri::crypto::sha256(b"a root the server claims not to hold");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(frame) = read_frame(&mut stream, MAX_FRAME_BYTES) {
            let resp = match Request::decode(&frame).unwrap() {
                Request::Hello { .. } => Response::Hello { version: WIRE_VERSION },
                Request::Fetch { hashes } => Response::Pages(
                    hashes
                        .iter()
                        .map(|h| (*h == forged).then(|| Bytes::from_static(b"hashes elsewhere")))
                        .collect(),
                ),
                _ => Response::Ok,
            };
            if write_frame(&mut stream, &resp.encode()).is_err() {
                return;
            }
        }
    });

    let session = RemoteSession::connect(addr).unwrap();
    let factory = PosFactory(PosParams::default());
    let lied_to = factory.open(session.pages(), forged);
    assert!(
        matches!(lied_to.get(b"k"), Err(IndexError::Store(StoreError::Corrupt(_)))),
        "bytes that do not hash to the requested address must be rejected"
    );
    assert_eq!(lied_to.node_cache_stats().len, 0, "a rejected page must not be cached");

    let starved = factory.open(session.pages(), withheld);
    assert_eq!(starved.get(b"k").err(), Some(IndexError::MissingPage(withheld)));
    assert_eq!(starved.node_cache_stats().len, 0);

    // Page sources share the session's connection: hang up on all of it.
    drop((session, lied_to, starved));
    server.join().unwrap();
}

/// A response longer than the frame cap is refused with a clean error,
/// and the connection stays in step: the client would otherwise drop the
/// frame unread and poison the session.
#[test]
fn an_oversized_response_is_refused_and_the_session_survives() {
    use std::ops::Bound::Unbounded;

    const CAP: usize = 64 * 1024;
    let (served, handle) =
        loopback(DEFAULT, ServerOptions { max_frame_bytes: CAP, ..ServerOptions::default() });
    let mut b = WriteBatch::new();
    for i in 0..2_000u32 {
        b.put(format!("key{i:05}").into_bytes(), vec![b'v'; 100]);
    }
    Session::commit(served.as_ref(), "master", b).unwrap();

    let opts = ClientOptions { max_frame_bytes: CAP, ..ClientOptions::default() };
    let session = RemoteSession::connect_with(handle.addr(), opts).unwrap();
    match session.prove_range("master", Unbounded, Unbounded) {
        Err(IndexError::Remote(why)) => assert!(why.contains("frame cap"), "{why}"),
        other => panic!("a proof over the frame cap must be refused, got {other:?}"),
    }
    // The same session still answers.
    assert_eq!(
        session.branch_digest("master").unwrap(),
        Session::branch_digest(served.as_ref(), "master").unwrap()
    );
    let wide: Vec<Hash> = (0..1_000u32).map(|i| siri::crypto::sha256(&i.to_le_bytes())).collect();
    assert!(session.fetch_pages(&wide).unwrap().iter().all(Option::is_none));
}

/// A scan page is bounded by bytes as well as entries: a window of large
/// values streams across several frame-sized pages and equals the
/// in-process scan. A single entry too large for any frame is refused
/// cleanly, and the session keeps answering.
#[test]
fn scan_pages_of_large_values_stay_under_the_frame_cap() {
    use std::ops::Bound::{Included, Unbounded};

    let (served, handle) = loopback(DEFAULT, ServerOptions::default());
    let mut b = WriteBatch::new();
    for i in 0..400u32 {
        b.put(format!("big{i:03}").into_bytes(), vec![(i % 251) as u8; 40_000]);
    }
    Session::commit(served.as_ref(), "master", b).unwrap();

    let session = RemoteSession::connect(handle.addr()).unwrap();
    let remote: Vec<_> = session
        .range("master", Unbounded, Unbounded)
        .unwrap()
        .collect::<siri::Result<_>>()
        .unwrap();
    let local: Vec<_> = Session::range(served.as_ref(), "master", Unbounded, Unbounded)
        .unwrap()
        .collect::<siri::Result<_>>()
        .unwrap();
    assert_eq!(remote.len(), 400);
    assert_eq!(remote, local);

    let mut b = WriteBatch::new();
    b.put(&b"huge"[..], vec![b'h'; 9 << 20]);
    Session::commit(served.as_ref(), "master", b).unwrap();
    let scan = session
        .range("master", Included(&b"huge"[..]), Unbounded)
        .unwrap()
        .collect::<siri::Result<Vec<_>>>();
    match scan {
        Err(IndexError::Remote(why)) => assert!(why.contains("frame cap"), "{why}"),
        Err(e) => panic!("an entry over the frame cap must be refused cleanly, got {e:?}"),
        Ok(got) => panic!("an entry over the frame cap must be refused, got {} entries", got.len()),
    }
    assert_eq!(
        session.branch_digest("master").unwrap(),
        Session::branch_digest(served.as_ref(), "master").unwrap()
    );
}

#[test]
fn anti_entropy_over_the_wire_ships_deltas_and_resumes() {
    matrix::each(ENGINES, |cfg| {
        let (served, handle) = loopback(cfg, ServerOptions::default());
        let children = siri::pos_tree::Node::children_of_page;

        // Seed the server with 3000 records.
        let mut b = WriteBatch::new();
        for i in 0..3000u32 {
            b.put(format!("key{i:05}").into_bytes(), format!("value-{i}-r0").into_bytes());
        }
        Session::commit(served.as_ref(), "master", b).unwrap();

        // Cold replica: the first sync fetches the whole version.
        let local = MemStore::new_shared();
        let session = RemoteSession::connect(handle.addr()).unwrap();
        let (v1, cold) = session
            .sync_branch("master", local.as_ref(), children, &SyncOptions::default())
            .unwrap();
        assert!(cold.complete);
        assert!(cold.pages_fetched > 10);
        assert!(local.contains(&v1));
        assert!(cold.round_trips < cold.pages_fetched, "fetches must batch");

        // The replica answers reads with no server involved. Open through an
        // engine, which resolves a shard-manifest digest (the 8-shard
        // configurations) exactly like a bare tree root.
        let replica = Forkbase::with_store(PosFactory(PosParams::default()), local.clone());
        replica.open_branch("v1", v1);
        assert_eq!(
            Session::get(&replica, "v1", b"key00042").unwrap().unwrap().as_ref(),
            b"value-42-r0".as_ref()
        );

        // Mutate 1% of the records server-side — a contiguous run, the shape
        // anti-entropy is built for: the rewrite is confined to a few leaf
        // pages plus the spine above them.
        let mut delta = WriteBatch::new();
        for k in 60..90u32 {
            delta.put(format!("key{k:05}").into_bytes(), format!("value-{k}-r1").into_bytes());
        }
        Session::commit(served.as_ref(), "master", delta).unwrap();

        // Mid-sync disconnect: a one-page budget cuts the pull short — the new
        // root alone can never be a complete delta once any leaf changed.
        let cut = SyncOptions { max_pages: Some(1), ..SyncOptions::default() };
        let (v2, first) = session.sync_branch("master", local.as_ref(), children, &cut).unwrap();
        assert!(!first.complete, "one page cannot cover a 30-record delta");
        assert!(!local.contains(&v2), "an unfinished sync must not publish the new root");

        // ...and the retry finishes only the unfinished tail.
        let (v2b, rest) = session
            .sync_branch("master", local.as_ref(), children, &SyncOptions::default())
            .unwrap();
        assert_eq!(v2, v2b);
        assert!(rest.complete);
        assert!(local.contains(&v2));
        assert_eq!(first.missing + rest.missing, 0);

        // The acceptance gate: a 1% mutation syncs for <10% of the cold bytes,
        // disconnect included.
        let delta_bytes = first.bytes_fetched + rest.bytes_fetched;
        assert!(
            delta_bytes < cold.bytes_fetched / 10,
            "1% delta must ship <10% of a cold sync ({delta_bytes} B vs {} B)",
            cold.bytes_fetched
        );

        // Both versions are now fully readable locally.
        replica.open_branch("v2", v2);
        assert_eq!(
            Session::get(&replica, "v2", b"key00071").unwrap().unwrap().as_ref(),
            b"value-71-r1".as_ref()
        );
        assert_eq!(
            Session::get(&replica, "v1", b"key00071").unwrap().unwrap().as_ref(),
            b"value-71-r0".as_ref()
        );

        // Re-syncing an up-to-date replica costs nothing but the digest probe.
        let (_, again) =
            session.sync_branch("master", &local, children, &SyncOptions::default()).unwrap();
        assert_eq!(again.pages_fetched, 0);
        assert_eq!(again.subtrees_skipped, 1, "pruned at the root");
    });
}

#[test]
fn unknown_branch_surfaces_the_engine_error_variant() {
    let (_served, handle) = loopback(DEFAULT, ServerOptions::default());
    let session = RemoteSession::connect(handle.addr()).unwrap();
    assert!(matches!(session.get("ghost", b"k"), Err(IndexError::Unsupported("unknown branch"))));
    assert!(matches!(
        session.branch_digest("ghost"),
        Err(IndexError::Unsupported("unknown branch"))
    ));
}

#[test]
fn connection_cap_sheds_load_and_recovers() {
    let opts = ServerOptions { max_connections: 1, ..ServerOptions::default() };
    let (_served, handle) = loopback(DEFAULT, opts);

    let holder = RemoteSession::connect(handle.addr()).unwrap();
    assert!(holder.get("master", b"k").unwrap().is_none());

    // Slot taken: the next connection gets one ERR_BUSY frame and a close,
    // which the client surfaces as a failed handshake.
    assert!(RemoteSession::connect(handle.addr()).is_err());
    assert_eq!(handle.stats().rejected, 1);

    // Freeing the slot re-admits new connections.
    drop(holder);
    let mut admitted = false;
    for _ in 0..100 {
        if let Ok(session) = RemoteSession::connect(handle.addr()) {
            assert!(session.get("master", b"k").unwrap().is_none());
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(admitted, "server never freed the connection slot");
}

#[test]
fn remote_shutdown_is_opt_in() {
    // Default: the verb is refused and the server keeps serving.
    let (_served, handle) = loopback(DEFAULT, ServerOptions::default());
    let session = RemoteSession::connect(handle.addr()).unwrap();
    assert!(matches!(session.shutdown_server(), Err(IndexError::Remote(_))));
    assert!(session.get("master", b"k").unwrap().is_none());
    assert!(!handle.stopping());

    // Opted in: the verb acks, the server stops, new connections fail.
    let opts = ServerOptions { allow_remote_shutdown: true, ..ServerOptions::default() };
    let (_served, handle) = loopback(DEFAULT, opts);
    let addr = handle.addr();
    let session = RemoteSession::connect(addr).unwrap();
    session.shutdown_server().unwrap();
    handle.wait();
    assert!(handle.stopping());
    assert!(RemoteSession::connect(addr).is_err());
}

#[test]
fn per_connection_counters_add_up() {
    let (_served, handle) = loopback(DEFAULT, ServerOptions::default());
    let session = RemoteSession::connect(handle.addr()).unwrap();
    let mut b = WriteBatch::new();
    b.put(&b"k"[..], &b"v"[..]);
    session.commit("master", b).unwrap();
    session
        .commit("master", {
            let mut b = WriteBatch::new();
            b.put(&b"k2"[..], &b"v2"[..]);
            b
        })
        .unwrap();
    for _ in 0..3 {
        session.get("master", b"k").unwrap();
    }

    let stats = session.server_stats().unwrap();
    assert_eq!(stats.active, 1);
    let row = &stats.conns[0];
    assert_eq!(row.commits, 2);
    assert_eq!(row.reads, 3);
    // Hello + 2 commits + 3 gets + this stats call.
    assert_eq!(row.requests, 7);
    assert!(row.bytes_in > 0 && row.bytes_out > 0);
    assert_eq!(stats.total_requests, row.requests);

    // A digest mismatch between transports would be caught here too: the
    // served engine and the remote view agree on the head.
    assert_eq!(session.branch_digest("master").unwrap(), _served.branch_digest("master").unwrap());
}

#[test]
fn commit_info_receipts_cross_the_wire_intact() {
    matrix::each(ENGINES, |cfg| {
        let (served, handle) = loopback(cfg, ServerOptions::default());
        let session = RemoteSession::connect(handle.addr()).unwrap();

        let mut b = WriteBatch::new();
        b.put(&b"a"[..], &b"1"[..]);
        let first = session.commit("master", b).unwrap();
        assert_eq!(first.root, Session::branch_digest(served.as_ref(), "master").unwrap());

        let mut b = WriteBatch::new();
        b.put(&b"b"[..], &b"2"[..]);
        let second = session.commit("master", b).unwrap();
        assert_eq!(second.parent, first.root, "receipt chain must thread across the wire");
        assert_ne!(second.root, Hash::ZERO);
    });
}
