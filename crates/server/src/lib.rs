//! `siri-server` — a Forkbase engine behind a TCP socket.
//!
//! The server speaks the length-prefixed binary protocol defined in
//! [`proto`] (DESIGN.md §11): thread-per-connection over `std::net` — no
//! async runtime, nothing to vendor — with the blocking costs fenced by
//! per-socket read/write timeouts. Backpressure is a bounded connection
//! table: past [`ServerOptions::max_connections`] an incoming socket gets
//! one `ERR_BUSY` frame and a close, so load shedding is explicit and
//! immediate rather than an unbounded accept queue.
//!
//! Each connection carries its own atomic counter block ([`ConnCounters`]);
//! the `Stats` verb snapshots every live connection's row plus totals
//! folded in from closed ones. Locking discipline: the two server locks
//! (acceptor/registry, classes 4 and 6) order *below* every engine lock
//! (forkbase branch-map is 10), so a handler may consult the registry
//! while the engine works but never the reverse — the same runtime-checked
//! hierarchy debug builds enforce across the engine.

pub mod proto;

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{LockClass, Mutex};
use siri_core::{Session, WriteBatch};
use siri_forkbase::{Forkbase, IndexFactory};
use siri_store::NodeStore;

use proto::{
    read_frame, write_frame, Request, Response, WireConnStats, WireError, WireServerStats,
    ERR_BUSY, ERR_PROTOCOL, MAX_FETCH_HASHES, WIRE_VERSION,
};

/// Lock class for the acceptor's join-handle slot.
static ACCEPTOR_CLASS: LockClass = LockClass::new(4, "server.acceptor");
/// Lock class for the live-connection registry.
static REGISTRY_CLASS: LockClass = LockClass::new(6, "server.conn-registry");

/// Server-side clamp on entries per scan page.
const MAX_PAGE_ENTRIES: u32 = 4096;

/// Server tuning. The defaults suit a trusted LAN peer; tests shrink the
/// timeouts and caps to exercise the shedding and shutdown paths.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Connection slots; socket N+1 is refused with one `ERR_BUSY` frame.
    pub max_connections: usize,
    /// Per-socket read timeout (a connection idle longer is dropped).
    pub read_timeout: Option<Duration>,
    /// Per-socket write timeout (a peer that stops draining is dropped).
    pub write_timeout: Option<Duration>,
    /// Frame payload cap, both directions.
    pub max_frame_bytes: usize,
    /// Honor `Request::Shutdown` (off by default: a remote stop switch is
    /// an operator decision, not a protocol default).
    pub allow_remote_shutdown: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_frame_bytes: proto::MAX_FRAME_BYTES,
            allow_remote_shutdown: false,
        }
    }
}

/// Called after every successful commit with the branch and its new head
/// digest — the hook the CLI uses to persist heads to its sidecar file.
pub type CommitHook = Box<dyn Fn(&str, siri_crypto::Hash) + Send + Sync>;

/// One connection's counters. Shared between the handler thread (writes)
/// and the stats snapshot (reads); relaxed atomics — these are counters,
/// not synchronization.
#[derive(Debug, Default)]
pub struct ConnCounters {
    pub requests: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub commits: AtomicU64,
    pub reads: AtomicU64,
    pub scan_pages: AtomicU64,
    pub sync_pages: AtomicU64,
}

struct ConnEntry {
    peer: String,
    counters: Arc<ConnCounters>,
    /// A clone of the handler's stream, kept so shutdown can unblock a
    /// handler parked in a read.
    stream: TcpStream,
}

#[derive(Default)]
struct Registry {
    conns: HashMap<u64, ConnEntry>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared<F: IndexFactory> {
    engine: Arc<Forkbase<F>>,
    opts: ServerOptions,
    addr: SocketAddr,
    on_commit: Option<CommitHook>,
    stop: AtomicBool,
    accepted: AtomicU64,
    rejected: AtomicU64,
    next_id: AtomicU64,
    // Totals folded in from connections that already closed.
    closed_requests: AtomicU64,
    closed_bytes_in: AtomicU64,
    closed_bytes_out: AtomicU64,
    registry: Mutex<Registry>,
}

impl<F: IndexFactory> Shared<F> {
    fn snapshot(&self) -> WireServerStats {
        let mut stats = WireServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            total_requests: self.closed_requests.load(Ordering::Relaxed),
            total_bytes_in: self.closed_bytes_in.load(Ordering::Relaxed),
            total_bytes_out: self.closed_bytes_out.load(Ordering::Relaxed),
            ..WireServerStats::default()
        };
        let reg = self.registry.lock();
        stats.active = reg.conns.len() as u64;
        for (id, entry) in &reg.conns {
            let c = &entry.counters;
            let row = WireConnStats {
                id: *id,
                peer: entry.peer.clone(),
                requests: c.requests.load(Ordering::Relaxed),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
                commits: c.commits.load(Ordering::Relaxed),
                reads: c.reads.load(Ordering::Relaxed),
                scan_pages: c.scan_pages.load(Ordering::Relaxed),
                sync_pages: c.sync_pages.load(Ordering::Relaxed),
            };
            stats.total_requests += row.requests;
            stats.total_bytes_in += row.bytes_in;
            stats.total_bytes_out += row.bytes_out;
            stats.conns.push(row);
        }
        stats.conns.sort_by_key(|c| c.id);
        stats
    }

    /// Begin a stop: raise the flag and unblock the acceptor with one
    /// throwaway connection.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
    }
}

/// A running server. Dropping the handle stops it (best effort); call
/// [`ServerHandle::shutdown`] for the explicit version, or
/// [`ServerHandle::wait`] to serve until a remote shutdown or listener
/// error (the CLI's `serve` mode).
pub struct ServerHandle<F: IndexFactory> {
    shared: Arc<Shared<F>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl<F: IndexFactory> ServerHandle<F> {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A snapshot of server totals and per-connection counters, without a
    /// wire round trip (the `Stats` verb serves the same data remotely).
    pub fn stats(&self) -> WireServerStats {
        self.shared.snapshot()
    }

    /// Has a shutdown (local or remote) been initiated?
    pub fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Stop accepting, unblock and join every connection handler, then
    /// join the acceptor. Idempotent.
    pub fn shutdown(&self) {
        self.shared.request_stop();
        let acceptor = self.acceptor.lock().take();
        if let Some(t) = acceptor {
            let _ = t.join();
        }
        let (entries, threads) = {
            let mut reg = self.shared.registry.lock();
            (std::mem::take(&mut reg.conns), std::mem::take(&mut reg.threads))
        };
        for entry in entries.values() {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        for t in threads {
            let _ = t.join();
        }
    }

    /// Block until the server stops (remote shutdown request or listener
    /// failure), then finish the teardown.
    pub fn wait(&self) {
        let acceptor = self.acceptor.lock().take();
        if let Some(t) = acceptor {
            let _ = t.join();
        }
        self.shutdown();
    }
}

impl<F: IndexFactory> Drop for ServerHandle<F> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve `engine` on `listener` until shutdown. Returns immediately; the
/// acceptor and every connection run on their own threads.
pub fn serve<F>(
    engine: Arc<Forkbase<F>>,
    listener: TcpListener,
    opts: ServerOptions,
    on_commit: Option<CommitHook>,
) -> io::Result<ServerHandle<F>>
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        engine,
        opts,
        addr,
        on_commit,
        stop: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        next_id: AtomicU64::new(1),
        closed_requests: AtomicU64::new(0),
        closed_bytes_in: AtomicU64::new(0),
        closed_bytes_out: AtomicU64::new(0),
        registry: Mutex::with_class(Registry::default(), &REGISTRY_CLASS),
    });
    let accept_shared = shared.clone();
    let acceptor = std::thread::Builder::new()
        .name("siri-server-accept".into())
        .spawn(move || accept_loop(&accept_shared, &listener))?;
    Ok(ServerHandle { shared, acceptor: Mutex::with_class(Some(acceptor), &ACCEPTOR_CLASS) })
}

/// Bind and serve in one call, with bind failures reported to the caller.
pub fn serve_addr<F>(
    engine: Arc<Forkbase<F>>,
    addr: &str,
    opts: ServerOptions,
    on_commit: Option<CommitHook>,
) -> io::Result<ServerHandle<F>>
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    serve(engine, TcpListener::bind(addr)?, opts, on_commit)
}

fn accept_loop<F>(shared: &Arc<Shared<F>>, listener: &TcpListener)
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    loop {
        let Ok((stream, peer)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let counters = Arc::new(ConnCounters::default());
        // Bounded backpressure: register inside the cap or shed the
        // connection with one busy frame.
        let admitted = {
            let mut reg = shared.registry.lock();
            if reg.conns.len() >= shared.opts.max_connections {
                false
            } else {
                match stream.try_clone() {
                    Ok(clone) => {
                        reg.conns.insert(
                            id,
                            ConnEntry {
                                peer: peer.to_string(),
                                counters: counters.clone(),
                                stream: clone,
                            },
                        );
                        true
                    }
                    Err(_) => false,
                }
            }
        };
        if !admitted {
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            let busy = Response::Err(WireError {
                code: ERR_BUSY,
                aux: 0,
                message: "connection cap reached".into(),
            });
            let mut w = BufWriter::new(&stream);
            let _ = write_frame(&mut w, &busy.encode());
            drop(w);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let conn_counters = counters.clone();
        let spawn =
            std::thread::Builder::new().name(format!("siri-server-conn-{id}")).spawn(move || {
                handle_connection(&conn_shared, stream, &conn_counters);
                retire_connection(&conn_shared, id, &conn_counters);
            });
        match spawn {
            Ok(t) => shared.registry.lock().threads.push(t),
            Err(_) => {
                // Could not spawn a handler: undo the registration (the
                // entry's stream clone closes the socket when dropped).
                shared.registry.lock().conns.remove(&id);
                shared.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Fold a finished connection's counters into the server totals and drop
/// its registry row.
fn retire_connection<F: IndexFactory>(shared: &Shared<F>, id: u64, counters: &ConnCounters) {
    shared.closed_requests.fetch_add(counters.requests.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.closed_bytes_in.fetch_add(counters.bytes_in.load(Ordering::Relaxed), Ordering::Relaxed);
    shared
        .closed_bytes_out
        .fetch_add(counters.bytes_out.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.registry.lock().conns.remove(&id);
}

/// Adapter that counts bytes through a reader/writer into an atomic.
struct Counted<T> {
    inner: T,
    count: Arc<ConnCounters>,
    incoming: bool,
}

impl<T> Counted<T> {
    fn tally(&self, n: usize) {
        let cell = if self.incoming { &self.count.bytes_in } else { &self.count.bytes_out };
        cell.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl<T: Read> Read for Counted<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.tally(n);
        Ok(n)
    }
}

impl<T: Write> Write for Counted<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.tally(n);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What the handler should do with the connection after a response.
enum After {
    Keep,
    /// Protocol is broken (bad handshake) — close this connection.
    Close,
    /// A remote shutdown was accepted — close and let the server stop.
    Stop,
}

fn handle_connection<F>(shared: &Arc<Shared<F>>, stream: TcpStream, counters: &Arc<ConnCounters>)
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(shared.opts.read_timeout);
    let _ = stream.set_write_timeout(shared.opts.write_timeout);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader =
        BufReader::new(Counted { inner: read_half, count: counters.clone(), incoming: true });
    let mut writer =
        BufWriter::new(Counted { inner: stream, count: counters.clone(), incoming: false });
    let max_frame = shared.opts.max_frame_bytes;

    let mut greeted = false;
    while !shared.stop.load(Ordering::SeqCst) {
        let payload = match read_frame(&mut reader, max_frame) {
            Ok(p) => p,
            // Timeout, EOF, or a hopelessly malformed length prefix: the
            // frame boundary is gone, so the connection is done.
            Err(_) => break,
        };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let (response, after) = match Request::decode(&payload) {
            Ok(Request::Hello { version }) => {
                if version == WIRE_VERSION {
                    greeted = true;
                    (Response::Hello { version: WIRE_VERSION }, After::Keep)
                } else {
                    (
                        Response::Err(WireError {
                            code: ERR_PROTOCOL,
                            aux: u64::from(WIRE_VERSION),
                            message: format!("unsupported protocol version {version}"),
                        }),
                        After::Close,
                    )
                }
            }
            Ok(_) if !greeted => (
                Response::Err(WireError {
                    code: ERR_PROTOCOL,
                    aux: 0,
                    message: "expected Hello first".into(),
                }),
                After::Close,
            ),
            Ok(req) => dispatch(shared, req, counters),
            // A malformed payload inside a well-formed frame: report it
            // and keep the connection (framing is still in sync).
            Err(e) => (
                Response::Err(WireError { code: ERR_PROTOCOL, aux: 0, message: e.to_string() }),
                After::Keep,
            ),
        };
        let mut frame = response.encode();
        if frame.len() > max_frame {
            // The peer would drop a frame past the cap and lose the
            // request/response rhythm; refuse the answer, keep the socket.
            let refused = WireError {
                code: ERR_PROTOCOL,
                aux: max_frame as u64,
                message: format!("response of {} bytes exceeds the frame cap", frame.len()),
            };
            frame = Response::Err(refused).encode();
        }
        if write_frame(&mut writer, &frame).is_err() {
            break;
        }
        match after {
            After::Keep => {}
            After::Close => break,
            After::Stop => {
                shared.request_stop();
                break;
            }
        }
    }
}

fn dispatch<F>(shared: &Arc<Shared<F>>, req: Request, counters: &ConnCounters) -> (Response, After)
where
    F: IndexFactory + Send + Sync + 'static,
    F::Index: Send + Sync,
{
    let engine: &Forkbase<F> = &shared.engine;
    let resp = match req {
        Request::Hello { .. } => {
            return (
                Response::Err(WireError {
                    code: ERR_PROTOCOL,
                    aux: 0,
                    message: "duplicate Hello".into(),
                }),
                After::Close,
            )
        }
        Request::Commit { branch, ops } => {
            counters.commits.fetch_add(1, Ordering::Relaxed);
            match Session::commit(engine, &branch, WriteBatch::from_ops(ops)) {
                Ok(info) => {
                    if let Some(hook) = &shared.on_commit {
                        hook(&branch, info.root);
                    }
                    Response::Committed(info)
                }
                Err(e) => Response::Err(WireError::from_index_error(&e)),
            }
        }
        Request::Get { branch, key } => {
            counters.reads.fetch_add(1, Ordering::Relaxed);
            match Session::get(engine, &branch, &key) {
                Ok(v) => Response::Value(v),
                Err(e) => Response::Err(WireError::from_index_error(&e)),
            }
        }
        Request::Range { branch, start, end, after, limit } => {
            counters.scan_pages.fetch_add(1, Ordering::Relaxed);
            let limit = limit.clamp(1, MAX_PAGE_ENTRIES) as usize;
            // Re-anchor past the last delivered key; the `after` cursor is
            // strictly inside the original window, so it only tightens the
            // start bound.
            let start_bound = match &after {
                Some(k) => std::ops::Bound::Excluded(k.as_ref()),
                None => start.as_bound(),
            };
            match Session::range(engine, &branch, start_bound, end.as_bound()) {
                Ok(cursor) => page_of(cursor, limit, shared.opts.max_frame_bytes),
                Err(e) => Response::Err(WireError::from_index_error(&e)),
            }
        }
        Request::Branches => match Session::branches(engine) {
            Ok(names) => Response::Branches(names),
            Err(e) => Response::Err(WireError::from_index_error(&e)),
        },
        Request::Fork { from, to } => match Session::fork(engine, &from, &to) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Err(WireError::from_index_error(&e)),
        },
        Request::DeleteBranch { branch } => match Session::delete_branch(engine, &branch) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Err(WireError::from_index_error(&e)),
        },
        Request::BranchDigest { branch } => match Session::branch_digest(engine, &branch) {
            Ok(h) => Response::Digest(h),
            Err(e) => Response::Err(WireError::from_index_error(&e)),
        },
        Request::Prove { branch, key } => {
            counters.reads.fetch_add(1, Ordering::Relaxed);
            match Session::prove(engine, &branch, &key) {
                Ok((root, proof)) => Response::Proof { root, pages: proof.pages().to_vec() },
                Err(e) => Response::Err(WireError::from_index_error(&e)),
            }
        }
        Request::ProveRange { branch, start, end } => {
            counters.reads.fetch_add(1, Ordering::Relaxed);
            match Session::prove_range(engine, &branch, start.as_bound(), end.as_bound()) {
                Ok((root, proof)) => Response::Proof { root, pages: proof.pages().to_vec() },
                Err(e) => Response::Err(WireError::from_index_error(&e)),
            }
        }
        Request::ProveBatch { branch, keys } => {
            if keys.len() > proto::MAX_BATCH_KEYS {
                return (
                    Response::Err(WireError {
                        code: ERR_PROTOCOL,
                        aux: proto::MAX_BATCH_KEYS as u64,
                        message: "proof batch too large".into(),
                    }),
                    After::Keep,
                );
            }
            counters.reads.fetch_add(keys.len() as u64, Ordering::Relaxed);
            match Session::prove_batch(engine, &branch, &keys) {
                Ok((root, proof)) => Response::Proof { root, pages: proof.pages().to_vec() },
                Err(e) => Response::Err(WireError::from_index_error(&e)),
            }
        }
        Request::Stats => Response::Stats(shared.snapshot()),
        Request::Fetch { hashes } => {
            if hashes.len() > MAX_FETCH_HASHES {
                return (
                    Response::Err(WireError {
                        code: ERR_PROTOCOL,
                        aux: MAX_FETCH_HASHES as u64,
                        message: "fetch batch too large".into(),
                    }),
                    After::Keep,
                );
            }
            counters.sync_pages.fetch_add(hashes.len() as u64, Ordering::Relaxed);
            let store = engine.server_store();
            let mut pages = Vec::with_capacity(hashes.len());
            let mut fault = None;
            for h in &hashes {
                match store.try_get(h) {
                    Ok(p) => pages.push(p),
                    Err(e) => {
                        fault = Some(e);
                        break;
                    }
                }
            }
            match fault {
                None => Response::Pages(pages),
                Some(e) => Response::Err(WireError { code: 0, aux: 0, message: e.to_string() }),
            }
        }
        Request::Shutdown => {
            if shared.opts.allow_remote_shutdown {
                return (Response::Ok, After::Stop);
            }
            Response::Err(WireError { code: 0, aux: 0, message: "remote shutdown disabled".into() })
        }
    };
    (resp, After::Keep)
}

/// Drain up to `limit` entries into one scan page; fetch one extra to
/// learn whether the range is exhausted without a second round trip. The
/// page also stops before the entry that would push its encoding past
/// `max_frame` (then `done` is false and the client re-anchors after the
/// last key, as for any page). It always carries at least one entry, so
/// an entry too large for any frame still meets the frame-cap refusal.
fn page_of(cursor: siri_core::EntryCursor, limit: usize, max_frame: usize) -> Response {
    let mut entries = Vec::with_capacity(limit.min(1024));
    let mut bytes = proto::page_header_bytes(limit);
    for item in cursor {
        match item {
            Ok(e) => {
                bytes += proto::page_entry_bytes(&e);
                if entries.len() == limit || (bytes > max_frame && !entries.is_empty()) {
                    return Response::Page { entries, done: false };
                }
                entries.push(e);
            }
            Err(e) => return Response::Err(WireError::from_index_error(&e)),
        }
    }
    Response::Page { entries, done: true }
}
