//! `siri-client` — a [`Session`] over the SIRI wire protocol.
//!
//! [`RemoteSession`] connects to a `siri-server` and implements the same
//! [`Session`] trait the in-process engine does, so everything written
//! against `Box<dyn Session>` (the CLI, the behavioral suites) works
//! unchanged across the network boundary. Five things are worth knowing:
//!
//! * **One socket, serialized round trips.** All methods take `&self`; a
//!   mutex serializes frames on the shared connection (the protocol is
//!   strictly request/response, so pipelining would buy latency only at
//!   the cost of a correlation layer). Open more sessions for parallelism
//!   — connections are cheap on the thread-per-connection server.
//! * **Paged cursors.** [`Session::range`] returns a lazy [`EntryCursor`]
//!   that fetches a page of entries per round trip and re-anchors each
//!   request after the last key received — the server keeps no cursor
//!   state, so a scan survives the server dropping and re-admitting the
//!   connection's siblings, and an abandoned cursor costs the server
//!   nothing.
//! * **Anti-entropy sync.** [`RemoteSession::sync_branch`] pulls a
//!   branch's missing pages into a local store via the structural diff
//!   walk in `siri_store::ship` — only pages absent locally cross the
//!   wire, and an interrupted sync resumes from what already landed.
//! * **Proofs verify client-side.** `prove`/`prove_range`/`prove_batch`
//!   fetch the branch digest and replay the server's proof locally
//!   against it ([`ClientOptions::scheme`] picks the structure's reader)
//!   before returning; a doctored proof — or a server lying about its own
//!   root — surfaces as [`IndexError::ProofRejected`], and with
//!   [`RemoteSession::verified_get`]/[`verified_scan`](RemoteSession::verified_scan)
//!   no unverified value ever reaches the caller.
//! * **A light client reads verified pages.** [`RemoteSession::pages`] is a
//!   read-only [`NodeStore`] on the session's connection: each `try_get`
//!   is one `Fetch` round trip, and a page that does not hash to the
//!   address asked for fails the read as [`StoreError::Corrupt`]. Open any
//!   index over it at a branch digest, and that handle's decoded-node
//!   cache is the client cache of the paper's §5.6.1 deployment — every
//!   node in it was hash-checked on the way in.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{LockClass, Mutex};
use siri_core::{
    verify_anchored_batch, verify_anchored_membership, verify_anchored_range, BatchVerdict,
    CommitInfo, Entry, EntryCursor, IndexError, Proof, ProofScheme, ProofVerdict, RangeVerdict,
    Result, Session, ShardManifest, WriteBatch,
};
use siri_crypto::Hash;
use siri_server::proto::{
    read_frame, write_frame, Request, Response, WireBound, WireServerStats, MAX_FETCH_HASHES,
    MAX_FRAME_BYTES, WIRE_VERSION,
};
use siri_store::{ship, NodeStore, SharedStore, StoreError, StoreResult};

mod caching;

pub use siri_store::ship::{SyncOptions, SyncReport};

/// Lock class for a client connection (order 8: below every engine lock,
/// so an in-process loopback test holding engine state may still issue
/// wire calls without inverting the hierarchy).
static CONN_CLASS: LockClass = LockClass::new(8, "client.conn");

/// Client tuning.
#[derive(Clone)]
pub struct ClientOptions {
    /// Socket read timeout (an unresponsive server turns into an error,
    /// not a hang).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Cap on the entries requested per scan page. A scan's first page asks
    /// for at most 64 and each later page for 4× the one before, up to this
    /// cap — it prices long scans; short ones do not pay for it.
    pub page_size: u32,
    /// Frame payload cap (mirror of the server's).
    pub max_frame_bytes: usize,
    /// The reader for the structure the server runs — every proof the
    /// server returns is replayed locally through it, anchored at the
    /// trusted branch digest, before values reach the caller. Pick with
    /// [`siri_forkbase::scheme_by_name`] when the structure is configured
    /// at runtime.
    pub scheme: &'static dyn ProofScheme,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            page_size: 256,
            max_frame_bytes: MAX_FRAME_BYTES,
            scheme: &siri_pos_tree::PosProofScheme,
        }
    }
}

impl std::fmt::Debug for ClientOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientOptions")
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("page_size", &self.page_size)
            .field("max_frame_bytes", &self.max_frame_bytes)
            .field("scheme", &self.scheme.structure())
            .finish()
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Set after any transport fault: the request/response rhythm may be
    /// out of step, so every later call fails fast instead of misparsing.
    broken: bool,
    max_frame: usize,
}

impl Conn {
    fn round_trip(&mut self, req: &Request) -> Result<Response> {
        if self.broken {
            return Err(IndexError::Remote("connection is poisoned by an earlier fault".into()));
        }
        let sent = write_frame(&mut self.writer, &req.encode());
        if let Err(e) = sent {
            self.broken = true;
            return Err(IndexError::Store(StoreError::io("wire write", e)));
        }
        let payload = match read_frame(&mut self.reader, self.max_frame) {
            Ok(p) => p,
            Err(e) => {
                self.broken = true;
                return Err(IndexError::Store(StoreError::io("wire read", e)));
            }
        };
        match Response::decode(&payload) {
            Ok(Response::Err(we)) => Err(we.into_index_error()),
            Ok(resp) => Ok(resp),
            Err(e) => {
                self.broken = true;
                Err(IndexError::Codec(e))
            }
        }
    }
}

fn unexpected(what: &'static str) -> IndexError {
    IndexError::Remote(format!("unexpected response to {what}"))
}

/// One `Fetch` round trip: the pages at `hashes`, `None` where the server
/// has none. Nothing here checks a page against its address.
fn fetch(conn: &Mutex<Conn>, hashes: &[Hash]) -> Result<Vec<Option<Bytes>>> {
    match conn.lock().round_trip(&Request::Fetch { hashes: hashes.to_vec() })? {
        Response::Pages(pages) => Ok(pages),
        _ => Err(unexpected("Fetch")),
    }
}

/// A wire fault as the store error a page reader reports.
fn store_error(e: IndexError) -> StoreError {
    match e {
        IndexError::Store(se) => se,
        other => StoreError::Io {
            op: "fetch",
            kind: std::io::ErrorKind::Other,
            detail: other.to_string(),
        },
    }
}

/// A connection to a `siri-server`, speaking [`Session`].
pub struct RemoteSession {
    conn: Arc<Mutex<Conn>>,
    opts: ClientOptions,
}

impl RemoteSession {
    /// Connect and handshake with default options.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RemoteSession> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connect and handshake. Connection and version failures surface as
    /// `io::Error` — after this returns, the session is usable.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: ClientOptions,
    ) -> std::io::Result<RemoteSession> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(opts.read_timeout)?;
        stream.set_write_timeout(opts.write_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut conn = Conn {
            reader,
            writer: BufWriter::new(stream),
            broken: false,
            max_frame: opts.max_frame_bytes,
        };
        match conn.round_trip(&Request::Hello { version: WIRE_VERSION }) {
            Ok(Response::Hello { .. }) => {}
            Ok(_) | Err(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "server rejected the protocol handshake",
                ));
            }
        }
        Ok(RemoteSession { conn: Arc::new(Mutex::with_class(conn, &CONN_CLASS)), opts })
    }

    fn request(&self, req: &Request) -> Result<Response> {
        self.conn.lock().round_trip(req)
    }

    /// Server totals and per-connection counters (the `stats` verb).
    pub fn server_stats(&self) -> Result<WireServerStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(unexpected("Stats")),
        }
    }

    /// Ask the server to stop (works only when it was started with remote
    /// shutdown enabled).
    pub fn shutdown_server(&self) -> Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(unexpected("Shutdown")),
        }
    }

    /// Fetch a batch of pages by hash (the anti-entropy primitive). At
    /// most [`MAX_FETCH_HASHES`] per call.
    pub fn fetch_pages(&self, hashes: &[Hash]) -> Result<Vec<Option<Bytes>>> {
        fetch(&self.conn, hashes)
    }

    /// A read-only page source over this session's connection, for a light
    /// client: `factory.open(session.pages(), digest)` reads a version
    /// through its own node cache, fetching each missed page with one
    /// `Fetch` round trip. A page is handed on only if it hashes to the
    /// address asked for ([`StoreError::Corrupt`] otherwise); a page the
    /// server lacks is `Ok(None)`, which a reader reports as
    /// [`IndexError::MissingPage`]. Puts fail. Its `stats()` count one
    /// `gets` per `Fetch` and one `hits` per verified page.
    pub fn pages(&self) -> SharedStore {
        Arc::new(caching::RemotePages::new(self.conn.clone()))
    }

    /// Merkle anti-entropy: make `local` hold every page of `branch`'s
    /// current version, pulling only the pages it is missing.
    ///
    /// `children` decodes one *index* page's child hashes (e.g.
    /// `Node::children_of_page`); shard-manifest pages are handled here,
    /// so a sharded branch syncs transparently. Returns the branch digest
    /// the sync anchored at plus the transfer report. An interrupted sync
    /// (error, or [`SyncOptions::max_pages`] budget) is resumable: call
    /// again and only the unfinished tail transfers.
    pub fn sync_branch<Ch>(
        &self,
        branch: &str,
        local: &dyn NodeStore,
        children: Ch,
        opts: &SyncOptions,
    ) -> Result<(Hash, SyncReport)>
    where
        Ch: Fn(&[u8]) -> Vec<Hash>,
    {
        let root = Session::branch_digest(self, branch)?;
        let batched = SyncOptions { batch: opts.batch.clamp(1, MAX_FETCH_HASHES), ..*opts };
        let mut fetch = |hashes: &[Hash]| -> StoreResult<Vec<Option<Bytes>>> {
            self.fetch_pages(hashes).map_err(store_error)
        };
        let manifest_aware = |page: &[u8]| -> Vec<Hash> {
            if ShardManifest::is_manifest(page) {
                match ShardManifest::decode(page) {
                    // Zero sub-roots are empty shards — there is no page
                    // behind them to fetch.
                    Ok(m) => m.roots.into_iter().filter(|r| !r.is_zero()).collect(),
                    Err(_) => Vec::new(),
                }
            } else {
                children(page)
            }
        };
        let report = ship::sync_pull(&mut fetch, local, root, manifest_aware, &batched)
            .map_err(IndexError::Store)?;
        Ok((root, report))
    }

    /// Fetch a proof and pin it to the digest *we* read, not the root the
    /// server claims. An earlier revision returned the server-supplied
    /// root verbatim — a malicious server could pair a self-consistent
    /// proof with its own root and the client would "verify" it against
    /// nothing it trusts. Here the trusted anchor is the digest from a
    /// separate `BranchDigest` round trip; a mismatched claim is rejected
    /// before any verification walk runs. (A branch advancing between the
    /// two round trips also lands here — re-issue the call.)
    fn checked_proof(
        &self,
        branch: &str,
        req: &Request,
        what: &'static str,
    ) -> Result<(Hash, Proof)> {
        let digest = Session::branch_digest(self, branch)?;
        let (root, proof) = match self.request(req)? {
            Response::Proof { root, pages } => (root, Proof::new(pages)),
            _ => return Err(unexpected(what)),
        };
        if root != digest {
            return Err(IndexError::ProofRejected(
                "server-claimed proof root differs from the trusted branch digest",
            ));
        }
        Ok((digest, proof))
    }

    /// Fetch a membership proof, pin it and verify it — once. Both
    /// [`Session::prove`] and [`RemoteSession::verified_get`] are views of
    /// this one checked round trip.
    fn proved_get(&self, branch: &str, key: &[u8]) -> Result<(Hash, Proof, Option<Bytes>)> {
        let req = Request::Prove { branch: branch.to_string(), key: Bytes::copy_from_slice(key) };
        let (digest, proof) = self.checked_proof(branch, &req, "Prove")?;
        match verify_anchored_membership(self.opts.scheme, digest, key, &proof) {
            ProofVerdict::Present(v) => Ok((digest, proof, Some(v))),
            ProofVerdict::Absent => Ok((digest, proof, None)),
            ProofVerdict::Invalid(why) => Err(IndexError::ProofRejected(why)),
        }
    }

    /// [`RemoteSession::proved_get`] for a range.
    fn proved_scan(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<(Hash, Proof, Vec<Entry>)> {
        let req = Request::ProveRange {
            branch: branch.to_string(),
            start: WireBound::from_bound(start),
            end: WireBound::from_bound(end),
        };
        let (digest, proof) = self.checked_proof(branch, &req, "ProveRange")?;
        match verify_anchored_range(self.opts.scheme, digest, start, end, &proof) {
            RangeVerdict::Complete(entries) => Ok((digest, proof, entries)),
            RangeVerdict::Invalid(why) => Err(IndexError::ProofRejected(why)),
        }
    }

    /// [`RemoteSession::proved_get`] for a batch of keys.
    fn proved_get_many(
        &self,
        branch: &str,
        keys: &[Bytes],
    ) -> Result<(Hash, Proof, Vec<Option<Bytes>>)> {
        let req = Request::ProveBatch { branch: branch.to_string(), keys: keys.to_vec() };
        let (digest, proof) = self.checked_proof(branch, &req, "ProveBatch")?;
        match verify_anchored_batch(self.opts.scheme, digest, keys, &proof) {
            BatchVerdict::Verified(verdicts) => {
                let values = verdicts.into_iter().map(|v| v.value().cloned()).collect();
                Ok((digest, proof, values))
            }
            BatchVerdict::Invalid(why) => Err(IndexError::ProofRejected(why)),
        }
    }

    /// A point lookup whose value arrives *inside* a verified proof: the
    /// returned bytes are exactly what the trusted branch digest commits
    /// to, or the call fails — a lying server cannot substitute a value.
    pub fn verified_get(&self, branch: &str, key: &[u8]) -> Result<Option<Bytes>> {
        Ok(self.proved_get(branch, key)?.2)
    }

    /// A range scan with a completeness guarantee: returns exactly the
    /// entries of `[start, end)` under the trusted digest — nothing
    /// dropped, nothing injected, nothing reordered — or fails.
    pub fn verified_scan(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<Vec<Entry>> {
        Ok(self.proved_scan(branch, start, end)?.2)
    }

    /// Batched verified lookups: one deduplicated proof covers every key;
    /// per-key values come back in input order.
    pub fn verified_get_many(&self, branch: &str, keys: &[Bytes]) -> Result<Vec<Option<Bytes>>> {
        Ok(self.proved_get_many(branch, keys)?.2)
    }
}

impl Session for RemoteSession {
    fn commit(&self, branch: &str, batch: WriteBatch) -> Result<CommitInfo> {
        let req = Request::Commit { branch: branch.to_string(), ops: batch.normalize() };
        match self.request(&req)? {
            Response::Committed(info) => Ok(info),
            _ => Err(unexpected("Commit")),
        }
    }

    fn get(&self, branch: &str, key: &[u8]) -> Result<Option<Bytes>> {
        let req = Request::Get { branch: branch.to_string(), key: Bytes::copy_from_slice(key) };
        match self.request(&req)? {
            Response::Value(v) => Ok(v),
            _ => Err(unexpected("Get")),
        }
    }

    fn range(&self, branch: &str, start: Bound<&[u8]>, end: Bound<&[u8]>) -> Result<EntryCursor> {
        let page_size = self.opts.page_size.max(1);
        Ok(EntryCursor::new(RemoteCursor {
            conn: self.conn.clone(),
            branch: branch.to_string(),
            start: WireBound::from_bound(start),
            end: WireBound::from_bound(end),
            after: None,
            page_size,
            next_limit: FIRST_PAGE.min(page_size),
            buf: VecDeque::new(),
            state: CursorState::Fresh,
        }))
    }

    fn fork(&self, from: &str, to: &str) -> Result<()> {
        let req = Request::Fork { from: from.to_string(), to: to.to_string() };
        match self.request(&req)? {
            Response::Ok => Ok(()),
            _ => Err(unexpected("Fork")),
        }
    }

    fn delete_branch(&self, branch: &str) -> Result<()> {
        match self.request(&Request::DeleteBranch { branch: branch.to_string() })? {
            Response::Ok => Ok(()),
            _ => Err(unexpected("DeleteBranch")),
        }
    }

    fn branches(&self) -> Result<Vec<String>> {
        match self.request(&Request::Branches)? {
            Response::Branches(names) => Ok(names),
            _ => Err(unexpected("Branches")),
        }
    }

    fn branch_digest(&self, branch: &str) -> Result<Hash> {
        match self.request(&Request::BranchDigest { branch: branch.to_string() })? {
            Response::Digest(h) => Ok(h),
            _ => Err(unexpected("BranchDigest")),
        }
    }

    fn prove(&self, branch: &str, key: &[u8]) -> Result<(Hash, Proof)> {
        self.proved_get(branch, key).map(|(digest, proof, _)| (digest, proof))
    }

    fn prove_range(
        &self,
        branch: &str,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> Result<(Hash, Proof)> {
        self.proved_scan(branch, start, end).map(|(digest, proof, _)| (digest, proof))
    }

    fn prove_batch(&self, branch: &str, keys: &[Bytes]) -> Result<(Hash, Proof)> {
        self.proved_get_many(branch, keys).map(|(digest, proof, _)| (digest, proof))
    }
}

enum CursorState {
    /// No page requested yet.
    Fresh,
    /// More pages may remain after `after`.
    More,
    /// Server said the range is exhausted (or a fault ended the stream).
    Done,
}

/// Entries the first `Range` of a scan asks for (when `page_size` allows).
/// The server walks `limit + 1` cursor steps per page whether or not the
/// caller consumes them, and most scans are short — `.take(50)` against a
/// 256-entry page made the server do 5× the work. Later pages grow by
/// [`PAGE_GROWTH`] up to [`ClientOptions::page_size`], so a long scan pays
/// one extra round trip in total.
const FIRST_PAGE: u32 = 64;
const PAGE_GROWTH: u32 = 4;

/// The lazy paging state machine behind a remote [`EntryCursor`]. Each
/// refill is one `Range` round trip anchored after the last delivered key;
/// entries buffer locally so iteration between refills is allocation-only.
struct RemoteCursor {
    conn: Arc<Mutex<Conn>>,
    branch: String,
    start: WireBound,
    end: WireBound,
    after: Option<Bytes>,
    page_size: u32,
    /// `limit` of the next `Range`: slow start, capped at `page_size`.
    next_limit: u32,
    buf: VecDeque<Entry>,
    state: CursorState,
}

impl RemoteCursor {
    fn refill(&mut self) -> Result<()> {
        let req = Request::Range {
            branch: self.branch.clone(),
            start: self.start.clone(),
            end: self.end.clone(),
            after: self.after.clone(),
            limit: self.next_limit,
        };
        self.next_limit = self.next_limit.saturating_mul(PAGE_GROWTH).min(self.page_size);
        match self.conn.lock().round_trip(&req)? {
            Response::Page { entries, done } => {
                if done {
                    self.state = CursorState::Done;
                } else {
                    self.state = CursorState::More;
                }
                if let Some(last) = entries.last() {
                    self.after = Some(last.key.clone());
                }
                self.buf.extend(entries);
                Ok(())
            }
            _ => Err(unexpected("Range")),
        }
    }
}

impl Iterator for RemoteCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.buf.pop_front() {
                return Some(Ok(e));
            }
            match self.state {
                CursorState::Done => return None,
                CursorState::Fresh | CursorState::More => {
                    if let Err(e) = self.refill() {
                        // Surface the fault once, then end the stream.
                        self.state = CursorState::Done;
                        return Some(Err(e));
                    }
                    if self.buf.is_empty() {
                        // An empty `done: false` page would loop forever;
                        // treat it as exhaustion either way.
                        return None;
                    }
                }
            }
        }
    }
}
