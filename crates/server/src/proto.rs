//! The SIRI wire protocol: length-prefixed frames carrying a hand-rolled
//! binary codec over `siri_encoding`'s checked reader/writer.
//!
//! ## Framing
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by the payload. The length must be in `1..=max_frame` — a zero length,
//! an oversized length, or a short read all surface as clean
//! `io::ErrorKind::InvalidData` errors, never as a panic or an unbounded
//! allocation (the reader allocates only after validating the length).
//!
//! ## Payloads
//!
//! The first payload byte is a message tag; the rest is field data encoded
//! with [`ByteWriter`] (varints, length-prefixed byte strings). Decoding is
//! *total*: every read is bounds-checked, every count is validated against
//! a hard cap before allocation, and [`ByteReader::finish`] rejects
//! trailing bytes — malformed input yields [`CodecError`], nothing else.
//!
//! ## Versioning
//!
//! A connection opens with `Request::Hello { version }` and the server
//! answers `Response::Hello` with its own version; mismatches are rejected
//! with a wire error before any other verb is accepted.

use std::io::{self, Read, Write};

use bytes::Bytes;
use siri_core::{BatchOp, CommitInfo, Entry, IndexError, ShardCommit};
use siri_crypto::Hash;
use siri_encoding::{varint, ByteReader, ByteWriter, CodecError};

/// Protocol version spoken by this build (bumped on any wire change).
/// History: 1 — initial verb set; 2 — `ProveRange`/`ProveBatch`.
pub const WIRE_VERSION: u8 = 2;

/// Default cap on one frame's payload (length prefix excluded).
pub const MAX_FRAME_BYTES: usize = 8 << 20;

/// Cap on ops in one commit, entries in one page, names in one listing.
pub const MAX_WIRE_ITEMS: usize = 1 << 20;

/// Cap on page hashes in one `Fetch` batch (keeps responses under the
/// frame cap for 4 KiB-class pages).
pub const MAX_FETCH_HASHES: usize = 1 << 12;

/// Cap on a branch-name length in bytes.
pub const MAX_NAME_BYTES: usize = 1 << 12;

/// Cap on keys in one `ProveBatch` (each key adds a root→leaf walk server
/// side, so this bounds per-request work as well as frame size).
pub const MAX_BATCH_KEYS: usize = 1 << 10;

/// Everything a client can ask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a connection; must be the first message.
    Hello { version: u8 },
    /// Apply one atomic batch to a branch.
    Commit { branch: String, ops: Vec<BatchOp> },
    /// Point lookup on a branch head.
    Get { branch: String, key: Bytes },
    /// One page of an ordered range scan. `after` (exclusive) re-anchors
    /// the window past the last key already delivered, so the server keeps
    /// no cursor state between pages.
    Range { branch: String, start: WireBound, end: WireBound, after: Option<Bytes>, limit: u32 },
    /// List branch names.
    Branches,
    /// Create branch `to` at the head of `from`.
    Fork { from: String, to: String },
    /// Delete a branch.
    DeleteBranch { branch: String },
    /// The branch's published head digest (manifest digest when sharded).
    BranchDigest { branch: String },
    /// A Merkle proof for a key, plus the root it verifies against.
    Prove { branch: String, key: Bytes },
    /// A completeness proof for `[start, end)`, anchored at the branch
    /// digest (manifest-first on a sharded branch).
    ProveRange { branch: String, start: WireBound, end: WireBound },
    /// One deduplicated page set proving every key in `keys` at once.
    ProveBatch { branch: String, keys: Vec<Bytes> },
    /// Server and per-connection counters.
    Stats,
    /// Anti-entropy page fetch: the pages named by `hashes`, in order.
    Fetch { hashes: Vec<Hash> },
    /// Ask the server to stop (honored only when it opted in).
    Shutdown,
}

/// Everything a server can answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Hello {
        version: u8,
    },
    Committed(CommitInfo),
    Value(Option<Bytes>),
    /// One scan page; `done` means the range is exhausted.
    Page {
        entries: Vec<Entry>,
        done: bool,
    },
    Branches(Vec<String>),
    Ok,
    Digest(Hash),
    Proof {
        root: Hash,
        pages: Vec<Bytes>,
    },
    Stats(WireServerStats),
    /// Fetched pages, `None` where the server has no such page.
    Pages(Vec<Option<Bytes>>),
    Err(WireError),
}

/// `std::ops::Bound<Vec<u8>>` with a stable wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireBound {
    Unbounded,
    Included(Bytes),
    Excluded(Bytes),
}

impl WireBound {
    /// Borrow as the std bound the index API takes.
    pub fn as_bound(&self) -> std::ops::Bound<&[u8]> {
        match self {
            WireBound::Unbounded => std::ops::Bound::Unbounded,
            WireBound::Included(b) => std::ops::Bound::Included(b.as_ref()),
            WireBound::Excluded(b) => std::ops::Bound::Excluded(b.as_ref()),
        }
    }

    /// Convert from a borrowed std bound.
    pub fn from_bound(b: std::ops::Bound<&[u8]>) -> Self {
        match b {
            std::ops::Bound::Unbounded => WireBound::Unbounded,
            std::ops::Bound::Included(s) => WireBound::Included(Bytes::copy_from_slice(s)),
            std::ops::Bound::Excluded(s) => WireBound::Excluded(Bytes::copy_from_slice(s)),
        }
    }
}

/// An error crossing the wire. Known engine errors travel as codes so the
/// client can resurface the *same* [`IndexError`] variant the in-process
/// engine would have returned; everything else degrades to
/// [`IndexError::Remote`] carrying the server's rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: u64,
    pub aux: u64,
    pub message: String,
}

/// [`WireError::code`] for "branch does not exist".
pub const ERR_UNKNOWN_BRANCH: u64 = 1;
/// [`WireError::code`] for [`IndexError::BranchDeleted`].
pub const ERR_BRANCH_DELETED: u64 = 2;
/// [`WireError::code`] for [`IndexError::CommitContention`]; `aux` is the
/// attempt count.
pub const ERR_CONTENTION: u64 = 3;
/// [`WireError::code`] for "server at its connection cap" backpressure.
pub const ERR_BUSY: u64 = 4;
/// [`WireError::code`] for a protocol violation. After a bad handshake the
/// server closes the connection; after a bad frame payload, or a response
/// longer than the frame cap (`aux` = the cap), it keeps it.
pub const ERR_PROTOCOL: u64 = 5;

impl WireError {
    /// Wrap an engine error for the wire.
    pub fn from_index_error(e: &IndexError) -> WireError {
        match e {
            IndexError::Unsupported("unknown branch") => {
                WireError { code: ERR_UNKNOWN_BRANCH, aux: 0, message: String::new() }
            }
            IndexError::BranchDeleted => {
                WireError { code: ERR_BRANCH_DELETED, aux: 0, message: String::new() }
            }
            IndexError::CommitContention { attempts } => WireError {
                code: ERR_CONTENTION,
                aux: u64::from(*attempts),
                message: String::new(),
            },
            other => WireError { code: 0, aux: 0, message: other.to_string() },
        }
    }

    /// Resurface on the client as the engine error it came from.
    pub fn into_index_error(self) -> IndexError {
        match self.code {
            ERR_UNKNOWN_BRANCH => IndexError::Unsupported("unknown branch"),
            ERR_BRANCH_DELETED => IndexError::BranchDeleted,
            ERR_CONTENTION => IndexError::CommitContention { attempts: self.aux as u32 },
            ERR_BUSY => IndexError::Remote("server busy (connection cap reached)".to_string()),
            ERR_PROTOCOL => IndexError::Remote(format!("protocol violation: {}", self.message)),
            _ => IndexError::Remote(self.message),
        }
    }
}

/// One connection's counters as reported by `Request::Stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireConnStats {
    pub id: u64,
    pub peer: String,
    pub requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub commits: u64,
    pub reads: u64,
    pub scan_pages: u64,
    pub sync_pages: u64,
}

/// Server-wide counters plus one row per live connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireServerStats {
    pub accepted: u64,
    pub active: u64,
    pub rejected: u64,
    pub total_requests: u64,
    pub total_bytes_in: u64,
    pub total_bytes_out: u64,
    pub conns: Vec<WireConnStats>,
}

// ---- framing --------------------------------------------------------------

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() || payload.len() > u32::MAX as usize {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame payload size out of range"));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload, enforcing `1..=max` on the advertised length
/// *before* allocating. A peer that lies about the length (or sends
/// garbage where the prefix should be) gets `InvalidData`; a peer that
/// hangs up mid-frame gets `UnexpectedEof` — both are clean errors the
/// caller turns into a closed connection.
pub fn read_frame(r: &mut impl Read, max: usize) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 || len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={max}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---- field helpers --------------------------------------------------------

fn put_hash(w: &mut ByteWriter, h: &Hash) {
    w.put_raw(h.as_bytes());
}

fn get_hash(r: &mut ByteReader<'_>) -> Result<Hash, CodecError> {
    Hash::from_slice(r.get_raw(32)?).ok_or(CodecError::BadLength { what: "hash" })
}

fn put_name(w: &mut ByteWriter, s: &str) {
    w.put_bytes(s.as_bytes());
}

fn get_name(r: &mut ByteReader<'_>) -> Result<String, CodecError> {
    let raw = r.get_bytes()?;
    if raw.len() > MAX_NAME_BYTES {
        return Err(CodecError::BadLength { what: "name" });
    }
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| CodecError::BadLength { what: "utf8 name" })
}

fn get_blob(r: &mut ByteReader<'_>) -> Result<Bytes, CodecError> {
    Ok(Bytes::copy_from_slice(r.get_bytes()?))
}

fn get_count(r: &mut ByteReader<'_>, cap: usize, what: &'static str) -> Result<usize, CodecError> {
    let n = r.get_varint()? as usize;
    if n > cap {
        return Err(CodecError::BadLength { what });
    }
    Ok(n)
}

fn put_bound(w: &mut ByteWriter, b: &WireBound) {
    match b {
        WireBound::Unbounded => w.put_u8(0),
        WireBound::Included(s) => {
            w.put_u8(1);
            w.put_bytes(s);
        }
        WireBound::Excluded(s) => {
            w.put_u8(2);
            w.put_bytes(s);
        }
    }
}

fn get_bound(r: &mut ByteReader<'_>) -> Result<WireBound, CodecError> {
    match r.get_u8()? {
        0 => Ok(WireBound::Unbounded),
        1 => Ok(WireBound::Included(get_blob(r)?)),
        2 => Ok(WireBound::Excluded(get_blob(r)?)),
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_opt_bytes(w: &mut ByteWriter, b: &Option<Bytes>) {
    match b {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_bytes(s);
        }
    }
}

fn get_opt_bytes(r: &mut ByteReader<'_>) -> Result<Option<Bytes>, CodecError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_blob(r)?)),
        t => Err(CodecError::BadTag(t)),
    }
}

fn put_commit_info(w: &mut ByteWriter, info: &CommitInfo) {
    put_hash(w, &info.parent);
    put_hash(w, &info.root);
    w.put_varint(u64::from(info.retries));
    w.put_varint(info.shards.len() as u64);
    for s in &info.shards {
        w.put_varint(s.shard as u64);
        put_hash(w, &s.parent);
        put_hash(w, &s.root);
    }
}

fn get_commit_info(r: &mut ByteReader<'_>) -> Result<CommitInfo, CodecError> {
    let parent = get_hash(r)?;
    let root = get_hash(r)?;
    let retries = r.get_varint()? as u32;
    let n = get_count(r, MAX_WIRE_ITEMS, "shard receipts")?;
    let mut shards = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let shard = r.get_varint()? as usize;
        let parent = get_hash(r)?;
        let root = get_hash(r)?;
        shards.push(ShardCommit { shard, parent, root });
    }
    Ok(CommitInfo { parent, root, retries, shards })
}

// ---- request codec --------------------------------------------------------

const REQ_HELLO: u8 = 1;
const REQ_COMMIT: u8 = 2;
const REQ_GET: u8 = 3;
const REQ_RANGE: u8 = 4;
const REQ_BRANCHES: u8 = 5;
const REQ_FORK: u8 = 6;
const REQ_DELETE_BRANCH: u8 = 7;
const REQ_BRANCH_DIGEST: u8 = 8;
const REQ_PROVE: u8 = 9;
const REQ_STATS: u8 = 10;
const REQ_FETCH: u8 = 11;
const REQ_SHUTDOWN: u8 = 12;
const REQ_PROVE_RANGE: u8 = 13;
const REQ_PROVE_BATCH: u8 = 14;

impl Request {
    /// Encode into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Request::Hello { version } => {
                w.put_u8(REQ_HELLO);
                w.put_u8(*version);
            }
            Request::Commit { branch, ops } => {
                w.put_u8(REQ_COMMIT);
                put_name(&mut w, branch);
                w.put_varint(ops.len() as u64);
                for op in ops {
                    w.put_bytes(&op.key);
                    put_opt_bytes(&mut w, &op.value);
                }
            }
            Request::Get { branch, key } => {
                w.put_u8(REQ_GET);
                put_name(&mut w, branch);
                w.put_bytes(key);
            }
            Request::Range { branch, start, end, after, limit } => {
                w.put_u8(REQ_RANGE);
                put_name(&mut w, branch);
                put_bound(&mut w, start);
                put_bound(&mut w, end);
                put_opt_bytes(&mut w, after);
                w.put_varint(u64::from(*limit));
            }
            Request::Branches => w.put_u8(REQ_BRANCHES),
            Request::Fork { from, to } => {
                w.put_u8(REQ_FORK);
                put_name(&mut w, from);
                put_name(&mut w, to);
            }
            Request::DeleteBranch { branch } => {
                w.put_u8(REQ_DELETE_BRANCH);
                put_name(&mut w, branch);
            }
            Request::BranchDigest { branch } => {
                w.put_u8(REQ_BRANCH_DIGEST);
                put_name(&mut w, branch);
            }
            Request::Prove { branch, key } => {
                w.put_u8(REQ_PROVE);
                put_name(&mut w, branch);
                w.put_bytes(key);
            }
            Request::ProveRange { branch, start, end } => {
                w.put_u8(REQ_PROVE_RANGE);
                put_name(&mut w, branch);
                put_bound(&mut w, start);
                put_bound(&mut w, end);
            }
            Request::ProveBatch { branch, keys } => {
                w.put_u8(REQ_PROVE_BATCH);
                put_name(&mut w, branch);
                w.put_varint(keys.len() as u64);
                for k in keys {
                    w.put_bytes(k);
                }
            }
            Request::Stats => w.put_u8(REQ_STATS),
            Request::Fetch { hashes } => {
                w.put_u8(REQ_FETCH);
                w.put_varint(hashes.len() as u64);
                for h in hashes {
                    put_hash(&mut w, h);
                }
            }
            Request::Shutdown => w.put_u8(REQ_SHUTDOWN),
        }
        w.into_vec()
    }

    /// Decode one frame payload. Total: any malformed input is a
    /// [`CodecError`], never a panic.
    pub fn decode(buf: &[u8]) -> Result<Request, CodecError> {
        let mut r = ByteReader::new(buf);
        let req = match r.get_u8()? {
            REQ_HELLO => Request::Hello { version: r.get_u8()? },
            REQ_COMMIT => {
                let branch = get_name(&mut r)?;
                let n = get_count(&mut r, MAX_WIRE_ITEMS, "commit ops")?;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let key = get_blob(&mut r)?;
                    let value = get_opt_bytes(&mut r)?;
                    ops.push(BatchOp { key, value });
                }
                Request::Commit { branch, ops }
            }
            REQ_GET => Request::Get { branch: get_name(&mut r)?, key: get_blob(&mut r)? },
            REQ_RANGE => {
                let branch = get_name(&mut r)?;
                let start = get_bound(&mut r)?;
                let end = get_bound(&mut r)?;
                let after = get_opt_bytes(&mut r)?;
                let limit = r.get_varint()? as u32;
                Request::Range { branch, start, end, after, limit }
            }
            REQ_BRANCHES => Request::Branches,
            REQ_FORK => Request::Fork { from: get_name(&mut r)?, to: get_name(&mut r)? },
            REQ_DELETE_BRANCH => Request::DeleteBranch { branch: get_name(&mut r)? },
            REQ_BRANCH_DIGEST => Request::BranchDigest { branch: get_name(&mut r)? },
            REQ_PROVE => Request::Prove { branch: get_name(&mut r)?, key: get_blob(&mut r)? },
            REQ_PROVE_RANGE => {
                let branch = get_name(&mut r)?;
                let start = get_bound(&mut r)?;
                let end = get_bound(&mut r)?;
                Request::ProveRange { branch, start, end }
            }
            REQ_PROVE_BATCH => {
                let branch = get_name(&mut r)?;
                let n = get_count(&mut r, MAX_BATCH_KEYS, "batch keys")?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(get_blob(&mut r)?);
                }
                Request::ProveBatch { branch, keys }
            }
            REQ_STATS => Request::Stats,
            REQ_FETCH => {
                let n = get_count(&mut r, MAX_FETCH_HASHES, "fetch hashes")?;
                let mut hashes = Vec::with_capacity(n);
                for _ in 0..n {
                    hashes.push(get_hash(&mut r)?);
                }
                Request::Fetch { hashes }
            }
            REQ_SHUTDOWN => Request::Shutdown,
            t => return Err(CodecError::BadTag(t)),
        };
        r.finish()?;
        Ok(req)
    }
}

// ---- response codec -------------------------------------------------------

/// Upper bound on the encoded bytes of a [`Response::Page`] header (tag,
/// `done` flag, entry count) for a page of at most `limit` entries.
pub(crate) fn page_header_bytes(limit: usize) -> usize {
    2 + varint::len(limit as u64)
}

/// Encoded bytes `e` adds to a [`Response::Page`].
pub(crate) fn page_entry_bytes(e: &Entry) -> usize {
    varint::len(e.key.len() as u64)
        + e.key.len()
        + varint::len(e.value.len() as u64)
        + e.value.len()
}

const RESP_HELLO: u8 = 129;
const RESP_COMMITTED: u8 = 130;
const RESP_VALUE: u8 = 131;
const RESP_PAGE: u8 = 132;
const RESP_BRANCHES: u8 = 133;
const RESP_OK: u8 = 134;
const RESP_DIGEST: u8 = 135;
const RESP_PROOF: u8 = 136;
const RESP_STATS: u8 = 137;
const RESP_PAGES: u8 = 138;
const RESP_ERR: u8 = 255;

impl Response {
    /// Encode into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Response::Hello { version } => {
                w.put_u8(RESP_HELLO);
                w.put_u8(*version);
            }
            Response::Committed(info) => {
                w.put_u8(RESP_COMMITTED);
                put_commit_info(&mut w, info);
            }
            Response::Value(v) => {
                w.put_u8(RESP_VALUE);
                put_opt_bytes(&mut w, v);
            }
            Response::Page { entries, done } => {
                w.put_u8(RESP_PAGE);
                w.put_u8(u8::from(*done));
                w.put_varint(entries.len() as u64);
                for e in entries {
                    w.put_bytes(&e.key);
                    w.put_bytes(&e.value);
                }
            }
            Response::Branches(names) => {
                w.put_u8(RESP_BRANCHES);
                w.put_varint(names.len() as u64);
                for n in names {
                    put_name(&mut w, n);
                }
            }
            Response::Ok => w.put_u8(RESP_OK),
            Response::Digest(h) => {
                w.put_u8(RESP_DIGEST);
                put_hash(&mut w, h);
            }
            Response::Proof { root, pages } => {
                w.put_u8(RESP_PROOF);
                put_hash(&mut w, root);
                w.put_varint(pages.len() as u64);
                for p in pages {
                    w.put_bytes(p);
                }
            }
            Response::Stats(s) => {
                w.put_u8(RESP_STATS);
                w.put_varint(s.accepted);
                w.put_varint(s.active);
                w.put_varint(s.rejected);
                w.put_varint(s.total_requests);
                w.put_varint(s.total_bytes_in);
                w.put_varint(s.total_bytes_out);
                w.put_varint(s.conns.len() as u64);
                for c in &s.conns {
                    w.put_varint(c.id);
                    put_name(&mut w, &c.peer);
                    w.put_varint(c.requests);
                    w.put_varint(c.bytes_in);
                    w.put_varint(c.bytes_out);
                    w.put_varint(c.commits);
                    w.put_varint(c.reads);
                    w.put_varint(c.scan_pages);
                    w.put_varint(c.sync_pages);
                }
            }
            Response::Pages(pages) => {
                w.put_u8(RESP_PAGES);
                w.put_varint(pages.len() as u64);
                for p in pages {
                    put_opt_bytes(&mut w, p);
                }
            }
            Response::Err(e) => {
                w.put_u8(RESP_ERR);
                w.put_varint(e.code);
                w.put_varint(e.aux);
                put_name(&mut w, &e.message);
            }
        }
        w.into_vec()
    }

    /// Decode one frame payload. Total, like [`Request::decode`].
    pub fn decode(buf: &[u8]) -> Result<Response, CodecError> {
        let mut r = ByteReader::new(buf);
        let resp = match r.get_u8()? {
            RESP_HELLO => Response::Hello { version: r.get_u8()? },
            RESP_COMMITTED => Response::Committed(get_commit_info(&mut r)?),
            RESP_VALUE => Response::Value(get_opt_bytes(&mut r)?),
            RESP_PAGE => {
                let done = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    t => return Err(CodecError::BadTag(t)),
                };
                let n = get_count(&mut r, MAX_WIRE_ITEMS, "page entries")?;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let key = get_blob(&mut r)?;
                    let value = get_blob(&mut r)?;
                    entries.push(Entry { key, value });
                }
                Response::Page { entries, done }
            }
            RESP_BRANCHES => {
                let n = get_count(&mut r, MAX_WIRE_ITEMS, "branch names")?;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(get_name(&mut r)?);
                }
                Response::Branches(names)
            }
            RESP_OK => Response::Ok,
            RESP_DIGEST => Response::Digest(get_hash(&mut r)?),
            RESP_PROOF => {
                let root = get_hash(&mut r)?;
                let n = get_count(&mut r, MAX_WIRE_ITEMS, "proof pages")?;
                let mut pages = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    pages.push(get_blob(&mut r)?);
                }
                Response::Proof { root, pages }
            }
            RESP_STATS => {
                let accepted = r.get_varint()?;
                let active = r.get_varint()?;
                let rejected = r.get_varint()?;
                let total_requests = r.get_varint()?;
                let total_bytes_in = r.get_varint()?;
                let total_bytes_out = r.get_varint()?;
                let n = get_count(&mut r, MAX_WIRE_ITEMS, "connection rows")?;
                let mut conns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    conns.push(WireConnStats {
                        id: r.get_varint()?,
                        peer: get_name(&mut r)?,
                        requests: r.get_varint()?,
                        bytes_in: r.get_varint()?,
                        bytes_out: r.get_varint()?,
                        commits: r.get_varint()?,
                        reads: r.get_varint()?,
                        scan_pages: r.get_varint()?,
                        sync_pages: r.get_varint()?,
                    });
                }
                Response::Stats(WireServerStats {
                    accepted,
                    active,
                    rejected,
                    total_requests,
                    total_bytes_in,
                    total_bytes_out,
                    conns,
                })
            }
            RESP_PAGES => {
                let n = get_count(&mut r, MAX_FETCH_HASHES, "fetched pages")?;
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    pages.push(get_opt_bytes(&mut r)?);
                }
                Response::Pages(pages)
            }
            RESP_ERR => {
                let code = r.get_varint()?;
                let aux = r.get_varint()?;
                let message = get_name(&mut r)?;
                Response::Err(WireError { code, aux, message })
            }
            t => return Err(CodecError::BadTag(t)),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello { version: WIRE_VERSION },
            Request::Commit {
                branch: "master".into(),
                ops: vec![
                    BatchOp {
                        key: Bytes::from_static(b"k"),
                        value: Some(Bytes::from_static(b"v")),
                    },
                    BatchOp { key: Bytes::from_static(b"dead"), value: None },
                ],
            },
            Request::Range {
                branch: "b".into(),
                start: WireBound::Included(Bytes::from_static(b"a")),
                end: WireBound::Excluded(Bytes::from_static(b"z")),
                after: Some(Bytes::from_static(b"m")),
                limit: 128,
            },
            Request::Fetch { hashes: vec![siri_crypto::sha256(b"p")] },
            Request::ProveRange {
                branch: "b".into(),
                start: WireBound::Unbounded,
                end: WireBound::Included(Bytes::from_static(b"q")),
            },
            Request::ProveBatch {
                branch: "b".into(),
                keys: vec![Bytes::from_static(b"k1"), Bytes::from_static(b"k2")],
            },
            Request::ProveBatch { branch: "b".into(), keys: Vec::new() },
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()), Ok(req));
        }
    }

    #[test]
    fn oversized_batch_key_count_is_rejected() {
        let mut w = siri_encoding::ByteWriter::new();
        w.put_u8(14); // REQ_PROVE_BATCH
        w.put_bytes(b"b");
        w.put_varint((MAX_BATCH_KEYS + 1) as u64);
        assert!(Request::decode(&w.into_vec()).is_err());
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            Response::Value(Some(Bytes::from_static(b"v"))),
            Response::Page { entries: vec![Entry::new(&b"k"[..], &b"v"[..])], done: true },
            Response::Err(WireError { code: ERR_BUSY, aux: 0, message: "busy".into() }),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()), Ok(resp));
        }
    }

    /// The server sizes scan pages against the frame cap with these two
    /// functions; they must match the encoder byte for byte.
    #[test]
    fn page_size_arithmetic_matches_the_encoding() {
        for (count, len) in [(0usize, 0usize), (1, 127), (3, 128), (200, 16_383), (130, 16_384)] {
            let entries: Vec<Entry> =
                (0..count).map(|i| Entry::new(vec![i as u8; len % 300], vec![7u8; len])).collect();
            let sized =
                page_header_bytes(count) + entries.iter().map(page_entry_bytes).sum::<usize>();
            assert_eq!(sized, Response::Page { entries, done: false }.encode().len());
        }
    }

    #[test]
    fn truncated_and_garbage_payloads_are_clean_errors() {
        let good = Request::Get { branch: "b".into(), key: Bytes::from_static(b"k") }.encode();
        for cut in 0..good.len() {
            assert!(Request::decode(&good[..cut]).is_err());
        }
        assert!(Request::decode(&[0xfe, 1, 2, 3]).is_err());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf: &[u8] = &[0xff, 0xff, 0xff, 0xff, 0, 0];
        let err = read_frame(&mut buf, MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
