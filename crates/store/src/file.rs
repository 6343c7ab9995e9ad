//! A persistent, segmented, compacting, content-addressed page store.
//!
//! The store is a *directory* holding numbered segment files plus a small
//! manifest naming the segments that make up the current generation:
//!
//! ```text
//! db/
//! ├── MANIFEST            # "siri-segments v1" + "seg N" lines + "end"
//! ├── seg-00000001.seg    # frames, append-only
//! └── seg-00000002.seg    # ← active segment (appends go here)
//! ```
//!
//! Each segment is a sequence of digest-verified frames:
//!
//! ```text
//! ┌──────┬──────────┬──────────────┬────────────┐
//! │ 0xA5 │ len: u32 │ digest: 32 B │ payload    │   (repeated)
//! └──────┴──────────┴──────────────┴────────────┘
//! ```
//!
//! Append-only fits immutable pages perfectly: a page is never rewritten,
//! so recovery is a forward scan per segment that stops at the first torn
//! or corrupt frame (partial trailing writes after a crash are expected and
//! tolerated — everything before them is intact and digest-verified).
//!
//! ## Why segments
//!
//! * **Reads never touch the append path.** `get` resolves a page to
//!   `(segment, offset, length)` and issues one positioned read
//!   (`read_at`); there is no shared cursor to seek and no mutex shared
//!   with writers. The single-log predecessor funnelled every read through
//!   the append mutex and a seek/read/seek-back dance.
//! * **Space can be reclaimed.** [`Reclaim::sweep`] compacts by rewriting
//!   the live pages into a fresh segment generation and atomically swapping
//!   the manifest (write-temp → fsync → rename → fsync-dir). A crash at any
//!   point leaves either the old or the new generation fully intact;
//!   segment files not named by an intact manifest are leftovers of an
//!   interrupted compaction or rotation and are deleted on open.
//! * **Writes can fail without lying.** Every put call — one page or a
//!   whole commit's [`PageBatch`] — is *one* append: its new frames are
//!   assembled in memory and written with one `write(2)`. Each call is
//!   all-or-nothing: on a short or failed write the segment is rewound to
//!   the frame boundary where the call began and neither the in-memory
//!   index nor the counters move — the store behaves as if the call never
//!   happened.
//!
//! ## Rotation
//!
//! The active segment rolls over once it has reached
//! [`FileStoreOptions::max_segment_bytes`], checked once per append before
//! it writes — so a segment may overshoot the cap by at most one append's
//! frames (one commit batch, or one spill of [`crate::PAGE_BATCH_SPILL_BYTES`]).
//!
//! ## Crash matrix
//!
//! | crash during            | on-disk state found at reopen                   | outcome |
//! |-------------------------|--------------------------------------------------|---------|
//! | append (page or batch)  | torn frame at active-segment tail — a torn batch leaves its whole frames before the cut | tail truncated at the last whole frame, prefix kept |
//! | rotation (pre-manifest) | new empty segment not in manifest                | stray deleted |
//! | compaction (pre-swap)   | partial new generation, old manifest             | new gen deleted, old gen served |
//! | compaction (post-swap)  | new manifest, old segments linger                | old gen deleted, new gen served |
//! | manifest torn/missing   | unparseable manifest                             | every on-disk segment loaded (superset recovery — content addressing dedups) |
//!
//! Durability of *acknowledged* commits is governed by [`FsyncPolicy`];
//! the manifest swap itself is always fsynced.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
#[cfg(not(unix))]
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{LockClass, Mutex, RwLock};

/// Lock classes for the runtime lock-order tracker (DESIGN.md §9). The
/// durable store's internal order: appender → index → readers, all after
/// any engine-level lock.
static FILE_APPENDER_CLASS: LockClass = LockClass::new(50, "store.file-appender");
static FILE_INDEX_CLASS: LockClass = LockClass::new(60, "store.file-index");
static FILE_READERS_CLASS: LockClass = LockClass::new(65, "store.file-readers");
use siri_crypto::{sha256, FxHashMap, Hash};

use crate::stats::AtomicStoreStats;
use crate::{NodeStore, PageBatch, PageSet, Reclaim, StoreError, StoreResult, StoreStats};

const FRAME_MAGIC: u8 = 0xA5;
/// Frame header bytes preceding the payload: magic + len + digest.
const FRAME_HEADER: u64 = 1 + 4 + 32;
/// Refuse absurd frame lengths when scanning (corruption guard).
const MAX_PAGE: u32 = 64 * 1024 * 1024;
/// Segments roll over once the active one grows past this (module docs,
/// *Rotation*).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024 * 1024;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_HEADER: &str = "siri-segments v1";
const MANIFEST_TRAILER: &str = "end";

/// When acknowledged writes are flushed to stable storage.
///
/// `put` itself never fsyncs — pages are appended through the OS page
/// cache. The policy decides what [`NodeStore::note_commit`] does, which
/// engines call once per *logical* commit (a whole [`crate::PageSet`]'s
/// worth of pages), amortizing the flush the way a WAL group-commit does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never fsync automatically; callers own durability via
    /// [`FileStore::sync`]. Fastest, loses the OS-buffered tail on power
    /// failure (never corrupts — recovery drops torn tails).
    Never,
    /// Fsync on every commit: an acknowledged commit survives power loss.
    #[default]
    OnCommit,
    /// Group commit: every acknowledged commit survives power loss (same
    /// guarantee as [`FsyncPolicy::OnCommit`]), but concurrent committers
    /// share one fsync. The first committer of a tick becomes the *flush
    /// leader*: it waits the `window` out for more commits to pile in,
    /// issues a single fsync, and wakes everyone the flush covered. Commit
    /// latency pays up to `window` (a lone committer always pays it — a
    /// fixed tick, not a quorum wait); commit *throughput* under N writers
    /// scales because the store pays ~1 fsync per tick instead of N.
    Group(Duration),
}

impl FsyncPolicy {
    /// Parse `"never"`, `"commit"` or `"group=MS"` (a group window in
    /// milliseconds; `group=0` batches only commits already waiting), as
    /// the `siri` CLI accepts.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "never" => Some(FsyncPolicy::Never),
            "commit" => Some(FsyncPolicy::OnCommit),
            _ => s
                .strip_prefix("group=")
                .and_then(|ms| ms.parse().ok())
                .map(|ms: u64| FsyncPolicy::Group(Duration::from_millis(ms))),
        }
    }
}

/// Tuning knobs for [`FileStore::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct FileStoreOptions {
    /// Roll to a new segment once the active one reaches this size (a
    /// segment may overshoot it by one append).
    pub max_segment_bytes: u64,
    /// When acknowledged commits reach stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for FileStoreOptions {
    fn default() -> Self {
        FileStoreOptions { max_segment_bytes: DEFAULT_SEGMENT_BYTES, fsync: FsyncPolicy::default() }
    }
}

/// Crash-injection points inside [`FileStore::sweep_with_crash`] — the
/// compaction aborts (as if the process died) right *after* the named
/// step. Test-only plumbing for the recovery proptests; hidden from docs.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// New-generation segments fully written and fsynced; no manifest yet.
    AfterSegmentsWritten,
    /// `MANIFEST.tmp` written and fsynced; rename not performed.
    AfterManifestTmp,
    /// Manifest renamed (swap is live); old segments not yet deleted.
    AfterSwap,
}

/// Where one page's payload lives on disk.
#[derive(Debug, Clone, Copy)]
struct PageLoc {
    seg: u32,
    off: u64,
    len: u32,
}

/// Append-side state: the active segment and the current generation's
/// segment list. One mutex — but only writers (and compaction) take it.
struct Appender {
    segments: Vec<u32>,
    active_id: u32,
    active: File,
    /// Clean end of the active segment (next append offset).
    end: u64,
    /// Reusable frame-assembly buffer: appends are serialized by this
    /// mutex anyway, so one allocation serves every put for the store's
    /// lifetime.
    frame_buf: Vec<u8>,
    /// Reusable scratch of the append in progress: each new page's
    /// location, its offset relative to the start of `frame_buf`.
    fresh: FxHashMap<Hash, PageLoc>,
}

/// Group-commit bookkeeping: arrival tickets vs flush coverage.
///
/// Commits take a monotone ticket on arrival; a flush covers every ticket
/// issued before its fsync started. `ok_upto`/`err_upto` record how far
/// successful and failed flushes reach — an fsync flushes the whole file,
/// so a later successful flush also covers earlier tickets, which is why a
/// waiter checks `ok_upto` *before* `err_upto`.
#[derive(Default)]
struct GroupState {
    /// Tickets issued (commits that appended their frames and arrived).
    arrived: u64,
    /// Highest ticket covered by a successful fsync.
    ok_upto: u64,
    /// Highest ticket covered by a failed fsync (and not by a later
    /// successful one).
    err_upto: u64,
    /// The most recent flush failure, replayed to every waiter it covered
    /// (`io::Error` is not `Clone`; kind + message reconstruct it).
    err: Option<(io::ErrorKind, String)>,
    /// A flush leader is currently collecting the tick / fsyncing.
    flushing: bool,
}

/// Segmented, compacting, file-backed [`NodeStore`].
///
/// Reads resolve through a lock-free-ish path: a shared read lock on the
/// page index, a shared read lock on the reader-handle cache, then one
/// positioned `read_at` — no seeking, no interaction with appends.
/// Counters live in [`AtomicStoreStats`], as in [`crate::MemStore`].
pub struct FileStore {
    dir: PathBuf,
    /// Page digest → on-disk location.
    index: RwLock<FxHashMap<Hash, PageLoc>>,
    /// Lazily opened read handles, one per segment.
    readers: RwLock<FxHashMap<u32, Arc<File>>>,
    appender: Mutex<Appender>,
    stats: AtomicStoreStats,
    opts: FileStoreOptions,
    /// Group-commit state ([`FsyncPolicy::Group`]). `std::sync` primitives
    /// on purpose: the vendored `parking_lot` shim has no `Condvar`.
    group: std::sync::Mutex<GroupState>,
    flushed: Condvar,
}

fn seg_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:08}.seg"))
}

fn seg_id_of(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.strip_suffix(".seg")?.parse().ok()
}

/// Fsync the directory itself so renames/creates inside it are durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// One positioned read, independent of any file cursor.
fn read_exact_at(file: &File, buf: &mut [u8], off: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, off)
    }
    #[cfg(not(unix))]
    {
        // Portable fallback: clone the handle and seek the clone. Slower,
        // but keeps the shared handle's cursor untouched.
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(off))?;
        f.read_exact(buf)
    }
}

/// One digest-verified frame found by a recovery scan: `(digest, payload
/// offset, payload length)`.
type ScannedFrame = (Hash, u64, u32);

/// Forward-scan one segment, returning every digest-verified frame and the
/// clean end offset (everything past it is torn or corrupt).
fn scan_segment(path: &Path) -> io::Result<(Vec<ScannedFrame>, u64)> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut frames = Vec::new();
    let mut pos: u64 = 0;
    let mut valid_end: u64 = 0;
    loop {
        let mut header = [0u8; FRAME_HEADER as usize];
        if reader.read_exact(&mut header).is_err() {
            break; // clean EOF or torn header
        }
        if header[0] != FRAME_MAGIC {
            break; // corrupt frame boundary: stop, keep prefix
        }
        let len = u32::from_le_bytes(header[1..5].try_into().unwrap());
        if len > MAX_PAGE || pos + FRAME_HEADER + len as u64 > file_len {
            break; // torn payload
        }
        let digest = Hash::from_slice(&header[5..37]).expect("32 bytes");
        let mut payload = vec![0u8; len as usize];
        if reader.read_exact(&mut payload).is_err() {
            break;
        }
        if sha256(&payload) != digest {
            break; // bit rot in the tail: stop at the last good frame
        }
        frames.push((digest, pos + FRAME_HEADER, len));
        pos += FRAME_HEADER + len as u64;
        valid_end = pos;
    }
    Ok((frames, valid_end))
}

/// Atomically install a manifest naming `segments` (in order).
fn write_manifest(dir: &Path, segments: &[u32]) -> io::Result<()> {
    write_manifest_tmp(dir, segments)?;
    commit_manifest_tmp(dir)
}

fn write_manifest_tmp(dir: &Path, segments: &[u32]) -> io::Result<()> {
    let tmp = dir.join(MANIFEST_TMP);
    let mut f = File::create(&tmp)?;
    let mut text = String::with_capacity(32 + segments.len() * 14);
    text.push_str(MANIFEST_HEADER);
    text.push('\n');
    for id in segments {
        text.push_str(&format!("seg {id}\n"));
    }
    text.push_str(MANIFEST_TRAILER);
    text.push('\n');
    f.write_all(text.as_bytes())?;
    f.sync_data()?;
    Ok(())
}

fn commit_manifest_tmp(dir: &Path) -> io::Result<()> {
    fs::rename(dir.join(MANIFEST_TMP), dir.join(MANIFEST))?;
    sync_dir(dir)
}

/// Parse the manifest. `Some(ids)` only when the trailer is present — a
/// manifest without it is torn and must not be trusted to *exclude*
/// segments (see the crash matrix in the module docs).
fn read_manifest(dir: &Path) -> Option<Vec<u32>> {
    let text = fs::read_to_string(dir.join(MANIFEST)).ok()?;
    let mut lines = text.lines();
    if lines.next()? != MANIFEST_HEADER {
        return None;
    }
    let mut ids = Vec::new();
    let mut sealed = false;
    for line in lines {
        if line == MANIFEST_TRAILER {
            sealed = true;
            break;
        }
        ids.push(line.strip_prefix("seg ")?.parse().ok()?);
    }
    sealed.then_some(ids)
}

/// All segment ids present on disk, ascending.
fn scan_dir_segments(dir: &Path) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(seg_id_of) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

impl FileStore {
    /// Open (or create) a store at `path` with default options, replaying
    /// segments to rebuild the in-memory index. Returns the store and the
    /// number of pages recovered.
    ///
    /// `path` is a directory, created if missing.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Self, usize)> {
        Self::open_with(path, FileStoreOptions::default())
    }

    /// [`FileStore::open`] with explicit [`FileStoreOptions`].
    pub fn open_with(path: impl AsRef<Path>, opts: FileStoreOptions) -> io::Result<(Self, usize)> {
        let dir = path.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let _ = fs::remove_file(dir.join(MANIFEST_TMP));

        // Which segments constitute the store? An intact manifest is
        // authoritative: files it does not name are strays of an
        // interrupted rotation/compaction and are deleted. A torn or
        // missing manifest must not exclude anything — load every segment
        // on disk (content addressing collapses duplicates) and heal.
        let (mut segments, intact) = match read_manifest(&dir) {
            Some(ids) => (ids, true),
            None => (scan_dir_segments(&dir)?, false),
        };
        if intact {
            for id in scan_dir_segments(&dir)? {
                if !segments.contains(&id) {
                    let _ = fs::remove_file(seg_path(&dir, id));
                }
            }
        }
        if segments.is_empty() {
            segments.push(1);
            File::create(seg_path(&dir, 1))?;
        }
        if !intact {
            write_manifest(&dir, &segments)?;
        }

        // Replay. Later segments win index collisions (they are identical
        // pages anyway — content addressing).
        let mut index = FxHashMap::default();
        let stats = AtomicStoreStats::default();
        let mut active_end = 0u64;
        for (i, &id) in segments.iter().enumerate() {
            let path = seg_path(&dir, id);
            let (frames, valid_end) = scan_segment(&path)?;
            for (digest, off, len) in frames {
                if index.insert(digest, PageLoc { seg: id, off, len }).is_none() {
                    AtomicStoreStats::add(&stats.unique_pages, 1);
                    AtomicStoreStats::add(&stats.unique_bytes, len as u64);
                }
            }
            let is_last = i + 1 == segments.len();
            if is_last {
                // Drop any torn tail so future appends start clean.
                let file_len = fs::metadata(&path)?.len();
                if valid_end < file_len {
                    OpenOptions::new().write(true).open(&path)?.set_len(valid_end)?;
                }
                active_end = valid_end;
            }
        }

        let active_id = *segments.last().expect("at least one segment");
        let active = OpenOptions::new().append(true).open(seg_path(&dir, active_id))?;
        let recovered = index.len();
        Ok((
            FileStore {
                dir,
                index: RwLock::with_class(index, &FILE_INDEX_CLASS),
                readers: RwLock::with_class(FxHashMap::default(), &FILE_READERS_CLASS),
                appender: Mutex::with_class(
                    Appender {
                        segments,
                        active_id,
                        active,
                        end: active_end,
                        frame_buf: Vec::new(),
                        fresh: FxHashMap::default(),
                    },
                    &FILE_APPENDER_CLASS,
                ),
                stats,
                opts,
                group: std::sync::Mutex::new(GroupState::default()),
                flushed: Condvar::new(),
            },
            recovered,
        ))
    }

    /// Flush the active segment to stable storage (`fdatasync`).
    ///
    /// The appender mutex is held only long enough to clone the active
    /// handle — the fsync itself runs outside it, so committers keep
    /// appending while a flush is in flight (the group-commit overlap).
    /// That is sound because segment rotation syncs a segment before
    /// retiring it: every frame not in the current active segment is
    /// already durable.
    pub fn sync(&self) -> io::Result<()> {
        let active = self.appender.lock().active.try_clone()?;
        active.sync_data()?;
        AtomicStoreStats::add(&self.stats.fsyncs, 1);
        Ok(())
    }

    /// One group-commit arrival: take a ticket, then either lead the flush
    /// tick (first committer in) or wait for a leader's fsync to cover the
    /// ticket. Returns once a flush that started *after* this commit's
    /// frames were appended has completed — the same ack guarantee as
    /// [`FsyncPolicy::OnCommit`], at ~1 fsync per tick instead of one per
    /// commit.
    fn group_commit(&self, window: Duration) -> io::Result<()> {
        fn lock(st: &std::sync::Mutex<GroupState>) -> std::sync::MutexGuard<'_, GroupState> {
            st.lock().unwrap_or_else(PoisonError::into_inner)
        }
        let mut st = lock(&self.group);
        st.arrived += 1;
        let ticket = st.arrived;
        loop {
            if st.ok_upto >= ticket {
                return Ok(());
            }
            if st.err_upto >= ticket {
                let (kind, msg) = st.err.clone().expect("err_upto implies a recorded error");
                return Err(io::Error::new(kind, msg));
            }
            if st.flushing {
                st = self.flushed.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Lead this tick: let the group fill for `window`, snapshot the
            // arrivals (their frames were appended before they arrived —
            // append happens-before note_commit), then one fsync covers
            // them all. Latecomers ticket past the snapshot and wait for
            // the next tick's leader.
            st.flushing = true;
            drop(st);
            if !window.is_zero() {
                std::thread::sleep(window);
            }
            let covered = lock(&self.group).arrived;
            let res = self.sync();
            st = lock(&self.group);
            st.flushing = false;
            match res {
                Ok(()) => st.ok_upto = st.ok_upto.max(covered),
                Err(e) => {
                    st.err_upto = st.err_upto.max(covered);
                    st.err = Some((e.kind(), e.to_string()));
                }
            }
            self.flushed.notify_all();
            // Loop around: `ticket <= covered`, so the next pass returns.
        }
    }

    /// Number of distinct pages held.
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Segments in the current generation.
    pub fn segment_count(&self) -> usize {
        self.appender.lock().segments.len()
    }

    /// Bytes occupied on disk by the current generation's segment files
    /// (frame headers included; the manifest is noise).
    pub fn disk_bytes(&self) -> u64 {
        let segments = self.appender.lock().segments.clone();
        segments
            .iter()
            .filter_map(|&id| fs::metadata(seg_path(&self.dir, id)).ok())
            .map(|m| m.len())
            .sum()
    }

    /// A cached positioned-read handle for one segment.
    fn reader(&self, seg: u32) -> io::Result<Arc<File>> {
        if let Some(f) = self.readers.read().get(&seg) {
            return Ok(Arc::clone(f));
        }
        let file = Arc::new(File::open(seg_path(&self.dir, seg))?);
        Ok(Arc::clone(self.readers.write().entry(seg).or_insert(file)))
    }

    /// Create a brand-new segment file for `id`. A file already at that
    /// name can only be a stray from an earlier failed rotation/compaction
    /// (no live generation references it, or the caller would not have
    /// picked the id), so it is removed rather than wedging every retry
    /// with `AlreadyExists`.
    fn create_segment(&self, id: u32) -> io::Result<File> {
        let path = seg_path(&self.dir, id);
        let _ = fs::remove_file(&path);
        OpenOptions::new().append(true).create_new(true).open(path)
    }

    /// Roll the appender to a fresh segment. The manifest is updated
    /// *before* the first append to the new segment, so a crash in between
    /// leaves only an empty stray (deleted at next open) — never an
    /// unlisted segment holding acknowledged data.
    fn rotate(&self, ap: &mut Appender) -> io::Result<()> {
        ap.active.sync_data()?;
        let id = ap.segments.iter().copied().max().unwrap_or(0) + 1;
        let file = self.create_segment(id)?;
        let mut segments = ap.segments.clone();
        segments.push(id);
        if let Err(e) = write_manifest(&self.dir, &segments) {
            // Drop the just-created stray so a retry can recreate it.
            let _ = fs::remove_file(seg_path(&self.dir, id));
            return Err(e);
        }
        ap.segments = segments;
        ap.active_id = id;
        ap.active = file;
        ap.end = 0;
        Ok(())
    }

    /// Compact the store down to `live`, with an optional simulated crash
    /// for the recovery tests: the compaction stops dead right after the
    /// named step, leaving the disk exactly as a process death would. The
    /// in-memory store is stale after a simulated crash — drop it and
    /// reopen the directory.
    #[doc(hidden)]
    pub fn sweep_with_crash(
        &self,
        live: &PageSet,
        crash: Option<CrashPoint>,
    ) -> StoreResult<(u64, u64)> {
        let ioerr = StoreError::io;
        let mut ap = self.appender.lock();

        // Partition the index under a short read lock.
        let mut survivors: Vec<(Hash, PageLoc)> = Vec::new();
        let (mut dead_pages, mut dead_bytes) = (0u64, 0u64);
        for (h, loc) in self.index.read().iter() {
            if live.contains(h) {
                survivors.push((*h, *loc));
            } else {
                dead_pages += 1;
                dead_bytes += loc.len as u64;
            }
        }
        if dead_pages == 0 && crash.is_none() {
            return Ok((0, 0));
        }
        // Deterministic output: rewrite in (segment, offset) order — close
        // to the original append order, and friendly to sequential I/O.
        survivors.sort_unstable_by_key(|(_, loc)| (loc.seg, loc.off));

        // 1. Write the new generation.
        let next_id = ap.segments.iter().copied().max().unwrap_or(0) + 1;
        let mut gen_ids = vec![next_id];
        let mut cur =
            self.create_segment(next_id).map_err(|e| ioerr("compact: create segment", e))?;
        let mut cur_end = 0u64;
        let mut new_index: FxHashMap<Hash, PageLoc> = FxHashMap::default();
        for (digest, loc) in &survivors {
            let reader = self.reader(loc.seg).map_err(|e| ioerr("compact: open segment", e))?;
            let mut payload = vec![0u8; loc.len as usize];
            read_exact_at(&reader, &mut payload, loc.off)
                .map_err(|e| ioerr("compact: read page", e))?;
            if sha256(&payload) != *digest {
                return Err(StoreError::Corrupt("live page failed digest check during compaction"));
            }
            if cur_end >= self.opts.max_segment_bytes && cur_end > 0 {
                cur.sync_data().map_err(|e| ioerr("compact: sync segment", e))?;
                let id = gen_ids.last().unwrap() + 1;
                cur = self.create_segment(id).map_err(|e| ioerr("compact: create segment", e))?;
                gen_ids.push(id);
                cur_end = 0;
            }
            let mut frame = Vec::with_capacity(FRAME_HEADER as usize + payload.len());
            frame.push(FRAME_MAGIC);
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(digest.as_bytes());
            frame.extend_from_slice(&payload);
            cur.write_all(&frame).map_err(|e| ioerr("compact: append", e))?;
            AtomicStoreStats::add(&self.stats.bytes_written, frame.len() as u64);
            new_index.insert(
                *digest,
                PageLoc {
                    seg: *gen_ids.last().unwrap(),
                    off: cur_end + FRAME_HEADER,
                    len: loc.len,
                },
            );
            cur_end += frame.len() as u64;
        }
        cur.sync_data().map_err(|e| ioerr("compact: sync segment", e))?;
        sync_dir(&self.dir).map_err(|e| ioerr("compact: sync dir", e))?;
        if crash == Some(CrashPoint::AfterSegmentsWritten) {
            return Ok((0, 0));
        }

        // 2. Atomic manifest swap — the commit point of the compaction.
        write_manifest_tmp(&self.dir, &gen_ids).map_err(|e| ioerr("compact: manifest", e))?;
        if crash == Some(CrashPoint::AfterManifestTmp) {
            return Ok((0, 0));
        }
        commit_manifest_tmp(&self.dir).map_err(|e| ioerr("compact: manifest rename", e))?;
        if crash == Some(CrashPoint::AfterSwap) {
            return Ok((0, 0));
        }

        // 3. Install the new generation in memory, then delete old files.
        let old_segments = std::mem::take(&mut ap.segments);
        let active_id = *gen_ids.last().unwrap();
        let active = OpenOptions::new()
            .append(true)
            .open(seg_path(&self.dir, active_id))
            .map_err(|e| ioerr("compact: reopen active", e))?;
        *self.index.write() = new_index;
        self.readers.write().clear();
        ap.segments = gen_ids;
        ap.active_id = active_id;
        ap.active = active;
        ap.end = cur_end;
        drop(ap);
        for id in old_segments {
            let _ = fs::remove_file(seg_path(&self.dir, id));
        }
        AtomicStoreStats::sub(&self.stats.unique_pages, dead_pages);
        AtomicStoreStats::sub(&self.stats.unique_bytes, dead_bytes);
        Ok((dead_pages, dead_bytes))
    }
}

impl FileStore {
    /// Append `pages`, each under its already computed content address:
    /// the one routine that writes page frames (every put flavor lands
    /// here; compaction has its own writer). Under the appender lock it
    /// skips pages the index holds and repeats within `pages` (shared
    /// puts, exactly as a loop of single puts would count them), builds
    /// every new frame in the reusable frame buffer, rotates the segment
    /// at most once, and issues **one** `write_all`. A failed write is
    /// rewound to the last clean frame boundary and returns with file,
    /// index and counters untouched — the call is all-or-nothing. On
    /// success the new locations go in under one index write lock.
    ///
    /// Lock order: appender (50) → index (60), read then write.
    fn append<'p>(&self, pages: impl IntoIterator<Item = (Hash, &'p [u8])>) -> StoreResult<()> {
        let mut guard = self.appender.lock();
        let ap = &mut *guard;
        ap.frame_buf.clear();
        ap.fresh.clear();
        let (mut puts, mut logical, mut shared, mut shared_bytes) = (0u64, 0u64, 0u64, 0u64);
        {
            // Only appends and compaction write the index, both under the
            // appender lock we hold: this snapshot cannot go stale.
            let index = self.index.read();
            for (digest, page) in pages {
                let len = page.len() as u64;
                puts += 1;
                logical += len;
                if index.contains_key(&digest) || ap.fresh.contains_key(&digest) {
                    shared += 1;
                    shared_bytes += len;
                    continue;
                }
                let off = ap.frame_buf.len() as u64 + FRAME_HEADER;
                ap.frame_buf.push(FRAME_MAGIC);
                ap.frame_buf.extend_from_slice(&(page.len() as u32).to_le_bytes());
                ap.frame_buf.extend_from_slice(digest.as_bytes());
                ap.frame_buf.extend_from_slice(page);
                // `seg` and the segment base are known only after rotation.
                ap.fresh.insert(digest, PageLoc { seg: 0, off, len: page.len() as u32 });
            }
        }
        let written = ap.frame_buf.len() as u64;
        if written > 0 {
            if ap.end >= self.opts.max_segment_bytes && ap.end > 0 {
                self.rotate(ap).map_err(|e| StoreError::io("rotate", e))?;
            }
            if let Err(e) = ap.active.write_all(&ap.frame_buf) {
                // A short write may have left torn frames: rewind to the
                // last clean boundary so the failed call leaves no trace.
                let _ = ap.active.set_len(ap.end);
                return Err(StoreError::io("append", e));
            }
            let (seg, base) = (ap.active_id, ap.end);
            ap.end += written;
            let mut index = self.index.write();
            for (digest, loc) in ap.fresh.drain() {
                index.insert(digest, PageLoc { seg, off: base + loc.off, len: loc.len });
            }
        }
        let unique = puts - shared;
        drop(guard);
        // Counters move only on success: `puts`/`logical_bytes` tally
        // *accepted* writes (dedup hits included), never failed attempts.
        let stats = &self.stats;
        AtomicStoreStats::add(&stats.puts, puts);
        AtomicStoreStats::add(&stats.logical_bytes, logical);
        AtomicStoreStats::add(&stats.shared_puts, shared);
        AtomicStoreStats::add(&stats.shared_bytes, shared_bytes);
        AtomicStoreStats::add(&stats.unique_pages, unique);
        AtomicStoreStats::add(&stats.unique_bytes, logical - shared_bytes);
        if written > 0 {
            // Frame headers included: this is the disk traffic the write cost.
            AtomicStoreStats::add(&stats.bytes_written, written);
            AtomicStoreStats::add(&stats.appends, 1);
        }
        Ok(())
    }
}

impl NodeStore for FileStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        let digest = sha256(&page);
        self.append([(digest, page.as_ref())])?;
        Ok(digest)
    }

    /// One append for the whole batch; its digests are trusted.
    fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
        self.append(batch.pages().iter().map(|(digest, page)| (*digest, page.as_ref())))
    }

    /// Apply the [`FsyncPolicy`] after one logical commit. Engines call
    /// this once per acknowledged commit attempt, not per page. Successful
    /// returns are counted in [`StoreStats::commits`] (a commit whose
    /// flush fails was *not* acknowledged and is not counted; an engine
    /// retrying a lost optimistic race may ack more than once per
    /// published commit). The flushes land in [`StoreStats::fsyncs`] —
    /// under [`FsyncPolicy::Group`] the second counter stays below the
    /// first when writers overlap.
    fn note_commit(&self) -> StoreResult<()> {
        match self.opts.fsync {
            FsyncPolicy::Never => Ok(()),
            FsyncPolicy::OnCommit => self.sync(),
            FsyncPolicy::Group(window) => self.group_commit(window),
        }
        .map_err(|e| StoreError::io("fsync", e))?;
        AtomicStoreStats::add(&self.stats.commits, 1);
        Ok(())
    }

    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        AtomicStoreStats::add(&self.stats.gets, 1);
        // Two attempts: a concurrent compaction can swap the generation
        // between the index lookup and the read. The second attempt re-reads
        // the (then post-swap) index; in-flight reads on already-open
        // handles are unaffected by unlink.
        for attempt in 0..2 {
            let Some(loc) = self.index.read().get(hash).copied() else {
                return Ok(None);
            };
            let file = match self.reader(loc.seg) {
                Ok(f) => f,
                Err(_) if attempt == 0 => continue,
                Err(e) => return Err(StoreError::io("open segment", e)),
            };
            let mut buf = vec![0u8; loc.len as usize];
            match read_exact_at(&file, &mut buf, loc.off) {
                Ok(()) => {
                    AtomicStoreStats::add(&self.stats.hits, 1);
                    return Ok(Some(Bytes::from(buf)));
                }
                Err(_) if attempt == 0 => {
                    self.readers.write().remove(&loc.seg);
                    continue;
                }
                Err(e) => return Err(StoreError::io("read_at", e)),
            }
        }
        unreachable!("second attempt returns or errors")
    }

    fn contains(&self, hash: &Hash) -> bool {
        self.index.read().contains_key(hash)
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }
}

impl Reclaim for FileStore {
    /// Reclaim dead pages by rewriting the live ones into a fresh segment
    /// generation and atomically swapping the manifest. See the module docs
    /// for the crash matrix.
    fn sweep(&self, live: &PageSet) -> StoreResult<(u64, u64)> {
        self.sweep_with_crash(live, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("siri-filestore-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn small_segments(max: u64) -> FileStoreOptions {
        FileStoreOptions { max_segment_bytes: max, fsync: FsyncPolicy::Never }
    }

    #[test]
    fn put_get_round_trip_and_dedup() {
        let path = tmp("roundtrip");
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 0);
        let h1 = store.put(Bytes::from_static(b"page one"));
        let h2 = store.put(Bytes::from_static(b"page two"));
        let h1_again = store.put(Bytes::from_static(b"page one"));
        assert_eq!(h1, h1_again);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&h1).unwrap().as_ref(), b"page one");
        assert_eq!(store.get(&h2).unwrap().as_ref(), b"page two");
        assert!(store.get(&sha256(b"missing")).is_none());
    }

    #[test]
    fn survives_reopen() {
        let path = tmp("reopen");
        let h;
        {
            let (store, _) = FileStore::open(&path).unwrap();
            h = store.put(Bytes::from_static(b"durable page"));
            store.put(Bytes::from_static(b"another"));
            store.sync().unwrap();
        }
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 2);
        assert_eq!(store.get(&h).unwrap().as_ref(), b"durable page");
        // Dedup persists across restarts.
        let before = store.stats().unique_pages;
        store.put(Bytes::from_static(b"durable page"));
        assert_eq!(store.stats().unique_pages, before);
    }

    #[test]
    fn torn_tail_is_truncated_on_recovery() {
        let path = tmp("torn");
        {
            let (store, _) = FileStore::open(&path).unwrap();
            store.put(Bytes::from_static(b"good page"));
            store.sync().unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the tail of
        // the active segment.
        {
            let mut f = OpenOptions::new().append(true).open(seg_path(&path, 1)).unwrap();
            f.write_all(&[FRAME_MAGIC, 0xFF, 0x00]).unwrap();
        }
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 1, "good prefix kept, torn tail dropped");
        // The store still appends correctly after truncation.
        let h = store.put(Bytes::from_static(b"post-crash page"));
        assert_eq!(store.get(&h).unwrap().as_ref(), b"post-crash page");
        drop(store);
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 2);
        let _ = store;
    }

    #[test]
    fn failed_append_is_all_or_nothing() {
        let path = tmp("failed-append");
        let (store, _) =
            FileStore::open_with(&path, small_segments(DEFAULT_SEGMENT_BYTES)).unwrap();
        let acked = store.put(Bytes::from_static(b"acknowledged"));
        let seg = seg_path(&path, 1);
        let before = (store.len(), store.stats(), fs::metadata(&seg).unwrap().len());

        let mut batch = PageBatch::new();
        let fresh: Vec<Hash> = (0..5u8).map(|i| batch.push(Bytes::from(vec![i; 100]))).collect();
        batch.push_slice(b"acknowledged"); // a dedup hit riding in the failing call

        // A read-only handle on the same segment: the write fails (EBADF)
        // with no fault hook and no new option.
        let writable =
            std::mem::replace(&mut store.appender.lock().active, File::open(&seg).unwrap());
        assert!(store.try_put_batch(&batch).is_err());
        assert_eq!(
            (store.len(), store.stats(), fs::metadata(&seg).unwrap().len()),
            before,
            "a failed append moves neither index, counters nor file"
        );
        assert!(fresh.iter().all(|h| !store.contains(h)));

        store.appender.lock().active = writable;
        store.try_put_batch(&batch).unwrap();
        assert!(fresh.iter().all(|h| store.contains(h)));
        let after = store.stats();
        assert_eq!(after.appends, before.1.appends + 1);
        assert_eq!((after.puts, after.shared_puts), (before.1.puts + 6, before.1.shared_puts + 1));
        drop(store);

        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 1 + fresh.len(), "exactly the acknowledged pages");
        assert!(fresh.iter().chain([&acked]).all(|h| store.get(h).is_some()));
    }

    #[test]
    fn bit_rot_in_tail_stops_the_scan() {
        let path = tmp("bitrot");
        let h_good;
        {
            let (store, _) = FileStore::open(&path).unwrap();
            h_good = store.put(Bytes::from_static(b"first"));
            store.put(Bytes::from_static(b"second - will be corrupted"));
            store.sync().unwrap();
        }
        // Flip a payload byte in the second frame.
        {
            let seg = seg_path(&path, 1);
            let mut data = std::fs::read(&seg).unwrap();
            let n = data.len();
            data[n - 3] ^= 0x40;
            std::fs::write(&seg, data).unwrap();
        }
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 1, "corrupted frame must not be trusted");
        assert!(store.get(&h_good).is_some());
    }

    #[test]
    fn segments_rotate_and_recover() {
        let path = tmp("rotate");
        let pages: Vec<Bytes> = (0..40u32).map(|i| Bytes::from(vec![i as u8; 64])).collect();
        let hashes: Vec<Hash>;
        {
            let (store, _) = FileStore::open_with(&path, small_segments(256)).unwrap();
            hashes = pages.iter().map(|p| store.put(p.clone())).collect();
            assert!(store.segment_count() > 1, "small cap must force rotation");
            // Every page readable across segments, via positioned reads.
            for (h, p) in hashes.iter().zip(&pages) {
                assert_eq!(store.get(h).unwrap(), *p);
            }
        }
        let (store, recovered) = FileStore::open_with(&path, small_segments(256)).unwrap();
        assert_eq!(recovered, 40);
        for (h, p) in hashes.iter().zip(&pages) {
            assert_eq!(store.get(h).unwrap(), *p);
        }
    }

    #[test]
    fn sweep_compacts_disk_down_to_live_set() {
        let path = tmp("sweep");
        let (store, _) = FileStore::open_with(&path, small_segments(512)).unwrap();
        let mut live = PageSet::new();
        let mut keep = Vec::new();
        for i in 0..50u32 {
            let page = Bytes::from(vec![i as u8; 100]);
            let h = store.put(page);
            if i % 5 == 0 {
                live.insert(h, 100);
                keep.push(h);
            }
        }
        let before = store.disk_bytes();
        let (pages, bytes) = store.sweep(&live).unwrap();
        assert_eq!(pages, 40);
        assert_eq!(bytes, 40 * 100);
        assert!(store.disk_bytes() < before, "compaction must shrink the disk");
        assert_eq!(store.len(), 10);
        for h in &keep {
            assert_eq!(store.get(h).unwrap().len(), 100);
        }
        assert_eq!(store.stats().unique_pages, 10);
        // Post-compaction appends and reopen both work.
        let h_new = store.put(Bytes::from_static(b"after compaction"));
        drop(store);
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 11);
        assert!(store.get(&h_new).is_some());
        for h in &keep {
            assert!(store.get(h).is_some());
        }
    }

    #[test]
    fn sweep_without_garbage_is_a_no_op() {
        let path = tmp("noop-sweep");
        let (store, _) = FileStore::open(&path).unwrap();
        let h = store.put(Bytes::from_static(b"live"));
        let mut live = PageSet::new();
        live.insert(h, 4);
        let before = store.disk_bytes();
        assert_eq!(store.sweep(&live).unwrap(), (0, 0));
        assert_eq!(store.disk_bytes(), before, "no rewrite when nothing is dead");
    }

    #[test]
    fn an_index_runs_on_a_file_store() {
        // End-to-end: a real index persisted and reopened.
        let path = tmp("index");
        let root;
        {
            let (store, _) = FileStore::open(&path).unwrap();
            let shared: crate::SharedStore = std::sync::Arc::new(store);
            // Use raw pages to avoid a circular dev-dependency on the index
            // crates: simulate a two-level structure.
            let leaf = shared.put(Bytes::from_static(b"leaf payload"));
            let mut parent = Vec::new();
            parent.extend_from_slice(leaf.as_bytes());
            root = shared.put(Bytes::from(parent));
        }
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, 2);
        let page = store.get(&root).unwrap();
        let child = Hash::from_slice(&page[..32]).unwrap();
        assert_eq!(store.get(&child).unwrap().as_ref(), b"leaf payload");
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("commit"), Some(FsyncPolicy::OnCommit));
        assert_eq!(
            FsyncPolicy::parse("group=5"),
            Some(FsyncPolicy::Group(Duration::from_millis(5)))
        );
        assert_eq!(FsyncPolicy::parse("group=0"), Some(FsyncPolicy::Group(Duration::ZERO)));
        assert_eq!(FsyncPolicy::parse("group=ms"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn group_commit_acks_a_lone_committer() {
        // No concurrency: the committer leads its own tick and must not
        // deadlock waiting for company, with or without a wait window.
        for window in [Duration::ZERO, Duration::from_millis(1)] {
            let path = tmp(&format!("group-lone-{}", window.as_millis()));
            let opts = FileStoreOptions {
                max_segment_bytes: DEFAULT_SEGMENT_BYTES,
                fsync: FsyncPolicy::Group(window),
            };
            let (store, _) = FileStore::open_with(&path, opts).unwrap();
            store.put(Bytes::from_static(b"solo page"));
            store.note_commit().unwrap();
            let s = store.stats();
            assert_eq!(s.commits, 1);
            assert_eq!(s.fsyncs, 1, "a lone commit pays exactly one fsync");
        }
    }

    #[test]
    fn group_commit_shares_fsyncs_across_writers() {
        let path = tmp("group-shared");
        let opts = FileStoreOptions {
            max_segment_bytes: DEFAULT_SEGMENT_BYTES,
            fsync: FsyncPolicy::Group(Duration::from_millis(2)),
        };
        let (store, _) = FileStore::open_with(&path, opts).unwrap();
        let store = Arc::new(store);
        const WRITERS: u8 = 4;
        const COMMITS: u8 = 25;
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..COMMITS {
                        store.put(Bytes::from(vec![t, i, 0x77, 0x11]));
                        // Acked ⇒ durable: every return is a covered flush.
                        store.note_commit().unwrap();
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.commits, WRITERS as u64 * COMMITS as u64);
        assert!(
            stats.fsyncs < stats.commits,
            "group commit must batch: {} fsyncs for {} commits",
            stats.fsyncs,
            stats.commits
        );
        // Everything acked is on disk: reopen recovers every page.
        drop(store);
        let (store, recovered) = FileStore::open(&path).unwrap();
        assert_eq!(recovered, WRITERS as usize * COMMITS as usize);
        let _ = store;
    }
}
