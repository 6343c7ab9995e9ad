//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: an op span per client/engine/index call, and `store.*`
//! child spans from [`SpanStore`], a `NodeStore` wrapper the benchmark
//! hands to the engine. Nothing inside the program is instrumented.
//!
//! Spans stay in memory until the run ends; [`write_jsonl`] dumps them.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use siri::{Bytes, Hash, NodeStore, SharedStore, StoreResult, StoreStats};

/// `parent` of a span nothing caused.
pub const ROOT: u32 = u32::MAX;

/// Pages [`SpanStore`] keeps for the kernel measurements (real page-size
/// distribution of the workload, without holding every page).
const CAPTURE_PAGES: usize = 4096;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by the spans of one op on every rung: `round << 32 | index`.
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same sink, or [`ROOT`].
    pub parent: u32,
    /// Pages and bytes moved (store spans only).
    pub pages: u32,
    pub bytes: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct SinkInner {
    spans: Vec<Span>,
    /// Index of the open op span; store spans attach to it.
    current: u32,
    op_id: u64,
    captured: Vec<Bytes>,
}

/// One rung's span buffer. Shared between the executor (op spans) and the
/// rung's [`SpanStore`] (store spans).
pub struct SpanSink {
    pub rung: &'static str,
    epoch: Instant,
    recording: AtomicBool,
    inner: Mutex<SinkInner>,
}

impl SpanSink {
    /// `epoch` is one instant for the whole process, so spans of different
    /// rungs share a clock.
    pub fn new(rung: &'static str, epoch: Instant) -> Arc<Self> {
        Arc::new(SpanSink {
            rung,
            epoch,
            recording: AtomicBool::new(false),
            inner: Mutex::new(SinkInner { current: ROOT, ..SinkInner::default() }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SinkInner> {
        // Every update is a push or a field store, valid at each step.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans are dropped while this is off (set-up, warm-up, checks).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    fn is_recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    /// Open the op span every store span until [`SpanSink::end_op`] hangs
    /// under.
    pub fn begin_op(&self, name: &'static str, op_id: u64) {
        if !self.is_recording() {
            return;
        }
        let start = self.now();
        let mut g = self.lock();
        g.current = g.spans.len() as u32;
        g.op_id = op_id;
        g.spans.push(Span {
            name,
            op_id,
            start_ns: start,
            end_ns: start,
            parent: ROOT,
            pages: 0,
            bytes: 0,
        });
    }

    pub fn end_op(&self) {
        if !self.is_recording() {
            return;
        }
        let end = self.now();
        let mut g = self.lock();
        let cur = g.current as usize;
        if let Some(s) = g.spans.get_mut(cur) {
            s.end_ns = end;
        }
        g.current = ROOT;
    }

    fn child(&self, name: &'static str, start: u64, pages: u32, bytes: u64) {
        let end = self.now();
        let mut g = self.lock();
        let (parent, op_id) = (g.current, g.op_id);
        if parent == ROOT {
            return; // store traffic outside any op (e.g. a background read)
        }
        g.spans.push(Span { name, op_id, start_ns: start, end_ns: end, parent, pages, bytes });
    }

    fn capture(&self, page: &[u8]) {
        let mut g = self.lock();
        if g.captured.len() < CAPTURE_PAGES {
            g.captured.push(Bytes::copy_from_slice(page));
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    pub fn captured_pages(&self) -> Vec<Bytes> {
        self.lock().captured.clone()
    }
}

/// A benchmark-owned [`NodeStore`] that times every call into the store
/// it wraps. Transparent: same hashes, same pages, same counters.
pub struct SpanStore {
    inner: SharedStore,
    sink: Arc<SpanSink>,
}

impl SpanStore {
    pub fn wrap(inner: SharedStore, sink: Arc<SpanSink>) -> SharedStore {
        Arc::new(SpanStore { inner, sink })
    }
}

impl NodeStore for SpanStore {
    fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
        if !self.sink.is_recording() {
            return self.inner.try_put(page);
        }
        let len = page.len() as u64;
        self.sink.capture(&page);
        let start = self.sink.now();
        let out = self.inner.try_put(page);
        self.sink.child("store.put", start, 1, len);
        out
    }

    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        if !self.sink.is_recording() {
            return self.inner.try_get(hash);
        }
        let start = self.sink.now();
        let out = self.inner.try_get(hash);
        let len = out.as_ref().ok().and_then(|p| p.as_ref()).map_or(0, |p| p.len() as u64);
        self.sink.child("store.get", start, 1, len);
        out
    }

    fn try_put_raw(&self, page: &[u8]) -> StoreResult<Hash> {
        if !self.sink.is_recording() {
            return self.inner.try_put_raw(page);
        }
        self.sink.capture(page);
        let start = self.sink.now();
        let out = self.inner.try_put_raw(page);
        self.sink.child("store.put", start, 1, page.len() as u64);
        out
    }

    fn try_put_many(&self, pages: &[Bytes]) -> StoreResult<Vec<Hash>> {
        if !self.sink.is_recording() {
            return self.inner.try_put_many(pages);
        }
        for p in pages {
            self.sink.capture(p);
        }
        let bytes = pages.iter().map(|p| p.len() as u64).sum();
        let start = self.sink.now();
        let out = self.inner.try_put_many(pages);
        self.sink.child("store.put", start, pages.len() as u32, bytes);
        out
    }

    fn contains(&self, hash: &Hash) -> bool {
        self.inner.contains(hash)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children may overlap each other and stick out of the
/// parent; both are clipped).
pub fn self_time(parent: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in cuts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.dur() - covered
}

/// Per op span of `spans` (those with `parent == ROOT`): its index and the
/// indices of its children, in recording order.
pub fn group_by_op(spans: &[Span]) -> Vec<(usize, Vec<usize>)> {
    let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut slot = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            slot[i] = out.len();
            out.push((i, Vec::new()));
        } else if let Some(&k) = slot.get(s.parent as usize) {
            if k != usize::MAX {
                out[k].1.push(i);
            }
        }
    }
    out
}

/// One span per line: `{"rung","name","op_id","start_ns","end_ns","parent"}`,
/// store spans with `"pages"` and `"bytes"` as well.
pub fn write_jsonl(path: &std::path::Path, sinks: &[Arc<SpanSink>]) -> std::io::Result<usize> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for sink in sinks {
        for s in sink.spans() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            let moved = if s.pages == 0 {
                String::new()
            } else {
                format!(",\"pages\":{},\"bytes\":{}", s.pages, s.bytes)
            };
            writeln!(
                w,
                "{{\"rung\":\"{}\",\"name\":\"{}\",\"op_id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}{moved}}}",
                sink.rung, s.name, s.op_id, s.start_ns, s.end_ns
            )?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri::{Entry, MemStore, PosParams, PosTree, SiriIndex};

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span { name: "t", op_id: 1, start_ns: start, end_ns: end, parent, pages: 0, bytes: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span(100, 200, ROOT);
        assert_eq!(self_time(&p, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time(&p, &[&span(110, 120, 0), &span(150, 170, 0)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(&p, &[&span(110, 150, 0), &span(140, 160, 0)]), 50);
        // A child sticking out is clipped; one fully outside is ignored.
        assert_eq!(self_time(&p, &[&span(90, 110, 0), &span(190, 250, 0)]), 80);
        assert_eq!(self_time(&p, &[&span(10, 20, 0)]), 100);
        // Children covering everything leave nothing.
        assert_eq!(self_time(&p, &[&span(100, 160, 0), &span(160, 200, 0)]), 0);
    }

    #[test]
    fn store_spans_attach_to_the_open_op() {
        let sink = SpanSink::new("R3", Instant::now());
        let store = SpanStore::wrap(MemStore::new_shared(), sink.clone());
        store.try_put(Bytes::from_static(b"dropped: not recording")).unwrap();
        sink.set_recording(true);
        store.try_put(Bytes::from_static(b"dropped: no open op")).unwrap();
        sink.begin_op("index.commit", 7);
        let h = store.try_put(Bytes::from_static(b"page")).unwrap();
        store.try_get(&h).unwrap();
        sink.end_op();
        sink.begin_op("index.get", 8);
        store.try_get(&h).unwrap();
        sink.end_op();
        let spans = sink.spans();
        let groups = group_by_op(&spans);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].1.len(), 1);
        assert!(spans.iter().all(|s| s.op_id == 7 || s.op_id == 8));
        let op = &spans[groups[0].0];
        let kids: Vec<&Span> = groups[0].1.iter().map(|&i| &spans[i]).collect();
        assert!(self_time(op, &kids) <= op.dur());
        assert_eq!(kids[0].name, "store.put");
        assert_eq!(kids[0].bytes, 4);
        // Two pages seen while recording: the orphan put and the op's put.
        assert_eq!(sink.captured_pages().len(), 2);
    }

    #[test]
    fn span_store_is_transparent() {
        let entries: Vec<Entry> = (0..2_000u32)
            .map(|i| Entry::new(format!("key-{i:06}").into_bytes(), vec![i as u8; 100]))
            .collect();
        let plain_store = MemStore::new_shared();
        let mut plain = PosTree::new(plain_store.clone(), PosParams::default());
        plain.batch_insert(entries.clone()).unwrap();

        let sink = SpanSink::new("R3", Instant::now());
        sink.set_recording(true);
        let inner = MemStore::new_shared();
        let wrapped_store = SpanStore::wrap(inner.clone(), sink.clone());
        let mut wrapped = PosTree::new(wrapped_store.clone(), PosParams::default());
        sink.begin_op("index.commit", 1);
        wrapped.batch_insert(entries).unwrap();
        sink.end_op();

        assert_eq!(plain.root(), wrapped.root(), "same root digest with and without SpanStore");
        assert_eq!(plain_store.stats().unique_bytes, inner.stats().unique_bytes);
        assert_eq!(wrapped_store.stats(), inner.stats());
        assert_eq!(wrapped.get(b"key-000777").unwrap(), plain.get(b"key-000777").unwrap());
        let put_pages: u64 =
            sink.spans().iter().filter(|s| s.name == "store.put").map(|s| s.pages as u64).sum();
        assert_eq!(put_pages, inner.stats().puts);
    }
}
