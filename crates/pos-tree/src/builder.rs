//! Bottom-up tree construction: boundary detectors and the per-level
//! builder pipeline.
//!
//! Level 0 has a [`LeafBuilder`] holding the leaf page currently being
//! formed, every internal level a [`LevelBuilder`] holding the child
//! references of its node. When the boundary detector fires (or the
//! forced maximum is hit), the node is sealed, hashed into the commit's
//! [`PageBatch`], and its [`ChildRef`] cascades into the builder one level
//! up — the "bottom-up build order" whose batching advantage §5.2/§5.3.1
//! highlight.
//!
//! Builders also support *pass-through*: an untouched old node can be
//! re-used wholesale when every builder at its level and below is sitting
//! exactly on a node boundary. Because chunking state resets at node
//! starts, the chunker would provably reproduce the same node — this is
//! what makes incremental updates O(polylog) instead of O(N) while keeping
//! the tree Structurally Invariant.
//!
//! The same invariant carries down to entries: an unchanged entry of an old
//! leaf whose rolling windows are unchanged gets the old build's boundary
//! decision without being rolled ([`Kept`], DESIGN.md §8 *One chunker*).
//!
//! A [`LeafBuilder`] also runs on its own, so a key range of a commit can
//! seal and hash its leaves apart from the level builders and hand them
//! over later (`update.rs`, DESIGN.md §8 *Two-stage commit*).

use std::borrow::Cow;

use bytes::Bytes;
use siri_core::ordered::ChildRef;
use siri_core::{entry_codec, BatchOp, Entry, Result};
use siri_crypto::{Hash, RollingHash};
use siri_encoding::{ByteWriter, Scratch};
use siri_store::{PageBatch, SharedStore};

use crate::node;
use crate::params::{InternalChunking, PosParams, SplitPolicy};

/// Sliding-window boundary detector: rolls a buzhash window over the
/// node-local stream and fires when the low `bits` of the fingerprint are
/// all ones (the paper's example pattern), with probability 2^-bits per
/// byte.
struct Chunker {
    roller: RollingHash,
    mask: u64,
}

impl Chunker {
    fn new(params: &PosParams, bits: u32) -> Chunker {
        Chunker { roller: RollingHash::new(params.window), mask: (1u64 << bits) - 1 }
    }

    /// Roll `bytes`; true if a boundary fires at any byte of them. Only a
    /// warm window counts (see [`RollingHash::push_slice_fires`]).
    fn fires(&mut self, bytes: &[u8]) -> bool {
        self.roller.push_slice_fires(bytes, self.mask)
    }

    fn window(&self) -> usize {
        self.roller.window()
    }

    /// Roll `bytes` without testing them: they were decided already.
    fn prime(&mut self, bytes: &[u8]) {
        self.roller.push_slice(bytes);
    }

    fn reset(&mut self) {
        self.roller.reset();
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes the leaf chunkers of this thread rolled, priming included.
    pub(crate) static LEAF_BYTES_ROLLED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An entry of an old leaf fed unchanged, and what the leaf builder needs
/// to know whether the old build's boundary decision on it still holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kept {
    /// Encoded bytes of the same old leaf fed unchanged right before this
    /// entry, with nothing fed between them.
    run: usize,
    /// That run starts at the old leaf's first entry.
    from_first: bool,
    /// The old build's decision after this entry: `Some(false)` inside a
    /// leaf, `Some(true)` after the last entry of a leaf the builder
    /// closed. The old tree's last leaf was closed by end of stream: after
    /// its last entry, `Some(true)` if nothing follows it, since end of
    /// stream seals there again, and `None` otherwise.
    sealed: Option<bool>,
}

/// One old leaf merged with its edits in key order: the stream a leaf
/// update feeds, built as it is consumed. An edit comes out as a new
/// entry, an untouched old entry borrowed and with its [`Kept`].
pub(crate) struct LeafMerge<'a> {
    entries: &'a [Entry],
    /// Normalized: sorted and key-unique. Keys past the leaf's last entry
    /// come out after it.
    edits: &'a [BatchOp],
    /// Index of the next old entry.
    next: usize,
    run: usize,
    from_first: bool,
    /// The leaf is the old tree's last.
    rightmost: bool,
}

impl<'a> LeafMerge<'a> {
    pub fn new(entries: &'a [Entry], edits: &'a [BatchOp], rightmost: bool) -> Self {
        LeafMerge { entries, edits, next: 0, run: 0, from_first: true, rightmost }
    }
}

impl<'a> Iterator for LeafMerge<'a> {
    type Item = (Cow<'a, Entry>, Option<Kept>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let old = self.entries.get(self.next);
            let Some((op, rest)) =
                self.edits.split_first().filter(|(op, _)| old.is_none_or(|e| op.key <= e.key))
            else {
                let entry = old?;
                self.next += 1;
                let sealed = match self.next == self.entries.len() {
                    false => Some(false),
                    true => (!self.rightmost || self.edits.is_empty()).then_some(true),
                };
                let kept = Kept { run: self.run, from_first: self.from_first, sealed };
                self.run += entry_codec::entry_encoded_len(entry);
                return Some((Cow::Borrowed(entry), Some(kept)));
            };
            self.edits = rest;
            if old.is_some_and(|e| e.key == op.key) {
                self.next += 1;
            }
            // The run restarts at the next old entry.
            self.run = 0;
            self.from_first = self.next == 0;
            if let Some(value) = &op.value {
                let entry = Entry { key: op.key.clone(), value: value.clone() };
                return Some((Cow::Owned(entry), None));
            }
        }
    }
}

/// A leaf sealed by the chunker but not yet hashed: its encoded page plus
/// the max key its parent reference needs.
pub struct DeferredSeal {
    pub max_key: Bytes,
    pub page: Bytes,
}

impl DeferredSeal {
    /// Hash the page into the commit's batch.
    pub fn push_into(self, batch: &mut PageBatch) -> ChildRef {
        ChildRef { max_key: self.max_key, hash: batch.push(self.page) }
    }
}

/// Builds the leaves (level 0).
///
/// A leaf page is `header ‖ entry ‖ entry ‖ …`, and the entries' encoding
/// is exactly the byte stream the chunker rolls, so each entry is
/// serialized once, straight into the page under construction, and the
/// chunker reads it from there. The header holds the entry count and is
/// written last, right-aligned into a gap reserved in front of the entries.
pub struct LeafBuilder {
    salt: u64,
    chunker: Chunker,
    forced_max: Option<usize>,
    /// `LEAF_HEADER_MAX` bytes of gap, then the entries so far.
    page: ByteWriter,
    /// Page offset the chunker has rolled up to; the bytes after it took
    /// the old build's decision.
    rolled: usize,
    count: u64,
    /// Key of the last entry appended (entries arrive in key order).
    max_key: Bytes,
    /// Header scratch, reused across seals.
    header: ByteWriter,
}

impl LeafBuilder {
    pub fn new(salt: u64, params: &PosParams) -> Self {
        let mut page = ByteWriter::new();
        page.buf_mut().resize(node::LEAF_HEADER_MAX, 0);
        LeafBuilder {
            salt,
            chunker: Chunker::new(params, params.leaf_pattern_bits),
            forced_max: forced_max(params),
            page,
            rolled: node::LEAF_HEADER_MAX,
            count: 0,
            max_key: Bytes::new(),
            header: ByteWriter::new(),
        }
    }

    /// No node currently under construction.
    pub fn at_boundary(&self) -> bool {
        self.count == 0
    }

    /// Append one entry; returns the sealed leaf if a boundary fired.
    pub fn push(&mut self, entry: &Entry) -> Option<DeferredSeal> {
        self.feed(entry, None)
    }

    /// Append one entry, unchanged from an old leaf if `kept` says where it
    /// sat. Such an entry is rolled only as far as the old build's decision
    /// on it may not repeat (DESIGN.md §8 *One chunker*):
    ///
    /// * *no seal*: a window the chunker tests inside the entry that lies
    ///   in the entry and its unchanged predecessors in the old leaf was
    ///   tested by the old build too, and did not fire. Only the windows
    ///   that reach further back are rolled: none if the node holds
    ///   nothing else ahead of the entry, else those ending in its first
    ///   `window − 1 − run` bytes;
    /// * *a seal*: the chunker must also test every window the old build
    ///   tested, so the one that fired fires again. The node is the old leaf
    ///   from its first entry, or at least `window − 1` unchanged bytes of
    ///   that leaf precede the entry inside the node; otherwise the whole
    ///   entry rolls. A forced split may have sealed by size, so its seals
    ///   always roll.
    ///
    /// The size check of a forced split runs on every entry.
    pub(crate) fn feed(&mut self, entry: &Entry, kept: Option<Kept>) -> Option<DeferredSeal> {
        let start = self.page.len();
        entry_codec::write_entry(&mut self.page, entry);
        self.count += 1;
        self.max_key = entry.key.clone();
        let end = self.page.len();
        let ahead = start - node::LEAF_HEADER_MAX;
        let window = self.chunker.window();
        let fired = match kept {
            Some(Kept { run, sealed: Some(false), .. }) => {
                // A window ending past entry offset `window − 1 − run` stays
                // inside the run; every window does if the node holds
                // nothing ahead of the run.
                let reach = if ahead > run { (window - 1).saturating_sub(run) } else { 0 };
                reach > 0 && self.roll(start, end.min(start + reach))
            }
            Some(Kept { run, from_first, sealed: Some(true) })
                if self.forced_max.is_none()
                    && ((from_first && run == ahead) || run.min(ahead) + 1 >= window) =>
            {
                true
            }
            _ => self.roll(start, end),
        };
        let body = end - node::LEAF_HEADER_MAX;
        (fired || self.forced_max.is_some_and(|max| body >= max)).then(|| self.seal())
    }

    /// Roll the page bytes `start..end`, which lie in the entry appended
    /// last. If bytes before them were skipped, the chunker first catches
    /// up on the node's bytes it missed, at most its last `window − 1`:
    /// every window tested from `start` on ends there or later, so it
    /// reaches back no further.
    fn roll(&mut self, start: usize, end: usize) -> bool {
        let page = self.page.as_slice();
        if self.rolled < start {
            let tail = (start + 1).saturating_sub(self.chunker.window());
            let tail = tail.max(node::LEAF_HEADER_MAX);
            if tail > self.rolled {
                self.chunker.reset();
                self.rolled = tail;
            }
            self.chunker.prime(&page[self.rolled..start]);
        }
        #[cfg(test)]
        LEAF_BYTES_ROLLED.with(|n| n.set(n.get() + (end - self.rolled) as u64));
        self.rolled = end;
        self.chunker.fires(&page[start..end])
    }

    /// Seal the trailing leaf at end of stream, if any.
    pub fn finish(&mut self) -> Option<DeferredSeal> {
        (!self.at_boundary()).then(|| self.seal())
    }

    fn seal(&mut self) -> DeferredSeal {
        self.header.clear();
        node::write_leaf_header(&mut self.header, self.salt, self.count);
        let start = node::LEAF_HEADER_MAX - self.header.len();
        let buf = self.page.buf_mut();
        buf[start..node::LEAF_HEADER_MAX].copy_from_slice(self.header.as_slice());
        let page = Bytes::copy_from_slice(&buf[start..]);
        buf.truncate(node::LEAF_HEADER_MAX);
        self.count = 0;
        self.rolled = node::LEAF_HEADER_MAX;
        self.chunker.reset();
        DeferredSeal { max_key: std::mem::take(&mut self.max_key), page }
    }
}

fn forced_max(params: &PosParams) -> Option<usize> {
    match params.split_policy {
        SplitPolicy::Pattern => None,
        SplitPolicy::ForcedSplice { max_node_bytes } => Some(max_node_bytes),
    }
}

/// Content-defined boundary detector for an internal level.
enum Judge {
    /// Test the low bits of the child digest directly (§3.4.3's
    /// optimization for internal layers).
    HashBits { mask: u64 },
    /// Prolly style: roll `max_key ‖ digest` of every child reference.
    Window(Chunker),
}

/// Builds the nodes of one internal level (≥ 1).
pub struct LevelBuilder {
    level: u32,
    salt: u64,
    judge: Judge,
    children: Vec<ChildRef>,
    bytes_in_node: usize,
    forced_max: Option<usize>,
    /// Page encoding scratch, reused across seals.
    page_buf: Scratch,
}

impl LevelBuilder {
    pub fn new(level: u32, salt: u64, params: &PosParams) -> Self {
        debug_assert!(level > 0, "level 0 is built by LeafBuilder");
        let judge = match params.internal_chunking {
            InternalChunking::HashPattern => {
                Judge::HashBits { mask: (1u64 << params.internal_pattern_bits) - 1 }
            }
            InternalChunking::RollingWindow => {
                Judge::Window(Chunker::new(params, params.internal_pattern_bits))
            }
        };
        LevelBuilder {
            level,
            salt,
            judge,
            children: Vec::new(),
            bytes_in_node: 0,
            forced_max: forced_max(params),
            page_buf: Scratch::new(),
        }
    }

    /// No node currently under construction.
    pub fn at_boundary(&self) -> bool {
        self.children.is_empty()
    }

    pub fn pending(&self) -> &[ChildRef] {
        &self.children
    }

    /// Push one child reference; returns the sealed node's piece (its page
    /// added to `batch`) if a boundary fired.
    pub fn push(&mut self, piece: ChildRef, batch: &mut PageBatch) -> Option<ChildRef> {
        let fired = match &mut self.judge {
            Judge::HashBits { mask } => piece.hash.low64() & *mask == *mask,
            // `|`, not `||`: the digest is part of the stream whether or
            // not the key already fired.
            Judge::Window(chunker) => {
                chunker.fires(&piece.max_key) | chunker.fires(piece.hash.as_bytes())
            }
        };
        self.bytes_in_node += piece.max_key.len() + Hash::LEN;
        self.children.push(piece);
        (fired || self.forced_max.is_some_and(|max| self.bytes_in_node >= max))
            .then(|| self.seal(batch))
    }

    /// Seal the trailing node at end of stream, if any.
    pub fn finish(&mut self, batch: &mut PageBatch) -> Option<ChildRef> {
        (!self.at_boundary()).then(|| self.seal(batch))
    }

    fn seal(&mut self, batch: &mut PageBatch) -> ChildRef {
        self.bytes_in_node = 0;
        if let Judge::Window(chunker) = &mut self.judge {
            chunker.reset();
        }
        let last = self.children.last().expect("sealed nodes are non-empty");
        let max_key = last.max_key.clone();
        node::encode_internal(self.page_buf.start(), self.salt, self.level, &self.children);
        self.children.clear();
        let hash = batch.push_slice(self.page_buf.bytes());
        ChildRef { max_key, hash }
    }
}

/// The full builder pipeline — a [`LeafBuilder`] and one [`LevelBuilder`]
/// per internal level — with cascade and pass-through plumbing.
///
/// Every sealed page goes into the commit's [`PageBatch`]; the caller hands
/// the batch to the store after [`Builders::finalize`]. `store` is only the
/// spill target: a batch past [`siri_store::PAGE_BATCH_SPILL_BYTES`] is
/// handed over early, so a whole-dataset build never holds the whole tree.
pub struct Builders<'a> {
    store: &'a SharedStore,
    params: &'a PosParams,
    salt: u64,
    leaf: LeafBuilder,
    /// Internal levels: `upper[i]` builds level `i + 1`.
    upper: Vec<LevelBuilder>,
    batch: &'a mut PageBatch,
}

impl<'a> Builders<'a> {
    pub fn new(
        store: &'a SharedStore,
        params: &'a PosParams,
        salt: u64,
        batch: &'a mut PageBatch,
    ) -> Self {
        Builders {
            store,
            params,
            salt,
            leaf: LeafBuilder::new(salt, params),
            upper: Vec::new(),
            batch,
        }
    }

    /// Feed one entry into the leaf level. A leaf is hashed and cascaded
    /// the moment it seals.
    pub fn push_entry(&mut self, entry: &Entry) -> Result<()> {
        self.push(entry, None)
    }

    /// [`Builders::push_entry`] for an entry that may be an old leaf's,
    /// unchanged ([`LeafBuilder::feed`]).
    pub(crate) fn push(&mut self, entry: &Entry, kept: Option<Kept>) -> Result<()> {
        match self.leaf.feed(entry, kept) {
            Some(sealed) => self.push_leaf(sealed),
            None => Ok(()),
        }
    }

    /// Hash a sealed leaf into the batch, cascade its reference upward,
    /// then spill the batch if it has grown past the threshold.
    fn push_leaf(&mut self, sealed: DeferredSeal) -> Result<()> {
        let piece = sealed.push_into(self.batch);
        self.push_piece(1, piece)?;
        Ok(self.batch.spill_if_full(self.store)?)
    }

    /// Take over pages another builder already hashed — a leaf stage run
    /// apart — spilling if the batch has grown past the threshold.
    pub(crate) fn absorb(&mut self, pages: PageBatch) -> Result<()> {
        self.batch.append(pages);
        Ok(self.batch.spill_if_full(self.store)?)
    }

    /// Feed one child reference into internal `level` (≥ 1), cascading
    /// sealed nodes upward.
    pub fn push_piece(&mut self, level: u32, piece: ChildRef) -> Result<()> {
        let mut next = Some(piece);
        let mut slot = level as usize - 1;
        while let Some(piece) = next {
            while self.upper.len() <= slot {
                let level = self.upper.len() as u32 + 1;
                self.upper.push(LevelBuilder::new(level, self.salt, self.params));
            }
            next = self.upper[slot].push(piece, self.batch);
            slot += 1;
        }
        Ok(())
    }

    /// All builders at `level` and below sit exactly on node boundaries —
    /// the pass-through precondition.
    pub fn clean_below(&self, level: u32) -> bool {
        self.leaf.at_boundary()
            && self.upper.iter().take(level as usize).all(LevelBuilder::at_boundary)
    }

    /// Re-use an untouched old node of `level` wholesale. Caller must have
    /// checked [`Builders::clean_below`]`(level)`.
    pub fn pass_through(&mut self, level: u32, piece: ChildRef) -> Result<()> {
        debug_assert!(self.clean_below(level), "pass-through requires clean builders");
        self.push_piece(level + 1, piece)
    }

    /// Seal every trailing node bottom-up and collapse to the root piece.
    /// `None` means the tree is empty.
    ///
    /// Invariant exploited: whenever the *top* builder holds exactly one
    /// pending child reference once all lower levels are sealed, that child
    /// is the root — wrapping it would create a useless single-child chain
    /// (and break structural invariance, since chain length would depend on
    /// history).
    pub fn finalize(mut self) -> Result<Option<ChildRef>> {
        // Seal the trailing leaf so level 1 holds every leaf reference
        // before the upward sweep.
        if let Some(sealed) = self.leaf.finish() {
            self.push_leaf(sealed)?;
        }
        let mut slot = 0usize;
        while slot < self.upper.len() {
            let is_top = slot + 1 == self.upper.len();
            if is_top {
                if let [piece] = self.upper[slot].pending() {
                    return Ok(Some(piece.clone()));
                }
            }
            if let Some(piece) = self.upper[slot].finish(self.batch) {
                self.push_piece(slot as u32 + 2, piece)?;
            }
            slot += 1;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use siri_core::MemStore;

    fn entries(n: usize) -> Vec<Entry> {
        (0..n).map(|i| Entry::new(format!("key{i:06}").into_bytes(), vec![0xAB; 100])).collect()
    }

    fn build(store: &SharedStore, params: &PosParams, es: &[Entry]) -> Option<ChildRef> {
        let mut batch = PageBatch::new();
        let mut b = Builders::new(store, params, 0, &mut batch);
        for e in es {
            b.push_entry(e).unwrap();
        }
        let root = b.finalize().unwrap();
        store.try_put_batch(&batch).unwrap();
        root
    }

    #[test]
    fn empty_build_yields_none() {
        let store = MemStore::new_shared();
        assert!(build(&store, &PosParams::default(), &[]).is_none());
    }

    #[test]
    fn single_entry_yields_single_leaf_root() {
        let store = MemStore::new_shared();
        let es = entries(1);
        let piece = build(&store, &PosParams::default(), &es).unwrap();
        let node = Node::decode_zc(&store.get(&piece.hash).unwrap()).unwrap();
        assert!(matches!(node, Node::Leaf { .. }));
    }

    #[test]
    fn leaf_builder_page_is_the_node_codec_page() {
        // The builder writes entries first and the header last; the result
        // must be byte-for-byte what `Node::encode` produces, for one- and
        // multi-byte salt and count varints alike.
        // A 40-bit pattern never fires here: one leaf per run.
        let params = PosParams { leaf_pattern_bits: 40, ..PosParams::default() };
        for (salt, n) in [(0u64, 1usize), (0, 127), (0, 128), (7 << 20, 300), (u64::MAX, 3)] {
            let es: Vec<Entry> = (0..n)
                .map(|i| Entry::new(format!("k{i:04}").into_bytes(), vec![i as u8; i % 90]))
                .collect();
            let mut b = LeafBuilder::new(salt, &params);
            assert!(es.iter().all(|e| b.push(e).is_none()));
            let sealed = b.finish().unwrap();
            assert!(b.at_boundary());
            assert_eq!(sealed.max_key, es[n - 1].key);
            assert_eq!(
                sealed.page,
                Node::Leaf { salt, entries: es, page: Bytes::new() }.encode(),
                "salt {salt}, {n} entries"
            );
        }
    }

    /// The seam rule of the two-stage commit: an entry that a freshly reset
    /// leaf chunker fires on by itself ends a leaf after any history.
    #[test]
    fn an_entry_that_ends_a_fresh_leaf_ends_a_leaf_after_any_history() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut entry = |i: u64| {
            // Mostly under a leaf, sometimes past the forced maximum.
            let len = if next() % 10 == 0 { 2000 + next() % 1000 } else { next() % 700 };
            let value: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            Entry::new(format!("k{i:08}").into_bytes(), value)
        };
        for params in [PosParams::default(), PosParams::noms(), PosParams::forced_split()] {
            let mut free = 0;
            for i in 0..300 {
                let e = entry(i);
                if LeafBuilder::new(0, &params).push(&e).is_none() {
                    continue;
                }
                free += 1;
                for h in 0..8 {
                    let mut b = LeafBuilder::new(0, &params);
                    for j in 0..(i + h) % 13 {
                        b.push(&entry(1_000 + j));
                    }
                    assert!(b.push(&e).is_some(), "{params:?}: entry {i}, history {h}");
                }
            }
            assert!(free > 0, "{params:?}: no entry fired alone");
        }
    }

    /// The entry pass-through against its oracle, which rolls every entry:
    /// old leaves built by the leaf builder, random edits merged in leaf by
    /// leaf as an update walk feeds them. Both must seal byte-identical
    /// pages after the same entries.
    #[test]
    fn kept_entries_seal_what_rolling_every_entry_seals() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Old keys are multiples of 10 from 10, so 5 and `10·i + 5` insert
        // before the first entry and after entry `i`.
        let key = |id: u64| Bytes::from(format!("k{id:08}").into_bytes());
        let value = |next: &mut dyn FnMut() -> u64| -> Bytes {
            let len = match next() % 4 {
                0 => next() % 20,
                1 | 2 => 20 + next() % 180,
                _ => 200 + next() % 300,
            };
            (0..len).map(|_| next() as u8).collect::<Vec<u8>>().into()
        };
        let (mut rolled_by_feed, mut rolled_by_oracle) = (0, 0);
        // 128-byte leaves put many tested windows near a seam: one
        // misjudged window shows within a few trials.
        let small = PosParams { leaf_pattern_bits: 7, ..PosParams::default() };
        for base in [PosParams::default(), PosParams::noms(), PosParams::forced_split(), small] {
            for window in [1, 2, 64, 67, 128] {
                let params = PosParams { window, ..base };
                for trial in 0..24 {
                    let n = 1 + next() % 160;
                    let old: Vec<Entry> = (1..=n)
                        .map(|i| Entry { key: key(10 * i), value: value(&mut next) })
                        .collect();
                    // The old leaves, and whether end of stream closed the last.
                    let mut leaves: Vec<&[Entry]> = Vec::new();
                    let mut b = LeafBuilder::new(0, &params);
                    let mut start = 0;
                    for (i, e) in old.iter().enumerate() {
                        if b.push(e).is_some() {
                            leaves.push(&old[start..=i]);
                            start = i + 1;
                        }
                    }
                    let open_end = b.finish().is_some();
                    if open_end {
                        leaves.push(&old[start..]);
                    }
                    // Edits hit leaf ends and starts more often than the middle.
                    let ends: Vec<u64> = leaves
                        .iter()
                        .flat_map(|l| [&l[0].key, &l[l.len() - 1].key])
                        .map(|k| std::str::from_utf8(&k[1..]).unwrap().parse().unwrap())
                        .collect();
                    let mut ops: Vec<BatchOp> = Vec::new();
                    if next() % 4 == 0 {
                        ops.push(BatchOp { key: key(5), value: Some(value(&mut next)) });
                    }
                    let mut deleting = 0;
                    for i in 1..=n {
                        let odds = if ends.contains(&(10 * i)) { 3 } else { 12 };
                        if deleting > 0 {
                            deleting -= 1;
                            ops.push(BatchOp { key: key(10 * i), value: None });
                        } else if next() % odds == 0 {
                            match next() % 4 {
                                0 => {
                                    ops.push(BatchOp { key: key(10 * i), value: None });
                                    deleting = next() % 4;
                                }
                                1 => {
                                    let v = Some(value(&mut next));
                                    ops.push(BatchOp { key: key(10 * i), value: v });
                                }
                                _ => {
                                    let v = Some(value(&mut next));
                                    ops.push(BatchOp { key: key(10 * i + 5), value: v });
                                }
                            }
                        }
                    }
                    // Off the rightmost spine, a leaf the pattern closed
                    // stays closed by it.
                    let rightmost = open_end || next() % 2 == 0;

                    LEAF_BYTES_ROLLED.with(|c| c.set(0));
                    let mut oracle = LeafBuilder::new(0, &params);
                    let mut want = Vec::new();
                    for e in siri_core::apply_ops(&old, &ops) {
                        want.extend(oracle.push(&e).map(|s| (s.max_key, s.page)));
                    }
                    want.extend(oracle.finish().map(|s| (s.max_key, s.page)));
                    rolled_by_oracle += LEAF_BYTES_ROLLED.with(|c| c.replace(0));

                    // Each leaf takes the edits up to its last key; the last
                    // leaf takes the rest, as the update walk splits them.
                    let mut feed = LeafBuilder::new(0, &params);
                    let mut got = Vec::new();
                    let mut rest = &ops[..];
                    for (j, leaf) in leaves.iter().enumerate() {
                        let last = j + 1 == leaves.len();
                        let max = &leaf[leaf.len() - 1].key;
                        let split = if last {
                            rest.len()
                        } else {
                            rest.partition_point(|op| op.key <= *max)
                        };
                        let (mine, later) = rest.split_at(split);
                        rest = later;
                        for (entry, kept) in LeafMerge::new(leaf, mine, rightmost && last) {
                            got.extend(feed.feed(&entry, kept).map(|s| (s.max_key, s.page)));
                        }
                    }
                    got.extend(feed.finish().map(|s| (s.max_key, s.page)));
                    rolled_by_feed += LEAF_BYTES_ROLLED.with(|c| c.replace(0));
                    assert_eq!(got, want, "{params:?}, trial {trial}");
                }
            }
        }
        assert!(
            rolled_by_feed * 2 < rolled_by_oracle,
            "the feed rolled {rolled_by_feed} of the oracle's {rolled_by_oracle} bytes"
        );
    }

    #[test]
    fn large_build_produces_multiple_levels_with_expected_node_sizes() {
        let store = MemStore::new_shared();
        let es = entries(4000); // ~430 KB of payload, ~1 KB target nodes
        let root = build(&store, &PosParams::default(), &es).unwrap();
        let root_node = Node::decode_zc(&store.get(&root.hash).unwrap()).unwrap();
        assert!(matches!(root_node, Node::Internal { .. }));

        // Expected leaf size 2^10 = 1024 bytes; check the average is within
        // a loose band (probabilistic balance, §3.4.3).
        let stats = store.stats();
        let avg_page = stats.unique_bytes as f64 / stats.unique_pages as f64;
        assert!(
            avg_page > 300.0 && avg_page < 4000.0,
            "average page size {avg_page} outside sanity band"
        );
    }

    #[test]
    fn builds_are_deterministic() {
        let s1 = MemStore::new_shared();
        let s2 = MemStore::new_shared();
        let es = entries(2000);
        let r1 = build(&s1, &PosParams::default(), &es).unwrap();
        let r2 = build(&s2, &PosParams::default(), &es).unwrap();
        assert_eq!(r1.hash, r2.hash);
    }

    #[test]
    fn forced_split_caps_node_size() {
        let store = MemStore::new_shared();
        let params = PosParams::forced_split();
        let es = entries(500);
        let root = build(&store, &params, &es).unwrap();
        // Walk all leaves; none may exceed max_node_bytes by more than one
        // entry's worth.
        let SplitPolicy::ForcedSplice { max_node_bytes } = params.split_policy else {
            unreachable!()
        };
        let mut stack = vec![root.hash];
        while let Some(h) = stack.pop() {
            let page = store.get(&h).unwrap();
            match Node::decode_zc(&page).unwrap() {
                Node::Internal { children, .. } => stack.extend(children.iter().map(|c| c.hash())),
                Node::Leaf { entries, .. } => {
                    let bytes: usize =
                        entries.iter().map(siri_core::entry_codec::entry_encoded_len).sum();
                    assert!(bytes <= max_node_bytes + 200, "leaf overflow: {bytes}");
                }
            }
        }
    }

    #[test]
    fn rolling_window_internal_chunking_also_builds() {
        let store = MemStore::new_shared();
        let es = entries(3000);
        let root = build(&store, &PosParams::noms(), &es).unwrap();
        let node = Node::decode_zc(&store.get(&root.hash).unwrap()).unwrap();
        assert!(matches!(node, Node::Internal { .. }));
    }
}
