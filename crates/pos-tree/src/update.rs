//! Tree construction and incremental copy-on-write commits.
//!
//! Two update paths, both consuming normalized [`BatchOp`]s (puts *and*
//! deletes):
//!
//! * [`streaming_update`] — the sound POS-Tree algorithm. The old tree is
//!   walked in key order; untouched nodes *pass through* wholesale whenever
//!   every builder at their level and below sits on a node boundary, and
//!   are re-chunked item-by-item otherwise (the resync staircase around
//!   each edit cluster). Because boundary decisions reset at node starts,
//!   the result is bit-identical to a from-scratch build of the merged
//!   content — Structurally Invariant, at O(edit-clusters × fanout ×
//!   height) cost instead of O(N). This mirrors §3.4.3's insert: "starts
//!   the boundary detection from the first byte of the leaf node, and stops
//!   when detecting an existing boundary". Inside a leaf, the walk feeds
//!   the old entries and the edits as one merge, and an unchanged entry
//!   whose rolling windows are unchanged keeps the old build's decision
//!   without being rolled (`LeafMerge`, `LeafBuilder::feed`). Deletion
//!   needs no extra machinery: the removed entry's bytes simply never feed
//!   the chunker, so the boundary pattern re-synchronizes across the
//!   removed entry's old node boundary exactly as it does for an overwrite
//!   — and delete-then-reinsert reproduces the original chunks
//!   bit-for-bit.
//!
//! * [`splice_update`] — the §5.5.1 ablation. Edits are applied leaf-
//!   locally and nodes are re-chunked only within their old extent, so
//!   boundaries never migrate across old node ends. Cheap, but the
//!   structure now depends on insertion history — deliberately non-SI.
//!
//! A streaming update and a first build run in two stages (DESIGN.md §8,
//! *Two-stage commit*). The **leaf stage** runs once per key range: it
//! loads, applies edits, rolls, encodes and hashes leaves — range 0 on the
//! calling thread, every later range on a scoped worker with its own
//! [`LeafBuilder`] and [`PageBatch`]. The **level stage** builds the internal
//! levels in key order on the calling thread: range 0 feeds the
//! [`Builders`] directly as it walks, and each later range's output —
//! `(level, ChildRef)` tokens for the leaves it sealed and the untouched
//! old nodes it skipped — is replayed after it. Ranges meet only right
//! after an untouched entry that ends a leaf under any history, so each
//! range starts exactly where the one sequential walk would be: the pages,
//! and so the digests, do not depend on how many ranges there were.

use std::num::NonZeroUsize;
use std::thread;

use bytes::Bytes;
use siri_core::ordered::{Child, ChildRef, OrderedNode};
use siri_core::{apply_ops, BatchOp, Entry, IndexError, PageReader, Result};
use siri_crypto::Hash;
use siri_store::{PageBatch, SharedStore};

use crate::builder::{Builders, DeferredSeal, Kept, LeafBuilder, LeafMerge, LevelBuilder};
use crate::node::Node;
use crate::params::PosParams;

/// The fewest edits — or, for a first build, entries — worth a key range
/// of their own. On a 2-vCPU x86-64 VM a worker's spawn and join cost about
/// 27 µs, and a one-range wiki commit about 9 µs per edit, half of it leaf
/// work. A commit with fewer than twice this many is never planned, and
/// never asks how many CPUs it has.
const MIN_EDITS_PER_RANGE: usize = 64;

/// Build a tree from scratch out of sorted unique entries, staging its
/// pages into `pages`.
pub(crate) fn build_from_entries(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    entries: &[Entry],
    pages: &mut PageBatch,
) -> Result<Option<ChildRef>> {
    build(reader, params, salt, entries, workers_for(entries.len()), pages)
}

/// Streaming update: walk the old tree, replaying content through the
/// builder pipeline with pass-through. `edits` must be normalized (sorted,
/// key-unique); deletes drop entries from the replay stream.
pub(crate) fn streaming_update(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    root: Hash,
    edits: &[BatchOp],
    pages: &mut PageBatch,
) -> Result<Option<ChildRef>> {
    update(reader, params, salt, root, edits, workers_for(edits.len()), pages)
}

/// How many key ranges a commit of `work` edits may use: the CPUs this
/// thread may run on, or 1 for a commit too small to split.
fn workers_for(work: usize) -> usize {
    if work < 2 * MIN_EDITS_PER_RANGE {
        return 1;
    }
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// [`build_from_entries`] over at most `workers` key ranges.
fn build(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    entries: &[Entry],
    workers: usize,
    pages: &mut PageBatch,
) -> Result<Option<ChildRef>> {
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for cut in entry_cuts(params, salt, entries, workers)? {
        ranges.push(Source::Entries(&entries[start..cut]));
        start = cut;
    }
    ranges.push(Source::Entries(&entries[start..]));
    two_stage(reader, params, salt, &ranges, pages)
}

/// [`streaming_update`] over at most `workers` key ranges.
fn update(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    root: Hash,
    edits: &[BatchOp],
    workers: usize,
    pages: &mut PageBatch,
) -> Result<Option<ChildRef>> {
    if root.is_zero() {
        return build(reader, params, salt, &apply_ops(&[], edits), workers, pages);
    }
    let root_node = reader.load(&root)?;
    if edits.is_empty() {
        let max_key = root_node.max_key().ok_or(IndexError::CorruptStructure("empty root"))?;
        return Ok(Some(ChildRef { max_key, hash: root }));
    }
    let cuts = tree_cuts(reader, params, salt, &root_node, edits, workers)?;
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let (mut lo, mut rest) = (None, edits);
    for cut in &cuts {
        let (mine, later) = rest.split_at(rest.partition_point(|e| e.key <= *cut));
        let clip = Clip { lo, hi: Some(cut.as_ref()) };
        ranges.push(Source::Tree { root: &root_node, edits: mine, clip });
        (lo, rest) = (Some(cut.as_ref()), later);
    }
    ranges.push(Source::Tree { root: &root_node, edits: rest, clip: Clip { lo, hi: None } });
    two_stage(reader, params, salt, &ranges, pages)
}

/// Run `ranges` through both stages, staging the commit's pages — every
/// later range's batch appended in key order — into `pages`.
fn two_stage(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    ranges: &[Source<'_>],
    pages: &mut PageBatch,
) -> Result<Option<ChildRef>> {
    let [first, later @ ..] = ranges else { return Ok(None) };
    let mut builders = Builders::new(reader.store(), params, salt, pages);
    let root = thread::scope(|scope| {
        let last = |i: usize| i + 1 == later.len();
        let workers: Vec<_> = later
            .iter()
            .enumerate()
            .map(|(i, range)| {
                thread::Builder::new()
                    .spawn_scoped(scope, move || leaf_stage(reader, params, salt, range, last(i)))
                    .ok()
            })
            .collect();
        let mut built = first.feed(reader, &mut builders);
        for (i, (range, worker)) in later.iter().zip(workers).enumerate() {
            // Join every worker, even after a failure: none may outlive
            // the commit, and a panic must become an error, not unwind.
            let staged = match worker {
                Some(handle) => handle
                    .join()
                    .unwrap_or(Err(IndexError::CorruptStructure("leaf-stage worker panicked"))),
                // No thread to be had: the range is built here instead.
                None => leaf_stage(reader, params, salt, range, last(i)),
            };
            built = built.and_then(|()| replay(reader, &mut builders, staged?));
        }
        built?;
        builders.finalize()
    })?;
    Ok(root)
}

/// One key range of a commit's leaf work.
enum Source<'a> {
    /// A first build: a run of the sorted entries.
    Entries(&'a [Entry]),
    /// An update: the old tree's keys inside `clip`, and the edits among
    /// them.
    Tree { root: &'a Node, edits: &'a [BatchOp], clip: Clip<'a> },
}

impl Source<'_> {
    /// Feed the range into `sink` in key order.
    fn feed<S: Sink>(&self, reader: &PageReader<Node>, sink: &mut S) -> Result<()> {
        match self {
            Source::Entries(entries) => entries.iter().try_for_each(|e| sink.push(e, None)),
            Source::Tree { root, edits, clip } => walk(reader, sink, root, edits, true, *clip),
        }
    }
}

/// The cuts a node straddles: its keys `<= lo` belong to earlier ranges and
/// its keys `> hi` to later ones. A node with neither is whole inside the
/// range.
#[derive(Clone, Copy, Default)]
struct Clip<'a> {
    lo: Option<&'a [u8]>,
    hi: Option<&'a [u8]>,
}

impl<'a> Clip<'a> {
    fn is_whole(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// The cuts a child with keys in `(before, max]` still straddles, or
    /// `None` when the range holds none of its keys.
    fn child(&self, before: Option<&[u8]>, max: &[u8]) -> Option<Clip<'a>> {
        if self.lo.is_some_and(|lo| max <= lo) || self.hi.zip(before).is_some_and(|(hi, b)| b >= hi)
        {
            return None;
        }
        Some(Clip {
            lo: self.lo.filter(|&lo| before.is_none_or(|b| b < lo)),
            hi: self.hi.filter(|&hi| max > hi),
        })
    }
}

/// Where a leaf-stage walk sends what it produces.
trait Sink {
    /// Feed one entry, unchanged from an old leaf if `kept` says where it
    /// sat.
    fn push(&mut self, entry: &Entry, kept: Option<Kept>) -> Result<()>;

    /// Take an untouched, pattern-closed old node of `level` whole if the
    /// pipeline sits on a boundary that allows it; `false` means the walk
    /// must descend into the node.
    fn take_whole(&mut self, level: u32, piece: Child<'_>) -> Result<bool>;
}

/// Range 0 and the level stage: straight into the level builders. A node
/// passes through when every builder at its level and below is on a
/// boundary.
impl Sink for Builders<'_> {
    fn push(&mut self, entry: &Entry, kept: Option<Kept>) -> Result<()> {
        Builders::push(self, entry, kept)
    }

    fn take_whole(&mut self, level: u32, piece: Child<'_>) -> Result<bool> {
        if !self.clean_below(level) {
            return Ok(false);
        }
        self.pass_through(level, piece.to_ref())?;
        Ok(true)
    }
}

/// A later range's leaf stage: its own leaf builder and batch, and the
/// tokens the level stage replays — every leaf it seals, and every
/// untouched old node it meets while its leaf builder is on a boundary.
/// It cannot see the level builders, so it takes a node whole at the
/// highest level the walk offers and leaves the rest to the replay.
struct RangeSink<'a> {
    store: &'a SharedStore,
    leaf: LeafBuilder,
    pages: PageBatch,
    tokens: Vec<(u32, ChildRef)>,
}

impl Sink for RangeSink<'_> {
    fn push(&mut self, entry: &Entry, kept: Option<Kept>) -> Result<()> {
        match self.leaf.feed(entry, kept) {
            Some(sealed) => self.push_leaf(sealed),
            None => Ok(()),
        }
    }

    fn take_whole(&mut self, level: u32, piece: Child<'_>) -> Result<bool> {
        if !self.leaf.at_boundary() {
            return Ok(false);
        }
        self.tokens.push((level, piece.to_ref()));
        Ok(true)
    }
}

impl RangeSink<'_> {
    /// Hash a sealed leaf and emit its token, keeping key order.
    fn push_leaf(&mut self, sealed: DeferredSeal) -> Result<()> {
        self.tokens.push((0, sealed.push_into(&mut self.pages)));
        Ok(self.pages.spill_if_full(self.store)?)
    }
}

/// Run a later range's leaf stage on its own. A range that another follows
/// was cut right after a history-free entry, so it must end on a leaf
/// boundary; the last range seals its trailing leaf.
fn leaf_stage<'a>(
    reader: &'a PageReader<Node>,
    params: &PosParams,
    salt: u64,
    range: &Source<'_>,
    last: bool,
) -> Result<RangeSink<'a>> {
    let mut sink = RangeSink {
        store: reader.store(),
        leaf: LeafBuilder::new(salt, params),
        pages: PageBatch::new(),
        tokens: Vec::new(),
    };
    range.feed(reader, &mut sink)?;
    if last {
        if let Some(sealed) = sink.leaf.finish() {
            sink.push_leaf(sealed)?;
        }
    } else if !sink.leaf.at_boundary() {
        return Err(IndexError::CorruptStructure("range seam off a leaf boundary"));
    }
    Ok(sink)
}

/// The level stage's share of a later range: take over its pages, then
/// replay its tokens in key order, each like an untouched child of the
/// walk: a sealed leaf enters level 1, and an old node passes through or is
/// expanded to its children.
fn replay(
    reader: &PageReader<Node>,
    builders: &mut Builders<'_>,
    staged: RangeSink<'_>,
) -> Result<()> {
    if !builders.clean_below(0) {
        return Err(IndexError::CorruptStructure("range seam off a leaf boundary"));
    }
    builders.absorb(staged.pages)?;
    for (level, piece) in &staged.tokens {
        if !builders.take_whole(*level, piece.as_child())? {
            expand(reader, builders, *level, &piece.hash)?;
        }
    }
    Ok(())
}

/// Offer the children of a replayed old node of `level` to the builders,
/// expanding those that cannot pass whole. Expansion never feeds an entry:
/// the range emitted the node on a leaf boundary, and nothing in the replay
/// moves the leaf builder off it, so every leaf passes whole. Walking one
/// would be wrong, not only slow: a range's trailing leaf was closed by
/// end of stream, and its old decisions do not hold.
fn expand(
    reader: &PageReader<Node>,
    builders: &mut Builders<'_>,
    level: u32,
    hash: &Hash,
) -> Result<()> {
    let child_level =
        level.checked_sub(1).ok_or(IndexError::CorruptStructure("replay reached a leaf"))?;
    let node = reader.load(hash)?;
    if node.level() != level {
        return Err(IndexError::CorruptStructure("level mismatch"));
    }
    for piece in node.children().iter() {
        if !builders.take_whole(child_level, piece)? {
            expand(reader, builders, child_level, &piece.hash())?;
        }
    }
    Ok(())
}

/// Feed one old subtree of `level` through its children: load it, check
/// its level, and walk it.
fn descend<S: Sink>(
    reader: &PageReader<Node>,
    sink: &mut S,
    level: u32,
    hash: &Hash,
    edits: &[BatchOp],
    rightmost: bool,
    clip: Clip<'_>,
) -> Result<()> {
    let node = reader.load(hash)?;
    if node.level() != level {
        return Err(IndexError::CorruptStructure("level mismatch"));
    }
    walk(reader, sink, &node, edits, rightmost, clip)
}

/// Feed a loaded old node's content — within `clip` — and its pending
/// edits into `sink`.
fn walk<S: Sink>(
    reader: &PageReader<Node>,
    sink: &mut S,
    node: &Node,
    edits: &[BatchOp],
    rightmost: bool,
    clip: Clip<'_>,
) -> Result<()> {
    match node {
        Node::Leaf { entries, .. } => {
            // Cuts fall on boundaries of nodes at or above the leaves.
            if !clip.is_whole() {
                return Err(IndexError::CorruptStructure("range cut inside a leaf"));
            }
            for (entry, kept) in LeafMerge::new(entries, edits, rightmost) {
                sink.push(&entry, kept)?;
            }
            Ok(())
        }
        Node::Internal { children, level, .. } => {
            let child_level =
                level.checked_sub(1).ok_or(IndexError::CorruptStructure("level mismatch"))?;
            let mut rest = edits;
            let mut before = None;
            for (slot, piece) in children.iter().enumerate() {
                let inner = if clip.is_whole() {
                    clip
                } else {
                    let max = piece.key();
                    match clip.child(before.replace(max), max) {
                        Some(inner) => inner,
                        None => continue,
                    }
                };
                let last = slot + 1 == children.len();
                let split = if last {
                    rest.len() // clamp beyond-max edits into the last child
                } else {
                    rest.partition_point(|e| e.key.as_ref() <= piece.key())
                };
                let (mine, remaining) = rest.split_at(split);
                rest = remaining;
                // Whole when nothing in it changes, the range holds all of
                // it, it is off the rightmost spine and the sink allows it.
                // Rightmost-spine nodes were closed by end-of-stream rather
                // than by the pattern, so re-feeding their content would
                // *not* reproduce a boundary at their end.
                let child_rightmost = rightmost && last;
                if mine.is_empty()
                    && !child_rightmost
                    && inner.is_whole()
                    && sink.take_whole(child_level, piece)?
                {
                    continue;
                }
                descend(reader, sink, child_level, &piece.hash(), mine, child_rightmost, inner)?;
            }
            debug_assert!(rest.is_empty());
            Ok(())
        }
    }
}

/// `entry` ends a leaf in every stream that holds it: a freshly reset leaf
/// chunker fires on its bytes alone. Every position where that chunker
/// fires has its rolling window inside the entry and warm, so any history
/// before the entry fires there too (DESIGN.md §8, *Two-stage commit*).
fn history_free(params: &PosParams, salt: u64, entry: &Entry) -> bool {
    LeafBuilder::new(salt, params).push(entry).is_some()
}

/// Cut a first build's entries into at most `workers` runs; returns where
/// each run after the first starts. A run may start only right after a
/// history-free entry, searched for near the point that balances counts.
fn entry_cuts(
    params: &PosParams,
    salt: u64,
    entries: &[Entry],
    workers: usize,
) -> Result<Vec<usize>> {
    let n = entries.len();
    if workers < 2 || n < 2 * MIN_EDITS_PER_RANGE {
        return Ok(Vec::new());
    }
    let mut cuts = Vec::new();
    for r in 1..workers {
        // Checking an entry is a chunker roll, so the search reaches far.
        let seam = |at: usize| Ok(at > 0 && history_free(params, salt, &entries[at - 1]));
        cuts.extend(nearest(n * r / workers, MIN_EDITS_PER_RANGE / 2, n, seam)?);
    }
    Ok(keep_full(cuts, n, |at| at))
}

/// Cut an update into at most `workers` key ranges; returns each cut's key
/// — the last key of the range before it — in ascending order. Empty means
/// one range.
///
/// Cuts fall between the nodes of the *run*: the highest level with at
/// least `4 · workers` nodes. Each is placed to balance edit counts, then
/// moved to the nearest run-node boundary, within 4 nodes, where a seam is
/// sound: the entry before it is untouched and history-free, and the
/// lowest node holding both sides is one the sequential walk descends into
/// anyway — touched, or on the rightmost spine — never one it might pass
/// through whole.
fn tree_cuts(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    root: &Node,
    edits: &[BatchOp],
    workers: usize,
) -> Result<Vec<Bytes>> {
    let top = root.level();
    if workers < 2 || edits.len() < 2 * MIN_EDITS_PER_RANGE || top == 0 {
        return Ok(Vec::new());
    }
    // Every level from the root's children down to the run, each node with
    // the index of its parent one level up.
    let mut levels: Vec<Vec<(ChildRef, usize)>> =
        vec![root.children().iter().map(|c| (c.to_ref(), 0)).collect()];
    while levels[levels.len() - 1].len() < 4 * workers {
        let level = top - levels.len() as u32;
        if level == 0 {
            return Ok(Vec::new()); // too few leaves
        }
        let mut below = Vec::new();
        for (parent, (piece, _)) in levels[levels.len() - 1].iter().enumerate() {
            let node = reader.load(&piece.hash)?;
            if node.level() != level {
                return Err(IndexError::CorruptStructure("level mismatch"));
            }
            below.extend(node.children().iter().map(|c| (c.to_ref(), parent)));
        }
        levels.push(below);
    }
    let run_level = top - levels.len() as u32;
    let run = &levels[levels.len() - 1];
    let upto = |key: &Bytes| edits.partition_point(|e| e.key <= *key);
    // Whether a range may end right after run node `j`.
    let seam_after = |j: usize| -> Result<bool> {
        let piece = &run[j].0;
        if edits.binary_search_by(|e| e.key.cmp(&piece.max_key)).is_ok() {
            return Ok(false);
        }
        let (mut a, mut b, mut d) = (j, j + 1, levels.len() - 1);
        while levels[d][a].1 != levels[d][b].1 {
            (a, b, d) = (levels[d][a].1, levels[d][b].1, d - 1);
        }
        if d > 0 {
            // The common parent, one level up; depth 0's parent is the root.
            let (parents, p) = (&levels[d - 1], levels[d][a].1);
            let touched = upto(&parents[p].0.max_key)
                > p.checked_sub(1).map_or(0, |q| upto(&parents[q].0.max_key));
            if !touched && p + 1 < parents.len() {
                return Ok(false);
            }
        }
        let mut node = reader.load(&piece.hash)?;
        for _ in 0..run_level {
            let Some(child) = node.children().iter().next_back() else { return Ok(false) };
            node = reader.load(&child.hash())?;
        }
        Ok(match node.entries().and_then(|es| es.last()) {
            Some(e) => e.key == piece.max_key && history_free(params, salt, e),
            None => false,
        })
    };
    let mut cuts = Vec::new();
    for r in 1..workers {
        let target = edits.len() * r / workers;
        let ideal = run.partition_point(|(p, _)| upto(&p.max_key) < target);
        cuts.extend(nearest(ideal, 4, run.len() - 1, seam_after)?);
    }
    let kept = keep_full(cuts, edits.len(), |j| upto(&run[j].0.max_key));
    Ok(kept.into_iter().map(|j| run[j].0.max_key.clone()).collect())
}

/// The position below `end` and within `reach` of `ideal`, nearest first
/// and left before right, that `ok` accepts.
fn nearest(
    ideal: usize,
    reach: usize,
    end: usize,
    mut ok: impl FnMut(usize) -> Result<bool>,
) -> Result<Option<usize>> {
    for i in 0..=2 * reach {
        let step = i.div_ceil(2);
        let at = if i % 2 == 1 { ideal.checked_sub(step) } else { Some(ideal + step) };
        if let Some(at) = at.filter(|&at| at < end) {
            if ok(at)? {
                return Ok(Some(at));
            }
        }
    }
    Ok(None)
}

/// The cuts, ascending and deduplicated, that leave every range at least
/// [`MIN_EDITS_PER_RANGE`] of the `total` items; `before(cut)` counts the
/// items ahead of a cut.
fn keep_full(mut cuts: Vec<usize>, total: usize, before: impl Fn(usize) -> usize) -> Vec<usize> {
    cuts.sort_unstable();
    let mut kept = Vec::new();
    let mut done = 0;
    for cut in cuts {
        let n = before(cut);
        if n >= done + MIN_EDITS_PER_RANGE && total >= n + MIN_EDITS_PER_RANGE {
            kept.push(cut);
            done = n;
        }
    }
    kept
}

/// §5.5.1 splice update: rebuild only within old node extents.
pub(crate) fn splice_update(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    root: Hash,
    edits: &[BatchOp],
    pages: &mut PageBatch,
) -> Result<Option<ChildRef>> {
    if root.is_zero() {
        return build_from_entries(reader, params, salt, &apply_ops(&[], edits), pages);
    }
    if edits.is_empty() {
        let node = reader.load(&root)?;
        let max_key = node.max_key().ok_or(IndexError::CorruptStructure("empty root"))?;
        return Ok(Some(ChildRef { max_key, hash: root }));
    }
    let root_node = reader.load(&root)?;
    let mut pieces = splice_rec(reader, params, salt, &root_node, edits, pages)?;
    // If the root burst into several pieces, grow extra levels locally.
    let mut level = root_node.level();
    while pieces.len() > 1 {
        level += 1;
        pieces = chunk_pieces(params, salt, level, pieces, pages);
    }
    Ok(pieces.pop())
}

fn splice_rec(
    reader: &PageReader<Node>,
    params: &PosParams,
    salt: u64,
    node: &Node,
    edits: &[BatchOp],
    batch: &mut PageBatch,
) -> Result<Vec<ChildRef>> {
    match node {
        Node::Leaf { entries, .. } => {
            // A splice may have closed any old leaf by end of stream at the
            // end of its extent, so each counts as the old tree's last.
            let mut b = LeafBuilder::new(salt, params);
            let mut out = Vec::new();
            for (entry, kept) in LeafMerge::new(entries, edits, true) {
                if let Some(sealed) = b.feed(&entry, kept) {
                    out.push(sealed.push_into(batch));
                }
            }
            if let Some(sealed) = b.finish() {
                out.push(sealed.push_into(batch));
            }
            batch.spill_if_full(reader.store())?;
            Ok(out)
        }
        Node::Internal { children, level, .. } => {
            let mut rest = edits;
            let mut new_children: Vec<ChildRef> = Vec::with_capacity(children.len() + 2);
            for (slot, piece) in children.iter().enumerate() {
                let last = slot + 1 == children.len();
                let split = if last {
                    rest.len()
                } else {
                    rest.partition_point(|e| e.key.as_ref() <= piece.key())
                };
                let (mine, remaining) = rest.split_at(split);
                rest = remaining;
                if mine.is_empty() {
                    new_children.push(piece.to_ref());
                } else {
                    let child = reader.load(&piece.hash())?;
                    new_children.extend(splice_rec(reader, params, salt, &child, mine, batch)?);
                }
            }
            Ok(chunk_pieces(params, salt, *level, new_children, batch))
        }
    }
}

/// Chunk a list of pieces into internal nodes of `level` with a local
/// builder (splice semantics: no spill beyond this list).
fn chunk_pieces(
    params: &PosParams,
    salt: u64,
    level: u32,
    pieces: Vec<ChildRef>,
    batch: &mut PageBatch,
) -> Vec<ChildRef> {
    let mut b = LevelBuilder::new(level, salt, params);
    let mut out: Vec<ChildRef> = pieces.into_iter().filter_map(|p| b.push(p, batch)).collect();
    out.extend(b.finish(batch));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use siri_core::MemStore;

    fn reader(store: &SharedStore) -> PageReader<Node> {
        PageReader::new(store.clone(), 0)
    }

    /// Run `stage` on a fresh batch, then store the batch in one append if
    /// it succeeded — what `SiriIndex::commit` does around a stage.
    fn land<T>(
        reader: &PageReader<Node>,
        stage: impl FnOnce(&mut PageBatch) -> Result<T>,
    ) -> Result<T> {
        let mut pages = PageBatch::new();
        let staged = stage(&mut pages)?;
        reader.store().try_put_batch(&pages)?;
        Ok(staged)
    }

    // The functions under test, each landing its own batch: these shadow
    // the staging versions in this module and in `ranges` below.

    fn build_from_entries(
        r: &PageReader<Node>,
        params: &PosParams,
        salt: u64,
        entries: &[Entry],
    ) -> Result<Option<ChildRef>> {
        land(r, |pages| super::build_from_entries(r, params, salt, entries, pages))
    }

    fn streaming_update(
        r: &PageReader<Node>,
        params: &PosParams,
        salt: u64,
        root: Hash,
        edits: &[BatchOp],
    ) -> Result<Option<ChildRef>> {
        land(r, |pages| super::streaming_update(r, params, salt, root, edits, pages))
    }

    fn splice_update(
        r: &PageReader<Node>,
        params: &PosParams,
        salt: u64,
        root: Hash,
        edits: &[BatchOp],
    ) -> Result<Option<ChildRef>> {
        land(r, |pages| super::splice_update(r, params, salt, root, edits, pages))
    }

    fn build(
        r: &PageReader<Node>,
        params: &PosParams,
        salt: u64,
        entries: &[Entry],
        workers: usize,
    ) -> Result<Option<ChildRef>> {
        land(r, |pages| super::build(r, params, salt, entries, workers, pages))
    }

    fn update(
        r: &PageReader<Node>,
        params: &PosParams,
        salt: u64,
        root: Hash,
        edits: &[BatchOp],
        workers: usize,
    ) -> Result<Option<ChildRef>> {
        land(r, |pages| super::update(r, params, salt, root, edits, workers, pages))
    }

    fn build_on(store: &SharedStore, params: &PosParams, es: &[Entry]) -> Option<ChildRef> {
        build_from_entries(&reader(store), params, 0, es).unwrap()
    }

    fn entries(range: std::ops::Range<usize>) -> Vec<Entry> {
        range
            .map(|i| Entry::new(format!("key{i:06}").into_bytes(), vec![(i % 251) as u8; 120]))
            .collect()
    }

    /// Same keys, different payloads — real overwrites, not no-ops.
    fn edits(range: std::ops::Range<usize>) -> Vec<Entry> {
        range.map(|i| Entry::new(format!("key{i:06}").into_bytes(), vec![0xEE; 90])).collect()
    }

    /// Entries → normalized put ops.
    fn puts(entries: &[Entry]) -> Vec<BatchOp> {
        entries
            .iter()
            .map(|e| BatchOp { key: e.key.clone(), value: Some(e.value.clone()) })
            .collect()
    }

    /// Keys → normalized delete ops.
    fn dels(range: std::ops::Range<usize>) -> Vec<BatchOp> {
        range
            .map(|i| BatchOp { key: format!("key{i:06}").into_bytes().into(), value: None })
            .collect()
    }

    /// A pseudo-random value: a constant byte run has one window
    /// fingerprint, so it would almost never end a leaf by itself.
    fn value(id: u64, version: u64, len: usize) -> Vec<u8> {
        let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version.rotate_left(32) ^ 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    fn key(id: u64) -> Bytes {
        Bytes::from(format!("key{id:06}").into_bytes())
    }

    /// Sorted entries for `ids`, values `len / 2 .. len + len / 2`
    /// bytes long.
    fn model(ids: impl IntoIterator<Item = u64>, version: u64, len: usize) -> Vec<Entry> {
        let mut ids: Vec<u64> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let len_of = |id: u64| len / 2 + (id.wrapping_mul(0x2545_F491) as usize) % len.max(1);
        ids.into_iter().map(|id| Entry::new(key(id), value(id, version, len_of(id)))).collect()
    }

    /// One overwrite in the middle of a tree rolls the edited entry, the
    /// entry after it and at most `window − 1` priming bytes, whatever the
    /// leaf size: every other entry keeps the old build's decision. An
    /// append still rolls the old last leaf's last entry, which end of
    /// stream closed.
    #[test]
    fn an_edit_rolls_only_the_windows_it_touches() {
        use crate::builder::LEAF_BYTES_ROLLED;
        use siri_core::entry_codec::entry_encoded_len;
        let base = model(0..4000, 0, 160);
        for node_bytes in [512, 1024, 4096] {
            let params = PosParams::default().with_node_bytes(node_bytes);
            let store = MemStore::new_shared();
            let r = reader(&store);
            let root = build(&r, &params, 0, &base, 1).unwrap().unwrap().hash;
            let rolled_by = |edits: &[BatchOp]| {
                LEAF_BYTES_ROLLED.with(|n| n.set(0));
                let got = update(&r, &params, 0, root, edits, 1).unwrap();
                let rolled = LEAF_BYTES_ROLLED.with(|n| n.get()) as usize;
                let fresh = build(&r, &params, 0, &apply_ops(&base, edits), 1).unwrap();
                assert_eq!(got, fresh, "{node_bytes} B leaves");
                rolled
            };
            for id in [1000, 1999, 2000, 2001, 3333] {
                let edit = model([id], 1, 160);
                let after = &base[id as usize + 1];
                let most =
                    entry_encoded_len(&edit[0]) + entry_encoded_len(after) + params.window - 1;
                let rolled = rolled_by(&puts(&edit));
                assert!(
                    rolled <= most,
                    "{node_bytes} B leaves, key {id}: rolled {rolled} > {most}"
                );
            }
            let appended = model([4000], 1, 160);
            let least = entry_encoded_len(&base[3999]) + entry_encoded_len(&appended[0]);
            let rolled = rolled_by(&puts(&appended));
            assert!(
                (least..least + params.window).contains(&rolled),
                "{node_bytes} B leaves, append: rolled {rolled}, the last two entries are {least}"
            );
        }
    }

    /// A replay offers old nodes on a leaf boundary, so every leaf under
    /// them passes whole. Were the leaf builder off its boundary, walking a
    /// leaf would misjudge a range's trailing leaf, which end of stream
    /// closed: the expansion refuses instead.
    #[test]
    fn a_replay_never_walks_a_leaf() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let r = reader(&store);
        let root = build(&r, &params, 0, &model(0..3000, 0, 240), 1).unwrap().unwrap().hash;
        let level = r.load(&root).unwrap().level();
        assert!(level > 0);
        let mut pages = PageBatch::new();
        let mut builders = Builders::new(&store, &params, 0, &mut pages);
        // Shorter than a window, so it cannot end a leaf.
        builders.push_entry(&Entry::new(b"a".to_vec(), b"b".to_vec())).unwrap();
        let refused = Err(IndexError::CorruptStructure("replay reached a leaf"));
        assert_eq!(expand(&r, &mut builders, level, &root), refused);
    }

    #[test]
    fn streaming_update_equals_fresh_build() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let base = entries(0..3000);
        let root = build_on(&store, &params, &base).unwrap();

        // Three very different edit shapes: point overwrite, cluster
        // overwrite, appended tail — each with changed payloads.
        for edit_range in [100..101, 1500..1540, 3000..3100] {
            let delta = puts(&edits(edit_range.clone()));
            let updated =
                streaming_update(&reader(&store), &params, 0, root.hash, &delta).unwrap().unwrap();
            let merged = apply_ops(&base, &delta);
            let fresh = build_on(&store, &params, &merged).unwrap();
            assert_ne!(updated.hash, root.hash, "edits must change the digest");
            assert_eq!(
                updated.hash, fresh.hash,
                "structural invariance broken for edits {edit_range:?}"
            );
        }
    }

    #[test]
    fn chained_updates_remain_invariant() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let mut root = build_on(&store, &params, &entries(0..1000)).unwrap().hash;
        let mut all = entries(0..1000);
        for step in 0..5 {
            let delta = puts(&edits(step * 400..step * 400 + 37));
            root =
                streaming_update(&reader(&store), &params, 0, root, &delta).unwrap().unwrap().hash;
            all = apply_ops(&all, &delta);
        }
        let fresh = build_on(&store, &params, &all).unwrap();
        assert_eq!(root, fresh.hash);
    }

    #[test]
    fn update_touches_few_pages() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let base = entries(0..20_000);
        let root = build_on(&store, &params, &base).unwrap();
        let puts_before = store.stats().puts;
        let delta = puts(&edits(7000..7001));
        streaming_update(&reader(&store), &params, 0, root.hash, &delta).unwrap();
        let puts = store.stats().puts - puts_before;
        // One edit must rewrite O(resync-window × height) pages, far fewer
        // than the ~2400 pages of the whole tree.
        assert!(puts < 200, "point update wrote {puts} pages");
    }

    #[test]
    fn update_into_empty_tree_builds() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let piece =
            streaming_update(&reader(&store), &params, 0, Hash::ZERO, &puts(&entries(0..10)))
                .unwrap()
                .unwrap();
        assert_eq!(piece.max_key.as_ref(), b"key000009");
    }

    #[test]
    fn empty_edit_batch_is_identity() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let root = build_on(&store, &params, &entries(0..500)).unwrap();
        let same = streaming_update(&reader(&store), &params, 0, root.hash, &[]).unwrap().unwrap();
        assert_eq!(same.hash, root.hash);
    }

    #[test]
    fn streaming_delete_re_chunks_to_the_fresh_build() {
        let store = MemStore::new_shared();
        let params = PosParams::default();
        let base = entries(0..3000);
        let root = build_on(&store, &params, &base).unwrap();

        // Delete shapes: a point, a cluster spanning node boundaries, the
        // tail, and a no-op (absent keys).
        for del_range in [100..101, 1500..1560, 2900..3000, 5000..5010] {
            let delta = dels(del_range.clone());
            let updated = streaming_update(&reader(&store), &params, 0, root.hash, &delta).unwrap();
            let remaining = apply_ops(&base, &delta);
            let fresh = build_on(&store, &params, &remaining);
            assert_eq!(
                updated.map(|p| p.hash),
                fresh.map(|p| p.hash),
                "delete re-chunking broken for {del_range:?}"
            );
        }

        // Deleting everything collapses to the empty tree.
        let all_deleted =
            streaming_update(&reader(&store), &params, 0, root.hash, &dels(0..3000)).unwrap();
        assert!(all_deleted.is_none());
    }

    #[test]
    fn splice_update_is_correct_but_order_dependent() {
        let store = MemStore::new_shared();
        let params = PosParams::forced_split();
        let base = entries(0..800);
        let root = build_on(&store, &params, &base).unwrap();

        // Content correctness: updated tree contains the merged entries.
        let delta = puts(&edits(100..140));
        let updated =
            splice_update(&reader(&store), &params, 0, root.hash, &delta).unwrap().unwrap();
        let merged = apply_ops(&base, &delta);
        let fresh = build_on(&store, &params, &merged).unwrap();
        // Order dependence: incremental generally ≠ fresh for forced splits.
        // (Not guaranteed for every dataset, but engineered to hold here:
        // forced boundaries dominate with these parameters.)
        assert_ne!(updated.hash, fresh.hash, "ablation must break structural invariance");
    }

    /// Forced key ranges: the two-stage commit on any host, whatever its
    /// CPU count.
    mod ranges {
        use std::sync::Mutex;

        use proptest::prelude::*;
        use siri_store::{FileStore, NodeStore, StoreResult, StoreStats};

        use super::*;

        /// Records every page a commit hands over, repeats included.
        struct Recorder {
            inner: MemStore,
            pages: Mutex<Vec<Hash>>,
        }

        impl Recorder {
            fn shared() -> (SharedStore, std::sync::Arc<Recorder>) {
                let rec = std::sync::Arc::new(Recorder {
                    inner: MemStore::new(),
                    pages: Mutex::new(Vec::new()),
                });
                (rec.clone(), rec)
            }

            /// The page multiset written since the last call.
            fn take(&self) -> Vec<Hash> {
                let mut pages = std::mem::take(&mut *self.pages.lock().unwrap());
                pages.sort_unstable();
                pages
            }
        }

        impl NodeStore for Recorder {
            fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
                let hash = self.inner.try_put(page)?;
                self.pages.lock().unwrap().push(hash);
                Ok(hash)
            }
            fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
                self.inner.try_get(hash)
            }
            fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
                self.inner.try_put_batch(batch)?;
                self.pages.lock().unwrap().extend(batch.pages().iter().map(|(h, _)| *h));
                Ok(())
            }
            fn contains(&self, hash: &Hash) -> bool {
                self.inner.contains(hash)
            }
            fn stats(&self) -> StoreStats {
                self.inner.stats()
            }
        }

        /// What the fault store does when a walk reaches its target page.
        #[derive(Clone, Copy)]
        enum Fault {
            Missing,
            Panic,
            /// Answer with this other page instead.
            Swap(Hash),
        }

        struct Faulty {
            inner: MemStore,
            fault: Mutex<Option<(Hash, Fault)>>,
        }

        impl NodeStore for Faulty {
            fn try_put(&self, page: Bytes) -> StoreResult<Hash> {
                self.inner.try_put(page)
            }
            fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
                let fault = *self.fault.lock().unwrap();
                match fault {
                    Some((at, Fault::Missing)) if at == *hash => Ok(None),
                    Some((at, Fault::Panic)) if at == *hash => panic!("injected store panic"),
                    Some((at, Fault::Swap(other))) if at == *hash => self.inner.try_get(&other),
                    _ => self.inner.try_get(hash),
                }
            }
            fn try_put_batch(&self, batch: &PageBatch) -> StoreResult<()> {
                self.inner.try_put_batch(batch)
            }
            fn contains(&self, hash: &Hash) -> bool {
                self.inner.contains(hash)
            }
            fn stats(&self) -> StoreStats {
                self.inner.stats()
            }
        }

        /// 3,000 entries of ≈ 120–360 B and 400 scattered edits: enough
        /// for every forced worker count to cut.
        fn wide_commit() -> (Vec<Entry>, Vec<BatchOp>) {
            let base = model(0..3000, 0, 240);
            let edits = puts(&model((0..400).map(|i| i * 7 + 3), 1, 240));
            (base, edits)
        }

        #[test]
        fn the_planner_cuts_only_at_sound_seams() {
            let store = MemStore::new_shared();
            let params = PosParams::default();
            let (base, edits) = wide_commit();
            let root = build_on(&store, &params, &base).unwrap();
            let root_node = reader(&store).load(&root.hash).unwrap();
            for workers in [2, 3, 8] {
                let cuts =
                    tree_cuts(&reader(&store), &params, 0, &root_node, &edits, workers).unwrap();
                assert!(!cuts.is_empty() && cuts.len() < workers, "{workers} workers: {cuts:?}");
                let mut ahead = 0;
                for cut in &cuts {
                    let e = base.iter().find(|e| e.key == *cut).expect("a cut is an old key");
                    assert!(history_free(&params, 0, e), "cut {cut:?} is not history-free");
                    assert!(edits.iter().all(|op| op.key != *cut), "cut {cut:?} is edited");
                    let n = edits.partition_point(|op| op.key <= *cut);
                    assert!(n - ahead >= MIN_EDITS_PER_RANGE, "a range below the minimum");
                    ahead = n;
                }
                assert!(edits.len() - ahead >= MIN_EDITS_PER_RANGE);
                let first = entry_cuts(&params, 0, &base, workers).unwrap();
                assert!(!first.is_empty() && first.len() < workers, "first build: {first:?}");
                assert!(first.iter().all(|&at| history_free(&params, 0, &base[at - 1])));
            }
            // Too few edits, or one worker: no planning at all.
            let few = &edits[..2 * MIN_EDITS_PER_RANGE - 1];
            assert!(tree_cuts(&reader(&store), &params, 0, &root_node, few, 8).unwrap().is_empty());
            assert!(tree_cuts(&reader(&store), &params, 0, &root_node, &edits, 1)
                .unwrap()
                .is_empty());
            assert_eq!(workers_for(few.len()), 1);
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

            /// Every forced worker count lands on the fresh build of the
            /// model and writes exactly the pages one range writes: no
            /// seam writes an orphan.
            #[test]
            fn forced_ranges_equal_the_fresh_build_and_one_range(
                shape in 0usize..6,
                base_n in 0u64..2500,
                spread in 0u64..4000,
                count in 0usize..700,
                len in 16usize..400,
            ) {
                let base_n = if shape == 5 { 0 } else { base_n };
                let base = model(0..base_n, 0, len);
                let count = count as u64;
                let edits: Vec<BatchOp> = match shape {
                    // scattered overwrites and inserts, or an empty start
                    0 | 5 => puts(&model((0..count).map(|i| i * 7919 % (base_n + spread + 1)), 1, len)),
                    // two clusters: a cut placed between them must not
                    // split an untouched node the one walk passes whole
                    1 => {
                        let (a, b) = (spread % (base_n + 1), spread * 7 % (base_n + 1));
                        let ids = (0..count / 2).map(|i| a + i).chain((count / 2..count).map(|i| b + i));
                        puts(&model(ids, 1, len))
                    }
                    // an appended tail
                    2 => puts(&model((0..count).map(|i| base_n + i), 1, len)),
                    // scattered deletes
                    3 => {
                        let ids = model((0..count).map(|i| i * 7919 % (base_n + 1)), 0, 0);
                        ids.iter().map(|e| BatchOp { key: e.key.clone(), value: None }).collect()
                    }
                    // delete everything
                    _ => base.iter().map(|e| BatchOp { key: e.key.clone(), value: None }).collect(),
                };
                let expected = apply_ops(&base, &edits);
                // The handle splices `forced_split()` commits; its streaming
                // update is structurally invariant all the same. `copy_all`
                // rebuilds every commit from the entries under a new salt.
                for (params, copy_all) in [
                    (PosParams::default(), false),
                    (PosParams::noms(), false),
                    (PosParams::forced_split(), false),
                    (PosParams::default(), true),
                ] {
                    let salt = if copy_all { (9 << 20) + 1 } else { 0 };
                    let (store, rec) = Recorder::shared();
                    let r = reader(&store);
                    let fresh = build(&r, &params, salt, &expected, 1).unwrap().map(|p| p.hash);
                    let root =
                        build(&r, &params, 0, &base, 1).unwrap().map_or(Hash::ZERO, |p| p.hash);
                    rec.take();
                    let mut one_range = Vec::new();
                    for workers in [1, 2, 3, 8] {
                        let got = if copy_all {
                            build(&r, &params, salt, &expected, workers)
                        } else {
                            update(&r, &params, salt, root, &edits, workers)
                        };
                        let got = got.unwrap().map(|p| p.hash);
                        prop_assert_eq!(got, fresh, "{:?}, {} workers: root", params, workers);
                        let pages = rec.take();
                        if workers == 1 {
                            one_range = pages;
                        } else {
                            prop_assert_eq!(&pages, &one_range, "{:?}, {} workers", params, workers);
                        }
                    }
                }
            }
        }

        /// Two clusters of edits, the first ending exactly where a level-1
        /// node ends: the balancing cut falls between them, and the
        /// nearest history-free boundaries lie inside the next, untouched
        /// level-1 node. The one walk may pass that node whole, so a cut
        /// inside it would re-seal it — an extra page, the same root.
        #[test]
        fn a_cut_never_splits_an_untouched_node() {
            let params = PosParams::default();
            let base = model(0..3000, 0, 240);
            let (store, rec) = Recorder::shared();
            let r = reader(&store);
            let root = build(&r, &params, 0, &base, 1).unwrap().unwrap().hash;
            let root_node = r.load(&root).unwrap();
            assert_eq!(root_node.level(), 2, "a three-level tree");
            let level1: Vec<Bytes> =
                root_node.children().iter().map(|c| c.to_ref().max_key).collect();
            // Fewer than 4 · workers level-1 nodes: the cuts fall between
            // leaves, one level below the nodes they must not split.
            let workers = level1.len() / 4 + 1;
            let id = |k: &Bytes| std::str::from_utf8(&k[3..]).unwrap().parse::<u64>().unwrap();
            let mut split = 0;
            for node in root_node.children().iter().take(level1.len() - 2) {
                // The cluster ends one leaf before the node does, so the
                // re-chunking can settle inside it.
                let leaves: Vec<ChildRef> =
                    r.load(&node.hash()).unwrap().children().iter().map(|c| c.to_ref()).collect();
                let end = id(&leaves[leaves.len().saturating_sub(2)].max_key);
                if end < 150 {
                    continue;
                }
                let ids = (end - 149..=end).chain(end + 800..end + 950);
                let edits = puts(&model(ids, 1, 240));
                split += usize::from(
                    !tree_cuts(&r, &params, 0, &root_node, &edits, workers).unwrap().is_empty(),
                );
                rec.take();
                let one = update(&r, &params, 0, root, &edits, 1).unwrap();
                let one_range = rec.take();
                assert_eq!(update(&r, &params, 0, root, &edits, workers).unwrap(), one);
                assert_eq!(rec.take(), one_range, "cluster ending at {end}");
            }
            assert!(split > 0, "no commit split");
        }

        #[test]
        fn a_forced_multi_range_commit_is_one_append_on_the_file_store() {
            let dir = std::env::temp_dir()
                .join("siri-pos-tree-ranges")
                .join(format!("one-append-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let fs = std::sync::Arc::new(FileStore::open(&dir).unwrap().0);
            let store: SharedStore = fs.clone();
            let params = PosParams::default();
            let (base, edits) = wide_commit();
            let root = build_on(&store, &params, &base).unwrap();
            let root_node = reader(&store).load(&root.hash).unwrap();
            assert!(!tree_cuts(&reader(&store), &params, 0, &root_node, &edits, 2)
                .unwrap()
                .is_empty());
            let before = fs.stats();
            let updated = update(&reader(&store), &params, 0, root.hash, &edits, 2).unwrap();
            assert_eq!(fs.stats().appends - before.appends, 1, "one append per commit");
            let fresh = build_on(&MemStore::new_shared(), &params, &apply_ops(&base, &edits));
            assert_eq!(updated.map(|p| p.hash), fresh.map(|p| p.hash));
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_failing_range_fails_the_commit_and_publishes_nothing() {
            let faulty =
                std::sync::Arc::new(Faulty { inner: MemStore::new(), fault: Mutex::new(None) });
            let store: SharedStore = faulty.clone();
            let params = PosParams::default();
            let (base, edits) = wide_commit();
            let root = build_on(&store, &params, &base).unwrap().hash;
            let root_node = reader(&store).load(&root).unwrap();
            assert!(!tree_cuts(&reader(&store), &params, 0, &root_node, &edits, 2)
                .unwrap()
                .is_empty());
            // The rightmost spine is always walked, by the last range, and
            // the planner never reads it: its pages fault in the worker.
            let mut spine = vec![root];
            while let Node::Internal { children, .. } = &*reader(&store).load(&spine[0]).unwrap() {
                spine.insert(0, children.hash(children.len() - 1));
            }
            let (leaf, parent) = (spine[0], spine[1]);
            let pages = faulty.inner.len();
            for (at, fault, want) in [
                (leaf, Fault::Missing, IndexError::MissingPage(leaf)),
                (leaf, Fault::Panic, IndexError::CorruptStructure("leaf-stage worker panicked")),
                (parent, Fault::Swap(leaf), IndexError::CorruptStructure("level mismatch")),
            ] {
                *faulty.fault.lock().unwrap() = Some((at, fault));
                let got = update(&reader(&store), &params, 0, root, &edits, 2);
                assert_eq!(got.err(), Some(want.clone()));
                assert_eq!(faulty.inner.len(), pages, "a failed commit stores nothing");
                if !matches!(fault, Fault::Panic) {
                    // Through the handle, with the host's own worker count.
                    let mut tree = crate::PosTree::open(store.clone(), params, root);
                    let mut batch = siri_core::WriteBatch::new();
                    for op in &edits {
                        batch.put(op.key.clone(), op.value.clone().unwrap());
                    }
                    assert_eq!(siri_core::SiriIndex::commit(&mut tree, batch).err(), Some(want));
                    assert_eq!(siri_core::SiriIndex::root(&tree), root, "the root stays");
                }
            }
        }
    }
}
