//! Streaming sorted range cursor over the bucket tree.
//!
//! Hashing destroys global key order (§3.4.2), so a sorted scan cannot
//! walk the MBT left-to-right the way the ordered structures do. Instead
//! the cursor performs an on-the-fly k-way merge: it pins the decoded
//! bucket nodes (B `Arc`s out of the shared node cache — pages, not
//! copies) and repeatedly takes the globally smallest remaining entry from
//! a min-heap of per-bucket positions. Entries stream out one at a time;
//! the dataset is never collated into a vector and never re-sorted.
//!
//! Seeding and merging run on each bucket's key-prefix column
//! ([`BucketEntries::prefixes`]): a bucket is seeded by a binary search
//! over its contiguous `u64`s, a heap position is 16 bytes, and a key is
//! read only to break a tie between equal prefixes. No key is cloned
//! until its entry is emitted.

use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

use siri_core::{before_start, past_end, Entry, Result};

use crate::node::{key_prefix, BucketEntries, Node, NO_ENTRIES};
use crate::MerkleBucketTree;

/// One per-bucket merge position: the prefix of the key it stands on, and
/// where that entry is. Positions order by prefix, then by full key, then
/// by bucket index (for determinism; one version never holds a key in two
/// buckets).
#[derive(Clone, Copy)]
struct Pos {
    prefix: u64,
    bucket: u32,
    idx: u32,
}

enum State {
    /// Buckets not yet pinned; done lazily so constructor failures surface
    /// as stream errors.
    Pending,
    Running,
    Done,
}

/// Streaming sorted cursor over one MBT version. Owns a cheap handle clone
/// (store + topology + root + shared node cache), so it is `'static`.
pub struct RangeCursor {
    tree: MerkleBucketTree,
    start: Bound<Vec<u8>>,
    end: Bound<Vec<u8>>,
    /// `key_prefix` of the end bound's key (0 when unbounded).
    end_prefix: u64,
    /// Decoded bucket nodes, pinned for the cursor's lifetime.
    buckets: Vec<Arc<Node>>,
    /// Binary min-heap of the live positions, smallest at index 0.
    heap: Vec<Pos>,
    state: State,
}

impl RangeCursor {
    pub fn new(tree: MerkleBucketTree, start: Bound<Vec<u8>>, end: Bound<Vec<u8>>) -> Self {
        let end_prefix = match &end {
            Bound::Included(e) | Bound::Excluded(e) => key_prefix(e),
            Bound::Unbounded => 0,
        };
        RangeCursor {
            tree,
            start,
            end,
            end_prefix,
            buckets: Vec::new(),
            heap: Vec::new(),
            state: State::Pending,
        }
    }

    fn bucket(&self, bucket: u32) -> &BucketEntries {
        match &*self.buckets[bucket as usize] {
            Node::Bucket { entries, .. } => entries,
            Node::Internal { .. } => &NO_ENTRIES,
        }
    }

    /// The window is provably empty (start past end), so the O(B) bucket
    /// pinning can be skipped entirely.
    fn window_is_empty(&self) -> bool {
        match (&self.start, &self.end) {
            (Bound::Included(s) | Bound::Excluded(s), Bound::Included(e) | Bound::Excluded(e)) => {
                if matches!((&self.start, &self.end), (Bound::Included(_), Bound::Included(_))) {
                    s > e
                } else {
                    s >= e
                }
            }
            _ => false,
        }
    }

    /// The position of entry `idx` of `bucket`, if there is one and it is
    /// not past the end bound. The prefix decides unless it equals the
    /// end bound's.
    fn pos(&self, bucket: u32, idx: usize) -> Option<Pos> {
        let entries = self.bucket(bucket);
        let prefix = *entries.prefixes().get(idx)?;
        let in_window = match (&self.end, prefix.cmp(&self.end_prefix)) {
            (Bound::Unbounded, _) | (_, Ordering::Less) => true,
            (_, Ordering::Greater) => false,
            (_, Ordering::Equal) => !past_end(&self.end, &entries[idx].key),
        };
        in_window.then_some(Pos { prefix, bucket, idx: idx as u32 })
    }

    /// The first index of `bucket` not before the start bound: a binary
    /// search over the prefix column, then over the run of entries whose
    /// prefix equals the bound's.
    fn seed(&self, bucket: u32) -> usize {
        let (Bound::Included(s) | Bound::Excluded(s)) = &self.start else {
            return 0;
        };
        let entries = self.bucket(bucket);
        let p = key_prefix(s);
        let prefixes = entries.prefixes();
        let lo = prefixes.partition_point(|&q| q < p);
        let hi = lo + prefixes[lo..].partition_point(|&q| q == p);
        lo + entries[lo..hi].partition_point(|e| before_start(&self.start, &e.key))
    }

    /// `a` sorts before `b`.
    fn less(&self, a: Pos, b: Pos) -> bool {
        match a.prefix.cmp(&b.prefix) {
            Ordering::Equal => {
                let key = |p: Pos| &self.bucket(p.bucket)[p.idx as usize].key;
                (key(a), a.bucket) < (key(b), b.bucket)
            }
            ord => ord == Ordering::Less,
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                return;
            }
            let right = left + 1;
            let child = if right < n && self.less(self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            if !self.less(self.heap[child], self.heap[i]) {
                return;
            }
            self.heap.swap(i, child);
            i = child;
        }
    }

    /// Pin every bucket node, seed one position per bucket that has an
    /// entry in the window, and heapify them at once.
    fn init(&mut self) -> Result<()> {
        if self.window_is_empty() {
            return Ok(());
        }
        self.buckets = self.tree.bucket_nodes()?;
        self.heap = (0..self.buckets.len() as u32)
            .filter_map(|bucket| self.pos(bucket, self.seed(bucket)))
            .collect();
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
        Ok(())
    }
}

impl Iterator for RangeCursor {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.state {
            State::Done => return None,
            State::Pending => {
                if let Err(e) = self.init() {
                    self.state = State::Done;
                    return Some(Err(e));
                }
                self.state = State::Running;
            }
            State::Running => {}
        }
        let top = *self.heap.first()?;
        let entry = self.bucket(top.bucket)[top.idx as usize].clone();
        // Advance this bucket in place; drop it once it leaves the window
        // (its entries are sorted, so nothing further can qualify).
        match self.pos(top.bucket, top.idx as usize + 1) {
            Some(next) => self.heap[0] = next,
            None => {
                self.heap.swap_remove(0);
            }
        }
        self.sift_down(0);
        Some(Ok(entry))
    }
}
