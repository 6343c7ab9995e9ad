//! Streaming sorted range cursor over the bucket tree.
//!
//! Hashing destroys global key order (§3.4.2), so a sorted scan cannot
//! walk the MBT left-to-right the way the ordered structures do. Instead
//! the cursor performs an on-the-fly k-way merge: it pins the decoded
//! bucket nodes (B `Arc`s out of the shared node cache — pages, not
//! copies) and repeatedly pops the globally smallest remaining entry from
//! a min-heap of per-bucket positions. Entries stream out one at a time;
//! the dataset is never collated into a vector and never re-sorted.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Bound;
use std::sync::Arc;

use bytes::Bytes;
use siri_core::{before_start, past_end, Entry, Result};

use crate::node::Node;
use crate::MerkleBucketTree;

/// One per-bucket merge position, ordered by its current key (heap ties
/// broken by bucket index for determinism).
#[derive(PartialEq, Eq)]
struct Pos {
    key: Bytes,
    bucket: usize,
    idx: usize,
}

impl Ord for Pos {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.key, self.bucket, self.idx).cmp(&(&other.key, other.bucket, other.idx))
    }
}

impl PartialOrd for Pos {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
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
    /// Decoded bucket nodes, pinned for the cursor's lifetime.
    buckets: Vec<Arc<Node>>,
    heap: BinaryHeap<Reverse<Pos>>,
    state: State,
}

impl RangeCursor {
    pub fn new(tree: MerkleBucketTree, start: Bound<Vec<u8>>, end: Bound<Vec<u8>>) -> Self {
        RangeCursor {
            tree,
            start,
            end,
            buckets: Vec::new(),
            heap: BinaryHeap::new(),
            state: State::Pending,
        }
    }

    fn entries_of(&self, bucket: usize) -> &[Entry] {
        match &*self.buckets[bucket] {
            Node::Bucket { entries, .. } => entries,
            Node::Internal { .. } => &[],
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

    /// Pin every bucket node and seed the heap at the first in-bounds
    /// position of each.
    fn init(&mut self) -> Result<()> {
        if self.window_is_empty() {
            return Ok(());
        }
        self.buckets = self.tree.bucket_nodes()?;
        for bucket in 0..self.buckets.len() {
            let entries = self.entries_of(bucket);
            let idx = entries.partition_point(|e| before_start(&self.start, &e.key));
            if idx < entries.len() && !past_end(&self.end, &entries[idx].key) {
                self.heap.push(Reverse(Pos { key: entries[idx].key.clone(), bucket, idx }));
            }
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
        let Reverse(pos) = self.heap.pop()?;
        let entries = self.entries_of(pos.bucket);
        let entry = entries[pos.idx].clone();
        // Advance this bucket's position; drop it once it leaves the window
        // (its entries are sorted, so nothing further can qualify).
        let next_idx = pos.idx + 1;
        if next_idx < entries.len() && !past_end(&self.end, &entries[next_idx].key) {
            self.heap.push(Reverse(Pos {
                key: entries[next_idx].key.clone(),
                bucket: pos.bucket,
                idx: next_idx,
            }));
        }
        Some(Ok(entry))
    }
}
