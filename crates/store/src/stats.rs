//! Storage counters distinguishing logical writes from physical storage.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by a [`crate::NodeStore`].
///
/// The split between *logical* and *unique* is what the paper's Figure 1
/// plots as "Raw" vs "Deduplicated" storage: logical counts every page ever
/// written (as if each version kept private copies), unique counts the
/// content-addressed union actually stored.
///
/// The `cache_*` fields are zero for plain stores; caching layers
/// ([`crate::CachingStore`]) fold their page-cache counters in so harnesses
/// read one struct (Figure 21's hit-ratio axis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of `put` calls.
    pub puts: u64,
    /// Sum of page sizes over all `put` calls (raw / no-dedup bytes).
    pub logical_bytes: u64,
    /// `put` calls that deduplicated against an already-stored page — the
    /// paper's page-sharing events (Universally Reusable in action).
    pub shared_puts: u64,
    /// Page bytes those shared puts did *not* have to store again.
    pub shared_bytes: u64,
    /// Bytes physically written to the backend this session. For
    /// [`crate::MemStore`] this equals the bytes of newly-inserted pages;
    /// for [`crate::FileStore`] it includes frame headers, so it tracks
    /// real disk traffic (the write-amplification numerator).
    pub bytes_written: u64,
    /// Segment `write(2)` calls made by puts — one per put call that
    /// stored anything new, so one per index commit on
    /// [`crate::FileStore`]. Compaction is not counted; zero for
    /// [`crate::MemStore`].
    pub appends: u64,
    /// Number of distinct pages held.
    pub unique_pages: u64,
    /// Sum of page sizes over distinct pages (deduplicated bytes).
    pub unique_bytes: u64,
    /// Number of `get` calls.
    pub gets: u64,
    /// `get` calls that found the page.
    pub hits: u64,
    /// Page-cache hits (caching stores only).
    pub cache_hits: u64,
    /// Page-cache misses (caching stores only).
    pub cache_misses: u64,
    /// Page-cache evictions (caching stores only).
    pub cache_evictions: u64,
    /// Logical commits acknowledged at the *store* level (`note_commit`
    /// calls that returned success on a durable store). Zero for
    /// in-memory stores. An engine doing optimistic commits flushes
    /// before its head CAS, so an attempt that acks here and then loses
    /// the head race still counts — under contention this can exceed the
    /// engine's published-commit count (`EngineStats::commits` is the
    /// publication truth; the gap is flush traffic spent on lost races).
    pub commits: u64,
    /// Durability flushes of the active segment (fsyncs issued by the
    /// fsync policy or an explicit `sync`). Under group commit this stays
    /// below `commits`: concurrent committers share one flush.
    pub fsyncs: u64,
}

impl StoreStats {
    /// Fraction of logical bytes eliminated by content addressing;
    /// 0.0 when nothing was written.
    pub fn dedup_savings(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - self.unique_bytes as f64 / self.logical_bytes as f64
        }
    }

    /// `get` hit rate; 1.0 when no gets were issued.
    pub fn hit_rate(&self) -> f64 {
        if self.gets == 0 {
            1.0
        } else {
            self.hits as f64 / self.gets as f64
        }
    }

    /// Page-cache hit rate; 1.0 when the store has no cache or it was
    /// never probed.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Lock-free accumulator behind [`StoreStats`].
///
/// Stores bump these with relaxed atomics so *read* operations never take a
/// write lock just to count themselves (the regression this replaces held
/// `inner.write()` across every `get`). Relaxed ordering is enough: the
/// counters are monotone tallies, not synchronization edges, and
/// [`AtomicStoreStats::snapshot`] only promises per-counter atomicity — a
/// snapshot taken mid-operation may see `gets` without the matching `hits`,
/// exactly like the old struct read under a momentarily released lock.
#[derive(Debug, Default)]
pub struct AtomicStoreStats {
    pub puts: AtomicU64,
    pub logical_bytes: AtomicU64,
    pub shared_puts: AtomicU64,
    pub shared_bytes: AtomicU64,
    pub bytes_written: AtomicU64,
    pub appends: AtomicU64,
    pub unique_pages: AtomicU64,
    pub unique_bytes: AtomicU64,
    pub gets: AtomicU64,
    pub hits: AtomicU64,
    pub commits: AtomicU64,
    pub fsyncs: AtomicU64,
}

impl AtomicStoreStats {
    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(counter: &AtomicU64, v: u64) {
        counter.fetch_sub(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            puts: self.puts.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            shared_puts: self.shared_puts.load(Ordering::Relaxed),
            shared_bytes: self.shared_bytes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            unique_pages: self.unique_pages.load(Ordering::Relaxed),
            unique_bytes: self.unique_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            ..StoreStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_and_hit_rate_edge_cases() {
        let empty = StoreStats::default();
        assert_eq!(empty.dedup_savings(), 0.0);
        assert_eq!(empty.hit_rate(), 1.0);
        assert_eq!(empty.cache_hit_rate(), 1.0);

        let s = StoreStats {
            puts: 4,
            logical_bytes: 400,
            shared_puts: 3,
            shared_bytes: 300,
            bytes_written: 100,
            appends: 1,
            unique_pages: 1,
            unique_bytes: 100,
            gets: 10,
            hits: 9,
            cache_hits: 3,
            cache_misses: 1,
            cache_evictions: 0,
            commits: 5,
            fsyncs: 2,
        };
        assert!((s.dedup_savings() - 0.75).abs() < 1e-12);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn atomic_snapshot_round_trips() {
        let a = AtomicStoreStats::default();
        AtomicStoreStats::add(&a.puts, 3);
        AtomicStoreStats::add(&a.unique_pages, 2);
        AtomicStoreStats::sub(&a.unique_pages, 1);
        let s = a.snapshot();
        assert_eq!(s.puts, 3);
        assert_eq!(s.unique_pages, 1);
        assert_eq!(s.cache_hits, 0);
    }
}
