//! Structure-level instrumentation — the per-index shape counters the
//! experiment harnesses read (node count, height, occupancy).
//!
//! [`crate::SiriIndex`] deliberately stays free of reporting concerns;
//! the four index crates implement [`StructureStats`] alongside it so the
//! experiment runner can ask any structure "what do you look like right
//! now" without knowing which structure it is. The numbers feed the
//! paper's storage figures (node counts of Figures 14–16) and the §4.1
//! height terms the cost model predicts.

use crate::Result;
use siri_store::CacheStats;

/// A snapshot of one index version's physical shape.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StructureReport {
    /// Distinct pages reachable from the root (the |P(I)| of §4.2).
    pub nodes: u64,
    /// Total encoded bytes of those pages.
    pub bytes: u64,
    /// Tree height in levels, counting root and leaf; 0 when empty. For
    /// the MPT this is the *maximum* leaf depth (paths vary per key).
    pub height: u32,
    /// Records stored in this version.
    pub entries: u64,
    /// Mean entries per leaf (POS-Tree/MVMB+) or per bucket (MBT); for the
    /// MPT, whose leaves hold one suffix each, the mean entries per *node*
    /// — a density measure in every case.
    pub leaf_occupancy: f64,
}

impl StructureReport {
    /// Mean encoded page size — the tuning target of the §5 "node size
    /// ≈ 1 KB" rule.
    pub fn avg_node_bytes(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.bytes as f64 / self.nodes as f64
        }
    }
}

/// Shape reporting implemented by all four index structures.
pub trait StructureStats {
    /// Walk the current version and report its shape. O(nodes): intended
    /// for checkpoints, not per-operation use.
    fn structure_stats(&self) -> Result<StructureReport>;

    /// Decoded-node cache counters of this handle (hits, misses,
    /// evictions) — the client-side half of the §5.6.1 hit-ratio story.
    fn node_cache_stats(&self) -> CacheStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_node_bytes_edge_cases() {
        assert_eq!(StructureReport::default().avg_node_bytes(), 0.0);
        let r = StructureReport { nodes: 4, bytes: 4096, ..Default::default() };
        assert!((r.avg_node_bytes() - 1024.0).abs() < 1e-12);
    }
}
