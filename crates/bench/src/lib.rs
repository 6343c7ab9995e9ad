//! Shared machinery for the `repro` figure reproducer and the Criterion
//! benchmarks: index-agnostic experiment drivers, timing helpers and the
//! plain-text table printer.
//!
//! Each number is measured in one place. `repro` prints the paper's §5
//! figures; a Criterion bench stays only for a number that neither a
//! `repro` table nor a `bench/e2e` metric produces (DESIGN.md §6).

pub mod harness;
pub mod table;

/// Configuration common to all experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Multiplier applied to the paper's dataset sizes (default 0.05 —
    /// laptop scale; 1.0 reproduces the full sizes).
    pub scale: f64,
    /// Operations per measured workload.
    pub ops: usize,
    /// Target node size (the paper tunes ≈1 KB).
    pub node_bytes: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { scale: 0.05, ops: 5_000, node_bytes: 1024 }
    }
}

impl RunConfig {
    /// Scale a paper-sized record count, with a sane floor.
    pub fn scaled(&self, paper_size: usize) -> usize {
        ((paper_size as f64 * self.scale) as usize).max(1_000)
    }
}
