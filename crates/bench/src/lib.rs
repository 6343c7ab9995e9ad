//! Shared machinery for the `repro` figure reproducer and the Criterion
//! benchmarks: index-agnostic experiment drivers, timing helpers and the
//! plain-text table printer.

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
    pub seed: u64,
    /// Writer-thread ceiling for the multi-writer concurrency cells
    /// (`repro concurrency` sweeps 1..=threads in powers of two).
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { scale: 0.05, ops: 5_000, node_bytes: 1024, seed: 42, threads: 4 }
    }
}

impl RunConfig {
    /// Scale a paper-sized record count, with a sane floor.
    pub fn scaled(&self, paper_size: usize) -> usize {
        ((paper_size as f64 * self.scale) as usize).max(1_000)
    }
}
