//! POS-Tree configuration.

/// How internal layers detect node boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternalChunking {
    /// POS-Tree proper: "directly use the hashes to match the boundary
    /// pattern instead of repeatedly computing the hashes within a sliding
    /// window" (§3.4.3) — one AND per child.
    HashPattern,
    /// Prolly-tree / Noms style: roll a sliding window over the serialized
    /// (key, hash) items, recomputing hashes per byte. "Such computational
    /// overhead causes inefficiency of its write operations" (§5.6.2).
    RollingWindow,
}

/// The rolling fingerprint that drives sliding-window boundary detection.
///
/// POS-Tree has one chunker, the paper's buzhash over an explicit window
/// (§3.4.3). The type and [`PosParams::chunker`] remain so benchmark reports
/// can name the chunker they measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChunkerKind {
    /// Cyclic-polynomial buzhash over a `window`-byte sliding window.
    #[default]
    Buzhash,
}

impl ChunkerKind {
    /// Stable lowercase name, stamped into benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            ChunkerKind::Buzhash => "buzhash",
        }
    }
}

/// How node boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Pure content-defined chunking — the configuration that makes the
    /// tree Structurally Invariant.
    Pattern,
    /// §5.5.1 ablation: force a split when a node reaches `max_node_bytes`
    /// without finding the pattern, and splice updates leaf-locally. The
    /// resulting structure depends on insertion order (non-SI).
    ForcedSplice { max_node_bytes: usize },
}

/// Full parameter set of one POS-Tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosParams {
    /// q: a leaf boundary fires when the low `q` bits of the rolling
    /// fingerprint are all ones. Expected leaf size ≈ 2^q bytes.
    pub leaf_pattern_bits: u32,
    /// Internal boundary: low bits of the child digest (HashPattern) or of
    /// the rolling fingerprint (RollingWindow). Expected fanout ≈ 2^bits.
    pub internal_pattern_bits: u32,
    /// Sliding-window size in bytes (the Noms default of 67 per §5.6.2).
    pub window: usize,
    pub internal_chunking: InternalChunking,
    pub split_policy: SplitPolicy,
    pub chunker: ChunkerKind,
}

impl Default for PosParams {
    fn default() -> Self {
        // ≈1 KB leaves (2^10) and ≈2^5 = 32-way internal fanout: the
        // paper's §5 node-size tuning.
        PosParams {
            leaf_pattern_bits: 10,
            internal_pattern_bits: 5,
            window: 67,
            internal_chunking: InternalChunking::HashPattern,
            split_policy: SplitPolicy::Pattern,
            chunker: ChunkerKind::Buzhash,
        }
    }
}

impl PosParams {
    /// Target a different expected node size (Table 3 sweeps 512–4096 B).
    pub fn with_node_bytes(mut self, bytes: usize) -> Self {
        self.leaf_pattern_bits = (bytes.max(2) as f64).log2().round() as u32;
        self
    }

    /// Noms/Prolly configuration used in the §5.6.2 comparison: 4 KB nodes,
    /// 67-byte window, sliding-window hashing in internal layers.
    pub fn noms() -> Self {
        PosParams {
            leaf_pattern_bits: 12,
            internal_pattern_bits: 7,
            window: 67,
            internal_chunking: InternalChunking::RollingWindow,
            split_policy: SplitPolicy::Pattern,
            chunker: ChunkerKind::Buzhash,
        }
    }

    /// §5.5.1 non-structurally-invariant ablation: high pattern bits so the
    /// pattern rarely fires, low forced maximum.
    pub fn forced_split() -> Self {
        PosParams {
            leaf_pattern_bits: 13,
            internal_pattern_bits: 5,
            window: 67,
            internal_chunking: InternalChunking::HashPattern,
            split_policy: SplitPolicy::ForcedSplice { max_node_bytes: 2048 },
            chunker: ChunkerKind::Buzhash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_target_1kb() {
        let p = PosParams::default();
        assert_eq!(p.leaf_pattern_bits, 10);
        assert_eq!(p.window, 67);
        assert_eq!(p.split_policy, SplitPolicy::Pattern);
    }

    #[test]
    fn node_size_mapping() {
        assert_eq!(PosParams::default().with_node_bytes(512).leaf_pattern_bits, 9);
        assert_eq!(PosParams::default().with_node_bytes(4096).leaf_pattern_bits, 12);
    }

    #[test]
    fn ablation_uses_forced_splits() {
        assert!(matches!(PosParams::forced_split().split_policy, SplitPolicy::ForcedSplice { .. }));
    }

    #[test]
    fn chunker_defaults_to_buzhash_everywhere() {
        // Every constructor uses the one chunker, under the name benchmark
        // reports stamp.
        for params in [PosParams::default(), PosParams::noms(), PosParams::forced_split()] {
            assert_eq!(params.chunker, ChunkerKind::Buzhash);
            assert_eq!(params.chunker.name(), "buzhash");
        }
    }
}
