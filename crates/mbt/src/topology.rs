//! Topology of the complete m-ary Merkle tree over B buckets.
//!
//! MBT's shape is fixed at construction: "capacity and fanout are
//! pre-defined and cannot be changed in its life cycle" (§3.4.2). Because
//! the shape is arithmetic, the lookup path is *derived*, not searched —
//! "a trivial reverse simulation of the complete multi-way search tree
//! search algorithm".

use siri_core::{IndexError, Result, MAX_PROOF_PAGES};
use siri_crypto::fx_hash_bytes;

/// Node coordinates: level 0 is the bucket level; the highest level holds
/// the single root.
pub type NodeId = (usize, usize);

/// The arithmetic shape of one MBT instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    buckets: usize,
    fanout: usize,
    /// Node counts per level, `levels[0] == buckets`, `levels.last() == 1`.
    levels: Vec<usize>,
}

impl Topology {
    /// The one shape check, which building, opening and proof
    /// verification all go through: at least one bucket, fanout at least
    /// 2, and at most [`MAX_PROOF_PAGES`] nodes in all. A range read pins
    /// every node, so a verifier that took a root page's (B, fanout) on
    /// trust would do work exponential in the pages of a proof whose
    /// levels each repeat one page; the bound caps that work at what a
    /// proof may carry anyway. The paper's largest sweep (10,000 buckets
    /// × 32, 10,324 nodes) is well inside it.
    pub fn new(buckets: usize, fanout: usize) -> Result<Self> {
        if buckets == 0 {
            return Err(IndexError::CorruptStructure("MBT needs at least one bucket"));
        }
        if fanout < 2 {
            return Err(IndexError::CorruptStructure("MBT fanout must be at least 2"));
        }
        let too_big = IndexError::CorruptStructure("MBT has more nodes than a proof may carry");
        if buckets > MAX_PROOF_PAGES {
            return Err(too_big); // checked first, so the sum below cannot overflow
        }
        let mut levels = vec![buckets];
        let mut width = buckets;
        while width > 1 {
            width = width.div_ceil(fanout);
            levels.push(width);
        }
        let topo = Topology { buckets, fanout, levels };
        if topo.total_nodes() > MAX_PROOF_PAGES {
            return Err(too_big);
        }
        Ok(topo)
    }

    pub fn buckets(&self) -> usize {
        self.buckets
    }

    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of levels including the bucket level. A single-bucket tree
    /// has height 1: the bucket is the root.
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Nodes on `level`.
    pub fn nodes_on_level(&self, level: usize) -> usize {
        self.levels[level]
    }

    /// Total number of nodes in the tree (buckets + internal).
    pub fn total_nodes(&self) -> usize {
        self.levels.iter().sum()
    }

    /// The bucket a key hashes to: `hash(key) % B` (§3.4.2).
    pub fn bucket_of(&self, key: &[u8]) -> usize {
        (fx_hash_bytes(key) % self.buckets as u64) as usize
    }

    /// Parent coordinates of a node.
    pub fn parent(&self, (level, idx): NodeId) -> Option<NodeId> {
        if level + 1 >= self.height() {
            None
        } else {
            Some((level + 1, idx / self.fanout))
        }
    }

    /// Children of an internal node, as (first_child_index, count).
    pub fn children_span(&self, (level, idx): NodeId) -> (usize, usize) {
        assert!(level > 0, "buckets have no children");
        let first = idx * self.fanout;
        let below = self.levels[level - 1];
        let count = self.fanout.min(below - first);
        (first, count)
    }

    /// Which child slot of its parent a node occupies.
    pub fn slot_in_parent(&self, (_, idx): NodeId) -> usize {
        idx % self.fanout
    }

    /// The root→bucket path for a bucket index, starting at the root.
    pub fn path_to_bucket(&self, bucket: usize) -> Vec<NodeId> {
        assert!(bucket < self.buckets);
        let mut path: Vec<NodeId> = Vec::with_capacity(self.height());
        let mut idx = bucket;
        for level in 0..self.height() {
            path.push((level, idx));
            idx /= self.fanout;
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_sizes_for_eight_buckets_fanout_two() {
        // The Figure 4 configuration: 8 buckets, fanout 2 → 8,4,2,1.
        let t = Topology::new(8, 2).unwrap();
        assert_eq!(t.height(), 4);
        assert_eq!(
            (0..t.height()).map(|l| t.nodes_on_level(l)).collect::<Vec<_>>(),
            vec![8, 4, 2, 1]
        );
        assert_eq!(t.total_nodes(), 15);
    }

    #[test]
    fn ragged_last_parent() {
        let t = Topology::new(10, 4).unwrap(); // levels 10, 3, 1
        assert_eq!(t.nodes_on_level(1), 3);
        assert_eq!(t.children_span((1, 2)), (8, 2), "last parent has 2 children");
        assert_eq!(t.children_span((1, 0)), (0, 4));
    }

    #[test]
    fn single_bucket_tree() {
        let t = Topology::new(1, 4).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.path_to_bucket(0), vec![(0, 0)]);
    }

    #[test]
    fn path_is_root_first_and_consistent_with_parent() {
        let t = Topology::new(64, 4).unwrap();
        for bucket in [0usize, 17, 63] {
            let path = t.path_to_bucket(bucket);
            assert_eq!(path.first().unwrap(), &(t.height() - 1, 0), "starts at root");
            assert_eq!(path.last().unwrap(), &(0, bucket), "ends at the bucket");
            for pair in path.windows(2) {
                assert_eq!(t.parent(pair[1]), Some(pair[0]));
                let (first, count) = t.children_span(pair[0]);
                let slot = t.slot_in_parent(pair[1]);
                assert!(slot < count);
                assert_eq!(first + slot, pair[1].1);
            }
        }
    }

    #[test]
    fn shape_check_rejects_degenerate_and_oversized_shapes() {
        assert!(Topology::new(0, 4).is_err());
        assert!(Topology::new(8, 1).is_err());
        assert!(Topology::new(usize::MAX, 2).is_err());
        // 2^15 buckets × fanout 2 is 2^16 − 1 nodes; one more bucket is over.
        assert_eq!(Topology::new(1 << 15, 2).unwrap().total_nodes(), MAX_PROOF_PAGES - 1);
        assert!(Topology::new((1 << 15) + 1, 2).is_err());
        assert_eq!(Topology::new(10_000, 32).unwrap().total_nodes(), 10_324);
    }

    #[test]
    fn bucket_of_is_stable_and_in_range() {
        let t = Topology::new(1000, 8).unwrap();
        for i in 0..100 {
            let key = format!("key{i}");
            let b = t.bucket_of(key.as_bytes());
            assert!(b < 1000);
            assert_eq!(b, t.bucket_of(key.as_bytes()));
        }
    }
}
