//! Factories that build/open each index structure over a store — the
//! engine's (and the benchmark harness's) point of index-agnosticism.

use siri_core::{ProofScheme, SiriIndex, StructureStats};
use siri_crypto::Hash;
use siri_mbt::{MbtProofScheme, MerkleBucketTree};
use siri_mpt::{MerklePatriciaTrie, MptProofScheme};
use siri_mvmb::{MvmbParams, MvmbProofScheme, MvmbTree};
use siri_pos_tree::{PosParams, PosProofScheme, PosTree};
use siri_store::SharedStore;

/// Construct or re-open a concrete index over a page store.
///
/// `Index` must also report its shape ([`StructureStats`]) so factory-
/// generic harness code can report shape without knowing which structure
/// it drives.
pub trait IndexFactory: Clone + Send + Sync {
    type Index: SiriIndex + StructureStats;

    /// A human-readable structure name for reports.
    fn name(&self) -> &'static str;

    /// A fresh, empty index.
    fn empty(&self, store: SharedStore) -> Self::Index;

    /// Re-open an existing version by root digest.
    fn open(&self, store: SharedStore, root: Hash) -> Self::Index;

    /// The structure's proof-verification scheme — what a client that
    /// holds only a branch digest uses to check this factory's proofs
    /// (see `siri_core::verify_anchored_membership` and friends).
    fn scheme(&self) -> &'static dyn ProofScheme;
}

/// Look up a [`ProofScheme`] by the structure name a server reports
/// (factory [`IndexFactory::name`] / `SiriIndex::kind` spelling). How a
/// remote client picks the right verifier without compiling against the
/// concrete index type.
pub fn scheme_by_name(name: &str) -> Option<&'static dyn ProofScheme> {
    match name {
        "pos-tree" => Some(&PosProofScheme),
        "mpt" => Some(&MptProofScheme),
        "mbt" => Some(&MbtProofScheme),
        "mvmb+-tree" => Some(&MvmbProofScheme),
        _ => None,
    }
}

/// POS-Tree factory (also covers the Prolly variant via
/// [`PosParams::noms`]).
#[derive(Clone)]
pub struct PosFactory(pub PosParams);

impl IndexFactory for PosFactory {
    type Index = PosTree;

    fn name(&self) -> &'static str {
        "pos-tree"
    }

    fn empty(&self, store: SharedStore) -> PosTree {
        PosTree::new(store, self.0)
    }

    fn open(&self, store: SharedStore, root: Hash) -> PosTree {
        PosTree::open(store, self.0, root)
    }

    fn scheme(&self) -> &'static dyn ProofScheme {
        &PosProofScheme
    }
}

impl PosFactory {
    pub fn noms() -> Self {
        PosFactory(PosParams::noms())
    }
}

/// MPT factory.
#[derive(Clone)]
pub struct MptFactory;

impl IndexFactory for MptFactory {
    type Index = MerklePatriciaTrie;

    fn name(&self) -> &'static str {
        "mpt"
    }

    fn empty(&self, store: SharedStore) -> MerklePatriciaTrie {
        MerklePatriciaTrie::new(store)
    }

    fn open(&self, store: SharedStore, root: Hash) -> MerklePatriciaTrie {
        MerklePatriciaTrie::open(store, root)
    }

    fn scheme(&self) -> &'static dyn ProofScheme {
        &MptProofScheme
    }
}

/// MBT factory with fixed capacity/fanout.
#[derive(Clone)]
pub struct MbtFactory {
    pub buckets: usize,
    pub fanout: usize,
}

impl Default for MbtFactory {
    fn default() -> Self {
        MbtFactory { buckets: siri_mbt::DEFAULT_BUCKETS, fanout: siri_mbt::DEFAULT_FANOUT }
    }
}

impl IndexFactory for MbtFactory {
    type Index = MerkleBucketTree;

    fn name(&self) -> &'static str {
        "mbt"
    }

    fn empty(&self, store: SharedStore) -> MerkleBucketTree {
        MerkleBucketTree::new(store, self.buckets, self.fanout).expect("valid MBT parameters")
    }

    fn open(&self, store: SharedStore, root: Hash) -> MerkleBucketTree {
        MerkleBucketTree::open(store, self.buckets, self.fanout, root)
    }

    fn scheme(&self) -> &'static dyn ProofScheme {
        &MbtProofScheme
    }
}

/// MVMB+-Tree factory.
#[derive(Clone, Default)]
pub struct MvmbFactory(pub MvmbParams);

impl IndexFactory for MvmbFactory {
    type Index = MvmbTree;

    fn name(&self) -> &'static str {
        "mvmb+-tree"
    }

    fn empty(&self, store: SharedStore) -> MvmbTree {
        MvmbTree::new(store, self.0)
    }

    fn open(&self, store: SharedStore, root: Hash) -> MvmbTree {
        MvmbTree::open(store, self.0, root)
    }

    fn scheme(&self) -> &'static dyn ProofScheme {
        &MvmbProofScheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use siri_core::MemStore;

    fn exercise<F: IndexFactory>(factory: F) {
        let store = MemStore::new_shared();
        let mut idx = factory.empty(store.clone());
        idx.insert(b"factory-key", Bytes::from_static(b"v")).unwrap();
        let reopened = factory.open(store, idx.root());
        assert_eq!(reopened.get(b"factory-key").unwrap().unwrap().as_ref(), b"v");
        assert_eq!(reopened.root(), idx.root());
    }

    #[test]
    fn all_factories_round_trip() {
        exercise(PosFactory(PosParams::default()));
        exercise(MptFactory);
        exercise(MbtFactory { buckets: 64, fanout: 4 });
        exercise(MvmbFactory(MvmbParams::default()));
    }
}
