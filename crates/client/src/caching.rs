//! The light client's cache: verified remote pages under an index handle's
//! node cache.
//!
//! The paper's §5.6.1 client caches the nodes it gets from the server.
//! Here that cache is the decoded-node cache every index handle already
//! owns; [`RemotePages`] is the page source it misses into. Each miss is
//! one `Fetch` round trip, and a page enters the cache only after it
//! hashes to the address asked for, so a warm read costs no round trip and
//! trusts nothing the server said.

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use siri_crypto::Hash;
use siri_store::{AtomicStoreStats, NodeStore, StoreError, StoreResult, StoreStats};

use crate::{fetch, store_error, unexpected, Conn};

/// The page source behind [`RemoteSession::pages`](crate::RemoteSession::pages).
pub(crate) struct RemotePages {
    conn: Arc<Mutex<Conn>>,
    stats: AtomicStoreStats,
}

impl RemotePages {
    pub(crate) fn new(conn: Arc<Mutex<Conn>>) -> Self {
        RemotePages { conn, stats: AtomicStoreStats::default() }
    }
}

impl NodeStore for RemotePages {
    fn try_put(&self, _page: Bytes) -> StoreResult<Hash> {
        Err(StoreError::Io {
            op: "put",
            kind: std::io::ErrorKind::Unsupported,
            detail: "a remote page source is read-only".into(),
        })
    }

    fn try_get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        AtomicStoreStats::add(&self.stats.gets, 1);
        let pages = fetch(&self.conn, std::slice::from_ref(hash)).map_err(store_error)?;
        let Ok([page]) = <[Option<Bytes>; 1]>::try_from(pages) else {
            return Err(store_error(unexpected("Fetch")));
        };
        let Some(page) = page else { return Ok(None) };
        if siri_crypto::sha256(&page) != *hash {
            return Err(StoreError::Corrupt("fetched page does not hash to its address"));
        }
        AtomicStoreStats::add(&self.stats.hits, 1);
        Ok(Some(page))
    }

    fn contains(&self, hash: &Hash) -> bool {
        matches!(self.try_get(hash), Ok(Some(_)))
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use siri_core::{Session, SiriIndex, WriteBatch};
    use siri_forkbase::{Forkbase, PosFactory, ShardingPolicy};
    use siri_pos_tree::{PosParams, PosTree};
    use siri_server::{serve, ServerHandle, ServerOptions};
    use siri_store::{MemStore, SharedStore};

    use super::*;
    use crate::RemoteSession;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    fn value(i: u32) -> Bytes {
        Bytes::from(format!("value-{i:05}-{}", "v".repeat(64)))
    }

    /// A single-shard POS-Tree engine holding `n` records, served on
    /// loopback, and the digest a light client opens it at.
    fn served(n: u32) -> (ServerHandle<PosFactory>, Hash) {
        let engine = Arc::new(Forkbase::with_sharding(
            PosFactory(PosParams::default()),
            MemStore::new_shared(),
            ShardingPolicy::single(),
            0,
        ));
        let mut b = WriteBatch::new();
        for i in 0..n {
            b.put(key(i), value(i));
        }
        Session::commit(engine.as_ref(), "master", b).unwrap();
        let digest = Session::branch_digest(engine.as_ref(), "master").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        (serve(engine, listener, ServerOptions::default(), None).unwrap(), digest)
    }

    /// A light client at `digest` whose node cache holds `capacity` nodes.
    fn client(pages: &SharedStore, digest: Hash, capacity: usize) -> PosTree {
        PosTree::open(pages.clone(), PosParams::default(), digest)
            .with_node_cache_capacity(capacity)
    }

    fn read_all(client: &PosTree, n: u32) {
        for i in 0..n {
            assert_eq!(client.get(&key(i)).unwrap(), Some(value(i)), "key {i}");
        }
    }

    #[test]
    fn second_read_hits_cache() {
        let (server, digest) = served(200);
        let session = RemoteSession::connect(server.addr()).unwrap();
        let pages = session.pages();
        let client = client(&pages, digest, siri_store::DEFAULT_NODE_CACHE_CAPACITY);
        assert_eq!(client.get(&key(100)).unwrap(), Some(value(100)));
        let cold = client.node_cache_stats();
        let fetches = pages.stats().gets;
        assert!(fetches > 0 && cold.misses > 0, "a cold read is remote: {cold:?}");
        assert_eq!(pages.stats().hits, fetches, "every fetched page verified");

        assert_eq!(client.get(&key(100)).unwrap(), Some(value(100)));
        let warm = client.node_cache_stats();
        assert_eq!(pages.stats().gets, fetches, "a warm read made a round trip");
        assert_eq!(warm.misses, cold.misses);
        assert!(warm.hits > cold.hits, "{warm:?}");
        assert!((warm.hit_ratio() - 0.5).abs() < 1e-12, "{warm:?}");
    }

    #[test]
    fn writes_do_not_populate_cache() {
        let (server, digest) = served(200);
        let session = RemoteSession::connect(server.addr()).unwrap();
        let pages = session.pages();
        let client = client(&pages, digest, siri_store::DEFAULT_NODE_CACHE_CAPACITY);
        assert!(pages.try_put(Bytes::from_static(b"written")).is_err());
        assert_eq!(pages.stats().gets, 0, "a refused put costs no round trip");
        assert_eq!(client.node_cache_stats().len, 0);
        // The first read is still remote.
        assert_eq!(client.get(&key(7)).unwrap(), Some(value(7)));
        assert!(pages.stats().gets > 0);
    }

    #[test]
    fn capacity_bounds_resident_pages() {
        const N: u32 = 2_000;
        let (server, digest) = served(N);
        let session = RemoteSession::connect(server.addr()).unwrap();
        let pages = session.pages();
        let client = client(&pages, digest, 64);
        read_all(&client, N);
        let cache = client.node_cache_stats();
        assert!(cache.len <= 64, "cache grew past its bound: {cache:?}");
        assert!(cache.evictions > 0, "a tree this size through a 64-node cache must evict");
        // Every miss went to the server, and came back verified.
        assert!(pages.stats().gets >= cache.misses, "{cache:?}");
        assert_eq!(pages.stats().hits, pages.stats().gets);
    }

    #[test]
    fn zero_capacity_is_pure_remote() {
        let (server, digest) = served(200);
        let session = RemoteSession::connect(server.addr()).unwrap();
        let pages = session.pages();
        let client = client(&pages, digest, 0);
        assert_eq!(client.get(&key(3)).unwrap(), Some(value(3)));
        let once = pages.stats().gets;
        assert!(once > 0);
        assert_eq!(client.get(&key(3)).unwrap(), Some(value(3)));
        assert_eq!(pages.stats().gets, 2 * once, "a zero-capacity client refetches");
        let cache = client.node_cache_stats();
        assert_eq!((cache.hits, cache.len), (0, 0), "{cache:?}");
    }

    #[test]
    fn smaller_cache_lower_hit_ratio() {
        // The Figure 21 mechanism in miniature: same access stream,
        // shrinking capacity, a worse hit ratio.
        const N: u32 = 2_000;
        let (server, digest) = served(N);
        let session = RemoteSession::connect(server.addr()).unwrap();
        let pages = session.pages();
        let mut ratios = Vec::new();
        for cap in [256usize, 64, 16] {
            let client = client(&pages, digest, cap);
            for _ in 0..3 {
                read_all(&client, N);
            }
            ratios.push(client.node_cache_stats().hit_ratio());
        }
        assert!(ratios[0] > ratios[2], "256-node cache must beat 16-node: {ratios:?}");
    }
}
