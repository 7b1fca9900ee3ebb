//! Peer adjacency transport abstraction.
//!
//! In the distributed protocols the host learns the WPG incrementally: each
//! involved peer sends *one* message carrying its adjacency list and edge
//! weights (paper §VI). The algorithms in this crate are written against
//! [`PeerFetch`] so the same code runs over an in-memory graph (analysis,
//! tests) or over `nela-netsim`'s simulated radio network (latency, loss,
//! peer failures).

use nela_geo::UserId;
use nela_wpg::{Weight, Wpg};

/// Source of peer adjacency lists. One `fetch` per distinct peer corresponds
/// to one protocol message; the algorithms cache internally, so
/// implementations need not deduplicate.
pub trait PeerFetch {
    /// The adjacency list of `u` as `(neighbor, weight)` pairs, or `None`
    /// when the peer is unreachable (crashed, out of range, messages lost
    /// beyond retry).
    fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>>;
}

/// Infallible in-memory fetch straight from a [`Wpg`].
pub struct LocalFetch<'a> {
    g: &'a Wpg,
}

impl<'a> LocalFetch<'a> {
    /// Wraps a graph.
    pub fn new(g: &'a Wpg) -> Self {
        LocalFetch { g }
    }
}

impl PeerFetch for LocalFetch<'_> {
    fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>> {
        Some(self.g.neighbors(u).collect())
    }
}

/// Host-side adjacency cache: first access to a peer costs a fetch (one
/// message), later accesses are free. Tracks the distinct peers contacted —
/// the paper's communication-cost metric.
pub struct AdjCache<'f> {
    fetch: &'f mut dyn PeerFetch,
    host: UserId,
    map: std::collections::HashMap<UserId, Vec<(UserId, Weight)>>,
}

impl<'f> AdjCache<'f> {
    /// Creates a cache for a protocol run by `host`.
    pub fn new(fetch: &'f mut dyn PeerFetch, host: UserId) -> Self {
        AdjCache {
            fetch,
            host,
            map: std::collections::HashMap::new(),
        }
    }

    /// The adjacency of `u`, fetching on first use.
    pub fn get(&mut self, u: UserId) -> Result<&[(UserId, Weight)], crate::ClusterError> {
        if !self.map.contains_key(&u) {
            let adj = self
                .fetch
                .fetch(u)
                .ok_or(crate::ClusterError::PeerUnreachable { peer: u })?;
            self.map.insert(u, adj);
        }
        Ok(self.map.get(&u).expect("just inserted"))
    }

    /// Number of peers whose adjacency was fetched, excluding the host's own
    /// (local, free) list — the per-request communication cost.
    pub fn contacted(&self) -> usize {
        self.map.len() - usize::from(self.map.contains_key(&self.host))
    }

    /// Every undirected edge among `members` (sorted ascending) known to the
    /// cache, each once.
    pub fn internal_edges(&self, members: &[UserId]) -> Vec<nela_wpg::Edge> {
        debug_assert!(
            members.windows(2).all(|p| p[0] < p[1]),
            "members must be sorted and distinct"
        );
        let mut edges = Vec::new();
        for &m in members {
            if let Some(adj) = self.map.get(&m) {
                for &(v, w) in adj {
                    if m < v && members.binary_search(&v).is_ok() {
                        edges.push(nela_wpg::Edge::new(m, v, w));
                    }
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_wpg::Edge;

    #[test]
    fn cache_fetches_once_and_counts() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let mut local = LocalFetch::new(&g);
        let mut cache = AdjCache::new(&mut local, 0);
        assert_eq!(cache.get(0).unwrap().len(), 1);
        assert_eq!(cache.get(1).unwrap().len(), 2);
        assert_eq!(cache.get(1).unwrap().len(), 2);
        assert_eq!(cache.contacted(), 1, "host's own list is free");
    }

    #[test]
    fn internal_edges_are_deduplicated() {
        let g = Wpg::from_edges(3, &[Edge::new(0, 1, 1), Edge::new(1, 2, 2)]);
        let mut local = LocalFetch::new(&g);
        let mut cache = AdjCache::new(&mut local, 0);
        for u in 0..3 {
            cache.get(u).unwrap();
        }
        let edges = cache.internal_edges(&[0, 1, 2]);
        assert_eq!(edges.len(), 2);
    }

    /// A fetch that fails for a chosen peer.
    struct FailingFetch<'a> {
        inner: LocalFetch<'a>,
        dead: UserId,
    }
    impl PeerFetch for FailingFetch<'_> {
        fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>> {
            if u == self.dead {
                None
            } else {
                self.inner.fetch(u)
            }
        }
    }

    #[test]
    fn unreachable_peer_surfaces_as_error() {
        let g = Wpg::from_edges(2, &[Edge::new(0, 1, 1)]);
        let mut f = FailingFetch {
            inner: LocalFetch::new(&g),
            dead: 1,
        };
        let mut cache = AdjCache::new(&mut f, 0);
        assert!(cache.get(0).is_ok());
        assert_eq!(
            cache.get(1).unwrap_err(),
            crate::ClusterError::PeerUnreachable { peer: 1 }
        );
    }
}
