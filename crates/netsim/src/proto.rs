//! Adapters running the real NELA protocols over the simulated network.
//!
//! `nela-cluster` and `nela-bounding` implement their algorithms against
//! transport traits ([`nela_cluster::fetch::PeerFetch`],
//! [`nela_bounding::protocol::VerifyTransport`]). The adapters here bind
//! those traits to [`Network`], so the *identical algorithm code* that the
//! analytic experiments use also runs under loss, latency and crashes — the
//! robustness scenarios of the paper's §VII.

use crate::network::{Network, RpcError};
use nela_bounding::protocol::VerifyTransport;
use nela_cluster::fetch::PeerFetch;
use nela_geo::UserId;
use nela_wpg::{Weight, Wpg};

/// Adjacency fetch over the simulated network: each fetch is one RPC from
/// the host to the peer; the reply carries the peer's adjacency list read
/// from the ground-truth WPG.
pub struct SimFetch<'a> {
    net: &'a mut Network,
    g: &'a Wpg,
    host: UserId,
}

impl<'a> SimFetch<'a> {
    /// Binds a host's fetches to a network and the ground-truth graph.
    pub fn new(net: &'a mut Network, g: &'a Wpg, host: UserId) -> Self {
        SimFetch { net, g, host }
    }
}

impl PeerFetch for SimFetch<'_> {
    fn fetch(&mut self, u: UserId) -> Option<Vec<(UserId, Weight)>> {
        if u == self.host {
            // The host's own adjacency is local knowledge.
            return Some(self.g.neighbors(u).collect());
        }
        match self.net.rpc(self.host, u) {
            Ok(()) => Some(self.g.neighbors(u).collect()),
            Err(RpcError::PeerDown(_) | RpcError::RetriesExhausted(_)) => None,
        }
    }
}

/// Bound-verification transport over the simulated network: each
/// verification is one RPC from the host to the participant, whose reply
/// compares its private value against the proposed bound.
pub struct SimVerify<'a> {
    net: &'a mut Network,
    host: UserId,
    /// `(user id, private value)` per participant index.
    participants: &'a [(UserId, f64)],
}

impl<'a> SimVerify<'a> {
    /// Binds a bounding run's participants to a network.
    pub fn new(net: &'a mut Network, host: UserId, participants: &'a [(UserId, f64)]) -> Self {
        SimVerify {
            net,
            host,
            participants,
        }
    }
}

impl VerifyTransport for SimVerify<'_> {
    fn len(&self) -> usize {
        self.participants.len()
    }

    fn verify(&mut self, index: usize, bound: f64) -> Option<bool> {
        let (peer, value) = self.participants[index];
        if peer == self.host {
            return Some(value <= bound);
        }
        match self.net.rpc(self.host, peer) {
            Ok(()) => Some(value <= bound),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use nela_bounding::baselines::LinearPolicy;
    use nela_bounding::bbox::{bounding_box_with, BboxOutcome};
    use nela_bounding::protocol::{progressive_upper_bound_with, BoundingError};
    use nela_cluster::distributed::distributed_k_clustering_with;
    use nela_cluster::ClusterError;
    use nela_geo::{Point, Rect};
    use nela_wpg::topology;

    fn no_removed(_: UserId) -> bool {
        false
    }

    /// The four-direction assembly with every directional run reaching the
    /// members through [`SimVerify`] (the host answers its own questions).
    fn bound_over_network(
        net: &mut Network,
        host: UserId,
        host_point: Point,
        members: &[(UserId, Point)],
        step: f64,
    ) -> Result<BboxOutcome, BoundingError> {
        let mut values = Vec::new();
        bounding_box_with(
            host_point,
            Rect::UNIT,
            || Box::new(LinearPolicy::new(step)),
            |direction, run| {
                values.clear();
                values.extend(members.iter().map(|&(u, p)| (u, direction.value(p))));
                run(&mut SimVerify::new(net, host, &values))
            },
        )
    }

    #[test]
    fn clustering_over_reliable_network_matches_analytic_run() {
        let g = topology::small_world(60, 4, 0.2, 8, 21);
        let analytic = nela_cluster::distributed_k_clustering(&g, 7, 5, &no_removed).unwrap();
        let mut net = Network::reliable();
        let mut fetch = SimFetch::new(&mut net, &g, 7);
        let simulated = distributed_k_clustering_with(&mut fetch, 7, 5, &no_removed).unwrap();
        assert_eq!(analytic.host_cluster, simulated.host_cluster);
        assert_eq!(analytic.super_cluster, simulated.super_cluster);
        assert_eq!(analytic.involved_users, simulated.involved_users);
        // One successful RPC per involved peer.
        assert_eq!(net.stats().rpcs_ok as usize, simulated.involved_users);
    }

    #[test]
    fn clustering_survives_moderate_loss() {
        let g = topology::small_world(60, 4, 0.2, 8, 21);
        let mut net = Network::new(NetworkConfig {
            loss: 0.15,
            max_retries: 6,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let mut fetch = SimFetch::new(&mut net, &g, 7);
        let simulated = distributed_k_clustering_with(&mut fetch, 7, 5, &no_removed).unwrap();
        assert!(simulated.host_cluster.is_valid(5));
        assert!(
            net.stats().transmissions > 2 * net.stats().rpcs_ok,
            "loss should force retransmissions"
        );
    }

    #[test]
    fn clustering_aborts_when_required_peer_is_down() {
        // Path graph: the host's only route to k users runs through peer 1.
        let g = Wpg::from_edges(
            5,
            &[
                nela_wpg::Edge::new(0, 1, 1),
                nela_wpg::Edge::new(1, 2, 1),
                nela_wpg::Edge::new(2, 3, 1),
                nela_wpg::Edge::new(3, 4, 1),
            ],
        );
        let mut net = Network::reliable();
        net.crash_peer(1);
        let mut fetch = SimFetch::new(&mut net, &g, 0);
        let err = distributed_k_clustering_with(&mut fetch, 0, 3, &no_removed).unwrap_err();
        assert_eq!(err, ClusterError::PeerUnreachable { peer: 1 });
    }

    #[test]
    fn bounding_over_network_counts_rpcs() {
        let participants: Vec<(UserId, f64)> = vec![(10, 0.05), (11, 0.15), (12, 0.25)];
        let mut net = Network::reliable();
        let mut transport = SimVerify::new(&mut net, 99, &participants);
        let run =
            progressive_upper_bound_with(&mut transport, 0.0, 0.0, &mut LinearPolicy::new(0.1))
                .unwrap();
        assert_eq!(run.rounds, 3);
        assert_eq!(run.messages, 6);
        assert_eq!(net.stats().rpcs_ok, 6);
    }

    #[test]
    fn bounding_host_participates_for_free() {
        let participants: Vec<(UserId, f64)> = vec![(99, 0.05), (11, 0.15)];
        let mut net = Network::reliable();
        let mut transport = SimVerify::new(&mut net, 99, &participants);
        let run =
            progressive_upper_bound_with(&mut transport, 0.0, 0.0, &mut LinearPolicy::new(0.2))
                .unwrap();
        assert_eq!(run.records.len(), 2);
        // Only user 11 needed the radio.
        assert_eq!(net.stats().rpcs_ok, 1);
    }

    #[test]
    fn sim_bounding_box_matches_in_memory_assembly_over_reliable_network() {
        let members: Vec<(UserId, Point)> = vec![
            (3, Point::new(0.30, 0.40)),
            (7, Point::new(0.35, 0.42)),
            (9, Point::new(0.28, 0.47)),
            (12, Point::new(0.33, 0.38)),
        ];
        let points: Vec<Point> = members.iter().map(|&(_, p)| p).collect();
        let host_point = points[0];
        let analytic =
            nela_bounding::bbox::secure_bounding_box(&points, host_point, Rect::UNIT, || {
                Box::new(LinearPolicy::new(0.01))
            })
            .unwrap();
        let mut net = Network::reliable();
        let simulated = bound_over_network(&mut net, 3, host_point, &members, 0.01).unwrap();
        assert_eq!(analytic.rect, simulated.rect);
        assert_eq!(analytic.messages, simulated.messages);
        assert_eq!(analytic.rounds, simulated.rounds);
        // The host (id 3) answered its own questions locally: one RPC per
        // message to each of the three remote peers only.
        assert!(net.stats().rpcs_ok < simulated.messages);
        assert!(net.stats().rpcs_ok > 0);
    }

    #[test]
    fn sim_bounding_box_fails_typed_when_a_participant_crashes() {
        let members: Vec<(UserId, Point)> =
            vec![(3, Point::new(0.30, 0.40)), (7, Point::new(0.95, 0.42))];
        let mut net = Network::reliable();
        net.crash_peer(7);
        let err = bound_over_network(&mut net, 3, members[0].1, &members, 0.05).unwrap_err();
        assert!(matches!(err, BoundingError::Unreachable { .. }));
        assert!(net.stats().rpcs_failed > 0);
    }

    #[test]
    fn sim_bounding_box_rejects_empty_cluster() {
        let mut net = Network::reliable();
        let err = bound_over_network(&mut net, 3, Point::new(0.5, 0.5), &[], 0.05).unwrap_err();
        assert_eq!(err, BoundingError::EmptyCluster);
    }

    #[test]
    fn bounding_reports_unreachable_participant() {
        let participants: Vec<(UserId, f64)> = vec![(10, 0.05), (11, 0.95)];
        let mut net = Network::reliable();
        net.crash_peer(11);
        let mut transport = SimVerify::new(&mut net, 99, &participants);
        let err =
            progressive_upper_bound_with(&mut transport, 0.0, 0.0, &mut LinearPolicy::new(0.1))
                .unwrap_err();
        assert_eq!(
            err,
            nela_bounding::protocol::BoundingError::Unreachable { index: 1 }
        );
    }
}
