//! The end-to-end cloaking engine (paper Fig. 3's workflow).
//!
//! A [`CloakingEngine`] owns the shared cluster registry and serves a
//! sequence of host requests:
//!
//! 1. If the host already belongs to a registered cluster, its cloaked
//!    region is reused — zero clustering cost (workflow arrow ®); if the
//!    cluster exists but was never bounded (it was a by-product of another
//!    host's request), only phase 2 runs.
//! 2. Otherwise phase 1 runs under the configured [`ClusteringAlgo`]
//!    (distributed t-connectivity ¶, centralized t-connectivity at the
//!    anonymizer ¬, or the kNN baseline), and all produced clusters are
//!    registered.
//! 3. Phase 2 (secure bounding, workflow arrow ­) computes the cloaked
//!    rectangle under the configured [`BoundingAlgo`].
//!
//! Two request loops share the phases. The serial [`CloakingEngine::request`]
//! serves every algorithm over a plain [`ClusterRegistry`]; an
//! [`EngineSession`] serves the distributed algorithm from any number of
//! threads over a [`ShardedRegistry`], in process or over a simulated
//! network. Both end in the same phase-2 routine, and both transports differ
//! only in the [`PeerFetch`](nela_cluster::fetch::PeerFetch) and
//! [`VerifyTransport`](nela_bounding::protocol::VerifyTransport) the
//! protocols run over.

use crate::params::Params;
use crate::system::System;
use nela_bounding::baselines::{ExponentialPolicy, LinearPolicy};
use nela_bounding::bbox::{bounding_box_with, BboxOutcome};
use nela_bounding::cost::AreaCost;
use nela_bounding::distribution::Uniform;
use nela_bounding::nbound::SecurePolicy;
use nela_bounding::protocol::{BoundingError, IncrementPolicy, LocalValues};
use nela_cluster::centralized::centralized_k_clustering;
use nela_cluster::distributed::{distributed_k_clustering_with_policy, DistributedOutcome};
use nela_cluster::fetch::LocalFetch;
use nela_cluster::knn::{knn_cluster, TieBreak};
use nela_cluster::registry::{ClaimOutcome, ClusterId, ClusterRegistry, ShardedRegistry};
use nela_cluster::{ClusterError, KPolicy};
use nela_geo::{Point, Rect, UserId};
use nela_netsim::{ConfigError, Network, NetworkConfig, NetworkStats, SimFetch, SimVerify};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Typed failure of one cloaking request: either phase can fail, and under
/// concurrent serving a request can additionally starve on contention. A
/// failed request degrades gracefully — the engine and its registry stay
/// usable for subsequent requests.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// Phase 1 failed: the host cannot reach k users in the remaining WPG
    /// (paper Fig. 5's disconnected problem) or a required peer is down.
    Cluster(ClusterError),
    /// Phase 2 failed: the cluster could not be bounded (empty or malformed
    /// cluster, unreachable participant, misbehaving increment policy).
    Bounding(BoundingError),
    /// Concurrent serving only: the retry budget was exhausted because rival
    /// requests kept claiming members of every computed cluster.
    Contention {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Phase 1 produced a partition that does not cover the host — a
    /// protocol-level inconsistency (impossible over an honest in-memory
    /// graph). The request fails; nothing is registered, so the engine
    /// stays usable.
    HostNotClustered,
    /// Batch serving only: a worker died before filling this host's result
    /// slot. Reported per-request instead of panicking the whole batch.
    SlotUnfilled,
}

impl From<ClusterError> for RequestError {
    fn from(e: ClusterError) -> Self {
        RequestError::Cluster(e)
    }
}

impl From<BoundingError> for RequestError {
    fn from(e: BoundingError) -> Self {
        RequestError::Bounding(e)
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Cluster(e) => write!(f, "clustering failed: {e}"),
            RequestError::Bounding(e) => write!(f, "bounding failed: {e}"),
            RequestError::Contention { attempts } => {
                write!(f, "request starved after {attempts} contended attempts")
            }
            RequestError::HostNotClustered => {
                write!(f, "clustering returned a partition that misses the host")
            }
            RequestError::SlotUnfilled => {
                write!(f, "batch worker never filled this request's result slot")
            }
        }
    }
}

impl std::error::Error for RequestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RequestError::Cluster(e) => Some(e),
            RequestError::Bounding(e) => Some(e),
            RequestError::Contention { .. }
            | RequestError::HostNotClustered
            | RequestError::SlotUnfilled => None,
        }
    }
}

/// Attempts per host before a session request reports
/// [`RequestError::Contention`]; mirrors the retry budget of
/// `nela-netsim`'s `ConcurrentWorkload`.
const MAX_CONCURRENT_ATTEMPTS: u32 = 16;

/// Phase-1 algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusteringAlgo {
    /// Distributed t-connectivity k-clustering (Algorithm 2) — the paper's
    /// proposal.
    TConnDistributed,
    /// Centralized t-connectivity k-clustering at an anonymizer that holds
    /// the full WPG (Algorithm 1): the whole population is clustered when
    /// the first request arrives, costing one message per user.
    TConnCentralized,
    /// The kNN baseline with the given tie-break. Modeled after Chow et
    /// al.'s peer-to-peer grouping (the paper's reference \[8\]): **every**
    /// request forms a fresh group of the host plus its k−1 nearest
    /// not-yet-clustered users — there is no cluster reuse, which is why the
    /// paper's Fig. 12(a) shows kNN's cost flat in S while its region size
    /// deteriorates (hosts inside depleted neighborhoods must span far).
    Knn(TieBreak),
    /// hilbASR (Ghinita et al., the paper's reference \[7\]): every user
    /// submits its **exact coordinates** to the anonymizer, which sorts the
    /// population along a Hilbert curve and buckets every k consecutive
    /// users. The quality ceiling of position-exposing schemes — the very
    /// exposure NELA exists to eliminate. Included as the privacy-tradeoff
    /// reference, never as a recommendation.
    HilbAsr,
}

/// Phase-2 algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundingAlgo {
    /// Non-private exact bounding box (benchmark only).
    Optimal,
    /// The paper's secure bounding: cost-model-optimal N-bounding increments.
    Secure,
    /// Fixed fine increments (one quarter of the model span U per round) —
    /// the most conservative progressive baseline: most rounds, tightest
    /// bound.
    Linear,
    /// First increment U, then doubling — the most aggressive baseline:
    /// fewest rounds, loosest bound.
    Exponential,
}

/// Outcome of one cloaking request.
#[derive(Debug, Clone)]
pub struct CloakingResult {
    /// The requesting host.
    pub host: UserId,
    /// The cloaked region sent with the service request.
    pub region: Rect,
    /// Members in the host's k-anonymity cluster.
    pub cluster_size: usize,
    /// Phase-1 messages (0 when the cluster was reused).
    pub clustering_messages: u64,
    /// Phase-2 verification messages (0 when the region was reused).
    pub bounding_messages: u64,
    /// Phase-2 rounds across the four directional runs.
    pub bounding_rounds: usize,
    /// The anonymity requirement this request had to meet: `Params::k`
    /// under the uniform policy, the max personalized `k_i` over the
    /// host's cluster members otherwise (what `verify::audit_result`
    /// checks the region against).
    pub required_k: usize,
    /// True when both phases were skipped entirely.
    pub reused: bool,
    /// CPU time spent computing bounding increments and running the
    /// protocol logic (the paper's Fig. 13(d) metric).
    pub bounding_cpu: Duration,
}

/// The engine serving a request workload over one [`System`].
pub struct CloakingEngine<'a> {
    system: &'a System,
    clustering: ClusteringAlgo,
    bounding: BoundingAlgo,
    registry: ClusterRegistry,
    centralized_built: bool,
    /// Centralized setup cost incurred by a request that then failed;
    /// attributed to the next successful request so workload totals stay
    /// exact.
    carried_messages: u64,
    /// kNN mode only: users consumed by earlier groups (the kNN baseline
    /// has no shared registry — each request forms a fresh group). Sized on
    /// the first kNN request.
    knn_taken: Vec<bool>,
    /// Personalized per-user anonymity levels (`k_of[u]` is user u's
    /// `k_i`); `None` serves everyone at the uniform `Params::k`.
    k_of: Option<Vec<usize>>,
}

thread_local! {
    /// One member-list scratch per serving thread: the session's reuse fast
    /// path fills it in place ([`ShardedRegistry::lookup_into`]) instead of
    /// cloning the member list, so a warmed worker serves region-reuse
    /// requests with zero heap allocations (the alloc-guard test pins
    /// this). [`EngineSession::request`] takes `&self` from arbitrary caller
    /// threads, so the scratch cannot live in the session without a lock.
    static REQUEST_MEMBERS: std::cell::RefCell<Vec<UserId>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl<'a> CloakingEngine<'a> {
    /// Creates an engine with empty shared state.
    pub fn new(system: &'a System, clustering: ClusteringAlgo, bounding: BoundingAlgo) -> Self {
        let registry = ClusterRegistry::new(system.points.len());
        Self::with_registry(system, clustering, bounding, registry)
    }

    /// Creates an engine that continues serving over an existing registry —
    /// the continuous-pipeline case where the [`System`] snapshot is rebuilt
    /// after a mobility tick but cluster assignments (minus invalidated
    /// ones) survive. Meaningful for the distributed algorithm; the
    /// centralized/hilbASR modes would re-cluster the whole population on
    /// top of the carried assignments.
    ///
    /// # Panics
    /// Panics if the registry population differs from the system's.
    pub fn with_registry(
        system: &'a System,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        registry: ClusterRegistry,
    ) -> Self {
        assert_eq!(
            registry.population(),
            system.points.len(),
            "registry population does not match system"
        );
        Self::over(system, clustering, bounding, registry)
    }

    /// [`CloakingEngine::with_registry`] without the population check.
    fn over(
        system: &'a System,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        registry: ClusterRegistry,
    ) -> Self {
        CloakingEngine {
            system,
            clustering,
            bounding,
            registry,
            centralized_built: false,
            carried_messages: 0,
            knn_taken: Vec::new(),
            k_of: None,
        }
    }

    /// Installs personalized per-user anonymity levels: `k_of[u]` is user
    /// `u`'s own `k_i`, and every produced cluster must reach the max
    /// `k_i` of its members. With all levels equal to `Params::k` the
    /// engine is bit-identical to the uniform path (the differential
    /// tests pin this). Only meaningful for the distributed algorithm —
    /// the centralized, hilbASR, and kNN baselines have no notion of a
    /// per-member requirement.
    ///
    /// # Panics
    /// Panics unless the engine runs [`ClusteringAlgo::TConnDistributed`],
    /// if `k_of` does not cover the population, or if any level is 0.
    pub fn with_personalized_k(mut self, k_of: Vec<usize>) -> Self {
        assert_eq!(
            self.clustering,
            ClusteringAlgo::TConnDistributed,
            "personalized k requires the distributed clustering algorithm"
        );
        assert_eq!(
            k_of.len(),
            self.system.points.len(),
            "one k_i per user required"
        );
        assert!(k_of.iter().all(|&k| k >= 1), "every k_i must be at least 1");
        self.k_of = Some(k_of);
        self
    }

    /// The effective anonymity policy of this engine.
    fn kp(&self) -> KPolicy<'_> {
        match &self.k_of {
            Some(ks) => KPolicy::PerUser(ks),
            None => KPolicy::Uniform(self.system.params.k),
        }
    }

    /// Read access to the shared registry (audits, tests).
    pub fn registry(&self) -> &ClusterRegistry {
        &self.registry
    }

    /// Mutable access to the shared registry (cluster lifetime management:
    /// the mobility driver invalidates clusters whose members drifted apart).
    pub fn registry_mut(&mut self) -> &mut ClusterRegistry {
        &mut self.registry
    }

    /// Consumes the engine, returning the registry so it can be carried into
    /// the next tick's engine via [`CloakingEngine::with_registry`].
    pub fn into_registry(self) -> ClusterRegistry {
        self.registry
    }

    /// Serves one cloaking request.
    ///
    /// # Errors
    /// [`RequestError::Cluster`] when the host cannot reach k users in the
    /// remaining WPG (paper Fig. 5's disconnected problem);
    /// [`RequestError::Bounding`] when phase 2 fails on a malformed cluster.
    pub fn request(&mut self, host: UserId) -> Result<CloakingResult, RequestError> {
        let result = self.request_inner(host);
        record_outcome(&result);
        result
    }

    fn request_inner(&mut self, host: UserId) -> Result<CloakingResult, RequestError> {
        // The kNN baseline forms a fresh group per request (no reuse).
        if let ClusteringAlgo::Knn(tie) = self.clustering {
            return self.request_knn(host, tie);
        }
        // Reuse path: cluster (and possibly region) already known.
        if let Some(id) = self.registry.cluster_id_of(host) {
            return self.serve_registered(host, id, 0);
        }

        // Phase 1.
        let (host_cluster_id, clustering_messages) = match self.clustering {
            ClusteringAlgo::TConnDistributed => {
                let removed = |u: UserId| self.registry.is_clustered(u);
                let out = self.phase1(host, &removed, None)?;
                let mut host_id = None;
                for c in out.all_clusters {
                    let contains_host = c.contains(host);
                    let id = self.registry.register(c);
                    if contains_host {
                        host_id = Some(id);
                    }
                }
                let host_id = host_id.ok_or(RequestError::HostNotClustered)?;
                (host_id, out.involved_users as u64)
            }
            ClusteringAlgo::TConnCentralized | ClusteringAlgo::HilbAsr => {
                let setup = self.ensure_global_built() + self.carried_messages;
                self.carried_messages = 0;
                let Some(id) = self.registry.cluster_id_of(host) else {
                    // Host sits in an underfilled component (for hilbASR:
                    // the population is below k); carry the setup cost (if
                    // any) to the next served request.
                    self.carried_messages = setup;
                    return Err(ClusterError::ComponentTooSmall { reachable: 0 }.into());
                };
                (id, setup)
            }
            // Already dispatched at the top of `request`; keep the arm
            // functional (not `unreachable!`) so no panic path survives on
            // the request surface.
            ClusteringAlgo::Knn(tie) => return self.request_knn(host, tie),
        };

        self.serve_registered(host, host_cluster_id, clustering_messages)
    }

    /// Serves a batch of cloaking requests, returning one result per host in
    /// `hosts` order.
    ///
    /// With `threads <= 1` — or for any clustering algorithm other than the
    /// distributed one, whose setup is inherently global — this is exactly
    /// the serial `for h in hosts { engine.request(h) }` loop, result for
    /// result. With more threads and [`ClusteringAlgo::TConnDistributed`],
    /// the batch runs on the sharded registry path
    /// ([`CloakingEngine::request_many_sharded`]) with
    /// [`auto_shard_axis`]-many shards per axis (or the count pinned by
    /// [`Params::shards`]): requests lock only the grid shards their cluster
    /// touches, conflicts trigger a bounded recompute, and a starved request
    /// reports [`RequestError::Contention`] instead of deadlocking.
    pub fn request_many(
        &mut self,
        hosts: &[UserId],
        threads: usize,
    ) -> Vec<Result<CloakingResult, RequestError>> {
        let threads = nela_par::effective_threads(threads, hosts.len());
        if threads <= 1 || self.clustering != ClusteringAlgo::TConnDistributed {
            return hosts.iter().map(|&h| self.request(h)).collect();
        }
        let axis = match self.system.params.shards {
            0 => auto_shard_axis(threads),
            shards => shard_axis_for_total(shards),
        };
        self.request_many_sharded(hosts, threads, axis)
    }

    /// Serves a batch through an [`EngineSession`] with `shards_per_axis`²
    /// grid shards: the batch opens a session over this engine's registry,
    /// `threads` scoped workers each serve a contiguous chunk of `hosts`
    /// through [`EngineSession::request`], and the session's claims fold
    /// back into the registry at the end. With one worker the session is
    /// deterministic — the results equal the serial `request` loop for any
    /// shard count, which the equivalence tests pin. Falls back to the
    /// serial loop for non-distributed algorithms, whose setup is
    /// inherently global.
    pub fn request_many_sharded(
        &mut self,
        hosts: &[UserId],
        threads: usize,
        shards_per_axis: usize,
    ) -> Vec<Result<CloakingResult, RequestError>> {
        if self.clustering != ClusteringAlgo::TConnDistributed {
            return hosts.iter().map(|&h| self.request(h)).collect();
        }
        let workers = nela_par::effective_threads(threads, hosts.len());
        let stand_in = Self::over(
            self.system,
            self.clustering,
            self.bounding,
            ClusterRegistry::new(0),
        );
        let session = std::mem::replace(self, stand_in).into_session(shards_per_axis);
        let mut results = vec![Err(RequestError::SlotUnfilled); hosts.len()];
        nela_par::for_each_chunk_mut(workers, &mut results, |lo, chunk| {
            for (slot, &host) in chunk.iter_mut().zip(&hosts[lo..]) {
                *slot = session.request(host);
            }
        });
        *self = session.finish();
        results
    }

    /// Serves a kNN-baseline request: a fresh group of the host plus its
    /// k−1 nearest users not consumed by earlier groups, bounded
    /// immediately. Nothing is reused.
    fn request_knn(&mut self, host: UserId, tie: TieBreak) -> Result<CloakingResult, RequestError> {
        self.knn_taken.resize(self.system.points.len(), false);
        let taken = &self.knn_taken;
        let removed = |u: UserId| u != host && taken[u as usize];
        let out = knn_cluster(&self.system.wpg, host, self.system.params.k, &removed, tie)?;
        for &m in &out.cluster.members {
            self.knn_taken[m as usize] = true;
        }
        let clustering_messages = out.involved_users as u64;
        self.phase2(host, &out.cluster.members, None, clustering_messages, None)
    }

    /// Builds the global partition on the first centralized or hilbASR
    /// request. Returns the setup cost in messages, 0 on later calls: the
    /// whole population submits its proximity information (centralized) or
    /// its exact coordinates (hilbASR — the position exposure is the point
    /// of that baseline) once, one message each.
    fn ensure_global_built(&mut self) -> u64 {
        if self.centralized_built {
            return 0;
        }
        self.centralized_built = true;
        let (points, k) = (&self.system.points, self.system.params.k);
        let clusters = match self.clustering {
            ClusteringAlgo::HilbAsr => nela_cluster::hilbert::hilb_asr_partition(points, k),
            _ => centralized_k_clustering(&self.system.wpg, k).clusters,
        };
        for c in clusters {
            self.registry.register(c);
        }
        points.len() as u64
    }

    /// Completes a serial request for a host whose cluster id is known, and
    /// publishes the region if phase 2 had to bound it.
    fn serve_registered(
        &mut self,
        host: UserId,
        id: ClusterId,
        clustering_messages: u64,
    ) -> Result<CloakingResult, RequestError> {
        let rc = self.registry.get(id);
        let stored = rc.region;
        let result = self.phase2(host, &rc.cluster.members, stored, clustering_messages, None);
        if let (None, Ok(r)) = (stored, &result) {
            self.registry.set_region(id, r.region);
        }
        result
    }

    /// Phase 1 (Algorithm 2) for `host` over the remaining WPG — `removed`
    /// marks users already clustered. Peer adjacency lists arrive over `net`
    /// ([`SimFetch`]) when given and are read from the in-memory graph
    /// otherwise. A partition that misses the host fails the request: it
    /// must never be registered (and must never panic the engine).
    fn phase1(
        &self,
        host: UserId,
        removed: &dyn Fn(UserId) -> bool,
        net: Option<&mut Network>,
    ) -> Result<DistributedOutcome, RequestError> {
        let wpg = &self.system.wpg;
        let cluster_span = nela_obs::span(nela_obs::stage::CLUSTERING);
        let outcome = match net {
            None => distributed_k_clustering_with_policy(
                &mut LocalFetch::new(wpg),
                host,
                self.kp(),
                removed,
            ),
            Some(net) => distributed_k_clustering_with_policy(
                &mut SimFetch::new(net, wpg, host),
                host,
                self.kp(),
                removed,
            ),
        };
        drop(cluster_span);
        let out = outcome?;
        if !out.all_clusters.iter().any(|c| c.contains(host)) {
            return Err(RequestError::HostNotClustered);
        }
        Ok(out)
    }

    /// Phase 2, the routine every request path ends in: reuses `region` when
    /// the host's cluster was already bounded, otherwise bounds `members`
    /// now ([`CloakingEngine::bound`], over `net` when given). The caller
    /// publishes a freshly bounded region to its registry.
    fn phase2(
        &self,
        host: UserId,
        members: &[UserId],
        region: Option<Rect>,
        clustering_messages: u64,
        net: Option<&mut Network>,
    ) -> Result<CloakingResult, RequestError> {
        let cluster_size = members.len();
        let required_k = self.kp().required(members.iter().copied());
        if let Some(region) = region {
            return Ok(CloakingResult {
                host,
                region,
                cluster_size,
                clustering_messages,
                bounding_messages: 0,
                bounding_rounds: 0,
                required_k,
                reused: clustering_messages == 0,
                bounding_cpu: Duration::ZERO,
            });
        }
        let started = Instant::now();
        let bbox = self.bound(host, members, net)?;
        let bounding_cpu = started.elapsed();
        nela_obs::observe_duration(nela_obs::stage::BOUNDING, bounding_cpu);
        Ok(CloakingResult {
            host,
            region: bbox.rect,
            cluster_size,
            clustering_messages,
            bounding_messages: bbox.messages,
            bounding_rounds: bbox.rounds,
            required_k,
            reused: false,
            bounding_cpu,
        })
    }

    /// Bounds a cluster under the configured [`BoundingAlgo`]: the four
    /// directional runs of [`bounding_box_with`], where every verification
    /// is one RPC over `net` ([`SimVerify`]; the host answers its own
    /// questions) when given and a read of the member's coordinate
    /// otherwise. Over a lossless network the two are bit-identical; loss
    /// adds retransmissions and can fail the request with
    /// [`BoundingError::Unreachable`].
    ///
    /// [`BoundingAlgo::Optimal`] has no per-round protocol to simulate (its
    /// single exact message is an analytic fiction), so it stays local.
    fn bound(
        &self,
        host: UserId,
        members: &[UserId],
        net: Option<&mut Network>,
    ) -> Result<BboxOutcome, BoundingError> {
        let points = &self.system.points;
        let policy: fn(&Params, f64) -> Box<dyn IncrementPolicy> = match self.bounding {
            BoundingAlgo::Optimal => {
                let member_points: Vec<Point> =
                    members.iter().map(|&m| points[m as usize]).collect();
                let rect = Rect::bounding(&member_points).ok_or(BoundingError::EmptyCluster)?;
                return Ok(BboxOutcome {
                    rect,
                    messages: members.len() as u64,
                    rounds: 1,
                    runs: optimal_runs(members.len(), rect),
                });
            }
            // Per-dimension request-cost coefficient: a bound of extent x
            // on each axis transfers ≈ Cr · n · x² message units.
            BoundingAlgo::Secure => |p, span| {
                let cr_1d = p.cr * p.n_users as f64;
                Box::new(SecurePolicy::new(
                    Uniform::new(span),
                    AreaCost { cr: cr_1d },
                    p.cb,
                ))
            },
            BoundingAlgo::Linear => |_, span| Box::new(LinearPolicy::new(span / 4.0)),
            BoundingAlgo::Exponential => |_, span| Box::new(ExponentialPolicy::new(span)),
        };
        let params = &self.system.params;
        let span = params.uniform_span(members.len());
        let policy = || policy(params, span);
        let host_point = points[host as usize];
        match net {
            None => {
                let mut values = Vec::with_capacity(members.len());
                bounding_box_with(host_point, Rect::UNIT, policy, |direction, run| {
                    values.clear();
                    values.extend(members.iter().map(|&m| direction.value(points[m as usize])));
                    run(&mut LocalValues::new(&values))
                })
            }
            Some(net) => {
                let mut values = Vec::with_capacity(members.len());
                bounding_box_with(host_point, Rect::UNIT, policy, |direction, run| {
                    values.clear();
                    values.extend(
                        members
                            .iter()
                            .map(|&m| (m, direction.value(points[m as usize]))),
                    );
                    run(&mut SimVerify::new(net, host, &values))
                })
            }
        }
    }
}

/// Decorrelates the per-request network seed from the session seed
/// (splitmix64 finalizer): adjacent hosts must not produce correlated loss
/// patterns, and the mix keeps outcomes a pure function of `(seed, host)`.
fn mix_seed(seed: u64, host: UserId) -> u64 {
    let mut z = seed ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A long-lived concurrent cloaking session over the sharded registry — the
/// engine glue for service front-ends (`nela-serve`) that admit requests one
/// at a time from a worker pool instead of in pre-assembled batches.
///
/// [`EngineSession::request`] takes `&self` and is safe to call from any
/// number of threads: membership probes are lock-free atomic reads, both
/// protocol phases run with no locks held, and only the claim itself takes
/// the (few) shard locks the produced clusters touch. The caller decides
/// threading and lifetime ([`CloakingEngine::request_many_sharded`] is one
/// such caller); [`EngineSession::finish`] returns the engine with every
/// cluster claimed during the session folded back into its registry.
///
/// With one calling thread the session is exactly the serial `request` loop,
/// result for result — the determinism contract the replay tests pin.
pub struct EngineSession<'a> {
    engine: CloakingEngine<'a>,
    sharded: ShardedRegistry,
    /// When set, every request's two protocol phases run over the simulated
    /// network instead of in-memory structures (see
    /// [`EngineSession::with_network`]).
    net: Option<NetState>,
}

/// Session-wide network state for netsim-backed serving: a validated
/// template [`Network`] cloned (re-seeded) per request, plus the shared
/// accumulator the per-request tallies drain into.
struct NetState {
    template: Network,
    /// The session-level seed requests are mixed against ([`mix_seed`]).
    seed: u64,
    acc: NetAccumulator,
}

/// Network activity of one request, summed over the networks its attempts
/// ran on.
#[derive(Default)]
struct NetTally {
    stats: NetworkStats,
    virtual_secs: f64,
}

impl NetTally {
    fn add(&mut self, net: &Network) {
        let s = net.stats();
        self.stats.transmissions += s.transmissions;
        self.stats.rpcs_ok += s.rpcs_ok;
        self.stats.rpcs_failed += s.rpcs_failed;
        self.stats.lost += s.lost;
        self.stats.retransmits += s.retransmits;
        self.stats.timeouts += s.timeouts;
        self.virtual_secs += net.now();
    }
}

/// Lock-free tally of network activity across a whole session. Workers add
/// their per-request [`NetTally`] here once per request; relaxed ordering
/// suffices because the fields are independent monotone counters read only
/// after the workers join.
#[derive(Default)]
struct NetAccumulator {
    transmissions: AtomicU64,
    rpcs_ok: AtomicU64,
    rpcs_failed: AtomicU64,
    lost: AtomicU64,
    retransmits: AtomicU64,
    timeouts: AtomicU64,
    virtual_ns: AtomicU64,
}

impl NetAccumulator {
    /// Adds one request's tally to the session totals and to the
    /// `net.request.*` stage histograms.
    fn absorb(&self, tally: &NetTally) {
        let s = &tally.stats;
        let virtual_ns = (tally.virtual_secs * 1e9) as u64;
        self.transmissions
            .fetch_add(s.transmissions, Ordering::Relaxed);
        self.rpcs_ok.fetch_add(s.rpcs_ok, Ordering::Relaxed);
        self.rpcs_failed.fetch_add(s.rpcs_failed, Ordering::Relaxed);
        self.lost.fetch_add(s.lost, Ordering::Relaxed);
        self.retransmits.fetch_add(s.retransmits, Ordering::Relaxed);
        self.timeouts.fetch_add(s.timeouts, Ordering::Relaxed);
        self.virtual_ns.fetch_add(virtual_ns, Ordering::Relaxed);
        nela_obs::observe(nela_obs::stage::NET_RETRANS_PER_REQ, s.retransmits);
        nela_obs::observe(nela_obs::stage::NET_TIMEOUTS_PER_REQ, s.timeouts);
        nela_obs::observe(nela_obs::stage::NET_VIRTUAL_TIME, virtual_ns);
    }

    fn snapshot(&self) -> SessionNetStats {
        SessionNetStats {
            transmissions: self.transmissions.load(Ordering::Relaxed),
            rpcs_ok: self.rpcs_ok.load(Ordering::Relaxed),
            rpcs_failed: self.rpcs_failed.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            virtual_s: self.virtual_ns.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Aggregate network activity of a netsim-backed session — the sum of every
/// request's per-request [`NetworkStats`] (reuse fast-path requests
/// contribute nothing: they never touch the radio).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SessionNetStats {
    /// Transmissions put on the air (requests + replies, lost included).
    pub transmissions: u64,
    /// Completed request/reply exchanges.
    pub rpcs_ok: u64,
    /// RPCs abandoned after the full retry budget.
    pub rpcs_failed: u64,
    /// Transmissions that were lost.
    pub lost: u64,
    /// RPC attempts beyond the first.
    pub retransmits: u64,
    /// Timeouts charged for lost transmissions.
    pub timeouts: u64,
    /// Total simulated seconds requests spent on the radio.
    pub virtual_s: f64,
}

impl<'a> CloakingEngine<'a> {
    /// Opens a concurrent serving session with `shards_per_axis`² grid
    /// shards (see [`auto_shard_axis`] for a worker-count-derived choice),
    /// consuming the engine; its registry seeds the session.
    ///
    /// # Panics
    /// Panics unless the engine runs [`ClusteringAlgo::TConnDistributed`] —
    /// the centralized, hilbASR, and kNN modes have inherently global setup
    /// and no lock-free request path.
    pub fn into_session(mut self, shards_per_axis: usize) -> EngineSession<'a> {
        assert_eq!(
            self.clustering,
            ClusteringAlgo::TConnDistributed,
            "EngineSession requires the distributed clustering algorithm"
        );
        let base = std::mem::replace(&mut self.registry, ClusterRegistry::new(0));
        let sharded = ShardedRegistry::new(base, &self.system.points, shards_per_axis);
        EngineSession {
            engine: self,
            sharded,
            net: None,
        }
    }
}

impl<'a> EngineSession<'a> {
    /// The system this session serves.
    pub fn system(&self) -> &'a System {
        self.engine.system
    }

    /// Routes every subsequent request's protocol phases through a
    /// simulated network built from `cfg`: phase-1 adjacency fetches and
    /// phase-2 verification rounds each become RPCs subject to the config's
    /// loss, latency, and retry budget. Per-request RPC retransmit/timeout
    /// counts flow into the `net.request.*` stage histograms, and the
    /// session-wide totals are readable via [`EngineSession::net_stats`].
    /// The registry itself stays in-process (it models state the host
    /// already holds), so the reuse fast path never touches the radio.
    ///
    /// Determinism: each request attempt's network is seeded from
    /// `(cfg.seed, host)`, so at a fixed config seed the outcome of every
    /// request is independent of worker count and scheduling —
    /// replay-stable.
    ///
    /// # Errors
    /// Rejects an invalid network config (same rules as
    /// [`NetworkConfig::validate`]) before any request runs.
    pub fn with_network(mut self, cfg: NetworkConfig) -> Result<Self, ConfigError> {
        let template = Network::new(cfg)?;
        self.net = Some(NetState {
            template,
            seed: cfg.seed,
            acc: NetAccumulator::default(),
        });
        Ok(self)
    }

    /// Aggregate network activity so far, or `None` for in-process
    /// sessions. Safe to call while workers are still serving (the totals
    /// are monotone counters), but meant for after they join.
    pub fn net_stats(&self) -> Option<SessionNetStats> {
        self.net.as_ref().map(|n| n.acc.snapshot())
    }

    /// Serves one cloaking request. Thread-safe: membership probes are
    /// lock-free atomic reads, clustering and bounding run with no locks
    /// held, and only the claim itself takes the (few) shard locks the
    /// produced clusters touch.
    ///
    /// # Errors
    /// The same failures as [`CloakingEngine::request`], plus
    /// [`RequestError::Contention`] when rival requests kept claiming
    /// members of every computed cluster, plus — on netsim-backed sessions
    /// — clustering/bounding failures caused by exhausted RPC retries.
    pub fn request(&self, host: UserId) -> Result<CloakingResult, RequestError> {
        let mut tally = None;
        let result =
            REQUEST_MEMBERS.with(|members| self.serve(host, &mut members.borrow_mut(), &mut tally));
        if let (Some(net), Some(tally)) = (&self.net, &tally) {
            net.acc.absorb(tally);
        }
        record_outcome(&result);
        result
    }

    /// The optimistic retry/claim loop. Each attempt first checks the
    /// host's registry entry: a bounded region is reused with no radio
    /// involved. Otherwise the attempt runs on a fresh network seeded
    /// [`mix_seed`]`(seed, host)` when the session has one, and its traffic
    /// is added to `tally` (left `None` when no network was built).
    fn serve(
        &self,
        host: UserId,
        members: &mut Vec<UserId>,
        tally: &mut Option<NetTally>,
    ) -> Result<CloakingResult, RequestError> {
        for _attempt in 1..=MAX_CONCURRENT_ATTEMPTS {
            // The host may have been claimed by a rival since the last
            // attempt. `lookup_into` fills the reused scratch instead of
            // cloning the member list.
            let known = self.sharded.lookup_into(host, members);
            if let Some((_, Some(region))) = known {
                return self.engine.phase2(host, members, Some(region), 0, None);
            }
            let mut net = self
                .net
                .as_ref()
                .map(|n| n.template.with_seed(mix_seed(n.seed, host)));
            let attempt = self.attempt(host, known.map(|(id, _)| id), members, net.as_mut());
            if let Some(net) = &net {
                tally.get_or_insert_with(NetTally::default).add(net);
            }
            match attempt.transpose() {
                Some(result) => return result,
                // A rival won a member: recompute on the next attempt.
                None => nela_obs::add(nela_obs::counter::CLAIM_RETRIES, 1),
            }
        }
        Err(RequestError::Contention {
            attempts: MAX_CONCURRENT_ATTEMPTS,
        })
    }

    /// One attempt for a host without a bounded region: phase 2 alone when
    /// its cluster `claimed` already exists (with `members`), otherwise
    /// phase 1, the claim and phase 2. Publishes the bounded region first
    /// writer wins — bounding is deterministic per cluster, so rivals
    /// compute the identical rectangle. `Ok(None)` when a rival claimed a
    /// member of the computed clusters first.
    fn attempt(
        &self,
        host: UserId,
        claimed: Option<ClusterId>,
        members: &[UserId],
        mut net: Option<&mut Network>,
    ) -> Result<Option<CloakingResult>, RequestError> {
        let fresh: Vec<UserId>;
        let (id, members, clustering_messages) = match claimed {
            Some(id) => (id, members, 0),
            None => {
                // Membership probes read the assignment atomics directly —
                // one plain load each. The view can go stale
                // mid-computation; safety never rests on it, because
                // `try_claim` re-validates every member under the shard
                // locks and reports a conflict. The host is force-read as
                // present: a rival may claim it between the lookup and the
                // first probe, and the algorithm (correctly) asserts its
                // host is never removed — the claim-time check catches that
                // rival too.
                let removed = |u: UserId| u != host && self.sharded.is_clustered(u);
                let out = self.engine.phase1(host, &removed, net.as_deref_mut())?;
                let claim_span = nela_obs::span(nela_obs::stage::REGISTRY_CLAIM);
                let claim = self.sharded.try_claim(host, out.all_clusters);
                drop(claim_span);
                match claim {
                    ClaimOutcome::Claimed { id, members } => {
                        fresh = members;
                        (id, fresh.as_slice(), out.involved_users as u64)
                    }
                    ClaimOutcome::Conflict => return Ok(None),
                    ClaimOutcome::HostMissing => return Err(RequestError::HostNotClustered),
                }
            }
        };
        let result = self
            .engine
            .phase2(host, members, None, clustering_messages, net)?;
        self.sharded.set_region(id, result.region);
        Ok(Some(result))
    }

    /// Ends the session, folding all claimed clusters back into the
    /// engine's registry (audits, reciprocity checks, carry-over).
    pub fn finish(self) -> CloakingEngine<'a> {
        let mut engine = self.engine;
        engine.registry = self.sharded.into_registry();
        engine
    }
}

/// What one serving session leaves behind for the next: its folded-back
/// registry plus the exact positions it clustered against. The positions
/// are the audit baseline — [`CloakingEngine::resume_session`] re-publishes
/// a carried cluster only if **every** member still sits where the
/// checkpoint recorded it, so a stale region can never serve a moved user.
#[derive(Clone, Debug)]
pub struct SessionCheckpoint {
    registry: ClusterRegistry,
    positions: Vec<Point>,
}

impl SessionCheckpoint {
    /// Number of users the checkpointed session served.
    pub fn population(&self) -> usize {
        self.positions.len()
    }

    /// Number of live (non-tombstone) clusters in the checkpoint.
    pub fn active_clusters(&self) -> usize {
        self.registry.active_cluster_count()
    }
}

/// Outcome of the epoch audit a resumed session runs over its checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CarryOver {
    /// Clusters re-published into the new session (all members unmoved).
    pub carried: usize,
    /// Clusters dropped by the audit (a member moved, or the population
    /// changed shape entirely).
    pub dropped: usize,
    /// Users covered by the carried clusters — they will hit the region
    /// reuse fast path on their first request of the new session.
    pub carried_users: usize,
}

impl<'a> CloakingEngine<'a> {
    /// Consumes the engine into a [`SessionCheckpoint`] carrying its
    /// registry and the positions it was built over. Typically called on
    /// the engine returned by [`EngineSession::finish`].
    pub fn checkpoint(self) -> SessionCheckpoint {
        SessionCheckpoint {
            positions: self.system.points.clone(),
            registry: self.registry,
        }
    }

    /// Opens a serving session that carries forward the previous session's
    /// still-valid clusters. Each active checkpoint cluster is audited
    /// against the new system's positions: if any member moved (bitwise
    /// position inequality — mobility epochs re-sample coordinates, so an
    /// unmoved user is bit-identical), the cluster is invalidated before
    /// the session opens. A checkpoint whose population does not match the
    /// system is unusable and degrades to a cold start.
    ///
    /// Returns the session plus the audit's [`CarryOver`] accounting.
    ///
    /// # Panics
    /// Panics unless `clustering` is [`ClusteringAlgo::TConnDistributed`]
    /// (sessions have no other request path).
    pub fn resume_session(
        system: &'a System,
        clustering: ClusteringAlgo,
        bounding: BoundingAlgo,
        checkpoint: SessionCheckpoint,
        shards_per_axis: usize,
    ) -> (EngineSession<'a>, CarryOver) {
        if checkpoint.positions.len() != system.points.len() {
            let dropped = checkpoint.registry.active_cluster_count();
            let session =
                CloakingEngine::new(system, clustering, bounding).into_session(shards_per_axis);
            return (
                session,
                CarryOver {
                    carried: 0,
                    dropped,
                    carried_users: 0,
                },
            );
        }
        let mut registry = checkpoint.registry;
        let moved = |u: UserId| {
            let u = u as usize;
            // Bitwise, not epsilon: an unmoved user's coordinates are the
            // exact same floats; any perturbation must fail the audit.
            checkpoint.positions[u].x != system.points[u].x
                || checkpoint.positions[u].y != system.points[u].y
        };
        let stale: Vec<ClusterId> = registry
            .active_clusters()
            .filter(|(_, rc)| rc.cluster.members.iter().any(|&m| moved(m)))
            .map(|(id, _)| id)
            .collect();
        let dropped = stale.len();
        for id in stale {
            registry.invalidate(id);
        }
        let mut carry = CarryOver {
            carried: 0,
            dropped,
            carried_users: 0,
        };
        for (_, rc) in registry.active_clusters() {
            carry.carried += 1;
            carry.carried_users += rc.cluster.members.len();
        }
        let session = CloakingEngine::with_registry(system, clustering, bounding, registry)
            .into_session(shards_per_axis);
        (session, carry)
    }
}

/// Tallies one request outcome into the global obs counters. Called once
/// per request, by [`CloakingEngine::request`] and
/// [`EngineSession::request`].
fn record_outcome(result: &Result<CloakingResult, RequestError>) {
    if !nela_obs::enabled() {
        return;
    }
    match result {
        Ok(r) => {
            nela_obs::add(nela_obs::counter::REQ_SERVED, 1);
            if r.reused {
                nela_obs::add(nela_obs::counter::REQ_REUSED, 1);
            }
        }
        Err(e) => {
            nela_obs::add(nela_obs::counter::REQ_FAILED, 1);
            if matches!(e, RequestError::Contention { .. }) {
                nela_obs::add(nela_obs::counter::REQ_CONTENTION, 1);
            }
        }
    }
}

/// Shards-per-axis chosen for a worker count: about four shards per worker
/// (so rival claims rarely meet in one shard), laid out on a square grid —
/// axis = ⌈√(4·threads)⌉, clamped to \[1, 64\] so shards never get smaller
/// than a few radio ranges on the unit square.
pub fn auto_shard_axis(threads: usize) -> usize {
    (((4 * threads.max(1)) as f64).sqrt().ceil() as usize).clamp(1, 64)
}

/// Shards-per-axis for a user-pinned *total* shard count ([`Params::shards`]):
/// the smallest square grid with at least that many shards.
pub fn shard_axis_for_total(shards: usize) -> usize {
    ((shards.max(1) as f64).sqrt().ceil() as usize).clamp(1, 64)
}

/// Degenerate per-direction runs for the optimal algorithm (kept so
/// [`BboxOutcome`] stays uniform across algorithms).
fn optimal_runs(members: usize, rect: Rect) -> [nela_bounding::protocol::BoundingRun; 4] {
    let one = |bound: f64| nela_bounding::protocol::BoundingRun {
        bound,
        rounds: 1,
        messages: members as u64 / 4, // OPT's single message covers all four directions
        records: Vec::new(),
        bounds: vec![bound],
    };
    [
        one(rect.max_x),
        one(-rect.min_x),
        one(rect.max_y),
        one(-rect.min_y),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nela_cluster::distributed::distributed_k_clustering;

    fn small_system() -> System {
        System::build(&Params {
            k: 5,
            ..Params::scaled(2_000)
        })
    }

    /// First host in the sequence that can actually reach k users (random
    /// hosts may sit in underfilled components — paper Fig. 5).
    fn servable_host(s: &System, seed: u64) -> UserId {
        s.host_sequence(300, seed)
            .into_iter()
            .find(|&h| distributed_k_clustering(&s.wpg, h, s.params.k, &|_| false).is_ok())
            .unwrap_or_else(|| {
                panic!(
                    "no servable host in 300-host sample (n={}, k={}, seed={seed})",
                    s.points.len(),
                    s.params.k
                )
            })
    }

    #[test]
    fn request_produces_covering_region() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let host = servable_host(&s, 1);
        let r = e.request(host).unwrap();
        assert!(r.cluster_size >= 5);
        assert!(r.region.contains(&s.points[host as usize]));
        // Every cluster member is inside the region.
        let rc = e.registry().cluster_of(host).unwrap();
        for &m in &rc.cluster.members {
            assert!(r.region.contains(&s.points[m as usize]));
        }
        assert!(r.clustering_messages > 0);
        assert!(r.bounding_messages > 0);
    }

    #[test]
    fn second_request_by_cluster_member_reuses() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let host = servable_host(&s, 2);
        let first = e.request(host).unwrap();
        let peer = e
            .registry()
            .cluster_of(host)
            .unwrap()
            .cluster
            .members
            .iter()
            .copied()
            .find(|&m| m != host)
            .unwrap();
        let second = e.request(peer).unwrap();
        assert!(second.reused);
        assert_eq!(second.region, first.region);
        assert_eq!(second.clustering_messages + second.bounding_messages, 0);
    }

    #[test]
    fn centralized_pays_population_once() {
        let s = small_system();
        let mut e =
            CloakingEngine::new(&s, ClusteringAlgo::TConnCentralized, BoundingAlgo::Optimal);
        // Some hosts may be unservable; the N-message setup cost must be
        // attributed exactly once across the successful requests.
        let mut total = 0u64;
        let mut successes = 0;
        for h in s.host_sequence(30, 3) {
            if let Ok(r) = e.request(h) {
                total += r.clustering_messages;
                successes += 1;
            }
        }
        assert!(successes > 1);
        assert_eq!(total, s.points.len() as u64);
    }

    #[test]
    fn knn_cluster_is_exactly_k() {
        let s = small_system();
        let mut e =
            CloakingEngine::new(&s, ClusteringAlgo::Knn(TieBreak::Id), BoundingAlgo::Optimal);
        let host = servable_host(&s, 4);
        let r = e.request(host).unwrap();
        assert_eq!(r.cluster_size, 5);
    }

    #[test]
    fn optimal_region_is_subset_of_secure_region() {
        let s = small_system();
        let host = servable_host(&s, 5);
        let mut opt =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Optimal);
        let mut sec =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let ro = opt.request(host).unwrap();
        let rs = sec.request(host).unwrap();
        assert_eq!(ro.cluster_size, rs.cluster_size, "same phase 1");
        assert!(rs.region.contains_rect(&ro.region));
        assert!(rs.region.area() >= ro.region.area());
    }

    #[test]
    fn linear_bound_tighter_than_exponential() {
        let s = small_system();
        let host = servable_host(&s, 6);
        let mut lin =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Linear);
        let mut exp = CloakingEngine::new(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Exponential,
        );
        let rl = lin.request(host).unwrap();
        let re = exp.request(host).unwrap();
        assert!(rl.region.area() <= re.region.area());
        assert!(rl.bounding_messages >= re.bounding_messages);
    }

    #[test]
    fn hilb_asr_serves_everyone_and_is_tight_where_both_serve() {
        // The exposure baseline buckets the whole population — it never
        // fails — and on a uniform population its exact-coordinate ordering
        // yields tighter regions than proximity-only clustering. (On skewed
        // street data its fixed buckets straddle sparse gaps and can lose;
        // the exp_attack experiment shows both regimes.)
        let s = System::build(&Params {
            k: 5,
            distribution: nela_geo::SpatialDistribution::Uniform,
            // Uniform data has no dense streets: widen the radio range so
            // the expected in-range peer count stays ~10.
            delta: 0.04,
            ..Params::scaled(2_000)
        });
        let hosts = s.host_sequence(60, 8);
        let mut hilb = CloakingEngine::new(&s, ClusteringAlgo::HilbAsr, BoundingAlgo::Optimal);
        let mut tconn =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Optimal);
        let mut hilb_area = 0.0;
        let mut tconn_area = 0.0;
        let mut both = 0;
        for &h in &hosts {
            let hr = hilb.request(h);
            assert!(hr.is_ok(), "hilbASR must serve every host");
            if let (Ok(a), Ok(b)) = (hr, tconn.request(h)) {
                hilb_area += a.region.area();
                tconn_area += b.region.area();
                both += 1;
            }
        }
        assert!(both > 20, "too few commonly served hosts");
        assert!(
            hilb_area < tconn_area,
            "on uniform data exact positions must win: {} vs {}",
            hilb_area / both as f64,
            tconn_area / both as f64
        );
    }

    #[test]
    fn session_equals_serial_loop_single_threaded() {
        let s = small_system();
        let hosts = s.host_sequence(60, 9);
        let mut serial =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        let looped: Vec<_> = hosts.iter().map(|&h| serial.request(h)).collect();
        for axis in [1usize, 3] {
            let session =
                CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                    .into_session(axis);
            for (&h, expect) in hosts.iter().zip(&looped) {
                let got = session.request(h);
                match (expect, &got) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(a.region, b.region, "axis {axis}, host {h}");
                        assert_eq!(a.reused, b.reused, "axis {axis}, host {h}");
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("session diverged from serial loop at host {h}, axis {axis}"),
                }
            }
            let engine = session.finish();
            assert_eq!(engine.registry().reciprocity_violation(), None);
        }
    }

    #[test]
    fn session_serves_concurrently_and_folds_back() {
        let s = small_system();
        let hosts = s.host_sequence(80, 10);
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(auto_shard_axis(4));
        let served: usize = std::thread::scope(|scope| {
            let session = &session;
            let handles: Vec<_> = hosts
                .chunks(hosts.len().div_ceil(4))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .filter(|&&h| session.request(h).is_ok())
                            .count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(served > 0, "concurrent session served nothing");
        let engine = session.finish();
        assert_eq!(engine.registry().reciprocity_violation(), None);
        assert!(engine.registry().active_cluster_count() > 0);
    }

    #[test]
    #[should_panic(expected = "distributed clustering")]
    fn session_rejects_non_distributed_algorithms() {
        let s = small_system();
        let _ = CloakingEngine::new(&s, ClusteringAlgo::TConnCentralized, BoundingAlgo::Secure)
            .into_session(2);
    }

    #[test]
    fn reciprocity_holds_through_workload() {
        let s = small_system();
        let mut e = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure);
        for h in s.host_sequence(50, 7) {
            let _ = e.request(h);
        }
        assert_eq!(e.registry().reciprocity_violation(), None);
    }

    #[test]
    fn lossless_netsim_session_equals_in_process_session() {
        let s = small_system();
        let hosts = s.host_sequence(60, 11);
        let plain = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
            .into_session(2);
        let simmed =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2)
                .with_network(NetworkConfig::default())
                .unwrap();
        for &h in &hosts {
            match (plain.request(h), simmed.request(h)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.region, b.region, "host {h}");
                    assert_eq!(a.cluster_size, b.cluster_size, "host {h}");
                    assert_eq!(a.reused, b.reused, "host {h}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("netsim session diverged from in-process at host {h}"),
            }
        }
        let net = simmed.net_stats().unwrap();
        assert!(net.transmissions > 0, "no traffic recorded");
        assert_eq!(net.retransmits, 0, "lossless network retransmitted");
        assert_eq!(net.timeouts, 0);
        assert_eq!(net.rpcs_failed, 0);
        assert!(net.virtual_s > 0.0);
        assert!(plain.net_stats().is_none());
    }

    #[test]
    fn lossy_netsim_session_replays_identically() {
        let s = small_system();
        let hosts = s.host_sequence(60, 12);
        let cfg = NetworkConfig {
            loss: 0.3,
            max_retries: 2,
            seed: 42,
            ..NetworkConfig::default()
        };
        let run = || {
            let session =
                CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                    .into_session(2)
                    .with_network(cfg)
                    .unwrap();
            let results: Vec<_> = hosts
                .iter()
                .map(|&h| session.request(h).map(|r| (r.region, r.reused)))
                .collect();
            (results, session.net_stats().unwrap())
        };
        let (a, stats_a) = run();
        let (b, stats_b) = run();
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (Ok(p), Ok(q)) => assert_eq!(p, q),
                (Err(_), Err(_)) => {}
                _ => panic!("lossy replay diverged"),
            }
        }
        assert_eq!(stats_a, stats_b, "network accounting diverged on replay");
        assert!(stats_a.retransmits > 0, "30% loss produced no retransmits");
        assert!(stats_a.timeouts > 0);
    }

    #[test]
    fn lossy_netsim_replay_repeats_error_payloads() {
        // Heavy loss exhausts retries while a super-cluster is being closed
        // under t. The closure fetches peers in id order, so a replay in the
        // same process names the same unreachable peer, not just the same
        // error kind.
        let s = small_system();
        let hosts = s.host_sequence(400, 14);
        let cfg = NetworkConfig {
            loss: 0.3,
            max_retries: 2,
            seed: 9,
            ..NetworkConfig::default()
        };
        let run = || {
            let session =
                CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                    .into_session(2)
                    .with_network(cfg)
                    .unwrap();
            hosts
                .iter()
                .map(|&h| {
                    session.request(h).map(|r| {
                        (
                            r.region,
                            r.cluster_size,
                            r.clustering_messages,
                            r.bounding_messages,
                            r.reused,
                        )
                    })
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert!(
            a.iter().any(|r| matches!(
                r,
                Err(RequestError::Cluster(ClusterError::PeerUnreachable { .. }))
            )),
            "loss never exhausted a clustering fetch"
        );
        assert_eq!(a, run(), "lossy replay diverged");
    }

    #[test]
    fn checkpoint_resume_carries_unmoved_clusters() {
        let s = small_system();
        let hosts = s.host_sequence(40, 13);
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2);
        for &h in &hosts {
            let _ = session.request(h);
        }
        let checkpoint = session.finish().checkpoint();
        let active = checkpoint.active_clusters();
        assert!(active > 0, "workload registered no clusters");

        // Nothing moved: every cluster survives the audit, and a member of
        // a carried cluster reuses its region on the first request.
        let (resumed, carry) = CloakingEngine::resume_session(
            &s,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint.clone(),
            2,
        );
        assert_eq!(carry.carried, active);
        assert_eq!(carry.dropped, 0);
        assert!(carry.carried_users > 0);
        let member = hosts
            .iter()
            .copied()
            .find(|&h| resumed.request(h).map(|r| r.reused).unwrap_or(false))
            .expect("no carried member hit the reuse path");
        let _ = member;

        // Move one member of one carried cluster: exactly that cluster is
        // dropped, the rest still carry. (The reuse probes above may have
        // registered new clusters, so recount before the second resume.)
        let mut moved = s.clone();
        let engine = resumed.finish();
        let active2 = engine.registry().active_cluster_count();
        let victim = engine
            .registry()
            .active_clusters()
            .next()
            .map(|(_, rc)| rc.cluster.members[0])
            .unwrap();
        moved.points[victim as usize].x += 1e-9;
        let (_, carry2) = CloakingEngine::resume_session(
            &moved,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            engine.checkpoint(),
            2,
        );
        assert_eq!(carry2.dropped, 1, "exactly the victim's cluster drops");
        assert_eq!(carry2.carried, active2 - 1);
    }

    #[test]
    fn resume_with_zero_survivors_serves_like_cold() {
        let s = small_system();
        let hosts = s.host_sequence(40, 14);
        let warm = CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
            .into_session(2);
        for &h in &hosts {
            let _ = warm.request(h);
        }
        let checkpoint = warm.finish().checkpoint();

        // Every user moved: the audit drops everything...
        let mut moved = s.clone();
        for p in &mut moved.points {
            p.x = (p.x + 0.25) % 1.0;
        }
        let (resumed, carry) = CloakingEngine::resume_session(
            &moved,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint,
            2,
        );
        assert_eq!(carry.carried, 0);
        assert_eq!(carry.carried_users, 0);
        assert!(carry.dropped > 0);

        // ...and the resumed session serves exactly like a cold one.
        let cold = CloakingEngine::new(
            &moved,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        )
        .into_session(2);
        for &h in &hosts {
            match (cold.request(h), resumed.request(h)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.region, b.region, "host {h}");
                    assert_eq!(a.reused, b.reused, "host {h}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("zero-survivor resume diverged from cold at host {h}"),
            }
        }
    }

    #[test]
    fn resume_with_mismatched_population_degrades_to_cold_start() {
        let s = small_system();
        let session =
            CloakingEngine::new(&s, ClusteringAlgo::TConnDistributed, BoundingAlgo::Secure)
                .into_session(2);
        let host = servable_host(&s, 15);
        session.request(host).unwrap();
        let checkpoint = session.finish().checkpoint();
        let other = System::build(&Params {
            k: 5,
            ..Params::scaled(1_000)
        });
        let (_, carry) = CloakingEngine::resume_session(
            &other,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint,
            2,
        );
        assert_eq!(carry.carried, 0);
        assert!(carry.dropped > 0);
    }
}
