//! The serving loop: producer-paced admission, a worker pool over the
//! sharded cloaking session, and per-request end-to-end measurement.
//!
//! One session is: draw the full arrival schedule ([`crate::schedule`]),
//! start `workers` threads on the [`RequestQueue`], then pace the producer
//! through the schedule in real time — each arrival is enqueued at its
//! scheduled instant or shed if the queue is full. Every admitted request
//! flows through the whole paper pipeline on whichever worker picks it up:
//!
//! ```text
//! queue wait → cloak (EngineSession: clustering + secure bounding)
//!            → LbsServer::handle (cloaked range / kRNN over the region)
//!            → refine_range / refine_knn at the true position
//! ```
//!
//! and contributes one end-to-end latency (scheduled arrival → refined
//! answer). Queue wait, e2e latency and the deadline all start at the
//! request's *scheduled* instant, not at the moment the producer got round
//! to enqueueing it: a producer lagging behind its schedule therefore shows
//! up as latency instead of hiding it (no coordinated omission).
//! After the last arrival the queue closes, workers drain it and exit, and
//! the session folds its sharded registry back into the engine
//! ([`nela::EngineSession::finish`]) so reciprocity audits still hold.
//!
//! With one worker the run is deterministic end to end: FIFO admission,
//! serial service, and the engine's single-worker sharded path is pinned
//! equal to the serial request loop — so served/shed counts and the
//! order-independent answer digest replay exactly (shed is timing-free only
//! when the queue capacity covers all requests; the replay tests use that).

use crate::arrivals::{schedule, Arrival, QueryKind};
use crate::config::{ServeConfig, ServeConfigError, Transport};
use crate::queue::{Pop, Push, RequestQueue};
use crate::report::{answer_hash, NetReport, ServeReport, StageStats};
use nela::{
    auto_shard_axis, shard_axis_for_total, BoundingAlgo, CarryOver, CloakingEngine, ClusteringAlgo,
    EngineSession, Params, SessionCheckpoint, System,
};
use nela_geo::{Point, UserId};
use nela_lbs::{refine_knn, refine_range, CloakedQuery, LbsServer, PoiStore};
use std::time::{Duration, Instant};

/// One admitted request in flight.
struct Job {
    id: u32,
    host: UserId,
    query: QueryKind,
    /// The instant the schedule says this request arrives — the origin of
    /// its queue wait, e2e latency and deadline.
    scheduled: Instant,
    deadline: Option<Instant>,
}

impl Job {
    /// The job for `arrival` in a session started at `start`.
    fn new(arrival: &Arrival, start: Instant, deadline: Option<Duration>) -> Self {
        let scheduled = start + arrival.at;
        Job {
            id: arrival.id,
            host: arrival.host,
            query: arrival.query,
            scheduled,
            deadline: deadline.map(|d| scheduled + d),
        }
    }
}

/// What one worker measured; merged into the report after the join.
#[derive(Default)]
struct WorkerLog {
    e2e: Vec<u64>,
    queue_wait: Vec<u64>,
    cloak: Vec<u64>,
    lbs: Vec<u64>,
    refine: Vec<u64>,
    served: usize,
    failed: usize,
    expired: usize,
    /// Served requests answered from an already-bounded region.
    reused: usize,
    candidates: u64,
    digest: u64,
    /// Offset of this worker's last completion from session start.
    last_done: Duration,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Answers one cloaked query and refines it at the true position. Returns
/// (candidate count, refined answer, lbs ns, refine ns).
fn answer(
    server: &LbsServer,
    region: &nela_geo::Rect,
    position: Point,
    query: QueryKind,
) -> (usize, Vec<u32>, u64, u64) {
    let lbs_start = Instant::now();
    match query {
        QueryKind::Range(radius) => {
            let resp = server.handle(region, &CloakedQuery::Range { radius });
            let refine_start = Instant::now();
            let ans = refine_range(server.store(), &resp.candidates, position, radius);
            (
                resp.candidates.len(),
                ans,
                ns(refine_start - lbs_start),
                ns(refine_start.elapsed()),
            )
        }
        QueryKind::Knn(k) => {
            let resp = server.handle(region, &CloakedQuery::Knn { k });
            let refine_start = Instant::now();
            let ans = refine_knn(server.store(), &resp.candidates, position, k);
            (
                resp.candidates.len(),
                ans,
                ns(refine_start - lbs_start),
                ns(refine_start.elapsed()),
            )
        }
    }
}

fn worker_loop(
    queue: &RequestQueue<Job>,
    session: &EngineSession<'_>,
    server: &LbsServer,
    points: &[Point],
    start: Instant,
) -> WorkerLog {
    let mut log = WorkerLog::default();
    loop {
        let job = match queue.pop() {
            Pop::Item(job) => job,
            Pop::Closed => return log,
        };
        let picked = Instant::now();
        let wait = picked - job.scheduled;
        nela_obs::observe_duration(nela_obs::stage::SERVE_QUEUE_WAIT, wait);
        log.queue_wait.push(ns(wait));
        if job.deadline.is_some_and(|d| picked > d) {
            log.expired += 1;
            nela_obs::add(nela_obs::counter::SERVE_EXPIRED, 1);
            log.last_done = picked - start;
            continue;
        }
        let cloaked = {
            let _span = nela_obs::span(nela_obs::stage::SERVE_CLOAK);
            session.request(job.host)
        };
        log.cloak.push(ns(picked.elapsed()));
        let result = match cloaked {
            Ok(result) => result,
            Err(_) => {
                log.failed += 1;
                nela_obs::add(nela_obs::counter::SERVE_FAILED, 1);
                log.last_done = start.elapsed();
                continue;
            }
        };
        let position = points[job.host as usize];
        let (candidates, refined, lbs_ns, refine_ns) =
            answer(server, &result.region, position, job.query);
        let done = Instant::now();
        let e2e = done - job.scheduled;
        nela_obs::observe_duration(nela_obs::stage::SERVE_E2E, e2e);
        nela_obs::add(nela_obs::counter::SERVE_SERVED, 1);
        log.e2e.push(ns(e2e));
        log.lbs.push(lbs_ns);
        log.refine.push(refine_ns);
        log.served += 1;
        if result.reused {
            log.reused += 1;
        }
        log.candidates += candidates as u64;
        log.digest ^= answer_hash(job.id, &refined);
        log.last_done = done - start;
    }
}

/// Builds a [`System`] from `params` and runs one serving session over it.
///
/// # Errors
/// Returns the first [`ServeConfigError`] when `config` is invalid.
pub fn run(params: &Params, config: &ServeConfig) -> Result<ServeReport, ServeConfigError> {
    config.validate()?;
    let system = System::build(params);
    run_with_system(&system, config)
}

/// A finished serving session: its measured report plus the checkpoint the
/// next session can resume from ([`run_session`] with `prior`).
pub struct SessionOutcome {
    /// What the session measured.
    pub report: ServeReport,
    /// The session's folded-back registry and position baseline, for
    /// cross-session cluster carry-over.
    pub checkpoint: SessionCheckpoint,
}

/// Runs one serving session over an existing system: paces the seeded
/// Poisson arrivals through a bounded queue into `config.workers` worker
/// threads, serves each admitted request end to end, and returns the
/// measured [`ServeReport`]. The session always terminates: the schedule is
/// finite, the queue closes after the last arrival, and workers drain it
/// before exiting.
///
/// # Errors
/// Returns the first [`ServeConfigError`] when `config` is invalid.
pub fn run_with_system(
    system: &System,
    config: &ServeConfig,
) -> Result<ServeReport, ServeConfigError> {
    run_session(system, config, None).map(|outcome| outcome.report)
}

/// [`run_with_system`] plus session chaining: when `prior` carries the
/// previous session's [`SessionCheckpoint`], its still-valid clusters
/// (every member's position bit-identical to the checkpoint's baseline) are
/// re-published into this session before the first arrival, so members of
/// carried clusters hit the region-reuse fast path immediately. The
/// returned [`SessionOutcome::checkpoint`] chains into the next call.
///
/// # Errors
/// Returns the first [`ServeConfigError`] when `config` is invalid.
pub fn run_session(
    system: &System,
    config: &ServeConfig,
    prior: Option<SessionCheckpoint>,
) -> Result<SessionOutcome, ServeConfigError> {
    config.validate()?;
    let arrivals = schedule(config, system.points.len());
    let axis = match config.shards {
        0 => auto_shard_axis(config.workers),
        pinned => shard_axis_for_total(pinned),
    };
    let (session, carry) = match prior {
        Some(checkpoint) => CloakingEngine::resume_session(
            system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
            checkpoint,
            axis,
        ),
        None => (
            CloakingEngine::new(
                system,
                ClusteringAlgo::TConnDistributed,
                BoundingAlgo::Secure,
            )
            .into_session(axis),
            CarryOver::default(),
        ),
    };
    let session = match config.transport {
        Transport::InProcess => session,
        Transport::Netsim(net) => session.with_network(net)?,
    };
    // The POI dataset is the population itself (the paper's setup); each
    // POI carries `cr` content units so transfer accounting matches the
    // service-request cost model.
    let server = LbsServer::new(PoiStore::from_points(
        &system.points,
        system.params.cr as u32,
    ));
    let queue = RequestQueue::new(config.queue_capacity);

    let mut admitted = 0usize;
    let mut shed = 0usize;
    let mut logs: Vec<WorkerLog> = Vec::with_capacity(config.workers);
    let start = Instant::now();
    let mut producer_end = Duration::ZERO;
    std::thread::scope(|scope| {
        let queue = &queue;
        let session = &session;
        let server = &server;
        let points = system.points.as_slice();
        let handles: Vec<_> = (0..config.workers)
            .map(|_| scope.spawn(move || worker_loop(queue, session, server, points, start)))
            .collect();
        // The producer runs on this thread: sleep to each scheduled arrival,
        // then admit or shed — never wait for completions (open loop).
        for arrival in &arrivals {
            let job = Job::new(arrival, start, config.deadline);
            let now = Instant::now();
            if job.scheduled > now {
                std::thread::sleep(job.scheduled - now);
            }
            match queue.push(job) {
                Push::Admitted => {
                    admitted += 1;
                    nela_obs::add(nela_obs::counter::SERVE_ADMITTED, 1);
                }
                Push::Shed => {
                    shed += 1;
                    nela_obs::add(nela_obs::counter::SERVE_SHED, 1);
                }
            }
        }
        producer_end = start.elapsed();
        queue.close();
        // invariant: the worker loop is panic-free by construction — every
        // request outcome (including engine errors, deadline expiry, and
        // queue poisoning) is folded into its WorkerLog, so a failed join
        // can only mean a bug below this crate and has no recovery path
        // that preserves the report's accounting.
        logs = handles
            .into_iter()
            .map(|h| h.join().expect("serve worker panicked"))
            .collect();
    });
    // Fold the sharded registry back so audits and carry-over still work,
    // then freeze it (with its position baseline) into the checkpoint the
    // next session resumes from.
    let net_stats = session.net_stats();
    let checkpoint = session.finish().checkpoint();

    let served: usize = logs.iter().map(|l| l.served).sum();
    let failed: usize = logs.iter().map(|l| l.failed).sum();
    let expired: usize = logs.iter().map(|l| l.expired).sum();
    let reused: usize = logs.iter().map(|l| l.reused).sum();
    let candidates: u64 = logs.iter().map(|l| l.candidates).sum();
    let digest = logs.iter().fold(0u64, |acc, l| acc ^ l.digest);
    let wall = logs
        .iter()
        .map(|l| l.last_done)
        .max()
        .unwrap_or(Duration::ZERO)
        .max(producer_end);
    let wall_s = wall.as_secs_f64();
    let collect = |pick: fn(&WorkerLog) -> &Vec<u64>| {
        StageStats::from_samples(logs.iter().flat_map(|l| pick(l).iter().copied()).collect())
    };
    let report = ServeReport {
        population: system.points.len(),
        workers: config.workers,
        shards: axis * axis,
        transport: match config.transport {
            Transport::InProcess => "in-process".to_string(),
            Transport::Netsim(_) => "netsim".to_string(),
        },
        offered_rps: config.rate,
        requests: arrivals.len(),
        admitted,
        shed,
        served,
        failed,
        expired,
        reused,
        reuse_rate: (served > 0).then(|| reused as f64 / served as f64),
        carried_clusters: carry.carried,
        max_queue_depth: queue.max_depth(),
        wall_s,
        sustained_rps: if wall_s > 0.0 {
            served as f64 / wall_s
        } else {
            0.0
        },
        e2e: collect(|l| &l.e2e),
        queue_wait: collect(|l| &l.queue_wait),
        cloak: collect(|l| &l.cloak),
        lbs: collect(|l| &l.lbs),
        refine: collect(|l| &l.refine),
        mean_candidates: (served > 0).then(|| candidates as f64 / served as f64),
        mean_transfer_units: server.mean_transfer(),
        net: net_stats.map(|s| NetReport {
            transmissions: s.transmissions,
            rpcs_ok: s.rpcs_ok,
            rpcs_failed: s.rpcs_failed,
            lost: s.lost,
            retransmits: s.retransmits,
            timeouts: s.timeouts,
            virtual_s: s.virtual_s,
        }),
        answers_digest: digest,
    };
    Ok(SessionOutcome { report, checkpoint })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryMix;
    use nela::netsim::NetworkConfig;

    fn small_system() -> System {
        System::build(&Params {
            threads: 1,
            ..Params::scaled(1_500)
        })
    }

    fn fast_config() -> ServeConfig {
        ServeConfig {
            requests: 60,
            rate: 50_000.0, // arrivals essentially instantaneous
            workers: 1,
            queue_capacity: 128,
            query: QueryMix::Knn { k: 4 },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn session_serves_every_admitted_request() {
        let system = small_system();
        let cfg = fast_config();
        let report = run_with_system(&system, &cfg).unwrap();
        assert_eq!(report.requests, 60);
        assert_eq!(report.shed, 0, "capacity covers all requests");
        assert_eq!(report.admitted, 60);
        assert_eq!(report.served + report.failed, 60);
        assert!(report.served > 0, "some requests must succeed");
        assert_eq!(report.expired, 0);
        assert_eq!(report.e2e.count, report.served);
        assert_eq!(report.queue_wait.count, 60);
        assert!(report.sustained_rps > 0.0);
        assert!(report.mean_transfer_units.is_some());
        assert!(report.mean_candidates.is_some());
    }

    #[test]
    fn accounting_balances_with_workers() {
        let system = small_system();
        let cfg = ServeConfig {
            workers: 3,
            ..fast_config()
        };
        let report = run_with_system(&system, &cfg).unwrap();
        assert_eq!(
            report.admitted + report.shed,
            report.requests,
            "every arrival is admitted or shed"
        );
        assert_eq!(
            report.served + report.failed + report.expired,
            report.admitted,
            "every admitted request reaches exactly one outcome"
        );
        assert!(report.max_queue_depth <= cfg.queue_capacity);
    }

    #[test]
    fn invalid_config_is_rejected_before_any_work() {
        let system = small_system();
        let cfg = ServeConfig {
            workers: 0,
            ..fast_config()
        };
        assert_eq!(
            run_with_system(&system, &cfg).unwrap_err(),
            ServeConfigError::NoWorkers
        );
    }

    #[test]
    fn netsim_transport_serves_and_populates_network_accounting() {
        let system = small_system();
        let cfg = ServeConfig {
            transport: Transport::Netsim(NetworkConfig {
                loss: 0.05,
                seed: 7,
                ..NetworkConfig::default()
            }),
            ..fast_config()
        };
        let report = run_with_system(&system, &cfg).unwrap();
        assert_eq!(report.transport, "netsim");
        assert!(report.served > 0);
        assert_eq!(report.served + report.failed, report.admitted);
        let net = report.net.expect("netsim transport must report totals");
        assert!(net.transmissions > 0);
        assert!(net.rpcs_ok > 0);
        // 5% per-transmission loss over hundreds of RPCs: some retransmits.
        assert!(net.retransmits > 0);
    }

    #[test]
    fn in_process_transport_reports_no_network() {
        let system = small_system();
        let report = run_with_system(&system, &fast_config()).unwrap();
        assert_eq!(report.transport, "in-process");
        assert!(report.net.is_none());
        assert_eq!(report.carried_clusters, 0);
    }

    #[test]
    fn carried_checkpoint_lifts_reuse_over_cold_start() {
        let system = small_system();
        let warm_cfg = ServeConfig {
            requests: 200,
            ..fast_config()
        };
        let first = run_session(&system, &warm_cfg, None).unwrap();
        assert!(first.checkpoint.active_clusters() > 0);

        // Same workload seed, nobody moved: the resumed session starts with
        // every first-session cluster already bounded.
        let cold = run_session(&system, &warm_cfg, None).unwrap();
        let resumed = run_session(&system, &warm_cfg, Some(first.checkpoint)).unwrap();
        assert!(resumed.report.carried_clusters > 0);
        assert!(
            resumed.report.reused > cold.report.reused,
            "carry-over must lift reuse: {} vs {}",
            resumed.report.reused,
            cold.report.reused
        );
    }

    #[test]
    fn late_admission_is_timed_from_the_scheduled_instant() {
        // The producer admits this arrival 50 ms after its scheduled
        // instant (it lagged behind the schedule). The lag must count:
        // latency and deadline both start at the scheduled instant.
        let lag = Duration::from_millis(50);
        let arrival = Arrival {
            id: 0,
            at: Duration::from_millis(10),
            host: 0,
            query: QueryKind::Knn(1),
        };
        let start = Instant::now()
            .checked_sub(arrival.at + lag)
            .expect("monotonic clock older than 60 ms");
        let deadline = Duration::from_millis(20);
        let job = Job::new(&arrival, start, Some(deadline));
        assert_eq!(job.scheduled, start + arrival.at);
        assert_eq!(job.deadline, Some(start + arrival.at + deadline));

        let system = small_system();
        let session = CloakingEngine::new(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        )
        .into_session(1);
        let server = LbsServer::new(PoiStore::from_points(&system.points, 1));
        let queue = RequestQueue::new(1);
        assert!(matches!(queue.push(job), Push::Admitted));
        queue.close();
        let log = worker_loop(&queue, &session, &server, &system.points, start);
        // Picked up well past `scheduled + deadline`: expired, with the
        // whole lag in its queue wait.
        assert_eq!(log.expired, 1);
        assert!(
            log.queue_wait[0] >= ns(lag),
            "wait {} ns",
            log.queue_wait[0]
        );
    }

    #[test]
    fn tiny_deadline_expires_queued_requests() {
        let system = small_system();
        let cfg = ServeConfig {
            deadline: Some(Duration::ZERO),
            ..fast_config()
        };
        let report = run_with_system(&system, &cfg).unwrap();
        // A zero deadline from the scheduled arrival expires anything not
        // picked up in the same instant; with instantaneous arrivals the backlog makes
        // that the common case.
        assert!(report.expired > 0, "zero deadline must expire requests");
        assert_eq!(report.served + report.failed + report.expired, 60);
    }
}
