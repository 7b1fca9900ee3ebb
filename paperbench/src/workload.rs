//! The four workloads: their set-up and their timed rounds.
//!
//! All of them serve the paper's Table I system (104,770 users,
//! California-like skew, k = 10, δ = 2·10⁻³, M = 10) with a 50/50 mix of
//! range (r = 0.02) and kNN (k = 5) queries under Poisson open-loop
//! arrivals served by one worker, in rounds of 2,000 arrivals
//! (Table I's S). The dataset is the fixed Table I population; the
//! workload seed drives the arrival, host and query streams, the returning
//! hosts, the network loss draws and the mobility model.
//!
//! - `cold_paper`: a fresh session per round at 750 req/s.
//! - `warm_carry`: every round resumes a clone of the checkpoint of an
//!   untimed 4,000-request warm-up session at 2,000 req/s; 95% of arrivals
//!   are returning warm-up hosts, 5% newcomers drawn fresh per round.
//! - `lossy_radio`: `cold_paper` over the simulated radio, 5% loss.
//!   Both end their set-up with an untimed throwaway session of one round
//!   over the rounds' own path, so the first timed round is as warm as the
//!   rest.
//! - `mobile_epochs`: each round ticks a 90%-stationary `MobileWorld`,
//!   snapshots it and resumes the previous round's checkpoint (the first
//!   round resumes an untimed warm-up session), at 750 req/s.
//!
//! Every round's clock starts before its session hand-over, so arrivals
//! queue behind the session open, the resume audit and, on
//! `mobile_epochs`, the ~150 ms tick and snapshot: an open-loop client does
//! not pause for maintenance.
//!
//! `BENCHMARK.json` gates `lossy_radio` and `mobile_epochs` only: between
//! them they reach every layer, and repeated runs of this length on all
//! four workloads would take twice as long. The other two still run and
//! check by name; `cold_paper` does the same logical work as
//! `lossy_radio` without the radio.

use crate::check::Gate;
use crate::drive::{self, ns, RoundLog};
use nela::geo::{DatasetSpec, GridIndex, Point, UserId};
use nela::lbs::{LbsServer, PoiStore};
use nela::netsim::NetworkConfig;
use nela::wpg::{InverseDistanceRss, WpgBuilder};
use nela::{
    auto_shard_axis, BoundingAlgo, CarryOver, CloakingEngine, ClusteringAlgo, EngineSession,
    Params, SessionCheckpoint, SessionNetStats, System,
};
use nela_mobility::{MobileWorld, MobilityConfig, TickStats};
use nela_serve::{schedule, Arrival, QueryMix, ServeConfig};
use std::time::{Duration, Instant};

/// Arrivals per round: a fresh (or resumed) session serves this many.
pub const ROUND: usize = 2_000;
/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Share of users that never move on `mobile_epochs`.
pub const STATIONARY: f64 = 0.9;
/// Requests of `warm_carry`'s untimed warm-up session.
pub const WARM_REQUESTS: usize = 2 * ROUND;
/// Share of `warm_carry` arrivals from newcomers, drawn fresh every round;
/// the rest are hosts of the warm-up session returning. The newcomers keep
/// the protocol phases running on a twentieth of the requests while every
/// returning host that was served reuses its region.
pub const NEWCOMER_SHARE: f64 = 0.05;
/// Per-transmission loss on `lossy_radio`.
pub const LOSS: f64 = 0.05;

const WORKERS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdPaper,
    WarmCarry,
    LossyRadio,
    MobileEpochs,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdPaper,
        Workload::WarmCarry,
        Workload::LossyRadio,
        Workload::MobileEpochs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdPaper => "cold_paper",
            Workload::WarmCarry => "warm_carry",
            Workload::LossyRadio => "lossy_radio",
            Workload::MobileEpochs => "mobile_epochs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered load in requests per second. The cold and mobile
    /// workloads run at 750 req/s, below the 1,000 req/s of `nela serve`'s
    /// experiments. On a 2-vCPU shared host the worker is busy about 40%
    /// of the time at 1,000 req/s and the fresh session's cold burst at
    /// each round start runs near saturation, so the median latency moved
    /// about twice as far as the host's own speed did between runs. At
    /// 500 req/s a run holds too few rounds, and with them too few
    /// round-start stalls, for a steady p99.
    pub fn rate(self) -> f64 {
        match self {
            Workload::WarmCarry => 2_000.0,
            _ => 750.0,
        }
    }

    /// Rounds that fill `seconds` of arrivals at the offered rate.
    pub fn rounds(self, seconds: u64) -> usize {
        ((seconds as f64 * self.rate() / ROUND as f64).round() as usize).max(1)
    }

    pub fn transport(self) -> &'static str {
        match self {
            Workload::LossyRadio => "netsim",
            _ => "in-process",
        }
    }
}

/// The Table I system, built single-threaded.
pub fn table1() -> Params {
    Params {
        threads: 1,
        ..Params::table1()
    }
}

/// Deterministic stream split (SplitMix64 finalizer over `seed ^ tag`).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const ROUND_STREAM: u64 = 0x0052_4f55_4e44; // "ROUND"
const NET_STREAM: u64 = 0x004e_4554; // "NET"
const MOVE_STREAM: u64 = 0x4d4f_5645; // "MOVE"
const RETURN_STREAM: u64 = 0x5245_5455_524e; // "RETURN"

/// The `nela serve --query mix` stream of `requests` arrivals.
fn arrivals(seed: u64, rate: f64, n_users: usize, requests: usize) -> Vec<Arrival> {
    let config = ServeConfig {
        requests,
        rate,
        workers: WORKERS,
        queue_capacity: requests,
        seed,
        query: QueryMix::Mixed {
            radius: 0.02,
            k: 5,
            range_frac: 0.5,
        },
        ..ServeConfig::default()
    };
    schedule(&config, n_users)
}

fn round_seed(seed: u64, round: usize) -> u64 {
    mix(seed, ROUND_STREAM ^ round as u64)
}

/// One `warm_carry` round: the round's arrival stream, with every host
/// but a `NEWCOMER_SHARE` of them replaced by a returning host drawn from
/// the warm-up session.
fn returning_round(seed: u64, n_users: usize, returning: &[UserId]) -> Vec<Arrival> {
    let mut round = arrivals(seed, Workload::WarmCarry.rate(), n_users, ROUND);
    for arrival in &mut round {
        let draw = mix(seed, RETURN_STREAM ^ u64::from(arrival.id));
        let coin = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if coin >= NEWCOMER_SHARE {
            arrival.host = returning[(mix(draw, RETURN_STREAM) % returning.len() as u64) as usize];
        }
    }
    round
}

fn fresh_session(system: &System) -> EngineSession<'_> {
    CloakingEngine::new(
        system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    )
    .into_session(auto_shard_axis(WORKERS))
}

fn resume(system: &System, checkpoint: SessionCheckpoint) -> (EngineSession<'_>, CarryOver) {
    CloakingEngine::resume_session(
        system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
        checkpoint,
        auto_shard_axis(WORKERS),
    )
}

/// The simulated radio of `lossy_radio`, its loss draws seeded by `seed`.
fn lossy(session: EngineSession<'_>, seed: u64) -> EngineSession<'_> {
    let cfg = NetworkConfig {
        loss: LOSS,
        seed: mix(seed, NET_STREAM),
        ..NetworkConfig::default()
    };
    session
        .with_network(cfg)
        .expect("the lossy config is valid")
}

/// The untimed warm-up session: serves `requests` arrivals of the seed's
/// stream closed loop over `session` and checkpoints the registry it
/// leaves behind. Returns the checkpoint and the hosts it served.
fn warm_up(
    session: EngineSession<'_>,
    n_users: usize,
    seed: u64,
    requests: usize,
) -> (SessionCheckpoint, Vec<UserId>) {
    let arrivals = arrivals(seed, Workload::WarmCarry.rate(), n_users, requests);
    for arrival in &arrivals {
        // Failures are part of the workload; only the registry the session
        // leaves behind matters here.
        let _ = session.request(arrival.host);
    }
    let hosts = arrivals.iter().map(|a| a.host).collect();
    (session.finish().checkpoint(), hosts)
}

/// Wall time of each set-up step of one repetition.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset: Duration,
    pub grid: Duration,
    pub wpg: Duration,
    pub poi: Duration,
    pub mobile_init: Duration,
    pub warmup: Duration,
    /// Workload start until the first round can begin.
    pub total: Duration,
}

/// What the timed rounds start from.
pub struct Setup {
    pub workload: Workload,
    pub params: Params,
    pub seed: u64,
    pub store: PoiStore,
    /// Static system (all but `mobile_epochs`).
    pub system: Option<System>,
    /// The untimed warm-up session's checkpoint (`warm_carry`,
    /// `mobile_epochs`).
    pub checkpoint: Option<SessionCheckpoint>,
    /// Hosts of the warm-up session (`warm_carry`).
    pub returning: Vec<UserId>,
    /// Initial positions and the live world (`mobile_epochs`).
    pub points: Vec<Point>,
    pub world: Option<MobileWorld>,
}

fn mobility(seed: u64) -> MobilityConfig {
    MobilityConfig {
        seed: mix(seed, MOVE_STREAM),
        ..MobilityConfig::with_stationary(STATIONARY)
    }
}

/// One complete set-up, timed step by step.
pub fn setup_once(workload: Workload, seed: u64) -> (Setup, SetupTimes) {
    let params = table1();
    let mut times = SetupTimes::default();
    let begin = Instant::now();
    let spec = DatasetSpec {
        n: params.n_users,
        seed: params.seed,
        distribution: params.distribution.clone(),
    };
    let t = Instant::now();
    let points = spec.generate();
    times.dataset = t.elapsed();
    let t = Instant::now();
    let store = PoiStore::from_points(&points, params.cr as u32);
    times.poi = t.elapsed();
    let mut setup = Setup {
        workload,
        params: params.clone(),
        seed,
        store,
        system: None,
        checkpoint: None,
        returning: Vec::new(),
        points: Vec::new(),
        world: None,
    };
    if workload == Workload::MobileEpochs {
        let t = Instant::now();
        let world = MobileWorld::from_points(&params, &mobility(seed), &points);
        times.mobile_init = t.elapsed();
        let t = Instant::now();
        let system = world.system_snapshot();
        let n = system.points.len();
        setup.checkpoint = Some(warm_up(fresh_session(&system), n, seed, ROUND).0);
        times.warmup = t.elapsed();
        setup.world = Some(world);
        setup.points = points;
    } else {
        let t = Instant::now();
        let grid = GridIndex::build_threads(&points, params.delta, params.threads);
        times.grid = t.elapsed();
        let t = Instant::now();
        let wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
            .build_with_index_threads(&points, &grid, params.threads);
        times.wpg = t.elapsed();
        let system = System::with_parts(params.clone(), points, grid, wpg);
        let t = Instant::now();
        let n = system.points.len();
        match workload {
            Workload::WarmCarry => {
                let (checkpoint, hosts) = warm_up(fresh_session(&system), n, seed, WARM_REQUESTS);
                setup.checkpoint = Some(checkpoint);
                setup.returning = hosts;
            }
            // A throwaway session over the rounds' own path, so the first
            // timed round does not pay for cold caches and first-touch
            // allocations that later rounds never see.
            Workload::LossyRadio => {
                warm_up(lossy(fresh_session(&system), seed), n, seed, ROUND);
            }
            _ => {
                warm_up(fresh_session(&system), n, seed, ROUND);
            }
        }
        times.warmup = t.elapsed();
        setup.system = Some(system);
    }
    times.total = begin.elapsed();
    (setup, times)
}

/// The timing of one round's session hand-over, from round start until
/// the session is ready to serve.
#[derive(Clone, Copy, Default)]
pub struct Refresh {
    pub tick: Duration,
    pub snapshot: Duration,
    /// Opening (fresh) or resuming (carried) the session.
    pub resume: Duration,
}

impl Refresh {
    pub fn total(&self) -> Duration {
        self.tick + self.snapshot + self.resume
    }
}

/// One timed round.
pub struct Round {
    pub refresh: Refresh,
    pub carry: CarryOver,
    pub tick: Option<TickStats>,
    /// Record times are ns from the round's clock start.
    pub log: RoundLog,
    /// The round's clock start (its arrivals' time origin; the refresh
    /// begins right after it) from the pass start, ns.
    pub start: u64,
    /// When the round's session was ready to serve, from the pass start, ns.
    pub ready: u64,
}

/// One pass over all rounds of a workload.
pub struct Pass {
    pub rounds: Vec<Round>,
    pub net: SessionNetStats,
    pub transfer_per_req: f64,
    /// Order-sensitive digest of every outcome and refined answer.
    pub digest: u64,
}

fn absorb(total: &mut SessionNetStats, s: Option<SessionNetStats>) {
    if let Some(s) = s {
        total.transmissions += s.transmissions;
        total.rpcs_ok += s.rpcs_ok;
        total.rpcs_failed += s.rpcs_failed;
        total.lost += s.lost;
        total.retransmits += s.retransmits;
        total.timeouts += s.timeouts;
        total.virtual_s += s.virtual_s;
    }
}

/// Runs every round of the workload once. Each round's clock starts
/// before its session hand-over (open, resume, or tick → snapshot →
/// resume), so arrivals queue behind it. The correctness gate checks each
/// round after it ends, before the next begins.
pub fn run_pass(setup: &mut Setup, rounds: usize, traced: bool, gate: &mut Gate) -> Pass {
    let w = setup.workload;
    // A fresh server per pass, so its transfer accounting covers this pass.
    let server = LbsServer::new(setup.store.clone());
    let mut out = Vec::with_capacity(rounds);
    let mut net = SessionNetStats::default();
    let epoch = Instant::now();
    let offset = |t: Instant| ns(t - epoch);
    match w {
        Workload::ColdPaper | Workload::LossyRadio | Workload::WarmCarry => {
            let system = setup
                .system
                .as_ref()
                .expect("static workloads build a system");
            for r in 0..rounds {
                let seed = round_seed(setup.seed, r);
                let n = system.points.len();
                let arrivals = match w {
                    Workload::WarmCarry => returning_round(seed, n, &setup.returning),
                    _ => arrivals(seed, w.rate(), n, ROUND),
                };
                let checkpoint = setup.checkpoint.clone();
                let ((resumed, ready, carry, stats, start), log) =
                    drive::round(&arrivals, |clock| {
                        let t0 = Instant::now();
                        let (session, carry) = match checkpoint {
                            Some(ck) => resume(system, ck),
                            None => (fresh_session(system), CarryOver::default()),
                        };
                        let session = if w == Workload::LossyRadio {
                            lossy(session, seed)
                        } else {
                            session
                        };
                        let t1 = Instant::now();
                        let served = clock.serve(&session, &server, &system.points, traced);
                        (
                            (t1 - t0, t1, carry, session.net_stats(), clock.start()),
                            served,
                        )
                    });
                absorb(&mut net, stats);
                gate.check_round(system, &setup.store, &log);
                out.push(Round {
                    refresh: Refresh {
                        resume: resumed,
                        ..Refresh::default()
                    },
                    carry,
                    tick: None,
                    start: offset(start),
                    ready: offset(ready),
                    log,
                });
            }
        }
        Workload::MobileEpochs => {
            let mut world = setup.world.take().unwrap_or_else(|| {
                MobileWorld::from_points(&setup.params, &mobility(setup.seed), &setup.points)
            });
            let mut prior = setup.checkpoint.clone();
            for r in 0..rounds {
                let arrivals = arrivals(
                    round_seed(setup.seed, r),
                    w.rate(),
                    setup.points.len(),
                    ROUND,
                );
                let ((refresh, ready, carry, stats, system, start), log) =
                    drive::round(&arrivals, |clock| {
                        let t0 = Instant::now();
                        let stats = world.tick();
                        let t1 = Instant::now();
                        let system = world.system_snapshot();
                        let t2 = Instant::now();
                        let (session, carry) = match prior.take() {
                            Some(ck) => resume(&system, ck),
                            None => (fresh_session(&system), CarryOver::default()),
                        };
                        let t3 = Instant::now();
                        let served = clock.serve(&session, &server, &system.points, traced);
                        prior = Some(session.finish().checkpoint());
                        let refresh = Refresh {
                            tick: t1 - t0,
                            snapshot: t2 - t1,
                            resume: t3 - t2,
                        };
                        ((refresh, t3, carry, stats, system, clock.start()), served)
                    });
                gate.check_round(&system, &setup.store, &log);
                out.push(Round {
                    refresh,
                    carry,
                    tick: Some(stats),
                    start: offset(start),
                    ready: offset(ready),
                    log,
                });
            }
        }
    }
    let digest = digest(&out);
    Pass {
        rounds: out,
        net,
        transfer_per_req: server.mean_transfer().unwrap_or(0.0),
        digest,
    }
}

fn digest(rounds: &[Round]) -> u64 {
    use crate::drive::Outcome;
    const FAILED: [u32; 1] = [u32::MAX];
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (r, round) in rounds.iter().enumerate() {
        for record in &round.log.records {
            let id = (r * ROUND) as u32 + record.arrival.id;
            let h = match &record.outcome {
                Outcome::Served { answer, .. } => nela_serve::report::answer_hash(id, answer),
                Outcome::Failed(_) | Outcome::Shed => nela_serve::report::answer_hash(id, &FAILED),
            };
            digest = digest.rotate_left(7) ^ h;
        }
    }
    digest
}
