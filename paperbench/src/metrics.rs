//! End-to-end and per-layer metrics, computed from the records of a pass.

use crate::drive::{Outcome, Record};
use crate::stats::{median, quantile, ratio, sorted};
use crate::workload::{Pass, SetupTimes};
use nela::RequestError;
use nela_obs::MetricsSnapshot;
use std::time::Duration;

/// Latency limit behind `slo_ok_frac`, ms from scheduled arrival.
pub const SLO_MS: f64 = 10.0;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn records(pass: &Pass) -> impl Iterator<Item = &Record> {
    pass.rounds.iter().flat_map(|r| r.log.records.iter())
}

fn served(pass: &Pass) -> impl Iterator<Item = (&Record, &nela::CloakingResult, usize, usize)> {
    records(pass).filter_map(|r| match &r.outcome {
        Outcome::Served {
            result,
            candidates,
            answer,
        } => Some((r, result, *candidates, answer.len())),
        _ => None,
    })
}

/// True when the request ran the protocol phases (failed or not reused).
fn cold(r: &Record) -> bool {
    match &r.outcome {
        Outcome::Served { result, .. } => !result.reused,
        Outcome::Failed(_) => true,
        Outcome::Shed => false,
    }
}

/// Served e2e latencies in ms, ascending.
pub fn e2e_ms(pass: &Pass) -> Vec<f64> {
    sorted(served(pass).map(|(r, ..)| r.e2e() as f64 / MS).collect())
}

fn attempted(pass: &Pass) -> usize {
    records(pass).count()
}

fn setup_median(times: &[SetupTimes], pick: impl Fn(&SetupTimes) -> Duration) -> f64 {
    median(times.iter().map(|t| secs(pick(t))).collect())
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics a user of the service sees, from an untraced pass.
pub fn end_to_end(setup: &[SetupTimes], pass: &Pass) -> Vec<Metric> {
    let attempted = attempted(pass) as f64;
    let e2e = e2e_ms(pass);
    let served_n = e2e.len() as f64;
    let slo_ok = e2e.iter().filter(|&&ms| ms <= SLO_MS).count() as f64;
    let busy: f64 = records(pass).map(|r| r.busy() as f64 / 1e9).sum();
    let msgs: u64 = served(pass)
        .map(|(_, res, ..)| res.clustering_messages + res.bounding_messages)
        .sum();
    let refresh = median(
        pass.rounds
            .iter()
            .map(|r| secs(r.refresh.total()) * 1e3)
            .collect(),
    );
    vec![
        m("setup_s", setup_median(setup, |t| t.total), "s"),
        m("e2e_p50_ms", quantile(&e2e, 0.5), "ms"),
        m("e2e_p99_ms", quantile(&e2e, 0.99), "ms"),
        m("slo_ok_frac", ratio(slo_ok, attempted), "ratio"),
        m("capacity_rps", ratio(attempted, busy), "req/s"),
        m("fail_frac", ratio(attempted - served_n, attempted), "ratio"),
        m("msgs_per_req", ratio(msgs as f64, attempted), "msgs"),
        m("transfer_per_req", pass.transfer_per_req, "units"),
        m("refresh_ms_p50", refresh, "ms"),
        m("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// Per-layer metrics of a traced pass. `untraced` is the untraced pass of
/// the same seed, for the tracing overhead; `obs` is the `nela-obs`
/// recorder's snapshot over the traced pass.
pub fn per_layer(
    setup: &[SetupTimes],
    pass: &Pass,
    untraced: &Pass,
    obs: &MetricsSnapshot,
    offered_rps: f64,
) -> Vec<Metric> {
    let attempted = attempted(pass) as f64;
    let e2e = e2e_ms(pass);
    let q = |v: Vec<f64>, p: f64| quantile(&sorted(v), p);

    // serve: queue, arrival clock, attribution.
    let waits: Vec<f64> = records(pass)
        .filter(|r| !matches!(r.outcome, Outcome::Shed))
        .map(|r| r.wait() as f64 / MS)
        .collect();
    let residual: Vec<f64> = served(pass)
        .filter_map(|(r, ..)| {
            let s = r.stamps?;
            let (l, f) = (s.lbs?, s.refine?);
            let parts = r.wait() + (s.cloak.1 - s.cloak.0) + (l.1 - l.0) + (f.1 - f.0);
            Some((r.e2e() as f64 - parts as f64) / US)
        })
        .collect();
    // Arrival clock lag, over the arrivals the idle worker waited for.
    let gen_lag: Vec<f64> = records(pass)
        .filter_map(|r| Some(r.late? as f64 / MS))
        .collect();
    let arrival_span: f64 = pass
        .rounds
        .iter()
        .map(|r| r.log.records.iter().map(|x| x.entered()).max().unwrap_or(0) as f64 / 1e9)
        .sum();
    let max_depth = pass
        .rounds
        .iter()
        .map(|r| r.log.max_queue_depth)
        .max()
        .unwrap_or(0);
    let shed: usize = pass.rounds.iter().map(|r| r.log.shed).sum();

    // engine: cloak split, reuse, session hand-over, failures by reason.
    let cloak_us = |r: &Record| r.stamps.map(|s| (s.cloak.1 - s.cloak.0) as f64 / US);
    let cloak_cold: Vec<f64> = records(pass)
        .filter(|r| cold(r))
        .filter_map(cloak_us)
        .collect();
    let cloak_reuse: Vec<f64> = records(pass)
        .filter(|r| matches!(&r.outcome, Outcome::Served { result, .. } if result.reused))
        .filter_map(cloak_us)
        .collect();
    let busy: f64 = records(pass).map(|r| r.busy() as f64 / 1e9).sum();
    let served_n = e2e.len() as f64;
    let reused = served(pass).filter(|(_, res, ..)| res.reused).count() as f64;
    let n_rounds = pass.rounds.len() as f64;
    let mut fails = [0usize; 5];
    for r in records(pass) {
        if let Outcome::Failed(e) = &r.outcome {
            fails[match e {
                RequestError::Cluster(_) => 0,
                RequestError::Bounding(_) => 1,
                RequestError::Contention { .. } => 2,
                RequestError::HostNotClustered => 3,
                RequestError::SlotUnfilled => 4,
            }] += 1;
        }
    }

    // cluster and bounding: the protocol phases of cold served requests.
    let cold_served: Vec<&nela::CloakingResult> = served(pass)
        .filter(|(_, res, ..)| !res.reused)
        .map(|(_, res, ..)| res)
        .collect();
    let n_cold = cold_served.len() as f64;
    let sum = |f: fn(&nela::CloakingResult) -> f64| cold_served.iter().map(|r| f(r)).sum::<f64>();
    let bounding_cpu_ms: f64 = served(pass)
        .map(|(_, res, ..)| secs(res.bounding_cpu) * 1e3)
        .sum();
    let hist = |name: &str| obs.histogram(name);
    let phase1 = hist(nela_obs::stage::CLUSTERING);
    let phase2 = hist(nela_obs::stage::BOUNDING);
    let claims = hist(nela_obs::stage::REGISTRY_CLAIM);

    // lbs: per-call times and the candidate funnel.
    let span_us = |s: Option<(u64, u64)>| s.map(|(a, b)| (b - a) as f64 / US);
    let handle: Vec<f64> = served(pass)
        .filter_map(|(r, ..)| span_us(r.stamps?.lbs))
        .collect();
    let refine: Vec<f64> = served(pass)
        .filter_map(|(r, ..)| span_us(r.stamps?.refine))
        .collect();
    let candidates: f64 = served(pass).map(|(_, _, c, _)| c as f64).sum();
    let answers: f64 = served(pass).map(|(_, _, _, a)| a as f64).sum();

    // mobility: per-epoch maintenance.
    let ticks: Vec<_> = pass.rounds.iter().filter_map(|r| r.tick).collect();
    let n_ticks = ticks.len() as f64;
    let tick_sum =
        |f: fn(&nela_mobility::TickStats) -> usize| ticks.iter().map(|t| f(t) as f64).sum::<f64>();

    vec![
        m("serve.queue_wait_ms.p50", q(waits.clone(), 0.5), "ms"),
        m("serve.queue_wait_ms.p99", q(waits, 0.99), "ms"),
        m("serve.max_queue_depth", max_depth as f64, "count"),
        m("serve.shed", shed as f64, "count"),
        m("serve.residual_us.p50", q(residual.clone(), 0.5), "us"),
        m("serve.residual_us.p99", q(residual, 0.99), "us"),
        m("serve.gen_lag_ms.p99", q(gen_lag, 0.99), "ms"),
        m(
            "serve.achieved_rps",
            ratio(attempted, arrival_span),
            "req/s",
        ),
        m("serve.offered_rps", offered_rps, "req/s"),
        m("serve.e2e_samples", served_n, "count"),
        m(
            "serve.trace_overhead_ms",
            quantile(&e2e, 0.5) - quantile(&e2e_ms(untraced), 0.5),
            "ms",
        ),
        m("engine.cloak_cold_us.p50", q(cloak_cold.clone(), 0.5), "us"),
        m("engine.cloak_cold_us.p99", q(cloak_cold, 0.99), "us"),
        m(
            "engine.cloak_reuse_us.p50",
            q(cloak_reuse.clone(), 0.5),
            "us",
        ),
        m("engine.cloak_reuse_us.p99", q(cloak_reuse, 0.99), "us"),
        m("engine.busy_s", busy, "s"),
        m("engine.reuse_frac", ratio(reused, served_n), "ratio"),
        m(
            "engine.resume_ms.p50",
            median(
                pass.rounds
                    .iter()
                    .map(|r| secs(r.refresh.resume) * 1e3)
                    .collect(),
            ),
            "ms",
        ),
        m(
            "engine.carried",
            ratio(
                pass.rounds.iter().map(|r| r.carry.carried as f64).sum(),
                n_rounds,
            ),
            "clusters/round",
        ),
        m(
            "engine.dropped",
            ratio(
                pass.rounds.iter().map(|r| r.carry.dropped as f64).sum(),
                n_rounds,
            ),
            "clusters/round",
        ),
        m("engine.fail.cluster", fails[0] as f64, "count"),
        m("engine.fail.bounding", fails[1] as f64, "count"),
        m("engine.fail.contention", fails[2] as f64, "count"),
        m("engine.fail.host_not_clustered", fails[3] as f64, "count"),
        m("engine.fail.slot_unfilled", fails[4] as f64, "count"),
        m(
            "cluster.msgs_per_cold",
            ratio(sum(|r| r.clustering_messages as f64), n_cold),
            "msgs",
        ),
        m(
            "cluster.phase1_calls",
            phase1.map_or(0.0, |h| h.count as f64),
            "count",
        ),
        m(
            "cluster.phase1_ms_total",
            phase1.map_or(0.0, |h| h.sum_ns as f64 / MS),
            "ms",
        ),
        m(
            "cluster.phase1_ms_max",
            phase1.map_or(0.0, |h| h.max_ns as f64 / MS),
            "ms",
        ),
        m(
            "cluster.claims",
            claims.map_or(0.0, |h| h.count as f64),
            "count",
        ),
        m("bounding.cpu_ms_total", bounding_cpu_ms, "ms"),
        m(
            "bounding.rounds_per_cold",
            ratio(sum(|r| r.bounding_rounds as f64), n_cold),
            "rounds",
        ),
        m(
            "bounding.msgs_per_cold",
            ratio(sum(|r| r.bounding_messages as f64), n_cold),
            "msgs",
        ),
        m(
            "bounding.phase2_ms_total",
            phase2.map_or(0.0, |h| h.sum_ns as f64 / MS),
            "ms",
        ),
        m(
            "netsim.transmissions",
            pass.net.transmissions as f64,
            "count",
        ),
        m("netsim.retransmits", pass.net.retransmits as f64, "count"),
        m("netsim.timeouts", pass.net.timeouts as f64, "count"),
        m("netsim.rpcs_failed", pass.net.rpcs_failed as f64, "count"),
        m(
            "netsim.virtual_ms_per_req",
            ratio(pass.net.virtual_s * 1e3, attempted),
            "ms",
        ),
        m("lbs.handle_us.p50", q(handle.clone(), 0.5), "us"),
        m("lbs.handle_us.p99", q(handle, 0.99), "us"),
        m("lbs.refine_us.p50", q(refine.clone(), 0.5), "us"),
        m("lbs.refine_us.p99", q(refine, 0.99), "us"),
        m(
            "lbs.candidates_per_req",
            ratio(candidates, served_n),
            "count",
        ),
        m(
            "lbs.answer_per_candidate",
            ratio(answers, candidates),
            "ratio",
        ),
        m(
            "mobility.tick_ms.p50",
            median(
                pass.rounds
                    .iter()
                    .filter(|r| r.tick.is_some())
                    .map(|r| secs(r.refresh.tick) * 1e3)
                    .collect(),
            ),
            "ms",
        ),
        m(
            "mobility.snapshot_ms.p50",
            median(
                pass.rounds
                    .iter()
                    .filter(|r| r.tick.is_some())
                    .map(|r| secs(r.refresh.snapshot) * 1e3)
                    .collect(),
            ),
            "ms",
        ),
        m(
            "mobility.moved",
            ratio(tick_sum(|t| t.moved), n_ticks),
            "users/tick",
        ),
        m(
            "mobility.dirty",
            ratio(tick_sum(|t| t.dirty), n_ticks),
            "users/tick",
        ),
        m(
            "mobility.changed",
            ratio(tick_sum(|t| t.changed), n_ticks),
            "users/tick",
        ),
        m(
            "mobility.changed_per_dirty",
            ratio(tick_sum(|t| t.changed), tick_sum(|t| t.dirty)),
            "ratio",
        ),
        m(
            "setup.dataset_ms",
            setup_median(setup, |t| t.dataset) * 1e3,
            "ms",
        ),
        m("setup.grid_ms", setup_median(setup, |t| t.grid) * 1e3, "ms"),
        m("setup.wpg_ms", setup_median(setup, |t| t.wpg) * 1e3, "ms"),
        m("setup.poi_ms", setup_median(setup, |t| t.poi) * 1e3, "ms"),
        m(
            "setup.mobile_init_ms",
            setup_median(setup, |t| t.mobile_init) * 1e3,
            "ms",
        ),
        m("setup.warmup_s", setup_median(setup, |t| t.warmup), "s"),
    ]
}
