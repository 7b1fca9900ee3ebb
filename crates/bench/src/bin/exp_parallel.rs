//! Parallel cloaking pipeline: scaling and bit-identity of the threaded
//! build paths (grid fill, WPG construction, connected components, batched
//! request serving) against their serial baselines.
//!
//! Full mode sweeps n ∈ {10k, 50k, 100k} × threads ∈ {1, 2, 4, 8}, checks
//! every parallel result against the single-threaded one, and writes the
//! timing series to `BENCH_parallel.json` at the repository root. Speedups
//! require real cores (the JSON records how many were available); on any
//! machine the bit-identity checks are exact.
//!
//! `--smoke` runs a small population with 2 threads and exits non-zero on
//! any parallel/serial divergence — the CI guard for the determinism
//! contract.
//!
//! `--metrics` additionally enables the `nela-obs` recorder for the whole
//! sweep (plus a lossy-network clustering stage, so the RPC retransmission
//! counters are populated) and writes the snapshot to `BENCH_obs.json` at
//! the repository root.
//!
//! Environment: `NELA_RESULTS_DIR` (optional extra JSON dump location).

use nela::{auto_shard_axis, BoundingAlgo, CloakingEngine, ClusteringAlgo, Params, System};
use nela_bench::{fmt, print_table, ExpConfig};
use nela_geo::{DatasetSpec, GridIndex, Point};
use nela_wpg::connectivity::{components_under, components_under_threads, nothing_removed};
use nela_wpg::{Edge, InverseDistanceRss, Wpg, WpgBuilder};
use serde::Serialize;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[derive(Debug, Clone, Serialize)]
struct Cell {
    n: usize,
    threads: usize,
    /// Registry shards used by the batch stage (0 when it ran serially).
    shards: usize,
    grid_ms: f64,
    wpg_ms: f64,
    components_ms: f64,
    request_many_ms: f64,
    /// Total over the four stages.
    total_ms: f64,
    /// Speedup of `total_ms` relative to the 1-thread row at the same n.
    speedup: f64,
    /// Every parallel artifact equalled the serial one bit for bit.
    identical: bool,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Logical CPUs available to this run (speedups need > 1).
    cores: usize,
    rows: Vec<Cell>,
}

fn edges_of(g: &Wpg) -> Vec<Edge> {
    g.edges().collect()
}

/// One (n, threads) measurement; `reference` holds the serial artifacts for
/// the identity check (None when this row *is* the serial row).
#[allow(clippy::type_complexity)]
fn measure(
    points: &[Point],
    params: &Params,
    threads: usize,
    reference: Option<&(Vec<Edge>, Vec<Vec<nela_geo::UserId>>, usize)>,
) -> (Cell, (Vec<Edge>, Vec<Vec<nela_geo::UserId>>, usize)) {
    let n = points.len();
    let t0 = Instant::now();
    let grid = GridIndex::build_threads(points, params.delta, threads);
    let grid_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index_threads(points, &grid, threads);
    let wpg_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let comps = components_under_threads(&wpg, 3, &nothing_removed, threads);
    let components_ms = t2.elapsed().as_secs_f64() * 1e3;

    // Batched serving over a fixed host sample (scaled with n, capped so the
    // sweep stays tractable at 100k).
    let system = System::with_parts(params.clone(), points.to_vec(), grid, wpg.clone());
    let hosts = system.host_sequence((n / 50).clamp(100, 1_000), 7);
    let t3 = Instant::now();
    let mut engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let outcomes = engine.request_many(&hosts, threads);
    let request_many_ms = t3.elapsed().as_secs_f64() * 1e3;
    let served = outcomes.iter().filter(|o| o.is_ok()).count();

    let artifacts = (edges_of(&wpg), comps, served);
    // `served` can differ across thread counts only through contention
    // retries; edge lists and components are hard guarantees.
    let identical = reference.map_or(true, |r| r.0 == artifacts.0 && r.1 == artifacts.1);
    let total_ms = grid_ms + wpg_ms + components_ms + request_many_ms;
    (
        Cell {
            n,
            threads,
            shards: if threads <= 1 {
                0
            } else {
                auto_shard_axis(threads).pow(2)
            },
            grid_ms,
            wpg_ms,
            components_ms,
            request_many_ms,
            total_ms,
            speedup: 1.0, // filled in by the caller from the serial row
            identical,
        },
        artifacts,
    )
}

fn population(n: usize) -> (Vec<Point>, Params) {
    let params = Params::scaled(n);
    let points = DatasetSpec {
        n,
        seed: params.seed,
        distribution: params.distribution.clone(),
    }
    .generate();
    (points, params)
}

fn smoke() -> i32 {
    let (points, params) = population(5_000);
    eprintln!("[smoke] 5,000 users, serial vs 2 threads");
    let serial_grid = GridIndex::build(&points, params.delta);
    let serial_wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index(&points, &serial_grid);
    let serial_comps = components_under(&serial_wpg, 3, &nothing_removed);

    let par_grid = GridIndex::build_threads(&points, params.delta, 2);
    let par_wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index_threads(&points, &par_grid, 2);
    let par_comps = components_under_threads(&par_wpg, 3, &nothing_removed, 2);

    if edges_of(&serial_wpg) != edges_of(&par_wpg) {
        eprintln!("[smoke] FAIL: parallel WPG edge list diverged from serial");
        return 1;
    }
    if serial_comps != par_comps {
        eprintln!("[smoke] FAIL: parallel components diverged from serial");
        return 1;
    }

    // Batched serving: the single-thread batch must equal the request loop;
    // the 2-thread batch must keep the registry consistent.
    let system = System::with_parts(params.clone(), points, par_grid, par_wpg);
    let hosts = system.host_sequence(100, 7);
    let mut loop_engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let looped: Vec<_> = hosts.iter().map(|&h| loop_engine.request(h)).collect();
    let mut batch_engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let batched = batch_engine.request_many(&hosts, 1);
    for (a, b) in looped.iter().zip(&batched) {
        let same = match (a, b) {
            (Ok(x), Ok(y)) => x.region == y.region && x.reused == y.reused,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !same {
            eprintln!("[smoke] FAIL: single-thread request_many diverged from request loop");
            return 1;
        }
    }
    // The sharded machinery at one worker must also equal the loop, for
    // more than one shard layout.
    for axis in [1usize, 3] {
        let mut sharded_engine = CloakingEngine::new(
            &system,
            ClusteringAlgo::TConnDistributed,
            BoundingAlgo::Secure,
        );
        let sharded = sharded_engine.request_many_sharded(&hosts, 1, axis);
        for (a, b) in looped.iter().zip(&sharded) {
            let same = match (a, b) {
                (Ok(x), Ok(y)) => x.region == y.region && x.reused == y.reused,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !same {
                eprintln!(
                    "[smoke] FAIL: 1-worker sharded batch (axis {axis}) diverged from request loop"
                );
                return 1;
            }
        }
    }
    let mut par_engine = CloakingEngine::new(
        &system,
        ClusteringAlgo::TConnDistributed,
        BoundingAlgo::Secure,
    );
    let outcomes = par_engine.request_many(&hosts, 2);
    if outcomes.iter().filter(|o| o.is_ok()).count() == 0 {
        eprintln!("[smoke] FAIL: 2-thread batch served nothing");
        return 1;
    }
    if par_engine.registry().reciprocity_violation().is_some() {
        eprintln!("[smoke] FAIL: 2-thread batch corrupted the registry");
        return 1;
    }
    eprintln!("[smoke] OK: parallel pipeline is bit-identical to serial");
    0
}

/// Runs the distributed clustering protocol over a lossy simulated radio so
/// the metrics snapshot also carries the `net.rpc.*` retransmission and
/// timeout counters alongside the pipeline stage histograms.
fn netsim_stage() {
    use nela::cluster::distributed::distributed_k_clustering_with;
    use nela::netsim::network::{Network, NetworkConfig};
    use nela::netsim::proto::SimFetch;

    let (points, params) = population(2_000);
    let grid = GridIndex::build(&points, params.delta);
    let wpg = WpgBuilder::new(params.delta, params.max_peers, InverseDistanceRss)
        .build_with_index(&points, &grid);
    let system = System::with_parts(params.clone(), points, grid, wpg);
    for (i, &host) in system.host_sequence(40, 7).iter().enumerate() {
        let mut net = Network::new(NetworkConfig {
            loss: 0.3,
            max_retries: 5,
            seed: i as u64,
            ..Default::default()
        })
        .expect("config is valid");
        let mut fetch = SimFetch::new(&mut net, &system.wpg, host);
        let _ = distributed_k_clustering_with(&mut fetch, host, params.k, &|_| false);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    // NOTE: metrics are enabled only *after* the timed sweep below —
    // enabling here used to make every span in the hot loops record real
    // histogram samples during `measure()`, so the wall times written to
    // BENCH_parallel.json depended on whether `--metrics` was passed. The
    // sweep now always runs uninstrumented; `--metrics` replays an
    // instrumented (untimed) pipeline afterwards to populate the snapshot.
    let record_metrics = std::env::args().any(|a| a == "--metrics");
    let cfg = ExpConfig::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut rows = Vec::new();
    for n in [10_000usize, 50_000, 100_000] {
        let (points, params) = population(n);
        eprintln!("[parallel] n = {n}, sweeping {THREADS:?} threads");
        let mut reference = None;
        let mut serial_total = 0.0;
        for threads in THREADS {
            let (mut cell, artifacts) = measure(&points, &params, threads, reference.as_ref());
            if threads == 1 {
                serial_total = cell.total_ms;
                reference = Some(artifacts);
            }
            cell.speedup = serial_total / cell.total_ms;
            assert!(
                cell.identical,
                "parallel output diverged from serial at n = {n}, {threads} threads"
            );
            rows.push(cell);
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|c| {
            vec![
                c.n.to_string(),
                c.threads.to_string(),
                c.shards.to_string(),
                fmt(c.grid_ms),
                fmt(c.wpg_ms),
                fmt(c.components_ms),
                fmt(c.request_many_ms),
                fmt(c.total_ms),
                format!("{}x", fmt(c.speedup)),
                if c.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Parallel pipeline scaling ({cores} cores available)"),
        &[
            "n",
            "threads",
            "shards",
            "grid ms",
            "wpg ms",
            "comps ms",
            "batch ms",
            "total ms",
            "speedup",
            "identical",
        ],
        &table,
    );

    let report = Report { cores, rows };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_parallel.json");
    std::fs::write(&root, &json).expect("write BENCH_parallel.json");
    eprintln!("[results] wrote {}", root.display());
    cfg.write_json("exp_parallel", &report);

    if record_metrics {
        nela_obs::enable();
        // Instrumented replay of one mid-size pipeline so the snapshot
        // carries the stage histograms the timed sweep no longer records.
        eprintln!("[parallel] instrumented pipeline replay for stage histograms");
        let (points, params) = population(10_000);
        let _ = measure(&points, &params, cores, None);
        eprintln!("[parallel] lossy-network clustering stage for RPC counters");
        netsim_stage();
        let obs_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_obs.json");
        std::fs::write(&obs_path, nela_obs::snapshot().to_json()).expect("write BENCH_obs.json");
        eprintln!("[results] wrote {}", obs_path.display());
    }
}
