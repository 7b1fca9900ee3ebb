//! Paper-scale open-loop serving benchmark for the NELA pipeline.
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload <cold_paper|warm_carry|lossy_radio|mobile_epochs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Serves the Table I system under Poisson open-loop load on one thread
//! that is both the arrival clock and the single worker, times every
//! request from its scheduled arrival, checks every answer off the clock,
//! and prints, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run serves the
//! same rounds twice, untraced and then traced, and reports the per-layer
//! metrics of the traced pass, the tracing overhead, and writes the spans
//! under `$CARGO_TARGET_DIR/paperbench-traces/` (default `.bench_build`).
//!
//! Exits 2 on bad arguments or when any `NELA_*` environment override is
//! set, and 1 when a correctness check fails.

mod check;
mod drive;
mod metrics;
mod stats;
mod trace;
mod workload;

use check::Gate;
use metrics::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{run_pass, setup_once, Setup, SetupTimes, Workload, SETUP_REPS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: expected a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "--workload {value}: expected one of cold_paper, warm_carry, lossy_radio, mobile_epochs"
                ))?)
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.clamp(1, 60)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args, rounds: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let w = args.workload;
    let p = workload::table1();
    format!(
        "{{\"provenance\":{{\"git_revision\":\"{}\",\"nproc\":{nproc},\"workload\":\"{}\",\"seed\":{},\
\"seconds\":{},\"trace\":{},\"setup_reps\":{SETUP_REPS},\"rounds\":{rounds},\"requests_per_round\":{},\
\"offered_rps\":{},\"workers\":1,\"threads\":1,\"transport\":\"{}\",\"net_loss\":{},\
\"stationary_frac\":{},\"users\":{},\"k\":{},\"delta\":{},\"max_peers\":{},\"dataset_seed\":{},\
\"query\":\"mix range r=0.02 / knn k=5, 50/50\",\"slo_ms\":{}}}}}",
        git_revision(),
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::ROUND,
        w.rate(),
        w.transport(),
        if w == Workload::LossyRadio { workload::LOSS } else { 0.0 },
        if w == Workload::MobileEpochs { workload::STATIONARY } else { 0.0 },
        p.n_users,
        p.k,
        p.delta,
        p.max_peers,
        p.seed,
        metrics::SLO_MS,
    )
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Sets the workload up `SETUP_REPS` times and keeps the last set-up.
fn set_up(w: Workload, seed: u64) -> (Setup, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (setup, t) = setup_once(w, seed);
        times.push(t);
        kept = Some(setup);
    }
    (kept.expect("SETUP_REPS is positive"), times)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NELA_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "error: refusing to run with environment overrides set: {}",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    let rounds = w.rounds(args.seconds);
    let provenance = provenance(&args, rounds);
    println!("{provenance}");

    let (mut setup, setup_times) = set_up(w, args.seed);
    let mut gate = Gate::default();
    let plain = run_pass(&mut setup, rounds, false, &mut gate);
    let e2e = metrics::end_to_end(&setup_times, &plain);
    let attempted = plain.rounds.iter().map(|r| r.log.records.len()).sum();
    let served = metrics::e2e_ms(&plain).len();

    let reported = if args.trace {
        nela_obs::reset();
        nela_obs::enable();
        let traced = run_pass(&mut setup, rounds, true, &mut gate);
        nela_obs::disable();
        let obs = nela_obs::snapshot();
        if traced.digest != plain.digest {
            gate.fail(format!(
                "answer digest differs between the untraced ({:016x}) and traced ({:016x}) runs",
                plain.digest, traced.digest
            ));
        }
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
            .join("paperbench-traces");
        let file = format!("{}-seed{}.jsonl", w.name(), args.seed);
        match trace::write(&dir, &file, &provenance, &traced) {
            Ok(path) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write the trace: {e}"),
        }
        metrics::per_layer(&setup_times, &traced, &plain, &obs, w.rate())
    } else {
        e2e
    };

    for example in &gate.examples {
        eprintln!("check failed: {example}");
    }
    for m in &reported {
        eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(gate.passed(), attempted, attempted - served, &reported)
    );
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} correctness check(s) failed", gate.violations);
        ExitCode::FAILURE
    }
}
