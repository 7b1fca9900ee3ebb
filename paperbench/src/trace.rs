//! Spans of a traced pass, kept in memory and written out when the run ends.
//!
//! Per request: a root `request` span (scheduled arrival → outcome) with
//! children `queue`, `engine.request`, `lbs.handle` and `lbs.refine`, all
//! sharing the request's trace id. Per round: a root `epoch` span (round
//! start → session ready) with children `tick` and `snapshot` (on
//! `mobile_epochs`) and `resume` (opening or resuming the session).
//! Times are µs from the pass start; one JSON object per line.

use crate::drive::{ns, Outcome};
use crate::workload::{Pass, ROUND};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

struct Span {
    trace: String,
    name: &'static str,
    parent: Option<&'static str>,
    start_ns: u64,
    end_ns: u64,
}

fn spans(pass: &Pass) -> Vec<Span> {
    let mut out = Vec::new();
    for (r, round) in pass.rounds.iter().enumerate() {
        let epoch = format!("epoch-{r}");
        let refresh = round.refresh;
        let mut at = round.ready - ns(refresh.total());
        let mut child = |name, len: std::time::Duration, out: &mut Vec<Span>| {
            let end = at + ns(len);
            out.push(Span {
                trace: epoch.clone(),
                name,
                parent: Some("epoch"),
                start_ns: at,
                end_ns: end,
            });
            at = end;
        };
        if round.tick.is_some() {
            child("tick", refresh.tick, &mut out);
            child("snapshot", refresh.snapshot, &mut out);
        }
        child("resume", refresh.resume, &mut out);
        out.push(Span {
            trace: epoch.clone(),
            name: "epoch",
            parent: None,
            start_ns: round.ready - ns(refresh.total()),
            end_ns: round.ready,
        });
        for rec in &round.log.records {
            let Some(stamps) = rec.stamps else { continue };
            let trace = format!("req-{}", r * ROUND + rec.arrival.id as usize);
            let base = round.start;
            let mut push = |name, parent, (a, b): (u64, u64)| {
                out.push(Span {
                    trace: trace.clone(),
                    name,
                    parent,
                    start_ns: base + a,
                    end_ns: base + b,
                })
            };
            push("request", None, (rec.due(), rec.done));
            push("queue", Some("request"), (rec.due(), rec.picked));
            push("engine.request", Some("request"), stamps.cloak);
            if let Outcome::Served { .. } = rec.outcome {
                if let (Some(l), Some(f)) = (stamps.lbs, stamps.refine) {
                    push("lbs.handle", Some("request"), l);
                    push("lbs.refine", Some("request"), f);
                }
            }
        }
    }
    out
}

/// Writes the pass's spans under `dir`, headed by the provenance line, and
/// returns the file written.
pub fn write(dir: &Path, file: &str, provenance: &str, pass: &Pass) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    let mut text = String::new();
    text.push_str(provenance);
    text.push('\n');
    for s in spans(pass) {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            text,
            "{{\"trace\":\"{}\",\"span\":\"{}\",\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}",
            s.trace,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        );
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(text.as_bytes())?;
    f.flush()?;
    Ok(path)
}
