//! The correctness gate, run between rounds and off the clock.

use crate::drive::{Outcome, RoundLog};
use nela::geo::{Point, Rect};
use nela::lbs::PoiStore;
use nela::{audit_result, System};
use nela_serve::QueryKind;

/// Violations found so far; the first few are kept verbatim.
#[derive(Default)]
pub struct Gate {
    pub violations: usize,
    pub examples: Vec<String>,
}

impl Gate {
    pub fn fail(&mut self, what: String) {
        self.violations += 1;
        if self.examples.len() < 8 {
            self.examples.push(what);
        }
    }

    pub fn passed(&self) -> bool {
        self.violations == 0
    }

    /// Checks one round served over `system`: the accounting identities,
    /// the anonymity audit of every served region, and every refined answer
    /// against the exact answer at the host's true position.
    pub fn check_round(&mut self, system: &System, store: &PoiStore, log: &RoundLog) {
        let attempted = log.records.len();
        let served = count(log, |o| matches!(o, Outcome::Served { .. }));
        let failed = count(log, |o| matches!(o, Outcome::Failed(_)));
        // No deadline is set, so no admitted request can expire.
        let expired = 0;
        if log.admitted + log.shed != attempted {
            self.fail(format!(
                "admitted {} + shed {} != attempted {attempted}",
                log.admitted, log.shed
            ));
        }
        if served + failed + expired != log.admitted {
            self.fail(format!(
                "served {served} + failed {failed} + expired {expired} != admitted {}",
                log.admitted
            ));
        }
        for record in &log.records {
            let Outcome::Served { result, answer, .. } = &record.outcome else {
                continue;
            };
            let id = record.arrival.id;
            let audit = audit_result(system, result);
            if !audit.passed() {
                self.fail(format!("request {id}: region fails the audit: {audit:?}"));
            }
            let position = system.points[record.arrival.host as usize];
            let exact = exact_answer(store, position, record.arrival.query);
            let mut got = answer.clone();
            if matches!(record.arrival.query, QueryKind::Range(_)) {
                got.sort_unstable();
            }
            if got != exact {
                self.fail(format!(
                    "request {id}: refined answer {got:?} != exact {exact:?}"
                ));
            }
        }
    }
}

fn count(log: &RoundLog, pick: impl Fn(&Outcome) -> bool) -> usize {
    log.records.iter().filter(|r| pick(&r.outcome)).count()
}

/// The exact answer at `p`: POIs within the radius (ascending ids), or the
/// k nearest (ascending distance, ties by id).
fn exact_answer(store: &PoiStore, p: Point, query: QueryKind) -> Vec<u32> {
    match query {
        QueryKind::Knn(k) => store.knn(p, k),
        QueryKind::Range(r) => {
            let window = Rect::new(
                (p.x - r).max(0.0),
                (p.y - r).max(0.0),
                (p.x + r).min(1.0),
                (p.y + r).min(1.0),
            );
            let mut ids: Vec<u32> = store
                .range(&window)
                .into_iter()
                .filter(|&id| store.get(id).position.dist(&p) <= r)
                .collect();
            ids.sort_unstable();
            ids
        }
    }
}
