//! The open-loop serving loop, built only from public calls.
//!
//! One thread is both the arrival clock and the single worker. It readies
//! the round's session, then repeatedly admits into a [`RequestQueue`]
//! every arrival whose scheduled instant (`start + arrival.at`) has passed,
//! pops the oldest, cloaks it through [`EngineSession::request`], queries
//! [`LbsServer::handle`] and refines at the host's true position. When the
//! queue is empty it spins until the next scheduled instant. Every request
//! is timed from its *scheduled* arrival, so a backlog behind a slow
//! request or the session hand-over shows in its latency instead of being
//! omitted, exactly as with a separate producer thread, but no thread
//! wake-up sits on the request path: with one worker, a second thread only
//! adds the host scheduler's wake-up latency to every request.
//!
//! Untraced rounds stamp only pickup and completion. Traced rounds also
//! stamp both edges of every layer call, which the trace and the per-layer
//! metrics are built from.

use nela::geo::Point;
use nela::lbs::{refine_knn, refine_range, CloakedQuery, LbsServer};
use nela::{CloakingResult, EngineSession, RequestError};
use nela_serve::{Arrival, Pop, Push, QueryKind, RequestQueue};
use std::cell::{Cell, RefCell};
use std::hint::spin_loop;
use std::time::{Duration, Instant};

/// What became of one attempted request.
pub enum Outcome {
    /// Cloaked, answered by the LBS and refined.
    Served {
        result: CloakingResult,
        candidates: usize,
        answer: Vec<u32>,
    },
    /// The engine returned a typed error.
    Failed(RequestError),
    /// The queue was full at arrival (never with the capacity used here).
    Shed,
}

/// Both edges of every layer call of one traced request, in ns from the
/// round start.
#[derive(Clone, Copy)]
pub struct Stamps {
    pub cloak: (u64, u64),
    /// LBS handle and refinement; absent when cloaking failed.
    pub lbs: Option<(u64, u64)>,
    pub refine: Option<(u64, u64)>,
}

/// One attempted request. Times are ns from the round start.
pub struct Record {
    pub arrival: Arrival,
    /// When the worker was idle at this arrival's scheduled instant: how
    /// late the loop admitted it. Arrivals that come due while a request
    /// is in service are admitted after it, with their clock already
    /// running from the scheduled instant, and carry `None`.
    pub late: Option<u64>,
    pub picked: u64,
    pub done: u64,
    pub stamps: Option<Stamps>,
    pub outcome: Outcome,
}

impl Record {
    /// Scheduled arrival, ns from the round start.
    pub fn due(&self) -> u64 {
        ns(self.arrival.at)
    }

    /// Scheduled arrival to refined answer (or to the outcome).
    pub fn e2e(&self) -> u64 {
        self.done.saturating_sub(self.due())
    }

    /// Scheduled arrival to pickup by the worker.
    pub fn wait(&self) -> u64 {
        self.picked.saturating_sub(self.due())
    }

    /// Pickup to outcome: the worker's busy time for this request.
    pub fn busy(&self) -> u64 {
        self.done.saturating_sub(self.picked)
    }

    /// When the arrival entered the system, ns from the round start: its
    /// scheduled instant plus any admission lag.
    pub fn entered(&self) -> u64 {
        self.due() + self.late.unwrap_or(0)
    }
}

/// Everything one round measured.
pub struct RoundLog {
    /// One record per arrival, in arrival order.
    pub records: Vec<Record>,
    pub admitted: usize,
    pub shed: usize,
    pub max_queue_depth: usize,
}

struct Job {
    index: usize,
    late: Option<u64>,
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// The open-loop clock of one round, handed to the worker: each arrival
/// comes due at `start + arrival.at`, whether or not the worker is ready
/// for it.
pub struct Clock<'a> {
    arrivals: &'a [Arrival],
    queue: RequestQueue<Job>,
    start: Instant,
    /// First arrival not yet admitted.
    next: Cell<usize>,
    admitted: Cell<usize>,
    /// Each shed arrival with its admission instant (ns from the start).
    shed: RefCell<Vec<(usize, u64)>>,
}

impl Clock<'_> {
    /// The round start: the arrivals' time origin.
    pub fn start(&self) -> Instant {
        self.start
    }

    fn due(&self, index: usize) -> Instant {
        self.start + self.arrivals[index].at
    }

    /// Admits every arrival due by `now`. `late` is set when the worker
    /// idled until the first of them came due.
    fn admit(&self, now: Instant, mut late: Option<u64>) {
        let mut index = self.next.get();
        while index < self.arrivals.len() && self.due(index) <= now {
            match self.queue.push(Job { index, late }) {
                Push::Admitted => self.admitted.set(self.admitted.get() + 1),
                Push::Shed => self.shed.borrow_mut().push((index, ns(now - self.start))),
            }
            late = None;
            index += 1;
        }
        self.next.set(index);
    }

    /// Serves the round's arrivals over `session` on the calling thread
    /// until the last one is admitted and the queue is drained. Returns
    /// each served request with its arrival index.
    pub fn serve(
        &self,
        session: &EngineSession<'_>,
        server: &LbsServer,
        points: &[Point],
        traced: bool,
    ) -> Vec<(usize, Record)> {
        let mut out = Vec::with_capacity(self.arrivals.len());
        loop {
            self.admit(Instant::now(), None);
            if self.queue.depth() == 0 {
                let index = self.next.get();
                if index == self.arrivals.len() {
                    self.queue.close();
                } else {
                    let due = self.due(index);
                    let mut now = Instant::now();
                    while now < due {
                        spin_loop();
                        now = Instant::now();
                    }
                    self.admit(now, Some(ns(now - due)));
                }
            }
            // The queue now holds an admitted arrival or is closed and
            // drained, so this pop never blocks.
            let Pop::Item(job) = self.queue.pop() else {
                break;
            };
            let arrival = self.arrivals[job.index];
            let record = serve_one(session, server, points, arrival, &job, self.start, traced);
            out.push((job.index, record));
        }
        out
    }
}

/// Runs one round open loop on the calling thread: starts the round's
/// clock, then runs `worker`. The worker readies its session first —
/// arrivals already come due meanwhile, so session hand-over time shows
/// in their latency — then drains the round with [`Clock::serve`] and
/// returns its records with any value of its own. The queue holds the
/// whole round, so nothing is shed.
pub fn round<R>(
    arrivals: &[Arrival],
    worker: impl FnOnce(&Clock<'_>) -> (R, Vec<(usize, Record)>),
) -> (R, RoundLog) {
    let clock = Clock {
        arrivals,
        queue: RequestQueue::new(arrivals.len().max(1)),
        start: Instant::now(),
        next: Cell::new(0),
        admitted: Cell::new(0),
        shed: RefCell::new(Vec::new()),
    };
    let (value, served) = worker(&clock);
    let shed = clock.shed.take();
    let shed_count = shed.len();
    let mut records = served;
    records.extend(shed.into_iter().map(|(index, at)| {
        let record = Record {
            arrival: arrivals[index],
            late: None,
            picked: at,
            done: at,
            stamps: None,
            outcome: Outcome::Shed,
        };
        (index, record)
    }));
    records.sort_by_key(|(index, _)| *index);
    let log = RoundLog {
        records: records.into_iter().map(|(_, r)| r).collect(),
        admitted: clock.admitted.get(),
        shed: shed_count,
        max_queue_depth: clock.queue.max_depth(),
    };
    (value, log)
}

fn serve_one(
    session: &EngineSession<'_>,
    server: &LbsServer,
    points: &[Point],
    arrival: Arrival,
    job: &Job,
    start: Instant,
    traced: bool,
) -> Record {
    let since = |t: Instant| ns(t - start);
    let stamp = || traced.then(Instant::now);
    let picked = Instant::now();
    let cloak0 = stamp();
    let cloaked = session.request(arrival.host);
    let cloak1 = stamp();
    let mut lbs = None;
    let mut refine = None;
    let outcome = match cloaked {
        Err(e) => Outcome::Failed(e),
        Ok(result) => {
            let position = points[arrival.host as usize];
            let query = match arrival.query {
                QueryKind::Range(radius) => CloakedQuery::Range { radius },
                QueryKind::Knn(k) => CloakedQuery::Knn { k },
            };
            let lbs0 = stamp();
            let response = server.handle(&result.region, &query);
            let lbs1 = stamp();
            let answer = match arrival.query {
                QueryKind::Range(radius) => {
                    refine_range(server.store(), &response.candidates, position, radius)
                }
                QueryKind::Knn(k) => refine_knn(server.store(), &response.candidates, position, k),
            };
            let refine1 = stamp();
            if let (Some(a), Some(b), Some(c)) = (lbs0, lbs1, refine1) {
                lbs = Some((since(a), since(b)));
                refine = Some((since(b), since(c)));
            }
            Outcome::Served {
                result,
                candidates: response.candidates.len(),
                answer,
            }
        }
    };
    let done = Instant::now();
    let stamps = match (cloak0, cloak1) {
        (Some(a), Some(b)) => Some(Stamps {
            cloak: (since(a), since(b)),
            lbs,
            refine,
        }),
        _ => None,
    };
    Record {
        arrival,
        late: job.late,
        picked: since(picked),
        done: since(done),
        stamps,
        outcome,
    }
}
