//! The closed-loop session driver, shared by every execution of a workload:
//! the wire, an in-process store, and the recommenders driven directly.

use std::time::Instant;

use pkgrec_core::{Feedback, Package, RankedPackage, Result};

use crate::checks::SessionTrace;
use crate::workload::{Schedule, SessionPlan};

/// The four verbs a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verb {
    Create,
    Present,
    Feedback,
    Recommend,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Create, Verb::Present, Verb::Feedback, Verb::Recommend];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Create => "create",
            Verb::Present => "present",
            Verb::Feedback => "feedback",
            Verb::Recommend => "recommend",
        }
    }

    fn slot(self) -> usize {
        self as usize
    }
}

/// One timed call: which layer (`name`), for which request, when.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory against a shared origin.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            list: Vec::new(),
        }
    }

    /// Runs `call` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, request: u64, call: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed().as_nanos() as u64;
        let result = call();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.list.push(Span {
            name,
            request,
            start_ns: start,
            end_ns: end,
        });
        result
    }
}

/// The request id of a session's `op`-th request (create is op 0).
pub fn request_id(session: usize, op: u32) -> u64 {
    ((session as u64) << 16) | u64::from(op)
}

/// The session index a request id belongs to.
pub fn session_of(request: u64) -> usize {
    (request >> 16) as usize
}

/// One way of executing the session verbs.  `request` identifies the call
/// across executions; `session` is the id `create` returned.
pub trait Backend {
    fn create(&mut self, request: u64, plan: &SessionPlan) -> Result<u64>;
    fn present(&mut self, request: u64, session: u64) -> Result<Vec<Package>>;
    fn feedback(&mut self, request: u64, session: u64, feedback: Feedback) -> Result<usize>;
    fn recommend(&mut self, request: u64, session: u64) -> Result<Vec<RankedPackage>>;
}

/// Operations attempted and failed, per verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    pub attempted: [usize; 4],
    pub failed: [usize; 4],
}

impl OpCounts {
    pub fn merge(&mut self, other: &OpCounts) {
        for v in 0..4 {
            self.attempted[v] += other.attempted[v];
            self.failed[v] += other.failed[v];
        }
    }

    pub fn attempted(&self) -> usize {
        self.attempted.iter().sum()
    }

    pub fn failed(&self) -> usize {
        self.failed.iter().sum()
    }

    pub fn of(&self, verb: Verb) -> (usize, usize) {
        (self.attempted[verb.slot()], self.failed[verb.slot()])
    }
}

/// A session in flight.
struct Running<'a> {
    plan: &'a SessionPlan,
    id: u64,
    op: u32,
    previous: Option<Vec<Package>>,
    trace: SessionTrace,
    done: bool,
}

struct Lane<'b, B: Backend> {
    backend: &'b mut B,
    round_cap: usize,
    counts: OpCounts,
}

impl<B: Backend> Lane<'_, B> {
    fn call<R>(
        &mut self,
        run: &mut Running,
        verb: Verb,
        call: impl FnOnce(&mut B, u64) -> Result<R>,
    ) -> Option<R> {
        let request = request_id(run.plan.index, run.op);
        run.op += 1;
        self.counts.attempted[verb.slot()] += 1;
        match call(self.backend, request) {
            Ok(value) => Some(value),
            Err(error) => {
                self.counts.failed[verb.slot()] += 1;
                eprintln!(
                    "session {}: {} failed: {error}",
                    run.plan.index,
                    verb.name()
                );
                run.trace.failed = true;
                run.done = true;
                None
            }
        }
    }

    fn start<'a>(&mut self, plan: &'a SessionPlan) -> Running<'a> {
        let mut run = Running {
            plan,
            id: 0,
            op: 0,
            previous: None,
            trace: SessionTrace {
                index: plan.index,
                ..SessionTrace::default()
            },
            done: false,
        };
        if let Some(id) = self.call(&mut run, Verb::Create, |b, r| b.create(r, plan)) {
            run.id = id;
            run.trace.id = id;
        }
        run
    }

    /// One round: present, then either stop (the recommended part repeated
    /// the previous round's, or the round cap is reached) with the final
    /// recommend, or click the user's favourite.
    fn step(&mut self, run: &mut Running) {
        let id = run.id;
        let Some(shown) = self.call(run, Verb::Present, |b, r| b.present(r, id)) else {
            return;
        };
        let head: Vec<Package> = shown.iter().take(run.plan.k).cloned().collect();
        let stop =
            run.previous.as_ref() == Some(&head) || run.trace.shown.len() + 1 >= self.round_cap;
        if stop {
            run.trace.shown.push(shown);
            if let Some(ranked) = self.call(run, Verb::Recommend, |b, r| b.recommend(r, id)) {
                run.trace.recommendation = ranked;
            }
            run.done = true;
            return;
        }
        let choice = run.plan.choose(&shown);
        run.trace.shown.push(shown);
        run.previous = Some(head);
        let feedback = Feedback::Click { index: choice };
        if let Some(added) = self.call(run, Verb::Feedback, |b, r| b.feedback(r, id, feedback)) {
            run.trace.clicks.push(choice);
            run.trace.preferences.push(added);
        }
    }
}

/// Drives `plans` to their end through `backend` on the calling thread,
/// returning each session's trace (in plan order) and the op counts.
pub fn drive<B: Backend>(
    backend: &mut B,
    plans: &[&SessionPlan],
    schedule: Schedule,
    round_cap: usize,
) -> (Vec<SessionTrace>, OpCounts) {
    let mut lane = Lane {
        backend,
        round_cap,
        counts: OpCounts::default(),
    };
    let mut traces = Vec::with_capacity(plans.len());
    match schedule {
        Schedule::Sequential => {
            for plan in plans {
                let mut run = lane.start(plan);
                while !run.done {
                    lane.step(&mut run);
                }
                traces.push(run.trace);
            }
        }
        Schedule::RoundRobin { fleet } => {
            for wave in plans.chunks(fleet) {
                let mut runs: Vec<Running> = wave.iter().map(|plan| lane.start(plan)).collect();
                while runs.iter().any(|run| !run.done) {
                    for run in runs.iter_mut().filter(|run| !run.done) {
                        lane.step(run);
                    }
                }
                traces.extend(runs.into_iter().map(|run| run.trace));
            }
        }
    }
    (traces, lane.counts)
}
