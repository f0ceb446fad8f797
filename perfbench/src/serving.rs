//! The front door under test: a `pkgrec-server` with
//! `ServerConfig::default()` over a durable store opened with the
//! `DurabilityConfig::at` defaults, driven by `Client` connections of this
//! process.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pkgrec_core::{CoreError, Result};
use pkgrec_serve::{DurabilityConfig, SessionStore, StoreConfig, StoreStats};
use pkgrec_server::{Client, ServeReport, Server, ServerConfig, ServerControl};

use crate::backends::Wire;
use crate::checks::SessionTrace;
use crate::drive::{drive, OpCounts, Span, Spans};
use crate::workload::{Inputs, Schedule, SessionPlan, Workload};

fn io(error: std::io::Error) -> CoreError {
    CoreError::io(error.kind(), error.to_string())
}

/// A running server and the connections that drive it.
pub struct Serving {
    pub dir: PathBuf,
    pub wires: Vec<Wire>,
    control: ServerControl,
    handle: JoinHandle<Result<(SessionStore, ServeReport)>>,
}

/// Opens a fresh durable store in `dir`, starts the server, connects one
/// client per connection and serves the warm-up sessions.  Returns the
/// set-up time: store open, server start and warm-up, without the wait for
/// the accept loop to pick up each new connection.
pub fn set_up(
    workload: &Workload,
    inputs: &Inputs,
    dir: &Path,
    origin: Instant,
) -> Result<(Serving, Duration)> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(io)?;
    }
    let started = Instant::now();
    let store = SessionStore::open_with(workload.store, DurabilityConfig::at(dir))?;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(io)?;
    let addr: SocketAddr = server.local_addr().map_err(io)?;
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        let report = server.serve(&mut store)?;
        Ok((store, report))
    });
    let mut setup = started.elapsed();
    let mut wires = Vec::with_capacity(workload.connections);
    for _ in 0..workload.connections {
        wires.push(Wire::new(Client::connect(addr)?, Spans::new(origin)));
    }
    let started = Instant::now();
    let warmup: Vec<&SessionPlan> = inputs.warmup.iter().collect();
    let (_, counts) = drive(
        &mut wires[0],
        &warmup,
        Schedule::Sequential,
        workload.round_cap,
    );
    setup += started.elapsed();
    if counts.failed() > 0 {
        return Err(CoreError::InvalidConfig(
            "a warm-up operation failed".into(),
        ));
    }
    wires[0].spans.list.clear();
    Ok((
        Serving {
            dir: dir.to_path_buf(),
            wires,
            control,
            handle,
        },
        setup,
    ))
}

/// What the timed phase of the wire execution produced.
pub struct Served {
    pub traces: Vec<SessionTrace>,
    pub counts: OpCounts,
    pub spans: Vec<Span>,
    pub elapsed: Duration,
}

/// Runs the timed sessions: connection `c` drives the sessions whose index
/// is `c` modulo the number of connections, each on its own thread.
pub fn serve_timed(workload: &Workload, serving: &mut Serving, plans: &[SessionPlan]) -> Served {
    let lanes = serving.wires.len();
    let lane_plans: Vec<Vec<&SessionPlan>> = (0..lanes)
        .map(|c| plans.iter().filter(|p| p.index % lanes == c).collect())
        .collect();
    let started = Instant::now();
    let outcomes: Vec<(Vec<SessionTrace>, OpCounts)> = if lanes == 1 {
        vec![drive(
            &mut serving.wires[0],
            &lane_plans[0],
            workload.schedule,
            workload.round_cap,
        )]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = serving
                .wires
                .iter_mut()
                .zip(&lane_plans)
                .map(|(wire, plans)| {
                    scope.spawn(move || drive(wire, plans, workload.schedule, workload.round_cap))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a connection thread panicked"))
                .collect()
        })
    };
    let elapsed = started.elapsed();
    let mut served = Served {
        traces: Vec::new(),
        counts: OpCounts::default(),
        spans: Vec::new(),
        elapsed,
    };
    for (traces, counts) in outcomes {
        served.traces.extend(traces);
        served.counts.merge(&counts);
    }
    served.traces.sort_by_key(|t| t.index);
    for wire in &mut serving.wires {
        served.spans.append(&mut wire.spans.list);
    }
    served
}

/// The server's view at the end of the timed phase.
pub struct Closing {
    pub stats: StoreStats,
    pub report: ServeReport,
    pub retries: u64,
    pub sessions: usize,
    pub durable_bytes: u64,
}

impl Serving {
    /// Reads the store's counters over the wire, then shuts the server down
    /// and drops the synced store without a checkpoint, as a crash would.
    pub fn stop(mut self) -> Result<Closing> {
        let (_, stats) = self.wires[0].client.stats()?;
        let retries = self.wires.iter().map(|w| w.client.retries()).sum();
        let (store, report) = self.shut_down()?;
        let closing = Closing {
            stats,
            report,
            retries,
            sessions: store.len(),
            durable_bytes: store.durable_bytes()?,
        };
        std::mem::forget(store);
        Ok(closing)
    }

    /// Shuts down and deletes the store: for set-ups whose run is not kept.
    pub fn discard(self) -> Result<()> {
        let dir = self.dir.clone();
        drop(self.shut_down()?);
        std::fs::remove_dir_all(dir).map_err(io)
    }

    /// Closes the connections, stops the server and takes its store back.
    fn shut_down(mut self) -> Result<(SessionStore, ServeReport)> {
        self.wires.clear();
        self.control.shutdown();
        self.handle
            .join()
            .map_err(|_| CoreError::InvalidConfig("the server thread panicked".into()))?
    }
}

/// Most reopens one recovery measurement makes.
const MAX_OPENS: usize = 64;

/// Reopens the store directory left by [`Serving::stop`] until the opens
/// add up to `budget` (at least once, at most [`MAX_OPENS`] times),
/// returning each open's duration and the last store.  A fresh open appends
/// nothing, so dropping one leaves the directory as the crash left it.
pub fn recover(
    config: StoreConfig,
    dir: &Path,
    budget: Duration,
) -> Result<(Vec<Duration>, SessionStore)> {
    let mut durations: Vec<Duration> = Vec::new();
    loop {
        let started = Instant::now();
        let store = SessionStore::open_with(config, DurabilityConfig::at(dir))?;
        durations.push(started.elapsed());
        if durations.iter().sum::<Duration>() >= budget || durations.len() >= MAX_OPENS {
            return Ok((durations, store));
        }
    }
}
