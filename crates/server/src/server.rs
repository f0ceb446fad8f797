//! The sharded request loop: a TCP accept loop in front of per-shard
//! worker threads.
//!
//! Ownership discipline mirrors [`pkgrec_serve::ServingLoop`]: the store's
//! shards are split via [`SessionStore::shards_mut`] and each worker
//! thread owns its shard `&mut` exclusively, so no session operation ever
//! contends with another thread — connections only *route*.  A connection
//! thread parses frames, computes [`shard_of`]`(session)` and pushes a job
//! down that shard's bounded channel, then awaits the reply under the
//! request deadline.  `Stats` and `Sync` broadcast to every shard and
//! merge the replies.
//!
//! Shutdown is graceful by construction: [`ServerControl::shutdown`] flips
//! a flag and wakes the accept loop, which blocks in `accept` between
//! connections, with a loopback connect to the bound port; connection
//! threads notice on their next read-timeout tick, and each worker
//! `sync()`s its shard's durable log when its channel closes — then
//! [`Server::serve`] itself syncs the store once more before returning.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pkgrec_core::{Feedback, Result};
use pkgrec_serve::{shard_of, SessionConfig, SessionId, SessionStore, Shard, StoreStats};
use serde::{Deserialize, Serialize};

use crate::protocol::{
    read_message, write_frame, write_hello, ErrorKind, FrameError, Request, Response, WireError,
    DEFAULT_MAX_FRAME_LEN,
};

/// Tunables for [`Server`]; `Default` suits tests and examples.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Bound of each per-shard job queue; a full queue applies
    /// backpressure to connections rather than growing without limit.
    pub queue_depth: usize,
    /// Deadline for one request, measured from frame parse to reply.
    pub request_timeout: Duration,
    /// Ceiling on a single frame's payload length.
    pub max_frame_len: usize,
    /// Read-timeout granularity: how often blocked connection readers poll
    /// for shutdown (smaller shuts down faster; larger spins less), and the
    /// back-off after a failed `accept`.  The accept loop itself blocks
    /// until a connection arrives or [`ServerControl::shutdown`] wakes it.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            queue_depth: 64,
            request_timeout: Duration::from_secs(10),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(5),
        }
    }
}

/// What one [`Server::serve`] run saw, counter by counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: usize,
    /// Well-formed requests executed (error replies included).
    pub requests: usize,
    /// Frames rejected before parsing (torn, bad CRC, oversized).
    pub malformed_frames: usize,
    /// Intact frames whose payload was not a valid request.
    pub invalid_requests: usize,
    /// Requests that missed their deadline inside the server.
    pub timeouts: usize,
    /// Requests that executed but returned an error response.
    pub error_responses: usize,
}

/// Cross-thread server state: the shutdown flag, the session-id
/// allocator, and the report counters.
struct Shared {
    shutdown: Arc<AtomicBool>,
    next_id: AtomicU64,
    connections: AtomicUsize,
    requests: AtomicUsize,
    malformed_frames: AtomicUsize,
    invalid_requests: AtomicUsize,
    timeouts: AtomicUsize,
    error_responses: AtomicUsize,
}

/// A handle that can stop a running server from another thread.
#[derive(Clone)]
pub struct ServerControl {
    shutdown: Arc<AtomicBool>,
    /// Where a connect reaches the listener (see [`wake_address`]).
    wake: SocketAddr,
}

impl ServerControl {
    /// Requests a graceful shutdown: stop accepting, drain connections,
    /// `sync()` every shard's durable log, return from `serve`.
    ///
    /// The flag is set first, then a loopback connect wakes the accept
    /// loop if it is blocked; the loop drops that connection unserved.  A
    /// failed connect means the listener is already gone.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// The address a local connect reaches a listener bound to `bound` at: an
/// unspecified bind address (`0.0.0.0`, `::`) maps to loopback.
fn wake_address(bound: SocketAddr) -> SocketAddr {
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => {
            SocketAddr::new(Ipv4Addr::LOCALHOST.into(), bound.port())
        }
        IpAddr::V6(ip) if ip.is_unspecified() => {
            SocketAddr::new(Ipv6Addr::LOCALHOST.into(), bound.port())
        }
        _ => bound,
    }
}

/// The work unit a connection routes to a shard worker.
struct ShardJob {
    request: ShardRequest,
    deadline: Instant,
    reply: SyncSender<Response>,
}

/// A [`Request`] with routing already resolved: `Create` carries its
/// pre-assigned id, broadcast ops arrive once per shard.
enum ShardRequest {
    Create(SessionId, Box<SessionConfig>),
    Present(SessionId),
    Feedback(SessionId, Feedback),
    Recommend(SessionId),
    Snapshot(SessionId),
    Stats,
    Sync,
}

/// A TCP front door for one [`SessionStore`].
///
/// Bind first, then hand the store to [`Server::serve`], which blocks
/// until [`ServerControl::shutdown`] — see the crate quickstart.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    control: ServerControl,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let control = ServerControl {
            shutdown: Arc::new(AtomicBool::new(false)),
            wake: wake_address(listener.local_addr()?),
        };
        Ok(Server {
            listener,
            config,
            control,
        })
    }

    /// The bound address — the port to hand to clients after binding `:0`.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A clonable handle that stops this server from another thread.
    pub fn control(&self) -> ServerControl {
        self.control.clone()
    }

    /// Serves the store until shutdown, then returns the run's counters.
    ///
    /// Blocks the calling thread: the accept loop runs inline, and the
    /// worker and connection threads live inside a [`std::thread::scope`]
    /// so every one of them has joined by the time this returns.  On
    /// return the store has absorbed all accepted work, its id allocator
    /// reflects every server-assigned session, and its durable log is
    /// synced.
    pub fn serve(self, store: &mut SessionStore) -> Result<ServeReport> {
        let config = self.config;
        let shared = Arc::new(Shared {
            shutdown: self.control.shutdown.clone(),
            next_id: AtomicU64::new(store.next_session_id()),
            connections: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
            malformed_frames: AtomicUsize::new(0),
            invalid_requests: AtomicUsize::new(0),
            timeouts: AtomicUsize::new(0),
            error_responses: AtomicUsize::new(0),
        });

        let shard_count = store.shard_count();
        let mut senders: Vec<SyncSender<ShardJob>> = Vec::with_capacity(shard_count);
        let mut receivers: Vec<Receiver<ShardJob>> = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
            senders.push(tx);
            receivers.push(rx);
        }

        std::thread::scope(|scope| {
            // One worker per shard, each owning its shard exclusively.
            for (shard, rx) in store.shards_mut().iter_mut().zip(receivers) {
                scope.spawn(move || shard_worker(shard, rx));
            }

            // The accept loop runs on the scope's own thread, blocked in
            // `accept` until a client or `ServerControl::shutdown`'s wake-up
            // connect arrives.
            while !shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    // Shutdown came first: this is the wake-up connect, or
                    // a client too late to serve.
                    Ok(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                    Ok((stream, _peer)) => {
                        shared.connections.fetch_add(1, Ordering::Relaxed);
                        let senders = senders.clone();
                        let shared = shared.clone();
                        scope.spawn(move || serve_connection(stream, senders, shared, config));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        // A failed accept (e.g. the peer reset before we
                        // got to it) must never take the server down.
                        std::thread::sleep(config.poll_interval);
                    }
                }
            }
            // Closing the channels tells each worker to drain and sync.
            drop(senders);
        });

        store.set_next_session_id(shared.next_id.load(Ordering::SeqCst));
        store.sync()?;
        Ok(ServeReport {
            connections: shared.connections.load(Ordering::Relaxed),
            requests: shared.requests.load(Ordering::Relaxed),
            malformed_frames: shared.malformed_frames.load(Ordering::Relaxed),
            invalid_requests: shared.invalid_requests.load(Ordering::Relaxed),
            timeouts: shared.timeouts.load(Ordering::Relaxed),
            error_responses: shared.error_responses.load(Ordering::Relaxed),
        })
    }
}

/// One shard's worker: drain jobs, execute against the exclusively-owned
/// shard, reply.  When the channel closes (all senders dropped — the
/// graceful-shutdown signal) the worker syncs its shard's durable log.
fn shard_worker(shard: &mut Shard, jobs: Receiver<ShardJob>) {
    while let Ok(job) = jobs.recv() {
        if Instant::now() >= job.deadline {
            // The connection has already timed out and replied; executing
            // now would waste the shard's time on an unobservable result.
            // Dropping `job.reply` wakes the waiter with a disconnect.
            continue;
        }
        let response = execute(shard, job.request);
        // The reply channel has capacity 1 and one consumer; if the
        // connection died early, dropping the response is correct.
        let _ = job.reply.try_send(response);
    }
    let _ = shard.sync();
}

/// Executes one routed request against its shard.
fn execute(shard: &mut Shard, request: ShardRequest) -> Response {
    match request {
        ShardRequest::Create(id, config) => match shard.create(id, *config) {
            Ok(()) => Response::Created { session: id.0 },
            Err(e) => Response::Error(WireError::from_core(&e)),
        },
        ShardRequest::Present(id) => match shard.op_present(id) {
            Ok(packages) => Response::Presented { packages },
            Err(e) => Response::Error(WireError::from_core(&e)),
        },
        ShardRequest::Feedback(id, feedback) => match shard.op_feedback(id, feedback) {
            Ok(preferences) => Response::FeedbackRecorded { preferences },
            Err(e) => Response::Error(WireError::from_core(&e)),
        },
        ShardRequest::Recommend(id) => match shard.op_recommend(id) {
            Ok(ranked) => Response::Recommended { ranked },
            Err(e) => Response::Error(WireError::from_core(&e)),
        },
        ShardRequest::Snapshot(id) => match shard.snapshot_now(id) {
            Ok(snapshot) => Response::Snapshotted { snapshot },
            Err(e) => Response::Error(WireError::from_core(&e)),
        },
        ShardRequest::Stats => Response::Stats {
            sessions: shard.session_count(),
            stats: shard.stats(),
        },
        ShardRequest::Sync => match shard.sync() {
            Ok(()) => Response::Synced,
            Err(e) => Response::Error(WireError::from_core(&e)),
        },
    }
}

/// One connection's loop: hello, then read-dispatch-reply until the peer
/// hangs up, the stream corrupts, or the server shuts down.
fn serve_connection(
    mut stream: TcpStream,
    senders: Vec<SyncSender<ShardJob>>,
    shared: Arc<Shared>,
    config: ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.poll_interval)).is_err() {
        return;
    }
    if write_hello(&mut stream).is_err() {
        return;
    }
    let stop = || shared.shutdown.load(Ordering::SeqCst);
    loop {
        let request = match read_message::<_, Request>(&mut stream, config.max_frame_len, &stop) {
            Ok(Ok(request)) => request,
            Ok(Err(parse_error)) => {
                // The frame was intact — the stream is still in sync, so
                // reply and keep the connection alive.
                shared.invalid_requests.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Error(WireError::new(
                    ErrorKind::InvalidRequest,
                    format!("unparseable request: {parse_error}"),
                ));
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
                continue;
            }
            Err(FrameError::Closed) | Err(FrameError::Stopped) | Err(FrameError::Io { .. }) => {
                return
            }
            Err(FrameError::Oversized { len }) => {
                // The declared payload was never read, so the stream can't
                // resync: reply once, then close.
                shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Error(WireError::new(
                    ErrorKind::Oversized,
                    format!(
                        "frame of {len} bytes exceeds the {} byte limit",
                        config.max_frame_len
                    ),
                ));
                let _ = write_frame(&mut stream, &reply);
                return;
            }
            Err(FrameError::Corrupt(msg)) => {
                shared.malformed_frames.fetch_add(1, Ordering::Relaxed);
                let reply = Response::Error(WireError::new(ErrorKind::MalformedFrame, msg));
                let _ = write_frame(&mut stream, &reply);
                return;
            }
        };
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let response = dispatch(request, &senders, &shared, config.request_timeout);
        if matches!(response, Response::Error(_)) {
            shared.error_responses.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Routes one request: resolve the target shard(s), enqueue, await.
fn dispatch(
    request: Request,
    senders: &[SyncSender<ShardJob>],
    shared: &Shared,
    timeout: Duration,
) -> Response {
    let deadline = Instant::now() + timeout;
    match request {
        Request::Create { config } => {
            // The server assigns the id so it can route the create to the
            // owning shard before the session exists anywhere.  A rejected
            // config burns the id — ids are opaque to clients.
            let id = SessionId(shared.next_id.fetch_add(1, Ordering::SeqCst));
            let shard = shard_of(id, senders.len());
            route_one(
                &senders[shard],
                ShardRequest::Create(id, Box::new(config)),
                deadline,
                shared,
            )
        }
        Request::Present { session } => {
            let id = SessionId(session);
            route_one(
                &senders[shard_of(id, senders.len())],
                ShardRequest::Present(id),
                deadline,
                shared,
            )
        }
        Request::Feedback { session, feedback } => {
            let id = SessionId(session);
            route_one(
                &senders[shard_of(id, senders.len())],
                ShardRequest::Feedback(id, feedback),
                deadline,
                shared,
            )
        }
        Request::Recommend { session } => {
            let id = SessionId(session);
            route_one(
                &senders[shard_of(id, senders.len())],
                ShardRequest::Recommend(id),
                deadline,
                shared,
            )
        }
        Request::Snapshot { session } => {
            let id = SessionId(session);
            route_one(
                &senders[shard_of(id, senders.len())],
                ShardRequest::Snapshot(id),
                deadline,
                shared,
            )
        }
        Request::Stats => {
            let replies = broadcast(senders, ShardRequest::Stats, deadline, shared);
            let mut sessions = 0usize;
            let mut stats = StoreStats::default();
            for reply in replies {
                match reply {
                    Response::Stats {
                        sessions: shard_sessions,
                        stats: shard_stats,
                    } => {
                        sessions += shard_sessions;
                        stats.merge(&shard_stats);
                    }
                    error @ Response::Error(_) => return error,
                    other => {
                        return Response::Error(WireError::new(
                            ErrorKind::Internal,
                            format!("shard answered Stats with {other:?}"),
                        ))
                    }
                }
            }
            Response::Stats { sessions, stats }
        }
        Request::Sync => {
            for reply in broadcast(senders, ShardRequest::Sync, deadline, shared) {
                match reply {
                    Response::Synced => {}
                    error @ Response::Error(_) => return error,
                    other => {
                        return Response::Error(WireError::new(
                            ErrorKind::Internal,
                            format!("shard answered Sync with {other:?}"),
                        ))
                    }
                }
            }
            Response::Synced
        }
    }
}

/// Enqueues one job on one shard and awaits its reply under the deadline.
fn route_one(
    sender: &SyncSender<ShardJob>,
    request: ShardRequest,
    deadline: Instant,
    shared: &Shared,
) -> Response {
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = ShardJob {
        request,
        deadline,
        reply: reply_tx,
    };
    // The bounded queue is the backpressure point: block until the shard
    // has room, bounded by the request deadline.
    let mut job = job;
    loop {
        match sender.try_send(job) {
            Ok(()) => break,
            Err(TrySendError::Full(returned)) => {
                if Instant::now() >= deadline {
                    shared.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Response::Error(WireError::new(
                        ErrorKind::Timeout,
                        "shard queue full past the request deadline",
                    ));
                }
                job = returned;
                std::thread::sleep(Duration::from_micros(100));
            }
            Err(TrySendError::Disconnected(_)) => {
                return Response::Error(WireError::new(
                    ErrorKind::ShuttingDown,
                    "server is shutting down",
                ));
            }
        }
    }
    let remaining = deadline.saturating_duration_since(Instant::now());
    match reply_rx.recv_timeout(remaining) {
        Ok(response) => response,
        Err(_) => {
            // Timed out, or the worker skipped the job as stale — either
            // way the deadline is the story the client hears.
            shared.timeouts.fetch_add(1, Ordering::Relaxed);
            Response::Error(WireError::new(
                ErrorKind::Timeout,
                "request missed its deadline",
            ))
        }
    }
}

/// Enqueues one job per shard (for `Stats` / `Sync`) and collects every
/// reply, preserving shard order.
fn broadcast(
    senders: &[SyncSender<ShardJob>],
    request: ShardRequest,
    deadline: Instant,
    shared: &Shared,
) -> Vec<Response> {
    senders
        .iter()
        .map(|sender| {
            let request = match &request {
                ShardRequest::Stats => ShardRequest::Stats,
                ShardRequest::Sync => ShardRequest::Sync,
                _ => unreachable!("only Stats and Sync broadcast"),
            };
            route_one(sender, request, deadline, shared)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unspecified_bind_address_wakes_through_loopback() {
        let cases = [
            ("0.0.0.0:7000", "127.0.0.1:7000"),
            ("[::]:7001", "[::1]:7001"),
            ("127.0.0.1:7002", "127.0.0.1:7002"),
            ("10.1.2.3:7003", "10.1.2.3:7003"),
            ("[::1]:7004", "[::1]:7004"),
        ];
        for (bound, wake) in cases {
            let bound: SocketAddr = bound.parse().unwrap();
            assert_eq!(wake_address(bound), wake.parse::<SocketAddr>().unwrap());
        }
    }
}
