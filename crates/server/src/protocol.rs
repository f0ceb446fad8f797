//! The `pkgrec` wire protocol: a length-prefixed, CRC32-framed JSON codec.
//!
//! The framing deliberately reuses the durable journal's record idiom
//! ([`pkgrec_serve::segment`]): every message travels as
//!
//! ```text
//! [payload len: u32 LE][crc32(payload): u32 LE][payload: JSON bytes]
//! ```
//!
//! so the same [`crc32`] implementation guards bytes at rest and bytes in
//! flight.  A connection opens with an 11-byte hello —
//! [`HELLO_MAGIC`] (`PKGSRV\0`) followed by [`PROTOCOL_VERSION`] as u32 LE
//! — written by the server and verified by the client, which pins the
//! protocol the way the segment header pins the journal format.
//!
//! Payloads are serde JSON renderings of [`Request`] and [`Response`]:
//! one enum variant per store operation, plus a typed [`WireError`] reply
//! that survives the round trip back into a
//! [`CoreError`] on the client.
//!
//! [`read_frame`] is written for a server that must never die from client
//! bytes: a torn prefix, an oversized length, or a CRC mismatch comes back
//! as a typed [`FrameError`] — the connection replies and/or closes, the
//! accept loop never notices.

use std::io::{Read, Write};
use std::time::Duration;

use pkgrec_core::{CoreError, Feedback, Package, RankedPackage, Result};
use pkgrec_serve::segment::crc32;
use pkgrec_serve::{SessionConfig, StoreStats};
use serde::{Deserialize, Serialize};

/// First bytes of every connection: `PKGSRV\0`.
pub const HELLO_MAGIC: [u8; 7] = *b"PKGSRV\0";

/// Wire protocol version, bumped on any framing or payload schema change.
/// v4 grew [`StoreStats`] with the cross-shard batching counters
/// (`batched_sessions`, `admission_fallbacks`, `batch_wait_us`); the
/// batching stack is gone and they read 0 until the next bump drops them.
pub const PROTOCOL_VERSION: u32 = 4;

/// Hello length: magic + u32 LE version.
pub const HELLO_LEN: usize = HELLO_MAGIC.len() + 4;

/// Frame prefix length: u32 LE payload length + u32 LE CRC32.
pub const FRAME_PREFIX_LEN: usize = 8;

/// Default ceiling on a single frame's payload (8 MiB) — a catalog of
/// tens of thousands of items fits with room to spare, while a hostile
/// length prefix cannot make the server allocate unbounded memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// One client request: the session-store surface, one variant per op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Create a session from its full (serde) configuration.
    Create {
        /// Catalog, profile, φ, recommender recipe and seed.
        config: SessionConfig,
    },
    /// Build one presentation round for the session.
    Present {
        /// Target session id.
        session: u64,
    },
    /// Record typed feedback against the session's last presented list.
    Feedback {
        /// Target session id.
        session: u64,
        /// The user's reaction to the last presented round.
        feedback: Feedback,
    },
    /// The session's current top-k recommendation.
    Recommend {
        /// Target session id.
        session: u64,
    },
    /// Serialise the session's snapshot, journaling it as a checkpoint.
    Snapshot {
        /// Target session id.
        session: u64,
    },
    /// Counters summed across all shards, plus the live session count.
    Stats,
    /// Force every shard's buffered journal bytes to disk.
    Sync,
}

impl Request {
    /// The session this request addresses, if it addresses one (`Create`,
    /// `Stats` and `Sync` route by other means).
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::Present { session }
            | Request::Feedback { session, .. }
            | Request::Recommend { session }
            | Request::Snapshot { session } => Some(*session),
            Request::Create { .. } | Request::Stats | Request::Sync => None,
        }
    }
}

/// One server reply: the success variant mirrors its request, and any
/// failure comes back as a typed [`WireError`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `Create` succeeded: the assigned session id.
    Created {
        /// Newly assigned session id.
        session: u64,
    },
    /// `Present` succeeded: the packages shown this round.
    Presented {
        /// The presented packages, in display order.
        packages: Vec<Package>,
    },
    /// `Feedback` succeeded.
    FeedbackRecorded {
        /// Number of pairwise preferences derived from the feedback.
        preferences: usize,
    },
    /// `Recommend` succeeded: the session's current top-k.
    Recommended {
        /// Ranked packages, best first.
        ranked: Vec<RankedPackage>,
    },
    /// `Snapshot` succeeded: the checkpoint JSON.
    Snapshotted {
        /// The session snapshot, exactly as journaled.
        snapshot: String,
    },
    /// `Stats` succeeded.
    Stats {
        /// Sessions currently resident across all shards.
        sessions: usize,
        /// Counters summed across all shards.
        stats: StoreStats,
    },
    /// `Sync` succeeded on every shard.
    Synced,
    /// The request failed; the error is typed enough to reconstruct a
    /// [`CoreError`] client-side.
    Error(WireError),
}

/// Classifies a [`WireError`] without parsing its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The addressed session does not exist.
    UnknownSession,
    /// The frame decoded but the payload was not a valid request, or the
    /// request's configuration was rejected.
    InvalidRequest,
    /// The frame itself was torn or failed its CRC; the server closes the
    /// connection after this reply because the stream cannot resync.
    MalformedFrame,
    /// The frame's length prefix exceeded the server's ceiling; the
    /// connection closes after this reply.
    Oversized,
    /// The request missed its deadline inside the server.
    Timeout,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// An I/O failure inside the store (durable journal).
    Io,
    /// The addressed shard is in read-only degraded mode after persistent
    /// durable-IO failure; mutating requests are refused until a
    /// successful `Sync` re-arms it.
    Degraded,
    /// Any other store-side failure; `message` carries the rendered error.
    Internal,
}

/// A typed error reply that round-trips the store's error surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable classification.
    pub kind: ErrorKind,
    /// Human-readable rendering of the underlying error.
    pub message: String,
    /// The session the failing request addressed, when known.
    pub session: Option<u64>,
    /// For [`ErrorKind::Io`]: the `std::io::ErrorKind` name (its `Debug`
    /// rendering), so clients assert on the fault class, not the message.
    pub io_kind: Option<String>,
    /// For [`ErrorKind::Degraded`]: the index of the degraded shard.
    pub shard: Option<u64>,
}

impl WireError {
    /// Builds an error reply from kind + message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> WireError {
        WireError {
            kind,
            message: message.into(),
            session: None,
            io_kind: None,
            shard: None,
        }
    }

    /// Attaches the addressed session id.
    pub fn with_session(mut self, session: u64) -> WireError {
        self.session = Some(session);
        self
    }

    /// Attaches the I/O fault class (for [`ErrorKind::Io`]).
    pub fn with_io_kind(mut self, kind: std::io::ErrorKind) -> WireError {
        self.io_kind = Some(format!("{kind:?}"));
        self
    }

    /// Attaches the degraded shard index (for [`ErrorKind::Degraded`]).
    pub fn with_shard(mut self, shard: usize) -> WireError {
        self.shard = Some(shard as u64);
        self
    }

    /// Maps a store error onto the wire, preserving the variants a client
    /// can act on (`UnknownSession`, `InvalidConfig`, `Io`, `Degraded`).
    pub fn from_core(error: &CoreError) -> WireError {
        match error {
            CoreError::UnknownSession(id) => {
                WireError::new(ErrorKind::UnknownSession, error.to_string()).with_session(*id)
            }
            CoreError::InvalidConfig(_) => {
                WireError::new(ErrorKind::InvalidRequest, error.to_string())
            }
            CoreError::Io { kind, message } => {
                WireError::new(ErrorKind::Io, message.clone()).with_io_kind(*kind)
            }
            CoreError::Degraded { shard, reason } => {
                WireError::new(ErrorKind::Degraded, reason.clone()).with_shard(*shard)
            }
            other => WireError::new(ErrorKind::Internal, other.to_string()),
        }
    }

    /// Reconstructs the closest [`CoreError`] client-side, so code written
    /// against the in-process store keeps matching on the same variants.
    pub fn to_core(&self) -> CoreError {
        match self.kind {
            ErrorKind::UnknownSession => {
                CoreError::UnknownSession(self.session.unwrap_or(u64::MAX))
            }
            ErrorKind::InvalidRequest => CoreError::InvalidConfig(self.message.clone()),
            ErrorKind::Io => CoreError::io(
                self.io_kind
                    .as_deref()
                    .map(parse_io_kind)
                    .unwrap_or(std::io::ErrorKind::Other),
                self.message.clone(),
            ),
            ErrorKind::Degraded => CoreError::Degraded {
                shard: self.shard.unwrap_or(u64::MAX) as usize,
                reason: self.message.clone(),
            },
            _ => CoreError::io(
                std::io::ErrorKind::Other,
                format!("server error ({:?}): {}", self.kind, self.message),
            ),
        }
    }
}

/// Parses a `std::io::ErrorKind` back from its `Debug` name (the inverse
/// of [`WireError::with_io_kind`]); unknown names collapse to `Other`.
pub fn parse_io_kind(name: &str) -> std::io::ErrorKind {
    use std::io::ErrorKind::*;
    match name {
        "NotFound" => NotFound,
        "PermissionDenied" => PermissionDenied,
        "ConnectionRefused" => ConnectionRefused,
        "ConnectionReset" => ConnectionReset,
        "ConnectionAborted" => ConnectionAborted,
        "NotConnected" => NotConnected,
        "AddrInUse" => AddrInUse,
        "AddrNotAvailable" => AddrNotAvailable,
        "BrokenPipe" => BrokenPipe,
        "AlreadyExists" => AlreadyExists,
        "WouldBlock" => WouldBlock,
        "InvalidInput" => InvalidInput,
        "InvalidData" => InvalidData,
        "TimedOut" => TimedOut,
        "WriteZero" => WriteZero,
        "StorageFull" => StorageFull,
        "QuotaExceeded" => QuotaExceeded,
        "Interrupted" => Interrupted,
        "Unsupported" => Unsupported,
        "UnexpectedEof" => UnexpectedEof,
        "OutOfMemory" => OutOfMemory,
        _ => Other,
    }
}

/// How reading one frame off a connection can end short of a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Clean EOF on a frame boundary — the peer hung up between requests.
    Closed,
    /// The stop callback fired while waiting (shutdown, client deadline).
    Stopped,
    /// EOF mid-frame, or a CRC mismatch: the stream cannot resync.
    Corrupt(String),
    /// The length prefix exceeded the configured ceiling.
    Oversized {
        /// The length the prefix claimed.
        len: usize,
    },
    /// A hard I/O error (not a read timeout) on the socket.
    Io {
        /// The OS error class, preserved for retry decisions.
        kind: std::io::ErrorKind,
        /// Rendered error.
        message: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Stopped => write!(f, "stopped while waiting for a frame"),
            FrameError::Corrupt(msg) => write!(f, "corrupt frame: {msg}"),
            FrameError::Oversized { len } => write!(f, "oversized frame: {len} bytes"),
            FrameError::Io { message, .. } => write!(f, "i/o error: {message}"),
        }
    }
}

impl FrameError {
    /// Renders this as the store's error type (for client-side bubbling),
    /// mapping each framing failure onto the I/O class a caller would
    /// retry on: a clean hang-up is `ConnectionAborted`, a deadline is
    /// `TimedOut`, torn or mismatched bytes are `InvalidData`.
    pub fn into_core(self) -> CoreError {
        let kind = match &self {
            FrameError::Closed => std::io::ErrorKind::ConnectionAborted,
            FrameError::Stopped => std::io::ErrorKind::TimedOut,
            FrameError::Corrupt(_) => std::io::ErrorKind::InvalidData,
            FrameError::Oversized { .. } => std::io::ErrorKind::InvalidData,
            FrameError::Io { kind, .. } => *kind,
        };
        CoreError::io(kind, self.to_string())
    }
}

/// Encodes a value as one frame: `[len|crc32|JSON]`.
pub fn encode_frame<T: Serialize>(value: &T) -> Result<Vec<u8>> {
    let payload = serde_json::to_vec(value)
        .map_err(|e| CoreError::io_data(format!("frame encode failed: {e}")))?;
    let mut frame = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Writes one framed value to the stream and flushes it.
pub fn write_frame<W: Write, T: Serialize>(writer: &mut W, value: &T) -> Result<()> {
    let frame = encode_frame(value)?;
    writer
        .write_all(&frame)
        .and_then(|()| writer.flush())
        .map_err(|e| CoreError::io(e.kind(), format!("frame write failed: {e}")))
}

/// Writes the 11-byte hello (magic + version) that opens a connection.
pub fn write_hello<W: Write>(writer: &mut W) -> Result<()> {
    let mut hello = [0u8; HELLO_LEN];
    hello[..HELLO_MAGIC.len()].copy_from_slice(&HELLO_MAGIC);
    hello[HELLO_MAGIC.len()..].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    writer
        .write_all(&hello)
        .and_then(|()| writer.flush())
        .map_err(|e| CoreError::io(e.kind(), format!("hello write failed: {e}")))
}

/// Reads and verifies the hello, returning the server's protocol version.
/// Rejects a foreign magic or an unknown version.
pub fn read_hello<R: Read>(reader: &mut R) -> Result<u32> {
    let mut hello = [0u8; HELLO_LEN];
    reader
        .read_exact(&mut hello)
        .map_err(|e| CoreError::io(e.kind(), format!("hello read failed: {e}")))?;
    if hello[..HELLO_MAGIC.len()] != HELLO_MAGIC {
        return Err(CoreError::io_data("not a pkgrec server (bad hello magic)"));
    }
    let version = u32::from_le_bytes(hello[HELLO_MAGIC.len()..].try_into().expect("4 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(CoreError::io_data(format!(
            "protocol version mismatch: server speaks v{version}, client speaks v{PROTOCOL_VERSION}"
        )));
    }
    Ok(version)
}

/// Reads exactly `buf.len()` bytes, treating read timeouts as "poll the
/// stop callback and retry".  `at_frame_start` selects the clean-EOF
/// interpretation: a peer that hangs up *between* frames is [`Closed`],
/// one that hangs up *inside* a frame left it torn ([`Corrupt`]).
///
/// [`Closed`]: FrameError::Closed
/// [`Corrupt`]: FrameError::Corrupt
fn read_exact_polling<R: Read>(
    reader: &mut R,
    buf: &mut [u8],
    at_frame_start: bool,
    stop: &dyn Fn() -> bool,
) -> std::result::Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match reader.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if at_frame_start && got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Corrupt(format!("eof after {got} of {} expected bytes", buf.len()))
                });
            }
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                if stop() {
                    return Err(FrameError::Stopped);
                }
            }
            Err(e) => {
                return Err(FrameError::Io {
                    kind: e.kind(),
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(())
}

/// Reads one frame's payload bytes off the stream.
///
/// The stream should carry a read timeout (e.g.
/// [`std::net::TcpStream::set_read_timeout`]); each timeout tick polls
/// `stop` so a blocked reader notices shutdown or a client deadline.  All
/// failure shapes are typed — see [`FrameError`] — and a CRC mismatch is
/// detected *before* the payload is parsed.
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_len: usize,
    stop: &dyn Fn() -> bool,
) -> std::result::Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    read_exact_polling(reader, &mut prefix, true, stop)?;
    let len = u32::from_le_bytes(prefix[0..4].try_into().expect("4 bytes")) as usize;
    let expected_crc = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    read_exact_polling(reader, &mut payload, false, stop)?;
    let actual_crc = crc32(&payload);
    if actual_crc != expected_crc {
        return Err(FrameError::Corrupt(format!(
            "crc mismatch: frame says {expected_crc:#010x}, payload hashes to {actual_crc:#010x}"
        )));
    }
    Ok(payload)
}

/// Reads one frame and parses it as `T`.  Framing failures surface as
/// [`FrameError`]; a frame whose bytes are intact but whose JSON does not
/// parse comes back as `Ok(Err(message))` so the caller can reply
/// [`ErrorKind::InvalidRequest`] and keep the connection open.
pub fn read_message<R: Read, T: Deserialize>(
    reader: &mut R,
    max_len: usize,
    stop: &dyn Fn() -> bool,
) -> std::result::Result<std::result::Result<T, String>, FrameError> {
    let payload = read_frame(reader, max_len, stop)?;
    Ok(serde_json::from_slice(&payload).map_err(|e| e.to_string()))
}

/// A `stop` callback for [`read_frame`] that never stops (blocking reads
/// with no deadline).
pub fn never_stop() -> bool {
    false
}

/// Builds a `stop` callback that fires once `timeout` has elapsed.
pub fn deadline_stop(timeout: Duration) -> impl Fn() -> bool {
    let deadline = std::time::Instant::now() + timeout;
    move || std::time::Instant::now() >= deadline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let request = Request::Present { session: 42 };
        let frame = encode_frame(&request).unwrap();
        assert_eq!(
            u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize,
            frame.len() - FRAME_PREFIX_LEN
        );
        let mut cursor = &frame[..];
        let parsed: Request = read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop)
            .unwrap()
            .unwrap();
        assert_eq!(parsed, request);
    }

    #[test]
    fn bad_crc_is_corrupt() {
        let mut frame = encode_frame(&Request::Stats).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let mut cursor = &frame[..];
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop) {
            Err(FrameError::Corrupt(msg)) => assert!(msg.contains("crc mismatch"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn torn_frame_is_corrupt_and_empty_stream_is_closed() {
        let frame = encode_frame(&Request::Sync).unwrap();
        let mut torn = &frame[..frame.len() - 2];
        match read_frame(&mut torn, DEFAULT_MAX_FRAME_LEN, &never_stop) {
            Err(FrameError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let mut empty: &[u8] = &[];
        assert_eq!(
            read_frame(&mut empty, DEFAULT_MAX_FRAME_LEN, &never_stop),
            Err(FrameError::Closed)
        );
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut frame = encode_frame(&Request::Stats).unwrap();
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &frame[..];
        assert_eq!(
            read_frame(&mut cursor, 1024, &never_stop),
            Err(FrameError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn hello_round_trip_and_rejections() {
        let mut buf = Vec::new();
        write_hello(&mut buf).unwrap();
        assert_eq!(buf.len(), HELLO_LEN);
        assert_eq!(read_hello(&mut &buf[..]).unwrap(), PROTOCOL_VERSION);

        let mut wrong_magic = buf.clone();
        wrong_magic[0] = b'X';
        assert!(read_hello(&mut &wrong_magic[..]).is_err());

        let mut wrong_version = buf.clone();
        wrong_version[HELLO_MAGIC.len()..].copy_from_slice(&99u32.to_le_bytes());
        assert!(read_hello(&mut &wrong_version[..]).is_err());
    }

    #[test]
    fn wire_error_round_trips_core_variants() {
        let unknown = CoreError::UnknownSession(7);
        assert_eq!(WireError::from_core(&unknown).to_core(), unknown);
        let invalid = CoreError::InvalidConfig("k must be positive".into());
        assert_eq!(
            WireError::from_core(&invalid).to_core(),
            CoreError::InvalidConfig(invalid.to_string())
        );
        match WireError::from_core(&CoreError::EmptyCatalog).kind {
            ErrorKind::Internal => {}
            kind => panic!("expected Internal, got {kind:?}"),
        }
    }

    #[test]
    fn wire_error_round_trips_io_kind_and_degraded_shard() {
        let io = CoreError::io(std::io::ErrorKind::StorageFull, "segment write: disk full");
        let wire = WireError::from_core(&io);
        assert_eq!(wire.kind, ErrorKind::Io);
        assert_eq!(wire.io_kind.as_deref(), Some("StorageFull"));
        assert_eq!(wire.to_core(), io);

        let degraded = CoreError::Degraded {
            shard: 3,
            reason: "append retry budget exhausted".into(),
        };
        let wire = WireError::from_core(&degraded);
        assert_eq!(wire.kind, ErrorKind::Degraded);
        assert_eq!(wire.shard, Some(3));
        assert_eq!(wire.to_core(), degraded);
    }

    #[test]
    fn io_kind_names_parse_back_to_themselves() {
        use std::io::ErrorKind::*;
        for kind in [
            NotFound,
            PermissionDenied,
            ConnectionReset,
            ConnectionAborted,
            BrokenPipe,
            InvalidData,
            TimedOut,
            WriteZero,
            StorageFull,
            Interrupted,
            UnexpectedEof,
            Other,
        ] {
            assert_eq!(parse_io_kind(&format!("{kind:?}")), kind);
        }
        assert_eq!(parse_io_kind("SomeFutureKind"), Other);
    }

    #[test]
    fn invalid_json_in_valid_frame_keeps_framing_errors_separate() {
        let payload = b"{not json".to_vec();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut cursor = &frame[..];
        let parsed: std::result::Result<Request, String> =
            read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop).unwrap();
        assert!(parsed.is_err(), "intact frame with bad JSON parses to Err");
    }
}
