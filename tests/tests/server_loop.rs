//! The network front door (`pkgrec-server`) under test:
//!
//! * the wire protocol is pinned by a golden byte fixture
//!   (`fixtures/server_frame_v4.bin`) — hello + one frame of every
//!   `Request` and `Response` variant; a PR that changes the framing, the
//!   CRC, or the payload JSON must bump `PROTOCOL_VERSION` and regenerate
//!   the fixture deliberately,
//! * property tests round-trip every enum variant through the codec,
//! * torn, oversized and CRC-corrupted frames are rejected with typed
//!   error replies and never take the accept loop down,
//! * and the headline: a loopback client driving a served, durable store
//!   gets **bit-for-bit** the same presents, recommendations and
//!   snapshots as an in-process shadow store replaying the identical
//!   operations — the determinism contract extends across the wire.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pkgrec_core::prelude::*;
use pkgrec_integration_tests::unique_temp_dir;
use pkgrec_serve::segment::crc32;
use pkgrec_serve::StoreStats;
use pkgrec_serve::{DurabilityConfig, RecommenderSpec, SessionConfig, SessionStore, StoreConfig};
use pkgrec_server::loadgen::{build_catalog, session_spec};
use pkgrec_server::protocol::{
    encode_frame, never_stop, read_hello, read_message, write_hello, ErrorKind, FrameError,
    Request, Response, WireError, DEFAULT_MAX_FRAME_LEN, FRAME_PREFIX_LEN, HELLO_LEN,
    PROTOCOL_VERSION,
};
use pkgrec_server::{Client, Server, ServerConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Golden wire-format fixture
// ---------------------------------------------------------------------------

/// The session configuration used by fixture and property frames: small,
/// fully deterministic, engine-flavoured.
fn fixture_config(seed: u64) -> SessionConfig {
    SessionConfig {
        catalog: Arc::new(
            Catalog::from_rows(vec![
                vec![0.6, 0.2],
                vec![0.4, 0.4],
                vec![0.2, 0.4],
                vec![0.9, 0.8],
            ])
            .unwrap(),
        ),
        profile: Profile::cost_quality(),
        max_package_size: 2,
        spec: RecommenderSpec::Engine(EngineConfig {
            k: 2,
            num_random: 2,
            num_samples: 20,
            ..EngineConfig::default()
        }),
        seed,
    }
}

/// One of every request variant, in declaration order.
fn fixture_requests() -> Vec<Request> {
    vec![
        Request::Create {
            config: fixture_config(41),
        },
        Request::Present { session: 3 },
        Request::Feedback {
            session: 3,
            feedback: Feedback::Click { index: 1 },
        },
        Request::Recommend { session: 3 },
        Request::Snapshot { session: 3 },
        Request::Stats,
        Request::Sync,
    ]
}

/// One of every response variant, in declaration order.
fn fixture_responses() -> Vec<Response> {
    let stats = StoreStats {
        created: 1,
        hits: 2,
        journal_events: 4,
        // Pin the v4 cross-shard batching counters.
        batched_sessions: 3,
        admission_fallbacks: 1,
        batch_wait_us: 250,
        ..StoreStats::default()
    };
    vec![
        Response::Created { session: 3 },
        Response::Presented {
            packages: vec![
                Package::new(vec![0, 2]).unwrap(),
                Package::new(vec![1]).unwrap(),
            ],
        },
        Response::FeedbackRecorded { preferences: 1 },
        Response::Recommended {
            ranked: vec![RankedPackage {
                package: Package::new(vec![0, 3]).unwrap(),
                score: 0.625,
            }],
        },
        Response::Snapshotted {
            snapshot: r#"{"version":1,"rounds":2}"#.to_string(),
        },
        Response::Stats { sessions: 1, stats },
        Response::Synced,
        Response::Error(WireError {
            kind: ErrorKind::UnknownSession,
            message: "session 9 is not in the store".to_string(),
            session: Some(9),
            io_kind: None,
            shard: None,
        }),
        // Pin the v3 error payload extensions: a preserved IO error class
        // and a degraded shard attribution.
        Response::Error(WireError {
            kind: ErrorKind::Io,
            message: "journal I/O error (StorageFull): flush".to_string(),
            session: Some(3),
            io_kind: Some("StorageFull".to_string()),
            shard: None,
        }),
        Response::Error(WireError {
            kind: ErrorKind::Degraded,
            message: "shard 1 is degraded (read-only)".to_string(),
            session: Some(3),
            io_kind: None,
            shard: Some(1),
        }),
    ]
}

/// The fixture byte stream: the 11-byte hello followed by one frame per
/// message — exactly what a wire capture of these messages would hold.
fn fixture_frame_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_hello(&mut bytes).unwrap();
    for request in fixture_requests() {
        bytes.extend(encode_frame(&request).unwrap());
    }
    for response in fixture_responses() {
        bytes.extend(encode_frame(&response).unwrap());
    }
    bytes
}

const GOLDEN_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/server_frame_v4.bin");

/// Wire-format compatibility gate for the server protocol.  Regenerate with
/// `UPDATE_SNAPSHOT_FIXTURE=1 cargo test -p pkgrec-integration-tests golden`.
#[test]
fn golden_server_frame_fixture_stays_decodable() {
    if std::env::var_os("UPDATE_SNAPSHOT_FIXTURE").is_some() {
        std::fs::write(GOLDEN_FIXTURE, fixture_frame_bytes()).unwrap();
    }
    let disk = std::fs::read(GOLDEN_FIXTURE)
        .expect("golden fixture exists (regenerate with UPDATE_SNAPSHOT_FIXTURE=1)");

    // The fixture file name pins v4; bump both together, deliberately.
    // (v1 -> v2: the Stats payload gained the batched_presents /
    // batched_groups StoreStats counters.  v2 -> v3: WireError gained
    // io_kind/shard, ErrorKind gained Degraded, and StoreStats gained the
    // injected_faults / degraded_shards / rolled_back_ops counters.
    // v3 -> v4: StoreStats gained the cross-shard scoring-service
    // counters batched_sessions / admission_fallbacks / batch_wait_us.)
    assert_eq!(PROTOCOL_VERSION, 4, "fixture file is named for v4");

    // Encoding today must reproduce the checked-in bytes exactly: hello,
    // framing, CRC table, JSON field order and float formatting.
    assert_eq!(
        fixture_frame_bytes(),
        disk,
        "server wire format drifted; bump PROTOCOL_VERSION and regenerate the fixture"
    );

    // And the checked-in bytes must decode back into the same messages.
    let mut cursor = &disk[..];
    assert_eq!(read_hello(&mut cursor).unwrap(), PROTOCOL_VERSION);
    for expected in fixture_requests() {
        let decoded: Request = read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop)
            .unwrap()
            .unwrap();
        assert_eq!(decoded, expected);
    }
    for expected in fixture_responses() {
        let decoded: Response = read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop)
            .unwrap()
            .unwrap();
        assert_eq!(decoded, expected);
    }
    assert!(cursor.is_empty(), "no trailing bytes in the fixture");
}

// ---------------------------------------------------------------------------
// Property tests: every variant survives the codec
// ---------------------------------------------------------------------------

/// Builds one request variant from plain integers (the vendored proptest
/// has no `prop_oneof`, so selection happens in the test body).
fn arbitrary_request(selector: u8, session: u64, a: usize, b: usize) -> Request {
    match selector % 7 {
        0 => Request::Create {
            config: fixture_config(session),
        },
        1 => Request::Present { session },
        2 => Request::Feedback {
            session,
            feedback: match a % 3 {
                0 => Feedback::Click { index: b % 5 },
                1 => Feedback::Pairwise {
                    preferred: a % 5,
                    over: b % 5,
                },
                _ => Feedback::Skip,
            },
        },
        3 => Request::Recommend { session },
        4 => Request::Snapshot { session },
        5 => Request::Stats,
        _ => Request::Sync,
    }
}

/// Builds one response variant from plain integers.
fn arbitrary_response(selector: u8, session: u64, a: usize, score: f64) -> Response {
    match selector % 8 {
        0 => Response::Created { session },
        1 => Response::Presented {
            packages: vec![Package::new(vec![a % 7, (a % 7) + 1]).unwrap()],
        },
        2 => Response::FeedbackRecorded { preferences: a },
        3 => Response::Recommended {
            ranked: vec![RankedPackage {
                package: Package::new(vec![a % 9]).unwrap(),
                score,
            }],
        },
        4 => Response::Snapshotted {
            snapshot: format!("{{\"ops\":{a}}}"),
        },
        5 => Response::Stats {
            sessions: a,
            stats: StoreStats {
                created: a,
                evictions: a / 2,
                ..StoreStats::default()
            },
        },
        6 => Response::Synced,
        _ => Response::Error(WireError {
            kind: match a % 9 {
                0 => ErrorKind::UnknownSession,
                1 => ErrorKind::InvalidRequest,
                2 => ErrorKind::MalformedFrame,
                3 => ErrorKind::Oversized,
                4 => ErrorKind::Timeout,
                5 => ErrorKind::ShuttingDown,
                6 => ErrorKind::Io,
                7 => ErrorKind::Degraded,
                _ => ErrorKind::Internal,
            },
            message: format!("error {a} on {session}"),
            session: if a.is_multiple_of(2) {
                Some(session)
            } else {
                None
            },
            io_kind: if a.is_multiple_of(3) {
                Some("PermissionDenied".to_string())
            } else {
                None
            },
            shard: if a % 9 == 7 { Some(session % 4) } else { None },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request variant encodes to one frame and decodes back equal.
    #[test]
    fn request_frames_round_trip(
        selector in 0u8..7,
        session in 0u64..10_000,
        a in 0usize..50,
        b in 0usize..50,
    ) {
        let request = arbitrary_request(selector, session, a, b);
        let frame = encode_frame(&request).unwrap();
        let mut cursor = &frame[..];
        let decoded: Request = read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop)
            .unwrap()
            .unwrap();
        prop_assert_eq!(decoded, request);
        prop_assert!(cursor.is_empty());
    }

    /// Every response variant encodes to one frame and decodes back equal.
    #[test]
    fn response_frames_round_trip(
        selector in 0u8..8,
        session in 0u64..10_000,
        a in 0usize..50,
        score in -1.0f64..1.0,
    ) {
        let response = arbitrary_response(selector, session, a, score);
        let frame = encode_frame(&response).unwrap();
        let mut cursor = &frame[..];
        let decoded: Response = read_message(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop)
            .unwrap()
            .unwrap();
        prop_assert_eq!(decoded, response);
        prop_assert!(cursor.is_empty());
    }

    /// Flipping any single byte of a frame is caught: either the CRC
    /// rejects the payload or the length prefix no longer matches the
    /// stream (torn / oversized) — a corrupted frame never decodes
    /// silently into a different message.
    #[test]
    fn any_single_byte_flip_is_detected(
        session in 0u64..10_000,
        flip in 0usize..200,
    ) {
        let request = Request::Present { session };
        let mut frame = encode_frame(&request).unwrap();
        let index = flip % frame.len();
        frame[index] ^= 0x01;
        let mut cursor = &frame[..];
        match read_message::<_, Request>(&mut cursor, DEFAULT_MAX_FRAME_LEN, &never_stop) {
            Err(FrameError::Corrupt(_)) | Err(FrameError::Oversized { .. }) => {}
            Ok(Ok(decoded)) => prop_assert!(
                false,
                "flipped byte {} decoded into {:?}",
                index,
                decoded
            ),
            Ok(Err(_)) => prop_assert!(
                false,
                "CRC must catch payload corruption before JSON parsing"
            ),
            Err(other) => prop_assert!(false, "unexpected frame error {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------------
// Malformed frames never take the server down
// ---------------------------------------------------------------------------

/// A raw (non-`Client`) connection for speaking broken protocol on purpose.
fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut hello = [0u8; HELLO_LEN];
    stream.read_exact(&mut hello).expect("hello");
    stream
}

/// Reads one response frame off a raw connection.
fn raw_read_response(stream: &mut TcpStream) -> std::result::Result<Response, FrameError> {
    match read_message::<_, Response>(stream, DEFAULT_MAX_FRAME_LEN, &never_stop) {
        Ok(Ok(response)) => Ok(response),
        Ok(Err(parse)) => panic!("server sent unparseable response: {parse}"),
        Err(e) => Err(e),
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_spare_the_accept_loop() {
    let store = SessionStore::new(StoreConfig {
        shards: 2,
        capacity_per_shard: 8,
    })
    .unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap()
    });

    // 1. CRC corruption: typed MalformedFrame reply, then the connection
    //    closes (a byte stream cannot resync after a bad frame).
    {
        let mut stream = raw_connect(addr);
        let mut frame = encode_frame(&Request::Stats).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        stream.write_all(&frame).unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Error(wire) => assert_eq!(wire.kind, ErrorKind::MalformedFrame),
            other => panic!("expected MalformedFrame error, got {other:?}"),
        }
        assert_eq!(
            raw_read_response(&mut stream),
            Err(FrameError::Closed),
            "server closes the connection after a corrupt frame"
        );
    }

    // 2. Oversized length prefix: typed reply, no allocation, close.
    {
        let mut stream = raw_connect(addr);
        let mut prefix = [0u8; FRAME_PREFIX_LEN];
        prefix[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&prefix).unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Error(wire) => assert_eq!(wire.kind, ErrorKind::Oversized),
            other => panic!("expected Oversized error, got {other:?}"),
        }
    }

    // 3. An intact frame with garbage JSON: typed InvalidRequest reply and
    //    the connection SURVIVES — the next request on it still works.
    {
        let mut stream = raw_connect(addr);
        let payload = b"{definitely not a request".to_vec();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        stream.write_all(&frame).unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Error(wire) => assert_eq!(wire.kind, ErrorKind::InvalidRequest),
            other => panic!("expected InvalidRequest error, got {other:?}"),
        }
        stream
            .write_all(&encode_frame(&Request::Stats).unwrap())
            .unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Stats { sessions, .. } => assert_eq!(sessions, 0),
            other => panic!("expected Stats after the invalid request, got {other:?}"),
        }
    }

    // 4. After all that abuse a well-behaved client is served normally.
    let mut client = Client::connect(addr).unwrap();
    let id = client.create(fixture_config(7)).unwrap();
    assert!(!client.present(id).unwrap().is_empty());
    let (sessions, _) = client.stats().unwrap();
    assert_eq!(sessions, 1);
    drop(client);

    control.shutdown();
    let report = handle.join().unwrap();
    assert!(
        report.malformed_frames >= 2,
        "CRC + oversized both counted: {report:?}"
    );
    assert!(report.invalid_requests >= 1, "{report:?}");
    assert_eq!(report.connections, 4, "{report:?}");
}

/// One CRC-valid frame of 100 000 `[` then 100 000 `]` (200 KB, far under
/// the frame limit) used to overflow the JSON parser's stack and abort the
/// whole server.  It must draw a typed `InvalidRequest`, and the server
/// must go on serving.
#[test]
fn deeply_nested_json_gets_invalid_request_and_the_server_keeps_serving() {
    let store = SessionStore::new(StoreConfig {
        shards: 2,
        capacity_per_shard: 8,
    })
    .unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap()
    });

    {
        let mut stream = raw_connect(addr);
        let payload = ["[".repeat(100_000), "]".repeat(100_000)].concat();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        stream.write_all(&frame).unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Error(wire) => {
                assert_eq!(wire.kind, ErrorKind::InvalidRequest);
                assert!(wire.message.contains("recursion limit"), "{wire:?}");
            }
            other => panic!("expected InvalidRequest error, got {other:?}"),
        }
    }

    let mut client = Client::connect(addr).unwrap();
    let id = client.create(fixture_config(7)).unwrap();
    assert!(!client.present(id).unwrap().is_empty());
    drop(client);

    control.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.invalid_requests, 1, "{report:?}");
    assert_eq!(report.connections, 2, "{report:?}");
}

/// A CRC-valid `Create` whose catalog `Catalog::new` would refuse — a
/// ragged row, a negative feature, no items — is refused while the request
/// decodes, with a typed `InvalidRequest`, instead of panicking the shard
/// worker that builds its sorted lists.  The connection, the shard and the
/// server's shutdown all carry on.
#[test]
fn hostile_create_catalogs_get_invalid_request_and_the_server_keeps_serving() {
    let store = SessionStore::new(StoreConfig {
        shards: 2,
        capacity_per_shard: 8,
    })
    .unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap()
    });

    let config = fixture_config(7);
    let valid = serde_json::to_string(&Request::Create {
        config: config.clone(),
    })
    .unwrap();
    let rows = format!(
        "\"rows\":{}",
        serde_json::to_string(&config.catalog.rows().to_vec()).unwrap()
    );
    let hostile = [
        ("\"rows\":[[0.5,0.2],[0.1]]", "dimension mismatch"),
        ("\"rows\":[[0.5,-0.2]]", "non-negative"),
        ("\"rows\":[]", "no items"),
    ];
    {
        let mut stream = raw_connect(addr);
        for (bad_rows, reason) in hostile {
            let payload = valid.replace(&rows, bad_rows);
            assert_ne!(payload, valid);
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
            frame.extend_from_slice(payload.as_bytes());
            stream.write_all(&frame).unwrap();
            match raw_read_response(&mut stream).unwrap() {
                Response::Error(wire) => {
                    assert_eq!(wire.kind, ErrorKind::InvalidRequest);
                    assert!(wire.message.contains("invalid catalog"), "{wire:?}");
                    assert!(wire.message.contains(reason), "{wire:?}");
                }
                other => panic!("expected InvalidRequest error, got {other:?}"),
            }
        }
        // The same connection is served normally afterwards.
        stream
            .write_all(&encode_frame(&Request::Stats).unwrap())
            .unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Stats { sessions, stats } => {
                assert_eq!(sessions, 0);
                assert_eq!(stats.created, 0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    let mut client = Client::connect(addr).unwrap();
    let id = client.create(config).unwrap();
    assert!(!client.present(id).unwrap().is_empty());
    drop(client);

    control.shutdown();
    let report = handle.join().expect("serve returns instead of panicking");
    assert_eq!(report.invalid_requests, 3, "{report:?}");
}

// ---------------------------------------------------------------------------
// Loopback equivalence: the wire changes nothing
// ---------------------------------------------------------------------------

/// Wire results must be byte-identical to an in-process shadow store
/// replaying the same operations: session RNG streams derive from
/// `(seed, op index)` alone, so the network boundary, the server's shard
/// routing and its id assignment must all be unobservable in the results.
#[test]
fn loopback_results_equal_in_process_results_bit_for_bit() {
    let dir = unique_temp_dir("server-loop");
    let store = SessionStore::open_with(
        StoreConfig {
            shards: 2,
            capacity_per_shard: 4,
        },
        DurabilityConfig::at(&dir),
    )
    .unwrap();
    // The shadow deliberately uses a different shape (one shard, ample
    // capacity): shard routing and eviction pressure must not show up in
    // results either.
    let mut shadow = SessionStore::new(StoreConfig {
        shards: 1,
        capacity_per_shard: 16,
    })
    .unwrap();

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        let report = server.serve(&mut store).unwrap();
        (store, report)
    });
    let mut client = Client::connect(addr).unwrap();

    let catalog = build_catalog(2014, 24).unwrap();
    let profile = Profile::cost_quality();
    const SESSIONS: u64 = 6;
    const ROUNDS: usize = 2;

    let mut pairs: Vec<(u64, pkgrec_serve::SessionId)> = Vec::new();
    for i in 0..SESSIONS {
        let config = SessionConfig {
            catalog: catalog.clone(),
            profile: profile.clone(),
            max_package_size: 2,
            spec: session_spec(i),
            seed: 9_000 + i,
        };
        let wire_id = client.create(config.clone()).unwrap();
        let shadow_id = shadow.create(config).unwrap();
        pairs.push((wire_id, shadow_id));
    }

    for round in 0..ROUNDS {
        for (i, (wire_id, shadow_id)) in pairs.iter().enumerate() {
            let shown = client.present(*wire_id).unwrap();
            let expected = shadow.present(*shadow_id).unwrap();
            assert_eq!(
                serde_json::to_string(&shown).unwrap(),
                serde_json::to_string(&expected).unwrap(),
                "present diverged for session {i} round {round}"
            );
            // Deterministic, session-dependent feedback covering all kinds.
            let feedback = match (i + round) % 3 {
                0 => Feedback::Click {
                    index: i % shown.len(),
                },
                1 if shown.len() >= 2 => Feedback::Pairwise {
                    preferred: 0,
                    over: 1,
                },
                _ => Feedback::Skip,
            };
            let wire_prefs = client.feedback(*wire_id, feedback).unwrap();
            let shadow_prefs = shadow.feedback(*shadow_id, feedback).unwrap();
            assert_eq!(wire_prefs, shadow_prefs, "session {i} round {round}");
        }
    }

    for (i, (wire_id, shadow_id)) in pairs.iter().enumerate() {
        let ranked = client.recommend(*wire_id).unwrap();
        let expected = shadow.recommend(*shadow_id).unwrap();
        assert_eq!(
            serde_json::to_string(&ranked).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "recommend diverged for session {i}"
        );
        // Engine sessions snapshot; their checkpoints must match too.
        if matches!(session_spec(i as u64), RecommenderSpec::Engine(_)) {
            let wire_snapshot = client.snapshot(*wire_id).unwrap();
            let shadow_snapshot = shadow.snapshot(*shadow_id).unwrap();
            assert_eq!(wire_snapshot, shadow_snapshot, "snapshot diverged for {i}");
        }
    }

    // The error surface crosses the wire typed: unknown ids come back as
    // CoreError::UnknownSession with the id intact.
    match client.present(987_654) {
        Err(CoreError::UnknownSession(id)) => assert_eq!(id, 987_654),
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    let (sessions, stats) = client.stats().unwrap();
    assert_eq!(sessions as u64, SESSIONS);
    assert_eq!(stats.created as u64, SESSIONS);
    client.sync().unwrap();

    drop(client);
    control.shutdown();
    let (store, report) = handle.join().unwrap();
    assert_eq!(store.len() as u64, SESSIONS);
    assert_eq!(report.connections, 1);
    assert_eq!(report.malformed_frames, 0);
    assert_eq!(report.timeouts, 0);
    // create + rounds * (present + feedback) + recommend per session, the
    // snapshots, the failed present, stats and sync.
    assert!(
        report.requests as u64 >= SESSIONS * (2 + 2 * ROUNDS as u64) + 3,
        "{report:?}"
    );

    drop(shadow);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Client retry: idempotent verbs survive a server restart
// ---------------------------------------------------------------------------

/// A client that loses its server mid-session reconnects (bounded
/// exponential backoff) and resends idempotent verbs transparently: the
/// recommendation served by the *restarted* server over the *same* client
/// handle is bit-for-bit the one the first server would have produced.
#[test]
fn idempotent_verbs_survive_a_server_restart_via_retry() {
    let dir = unique_temp_dir("server-retry");
    let store_config = StoreConfig {
        shards: 2,
        capacity_per_shard: 8,
    };
    let store = SessionStore::open_with(store_config, DurabilityConfig::at(&dir)).unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap();
        store
    });

    let mut client = Client::connect(addr).unwrap();
    let mut shadow = SessionStore::new(store_config).unwrap();
    let config = fixture_config(77);
    let id = client.create(config.clone()).unwrap();
    let shadow_id = shadow.create(config).unwrap();
    client.present(id).unwrap();
    shadow.present(shadow_id).unwrap();
    client.feedback(id, Feedback::Click { index: 0 }).unwrap();
    shadow
        .feedback(shadow_id, Feedback::Click { index: 0 })
        .unwrap();
    client.sync().unwrap();
    assert_eq!(client.retries(), 0, "a healthy connection never retries");

    // Kill the server out from under the connected client...
    control.shutdown();
    let store = handle.join().unwrap();

    // ...and restart it on the same address over the same journal.
    let server = Server::bind(addr, ServerConfig::default()).unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap();
        store
    });

    // The idempotent verb notices the dead connection, reconnects under
    // the backoff policy, resends — and the result is still bit-for-bit
    // the in-process one.
    let ranked = client.recommend(id).unwrap();
    let expected = shadow.recommend(shadow_id).unwrap();
    assert_eq!(
        serde_json::to_string(&ranked).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "recommendation diverged across the restart"
    );
    assert!(
        client.retries() >= 1,
        "the restart must have cost at least one reconnect"
    );
    let (sessions, _) = client.stats().unwrap();
    assert_eq!(sessions, 1);

    control.shutdown();
    drop(handle.join().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// The accept loop blocks: an idle server answers and stops at once
// ---------------------------------------------------------------------------

/// The accept loop blocks in `accept` instead of sleeping `poll_interval`
/// between polls, and `shutdown` wakes it.  With a 10 s interval, a client
/// that connects to an idle server still gets its first reply within 1 s,
/// and `serve` returns within 1 s of `shutdown`.
#[test]
fn an_idle_server_answers_a_new_client_and_shuts_down_without_polling() {
    let store = SessionStore::new(StoreConfig {
        shards: 2,
        capacity_per_shard: 8,
    })
    .unwrap();
    let config = ServerConfig {
        poll_interval: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        let report = server.serve(&mut store).unwrap();
        done_tx.send(std::time::Instant::now()).unwrap();
        report
    });
    // Let the accept loop go idle before the first client arrives.
    std::thread::sleep(Duration::from_millis(100));

    let connected = std::time::Instant::now();
    let mut client = Client::connect(addr).unwrap();
    let (sessions, _) = client.stats().unwrap();
    let first_reply = connected.elapsed();
    assert_eq!(sessions, 0);
    assert!(
        first_reply < Duration::from_secs(1),
        "first reply took {first_reply:?}"
    );
    // Hang up (the connection thread ends at once on the close), then stop
    // the idle server.
    drop(client);
    let stopped = std::time::Instant::now();
    control.shutdown();
    let returned = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve returns after shutdown");
    let report = handle.join().unwrap();
    let shutdown_took = returned.duration_since(stopped);
    assert!(
        shutdown_took < Duration::from_secs(1),
        "serve returned {shutdown_took:?} after shutdown"
    );
    assert_eq!(report.connections, 1, "the wake-up connect is not served");
    assert_eq!(report.requests, 1, "{report:?}");
}

// ---------------------------------------------------------------------------
// Per-request deadlines: a stalled shard worker cannot hang a connection
// ---------------------------------------------------------------------------

/// A deliberately expensive operation on a server with a tiny request
/// deadline produces the typed `Timeout` wire error — and the connection
/// survives it: later requests on the same stream are served normally
/// once the worker drains.
#[test]
fn stalled_requests_get_typed_timeout_replies_and_the_connection_survives() {
    let store = SessionStore::new(StoreConfig {
        shards: 1,
        capacity_per_shard: 8,
    })
    .unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            request_timeout: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap()
    });

    // A session heavy enough that creating it and presenting from it both
    // dwarf the 10 ms deadline (large catalog × deep sample pool).
    let heavy = SessionConfig {
        catalog: build_catalog(2014, 400).unwrap(),
        profile: Profile::cost_quality(),
        max_package_size: 2,
        spec: RecommenderSpec::Engine(EngineConfig {
            k: 3,
            num_random: 2,
            num_samples: 2_000,
            ..EngineConfig::default()
        }),
        seed: 4,
    };
    let mut stream = raw_connect(addr);
    stream
        .write_all(&encode_frame(&Request::Create { config: heavy }).unwrap())
        .unwrap();
    let create_reply = raw_read_response(&mut stream).unwrap();
    // The server assigns ids from 0, so the session is addressable even if
    // the create itself missed its deadline (the worker still ran it).
    stream
        .write_all(&encode_frame(&Request::Present { session: 0 }).unwrap())
        .unwrap();
    let present_reply = raw_read_response(&mut stream).unwrap();
    let timed_out = [&create_reply, &present_reply]
        .iter()
        .any(|reply| matches!(reply, Response::Error(wire) if wire.kind == ErrorKind::Timeout));
    assert!(
        timed_out,
        "neither heavy request missed the 10 ms deadline: {create_reply:?} / {present_reply:?}"
    );

    // The connection survives the timeout: once the worker drains, Stats
    // on the very same stream answers normally.
    let mut served = false;
    for _ in 0..600 {
        stream
            .write_all(&encode_frame(&Request::Stats).unwrap())
            .unwrap();
        match raw_read_response(&mut stream).unwrap() {
            Response::Stats { sessions, .. } => {
                assert_eq!(sessions, 1, "the timed-out create still executed");
                served = true;
                break;
            }
            Response::Error(wire) => {
                assert_eq!(wire.kind, ErrorKind::Timeout, "only timeouts expected");
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("expected Stats or Timeout, got {other:?}"),
        }
    }
    assert!(served, "the worker never drained the stalled requests");

    drop(stream);
    control.shutdown();
    let report = handle.join().unwrap();
    assert!(report.timeouts >= 1, "{report:?}");
}

// ---------------------------------------------------------------------------
// Degraded shards speak the wire protocol
// ---------------------------------------------------------------------------

/// A shard whose durable appends keep failing degrades to read-only — and
/// the client sees exactly that: the injected IO class crosses the wire
/// typed, the degraded state arrives as `CoreError::Degraded` with the
/// shard attribution intact, reads keep serving, and a successful `sync`
/// re-arms the shard.
#[test]
fn degraded_shard_surfaces_as_a_typed_wire_error() {
    use pkgrec_serve::{FaultKind, FaultPlan, FaultSite, PlannedFault};

    let dir = unique_temp_dir("server-degraded");
    let durability = DurabilityConfig {
        flush_every_ops: 1,
        append_retry_budget: 1,
        // Flush hits 0-1 carry Created/Presented; hits 2 and 3 fail, then
        // the "disk" recovers.
        fault_plan: FaultPlan::default().and(PlannedFault {
            site: FaultSite::Flush,
            after: 2,
            count: 2,
            kind: FaultKind::StorageFull,
        }),
        ..DurabilityConfig::at(&dir)
    };
    let store = SessionStore::open_with(
        StoreConfig {
            shards: 1,
            capacity_per_shard: 8,
        },
        durability,
    )
    .unwrap();
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        server.serve(&mut store).unwrap();
        store
    });

    let mut client = Client::connect(addr).unwrap();
    let id = client.create(fixture_config(55)).unwrap();
    client.present(id).unwrap();

    // The poisoned append crosses the wire with its IO class preserved —
    // callers match on the kind, not on message strings.
    match client.present(id) {
        Err(CoreError::Io { kind, .. }) => assert_eq!(kind, std::io::ErrorKind::StorageFull),
        other => panic!("expected the injected StorageFull fault, got {other:?}"),
    }
    // The budget (1) is spent: the shard is degraded and says so, typed.
    match client.present(id) {
        Err(CoreError::Degraded { shard, reason }) => {
            assert_eq!(shard, 0);
            assert!(!reason.is_empty());
        }
        other => panic!("expected CoreError::Degraded, got {other:?}"),
    }
    // Reads still serve while degraded, and the state is observable.
    let (sessions, stats) = client.stats().unwrap();
    assert_eq!(sessions, 1);
    assert_eq!(stats.degraded_shards, 1);
    assert!(stats.injected_faults >= 1);
    assert!(stats.rolled_back_ops >= 1);

    // The fault cleared (count: 2 also covered the degraded-refused hit?
    // no — refused ops never reach the log, so hit 3 is still pending);
    // sync() succeeds (nothing buffered), re-arms the shard, and the next
    // present burns fault hit 3 before service resumes for good.
    client.sync().unwrap();
    let (_, stats) = client.stats().unwrap();
    assert_eq!(stats.degraded_shards, 0, "sync re-arms the shard");
    assert!(matches!(client.present(id), Err(CoreError::Io { .. })));
    client.sync().unwrap();
    let shown = client.present(id).unwrap();
    assert!(!shown.is_empty(), "service resumes once the fault clears");

    drop(client);
    control.shutdown();
    drop(handle.join().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}
