//! `fig_server` — closed-loop load on the network front door.
//!
//! For each concurrency level, starts a `pkgrec-server` over a fresh
//! durable store on a loopback ephemeral port and drives a mixed fleet of
//! elicitation sessions through it with the crate's closed-loop load
//! generator: `clients` connections, each completing its sessions'
//! `create → (present → feedback)* → recommend` chains back-to-back.
//! Every wire call's latency feeds a log-linear histogram (p50/p99/p999),
//! and every wire result is compared byte-for-byte against a per-client
//! in-process shadow store — the bench asserts zero mismatches, i.e. the
//! network boundary is not observable in results.  Each level also
//! records the served store's counters.
//!
//! Outside `-- --test` smoke mode the per-level reports are written to
//! `BENCH_server.json` at the repository root.  The CI container exposes a
//! single CPU: higher concurrency measures queueing behaviour under
//! closed-loop load there, not a parallel speedup.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pkgrec_bench::report::{bench_environment, BenchEnvironment};
use pkgrec_serve::{DurabilityConfig, SessionStore, StoreConfig, StoreStats};
use pkgrec_server::loadgen::{self, LoadConfig, LoadReport};
use pkgrec_server::{Server, ServerConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    environment: BenchEnvironment,
    dataset: &'static str,
    catalog_items: usize,
    rounds: usize,
    shards: usize,
    levels: Vec<ServerLevel>,
}

/// One measured level: the load generator's report plus the served
/// store's counters.
#[derive(Debug, Serialize)]
struct ServerLevel {
    /// Counters of the served store after the run.
    store: StoreStats,
    /// The closed-loop load generator's measurement of this level.
    report: LoadReport,
}

/// One concurrency level: fresh durable store, fresh server, one load run.
fn level(clients: usize, load: &LoadConfig, shards: usize) -> ServerLevel {
    let dir = std::env::temp_dir().join(format!(
        "pkgrec-fig-server-{}-c{clients}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SessionStore::open_with(
        StoreConfig {
            shards,
            capacity_per_shard: load.sessions.max(1),
        },
        DurabilityConfig::at(&dir),
    )
    .expect("durable store opens");

    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("server binds");
    let addr = server.local_addr().expect("bound address");
    let control = server.control();
    let handle = std::thread::spawn(move || {
        let mut store = store;
        let report = server.serve(&mut store).expect("server serves");
        (store, report)
    });

    let config = LoadConfig { clients, ..*load };
    let report = loadgen::run(addr, &config).expect("load generation completes");

    control.shutdown();
    let (store, serve_report) = handle.join().expect("server thread joins");
    assert_eq!(
        store.len(),
        report.sessions,
        "the served store holds every load-generated session"
    );
    assert_eq!(serve_report.malformed_frames, 0);
    let stats = store.stats();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    ServerLevel {
        store: stats,
        report,
    }
}

fn bench_server(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (load, levels, shards) = if test_mode {
        (
            LoadConfig {
                sessions: 8,
                rounds: 2,
                catalog_items: 32,
                timeout: Duration::from_secs(120),
                ..LoadConfig::default()
            },
            vec![1usize, 2],
            2usize,
        )
    } else {
        (
            LoadConfig {
                sessions: 48,
                rounds: 3,
                catalog_items: 60,
                timeout: Duration::from_secs(300),
                ..LoadConfig::default()
            },
            vec![2usize, 8],
            4usize,
        )
    };

    let mut reports: Vec<ServerLevel> = Vec::new();
    for clients in levels {
        let level = level(clients, &load, shards);
        println!(
            "bench: fig_server/{clients}clients {:>7.2} sessions/s  {:>8.1} req/s  \
             p50 {:>6} us  p99 {:>7} us  ({} requests, {} mismatches)",
            level.report.sessions_per_sec,
            level.report.requests_per_sec,
            level.report.p50_us,
            level.report.p99_us,
            level.report.requests,
            level.report.mismatches,
        );
        // The determinism contract extends across the wire: any divergence
        // from the in-process shadow stores is a bug, not a data point.
        assert!(level.report.shadow_checked, "shadow comparison must run");
        assert_eq!(
            level.report.mismatches, 0,
            "wire results diverged from shadow"
        );
        assert_eq!(
            level.report.sessions, load.sessions,
            "every session completes"
        );
        reports.push(level);
    }

    if !test_mode {
        let record = BenchRecord {
            bench: "fig_server",
            environment: bench_environment(),
            dataset: "UNI",
            catalog_items: load.catalog_items,
            rounds: load.rounds,
            shards,
            levels: reports,
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
        let payload = serde_json::to_string_pretty(&record).expect("records serialise");
        std::fs::write(path, payload + "\n").expect("write BENCH_server.json");
        println!("fig_server: measurements written to BENCH_server.json");
    }
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
