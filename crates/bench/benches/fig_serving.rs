//! `fig_serving` — throughput of the sharded session-serving layer.
//!
//! Serves the same mixed fleet of elicitation sessions (engine + baseline
//! adapters, one hidden-utility user each) through `{1, N}` shards ×
//! `{store-hit, snapshot-restore}` paths.  The hit path keeps every
//! session live; the restore path caps each shard at one live session, so
//! nearly every operation pays a spill (snapshot checkpoint) plus a
//! rehydrate (journal replay).  Per-session outcomes are identical across
//! all shapes — the serving layer's core guarantee — and the bench asserts
//! it before timing anything.
//!
//! Outside `-- --test` smoke mode the measured throughputs are written to
//! `BENCH_serving.json` at the repository root.  Note the CI container
//! exposes a single CPU: the multi-shard rows measure the sharding
//! overhead there, not a speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use pkgrec_bench::report::{bench_environment, BenchEnvironment};
use pkgrec_bench::serving::{
    durability_point, serve_point, DurabilityPoint, ServingConfig, ServingPoint,
};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    environment: BenchEnvironment,
    dataset: &'static str,
    rows: usize,
    sessions: usize,
    max_rounds: usize,
    mixed_fleet: bool,
    points: Vec<ServingPoint>,
    durability: DurabilityPoint,
}

fn bench_serving(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let config = if test_mode {
        ServingConfig {
            sessions: 8,
            rows: 160,
            num_samples: 20,
            max_rounds: 3,
            ..ServingConfig::default()
        }
    } else {
        ServingConfig::default()
    };

    let mut points = Vec::new();
    for shards in [1usize, config.shards.max(2)] {
        let shaped = ServingConfig {
            shards,
            threads: shards,
            ..config.clone()
        };
        for (path, capacity) in [
            ("store-hit", shaped.sessions.max(1)),
            ("snapshot-restore", 1usize),
        ] {
            let point =
                serve_point(&shaped, path, capacity).expect("serving fleet runs to completion");
            println!(
                "bench: fig_serving/{}shard/{:<18} {:>8.2} sessions/s  ({} sessions, {} evictions, {} restores)",
                shards, path, point.sessions_per_sec, point.sessions,
                point.store.evictions, point.store.restores
            );
            points.push(point);
        }
    }

    // The serving layer's guarantee: identical per-session outcomes on
    // every shape (same fleet, same seeds — scheduling and capacity
    // pressure are invisible).
    for point in &points[1..] {
        assert_eq!(point.mean_clicks, points[0].mean_clicks, "{}", point.path);
        assert_eq!(point.converged, points[0].converged, "{}", point.path);
        assert_eq!(
            point.mean_precision, points[0].mean_precision,
            "{}",
            point.path
        );
    }

    // Durability series: the 100-session workload served through the
    // segmented durable log, then compacted, killed and recovered.
    // `durability_point` itself asserts probe sessions recommend
    // identically across the kill; here we pin the interning + compaction
    // byte cut versus the v1 (uninterned) journal serialisation.
    let durability_config = if test_mode {
        ServingConfig {
            sessions: 24,
            rows: 160,
            num_samples: 20,
            max_rounds: 2,
            ..ServingConfig::default()
        }
    } else {
        ServingConfig {
            sessions: 100,
            rows: 600,
            num_samples: 30,
            max_rounds: 2,
            ..ServingConfig::default()
        }
    };
    let durability =
        durability_point(&durability_config).expect("the durable fleet serves and recovers");
    println!(
        "bench: fig_serving/durability          v1 {:>8.1} KB -> segments {:>7.1} KB -> compacted {:>7.1} KB ({:.1}x cut)",
        durability.v1_journal_bytes as f64 / 1024.0,
        durability.segment_bytes_before as f64 / 1024.0,
        durability.segment_bytes_after as f64 / 1024.0,
        durability.reduction_factor,
    );
    println!(
        "bench: fig_serving/recovery            {} sessions rebuilt from segments in {:.2} ms",
        durability.recovered_sessions, durability.recovery_ms,
    );
    let floor = if test_mode { 2.0 } else { 5.0 };
    assert!(
        durability.reduction_factor >= floor,
        "interning + compaction must cut journal bytes by >= {floor}x, got {:.2}x",
        durability.reduction_factor
    );
    assert_eq!(
        durability.recovered_sessions, durability_config.sessions,
        "every session must survive the kill"
    );

    if !test_mode {
        let record = BenchRecord {
            bench: "fig_serving",
            environment: bench_environment(),
            dataset: "UNI",
            rows: config.rows,
            sessions: config.sessions,
            max_rounds: config.max_rounds,
            mixed_fleet: config.mixed,
            points,
            durability,
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
        let payload = serde_json::to_string_pretty(&record).expect("records serialise");
        std::fs::write(path, payload + "\n").expect("write BENCH_serving.json");
        println!("fig_serving: measurements written to BENCH_serving.json");
    }
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
