//! Criterion benchmark for the batched scoring kernel: the candidate ×
//! sample utility evaluation of every elicitation round, measured scalar
//! (row-at-a-time over per-sample `Vec`s, the pre-columnar code shape)
//! versus lane-blocked ([`score_batch`]) versus threaded
//! ([`score_batch_threaded`], only when the host has more than one CPU —
//! on one CPU it would time [`score_batch`] a second time), on a
//! Figure-8-scale workload (5 features, a full candidate slate, thousands
//! of pooled samples).
//!
//! Besides the Criterion groups, the bench times each kernel shape over
//! [`REPETITIONS`] alternating repetitions and — outside `-- --test` smoke
//! mode — writes each shape's median and quartiles to `BENCH_scoring.json`
//! at the repository root, with the machine/build environment header every
//! benchmark artifact carries.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pkgrec_bench::report::{bench_environment, BenchEnvironment};
use pkgrec_bench::workload::{Workload, WorkloadConfig};
use pkgrec_core::constraints::{ConstraintChecker, ConstraintSource};
use pkgrec_core::sampler::{RejectionSampler, WeightSampler};
use pkgrec_core::scoring::{score_batch, score_batch_threaded, CandidateMatrix};
use pkgrec_core::utility::dot;
use pkgrec_core::{package_space_size, random_package};
use serde::Serialize;
use std::time::Instant;

/// One timed kernel shape in `BENCH_scoring.json`: the spread of its
/// per-repetition mean sweep time.
#[derive(Debug, Serialize)]
struct ScoringPoint {
    /// Kernel shape ("scalar" / "lane-blocked" / "threaded_N").
    path: String,
    /// Repetitions the quartiles are taken over.
    repetitions: usize,
    /// Median nanoseconds per full candidate × sample sweep.
    median_ns: f64,
    /// Lower quartile of the nanoseconds per sweep.
    q1_ns: f64,
    /// Upper quartile of the nanoseconds per sweep.
    q3_ns: f64,
    /// Score-matrix cells produced per second, at the median.
    cells_per_sec: f64,
    /// Median throughput relative to the scalar row (scalar = 1.0).
    speedup_vs_scalar: f64,
}

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    environment: BenchEnvironment,
    candidates: usize,
    samples: usize,
    features: usize,
    points: Vec<ScoringPoint>,
}

/// Times `iters` full sweeps of `f`, returning the mean seconds per sweep.
fn time_sweeps(f: &mut dyn FnMut(), iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// The `q`-quantile of ascending `sorted`, by linear interpolation.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// Repetitions per kernel shape, taken in alternation so a slow spell of
/// the host spreads over every shape instead of landing on one.
const REPETITIONS: usize = 12;

const CANDIDATES: usize = 256;
const SAMPLES: usize = 2_000;

/// The row-at-a-time baseline this PR removed: iterate the pool sample by
/// sample (each a separate `Vec<f64>`), materialise every sample's candidate
/// scores in its own `Vec` — the shape the old per-sample ranking loops
/// produced — then reduce to weighted expectations per candidate.
fn scalar_phase(
    candidate_rows: &[Vec<f64>],
    sample_rows: &[Vec<f64>],
    importances: &[f64],
) -> Vec<f64> {
    let per_sample: Vec<Vec<f64>> = sample_rows
        .iter()
        .map(|sample| candidate_rows.iter().map(|c| dot(c, sample)).collect())
        .collect();
    let total: f64 = importances.iter().sum();
    (0..candidate_rows.len())
        .map(|c| {
            per_sample
                .iter()
                .zip(importances)
                .map(|(scores, q)| scores[c] * q)
                .sum::<f64>()
                / total
        })
        .collect()
}

fn bench_fig_scoring(c: &mut Criterion) {
    let workload = Workload::build(WorkloadConfig {
        rows: 2_000,
        features: 5,
        preferences: 0,
        seed: 9,
        ..WorkloadConfig::default()
    });
    // A fig8-scale pool: thousands of posterior samples from the prior.
    let empty = ConstraintChecker::from_constraints(5, vec![], ConstraintSource::Full);
    let mut rng = workload.rng(1);
    let pool = RejectionSampler::default()
        .generate(&workload.prior, &empty, SAMPLES, &mut rng)
        .expect("unconstrained sampling succeeds")
        .pool;
    // A slate of distinct candidate packages with their feature vectors.
    let phi = workload.context.max_package_size();
    assert!(package_space_size(workload.catalog.len(), phi) >= CANDIDATES as u128);
    let mut packages = Vec::with_capacity(CANDIDATES);
    while packages.len() < CANDIDATES {
        let p = random_package(workload.catalog.len(), phi, &mut rng);
        if !packages.contains(&p) {
            packages.push(p);
        }
    }
    let candidate_rows: Vec<Vec<f64>> = packages
        .iter()
        .map(|p| {
            workload
                .context
                .package_vector(&workload.catalog, p)
                .expect("random packages respect φ")
        })
        .collect();
    let candidates = CandidateMatrix::from_rows(5, &candidate_rows);
    let sample_rows = pool.weight_rows();
    let importances = pool.importances().to_vec();

    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = parallelism.min(8);
    let mut group = c.benchmark_group("fig_scoring_kernel");
    let shape = format!("{CANDIDATES}x{SAMPLES}");
    group.bench_with_input(BenchmarkId::new("scalar", &shape), &(), |b, ()| {
        b.iter(|| {
            black_box(scalar_phase(
                black_box(&candidate_rows),
                black_box(&sample_rows),
                &importances,
            ))
        })
    });
    group.bench_with_input(BenchmarkId::new("lane-blocked", &shape), &(), |b, ()| {
        b.iter(|| {
            let scores = score_batch(black_box(&candidates), black_box(pool.weight_matrix()));
            black_box(scores.weighted_expectations(&importances))
        })
    });
    if parallelism > 1 {
        group.bench_with_input(
            BenchmarkId::new(format!("threaded_{threads}"), &shape),
            &(),
            |b, ()| {
                b.iter(|| {
                    let scores = score_batch_threaded(
                        black_box(&candidates),
                        black_box(pool.weight_matrix()),
                        threads,
                    );
                    black_box(scores.weighted_expectations(&importances))
                })
            },
        );
    }
    group.finish();

    // Correctness backing for the timing: every path agrees (the blocked
    // and threaded kernels bit-identically, the scalar shape to 1e-12 — it
    // sums in a different association order).
    let scalar = scalar_phase(&candidate_rows, &sample_rows, &importances);
    let batched =
        score_batch(&candidates, pool.weight_matrix()).weighted_expectations(&importances);
    let threaded = score_batch_threaded(&candidates, pool.weight_matrix(), threads)
        .weighted_expectations(&importances);
    assert_eq!(batched, threaded);
    for (s, b) in scalar.iter().zip(batched.iter()) {
        assert!((s - b).abs() < 1e-12, "scalar {s} vs batched {b}");
    }

    // The recorded series: every shape timed once per repetition, in
    // alternation, after one warmup sweep each.
    let test_mode = std::env::args().any(|a| a == "--test");
    let (repetitions, iters) = if test_mode { (2, 1) } else { (REPETITIONS, 10) };
    let mut arms: Vec<(String, Box<dyn FnMut() + '_>)> = vec![
        (
            "scalar".to_string(),
            Box::new(|| {
                black_box(scalar_phase(
                    black_box(&candidate_rows),
                    black_box(&sample_rows),
                    &importances,
                ));
            }),
        ),
        (
            "lane-blocked".to_string(),
            Box::new(|| {
                black_box(score_batch(
                    black_box(&candidates),
                    black_box(pool.weight_matrix()),
                ));
            }),
        ),
    ];
    if parallelism > 1 {
        arms.push((
            format!("threaded_{threads}"),
            Box::new(|| {
                black_box(score_batch_threaded(
                    black_box(&candidates),
                    black_box(pool.weight_matrix()),
                    threads,
                ));
            }),
        ));
    }
    for (_, arm) in arms.iter_mut() {
        arm();
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(repetitions); arms.len()];
    for _ in 0..repetitions {
        for ((_, arm), times) in arms.iter_mut().zip(samples.iter_mut()) {
            times.push(time_sweeps(arm.as_mut(), iters));
        }
    }
    for times in &mut samples {
        times.sort_by(f64::total_cmp);
    }
    let cells = (CANDIDATES * SAMPLES) as f64;
    let scalar_secs = quantile(&samples[0], 0.5);
    let points: Vec<ScoringPoint> = arms
        .iter()
        .zip(&samples)
        .map(|((path, _), times)| {
            let median = quantile(times, 0.5);
            ScoringPoint {
                path: path.clone(),
                repetitions,
                median_ns: median * 1e9,
                q1_ns: quantile(times, 0.25) * 1e9,
                q3_ns: quantile(times, 0.75) * 1e9,
                cells_per_sec: cells / median.max(1e-12),
                speedup_vs_scalar: scalar_secs / median.max(1e-12),
            }
        })
        .collect();
    for p in &points {
        println!(
            "bench: fig_scoring/{:<14} {:>10.1} us/sweep [{:.1}, {:.1}]  {:>8.1} Mcells/s  ({:.2}x vs scalar)",
            p.path,
            p.median_ns / 1e3,
            p.q1_ns / 1e3,
            p.q3_ns / 1e3,
            p.cells_per_sec / 1e6,
            p.speedup_vs_scalar
        );
    }

    if !test_mode {
        let record = BenchRecord {
            bench: "fig_scoring",
            environment: bench_environment(),
            candidates: CANDIDATES,
            samples: SAMPLES,
            features: 5,
            points,
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scoring.json");
        let payload = serde_json::to_string_pretty(&record).expect("records serialise");
        std::fs::write(path, payload + "\n").expect("write BENCH_scoring.json");
        println!("fig_scoring: measurements written to BENCH_scoring.json");
    }
}

criterion_group!(benches, bench_fig_scoring);
criterion_main!(benches);
