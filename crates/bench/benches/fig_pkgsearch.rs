//! `fig_pkgsearch` — the package-search fast path, old vs new.
//!
//! Races the clone-based pre-arena `Top-k-Pkg` (`top_k_packages_reference`:
//! per-call sorted lists, cloned candidates, state-cloning bounds, dedup map)
//! against the optimised path (`top_k_packages_with_lists`: catalog-cached
//! sorted lists, arena candidates with parent-pointer chains, incremental
//! τ-scalar bounds) over a features × φ sweep, checking along the way that
//! both paths return identical packages and utilities.
//!
//! Outside `-- --test` smoke mode the measured means are also written to
//! `BENCH_pkgsearch.json` at the repository root, so the recorded numbers can
//! be refreshed by simply re-running the bench.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pkgrec_bench::report::{bench_environment, BenchEnvironment};
use pkgrec_bench::workload::{DatasetId, Workload, WorkloadConfig};
use pkgrec_core::{
    top_k_packages_reference, top_k_packages_with_lists, LinearUtility, SearchResult,
};
use serde::Serialize;

/// `(features, φ)` sweep: the last configurations are the multi-feature,
/// φ ≥ 4 regime the optimisation targets.
const SWEEP: &[(usize, usize)] = &[(2, 3), (3, 4), (4, 4), (4, 5)];

const ROWS: usize = 1_200;
const K: usize = 5;

/// One measured sweep point, serialised into `BENCH_pkgsearch.json`.
#[derive(Debug, Serialize)]
struct SweepRecord {
    features: usize,
    phi: usize,
    reference_ns_per_search: u64,
    arena_ns_per_search: u64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct BenchRecord {
    bench: &'static str,
    environment: BenchEnvironment,
    dataset: &'static str,
    rows: usize,
    k: usize,
    weight_vectors_per_point: usize,
    iterations_per_path: u32,
    configs: Vec<SweepRecord>,
}

/// Weight vectors exercised per sweep point: the workload's hidden ground
/// truth plus deterministic uniform draws (mixing set-monotone and
/// non-monotone sign patterns).
fn weight_vectors(workload: &Workload) -> Vec<Vec<f64>> {
    use rand::Rng;
    let mut rng = workload.rng(42);
    let dim = workload.catalog.num_features();
    let mut vectors = vec![workload.ground_truth.clone()];
    for _ in 0..2 {
        vectors.push((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect());
    }
    vectors
}

/// Mean wall-clock per search of `f` over `iters` passes of all utilities.
fn measure<F: FnMut(&LinearUtility) -> SearchResult>(
    utilities: &[LinearUtility],
    iters: u32,
    mut f: F,
) -> u64 {
    let start = Instant::now();
    for _ in 0..iters {
        for utility in utilities {
            black_box(f(utility));
        }
    }
    (start.elapsed().as_nanos() / (u128::from(iters) * utilities.len() as u128)) as u64
}

fn bench_pkgsearch(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let iters: u32 = if test_mode { 1 } else { 5 };
    let mut records = Vec::new();
    for &(features, phi) in SWEEP {
        let workload = Workload::build(WorkloadConfig {
            dataset: DatasetId::Uni,
            rows: ROWS,
            features,
            max_package_size: phi,
            preferences: 5,
            seed: 20140901 + features as u64,
            ..WorkloadConfig::default()
        });
        let utilities: Vec<LinearUtility> = weight_vectors(&workload)
            .into_iter()
            .map(|w| {
                LinearUtility::new(workload.context.clone(), w)
                    .expect("weights match the workload dimensionality")
            })
            .collect();

        let lists = workload.catalog.sorted_lists();
        // Equivalence sanity check before timing anything.
        for utility in &utilities {
            let reference = top_k_packages_reference(utility, &workload.catalog, K)
                .expect("reference search succeeds");
            let arena = top_k_packages_with_lists(utility, &workload.catalog, lists, K)
                .expect("arena search succeeds");
            assert_eq!(
                reference.packages.len(),
                arena.packages.len(),
                "result sizes diverge at {features} features, phi {phi}"
            );
            for ((rp, rs), (ap, as_)) in reference.packages.iter().zip(arena.packages.iter()) {
                assert_eq!(rp, ap, "packages diverge at {features} features, phi {phi}");
                assert!(
                    (rs - as_).abs() < 1e-9,
                    "utilities diverge at {features} features, phi {phi}: {rs} vs {as_}"
                );
            }
        }

        let reference_ns = measure(&utilities, iters, |utility| {
            top_k_packages_reference(utility, &workload.catalog, K).expect("search succeeds")
        });
        let arena_ns = measure(&utilities, iters, |utility| {
            top_k_packages_with_lists(utility, &workload.catalog, lists, K)
                .expect("search succeeds")
        });
        let speedup = reference_ns as f64 / arena_ns.max(1) as f64;
        println!(
            "bench: fig_pkgsearch/{features}f_phi{phi}/reference {reference_ns:>12} ns/search"
        );
        println!(
            "bench: fig_pkgsearch/{features}f_phi{phi}/arena     {arena_ns:>12} ns/search  ({speedup:.2}x)"
        );
        records.push(SweepRecord {
            features,
            phi,
            reference_ns_per_search: reference_ns,
            arena_ns_per_search: arena_ns,
            speedup,
        });
    }

    if !test_mode {
        let record = BenchRecord {
            bench: "fig_pkgsearch",
            environment: bench_environment(),
            dataset: "UNI",
            rows: ROWS,
            k: K,
            weight_vectors_per_point: 3,
            iterations_per_path: iters,
            configs: records,
        };
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pkgsearch.json");
        let payload = serde_json::to_string_pretty(&record).expect("records serialise");
        std::fs::write(path, payload + "\n").expect("write BENCH_pkgsearch.json");
        println!("fig_pkgsearch: measurements written to BENCH_pkgsearch.json");
    }
}

criterion_group!(benches, bench_pkgsearch);
criterion_main!(benches);
