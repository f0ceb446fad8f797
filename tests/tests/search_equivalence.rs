//! Equivalence suite for the optimised `Top-k-Pkg` hot path.
//!
//! The arena/incremental-bound implementation behind
//! [`top_k_packages`] must be indistinguishable from its two oracles:
//!
//! * the clone-based reference path ([`top_k_packages_reference`], the
//!   pre-arena implementation kept as the executable specification) — on
//!   *every* profile, weight sign pattern and package-size budget, with the
//!   statistics counters tracking each other tightly (exact equality is
//!   impossible at ηlo-boundary floating-point ties; see the inline comment);
//! * the exhaustive enumeration ([`top_k_packages_exhaustive`]) — on the
//!   workloads where utility-improving expansion is complete: set-monotone
//!   utilities whose strictly-increasing `sum` component makes every package
//!   reachable.  (For general non-monotone utilities the paper's expansion is
//!   a bounded search, not an enumeration; there the suite checks soundness —
//!   reported utilities are genuine and never beat the true optimum — which
//!   is exactly the guarantee the reference path provides.)
//!
//! A regression test also pins the cached-sorted-lists seam: the index an
//! engine builds at construction must equal a freshly built one, and reusing
//! it must not change any search result.

use pkgrec_core::prelude::*;
use pkgrec_core::recommender::per_sample_rankings_indexed;
use pkgrec_core::search::top_k_packages_reference;
use pkgrec_core::{top_k_packages_with_scratch, AggregatedSearchStats, SearchScratch};
use pkgrec_topk::SortedLists;
use proptest::prelude::*;

/// Maps a generated index to an aggregate, covering every kind including
/// `null`.
fn aggregate_of(index: usize) -> AggregateFn {
    match index % 5 {
        0 => AggregateFn::Sum,
        1 => AggregateFn::Avg,
        2 => AggregateFn::Max,
        3 => AggregateFn::Min,
        _ => AggregateFn::Null,
    }
}

fn utility_over(
    rows: &[Vec<f64>],
    aggregates: &[usize],
    weights: Vec<f64>,
    phi: usize,
) -> (Catalog, LinearUtility) {
    let catalog = Catalog::from_rows(rows.to_vec()).unwrap();
    let profile = Profile::new(aggregates.iter().map(|&a| aggregate_of(a)).collect());
    let context = AggregationContext::new(profile, &catalog, phi).unwrap();
    let utility = LinearUtility::new(context, weights).unwrap();
    (catalog, utility)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The optimised search matches the clone-based reference: identical
    /// packages and utilities (up to floating-point association) and closely
    /// tracking search statistics, across every aggregate kind (set-monotone
    /// or not), null features, zeroed weights and φ ∈ {1..4}.
    #[test]
    fn optimized_search_matches_the_clone_reference(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 3..12),
        aggregates in prop::collection::vec(0usize..5, 3),
        raw_weights in prop::collection::vec(-1.0f64..1.0, 3),
        zero_mask in prop::collection::vec(0usize..4, 3),
        phi in 1usize..5,
        k in 1usize..6,
    ) {
        let weights: Vec<f64> = raw_weights
            .iter()
            .zip(zero_mask.iter())
            .map(|(&w, &m)| if m == 0 { 0.0 } else { w })
            .collect();
        let (catalog, utility) = utility_over(&rows, &aggregates, weights, phi);
        let fast = top_k_packages(&utility, &catalog, k).unwrap();
        let reference = top_k_packages_reference(&utility, &catalog, k).unwrap();
        prop_assert_eq!(fast.packages.len(), reference.packages.len());
        for ((fp, fs), (rp, rs)) in fast.packages.iter().zip(reference.packages.iter()) {
            prop_assert_eq!(fp, rp);
            prop_assert!((fs - rs).abs() < 1e-9, "utilities diverge: {} vs {}", fs, rs);
        }
        // The statistics must describe the same scan, but exact equality is
        // not attainable: τ is assembled from real item values, so a
        // candidate's upper bound can *mathematically* equal ηlo (packing τ
        // reconstructs the incumbent package exactly), and at such ties the
        // two implementations' different floating-point association can keep
        // or drop the candidate differently — changing the counters by a
        // hair without affecting the returned packages.
        let accesses_diff =
            fast.stats.sorted_accesses.abs_diff(reference.stats.sorted_accesses);
        prop_assert!(accesses_diff <= 6, "sorted accesses diverge: {:?} vs {:?}", fast.stats, reference.stats);
        let items_diff = fast.stats.items_accessed.abs_diff(reference.stats.items_accessed);
        prop_assert!(items_diff <= 6, "items accessed diverge: {:?} vs {:?}", fast.stats, reference.stats);
        let candidates_diff =
            fast.stats.candidates_created.abs_diff(reference.stats.candidates_created);
        let tolerance = 4.max(reference.stats.candidates_created / 10);
        prop_assert!(
            candidates_diff <= tolerance,
            "candidates created diverge: {:?} vs {:?}", fast.stats, reference.stats
        );
    }

    /// On set-monotone utilities with a strictly-improving `sum` component the
    /// expansion is complete: the optimised search reproduces the exhaustive
    /// enumeration rank for rank.
    #[test]
    fn optimized_search_matches_exhaustive_on_set_monotone_utilities(
        rows in prop::collection::vec(prop::collection::vec(0.01f64..1.0, 3), 3..10),
        sum_weight in 0.05f64..1.0,
        max_weight in 0.0f64..1.0,
        min_weight in 0.0f64..1.0,
        phi in 1usize..5,
        k in 1usize..6,
    ) {
        let catalog = Catalog::from_rows(rows.to_vec()).unwrap();
        let profile = Profile::new(vec![AggregateFn::Sum, AggregateFn::Max, AggregateFn::Min]);
        let context = AggregationContext::new(profile, &catalog, phi).unwrap();
        // sum/max gain with positive weight, min with negative: set-monotone.
        let utility =
            LinearUtility::new(context, vec![sum_weight, max_weight, -min_weight]).unwrap();
        prop_assert!(utility.is_set_monotone());
        let fast = top_k_packages(&utility, &catalog, k).unwrap();
        let slow = top_k_packages_exhaustive(&utility, &catalog, k).unwrap();
        prop_assert_eq!(fast.packages.len(), slow.len());
        for ((fp, fs), (sp, ss)) in fast.packages.iter().zip(slow.iter()) {
            prop_assert_eq!(fp, sp);
            prop_assert!((fs - ss).abs() < 1e-9, "utilities diverge: {} vs {}", fs, ss);
        }
    }

    /// Sample-parallel discovery (`std::thread::scope` workers, each owning
    /// its candidate arena and scratch buffers) is bit-identical to the
    /// serial path: same rankings, same merged statistics, across thread
    /// counts {1, 2, 4}.
    #[test]
    fn sample_parallel_rankings_are_bit_identical_to_serial(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 4..12),
        aggregates in prop::collection::vec(0usize..5, 3),
        sample_rows in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 1..24),
        phi in 1usize..4,
        depth in 1usize..5,
    ) {
        let catalog = Catalog::from_rows(rows.to_vec()).unwrap();
        let profile = Profile::new(aggregates.iter().map(|&a| aggregate_of(a)).collect());
        let context = AggregationContext::new(profile, &catalog, phi).unwrap();
        let mut pool = SamplePool::new();
        for weights in &sample_rows {
            pool.push_sample(weights, 1.0);
        }
        let lists = SortedLists::new(catalog.rows());
        let (serial, serial_stats) =
            per_sample_rankings_indexed(&context, &catalog, &lists, &pool, depth, 1).unwrap();
        for threads in [2usize, 4] {
            let (parallel, stats) =
                per_sample_rankings_indexed(&context, &catalog, &lists, &pool, depth, threads)
                    .unwrap();
            prop_assert_eq!(&serial, &parallel, "{} threads", threads);
            prop_assert_eq!(serial_stats, stats, "{} threads", threads);
        }
    }

    /// A worker-style reused [`SearchScratch`] replays any sequence of
    /// searches bit-identically to fresh allocations — packages, utilities
    /// and statistics.
    #[test]
    fn scratch_reuse_is_bit_identical_across_a_search_sequence(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 3..10),
        aggregates in prop::collection::vec(0usize..5, 3),
        weight_seq in prop::collection::vec(prop::collection::vec(-1.0f64..1.0, 3), 1..8),
        phi in 1usize..4,
        k in 1usize..5,
    ) {
        let catalog = Catalog::from_rows(rows.to_vec()).unwrap();
        let profile = Profile::new(aggregates.iter().map(|&a| aggregate_of(a)).collect());
        let lists = SortedLists::new(catalog.rows());
        let mut scratch = SearchScratch::new();
        for weights in weight_seq {
            let context = AggregationContext::new(profile.clone(), &catalog, phi).unwrap();
            let utility = LinearUtility::new(context, weights).unwrap();
            let fresh = top_k_packages_with_lists(&utility, &catalog, &lists, k).unwrap();
            let reused =
                top_k_packages_with_scratch(&utility, &catalog, &lists, k, &mut scratch).unwrap();
            prop_assert_eq!(fresh, reused);
        }
    }

    /// Whole-engine behaviour is thread-count independent: engines configured
    /// with 1, 2 and 4 worker threads, driven through identical rounds with
    /// identically seeded RNGs, present and recommend exactly the same
    /// packages.
    #[test]
    fn engine_recommendations_are_thread_count_independent(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 2), 5..10),
        seed in 0u64..1000,
        rounds in 1usize..3,
    ) {
        use rand::SeedableRng;
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut engine = RecommenderEngine::builder(
                Catalog::from_rows(rows.to_vec()).unwrap(),
                Profile::cost_quality(),
            )
            .max_package_size(2)
            .k(2)
            .num_random(1)
            .num_samples(16)
            .num_threads(threads)
            .build()
            .unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut transcript = Vec::new();
            for _ in 0..rounds {
                let shown = engine.present(&mut rng).unwrap();
                transcript.push(shown.clone());
                // A click on a degenerate random catalog can make the
                // constraint region infeasible (sampling exhausted); the
                // failure is deterministic — independent of the thread count
                // — so every engine stops at the same round and the
                // transcripts stay comparable.
                if engine
                    .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
                    .is_err()
                {
                    break;
                }
            }
            let recommendations = engine.recommend(&mut rng).unwrap();
            outputs.push((transcript, recommendations));
        }
        prop_assert_eq!(&outputs[0], &outputs[1]);
        prop_assert_eq!(&outputs[0], &outputs[2]);
    }

    /// On arbitrary (possibly non-monotone) utilities the optimised search is
    /// sound against the exhaustive oracle: utilities are genuine, never beat
    /// the true optimum, and arrive best-first.
    #[test]
    fn optimized_search_is_sound_against_exhaustive_on_any_profile(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 3..9),
        aggregates in prop::collection::vec(0usize..5, 3),
        weights in prop::collection::vec(-1.0f64..1.0, 3),
        phi in 1usize..4,
        k in 1usize..5,
    ) {
        let (catalog, utility) = utility_over(&rows, &aggregates, weights, phi);
        let fast = top_k_packages(&utility, &catalog, k).unwrap();
        let slow = top_k_packages_exhaustive(&utility, &catalog, k).unwrap();
        for (package, score) in &fast.packages {
            prop_assert!(package.len() <= phi);
            let recomputed = utility.of_package(&catalog, package).unwrap();
            prop_assert!((recomputed - score).abs() < 1e-9);
            prop_assert!(*score <= slow[0].1 + 1e-9);
        }
        for pair in fast.packages.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1 - 1e-12);
        }
    }
}

fn ten_item_catalog() -> Catalog {
    Catalog::from_rows(vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
        vec![0.3, 0.7],
        vec![0.7, 0.1],
        vec![0.1, 0.3],
        vec![0.5, 0.9],
        vec![0.8, 0.5],
        vec![0.2, 0.8],
    ])
    .unwrap()
}

/// Regression: the sorted-lists index the engine caches at construction is
/// exactly the index a fresh build over the catalog produces, and searching
/// through it changes nothing.
#[test]
fn engine_cached_sorted_lists_equal_freshly_built_ones() {
    let catalog = ten_item_catalog();
    let engine = RecommenderEngine::builder(catalog.clone(), Profile::cost_quality())
        .max_package_size(3)
        .k(3)
        .num_samples(20)
        .build()
        .unwrap();
    let fresh = SortedLists::new(catalog.rows());
    assert_eq!(engine.sorted_lists(), &fresh);

    let context = AggregationContext::new(Profile::cost_quality(), &catalog, 3).unwrap();
    let utility = LinearUtility::new(context, vec![-0.4, 0.8]).unwrap();
    let via_cache =
        top_k_packages_with_lists(&utility, &catalog, engine.sorted_lists(), 4).unwrap();
    let via_fresh = top_k_packages(&utility, &catalog, 4).unwrap();
    assert_eq!(via_cache, via_fresh);
}

/// The engine searches each pool slot whose weight row changed since the
/// last discovery and reuses the others' packages, exposing the totals
/// through both the accessor and the `Recommender` state: a second
/// `recommend` on an unchanged pool searches nothing and reuses every slot,
/// and after a click the next discovery searches exactly the replaced rows.
#[test]
fn engine_aggregates_search_stats_across_recommendations() {
    use rand::SeedableRng;

    let mut engine = RecommenderEngine::builder(ten_item_catalog(), Profile::cost_quality())
        .max_package_size(3)
        .k(3)
        .num_samples(25)
        .build()
        .unwrap();
    assert_eq!(engine.search_stats(), AggregatedSearchStats::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    engine.recommend(&mut rng).unwrap();
    let after_one = engine.search_stats();
    assert_eq!(after_one.searches, 25);
    assert_eq!(after_one.reused, 0);
    assert!(after_one.sorted_accesses > 0);
    assert!(after_one.candidates_created > 0);
    engine.recommend(&mut rng).unwrap();
    let after_two = engine.search_stats();
    let second = after_two.delta_since(&after_one);
    assert_eq!(second.searches, 0);
    assert_eq!(second.reused, 25);
    assert_eq!(second.sorted_accesses, 0);
    let recommender: &dyn Recommender = &engine;
    assert_eq!(recommender.state().search, after_two);

    let shown = engine.present(&mut rng).unwrap();
    assert_eq!(engine.search_stats().delta_since(&after_two).searches, 0);
    let context = AggregationContext::new(Profile::cost_quality(), engine.catalog(), 3).unwrap();
    let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.4, 0.8]).unwrap());
    let index = user.choose(engine.catalog(), &shown, &mut rng).unwrap();
    let rows = engine.pool().weight_rows();
    engine
        .record_feedback(&shown, Feedback::Click { index }, &mut rng)
        .unwrap();
    let replaced = engine
        .pool()
        .weight_rows()
        .iter()
        .zip(&rows)
        .filter(|(now, before)| now != before)
        .count();
    assert!(replaced > 0, "the click replaces some samples");
    let before = engine.search_stats();
    engine.recommend(&mut rng).unwrap();
    let third = engine.search_stats().delta_since(&before);
    assert_eq!(third.searches, replaced);
    assert_eq!(third.reused, 25 - replaced);

    engine.reset_search_stats();
    assert_eq!(engine.search_stats(), AggregatedSearchStats::default());
}
