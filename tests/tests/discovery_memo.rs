//! Differential oracle for the per-slot discovery memo.
//!
//! An engine keeps, per pool slot, the `Top-k-Pkg` result of the weight row
//! the slot last held, and searches again only the slots whose rows changed.
//! Driven through random sequences of presents, clicks, pairwise
//! preferences, skips and recommends, it must behave exactly like a cold
//! twin restored from its snapshot (whose memo is empty) — same outputs,
//! same state, same RNG consumption — and each discovery must search exactly
//! the pool rows that changed since the previous one.  `EmRefitSession`
//! ranks through the same memo: a `recommend` after a `present` searches
//! nothing and returns what a memo-free ranking of its pool returns.

use pkgrec_baselines::{EmRefitConfig, EmRefitSession};
use pkgrec_core::aggregate;
use pkgrec_core::prelude::*;
use pkgrec_core::recommender::per_sample_rankings_indexed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const SAMPLES: usize = 24;

fn semantics_of(index: usize) -> RankingSemantics {
    match index % 3 {
        0 => RankingSemantics::Exp,
        1 => RankingSemantics::Tkp { sigma: 4 },
        _ => RankingSemantics::Mpo,
    }
}

/// Rows of `now` whose bits differ from the row in the same slot of
/// `before` (a slot `before` does not have counts as changed).
fn changed_rows(before: &[Vec<f64>], now: &[Vec<f64>]) -> usize {
    now.iter()
        .enumerate()
        .filter(|(slot, row)| {
            before.get(*slot).is_none_or(|old| {
                old.iter()
                    .zip(row.iter())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            })
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Before every op the engine is snapshotted and restored into a cold
    /// twin; both run the op on identically seeded RNGs and must agree on
    /// the result, the resulting snapshot and the next RNG draw.  The
    /// engine's discoveries search exactly the changed rows; the twin's
    /// search its whole pool.
    #[test]
    fn memoised_engine_equals_a_cold_twin_op_for_op(
        rows in prop::collection::vec(prop::collection::vec(0.05f64..1.0, 2), 6..11),
        semantics in 0usize..3,
        phi in 2usize..4,
        threaded in 0usize..2,
        ops in prop::collection::vec(0usize..5, 4..16),
        picks in prop::collection::vec(0usize..64, 32),
        hidden in prop::collection::vec(-1.0f64..1.0, 2),
        seed in 0u64..10_000,
    ) {
        let catalog = Catalog::from_rows(rows).unwrap();
        let num_threads = if threaded == 1 { 3 } else { 1 };
        let mut engine = RecommenderEngine::builder(catalog.clone(), Profile::cost_quality())
            .max_package_size(phi)
            .k(3)
            .num_random(2)
            .num_samples(SAMPLES)
            .semantics(semantics_of(semantics))
            .num_threads(num_threads)
            .build()
            .unwrap();
        let context = AggregationContext::new(Profile::cost_quality(), &catalog, phi).unwrap();
        let user = SimulatedUser::new(LinearUtility::new(context, hidden).unwrap());
        let mut shown: Vec<Package> = Vec::new();
        let mut discovered: Vec<Vec<f64>> = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            let mut twin = RecommenderEngine::restore(engine.snapshot()).unwrap();
            twin.set_num_threads(num_threads).unwrap();
            prop_assert_eq!(twin.discovery_memo().slots(), 0);
            let mut rng = StdRng::seed_from_u64(seed ^ ((step as u64) << 32));
            let mut twin_rng = rng.clone();
            let before = engine.search_stats();
            let feedback = match (op, shown.len()) {
                (0, _) => {
                    let a = engine.present(&mut rng);
                    let b = twin.present(&mut twin_rng);
                    prop_assert_eq!(&a, &b);
                    shown = a.unwrap();
                    None
                }
                (4, _) => {
                    let a = engine.recommend(&mut rng);
                    let b = twin.recommend(&mut twin_rng);
                    prop_assert_eq!(&a, &b);
                    a.unwrap();
                    None
                }
                // Feedback needs a shown list (and pairwise two packages).
                (_, 0) | (2, 1) => continue,
                (1, _) => {
                    let index = user.choose(&catalog, &shown, &mut StdRng::seed_from_u64(seed))
                        .unwrap();
                    Some(Feedback::Click { index })
                }
                (2, len) => {
                    let preferred = picks[(2 * step) % picks.len()] % len;
                    let offset = 1 + picks[(2 * step + 1) % picks.len()] % (len - 1);
                    Some(Feedback::Pairwise { preferred, over: (preferred + offset) % len })
                }
                _ => Some(Feedback::Skip),
            };
            if let Some(feedback) = feedback {
                let a = engine.record_feedback(&shown, feedback, &mut rng);
                let b = twin.record_feedback(&shown, feedback, &mut twin_rng);
                prop_assert_eq!(&a, &b);
                if a.is_err() {
                    // Both ran the sampler dry at the same point.
                    break;
                }
            } else {
                let now = engine.pool().weight_rows();
                let run = engine.search_stats().delta_since(&before);
                prop_assert_eq!(run.searches, changed_rows(&discovered, &now), "step {}", step);
                prop_assert_eq!(run.searches + run.reused, now.len());
                prop_assert_eq!(twin.search_stats().searches, now.len());
                prop_assert_eq!(twin.search_stats().reused, 0);
                discovered = now;
            }
            prop_assert_eq!(engine.snapshot(), twin.snapshot());
            prop_assert_eq!(rng.next_u64(), twin_rng.next_u64());
        }
    }

    /// `EmRefitSession` redraws its pool after every absorbed click, so its
    /// `present` searches every new row, and the `recommend` that follows
    /// searches none and equals a memo-free ranking of the same pool.
    #[test]
    fn em_refit_recommend_after_present_reuses_every_slot(
        rows in prop::collection::vec(prop::collection::vec(0.05f64..1.0, 2), 6..11),
        semantics in 0usize..3,
        hidden in prop::collection::vec(-1.0f64..1.0, 2),
        rounds in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let catalog = Catalog::from_rows(rows).unwrap();
        let config = EmRefitConfig {
            k: 2,
            num_random: 2,
            num_samples: 20,
            samples_per_refit: 40,
            semantics: semantics_of(semantics),
            ..EmRefitConfig::default()
        };
        let mut session =
            EmRefitSession::new(catalog.clone(), Profile::cost_quality(), 2, config.clone())
                .unwrap();
        let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
        let user = SimulatedUser::new(LinearUtility::new(context.clone(), hidden).unwrap());
        let depth = config.semantics.per_sample_depth(config.k);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut discovered: Vec<Vec<f64>> = Vec::new();
        for _ in 0..rounds {
            let before = session.state().search;
            let shown = session.present(&mut rng).unwrap();
            let now = session.pool().weight_rows();
            let run = session.state().search.delta_since(&before);
            prop_assert_eq!(run.searches, changed_rows(&discovered, &now));
            prop_assert_eq!(run.searches + run.reused, now.len());
            discovered = now;

            let before = session.state().search;
            let recommended = session.recommend(&mut rng).unwrap();
            let run = session.state().search.delta_since(&before);
            prop_assert_eq!(run.searches, 0);
            prop_assert_eq!(run.reused, session.pool().len());
            let (cold, _) = per_sample_rankings_indexed(
                &context,
                &catalog,
                catalog.sorted_lists(),
                session.pool(),
                depth,
                1,
            )
            .unwrap();
            prop_assert_eq!(recommended, aggregate(config.semantics, &cold, config.k));

            let index = user.choose(&catalog, &shown, &mut rng).unwrap();
            session
                .record_feedback(&shown, Feedback::Click { index }, &mut rng)
                .unwrap();
        }
    }
}
