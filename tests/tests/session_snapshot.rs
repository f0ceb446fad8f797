//! Property tests over session snapshots: a `snapshot → serde_json →
//! restore` round trip must preserve the preference DAG, the sample pool
//! (weights and importance, bit for bit) and the next-round recommendation.
//! Plus the golden wire-format fixture (`fixtures/session_snapshot_v1.json`)
//! that pins `SNAPSHOT_VERSION` 1, and the documented `set_num_threads`
//! behaviour across `restore()`.

use pkgrec_core::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;

/// Strategy: a small catalog of `n x 2` feature values in (0, 1].
fn catalog_strategy(max_items: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.05f64..1.0, 2), 4..max_items)
}

fn session_after(rows: &[Vec<f64>], hidden: &[f64], clicks: usize, seed: u64) -> RecommenderEngine {
    let catalog = Catalog::from_rows(rows.to_vec()).unwrap();
    let mut engine = RecommenderEngine::builder(catalog.clone(), Profile::cost_quality())
        .max_package_size(2)
        .k(2)
        .num_random(2)
        .num_samples(20)
        .build()
        .unwrap();
    let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
    let user = SimulatedUser::new(LinearUtility::new(context, hidden.to_vec()).unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..clicks {
        let shown = engine.present(&mut rng).unwrap();
        let choice = user.choose(&catalog, &shown, &mut rng).unwrap();
        engine
            .record_feedback(&shown, Feedback::Click { index: choice }, &mut rng)
            .unwrap();
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The JSON round trip preserves the whole session: configuration,
    /// preference DAG, pool weights and the recommendation they induce.
    #[test]
    fn snapshot_json_round_trip_preserves_the_session(
        rows in catalog_strategy(9),
        w0 in -1.0f64..1.0,
        w1 in -1.0f64..1.0,
        clicks in 0usize..3,
        seed in 0u64..500,
    ) {
        let mut engine = session_after(&rows, &[w0, w1], clicks, seed);

        let snapshot = engine.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        let decoded: SessionSnapshot = serde_json::from_str(&json).unwrap();
        // The serde round trip is lossless (floats use shortest-roundtrip
        // formatting), so the decoded snapshot equals the original.
        prop_assert_eq!(&decoded, &snapshot);

        let mut restored = RecommenderEngine::restore(decoded).unwrap();
        prop_assert_eq!(restored.rounds(), engine.rounds());
        prop_assert_eq!(restored.config(), engine.config());
        // Preference DAG: same edges, same packages.
        prop_assert_eq!(restored.preferences().len(), engine.preferences().len());
        prop_assert_eq!(
            restored.preferences().num_packages(),
            engine.preferences().num_packages()
        );
        prop_assert_eq!(
            restored.preferences().preferences(),
            engine.preferences().preferences()
        );
        // Pool: identical weights and importance weights, bit for bit.
        prop_assert_eq!(restored.pool(), engine.pool());
        // And therefore the identical next-round recommendation.  When no
        // click happened yet the pool may be empty; seed both resamples with
        // the same stream so they stay comparable.
        let mut rng_live = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA5A5);
        let mut rng_restored = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA5A5);
        prop_assert_eq!(
            engine.recommend(&mut rng_live).unwrap(),
            restored.recommend(&mut rng_restored).unwrap()
        );
    }
}

/// The catalog of the checked-in golden fixture (kept in code so the fixture
/// can be regenerated; the JSON on disk is the contract under test).
fn golden_fixture_engine() -> RecommenderEngine {
    let catalog = Catalog::from_rows(vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
        vec![0.3, 0.7],
        vec![0.5, 0.9],
    ])
    .unwrap();
    let mut engine = RecommenderEngine::builder(catalog.clone(), Profile::cost_quality())
        .max_package_size(2)
        .k(2)
        .num_random(2)
        .num_samples(20)
        .build()
        .unwrap();
    let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
    let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(20140901);
    for _ in 0..2 {
        let shown = engine.present(&mut rng).unwrap();
        let choice = user.choose(&catalog, &shown, &mut rng).unwrap();
        engine
            .record_feedback(&shown, Feedback::Click { index: choice }, &mut rng)
            .unwrap();
    }
    engine
}

const GOLDEN_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/session_snapshot_v1.json"
);

/// Wire-format compatibility gate: the checked-in `SNAPSHOT_VERSION` 1
/// snapshot must keep parsing, restoring and re-serialising losslessly.
/// A PR that changes the snapshot layout will fail here and must bump
/// `SNAPSHOT_VERSION` (plus provide a migration or a fresh fixture)
/// deliberately rather than silently.
///
/// Regenerate with
/// `UPDATE_SNAPSHOT_FIXTURE=1 cargo test -p pkgrec-integration-tests golden`.
#[test]
fn golden_snapshot_fixture_stays_restorable() {
    if std::env::var_os("UPDATE_SNAPSHOT_FIXTURE").is_some() {
        let snapshot = golden_fixture_engine().snapshot();
        let json = serde_json::to_string_pretty(&snapshot).unwrap();
        std::fs::write(GOLDEN_FIXTURE, json + "\n").unwrap();
    }
    let json = std::fs::read_to_string(GOLDEN_FIXTURE)
        .expect("golden fixture exists (regenerate with UPDATE_SNAPSHOT_FIXTURE=1)");
    let decoded: SessionSnapshot = serde_json::from_str(&json).expect("fixture parses");
    assert_eq!(decoded.version, SNAPSHOT_VERSION);
    assert_eq!(
        decoded.version, 1,
        "bumping SNAPSHOT_VERSION needs a new fixture"
    );
    assert_eq!(decoded.rounds, 2);
    assert_eq!(decoded.pool.len(), 20);
    assert!(!decoded.preferences.preferences().is_empty());

    let mut restored = RecommenderEngine::restore(decoded.clone()).expect("fixture restores");
    // The restored session re-serialises to the identical snapshot value,
    // byte for byte: nothing of the wire format was lost or reinterpreted.
    assert_eq!(restored.snapshot(), decoded);
    assert_eq!(
        serde_json::to_string_pretty(&restored.snapshot()).unwrap() + "\n",
        json
    );
    // And it keeps serving: the pool is non-empty, so the recommendation is
    // a pure function of the restored state.
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let recs = restored.recommend(&mut rng).unwrap();
    assert_eq!(recs.len(), decoded.config.k);
}

/// One `SessionConfig`, four sessions: the engine and every `BaselineSpec`
/// adapter hold the config's catalog allocation itself (no copy) and search
/// the one sorted-lists index built inside it.
#[test]
fn sessions_built_from_one_config_share_its_catalog_and_index() {
    use pkgrec_baselines::{BaselineSpec, BudgetConstraint, EmRefitConfig, FeatureDirection};
    use pkgrec_serve::{LiveSession, RecommenderSpec, SessionConfig};

    let catalog = std::sync::Arc::new(golden_fixture_engine().catalog().clone());
    let lists = catalog.sorted_lists();
    let specs = [
        RecommenderSpec::Engine(EngineConfig {
            k: 2,
            num_random: 2,
            num_samples: 20,
            ..EngineConfig::default()
        }),
        RecommenderSpec::Baseline(BaselineSpec::EmRefit(EmRefitConfig {
            k: 2,
            num_random: 2,
            num_samples: 20,
            samples_per_refit: 40,
            ..EmRefitConfig::default()
        })),
        RecommenderSpec::Baseline(BaselineSpec::HardConstraint {
            objective_feature: 1,
            budgets: vec![BudgetConstraint {
                feature: 0,
                max_value: 0.8,
            }],
            k: 2,
        }),
        RecommenderSpec::Baseline(BaselineSpec::Skyline {
            cardinality: 2,
            directions: vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
            k: 2,
        }),
    ];
    for spec in specs {
        let label = spec.label();
        let config = SessionConfig {
            catalog: catalog.clone(),
            profile: Profile::cost_quality(),
            max_package_size: 2,
            spec,
            seed: 3,
        };
        let mut live = config.build().unwrap();
        live.recommender()
            .present(&mut rand::rngs::StdRng::seed_from_u64(3))
            .unwrap();
        let held = live.inspect().catalog();
        assert!(std::ptr::eq(held, &*catalog), "{label} copied the catalog");
        assert!(std::ptr::eq(held.sorted_lists(), lists), "{label}");
        if let LiveSession::Engine(engine) = &live {
            assert!(std::ptr::eq(engine.sorted_lists(), lists));
        }
    }
}

/// Documented behaviour (ROADMAP, `snapshot` module docs): the scoring
/// thread budget is a process property, not session state — snapshots do
/// not capture it, `restore()` resumes serial, and `set_num_threads`
/// re-raises it with bit-identical results.
#[test]
fn num_threads_resumes_serial_and_is_reraisable_after_restore() {
    let catalog = Catalog::from_rows(vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
        vec![0.3, 0.7],
    ])
    .unwrap();
    let mut engine = RecommenderEngine::builder(catalog.clone(), Profile::cost_quality())
        .max_package_size(2)
        .k(2)
        .num_random(2)
        .num_samples(25)
        .num_threads(3)
        .build()
        .unwrap();
    assert_eq!(engine.num_threads(), 3);
    let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
    let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let shown = engine.present(&mut rng).unwrap();
    let choice = user.choose(&catalog, &shown, &mut rng).unwrap();
    engine
        .record_feedback(&shown, Feedback::Click { index: choice }, &mut rng)
        .unwrap();

    let mut restored = RecommenderEngine::restore(engine.snapshot()).unwrap();
    // Restore always resumes serial — the knob is not session state.
    assert_eq!(restored.num_threads(), 1);
    // Re-raising it succeeds and leaves results bit-identical to the live,
    // threaded engine.
    restored.set_num_threads(3).unwrap();
    assert_eq!(restored.num_threads(), 3);
    let mut rng_live = rand::rngs::StdRng::seed_from_u64(11);
    let mut rng_restored = rand::rngs::StdRng::seed_from_u64(11);
    assert_eq!(
        engine.recommend(&mut rng_live).unwrap(),
        restored.recommend(&mut rng_restored).unwrap()
    );
    // The knob itself survives further snapshot cycles of the same engine
    // object (snapshotting does not reset the live engine).
    let _ = restored.snapshot();
    assert_eq!(restored.num_threads(), 3);
}
