//! Serialisable session snapshots: persist and resume an elicitation session.
//!
//! A [`SessionSnapshot`] captures everything the engine cannot rebuild
//! deterministically from configuration — the preference DAG and the current
//! weight-sample pool — together with the configuration itself (catalog,
//! profile, φ, [`EngineConfig`]), whose derived state (aggregation context,
//! Gaussian-mixture prior) is reconstructed on restore.  Snapshots are plain
//! serde values, so a session can be written to JSON, shipped to another
//! process (the state-externalisation move serving layers need for sharding
//! and migration) and resumed *bit-identically*: a restored engine holds the
//! same pool and preferences, so its next recommendation equals the one the
//! uninterrupted session would have produced.
//!
//! RNG state is deliberately not captured: all prior parameters stored are
//! RNG-independent, and callers own their random streams.  The scoring-thread
//! budget ([`RecommenderEngine::num_threads`]) is likewise not captured — it
//! is a property of the process serving the session, not of the session, so
//! restored engines resume serial until
//! [`RecommenderEngine::set_num_threads`] is called.  Derived state is not
//! captured either: the catalog's sorted lists and the engine's per-slot
//! [`DiscoveryMemo`](crate::recommender::DiscoveryMemo) are rebuilt on use,
//! so a restored engine's first discovery searches every pool slot.
//!
//! The sample pool serialises in its original row-oriented shape
//! (`{"samples": [{"weights": …, "importance": …}]}`) even though it is
//! stored columnar in memory, so the snapshot layout survived the columnar
//! refactor unchanged and [`SNAPSHOT_VERSION`] did not need to move.

use std::sync::Arc;

use pkgrec_gmm::GaussianMixture;
use serde::{Deserialize, Serialize};

use crate::engine::{EngineConfig, RecommenderEngine};
use crate::error::{CoreError, Result};
use crate::item::Catalog;
use crate::preferences::PreferenceStore;
use crate::profile::{AggregationContext, Profile};
use crate::sampler::SamplePool;

/// Version tag written into every snapshot; [`RecommenderEngine::restore`]
/// rejects snapshots from a different layout generation.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A complete, serialisable image of one recommender session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// Snapshot layout version (see [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The engine configuration (k, samplers, semantics, prior parameters).
    pub config: EngineConfig,
    /// The aggregate feature profile.
    pub profile: Profile,
    /// The maximum package size φ.
    pub max_package_size: usize,
    /// The item catalog the session recommends from, shared with the engine
    /// it was taken from (and with the one it restores into).
    pub catalog: Arc<Catalog>,
    /// The preference DAG accumulated from feedback.
    pub preferences: PreferenceStore,
    /// The weight-sample pool at snapshot time.
    pub pool: SamplePool,
    /// Number of feedback rounds recorded before the snapshot.
    pub rounds: usize,
}

impl RecommenderEngine {
    /// Captures the session as a serialisable [`SessionSnapshot`].
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config().clone(),
            profile: self.context().profile().clone(),
            max_package_size: self.context().max_package_size(),
            catalog: Arc::clone(self.catalog_handle()),
            preferences: self.preferences().clone(),
            pool: self.pool().clone(),
            rounds: self.rounds(),
        }
    }

    /// Rebuilds an engine from a snapshot.
    ///
    /// The aggregation context and the prior are reconstructed
    /// deterministically from the stored configuration, so a restored session
    /// recommends exactly what the uninterrupted session would have: the
    /// recommendation is a pure function of the (restored) pool, preferences
    /// and configuration.
    pub fn restore(snapshot: SessionSnapshot) -> Result<Self> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(CoreError::InvalidConfig(format!(
                "unsupported session snapshot version {} (expected {})",
                snapshot.version, SNAPSHOT_VERSION
            )));
        }
        snapshot.config.validate()?;
        let space =
            crate::package::package_space_size(snapshot.catalog.len(), snapshot.max_package_size);
        if snapshot.config.k as u128 > space {
            return Err(CoreError::InvalidConfig(format!(
                "k = {} exceeds the {} distinct packages of size at most {} over {} items",
                snapshot.config.k,
                space,
                snapshot.max_package_size,
                snapshot.catalog.len()
            )));
        }
        let context = AggregationContext::new(
            snapshot.profile,
            &snapshot.catalog,
            snapshot.max_package_size,
        )?;
        // The pool is rectangular by construction (flat storage enforces one
        // shared dimensionality), so a single check covers every sample.
        if !snapshot.pool.is_empty() && snapshot.pool.dim() != context.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: context.dim(),
                actual: snapshot.pool.dim(),
            });
        }
        for preference in snapshot.preferences.preferences() {
            for vector in [&preference.better, &preference.worse] {
                if vector.len() != context.dim() {
                    return Err(CoreError::DimensionMismatch {
                        expected: context.dim(),
                        actual: vector.len(),
                    });
                }
            }
        }
        let prior = GaussianMixture::default_prior(
            context.dim(),
            snapshot.config.prior_components,
            snapshot.config.prior_sigma,
        )?;
        Ok(RecommenderEngine::assemble(
            snapshot.catalog,
            context,
            prior,
            snapshot.preferences,
            snapshot.pool,
            snapshot.config,
            snapshot.rounds,
            1,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::recommender::Feedback;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> RecommenderEngine {
        let catalog = Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
            vec![0.5, 0.9],
        ])
        .unwrap();
        RecommenderEngine::builder(catalog, Profile::cost_quality())
            .max_package_size(2)
            .k(2)
            .num_random(2)
            .num_samples(25)
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_captures_and_restore_rebuilds_the_session() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut engine = engine();
        let shown = engine.present(&mut rng).unwrap();
        engine
            .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
            .unwrap();

        let snapshot = engine.snapshot();
        assert_eq!(snapshot.version, SNAPSHOT_VERSION);
        assert_eq!(snapshot.rounds, 1);
        assert_eq!(snapshot.pool.len(), engine.pool().len());

        let mut restored = RecommenderEngine::restore(snapshot.clone()).unwrap();
        assert_eq!(restored.rounds(), engine.rounds());
        assert_eq!(restored.preferences().len(), engine.preferences().len());
        assert_eq!(restored.pool(), engine.pool());
        // The restored engine's next recommendation is bit-identical (pure
        // function of pool + preferences + config; the pool is non-empty so no
        // RNG is consumed).
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        assert_eq!(
            engine.recommend(&mut rng_a).unwrap(),
            restored.recommend(&mut rng_b).unwrap()
        );
        // And snapshotting the restored session reproduces the snapshot.
        assert_eq!(restored.snapshot(), snapshot);
    }

    #[test]
    fn restore_rejects_foreign_versions_and_corrupt_pools() {
        let engine = engine();
        let mut snapshot = engine.snapshot();
        snapshot.version = 99;
        assert!(matches!(
            RecommenderEngine::restore(snapshot),
            Err(CoreError::InvalidConfig(_))
        ));

        // A pool cannot even hold mixed dimensionalities any more (flat
        // storage rejects the push), so the corrupt case is a uniformly
        // wrong-dimensional pool — caught against the catalog on restore.
        let mut snapshot = engine.snapshot();
        snapshot.pool = crate::sampler::SamplePool::from_samples(vec![
            crate::sampler::WeightSample::unweighted(vec![0.0; 7]),
        ]);
        assert!(matches!(
            RecommenderEngine::restore(snapshot),
            Err(CoreError::DimensionMismatch { .. })
        ));

        let mut snapshot = engine.snapshot();
        snapshot.config.prior_sigma = -1.0;
        assert!(matches!(
            RecommenderEngine::restore(snapshot),
            Err(CoreError::InvalidConfig(_))
        ));

        // Hand-built snapshots (the state-injection seam) are checked against
        // the same catalog-dependent invariants as the builder.
        let mut snapshot = engine.snapshot();
        snapshot.config.k = 10_000;
        assert!(matches!(
            RecommenderEngine::restore(snapshot),
            Err(CoreError::InvalidConfig(_))
        ));

        let mut snapshot = engine.snapshot();
        snapshot
            .preferences
            .add("x".into(), &[0.1, 0.2, 0.3], "y".into(), &[0.4, 0.5, 0.6])
            .unwrap();
        assert!(matches!(
            RecommenderEngine::restore(snapshot),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }
}
