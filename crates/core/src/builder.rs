//! Fluent, validating construction of [`RecommenderEngine`]s.
//!
//! The builder subsumes raw [`EngineConfig`] struct literals and centralises
//! every configuration check that used to surface as a panic or silent
//! degeneracy deep inside sampling: a non-positive `prior_sigma`, a hybrid
//! maintenance `gamma` outside `(0, 1)`, a `k` of zero or one exceeding the
//! package space of the catalog, and so on.  Each defect is reported as a
//! distinct [`CoreError::InvalidConfig`](crate::error::CoreError) message.
//!
//! ```
//! use pkgrec_core::prelude::*;
//!
//! let catalog = Catalog::from_rows(vec![
//!     vec![0.6, 0.2],
//!     vec![0.4, 0.4],
//!     vec![0.2, 0.4],
//! ]).unwrap();
//! let engine = RecommenderEngine::builder(catalog, Profile::cost_quality())
//!     .max_package_size(2)
//!     .k(2)
//!     .num_random(2)
//!     .semantics(RankingSemantics::Exp)
//!     .sampler(SamplerKind::mcmc())
//!     .build()
//!     .unwrap();
//! assert_eq!(engine.context().max_package_size(), 2);
//! ```

use std::sync::Arc;

use pkgrec_gmm::GaussianMixture;

use crate::engine::{EngineConfig, RecommenderEngine};
use crate::error::{CoreError, Result};
use crate::item::Catalog;
use crate::maintenance::MaintenanceStrategy;
use crate::package::package_space_size;
use crate::preferences::PreferenceStore;
use crate::profile::{AggregationContext, Profile};
use crate::ranking::RankingSemantics;
use crate::sampler::{SamplePool, SamplerKind};

/// Default maximum package size φ when [`EngineBuilder::max_package_size`] is
/// not called (the paper's experiments use packages of up to five items).
pub const DEFAULT_MAX_PACKAGE_SIZE: usize = 5;

/// Upper bound on the scoring-thread budget accepted by
/// [`EngineBuilder::num_threads`]; far above any sensible machine, it exists
/// to catch garbage values (e.g. an uninitialised config field) early.
pub const MAX_NUM_THREADS: usize = 256;

/// Validates a scoring-thread budget (shared by the builder and
/// [`RecommenderEngine::set_num_threads`]).
pub fn validate_num_threads(num_threads: usize) -> Result<()> {
    if num_threads == 0 || num_threads > MAX_NUM_THREADS {
        return Err(CoreError::InvalidConfig(format!(
            "num_threads must lie in 1..={MAX_NUM_THREADS}, got {num_threads}"
        )));
    }
    Ok(())
}

/// Fluent builder for [`RecommenderEngine`], created by
/// [`RecommenderEngine::builder`].
///
/// Every setter returns the builder; [`EngineBuilder::build`] validates the
/// accumulated configuration against the catalog and constructs the engine.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    catalog: Arc<Catalog>,
    profile: Profile,
    max_package_size: usize,
    config: EngineConfig,
    num_threads: usize,
}

impl EngineBuilder {
    pub(crate) fn new(catalog: Arc<Catalog>, profile: Profile) -> Self {
        EngineBuilder {
            catalog,
            profile,
            max_package_size: DEFAULT_MAX_PACKAGE_SIZE,
            config: EngineConfig::default(),
            num_threads: 1,
        }
    }

    /// Sets the maximum package size φ (default 5).
    pub fn max_package_size(mut self, phi: usize) -> Self {
        self.max_package_size = phi;
        self
    }

    /// Sets the number of packages recommended per round.
    pub fn k(mut self, k: usize) -> Self {
        self.config.k = k;
        self
    }

    /// Sets the number of random exploration packages presented per round.
    pub fn num_random(mut self, num_random: usize) -> Self {
        self.config.num_random = num_random;
        self
    }

    /// Sets the number of weight-vector samples maintained in the pool.
    pub fn num_samples(mut self, num_samples: usize) -> Self {
        self.config.num_samples = num_samples;
        self
    }

    /// Sets the ranking semantics used to aggregate per-sample results.
    pub fn semantics(mut self, semantics: RankingSemantics) -> Self {
        self.config.semantics = semantics;
        self
    }

    /// Sets the constrained sampling strategy.
    pub fn sampler(mut self, sampler: SamplerKind) -> Self {
        self.config.sampler = sampler;
        self
    }

    /// Sets the sample-pool maintenance strategy.
    pub fn maintenance(mut self, maintenance: MaintenanceStrategy) -> Self {
        self.config.maintenance = maintenance;
        self
    }

    /// Sets the shape of the Gaussian-mixture prior: `components` isotropic
    /// Gaussians of standard deviation `sigma`.
    pub fn prior(mut self, components: usize, sigma: f64) -> Self {
        self.config.prior_components = components;
        self.config.prior_sigma = sigma;
        self
    }

    /// Sets the number of OS threads the scoring stack may use (default 1 —
    /// fully serial).  The per-sample candidate searches and the batched
    /// scoring kernel ([`crate::scoring::score_batch_threaded`]) split their
    /// work across `num_threads` scoped threads; results are identical to the
    /// serial path.  Validated by [`validate_num_threads`] at build time.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Replaces the accumulated configuration wholesale (escape hatch for
    /// callers that already hold an [`EngineConfig`]).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Validates the configuration against the catalog and constructs the
    /// engine.
    ///
    /// Beyond [`EngineConfig::validate`], this rejects a zero `φ`, a profile
    /// whose dimensionality disagrees with the catalog, and a `k` larger than
    /// the number of distinct packages of size at most `φ` — a request that
    /// previously degenerated silently inside the per-sample search.
    pub fn build(self) -> Result<RecommenderEngine> {
        self.config.validate()?;
        validate_num_threads(self.num_threads)?;
        if self.max_package_size == 0 {
            return Err(CoreError::InvalidConfig(
                "maximum package size must be at least 1".into(),
            ));
        }
        let space = package_space_size(self.catalog.len(), self.max_package_size);
        if self.config.k as u128 > space {
            return Err(CoreError::InvalidConfig(format!(
                "k = {} exceeds the {} distinct packages of size at most {} over {} items",
                self.config.k,
                space,
                self.max_package_size,
                self.catalog.len()
            )));
        }
        let context = AggregationContext::new(self.profile, &self.catalog, self.max_package_size)?;
        let prior = GaussianMixture::default_prior(
            context.dim(),
            self.config.prior_components,
            self.config.prior_sigma,
        )?;
        Ok(RecommenderEngine::assemble(
            self.catalog,
            context,
            prior,
            PreferenceStore::new(),
            SamplePool::new(),
            self.config,
            0,
            self.num_threads,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recommender::Recommender;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
        ])
        .unwrap()
    }

    fn builder() -> EngineBuilder {
        RecommenderEngine::builder(catalog(), Profile::cost_quality()).max_package_size(2)
    }

    fn invalid_message(result: Result<RecommenderEngine>) -> String {
        match result {
            Err(CoreError::InvalidConfig(msg)) => msg,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fluent_build_produces_a_working_engine() {
        let mut engine = builder()
            .k(2)
            .num_random(2)
            .num_samples(30)
            .semantics(RankingSemantics::Exp)
            .sampler(SamplerKind::mcmc())
            .maintenance(MaintenanceStrategy::Hybrid { gamma: 0.05 })
            .prior(2, 0.4)
            .build()
            .unwrap();
        assert_eq!(engine.config().k, 2);
        assert_eq!(engine.config().prior_components, 2);
        assert_eq!(engine.prior().num_components(), 2);
        let mut rng = StdRng::seed_from_u64(11);
        let recs = engine.recommend(&mut rng).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(engine.state().k, 2);
    }

    #[test]
    fn zero_k_is_rejected() {
        let msg = invalid_message(builder().k(0).build());
        assert!(msg.contains("k must be at least 1"), "{msg}");
    }

    #[test]
    fn zero_num_samples_is_rejected() {
        let msg = invalid_message(builder().num_samples(0).build());
        assert!(msg.contains("num_samples must be at least 1"), "{msg}");
    }

    #[test]
    fn non_positive_or_non_finite_prior_sigma_is_rejected() {
        for sigma in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let msg = invalid_message(builder().prior(1, sigma).build());
            assert!(msg.contains("prior_sigma must be positive"), "{msg}");
        }
    }

    #[test]
    fn zero_prior_components_is_rejected() {
        let msg = invalid_message(builder().prior(0, 0.5).build());
        assert!(msg.contains("prior_components must be at least 1"), "{msg}");
    }

    #[test]
    fn hybrid_gamma_outside_unit_interval_is_rejected() {
        for gamma in [0.0, -0.1, 1.0, 1.5, f64::NAN] {
            let msg = invalid_message(
                builder()
                    .maintenance(MaintenanceStrategy::Hybrid { gamma })
                    .build(),
            );
            assert!(msg.contains("gamma must lie in the open interval"), "{msg}");
        }
        // The boundary-exclusive check still admits interior values.
        assert!(builder()
            .maintenance(MaintenanceStrategy::Hybrid { gamma: 0.025 })
            .build()
            .is_ok());
    }

    #[test]
    fn num_threads_outside_the_valid_range_is_rejected() {
        for bad in [0, MAX_NUM_THREADS + 1] {
            let msg = invalid_message(builder().num_threads(bad).build());
            assert!(msg.contains("num_threads must lie in"), "{msg}");
        }
        let engine = builder().num_threads(4).build().unwrap();
        assert_eq!(engine.num_threads(), 4);
        assert_eq!(builder().build().unwrap().num_threads(), 1);
    }

    #[test]
    fn zero_max_package_size_is_rejected() {
        let msg = invalid_message(builder().max_package_size(0).build());
        assert!(
            msg.contains("maximum package size must be at least 1"),
            "{msg}"
        );
    }

    #[test]
    fn k_beyond_the_package_space_is_rejected() {
        // 4 items, φ = 1 → exactly 4 distinct packages.
        let msg = invalid_message(builder().max_package_size(1).k(5).build());
        assert!(msg.contains("exceeds the 4 distinct packages"), "{msg}");
        assert!(builder().max_package_size(1).k(4).build().is_ok());
    }

    #[test]
    fn profile_dimension_mismatch_is_rejected() {
        let result = RecommenderEngine::builder(catalog(), Profile::all_sum(3))
            .max_package_size(2)
            .build();
        assert!(matches!(result, Err(CoreError::DimensionMismatch { .. })));
    }

    #[test]
    fn config_escape_hatch_is_validated_too() {
        let raw = EngineConfig {
            prior_sigma: -1.0,
            ..EngineConfig::default()
        };
        let msg = invalid_message(builder().config(raw).build());
        assert!(msg.contains("prior_sigma"), "{msg}");
    }
}
