//! Session adapters: every baseline as a drop-in [`Recommender`] comparator.
//!
//! The paper's experiments compare the elicitation engine against the
//! EM-refit, hard-constraint and skyline baselines *round for round*, so each
//! baseline is wrapped in a session type implementing
//! [`pkgrec_core::recommender::Recommender`].  Any driver that takes
//! `&mut dyn Recommender` — [`pkgrec_core::elicitation::run_elicitation`],
//! the Figure 8 harness, an interactive frontend — can then swap the engine
//! for a baseline without touching its loop:
//!
//! * [`EmRefitSession`] — learns from feedback by refitting its
//!   Gaussian-mixture belief with EM after every round (the Section 2.1
//!   "expensive alternative", wrapping [`EmRefitRecommender`]),
//! * [`HardConstraintSession`] — recommends the budget-constrained optima of
//!   one aggregate feature; it ignores feedback, which is exactly the
//!   criticism the introduction levels at it,
//! * [`SkylineSession`] — presents Pareto-optimal packages of a fixed
//!   cardinality; it also ignores feedback.
//!
//! Every adapter holds its catalog behind an `Arc`: sessions built from one
//! interned catalog share its rows and its sorted-lists index.

use std::sync::Arc;

use pkgrec_core::ranking::{aggregate, RankedPackage, RankingSemantics};
use pkgrec_core::recommender::{
    extend_with_random_packages, DiscoveryMemo, Feedback, Recommender, RecommenderState,
};
use pkgrec_core::sampler::SamplePool;
use pkgrec_core::{
    AggregatedSearchStats, AggregationContext, Catalog, CoreError, Package, Preference, Profile,
    Result,
};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::em_refit::{EmRefitRecommender, EmRefitStats};
use crate::hard_constraint::{hard_constraint_top_k, BudgetConstraint};
use crate::skyline::{skyline_packages, FeatureDirection};

/// Configuration of an [`EmRefitSession`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmRefitConfig {
    /// Number of packages recommended per round.
    pub k: usize,
    /// Number of random exploration packages presented per round.
    pub num_random: usize,
    /// Number of belief samples used to rank packages each round.
    pub num_samples: usize,
    /// Number of Gaussians in the belief mixture.
    pub components: usize,
    /// Standard deviation of the uninformative prior components.
    pub prior_sigma: f64,
    /// Constrained samples drawn to feed every EM refit.
    pub samples_per_refit: usize,
    /// Ranking semantics used to aggregate per-sample results.
    pub semantics: RankingSemantics,
}

impl Default for EmRefitConfig {
    fn default() -> Self {
        EmRefitConfig {
            k: 5,
            num_random: 5,
            num_samples: 100,
            components: 1,
            prior_sigma: 0.5,
            samples_per_refit: 200,
            semantics: RankingSemantics::Exp,
        }
    }
}

/// The EM-refit baseline as an interactive session: after every feedback
/// round the Gaussian-mixture belief is refit with EM (see
/// [`EmRefitRecommender`]), then packages are ranked from fresh belief
/// samples.
#[derive(Debug, Clone)]
pub struct EmRefitSession {
    catalog: Arc<Catalog>,
    context: AggregationContext,
    inner: EmRefitRecommender,
    config: EmRefitConfig,
    pool: SamplePool,
    /// Per-slot `Top-k-Pkg` results, so ranking the same pool again (a
    /// `recommend` after a `present`) searches nothing.  Derived state.
    memo: DiscoveryMemo,
    preferences: usize,
    rounds: usize,
    search_stats: AggregatedSearchStats,
}

impl EmRefitSession {
    /// Creates the session over a catalog with the given profile and maximum
    /// package size φ.
    pub fn new(
        catalog: impl Into<Arc<Catalog>>,
        profile: Profile,
        max_package_size: usize,
        config: EmRefitConfig,
    ) -> Result<Self> {
        let catalog = catalog.into();
        if config.k == 0 {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        if config.num_samples == 0 {
            return Err(CoreError::InvalidConfig(
                "num_samples must be at least 1".into(),
            ));
        }
        let context = AggregationContext::new(profile, &catalog, max_package_size)?;
        let inner = EmRefitRecommender::new(
            context.dim(),
            config.components,
            config.prior_sigma,
            config.samples_per_refit,
        )?;
        Ok(EmRefitSession {
            catalog,
            context,
            inner,
            config,
            pool: SamplePool::new(),
            memo: DiscoveryMemo::new(),
            preferences: 0,
            rounds: 0,
            search_stats: AggregatedSearchStats::default(),
        })
    }

    /// The wrapped EM-refit recommender.
    pub fn inner(&self) -> &EmRefitRecommender {
        &self.inner
    }

    /// Cumulative refit cost statistics.
    pub fn stats(&self) -> &EmRefitStats {
        self.inner.stats()
    }

    /// The belief samples the current round is ranked under (empty until
    /// the first `present` or `recommend`, and again after every refit).
    pub fn pool(&self) -> &SamplePool {
        &self.pool
    }

    fn ensure_pool(&mut self, rng: &mut dyn RngCore) {
        if self.pool.is_empty() {
            self.pool = self.inner.sample_pool(self.config.num_samples, rng);
        }
    }

    fn rank_pool(&mut self) -> Result<Vec<RankedPackage>> {
        let (rankings, stats) = self.memo.per_sample_rankings(
            &self.context,
            &self.catalog,
            &self.pool,
            self.config.semantics.per_sample_depth(self.config.k),
            1,
        )?;
        self.search_stats.merge(&stats);
        Ok(aggregate(self.config.semantics, &rankings, self.config.k))
    }

    fn preferences_from(&self, shown: &[Package], feedback: Feedback) -> Result<Vec<Preference>> {
        feedback.validate(shown)?;
        match feedback {
            Feedback::Click { index } => {
                let clicked = &shown[index];
                let clicked_vector = self.context.package_vector(&self.catalog, clicked)?;
                let mut prefs = Vec::new();
                for other in shown {
                    if other == clicked {
                        continue;
                    }
                    let other_vector = self.context.package_vector(&self.catalog, other)?;
                    prefs.push(Preference::new(clicked_vector.clone(), other_vector));
                }
                Ok(prefs)
            }
            Feedback::Pairwise { preferred, over } => {
                let better = self
                    .context
                    .package_vector(&self.catalog, &shown[preferred])?;
                let worse = self.context.package_vector(&self.catalog, &shown[over])?;
                Ok(vec![Preference::new(better, worse)])
            }
            Feedback::Skip => Ok(Vec::new()),
        }
    }
}

impl Recommender for EmRefitSession {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn present(&mut self, rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        let mut shown: Vec<Package> = self
            .recommend(rng)?
            .into_iter()
            .map(|r| r.package)
            .collect();
        extend_with_random_packages(
            &mut shown,
            self.config.k + self.config.num_random,
            self.catalog.len(),
            self.context.max_package_size(),
            rng,
        );
        Ok(shown)
    }

    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        let prefs = self.preferences_from(shown, feedback)?;
        let mut absorbed = 0usize;
        if !prefs.is_empty() {
            match self.inner.absorb_feedback(&prefs, rng) {
                Ok(()) => {
                    absorbed = prefs.len();
                    self.preferences += absorbed;
                    self.pool = SamplePool::new();
                }
                // The refit's rejection sampler can run dry when feedback is
                // contradictory under the current belief; the baseline then
                // keeps its belief for this round (nothing absorbed) rather
                // than aborting the session.
                Err(CoreError::SamplingExhausted { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.rounds += 1;
        Ok(absorbed)
    }

    fn recommend(&mut self, rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        self.ensure_pool(rng);
        self.rank_pool()
    }

    fn state(&self) -> RecommenderState {
        RecommenderState {
            label: "em-refit".to_string(),
            k: self.config.k,
            preferences: self.preferences,
            pool_size: self.pool.len(),
            rounds: self.rounds,
            search: self.search_stats,
        }
    }
}

/// The hard-constraint baseline (RecSys 2010 style) as a session: optimise
/// one aggregate feature subject to budgets on others.  Feedback is ignored —
/// the recommendation never adapts, which is the behaviour the paper's
/// introduction criticises.
#[derive(Debug, Clone)]
pub struct HardConstraintSession {
    catalog: Arc<Catalog>,
    context: AggregationContext,
    objective_feature: usize,
    budgets: Vec<BudgetConstraint>,
    k: usize,
    cached: Option<Vec<RankedPackage>>,
    rounds: usize,
}

impl HardConstraintSession {
    /// Creates the session: maximise `objective_feature` subject to `budgets`.
    pub fn new(
        catalog: impl Into<Arc<Catalog>>,
        profile: Profile,
        max_package_size: usize,
        objective_feature: usize,
        budgets: Vec<BudgetConstraint>,
        k: usize,
    ) -> Result<Self> {
        let catalog = catalog.into();
        if k == 0 {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        let context = AggregationContext::new(profile, &catalog, max_package_size)?;
        if objective_feature >= context.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: context.dim(),
                actual: objective_feature,
            });
        }
        for b in &budgets {
            if b.feature >= context.dim() {
                return Err(CoreError::DimensionMismatch {
                    expected: context.dim(),
                    actual: b.feature,
                });
            }
        }
        Ok(HardConstraintSession {
            catalog,
            context,
            objective_feature,
            budgets,
            k,
            cached: None,
            rounds: 0,
        })
    }

    fn top(&mut self) -> Result<Vec<RankedPackage>> {
        if self.cached.is_none() {
            let (top, _feasible) = hard_constraint_top_k(
                &self.context,
                &self.catalog,
                self.objective_feature,
                &self.budgets,
                self.k,
            )?;
            self.cached = Some(
                top.into_iter()
                    .map(|(package, score)| RankedPackage { package, score })
                    .collect(),
            );
        }
        Ok(self.cached.clone().expect("cache was just filled"))
    }
}

impl Recommender for HardConstraintSession {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn present(&mut self, _rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        Ok(self.top()?.into_iter().map(|r| r.package).collect())
    }

    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        _rng: &mut dyn RngCore,
    ) -> Result<usize> {
        // Validate the feedback so misuse is caught identically to every
        // other recommender, then drop it: this baseline cannot learn.
        feedback.validate(shown)?;
        self.rounds += 1;
        Ok(0)
    }

    fn recommend(&mut self, _rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        self.top()
    }

    fn state(&self) -> RecommenderState {
        RecommenderState {
            label: "hard-constraint".to_string(),
            k: self.k,
            preferences: 0,
            pool_size: 0,
            rounds: self.rounds,
            search: AggregatedSearchStats::default(),
        }
    }
}

/// The skyline baseline as a session: recommend Pareto-optimal packages of a
/// fixed cardinality.  Like the hard-constraint baseline it ignores feedback;
/// its `k` recommendations are the skyline entries with the best
/// direction-oriented mean feature value (a neutral scalarisation used only
/// to pick which of the many skyline packages to present).
#[derive(Debug, Clone)]
pub struct SkylineSession {
    catalog: Arc<Catalog>,
    context: AggregationContext,
    cardinality: usize,
    directions: Vec<FeatureDirection>,
    k: usize,
    cached: Option<Vec<RankedPackage>>,
    rounds: usize,
}

impl SkylineSession {
    /// Creates the session over packages of exactly `cardinality` items.
    pub fn new(
        catalog: impl Into<Arc<Catalog>>,
        profile: Profile,
        max_package_size: usize,
        cardinality: usize,
        directions: Vec<FeatureDirection>,
        k: usize,
    ) -> Result<Self> {
        let catalog = catalog.into();
        if k == 0 {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        if cardinality == 0 || cardinality > max_package_size {
            return Err(CoreError::InvalidConfig(format!(
                "skyline cardinality must lie in 1..={max_package_size}, got {cardinality}"
            )));
        }
        let context = AggregationContext::new(profile, &catalog, max_package_size)?;
        if directions.len() != context.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: context.dim(),
                actual: directions.len(),
            });
        }
        Ok(SkylineSession {
            catalog,
            context,
            cardinality,
            directions,
            k,
            cached: None,
            rounds: 0,
        })
    }

    fn top(&mut self) -> Result<Vec<RankedPackage>> {
        if self.cached.is_none() {
            let (entries, _stats) = skyline_packages(
                &self.context,
                &self.catalog,
                self.cardinality,
                &self.directions,
            )?;
            let mut ranked: Vec<RankedPackage> = entries
                .into_iter()
                .map(|(package, vector)| {
                    let oriented: f64 = vector
                        .iter()
                        .zip(self.directions.iter())
                        .map(|(v, d)| match d {
                            FeatureDirection::Maximize => *v,
                            FeatureDirection::Minimize => -*v,
                        })
                        .sum();
                    RankedPackage {
                        package,
                        score: oriented / self.directions.len() as f64,
                    }
                })
                .collect();
            ranked.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.package.cmp(&b.package))
            });
            ranked.truncate(self.k);
            self.cached = Some(ranked);
        }
        Ok(self.cached.clone().expect("cache was just filled"))
    }
}

impl Recommender for SkylineSession {
    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn present(&mut self, _rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        Ok(self.top()?.into_iter().map(|r| r.package).collect())
    }

    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        _rng: &mut dyn RngCore,
    ) -> Result<usize> {
        feedback.validate(shown)?;
        self.rounds += 1;
        Ok(0)
    }

    fn recommend(&mut self, _rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        self.top()
    }

    fn state(&self) -> RecommenderState {
        RecommenderState {
            label: "skyline".to_string(),
            k: self.k,
            preferences: 0,
            pool_size: 0,
            rounds: self.rounds,
            search: AggregatedSearchStats::default(),
        }
    }
}

/// A serialisable recipe for constructing a baseline session — the
/// store-constructible factory consumed by the serving layer (`pkgrec-serve`).
///
/// Each variant carries exactly the catalog-independent parameters of the
/// matching adapter constructor; [`BaselineSpec::build`] combines them with a
/// catalog, a profile and φ into a boxed [`Recommender`], so a session store
/// can persist the spec (it is plain serde data) and rebuild the session on
/// demand — e.g. when replaying a session journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BaselineSpec {
    /// An [`EmRefitSession`] with the given configuration.
    EmRefit(EmRefitConfig),
    /// A [`HardConstraintSession`]: maximise one feature subject to budgets.
    HardConstraint {
        /// Index of the aggregate feature to maximise.
        objective_feature: usize,
        /// Upper bounds on other aggregate features.
        budgets: Vec<BudgetConstraint>,
        /// Number of packages recommended per round.
        k: usize,
    },
    /// A [`SkylineSession`] over packages of a fixed cardinality.
    Skyline {
        /// Exact number of items per presented package.
        cardinality: usize,
        /// Optimisation direction per aggregate feature.
        directions: Vec<FeatureDirection>,
        /// Number of packages recommended per round.
        k: usize,
    },
}

impl BaselineSpec {
    /// The session label this spec builds (matches
    /// [`RecommenderState::label`]).
    pub fn label(&self) -> &'static str {
        match self {
            BaselineSpec::EmRefit(_) => "em-refit",
            BaselineSpec::HardConstraint { .. } => "hard-constraint",
            BaselineSpec::Skyline { .. } => "skyline",
        }
    }

    /// Constructs the session over a catalog: the factory behind
    /// [`pkgrec_core::recommender::Recommender`]-typed session stores.  The
    /// box is `Send` so stores can move sessions across shard threads.
    pub fn build(
        &self,
        catalog: impl Into<Arc<Catalog>>,
        profile: Profile,
        max_package_size: usize,
    ) -> Result<Box<dyn Recommender + Send>> {
        let catalog = catalog.into();
        Ok(match self {
            BaselineSpec::EmRefit(config) => Box::new(EmRefitSession::new(
                catalog,
                profile,
                max_package_size,
                config.clone(),
            )?),
            BaselineSpec::HardConstraint {
                objective_feature,
                budgets,
                k,
            } => Box::new(HardConstraintSession::new(
                catalog,
                profile,
                max_package_size,
                *objective_feature,
                budgets.clone(),
                *k,
            )?),
            BaselineSpec::Skyline {
                cardinality,
                directions,
                k,
            } => Box::new(SkylineSession::new(
                catalog,
                profile,
                max_package_size,
                *cardinality,
                directions.clone(),
                *k,
            )?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_core::elicitation::{run_elicitation, ElicitationConfig, SimulatedUser};
    use pkgrec_core::LinearUtility;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
            vec![0.1, 0.3],
            vec![0.5, 0.9],
        ])
        .unwrap()
    }

    fn hidden_user(weights: Vec<f64>) -> SimulatedUser {
        let context = AggregationContext::new(Profile::cost_quality(), &catalog(), 2).unwrap();
        SimulatedUser::new(LinearUtility::new(context, weights).unwrap())
    }

    fn fast_em_config() -> EmRefitConfig {
        EmRefitConfig {
            k: 2,
            num_random: 2,
            num_samples: 40,
            samples_per_refit: 80,
            ..EmRefitConfig::default()
        }
    }

    #[test]
    fn em_refit_session_learns_through_the_generic_loop() {
        let mut rng = StdRng::seed_from_u64(51);
        let mut session =
            EmRefitSession::new(catalog(), Profile::cost_quality(), 2, fast_em_config()).unwrap();
        let user = hidden_user(vec![-0.7, 0.6]);
        let report = run_elicitation(
            &mut session,
            &user,
            ElicitationConfig {
                max_rounds: 6,
                stable_rounds: 2,
            },
            &mut rng,
        )
        .unwrap();
        assert!(report.clicks >= 1);
        assert_eq!(report.final_top_k.len(), 2);
        let state = session.state();
        assert_eq!(state.label, "em-refit");
        assert!(state.preferences >= 3, "state: {state:?}");
        assert!(session.stats().refits >= 1);
    }

    #[test]
    fn em_refit_session_validates_configuration_and_indices() {
        assert!(EmRefitSession::new(
            catalog(),
            Profile::cost_quality(),
            2,
            EmRefitConfig {
                k: 0,
                ..fast_em_config()
            },
        )
        .is_err());
        let mut rng = StdRng::seed_from_u64(52);
        let mut session =
            EmRefitSession::new(catalog(), Profile::cost_quality(), 2, fast_em_config()).unwrap();
        let shown = session.present(&mut rng).unwrap();
        assert_eq!(shown.len(), 4);
        assert!(session
            .record_feedback(&shown, Feedback::Click { index: 99 }, &mut rng)
            .is_err());
        assert_eq!(
            session
                .record_feedback(&shown, Feedback::Skip, &mut rng)
                .unwrap(),
            0
        );
        assert_eq!(
            session
                .record_feedback(
                    &shown,
                    Feedback::Pairwise {
                        preferred: 1,
                        over: 0
                    },
                    &mut rng
                )
                .unwrap(),
            1
        );
    }

    #[test]
    fn static_baselines_converge_instantly_in_the_generic_loop() {
        let mut rng = StdRng::seed_from_u64(53);
        let user = hidden_user(vec![-0.7, 0.6]);
        let mut hard = HardConstraintSession::new(
            catalog(),
            Profile::cost_quality(),
            2,
            1,
            vec![BudgetConstraint {
                feature: 0,
                max_value: 0.8,
            }],
            2,
        )
        .unwrap();
        let mut sky = SkylineSession::new(
            catalog(),
            Profile::cost_quality(),
            2,
            2,
            vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
            2,
        )
        .unwrap();
        let comparators: [&mut dyn Recommender; 2] = [&mut hard, &mut sky];
        for recommender in comparators {
            let report = run_elicitation(
                recommender,
                &user,
                ElicitationConfig {
                    max_rounds: 10,
                    stable_rounds: 2,
                },
                &mut rng,
            )
            .unwrap();
            // A static list is identical every round: converged after 1 click.
            assert!(report.converged, "{}", recommender.state().label);
            assert_eq!(report.clicks, 1, "{}", recommender.state().label);
            assert_eq!(recommender.state().preferences, 0);
        }
    }

    #[test]
    fn static_baseline_construction_is_validated() {
        assert!(
            HardConstraintSession::new(catalog(), Profile::cost_quality(), 2, 7, vec![], 2)
                .is_err()
        );
        assert!(SkylineSession::new(
            catalog(),
            Profile::cost_quality(),
            2,
            3,
            vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
            2,
        )
        .is_err());
        assert!(SkylineSession::new(
            catalog(),
            Profile::cost_quality(),
            2,
            2,
            vec![FeatureDirection::Minimize],
            2,
        )
        .is_err());
    }
}
