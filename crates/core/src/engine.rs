//! The package recommender engine: ties the prior, the preference store, the
//! constrained samplers, the per-sample package search and the ranking
//! semantics into the interactive loop of the paper (Sections 2–4).
//!
//! Construct engines with [`RecommenderEngine::builder`] (see
//! [`crate::builder::EngineBuilder`]), drive them through the
//! [`crate::recommender::Recommender`] trait, and persist them with
//! [`RecommenderEngine::snapshot`] / [`RecommenderEngine::restore`].
//!
//! An engine holds its catalog behind an `Arc`: engines built from one
//! interned catalog share its rows and its sorted-lists index.  Two kinds of
//! derived state are neither snapshotted nor restored: that index (built
//! once per catalog allocation) and the per-slot [`DiscoveryMemo`], which
//! lets a present or recommend search only the pool slots whose weight rows
//! changed since the last discovery.

use std::sync::Arc;

use pkgrec_gmm::GaussianMixture;
use pkgrec_topk::SortedLists;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::builder::EngineBuilder;
use crate::constraints::ConstraintChecker;
use crate::error::{CoreError, Result};
use crate::item::Catalog;
use crate::maintenance::{self, MaintenanceStrategy};
use crate::package::Package;
use crate::preferences::{Preference, PreferenceStore};
use crate::profile::{AggregationContext, Profile};
use crate::ranking::{
    aggregate, per_sample_rankings_from_scores, PerSampleRanking, RankedPackage, RankingSemantics,
};
use crate::recommender::{self, DiscoveryMemo, Feedback};
use crate::sampler::{SamplePool, SamplerKind};
use crate::search::AggregatedSearchStats;

/// Configuration of the recommender engine.
///
/// Prefer assembling configurations through [`RecommenderEngine::builder`],
/// which validates every field before the engine is constructed; raw struct
/// literals remain supported and are validated by [`EngineConfig::validate`]
/// at engine-construction time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of packages recommended per round (the paper presents 5).
    pub k: usize,
    /// Number of additional random exploration packages per round (also 5).
    pub num_random: usize,
    /// Number of weight-vector samples maintained in the pool.
    pub num_samples: usize,
    /// Ranking semantics used to aggregate per-sample results.
    pub semantics: RankingSemantics,
    /// Constrained sampling strategy.
    pub sampler: SamplerKind,
    /// Strategy for maintaining the pool when new feedback arrives.
    pub maintenance: MaintenanceStrategy,
    /// Number of Gaussians in the prior mixture.
    pub prior_components: usize,
    /// Standard deviation of each prior component.
    pub prior_sigma: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            k: 5,
            num_random: 5,
            num_samples: 200,
            semantics: RankingSemantics::Exp,
            sampler: SamplerKind::mcmc(),
            maintenance: MaintenanceStrategy::Hybrid { gamma: 0.025 },
            prior_components: 1,
            prior_sigma: 0.5,
        }
    }
}

impl EngineConfig {
    /// Validates every catalog-independent field, returning a distinct
    /// [`CoreError::InvalidConfig`] message per defect.
    ///
    /// Catalog-dependent checks (`k` against the package space, the profile
    /// dimensionality, the maximum package size) are performed by
    /// [`EngineBuilder::build`].
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(CoreError::InvalidConfig("k must be at least 1".into()));
        }
        if self.num_samples == 0 {
            return Err(CoreError::InvalidConfig(
                "num_samples must be at least 1".into(),
            ));
        }
        if self.prior_components == 0 {
            return Err(CoreError::InvalidConfig(
                "prior_components must be at least 1".into(),
            ));
        }
        if !self.prior_sigma.is_finite() || self.prior_sigma <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "prior_sigma must be positive and finite, got {}",
                self.prior_sigma
            )));
        }
        if let MaintenanceStrategy::Hybrid { gamma } = self.maintenance {
            if !gamma.is_finite() || gamma <= 0.0 || gamma >= 1.0 {
                return Err(CoreError::InvalidConfig(format!(
                    "hybrid maintenance gamma must lie in the open interval (0, 1), got {gamma}"
                )));
            }
        }
        Ok(())
    }
}

/// The interactive package recommender.
#[derive(Debug, Clone)]
pub struct RecommenderEngine {
    catalog: Arc<Catalog>,
    context: AggregationContext,
    prior: GaussianMixture,
    preferences: PreferenceStore,
    pool: SamplePool,
    config: EngineConfig,
    rounds: usize,
    /// OS threads the scoring stack may use (a process-local deployment knob,
    /// not session state — snapshots neither store nor restore it).
    num_threads: usize,
    /// Per-slot `Top-k-Pkg` results under the rows the slots last held.
    /// Derived state: snapshots do not store it, a restored engine starts
    /// with an empty one, `Clone` copies it.
    memo: DiscoveryMemo,
    /// Aggregated `Top-k-Pkg` statistics across the engine's lifetime
    /// (process-local observability, not session state — snapshots neither
    /// store nor restore it).
    search_stats: AggregatedSearchStats,
    /// Pool samples carried over by incremental resampling instead of being
    /// re-drawn, accumulated across every [`RecommenderEngine::resample`]
    /// call (process-local observability like `search_stats`; snapshots
    /// neither store nor restore it).
    samples_reused: usize,
}

impl RecommenderEngine {
    /// Starts a fluent, validating builder over a catalog and a profile — the
    /// preferred way to construct an engine:
    ///
    /// ```
    /// use pkgrec_core::prelude::*;
    ///
    /// let catalog = Catalog::from_rows(vec![vec![0.6, 0.2], vec![0.2, 0.4]]).unwrap();
    /// let engine = RecommenderEngine::builder(catalog, Profile::cost_quality())
    ///     .max_package_size(2)
    ///     .k(2)
    ///     .semantics(RankingSemantics::Exp)
    ///     .sampler(SamplerKind::mcmc())
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(engine.config().k, 2);
    /// ```
    pub fn builder(catalog: impl Into<Arc<Catalog>>, profile: Profile) -> EngineBuilder {
        EngineBuilder::new(catalog.into(), profile)
    }

    /// Assembles an engine from already-validated parts (used by the builder
    /// and by snapshot restoration).
    #[allow(clippy::too_many_arguments)] // one slot per validated engine part
    pub(crate) fn assemble(
        catalog: Arc<Catalog>,
        context: AggregationContext,
        prior: GaussianMixture,
        preferences: PreferenceStore,
        pool: SamplePool,
        config: EngineConfig,
        rounds: usize,
        num_threads: usize,
    ) -> Self {
        RecommenderEngine {
            catalog,
            context,
            prior,
            preferences,
            pool,
            config,
            rounds,
            num_threads,
            memo: DiscoveryMemo::new(),
            search_stats: AggregatedSearchStats::default(),
            samples_reused: 0,
        }
    }

    /// The catalog the engine recommends from.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared handle of the catalog (see [`RecommenderEngine::catalog`]).
    pub(crate) fn catalog_handle(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The aggregation context (profile, normalisers, φ).
    pub fn context(&self) -> &AggregationContext {
        &self.context
    }

    /// The prior over weight vectors.
    pub fn prior(&self) -> &GaussianMixture {
        &self.prior
    }

    /// The preference store accumulated from feedback.
    pub fn preferences(&self) -> &PreferenceStore {
        &self.preferences
    }

    /// The current sample pool.
    pub fn pool(&self) -> &SamplePool {
        &self.pool
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of feedback rounds recorded so far (including skips).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of OS threads the scoring stack may use (1 = fully serial).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The catalog's per-feature sorted item lists, built once per catalog
    /// allocation and reused by every per-sample package search.
    pub fn sorted_lists(&self) -> &SortedLists {
        self.catalog.sorted_lists()
    }

    /// The per-slot discovery memo (see [`DiscoveryMemo`]).
    pub fn discovery_memo(&self) -> &DiscoveryMemo {
        &self.memo
    }

    /// Aggregated `Top-k-Pkg` statistics across every recommendation the
    /// engine has computed (the counter baseline for search-performance work).
    pub fn search_stats(&self) -> AggregatedSearchStats {
        self.search_stats
    }

    /// Resets the aggregated search statistics to zero.
    pub fn reset_search_stats(&mut self) {
        self.search_stats = AggregatedSearchStats::default();
    }

    /// Changes the scoring-thread budget of a live engine (e.g. after
    /// [`RecommenderEngine::restore`], which always resumes serial); validated
    /// like [`EngineBuilder::num_threads`](crate::builder::EngineBuilder::num_threads).
    pub fn set_num_threads(&mut self, num_threads: usize) -> Result<()> {
        crate::builder::validate_num_threads(num_threads)?;
        self.num_threads = num_threads;
        Ok(())
    }

    /// The constraint checker over the transitively reduced preference set.
    pub fn checker(&self) -> ConstraintChecker {
        ConstraintChecker::reduced(&self.preferences, self.context.dim())
    }

    /// (Re)fills the sample pool with `num_samples` valid samples —
    /// incrementally: pool rows that already satisfy the current constraints
    /// are kept in place (reusing the flat weight-matrix allocation) and
    /// only the shortfall is re-drawn (see [`SamplePool::resample`]).  The
    /// carried-over rows accumulate into
    /// [`RecommenderEngine::samples_reused`]; an empty pool degenerates to
    /// the historical full rebuild, drawing the same samples in the same
    /// order.
    pub fn resample(&mut self, rng: &mut dyn RngCore) -> Result<()> {
        let checker = self.checker();
        let reused = self.pool.resample(
            self.config.num_samples,
            &self.config.sampler,
            &self.prior,
            &checker,
            rng,
        )?;
        self.samples_reused += reused;
        Ok(())
    }

    /// Cumulative number of pool samples incremental resampling carried over
    /// instead of re-drawing, across every [`RecommenderEngine::resample`]
    /// call of this engine's lifetime (the reuse-rate counter for perf work;
    /// process-local, like [`RecommenderEngine::search_stats`]).
    pub fn samples_reused(&self) -> usize {
        self.samples_reused
    }

    fn per_sample_k(&self) -> usize {
        self.config.semantics.per_sample_depth(self.config.k)
    }

    /// Computes the per-sample top-k package rankings for the current pool,
    /// batched through the scoring kernel over the catalog's sorted lists,
    /// searching only the slots the [`DiscoveryMemo`] cannot answer, split
    /// across the configured number of threads.  The runs' search
    /// statistics accumulate into [`RecommenderEngine::search_stats`].
    pub fn per_sample_rankings(&mut self) -> Result<Vec<PerSampleRanking>> {
        let depth = self.per_sample_k();
        let (rankings, stats) = self.memo.per_sample_rankings(
            &self.context,
            &self.catalog,
            &self.pool,
            depth,
            self.num_threads,
        )?;
        self.search_stats.merge(&stats);
        Ok(rankings)
    }

    /// Produces the current top-k recommendation under the configured ranking
    /// semantics, sampling the pool first if it is empty.
    pub fn recommend(&mut self, rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        if self.pool.is_empty() {
            self.resample(rng)?;
        }
        let results = self.per_sample_rankings()?;
        Ok(aggregate(self.config.semantics, &results, self.config.k))
    }

    /// Draws `count` random exploration packages (uniform random size in
    /// `1..=φ`, uniform random distinct items).
    pub fn random_packages(&self, count: usize, rng: &mut dyn RngCore) -> Vec<Package> {
        let n = self.catalog.len();
        let phi = self.context.max_package_size().min(n);
        (0..count)
            .map(|_| crate::package::random_package(n, phi, rng))
            .collect()
    }

    /// Builds the presentation list of one elicitation round: the current
    /// best packages (exploitation) followed by random packages (exploration),
    /// de-duplicated (Section 2.2).
    ///
    /// Every present runs this one body: [`RecommenderEngine::prepare_present`]
    /// → [`score_stacked`] → [`RecommenderEngine::present_from_scores`], all
    /// on the calling thread.
    pub fn present(&mut self, rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        let prep = self.prepare_present(rng)?;
        let scores = score_stacked(&[&prep]);
        Ok(self.present_from_scores(&prep, 0, &scores, rng))
    }

    /// Runs the *mutating* half of one `present` round and captures every
    /// artefact the scoring sweep needs, without running the sweep itself —
    /// the first stage of [`RecommenderEngine::present`].
    ///
    /// An empty pool resamples through the caller's RNG first, candidate
    /// discovery runs (`Top-k-Pkg` for the slots whose rows changed since
    /// the last discovery, the [`DiscoveryMemo`] for the rest) and merges
    /// its search stats, and the current pool rows are copied into the prep,
    /// so the prep owns everything [`score_stacked`] reads and can be scored
    /// without the engine.
    ///
    /// The RNG must not be touched between this call and the matching
    /// [`RecommenderEngine::present_from_scores`]: the stream order within
    /// one present is resample → discovery (no draws) → random exploration
    /// tail.
    pub fn prepare_present(&mut self, rng: &mut dyn RngCore) -> Result<PresentPrep> {
        if self.pool.is_empty() {
            self.resample(rng)?;
        }
        let depth = self.per_sample_k();
        let (candidates, vectors, per_sample, stats) = self.memo.discover(
            &self.context,
            &self.catalog,
            self.catalog.sorted_lists(),
            &self.pool,
            depth,
            self.num_threads,
        )?;
        self.search_stats.merge(&stats);
        Ok(PresentPrep {
            candidates,
            vectors,
            per_sample,
            samples: self.pool.weight_matrix().clone(),
            num_threads: self.num_threads,
        })
    }

    /// Runs the post-sweep half of one `present` round: per-sample rankings
    /// read back from the prep's score matrix, semantic aggregation, and the
    /// random exploration tail drawn from the *same* RNG that was handed to
    /// [`RecommenderEngine::prepare_present`].
    ///
    /// `member` is this prep's position in the `preps` slice handed to
    /// [`score_stacked`].
    ///
    /// # Panics
    /// Panics if `member` does not index this prep's scores in `stacked`.
    pub fn present_from_scores(
        &self,
        prep: &PresentPrep,
        member: usize,
        stacked: &StackedScores,
        rng: &mut dyn RngCore,
    ) -> Vec<Package> {
        let rankings = per_sample_rankings_from_scores(
            &prep.candidates,
            &stacked.scores[member],
            prep.samples.importances(),
            &prep.per_sample,
        );
        let mut shown: Vec<Package> = aggregate(self.config.semantics, &rankings, self.config.k)
            .into_iter()
            .map(|r| r.package)
            .collect();
        recommender::extend_with_random_packages(
            &mut shown,
            self.config.k + self.config.num_random,
            self.catalog.len(),
            self.context.max_package_size(),
            rng,
        );
        shown
    }

    /// Absorbs one pairwise preference `better ≻ worse` (with the better
    /// package's feature vector already computed): the preference DAG stores
    /// it (silently dropping a conflicting preference that would create a
    /// cycle, which the paper resolves by re-asking the user) and the sample
    /// pool is maintained against each genuinely new constraint.  Returns 1
    /// if a new preference was recorded, 0 otherwise.
    fn absorb_preference_vector(
        &mut self,
        better_key: String,
        better_vector: &[f64],
        worse: &Package,
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        let worse_vector = self.context.package_vector(&self.catalog, worse)?;
        let inserted =
            match self
                .preferences
                .add(better_key, better_vector, worse.key(), &worse_vector)
            {
                Ok(true) => true,
                Ok(false) => false,
                // A conflicting preference (cycle) is dropped; the elicitation
                // loop will naturally re-present the packages involved.
                Err(CoreError::PreferenceCycle { .. }) => false,
                Err(e) => return Err(e),
            };
        if !inserted {
            return Ok(0);
        }
        let preference = Preference::new(better_vector.to_vec(), worse_vector);
        if !self.pool.is_empty() {
            let checker = self.checker();
            let index = maintenance::index_pool(&self.pool);
            maintenance::maintain_pool(
                &mut self.pool,
                Some(&index),
                &preference,
                self.config.maintenance,
                &self.config.sampler,
                &self.prior,
                &checker,
                rng,
            )?;
        }
        Ok(1)
    }

    /// Interprets a click on `clicked` among the `shown` packages as the
    /// pairwise preferences `clicked ≻ other` for every other shown package.
    /// The clicked package's feature vector is computed once for the round.
    fn click_package(
        &mut self,
        clicked: &Package,
        shown: &[Package],
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        let clicked_vector = self.context.package_vector(&self.catalog, clicked)?;
        let mut added = 0usize;
        for other in shown {
            if other == clicked {
                continue;
            }
            added += self.absorb_preference_vector(clicked.key(), &clicked_vector, other, rng)?;
        }
        Ok(added)
    }

    /// Records one round of typed [`Feedback`] against the `shown` packages
    /// (Section 2.2: every click yields pairwise preferences; the preference
    /// DAG absorbs them and the pool is maintained per new constraint).
    /// Returns the number of new preferences recorded.
    pub fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        feedback.validate(shown)?;
        let added = match feedback {
            Feedback::Click { index } => self.click_package(&shown[index], shown, rng)?,
            Feedback::Skip => 0,
            Feedback::Pairwise { preferred, over } => {
                let better = &shown[preferred];
                let better_vector = self.context.package_vector(&self.catalog, better)?;
                self.absorb_preference_vector(better.key(), &better_vector, &shown[over], rng)?
            }
        };
        self.rounds += 1;
        Ok(added)
    }
}

/// The artefacts of one `present` round, produced by
/// [`RecommenderEngine::prepare_present`] and consumed by [`score_stacked`]
/// and [`RecommenderEngine::present_from_scores`].
///
/// A prep is self-contained — the discovered candidate slate, its feature
/// vectors, the per-sample candidate indices, and a copy of the pool's
/// weight rows — so the sweep can run after the engine borrow ends.
#[derive(Debug, Clone)]
pub struct PresentPrep {
    candidates: Vec<Package>,
    vectors: crate::scoring::CandidateMatrix,
    per_sample: Vec<Vec<usize>>,
    samples: crate::scoring::WeightMatrix,
    num_threads: usize,
}

impl PresentPrep {
    /// Number of candidate packages discovery found (the sweep is
    /// `candidates × samples` cells).
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Number of weight samples the sweep scores the candidates under.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }
}

/// The kernel sweep's results for each [`PresentPrep`] handed to
/// [`score_stacked`], consumed by [`RecommenderEngine::present_from_scores`].
#[derive(Debug)]
pub struct StackedScores {
    scores: Vec<crate::scoring::ScoreMatrix>,
}

impl StackedScores {
    /// Number of candidate rows the sweep scored, summed over its preps.
    pub fn union_len(&self) -> usize {
        self.scores
            .iter()
            .map(crate::scoring::ScoreMatrix::num_candidates)
            .sum()
    }
}

/// Scores each prep's candidates under its own samples: one
/// [`score_batch_threaded`](crate::scoring::score_batch_threaded) sweep of
/// `candidates × samples` per prep, split across the prep's thread budget
/// (the kernel is bit-stable across thread counts).
pub fn score_stacked(preps: &[&PresentPrep]) -> StackedScores {
    StackedScores {
        scores: preps
            .iter()
            .map(|prep| {
                crate::scoring::score_batch_threaded(&prep.vectors, &prep.samples, prep.num_threads)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_catalog() -> Catalog {
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
            vec![0.7, 0.1],
            vec![0.1, 0.3],
            vec![0.5, 0.9],
        ])
        .unwrap()
    }

    fn engine(config: EngineConfig) -> RecommenderEngine {
        RecommenderEngine::builder(small_catalog(), Profile::cost_quality())
            .max_package_size(3)
            .config(config)
            .build()
            .unwrap()
    }

    fn fast_config() -> EngineConfig {
        EngineConfig {
            k: 3,
            num_random: 2,
            num_samples: 40,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn config_escape_hatch_still_validates() {
        let bad_k = EngineConfig {
            k: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            RecommenderEngine::builder(small_catalog(), Profile::cost_quality())
                .max_package_size(3)
                .config(bad_k)
                .build(),
            Err(CoreError::InvalidConfig(_))
        ));
        let bad_samples = EngineConfig {
            num_samples: 0,
            ..EngineConfig::default()
        };
        assert!(matches!(
            RecommenderEngine::builder(small_catalog(), Profile::cost_quality())
                .max_package_size(3)
                .config(bad_samples)
                .build(),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn thread_budget_is_adjustable_and_validated() {
        let mut engine = engine(fast_config());
        assert_eq!(engine.num_threads(), 1);
        engine.set_num_threads(4).unwrap();
        assert_eq!(engine.num_threads(), 4);
        assert!(matches!(
            engine.set_num_threads(0),
            Err(CoreError::InvalidConfig(_))
        ));
        assert_eq!(engine.num_threads(), 4);
        // A threaded engine recommends exactly what a serial engine does.
        let mut rng_a = StdRng::seed_from_u64(12);
        let mut rng_b = StdRng::seed_from_u64(12);
        let mut serial = engine.clone();
        serial.set_num_threads(1).unwrap();
        assert_eq!(
            engine.recommend(&mut rng_a).unwrap(),
            serial.recommend(&mut rng_b).unwrap()
        );
    }

    #[test]
    fn recommend_returns_k_distinct_packages() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut engine = engine(fast_config());
        let recs = engine.recommend(&mut rng).unwrap();
        assert_eq!(recs.len(), 3);
        let mut seen = std::collections::HashSet::new();
        for r in &recs {
            assert!(seen.insert(r.package.clone()), "duplicate recommendation");
            assert!(r.package.len() <= 3);
        }
        assert_eq!(engine.pool().len(), 40);
    }

    #[test]
    fn present_combines_recommendations_and_random_packages() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut engine = engine(fast_config());
        let shown = engine.present(&mut rng).unwrap();
        assert_eq!(shown.len(), 5);
        let mut unique = shown.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), shown.len());
    }

    #[test]
    fn feedback_click_adds_preferences_and_keeps_pool_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut engine = engine(fast_config());
        let shown = engine.present(&mut rng).unwrap();
        let added = engine
            .record_feedback(&shown, Feedback::Click { index: 1 }, &mut rng)
            .unwrap();
        assert_eq!(added, shown.len() - 1);
        assert_eq!(engine.preferences().len(), added);
        assert_eq!(engine.rounds(), 1);
        // Every sample in the pool satisfies the updated (reduced) constraints.
        let checker = engine.checker();
        for s in engine.pool().samples() {
            assert!(checker.is_valid(s.weights));
        }
    }

    #[test]
    fn feedback_skip_and_bad_indices() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut engine = engine(fast_config());
        let shown = engine.present(&mut rng).unwrap();
        assert_eq!(
            engine
                .record_feedback(&shown, Feedback::Skip, &mut rng)
                .unwrap(),
            0
        );
        assert_eq!(engine.rounds(), 1);
        assert!(matches!(
            engine.record_feedback(&shown, Feedback::Click { index: 99 }, &mut rng),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            engine.record_feedback(
                &shown,
                Feedback::Pairwise {
                    preferred: 0,
                    over: 0
                },
                &mut rng
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            engine.record_feedback(
                &shown,
                Feedback::Pairwise {
                    preferred: 0,
                    over: 99
                },
                &mut rng
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        // Failed feedback never counts as a round.
        assert_eq!(engine.rounds(), 1);
    }

    #[test]
    fn pairwise_feedback_records_exactly_one_preference() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut engine = engine(fast_config());
        let shown = engine.present(&mut rng).unwrap();
        let added = engine
            .record_feedback(
                &shown,
                Feedback::Pairwise {
                    preferred: 0,
                    over: 1,
                },
                &mut rng,
            )
            .unwrap();
        assert_eq!(added, 1);
        assert_eq!(engine.preferences().len(), 1);
        let checker = engine.checker();
        for s in engine.pool().samples() {
            assert!(checker.is_valid(s.weights));
        }
    }

    #[test]
    fn feedback_steers_recommendations_toward_the_clicked_taste() {
        // The user always clicks the cheapest package; after a few rounds the
        // recommended packages should have much lower cost than quality-first
        // recommendations would.
        let mut rng = StdRng::seed_from_u64(4);
        let mut engine = engine(EngineConfig {
            k: 3,
            num_random: 3,
            num_samples: 60,
            ..EngineConfig::default()
        });
        let catalog = engine.catalog().clone();
        let cost_of = |p: &Package| -> f64 {
            p.items()
                .iter()
                .map(|&i| catalog.item_unchecked(i)[0])
                .sum()
        };
        for _ in 0..4 {
            let shown = engine.present(&mut rng).unwrap();
            let cheapest = (0..shown.len())
                .min_by(|&a, &b| cost_of(&shown[a]).partial_cmp(&cost_of(&shown[b])).unwrap())
                .unwrap();
            engine
                .record_feedback(&shown, Feedback::Click { index: cheapest }, &mut rng)
                .unwrap();
        }
        let recs = engine.recommend(&mut rng).unwrap();
        let avg_cost: f64 =
            recs.iter().map(|r| cost_of(&r.package)).sum::<f64>() / recs.len() as f64;
        // The cheapest single item costs 0.1; recommendations should stay well
        // below the cost of an average random package (~0.9 for two items).
        assert!(avg_cost < 0.8, "average recommended cost {avg_cost}");
    }

    #[test]
    fn different_semantics_share_the_same_engine() {
        let mut rng = StdRng::seed_from_u64(5);
        for semantics in [
            RankingSemantics::Exp,
            RankingSemantics::Tkp { sigma: 3 },
            RankingSemantics::Mpo,
        ] {
            let mut engine = engine(EngineConfig {
                semantics,
                ..fast_config()
            });
            let recs = engine.recommend(&mut rng).unwrap();
            assert!(!recs.is_empty(), "{semantics:?}");
            assert!(recs.len() <= 3);
        }
    }

    #[test]
    fn random_packages_respect_size_bounds() {
        let mut rng = StdRng::seed_from_u64(6);
        let engine = engine(fast_config());
        for p in engine.random_packages(50, &mut rng) {
            assert!(!p.is_empty() && p.len() <= 3);
            assert!(p.items().iter().all(|&i| i < engine.catalog().len()));
        }
    }

    #[test]
    fn stacked_preps_are_bit_identical_to_serial_presents() {
        // Several engines' preps scored by one `score_stacked` call read
        // back exactly what each engine's own `present` returns: different
        // seeds and k, one pool constrained by a click, one empty pool that
        // resamples inside `prepare_present`.
        let configs = [
            fast_config(),
            EngineConfig {
                k: 2,
                num_samples: 25,
                ..fast_config()
            },
            EngineConfig {
                semantics: RankingSemantics::Tkp { sigma: 4 },
                ..fast_config()
            },
        ];
        let mut serial: Vec<RecommenderEngine> =
            configs.iter().map(|c| engine(c.clone())).collect();
        {
            let mut rng = StdRng::seed_from_u64(41);
            let shown = serial[0].present(&mut rng).unwrap();
            serial[0]
                .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
                .unwrap();
        }
        let mut stacked = serial.clone();
        let mut serial_rngs: Vec<StdRng> = (0..serial.len())
            .map(|i| StdRng::seed_from_u64(1000 + i as u64))
            .collect();
        let mut stacked_rngs = serial_rngs.clone();
        let expected: Vec<Vec<Package>> = serial
            .iter_mut()
            .zip(serial_rngs.iter_mut())
            .map(|(e, rng)| e.present(rng).unwrap())
            .collect();
        let preps: Vec<PresentPrep> = stacked
            .iter_mut()
            .zip(stacked_rngs.iter_mut())
            .map(|(e, rng)| e.prepare_present(rng).unwrap())
            .collect();
        let refs: Vec<&PresentPrep> = preps.iter().collect();
        let scores = score_stacked(&refs);
        assert_eq!(
            scores.union_len(),
            preps.iter().map(PresentPrep::num_candidates).sum::<usize>()
        );
        for (member, ((e, rng), prep)) in stacked
            .iter()
            .zip(stacked_rngs.iter_mut())
            .zip(&preps)
            .enumerate()
        {
            let shown = e.present_from_scores(prep, member, &scores, rng);
            assert_eq!(shown, expected[member], "member {member}");
        }
        for ((a, b), (ra, rb)) in serial
            .iter()
            .zip(&stacked)
            .zip(serial_rngs.iter_mut().zip(stacked_rngs.iter_mut()))
        {
            assert_eq!(a.search_stats(), b.search_stats());
            assert_eq!(a.pool(), b.pool());
            assert_eq!(rand::RngCore::next_u64(ra), rand::RngCore::next_u64(rb));
        }
    }

    #[test]
    fn conflicting_click_does_not_poison_the_store() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut engine = engine(fast_config());
        let a = Package::new(vec![0]).unwrap();
        let b = Package::new(vec![1]).unwrap();
        let shown = vec![a, b];
        // First the user prefers a over b, then (changing their mind) b over a;
        // the second, conflicting preference is dropped rather than crashing.
        assert_eq!(
            engine
                .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
                .unwrap(),
            1
        );
        assert_eq!(
            engine
                .record_feedback(&shown, Feedback::Click { index: 1 }, &mut rng)
                .unwrap(),
            0
        );
        assert_eq!(engine.preferences().len(), 1);
        assert_eq!(engine.rounds(), 2);
    }
}
