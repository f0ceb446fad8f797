//! The unified, session-oriented recommender surface.
//!
//! Every interactive recommender in the workspace — the paper's
//! sample-maintenance engine ([`RecommenderEngine`]) as well as the baseline
//! adapters in `pkgrec-baselines` — implements the object-safe
//! [`Recommender`] trait, so session drivers such as
//! [`run_elicitation`](crate::elicitation::run_elicitation) and the Figure 8
//! harness can compare them round for round through one generic loop.
//!
//! Feedback is typed: a [`Feedback::Click`] carries the *index* of the chosen
//! package within the shown slice (replacing the old positional
//! `record_click(&Package, &[Package])` call that forced callers to clone a
//! shown package), [`Feedback::Pairwise`] expresses a single comparison, and
//! [`Feedback::Skip`] records a round without preference information.
//!
//! The ranking step shared by every pool-based recommender lives here too:
//! one `Top-k-Pkg` search per pool sample discovers the candidates, and one
//! kernel sweep scores them.  Owners of a pool that persists across rounds
//! rank through a [`DiscoveryMemo`], derived state (like the catalog's
//! sorted lists, and like them absent from snapshots) that remembers each
//! slot's search so only slots whose weight rows changed are searched again.

use std::collections::HashMap;

use pkgrec_topk::SortedLists;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::engine::RecommenderEngine;
use crate::error::{CoreError, Result};
use crate::item::Catalog;
use crate::package::{random_package, Package};
use crate::profile::AggregationContext;
use crate::ranking::{self, PerSampleRanking, RankedPackage};
use crate::sampler::SamplePool;
use crate::scoring::{score_batch_threaded, CandidateMatrix};
use crate::search::{top_k_packages_with_scratch, AggregatedSearchStats, SearchScratch};
use crate::utility::LinearUtility;

/// One round of typed user feedback over the packages a recommender showed.
///
/// All indices refer to positions in the `shown` slice passed alongside the
/// feedback; out-of-range indices are rejected with
/// [`CoreError::InvalidConfig`](crate::error::CoreError).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Feedback {
    /// The user clicked the shown package at `index`; every other shown
    /// package becomes less preferred (Section 2.2 of the paper).
    Click {
        /// Index of the clicked package within the shown slice.
        index: usize,
    },
    /// The user expressed a single pairwise comparison between two shown
    /// packages.
    Pairwise {
        /// Index of the preferred package within the shown slice.
        preferred: usize,
        /// Index of the less-preferred package within the shown slice.
        over: usize,
    },
    /// The user skipped the round; no preference is recorded.
    Skip,
}

impl Feedback {
    /// Validates the feedback against the shown slice: every index must be in
    /// range and a pairwise comparison must name two distinct packages.
    /// Implementations of [`Recommender::record_feedback`] should call this
    /// first so all recommenders reject malformed feedback identically.
    pub fn validate(&self, shown: &[Package]) -> Result<()> {
        match self {
            Feedback::Click { index } => {
                shown_package(shown, *index)?;
            }
            Feedback::Pairwise { preferred, over } => {
                if preferred == over {
                    return Err(CoreError::InvalidConfig(
                        "a pairwise preference needs two distinct shown packages".into(),
                    ));
                }
                shown_package(shown, *preferred)?;
                shown_package(shown, *over)?;
            }
            Feedback::Skip => {}
        }
        Ok(())
    }
}

/// Resolves a feedback index against the shown slice, rejecting out-of-range
/// indices with the canonical error message.
pub fn shown_package(shown: &[Package], index: usize) -> Result<&Package> {
    shown.get(index).ok_or_else(|| {
        CoreError::InvalidConfig(format!(
            "feedback index {index} is out of range for {} shown packages",
            shown.len()
        ))
    })
}

/// Computes the per-sample top-k ranking of every sample in a pool — the
/// shared ranking step of the engine and of pool-based baseline adapters —
/// on the calling thread.  See [`per_sample_rankings_threaded`] for the
/// data-parallel variant behind the engine's `num_threads` knob and
/// [`per_sample_rankings_indexed`] for the form that takes an explicit
/// [`SortedLists`] index and surfaces search statistics.
pub fn per_sample_rankings(
    context: &AggregationContext,
    catalog: &Catalog,
    pool: &SamplePool,
    depth: usize,
) -> Result<Vec<PerSampleRanking>> {
    per_sample_rankings_threaded(context, catalog, pool, depth, 1)
}

/// The candidate discovery of one ranking step: the deduplicated candidate
/// packages, their feature vectors (one flat [`CandidateMatrix`]), per
/// sample the indices of its packages best first, and the search statistics.
pub(crate) type Discovery = (
    Vec<Package>,
    CandidateMatrix,
    Vec<Vec<usize>>,
    AggregatedSearchStats,
);

/// Per-slot memo of candidate discovery, kept by each owner of a sample pool
/// ([`RecommenderEngine`] and `pkgrec-baselines`' `EmRefitSession`).
///
/// A slot's `Top-k-Pkg` answer is a pure function of its weight row: the
/// catalog, profile, φ and depth are fixed for the owner's lifetime, and the
/// scratch a search runs in carries nothing between runs.  Section 3.4's
/// maintenance leaves every sample that still satisfies the feedback in its
/// slot untouched, so most rows survive a click.  The memo keeps, per slot,
/// the row its last search ran under and that search's packages, and
/// [`DiscoveryMemo::per_sample_rankings`] searches again only the slots
/// whose row bits changed.  The candidate union is rebuilt in slot-then-rank
/// order, so candidates, scores, ties and rankings are bit-identical to a
/// discovery that searches every slot.
///
/// The memo is derived state like the catalog's sorted lists: snapshots do
/// not store it, a restored engine starts with an empty one, `Clone` copies
/// it, and no option turns it off.  Its arrays are flat: rows and slot
/// bounds are overwritten in place, packages are `u32` indices into one
/// slate of distinct packages.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryMemo {
    /// Per-sample depth the memoised searches ran with.
    depth: usize,
    /// Weight dimensionality of the memoised rows.
    dim: usize,
    /// `slots × dim` weight rows each slot's last search ran under.
    rows: Vec<f64>,
    /// Slot `s` found `entries[ends[s - 1]..ends[s]]` (from 0 for slot 0).
    ends: Vec<u32>,
    /// Indices into `slate`, best first within each slot.
    entries: Vec<u32>,
    /// The distinct packages the slots found, in slot-then-rank order of
    /// first appearance: the last discovery's candidate union.
    slate: Vec<Package>,
}

impl DiscoveryMemo {
    /// An empty memo: the next discovery searches every slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pool slots the memo holds results for.
    pub fn slots(&self) -> usize {
        self.ends.len()
    }

    /// [`per_sample_rankings_threaded`] through the memo, over the catalog's
    /// shared [`Catalog::sorted_lists`] index: only slots whose weight row
    /// changed since the memo last saw them are searched, split across up
    /// to `num_threads` threads.  The statistics count the searches run and
    /// the slots reused.
    pub fn per_sample_rankings(
        &mut self,
        context: &AggregationContext,
        catalog: &Catalog,
        pool: &SamplePool,
        depth: usize,
        num_threads: usize,
    ) -> Result<(Vec<PerSampleRanking>, AggregatedSearchStats)> {
        self.rank(
            context,
            catalog,
            catalog.sorted_lists(),
            pool,
            depth,
            num_threads,
        )
    }

    fn rank(
        &mut self,
        context: &AggregationContext,
        catalog: &Catalog,
        lists: &SortedLists,
        pool: &SamplePool,
        depth: usize,
        num_threads: usize,
    ) -> Result<(Vec<PerSampleRanking>, AggregatedSearchStats)> {
        if pool.is_empty() {
            return Ok((Vec::new(), AggregatedSearchStats::default()));
        }
        let (candidates, vectors, per_sample, stats) =
            self.discover(context, catalog, lists, pool, depth, num_threads)?;
        let scores = score_batch_threaded(&vectors, pool.weight_matrix(), num_threads);
        Ok((
            ranking::per_sample_rankings_from_scores(
                &candidates,
                &scores,
                pool.importances(),
                &per_sample,
            ),
            stats,
        ))
    }

    /// Runs `Top-k-Pkg` for every slot whose row differs (bit for bit) from
    /// the one its memoised search ran under, updates the memo, and returns
    /// the whole pool's [`Discovery`].
    pub(crate) fn discover(
        &mut self,
        context: &AggregationContext,
        catalog: &Catalog,
        lists: &SortedLists,
        pool: &SamplePool,
        depth: usize,
        num_threads: usize,
    ) -> Result<Discovery> {
        let dim = pool.dim();
        if depth != self.depth || dim != self.dim {
            *self = DiscoveryMemo {
                depth,
                dim,
                ..DiscoveryMemo::default()
            };
        }
        let cached = self.slots();
        let slots = pool.len();
        let misses: Vec<usize> = (0..slots)
            .filter(|&s| {
                s >= cached
                    || self.rows[s * dim..(s + 1) * dim]
                        .iter()
                        .zip(pool.get(s).weights)
                        .any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .collect();
        let (found, mut stats) =
            search_slots(context, catalog, lists, pool, &misses, depth, num_threads)?;
        stats.reused = slots - misses.len();
        if !misses.is_empty() || slots != cached {
            self.absorb(pool, &misses, found);
        }
        let mut vectors = CandidateMatrix::new(context.dim());
        for package in &self.slate {
            vectors.push_row(&context.package_vector(catalog, package)?);
        }
        let mut start = 0;
        let per_sample = self
            .ends
            .iter()
            .map(|&end| {
                let list = self.entries[start..end as usize]
                    .iter()
                    .map(|&i| i as usize)
                    .collect();
                start = end as usize;
                list
            })
            .collect();
        Ok((self.slate.clone(), vectors, per_sample, stats))
    }

    /// Rebuilds the memo over the current pool: missed slots take their
    /// fresh lists (`found`, in `misses` order), the others keep theirs, and
    /// the slate is re-collected in slot-then-rank order of first appearance.
    fn absorb(&mut self, pool: &SamplePool, misses: &[usize], found: Vec<Vec<Package>>) {
        let dim = self.dim;
        let cached = self.slots();
        let slots = pool.len();
        self.rows.resize(slots * dim, 0.0);
        let mut entries = Vec::with_capacity(self.entries.len());
        let mut slate: Vec<Package> = Vec::with_capacity(self.slate.len());
        let mut index_of: HashMap<Package, u32> = HashMap::with_capacity(self.slate.len());
        let mut intern = |package: &Package, slate: &mut Vec<Package>| {
            *index_of.entry(package.clone()).or_insert_with(|| {
                slate.push(package.clone());
                (slate.len() - 1) as u32
            })
        };
        // Old slate index → new slate index, so each kept package is
        // looked up once however many slots share it.
        let mut remap = vec![u32::MAX; self.slate.len()];
        let mut fresh = misses.iter().zip(found).peekable();
        let mut old_start = 0;
        for s in 0..slots {
            let old_end = self.ends.get(s).map_or(old_start, |&end| end as usize);
            match fresh.next_if(|(&miss, _)| miss == s) {
                Some((_, list)) => {
                    for package in &list {
                        entries.push(intern(package, &mut slate));
                    }
                    self.rows[s * dim..(s + 1) * dim].copy_from_slice(pool.get(s).weights);
                }
                None => {
                    for &old in &self.entries[old_start..old_end] {
                        let old = old as usize;
                        if remap[old] == u32::MAX {
                            remap[old] = intern(&self.slate[old], &mut slate);
                        }
                        entries.push(remap[old]);
                    }
                }
            }
            if s < cached {
                self.ends[s] = entries.len() as u32;
            } else {
                self.ends.push(entries.len() as u32);
            }
            old_start = old_end;
        }
        self.ends.truncate(slots);
        self.entries = entries;
        self.slate = slate;
    }
}

/// Runs `Top-k-Pkg` for the given pool slots, in order: contiguous runs of
/// the slot list per OS thread, each with its own utility and
/// [`SearchScratch`] but all sharing the one immutable index, re-joined in
/// slot order, so the outcome is identical to the serial path.
fn search_slots(
    context: &AggregationContext,
    catalog: &Catalog,
    lists: &SortedLists,
    pool: &SamplePool,
    slots: &[usize],
    depth: usize,
    num_threads: usize,
) -> Result<(Vec<Vec<Package>>, AggregatedSearchStats)> {
    let search = |part: &[usize]| -> Result<(Vec<Vec<Package>>, AggregatedSearchStats)> {
        let mut utility = LinearUtility::new(context.clone(), vec![0.0; context.dim()])?;
        let mut scratch = SearchScratch::new();
        let mut stats = AggregatedSearchStats::default();
        let found = part
            .iter()
            .map(|&s| {
                utility.set_weights(pool.get(s).weights)?;
                let result =
                    top_k_packages_with_scratch(&utility, catalog, lists, depth, &mut scratch)?;
                stats.record(&result.stats);
                Ok(result.into_packages())
            })
            .collect::<Result<_>>()?;
        Ok((found, stats))
    };
    let threads = num_threads.max(1).min(slots.len());
    if slots.is_empty() {
        return Ok((Vec::new(), AggregatedSearchStats::default()));
    }
    if threads == 1 {
        return search(slots);
    }
    let parts: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .chunks(slots.len().div_ceil(threads))
            .map(|part| scope.spawn(move || search(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("discovery thread does not panic"))
            .collect()
    });
    let mut found = Vec::with_capacity(slots.len());
    let mut stats = AggregatedSearchStats::default();
    for part in parts {
        let (part_found, part_stats) = part?;
        found.extend(part_found);
        stats.merge(&part_stats);
    }
    Ok((found, stats))
}

/// [`per_sample_rankings`] with the scoring stack split across up to
/// `num_threads` OS threads ([`std::thread::scope`]; no thread pool, no
/// external dependencies): both the per-sample candidate discovery and the
/// batched kernel partition their work, and `num_threads = 1` — the
/// [`EngineBuilder`](crate::builder::EngineBuilder) default — stays entirely
/// on the calling thread.
///
/// The computation is batch-at-a-time rather than row-at-a-time: each
/// sample's `Top-k-Pkg` search *discovers* its candidate packages, the union
/// of discovered candidates is scored against the whole pool in one
/// [`crate::scoring::score_batch`] call, and the per-sample lists are
/// materialised from the resulting score matrix.  Scoring the full
/// `union × pool` matrix computes more entries than the per-sample lists
/// read back; that is a deliberate trade — the kernel's contiguous sweep is
/// a vanishing fraction of the discovery cost even at fig8 scale, and the
/// full matrix is what downstream batch reductions (expectations, argmax)
/// consume without re-touching the pool.
pub fn per_sample_rankings_threaded(
    context: &AggregationContext,
    catalog: &Catalog,
    pool: &SamplePool,
    depth: usize,
    num_threads: usize,
) -> Result<Vec<PerSampleRanking>> {
    per_sample_rankings_indexed(
        context,
        catalog,
        catalog.sorted_lists(),
        pool,
        depth,
        num_threads,
    )
    .map(|(rankings, _)| rankings)
}

/// The fully-equipped, memo-free ranking step: [`per_sample_rankings_threaded`]
/// over an explicit [`SortedLists`] index of the catalog, searching every
/// sample, and returning the per-sample rankings together with the
/// aggregated search statistics of all the `Top-k-Pkg` runs.  Owners of a
/// pool that persists across rounds rank through a [`DiscoveryMemo`]
/// instead.
pub fn per_sample_rankings_indexed(
    context: &AggregationContext,
    catalog: &Catalog,
    lists: &SortedLists,
    pool: &SamplePool,
    depth: usize,
    num_threads: usize,
) -> Result<(Vec<PerSampleRanking>, AggregatedSearchStats)> {
    DiscoveryMemo::new().rank(context, catalog, lists, pool, depth, num_threads)
}

/// Extends a presentation list with random exploration packages until it
/// reaches `target` entries (de-duplicated, bounded number of attempts) —
/// the Section 2.2 exploration step shared by `present` implementations.
pub fn extend_with_random_packages(
    shown: &mut Vec<Package>,
    target: usize,
    catalog_len: usize,
    max_package_size: usize,
    rng: &mut dyn RngCore,
) {
    let phi = max_package_size.min(catalog_len);
    let mut guard = 0;
    while shown.len() < target && guard < 1000 {
        guard += 1;
        let candidate = random_package(catalog_len, phi, rng);
        if !shown.contains(&candidate) {
            shown.push(candidate);
        }
    }
}

/// A cheap, serialisable summary of a recommender session's progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommenderState {
    /// Human-readable label of the recommender ("engine", "em-refit", …).
    pub label: String,
    /// Number of packages recommended per round.
    pub k: usize,
    /// Number of pairwise preferences recorded so far.
    pub preferences: usize,
    /// Current size of the weight-sample pool (0 for pool-free baselines).
    pub pool_size: usize,
    /// Number of feedback rounds recorded so far (including skips).
    pub rounds: usize,
    /// Aggregated `Top-k-Pkg` statistics across the session so far (all zero
    /// for recommenders that never run the package search).
    pub search: AggregatedSearchStats,
}

/// An interactive, session-oriented package recommender.
///
/// The trait is object-safe: session drivers take `&mut dyn Recommender`, so
/// the elicitation engine and every baseline are drop-in comparators.
pub trait Recommender {
    /// The catalog the recommender draws packages from.
    fn catalog(&self) -> &Catalog;

    /// Builds the presentation list of one round (recommended packages first,
    /// optionally followed by exploration packages).
    fn present(&mut self, rng: &mut dyn RngCore) -> Result<Vec<Package>>;

    /// Records one round of typed feedback against the packages returned by
    /// the matching [`Recommender::present`] call.  Returns the number of new
    /// pairwise preferences absorbed.
    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        rng: &mut dyn RngCore,
    ) -> Result<usize>;

    /// The current top-k recommendation.
    fn recommend(&mut self, rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>>;

    /// A summary of the session's progress.
    fn state(&self) -> RecommenderState;
}

impl Recommender for RecommenderEngine {
    fn catalog(&self) -> &Catalog {
        RecommenderEngine::catalog(self)
    }

    fn present(&mut self, rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        RecommenderEngine::present(self, rng)
    }

    fn record_feedback(
        &mut self,
        shown: &[Package],
        feedback: Feedback,
        rng: &mut dyn RngCore,
    ) -> Result<usize> {
        RecommenderEngine::record_feedback(self, shown, feedback, rng)
    }

    fn recommend(&mut self, rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        RecommenderEngine::recommend(self, rng)
    }

    fn state(&self) -> RecommenderState {
        RecommenderState {
            label: "engine".to_string(),
            k: self.config().k,
            preferences: self.preferences().len(),
            pool_size: self.pool().len(),
            rounds: self.rounds(),
            search: self.search_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> RecommenderEngine {
        let catalog = Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
        ])
        .unwrap();
        RecommenderEngine::builder(catalog, Profile::cost_quality())
            .max_package_size(2)
            .k(2)
            .num_random(2)
            .num_samples(30)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_drives_through_the_trait_object() {
        let mut engine = engine();
        let recommender: &mut dyn Recommender = &mut engine;
        let mut rng = StdRng::seed_from_u64(3);
        let shown = recommender.present(&mut rng).unwrap();
        assert_eq!(shown.len(), 4);
        let added = recommender
            .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
            .unwrap();
        assert_eq!(added, shown.len() - 1);
        let recs = recommender.recommend(&mut rng).unwrap();
        assert_eq!(recs.len(), 2);
        let state = recommender.state();
        assert_eq!(state.label, "engine");
        assert_eq!(state.k, 2);
        assert_eq!(state.preferences, added);
        assert_eq!(state.rounds, 1);
        assert_eq!(state.pool_size, 30);
        assert_eq!(recommender.catalog().len(), 5);
    }

    #[test]
    fn threaded_rankings_match_the_serial_path() {
        use crate::sampler::{SamplerKind, WeightSampler};
        use pkgrec_gmm::GaussianMixture;

        let engine = engine();
        let prior = GaussianMixture::default_prior(2, 1, 0.5).unwrap();
        let checker = crate::constraints::ConstraintChecker::full(
            &crate::preferences::PreferenceStore::new(),
            2,
        );
        let mut rng = StdRng::seed_from_u64(17);
        let pool = SamplerKind::mcmc()
            .generate(&prior, &checker, 60, &mut rng)
            .unwrap()
            .pool;
        let serial = per_sample_rankings(engine.context(), engine.catalog(), &pool, 3).unwrap();
        for threads in [2, 4] {
            let parallel =
                per_sample_rankings_threaded(engine.context(), engine.catalog(), &pool, 3, threads)
                    .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
        assert!(
            per_sample_rankings(engine.context(), engine.catalog(), &SamplePool::new(), 3)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn feedback_serde_round_trips() {
        for feedback in [
            Feedback::Click { index: 3 },
            Feedback::Pairwise {
                preferred: 1,
                over: 4,
            },
            Feedback::Skip,
        ] {
            let json = serde_json::to_string(&feedback).unwrap();
            assert_eq!(serde_json::from_str::<Feedback>(&json).unwrap(), feedback);
        }
    }
}
