//! Top-k package search for a fixed weight vector (Section 4, Algorithms 2–4).
//!
//! `Top-k-Pkg` sorts the items into one list per (weighted, non-null) feature,
//! accesses those lists round-robin in the utility-preferred direction, and
//! grows candidate packages by *utility-improving expansion*: each newly
//! accessed item is added to every expandable candidate it improves.  The set
//! `Q+` of expandable candidates is re-classified after every access against
//! the boundary vector `τ`, and the scan stops as soon as the largest
//! optimistic bound `ηup` of any expandable candidate (or of the empty
//! package) no longer beats the utility `ηlo` of the k-th best package found
//! (Algorithm 2 line 8).
//!
//! # Hot-path design
//!
//! This is the innermost loop of every elicitation round (one search per
//! weight sample per round), so the implementation is built around three
//! allocation-free structures:
//!
//! * **Shared sorted lists** — per-feature item order is weight-independent;
//!   only the scan *direction* and the set of active features vary per weight
//!   vector.  [`top_k_packages_with_lists`] therefore takes a prebuilt
//!   [`SortedLists`] index; [`top_k_packages`] and every engine and baseline
//!   session use the one [`Catalog::sorted_lists`] builds once per catalog
//!   allocation and reuses across every sample, round and session.
//! * **Arena candidates** — candidates live in a struct-of-arrays slab with
//!   parent-pointer item chains (`arena` module): an extension stores
//!   `(parent, item)` plus a handful of incrementally-updated scalars instead
//!   of cloning an item vector and an aggregation state.  Item vectors are
//!   materialised only when a candidate actually enters the top-k heap, and a
//!   mark-compact pass keeps the slab proportional to `|Q+| · φ`.
//! * **Incremental bounds** — the per-access re-classification evaluates
//!   `can-improve` and `upper-exp` through the closed-form τ-packing of
//!   `bounds::FeaturePlan`: `O(m)` preparation per access, then `O(1)` per
//!   candidate plus one term per `min`/`max` aggregate.  The termination
//!   value `ηup` is the running maximum of those bounds, maintained by the
//!   same sweep that re-classifies `Q+` for expansion.
//!
//! The pre-arena implementation (cloned candidates, state-cloning bounds,
//! sorted-key dedup map) is preserved verbatim in [`reference`](mod@reference) as the
//! executable specification: the `search_equivalence` integration suite
//! checks the two paths return identical packages and utilities (statistics
//! track each other up to floating-point ties at the ηlo pruning boundary),
//! and the `fig_pkgsearch` benchmark races them.

pub mod bounds;
pub mod exhaustive;
pub mod reference;

mod arena;

pub use bounds::{can_improve, upper_exp};
pub use exhaustive::top_k_packages_exhaustive;
pub use reference::top_k_packages_reference;

use pkgrec_topk::{RoundRobinCursor, SortedLists, TopKHeap};
use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::item::{Catalog, ItemId};
use crate::package::Package;
use crate::profile::AggregateFn;
use crate::utility::LinearUtility;

use arena::CandidateArena;
use bounds::{FeaturePlan, TauScalars};

/// Statistics of one `Top-k-Pkg` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of sorted accesses performed before the scan stopped.
    pub sorted_accesses: usize,
    /// Number of distinct items accessed.
    pub items_accessed: usize,
    /// Number of candidate packages created during expansion.
    pub candidates_created: usize,
    /// Whether the bound `ηup ≤ ηlo` closed the scan before the lists were
    /// exhausted.
    pub terminated_early: bool,
}

/// Running totals over many [`SearchStats`]: the per-session counters the
/// engine aggregates across every per-sample search, surfaced through
/// [`RecommenderState`](crate::recommender::RecommenderState) and
/// [`ElicitationReport`](crate::elicitation::ElicitationReport) so
/// performance work has a baseline to compare against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregatedSearchStats {
    /// Number of `Top-k-Pkg` runs aggregated.
    pub searches: usize,
    /// Number of pool slots whose discovery reused the packages of an
    /// earlier run under the same weight row instead of searching (see
    /// [`DiscoveryMemo`](crate::recommender::DiscoveryMemo)), so
    /// `searches + reused` is the number of slots discovered.
    pub reused: usize,
    /// Total sorted accesses across all runs.
    pub sorted_accesses: usize,
    /// Total distinct items accessed across all runs.
    pub items_accessed: usize,
    /// Total candidate packages created across all runs.
    pub candidates_created: usize,
    /// Number of runs that terminated on the bound test before exhausting the
    /// lists.
    pub early_terminations: usize,
}

impl AggregatedSearchStats {
    /// Folds one run's statistics into the totals.
    pub fn record(&mut self, stats: &SearchStats) {
        self.searches += 1;
        self.sorted_accesses += stats.sorted_accesses;
        self.items_accessed += stats.items_accessed;
        self.candidates_created += stats.candidates_created;
        if stats.terminated_early {
            self.early_terminations += 1;
        }
    }

    /// Merges another aggregate into this one (used to join per-thread
    /// accumulators).
    pub fn merge(&mut self, other: &AggregatedSearchStats) {
        self.searches += other.searches;
        self.reused += other.reused;
        self.sorted_accesses += other.sorted_accesses;
        self.items_accessed += other.items_accessed;
        self.candidates_created += other.candidates_created;
        self.early_terminations += other.early_terminations;
    }

    /// The totals accumulated since `baseline` was captured (saturating, so a
    /// reset between captures degrades gracefully to the current totals).
    pub fn delta_since(&self, baseline: &AggregatedSearchStats) -> AggregatedSearchStats {
        AggregatedSearchStats {
            searches: self.searches.saturating_sub(baseline.searches),
            reused: self.reused.saturating_sub(baseline.reused),
            sorted_accesses: self
                .sorted_accesses
                .saturating_sub(baseline.sorted_accesses),
            items_accessed: self.items_accessed.saturating_sub(baseline.items_accessed),
            candidates_created: self
                .candidates_created
                .saturating_sub(baseline.candidates_created),
            early_terminations: self
                .early_terminations
                .saturating_sub(baseline.early_terminations),
        }
    }

    /// Fraction of runs that terminated early (0 when nothing was recorded).
    pub fn early_termination_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.early_terminations as f64 / self.searches as f64
        }
    }
}

/// Result of a `Top-k-Pkg` run: the packages (best first, with utilities) and
/// the run statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// `(package, utility)` pairs ordered best-first.
    pub packages: Vec<(Package, f64)>,
    /// Run statistics.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Borrows the packages, best first, without cloning — for callers that
    /// only read.
    pub fn iter_packages(&self) -> impl Iterator<Item = &Package> + '_ {
        self.packages.iter().map(|(p, _)| p)
    }

    /// Consumes the result into its packages, best first, dropping the
    /// utilities without cloning any package.
    pub fn into_packages(self) -> Vec<Package> {
        self.packages.into_iter().map(|(p, _)| p).collect()
    }

    /// The packages without their scores, cloned; prefer
    /// [`SearchResult::iter_packages`] (read-only) or
    /// [`SearchResult::into_packages`] (owned) where they fit.
    pub fn packages_only(&self) -> Vec<Package> {
        self.packages.iter().map(|(p, _)| p.clone()).collect()
    }
}

/// Engineering safeguard on the size of the expandable candidate set `Q+`.
///
/// The paper's expansion phase keeps every utility-improving candidate; on
/// large catalogs with slowly closing bounds that set can grow combinatorially
/// before the `ηup ≤ ηlo` test fires.  Candidates whose optimistic bound
/// cannot beat the current `ηlo` are dropped (sound), and if `Q+` still
/// exceeds this cap only the candidates with the largest optimistic bounds are
/// kept (a beam restriction).
pub(crate) const MAX_EXPANDABLE_CANDIDATES: usize = 20_000;

/// Arena sizes below this are never compacted (compaction bookkeeping would
/// dominate on small scans).
const COMPACT_FLOOR: usize = 4_096;

/// Compaction triggers when the arena holds this many times more nodes than
/// the worst-case live set `|Q+| · φ`; the factor keeps the amortised
/// collection cost per created candidate constant.
const COMPACT_SLACK: usize = 8;

/// Reusable working memory for one `Top-k-Pkg` run: the candidate arena plus
/// every per-access buffer the scan touches.
///
/// One search allocates all of this from scratch; a loop that runs one search
/// per weight sample per round (the engine's ranking step) instead keeps a
/// `SearchScratch` per worker thread and passes it to
/// [`top_k_packages_with_scratch`], so after the first search of a chunk the
/// inner loop allocates nothing.  The scratch carries no state between
/// searches — every buffer is cleared or overwritten on entry — so results
/// are bit-identical to the fresh-allocation path.
#[derive(Debug, Default)]
pub struct SearchScratch {
    arena: Option<CandidateArena>,
    q_plus: Vec<u32>,
    next_q_plus: Vec<(u32, f64)>,
    seen: Vec<bool>,
    tau_point: Vec<f64>,
    item_mm: Vec<f64>,
    scratch_mm: Vec<f64>,
    items_buf: Vec<ItemId>,
}

impl SearchScratch {
    /// An empty scratch; buffers grow to the working-set size of the first
    /// search and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The `Top-k-Pkg` algorithm (Algorithm 2): returns the top-k packages for a
/// fixed utility function over the catalog, where package size ranges from 1
/// to the context's maximum package size φ.
///
/// Searches the catalog's own [`Catalog::sorted_lists`] index (built on the
/// catalog's first search, shared by every later one).
pub fn top_k_packages(
    utility: &LinearUtility,
    catalog: &Catalog,
    k: usize,
) -> Result<SearchResult> {
    top_k_packages_with_lists(utility, catalog, catalog.sorted_lists(), k)
}

/// [`top_k_packages`] over a prebuilt [`SortedLists`] index of the catalog.
///
/// The index is weight-independent (construction sorts each feature column
/// once), so one index serves every weight vector; the catalog keeps one
/// ([`Catalog::sorted_lists`]) for all samples, rounds and sessions.
///
/// # Panics
/// In debug builds, panics if the index does not match the catalog's shape.
pub fn top_k_packages_with_lists(
    utility: &LinearUtility,
    catalog: &Catalog,
    lists: &SortedLists,
    k: usize,
) -> Result<SearchResult> {
    let mut scratch = SearchScratch::new();
    top_k_packages_with_scratch(utility, catalog, lists, k, &mut scratch)
}

/// [`top_k_packages_with_lists`] with caller-owned working memory: the
/// allocation-free form for loops that search once per weight sample.  The
/// scratch is reset on entry, so any `SearchScratch` (fresh or reused) yields
/// results bit-identical to [`top_k_packages_with_lists`].
pub fn top_k_packages_with_scratch(
    utility: &LinearUtility,
    catalog: &Catalog,
    lists: &SortedLists,
    k: usize,
    scratch: &mut SearchScratch,
) -> Result<SearchResult> {
    let dim = utility.dim();
    debug_assert_eq!(lists.dim(), dim, "index dimensionality matches catalog");
    debug_assert_eq!(lists.len(), catalog.len(), "index length matches catalog");
    if k == 0 {
        return Ok(SearchResult {
            packages: Vec::new(),
            stats: SearchStats {
                sorted_accesses: 0,
                items_accessed: 0,
                candidates_created: 0,
                terminated_early: false,
            },
        });
    }
    let phi = utility.max_package_size();
    let plan = FeaturePlan::new(utility);
    // Effective query: the per-feature access direction follows the weight
    // sign; features with zero weight or a null aggregate contribute nothing
    // and are skipped by the round-robin cursor.
    let effective_query: Vec<f64> = (0..dim)
        .map(|j| {
            if utility.context().profile().aggregate(j) == AggregateFn::Null {
                0.0
            } else {
                utility.weights()[j]
            }
        })
        .collect();
    let mut cursor = RoundRobinCursor::for_query(lists, &effective_query);

    // Split the scratch into disjoint field borrows and restore every buffer
    // to its fresh-allocation state (the contents never survive between
    // searches, only the capacity does).
    let SearchScratch {
        arena: arena_slot,
        q_plus,
        next_q_plus,
        seen,
        tau_point,
        item_mm,
        scratch_mm,
        items_buf,
    } = scratch;
    let arena = arena_slot.get_or_insert_with(|| CandidateArena::new(plan.mm_len()));
    arena.reset(plan.mm_len());
    q_plus.clear();
    next_q_plus.clear();
    let mut best: TopKHeap<Vec<ItemId>> = TopKHeap::new(k);
    seen.clear();
    seen.resize(catalog.len(), false);
    let mut items_accessed = 0usize;
    let mut candidates_created = 0usize;
    let mut terminated_early = false;
    // Reusable per-access buffers: the loop allocates nothing once warm.
    tau_point.clear();
    tau_point.resize(dim, 0.0);
    let mut tau = TauScalars::default();
    item_mm.clear();
    item_mm.resize(plan.mm_len(), 0.0);
    scratch_mm.clear();
    scratch_mm.resize(plan.mm_len(), 0.0);

    // Offers a newly created candidate to the top-k heap, materialising its
    // item vector only if it would actually be retained (created candidate
    // sets are unique — each contains the newest item — so no dedup map is
    // needed).
    fn record(
        best: &mut TopKHeap<Vec<ItemId>>,
        arena: &CandidateArena,
        node: u32,
        items_buf: &mut Vec<ItemId>,
    ) {
        let utility = arena.utility(node);
        // `>=` rather than `would_accept`'s `>`: an equal score can still
        // evict on the heap's lexicographically-smaller-item-set tie-break,
        // exactly as the reference path's unconditional push does.
        let accept = !best.is_full() || best.threshold().map(|t| utility >= t).unwrap_or(true);
        if accept {
            arena.collect_items(node, items_buf);
            best.push(items_buf.clone(), utility);
        }
    }

    while let Some(access) = cursor.next_access() {
        if seen[access.id] {
            continue;
        }
        seen[access.id] = true;
        items_accessed += 1;
        let features = catalog.item_unchecked(access.id);
        cursor.write_boundary(tau_point);
        plan.prepare_tau(tau_point, &mut tau);
        let item_scalars = plan.point_scalars(features);
        plan.write_mm_values(features, item_mm);

        // Expansion phase (Algorithm 4): seed a singleton candidate for the
        // newly accessed item (seeding every singleton — rather than only
        // utility-improving ones — guarantees that packages whose first item
        // is individually unattractive can still be assembled), then try to
        // extend every expandable candidate with it.
        let first_new = arena.len() as u32;
        let singleton = arena.push_singleton(&plan, access.id, item_scalars, item_mm);
        candidates_created += 1;
        record(&mut best, arena, singleton, items_buf);
        for &node in q_plus.iter() {
            if arena.size(node) < phi {
                if let Some(extended) =
                    arena.try_extend(&plan, node, access.id, item_scalars, item_mm, scratch_mm)
                {
                    candidates_created += 1;
                    record(&mut best, arena, extended, items_buf);
                }
            }
        }

        // Re-classification sweep against the updated τ: every surviving or
        // new candidate either stays expandable (carrying its fresh bound) or
        // closes into Q−; ηup is the running maximum of the fresh bounds,
        // seeded by the empty-package bound so packages assembled purely from
        // unseen items are always covered.
        let mut eta_up = plan.empty_bound(&tau);
        next_q_plus.clear();
        for node in q_plus.iter().copied().chain(first_new..arena.len() as u32) {
            if let Some(bound) = plan.improvable_bound(&arena.scalars(node), &tau) {
                if bound > eta_up {
                    eta_up = bound;
                }
                next_q_plus.push((node, bound));
            }
        }

        // Termination test (Algorithm 2 line 8): ηlo is the utility of the
        // k-th best package found so far, or 0 while fewer than k exist.
        let eta_lo = if best.is_full() {
            best.threshold().unwrap_or(0.0)
        } else {
            0.0
        };
        // Candidates whose optimistic bound cannot beat ηlo are closed: no
        // extension of them (with items dominated by τ) can enter the top-k.
        if best.is_full() {
            next_q_plus.retain(|&(_, bound)| bound > eta_lo);
        }
        // Beam safeguard against combinatorial growth of Q+ (stable sort, so
        // equal bounds keep their discovery order).
        if next_q_plus.len() > MAX_EXPANDABLE_CANDIDATES {
            next_q_plus.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            next_q_plus.truncate(MAX_EXPANDABLE_CANDIDATES);
        }
        q_plus.clear();
        q_plus.extend(next_q_plus.iter().map(|&(node, _)| node));

        if eta_up <= eta_lo {
            terminated_early = true;
            break;
        }

        // Chains pin ancestors, so the arena only grows; compact it once the
        // dead fraction dominates the worst-case live set |Q+| · φ.
        let live_upper = q_plus.len() * phi + 1;
        if arena.len() > COMPACT_FLOOR && arena.len() > COMPACT_SLACK * live_upper {
            arena.compact(q_plus);
        }
    }

    let packages = best
        .into_sorted()
        .into_iter()
        .map(|(items, score)| {
            (
                Package::new(items).expect("candidates are non-empty"),
                score,
            )
        })
        .collect();
    Ok(SearchResult {
        packages,
        stats: SearchStats {
            sorted_accesses: cursor.accesses(),
            items_accessed,
            candidates_created,
            terminated_early,
        },
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{AggregationContext, Profile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn figure1_setup(weights: Vec<f64>) -> (Catalog, LinearUtility) {
        let catalog = Catalog::new(
            vec!["cost".into(), "rating".into()],
            vec![vec![0.6, 0.2], vec![0.4, 0.4], vec![0.2, 0.4]],
        )
        .unwrap();
        let ctx = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
        let u = LinearUtility::new(ctx, weights).unwrap();
        (catalog, u)
    }

    #[test]
    fn reproduces_figure2_top2_lists() {
        // Figure 2(d): the top-2 packages under each of the three weight
        // vectors of the running example.
        let cases = [
            (vec![0.5, 0.1], vec![vec![0, 1], vec![0, 2]]), // p4, p6
            (vec![0.1, 0.5], vec![vec![1, 2], vec![1]]),    // p5, p2
            (vec![0.1, 0.1], vec![vec![0, 1], vec![1, 2]]), // p4, p5
        ];
        for (weights, expected) in cases {
            let (catalog, u) = figure1_setup(weights.clone());
            let result = top_k_packages(&u, &catalog, 2).unwrap();
            let got: Vec<Vec<usize>> = result
                .packages
                .iter()
                .map(|(p, _)| p.items().to_vec())
                .collect();
            assert_eq!(got, expected, "weights {weights:?}");
        }
    }

    #[test]
    fn agrees_with_exhaustive_search_on_set_monotone_utilities() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..20 {
            let n = rng.gen_range(5..12);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let catalog = Catalog::from_rows(rows).unwrap();
            let profile = Profile::new(vec![AggregateFn::Sum, AggregateFn::Max, AggregateFn::Min]);
            let phi = rng.gen_range(1..4);
            let ctx = AggregationContext::new(profile, &catalog, phi).unwrap();
            // Weight signs chosen to keep the utility set-monotone.
            let weights = vec![
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                -rng.gen_range(0.0..1.0),
            ];
            let u = LinearUtility::new(ctx, weights).unwrap();
            assert!(u.is_set_monotone());
            let k = 4;
            let fast = top_k_packages(&u, &catalog, k).unwrap();
            let slow = top_k_packages_exhaustive(&u, &catalog, k).unwrap();
            let fast_scores: Vec<f64> = fast.packages.iter().map(|(_, s)| *s).collect();
            let slow_scores: Vec<f64> = slow.iter().map(|(_, s)| *s).collect();
            for (f, s) in fast_scores.iter().zip(slow_scores.iter()) {
                assert!(
                    (f - s).abs() < 1e-9,
                    "trial {trial}: utilities diverge: {fast_scores:?} vs {slow_scores:?}"
                );
            }
        }
    }

    #[test]
    fn never_returns_a_package_better_than_the_exhaustive_optimum() {
        let mut rng = StdRng::seed_from_u64(88);
        for _ in 0..20 {
            let n = rng.gen_range(5..10);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..2).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let catalog = Catalog::from_rows(rows).unwrap();
            let ctx = AggregationContext::new(Profile::cost_quality(), &catalog, 3).unwrap();
            let weights = vec![-rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            let u = LinearUtility::new(ctx, weights).unwrap();
            let fast = top_k_packages(&u, &catalog, 3).unwrap();
            let slow = top_k_packages_exhaustive(&u, &catalog, 3).unwrap();
            // Reported utilities are genuine (recomputation matches) and never
            // exceed the true optimum.
            for (package, score) in &fast.packages {
                let recomputed = u.of_package(&catalog, package).unwrap();
                assert!((recomputed - score).abs() < 1e-9);
                assert!(*score <= slow[0].1 + 1e-9);
            }
            // The cost/quality profile of the introduction is one of the cases
            // where the greedy expansion provably finds the best package: the
            // top-1 utilities must agree.
            assert!(
                (fast.packages[0].1 - slow[0].1).abs() < 1e-9,
                "top-1 mismatch: {} vs {}",
                fast.packages[0].1,
                slow[0].1
            );
        }
    }

    #[test]
    fn early_termination_on_large_catalogs() {
        let mut rng = StdRng::seed_from_u64(99);
        let rows: Vec<Vec<f64>> = (0..5000)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let catalog = Catalog::from_rows(rows).unwrap();
        let profile = Profile::new(vec![
            AggregateFn::Sum,
            AggregateFn::Avg,
            AggregateFn::Max,
            AggregateFn::Avg,
        ]);
        let ctx = AggregationContext::new(profile, &catalog, 5).unwrap();
        let u = LinearUtility::new(ctx, vec![-0.4, 0.6, 0.3, 0.2]).unwrap();
        let result = top_k_packages(&u, &catalog, 5).unwrap();
        assert_eq!(result.packages.len(), 5);
        assert!(result.stats.terminated_early);
        assert!(
            result.stats.items_accessed < catalog.len() / 2,
            "accessed {} of {} items",
            result.stats.items_accessed,
            catalog.len()
        );
    }

    #[test]
    fn zero_k_and_oversized_k_are_handled() {
        let (catalog, u) = figure1_setup(vec![0.5, 0.5]);
        assert!(top_k_packages(&u, &catalog, 0).unwrap().packages.is_empty());
        let all = top_k_packages(&u, &catalog, 50).unwrap();
        assert!(all.packages.len() <= 6);
        assert!(!all.packages.is_empty());
    }

    #[test]
    fn null_features_are_ignored_by_the_search() {
        let catalog = Catalog::from_rows(vec![
            vec![0.9, 0.5, 0.1],
            vec![0.1, 0.5, 0.9],
            vec![0.5, 0.5, 0.5],
        ])
        .unwrap();
        let profile = Profile::new(vec![AggregateFn::Sum, AggregateFn::Null, AggregateFn::Sum]);
        let ctx = AggregationContext::new(profile, &catalog, 2).unwrap();
        let u = LinearUtility::new(ctx, vec![1.0, 1.0, 0.0]).unwrap();
        // Only feature 0 matters: weight on the null feature is irrelevant and
        // feature 2 has zero weight.
        let result = top_k_packages(&u, &catalog, 1).unwrap();
        assert_eq!(result.packages[0].0, Package::new(vec![0, 2]).unwrap());
    }

    #[test]
    fn results_are_sorted_best_first_with_correct_utilities() {
        let (catalog, u) = figure1_setup(vec![-0.3, 0.8]);
        let result = top_k_packages(&u, &catalog, 6).unwrap();
        for pair in result.packages.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        for (p, s) in &result.packages {
            assert!((u.of_package(&catalog, p).unwrap() - s).abs() < 1e-12);
        }
    }

    #[test]
    fn arena_path_matches_the_clone_based_reference() {
        // Random instances across all aggregate kinds (including null) and
        // both set-monotone and non-monotone weight signs: the optimised path
        // must reproduce the reference's packages, utilities and statistics.
        let mut rng = StdRng::seed_from_u64(1234);
        let aggregates = [
            AggregateFn::Sum,
            AggregateFn::Avg,
            AggregateFn::Max,
            AggregateFn::Min,
            AggregateFn::Null,
        ];
        for trial in 0..40 {
            let dim = rng.gen_range(1..5);
            let n = rng.gen_range(3..15);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let catalog = Catalog::from_rows(rows).unwrap();
            let profile = crate::profile::Profile::new(
                (0..dim)
                    .map(|_| aggregates[rng.gen_range(0..aggregates.len())])
                    .collect(),
            );
            let phi = rng.gen_range(1..5);
            let ctx = AggregationContext::new(profile, &catalog, phi).unwrap();
            let weights: Vec<f64> = (0..dim)
                .map(|_| {
                    if rng.gen_range(0..5) == 0 {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect();
            let u = LinearUtility::new(ctx, weights).unwrap();
            let k = rng.gen_range(1..6);
            let fast = top_k_packages(&u, &catalog, k).unwrap();
            let reference = top_k_packages_reference(&u, &catalog, k).unwrap();
            assert_eq!(
                fast.packages.len(),
                reference.packages.len(),
                "trial {trial}"
            );
            for ((fp, fs), (rp, rs)) in fast.packages.iter().zip(reference.packages.iter()) {
                assert_eq!(fp, rp, "trial {trial}: packages diverge");
                assert!(
                    (fs - rs).abs() < 1e-9,
                    "trial {trial}: utilities diverge: {fs} vs {rs}"
                );
            }
            assert_eq!(fast.stats, reference.stats, "trial {trial}");
        }
    }

    #[test]
    fn a_reused_scratch_is_bit_identical_to_fresh_allocation() {
        // One scratch driven across many searches of wildly different shapes
        // (dimensionality, catalog size, φ, aggregate mix) must reproduce the
        // fresh-allocation path exactly — packages, utilities and statistics.
        let mut rng = StdRng::seed_from_u64(4242);
        let aggregates = [
            AggregateFn::Sum,
            AggregateFn::Avg,
            AggregateFn::Max,
            AggregateFn::Min,
            AggregateFn::Null,
        ];
        let mut scratch = SearchScratch::new();
        for trial in 0..30 {
            let dim = rng.gen_range(1..5);
            let n = rng.gen_range(3..20);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let catalog = Catalog::from_rows(rows).unwrap();
            let profile = crate::profile::Profile::new(
                (0..dim)
                    .map(|_| aggregates[rng.gen_range(0..aggregates.len())])
                    .collect(),
            );
            let phi = rng.gen_range(1..5);
            let ctx = AggregationContext::new(profile, &catalog, phi).unwrap();
            let weights: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let u = LinearUtility::new(ctx, weights).unwrap();
            let k = rng.gen_range(1..6);
            let lists = SortedLists::new(catalog.rows());
            let fresh = top_k_packages_with_lists(&u, &catalog, &lists, k).unwrap();
            let reused =
                top_k_packages_with_scratch(&u, &catalog, &lists, k, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "trial {trial}");
        }
    }

    #[test]
    fn prebuilt_lists_give_identical_results() {
        let (catalog, u) = figure1_setup(vec![-0.3, 0.8]);
        let lists = pkgrec_topk::SortedLists::new(catalog.rows());
        let fresh = top_k_packages(&u, &catalog, 4).unwrap();
        let shared = top_k_packages_with_lists(&u, &catalog, &lists, 4).unwrap();
        assert_eq!(fresh, shared);
        // The index survives reuse under a different weight vector.
        let (_, u2) = figure1_setup(vec![0.5, 0.1]);
        let reused = top_k_packages_with_lists(&u2, &catalog, &lists, 2).unwrap();
        assert_eq!(reused, top_k_packages(&u2, &catalog, 2).unwrap());
    }

    #[test]
    fn aggregated_stats_accumulate_and_report_rates() {
        let (catalog, u) = figure1_setup(vec![0.5, 0.1]);
        let result = top_k_packages(&u, &catalog, 2).unwrap();
        let mut agg = AggregatedSearchStats::default();
        assert_eq!(agg.early_termination_rate(), 0.0);
        agg.record(&result.stats);
        agg.record(&result.stats);
        assert_eq!(agg.searches, 2);
        assert_eq!(agg.sorted_accesses, 2 * result.stats.sorted_accesses);
        let mut merged = AggregatedSearchStats::default();
        merged.merge(&agg);
        assert_eq!(merged, agg);
        let delta = merged.delta_since(&agg);
        assert_eq!(delta.searches, 0);
        let full = merged.delta_since(&AggregatedSearchStats::default());
        assert_eq!(full, merged);
        let rate = agg.early_termination_rate();
        assert!((0.0..=1.0).contains(&rate));
    }
}
