//! Exact top-k packages for the precision metric, computed apart from the
//! search the engine serves with.
//!
//! Under a profile of `Sum` and `Avg` aggregates a package's utility, once
//! its size `s` is fixed, is a sum over its items:
//! `Σ_j w_j · agg_j / z_j` with `agg_j = Σ_i f_ij` (Sum) or `Σ_i f_ij / s`
//! (Avg).  So for each size the items can be ranked by their own score at
//! that size, and the `k` best `s`-subsets all lie among the `s + k − 1`
//! best items: a subset holding an item ranked lower leaves at least `k`
//! better-ranked items outside it, and swapping any of them in gives `k`
//! distinct subsets at least as good.  The oracle enumerates those subsets,
//! rescores them with [`LinearUtility::of_package`] and merges the sizes.

use pkgrec_core::{AggregateFn, Catalog, LinearUtility, Package};

/// The exact top-`k` packages of `utility` over `catalog`, best first, ties
/// broken by package order as `top_k_packages_exhaustive` breaks them.
///
/// # Panics
/// Panics if the profile has an aggregate other than `Sum` or `Avg`.
pub fn exact_top_k(utility: &LinearUtility, catalog: &Catalog, k: usize) -> Vec<(Package, f64)> {
    let context = utility.context();
    let aggregates = context.profile().aggregates();
    assert!(
        aggregates
            .iter()
            .all(|a| matches!(a, AggregateFn::Sum | AggregateFn::Avg)),
        "the exact oracle covers Sum/Avg profiles only"
    );
    let n = catalog.len();
    let phi = context.max_package_size().min(n);
    let norm = context.normalizers();
    let weights = utility.weights();
    let mut scored: Vec<(Package, f64)> = Vec::new();
    if k == 0 {
        return scored;
    }
    for size in 1..=phi {
        let item_score = |row: &[f64]| -> f64 {
            (0..weights.len())
                .map(|j| {
                    if norm[j] <= 0.0 {
                        return 0.0;
                    }
                    let divisor = match aggregates[j] {
                        AggregateFn::Avg => norm[j] * size as f64,
                        _ => norm[j],
                    };
                    weights[j] * row[j] / divisor
                })
                .sum()
        };
        let mut order: Vec<(f64, usize)> = catalog
            .iter()
            .map(|(id, row)| (item_score(row), id))
            .collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut keep = (size + k - 1).min(n);
        // Items tied with the last kept one are equally eligible.
        while keep < n && order[keep].0 == order[keep - 1].0 {
            keep += 1;
        }
        let items: Vec<usize> = order[..keep].iter().map(|&(_, id)| id).collect();
        for_each_subset(&items, size, &mut |subset| {
            let package = Package::new(subset.to_vec()).expect("subsets are non-empty");
            let value = utility
                .of_package(catalog, &package)
                .expect("subsets fit the catalog and φ");
            scored.push((package, value));
        });
    }
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// Calls `visit` with every `size`-subset of `items` (in lexicographic
/// position order).
fn for_each_subset(items: &[usize], size: usize, visit: &mut dyn FnMut(&[usize])) {
    fn walk(
        items: &[usize],
        size: usize,
        from: usize,
        chosen: &mut Vec<usize>,
        visit: &mut dyn FnMut(&[usize]),
    ) {
        if chosen.len() == size {
            visit(chosen);
            return;
        }
        let missing = size - chosen.len();
        for at in from..(items.len() + 1).saturating_sub(missing) {
            chosen.push(items[at]);
            walk(items, size, at + 1, chosen, visit);
            chosen.pop();
        }
    }
    walk(items, size, 0, &mut Vec::with_capacity(size), visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_core::{top_k_packages_exhaustive, AggregationContext, Profile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_catalog(rng: &mut StdRng, items: usize) -> Catalog {
        Catalog::from_rows(
            (0..items)
                .map(|_| vec![rng.gen_range(0.01..1.0), rng.gen_range(0.01..1.0)])
                .collect(),
        )
        .unwrap()
    }

    fn agrees_with_exhaustive(profile: Profile, cases: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..cases {
            let items = rng.gen_range(3..14usize);
            let phi = rng.gen_range(1..4usize);
            let k = rng.gen_range(1..8usize);
            let catalog = random_catalog(&mut rng, items);
            let context = AggregationContext::new(profile.clone(), &catalog, phi).unwrap();
            let weights = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
            let utility = LinearUtility::new(context, weights.clone()).unwrap();
            let exact = exact_top_k(&utility, &catalog, k);
            let exhaustive = top_k_packages_exhaustive(&utility, &catalog, k).unwrap();
            assert_eq!(
                exact, exhaustive,
                "case {case}: n {items}, φ {phi}, k {k}, w {weights:?}"
            );
        }
    }

    #[test]
    fn matches_exhaustive_search_under_cost_quality() {
        agrees_with_exhaustive(Profile::cost_quality(), 400, 1);
    }

    #[test]
    fn matches_exhaustive_search_under_all_sum_and_all_avg() {
        agrees_with_exhaustive(Profile::all_sum(2), 300, 2);
        agrees_with_exhaustive(Profile::all_avg(2), 300, 3);
    }

    #[test]
    fn finds_the_best_package_the_served_search_can_miss() {
        // Sixty items of a uniform catalog with φ 2, as in the fault the
        // benchmark's notes record: the exact answer is whatever exhaustive
        // enumeration says, never fewer than k packages.
        let mut rng = StdRng::seed_from_u64(60);
        let catalog = random_catalog(&mut rng, 60);
        let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
        let utility = LinearUtility::new(context, vec![-0.42, -0.92]).unwrap();
        let exact = exact_top_k(&utility, &catalog, 5);
        assert_eq!(exact.len(), 5);
        assert_eq!(
            exact,
            top_k_packages_exhaustive(&utility, &catalog, 5).unwrap()
        );
    }

    #[test]
    fn subsets_are_enumerated_once_each() {
        let mut seen = Vec::new();
        for_each_subset(&[4, 7, 9, 11], 2, &mut |s| seen.push(s.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![4, 7],
                vec![4, 9],
                vec![4, 11],
                vec![7, 9],
                vec![7, 11],
                vec![9, 11]
            ]
        );
    }
}
