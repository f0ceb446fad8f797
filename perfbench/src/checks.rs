//! Output checks, run after the timed phase.  Each returns an error naming
//! the session (by its plan index) whose output is wrong.

use std::collections::HashSet;

use pkgrec_core::{package_space_size, Package, RankedPackage};

use crate::workload::SessionPlan;

/// Everything one session received, in request order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTrace {
    pub index: usize,
    /// The id the execution assigned (differs between executions).
    pub id: u64,
    pub shown: Vec<Vec<Package>>,
    pub clicks: Vec<usize>,
    pub preferences: Vec<usize>,
    pub recommendation: Vec<RankedPackage>,
    /// Whether an operation of the session failed (its outputs are partial).
    pub failed: bool,
}

fn package_fits(package: &Package, n: usize, phi: usize) -> Result<(), String> {
    let items = package.items();
    if items.is_empty() {
        return Err("an empty package".into());
    }
    if items.len() > phi {
        return Err(format!("package {package} exceeds φ = {phi}"));
    }
    if let Some(item) = items.iter().find(|&&i| i >= n) {
        return Err(format!("package {package} names item {item} of {n}"));
    }
    let distinct: HashSet<_> = items.iter().collect();
    if distinct.len() != items.len() {
        return Err(format!("package {package} repeats an item"));
    }
    Ok(())
}

fn all_distinct<'a>(packages: impl Iterator<Item = &'a Package>) -> Result<(), String> {
    let mut seen = HashSet::new();
    for package in packages {
        if !seen.insert(package) {
            return Err(format!("package {package} appears twice"));
        }
    }
    Ok(())
}

/// Every shown list holds `k + num_random` distinct packages, or fewer only
/// when the package space is smaller; every package is non-empty and holds
/// at most φ distinct in-range items.  A fixed-cardinality baseline shows
/// between one and `k` packages of exactly its cardinality.
pub fn check_shown(plan: &SessionPlan, shown: &[Package]) -> Result<(), String> {
    let n = plan.config.catalog.len();
    let phi = plan.config.max_package_size;
    let fail = |what: String| Err(format!("session {}: shown list {what}", plan.index));
    match plan.cardinality {
        Some(cardinality) => {
            if shown.is_empty() || shown.len() > plan.k {
                return fail(format!(
                    "holds {} packages, want 1..={}",
                    shown.len(),
                    plan.k
                ));
            }
            if let Some(p) = shown.iter().find(|p| p.len() != cardinality) {
                return fail(format!("holds {p}, want {cardinality} items"));
            }
        }
        None => {
            let space = package_space_size(n, phi);
            let want = (plan.shown_len as u128).min(space) as usize;
            if shown.len() != want {
                return fail(format!("holds {} packages, want {want}", shown.len()));
            }
        }
    }
    for package in shown {
        if let Err(e) = package_fits(package, n, phi) {
            return fail(e);
        }
    }
    all_distinct(shown.iter()).or_else(fail)
}

/// A recommendation holds at most `k` distinct, valid packages whose scores
/// never increase.
pub fn check_recommendation(plan: &SessionPlan, ranked: &[RankedPackage]) -> Result<(), String> {
    let n = plan.config.catalog.len();
    let phi = plan.config.max_package_size;
    let fail = |what: String| Err(format!("session {}: recommendation {what}", plan.index));
    if ranked.len() > plan.k {
        return fail(format!(
            "holds {} packages, want at most {}",
            ranked.len(),
            plan.k
        ));
    }
    for r in ranked {
        if let Err(e) = package_fits(&r.package, n, phi) {
            return fail(e);
        }
        if !r.score.is_finite() {
            return fail(format!("scores {} as {}", r.package, r.score));
        }
    }
    if let Some(pair) = ranked.windows(2).find(|w| w[1].score > w[0].score) {
        return fail(format!(
            "ranks {} ({}) above {} ({})",
            pair[0].package, pair[0].score, pair[1].package, pair[1].score
        ));
    }
    all_distinct(ranked.iter().map(|r| &r.package)).or_else(fail)
}

/// Two executions of one session returned identical results.
pub fn check_same(
    what: &str,
    expected: &SessionTrace,
    actual: &SessionTrace,
) -> Result<(), String> {
    let index = expected.index;
    if expected.shown != actual.shown {
        let round = expected
            .shown
            .iter()
            .zip(&actual.shown)
            .position(|(a, b)| a != b)
            .unwrap_or(expected.shown.len().min(actual.shown.len()));
        return Err(format!(
            "session {index}: {what} shows differently at present {round}"
        ));
    }
    if expected.clicks != actual.clicks || expected.preferences != actual.preferences {
        return Err(format!(
            "session {index}: {what} records feedback differently"
        ));
    }
    if expected.recommendation != actual.recommendation {
        return Err(format!("session {index}: {what} recommends differently"));
    }
    Ok(())
}

/// After the unclean stop and reopen, a session recommends exactly what it
/// did before.
pub fn check_recovered(
    index: usize,
    before: &[RankedPackage],
    after: &[RankedPackage],
) -> Result<(), String> {
    if before != after {
        return Err(format!(
            "session {index}: recommends {} packages after recovery, differently from before",
            after.len()
        ));
    }
    Ok(())
}

/// The server answered every request, and the store created exactly the
/// sessions that were asked for.
pub fn check_server(
    error_responses: usize,
    timeouts: usize,
    created: usize,
    asked: usize,
) -> Result<(), String> {
    if error_responses != 0 || timeouts != 0 {
        return Err(format!(
            "server: {error_responses} error replies and {timeouts} timeouts"
        ));
    }
    if created != asked {
        return Err(format!(
            "server: store created {created} sessions, {asked} asked"
        ));
    }
    Ok(())
}

/// Elicitation helps: mean final precision beats the mean precision of each
/// session's first recommendation.
pub fn check_precision_gain(first: f64, last: f64) -> Result<(), String> {
    if last > first {
        Ok(())
    } else {
        Err(format!(
            "precision: final {last:.4} does not exceed the first round's {first:.4}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{inputs, Workload};

    fn plans(workload: &str) -> Vec<SessionPlan> {
        inputs(&Workload::named(workload).unwrap(), 1, 8).timed
    }

    fn package(items: &[usize]) -> Package {
        Package::new(items.to_vec()).unwrap()
    }

    fn ranked(items: &[usize], score: f64) -> RankedPackage {
        RankedPackage {
            package: package(items),
            score,
        }
    }

    fn good_shown(plan: &SessionPlan) -> Vec<Package> {
        (0..plan.shown_len).map(|i| package(&[i, i + 1])).collect()
    }

    #[test]
    fn a_full_shown_list_passes() {
        let plan = &plans("storefront")[0];
        assert_eq!(check_shown(plan, &good_shown(plan)), Ok(()));
    }

    #[test]
    fn a_short_shown_list_fails() {
        let plan = &plans("storefront")[0];
        let mut shown = good_shown(plan);
        shown.pop();
        assert!(check_shown(plan, &shown).unwrap_err().contains("session 0"));
    }

    #[test]
    fn a_repeated_shown_package_fails() {
        let plan = &plans("storefront")[1];
        let mut shown = good_shown(plan);
        shown[1] = shown[0].clone();
        assert!(check_shown(plan, &shown).unwrap_err().contains("twice"));
    }

    #[test]
    fn an_oversized_or_out_of_range_package_fails() {
        let plan = &plans("storefront")[0];
        let mut shown = good_shown(plan);
        shown[0] = package(&[1, 2, 3]);
        assert!(check_shown(plan, &shown).unwrap_err().contains("φ"));
        let mut shown = good_shown(plan);
        shown[0] = package(&[plan.config.catalog.len()]);
        assert!(check_shown(plan, &shown)
            .unwrap_err()
            .contains("names item"));
    }

    #[test]
    fn a_wire_package_with_a_repeated_item_fails() {
        // Packages off the wire bypass `Package::new`'s de-duplication.
        let plan = &plans("storefront")[0];
        let mut shown = good_shown(plan);
        shown[0] = serde_json::from_str(r#"{"items":[3,3]}"#).unwrap();
        assert!(check_shown(plan, &shown).unwrap_err().contains("repeats"));
    }

    #[test]
    fn a_skyline_list_of_the_wrong_cardinality_fails() {
        let plan = &plans("storefront")[6];
        assert_eq!(plan.cardinality, Some(2));
        assert_eq!(check_shown(plan, &[package(&[1, 2])]), Ok(()));
        assert!(check_shown(plan, &[package(&[1])]).is_err());
        assert!(check_shown(plan, &[]).is_err());
    }

    #[test]
    fn recommendations_must_be_short_distinct_and_sorted() {
        let plan = &plans("storefront")[0];
        let good = vec![ranked(&[1], 0.9), ranked(&[2], 0.5), ranked(&[1, 2], 0.5)];
        assert_eq!(check_recommendation(plan, &good), Ok(()));
        let rising = vec![ranked(&[1], 0.1), ranked(&[2], 0.5)];
        assert!(check_recommendation(plan, &rising)
            .unwrap_err()
            .contains("above"));
        let twice = vec![ranked(&[1], 0.9), ranked(&[1], 0.5)];
        assert!(check_recommendation(plan, &twice)
            .unwrap_err()
            .contains("twice"));
        let long: Vec<RankedPackage> = (0..4).map(|i| ranked(&[i], 1.0)).collect();
        assert!(check_recommendation(plan, &long)
            .unwrap_err()
            .contains("at most"));
        let nan = vec![ranked(&[1], f64::NAN)];
        assert!(check_recommendation(plan, &nan).is_err());
    }

    #[test]
    fn diverging_executions_fail() {
        let plan = &plans("storefront")[0];
        let expected = SessionTrace {
            index: 7,
            id: 9,
            shown: vec![good_shown(plan), good_shown(plan)],
            clicks: vec![1],
            preferences: vec![4],
            recommendation: vec![ranked(&[1], 0.5)],
            failed: false,
        };
        assert_eq!(check_same("replay", &expected, &expected.clone()), Ok(()));
        let mut shown = expected.clone();
        shown.shown[1][0] = package(&[9]);
        assert!(check_same("replay", &expected, &shown)
            .unwrap_err()
            .contains("session 7: replay shows differently at present 1"));
        let mut clicked = expected.clone();
        clicked.preferences[0] = 3;
        assert!(check_same("replay", &expected, &clicked).is_err());
        let mut recommended = expected.clone();
        recommended.recommendation[0].score = 0.25;
        assert!(check_same("replay", &expected, &recommended).is_err());
    }

    #[test]
    fn a_changed_recommendation_after_recovery_fails() {
        let before = vec![ranked(&[1], 0.5)];
        assert_eq!(check_recovered(3, &before, &before), Ok(()));
        let after = vec![ranked(&[2], 0.5)];
        assert!(check_recovered(3, &before, &after)
            .unwrap_err()
            .contains("session 3"));
    }

    #[test]
    fn server_errors_timeouts_and_lost_creates_fail() {
        assert_eq!(check_server(0, 0, 10, 10), Ok(()));
        assert!(check_server(1, 0, 10, 10).is_err());
        assert!(check_server(0, 2, 10, 10).is_err());
        assert!(check_server(0, 0, 9, 10).is_err());
    }

    #[test]
    fn elicitation_that_does_not_help_fails() {
        assert_eq!(check_precision_gain(0.3, 0.6), Ok(()));
        assert!(check_precision_gain(0.6, 0.6).is_err());
        assert!(check_precision_gain(0.6, 0.3).is_err());
    }
}
