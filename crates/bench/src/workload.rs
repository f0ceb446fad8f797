//! Workload builders shared by all experiments.
//!
//! The paper's experiments combine
//!
//! * a dataset (UNI / PWR / COR / ANT synthetic families or the NBA catalog),
//! * an aggregation profile over its features,
//! * a hidden ground-truth weight vector used to orient preferences,
//! * a set of pairwise package preferences consistent with that ground truth
//!   (so the feedback region is never empty), and
//! * a Gaussian-mixture prior over weight vectors.
//!
//! [`Workload`] bundles those pieces and every experiment module builds its
//! variations through [`WorkloadConfig`].

use pkgrec_core::constraints::{ConstraintChecker, ConstraintSource};
use pkgrec_core::preferences::Preference;
use pkgrec_core::profile::{AggregateFn, AggregationContext, Profile};
use pkgrec_core::{Catalog, LinearUtility, Package};
use pkgrec_data::{synthetic_nba, Dataset, SyntheticFamily};
use pkgrec_gmm::GaussianMixture;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// The datasets of Section 5: four synthetic families plus the NBA catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetId {
    /// Independent uniform features.
    Uni,
    /// Independent power-law features (α = 2.5).
    Pwr,
    /// Correlated features.
    Cor,
    /// Anti-correlated features.
    Ant,
    /// Synthetic NBA career statistics (3705 × 10).
    Nba,
}

impl DatasetId {
    /// All five datasets in the order the paper's figures present them.
    pub fn all() -> [DatasetId; 5] {
        [
            DatasetId::Uni,
            DatasetId::Pwr,
            DatasetId::Cor,
            DatasetId::Ant,
            DatasetId::Nba,
        ]
    }

    /// The dataset's short name as used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Uni => "UNI",
            DatasetId::Pwr => "PWR",
            DatasetId::Cor => "COR",
            DatasetId::Ant => "ANT",
            DatasetId::Nba => "NBA",
        }
    }
}

/// Generates the raw dataset for a [`DatasetId`].
///
/// `rows` is ignored for NBA (which always has 3705 rows, like the original);
/// synthetic datasets are generated with 10 features and trimmed later.
pub fn build_dataset(id: DatasetId, rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    match id {
        DatasetId::Uni => SyntheticFamily::Uniform
            .generate(rows, 10, &mut rng)
            .expect("valid shape"),
        DatasetId::Pwr => SyntheticFamily::PowerLaw
            .generate(rows, 10, &mut rng)
            .expect("valid shape"),
        DatasetId::Cor => SyntheticFamily::Correlated
            .generate(rows, 10, &mut rng)
            .expect("valid shape"),
        DatasetId::Ant => SyntheticFamily::AntiCorrelated
            .generate(rows, 10, &mut rng)
            .expect("valid shape"),
        DatasetId::Nba => synthetic_nba(&mut rng).expect("valid shape"),
    }
}

/// Converts a dataset (restricted to its first `features` columns) into a
/// normalised item catalog.
pub fn dataset_catalog(dataset: &Dataset, features: usize) -> Catalog {
    let projected = dataset
        .project_features(features.min(dataset.num_features()))
        .expect("at least one feature requested");
    let normalized = projected.normalized();
    Catalog::from_rows(normalized.rows().to_vec()).expect("datasets are non-empty")
}

/// Configuration of a benchmark workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Which dataset to use.
    pub dataset: DatasetId,
    /// Number of rows for synthetic datasets.
    pub rows: usize,
    /// Number of features (2–10).
    pub features: usize,
    /// Maximum package size φ.
    pub max_package_size: usize,
    /// Number of pairwise preferences to generate.
    pub preferences: usize,
    /// Number of Gaussians in the prior mixture.
    pub gaussians: usize,
    /// Standard deviation of each prior component.
    pub prior_sigma: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            dataset: DatasetId::Uni,
            rows: 10_000,
            features: 5,
            max_package_size: 5,
            preferences: 10,
            gaussians: 1,
            prior_sigma: 0.5,
            seed: 20140901,
        }
    }
}

/// A fully materialised experiment workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The configuration it was built from.
    pub config: WorkloadConfig,
    /// The normalised item catalog.
    pub catalog: Catalog,
    /// The aggregation context (profile + normalisers + φ).
    pub context: AggregationContext,
    /// The hidden ground-truth weight vector.
    pub ground_truth: Vec<f64>,
    /// Pairwise package preferences consistent with the ground truth.
    pub preferences: Vec<Preference>,
    /// The Gaussian-mixture prior over weight vectors.
    pub prior: GaussianMixture,
}

/// The profile the experiments use: alternating `sum` / `avg` aggregates, the
/// two aggregation styles the paper's examples rely on.
pub fn experiment_profile(features: usize) -> Profile {
    Profile::new(
        (0..features)
            .map(|j| {
                if j % 2 == 0 {
                    AggregateFn::Sum
                } else {
                    AggregateFn::Avg
                }
            })
            .collect(),
    )
}

/// Generates `count` pairwise preferences between random packages, oriented by
/// the ground-truth utility so that the induced constraint region is never
/// empty (the ground truth itself always satisfies them).
pub fn consistent_preferences(
    context: &AggregationContext,
    catalog: &Catalog,
    ground_truth: &[f64],
    count: usize,
    rng: &mut dyn RngCore,
) -> Vec<Preference> {
    let utility = LinearUtility::new(context.clone(), ground_truth.to_vec())
        .expect("ground truth has the catalog dimensionality");
    let phi = context.max_package_size().min(catalog.len());
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let a = random_package(catalog.len(), phi, rng);
        let b = random_package(catalog.len(), phi, rng);
        if a == b {
            continue;
        }
        let va = context.package_vector(catalog, &a).expect("package fits φ");
        let vb = context.package_vector(catalog, &b).expect("package fits φ");
        let ua = utility.of_vector(&va);
        let ub = utility.of_vector(&vb);
        if (ua - ub).abs() < 1e-12 {
            continue;
        }
        let (better, worse) = if ua > ub { (va, vb) } else { (vb, va) };
        out.push(Preference::new(better, worse));
    }
    out
}

/// Draws a uniformly random package of size `1..=phi`.
pub fn random_package(n: usize, phi: usize, rng: &mut dyn RngCore) -> Package {
    pkgrec_core::package::random_package(n, phi, rng)
}

impl Workload {
    /// Builds the workload described by `config`.
    pub fn build(config: WorkloadConfig) -> Workload {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let dataset = build_dataset(config.dataset, config.rows, config.seed);
        let catalog = dataset_catalog(&dataset, config.features);
        let profile = experiment_profile(catalog.num_features());
        let context = AggregationContext::new(profile, &catalog, config.max_package_size)
            .expect("profile matches catalog");
        let ground_truth: Vec<f64> = (0..catalog.num_features())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let preferences = consistent_preferences(
            &context,
            &catalog,
            &ground_truth,
            config.preferences,
            &mut rng,
        );
        let prior = GaussianMixture::default_prior(
            catalog.num_features(),
            config.gaussians.max(1),
            config.prior_sigma,
        )
        .expect("valid prior configuration");
        Workload {
            config,
            catalog,
            context,
            ground_truth,
            preferences,
            prior,
        }
    }

    /// A constraint checker over the full preference set.
    pub fn checker(&self) -> ConstraintChecker {
        ConstraintChecker::from_constraints(
            self.catalog.num_features(),
            self.preferences
                .iter()
                .map(Preference::constraint)
                .collect(),
            ConstraintSource::Full,
        )
    }

    /// A seeded RNG derived from the workload seed (offset so different call
    /// sites do not reuse the generation stream).
    pub fn rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x9E3779B9)
                .wrapping_add(stream),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_names_and_order() {
        assert_eq!(DatasetId::all().len(), 5);
        assert_eq!(DatasetId::Uni.name(), "UNI");
        assert_eq!(DatasetId::Nba.name(), "NBA");
    }

    #[test]
    fn build_dataset_shapes() {
        let uni = build_dataset(DatasetId::Uni, 200, 1);
        assert_eq!(uni.len(), 200);
        assert_eq!(uni.num_features(), 10);
        let nba = build_dataset(DatasetId::Nba, 42, 1);
        assert_eq!(nba.len(), 3705);
    }

    #[test]
    fn catalog_projection_and_normalisation() {
        let d = build_dataset(DatasetId::Cor, 100, 2);
        let catalog = dataset_catalog(&d, 4);
        assert_eq!(catalog.num_features(), 4);
        assert_eq!(catalog.len(), 100);
        for max in catalog.feature_maxima() {
            assert!(max <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn consistent_preferences_are_satisfied_by_the_ground_truth() {
        let workload = Workload::build(WorkloadConfig {
            rows: 200,
            features: 4,
            preferences: 50,
            ..WorkloadConfig::default()
        });
        assert_eq!(workload.preferences.len(), 50);
        for p in &workload.preferences {
            assert!(
                p.satisfied_by(&workload.ground_truth),
                "ground truth violates a generated preference"
            );
        }
        let checker = workload.checker();
        assert!(checker.is_valid(&workload.ground_truth));
    }

    #[test]
    fn experiment_profile_alternates_sum_and_avg() {
        let p = experiment_profile(4);
        assert_eq!(p.aggregate(0), AggregateFn::Sum);
        assert_eq!(p.aggregate(1), AggregateFn::Avg);
        assert_eq!(p.aggregate(2), AggregateFn::Sum);
        assert_eq!(p.aggregate(3), AggregateFn::Avg);
    }

    #[test]
    fn random_packages_have_valid_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = random_package(20, 4, &mut rng);
            assert!(!p.is_empty() && p.len() <= 4);
        }
    }

    #[test]
    fn workload_is_reproducible() {
        let a = Workload::build(WorkloadConfig {
            rows: 100,
            features: 3,
            preferences: 5,
            ..WorkloadConfig::default()
        });
        let b = Workload::build(WorkloadConfig {
            rows: 100,
            features: 3,
            preferences: 5,
            ..WorkloadConfig::default()
        });
        assert_eq!(a.ground_truth, b.ground_truth);
        assert_eq!(a.preferences.len(), b.preferences.len());
        assert_eq!(a.catalog.rows(), b.catalog.rows());
    }
}
