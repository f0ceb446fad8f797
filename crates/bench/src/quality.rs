//! Section 5.4 — sample quality: agreement of the top-5 package lists across
//! sampling methods and ranking semantics.
//!
//! The paper reports that, with enough samples, the top-package lists produced
//! by the different sampling strategies become very similar, and that TKP and
//! MPO tend to agree with each other more than with EXP.  The harness measures
//! exactly that: Jaccard overlap of the top-5 sets between every pair of
//! samplers (per semantics) and between every pair of semantics (per sampler).
//!
//! The experiment drives the public engine surface: one engine per sampler is
//! restored from a [`SessionSnapshot`] carrying the workload's pre-generated
//! preference set (the state-injection seam a serving layer would use), and
//! the per-sample rankings come from
//! [`RecommenderEngine::per_sample_rankings`].

use std::collections::HashMap;

use pkgrec_core::engine::EngineConfig;
use pkgrec_core::ranking::{aggregate, RankingSemantics};
use pkgrec_core::sampler::{
    ImportanceSampler, McmcSampler, RejectionSampler, SamplePool, SamplerKind,
};
use pkgrec_core::snapshot::{SessionSnapshot, SNAPSHOT_VERSION};
use pkgrec_core::{Package, PreferenceStore, RecommenderEngine};
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::workload::{Workload, WorkloadConfig};

/// Configuration of the sample-quality experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityConfig {
    /// Number of samples per sampler (paper: 5000).
    pub samples: usize,
    /// Number of preferences received (paper: 1000; scaled down by default).
    pub preferences: usize,
    /// Number of features (paper: 4).
    pub features: usize,
    /// Number of Gaussians in the prior (paper: 2).
    pub gaussians: usize,
    /// Catalog size.
    pub rows: usize,
    /// Size of the compared top lists (paper: 5).
    pub k: usize,
    /// σ used by the TKP semantics.
    pub sigma: usize,
    /// Random seed.
    pub seed: u64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            samples: 2_000,
            preferences: 20,
            features: 4,
            gaussians: 2,
            rows: 5_000,
            k: 5,
            sigma: 5,
            seed: 54,
        }
    }
}

/// Top-k lists per (sampler, semantics) pair plus pairwise overlaps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityResult {
    /// Top-k package keys per sampler per semantics.
    pub lists: HashMap<String, Vec<String>>,
    /// Jaccard overlap between samplers under the same semantics.
    pub sampler_agreement: Vec<(String, String, f64)>,
    /// Jaccard overlap between semantics under the same sampler.
    pub semantics_agreement: Vec<(String, String, f64)>,
}

fn jaccard(a: &[Package], b: &[Package]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::HashSet<&Package> = a.iter().collect();
    let sb: std::collections::HashSet<&Package> = b.iter().collect();
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

/// Runs the sample-quality experiment.
pub fn run(config: &QualityConfig) -> QualityResult {
    let workload = Workload::build(WorkloadConfig {
        rows: config.rows,
        features: config.features,
        preferences: config.preferences,
        gaussians: config.gaussians,
        seed: config.seed,
        ..WorkloadConfig::default()
    });
    // Inject the workload's pre-generated preferences through the session-
    // snapshot seam.  Each preference links two fresh nodes, so the reduced
    // constraint set equals the workload's full constraint set.
    let mut store = PreferenceStore::new();
    for (i, p) in workload.preferences.iter().enumerate() {
        store
            .add(format!("b{i}"), &p.better, format!("w{i}"), &p.worse)
            .expect("workload preferences are acyclic by construction");
    }
    let samplers: Vec<(&str, SamplerKind)> = vec![
        ("RS", SamplerKind::Rejection(RejectionSampler::default())),
        ("IS", SamplerKind::Importance(ImportanceSampler::default())),
        ("MS", SamplerKind::Mcmc(McmcSampler::default())),
    ];
    let semantics = [
        ("EXP", RankingSemantics::Exp),
        (
            "TKP",
            RankingSemantics::Tkp {
                sigma: config.sigma,
            },
        ),
        ("MPO", RankingSemantics::Mpo),
    ];

    let mut top_lists: HashMap<(String, String), Vec<Package>> = HashMap::new();
    let catalog = std::sync::Arc::new(workload.catalog.clone());
    for (sampler_name, sampler) in &samplers {
        let snapshot = SessionSnapshot {
            version: SNAPSHOT_VERSION,
            config: EngineConfig {
                k: config.k,
                num_random: 0,
                num_samples: config.samples,
                // TKP's σ forces the per-sample search depth to max(k, σ), so
                // one ranking pass serves all three semantics below.
                semantics: RankingSemantics::Tkp {
                    sigma: config.sigma,
                },
                sampler: sampler.clone(),
                prior_components: config.gaussians,
                prior_sigma: workload.config.prior_sigma,
                ..EngineConfig::default()
            },
            profile: workload.context.profile().clone(),
            max_package_size: workload.context.max_package_size(),
            catalog: catalog.clone(),
            preferences: store.clone(),
            pool: SamplePool::new(),
            rounds: 0,
        };
        let mut engine = RecommenderEngine::restore(snapshot).expect("snapshot parts are valid");
        let mut rng = workload.rng(31);
        if engine.resample(&mut rng).is_err() {
            continue; // e.g. IS refused in high dimension
        }
        let rankings = engine.per_sample_rankings().expect("search succeeds");
        for (sem_name, sem) in &semantics {
            let top: Vec<Package> = aggregate(*sem, &rankings, config.k)
                .into_iter()
                .map(|r| r.package)
                .collect();
            top_lists.insert((sampler_name.to_string(), sem_name.to_string()), top);
        }
    }

    let mut sampler_agreement = Vec::new();
    for (sem_name, _) in &semantics {
        for i in 0..samplers.len() {
            for j in (i + 1)..samplers.len() {
                let a = top_lists.get(&(samplers[i].0.to_string(), sem_name.to_string()));
                let b = top_lists.get(&(samplers[j].0.to_string(), sem_name.to_string()));
                if let (Some(a), Some(b)) = (a, b) {
                    sampler_agreement.push((
                        format!("{} vs {} ({})", samplers[i].0, samplers[j].0, sem_name),
                        sem_name.to_string(),
                        jaccard(a, b),
                    ));
                }
            }
        }
    }
    let mut semantics_agreement = Vec::new();
    for (sampler_name, _) in &samplers {
        for i in 0..semantics.len() {
            for j in (i + 1)..semantics.len() {
                let a = top_lists.get(&(sampler_name.to_string(), semantics[i].0.to_string()));
                let b = top_lists.get(&(sampler_name.to_string(), semantics[j].0.to_string()));
                if let (Some(a), Some(b)) = (a, b) {
                    semantics_agreement.push((
                        format!(
                            "{} vs {} ({})",
                            semantics[i].0, semantics[j].0, sampler_name
                        ),
                        sampler_name.to_string(),
                        jaccard(a, b),
                    ));
                }
            }
        }
    }
    let lists = top_lists
        .into_iter()
        .map(|((sampler, sem), packages)| {
            (
                format!("{sampler}/{sem}"),
                packages.iter().map(Package::key).collect(),
            )
        })
        .collect();
    QualityResult {
        lists,
        sampler_agreement,
        semantics_agreement,
    }
}

impl QualityResult {
    /// Renders the agreement measurements as tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut a = Table::new(
            "Section 5.4: top-5 agreement between sampling methods",
            &["pair", "semantics", "jaccard"],
        );
        for (pair, sem, j) in &self.sampler_agreement {
            a.push_row(vec![pair.clone(), sem.clone(), format!("{j:.2}")]);
        }
        let mut b = Table::new(
            "Section 5.4: top-5 agreement between ranking semantics",
            &["pair", "sampler", "jaccard"],
        );
        for (pair, sampler, j) in &self.semantics_agreement {
            b.push_row(vec![pair.clone(), sampler.clone(), format!("{j:.2}")]);
        }
        vec![a, b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_overlap_basics() {
        let p = |items: &[usize]| Package::new(items.to_vec()).unwrap();
        let a = vec![p(&[0]), p(&[1])];
        let b = vec![p(&[1]), p(&[2])];
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn small_quality_run_produces_lists_and_agreements() {
        let result = run(&QualityConfig {
            samples: 150,
            preferences: 5,
            rows: 200,
            features: 3,
            gaussians: 1,
            k: 3,
            sigma: 3,
            seed: 99,
        });
        // 3 samplers x 3 semantics lists.
        assert_eq!(result.lists.len(), 9);
        assert_eq!(result.sampler_agreement.len(), 9);
        assert_eq!(result.semantics_agreement.len(), 9);
        for (_, _, j) in result
            .sampler_agreement
            .iter()
            .chain(&result.semantics_agreement)
        {
            assert!((0.0..=1.0).contains(j));
        }
        assert_eq!(result.tables().len(), 2);
    }

    #[test]
    fn samplers_largely_agree_given_enough_samples() {
        // The paper's observation: with enough samples the sampling strategies
        // produce very similar top lists.  Expect a healthy mean overlap.
        let result = run(&QualityConfig {
            samples: 600,
            preferences: 8,
            rows: 300,
            features: 3,
            gaussians: 1,
            k: 3,
            sigma: 3,
            seed: 7,
        });
        let mean: f64 = result
            .sampler_agreement
            .iter()
            .map(|(_, _, j)| *j)
            .sum::<f64>()
            / result.sampler_agreement.len() as f64;
        assert!(mean > 0.3, "mean sampler agreement {mean}");
    }
}
