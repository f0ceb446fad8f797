//! The three workloads and the inputs they generate from a seed.
//!
//! Every input — catalog rows, session configurations and the hidden
//! utility behind each simulated user — comes from this module's own code
//! and the `--seed` argument; the program under test only ever receives the
//! generated configurations.

use std::sync::Arc;

use pkgrec_baselines::{BaselineSpec, EmRefitConfig, FeatureDirection};
use pkgrec_core::{AggregationContext, Catalog, EngineConfig, LinearUtility, Package, Profile};
use pkgrec_serve::{RecommenderSpec, SessionConfig, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a connection advances the sessions it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One session at a time, from create to final recommend.
    Sequential,
    /// Waves of `fleet` sessions, each advanced one round at a time in
    /// turn, so consecutive requests address different sessions.
    RoundRobin { fleet: usize },
}

/// One workload's shape.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub catalog_items: usize,
    pub max_package_size: usize,
    pub store: StoreConfig,
    pub connections: usize,
    pub schedule: Schedule,
    /// Timed sessions per second of `--seconds`: the work of a run is
    /// `sessions_per_run_second × seconds` sessions, fixed for a given run
    /// length whatever the machine's speed.
    pub sessions_per_run_second: usize,
    /// Sessions served during set-up only, excluded from every metric.
    pub warmup_sessions: usize,
    /// Most presents one session receives.
    pub round_cap: usize,
    /// Every `sample_every`-th session is replayed against a memory-only
    /// store and re-asked after recovery (1 = every session).
    pub sample_every: usize,
    mix: Mix,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mix {
    /// Paper-default engines only.
    PaperEngine,
    /// Paper-default engines with half the samples: half-size checkpoints
    /// and twice the sessions in the same time.
    HalfPoolEngine,
    /// Two small engines, one EM-refit and one skyline session in four.
    Storefront,
}

pub const NAMES: [&str; 3] = ["elicit", "storefront", "spill"];

/// Index of the first warm-up session; timed sessions are numbered from 0.
pub const WARMUP_BASE: usize = 1 << 20;

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        let default_store = StoreConfig::default();
        Some(match name {
            "elicit" => Workload {
                name: "elicit",
                catalog_items: 300,
                max_package_size: 2,
                store: default_store,
                connections: 1,
                schedule: Schedule::Sequential,
                sessions_per_run_second: 22,
                warmup_sessions: 2,
                round_cap: 12,
                sample_every: 4,
                mix: Mix::PaperEngine,
            },
            "storefront" => Workload {
                name: "storefront",
                catalog_items: 40,
                max_package_size: 2,
                // Twice the default live capacity, so a 20-second run's
                // 6 000 sessions all stay live.
                store: StoreConfig {
                    shards: 4,
                    capacity_per_shard: 2048,
                },
                connections: 2,
                schedule: Schedule::Sequential,
                sessions_per_run_second: 300,
                warmup_sessions: 16,
                round_cap: 6,
                sample_every: 1,
                mix: Mix::Storefront,
            },
            "spill" => Workload {
                name: "spill",
                catalog_items: 100,
                max_package_size: 2,
                store: StoreConfig {
                    shards: 4,
                    capacity_per_shard: 2,
                },
                connections: 1,
                schedule: Schedule::RoundRobin { fleet: 32 },
                sessions_per_run_second: 40,
                warmup_sessions: 2,
                round_cap: 10,
                sample_every: 4,
                mix: Mix::HalfPoolEngine,
            },
            _ => return None,
        })
    }

    /// Number of timed sessions in a run of `seconds`.
    pub fn timed_sessions(&self, seconds: u64) -> usize {
        let sessions = self.sessions_per_run_second * seconds.max(1) as usize;
        match self.schedule {
            // Whole waves only, so every session shares its wave's pressure.
            Schedule::RoundRobin { fleet } => sessions.div_ceil(fleet) * fleet,
            Schedule::Sequential => sessions,
        }
    }

    /// Total live capacity of the store.
    pub fn live_capacity(&self) -> usize {
        self.store.shards * self.store.capacity_per_shard
    }

    fn spec(&self, index: usize) -> RecommenderSpec {
        match self.mix {
            Mix::PaperEngine => RecommenderSpec::Engine(EngineConfig::default()),
            Mix::HalfPoolEngine => RecommenderSpec::Engine(EngineConfig {
                num_samples: 100,
                ..EngineConfig::default()
            }),
            // Pairs of consecutive sessions share a recipe, so each of the
            // two connections (even and odd indices) serves the same mix.
            Mix::Storefront => match (index / 2) % 4 {
                2 => RecommenderSpec::Baseline(BaselineSpec::EmRefit(EmRefitConfig {
                    k: 3,
                    num_random: 2,
                    num_samples: 20,
                    samples_per_refit: 40,
                    ..EmRefitConfig::default()
                })),
                3 => RecommenderSpec::Baseline(BaselineSpec::Skyline {
                    cardinality: 2,
                    directions: vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
                    k: 3,
                }),
                _ => RecommenderSpec::Engine(EngineConfig {
                    k: 3,
                    num_random: 2,
                    num_samples: 24,
                    ..EngineConfig::default()
                }),
            },
        }
    }
}

/// SplitMix64 finaliser: spreads a seed and a stream tag into an
/// independent 64-bit seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A synthetic two-feature catalog (cost, quality): quality is uniform and
/// cost rises with it plus noise, so cheap-and-good packages are scarce and
/// the hidden utility's trade-off decides the top-k.
fn catalog(seed: u64, items: usize) -> Catalog {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xCA7));
    let rows = (0..items)
        .map(|_| {
            let quality: f64 = rng.gen_range(0.05..1.0);
            let noise: f64 = rng.gen_range(0.0..1.0);
            let cost = (0.6 * quality + 0.4 * noise).clamp(0.02, 1.0);
            vec![cost, quality]
        })
        .collect();
    Catalog::new(vec!["cost".into(), "quality".into()], rows).expect("generated rows are valid")
}

/// One simulated user's session: the configuration the server receives and
/// the hidden utility that decides every click.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub index: usize,
    pub config: SessionConfig,
    pub utility: LinearUtility,
    /// Size of the recommended part of a shown list.
    pub k: usize,
    /// Packages a shown list holds when the package space allows it.
    pub shown_len: usize,
    /// Exact package cardinality, for fixed-size baselines.
    pub cardinality: Option<usize>,
}

impl SessionPlan {
    /// The simulated user's click: the shown package of highest hidden
    /// utility (ties go to the first shown).
    pub fn choose(&self, shown: &[Package]) -> usize {
        let catalog = self.config.catalog.as_ref();
        let mut best = 0;
        let mut best_value = f64::NEG_INFINITY;
        for (i, package) in shown.iter().enumerate() {
            let value = self
                .utility
                .of_package(catalog, package)
                .expect("shown packages fit the catalog");
            if value > best_value {
                best = i;
                best_value = value;
            }
        }
        best
    }
}

/// Every session of a run: `warmup` set-up sessions first, then the timed
/// ones.  Session `i` of seed `s` is the same in every run.
pub struct Inputs {
    pub warmup: Vec<SessionPlan>,
    pub timed: Vec<SessionPlan>,
}

/// The seed of the catalog, of the warm-up sessions and of every session's
/// recommender streams, which every run of a workload shares so that
/// set-up, and the kind of work a session does, is the same whatever
/// `--seed` is.
const FIXED_SEED: u64 = 2014;

/// The step that visits all `arcs` arcs once, each session landing about
/// 0.618 of the circle from the one before: the smallest step from
/// `0.618 × arcs` up that shares no factor with `arcs`.
fn spread_stride(arcs: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut stride = ((arcs as f64 * 0.618).round() as usize).max(1);
    while gcd(stride, arcs) != 1 {
        stride += 1;
    }
    stride
}

/// The inputs of one run.  `--seed` draws each timed session's hidden
/// utility.  The utilities are spread evenly over the directions of the
/// weight plane, each jittered within its own arc by the seed, so every run
/// meets the same mix of tastes: a direction decides which packages a user
/// prefers and so how long a session lasts.  Consecutive sessions take arcs
/// far apart (`spread_stride`), so every stretch of a run meets the whole
/// mix and a slow spell of the host slows some sessions of every kind, not
/// all sessions of one kind.  Session `i`'s own seed, which drives every
/// random draw the recommender makes (MCMC samples, exploration packages),
/// comes from the fixed seed: those draws decide a session's cost over two
/// orders of magnitude, and a run's few hundred sessions are too few to
/// average that out, so per-seed streams made the medians of one run move
/// with the seed more than with the program.
pub fn inputs(workload: &Workload, seed: u64, timed_sessions: usize) -> Inputs {
    let catalog = Arc::new(catalog(FIXED_SEED, workload.catalog_items));
    let profile = Profile::cost_quality();
    let context = AggregationContext::new(profile.clone(), &catalog, workload.max_package_size)
        .expect("the generated catalog matches the profile");
    let plan = |index: usize, seed: u64, arcs: usize| {
        let session_seed = mix(FIXED_SEED, 0x5E55_0000_0000 + index as u64);
        let mut taste = StdRng::seed_from_u64(mix(seed, 0x7A57_E000_0000 + index as u64));
        let arc = ((index % arcs) * spread_stride(arcs) % arcs) as f64 + taste.gen_range(0.0..1.0);
        let angle = std::f64::consts::TAU * arc / arcs as f64;
        let weights = vec![angle.cos(), angle.sin()];
        let spec = workload.spec(index);
        let (k, shown_len, cardinality) = match &spec {
            RecommenderSpec::Engine(config) => (config.k, config.k + config.num_random, None),
            RecommenderSpec::Baseline(BaselineSpec::EmRefit(config)) => {
                (config.k, config.k + config.num_random, None)
            }
            RecommenderSpec::Baseline(BaselineSpec::Skyline { cardinality, k, .. }) => {
                (*k, *k, Some(*cardinality))
            }
            RecommenderSpec::Baseline(_) => unreachable!("the workloads use no other baseline"),
        };
        SessionPlan {
            index,
            config: SessionConfig {
                catalog: catalog.clone(),
                profile: profile.clone(),
                max_package_size: workload.max_package_size,
                spec,
                seed: session_seed,
            },
            utility: LinearUtility::new(context.clone(), weights)
                .expect("weights match the profile"),
            k,
            shown_len,
            cardinality,
        }
    };
    let warmup = (0..workload.warmup_sessions)
        .map(|i| plan(WARMUP_BASE + i, FIXED_SEED, workload.warmup_sessions))
        .collect();
    let timed = (0..timed_sessions)
        .map(|i| plan(i, seed, timed_sessions))
        .collect();
    Inputs { warmup, timed }
}
