//! # pkgrec-core
//!
//! A from-scratch implementation of *"Generating Top-k Packages via Preference
//! Elicitation"* (Min Xie, Laks V.S. Lakshmanan, Peter T. Wood; PVLDB 7(14),
//! 2014).
//!
//! The system recommends **packages** — sets of items such as shopping carts or
//! play lists — whose desirability is judged by a hidden linear utility
//! function over *aggregate* package features (total cost, average rating, …).
//! Rather than asking users for utility weights, the system maintains a
//! Gaussian-mixture prior over the weight vector, shows the user a handful of
//! packages each round, interprets clicks as pairwise preferences, and keeps a
//! pool of weight-vector samples consistent with all feedback.  Top-k package
//! lists are computed per sample with a threshold-style search and merged under
//! one of three ranking semantics.
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`item`], [`package`], [`profile`], [`utility`] | §2 | catalog, packages, aggregate feature profiles, linear utility |
//! | [`preferences`], [`constraints`], [`noise`] | §2.1, §3.3, §7 | feedback DAG, transitive reduction, constraint checking, noise model |
//! | [`sampler`] | §3.1–3.2 | rejection / importance / MCMC constrained samplers |
//! | [`scoring`] | — | columnar weight/candidate matrices and the batched `packages × samples` scoring kernel |
//! | [`maintenance`] | §3.4 | naive / TA / hybrid sample maintenance (Algorithm 1) |
//! | [`ranking`] | §2.2, §4 | EXP, TKP and MPO ranking semantics |
//! | [`search`] | §4 | Top-k-Pkg (Algorithms 2–4) and the exhaustive baseline |
//! | [`recommender`] | §2.2 | the unified [`Recommender`] trait and typed [`Feedback`] |
//! | [`engine`], [`builder`] | §2.2 | the interactive recommender and its fluent, validating builder |
//! | [`snapshot`] | — | serialisable [`SessionSnapshot`]s: persist and resume sessions |
//! | [`elicitation`] | §5.6 | simulated users and the generic elicitation session driver |
//!
//! ## Quick start
//!
//! ```
//! use pkgrec_core::prelude::*;
//! use rand::SeedableRng;
//!
//! // A tiny catalog: (cost, rating) per item, packages of up to 2 items.
//! let catalog = Catalog::from_rows(vec![
//!     vec![0.6, 0.2],
//!     vec![0.4, 0.4],
//!     vec![0.2, 0.4],
//! ]).unwrap();
//! let mut engine = RecommenderEngine::builder(catalog, Profile::cost_quality())
//!     .max_package_size(2)
//!     .k(2)
//!     .num_random(2)
//!     .num_samples(30)
//!     // Scoring runs through the batched columnar kernel of [`scoring`];
//!     // raise this knob to split candidate discovery and scoring across
//!     // OS threads (results are identical to the serial default).
//!     .num_threads(1)
//!     .build()
//!     .unwrap();
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // Show packages, record a click by its index in the shown list, and
//! // recommend again.
//! let shown = engine.present(&mut rng).unwrap();
//! engine.record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng).unwrap();
//! let recommendations = engine.recommend(&mut rng).unwrap();
//! assert!(!recommendations.is_empty());
//!
//! // Sessions persist: snapshot, (de)serialise, restore, and the resumed
//! // session recommends exactly what this one would.
//! let restored = RecommenderEngine::restore(engine.snapshot()).unwrap();
//! assert_eq!(restored.preferences().len(), engine.preferences().len());
//! ```
//!
//! Driving one engine by hand is the single-session story.  To serve *many*
//! sessions — sharded across threads, addressed by id, spilled to snapshots
//! under memory pressure and rebuilt bit-identically from an append-only
//! journal — use the `pkgrec-serve` crate, which owns the session lifecycle
//! on top of this crate's [`Recommender`] trait and snapshot machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod constraints;
pub mod elicitation;
pub mod engine;
pub mod error;
pub mod item;
pub mod maintenance;
pub mod noise;
pub mod package;
pub mod preferences;
pub mod profile;
pub mod ranking;
pub mod recommender;
pub mod sampler;
pub mod scoring;
pub mod search;
pub mod snapshot;
pub mod utility;

pub use builder::EngineBuilder;
pub use constraints::{ConstraintChecker, ConstraintSource};
pub use elicitation::{
    random_ground_truth_weights, run_elicitation, ElicitationConfig, ElicitationReport,
    SimulatedUser,
};
pub use engine::{score_stacked, EngineConfig, PresentPrep, RecommenderEngine, StackedScores};
pub use error::{CoreError, Result};
pub use item::{Catalog, ItemId};
pub use maintenance::{
    find_violating, index_pool, maintain_pool, MaintenanceOutcome, MaintenanceStrategy,
};
pub use noise::NoiseModel;
pub use package::{enumerate_packages, package_space_size, random_package, Package};
pub use preferences::{Preference, PreferenceStore};
pub use profile::{AggregateFn, AggregationContext, PackageState, Profile};
pub use ranking::{aggregate, PerSampleRanking, RankedPackage, RankingSemantics};
pub use recommender::{Feedback, Recommender, RecommenderState};
pub use sampler::{
    ImportanceSampler, McmcSampler, RejectionSampler, SamplePool, SampleRef, SamplerKind,
    SamplingOutcome, WeightSample, WeightSampler,
};
pub use scoring::{
    score_batch, score_batch_threaded, CandidateMatrix, ScoreMatrix, WeightMatrix, SAMPLE_BLOCK,
    WEIGHT_STRIDE_LANES,
};
pub use search::{
    top_k_packages, top_k_packages_exhaustive, top_k_packages_reference, top_k_packages_with_lists,
    top_k_packages_with_scratch, AggregatedSearchStats, SearchResult, SearchScratch, SearchStats,
};
pub use snapshot::{SessionSnapshot, SNAPSHOT_VERSION};
pub use utility::{clamp_weights, weights_in_range, LinearUtility, WeightVector};

/// Convenience re-exports for application code.
pub mod prelude {
    pub use crate::builder::EngineBuilder;
    pub use crate::constraints::{ConstraintChecker, ConstraintSource};
    pub use crate::elicitation::{
        random_ground_truth_weights, run_elicitation, ElicitationConfig, ElicitationReport,
        SimulatedUser,
    };
    pub use crate::engine::{EngineConfig, RecommenderEngine};
    pub use crate::error::{CoreError, Result};
    pub use crate::item::{Catalog, ItemId};
    pub use crate::maintenance::MaintenanceStrategy;
    pub use crate::noise::NoiseModel;
    pub use crate::package::Package;
    pub use crate::preferences::{Preference, PreferenceStore};
    pub use crate::profile::{AggregateFn, AggregationContext, Profile};
    pub use crate::ranking::{RankedPackage, RankingSemantics};
    pub use crate::recommender::{Feedback, Recommender, RecommenderState};
    pub use crate::sampler::{
        ImportanceSampler, McmcSampler, RejectionSampler, SamplePool, SamplerKind, WeightSampler,
    };
    pub use crate::scoring::{score_batch, score_batch_threaded, CandidateMatrix, WeightMatrix};
    pub use crate::search::{top_k_packages, top_k_packages_exhaustive, top_k_packages_with_lists};
    pub use crate::snapshot::{SessionSnapshot, SNAPSHOT_VERSION};
    pub use crate::utility::{clamp_weights, weights_in_range, LinearUtility, WeightVector};
}
