//! Session identities, configurations and the session factory.
//!
//! A [`SessionConfig`] is everything needed to (re)build a session from
//! nothing: the catalog, the profile, φ, the recommender recipe
//! ([`RecommenderSpec`]) and the session's deterministic RNG seed.  It is
//! plain serde data, so it travels inside journal `Created` events and any
//! store can rebuild the exact session from it.
//!
//! ## Deterministic per-operation randomness
//!
//! The store never threads one long-lived RNG through a session.  Instead
//! every state-changing operation (present / feedback / recommend) draws a
//! fresh [`StdRng`] derived from `(seed, ops)` — the session seed mixed with
//! the number of operations already applied ([`op_rng`]).  Three properties
//! fall out of this single decision:
//!
//! * **replayable** — a journal that records the operation sequence can
//!   re-derive every RNG stream and reconstruct the session bit-identically,
//! * **shard/thread independent** — no RNG state is shared across sessions,
//!   so scheduling order cannot change any session's outcome,
//! * **spill-transparent** — a session restored from its snapshot resumes at
//!   the recorded operation count and therefore sees the same streams the
//!   uninterrupted session would have.

use pkgrec_baselines::BaselineSpec;
use pkgrec_core::{
    Catalog, CoreError, EngineConfig, Profile, Recommender, RecommenderEngine, Result,
    SessionSnapshot,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Identifies one session within a [`SessionStore`](crate::SessionStore).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// SplitMix64 finaliser used to spread session ids across shards and to
/// derive per-operation RNG seeds (deterministic, process-independent).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard a session id lives on — a pure function of the id, so a journal
/// written by an `n`-shard store can be adopted by an `m`-shard store.
pub fn shard_of(id: SessionId, shards: usize) -> usize {
    (mix64(id.0) % shards as u64) as usize
}

/// The RNG handed to a session's operation number `ops` (0-based).  Every
/// store drive of the same session derives the identical stream, which is
/// what makes journal replay bit-identical.
pub fn op_rng(seed: u64, ops: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(ops)))
}

/// The RNG driving a session's [`SimulatedUser`](pkgrec_core::SimulatedUser)
/// in the serving loop — salted away from [`op_rng`] so user noise and
/// session exploration never share a stream.
pub fn user_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ 0xA5A5_5A5A_0F0F_F0F0))
}

/// Content fingerprint of a catalog, used by the durable journal's intern
/// table: equal catalogs (same feature names, same rows, bit for bit) hash
/// equal, and the hash is process-independent (pure SplitMix64 folding, no
/// `std::hash` randomness), so an intern table rebuilt during recovery
/// assigns the same buckets the writer did.
pub fn catalog_fingerprint(catalog: &Catalog) -> u64 {
    let mut acc = mix64(0xCA7A_1069_0000_0000 ^ catalog.len() as u64);
    for name in catalog.feature_names() {
        for byte in name.as_bytes() {
            acc = mix64(acc ^ u64::from(*byte));
        }
        acc = mix64(acc ^ 0xFE);
    }
    for (_, row) in catalog.iter() {
        for value in row {
            acc = mix64(acc ^ value.to_bits());
        }
    }
    acc
}

/// The recommender recipe of a session: the paper's sample-maintenance
/// engine or one of the baseline adapters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RecommenderSpec {
    /// The elicitation engine with the given configuration.
    Engine(EngineConfig),
    /// A baseline adapter built through
    /// [`BaselineSpec::build`](pkgrec_baselines::BaselineSpec::build).
    Baseline(BaselineSpec),
}

impl RecommenderSpec {
    /// The label the built session reports through [`Recommender::state`].
    pub fn label(&self) -> &'static str {
        match self {
            RecommenderSpec::Engine(_) => "engine",
            RecommenderSpec::Baseline(spec) => spec.label(),
        }
    }

    /// Whether sessions of this spec support O(1) snapshot spill
    /// (engine sessions do; baselines are restored by journal replay).
    pub fn supports_snapshot(&self) -> bool {
        matches!(self, RecommenderSpec::Engine(_))
    }
}

/// Everything needed to build (or rebuild) one session from scratch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// The item catalog the session recommends from.  Shared behind an
    /// [`Arc`](std::sync::Arc): a fleet of sessions over one storefront
    /// clones a pointer, not the catalog — the config is copied into every
    /// journal `Created` event, so by-value storage would multiply catalog
    /// memory by the session count.  (Serialisation stays transparent; each
    /// deserialised config gets its own fresh `Arc`.)
    pub catalog: std::sync::Arc<Catalog>,
    /// The aggregate feature profile.
    pub profile: Profile,
    /// The maximum package size φ.
    pub max_package_size: usize,
    /// The recommender recipe.
    pub spec: RecommenderSpec,
    /// Deterministic session seed; all per-operation RNG streams derive
    /// from it (see [`op_rng`]).
    pub seed: u64,
}

impl SessionConfig {
    /// Builds the live session this configuration describes.  The session
    /// holds this config's catalog `Arc` (no copy), and with it the catalog's
    /// one sorted-lists index.
    pub fn build(&self) -> Result<LiveSession> {
        match &self.spec {
            RecommenderSpec::Engine(config) => Ok(LiveSession::Engine(Box::new(
                RecommenderEngine::builder(self.catalog.clone(), self.profile.clone())
                    .max_package_size(self.max_package_size)
                    .config(config.clone())
                    .build()?,
            ))),
            RecommenderSpec::Baseline(spec) => Ok(LiveSession::Baseline(spec.build(
                self.catalog.clone(),
                self.profile.clone(),
                self.max_package_size,
            )?)),
        }
    }
}

/// A materialised, in-memory session.
///
/// Baseline sessions are held as boxed [`Recommender`] trait objects; the
/// engine keeps its concrete type because the [`Recommender`] trait is
/// deliberately snapshot-free (not every recommender can serialise itself)
/// while the store's spill path needs
/// [`RecommenderEngine::snapshot`](pkgrec_core::RecommenderEngine::snapshot).
pub enum LiveSession {
    /// The paper's sample-maintenance engine (snapshot-capable).
    Engine(Box<RecommenderEngine>),
    /// A baseline adapter behind the object-safe trait.
    Baseline(Box<dyn Recommender + Send>),
}

impl std::fmt::Debug for LiveSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LiveSession({})", self.inspect().state().label)
    }
}

impl LiveSession {
    /// The session as a mutable trait object — the form every driver uses.
    pub fn recommender(&mut self) -> &mut dyn Recommender {
        match self {
            LiveSession::Engine(engine) => engine.as_mut(),
            LiveSession::Baseline(session) => session.as_mut(),
        }
    }

    /// The session as a shared trait object (inspection only).
    pub fn inspect(&self) -> &dyn Recommender {
        match self {
            LiveSession::Engine(engine) => engine.as_ref(),
            LiveSession::Baseline(session) => session.as_ref(),
        }
    }

    /// The session's [`SessionSnapshot`], or an error for baseline
    /// sessions, whose only durable form is their journal.
    pub fn snapshot(&self) -> Result<SessionSnapshot> {
        match self {
            LiveSession::Engine(engine) => Ok(engine.snapshot()),
            LiveSession::Baseline(session) => Err(CoreError::InvalidConfig(format!(
                "{} sessions have no snapshot form; restore them by replaying their journal",
                session.state().label
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_baselines::{BaselineSpec, EmRefitConfig};

    fn catalog() -> Catalog {
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
        ])
        .unwrap()
    }

    fn engine_config() -> SessionConfig {
        SessionConfig {
            catalog: std::sync::Arc::new(catalog()),
            profile: Profile::cost_quality(),
            max_package_size: 2,
            spec: RecommenderSpec::Engine(EngineConfig {
                k: 2,
                num_random: 2,
                num_samples: 20,
                ..EngineConfig::default()
            }),
            seed: 7,
        }
    }

    #[test]
    fn sharding_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for id in 0..50u64 {
                let s = shard_of(SessionId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(SessionId(id), shards));
            }
        }
        // Sessions actually spread (not all on one shard).
        let hits: std::collections::HashSet<usize> =
            (0..50u64).map(|id| shard_of(SessionId(id), 4)).collect();
        assert!(hits.len() > 1);
    }

    #[test]
    fn op_rng_streams_are_reproducible_and_distinct() {
        use rand::RngCore;
        assert_eq!(op_rng(3, 0).next_u64(), op_rng(3, 0).next_u64());
        assert_ne!(op_rng(3, 0).next_u64(), op_rng(3, 1).next_u64());
        assert_ne!(op_rng(3, 0).next_u64(), op_rng(4, 0).next_u64());
        assert_ne!(op_rng(3, 0).next_u64(), user_rng(3).next_u64());
    }

    #[test]
    fn session_config_round_trips_and_builds() {
        let config = engine_config();
        let json = serde_json::to_string(&config).unwrap();
        let back: SessionConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert_eq!(config.spec.label(), "engine");
        assert!(config.spec.supports_snapshot());

        let mut live = config.build().unwrap();
        assert_eq!(live.inspect().state().label, "engine");
        // The snapshot shares the config's catalog instead of copying it.
        assert!(std::sync::Arc::ptr_eq(
            &live.snapshot().unwrap().catalog,
            &config.catalog
        ));
        let mut rng = op_rng(config.seed, 0);
        assert_eq!(live.recommender().present(&mut rng).unwrap().len(), 4);
    }

    #[test]
    fn baseline_config_builds_without_snapshot_support() {
        let config = SessionConfig {
            spec: RecommenderSpec::Baseline(BaselineSpec::EmRefit(EmRefitConfig {
                k: 2,
                num_random: 1,
                num_samples: 15,
                samples_per_refit: 30,
                ..EmRefitConfig::default()
            })),
            ..engine_config()
        };
        assert!(!config.spec.supports_snapshot());
        assert_eq!(config.spec.label(), "em-refit");
        let live = config.build().unwrap();
        assert!(matches!(live.snapshot(), Err(CoreError::InvalidConfig(_))));
    }
}
