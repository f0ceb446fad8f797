//! The shard-parallel serving loop: many concurrent elicitation sessions.
//!
//! [`ServingLoop`] drives a batch of simulated users against the sessions of
//! a [`SessionStore`], shard-parallel with [`std::thread::scope`]: each
//! worker thread takes `&mut` ownership of a contiguous chunk of shards and
//! runs every session that hashes to them, so no lock is ever taken.  Each
//! session is driven through the *generic* elicitation driver
//! ([`run_elicitation`]) — the serving layer reuses the core loop rather
//! than duplicating it — via [`SessionDriver`], a [`Recommender`] adapter
//! that forwards every call to the journaled store operations.
//!
//! Per-session outcomes are thread-count-independent *and* shard-count-
//! independent: the driver ignores the caller's RNG in favour of the
//! session's own `(seed, ops)`-derived streams, the user RNG derives from
//! the session seed, and spill/rehydrate round trips are bit-identical, so
//! scheduling and capacity pressure cannot change what any session does.

use pkgrec_core::{
    run_elicitation, AggregatedSearchStats, Catalog, ElicitationConfig, Feedback, Package,
    RankedPackage, Recommender, RecommenderState, Result, SimulatedUser,
};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::config::{shard_of, user_rng, SessionId};
use crate::store::{SessionStore, Shard};

/// A [`Recommender`] view of one stored session: every call becomes the
/// matching journaled shard operation (the caller's RNG is ignored — the
/// session's own deterministic per-operation streams are used instead, which
/// is what makes serving outcomes scheduling-independent).
pub struct SessionDriver<'a> {
    shard: &'a mut Shard,
    id: SessionId,
}

impl<'a> SessionDriver<'a> {
    /// Wraps a session of `shard`, rehydrating it so that read-only trait
    /// methods ([`Recommender::state`], [`Recommender::catalog`]) can serve
    /// from the live form.
    pub(crate) fn new(shard: &'a mut Shard, id: SessionId) -> Result<Self> {
        shard.ensure_live(id)?;
        Ok(SessionDriver { shard, id })
    }
}

impl Recommender for SessionDriver<'_> {
    fn catalog(&self) -> &Catalog {
        self.shard
            .session_config(self.id)
            .expect("driver sessions exist")
            .catalog
            .as_ref()
    }

    fn present(&mut self, _rng: &mut dyn RngCore) -> Result<Vec<Package>> {
        self.shard.op_present(self.id)
    }

    fn record_feedback(
        &mut self,
        _shown: &[Package],
        feedback: Feedback,
        _rng: &mut dyn RngCore,
    ) -> Result<usize> {
        // The shard validates against the list its own `present` returned —
        // the same list the elicitation driver passes back.
        self.shard.op_feedback(self.id, feedback)
    }

    fn recommend(&mut self, _rng: &mut dyn RngCore) -> Result<Vec<RankedPackage>> {
        self.shard.op_recommend(self.id)
    }

    fn state(&self) -> RecommenderState {
        self.shard
            .peek_state(self.id)
            .expect("the driver keeps its session live")
    }
}

/// Outcome of serving one session to convergence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// The session served.
    pub id: SessionId,
    /// The recommender label ("engine", "em-refit", …).
    pub label: String,
    /// Clicks until convergence (or the round budget).
    pub clicks: usize,
    /// Whether the top-k list stabilised within the budget.
    pub converged: bool,
    /// Final precision against the user's hidden ground truth.
    pub precision: f64,
    /// `Top-k-Pkg` statistics the session accumulated while being served.
    pub search: AggregatedSearchStats,
}

/// The shard-parallel session driver (see the module docs).
pub struct ServingLoop<'a> {
    store: &'a mut SessionStore,
}

impl<'a> ServingLoop<'a> {
    /// Wraps a store for serving.
    pub fn new(store: &'a mut SessionStore) -> Self {
        ServingLoop { store }
    }

    /// Serves every `(session, user)` pair to convergence and returns the
    /// outcomes ordered by session id.
    ///
    /// `threads` caps the worker count (clamped to the shard count; shards
    /// are the parallelism grain).  The per-session outcomes are identical
    /// for every `threads` value and every shard count — proven by the
    /// `serving_store` integration suite.
    pub fn run(
        &mut self,
        sessions: &[(SessionId, SimulatedUser)],
        elicitation: ElicitationConfig,
        threads: usize,
    ) -> Result<Vec<SessionOutcome>> {
        let shard_count = self.store.shard_count();
        let mut groups: Vec<Vec<(SessionId, &SimulatedUser)>> = vec![Vec::new(); shard_count];
        for (id, user) in sessions {
            groups[shard_of(*id, shard_count)].push((*id, user));
        }
        let threads = threads.clamp(1, shard_count);
        let chunk = shard_count.div_ceil(threads);
        let shards = self.store.shards_mut();

        let mut outcomes: Vec<SessionOutcome> = if threads <= 1 {
            let mut all = Vec::with_capacity(sessions.len());
            for (shard, group) in shards.iter_mut().zip(groups.iter()) {
                serve_shard(shard, group, elicitation, &mut all)?;
            }
            all
        } else {
            let chunks: Vec<Result<Vec<SessionOutcome>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .chunks_mut(chunk)
                    .zip(groups.chunks(chunk))
                    .map(|(shard_chunk, group_chunk)| {
                        scope.spawn(move || -> Result<Vec<SessionOutcome>> {
                            let mut chunk_outcomes = Vec::new();
                            for (shard, group) in shard_chunk.iter_mut().zip(group_chunk.iter()) {
                                serve_shard(shard, group, elicitation, &mut chunk_outcomes)?;
                            }
                            Ok(chunk_outcomes)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("serving thread does not panic"))
                    .collect()
            });
            let mut all = Vec::with_capacity(sessions.len());
            for chunk_result in chunks {
                all.extend(chunk_result?);
            }
            all
        };
        outcomes.sort_unstable_by_key(|o| o.id);
        Ok(outcomes)
    }
}

/// Serves one shard's sessions sequentially (the per-thread body).
fn serve_shard(
    shard: &mut Shard,
    group: &[(SessionId, &SimulatedUser)],
    elicitation: ElicitationConfig,
    outcomes: &mut Vec<SessionOutcome>,
) -> Result<()> {
    for &(id, user) in group {
        let seed = shard.session_config(id)?.seed;
        let mut driver = SessionDriver::new(shard, id)?;
        let label = driver.state().label.clone();
        let mut rng = user_rng(seed);
        let report = run_elicitation(&mut driver, user, elicitation, &mut rng)?;
        outcomes.push(SessionOutcome {
            id,
            label,
            clicks: report.clicks,
            converged: report.converged,
            precision: report.precision,
            search: report.search,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecommenderSpec, SessionConfig};
    use crate::store::StoreConfig;
    use pkgrec_core::{
        AggregationContext, Catalog, EngineConfig, LinearUtility, Profile, RankingSemantics,
    };

    fn catalog() -> Catalog {
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

    fn session(seed: u64) -> SessionConfig {
        SessionConfig {
            catalog: std::sync::Arc::new(catalog()),
            profile: Profile::cost_quality(),
            max_package_size: 2,
            spec: RecommenderSpec::Engine(EngineConfig {
                k: 2,
                num_random: 2,
                num_samples: 25,
                semantics: RankingSemantics::Exp,
                ..EngineConfig::default()
            }),
            seed,
        }
    }

    fn user(weights: Vec<f64>) -> SimulatedUser {
        let context = AggregationContext::new(Profile::cost_quality(), &catalog(), 2).unwrap();
        SimulatedUser::new(LinearUtility::new(context, weights).unwrap())
    }

    fn serve(shards: usize, capacity: usize, threads: usize) -> Vec<SessionOutcome> {
        let mut store = SessionStore::new(StoreConfig {
            shards,
            capacity_per_shard: capacity,
        })
        .unwrap();
        let mut sessions = Vec::new();
        for i in 0..6u64 {
            let id = store.create(session(100 + i)).unwrap();
            let lean = if i % 2 == 0 { -0.8 } else { 0.5 };
            sessions.push((id, user(vec![lean, 0.6])));
        }
        let config = ElicitationConfig {
            max_rounds: 5,
            stable_rounds: 2,
        };
        ServingLoop::new(&mut store)
            .run(&sessions, config, threads)
            .unwrap()
    }

    #[test]
    fn outcomes_are_ordered_and_complete() {
        let outcomes = serve(2, 16, 1);
        assert_eq!(outcomes.len(), 6);
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.id, SessionId(i as u64));
            assert_eq!(outcome.label, "engine");
            assert!(outcome.clicks >= 1);
            assert!(outcome.search.searches > 0);
        }
    }

    #[test]
    fn outcomes_are_independent_of_thread_count() {
        let single = serve(4, 16, 1);
        let multi = serve(4, 16, 4);
        assert_eq!(single, multi);
    }

    #[test]
    fn outcomes_survive_capacity_pressure_unchanged() {
        // Capacity 1 forces a spill/rehydrate on nearly every operation;
        // session outcomes must not notice.
        let ample = serve(2, 16, 2);
        let starved = serve(2, 1, 2);
        for (a, s) in ample.iter().zip(starved.iter()) {
            assert_eq!(a.id, s.id);
            assert_eq!(a.clicks, s.clicks);
            assert_eq!(a.converged, s.converged);
            assert_eq!(a.precision, s.precision);
        }
    }
}
