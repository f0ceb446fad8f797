//! The append-only session journal and its bit-identical replay.
//!
//! Following the log-structured persistence design of LogBase (Vo et al.,
//! PVLDB 2012), the journal — not the in-memory session — is the durable
//! form of every session: each state-changing store operation appends one
//! [`SessionEvent`], and [`Journal::replay`] folds a session's events back
//! into a [`LiveSession`] whose state is *bit-identical* to the live one
//! (proven by the `serving_store` property suite).  Replay works because
//! every operation's RNG stream derives from `(seed, ops)` alone
//! ([`crate::config::op_rng`]), so re-running the recorded operation
//! sequence re-derives the exact random choices of the original run.
//!
//! [`SessionEvent::Snapshot`] events are checkpoints: when the store spills
//! an engine session (capacity eviction or an explicit
//! [`SessionStore::snapshot`](crate::SessionStore::snapshot) call), it
//! appends the session's [`SessionSnapshot`] together with the operation
//! count, and replay fast-forwards from the latest checkpoint instead of
//! re-running the whole history.  A checkpoint is a typed value, not JSON:
//! it shares the session config's catalog, a memory-only store never
//! renders it, and a durable store renders it once, at the segment append
//! ([`crate::segment`]).  Baseline sessions have no snapshot form, so their
//! replay always starts from `Created` — the journal *is* their snapshot.

use std::sync::Arc;

use pkgrec_core::{CoreError, Feedback, Package, RecommenderEngine, Result, SessionSnapshot};
use serde::{Deserialize, Serialize};

use crate::config::{op_rng, LiveSession, SessionConfig, SessionId};

/// One journaled session event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// The session was created from this configuration (always the first
    /// event of a session).
    Created {
        /// The full session recipe, sufficient to rebuild from nothing.
        config: SessionConfig,
    },
    /// One `present` operation ran (its RNG stream derives from the
    /// operation index, so the shown list is reproducible and not stored).
    Presented,
    /// One `record_feedback` operation ran against the last presented list.
    Feedback(Feedback),
    /// One standalone `recommend` operation ran (it may lazily refill a
    /// sample pool, so it counts as a state-changing operation).
    Recommended,
    /// A spill checkpoint: the session's snapshot at `ops` operations.
    Snapshot {
        /// The engine's [`SessionSnapshot`], sharing its catalog with the
        /// session config; behind an `Arc` so copying the event (journal
        /// export, compaction) copies no pool.
        snapshot: Arc<SessionSnapshot>,
        /// Operations applied before the checkpoint was taken.
        ops: u64,
        /// The last presented list at checkpoint time (empty if none) —
        /// kept so a fast-forwarded session can still accept feedback.
        last_shown: Vec<Package>,
    },
}

/// One journal record: which session, which event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// The session the event belongs to.
    pub session: SessionId,
    /// The event.
    pub event: SessionEvent,
}

/// A session rebuilt by [`Journal::replay`], together with the bookkeeping
/// the store needs to resume driving it.
pub struct ReplayedSession {
    /// The session configuration from the `Created` event.
    pub config: SessionConfig,
    /// The reconstructed session, bit-identical to the live one.
    pub session: LiveSession,
    /// Operations applied so far (the next operation's RNG index).
    pub ops: u64,
    /// The last presented list (empty if the session never presented).
    pub last_shown: Vec<Package>,
}

/// An append-only log of session events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Journal {
    records: Vec<JournalRecord>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends one event (the only mutation a journal supports).
    pub fn append(&mut self, session: SessionId, event: SessionEvent) {
        self.records.push(JournalRecord { session, event });
    }

    /// All records, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The events of one session, in order.
    pub fn events_for(&self, id: SessionId) -> Vec<&SessionEvent> {
        self.records
            .iter()
            .filter(|r| r.session == id)
            .map(|r| &r.event)
            .collect()
    }

    /// Appends every record of `other` (journal merge, e.g. when exporting
    /// a store's per-shard journals as one log).
    pub fn extend_from(&mut self, other: &Journal) {
        self.records.extend(other.records.iter().cloned());
    }

    /// Reconstructs a session from its journaled history.
    ///
    /// Replay starts from the latest [`SessionEvent::Snapshot`] checkpoint if
    /// one exists (engine sessions), otherwise from the [`SessionEvent::Created`]
    /// configuration, and re-applies every later operation with its
    /// `(seed, ops)`-derived RNG.  The result is bit-identical to the live
    /// session the journal describes.
    pub fn replay(&self, id: SessionId) -> Result<ReplayedSession> {
        Self::replay_events(id, &self.events_for(id))
    }

    /// [`Journal::replay`] over pre-indexed record positions — the session
    /// store keeps a per-session offset index so rehydration reads exactly
    /// the session's own records instead of scanning the whole shard log.
    pub fn replay_at(&self, id: SessionId, positions: &[usize]) -> Result<ReplayedSession> {
        let events = positions
            .iter()
            .map(|&i| {
                self.records
                    .get(i)
                    .filter(|record| record.session == id)
                    .map(|record| &record.event)
                    .ok_or_else(|| {
                        CoreError::InvalidConfig(format!(
                            "journal index for {id} is corrupt at record {i}"
                        ))
                    })
            })
            .collect::<Result<Vec<&SessionEvent>>>()?;
        Self::replay_events(id, &events)
    }

    fn replay_events(id: SessionId, events: &[&SessionEvent]) -> Result<ReplayedSession> {
        if events.is_empty() {
            return Err(CoreError::UnknownSession(id.0));
        }
        let config = match events[0] {
            SessionEvent::Created { config } => config.clone(),
            other => {
                return Err(CoreError::InvalidConfig(format!(
                    "journal for {id} starts with {other:?} instead of Created"
                )))
            }
        };

        // Fast-forward from the latest checkpoint when one exists.
        let checkpoint = events
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, event)| match event {
                SessionEvent::Snapshot {
                    snapshot,
                    ops,
                    last_shown,
                } => Some((i, snapshot, *ops, last_shown.clone())),
                _ => None,
            });
        let (start, mut session, mut ops, mut last_shown) = match checkpoint {
            Some((i, snapshot, ops, last_shown)) => {
                let mut snapshot = SessionSnapshot::clone(snapshot);
                // A checkpoint read back from an exported journal, or
                // recovered on a shard whose catalog another shard interned
                // first, carries its own copy of the catalog; resume on the
                // config's (interned) one and its sorted lists.
                if !Arc::ptr_eq(&snapshot.catalog, &config.catalog)
                    && snapshot.catalog == config.catalog
                {
                    snapshot.catalog = config.catalog.clone();
                }
                let engine = RecommenderEngine::restore(snapshot)?;
                (
                    i + 1,
                    LiveSession::Engine(Box::new(engine)),
                    ops,
                    last_shown,
                )
            }
            None => (1, config.build()?, 0, Vec::new()),
        };

        for event in &events[start..] {
            match event {
                SessionEvent::Presented => {
                    let mut rng = op_rng(config.seed, ops);
                    last_shown = session.recommender().present(&mut rng)?;
                    ops += 1;
                }
                SessionEvent::Feedback(feedback) => {
                    if last_shown.is_empty() {
                        return Err(CoreError::InvalidConfig(format!(
                            "journal for {id} records feedback before any presentation"
                        )));
                    }
                    let mut rng = op_rng(config.seed, ops);
                    session
                        .recommender()
                        .record_feedback(&last_shown, *feedback, &mut rng)?;
                    ops += 1;
                }
                SessionEvent::Recommended => {
                    let mut rng = op_rng(config.seed, ops);
                    session.recommender().recommend(&mut rng)?;
                    ops += 1;
                }
                SessionEvent::Snapshot { .. } => {
                    // An older checkpoint before the one we started from —
                    // purely informational during replay.
                }
                SessionEvent::Created { .. } => {
                    return Err(CoreError::InvalidConfig(format!(
                        "journal for {id} contains a second Created event"
                    )));
                }
            }
        }
        Ok(ReplayedSession {
            config,
            session,
            ops,
            last_shown,
        })
    }

    /// The checkpoint-anchored compaction of this journal: for every
    /// session it keeps the `Created` event, the *latest* `Snapshot`
    /// checkpoint (if any) and every event after it, dropping the events the
    /// checkpoint supersedes.  Global record order is preserved, so replay
    /// over the compacted journal reconstructs every session bit-identically
    /// ([`Journal::replay`] fast-forwards from the latest checkpoint anyway
    /// — compaction merely deletes what fast-forward already skips).
    ///
    /// Returns the compacted journal and the number of records dropped.
    pub fn compacted(&self) -> (Journal, usize) {
        use std::collections::HashMap;
        let mut latest_snapshot: HashMap<SessionId, usize> = HashMap::new();
        for (i, record) in self.records.iter().enumerate() {
            if matches!(record.event, SessionEvent::Snapshot { .. }) {
                latest_snapshot.insert(record.session, i);
            }
        }
        let records: Vec<JournalRecord> = self
            .records
            .iter()
            .enumerate()
            .filter(|(i, record)| match latest_snapshot.get(&record.session) {
                None => true, // no checkpoint: the full history is live
                Some(&anchor) => match record.event {
                    SessionEvent::Created { .. } => true,
                    SessionEvent::Snapshot { .. } => *i == anchor,
                    _ => *i > anchor,
                },
            })
            .map(|(_, record)| record.clone())
            .collect();
        let dropped = self.records.len() - records.len();
        (Journal { records }, dropped)
    }

    /// The session ids with a `Created` event, in creation order.
    pub fn created_sessions(&self) -> Vec<(SessionId, &SessionConfig)> {
        self.records
            .iter()
            .filter_map(|r| match &r.event {
                SessionEvent::Created { config } => Some((r.session, config)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{user_rng, RecommenderSpec};
    use pkgrec_core::{
        AggregationContext, Catalog, EngineConfig, LinearUtility, Profile, SimulatedUser,
    };

    fn config(seed: u64) -> SessionConfig {
        SessionConfig {
            catalog: std::sync::Arc::new(
                Catalog::from_rows(vec![
                    vec![0.6, 0.2],
                    vec![0.4, 0.4],
                    vec![0.2, 0.4],
                    vec![0.9, 0.8],
                    vec![0.3, 0.7],
                ])
                .unwrap(),
            ),
            profile: Profile::cost_quality(),
            max_package_size: 2,
            spec: RecommenderSpec::Engine(EngineConfig {
                k: 2,
                num_random: 2,
                num_samples: 20,
                ..EngineConfig::default()
            }),
            seed,
        }
    }

    /// Drives a fresh session through the journaled operation sequence the
    /// same way the store does (clicks follow a hidden utility, so every
    /// recorded preference set stays satisfiable), returning the journal and
    /// the live session.
    fn drive(rounds: usize, seed: u64) -> (Journal, LiveSession, u64) {
        let id = SessionId(1);
        let config = config(seed);
        let context = AggregationContext::new(config.profile.clone(), &config.catalog, 2).unwrap();
        let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap());
        let mut journal = Journal::new();
        journal.append(
            id,
            SessionEvent::Created {
                config: config.clone(),
            },
        );
        let mut session = config.build().unwrap();
        let mut ops = 0u64;
        for _ in 0..rounds {
            let mut rng = op_rng(seed, ops);
            let shown = session.recommender().present(&mut rng).unwrap();
            ops += 1;
            journal.append(id, SessionEvent::Presented);
            let index = user
                .choose(&config.catalog, &shown, &mut user_rng(seed))
                .unwrap();
            let feedback = Feedback::Click { index };
            let mut rng = op_rng(seed, ops);
            session
                .recommender()
                .record_feedback(&shown, feedback, &mut rng)
                .unwrap();
            ops += 1;
            journal.append(id, SessionEvent::Feedback(feedback));
        }
        (journal, session, ops)
    }

    #[test]
    fn replay_reconstructs_the_live_session_bit_identically() {
        let (journal, live, ops) = drive(3, 11);
        let replayed = journal.replay(SessionId(1)).unwrap();
        assert_eq!(replayed.ops, ops);
        let (LiveSession::Engine(live), LiveSession::Engine(replica)) = (&live, &replayed.session)
        else {
            panic!("engine sessions expected");
        };
        assert_eq!(live.snapshot(), replica.snapshot());
    }

    #[test]
    fn replay_fast_forwards_from_the_latest_checkpoint() {
        let (mut journal, live, ops) = drive(2, 23);
        let LiveSession::Engine(engine) = &live else {
            panic!("engine session expected");
        };
        // A checkpoint on its own copy of the catalog, as one read back from
        // an exported journal is.
        let mut snapshot = engine.snapshot();
        snapshot.catalog = Arc::new(Catalog::clone(&snapshot.catalog));
        journal.append(
            SessionId(1),
            SessionEvent::Snapshot {
                snapshot: Arc::new(snapshot),
                ops,
                last_shown: Vec::new(),
            },
        );
        let replayed = journal.replay(SessionId(1)).unwrap();
        assert_eq!(replayed.ops, ops);
        let LiveSession::Engine(replica) = &replayed.session else {
            panic!("engine session expected");
        };
        assert_eq!(engine.snapshot(), replica.snapshot());
        // The checkpoint's own catalog copy gives way to the config's.
        assert!(std::ptr::eq(replica.catalog(), &*replayed.config.catalog));
    }

    #[test]
    fn malformed_journals_are_rejected() {
        let journal = Journal::new();
        assert!(matches!(
            journal.replay(SessionId(9)),
            Err(CoreError::UnknownSession(9))
        ));

        let mut headless = Journal::new();
        headless.append(SessionId(2), SessionEvent::Presented);
        assert!(matches!(
            headless.replay(SessionId(2)),
            Err(CoreError::InvalidConfig(_))
        ));

        let mut blind_feedback = Journal::new();
        blind_feedback.append(SessionId(3), SessionEvent::Created { config: config(5) });
        blind_feedback.append(
            SessionId(3),
            SessionEvent::Feedback(Feedback::Click { index: 0 }),
        );
        assert!(matches!(
            blind_feedback.replay(SessionId(3)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn compaction_anchors_on_the_latest_checkpoint_and_preserves_replay() {
        // Without a checkpoint the whole history is live: nothing to drop.
        let (journal, _, _) = drive(2, 43);
        let (same, dropped) = journal.compacted();
        assert_eq!(dropped, 0);
        assert_eq!(same, journal);

        // With a checkpoint, compaction keeps Created + the latest Snapshot
        // and drops the operations the checkpoint supersedes — and replay
        // over the compacted journal is bit-identical.
        let (mut journal, live, ops) = drive(3, 41);
        let LiveSession::Engine(engine) = &live else {
            panic!("engine session expected");
        };
        journal.append(
            SessionId(1),
            SessionEvent::Snapshot {
                snapshot: Arc::new(engine.snapshot()),
                ops,
                last_shown: Vec::new(),
            },
        );
        let (compacted, dropped) = journal.compacted();
        assert_eq!(dropped, 6, "three present/feedback rounds superseded");
        assert_eq!(compacted.len(), 2, "Created + latest checkpoint remain");
        let a = journal.replay(SessionId(1)).unwrap();
        let b = compacted.replay(SessionId(1)).unwrap();
        assert_eq!(a.ops, b.ops);
        let (LiveSession::Engine(a), LiveSession::Engine(b)) = (&a.session, &b.session) else {
            panic!("engine sessions expected");
        };
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn journal_serde_round_trips() {
        let (mut journal, live, ops) = drive(2, 31);
        let LiveSession::Engine(engine) = &live else {
            panic!("engine session expected");
        };
        let snapshot = engine.snapshot();
        journal.append(
            SessionId(1),
            SessionEvent::Snapshot {
                snapshot: Arc::new(snapshot.clone()),
                ops,
                last_shown: Vec::new(),
            },
        );
        let json = serde_json::to_string(&journal).unwrap();
        // The checkpoint exports as the snapshot object itself.
        let rendered = serde_json::to_string(&snapshot).unwrap();
        assert!(json.contains(&format!("{{\"snapshot\":{rendered},")));
        let back: Journal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, journal);
        assert_eq!(back.created_sessions().len(), 1);
        assert_eq!(back.events_for(SessionId(1)).len(), 6);
        let replayed = back.replay(SessionId(1)).unwrap();
        let LiveSession::Engine(replica) = &replayed.session else {
            panic!("engine session expected");
        };
        assert_eq!(replica.snapshot(), snapshot);
    }
}
