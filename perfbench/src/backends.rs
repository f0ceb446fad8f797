//! The three executions of the session verbs: over the wire, against an
//! in-process store, and against the recommenders driven directly with the
//! store's own `(seed, ops)` random streams.

use std::collections::HashMap;
use std::io::Cursor;
use std::time::Instant;

use pkgrec_core::{
    score_stacked, CoreError, Feedback, Package, RankedPackage, Recommender, RecommenderEngine,
    Result,
};
use pkgrec_serve::{op_rng, shard_of, RecommenderSpec, SessionId, SessionStore};
use pkgrec_server::protocol::{
    encode_frame, never_stop, read_message, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use pkgrec_server::Client;

use crate::drive::{session_of, Backend, Spans};
use crate::workload::SessionPlan;

/// Frame costs of the run's own requests and replies, re-encoded and
/// re-decoded beside the wire call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolStats {
    pub messages: usize,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub requests: usize,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

/// The wire: one [`Client`] connection.
pub struct Wire {
    pub client: Client,
    pub spans: Spans,
    /// When set, every request and reply also goes through `encode_frame`
    /// and `read_message` (outside the request's span).
    pub protocol: Option<ProtocolStats>,
}

fn round_trip<T: serde::Serialize + serde::Deserialize + PartialEq>(
    message: &T,
    stats: &mut ProtocolStats,
) -> Result<usize> {
    let started = Instant::now();
    let frame = encode_frame(message)?;
    stats.encode_ns += started.elapsed().as_nanos() as u64;
    let started = Instant::now();
    let decoded = read_message::<_, T>(
        &mut Cursor::new(&frame[..]),
        DEFAULT_MAX_FRAME_LEN,
        &never_stop,
    );
    stats.decode_ns += started.elapsed().as_nanos() as u64;
    stats.messages += 1;
    match decoded {
        Ok(Ok(back)) if back == *message => Ok(frame.len()),
        _ => Err(CoreError::io_data(
            "a frame did not decode to what was encoded",
        )),
    }
}

impl Wire {
    pub fn new(client: Client, spans: Spans) -> Wire {
        Wire {
            client,
            spans,
            protocol: None,
        }
    }

    fn observe(&mut self, request: impl FnOnce() -> Request, response: Response) -> Result<()> {
        if let Some(stats) = &mut self.protocol {
            stats.request_bytes += round_trip(&request(), stats)?;
            stats.response_bytes += round_trip(&response, stats)?;
            stats.requests += 1;
        }
        Ok(())
    }
}

impl Backend for Wire {
    fn create(&mut self, request: u64, plan: &SessionPlan) -> Result<u64> {
        let config = plan.config.clone();
        let session = self
            .spans
            .time("wire.create", request, || self.client.create(config))?;
        self.observe(
            || Request::Create {
                config: plan.config.clone(),
            },
            Response::Created { session },
        )?;
        Ok(session)
    }

    fn present(&mut self, request: u64, session: u64) -> Result<Vec<Package>> {
        let packages = self
            .spans
            .time("wire.present", request, || self.client.present(session))?;
        if self.protocol.is_some() {
            self.observe(
                || Request::Present { session },
                Response::Presented {
                    packages: packages.clone(),
                },
            )?;
        }
        Ok(packages)
    }

    fn feedback(&mut self, request: u64, session: u64, feedback: Feedback) -> Result<usize> {
        let preferences = self.spans.time("wire.feedback", request, || {
            self.client.feedback(session, feedback)
        })?;
        self.observe(
            || Request::Feedback { session, feedback },
            Response::FeedbackRecorded { preferences },
        )?;
        Ok(preferences)
    }

    fn recommend(&mut self, request: u64, session: u64) -> Result<Vec<RankedPackage>> {
        let ranked = self
            .spans
            .time("wire.recommend", request, || self.client.recommend(session))?;
        if self.protocol.is_some() {
            self.observe(
                || Request::Recommend { session },
                Response::Recommended {
                    ranked: ranked.clone(),
                },
            )?;
        }
        Ok(ranked)
    }
}

/// An in-process [`SessionStore`].  With `spill` set, the backend keeps its
/// own LRU picture of each shard and spills and rehydrates sessions through
/// explicit `evict` / `restore` calls before each verb, so those costs get
/// spans of their own; the verb itself then always finds its session live.
pub struct InProcess {
    pub store: SessionStore,
    pub spans: Spans,
    /// The checkpoints the explicit spills wrote.
    pub checkpoints: Checkpoints,
    spill: Option<SpillModel>,
    /// Store id → plan index.
    plans: HashMap<u64, usize>,
    created: u64,
}

struct SpillModel {
    shards: usize,
    capacity: usize,
    /// Per shard, live store ids from least to most recently used.
    live: Vec<Vec<u64>>,
}

/// Checkpoints a spill wrote: before which request, of which sessions (plan
/// indices).
pub type Checkpoints = HashMap<u64, Vec<usize>>;

impl InProcess {
    /// `spill` is the store's `(shards, capacity_per_shard)` when spills
    /// should be explicit.
    pub fn new(store: SessionStore, spans: Spans, spill: Option<(usize, usize)>) -> InProcess {
        InProcess {
            store,
            spans,
            checkpoints: HashMap::new(),
            spill: spill.map(|(shards, capacity)| SpillModel {
                shards,
                capacity,
                live: vec![Vec::new(); shards],
            }),
            plans: HashMap::new(),
            created: 0,
        }
    }

    /// Spills least recently used sessions of `session`'s shard until one
    /// more fits, recording which were checkpointed before `request`.
    fn make_room(&mut self, request: u64, session: u64) -> Result<()> {
        let Some(model) = &mut self.spill else {
            return Ok(());
        };
        let shard = shard_of(SessionId(session), model.shards);
        while model.live[shard].len() >= model.capacity {
            let victim = model.live[shard].remove(0);
            let store = &mut self.store;
            self.spans.time("serve.spill.evict", request, || {
                store.evict(SessionId(victim))
            })?;
            self.checkpoints
                .entry(request)
                .or_default()
                .push(self.plans[&victim]);
        }
        Ok(())
    }

    fn touch(&mut self, session: u64) {
        if let Some(model) = &mut self.spill {
            let live = &mut model.live[shard_of(SessionId(session), model.shards)];
            live.retain(|&id| id != session);
            live.push(session);
        }
    }

    /// Runs one verb on a live session: rehydrates it first when the LRU
    /// picture says it was spilled.
    fn verb<R>(
        &mut self,
        name: &'static str,
        request: u64,
        session: u64,
        call: impl FnOnce(&mut SessionStore, SessionId) -> Result<R>,
    ) -> Result<R> {
        if let Some(model) = &self.spill {
            let shard = shard_of(SessionId(session), model.shards);
            if !model.live[shard].contains(&session) {
                self.make_room(request, session)?;
                let store = &mut self.store;
                self.spans.time("serve.spill.restore", request, || {
                    store.restore(SessionId(session))
                })?;
            }
        }
        let store = &mut self.store;
        let result = self
            .spans
            .time(name, request, || call(store, SessionId(session)))?;
        self.touch(session);
        Ok(result)
    }
}

impl Backend for InProcess {
    fn create(&mut self, request: u64, plan: &SessionPlan) -> Result<u64> {
        self.make_room(request, self.created)?;
        let store = &mut self.store;
        let id = self.spans.time("serve.store.create", request, || {
            store.create(plan.config.clone())
        })?;
        self.created += 1;
        self.plans.insert(id.0, plan.index);
        self.touch(id.0);
        Ok(id.0)
    }

    fn present(&mut self, request: u64, session: u64) -> Result<Vec<Package>> {
        self.verb("serve.store.present", request, session, |store, id| {
            store.present(id)
        })
    }

    fn feedback(&mut self, request: u64, session: u64, feedback: Feedback) -> Result<usize> {
        self.verb("serve.store.feedback", request, session, |store, id| {
            store.feedback(id, feedback)
        })
    }

    fn recommend(&mut self, request: u64, session: u64) -> Result<Vec<RankedPackage>> {
        self.verb("serve.store.recommend", request, session, |store, id| {
            store.recommend(id)
        })
    }
}

/// Work counters of the core layers, summed over the direct execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCounters {
    pub engine_sessions: usize,
    pub engine_presents: usize,
    pub searches: usize,
    pub candidates_created: usize,
    pub candidates_kept: usize,
    pub sorted_accesses: usize,
    pub cells: usize,
    pub engine_feedbacks: usize,
    pub preferences: usize,
    pub samples_replaced: usize,
    pub engine_recommends: usize,
    pub baseline_presents: usize,
    pub baseline_feedbacks: usize,
    pub checkpoints: usize,
    pub checkpoint_bytes: usize,
}

enum Direct {
    Engine(Box<RecommenderEngine>),
    Baseline(Box<dyn Recommender + Send>),
}

struct DirectSession {
    recommender: Direct,
    seed: u64,
    ops: u64,
    last_shown: Vec<Package>,
}

/// The recommenders, driven directly: every verb runs with
/// `op_rng(seed, ops)`, the stream the store derives for it, and an engine
/// present runs as `resample` (empty pool only) → `prepare_present` →
/// `score_stacked` → `present_from_scores`, each in a span of its layer.
pub struct Recommenders {
    sessions: Vec<DirectSession>,
    /// Plan index → session handle.
    handles: HashMap<usize, u64>,
    pub spans: Spans,
    pub counters: CoreCounters,
    /// Checkpoints the in-process store wrote; their size is measured on the
    /// same session state here.
    pub checkpoints: Checkpoints,
}

impl Recommenders {
    pub fn new(spans: Spans, checkpoints: Checkpoints) -> Recommenders {
        Recommenders {
            sessions: Vec::new(),
            handles: HashMap::new(),
            spans,
            counters: CoreCounters::default(),
            checkpoints,
        }
    }

    fn measure_checkpoints(&mut self, request: u64) -> Result<()> {
        let Some(victims) = self.checkpoints.get(&request) else {
            return Ok(());
        };
        // Warm-up sessions are not driven here; their checkpoints are not
        // measured.
        for handle in victims.iter().filter_map(|index| self.handles.get(index)) {
            if let Direct::Engine(engine) = &self.sessions[*handle as usize].recommender {
                let json = serde_json::to_string(&engine.snapshot())
                    .map_err(|e| CoreError::InvalidConfig(format!("snapshot: {e}")))?;
                self.counters.checkpoints += 1;
                self.counters.checkpoint_bytes += json.len();
            }
        }
        Ok(())
    }
}

impl Backend for Recommenders {
    fn create(&mut self, request: u64, plan: &SessionPlan) -> Result<u64> {
        self.measure_checkpoints(request)?;
        let config = &plan.config;
        let recommender = match &config.spec {
            RecommenderSpec::Engine(engine) => {
                self.counters.engine_sessions += 1;
                Direct::Engine(Box::new(self.spans.time("core.build", request, || {
                    RecommenderEngine::builder(
                        config.catalog.as_ref().clone(),
                        config.profile.clone(),
                    )
                    .max_package_size(config.max_package_size)
                    .config(engine.clone())
                    .build()
                })?))
            }
            RecommenderSpec::Baseline(spec) => {
                Direct::Baseline(self.spans.time("baselines.build", request, || {
                    spec.build(
                        config.catalog.as_ref().clone(),
                        config.profile.clone(),
                        config.max_package_size,
                    )
                })?)
            }
        };
        let handle = self.sessions.len() as u64;
        self.sessions.push(DirectSession {
            recommender,
            seed: config.seed,
            ops: 0,
            last_shown: Vec::new(),
        });
        self.handles.insert(session_of(request), handle);
        Ok(handle)
    }

    fn present(&mut self, request: u64, handle: u64) -> Result<Vec<Package>> {
        self.measure_checkpoints(request)?;
        let Recommenders {
            sessions,
            spans,
            counters,
            ..
        } = self;
        let session = &mut sessions[handle as usize];
        let mut rng = op_rng(session.seed, session.ops);
        let shown = match &mut session.recommender {
            Direct::Engine(engine) => {
                if engine.pool().is_empty() {
                    spans.time("core.sampler", request, || engine.resample(&mut rng))?;
                }
                let before = engine.search_stats();
                let prep =
                    spans.time("core.search", request, || engine.prepare_present(&mut rng))?;
                let search = engine.search_stats().delta_since(&before);
                let stacked = spans.time("core.scoring", request, || score_stacked(&[&prep]));
                let shown = spans.time("core.ranking", request, || {
                    engine.present_from_scores(&prep, 0, &stacked, &mut rng)
                });
                counters.engine_presents += 1;
                counters.searches += search.searches;
                counters.candidates_created += search.candidates_created;
                counters.sorted_accesses += search.sorted_accesses;
                counters.candidates_kept += prep.num_candidates();
                counters.cells += stacked.union_len() * prep.num_samples();
                shown
            }
            Direct::Baseline(baseline) => {
                counters.baseline_presents += 1;
                spans.time("baselines.present", request, || baseline.present(&mut rng))?
            }
        };
        session.ops += 1;
        session.last_shown = shown.clone();
        Ok(shown)
    }

    fn feedback(&mut self, request: u64, handle: u64, feedback: Feedback) -> Result<usize> {
        self.measure_checkpoints(request)?;
        let Recommenders {
            sessions,
            spans,
            counters,
            ..
        } = self;
        let session = &mut sessions[handle as usize];
        let mut rng = op_rng(session.seed, session.ops);
        let shown = &session.last_shown;
        let added = match &mut session.recommender {
            Direct::Engine(engine) => {
                let before: Vec<Vec<f64>> = engine
                    .pool()
                    .weight_matrix()
                    .rows()
                    .map(<[f64]>::to_vec)
                    .collect();
                let added = spans.time("core.maintenance", request, || {
                    engine.record_feedback(shown, feedback, &mut rng)
                })?;
                let after = engine.pool().weight_matrix();
                counters.samples_replaced += (0..after.len())
                    .filter(|&i| before.get(i).is_none_or(|row| row[..] != *after.row(i)))
                    .count();
                counters.engine_feedbacks += 1;
                counters.preferences += added;
                added
            }
            Direct::Baseline(baseline) => {
                counters.baseline_feedbacks += 1;
                spans.time("baselines.feedback", request, || {
                    baseline.record_feedback(shown, feedback, &mut rng)
                })?
            }
        };
        session.ops += 1;
        Ok(added)
    }

    fn recommend(&mut self, request: u64, handle: u64) -> Result<Vec<RankedPackage>> {
        self.measure_checkpoints(request)?;
        let Recommenders {
            sessions,
            spans,
            counters,
            ..
        } = self;
        let session = &mut sessions[handle as usize];
        let mut rng = op_rng(session.seed, session.ops);
        let ranked = match &mut session.recommender {
            Direct::Engine(engine) => {
                counters.engine_recommends += 1;
                spans.time("core.recommend", request, || engine.recommend(&mut rng))?
            }
            Direct::Baseline(baseline) => spans.time("baselines.recommend", request, || {
                baseline.recommend(&mut rng)
            })?,
        };
        session.ops += 1;
        Ok(ranked)
    }
}
