//! The sharded, journal-backed session store.
//!
//! A [`SessionStore`] owns `N` [`Shard`]s; every session hashes to one shard
//! by its [`SessionId`] ([`shard_of`]), and a shard is a self-contained unit:
//! its sessions, their journal, its LRU clock and its counters.  Shards never
//! share state, which is what lets the serving loop drive them from separate
//! OS threads with plain `&mut` splitting — no locks anywhere.
//!
//! ## Capacity and spill
//!
//! Each shard keeps at most `capacity_per_shard` sessions *live* in memory.
//! Touching a session beyond that evicts the shard's least-recently-used
//! live session: engine sessions spill to a [`SessionEvent::Snapshot`]
//! checkpoint in the journal (a typed copy of the pool and preferences
//! that shares the config's catalog, so O(session) to take and O(1) to
//! replay from; no JSON unless the store is durable); baseline sessions
//! simply drop their in-memory form, because the journal already holds
//! everything needed to rebuild them.  Spilled sessions stay
//! addressable — the next operation rehydrates them through
//! [`Journal::replay`], bit-identically.  Victim selection reads an ordered
//! LRU index (a BTree keyed by the shard clock), so an eviction costs
//! O(log live) instead of an O(live) scan.
//!
//! ## Durability
//!
//! A store opened through [`SessionStore::open`] writes every journal event
//! through a per-shard `ShardLog` — the segmented, group-committed,
//! compacting durable journal of [`crate::durable`] — and rebuilds itself
//! from those segments on the next open, torn tail and all.  Stores built
//! with [`SessionStore::new`]/[`SessionStore::from_journal`] stay purely in
//! memory; every other behaviour (replay, eviction, determinism) is
//! identical, which is what the serving proptests exercise.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, Weak};

use pkgrec_core::{
    Catalog, CoreError, Feedback, Package, RankedPackage, Recommender, RecommenderState, Result,
    SessionSnapshot,
};
use serde::{Deserialize, Serialize};

use crate::config::{catalog_fingerprint, op_rng, shard_of, LiveSession, SessionConfig, SessionId};
use crate::durable::{read_manifest, shard_dir, write_manifest, DurabilityConfig, ShardLog};
use crate::fault::FaultInjector;
use crate::journal::{Journal, SessionEvent};
use crate::segment::SEGMENT_VERSION;

/// Shape of a [`SessionStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Number of shards (parallelism grain of the serving loop).
    pub shards: usize,
    /// Maximum number of *live* sessions per shard; the store holds any
    /// number of sessions overall, spilling the least recently used ones.
    pub capacity_per_shard: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 4,
            capacity_per_shard: 1024,
        }
    }
}

impl StoreConfig {
    /// Validates the shape (both knobs must be at least 1).
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CoreError::InvalidConfig(
                "a session store needs at least one shard".into(),
            ));
        }
        if self.capacity_per_shard == 0 {
            return Err(CoreError::InvalidConfig(
                "capacity_per_shard must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Store observability counters (summed across shards by
/// [`SessionStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Sessions created.
    pub created: usize,
    /// Operations that found their session live in memory.
    pub hits: usize,
    /// Operations that had to rehydrate a spilled session (journal replay).
    pub restores: usize,
    /// Sessions spilled by capacity eviction or explicit `evict`.
    pub evictions: usize,
    /// Snapshot checkpoints written to the journal.
    pub snapshots: usize,
    /// Journal events appended (all kinds).
    pub journal_events: usize,
    /// Operations that failed mid-mutation and discarded the live session
    /// so the journal stays the source of truth (see the op methods).
    pub rollbacks: usize,
    /// Durable segment files opened for writing (compaction rewrites
    /// included); zero for memory-only stores.
    pub segments_written: usize,
    /// Bytes handed to the durable journal (record framing included,
    /// compaction rewrites included).
    pub bytes_appended: usize,
    /// Disk bytes reclaimed by checkpoint-anchored compaction.
    pub bytes_reclaimed: usize,
    /// Group commits: buffered write batches flushed to segment files.
    pub group_commits: usize,
    /// Sessions re-registered from a recovered or adopted journal
    /// ([`SessionStore::open`] / [`SessionStore::from_journal`]).
    pub recovery_replays: usize,
    /// Ordered-LRU entries examined while picking eviction victims — at
    /// most two per eviction (the head, plus one skip when the head is the
    /// session being rehydrated), never the shard population.
    pub eviction_probes: usize,
    /// Always 0.  This and the next four counters audited a cross-shard
    /// present-batching stack that no longer exists; they stay only so the
    /// `Stats` wire frame keeps its shape until the next protocol bump.
    pub batched_presents: usize,
    /// Always 0 (see `batched_presents`).
    pub batched_groups: usize,
    /// Always 0 (see `batched_presents`).
    pub batched_sessions: usize,
    /// Always 0 (see `batched_presents`).
    pub admission_fallbacks: usize,
    /// Always 0 (see `batched_presents`).
    pub batch_wait_us: usize,
    /// IO failures injected by the [`FaultPlan`](crate::FaultPlan) carried
    /// in [`DurabilityConfig`]; zero in production (the empty plan).
    pub injected_faults: usize,
    /// Shards currently in degraded (read-only) mode — a gauge, not a
    /// counter: it reflects the state at the moment [`Shard::stats`] ran.
    pub degraded_shards: usize,
    /// Operations undone because their durable append failed (a subset of
    /// `rollbacks`, which also counts compute-failure rollbacks).
    pub rolled_back_ops: usize,
}

impl StoreStats {
    /// Sums another shard's counters into this one (the five always-zero
    /// batching counters excepted).
    pub fn merge(&mut self, other: &StoreStats) {
        self.created += other.created;
        self.hits += other.hits;
        self.restores += other.restores;
        self.evictions += other.evictions;
        self.snapshots += other.snapshots;
        self.journal_events += other.journal_events;
        self.rollbacks += other.rollbacks;
        self.segments_written += other.segments_written;
        self.bytes_appended += other.bytes_appended;
        self.bytes_reclaimed += other.bytes_reclaimed;
        self.group_commits += other.group_commits;
        self.recovery_replays += other.recovery_replays;
        self.eviction_probes += other.eviction_probes;
        self.injected_faults += other.injected_faults;
        self.degraded_shards += other.degraded_shards;
        self.rolled_back_ops += other.rolled_back_ops;
    }
}

/// What one [`SessionStore::compact`] pass accomplished (summed across
/// shards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactionStats {
    /// Fresh checkpoints written for live engine sessions whose latest
    /// journaled checkpoint was stale, so compaction could anchor on them.
    pub checkpoints_written: usize,
    /// Journal records dropped as superseded by a later checkpoint.
    pub events_dropped: usize,
    /// Disk bytes reclaimed by the durable generation rewrite (zero for
    /// memory-only stores).
    pub bytes_reclaimed: usize,
}

/// The store-wide catalog intern table: content-equal catalogs resolve to
/// one shared `Arc`, so the session configs of a fleet created through
/// *any* shard — including configs deserialised off the wire, each with its
/// own fresh allocation, and `Created` records adopted at recovery — hold
/// one copy of their catalog instead of one per session.
///
/// Keyed by [`catalog_fingerprint`] with full content verification on hit
/// (a colliding fingerprint forms its own entry).  Holds [`Weak`] handles,
/// so dropping a fleet releases its catalogs.  The mutex is touched only
/// at session creation and journal adoption, never on the per-op hot path.
#[derive(Clone, Default)]
pub(crate) struct CatalogInterner {
    by_fingerprint: Arc<Mutex<HashMap<u64, Vec<Weak<Catalog>>>>>,
}

impl CatalogInterner {
    /// Resolves `catalog` to the store's canonical `Arc` for its content,
    /// registering it as the canonical handle if the content is new.
    fn intern(&self, catalog: Arc<Catalog>) -> Arc<Catalog> {
        let fingerprint = catalog_fingerprint(&catalog);
        let mut table = self.by_fingerprint.lock().expect("interner poisoned");
        let slot = table.entry(fingerprint).or_default();
        slot.retain(|weak| weak.strong_count() > 0);
        for weak in slot.iter() {
            if let Some(existing) = weak.upgrade() {
                if Arc::ptr_eq(&existing, &catalog) || *existing == *catalog {
                    return existing;
                }
            }
        }
        slot.push(Arc::downgrade(&catalog));
        catalog
    }
}

/// One session's store entry: its recipe, its (live or spilled) state and
/// the drive bookkeeping.
struct SessionEntry {
    config: SessionConfig,
    live: Option<LiveSession>,
    /// Operations applied so far — the next operation's RNG index.
    ops: u64,
    /// The list returned by the session's latest `present` (empty before
    /// the first one); feedback is validated against it.
    last_shown: Vec<Package>,
    /// LRU stamp from the owning shard's clock.
    last_used: u64,
}

/// One shard: a self-contained map of sessions plus their journal.
///
/// A shard is the unit of exclusive ownership: the serving loop and the
/// `pkgrec-server` request loop both hand each worker thread `&mut` access
/// to a disjoint set of shards ([`SessionStore::shards_mut`]), so the
/// public per-shard operations below never contend with another thread.
/// Callers are responsible for routing: session `id` belongs on shard
/// [`shard_of`]`(id, store.shard_count())`.
pub struct Shard {
    sessions: HashMap<SessionId, SessionEntry>,
    journal: Journal,
    /// Per-session record offsets into `journal` — rehydration replays from
    /// the indexed positions instead of scanning the whole shard log, so a
    /// restore costs O(session history), not O(shard history).
    event_index: HashMap<SessionId, Vec<usize>>,
    /// Ordered LRU index over *live* sessions, keyed by their clock stamp
    /// (stamps are unique — the clock ticks on every insert and touch), so
    /// the eviction victim is the first element instead of a shard scan.
    lru: BTreeSet<(u64, SessionId)>,
    /// The durable backing log (`None` for memory-only stores).
    log: Option<ShardLog>,
    capacity: usize,
    /// Maintained count of entries with a live session, so capacity checks
    /// never rescan the shard.
    live_sessions: usize,
    clock: u64,
    stats: StoreStats,
    /// This shard's index within the store (degraded-error attribution).
    index: usize,
    /// Consecutive durable-append failures; reaching the retry budget
    /// trips the shard into degraded (read-only) mode.
    append_failures: usize,
    /// [`DurabilityConfig::append_retry_budget`]; irrelevant for
    /// memory-only shards, whose appends cannot fail.
    append_retry_budget: usize,
    /// Degraded (read-only) mode: mutating operations are refused with
    /// [`CoreError::Degraded`] until a [`Shard::sync`] succeeds.
    degraded: bool,
    /// The store-wide catalog intern table (shared by every shard; touched
    /// only at create/adopt).
    interner: CatalogInterner,
}

impl Shard {
    fn new(index: usize, capacity: usize, interner: CatalogInterner) -> Self {
        Shard {
            sessions: HashMap::new(),
            journal: Journal::new(),
            event_index: HashMap::new(),
            lru: BTreeSet::new(),
            log: None,
            capacity,
            live_sessions: 0,
            clock: 0,
            stats: StoreStats::default(),
            index,
            append_failures: 0,
            append_retry_budget: usize::MAX,
            degraded: false,
            interner,
        }
    }

    /// The error every mutating operation returns while the shard is
    /// degraded.
    fn degraded_error(&self) -> CoreError {
        CoreError::Degraded {
            shard: self.index,
            reason: format!(
                "durable append failed {} consecutive times (budget {}); \
                 the shard serves reads only until a sync() succeeds",
                self.append_failures, self.append_retry_budget
            ),
        }
    }

    /// Refuses mutating operations while the shard is degraded — checked
    /// at operation entry, before any compute is spent.
    fn check_writable(&self) -> Result<()> {
        if self.degraded {
            Err(self.degraded_error())
        } else {
            Ok(())
        }
    }

    /// Whether this shard is currently degraded (read-only).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Books one durable-append failure: the op is being rolled back, and
    /// exhausting the retry budget trips degraded mode instead of letting
    /// every future request burn a failing IO path.
    fn note_append_failure(&mut self) {
        self.stats.rolled_back_ops += 1;
        self.append_failures += 1;
        if self.append_failures >= self.append_retry_budget {
            self.degraded = true;
        }
    }

    /// Appends one event: durable log first (write-ahead), then the
    /// in-memory journal.  When the durable append fails nothing reached
    /// the in-memory journal either, so the caller can roll the session
    /// back to a consistent state.  A degraded shard refuses the append
    /// outright (this is the backstop guard — operations also check at
    /// entry via `check_writable`, before spending compute).
    fn append_event(&mut self, id: SessionId, event: SessionEvent) -> Result<()> {
        if self.degraded {
            return Err(self.degraded_error());
        }
        if let Some(log) = &mut self.log {
            if let Err(error) = log.append(id, &event) {
                self.note_append_failure();
                return Err(error);
            }
            self.append_failures = 0;
        }
        self.adopt_record(id, event);
        Ok(())
    }

    /// The memory half of an append — also the adoption path for records
    /// that already live on disk (journal import, crash recovery), which
    /// must not be re-written through the durable log.
    fn adopt_record(&mut self, id: SessionId, mut event: SessionEvent) {
        // Adopted `Created` records carry their own catalog allocations
        // (per-record on recovery); interning here shares one per content.
        if let SessionEvent::Created { config } = &mut event {
            config.catalog = self.interner.intern(config.catalog.clone());
        }
        self.journal.append(id, event);
        self.event_index
            .entry(id)
            .or_default()
            .push(self.journal.len() - 1);
        self.stats.journal_events += 1;
    }

    /// Registers every session the (adopted) journal created, in spilled
    /// form with the op count its events imply; returns the smallest id not
    /// in use.  Part of [`SessionStore::from_journal`]/[`SessionStore::open`].
    fn register_adopted(&mut self) -> u64 {
        let created: Vec<(SessionId, SessionConfig)> = self
            .journal
            .created_sessions()
            .into_iter()
            .map(|(id, config)| (id, config.clone()))
            .collect();
        let mut next = 0;
        for (id, config) in created {
            let ops = self.indexed_op_count(id);
            self.insert_spilled(id, config, ops);
            self.stats.recovery_replays += 1;
            next = next.max(id.0 + 1);
        }
        next
    }

    /// Re-appends the whole in-memory journal through the durable log —
    /// the resharding path, where recovered records must land in their new
    /// owning shard's segments.
    fn persist_journal(&mut self) -> Result<()> {
        let Some(log) = &mut self.log else {
            return Ok(());
        };
        for record in self.journal.records() {
            log.append(record.session, &record.event)?;
        }
        log.sync()
    }

    /// Discards a live session whose operation failed partway: the journal
    /// never recorded the operation, so the in-memory state may have drifted
    /// from it (e.g. a click whose pool maintenance exhausted the sampler
    /// after some preferences were already absorbed).  Dropping the live
    /// form makes the journal authoritative again — the next touch rehydrates
    /// the exact pre-operation state.
    fn rollback(&mut self, id: SessionId) {
        if let Some(entry) = self.sessions.get_mut(&id) {
            let stamp = entry.last_used;
            if entry.live.take().is_some() {
                self.live_sessions -= 1;
                self.lru.remove(&(stamp, id));
            }
            self.stats.rollbacks += 1;
        }
    }

    fn entry(&self, id: SessionId) -> Result<&SessionEntry> {
        self.sessions
            .get(&id)
            .ok_or(CoreError::UnknownSession(id.0))
    }

    fn touch(&mut self, id: SessionId) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.sessions.get_mut(&id) {
            if entry.live.is_some() {
                self.lru.remove(&(entry.last_used, id));
                self.lru.insert((clock, id));
            }
            entry.last_used = clock;
        }
    }

    fn live_count(&self) -> usize {
        debug_assert_eq!(
            self.live_sessions,
            self.sessions.values().filter(|e| e.live.is_some()).count(),
            "the maintained live-session counter tracks the map"
        );
        debug_assert_eq!(
            self.lru.len(),
            self.live_sessions,
            "the ordered LRU index tracks exactly the live sessions"
        );
        self.live_sessions
    }

    /// Spills the least-recently-used live session other than `keep`,
    /// returning whether a victim existed.
    ///
    /// The victim is the head of the ordered LRU index — O(log live) —
    /// and, because clock stamps are unique, it is exactly the session the
    /// old full-shard `min_by_key` scan would have picked.
    fn evict_lru(&mut self, keep: Option<SessionId>) -> Result<bool> {
        let mut probes = 0;
        let victim = self
            .lru
            .iter()
            .find(|(_, id)| {
                probes += 1;
                Some(*id) != keep
            })
            .map(|(_, id)| *id);
        self.stats.eviction_probes += probes;
        match victim {
            Some(id) => self.spill(id).map(|()| true),
            None => Ok(false),
        }
    }

    /// Writes a `Snapshot` checkpoint for a snapshot-capable session into
    /// the journal — the one checkpoint recipe shared by capacity spills
    /// and explicit [`SessionStore::snapshot`] calls.
    fn write_checkpoint(
        &mut self,
        id: SessionId,
        live: &LiveSession,
    ) -> Result<Arc<SessionSnapshot>> {
        let entry = self.entry(id)?;
        let snapshot = Arc::new(live.snapshot()?);
        let ops = entry.ops;
        let last_shown = entry.last_shown.clone();
        self.stats.snapshots += 1;
        self.append_event(
            id,
            SessionEvent::Snapshot {
                snapshot: Arc::clone(&snapshot),
                ops,
                last_shown,
            },
        )?;
        Ok(snapshot)
    }

    /// Spills one live session: engines checkpoint their snapshot into the
    /// journal, baselines rely on replay-from-`Created`.
    fn spill(&mut self, id: SessionId) -> Result<()> {
        let entry = self
            .sessions
            .get_mut(&id)
            .ok_or(CoreError::UnknownSession(id.0))?;
        let snapshot_capable = entry.config.spec.supports_snapshot();
        let stamp = entry.last_used;
        let Some(live) = entry.live.take() else {
            return Ok(()); // already spilled
        };
        self.live_sessions -= 1;
        self.lru.remove(&(stamp, id));
        if snapshot_capable {
            self.write_checkpoint(id, &live)?;
        }
        self.stats.evictions += 1;
        Ok(())
    }

    /// Makes `id` live, replaying its journal if it was spilled, and evicts
    /// down to capacity around it.
    pub(crate) fn ensure_live(&mut self, id: SessionId) -> Result<()> {
        if !self.sessions.contains_key(&id) {
            return Err(CoreError::UnknownSession(id.0));
        }
        if self.sessions[&id].live.is_some() {
            self.stats.hits += 1;
            return Ok(());
        }
        while self.live_count() >= self.capacity && self.evict_lru(Some(id))? {}
        let positions = self
            .event_index
            .get(&id)
            .ok_or(CoreError::UnknownSession(id.0))?;
        let replayed = self.journal.replay_at(id, positions)?;
        let entry = self.sessions.get_mut(&id).expect("presence checked above");
        debug_assert_eq!(replayed.ops, entry.ops, "journal and entry ops agree");
        entry.live = Some(replayed.session);
        entry.ops = replayed.ops;
        entry.last_shown = replayed.last_shown;
        let stamp = entry.last_used;
        self.live_sessions += 1;
        // Rehydration re-enters the LRU index at the session's existing
        // stamp — it does not count as a touch (the caller touches when the
        // operation lands, matching the old scan's behaviour).
        self.lru.insert((stamp, id));
        self.stats.restores += 1;
        Ok(())
    }

    /// Builds and registers a new session under a caller-chosen id — the
    /// per-shard half of [`SessionStore::create`], public so an external
    /// request loop that owns this shard `&mut` can create sessions without
    /// routing back through the store.  The id must hash to this shard
    /// ([`shard_of`]) and must not be in use; the config is validated (the
    /// live session is built) before anything is journaled.
    pub fn create(&mut self, id: SessionId, mut config: SessionConfig) -> Result<()> {
        self.check_writable()?;
        if self.sessions.contains_key(&id) {
            return Err(CoreError::InvalidConfig(format!(
                "session id {id} is already in use on this shard"
            )));
        }
        // Resolve the catalog to the store's canonical handle first, so
        // content-equal catalogs — notably configs deserialised off the
        // wire, which arrive one fresh allocation each — share one `Arc`.
        config.catalog = self.interner.intern(config.catalog);
        let live = config.build()?;
        self.insert(id, config, live)
    }

    /// Registers a new session (journals `Created`, evicts down to capacity).
    fn insert(&mut self, id: SessionId, config: SessionConfig, live: LiveSession) -> Result<()> {
        self.append_event(
            id,
            SessionEvent::Created {
                config: config.clone(),
            },
        )?;
        while self.live_count() >= self.capacity && self.evict_lru(None)? {}
        self.clock += 1;
        self.sessions.insert(
            id,
            SessionEntry {
                config,
                live: Some(live),
                ops: 0,
                last_shown: Vec::new(),
                last_used: self.clock,
            },
        );
        self.live_sessions += 1;
        self.lru.insert((self.clock, id));
        self.stats.created += 1;
        Ok(())
    }

    /// Number of state-changing operations the shard's journal records for
    /// a session (via the offset index, so adoption stays linear).
    ///
    /// Counted backwards from the latest `Snapshot` checkpoint (its
    /// recorded `ops` plus the operations after it), so the count is right
    /// for compacted journals, whose pre-checkpoint operations are gone.
    fn indexed_op_count(&self, id: SessionId) -> u64 {
        let Some(positions) = self.event_index.get(&id) else {
            return 0;
        };
        let mut after = 0u64;
        let mut base = 0u64;
        for &i in positions.iter().rev() {
            match &self.journal.records()[i].event {
                SessionEvent::Presented | SessionEvent::Feedback(_) | SessionEvent::Recommended => {
                    after += 1
                }
                SessionEvent::Snapshot { ops, .. } => {
                    base = *ops;
                    break;
                }
                SessionEvent::Created { .. } => {}
            }
        }
        base + after
    }

    /// Registers a session in spilled form (journal adoption); the journal
    /// must already contain the session's history.
    fn insert_spilled(&mut self, id: SessionId, config: SessionConfig, ops: u64) {
        self.clock += 1;
        self.sessions.insert(
            id,
            SessionEntry {
                config,
                live: None,
                ops,
                last_shown: Vec::new(),
                last_used: self.clock,
            },
        );
    }

    /// One `present` operation: derive the op RNG, run, journal, remember
    /// the shown list.  A failing run rolls the session back (see
    /// `Shard::rollback`) so the journal stays bit-identical to the live
    /// state.
    pub fn op_present(&mut self, id: SessionId) -> Result<Vec<Package>> {
        self.check_writable()?;
        self.ensure_live(id)?;
        let entry = self.sessions.get_mut(&id).expect("live ensured");
        let mut rng = op_rng(entry.config.seed, entry.ops);
        let outcome = entry
            .live
            .as_mut()
            .expect("live ensured")
            .recommender()
            .present(&mut rng);
        let shown = match outcome {
            Ok(shown) => shown,
            Err(e) => {
                self.rollback(id);
                return Err(e);
            }
        };
        // Journal before mutating the entry: if the (durable) append fails,
        // rolling the live form back restores journal ↔ entry agreement.
        if let Err(e) = self.append_event(id, SessionEvent::Presented) {
            self.rollback(id);
            return Err(e);
        }
        let entry = self.sessions.get_mut(&id).expect("live ensured");
        entry.ops += 1;
        entry.last_shown = shown.clone();
        self.touch(id);
        Ok(shown)
    }

    /// One `record_feedback` operation against the last presented list.
    /// Malformed feedback is rejected before touching the session; a
    /// mid-mutation failure (e.g. the maintenance sampler running dry on a
    /// contradictory click) rolls the session back to its journaled state.
    pub fn op_feedback(&mut self, id: SessionId, feedback: Feedback) -> Result<usize> {
        self.check_writable()?;
        self.ensure_live(id)?;
        let entry = self.sessions.get_mut(&id).expect("live ensured");
        if entry.last_shown.is_empty() {
            return Err(CoreError::InvalidConfig(format!(
                "session {id} received feedback before any presentation"
            )));
        }
        // Validate up front: index errors are the common client mistake and
        // must not cost a rollback + rehydration.
        feedback.validate(&entry.last_shown)?;
        let shown = entry.last_shown.clone();
        let mut rng = op_rng(entry.config.seed, entry.ops);
        let outcome = entry
            .live
            .as_mut()
            .expect("live ensured")
            .recommender()
            .record_feedback(&shown, feedback, &mut rng);
        let added = match outcome {
            Ok(added) => added,
            Err(e) => {
                self.rollback(id);
                return Err(e);
            }
        };
        if let Err(e) = self.append_event(id, SessionEvent::Feedback(feedback)) {
            self.rollback(id);
            return Err(e);
        }
        let entry = self.sessions.get_mut(&id).expect("live ensured");
        entry.ops += 1;
        self.touch(id);
        Ok(added)
    }

    /// One standalone `recommend` operation (rolls back on failure like the
    /// other operations — a recommend may lazily refill a sample pool).
    pub fn op_recommend(&mut self, id: SessionId) -> Result<Vec<RankedPackage>> {
        self.check_writable()?;
        self.ensure_live(id)?;
        let entry = self.sessions.get_mut(&id).expect("live ensured");
        let mut rng = op_rng(entry.config.seed, entry.ops);
        let outcome = entry
            .live
            .as_mut()
            .expect("live ensured")
            .recommender()
            .recommend(&mut rng);
        let ranked = match outcome {
            Ok(ranked) => ranked,
            Err(e) => {
                self.rollback(id);
                return Err(e);
            }
        };
        if let Err(e) = self.append_event(id, SessionEvent::Recommended) {
            self.rollback(id);
            return Err(e);
        }
        let entry = self.sessions.get_mut(&id).expect("live ensured");
        entry.ops += 1;
        self.touch(id);
        Ok(ranked)
    }

    /// The live session's progress summary (`None` while spilled).
    pub(crate) fn peek_state(&self, id: SessionId) -> Option<RecommenderState> {
        self.sessions
            .get(&id)?
            .live
            .as_ref()
            .map(|live| live.inspect().state())
    }

    /// Serialises the session's snapshot now, journaling it as a checkpoint
    /// (the per-shard form of [`SessionStore::snapshot`]).  Errors for
    /// baseline sessions, whose durable form is their journal.  The JSON is
    /// rendered for the caller; the journal keeps the typed checkpoint.
    pub fn snapshot_now(&mut self, id: SessionId) -> Result<String> {
        self.check_writable()?;
        self.ensure_live(id)?;
        // Borrow dance: take the live session out so the shared checkpoint
        // writer can borrow the shard, then put it straight back (the
        // session stays conceptually live throughout).
        let live = self
            .sessions
            .get_mut(&id)
            .expect("live ensured")
            .live
            .take()
            .expect("live ensured");
        let checkpoint = self.write_checkpoint(id, &live);
        self.sessions.get_mut(&id).expect("live ensured").live = Some(live);
        let snapshot = checkpoint?;
        self.touch(id);
        serde_json::to_string(&*snapshot)
            .map_err(|e| CoreError::InvalidConfig(format!("snapshot serialisation: {e}")))
    }

    /// Flushes (and fsyncs) this shard's durable log, if it has one — the
    /// per-shard form of [`SessionStore::sync`], so a worker thread that
    /// owns the shard exclusively can make its events durable at shutdown.
    ///
    /// A successful sync also *re-arms* a degraded shard: the sync proved
    /// the device accepts writes again, so mutating operations resume.  (If
    /// the underlying fault persists, the next failing appends simply trip
    /// degraded mode again once the retry budget is spent.)
    pub fn sync(&mut self) -> Result<()> {
        if let Some(log) = &mut self.log {
            log.sync()?;
        }
        self.append_failures = 0;
        self.degraded = false;
        Ok(())
    }

    /// Number of sessions registered on this shard (live and spilled).
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The session's configuration.
    pub fn session_config(&self, id: SessionId) -> Result<&SessionConfig> {
        self.entry(id).map(|entry| &entry.config)
    }

    pub(crate) fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The shard's counters, with the durable log's folded in.
    pub fn stats(&self) -> StoreStats {
        let mut stats = self.stats;
        if let Some(log) = &self.log {
            let durable = log.stats();
            stats.segments_written += durable.segments_written;
            stats.bytes_appended += durable.bytes_appended;
            stats.bytes_reclaimed += durable.bytes_reclaimed;
            stats.group_commits += durable.group_commits;
            stats.injected_faults += durable.injected_faults;
        }
        if self.degraded {
            stats.degraded_shards += 1;
        }
        stats
    }

    fn is_live(&self, id: SessionId) -> Option<bool> {
        self.sessions.get(&id).map(|entry| entry.live.is_some())
    }

    /// The `ops` recorded by the session's latest journaled checkpoint.
    fn latest_snapshot_ops(&self, id: SessionId) -> Option<u64> {
        let positions = self.event_index.get(&id)?;
        positions
            .iter()
            .rev()
            .find_map(|&i| match &self.journal.records()[i].event {
                SessionEvent::Snapshot { ops, .. } => Some(*ops),
                _ => None,
            })
    }

    /// Checkpoint-anchored compaction of this shard (see
    /// [`SessionStore::compact`]).
    fn compact(&mut self) -> Result<CompactionStats> {
        let mut outcome = CompactionStats::default();

        // 1. Anchor: make sure every snapshot-capable live session has a
        //    checkpoint at its *current* op count, so compaction can drop
        //    its whole earlier history.  (Spilled engine sessions always
        //    checkpointed when they spilled; baselines keep their full
        //    history — the journal is their only durable form.)
        let stale: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(id, entry)| {
                entry.live.is_some()
                    && entry.config.spec.supports_snapshot()
                    && self.latest_snapshot_ops(**id) != Some(entry.ops)
            })
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            let live = self
                .sessions
                .get_mut(&id)
                .expect("listed above")
                .live
                .take()
                .expect("liveness checked above");
            let checkpoint = self.write_checkpoint(id, &live);
            self.sessions.get_mut(&id).expect("listed above").live = Some(live);
            checkpoint?;
            outcome.checkpoints_written += 1;
        }

        // 2. Drop superseded records and rebuild the offset index.
        let (journal, dropped) = self.journal.compacted();
        outcome.events_dropped = dropped;
        let mut event_index: HashMap<SessionId, Vec<usize>> = HashMap::new();
        for (i, record) in journal.records().iter().enumerate() {
            event_index.entry(record.session).or_default().push(i);
        }

        // 3. Rewrite the durable generation to hold exactly the retained
        //    records (committed before the old generation is deleted).
        if let Some(log) = &mut self.log {
            let reclaimed_before = log.stats().bytes_reclaimed;
            log.rewrite(journal.records().iter().map(|r| (r.session, &r.event)))?;
            outcome.bytes_reclaimed = log.stats().bytes_reclaimed - reclaimed_before;
        }
        self.journal = journal;
        self.event_index = event_index;
        Ok(outcome)
    }
}

/// The sharded, journal-backed session store (see the module docs).
pub struct SessionStore {
    shards: Vec<Shard>,
    next_id: u64,
}

impl SessionStore {
    /// Creates an empty store with the given shape.
    pub fn new(config: StoreConfig) -> Result<Self> {
        config.validate()?;
        let interner = CatalogInterner::default();
        Ok(SessionStore {
            shards: (0..config.shards)
                .map(|i| Shard::new(i, config.capacity_per_shard, interner.clone()))
                .collect(),
            next_id: 0,
        })
    }

    /// Rebuilds a store from an exported journal: every session restarts in
    /// spilled form and rehydrates (bit-identically) on first touch.  The
    /// shard count of the new store is free to differ from the writer's —
    /// session placement is a pure function of the id.
    pub fn from_journal(config: StoreConfig, journal: &Journal) -> Result<Self> {
        let mut store = SessionStore::new(config)?;
        // Distribute records to their owning shards, then register each
        // created session as spilled with the op count its events imply.
        for record in journal.records() {
            let shard = shard_of(record.session, store.shards.len());
            store.shards[shard].adopt_record(record.session, record.event.clone());
        }
        for shard in &mut store.shards {
            let next = shard.register_adopted();
            store.next_id = store.next_id.max(next);
        }
        Ok(store)
    }

    /// Opens (or creates) a *durable* store rooted at `dir` with the default
    /// [`DurabilityConfig`]: every journal event is group-committed to
    /// per-shard segment files, and an existing directory is recovered —
    /// every session re-registered in spilled form, a torn tail record
    /// truncated at the corruption point.
    pub fn open(dir: impl Into<std::path::PathBuf>, config: StoreConfig) -> Result<Self> {
        SessionStore::open_with(config, DurabilityConfig::at(dir))
    }

    /// [`SessionStore::open`] with explicit durability knobs.
    ///
    /// When the on-disk layout was written with a different shard count,
    /// the store is resharded: all events are recovered, the old shard
    /// directories are replaced by the new layout, and every record is
    /// re-persisted.  (The reshard rewrite itself is not crash-atomic —
    /// unlike compaction it replaces the directory tree — so reshard on a
    /// healthy store, not as crash recovery.)
    pub fn open_with(config: StoreConfig, durability: DurabilityConfig) -> Result<Self> {
        config.validate()?;
        durability.validate()?;
        let root = durability.dir.clone();
        std::fs::create_dir_all(&root).map_err(|e| {
            CoreError::io(
                e.kind(),
                format!("create store directory {}: {e}", root.display()),
            )
        })?;
        // Store-level injector: owns the hit counter of the Manifest site
        // (per-shard sites count inside each shard's own `ShardLog`).
        let mut faults = FaultInjector::new(durability.fault_plan.clone());
        let mut store = SessionStore::new(config)?;
        for shard in &mut store.shards {
            shard.append_retry_budget = durability.append_retry_budget;
        }
        match read_manifest(&root)? {
            None => {
                // Fresh durable store.
                for (i, shard) in store.shards.iter_mut().enumerate() {
                    shard.log = Some(ShardLog::create(shard_dir(&root, i), &durability)?);
                }
                write_manifest(&root, config.shards, &mut faults)?;
            }
            Some(manifest) if manifest.version != SEGMENT_VERSION => {
                return Err(CoreError::io_data(format!(
                    "store at {} has wire version {}, this build speaks {SEGMENT_VERSION}",
                    root.display(),
                    manifest.version
                )));
            }
            Some(manifest) if manifest.shards == config.shards => {
                // Matching layout: attach each shard log in place.
                for (i, shard) in store.shards.iter_mut().enumerate() {
                    let (log, events) = ShardLog::recover(shard_dir(&root, i), &durability)?;
                    shard.log = Some(log);
                    for (session, event) in events {
                        shard.adopt_record(session, event);
                    }
                    let next = shard.register_adopted();
                    store.next_id = store.next_id.max(next);
                }
            }
            Some(manifest) => {
                // Reshard: recover everything, rebuild the directory layout.
                let mut recovered: Vec<(SessionId, SessionEvent)> = Vec::new();
                for i in 0..manifest.shards {
                    let (log, events) = ShardLog::recover(shard_dir(&root, i), &durability)?;
                    drop(log);
                    recovered.extend(events);
                }
                for i in 0..manifest.shards {
                    let dir = shard_dir(&root, i);
                    std::fs::remove_dir_all(&dir).map_err(|e| {
                        CoreError::io(
                            e.kind(),
                            format!("remove old shard directory {}: {e}", dir.display()),
                        )
                    })?;
                }
                for (i, shard) in store.shards.iter_mut().enumerate() {
                    shard.log = Some(ShardLog::create(shard_dir(&root, i), &durability)?);
                }
                for (session, event) in recovered {
                    let shard = shard_of(session, store.shards.len());
                    store.shards[shard].adopt_record(session, event);
                }
                for shard in &mut store.shards {
                    let next = shard.register_adopted();
                    store.next_id = store.next_id.max(next);
                    shard.persist_journal()?;
                }
                write_manifest(&root, config.shards, &mut faults)?;
            }
        }
        Ok(store)
    }

    /// Forces every buffered journal event to disk (`fsync` included).
    /// No-op for memory-only stores.
    pub fn sync(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.sync()?;
        }
        Ok(())
    }

    /// Checkpoint-anchored compaction: writes fresh checkpoints for live
    /// engine sessions whose latest checkpoint is stale, drops every record
    /// a later checkpoint supersedes, and (for durable stores) rewrites the
    /// retained records into a fresh committed segment generation before
    /// deleting the old one.
    ///
    /// Invariants: replay over the compacted journal reconstructs every
    /// session bit-identically; baseline sessions keep their full history
    /// (the journal is their only durable form); a crash during the rewrite
    /// leaves exactly one recoverable committed generation.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        let mut total = CompactionStats::default();
        for shard in &mut self.shards {
            let outcome = shard.compact()?;
            total.checkpoints_written += outcome.checkpoints_written;
            total.events_dropped += outcome.events_dropped;
            total.bytes_reclaimed += outcome.bytes_reclaimed;
        }
        Ok(total)
    }

    /// Whether this store writes a durable journal.
    pub fn is_durable(&self) -> bool {
        self.shards.iter().all(|shard| shard.log.is_some())
    }

    /// Total on-disk size of the durable journal (0 for memory-only
    /// stores).  Flush first ([`SessionStore::sync`]) for an exact figure.
    pub fn durable_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for shard in &self.shards {
            if let Some(log) = &shard.log {
                total += log.disk_bytes()?;
            }
        }
        Ok(total)
    }

    fn shard_mut(&mut self, id: SessionId) -> &mut Shard {
        let shard = shard_of(id, self.shards.len());
        &mut self.shards[shard]
    }

    fn shard(&self, id: SessionId) -> &Shard {
        &self.shards[shard_of(id, self.shards.len())]
    }

    /// Creates a session from its configuration, returning its id.
    pub fn create(&mut self, config: SessionConfig) -> Result<SessionId> {
        let id = SessionId(self.next_id);
        // Shard::create validates (builds the live session) before anything
        // is journaled, so a rejected config never burns an id.
        self.shard_mut(id).create(id, config)?;
        self.next_id += 1;
        Ok(id)
    }

    /// Builds one presentation round for the session.
    pub fn present(&mut self, id: SessionId) -> Result<Vec<Package>> {
        self.shard_mut(id).op_present(id)
    }

    /// Records typed feedback against the session's last presented list.
    pub fn feedback(&mut self, id: SessionId, feedback: Feedback) -> Result<usize> {
        self.shard_mut(id).op_feedback(id, feedback)
    }

    /// The session's current top-k recommendation.
    pub fn recommend(&mut self, id: SessionId) -> Result<Vec<RankedPackage>> {
        self.shard_mut(id).op_recommend(id)
    }

    /// Runs a read-only closure against the live session (rehydrating it
    /// first if it was spilled).  Inspection does not consume the session's
    /// RNG stream and is not journaled; all mutation goes through
    /// [`SessionStore::present`] / [`SessionStore::feedback`] /
    /// [`SessionStore::recommend`], which is what keeps the journal a
    /// complete record.
    pub fn with_session<R>(
        &mut self,
        id: SessionId,
        f: impl FnOnce(&dyn Recommender) -> R,
    ) -> Result<R> {
        let shard = self.shard_mut(id);
        shard.ensure_live(id)?;
        shard.touch(id);
        let entry = shard.entry(id)?;
        Ok(f(entry.live.as_ref().expect("live ensured").inspect()))
    }

    /// Serialises the session's snapshot, journaling it as a checkpoint.
    /// Errors for baseline sessions, whose durable form is their journal.
    pub fn snapshot(&mut self, id: SessionId) -> Result<String> {
        self.shard_mut(id).snapshot_now(id)
    }

    /// Spills the session now (it stays addressable; the next operation
    /// rehydrates it from the journal).
    pub fn evict(&mut self, id: SessionId) -> Result<()> {
        let shard = self.shard_mut(id);
        if !shard.sessions.contains_key(&id) {
            return Err(CoreError::UnknownSession(id.0));
        }
        shard.spill(id)
    }

    /// Rehydrates a spilled session now (no-op when it is already live).
    pub fn restore(&mut self, id: SessionId) -> Result<()> {
        self.shard_mut(id).ensure_live(id)
    }

    /// Whether the session is currently live in memory.
    pub fn is_live(&self, id: SessionId) -> Result<bool> {
        self.shard(id)
            .is_live(id)
            .ok_or(CoreError::UnknownSession(id.0))
    }

    /// The session's configuration.
    pub fn session_config(&self, id: SessionId) -> Result<&SessionConfig> {
        self.shard(id).session_config(id)
    }

    /// The session's progress summary, rehydrating it if needed.
    pub fn state(&mut self, id: SessionId) -> Result<RecommenderState> {
        self.with_session(id, |session| session.state())
    }

    /// Total number of sessions (live and spilled).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// Whether the store holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every session id, ascending.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self
            .shards
            .iter()
            .flat_map(|s| s.sessions.keys().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards as a mutable slice — the `&mut`-splitting seam the
    /// serving loop and the `pkgrec-server` request loop parallelise over.
    ///
    /// Split the slice (e.g. with `chunks_mut` or `split_at_mut`) and hand
    /// each worker thread its disjoint shards; route session `id` to index
    /// [`shard_of`]`(id, store.shard_count())`.
    pub fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// The id the next [`SessionStore::create`] call would assign.
    ///
    /// Servers that allocate ids themselves (because they route `Create`
    /// requests straight to shards) seed their allocator from this and
    /// write it back with [`SessionStore::set_next_session_id`].
    pub fn next_session_id(&self) -> u64 {
        self.next_id
    }

    /// Advances the id allocator to `next` (forward-only: a smaller value
    /// is ignored, so ids are never reissued).
    pub fn set_next_session_id(&mut self, next: u64) {
        self.next_id = self.next_id.max(next);
    }

    /// Counters summed across all shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            total.merge(&shard.stats());
        }
        total
    }

    /// All shards' journals merged into one exportable log (records keep
    /// their per-session order; sessions interleave by shard).
    pub fn export_journal(&self) -> Journal {
        let mut merged = Journal::new();
        for shard in &self.shards {
            merged.extend_from(shard.journal());
        }
        merged
    }

    /// The journal of the shard owning `id` (every event of that session,
    /// plus its shard neighbours').
    pub fn journal_for(&self, id: SessionId) -> &Journal {
        self.shard(id).journal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{user_rng, RecommenderSpec};
    use pkgrec_baselines::{BaselineSpec, FeatureDirection};
    use pkgrec_core::{
        AggregationContext, Catalog, EngineConfig, LinearUtility, Profile, SimulatedUser,
    };

    /// The index a hidden-utility user clicks — clicks sampled this way are
    /// always jointly satisfiable, so the engine's constrained samplers
    /// never run dry mid-test.
    fn choose(catalog: &Catalog, shown: &[Package]) -> usize {
        let context = AggregationContext::new(Profile::cost_quality(), catalog, 2).unwrap();
        let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap());
        user.choose(catalog, shown, &mut user_rng(0)).unwrap()
    }

    fn catalog() -> Catalog {
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
            vec![0.5, 0.9],
        ])
        .unwrap()
    }

    fn engine_session(seed: u64) -> SessionConfig {
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
            seed,
        }
    }

    fn skyline_session(seed: u64) -> SessionConfig {
        SessionConfig {
            spec: RecommenderSpec::Baseline(BaselineSpec::Skyline {
                cardinality: 2,
                directions: vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
                k: 2,
            }),
            ..engine_session(seed)
        }
    }

    #[test]
    fn create_present_feedback_recommend_round_trip() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 2,
            capacity_per_shard: 8,
        })
        .unwrap();
        let id = store.create(engine_session(3)).unwrap();
        assert_eq!(id, SessionId(0));
        assert!(store.is_live(id).unwrap());

        let shown = store.present(id).unwrap();
        assert_eq!(shown.len(), 4);
        let index = choose(&store.session_config(id).unwrap().catalog.clone(), &shown);
        let added = store.feedback(id, Feedback::Click { index }).unwrap();
        assert_eq!(added, shown.len() - 1);
        assert_eq!(store.recommend(id).unwrap().len(), 2);
        let state = store.state(id).unwrap();
        assert_eq!(state.rounds, 1);
        assert_eq!(state.preferences, added);

        // Unknown ids are rejected with the dedicated error.
        assert!(matches!(
            store.present(SessionId(99)),
            Err(CoreError::UnknownSession(99))
        ));
        // Feedback before any presentation is rejected.
        let fresh = store.create(engine_session(4)).unwrap();
        assert!(matches!(
            store.feedback(fresh, Feedback::Skip),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn evict_and_restore_are_transparent_for_engines() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 4,
        })
        .unwrap();
        let id = store.create(engine_session(7)).unwrap();
        let shown = store.present(id).unwrap();
        let index = choose(&catalog(), &shown);
        store.feedback(id, Feedback::Click { index }).unwrap();

        let replica = store.recommend(id).unwrap();
        // Rewind: build an identical session, drive identically, evict, and
        // check the restored session recommends the same thing.
        let mut other = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 4,
        })
        .unwrap();
        let oid = other.create(engine_session(7)).unwrap();
        let other_shown = other.present(oid).unwrap();
        assert_eq!(other_shown, shown);
        other.feedback(oid, Feedback::Click { index }).unwrap();
        other.evict(oid).unwrap();
        assert!(!other.is_live(oid).unwrap());
        let restored = other.recommend(oid).unwrap();
        assert!(other.is_live(oid).unwrap());
        assert_eq!(restored, replica);

        let stats = other.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.restores, 1);
    }

    #[test]
    fn baseline_sessions_restore_by_pure_replay() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 4,
        })
        .unwrap();
        let id = store.create(skyline_session(5)).unwrap();
        let shown = store.present(id).unwrap();
        store.feedback(id, Feedback::Click { index: 0 }).unwrap();
        let before = store.recommend(id).unwrap();
        assert!(matches!(
            store.snapshot(id),
            Err(CoreError::InvalidConfig(_))
        ));
        store.evict(id).unwrap();
        // No snapshot checkpoint was written; replay rebuilds from Created.
        assert_eq!(store.stats().snapshots, 0);
        let after = store.recommend(id).unwrap();
        assert_eq!(before, after);
        assert_eq!(store.state(id).unwrap().rounds, 1);
        assert!(!shown.is_empty());
    }

    #[test]
    fn lru_capacity_eviction_spills_the_coldest_session() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 2,
        })
        .unwrap();
        let a = store.create(engine_session(1)).unwrap();
        let b = store.create(engine_session(2)).unwrap();
        store.present(a).unwrap();
        store.present(b).unwrap();
        // Creating a third session evicts the LRU live one — `a`.
        let c = store.create(engine_session(3)).unwrap();
        assert!(!store.is_live(a).unwrap());
        assert!(store.is_live(b).unwrap());
        assert!(store.is_live(c).unwrap());
        // Touching `a` rehydrates it and spills the new LRU (`b`).
        store.present(a).unwrap();
        assert!(store.is_live(a).unwrap());
        assert!(!store.is_live(b).unwrap());
        assert_eq!(store.len(), 3);
        let stats = store.stats();
        assert_eq!(stats.created, 3);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.restores, 1);
    }

    #[test]
    fn store_rebuilds_from_its_exported_journal() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 2,
            capacity_per_shard: 8,
        })
        .unwrap();
        let engine_id = store.create(engine_session(11)).unwrap();
        let baseline_id = store.create(skyline_session(12)).unwrap();
        for id in [engine_id, baseline_id] {
            let shown = store.present(id).unwrap();
            let index = choose(&catalog(), &shown);
            store.feedback(id, Feedback::Click { index }).unwrap();
        }
        let expected_engine = store.recommend(engine_id).unwrap();
        let expected_baseline = store.recommend(baseline_id).unwrap();

        // Adopt the journal into a store with a *different* shard count.
        let journal = store.export_journal();
        let mut adopted = SessionStore::from_journal(
            StoreConfig {
                shards: 3,
                capacity_per_shard: 8,
            },
            &journal,
        )
        .unwrap();
        assert_eq!(adopted.len(), 2);
        assert!(!adopted.is_live(engine_id).unwrap());
        // The adopted store replays each session bit-identically.  The ops
        // counters include the recommends above, so the derived streams
        // line up exactly.
        assert_eq!(adopted.recommend(engine_id).unwrap(), expected_engine);
        assert_eq!(adopted.recommend(baseline_id).unwrap(), expected_baseline);
        // And new ids never collide with adopted ones.
        let next = adopted.create(engine_session(13)).unwrap();
        assert!(next.0 > baseline_id.0);
    }

    #[test]
    fn failed_feedback_rolls_back_to_the_journaled_state() {
        // Probe for a click the engine cannot absorb: clicking a package the
        // hidden-taste region contradicts can exhaust the maintenance
        // sampler *after* some preferences were already absorbed, leaving
        // the live session ahead of its journal.  The store must roll the
        // session back so the journal stays the source of truth.
        let probe = |index: usize| -> (SessionStore, SessionId, bool) {
            let mut store = SessionStore::new(StoreConfig {
                shards: 1,
                capacity_per_shard: 4,
            })
            .unwrap();
            let id = store.create(engine_session(3)).unwrap();
            store.present(id).unwrap();
            let failed = store.feedback(id, Feedback::Click { index }).is_err();
            (store, id, failed)
        };
        let (mut store, id) = (0..4)
            .map(probe)
            .find_map(|(store, id, failed)| failed.then_some((store, id)))
            .expect("some click exhausts the sampler under this fixed seed");

        // The op failed mid-mutation: the live form was discarded (rolled
        // back) and nothing was journaled beyond Created + Presented.
        assert!(!store.is_live(id).unwrap());
        assert_eq!(store.stats().rollbacks, 1);
        assert_eq!(store.journal_for(id).len(), 2);
        // The next touch rehydrates the exact pre-feedback state and the
        // session keeps serving: a satisfiable click is absorbed normally.
        assert_eq!(store.state(id).unwrap().rounds, 0);
        assert_eq!(store.state(id).unwrap().preferences, 0);
        let shown = store.present(id).unwrap();
        let index = choose(&catalog(), &shown);
        store.feedback(id, Feedback::Click { index }).unwrap();
        assert_eq!(store.state(id).unwrap().rounds, 1);
        // Live state and journal replay agree again, bit for bit.
        let replayed = store.export_journal().replay(id).unwrap();
        let crate::config::LiveSession::Engine(replica) = &replayed.session else {
            panic!("engine session expected");
        };
        let live: pkgrec_core::SessionSnapshot =
            serde_json::from_str(&store.snapshot(id).unwrap()).unwrap();
        assert_eq!(replica.snapshot(), live);
    }

    #[test]
    fn with_session_is_read_only_inspection() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 2,
        })
        .unwrap();
        let id = store.create(engine_session(21)).unwrap();
        store.present(id).unwrap();
        let events_before = store.journal_for(id).len();
        let label = store.with_session(id, |s| s.state().label.clone()).unwrap();
        assert_eq!(label, "engine");
        // Inspection journals nothing and consumes no RNG stream.
        assert_eq!(store.journal_for(id).len(), events_before);
    }

    #[test]
    fn invalid_store_shapes_are_rejected() {
        assert!(SessionStore::new(StoreConfig {
            shards: 0,
            capacity_per_shard: 1,
        })
        .is_err());
        assert!(SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 0,
        })
        .is_err());
        let empty = SessionStore::new(StoreConfig::default()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.session_ids(), Vec::<SessionId>::new());
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pkgrec-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ordered_lru_eviction_matches_the_reference_scan() {
        // Cheap baseline sessions; capacity 3 so every create past the
        // third evicts.  Before each eviction, compute the victim the old
        // O(shard) min-scan would pick and check the ordered index agrees.
        let mut store = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 3,
        })
        .unwrap();
        let mut ids: Vec<SessionId> = (0..3)
            .map(|seed| store.create(skyline_session(seed)).unwrap())
            .collect();
        for round in 0..6u64 {
            // Shuffle recency with a deterministic touch pattern.
            for offset in [round % 3, (round + 1) % 3] {
                let id = ids[ids.len() - 1 - offset as usize];
                if store.is_live(id).unwrap() {
                    store.present(id).unwrap();
                }
            }
            let reference = store.shards[0]
                .sessions
                .iter()
                .filter(|(_, entry)| entry.live.is_some())
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(id, _)| *id)
                .expect("live sessions exist");
            ids.push(store.create(skyline_session(10 + round)).unwrap());
            assert!(
                !store.is_live(reference).unwrap(),
                "round {round}: ordered index evicted someone else"
            );
        }
        // O(log n) selection: with keep=None every eviction probes exactly
        // the index head; rehydration evictions may skip one entry.  Never
        // the shard population.
        let stats = store.stats();
        assert!(stats.evictions >= 6);
        assert!(
            stats.eviction_probes <= 2 * stats.evictions,
            "probes {} exceed 2 per eviction ({})",
            stats.eviction_probes,
            stats.evictions
        );
    }

    #[test]
    fn durable_store_survives_a_kill_and_reopen() {
        let dir = temp_dir("kill-reopen");
        let config = StoreConfig {
            shards: 2,
            capacity_per_shard: 8,
        };
        let durability = DurabilityConfig {
            flush_every_ops: 1,
            ..DurabilityConfig::at(&dir)
        };
        let mut store = SessionStore::open_with(config, durability.clone()).unwrap();
        assert!(store.is_durable());
        let id = store.create(engine_session(11)).unwrap();
        let shown = store.present(id).unwrap();
        let index = choose(&catalog(), &shown);
        store.feedback(id, Feedback::Click { index }).unwrap();
        let expected = store.recommend(id).unwrap();
        store.sync().unwrap();
        assert!(store.durable_bytes().unwrap() > 0);
        // Kill: no graceful shutdown, no Drop flush.
        std::mem::forget(store);

        let mut reopened = SessionStore::open_with(config, durability).unwrap();
        assert_eq!(reopened.len(), 1);
        assert!(!reopened.is_live(id).unwrap());
        assert_eq!(reopened.recommend(id).unwrap(), expected);
        let stats = reopened.stats();
        assert_eq!(stats.recovery_replays, 1);
        // The reopened store keeps serving (and journaling) normally.
        reopened.present(id).unwrap();
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_reopen_with_a_new_shard_count_reshards_the_layout() {
        let dir = temp_dir("reshard");
        let durability = DurabilityConfig {
            flush_every_ops: 1,
            ..DurabilityConfig::at(&dir)
        };
        let mut store = SessionStore::open_with(
            StoreConfig {
                shards: 1,
                capacity_per_shard: 8,
            },
            durability.clone(),
        )
        .unwrap();
        let id = store.create(engine_session(5)).unwrap();
        let shown = store.present(id).unwrap();
        let index = choose(&catalog(), &shown);
        store.feedback(id, Feedback::Click { index }).unwrap();
        let expected = store.recommend(id).unwrap();
        drop(store); // graceful: Drop flushes the tail

        let mut wide = SessionStore::open_with(
            StoreConfig {
                shards: 3,
                capacity_per_shard: 8,
            },
            durability.clone(),
        )
        .unwrap();
        assert_eq!(wide.recommend(id).unwrap(), expected);
        drop(wide);
        // The resharded layout recovers under its own shard count too.
        let reopened = SessionStore::open_with(
            StoreConfig {
                shards: 3,
                capacity_per_shard: 8,
            },
            durability,
        )
        .unwrap();
        assert_eq!(reopened.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reclaims_disk_and_preserves_replay() {
        let dir = temp_dir("compact");
        let config = StoreConfig {
            shards: 1,
            capacity_per_shard: 4,
        };
        let durability = DurabilityConfig {
            flush_every_ops: 1,
            ..DurabilityConfig::at(&dir)
        };
        let mut store = SessionStore::open_with(config, durability.clone()).unwrap();
        let id = store.create(engine_session(7)).unwrap();
        // Several rounds with explicit checkpoints in between: all but the
        // last checkpoint (plus the ops they supersede) become garbage.
        for _ in 0..3 {
            let shown = store.present(id).unwrap();
            let index = choose(&catalog(), &shown);
            store.feedback(id, Feedback::Click { index }).unwrap();
            store.snapshot(id).unwrap();
        }
        let expected = store.recommend(id).unwrap();
        store.sync().unwrap();
        let before = store.durable_bytes().unwrap();

        let outcome = store.compact().unwrap();
        assert!(outcome.events_dropped > 0);
        assert!(outcome.bytes_reclaimed > 0);
        assert_eq!(
            outcome.checkpoints_written, 1,
            "the live session re-anchors"
        );
        let after = store.durable_bytes().unwrap();
        assert!(
            after < before,
            "compaction shrinks the log ({before} -> {after})"
        );
        // The compacted store still serves, and a restart replays the
        // compacted journal into the same session state.
        assert_eq!(store.stats().bytes_reclaimed, outcome.bytes_reclaimed);
        drop(store);
        let mut reopened = SessionStore::open_with(config, durability).unwrap();
        assert_eq!(reopened.recommend(id).unwrap(), expected);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_only_stores_compact_their_journal_too() {
        let mut store = SessionStore::new(StoreConfig {
            shards: 1,
            capacity_per_shard: 4,
        })
        .unwrap();
        let engine = store.create(engine_session(9)).unwrap();
        let baseline = store.create(skyline_session(10)).unwrap();
        for id in [engine, baseline] {
            let shown = store.present(id).unwrap();
            let index = choose(&catalog(), &shown);
            store.feedback(id, Feedback::Click { index }).unwrap();
        }
        let expected_engine = store.recommend(engine).unwrap();
        let expected_baseline = store.recommend(baseline).unwrap();
        let before = store.journal_for(engine).len();

        let outcome = store.compact().unwrap();
        assert!(outcome.events_dropped > 0);
        assert_eq!(outcome.bytes_reclaimed, 0, "no disk to reclaim");
        assert!(store.journal_for(engine).len() < before);
        // Replay over the compacted journal is bit-identical: evict both
        // sessions and drive them again (recommends are op-stable).
        store.evict(engine).unwrap();
        store.evict(baseline).unwrap();
        assert_eq!(store.recommend(engine).unwrap(), expected_engine);
        assert_eq!(store.recommend(baseline).unwrap(), expected_baseline);
        // Baseline history was untouched — the journal is its only form.
        assert!(store
            .journal_for(baseline)
            .events_for(baseline)
            .iter()
            .any(|event| matches!(event, SessionEvent::Created { .. })));
    }

    #[test]
    fn content_equal_catalogs_intern_to_one_handle() {
        // Every config below carries its own fresh catalog allocation, as
        // configs deserialised off the wire do.
        let mut store = SessionStore::new(StoreConfig {
            shards: 2,
            capacity_per_shard: 8,
        })
        .unwrap();
        let ids: Vec<SessionId> = (0..4)
            .map(|seed| store.create(engine_session(seed)).unwrap())
            .collect();
        assert!(ids.iter().any(|&id| shard_of(id, 2) == 0));
        assert!(ids.iter().any(|&id| shard_of(id, 2) == 1));
        let mut other_rows = catalog().rows().to_vec();
        other_rows[0][0] += 0.01;
        let other = store
            .create(SessionConfig {
                catalog: Arc::new(Catalog::from_rows(other_rows).unwrap()),
                ..engine_session(9)
            })
            .unwrap();
        let handle = |store: &SessionStore, id| store.session_config(id).unwrap().catalog.clone();
        let canonical = handle(&store, ids[0]);
        for &id in &ids[1..] {
            assert!(Arc::ptr_eq(&canonical, &handle(&store, id)), "{id}");
        }
        assert!(!Arc::ptr_eq(&canonical, &handle(&store, other)));

        // Adopted `Created` records intern too: a journal read back from
        // JSON carries one catalog allocation per record.
        let json = serde_json::to_string(&store.export_journal()).unwrap();
        let journal: Journal = serde_json::from_str(&json).unwrap();
        let adopted = SessionStore::from_journal(
            StoreConfig {
                shards: 3,
                capacity_per_shard: 8,
            },
            &journal,
        )
        .unwrap();
        let canonical = handle(&adopted, ids[0]);
        for &id in &ids[1..] {
            assert!(Arc::ptr_eq(&canonical, &handle(&adopted, id)), "{id}");
        }
    }

    #[test]
    fn persistent_append_failure_degrades_the_shard_and_sync_rearms() {
        use crate::fault::{FaultKind, FaultPlan, FaultSite, PlannedFault};
        let dir = temp_dir("degraded");
        let config = StoreConfig {
            shards: 1,
            capacity_per_shard: 8,
        };
        let durability = DurabilityConfig {
            flush_every_ops: 1,
            append_retry_budget: 2,
            // Flush hits 0-2 carry Created/Presented/Feedback; hits 3 and 4
            // are poisoned, then the "disk" recovers.
            fault_plan: FaultPlan::default().and(PlannedFault {
                site: FaultSite::Flush,
                after: 3,
                count: 2,
                kind: FaultKind::StorageFull,
            }),
            ..DurabilityConfig::at(&dir)
        };
        let mut store = SessionStore::open_with(config, durability).unwrap();
        let id = store.create(engine_session(11)).unwrap();
        let shown = store.present(id).unwrap();
        let index = choose(&catalog(), &shown);
        store.feedback(id, Feedback::Click { index }).unwrap();

        // Both poisoned appends fail with the injected IO class and roll
        // back; the second exhausts the retry budget.
        for attempt in 0..2 {
            assert!(
                matches!(
                    store.present(id),
                    Err(CoreError::Io {
                        kind: std::io::ErrorKind::StorageFull,
                        ..
                    })
                ),
                "attempt {attempt} surfaces the injected fault class"
            );
        }
        // Degraded: mutations are refused with the typed error...
        assert!(matches!(
            store.present(id),
            Err(CoreError::Degraded { shard: 0, .. })
        ));
        assert!(matches!(
            store.create(engine_session(12)),
            Err(CoreError::Degraded { .. })
        ));
        // ...while reads (rehydration included) keep serving.
        assert_eq!(store.state(id).unwrap().rounds, 1);
        assert!(store.session_config(id).is_ok());
        let stats = store.stats();
        assert_eq!(stats.degraded_shards, 1);
        assert_eq!(stats.rolled_back_ops, 2);
        assert_eq!(stats.injected_faults, 2);
        assert!(stats.rollbacks >= 2);

        // The fault cleared after two hits; a successful sync re-arms the
        // shard and elicitation continues exactly where the journal left it.
        store.sync().unwrap();
        assert_eq!(store.stats().degraded_shards, 0);
        let resumed = store.present(id).unwrap();

        // The failed attempts consumed nothing: a shadow store that never
        // saw a fault presents the same rounds from the same op indices.
        let mut shadow = SessionStore::new(config).unwrap();
        let sid = shadow.create(engine_session(11)).unwrap();
        assert_eq!(shadow.present(sid).unwrap(), shown);
        shadow.feedback(sid, Feedback::Click { index }).unwrap();
        assert_eq!(shadow.present(sid).unwrap(), resumed);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_write_fault_fails_the_open_loudly_and_cleanly() {
        use crate::fault::{FaultKind, FaultPlan, FaultSite};
        let dir = temp_dir("manifest-fault");
        let config = StoreConfig {
            shards: 2,
            capacity_per_shard: 4,
        };
        let poisoned = DurabilityConfig {
            fault_plan: FaultPlan::once(FaultSite::Manifest, 0, FaultKind::PermissionDenied),
            ..DurabilityConfig::at(&dir)
        };
        assert!(matches!(
            SessionStore::open_with(config, poisoned),
            Err(CoreError::Io {
                kind: std::io::ErrorKind::PermissionDenied,
                ..
            })
        ));
        // No manifest was written, so a clean reopen starts the store
        // fresh and serves normally.
        let mut store = SessionStore::open_with(config, DurabilityConfig::at(&dir)).unwrap();
        let id = store.create(engine_session(3)).unwrap();
        store.present(id).unwrap();
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
