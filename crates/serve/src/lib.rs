//! # pkgrec-serve
//!
//! The session-serving layer of the `pkgrec` workspace: the paper's
//! interactive elicitation loop is inherently *per-user session state*
//! (preference DAG, sample pool, prior), and this crate owns the lifecycle
//! of many such sessions at once so application code never has to.
//!
//! Four pieces compose the layer:
//!
//! * [`SessionStore`] — a sharded map of sessions (hash by [`SessionId`],
//!   `&mut`-splittable shards, no locks) with ordered-index LRU eviction
//!   that spills cold sessions to snapshot checkpoints and rehydrates them
//!   on demand,
//! * [`Journal`] — the in-memory append-only log of session events;
//!   [`Journal::replay`] reconstructs any session *bit-identically*, so
//!   the journal — not the process — is the authoritative form of a
//!   session (in the spirit of log-structured systems such as LogBase);
//!   its spill checkpoints are typed
//!   [`SessionSnapshot`](pkgrec_core::SessionSnapshot)s sharing the
//!   session's catalog, so a memory-only store never renders JSON,
//! * the **durable journal** ([`DurabilityConfig`], [`SessionStore::open`])
//!   — per-shard segment files that make the log survive the process:
//!   every event is appended (group-committed, CRC-framed, catalogs
//!   interned) *before* it mutates memory, and reopening the directory
//!   replays the segments back into an identical store,
//! * [`ServingLoop`] — a [`std::thread::scope`] driver that steps many
//!   concurrent simulated sessions shard-parallel through the *generic*
//!   core elicitation driver, with outcomes independent of thread count,
//!   shard count and capacity pressure.
//!
//! Every `present` a shard serves runs the engine's one present body on
//! the shard owner's thread; no present is scored alongside another
//! session's.
//!
//! ## The log is the database
//!
//! A durable store's directory is laid out as
//!
//! ```text
//! store/
//! ├── store.json                     manifest: wire version + shard count
//! ├── shard-0000/
//! │   ├── gen-00000001.ok            committed-generation marker
//! │   ├── seg-00000001-00000000.pkj  ┐ segment files, appended in order:
//! │   └── seg-00000001-00000001.pkj  ┘ header | [len|crc32|json record]*
//! └── shard-0001/ …
//! ```
//!
//! Records are catalog intern-table definitions or session events; a
//! `Created`/`Snapshot` stores a [`CatalogId`] reference, so a fleet
//! sharing one catalog writes its rows once per shard, not once per
//! session.  A checkpoint is rendered once, at its append, and recovery
//! decodes it straight back into a typed snapshot on the shared catalog.  [`SessionStore::compact`] checkpoints live sessions and
//! rewrites each shard's retained tail into a fresh generation — the new
//! marker is committed before the old generation is deleted, so a crash at
//! any byte leaves exactly one recoverable generation.  Recovery
//! ([`SessionStore::open`]) tolerates a torn tail on the newest segment by
//! truncating at the last clean record boundary; corruption anywhere else
//! is an error, never silence.
//!
//! ## Quick start: survive a kill
//!
//! ```
//! use std::sync::Arc;
//!
//! use pkgrec_core::prelude::*;
//! use pkgrec_serve::{RecommenderSpec, SessionConfig, SessionStore, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("pkgrec-quickstart-{}", std::process::id()));
//! let config = StoreConfig { shards: 2, capacity_per_shard: 8 };
//! // A durable store: every event lands in `dir` before memory changes.
//! let mut store = SessionStore::open(&dir, config).unwrap();
//!
//! // Create a session: the config is plain serde data — catalog, profile,
//! // φ, recommender recipe and a deterministic seed.  The catalog sits
//! // behind an Arc in memory and an intern table on disk.
//! let catalog = Arc::new(Catalog::from_rows(vec![
//!     vec![0.6, 0.2],
//!     vec![0.4, 0.4],
//!     vec![0.2, 0.4],
//!     vec![0.9, 0.8],
//! ]).unwrap());
//! let id = store.create(SessionConfig {
//!     catalog,
//!     profile: Profile::cost_quality(),
//!     max_package_size: 2,
//!     spec: RecommenderSpec::Engine(EngineConfig {
//!         k: 2,
//!         num_random: 2,
//!         num_samples: 20,
//!         ..EngineConfig::default()
//!     }),
//!     seed: 7,
//! }).unwrap();
//!
//! // Drive it: no RNG to thread through — every operation derives its
//! // stream from (seed, operation index), which is what makes the journal
//! // replayable and the serving loop scheduling-independent.
//! let shown = store.present(id).unwrap();
//! store.feedback(id, Feedback::Click { index: 0 }).unwrap();
//! let before = store.recommend(id).unwrap();
//!
//! // Kill the process image: fsync, then drop without destructors.
//! store.sync().unwrap();
//! std::mem::forget(store);
//!
//! // Reopening the directory IS recovery: the segments replay into an
//! // identical store, and the session recommends exactly what the killed
//! // one would have.
//! let mut reborn = SessionStore::open(&dir, config).unwrap();
//! assert_eq!(reborn.recommend(id).unwrap(), before);
//!
//! // Fold history into checkpoints; the compacted log replays the same.
//! reborn.compact().unwrap();
//! assert_eq!(reborn.recommend(id).unwrap(), before);
//! # drop(reborn);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Fault injection & degraded mode
//!
//! The durable path is built to be *attacked*: [`DurabilityConfig`]
//! carries a [`FaultPlan`] (plain serde data) that injects a typed
//! `std::io::Error` at an exact `(site, hit)` coordinate of any IO site
//! in the path ([`FaultSite::ALL`] — append, group-commit flush, fsync,
//! segment rotation, compaction rewrite, generation marker, manifest).
//! Injection happens *before* the real IO, so no partial bytes ever
//! land, and the write-ahead contract holds at every site: the failing
//! operation rolls back and the store stays bit-for-bit replay-equal to
//! one that never saw the fault.  Failure is also product behaviour,
//! not an abort: a shard whose durable appends fail
//! `append_retry_budget` times in a row degrades to read-only —
//! mutating ops return [`CoreError::Degraded`](pkgrec_core::CoreError)
//! with the shard attribution, reads and stats keep serving, and a
//! successful [`SessionStore::sync`] re-arms it once the fault clears.
//! [`StoreStats`] counts `injected_faults`, `degraded_shards` and
//! `rolled_back_ops`; the adversarial harness in
//! `tests/tests/consistency_harness.rs` sweeps the full fault matrix
//! and fuzzes seeded concurrent schedules against single-threaded
//! replay.
//!
//! [`SessionStore::new`] still builds a memory-only store (tests,
//! simulations); [`SessionStore::from_journal`] adopts an exported
//! [`Journal`] wholesale.  To serve whole elicitation sessions
//! concurrently, pair each session with a
//! [`SimulatedUser`](pkgrec_core::SimulatedUser) and hand the batch to
//! [`ServingLoop::run`]; the `serving` example kills and recovers a
//! 100-session fleet this way, and the `fig_serving` bench measures the
//! interning + compaction byte cut and recovery time.
//!
//! To reach a store over the network instead of in-process, see the
//! `pkgrec-server` crate: it fronts a `SessionStore` with a CRC-framed TCP
//! wire protocol and routes requests to per-shard worker threads through
//! the same [`SessionStore::shards_mut`] ownership seam.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod durable;
pub mod fault;
pub mod journal;
pub mod segment;
pub mod serving;
pub mod store;

pub use config::{
    catalog_fingerprint, op_rng, shard_of, user_rng, LiveSession, RecommenderSpec, SessionConfig,
    SessionId,
};
pub use durable::DurabilityConfig;
pub use fault::{FaultKind, FaultPlan, FaultSite, PlannedFault};
pub use journal::{Journal, JournalRecord, ReplayedSession, SessionEvent};
pub use segment::{CatalogId, WireEvent, WireRecord};
pub use serving::{ServingLoop, SessionDriver, SessionOutcome};
pub use store::{CompactionStats, SessionStore, Shard, StoreConfig, StoreStats};
