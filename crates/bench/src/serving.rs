//! Serving-layer throughput experiment: many concurrent elicitation
//! sessions through the sharded, journal-backed `pkgrec-serve` store.
//!
//! The experiment builds a fleet of sessions (the engine plus baseline
//! adapters, mirroring a mixed production workload), pairs each with a
//! hidden-utility simulated user, and serves the whole fleet to convergence
//! through [`ServingLoop`].  Two store shapes are measured:
//!
//! * **store-hit** — per-shard capacity covers the fleet, so every
//!   operation finds its session live in memory,
//! * **snapshot-restore** — per-shard capacity 1 forces a spill/rehydrate
//!   round trip (snapshot checkpoint + journal replay) on nearly every
//!   operation, exercising the store's cold path.
//!
//! The summary table surfaces the store's hit/evict/restore counters next
//! to the fleet's aggregated `Top-k-Pkg` search statistics — the
//! observability seam future serving-performance PRs regress against.

use std::time::Instant;

use pkgrec_baselines::{BaselineSpec, EmRefitConfig, FeatureDirection};
use pkgrec_core::{
    random_ground_truth_weights, AggregatedSearchStats, AggregationContext, CoreError,
    ElicitationConfig, EngineConfig, LinearUtility, Profile, Result, SimulatedUser,
};
use pkgrec_serve::{
    CompactionStats, DurabilityConfig, RecommenderSpec, ServingLoop, SessionConfig, SessionId,
    SessionStore, StoreConfig, StoreStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::workload::{build_dataset, dataset_catalog, DatasetId};

/// Configuration of the serving experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Number of concurrent sessions in the fleet.
    pub sessions: usize,
    /// Catalog rows (UNI synthetic dataset, 2 features, cost/quality).
    pub rows: usize,
    /// Weight samples per engine session.
    pub num_samples: usize,
    /// Packages recommended per round.
    pub k: usize,
    /// Random exploration packages per round.
    pub num_random: usize,
    /// Maximum package size φ.
    pub max_package_size: usize,
    /// Elicitation round budget per session.
    pub max_rounds: usize,
    /// Shards of the measured store.
    pub shards: usize,
    /// Serving threads (clamped to the shard count).
    pub threads: usize,
    /// Whether the fleet mixes baseline sessions in (every third/fourth
    /// session) or is engine-only.
    pub mixed: bool,
    /// Base random seed.
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            sessions: 48,
            rows: 600,
            num_samples: 50,
            k: 3,
            num_random: 3,
            max_package_size: 3,
            max_rounds: 5,
            shards: 4,
            threads: 4,
            mixed: true,
            seed: 20140902,
        }
    }
}

/// Builds the session fleet: a memory-only store of the given shape
/// populated with `sessions` sessions, plus one hidden-utility user per
/// session.
pub fn build_fleet(
    config: &ServingConfig,
    capacity_per_shard: usize,
) -> Result<(SessionStore, Vec<(SessionId, SimulatedUser)>)> {
    let store = SessionStore::new(StoreConfig {
        shards: config.shards,
        capacity_per_shard,
    })?;
    populate_fleet(store, config)
}

/// Builds the same fleet on top of a durable store rooted at
/// `durability.dir`, so every event lands in the segmented journal.
pub fn build_durable_fleet(
    config: &ServingConfig,
    capacity_per_shard: usize,
    durability: DurabilityConfig,
) -> Result<(SessionStore, Vec<(SessionId, SimulatedUser)>)> {
    let store = SessionStore::open_with(
        StoreConfig {
            shards: config.shards,
            capacity_per_shard,
        },
        durability,
    )?;
    populate_fleet(store, config)
}

fn populate_fleet(
    mut store: SessionStore,
    config: &ServingConfig,
) -> Result<(SessionStore, Vec<(SessionId, SimulatedUser)>)> {
    let dataset = build_dataset(DatasetId::Uni, config.rows, config.seed);
    let catalog = std::sync::Arc::new(dataset_catalog(&dataset, 2));
    let profile = Profile::cost_quality();
    let context = AggregationContext::new(profile.clone(), &catalog, config.max_package_size)?;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5E55_1011);
    let mut fleet = Vec::with_capacity(config.sessions);
    for i in 0..config.sessions {
        let spec = if config.mixed && i % 4 == 2 {
            RecommenderSpec::Baseline(BaselineSpec::EmRefit(EmRefitConfig {
                k: config.k,
                num_random: config.num_random,
                num_samples: config.num_samples.min(40),
                samples_per_refit: (config.num_samples * 2).min(80),
                ..EmRefitConfig::default()
            }))
        } else if config.mixed && i % 4 == 3 {
            RecommenderSpec::Baseline(BaselineSpec::Skyline {
                cardinality: config.max_package_size.min(2),
                directions: vec![FeatureDirection::Minimize, FeatureDirection::Maximize],
                k: config.k,
            })
        } else {
            RecommenderSpec::Engine(EngineConfig {
                k: config.k,
                num_random: config.num_random,
                num_samples: config.num_samples,
                ..EngineConfig::default()
            })
        };
        let id = store.create(SessionConfig {
            catalog: catalog.clone(),
            profile: profile.clone(),
            max_package_size: config.max_package_size,
            spec,
            seed: config.seed.wrapping_add(i as u64),
        })?;
        let weights = random_ground_truth_weights(context.dim(), &mut rng);
        let user = SimulatedUser::new(LinearUtility::new(context.clone(), weights)?);
        fleet.push((id, user));
    }
    Ok((store, fleet))
}

/// One measured store shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingPoint {
    /// Human label of the path exercised ("store-hit" / "snapshot-restore").
    pub path: String,
    /// Shards of the measured store.
    pub shards: usize,
    /// Live sessions allowed per shard.
    pub capacity_per_shard: usize,
    /// Fleet size.
    pub sessions: usize,
    /// Sessions whose top-k stabilised within the round budget.
    pub converged: usize,
    /// Mean clicks per session.
    pub mean_clicks: f64,
    /// Mean final precision against the hidden utilities.
    pub mean_precision: f64,
    /// Wall-clock seconds serving the fleet.
    pub elapsed_secs: f64,
    /// Fleet throughput (sessions served to convergence per second).
    pub sessions_per_sec: f64,
    /// Store counters accumulated while serving.
    pub store: StoreStats,
    /// `Top-k-Pkg` statistics summed over the fleet's reports.
    pub search: AggregatedSearchStats,
}

/// Serves one fleet through one store shape and measures it.
pub fn serve_point(
    config: &ServingConfig,
    path: &str,
    capacity_per_shard: usize,
) -> Result<ServingPoint> {
    let (mut store, fleet) = build_fleet(config, capacity_per_shard)?;
    serve_fleet(&mut store, &fleet, config, path, capacity_per_shard)
}

/// The measurement half of [`serve_point`]: drives an already-built fleet
/// to convergence through the given store and summarises the run.
fn serve_fleet(
    store: &mut SessionStore,
    fleet: &[(SessionId, SimulatedUser)],
    config: &ServingConfig,
    path: &str,
    capacity_per_shard: usize,
) -> Result<ServingPoint> {
    let elicitation = ElicitationConfig {
        max_rounds: config.max_rounds,
        stable_rounds: 2,
    };
    let start = Instant::now();
    let outcomes = ServingLoop::new(store).run(fleet, elicitation, config.threads)?;
    let elapsed = start.elapsed();

    let mut search = AggregatedSearchStats::default();
    let mut clicks = 0usize;
    let mut precision = 0.0f64;
    let mut converged = 0usize;
    for outcome in &outcomes {
        search.merge(&outcome.search);
        clicks += outcome.clicks;
        precision += outcome.precision;
        converged += usize::from(outcome.converged);
    }
    let n = outcomes.len().max(1);
    Ok(ServingPoint {
        path: path.to_string(),
        shards: config.shards,
        capacity_per_shard,
        sessions: outcomes.len(),
        converged,
        mean_clicks: clicks as f64 / n as f64,
        mean_precision: precision / n as f64,
        elapsed_secs: elapsed.as_secs_f64(),
        sessions_per_sec: outcomes.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        store: store.stats(),
        search,
    })
}

/// The durability experiment: the fleet served through a durable
/// (segmented, interned) store, then compacted, killed and recovered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurabilityPoint {
    /// The serving measurement of the durable shape (path `durable-log`).
    pub serving: ServingPoint,
    /// Bytes of the v1 (uninterned, uncompacted) journal serialisation —
    /// the wire format the store shipped before the segmented log.
    pub v1_journal_bytes: usize,
    /// Segment bytes on disk after serving, before compaction.
    pub segment_bytes_before: u64,
    /// Segment bytes on disk after checkpoint-anchored compaction.
    pub segment_bytes_after: u64,
    /// `v1_journal_bytes / sessions`.
    pub v1_bytes_per_session: f64,
    /// `segment_bytes_after / sessions`.
    pub segment_bytes_per_session: f64,
    /// `v1_journal_bytes / segment_bytes_after` — the interning +
    /// compaction cut.
    pub reduction_factor: f64,
    /// What the compaction pass accomplished.
    pub compaction: CompactionStats,
    /// Milliseconds to rebuild every session from the segments alone.
    pub recovery_ms: f64,
    /// Sessions alive in the recovered store.
    pub recovered_sessions: usize,
    /// Counters of the recovered store (`recovery_replays` counts the
    /// sessions rebuilt from segments).
    pub recovered: StoreStats,
}

/// Serves the fleet through a durable store, then measures the journal's
/// disk footprint before/after compaction and the cost of crash recovery.
///
/// The "kill" is a [`std::mem::forget`] of the live store — no graceful
/// shutdown, no final flush beyond the explicit [`SessionStore::sync`] a
/// careful server would issue — and recovery is a plain
/// [`SessionStore::open_with`] over the surviving segments.  Probe sessions
/// must recommend identically before and after, which the function asserts.
pub fn durability_point(config: &ServingConfig) -> Result<DurabilityPoint> {
    let dir = std::env::temp_dir().join(format!(
        "pkgrec-bench-durability-{}-{}-{}",
        std::process::id(),
        config.seed,
        config.sessions
    ));
    if dir.exists() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Serve under memory pressure so cold sessions spill checkpoints into
    // the journal as they would in production — each spill supersedes the
    // session's previous checkpoint, which is exactly what compaction
    // reclaims.
    let capacity = (config.sessions / (config.shards.max(1) * 2)).max(1);
    let (mut store, fleet) = build_durable_fleet(config, capacity, DurabilityConfig::at(&dir))?;
    let serving = serve_fleet(&mut store, &fleet, config, "durable-log", capacity)?;

    // Footprints: the v1 serialisation embeds a full catalog copy per
    // `Created` event; the segmented log interns it and, after compaction,
    // keeps only each session's checkpoint tail.
    store.sync()?;
    let v1_journal_bytes = serde_json::to_string(&store.export_journal())
        .map_err(|e| CoreError::io_data(format!("v1 journal serialisation: {e}")))?
        .len();
    let segment_bytes_before = store.durable_bytes()?;
    let compaction = store.compact()?;
    let segment_bytes_after = store.durable_bytes()?;

    // Kill and recover: remember what a handful of probe sessions would
    // recommend, drop the store without running destructors, and demand the
    // recovered store agree byte for byte.
    let stride = (fleet.len() / 8).max(1);
    let mut probes = Vec::new();
    for (id, _) in fleet.iter().step_by(stride) {
        probes.push((*id, store.recommend(*id)?));
    }
    store.sync()?;
    std::mem::forget(store);

    let start = Instant::now();
    let mut recovered = SessionStore::open_with(
        StoreConfig {
            shards: config.shards,
            capacity_per_shard: capacity,
        },
        DurabilityConfig::at(&dir),
    )?;
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    let recovered_sessions = recovered.len();
    for (id, expected) in &probes {
        if recovered.recommend(*id)? != *expected {
            return Err(CoreError::InvalidConfig(format!(
                "recovered store diverged from the killed store for {id}"
            )));
        }
    }
    let recovered_stats = recovered.stats();
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);

    let n = config.sessions.max(1) as f64;
    Ok(DurabilityPoint {
        serving,
        v1_journal_bytes,
        segment_bytes_before,
        segment_bytes_after,
        v1_bytes_per_session: v1_journal_bytes as f64 / n,
        segment_bytes_per_session: segment_bytes_after as f64 / n,
        reduction_factor: v1_journal_bytes as f64 / (segment_bytes_after as f64).max(1.0),
        compaction,
        recovery_ms,
        recovered_sessions,
        recovered: recovered_stats,
    })
}

/// Result of the serving experiment: the memory store shapes plus the
/// durable-log shape with its compaction/recovery measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingResult {
    /// The measured store shapes.
    pub points: Vec<ServingPoint>,
    /// The durable-log measurement.
    pub durability: DurabilityPoint,
}

impl ServingResult {
    /// The summary table: serving throughput plus store, durability and
    /// search counters per measured shape (the durable-log shape rides
    /// along as the last row; its durability columns are non-zero).
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Serving layer: store paths, store counters and search statistics",
            &[
                "path",
                "shards",
                "cap/shard",
                "sessions",
                "converged",
                "clicks",
                "precision",
                "time (s)",
                "sessions/s",
                "hits",
                "evictions",
                "restores",
                "snapshots",
                "segments",
                "appended KB",
                "commits",
                "searches",
                "reused",
                "sorted acc",
                "early-term %",
            ],
        );
        for p in self
            .points
            .iter()
            .chain(std::iter::once(&self.durability.serving))
        {
            table.push_row(vec![
                p.path.clone(),
                p.shards.to_string(),
                p.capacity_per_shard.to_string(),
                p.sessions.to_string(),
                p.converged.to_string(),
                format!("{:.2}", p.mean_clicks),
                format!("{:.2}", p.mean_precision),
                format!("{:.3}", p.elapsed_secs),
                format!("{:.2}", p.sessions_per_sec),
                p.store.hits.to_string(),
                p.store.evictions.to_string(),
                p.store.restores.to_string(),
                p.store.snapshots.to_string(),
                p.store.segments_written.to_string(),
                format!("{:.1}", p.store.bytes_appended as f64 / 1024.0),
                p.store.group_commits.to_string(),
                p.search.searches.to_string(),
                p.search.reused.to_string(),
                p.search.sorted_accesses.to_string(),
                format!("{:.1}", p.search.early_termination_rate() * 100.0),
            ]);
        }
        table
    }

    /// The durability table: journal footprint before/after interning +
    /// compaction, and the cost of crash recovery.
    pub fn durability_table(&self) -> Table {
        let mut table = Table::new(
            "Serving durability: interned segments, compaction and recovery",
            &[
                "sessions",
                "v1 KB",
                "segments KB",
                "compacted KB",
                "KB/session",
                "cut",
                "checkpoints",
                "dropped",
                "reclaimed KB",
                "recovery ms",
                "recovered",
                "replays",
            ],
        );
        let d = &self.durability;
        table.push_row(vec![
            d.serving.sessions.to_string(),
            format!("{:.1}", d.v1_journal_bytes as f64 / 1024.0),
            format!("{:.1}", d.segment_bytes_before as f64 / 1024.0),
            format!("{:.1}", d.segment_bytes_after as f64 / 1024.0),
            format!("{:.2}", d.segment_bytes_per_session / 1024.0),
            format!("{:.1}x", d.reduction_factor),
            d.compaction.checkpoints_written.to_string(),
            d.compaction.events_dropped.to_string(),
            format!("{:.1}", d.compaction.bytes_reclaimed as f64 / 1024.0),
            format!("{:.2}", d.recovery_ms),
            d.recovered_sessions.to_string(),
            d.recovered.recovery_replays.to_string(),
        ]);
        table
    }
}

/// Runs the serving experiment: the same fleet through the store-hit and
/// snapshot-restore memory paths, then through the durable segmented log
/// (with compaction and kill/recover measurements).
pub fn run(config: &ServingConfig) -> Result<ServingResult> {
    let hit = serve_point(config, "store-hit", config.sessions.max(1))?;
    let restore = serve_point(config, "snapshot-restore", 1)?;
    let durability = durability_point(config)?;
    Ok(ServingResult {
        points: vec![hit, restore],
        durability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServingConfig {
        ServingConfig {
            sessions: 6,
            rows: 120,
            num_samples: 20,
            max_rounds: 3,
            shards: 2,
            threads: 2,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn serving_experiment_runs_and_reports() {
        let result = run(&tiny()).unwrap();
        assert_eq!(result.points.len(), 2);
        let hit = &result.points[0];
        let restore = &result.points[1];
        assert_eq!(hit.path, "store-hit");
        assert_eq!(restore.path, "snapshot-restore");
        assert_eq!(hit.sessions, 6);
        // The ample store never rehydrates; the starved store must.
        assert_eq!(hit.store.restores, 0);
        assert!(restore.store.restores > 0);
        assert!(restore.store.evictions > 0);
        // Same fleet, same deterministic outcomes on both paths.
        assert_eq!(hit.mean_clicks, restore.mean_clicks);
        assert_eq!(hit.converged, restore.converged);
        assert_eq!(hit.mean_precision, restore.mean_precision);
        assert!(hit.search.searches > 0);
        // Live sessions search only the pool rows a click replaced.
        assert!(hit.search.reused > 0);
        let markdown = result.table().to_markdown();
        assert!(markdown.contains("reused"));
        assert!(markdown.contains("store-hit"));
        assert!(markdown.contains("snapshot-restore"));
        assert!(markdown.contains("durable-log"));

        // The durable shape serves the same fleet to the same outcomes,
        // interning + compaction shrink the on-disk journal versus the v1
        // serialisation, and every session survives the kill.
        let d = &result.durability;
        assert_eq!(d.serving.mean_clicks, hit.mean_clicks);
        assert_eq!(d.serving.converged, hit.converged);
        assert!(d.serving.store.segments_written > 0);
        assert!(d.serving.store.group_commits > 0);
        assert!(d.segment_bytes_after < d.segment_bytes_before);
        assert!(d.reduction_factor > 1.0, "cut {:.2}", d.reduction_factor);
        assert_eq!(d.recovered_sessions, 6);
        assert_eq!(d.recovered.recovery_replays, 6);
        let durability_markdown = result.durability_table().to_markdown();
        assert!(durability_markdown.contains("recovery"));
    }
}
