//! The adversarial consistency harness: deterministic fault injection plus
//! a seeded schedule fuzzer for the durable [`SessionStore`].
//!
//! Two instruments share one oracle — *the journal is the database*:
//!
//! * **Fault matrix** — for every IO site in the durable path
//!   ([`FaultSite::ALL`]) and a sweep of hit coordinates, a planned fault
//!   fires exactly once mid-script.  The failing operation must surface
//!   the injected [`std::io::ErrorKind`] typed, roll back completely
//!   (later operations match a shadow store that never saw the fault,
//!   bit for bit), leave memory replay-equal to the store's own journal,
//!   and survive a crash + reopen with the RNG streams intact.
//! * **Schedule fuzzer** — seeded random interleavings of
//!   present/feedback/recommend/snapshot across shard-parallel worker
//!   threads, with coordinator-level sync/compact/evict/restore, crash
//!   points (drop the store, reopen from disk) and reshards between
//!   rounds.  Because every session's RNG stream derives from
//!   `(seed, op index)` alone, the observed history must equal a
//!   single-threaded replay of the same per-session operation sequences
//!   on a fresh in-memory store — every individual result, bit for bit.
//!
//! The default corpus (32 seeds × {1,4} shards × {1,4} threads, small
//! catalogs) is the reduced CI matrix; set `CONSISTENCY_SEEDS` to widen
//! it locally.

use std::sync::Arc;

use pkgrec_core::prelude::*;
use pkgrec_core::{AggregationContext, LinearUtility, SimulatedUser};
use pkgrec_integration_tests::unique_temp_dir;
use pkgrec_serve::{
    shard_of, user_rng, DurabilityConfig, FaultKind, FaultPlan, FaultSite, RecommenderSpec,
    SessionConfig, SessionId, SessionStore, Shard, StoreConfig,
};

// ---------------------------------------------------------------------------
// Deterministic scaffolding
// ---------------------------------------------------------------------------

/// SplitMix64: a tiny, deterministic schedule RNG (test-local so schedules
/// never depend on any library's stream evolution).
struct Mix(u64);

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A small random catalog: 2 features in (0, 1), `items` rows.
fn harness_catalog(seed: u64, items: usize) -> Arc<Catalog> {
    let mut rng = Mix::new(seed);
    let rows = (0..items)
        .map(|_| {
            vec![
                0.05 + rng.below(90) as f64 / 100.0,
                0.05 + rng.below(90) as f64 / 100.0,
            ]
        })
        .collect();
    Arc::new(Catalog::from_rows(rows).expect("harness rows are valid items"))
}

/// A cheap engine session over the harness catalog.
fn harness_session(catalog: Arc<Catalog>, seed: u64) -> SessionConfig {
    SessionConfig {
        catalog,
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

/// Bit-for-bit comparisons happen on canonical JSON.
fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("harness values serialise")
}

/// The session's *logical* state: progress and pool, with the physical
/// search instrumentation zeroed.  Search counters tally work actually
/// performed — including work burned by rolled-back ops and rehydration
/// replays — so they legitimately differ between a store and its replay
/// while every observable result stays bit-identical.
fn logical_state(store: &mut SessionStore, id: SessionId) -> String {
    let mut state = store.state(id).expect("session known");
    state.search = Default::default();
    json(&state)
}

/// The injected fault must cross every layer with its IO class intact.
fn assert_injected(error: &CoreError, kind: FaultKind) {
    match error {
        CoreError::Io { kind: k, .. } => assert_eq!(
            *k,
            kind.error_kind(),
            "injected fault surfaced with the wrong IO class: {error}"
        ),
        other => panic!("expected the injected {kind:?} fault, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Part 1: the per-site fault matrix
// ---------------------------------------------------------------------------

/// One scripted step; session operands index into the ids created so far.
#[derive(Clone, Copy, Debug)]
enum Step {
    Create(u64),
    Present(usize),
    Feedback(usize),
    Recommend(usize),
    Evict(usize),
    Restore(usize),
    Sync,
    Compact,
}

/// The fixed script every `(site, after)` cell runs: enough traffic to
/// reach every failpoint (group commits, rotation under a tiny segment
/// cap, checkpoints via evict, a compaction rewrite, explicit syncs).
const SCRIPT: [Step; 16] = [
    Step::Create(11),
    Step::Create(12),
    Step::Present(0),
    Step::Present(1),
    Step::Feedback(0),
    Step::Present(0),
    Step::Sync,
    Step::Evict(0),
    Step::Restore(0),
    Step::Compact,
    Step::Present(1),
    Step::Recommend(0),
    Step::Feedback(1),
    Step::Present(0),
    Step::Recommend(1),
    Step::Sync,
];

/// For every durable-path IO site and a sweep of hit coordinates: inject
/// one fault, and prove the op that absorbed it rolled back to a store
/// bit-for-bit replay-equal to an unfaulted shadow — memory, journal and
/// post-crash recovery all agree, and the RNG streams resume in lockstep.
#[test]
fn every_failpoint_site_rolls_back_to_a_replay_equal_store() {
    let kinds = [
        FaultKind::StorageFull,
        FaultKind::PermissionDenied,
        FaultKind::WriteZero,
        FaultKind::Other,
    ];
    let store_config = StoreConfig {
        shards: 2,
        capacity_per_shard: 4,
    };
    for (s, site) in FaultSite::ALL.into_iter().enumerate() {
        if site == FaultSite::Manifest {
            continue; // open-time site: its own test below
        }
        let mut fired_total = 0usize;
        for after in 0..8u64 {
            let kind = kinds[(s + after as usize) % kinds.len()];
            let dir = unique_temp_dir(&format!("fault-matrix-{s}-{after}"));
            let clean = || DurabilityConfig {
                flush_every_ops: 2,
                segment_max_bytes: 256, // rotate early and often
                ..DurabilityConfig::at(&dir)
            };
            let durability = DurabilityConfig {
                fault_plan: FaultPlan::once(site, after, kind),
                ..clean()
            };

            // Some sites (first-segment rotation, the gen-0 marker) are
            // reached while the store is still opening: the open itself
            // must then fail typed, and a clean reopen must serve.
            let mut store = match SessionStore::open_with(store_config, durability) {
                Ok(store) => store,
                Err(error) => {
                    assert_injected(&error, kind);
                    drop(SessionStore::open_with(store_config, clean()).unwrap());
                    fired_total += 1;
                    std::fs::remove_dir_all(&dir).ok();
                    continue;
                }
            };
            let mut shadow = SessionStore::new(store_config).unwrap();
            let catalog = harness_catalog(900 + s as u64, 8);
            let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
            let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap());
            let mut ids: Vec<SessionId> = Vec::new();
            let mut last_shown: std::collections::HashMap<SessionId, Vec<Package>> =
                std::collections::HashMap::new();

            // Run the script.  An op that absorbs the fault must fail with
            // the injected kind and leave no trace: the shadow simply skips
            // it, and every *successful* op must keep matching the shadow.
            for step in SCRIPT {
                match step {
                    Step::Create(seed) => {
                        let config = harness_session(catalog.clone(), seed);
                        match store.create(config.clone()) {
                            Ok(id) => {
                                assert_eq!(id, shadow.create(config).unwrap());
                                ids.push(id);
                            }
                            Err(e) => assert_injected(&e, kind),
                        }
                    }
                    Step::Present(i) => {
                        let Some(&id) = ids.get(i) else { continue };
                        match store.present(id) {
                            Ok(shown) => {
                                assert_eq!(json(&shown), json(&shadow.present(id).unwrap()));
                                last_shown.insert(id, shown);
                            }
                            Err(e) => assert_injected(&e, kind),
                        }
                    }
                    Step::Feedback(i) => {
                        let Some(&id) = ids.get(i) else { continue };
                        // Feedback needs a successful prior present (a
                        // faulted present rolled back on both sides, so
                        // the tracked shown list is authoritative), and
                        // the click must stay jointly satisfiable.
                        let Some(shown) = last_shown.get(&id) else {
                            continue;
                        };
                        let index = click_index(&user, &catalog, shown);
                        match store.feedback(id, Feedback::Click { index }) {
                            Ok(added) => assert_eq!(
                                added,
                                shadow.feedback(id, Feedback::Click { index }).unwrap()
                            ),
                            Err(e) => assert_injected(&e, kind),
                        }
                    }
                    Step::Recommend(i) => {
                        let Some(&id) = ids.get(i) else { continue };
                        match store.recommend(id) {
                            Ok(ranked) => {
                                assert_eq!(json(&ranked), json(&shadow.recommend(id).unwrap()))
                            }
                            Err(e) => assert_injected(&e, kind),
                        }
                    }
                    Step::Evict(i) => {
                        let Some(&id) = ids.get(i) else { continue };
                        // Spilling journals a checkpoint; a faulted spill
                        // is safe (the journal stays authoritative) but
                        // then the shadow must not spill either.
                        match store.evict(id) {
                            Ok(()) => shadow.evict(id).unwrap(),
                            Err(e) => assert_injected(&e, kind),
                        }
                    }
                    Step::Restore(i) => {
                        let Some(&id) = ids.get(i) else { continue };
                        match store.restore(id) {
                            Ok(()) => shadow.restore(id).unwrap(),
                            Err(e) => assert_injected(&e, kind),
                        }
                    }
                    Step::Sync => {
                        if let Err(e) = store.sync() {
                            assert_injected(&e, kind);
                        }
                    }
                    Step::Compact => {
                        // The shadow never compacts: compaction must not
                        // change any observable result either way.
                        if let Err(e) = store.compact() {
                            assert_injected(&e, kind);
                        }
                    }
                }
            }
            fired_total += store.stats().injected_faults;

            // Oracle 1: memory ↔ journal coherence.  Replaying the store's
            // own journal reconstructs every session bit-identically.
            let mut rebuilt =
                SessionStore::from_journal(store_config, &store.export_journal()).unwrap();
            for &id in &ids {
                assert_eq!(
                    logical_state(&mut rebuilt, id),
                    logical_state(&mut store, id),
                    "{site:?}/after={after}: journal replay diverged from memory"
                );
            }

            // Oracle 2: crash + reopen.  Flush first — retried, because a
            // single-shot fault the script never reached can fire during
            // the sync itself (or during its own retry, on a later hit of
            // the same site) before the plan runs dry.
            let mut synced = false;
            for _ in 0..10 {
                match store.sync() {
                    Ok(()) => {
                        synced = true;
                        break;
                    }
                    Err(e) => assert_injected(&e, kind),
                }
            }
            assert!(
                synced,
                "{site:?}/after={after}: sync never drained the one-shot plan"
            );
            let expected: Vec<String> = ids
                .iter()
                .map(|&id| logical_state(&mut store, id))
                .collect();
            std::mem::forget(store);
            let mut reopened = SessionStore::open(&dir, store_config).unwrap();
            for (&id, want) in ids.iter().zip(&expected) {
                assert_eq!(
                    &logical_state(&mut reopened, id),
                    want,
                    "{site:?}/after={after}: recovery diverged from the pre-crash state"
                );
            }
            // Oracle 3: the RNG streams resume exactly where the shadow's
            // are — the fault burned no op index anywhere.
            for &id in &ids {
                assert_eq!(
                    json(&reopened.present(id).unwrap()),
                    json(&shadow.present(id).unwrap()),
                    "{site:?}/after={after}: post-recovery presents diverged"
                );
            }
            drop(reopened);
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            fired_total >= 1,
            "the {site:?} failpoint was never exercised by the matrix script"
        );
    }
}

/// The manifest site fires while the store is opening: the open fails
/// loudly with the injected class, nothing half-written survives, and a
/// clean reopen serves operations identical to a memory-only shadow.
#[test]
fn manifest_faults_fail_the_open_loudly_then_recover() {
    let store_config = StoreConfig {
        shards: 2,
        capacity_per_shard: 4,
    };
    for (i, kind) in [
        FaultKind::StorageFull,
        FaultKind::PermissionDenied,
        FaultKind::Other,
    ]
    .into_iter()
    .enumerate()
    {
        let dir = unique_temp_dir(&format!("fault-manifest-{i}"));
        let faulted = DurabilityConfig {
            fault_plan: FaultPlan::once(FaultSite::Manifest, 0, kind),
            ..DurabilityConfig::at(&dir)
        };
        match SessionStore::open_with(store_config, faulted) {
            Err(error) => assert_injected(&error, kind),
            Ok(_) => panic!("the manifest fault did not fail the open"),
        }

        let mut store = SessionStore::open_with(store_config, DurabilityConfig::at(&dir)).unwrap();
        let mut shadow = SessionStore::new(store_config).unwrap();
        let catalog = harness_catalog(77, 8);
        let id = store.create(harness_session(catalog.clone(), 5)).unwrap();
        assert_eq!(id, shadow.create(harness_session(catalog, 5)).unwrap());
        assert_eq!(
            json(&store.present(id).unwrap()),
            json(&shadow.present(id).unwrap())
        );
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Part 2: the schedule fuzzer
// ---------------------------------------------------------------------------

/// One in-round session operation (the shard-parallel vocabulary).
#[derive(Clone, Copy, Debug)]
enum Op {
    Present,
    Feedback,
    Recommend,
    Snapshot,
}

/// One session's slice of a round: its tracking index, its id, the ops
/// generated for it, and the shown list it enters the round with.
type RoundWork = (usize, SessionId, Vec<Op>, Vec<Package>);

/// The satisfiable-click chooser: a fixed hidden utility picks the
/// clicked index from the currently-shown list, so the pairwise
/// constraints accumulated over many rounds never contradict each other
/// (arbitrary clicks would run the engine's constrained samplers dry).
/// Deterministic: the same shown list yields the same index on the
/// observed and the replay side.
fn click_index(user: &SimulatedUser, catalog: &Catalog, shown: &[Package]) -> usize {
    user.choose(catalog, shown, &mut user_rng(0))
        .expect("feedback is only generated after a present")
}

/// Runs `op` against the shard that owns `id`, rendering the result as
/// the canonical JSON the oracle compares.  `shown` tracks the session's
/// last presented list (feedback targets it).
fn run_on_shard(
    shard: &mut Shard,
    id: SessionId,
    op: Op,
    shown: &mut Vec<Package>,
    user: &SimulatedUser,
    catalog: &Catalog,
) -> String {
    match op {
        Op::Present => {
            let packages = shard.op_present(id).unwrap();
            *shown = packages.clone();
            json(&packages)
        }
        Op::Feedback => {
            let index = click_index(user, catalog, shown);
            json(&shard.op_feedback(id, Feedback::Click { index }).unwrap())
        }
        Op::Recommend => json(&shard.op_recommend(id).unwrap()),
        Op::Snapshot => shard.snapshot_now(id).unwrap(),
    }
}

/// The single-threaded replay of the same op, through the store-level
/// verbs of a fresh in-memory store.
fn run_on_store(
    store: &mut SessionStore,
    id: SessionId,
    op: Op,
    shown: &mut Vec<Package>,
    user: &SimulatedUser,
    catalog: &Catalog,
) -> String {
    match op {
        Op::Present => {
            let packages = store.present(id).unwrap();
            *shown = packages.clone();
            json(&packages)
        }
        Op::Feedback => {
            let index = click_index(user, catalog, shown);
            json(&store.feedback(id, Feedback::Click { index }).unwrap())
        }
        Op::Recommend => json(&store.recommend(id).unwrap()),
        Op::Snapshot => store.snapshot(id).unwrap(),
    }
}

/// One seeded schedule: derive the topology from the seed, run 4 rounds
/// of shard-parallel traffic with coordinator chaos between rounds, then
/// hold the observed history against the single-threaded replay.
fn run_schedule(seed: u64) {
    let mut rng = Mix::new(0xC0FFEE ^ seed.wrapping_mul(7919));
    let mut shards: usize = if seed.is_multiple_of(2) { 1 } else { 4 };
    let threads: usize = if (seed / 2).is_multiple_of(2) { 1 } else { 4 };
    let capacity = if (seed / 4).is_multiple_of(2) { 2 } else { 8 }; // 2 = spill pressure
    let flush_every = if seed.is_multiple_of(3) { 1 } else { 4 };

    let dir = unique_temp_dir(&format!("schedule-{seed}"));
    let store_config = |shards: usize| StoreConfig {
        shards,
        capacity_per_shard: capacity,
    };
    let durability = || DurabilityConfig {
        flush_every_ops: flush_every,
        segment_max_bytes: 4096,
        ..DurabilityConfig::at(&dir)
    };
    let mut store = SessionStore::open_with(store_config(shards), durability()).unwrap();
    let catalog = harness_catalog(seed, 8);
    let context = AggregationContext::new(Profile::cost_quality(), &catalog, 2).unwrap();
    let user = SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap());

    // Per-session records: config (for the replay store), the op-tag
    // history, the observed JSON results, whether a present happened
    // (feedback is only valid after one), and the last shown list
    // (feedback clicks target it).
    let mut configs: Vec<SessionConfig> = Vec::new();
    let mut ids: Vec<SessionId> = Vec::new();
    let mut history: Vec<Vec<Op>> = Vec::new();
    let mut observed: Vec<Vec<String>> = Vec::new();
    let mut has_shown: Vec<bool> = Vec::new();
    let mut shown_lists: Vec<Vec<Package>> = Vec::new();

    let add_session = |store: &mut SessionStore,
                       configs: &mut Vec<SessionConfig>,
                       ids: &mut Vec<SessionId>,
                       history: &mut Vec<Vec<Op>>,
                       observed: &mut Vec<Vec<String>>,
                       has_shown: &mut Vec<bool>,
                       shown_lists: &mut Vec<Vec<Package>>,
                       session_seed: u64| {
        let config = harness_session(catalog.clone(), session_seed);
        ids.push(store.create(config.clone()).unwrap());
        configs.push(config);
        history.push(Vec::new());
        observed.push(Vec::new());
        has_shown.push(false);
        shown_lists.push(Vec::new());
    };
    for i in 0..(shards * 3).max(4) {
        add_session(
            &mut store,
            &mut configs,
            &mut ids,
            &mut history,
            &mut observed,
            &mut has_shown,
            &mut shown_lists,
            seed * 131 + i as u64,
        );
    }

    for _round in 0..4 {
        // Generate this round's per-session op lists (independent of any
        // execution result — that is what makes the replay exact).
        let mut buckets: Vec<Vec<RoundWork>> = vec![Vec::new(); shards];
        for sid in 0..configs.len() {
            let mut ops = Vec::new();
            for _ in 0..=rng.below(2) {
                let op = match rng.below(8) {
                    0..=3 => Op::Present,
                    4 => {
                        if has_shown[sid] {
                            Op::Feedback
                        } else {
                            Op::Present
                        }
                    }
                    5 => Op::Recommend,
                    6 => Op::Snapshot,
                    _ => Op::Recommend,
                };
                if matches!(op, Op::Present) {
                    has_shown[sid] = true;
                }
                ops.push(op);
            }
            history[sid].extend(ops.iter().copied());
            buckets[shard_of(ids[sid], shards)].push((
                sid,
                ids[sid],
                ops,
                shown_lists[sid].clone(),
            ));
        }

        // Execute shard-parallel: split the shards across worker threads
        // (each owns its chunk `&mut`, the serving-loop discipline) and
        // run every session's ops in order on its owning shard.
        let chunk = shards.div_ceil(threads);
        let user_ref = &user;
        let catalog_ref: &Catalog = &catalog;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard_chunk, bucket_chunk) in store
                .shards_mut()
                .chunks_mut(chunk)
                .zip(buckets.chunks(chunk))
            {
                handles.push(scope.spawn(move || {
                    let mut out: Vec<(usize, String)> = Vec::new();
                    let mut shown_out: Vec<(usize, Vec<Package>)> = Vec::new();
                    for (shard, bucket) in shard_chunk.iter_mut().zip(bucket_chunk) {
                        for (sid, id, ops, shown) in bucket {
                            let mut shown = shown.clone();
                            for &op in ops {
                                out.push((
                                    *sid,
                                    run_on_shard(shard, *id, op, &mut shown, user_ref, catalog_ref),
                                ));
                            }
                            shown_out.push((*sid, shown));
                        }
                    }
                    (out, shown_out)
                }));
            }
            for handle in handles {
                let (out, shown_out) = handle.join().unwrap();
                for (sid, rendered) in out {
                    observed[sid].push(rendered);
                }
                for (sid, shown) in shown_out {
                    shown_lists[sid] = shown;
                }
            }
        });

        // Coordinator chaos between rounds: maintenance, crash points and
        // reshards — none of which may perturb any session's stream.
        match rng.below(6) {
            0 => store.sync().unwrap(),
            1 => {
                store.compact().unwrap();
            }
            2 => {
                let sid = rng.below(ids.len() as u64) as usize;
                store.evict(ids[sid]).unwrap();
            }
            3 => {
                let sid = rng.below(ids.len() as u64) as usize;
                store.restore(ids[sid]).unwrap();
            }
            4 => {
                // Crash: everything flushed is all that exists; reopen.
                store.sync().unwrap();
                std::mem::forget(store);
                store = SessionStore::open_with(store_config(shards), durability()).unwrap();
            }
            _ => {
                // Reshard: reopen under the other shard count; sessions
                // re-route but their histories must not notice.
                store.sync().unwrap();
                std::mem::forget(store);
                shards = if shards == 1 { 4 } else { 1 };
                store = SessionStore::open_with(store_config(shards), durability()).unwrap();
            }
        }
        if rng.below(2) == 0 {
            let session_seed = seed * 977 + configs.len() as u64;
            add_session(
                &mut store,
                &mut configs,
                &mut ids,
                &mut history,
                &mut observed,
                &mut has_shown,
                &mut shown_lists,
                session_seed,
            );
        }
    }

    // Verdict 1: the observed concurrent history equals the single-threaded
    // replay of the same per-session op sequences — every result, bit for
    // bit, on a fresh memory-only store.
    let mut replay = SessionStore::new(StoreConfig {
        shards: 1,
        capacity_per_shard: configs.len().max(1),
    })
    .unwrap();
    let replay_ids: Vec<SessionId> = configs
        .iter()
        .map(|config| replay.create(config.clone()).unwrap())
        .collect();
    let mut replay_shown: Vec<Vec<Package>> = vec![Vec::new(); configs.len()];
    for sid in 0..configs.len() {
        assert_eq!(history[sid].len(), observed[sid].len());
        for (i, (&op, want)) in history[sid].iter().zip(&observed[sid]).enumerate() {
            let got = run_on_store(
                &mut replay,
                replay_ids[sid],
                op,
                &mut replay_shown[sid],
                &user,
                &catalog,
            );
            assert_eq!(
                &got, want,
                "seed {seed}: session {sid} op {i} ({op:?}) diverged from the replay"
            );
        }
    }

    // Verdict 2: final states agree between the served store, the replay
    // store, and a rebuild from the served store's own exported journal.
    let mut from_log =
        SessionStore::from_journal(store_config(shards), &store.export_journal()).unwrap();
    for sid in 0..configs.len() {
        let state = logical_state(&mut store, ids[sid]);
        assert_eq!(state, logical_state(&mut replay, replay_ids[sid]));
        assert_eq!(state, logical_state(&mut from_log, ids[sid]));
    }

    // Verdict 3: crash at the end, recover from disk, and take one more
    // step everywhere — the recovered RNG streams stay in lockstep.
    store.sync().unwrap();
    std::mem::forget(store);
    let mut reopened = SessionStore::open(&dir, store_config(shards)).unwrap();
    for sid in 0..configs.len() {
        assert_eq!(
            json(&reopened.present(ids[sid]).unwrap()),
            json(&replay.present(replay_ids[sid]).unwrap()),
            "seed {seed}: post-recovery present diverged"
        );
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// The reduced CI corpus: 32 seeded schedules cycling shard counts
/// {1, 4}, worker threads {1, 4}, capacity pressure and group-commit
/// windows.  `CONSISTENCY_SEEDS=512` (or any count) widens the corpus
/// for a local soak.
#[test]
fn seeded_schedules_replay_bit_for_bit() {
    let seeds: u64 = std::env::var("CONSISTENCY_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    for seed in 0..seeds {
        run_schedule(seed);
    }
}
