//! Crash-recovery properties of the durable serving journal
//! (`pkgrec-serve`):
//!
//! * the segment wire format v2 is pinned by a golden byte fixture
//!   (`fixtures/journal_segment_v2.bin`) — a PR that changes the framing,
//!   the CRC, or the record JSON must bump `SEGMENT_VERSION` and
//!   regenerate the fixture deliberately,
//! * real spill checkpoints are pinned the same way
//!   (`fixtures/journal_checkpoint_v2.bin`): the store must write exactly
//!   those bytes, and reopening them alone must recover sessions that
//!   recommend what a never-spilled shadow recommends,
//! * kill-at-random-offset: truncating the concatenated segment stream at
//!   arbitrary byte offsets and reopening the directory always yields a
//!   store whose every surviving session matches — **bit for bit** — the
//!   snapshot a live, never-killed session had at the same operation
//!   count.

use pkgrec_core::prelude::*;
use pkgrec_integration_tests::unique_temp_dir;
use pkgrec_serve::segment::{
    decode_segment, encode_record, write_header, SEGMENT_HEADER_LEN, SEGMENT_VERSION,
};
use pkgrec_serve::{
    user_rng, CatalogId, DurabilityConfig, RecommenderSpec, SessionConfig, SessionId, SessionStore,
    StoreConfig, WireEvent, WireRecord,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;

// ---------------------------------------------------------------------------
// Golden wire-format fixture
// ---------------------------------------------------------------------------

/// The synthetic records of the checked-in fixture (kept in code so the
/// fixture can be regenerated; the bytes on disk are the contract under
/// test).  One of every record shape: an intern-table catalog definition,
/// a `Created` referencing it by id, the three op events, and an interned
/// `Snapshot` checkpoint.
fn fixture_records() -> Vec<WireRecord> {
    let catalog = Catalog::from_rows(vec![
        vec![0.6, 0.2],
        vec![0.4, 0.4],
        vec![0.2, 0.4],
        vec![0.9, 0.8],
    ])
    .unwrap();
    let session = SessionId(3);
    vec![
        WireRecord::Catalog {
            id: CatalogId(0),
            catalog,
        },
        WireRecord::Event {
            session,
            event: WireEvent::Created {
                catalog: CatalogId(0),
                profile: Profile::cost_quality(),
                max_package_size: 2,
                spec: RecommenderSpec::Engine(EngineConfig {
                    k: 2,
                    num_random: 2,
                    num_samples: 20,
                    ..EngineConfig::default()
                }),
                seed: 41,
            },
        },
        WireRecord::Event {
            session,
            event: WireEvent::Presented,
        },
        WireRecord::Event {
            session,
            event: WireEvent::Feedback(Feedback::Click { index: 1 }),
        },
        WireRecord::Event {
            session,
            event: WireEvent::Recommended,
        },
        WireRecord::Event {
            session,
            event: WireEvent::Snapshot {
                snapshot: serde_json::value_from_str(r#"{"version":1,"catalog":0,"rounds":2}"#)
                    .unwrap(),
                ops: 3,
                last_shown: Vec::new(),
            },
        },
    ]
}

fn fixture_segment_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_header(&mut bytes);
    for record in &fixture_records() {
        encode_record(record, &mut bytes).unwrap();
    }
    bytes
}

const GOLDEN_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/journal_segment_v2.bin"
);

/// Wire-format compatibility gate for the durable journal.  Regenerate with
/// `UPDATE_SNAPSHOT_FIXTURE=1 cargo test -p pkgrec-integration-tests golden`.
#[test]
fn golden_segment_fixture_stays_decodable() {
    if std::env::var_os("UPDATE_SNAPSHOT_FIXTURE").is_some() {
        std::fs::write(GOLDEN_FIXTURE, fixture_segment_bytes()).unwrap();
    }
    let disk = std::fs::read(GOLDEN_FIXTURE)
        .expect("golden fixture exists (regenerate with UPDATE_SNAPSHOT_FIXTURE=1)");

    // Encoding today must reproduce the checked-in bytes exactly: framing,
    // CRC table, JSON field order and float formatting are all pinned.
    assert_eq!(
        fixture_segment_bytes(),
        disk,
        "segment wire format drifted; bump SEGMENT_VERSION and regenerate the fixture"
    );
    assert_eq!(
        SEGMENT_VERSION, 2,
        "bumping SEGMENT_VERSION needs a new fixture"
    );

    // And the checked-in bytes must decode cleanly back to the records.
    let decoded = decode_segment(&disk).expect("fixture decodes");
    assert!(decoded.torn.is_none(), "fixture has no torn tail");
    assert_eq!(decoded.clean_len as usize, disk.len());
    assert_eq!(decoded.records, fixture_records());
}

// ---------------------------------------------------------------------------
// Golden checkpoint segment
// ---------------------------------------------------------------------------

const CHECKPOINT_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/journal_checkpoint_v2.bin"
);

const CHECKPOINT_ROUNDS: usize = 3;

fn checkpoint_catalog() -> std::sync::Arc<Catalog> {
    std::sync::Arc::new(
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
            vec![0.5, 0.9],
            vec![0.7, 0.1],
            vec![0.1, 0.3],
        ])
        .unwrap(),
    )
}

/// Two fixed-seed engine sessions take turns at present → click, so on a
/// one-slot shard every turn spills the other session with its real pool
/// and preference DAG.  Drives `store` and `shadow` identically.
fn drive_turns(store: &mut SessionStore, shadow: &mut SessionStore) -> Vec<SessionId> {
    let catalog = checkpoint_catalog();
    let ids: Vec<SessionId> = [900, 901]
        .into_iter()
        .map(|seed| {
            let id = store.create(session_config(seed, &catalog)).unwrap();
            assert_eq!(shadow.create(session_config(seed, &catalog)).unwrap(), id);
            id
        })
        .collect();
    let user = hidden_user(&catalog);
    for _ in 0..CHECKPOINT_ROUNDS {
        for &id in &ids {
            let shown = store.present(id).unwrap();
            assert_eq!(shadow.present(id).unwrap(), shown);
            let index = user.choose(&catalog, &shown, &mut user_rng(id.0)).unwrap();
            let feedback = Feedback::Click { index };
            store.feedback(id, feedback).unwrap();
            shadow.feedback(id, feedback).unwrap();
        }
    }
    ids
}

fn one_slot_store() -> StoreConfig {
    StoreConfig {
        shards: 1,
        capacity_per_shard: 1,
    }
}

/// The concatenated segment bytes of a one-shard store's directory.
fn segment_stream(root: &Path) -> Vec<u8> {
    let (segments, _) = shard_files(&root.join("shard-0000"));
    segments
        .iter()
        .flat_map(|segment| std::fs::read(segment).unwrap())
        .collect()
}

/// Real checkpoints, pinned byte for byte: the segment a one-slot durable
/// store writes while two engine sessions spill each other.  Regenerate
/// with `UPDATE_SNAPSHOT_FIXTURE=1 cargo test -p pkgrec-integration-tests
/// golden`.
#[test]
fn golden_checkpoint_segment_is_written_and_recovered() {
    let root = unique_temp_dir("golden-checkpoint");
    let mut store = SessionStore::open(&root, one_slot_store()).unwrap();
    let mut shadow = SessionStore::new(StoreConfig {
        shards: 1,
        capacity_per_shard: 2,
    })
    .unwrap();
    let ids = drive_turns(&mut store, &mut shadow);
    store.sync().unwrap();
    assert_eq!(shadow.stats().evictions, 0, "the shadow never spills");
    assert!(
        store.stats().snapshots >= 2 * CHECKPOINT_ROUNDS,
        "every turn checkpoints the other session"
    );
    drop(store);
    let written = segment_stream(&root);
    if std::env::var_os("UPDATE_SNAPSHOT_FIXTURE").is_some() {
        std::fs::write(CHECKPOINT_FIXTURE, &written).unwrap();
    }
    let disk = std::fs::read(CHECKPOINT_FIXTURE)
        .expect("golden fixture exists (regenerate with UPDATE_SNAPSHOT_FIXTURE=1)");
    assert!(
        written == disk,
        "checkpoint segment bytes drifted ({} bytes written, {} pinned); bump \
         SEGMENT_VERSION and regenerate the fixture",
        written.len(),
        disk.len()
    );

    // The pinned bytes alone recover both sessions, and they recommend what
    // the never-spilled shadow recommends.
    let reopened = unique_temp_dir("golden-checkpoint-reopen");
    drop(SessionStore::open(&reopened, one_slot_store()).unwrap());
    std::fs::write(
        reopened
            .join("shard-0000")
            .join("seg-00000000-00000000.pkj"),
        &disk,
    )
    .unwrap();
    let mut recovered = SessionStore::open(&reopened, one_slot_store()).unwrap();
    assert_eq!(recovered.session_ids(), ids);
    for &id in &ids {
        assert_eq!(
            recovered.recommend(id).unwrap(),
            shadow.recommend(id).unwrap(),
            "recovered {id} diverged from the shadow"
        );
    }
    std::fs::remove_dir_all(&root).unwrap();
    std::fs::remove_dir_all(&reopened).unwrap();
}

/// A CRC-valid checkpoint whose value is not a session snapshot (the
/// synthetic one of the wire-format fixture) fails recovery with a typed
/// error naming its session, instead of surfacing at the session's first
/// touch.
#[test]
fn a_checkpoint_that_is_not_a_snapshot_fails_recovery_naming_its_session() {
    let root = unique_temp_dir("not-a-snapshot");
    let mut store = SessionStore::open(&root, one_slot_store()).unwrap();
    let id = store
        .create(session_config(41, &checkpoint_catalog()))
        .unwrap();
    store.sync().unwrap();
    drop(store);
    let (segments, _) = shard_files(&root.join("shard-0000"));
    let newest = segments.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    encode_record(
        &WireRecord::Event {
            session: id,
            event: WireEvent::Snapshot {
                snapshot: serde_json::value_from_str(r#"{"version":1,"catalog":0,"rounds":2}"#)
                    .unwrap(),
                ops: 0,
                last_shown: Vec::new(),
            },
        },
        &mut bytes,
    )
    .unwrap();
    std::fs::write(newest, bytes).unwrap();
    match SessionStore::open(&root, one_slot_store()) {
        Err(CoreError::Io {
            kind: std::io::ErrorKind::InvalidData,
            message,
        }) => assert!(
            message.contains(&format!("checkpoint of {id} ")),
            "the error names the session: {message}"
        ),
        Err(other) => panic!("expected an InvalidData error, got {other}"),
        Ok(_) => panic!("recovery accepted a checkpoint that is not a snapshot"),
    }
    std::fs::remove_dir_all(&root).unwrap();
}

// ---------------------------------------------------------------------------
// Kill at a random offset
// ---------------------------------------------------------------------------

const SESSIONS: u64 = 4;
const ROUNDS: usize = 3;

fn store_config() -> StoreConfig {
    StoreConfig {
        shards: 1,
        capacity_per_shard: 8,
    }
}

fn session_config(seed: u64, catalog: &std::sync::Arc<Catalog>) -> SessionConfig {
    SessionConfig {
        catalog: catalog.clone(),
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

/// Drives a durable store and an identical shadow (memory-only) store
/// through the same operation sequence, recording the shadow's snapshot
/// after **every** operation.  Returns the per-`(session, ops)` snapshot
/// history — the bit-exact reference a recovered session is diffed against.
fn drive_with_history(
    store: &mut SessionStore,
    shadow: &mut SessionStore,
    catalog: &std::sync::Arc<Catalog>,
) -> HashMap<(SessionId, u64), String> {
    let mut history = HashMap::new();
    let mut ids = Vec::new();
    let mut ops: HashMap<SessionId, u64> = HashMap::new();
    for i in 0..SESSIONS {
        let id = store.create(session_config(700 + i, catalog)).unwrap();
        let shadow_id = shadow.create(session_config(700 + i, catalog)).unwrap();
        assert_eq!(id, shadow_id, "both stores assign ids identically");
        ops.insert(id, 0);
        history.insert((id, 0), shadow.snapshot(id).unwrap());
        ids.push(id);
    }
    let record = |shadow: &mut SessionStore,
                  history: &mut HashMap<(SessionId, u64), String>,
                  ops: &mut HashMap<SessionId, u64>,
                  id: SessionId| {
        let n = ops.get_mut(&id).unwrap();
        *n += 1;
        history.insert((id, *n), shadow.snapshot(id).unwrap());
    };
    for _round in 0..ROUNDS {
        for id in &ids {
            let shown = store.present(*id).unwrap();
            assert_eq!(shadow.present(*id).unwrap(), shown);
            record(shadow, &mut history, &mut ops, *id);
            let user = hidden_user(catalog);
            let choice = user.choose(catalog, &shown, &mut user_rng(id.0)).unwrap();
            let feedback = Feedback::Click { index: choice };
            store.feedback(*id, feedback).unwrap();
            shadow.feedback(*id, feedback).unwrap();
            record(shadow, &mut history, &mut ops, *id);
        }
    }
    for id in &ids {
        assert_eq!(
            store.recommend(*id).unwrap(),
            shadow.recommend(*id).unwrap()
        );
        record(shadow, &mut history, &mut ops, *id);
    }
    history
}

fn hidden_user(catalog: &Catalog) -> SimulatedUser {
    let context = AggregationContext::new(Profile::cost_quality(), catalog, 2).unwrap();
    SimulatedUser::new(LinearUtility::new(context, vec![-0.7, 0.6]).unwrap())
}

/// The shard's segment files in sequence order, plus its generation marker.
fn shard_files(shard: &Path) -> (Vec<std::path::PathBuf>, std::path::PathBuf) {
    let mut segments = Vec::new();
    let mut marker = None;
    for entry in std::fs::read_dir(shard).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("seg-") {
            segments.push(path);
        } else if name.starts_with("gen-") {
            marker = Some(path);
        }
    }
    segments.sort();
    (segments, marker.expect("committed generation marker"))
}

/// Copies the durable directory into `trial_dir`, truncating the
/// concatenated segment byte stream at `cut` — the moral equivalent of the
/// process dying mid-write at that offset.  Segments wholly past the cut
/// are lost entirely.
fn copy_truncated(root: &Path, trial_dir: &Path, cut: u64) {
    std::fs::create_dir_all(trial_dir.join("shard-0000")).unwrap();
    std::fs::copy(root.join("store.json"), trial_dir.join("store.json")).unwrap();
    let (segments, marker) = shard_files(&root.join("shard-0000"));
    std::fs::copy(
        &marker,
        trial_dir
            .join("shard-0000")
            .join(marker.file_name().unwrap()),
    )
    .unwrap();
    let mut remaining = cut;
    for segment in segments {
        if remaining == 0 {
            break;
        }
        let bytes = std::fs::read(&segment).unwrap();
        let keep = (remaining as usize).min(bytes.len());
        std::fs::write(
            trial_dir
                .join("shard-0000")
                .join(segment.file_name().unwrap()),
            &bytes[..keep],
        )
        .unwrap();
        remaining -= keep as u64;
    }
}

/// The tentpole guarantee: kill the store at ANY byte offset of its
/// durable stream, reopen, and every surviving session is bit-identical to
/// a live session at the same operation count — proven by diffing snapshot
/// strings against the shadow history.
#[test]
fn recovery_from_any_truncation_offset_is_bit_identical() {
    let root = unique_temp_dir("journal-recovery");
    let catalog = std::sync::Arc::new(
        Catalog::from_rows(vec![
            vec![0.6, 0.2],
            vec![0.4, 0.4],
            vec![0.2, 0.4],
            vec![0.9, 0.8],
            vec![0.3, 0.7],
            vec![0.5, 0.9],
            vec![0.7, 0.1],
            vec![0.1, 0.3],
        ])
        .unwrap(),
    );
    // Write-through commits and tiny segments: every op hits disk and the
    // stream rotates across several files, so cuts land in interesting
    // places (mid-record, mid-header, between segments).
    let mut store = SessionStore::open_with(
        store_config(),
        DurabilityConfig {
            flush_every_ops: 1,
            segment_max_bytes: 2048,
            ..DurabilityConfig::at(&root)
        },
    )
    .unwrap();
    let mut shadow = SessionStore::new(store_config()).unwrap();
    let history = drive_with_history(&mut store, &mut shadow, &catalog);
    store.sync().unwrap();
    // Kill: no destructors run, nothing beyond the explicit sync survives
    // by grace.
    std::mem::forget(store);

    let (segments, _) = shard_files(&root.join("shard-0000"));
    assert!(segments.len() >= 2, "workload must span multiple segments");
    let total: u64 = segments
        .iter()
        .map(|s| std::fs::metadata(s).unwrap().len())
        .sum();

    // Edge offsets plus seeded random interior cuts.
    let mut offsets = vec![0, SEGMENT_HEADER_LEN as u64 - 1, total - 1, total];
    let mut rng = StdRng::seed_from_u64(20140902);
    for _ in 0..12 {
        offsets.push(rng.gen_range(1..total));
    }

    for (trial, cut) in offsets.into_iter().enumerate() {
        let trial_dir = unique_temp_dir(&format!("journal-recovery-t{trial}"));
        copy_truncated(&root, &trial_dir, cut);
        let mut recovered = SessionStore::open(&trial_dir, store_config())
            .unwrap_or_else(|e| panic!("recovery at offset {cut} failed: {e}"));
        if cut == total {
            assert_eq!(
                recovered.len() as u64,
                SESSIONS,
                "full stream recovers everything"
            );
        }
        for id in recovered.session_ids() {
            // The recovered operation count tells us which point of the
            // live timeline this session was cut back to ...
            let replayed = recovered.export_journal().replay(id).unwrap();
            let expected = history
                .get(&(id, replayed.ops))
                .unwrap_or_else(|| panic!("offset {cut}: no history at ({id}, {})", replayed.ops));
            // ... and at that point the recovered state must equal the live
            // state byte for byte.
            let recovered_snapshot = recovered.snapshot(id).unwrap();
            assert_eq!(
                &recovered_snapshot, expected,
                "offset {cut}: recovered {id} diverged at ops {}",
                replayed.ops
            );
        }
        // The recovered store keeps serving.
        if let Some(id) = recovered.session_ids().first().copied() {
            let shown = recovered.present(id).unwrap();
            recovered
                .feedback(id, Feedback::Click { index: 0 })
                .unwrap();
            assert!(!shown.is_empty());
            assert!(!recovered.recommend(id).unwrap().is_empty());
        }
        std::fs::remove_dir_all(&trial_dir).unwrap();
    }
    std::fs::remove_dir_all(&root).unwrap();
}
