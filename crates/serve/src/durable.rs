//! The durable, segmented, compacting backing store of a shard's journal.
//!
//! Each shard of a durable [`SessionStore`](crate::SessionStore) owns one
//! `ShardLog`: an in-memory write buffer in front of append-only segment
//! files (wire format v2, see [`crate::segment`]).  Shards never share
//! durable state — each writes its own directory — which preserves the
//! store's lock-free `&mut`-splitting under the serving loop.
//!
//! ## Group commit
//!
//! Appends accumulate in the buffer and reach the filesystem in batches:
//! one `write(2)` per [`DurabilityConfig::flush_every_ops`] events (or per
//! explicit `ShardLog::flush`/`ShardLog::sync` call).  `flush` hands the
//! batch to the OS; `sync` additionally `fsync`s the active segment.  A
//! crash loses at most the unflushed window — never previously flushed
//! records, and never the record framing (recovery truncates a torn tail at
//! the last clean record boundary).
//!
//! ## Generations and compaction
//!
//! Segment files are named `seg-<generation>-<sequence>.pkj`; a generation
//! is *committed* by an empty `gen-<generation>.ok` marker file.  Compaction
//! (`ShardLog::rewrite`) builds the retained records into a fresh
//! generation using a scratch `SegmentWriter`, fsyncs it, commits its
//! marker, and only then swaps it in and deletes the old generation — so a
//! crash *or an IO failure* at any point leaves exactly one recoverable
//! committed generation (plus garbage files the next recovery sweeps), and
//! a failed rewrite leaves the log appending to the old generation as if
//! compaction had never been attempted.
//!
//! ## Fault injection
//!
//! Every IO site — append, group-commit flush, fsync, segment rotation,
//! compaction rewrite, generation-marker commit (and, at the store level,
//! the manifest write) — consults the [`FaultPlan`] carried by
//! [`DurabilityConfig::fault_plan`] *before* touching the filesystem, so a
//! test can fail an exact `(site, hit-count)` coordinate cleanly.  A
//! failed append is transactional: the write buffer, the intern table and
//! the catalog list roll back to their pre-append state, keeping the
//! on-disk journal replay-equal to a store that never saw the operation.
//!
//! ## Interning
//!
//! The log keeps a per-shard catalog intern table keyed by
//! [`catalog_fingerprint`]: the first event referencing a catalog writes one
//! [`WireRecord::Catalog`] definition, and every later `Created` event or
//! `Snapshot` checkpoint stores only the [`CatalogId`].  Sessions share
//! their config's catalog handle, so most lookups match by pointer before
//! any row is hashed.  Definitions always precede their first use in the
//! same write batch, so recovery resolves references in a single forward
//! pass and shares one [`Arc<Catalog>`](std::sync::Arc) across all sessions
//! of a catalog.
//!
//! ## Checkpoints
//!
//! A `Snapshot` event holds a typed
//! [`SessionSnapshot`](pkgrec_core::SessionSnapshot).  The append renders
//! it once, with its interned id in the `catalog` field, and recovery
//! decodes each checkpoint record straight back into a snapshot on the
//! recovered catalog (`segment::checkpoint_value` and
//! `segment::checkpoint_snapshot`).  No snapshot is parsed at the append or
//! rendered at recovery, and the segment bytes are those of the snapshot's
//! own serde form.  A checkpoint record that is not a snapshot fails
//! recovery with an `InvalidData` error naming its session.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pkgrec_core::{Catalog, CoreError, Result};
use serde::{Deserialize, Serialize};

use crate::config::{catalog_fingerprint, SessionConfig, SessionId};
use crate::fault::{FaultInjector, FaultPlan, FaultSite};
use crate::journal::SessionEvent;
use crate::segment::{
    checkpoint_snapshot, checkpoint_value, decode_segment, encode_record, write_header, CatalogId,
    WireEvent, WireRecord, SEGMENT_HEADER_LEN, SEGMENT_VERSION,
};

/// Shape of a store's durable journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Root directory of the durable store; each shard writes its own
    /// `shard-<i>` subdirectory, and a `store.json` manifest records the
    /// layout.
    pub dir: PathBuf,
    /// Group-commit window: buffered events reach the filesystem after this
    /// many appends (1 = write-through).  An explicit
    /// [`SessionStore::sync`](crate::SessionStore::sync) flushes early.
    pub flush_every_ops: usize,
    /// Segment rotation threshold: once the active segment reaches this many
    /// bytes it is sealed and the next batch opens a fresh segment.
    pub segment_max_bytes: u64,
    /// Whether every group commit also `fsync`s the active segment.  Off by
    /// default: the write batch reaches the OS on every flush, and
    /// [`SessionStore::sync`](crate::SessionStore::sync) forces durability
    /// at the moments that matter (checkpoints, shutdown, compaction).
    pub sync_on_flush: bool,
    /// Deterministic fault-injection schedule for the durable path; the
    /// default empty plan injects nothing.
    pub fault_plan: FaultPlan,
    /// How many *consecutive* failed durable appends a shard tolerates
    /// before entering read-only degraded mode (each failed append still
    /// rolls its operation back).  A successful append — or a successful
    /// [`SessionStore::sync`](crate::SessionStore::sync) — re-arms the
    /// shard.
    pub append_retry_budget: usize,
}

impl DurabilityConfig {
    /// The default durability shape rooted at `dir`: group commit every 8
    /// events, 1 MiB segments, no fsync-per-flush, no injected faults, a
    /// 3-failure retry budget before a shard degrades.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            flush_every_ops: 8,
            segment_max_bytes: 1 << 20,
            sync_on_flush: false,
            fault_plan: FaultPlan::none(),
            append_retry_budget: 3,
        }
    }

    /// Validates the knobs (both must be at least 1 / large enough to hold
    /// a segment header).
    pub fn validate(&self) -> Result<()> {
        if self.flush_every_ops == 0 {
            return Err(CoreError::InvalidConfig(
                "flush_every_ops must be at least 1".into(),
            ));
        }
        if self.segment_max_bytes < SEGMENT_HEADER_LEN as u64 {
            return Err(CoreError::InvalidConfig(format!(
                "segment_max_bytes must be at least the {SEGMENT_HEADER_LEN}-byte header"
            )));
        }
        if self.append_retry_budget == 0 {
            return Err(CoreError::InvalidConfig(
                "append_retry_budget must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Durability counters of one [`ShardLog`] (merged into
/// [`StoreStats`](crate::StoreStats) by the store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LogStats {
    /// Segment files opened for writing (including compaction rewrites).
    pub segments_written: usize,
    /// Record bytes handed to the filesystem (framing included; compaction
    /// rewrites included).
    pub bytes_appended: usize,
    /// Disk bytes freed by generation rewrites (old size − new size).
    pub bytes_reclaimed: usize,
    /// Write batches flushed to the active segment.
    pub group_commits: usize,
    /// Faults injected by the [`FaultPlan`] so far.
    pub injected_faults: usize,
}

/// The `store.json` manifest at the root of a durable store's directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    /// Journal wire version ([`SEGMENT_VERSION`]).
    pub version: u32,
    /// Number of shard subdirectories.
    pub shards: usize,
}

/// Name of the manifest file under the store root.
pub(crate) const MANIFEST_NAME: &str = "store.json";

/// Reads the manifest if one exists.
pub(crate) fn read_manifest(root: &Path) -> Result<Option<Manifest>> {
    let path = root.join(MANIFEST_NAME);
    if !path.exists() {
        return Ok(None);
    }
    let bytes = fs::read(&path).map_err(|e| io_err(&path, "read manifest", e))?;
    let manifest: Manifest = serde_json::from_slice(&bytes)
        .map_err(|e| CoreError::io_data(format!("parse manifest {}: {e}", path.display())))?;
    Ok(Some(manifest))
}

/// Writes (and fsyncs) the manifest.  The [`FaultSite::Manifest`] failpoint
/// fires here, from the store-level injector.
pub(crate) fn write_manifest(root: &Path, shards: usize, faults: &mut FaultInjector) -> Result<()> {
    let manifest = Manifest {
        version: SEGMENT_VERSION,
        shards,
    };
    let path = root.join(MANIFEST_NAME);
    faults
        .check(FaultSite::Manifest)
        .map_err(|e| io_err(&path, "write manifest", e))?;
    let bytes = serde_json::to_vec(&manifest)
        .map_err(|e| CoreError::io_data(format!("serialise manifest: {e}")))?;
    let mut file = fs::File::create(&path).map_err(|e| io_err(&path, "create manifest", e))?;
    file.write_all(&bytes)
        .and_then(|()| file.sync_all())
        .map_err(|e| io_err(&path, "write manifest", e))
}

/// The shard subdirectory for shard `index` under `root`.
pub(crate) fn shard_dir(root: &Path, index: usize) -> PathBuf {
    root.join(format!("shard-{index:04}"))
}

fn io_err(path: &Path, action: &str, e: std::io::Error) -> CoreError {
    CoreError::io(e.kind(), format!("{action} {}: {e}", path.display()))
}

fn segment_name(generation: u64, sequence: u64) -> String {
    format!("seg-{generation:08}-{sequence:08}.pkj")
}

fn marker_name(generation: u64) -> String {
    format!("gen-{generation:08}.ok")
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".pkj")?;
    let (generation, sequence) = rest.split_once('-')?;
    Some((generation.parse().ok()?, sequence.parse().ok()?))
}

fn parse_marker_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.strip_suffix(".ok")?.parse().ok()
}

/// Commits generation `generation` in `dir` by fsyncing its empty
/// `gen-<g>.ok` marker.  The [`FaultSite::Marker`] failpoint fires here.
fn commit_marker(dir: &Path, generation: u64, faults: &mut FaultInjector) -> Result<()> {
    let path = dir.join(marker_name(generation));
    faults
        .check(FaultSite::Marker)
        .map_err(|e| io_err(&path, "commit generation marker", e))?;
    fs::File::create(&path)
        .and_then(|file| file.sync_all())
        .map_err(|e| io_err(&path, "commit generation marker", e))
}

/// The write-path knobs every [`SegmentWriter`] call needs.
#[derive(Debug, Clone, Copy)]
struct WriteKnobs {
    flush_every_ops: usize,
    segment_max_bytes: u64,
    sync_on_flush: bool,
}

impl WriteKnobs {
    fn from_config(config: &DurabilityConfig) -> WriteKnobs {
        WriteKnobs {
            flush_every_ops: config.flush_every_ops,
            segment_max_bytes: config.segment_max_bytes,
            sync_on_flush: config.sync_on_flush,
        }
    }
}

struct ActiveSegment {
    file: fs::File,
    path: PathBuf,
    bytes: u64,
}

/// Encodes records into the segment files of one generation: write buffer,
/// active segment, rotation, catalog interning.  [`ShardLog`] owns one for
/// its live generation; a compaction rewrite builds the *next* generation
/// in a scratch writer and swaps it in only after the new marker commits,
/// which is what makes a failed rewrite invisible.
struct SegmentWriter {
    dir: PathBuf,
    knobs: WriteKnobs,
    generation: u64,
    next_sequence: u64,
    active: Option<ActiveSegment>,
    pending: Vec<u8>,
    pending_records: usize,
    /// fingerprint → candidate ids (equality-checked; collisions chain).
    intern: HashMap<u64, Vec<CatalogId>>,
    /// id (dense) → the interned catalog.
    catalogs: Vec<Arc<Catalog>>,
}

impl SegmentWriter {
    fn new(dir: PathBuf, knobs: WriteKnobs, generation: u64, next_sequence: u64) -> SegmentWriter {
        SegmentWriter {
            dir,
            knobs,
            generation,
            next_sequence,
            active: None,
            pending: Vec::new(),
            pending_records: 0,
            intern: HashMap::new(),
            catalogs: Vec::new(),
        }
    }

    /// Buffers one event (plus any new catalog definition it needs), group
    /// committing when the window fills.  Transactional: on any failure —
    /// injected or real — the write buffer, the intern table and the
    /// catalog list roll back to their pre-append state, so the bytes of a
    /// rolled-back operation can never reach disk later.
    fn append(
        &mut self,
        session: SessionId,
        event: &SessionEvent,
        faults: &mut FaultInjector,
        stats: &mut LogStats,
    ) -> Result<()> {
        faults
            .check(FaultSite::Append)
            .map_err(|e| io_err(&self.dir, "append event", e))?;
        let pending_mark = self.pending.len();
        let records_mark = self.pending_records;
        let catalogs_mark = self.catalogs.len();
        let result = self.append_unchecked(session, event, faults, stats);
        if result.is_err() {
            self.pending.truncate(pending_mark);
            self.pending_records = records_mark;
            if self.catalogs.len() > catalogs_mark {
                self.catalogs.truncate(catalogs_mark);
                self.intern.retain(|_, ids| {
                    ids.retain(|id| (id.0 as usize) < catalogs_mark);
                    !ids.is_empty()
                });
            }
        }
        result
    }

    fn append_unchecked(
        &mut self,
        session: SessionId,
        event: &SessionEvent,
        faults: &mut FaultInjector,
        stats: &mut LogStats,
    ) -> Result<()> {
        let wire = self.event_to_wire(event)?;
        encode_record(
            &WireRecord::Event {
                session,
                event: wire,
            },
            &mut self.pending,
        )?;
        self.pending_records += 1;
        if self.pending_records >= self.knobs.flush_every_ops {
            self.flush(faults, stats)?;
        }
        Ok(())
    }

    /// Writes the buffered batch to the active segment (one group commit).
    fn flush(&mut self, faults: &mut FaultInjector, stats: &mut LogStats) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        faults
            .check(FaultSite::Flush)
            .map_err(|e| io_err(&self.dir, "flush batch", e))?;
        self.ensure_active(faults, stats)?;
        let active = self.active.as_mut().expect("ensured above");
        active
            .file
            .write_all(&self.pending)
            .map_err(|e| io_err(&active.path, "append batch", e))?;
        active.bytes += self.pending.len() as u64;
        stats.bytes_appended += self.pending.len();
        stats.group_commits += 1;
        if self.knobs.sync_on_flush {
            active
                .file
                .sync_data()
                .map_err(|e| io_err(&active.path, "sync segment", e))?;
        }
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Flushes and `fsync`s the active segment: everything appended so far
    /// survives a crash.
    fn sync(&mut self, faults: &mut FaultInjector, stats: &mut LogStats) -> Result<()> {
        self.flush(faults, stats)?;
        faults
            .check(FaultSite::Sync)
            .map_err(|e| io_err(&self.dir, "sync shard log", e))?;
        if let Some(active) = &mut self.active {
            active
                .file
                .sync_all()
                .map_err(|e| io_err(&active.path, "sync segment", e))?;
        }
        Ok(())
    }

    /// Seals the active segment if full and opens a fresh one if needed.
    fn ensure_active(&mut self, faults: &mut FaultInjector, stats: &mut LogStats) -> Result<()> {
        let full = match &self.active {
            None => true,
            Some(active) => active.bytes >= self.knobs.segment_max_bytes,
        };
        if !full {
            return Ok(());
        }
        faults
            .check(FaultSite::Rotate)
            .map_err(|e| io_err(&self.dir, "rotate segment", e))?;
        if let Some(sealed) = self.active.take() {
            sealed
                .file
                .sync_data()
                .map_err(|e| io_err(&sealed.path, "seal segment", e))?;
        }
        let path = self
            .dir
            .join(segment_name(self.generation, self.next_sequence));
        self.next_sequence += 1;
        let mut file = fs::File::create(&path).map_err(|e| io_err(&path, "create segment", e))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        write_header(&mut header);
        file.write_all(&header)
            .map_err(|e| io_err(&path, "write segment header", e))?;
        stats.segments_written += 1;
        self.active = Some(ActiveSegment {
            file,
            path,
            bytes: SEGMENT_HEADER_LEN as u64,
        });
        Ok(())
    }

    /// Interns a catalog, emitting its definition record into the pending
    /// batch on first sight (so the definition always precedes its first
    /// use on disk).
    fn intern_catalog(&mut self, catalog: &Arc<Catalog>) -> Result<CatalogId> {
        // Sessions and their checkpoints share the config's interned handle,
        // so a pointer match usually settles it without hashing the rows.
        if let Some(index) = self
            .catalogs
            .iter()
            .rposition(|known| Arc::ptr_eq(known, catalog))
        {
            return Ok(CatalogId(index as u64));
        }
        let fingerprint = catalog_fingerprint(catalog);
        if let Some(ids) = self.intern.get(&fingerprint) {
            for &id in ids {
                if *self.catalogs[id.0 as usize] == **catalog {
                    return Ok(id);
                }
            }
        }
        let id = CatalogId(self.catalogs.len() as u64);
        encode_record(
            &WireRecord::Catalog {
                id,
                catalog: (**catalog).clone(),
            },
            &mut self.pending,
        )?;
        self.catalogs.push(catalog.clone());
        self.intern.entry(fingerprint).or_default().push(id);
        Ok(id)
    }

    fn event_to_wire(&mut self, event: &SessionEvent) -> Result<WireEvent> {
        Ok(match event {
            SessionEvent::Created { config } => WireEvent::Created {
                catalog: self.intern_catalog(&config.catalog)?,
                profile: config.profile.clone(),
                max_package_size: config.max_package_size,
                spec: config.spec.clone(),
                seed: config.seed,
            },
            SessionEvent::Presented => WireEvent::Presented,
            SessionEvent::Feedback(feedback) => WireEvent::Feedback(*feedback),
            SessionEvent::Recommended => WireEvent::Recommended,
            SessionEvent::Snapshot {
                snapshot,
                ops,
                last_shown,
            } => WireEvent::Snapshot {
                snapshot: checkpoint_value(snapshot, self.intern_catalog(&snapshot.catalog)?),
                ops: *ops,
                last_shown: last_shown.clone(),
            },
        })
    }
}

/// One shard's durable journal: write buffer + segment files + intern table.
pub(crate) struct ShardLog {
    dir: PathBuf,
    knobs: WriteKnobs,
    writer: SegmentWriter,
    faults: FaultInjector,
    stats: LogStats,
}

impl ShardLog {
    /// Creates an empty shard log (fresh directory, committed generation 0).
    pub(crate) fn create(dir: PathBuf, config: &DurabilityConfig) -> Result<Self> {
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create shard directory", e))?;
        let knobs = WriteKnobs::from_config(config);
        let mut faults = FaultInjector::new(config.fault_plan.clone());
        commit_marker(&dir, 0, &mut faults)?;
        Ok(ShardLog {
            writer: SegmentWriter::new(dir.clone(), knobs, 0, 0),
            dir,
            knobs,
            faults,
            stats: LogStats::default(),
        })
    }

    /// Reopens a shard directory, returning the log positioned for new
    /// appends plus every recovered event in append order.
    ///
    /// Recovery reads the newest *committed* generation (highest marker),
    /// sweeps files of any other generation (stale pre- or mid-compaction
    /// leftovers), and tolerates a torn record at the tail of the newest
    /// segment by truncating the file back to its last clean record.
    ///
    /// Fault-plan hit counters start fresh: the plan describes the *new*
    /// process, not the one that wrote the recovered bytes.
    pub(crate) fn recover(
        dir: PathBuf,
        config: &DurabilityConfig,
    ) -> Result<(Self, Vec<(SessionId, SessionEvent)>)> {
        let mut markers: Vec<u64> = Vec::new();
        let mut segments: Vec<(u64, u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err(&dir, "read shard directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&dir, "read shard directory", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(generation) = parse_marker_name(name) {
                markers.push(generation);
            } else if let Some((generation, sequence)) = parse_segment_name(name) {
                segments.push((generation, sequence, entry.path()));
            }
        }
        let generation = markers.iter().copied().max().ok_or_else(|| {
            CoreError::io_data(format!(
                "shard directory {} has no committed generation marker",
                dir.display()
            ))
        })?;

        // Sweep everything that is not part of the committed generation:
        // superseded generations and half-written compaction output.
        for &stale in markers.iter().filter(|&&g| g != generation) {
            let path = dir.join(marker_name(stale));
            fs::remove_file(&path).map_err(|e| io_err(&path, "sweep stale marker", e))?;
        }
        segments.retain(|(g, _, path)| {
            if *g == generation {
                return true;
            }
            // Best-effort sweep; a leftover costs bytes, not correctness.
            let _ = fs::remove_file(path);
            false
        });
        segments.sort_by_key(|(_, sequence, _)| *sequence);

        let mut records: Vec<WireRecord> = Vec::new();
        let mut next_sequence = 0;
        let last = segments.len().saturating_sub(1);
        for (index, (_, sequence, path)) in segments.iter().enumerate() {
            next_sequence = sequence + 1;
            let bytes = fs::read(path).map_err(|e| io_err(path, "read segment", e))?;
            let decoded = decode_segment(&bytes)?;
            if let Some(reason) = decoded.torn {
                if index != last {
                    return Err(CoreError::io_data(format!(
                        "sealed segment {} is corrupt ({reason})",
                        path.display()
                    )));
                }
                // Torn tail on the newest segment: truncate at corruption.
                if decoded.clean_len < SEGMENT_HEADER_LEN as u64 {
                    fs::remove_file(path).map_err(|e| io_err(path, "drop torn segment", e))?;
                } else {
                    let file = fs::OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| io_err(path, "reopen torn segment", e))?;
                    file.set_len(decoded.clean_len)
                        .and_then(|()| file.sync_all())
                        .map_err(|e| io_err(path, "truncate torn segment", e))?;
                }
            }
            records.extend(decoded.records);
        }

        let knobs = WriteKnobs::from_config(config);
        let mut log = ShardLog {
            writer: SegmentWriter::new(dir.clone(), knobs, generation, next_sequence),
            dir,
            knobs,
            faults: FaultInjector::new(config.fault_plan.clone()),
            stats: LogStats::default(),
        };

        // Resolve interned references in one forward pass, re-seeding the
        // intern table so new appends reuse the recovered definitions.
        let mut events = Vec::new();
        for record in records {
            match record {
                WireRecord::Catalog { id, catalog } => {
                    if id.0 as usize != log.writer.catalogs.len() {
                        return Err(CoreError::io_data(format!(
                            "catalog definition {} out of order (expected {})",
                            id.0,
                            log.writer.catalogs.len()
                        )));
                    }
                    let fingerprint = catalog_fingerprint(&catalog);
                    log.writer.intern.entry(fingerprint).or_default().push(id);
                    log.writer.catalogs.push(Arc::new(catalog));
                }
                WireRecord::Event { session, event } => {
                    events.push((session, log.wire_to_event(session, event)?));
                }
            }
        }
        Ok((log, events))
    }

    /// Buffers one event (plus any new catalog definition it needs), group
    /// committing when the window fills.  Failures roll the buffer back —
    /// see [`SegmentWriter::append`].
    pub(crate) fn append(&mut self, session: SessionId, event: &SessionEvent) -> Result<()> {
        let ShardLog {
            writer,
            faults,
            stats,
            ..
        } = self;
        writer.append(session, event, faults, stats)
    }

    /// Writes the buffered batch to the active segment (one group commit).
    pub(crate) fn flush(&mut self) -> Result<()> {
        let ShardLog {
            writer,
            faults,
            stats,
            ..
        } = self;
        writer.flush(faults, stats)
    }

    /// Flushes and `fsync`s the active segment: everything appended so far
    /// survives a crash.
    pub(crate) fn sync(&mut self) -> Result<()> {
        let ShardLog {
            writer,
            faults,
            stats,
            ..
        } = self;
        writer.sync(faults, stats)
    }

    /// Rewrites the log as a fresh generation holding exactly `records`
    /// (checkpoint-anchored compaction's disk half).
    ///
    /// The new generation is built in a scratch [`SegmentWriter`], synced,
    /// and committed by its marker *before* this log switches over and the
    /// old generation is deleted.  On any failure — injected or real — the
    /// scratch output is swept best-effort and `self` is untouched: the
    /// old generation stays committed and appendable, exactly as if the
    /// rewrite had never been attempted (the invariant recovery offers for
    /// crashes, extended to in-process IO failure).
    pub(crate) fn rewrite<'a>(
        &mut self,
        records: impl IntoIterator<Item = (SessionId, &'a SessionEvent)>,
    ) -> Result<()> {
        self.sync()?;
        self.faults
            .check(FaultSite::Rewrite)
            .map_err(|e| io_err(&self.dir, "begin rewrite", e))?;
        let old_generation = self.writer.generation;
        let old_bytes = self.generation_bytes(old_generation)?;
        let new_generation = old_generation + 1;

        let mut scratch = SegmentWriter::new(self.dir.clone(), self.knobs, new_generation, 0);
        let built = (|| -> Result<()> {
            for (session, event) in records {
                scratch.append(session, event, &mut self.faults, &mut self.stats)?;
            }
            scratch.sync(&mut self.faults, &mut self.stats)?;
            commit_marker(&self.dir, new_generation, &mut self.faults)
        })();
        if let Err(error) = built {
            // The new generation never committed: sweep its files
            // best-effort (recovery would sweep any leftovers too) and
            // keep appending to the old generation.
            drop(scratch);
            let mut sequence = 0;
            loop {
                let path = self.dir.join(segment_name(new_generation, sequence));
                if !path.exists() {
                    break;
                }
                let _ = fs::remove_file(&path);
                sequence += 1;
            }
            return Err(error);
        }

        // The new generation is committed; the old one is garbage now.
        self.writer = scratch;
        let old_marker = self.dir.join(marker_name(old_generation));
        fs::remove_file(&old_marker).map_err(|e| io_err(&old_marker, "remove old marker", e))?;
        let mut sequence = 0;
        loop {
            let path = self.dir.join(segment_name(old_generation, sequence));
            if !path.exists() {
                break;
            }
            fs::remove_file(&path).map_err(|e| io_err(&path, "remove old segment", e))?;
            sequence += 1;
        }
        let new_bytes = self.generation_bytes(new_generation)?;
        self.stats.bytes_reclaimed += old_bytes.saturating_sub(new_bytes) as usize;
        Ok(())
    }

    /// Total bytes of this shard's directory (all segment files + markers).
    pub(crate) fn disk_bytes(&self) -> Result<u64> {
        let mut total = 0;
        let entries =
            fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, "read shard directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, "read shard directory", e))?;
            total += entry
                .metadata()
                .map_err(|e| io_err(&entry.path(), "stat", e))?
                .len();
        }
        Ok(total)
    }

    pub(crate) fn stats(&self) -> LogStats {
        LogStats {
            injected_faults: self.faults.injected() as usize,
            ..self.stats
        }
    }

    fn generation_bytes(&self, generation: u64) -> Result<u64> {
        let mut total = 0;
        let entries =
            fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, "read shard directory", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, "read shard directory", e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if parse_segment_name(name).is_some_and(|(g, _)| g == generation) {
                total += entry
                    .metadata()
                    .map_err(|e| io_err(&entry.path(), "stat", e))?
                    .len();
            }
        }
        Ok(total)
    }

    /// Resolves a recovered wire event of `session` back to a journal
    /// event on the recovered catalog definitions.  A checkpoint decodes
    /// straight into a typed snapshot; one that is not a snapshot fails
    /// recovery here, naming its session, instead of at the session's first
    /// touch.
    fn wire_to_event(&self, session: SessionId, event: WireEvent) -> Result<SessionEvent> {
        Ok(match event {
            WireEvent::Created {
                catalog,
                profile,
                max_package_size,
                spec,
                seed,
            } => {
                let shared = self
                    .writer
                    .catalogs
                    .get(catalog.0 as usize)
                    .ok_or_else(|| {
                        CoreError::io_data(format!("dangling catalog reference {}", catalog.0))
                    })?
                    .clone();
                SessionEvent::Created {
                    config: SessionConfig {
                        catalog: shared,
                        profile,
                        max_package_size,
                        spec,
                        seed,
                    },
                }
            }
            WireEvent::Presented => SessionEvent::Presented,
            WireEvent::Feedback(feedback) => SessionEvent::Feedback(feedback),
            WireEvent::Recommended => SessionEvent::Recommended,
            WireEvent::Snapshot {
                snapshot,
                ops,
                last_shown,
            } => SessionEvent::Snapshot {
                snapshot: Arc::new(
                    checkpoint_snapshot(&snapshot, &self.writer.catalogs).map_err(|e| {
                        CoreError::io_data(format!(
                            "checkpoint of {session} in {} is not a session snapshot: {e}",
                            self.dir.display()
                        ))
                    })?,
                ),
                ops,
                last_shown,
            },
        })
    }
}

impl Drop for ShardLog {
    /// Best-effort flush on graceful drop; a killed process (no drop) loses
    /// at most the unflushed group-commit window, which recovery tolerates.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{op_rng, LiveSession, RecommenderSpec};
    use crate::fault::FaultKind;
    use pkgrec_core::{EngineConfig, Feedback, Profile, SessionSnapshot};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pkgrec-durable-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn catalog() -> Catalog {
        Catalog::from_rows(vec![vec![0.6, 0.2], vec![0.4, 0.4], vec![0.9, 0.8]]).unwrap()
    }

    fn session_config(seed: u64, catalog: &Arc<Catalog>) -> SessionConfig {
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

    /// A real engine checkpoint after one present → click round: a drawn
    /// pool, one preference, and the shown list, on `catalog`'s handle.
    fn engine_checkpoint(catalog: &Arc<Catalog>) -> SessionEvent {
        let config = session_config(7, catalog);
        let LiveSession::Engine(mut engine) = config.build().unwrap() else {
            panic!("engine session expected");
        };
        let shown = engine.present(&mut op_rng(config.seed, 0)).unwrap();
        engine
            .record_feedback(
                &shown,
                Feedback::Click { index: 1 },
                &mut op_rng(config.seed, 1),
            )
            .unwrap();
        SessionEvent::Snapshot {
            snapshot: Arc::new(engine.snapshot()),
            ops: 2,
            last_shown: shown,
        }
    }

    fn sample_events(catalog: &Arc<Catalog>) -> Vec<(SessionId, SessionEvent)> {
        vec![
            (
                SessionId(0),
                SessionEvent::Created {
                    config: session_config(7, catalog),
                },
            ),
            (SessionId(0), SessionEvent::Presented),
            (
                SessionId(0),
                SessionEvent::Feedback(Feedback::Click { index: 1 }),
            ),
            (
                SessionId(1),
                SessionEvent::Created {
                    config: session_config(8, catalog),
                },
            ),
            (SessionId(0), engine_checkpoint(catalog)),
            (SessionId(1), SessionEvent::Recommended),
        ]
    }

    #[test]
    fn append_sync_recover_round_trips_with_shared_catalogs() {
        let dir = temp_dir("round-trip");
        let shared = Arc::new(catalog());
        let events = sample_events(&shared);
        let config = DurabilityConfig {
            flush_every_ops: 2,
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        for (session, event) in &events {
            log.append(*session, event).unwrap();
        }
        log.sync().unwrap();
        assert!(log.stats().group_commits >= 2, "group commit batches");
        drop(log);

        let (recovered, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed, events);
        // Both Created events and the Snapshot reference ONE interned
        // catalog, and recovery shares one Arc across them.
        assert_eq!(recovered.writer.catalogs.len(), 1);
        let (SessionEvent::Created { config: a }, SessionEvent::Created { config: b }) =
            (&replayed[0].1, &replayed[3].1)
        else {
            panic!("created events expected");
        };
        assert!(Arc::ptr_eq(&a.catalog, &b.catalog));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_checkpoints_survive_interning_byte_for_byte() {
        let dir = temp_dir("snapshot-typed");
        let shared = Arc::new(catalog());
        let config = DurabilityConfig::at(&dir);
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        let created = SessionEvent::Created {
            config: session_config(7, &shared),
        };
        let checkpoint = engine_checkpoint(&shared);
        log.append(SessionId(3), &created).unwrap();
        log.append(SessionId(3), &checkpoint).unwrap();
        log.sync().unwrap();
        // The checkpoint shared the config's handle, so interning it wrote
        // no second catalog definition.
        assert_eq!(log.writer.catalogs.len(), 1);
        drop(log);

        let (_, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed[1].1, checkpoint);
        let (
            SessionEvent::Created { config: recovered },
            SessionEvent::Snapshot { snapshot, .. },
            SessionEvent::Snapshot {
                snapshot: original, ..
            },
        ) = (&replayed[0].1, &replayed[1].1, &checkpoint)
        else {
            panic!("created and snapshot events expected");
        };
        // Decoded onto the recovered catalog, not a copy of its own ...
        assert!(Arc::ptr_eq(&snapshot.catalog, &recovered.catalog));
        // ... and rendering it still prints the original snapshot's JSON.
        assert_eq!(
            serde_json::to_string(&**snapshot).unwrap(),
            serde_json::to_string::<SessionSnapshot>(original).unwrap()
        );
        assert!(!snapshot.pool.is_empty() && !snapshot.preferences.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_at_the_size_threshold() {
        let dir = temp_dir("rotation");
        let shared = Arc::new(catalog());
        let config = DurabilityConfig {
            flush_every_ops: 1,
            segment_max_bytes: 256,
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        let events = sample_events(&shared);
        for _ in 0..4 {
            for (session, event) in &events {
                log.append(*session, event).unwrap();
            }
        }
        log.sync().unwrap();
        assert!(
            log.stats().segments_written > 1,
            "rotation produced segments"
        );
        drop(log);
        let (_, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed.len(), events.len() * 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tails_truncate_but_sealed_corruption_is_fatal() {
        let dir = temp_dir("torn");
        let shared = Arc::new(catalog());
        let config = DurabilityConfig {
            flush_every_ops: 1,
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        let events = sample_events(&shared);
        for (session, event) in &events {
            log.append(*session, event).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        // Tear the tail of the only (= newest) segment: recovery truncates
        // and returns the clean prefix.
        let seg = dir.join(segment_name(0, 0));
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 3]).unwrap();
        let (_, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed.len(), events.len() - 1);
        assert_eq!(replayed[..], events[..events.len() - 1]);

        // The same corruption in a *sealed* (non-newest) segment is fatal.
        let torn = fs::read(&seg).unwrap();
        fs::write(&seg, &torn[..torn.len() - 3]).unwrap();
        let mut next = fs::File::create(dir.join(segment_name(0, 1))).unwrap();
        let mut header = Vec::new();
        write_header(&mut header);
        next.write_all(&header).unwrap();
        drop(next);
        assert!(matches!(
            ShardLog::recover(dir.clone(), &config),
            Err(CoreError::Io { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_commits_the_new_generation_before_dropping_the_old() {
        let dir = temp_dir("rewrite");
        let shared = Arc::new(catalog());
        let config = DurabilityConfig {
            flush_every_ops: 1,
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        let events = sample_events(&shared);
        for _ in 0..8 {
            for (session, event) in &events {
                log.append(*session, event).unwrap();
            }
        }
        log.sync().unwrap();
        let before = log.disk_bytes().unwrap();

        // Retain one copy of the history: the rewrite re-interns from
        // scratch and reclaims the rest.
        let retained: Vec<(SessionId, &SessionEvent)> =
            events.iter().map(|(s, e)| (*s, e)).collect();
        log.rewrite(retained).unwrap();
        let after = log.disk_bytes().unwrap();
        assert!(
            after < before,
            "compaction reclaims bytes ({before} -> {after})"
        );
        assert!(log.stats().bytes_reclaimed > 0);
        assert!(dir.join(marker_name(1)).exists());
        assert!(!dir.join(marker_name(0)).exists());
        assert!(!dir.join(segment_name(0, 0)).exists());

        // Appends keep working in the new generation, and recovery sees
        // exactly retained + appended.
        log.append(SessionId(1), &SessionEvent::Presented).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed.len(), events.len() + 1);
        assert_eq!(replayed[..events.len()], events[..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_durability_shapes_are_rejected() {
        let config = DurabilityConfig {
            flush_every_ops: 0,
            ..DurabilityConfig::at("unused")
        };
        assert!(config.validate().is_err());
        let config = DurabilityConfig {
            segment_max_bytes: 4,
            ..DurabilityConfig::at("unused")
        };
        assert!(config.validate().is_err());
        let config = DurabilityConfig {
            append_retry_budget: 0,
            ..DurabilityConfig::at("unused")
        };
        assert!(config.validate().is_err());
        assert!(DurabilityConfig::at("unused").validate().is_ok());
    }

    #[test]
    fn injected_flush_failure_rolls_the_failed_append_out_of_the_buffer() {
        let dir = temp_dir("fault-flush");
        let shared = Arc::new(catalog());
        let events = sample_events(&shared);
        // Window of 2: the second append triggers the first flush, which
        // the plan poisons once.
        let config = DurabilityConfig {
            flush_every_ops: 2,
            fault_plan: FaultPlan::once(FaultSite::Flush, 0, FaultKind::StorageFull),
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        log.append(events[0].0, &events[0].1).unwrap();
        let err = log.append(events[1].0, &events[1].1).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Io {
                    kind: std::io::ErrorKind::StorageFull,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(log.stats().injected_faults, 1);
        // The failed append's bytes rolled back; the first (acked) event is
        // still buffered and reaches disk with later appends.
        for (session, event) in &events[2..] {
            log.append(*session, event).unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let (_, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        let mut expected = events.clone();
        expected.remove(1);
        assert_eq!(replayed, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_rolls_back_its_interned_catalog_definition() {
        let dir = temp_dir("fault-intern");
        let shared = Arc::new(catalog());
        // Write-through so the very first append (which interns the
        // catalog) hits the poisoned flush.
        let config = DurabilityConfig {
            flush_every_ops: 1,
            fault_plan: FaultPlan::once(FaultSite::Flush, 0, FaultKind::WriteZero),
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        let created = SessionEvent::Created {
            config: session_config(7, &shared),
        };
        let err = log.append(SessionId(0), &created).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Io {
                kind: std::io::ErrorKind::WriteZero,
                ..
            }
        ));
        assert!(
            log.writer.catalogs.is_empty(),
            "interned catalog rolled back"
        );
        assert!(log.writer.intern.is_empty());
        // Retrying re-interns at a dense id and recovery sees one catalog.
        log.append(SessionId(0), &created).unwrap();
        log.sync().unwrap();
        drop(log);
        let (recovered, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(recovered.writer.catalogs.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rewrite_leaves_the_old_generation_committed_and_appendable() {
        let dir = temp_dir("fault-rewrite");
        let shared = Arc::new(catalog());
        let events = sample_events(&shared);
        // Marker hit 0 is generation 0's create-time commit; hit 1 is the
        // rewrite's new-generation commit.
        let config = DurabilityConfig {
            flush_every_ops: 1,
            fault_plan: FaultPlan::once(FaultSite::Marker, 1, FaultKind::PermissionDenied),
            ..DurabilityConfig::at(&dir)
        };
        let mut log = ShardLog::create(dir.clone(), &config).unwrap();
        for (session, event) in &events {
            log.append(*session, event).unwrap();
        }
        log.sync().unwrap();

        let retained: Vec<(SessionId, &SessionEvent)> =
            events.iter().take(2).map(|(s, e)| (*s, e)).collect();
        let err = log.rewrite(retained).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Io {
                kind: std::io::ErrorKind::PermissionDenied,
                ..
            }
        ));
        // The old generation is still the committed truth and the scratch
        // output was swept.
        assert!(dir.join(marker_name(0)).exists());
        assert!(!dir.join(marker_name(1)).exists());
        assert!(!dir.join(segment_name(1, 0)).exists());

        // Appends continue in the old generation; a reopen replays the
        // full, uncompacted history plus the post-failure append.
        log.append(SessionId(1), &SessionEvent::Presented).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, replayed) = ShardLog::recover(dir.clone(), &config).unwrap();
        assert_eq!(replayed.len(), events.len() + 1);
        assert_eq!(replayed[..events.len()], events[..]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
