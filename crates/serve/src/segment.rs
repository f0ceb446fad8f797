//! Journal wire format v2: the on-disk segment codec.
//!
//! A *segment* is one append-only file of the durable journal.  Its layout:
//!
//! ```text
//! ┌──────────────────────────┐
//! │ magic  "PKGJRNL\0"  (8B) │   segment header (12 bytes)
//! │ version u32 LE      (4B) │
//! ├──────────────────────────┤
//! │ len  u32 LE         (4B) │ ┐
//! │ crc32(payload) LE   (4B) │ │  one framed record, repeated
//! │ payload (JSON, len B)    │ ┘
//! ├──────────────────────────┤
//! │ ...                      │
//! └──────────────────────────┘
//! ```
//!
//! Each payload is one [`WireRecord`] serialised through the vendored
//! `serde_json` byte surface.  The CRC32 (IEEE) framing lets recovery detect
//! a *torn tail* — a record that was mid-write when the process died — and
//! truncate the segment back to its last clean record instead of refusing to
//! open the store ([`decode_segment`] reports the clean prefix length).
//!
//! ## Interning (why v2 exists)
//!
//! Format v1 (the in-memory [`Journal`](crate::journal::Journal)'s derived
//! serde form) embeds a full catalog copy in every `Created` event and every
//! `Snapshot` checkpoint, so journal bytes grow O(sessions × catalog).  v2
//! serialises each distinct catalog exactly once as a
//! [`WireRecord::Catalog`] definition; [`WireEvent::Created`] references it
//! by [`CatalogId`], and [`WireEvent::Snapshot`] carries the checkpoint's
//! [`SessionSnapshot`] as its value tree with the `"catalog"` field holding
//! the id instead of the rows.  A definition always precedes its first use
//! in segment order, so a single forward pass over the segments resolves
//! every reference.
//!
//! A checkpoint crosses this codec as a typed value in both directions:
//! `checkpoint_value` renders the snapshot with its interned id once, at
//! the append, and `checkpoint_snapshot` decodes a recovered record
//! straight into a snapshot on the shared catalog its id names.  Neither
//! renders nor parses the catalog, and no snapshot JSON string exists on
//! either side.

use std::sync::Arc;

use crate::config::{RecommenderSpec, SessionId};
use pkgrec_core::{Catalog, Feedback, Package, Profile, SessionSnapshot};
use serde::{DeError, Deserialize, Serialize};
use serde_json::Value;

/// First bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"PKGJRNL\0";

/// Wire-format version this codec reads and writes.
pub const SEGMENT_VERSION: u32 = 2;

/// Bytes of the segment header (magic + version).
pub const SEGMENT_HEADER_LEN: usize = SEGMENT_MAGIC.len() + 4;

/// Bytes of one record frame's prefix (length + checksum).
pub const FRAME_PREFIX_LEN: usize = 8;

/// Identifies one interned catalog within a shard's durable journal.
///
/// Ids are assigned densely in first-use order by the shard's intern table;
/// they are meaningful only within the segment generation that wrote them
/// (compaction rewrites reassign ids from zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CatalogId(pub u64);

/// A journal event in wire form: catalogs appear as [`CatalogId`]
/// references instead of inline copies.
///
/// The non-catalog fields of `Created` mirror
/// [`SessionConfig`](crate::SessionConfig) field for field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireEvent {
    /// The session was created — the interned form of
    /// [`SessionEvent::Created`](crate::journal::SessionEvent::Created).
    Created {
        /// Reference to the session's interned catalog.
        catalog: CatalogId,
        /// The aggregate feature profile.
        profile: Profile,
        /// The maximum package size φ.
        max_package_size: usize,
        /// The recommender recipe.
        spec: RecommenderSpec,
        /// The deterministic session seed.
        seed: u64,
    },
    /// A present operation ran.
    Presented,
    /// User feedback was applied.
    Feedback(Feedback),
    /// A final recommendation was computed.
    Recommended,
    /// A spill checkpoint: the snapshot's value tree, whose `"catalog"`
    /// field holds the interned id as a JSON number instead of the rows.
    Snapshot {
        /// The snapshot value tree with the catalog field interned away.
        snapshot: Value,
        /// Operations applied when the checkpoint was taken.
        ops: u64,
        /// The packages shown by the latest present, for replay fidelity.
        last_shown: Vec<Package>,
    },
}

/// One framed record in a segment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireRecord {
    /// An intern-table definition: the one place this catalog's bytes live.
    Catalog {
        /// The id subsequent references use.
        id: CatalogId,
        /// The catalog itself.
        catalog: Catalog,
    },
    /// A session event.
    Event {
        /// The session the event belongs to.
        session: SessionId,
        /// The event in wire form.
        event: WireEvent,
    },
}

/// The value tree [`WireEvent::Snapshot`] carries for `snapshot`: the
/// snapshot's own serde form, field for field and in declaration order, with
/// `catalog` holding the interned id instead of the rows.  The catalog is
/// never rendered; its definition record holds the rows once per shard.
pub(crate) fn checkpoint_value(snapshot: &SessionSnapshot, catalog: CatalogId) -> Value {
    let SessionSnapshot {
        version,
        config,
        profile,
        max_package_size,
        catalog: _,
        preferences,
        pool,
        rounds,
    } = snapshot;
    Value::Object(vec![
        ("version".into(), version.to_json_value()),
        ("config".into(), config.to_json_value()),
        ("profile".into(), profile.to_json_value()),
        ("max_package_size".into(), max_package_size.to_json_value()),
        ("catalog".into(), catalog.0.to_json_value()),
        ("preferences".into(), preferences.to_json_value()),
        ("pool".into(), pool.to_json_value()),
        ("rounds".into(), rounds.to_json_value()),
    ])
}

/// Decodes a [`WireEvent::Snapshot`] value tree into a snapshot on
/// `catalogs[id]`, the shared catalog its interned id names — the inverse
/// of [`checkpoint_value`].  A value that is not a snapshot, or whose id
/// names no catalog in `catalogs`, is an error.
pub(crate) fn checkpoint_snapshot(
    value: &Value,
    catalogs: &[Arc<Catalog>],
) -> Result<SessionSnapshot, DeError> {
    let entries = value
        .as_object()
        .ok_or_else(|| DeError::expected("a snapshot object", value))?;
    let field = |name| serde::get_field(entries, name);
    let id = u64::from_json_value(field("catalog")?)?;
    let catalog = usize::try_from(id)
        .ok()
        .and_then(|index| catalogs.get(index))
        .ok_or_else(|| DeError(format!("dangling catalog reference {id}")))?;
    Ok(SessionSnapshot {
        version: Deserialize::from_json_value(field("version")?)?,
        config: Deserialize::from_json_value(field("config")?)?,
        profile: Deserialize::from_json_value(field("profile")?)?,
        max_package_size: Deserialize::from_json_value(field("max_package_size")?)?,
        catalog: Arc::clone(catalog),
        preferences: Deserialize::from_json_value(field("preferences")?)?,
        pool: Deserialize::from_json_value(field("pool")?)?,
        rounds: Deserialize::from_json_value(field("rounds")?)?,
    })
}

/// CRC32 (IEEE, reflected, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// The CRC32 (IEEE) checksum of `bytes`, as used by the record framing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends the 12-byte segment header (magic + version) to `out`.
pub fn write_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
}

/// Appends one framed record (`len | crc | payload`) to `out`.
pub fn encode_record(record: &WireRecord, out: &mut Vec<u8>) -> pkgrec_core::Result<()> {
    let payload = serde_json::to_vec(record)
        .map_err(|e| pkgrec_core::CoreError::io_data(format!("record serialisation: {e}")))?;
    let len = u32::try_from(payload.len()).map_err(|_| {
        pkgrec_core::CoreError::io_data(format!(
            "record payload of {} bytes overflows the frame",
            payload.len()
        ))
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(())
}

/// The result of decoding one segment's bytes.
#[derive(Debug)]
pub struct DecodedSegment {
    /// The records of the clean prefix, in append order.
    pub records: Vec<WireRecord>,
    /// Byte length of the clean prefix (header plus whole, checksummed
    /// records).  Truncating the file to this length removes the torn tail.
    pub clean_len: u64,
    /// Why decoding stopped before the end of the input, if it did.  `None`
    /// means the segment is clean.
    pub torn: Option<String>,
}

/// Decodes a segment byte-for-byte, stopping at the first torn or corrupt
/// record.
///
/// Torn tails are *reported*, not errored: whether a torn record is
/// tolerable depends on position (recovery accepts it only on the newest
/// segment of the newest generation — anywhere else it is corruption, and
/// the caller escalates).  The only hard error is a well-formed header
/// declaring a version this codec does not speak.
pub fn decode_segment(bytes: &[u8]) -> pkgrec_core::Result<DecodedSegment> {
    if bytes.len() < SEGMENT_HEADER_LEN || bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return Ok(DecodedSegment {
            records: Vec::new(),
            clean_len: 0,
            torn: Some("missing or torn segment header".into()),
        });
    }
    let version = u32::from_le_bytes(
        bytes[SEGMENT_MAGIC.len()..SEGMENT_HEADER_LEN]
            .try_into()
            .expect("slice is 4 bytes"),
    );
    if version != SEGMENT_VERSION {
        return Err(pkgrec_core::CoreError::io_data(format!(
            "segment declares wire version {version}, this build speaks {SEGMENT_VERSION}"
        )));
    }

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    let mut torn = None;
    while offset < bytes.len() {
        if bytes.len() - offset < FRAME_PREFIX_LEN {
            torn = Some("torn frame prefix".into());
            break;
        }
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let start = offset + FRAME_PREFIX_LEN;
        if bytes.len() - start < len {
            torn = Some(format!(
                "torn record payload: frame declares {len} bytes, {} remain",
                bytes.len() - start
            ));
            break;
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            torn = Some("record checksum mismatch".into());
            break;
        }
        match serde_json::from_slice::<WireRecord>(payload) {
            Ok(record) => records.push(record),
            Err(e) => {
                torn = Some(format!("checksummed record failed to parse: {e}"));
                break;
            }
        }
        offset = start + len;
    }
    Ok(DecodedSegment {
        records,
        clean_len: offset as u64,
        torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pkgrec_core::EngineConfig;

    fn catalog() -> Catalog {
        Catalog::from_rows(vec![vec![0.6, 0.2], vec![0.4, 0.4], vec![0.9, 0.8]]).unwrap()
    }

    fn sample_records() -> Vec<WireRecord> {
        let snapshot_obj = Value::Object(vec![
            ("version".into(), Value::Int(1)),
            ("catalog".into(), Value::Int(0)),
            ("rounds".into(), Value::Int(2)),
        ]);
        vec![
            WireRecord::Catalog {
                id: CatalogId(0),
                catalog: catalog(),
            },
            WireRecord::Event {
                session: SessionId(1),
                event: WireEvent::Created {
                    catalog: CatalogId(0),
                    profile: Profile::cost_quality(),
                    max_package_size: 2,
                    spec: RecommenderSpec::Engine(EngineConfig::default()),
                    seed: 7,
                },
            },
            WireRecord::Event {
                session: SessionId(1),
                event: WireEvent::Presented,
            },
            WireRecord::Event {
                session: SessionId(1),
                event: WireEvent::Feedback(Feedback::Click { index: 1 }),
            },
            WireRecord::Event {
                session: SessionId(1),
                event: WireEvent::Snapshot {
                    snapshot: snapshot_obj,
                    ops: 2,
                    last_shown: vec![Package::new(vec![1]).unwrap()],
                },
            },
            WireRecord::Event {
                session: SessionId(1),
                event: WireEvent::Recommended,
            },
        ]
    }

    fn encode_all(records: &[WireRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        write_header(&mut out);
        for record in records {
            encode_record(record, &mut out).unwrap();
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for the standard 9-byte test string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_a_segment() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let decoded = decode_segment(&bytes).unwrap();
        assert_eq!(decoded.records, records);
        assert_eq!(decoded.clean_len, bytes.len() as u64);
        assert!(decoded.torn.is_none());
    }

    #[test]
    fn truncation_at_every_offset_yields_a_clean_prefix() {
        let records = sample_records();
        let bytes = encode_all(&records);
        for cut in 0..bytes.len() {
            let decoded = decode_segment(&bytes[..cut]).unwrap();
            // The clean prefix re-decodes with no torn tail and the same
            // records — exactly what truncate-at-corruption relies on.
            assert!(decoded.clean_len <= cut as u64);
            let reread = decode_segment(&bytes[..decoded.clean_len as usize]).unwrap();
            assert_eq!(reread.records, decoded.records);
            if decoded.clean_len >= SEGMENT_HEADER_LEN as u64 {
                assert!(reread.torn.is_none());
            }
            assert!(decoded.records.len() <= records.len());
            assert_eq!(decoded.records[..], records[..decoded.records.len()]);
            if cut < bytes.len() {
                assert!(decoded.torn.is_some() || decoded.clean_len == cut as u64);
            }
        }
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let records = sample_records();
        let clean = encode_all(&records);
        // Flip a byte in the middle of the second record's payload.
        let mut corrupt = clean.clone();
        let target = SEGMENT_HEADER_LEN + FRAME_PREFIX_LEN + 40;
        corrupt[target] ^= 0x40;
        let decoded = decode_segment(&corrupt).unwrap();
        assert!(decoded.torn.is_some(), "corruption went undetected");
        assert!(decoded.records.len() < records.len());
    }

    /// A real engine snapshot after one present → click round.
    fn engine_snapshot(catalog: &Arc<Catalog>) -> SessionSnapshot {
        let mut engine =
            pkgrec_core::RecommenderEngine::builder(Arc::clone(catalog), Profile::cost_quality())
                .max_package_size(2)
                .k(2)
                .num_random(1)
                .num_samples(12)
                .build()
                .unwrap();
        let mut rng = crate::config::op_rng(5, 0);
        let shown = engine.present(&mut rng).unwrap();
        engine
            .record_feedback(&shown, Feedback::Click { index: 0 }, &mut rng)
            .unwrap();
        engine.snapshot()
    }

    #[test]
    fn checkpoint_values_print_the_snapshot_with_its_catalog_interned_away() {
        let shared = Arc::new(catalog());
        let snapshot = engine_snapshot(&shared);
        // The old append rendered the snapshot, parsed it, and swapped the
        // parsed catalog for the id; the typed path must print those bytes.
        let mut surgery =
            serde_json::value_from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();
        let Value::Object(entries) = &mut surgery else {
            panic!("a snapshot renders as an object");
        };
        let slot = entries
            .iter_mut()
            .find(|(key, _)| key == "catalog")
            .unwrap();
        slot.1 = Value::Int(3);
        let value = checkpoint_value(&snapshot, CatalogId(3));
        let printed = serde_json::to_string(&value).unwrap();
        assert_eq!(printed, serde_json::to_string(&surgery).unwrap());

        // Decoding resolves the id onto the shared handle, from the printed
        // bytes as from the value itself.
        let other = Arc::new(Catalog::from_rows(vec![vec![0.1, 0.1]]).unwrap());
        let catalogs = [
            Arc::clone(&other),
            other.clone(),
            other,
            Arc::clone(&shared),
        ];
        for tree in [value, serde_json::value_from_str(&printed).unwrap()] {
            let decoded = checkpoint_snapshot(&tree, &catalogs).unwrap();
            assert_eq!(decoded, snapshot);
            assert!(Arc::ptr_eq(&decoded.catalog, &shared));
        }
    }

    #[test]
    fn values_that_are_not_checkpoints_fail_to_decode() {
        let shared = Arc::new(catalog());
        let catalogs = [Arc::clone(&shared)];
        let value = checkpoint_value(&engine_snapshot(&shared), CatalogId(0));
        let mut dangling = value.clone();
        if let Value::Object(entries) = &mut dangling {
            entries
                .iter_mut()
                .find(|(key, _)| key == "catalog")
                .unwrap()
                .1 = Value::Int(1);
        }
        let mut inline = value.clone();
        if let Value::Object(entries) = &mut inline {
            entries
                .iter_mut()
                .find(|(key, _)| key == "catalog")
                .unwrap()
                .1 = shared.to_json_value();
        }
        for (bad, reason) in [
            (
                serde_json::value_from_str(r#"{"version":1,"catalog":0,"rounds":2}"#).unwrap(),
                "missing field",
            ),
            (Value::Array(Vec::new()), "expected a snapshot object"),
            (dangling, "dangling catalog reference 1"),
            (inline, "expected a number"),
        ] {
            let err = checkpoint_snapshot(&bad, &catalogs).unwrap_err();
            assert!(err.0.contains(reason), "{}", err.0);
        }
        assert!(checkpoint_snapshot(&value, &catalogs).is_ok());
    }

    #[test]
    fn unknown_version_is_a_hard_error_but_bad_magic_is_torn() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SEGMENT_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        assert!(decode_segment(&bytes).is_err());

        let garbage = b"not a segment at all";
        let decoded = decode_segment(garbage).unwrap();
        assert_eq!(decoded.clean_len, 0);
        assert!(decoded.torn.is_some());
        assert!(decoded.records.is_empty());
    }
}
