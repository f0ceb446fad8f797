//! Sanity checks over the committed benchmark artifacts (`BENCH_*.json` at
//! the repository root): every artifact must parse, carry the machine/build
//! environment header, and contain the series its figure is expected to
//! record.  CI runs this suite after the fig smoke set so a bench refresh
//! that drops a field (or a figure that silently stops writing a series)
//! fails the build instead of shipping a hollow artifact.

use serde_json::Value;
use std::path::PathBuf;

fn artifact(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name} must exist at the repository root: {e}"));
    serde_json::value_from_str(&raw).unwrap_or_else(|e| panic!("{name} must be valid JSON: {e:?}"))
}

fn field<'a>(name: &str, value: &'a Value, key: &str) -> &'a Value {
    value
        .get(key)
        .unwrap_or_else(|| panic!("{name} must carry a `{key}` field"))
}

fn str_field(name: &str, value: &Value, key: &str) -> String {
    field(name, value, key)
        .as_str()
        .unwrap_or_else(|| panic!("{name}: `{key}` must be a string"))
        .to_string()
}

/// Every artifact embeds the environment it was measured under, so a number
/// can always be read next to the hardware that produced it.
fn assert_environment(name: &str, record: &Value) {
    let env = field(name, record, "environment");
    assert!(
        field(name, env, "available_parallelism")
            .as_i128()
            .is_some_and(|p| p >= 1),
        "{name}: environment.available_parallelism must be >= 1"
    );
    for key in ["os", "arch"] {
        assert!(
            !str_field(name, env, key).is_empty(),
            "{name}: environment.{key} must be non-empty"
        );
    }
    assert_eq!(
        str_field(name, env, "build_profile"),
        "release",
        "{name}: committed artifacts must be measured in release builds"
    );
}

fn points<'a>(name: &str, record: &'a Value, key: &str) -> &'a [Value] {
    let list = field(name, record, key)
        .as_array()
        .unwrap_or_else(|| panic!("{name}: `{key}` must be an array"));
    assert!(!list.is_empty(), "{name}: `{key}` must not be empty");
    list
}

fn series_paths(name: &str, record: &Value, key: &str) -> Vec<String> {
    points(name, record, key)
        .iter()
        .map(|p| str_field(name, p, "path"))
        .collect()
}

#[test]
fn scoring_artifact_records_every_kernel_shape() {
    let name = "BENCH_scoring.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_scoring");
    assert_environment(name, &record);
    let paths = series_paths(name, &record, "points");
    for required in ["scalar", "lane-blocked"] {
        assert!(
            paths.iter().any(|p| p == required),
            "{name} must record the `{required}` kernel shape, got {paths:?}"
        );
    }
    // On one CPU a threaded arm would time `score_batch` a second time.
    let parallelism = field(
        name,
        field(name, &record, "environment"),
        "available_parallelism",
    )
    .as_i128()
    .unwrap_or(1);
    assert_eq!(
        paths.iter().any(|p| p.starts_with("threaded_")),
        parallelism > 1,
        "{name}: a threaded shape is recorded exactly when the host has several CPUs, got {paths:?}"
    );
    for point in points(name, &record, "points") {
        assert!(
            field(name, point, "repetitions")
                .as_i128()
                .is_some_and(|n| n >= 10),
            "{name}: every point needs at least 10 repetitions"
        );
        let value = |key| {
            field(name, point, key)
                .as_f64()
                .filter(|v| *v > 0.0)
                .unwrap_or_else(|| panic!("{name}: every point needs a positive `{key}`"))
        };
        for key in ["cells_per_sec", "speedup_vs_scalar"] {
            value(key);
        }
        let (q1, median, q3) = (value("q1_ns"), value("median_ns"), value("q3_ns"));
        assert!(
            q1 <= median && median <= q3,
            "{name}: quartiles must bracket the median"
        );
    }
}

#[test]
fn serving_artifact_records_every_store_path() {
    let name = "BENCH_serving.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_serving");
    assert_environment(name, &record);
    let paths = series_paths(name, &record, "points");
    for required in ["store-hit", "snapshot-restore"] {
        assert!(
            paths.iter().any(|p| p == required),
            "{name} must record the `{required}` path, got {paths:?}"
        );
    }
    for point in points(name, &record, "points") {
        assert!(
            field(name, point, "sessions_per_sec")
                .as_f64()
                .is_some_and(|v| v > 0.0),
            "{name}: every point needs a positive `sessions_per_sec`"
        );
        field(name, point, "store");
    }
    field(name, &record, "durability");
}

#[test]
fn pkgsearch_artifact_records_the_sweep() {
    let name = "BENCH_pkgsearch.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_pkgsearch");
    assert_environment(name, &record);
    for config in points(name, &record, "configs") {
        for key in [
            "features",
            "phi",
            "reference_ns_per_search",
            "arena_ns_per_search",
        ] {
            assert!(
                field(name, config, key).as_i128().is_some_and(|v| v > 0),
                "{name}: every config needs a positive `{key}`"
            );
        }
    }
}

#[test]
fn server_artifact_records_load_levels() {
    let name = "BENCH_server.json";
    let record = artifact(name);
    assert_eq!(str_field(name, &record, "bench"), "fig_server");
    assert_environment(name, &record);
    for level in points(name, &record, "levels") {
        let report = field(name, level, "report");
        assert_eq!(
            field(name, report, "mismatches").as_i128(),
            Some(0),
            "{name}: recorded levels must have zero shadow mismatches"
        );
        assert!(
            field(name, report, "sessions_per_sec")
                .as_f64()
                .is_some_and(|v| v > 0.0),
            "{name}: every level needs a positive `sessions_per_sec`"
        );
        field(name, level, "store");
    }
}
