//! Typed loading of `BENCH_sweep.json` perf baselines.
//!
//! The perf gate compares a fresh run against a committed baseline file.
//! A missing, truncated, or schema-drifted baseline used to die wherever
//! the scanner happened to trip; here each failure mode is a
//! [`BaselineError`] the caller maps to a usage exit (the baseline is an
//! *input* the user named, so a bad one is a usage error, not a runtime
//! crash).

use std::error::Error;
use std::fmt;

use mpdp_obs::{parse_json, Json};

/// The schema marker every readable baseline must carry.
pub const BASELINE_SCHEMA: &str = "mpdp-bench-sweep/1";

/// Why a perf baseline could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The file could not be read at all.
    Missing {
        /// The path that was named.
        path: String,
        /// The OS diagnosis.
        detail: String,
    },
    /// The file is not well-formed JSON — a truncated write, a merge
    /// conflict, or a non-JSON file named by mistake.
    Invalid {
        /// The path that was named.
        path: String,
        /// The validator's diagnosis.
        detail: String,
    },
    /// The file is valid JSON but not a `mpdp-bench-sweep/1` report (wrong
    /// schema marker, a malformed bench entry, or no entries at all).
    Schema {
        /// The path that was named.
        path: String,
        /// What was wrong with the shape.
        detail: String,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Missing { path, detail } => {
                write!(f, "baseline {path} cannot be read: {detail}")
            }
            BaselineError::Invalid { path, detail } => {
                write!(
                    f,
                    "baseline {path} is not valid JSON ({detail}); truncated write?"
                )
            }
            BaselineError::Schema { path, detail } => {
                write!(f, "baseline {path} is not a usable bench report: {detail}")
            }
        }
    }
}

impl Error for BaselineError {}

/// Extracts `(name, wall_ms)` pairs from a parsed report: its `schema`
/// field must equal `schema`, `benches` must be a non-empty array, and
/// each entry must carry a string `name` and a non-negative numeric
/// `wall_ms`. A malformed entry is a typed error rather than a silently
/// skipped gate.
fn parse_entries(doc: &Json, schema: &str) -> Result<Vec<(String, f64)>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(schema) {
        return Err(format!("missing schema marker \"{schema}\""));
    }
    let benches = doc
        .get("benches")
        .and_then(Json::as_array)
        .filter(|b| !b.is_empty())
        .ok_or("no bench entries")?;
    benches
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bench entry without a string name")?;
            match entry.get("wall_ms").and_then(Json::as_f64) {
                Some(ms) if ms >= 0.0 => Ok((name.to_string(), ms)),
                _ => Err(format!("bench entry {name} without a non-negative wall_ms")),
            }
        })
        .collect()
}

/// Loads a `BENCH_sweep.json` baseline, returning its `(name, wall_ms)`
/// pairs.
///
/// # Errors
///
/// [`BaselineError::Missing`] when the file cannot be read,
/// [`BaselineError::Invalid`] when it is not well-formed JSON (which is
/// what a truncated write looks like), [`BaselineError::Schema`] when it
/// is JSON but not a recognizable bench report.
pub fn load_baseline(path: &str) -> Result<Vec<(String, f64)>, BaselineError> {
    load_baseline_with_schema(path, BASELINE_SCHEMA)
}

/// [`load_baseline`] generalized over the schema marker, so every gate in
/// the repo (`bench_sweep`'s `mpdp-bench-sweep/1`, `exp_serve_load`'s
/// `mpdp-bench-serve/1`) shares one loader and one error taxonomy.
///
/// # Errors
///
/// The same taxonomy as [`load_baseline`], with the schema check applied
/// to `schema` instead of [`BASELINE_SCHEMA`].
pub fn load_baseline_with_schema(
    path: &str,
    schema: &str,
) -> Result<Vec<(String, f64)>, BaselineError> {
    let doc = std::fs::read_to_string(path).map_err(|e| BaselineError::Missing {
        path: path.to_string(),
        detail: e.to_string(),
    })?;
    let doc = parse_json(&doc).map_err(|e| BaselineError::Invalid {
        path: path.to_string(),
        detail: e.to_string(),
    })?;
    parse_entries(&doc, schema).map_err(|detail| BaselineError::Schema {
        path: path.to_string(),
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str, contents: Option<&str>) -> String {
        let path =
            std::env::temp_dir().join(format!("mpdp-baseline-{}-{name}.json", std::process::id()));
        match contents {
            Some(doc) => std::fs::write(&path, doc).expect("write baseline"),
            None => {
                let _ = std::fs::remove_file(&path);
            }
        }
        path.display().to_string()
    }

    const GOOD: &str = "{\n  \"schema\": \"mpdp-bench-sweep/1\",\n  \"benches\": [\n    \
        {\"name\": \"a\", \"cells\": 1, \"workers\": 1, \"wall_ms\": 1.500, \"cells_per_s\": 666.7},\n    \
        {\"name\": \"b\", \"cells\": 104, \"workers\": 8, \"wall_ms\": 20.000, \"cells_per_s\": 5200.0}\n  ]\n}\n";

    #[test]
    fn good_baseline_loads_every_entry() {
        let path = temp("good", Some(GOOD));
        let entries = load_baseline(&path).expect("loads");
        assert_eq!(
            entries,
            vec![("a".to_string(), 1.5), ("b".to_string(), 20.0)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_committed_baseline_loads_in_any_json_layout() {
        let committed = include_str!("../../../BENCH_sweep.json");
        let path = temp("committed", Some(committed));
        let want = load_baseline(&path).expect("committed loads");
        assert_eq!(want.len(), 5);
        let _ = std::fs::remove_file(&path);
        // One key per line, as `jq .` writes it.
        let mut indented = String::new();
        for c in committed.chars() {
            indented.push(c);
            if matches!(c, '{' | ',') {
                indented.push_str("\n    ");
            }
        }
        // And compacted, as `jq -c` writes it.
        let compact: String = committed.chars().filter(|c| !c.is_whitespace()).collect();
        for (tag, doc) in [("indented", indented), ("compact", compact)] {
            let path = temp(tag, Some(&doc));
            assert_eq!(load_baseline(&path), Ok(want.clone()), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_deeply_nested_file_is_invalid_not_a_crash() {
        let path = temp("nested", Some(&"[".repeat(1 << 20)));
        assert!(matches!(
            load_baseline(&path),
            Err(BaselineError::Invalid { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let path = temp("absent", None);
        assert!(matches!(
            load_baseline(&path),
            Err(BaselineError::Missing { .. })
        ));
    }

    #[test]
    fn truncated_json_is_invalid_not_a_panic() {
        // Chop the document mid-entry, as a torn write would.
        let path = temp("torn", Some(&GOOD[..GOOD.len() / 2]));
        assert!(matches!(
            load_baseline(&path),
            Err(BaselineError::Invalid { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_schema_marker_is_rejected() {
        let path = temp(
            "marker",
            Some("{\"schema\": \"other/9\", \"benches\": []}\n"),
        );
        match load_baseline(&path) {
            Err(BaselineError::Schema { detail, .. }) => {
                assert!(detail.contains("schema marker"), "{detail}");
            }
            other => panic!("expected Schema, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_schema_marker_is_parameterizable() {
        let doc = "{\n  \"schema\": \"mpdp-bench-serve/1\",\n  \"benches\": [\n    \
            {\"name\": \"serve_load\", \"wall_ms\": 42.000, \"rps\": 1000.0}\n  ]\n}\n";
        let path = temp("serve-schema", Some(doc));
        let entries =
            load_baseline_with_schema(&path, "mpdp-bench-serve/1").expect("loads serve schema");
        assert_eq!(entries, vec![("serve_load".to_string(), 42.0)]);
        // The sweep-schema loader refuses the serve report, and vice versa.
        assert!(matches!(
            load_baseline(&path),
            Err(BaselineError::Schema { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn entry_without_wall_ms_is_rejected() {
        let doc = "{\n  \"schema\": \"mpdp-bench-sweep/1\",\n  \"benches\": [\n    \
            {\"name\": \"a\", \"cells\": 1}\n  ]\n}\n";
        let path = temp("no-wall", Some(doc));
        match load_baseline(&path) {
            Err(BaselineError::Schema { detail, .. }) => {
                assert!(detail.contains("wall_ms"), "{detail}");
            }
            other => panic!("expected Schema, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_bench_list_is_rejected() {
        let doc = "{\n  \"schema\": \"mpdp-bench-sweep/1\",\n  \"benches\": []\n}\n";
        let path = temp("empty", Some(doc));
        match load_baseline(&path) {
            Err(BaselineError::Schema { detail, .. }) => {
                assert!(detail.contains("no bench entries"), "{detail}");
            }
            other => panic!("expected Schema, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
