//! Typed loading of the committed perf baselines, `BENCH_sweep.json` and
//! `BENCH_serve.json`.
//!
//! The perf gate compares a fresh run against a committed baseline file.
//! A missing, truncated, or schema-drifted baseline used to die wherever
//! the scanner happened to trip; here each failure mode is a
//! [`BaselineError`] the caller maps to a usage exit (the baseline is an
//! *input* the user named, so a bad one is a usage error, not a runtime
//! crash). So is an entry whose name matches the run's but whose size
//! does not: a 200-request wall says nothing against a 600-request one.

use std::error::Error;
use std::fmt;

use mpdp_obs::{parse_json, Json};

/// A bench report schema: its marker and the two fields that give an
/// entry's size. Two walls compare only when both fields agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchSchema {
    /// The `schema` value every report of this kind carries.
    pub marker: &'static str,
    /// The entry fields that say how much work the wall covers.
    pub size_keys: [&'static str; 2],
}

/// `bench_sweep`'s report: entries sized by `cells` and `workers`.
pub const SWEEP_SCHEMA: BenchSchema = BenchSchema {
    marker: "mpdp-bench-sweep/1",
    size_keys: ["cells", "workers"],
};

/// `exp_serve_load`'s report: entries sized by `clients` and the
/// `requests` all clients sent together.
pub const SERVE_SCHEMA: BenchSchema = BenchSchema {
    marker: "mpdp-bench-serve/1",
    size_keys: ["clients", "requests"],
};

/// One bench entry of a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// The bench's name.
    pub name: String,
    /// The values of the schema's `size_keys`, in order.
    pub size: [u64; 2],
    /// The bench's wall clock, ms.
    pub wall_ms: f64,
}

/// A loaded baseline: where it came from, its schema and its entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The path it was loaded from.
    pub path: String,
    /// Its schema.
    pub schema: BenchSchema,
    /// Its entries, in file order.
    pub entries: Vec<BaselineEntry>,
}

/// Why a perf baseline could not be loaded or gated against.
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
    /// The file is valid JSON but not a report of the expected schema
    /// (wrong schema marker, a malformed bench entry, or no entries at
    /// all).
    Schema {
        /// The path that was named.
        path: String,
        /// What was wrong with the shape.
        detail: String,
    },
    /// An entry has the run's bench name but measured a different size.
    Size {
        /// The path that was named.
        path: String,
        /// The bench name.
        name: String,
        /// Both sizes, spelled out.
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
            BaselineError::Size { path, name, detail } => {
                write!(
                    f,
                    "baseline {path} entry `{name}` does not compare with this run: {detail}"
                )
            }
        }
    }
}

impl Error for BaselineError {}

/// A non-negative integer field of a bench entry.
fn count(entry: &Json, key: &str) -> Option<u64> {
    let v = entry.get(key).and_then(Json::as_f64)?;
    // Every integer up to 2^53 is exact in a double.
    (v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64).then_some(v as u64)
}

/// Extracts the entries of a parsed report: its `schema` field must equal
/// the schema's marker, `benches` must be a non-empty array, and each
/// entry must carry a string `name`, both size keys as non-negative
/// integers and a non-negative numeric `wall_ms`. A malformed entry is a
/// typed error rather than a silently skipped gate.
fn parse_entries(doc: &Json, schema: BenchSchema) -> Result<Vec<BaselineEntry>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(schema.marker) {
        return Err(format!("missing schema marker \"{}\"", schema.marker));
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
            let [a, b] = schema.size_keys.map(|key| {
                count(entry, key).ok_or_else(|| {
                    format!("bench entry {name} without a non-negative integer {key}")
                })
            });
            let size = [a?, b?];
            match entry.get("wall_ms").and_then(Json::as_f64) {
                Some(wall_ms) if wall_ms >= 0.0 => Ok(BaselineEntry {
                    name: name.to_string(),
                    size,
                    wall_ms,
                }),
                _ => Err(format!("bench entry {name} without a non-negative wall_ms")),
            }
        })
        .collect()
}

/// Loads a baseline of `schema`: `BENCH_sweep.json` with [`SWEEP_SCHEMA`],
/// `BENCH_serve.json` with [`SERVE_SCHEMA`].
///
/// # Errors
///
/// [`BaselineError::Missing`] when the file cannot be read,
/// [`BaselineError::Invalid`] when it is not well-formed JSON (which is
/// what a truncated write looks like), [`BaselineError::Schema`] when it
/// is JSON but not a recognizable report of `schema`.
pub fn load_baseline(path: &str, schema: BenchSchema) -> Result<Baseline, BaselineError> {
    let doc = std::fs::read_to_string(path).map_err(|e| BaselineError::Missing {
        path: path.to_string(),
        detail: e.to_string(),
    })?;
    let doc = parse_json(&doc).map_err(|e| BaselineError::Invalid {
        path: path.to_string(),
        detail: e.to_string(),
    })?;
    let entries = parse_entries(&doc, schema).map_err(|detail| BaselineError::Schema {
        path: path.to_string(),
        detail,
    })?;
    Ok(Baseline {
        path: path.to_string(),
        schema,
        entries,
    })
}

impl Baseline {
    /// The wall of the entry named `name`, to gate a run of that bench
    /// against; `Ok(None)` when the baseline has no such entry.
    ///
    /// # Errors
    ///
    /// [`BaselineError::Size`] when the entry measured another `size`
    /// than the run.
    pub fn wall_ms(&self, name: &str, size: [u64; 2]) -> Result<Option<f64>, BaselineError> {
        let Some(entry) = self.entries.iter().find(|e| e.name == name) else {
            return Ok(None);
        };
        if entry.size != size {
            let spell = |[a, b]: [u64; 2]| {
                let [ka, kb] = self.schema.size_keys;
                format!("{ka} {a}, {kb} {b}")
            };
            return Err(BaselineError::Size {
                path: self.path.clone(),
                name: name.to_string(),
                detail: format!(
                    "it measured {}, this run {}",
                    spell(entry.size),
                    spell(size)
                ),
            });
        }
        Ok(Some(entry.wall_ms))
    }
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

    fn entry(name: &str, size: [u64; 2], wall_ms: f64) -> BaselineEntry {
        BaselineEntry {
            name: name.to_string(),
            size,
            wall_ms,
        }
    }

    #[test]
    fn good_baseline_loads_every_entry() {
        let path = temp("good", Some(GOOD));
        let baseline = load_baseline(&path, SWEEP_SCHEMA).expect("loads");
        assert_eq!(
            baseline.entries,
            vec![entry("a", [1, 1], 1.5), entry("b", [104, 8], 20.0)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_committed_baseline_loads_in_any_json_layout() {
        let committed = include_str!("../../../BENCH_sweep.json");
        let path = temp("committed", Some(committed));
        let want = load_baseline(&path, SWEEP_SCHEMA).expect("committed loads");
        assert_eq!(want.entries.len(), 5);
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
            let got = load_baseline(&path, SWEEP_SCHEMA).map(|b| b.entries);
            assert_eq!(got, Ok(want.entries.clone()), "{tag}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_deeply_nested_file_is_invalid_not_a_crash() {
        let path = temp("nested", Some(&"[".repeat(1 << 20)));
        assert!(matches!(
            load_baseline(&path, SWEEP_SCHEMA),
            Err(BaselineError::Invalid { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let path = temp("absent", None);
        assert!(matches!(
            load_baseline(&path, SWEEP_SCHEMA),
            Err(BaselineError::Missing { .. })
        ));
    }

    #[test]
    fn truncated_json_is_invalid_not_a_panic() {
        // Chop the document mid-entry, as a torn write would.
        let path = temp("torn", Some(&GOOD[..GOOD.len() / 2]));
        assert!(matches!(
            load_baseline(&path, SWEEP_SCHEMA),
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
        match load_baseline(&path, SWEEP_SCHEMA) {
            Err(BaselineError::Schema { detail, .. }) => {
                assert!(detail.contains("schema marker"), "{detail}");
            }
            other => panic!("expected Schema, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_schema_marker_is_parameterizable() {
        let path = temp(
            "serve-schema",
            Some(include_str!("../../../BENCH_serve.json")),
        );
        let baseline = load_baseline(&path, SERVE_SCHEMA).expect("committed serve loads");
        assert_eq!(baseline.entries.len(), 1);
        assert_eq!(baseline.entries[0].name, "serve_load_c4");
        assert_eq!(baseline.entries[0].size, [4, 600]);
        // Each loader refuses the other schema's report.
        assert!(matches!(
            load_baseline(&path, SWEEP_SCHEMA),
            Err(BaselineError::Schema { .. })
        ));
        let _ = std::fs::remove_file(&path);
        let path = temp("sweep-as-serve", Some(GOOD));
        assert!(matches!(
            load_baseline(&path, SERVE_SCHEMA),
            Err(BaselineError::Schema { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_entry_without_its_size_is_rejected() {
        for (tag, fields) in [
            ("no-workers", "\"cells\": 104"),
            ("fractional", "\"cells\": 104, \"workers\": 1.5"),
            ("negative", "\"cells\": -1, \"workers\": 1"),
            ("string", "\"cells\": \"104\", \"workers\": 1"),
        ] {
            let doc = format!(
                "{{\"schema\": \"mpdp-bench-sweep/1\", \"benches\": [\
                 {{\"name\": \"a\", {fields}, \"wall_ms\": 1.0}}]}}"
            );
            let path = temp(tag, Some(&doc));
            match load_baseline(&path, SWEEP_SCHEMA) {
                Err(BaselineError::Schema { detail, .. }) => {
                    assert!(detail.contains("non-negative integer"), "{tag}: {detail}");
                }
                other => panic!("{tag}: expected Schema, got {other:?}"),
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_same_named_entry_of_another_size_is_refused() {
        let baseline = Baseline {
            path: "BENCH_serve.json".to_string(),
            schema: SERVE_SCHEMA,
            entries: vec![entry("serve_load_c4", [4, 600], 23.6)],
        };
        assert_eq!(baseline.wall_ms("serve_load_c4", [4, 600]), Ok(Some(23.6)));
        assert_eq!(baseline.wall_ms("serve_load_c8", [8, 1200]), Ok(None));
        // `exp_serve_load --quick`: 4 clients of 50 requests each.
        match baseline.wall_ms("serve_load_c4", [4, 200]) {
            Err(e @ BaselineError::Size { .. }) => {
                assert_eq!(
                    e.to_string(),
                    "baseline BENCH_serve.json entry `serve_load_c4` does not compare with \
                     this run: it measured clients 4, requests 600, this run clients 4, \
                     requests 200"
                );
            }
            other => panic!("expected Size, got {other:?}"),
        }
        let sweep = Baseline {
            path: "BENCH_sweep.json".to_string(),
            schema: SWEEP_SCHEMA,
            entries: vec![entry("grid104_workers8", [104, 8], 42.8)],
        };
        assert!(matches!(
            sweep.wall_ms("grid104_workers8", [104, 2]),
            Err(BaselineError::Size { .. })
        ));
    }

    #[test]
    fn entry_without_wall_ms_is_rejected() {
        let doc = "{\n  \"schema\": \"mpdp-bench-sweep/1\",\n  \"benches\": [\n    \
            {\"name\": \"a\", \"cells\": 1, \"workers\": 1}\n  ]\n}\n";
        let path = temp("no-wall", Some(doc));
        match load_baseline(&path, SWEEP_SCHEMA) {
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
        match load_baseline(&path, SWEEP_SCHEMA) {
            Err(BaselineError::Schema { detail, .. }) => {
                assert!(detail.contains("no bench entries"), "{detail}");
            }
            other => panic!("expected Schema, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
