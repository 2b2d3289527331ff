//! Snapshot exporters: Prometheus text exposition and schema-stamped
//! JSON/CSV, all hand-rolled (the workspace has no serde) and all
//! byte-deterministic for a given snapshot.
//!
//! The JSON export carries `"schema": "mpdp-fleet-metrics/1"` and is
//! checked by [`validate_metrics_json`], which reads it with
//! [`mpdp_obs::parse_json`] and checks its structure, so CI can prove the
//! export parses rather than merely exists.

use std::fmt::Write as _;

use mpdp_obs::{parse_json, Json};

use crate::metrics::{FleetSnapshot, Histogram, LATENCY_BOUNDS_US};

/// Schema tag of the JSON snapshot export.
pub const METRICS_SCHEMA: &str = "mpdp-fleet-metrics/1";

fn quantile_json(hist: &Histogram, q: f64) -> String {
    match hist.quantile_us(q) {
        Some(us) => us.to_string(),
        None => "null".to_string(),
    }
}

fn opt_json(value: Option<u64>) -> String {
    match value {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

fn histogram_json(out: &mut String, name: &str, hist: &Histogram) {
    let _ = write!(
        out,
        "    \"{name}\": {{\"count\": {}, \"sum_us\": {}, \"min_us\": {}, \"max_us\": {}, \
         \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"buckets\": [",
        hist.count(),
        hist.sum_us(),
        opt_json(hist.min_us()),
        opt_json(hist.max_us()),
        quantile_json(hist, 0.50),
        quantile_json(hist, 0.95),
        quantile_json(hist, 0.99),
    );
    for (bucket, count) in hist.bucket_counts().iter().enumerate() {
        if bucket > 0 {
            out.push_str(", ");
        }
        match LATENCY_BOUNDS_US.get(bucket) {
            Some(bound) => {
                let _ = write!(out, "{{\"le_us\": {bound}, \"count\": {count}}}");
            }
            None => {
                let _ = write!(out, "{{\"le_us\": null, \"count\": {count}}}");
            }
        }
    }
    out.push_str("]}");
}

/// Renders the snapshot as the `mpdp-fleet-metrics/1` JSON document.
/// Deterministic for a given snapshot; always passes
/// [`validate_metrics_json`].
pub fn metrics_json(snapshot: &FleetSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
    out.push_str("  \"counters\": {\n");
    let counters = snapshot.counters();
    for (i, (name, value)) in counters.iter().enumerate() {
        let comma = if i + 1 < counters.len() { "," } else { "" };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    out.push_str("  },\n");
    out.push_str("  \"histograms\": {\n");
    let histograms = snapshot.histograms();
    for (i, (name, hist)) in histograms.iter().enumerate() {
        histogram_json(&mut out, name, hist);
        if i + 1 < histograms.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  },\n");
    out.push_str("  \"shards\": [\n");
    for (i, s) in snapshot.shards.iter().enumerate() {
        let comma = if i + 1 < snapshot.shards.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {{\"shard\": {}, \"launches\": {}, \"relaunches\": {}, \"retries\": {}, \
             \"chaos_kills\": {}, \"journaled\": {}, \"done\": {}}}{comma}",
            s.shard, s.launches, s.relaunches, s.retries, s.chaos_kills, s.journaled, s.done
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Checks that `input` is a JSON document carrying the
/// `mpdp-fleet-metrics/1` schema tag, `counters` and `histograms` objects
/// and a `shards` array, with the required counters present in
/// `counters`.
///
/// # Errors
///
/// A human-readable diagnosis of the first problem found.
pub fn validate_metrics_json(input: &str) -> Result<(), String> {
    let doc = parse_json(input).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(Json::as_str) != Some(METRICS_SCHEMA) {
        return Err(format!("missing schema tag {METRICS_SCHEMA:?}"));
    }
    let section = |key: &str| {
        doc.get(key)
            .ok_or(format!("missing required section {key:?}"))
    };
    let counters = section("counters")?
        .as_object()
        .ok_or("section \"counters\" is not an object")?;
    section("histograms")?
        .as_object()
        .ok_or("section \"histograms\" is not an object")?;
    section("shards")?
        .as_array()
        .ok_or("section \"shards\" is not an array")?;
    for counter in ["launches", "chaos_kills", "retries"] {
        if counters.get(counter).and_then(Json::as_f64).is_none() {
            return Err(format!("missing required counter {counter:?}"));
        }
    }
    Ok(())
}

/// Renders the snapshot as a flat `kind,name,value` CSV (counters,
/// histogram fields with dotted names, per-shard stats). Deterministic.
pub fn metrics_csv(snapshot: &FleetSnapshot) -> String {
    let mut out = String::from("kind,name,value\n");
    for (name, value) in snapshot.counters() {
        let _ = writeln!(out, "counter,{name},{value}");
    }
    for (name, hist) in snapshot.histograms() {
        let _ = writeln!(out, "hist,{name}.count,{}", hist.count());
        let _ = writeln!(out, "hist,{name}.sum_us,{}", hist.sum_us());
        let _ = writeln!(out, "hist,{name}.min_us,{}", hist.min_us().unwrap_or(0));
        let _ = writeln!(out, "hist,{name}.max_us,{}", hist.max_us().unwrap_or(0));
        let _ = writeln!(
            out,
            "hist,{name}.p50_us,{}",
            hist.quantile_us(0.50).unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "hist,{name}.p95_us,{}",
            hist.quantile_us(0.95).unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "hist,{name}.p99_us,{}",
            hist.quantile_us(0.99).unwrap_or(0)
        );
        for (bucket, count) in hist.bucket_counts().iter().enumerate() {
            match LATENCY_BOUNDS_US.get(bucket) {
                Some(bound) => {
                    let _ = writeln!(out, "hist,{name}.le_{bound},{count}");
                }
                None => {
                    let _ = writeln!(out, "hist,{name}.le_inf,{count}");
                }
            }
        }
    }
    for s in &snapshot.shards {
        let _ = writeln!(out, "shard,{}.launches,{}", s.shard, s.launches);
        let _ = writeln!(out, "shard,{}.relaunches,{}", s.shard, s.relaunches);
        let _ = writeln!(out, "shard,{}.retries,{}", s.shard, s.retries);
        let _ = writeln!(out, "shard,{}.chaos_kills,{}", s.shard, s.chaos_kills);
        let _ = writeln!(out, "shard,{}.journaled,{}", s.shard, s.journaled);
        let _ = writeln!(out, "shard,{}.done,{}", s.shard, u64::from(s.done));
    }
    out
}

/// Renders the snapshot in the Prometheus text exposition format:
/// every scalar as `mpdp_fleet_<name>_total`, per-shard gauges with a
/// `shard` label, and each histogram with cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`.
pub fn prometheus_text(snapshot: &FleetSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in snapshot.counters() {
        let _ = writeln!(out, "# TYPE mpdp_fleet_{name}_total counter");
        let _ = writeln!(out, "mpdp_fleet_{name}_total {value}");
    }
    if !snapshot.shards.is_empty() {
        let _ = writeln!(out, "# TYPE mpdp_fleet_shard_launches_total counter");
        for s in &snapshot.shards {
            let _ = writeln!(
                out,
                "mpdp_fleet_shard_launches_total{{shard=\"{}\"}} {}",
                s.shard, s.launches
            );
        }
        let _ = writeln!(out, "# TYPE mpdp_fleet_shard_journaled_cells gauge");
        for s in &snapshot.shards {
            let _ = writeln!(
                out,
                "mpdp_fleet_shard_journaled_cells{{shard=\"{}\"}} {}",
                s.shard, s.journaled
            );
        }
    }
    for (name, hist) in snapshot.histograms() {
        let _ = writeln!(out, "# TYPE mpdp_fleet_{name} histogram");
        prometheus_histogram(&mut out, &format!("mpdp_fleet_{name}"), "", hist);
    }
    out
}

/// Appends one histogram's Prometheus series: cumulative
/// `<family>_bucket{<label>,le="..."}` lines, then `<family>_sum` and
/// `<family>_count`. `label` is one `key="value"` pair, or empty.
pub(crate) fn prometheus_histogram(out: &mut String, family: &str, label: &str, hist: &Histogram) {
    let (bucket_label, series_labels) = if label.is_empty() {
        (String::new(), String::new())
    } else {
        (format!("{label},"), format!("{{{label}}}"))
    };
    let mut cumulative = 0u64;
    for (bucket, count) in hist.bucket_counts().iter().enumerate() {
        cumulative += count;
        let _ = match LATENCY_BOUNDS_US.get(bucket) {
            Some(bound) => writeln!(
                out,
                "{family}_bucket{{{bucket_label}le=\"{bound}\"}} {cumulative}"
            ),
            None => writeln!(
                out,
                "{family}_bucket{{{bucket_label}le=\"+Inf\"}} {cumulative}"
            ),
        };
    }
    let _ = writeln!(out, "{family}_sum{series_labels} {}", hist.sum_us());
    let _ = writeln!(out, "{family}_count{series_labels} {}", hist.count());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FleetEvent, FleetEventKind};
    use std::time::Duration;

    fn sample() -> FleetSnapshot {
        let mut s = FleetSnapshot::default();
        let events = [
            FleetEvent {
                at: Duration::ZERO,
                shard: Some(0),
                kind: FleetEventKind::ShardLaunched {
                    pid: 11,
                    launch: 1,
                    cells_start: 0,
                    cells_end: 5,
                },
            },
            FleetEvent {
                at: Duration::from_millis(1),
                shard: Some(0),
                kind: FleetEventKind::Heartbeat { journaled: 2 },
            },
            FleetEvent {
                at: Duration::from_millis(1),
                shard: Some(0),
                kind: FleetEventKind::ChaosKill {
                    journaled: 2,
                    threshold: 2,
                },
            },
            FleetEvent {
                at: Duration::from_millis(3),
                shard: Some(0),
                kind: FleetEventKind::CellDone {
                    cell: 0,
                    wall: Duration::from_micros(900),
                    attempts: 0,
                },
            },
        ];
        for e in &events {
            s.apply(e);
        }
        s
    }

    #[test]
    fn json_export_is_valid_and_schema_stamped() {
        let json = metrics_json(&sample());
        validate_metrics_json(&json).expect("export validates");
        assert!(json.contains("\"launches\": 1"));
        assert!(json.contains("\"chaos_kills\": 1"));
        assert!(json.contains("\"le_us\": null"));
    }

    #[test]
    fn empty_snapshot_exports_validate_too() {
        let empty = FleetSnapshot::default();
        validate_metrics_json(&metrics_json(&empty)).expect("empty export validates");
        assert!(metrics_csv(&empty).contains("counter,launches,0"));
        assert!(prometheus_text(&empty).contains("mpdp_fleet_launches_total 0"));
    }

    #[test]
    fn validator_rejects_missing_schema_or_bad_json() {
        assert!(validate_metrics_json("{").is_err());
        assert!(validate_metrics_json("{}").is_err(), "no schema tag");
    }

    #[test]
    fn validator_checks_structure_not_substrings() {
        // Every required counter name occurs in the shard entry, but the
        // counters section itself is empty.
        let doc = r#"{"schema": "mpdp-fleet-metrics/1", "counters": {}, "histograms": {}, "shards": [{"shard": 0, "launches": 1, "relaunches": 0, "retries": 0, "chaos_kills": 0, "journaled": 0, "done": true}]}"#;
        let err = validate_metrics_json(doc).expect_err("empty counters");
        assert!(err.contains("launches"), "{err}");
        // Any layout of a valid document validates.
        let compact: String = metrics_json(&sample())
            .lines()
            .map(str::trim)
            .collect::<Vec<_>>()
            .join("");
        validate_metrics_json(&compact).expect("compacted export validates");
        let shards_object = r#"{"schema": "mpdp-fleet-metrics/1", "counters": {"launches": 1, "chaos_kills": 0, "retries": 0}, "histograms": {}, "shards": {}}"#;
        let err = validate_metrics_json(shards_object).expect_err("shards must be an array");
        assert!(err.contains("shards"), "{err}");
    }

    #[test]
    fn prometheus_text_matches_the_pinned_rendering() {
        assert_eq!(
            prometheus_text(&sample()),
            include_str!("../tests/golden/fleet_prometheus.txt")
        );
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let text = prometheus_text(&sample());
        // The 900 µs sample lands in le="1000"; every later bound must
        // report the cumulative 1, ending at +Inf.
        assert!(text.contains("mpdp_fleet_cell_wall_us_bucket{le=\"500\"} 0"));
        assert!(text.contains("mpdp_fleet_cell_wall_us_bucket{le=\"1000\"} 1"));
        assert!(text.contains("mpdp_fleet_cell_wall_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mpdp_fleet_cell_wall_us_count 1"));
        assert!(text.contains("mpdp_fleet_shard_journaled_cells{shard=\"0\"} 2"));
    }

    #[test]
    fn csv_export_flattens_counters_histograms_and_shards() {
        let csv = metrics_csv(&sample());
        assert!(csv.starts_with("kind,name,value\n"));
        assert!(csv.contains("counter,chaos_kills,1"));
        assert!(csv.contains("hist,cell_wall_us.count,1"));
        assert!(csv.contains("hist,cell_wall_us.le_1000,1"));
        assert!(csv.contains("hist,cell_wall_us.le_inf,0"));
        assert!(csv.contains("shard,0.chaos_kills,1"));
    }

    #[test]
    fn exports_are_deterministic() {
        let s = sample();
        assert_eq!(metrics_json(&s), metrics_json(&s));
        assert_eq!(metrics_csv(&s), metrics_csv(&s));
        assert_eq!(prometheus_text(&s), prometheus_text(&s));
    }
}
