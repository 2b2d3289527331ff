//! Sweep aggregation and machine-readable export.
//!
//! Cells are folded into group aggregates — one group per `(knob,
//! processor count, utilization)` — by merging the cells' response
//! accumulators **in cell-index order**, so the aggregate (and every byte
//! of the exports) is independent of the worker count that produced the
//! report. Wall-clock metadata never appears in an export.

//! When a sweep injects faults (or enforces degradation), every export
//! grows a survivability block — miss counts, first-miss time, recovery
//! latency, guaranteed-task fraction — gated on
//! [`SweepReport::faulted`] so fault-free sweeps stay byte-identical to
//! builds that predate the fault subsystem.

use std::fmt::Write as _;

use mpdp_core::time::Cycles;
use mpdp_sim::stats::{ResponseAccumulator, SurvivalStats};

use crate::engine::{CellResult, SweepReport};

/// Quantiles of the aggregate percentile curve, in export order.
pub const CURVE_QS: [f64; 6] = [0.25, 0.50, 0.75, 0.90, 0.95, 0.99];

/// Aggregate over every seed of one `(knob, n_procs, utilization)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// Knob label.
    pub knob_label: String,
    /// Processor count.
    pub n_procs: usize,
    /// Target utilization.
    pub utilization: f64,
    /// Cells merged into this group.
    pub cells: usize,
    /// Cells the offline analysis rejected.
    pub unschedulable: usize,
    /// Merged aperiodic responses, theoretical stack.
    pub theoretical: ResponseAccumulator,
    /// Merged aperiodic responses, prototype stack.
    pub real: ResponseAccumulator,
    /// Merged periodic completions (miss bookkeeping), prototype stack.
    pub periodic: ResponseAccumulator,
    /// Merged survivability bookkeeping, prototype stack (all-zero in
    /// fault-free sweeps; exported only when the report is faulted).
    pub survival: SurvivalStats,
}

impl GroupSummary {
    /// Prototype mean over theoretical mean as a slowdown percentage,
    /// `None` when either stack has no aperiodic completions.
    pub fn slowdown_pct(&self) -> Option<f64> {
        let theo = self.theoretical.finalize()?.mean_s;
        let real = self.real.finalize()?.mean_s;
        Some(100.0 * (real / theo - 1.0))
    }
}

/// Folds the report's cells into group aggregates, in first-appearance
/// (cell-index) order.
pub fn group_summaries(report: &SweepReport) -> Vec<GroupSummary> {
    let mut groups: Vec<GroupSummary> = Vec::new();
    for cell in &report.cells {
        fold_into_groups(&mut groups, cell);
    }
    groups
}

/// Merges one cell into the running group aggregates.
fn fold_into_groups(groups: &mut Vec<GroupSummary>, cell: &CellResult) {
    let key = (
        cell.knob_label.as_str(),
        cell.cell.n_procs,
        cell.cell.utilization,
    );
    let at = match groups
        .iter()
        .position(|g| (g.knob_label.as_str(), g.n_procs, g.utilization) == key)
    {
        Some(p) => p,
        None => {
            groups.push(GroupSummary {
                knob_label: cell.knob_label.clone(),
                n_procs: cell.cell.n_procs,
                utilization: cell.cell.utilization,
                cells: 0,
                unschedulable: 0,
                theoretical: ResponseAccumulator::new(),
                real: ResponseAccumulator::new(),
                periodic: ResponseAccumulator::new(),
                survival: SurvivalStats::default(),
            });
            groups.len() - 1
        }
    };
    let group = &mut groups[at];
    group.cells += 1;
    if !cell.schedulable {
        group.unschedulable += 1;
    }
    group.theoretical.merge(&cell.theoretical.aperiodic);
    group.real.merge(&cell.real.aperiodic);
    group.periodic.merge(&cell.real.periodic);
    group.survival.merge(&cell.real.survival);
}

fn fmt_opt(value: Option<f64>) -> String {
    value.map(|v| format!("{v:.6}")).unwrap_or_default()
}

fn fmt_opt_secs(value: Option<Cycles>) -> String {
    value
        .map(|c| format!("{:.6}", c.as_secs_f64()))
        .unwrap_or_default()
}

/// Survivability column names under `prefix` (`theo`/`real`/`group`),
/// comma-joined with a leading comma.
fn survival_header(prefix: &str) -> String {
    [
        "miss_events",
        "first_miss_s",
        "overruns",
        "kills",
        "demotions",
        "shed",
        "lost_irqs",
        "spurious_irqs",
        "failed_proc",
        "recovery_s",
        "guaranteed",
    ]
    .iter()
    .fold(String::new(), |mut acc, col| {
        let _ = write!(acc, ",{prefix}_{col}");
        acc
    })
}

fn csv_survival(out: &mut String, s: &SurvivalStats) {
    let _ = write!(
        out,
        ",{},{},{},{},{},{},{},{},{},{},{:.6}",
        s.miss_events,
        fmt_opt_secs(s.first_miss),
        s.overruns,
        s.kills,
        s.demotions,
        s.shed,
        s.lost_irqs,
        s.spurious_irqs,
        s.failed_proc.map(|p| p.to_string()).unwrap_or_default(),
        fmt_opt_secs(s.recovery_latency()),
        s.guaranteed_fraction(),
    );
}

fn json_survival(out: &mut String, s: &SurvivalStats) {
    let _ = write!(out, "{{\"miss_events\":{},\"first_miss_s\":", s.miss_events);
    json_opt_secs(out, s.first_miss);
    let _ = write!(
        out,
        ",\"overruns\":{},\"kills\":{},\"demotions\":{},\"shed\":{},\"lost_irqs\":{},\"spurious_irqs\":{},\"failed_proc\":",
        s.overruns, s.kills, s.demotions, s.shed, s.lost_irqs, s.spurious_irqs
    );
    match s.failed_proc {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"recovery_s\":");
    json_opt_secs(out, s.recovery_latency());
    let _ = write!(out, ",\"guaranteed\":{:.6}}}", s.guaranteed_fraction());
}

fn json_opt_secs(out: &mut String, value: Option<Cycles>) {
    match value {
        Some(c) => {
            let _ = write!(out, "{:.6}", c.as_secs_f64());
        }
        None => out.push_str("null"),
    }
}

fn csv_stack(out: &mut String, acc: &ResponseAccumulator) {
    match acc.finalize() {
        Some(s) => {
            let _ = write!(
                out,
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                s.count, s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.p999_s, s.max_s
            );
        }
        None => out.push_str("0,,,,,,"),
    }
}

/// One CSV row per cell, in cell-index order.
///
/// Columns: `cell,knob,n_procs,utilization,seed,schedulable,` then
/// `{theo,real}_{jobs,mean_s,p50_s,p95_s,p99_s,p999_s,max_s}`, then
/// `slowdown_pct,periodic_misses,miss_ratio,theo_switches,real_switches,sched_passes,context_words`.
pub fn cells_csv(report: &SweepReport) -> String {
    let mut out = cells_csv_header(report.faulted);
    for c in &report.cells {
        csv_cell_row(&mut out, c, report.faulted);
    }
    out
}

/// The `cells.csv` header line (with trailing newline).
fn cells_csv_header(faulted: bool) -> String {
    let mut out = String::from(
        "cell,knob,n_procs,utilization,seed,schedulable,\
         theo_jobs,theo_mean_s,theo_p50_s,theo_p95_s,theo_p99_s,theo_p999_s,theo_max_s,\
         real_jobs,real_mean_s,real_p50_s,real_p95_s,real_p99_s,real_p999_s,real_max_s,\
         slowdown_pct,periodic_misses,miss_ratio,\
         theo_switches,real_switches,sched_passes,context_words",
    );
    if faulted {
        out.push_str(&survival_header("theo"));
        out.push_str(&survival_header("real"));
    }
    out.push('\n');
    out
}

/// One `cells.csv` row (with trailing newline).
fn csv_cell_row(out: &mut String, c: &CellResult, faulted: bool) {
    let _ = write!(
        out,
        "{},{},{},{:.4},{},{},",
        c.cell.index, c.knob_label, c.cell.n_procs, c.cell.utilization, c.cell.seed, c.schedulable
    );
    csv_stack(out, &c.theoretical.aperiodic);
    out.push(',');
    csv_stack(out, &c.real.aperiodic);
    let _ = write!(
        out,
        ",{},{},{:.6},{},{},{},{}",
        fmt_opt(c.slowdown_pct()),
        c.real.periodic.misses(),
        c.real.periodic.miss_ratio(),
        c.theoretical.switches,
        c.real.switches,
        c.real.sched_passes,
        c.real.context_words
    );
    if faulted {
        csv_survival(out, &c.theoretical.survival);
        csv_survival(out, &c.real.survival);
    }
    out.push('\n');
}

/// One CSV row per group aggregate, with the percentile curve of the
/// prototype stack's aperiodic responses.
pub fn summary_csv(report: &SweepReport) -> String {
    summary_csv_from(&group_summaries(report), report.faulted)
}

/// Renders `summary.csv` from already-folded group aggregates.
fn summary_csv_from(groups: &[GroupSummary], faulted: bool) -> String {
    let mut out = String::from(
        "knob,n_procs,utilization,cells,unschedulable,\
         theo_jobs,theo_mean_s,theo_p50_s,theo_p95_s,theo_p99_s,theo_p999_s,theo_max_s,\
         real_jobs,real_mean_s,real_p50_s,real_p95_s,real_p99_s,real_p999_s,real_max_s,\
         slowdown_pct,periodic_misses,miss_ratio,\
         real_p25_s,real_p50c_s,real_p75_s,real_p90_s,real_p95c_s,real_p99_s",
    );
    if faulted {
        out.push_str(&survival_header("real"));
    }
    out.push('\n');
    for g in groups {
        let _ = write!(
            out,
            "{},{},{:.4},{},{},",
            g.knob_label, g.n_procs, g.utilization, g.cells, g.unschedulable
        );
        csv_stack(&mut out, &g.theoretical);
        out.push(',');
        csv_stack(&mut out, &g.real);
        let _ = write!(
            out,
            ",{},{},{:.6}",
            fmt_opt(g.slowdown_pct()),
            g.periodic.misses(),
            g.periodic.miss_ratio()
        );
        match g.real.percentiles(&CURVE_QS) {
            Some(curve) => {
                for v in curve {
                    let _ = write!(out, ",{v:.6}");
                }
            }
            None => out.push_str(",,,,,,"),
        }
        if faulted {
            csv_survival(&mut out, &g.survival);
        }
        out.push('\n');
    }
    out
}

fn json_stack(out: &mut String, acc: &ResponseAccumulator) {
    match acc.finalize() {
        Some(s) => {
            let _ = write!(
                out,
                "{{\"jobs\":{},\"mean_s\":{:.6},\"p50_s\":{:.6},\"p95_s\":{:.6},\"p99_s\":{:.6},\"p999_s\":{:.6},\"max_s\":{:.6}}}",
                s.count, s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.p999_s, s.max_s
            );
        }
        None => out.push_str("null"),
    }
}

fn json_opt(out: &mut String, value: Option<f64>) {
    match value {
        Some(v) => {
            let _ = write!(out, "{v:.6}");
        }
        None => out.push_str("null"),
    }
}

/// The whole report as one JSON document with a stable key order: a
/// `cells` array in cell-index order and a `groups` array of aggregates
/// (with the prototype percentile curve). Byte-identical across worker
/// counts; contains no timing metadata.
pub fn report_json(report: &SweepReport) -> String {
    let mut out = String::from("{\"cells\":[");
    for (i, c) in report.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_cell_fragment(&mut out, c, report.faulted);
    }
    json_groups_tail(&mut out, &group_summaries(report), report.faulted);
    out
}

/// One cell object of the JSON `cells` array (no separating comma).
fn json_cell_fragment(out: &mut String, c: &CellResult, faulted: bool) {
    let _ = write!(
        out,
        "{{\"cell\":{},\"knob\":\"{}\",\"n_procs\":{},\"utilization\":{:.4},\"seed\":{},\"schedulable\":{},\"theoretical\":",
        c.cell.index, c.knob_label, c.cell.n_procs, c.cell.utilization, c.cell.seed, c.schedulable
    );
    json_stack(out, &c.theoretical.aperiodic);
    out.push_str(",\"real\":");
    json_stack(out, &c.real.aperiodic);
    out.push_str(",\"slowdown_pct\":");
    json_opt(out, c.slowdown_pct());
    let _ = write!(
        out,
        ",\"periodic_misses\":{},\"miss_ratio\":{:.6},\"theo_switches\":{},\"real_switches\":{},\"sched_passes\":{},\"context_words\":{}",
        c.real.periodic.misses(),
        c.real.periodic.miss_ratio(),
        c.theoretical.switches,
        c.real.switches,
        c.real.sched_passes,
        c.real.context_words
    );
    if faulted {
        out.push_str(",\"survival\":{\"theoretical\":");
        json_survival(out, &c.theoretical.survival);
        out.push_str(",\"real\":");
        json_survival(out, &c.real.survival);
        out.push('}');
    }
    out.push('}');
}

/// Closes the `cells` array and renders the `groups` array plus the
/// document's closing brace.
fn json_groups_tail(out: &mut String, groups: &[GroupSummary], faulted: bool) {
    out.push_str("],\"groups\":[");
    for (i, g) in groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"knob\":\"{}\",\"n_procs\":{},\"utilization\":{:.4},\"cells\":{},\"unschedulable\":{},\"theoretical\":",
            g.knob_label, g.n_procs, g.utilization, g.cells, g.unschedulable
        );
        json_stack(out, &g.theoretical);
        out.push_str(",\"real\":");
        json_stack(out, &g.real);
        out.push_str(",\"slowdown_pct\":");
        json_opt(out, g.slowdown_pct());
        let _ = write!(
            out,
            ",\"periodic_misses\":{},\"miss_ratio\":{:.6},\"curve\":",
            g.periodic.misses(),
            g.periodic.miss_ratio()
        );
        match g.real.percentiles(&CURVE_QS) {
            Some(curve) => {
                out.push('[');
                for (j, v) in curve.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v:.6}");
                }
                out.push(']');
            }
            None => out.push_str("null"),
        }
        if faulted {
            out.push_str(",\"survival\":");
            json_survival(out, &g.survival);
        }
        out.push('}');
    }
    out.push_str("]}");
}

/// Convenience: find one cell by grid coordinates (first match in index
/// order).
pub fn find_cell(report: &SweepReport, n_procs: usize, utilization: f64) -> Option<&CellResult> {
    report
        .cells
        .iter()
        .find(|c| c.cell.n_procs == n_procs && (c.cell.utilization - utilization).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StackResult;
    use crate::spec::CellSpec;
    use mpdp_core::time::Cycles;
    use std::time::Duration;

    fn acc(samples: &[u64]) -> ResponseAccumulator {
        let mut a = ResponseAccumulator::new();
        for &s in samples {
            a.observe(Cycles::new(s));
        }
        a
    }

    fn cell(index: usize, seed: u64, theo: &[u64], real: &[u64]) -> CellResult {
        CellResult {
            cell: CellSpec {
                index,
                knob_index: 0,
                n_procs: 2,
                utilization: 0.4,
                seed,
            },
            knob_label: "paper".into(),
            schedulable: true,
            theoretical: StackResult {
                aperiodic: acc(theo),
                ..StackResult::default()
            },
            real: StackResult {
                aperiodic: acc(real),
                ..StackResult::default()
            },
        }
    }

    fn report(cells: Vec<CellResult>) -> SweepReport {
        SweepReport {
            cells,
            faulted: false,
            workers: 1,
            wall: Duration::ZERO,
            profiles: Vec::new(),
        }
    }

    #[test]
    fn groups_merge_seeds_in_index_order() {
        let r = report(vec![cell(0, 0, &[100], &[150]), cell(1, 1, &[200], &[250])]);
        let groups = group_summaries(&r);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.cells, 2);
        assert_eq!(g.theoretical.len(), 2);
        let stats = g.real.finalize().expect("samples");
        assert_eq!(stats.count, 2);
        assert!((stats.mean_s - 200.0 / 5e7).abs() < 1e-12);
    }

    #[test]
    fn exports_are_stable_and_header_shaped() {
        let r = report(vec![cell(0, 0, &[100, 200], &[150, 300])]);
        let csv = cells_csv(&r);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("cell,knob,n_procs,utilization,seed,schedulable,"));
        // Tail-latency columns ride along in every export flavor.
        assert!(csv.lines().next().expect("header").contains("real_p99_s"));
        assert!(csv.lines().next().expect("header").contains("real_p999_s"));
        assert!(report_json(&r).contains("\"p999_s\":"));
        assert!(csv
            .lines()
            .nth(1)
            .expect("row")
            .starts_with("0,paper,2,0.4000,0,true,2,"));
        let sum = summary_csv(&r);
        assert_eq!(sum.lines().count(), 2);
        // Byte-stable across repeated renderings.
        assert_eq!(csv, cells_csv(&r));
        assert_eq!(sum, summary_csv(&r));
        assert_eq!(report_json(&r), report_json(&r));
        assert!(report_json(&r).starts_with("{\"cells\":[{\"cell\":0,"));
        // Wall-clock must never leak into exports.
        let mut timed = r.clone();
        timed.wall = Duration::from_secs(123);
        timed.workers = 7;
        assert_eq!(report_json(&r), report_json(&timed));
        assert_eq!(cells_csv(&r), cells_csv(&timed));
        assert_eq!(summary_csv(&r), summary_csv(&timed));
    }

    #[test]
    fn empty_stacks_export_blanks_and_null() {
        let mut c = cell(0, 0, &[], &[]);
        c.schedulable = false;
        let r = report(vec![c]);
        let row = cells_csv(&r);
        assert!(row
            .lines()
            .nth(1)
            .expect("row")
            .contains(",false,0,,,,,,,0,,,,,,,"));
        assert!(report_json(&r).contains("\"theoretical\":null"));
        assert!(report_json(&r).contains("\"slowdown_pct\":null"));
    }
}
