//! Trace export: CSV serialization of completions, so figure data can be
//! re-plotted outside this repository.
//!
//! No external serialization crate is needed — the format is one flat
//! table with numeric and simple string columns. Processor activity is
//! exported from the run's probe instead: `mpdp_obs::chrome_trace_json`
//! writes its spans, `mpdp_obs::ledger_csv` its cycle ledger.
//!
//! # Examples
//!
//! ```
//! use mpdp_sim::export::completions_csv;
//! use mpdp_sim::trace::Trace;
//!
//! let csv = completions_csv(&Trace::new());
//! assert!(csv.starts_with("job,task,class,release_s,"));
//! ```

use std::fmt::Write as _;

use mpdp_core::policy::JobClass;

use crate::trace::Trace;

/// Serializes the completion records as CSV with a header row.
///
/// Columns: `job,task,class,release_s,finish_s,response_s,deadline_s,met`.
/// `deadline_s` is empty for soft (aperiodic) jobs.
pub fn completions_csv(trace: &Trace) -> String {
    let mut out = String::from("job,task,class,release_s,finish_s,response_s,deadline_s,met\n");
    for c in &trace.completions {
        let class = match c.class {
            JobClass::Periodic { .. } => "periodic",
            JobClass::Aperiodic { .. } => "aperiodic",
        };
        let deadline = c
            .deadline
            .map(|d| format!("{:.6}", d.as_secs_f64()))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{:.6},{:.6},{:.6},{},{}",
            c.job.as_u32(),
            c.task.as_u32(),
            class,
            c.release.as_secs_f64(),
            c.finish.as_secs_f64(),
            c.response.as_secs_f64(),
            deadline,
            c.met
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::ids::{JobId, ProcId, TaskId};
    use mpdp_core::policy::Job;
    use mpdp_core::time::Cycles;

    fn sample_trace() -> Trace {
        let mut trace = Trace::new();
        trace.record_completion(
            &Job {
                id: JobId::new(3),
                class: JobClass::Periodic { task_index: 0 },
                release: Cycles::from_millis(100),
                absolute_deadline: Some(Cycles::from_millis(400)),
                promotion_at: None,
                promoted: true,
                last_proc: Some(ProcId::new(1)),
            },
            TaskId::new(7),
            Cycles::from_millis(250),
        );
        trace.record_completion(
            &Job {
                id: JobId::new(4),
                class: JobClass::Aperiodic { task_index: 0 },
                release: Cycles::from_millis(120),
                absolute_deadline: None,
                promotion_at: None,
                promoted: false,
                last_proc: None,
            },
            TaskId::new(9),
            Cycles::from_millis(500),
        );
        trace
    }

    #[test]
    fn completions_csv_has_one_row_per_completion() {
        let csv = completions_csv(&sample_trace());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("3,7,periodic,0.100000,0.250000,0.150000,0.400000,true"));
        // Soft job: empty deadline column.
        assert!(lines[2].contains(",aperiodic,"));
        assert!(lines[2].contains(",,true"));
    }

    #[test]
    fn empty_trace_yields_headers_only() {
        let trace = Trace::new();
        assert_eq!(completions_csv(&trace).lines().count(), 1);
    }
}
