//! ASCII Gantt rendering of a probed run's activity spans — used to
//! regenerate the paper's Figure 3 sample schedule.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mpdp_core::ids::TaskId;
use mpdp_core::time::Cycles;
use mpdp_obs::{EventRecorder, SpanKind};

/// Renders the spans `rec` recorded as one row per processor it tracks,
/// one column per `slot` of time, covering `[0, horizon)`.
///
/// Each column shows the label of the task that occupied the *majority* of
/// that slot on that processor (`·` for idle, `#` for scheduler, ISR and
/// context-switch activity). `labels` maps task ids to single-character
/// labels; unmapped tasks render as `?`.
///
/// # Panics
///
/// Panics if `slot` is zero.
pub fn render_gantt(
    rec: &EventRecorder,
    horizon: Cycles,
    slot: Cycles,
    labels: &BTreeMap<TaskId, char>,
) -> String {
    assert!(!slot.is_zero(), "slot must be non-zero");
    let n_slots = horizon.as_u64().div_ceil(slot.as_u64()) as usize;
    let mut grid = vec![vec![('·', 0u64); n_slots]; rec.n_procs()];

    for span in rec.spans() {
        // A span on a processor the recorder does not track has no row.
        let Some(row) = grid.get_mut(span.proc as usize) else {
            continue;
        };
        let label = match span.kind {
            SpanKind::Task => span
                .task
                .map_or('?', |t| *labels.get(&TaskId::new(t)).unwrap_or(&'?')),
            SpanKind::Sched | SpanKind::Isr | SpanKind::Switch => '#',
        };
        let first = (span.start.as_u64() / slot.as_u64()) as usize;
        let last = (span.end.as_u64().saturating_sub(1) / slot.as_u64()) as usize;
        for (s, cell) in row.iter_mut().enumerate().take(last + 1).skip(first) {
            let slot_start = s as u64 * slot.as_u64();
            let slot_end = slot_start + slot.as_u64();
            let overlap = span.end.as_u64().min(slot_end) - span.start.as_u64().max(slot_start);
            // Majority vote, with task spans outranking kernel filler on
            // ties so the schedule reads like the paper's figure.
            if overlap > cell.1 || (overlap == cell.1 && cell.0 == '#') {
                *cell = (label, overlap);
            }
        }
    }

    let mut out = String::new();
    // Header: slot indices mod 10.
    let _ = write!(out, "      ");
    for s in 0..n_slots {
        let _ = write!(out, "{}", s % 10);
    }
    let _ = writeln!(out);
    for (p, row) in grid.iter().enumerate() {
        let _ = write!(out, "MB{p:<2}  ");
        for &(c, _) in row {
            let _ = write!(out, "{c}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_obs::{Probe, Span};

    fn span(proc: u32, start: u64, end: u64, task: Option<u32>, kind: SpanKind) -> Span {
        Span {
            proc,
            kind,
            job: Some(0),
            task,
            start: Cycles::new(start),
            end: Cycles::new(end),
        }
    }

    #[test]
    fn renders_majority_task_per_slot() {
        let mut rec = EventRecorder::new(2);
        rec.span(span(0, 0, 80, Some(1), SpanKind::Task));
        rec.span(span(0, 80, 100, Some(2), SpanKind::Task));
        rec.span(span(1, 0, 50, Some(2), SpanKind::Task));
        let labels = BTreeMap::from([(TaskId::new(1), 'A'), (TaskId::new(2), 'B')]);
        let text = render_gantt(&rec, Cycles::new(100), Cycles::new(50), &labels);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("AA"), "slot 0 and 1 majority-A: {text}");
        assert!(lines[2].contains("B·"), "P1 busy then idle: {text}");
    }

    #[test]
    fn kernel_spans_render_as_hash() {
        for kind in [SpanKind::Sched, SpanKind::Isr, SpanKind::Switch] {
            let mut rec = EventRecorder::new(1);
            rec.span(span(0, 0, 100, None, kind));
            let text = render_gantt(&rec, Cycles::new(100), Cycles::new(100), &BTreeMap::new());
            assert!(text.contains('#'), "{kind:?}: {text}");
        }
    }

    #[test]
    fn unknown_task_renders_question_mark() {
        let mut rec = EventRecorder::new(1);
        rec.span(span(0, 0, 100, Some(9), SpanKind::Task));
        let text = render_gantt(&rec, Cycles::new(100), Cycles::new(50), &BTreeMap::new());
        assert!(text.contains("??"));
    }

    #[test]
    fn idle_everywhere_renders_dots() {
        let text = render_gantt(
            &EventRecorder::new(2),
            Cycles::new(100),
            Cycles::new(25),
            &BTreeMap::new(),
        );
        assert_eq!(text.matches('·').count(), 8);
    }

    #[test]
    fn rows_follow_the_recorder_and_skip_untracked_processors() {
        let mut rec = EventRecorder::new(1);
        rec.span(span(3, 0, 100, Some(1), SpanKind::Task));
        let text = render_gantt(&rec, Cycles::new(100), Cycles::new(50), &BTreeMap::new());
        assert_eq!(text.lines().count(), 2, "header plus one row: {text}");
        assert!(text.ends_with("MB0   ··\n"), "{text}");
    }
}
