//! The recording probe: events, spans, and a cycle ledger in one value.

use mpdp_core::time::Cycles;

use crate::event::{EventKind, ObsEvent};
use crate::ledger::{Bucket, CycleLedger};
use crate::Probe;

/// What a processor was doing over a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Executing application code of a job.
    Task,
    /// A scheduling-pass kernel burst.
    Sched,
    /// An ISR body (IPI resolution, peripheral ack).
    Isr,
    /// A context save/restore burst.
    Switch,
}

impl SpanKind {
    /// Stable name used as the Chrome trace slice title for kernel spans.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Task => "task",
            SpanKind::Sched => "sched-pass",
            SpanKind::Isr => "isr",
            SpanKind::Switch => "ctx-switch",
        }
    }
}

/// A closed execution interval `[start, end)` on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The processor the span ran on.
    pub proc: u32,
    /// What it was doing.
    pub kind: SpanKind,
    /// The job being run (task spans) or resolved (switch spans), if any.
    pub job: Option<u32>,
    /// The owning task of `job`, if known.
    pub task: Option<u32>,
    /// Start instant.
    pub start: Cycles,
    /// End instant (exclusive).
    pub end: Cycles,
}

/// A [`Probe`] that records everything: instant events, execution spans,
/// and the per-processor cycle ledger.
#[derive(Debug, Clone)]
pub struct EventRecorder {
    events: Vec<ObsEvent>,
    spans: Vec<Span>,
    ledger: CycleLedger,
}

impl EventRecorder {
    /// A fresh recorder for `n_procs` processors.
    pub fn new(n_procs: usize) -> Self {
        EventRecorder {
            events: Vec::new(),
            spans: Vec::new(),
            ledger: CycleLedger::new(n_procs),
        }
    }

    /// All recorded instant events, in emission order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// All recorded spans, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The cycle ledger.
    pub fn ledger(&self) -> &CycleLedger {
        &self.ledger
    }

    /// Number of processors this recorder tracks.
    pub fn n_procs(&self) -> usize {
        self.ledger.n_procs()
    }

    /// Number of events of a given name. Kept for the probed-run tests
    /// (`theoretical::tests::probed_run_matches_unprobed_and_conserves_cycles`,
    /// `engine::tests::probed_cell_matches_unprobed_and_conserves`).
    pub fn count_events(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.kind.name() == name).count()
    }

    /// Feeds everything this recorder captured into another probe: events
    /// in emission order, then spans in close order, then the ledger cell
    /// by cell. A probe driven this way sees the same stream it would have
    /// seen live (spans and charges arrive late, but both are only
    /// inspected at end-of-run by the consumers that care).
    pub fn replay_into<P: Probe>(&self, probe: &mut P) {
        if !P::ENABLED {
            return;
        }
        for e in &self.events {
            probe.event(e.at, e.proc, e.kind);
        }
        for s in &self.spans {
            probe.span(*s);
        }
        for proc in 0..self.ledger.n_procs() {
            for &bucket in &crate::ledger::BUCKETS {
                let cycles = self.ledger.get(proc, bucket);
                if cycles > 0 {
                    probe.charge(proc, bucket, cycles);
                }
            }
        }
    }
}

impl Probe for EventRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn event(&mut self, at: Cycles, proc: Option<u32>, kind: EventKind) {
        self.events.push(ObsEvent { at, proc, kind });
    }

    #[inline]
    fn span(&mut self, span: Span) {
        self.spans.push(span);
    }

    #[inline]
    fn charge(&mut self, proc: usize, bucket: Bucket, cycles: u64) {
        self.ledger.charge(proc, bucket, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut r = EventRecorder::new(1);
        r.event(Cycles::new(5), Some(0), EventKind::IsrExit);
        r.event(Cycles::new(9), None, EventKind::Recovery);
        r.span(Span {
            proc: 0,
            kind: SpanKind::Task,
            job: Some(2),
            task: Some(1),
            start: Cycles::new(0),
            end: Cycles::new(5),
        });
        r.charge(0, Bucket::TaskWork, 5);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.events()[0].at, Cycles::new(5));
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.ledger().get(0, Bucket::TaskWork), 5);
        assert_eq!(r.count_events("isr-exit"), 1);
        assert_eq!(r.count_events("migration"), 0);
    }
}
