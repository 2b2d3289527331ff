//! Completion traces shared by both simulators: one record per retired
//! job, with its response time and deadline verdict.
//!
//! What each processor was doing over time is not kept here. A run records
//! it through its [`Probe`](mpdp_obs::Probe): an
//! [`EventRecorder`](mpdp_obs::EventRecorder) holds the activity spans the
//! Gantt chart and the Chrome trace are drawn from, and the cycle ledger
//! that attributes every cycle to one bucket.

use mpdp_core::ids::{JobId, TaskId};
use mpdp_core::policy::JobClass;
use mpdp_core::time::Cycles;

/// The final record of one completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionRecord {
    /// The completed job.
    pub job: JobId,
    /// The task it activated.
    pub task: TaskId,
    /// Periodic or aperiodic.
    pub class: JobClass,
    /// Nominal release instant.
    pub release: Cycles,
    /// Completion instant.
    pub finish: Cycles,
    /// `finish − release`.
    pub response: Cycles,
    /// Absolute deadline, if hard.
    pub deadline: Option<Cycles>,
    /// Whether the deadline (if any) was met.
    pub met: bool,
}

/// A full simulation trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completions in finish order.
    pub completions: Vec<CompletionRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completion at `finish`.
    pub fn record_completion(
        &mut self,
        job: &mpdp_core::policy::Job,
        task: TaskId,
        finish: Cycles,
    ) {
        let met = job.absolute_deadline.is_none_or(|d| finish <= d);
        self.record(job, task, finish, met);
    }

    /// Records an aborted (budget-killed) job at `finish`. The job did not
    /// deliver its result, so `met` is forced to `false` regardless of how
    /// much deadline slack remained.
    pub fn record_abort(&mut self, job: &mpdp_core::policy::Job, task: TaskId, finish: Cycles) {
        self.record(job, task, finish, false);
    }

    /// Shared retirement path: completions and aborts differ only in how
    /// the `met` verdict is decided.
    fn record(&mut self, job: &mpdp_core::policy::Job, task: TaskId, finish: Cycles, met: bool) {
        self.completions.push(CompletionRecord {
            job: job.id,
            task,
            class: job.class,
            release: job.release,
            finish,
            response: finish - job.release,
            deadline: job.absolute_deadline,
            met,
        });
    }

    /// Number of hard deadline misses.
    pub fn deadline_misses(&self) -> usize {
        self.completions
            .iter()
            .filter(|c| c.deadline.is_some() && !c.met)
            .count()
    }

    /// Completions of a given task.
    pub fn completions_of(&self, task: TaskId) -> impl Iterator<Item = &CompletionRecord> {
        self.completions.iter().filter(move |c| c.task == task)
    }

    /// Mean response time of a task's completions, if it completed at all.
    pub fn mean_response(&self, task: TaskId) -> Option<Cycles> {
        let responses: Vec<u64> = self
            .completions_of(task)
            .map(|c| c.response.as_u64())
            .collect();
        if responses.is_empty() {
            None
        } else {
            Some(Cycles::new(
                responses.iter().sum::<u64>() / responses.len() as u64,
            ))
        }
    }

    /// Maximum response time of a task's completions.
    pub fn max_response(&self, task: TaskId) -> Option<Cycles> {
        self.completions_of(task).map(|c| c.response).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpdp_core::policy::Job;

    fn job(id: u32, release: u64, deadline: Option<u64>) -> Job {
        Job {
            id: JobId::new(id),
            class: JobClass::Periodic { task_index: 0 },
            release: Cycles::new(release),
            absolute_deadline: deadline.map(Cycles::new),
            promotion_at: None,
            promoted: false,
            last_proc: None,
        }
    }

    #[test]
    fn completion_records_response_and_deadline() {
        let mut trace = Trace::new();
        trace.record_completion(&job(0, 100, Some(300)), TaskId::new(7), Cycles::new(250));
        trace.record_completion(&job(1, 100, Some(300)), TaskId::new(7), Cycles::new(350));
        assert_eq!(trace.completions[0].response, Cycles::new(150));
        assert!(trace.completions[0].met);
        assert!(!trace.completions[1].met);
        assert_eq!(trace.deadline_misses(), 1);
    }

    #[test]
    fn abort_forces_met_false_even_with_slack() {
        let mut trace = Trace::new();
        trace.record_abort(&job(0, 100, Some(10_000)), TaskId::new(7), Cycles::new(250));
        let rec = &trace.completions[0];
        assert!(!rec.met, "aborted job delivered no result");
        assert_eq!(rec.response, Cycles::new(150));
        assert_eq!(trace.deadline_misses(), 1);
    }

    #[test]
    fn soft_jobs_never_miss() {
        let mut trace = Trace::new();
        trace.record_completion(&job(0, 0, None), TaskId::new(1), Cycles::new(10_000));
        assert_eq!(trace.deadline_misses(), 0);
        assert!(trace.completions[0].met);
    }

    #[test]
    fn per_task_statistics() {
        let mut trace = Trace::new();
        trace.record_completion(&job(0, 0, None), TaskId::new(5), Cycles::new(100));
        trace.record_completion(&job(1, 100, None), TaskId::new(5), Cycles::new(400));
        trace.record_completion(&job(2, 0, None), TaskId::new(9), Cycles::new(50));
        assert_eq!(trace.mean_response(TaskId::new(5)), Some(Cycles::new(200)));
        assert_eq!(trace.max_response(TaskId::new(5)), Some(Cycles::new(300)));
        assert_eq!(trace.mean_response(TaskId::new(1)), None);
        assert_eq!(trace.completions_of(TaskId::new(9)).count(), 1);
    }
}
