//! The four queue kinds of the paper's MPDP implementation (§4.2).
//!
//! The original MPDP proposal uses one Global Ready Queue; the paper's
//! implementation splits it — "we use two different queues for periodic tasks
//! in low priority (Periodic Ready Queue) and aperiodic tasks (Aperiodic
//! Ready Queue), which make the global scheduling easier and faster" — and
//! adds a Waiting Periodic Queue that parks completed periodic tasks until
//! their next release, "ordered by proximity to release time". Promoted tasks
//! move to the per-processor High Priority Local Ready Queue "in a position
//! determined by its high priority value".
//!
//! All queues are deterministic: ties break by insertion order (FIFO), which
//! both simulators rely on for reproducibility.
//!
//! # Examples
//!
//! ```
//! use mpdp_core::queue::PeriodicReadyQueue;
//! use mpdp_core::ids::JobId;
//! use mpdp_core::priority::Priority;
//!
//! let mut prq = PeriodicReadyQueue::new();
//! prq.push(JobId::new(0), Priority::new(1));
//! prq.push(JobId::new(1), Priority::new(4));
//! assert_eq!(prq.peek(), Some(JobId::new(1))); // larger level = more urgent
//! ```

use crate::ids::JobId;
use crate::priority::Priority;
use crate::time::Cycles;

/// Parks periodic *tasks* between completions, ordered by next release time.
///
/// Entries are task indices into the owning [`crate::task::TaskTable`], not
/// job ids: a parked task has no live job.
#[derive(Debug, Clone, Default)]
pub struct WaitingPeriodicQueue {
    // Sorted ascending by release time; ties by insertion sequence.
    entries: Vec<(Cycles, u64, usize)>,
    seq: u64,
}

impl WaitingPeriodicQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `task_index` until `release`.
    pub fn push(&mut self, task_index: usize, release: Cycles) {
        let seq = self.seq;
        self.seq += 1;
        let pos = self
            .entries
            .partition_point(|&(r, s, _)| (r, s) <= (release, seq));
        self.entries.insert(pos, (release, seq, task_index));
    }

    /// Removes every task whose release time is `≤ now`, yielding them in
    /// release order (FIFO among equal releases).
    pub fn pop_due(&mut self, now: Cycles) -> impl Iterator<Item = usize> + '_ {
        let split = self.entries.partition_point(|&(r, _, _)| r <= now);
        self.entries.drain(..split).map(|(_, _, t)| t)
    }

    /// The earliest parked release time, if any.
    pub fn next_release(&self) -> Option<Cycles> {
        self.entries.first().map(|&(r, _, _)| r)
    }

    /// Number of parked tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no tasks are parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A priority-ordered ready queue: jobs sorted by a [`Priority`] level,
/// largest (most urgent) first, FIFO within a level.
///
/// Backs both the Periodic Ready Queue (low-band levels) and the
/// High Priority Local Ready Queues (upper-band levels).
#[derive(Debug, Clone, Default)]
pub struct PriorityQueue {
    // Sorted so that the *front* (index 0) is the most urgent: descending
    // priority, ascending sequence within a priority.
    entries: Vec<(Priority, u64, JobId)>,
    seq: u64,
}

impl PriorityQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `job` at its priority position (FIFO among equals).
    pub fn push(&mut self, job: JobId, priority: Priority) {
        let seq = self.seq;
        self.seq += 1;
        // Find first entry strictly less urgent: lower priority, or same
        // priority but later sequence (always true for existing same-priority
        // entries vs the new one? No — FIFO means the new entry goes *after*
        // equals, i.e. before the first entry with strictly lower priority).
        let pos = self.entries.partition_point(|&(p, _, _)| p >= priority);
        self.entries.insert(pos, (priority, seq, job));
    }

    /// The most urgent job without removing it.
    pub fn peek(&self) -> Option<JobId> {
        self.entries.first().map(|&(_, _, j)| j)
    }

    /// Removes and returns the most urgent job.
    pub fn pop(&mut self) -> Option<JobId> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries.remove(0).2)
        }
    }

    /// Removes a specific job (e.g. on promotion out of the PRQ), returning
    /// whether it was present.
    pub fn remove(&mut self, job: JobId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(_, _, j)| j == job) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Whether `job` is queued here.
    pub fn contains(&self, job: JobId) -> bool {
        self.entries.iter().any(|&(_, _, j)| j == job)
    }

    /// Jobs in queue order (most urgent first).
    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.entries.iter().map(|&(_, _, j)| j)
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Type alias documenting the role: the low-band global ready queue.
pub type PeriodicReadyQueue = PriorityQueue;
/// Type alias documenting the role: one per processor, upper-band.
pub type HighPrioLocalQueue = PriorityQueue;

/// The middle-band queue: aperiodic jobs in strict FIFO arrival order
/// ("oldest tasks are scheduled first").
#[derive(Debug, Clone, Default)]
pub struct AperiodicReadyQueue {
    entries: std::collections::VecDeque<JobId>,
}

impl AperiodicReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues an arriving aperiodic job at the back.
    pub fn push(&mut self, job: JobId) {
        self.entries.push_back(job);
    }

    /// The oldest queued job without removing it.
    pub fn peek(&self) -> Option<JobId> {
        self.entries.front().copied()
    }

    /// Removes and returns the oldest job.
    pub fn pop(&mut self) -> Option<JobId> {
        self.entries.pop_front()
    }

    /// Removes a specific job, returning whether it was present.
    pub fn remove(&mut self, job: JobId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&j| j == job) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Whether `job` is queued here.
    pub fn contains(&self, job: JobId) -> bool {
        self.entries.contains(&job)
    }

    /// Jobs in FIFO order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.entries.iter().copied()
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiting_queue_orders_by_release() {
        let mut wpq = WaitingPeriodicQueue::new();
        wpq.push(0, Cycles::new(300));
        wpq.push(1, Cycles::new(100));
        wpq.push(2, Cycles::new(200));
        assert_eq!(wpq.next_release(), Some(Cycles::new(100)));
        assert_eq!(wpq.pop_due(Cycles::new(250)).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(wpq.len(), 1);
        assert_eq!(wpq.pop_due(Cycles::new(299)).count(), 0);
        assert_eq!(wpq.pop_due(Cycles::new(300)).collect::<Vec<_>>(), [0]);
        assert!(wpq.is_empty());
        assert_eq!(wpq.next_release(), None);
    }

    #[test]
    fn waiting_queue_fifo_on_equal_release() {
        let mut wpq = WaitingPeriodicQueue::new();
        wpq.push(5, Cycles::new(100));
        wpq.push(3, Cycles::new(100));
        wpq.push(8, Cycles::new(100));
        assert_eq!(wpq.pop_due(Cycles::new(100)).collect::<Vec<_>>(), [5, 3, 8]);
    }

    #[test]
    fn priority_queue_orders_descending_with_fifo_ties() {
        let mut q = PriorityQueue::new();
        q.push(JobId::new(0), Priority::new(1));
        q.push(JobId::new(1), Priority::new(3));
        q.push(JobId::new(2), Priority::new(3));
        q.push(JobId::new(3), Priority::new(2));
        let order: Vec<JobId> = q.iter().collect();
        assert_eq!(
            order,
            vec![JobId::new(1), JobId::new(2), JobId::new(3), JobId::new(0)]
        );
        assert_eq!(q.pop(), Some(JobId::new(1)));
        assert_eq!(q.peek(), Some(JobId::new(2)));
    }

    #[test]
    fn priority_queue_remove_specific() {
        let mut q = PriorityQueue::new();
        q.push(JobId::new(0), Priority::new(1));
        q.push(JobId::new(1), Priority::new(2));
        assert!(q.remove(JobId::new(0)));
        assert!(!q.remove(JobId::new(0)));
        assert!(!q.contains(JobId::new(0)));
        assert!(q.contains(JobId::new(1)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn aperiodic_queue_is_fifo() {
        let mut q = AperiodicReadyQueue::new();
        q.push(JobId::new(2));
        q.push(JobId::new(0));
        q.push(JobId::new(1));
        assert_eq!(q.peek(), Some(JobId::new(2)));
        assert_eq!(q.pop(), Some(JobId::new(2)));
        assert!(q.remove(JobId::new(1)));
        assert_eq!(q.pop(), Some(JobId::new(0)));
        assert!(q.is_empty());
    }
}
