//! Property tests for the MPDP queue types: ordering, FIFO stability, and
//! conservation under arbitrary operation sequences.

use proptest::prelude::*;

use mpdp_core::ids::JobId;
use mpdp_core::priority::Priority;
use mpdp_core::queue::{AperiodicReadyQueue, PriorityQueue, WaitingPeriodicQueue};
use mpdp_core::time::Cycles;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Draining a priority queue yields non-increasing priorities, FIFO
    /// within a level, and exactly the inserted elements.
    #[test]
    fn priority_queue_drain_is_sorted_and_stable(items in prop::collection::vec(0u32..8, 0..40)) {
        let mut q = PriorityQueue::new();
        for (i, &prio) in items.iter().enumerate() {
            q.push(JobId::new(i as u32), Priority::new(prio));
        }
        prop_assert_eq!(q.len(), items.len());
        let mut drained = Vec::new();
        while let Some(j) = q.pop() {
            drained.push(j);
        }
        prop_assert_eq!(drained.len(), items.len());
        // Non-increasing priority; FIFO (ascending id) within equal levels.
        for w in drained.windows(2) {
            let pa = items[w[0].index()];
            let pb = items[w[1].index()];
            prop_assert!(pa >= pb, "priority order violated");
            if pa == pb {
                prop_assert!(w[0] < w[1], "FIFO violated within priority level");
            }
        }
    }

    /// Removing arbitrary members keeps the rest in order.
    #[test]
    fn priority_queue_remove_preserves_order(
        items in prop::collection::vec(0u32..8, 1..30),
        removals in prop::collection::vec(0usize..30, 0..10),
    ) {
        let mut q = PriorityQueue::new();
        for (i, &prio) in items.iter().enumerate() {
            q.push(JobId::new(i as u32), Priority::new(prio));
        }
        let mut removed = std::collections::HashSet::new();
        for r in removals {
            let id = JobId::new((r % items.len()) as u32);
            if removed.insert(id) {
                prop_assert!(q.remove(id), "first removal must succeed");
            } else {
                prop_assert!(!q.remove(id), "second removal must fail");
            }
        }
        let survivors: Vec<JobId> = q.iter().collect();
        prop_assert_eq!(survivors.len(), items.len() - removed.len());
        for w in survivors.windows(2) {
            prop_assert!(items[w[0].index()] >= items[w[1].index()]);
        }
    }

    /// The waiting queue pops exactly the due entries, in time order.
    #[test]
    fn waiting_queue_pops_exactly_due(
        entries in prop::collection::vec(0u64..1000, 0..30),
        cut in 0u64..1000,
    ) {
        let mut q = WaitingPeriodicQueue::new();
        for (i, &release) in entries.iter().enumerate() {
            q.push(i, Cycles::new(release));
        }
        let due: Vec<usize> = q.pop_due(Cycles::new(cut)).collect();
        let expected = entries.iter().filter(|&&r| r <= cut).count();
        prop_assert_eq!(due.len(), expected);
        for w in due.windows(2) {
            prop_assert!(entries[w[0]] <= entries[w[1]], "due order must be by release");
        }
        // Remainder is strictly later than the cut.
        if let Some(next) = q.next_release() {
            prop_assert!(next > Cycles::new(cut));
        }
        prop_assert_eq!(q.len(), entries.len() - expected);
    }

    /// The aperiodic queue is exactly FIFO under interleaved push/pop.
    #[test]
    fn aperiodic_queue_is_fifo(ops in prop::collection::vec(any::<bool>(), 0..60)) {
        let mut q = AperiodicReadyQueue::new();
        let mut model: std::collections::VecDeque<JobId> = Default::default();
        let mut next = 0u32;
        for push in ops {
            if push {
                let id = JobId::new(next);
                next += 1;
                q.push(id);
                model.push_back(id);
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek(), model.front().copied());
        }
    }
}
