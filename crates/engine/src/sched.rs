//! Scheduler internals: one FIFO queue per priority class, with aging.
//!
//! One mutex guards all of this (`Engine` holds `Mutex<Core>`); workers
//! take the lock only to pick or retire a job, never while running one.
//!
//! The scheduler normally serves the highest-priority non-empty queue,
//! but a lower-class job whose queue wait exceeds the aging threshold is
//! served first, so sustained high-priority load cannot starve
//! background classes indefinitely.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::op::{CompletionResult, CompletionState, Priority};
use crate::stats::EngineStats;

/// The work carried by one submitted job; its result lands on the token.
pub(crate) type Job = Box<dyn FnOnce() -> CompletionResult + Send>;

/// One admitted job waiting to run.
pub(crate) struct Pending {
    pub(crate) class: Priority,
    pub(crate) enqueued: Instant,
    pub(crate) job: Job,
    pub(crate) completion: Arc<CompletionState>,
}

pub(crate) struct Core {
    /// Runnable jobs per class, FIFO within a class.
    runnable: [VecDeque<Pending>; 4],
    /// In-flight jobs per class (admitted, not completed): queued plus
    /// running. Admission control and idleness both read it.
    depth: [usize; 4],
    pub(crate) shutdown: bool,
    pub(crate) stats: EngineStats,
}

impl Core {
    pub(crate) fn new() -> Core {
        Core {
            runnable: Default::default(),
            depth: [0; 4],
            shutdown: false,
            stats: EngineStats::default(),
        }
    }

    /// Jobs queued or running. Zero means the engine is idle.
    pub(crate) fn total_pending(&self) -> usize {
        self.depth.iter().sum()
    }

    pub(crate) fn depth_of(&self, class: Priority) -> usize {
        self.depth[class.index()]
    }

    /// Admits `job` at `class`. Caller has already applied admission
    /// control under the same lock.
    pub(crate) fn admit(&mut self, class: Priority, job: Job, completion: Arc<CompletionState>) {
        self.depth[class.index()] += 1;
        let stats = &mut self.stats.classes[class.index()];
        stats.submitted += 1;
        stats.max_depth = stats.max_depth.max(self.depth[class.index()] as u64);
        self.runnable[class.index()].push_back(Pending {
            class,
            enqueued: Instant::now(),
            job,
            completion,
        });
    }

    /// Picks the next job to run, or `None` if nothing is queued.
    pub(crate) fn pop_next(&mut self, aging: Duration) -> Option<Pending> {
        let now = Instant::now();
        // Aging pass: among lower-class queue heads that have waited past
        // the threshold, serve the longest-waiting one first.
        let mut aged: Option<usize> = None;
        for class in 1..4 {
            if let Some(head) = self.runnable[class].front() {
                if now.duration_since(head.enqueued) >= aging
                    && aged.is_none_or(|a| head.enqueued < self.runnable[a][0].enqueued)
                {
                    aged = Some(class);
                }
            }
        }
        let class = match aged {
            Some(class) => {
                self.stats.classes[class].aged += 1;
                class
            }
            None => (0..4).find(|&c| !self.runnable[c].is_empty())?,
        };
        let job = self.runnable[class].pop_front().unwrap();
        self.stats.classes[class].wait_us += now.duration_since(job.enqueued).as_micros() as u64;
        Some(job)
    }

    /// Retires a job that has run: frees its admission slot and counts
    /// its outcome.
    pub(crate) fn retire(&mut self, class: Priority, succeeded: bool, service: Duration) {
        self.depth[class.index()] -= 1;
        let stats = &mut self.stats.classes[class.index()];
        if succeeded {
            stats.completed += 1;
        } else {
            stats.failed += 1;
        }
        stats.service_us += service.as_micros() as u64;
    }
}
