//! Per-class engine counters.

use crate::op::Priority;

/// Counters for one priority class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Jobs admitted into the scheduler.
    pub submitted: u64,
    /// Jobs that ran and succeeded.
    pub completed: u64,
    /// Jobs that ran and failed (the error is on the completion token).
    pub failed: u64,
    /// Jobs refused at admission (only a full
    /// [`ReadAhead`](Priority::ReadAhead) class rejects).
    pub rejected: u64,
    /// Jobs served via the aging path ahead of a higher-priority queue.
    pub aged: u64,
    /// High-water mark of in-flight jobs (admitted, not yet completed).
    pub max_depth: u64,
    /// Total microseconds jobs spent queued before execution began.
    pub wait_us: u64,
    /// Total microseconds jobs spent running.
    pub service_us: u64,
}

impl ClassStats {
    /// Mean queue wait per job run, in microseconds.
    pub fn mean_wait_us(&self) -> f64 {
        let executed = self.completed + self.failed;
        if executed == 0 {
            0.0
        } else {
            self.wait_us as f64 / executed as f64
        }
    }
}

/// Snapshot of every class's counters, indexed by [`Priority`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// One entry per class, in [`Priority::ALL`] order.
    pub classes: [ClassStats; 4],
}

impl EngineStats {
    /// Counters for one class.
    pub fn class(&self, priority: Priority) -> &ClassStats {
        &self.classes[priority.index()]
    }

    /// Jobs completed successfully across all classes.
    pub fn total_completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Jobs that failed across all classes.
    pub fn total_failed(&self) -> u64 {
        self.classes.iter().map(|c| c.failed).sum()
    }

    /// Jobs refused at admission across all classes.
    pub fn total_rejected(&self) -> u64 {
        self.classes.iter().map(|c| c.rejected).sum()
    }
}
