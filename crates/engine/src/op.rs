//! Submission-side types: priority classes and completion tokens.

use std::sync::{Arc, Condvar, Mutex};

use crate::error::EngineError;

/// Priority class of a submitted job, highest first.
///
/// The scheduler serves classes in this order, with aging (a 5 ms queue
/// wait) promoting jobs that have waited too long so sustained
/// high-priority load cannot starve the background classes forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Priority {
    /// Latency-sensitive work a caller is waiting on.
    Foreground = 0,
    /// Journal checkpoint drains: installing committed pages so the
    /// journal ring can be reclaimed.
    Checkpoint = 1,
    /// Speculative sequential prefetch; cheapest to shed under load.
    ReadAhead = 2,
    /// Lazy full-text indexing and other deferred maintenance.
    Index = 3,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 4] = [
        Priority::Foreground,
        Priority::Checkpoint,
        Priority::ReadAhead,
        Priority::Index,
    ];

    /// Queue index of this class.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable class name (used in stats dumps and experiments).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Foreground => "foreground",
            Priority::Checkpoint => "checkpoint",
            Priority::ReadAhead => "read-ahead",
            Priority::Index => "index",
        }
    }
}

/// Result delivered through a [`Completion`]: the block's bytes for
/// [`Engine::read`](crate::Engine::read), `None` for jobs.
pub type CompletionResult = Result<Option<Arc<[u8]>>, EngineError>;

pub(crate) struct CompletionState {
    result: Mutex<Option<CompletionResult>>,
    done: Condvar,
}

impl CompletionState {
    pub(crate) fn new() -> Arc<CompletionState> {
        Arc::new(CompletionState {
            result: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    pub(crate) fn fulfil(&self, result: CompletionResult) {
        let mut slot = self.result.lock().unwrap();
        *slot = Some(result);
        drop(slot);
        self.done.notify_all();
    }
}

/// Handle to one submitted job. Wait for the outcome; dropping the token
/// abandons the result without cancelling the job.
pub struct Completion {
    pub(crate) state: Arc<CompletionState>,
}

impl Completion {
    /// Blocks until the job completes and returns its result. Subsequent
    /// calls return the same result again.
    pub fn wait(&self) -> CompletionResult {
        let mut slot = self.state.result.lock().unwrap();
        while slot.is_none() {
            slot = self.state.done.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }

    /// Blocks until a read completes and returns its data. Panics if the
    /// job was not an [`Engine::read`](crate::Engine::read) (jobs deliver
    /// no data).
    pub fn wait_read(&self) -> Result<Arc<[u8]>, EngineError> {
        self.wait()
            .map(|data| data.expect("wait_read on a job that delivers no data"))
    }

    /// Whether the job has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.state.result.lock().unwrap().is_some()
    }
}
