//! Error type for the engine.

use core::fmt;

use hfad_storage::StorageError;

/// Errors surfaced on submission or on a completion token.
///
/// Job failures never take a worker thread down: the error is recorded
/// on the job's [`Completion`](crate::Completion) and the worker moves on
/// to the next job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The underlying device or job failed.
    Storage(StorageError),
    /// The engine has been shut down and accepts no further work.
    Shutdown,
    /// The [`ReadAhead`](crate::Priority::ReadAhead) class is at its
    /// admission capacity; the other classes block instead.
    QueueFull,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Shutdown => write!(f, "engine has shut down"),
            EngineError::QueueFull => write!(f, "priority class queue is full"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

/// Convenience alias used throughout the engine crate.
pub type Result<T> = std::result::Result<T, EngineError>;
