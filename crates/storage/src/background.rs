//! The background-job executor abstraction shared across the stack.
//!
//! Several layers above this crate hand deferred work to "whatever runs
//! background jobs": lazy index maintenance (`hfad_index`), and the
//! transactional OSD's watermark checkpointer (`hfad_osd`). Both only
//! need submit-or-reject semantics, so the trait lives here at the
//! bottom of the dependency graph; the background-job engine (`hfad_engine`)
//! implements it and maps each consumer onto one of its priority
//! classes (index maintenance → `Index`, checkpoint drains →
//! `Checkpoint`), giving every deferred byte one scheduler and one
//! admission-control story.

/// An executor that runs opaque background jobs with bounded admission.
///
/// Implemented by the background-job engine (`hfad_engine`); consumers in
/// `hfad_index` (lazy indexing) and `hfad_osd` (the journal
/// checkpointer) only see this trait, so they never depend on the
/// engine crate.
pub trait BackgroundExecutor: Send + Sync {
    /// Schedules `job`. `Err(SubmitError::Full)` applies backpressure;
    /// `Err(SubmitError::Stopped)` means the executor is shutting down.
    fn submit_background(
        &self,
        job: Box<dyn FnOnce() + Send>,
    ) -> std::result::Result<(), SubmitError>;
}

/// Why a [`BackgroundExecutor`] declined a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The executor's queue for this work class is at capacity.
    Full,
    /// The executor has shut down.
    Stopped,
}
