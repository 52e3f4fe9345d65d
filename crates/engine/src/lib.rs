//! # hfad-engine
//!
//! The background-job engine of the hFAD reproduction ("Hierarchical
//! File Systems Are Dead", Seltzer & Murphy, HotOS 2009).
//!
//! The paper's OSD defers work off the caller's path — lazy full-text
//! indexing (§3.4) most of all. This crate is the one place such work
//! runs: a priority job scheduler drained by a worker pool.
//!
//! * [`Engine`] — callers submit closures with
//!   [`submit_job`](Engine::submit_job), tagged with a [`Priority`]
//!   class, and get a [`Completion`] token to wait on. The scheduler
//!   serves classes in strict priority order, with aging so background
//!   work never starves. Each class admits a bounded number of jobs; a
//!   full class blocks its submitter, except read-ahead, which rejects.
//!   A job runs exactly once and its error lands on its token;
//!   [`EngineStats`] counts every stage. [`Engine::read`] is a job that
//!   reads one block of the engine's device and delivers the bytes.
//! * [`EnginePrefetcher`] — bridges the block cache's sequential-run
//!   detector to [`Priority::ReadAhead`] prefetch jobs.
//! * [`Engine::executor`] hands out a
//!   [`BackgroundExecutor`](hfad_storage::BackgroundExecutor) pinned to
//!   one class: lazy indexing rides [`Priority::Index`] and journal
//!   checkpoints [`Priority::Checkpoint`], each with bounded
//!   backpressure.
//!
//! Experiment E10 (`hfad_bench`) measures the engine's services: cold
//! sequential scans with read-ahead and query-during-ingest with lazy
//! indexing on the Index class.

pub mod engine;
pub mod error;
pub mod op;
mod sched;
pub mod services;
pub mod stats;

pub use engine::Engine;
pub use error::{EngineError, Result};
pub use op::{Completion, CompletionResult, Priority};
pub use services::EnginePrefetcher;
pub use stats::{ClassStats, EngineStats};
