//! # hfad-engine
//!
//! The asynchronous I/O engine of the hFAD reproduction ("Hierarchical
//! File Systems Are Dead", Seltzer & Murphy, HotOS 2009).
//!
//! The paper's OSD performs its background work — lazy full-text indexing
//! (§3.4), cache write-back, speculative read-ahead — on ad-hoc threads.
//! This crate replaces that with one io_uring-shaped engine over the
//! synchronous [`BlockDevice`](hfad_storage::BlockDevice) trait:
//!
//! * [`Engine`] — callers submit [`IoOp`]s or opaque jobs tagged with a
//!   [`Priority`] class and get a [`Completion`] token to wait or poll;
//!   a worker pool drains a multi-queue scheduler (strict priority plus
//!   aging, per-block FIFO, flush gates). Per-class admission control
//!   ([`ClassConfig`]) blocks or rejects submitters at capacity, and
//!   [`EngineStats`] counts every stage.
//! * [`EnginePrefetcher`] — bridges the block cache's sequential-run
//!   detector to [`Priority::ReadAhead`] prefetch jobs.
//! * [`WriteBehind`] — watermark-driven dirty-page trickle flusher at
//!   [`Priority::WriteBehind`].
//! * Background jobs — [`Engine::executor`] hands out a
//!   [`BackgroundExecutor`](hfad_storage::BackgroundExecutor) pinned to
//!   one class: lazy indexing rides [`Priority::Index`] and journal
//!   checkpoints [`Priority::WriteBehind`], each with bounded
//!   backpressure.
//!
//! Experiment E10 (`hfad_bench`) measures the engine against the
//! synchronous baseline: cold sequential scans with read-ahead and
//! query-during-ingest with lazy indexing on the Index class.

pub mod engine;
pub mod error;
pub mod op;
mod sched;
pub mod services;
pub mod stats;

pub use engine::{AdmissionPolicy, ClassConfig, Engine, EngineConfig};
pub use error::{EngineError, Result};
pub use op::{Completion, CompletionResult, IoOp, Priority};
pub use services::{EnginePrefetcher, WriteBehind, WriteBehindConfig};
pub use stats::{ClassStats, EngineStats};
