//! The engine proper: submission API, admission control and worker pool.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hfad_storage::{BackgroundExecutor, BlockDevice, RetryPolicy, SubmitError};

use crate::error::{EngineError, Result};
use crate::op::{Completion, CompletionResult, CompletionState, IoOp, Priority};
use crate::sched::{Core, Work};
use crate::stats::EngineStats;

/// What a submitter experiences when a priority class is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitter until the class has room.
    #[default]
    Block,
    /// Fail the submission with [`EngineError::QueueFull`].
    Reject,
}

/// Admission control for one priority class.
#[derive(Debug, Clone, Copy)]
pub struct ClassConfig {
    /// Maximum in-flight ops (admitted, not yet completed).
    pub capacity: usize,
    /// Submitter behaviour at capacity.
    pub policy: AdmissionPolicy,
}

impl ClassConfig {
    /// Blocking admission with the given capacity.
    pub fn blocking(capacity: usize) -> ClassConfig {
        ClassConfig {
            capacity,
            policy: AdmissionPolicy::Block,
        }
    }

    /// Rejecting admission with the given capacity.
    pub fn rejecting(capacity: usize) -> ClassConfig {
        ClassConfig {
            capacity,
            policy: AdmissionPolicy::Reject,
        }
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads draining the scheduler (minimum 1).
    pub workers: usize,
    /// Queue wait after which a lower-priority op is served ahead of
    /// higher classes (the starvation bound).
    pub aging: Duration,
    /// Per-class admission control, in [`Priority::ALL`] order.
    pub classes: [ClassConfig; 4],
    /// Per-class transient-error retry, in [`Priority::ALL`] order. A
    /// worker re-executes a read/write/flush that failed with
    /// [`StorageError::TransientIo`](hfad_storage::StorageError::TransientIo)
    /// under its class's policy before surfacing the error on the
    /// completion token. The op stays *executing* across retries, so
    /// per-block FIFO chains and flush gates are unaffected. Opaque
    /// jobs ([`Engine::submit_job`]) are `FnOnce` and never retried.
    pub retry: [RetryPolicy; 4],
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            aging: Duration::from_millis(5),
            classes: [
                // Foreground never sheds load; callers would just retry.
                ClassConfig::blocking(4096),
                // Write-behind backpressure keeps dirty pages bounded.
                ClassConfig::blocking(1024),
                // Speculative prefetch is the first thing to drop.
                ClassConfig::rejecting(256),
                // Lazy indexing blocks its producer (bounded backlog).
                ClassConfig::blocking(1024),
            ],
            retry: [RetryPolicy::standard(); 4],
        }
    }
}

struct Shared {
    device: Arc<dyn BlockDevice>,
    config: EngineConfig,
    core: Mutex<Core>,
    /// Single condvar for all scheduler events (work arrival, completion,
    /// admission vacancy, idle, shutdown); notified broadly. Simpler than
    /// three condvars and plenty for single-digit worker counts.
    cv: Condvar,
}

/// The asynchronous I/O engine: io_uring-shaped submission/completion
/// queues over a synchronous [`BlockDevice`], drained by a worker pool
/// with priority scheduling.
///
/// ```
/// use std::sync::Arc;
/// use hfad_storage::MemDevice;
/// use hfad_engine::{Engine, IoOp, Priority};
///
/// let engine = Engine::new(Arc::new(MemDevice::new(64, 512)));
/// let data: Arc<[u8]> = vec![7u8; 512].into();
/// engine
///     .submit(Priority::Foreground, IoOp::Write { block: 3, data })
///     .unwrap()
///     .wait()
///     .unwrap();
/// let read = engine.read(Priority::Foreground, 3).unwrap().wait_read().unwrap();
/// assert_eq!(read[0], 7);
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts an engine with [`EngineConfig::default`] over `device`.
    pub fn new(device: Arc<dyn BlockDevice>) -> Arc<Engine> {
        Engine::with_config(device, EngineConfig::default())
    }

    /// Starts an engine with an explicit configuration.
    pub fn with_config(device: Arc<dyn BlockDevice>, config: EngineConfig) -> Arc<Engine> {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            device,
            config,
            core: Mutex::new(Core::new()),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Arc::new(Engine {
            shared,
            workers: Mutex::new(handles),
        })
    }

    /// The device the engine executes against.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.shared.device
    }

    /// Submits a device op at `class` and returns its completion token.
    pub fn submit(&self, class: Priority, op: IoOp) -> Result<Completion> {
        let work = match op {
            IoOp::Read { block } => Work::Read { block },
            IoOp::Write { block, data } => Work::Write { block, data },
            IoOp::Flush => Work::Flush,
        };
        self.submit_work(class, work)
    }

    /// Submits an opaque background job at `class`. The job's error (if
    /// any) lands on the completion token like a device error.
    pub fn submit_job(
        &self,
        class: Priority,
        job: Box<dyn FnOnce() -> hfad_storage::Result<()> + Send>,
    ) -> Result<Completion> {
        self.submit_work(class, Work::Job(job))
    }

    /// Convenience: submit a read of `block`.
    pub fn read(&self, class: Priority, block: u64) -> Result<Completion> {
        self.submit(class, IoOp::Read { block })
    }

    /// Convenience: submit a write of `data` to `block`.
    pub fn write(&self, class: Priority, block: u64, data: &[u8]) -> Result<Completion> {
        self.submit(
            class,
            IoOp::Write {
                block,
                data: Arc::from(data),
            },
        )
    }

    /// Convenience: submit a flush.
    pub fn flush(&self, class: Priority) -> Result<Completion> {
        self.submit(class, IoOp::Flush)
    }

    fn submit_work(&self, class: Priority, work: Work) -> Result<Completion> {
        let shared = &self.shared;
        let class_config = shared.config.classes[class.index()];
        let mut core = shared.core.lock().unwrap();
        loop {
            if core.shutdown {
                return Err(EngineError::Shutdown);
            }
            if core.depth_of(class) < class_config.capacity {
                break;
            }
            match class_config.policy {
                AdmissionPolicy::Reject => {
                    core.stats.classes[class.index()].rejected += 1;
                    return Err(EngineError::QueueFull);
                }
                AdmissionPolicy::Block => core = shared.cv.wait(core).unwrap(),
            }
        }
        let state = CompletionState::new();
        core.admit(class, work, Arc::clone(&state));
        drop(core);
        shared.cv.notify_all();
        Ok(Completion { state })
    }

    /// Blocks until every admitted op has completed. New submissions
    /// arriving while waiting extend the wait.
    pub fn wait_idle(&self) {
        let mut core = self.shared.core.lock().unwrap();
        while core.total_pending() > 0 {
            core = self.shared.cv.wait(core).unwrap();
        }
    }

    /// Snapshot of the per-class counters.
    ///
    /// Counters are updated when a worker retires an op, which can lag
    /// the op's own completion token by a scheduling instant — after
    /// `token.wait()` the matching counter increment may not be
    /// visible yet. Call [`Engine::wait_idle`] first for an exact
    /// quiescent snapshot.
    pub fn stats(&self) -> EngineStats {
        self.shared.core.lock().unwrap().stats
    }

    /// A [`BackgroundExecutor`] handle that submits jobs at `class`.
    ///
    /// Lazy indexing rides [`Priority::Index`], bounded by that class's
    /// admission control; the OSD's journal checkpointer drains through
    /// [`Priority::WriteBehind`], so checkpoint I/O is scheduled (and
    /// admission-bounded) exactly like dirty-page writeback rather than
    /// competing with foreground ops.
    pub fn executor(self: &Arc<Engine>, class: Priority) -> Arc<dyn BackgroundExecutor> {
        Arc::new(ClassExecutor {
            engine: Arc::clone(self),
            class,
        })
    }

    /// Stops accepting work, drains everything already admitted (including
    /// chained ops and pending flush gates) and joins the workers.
    /// Idempotent.
    pub fn shutdown(&self) {
        {
            let mut core = self.shared.core.lock().unwrap();
            core.shutdown = true;
        }
        self.shared.cv.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// [`Engine::executor`]'s handle: a [`BackgroundExecutor`] pinned to one
/// priority class.
struct ClassExecutor {
    engine: Arc<Engine>,
    class: Priority,
}

impl BackgroundExecutor for ClassExecutor {
    fn submit_background(
        &self,
        job: Box<dyn FnOnce() + Send>,
    ) -> std::result::Result<(), SubmitError> {
        self.engine
            .submit_job(
                self.class,
                Box::new(move || {
                    job();
                    Ok(())
                }),
            )
            .map(|_| ())
            .map_err(|e| match e {
                EngineError::QueueFull => SubmitError::Full,
                _ => SubmitError::Stopped,
            })
    }
}

/// One execution attempt of a re-issuable device op (`work` must not be
/// [`Work::Job`]).
fn execute_device(shared: &Shared, work: &Work) -> CompletionResult {
    match work {
        Work::Read { block } => {
            let mut buf = vec![0u8; shared.device.block_size()];
            shared
                .device
                .read_block(*block, &mut buf)
                .map(|_| Some(Arc::from(buf.into_boxed_slice())))
                .map_err(EngineError::Storage)
        }
        Work::Write { block, data } => shared
            .device
            .write_block(*block, data)
            .map(|_| None)
            .map_err(EngineError::Storage),
        Work::Flush => shared
            .device
            .flush()
            .map(|_| None)
            .map_err(EngineError::Storage),
        Work::Job(_) => unreachable!("jobs are executed once, not via execute_device"),
    }
}

/// What one (possibly retried) execution cost, for the retire-side
/// counters.
struct ExecOutcome {
    result: CompletionResult,
    /// Re-attempts performed after transient failures.
    retries: u64,
    /// The op surfaced a transient error with its retry budget spent.
    gave_up: bool,
}

/// Executes `work`, re-attempting transient device failures under the
/// class's [`RetryPolicy`]. Jobs are `FnOnce` closures (the work is
/// consumed by running it), so they execute exactly once — a job that
/// wants retry semantics owns them internally.
fn execute(shared: &Shared, work: Work, policy: RetryPolicy) -> ExecOutcome {
    if let Work::Job(job) = work {
        return ExecOutcome {
            result: job().map(|_| None).map_err(EngineError::Storage),
            retries: 0,
            gave_up: false,
        };
    }
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 1;
    let mut retries = 0;
    loop {
        let result = execute_device(shared, &work);
        let transient = matches!(&result, Err(e) if e.is_transient());
        if transient && attempt < attempts {
            retries += 1;
            let pause = policy.backoff(attempt);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            attempt += 1;
            continue;
        }
        return ExecOutcome {
            result,
            retries,
            gave_up: transient && retries > 0,
        };
    }
}

fn worker_loop(shared: &Shared) {
    let mut core = shared.core.lock().unwrap();
    loop {
        if let Some(op) = core.pop_next(shared.config.aging) {
            let seq = op.seq;
            let class = op.class;
            let block = op.work.block();
            let was_flush = op.work.is_flush();
            let completion = Arc::clone(&op.completion);
            drop(core);

            let started = Instant::now();
            let outcome = execute(shared, op.work, shared.config.retry[class.index()]);
            let service = started.elapsed();
            let succeeded = outcome.result.is_ok();
            // Fulfil before retiring: a flush gate must not release
            // (letting the flush token complete) until every gated
            // write's own token is already observable as done. The
            // cost is that stats lag a token's `wait()` by one lock
            // acquisition — `wait_idle()` is the quiescent point.
            completion.fulfil(outcome.result);

            core = shared.core.lock().unwrap();
            {
                let stats = &mut core.stats.classes[class.index()];
                stats.retried += outcome.retries;
                if outcome.gave_up {
                    stats.gave_up += 1;
                }
            }
            core.retire(seq, class, block, was_flush, succeeded, service);
            // Completion frees admission capacity and may have released
            // chained ops or flush gates; wake submitters and siblings.
            drop(core);
            shared.cv.notify_all();
            core = shared.core.lock().unwrap();
            continue;
        }
        if core.shutdown && core.total_pending() == 0 {
            drop(core);
            // Last one out wakes any thread stuck in wait_idle/shutdown.
            shared.cv.notify_all();
            return;
        }
        core = shared.cv.wait(core).unwrap();
    }
}
