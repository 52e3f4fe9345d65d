//! The engine proper: submission API, admission control and worker pool.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hfad_storage::{BackgroundExecutor, BlockDevice, SubmitError};

use crate::error::{EngineError, Result};
use crate::op::{Completion, CompletionState, Priority};
use crate::sched::{Core, Job};
use crate::stats::EngineStats;

/// Worker threads of [`Engine::new`].
const DEFAULT_WORKERS: usize = 4;

/// Queue wait after which a lower-priority job is served ahead of higher
/// classes (the starvation bound).
const AGING: Duration = Duration::from_millis(5);

/// Admission bound per class, in [`Priority::ALL`] order: jobs admitted
/// and not yet completed. A full class blocks its submitter, except
/// [`Priority::ReadAhead`], which rejects (see [`Engine::submit_job`]).
const CAPACITY: [usize; 4] = [
    4096, // Foreground never sheds load; callers would just retry.
    1024, // Checkpoint drains: the checkpointer keeps at most one in flight.
    256,  // Speculative prefetch is the first thing to drop.
    1024, // Lazy indexing blocks its producer (bounded backlog).
];

struct Shared {
    /// The device [`Engine::read`] reads from.
    device: Arc<dyn BlockDevice>,
    core: Mutex<Core>,
    /// Single condvar for all scheduler events (work arrival, completion,
    /// admission vacancy, idle, shutdown); notified broadly. Simpler than
    /// three condvars and plenty for single-digit worker counts.
    cv: Condvar,
}

/// The engine: a priority job scheduler drained by a worker pool.
///
/// ```
/// use std::sync::Arc;
/// use hfad_storage::{BlockDevice, MemDevice};
/// use hfad_engine::{Engine, Priority};
///
/// let device = Arc::new(MemDevice::new(64, 512));
/// let engine = Engine::new(device.clone());
/// engine
///     .submit_job(
///         Priority::Index,
///         Box::new(move || device.write_block(3, &[7u8; 512])),
///     )
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
    /// Starts an engine with four workers over `device`.
    pub fn new(device: Arc<dyn BlockDevice>) -> Arc<Engine> {
        Engine::with_workers(device, DEFAULT_WORKERS)
    }

    /// Starts an engine with `workers` worker threads (minimum 1).
    pub fn with_workers(device: Arc<dyn BlockDevice>, workers: usize) -> Arc<Engine> {
        let shared = Arc::new(Shared {
            device,
            core: Mutex::new(Core::new()),
            cv: Condvar::new(),
        });
        let handles = (0..workers.max(1))
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

    /// Submits a job at `class` and returns its completion token. The
    /// job runs exactly once; its error (if any) lands on the token and
    /// in the class's `failed` counter. A job that wants retries owns
    /// them.
    ///
    /// At capacity a [`Priority::ReadAhead`] submission fails with
    /// [`EngineError::QueueFull`] (prefetch is speculative, shedding it
    /// is always safe); every other class blocks the submitter until a
    /// slot frees.
    pub fn submit_job(
        &self,
        class: Priority,
        job: Box<dyn FnOnce() -> hfad_storage::Result<()> + Send>,
    ) -> Result<Completion> {
        self.enqueue(
            class,
            Box::new(move || job().map(|_| None).map_err(EngineError::Storage)),
        )
    }

    /// Submits a job at `class` that reads `block` from the engine's
    /// device and delivers the bytes on its token
    /// ([`Completion::wait_read`]).
    pub fn read(&self, class: Priority, block: u64) -> Result<Completion> {
        let device = Arc::clone(&self.shared.device);
        self.enqueue(
            class,
            Box::new(move || {
                let mut buf = vec![0u8; device.block_size()];
                device.read_block(block, &mut buf)?;
                Ok(Some(Arc::from(buf.into_boxed_slice())))
            }),
        )
    }

    fn enqueue(&self, class: Priority, job: Job) -> Result<Completion> {
        let shared = &self.shared;
        let mut core = shared.core.lock().unwrap();
        loop {
            if core.shutdown {
                return Err(EngineError::Shutdown);
            }
            if core.depth_of(class) < CAPACITY[class.index()] {
                break;
            }
            if class == Priority::ReadAhead {
                core.stats.classes[class.index()].rejected += 1;
                return Err(EngineError::QueueFull);
            }
            core = shared.cv.wait(core).unwrap();
        }
        let state = CompletionState::new();
        core.admit(class, job, Arc::clone(&state));
        drop(core);
        shared.cv.notify_all();
        Ok(Completion { state })
    }

    /// Blocks until every admitted job has completed. New submissions
    /// arriving while waiting extend the wait.
    pub fn wait_idle(&self) {
        let mut core = self.shared.core.lock().unwrap();
        while core.total_pending() > 0 {
            core = self.shared.cv.wait(core).unwrap();
        }
    }

    /// Snapshot of the per-class counters. A job is counted before its
    /// token completes, so after `token.wait()` the snapshot includes it.
    pub fn stats(&self) -> EngineStats {
        self.shared.core.lock().unwrap().stats
    }

    /// A [`BackgroundExecutor`] handle that submits jobs at `class`.
    ///
    /// Lazy indexing rides [`Priority::Index`], bounded by that class's
    /// admission control; the OSD's journal checkpointer drains through
    /// [`Priority::Checkpoint`], so checkpoint I/O is scheduled (and
    /// admission-bounded) below foreground work rather than competing
    /// with it.
    pub fn executor(self: &Arc<Engine>, class: Priority) -> Arc<dyn BackgroundExecutor> {
        Arc::new(ClassExecutor {
            engine: Arc::clone(self),
            class,
        })
    }

    /// Stops accepting work, runs every job already admitted and joins
    /// the workers. Idempotent.
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

fn worker_loop(shared: &Shared) {
    let mut core = shared.core.lock().unwrap();
    loop {
        if let Some(pending) = core.pop_next(AGING) {
            drop(core);
            let started = Instant::now();
            let result = (pending.job)();
            let service = started.elapsed();

            core = shared.core.lock().unwrap();
            core.retire(pending.class, result.is_ok(), service);
            // Under the lock, so a waited token implies the counters and
            // an idle engine implies every token.
            pending.completion.fulfil(result);
            // Completion frees admission capacity; wake submitters and
            // `wait_idle`.
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
