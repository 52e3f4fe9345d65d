//! The background checkpointer: watermark-driven journal reclaim.
//!
//! A [`Checkpointer`] watches a [`TxnStore`]'s circular journal and fires
//! [`TxnStore::checkpoint_background`] when any of three triggers hits:
//!
//! * **size watermark** — the live extent crossed a fraction of ring
//!   capacity (the steady-state trigger: reclaim starts long before the
//!   ring is full, so committers rarely stall at all);
//! * **age** — live bytes have been sitting unreclaimed too long (bounds
//!   recovery replay time on idle systems);
//! * **request** — a committer actually ran out of space and asked
//!   ([`TxnStore`] signals the monitor before blocking).
//!
//! The checkpoint itself — the store flush, the expensive part — can be
//! handed to a [`BackgroundExecutor`]. When the executor is the async
//! I/O engine, the checkpointer submits at its `Checkpoint` class, so
//! checkpoint drains are scheduled and admission-bounded below
//! foreground work instead of competing with it. The
//! monitor always waits for the submitted job to finish before arming
//! the next trigger, so at most one checkpoint is in flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hfad_storage::{BackgroundExecutor, RetryPolicy};

use crate::error::Result;
use crate::txn::TxnStore;

/// Watermark and cadence knobs for a [`Checkpointer`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig {
    /// Fire when live bytes exceed this percentage of ring capacity
    /// (1–99; the default 50 starts draining at half-full).
    pub watermark_pct: u8,
    /// Fire when live bytes have gone unreclaimed this long.
    pub max_age: Duration,
    /// Monitor poll cadence (also the latency bound on reacting to a
    /// watermark crossing when no committer signals explicitly).
    pub interval: Duration,
    /// Retry budget for transient checkpoint failures. While the budget
    /// lasts the store is marked [`Health::Degraded`]; a success restores
    /// it, exhaustion (or a permanent error) degrades it to read-only.
    ///
    /// [`Health::Degraded`]: hfad_storage::Health::Degraded
    pub retry: RetryPolicy,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            watermark_pct: 50,
            max_age: Duration::from_millis(250),
            interval: Duration::from_micros(500),
            retry: RetryPolicy::standard(),
        }
    }
}

struct Shared {
    txn_store: Arc<TxnStore>,
    executor: Option<Arc<dyn BackgroundExecutor>>,
    config: CheckpointConfig,
    stop: AtomicBool,
}

/// A monitor thread driving watermark checkpoints for one [`TxnStore`].
///
/// While attached, the store's commit path treats a full journal as
/// backpressure (block briefly for the in-flight drain) instead of
/// checkpointing inline. Detaches and joins on [`stop`](Self::stop) or
/// drop.
pub struct Checkpointer {
    shared: Arc<Shared>,
    monitor: Option<JoinHandle<()>>,
}

impl Checkpointer {
    /// Starts the monitor. `executor` is where the checkpoint body runs:
    /// pass the engine's `Checkpoint`-class executor to schedule drains
    /// below foreground work, or `None` to run them on the monitor
    /// thread directly.
    pub fn start(
        txn_store: Arc<TxnStore>,
        executor: Option<Arc<dyn BackgroundExecutor>>,
        config: CheckpointConfig,
    ) -> Checkpointer {
        let watermark = config.watermark_pct.clamp(1, 99) as f64 / 100.0;
        txn_store.attach_checkpointer();
        let shared = Arc::new(Shared {
            txn_store,
            executor,
            config,
            stop: AtomicBool::new(false),
        });
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || monitor_loop(&shared, watermark))
        };
        Checkpointer {
            shared,
            monitor: Some(monitor),
        }
    }

    /// Detaches from the store (releasing any stalled committers into the
    /// inline-checkpoint path) and joins the monitor. Idempotent.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // Detaching also wakes the monitor's signal wait.
        self.shared.txn_store.detach_checkpointer();
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn monitor_loop(shared: &Shared, watermark: f64) {
    let ts = &shared.txn_store;
    let journal = ts.journal();
    let mut last_reclaim = Instant::now();
    loop {
        ts.wait_checkpoint_signal(shared.config.interval);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let requested = ts.take_checkpoint_request();
        let live = journal.live_bytes();
        let over_watermark = journal.utilization() >= watermark;
        let over_age = live > 0 && last_reclaim.elapsed() >= shared.config.max_age;
        if !(requested || over_watermark || over_age) {
            continue;
        }
        if !ts.health().is_writable() {
            // Nothing left to drain into a store that rejects writes;
            // park until detach instead of hammering the failed device.
            continue;
        }
        run_checkpoint_with_retry(shared);
        last_reclaim = Instant::now();
    }
}

/// Runs one checkpoint, absorbing transient device faults with the
/// configured retry budget and reporting into the store's health
/// machine: [`Degraded`](hfad_storage::Health::Degraded) while retrying,
/// restored on success, read-only once the budget is exhausted or the
/// error is permanent (committers must not wait forever on reclaim that
/// will never come — `note`: the transition also wakes space-waiters).
fn run_checkpoint_with_retry(shared: &Shared) {
    let ts = &shared.txn_store;
    let policy = shared.config.retry;
    let mut attempt = 1u32;
    loop {
        match run_checkpoint(shared) {
            Ok(()) => {
                ts.health_state().restore();
                return;
            }
            Err(err) if err.is_transient() && attempt < policy.max_attempts => {
                ts.health_state().degrade(&format!(
                    "background checkpoint attempt {attempt} failed transiently: {err}"
                ));
                std::thread::sleep(policy.backoff(attempt));
                attempt += 1;
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(err) => {
                ts.report_checkpoint_failure(&format!(
                    "background checkpoint failed after {attempt} attempt(s): {err}"
                ));
                return;
            }
        }
    }
}

/// Runs one checkpoint attempt, through the executor when one is
/// attached, and waits for it to finish (at most one drain in flight).
fn run_checkpoint(shared: &Shared) -> Result<()> {
    if let Some(executor) = &shared.executor {
        let ts = Arc::clone(&shared.txn_store);
        let (done_tx, done_rx) = std::sync::mpsc::channel::<Result<()>>();
        let submitted = executor.submit_background(Box::new(move || {
            let _ = done_tx.send(ts.checkpoint_background());
        }));
        if submitted.is_ok() {
            return match done_rx.recv() {
                Ok(result) => result,
                // The job was dropped unrun (executor shut down mid-job);
                // treat it as a skipped attempt, not a device failure.
                Err(_) => Ok(()),
            };
        }
        // Executor full or stopped: fall through to the monitor thread.
    }
    shared.txn_store.checkpoint_background()
}
