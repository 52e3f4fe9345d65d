//! Background services layered on the engine: engine-driven sequential
//! read-ahead and watermark-driven dirty-page write-behind.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use hfad_storage::{BlockDevice, CachedDevice, PrefetchSink};

use crate::engine::Engine;
use crate::op::Priority;

/// [`PrefetchSink`] that turns the block cache's sequential-run
/// predictions into [`Priority::ReadAhead`] jobs populating the cache.
///
/// The cache detects ascending-block runs on its foreground read path and
/// hands predicted blocks here; each becomes one engine job calling
/// [`CachedDevice::populate`], which uses the cache's single-flight miss
/// protocol so a prefetch and a racing foreground miss never both hit the
/// device. When the ReadAhead class is at capacity the prediction is
/// simply dropped (counted in [`EngineStats`](crate::EngineStats) as
/// rejected) — prefetch is speculative, shedding it is always safe.
///
/// Holds the cache weakly: the cache owns the sink (via
/// `set_read_ahead`), so a strong reference back would leak both.
pub struct EnginePrefetcher<D: BlockDevice + 'static> {
    engine: Arc<Engine>,
    cache: Weak<CachedDevice<D>>,
}

impl<D: BlockDevice + 'static> EnginePrefetcher<D> {
    /// Wires engine-driven read-ahead into `cache`: sequential runs of
    /// `trigger` blocks prefetch up to `window` blocks ahead.
    pub fn attach(engine: Arc<Engine>, cache: &Arc<CachedDevice<D>>, window: u64, trigger: u64) {
        let sink = Arc::new(EnginePrefetcher {
            engine,
            cache: Arc::downgrade(cache),
        });
        cache.set_read_ahead(window, trigger, sink);
    }
}

impl<D: BlockDevice + 'static> PrefetchSink for EnginePrefetcher<D> {
    fn prefetch(&self, blocks: Vec<u64>) {
        for block in blocks {
            let Some(cache) = self.cache.upgrade() else {
                return;
            };
            // QueueFull drops this prediction; the next run re-predicts.
            let _ = self.engine.submit_job(
                Priority::ReadAhead,
                Box::new(move || cache.populate(block).map(|_| ())),
            );
        }
    }
}

/// Configuration for the [`WriteBehind`] trickle flusher.
#[derive(Debug, Clone, Copy)]
pub struct WriteBehindConfig {
    /// Dirty-frame count above which the flusher starts trickling.
    pub high_watermark: usize,
    /// Frames written back per engine job.
    pub batch: usize,
    /// Poll interval while below the watermark.
    pub interval: Duration,
}

impl Default for WriteBehindConfig {
    fn default() -> Self {
        WriteBehindConfig {
            high_watermark: 64,
            batch: 16,
            interval: Duration::from_millis(1),
        }
    }
}

/// Watermark-driven dirty-page flusher.
///
/// A monitor thread polls the cache's dirty count; above the watermark it
/// submits [`CachedDevice::writeback_some`] batches at
/// [`Priority::WriteBehind`] and waits for each batch's completion before
/// submitting the next, so write-behind self-paces instead of flooding
/// the scheduler. Pages are written back but stay cached (and stay
/// evictable-clean), shrinking the synchronous work left for `flush`.
///
/// A batch that makes no progress — a retain-dirty cache (persistent
/// stores checkpoint through the doublewrite region instead of trickle-
/// flushing) or an all-pinned dirty set — backs off for the poll interval
/// rather than resubmitting immediately; without that, the monitor would
/// busy-loop submitting no-op jobs at the `WriteBehind` class forever.
pub struct WriteBehind {
    stop: Arc<AtomicBool>,
    monitor: Option<JoinHandle<()>>,
}

impl WriteBehind {
    /// Starts the flusher over `cache`, submitting through `engine`.
    pub fn start<D: BlockDevice + 'static>(
        engine: Arc<Engine>,
        cache: Arc<CachedDevice<D>>,
        config: WriteBehindConfig,
    ) -> WriteBehind {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let monitor = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                if cache.dirty_blocks() > config.high_watermark {
                    let job_cache = Arc::clone(&cache);
                    let batch = config.batch;
                    let wrote = Arc::new(std::sync::atomic::AtomicUsize::new(0));
                    let job_wrote = Arc::clone(&wrote);
                    match engine.submit_job(
                        Priority::WriteBehind,
                        Box::new(move || {
                            let n = job_cache.writeback_some(batch)?;
                            job_wrote.store(n, Ordering::Release);
                            Ok(())
                        }),
                    ) {
                        // Self-pacing: wait out this batch (errors land on
                        // the token; the next tick tries again). A
                        // zero-progress batch additionally backs off: the
                        // dirty count is high but nothing is writable
                        // (retain-dirty mode, pinned frames), so spinning
                        // on no-op submissions helps no one.
                        Ok(token) => {
                            let _ = token.wait();
                            if wrote.load(Ordering::Acquire) == 0 {
                                std::thread::sleep(config.interval);
                            }
                        }
                        // Engine gone or full: back off.
                        Err(_) => std::thread::sleep(config.interval),
                    }
                } else {
                    std::thread::sleep(config.interval);
                }
            }
        });
        WriteBehind {
            stop,
            monitor: Some(monitor),
        }
    }

    /// Stops the monitor thread. In-flight batches finish on the engine.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        self.stop();
    }
}
