//! Background service layered on the engine: engine-driven sequential
//! read-ahead.

use std::sync::{Arc, Weak};

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
