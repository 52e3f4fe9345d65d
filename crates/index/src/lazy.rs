//! Lazy, background full-text indexing.
//!
//! The paper: "we use background threads to perform lazy full-text
//! indexing" (§3.4). [`LazyIndexer`] accepts `(object, text)` work and
//! processes it in the background; callers continue immediately.
//! Experiment E4 compares the ingest throughput of this lazy path against
//! inline [`FullTextIndex::index_document`] calls.
//!
//! The indexer owns no threads: each work item is submitted to a
//! [`BackgroundExecutor`] (in practice the background-job engine's `Index`
//! priority class), so indexing shares one scheduler with read-ahead and
//! checkpoint drains and inherits the executor's bounded admission as
//! its backpressure.
//!
//! Pending items are counted per object, so a caller that removes an
//! object's postings can first wait, with [`LazyIndexer::wait_for`], until
//! no queued job for that object can re-add them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use hfad_osd::ObjectId;
use hfad_storage::{BackgroundExecutor, SubmitError};

use crate::error::{IndexError, Result};
use crate::fulltext::FullTextIndex;

/// Counters describing the indexer's progress.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LazyStats {
    /// Work items accepted.
    pub enqueued: u64,
    /// Work items fully processed.
    pub completed: u64,
    /// Work items that failed (the error is recorded and the worker moves
    /// on; failures never take the pipeline down).
    pub failed: u64,
    /// Work items refused by a full [`BackgroundExecutor`]; never counted
    /// in `enqueued`.
    pub rejected: u64,
}

/// Items submitted but not yet processed, counted per object. An object
/// with nothing pending has no entry.
///
/// `drain` waits on `empty`, which is signalled only when the last pending
/// item finishes. `wait_for` callers register in `waiters` and wait on
/// `object_idle`, which is signalled when an object's count reaches zero
/// while someone waits; with no waiter, finishing an item wakes no one.
#[derive(Default)]
struct Pending {
    state: Mutex<PendingState>,
    empty: Condvar,
    object_idle: Condvar,
}

#[derive(Default)]
struct PendingState {
    counts: HashMap<ObjectId, u64>,
    waiters: usize,
}

impl Pending {
    fn lock(&self) -> MutexGuard<'_, PendingState> {
        self.state
            .lock()
            .expect("no thread panics while holding the pending counts")
    }

    fn add(&self, oid: ObjectId) {
        *self.lock().counts.entry(oid).or_default() += 1;
    }

    fn done(&self, oid: ObjectId) {
        let mut state = self.lock();
        let count = state.counts.get_mut(&oid).expect("a done item was added");
        *count -= 1;
        if *count == 0 {
            state.counts.remove(&oid);
            if state.counts.is_empty() {
                self.empty.notify_all();
            }
            if state.waiters > 0 {
                self.object_idle.notify_all();
            }
        }
    }

    fn wait_until_empty(&self) {
        let state = self.empty.wait_while(self.lock(), |s| !s.counts.is_empty());
        drop(state.expect("no thread panics while holding the pending counts"));
    }

    fn wait_until_idle(&self, oid: ObjectId) {
        let mut state = self.lock();
        if !state.counts.contains_key(&oid) {
            return;
        }
        state.waiters += 1;
        let mut state = self
            .object_idle
            .wait_while(state, |s| s.counts.contains_key(&oid))
            .expect("no thread panics while holding the pending counts");
        state.waiters -= 1;
    }
}

/// Background lazy indexing over a shared [`FullTextIndex`].
pub struct LazyIndexer {
    index: Arc<FullTextIndex>,
    executor: Arc<dyn BackgroundExecutor>,
    stopped: AtomicBool,
    enqueued: AtomicU64,
    rejected: AtomicU64,
    completed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    pending: Arc<Pending>,
}

impl LazyIndexer {
    /// Creates an indexer whose every work item becomes a job on
    /// `executor` (the async engine's `Index` class). Backpressure is the
    /// executor's bounded admission — a refused job surfaces as
    /// [`IndexError::QueueFull`] and a rejection count.
    pub fn with_executor(index: Arc<FullTextIndex>, executor: Arc<dyn BackgroundExecutor>) -> Self {
        LazyIndexer {
            index,
            executor,
            stopped: AtomicBool::new(false),
            enqueued: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: Arc::new(AtomicU64::new(0)),
            failed: Arc::new(AtomicU64::new(0)),
            pending: Arc::default(),
        }
    }

    /// The full-text index the jobs feed.
    pub fn index(&self) -> &Arc<FullTextIndex> {
        &self.index
    }

    /// Enqueues a document for indexing and returns immediately (or, when
    /// the executor blocks at capacity, once it has room).
    ///
    /// Keeps the accounting invariant: exactly one of `enqueued`/`rejected`
    /// grows per accepted or refused call. The item counts as pending
    /// before it is submitted, because the job may run (and finish) before
    /// `submit_background` returns; a refused item is uncounted again.
    pub fn enqueue(&self, oid: ObjectId, text: impl Into<String>) -> Result<()> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(IndexError::IndexerStopped);
        }
        let text = text.into();
        let index = Arc::clone(&self.index);
        let completed = Arc::clone(&self.completed);
        let failed = Arc::clone(&self.failed);
        let pending = Arc::clone(&self.pending);
        let job: Box<dyn FnOnce() + Send> = Box::new(move || {
            match index.index_document(oid, &text) {
                Ok(_) => completed.fetch_add(1, Ordering::Relaxed),
                Err(_) => failed.fetch_add(1, Ordering::Relaxed),
            };
            pending.done(oid);
        });
        self.pending.add(oid);
        self.executor.submit_background(job).map_err(|e| {
            self.pending.done(oid);
            match e {
                SubmitError::Full => {
                    self.rejected.fetch_add(1, Ordering::Relaxed);
                    IndexError::QueueFull
                }
                SubmitError::Stopped => IndexError::IndexerStopped,
            }
        })?;
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of items submitted but not yet processed.
    pub fn backlog(&self) -> u64 {
        self.pending.lock().counts.values().sum()
    }

    /// Blocks until every item enqueued so far has been processed.
    pub fn drain(&self) {
        self.pending.wait_until_empty();
    }

    /// Blocks until no item for `oid` is pending, so postings removed after
    /// this returns stay removed (unless `oid` is enqueued again).
    pub fn wait_for(&self, oid: ObjectId) {
        self.pending.wait_until_idle(oid);
    }

    /// Progress counters.
    pub fn stats(&self) -> LazyStats {
        LazyStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting work. Already-submitted jobs finish on the shared
    /// executor.
    pub fn shutdown(&mut self) {
        self.stopped.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use hfad_btree::TreeContext;
    use hfad_storage::{BuddyAllocator, MemDevice};

    use super::*;

    fn fulltext() -> Arc<FullTextIndex> {
        let device = Arc::new(MemDevice::new(65536, 512));
        let allocator = Arc::new(BuddyAllocator::new(1, 65535));
        Arc::new(FullTextIndex::new(TreeContext::new(device, allocator), 4).unwrap())
    }

    /// Executor that runs every job on a thread of its own and joins them
    /// all when dropped.
    #[derive(Default)]
    struct ThreadExecutor {
        threads: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    }

    impl BackgroundExecutor for ThreadExecutor {
        fn submit_background(
            &self,
            job: Box<dyn FnOnce() + Send>,
        ) -> std::result::Result<(), SubmitError> {
            self.threads.lock().push(std::thread::spawn(job));
            Ok(())
        }
    }

    impl Drop for ThreadExecutor {
        fn drop(&mut self) {
            for handle in self.threads.get_mut().drain(..) {
                handle.join().expect("index job panicked");
            }
        }
    }

    fn threaded(index: Arc<FullTextIndex>) -> LazyIndexer {
        LazyIndexer::with_executor(index, Arc::new(ThreadExecutor::default()))
    }

    #[test]
    fn background_indexing_eventually_visible() {
        let indexer = threaded(fulltext());
        for i in 0..50u64 {
            indexer
                .enqueue(ObjectId(i), format!("document {i} about lazy indexing"))
                .unwrap();
        }
        indexer.drain();
        let stats = indexer.stats();
        assert_eq!(stats.enqueued, 50);
        assert_eq!(stats.completed, 50);
        assert_eq!(stats.failed, 0);
        assert_eq!(indexer.index().lookup_term("lazy").unwrap().len(), 50);
        assert_eq!(indexer.index().documents_indexed(), 50);
    }

    /// Executor that holds every job until `release` runs them in order.
    #[derive(Default)]
    struct HeldExecutor {
        jobs: parking_lot::Mutex<Vec<Box<dyn FnOnce() + Send>>>,
    }

    impl BackgroundExecutor for HeldExecutor {
        fn submit_background(
            &self,
            job: Box<dyn FnOnce() + Send>,
        ) -> std::result::Result<(), SubmitError> {
            self.jobs.lock().push(job);
            Ok(())
        }
    }

    impl HeldExecutor {
        fn release(&self) {
            let jobs = std::mem::take(&mut *self.jobs.lock());
            for job in jobs {
                job();
            }
        }

        /// Runs the oldest held job.
        fn release_one(&self) {
            let job = self.jobs.lock().remove(0);
            job();
        }
    }

    #[test]
    fn wait_for_blocks_until_the_objects_items_finish() {
        let executor = Arc::new(HeldExecutor::default());
        let indexer = Arc::new(LazyIndexer::with_executor(
            fulltext(),
            Arc::clone(&executor) as Arc<dyn BackgroundExecutor>,
        ));
        indexer.enqueue(ObjectId(1), "held back").unwrap();
        indexer.enqueue(ObjectId(1), "held again").unwrap();
        // Nothing is pending for another object: no wait.
        indexer.wait_for(ObjectId(2));
        assert_eq!(indexer.backlog(), 2);
        let waiter = {
            let indexer = Arc::clone(&indexer);
            std::thread::spawn(move || {
                indexer.wait_for(ObjectId(1));
                indexer.index().lookup_term("held").unwrap()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!waiter.is_finished(), "two items for object 1 are held");
        executor.release();
        assert_eq!(waiter.join().unwrap(), vec![ObjectId(1)]);
        assert_eq!(indexer.backlog(), 0);
    }

    #[test]
    fn wait_for_wakes_on_its_object_and_drain_on_the_last_item() {
        let executor = Arc::new(HeldExecutor::default());
        let indexer = Arc::new(LazyIndexer::with_executor(
            fulltext(),
            Arc::clone(&executor) as Arc<dyn BackgroundExecutor>,
        ));
        indexer.enqueue(ObjectId(1), "first object").unwrap();
        indexer.enqueue(ObjectId(2), "second object").unwrap();
        let spawn = |f: fn(&LazyIndexer)| {
            let indexer = Arc::clone(&indexer);
            std::thread::spawn(move || f(&indexer))
        };
        let waiter = spawn(|indexer| indexer.wait_for(ObjectId(1)));
        let drainer = spawn(LazyIndexer::drain);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!waiter.is_finished() && !drainer.is_finished());
        // Object 1 finishes while object 2 is still held: the waiter
        // returns, the drainer keeps waiting.
        executor.release_one();
        waiter.join().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!drainer.is_finished(), "object 2 is still pending");
        executor.release_one();
        drainer.join().unwrap();
        assert_eq!(indexer.backlog(), 0);
    }

    #[test]
    fn shutdown_then_enqueue_fails() {
        let mut indexer = threaded(fulltext());
        indexer.enqueue(ObjectId(1), "before shutdown").unwrap();
        indexer.shutdown();
        assert!(matches!(
            indexer.enqueue(ObjectId(2), "after shutdown"),
            Err(IndexError::IndexerStopped)
        ));
        // Work submitted before shutdown still completes on the executor.
        indexer.drain();
        assert_eq!(indexer.index().lookup_term("before").unwrap().len(), 1);
    }

    #[test]
    fn many_producers_one_pool() {
        let indexer = Arc::new(threaded(fulltext()));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let indexer = Arc::clone(&indexer);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    indexer
                        .enqueue(ObjectId(t * 100 + i), format!("thread {t} item {i} shared"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        indexer.drain();
        assert_eq!(indexer.index().lookup_term("shared").unwrap().len(), 100);
    }

    /// Executor that runs jobs inline until told to refuse them.
    struct ToggleExecutor {
        full: std::sync::atomic::AtomicBool,
    }

    impl BackgroundExecutor for ToggleExecutor {
        fn submit_background(
            &self,
            job: Box<dyn FnOnce() + Send>,
        ) -> std::result::Result<(), SubmitError> {
            if self.full.load(Ordering::Relaxed) {
                return Err(SubmitError::Full);
            }
            job();
            Ok(())
        }
    }

    #[test]
    fn executor_mode_runs_jobs_and_surfaces_backpressure() {
        let executor = Arc::new(ToggleExecutor {
            full: std::sync::atomic::AtomicBool::new(false),
        });
        let mut indexer = LazyIndexer::with_executor(
            fulltext(),
            Arc::clone(&executor) as Arc<dyn BackgroundExecutor>,
        );
        indexer.enqueue(ObjectId(1), "executor run").unwrap();
        indexer.drain();
        assert_eq!(indexer.index().lookup_term("executor").unwrap().len(), 1);

        executor.full.store(true, Ordering::Relaxed);
        assert!(matches!(
            indexer.enqueue(ObjectId(2), "refused"),
            Err(IndexError::QueueFull)
        ));
        let stats = indexer.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected, 1);

        indexer.shutdown();
        executor.full.store(false, Ordering::Relaxed);
        assert!(matches!(
            indexer.enqueue(ObjectId(3), "after stop"),
            Err(IndexError::IndexerStopped)
        ));
    }

    /// Executor that runs each job inline and then samples the indexer's
    /// backlog before `submit_background` returns.
    #[derive(Default)]
    struct InlineProbeExecutor {
        indexer: std::sync::OnceLock<std::sync::Weak<LazyIndexer>>,
        seen: parking_lot::Mutex<Vec<u64>>,
    }

    impl BackgroundExecutor for InlineProbeExecutor {
        fn submit_background(
            &self,
            job: Box<dyn FnOnce() + Send>,
        ) -> std::result::Result<(), SubmitError> {
            job();
            if let Some(indexer) = self.indexer.get().and_then(|w| w.upgrade()) {
                self.seen.lock().push(indexer.backlog());
            }
            Ok(())
        }
    }

    #[test]
    fn backlog_never_underflows_when_a_job_finishes_before_submit_returns() {
        let executor = Arc::new(InlineProbeExecutor::default());
        let indexer = Arc::new(LazyIndexer::with_executor(
            fulltext(),
            Arc::clone(&executor) as Arc<dyn BackgroundExecutor>,
        ));
        executor.indexer.set(Arc::downgrade(&indexer)).unwrap();
        for i in 0..3u64 {
            indexer.enqueue(ObjectId(i), "inline job").unwrap();
        }
        assert_eq!(*executor.seen.lock(), vec![0, 0, 0]);
        assert_eq!(indexer.backlog(), 0);
        indexer.drain();
        let stats = indexer.stats();
        assert_eq!((stats.enqueued, stats.completed), (3, 3));
    }

    #[test]
    fn drop_performs_clean_shutdown() {
        let index = fulltext();
        {
            let indexer = threaded(Arc::clone(&index));
            indexer.enqueue(ObjectId(9), "cleanup on drop").unwrap();
            // Dropped here together with its executor, which joins the
            // job's thread: nothing may hang or panic.
        }
        assert_eq!(index.lookup_term("cleanup").unwrap().len(), 1);
        index
            .index_document(ObjectId(10), "cleanup finished")
            .unwrap();
        assert_eq!(index.lookup_term("cleanup").unwrap().len(), 2);
    }
}
