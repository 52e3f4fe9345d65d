//! Optional transactional wrapper over the object store.
//!
//! The paper: "In ZFS, the DMU is a transactional object store; in hFAD,
//! the OSD may be transactional, but this is an implementation decision,
//! not a requirement" (§3.3). [`TxnStore`] makes the decision configurable:
//! data operations are buffered in a [`Transaction`], logged to the
//! write-ahead journal at commit, synced, and only then applied to the
//! store. Experiment E6 ablates its cost against the plain store.
//!
//! The journal is intentionally a single serial log even though the store
//! underneath is sharded (see [`crate::store`]): commit ordering is a
//! durability property, not a namespace property, so transactions pay one
//! append stream while the applied operations still spread across the
//! store's shards. What *is* amortised is the flush: commits go through
//! the storage layer's [`GroupCommit`] pipeline, so concurrent
//! transactions share one contiguous journal append and one device sync
//! per batch (configure with [`TxnStore::with_config`]; a `max_batch` of
//! zero reproduces the sync-per-commit seed behaviour for the E8
//! ablation).
//!
//! The journal is circular, so sustained write traffic is a first-class
//! citizen: a full ring is **backpressure, not an error**. With a
//! [`crate::checkpoint::Checkpointer`] attached, checkpoints fire off
//! size/age watermarks and run concurrently with new admissions
//! ([`TxnStore::checkpoint_background`]); a committer that outruns the
//! drain briefly blocks until extents are reclaimed. Without one, a full
//! ring triggers the inline stop-the-world checkpoint, preserving the
//! seed contract. Either way `JournalFull` only reaches callers for a
//! transaction bigger than the empty ring. Stall time and checkpoint
//! counts are exposed via [`TxnStore::checkpoint_stats`], and experiment
//! E11 measures the steady-state difference between the two modes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::{Condvar, Mutex};

use hfad_storage::{
    GroupCommit, GroupCommitConfig, GroupCommitStats, Health, HealthState, Journal, RecordKind,
    StorageError,
};
use parking_lot::RwLock;

use crate::error::{OsdError, Result};
use crate::meta::ObjectMeta;
use crate::oid::ObjectId;
use crate::persist::{PersistCtx, StoreMeta};
use crate::store::{ObjectStore, StoreStats};

/// A logged, redo-only operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Overwrite/extend at an offset.
    Write {
        /// Target object.
        oid: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Insert bytes into the middle of an object.
    Insert {
        /// Target object.
        oid: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Bytes to insert.
        data: Vec<u8>,
    },
    /// Remove a byte range from an object.
    TruncateRange {
        /// Target object.
        oid: ObjectId,
        /// Byte offset.
        offset: u64,
        /// Bytes to remove.
        len: u64,
    },
    /// Create an empty object under a pre-allocated id.
    ///
    /// The id is drawn from the store's allocator when the operation is
    /// buffered, so replaying the record recreates the *same* object; the
    /// apply is idempotent (an existing id is left untouched).
    Create {
        /// The pre-allocated object id.
        oid: ObjectId,
        /// Initial metadata.
        meta: ObjectMeta,
    },
    /// Delete an object and free its storage.
    Delete {
        /// Target object.
        oid: ObjectId,
    },
}

impl TxnOp {
    /// Serialises the operation for the journal.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            TxnOp::Write { oid, offset, data } => {
                out.push(1);
                out.extend_from_slice(&oid.as_u64().to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(data);
            }
            TxnOp::Insert { oid, offset, data } => {
                out.push(2);
                out.extend_from_slice(&oid.as_u64().to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(data);
            }
            TxnOp::TruncateRange { oid, offset, len } => {
                out.push(3);
                out.extend_from_slice(&oid.as_u64().to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            TxnOp::Create { oid, meta } => {
                out.push(4);
                out.extend_from_slice(&oid.as_u64().to_le_bytes());
                out.extend_from_slice(&meta.encode());
            }
            TxnOp::Delete { oid } => {
                out.push(5);
                out.extend_from_slice(&oid.as_u64().to_le_bytes());
            }
        }
        out
    }

    /// Deserialises an operation written by [`encode`](Self::encode).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() < 9 {
            return Err(OsdError::Corrupt("transaction record too short".into()));
        }
        let oid = ObjectId(u64::from_le_bytes(buf[1..9].try_into().expect("u64")));
        let offset_at = |at: usize| -> Result<u64> {
            buf.get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("u64")))
                .ok_or_else(|| OsdError::Corrupt("transaction record too short".into()))
        };
        match buf[0] {
            1 => Ok(TxnOp::Write {
                oid,
                offset: offset_at(9)?,
                data: buf[17..].to_vec(),
            }),
            2 => Ok(TxnOp::Insert {
                oid,
                offset: offset_at(9)?,
                data: buf[17..].to_vec(),
            }),
            3 => Ok(TxnOp::TruncateRange {
                oid,
                offset: offset_at(9)?,
                len: offset_at(17)?,
            }),
            4 => Ok(TxnOp::Create {
                oid,
                meta: ObjectMeta::decode(&buf[9..])?,
            }),
            5 => Ok(TxnOp::Delete { oid }),
            other => Err(OsdError::Corrupt(format!(
                "unknown transaction opcode {other}"
            ))),
        }
    }

    fn apply(&self, store: &ObjectStore) -> Result<()> {
        match self {
            TxnOp::Write { oid, offset, data } => store.write(*oid, *offset, data),
            TxnOp::Insert { oid, offset, data } => store.insert(*oid, *offset, data),
            TxnOp::TruncateRange { oid, offset, len } => store.truncate_range(*oid, *offset, *len),
            TxnOp::Create { oid, meta } => store.create_object_with_id(*oid, *meta),
            TxnOp::Delete { oid } => match store.delete(*oid) {
                // Redo must be idempotent: the object may already be gone
                // (applied before a crash, then replayed).
                Err(OsdError::NoSuchObject(_)) => Ok(()),
                other => other,
            },
        }
    }
}

/// Upper bounds of the commit-stall histogram buckets, in nanoseconds.
/// Bucket 0 is "no stall"; the last bucket is everything above the final
/// bound. Chosen around the E8/E11 flush-delay fixtures: a stop-the-world
/// checkpoint lands in the top buckets, watermark backpressure in the
/// middle ones.
pub const STALL_BUCKET_BOUNDS_NS: [u64; 4] = [100_000, 500_000, 2_000_000, 10_000_000];

/// Number of commit-stall histogram buckets.
pub const STALL_BUCKETS: usize = STALL_BUCKET_BOUNDS_NS.len() + 2;

/// Default patience of a committer waiting on the background
/// checkpointer to free journal space before giving up and checkpointing
/// inline itself. The effective value auto-scales with the journal
/// device's measured flush cost (see
/// [`TxnStore::backpressure_patience`]); an in-memory device keeps
/// exactly this floor.
pub const DEFAULT_BACKPRESSURE_PATIENCE: Duration = Duration::from_millis(200);

/// Flush-cost multiple used when auto-scaling backpressure patience: a
/// background checkpoint is a bounded burst of device flushes, so giving
/// the checkpointer ~this many flush-times before a committer falls back
/// to stop-the-world keeps slow-fsync devices (a `FileDevice` on real
/// disk) from firing the inline fallback spuriously.
const PATIENCE_FLUSH_MULTIPLE: u32 = 50;

/// Ceiling on auto-scaled patience: a pathologically slow device must
/// not make a starved committer wait unboundedly before helping itself.
const MAX_AUTO_PATIENCE: Duration = Duration::from_secs(5);

/// Checkpoint and commit-stall counters for one [`TxnStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints begun (inline and background).
    pub checkpoints_started: u64,
    /// Checkpoints that ran to completion.
    pub checkpoints_completed: u64,
    /// Inline checkpoints forced by a full journal on the commit path
    /// (the stop-the-world fallback when no checkpointer is attached or
    /// backpressure patience runs out).
    pub auto_checkpoints: u64,
    /// Commits that stalled waiting for journal space.
    pub commit_stalls: u64,
    /// Total nanoseconds commits spent stalled on journal space.
    pub commit_stall_ns: u64,
    /// Longest single commit stall, in nanoseconds.
    pub max_commit_stall_ns: u64,
    /// Per-commit stall histogram: bucket 0 is stall-free commits, then
    /// one bucket per bound in [`STALL_BUCKET_BOUNDS_NS`], then an
    /// overflow bucket. Every successful commit lands in exactly one.
    pub stall_histogram: [u64; STALL_BUCKETS],
}

/// One stats snapshot covering the whole transactional stack: the store
/// (objects, device counters, allocator, block cache), the group-commit
/// pipeline and the checkpoint/stall counters.
#[derive(Debug, Clone)]
pub struct TxnStoreStats {
    /// The wrapped store's snapshot.
    pub store: StoreStats,
    /// Commit/batch/flush counters from the group-commit pipeline.
    pub group_commit: GroupCommitStats,
    /// Checkpoint and commit-stall counters.
    pub checkpoint: CheckpointStats,
}

/// The condvar plumbing between committers and the background
/// checkpointer.
struct CheckpointSignals {
    /// True while a [`crate::checkpoint::Checkpointer`] is attached; the
    /// commit path only waits on backpressure when someone is draining.
    checkpointer_attached: AtomicBool,
    /// Set by a starved committer; cleared when the monitor picks it up.
    requested: AtomicBool,
    /// Wakes the checkpointer monitor (request or shutdown).
    wake_lock: Mutex<()>,
    wake_cv: Condvar,
    /// Wakes committers stalled on journal space after a reclaim.
    space_lock: Mutex<()>,
    space_cv: Condvar,
}

/// A transactional facade over an [`ObjectStore`].
pub struct TxnStore {
    store: Arc<ObjectStore>,
    group: GroupCommit<Arc<dyn hfad_storage::BlockDevice>>,
    next_txn: AtomicU64,
    /// Excludes checkpoints from in-flight commits: a committing
    /// transaction holds a read lock from journal append through apply, a
    /// checkpoint holds the write lock, so the journal's live extent is
    /// only ever reclaimed when no acknowledged transaction is still
    /// waiting to be applied.
    checkpoint_gate: RwLock<()>,
    auto_checkpoints: AtomicU64,
    checkpoints_started: AtomicU64,
    checkpoints_completed: AtomicU64,
    commit_stalls: AtomicU64,
    commit_stall_ns: AtomicU64,
    max_commit_stall_ns: AtomicU64,
    stall_histogram: [AtomicU64; STALL_BUCKETS],
    /// Nanoseconds a committer blocked on a full journal waits for the
    /// background checkpointer before checkpointing inline itself.
    backpressure_patience_ns: AtomicU64,
    signals: CheckpointSignals,
    /// The store-wide health machine: the commit path, the inline
    /// checkpoint fallback and the attached [`crate::checkpoint::
    /// Checkpointer`] all report into it, and the commit path gates on
    /// it once degraded to read-only.
    health: Arc<HealthState>,
}

impl TxnStore {
    /// Wraps `store` with the default group-commit policy (batching on,
    /// zero leader wait: lone committers flush immediately, concurrent
    /// committers batch naturally). The journal is placed in the region
    /// the store's superblock reserved; the store must have been created
    /// with `journal_blocks > 0`.
    pub fn new(store: Arc<ObjectStore>) -> Result<Self> {
        Self::with_config(store, GroupCommitConfig::default())
    }

    /// Wraps `store` with an explicit group-commit policy.
    /// `GroupCommitConfig::unbatched()` restores sync-per-commit.
    pub fn with_config(store: Arc<ObjectStore>, config: GroupCommitConfig) -> Result<Self> {
        Self::with_config_and_health(store, config, Arc::new(HealthState::new()))
    }

    /// Like [`with_config`](Self::with_config), but reporting into a
    /// caller-supplied health machine — the assembled stack shares one
    /// [`HealthState`] across the store and every service above it.
    pub fn with_config_and_health(
        store: Arc<ObjectStore>,
        config: GroupCommitConfig,
        health: Arc<HealthState>,
    ) -> Result<Self> {
        let sb = store.superblock();
        if sb.journal_blocks == 0 {
            return Err(OsdError::Corrupt(
                "store was created without a journal region".to_string(),
            ));
        }
        // In persistent mode the journal must live on the *raw* device:
        // routing appends through the retain-dirty cache would leave
        // commit records as dirty frames instead of durable bytes.
        let journal_device: Arc<dyn hfad_storage::BlockDevice> = match store.persist() {
            Some(p) => Arc::clone(&p.raw),
            None => Arc::clone(&store.context().device),
        };
        // Auto-scale backpressure patience from one measured flush: the
        // stop-the-world fallback should only fire when the checkpointer
        // is genuinely wedged, not merely paying a slow device's fsync a
        // few dozen times. A memory-speed flush keeps the 200 ms floor.
        let patience = {
            let t0 = Instant::now();
            journal_device.flush()?;
            (t0.elapsed() * PATIENCE_FLUSH_MULTIPLE)
                .clamp(DEFAULT_BACKPRESSURE_PATIENCE, MAX_AUTO_PATIENCE)
        };
        let journal = Journal::new(journal_device, sb.journal_start, sb.journal_blocks)?;
        Ok(TxnStore {
            store,
            group: GroupCommit::new(journal, config),
            next_txn: AtomicU64::new(1),
            checkpoint_gate: RwLock::new(()),
            auto_checkpoints: AtomicU64::new(0),
            checkpoints_started: AtomicU64::new(0),
            checkpoints_completed: AtomicU64::new(0),
            commit_stalls: AtomicU64::new(0),
            commit_stall_ns: AtomicU64::new(0),
            max_commit_stall_ns: AtomicU64::new(0),
            stall_histogram: Default::default(),
            backpressure_patience_ns: AtomicU64::new(patience.as_nanos() as u64),
            signals: CheckpointSignals {
                checkpointer_attached: AtomicBool::new(false),
                requested: AtomicBool::new(false),
                wake_lock: Mutex::new(()),
                wake_cv: Condvar::new(),
                space_lock: Mutex::new(()),
                space_cv: Condvar::new(),
            },
            health,
        })
    }

    /// The store's current health.
    pub fn health(&self) -> Health {
        self.health.health()
    }

    /// The shared health machine (for services reporting in and stacks
    /// sharing one state across layers).
    pub fn health_state(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// Ratchets the store to read-only after a permanent write-path
    /// failure (or a transient one that outlived every retry budget):
    /// in-memory and recovered state keep serving reads, new commits are
    /// rejected with [`StorageError::ReadOnly`].
    fn note_write_path_failure(&self, what: &str, err: &OsdError) {
        if self.health.read_only(&format!("{what}: {err}")) {
            // Stalled committers must re-check health, not wait for
            // journal space that will never be reclaimed.
            self.notify_space_freed();
        }
    }

    /// Entry point for the attached [`crate::checkpoint::Checkpointer`]
    /// to report an unrecoverable drain failure; same read-only ratchet
    /// and space-waiter wakeup as the commit path's own failures.
    pub(crate) fn report_checkpoint_failure(&self, reason: &str) {
        if self.health.read_only(reason) {
            self.notify_space_freed();
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// How long a committer blocked on a full journal waits for the
    /// background checkpointer to reclaim space before falling back to an
    /// inline stop-the-world checkpoint. Defaults to ~50× the measured
    /// flush cost of the journal device, floored at
    /// [`DEFAULT_BACKPRESSURE_PATIENCE`] (the exact value an in-memory
    /// device gets) and capped at 5 s.
    pub fn backpressure_patience(&self) -> Duration {
        Duration::from_nanos(self.backpressure_patience_ns.load(Ordering::Relaxed))
    }

    /// Overrides the auto-scaled backpressure patience.
    pub fn set_backpressure_patience(&self, patience: Duration) {
        self.backpressure_patience_ns
            .store(patience.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The underlying journal (recovery scans, tests).
    pub fn journal(&self) -> &Journal<Arc<dyn hfad_storage::BlockDevice>> {
        self.group.journal()
    }

    /// Commit/batch/flush counters from the group-commit pipeline.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.group.stats()
    }

    /// Begins a new transaction.
    pub fn begin(&self) -> Transaction<'_> {
        Transaction {
            txn_store: self,
            id: self.next_txn.fetch_add(1, Ordering::Relaxed),
            ops: Vec::new(),
            closed: false,
        }
    }

    /// Re-applies every committed transaction found in the journal to the
    /// store (idempotent for redo-only operations on fresh stores).
    pub fn replay(&self) -> Result<u64> {
        let mut applied = 0;
        for (_txn, payloads) in self.group.journal().committed_payloads()? {
            for payload in payloads {
                TxnOp::decode(&payload)?.apply(&self.store)?;
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// A shared handle to the wrapped store.
    pub fn shared_store(&self) -> Arc<ObjectStore> {
        Arc::clone(&self.store)
    }

    /// Raises the next transaction id to at least `floor` (recovery:
    /// replayed ids must never be reissued).
    pub(crate) fn floor_next_txn(&self, floor: u64) {
        self.next_txn.fetch_max(floor.max(1), Ordering::Relaxed);
    }

    /// Replays journalled transactions whose commit landed at or after
    /// `floor`, in journal order, returning the number of applied
    /// operations. Used by the persistent open path: commits below the
    /// floor are already in the checkpointed home pages.
    ///
    /// Data records are buffered per transaction and applied only on
    /// `Commit` (an `Abort` or a missing commit — the crash tail —
    /// discards them). The floor test on the *commit* record is sound
    /// because floors are taken under the exclusive gate: no transaction
    /// straddles a checkpoint, so a commit at or above the floor implies
    /// all of its records are too.
    pub(crate) fn replay_from_floor(&self, floor: u64) -> Result<u64> {
        let mut pending: std::collections::HashMap<u64, Vec<TxnOp>> =
            std::collections::HashMap::new();
        let mut applied = 0u64;
        let mut max_txn = 0u64;
        for rec in self.group.journal().recover()? {
            max_txn = max_txn.max(rec.txn_id);
            match rec.kind {
                RecordKind::Begin => {
                    pending.insert(rec.txn_id, Vec::new());
                }
                RecordKind::Data => {
                    pending
                        .entry(rec.txn_id)
                        .or_default()
                        .push(TxnOp::decode(&rec.payload)?);
                }
                RecordKind::Abort => {
                    pending.remove(&rec.txn_id);
                }
                RecordKind::Commit => {
                    let ops = pending.remove(&rec.txn_id).unwrap_or_default();
                    if rec.seq < floor {
                        continue;
                    }
                    for op in ops {
                        if let TxnOp::Create { oid, .. } = &op {
                            // The id came from a range claimed after the
                            // checkpoint: floor the allocator above it so
                            // it is never reissued.
                            self.store.oid_alloc().ensure_floor(oid.as_u64() + 1);
                        }
                        match op.apply(&self.store) {
                            Ok(()) => applied += 1,
                            // Defensive: a redo against an object a later
                            // replayed delete removes is skippable.
                            Err(OsdError::NoSuchObject(_)) => {}
                            Err(e) => return Err(e),
                        }
                    }
                }
            }
        }
        self.floor_next_txn(max_txn + 1);
        Ok(applied)
    }

    /// Truncates the journal after a checkpoint, stop-the-world style.
    ///
    /// Waits for every in-flight commit to finish applying, flushes the
    /// store's device so the applied state the journal made redundant is
    /// itself durable, and only then reclaims the whole log. New commits
    /// are held out for the full duration; prefer
    /// [`checkpoint_background`](Self::checkpoint_background) on hot
    /// paths.
    pub fn checkpoint(&self) -> Result<()> {
        let _exclusive = self.checkpoint_gate.write();
        self.checkpoint_locked()
    }

    /// The checkpoint body; caller holds the exclusive gate.
    fn checkpoint_locked(&self) -> Result<()> {
        if let Some(p) = self.store.persist() {
            let p = Arc::clone(p);
            return self.checkpoint_persistent_locked(&p);
        }
        self.checkpoints_started.fetch_add(1, Ordering::Relaxed);
        self.store.context().device.flush()?;
        self.group.journal().reset()?;
        self.checkpoints_completed.fetch_add(1, Ordering::Relaxed);
        self.notify_space_freed();
        Ok(())
    }

    /// The persistent (file-backed) checkpoint body; caller holds the
    /// exclusive gate, so no transaction is mid-append or mid-apply.
    ///
    /// Protocol (see [`crate::persist`] for the crash-window analysis):
    /// collect the dirty page set, snapshot the store metadata with the
    /// journal's current sequence as the next replay floor, stage pages +
    /// metadata as **one** doublewrite batch (fsynced before and after the
    /// batch header), install them at their home addresses, then reset the
    /// journal — whose durable header write also makes the installs
    /// durable. A crash before the reset recovers by re-installing the
    /// staged batch; a crash after it finds a clean journal and the new
    /// metadata epoch. Only then are the staged frames marked clean in the
    /// cache (skipping any re-dirtied meanwhile — impossible under the
    /// gate, but cheap to keep exact) and the staging region cleared so
    /// readers can tell a clean store from one needing recovery.
    fn checkpoint_persistent_locked(&self, p: &Arc<PersistCtx>) -> Result<()> {
        self.checkpoints_started.fetch_add(1, Ordering::Relaxed);
        let cache = self.store.block_cache().ok_or_else(|| {
            OsdError::Corrupt("persistent store is missing its block cache".into())
        })?;
        let dirty = cache.collect_dirty();
        let floor = self.group.journal().mark().seq;
        let epoch = p.epoch.load(Ordering::Acquire);
        let meta = StoreMeta {
            epoch,
            replay_floor: floor,
            next_txn: self.next_txn.load(Ordering::Relaxed),
            next_oid: self.store.oid_alloc().range_head(),
            alloc: self.store.context().allocator.snapshot(),
            shards: self.store.table_state(),
        };
        let mut batch = dirty.clone();
        batch.extend(p.meta_frames(&meta)?);
        if batch.len() > p.dw.capacity() {
            // Never silently split the batch: a partial install is not
            // atomic. The commit-path trigger checkpoints at a quarter of
            // this capacity, so hitting the ceiling means the thresholds
            // are misconfigured — fail loudly rather than corrupt.
            return Err(OsdError::Corrupt(format!(
                "checkpoint batch of {} pages exceeds the doublewrite capacity of {}; \
                 recreate the store with a larger doublewrite region",
                batch.len(),
                p.dw.capacity()
            )));
        }
        p.dw.stage(epoch, &batch)?;
        p.dw.install(&batch)?;
        self.group.journal().reset()?;
        p.dw.clear()?;
        for (block, data) in &dirty {
            cache.mark_clean_if_unchanged(*block, data);
        }
        p.epoch.store(epoch + 1, Ordering::Release);
        p.replay_floor.store(floor, Ordering::Release);
        self.checkpoints_completed.fetch_add(1, Ordering::Relaxed);
        self.notify_space_freed();
        Ok(())
    }

    /// Commit-path checkpoint trigger for persistent stores: once the
    /// dirty page set reaches the persistence context's threshold (a
    /// quarter of the doublewrite capacity), drain it — via the attached
    /// checkpointer when one is running, inline otherwise — long before
    /// a checkpoint could outgrow the staging region.
    fn maybe_persistent_checkpoint(&self) -> Result<()> {
        let Some(p) = self.store.persist() else {
            return Ok(());
        };
        let threshold = p.checkpoint_threshold();
        let Some(cache) = self.store.block_cache() else {
            return Ok(());
        };
        if cache.dirty_blocks() < threshold {
            return Ok(());
        }
        if self.signals.checkpointer_attached.load(Ordering::Acquire) {
            self.request_checkpoint();
            return Ok(());
        }
        let _exclusive = self.checkpoint_gate.write();
        // A racing committer may have checkpointed while this thread
        // waited for the gate.
        if cache.dirty_blocks() < threshold {
            return Ok(());
        }
        self.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_with_retry()
    }

    /// Checkpoints while admitting new commits concurrently.
    ///
    /// The sequence is: snapshot the journal head, then briefly acquire
    /// (and immediately release) the exclusive gate — a barrier that
    /// waits only for commits already acknowledged to finish applying,
    /// bounded by in-memory apply time, never by device flushes — then
    /// flush the store's device and reclaim the log up to the snapshot.
    /// Commits appending after the snapshot sit past the mark and stay
    /// live, so the journal keeps admitting batches while the flush (the
    /// expensive part) runs.
    ///
    /// A crash between the flush and the tail advance leaves the old
    /// tail in effect: recovery replays extra already-applied
    /// transactions, which is safe for redo-only records.
    pub fn checkpoint_background(&self) -> Result<()> {
        if self.store.persist().is_some() {
            // Persistent mode cannot use the mark-based overlap: the
            // reclaimed journal extent is only redundant once the dirty
            // pages it covers are installed, and retain-dirty pages are
            // only installed by the doublewrite protocol — which needs
            // the gate held across collect/stage/install anyway. Take the
            // sharp (gate-held) checkpoint instead; commits admitted
            // after the gate drops simply journal into the emptied ring.
            let _exclusive = self.checkpoint_gate.write();
            return self.checkpoint_locked();
        }
        self.checkpoints_started.fetch_add(1, Ordering::Relaxed);
        let mark = self.group.journal().mark();
        // Every commit covered by the mark acquired the read gate before
        // appending and releases it after applying; draining the gate
        // once means everything up to the mark is applied in memory.
        drop(self.checkpoint_gate.write());
        self.store.context().device.flush()?;
        self.group.journal().reclaim_to(mark)?;
        self.checkpoints_completed.fetch_add(1, Ordering::Relaxed);
        self.notify_space_freed();
        Ok(())
    }

    /// Number of inline checkpoints forced by a full journal on the
    /// commit path (see [`Transaction::commit`]).
    pub fn auto_checkpoints(&self) -> u64 {
        self.auto_checkpoints.load(Ordering::Relaxed)
    }

    /// Checkpoint and commit-stall counters.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        let mut histogram = [0u64; STALL_BUCKETS];
        for (slot, counter) in histogram.iter_mut().zip(&self.stall_histogram) {
            *slot = counter.load(Ordering::Relaxed);
        }
        CheckpointStats {
            checkpoints_started: self.checkpoints_started.load(Ordering::Relaxed),
            checkpoints_completed: self.checkpoints_completed.load(Ordering::Relaxed),
            auto_checkpoints: self.auto_checkpoints.load(Ordering::Relaxed),
            commit_stalls: self.commit_stalls.load(Ordering::Relaxed),
            commit_stall_ns: self.commit_stall_ns.load(Ordering::Relaxed),
            max_commit_stall_ns: self.max_commit_stall_ns.load(Ordering::Relaxed),
            stall_histogram: histogram,
        }
    }

    /// One snapshot covering the whole stack: store, group commit and
    /// checkpointing.
    pub fn stats(&self) -> TxnStoreStats {
        TxnStoreStats {
            store: self.store.stats(),
            group_commit: self.group_commit_stats(),
            checkpoint: self.checkpoint_stats(),
        }
    }

    // ------------------------------------------------------------------
    // Backpressure plumbing between committers and the checkpointer.
    // ------------------------------------------------------------------

    /// Blocks until the journal has `needed` free bytes, checkpointing as
    /// required. With a checkpointer attached this is backpressure: ask
    /// it to drain, wait for reclaimed space, and only checkpoint inline
    /// (stop-the-world) if patience runs out. Without one, it is the
    /// seed-equivalent inline auto-checkpoint.
    fn wait_for_space(&self, needed: u64) -> Result<()> {
        let journal = self.group.journal();
        if self.signals.checkpointer_attached.load(Ordering::Acquire) {
            self.request_checkpoint();
            let deadline = Instant::now() + self.backpressure_patience();
            let mut guard = self
                .signals
                .space_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while journal.available_bytes() < needed
                && self.signals.checkpointer_attached.load(Ordering::Acquire)
                && self.health.health().is_writable()
            {
                let Some(remaining) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (next, timeout) = self
                    .signals
                    .space_cv
                    .wait_timeout(guard, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                guard = next;
                if timeout.timed_out() {
                    break;
                }
            }
            drop(guard);
            // A checkpointer that degraded the store while this thread
            // waited woke it via `note_write_path_failure`; surface the
            // typed error instead of the stop-the-world fallback.
            self.health.check_writable().map_err(OsdError::from)?;
            if journal.available_bytes() >= needed {
                return Ok(());
            }
        }
        // Stop-the-world fallback (and the no-checkpointer contract).
        let _exclusive = self.checkpoint_gate.write();
        // A racing checkpoint may have freed the space while this thread
        // waited for the write lock.
        if journal.available_bytes() >= needed {
            return Ok(());
        }
        self.checkpoint_with_retry()?;
        self.auto_checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Runs the gate-held checkpoint, absorbing transient device faults
    /// with the group-commit retry budget. A permanent failure (or an
    /// exhausted budget) degrades the store to read-only: the journal
    /// can no longer be reclaimed, so accepting further writes would
    /// only wedge them behind a full ring.
    fn checkpoint_with_retry(&self) -> Result<()> {
        let policy = self.group.config().retry;
        let mut attempt = 1u32;
        loop {
            match self.checkpoint_locked() {
                Ok(()) => return Ok(()),
                Err(err) if err.is_transient() && attempt < policy.max_attempts => {
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                }
                Err(err) => {
                    self.note_write_path_failure("checkpoint failed", &err);
                    return Err(err);
                }
            }
        }
    }

    /// Flags the checkpointer monitor to fire now.
    fn request_checkpoint(&self) {
        self.signals.requested.store(true, Ordering::Release);
        let _guard = self
            .signals
            .wake_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        self.signals.wake_cv.notify_all();
    }

    fn notify_space_freed(&self) {
        let _guard = self
            .signals
            .space_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        self.signals.space_cv.notify_all();
    }

    /// Marks a checkpointer as attached; commits now treat a full journal
    /// as backpressure instead of checkpointing inline immediately.
    pub(crate) fn attach_checkpointer(&self) {
        self.signals
            .checkpointer_attached
            .store(true, Ordering::Release);
    }

    /// Detaches the checkpointer and releases any stalled committers into
    /// the inline-checkpoint path.
    pub(crate) fn detach_checkpointer(&self) {
        self.signals
            .checkpointer_attached
            .store(false, Ordering::Release);
        self.notify_space_freed();
        let _guard = self
            .signals
            .wake_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        self.signals.wake_cv.notify_all();
    }

    /// Parks the checkpointer monitor until a committer requests a drain
    /// (or `interval` elapses — the watermark/age poll cadence).
    pub(crate) fn wait_checkpoint_signal(&self, interval: Duration) {
        let guard = self
            .signals
            .wake_lock
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if self.signals.requested.load(Ordering::Acquire) {
            return;
        }
        let _ = self
            .signals
            .wake_cv
            .wait_timeout(guard, interval)
            .unwrap_or_else(|e| e.into_inner());
    }

    /// Consumes a pending drain request, if any.
    pub(crate) fn take_checkpoint_request(&self) -> bool {
        self.signals.requested.swap(false, Ordering::AcqRel)
    }

    /// Folds one successful commit's stall time into the counters and the
    /// histogram.
    fn record_commit_stall(&self, stall_ns: u64) {
        let bucket = if stall_ns == 0 {
            0
        } else {
            1 + STALL_BUCKET_BOUNDS_NS
                .iter()
                .position(|&bound| stall_ns <= bound)
                .unwrap_or(STALL_BUCKET_BOUNDS_NS.len())
        };
        self.stall_histogram[bucket].fetch_add(1, Ordering::Relaxed);
        if stall_ns > 0 {
            self.commit_stalls.fetch_add(1, Ordering::Relaxed);
            self.commit_stall_ns.fetch_add(stall_ns, Ordering::Relaxed);
            self.max_commit_stall_ns
                .fetch_max(stall_ns, Ordering::Relaxed);
        }
    }
}

impl Drop for TxnStore {
    /// Best-effort final checkpoint for persistent stores: a cleanly
    /// dropped writer leaves an empty journal and a cleared staging
    /// region, so the next open (writer *or* reader) needs no recovery.
    /// A kill -9 skips this — that is exactly what the recovery path in
    /// [`crate::persist::open_file`] is for.
    fn drop(&mut self) {
        if self.store.persist().is_some() {
            let _ = self.checkpoint();
        }
    }
}

/// An open transaction; buffered operations are applied atomically (with
/// respect to crashes before commit) when [`commit`](Self::commit) is
/// called.
pub struct Transaction<'a> {
    txn_store: &'a TxnStore,
    id: u64,
    ops: Vec<TxnOp>,
    closed: bool,
}

impl Transaction<'_> {
    fn check_open(&self) -> Result<()> {
        if self.closed {
            Err(OsdError::TransactionClosed)
        } else {
            Ok(())
        }
    }

    /// Transaction id (for diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of buffered operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no operations have been buffered.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Buffers a write.
    pub fn write(&mut self, oid: ObjectId, offset: u64, data: &[u8]) -> Result<()> {
        self.check_open()?;
        self.ops.push(TxnOp::Write {
            oid,
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    /// Buffers a mid-object insert.
    pub fn insert(&mut self, oid: ObjectId, offset: u64, data: &[u8]) -> Result<()> {
        self.check_open()?;
        self.ops.push(TxnOp::Insert {
            oid,
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    /// Buffers a range truncate.
    pub fn truncate_range(&mut self, oid: ObjectId, offset: u64, len: u64) -> Result<()> {
        self.check_open()?;
        self.ops.push(TxnOp::TruncateRange { oid, offset, len });
        Ok(())
    }

    /// Buffers an object create, returning the id the object will have.
    ///
    /// The id is allocated now (ids are never reused, so an aborted
    /// transaction simply strands it) and journalled with the create, so
    /// crash recovery recreates the object under the same id and later
    /// records in the same transaction can target it.
    pub fn create(&mut self, meta: ObjectMeta) -> Result<ObjectId> {
        self.check_open()?;
        let oid = self.txn_store.store.allocate_oid();
        self.ops.push(TxnOp::Create { oid, meta });
        Ok(oid)
    }

    /// Buffers an object delete.
    pub fn delete(&mut self, oid: ObjectId) -> Result<()> {
        self.check_open()?;
        self.ops.push(TxnOp::Delete { oid });
        Ok(())
    }

    /// Logs, syncs and applies the buffered operations.
    ///
    /// The commit rides the store's group-commit pipeline: this call
    /// blocks until the transaction's journal frames — and those of every
    /// transaction batched with it — are flushed. Only then are the
    /// operations applied to the store.
    ///
    /// A commit rejected because the journal ring has filled up is
    /// treated as backpressure, never surfaced: with a background
    /// checkpointer attached the committer briefly blocks until the
    /// in-flight drain reclaims extents; without one it checkpoints
    /// inline (the seed behaviour) and retries. Callers only ever see
    /// [`StorageError::JournalFull`] for a transaction too large to fit
    /// even an *empty* ring. Stall time spent waiting for space is
    /// recorded in [`CheckpointStats`].
    pub fn commit(mut self) -> Result<()> {
        self.check_open()?;
        self.closed = true;
        let ts = self.txn_store;
        let capacity = ts.group.journal().capacity_bytes();
        let mut stall_ns = 0u64;
        loop {
            // A store degraded to read-only rejects the commit with the
            // typed error before touching the journal.
            ts.health.check_writable().map_err(OsdError::from)?;
            let gate = ts.checkpoint_gate.read();
            // Payloads are encoded per attempt so the common (no-retry)
            // path never pays a defensive clone.
            let payloads: Vec<Vec<u8>> = self.ops.iter().map(TxnOp::encode).collect();
            match ts.group.commit(self.id, payloads) {
                Ok(_) => {
                    // Apply while still holding the gate: a checkpoint
                    // must not reclaim the journal while this
                    // acknowledged transaction's redo is its only
                    // durable record.
                    for op in &self.ops {
                        if let Err(e) = op.apply(&ts.store) {
                            // The commit is durable but the in-memory
                            // state no longer reflects it: nothing below
                            // can be trusted until a reopen replays the
                            // journal.
                            ts.health.fail_stop(&format!(
                                "acked commit {} failed to apply: {e}",
                                self.id
                            ));
                            return Err(e);
                        }
                    }
                    drop(gate);
                    ts.record_commit_stall(stall_ns);
                    // Persistent stores: keep the dirty page set well
                    // inside the doublewrite staging capacity.
                    ts.maybe_persistent_checkpoint()?;
                    return Ok(());
                }
                Err(err @ StorageError::JournalFull { needed, .. }) => {
                    if needed as u64 > capacity {
                        // Too large for even an empty ring: no number of
                        // checkpoints can admit it.
                        return Err(err.into());
                    }
                    // The ring is full of *previous* transactions'
                    // frames. Drop the gate (a checkpoint needs it
                    // exclusively) and wait for space — reclaimed in the
                    // background if a checkpointer is running, inline
                    // otherwise — then retry.
                    drop(gate);
                    let stalled = Instant::now();
                    let waited = ts.wait_for_space(needed as u64);
                    stall_ns += stalled.elapsed().as_nanos() as u64;
                    waited?;
                }
                Err(err) => {
                    // The group-commit leader already spent its retry
                    // budget on transient faults; whatever reaches here
                    // is a permanent journal-write failure.
                    drop(gate);
                    let err: OsdError = err.into();
                    ts.note_write_path_failure("journal write failed", &err);
                    return Err(err);
                }
            }
        }
    }

    /// Discards the buffered operations, recording an abort in the journal.
    pub fn abort(mut self) -> Result<()> {
        self.check_open()?;
        self.closed = true;
        let journal = self.txn_store.group.journal();
        journal.append(self.id, RecordKind::Abort, b"")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use hfad_storage::MemDevice;

    fn txn_store() -> TxnStore {
        let device = Arc::new(MemDevice::with_capacity(16 * 1024 * 1024));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 256,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        TxnStore::new(store).unwrap()
    }

    #[test]
    fn committed_transaction_applies() {
        let ts = txn_store();
        let oid = ts.store().create_default(0).unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, b"transactional hello").unwrap();
        txn.insert(oid, 13, b" brave").unwrap();
        txn.commit().unwrap();
        assert_eq!(
            ts.store().read(oid, 0, 100).unwrap(),
            b"transactional brave hello".to_vec()
        );
    }

    #[test]
    fn aborted_transaction_leaves_no_trace() {
        let ts = txn_store();
        let oid = ts.store().create_default(0).unwrap();
        ts.store().write(oid, 0, b"original").unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, b"clobbered").unwrap();
        txn.abort().unwrap();
        assert_eq!(ts.store().read(oid, 0, 100).unwrap(), b"original".to_vec());
        // Replay must not resurrect the aborted write either.
        ts.replay().unwrap();
        assert_eq!(ts.store().read(oid, 0, 100).unwrap(), b"original".to_vec());
    }

    #[test]
    fn replay_reapplies_committed_operations() {
        let ts = txn_store();
        let oid = ts.store().create_default(0).unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, b"abcdef").unwrap();
        txn.truncate_range(oid, 1, 2).unwrap();
        txn.commit().unwrap();
        assert_eq!(ts.store().read(oid, 0, 100).unwrap(), b"adef".to_vec());
        // Simulate the post-crash redo path: wipe the object, replay the log.
        ts.store().truncate(oid, 0).unwrap();
        let applied = ts.replay().unwrap();
        assert_eq!(applied, 2);
        assert_eq!(ts.store().read(oid, 0, 100).unwrap(), b"adef".to_vec());
    }

    #[test]
    fn checkpoint_empties_journal() {
        let ts = txn_store();
        let oid = ts.store().create_default(0).unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, b"x").unwrap();
        txn.commit().unwrap();
        ts.checkpoint().unwrap();
        assert_eq!(ts.replay().unwrap(), 0);
    }

    #[test]
    fn backpressure_patience_scales_with_device_flush_cost() {
        // Memory-speed flush: patience stays at the 200 ms floor.
        let ts = txn_store();
        assert_eq!(ts.backpressure_patience(), DEFAULT_BACKPRESSURE_PATIENCE);
        // A slow-fsync device (10 ms per flush) must grow patience well
        // beyond the floor, or the stop-the-world fallback fires while
        // the background checkpointer is still mid-drain.
        let device = Arc::new(hfad_storage::FaultDevice::flush_delay(
            MemDevice::with_capacity(16 * 1024 * 1024),
            Duration::from_millis(10),
        ));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 256,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ts = TxnStore::new(store).unwrap();
        let patience = ts.backpressure_patience();
        assert!(
            patience >= Duration::from_millis(400),
            "10 ms flushes must scale patience well past the 200 ms floor, got {patience:?}"
        );
        assert!(patience <= Duration::from_secs(5), "capped at 5 s");
        // And the knob is overridable.
        ts.set_backpressure_patience(Duration::from_millis(42));
        assert_eq!(ts.backpressure_patience(), Duration::from_millis(42));
    }

    #[test]
    fn concurrent_batched_commits_all_apply_and_amortize_flushes() {
        let device = Arc::new(MemDevice::with_capacity(32 * 1024 * 1024));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 1024,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ts = Arc::new(
            TxnStore::with_config(
                Arc::clone(&store),
                hfad_storage::GroupCommitConfig::batched(16, std::time::Duration::from_micros(200)),
            )
            .unwrap(),
        );
        let threads = 4usize;
        let per_thread = 16usize;
        let oids: Vec<_> = (0..threads)
            .map(|_| ts.store().create_default(0).unwrap())
            .collect();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ts = Arc::clone(&ts);
                let oid = oids[t];
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut txn = ts.begin();
                        txn.write(oid, (i * 8) as u64, format!("w{t:02}{i:03}").as_bytes())
                            .unwrap();
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for (t, oid) in oids.iter().enumerate() {
            let last = format!("w{t:02}{:03}", per_thread - 1);
            let data = ts
                .store()
                .read(*oid, ((per_thread - 1) * 8) as u64, last.len() as u64)
                .unwrap();
            assert_eq!(data, last.as_bytes());
        }
        let stats = ts.group_commit_stats();
        assert_eq!(stats.commits, (threads * per_thread) as u64);
        assert!(stats.max_batch >= 1 && stats.max_batch <= 16);
        assert!(stats.flushes <= stats.commits);
        // Every acknowledged commit must be replayable from the journal.
        assert_eq!(
            ts.journal().committed_payloads().unwrap().len(),
            threads * per_thread
        );
    }

    #[test]
    fn unbatched_config_reproduces_sync_per_commit() {
        let device = Arc::new(MemDevice::with_capacity(16 * 1024 * 1024));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 256,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ts =
            TxnStore::with_config(store, hfad_storage::GroupCommitConfig::unbatched()).unwrap();
        let oid = ts.store().create_default(0).unwrap();
        for i in 0..4u64 {
            let mut txn = ts.begin();
            txn.write(oid, i * 4, b"abcd").unwrap();
            txn.commit().unwrap();
        }
        let stats = ts.group_commit_stats();
        assert_eq!(stats.commits, 4);
        assert_eq!(stats.flushes, 4);
        assert_eq!(stats.max_batch, 1);
    }

    #[test]
    fn oversized_transaction_fails_with_journal_full() {
        let device = Arc::new(MemDevice::with_capacity(16 * 1024 * 1024));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 3,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ts = TxnStore::new(store).unwrap();
        let oid = ts.store().create_default(0).unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, &vec![0u8; 64 * 1024]).unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(
            err,
            OsdError::Storage(hfad_storage::StorageError::JournalFull { .. })
        ));
        // The failed commit must not have been applied to the store.
        assert_eq!(ts.store().len(oid).unwrap(), 0);
        // The journal region is still usable for transactions that fit.
        let mut txn = ts.begin();
        txn.write(oid, 0, b"fits").unwrap();
        txn.commit().unwrap();
        assert_eq!(ts.store().read(oid, 0, 4).unwrap(), b"fits".to_vec());
    }

    #[test]
    fn journal_full_triggers_auto_checkpoint_and_commit_succeeds() {
        let device = Arc::new(MemDevice::with_capacity(16 * 1024 * 1024));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    // Tiny ring: fills after a handful of commits.
                    journal_blocks: 3,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ts = TxnStore::new(store).unwrap();
        let oid = ts.store().create_default(0).unwrap();
        // Far more commit bytes than the region holds: without
        // auto-checkpoint this loop would fail with JournalFull.
        for i in 0..64u64 {
            let mut txn = ts.begin();
            txn.write(oid, i * 128, &[i as u8; 128]).unwrap();
            txn.commit().unwrap();
        }
        assert!(
            ts.auto_checkpoints() >= 1,
            "the tiny journal must have forced at least one auto-checkpoint"
        );
        // Every commit was applied.
        for i in 0..64u64 {
            assert_eq!(
                ts.store().read(oid, i * 128, 128).unwrap(),
                vec![i as u8; 128],
                "commit {i}"
            );
        }
    }

    #[test]
    fn concurrent_commits_survive_auto_checkpoints() {
        let device = Arc::new(MemDevice::with_capacity(32 * 1024 * 1024));
        let store = Arc::new(
            ObjectStore::create(
                device,
                StoreConfig {
                    journal_blocks: 4,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let ts = Arc::new(TxnStore::new(store).unwrap());
        let threads = 4usize;
        let per_thread = 32usize;
        let oids: Vec<_> = (0..threads)
            .map(|_| ts.store().create_default(0).unwrap())
            .collect();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ts = Arc::clone(&ts);
                let oid = oids[t];
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let mut txn = ts.begin();
                        txn.write(oid, (i * 64) as u64, &[(t * 16 + 1) as u8; 64])
                            .unwrap();
                        txn.commit().unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(ts.auto_checkpoints() >= 1);
        for (t, oid) in oids.iter().enumerate() {
            assert_eq!(
                ts.store().len(*oid).unwrap(),
                (per_thread * 64) as u64,
                "thread {t} lost commits"
            );
        }
    }

    #[test]
    fn store_without_journal_rejected() {
        let store = Arc::new(ObjectStore::in_memory(4 * 1024 * 1024).unwrap());
        assert!(TxnStore::new(store).is_err());
    }

    #[test]
    fn txn_op_round_trip() {
        for op in [
            TxnOp::Write {
                oid: ObjectId(3),
                offset: 10,
                data: b"abc".to_vec(),
            },
            TxnOp::Insert {
                oid: ObjectId(4),
                offset: 0,
                data: vec![],
            },
            TxnOp::TruncateRange {
                oid: ObjectId(5),
                offset: 100,
                len: 50,
            },
            TxnOp::Create {
                oid: ObjectId(6),
                meta: crate::meta::ObjectMeta::new(10, 20, 0o640, 1234),
            },
            TxnOp::Delete { oid: ObjectId(7) },
        ] {
            assert_eq!(TxnOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(TxnOp::decode(&[9u8; 30]).is_err());
        assert!(TxnOp::decode(&[1u8; 4]).is_err());
        assert!(TxnOp::decode(&[3u8; 20]).is_err(), "short truncate");
        assert!(TxnOp::decode(&[4u8; 12]).is_err(), "short create");
    }

    #[test]
    fn transactional_create_write_and_delete() {
        let ts = txn_store();
        let mut txn = ts.begin();
        // Create and write in the same transaction: the create's id is
        // available immediately for subsequent buffered operations.
        let oid = txn
            .create(crate::meta::ObjectMeta::new(5, 5, 0o600, 42))
            .unwrap();
        txn.write(oid, 0, b"born transactional").unwrap();
        txn.commit().unwrap();
        assert_eq!(
            ts.store().read(oid, 0, 100).unwrap(),
            b"born transactional".to_vec()
        );
        assert_eq!(ts.store().meta(oid).unwrap().security.uid, 5);
        let mut txn = ts.begin();
        txn.delete(oid).unwrap();
        txn.commit().unwrap();
        assert!(matches!(
            ts.store().read(oid, 0, 1),
            Err(OsdError::NoSuchObject(_))
        ));
        assert_eq!(ts.store().object_count(), 0);
    }

    #[test]
    fn aborted_create_leaves_no_object_and_strands_its_id() {
        let ts = txn_store();
        let mut txn = ts.begin();
        let doomed = txn
            .create(crate::meta::ObjectMeta::new(0, 0, 0o644, 0))
            .unwrap();
        txn.write(doomed, 0, b"never").unwrap();
        txn.abort().unwrap();
        assert!(matches!(
            ts.store().read(doomed, 0, 1),
            Err(OsdError::NoSuchObject(_))
        ));
        // Ids are never reused, aborted or not.
        let next = ts.store().create_default(0).unwrap();
        assert_ne!(next, doomed);
    }

    #[test]
    fn create_with_id_is_idempotent() {
        let ts = txn_store();
        let mut txn = ts.begin();
        let oid = txn
            .create(crate::meta::ObjectMeta::new(0, 0, 0o644, 0))
            .unwrap();
        txn.write(oid, 0, b"payload").unwrap();
        txn.commit().unwrap();
        // Redoing the create (as crash replay would) must not clobber the
        // already-applied state.
        ts.store()
            .create_object_with_id(oid, crate::meta::ObjectMeta::new(0, 0, 0o644, 0))
            .unwrap();
        assert_eq!(ts.store().read(oid, 0, 100).unwrap(), b"payload".to_vec());
        assert_eq!(ts.store().object_count(), 1);
    }
}
