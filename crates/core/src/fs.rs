//! The hFAD file system: construction and the native API.
//!
//! [`Hfad`] ties the substrates together exactly as Figure 1 of the paper
//! lays them out: stable storage at the bottom, the OSD above it, the
//! collection of index stores next to it, and the native API (naming +
//! access interfaces) as a thin layer on top. The POSIX veneer in
//! `hfad-posix` is a client of this API, not part of it.

use std::sync::Arc;

use hfad_btree::TreeContext;
use hfad_engine::{Engine, EnginePrefetcher, EngineStats, Priority};
use hfad_index::{
    FullTextIndex, IndexRegistry, IndexStats, IndexStore, KeyValueIndex, LazyIndexer, Query, Tag,
    TagValue,
};
use hfad_osd::{CheckpointStats, Checkpointer, ObjectId, ObjectMeta, ObjectStore, StoreStats};
use hfad_storage::{
    Allocator, BlockDevice, BuddyAllocator, GroupCommitStats, Health, HealthState, MemDevice,
};

use crate::config::{HfadConfig, INDEX_SHARDS};
use crate::error::{HfadError, Result};
use crate::refine::SearchCursor;

/// Aggregate statistics for an hFAD instance: one snapshot covers the
/// whole stack, from device counters through group commit, background
/// checkpointing and the background-job engine.
#[derive(Debug, Clone)]
pub struct HfadStats {
    /// OSD statistics (objects, device counters, allocator, caches).
    pub store: StoreStats,
    /// Per-index statistics, `(index name, stats)`.
    pub indices: Vec<(String, IndexStats)>,
    /// Documents indexed by the full-text index.
    pub fulltext_documents: u64,
    /// Items queued for the lazy indexer and not yet indexed (0 when
    /// idle).
    pub lazy_backlog: u64,
    /// Background-job engine counters.
    pub engine: EngineStats,
    /// Journal checkpoint / commit-stall counters; `None` until a
    /// transactional store has been opened (see
    /// [`txn_store`](Hfad::txn_store)).
    pub checkpoint: Option<CheckpointStats>,
    /// Group-commit counters; `None` until a transactional store has
    /// been opened.
    pub group_commit: Option<GroupCommitStats>,
    /// The store-wide health at snapshot time (see [`Hfad::health`]).
    pub health: Health,
}

/// The hFAD file system.
///
/// All methods take `&self`; the instance is safe to share across threads
/// (wrap it in an [`Arc`]).
pub struct Hfad {
    pub(crate) store: Arc<ObjectStore>,
    pub(crate) registry: IndexRegistry,
    pub(crate) fulltext: Arc<FullTextIndex>,
    /// Background journal reclaim, started with the transactional store.
    /// Declared before `lazy`, `txn` and `engine` so drop stops the
    /// monitor first.
    pub(crate) checkpointer: parking_lot::Mutex<Option<Checkpointer>>,
    pub(crate) lazy: LazyIndexer,
    pub(crate) config: HfadConfig,
    /// Lazily built, shared transactional wrapper — see
    /// [`txn_store`](Self::txn_store). One journal region must have
    /// exactly one writer, so the handle is cached and every caller
    /// gets the same instance.
    pub(crate) txn: parking_lot::Mutex<Option<Arc<hfad_osd::TxnStore>>>,
    /// One health machine shared by every layer of this instance: the
    /// transactional store and checkpointer report into it, and the
    /// non-transactional write paths gate on it (see
    /// [`check_writable`](Self::check_writable)).
    pub(crate) health: Arc<HealthState>,
    /// The background-job engine. Every background service above submits
    /// into it; the explicit [`Drop`] impl stops them all first, then
    /// calls [`Engine::shutdown`] so the workers join even when an
    /// outliving store handle still holds the engine through the cache's
    /// prefetch sink.
    pub(crate) engine: Arc<Engine>,
}

impl Hfad {
    /// Creates (formats) an hFAD file system on `device`.
    ///
    /// The background-job engine is started over the **raw** device
    /// (beneath the block cache; only [`Engine::read`] reads it), and
    /// every background service is routed through its priority classes:
    /// read-ahead and the dirty-page flusher when a cache is configured,
    /// and lazy indexing.
    pub fn on_device(device: Arc<dyn BlockDevice>, config: HfadConfig) -> Result<Self> {
        let store = Arc::new(ObjectStore::create(device, config.store_config())?);
        Self::assemble(store, config, None)
    }

    /// Creates (formats) a crash-safe **file-backed** hFAD instance at
    /// `path` with `capacity_bytes` of backing file.
    ///
    /// The store runs the persistent discipline from [`hfad_osd::persist`]:
    /// a checksummed superblock, commits journalled straight to the file,
    /// doublewrite-protected checkpoints, and an exclusive multi-process
    /// lock held for the instance's lifetime (a second writer open blocks,
    /// then fails; a holder killed with `SIGKILL` is healed by the next
    /// opener). [`txn_store`](Self::txn_store) is pre-wired to the
    /// persistent writer — durable mutations go through transactions;
    /// plain [`write`](Self::write) calls are cached and become durable at
    /// the next checkpoint (at the latest, the one a clean drop runs).
    ///
    /// Indices are volatile: they are rebuilt empty on every open, so
    /// persistent-mode search state must be re-indexed by the opener.
    pub fn create_file<P: AsRef<std::path::Path>>(
        path: P,
        capacity_bytes: u64,
        config: HfadConfig,
    ) -> Result<Self> {
        let ts = hfad_osd::persist::create_file(
            path,
            capacity_bytes,
            config.store_config(),
            config.group_commit_config(),
        )?;
        let store = ts.shared_store();
        Self::assemble(store, config, Some(ts))
    }

    /// Opens an existing file-backed hFAD instance at `path` as the single
    /// writer, running full crash recovery (doublewrite redo + floored
    /// journal replay — see [`hfad_osd::persist::open_file`]). Returns the
    /// instance and the number of replayed operations (0 after a clean
    /// close).
    pub fn open_file<P: AsRef<std::path::Path>>(
        path: P,
        config: HfadConfig,
    ) -> Result<(Self, u64)> {
        let (ts, replayed) = hfad_osd::persist::open_file(
            path,
            config.store_config(),
            config.group_commit_config(),
        )?;
        let store = ts.shared_store();
        Ok((Self::assemble(store, config, Some(ts))?, replayed))
    }

    /// Opens a file-backed store **read-only**, holding the shared
    /// multi-process lock for the handle's lifetime.
    ///
    /// Reader mode deliberately spins up **no background services** —
    /// no engine, no read-ahead, no checkpointer, no indices: a reader
    /// must never write to the store file, and every one of those
    /// services exists to produce or schedule writes. The returned
    /// handle is the bare [`ObjectStore`]; reads go straight through its
    /// (clean) cache. Only the config's cache sizing is used.
    ///
    /// A store with pending recovery work (a crashed writer left a
    /// staged checkpoint batch or unreplayed journal commits) is refused
    /// with [`HfadError::NeedsRecovery`]; run [`open_file`](Self::open_file)
    /// once to recover, close it, then retry.
    pub fn open_file_reader<P: AsRef<std::path::Path>>(
        path: P,
        config: HfadConfig,
    ) -> Result<Arc<ObjectStore>> {
        Ok(hfad_osd::persist::open_file_reader(
            path,
            config.store_config(),
        )?)
    }

    /// Assembles the full stack — engine, caches, indices, background
    /// services — over an already-constructed store. `txn` pre-populates
    /// the transactional slot (persistent opens build the writer first,
    /// because recovery needs it before any index exists).
    fn assemble(
        store: Arc<ObjectStore>,
        config: HfadConfig,
        txn: Option<Arc<hfad_osd::TxnStore>>,
    ) -> Result<Self> {
        if let (Some(policy), Some(cache)) = (config.retry_policy(), store.block_cache()) {
            // One knob, every retry site: the cache's read fills (and so
            // read-ahead populates) follow the same budget as group
            // commit and the checkpointer.
            cache.set_read_retry(policy);
        }
        let raw: Arc<dyn BlockDevice> = match store.block_cache() {
            Some(cache) => Arc::clone(cache.inner()),
            None => Arc::clone(&store.context().device),
        };
        let engine = Engine::new(raw);
        if let Some(cache) = store.block_cache() {
            // Sequential-run detection in the cache feeds ReadAhead-class
            // prefetch jobs.
            EnginePrefetcher::attach(Arc::clone(&engine), cache, 32, 2);
        }
        // Indices are volatile: `assemble` rebuilds them empty on every
        // open. On a persistent store they therefore must not allocate
        // from the durable data area — every block a B-tree takes there
        // lands in the checkpoint's allocator snapshot, and the next
        // open (building fresh trees) has no root to reach or free it
        // by, so each open/crash cycle leaks the previous instance's
        // index footprint until the store reports out-of-space. Routing
        // their pages through the retain-dirty cache also drags index
        // garbage through the doublewrite checkpoint path. Persistent
        // stores back their indices with a memory-side arena sized like
        // the data area instead; in-memory stores keep sharing the
        // store context, whose device is already volatile.
        let ctx = if store.superblock().is_persistent() {
            let sb = store.superblock();
            let arena = Arc::new(MemDevice::new(
                sb.data_blocks.max(1),
                sb.block_size as usize,
            ));
            let allocator: Arc<dyn Allocator> =
                Arc::new(BuddyAllocator::new(0, sb.data_blocks.max(1)));
            TreeContext::new(arena, allocator)
                .with_node_cache(config.store_config().node_cache_pages())
        } else {
            store.context().clone()
        };
        let registry = IndexRegistry::new();
        let keyvalue = Arc::new(KeyValueIndex::new(
            ctx.clone(),
            "keyvalue",
            Some(vec![Tag::Posix, Tag::User, Tag::Udef, Tag::App]),
            INDEX_SHARDS,
        )?);
        let fulltext = Arc::new(FullTextIndex::new(ctx, INDEX_SHARDS)?);
        registry.register(Arc::clone(&keyvalue) as Arc<dyn IndexStore>);
        registry.register(Arc::clone(&fulltext) as Arc<dyn IndexStore>);
        // Index maintenance rides the engine's Index class with bounded
        // backpressure.
        let lazy =
            LazyIndexer::with_executor(Arc::clone(&fulltext), engine.executor(Priority::Index));
        // Persistent opens built their transactional writer first; adopt
        // its health machine so the whole stack shares one. Otherwise
        // start healthy and hand the machine to the writer when
        // `txn_store()` builds it.
        let health = match &txn {
            Some(ts) => ts.health_state(),
            None => Arc::new(HealthState::new()),
        };
        let fs = Hfad {
            store,
            registry,
            fulltext,
            checkpointer: parking_lot::Mutex::new(None),
            lazy,
            config,
            txn: parking_lot::Mutex::new(txn.clone()),
            health,
            engine,
        };
        // With a pre-populated transactional slot, txn_store() will never
        // build the wrapper itself — so start the background checkpointer
        // here.
        if let Some(ts) = txn {
            fs.start_checkpointer(ts);
        }
        Ok(fs)
    }

    /// Starts the watermark checkpointer over `ts`, its drains scheduled
    /// through the engine's `Checkpoint` class.
    fn start_checkpointer(&self, ts: Arc<hfad_osd::TxnStore>) {
        *self.checkpointer.lock() = Some(Checkpointer::start(
            ts,
            Some(self.engine.executor(Priority::Checkpoint)),
            self.config.checkpoint_config(),
        ));
    }

    /// Creates an in-memory hFAD instance with `capacity_bytes` of backing
    /// storage — the quickest way to get a working file system.
    pub fn in_memory(capacity_bytes: u64, config: HfadConfig) -> Result<Self> {
        let device = Arc::new(MemDevice::with_capacity(capacity_bytes));
        Self::on_device(device, config)
    }

    /// The active configuration.
    pub fn config(&self) -> HfadConfig {
        self.config
    }

    /// The underlying object store (exposed for the POSIX veneer and for
    /// experiments that need raw counters).
    pub fn store(&self) -> &Arc<ObjectStore> {
        &self.store
    }

    /// The transactional wrapper over the object store.
    ///
    /// Requires the instance to have been created with
    /// `journal_blocks > 0` (or file-backed) so a journal region exists.
    /// Commits issued through the returned [`hfad_osd::TxnStore`] ride
    /// the group-commit pipeline: concurrent transactions share one
    /// journal append and one device flush per batch.
    ///
    /// The wrapper is built on first use and cached: a journal region
    /// admits exactly one writer, so every call returns the **same**
    /// shared instance (two independent `TxnStore`s over one region
    /// would overwrite each other's acknowledged frames).
    ///
    /// First use also starts the background [`Checkpointer`]: journal
    /// reclaim runs off size/age watermarks, a full ring becomes brief
    /// backpressure on committers instead of a stop-the-world stall, and
    /// the checkpoint drain is scheduled through the engine's
    /// `Checkpoint` class.
    pub fn txn_store(&self) -> Result<Arc<hfad_osd::TxnStore>> {
        let mut slot = self.txn.lock();
        if let Some(ts) = slot.as_ref() {
            return Ok(Arc::clone(ts));
        }
        let ts = Arc::new(hfad_osd::TxnStore::with_config_and_health(
            Arc::clone(&self.store),
            self.config.group_commit_config(),
            Arc::clone(&self.health),
        )?);
        self.start_checkpointer(Arc::clone(&ts));
        *slot = Some(Arc::clone(&ts));
        Ok(ts)
    }

    /// The instance's current health.
    ///
    /// The state machine is `Healthy → Degraded → ReadOnly → FailStop`,
    /// ratcheting forward as faults accumulate: transient device errors
    /// being retried mark the store `Degraded` (and a success restores
    /// `Healthy`); a permanent journal or checkpoint failure — or a
    /// transient one that outlives every retry budget — degrades it to
    /// `ReadOnly`, where reads keep serving but writes are rejected with
    /// [`hfad_storage::StorageError::ReadOnly`]; an acknowledged commit
    /// that failed to apply fail-stops the instance.
    pub fn health(&self) -> Health {
        self.health.health()
    }

    /// Rejects the calling write path when the store is no longer
    /// writable; the cheap happy path is one atomic load.
    pub(crate) fn check_writable(&self) -> Result<()> {
        Ok(self.health.check_writable()?)
    }

    /// The background-job engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The index registry (exposed so plug-in index stores can be
    /// registered — open question 1 of §4).
    pub fn registry(&self) -> &IndexRegistry {
        &self.registry
    }

    /// The full-text index.
    pub fn fulltext(&self) -> &Arc<FullTextIndex> {
        &self.fulltext
    }

    /// Registers a plug-in index store (e.g. an image or sound index).
    ///
    /// The store is consulted for any tag it reports handling; registering
    /// it does not retroactively index existing objects.
    pub fn register_index(&self, store: Arc<dyn IndexStore>) {
        self.registry.register(store);
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HfadStats {
        let txn = self.txn.lock().clone();
        HfadStats {
            store: self.store.stats(),
            indices: self.registry.stats(),
            fulltext_documents: self.fulltext.documents_indexed(),
            lazy_backlog: self.lazy.backlog(),
            engine: self.engine.stats(),
            checkpoint: txn.as_ref().map(|ts| ts.checkpoint_stats()),
            group_commit: txn.as_ref().map(|ts| ts.group_commit_stats()),
            health: self.health.health(),
        }
    }

    /// Blocks until the background indexer has no pending work, so
    /// [`search_text`](Self::search_text) sees every indexed write.
    pub fn sync_index(&self) {
        self.lazy.drain();
    }

    /// Starts an iterative search refinement — the paper's §4 suggestion of
    /// treating the "current directory" as a progressively refined search.
    pub fn search(&self) -> SearchCursor<'_> {
        SearchCursor::new(self)
    }

    // ------------------------------------------------------------------
    // Object metadata passthroughs.
    // ------------------------------------------------------------------

    /// Metadata of an object.
    pub fn meta(&self, oid: ObjectId) -> Result<ObjectMeta> {
        Ok(self.store.meta(oid)?)
    }

    /// Updates security attributes / flags of an object.
    pub fn set_meta(&self, oid: ObjectId, meta: ObjectMeta) -> Result<()> {
        Ok(self.store.set_meta(oid, meta)?)
    }

    /// Size of an object in bytes.
    pub fn len(&self, oid: ObjectId) -> Result<u64> {
        Ok(self.store.len(oid)?)
    }

    /// Returns `true` if the file system holds no objects.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of live objects.
    pub fn object_count(&self) -> u64 {
        self.store.object_count()
    }

    // ------------------------------------------------------------------
    // Internal helpers shared by naming/access.
    // ------------------------------------------------------------------

    /// Evaluates an arbitrary boolean [`Query`].
    pub fn query(&self, query: &Query) -> Result<Vec<ObjectId>> {
        Ok(query.evaluate(&self.registry)?)
    }

    pub(crate) fn parse_id_value(value: &str) -> Result<ObjectId> {
        value
            .parse::<u64>()
            .map(ObjectId)
            .map_err(|_| HfadError::InvalidIdValue(value.to_string()))
    }

    pub(crate) fn format_name(pairs: &[TagValue]) -> String {
        pairs
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

impl Drop for Hfad {
    fn drop(&mut self) {
        // Field drop order alone is not enough for a clean close: the
        // cache's prefetch sink holds the engine *strongly*, so any
        // outliving store/txn handle (benches, the POSIX veneer, a
        // caller's `txn_store()` clone) would keep the worker threads
        // alive forever if we only dropped our own `Arc<Engine>`. Stop
        // every service that submits into the engine, then shut the
        // engine down explicitly — late submissions (e.g. a prefetch
        // from a surviving store handle) fail gracefully with
        // `EngineError::Shutdown` and are dropped.
        self.checkpointer.lock().take();
        self.lazy.shutdown();
        // Dropping the last txn handle runs the persistent store's final
        // checkpoint (synchronous, engine-free), making the close clean.
        self.txn.lock().take();
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_in_memory_starts_empty() {
        let fs = Hfad::in_memory(16 * 1024 * 1024, HfadConfig::default()).unwrap();
        assert!(fs.is_empty());
        assert_eq!(fs.object_count(), 0);
        assert_eq!(fs.stats().fulltext_documents, 0);
        assert!(fs.stats().indices.len() >= 2);
    }

    #[test]
    fn default_configuration_runs_the_full_stack_in_memory() {
        let fs = Hfad::in_memory(16 * 1024 * 1024, HfadConfig::default()).unwrap();
        assert!(
            fs.store().block_cache().is_some(),
            "the block cache defaults on"
        );
        // Foreground semantics are unchanged by the routed background
        // machinery.
        let oid = fs.create(&[]).unwrap();
        fs.write(oid, 0, b"defaults-on").unwrap();
        assert_eq!(fs.read(oid, 0, 11).unwrap(), b"defaults-on".to_vec());
    }

    #[test]
    fn dropping_the_instance_shuts_the_engine_down() {
        // The cache's prefetch sink holds the engine strongly and the
        // store owns the cache — so a surviving store handle would keep
        // the engine workers alive forever without the explicit
        // shutdown in Drop.
        let fs = Hfad::in_memory(
            16 * 1024 * 1024,
            HfadConfig {
                cache_blocks: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let engine = Arc::clone(fs.engine());
        let store = Arc::clone(fs.store()); // outlives the instance
        drop(fs);
        let refused = engine
            .submit_job(hfad_engine::Priority::Foreground, Box::new(|| Ok(())))
            .err();
        assert_eq!(
            refused,
            Some(hfad_engine::EngineError::Shutdown),
            "drop must shut the engine down even with live store handles"
        );
        drop(store);
    }

    #[test]
    fn sync_index_empties_the_lazy_backlog() {
        let fs = Hfad::in_memory(16 * 1024 * 1024, HfadConfig::default()).unwrap();
        assert_eq!(fs.stats().lazy_backlog, 0);
        for i in 0..20 {
            fs.create_with_content(&[], format!("document {i}").as_bytes())
                .unwrap();
        }
        fs.sync_index();
        let stats = fs.stats();
        assert_eq!(stats.lazy_backlog, 0);
        assert_eq!(stats.fulltext_documents, 20);
    }

    #[test]
    fn id_value_parsing() {
        assert_eq!(Hfad::parse_id_value("17").unwrap(), ObjectId(17));
        assert!(matches!(
            Hfad::parse_id_value("not-a-number"),
            Err(HfadError::InvalidIdValue(_))
        ));
    }

    #[test]
    fn txn_store_uses_configured_group_commit() {
        let fs = Hfad::in_memory(
            16 * 1024 * 1024,
            HfadConfig {
                journal_blocks: 256,
                ..Default::default()
            },
        )
        .unwrap();
        let ts = fs.txn_store().unwrap();
        // Repeated calls must hand back the same shared writer: two
        // independent journals over one region would clobber each other.
        assert!(Arc::ptr_eq(&ts, &fs.txn_store().unwrap()));
        let oid = fs.create(&[]).unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, b"durable").unwrap();
        txn.commit().unwrap();
        assert_eq!(fs.read(oid, 0, 7).unwrap(), b"durable".to_vec());
        let stats = ts.group_commit_stats();
        assert_eq!(stats.commits, 1);
        assert!(stats.max_batch <= hfad_storage::GroupCommitConfig::default().max_batch as u64);
        // Without a journal region the wrapper must be refused.
        let plain = Hfad::in_memory(4 * 1024 * 1024, HfadConfig::default()).unwrap();
        assert!(plain.txn_store().is_err());
    }

    #[test]
    fn engine_default_path_routes_background_work_through_the_engine() {
        // Engine + cache + lazy indexing: the full routed
        // configuration. Foreground semantics must be unchanged and the
        // engine must actually see jobs.
        let fs = Hfad::in_memory(
            16 * 1024 * 1024,
            HfadConfig {
                cache_blocks: 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let oid = fs.create(&[]).unwrap();
        fs.write(oid, 0, b"the quick brown fox").unwrap();
        assert_eq!(fs.read(oid, 4, 5).unwrap(), b"quick".to_vec());
        fs.index_content(oid, b"the quick brown fox").unwrap();
        fs.sync_index();
        let stats = fs.stats();
        // Lazy indexing rode the engine's Index class.
        assert!(
            stats.engine.class(hfad_engine::Priority::Index).submitted >= 1,
            "indexing jobs go through the engine"
        );
        assert_eq!(stats.fulltext_documents, 1);
    }

    #[test]
    fn watermark_checkpointer_keeps_commits_flowing_on_a_tiny_ring() {
        // A 6-block ring (journal_blocks 8 minus 2 header blocks) with
        // the background checkpointer: sustained commits far beyond ring
        // capacity must all succeed, and the one stats() snapshot must
        // show group commit and checkpoints.
        let fs = Hfad::in_memory(
            16 * 1024 * 1024,
            HfadConfig {
                journal_blocks: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let ts = fs.txn_store().unwrap();
        let oid = fs.create(&[]).unwrap();
        for i in 0..256u64 {
            let mut txn = ts.begin();
            txn.write(oid, i * 128, &[i as u8; 128]).unwrap();
            txn.commit().unwrap_or_else(|e| panic!("commit {i}: {e}"));
        }
        assert_eq!(fs.len(oid).unwrap(), 256 * 128);
        let stats = fs.stats();
        let checkpoint = stats.checkpoint.expect("txn store opened");
        assert!(
            checkpoint.checkpoints_completed >= 1,
            "the ring cannot hold 32 KiB of frames without reclaim"
        );
        assert_eq!(stats.group_commit.expect("txn store opened").commits, 256);
    }

    #[test]
    fn file_backed_instance_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("hfad-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("persist_round_trip.hfad");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(dir.join("persist_round_trip.hfad.lck")).ok();
        let config = HfadConfig {
            journal_blocks: 256,
            ..Default::default()
        };
        let oid = {
            let fs = Hfad::create_file(&path, 8 << 20, config).unwrap();
            let ts = fs.txn_store().unwrap();
            let mut txn = ts.begin();
            let oid = txn
                .create(ObjectMeta::new(1, 1, 0o644, hfad_osd::unix_now()))
                .unwrap();
            txn.write(oid, 0, b"full-stack persistence").unwrap();
            txn.commit().unwrap();
            oid
        };
        // While the file is closed, nothing holds the lock; reopening
        // recovers (here: nothing, the drop checkpointed) and serves the
        // same bytes through the whole stack.
        let (fs, replayed) = Hfad::open_file(&path, config).unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(
            fs.read(oid, 0, 100).unwrap(),
            b"full-stack persistence".to_vec()
        );
        assert_eq!(fs.object_count(), 1);
        // The pre-wired transactional writer accepts new commits.
        let ts = fs.txn_store().unwrap();
        let mut txn = ts.begin();
        txn.write(oid, 0, b"FULL").unwrap();
        txn.commit().unwrap();
        assert_eq!(fs.read(oid, 0, 4).unwrap(), b"FULL".to_vec());
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hfad-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        let mut lck = path.file_name().unwrap().to_os_string();
        lck.push(".lck");
        std::fs::remove_dir_all(path.with_file_name(lck)).ok();
        path
    }

    #[test]
    fn file_backed_defaults_checkpoint_committed_bytes() {
        // Persistent stores retain dirty pages for doublewrite-protected
        // checkpoint installs; committed bytes reach the file through
        // those installs and read back after a reopen.
        let path = scratch_file("defaults_on_file.hfad");
        let config = HfadConfig {
            journal_blocks: 64,
            cache_blocks: 1024,
            ..Default::default()
        };
        let oid = {
            let fs = Hfad::create_file(&path, 8 << 20, config).unwrap();
            let ts = fs.txn_store().unwrap();
            let mut txn = ts.begin();
            let oid = txn
                .create(ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now()))
                .unwrap();
            txn.write(oid, 0, b"checkpointed, not trickled").unwrap();
            txn.commit().unwrap();
            oid
        };
        let (fs, _) = Hfad::open_file(&path, config).unwrap();
        assert_eq!(
            fs.read(oid, 0, 100).unwrap(),
            b"checkpointed, not trickled".to_vec()
        );
    }

    #[test]
    fn reader_mode_serves_bytes_without_background_services() {
        let path = scratch_file("reader_mode.hfad");
        let config = HfadConfig {
            journal_blocks: 64,
            ..Default::default()
        };
        let oid = {
            let fs = Hfad::create_file(&path, 8 << 20, config).unwrap();
            let ts = fs.txn_store().unwrap();
            let mut txn = ts.begin();
            let oid = txn
                .create(ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now()))
                .unwrap();
            txn.write(oid, 0, b"read-only view").unwrap();
            txn.commit().unwrap();
            oid
        };
        // Clean close → the reader opens a bare store: no engine, no
        // services, just the shared lock and the (clean) cache.
        let reader = Hfad::open_file_reader(&path, config).unwrap();
        assert_eq!(
            reader.read(oid, 0, 100).unwrap(),
            b"read-only view".to_vec()
        );
        drop(reader);
        // A crashed writer leaves recovery work; the reader must refuse
        // with the dedicated NeedsRecovery error, not Corrupt. The
        // "crashed" writer is the bare persistent store, which starts no
        // background service: a leaked checkpointer would keep running
        // after the mem::forget and could recover the store behind the
        // test's back.
        {
            let ts = hfad_osd::persist::create_file(
                &path,
                8 << 20,
                config.store_config(),
                config.group_commit_config(),
            )
            .unwrap();
            let mut txn = ts.begin();
            let oid2 = txn
                .create(ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now()))
                .unwrap();
            txn.write(oid2, 0, b"unrecovered").unwrap();
            txn.commit().unwrap();
            // The first commit may trip the dirty-page threshold
            // checkpoint, leaving nothing to recover; a second commit
            // right after is guaranteed to sit above the fresh replay
            // floor.
            let mut txn = ts.begin();
            txn.write(oid2, 0, b"unrecovered-2").unwrap();
            txn.commit().unwrap();
            // Simulate kill -9: leak the writer (no clean-close
            // checkpoint) and sweep the dead holder's lockfiles.
            std::mem::forget(ts);
            let mut lck = path.file_name().unwrap().to_os_string();
            lck.push(".lck");
            std::fs::remove_dir_all(path.with_file_name(lck)).unwrap();
        }
        match Hfad::open_file_reader(&path, config) {
            Ok(_) => panic!("reader must refuse a store with pending recovery"),
            Err(err) => assert!(
                matches!(err, HfadError::NeedsRecovery(_)),
                "reader must surface NeedsRecovery, got: {err}"
            ),
        }
    }

    #[test]
    fn format_name_joins_pairs() {
        let name = Hfad::format_name(&[TagValue::udef("beach"), TagValue::user("margo")]);
        assert_eq!(name, "UDEF/beach ∧ USER/margo");
    }
}
