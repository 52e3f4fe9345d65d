//! The object store: OID allocation, the sharded object table and
//! per-object locks.
//!
//! This is the paper's OSD layer (§3.3): it presents "the abstraction of a
//! uniquely identified container of bytes". It is comparable to the ZFS DMU
//! except that, as in the paper, it provides individual objects rather than
//! object sets, and transactionality is optional (see [`crate::txn`]).
//!
//! # Sharding and locking model
//!
//! The paper's concurrency claim (§2.3) is that unrelated operations on an
//! object store share no namespace state and therefore no locks. The store
//! realises that claim by striping its two pieces of shared hot-path state
//! across `N` shards routed by a hash of the [`ObjectId`]
//! (see [`crate::shard`]):
//!
//! * **Object table** — `N` independent B-trees, each behind its own
//!   `RwLock`, mapping `OID → extent-map root page`. Create, remove and
//!   root-pointer updates for objects in different shards never contend.
//! * **Open-object map** — a [`ShardedMap`] of `OID → Arc<Mutex<Object>>`
//!   handles. Opening an object locks only its shard, and a cache-miss
//!   load (a table read plus object reconstruction) blocks only same-shard
//!   opens, not the whole store.
//! * **Per-object lock** — each open object is guarded by its own `Mutex`;
//!   all data operations (`read`/`write`/`insert`/`truncate`) take only
//!   that lock plus, when the extent-map root moved, the object's table
//!   shard.
//!
//! `N` defaults to the next power of two at or above the machine's
//! available parallelism and is overridable via [`StoreConfig::shards`];
//! `shards = 1` reproduces the old single-global-lock behaviour and is the
//! contention baseline measured by the E2/E6 experiments. OID allocation
//! is striped the same way ([`OidAllocator`]: per-shard id ranges refilled
//! from a global counter) and the block allocator and device have their
//! own internal synchronisation, so no global lock — and no shared cache
//! line — remains on the open/create/remove path.
//!
//! # The two cache tiers
//!
//! [`StoreConfig::cache_blocks`] `> 0` (off by default) fronts the read
//! path with two caches; experiment E9 ablates each at its own layer:
//!
//! * the storage layer's sharded [`CachedDevice`] (block frames,
//!   auto-sized lock stripes, O(1) CLOCK eviction);
//! * a shared decoded-node cache of
//!   [`StoreConfig::node_cache_pages`] pages on the B-tree context, so hot
//!   descents of the object table and extent maps skip `Node::decode`
//!   entirely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use hfad_btree::{BTree, TreeContext};
use hfad_storage::{
    AllocStats, Allocator, BlockDevice, BuddyAllocator, CacheStats, CachedDevice, DeviceCounters,
    ProcLock, Superblock,
};

use crate::error::{OsdError, Result};
use crate::meta::{unix_now, ObjectMeta};
use crate::object::{Object, DEFAULT_MAX_EXTENT_BYTES};
use crate::oid::{ObjectId, OidAllocator};
use crate::shard::ShardedMap;
use hfad_storage::shard::{resolve_shard_count, shard_index};

/// Configuration for a new [`ObjectStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Maximum bytes covered by a single extent. Larger extents mean fewer
    /// extent-map entries per object but coarser mid-file splices; the
    /// trade-off is swept by experiment E6.
    pub max_extent_bytes: u64,
    /// Blocks reserved for the write-ahead journal (0 disables it; a
    /// journal is required by [`crate::txn::TxnStore`]).
    pub journal_blocks: u64,
    /// Number of lock shards for the object table and open-object map.
    ///
    /// `0` (the default) auto-sizes to the next power of two at or above
    /// the machine's available parallelism; explicit values are rounded up
    /// to a power of two and capped at [`hfad_storage::shard::MAX_SHARDS`].
    /// Set to `1` to reproduce a single-global-lock store (the E2/E6
    /// contention baseline).
    pub shards: usize,
    /// Block-cache capacity in blocks. `0` (the default) leaves the
    /// device unwrapped; any other value fronts it with the storage
    /// layer's sharded write-back [`CachedDevice`] (which sizes its own
    /// lock stripes) plus a decoded B-tree node cache of
    /// [`node_cache_pages`](Self::node_cache_pages) pages.
    pub cache_blocks: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_extent_bytes: DEFAULT_MAX_EXTENT_BYTES,
            journal_blocks: 0,
            shards: 0,
            cache_blocks: 0,
        }
    }
}

impl StoreConfig {
    /// Capacity in pages of the decoded B-tree node cache shared by the
    /// object table stripes and every extent map: a quarter of
    /// [`cache_blocks`](Self::cache_blocks), so `0` when the store runs
    /// uncached.
    pub fn node_cache_pages(&self) -> usize {
        self.cache_blocks / 4
    }
}

/// Aggregate statistics for a store, summed across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of live objects (sum of the per-shard live counts).
    pub objects: u64,
    /// Number of lock shards the store was created with.
    pub shards: usize,
    /// Physical device counters.
    pub device: DeviceCounters,
    /// Data-area allocator statistics.
    pub allocator: AllocStats,
    /// Block-cache statistics; `None` when the store was created with
    /// [`StoreConfig::cache_blocks`] `== 0`.
    pub block_cache: Option<CacheStats>,
}

struct OpenObject {
    object: Object,
    persisted_root: u64,
}

/// One stripe of the object table: an independent `OID → root page`
/// B-tree plus the live-object count for the stripe.
struct TableShard {
    tree: RwLock<BTree>,
    live: AtomicU64,
}

/// The object storage device.
///
/// All methods take `&self`; see the [module documentation](self) for the
/// sharding and locking model. This is the locking granularity the paper
/// contrasts with a hierarchical namespace, where unrelated operations
/// still synchronise on shared ancestor directories.
pub struct ObjectStore {
    ctx: TreeContext,
    superblock: Superblock,
    config: StoreConfig,
    tables: Box<[TableShard]>,
    objects: ShardedMap<Arc<Mutex<OpenObject>>>,
    oid_alloc: OidAllocator,
    /// Typed handle to the block cache fronting the device, when
    /// configured ([`TreeContext::device`] is the same object, type-erased).
    block_cache: Option<Arc<CachedDevice<Arc<dyn BlockDevice>>>>,
    /// Persistence context for a file-backed writer store (`None` for
    /// in-memory and read-only stores). See [`crate::persist`].
    persist: Option<Arc<crate::persist::PersistCtx>>,
    /// Store-lifetime shared multi-process lock held by a read-only
    /// file-backed open (writers keep theirs inside [`PersistCtx`]).
    _proc_lock: Option<ProcLock>,
}

impl ObjectStore {
    /// Formats `device` and creates an empty store on it.
    ///
    /// With [`StoreConfig::cache_blocks`] `> 0` the device is fronted by
    /// the sharded write-back block cache before formatting, so every
    /// layer above (superblock, journal, B-trees, data extents) reads and
    /// writes through it.
    pub fn create(device: Arc<dyn BlockDevice>, config: StoreConfig) -> Result<Self> {
        let mut block_cache = None;
        let device: Arc<dyn BlockDevice> = if config.cache_blocks > 0 {
            let cached = Arc::new(CachedDevice::new(device, config.cache_blocks));
            block_cache = Some(Arc::clone(&cached));
            cached
        } else {
            device
        };
        let superblock = Superblock::layout(
            device.block_count(),
            device.block_size(),
            config.journal_blocks,
        )?;
        superblock.write_to(&device)?;
        if superblock.journal_blocks > 0 {
            // Formatting must leave an *empty* journal: the device may be
            // reused, and `Journal::new` adopts any surviving valid
            // header + frames (so a later `TxnStore` would resurrect and
            // replay the previous instance's transactions). The full
            // zeroing reset destroys the old headers and every stale
            // frame in the region — the O(region) cost is fine at format
            // time, which is exactly why `reset_full` survives the
            // incremental-reclaim refactor.
            hfad_storage::Journal::new(
                Arc::clone(&device),
                superblock.journal_start,
                superblock.journal_blocks,
            )?
            .reset_full()?;
        }
        let allocator: Arc<dyn Allocator> = Arc::new(BuddyAllocator::new(
            superblock.data_start,
            superblock.data_blocks,
        ));
        let ctx = TreeContext::new(device, allocator).with_node_cache(config.node_cache_pages());
        let shard_count = resolve_shard_count(config.shards);
        let mut tables = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            tables.push(TableShard {
                tree: RwLock::new(BTree::create(ctx.clone())?),
                live: AtomicU64::new(0),
            });
        }
        Ok(ObjectStore {
            ctx,
            superblock,
            config,
            tables: tables.into_boxed_slice(),
            objects: ShardedMap::new(shard_count),
            oid_alloc: OidAllocator::new(1, shard_count),
            block_cache,
            persist: None,
            _proc_lock: None,
        })
    }

    /// Assembles a store over an already-formatted persistent device.
    ///
    /// Unlike [`create`](Self::create) this never writes the superblock or
    /// journal — the persistent open/create flows in [`crate::persist`] do
    /// that on the raw device, beneath the retain-dirty `cache` this store
    /// reads and writes through. With `shard_state = Some(roots)` the
    /// object-table shards are reopened from checkpointed
    /// `(root_page, live_count)` pairs (which also fix the shard count);
    /// with `None` fresh empty shards are created per `config.shards`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_persistent(
        cache: Arc<CachedDevice<Arc<dyn BlockDevice>>>,
        allocator: Arc<dyn Allocator>,
        superblock: Superblock,
        config: StoreConfig,
        shard_state: Option<&[(u64, u64)]>,
        next_oid: u64,
        persist: Option<Arc<crate::persist::PersistCtx>>,
        proc_lock: Option<ProcLock>,
    ) -> Result<Self> {
        let block_cache = Some(Arc::clone(&cache));
        let device: Arc<dyn BlockDevice> = cache;
        let ctx = TreeContext::new(device, allocator).with_node_cache(config.node_cache_pages());
        let mut tables = Vec::new();
        match shard_state {
            Some(state) => {
                for &(root, live) in state {
                    tables.push(TableShard {
                        tree: RwLock::new(BTree::open(ctx.clone(), root)),
                        live: AtomicU64::new(live),
                    });
                }
            }
            None => {
                for _ in 0..resolve_shard_count(config.shards) {
                    tables.push(TableShard {
                        tree: RwLock::new(BTree::create(ctx.clone())?),
                        live: AtomicU64::new(0),
                    });
                }
            }
        }
        let shard_count = tables.len();
        if !shard_count.is_power_of_two() {
            return Err(OsdError::Corrupt(format!(
                "persistent store metadata carries {shard_count} table shards (not a power of two)"
            )));
        }
        Ok(ObjectStore {
            ctx,
            superblock,
            config,
            tables: tables.into_boxed_slice(),
            objects: ShardedMap::new(shard_count),
            oid_alloc: OidAllocator::new(next_oid.max(1), shard_count),
            block_cache,
            persist,
            _proc_lock: proc_lock,
        })
    }

    /// The persistence context, when this is a file-backed writer store.
    pub(crate) fn persist(&self) -> Option<&Arc<crate::persist::PersistCtx>> {
        self.persist.as_ref()
    }

    /// Returns `true` when this store persists to a file (writer mode).
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// Checkpointable object-table state: one `(root_page, live_count)`
    /// pair per shard, in shard order.
    pub(crate) fn table_state(&self) -> Vec<(u64, u64)> {
        self.tables
            .iter()
            .map(|s| (s.tree.read().root_page(), s.live.load(Ordering::Relaxed)))
            .collect()
    }

    /// The object-id allocator (checkpoints record its range head).
    pub(crate) fn oid_alloc(&self) -> &OidAllocator {
        &self.oid_alloc
    }

    /// Allocates an object id without creating the object — used by
    /// transactional creates, which journal the id before applying.
    pub(crate) fn allocate_oid(&self) -> ObjectId {
        self.oid_alloc.allocate()
    }

    /// Creates an empty object under a caller-chosen id.
    ///
    /// This is the replay/transactional twin of
    /// [`create_object`](Self::create_object): the id was allocated (and
    /// journalled) beforehand, so applying the same record twice must be
    /// harmless — an id that already exists returns `Ok` without touching
    /// anything.
    pub(crate) fn create_object_with_id(&self, oid: ObjectId, meta: ObjectMeta) -> Result<()> {
        let shard = self.table(oid);
        let mut map_shard = self.objects.lock_shard(oid.as_u64());
        {
            let tree = shard.tree.read();
            if tree.get(&oid.to_key())?.is_some() {
                return Ok(());
            }
        }
        let object = Object::create(oid, self.ctx.clone(), meta, self.config.max_extent_bytes)?;
        let root = object.root_page();
        {
            let mut tree = shard.tree.write();
            tree.insert(&oid.to_key(), &root.to_le_bytes())?;
        }
        shard.live.fetch_add(1, Ordering::Relaxed);
        map_shard.insert(
            oid.as_u64(),
            Arc::new(Mutex::new(OpenObject {
                object,
                persisted_root: root,
            })),
        );
        Ok(())
    }

    /// Convenience constructor: an in-memory store with `capacity_bytes` of
    /// backing storage and default configuration.
    pub fn in_memory(capacity_bytes: u64) -> Result<Self> {
        let device = Arc::new(hfad_storage::MemDevice::with_capacity(capacity_bytes));
        Self::create(device, StoreConfig::default())
    }

    /// The store configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The device layout this store formatted.
    pub fn superblock(&self) -> Superblock {
        self.superblock
    }

    /// The shared device / allocator context.
    pub fn context(&self) -> &TreeContext {
        &self.ctx
    }

    /// Number of lock shards (the resolved value of
    /// [`StoreConfig::shards`]; always a power of two).
    pub fn shard_count(&self) -> usize {
        self.tables.len()
    }

    /// The shard `oid` routes to, in `0..shard_count()`. Two objects in
    /// the same shard share a table lock and an open-map stripe; objects
    /// in different shards share no namespace locks at all.
    pub fn shard_of(&self, oid: ObjectId) -> usize {
        shard_index(oid.as_u64(), self.tables.len())
    }

    fn table(&self, oid: ObjectId) -> &TableShard {
        &self.tables[self.shard_of(oid)]
    }

    /// The block cache fronting the device, when configured.
    pub fn block_cache(&self) -> Option<&Arc<CachedDevice<Arc<dyn BlockDevice>>>> {
        self.block_cache.as_ref()
    }

    /// Aggregate statistics, summed across shards.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            objects: self.object_count(),
            shards: self.tables.len(),
            device: self.ctx.device.counters(),
            allocator: self.ctx.allocator.stats(),
            block_cache: self.block_cache.as_ref().map(|c| c.cache_stats()),
        }
    }

    /// Number of live objects (sum of the per-shard live counts; O(shards),
    /// no table scan).
    pub fn object_count(&self) -> u64 {
        self.tables
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .sum()
    }

    /// Every live object id, in ascending order (merged across shards).
    pub fn list(&self) -> Result<Vec<ObjectId>> {
        let mut out = Vec::new();
        for shard in self.tables.iter() {
            let tree = shard.tree.read();
            for (key, _) in tree.scan_all()? {
                if let Some(oid) = ObjectId::from_key(&key) {
                    out.push(oid);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Creates a new empty object and returns its id.
    pub fn create_object(&self, meta: ObjectMeta) -> Result<ObjectId> {
        let oid = self.oid_alloc.allocate();
        let object = Object::create(oid, self.ctx.clone(), meta, self.config.max_extent_bytes)?;
        let root = object.root_page();
        let shard = self.table(oid);
        // Hold the open-map shard lock across both publications (table
        // entry, then handle), mirroring delete: a concurrent operation on
        // this oid blocks on the shard lock and then observes either
        // nothing or the fully created object, never the table entry
        // without its handle.
        let mut map_shard = self.objects.lock_shard(oid.as_u64());
        {
            let mut tree = shard.tree.write();
            tree.insert(&oid.to_key(), &root.to_le_bytes())?;
        }
        shard.live.fetch_add(1, Ordering::Relaxed);
        map_shard.insert(
            oid.as_u64(),
            Arc::new(Mutex::new(OpenObject {
                object,
                persisted_root: root,
            })),
        );
        Ok(oid)
    }

    /// Creates an object with default metadata owned by `uid`.
    pub fn create_default(&self, uid: u32) -> Result<ObjectId> {
        self.create_object(ObjectMeta::new(uid, uid, 0o644, unix_now()))
    }

    fn load_object(&self, oid: ObjectId) -> Result<Arc<Mutex<OpenObject>>> {
        self.objects.get_or_try_insert_with(oid.as_u64(), || {
            // Not open: fetch the root page from the table shard and
            // reconstruct. Only this shard's opens wait on the load.
            let root_bytes = {
                let tree = self.table(oid).tree.read();
                tree.get(&oid.to_key())?
            };
            let Some(root_bytes) = root_bytes else {
                return Err(OsdError::NoSuchObject(oid.as_u64()));
            };
            let root =
                u64::from_le_bytes(root_bytes.as_slice().try_into().map_err(|_| {
                    OsdError::Corrupt("object table value is not a root page".into())
                })?);
            let tree = BTree::open(self.ctx.clone(), root);
            let meta_bytes = tree
                .get(&[0x00])?
                .ok_or_else(|| OsdError::Corrupt(format!("object {oid} has no metadata record")))?;
            let meta = ObjectMeta::decode(&meta_bytes)?;
            let object = Object::from_parts(oid, tree, meta, self.config.max_extent_bytes);
            Ok(Arc::new(Mutex::new(OpenObject {
                object,
                persisted_root: root,
            })))
        })
    }

    /// Runs `f` with exclusive access to the object, persisting the new
    /// extent-map root if the operation changed it.
    pub fn with_object<R>(
        &self,
        oid: ObjectId,
        f: impl FnOnce(&mut Object) -> Result<R>,
    ) -> Result<R> {
        let entry = self.load_object(oid)?;
        let mut guard = entry.lock();
        let result = f(&mut guard.object)?;
        let root = guard.object.root_page();
        if root != guard.persisted_root {
            let mut tree = self.table(oid).tree.write();
            tree.insert(&oid.to_key(), &root.to_le_bytes())?;
            guard.persisted_root = root;
        }
        Ok(result)
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read(&self, oid: ObjectId, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.with_object(oid, |o| o.read(offset, len))
    }

    /// Writes `data` at `offset`, extending the object if needed.
    pub fn write(&self, oid: ObjectId, offset: u64, data: &[u8]) -> Result<()> {
        self.with_object(oid, |o| o.write(offset, data))
    }

    /// Appends `data` at the end of the object.
    pub fn append(&self, oid: ObjectId, data: &[u8]) -> Result<()> {
        self.with_object(oid, |o| o.append(data))
    }

    /// Inserts `data` at `offset`, shifting the tail of the object.
    pub fn insert(&self, oid: ObjectId, offset: u64, data: &[u8]) -> Result<()> {
        self.with_object(oid, |o| o.insert(offset, data))
    }

    /// Removes `len` bytes at `offset`, shifting the tail towards the start.
    pub fn truncate_range(&self, oid: ObjectId, offset: u64, len: u64) -> Result<()> {
        self.with_object(oid, |o| o.truncate_range(offset, len))
    }

    /// POSIX-style truncate to an absolute size.
    pub fn truncate(&self, oid: ObjectId, new_size: u64) -> Result<()> {
        self.with_object(oid, |o| o.truncate(new_size))
    }

    /// Current object size in bytes.
    pub fn len(&self, oid: ObjectId) -> Result<u64> {
        self.with_object(oid, |o| Ok(o.len()))
    }

    /// Returns `true` when the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.object_count() == 0
    }

    /// Current object metadata.
    pub fn meta(&self, oid: ObjectId) -> Result<ObjectMeta> {
        self.with_object(oid, |o| Ok(o.meta()))
    }

    /// Updates security attributes / flags.
    pub fn set_meta(&self, oid: ObjectId, meta: ObjectMeta) -> Result<()> {
        self.with_object(oid, |o| o.set_meta(meta))
    }

    /// Per-object statistics (size, extent count, allocated blocks).
    pub fn object_stats(&self, oid: ObjectId) -> Result<crate::object::ObjectStats> {
        self.with_object(oid, |o| o.stats())
    }

    /// Deletes an object, freeing all of its storage.
    ///
    /// Fails with [`OsdError::Corrupt`] (and changes nothing) if another
    /// thread currently holds the object's handle; fails with
    /// [`OsdError::NoSuchObject`] if the object does not exist.
    pub fn delete(&self, oid: ObjectId) -> Result<()> {
        let entry = self.load_object(oid)?;
        let shard = self.table(oid);
        let open = {
            // Hold the open-map shard lock across both the ownership check
            // and the table removal: concurrent opens of this object block
            // on the same shard lock (load_object holds it while reading
            // the table), so once the table entry is gone they observe
            // NoSuchObject rather than resurrecting a handle over storage
            // the destroy below is about to free. Lock order is map shard
            // → table shard, the same as the load path.
            let mut map_shard = self.objects.lock_shard(oid.as_u64());
            map_shard.remove(&oid.as_u64());
            match Arc::try_unwrap(entry) {
                Ok(open) => {
                    let removed = shard.tree.write().delete(&oid.to_key())?;
                    if removed.is_some() {
                        shard.live.fetch_sub(1, Ordering::Relaxed);
                    }
                    open
                }
                Err(entry) => {
                    // Another thread still uses the object: put the handle
                    // back and fail without touching table, counter or
                    // storage, so the store stays fully consistent.
                    map_shard.insert(oid.as_u64(), entry);
                    return Err(OsdError::Corrupt(format!(
                        "object {oid} still in use during delete"
                    )));
                }
            }
        };
        open.into_inner().object.destroy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ObjectStore {
        ObjectStore::in_memory(32 * 1024 * 1024).unwrap()
    }

    fn sharded_store(shards: usize) -> ObjectStore {
        let device = Arc::new(hfad_storage::MemDevice::with_capacity(32 * 1024 * 1024));
        ObjectStore::create(
            device,
            StoreConfig {
                shards,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn create_and_list_objects() {
        let s = store();
        assert!(s.is_empty());
        let a = s.create_default(1000).unwrap();
        let b = s.create_default(1000).unwrap();
        assert_ne!(a, b);
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.list().unwrap(), vec![a, b]);
    }

    #[test]
    fn write_read_via_store() {
        let s = store();
        let oid = s.create_default(0).unwrap();
        s.write(oid, 0, b"stored bytes").unwrap();
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"stored bytes".to_vec());
        assert_eq!(s.len(oid).unwrap(), 12);
        assert_eq!(s.meta(oid).unwrap().size, 12);
    }

    #[test]
    fn missing_object_reported() {
        let s = store();
        let err = s.read(ObjectId(999), 0, 10).unwrap_err();
        assert!(matches!(err, OsdError::NoSuchObject(999)));
    }

    #[test]
    fn insert_and_truncate_via_store() {
        let s = store();
        let oid = s.create_default(0).unwrap();
        s.write(oid, 0, b"hello world").unwrap();
        s.insert(oid, 5, b",").unwrap();
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"hello, world".to_vec());
        s.truncate_range(oid, 5, 1).unwrap();
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"hello world".to_vec());
        s.truncate(oid, 5).unwrap();
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"hello".to_vec());
    }

    #[test]
    fn delete_frees_space_and_forgets_object() {
        let s = store();
        let oid = s.create_default(0).unwrap();
        s.write(oid, 0, &vec![1u8; 100_000]).unwrap();
        let allocated = s.stats().allocator.allocated_blocks;
        s.delete(oid).unwrap();
        assert!(s.stats().allocator.allocated_blocks < allocated);
        assert!(matches!(s.read(oid, 0, 1), Err(OsdError::NoSuchObject(_))));
        assert_eq!(s.object_count(), 0);
    }

    #[test]
    fn object_ids_are_never_reused() {
        let s = store();
        let a = s.create_default(0).unwrap();
        s.delete(a).unwrap();
        let b = s.create_default(0).unwrap();
        assert!(b.as_u64() > a.as_u64());
    }

    #[test]
    fn many_objects_roundtrip() {
        let s = store();
        let mut oids = Vec::new();
        for i in 0..100u32 {
            let oid = s.create_default(0).unwrap();
            s.write(oid, 0, format!("object number {i}").as_bytes())
                .unwrap();
            oids.push(oid);
        }
        for (i, oid) in oids.iter().enumerate() {
            assert_eq!(
                s.read(*oid, 0, 100).unwrap(),
                format!("object number {i}").into_bytes()
            );
        }
        assert_eq!(s.object_count(), 100);
    }

    #[test]
    fn reload_after_cache_eviction_equivalent() {
        // Deleting the in-memory handle (by clearing the map through drop of
        // all other references) is not exposed; instead verify that an
        // object written through one handle reads correctly after another
        // object churned the table enough to split it.
        let s = store();
        let first = s.create_default(0).unwrap();
        s.write(first, 0, b"persistent").unwrap();
        for _ in 0..500 {
            s.create_default(0).unwrap();
        }
        assert_eq!(s.read(first, 0, 100).unwrap(), b"persistent".to_vec());
    }

    #[test]
    fn concurrent_access_to_distinct_objects() {
        let s = Arc::new(store());
        let oids: Vec<ObjectId> = (0..8).map(|_| s.create_default(0).unwrap()).collect();
        let mut handles = Vec::new();
        for (t, oid) in oids.iter().enumerate() {
            let s = Arc::clone(&s);
            let oid = *oid;
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let data = vec![t as u8; 64];
                    s.write(oid, i * 64, &data).unwrap();
                }
                s.len(oid).unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 50 * 64);
        }
    }

    #[test]
    fn concurrent_creates_get_unique_ids() {
        let s = Arc::new(store());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                (0..25)
                    .map(|_| s.create_default(0).unwrap().as_u64())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
        assert_eq!(s.object_count(), 200);
    }

    // ------------------------------------------------------------------
    // Sharding-specific coverage.
    // ------------------------------------------------------------------

    #[test]
    fn shard_count_resolution() {
        assert_eq!(sharded_store(1).shard_count(), 1);
        assert_eq!(sharded_store(3).shard_count(), 4);
        assert_eq!(sharded_store(8).shard_count(), 8);
        // Auto (0) resolves to a power of two ≥ 1.
        let auto = sharded_store(0);
        assert!(auto.shard_count().is_power_of_two());
        assert_eq!(auto.stats().shards, auto.shard_count());
    }

    /// Creates objects until `want` oids land in the same shard as each
    /// other and `want` in a different one, returning `(same, other)`.
    fn colliding_oids(s: &ObjectStore, want: usize) -> (Vec<ObjectId>, Vec<ObjectId>) {
        let probe = s.create_default(0).unwrap();
        let target = s.shard_of(probe);
        let mut same = vec![probe];
        let mut other = Vec::new();
        while same.len() < want || other.len() < want {
            let oid = s.create_default(0).unwrap();
            if s.shard_of(oid) == target {
                same.push(oid);
            } else if other.len() < want {
                other.push(oid);
            }
        }
        (same, other)
    }

    #[test]
    fn same_shard_and_cross_shard_lifecycle() {
        let s = sharded_store(4);
        let (same, other) = colliding_oids(&s, 3);
        // Interleave writes/deletes on same-shard and cross-shard oids; the
        // shard routing must never confuse one object for another.
        for (i, oid) in same.iter().chain(other.iter()).enumerate() {
            s.write(*oid, 0, format!("payload {i}").as_bytes()).unwrap();
        }
        s.delete(same[1]).unwrap();
        s.delete(other[0]).unwrap();
        assert!(matches!(
            s.read(same[1], 0, 1),
            Err(OsdError::NoSuchObject(_))
        ));
        assert!(matches!(
            s.read(other[0], 0, 1),
            Err(OsdError::NoSuchObject(_))
        ));
        // Survivors in both shards still read back correctly.
        assert_eq!(s.read(same[0], 0, 100).unwrap(), b"payload 0".to_vec());
        assert_eq!(s.read(same[2], 0, 100).unwrap(), b"payload 2".to_vec());
        let expected = format!("payload {}", same.len() + 1).into_bytes();
        assert_eq!(s.read(other[1], 0, 100).unwrap(), expected);
        let listed = s.list().unwrap();
        assert!(!listed.contains(&same[1]) && !listed.contains(&other[0]));
        assert_eq!(listed.len() as u64, s.object_count());
    }

    #[test]
    fn reopen_after_cache_eviction_crosses_shards() {
        // An object whose open handle was evicted must reload through
        // load_object's cold path from the correct table shard.
        let s = sharded_store(8);
        let (same, other) = colliding_oids(&s, 2);
        for oid in same.iter().chain(other.iter()) {
            s.write(*oid, 0, oid.to_string().as_bytes()).unwrap();
        }
        // Force table splits in every touched shard.
        for _ in 0..200 {
            s.create_default(0).unwrap();
        }
        // Evict the cached handles (test-only: the map is private) so the
        // reads below cannot be served from the open-object cache.
        for oid in same.iter().chain(other.iter()) {
            s.objects.remove(oid.as_u64()).expect("handle was cached");
        }
        for oid in same.iter().chain(other.iter()) {
            assert_eq!(
                s.read(*oid, 0, 100).unwrap(),
                oid.to_string().into_bytes(),
                "oid {oid} in shard {} misrouted on cold reload",
                s.shard_of(*oid)
            );
        }
    }

    #[test]
    fn concurrent_create_remove_keeps_object_count_consistent() {
        // StoreStats.objects is a per-shard counter sum; under concurrent
        // create/delete churn it must end exactly equal to the number of
        // surviving objects in the table.
        let s = Arc::new(sharded_store(4));
        let threads = 8;
        let per_thread = 40;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut survivors = 0u64;
                for i in 0..per_thread {
                    let oid = s.create_default(0).unwrap();
                    if i % 2 == 0 {
                        s.delete(oid).unwrap();
                    } else {
                        survivors += 1;
                    }
                }
                survivors
            }));
        }
        let expected: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(s.object_count(), expected);
        assert_eq!(s.stats().objects, expected);
        assert_eq!(s.list().unwrap().len() as u64, expected);
    }

    #[test]
    fn delete_while_in_use_fails_cleanly_and_retry_succeeds() {
        let s = Arc::new(sharded_store(4));
        let oid = s.create_default(0).unwrap();
        s.write(oid, 0, b"guarded").unwrap();
        let (in_cs_tx, in_cs_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let s2 = Arc::clone(&s);
        let holder = std::thread::spawn(move || {
            s2.with_object(oid, |o| {
                in_cs_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                o.read(0, 7)
            })
            .unwrap()
        });
        in_cs_rx.recv().unwrap();
        // Another thread holds the object's handle: delete must refuse and
        // leave table, counter and storage untouched.
        assert!(matches!(s.delete(oid), Err(OsdError::Corrupt(_))));
        assert_eq!(s.object_count(), 1);
        done_tx.send(()).unwrap();
        assert_eq!(holder.join().unwrap(), b"guarded".to_vec());
        // The failed delete must not have half-deleted anything: the object
        // is still fully usable, and a retry now succeeds.
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"guarded".to_vec());
        s.delete(oid).unwrap();
        assert_eq!(s.object_count(), 0);
        assert!(s.list().unwrap().is_empty());
    }

    // ------------------------------------------------------------------
    // Two-tier cache wiring.
    // ------------------------------------------------------------------

    fn cached_store() -> ObjectStore {
        let device = Arc::new(hfad_storage::MemDevice::with_capacity(32 * 1024 * 1024));
        ObjectStore::create(
            device,
            StoreConfig {
                cache_blocks: 2048,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn cached_store_full_lifecycle_and_stats() {
        let s = cached_store();
        assert_eq!(
            StoreConfig {
                cache_blocks: 2048,
                ..Default::default()
            }
            .node_cache_pages(),
            512
        );
        let oid = s.create_default(0).unwrap();
        s.write(oid, 0, b"through the cache").unwrap();
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"through the cache".to_vec());
        assert!(s.context().node_cache().is_some(), "node cache rides along");
        let stats = s.stats();
        let cache_stats = stats.block_cache.expect("cache stats reported");
        assert!(cache_stats.hits > 0, "reads must hit the block cache");
        let other = s.create_default(0).unwrap();
        s.write(other, 0, &vec![7u8; 100_000]).unwrap();
        s.delete(other).unwrap();
        assert_eq!(s.read(oid, 0, 100).unwrap(), b"through the cache".to_vec());
    }

    #[test]
    fn uncached_store_reports_no_cache() {
        let s = store();
        assert!(s.block_cache().is_none());
        assert!(s.stats().block_cache.is_none());
    }

    #[test]
    fn cached_store_flush_makes_data_reach_backing_device() {
        let backing = Arc::new(hfad_storage::MemDevice::with_capacity(8 * 1024 * 1024));
        let s = ObjectStore::create(
            Arc::clone(&backing) as Arc<dyn hfad_storage::BlockDevice>,
            StoreConfig {
                cache_blocks: 512,
                ..Default::default()
            },
        )
        .unwrap();
        let oid = s.create_default(0).unwrap();
        s.write(oid, 0, b"must become durable").unwrap();
        let writes_before = backing.counters().writes;
        s.block_cache().unwrap().flush().unwrap();
        assert!(
            backing.counters().writes > writes_before,
            "flush must write dirty frames back to the wrapped device"
        );
    }

    #[test]
    fn single_shard_store_still_correct() {
        let s = sharded_store(1);
        assert_eq!(s.shard_count(), 1);
        let a = s.create_default(0).unwrap();
        let b = s.create_default(0).unwrap();
        assert_eq!(s.shard_of(a), 0);
        assert_eq!(s.shard_of(b), 0);
        s.write(a, 0, b"one").unwrap();
        s.write(b, 0, b"two").unwrap();
        s.delete(a).unwrap();
        assert_eq!(s.read(b, 0, 100).unwrap(), b"two".to_vec());
        assert_eq!(s.object_count(), 1);
    }
}
