//! Crash-safe file-backed persistence for the transactional OSD.
//!
//! The in-memory engine already has the full recovery discipline — a
//! circular write-ahead journal, group commit, background checkpoints —
//! but the seed only ever ran it over a `MemDevice`, so "recovery" meant
//! replaying into the same process. This module makes the discipline mean
//! something across `kill -9`: a [`FileDevice`]-backed store whose on-disk
//! state is always reconstructible, byte for byte, no matter where a crash
//! (or a torn sector) lands.
//!
//! # The persistence protocol
//!
//! A persistent store's device is laid out by
//! [`Superblock::layout_persistent`]: superblock, journal, two metadata
//! ping-pong slots, a doublewrite staging region, then the data area. The
//! rules that make it crash-safe:
//!
//! * **Home pages are only written by checkpoints.** The block cache runs
//!   in retain-dirty mode: neither eviction nor flush pushes a
//!   dirty page to its home address. Between checkpoints the file holds
//!   exactly the page set of the last checkpoint.
//! * **Commits are journal-only I/O.** A commit appends redo records to
//!   the journal on the *raw* device (beneath the cache) and fsyncs; the
//!   applied effects live in dirty cache pages.
//! * **A checkpoint is one atomic batch.** It collects the dirty page
//!   set, snapshots the store metadata ([`StoreMeta`]: table roots,
//!   allocator state, id floors, and the journal *replay floor* — the
//!   sequence number the next post-checkpoint record will carry), and
//!   stages pages *and* metadata together through the
//!   [`Doublewrite`] region (stage → fsync → install → journal reset,
//!   which fsyncs). A crash anywhere leaves either the old checkpoint
//!   fully intact or the new one fully recoverable from the staged batch.
//! * **Recovery = doublewrite redo + metadata load + floored replay.**
//!   [`open_file`] re-installs any staged batch, loads the newer valid
//!   metadata slot, rebuilds the allocator and object-table shards from
//!   it, and replays only journal transactions whose commit sequence is
//!   at or above the metadata's replay floor — everything below it is
//!   already in the home pages.
//!
//! # Multi-process arbitration
//!
//! Opens are arbitrated by the [`ProcLock`] queue-fair lockfile protocol:
//! a writer ([`open_file`] / [`create_file`]) holds the exclusive lock for
//! the store's lifetime, readers ([`open_file_reader`]) hold it shared, and
//! a `kill -9`'d holder is detected by pid + start-time staleness and
//! healed by the next contender. Writer and reader stores therefore never
//! coexist; the queue guarantees writers are not starved by reader churn.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hfad_storage::{
    fnv1a, Allocator, BlockDevice, BuddyAllocator, CachedDevice, Doublewrite, FileDevice,
    GroupCommitConfig, Journal, LockMode, ProcLock, RecordKind, Superblock, DEFAULT_BLOCK_SIZE,
};

use crate::error::{OsdError, Result};
use crate::store::{ObjectStore, StoreConfig};
use crate::txn::TxnStore;

/// Journal blocks used when the caller's [`StoreConfig::journal_blocks`]
/// is zero (a persistent store cannot run without a journal).
pub const DEFAULT_PERSIST_JOURNAL_BLOCKS: u64 = 256;

/// Block-cache capacity used when [`StoreConfig::cache_blocks`] is zero
/// (retain-dirty persistence requires the cache tier).
pub const DEFAULT_PERSIST_CACHE_BLOCKS: usize = 1024;

/// Blocks in each of the two metadata ping-pong slots.
pub const META_SLOT_BLOCKS: u64 = 32;

/// Magic number leading an encoded [`StoreMeta`].
pub const META_MAGIC: u64 = 0x6866_6164_5f6d_6574; // "hfad_met"

/// Tag byte in front of the allocator section of a metadata slot: buddy
/// chunks. Tags 1 and 2 belonged to retired allocator kinds and now
/// decode as corruption.
const BUDDY_CHUNKS_TAG: u8 = 0;

/// Sizes the doublewrite region for a device: an eighth of the device,
/// clamped to `[128, 2048]` blocks.
fn default_dw_blocks(block_count: u64) -> u64 {
    (block_count / 8).clamp(128, 2048)
}

/// A checkpointed snapshot of everything the store cannot rebuild from
/// the data area alone: object-table shard roots, allocator state, the id
/// floors, and the journal replay floor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Checkpoint epoch; each checkpoint writes epoch `e` to slot `e % 2`,
    /// and open picks the valid slot with the higher epoch.
    pub epoch: u64,
    /// Journal sequence number of the first record *not* covered by this
    /// checkpoint: recovery replays only commits with `seq >= replay_floor`.
    pub replay_floor: u64,
    /// Floor for transaction ids issued after reopen.
    pub next_txn: u64,
    /// Floor for object ids issued after reopen (the oid allocator's
    /// range head).
    pub next_oid: u64,
    /// Data-area allocator state: the buddy allocator's live
    /// `(start_block, order)` chunks.
    pub alloc: Vec<(u64, u32)>,
    /// Per-shard object table state: `(root_page, live_objects)`.
    pub shards: Vec<(u64, u64)>,
}

impl StoreMeta {
    /// Serialises the metadata with a trailing FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&META_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.replay_floor.to_le_bytes());
        out.extend_from_slice(&self.next_txn.to_le_bytes());
        out.extend_from_slice(&self.next_oid.to_le_bytes());
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for &(root, live) in &self.shards {
            out.extend_from_slice(&root.to_le_bytes());
            out.extend_from_slice(&live.to_le_bytes());
        }
        out.push(BUDDY_CHUNKS_TAG);
        out.extend_from_slice(&(self.alloc.len() as u64).to_le_bytes());
        for &(offset, order) in &self.alloc {
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&order.to_le_bytes());
        }
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserialises metadata written by [`encode`](Self::encode),
    /// verifying magic and checksum. The buffer may carry trailing
    /// padding (the slot is block-aligned).
    pub fn decode(buf: &[u8]) -> Result<Self> {
        fn take_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| OsdError::Corrupt("store metadata truncated".into()))?;
            let v = u64::from_le_bytes(buf[*pos..end].try_into().expect("u64"));
            *pos = end;
            Ok(v)
        }
        let mut pos = 0usize;
        if take_u64(buf, &mut pos)? != META_MAGIC {
            return Err(OsdError::Corrupt("store metadata magic mismatch".into()));
        }
        let epoch = take_u64(buf, &mut pos)?;
        let replay_floor = take_u64(buf, &mut pos)?;
        let next_txn = take_u64(buf, &mut pos)?;
        let next_oid = take_u64(buf, &mut pos)?;
        let shard_count = take_u64(buf, &mut pos)? as usize;
        if shard_count == 0 || shard_count > hfad_storage::shard::MAX_SHARDS {
            return Err(OsdError::Corrupt(format!(
                "store metadata carries implausible shard count {shard_count}"
            )));
        }
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let root = take_u64(buf, &mut pos)?;
            let live = take_u64(buf, &mut pos)?;
            shards.push((root, live));
        }
        let kind = *buf
            .get(pos)
            .ok_or_else(|| OsdError::Corrupt("store metadata truncated".into()))?;
        pos += 1;
        if kind != BUDDY_CHUNKS_TAG {
            return Err(OsdError::Corrupt(format!(
                "unknown allocator snapshot kind {kind}"
            )));
        }
        let count = take_u64(buf, &mut pos)? as usize;
        let mut alloc = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let offset = take_u64(buf, &mut pos)?;
            let order_end = pos
                .checked_add(4)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| OsdError::Corrupt("store metadata truncated".into()))?;
            let order = u32::from_le_bytes(buf[pos..order_end].try_into().expect("u32"));
            pos = order_end;
            alloc.push((offset, order));
        }
        let stored_crc = take_u64(buf, &mut pos)?;
        if fnv1a(&buf[..pos - 8]) != stored_crc {
            return Err(OsdError::Corrupt("store metadata checksum mismatch".into()));
        }
        Ok(StoreMeta {
            epoch,
            replay_floor,
            next_txn,
            next_oid,
            alloc,
            shards,
        })
    }
}

/// The persistence context a writer store carries: the raw device beneath
/// the cache, the doublewrite region, the metadata slot geometry, and the
/// store-lifetime exclusive [`ProcLock`].
pub struct PersistCtx {
    /// The raw (un-cached) device: journal appends and checkpoint
    /// installs go here so cache state never reorders durability.
    pub(crate) raw: Arc<dyn BlockDevice>,
    /// The doublewrite staging region.
    pub(crate) dw: Doublewrite,
    /// First block of the metadata region.
    pub(crate) meta_start: u64,
    /// Blocks in each of the two metadata slots.
    pub(crate) meta_slot_blocks: u64,
    /// Device block size.
    pub(crate) block_size: usize,
    /// Epoch the *next* checkpoint will write.
    pub(crate) epoch: AtomicU64,
    /// Replay floor recorded by the most recent checkpoint.
    pub(crate) replay_floor: AtomicU64,
    /// Dirty-page count at which the commit path triggers a checkpoint.
    pub(crate) checkpoint_threshold: usize,
    /// Held for the store's lifetime; released (and its lockfiles
    /// removed) on drop.
    _lock: ProcLock,
}

impl PersistCtx {
    /// Epoch the next checkpoint will write.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Replay floor recorded by the most recent checkpoint.
    pub fn replay_floor(&self) -> u64 {
        self.replay_floor.load(Ordering::Acquire)
    }

    /// Dirty-page count at which commits trigger a checkpoint.
    pub fn checkpoint_threshold(&self) -> usize {
        self.checkpoint_threshold
    }

    /// Doublewrite frame capacity (the hard batch ceiling).
    pub fn dw_capacity(&self) -> usize {
        self.dw.capacity()
    }

    /// Encodes `meta` into block-sized frames homed in the slot for
    /// `meta.epoch`, ready to ride a doublewrite batch. Fails loudly if
    /// the metadata outgrew the slot.
    pub(crate) fn meta_frames(&self, meta: &StoreMeta) -> Result<Vec<(u64, Arc<[u8]>)>> {
        let bytes = meta.encode();
        let slot_bytes = self.meta_slot_blocks as usize * self.block_size;
        if bytes.len() > slot_bytes {
            return Err(OsdError::Corrupt(format!(
                "store metadata of {} bytes exceeds the {} byte slot; \
                 recreate the store with larger metadata slots",
                bytes.len(),
                slot_bytes
            )));
        }
        let slot = meta.epoch % 2;
        let base = self.meta_start + slot * self.meta_slot_blocks;
        let mut frames = Vec::new();
        for (i, chunk) in bytes.chunks(self.block_size).enumerate() {
            let mut block = vec![0u8; self.block_size];
            block[..chunk.len()].copy_from_slice(chunk);
            frames.push((base + i as u64, Arc::<[u8]>::from(block)));
        }
        Ok(frames)
    }
}

/// Reads both metadata slots and returns the valid one with the higher
/// epoch, or `None` if neither decodes (a store that never completed its
/// first checkpoint).
pub fn load_meta<D: BlockDevice + ?Sized>(
    device: &D,
    sb: &Superblock,
) -> Result<Option<StoreMeta>> {
    let slot_blocks = sb.meta_slot_blocks();
    let bs = device.block_size();
    let mut best: Option<StoreMeta> = None;
    for slot in 0..2u64 {
        let base = sb.meta_start + slot * slot_blocks;
        let mut buf = vec![0u8; slot_blocks as usize * bs];
        let mut read_ok = true;
        for i in 0..slot_blocks {
            let start = i as usize * bs;
            if device
                .read_block(base + i, &mut buf[start..start + bs])
                .is_err()
            {
                read_ok = false;
                break;
            }
        }
        if !read_ok {
            continue;
        }
        if let Ok(meta) = StoreMeta::decode(&buf) {
            if best.as_ref().is_none_or(|b| meta.epoch > b.epoch) {
                best = Some(meta);
            }
        }
    }
    Ok(best)
}

/// Resolved sizing for a persistent store.
struct PersistGeometry {
    journal_blocks: u64,
    cache_blocks: usize,
}

fn resolve_geometry(config: &StoreConfig) -> PersistGeometry {
    PersistGeometry {
        journal_blocks: if config.journal_blocks > 0 {
            config.journal_blocks
        } else {
            DEFAULT_PERSIST_JOURNAL_BLOCKS
        },
        cache_blocks: if config.cache_blocks > 0 {
            config.cache_blocks
        } else {
            DEFAULT_PERSIST_CACHE_BLOCKS
        },
    }
}

fn restore_allocator(sb: &Superblock, chunks: &[(u64, u32)]) -> Result<Arc<dyn Allocator>> {
    Ok(Arc::new(BuddyAllocator::restore(
        sb.data_start,
        sb.data_blocks,
        chunks,
    )?))
}

/// Creates (formats) a persistent store at `path` with `capacity_bytes`
/// of backing file, returning the transactional handle.
///
/// Takes the exclusive multi-process lock for the store's lifetime, lays
/// out the persistent superblock, and runs an initial checkpoint so the
/// freshly created (empty) store is durable before this returns. A crash
/// mid-create leaves a store that [`open_file`] rejects as corrupt —
/// recreate it.
pub fn create_file<P: AsRef<Path>>(
    path: P,
    capacity_bytes: u64,
    config: StoreConfig,
    commit: GroupCommitConfig,
) -> Result<Arc<TxnStore>> {
    let path = path.as_ref();
    let lock = ProcLock::acquire(path, LockMode::Exclusive)?;
    let bs = DEFAULT_BLOCK_SIZE;
    let block_count = capacity_bytes / bs as u64;
    let geometry = resolve_geometry(&config);
    let raw: Arc<dyn BlockDevice> = Arc::new(FileDevice::create(path, block_count, bs)?);
    let sb = Superblock::layout_persistent(
        block_count,
        bs,
        geometry.journal_blocks,
        META_SLOT_BLOCKS,
        default_dw_blocks(block_count),
    )?;
    // The superblock goes to the raw device, never through the cache: it
    // must not linger as a dirty frame awaiting a checkpoint.
    sb.write_to(&raw)?;
    Journal::new(Arc::clone(&raw), sb.journal_start, sb.journal_blocks)?.reset_full()?;
    raw.flush()?;
    let dw = Doublewrite::new(Arc::clone(&raw), sb.dw_start, sb.dw_blocks)?;
    let checkpoint_threshold = (dw.capacity() / 4).max(1);
    let cache = Arc::new(CachedDevice::new(Arc::clone(&raw), geometry.cache_blocks));
    cache.set_retain_dirty(true);
    let allocator: Arc<dyn Allocator> =
        Arc::new(BuddyAllocator::new(sb.data_start, sb.data_blocks));
    let persist = Arc::new(PersistCtx {
        raw,
        dw,
        meta_start: sb.meta_start,
        meta_slot_blocks: sb.meta_slot_blocks(),
        block_size: bs,
        epoch: AtomicU64::new(0),
        replay_floor: AtomicU64::new(1),
        checkpoint_threshold,
        _lock: lock,
    });
    let store = Arc::new(ObjectStore::build_persistent(
        cache,
        allocator,
        sb,
        config,
        None,
        1,
        Some(persist),
        None,
    )?);
    let ts = Arc::new(TxnStore::with_config(store, commit)?);
    // The initial checkpoint makes the empty store (its freshly created
    // table shards, allocator state and epoch-0 metadata) durable.
    ts.checkpoint()?;
    Ok(ts)
}

/// Opens an existing persistent store at `path` as the (single) writer,
/// running full crash recovery: doublewrite redo, metadata load, floored
/// journal replay, then a checkpoint that makes the recovered state
/// durable. Returns the transactional handle and the number of replayed
/// operations.
pub fn open_file<P: AsRef<Path>>(
    path: P,
    config: StoreConfig,
    commit: GroupCommitConfig,
) -> Result<(Arc<TxnStore>, u64)> {
    let path = path.as_ref();
    let lock = ProcLock::acquire(path, LockMode::Exclusive)?;
    let bs = DEFAULT_BLOCK_SIZE;
    let raw: Arc<dyn BlockDevice> = Arc::new(FileDevice::open(path, bs)?);
    let sb = Superblock::read_from(&raw)?;
    if !sb.is_persistent() {
        return Err(OsdError::Corrupt(
            "store file lacks the persistent-mode regions (metadata / doublewrite)".into(),
        ));
    }
    if sb.block_size as usize != bs {
        return Err(OsdError::Corrupt(format!(
            "store block size {} does not match the expected {bs}",
            sb.block_size
        )));
    }
    let dw = Doublewrite::new(Arc::clone(&raw), sb.dw_start, sb.dw_blocks)?;
    // Doublewrite redo: a crash mid-install left a fully staged batch;
    // re-install it (idempotent) and make it durable before anything else
    // reads the home pages.
    if dw.recover()?.is_some() {
        raw.flush()?;
    }
    let meta = load_meta(&raw, &sb)?.ok_or_else(|| {
        OsdError::Corrupt("store has no valid metadata slot (crashed during create?)".into())
    })?;
    let geometry = resolve_geometry(&config);
    let checkpoint_threshold = (dw.capacity() / 4).max(1);
    let cache = Arc::new(CachedDevice::new(Arc::clone(&raw), geometry.cache_blocks));
    cache.set_retain_dirty(true);
    let allocator = restore_allocator(&sb, &meta.alloc)?;
    let persist = Arc::new(PersistCtx {
        raw,
        dw,
        meta_start: sb.meta_start,
        meta_slot_blocks: sb.meta_slot_blocks(),
        block_size: bs,
        epoch: AtomicU64::new(meta.epoch + 1),
        replay_floor: AtomicU64::new(meta.replay_floor),
        checkpoint_threshold,
        _lock: lock,
    });
    let store = Arc::new(ObjectStore::build_persistent(
        cache,
        allocator,
        sb,
        config,
        Some(&meta.shards),
        meta.next_oid,
        Some(persist),
        None,
    )?);
    let ts = Arc::new(TxnStore::with_config(store, commit)?);
    ts.floor_next_txn(meta.next_txn);
    let replayed = ts.replay_from_floor(meta.replay_floor)?;
    // Fold the replayed state into a fresh checkpoint: recovery work is
    // done once, not on every subsequent open, and the journal empties.
    ts.checkpoint()?;
    Ok((ts, replayed))
}

/// Opens a persistent store read-only, holding the shared multi-process
/// lock for the store's lifetime.
///
/// Readers have no recovery machinery, so a store with pending recovery
/// work — a staged doublewrite batch or unreplayed journal commits — is
/// refused with [`OsdError::NeedsRecovery`] asking for a writer open
/// first (distinct from `Corrupt`: the store is intact). A store closed
/// cleanly (every writer checkpoint empties the journal and clears the
/// staging region) always passes.
pub fn open_file_reader<P: AsRef<Path>>(path: P, config: StoreConfig) -> Result<Arc<ObjectStore>> {
    let path = path.as_ref();
    let lock = ProcLock::acquire(path, LockMode::Shared)?;
    let bs = DEFAULT_BLOCK_SIZE;
    let raw: Arc<dyn BlockDevice> = Arc::new(FileDevice::open(path, bs)?);
    let sb = Superblock::read_from(&raw)?;
    if !sb.is_persistent() {
        return Err(OsdError::Corrupt(
            "store file lacks the persistent-mode regions (metadata / doublewrite)".into(),
        ));
    }
    let dw = Doublewrite::new(Arc::clone(&raw), sb.dw_start, sb.dw_blocks)?;
    if dw.read_valid_batch()?.is_some() {
        return Err(OsdError::NeedsRecovery(
            "staged checkpoint batch; open a writer first".into(),
        ));
    }
    let meta = load_meta(&raw, &sb)?.ok_or_else(|| {
        OsdError::Corrupt("store has no valid metadata slot (crashed during create?)".into())
    })?;
    let journal = Journal::new(Arc::clone(&raw), sb.journal_start, sb.journal_blocks)?;
    let needs_replay = journal
        .recover()?
        .iter()
        .any(|r| r.kind == RecordKind::Commit && r.seq >= meta.replay_floor);
    if needs_replay {
        return Err(OsdError::NeedsRecovery(
            "unreplayed journal commits; open a writer first".into(),
        ));
    }
    let geometry = resolve_geometry(&config);
    let cache = Arc::new(CachedDevice::new(Arc::clone(&raw), geometry.cache_blocks));
    let allocator = restore_allocator(&sb, &meta.alloc)?;
    let store = ObjectStore::build_persistent(
        cache,
        allocator,
        sb,
        config,
        Some(&meta.shards),
        meta.next_oid,
        None,
        Some(lock),
    )?;
    Ok(Arc::new(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfad_storage::MemDevice;

    fn sample_meta() -> StoreMeta {
        StoreMeta {
            epoch: 7,
            replay_floor: 1234,
            next_txn: 99,
            next_oid: 4096,
            alloc: vec![(100, 3), (200, 0), (512, 7)],
            shards: vec![(10, 2), (20, 0), (30, 5), (40, 1)],
        }
    }

    /// `meta` encoded with its allocator section replaced by `section`
    /// (tag byte and payload) under a valid checksum.
    fn encode_with_alloc_section(meta: &StoreMeta, section: &[u8]) -> Vec<u8> {
        let mut bytes = StoreMeta {
            alloc: Vec::new(),
            ..meta.clone()
        }
        .encode();
        // An empty buddy section is the tag byte, a zero count and the CRC.
        bytes.truncate(bytes.len() - 1 - 8 - 8);
        bytes.extend_from_slice(section);
        let crc = fnv1a(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Allocator sections of formats this store no longer reads: tag 1 (a
    /// bump allocator's high-water mark) and tag 2 (an allocator without
    /// snapshots).
    fn retired_alloc_sections() -> [Vec<u8>; 2] {
        let mut bump = vec![1u8];
        bump.extend_from_slice(&777u64.to_le_bytes());
        [bump, vec![2u8]]
    }

    #[test]
    fn store_meta_round_trips() {
        let meta = sample_meta();
        let mut bytes = meta.encode();
        // Buddy chunks keep tag 0, so stores written before the other
        // kinds were retired still decode.
        assert_eq!(bytes[8 * 6 + 16 * meta.shards.len()], BUDDY_CHUNKS_TAG);
        // Block-aligned padding must not confuse decode.
        bytes.resize(bytes.len() + 100, 0);
        assert_eq!(StoreMeta::decode(&bytes).unwrap(), meta);

        // A checksum-valid slot with a retired allocator tag is a typed
        // corruption error, not a panic.
        for section in retired_alloc_sections() {
            let bytes = encode_with_alloc_section(&meta, &section);
            assert!(
                matches!(StoreMeta::decode(&bytes), Err(OsdError::Corrupt(_))),
                "tag {} decoded",
                section[0]
            );
        }

        // The same through a real open: both metadata slots of a closed
        // store rewritten with a retired tag make `open_file` fail typed.
        for section in retired_alloc_sections() {
            let path = scratch(&format!("retired_alloc_tag_{}.hfad", section[0]));
            drop(create_file(&path, 8 << 20, StoreConfig::default(), Default::default()).unwrap());
            let raw = FileDevice::open(&path, DEFAULT_BLOCK_SIZE).unwrap();
            let sb = Superblock::read_from(&raw).unwrap();
            let meta = load_meta(&raw, &sb)
                .unwrap()
                .expect("a closed store has metadata");
            let bytes = encode_with_alloc_section(&meta, &section);
            for slot in 0..2 {
                let base = sb.meta_start + slot * sb.meta_slot_blocks();
                for (i, chunk) in bytes.chunks(DEFAULT_BLOCK_SIZE).enumerate() {
                    let mut block = vec![0u8; DEFAULT_BLOCK_SIZE];
                    block[..chunk.len()].copy_from_slice(chunk);
                    raw.write_block(base + i as u64, &block).unwrap();
                }
            }
            raw.flush().unwrap();
            drop(raw);
            let opened = open_file(&path, StoreConfig::default(), Default::default());
            assert!(
                matches!(opened, Err(OsdError::Corrupt(_))),
                "tag {}: {:?}",
                section[0],
                opened.err()
            );
        }
    }

    #[test]
    fn store_meta_rejects_corruption() {
        let meta = sample_meta();
        let good = meta.encode();
        // Flip one byte anywhere before the CRC: decode must refuse.
        for pos in [0usize, 8, 30, good.len() - 9] {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            assert!(StoreMeta::decode(&bad).is_err(), "flip at {pos} accepted");
        }
        assert!(StoreMeta::decode(&[]).is_err());
        assert!(StoreMeta::decode(&good[..good.len() - 4]).is_err());
    }

    use crate::meta::{unix_now, ObjectMeta};
    use std::time::Duration;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hfad-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join(name);
        std::fs::remove_file(&store).ok();
        let mut lck = store.file_name().unwrap().to_os_string();
        lck.push(".lck");
        std::fs::remove_dir_all(store.with_file_name(lck)).ok();
        store
    }

    /// Simulates `kill -9`: the writer is leaked (no final checkpoint, no
    /// cache writeback) and its lockfiles are swept as a dead holder's
    /// would be.
    fn crash(ts: Arc<TxnStore>, path: &Path) {
        std::mem::forget(ts);
        let mut lck = path.file_name().unwrap().to_os_string();
        lck.push(".lck");
        std::fs::remove_dir_all(path.with_file_name(lck)).unwrap();
    }

    #[test]
    fn create_write_reopen_round_trip() {
        let path = scratch("round_trip.hfad");
        let oid = {
            let ts =
                create_file(&path, 8 << 20, StoreConfig::default(), Default::default()).unwrap();
            let mut txn = ts.begin();
            let oid = txn
                .create(ObjectMeta::new(7, 7, 0o600, unix_now()))
                .unwrap();
            txn.write(oid, 0, b"survives process death").unwrap();
            txn.commit().unwrap();
            oid
        };
        // Clean close (Drop checkpointed): reopen must replay nothing.
        let (ts, replayed) = open_file(&path, StoreConfig::default(), Default::default()).unwrap();
        assert_eq!(replayed, 0, "clean close leaves nothing to replay");
        assert_eq!(
            ts.store().read(oid, 0, 100).unwrap(),
            b"survives process death".to_vec()
        );
        assert_eq!(ts.store().meta(oid).unwrap().security.uid, 7);
        drop(ts);
        // And a reader sees the same bytes.
        let reader = open_file_reader(&path, StoreConfig::default()).unwrap();
        assert_eq!(
            reader.read(oid, 0, 100).unwrap(),
            b"survives process death".to_vec()
        );
    }

    #[test]
    fn uncheckpointed_commits_replay_on_reopen() {
        let path = scratch("replay.hfad");
        let ts = create_file(&path, 8 << 20, StoreConfig::default(), Default::default()).unwrap();
        let mut txn = ts.begin();
        let base = txn
            .create(ObjectMeta::new(0, 0, 0o644, unix_now()))
            .unwrap();
        txn.write(base, 0, b"checkpointed state").unwrap();
        txn.commit().unwrap();
        ts.checkpoint().unwrap();
        // Post-checkpoint commits live only in the journal + dirty cache.
        let mut txn = ts.begin();
        let fresh = txn
            .create(ObjectMeta::new(0, 0, 0o644, unix_now()))
            .unwrap();
        txn.write(fresh, 0, b"journal only").unwrap();
        txn.write(base, 0, b"CHECKPOINTED state").unwrap();
        txn.commit().unwrap();
        crash(ts, &path);
        let (ts, replayed) = open_file(&path, StoreConfig::default(), Default::default()).unwrap();
        assert!(
            replayed >= 3,
            "create + two writes must replay, got {replayed}"
        );
        assert_eq!(
            ts.store().read(base, 0, 100).unwrap(),
            b"CHECKPOINTED state".to_vec()
        );
        assert_eq!(
            ts.store().read(fresh, 0, 100).unwrap(),
            b"journal only".to_vec()
        );
        // The replayed create's id must never be reissued.
        let next = ts.store().create_default(0).unwrap();
        assert!(next.as_u64() > fresh.as_u64());
    }

    #[test]
    fn reader_refuses_unrecovered_store_then_accepts_after_writer() {
        let path = scratch("reader_gate.hfad");
        let ts = create_file(&path, 8 << 20, StoreConfig::default(), Default::default()).unwrap();
        let mut txn = ts.begin();
        let oid = txn
            .create(ObjectMeta::new(0, 0, 0o644, unix_now()))
            .unwrap();
        txn.write(oid, 0, b"needs redo").unwrap();
        txn.commit().unwrap();
        crash(ts, &path);
        let err = match open_file_reader(&path, StoreConfig::default()) {
            Ok(_) => panic!("reader must refuse a crashed store"),
            Err(e) => e,
        };
        assert!(
            matches!(err, OsdError::NeedsRecovery(_)),
            "reader must refuse a crashed store with NeedsRecovery (not \
             Corrupt), got: {err}"
        );
        assert!(err.to_string().contains("requires recovery"));
        // A writer open recovers; after it closes the reader succeeds.
        let (ts, replayed) = open_file(&path, StoreConfig::default(), Default::default()).unwrap();
        assert!(replayed > 0);
        drop(ts);
        let reader = open_file_reader(&path, StoreConfig::default()).unwrap();
        assert_eq!(reader.read(oid, 0, 100).unwrap(), b"needs redo".to_vec());
    }

    #[test]
    fn deletes_survive_crash_recovery() {
        let path = scratch("deletes.hfad");
        let ts = create_file(&path, 8 << 20, StoreConfig::default(), Default::default()).unwrap();
        let (keep, gone) = {
            let mut txn = ts.begin();
            let keep = txn
                .create(ObjectMeta::new(0, 0, 0o644, unix_now()))
                .unwrap();
            let gone = txn
                .create(ObjectMeta::new(0, 0, 0o644, unix_now()))
                .unwrap();
            txn.write(keep, 0, b"kept").unwrap();
            txn.write(gone, 0, b"doomed").unwrap();
            txn.commit().unwrap();
            (keep, gone)
        };
        ts.checkpoint().unwrap();
        let mut txn = ts.begin();
        txn.delete(gone).unwrap();
        txn.commit().unwrap();
        crash(ts, &path);
        let (ts, _) = open_file(&path, StoreConfig::default(), Default::default()).unwrap();
        assert_eq!(ts.store().read(keep, 0, 100).unwrap(), b"kept".to_vec());
        assert!(matches!(
            ts.store().read(gone, 0, 1),
            Err(OsdError::NoSuchObject(_))
        ));
        assert_eq!(ts.store().object_count(), 1);
    }

    #[test]
    fn second_writer_blocked_while_first_holds_lock() {
        let path = scratch("writer_excl.hfad");
        let ts = create_file(&path, 4 << 20, StoreConfig::default(), Default::default()).unwrap();
        // The store-lifetime exclusive lock must make a concurrent writer
        // open fail (bounded wait, not deadlock) while this one is live.
        let t0 = std::time::Instant::now();
        let lock =
            ProcLock::acquire_timeout(&path, LockMode::Exclusive, Duration::from_millis(200));
        assert!(lock.is_err(), "second exclusive acquire must time out");
        assert!(t0.elapsed() < Duration::from_secs(5));
        drop(ts);
        // After a clean close the lock is free again.
        ProcLock::acquire_timeout(&path, LockMode::Exclusive, Duration::from_millis(500)).unwrap();
    }

    #[test]
    fn load_meta_picks_higher_valid_epoch() {
        let dev = MemDevice::new(256, 512);
        let sb = Superblock::layout_persistent(256, 512, 16, 8, 32).unwrap();
        let older = StoreMeta {
            epoch: 4,
            ..sample_meta()
        };
        let newer = StoreMeta {
            epoch: 5,
            ..sample_meta()
        };
        let write_slot = |meta: &StoreMeta| {
            let base = sb.meta_start + (meta.epoch % 2) * sb.meta_slot_blocks();
            let bytes = meta.encode();
            for (i, chunk) in bytes.chunks(512).enumerate() {
                let mut block = vec![0u8; 512];
                block[..chunk.len()].copy_from_slice(chunk);
                dev.write_block(base + i as u64, &block).unwrap();
            }
        };
        assert!(load_meta(&dev, &sb).unwrap().is_none(), "empty slots");
        write_slot(&older);
        assert_eq!(load_meta(&dev, &sb).unwrap().unwrap().epoch, 4);
        write_slot(&newer);
        assert_eq!(load_meta(&dev, &sb).unwrap().unwrap().epoch, 5);
        // Corrupting the newer slot falls back to the older one.
        let newer_base = sb.meta_start + (newer.epoch % 2) * sb.meta_slot_blocks();
        dev.write_block(newer_base, &vec![0xFFu8; 512]).unwrap();
        assert_eq!(load_meta(&dev, &sb).unwrap().unwrap().epoch, 4);
    }
}
