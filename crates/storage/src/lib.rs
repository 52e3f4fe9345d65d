//! # hfad-storage
//!
//! The storage substrate for the hFAD reproduction ("Hierarchical File
//! Systems Are Dead", Seltzer & Murphy, HotOS 2009).
//!
//! The paper's prototype is built on a raw device under Linux/FUSE with a
//! buddy storage allocator at the lowest layer of its OSD. This crate
//! provides that substrate entirely in user space:
//!
//! * [`device`] — the [`device::BlockDevice`] trait with in-memory
//!   ([`device::MemDevice`]) and file-backed ([`device::FileDevice`])
//!   implementations, plus physical operation counters used by the
//!   experiments.
//! * [`alloc`], [`buddy`] — the allocator abstraction and the paper's
//!   buddy allocator.
//! * [`extent`] — contiguous block runs handed out by allocators and stored
//!   in object extent maps.
//! * [`cache`] — a lock-striped write-back block cache with O(1) CLOCK
//!   eviction and single-flight miss handling.
//! * [`shard`] — the shard-count resolution and key-routing convention
//!   shared by every lock-striped structure in the workspace.
//! * [`layout`] — superblock / region map shared by hFAD and the
//!   hierarchical baseline, plus the FNV-1a checksum.
//! * [`journal`] — a circular write-ahead log backing the optional
//!   transactional OSD: wrap-around append with O(1) incremental
//!   reclaim of checkpointed extents.
//! * [`background`] — the [`background::BackgroundExecutor`] trait
//!   implemented by the background-job engine and consumed by lazy indexing
//!   and the journal checkpointer.
//! * [`group_commit`] — the batched commit pipeline over the journal:
//!   concurrent committers share one contiguous append and one flush.
//! * [`retry`] — [`retry::RetryPolicy`], bounded exponential backoff
//!   for transient device errors, shared by the engine's completion
//!   retry, the group-commit leader and the background checkpointer.
//! * [`health`] — the store-wide health state machine
//!   (`Healthy → Degraded → ReadOnly → FailStop`) every layer reports
//!   into; read-only degradation rejects writes with a typed error
//!   while reads keep serving.
//! * [`doublewrite`] — torn-page protection for persistent checkpoints:
//!   page images are staged and fsynced in a scratch region before being
//!   installed in place, so a crash mid-install is always recoverable.
//! * [`proclock`] — multi-process single-writer / multi-reader
//!   arbitration for file-backed stores via a queue-fair lockfile
//!   protocol with stale-lock (kill -9) recovery.
//!
//! Everything above this crate (B-trees, the OSD, index stores, both file
//! systems) is written against these traits, so experiments can swap
//! devices, caches and allocators without touching higher layers.

pub mod alloc;
pub mod background;
pub mod buddy;
pub mod cache;
pub mod device;
pub mod doublewrite;
pub mod error;
pub mod extent;
pub mod group_commit;
pub mod health;
pub mod journal;
pub mod layout;
pub mod proclock;
pub mod retry;
pub mod shard;

pub use alloc::{AllocStats, Allocator};
pub use background::{BackgroundExecutor, SubmitError};
pub use buddy::BuddyAllocator;
pub use cache::{CacheStats, CachedDevice, PrefetchSink};
pub use device::{
    BlockDevice, DeviceCounters, FaultConfig, FaultDevice, FileDevice, MemDevice, OpFault,
    DEFAULT_BLOCK_SIZE,
};
pub use doublewrite::Doublewrite;
pub use error::{Result, StorageError};
pub use extent::Extent;
pub use group_commit::{GroupCommit, GroupCommitConfig, GroupCommitStats};
pub use health::{Health, HealthState};
pub use journal::{
    Journal, JournalMark, JournalRecord, RecordKind, TxnFrames, JOURNAL_HEADER_BLOCKS,
};
pub use layout::{fnv1a, Superblock, FORMAT_VERSION, SUPERBLOCK_MAGIC};
pub use proclock::{LockMode, ProcLock, DEFAULT_LOCK_TIMEOUT};
pub use retry::RetryPolicy;
pub use shard::{resolve_shard_count, shard_index, MAX_SHARDS};

#[cfg(test)]
mod integration_tests {
    use super::*;
    use std::sync::Arc;

    /// Format a device, allocate from the data area, write, read back.
    #[test]
    fn format_allocate_write_read() {
        let dev = Arc::new(MemDevice::new(512, 4096));
        let sb = Superblock::layout(dev.block_count(), dev.block_size(), 16).unwrap();
        sb.write_to(&dev).unwrap();
        let alloc = BuddyAllocator::new(sb.data_start, sb.data_blocks);
        let extent = alloc.allocate(4).unwrap();
        assert!(extent.start >= sb.data_start);
        let data = vec![0x7Eu8; 4096];
        for block in extent.start..extent.end() {
            dev.write_block(block, &data).unwrap();
        }
        let reread = Superblock::read_from(&dev).unwrap();
        assert_eq!(reread, sb);
    }

    /// The journal lives in the region the superblock reserved for it.
    #[test]
    fn journal_in_reserved_region() {
        let dev = Arc::new(MemDevice::new(256, 4096));
        let sb = Superblock::layout(dev.block_count(), dev.block_size(), 8).unwrap();
        sb.write_to(&dev).unwrap();
        let journal = Journal::new(Arc::clone(&dev), sb.journal_start, sb.journal_blocks).unwrap();
        journal.append(1, RecordKind::Begin, b"").unwrap();
        journal.append(1, RecordKind::Data, b"payload").unwrap();
        journal.append(1, RecordKind::Commit, b"").unwrap();
        assert_eq!(journal.committed_payloads().unwrap().len(), 1);
        // The superblock must be untouched by journal writes.
        assert_eq!(Superblock::read_from(&dev).unwrap(), sb);
    }

    /// A cached device layered over a formatted device behaves identically.
    #[test]
    fn cached_device_transparent() {
        let dev = CachedDevice::new(MemDevice::new(128, 4096), 32);
        let sb = Superblock::layout(128, 4096, 0).unwrap();
        sb.write_to(&dev).unwrap();
        let read = Superblock::read_from(&dev).unwrap();
        assert_eq!(read, sb);
        assert!(dev.cache_stats().hits >= 1);
    }
}
