//! Simulated block devices.
//!
//! The paper's prototype sits on a raw device under Linux/FUSE. Here the
//! same role is played by [`BlockDevice`] implementations that can be backed
//! by memory ([`MemDevice`]) or by a regular file ([`FileDevice`]). All
//! higher layers (allocator, B-tree, OSD, indices) are written against the
//! trait, so the choice of backing store never leaks upward.
//!
//! Every device keeps [`DeviceCounters`] so experiments can report the
//! number of physical block reads and writes an operation performed — the
//! unit in which the paper's §2.3 "index traversal" argument is made.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Result, StorageError};

/// Default block size used throughout the workspace.
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Running counts of physical device operations.
///
/// Counters are monotonically increasing; experiments snapshot them before
/// and after an operation and subtract.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Number of block reads served.
    pub reads: u64,
    /// Number of block writes served.
    pub writes: u64,
    /// Number of explicit flushes.
    pub flushes: u64,
}

impl DeviceCounters {
    /// Difference between a later snapshot and an earlier one.
    pub fn delta_since(&self, earlier: &DeviceCounters) -> DeviceCounters {
        DeviceCounters {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            flushes: self.flushes - earlier.flushes,
        }
    }

    /// Total block operations (reads + writes).
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }
}

#[derive(Debug, Default)]
struct AtomicCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    flushes: AtomicU64,
}

impl AtomicCounters {
    fn snapshot(&self) -> DeviceCounters {
        DeviceCounters {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

/// A fixed-block-size random access storage device.
///
/// Implementations must be safe to use from many threads concurrently.
pub trait BlockDevice: Send + Sync {
    /// Size of one block in bytes. Constant over the life of the device.
    fn block_size(&self) -> usize;

    /// Number of blocks on the device.
    fn block_count(&self) -> u64;

    /// Reads block `block` into `buf`. `buf.len()` must equal
    /// [`block_size`](Self::block_size).
    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` to block `block`. `buf.len()` must equal
    /// [`block_size`](Self::block_size).
    fn write_block(&self, block: u64, buf: &[u8]) -> Result<()>;

    /// Forces buffered data to stable storage.
    fn flush(&self) -> Result<()>;

    /// Snapshot of the physical operation counters.
    fn counters(&self) -> DeviceCounters;

    /// Total capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.block_count() * self.block_size() as u64
    }

    /// Validates a block number and buffer length, returning the appropriate
    /// error. Helper for implementors.
    fn check_access(&self, block: u64, buf_len: usize) -> Result<()> {
        if block >= self.block_count() {
            return Err(StorageError::OutOfRange {
                block,
                device_blocks: self.block_count(),
            });
        }
        if buf_len != self.block_size() {
            return Err(StorageError::BadBufferLength {
                got: buf_len,
                expected: self.block_size(),
            });
        }
        Ok(())
    }
}

/// Blanket implementation so `Arc<dyn BlockDevice>` and `Arc<MemDevice>` can
/// be used interchangeably where a device is expected.
impl<D: BlockDevice + ?Sized> BlockDevice for Arc<D> {
    fn block_size(&self) -> usize {
        (**self).block_size()
    }
    fn block_count(&self) -> u64 {
        (**self).block_count()
    }
    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_block(block, buf)
    }
    fn write_block(&self, block: u64, buf: &[u8]) -> Result<()> {
        (**self).write_block(block, buf)
    }
    fn flush(&self) -> Result<()> {
        (**self).flush()
    }
    fn counters(&self) -> DeviceCounters {
        (**self).counters()
    }
}

/// Number of blocks guarded by one lock stripe in [`MemDevice`].
///
/// Striping keeps unrelated concurrent accesses (the paper's
/// `/home/nick` vs `/home/margo` example) from serialising on a single
/// device-wide lock, which would mask namespace-level contention effects in
/// experiment E2.
const STRIPE_BLOCKS: u64 = 1024;

/// An in-memory block device with striped locking.
pub struct MemDevice {
    block_size: usize,
    block_count: u64,
    stripes: Vec<RwLock<Vec<u8>>>,
    counters: AtomicCounters,
}

impl MemDevice {
    /// Creates a zero-filled in-memory device.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or `block_count` is zero; a device
    /// with no capacity is a configuration bug, not a runtime condition.
    pub fn new(block_count: u64, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        assert!(block_count > 0, "block count must be non-zero");
        let stripe_count = block_count.div_ceil(STRIPE_BLOCKS);
        let mut stripes = Vec::with_capacity(stripe_count as usize);
        for s in 0..stripe_count {
            let blocks_in_stripe = if s == stripe_count - 1 {
                block_count - s * STRIPE_BLOCKS
            } else {
                STRIPE_BLOCKS
            };
            stripes.push(RwLock::new(vec![
                0u8;
                blocks_in_stripe as usize * block_size
            ]));
        }
        MemDevice {
            block_size,
            block_count,
            stripes,
            counters: AtomicCounters::default(),
        }
    }

    /// Creates a device with the [`DEFAULT_BLOCK_SIZE`] and enough blocks to
    /// hold `capacity_bytes` bytes (rounded up).
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        let blocks = capacity_bytes.div_ceil(DEFAULT_BLOCK_SIZE as u64).max(1);
        MemDevice::new(blocks, DEFAULT_BLOCK_SIZE)
    }

    fn locate(&self, block: u64) -> (usize, usize) {
        let stripe = (block / STRIPE_BLOCKS) as usize;
        let offset = (block % STRIPE_BLOCKS) as usize * self.block_size;
        (stripe, offset)
    }
}

impl BlockDevice for MemDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.check_access(block, buf.len())?;
        let (stripe, offset) = self.locate(block);
        let guard = self.stripes[stripe].read();
        buf.copy_from_slice(&guard[offset..offset + self.block_size]);
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, block: u64, buf: &[u8]) -> Result<()> {
        self.check_access(block, buf.len())?;
        let (stripe, offset) = self.locate(block);
        let mut guard = self.stripes[stripe].write();
        guard[offset..offset + self.block_size].copy_from_slice(buf);
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn counters(&self) -> DeviceCounters {
        self.counters.snapshot()
    }
}

/// A block device backed by a regular file.
///
/// Used when an experiment needs data to survive process restarts or needs
/// to exceed available memory; functionally identical to [`MemDevice`].
#[derive(Debug)]
pub struct FileDevice {
    file: File,
    block_size: usize,
    block_count: u64,
    counters: AtomicCounters,
}

impl FileDevice {
    /// Creates (or truncates) a file-backed device at `path`.
    pub fn create<P: AsRef<Path>>(path: P, block_count: u64, block_size: usize) -> Result<Self> {
        if block_size == 0 || block_count == 0 {
            return Err(StorageError::Corrupt(
                "file device requires non-zero geometry".to_string(),
            ));
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(block_count * block_size as u64)?;
        Ok(FileDevice {
            file,
            block_size,
            block_count,
            counters: AtomicCounters::default(),
        })
    }

    /// Opens an existing device file with known geometry.
    pub fn open<P: AsRef<Path>>(path: P, block_size: usize) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if block_size == 0 || len == 0 || len % block_size as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "device file length {len} is not a multiple of block size {block_size}"
            )));
        }
        Ok(FileDevice {
            file,
            block_size,
            block_count: len / block_size as u64,
            counters: AtomicCounters::default(),
        })
    }
}

impl BlockDevice for FileDevice {
    fn block_size(&self) -> usize {
        self.block_size
    }

    fn block_count(&self) -> u64 {
        self.block_count
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.check_access(block, buf.len())?;
        self.file
            .read_exact_at(buf, block * self.block_size as u64)?;
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn write_block(&self, block: u64, buf: &[u8]) -> Result<()> {
        self.check_access(block, buf.len())?;
        self.file
            .write_all_at(buf, block * self.block_size as u64)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn flush(&self) -> Result<()> {
        self.file.sync_data()?;
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn counters(&self) -> DeviceCounters {
        self.counters.snapshot()
    }
}

/// Fault-injection knobs for one operation class (read, write or flush)
/// of a [`FaultDevice`].
#[derive(Debug, Clone, Default)]
pub struct OpFault {
    /// Latency charged to every operation of this class.
    pub delay: std::time::Duration,
    /// When set, operations of this class execute one at a time behind an
    /// internal lock — modelling a command the device serialises (a disk's
    /// FLUSH CACHE) rather than one it can overlap (queued reads).
    pub serialize: bool,
    /// When non-zero, every `error_every`-th operation of this class fails
    /// with [`StorageError::Io`] *before* touching the wrapped device. The
    /// count is per class and starts at 1, so `error_every = 1` fails every
    /// operation and `error_every = 3` fails the 3rd, 6th, 9th, …
    pub error_every: u64,
    /// When non-zero, each operation of this class *independently* fails
    /// with probability `error_ppm / 1_000_000`, drawn from the device's
    /// internal deterministic PRNG (seedable via
    /// [`FaultDevice::with_seed`]). Composes with `error_every`: either
    /// trigger injects. This is the chaos-soak shape — randomised fault
    /// arrival instead of a fixed cadence.
    pub error_ppm: u32,
    /// Whether injected errors (from `error_every` or `error_ppm`) are
    /// reported as [`StorageError::TransientIo`] — a fault a retry may
    /// outlast — instead of the permanent [`StorageError::Io`].
    pub transient: bool,
    /// When non-zero, every `torn_every`-th **write** tears: only the
    /// first [`torn_bytes`](Self::torn_bytes) bytes of the buffer land on
    /// the wrapped device while the rest of the block keeps its previous
    /// contents — the partial-sector landing a power cut leaves behind.
    /// Only meaningful on the write class; cadence counts like
    /// `error_every`.
    pub torn_every: u64,
    /// Bytes of the buffer that land when a write tears.
    pub torn_bytes: usize,
    /// Whether a torn write *reports* success (the lying-drive model: the
    /// caller believes the write landed) or an [`StorageError::Io`] (the
    /// crash-before-ack model). Either way only `torn_bytes` bytes landed.
    pub torn_reports_success: bool,
}

impl OpFault {
    /// A fault that only delays, without serialising or failing.
    pub fn delay(delay: std::time::Duration) -> Self {
        OpFault {
            delay,
            ..Default::default()
        }
    }

    /// A serialised delay — one operation at a time, each taking `delay`.
    pub fn serialized_delay(delay: std::time::Duration) -> Self {
        OpFault {
            delay,
            serialize: true,
            ..Default::default()
        }
    }

    /// A fault that fails every `n`-th operation (permanently).
    pub fn error_every(n: u64) -> Self {
        OpFault {
            error_every: n,
            ..Default::default()
        }
    }

    /// A transient fault that fails every `n`-th operation with
    /// [`StorageError::TransientIo`].
    pub fn transient_every(n: u64) -> Self {
        OpFault {
            error_every: n,
            transient: true,
            ..Default::default()
        }
    }

    /// A transient fault that fails each operation independently with
    /// probability `ppm / 1_000_000`.
    pub fn transient_ppm(ppm: u32) -> Self {
        OpFault {
            error_ppm: ppm,
            transient: true,
            ..Default::default()
        }
    }

    /// A permanent fault that fails each operation independently with
    /// probability `ppm / 1_000_000`.
    pub fn error_ppm(ppm: u32) -> Self {
        OpFault {
            error_ppm: ppm,
            ..Default::default()
        }
    }

    /// A write fault that tears every `n`-th write after `keep_bytes`
    /// bytes. `reports_success` selects between the lying-drive model
    /// (`true`: the torn write is acknowledged) and the crash-before-ack
    /// model (`false`: the caller sees an I/O error, but the prefix
    /// already landed).
    pub fn torn_write(n: u64, keep_bytes: usize, reports_success: bool) -> Self {
        OpFault {
            torn_every: n,
            torn_bytes: keep_bytes,
            torn_reports_success: reports_success,
            ..Default::default()
        }
    }
}

/// Per-class fault configuration for a [`FaultDevice`].
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Faults applied to `read_block`.
    pub read: OpFault,
    /// Faults applied to `write_block`.
    pub write: OpFault,
    /// Faults applied to `flush`.
    pub flush: OpFault,
}

/// A composable fault-injection device: per-operation delay, serialisation
/// and every-Nth error knobs over any wrapped [`BlockDevice`].
///
/// One wrapper, configured per class, covers E8's serialised flush
/// latency ([`flush_delay`](Self::flush_delay)) and the slow-read and
/// gated-read devices of the cache tests. Injected errors fire *before*
/// the wrapped device is touched, so a failed operation has no side effects — which is what
/// lets the engine tests assert that a faulted read surfaces on its
/// completion token while the device state stays explainable.
///
/// The configuration is runtime-mutable
/// ([`set_config`](Self::set_config)): a chaos harness can run a healthy
/// or transiently-flaky phase, then flip the same live device to
/// permanent write failure mid-run to drive read-only degradation.
/// Probabilistic injection (`error_ppm`) draws from an internal
/// deterministic splitmix64 counter, seedable via
/// [`with_seed`](Self::with_seed), so randomized trials stay
/// reproducible.
pub struct FaultDevice<D: BlockDevice> {
    inner: D,
    config: parking_lot::RwLock<FaultConfig>,
    rng: AtomicU64,
    gates: [parking_lot::Mutex<()>; 3],
    attempts: [AtomicU64; 3],
    injected: [AtomicU64; 3],
    torn_attempts: AtomicU64,
    torn_injected: AtomicU64,
}

/// Indices into the per-class state of a [`FaultDevice`].
#[derive(Clone, Copy)]
enum FaultClass {
    Read = 0,
    Write = 1,
    Flush = 2,
}

impl<D: BlockDevice> FaultDevice<D> {
    /// Wraps `inner` with the given per-class faults.
    pub fn new(inner: D, config: FaultConfig) -> Self {
        FaultDevice::with_seed(inner, config, 0x5EED_F417)
    }

    /// Like [`new`](Self::new) but with an explicit seed for the PRNG
    /// behind probabilistic (`error_ppm`) injection.
    pub fn with_seed(inner: D, config: FaultConfig, seed: u64) -> Self {
        FaultDevice {
            inner,
            config: parking_lot::RwLock::new(config),
            rng: AtomicU64::new(seed),
            gates: Default::default(),
            attempts: Default::default(),
            injected: Default::default(),
            torn_attempts: AtomicU64::new(0),
            torn_injected: AtomicU64::new(0),
        }
    }

    /// Replaces the fault configuration on the live device. Operations
    /// already past their fault check complete under the old config;
    /// everything submitted after this call sees the new one.
    pub fn set_config(&self, config: FaultConfig) {
        *self.config.write() = config;
    }

    /// One draw in `[0, 1_000_000)` from the internal splitmix64
    /// sequence. An atomic counter stepped by the golden-gamma keeps
    /// concurrent draws independent without a lock (and without pulling
    /// a rand dependency into the storage crate).
    fn roll_ppm(&self) -> u32 {
        let mut x = self
            .rng
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x % 1_000_000) as u32
    }

    /// Convenience: every read takes `delay` (reads overlap, as queued
    /// device reads do). The shape experiment E10 uses to model a device
    /// whose misses are worth hiding behind read-ahead.
    pub fn read_delay(inner: D, delay: std::time::Duration) -> Self {
        FaultDevice::new(
            inner,
            FaultConfig {
                read: OpFault::delay(delay),
                ..Default::default()
            },
        )
    }

    /// Convenience: every flush takes `delay`, serialised — the E8 shape.
    pub fn flush_delay(inner: D, delay: std::time::Duration) -> Self {
        FaultDevice::new(
            inner,
            FaultConfig {
                flush: OpFault::serialized_delay(delay),
                ..Default::default()
            },
        )
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Number of torn writes injected so far.
    pub fn torn_writes(&self) -> u64 {
        self.torn_injected.load(Ordering::Relaxed)
    }

    /// Tears the write if this attempt is on the torn cadence: the first
    /// `torn_bytes` of `buf` land merged over the block's previous
    /// contents. Returns `Some(result)` when the write was torn (and thus
    /// already handled), `None` when it should proceed normally.
    fn apply_torn_write(&self, block: u64, buf: &[u8]) -> Option<Result<()>> {
        let fault = self.config.read().write.clone();
        if fault.torn_every == 0 {
            return None;
        }
        let attempt = self.torn_attempts.fetch_add(1, Ordering::Relaxed) + 1;
        if !attempt.is_multiple_of(fault.torn_every) {
            return None;
        }
        self.torn_injected.fetch_add(1, Ordering::Relaxed);
        let mut merged = vec![0u8; self.inner.block_size()];
        if let Err(e) = self.inner.read_block(block, &mut merged) {
            return Some(Err(e));
        }
        let keep = fault.torn_bytes.min(buf.len());
        merged[..keep].copy_from_slice(&buf[..keep]);
        if let Err(e) = self.inner.write_block(block, &merged) {
            return Some(Err(e));
        }
        if fault.torn_reports_success {
            Some(Ok(()))
        } else {
            Some(Err(StorageError::Io(format!(
                "injected torn write (attempt {attempt}, {keep} of {} bytes landed)",
                buf.len()
            ))))
        }
    }

    /// Number of errors injected so far, per class `(reads, writes,
    /// flushes)`.
    pub fn injected_errors(&self) -> (u64, u64, u64) {
        (
            self.injected[FaultClass::Read as usize].load(Ordering::Relaxed),
            self.injected[FaultClass::Write as usize].load(Ordering::Relaxed),
            self.injected[FaultClass::Flush as usize].load(Ordering::Relaxed),
        )
    }

    /// Applies the class's faults; returns an error if this attempt is an
    /// injected failure. Holds the class gate across the delay when the
    /// class is serialised.
    fn apply(&self, class: FaultClass, op_name: &str) -> Result<()> {
        let config = self.config.read();
        let fault = match class {
            FaultClass::Read => &config.read,
            FaultClass::Write => &config.write,
            FaultClass::Flush => &config.flush,
        }
        .clone();
        drop(config);
        let attempt = self.attempts[class as usize].fetch_add(1, Ordering::Relaxed) + 1;
        let cadence_hit = fault.error_every > 0 && attempt.is_multiple_of(fault.error_every);
        let random_hit = fault.error_ppm > 0 && self.roll_ppm() < fault.error_ppm;
        if cadence_hit || random_hit {
            self.injected[class as usize].fetch_add(1, Ordering::Relaxed);
            let msg = format!("injected {op_name} fault (attempt {attempt})");
            return Err(if fault.transient {
                StorageError::TransientIo(msg)
            } else {
                StorageError::Io(msg)
            });
        }
        if !fault.delay.is_zero() {
            if fault.serialize {
                let _gate = self.gates[class as usize].lock();
                std::thread::sleep(fault.delay);
            } else {
                std::thread::sleep(fault.delay);
            }
        }
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for FaultDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, block: u64, buf: &mut [u8]) -> Result<()> {
        self.apply(FaultClass::Read, "read")?;
        self.inner.read_block(block, buf)
    }

    fn write_block(&self, block: u64, buf: &[u8]) -> Result<()> {
        if let Some(torn) = self.apply_torn_write(block, buf) {
            return torn;
        }
        self.apply(FaultClass::Write, "write")?;
        self.inner.write_block(block, buf)
    }

    fn flush(&self) -> Result<()> {
        self.apply(FaultClass::Flush, "flush")?;
        self.inner.flush()
    }

    fn counters(&self) -> DeviceCounters {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_device_round_trip() {
        let dev = MemDevice::new(16, 512);
        let mut out = vec![0u8; 512];
        let data = vec![0xABu8; 512];
        dev.write_block(3, &data).unwrap();
        dev.read_block(3, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn mem_device_starts_zeroed() {
        let dev = MemDevice::new(4, 128);
        let mut buf = vec![0xFFu8; 128];
        dev.read_block(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn mem_device_rejects_out_of_range() {
        let dev = MemDevice::new(4, 128);
        let mut buf = vec![0u8; 128];
        let err = dev.read_block(4, &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::OutOfRange { block: 4, .. }));
    }

    #[test]
    fn mem_device_rejects_bad_buffer() {
        let dev = MemDevice::new(4, 128);
        let buf = vec![0u8; 64];
        let err = dev.write_block(0, &buf).unwrap_err();
        assert!(matches!(
            err,
            StorageError::BadBufferLength {
                got: 64,
                expected: 128
            }
        ));
    }

    #[test]
    fn counters_track_operations() {
        let dev = MemDevice::new(8, 256);
        let before = dev.counters();
        let buf = vec![1u8; 256];
        let mut out = vec![0u8; 256];
        dev.write_block(0, &buf).unwrap();
        dev.write_block(1, &buf).unwrap();
        dev.read_block(0, &mut out).unwrap();
        dev.flush().unwrap();
        let delta = dev.counters().delta_since(&before);
        assert_eq!(delta.writes, 2);
        assert_eq!(delta.reads, 1);
        assert_eq!(delta.flushes, 1);
        assert_eq!(delta.total_ops(), 3);
    }

    #[test]
    fn striping_covers_whole_device() {
        // A device larger than one stripe must still address every block.
        let blocks = STRIPE_BLOCKS * 2 + 7;
        let dev = MemDevice::new(blocks, 64);
        let data = vec![0x5Au8; 64];
        let mut out = vec![0u8; 64];
        for block in [0, STRIPE_BLOCKS - 1, STRIPE_BLOCKS, blocks - 1] {
            dev.write_block(block, &data).unwrap();
            dev.read_block(block, &mut out).unwrap();
            assert_eq!(out, data, "block {block}");
        }
    }

    #[test]
    fn with_capacity_rounds_up() {
        let dev = MemDevice::with_capacity(DEFAULT_BLOCK_SIZE as u64 + 1);
        assert_eq!(dev.block_count(), 2);
        assert_eq!(dev.capacity_bytes(), 2 * DEFAULT_BLOCK_SIZE as u64);
    }

    #[test]
    fn arc_device_is_usable_through_trait() {
        let dev = Arc::new(MemDevice::new(4, 128));
        let data = vec![9u8; 128];
        dev.write_block(2, &data).unwrap();
        let mut out = vec![0u8; 128];
        BlockDevice::read_block(&dev, 2, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn file_device_round_trip() {
        let dir = std::env::temp_dir().join(format!("hfad-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file_device_round_trip.img");
        {
            let dev = FileDevice::create(&path, 8, 512).unwrap();
            let data = vec![0xC3u8; 512];
            dev.write_block(5, &data).unwrap();
            dev.flush().unwrap();
        }
        {
            let dev = FileDevice::open(&path, 512).unwrap();
            assert_eq!(dev.block_count(), 8);
            let mut out = vec![0u8; 512];
            dev.read_block(5, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == 0xC3));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_device_open_rejects_misaligned_length() {
        let dir = std::env::temp_dir().join(format!("hfad-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misaligned.img");
        std::fs::write(&path, vec![0u8; 100]).unwrap();
        let err = FileDevice::open(&path, 512).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_delay_device_is_transparent_and_slow_to_flush() {
        let dev =
            FaultDevice::flush_delay(MemDevice::new(4, 128), std::time::Duration::from_millis(5));
        let data = vec![0x11u8; 128];
        dev.write_block(1, &data).unwrap();
        let mut out = vec![0u8; 128];
        dev.read_block(1, &mut out).unwrap();
        assert_eq!(out, data);
        let start = std::time::Instant::now();
        dev.flush().unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        assert_eq!(dev.counters().flushes, 1);
    }

    #[test]
    fn fault_device_injects_every_nth_error_without_side_effects() {
        let dev = FaultDevice::new(
            MemDevice::new(8, 128),
            FaultConfig {
                write: OpFault::error_every(3),
                ..Default::default()
            },
        );
        let data = vec![0x77u8; 128];
        dev.write_block(0, &data).unwrap();
        dev.write_block(1, &data).unwrap();
        // Third write fails before reaching the device.
        let err = dev.write_block(2, &data).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        let mut out = vec![0xFFu8; 128];
        dev.inner().read_block(2, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "failed write must not land");
        // Fourth succeeds; the cadence continues per class.
        dev.write_block(2, &data).unwrap();
        assert!(dev.write_block(3, &data).is_ok());
        assert!(dev.write_block(3, &data).is_err());
        assert_eq!(dev.injected_errors(), (0, 2, 0));
    }

    #[test]
    fn fault_device_transient_errors_are_classified() {
        let dev = FaultDevice::new(
            MemDevice::new(8, 128),
            FaultConfig {
                write: OpFault::transient_every(1),
                ..Default::default()
            },
        );
        let err = dev.write_block(0, &[0u8; 128]).unwrap_err();
        assert!(matches!(err, StorageError::TransientIo(_)));
        assert!(err.is_transient());
        assert_eq!(dev.injected_errors(), (0, 1, 0));
    }

    #[test]
    fn fault_device_ppm_rates_are_seeded_and_proportional() {
        // ppm = 1_000_000 fails every draw; ppm = 0 never fires.
        let always = FaultDevice::new(
            MemDevice::new(8, 128),
            FaultConfig {
                read: OpFault::transient_ppm(1_000_000),
                ..Default::default()
            },
        );
        let mut buf = vec![0u8; 128];
        for _ in 0..8 {
            assert!(always.read_block(0, &mut buf).unwrap_err().is_transient());
        }
        // A mid-range rate injects roughly proportionally, and the same
        // seed reproduces the same arrival sequence.
        let trial = |seed| {
            let dev = FaultDevice::with_seed(
                MemDevice::new(8, 128),
                FaultConfig {
                    read: OpFault::transient_ppm(250_000),
                    ..Default::default()
                },
                seed,
            );
            let mut failures = Vec::new();
            let mut buf = vec![0u8; 128];
            for i in 0..400 {
                if dev.read_block(0, &mut buf).is_err() {
                    failures.push(i);
                }
            }
            failures
        };
        let a = trial(7);
        let b = trial(7);
        assert_eq!(a, b, "same seed, same fault arrivals");
        assert!(
            (40..=160).contains(&a.len()),
            "250k ppm over 400 draws should land near 100 failures, got {}",
            a.len()
        );
    }

    #[test]
    fn fault_device_config_is_runtime_mutable() {
        let dev = FaultDevice::new(MemDevice::new(8, 128), FaultConfig::default());
        let data = vec![0x5Au8; 128];
        dev.write_block(0, &data).unwrap();
        dev.set_config(FaultConfig {
            write: OpFault::error_every(1),
            ..Default::default()
        });
        let err = dev.write_block(1, &data).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        dev.set_config(FaultConfig::default());
        dev.write_block(1, &data).unwrap();
    }

    #[test]
    fn torn_write_lands_prefix_only() {
        let dev = FaultDevice::new(
            MemDevice::new(8, 128),
            FaultConfig {
                write: OpFault::torn_write(2, 40, false),
                ..Default::default()
            },
        );
        let old = vec![0x11u8; 128];
        dev.write_block(0, &old).unwrap(); // attempt 1: intact
        let new = vec![0x22u8; 128];
        let err = dev.write_block(0, &new).unwrap_err(); // attempt 2: torn
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(dev.torn_writes(), 1);
        let mut out = vec![0u8; 128];
        dev.inner().read_block(0, &mut out).unwrap();
        assert!(out[..40].iter().all(|&b| b == 0x22), "prefix must land");
        assert!(
            out[40..].iter().all(|&b| b == 0x11),
            "tail must keep the previous contents"
        );
    }

    #[test]
    fn torn_write_can_lie_about_success() {
        let dev = FaultDevice::new(
            MemDevice::new(4, 128),
            FaultConfig {
                write: OpFault::torn_write(1, 16, true),
                ..Default::default()
            },
        );
        // Every write tears but is acknowledged — the lying-drive model.
        dev.write_block(1, &[0xABu8; 128]).unwrap();
        assert_eq!(dev.torn_writes(), 1);
        let mut out = vec![0u8; 128];
        dev.inner().read_block(1, &mut out).unwrap();
        assert!(out[..16].iter().all(|&b| b == 0xAB));
        assert!(out[16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn torn_write_proxy_over_file_device() {
        // The torn-write proxy must compose over a real file, reading the
        // on-disk tail back for the merge.
        let dir = std::env::temp_dir().join(format!("hfad-dev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn_proxy.img");
        let dev = FaultDevice::new(
            FileDevice::create(&path, 8, 512).unwrap(),
            FaultConfig {
                write: OpFault::torn_write(2, 100, false),
                ..Default::default()
            },
        );
        dev.write_block(3, &vec![0x5Au8; 512]).unwrap();
        assert!(dev.write_block(3, &vec![0xC3u8; 512]).is_err());
        let mut out = vec![0u8; 512];
        dev.inner().read_block(3, &mut out).unwrap();
        assert!(out[..100].iter().all(|&b| b == 0xC3));
        assert!(out[100..].iter().all(|&b| b == 0x5A));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_device_read_delay_overlaps_flush_delay_serialises() {
        let dev = FaultDevice::new(
            MemDevice::new(8, 128),
            FaultConfig {
                read: OpFault::delay(std::time::Duration::from_millis(5)),
                flush: OpFault::serialized_delay(std::time::Duration::from_millis(5)),
                ..Default::default()
            },
        );
        let mut out = vec![0u8; 128];
        let start = std::time::Instant::now();
        dev.read_block(0, &mut out).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        let start = std::time::Instant::now();
        dev.flush().unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        // Reads and writes are untouched by the flush fault.
        dev.write_block(0, &[1u8; 128]).unwrap();
    }

    #[test]
    fn concurrent_writes_to_distinct_blocks() {
        let dev = Arc::new(MemDevice::new(STRIPE_BLOCKS * 4, 64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let dev = Arc::clone(&dev);
            handles.push(std::thread::spawn(move || {
                let data = vec![t as u8; 64];
                for i in 0..100u64 {
                    dev.write_block(t * STRIPE_BLOCKS / 2 + i, &data).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(dev.counters().writes >= 800);
    }
}
