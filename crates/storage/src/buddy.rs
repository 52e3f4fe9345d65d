//! Binary buddy block allocator.
//!
//! The paper's OSD layer sits on "a buddy storage allocator" (Knuth, TAOCP
//! vol. 1). This is a classic binary buddy system over a contiguous range of
//! device blocks: requests are rounded up to the next power of two, free
//! blocks of each order are kept on per-order free lists, splitting walks
//! down the orders and freeing coalesces with the buddy whenever the buddy
//! is also free.

use std::collections::BTreeSet;

use parking_lot::Mutex;

use crate::alloc::{AllocStats, Allocator};
use crate::error::{Result, StorageError};
use crate::extent::Extent;

/// Largest supported allocation order (2^20 blocks = 4 GiB at 4 KiB blocks).
pub const MAX_ORDER: u32 = 20;

struct BuddyInner {
    /// Free blocks per order, stored as offsets relative to `base`.
    free_lists: Vec<BTreeSet<u64>>,
    /// Outstanding allocations: relative offset -> order.
    allocated: std::collections::HashMap<u64, u32>,
    stats: AllocStats,
}

/// A binary buddy allocator managing `[base, base + managed_blocks)`.
pub struct BuddyAllocator {
    base: u64,
    managed_blocks: u64,
    inner: Mutex<BuddyInner>,
}

fn order_for(nblocks: u64) -> u32 {
    let mut order = 0;
    while (1u64 << order) < nblocks {
        order += 1;
    }
    order
}

impl BuddyAllocator {
    /// Creates a buddy allocator over `managed_blocks` blocks starting at
    /// device block `base`.
    ///
    /// The managed range does not need to be a power of two; it is seeded as
    /// a collection of maximal power-of-two chunks.
    pub fn new(base: u64, managed_blocks: u64) -> Self {
        let mut free_lists: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); MAX_ORDER as usize + 1];
        // Seed free lists with maximal aligned power-of-two chunks covering
        // the managed range.
        let mut offset = 0u64;
        while offset < managed_blocks {
            let remaining = managed_blocks - offset;
            // Largest order that is both <= remaining and aligned at offset.
            let mut order = order_for(remaining.next_power_of_two());
            if (1u64 << order) > remaining {
                order -= 1;
            }
            while order > 0 && !offset.is_multiple_of(1u64 << order) {
                order -= 1;
            }
            let order = order.min(MAX_ORDER);
            free_lists[order as usize].insert(offset);
            offset += 1u64 << order;
        }
        let stats = AllocStats {
            total_blocks: managed_blocks,
            free_blocks: managed_blocks,
            ..Default::default()
        };
        BuddyAllocator {
            base,
            managed_blocks,
            inner: Mutex::new(BuddyInner {
                free_lists,
                allocated: std::collections::HashMap::new(),
                stats,
            }),
        }
    }

    /// First block managed by this allocator.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of blocks managed by this allocator.
    pub fn managed_blocks(&self) -> u64 {
        self.managed_blocks
    }

    /// Every outstanding allocation as `(relative offset, order)` pairs,
    /// sorted by offset — the unit of persistence for checkpoint metadata.
    pub fn allocated_snapshot(&self) -> Vec<(u64, u32)> {
        let inner = self.inner.lock();
        let mut out: Vec<(u64, u32)> = inner.allocated.iter().map(|(&o, &k)| (o, k)).collect();
        out.sort_unstable();
        out
    }

    /// Rebuilds an allocator from a snapshot taken by
    /// [`allocated_snapshot`](Self::allocated_snapshot): each `(offset,
    /// order)` chunk is carved back out of the freshly seeded free lists.
    /// Fails with [`StorageError::Corrupt`] if a chunk does not fit the
    /// managed range or overlaps another allocation.
    pub fn restore(base: u64, managed_blocks: u64, snapshot: &[(u64, u32)]) -> Result<Self> {
        let alloc = Self::new(base, managed_blocks);
        {
            let mut inner = alloc.inner.lock();
            for &(offset, order) in snapshot {
                let len = 1u64
                    .checked_shl(order)
                    .filter(|_| order <= MAX_ORDER)
                    .ok_or_else(|| {
                        StorageError::Corrupt(format!("allocator snapshot order {order} invalid"))
                    })?;
                if offset + len > managed_blocks || !offset.is_multiple_of(len) {
                    return Err(StorageError::Corrupt(format!(
                        "allocator snapshot chunk ({offset}, 2^{order}) outside managed range"
                    )));
                }
                // Find the free chunk containing this allocation: walk up
                // the orders from `order` looking for a free chunk whose
                // range covers `offset`.
                let mut found = None;
                for free_order in order..=MAX_ORDER {
                    let chunk = offset & !((1u64 << free_order) - 1);
                    if inner.free_lists[free_order as usize].contains(&chunk) {
                        found = Some((chunk, free_order));
                        break;
                    }
                }
                let Some((chunk, mut free_order)) = found else {
                    return Err(StorageError::Corrupt(format!(
                        "allocator snapshot chunk ({offset}, 2^{order}) overlaps another allocation"
                    )));
                };
                // Split the containing chunk down to `order`, returning
                // the halves that do not contain the allocation.
                inner.free_lists[free_order as usize].remove(&chunk);
                let mut cursor = chunk;
                while free_order > order {
                    free_order -= 1;
                    let half = 1u64 << free_order;
                    if offset < cursor + half {
                        inner.free_lists[free_order as usize].insert(cursor + half);
                    } else {
                        inner.free_lists[free_order as usize].insert(cursor);
                        cursor += half;
                    }
                }
                inner.allocated.insert(offset, order);
                inner.stats.allocated_blocks += len;
                inner.stats.free_blocks -= len;
            }
        }
        Ok(alloc)
    }
}

impl Allocator for BuddyAllocator {
    fn allocate(&self, nblocks: u64) -> Result<Extent> {
        if nblocks == 0 {
            return Err(StorageError::ZeroAllocation);
        }
        let want_order = order_for(nblocks);
        if want_order > MAX_ORDER {
            let free = self.inner.lock().stats.free_blocks;
            return Err(StorageError::OutOfSpace {
                requested: nblocks,
                free,
            });
        }
        let mut inner = self.inner.lock();
        // Find the smallest order >= want_order with a free chunk.
        let mut found_order = None;
        for order in want_order..=MAX_ORDER {
            if !inner.free_lists[order as usize].is_empty() {
                found_order = Some(order);
                break;
            }
        }
        let Some(mut order) = found_order else {
            inner.stats.failed_allocs += 1;
            return Err(StorageError::OutOfSpace {
                requested: nblocks,
                free: inner.stats.free_blocks,
            });
        };
        let offset = *inner.free_lists[order as usize]
            .iter()
            .next()
            .expect("non-empty");
        inner.free_lists[order as usize].remove(&offset);
        // Split down to the wanted order, returning the upper halves to the
        // free lists.
        while order > want_order {
            order -= 1;
            let buddy = offset + (1u64 << order);
            inner.free_lists[order as usize].insert(buddy);
        }
        let granted = 1u64 << want_order;
        inner.allocated.insert(offset, want_order);
        inner.stats.alloc_calls += 1;
        inner.stats.allocated_blocks += granted;
        inner.stats.free_blocks -= granted;
        inner.stats.internal_fragmentation += granted - nblocks;
        Ok(Extent::new(self.base + offset, granted))
    }

    fn free(&self, extent: Extent) -> Result<()> {
        if extent.start < self.base {
            return Err(StorageError::InvalidFree {
                start: extent.start,
                len: extent.len,
            });
        }
        let mut offset = extent.start - self.base;
        let mut inner = self.inner.lock();
        let Some(order) = inner.allocated.remove(&offset) else {
            return Err(StorageError::InvalidFree {
                start: extent.start,
                len: extent.len,
            });
        };
        if (1u64 << order) != extent.len {
            // Re-insert so a retry with the right extent still works.
            inner.allocated.insert(offset, order);
            return Err(StorageError::InvalidFree {
                start: extent.start,
                len: extent.len,
            });
        }
        let granted = 1u64 << order;
        inner.stats.free_calls += 1;
        inner.stats.allocated_blocks -= granted;
        inner.stats.free_blocks += granted;
        // Coalesce with the buddy while possible.
        let mut order = order;
        while order < MAX_ORDER {
            let buddy = offset ^ (1u64 << order);
            if buddy + (1u64 << order) > self.managed_blocks {
                break;
            }
            if !inner.free_lists[order as usize].remove(&buddy) {
                break;
            }
            offset = offset.min(buddy);
            order += 1;
        }
        inner.free_lists[order as usize].insert(offset);
        Ok(())
    }

    fn stats(&self) -> AllocStats {
        self.inner.lock().stats
    }

    fn name(&self) -> &'static str {
        "buddy"
    }

    fn snapshot(&self) -> Vec<(u64, u32)> {
        self.allocated_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_for_rounds_up() {
        assert_eq!(order_for(1), 0);
        assert_eq!(order_for(2), 1);
        assert_eq!(order_for(3), 2);
        assert_eq!(order_for(4), 2);
        assert_eq!(order_for(5), 3);
        assert_eq!(order_for(1024), 10);
    }

    #[test]
    fn allocate_rounds_to_power_of_two() {
        let a = BuddyAllocator::new(0, 64);
        let e = a.allocate(3).unwrap();
        assert_eq!(e.len, 4);
        let s = a.stats();
        assert_eq!(s.allocated_blocks, 4);
        assert_eq!(s.internal_fragmentation, 1);
    }

    #[test]
    fn allocate_respects_base_offset() {
        let a = BuddyAllocator::new(100, 32);
        let e = a.allocate(8).unwrap();
        assert!(e.start >= 100);
        assert!(e.end() <= 132);
    }

    #[test]
    fn free_and_coalesce_restores_full_capacity() {
        let a = BuddyAllocator::new(0, 64);
        let mut extents = Vec::new();
        for _ in 0..16 {
            extents.push(a.allocate(4).unwrap());
        }
        assert_eq!(a.stats().free_blocks, 0);
        assert!(a.allocate(1).is_err());
        for e in extents {
            a.free(e).unwrap();
        }
        assert_eq!(a.stats().free_blocks, 64);
        // After coalescing, a maximal allocation must succeed again.
        let big = a.allocate(64).unwrap();
        assert_eq!(big.len, 64);
    }

    #[test]
    fn zero_allocation_rejected() {
        let a = BuddyAllocator::new(0, 16);
        assert!(matches!(a.allocate(0), Err(StorageError::ZeroAllocation)));
    }

    #[test]
    fn double_free_rejected() {
        let a = BuddyAllocator::new(0, 16);
        let e = a.allocate(2).unwrap();
        a.free(e).unwrap();
        assert!(matches!(a.free(e), Err(StorageError::InvalidFree { .. })));
    }

    #[test]
    fn free_with_wrong_length_rejected_then_recoverable() {
        let a = BuddyAllocator::new(0, 16);
        let e = a.allocate(4).unwrap();
        let wrong = Extent::new(e.start, 2);
        assert!(a.free(wrong).is_err());
        // The correct free must still succeed afterwards.
        a.free(e).unwrap();
    }

    #[test]
    fn non_power_of_two_region_fully_usable() {
        let a = BuddyAllocator::new(0, 100);
        let mut total = 0u64;
        let mut extents = Vec::new();
        while let Ok(e) = a.allocate(1) {
            total += e.len;
            extents.push(e);
        }
        assert_eq!(total, 100);
        for e in &extents {
            assert!(e.end() <= 100);
        }
        for e in extents {
            a.free(e).unwrap();
        }
        assert_eq!(a.stats().free_blocks, 100);
    }

    #[test]
    fn distinct_allocations_never_overlap() {
        let a = BuddyAllocator::new(0, 256);
        let mut live: Vec<Extent> = Vec::new();
        for i in 1..=20u64 {
            let e = a.allocate(i % 7 + 1).unwrap();
            for other in &live {
                assert!(!e.overlaps(other), "{e:?} overlaps {other:?}");
            }
            live.push(e);
        }
    }

    #[test]
    fn huge_request_fails_cleanly() {
        let a = BuddyAllocator::new(0, 16);
        let err = a.allocate(1 << 30).unwrap_err();
        assert!(matches!(err, StorageError::OutOfSpace { .. }));
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let a = BuddyAllocator::new(100, 256);
        let keep1 = a.allocate(4).unwrap();
        let keep2 = a.allocate(16).unwrap();
        let gone = a.allocate(8).unwrap();
        let keep3 = a.allocate(1).unwrap();
        a.free(gone).unwrap();
        let snapshot = a.allocated_snapshot();
        assert_eq!(snapshot.len(), 3);

        let b = BuddyAllocator::restore(100, 256, &snapshot).unwrap();
        assert_eq!(b.allocated_snapshot(), snapshot);
        assert_eq!(b.stats().allocated_blocks, a.stats().allocated_blocks);
        assert_eq!(b.stats().free_blocks, a.stats().free_blocks);
        // The restored allocator can free the surviving extents and then
        // coalesce back to full capacity.
        for e in [keep1, keep2, keep3] {
            b.free(e).unwrap();
        }
        assert_eq!(b.stats().free_blocks, 256);
        assert_eq!(b.allocate(256).unwrap().len, 256);
    }

    #[test]
    fn restore_never_hands_out_snapshot_blocks() {
        let a = BuddyAllocator::new(0, 64);
        let live = a.allocate(8).unwrap();
        let b = BuddyAllocator::restore(0, 64, &a.allocated_snapshot()).unwrap();
        let mut grabbed = Vec::new();
        while let Ok(e) = b.allocate(1) {
            assert!(!e.overlaps(&live), "restored allocator reissued {e:?}");
            grabbed.push(e);
        }
        assert_eq!(grabbed.len() as u64, 64 - 8);
    }

    #[test]
    fn restore_rejects_corrupt_snapshots() {
        // Chunk outside the managed range.
        assert!(BuddyAllocator::restore(0, 64, &[(64, 0)]).is_err());
        // Misaligned chunk.
        assert!(BuddyAllocator::restore(0, 64, &[(1, 2)]).is_err());
        // Overlapping chunks.
        assert!(BuddyAllocator::restore(0, 64, &[(0, 2), (2, 1)]).is_err());
        // Nonsense order.
        assert!(BuddyAllocator::restore(0, 64, &[(0, 63)]).is_err());
    }

    #[test]
    fn concurrent_allocate_free() {
        use std::sync::Arc;
        let a = Arc::new(BuddyAllocator::new(0, 4096));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let e = a.allocate(4).unwrap();
                    a.free(e).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.stats().free_blocks, 4096);
        assert_eq!(a.stats().allocated_blocks, 0);
    }
}
