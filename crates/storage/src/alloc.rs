//! The allocator abstraction the buddy allocator implements.

use crate::error::Result;
use crate::extent::Extent;

/// Statistics reported by an allocator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Total blocks managed by the allocator.
    pub total_blocks: u64,
    /// Blocks currently free.
    pub free_blocks: u64,
    /// Blocks currently allocated (including internal fragmentation for
    /// allocators that round sizes up).
    pub allocated_blocks: u64,
    /// Number of successful allocation calls.
    pub alloc_calls: u64,
    /// Number of successful free calls.
    pub free_calls: u64,
    /// Number of allocation calls that failed for lack of space.
    pub failed_allocs: u64,
    /// Blocks wasted to internal fragmentation (allocated minus requested).
    pub internal_fragmentation: u64,
}

impl AllocStats {
    /// Fraction of managed blocks currently in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total_blocks == 0 {
            0.0
        } else {
            self.allocated_blocks as f64 / self.total_blocks as f64
        }
    }

    /// Fraction of allocated blocks lost to internal fragmentation.
    pub fn fragmentation_ratio(&self) -> f64 {
        if self.allocated_blocks == 0 {
            0.0
        } else {
            self.internal_fragmentation as f64 / self.allocated_blocks as f64
        }
    }
}

/// A block allocator over a region of a device.
///
/// The paper's OSD uses a buddy storage allocator (Knuth) at its lowest
/// level, [`BuddyAllocator`](crate::BuddyAllocator). Layers above hold it
/// as an `Arc<dyn Allocator>`, so a probe or test can share one allocator
/// between several B-trees without naming its type.
pub trait Allocator: Send + Sync {
    /// Allocates at least `nblocks` contiguous blocks.
    ///
    /// The returned extent may be larger than requested (e.g. a buddy
    /// allocator rounds to a power of two); callers that care should record
    /// their logical length separately.
    fn allocate(&self, nblocks: u64) -> Result<Extent>;

    /// Returns a previously allocated extent to the allocator.
    ///
    /// The extent must be exactly one returned from [`allocate`](Self::allocate)
    /// (not a sub-range).
    fn free(&self, extent: Extent) -> Result<()>;

    /// Current allocator statistics.
    fn stats(&self) -> AllocStats;

    /// Human-readable allocator name used in experiment output.
    fn name(&self) -> &'static str;

    /// Captures the allocator's live extents as `(start_block, order)`
    /// pairs, the form
    /// [`BuddyAllocator::allocated_snapshot`](crate::BuddyAllocator::allocated_snapshot)
    /// returns, for a persistent checkpoint to store and replay on open
    /// without a device scan.
    fn snapshot(&self) -> Vec<(u64, u32)>;
}

impl<A: Allocator + ?Sized> Allocator for std::sync::Arc<A> {
    fn allocate(&self, nblocks: u64) -> Result<Extent> {
        (**self).allocate(nblocks)
    }
    fn free(&self, extent: Extent) -> Result<()> {
        (**self).free(extent)
    }
    fn stats(&self) -> AllocStats {
        (**self).stats()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn snapshot(&self) -> Vec<(u64, u32)> {
        (**self).snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_of_empty_allocator_is_zero() {
        let s = AllocStats::default();
        assert_eq!(s.utilization(), 0.0);
        assert_eq!(s.fragmentation_ratio(), 0.0);
    }

    #[test]
    fn utilization_computes_ratio() {
        let s = AllocStats {
            total_blocks: 100,
            allocated_blocks: 25,
            free_blocks: 75,
            ..Default::default()
        };
        assert!((s.utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_ratio_computes() {
        let s = AllocStats {
            total_blocks: 100,
            allocated_blocks: 40,
            internal_fragmentation: 10,
            ..Default::default()
        };
        assert!((s.fragmentation_ratio() - 0.25).abs() < 1e-9);
    }
}
