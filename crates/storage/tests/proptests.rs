//! Property-based tests for the storage substrate.

use std::sync::Arc;

use proptest::prelude::*;

use hfad_storage::{
    Allocator, BlockDevice, BuddyAllocator, CachedDevice, Extent, MemDevice, Superblock,
};

proptest! {
    /// Whatever sequence of block writes is issued, reading the block back
    /// returns the last value written.
    #[test]
    fn device_reads_return_last_write(
        writes in prop::collection::vec((0u64..32, 0u8..255), 1..64)
    ) {
        let dev = MemDevice::new(32, 64);
        let mut model = [0u8; 32];
        for (block, byte) in &writes {
            let buf = vec![*byte; 64];
            dev.write_block(*block, &buf).unwrap();
            model[*block as usize] = *byte;
        }
        for block in 0u64..32 {
            let mut out = vec![0u8; 64];
            dev.read_block(block, &mut out).unwrap();
            prop_assert!(out.iter().all(|&b| b == model[block as usize]));
        }
    }

    /// The cached device agrees with an uncached model device under any
    /// interleaving of reads and writes, regardless of cache capacity.
    #[test]
    fn cache_is_transparent(
        ops in prop::collection::vec((0u64..16, 0u8..255, prop::bool::ANY), 1..100),
        capacity in 1usize..8,
    ) {
        let cached = CachedDevice::new(MemDevice::new(16, 32), capacity);
        let model = MemDevice::new(16, 32);
        for (block, byte, is_write) in ops {
            if is_write {
                let buf = vec![byte; 32];
                cached.write_block(block, &buf).unwrap();
                model.write_block(block, &buf).unwrap();
            } else {
                let mut a = vec![0u8; 32];
                let mut b = vec![0u8; 32];
                cached.read_block(block, &mut a).unwrap();
                model.read_block(block, &mut b).unwrap();
                prop_assert_eq!(a, b);
            }
        }
        // After a flush, the backing device must match the model exactly.
        cached.flush().unwrap();
        for block in 0u64..16 {
            let mut a = vec![0u8; 32];
            let mut b = vec![0u8; 32];
            cached.inner().read_block(block, &mut a).unwrap();
            model.read_block(block, &mut b).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Buddy allocations never overlap, stay in range, and freeing
    /// everything restores full capacity.
    #[test]
    fn buddy_no_overlap_and_full_reclaim(
        sizes in prop::collection::vec(1u64..20, 1..40)
    ) {
        let total = 1024u64;
        let alloc = BuddyAllocator::new(10, total);
        let mut live: Vec<Extent> = Vec::new();
        for size in sizes {
            match alloc.allocate(size) {
                Ok(e) => {
                    prop_assert!(e.start >= 10);
                    prop_assert!(e.end() <= 10 + total);
                    prop_assert!(e.len >= size);
                    for other in &live {
                        prop_assert!(!e.overlaps(other));
                    }
                    live.push(e);
                }
                Err(_) => break,
            }
        }
        for e in live {
            alloc.free(e).unwrap();
        }
        prop_assert_eq!(alloc.stats().free_blocks, total);
        prop_assert_eq!(alloc.stats().allocated_blocks, 0);
    }

    /// Interleaved allocate/free sequences keep the buddy allocator's
    /// accounting consistent: free + allocated == total at every step.
    #[test]
    fn buddy_accounting_invariant(
        script in prop::collection::vec((1u64..16, prop::bool::ANY), 1..80)
    ) {
        let total = 512u64;
        let alloc = BuddyAllocator::new(0, total);
        let mut live: Vec<Extent> = Vec::new();
        for (size, do_free) in script {
            if do_free && !live.is_empty() {
                let e = live.pop().unwrap();
                alloc.free(e).unwrap();
            } else if let Ok(e) = alloc.allocate(size) {
                live.push(e);
            }
            let s = alloc.stats();
            prop_assert_eq!(s.free_blocks + s.allocated_blocks, total);
        }
    }

    /// Superblock encode/decode round-trips for any valid geometry.
    #[test]
    fn superblock_round_trip(
        blocks in 64u64..1_000_000,
        journal in 0u64..32,
    ) {
        prop_assume!(blocks > journal + 1);
        let sb = Superblock::layout(blocks, 4096, journal).unwrap();
        let mut buf = vec![0u8; Superblock::ENCODED_LEN];
        sb.encode(&mut buf);
        let decoded = Superblock::decode(&buf).unwrap();
        prop_assert_eq!(decoded, sb);
        prop_assert_eq!(sb.data_start + sb.data_blocks, blocks);
    }
}

/// Concurrent allocation from many threads never hands out overlapping
/// extents (checked after the fact by collecting all grants).
#[test]
fn concurrent_buddy_grants_disjoint() {
    let alloc = Arc::new(BuddyAllocator::new(0, 8192));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let alloc = Arc::clone(&alloc);
        handles.push(std::thread::spawn(move || {
            let mut grants = Vec::new();
            for i in 0..64u64 {
                if let Ok(e) = alloc.allocate(i % 5 + 1) {
                    grants.push(e);
                }
            }
            grants
        }));
    }
    let mut all: Vec<Extent> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
        }
    }
}
