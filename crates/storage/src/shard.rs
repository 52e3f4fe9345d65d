//! Lock-striping arithmetic shared by every sharded structure in the
//! workspace.
//!
//! The paper's concurrency argument (§2.3) is that unrelated operations
//! should share no locks. Several layers realise that with lock striping —
//! the OSD's object table and open-object map, the block cache's frame
//! table, the B+tree's decoded-node cache — and they must all agree on how
//! a requested shard count resolves and how a 64-bit key routes to a
//! shard, so that ablation experiments sweep one convention, not three.
//! This module is that single convention.

/// Upper bound on the number of shards any striped structure will create.
///
/// Shards cost memory (a lock, a map, spare frame capacity each), so the
/// count is capped to keep even an aggressive override bounded on very
/// wide machines.
pub const MAX_SHARDS: usize = 1 << 12;

/// Resolves a configured shard-count request to the actual count used.
///
/// `0` (the conventional config default) asks for auto-sizing: the next
/// power of two at or above the machine's available parallelism. Any
/// explicit request is rounded up to a power of two so a cheap mask can
/// route keys. The result is always in `1..=`[`MAX_SHARDS`].
pub fn resolve_shard_count(requested: usize) -> usize {
    let wanted = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    wanted.clamp(1, MAX_SHARDS).next_power_of_two()
}

/// Routes a 64-bit key to a shard in `0..shard_count`.
///
/// `shard_count` must be a power of two. Keys are often dense sequential
/// ranges (OIDs, block numbers, page numbers), so the key is first
/// diffused with a Fibonacci-hash multiply and the shard is taken from the
/// high bits, spreading dense ranges uniformly across shards.
#[inline]
pub fn shard_index(key: u64, shard_count: usize) -> usize {
    debug_assert!(shard_count.is_power_of_two());
    let diffused = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((diffused >> 48) as usize) & (shard_count - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_auto_is_power_of_two_and_covers_parallelism() {
        let n = resolve_shard_count(0);
        assert!(n.is_power_of_two());
        let parallelism = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert!(n >= parallelism.min(MAX_SHARDS));
    }

    #[test]
    fn resolve_rounds_up_and_clamps() {
        assert_eq!(resolve_shard_count(1), 1);
        assert_eq!(resolve_shard_count(3), 4);
        assert_eq!(resolve_shard_count(16), 16);
        assert_eq!(resolve_shard_count(usize::MAX), MAX_SHARDS);
    }

    #[test]
    fn routing_is_in_bounds_and_deterministic() {
        for count in [1usize, 2, 8, 64] {
            for key in 0..1000u64 {
                let idx = shard_index(key, count);
                assert!(idx < count);
                assert_eq!(idx, shard_index(key, count));
            }
        }
    }

    #[test]
    fn sequential_keys_spread_across_shards() {
        let count = 8;
        let mut hit = vec![0usize; count];
        for key in 0..1024u64 {
            hit[shard_index(key, count)] += 1;
        }
        // Fibonacci hashing must not leave any shard starved for a dense
        // sequential key range (OIDs, block numbers).
        for (i, &h) in hit.iter().enumerate() {
            assert!(h > 0, "shard {i} never hit");
        }
    }
}
