//! Object identifiers and their allocator.

use core::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use hfad_storage::shard::{resolve_shard_count, shard_index};

/// A unique object identifier.
///
/// The paper requires only that "the identifier for the data in the OSD
/// layer must be unique"; identifiers are allocated sequentially by the
/// [`ObjectStore`](crate::store::ObjectStore) and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// The raw 64-bit value.
    pub const fn as_u64(&self) -> u64 {
        self.0
    }

    /// Order-preserving 8-byte encoding used as a B-tree key.
    pub fn to_key(&self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decodes an identifier from [`to_key`](Self::to_key) output.
    pub fn from_key(key: &[u8]) -> Option<ObjectId> {
        let arr: [u8; 8] = key.try_into().ok()?;
        Some(ObjectId(u64::from_be_bytes(arr)))
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// Number of ids a shard claims from the global counter at a time.
///
/// Large enough that a busy creator thread touches the shared counter once
/// per 64 creates, small enough that an idle shard strands a negligible
/// id range (ids are 64-bit; stranding can never matter in practice).
pub const OID_RANGE: u64 = 64;

/// One shard's current id range.
struct OidRange {
    next: u64,
    limit: u64,
}

/// A sharded object-id allocator.
///
/// The seed design was a single `AtomicU64`: correct, but a cross-shard
/// hotspot — every concurrent create on the whole store bounced the same
/// cache line, the one piece of state the sharded object table still
/// shared. `OidAllocator` stripes allocation the same way the table is
/// striped: each shard holds a private range of ids and refills it from a
/// global range counter once per [`OID_RANGE`] allocations, so concurrent
/// creators on different shards share nothing on the common path.
///
/// Ids are unique and never reused; ids handed to one caller thread are
/// strictly increasing (a thread sticks to one shard, whose ranges grow
/// monotonically). Ids are *not* globally dense: an idle shard's
/// unconsumed range is simply never used.
pub struct OidAllocator {
    /// Start of the next unclaimed range.
    range_head: AtomicU64,
    shards: Box<[Mutex<OidRange>]>,
}

impl OidAllocator {
    /// Creates an allocator whose first issued id is `first`, striped over
    /// `shards` lock shards (`0` auto-sizes, values round up to a power of
    /// two — the same convention as every other striped structure).
    pub fn new(first: u64, shards: usize) -> Self {
        let shard_count = resolve_shard_count(shards);
        OidAllocator {
            range_head: AtomicU64::new(first),
            shards: (0..shard_count)
                .map(|_| Mutex::new(OidRange { next: 0, limit: 0 }))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    /// Number of allocation shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Allocates the next id from the calling thread's shard.
    pub fn allocate(&self) -> ObjectId {
        // Route by thread identity: a given thread keeps drawing from one
        // shard (ids it sees are monotonic), different threads spread
        // across shards (no shared cache line on the common path).
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        self.allocate_from(shard_index(hasher.finish(), self.shards.len()))
    }

    /// Start of the next unclaimed range: every id this allocator has
    /// handed out — or may still hand out from a shard's already-claimed
    /// range — is strictly below it. A persistent checkpoint records it as
    /// the restart floor so no id is ever reissued after recovery.
    pub fn range_head(&self) -> u64 {
        self.range_head.load(Ordering::Relaxed)
    }

    /// Raises the range head to at least `floor` (never lowers it).
    ///
    /// Used by journal replay on open: a replayed create may carry an id
    /// from a range claimed after the last checkpoint, so the head is
    /// floored above it before the store issues new ids. Only sound while
    /// shard ranges are fresh (`next == limit == 0`), i.e. during open.
    pub fn ensure_floor(&self, floor: u64) {
        self.range_head.fetch_max(floor, Ordering::Relaxed);
    }

    /// Allocates the next id from an explicit shard (tests, benches).
    pub fn allocate_from(&self, shard: usize) -> ObjectId {
        let mut range = self.shards[shard % self.shards.len()].lock();
        if range.next >= range.limit {
            let start = self.range_head.fetch_add(OID_RANGE, Ordering::Relaxed);
            range.next = start;
            range.limit = start + OID_RANGE;
        }
        let id = range.next;
        range.next += 1;
        ObjectId(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_ids_unique_and_thread_monotonic() {
        let alloc = std::sync::Arc::new(OidAllocator::new(1, 4));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let alloc = std::sync::Arc::clone(&alloc);
            handles.push(std::thread::spawn(move || {
                let ids: Vec<u64> = (0..200).map(|_| alloc.allocate().as_u64()).collect();
                // A single thread must observe strictly increasing ids.
                for w in ids.windows(2) {
                    assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
                }
                ids
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "ids must never collide");
        assert!(all.iter().all(|&id| id >= 1), "first id respected");
    }

    #[test]
    fn allocator_refills_ranges_per_shard() {
        let alloc = OidAllocator::new(1, 2);
        assert_eq!(alloc.shard_count(), 2);
        // Drain more than one range from shard 0: ids stay monotonic
        // within the shard even across a refill.
        let ids: Vec<u64> = (0..OID_RANGE * 2 + 5)
            .map(|_| alloc.allocate_from(0).as_u64())
            .collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
        // A second shard draws from a disjoint range.
        let other = alloc.allocate_from(1).as_u64();
        assert!(!ids.contains(&other));
    }

    #[test]
    fn single_shard_allocator_is_dense() {
        let alloc = OidAllocator::new(10, 1);
        let ids: Vec<u64> = (0..100).map(|_| alloc.allocate_from(0).as_u64()).collect();
        assert_eq!(ids, (10..110).collect::<Vec<u64>>());
    }

    #[test]
    fn key_round_trip_preserves_order() {
        let a = ObjectId(3);
        let b = ObjectId(300);
        assert!(a.to_key() < b.to_key());
        assert_eq!(ObjectId::from_key(&a.to_key()), Some(a));
        assert_eq!(ObjectId::from_key(&[1, 2]), None);
    }

    #[test]
    fn display_and_from() {
        let oid: ObjectId = 42u64.into();
        assert_eq!(oid.to_string(), "oid:42");
        assert_eq!(oid.as_u64(), 42);
    }
}
