//! Lock-striped sharding primitives for the OSD hot path.
//!
//! The paper's core concurrency argument (§2.3, §3.3) is that an object
//! store frees unrelated operations from synchronising on shared namespace
//! state. A single global lock in front of the object table would quietly
//! reintroduce exactly the bottleneck the paper removes, so the store
//! stripes its hot-path state — the open-object map and the object table —
//! across [`resolve_shard_count`](hfad_storage::shard::resolve_shard_count)
//! independent shards routed by a hash of the
//! [`ObjectId`](crate::oid::ObjectId). Operations on objects in different
//! shards never touch the same lock.
//!
//! [`ShardedMap`] is the generic lock-striped map used for the open-object
//! cache; the striped object-table B-trees live in
//! [`store`](crate::store) and reuse the same [`shard_index`] so that, for
//! a given object, the map shard and the table shard are always aligned.

use std::collections::HashMap;

use parking_lot::Mutex;

use hfad_storage::shard::{shard_index, MAX_SHARDS};

/// A lock-striped hash map keyed by `u64`.
///
/// The map is split into a power-of-two number of independent
/// `Mutex<HashMap>` shards; an operation locks only the shard its key
/// routes to, so operations on keys in different shards proceed in
/// parallel. With a shard count of 1 this degenerates to the classic
/// single global `Mutex<HashMap>` (the configuration the E2/E6 ablations
/// use as the contention baseline).
pub struct ShardedMap<V> {
    shards: Box<[Mutex<HashMap<u64, V>>]>,
}

impl<V> ShardedMap<V> {
    /// Creates a map striped over `shard_count` shards (a power of two, as
    /// produced by [`resolve_shard_count`](hfad_storage::shard::resolve_shard_count)).
    pub fn new(shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two() && shard_count <= MAX_SHARDS,
            "shard count {shard_count} must be a power of two ≤ {MAX_SHARDS}"
        );
        let shards = (0..shard_count)
            .map(|_| Mutex::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedMap { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        shard_index(key, self.shards.len())
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, V>> {
        &self.shards[self.shard_of(key)]
    }

    /// Inserts `value` under `key`, returning the previous value, if any.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.shard(key).lock().insert(key, value)
    }

    /// Removes and returns the value under `key`, if any.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.shard(key).lock().remove(&key)
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.shard(key).lock().contains_key(&key)
    }

    /// Total number of entries (sums per-shard sizes; a snapshot, not a
    /// consistent point-in-time count under concurrent mutation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Returns `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().is_empty())
    }

    /// Locks and returns the shard `key` routes to, for callers that must
    /// perform a multi-step read-modify-write atomically with respect to
    /// every other operation on keys in the same shard (e.g. the store's
    /// delete path, which must keep the shard locked while it also updates
    /// the table so a concurrent open cannot resurrect the entry).
    pub fn lock_shard(&self, key: u64) -> parking_lot::MutexGuard<'_, HashMap<u64, V>> {
        self.shard(key).lock()
    }
}

impl<V: Clone> ShardedMap<V> {
    /// Returns a clone of the value under `key`, if any.
    pub fn get(&self, key: u64) -> Option<V> {
        self.shard(key).lock().get(&key).cloned()
    }

    /// Returns the value under `key`, inserting the result of `load` first
    /// if absent.
    ///
    /// The shard lock is held across `load`, so concurrent callers for the
    /// same key observe exactly one load — the invariant the open-object
    /// cache relies on to never materialise two handles for one object.
    /// Only the one shard is locked: loads for keys in other shards
    /// proceed concurrently (under a single global map lock they would
    /// serialise behind the load's I/O).
    pub fn get_or_try_insert_with<E>(
        &self,
        key: u64,
        load: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut shard = self.shard(key).lock();
        if let Some(existing) = shard.get(&key) {
            return Ok(existing.clone());
        }
        let value = load()?;
        shard.insert(key, value.clone());
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_operations() {
        let map: ShardedMap<String> = ShardedMap::new(4);
        assert!(map.is_empty());
        assert_eq!(map.insert(7, "seven".into()), None);
        assert_eq!(map.insert(7, "VII".into()), Some("seven".into()));
        assert_eq!(map.get(7), Some("VII".into()));
        assert!(map.contains(7));
        assert_eq!(map.len(), 1);
        assert_eq!(map.remove(7), Some("VII".into()));
        assert!(map.get(7).is_none());
        assert!(map.is_empty());
    }

    #[test]
    fn get_or_try_insert_loads_once() {
        let map: ShardedMap<u32> = ShardedMap::new(2);
        let loaded: u32 = map.get_or_try_insert_with(1, || Ok::<_, ()>(41)).unwrap();
        assert_eq!(loaded, 41);
        // Second call must return the cached value, not re-load.
        let cached: u32 = map
            .get_or_try_insert_with(1, || -> Result<u32, ()> { panic!("value already cached") })
            .unwrap();
        assert_eq!(cached, 41);
        // A failed load caches nothing.
        assert_eq!(map.get_or_try_insert_with(2, || Err("boom")), Err("boom"));
        assert!(!map.contains(2));
    }
}
