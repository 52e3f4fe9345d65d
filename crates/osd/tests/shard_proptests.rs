//! Property-based tests for the OSD sharding layer: a [`ShardedMap`] at any
//! shard count behaves exactly like a single `HashMap` model, and a sharded
//! [`ObjectStore`] at any shard count behaves exactly like a
//! `HashMap<oid, Vec<u8>>` model under interleaved create/write/delete.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use hfad_osd::{ObjectId, ObjectStore, ShardedMap, StoreConfig};
use hfad_storage::shard::shard_index;
use hfad_storage::MemDevice;

/// Operations applied to both the sharded map and the model.
#[derive(Debug, Clone)]
enum MapOp {
    Insert { key: u8, value: u32 },
    Remove { key: u8 },
    Get { key: u8 },
    GetOrLoad { key: u8, value: u32 },
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(key, value)| MapOp::Insert { key, value }),
        any::<u8>().prop_map(|key| MapOp::Remove { key }),
        any::<u8>().prop_map(|key| MapOp::Get { key }),
        (any::<u8>(), any::<u32>()).prop_map(|(key, value)| MapOp::GetOrLoad { key, value }),
    ]
}

/// Store lifecycle operations; indices select among the live oids.
#[derive(Debug, Clone)]
enum StoreOp {
    Create { payload: Vec<u8> },
    Delete { pick: u8 },
    Rewrite { pick: u8, payload: Vec<u8> },
    Read { pick: u8 },
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    let payload = prop::collection::vec(any::<u8>(), 1..64);
    prop_oneof![
        payload
            .clone()
            .prop_map(|payload| StoreOp::Create { payload }),
        any::<u8>().prop_map(|pick| StoreOp::Delete { pick }),
        (any::<u8>(), payload).prop_map(|(pick, payload)| StoreOp::Rewrite { pick, payload }),
        any::<u8>().prop_map(|pick| StoreOp::Read { pick }),
    ]
}

fn store_with_shards(shards: usize) -> ObjectStore {
    let device = Arc::new(MemDevice::with_capacity(16 * 1024 * 1024));
    ObjectStore::create(
        device,
        StoreConfig {
            shards,
            ..Default::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The sharded map agrees with a plain `HashMap` model at every shard
    /// count, including the degenerate single-shard configuration.
    #[test]
    fn sharded_map_matches_hashmap_model(
        ops in prop::collection::vec(map_op(), 1..80),
        shards in prop_oneof![Just(1usize), Just(2), Just(8), Just(32)],
    ) {
        let map: ShardedMap<u32> = ShardedMap::new(shards);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert { key, value } => {
                    prop_assert_eq!(map.insert(key as u64, value), model.insert(key as u64, value));
                }
                MapOp::Remove { key } => {
                    prop_assert_eq!(map.remove(key as u64), model.remove(&(key as u64)));
                }
                MapOp::Get { key } => {
                    prop_assert_eq!(map.get(key as u64), model.get(&(key as u64)).copied());
                }
                MapOp::GetOrLoad { key, value } => {
                    let got = map
                        .get_or_try_insert_with(key as u64, || Ok::<_, ()>(value))
                        .unwrap();
                    let want = *model.entry(key as u64).or_insert(value);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
    }

    /// Routing is stable and total: every key lands in exactly one shard,
    /// the same one every time, for every power-of-two shard count.
    #[test]
    fn shard_routing_is_stable(keys in prop::collection::vec(any::<u64>(), 1..100)) {
        for shards in [1usize, 2, 4, 16, 256] {
            for &key in &keys {
                let idx = shard_index(key, shards);
                prop_assert!(idx < shards);
                prop_assert_eq!(idx, shard_index(key, shards));
            }
        }
    }

    /// A sharded store behaves exactly like a `HashMap<oid, bytes>` model
    /// under interleaved create/write/delete/read, at every shard count.
    #[test]
    fn sharded_store_matches_model(
        ops in prop::collection::vec(store_op(), 1..40),
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
    ) {
        let store = store_with_shards(shards);
        let mut model: HashMap<ObjectId, Vec<u8>> = HashMap::new();
        let mut live: Vec<ObjectId> = Vec::new();
        for op in ops {
            match op {
                StoreOp::Create { payload } => {
                    let oid = store.create_default(0).unwrap();
                    store.write(oid, 0, &payload).unwrap();
                    model.insert(oid, payload);
                    live.push(oid);
                }
                StoreOp::Delete { pick } => {
                    if live.is_empty() { continue; }
                    let oid = live.remove(pick as usize % live.len());
                    store.delete(oid).unwrap();
                    model.remove(&oid);
                    prop_assert!(store.read(oid, 0, 1).is_err());
                }
                StoreOp::Rewrite { pick, payload } => {
                    if live.is_empty() { continue; }
                    let oid = live[pick as usize % live.len()];
                    store.truncate(oid, 0).unwrap();
                    store.write(oid, 0, &payload).unwrap();
                    model.insert(oid, payload);
                }
                StoreOp::Read { pick } => {
                    if live.is_empty() { continue; }
                    let oid = live[pick as usize % live.len()];
                    prop_assert_eq!(&store.read(oid, 0, 4096).unwrap(), &model[&oid]);
                }
            }
            prop_assert_eq!(store.object_count(), model.len() as u64);
        }
        // Final sweep: every surviving object readable, list matches model.
        let mut expected: Vec<ObjectId> = model.keys().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(store.list().unwrap(), expected);
        for (oid, payload) in &model {
            prop_assert_eq!(&store.read(*oid, 0, 4096).unwrap(), payload);
        }
    }
}

/// Multi-thread smoke test: concurrent inserts/removes on a [`ShardedMap`]
/// with overlapping key ranges leave exactly the surviving keys.
#[test]
fn sharded_map_concurrent_churn() {
    let map: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::new(8));
    let threads = 8u64;
    let per_thread = 500u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let key = t * per_thread + i;
                map.insert(key, key * 2);
                if i % 2 == 0 {
                    assert_eq!(map.remove(key), Some(key * 2));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(map.len() as u64, threads * per_thread / 2);
    for t in 0..threads {
        for i in 0..per_thread {
            let key = t * per_thread + i;
            assert_eq!(map.get(key), (i % 2 == 1).then_some(key * 2));
        }
    }
}

/// Multi-thread smoke test: `get_or_try_insert_with` races resolve to a
/// single cached value per key.
#[test]
fn sharded_map_concurrent_load_once() {
    let map: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::new(4));
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let map = Arc::clone(&map);
        handles.push(std::thread::spawn(move || {
            let mut seen = Vec::new();
            for key in 0..64u64 {
                seen.push(map.get_or_try_insert_with(key, || Ok::<_, ()>(t)).unwrap());
            }
            seen
        }));
    }
    let results: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Whoever won the race per key, every thread must have observed the
    // same winner.
    for key in 0..64usize {
        let winner = results[0][key];
        for r in &results {
            assert_eq!(r[key], winner, "key {key} loaded twice");
        }
    }
}
