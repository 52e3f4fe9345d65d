//! E6: implementation ablations — allocator choice and extent size.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfad_bench::setup::{build_sharded_store, store_churn_op};
use hfad_osd::{AllocatorKind, ObjectStore, StoreConfig};
use hfad_storage::MemDevice;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_ablation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(900));
    let body = vec![0x42u8; 64 * 1024];

    for kind in [AllocatorKind::Buddy, AllocatorKind::Bump] {
        group.bench_with_input(
            BenchmarkId::new("alloc_write_delete", format!("{kind:?}")),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    let device = Arc::new(MemDevice::with_capacity(64 * 1024 * 1024));
                    let store = ObjectStore::create(
                        device,
                        StoreConfig {
                            allocator: kind,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                    for i in 0..20 {
                        let oid = store.create_default(0).unwrap();
                        store.write(oid, 0, &body).unwrap();
                        if i % 2 == 1 {
                            store.delete(oid).unwrap();
                        }
                    }
                })
            },
        );
    }

    // Store lock shards: multi-thread create/open churn against the
    // single-shard (global-lock) baseline vs a striped store.
    for shards in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("store_shards_create_open", shards),
            &shards,
            |b, &shards| {
                let (store, pool) = build_sharded_store(shards, 128);
                b.iter(|| {
                    let handles: Vec<_> = (0..4usize)
                        .map(|t| {
                            let store = Arc::clone(&store);
                            let pool = Arc::clone(&pool);
                            std::thread::spawn(move || {
                                for i in 0..50usize {
                                    store_churn_op(&store, &pool, t, i);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().unwrap();
                    }
                })
            },
        );
    }

    for extent_kib in [16u64, 256] {
        group.bench_with_input(
            BenchmarkId::new("extent_size_write", extent_kib),
            &extent_kib,
            |b, &extent_kib| {
                let device = Arc::new(MemDevice::with_capacity(128 * 1024 * 1024));
                let config = StoreConfig {
                    max_extent_bytes: extent_kib * 1024,
                    ..Default::default()
                };
                let store = ObjectStore::create(device, config).unwrap();
                let oid = store.create_default(0).unwrap();
                b.iter(|| store.write(oid, 0, &body).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
