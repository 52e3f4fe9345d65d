//! E10: the background-job engine — cold sequential scan with engine
//! read-ahead off vs on, and ingest-call latency with eager inline
//! indexing vs lazy indexing on the engine's Index class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfad_bench::experiments::{e10_cold_scan, e10_query_during_ingest};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_async_engine");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(900));

    let blocks = 128u64;
    for (label, engine_on) in [("scan_engine_off", false), ("scan_engine_on", true)] {
        group.bench_with_input(
            BenchmarkId::new(label, blocks),
            &engine_on,
            |b, &engine_on| b.iter(|| e10_cold_scan(blocks, engine_on)),
        );
    }

    let docs = 150usize;
    for (label, engine_on) in [("ingest_eager", false), ("ingest_lazy_engine", true)] {
        group.bench_with_input(
            BenchmarkId::new(label, docs),
            &engine_on,
            |b, &engine_on| b.iter(|| e10_query_during_ingest(docs, engine_on)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
