//! `mixed-churn`: one `ingest-durable` writer and one `name-resolve`
//! reader on the same store. The reader's targets are pinned base
//! documents; the writer turns a retention window over beside them. The
//! reader loops its round list until the writer's time is up.
//! `ops_s` is the writer's ingest-and-retire pairs per second; `p50_us`
//! and `p99_us` are the reader's round latency.
//!
//! Why: the same index, cache and engine layers serve writes beside
//! reads, so a read gain bought with writer cost, or a checkpoint stall
//! that lands on readers, shows.

use std::time::Instant;

use hfad_core::{ObjectId, TagValue};

use super::ingest::{self, check_names, live_bytes, live_objects};
use super::resolve::{self, reader_layers};
use super::{
    close_and_reopen, discard_store, long_tail_for, names_resolving, populate, setup_median,
    span_layers, trace_overhead_pct, verify_objects, Ctx, Outcome,
};
use crate::clients::{hash_rounds, plan_rounds, warm_open_set, Expect, Reader, StaticSet, Writer};
use crate::corpus::{DocSource, Shadow};
use crate::rng::mix;
use crate::store::Store;
use crate::trace::Tracer;
use crate::Res;

/// Pinned documents the reader resolves.
pub const PINNED: usize = 2000;

/// Live documents in the writer's window.
pub const WINDOW: usize = 1000;

/// Rounds in the reader's list.
pub const ROUNDS: usize = 4096;

struct Setup {
    store: Store,
    pinned: Vec<ObjectId>,
    writer: Writer,
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let pinned = ctx.scaled(PINNED, 8);
    let window = ctx.scaled(WINDOW, 4);
    let rounds = ctx.scaled(ROUNDS, 64);
    let source = DocSource::new(ctx.seed, long_tail_for(pinned + window));
    let (setup, setup_s) = setup_median(
        ctx,
        |path| {
            let store = Store::create(path)?;
            let pinned_oids = populate(&store, &source, 0, pinned)?;
            // The writer's documents follow the pinned ones.
            let mut writer = Writer::new(pinned as u64, 1);
            writer.fill(&store, &source, window)?;
            store.fs.sync_index();
            Ok(Setup {
                store,
                pinned: pinned_oids,
                writer,
            })
        },
        |setup| discard_store(setup.store),
    )?;
    let Setup {
        store,
        pinned: pinned_oids,
        writer,
    } = setup;
    let set = StaticSet::new(Shadow::new(&source, pinned), pinned_oids);
    let plan = plan_rounds(ctx.seed, 0, &source, &set.shadow, rounds);
    let mut reader = Reader::new(&store, &set, &plan, Expect::Superset);
    let mut writers = [writer];
    warm_open_set(&store, &set, ctx.seed)?;

    let origin = Instant::now();
    writers[0].tracer = Tracer::new(ctx.trace, origin, 0);
    reader.start_measuring(Tracer::new(ctx.trace, origin, 1));
    let before = store.device_counters();
    let deadline = origin + ctx.duration(1.0);
    std::thread::scope(|scope| {
        let (store, source, writer) = (&store, &source, &mut writers[0]);
        scope.spawn(move || writer.run_until(store, source, deadline));
        let reader = &mut reader;
        scope.spawn(move || reader.run_until(deadline));
    });
    let drain_start = Instant::now();
    store.fs.sync_index();
    let drain_s = drain_start.elapsed().as_secs_f64();
    let elapsed = origin.elapsed();
    let device = store.device_counters().delta_since(&before);

    let mut outcome = Outcome::default();
    let written = ingest::take_totals(&mut writers, &mut outcome.tally);
    let (read, mut tracers) = resolve::take_totals(vec![reader], &mut outcome.tally);
    let pairs = written.pairs.len();
    let round_latencies = read.rounds.clone().sorted();
    outcome
        .e2e
        .insert("ops_s", pairs as f64 / elapsed.as_secs_f64());
    outcome.e2e.insert("setup_s", setup_s);
    outcome.set_latency(&round_latencies);
    outcome.index_keys = set.shadow.tag_postings();
    outcome.note("pinned_objects", pinned);
    outcome.note("window_objects", window);
    outcome.note("timed_pairs", pairs);
    outcome.note("timed_rounds", round_latencies.len());
    outcome.note("index_drain_s", drain_s);
    let inputs = mix(source.hash((pinned + window) as u64), hash_rounds(&plan));
    outcome.note("input_hash", format!("{inputs:#018x}"));

    if ctx.trace {
        tracers.push(std::mem::take(&mut writers[0].tracer));
        let (layers, ladder_ns) = Tracer::collect(tracers);
        span_layers(&layers, &mut outcome.layer);
        let layer = &mut outcome.layer;
        layer.insert("api.ingest_p50_us", written.ingests.sorted().p50_us());
        layer.insert("api.retire_p50_us", written.retires.sorted().p50_us());
        layer.insert("index.drain_s", drain_s);
        layer.insert(
            "device.flushes_per_commit",
            device.flushes as f64 / written.commits.max(1) as f64,
        );
        layer.insert(
            "device.write_amp",
            device.writes as f64 * 4096.0 / written.bytes.max(1) as f64,
        );
        layer.insert(
            "device.reads_per_read_op",
            device.reads as f64 / read.reads.max(1) as f64,
        );
        reader_layers(read, layer);
        layer.insert("osd.checkpoint_ms", store.checkpoint()?.as_secs_f64() * 1e3);
        // The ladder runs on the reader's thread only.
        layer.insert(
            "trace_overhead_pct",
            trace_overhead_pct(ladder_ns, 1, elapsed),
        );
    }

    check_names(&store, &writers, &source, &mut outcome.tally);
    let live = set.live_bytes() + live_bytes(&writers, &source);
    let store = close_and_reopen(store, live, &mut outcome)?;
    verify_objects(
        &store,
        set.oids
            .iter()
            .copied()
            .zip(set.contents.iter().cloned())
            .chain(live_objects(&writers, &source)),
        writers[0].retired.iter().map(|&(oid, _)| oid),
        &mut outcome.tally,
    );
    let paths: Vec<&TagValue> = set.shadow.docs.iter().map(|d| &d.tags[0]).collect();
    let ratio = names_resolving(&store, paths.into_iter().zip(set.oids.iter().copied()));
    outcome.layer.insert("core.names_after_reopen_ratio", ratio);
    outcome.note("names_after_reopen_ratio", ratio);
    store.close();
    Ok(outcome)
}
