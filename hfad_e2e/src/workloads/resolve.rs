//! `name-resolve`: two readers resolve names against a fixed set of
//! documents. Each timed operation is a round of three: `path_open`
//! (`lookup_one(POSIX/path)` then a 4 KiB `read`, objects drawn with
//! Zipf 0.9), `lookup` (a `UDEF ∧ USER` conjunction) and `search`
//! (`search_text` of one head term and one long-tail term).
//!
//! Why: the indices, their B-trees and query evaluation do the work. The
//! read set is a few thousand blocks, so it fits the block cache; the
//! journal, fsync and the device do nothing, and a write-path change
//! must not move this workload.

use std::time::Instant;

use hfad_core::TagValue;
use hfad_hierfs::{HierConfig, HierFs};

use super::{
    close_and_reopen, discard_store, long_tail_for, names_resolving, populate, setup_median,
    span_layers, trace_overhead_pct, verify_objects, Ctx, Outcome, Values, CLIENTS,
};
use crate::clients::{
    hash_rounds, plan_rounds, warm_open_set, Expect, Reader, StaticSet, Tally, OPEN_BYTES,
};
use crate::corpus::{DocSource, Shadow};
use crate::stats::Latencies;
use crate::store::Store;
use crate::trace::Tracer;
use crate::Res;

/// Documents in the store.
pub const DOCUMENTS: usize = 4000;

/// Rounds in each reader's list; a reader that finishes it starts over.
pub const ROUNDS: usize = 4096;

/// Share of `--seconds` the readers run untimed before measuring.
const WARM_UP: f64 = 0.05;

/// What the timed region of one or more readers measured.
#[derive(Default)]
pub struct ReaderTotals {
    pub rounds: Latencies,
    pub opens: Latencies,
    pub lookups: Latencies,
    pub searches: Latencies,
    pub reads: u64,
    pub postings: u64,
    pub hits: u64,
}

pub fn take_totals(readers: Vec<Reader>, tally: &mut Tally) -> (ReaderTotals, Vec<Tracer>) {
    let mut totals = ReaderTotals::default();
    let mut tracers = Vec::new();
    for reader in readers {
        totals.rounds.merge(reader.round_ns);
        totals.opens.merge(reader.open_ns);
        totals.lookups.merge(reader.lookup_ns);
        totals.searches.merge(reader.search_ns);
        totals.reads += reader.reads;
        totals.postings += reader.postings;
        totals.hits += reader.hits;
        tally.add(reader.tally);
        tracers.push(reader.tracer);
    }
    (totals, tracers)
}

/// Sets the per-kind and index-ladder layer metrics of a traced run.
pub fn reader_layers(totals: ReaderTotals, layer: &mut Values) {
    layer.insert("api.path_open_p50_us", totals.opens.sorted().p50_us());
    let lookups = totals.lookups.sorted();
    layer.insert("api.lookup_p50_us", lookups.p50_us());
    layer.insert("api.lookup_p99_us", lookups.tail_us().1);
    layer.insert("api.search_p50_us", totals.searches.sorted().p50_us());
    layer.insert(
        "index.postings_per_hit",
        totals.postings as f64 / totals.hits.max(1) as f64,
    );
}

/// The paper's comparison, measured: the same `path_open` list against an
/// in-memory hierarchical file system holding the same documents.
/// Returns the median latency in microseconds.
fn hierfs_reference(set: &StaticSet, reader: &Reader, budget: std::time::Duration) -> Res<f64> {
    let hier = HierFs::in_memory(256 << 20, HierConfig::default())?;
    for (doc, content) in set.shadow.docs.iter().zip(&set.contents) {
        if let Some((dir, _)) = doc.path.rsplit_once('/') {
            hier.mkdir_all(dir)?;
        }
        hier.create_file(&doc.path)?;
        hier.write(&doc.path, 0, content)?;
    }
    let mut latencies = Latencies::default();
    let deadline = Instant::now() + budget;
    for (path, doc) in reader.open_paths() {
        let start = Instant::now();
        let data = hier.read(path, 0, OPEN_BYTES)?;
        latencies.push(start.elapsed().as_nanos() as u64);
        let want = &set.contents[doc];
        if data != want[..want.len().min(OPEN_BYTES as usize)] {
            return Err(format!("hierarchical reference returned wrong bytes for {path}").into());
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    Ok(latencies.sorted().p50_us())
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let documents = ctx.scaled(DOCUMENTS, 4 * CLIENTS);
    let rounds = ctx.scaled(ROUNDS, 64);
    let source = DocSource::new(ctx.seed, long_tail_for(documents));
    let ((store, oids), setup_s) = setup_median(
        ctx,
        |path| {
            let store = Store::create(path)?;
            let oids = populate(&store, &source, 0, documents)?;
            store.fs.sync_index();
            Ok((store, oids))
        },
        |(store, _)| discard_store(store),
    )?;
    let set = StaticSet::new(Shadow::new(&source, documents), oids);
    let plans: Vec<_> = (0..CLIENTS as u64)
        .map(|client| plan_rounds(ctx.seed, client, &source, &set.shadow, rounds))
        .collect();
    let mut readers: Vec<Reader> = plans
        .iter()
        .map(|plan| Reader::new(&store, &set, plan, Expect::Exact))
        .collect();

    // Untimed: caches fill before measuring. Answers are still checked.
    warm_open_set(&store, &set, ctx.seed)?;
    let warm_until = Instant::now() + ctx.duration(WARM_UP);
    std::thread::scope(|scope| {
        for reader in &mut readers {
            scope.spawn(move || reader.run_until(warm_until));
        }
    });

    let origin = Instant::now();
    for (k, reader) in readers.iter_mut().enumerate() {
        reader.start_measuring(Tracer::new(ctx.trace, origin, k as u64));
    }
    let before = store.device_counters();
    let deadline = origin + ctx.duration(1.0);
    std::thread::scope(|scope| {
        for reader in &mut readers {
            scope.spawn(move || reader.run_until(deadline));
        }
    });
    let elapsed = origin.elapsed();
    let device = store.device_counters().delta_since(&before);

    let mut outcome = Outcome::default();
    let hierfs_p50 = if ctx.trace {
        Some(hierfs_reference(&set, &readers[0], ctx.duration(0.05))?)
    } else {
        None
    };
    let (totals, tracers) = take_totals(readers, &mut outcome.tally);
    let round_latencies = totals.rounds.clone().sorted();
    outcome.e2e.insert(
        "ops_s",
        round_latencies.len() as f64 / elapsed.as_secs_f64(),
    );
    outcome.e2e.insert("setup_s", setup_s);
    outcome.set_latency(&round_latencies);
    outcome.note("documents", documents);
    outcome.note("timed_rounds", round_latencies.len());
    outcome.index_keys = set.shadow.tag_postings();
    outcome.note("kv_index_keys", outcome.index_keys);
    outcome.note(
        "input_hash",
        format!("{:#018x}", hash_rounds(plans.iter().flatten())),
    );

    if ctx.trace {
        let (layers, ladder_ns) = Tracer::collect(tracers);
        span_layers(&layers, &mut outcome.layer);
        let layer = &mut outcome.layer;
        layer.insert(
            "device.reads_per_read_op",
            device.reads as f64 / totals.reads.max(1) as f64,
        );
        reader_layers(totals, layer);
        layer.insert("ref.hierfs_path_open_p50_us", hierfs_p50.unwrap_or(0.0));
        layer.insert("osd.checkpoint_ms", store.checkpoint()?.as_secs_f64() * 1e3);
        layer.insert(
            "trace_overhead_pct",
            trace_overhead_pct(ladder_ns, CLIENTS, elapsed),
        );
    }

    let store = close_and_reopen(store, set.live_bytes(), &mut outcome)?;
    verify_objects(
        &store,
        set.oids.iter().copied().zip(set.contents.iter().cloned()),
        std::iter::empty(),
        &mut outcome.tally,
    );
    let paths: Vec<&TagValue> = set.shadow.docs.iter().map(|d| &d.tags[0]).collect();
    let ratio = names_resolving(&store, paths.into_iter().zip(set.oids.iter().copied()));
    outcome.layer.insert("core.names_after_reopen_ratio", ratio);
    outcome.note("names_after_reopen_ratio", ratio);
    store.close();
    Ok(outcome)
}
