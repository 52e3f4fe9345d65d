//! `ingest-durable`: two writers keep a retention window of documents
//! turning over. Each timed operation is an ingest-and-retire pair: an
//! fsync-acknowledged transaction (create + write), `add_tags`,
//! `index_content`, then `delete` of the writer's oldest document.
//!
//! Why: the write path — journal, group commit, fsync, the checkpointer
//! cycling many times, buddy reuse, index insert and remove — does
//! nearly all the work; query code does none.
//!
//! The run ends with a crash phase: a child process commits a tail of
//! objects and leaves without closing; the parent recovers the store and
//! looks for every acknowledged object.

use std::process::Command;
use std::time::Instant;

use hfad_core::{ObjectId, TagValue};

use super::{
    close_and_reopen, discard_store, long_tail_for, names_resolving, setup_median, span_layers,
    trace_overhead_pct, verify_objects, Ctx, Outcome, CLIENTS,
};
use crate::clients::{Tally, Writer};
use crate::corpus::DocSource;
use crate::stats::Latencies;
use crate::store::Store;
use crate::trace::Tracer;
use crate::Res;

/// Live documents across all writers.
pub const WINDOW: usize = 3000;

/// Objects the crash phase's child commits.
pub const CRASH_TAIL: usize = 200;

/// What the timed region of one or more writers measured.
#[derive(Default)]
pub struct WriterTotals {
    pub pairs: Latencies,
    pub ingests: Latencies,
    pub retires: Latencies,
    pub bytes: u64,
    pub commits: u64,
}

/// Merges the writers' measurements, leaving their windows in place.
pub fn take_totals(writers: &mut [Writer], tally: &mut Tally) -> WriterTotals {
    let mut totals = WriterTotals::default();
    for writer in writers {
        totals.pairs.merge(std::mem::take(&mut writer.pair_ns));
        totals.ingests.merge(std::mem::take(&mut writer.ingest_ns));
        totals.retires.merge(std::mem::take(&mut writer.retire_ns));
        totals.bytes += writer.bytes;
        totals.commits += writer.commits;
        tally.add(writer.tally);
    }
    totals
}

/// The live documents of `writers`, as `(object, content)`.
pub fn live_objects<'a>(
    writers: &'a [Writer],
    source: &'a DocSource,
) -> impl Iterator<Item = (ObjectId, Vec<u8>)> + 'a {
    writers
        .iter()
        .flat_map(|w| w.window.iter())
        .map(|&(oid, index)| (oid, source.doc(index).content()))
}

pub fn live_bytes(writers: &[Writer], source: &DocSource) -> u64 {
    writers
        .iter()
        .flat_map(|w| w.window.iter())
        .map(|&(_, index)| source.doc(index).size as u64)
        .sum()
}

/// Before the close: every live document's path resolves to its object,
/// and recently retired paths resolve to nothing.
pub fn check_names(store: &Store, writers: &[Writer], source: &DocSource, tally: &mut Tally) {
    for &(oid, index) in writers.iter().flat_map(|w| w.window.iter()) {
        let path = TagValue::posix(source.doc(index).path);
        tally.check(match store.fs.lookup(std::slice::from_ref(&path)) {
            Ok(hits) if hits == [oid] => None,
            Ok(hits) => Some(format!("{path} names {} objects, not its own", hits.len())),
            Err(e) => Some(format!("{path}: {e}")),
        });
    }
    for writer in writers {
        for &(_, index) in writer.retired.iter().rev().take(100) {
            let path = TagValue::posix(source.doc(index).path);
            tally.check(match store.fs.lookup(std::slice::from_ref(&path)) {
                Ok(hits) if hits.is_empty() => None,
                Ok(_) => Some(format!("{path} still names a retired object")),
                Err(e) => Some(format!("{path}: {e}")),
            });
        }
    }
}

struct Setup {
    store: Store,
    writers: Vec<Writer>,
}

/// Creates a store and fills every writer's share of the window.
fn fill(path: &std::path::Path, source: &DocSource, window: usize) -> Res<Setup> {
    let store = Store::create(path)?;
    let mut writers: Vec<Writer> = (0..CLIENTS)
        .map(|k| Writer::new(k as u64, CLIENTS as u64))
        .collect();
    std::thread::scope(|scope| {
        let store = &store;
        let handles: Vec<_> = writers
            .iter_mut()
            .map(|writer| scope.spawn(move || writer.fill(store, source, window / CLIENTS)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("writer panicked"))
    })?;
    store.fs.sync_index();
    Ok(Setup { store, writers })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let window = ctx.scaled(WINDOW, 4 * CLIENTS);
    let source = DocSource::new(ctx.seed, long_tail_for(window));
    let (Setup { store, mut writers }, setup_s) = setup_median(
        ctx,
        |path| fill(path, &source, window),
        |setup| discard_store(setup.store),
    )?;

    let origin = Instant::now();
    for (k, writer) in writers.iter_mut().enumerate() {
        writer.tracer = Tracer::new(ctx.trace, origin, k as u64);
    }
    let before = store.device_counters();
    let deadline = origin + ctx.duration(1.0);
    std::thread::scope(|scope| {
        for writer in &mut writers {
            let (store, source) = (&store, &source);
            scope.spawn(move || writer.run_until(store, source, deadline));
        }
    });
    // Inside the timed region, so lazy indexing cannot hide work.
    let drain_start = Instant::now();
    store.fs.sync_index();
    let drain_s = drain_start.elapsed().as_secs_f64();
    let elapsed = origin.elapsed();
    let device = store.device_counters().delta_since(&before);

    let mut outcome = Outcome::default();
    let totals = take_totals(&mut writers, &mut outcome.tally);
    let pairs = totals.pairs.sorted();
    outcome
        .e2e
        .insert("ops_s", pairs.len() as f64 / elapsed.as_secs_f64());
    outcome.e2e.insert("setup_s", setup_s);
    outcome.set_latency(&pairs);
    outcome.note("window_objects", window);
    outcome.note("timed_pairs", pairs.len());
    outcome.note(
        "input_hash",
        format!("{:#018x}", source.hash(window as u64)),
    );
    outcome.note("index_drain_s", drain_s);

    if ctx.trace {
        let tracers = writers.iter_mut().map(|w| std::mem::take(&mut w.tracer));
        let (layers, ladder_ns) = Tracer::collect(tracers);
        span_layers(&layers, &mut outcome.layer);
        let layer = &mut outcome.layer;
        layer.insert("api.ingest_p50_us", totals.ingests.sorted().p50_us());
        layer.insert("api.retire_p50_us", totals.retires.sorted().p50_us());
        layer.insert("index.drain_s", drain_s);
        layer.insert(
            "device.flushes_per_commit",
            device.flushes as f64 / totals.commits.max(1) as f64,
        );
        layer.insert(
            "device.write_amp",
            device.writes as f64 * 4096.0 / totals.bytes.max(1) as f64,
        );
        layer.insert("osd.checkpoint_ms", store.checkpoint()?.as_secs_f64() * 1e3);
        layer.insert(
            "trace_overhead_pct",
            trace_overhead_pct(ladder_ns, CLIENTS, elapsed),
        );
    }

    check_names(&store, &writers, &source, &mut outcome.tally);
    let store = close_and_reopen(store, live_bytes(&writers, &source), &mut outcome)?;
    verify_objects(
        &store,
        live_objects(&writers, &source),
        writers
            .iter()
            .flat_map(|w| w.retired.iter().map(|&(oid, _)| oid)),
        &mut outcome.tally,
    );
    let paths: Vec<(TagValue, ObjectId)> = writers
        .iter()
        .flat_map(|w| w.window.iter())
        .map(|&(oid, index)| (TagValue::posix(source.doc(index).path), oid))
        .collect();
    let ratio = names_resolving(&store, paths.iter().map(|(p, o)| (p, *o)));
    outcome.layer.insert("core.names_after_reopen_ratio", ratio);
    outcome.note("names_after_reopen_ratio", ratio);

    crash_phase(ctx, store, &writers, &source, &mut outcome)?;
    Ok(outcome)
}

/// Re-executes the benchmark as a child that commits [`CRASH_TAIL`]
/// objects to the store and leaves without closing it, then recovers the
/// store and looks for every object the child reported acknowledged.
fn crash_phase(
    ctx: &Ctx,
    store: Store,
    writers: &[Writer],
    source: &DocSource,
    outcome: &mut Outcome,
) -> Res<()> {
    let path = store.path().to_path_buf();
    store.close();
    let first = writers.iter().map(Writer::next_index).max().unwrap_or(0);
    let tail = ctx.scaled(CRASH_TAIL, 8);
    let child = Command::new(&ctx.exe)
        .arg("crash-child")
        .arg("--store")
        .arg(&path)
        .args(["--seed", &ctx.seed.to_string()])
        .args([
            "--long-tail",
            &long_tail_for(ctx.scaled(WINDOW, 4 * CLIENTS)).to_string(),
        ])
        .args(["--first", &first.to_string()])
        .args(["--count", &tail.to_string()])
        .output()?;
    if !child.status.success() {
        return Err(format!(
            "crash child failed: {}",
            String::from_utf8_lossy(&child.stderr)
        )
        .into());
    }
    // Lines of `acked <document index> <object id>`.
    let acked: Vec<(u64, ObjectId)> = String::from_utf8_lossy(&child.stdout)
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("acked ")?.split(' ');
            Some((
                words.next()?.parse().ok()?,
                ObjectId(words.next()?.parse().ok()?),
            ))
        })
        .collect();
    outcome.tally.check(
        (acked.len() != tail).then(|| format!("child acknowledged {} of {tail}", acked.len())),
    );

    let start = Instant::now();
    let (store, replayed) = Store::open(&path)?;
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    verify_objects(
        &store,
        live_objects(writers, source).chain(
            acked
                .iter()
                .map(|&(index, oid)| (oid, source.doc(index).content())),
        ),
        std::iter::empty(),
        &mut outcome.tally,
    );
    store.close();
    outcome.layer.insert("osd.recover_ms", recover_ms);
    outcome
        .layer
        .insert("osd.recover_replayed_ops", replayed as f64);
    outcome.note("recover_ms", recover_ms);
    outcome.note("recover_replayed_ops", replayed);
    outcome.note("crash_acked_objects", acked.len());
    Ok(())
}

/// The crash phase's child: commits documents `first..first + count` to
/// the store at `path`, reports each acknowledged commit, and leaves
/// through `exit` — no `Drop` runs, so there is no final checkpoint and
/// the lock files stay behind, as after `kill -9`.
pub fn crash_child(path: &std::path::Path, source: &DocSource, first: u64, count: u64) -> Res<()> {
    use std::io::Write;
    let (store, _) = Store::open(path)?;
    let mut out = std::io::stdout().lock();
    for index in first..first + count {
        let oid = store.commit_bytes(&source.doc(index).content())?;
        writeln!(out, "acked {index} {}", oid.as_u64())?;
    }
    out.flush()?;
    std::process::exit(0);
}
