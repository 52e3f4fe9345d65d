//! The four workloads and what they share: repeated set-up, the timed
//! region's bookkeeping, and the checks made after a clean close and
//! reopen.

pub mod ingest;
pub mod mixed;
pub mod resolve;
pub mod scan;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hfad_core::{ObjectId, TagValue};

use crate::clients::{Tally, Writer};
use crate::corpus::DocSource;
use crate::stats::{median, Sorted};
use crate::store::{remove_files, Store};
use crate::trace::Layers;
use crate::Res;

/// Runs one workload.
pub type Run = fn(&Ctx) -> Res<Outcome>;

/// The workloads by name, in the order `suite` runs them.
pub const ALL: [(&str, Run); 4] = [
    ("ingest-durable", ingest::run),
    ("name-resolve", resolve::run),
    ("scan-cold", scan::run),
    ("mixed-churn", mixed::run),
];

/// Closed-loop client threads, one per core of the sandbox the loads
/// were sized on.
pub const CLIENTS: usize = 2;

/// Times each workload is set up in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Size of the long-tail vocabulary relative to the documents a store
/// holds: each long-tail token names about four of them.
pub fn long_tail_for(documents: usize) -> u64 {
    (documents as u64 / 2).max(1)
}

/// What a run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Multiplies object counts; 1 is the benchmark, smaller values are
    /// for smoke tests.
    pub scale: f64,
    pub trace: bool,
    /// Directory for store and probe files; the run creates and removes
    /// it.
    pub scratch: PathBuf,
    /// The benchmark's own executable, for the crash phase's child.
    pub exe: PathBuf,
}

impl Ctx {
    pub fn scaled(&self, count: usize, at_least: usize) -> usize {
        ((count as f64 * self.scale).round() as usize).max(at_least)
    }

    pub fn duration(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics, all but `peak_rss_mb` (the caller reads that
    /// last).
    pub e2e: Values,
    /// Per-layer metrics of a traced run; empty otherwise.
    pub layer: Values,
    /// Samples behind `p50_us`, and the percentile `p99_us` really is
    /// (lower when fewer than 1000 samples were taken).
    pub samples: usize,
    pub tail_percentile: f64,
    /// Tag/value postings the workload put in the key/value index; sizes
    /// the B-tree probe of a traced run.
    pub index_keys: usize,
    /// Reported, not gated: counts, sizes and one-shot timings.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, name: &str, value: impl ToString) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    /// Sets the latency metrics from the workload's primary operation.
    pub fn set_latency(&mut self, sorted: &Sorted) {
        let (percentile, tail) = sorted.tail_us();
        self.e2e.insert("p50_us", sorted.p50_us());
        self.e2e.insert("p99_us", tail);
        self.samples = sorted.len();
        self.tail_percentile = percentile;
    }
}

/// Sets a workload up [`SETUP_REPS`] times, each on a fresh store file,
/// and keeps the last. Returns it with the median set-up time.
pub fn setup_median<S>(
    ctx: &Ctx,
    mut setup: impl FnMut(&Path) -> Res<S>,
    discard: impl Fn(S),
) -> Res<(S, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let path = ctx.scratch.join(format!("store-{rep}"));
        let start = Instant::now();
        kept = Some(setup(&path)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPS is at least one"), median(&times)))
}

/// Closes a store that a later set-up repetition replaces, and removes
/// its files.
pub fn discard_store(store: Store) {
    let path = store.path().to_path_buf();
    store.close();
    remove_files(&path);
}

/// Ingests documents `first..first + n` with [`CLIENTS`] writers and
/// returns their objects by position.
pub fn populate(store: &Store, source: &DocSource, first: u64, n: usize) -> Res<Vec<ObjectId>> {
    let mut writers: Vec<Writer> = (0..CLIENTS)
        .map(|k| Writer::new(first + k as u64, CLIENTS as u64))
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = writers
            .iter_mut()
            .enumerate()
            .map(|(k, writer)| {
                // Client k takes positions k, k + CLIENTS, …
                let share = (n + CLIENTS - 1 - k) / CLIENTS;
                scope.spawn(move || writer.fill(store, source, share))
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("populate client panicked"))
    })?;
    let mut oids = vec![ObjectId(0); n];
    for writer in writers {
        for (oid, index) in writer.window {
            oids[(index - first) as usize] = oid;
        }
    }
    Ok(oids)
}

/// Checks, on a reopened store, that every live object holds exactly its
/// bytes, that every retired object is gone, and that nothing else is
/// there.
pub fn verify_objects(
    store: &Store,
    live: impl Iterator<Item = (ObjectId, Vec<u8>)>,
    retired: impl Iterator<Item = ObjectId>,
    tally: &mut Tally,
) {
    let mut count = 0u64;
    for (oid, want) in live {
        count += 1;
        tally.check(match store.fs.read_all(oid) {
            Ok(got) if got == want => None,
            Ok(got) => Some(format!(
                "object {} after reopen: {} bytes differ from the {} written",
                oid.as_u64(),
                got.len(),
                want.len()
            )),
            Err(e) => Some(format!("object {} after reopen: {e}", oid.as_u64())),
        });
    }
    for oid in retired {
        tally.check(
            store
                .fs
                .len(oid)
                .is_ok()
                .then(|| format!("retired object {} is still there", oid.as_u64())),
        );
    }
    let found = store.fs.object_count();
    tally
        .check((found != count).then(|| format!("{found} objects after reopen, {count} expected")));
}

/// Share of `names` (a path and the object it named) that still resolve.
/// Recorded, not failed: indices are rebuilt empty on every open today.
pub fn names_resolving<'a>(
    store: &Store,
    names: impl Iterator<Item = (&'a TagValue, ObjectId)>,
) -> f64 {
    let (mut asked, mut resolved) = (0u64, 0u64);
    for (path, oid) in names {
        asked += 1;
        let hit = store.fs.lookup(std::slice::from_ref(path));
        resolved += u64::from(hit.is_ok_and(|hits| hits == [oid]));
    }
    if asked == 0 {
        0.0
    } else {
        resolved as f64 / asked as f64
    }
}

/// Closes the store cleanly, measures what it occupies, reopens it.
/// Returns the reopened store and notes `close_ms`, `reopen_ms` and
/// `space_amp` on the outcome.
pub fn close_and_reopen(store: Store, live_bytes: u64, outcome: &mut Outcome) -> Res<Store> {
    let path = store.path().to_path_buf();
    let close_ms = store.close().as_secs_f64() * 1e3;
    let disk = Store::disk_bytes(&path)?;
    outcome
        .e2e
        .insert("space_amp", disk as f64 / live_bytes.max(1) as f64);
    let start = Instant::now();
    let (store, replayed) = Store::open(&path)?;
    let reopen_ms = start.elapsed().as_secs_f64() * 1e3;
    outcome.layer.insert("osd.close_ms", close_ms);
    outcome.layer.insert("osd.reopen_ms", reopen_ms);
    outcome.note("close_ms", close_ms);
    outcome.note("reopen_ms", reopen_ms);
    outcome.note("store_disk_bytes", disk);
    outcome.note("live_user_bytes", live_bytes);
    outcome.tally.check(
        (replayed != 0).then(|| format!("{replayed} operations replayed after a clean close")),
    );
    Ok(store)
}

/// Folds the spans of a traced run into the per-layer metrics they feed.
pub fn span_layers(layers: &Layers, out: &mut Values) {
    out.insert("core.lookup_self_us", layers.self_median_us("core.lookup"));
    out.insert(
        "index.intersect_self_us",
        layers.self_median_us("index.evaluate"),
    );
    out.insert(
        "index.term_lookup_us",
        layers.median_us("index.term_lookup"),
    );
    out.insert(
        "index.search_intersect_self_us",
        layers.self_median_us("core.search_text"),
    );
    out.insert(
        "index.fulltext_term_us",
        layers.median_us("index.fulltext_term"),
    );
    out.insert("core.add_tags_us", layers.median_us("core.add_tags"));
    out.insert(
        "core.index_content_us",
        layers.median_us("core.index_content"),
    );
    out.insert("core.delete_us", layers.median_us("core.delete"));
    out.insert("osd.txn_build_us", layers.median_us("osd.txn_build"));
    out.insert("osd.txn_commit_us", layers.median_us("osd.txn_commit"));
    out.insert("osd.read_us", layers.median_us("osd.read"));
}

/// Ladder time as a share of the clients' time in the timed region: what
/// tracing cost this run's throughput.
pub fn trace_overhead_pct(ladder_ns: u64, clients: usize, elapsed: Duration) -> f64 {
    100.0 * ladder_ns as f64 / (clients as f64 * elapsed.as_nanos() as f64)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
