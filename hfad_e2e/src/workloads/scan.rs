//! `scan-cold`: photo objects of 64–256 KiB, about twelve times the
//! 16 MiB block cache in all, are ingested in 64 KiB transactions; the
//! store is closed and reopened, so the program's caches start cold (the
//! operating system's page cache stays warm). Then, by object id: one
//! client reads every object whole, pass after pass, for six tenths of
//! the timed region (`ops_s`: objects per second inside `read_all`, the
//! median over whole passes), and two clients make uniform-random 4 KiB
//! reads for the rest (`p50_us`, `p99_us`).
//!
//! Why: the workload larger than the cache. Block-cache misses and
//! eviction, the engine's read-ahead, extent maps and `FileDevice` do the
//! work; naming does none (names do not survive the reopen).

use std::time::Instant;

use hfad_core::ObjectId;
use hfad_storage::fnv1a;
use rand::Rng;

use super::{
    close_and_reopen, discard_store, setup_median, span_layers, trace_overhead_pct, Ctx, Outcome,
    CLIENTS,
};
use crate::clients::Tally;
use crate::corpus::{photos, Photo};
use crate::rng::{seeded, StdRng};
use crate::stats::{median, Latencies};
use crate::store::Store;
use crate::trace::Tracer;
use crate::Res;

/// Photo objects in the store.
pub const PHOTOS: usize = 1200;

/// Share of `--seconds` given to the sequential passes; the random reads
/// get the rest. A pass takes about a third of a second and passes vary
/// by a tenth between themselves, so the scan needs the larger share to
/// settle; the random reads take hundreds of thousands of samples either
/// way.
const SCAN_SHARE: f64 = 0.6;

/// Bytes of one random read.
pub const READ_BYTES: u64 = 4096;

/// Creates a store, ingests the photos with [`CLIENTS`] writers, closes
/// it cleanly and reopens it. Returns the store and each photo's object.
fn ingest_and_reopen(path: &std::path::Path, photos: &[Photo]) -> Res<(Store, Vec<ObjectId>)> {
    let store = Store::create(path)?;
    let shares = std::thread::scope(|scope| {
        let store = &store;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || -> Res<Vec<(usize, ObjectId)>> {
                    let mut buf = Vec::new();
                    photos
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(CLIENTS)
                        .map(|(i, photo)| Ok((i, store.put_photo(photo, &mut buf)?)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("photo writer panicked"))
            .collect::<Res<Vec<_>>>()
    })?;
    let mut oids = vec![ObjectId(0); photos.len()];
    for (i, oid) in shares.into_iter().flatten() {
        oids[i] = oid;
    }
    store.close();
    let (store, _) = Store::open(path)?;
    Ok((store, oids))
}

/// The `(photo, offset)` of a client's `n`-th random read.
fn random_read(rng: &mut StdRng, photos: &[Photo]) -> (usize, u64) {
    let i = rng.gen_range(0..photos.len());
    // Any 8-aligned offset that leaves a whole read inside the object.
    let slots = (photos[i].size as u64 - READ_BYTES) / 8 + 1;
    (i, rng.gen_range(0..slots) * 8)
}

fn client_rng(seed: u64, client: u64) -> StdRng {
    seeded(seed, 0x5ca9_0000 + client)
}

/// Hash of the photo sizes and the first reads of every client.
pub fn input_hash(seed: u64, photos: &[Photo]) -> u64 {
    let mut bytes = Vec::new();
    for photo in photos {
        bytes.extend((photo.size as u64).to_le_bytes());
    }
    for client in 0..CLIENTS as u64 {
        let mut rng = client_rng(seed, client);
        for _ in 0..1024 {
            let (i, offset) = random_read(&mut rng, photos);
            bytes.extend((i as u64).to_le_bytes());
            bytes.extend(offset.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

struct RandomClient {
    rng: StdRng,
    latencies: Latencies,
    tally: Tally,
    tracer: Tracer,
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let photos = photos(ctx.seed, ctx.scaled(PHOTOS, 2 * CLIENTS));
    let live_bytes: u64 = photos.iter().map(|p| p.size as u64).sum();
    let ((store, oids), setup_s) = setup_median(
        ctx,
        |path| ingest_and_reopen(path, &photos),
        |(store, _)| discard_store(store),
    )?;
    let mut outcome = Outcome::default();

    // Sequential passes, one client, objects in id order.
    let mut by_oid: Vec<usize> = (0..photos.len()).collect();
    by_oid.sort_by_key(|&i| oids[i]);
    let origin = Instant::now();
    let deadline = origin + ctx.duration(SCAN_SHARE);
    // Per pass: objects read, their bytes, and the time inside the
    // `read_all` calls. The last pass may be cut short by the deadline.
    let mut passes: Vec<(u64, u64, u64)> = vec![(0, 0, 0)];
    'passes: loop {
        for &i in &by_oid {
            if Instant::now() >= deadline {
                break 'passes;
            }
            let start = Instant::now();
            let data = store.fs.read_all(oids[i]);
            let pass = passes.last_mut().expect("a pass is open");
            pass.2 += start.elapsed().as_nanos() as u64;
            pass.0 += 1;
            outcome.tally.check(match data {
                Ok(data) if data.len() == photos[i].size && photos[i].matches(0, &data) => {
                    pass.1 += data.len() as u64;
                    None
                }
                Ok(_) => Some(format!("scan of photo {i}: wrong bytes")),
                Err(e) => Some(format!("scan of photo {i}: {e}")),
            });
        }
        passes.push((0, 0, 0));
    }
    let scanned: u64 = passes.iter().map(|p| p.0).sum();
    // The median over whole passes sets one disturbed pass aside; a run
    // too short for a whole pass reports what it read.
    let whole = passes.len() - 1;
    let measured = if whole > 0 {
        &passes[..whole]
    } else {
        &passes[..]
    };
    let per_second = |count: fn(&(u64, u64, u64)) -> u64| {
        let rates: Vec<f64> = measured
            .iter()
            .map(|pass| count(pass) as f64 / (pass.2.max(1) as f64 / 1e9))
            .collect();
        median(&rates)
    };
    let scan_objects_s = per_second(|pass| pass.0);
    let scan_mb_s = per_second(|pass| pass.1) / 1e6;
    let pass_rates: Vec<String> = measured
        .iter()
        .map(|pass| format!("{:.0}", pass.0 as f64 / (pass.2.max(1) as f64 / 1e9)))
        .collect();

    // Random reads, all clients.
    let mut clients: Vec<RandomClient> = (0..CLIENTS as u64)
        .map(|k| RandomClient {
            rng: client_rng(ctx.seed, k),
            latencies: Latencies::default(),
            tally: Tally::default(),
            tracer: Tracer::new(ctx.trace, origin, k),
        })
        .collect();
    let before = store.device_counters();
    let random_start = Instant::now();
    let deadline = random_start + ctx.duration(1.0 - SCAN_SHARE);
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (store, photos, oids) = (&store, &photos, &oids);
            scope.spawn(move || {
                while Instant::now() < deadline {
                    let (i, offset) = random_read(&mut client.rng, photos);
                    let op = client.tracer.sample();
                    let start = Instant::now();
                    // `Hfad::read` only forwards to the object store; a
                    // traced read calls the store itself, so the span is
                    // the OSD's and the cold path is the one measured.
                    let data: hfad_core::Result<Vec<u8>> = match op {
                        Some(_) => client
                            .tracer
                            .span(op, "osd.read", None, || {
                                store.fs.store().read(oids[i], offset, READ_BYTES)
                            })
                            .map_err(Into::into),
                        None => store.fs.read(oids[i], offset, READ_BYTES),
                    };
                    client.latencies.push(start.elapsed().as_nanos() as u64);
                    client.tally.check(match data {
                        Ok(data)
                            if data.len() == READ_BYTES as usize
                                && photos[i].matches(offset, &data) =>
                        {
                            None
                        }
                        Ok(_) => Some(format!("read of photo {i} at {offset}: wrong bytes")),
                        Err(e) => Some(format!("read of photo {i} at {offset}: {e}")),
                    });
                }
            });
        }
    });
    let random_elapsed = random_start.elapsed();
    let device = store.device_counters().delta_since(&before);

    let mut reads = Latencies::default();
    let mut tracers = Vec::new();
    for client in clients {
        reads.merge(client.latencies);
        outcome.tally.add(client.tally);
        tracers.push(client.tracer);
    }
    let reads = reads.sorted();
    let random_reads_s = reads.len() as f64 / random_elapsed.as_secs_f64();
    outcome.e2e.insert("ops_s", scan_objects_s);
    outcome.e2e.insert("setup_s", setup_s);
    outcome.set_latency(&reads);
    outcome.note("photos", photos.len());
    outcome.note("scanned_objects", scanned);
    outcome.note("scan_passes", scanned as f64 / photos.len() as f64);
    outcome.note("scan_mb_s", scan_mb_s);
    outcome.note("scan_pass_objects_s", pass_rates.join(" "));
    outcome.note("random_reads", reads.len());
    outcome.note("random_reads_s", random_reads_s);
    outcome.note(
        "caches",
        "program caches cold after reopen; OS page cache warm",
    );
    outcome.note(
        "input_hash",
        format!("{:#018x}", input_hash(ctx.seed, &photos)),
    );

    if ctx.trace {
        let (layers, ladder_ns) = Tracer::collect(tracers);
        span_layers(&layers, &mut outcome.layer);
        let layer = &mut outcome.layer;
        layer.insert("api.scan_mb_s", scan_mb_s);
        layer.insert("api.random_reads_s", random_reads_s);
        layer.insert(
            "device.reads_per_read_op",
            device.reads as f64 / reads.len().max(1) as f64,
        );
        layer.insert("osd.checkpoint_ms", store.checkpoint()?.as_secs_f64() * 1e3);
        layer.insert(
            "trace_overhead_pct",
            trace_overhead_pct(ladder_ns, CLIENTS, random_elapsed),
        );
    }

    let store = close_and_reopen(store, live_bytes, &mut outcome)?;
    let mut buf = Vec::new();
    super::verify_objects(
        &store,
        photos.iter().zip(&oids).map(|(photo, &oid)| {
            buf.resize(photo.size, 0);
            photo.fill(0, &mut buf);
            (oid, buf.clone())
        }),
        std::iter::empty(),
        &mut outcome.tally,
    );
    store.close();
    Ok(outcome)
}
