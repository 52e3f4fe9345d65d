//! Crash-torture child for the defaults-on harness
//! (`tests/crash_harness_full.rs`).
//!
//! The OSD-level harness (`crates/osd/tests/crash_harness.rs`) tortures
//! the bare persistent store. This child runs the same deterministic
//! commit workload through the **full default stack** — `Hfad::open_file`
//! with the engine, both cache tiers and the watermark checkpointer live
//! — so SIGKILLs land while engine workers, engine-scheduled checkpoint
//! drains and cache fills are all in flight.
//!
//! `workload <store> <seed> <oid...>`: one commit-loop thread per oid,
//! each bumping an 8-byte little-endian counter at offset 0 and writing
//! the deterministic 64-byte record for the new counter into one of
//! [`WINDOW`] rotating slots, acking every durable commit to an fsync'd
//! sidecar (`<store>.ack.<thread>`). The parent holds recovery to every
//! acked value, byte-for-byte.

use std::io::{Seek, SeekFrom, Write};
use std::sync::Arc;

use hfad_core::{Hfad, HfadConfig};
use hfad_osd::ObjectId;

/// Record bytes written per commit (besides the counter).
pub const REC: usize = 64;
/// Rotating record slots per object; slot for counter `k` is
/// `k % WINDOW`, at byte offset `8 + (k % WINDOW) * REC`.
pub const WINDOW: u64 = 8;

/// The deterministic record for `(seed, oid, k)`: 64 LCG-filled bytes.
/// Mirrors the OSD harness; the parent rebuilds its shadow model with the
/// identical function.
pub fn record(seed: u64, oid: u64, k: u64) -> [u8; REC] {
    let mut state =
        seed ^ oid.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut out = [0u8; REC];
    for chunk in out.chunks_mut(8) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
    out
}

/// The configuration the harness tortures: the default stack (engine,
/// both cache tiers, watermark checkpointing) with a smaller cache and a
/// deliberately tiny journal so checkpoints are constant, not rare.
pub fn full_stack_config() -> HfadConfig {
    HfadConfig {
        journal_blocks: 16,
        cache_blocks: 1024,
        ..HfadConfig::default()
    }
}

fn usage() -> ! {
    eprintln!("usage: crash_child_full workload <store> <seed> <oid...>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("workload") => workload(&args[1..]),
        _ => usage(),
    }
}

/// One commit-loop thread: bump the object's counter forever, acking
/// each durable commit. Runs until the process is SIGKILLed.
fn commit_loop(
    ts: Arc<hfad_osd::TxnStore>,
    store_path: String,
    seed: u64,
    thread: usize,
    oid: u64,
) {
    let mut ack = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .open(format!("{store_path}.ack.{thread}"))
        .expect("open ack sidecar");
    let id = ObjectId::from(oid);
    let mut k = u64::from_le_bytes(
        ts.store()
            .read(id, 0, 8)
            .expect("read counter")
            .try_into()
            .expect("counter is 8 bytes"),
    );
    loop {
        k += 1;
        let mut txn = ts.begin();
        txn.write(id, 0, &k.to_le_bytes()).expect("buffer counter");
        txn.write(id, 8 + (k % WINDOW) * REC as u64, &record(seed, oid, k))
            .expect("buffer record");
        txn.commit().expect("commit");
        // The commit fsync'd the journal: promise durability to the
        // parent. The ack itself is fsync'd so a kill between commit
        // and ack can only *under*-promise, never over-promise.
        ack.seek(SeekFrom::Start(0)).expect("seek ack");
        ack.write_all(&k.to_le_bytes()).expect("write ack");
        ack.sync_data().expect("fsync ack");
    }
}

fn workload(args: &[String]) {
    if args.len() < 3 {
        usage();
    }
    let store_path = args[0].clone();
    let seed: u64 = args[1].parse().expect("seed");
    let oids: Vec<u64> = args[2..].iter().map(|a| a.parse().expect("oid")).collect();
    // The full stack: recovery runs first, then assemble attaches the
    // engine, caches and the background checkpointer (scheduled through
    // the engine's Checkpoint class) — exactly the writer a defaults-on
    // application gets.
    let (fs, _replayed) = Hfad::open_file(&store_path, full_stack_config()).expect("open store");
    let ts = fs.txn_store().expect("transactional store");
    let mut handles = Vec::new();
    for (thread, &oid) in oids.iter().enumerate() {
        let ts = Arc::clone(&ts);
        let path = store_path.clone();
        handles.push(std::thread::spawn(move || {
            commit_loop(ts, path, seed, thread, oid)
        }));
    }
    for h in handles {
        let _ = h.join();
    }
}
