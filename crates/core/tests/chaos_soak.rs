//! Runtime chaos soak for the **defaults-on** stack.
//!
//! The crash harnesses (`crash_harness_full.rs` and the OSD one) torture
//! the store by killing the process; this soak tortures it while it keeps
//! running. Each trial assembles the full default configuration — the
//! engine, both cache tiers, read-ahead, the watermark checkpointer —
//! over a [`FaultDevice`] whose fault configuration is flipped **on the
//! live device** mid-run:
//!
//! 1. **Transient phase**: randomized `TransientIo` injection at a
//!    per-trial swept rate on reads, writes and flushes. The contract is
//!    *full absorption*: every commit succeeds, every read is
//!    byte-identical to a shadow model, zero caller-visible errors — the
//!    retry machinery (group-commit leaders, the cache's read-fill
//!    backoff, checkpoint backoff) must soak up every injected fault.
//! 2. **Permanent phase**: the same live device flips to failing every
//!    write and flush permanently. The contract is *clean degradation*:
//!    a commit fails with a typed error, the store lands in
//!    [`Health::ReadOnly`], further commits are rejected with
//!    [`StorageError::ReadOnly`] without touching the device, and every
//!    previously acknowledged commit is still readable, byte-identical
//!    to the shadow. Then the instance drops cleanly — services and
//!    engine shut down with the device still failing.
//!
//! Zero hangs is part of both contracts: every phase (including the
//! final drop) runs under a 30-second watchdog. Trial counts scale with
//! build profile and honour `HFAD_CHAOS_TRIALS`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfad_core::{Health, Hfad, HfadConfig};
use hfad_osd::{ObjectMeta, OsdError};
use hfad_storage::{
    BlockDevice, FaultConfig, FaultDevice, MemDevice, OpFault, StorageError, DEFAULT_BLOCK_SIZE,
};

/// Objects under torture per trial.
const OBJECTS: usize = 3;

/// Committed writes per trial in the transient phase.
const COMMITS: u64 = 80;

/// Record payload size; offsets rotate through [`SLOTS`] slots per object.
const REC: usize = 192;
const SLOTS: u64 = 8;

/// Per-trial swept `(read, write, flush)` transient rates, in ppm. The
/// top rate fails one write in twenty and one flush in ten — deep enough
/// that a 12-attempt budget is exercised hard while statistically never
/// exhausted (give-up probability per operation is `rate^12`; see
/// `retry_attempts` below).
const RATES_PPM: [(u32, u32, u32); 3] = [
    (1_000, 2_000, 5_000),
    (5_000, 10_000, 20_000),
    (20_000, 50_000, 100_000),
];

fn trials(default_release: u64, default_debug: u64) -> u64 {
    match std::env::var("HFAD_CHAOS_TRIALS") {
        Ok(v) => v.parse().expect("HFAD_CHAOS_TRIALS must be an integer"),
        Err(_) => {
            if cfg!(debug_assertions) {
                default_debug
            } else {
                default_release
            }
        }
    }
}

/// The configuration under torture: the one stack, with a cache a third
/// of the device and a retry budget deep enough to statistically outlast
/// the swept transient rates.
fn soak_config() -> HfadConfig {
    HfadConfig {
        journal_blocks: 64,
        cache_blocks: 2048,
        retry_attempts: 12,
    }
}

/// Deterministic trial-local randomness (record contents, slot order).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn record(seed: u64, obj: usize, k: u64) -> Vec<u8> {
    let mut state = seed ^ (obj as u64) << 32 ^ k.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let mut out = vec![0u8; REC];
    for chunk in out.chunks_mut(8) {
        let v = lcg(&mut state).to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
    out
}

/// Runs `f` under a watchdog: if it has not finished in 30 seconds the
/// whole test process aborts with a diagnostic — a hang IS a failure.
fn with_watchdog<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let done = Arc::new(AtomicBool::new(false));
    let observer = Arc::clone(&done);
    let label = label.to_string();
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if observer.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        eprintln!("watchdog: `{label}` still running after 30s; aborting");
        std::process::abort();
    });
    let out = f();
    done.store(true, Ordering::Release);
    out
}

/// Byte-exact shadow of every object's expected contents, updated only
/// on acknowledged commits.
struct Shadow {
    objects: Vec<Vec<u8>>,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            objects: vec![Vec::new(); OBJECTS],
        }
    }

    fn apply(&mut self, obj: usize, offset: usize, data: &[u8]) {
        let o = &mut self.objects[obj];
        if o.len() < offset + data.len() {
            o.resize(offset + data.len(), 0);
        }
        o[offset..offset + data.len()].copy_from_slice(data);
    }

    fn assert_matches(&self, fs: &Hfad, oids: &[hfad_osd::ObjectId], context: &str) {
        for (obj, oid) in oids.iter().enumerate() {
            let expected = &self.objects[obj];
            let actual = fs
                .read(*oid, 0, expected.len() as u64 + REC as u64)
                .unwrap();
            assert_eq!(
                &actual, expected,
                "{context}: object {obj} diverged from the shadow model"
            );
        }
    }
}

/// Aggregated proof across all trials that the chaos actually happened
/// and was absorbed by the retry machinery, not merely never injected.
#[derive(Default)]
struct SoakTotals {
    injected: u64,
    retried: u64,
}

/// One full chaos trial; returns the injected/retried counts it
/// accumulated.
fn chaos_trial(trial: u64) -> SoakTotals {
    let (read_ppm, write_ppm, flush_ppm) = RATES_PPM[(trial % RATES_PPM.len() as u64) as usize];
    let mut rng = 0xC4A0_5EED ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);

    // Assemble the stack fault-free: construction formats the device
    // (superblock, journal header) outside any retry path. The chaos is
    // runtime chaos — the live device flips below.
    let device = Arc::new(FaultDevice::with_seed(
        MemDevice::new(6144, DEFAULT_BLOCK_SIZE),
        FaultConfig::default(),
        0xC4A0_5000 + trial,
    ));
    let fs = with_watchdog(&format!("trial {trial}: assemble"), || {
        Hfad::on_device(Arc::clone(&device) as Arc<dyn BlockDevice>, soak_config()).unwrap()
    });
    let ts = fs.txn_store().unwrap();
    let mut shadow = Shadow::new();
    let oids: Vec<_> = {
        let mut txn = ts.begin();
        let oids = (0..OBJECTS)
            .map(|_| {
                txn.create(ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now()))
                    .unwrap()
            })
            .collect();
        txn.commit().unwrap();
        oids
    };
    // Drain the setup's dirty set while the device is still clean, so the
    // first faulted flush carries a per-commit-sized write set.
    ts.checkpoint_background().unwrap();

    // ---- phase 1: transient faults, fully absorbed ----------------------
    device.set_config(FaultConfig {
        read: OpFault::transient_ppm(read_ppm),
        write: OpFault::transient_ppm(write_ppm),
        flush: OpFault::transient_ppm(flush_ppm),
    });
    with_watchdog(&format!("trial {trial}: transient phase"), || {
        for k in 1..=COMMITS {
            let obj = (lcg(&mut rng) % OBJECTS as u64) as usize;
            let slot = lcg(&mut rng) % SLOTS;
            let offset = (slot as usize) * REC;
            let data = record(trial, obj, k);
            let mut txn = ts.begin();
            txn.write(oids[obj], offset as u64, &data).unwrap();
            txn.commit().unwrap_or_else(|e| {
                panic!(
                    "trial {trial}: commit {k} failed under transient faults \
                     ({read_ppm}/{write_ppm}/{flush_ppm} ppm) — a transient \
                     error leaked to the caller: {e}"
                )
            });
            shadow.apply(obj, offset, &data);
            if k.is_multiple_of(8) {
                shadow.assert_matches(&fs, &oids, &format!("trial {trial}, commit {k}"));
            }
        }
    });
    assert!(
        fs.health().is_writable(),
        "trial {trial}: transient faults must never cost writability, \
         health is {}",
        fs.health()
    );
    shadow.assert_matches(&fs, &oids, &format!("trial {trial}, after transient phase"));
    // Injection counts snapshotted *before* the permanent flip, so the
    // aggregate proof below counts transient-phase chaos specifically.
    let (p1_reads, p1_writes, p1_flushes) = device.injected_errors();

    // ---- phase 2: permanent write faults, clean read-only degradation ---
    device.set_config(FaultConfig {
        write: OpFault::error_every(1),
        flush: OpFault::error_every(1),
        ..FaultConfig::default()
    });
    let failure = with_watchdog(&format!("trial {trial}: permanent phase"), || {
        // The journal flush now fails permanently; the first commit whose
        // batch reaches the device must surface an error and trip the
        // read-only ratchet. A small bound guards against the impossible
        // case of commits somehow succeeding forever.
        let mut failure = None;
        for k in 0..64u64 {
            let obj = (k % OBJECTS as u64) as usize;
            let data = record(!trial, obj, k);
            let mut txn = ts.begin();
            txn.write(oids[obj], 0, &data).unwrap();
            match txn.commit() {
                Ok(()) => shadow.apply(obj, 0, &data),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        failure
    });
    let failure = failure.unwrap_or_else(|| {
        panic!("trial {trial}: 64 commits all succeeded on a device failing every write")
    });
    assert!(
        !failure.is_transient(),
        "trial {trial}: permanent fault surfaced as transient: {failure}"
    );
    assert!(
        matches!(fs.health(), Health::ReadOnly(_)),
        "trial {trial}: permanent write failure must degrade to ReadOnly \
         (got {}, commit error was: {failure})",
        fs.health()
    );
    // Writes are now rejected with the typed error before touching the
    // journal — both on the transactional path and the native API.
    let mut txn = ts.begin();
    txn.write(oids[0], 0, b"rejected").unwrap();
    match txn.commit() {
        Err(OsdError::Storage(StorageError::ReadOnly(_))) => {}
        other => panic!("trial {trial}: read-only store admitted a commit: {other:?}"),
    }
    match fs.write(oids[0], 0, b"rejected") {
        Err(e) => assert!(
            e.to_string().contains("read-only"),
            "trial {trial}: native write rejected with the wrong error: {e}"
        ),
        Ok(()) => panic!("trial {trial}: read-only store admitted a native write"),
    }
    // Every acknowledged commit is still readable, byte-identical —
    // degradation cost writes, never acked state.
    shadow.assert_matches(&fs, &oids, &format!("trial {trial}, after degradation"));

    let stats = fs.stats();
    assert!(
        matches!(stats.health, Health::ReadOnly(_)),
        "stats must carry health"
    );
    let gc = stats.group_commit.expect("txn store open");
    let cache_retried = stats.store.block_cache.map(|c| c.retried).unwrap_or(0);

    // Clean drop with the device still failing: services and engine must
    // shut down without hanging.
    with_watchdog(
        &format!("trial {trial}: drop under permanent faults"),
        || {
            drop(ts);
            drop(fs);
        },
    );
    SoakTotals {
        injected: p1_reads + p1_writes + p1_flushes,
        retried: gc.retried + cache_retried,
    }
}

#[test]
fn chaos_soak_absorbs_transients_and_degrades_cleanly_on_permanents() {
    let trials = trials(24, 6);
    let mut totals = SoakTotals::default();
    for trial in 0..trials {
        let t = chaos_trial(trial);
        totals.injected += t.injected;
        totals.retried += t.retried;
    }
    // The soak must have actually injected and absorbed faults — a soak
    // that never faulted proves nothing. A truncated run (fewer trials
    // than sweep tiers, e.g. `HFAD_CHAOS_TRIALS=1` while debugging) may
    // legitimately see zero injections at the low tier, so the aggregate
    // proof only applies once every tier has run.
    if trials < RATES_PPM.len() as u64 {
        return;
    }
    assert!(
        totals.injected > 0,
        "no transient faults injected across {trials} trials — the sweep \
         rates or the fault device are broken"
    );
    assert!(
        totals.retried > 0,
        "transient faults were injected but nothing retried across \
         {trials} trials — the retry plumbing is not on the I/O path"
    );
}
