//! Kill-9 / torn-write crash torture for the **defaults-on** stack.
//!
//! The OSD harness (`crates/osd/tests/crash_harness.rs`) tortures the
//! bare persistent store: a `TxnStore` plus a hand-attached checkpointer.
//! This harness runs the identical durability contract through the full
//! default configuration instead — the SIGKILLed child is a
//! `Hfad::open_file` writer with the async engine, both cache tiers
//! and the watermark checkpointer (scheduled through the
//! engine's `Checkpoint` class) all live — so kills land mid-engine-job
//! and mid-background-checkpoint, not just mid-commit. Recovery in the
//! parent also runs through the full stack, and each trial's clean close
//! exercises the ordered `Drop for Hfad` (services first, engine
//! shutdown last).
//!
//! The contract is the same as the OSD harness:
//!
//! * **No acked commit is lost** (kill-9 test).
//! * **No torn or partial state is visible**: recovered bytes must be
//!   byte-identical to a shadow model rebuilt from the recovered counter
//!   alone. The torn-journal variant may lose acked tail commits but
//!   must still land on a shadow-consistent state.
//!
//! Trial counts scale with build profile and honour `HFAD_CRASH_TRIALS`;
//! every reopen runs under a 30-second watchdog.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hfad_core::{Hfad, HfadConfig};
use hfad_osd::{ObjectId, ObjectMeta};
use hfad_storage::{BlockDevice, FileDevice, Superblock, DEFAULT_BLOCK_SIZE};

/// Path of the compiled `crash_child_full` helper binary.
const CHILD: &str = env!("CARGO_BIN_EXE_crash_child_full");

/// Workload objects (and child commit threads).
const THREADS: usize = 3;

/// Fixed workload seed; randomization comes from kill timing.
const SEED: u64 = 42;

// ---- shadow model -------------------------------------------------------
// REC / WINDOW / record() mirror `src/bin/crash_child_full.rs` exactly;
// the byte-identical assertion depends on the two staying in lockstep.

const REC: usize = 64;
const WINDOW: u64 = 8;

fn record(seed: u64, oid: u64, k: u64) -> [u8; REC] {
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

/// The exact bytes object `oid` must hold after recovering to counter
/// `k`: the counter plus the latest record in each rotating slot.
fn shadow(seed: u64, oid: u64, k: u64) -> Vec<u8> {
    let mut expected = vec![0u8; expected_len(k)];
    expected[..8].copy_from_slice(&k.to_le_bytes());
    if k > 0 {
        let lo = if k >= WINDOW { k - WINDOW + 1 } else { 1 };
        for k2 in lo..=k {
            let at = 8 + (k2 % WINDOW) as usize * REC;
            expected[at..at + REC].copy_from_slice(&record(seed, oid, k2));
        }
    }
    expected
}

/// Object size implied by counter `k`.
fn expected_len(k: u64) -> usize {
    if k == 0 {
        8
    } else {
        8 + (k.min(WINDOW - 1) as usize + 1) * REC
    }
}

// ---- harness plumbing ---------------------------------------------------

/// The configuration under torture — must stay in lockstep with
/// `full_stack_config()` in `src/bin/crash_child_full.rs`: the default
/// stack over a deliberately tiny journal.
fn full_stack_config() -> HfadConfig {
    HfadConfig {
        journal_blocks: 16,
        cache_blocks: 1024,
        ..HfadConfig::default()
    }
}

/// Deterministic trial-local randomness (kill delays, corruption
/// offsets).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn trials(default_release: u64, default_debug: u64) -> u64 {
    match std::env::var("HFAD_CRASH_TRIALS") {
        Ok(v) => v.parse().expect("HFAD_CRASH_TRIALS must be an integer"),
        Err(_) => {
            if cfg!(debug_assertions) {
                default_debug
            } else {
                default_release
            }
        }
    }
}

/// A scratch store path, cleared of any stale store / lockfiles / acks
/// from a previous run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hfad-crash-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join(name);
    std::fs::remove_file(&store).ok();
    let mut lck = store.file_name().unwrap().to_os_string();
    lck.push(".lck");
    std::fs::remove_dir_all(store.with_file_name(lck)).ok();
    for t in 0..THREADS {
        std::fs::remove_file(format!("{}.ack.{t}", store.display())).ok();
    }
    store
}

/// Runs `f` under a watchdog: if it has not finished in 30 seconds the
/// whole test process aborts with a diagnostic.
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

/// Creates the aging store through the full stack, with `THREADS`
/// objects each holding a zeroed counter, and closes it cleanly (the
/// ordered `Drop for Hfad`). Returns the oids.
fn create_store(path: &Path) -> Vec<u64> {
    let fs = Hfad::create_file(path, 8 << 20, full_stack_config()).unwrap();
    let ts = fs.txn_store().unwrap();
    let mut oids = Vec::new();
    let mut txn = ts.begin();
    for _ in 0..THREADS {
        let oid = txn
            .create(ObjectMeta::new(0, 0, 0o644, hfad_osd::unix_now()))
            .unwrap();
        txn.write(oid, 0, &0u64.to_le_bytes()).unwrap();
        oids.push(oid.as_u64());
    }
    txn.commit().unwrap();
    oids
}

fn spawn_workload(path: &Path, oids: &[u64]) -> Child {
    let mut cmd = Command::new(CHILD);
    cmd.arg("workload")
        .arg(path.as_os_str())
        .arg(SEED.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for oid in oids {
        cmd.arg(oid.to_string());
    }
    cmd.spawn().expect("spawn crash_child_full workload")
}

/// Last acked counter per thread; 0 when a thread never acked.
fn read_acks(path: &Path) -> Vec<u64> {
    (0..THREADS)
        .map(|t| {
            let mut buf = [0u8; 8];
            match std::fs::File::open(format!("{}.ack.{t}", path.display())) {
                Ok(mut f) => match f.read_exact(&mut buf) {
                    Ok(()) => u64::from_le_bytes(buf),
                    Err(_) => 0,
                },
                Err(_) => 0,
            }
        })
        .collect()
}

/// Reads object `oid`'s recovered counter through the full-stack handle
/// and asserts the object is byte-identical to the shadow model for it.
fn assert_shadow_consistent(fs: &Hfad, oid: u64, trial: u64) -> u64 {
    let id = ObjectId::from(oid);
    let counter_bytes = fs.store().read(id, 0, 8).unwrap();
    let k = u64::from_le_bytes(counter_bytes.try_into().unwrap());
    let expected = shadow(SEED, oid, k);
    let actual = fs
        .store()
        .read(id, 0, (expected.len() + REC) as u64)
        .unwrap();
    assert_eq!(
        actual, expected,
        "trial {trial}: object {oid} recovered to counter {k} but its \
         bytes diverge from the shadow model"
    );
    k
}

// ---- the torture tests --------------------------------------------------

/// Kill-9 torture with the whole default stack live inside the child:
/// spawn, kill at a random point, recover through the full stack, verify.
/// Acked commits must survive; recovered bytes must match the shadow
/// model exactly.
#[test]
fn kill9_torture_with_defaults_on_recovers_every_acked_commit() {
    let path = scratch("kill9-full.hfad");
    let oids = create_store(&path);
    let trials = trials(40, 10);
    let mut rng = 0x6675_6c6c_396bu64; // trial-schedule seed ("full9k")
    let mut max_counter = 0u64;
    for trial in 0..trials {
        let mut child = spawn_workload(&path, &oids);
        // 5–120ms from spawn: early kills land mid-open / mid-recovery,
        // later ones mid-commit, mid-engine-job or mid-checkpoint.
        std::thread::sleep(Duration::from_millis(5 + lcg(&mut rng) % 116));
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");
        let acked = read_acks(&path);
        let (fs, _replayed) = with_watchdog(
            &format!("full-stack reopen after kill-9 trial {trial}"),
            || {
                Hfad::open_file(&path, full_stack_config())
                    .unwrap_or_else(|e| panic!("trial {trial}: recovery failed: {e}"))
            },
        );
        for (t, &oid) in oids.iter().enumerate() {
            let k = assert_shadow_consistent(&fs, oid, trial);
            assert!(
                k >= acked[t],
                "trial {trial}: object {oid} recovered to counter {k} but \
                 the child had an ack for {} — an acked commit was lost",
                acked[t]
            );
            max_counter = max_counter.max(k);
        }
        // Clean close through the ordered Drop (services, then engine);
        // the next trial crashes the store again.
        drop(fs);
    }
    assert!(
        max_counter > 0,
        "no child committed anything across {trials} trials — the \
         workload subprocess is broken, not the store"
    );
}

/// Torn-write torture under the full stack: after the kill, flip random
/// bytes inside the journal region, then recover. Acked tail commits may
/// legitimately be lost, but recovery must still succeed and land on a
/// shadow-consistent state.
#[test]
fn torn_journal_writes_with_defaults_on_recover_to_consistent_state() {
    let path = scratch("torn-full.hfad");
    let oids = create_store(&path);
    let trials = trials(20, 5);
    let mut rng = 0x6675_6c6c_746fu64; // "fullto"
    let mut max_counter = 0u64;
    // The journal region is fixed at format time; read it once.
    let (journal_start, journal_len) = {
        let dev = FileDevice::open(&path, DEFAULT_BLOCK_SIZE).unwrap();
        let sb = Superblock::read_from(&dev).unwrap();
        let bs = dev.block_size() as u64;
        (sb.journal_start * bs, sb.journal_blocks * bs)
    };
    for trial in 0..trials {
        let mut child = spawn_workload(&path, &oids);
        std::thread::sleep(Duration::from_millis(5 + lcg(&mut rng) % 116));
        child.kill().expect("SIGKILL child");
        child.wait().expect("reap child");
        // Tear the journal: XOR a handful of bytes at random offsets.
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        for _ in 0..1 + lcg(&mut rng) % 8 {
            let at = journal_start + lcg(&mut rng) % journal_len;
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(at)).unwrap();
            file.read_exact(&mut byte).unwrap();
            byte[0] ^= 0x5A;
            file.seek(SeekFrom::Start(at)).unwrap();
            file.write_all(&byte).unwrap();
        }
        file.sync_data().unwrap();
        drop(file);
        let (fs, _replayed) = with_watchdog(
            &format!("full-stack reopen after torn trial {trial}"),
            || {
                Hfad::open_file(&path, full_stack_config())
                    .unwrap_or_else(|e| panic!("trial {trial}: torn-journal recovery failed: {e}"))
            },
        );
        for &oid in &oids {
            // No ack lower bound here: a torn tail may drop acked
            // commits. Consistency is the contract.
            max_counter = max_counter.max(assert_shadow_consistent(&fs, oid, trial));
        }
        drop(fs);
    }
    assert!(
        max_counter > 0,
        "no child committed anything across {trials} torn trials — the \
         workload subprocess is broken, not the store"
    );
}
