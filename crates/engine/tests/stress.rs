//! Engine behaviour under load and under injected faults: priority and
//! aging bounds, bounded admission, error isolation, graceful shutdown,
//! and the background services end to end.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hfad_engine::{Engine, EngineError, EnginePrefetcher, Priority};
use hfad_storage::{
    BlockDevice, CachedDevice, FaultConfig, FaultDevice, MemDevice, OpFault, StorageError,
};

type Job = Box<dyn FnOnce() -> hfad_storage::Result<()> + Send>;

fn mem_engine(workers: usize) -> Arc<Engine> {
    Engine::with_workers(Arc::new(MemDevice::new(256, 512)), workers)
}

fn sleep_job(d: Duration) -> Job {
    Box::new(move || {
        std::thread::sleep(d);
        Ok(())
    })
}

fn ok_job() -> Job {
    Box::new(|| Ok(()))
}

/// A gate that jobs block on until the test opens it, so a test can hold
/// workers busy for exactly as long as it needs. Dropping it opens it, so
/// a failing test never leaves a worker (and the engine's drop) blocked.
#[derive(Default)]
struct Latch(Arc<(Mutex<bool>, Condvar)>);

impl Latch {
    fn job(&self) -> Job {
        let latch = Arc::clone(&self.0);
        Box::new(move || {
            let (open, cv) = &*latch;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            Ok(())
        })
    }

    fn open(&self) {
        let (open, cv) = &*self.0;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
}

impl Drop for Latch {
    fn drop(&mut self) {
        self.open();
    }
}

/// A foreground job jumps ahead of a deep backlog of read-ahead work:
/// when a worker frees it runs next, not behind the queue.
#[test]
fn foreground_overtakes_readahead_backlog() {
    let engine = mem_engine(2);
    let latch = Latch::default();
    // FIFO within the class: the first two jobs hold both workers.
    let mut tokens: Vec<_> = (0..2)
        .map(|_| engine.submit_job(Priority::ReadAhead, latch.job()).unwrap())
        .collect();
    // A backlog just under the class's capacity of 256.
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..250 {
        let ran = Arc::clone(&ran);
        let job: Job = Box::new(move || {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        tokens.push(engine.submit_job(Priority::ReadAhead, job).unwrap());
    }
    let ahead = Arc::new(AtomicUsize::new(usize::MAX));
    let (seen, count) = (Arc::clone(&ahead), Arc::clone(&ran));
    let foreground = engine
        .submit_job(
            Priority::Foreground,
            Box::new(move || {
                seen.store(count.load(Ordering::SeqCst), Ordering::SeqCst);
                Ok(())
            }),
        )
        .unwrap();
    latch.open();
    foreground.wait().unwrap();
    for token in tokens {
        token.wait().unwrap();
    }
    // Only the job on the other freed worker may slip in first (aging
    // lets the backlog ahead only after it has waited 5 ms).
    let ahead = ahead.load(Ordering::SeqCst);
    assert!(
        ahead < 50,
        "foreground job ran behind {ahead} of 250 read-ahead jobs"
    );
    assert_eq!(ran.load(Ordering::SeqCst), 250);
}

/// With all four classes loaded and high-priority work arriving
/// continuously, aging still gets the lowest class served within its
/// bound instead of starving it until the flood ends.
#[test]
fn aging_bounds_index_latency_with_all_classes_loaded() {
    let engine = mem_engine(1);
    // Sustained floods: Foreground refills faster than service drains it,
    // with Checkpoint and ReadAhead load mixed in.
    let stop = Arc::new(AtomicBool::new(false));
    let mut flooders = Vec::new();
    for class in [
        Priority::Foreground,
        Priority::Checkpoint,
        Priority::ReadAhead,
    ] {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        flooders.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match engine.submit_job(class, sleep_job(Duration::from_micros(200))) {
                    Ok(token) => {
                        // Keep a few in flight, not an unbounded pile.
                        if engine.stats().class(class).submitted.is_multiple_of(8) {
                            let _ = token.wait();
                        }
                    }
                    Err(_) => std::thread::sleep(Duration::from_micros(100)),
                }
            }
        }));
    }
    // Let the flood establish itself.
    std::thread::sleep(Duration::from_millis(20));

    let started = Instant::now();
    let token = engine.submit_job(Priority::Index, ok_job()).unwrap();
    token.wait().unwrap();
    let latency = started.elapsed();

    stop.store(true, Ordering::Relaxed);
    for f in flooders {
        f.join().unwrap();
    }
    engine.wait_idle();

    // The op must be served via aging long before the flood ends, within
    // a generous multiple of the 5ms bound to absorb scheduler noise.
    assert!(
        latency < Duration::from_millis(200),
        "index op starved for {latency:?} under sustained higher-priority load"
    );
    let stats = engine.stats();
    let promoted: u64 = Priority::ALL[1..]
        .iter()
        .map(|c| stats.class(*c).aged)
        .sum();
    assert!(promoted > 0, "aging never fired under sustained load");
}

/// Device faults under `Engine::read` and failing jobs land on their
/// tokens; the worker pool survives and keeps serving later jobs.
#[test]
fn injected_errors_land_on_tokens_not_workers() {
    let device = Arc::new(FaultDevice::new(
        MemDevice::new(64, 512),
        FaultConfig {
            read: OpFault::error_every(3),
            ..Default::default()
        },
    ));
    let engine = Engine::with_workers(device as Arc<dyn BlockDevice>, 2);
    let mut failures = 0;
    for round in 0..30u64 {
        let token = engine.read(Priority::Foreground, round % 64).unwrap();
        match token.wait_read() {
            Ok(data) => assert_eq!(data.len(), 512),
            Err(_) => failures += 1,
        }
    }
    assert_eq!(failures, 10, "every 3rd read must fail");
    let failure = || StorageError::Io("job failed".into());
    for _ in 0..5 {
        let err = engine
            .submit_job(Priority::Index, Box::new(move || Err(failure())))
            .unwrap()
            .wait()
            .unwrap_err();
        assert_eq!(err, EngineError::Storage(failure()));
    }
    let stats = engine.stats();
    let fg = stats.class(Priority::Foreground);
    assert_eq!((fg.completed, fg.failed), (20, 10));
    let index = stats.class(Priority::Index);
    assert_eq!((index.completed, index.failed), (0, 5));
    // The pool is still fully alive.
    engine
        .submit_job(Priority::Index, ok_job())
        .unwrap()
        .wait()
        .unwrap();
}

/// Jobs own their retries: one failing with `TransientIo` runs exactly
/// once, its error lands on its token, and its class counts one failure.
#[test]
fn transient_job_errors_run_once_and_land_on_the_token() {
    let engine = mem_engine(2);
    let runs = Arc::new(AtomicUsize::new(0));
    let job_runs = Arc::clone(&runs);
    let blip = || StorageError::TransientIo("blip".into());
    let err = engine
        .submit_job(
            Priority::Index,
            Box::new(move || {
                job_runs.fetch_add(1, Ordering::SeqCst);
                Err(blip())
            }),
        )
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err, EngineError::Storage(blip()));
    // Counted before the token completed.
    let index = *engine.stats().class(Priority::Index);
    assert_eq!((index.submitted, index.completed, index.failed), (1, 0, 1));
    engine.wait_idle();
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the engine re-ran the job");
}

/// ReadAhead admits 256 in-flight jobs and rejects the rest, counting
/// each refusal; a full ReadAhead class does not refuse other classes.
#[test]
fn readahead_rejects_at_capacity() {
    let engine = mem_engine(1);
    let latch = Latch::default();
    // The one worker runs the latch job first (FIFO) and holds there, so
    // nothing completes until the latch opens.
    let mut tokens = vec![engine.submit_job(Priority::ReadAhead, latch.job()).unwrap()];
    for _ in 1..256 {
        tokens.push(engine.submit_job(Priority::ReadAhead, ok_job()).unwrap());
    }
    for _ in 0..10 {
        assert!(matches!(
            engine.submit_job(Priority::ReadAhead, ok_job()),
            Err(EngineError::QueueFull)
        ));
    }
    let index = engine.submit_job(Priority::Index, ok_job()).unwrap();
    latch.open();
    index.wait().unwrap();
    for token in tokens {
        token.wait().unwrap();
    }
    // Completions free the capacity again.
    engine
        .submit_job(Priority::ReadAhead, ok_job())
        .unwrap()
        .wait()
        .unwrap();
    let ra = *engine.stats().class(Priority::ReadAhead);
    assert_eq!(
        (ra.submitted, ra.completed, ra.rejected, ra.max_depth),
        (257, 257, 10, 256)
    );
}

/// Shutdown runs every job already admitted, in every class, then
/// refuses new work.
#[test]
fn shutdown_drains_admitted_jobs() {
    let engine = mem_engine(2);
    let latch = Latch::default();
    // Two latch jobs hold both workers, so the 40 counting jobs are
    // still queued when shutdown begins.
    let mut tokens: Vec<_> = (0..2)
        .map(|_| {
            engine
                .submit_job(Priority::Foreground, latch.job())
                .unwrap()
        })
        .collect();
    let ran = Arc::new(AtomicUsize::new(0));
    for i in 0..40 {
        let ran = Arc::clone(&ran);
        let job: Job = Box::new(move || {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        tokens.push(engine.submit_job(Priority::ALL[i % 4], job).unwrap());
    }
    let stopper = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.shutdown())
    };
    while !matches!(
        engine.submit_job(Priority::Index, ok_job()),
        Err(EngineError::Shutdown)
    ) {
        std::thread::yield_now();
    }
    assert_eq!(ran.load(Ordering::SeqCst), 0, "the workers were held");
    latch.open();
    stopper.join().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 40);
    for (i, t) in tokens.iter().enumerate() {
        assert!(t.is_done(), "job {i} abandoned by shutdown");
        t.wait().unwrap();
    }
    assert!(matches!(
        engine.read(Priority::Foreground, 0),
        Err(EngineError::Shutdown)
    ));
}

/// End to end: engine read-ahead turns a cold sequential scan over a slow
/// device into cache hits.
#[test]
fn readahead_service_feeds_sequential_scan() {
    let inner = FaultDevice::read_delay(MemDevice::new(128, 512), Duration::from_micros(300));
    let cache = Arc::new(CachedDevice::new(inner, 128));
    let engine = mem_engine(4);
    EnginePrefetcher::attach(Arc::clone(&engine), &cache, 16, 2);

    let mut buf = vec![0u8; 512];
    for block in 0..128 {
        cache.read_block(block, &mut buf).unwrap();
    }
    engine.wait_idle();
    let stats = cache.cache_stats();
    assert!(
        stats.prefetch_hits > 64,
        "sequential scan should be served mostly by prefetch: {stats:?}"
    );
    assert!(engine.stats().class(Priority::ReadAhead).completed > 0);
}

/// Errors inside EnginePrefetcher jobs do not vanish — they land in the
/// ReadAhead class's `failed` counter while prefetch keeps running.
#[test]
fn background_service_errors_are_counted_not_swallowed() {
    // Read-ahead over a device whose every 5th read fails: populate jobs
    // hit the fault and the failure is counted at the ReadAhead class.
    let faulty = FaultDevice::new(
        MemDevice::new(128, 512),
        FaultConfig {
            read: OpFault::error_every(5),
            ..Default::default()
        },
    );
    let cache = Arc::new(CachedDevice::new(faulty, 32));
    let engine = mem_engine(2);
    EnginePrefetcher::attach(Arc::clone(&engine), &cache, 16, 2);
    let mut buf = vec![0u8; 512];
    let deadline = Instant::now() + Duration::from_secs(10);
    while engine.stats().class(Priority::ReadAhead).failed == 0 {
        assert!(
            Instant::now() < deadline,
            "read-ahead failures never surfaced in stats"
        );
        // Sequential scans re-trigger prefetch; the small cache keeps
        // evicting so populate keeps touching the faulty device.
        for block in 0..128 {
            let _ = cache.read_block(block, &mut buf);
        }
    }
    engine.wait_idle();
    assert!(engine.stats().class(Priority::ReadAhead).failed > 0);
}
