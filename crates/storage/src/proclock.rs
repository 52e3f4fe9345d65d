//! Multi-process single-writer / multi-reader arbitration for a store
//! file, following the sbdb "turn the filesystem into a database" queue
//! protocol: every acquirer first takes an exclusive *queue* lock, then
//! its real lock, then releases the queue. Because a writer holds the
//! queue while it waits for in-flight readers to drain, new readers queue
//! up *behind* the writer instead of starving it — the fairness property
//! the protocol exists for.
//!
//! The implementation is std-only (the workspace vendors no `libc`, so
//! `flock` is unavailable): locks are lockfiles created with
//! `O_CREAT|O_EXCL`, living in a `<store>.lck/` sidecar directory:
//!
//! ```text
//! <store>.lck/queue.lock      exclusive queue ticket
//! <store>.lck/writer.lock     the single writer
//! <store>.lck/readers/<tok>   one file per live reader
//! ```
//!
//! Each lockfile records `pid starttime` of its holder, where
//! `starttime` is field 22 of `/proc/<pid>/stat` (0 when unavailable).
//! A holder killed with SIGKILL leaves its lockfile behind; the next
//! acquirer detects the stale file — the pid is gone, or its starttime
//! no longer matches (pid reuse) — and removes it. The takeover has an
//! inherent read-then-unlink window two healers can race through
//! (std offers no atomic compare-and-unlink); the post-create
//! verification re-reads the file after winning `create_new` and retries
//! if another process's token landed instead, so the race degrades to a
//! retry, never to two holders.

use std::fs::{self, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::error::{Result, StorageError};

/// How long acquires wait before failing with a timeout error — a hung
/// or deadlocked lock owner must surface as a loud error (the crash
/// harness watchdog), never as an indefinite hang.
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(10);

/// Poll interval while waiting on a held lock.
const POLL: Duration = Duration::from_millis(2);

/// Distinguishes reader tokens created by one process.
static READER_TOKEN: AtomicU64 = AtomicU64::new(0);

/// The lock mode held on a store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Exclusive: the single writer.
    Exclusive,
    /// Shared: one of many readers.
    Shared,
}

/// A held multi-process lock on a store file. Dropping releases it.
#[derive(Debug)]
pub struct ProcLock {
    mode: LockMode,
    /// The lockfile this process owns (`writer.lock` or a reader token).
    token: PathBuf,
}

/// Identity of this process for lockfile contents.
fn self_identity() -> (u32, u64) {
    let pid = std::process::id();
    (pid, proc_starttime(pid).unwrap_or(0))
}

/// Field 22 of `/proc/<pid>/stat` — the kernel's process start time,
/// which survives pid reuse. `None` off Linux or on parse failure.
fn proc_starttime(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The comm field is parenthesised and may contain spaces; parse from
    // after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(19)?.parse().ok()
}

/// Whether the process named by a lockfile's contents is still alive.
fn holder_alive(contents: &str) -> bool {
    let mut parts = contents.split_whitespace();
    let Some(pid) = parts.next().and_then(|p| p.parse::<u32>().ok()) else {
        // Unparseable lockfile: treat as stale so a corrupt file cannot
        // wedge the store forever.
        return false;
    };
    let recorded_start: u64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    match proc_starttime(pid) {
        None => false, // pid gone
        Some(actual) => recorded_start == 0 || actual == recorded_start,
    }
}

/// Sidecar lock directory for a store file.
fn lock_dir(store: &Path) -> PathBuf {
    let mut name = store.file_name().unwrap_or_default().to_os_string();
    name.push(".lck");
    store.with_file_name(name)
}

/// Tries to create `path` exclusively with this process's identity;
/// returns whether we now own it. A stale holder is removed (one heal
/// per call, then the caller retries).
fn try_create_lockfile(path: &Path) -> Result<bool> {
    let (pid, start) = self_identity();
    let body = format!("{pid} {start}\n");
    match OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(mut f) => {
            f.write_all(body.as_bytes())?;
            f.sync_all().ok();
            // Post-create verification: if a racing healer unlinked our
            // file and someone else re-created it, the contents differ —
            // surrender and retry rather than believe we hold the lock.
            let mut check = String::new();
            match fs::File::open(path).and_then(|mut f| f.read_to_string(&mut check).map(|_| ())) {
                Ok(()) if check == body => Ok(true),
                _ => Ok(false),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
            let contents = fs::read_to_string(path).unwrap_or_default();
            if !contents.is_empty() && holder_alive(&contents) {
                return Ok(false);
            }
            // Stale (or vanished mid-read): heal it. Re-read immediately
            // before the unlink to shrink the window in which we could
            // remove a fresh holder's file.
            if fs::read_to_string(path).unwrap_or_default() == contents {
                let _ = fs::remove_file(path);
            }
            Ok(false)
        }
        Err(e) => Err(StorageError::Io(format!(
            "creating lockfile {}: {e}",
            path.display()
        ))),
    }
}

/// Acquires the lockfile at `path`, healing stale holders, until
/// `deadline`.
fn acquire_lockfile(path: &Path, deadline: Instant) -> Result<()> {
    loop {
        if try_create_lockfile(path)? {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(StorageError::Io(format!(
                "timed out acquiring lock {}",
                path.display()
            )));
        }
        std::thread::sleep(POLL);
    }
}

/// An exclusive queue ticket; released on drop.
struct QueueTicket(PathBuf);

impl Drop for QueueTicket {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

impl ProcLock {
    /// Acquires the lock on `store` in `mode` with the default timeout.
    pub fn acquire(store: &Path, mode: LockMode) -> Result<ProcLock> {
        Self::acquire_timeout(store, mode, DEFAULT_LOCK_TIMEOUT)
    }

    /// Acquires the lock on `store` in `mode`, failing with
    /// [`StorageError::Io`] after `timeout`.
    pub fn acquire_timeout(store: &Path, mode: LockMode, timeout: Duration) -> Result<ProcLock> {
        let dir = lock_dir(store);
        let readers = dir.join("readers");
        fs::create_dir_all(&readers)
            .map_err(|e| StorageError::Io(format!("creating {}: {e}", dir.display())))?;
        let deadline = Instant::now() + timeout;

        // Step 1 of the sbdb protocol: everyone takes the queue
        // exclusively first.
        acquire_lockfile(&dir.join("queue.lock"), deadline)?;
        let queue = QueueTicket(dir.join("queue.lock"));

        let writer_lock = dir.join("writer.lock");
        let result = match mode {
            LockMode::Exclusive => {
                // Step 2: take the writer lock (waits out a live previous
                // writer, heals a killed one)...
                acquire_lockfile(&writer_lock, deadline)?;
                // Guard-first: from this point the lockfile belongs to
                // this ProcLock, so every exit below — the reader-drain
                // timeout, a `live_readers` error, a panic — releases it
                // through Drop. Without the guard, an error here leaks a
                // writer.lock naming a *live* pid, which no later
                // contender can ever heal.
                let lock = ProcLock {
                    mode,
                    token: writer_lock,
                };
                // ...then wait for in-flight readers to drain. Holding
                // the queue here is what blocks *new* readers and keeps
                // writers from starving.
                loop {
                    let live = live_readers(&readers)?;
                    if live == 0 {
                        break;
                    }
                    if Instant::now() >= deadline {
                        return Err(StorageError::Io(format!(
                            "timed out waiting for {live} readers on {}",
                            store.display()
                        )));
                    }
                    std::thread::sleep(POLL);
                }
                Ok(lock)
            }
            LockMode::Shared => {
                // Step 2: wait until no writer holds (or is stale on)
                // the file, then register as a reader.
                loop {
                    match fs::read_to_string(&writer_lock) {
                        Err(_) => break, // no writer
                        Ok(contents) if !holder_alive(&contents) => {
                            let _ = fs::remove_file(&writer_lock);
                            break;
                        }
                        Ok(_) => {
                            if Instant::now() >= deadline {
                                return Err(StorageError::Io(format!(
                                    "timed out waiting for writer on {}",
                                    store.display()
                                )));
                            }
                            std::thread::sleep(POLL);
                        }
                    }
                }
                let (pid, start) = self_identity();
                let token = readers.join(format!(
                    "{pid}-{}",
                    READER_TOKEN.fetch_add(1, Ordering::Relaxed)
                ));
                let mut f = OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&token)
                    .map_err(|e| {
                        StorageError::Io(format!("registering reader {}: {e}", token.display()))
                    })?;
                // Guard-first here too: a failed identity write must
                // remove the token via Drop, not leave an empty file for
                // the next writer's healer to clean up.
                let lock = ProcLock { mode, token };
                f.write_all(format!("{pid} {start}\n").as_bytes())?;
                Ok(lock)
            }
        };
        // Step 3: release the queue (QueueTicket drop) so the next
        // arrival can proceed.
        drop(queue);
        result
    }

    /// The mode this lock is held in.
    pub fn mode(&self) -> LockMode {
        self.mode
    }
}

impl Drop for ProcLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.token);
    }
}

/// Counts live reader registrations, healing stale ones.
fn live_readers(readers: &Path) -> Result<u64> {
    let mut live = 0;
    let entries = fs::read_dir(readers)
        .map_err(|e| StorageError::Io(format!("listing {}: {e}", readers.display())))?;
    for entry in entries.flatten() {
        let path = entry.path();
        match fs::read_to_string(&path) {
            Ok(contents) if holder_alive(&contents) => live += 1,
            // Stale or already-vanishing reader: heal and don't count.
            _ => {
                let _ = fs::remove_file(&path);
            }
        }
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hfad-proclock-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let store = dir.join(name);
        let _ = fs::remove_dir_all(lock_dir(&store));
        fs::write(&store, b"store").unwrap();
        store
    }

    #[test]
    fn exclusive_excludes_exclusive() {
        let store = scratch("excl");
        let a = ProcLock::acquire(&store, LockMode::Exclusive).unwrap();
        let err = ProcLock::acquire_timeout(&store, LockMode::Exclusive, Duration::from_millis(50));
        assert!(err.is_err());
        drop(a);
        ProcLock::acquire(&store, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn readers_share_and_block_writer() {
        let store = scratch("shared");
        let r1 = ProcLock::acquire(&store, LockMode::Shared).unwrap();
        let r2 = ProcLock::acquire(&store, LockMode::Shared).unwrap();
        assert_eq!(r1.mode(), LockMode::Shared);
        assert!(
            ProcLock::acquire_timeout(&store, LockMode::Exclusive, Duration::from_millis(50))
                .is_err()
        );
        drop(r1);
        drop(r2);
        ProcLock::acquire(&store, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn writer_blocks_new_readers() {
        let store = scratch("wblock");
        let w = ProcLock::acquire(&store, LockMode::Exclusive).unwrap();
        assert!(
            ProcLock::acquire_timeout(&store, LockMode::Shared, Duration::from_millis(50)).is_err()
        );
        drop(w);
        ProcLock::acquire(&store, LockMode::Shared).unwrap();
    }

    #[test]
    fn dead_pid_lockfile_is_healed() {
        let store = scratch("stale");
        let dir = lock_dir(&store);
        fs::create_dir_all(dir.join("readers")).unwrap();
        // A pid that cannot be running (pid_max is far below this) with a
        // bogus starttime.
        fs::write(dir.join("writer.lock"), "4194304123 9\n").unwrap();
        fs::write(dir.join("queue.lock"), "4194304123 9\n").unwrap();
        fs::write(dir.join("readers").join("4194304123-0"), "4194304123 9\n").unwrap();
        // All three stale locks must be healed within the timeout.
        ProcLock::acquire(&store, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn unparseable_lockfile_is_healed() {
        let store = scratch("garbled");
        let dir = lock_dir(&store);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("queue.lock"), "not a pid\n").unwrap();
        ProcLock::acquire(&store, LockMode::Exclusive).unwrap();
    }

    #[test]
    fn writer_waits_bounded_under_reader_churn() {
        // In-process model of the starvation scenario: threads acquiring
        // shared locks back to back must not be able to hold a writer off
        // past its timeout, because the writer's queue ticket blocks new
        // readers. (The cross-process version lives in the osd crash
        // harness.)
        let store = Arc::new(scratch("fair"));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut churn = Vec::new();
        for _ in 0..3 {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            churn.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(r) =
                        ProcLock::acquire_timeout(&store, LockMode::Shared, Duration::from_secs(5))
                    {
                        std::thread::sleep(Duration::from_millis(1));
                        drop(r);
                    }
                }
            }));
        }
        // Let the churn establish itself, then demand the writer lock.
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let w = ProcLock::acquire_timeout(&store, LockMode::Exclusive, Duration::from_secs(5));
        let waited = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for t in churn {
            t.join().unwrap();
        }
        w.expect("writer must not starve under continuous readers");
        assert!(
            waited < Duration::from_secs(5),
            "writer waited {waited:?} under reader churn"
        );
    }

    #[test]
    fn failed_exclusive_acquire_releases_writer_lock() {
        // Regression: an error between winning writer.lock and the guard
        // being constructed used to leak a lockfile naming a *live* pid —
        // unhealable, wedging the store for every later contender. Drive
        // the `live_readers` error path by moving the readers dir out
        // from under a writer waiting for a reader to drain.
        let store = scratch("errleak");
        let dir = lock_dir(&store);
        let reader = ProcLock::acquire(&store, LockMode::Shared).unwrap();
        let writer_store = store.clone();
        let writer = std::thread::spawn(move || {
            ProcLock::acquire_timeout(&writer_store, LockMode::Exclusive, Duration::from_secs(2))
        });
        // Wait until the writer has won queue.lock + writer.lock (it
        // creates the readers dir before either, and then sits in the
        // reader-drain poll loop), then break its next `live_readers` call.
        // The dir is renamed away in one step: `remove_dir_all` would
        // first empty it, and a poll landing in between counts zero
        // readers and succeeds.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !dir.join("writer.lock").exists() {
            assert!(Instant::now() < deadline, "writer never took writer.lock");
            std::thread::sleep(Duration::from_millis(1));
        }
        fs::rename(dir.join("readers"), dir.join("readers.gone")).unwrap();
        let res = writer.join().unwrap();
        assert!(
            res.is_err(),
            "the acquire must surface the readers-dir error"
        );
        drop(reader);
        fs::remove_dir_all(dir.join("readers.gone")).unwrap();
        // The failed attempt's writer.lock must have been released: a
        // fresh exclusive acquire succeeds instead of timing out against
        // a leaked live-pid lockfile.
        ProcLock::acquire_timeout(&store, LockMode::Exclusive, Duration::from_secs(2))
            .expect("a failed exclusive acquire must not leak writer.lock");
    }

    #[test]
    fn timed_out_exclusive_acquire_releases_writer_lock() {
        // The reader-drain timeout path must release through the same
        // guard (it used to rely on a manual remove_file).
        let store = scratch("timeoutleak");
        let reader = ProcLock::acquire(&store, LockMode::Shared).unwrap();
        let err = ProcLock::acquire_timeout(&store, LockMode::Exclusive, Duration::from_millis(50));
        assert!(err.is_err(), "a live reader must time the writer out");
        drop(reader);
        ProcLock::acquire_timeout(&store, LockMode::Exclusive, Duration::from_secs(2))
            .expect("a timed-out exclusive acquire must not leak writer.lock");
    }

    #[test]
    fn proc_starttime_of_self_is_stable() {
        let a = proc_starttime(std::process::id());
        let b = proc_starttime(std::process::id());
        assert_eq!(a, b);
        // On Linux this must parse.
        #[cfg(target_os = "linux")]
        assert!(a.is_some());
    }
}
