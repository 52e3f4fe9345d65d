//! Bounded exponential backoff for transient device errors.
//!
//! A [`RetryPolicy`] describes how persistently a layer should re-issue
//! an operation that failed with
//! [`StorageError::TransientIo`]:
//! up to `max_attempts` total attempts, sleeping `base * 2^n` between
//! them (clamped to `cap`). Permanent errors are never retried — the
//! classification lives on the error ([`StorageError::is_transient`]),
//! the persistence lives here.
//!
//! The same policy type parameterises the block cache's read-fill
//! retry, the group-commit leader's batch retry, and the background
//! checkpointer's degradation countdown, so one knob shape covers every
//! retry site in the stack.

use std::time::Duration;

use crate::error::{Result, StorageError};

/// How many times to attempt a transiently-failing operation, and how
/// long to back off between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first. `1` (or `0`) disables
    /// retrying: the first transient error surfaces immediately.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
}

impl RetryPolicy {
    /// Retrying disabled: transient errors surface like permanent ones.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// The default stance for foreground and background device I/O:
    /// five attempts with 1 ms → 16 ms exponential backoff (~31 ms of
    /// sleeping worst-case) absorb short fault bursts without letting a
    /// dead device stall callers for long.
    pub const fn standard() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
        }
    }

    /// Whether this policy ever retries.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff to sleep after failed attempt number `attempt`
    /// (1-based): `base * 2^(attempt-1)`, clamped to `cap`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = attempt.saturating_sub(1).min(20);
        self.base
            .saturating_mul(1u32 << exp)
            .min(self.cap.max(self.base))
    }

    /// Runs `op` under this policy: permanent errors and successes
    /// return immediately; transient errors are retried with backoff
    /// until an attempt succeeds or `max_attempts` is exhausted, at
    /// which point the last transient error surfaces. `on_retry` is
    /// invoked once per re-attempt (for counters), with the 1-based
    /// number of the attempt that just failed.
    pub fn run<T>(
        &self,
        mut op: impl FnMut() -> Result<T>,
        mut on_retry: impl FnMut(u32),
    ) -> Result<T> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op() {
                Err(StorageError::TransientIo(msg)) if attempt < attempts => {
                    on_retry(attempt);
                    let pause = self.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    let _ = msg;
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base: Duration::from_micros(10),
            cap: Duration::from_micros(80),
        }
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(1));
        assert_eq!(p.backoff(2), Duration::from_millis(2));
        assert_eq!(p.backoff(3), Duration::from_millis(4));
        assert_eq!(p.backoff(4), Duration::from_millis(5));
        assert_eq!(p.backoff(30), Duration::from_millis(5));
    }

    #[test]
    fn none_disables_retry() {
        let p = RetryPolicy::none();
        assert!(!p.enabled());
        assert_eq!(p.backoff(1), Duration::ZERO);
        let calls = AtomicU32::new(0);
        let out: Result<()> = p.run(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::TransientIo("blip".into()))
            },
            |_| panic!("no retries expected"),
        );
        assert!(matches!(out, Err(StorageError::TransientIo(_))));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn transient_errors_retry_until_success() {
        let calls = AtomicU32::new(0);
        let retries = AtomicU32::new(0);
        let out = fast(5).run(
            || {
                if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(StorageError::TransientIo("blip".into()))
                } else {
                    Ok(42u32)
                }
            },
            |_| {
                retries.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhaustion_surfaces_last_transient_error() {
        let calls = AtomicU32::new(0);
        let out: Result<()> = fast(3).run(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::TransientIo("still down".into()))
            },
            |_| {},
        );
        assert!(matches!(out, Err(StorageError::TransientIo(_))));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let calls = AtomicU32::new(0);
        let out: Result<()> = fast(5).run(
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(StorageError::Io("dead".into()))
            },
            |_| panic!("permanent errors must not retry"),
        );
        assert!(matches!(out, Err(StorageError::Io(_))));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
