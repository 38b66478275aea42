//! Deterministic fan-out of per-item work across a scoped thread pool.
//!
//! The pattern is the one proven in the build farm: an atomic next-index
//! counter hands items to workers on demand (so an expensive function does
//! not serialize behind a static partition), each worker tags its results
//! with the item index, and the merge reassembles them **in index order**.
//! Scheduling therefore never leaks into outputs: `map_indexed(n, k, f)`
//! returns exactly what `(0..n).map(f).collect()` would, for any `k`.
//!
//! Per-function pipeline stages (harden, DCE edge scanning, verification)
//! fan out through this module; the determinism rule that makes that safe
//! is documented in `DESIGN.md` ("parallel stages merge by function id").

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The environment variable naming the build worker count.
pub const THREADS_VAR: &str = "PIBE_BUILD_THREADS";

/// A malformed thread-count environment variable: the variable name, the
/// rejected value, and why it was rejected. Surfaced as a typed error so a
/// typo'd `PIBE_BUILD_THREADS=eight` fails loudly instead of silently
/// running on a default the operator did not choose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvThreadsError {
    /// The environment variable that was set.
    pub var: &'static str,
    /// The rejected value, as found in the environment.
    pub value: String,
    /// Why the value was rejected.
    pub reason: EnvThreadsErrorKind,
}

/// Why a thread-count environment value was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvThreadsErrorKind {
    /// Not an unsigned integer.
    NotANumber,
    /// Parsed, but zero — a pool needs at least one worker.
    Zero,
}

impl fmt::Display for EnvThreadsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            EnvThreadsErrorKind::NotANumber => write!(
                f,
                "{}={:?} is not a thread count (expected a positive integer)",
                self.var, self.value
            ),
            EnvThreadsErrorKind::Zero => write!(
                f,
                "{}=0 is not a thread count (a pool needs at least one worker)",
                self.var
            ),
        }
    }
}

impl std::error::Error for EnvThreadsError {}

/// Parses a thread-count value as found under environment variable `var`
/// (`var` is only used for error attribution).
///
/// # Errors
/// Returns [`EnvThreadsError`] when the value is not a positive integer.
pub fn parse_threads(var: &'static str, value: &str) -> Result<usize, EnvThreadsError> {
    match value.trim().parse::<usize>() {
        Ok(0) => Err(EnvThreadsError {
            var,
            value: value.to_string(),
            reason: EnvThreadsErrorKind::Zero,
        }),
        Ok(n) => Ok(n),
        Err(_) => Err(EnvThreadsError {
            var,
            value: value.to_string(),
            reason: EnvThreadsErrorKind::NotANumber,
        }),
    }
}

/// Reads [`THREADS_VAR`] from the environment: `Ok(Some(n))` when set to a
/// positive integer, `Ok(None)` when unset.
///
/// # Errors
/// Returns [`EnvThreadsError`] when the variable is set but malformed —
/// callers with a user interface (the `pibe-suite` binary, the serve
/// loop's config) surface the error; [`default_threads`] panics on it.
pub fn threads_from_env() -> Result<Option<usize>, EnvThreadsError> {
    match std::env::var(THREADS_VAR) {
        Ok(v) => parse_threads(THREADS_VAR, &v).map(Some),
        Err(_) => Ok(None),
    }
}

/// Worker count implied by the environment: the `PIBE_BUILD_THREADS`
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism.
///
/// # Panics
/// Panics (with the [`EnvThreadsError`] message) when the variable is set
/// but malformed. A typo must not silently degrade a measurement run to an
/// unintended thread count; fallible callers use [`threads_from_env`].
pub fn default_threads() -> usize {
    match threads_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(e) => panic!("{e}"),
    }
}

/// Applies `f` to every index in `0..n` on up to `threads` workers and
/// returns the results in index order.
///
/// The output is bit-identical to the sequential
/// `(0..n).map(f).collect::<Vec<_>>()` regardless of thread count or
/// scheduling; `threads <= 1` (or tiny `n`) short-circuits to exactly that
/// expression, so single-threaded callers pay no pool overhead.
///
/// # Panics
/// Propagates a panic from `f`, with `f`'s panic payload.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let next = &next;
    let f = &f;
    let parts: Vec<Vec<(usize, T)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // Re-raise a worker's panic with its own payload, so the
            // caller sees which item failed rather than a generic message.
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
    .expect("par scope");

    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, v) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index produced twice");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let got = map_indexed(100, threads, |i| i * i);
            let want: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn a_worker_panic_keeps_its_message() {
        map_indexed(8, 2, |i| assert!(i != 5, "item {i} failed"));
    }

    #[test]
    fn zero_items_is_fine() {
        let got: Vec<u8> = map_indexed(0, 4, |_| unreachable!());
        assert!(got.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let got = map_indexed(3, 16, |i| i + 1);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(THREADS_VAR, "1"), Ok(1));
        assert_eq!(parse_threads(THREADS_VAR, " 8 "), Ok(8));
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage_with_typed_errors() {
        let zero = parse_threads(THREADS_VAR, "0").unwrap_err();
        assert_eq!(zero.reason, EnvThreadsErrorKind::Zero);
        assert!(zero.to_string().contains(THREADS_VAR));

        for bad in ["eight", "-2", "1.5", ""] {
            let err = parse_threads(THREADS_VAR, bad).unwrap_err();
            assert_eq!(err.reason, EnvThreadsErrorKind::NotANumber, "{bad:?}");
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains(THREADS_VAR), "{err}");
        }
    }
}
