//! Work-queue executor for mix sweeps.
//!
//! The sweeps behind Figures 10–12 evaluate hundreds of independent,
//! deterministic mixes. Workers claim runs of consecutive indices from a
//! shared cursor (amortising queue contention when items are cheap),
//! observe a cancellation token between items, and report progress
//! through an optional callback. Results always come back in input order, and the
//! executor adds no nondeterminism of its own — a cancelled run returns
//! `None` rather than a partial result.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shared flag for cooperatively stopping a running sweep.
///
/// Cloning shares the flag. Workers poll it between items, so
/// cancellation latency is one item's evaluation time.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Tuning and hooks for one executor run.
pub struct ExecOptions<'a> {
    /// Worker threads (clamped to the item count; 1 = serial).
    pub threads: usize,
    /// Indices claimed per queue operation. 1 gives the best load balance
    /// for expensive items (a mix evaluation is seconds of simulation);
    /// larger chunks amortise contention for cheap items.
    pub chunk: usize,
    /// Observed between items; a set token stops the run.
    pub cancel: Option<&'a CancelToken>,
    /// Called after each completed item with `(done, total)`.
    pub progress: Option<&'a (dyn Fn(usize, usize) + Sync)>,
}

impl<'a> ExecOptions<'a> {
    /// Options for `threads` workers, chunk 1, no hooks.
    pub fn threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            chunk: 1,
            cancel: None,
            progress: None,
        }
    }

    /// Set the claim-chunk size (min 1).
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Attach a cancellation token.
    pub fn cancel_with(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attach a progress callback.
    pub fn on_progress(mut self, f: &'a (dyn Fn(usize, usize) + Sync)) -> Self {
        self.progress = Some(f);
        self
    }
}

/// Apply `f` to every item through the work queue. Returns results in
/// input order, or `None` if the run was cancelled before finishing.
pub fn execute<T, R, F>(items: &[T], opts: &ExecOptions<'_>, f: F) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let total = items.len();
    let threads = opts.threads.max(1).min(total.max(1));
    let chunk = opts.chunk.max(1);
    let cancelled = || opts.cancel.is_some_and(CancelToken::is_cancelled);
    let done = AtomicUsize::new(0);
    let report = |n: usize| {
        if let Some(p) = opts.progress {
            p(n, total);
        }
    };

    if threads <= 1 {
        let mut out = Vec::with_capacity(total);
        for item in items {
            if cancelled() {
                return None;
            }
            out.push(f(item));
            report(done.fetch_add(1, Ordering::Relaxed) + 1);
        }
        return Some(out);
    }

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if cancelled() {
                    break;
                }
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= total {
                    break;
                }
                for i in start..(start + chunk).min(total) {
                    if cancelled() {
                        break;
                    }
                    let r = f(&items[i]);
                    *results[i].lock().expect("poisoned result slot") = Some(r);
                    report(done.fetch_add(1, Ordering::Relaxed) + 1);
                }
            });
        }
    });

    if cancelled() {
        return None;
    }
    Some(
        results
            .into_iter()
            .map(|m| m.into_inner().expect("poisoned").expect("all slots filled"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_results_stay_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for chunk in [1, 3, 16, 64, 1024] {
            let out = execute(&items, &ExecOptions::threads(8).chunk(chunk), |&x| x * 3)
                .expect("not cancelled");
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pre_cancelled_run_returns_none() {
        let token = CancelToken::new();
        token.cancel();
        let items: Vec<u32> = (0..100).collect();
        let opts = ExecOptions::threads(4).cancel_with(&token);
        assert!(execute(&items, &opts, |&x| x).is_none());
    }

    #[test]
    fn mid_run_cancellation_stops_claiming() {
        let token = CancelToken::new();
        let items: Vec<u32> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let opts = ExecOptions::threads(4).cancel_with(&token);
        let out = execute(&items, &opts, |&x| {
            if x == 0 {
                token.cancel();
            }
            ran.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert!(out.is_none());
        // Far fewer than all items should have run (workers stop at the
        // next poll; at most ~threads × chunk stragglers).
        assert!(ran.load(Ordering::Relaxed) < 1000);
    }

    #[test]
    fn progress_reaches_total() {
        let items: Vec<u32> = (0..50).collect();
        let seen = AtomicUsize::new(0);
        let progress = |done: usize, total: usize| {
            assert!(done <= total);
            seen.fetch_max(done, Ordering::Relaxed);
        };
        let opts = ExecOptions::threads(4).on_progress(&progress);
        execute(&items, &opts, |&x| x).expect("not cancelled");
        assert_eq!(seen.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn serial_path_matches_parallel() {
        let items: Vec<u64> = (0..40).collect();
        let serial = execute(&items, &ExecOptions::threads(1), |&x| x + 7).unwrap();
        let parallel = execute(&items, &ExecOptions::threads(6).chunk(4), |&x| x + 7).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        assert_eq!(
            execute(&items, &ExecOptions::threads(4), |&x| x),
            Some(vec![])
        );
    }
}
