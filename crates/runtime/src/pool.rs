//! Persistent worker pool behind [`crate::parallel`].
//!
//! Every parallel region in the workspace used to pay a
//! `std::thread::scope` spawn per call — microseconds of kernel work for
//! jobs that often run tens of microseconds. This module keeps a
//! process-wide set of parked workers alive instead: the first dispatch
//! lazily spawns them, later dispatches wake them with a
//! `Mutex`+`Condvar` handshake, and between batches they cost nothing
//! but an idle OS thread.
//!
//! # Determinism
//!
//! The pool executes *chunks that the caller already cut*. Chunk
//! boundaries come from [`crate::parallel`] and depend only on the input
//! length and [`crate::parallel::max_threads`] — never on which pool
//! thread claims which chunk — and every chunk writes into its own
//! output slot, reassembled in chunk order. Outputs are therefore
//! byte-identical to the inline path and across worker counts; the
//! equivalence suite (`tests/pool_equivalence.rs`) pins this.
//!
//! # The one lifetime erasure
//!
//! Pool workers are `'static` threads, but dispatched jobs borrow the
//! caller's stack (the input slice, the closure, the output slots).
//! [`run`] bridges the two with a single `mem::transmute` of the job
//! reference to `&'static`, sound because of a **completion barrier**:
//! `run` does not return — by panic or otherwise — until every claimed
//! job has finished and the batch has been retired from the shared
//! state, so no worker can observe the erased reference after the
//! caller's frame dies. This is the only unsafe code in the crate
//! (`lib.rs` is `#![deny(unsafe_code)]` with this module's exception).
//!
//! # Nesting and contention
//!
//! One batch is in flight at a time, guarded by a dispatch token.
//! [`try_dispatch`] hands the token to at most one caller; anyone else —
//! including a job that itself calls `parallel_map` — runs its region
//! inline on its own thread (see `parallel.rs`), so a nested region
//! never waits on the pool it runs in. The dispatching thread is not
//! idle while it waits: it claims and runs chunks like any worker, so a
//! batch of `k` chunks occupies exactly `k` threads.
//!
//! # Telemetry
//!
//! `runtime.pool.{jobs,wakeups,scratch_checkouts,scratch_reuses}` are
//! cumulative atomics surfaced as **gauges**. Which thread wakes, and
//! whether a scratch arena was warm, are wall-clock facts that vary with
//! the worker count — gauges keep them visible in full snapshots while
//! staying out of the deterministic export, exactly like
//! `runtime.parallel.workers`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

/// Jobs dispatched through the pool since process start.
static JOBS: AtomicU64 = AtomicU64::new(0);
/// Times a parked worker woke up (with or without work to claim).
static WAKEUPS: AtomicU64 = AtomicU64::new(0);
/// Scratch-arena checkouts reported by [`note_scratch`].
static SCRATCH_CHECKOUTS: AtomicU64 = AtomicU64::new(0);
/// Checkouts that found a warm arena (no fresh allocation needed).
static SCRATCH_REUSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative pool telemetry, readable without the obs layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs dispatched through the pool since process start.
    pub jobs: u64,
    /// Parked-worker wakeups.
    pub wakeups: u64,
    /// Scratch-arena checkouts (see [`note_scratch`]).
    pub scratch_checkouts: u64,
    /// Checkouts that reused a warm arena.
    pub scratch_reuses: u64,
}

/// Reads the cumulative pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        jobs: JOBS.load(Ordering::Relaxed),
        wakeups: WAKEUPS.load(Ordering::Relaxed),
        scratch_checkouts: SCRATCH_CHECKOUTS.load(Ordering::Relaxed),
        scratch_reuses: SCRATCH_REUSES.load(Ordering::Relaxed),
    }
}

/// Records one scratch-arena checkout; `reused` says whether the arena
/// was already warm (its buffers held capacity from an earlier job).
///
/// The arenas themselves live with their users (`srtd-signal` keeps
/// per-thread FFT scratch) — the pool only aggregates the hit rate,
/// because arena reuse is the pool's raison d'être: thread-locals only
/// survive across batches when the threads do.
pub fn note_scratch(reused: bool) {
    SCRATCH_CHECKOUTS.fetch_add(1, Ordering::Relaxed);
    if reused {
        SCRATCH_REUSES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Publishes the cumulative pool counters as obs gauges
/// (`runtime.pool.jobs`, `runtime.pool.wakeups`,
/// `runtime.pool.scratch_checkouts`, `runtime.pool.scratch_reuses`).
///
/// Called by `parallel_map` after each pool dispatch; cheap no-op while
/// the obs layer is disabled.
pub fn publish_gauges() {
    let s = stats();
    crate::obs::gauge_set("runtime.pool.jobs", s.jobs as f64);
    crate::obs::gauge_set("runtime.pool.wakeups", s.wakeups as f64);
    crate::obs::gauge_set("runtime.pool.scratch_checkouts", s.scratch_checkouts as f64);
    crate::obs::gauge_set("runtime.pool.scratch_reuses", s.scratch_reuses as f64);
}

/// A batch of `total` indexed jobs being executed by the pool.
struct Batch {
    /// The erased job; see the module docs for the soundness argument.
    task: &'static (dyn Fn(usize) + Sync),
    /// Next unclaimed job index.
    next: usize,
    /// Number of jobs in the batch.
    total: usize,
    /// Claimed-or-unclaimed jobs that have not finished yet.
    unfinished: usize,
    /// First panic payload observed in a job, re-raised by [`run`].
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

/// State shared between the dispatcher and the parked workers.
struct State {
    batch: Option<Batch>,
    spawned: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between batches.
    work: Condvar,
    /// The dispatcher parks here once no unclaimed jobs remain.
    done: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(State {
            batch: None,
            spawned: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

fn dispatch_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Exclusive right to dispatch one batch; released on drop. Only
/// [`try_dispatch`] creates these, so holding one proves no other batch
/// is in flight.
pub struct Dispatch {
    _guard: MutexGuard<'static, ()>,
}

/// Tries to acquire the exclusive dispatch slot. `None` means a batch is
/// already in flight (possibly on this very thread, via a nested
/// `parallel_map` from inside a job) — the caller must run its region
/// inline instead. While anyone holds a token, every `parallel_map` in
/// the process runs inline.
pub fn try_dispatch() -> Option<Dispatch> {
    match dispatch_lock().try_lock() {
        Ok(guard) => Some(Dispatch { _guard: guard }),
        Err(TryLockError::WouldBlock) => None,
        // The lock guards no data, so a holder that panicked (a region
        // that ran inline while its caller held the token, say) leaves
        // nothing inconsistent behind.
        Err(TryLockError::Poisoned(poisoned)) => Some(Dispatch {
            _guard: poisoned.into_inner(),
        }),
    }
}

/// Claims and runs jobs from the current batch until none are unclaimed.
/// Returns with the lock re-held. Shared by workers and the dispatcher.
fn drain_claims<'a>(shared: &'a Shared, mut guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    loop {
        let Some(batch) = guard.batch.as_mut() else {
            return guard;
        };
        if batch.next >= batch.total {
            return guard;
        }
        let idx = batch.next;
        batch.next += 1;
        let task = batch.task;
        drop(guard);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(idx)));
        guard = shared.state.lock().expect("pool state poisoned");
        let batch = guard
            .batch
            .as_mut()
            .expect("batch retired while jobs were running");
        batch.unfinished -= 1;
        if let Err(payload) = outcome {
            batch.panic.get_or_insert(payload);
        }
        if batch.unfinished == 0 {
            shared.done.notify_all();
        }
    }
}

fn worker_loop() {
    let shared = shared();
    let mut guard = shared.state.lock().expect("pool state poisoned");
    loop {
        guard = drain_claims(shared, guard);
        guard = shared.work.wait(guard).expect("pool state poisoned");
        WAKEUPS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `job(0..total)` on the pool, blocking until every job finished.
///
/// `total` is the batch size; the pool ensures at least `total - 1`
/// helper workers exist (lazily spawning the difference), wakes them,
/// and has the calling thread claim jobs alongside them, so `total`
/// chunks occupy `total` threads. Panics inside jobs are caught, the
/// rest of the batch still runs, and the first payload is re-raised
/// here after the completion barrier, so a job's panic reaches the
/// caller just as a panic on the inline path does.
///
/// The `_token` parameter forces callers through [`try_dispatch`],
/// which is what makes the lifetime erasure below sound (single batch
/// in flight + completion barrier; see the module docs).
pub fn run(total: usize, job: &(dyn Fn(usize) + Sync), token: Dispatch) {
    if total == 0 {
        return;
    }
    // SAFETY: `run` only returns after the completion barrier below has
    // observed `unfinished == 0` and taken the batch out of the shared
    // state, so no pool thread holds or can re-acquire this reference
    // once the caller's borrow expires. The dispatch token guarantees no
    // second batch can alias the slot meanwhile.
    #[allow(unsafe_code)]
    let task: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(job) };

    JOBS.fetch_add(total as u64, Ordering::Relaxed);
    let shared = shared();
    let mut guard = shared.state.lock().expect("pool state poisoned");
    debug_assert!(guard.batch.is_none(), "dispatch token implies empty slot");
    while guard.spawned + 1 < total {
        let name = format!("srtd-pool-{}", guard.spawned);
        std::thread::Builder::new()
            .name(name)
            .spawn(worker_loop)
            .expect("failed to spawn pool worker");
        guard.spawned += 1;
    }
    guard.batch = Some(Batch {
        task,
        next: 0,
        total,
        unfinished: total,
        panic: None,
    });
    shared.work.notify_all();

    // The dispatcher works too, then parks until the stragglers finish.
    guard = drain_claims(shared, guard);
    while guard
        .batch
        .as_ref()
        .expect("batch present until the dispatcher retires it")
        .unfinished
        > 0
    {
        guard = shared.done.wait(guard).expect("pool state poisoned");
    }
    let batch = guard
        .batch
        .take()
        .expect("batch present until the dispatcher retires it");
    drop(guard);
    drop(token);
    if let Some(payload) = batch.panic {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Waits out whichever concurrent test holds the dispatch token.
    fn acquire() -> Dispatch {
        loop {
            if let Some(token) = try_dispatch() {
                return token;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let token = acquire();
        let hits: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
        run(
            hits.len(),
            &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
            token,
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn panics_re_raise_after_the_whole_batch_ran() {
        let token = acquire();
        let ran = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(
                8,
                &|i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 3, "boom");
                },
                token,
            );
        }));
        assert!(outcome.is_err());
        assert_eq!(
            ran.load(Ordering::Relaxed),
            8,
            "batch must run to completion"
        );
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let token = acquire();
        run(0, &|_| unreachable!("no jobs to run"), token);
    }

    #[test]
    fn a_token_holder_that_panics_does_not_disable_the_pool() {
        let outcome = std::panic::catch_unwind(|| {
            let _token = acquire();
            panic!("boom");
        });
        assert!(outcome.is_err());
        let token = acquire();
        let ran = AtomicUsize::new(0);
        run(
            3,
            &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
            token,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn scratch_notes_accumulate() {
        let before = stats();
        note_scratch(false);
        note_scratch(true);
        let after = stats();
        assert!(after.scratch_checkouts >= before.scratch_checkouts + 2);
        assert!(after.scratch_reuses > before.scratch_reuses);
    }
}
