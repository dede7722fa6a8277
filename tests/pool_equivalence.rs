//! Pool-vs-inline execution equivalence.
//!
//! `parallel_map` runs its chunks on the persistent worker pool whenever
//! the pool's dispatch token is free, and inline on the calling thread
//! when it is not — a nested region inside a pool job, or a region that
//! overlaps another thread's. The contract that makes the two paths
//! interchangeable: chunk boundaries and output assembly depend only on
//! the input and `max_threads`, never on which path (or which pool
//! thread) ran a chunk — so outputs must be **byte-identical** between
//! the paths at every worker count, panics must propagate the same way,
//! and thread-local scratch must never leak state between jobs.
//!
//! There is no switch for the path. These tests reach the inline path the
//! way production does: by holding the dispatch token around the call.

use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use sybil_td::runtime::parallel::{parallel_map, parallel_reduce, set_max_threads};
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::runtime::{pool, prop, prop_assert};
use sybil_td::signal::stream_features_batch;

/// Where a region's chunks run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// The persistent pool: nothing else holds the dispatch token.
    Pool,
    /// The inline fallback: the caller holds the token, as an enclosing
    /// or concurrent region would.
    Inline,
}

/// Serialises this file's regions, so a `Path::Pool` region always finds
/// the dispatch token free.
fn exclusive() -> MutexGuard<'static, ()> {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Blocks until the dispatch token is ours.
fn hold_dispatch() -> pool::Dispatch {
    loop {
        if let Some(token) = pool::try_dispatch() {
            return token;
        }
        std::thread::yield_now();
    }
}

/// Restores the default worker count on drop, panics included.
struct Threads;

impl Threads {
    fn set(n: usize) -> Self {
        set_max_threads(n);
        Self
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        set_max_threads(0);
    }
}

/// Runs `f` on `path` with `threads` workers. On the inline path the pool
/// cannot run a single job while `f` does.
fn with_exec<T>(path: Path, threads: usize, f: impl FnOnce() -> T) -> T {
    let _serial = exclusive();
    let _threads = Threads::set(threads);
    match path {
        Path::Pool => f(),
        Path::Inline => {
            let _token = hold_dispatch();
            let before = pool::stats().jobs;
            let out = f();
            assert_eq!(
                pool::stats().jobs,
                before,
                "the pool ran jobs on the inline path"
            );
            out
        }
    }
}

/// Pool jobs dispatched while `f` ran.
fn jobs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = pool::stats().jobs;
    let out = f();
    (out, pool::stats().jobs - before)
}

#[test]
fn map_outputs_are_byte_identical_across_backends_and_worker_counts() {
    let items: Vec<f64> = (0..10_007)
        .map(|i| (i as f64 * 0.137).sin() * 1e3)
        .collect();
    let f = |&x: &f64| (x.abs() + 1.0).ln() * x.mul_add(0.25, -3.0);
    let reference: Vec<u64> = with_exec(Path::Inline, 1, || parallel_map(&items, f))
        .into_iter()
        .map(f64::to_bits)
        .collect();
    for path in [Path::Pool, Path::Inline] {
        for threads in [1usize, 2, 4] {
            let (got, jobs) = with_exec(path, threads, || jobs_during(|| parallel_map(&items, f)));
            let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
            assert_eq!(got, reference, "{path:?} at {threads} workers");
            if path == Path::Pool && threads > 1 {
                assert_eq!(jobs, threads as u64, "one pool job per chunk");
            }
        }
    }
}

#[test]
fn reduce_merges_identically_across_backends() {
    let items: Vec<f64> = (0..8_191).map(|i| (i as f64 * 0.91).cos()).collect();
    let sum = |items: &[f64]| {
        parallel_reduce(items, 64, || 0.0f64, |acc, &x| acc + x, |a, b| a + b).to_bits()
    };
    let reference = with_exec(Path::Inline, 1, || sum(&items));
    for path in [Path::Pool, Path::Inline] {
        for threads in [1usize, 2, 4] {
            assert_eq!(
                with_exec(path, threads, || sum(&items)),
                reference,
                "{path:?} at {threads} workers"
            );
        }
    }
}

/// A real pipeline stage on both paths: the feature batch runs its FFT
/// jobs inside `parallel_map`, with per-thread scratch arenas on the pool
/// path — bits must not depend on any of it.
#[test]
fn feature_batch_is_backend_invariant() {
    let streams: Vec<Vec<f64>> = (0..6)
        .map(|s| {
            (0..300 + 70 * s)
                .map(|i| (i as f64 * 0.21 + s as f64).sin() * 9.81)
                .collect()
        })
        .collect();
    let run = |path, threads| {
        with_exec(path, threads, || {
            stream_features_batch(&streams, 100.0)
                .into_iter()
                .flat_map(|f| f.to_vec())
                .map(f64::to_bits)
                .collect::<Vec<u64>>()
        })
    };
    let reference = run(Path::Inline, 1);
    for path in [Path::Pool, Path::Inline] {
        for threads in [1usize, 2, 4] {
            assert_eq!(run(path, threads), reference, "{path:?}/{threads}");
        }
    }
}

#[test]
fn pool_and_inline_paths_propagate_job_panics() {
    for path in [Path::Pool, Path::Inline] {
        let outcome = std::panic::catch_unwind(|| {
            with_exec(path, 4, || {
                let items: Vec<u64> = (0..100).collect();
                parallel_map(&items, |&x| {
                    assert!(x != 57, "boom");
                    x
                })
            })
        });
        assert!(outcome.is_err(), "{path:?} must propagate job panics");
    }
    // The pool must survive a panicked batch: the next dispatch runs on
    // it and works.
    let items: Vec<u64> = (0..100).collect();
    let (ok, jobs) = with_exec(Path::Pool, 4, || {
        jobs_during(|| parallel_map(&items, |&x| x + 1))
    });
    assert_eq!(ok[99], 100);
    assert_eq!(jobs, 4);
}

/// Nested parallel regions: an outer pool batch whose jobs call
/// `parallel_map` again. The inner calls find the dispatch token taken
/// and run inline — outputs must match a flat run.
#[test]
fn nested_parallel_map_inside_pool_jobs_is_identical() {
    let outer: Vec<u64> = (0..16).collect();
    let run = |path, threads| {
        with_exec(path, threads, || {
            parallel_map(&outer, |&o| {
                let inner: Vec<u64> = (0..50).map(|i| o * 100 + i).collect();
                parallel_map(&inner, |&x| x.wrapping_mul(2654435761))
            })
        })
    };
    let reference = run(Path::Inline, 1);
    for threads in [1usize, 2, 4] {
        assert_eq!(run(Path::Pool, threads), reference);
    }
}

/// A nested region runs inline: every inner item runs on the thread of
/// the outer pool job that opened it, so a nested region spawns no
/// threads and never waits on the pool it runs in.
#[test]
fn nested_regions_run_on_their_outer_jobs_thread() {
    let outer: Vec<u64> = (0..8).collect();
    let inner: Vec<u64> = (0..64).collect();
    let (on_outer_thread, jobs) = with_exec(Path::Pool, 4, || {
        jobs_during(|| {
            parallel_map(&outer, |_| {
                let outer_thread = std::thread::current().id();
                parallel_map(&inner, |_| std::thread::current().id() == outer_thread)
            })
        })
    });
    assert_eq!(
        jobs, 4,
        "the outer region ran on the pool, the inner ones did not"
    );
    assert!(
        on_outer_thread.iter().flatten().all(|&same| same),
        "an inner item ran off its outer job's thread"
    );
}

/// Concurrent top-level regions: two threads each run a `parallel_map`
/// and then a `parallel_reduce` at the same time. Each region's first
/// item waits for the other thread's first item, so the two regions are
/// in flight together: whichever took the dispatch token runs on the
/// pool, the other finds it taken and runs inline on its own thread. Both
/// must match the 1-worker run bit for bit.
#[test]
fn concurrent_top_level_regions_match_the_one_worker_run() {
    let items: Vec<f64> = (0..4_099).map(|i| (i as f64 * 0.29).sin() * 7.0).collect();
    let f = |&x: &f64| x.mul_add(x, -0.5).abs().sqrt();
    let run = |meet: Option<&Barrier>| {
        let first = &items[0];
        let wait_at_first = |x: &f64| {
            if let Some(meet) = meet.filter(|_| std::ptr::eq(x, first)) {
                meet.wait();
            }
        };
        let mapped: Vec<u64> = parallel_map(&items, |x| {
            wait_at_first(x);
            f(x).to_bits()
        });
        let sum = parallel_reduce(
            &items,
            64,
            || 0.0f64,
            |acc, x| {
                wait_at_first(x);
                acc + f(x)
            },
            |a, b| a + b,
        );
        (mapped, sum.to_bits())
    };
    let reference = with_exec(Path::Pool, 1, || run(None));

    let _serial = exclusive();
    let _threads = Threads::set(4);
    let meet = Barrier::new(2);
    let (results, jobs) = jobs_during(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| run(Some(&meet)))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("region panicked"))
                .collect::<Vec<_>>()
        })
    });
    for (k, got) in results.iter().enumerate() {
        assert_eq!(got, &reference, "thread {k}");
    }
    // Per region pair, one took the pool (4 chunks) and one fell back.
    assert_eq!(
        jobs,
        2 * 4,
        "exactly one region of each pair ran on the pool"
    );
}

/// Poisoned-arena property test: jobs that deliberately leave garbage in
/// thread-local scratch must not affect any later job's output. The
/// feature batch checks its arenas out per job and overwrites every slot
/// it reads, so a batch interleaved with "poisoning" batches must still
/// be byte-identical to a clean run.
#[test]
fn scratch_arenas_never_leak_state_between_jobs() {
    prop::check(
        |rng| {
            let count = rng.gen_range(1usize..7);
            let streams: Vec<Vec<f64>> = (0..count)
                .map(|_| {
                    let len = rng.gen_range(2usize..400);
                    (0..len).map(|_| rng.gen_range(-50f64..50.0)).collect()
                })
                .collect();
            (streams, rng.gen_range(0u64..u64::MAX))
        },
        |(streams, poison_seed)| {
            let clean = with_exec(Path::Inline, 1, || {
                stream_features_batch(streams, 100.0)
                    .into_iter()
                    .flat_map(|f| f.to_vec())
                    .map(f64::to_bits)
                    .collect::<Vec<u64>>()
            });
            // Poison: run a batch of garbage streams (NaN/huge values,
            // mismatched lengths) through the pool so every worker's
            // arena holds stale bins, then re-run the real batch.
            let mut rng = StdRng::seed_from_u64(*poison_seed);
            let garbage: Vec<Vec<f64>> = (0..4)
                .map(|_| {
                    let len = rng.gen_range(1usize..700);
                    (0..len)
                        .map(|i| {
                            if i % 97 == 13 {
                                f64::NAN
                            } else {
                                rng.gen_range(-1e12f64..1e12)
                            }
                        })
                        .collect()
                })
                .collect();
            let got = with_exec(Path::Pool, 4, || {
                let _ = stream_features_batch(&garbage, 100.0);
                stream_features_batch(streams, 100.0)
                    .into_iter()
                    .flat_map(|f| f.to_vec())
                    .map(f64::to_bits)
                    .collect::<Vec<u64>>()
            });
            prop_assert!(got == clean, "poisoned arena changed feature bits");
            Ok(())
        },
    );
}

#[test]
fn pool_stats_move_when_the_pool_dispatches() {
    // Dispatch straight through the pool API (not `parallel_map`), so the
    // count is exactly the batch size.
    let _serial = exclusive();
    let token = hold_dispatch();
    let before = pool::stats();
    pool::run(5, &|_| {}, token);
    let after = pool::stats();
    assert_eq!(after.jobs, before.jobs + 5, "{before:?} -> {after:?}");
}
