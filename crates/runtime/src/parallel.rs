//! Deterministic, order-preserving data parallelism.
//!
//! Each call splits its input into one contiguous chunk per worker and
//! concatenates the chunk outputs in input order, so the result of every
//! function is **independent of the worker count** — byte-identical on 1
//! thread and on 64. A region runs on one of two paths that share that
//! contract:
//!
//! * the persistent worker pool in [`crate::pool`] — parked threads woken
//!   per batch, no spawn cost, and thread-local scratch that survives
//!   across batches — whenever its dispatch token is free;
//! * inline on the calling thread otherwise, i.e. for nested or
//!   concurrent parallel regions, which find the token taken. The region
//!   holding the token already keeps up to [`max_threads`] threads busy,
//!   so more threads for this one would add spawn cost, not cores.
//!
//! The pool's chunk boundaries depend only on the input length and
//! [`max_threads`], and the inline path maps every item in input order,
//! so the two produce identical bytes (`tests/pool_equivalence.rs` pins
//! this).
//!
//! The worker count defaults to [`std::thread::available_parallelism`]
//! and can be overridden process-wide with [`set_max_threads`] (the
//! determinism tests pin it to 1 and N and compare outputs).
//!
//! # Examples
//!
//! ```
//! use srtd_runtime::parallel::parallel_map;
//!
//! let squares = parallel_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker cap; 0 means "ask the OS".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count used by every function in this module.
///
/// `0` restores the default (one worker per available core). Results are
/// identical for every setting; only wall-clock time changes.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The current worker count: the [`set_max_threads`] override if set,
/// otherwise [`std::thread::available_parallelism`] (falling back to 1).
pub fn max_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Maps `f` over `items` on up to [`max_threads`] workers, returning
/// outputs in input order.
///
/// Runs on the persistent pool when it gets the dispatch token and
/// there are at least two workers and two items; otherwise — one
/// worker, a tiny input, or a nested or concurrent region that finds the
/// token taken — it runs inline on the calling thread. Panics in `f`
/// propagate to the caller. The output bytes are identical either way.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    // Deterministic telemetry (call/item counters) is worker-independent;
    // the worker gauge and per-worker spans are wall-clock facts and stay
    // out of the deterministic export.
    crate::obs::counter_add("runtime.parallel.calls", 1);
    crate::obs::counter_add("runtime.parallel.items", items.len() as u64);
    let _map_span = crate::obs::span("runtime.parallel.map");
    let workers = max_threads().min(items.len());
    if workers > 1 {
        if let Some(token) = crate::pool::try_dispatch() {
            crate::obs::gauge_set("runtime.parallel.workers", workers as f64);
            return pool_map(items, items.len().div_ceil(workers), &f, token);
        }
    }
    crate::obs::gauge_set("runtime.parallel.workers", 1.0);
    // Trace-tree parity with the pool branch: there every item closure
    // runs trace-suppressed, so its spans never enter the window trace;
    // suppress recording here so the inline path excludes exactly the
    // same spans.
    let _flat_only = crate::obs::suppress_trace();
    items.iter().map(f).collect()
}

/// The pool execution path: each chunk is one pool job writing into its
/// own slot; slots are drained in chunk order, so the concatenation is
/// byte-identical to the inline loop. The dispatching thread claims
/// chunks alongside the pool workers, which is why its per-chunk spans
/// are trace-suppressed — inline item closures are suppressed too, and
/// the trace tree must not depend on the path.
fn pool_map<T, U, F>(items: &[T], chunk_len: usize, f: &F, token: crate::pool::Dispatch) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let slots: Vec<Mutex<Option<Vec<U>>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    crate::pool::run(
        chunks.len(),
        &|idx| {
            let _flat_only = crate::obs::suppress_trace();
            let _worker_span = crate::obs::span("runtime.parallel.worker");
            let produced = chunks[idx].iter().map(f).collect::<Vec<U>>();
            *slots[idx].lock().expect("chunk slot poisoned") = Some(produced);
        },
        token,
    );
    crate::pool::publish_gauges();
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.extend(
            slot.into_inner()
                .expect("chunk slot poisoned")
                .expect("every chunk completed"),
        );
    }
    out
}

/// Deterministic parallel reduction: folds `items` chunk by chunk, then
/// merges the per-chunk partials **in fixed chunk order**.
///
/// The chunk boundaries depend only on `items.len()` and `chunk_len` —
/// never on the worker count — so every fold happens over the same
/// elements in the same order and every merge happens in the same
/// left-to-right sequence whether the chunks ran on 1 thread or 64.
/// Floating-point accumulation is therefore **byte-identical across
/// thread counts**, which is what lets the framework's loss accumulation
/// go parallel without breaking the determinism contract.
///
/// Note the chunked grouping is *not* the same floating-point order as a
/// plain sequential fold over `items` (the partials regroup the
/// additions); callers that gate between this and a sequential fast path
/// must gate on input size alone, never on the thread count.
///
/// * `chunk_len` is clamped to at least 1.
/// * An empty input returns `init()`.
/// * Panics in `fold`/`merge` propagate to the caller.
///
/// # Examples
///
/// ```
/// use srtd_runtime::parallel::parallel_reduce;
///
/// let items: Vec<u64> = (1..=100).collect();
/// let sum = parallel_reduce(&items, 16, || 0u64, |acc, &x| acc + x, |a, b| a + b);
/// assert_eq!(sum, 5050);
/// ```
pub fn parallel_reduce<T, A, I, F, M>(
    items: &[T],
    chunk_len: usize,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &T) -> A + Sync,
    M: Fn(A, A) -> A,
{
    let chunk_len = chunk_len.max(1);
    if items.is_empty() {
        return init();
    }
    crate::obs::counter_add("runtime.parallel.reduce_calls", 1);
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let partials = parallel_map(&chunks, |chunk| chunk.iter().fold(init(), &fold));
    partials
        .into_iter()
        .reduce(merge)
        .expect("non-empty input yields at least one partial")
}

/// [`parallel_map`] that stays sequential below `min_len` items.
///
/// For per-item work too small to amortize a pool dispatch — e.g. the
/// k-means assignment step, which runs once per Lloyd iteration — the
/// caller states the break-even point and small inputs skip the dispatch
/// entirely. Output is identical either way.
pub fn parallel_map_min<T, U, F>(items: &[T], min_len: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() < min_len {
        items.iter().map(f).collect()
    } else {
        parallel_map(items, f)
    }
}

/// All unordered index pairs `(i, j)` with `i < j < n`, row-major.
///
/// The work list for symmetric pairwise computations (DTW dissimilarity
/// matrices): flattening the triangle before [`parallel_map`] keeps the
/// per-worker load balanced, which contiguous row chunks would not.
pub fn triangle_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for i in 0..n {
        for j in i + 1..n {
            pairs.push((i, j));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..10_000).collect();
        let f = |&x: &u64| x.wrapping_mul(x).rotate_left(7) as f64 * 0.5;
        let sequential: Vec<f64> = items.iter().map(f).collect();
        assert_eq!(parallel_map(&items, f), sequential);
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let items: Vec<u64> = (0..5_000).collect();
        let f = |&x: &u64| x * 3 + 1;
        set_max_threads(1);
        let one = parallel_map(&items, f);
        set_max_threads(7);
        let seven = parallel_map(&items, f);
        set_max_threads(0);
        let auto = parallel_map(&items, f);
        assert_eq!(one, seven);
        assert_eq!(one, auto);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn min_len_gate_is_output_invariant() {
        let items: Vec<u64> = (0..300).collect();
        let f = |&x: &u64| x ^ 0xabcd;
        assert_eq!(
            parallel_map_min(&items, 1_000, f),
            parallel_map_min(&items, 0, f)
        );
    }

    #[test]
    fn min_len_boundary_is_inclusive_on_the_parallel_side() {
        // len == min_len takes the parallel path, len == min_len - 1 the
        // sequential one; both must agree exactly.
        let f = |&x: &u64| x.wrapping_mul(31);
        for len in [0usize, 1, 7, 8, 9] {
            let items: Vec<u64> = (0..len as u64).collect();
            let expected: Vec<u64> = items.iter().map(f).collect();
            assert_eq!(parallel_map_min(&items, 8, f), expected, "len {len}");
        }
    }

    #[test]
    fn min_len_degenerate_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map_min(&empty, 0, |&x| x).is_empty());
        assert!(parallel_map_min(&empty, 100, |&x| x).is_empty());
        assert_eq!(parallel_map_min(&[3u64], 0, |&x| x + 1), vec![4]);
        assert_eq!(parallel_map_min(&[3u64], 1, |&x| x + 1), vec![4]);
    }

    #[test]
    fn triangle_pairs_tiny_inputs_and_counts() {
        assert!(triangle_pairs(0).is_empty());
        assert!(triangle_pairs(1).is_empty());
        assert_eq!(triangle_pairs(2), vec![(0, 1)]);
        assert_eq!(triangle_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        // The count matches n(n-1)/2 and every pair is unique.
        for n in [5usize, 16, 33] {
            let pairs = triangle_pairs(n);
            assert_eq!(pairs.len(), n * (n - 1) / 2);
            let unique: std::collections::HashSet<_> = pairs.iter().collect();
            assert_eq!(unique.len(), pairs.len());
        }
    }

    #[test]
    fn triangle_pairs_cover_the_strict_upper_triangle() {
        assert_eq!(triangle_pairs(0), Vec::<(usize, usize)>::new());
        assert_eq!(triangle_pairs(1), Vec::<(usize, usize)>::new());
        let pairs = triangle_pairs(4);
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], (0, 1));
        assert_eq!(pairs[5], (2, 3));
        assert!(pairs.iter().all(|&(i, j)| i < j && j < 4));
    }

    #[test]
    fn reduce_empty_input_returns_init() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(
            parallel_reduce(&empty, 8, || 41u64, |a, &x| a + x, |a, b| a + b),
            41
        );
    }

    #[test]
    fn reduce_single_item() {
        assert_eq!(
            parallel_reduce(&[7u64], 8, || 0u64, |a, &x| a + x, |a, b| a + b),
            7
        );
        // chunk_len 0 is clamped to 1 rather than looping forever.
        assert_eq!(
            parallel_reduce(&[7u64], 0, || 0u64, |a, &x| a + x, |a, b| a + b),
            7
        );
    }

    #[test]
    fn reduce_merges_in_fixed_chunk_order() {
        // A non-commutative merge (list concatenation) exposes the merge
        // order: the result must be the chunks in input order, regardless
        // of the worker count.
        let items: Vec<u32> = (0..10).collect();
        let expected: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]];
        let concat = |items: &[u32]| {
            parallel_reduce(
                items,
                3,
                Vec::<Vec<u32>>::new,
                |mut acc: Vec<Vec<u32>>, &x| {
                    match acc.last_mut() {
                        Some(chunk) => chunk.push(x),
                        None => acc.push(vec![x]),
                    }
                    acc
                },
                |mut a, mut b| {
                    a.append(&mut b);
                    a
                },
            )
        };
        set_max_threads(1);
        let one = concat(&items);
        set_max_threads(4);
        let four = concat(&items);
        set_max_threads(0);
        assert_eq!(one, expected);
        assert_eq!(four, expected);
    }

    #[test]
    fn reduce_float_accumulation_is_thread_count_invariant() {
        // Bit-level check on the exact use case the framework relies on:
        // chunked f64 partial sums merged in fixed order.
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.73).sin()).collect();
        let sum =
            |items: &[f64]| parallel_reduce(items, 64, || 0.0f64, |a, &x| a + x, |a, b| a + b);
        set_max_threads(1);
        let one = sum(&items);
        set_max_threads(5);
        let five = sum(&items);
        set_max_threads(0);
        assert_eq!(one.to_bits(), five.to_bits());
    }

    #[test]
    fn reduce_matches_sequential_fold_for_associative_ops() {
        // Property test: for an exactly associative operation (wrapping
        // integer add) the chunked reduction equals the plain fold, for
        // arbitrary inputs and chunk lengths.
        crate::prop::check(
            |rng| {
                use crate::rng::Rng;
                (
                    crate::prop::vec_with(rng, 0..200, |r| r.gen_range(0u64..u64::MAX)),
                    rng.gen_range(1usize..40),
                )
            },
            |(items, chunk_len)| {
                let sequential = items.iter().fold(0u64, |a, &x| a.wrapping_add(x));
                let chunked = parallel_reduce(
                    items,
                    *chunk_len,
                    || 0u64,
                    |a, &x| a.wrapping_add(x),
                    |a, b| a.wrapping_add(b),
                );
                crate::prop_assert!(chunked == sequential);
                Ok(())
            },
        );
    }

    #[test]
    fn reduce_panics_propagate() {
        set_max_threads(4);
        let result = std::panic::catch_unwind(|| {
            let items: Vec<u64> = (0..100).collect();
            parallel_reduce(
                &items,
                8,
                || 0u64,
                |a, &x| {
                    assert!(x != 57, "boom");
                    a + x
                },
                |a, b| a + b,
            )
        });
        set_max_threads(0);
        assert!(result.is_err());
    }

    #[test]
    fn worker_panics_propagate() {
        set_max_threads(4);
        let result = std::panic::catch_unwind(|| {
            let items: Vec<u64> = (0..100).collect();
            parallel_map(&items, |&x| {
                assert!(x != 57, "boom");
                x
            })
        });
        set_max_threads(0);
        assert!(result.is_err());
    }
}
