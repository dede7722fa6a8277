//! Equivalence regression for the incremental data plane: folding report
//! batches into warm CSR indexes must be bit-identical to building the
//! same indexes from scratch over the same report sequence — for every
//! task's claims and account's reports, and for every derived statistic
//! downstream of them (`task_means`, `task_value_std`, the centered
//! residual copy).
//!
//! The warm side touches its accessors between folds (so each fold
//! relocates existing runs in place); the cold side never reads until the
//! end (so its first accessor touch folds the whole report list into
//! empty indexes). Any divergence between the two paths is an
//! index-corruption bug.

use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::truth::{Report, SensingData};

const TASKS: usize = 120;

/// A deterministic stream of report batches. Batch 0 is the initial
/// campaign; later batches mix reports from existing accounts (new tasks
/// only — duplicates are rejected by `add_report`) with accounts that did
/// not exist when the indexes were first built.
fn batches(seed: u64) -> Vec<Vec<Report>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    // (first account, one-past-last account) per batch; ranges overlap so
    // folds hit both existing buckets and freshly reserved ones.
    for (lo, hi) in [(0usize, 30usize), (10, 38), (0, 45), (40, 52)] {
        let mut batch = Vec::new();
        for a in lo..hi {
            for t in 0..TASKS {
                if rng.gen_range(0f64..1.0) >= 0.2 || !seen.insert((a, t)) {
                    continue;
                }
                batch.push(Report {
                    account: a,
                    task: t,
                    value: (t as f64 * 0.31).sin() * 15.0 - 65.0 + rng.gen_range(-2f64..2.0),
                    timestamp: t as f64 * 5.0 + a as f64 * 0.01,
                });
            }
        }
        out.push(batch);
    }
    out
}

fn max_account(batch: &[Report]) -> usize {
    batch.iter().map(|r| r.account).max().unwrap_or(0)
}

/// Every observable surface of the two datasets must match bit for bit.
fn assert_bitwise_equivalent(warm: &SensingData, cold: &SensingData) {
    assert_eq!(warm.num_tasks(), cold.num_tasks());
    assert_eq!(warm.num_accounts(), cold.num_accounts());
    assert_eq!(warm.num_reports(), cold.num_reports());
    assert_eq!(warm.reports(), cold.reports());
    for a in 0..warm.num_accounts() {
        assert!(
            warm.account_reports(a).eq(cold.account_reports(a)),
            "account {a} index run diverged"
        );
    }
    assert_claims_equivalent(warm, cold);

    let means_w = warm.task_means();
    let means_c = cold.task_means();
    let std_w = warm.task_value_std();
    let std_c = cold.task_value_std();
    for t in 0..warm.num_tasks() {
        assert_eq!(
            means_w[t].map(f64::to_bits),
            means_c[t].map(f64::to_bits),
            "task {t} mean diverged"
        );
        assert_eq!(
            std_w[t].map(f64::to_bits),
            std_c[t].map(f64::to_bits),
            "task {t} value std diverged"
        );
    }

    let (resid_w, baseline_w) = warm.centered();
    let (resid_c, baseline_c) = cold.centered();
    for t in 0..warm.num_tasks() {
        assert_eq!(
            baseline_w[t].map(f64::to_bits),
            baseline_c[t].map(f64::to_bits)
        );
    }
    for (rw, rc) in resid_w.reports().iter().zip(resid_c.reports()) {
        assert_eq!(rw.value.to_bits(), rc.value.to_bits());
        assert_eq!(rw.timestamp.to_bits(), rc.timestamp.to_bits());
    }
    assert_claims_equivalent(&resid_w, &resid_c);
}

/// The task claim columns: the same accounts and value bits on both
/// sides, and on each side the accounts and values of the task's reports
/// in report order, read from the report list itself.
fn assert_claims_equivalent(warm: &SensingData, cold: &SensingData) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for t in 0..warm.num_tasks() {
        let (accounts_w, values_w) = warm.task_claims(t);
        let (accounts_c, values_c) = cold.task_claims(t);
        assert_eq!(accounts_w, accounts_c, "task {t} claim accounts diverged");
        assert_eq!(
            bits(values_w),
            bits(values_c),
            "task {t} claim values diverged"
        );
        for data in [warm, cold] {
            let (accounts, values) = data.task_claims(t);
            let named: Vec<_> = data.reports().iter().filter(|r| r.task == t).collect();
            let want_accounts: Vec<u32> = named.iter().map(|r| r.account as u32).collect();
            let want_values: Vec<f64> = named.iter().map(|r| r.value).collect();
            assert_eq!(
                accounts, want_accounts,
                "task {t} claims name other accounts"
            );
            assert_eq!(
                bits(values),
                bits(&want_values),
                "task {t} claims hold other values"
            );
        }
    }
}

#[test]
fn incremental_folds_match_from_scratch_rebuild() {
    for threads in [1usize, 4] {
        set_max_threads(threads);
        let stream = batches(7);

        // Warm path: fold each batch into live indexes, touching every
        // accessor between folds so the next fold works against a built
        // (then generation-invalidated) cache.
        let mut warm = SensingData::new(TASKS);
        // Cold path: identical report sequence, caches untouched until
        // the final comparison forces one from-scratch build.
        let mut cold = SensingData::new(TASKS);

        for batch in &stream {
            let need = max_account(batch) + 1;
            if need > warm.num_accounts() {
                warm.reserve_accounts(need);
                cold.reserve_accounts(need);
            }
            warm.fold_batch(batch);
            cold.fold_batch(batch);
            // Force the warm side's caches to exist so the *next* fold
            // exercises the incremental relocation path, and check the
            // fold result against a rebuild at every generation.
            let rebuilt: SensingData = {
                let mut d = SensingData::new(TASKS);
                d.reserve_accounts(warm.num_accounts());
                d.fold_batch(warm.reports().to_vec().as_slice());
                d
            };
            assert_bitwise_equivalent(&warm, &rebuilt);
        }

        assert!(warm.generation() > 0);
        assert_eq!(warm.generation(), cold.generation());
        assert_bitwise_equivalent(&warm, &cold);
    }
    set_max_threads(0);
}
