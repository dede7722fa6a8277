//! Incremental re-grouping equivalence: `EpochEngine::run_epoch` over an
//! `EdgeGrouping` method must publish snapshots bitwise-identical to a
//! reference engine that re-groups from scratch every epoch, across
//! multi-epoch arrival patterns — growth-only epochs that take the pure
//! union-find merge path, steady-state epochs with nothing dirty, and
//! epochs that touch existing accounts and force the kept+fresh edge
//! rebuild. A depth-first components oracle over the full decision-edge
//! list pins both against an independent batch implementation.

#[allow(dead_code)]
mod support;

use support::dfs_components;
use sybil_td::core::{AccountGrouping, AgTr, AgTs, EdgeGrouping, Grouping, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine, EpochSnapshot};
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::truth::SensingData;

/// The from-scratch reference: forwards `group()` and `name()` only, so it
/// has no edge view and the engine re-groups the whole campaign each epoch.
#[derive(Clone)]
struct FromScratch<G>(G);

impl<G: AccountGrouping> AccountGrouping for FromScratch<G> {
    fn group(&self, data: &SensingData, fingerprints: &[Vec<f64>]) -> Grouping {
        self.0.group(data, fingerprints)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Snapshot equality minus `duration_ns` (a wall-clock fact, the only
/// non-deterministic field).
fn assert_snapshots_match(batch: &EpochSnapshot, incremental: &EpochSnapshot, context: &str) {
    assert_eq!(batch.epoch, incremental.epoch, "{context}: epoch");
    assert_eq!(
        batch.generation, incremental.generation,
        "{context}: generation"
    );
    assert_eq!(
        batch.num_accounts, incremental.num_accounts,
        "{context}: accounts"
    );
    assert_eq!(
        batch.num_reports, incremental.num_reports,
        "{context}: reports"
    );
    assert_eq!(batch.folded, incremental.folded, "{context}: folded");
    assert_eq!(batch.labels, incremental.labels, "{context}: labels");
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&batch.group_weights),
        bits(&incremental.group_weights),
        "{context}: group weights"
    );
    let tbits = |xs: &[Option<f64>]| {
        xs.iter()
            .map(|x| x.map_or(u64::MAX, f64::to_bits))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        tbits(&batch.truths),
        tbits(&incremental.truths),
        "{context}: truths"
    );
    assert_eq!(
        batch.iterations, incremental.iterations,
        "{context}: iterations"
    );
    assert_eq!(
        batch.converged, incremental.converged,
        "{context}: converged"
    );
    assert_eq!(
        batch.warm_started, incremental.warm_started,
        "{context}: warm_started"
    );
}

/// Drives a batch engine and an incremental engine through the same
/// ingest epochs and checks every published snapshot pair, plus the
/// from-edges oracle on the final state.
fn assert_incremental_matches_batch<G>(
    grouping: G,
    num_tasks: usize,
    epochs: &[Vec<(usize, usize, f64, f64)>],
) where
    G: EdgeGrouping + Clone,
{
    let config = EpochConfig::default();
    let mut batch = EpochEngine::new(
        SybilResistantTd::new(FromScratch(grouping.clone())),
        num_tasks,
        config,
    );
    let mut incremental =
        EpochEngine::new(SybilResistantTd::new(grouping.clone()), num_tasks, config);
    for (e, reports) in epochs.iter().enumerate() {
        for &(account, task, value, ts) in reports {
            batch
                .ingest(account, task, value, ts)
                .expect("batch ingest");
            incremental
                .ingest(account, task, value, ts)
                .expect("incremental ingest");
        }
        let sb = batch.run_epoch();
        let si = incremental.run_epoch();
        assert_snapshots_match(&sb, &si, &format!("epoch {}", e + 1));
    }
    // Oracle: an independent batch rebuild from the full decision-edge
    // list must agree with what the incremental engine converged to.
    let data = incremental.data();
    let edges = grouping.decision_edges(data, None);
    let oracle_grouping = dfs_components(data.num_accounts(), &edges);
    let direct = grouping.group(data, &[]);
    assert_eq!(
        oracle_grouping.groups(),
        direct.groups(),
        "oracle vs group()"
    );
    assert_eq!(
        incremental.latest().labels,
        direct.labels(),
        "incremental labels vs from-scratch group()"
    );
}

/// Epoch schedule with all three incremental regimes: initial fill with a
/// Sybil ring, growth-only arrivals (pure merge), a steady-state epoch,
/// and late reports for existing accounts (rebuild).
fn ring_epochs(seed: u64, num_tasks: usize) -> Vec<Vec<(usize, usize, f64, f64)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut epochs = Vec::new();

    // Epoch 1: accounts 0..6. Accounts 3..6 replay one walk (a ring).
    let mut first = Vec::new();
    for a in 0..3usize {
        for k in 0..4usize {
            let t = (a * 5 + k * 3) % num_tasks;
            first.push((
                a,
                t,
                rng.gen_range(-80f64..-60.0),
                (a * 900 + k * 200) as f64,
            ));
        }
    }
    let walk: Vec<(usize, f64)> = (0..4)
        .map(|k| ((7 + k * 2) % num_tasks, 400.0 + k as f64 * 150.0))
        .collect();
    for member in 0..3usize {
        let account = 3 + member;
        for &(t, ts) in &walk {
            first.push((account, t, -50.0, ts + member as f64 * 4.0));
        }
    }
    epochs.push(first);

    // Epoch 2: growth only — two new accounts, one joining the ring's
    // walk (merges into the existing component without a rebuild).
    let mut second = Vec::new();
    for k in 0..4usize {
        let t = (k * 4 + 1) % num_tasks;
        second.push((
            6,
            t,
            rng.gen_range(-80f64..-60.0),
            5000.0 + k as f64 * 180.0,
        ));
    }
    for &(t, ts) in &walk {
        second.push((7, t, -50.0, ts + 12.0));
    }
    epochs.push(second);

    // Epoch 3: steady state — nothing dirty, pure republish.
    epochs.push(Vec::new());

    // Epoch 4: late reports for existing accounts 0 and 3 — their cached
    // edges drop and the incremental path must rebuild.
    let mut fourth = Vec::new();
    for (a, k) in [(0usize, 0usize), (0, 1), (3, 0)] {
        let t = (11 + a * 3 + k * 5) % num_tasks;
        fourth.push((
            a,
            t,
            rng.gen_range(-80f64..-60.0),
            9000.0 + (a + k) as f64 * 90.0,
        ));
    }
    epochs.push(fourth);

    epochs
}

#[test]
fn ag_tr_incremental_epochs_match_batch_rebuild() {
    assert_incremental_matches_batch(AgTr::default(), 30, &ring_epochs(1, 30));
}

#[test]
fn ag_ts_incremental_epochs_match_batch_rebuild() {
    assert_incremental_matches_batch(AgTs::new(0.0), 30, &ring_epochs(2, 30));
}

#[test]
fn random_arrival_schedules_match_batch_rebuild() {
    // Randomized multi-epoch schedules: arbitrary interleavings of new
    // and existing accounts, including duplicate-task rejections.
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let num_tasks = 20usize;
        let mut used: Vec<Vec<usize>> = Vec::new();
        let mut epochs = Vec::new();
        for _ in 0..4 {
            let mut reports = Vec::new();
            let arrivals = rng.gen_range(0usize..10);
            for _ in 0..arrivals {
                let account = rng.gen_range(0usize..12);
                if used.len() <= account {
                    used.resize(account + 1, Vec::new());
                }
                let task = rng.gen_range(0usize..num_tasks);
                if used[account].contains(&task) {
                    continue;
                }
                used[account].push(task);
                reports.push((
                    account,
                    task,
                    rng.gen_range(-90f64..-40.0),
                    rng.gen_range(0f64..7200.0),
                ));
            }
            epochs.push(reports);
        }
        assert_incremental_matches_batch(AgTr::default(), num_tasks, &epochs);
        assert_incremental_matches_batch(AgTs::new(0.0), num_tasks, &epochs);
    }
}

#[test]
fn interleaving_batch_epochs_invalidates_the_edge_cache_soundly() {
    // `run_epoch_incremental` is an alias of `run_epoch`: alternating the
    // two names on one engine must keep the edge cache consistent and
    // match the from-scratch reference every epoch.
    let epochs = ring_epochs(3, 30);
    let config = EpochConfig::default();
    let mut batch = EpochEngine::new(
        SybilResistantTd::new(FromScratch(AgTr::default())),
        30,
        config,
    );
    let mut mixed = EpochEngine::new(SybilResistantTd::new(AgTr::default()), 30, config);
    for (e, reports) in epochs.iter().enumerate() {
        for &(account, task, value, ts) in reports {
            batch.ingest(account, task, value, ts).expect("ingest");
            mixed.ingest(account, task, value, ts).expect("ingest");
        }
        let sb = batch.run_epoch();
        // Alternate paths on the mixed engine.
        let sm = if e % 2 == 0 {
            mixed.run_epoch()
        } else {
            mixed.run_epoch_incremental()
        };
        assert_snapshots_match(&sb, &sm, &format!("mixed epoch {}", e + 1));
    }
}
