//! The engine-owned edge index against the paper's definition, epoch by
//! epoch. One `EdgeIndex` and one `EpochEngine` run the same multi-epoch
//! schedule, and after every epoch
//!
//! 1. the edges a caller keeps (last epoch's edges between two clean
//!    accounts) plus the index's fresh edges equal the pairs the exact
//!    dense matrix accepts (`DenseReference::accepted_pairs`);
//! 2. the engine's published labels equal the dense components.
//!
//! The schedules include an out-of-order report that moves an existing
//! account's first endpoint into another cell (`ReportRules::Basic`
//! admits it), a new task that changes an account's rarity prefix, an
//! AG-TS order rebuild mid-schedule, and an epoch with nothing dirty; a
//! 160-account campaign with a few dirty accounts per epoch takes the
//! probe route through the index, the small ones the sweep. Each schedule
//! runs at 1 and 4 worker threads.

#[allow(dead_code)]
mod support;

use support::{components, DenseReference};
use sybil_td::core::{AgTr, AgTs, EdgeGrouping, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine};
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig};

/// `(account, task, value, timestamp)`.
type Arrival = (usize, usize, f64, f64);

/// Drives `method`'s index and an engine running `method` through
/// `epochs`, checking both against `reference` after every epoch. Returns
/// how many accepted pairs the epochs saw in total, so a caller can tell a
/// schedule that links accounts from one that never does.
fn check_schedule<G: EdgeGrouping + Copy>(
    method: G,
    reference: DenseReference,
    num_tasks: usize,
    epochs: &[Vec<Arrival>],
) -> usize {
    let mut linked = 0;
    for threads in [1usize, 4] {
        set_max_threads(threads);
        let mut engine = EpochEngine::new(
            SybilResistantTd::new(method),
            num_tasks,
            EpochConfig::default(),
        );
        let mut index = method.edge_index();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut seen = 0;
        for (e, batch) in epochs.iter().enumerate() {
            let what = format!("{reference:?}, epoch {}, {threads} thread(s)", e + 1);
            for &(account, task, value, timestamp) in batch {
                engine
                    .ingest(account, task, value, timestamp)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
            }
            let snapshot = engine.run_epoch();
            let data = engine.data();
            let n = data.num_accounts();
            let mut dirty = vec![false; n];
            for &(account, ..) in batch {
                dirty[account] = true;
            }
            for flag in dirty.iter_mut().skip(seen) {
                *flag = true;
            }
            seen = n;
            edges.retain(|&(i, j)| !dirty[i] && !dirty[j]);
            let fresh = index.update(data, &dirty);
            assert!(
                fresh.windows(2).all(|w| w[0] < w[1]),
                "{what}: fresh edges sorted, each once"
            );
            assert!(
                fresh.iter().all(|&(i, j)| i < j && (dirty[i] || dirty[j])),
                "{what}: every fresh edge has a dirty endpoint"
            );
            edges.extend(fresh);
            edges.sort_unstable();
            let accepted = reference.accepted_pairs(data);
            let expected: Vec<(usize, usize)> = accepted.iter().map(|&(i, j, _)| (i, j)).collect();
            assert_eq!(edges, expected, "{what}: kept + fresh edges");
            assert_eq!(
                snapshot.labels,
                components(n, &accepted).labels(),
                "{what}: engine labels"
            );
            linked += expected.len();
        }
    }
    set_max_threads(0);
    linked
}

/// Runs `epochs` through every method: AG-TR, and AG-TS at ρ = 0 and at
/// the paper's ρ = 1. Returns the accepted-pair totals of AG-TR and of
/// AG-TS at ρ = 0.
fn check_every_method(num_tasks: usize, epochs: &[Vec<Arrival>]) -> (usize, usize) {
    let tr = AgTr::default();
    let tr_linked = check_schedule(tr, DenseReference::Tr(tr), num_tasks, epochs);
    let ts = AgTs::new(0.0);
    let ts_linked = check_schedule(ts, DenseReference::Ts(ts), num_tasks, epochs);
    let ts = AgTs::new(1.0);
    check_schedule(ts, DenseReference::Ts(ts), num_tasks, epochs);
    (tr_linked, ts_linked)
}

/// Folded reports after each epoch of `epochs`.
fn folded_after_each(epochs: &[Vec<Arrival>]) -> Vec<usize> {
    epochs
        .iter()
        .scan(0, |total, batch| {
            *total += batch.len();
            Some(*total)
        })
        .collect()
}

/// A hand-built schedule over 30 tasks:
///
/// 1. accounts 0–2 walk alone, accounts 3–5 replay one walk (a ring);
/// 2. two new accounts, one joining the ring's walk;
/// 3. an out-of-order report: account 0 reports task 20 two hours before
///    its first report, so its first endpoint moves to another cell on
///    both axes (task and hour); and account 4 reports task 29, which
///    nobody had reported when AG-TS froze its order, so the task ranks
///    rarest and enters account 4's rarity prefix;
/// 4. nothing;
/// 5. accounts 8–11 arrive with six reports each, which more than doubles
///    the folded reports since epoch 1 and rebuilds the AG-TS order;
/// 6. late reports for accounts 1 and 3.
fn hand_built_epochs() -> Vec<Vec<Arrival>> {
    let hour = 3600.0;
    let mut epochs = Vec::new();
    let mut first = Vec::new();
    for a in 0..3usize {
        for k in 0..3usize {
            first.push((
                a,
                2 + a * 7 + k * 2,
                -70.0,
                10.0 * hour + (a * 3 + k) as f64 * 600.0,
            ));
        }
    }
    let walk = [(5usize, 0.0), (9, 900.0), (13, 1800.0)];
    for member in 0..3usize {
        for &(task, at) in &walk {
            first.push((
                3 + member,
                task,
                -50.0,
                12.0 * hour + at + member as f64 * 5.0,
            ));
        }
    }
    epochs.push(first);
    epochs.push(vec![
        (6, 1, -71.0, 14.0 * hour),
        (6, 27, -72.0, 14.5 * hour),
        (7, 5, -50.0, 12.0 * hour + 20.0),
        (7, 9, -50.0, 12.0 * hour + 920.0),
        (7, 13, -50.0, 12.0 * hour + 1820.0),
    ]);
    epochs.push(vec![
        (0, 20, -69.0, 8.0 * hour),
        (4, 29, -50.0, 13.0 * hour),
    ]);
    epochs.push(Vec::new());
    let mut fifth = Vec::new();
    for a in 8..12usize {
        for k in 0..6usize {
            fifth.push((
                a,
                (a * 5 + k * 4) % 29,
                -65.0,
                20.0 * hour + (a * 6 + k) as f64 * 300.0,
            ));
        }
    }
    epochs.push(fifth);
    epochs.push(vec![
        (1, 0, -74.0, 16.0 * hour),
        (3, 28, -50.0, 15.0 * hour),
    ]);
    epochs
}

#[test]
fn hand_built_schedule_matches_the_dense_reference_every_epoch() {
    let epochs = hand_built_epochs();
    // AG-TS freezes its task order at epoch 1 and rebuilds it at the first
    // epoch whose folded reports exceed twice that count — here epoch 5,
    // mid-schedule, with epoch 6 running on the rebuilt order.
    let folded = folded_after_each(&epochs);
    let rebuild = folded.iter().position(|&f| f > 2 * folded[0]);
    assert_eq!(rebuild, Some(4), "folded reports per epoch: {folded:?}");
    let (tr_linked, ts_linked) = check_every_method(30, &epochs);
    assert!(tr_linked > 0, "the ring links under AG-TR");
    assert!(ts_linked > 0, "the ring links under AG-TS");
}

#[test]
fn random_schedules_match_the_dense_reference_every_epoch() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let num_tasks = 16usize;
        let mut used: Vec<Vec<usize>> = Vec::new();
        let mut epochs = Vec::new();
        for epoch in 0..5 {
            let mut batch = Vec::new();
            // Epoch 3 is the quiet one; the rest grow and touch old
            // accounts, with timestamps in any order.
            let arrivals = if epoch == 2 {
                0
            } else {
                rng.gen_range(1usize..14)
            };
            for _ in 0..arrivals {
                let account = rng.gen_range(0usize..14);
                if used.len() <= account {
                    used.resize(account + 1, Vec::new());
                }
                let task = rng.gen_range(0usize..num_tasks);
                if used[account].contains(&task) {
                    continue;
                }
                used[account].push(task);
                batch.push((
                    account,
                    task,
                    rng.gen_range(-90f64..-40.0),
                    rng.gen_range(0f64..4.0 * 3600.0),
                ));
            }
            epochs.push(batch);
        }
        check_every_method(num_tasks, &epochs);
    }
}

#[test]
fn a_few_dirty_accounts_in_a_larger_campaign_match_the_dense_reference() {
    // 160 accounts with three 5-account rings. After the first epoch only
    // the last member of each ring and one lone account are dirty, so the
    // index probes their own cells and keys instead of sweeping the
    // campaign, and each ring's edges to its clean, lower-numbered
    // members must come back from the dirty member's probe.
    let config = ScaledCampaignConfig {
        num_rings: 3,
        ..ScaledCampaignConfig::new(160).with_seed(4)
    };
    let campaign = ScaledCampaign::generate(&config);
    let data = &campaign.data;
    let n = data.num_accounts();
    let last_of_its_ring = |a: usize| {
        campaign.is_sybil[a] && (a + 1..n).all(|b| campaign.owners[b] != campaign.owners[a])
    };
    let mut late_accounts: Vec<usize> = (0..n).filter(|&a| last_of_its_ring(a)).collect();
    assert_eq!(late_accounts.len(), 3);
    late_accounts.push(
        (0..n)
            .find(|&a| !campaign.is_sybil[a])
            .expect("a lone account"),
    );
    let mut first = Vec::new();
    let mut late = Vec::new();
    for r in data.reports() {
        let arrival = (r.account, r.task, r.value, r.timestamp);
        // Each late account's first report arrives an epoch late, moving
        // its first endpoint and changing its task set.
        if late_accounts.contains(&r.account) && data.trajectory_of(r.account)[0].task == r.task {
            late.push(arrival);
        } else {
            first.push(arrival);
        }
    }
    let epochs = vec![first, late, Vec::new()];
    let tr = AgTr::default();
    let linked = check_schedule(tr, DenseReference::Tr(tr), data.num_tasks(), &epochs);
    assert!(linked > 0, "the rings link under AG-TR");
    let ts = AgTs::new(0.0);
    let linked = check_schedule(ts, DenseReference::Ts(ts), data.num_tasks(), &epochs);
    assert!(linked > 0, "the rings link under AG-TS");
}
