//! Golden bit pins: Algorithm 2's output and the epoch engine's rendered
//! snapshots, reduced to 64-bit digests that were recorded once and must
//! never move.
//!
//! Every other equivalence suite compares two paths of the current code
//! against each other (1 vs N threads, incremental vs batch, warm fold vs
//! cold build). These pins compare the current code against fixed
//! numbers instead, so a change that moves both sides of such a pair at
//! once — a different order inside the per-task group arena, a
//! re-associated sum in Eq. 3, the loss reduction or Eq. 5, a different
//! integer or float spelling in the JSON renderer — still fails here.
//!
//! The Algorithm 2 digests fold in, per run: every truth's bits, every
//! group weight's bits, the convergence trace's bits, the iteration count,
//! the two flags and the grouping's labels. Each case runs every
//! [`GroupAggregation`], cold and then warm-seeded from the cold weights,
//! at 1 and at 4 worker threads; both thread counts must hit the one
//! pinned digest. On a mismatch the message prints the digest the code
//! produced.
//!
//! The account-level digests fold in, per algorithm (`MeanVote`,
//! `MedianVote`, `Crh`, `Catd`, `Gtm`, `RobustCrh`) and over every
//! campaign in turn: every truth's bits, every weight's bits, the
//! iteration count and the `converged` flag.
//!
//! The fingerprint digest folds in the bits of `fingerprint_features` for
//! seeded captures of every Table-IV model, the bits of one odd,
//! mixed-length `stream_features_batch` (so both its paired and its
//! single-stream transforms are pinned), and, per paper scenario, every
//! account's fingerprint bits and AG-FP's labels.

use std::sync::{Mutex, MutexGuard, PoisonError};
use sybil_td::core::{
    AccountGrouping, AgFp, AgTr, AgTs, FrameworkConfig, FrameworkResult, GroupAggregation,
    Grouping, SybilResistantTd,
};
use sybil_td::fingerprint::catalog::standard_catalog;
use sybil_td::fingerprint::{fingerprint_features, CaptureConfig};
use sybil_td::platform::{EpochConfig, EpochEngine};
use sybil_td::runtime::json::ToJson;
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::runtime::rng::{Rng, SeedableRng, SliceRandom, StdRng};
use sybil_td::sensing::{ScaledCampaign, ScaledCampaignConfig, Scenario, ScenarioConfig};
use sybil_td::signal::stream_features_batch;
use sybil_td::truth::{
    Catd, Crh, Gtm, MeanVote, MedianVote, Report, RobustCrh, SensingData, TruthDiscovery,
    TruthDiscoveryResult,
};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn result(&mut self, r: &FrameworkResult) {
        self.word(r.truths.len() as u64);
        for t in &r.truths {
            self.word(t.map_or(u64::MAX, f64::to_bits));
        }
        self.word(r.group_weights.len() as u64);
        for w in &r.group_weights {
            self.word(w.to_bits());
        }
        self.word(r.convergence_trace.len() as u64);
        for d in &r.convergence_trace {
            self.word(d.to_bits());
        }
        self.word(r.iterations as u64);
        self.word(u64::from(r.converged) << 1 | u64::from(r.warm_started));
        for &label in r.grouping.labels() {
            self.word(label as u64);
        }
    }

    fn truth_result(&mut self, r: &TruthDiscoveryResult) {
        self.word(r.truths.len() as u64);
        for t in &r.truths {
            self.word(t.map_or(u64::MAX, f64::to_bits));
        }
        self.word(r.weights.len() as u64);
        for w in &r.weights {
            self.word(w.to_bits());
        }
        self.word(r.iterations as u64);
        self.word(u64::from(r.converged));
    }
}

const AGGREGATIONS: [GroupAggregation; 3] = [
    GroupAggregation::Mean,
    GroupAggregation::Median,
    GroupAggregation::AbsoluteDeviationWeighted,
];

/// Holds the worker count at `n` until dropped, then restores the
/// default; the tests of this file take turns, so each run really uses
/// the count it asked for.
struct Threads(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Threads {
    fn set(n: usize) -> Self {
        static EXCLUSIVE: Mutex<()> = Mutex::new(());
        let guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
        set_max_threads(n);
        Self(guard)
    }
}

impl Drop for Threads {
    fn drop(&mut self) {
        set_max_threads(0);
    }
}

/// The digest of every configuration's cold and warm run on one grouping.
fn framework_digest(data: &SensingData, grouping: &Grouping) -> u64 {
    let mut digest = Digest::new();
    for aggregation in AGGREGATIONS {
        let framework = SybilResistantTd::with_config(
            sybil_td::core::SingletonGrouping,
            FrameworkConfig {
                aggregation,
                ..FrameworkConfig::default()
            },
        );
        let cold = framework.discover_with_grouping_seeded(data, grouping.clone(), None);
        let warm = framework.discover_with_grouping_seeded(
            data,
            grouping.clone(),
            Some(&cold.group_weights),
        );
        assert!(warm.warm_started, "the cold weights fit the grouping");
        digest.result(&cold);
        digest.result(&warm);
    }
    digest.0
}

/// Checks one case against its pin at 1 and at 4 worker threads.
fn assert_framework_pin(case: &str, data: &SensingData, grouping: &Grouping, pin: u64) {
    for threads in [1, 4] {
        let _threads = Threads::set(threads);
        let got = framework_digest(data, grouping);
        assert_eq!(
            got, pin,
            "{case} at {threads} threads: digest {got:#018x}, pinned {pin:#018x}"
        );
    }
}

/// Table I of the paper with Table III's timestamps (accounts 0..6 are the
/// paper's 1, 2, 3, 4', 4'', 4''').
fn table_i() -> SensingData {
    let mut d = SensingData::new(4);
    let ts = |m: f64, s: f64| 10.0 * 3600.0 + m * 60.0 + s;
    for (account, task, value, m, s) in [
        (0, 0, -84.48, 0.0, 35.0),
        (0, 1, -82.11, 2.0, 42.0),
        (0, 2, -75.16, 10.0, 22.0),
        (0, 3, -72.71, 13.0, 41.0),
        (1, 1, -72.27, 4.0, 15.0),
        (1, 2, -77.21, 6.0, 1.0),
        (2, 0, -72.41, 1.0, 21.0),
        (2, 1, -91.49, 4.0, 5.0),
        (2, 3, -73.55, 8.0, 28.0),
        (3, 0, -50.0, 1.0, 10.0),
        (3, 2, -50.0, 15.0, 24.0),
        (3, 3, -50.0, 20.0, 6.0),
        (4, 0, -50.0, 1.0, 34.0),
        (4, 2, -50.0, 16.0, 8.0),
        (4, 3, -50.0, 21.0, 25.0),
        (5, 0, -50.0, 2.0, 35.0),
        (5, 2, -50.0, 17.0, 35.0),
        (5, 3, -50.0, 22.0, 2.0),
    ] {
        d.add_report(account, task, value, ts(m, s));
    }
    d
}

/// A 2 000-account `ScaledCampaign` with 96 tasks, so Algorithm 2's
/// per-task maps take the pool (64 tasks and up) and its loss reduction
/// merges two chunks, the last one partial.
fn scaled_2k() -> ScaledCampaign {
    ScaledCampaign::generate(&ScaledCampaignConfig {
        num_tasks: 96,
        ..ScaledCampaignConfig::new(2_000).with_seed(11)
    })
}

/// 240 accounts in groups of 1 to 6 over 120 tasks, with every report
/// inserted in one shuffled order: inside a group, members report a task
/// in no particular account order, so Eq. 3's sums see the members in
/// report order, not account order. Values carry full mantissas, so a
/// re-associated sum changes bits.
fn random_campaign() -> (SensingData, Grouping) {
    let mut rng = StdRng::seed_from_u64(23);
    let (accounts, tasks) = (240usize, 120usize);
    let mut labels = Vec::with_capacity(accounts);
    let mut group = 0usize;
    while labels.len() < accounts {
        let size = rng.gen_range(1usize..7).min(accounts - labels.len());
        labels.extend(std::iter::repeat_n(group, size));
        group += 1;
    }
    labels.shuffle(&mut rng);
    let mut reports = Vec::new();
    for (account, &label) in labels.iter().enumerate() {
        for task in 0..tasks {
            if rng.gen_range(0f64..1.0) < 0.3 {
                reports.push(Report {
                    account,
                    task,
                    value: -70.0 + rng.gen_range(-25f64..25.0) + label as f64 * 1e-3,
                    timestamp: rng.gen_range(0f64..1e5),
                });
            }
        }
    }
    reports.shuffle(&mut rng);
    let mut data = SensingData::new(tasks);
    data.fold_batch(&reports);
    (data, Grouping::from_labels(&labels))
}

#[test]
fn table_i_results_are_pinned() {
    let data = table_i();
    let oracle = Grouping::from_labels(&[0, 1, 2, 3, 3, 3]);
    assert_framework_pin("Table I, oracle", &data, &oracle, 0x30db_0101_354e_7288);
    assert_eq!(
        AgTr::default().group(&data, &[]),
        oracle,
        "AG-TR finds the ring"
    );
    let singletons = Grouping::singletons(data.num_accounts());
    assert_framework_pin(
        "Table I, singletons",
        &data,
        &singletons,
        0xf42e_c697_86c4_2eba,
    );
}

#[test]
fn scaled_campaign_results_are_pinned() {
    let campaign = scaled_2k();
    let data = &campaign.data;
    let tr = AgTr::default().group(data, &[]);
    assert!(tr.len() < data.num_accounts(), "AG-TR merges the rings");
    assert_framework_pin("ScaledCampaign 2k, AG-TR", data, &tr, 0x4ddb_cf8b_2c6e_9307);
    let ts = AgTs::new(0.01).group(data, &[]);
    assert!(ts.len() < data.num_accounts(), "AG-TS merges accounts");
    assert_framework_pin("ScaledCampaign 2k, AG-TS", data, &ts, 0x1bf3_e846_23f4_a832);
}

#[test]
fn random_campaign_results_are_pinned() {
    let (data, grouping) = random_campaign();
    // The property the campaign exists for: some multi-member group
    // reports some task in descending account order.
    let out_of_order = (0..data.num_tasks()).any(|t| {
        let accounts: Vec<usize> = data.task_claims(t).0.iter().map(|&a| a as usize).collect();
        accounts.iter().enumerate().any(|(i, &a)| {
            accounts[i + 1..]
                .iter()
                .any(|&b| b < a && grouping.group_of(a) == grouping.group_of(b))
        })
    });
    assert!(out_of_order);
    assert_framework_pin("random campaign", &data, &grouping, 0x2361_c770_aad3_393e);
}

/// Replays a 600-account campaign into an engine in six timestamp-ordered
/// batches plus one epoch with nothing new, and digests every rendered
/// snapshot with its wall-clock `duration_ns` zeroed.
fn replay_digest<G: AccountGrouping>(method: G) -> u64 {
    let campaign = ScaledCampaign::generate(&ScaledCampaignConfig {
        num_tasks: 80,
        ..ScaledCampaignConfig::new(600).with_seed(5)
    });
    let mut reports = campaign.data.reports().to_vec();
    reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(method),
        campaign.data.num_tasks(),
        EpochConfig::default(),
    );
    let mut digest = Digest::new();
    let mut render = |engine: &mut EpochEngine<G>| {
        let mut snapshot = (*engine.run_epoch()).clone();
        snapshot.duration_ns = 0;
        digest.bytes(snapshot.to_json().render().as_bytes());
    };
    for batch in reports.chunks(reports.len().div_ceil(6)) {
        for r in batch {
            engine
                .ingest(r.account, r.task, r.value, r.timestamp)
                .expect("a campaign report");
        }
        render(&mut engine);
    }
    render(&mut engine);
    digest.0
}

#[test]
fn rendered_epoch_snapshots_are_pinned() {
    for (name, pin) in [
        ("AG-TR", 0x40d4_8c26_f3ce_d3ed),
        ("AG-TS", 0x7fe5_332b_a1fd_f70c),
    ] {
        for threads in [1, 4] {
            let _threads = Threads::set(threads);
            let got = match name {
                "AG-TR" => replay_digest(AgTr::default()),
                _ => replay_digest(AgTs::new(0.01)),
            };
            assert_eq!(
                got, pin,
                "{name} replay at {threads} threads: digest {got:#018x}, pinned {pin:#018x}"
            );
        }
    }
}

/// Small seeded campaigns of 1–15 accounts over 1–7 tasks, reports
/// inserted in shuffled order, a third of the accounts biased by up to
/// ±30, and some trailing accounts reserved without a report. The noise
/// scale varies per campaign up to 10¹², where CRH's truth steps stay
/// above the tolerance until the iteration cap; sparse, single-account
/// and zero-weight cases all occur.
fn small_random_campaigns() -> Vec<SensingData> {
    (0..40u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let tasks = rng.gen_range(1usize..8);
            let accounts = rng.gen_range(1usize..16);
            let density = rng.gen_range(0.2f64..1.0);
            let scale = [0.01, 1.0, 40.0, 1e12][rng.gen_range(0usize..4)];
            let truths: Vec<f64> = (0..tasks).map(|_| rng.gen_range(-95f64..-40.0)).collect();
            let mut reports = Vec::new();
            for account in 0..accounts {
                let bias = if rng.gen_range(0usize..3) == 0 {
                    rng.gen_range(-30f64..30.0)
                } else {
                    0.0
                };
                for (task, truth) in truths.iter().enumerate() {
                    if rng.gen_range(0f64..1.0) < density {
                        reports.push(Report {
                            account,
                            task,
                            value: truth + bias + scale * rng.gen_range(-1f64..1.0),
                            timestamp: rng.gen_range(0f64..1e4),
                        });
                    }
                }
            }
            reports.shuffle(&mut rng);
            let mut data = SensingData::new(tasks);
            data.fold_batch(&reports);
            data.reserve_accounts(accounts + rng.gen_range(0usize..3));
            data
        })
        .collect()
}

/// Every campaign the account-level pins run over: Table I with and
/// without its Sybil rows, the paper's scenario (seeds 0–5, legit
/// activeness 1.0, attacker activeness 0.2, 0.6 and 1.0), the 240-account
/// random campaign, the small random campaigns and an empty campaign with
/// reserved accounts.
fn account_level_campaigns() -> Vec<SensingData> {
    let attacked = table_i();
    let mut clean = SensingData::new(attacked.num_tasks());
    let honest: Vec<Report> = attacked
        .reports()
        .iter()
        .filter(|r| r.account < 3)
        .copied()
        .collect();
    clean.fold_batch(&honest);
    let mut campaigns = vec![clean, attacked];
    for alpha in [0.2, 0.6, 1.0] {
        for seed in 0..6 {
            let config = ScenarioConfig::paper_default()
                .with_seed(seed)
                .with_activeness(1.0, alpha);
            campaigns.push(Scenario::generate(&config).data);
        }
    }
    campaigns.push(random_campaign().0);
    campaigns.extend(small_random_campaigns());
    let mut empty = SensingData::new(3);
    empty.reserve_accounts(4);
    campaigns.push(empty);
    campaigns
}

#[test]
fn account_level_results_are_pinned() {
    let algorithms: [(&dyn TruthDiscovery, u64); 6] = [
        (&MeanVote, 0x86fa_c6c7_d9b1_73ff),
        (&MedianVote, 0xf7c0_4d58_8493_36aa),
        (&Crh, 0x0a25_5967_b195_5181),
        (&Catd, 0x4257_b45b_43b7_9bad),
        (&Gtm, 0x3b97_e34c_c6e8_f74d),
        (&RobustCrh, 0x1f91_ddf3_8c76_c0dd),
    ];
    let campaigns = account_level_campaigns();
    let mismatches: Vec<String> = algorithms
        .iter()
        .filter_map(|&(algorithm, pin)| {
            let mut digest = Digest::new();
            for data in &campaigns {
                digest.truth_result(&algorithm.discover(data));
            }
            let got = digest.0;
            (got != pin).then(|| {
                format!(
                    "{}: digest {got:#018x}, pinned {pin:#018x}",
                    algorithm.name()
                )
            })
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// Everything AG-FP computes, as one digest: two seeded captures of each
/// Table-IV model, a batch of seven streams of lengths 0 to 700 (padded
/// lengths 1, 512 and 1024: three pairs and one single transform), and
/// each paper scenario's fingerprints and AG-FP labels.
fn fingerprint_digest() -> u64 {
    let mut digest = Digest::new();
    let capture_config = CaptureConfig::paper_default();
    for (i, entry) in standard_catalog().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(0xF1A6 + i as u64);
        let device = entry.model.manufacture(&mut rng);
        for _ in 0..2 {
            for x in fingerprint_features(&device.capture(&capture_config, &mut rng)) {
                digest.word(x.to_bits());
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(26);
    let streams: Vec<Vec<f64>> = [0usize, 1, 300, 400, 500, 600, 700]
        .iter()
        .map(|&len| {
            (0..len)
                .map(|i| 9.81 + (i as f64 * 0.37).sin() + rng.gen_range(-0.5f64..0.5))
                .collect()
        })
        .collect();
    for stream in stream_features_batch(&streams, 100.0) {
        for x in stream.to_vec() {
            digest.word(x.to_bits());
        }
    }
    for seed in 0..6 {
        let scenario = Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed));
        for print in &scenario.fingerprints {
            for &x in print {
                digest.word(x.to_bits());
            }
        }
        let grouping = AgFp::default().group(&scenario.data, &scenario.fingerprints);
        for &label in grouping.labels() {
            digest.word(label as u64);
        }
    }
    digest.0
}

#[test]
fn fingerprint_results_are_pinned() {
    const PIN: u64 = 0xf14d_83bb_13e4_1cd8;
    for threads in [1, 4] {
        let _threads = Threads::set(threads);
        let got = fingerprint_digest();
        assert_eq!(
            got, PIN,
            "fingerprints and AG-FP at {threads} threads: digest {got:#018x}, pinned {PIN:#018x}"
        );
    }
}
