//! Shared fixtures for the grouping equivalence suites
//! (`blocked_equivalence.rs`, `ag_tr_equivalence.rs`, `edge_index.rs`,
//! `incremental_group.rs`): the all-pairs reference grouping and the
//! checks against it, a depth-first components labeler independent of
//! the product's union-find, the 202-group Sybil-replay campaign, and the
//! epoch-engine replay of a generated scenario.

use sybil_td::core::{AccountGrouping, AgTr, AgTs, Grouping, SybilResistantTd};
use sybil_td::graph::UnionFind;
use sybil_td::platform::{EpochConfig, EpochEngine, ReportRules};
use sybil_td::runtime::parallel::set_max_threads;
use sybil_td::runtime::prop_assert;
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::sensing::Scenario;
use sybil_td::truth::SensingData;

/// AG-TS or AG-TR exactly as the paper defines it: link every pair the
/// exact dense matrix accepts — Eq. 6 affinity above ρ, or Eq. 8
/// dissimilarity below φ — and take connected components. Every pair is
/// scored in full, so this one reference is both exhaustive (no blocking)
/// and unpruned; the product's sparse paths must reproduce it exactly.
#[derive(Debug, Clone, Copy)]
pub enum DenseReference {
    Ts(AgTs),
    Tr(AgTr),
}

impl DenseReference {
    /// The accepted pairs `(i, j, value)` with `i < j`, in lexicographic
    /// order, read off [`AgTs::affinity_matrix`] or
    /// [`AgTr::dissimilarity_matrix`].
    pub fn accepted_pairs(&self, data: &SensingData) -> Vec<(usize, usize, f64)> {
        let matrix = match self {
            Self::Ts(ag) => ag.affinity_matrix(data),
            Self::Tr(ag) => ag.dissimilarity_matrix(data),
        };
        let accepts = |v: f64| match self {
            Self::Ts(ag) => v > ag.rho(),
            Self::Tr(ag) => v < ag.phi(),
        };
        let mut pairs = Vec::new();
        for (i, row) in matrix.iter().enumerate() {
            for (j, &v) in row.iter().enumerate().skip(i + 1) {
                if accepts(v) {
                    pairs.push((i, j, v));
                }
            }
        }
        pairs
    }
}

/// The connected components of `pairs` over `n` accounts.
pub fn components(n: usize, pairs: &[(usize, usize, f64)]) -> Grouping {
    let mut uf = UnionFind::new(n);
    for &(i, j, _) in pairs {
        uf.union(i, j);
    }
    Grouping::new(uf.into_groups())
}

/// The connected components of `edges` over `n` accounts by iterative
/// depth-first search — a batch labeler that shares no code with the
/// union-find every product path runs.
pub fn dfs_components(n: usize, edges: &[(usize, usize)]) -> Grouping {
    let mut adjacent = vec![Vec::new(); n];
    for &(i, j) in edges {
        adjacent[i].push(j);
        adjacent[j].push(i);
    }
    let mut labels = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if labels[start] != usize::MAX {
            continue;
        }
        labels[start] = count;
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for &v in &adjacent[u] {
                if labels[v] == usize::MAX {
                    labels[v] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    Grouping::from_labels(&labels)
}

impl AccountGrouping for DenseReference {
    fn group(&self, data: &SensingData, _fingerprints: &[Vec<f64>]) -> Grouping {
        components(data.num_accounts(), &self.accepted_pairs(data))
    }

    /// The wrapped method's name, so audit reports compare equal.
    fn name(&self) -> &'static str {
        match self {
            Self::Ts(ag) => ag.name(),
            Self::Tr(ag) => ag.name(),
        }
    }
}

/// Checks the product against `reference` on `data`, at 1 and 4 worker
/// threads:
///
/// 1. `group()` equals the dense reference's components (groups and
///    labels);
/// 2. `affinity_edges` / `dissimilarity_edges` equal the dense matrix's
///    accepted pairs, values bit for bit — neither blocking nor pruning
///    drops an accepted pair, and pruning perturbs no kept distance.
pub fn check_against_dense(reference: DenseReference, data: &SensingData) -> Result<(), String> {
    let expected = reference.accepted_pairs(data);
    let expected_bits: Vec<(usize, usize, u64)> = expected
        .iter()
        .map(|&(i, j, v)| (i, j, v.to_bits()))
        .collect();
    let expected_grouping = components(data.num_accounts(), &expected);
    for threads in [1usize, 4] {
        set_max_threads(threads);
        let (grouping, edges) = match reference {
            DenseReference::Ts(ag) => (ag.group(data, &[]), ag.affinity_edges(data)),
            DenseReference::Tr(ag) => (ag.group(data, &[]), ag.dissimilarity_edges(data)),
        };
        set_max_threads(0);
        let what = format!("{reference:?} at {threads} thread(s)");
        prop_assert!(
            grouping == expected_grouping,
            "{what}: group() differs from the dense components"
        );
        let edge_bits: Vec<(usize, usize, u64)> =
            edges.iter().map(|&(i, j, v)| (i, j, v.to_bits())).collect();
        prop_assert!(
            edge_bits == expected_bits,
            "{what}: {} edges, the dense matrix accepts {}",
            edge_bits.len(),
            expected_bits.len()
        );
    }
    Ok(())
}

/// [`check_against_dense`], panicking with its reason on a mismatch.
pub fn assert_matches_dense(reference: DenseReference, data: &SensingData) {
    if let Err(reason) = check_against_dense(reference, data) {
        panic!("{reason}");
    }
}

/// A 202-true-group synthetic campaign: 200 legitimate accounts with
/// random trajectories plus 2 Sybil attackers whose 10 accounts each
/// replay one physical walk with small per-account timestamp offsets —
/// so blocking and pruning have genuine merges to preserve, not just
/// singletons.
pub fn campaign_202_groups(seed: u64) -> SensingData {
    const LEGIT: usize = 200;
    const ATTACKERS: usize = 2;
    const SYBILS: usize = 10;
    const TASKS: usize = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = SensingData::new(TASKS);
    for a in 0..LEGIT {
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) < 0.25 {
                data.add_report(a, t, -70.0 + rng.gen_range(-5f64..5.0), t as f64 * 30.0);
            }
        }
    }
    for attacker in 0..ATTACKERS {
        // One walk per attacker...
        let mut walk: Vec<(usize, f64)> = Vec::new();
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) < 0.25 {
                walk.push((t, t as f64 * 30.0 + rng.gen_range(0f64..5.0)));
            }
        }
        // ...replayed by each of its accounts a few seconds apart.
        for s in 0..SYBILS {
            let account = LEGIT + attacker * SYBILS + s;
            for &(t, ts) in &walk {
                data.add_report(account, t, -50.0, ts + s as f64 * 2.0);
            }
        }
    }
    data
}

/// Replays `scenario` through the engine's front door under the Wi-Fi
/// rules, grouping with `method`: move the clock past the last report,
/// enroll every account with its fingerprint, ingest each account's
/// trajectory, and run one epoch.
pub fn replay_on_engine<G: AccountGrouping>(scenario: &Scenario, method: G) -> EpochEngine<G> {
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(method),
        scenario.data.num_tasks(),
        EpochConfig::default(),
    )
    .with_report_rules(ReportRules::WifiRssi);
    let max_ts = scenario
        .data
        .reports()
        .iter()
        .map(|r| r.timestamp)
        .fold(0.0, f64::max);
    engine.advance_clock(max_ts + 1.0);
    for (account, fp) in scenario.fingerprints.iter().enumerate() {
        engine.enroll(account, fp.clone(), 0.0).expect("enroll");
        for r in scenario.data.trajectory_of(account) {
            engine
                .ingest(account, r.task, r.value, r.timestamp)
                .expect("ingest");
        }
    }
    engine.run_epoch();
    engine
}
