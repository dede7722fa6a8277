//! Complete campaign generation reproducing the paper's experimental setup.

use crate::attack::{AttackType, AttackerSpec, EvasionTactic, FabricationStrategy};
use crate::mobility::Walk;
use crate::poi::PoiMap;
use crate::user::MeasurementProfile;
use crate::world::WifiWorld;
use srtd_fingerprint::catalog::{standard_catalog, DeviceRole};
use srtd_fingerprint::{fingerprint_features, CaptureConfig, DeviceInstance};
use srtd_runtime::parallel::parallel_map;
use srtd_runtime::rng::SliceRandom;
use srtd_runtime::rng::StdRng;
use srtd_runtime::rng::{Rng, SeedableRng};
use srtd_truth::SensingData;

/// Window (seconds) over which participants start their walks. A real
/// campaign spreads volunteers over hours; trajectory-based grouping
/// relies on that spread to tell same-route users apart.
pub const CAMPAIGN_WINDOW_S: f64 = 7200.0;

/// Configuration of a generated campaign.
///
/// [`ScenarioConfig::paper_default`] reproduces §V-A: 10 Wi-Fi RSSI tasks,
/// 8 legitimate users with one account and one smartphone each, and 2
/// Sybil attackers with 5 accounts each — one Attack-I (single iPhone 6S)
/// and one Attack-II (iPhone SE + Nexus 6P). Activeness (Eq. 9) of both
/// populations is adjustable, which is exactly the sweep Figs. 6 and 7
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of sensing tasks `m`.
    pub num_tasks: usize,
    /// Number of legitimate users (one account, one device each).
    pub num_legit: usize,
    /// The Sybil attackers.
    pub attackers: Vec<AttackerSpec>,
    /// Activeness `α` of legitimate users.
    pub legit_activeness: f64,
    /// Activeness `α` of Sybil attackers.
    pub attacker_activeness: f64,
    /// Walking speed in m/s.
    pub walking_speed: f64,
    /// Fingerprint capture protocol.
    pub capture: CaptureConfig,
    /// RNG seed; every generated artifact is deterministic in it.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's experimental setup (§V-A) at full activeness.
    pub fn paper_default() -> Self {
        Self {
            num_tasks: 10,
            num_legit: 8,
            attackers: vec![
                AttackerSpec::paper_attack_i(),
                AttackerSpec::paper_attack_ii(),
            ],
            legit_activeness: 1.0,
            attacker_activeness: 1.0,
            walking_speed: 1.4,
            capture: CaptureConfig::paper_default(),
            seed: 0,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces both activeness levels (the Fig. 6/7 sweep axes).
    ///
    /// # Panics
    ///
    /// Panics if either value is outside `(0, 1]`.
    pub fn with_activeness(mut self, legit: f64, attacker: f64) -> Self {
        assert!(
            legit > 0.0 && legit <= 1.0,
            "legit activeness must be in (0,1]"
        );
        assert!(
            attacker > 0.0 && attacker <= 1.0,
            "attacker activeness must be in (0,1]"
        );
        self.legit_activeness = legit;
        self.attacker_activeness = attacker;
        self
    }

    /// Replaces the attacker roster.
    pub fn with_attackers(mut self, attackers: Vec<AttackerSpec>) -> Self {
        self.attackers = attackers;
        self
    }

    /// Validates structural constraints.
    ///
    /// # Panics
    ///
    /// Panics if there are no tasks, no legitimate users, or an invalid
    /// attacker spec.
    pub fn validate(&self) {
        assert!(self.num_tasks > 0, "campaign needs at least one task");
        assert!(self.num_legit > 0, "campaign needs legitimate users");
        assert!(self.walking_speed > 0.0, "walking speed must be positive");
        for a in &self.attackers {
            a.validate();
        }
    }

    /// Tasks an account with activeness `alpha` performs:
    /// `max(2, round(α·m))` clamped to `m` (the paper requires at least two
    /// tasks per account).
    pub fn tasks_per_account(&self, alpha: f64) -> usize {
        let k = (alpha * self.num_tasks as f64).round() as usize;
        k.max(2.min(self.num_tasks)).min(self.num_tasks)
    }
}

/// A generated campaign with full ground truth for evaluation.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The report matrix handed to truth discovery.
    pub data: SensingData,
    /// Per-account 80-dimensional device fingerprint features.
    pub fingerprints: Vec<Vec<f64>>,
    /// Ground-truth value per task.
    pub ground_truth: Vec<f64>,
    /// True owner (physical user) of each account — the reference
    /// partition ARI scores grouping against.
    pub owners: Vec<usize>,
    /// Device instance index used by each account.
    pub devices: Vec<usize>,
    /// Whether each account belongs to a Sybil attacker.
    pub is_sybil: Vec<bool>,
    /// Per-attacker target task lists (sorted). Non-empty only for
    /// attackers using [`FabricationStrategy::Camouflaged`]; on every
    /// other task those attackers report inside the honest envelope.
    pub attack_targets: Vec<Vec<usize>>,
    /// The device fleet (indexed by [`Scenario::devices`]).
    pub fleet: Vec<DeviceInstance>,
    /// The campus map.
    pub map: PoiMap,
}

impl Scenario {
    /// Generates a campaign from a configuration.
    ///
    /// Deterministic in `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ScenarioConfig::validate`]).
    pub fn generate(config: &ScenarioConfig) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let map = PoiMap::campus(config.num_tasks, config.seed);
        let world = WifiWorld::generate(&map, config.seed);

        let Fleet {
            devices: fleet,
            legit_pool,
            attack_i_pool,
            attack_ii_pool,
            mixed_pool,
        } = manufacture_fleet(config, &mut rng);

        let mut data = SensingData::new(config.num_tasks);
        // Captures are drawn inline (they consume the scenario RNG) but
        // feature extraction is pure, so it is deferred and fanned out over
        // the runtime's worker pool once all accounts exist.
        let mut captures = Vec::new();
        let mut owners = Vec::new();
        let mut devices = Vec::new();
        let mut is_sybil = Vec::new();
        let mut next_account = 0usize;
        // Empirical task marginal of the honest population, the
        // distribution task-mimicry attackers sample from.
        let mut honest_task_counts = vec![0usize; config.num_tasks];

        // Legitimate users: one account, one device, one walk each.
        let mut legit_iter = legit_pool.into_iter();
        for user in 0..config.num_legit {
            let device = legit_iter
                .next()
                .expect("fleet sized to cover all legitimate users");
            let profile = MeasurementProfile::sample(&mut rng);
            let k = config.tasks_per_account(config.legit_activeness);
            let tasks = choose_tasks(config.num_tasks, k, &mut rng);
            for &t in &tasks {
                honest_task_counts[t] += 1;
            }
            let start = rng.gen_range(0.0..CAMPAIGN_WINDOW_S);
            // Legit users visit in their own preferred (shuffled) order.
            let walk = Walk::plan_in_order(&map, &tasks, start, config.walking_speed, &mut rng);
            for visit in walk.visits() {
                let value = world.measure(visit.task, &profile, &mut rng);
                let submit = visit.arrival + rng.gen_range(5.0..40.0);
                data.add_report(next_account, visit.task, value, submit);
            }
            captures.push(fleet[device].capture(&config.capture, &mut rng));
            owners.push(user);
            devices.push(device);
            is_sybil.push(false);
            next_account += 1;
        }

        // Sybil attackers: one physical walk; every account reports each
        // visited POI back to back (the Table III timestamp pattern),
        // unless the spec's evasion tactic says otherwise.
        let mut a1 = attack_i_pool.into_iter();
        let mut a2 = attack_ii_pool.into_iter();
        let mut mixed = mixed_pool.into_iter();
        let mut attack_targets = Vec::with_capacity(config.attackers.len());
        for (a_idx, spec) in config.attackers.iter().enumerate() {
            let owner = config.num_legit + a_idx;
            let device_ids: Vec<usize> = match spec.attack_type {
                AttackType::SingleDevice => {
                    vec![a1.next().expect("fleet covers Attack-I attackers")]
                }
                AttackType::MultiDevice { devices } => (0..devices)
                    .map(|_| a2.next().expect("fleet covers Attack-II attackers"))
                    .collect(),
                AttackType::MixedDevices { devices } => (0..devices)
                    .map(|_| mixed.next().expect("fleet covers mixed-device attackers"))
                    .collect(),
            };
            let profile = MeasurementProfile::sample(&mut rng);
            let k = config.tasks_per_account(config.attacker_activeness);
            // Mimicry draws each account's task set from the honest
            // marginal; the attacker walks the union once. Every other
            // tactic shares one uniform draw across all accounts.
            let (tasks, account_tasks): (Vec<usize>, Vec<Vec<usize>>) =
                if matches!(spec.evasion, EvasionTactic::TaskMimicry) {
                    let per_account: Vec<Vec<usize>> = (0..spec.accounts)
                        .map(|_| sample_weighted_tasks(&honest_task_counts, k, &mut rng))
                        .collect();
                    let mut union: Vec<usize> = per_account.iter().flatten().copied().collect();
                    union.sort_unstable();
                    union.dedup();
                    union.shuffle(&mut rng);
                    (union, per_account)
                } else {
                    (choose_tasks(config.num_tasks, k, &mut rng), Vec::new())
                };
            // Camouflaged attackers pick their lie targets up front.
            let targets: Vec<usize> = match spec.strategy {
                FabricationStrategy::Camouflaged {
                    target_fraction, ..
                } => {
                    let mut pool = tasks.clone();
                    pool.shuffle(&mut rng);
                    let n = ((target_fraction * tasks.len() as f64).ceil() as usize)
                        .clamp(1, tasks.len());
                    pool.truncate(n);
                    pool.sort_unstable();
                    pool
                }
                _ => Vec::new(),
            };
            let start = rng.gen_range(0.0..CAMPAIGN_WINDOW_S);
            // The attacker walks once, in its own preferred order; all of
            // its accounts will replay this one walk.
            let walk = Walk::plan_in_order(&map, &tasks, start, config.walking_speed, &mut rng);

            let account_base = next_account;
            for j in 0..spec.accounts {
                let device = device_ids[j % device_ids.len()];
                captures.push(fleet[device].capture(&config.capture, &mut rng));
                owners.push(owner);
                devices.push(device);
                is_sybil.push(true);
                next_account += 1;
            }
            let truths = world.ground_truths();
            let claim = |task: usize, honest: f64, rng: &mut StdRng| match spec.strategy {
                FabricationStrategy::Fabricate { value, jitter_std } => {
                    value + rng.normal(0.0, jitter_std)
                }
                FabricationStrategy::DuplicateMeasurement { jitter_std } => {
                    honest + rng.normal(0.0, jitter_std)
                }
                FabricationStrategy::Offset { delta, jitter_std } => {
                    honest + delta + rng.normal(0.0, jitter_std)
                }
                FabricationStrategy::Camouflaged { delta, sigma, .. } => {
                    // Inside the honest envelope everywhere (truth ± 1.5σ
                    // hard bound); the lie rides on top only at targets.
                    let noise = rng.normal(0.0, sigma).clamp(-1.5 * sigma, 1.5 * sigma);
                    let lie = if targets.binary_search(&task).is_ok() {
                        delta
                    } else {
                        0.0
                    };
                    truths[task] + lie + noise
                }
            };
            match spec.evasion {
                EvasionTactic::None => {
                    for visit in walk.visits() {
                        let honest = world.measure(visit.task, &profile, &mut rng);
                        // Account switching takes time: submissions are
                        // sequential with tens of seconds between them.
                        let mut offset = rng.gen_range(5.0..20.0);
                        for j in 0..spec.accounts {
                            let value = claim(visit.task, honest, &mut rng);
                            data.add_report(
                                account_base + j,
                                visit.task,
                                value,
                                visit.arrival + offset,
                            );
                            offset += rng.gen_range(20.0..55.0);
                        }
                    }
                }
                EvasionTactic::PerAccountWalks => {
                    // The attacker physically re-walks the task set once
                    // per account: trajectories become independent.
                    for j in 0..spec.accounts {
                        let mut order = tasks.clone();
                        order.shuffle(&mut rng);
                        let start_j = rng.gen_range(0.0..CAMPAIGN_WINDOW_S);
                        let walk_j = Walk::plan_in_order(
                            &map,
                            &order,
                            start_j,
                            config.walking_speed,
                            &mut rng,
                        );
                        for visit in walk_j.visits() {
                            let honest = world.measure(visit.task, &profile, &mut rng);
                            let value = claim(visit.task, honest, &mut rng);
                            let submit = visit.arrival + rng.gen_range(5.0..40.0);
                            data.add_report(account_base + j, visit.task, value, submit);
                        }
                    }
                }
                EvasionTactic::SubsetTasks { fraction } => {
                    // One walk, but each account reports only a random
                    // subset of the visited tasks, diversifying task sets.
                    let per_account = ((fraction * walk.visits().len() as f64).ceil() as usize)
                        .clamp(1, walk.visits().len());
                    for visit in walk.visits() {
                        let honest = world.measure(visit.task, &profile, &mut rng);
                        let mut offset = rng.gen_range(5.0..20.0);
                        let mut reporters: Vec<usize> = (0..spec.accounts).collect();
                        reporters.shuffle(&mut rng);
                        // Keep expected per-account coverage at `fraction`.
                        let quota = (spec.accounts as f64 * per_account as f64
                            / walk.visits().len() as f64)
                            .round()
                            .clamp(1.0, spec.accounts as f64)
                            as usize;
                        for &j in reporters.iter().take(quota) {
                            let value = claim(visit.task, honest, &mut rng);
                            data.add_report(
                                account_base + j,
                                visit.task,
                                value,
                                visit.arrival + offset,
                            );
                            offset += rng.gen_range(20.0..55.0);
                        }
                    }
                }
                EvasionTactic::JitteredReplay {
                    time_jitter_s,
                    order_flips,
                } => {
                    // One walk, measured once per POI; each account
                    // replays it on a private clock (offset drawn from
                    // N(0, jitter), floored so no timestamp goes
                    // negative) with a few transposed claim positions.
                    let visits = walk.visits();
                    let honest: Vec<f64> = visits
                        .iter()
                        .map(|v| world.measure(v.task, &profile, &mut rng))
                        .collect();
                    let floor = -visits.first().map_or(0.0, |v| v.arrival);
                    for j in 0..spec.accounts {
                        let offset = rng.normal(0.0, time_jitter_s).max(floor);
                        // `order[slot]` = which true visit this account
                        // claims at time slot `slot`.
                        let mut order: Vec<usize> = (0..visits.len()).collect();
                        for _ in 0..order_flips {
                            if visits.len() >= 2 {
                                let i = rng.gen_range(0..visits.len() - 1);
                                order.swap(i, i + 1);
                            }
                        }
                        for (slot, &vi) in order.iter().enumerate() {
                            let value = claim(visits[vi].task, honest[vi], &mut rng);
                            let submit = visits[slot].arrival + offset + rng.gen_range(5.0..40.0);
                            data.add_report(account_base + j, visits[vi].task, value, submit);
                        }
                    }
                }
                EvasionTactic::TaskMimicry => {
                    // One walk over the union of the mimicked task sets;
                    // each account reports only its own draw, back to
                    // back like the no-evasion attacker.
                    for visit in walk.visits() {
                        let honest = world.measure(visit.task, &profile, &mut rng);
                        let mut offset = rng.gen_range(5.0..20.0);
                        for (j, tasks) in account_tasks.iter().enumerate() {
                            if !tasks.contains(&visit.task) {
                                continue;
                            }
                            let value = claim(visit.task, honest, &mut rng);
                            data.add_report(
                                account_base + j,
                                visit.task,
                                value,
                                visit.arrival + offset,
                            );
                            offset += rng.gen_range(20.0..55.0);
                        }
                    }
                }
            }
            attack_targets.push(targets);
        }

        // Per-account fingerprint feature extraction (FFTs over ~600-sample
        // streams) is the heaviest pure stage of generation; parallelize it.
        let fingerprints = parallel_map(&captures, fingerprint_features);

        Self {
            data,
            fingerprints,
            ground_truth: world.ground_truths().to_vec(),
            owners,
            devices,
            is_sybil,
            attack_targets,
            fleet,
            map,
        }
    }

    /// Number of accounts in the campaign.
    pub fn num_accounts(&self) -> usize {
        self.owners.len()
    }

    /// The account→device labeling (ground truth for evaluating AG-FP as a
    /// *device* grouper).
    pub fn device_labels(&self) -> &[usize] {
        &self.devices
    }
}

/// The manufactured device fleet with its role pools (indices into
/// `devices`).
struct Fleet {
    devices: Vec<DeviceInstance>,
    legit_pool: Vec<usize>,
    attack_i_pool: Vec<usize>,
    attack_ii_pool: Vec<usize>,
    mixed_pool: Vec<usize>,
}

/// Manufactures the device fleet and splits it into role pools.
///
/// Follows Table IV for the paper-scale setup and extends it by cycling
/// through the catalog for larger configurations.
fn manufacture_fleet(config: &ScenarioConfig, rng: &mut StdRng) -> Fleet {
    let catalog = standard_catalog();
    let mut fleet = Vec::new();
    let mut legit_pool = Vec::new();
    let mut attack_i_pool = Vec::new();
    let mut attack_ii_pool = Vec::new();
    for entry in &catalog {
        for unit in 0..entry.quantity {
            let idx = fleet.len();
            fleet.push(entry.model.manufacture(rng));
            // Only the first unit of an attack-role model attacks; spare
            // units (e.g. the second iPhone 6S, Nexus 6P #2/#3) are carried
            // by legitimate users, matching Table IV quantities.
            match (entry.role, unit) {
                (DeviceRole::AttackI, 0) => attack_i_pool.push(idx),
                (DeviceRole::AttackII, 0) => attack_ii_pool.push(idx),
                _ => legit_pool.push(idx),
            }
        }
    }
    // Demand beyond Table IV: manufacture extra units round-robin.
    let need_legit = config.num_legit;
    let need_a1 = config
        .attackers
        .iter()
        .filter(|a| matches!(a.attack_type, crate::attack::AttackType::SingleDevice))
        .count();
    let need_a2: usize = config
        .attackers
        .iter()
        .map(|a| match a.attack_type {
            crate::attack::AttackType::MultiDevice { devices } => devices,
            _ => 0,
        })
        .sum();
    let need_mixed: usize = config
        .attackers
        .iter()
        .map(|a| match a.attack_type {
            crate::attack::AttackType::MixedDevices { devices } => devices,
            _ => 0,
        })
        .sum();
    let mut model_cycle = 0usize;
    let mut extend = |pool: &mut Vec<usize>, need: usize, fleet: &mut Vec<DeviceInstance>| {
        while pool.len() < need {
            let entry = &catalog[model_cycle % catalog.len()];
            model_cycle += 1;
            pool.push(fleet.len());
            fleet.push(entry.model.manufacture(rng));
        }
    };
    extend(&mut legit_pool, need_legit, &mut fleet);
    extend(&mut attack_i_pool, need_a1, &mut fleet);
    extend(&mut attack_ii_pool, need_a2, &mut fleet);
    // Mixed-device attackers buy devices of *distinct* models: cycle the
    // catalog from its start so each attacker's consecutive slice spans
    // as many different models as the catalog holds.
    let mut mixed_pool = Vec::with_capacity(need_mixed);
    for i in 0..need_mixed {
        let entry = &catalog[i % catalog.len()];
        mixed_pool.push(fleet.len());
        fleet.push(entry.model.manufacture(rng));
    }
    Fleet {
        devices: fleet,
        legit_pool,
        attack_i_pool,
        attack_ii_pool,
        mixed_pool,
    }
}

/// Chooses `k` distinct tasks uniformly, in random visiting order.
fn choose_tasks(num_tasks: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..num_tasks).collect();
    all.shuffle(rng);
    all.truncate(k);
    all
}

/// Chooses up to `k` distinct tasks weighted by the honest population's
/// task counts (without replacement). Tasks no honest account performs
/// have weight zero and are only drawn — uniformly — once every weighted
/// task is exhausted, so a mimicking account's set stays inside the
/// honest support whenever that support is large enough.
fn sample_weighted_tasks(counts: &[usize], k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut avail: Vec<usize> = (0..counts.len()).collect();
    let mut out = Vec::with_capacity(k);
    while out.len() < k && !avail.is_empty() {
        let total: usize = avail.iter().map(|&t| counts[t]).sum();
        let pick = if total == 0 {
            rng.gen_range(0..avail.len())
        } else {
            let mut x = rng.gen_range(0.0..total as f64);
            let mut pick = avail.len() - 1;
            for (i, &t) in avail.iter().enumerate() {
                let w = counts[t] as f64;
                if x < w {
                    pick = i;
                    break;
                }
                x -= w;
            }
            pick
        };
        out.push(avail.swap_remove(pick));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_scenario(seed: u64) -> Scenario {
        Scenario::generate(&ScenarioConfig::paper_default().with_seed(seed))
    }

    #[test]
    fn paper_shape_is_reproduced() {
        let s = paper_scenario(1);
        assert_eq!(s.data.num_tasks(), 10);
        assert_eq!(s.num_accounts(), 18);
        assert_eq!(s.fleet.len(), 11); // Table IV
        assert_eq!(s.fingerprints.len(), 18);
        assert!(s.fingerprints.iter().all(|f| f.len() == 80));
        assert_eq!(s.is_sybil.iter().filter(|&&x| x).count(), 10);
        // Owners: 8 legit users + 2 attackers = 10 physical users.
        let max_owner = *s.owners.iter().max().unwrap();
        assert_eq!(max_owner, 9);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = paper_scenario(5);
        let b = paper_scenario(5);
        assert_eq!(a.data, b.data);
        assert_eq!(a.fingerprints, b.fingerprints);
        let c = paper_scenario(6);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn sybil_accounts_share_their_attacker_task_set() {
        let s = paper_scenario(2);
        for owner in [8usize, 9] {
            let accounts: Vec<usize> = (0..s.num_accounts())
                .filter(|&a| s.owners[a] == owner)
                .collect();
            assert_eq!(accounts.len(), 5);
            let reference = s.data.tasks_of(accounts[0]);
            for &a in &accounts[1..] {
                assert_eq!(s.data.tasks_of(a), reference);
            }
        }
    }

    #[test]
    fn sybil_timestamps_are_sequential_at_each_task() {
        let s = paper_scenario(3);
        let accounts: Vec<usize> = (0..s.num_accounts())
            .filter(|&a| s.owners[a] == 8)
            .collect();
        for &task in &s.data.tasks_of(accounts[0]) {
            let mut times: Vec<f64> = accounts
                .iter()
                .flat_map(|&a| {
                    s.data
                        .account_reports(a)
                        .filter(|r| r.task == task)
                        .map(|r| r.timestamp)
                })
                .collect();
            times.sort_by(f64::total_cmp);
            assert_eq!(times.len(), 5);
            for w in times.windows(2) {
                let gap = w[1] - w[0];
                assert!((15.0..=70.0).contains(&gap), "gap {gap}");
            }
        }
    }

    #[test]
    fn fabricated_values_sit_near_minus_50() {
        let s = paper_scenario(4);
        for (a, &sybil) in s.is_sybil.iter().enumerate() {
            for r in s.data.account_reports(a) {
                if sybil {
                    assert!((r.value + 50.0).abs() < 2.0, "sybil claim {}", r.value);
                } else {
                    let truth = s.ground_truth[r.task];
                    assert!((r.value - truth).abs() < 15.0, "legit claim {}", r.value);
                }
            }
        }
    }

    #[test]
    fn attack_ii_accounts_span_two_devices() {
        let s = paper_scenario(7);
        let devices: std::collections::HashSet<usize> = (0..s.num_accounts())
            .filter(|&a| s.owners[a] == 9)
            .map(|a| s.devices[a])
            .collect();
        assert_eq!(devices.len(), 2);
        // And Attack-I stays on one device.
        let devices_a1: std::collections::HashSet<usize> = (0..s.num_accounts())
            .filter(|&a| s.owners[a] == 8)
            .map(|a| s.devices[a])
            .collect();
        assert_eq!(devices_a1.len(), 1);
    }

    #[test]
    fn activeness_controls_task_counts() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(8)
            .with_activeness(0.2, 0.5);
        let s = Scenario::generate(&cfg);
        for a in 0..s.num_accounts() {
            let k = s.data.tasks_of(a).len();
            if s.is_sybil[a] {
                assert_eq!(k, 5, "attacker accounts at α=0.5 over 10 tasks");
            } else {
                assert_eq!(k, 2, "legit accounts at α=0.2 over 10 tasks");
            }
        }
    }

    #[test]
    fn larger_than_table_iv_configs_extend_the_fleet() {
        let cfg = ScenarioConfig {
            num_legit: 20,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(9);
        let s = Scenario::generate(&cfg);
        assert_eq!(s.num_accounts(), 30);
        assert!(s.fleet.len() >= 23);
    }

    #[test]
    fn per_account_walks_diversify_trajectories() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(21)
            .with_attackers(vec![
                AttackerSpec::paper_attack_i().with_evasion(EvasionTactic::PerAccountWalks)
            ]);
        let s = Scenario::generate(&cfg);
        let accounts: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
        assert_eq!(accounts.len(), 5);
        // Task sets still coincide (same attacker task set)...
        let reference = s.data.tasks_of(accounts[0]);
        for &a in &accounts[1..] {
            assert_eq!(s.data.tasks_of(a), reference);
        }
        // ...but first-submission times are spread far beyond the ~55 s
        // account-switching gaps of the no-evasion attacker.
        let mut first_times: Vec<f64> = accounts
            .iter()
            .map(|&a| {
                s.data
                    .account_reports(a)
                    .map(|r| r.timestamp)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        first_times.sort_by(f64::total_cmp);
        let spread = first_times.last().unwrap() - first_times.first().unwrap();
        assert!(spread > 300.0, "walks not spread: {spread}");
    }

    #[test]
    fn subset_tasks_diversify_task_sets() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(22)
            .with_attackers(vec![AttackerSpec::paper_attack_ii()
                .with_evasion(EvasionTactic::SubsetTasks { fraction: 0.5 })]);
        let s = Scenario::generate(&cfg);
        let accounts: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
        // Accounts no longer share identical task sets.
        let sets: std::collections::HashSet<Vec<usize>> =
            accounts.iter().map(|&a| s.data.tasks_of(a)).collect();
        assert!(sets.len() > 1, "subset evasion produced identical sets");
        // And the attack is diluted: fewer than 5 reports per task.
        for t in 0..s.data.num_tasks() {
            let sybil_reports = s
                .data
                .task_claims(t)
                .0
                .iter()
                .filter(|&&a| s.is_sybil[a as usize])
                .count();
            assert!(
                sybil_reports <= 4,
                "task {t} has {sybil_reports} sybil reports"
            );
        }
    }

    #[test]
    fn offset_strategy_shifts_by_delta() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(23)
            .with_attackers(vec![AttackerSpec::paper_attack_i().with_strategy(
                FabricationStrategy::Offset {
                    delta: -8.0,
                    jitter_std: 0.1,
                },
            )]);
        let s = Scenario::generate(&cfg);
        for (a, &sybil) in s.is_sybil.iter().enumerate() {
            if !sybil {
                continue;
            }
            for r in s.data.account_reports(a) {
                let shift = r.value - s.ground_truth[r.task];
                // Honest measurement noise (attacker profile) + delta.
                assert!(
                    (-8.0 - 9.0..=-8.0 + 9.0).contains(&shift),
                    "offset claim drifted: {shift}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "legit activeness")]
    fn zero_activeness_rejected() {
        ScenarioConfig::paper_default().with_activeness(0.0, 1.0);
    }

    #[test]
    fn jittered_replay_spreads_per_account_clocks() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(31)
            .with_attackers(vec![AttackerSpec::adaptive_jitter(900.0)]);
        let s = Scenario::generate(&cfg);
        let accounts: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
        assert_eq!(accounts.len(), 5);
        // Same task set (one walk)...
        let mut reference = s.data.tasks_of(accounts[0]);
        reference.sort_unstable();
        for &a in &accounts[1..] {
            let mut t = s.data.tasks_of(a);
            t.sort_unstable();
            assert_eq!(t, reference);
        }
        // ...but first-report times spread far beyond account-switching
        // gaps, and no timestamp went negative.
        let first_times: Vec<f64> = accounts
            .iter()
            .map(|&a| {
                s.data
                    .account_reports(a)
                    .map(|r| r.timestamp)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let lo = first_times.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = first_times
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 120.0, "clocks not spread: {}", hi - lo);
        for &a in &accounts {
            for r in s.data.account_reports(a) {
                assert!(r.timestamp >= 0.0, "negative timestamp {}", r.timestamp);
            }
        }
    }

    #[test]
    fn zero_jitter_replay_degenerates_to_replay() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(32)
            .with_attackers(vec![AttackerSpec::adaptive_jitter(0.0).with_evasion(
                EvasionTactic::JitteredReplay {
                    time_jitter_s: 0.0,
                    order_flips: 0,
                },
            )]);
        let s = Scenario::generate(&cfg);
        let accounts: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
        // All accounts report every task within the submit-lag window.
        for &task in &s.data.tasks_of(accounts[0]) {
            let times: Vec<f64> = accounts
                .iter()
                .flat_map(|&a| {
                    s.data
                        .account_reports(a)
                        .filter(|r| r.task == task)
                        .map(|r| r.timestamp)
                })
                .collect();
            assert_eq!(times.len(), 5);
            let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(hi - lo < 40.0, "zero jitter spread {}", hi - lo);
        }
    }

    #[test]
    fn camouflaged_claims_stay_in_envelope_off_target() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(33)
            .with_attackers(vec![AttackerSpec::paper_attack_i()
                .with_strategy(FabricationStrategy::camouflaged_default())]);
        let s = Scenario::generate(&cfg);
        let targets = &s.attack_targets[0];
        assert!(!targets.is_empty());
        for (a, &sybil) in s.is_sybil.iter().enumerate() {
            if !sybil {
                continue;
            }
            for r in s.data.account_reports(a) {
                let truth = s.ground_truth[r.task];
                let dev = r.value - truth;
                if targets.binary_search(&r.task).is_ok() {
                    // Lied: shifted by delta ± the camouflage envelope.
                    assert!(
                        (-18.0 - 3.0..=-18.0 + 3.0).contains(&dev),
                        "target deviation {dev}"
                    );
                } else {
                    assert!(dev.abs() <= 3.0 + 1e-9, "off-target deviation {dev}");
                }
            }
        }
    }

    #[test]
    fn mimicry_task_sets_diverge_and_track_honest_support() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(34)
            .with_activeness(0.6, 0.5)
            .with_attackers(vec![AttackerSpec::adaptive_mimicry(3)]);
        let s = Scenario::generate(&cfg);
        let mut honest_support = std::collections::HashSet::new();
        let accounts: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
        for a in 0..s.num_accounts() {
            if !s.is_sybil[a] {
                honest_support.extend(s.data.tasks_of(a));
            }
        }
        // Honest support covers enough tasks for the mimicked sets to
        // stay inside it (8 users × 6 tasks over 10).
        assert!(honest_support.len() >= 5);
        let sets: std::collections::HashSet<Vec<usize>> = accounts
            .iter()
            .map(|&a| {
                let mut t = s.data.tasks_of(a);
                t.sort_unstable();
                t
            })
            .collect();
        assert!(sets.len() > 1, "mimicry produced identical task sets");
        for &a in &accounts {
            for t in s.data.tasks_of(a) {
                assert!(honest_support.contains(&t), "task {t} outside support");
            }
        }
    }

    #[test]
    fn mixed_devices_span_distinct_models() {
        let cfg = ScenarioConfig::paper_default()
            .with_seed(35)
            .with_attackers(vec![AttackerSpec::adaptive_mimicry(4)]);
        let s = Scenario::generate(&cfg);
        let devices: std::collections::HashSet<usize> = (0..s.num_accounts())
            .filter(|&a| s.is_sybil[a])
            .map(|a| s.devices[a])
            .collect();
        assert_eq!(devices.len(), 4, "accounts must span all mixed devices");
        let models: std::collections::HashSet<&str> = devices
            .iter()
            .map(|&d| s.fleet[d].model_name.as_str())
            .collect();
        assert_eq!(models.len(), 4, "mixed devices must be distinct models");
    }

    #[test]
    fn legacy_configs_generate_identical_campaigns() {
        // The adaptive extensions must not perturb the RNG schedule of
        // pre-existing configurations: the paper campaign at a fixed seed
        // keeps its exact report matrix.
        let s = paper_scenario(5);
        assert_eq!(s.attack_targets, vec![Vec::<usize>::new(); 2]);
        let t = paper_scenario(5);
        assert_eq!(s.data, t.data);
    }
}
