//! Property tests pinning the adaptive-adversary generator contracts.
//!
//! Three contracts back the `exp_adaptive` experiment: generation is a
//! pure function of the seed regardless of worker-thread count,
//! camouflaged claims never leave the `truth ± 1.5σ` envelope off their
//! targets, and task mimicry draws every account task set from the
//! honest population's empirical marginal.

use srtd_runtime::parallel::set_max_threads;
use srtd_runtime::prop::{self, PropConfig};
use srtd_runtime::rng::{Rng, StdRng};
use srtd_runtime::{prop_assert, prop_assert_eq};
use srtd_sensing::{AttackerSpec, FabricationStrategy, Scenario, ScenarioConfig};

/// Campaign generation is expensive; run fewer cases than the harness
/// default (matches `scenario_properties.rs`).
fn cases() -> PropConfig {
    PropConfig {
        cases: 16,
        ..PropConfig::default()
    }
}

/// A random campaign with one of each adaptive attacker: jittered
/// replay, task mimicry over mixed devices, and the fully adaptive
/// camouflage attacker.
fn adaptive_config(rng: &mut StdRng) -> ScenarioConfig {
    let tasks = rng.gen_range(6usize..16);
    let legit = rng.gen_range(6usize..14);
    let jitter = rng.gen_range(0.0f64..2400.0);
    let devices = rng.gen_range(2usize..5);
    let seed = rng.gen_range(0u64..1000);
    let la = rng.gen_range(0.3f64..0.9);
    let aa = rng.gen_range(0.3f64..0.9);
    ScenarioConfig {
        num_tasks: tasks,
        num_legit: legit,
        attackers: vec![
            AttackerSpec::adaptive_jitter(jitter),
            AttackerSpec::adaptive_mimicry(devices),
            AttackerSpec::adaptive_full(devices),
        ],
        ..ScenarioConfig::paper_default()
    }
    .with_seed(seed)
    .with_activeness(la, aa)
}

/// Generation is a pure function of the config for every adaptive
/// tactic, and independent of the worker-thread count: campaigns
/// generated under 1 and 4 threads are byte-identical.
#[test]
fn adaptive_generation_is_seed_deterministic_across_thread_counts() {
    prop::check_with(cases(), adaptive_config, |cfg| {
        set_max_threads(1);
        let single = Scenario::generate(cfg);
        set_max_threads(4);
        let quad = Scenario::generate(cfg);
        set_max_threads(0);
        prop_assert_eq!(&single.data, &quad.data);
        prop_assert_eq!(&single.fingerprints, &quad.fingerprints);
        prop_assert_eq!(&single.owners, &quad.owners);
        prop_assert_eq!(&single.devices, &quad.devices);
        prop_assert_eq!(&single.attack_targets, &quad.attack_targets);
        prop_assert_eq!(&single.ground_truth, &quad.ground_truth);
        // And a fresh run under the default thread count matches too.
        let again = Scenario::generate(cfg);
        prop_assert_eq!(&single.data, &again.data);
        Ok(())
    });
}

/// A random campaign with a single camouflaged attacker whose envelope
/// parameters vary case to case.
fn camouflage_config(rng: &mut StdRng) -> (ScenarioConfig, f64, f64) {
    let delta = -rng.gen_range(14.0f64..30.0);
    let sigma = rng.gen_range(0.5f64..4.0);
    let target_fraction = rng.gen_range(0.1f64..1.0);
    let spec = AttackerSpec::paper_attack_i().with_strategy(FabricationStrategy::Camouflaged {
        delta,
        sigma,
        target_fraction,
    });
    let cfg = ScenarioConfig {
        num_tasks: rng.gen_range(5usize..14),
        attackers: vec![spec],
        ..ScenarioConfig::paper_default()
    }
    .with_seed(rng.gen_range(0u64..1000));
    (cfg, delta, sigma)
}

/// Camouflaged claims respect the hard envelope for any (δ, σ, target
/// fraction): off-target deviations from truth stay within ±1.5σ and
/// target deviations within δ ± 1.5σ. No claim leaks the lie off its
/// targets, and every attacker has at least one target.
#[test]
fn camouflage_envelope_holds_for_any_parameters() {
    prop::check_with(cases(), camouflage_config, |(cfg, delta, sigma)| {
        let s = Scenario::generate(cfg);
        let targets = &s.attack_targets[0];
        prop_assert!(!targets.is_empty(), "camouflage must target something");
        let band = 1.5 * sigma + 1e-9;
        for (a, &sybil) in s.is_sybil.iter().enumerate() {
            if !sybil {
                continue;
            }
            for r in s.data.account_reports(a) {
                let dev = r.value - s.ground_truth[r.task];
                if targets.binary_search(&r.task).is_ok() {
                    prop_assert!(
                        (dev - delta).abs() <= band,
                        "target dev {dev} vs delta {delta} ± {band}"
                    );
                } else {
                    prop_assert!(dev.abs() <= band, "off-target dev {dev} > {band}");
                }
            }
        }
        Ok(())
    });
}

/// A random campaign with one mimicry attacker; activeness below 1 so
/// the honest marginal has real structure to mimic.
fn mimicry_config(rng: &mut StdRng) -> ScenarioConfig {
    ScenarioConfig {
        num_tasks: rng.gen_range(6usize..16),
        num_legit: rng.gen_range(6usize..14),
        attackers: vec![AttackerSpec::adaptive_mimicry(rng.gen_range(2usize..5))],
        ..ScenarioConfig::paper_default()
    }
    .with_seed(rng.gen_range(0u64..1000))
    .with_activeness(rng.gen_range(0.3f64..0.8), rng.gen_range(0.3f64..0.8))
}

/// Mimicked task sets come from the honest marginal: whenever the
/// honest support is at least as large as the per-account task count,
/// every mimicking account's tasks sit inside that support, each set
/// has exactly the activeness-mandated size, and all sets union into
/// the single walk the attacker actually performs.
#[test]
fn mimicry_sets_stay_inside_the_honest_marginal() {
    prop::check_with(cases(), mimicry_config, |cfg| {
        let s = Scenario::generate(cfg);
        let k = cfg.tasks_per_account(cfg.attacker_activeness);
        let mut honest_support = std::collections::HashSet::new();
        for a in 0..s.num_accounts() {
            if !s.is_sybil[a] {
                honest_support.extend(s.data.tasks_of(a));
            }
        }
        let sybils: Vec<usize> = (0..s.num_accounts()).filter(|&a| s.is_sybil[a]).collect();
        let mut union = std::collections::HashSet::new();
        for &a in &sybils {
            let tasks = s.data.tasks_of(a);
            prop_assert_eq!(tasks.len(), k, "mimicked set size for account {a}");
            union.extend(tasks.iter().copied());
            if honest_support.len() >= k {
                for &t in &tasks {
                    prop_assert!(
                        honest_support.contains(&t),
                        "account {a} reports task {t} outside the honest support"
                    );
                }
            }
        }
        // The attacker walked each union task once: per-task Sybil report
        // counts equal the number of accounts whose draw contains it.
        for &t in &union {
            let reports = s
                .data
                .task_claims(t)
                .0
                .iter()
                .filter(|&&a| s.is_sybil[a as usize])
                .count();
            let drawn = sybils
                .iter()
                .filter(|&&a| s.data.tasks_of(a).contains(&t))
                .count();
            prop_assert_eq!(reports, drawn, "task {t} report multiplicity");
        }
        Ok(())
    });
}
