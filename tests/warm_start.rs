//! Warm-start contract on the 202-group sybil-replay campaign: an epoch
//! that re-runs Algorithm 2 on unchanged reports, seeded with the previous
//! epoch's group weights, must converge in ≤2 iterations (vs ~5 cold) and
//! land on the *same bits* as a cold run's fixed point.
//!
//! The bit-identity anchor: seeding line 7 with the cold run's final
//! weights reproduces its final truths bitwise (same Eq. 5 arithmetic the
//! cold run ended on), so the warm run's single iteration computes exactly
//! what cold iteration n+1 would — and a cold run capped at n+1 iterations
//! is the reference fixed point it must match bit-for-bit. (An exact
//! `delta == 0` fixed point is unreachable here: at 520 tasks the loop
//! settles into a 1–2 ulp limit cycle, so the anchor is the trajectory
//! iterate, not a zero-delta state.)

use sybil_td::core::{AgTr, FrameworkConfig, PerfectGrouping, SybilResistantTd};
use sybil_td::platform::{EpochConfig, EpochEngine};
use sybil_td::runtime::rng::{Rng, SeedableRng, StdRng};
use sybil_td::truth::{ConvergenceCriterion, SensingData};

/// The determinism suite's large-campaign shape: 220 accounts over 520
/// tasks at 20% density, 200 legit singleton groups plus the Sybil tail
/// collapsed into 2 replay groups → 202 groups.
fn sybil_replay_campaign(seed: u64) -> (SensingData, Vec<usize>) {
    const ACCOUNTS: usize = 220;
    const TASKS: usize = 520;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = SensingData::new(TASKS);
    let mut labels = Vec::with_capacity(ACCOUNTS);
    for a in 0..ACCOUNTS {
        labels.push(if a < 200 { a } else { 200 + (a - 200) / 10 });
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) < 0.2 {
                let value = (t as f64 * 0.31).sin() * 15.0 + rng.gen_range(-2f64..2.0);
                data.add_report(a, t, value, t as f64 + a as f64 * 1e-3);
            }
        }
    }
    (data, labels)
}

fn bits(truths: &[Option<f64>]) -> Vec<Option<u64>> {
    truths.iter().map(|t| t.map(f64::to_bits)).collect()
}

fn weight_bits(weights: &[f64]) -> Vec<u64> {
    weights.iter().map(|w| w.to_bits()).collect()
}

#[test]
fn warm_started_epoch_reaches_the_cold_fixed_point_in_at_most_two_iterations() {
    let (data, labels) = sybil_replay_campaign(11);
    let framework = SybilResistantTd::new(PerfectGrouping::new(labels.clone()));

    // Epoch N: cold run at the default tolerance.
    let cold = framework.discover(&data, &[]);
    assert_eq!(cold.grouping.len(), 202);
    assert!(cold.converged);
    assert!(!cold.warm_started);
    assert!(
        cold.iterations >= 4,
        "cold start should need several iterations, took {}",
        cold.iterations
    );

    // Epoch N+1: unchanged reports, seeded with epoch N's weights.
    let warm = framework.discover_with_grouping_seeded(
        &data,
        cold.grouping.clone(),
        Some(&cold.group_weights),
    );
    assert!(warm.warm_started);
    assert!(warm.converged);
    assert!(
        warm.iterations <= 2,
        "warm start took {} iterations (cold took {})",
        warm.iterations,
        cold.iterations
    );

    // Reference fixed point: the cold trajectory run for exactly one more
    // iteration. Its first n deltas retrace the cold run; the warm run's
    // one iteration must be bit-identical to its last — truths, weights
    // and the convergence-trace entry alike.
    let capped = FrameworkConfig {
        convergence: ConvergenceCriterion::new(cold.iterations + 1, 0.0),
        ..FrameworkConfig::default()
    };
    let reference =
        SybilResistantTd::with_config(PerfectGrouping::new(labels), capped).discover(&data, &[]);
    assert_eq!(reference.iterations, cold.iterations + 1);
    assert_eq!(
        weight_bits(&reference.convergence_trace[..cold.iterations]),
        weight_bits(&cold.convergence_trace),
        "the capped run must retrace the cold trajectory"
    );
    assert_eq!(
        bits(&warm.truths),
        bits(&reference.truths),
        "warm truths must be bit-identical to the cold fixed point"
    );
    assert_eq!(
        weight_bits(&warm.group_weights),
        weight_bits(&reference.group_weights),
        "warm group weights must match the cold fixed point bitwise"
    );
    assert_eq!(
        warm.convergence_trace[0].to_bits(),
        reference.convergence_trace[cold.iterations].to_bits(),
        "the warm iteration is the cold run's next iteration, bit-for-bit"
    );

    // And semantically the two fixed points coincide: the warm epoch moves
    // no truth by more than the convergence tolerance.
    for (w, c) in warm.truths.iter().zip(&cold.truths) {
        let (w, c) = (w.unwrap(), c.unwrap());
        assert!((w - c).abs() <= 1e-6, "warm {w} vs cold {c}");
    }

    // A seed that no longer fits the grouping is ignored, not trusted:
    // the run falls back to the cold path.
    let stale = framework.discover_with_grouping_seeded(
        &data,
        cold.grouping.clone(),
        Some(&cold.group_weights[..10]),
    );
    assert!(!stale.warm_started);
    assert_eq!(stale.iterations, cold.iterations);
    assert_eq!(bits(&stale.truths), bits(&cold.truths));
}

#[test]
fn incremental_regrouping_keeps_the_steady_state_warm_path() {
    // The incremental epoch path must preserve the warm-start contract:
    // with no new reports the cached edges are all kept (zero fresh
    // distance evaluations), the grouping shape is unchanged, and the
    // seeded Algorithm 2 run settles in ≤2 iterations from the previous
    // epoch's weights.
    let (data, _) = sybil_replay_campaign(11);
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        data.num_tasks(),
        EpochConfig::default(),
    );
    for r in data.reports() {
        engine
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("ingest");
    }

    let first = engine.run_epoch();
    assert!(!first.warm_started, "epoch 1 has no seed");
    assert!(
        first.iterations >= 3,
        "cold epoch should need several iterations, took {}",
        first.iterations
    );

    let second = engine.run_epoch();
    assert!(
        second.warm_started,
        "steady-state epoch must reuse the seed"
    );
    assert!(second.converged);
    assert!(
        second.iterations <= 2,
        "steady-state warm epoch took {} iterations (cold took {})",
        second.iterations,
        first.iterations
    );
    // Nothing was dirty, so the regrouping is a pure republish.
    assert_eq!(second.labels, first.labels);
    assert_eq!(second.num_reports, first.num_reports);
    for (w, c) in second.truths.iter().zip(&first.truths) {
        let (w, c) = (w.unwrap(), c.unwrap());
        assert!(
            (w - c).abs() <= 1e-6,
            "steady-state truth moved: {w} vs {c}"
        );
    }
}
