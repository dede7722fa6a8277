//! Extension experiment: replay-jitter sweep against AG-TR and the
//! stochastic audit backstop.
//!
//! The jittered-replay generator gives every Sybil account a private
//! clock offset drawn from `N(0, σ)`. At the default φ = 1 with
//! hour-unit timestamps, the pairwise trajectory DTW of a paper-scale
//! walk crosses the threshold once the offsets differ by a few hundred
//! seconds, so sweeping σ from 0 to 3 600 s walks AG-TR's detection
//! from certain down toward zero. The stochastic audit does not look at
//! timestamps at all, so its conviction rate must stay flat across the
//! sweep — that flatness, and AG-TR's decay, are the asserted shape.
//!
//! Each cell drives the incremental epoch engine (AG-TR is an
//! `EdgeGrouping`) with the audit stage enabled, exactly like the
//! `srtd-server` loop.
//!
//! Run with: `cargo run -p srtd-bench --release --bin exp_adaptive_jitter [seeds] [--fast]`

use srtd_bench::table::Table;
use srtd_core::{AgTr, SybilResistantTd};
use srtd_platform::{AuditPolicy, EpochConfig, EpochEngine};
use srtd_sensing::{
    AttackType, AttackerSpec, EvasionTactic, FabricationStrategy, Scenario, ScenarioConfig,
};

const JITTERS: [f64; 6] = [0.0, 150.0, 300.0, 600.0, 1200.0, 3600.0];

struct Outcome {
    grouped: usize,
    convicted: usize,
    either: usize,
    sybils: usize,
    honest_flagged: usize,
}

fn run_sweep_cell(s: &Scenario, seed: u64, epochs: u64) -> Outcome {
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(AgTr::default()),
        s.data.num_tasks(),
        EpochConfig::default(),
    );
    engine.set_audit(AuditPolicy {
        targets_per_epoch: 5,
        ..AuditPolicy::default().with_seed(seed.wrapping_mul(97).wrapping_add(3))
    });
    engine.set_audit_reference(s.ground_truth.iter().map(|&t| Some(t)).collect());
    for r in s.data.reports() {
        engine
            .ingest(r.account, r.task, r.value, r.timestamp)
            .expect("campaign reports are valid");
    }
    for _ in 0..epochs {
        engine.run_epoch();
    }
    let report = engine.audit_report(3);
    let convicted = report.convicted();
    let mut out = Outcome {
        grouped: 0,
        convicted: 0,
        either: 0,
        sybils: 0,
        honest_flagged: 0,
    };
    for a in 0..s.num_accounts() {
        let in_cluster = report
            .suspects()
            .iter()
            .any(|g| g.accounts.binary_search(&a).is_ok());
        let is_convicted = convicted.binary_search(&a).is_ok();
        if s.is_sybil[a] {
            out.sybils += 1;
            out.grouped += in_cluster as usize;
            out.convicted += is_convicted as usize;
            out.either += (in_cluster || is_convicted) as usize;
        } else {
            out.honest_flagged += (in_cluster || is_convicted) as usize;
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let seeds: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if fast { 2 } else { 6 });
    let epochs: u64 = if fast { 10 } else { 16 };
    println!("Extension — replay jitter vs AG-TR with the audit backstop ({seeds} seeds, {epochs} epochs)\n");

    let mut t = Table::new(
        [
            "jitter σ (s)",
            "AG-TR grouped",
            "audit convicted",
            "either",
            "honest flagged",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut grouped_rates = Vec::new();
    let mut convicted_rates = Vec::new();
    let mut either_rates = Vec::new();
    let mut honest_total = 0usize;
    for &jitter in &JITTERS {
        let (mut grouped, mut convicted, mut either, mut sybils) = (0usize, 0usize, 0usize, 0usize);
        for seed in 0..seeds {
            // Unlike the `adaptive_jitter` preset this keeps the replay
            // order intact (`order_flips: 0`) so the sweep isolates the
            // clock-offset effect on AG-TR's timestamp DTW.
            let attacker = AttackerSpec {
                accounts: 5,
                attack_type: AttackType::SingleDevice,
                strategy: FabricationStrategy::paper_default(),
                evasion: EvasionTactic::JitteredReplay {
                    time_jitter_s: jitter,
                    order_flips: 0,
                },
            };
            let s = Scenario::generate(
                &ScenarioConfig {
                    attackers: vec![attacker],
                    ..ScenarioConfig::paper_default()
                }
                .with_seed(seed),
            );
            let out = run_sweep_cell(&s, seed, epochs);
            grouped += out.grouped;
            convicted += out.convicted;
            sybils += out.sybils;
            honest_total += out.honest_flagged;
            either += out.either;
        }
        let n = sybils as f64;
        grouped_rates.push(grouped as f64 / n);
        convicted_rates.push(convicted as f64 / n);
        either_rates.push(either as f64 / n);
        t.add_row(vec![
            format!("{jitter:.0}"),
            format!("{:.2}", grouped as f64 / n),
            format!("{:.2}", convicted as f64 / n),
            format!("{:.2}", either as f64 / n),
            format!("{honest_total}"),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape:");
    println!("  * AG-TR grouping decays from 1.0 toward 0.0 as the per-account");
    println!("    clock offsets push pairwise DTW past φ (rare chance");
    println!("    collisions keep the tail slightly above zero);");
    println!("  * audit convictions are timestamp-blind and stay flat;");
    println!("  * the union never drops below the audit floor, so the");
    println!("    framework degrades gracefully instead of cliff-dropping;");
    println!("  * no honest account is ever grouped or convicted.");

    assert!(
        grouped_rates[0] >= 0.99,
        "zero jitter is the paper replay — AG-TR must group it: {}",
        grouped_rates[0]
    );
    // Offsets are N(0, σ) per account, so even at σ = 3600 s a seed can
    // draw three accounts whose clocks happen to collide — the endpoint
    // is "mostly blind", not exactly zero.
    let last = *grouped_rates.last().unwrap();
    assert!(
        last <= 0.5,
        "σ = 3600 s should mostly break AG-TR edge formation: {last}"
    );
    assert!(
        last <= grouped_rates[0] - 0.5,
        "grouping detection must at least halve across the sweep: {grouped_rates:?}"
    );
    assert!(
        grouped_rates.windows(2).any(|w| w[1] < w[0] - 0.2),
        "grouping detection should decay across the sweep: {grouped_rates:?}"
    );
    for (i, &c) in convicted_rates.iter().enumerate() {
        assert!(
            c >= 0.5,
            "audit convictions must stay strong at σ = {} s: {c}",
            JITTERS[i]
        );
    }
    for (i, &e) in either_rates.iter().enumerate() {
        assert!(
            e >= convicted_rates[i] - 1e-9,
            "the union cannot drop below the audit floor at σ = {} s",
            JITTERS[i]
        );
    }
    assert_eq!(honest_total, 0, "no honest account may be flagged");
    println!("\n[shape checks passed]");
}
