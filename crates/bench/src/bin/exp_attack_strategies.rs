//! Extension experiment: framework robustness against adaptive attackers.
//!
//! The paper's attacker replays one walk and fabricates a constant value.
//! A grouping-aware attacker can work harder: shift values subtly
//! (`Offset`), re-walk per account (`PerAccountWalks`, evading AG-TR), or
//! split its task set across accounts (`SubsetTasks`, evading AG-TS).
//! This experiment quantifies what each tactic buys the attacker and what
//! it costs, measuring CRH and TD-TR MAE plus AG-TR grouping ARI.
//!
//! Run with: `cargo run -p srtd-bench --release --bin exp_attack_strategies [seeds]`

use srtd_bench::table::Table;
use srtd_core::{
    AccountGrouping, AgFp, AgTr, AgVal, CombineMode, CombinedGrouping, SybilResistantTd,
};
use srtd_metrics::{adjusted_rand_index, mae};
use srtd_sensing::{AttackerSpec, EvasionTactic, FabricationStrategy, Scenario, ScenarioConfig};
use srtd_truth::{Crh, TruthDiscovery};

struct Case {
    name: &'static str,
    strategy: FabricationStrategy,
    evasion: EvasionTactic,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "fabricate -50 (paper)",
            strategy: FabricationStrategy::paper_default(),
            evasion: EvasionTactic::None,
        },
        Case {
            name: "duplicate measurement",
            strategy: FabricationStrategy::DuplicateMeasurement { jitter_std: 0.3 },
            evasion: EvasionTactic::None,
        },
        Case {
            name: "offset -8 dBm",
            strategy: FabricationStrategy::Offset {
                delta: -8.0,
                jitter_std: 0.3,
            },
            evasion: EvasionTactic::None,
        },
        Case {
            name: "fabricate + per-account walks",
            strategy: FabricationStrategy::paper_default(),
            evasion: EvasionTactic::PerAccountWalks,
        },
        Case {
            name: "fabricate + subset tasks 0.5",
            strategy: FabricationStrategy::paper_default(),
            evasion: EvasionTactic::SubsetTasks { fraction: 0.5 },
        },
    ]
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    println!("Extension — adaptive attack strategies ({seeds} seeds, full activeness)\n");

    let mut t = Table::new(
        [
            "attack",
            "CRH MAE",
            "TD-TR MAE",
            "TD-JOIN MAE",
            "TD-JOIN+VAL MAE",
            "AG-TR ARI",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut measured: Vec<(&'static str, f64, f64, f64, f64, f64)> = Vec::new();
    for case in cases() {
        let (mut crh, mut ours, mut joined, mut joined_val, mut ari) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for seed in 0..seeds {
            let attackers = vec![
                AttackerSpec::paper_attack_i()
                    .with_strategy(case.strategy)
                    .with_evasion(case.evasion),
                AttackerSpec::paper_attack_ii()
                    .with_strategy(case.strategy)
                    .with_evasion(case.evasion),
            ];
            let s = Scenario::generate(
                &ScenarioConfig::paper_default()
                    .with_seed(seed)
                    .with_attackers(attackers),
            );
            crh += mae(&Crh.discover(&s.data).truths_or(0.0), &s.ground_truth).expect("lengths");
            let r = SybilResistantTd::new(AgTr::default()).discover(&s.data, &s.fingerprints);
            ours += mae(&r.truths_or(0.0), &s.ground_truth).expect("lengths");
            let g = AgTr::default().group(&s.data, &s.fingerprints);
            ari += adjusted_rand_index(g.labels(), &s.owners);
            // Join of device evidence (AG-FP, immune to behavioural
            // evasion) and trajectory evidence (AG-TR).
            let join = CombinedGrouping::new(
                vec![Box::new(AgFp::default()), Box::new(AgTr::default())],
                CombineMode::Join,
            );
            let r = SybilResistantTd::new(AgTr::default())
                .discover_with_grouping(&s.data, join.group(&s.data, &s.fingerprints));
            joined += mae(&r.truths_or(0.0), &s.ground_truth).expect("lengths");
            // Value-coordination evidence closes the behavioural-evasion
            // gap: evading accounts still push coordinated claims.
            let join_val = CombinedGrouping::new(
                vec![
                    Box::new(AgFp::default()),
                    Box::new(AgTr::default()),
                    Box::new(AgVal::default()),
                ],
                CombineMode::Join,
            );
            let r = SybilResistantTd::new(AgTr::default())
                .discover_with_grouping(&s.data, join_val.group(&s.data, &s.fingerprints));
            joined_val += mae(&r.truths_or(0.0), &s.ground_truth).expect("lengths");
        }
        let n = seeds as f64;
        measured.push((
            case.name,
            crh / n,
            ours / n,
            joined / n,
            joined_val / n,
            ari / n,
        ));
        t.add_row(vec![
            case.name.to_string(),
            format!("{:.2}", crh / n),
            format!("{:.2}", ours / n),
            format!("{:.2}", joined / n),
            format!("{:.2}", joined_val / n),
            format!("{:.3}", ari / n),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape:");
    println!("  * paper attack: TD-TR crushes it (high ARI, low MAE);");
    println!("  * duplicate-measurement (rapacious): barely hurts accuracy at");
    println!("    all — the copies are honest data;");
    println!("  * offset: bounds the attacker's damage to |delta| even for CRH,");
    println!("    and TD-TR keeps it smaller;");
    println!("  * per-account walks / subset tasks: AG-TR's ARI collapses —");
    println!("    the accounts' reported trajectories really are independent —");
    println!("    and TD-TR degrades to CRH. The evasions work, but cost the");
    println!("    attacker real per-account effort or attack power;");
    println!("  * TD-JOIN (AG-FP ∪ AG-TR): device-fingerprint evidence is");
    println!("    immune to behavioural evasion, so the combined grouping");
    println!("    keeps MAE below CRH even under both evasion tactics — the");
    println!("    concrete payoff of the paper's future-work combination;");
    println!("  * TD-JOIN+VAL adds value-coordination evidence (AG-VAL, our");
    println!("    extension): a manipulating attacker must push coordinated");
    println!("    values no matter how it randomizes behaviour, so the full");
    println!("    join stays near the no-evasion accuracy for every tactic");
    println!("    except duplicate-measurement — which needs no defense.");

    let paper = measured[0];
    assert!(
        paper.2 < paper.1 * 0.5,
        "TD-TR should crush the paper attack"
    );
    let duplicate = measured[1];
    assert!(
        duplicate.1 < 6.0,
        "duplicate attack should be nearly harmless to CRH"
    );
    let offset = measured[2];
    assert!(
        offset.1 < 9.0,
        "offset attack damage must be bounded by |delta|"
    );
    assert!(
        offset.2 <= offset.1 + 0.5,
        "TD-TR should not lose to CRH under offset"
    );
    let evasive = measured[3];
    assert!(
        evasive.5 < paper.5 - 0.2,
        "per-account walks should break AG-TR grouping"
    );
    assert!(
        evasive.3 < evasive.1 - 2.0,
        "TD-JOIN should stay below CRH under per-account-walk evasion"
    );
    assert!(
        evasive.4 < 6.0,
        "TD-JOIN+VAL should nearly neutralize walk evasion: {}",
        evasive.4
    );
    let subset = measured[4];
    assert!(
        subset.1 < paper.1,
        "subset attack is weaker than the full attack"
    );
    assert!(
        subset.3 < subset.1 + 0.5,
        "TD-JOIN should not lose to CRH under subset evasion"
    );
    assert!(
        subset.4 < 6.0,
        "TD-JOIN+VAL should nearly neutralize subset evasion: {}",
        subset.4
    );
    println!("\n[shape checks passed]");
}
