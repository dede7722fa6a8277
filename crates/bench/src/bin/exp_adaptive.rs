//! Extension experiment: adaptive adversaries vs the defense matrix.
//!
//! Sweeps attack generators (paper replay, jittered replay vs AG-TR,
//! task mimicry over mixed devices vs AG-TS/AG-FP, fully adaptive
//! camouflage) against defense configurations (no defense, stochastic
//! audit only, combined behavioural grouping AG-TR ∪ AG-TS, grouping +
//! audit), reporting per cell the Sybil detection rate, the honest
//! false-positive rate, and the mean detection epoch.
//!
//! AG-FP stays out of the defense join deliberately: it is a *device*
//! grouper, and the simulated fleet (like the paper's Table IV) carries
//! several same-model devices among honest users, whose fingerprints
//! cluster — at the account level that flags honest users. Its signal
//! enters the sweep from the attack side instead: the mixed-devices
//! generator models the attacker that defeats fingerprint grouping.
//!
//! Every cell drives the epoch engine the way the server does: reports
//! arrive in timestamp order over several ingest epochs, then the
//! campaign idles while the stochastic audit keeps spot-checking. An
//! account counts as detected the first epoch it sits in a flagged
//! cluster (≥ 3 accounts) or is convicted by the audit.
//!
//! Run with: `cargo run -p srtd-bench --release --bin exp_adaptive [seeds] [--fast]`

use srtd_bench::table::Table;
use srtd_core::SybilResistantTd;
use srtd_core::{AgTr, AgTs, CombineMode, CombinedGrouping, SingletonGrouping};
use srtd_platform::{AuditPolicy, EpochConfig, EpochEngine};
use srtd_sensing::{
    AttackType, AttackerSpec, EvasionTactic, FabricationStrategy, Scenario, ScenarioConfig,
};

/// Ingest epochs the campaign is spread over (by timestamp), after which
/// the engine idles under audit until `total_epochs`.
const INGEST_EPOCHS: usize = 4;

struct Attack {
    name: &'static str,
    attackers: Vec<AttackerSpec>,
}

fn attacks() -> Vec<Attack> {
    vec![
        Attack {
            name: "honest only",
            attackers: Vec::new(),
        },
        Attack {
            name: "paper replay",
            attackers: vec![
                AttackerSpec::paper_attack_i(),
                AttackerSpec::paper_attack_ii(),
            ],
        },
        Attack {
            name: "jittered replay",
            attackers: vec![AttackerSpec::adaptive_jitter(2400.0)],
        },
        Attack {
            name: "mimicry + mixed devices",
            attackers: vec![AttackerSpec::adaptive_mimicry(3)],
        },
        Attack {
            name: "fully adaptive",
            attackers: vec![AttackerSpec::adaptive_full(3)],
        },
        Attack {
            // The `adaptive_audit` integration test's ring: camouflaged
            // values on a jittered replay over mixed-model devices. It
            // evades AG-TR (the integration test pins that), but the
            // shared task set still hands it to AG-TS — evading the full
            // join additionally requires mimicry (the row above).
            name: "camouflaged jitter",
            attackers: vec![AttackerSpec {
                accounts: 5,
                attack_type: AttackType::MixedDevices { devices: 3 },
                strategy: FabricationStrategy::camouflaged_default(),
                evasion: EvasionTactic::JitteredReplay {
                    time_jitter_s: 2400.0,
                    order_flips: 1,
                },
            }],
        },
    ]
}

#[derive(Clone, Copy)]
struct Defense {
    name: &'static str,
    grouping: bool,
    audit: bool,
}

const DEFENSES: [Defense; 4] = [
    Defense {
        name: "none",
        grouping: false,
        audit: false,
    },
    Defense {
        name: "audit",
        grouping: false,
        audit: true,
    },
    Defense {
        name: "group",
        grouping: true,
        audit: false,
    },
    Defense {
        name: "group+audit",
        grouping: true,
        audit: true,
    },
];

fn grouping_for(defense: &Defense) -> CombinedGrouping {
    if defense.grouping {
        CombinedGrouping::new(
            vec![Box::new(AgTr::default()), Box::new(AgTs::default())],
            CombineMode::Join,
        )
    } else {
        CombinedGrouping::new(vec![Box::new(SingletonGrouping)], CombineMode::Join)
    }
}

/// Per-account detection epochs for one (scenario, defense) run: the
/// start of the flagged streak that persists through the final epoch,
/// `None` for accounts not flagged at the end. Mid-ingest flags that
/// later clear (partial trajectories make early grouping noisy) do not
/// count as detections.
fn run_cell(s: &Scenario, defense: &Defense, seed: u64, total_epochs: usize) -> Vec<Option<u64>> {
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(grouping_for(defense)),
        s.data.num_tasks(),
        EpochConfig::default(),
    );
    if defense.audit {
        engine.set_audit(AuditPolicy {
            targets_per_epoch: 5,
            ..AuditPolicy::default().with_seed(seed.wrapping_mul(31).wrapping_add(7))
        });
        engine.set_audit_reference(s.ground_truth.iter().map(|&t| Some(t)).collect());
    }
    // Timestamp-ordered arrival, chunked into ingest epochs.
    let mut order: Vec<usize> = (0..s.data.reports().len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&s.data.reports()[a], &s.data.reports()[b]);
        ra.timestamp.total_cmp(&rb.timestamp)
    });
    let chunk = order.len().div_ceil(INGEST_EPOCHS);
    let mut first_flag: Vec<Option<u64>> = vec![None; s.num_accounts()];
    // AG-FP insists on one fingerprint per folded account: every account
    // up to the highest one reporting so far is enrolled.
    let mut enrolled = 0usize;
    for epoch in 1..=total_epochs as u64 {
        if epoch as usize <= INGEST_EPOCHS {
            let lo = (epoch as usize - 1) * chunk;
            for &i in order.iter().skip(lo).take(chunk) {
                let r = &s.data.reports()[i];
                for account in enrolled..=r.account {
                    engine
                        .enroll(account, s.fingerprints[account].clone(), 0.0)
                        .expect("campaign fingerprints are valid");
                }
                enrolled = enrolled.max(r.account + 1);
                engine
                    .ingest(r.account, r.task, r.value, r.timestamp)
                    .expect("campaign reports are valid");
            }
        }
        engine.run_epoch();
        let report = engine.audit_report(3);
        for (a, streak) in first_flag.iter_mut().enumerate() {
            if a < enrolled && report.is_suspect(a) {
                streak.get_or_insert(epoch);
            } else {
                *streak = None;
            }
        }
    }
    first_flag
}

#[derive(Default, Clone, Copy)]
struct Cell {
    detected: usize,
    sybils: usize,
    false_pos: usize,
    honest: usize,
    epoch_sum: u64,
}

impl Cell {
    fn det_rate(&self) -> f64 {
        if self.sybils == 0 {
            f64::NAN
        } else {
            self.detected as f64 / self.sybils as f64
        }
    }

    fn fpr(&self) -> f64 {
        self.false_pos as f64 / self.honest.max(1) as f64
    }

    fn mean_epoch(&self) -> f64 {
        if self.detected == 0 {
            f64::NAN
        } else {
            self.epoch_sum as f64 / self.detected as f64
        }
    }

    fn render(&self) -> String {
        let det = if self.sybils == 0 {
            "  — ".to_string()
        } else {
            format!("{:.2}", self.det_rate())
        };
        let epoch = if self.detected == 0 {
            " — ".to_string()
        } else {
            format!("{:.1}", self.mean_epoch())
        };
        format!("{det}/{:.2}/{epoch}", self.fpr())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let seeds: u64 = args
        .iter()
        .find_map(|a| a.parse().ok())
        .unwrap_or(if fast { 2 } else { 4 });
    let total_epochs = if fast { 10 } else { 16 };
    println!(
        "Extension — adaptive adversaries vs defense matrix \
         ({seeds} seeds, {total_epochs} epochs, activeness 0.6/0.6)\n"
    );
    println!("cell format: detection rate / honest FPR / mean detection epoch\n");

    let mut t = Table::new(
        std::iter::once("attack".to_string())
            .chain(DEFENSES.iter().map(|d| d.name.to_string()))
            .collect(),
    );
    // cells[row][col] aggregated over seeds.
    let mut cells = vec![[Cell::default(); DEFENSES.len()]; attacks().len()];
    for (row, attack) in attacks().iter().enumerate() {
        for seed in 0..seeds {
            let s = Scenario::generate(
                &ScenarioConfig {
                    attackers: attack.attackers.clone(),
                    ..ScenarioConfig::paper_default()
                }
                .with_seed(seed)
                .with_activeness(0.6, 0.6),
            );
            for (col, defense) in DEFENSES.iter().enumerate() {
                let first_flag = run_cell(&s, defense, seed, total_epochs);
                let cell = &mut cells[row][col];
                for (a, flag) in first_flag.iter().enumerate() {
                    if s.is_sybil[a] {
                        cell.sybils += 1;
                        if let Some(e) = flag {
                            cell.detected += 1;
                            cell.epoch_sum += e;
                        }
                    } else {
                        cell.honest += 1;
                        if flag.is_some() {
                            cell.false_pos += 1;
                        }
                    }
                }
            }
        }
        t.add_row(
            std::iter::once(attack.name.to_string())
                .chain(cells[row].iter().map(Cell::render))
                .collect(),
        );
    }
    println!("{}", t.render());
    println!("expected shape:");
    println!("  * honest only: zero false positives in every defense cell;");
    println!("  * paper replay: combined grouping detects the rings outright");
    println!("    and faster than audit alone (AG-TS occasionally drags one");
    println!("    honest account into a ring — the paper's Table III false");
    println!("    positive — so the group columns may show a small FPR);");
    println!("  * jittered replay / camouflaged jitter: AG-TR is blinded by");
    println!("    the per-account clocks, but the accounts still share one");
    println!("    task set, so AG-TS keeps grouping detection high;");
    println!("  * mimicry / fully adaptive: task sets mimic the honest");
    println!("    marginal and trajectories diverge — every behavioural");
    println!("    signal drops below threshold, grouping detection collapses,");
    println!("    and the stochastic audit becomes the backstop: group+audit");
    println!("    dominates group alone.");

    // ---- shape checks -------------------------------------------------
    let names: Vec<&str> = attacks().iter().map(|a| a.name).collect();
    let row = |n: &str| names.iter().position(|&x| x == n).unwrap();

    // Honest-only campaigns: nobody is ever flagged, by any defense.
    for (col, d) in DEFENSES.iter().enumerate() {
        let c = &cells[row("honest only")][col];
        assert_eq!(
            c.false_pos, 0,
            "honest-only FPR must be zero under `{}`",
            d.name
        );
    }
    // No defense, no detection.
    for row in &cells {
        assert_eq!(row[0].detected, 0, "`none` must detect nothing");
    }
    // The paper's replay rings are fully caught by combined grouping,
    // and the jitter evasions still lose to the task-set signal.
    for n in ["paper replay", "jittered replay", "camouflaged jitter"] {
        let c = &cells[row(n)][2];
        assert!(
            c.det_rate() >= 0.9,
            "grouping should crush `{n}`: {}",
            c.det_rate()
        );
    }
    // The audit backstop: on every attacked row, group+audit detects at
    // least what grouping alone does, and audit alone detects something.
    for r in 1..names.len() {
        assert!(
            cells[r][3].det_rate() >= cells[r][2].det_rate() - 1e-9,
            "{}: group+audit below group alone",
            names[r]
        );
        assert!(
            cells[r][1].det_rate() > 0.0,
            "{}: audit alone detected nothing",
            names[r]
        );
    }
    // The adaptive rows are where the audit earns its keep: grouping
    // detection decays below the paper row and group+audit wins.
    for n in ["mimicry + mixed devices", "fully adaptive"] {
        let group = &cells[row(n)][2];
        let both = &cells[row(n)][3];
        assert!(
            group.det_rate() < 0.7,
            "{n}: evasion should drop grouping detection, got {}",
            group.det_rate()
        );
        assert!(
            both.det_rate() > group.det_rate() + 0.15,
            "{n}: audit should detect what grouping misses ({} vs {})",
            both.det_rate(),
            group.det_rate()
        );
    }
    println!("\n[shape checks passed]");
}
