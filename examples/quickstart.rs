//! Quickstart: aggregate crowdsensed data with and without Sybil
//! resistance.
//!
//! Builds a tiny campaign by hand — three honest volunteers measuring Wi-Fi
//! signal strength at two spots, plus one Sybil attacker submitting a
//! fabricated −50 dBm reading through three accounts — and compares plain
//! CRH truth discovery against the Sybil-resistant framework with
//! trajectory grouping (TD-TR).
//!
//! Run with: `cargo run --example quickstart`

use sybil_td::core::{AgTr, SybilResistantTd};
use sybil_td::truth::{Crh, SensingData, TruthDiscovery};

fn main() {
    // Ground truth the volunteers are trying to measure (dBm).
    let truth = [-82.0, -71.0];

    let mut data = SensingData::new(2);
    // Three honest volunteers, each walking their own route at their own
    // time, reporting truth plus personal noise.
    data.add_report(0, 0, -83.1, 600.0);
    data.add_report(0, 1, -70.4, 1_150.0);
    data.add_report(1, 0, -81.2, 4_300.0);
    data.add_report(1, 1, -72.0, 4_975.0);
    data.add_report(2, 0, -82.6, 8_050.0);
    data.add_report(2, 1, -70.9, 8_660.0);
    // One attacker performs the walk once and submits -50 dBm through
    // three accounts (3, 4, 5), switching accounts every ~30 s. Their
    // reports dominate both tasks by headcount: 3 of 6 claims.
    for (account, offset) in [(3, 0.0), (4, 31.0), (5, 64.0)] {
        data.add_report(account, 0, -50.0, 12_000.0 + offset);
        data.add_report(account, 1, -50.2, 12_700.0 + offset);
    }

    // Plain truth discovery trusts the coordinated majority.
    let crh = Crh.discover(&data);

    // The framework groups the three same-walk accounts into one voice.
    let framework = SybilResistantTd::new(AgTr::default());
    let resistant = framework.discover(&data, &[]);

    println!("task | ground truth |    CRH   |  TD-TR");
    println!("-----+--------------+----------+--------");
    for (task, &expected) in truth.iter().enumerate() {
        println!(
            "  T{} |      {:6.1}  |  {:6.1}  | {:6.1}",
            task + 1,
            expected,
            crh.truths[task].expect("task has reports"),
            resistant.truths[task].expect("task has reports"),
        );
    }
    println!();
    println!(
        "AG-TR found {} groups over {} accounts: {:?}",
        resistant.grouping.len(),
        data.num_accounts(),
        resistant.grouping.groups(),
    );
    println!("CRH is dragged toward the fabricated -50 dBm; TD-TR recovers.");
}
