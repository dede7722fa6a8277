//! A full simulated Wi-Fi measurement campaign (the paper's §V setup).
//!
//! Generates the 10-POI, 8-volunteer, 2-attacker campaign, runs four
//! aggregation methods — CRH and the framework with each grouping method —
//! and prints per-task estimates plus the MAE summary.
//!
//! Run with: `cargo run --example wifi_campaign [seed]`

use sybil_td::core::{AgFp, AgTr, AgTs, SybilResistantTd};
use sybil_td::metrics::mae;
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::{Crh, TruthDiscovery};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let config = ScenarioConfig::paper_default().with_seed(seed);
    let scenario = Scenario::generate(&config);
    println!(
        "campaign: {} tasks, {} accounts ({} Sybil), {} devices, seed {seed}",
        scenario.data.num_tasks(),
        scenario.num_accounts(),
        scenario.is_sybil.iter().filter(|&&s| s).count(),
        scenario.fleet.len(),
    );
    println!();

    let crh = Crh.discover(&scenario.data).truths_or(f64::NAN);
    let td_fp = SybilResistantTd::new(AgFp::default())
        .discover(&scenario.data, &scenario.fingerprints)
        .truths_or(f64::NAN);
    let td_ts = SybilResistantTd::new(AgTs::default())
        .discover(&scenario.data, &scenario.fingerprints)
        .truths_or(f64::NAN);
    let td_tr = SybilResistantTd::new(AgTr::default())
        .discover(&scenario.data, &scenario.fingerprints)
        .truths_or(f64::NAN);

    println!("task |  truth |    CRH |  TD-FP |  TD-TS |  TD-TR");
    println!("-----+--------+--------+--------+--------+-------");
    for t in 0..scenario.data.num_tasks() {
        println!(
            " T{:<3}| {:6.1} | {:6.1} | {:6.1} | {:6.1} | {:6.1}",
            t + 1,
            scenario.ground_truth[t],
            crh[t],
            td_fp[t],
            td_ts[t],
            td_tr[t],
        );
    }
    println!();
    println!("MAE (dBm, lower is better):");
    for (name, estimates) in [
        ("CRH  ", &crh),
        ("TD-FP", &td_fp),
        ("TD-TS", &td_ts),
        ("TD-TR", &td_tr),
    ] {
        let err = mae(estimates, &scenario.ground_truth).expect("equal lengths");
        println!("  {name}  {err:6.2}");
    }
}
