//! Anatomy of a Sybil attack: the paper's worked example (Tables I & III).
//!
//! Reconstructs the 4-task, 6-account example, shows how CRH is dragged
//! toward the fabricated −50 dBm claims, then walks through both
//! behavioural grouping methods — AG-TS affinity (Fig. 3) and AG-TR
//! trajectory dissimilarity (Fig. 4) — and the recovered estimates.
//!
//! Run with: `cargo run --example attack_analysis`

use sybil_td::core::{AccountGrouping, AgTr, AgTs, SybilResistantTd};
use sybil_td::truth::{Crh, SensingData, TruthDiscovery};

const NAMES: [&str; 6] = ["1", "2", "3", "4'", "4''", "4'''"];

/// Table I values with Table III timestamps; account 4 holds 4', 4'', 4'''.
fn build_example(with_attack: bool) -> SensingData {
    let ts = |m: f64, s: f64| 10.0 * 3600.0 + m * 60.0 + s;
    let mut d = SensingData::new(4);
    d.add_report(0, 0, -84.48, ts(0.0, 35.0));
    d.add_report(0, 1, -82.11, ts(2.0, 42.0));
    d.add_report(0, 2, -75.16, ts(10.0, 22.0));
    d.add_report(0, 3, -72.71, ts(13.0, 41.0));
    d.add_report(1, 1, -72.27, ts(4.0, 15.0));
    d.add_report(1, 2, -77.21, ts(6.0, 1.0));
    d.add_report(2, 0, -72.41, ts(1.0, 21.0));
    d.add_report(2, 1, -91.49, ts(4.0, 5.0));
    d.add_report(2, 3, -73.55, ts(8.0, 28.0));
    if with_attack {
        let sybil = [
            (3, [(0.0, 1.0, 10.0), (2.0, 15.0, 24.0), (3.0, 20.0, 6.0)]),
            (4, [(0.0, 1.0, 34.0), (2.0, 16.0, 8.0), (3.0, 21.0, 25.0)]),
            (5, [(0.0, 2.0, 35.0), (2.0, 17.0, 35.0), (3.0, 22.0, 2.0)]),
        ];
        for (account, visits) in sybil {
            for (task, m, s) in visits {
                d.add_report(account, task as usize, -50.0, ts(m, s));
            }
        }
    }
    d
}

fn print_truths(label: &str, truths: &[Option<f64>]) {
    print!("{label:28}");
    for t in truths {
        match t {
            Some(v) => print!(" {v:8.2}"),
            None => print!("        x"),
        }
    }
    println!();
}

fn main() {
    println!("== Table I: CRH under the Sybil attack ==\n");
    println!("{:28} {:>8} {:>8} {:>8} {:>8}", "", "T1", "T2", "T3", "T4");
    let clean = build_example(false);
    let attacked = build_example(true);
    print_truths("TD without the Sybil attack", &Crh.discover(&clean).truths);
    print_truths("TD with the Sybil attack", &Crh.discover(&attacked).truths);
    println!("\nAccounts 4', 4'', 4''' fabricate -50 dBm for T1/T3/T4 and win the");
    println!("majority — CRH follows them (the paper's vulnerability demo).\n");

    println!("== Fig. 3: AG-TS affinity (Eq. 6) ==\n");
    let ag_ts = AgTs::default();
    let affinity = ag_ts.affinity_matrix(&attacked);
    print!("      ");
    for n in NAMES {
        print!(" {n:>6}");
    }
    println!();
    for (i, row) in affinity.iter().enumerate() {
        print!("{:>6}", NAMES[i]);
        for v in row {
            print!(" {v:6.2}");
        }
        println!();
    }
    let grouping = ag_ts.group(&attacked, &[]);
    println!(
        "components at rho = {}: {:?}\n",
        ag_ts.rho(),
        named_groups(&grouping)
    );

    println!("== Fig. 4: AG-TR trajectory dissimilarity (Eqs. 7-8) ==\n");
    let ag_tr = AgTr::default();
    let dissimilarity = ag_tr.dissimilarity_matrix(&attacked);
    print!("      ");
    for n in NAMES {
        print!(" {n:>6}");
    }
    println!();
    for (i, row) in dissimilarity.iter().enumerate() {
        print!("{:>6}", NAMES[i]);
        for v in row {
            print!(" {v:6.2}");
        }
        println!();
    }
    let grouping = ag_tr.group(&attacked, &[]);
    println!(
        "components at phi = {}: {:?}\n",
        ag_tr.phi(),
        named_groups(&grouping)
    );

    println!("== The framework's recovered estimates ==\n");
    println!("{:28} {:>8} {:>8} {:>8} {:>8}", "", "T1", "T2", "T3", "T4");
    let td_ts = SybilResistantTd::new(AgTs::default()).discover(&attacked, &[]);
    let td_tr = SybilResistantTd::new(AgTr::default()).discover(&attacked, &[]);
    print_truths("TD-TS", &td_ts.truths);
    print_truths("TD-TR", &td_tr.truths);
    println!("\nBoth variants collapse the Sybil trio to one low-weight voice and");
    println!("pull T1/T3/T4 back toward the legitimate readings.");
}

fn named_groups(grouping: &sybil_td::core::Grouping) -> Vec<Vec<&'static str>> {
    grouping
        .groups()
        .iter()
        .map(|g| g.iter().map(|&a| NAMES[a]).collect())
        .collect()
}
