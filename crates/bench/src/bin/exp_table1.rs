//! Experiment `table1` — reproduces Table I: the vulnerability of CRH to
//! the Sybil attack on the paper's exact 4-task example.
//!
//! Run with: `cargo run -p srtd-bench --bin exp_table1`

use srtd_bench::table::{cell, Table};
use srtd_truth::{Crh, SensingData, TruthDiscovery};

const ACCOUNTS: [&str; 6] = ["1", "2", "3", "4'", "4''", "4'''"];

/// The exact report values of Table I (timestamps from Table III).
fn reports(with_sybil: bool) -> Vec<(usize, usize, f64, f64)> {
    let ts = |m: f64, s: f64| 10.0 * 3600.0 + m * 60.0 + s;
    let mut r = vec![
        (0, 0, -84.48, ts(0.0, 35.0)),
        (0, 1, -82.11, ts(2.0, 42.0)),
        (0, 2, -75.16, ts(10.0, 22.0)),
        (0, 3, -72.71, ts(13.0, 41.0)),
        (1, 1, -72.27, ts(4.0, 15.0)),
        (1, 2, -77.21, ts(6.0, 1.0)),
        (2, 0, -72.41, ts(1.0, 21.0)),
        (2, 1, -91.49, ts(4.0, 5.0)),
        (2, 3, -73.55, ts(8.0, 28.0)),
    ];
    if with_sybil {
        r.extend([
            (3, 0, -50.0, ts(1.0, 10.0)),
            (3, 2, -50.0, ts(15.0, 24.0)),
            (3, 3, -50.0, ts(20.0, 6.0)),
            (4, 0, -50.0, ts(1.0, 34.0)),
            (4, 2, -50.0, ts(16.0, 8.0)),
            (4, 3, -50.0, ts(21.0, 25.0)),
            (5, 0, -50.0, ts(2.0, 35.0)),
            (5, 2, -50.0, ts(17.0, 35.0)),
            (5, 3, -50.0, ts(22.0, 2.0)),
        ]);
    }
    r
}

fn data(with_sybil: bool) -> SensingData {
    let mut d = SensingData::new(4);
    for (a, t, v, ts) in reports(with_sybil) {
        d.add_report(a, t, v, ts);
    }
    d
}

fn main() {
    println!("Table I — Sybil attack on truth discovery (CRH)\n");
    let mut t = Table::new(
        ["account", "T1", "T2", "T3", "T4"]
            .map(String::from)
            .to_vec(),
    );
    let attacked = data(true);
    for (a, name) in ACCOUNTS.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for task in 0..4 {
            let (accounts, values) = attacked.task_claims(task);
            let value = accounts
                .iter()
                .position(|&b| b as usize == a)
                .map(|k| values[k]);
            row.push(cell(value, 2));
        }
        t.add_row(row);
    }
    let clean_result = Crh.discover(&data(false));
    let attacked_result = Crh.discover(&attacked);
    let mut row = vec!["TD w/o attack".to_string()];
    row.extend(clean_result.truths.iter().map(|&v| cell(v, 2)));
    t.add_row(row);
    let mut row = vec!["TD w/ attack".to_string()];
    row.extend(attacked_result.truths.iter().map(|&v| cell(v, 2)));
    t.add_row(row);
    println!("{}", t.render());

    println!("paper reports   : w/o attack  -84.23  -82.01  -75.22  -72.72");
    println!("                  w/  attack  -56.06  -86.17  -53.29  -55.35");
    println!();
    println!("expected shape: with the attack, T1/T3/T4 are dragged from the");
    println!("-70..-85 dBm band toward the fabricated -50 dBm; T2 (no Sybil");
    println!("reports) stays put.");
    for task in [0usize, 2, 3] {
        let clean = clean_result.truths[task].expect("reported");
        let bad = attacked_result.truths[task].expect("reported");
        assert!(
            bad > clean + 10.0,
            "task {task} was not dragged: {clean} -> {bad}"
        );
    }
    println!("\n[shape check passed]");
}
