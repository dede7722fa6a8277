//! Experiments `fig3` and `fig4` — the AG-TS and AG-TR worked examples on
//! the Table III data.
//!
//! Prints the `T_ij` / `L_ij` / `A_ij` matrices and components of Fig. 3,
//! then the `DTW(X)` / `DTW(Y)` / `D_ij` matrices and components of
//! Fig. 4.
//!
//! Run with: `cargo run -p srtd-bench --bin exp_fig3_fig4`

use srtd_bench::table::matrix;
use srtd_core::{AccountGrouping, AgTr, AgTs};
use srtd_timeseries::dtw;
use srtd_truth::SensingData;

const NAMES: [&str; 6] = ["1", "2", "3", "4'", "4''", "4'''"];

fn table_iii() -> SensingData {
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
    d.add_report(3, 0, -50.0, ts(1.0, 10.0));
    d.add_report(3, 2, -50.0, ts(15.0, 24.0));
    d.add_report(3, 3, -50.0, ts(20.0, 6.0));
    d.add_report(4, 0, -50.0, ts(1.0, 34.0));
    d.add_report(4, 2, -50.0, ts(16.0, 8.0));
    d.add_report(4, 3, -50.0, ts(21.0, 25.0));
    d.add_report(5, 0, -50.0, ts(2.0, 35.0));
    d.add_report(5, 2, -50.0, ts(17.0, 35.0));
    d.add_report(5, 3, -50.0, ts(22.0, 2.0));
    d
}

fn to_f64(m: &[Vec<usize>]) -> Vec<Vec<f64>> {
    m.iter()
        .map(|r| r.iter().map(|&v| v as f64).collect())
        .collect()
}

fn named_groups(g: &srtd_core::Grouping) -> Vec<Vec<&'static str>> {
    g.groups()
        .iter()
        .map(|grp| grp.iter().map(|&a| NAMES[a]).collect())
        .collect()
}

fn main() {
    let data = table_iii();

    println!("Fig. 3 — AG-TS worked example (Table III data)\n");
    let ag_ts = AgTs::default();
    let (together, alone) = ag_ts.task_overlap_matrices(&data);
    println!("(a) T_ij — tasks both accomplished:");
    println!("{}", matrix(&NAMES, &to_f64(&together), 0));
    println!("(b) L_ij — tasks exactly one accomplished:");
    println!("{}", matrix(&NAMES, &to_f64(&alone), 0));
    println!("(c) A_ij — Eq. 6 affinity (m = 4):");
    let affinity = ag_ts.affinity_matrix(&data);
    println!("{}", matrix(&NAMES, &affinity, 2));
    let g_ts = ag_ts.group(&data, &[]);
    println!(
        "(d) components with A_ij > {}: {:?}",
        ag_ts.rho(),
        named_groups(&g_ts)
    );
    println!();
    println!("note: the paper's figure tabulates A(4',4'') = 1.8, consistent");
    println!("with dividing by m = 5; literal Eq. 6 with m = 4 gives 2.25 and");
    println!("A(1,4') = 1.00, so at rho = 1 account 1 stays out (the figure's");
    println!("false positive appears at rho < 1; see exp_ablation_thresholds).");
    assert_eq!(g_ts.group_of(3), g_ts.group_of(4));
    assert_eq!(g_ts.group_of(4), g_ts.group_of(5));

    println!("\nFig. 4 — AG-TR worked example (Table III data)\n");
    let ag_tr = AgTr::default();
    let trajectories = ag_tr.trajectories(&data);
    let mut dtw_x = vec![vec![0.0; 6]; 6];
    let mut dtw_y = vec![vec![0.0; 6]; 6];
    for i in 0..6 {
        for j in 0..6 {
            dtw_x[i][j] = dtw(&trajectories[i].0, &trajectories[j].0);
            dtw_y[i][j] = dtw(&trajectories[i].1, &trajectories[j].1);
        }
    }
    println!("(a) DTW(X_i, X_j) — task series, raw cumulative cost:");
    println!("{}", matrix(&NAMES, &dtw_x, 0));
    println!("(b) DTW(Y_i, Y_j) — timestamp series (hours), raw cost:");
    println!("{}", matrix(&NAMES, &dtw_y, 3));
    println!("(c) D_ij = DTW(X) + DTW(Y) (Eq. 8):");
    let dissimilarity = ag_tr.dissimilarity_matrix(&data);
    println!("{}", matrix(&NAMES, &dissimilarity, 3));
    let g_tr = ag_tr.group(&data, &[]);
    println!(
        "(d) components with D_ij < {}: {:?}",
        ag_tr.phi(),
        named_groups(&g_tr)
    );
    println!();
    println!("expected shape (matches Fig. 4): DTW(X_1, X_2) = 2,");
    println!("DTW(X_1, X_4') = 1, Sybil pairs at 0; only {{4', 4'', 4'''}} form");
    println!("a component — fewer false positives than AG-TS.");
    assert_eq!(dtw_x[0][1], 2.0);
    assert_eq!(dtw_x[0][3], 1.0);
    assert_eq!(g_tr.len(), 4);
    assert_eq!(g_tr.group_of(3), g_tr.group_of(5));
    println!("\n[shape checks passed]");
}
