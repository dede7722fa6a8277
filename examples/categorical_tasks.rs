//! Sybil resistance for categorical sensing tasks.
//!
//! The paper demonstrates its attack on numerical tasks; plenty of MCS
//! tasks are discrete (is the charging station working? which exit is
//! closed?). The attack carries over unchanged — a coordinated account
//! block out-votes honest users — and so does the counter-measure:
//! collapse suspected groups to a single vote. This example runs a small
//! binary-label campaign through majority voting, weighted voting and the
//! group-collapsed vote.
//!
//! Run with: `cargo run --example categorical_tasks`

use sybil_td::truth::categorical::{
    grouped_weighted_vote, majority_vote, CategoricalData, WeightedVote,
};

const LABELS: [&str; 2] = ["working", "broken"];

fn main() {
    // 5 charging stations; ground truth: all working (label 0).
    // Three honest volunteers check a few stations each; one attacker
    // reports "broken" through four accounts to scare users away.
    let mut data = CategoricalData::new(5);
    let honest = [
        (0usize, vec![0usize, 1, 2, 4]),
        (1, vec![0, 2, 3]),
        (2, vec![1, 3, 4]),
    ];
    for (account, stations) in &honest {
        for &s in stations {
            data.add_claim(*account, s, 0);
        }
    }
    for sybil_account in 3..7 {
        for station in [0usize, 2, 4] {
            data.add_claim(sybil_account, station, 1);
        }
    }

    let majority = majority_vote(&data);
    let weighted = WeightedVote.discover(&data);
    // Suppose AG-TR flagged the four replayed accounts as one group.
    let groups = [0, 1, 2, 3, 3, 3, 3];
    let grouped = grouped_weighted_vote(&data, &groups);

    println!("station | truth    | majority | weighted | grouped");
    println!("--------+----------+----------+----------+---------");
    for station in 0..5 {
        let show = |t: Option<usize>| t.map_or("x", |l| LABELS[l]);
        println!(
            "   S{}   | {:8} | {:8} | {:8} | {:8}",
            station + 1,
            LABELS[0],
            show(majority[station]),
            show(weighted.truths[station]),
            show(grouped[station]),
        );
    }
    println!();
    println!("the attacker out-votes honest users on S1/S3/S5 under both");
    println!("majority and weighted voting; collapsing its accounts to one");
    println!("group voice restores every label.");
    for station in [0usize, 2, 4] {
        assert_eq!(majority[station], Some(1), "attack should win plain vote");
        assert_eq!(grouped[station], Some(0), "grouping should restore truth");
    }
}
