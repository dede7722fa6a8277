//! Streaming truth discovery under drift.
//!
//! Wi-Fi signal strength at a POI changes through the day (congestion,
//! doors, weather). Batch truth discovery fits a single static value;
//! [`StreamingCrh`] forgets old claims with a configurable half-life and
//! tracks the drift. This example simulates a truth that jumps mid-stream
//! and compares the batch and streaming estimates, with an unreliable
//! source thrown in.
//!
//! Run with: `cargo run --example evolving_truth`

use sybil_td::truth::{Crh, Report, SensingData, StreamingConfig, StreamingCrh, TruthDiscovery};

fn main() {
    // One task; its truth drifts from -82 dBm to -64 dBm at t = 3600 s.
    let truth_at = |t: f64| if t < 3600.0 { -82.0 } else { -64.0 };

    // Three reliable sources sample every 4 minutes with small personal
    // noise; source 3 is unreliable (wild readings).
    let mut reports = Vec::new();
    let mut batch = SensingData::new(1);
    let mut t = 0.0;
    let mut i = 0;
    while t < 7200.0 {
        for (source, bias) in [(0usize, 0.4), (1, -0.3), (2, 0.1)] {
            let value = truth_at(t) + bias + ((i + source) as f64 * 0.7).sin();
            reports.push(Report {
                account: source,
                task: 0,
                value,
                timestamp: t + source as f64 * 11.0,
            });
        }
        let wild = truth_at(t) + 14.0 * ((i as f64) * 1.3).cos();
        reports.push(Report {
            account: 3,
            task: 0,
            value: wild,
            timestamp: t + 45.0,
        });
        t += 240.0;
        i += 1;
    }
    // Batch data set contains only the latest claim per (account, task) —
    // the paper's one-report rule — so feed it means per source instead.
    for source in 0..4usize {
        let vals: Vec<f64> = reports
            .iter()
            .filter(|r| r.account == source)
            .map(|r| r.value)
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        batch.add_report(source, 0, mean, 0.0);
    }

    let batch_estimate = Crh.discover(&batch).truths[0].expect("reported");

    let mut stream = StreamingCrh::new(1, StreamingConfig::with_half_life(900.0));
    reports.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    println!("   time |  truth | streaming estimate");
    println!("--------+--------+-------------------");
    let mut next_print = 0.0;
    for r in &reports {
        stream.observe(*r);
        if r.timestamp >= next_print {
            println!(
                "{:7.0} | {:6.1} | {:18.1}",
                r.timestamp,
                truth_at(r.timestamp),
                stream.truth(0).expect("reported"),
            );
            next_print += 720.0;
        }
    }
    let final_truth = truth_at(7200.0);
    let streaming_estimate = stream.truth(0).expect("reported");
    println!();
    println!("truth at end of stream : {final_truth:8.1}");
    println!("streaming estimate     : {streaming_estimate:8.1}");
    println!("batch CRH estimate     : {batch_estimate:8.1}  (fits one static value)");
    println!(
        "unreliable source weight: {:.2} vs reliable {:.2}",
        stream.account_weight(3),
        stream.account_weight(0)
    );
    assert!(
        (streaming_estimate - final_truth).abs() < (batch_estimate - final_truth).abs(),
        "streaming should track the drift better than batch"
    );
    println!("\nthe streaming estimator follows the drift; batch CRH cannot.");
}
