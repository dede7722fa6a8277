//! Ablation: how much session-to-session bias drift AG-FP tolerates.
//!
//! §III-D's premise is that a device's MEMS imperfections are a *stable*
//! signature. Real MEMS bias drifts with temperature, so a deployed AG-FP
//! has to survive some drift. This ablation sweeps the per-session bias
//! drift σ and measures AG-FP's device-grouping ARI on the Fig. 2 setup
//! (3 phones × 5 captures, known k) — locating where the paper's
//! assumption breaks.
//!
//! Run with: `cargo run -p srtd-bench --release --bin exp_fingerprint_stability [seeds]`

use srtd_bench::table::Table;
use srtd_cluster::{KMeans, KMeansConfig};
use srtd_fingerprint::{catalog, fingerprint_features, CaptureConfig};
use srtd_metrics::adjusted_rand_index;
use srtd_runtime::rng::SeedableRng;
use srtd_runtime::rng::StdRng;
use srtd_signal::features::standardize;

fn run(seed: u64, drift: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let models = catalog::standard_catalog();
    let phones = [
        models[2].model.manufacture(&mut rng),
        models[5].model.manufacture(&mut rng),
        models[7].model.manufacture(&mut rng),
    ];
    let cfg = CaptureConfig::paper_default().with_bias_drift(drift);
    let mut features = Vec::new();
    let mut truth = Vec::new();
    for (d, phone) in phones.iter().enumerate() {
        for _ in 0..5 {
            features.push(fingerprint_features(&phone.capture(&cfg, &mut rng)));
            truth.push(d);
        }
    }
    let standardized = standardize(&features);
    let clusters = KMeans::new(KMeansConfig::new(3)).fit(&standardized);
    adjusted_rand_index(&clusters.assignments, &truth)
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    println!("Ablation — AG-FP vs. session bias drift ({seeds} seeds, 3 phones x 5 captures)\n");
    // Context: per-chip bias spread in the catalog is 0.012 m/s² — drift
    // at that scale makes two sessions of one chip look like two chips.
    let mut t = Table::new(
        ["drift sigma (m/s^2)", "device ARI"]
            .map(String::from)
            .to_vec(),
    );
    let mut curve = Vec::new();
    for drift in [0.0, 0.003, 0.006, 0.012, 0.024, 0.05] {
        let ari: f64 = (0..seeds).map(|s| run(s, drift)).sum::<f64>() / seeds as f64;
        curve.push((drift, ari));
        t.add_row(vec![format!("{drift:.3}"), format!("{ari:.3}")]);
    }
    println!("{}", t.render());
    println!("expected shape: cross-model separation (~0.05-0.15 m/s^2 of");
    println!("bias center distance) keeps the grouping intact until drift");
    println!("approaches that scale, then the signature washes out. Same-model");
    println!("units, separated only by the 0.012 chip spread, would break an");
    println!("order of magnitude earlier — quantifying the stability");
    println!("assumption behind §III-D and why Fig. 8's same-model centers");
    println!("are already 'hard to differentiate' with zero drift.");
    let clean = curve[0].1;
    let worst = curve.last().expect("rows").1;
    assert!(clean > 0.75, "drift-free ARI too low: {clean}");
    assert!(
        worst < clean - 0.2,
        "heavy drift should hurt: {clean} -> {worst}"
    );
    // Monotone-ish: the last point is the worst or near-worst.
    let min = curve.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    assert!(worst <= min + 0.1);
    println!("\n[shape checks passed]");
}
