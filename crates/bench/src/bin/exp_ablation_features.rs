//! Ablation: which Table-II features carry the fingerprint?
//!
//! The paper extracts 9 temporal + 11 spectral features per stream
//! (Table II) without asking which ones matter. This ablation clusters
//! the Fig. 2 setup (3 phones × 5 captures, k = 3) on feature subsets:
//! temporal-only, spectral-only, first-moment-only (means), and the full
//! set, measuring device ARI.
//!
//! Run with: `cargo run -p srtd-bench --release --bin exp_ablation_features [seeds]`

use srtd_bench::table::Table;
use srtd_cluster::{KMeans, KMeansConfig};
use srtd_fingerprint::{catalog, fingerprint_features, CaptureConfig};
use srtd_metrics::adjusted_rand_index;
use srtd_runtime::rng::SeedableRng;
use srtd_runtime::rng::StdRng;
use srtd_signal::features::standardize;

/// Per-stream feature indices (each of the 4 streams contributes 20
/// features in Table II order: 0..9 temporal, 9..20 spectral).
fn project(features: &[Vec<f64>], keep_per_stream: &[usize]) -> Vec<Vec<f64>> {
    features
        .iter()
        .map(|f| {
            let mut out = Vec::with_capacity(4 * keep_per_stream.len());
            for stream in 0..4 {
                for &idx in keep_per_stream {
                    out.push(f[stream * 20 + idx]);
                }
            }
            out
        })
        .collect()
}

fn run(seed: u64, keep: &[usize]) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let models = catalog::standard_catalog();
    let phones = [
        models[2].model.manufacture(&mut rng),
        models[5].model.manufacture(&mut rng),
        models[7].model.manufacture(&mut rng),
    ];
    let cfg = CaptureConfig::paper_default();
    let mut features = Vec::new();
    let mut truth = Vec::new();
    for (d, phone) in phones.iter().enumerate() {
        for _ in 0..5 {
            features.push(fingerprint_features(&phone.capture(&cfg, &mut rng)));
            truth.push(d);
        }
    }
    let projected = project(&features, keep);
    let standardized = standardize(&projected);
    let clusters = KMeans::new(KMeansConfig::new(3)).fit(&standardized);
    adjusted_rand_index(&clusters.assignments, &truth)
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    println!("Ablation — Table-II feature subsets ({seeds} seeds, 3 phones x 5 captures)\n");
    let all: Vec<usize> = (0..20).collect();
    let temporal: Vec<usize> = (0..9).collect();
    let spectral: Vec<usize> = (9..20).collect();
    let means_only = vec![0usize]; // feature 1: the stream mean (bias!)
    let shape_only: Vec<usize> = vec![2, 3, 12, 13, 14, 16]; // skew/kurtosis/flatness/entropy
    let subsets: Vec<(&str, &[usize])> = vec![
        ("all 20 (paper)", &all),
        ("temporal 9", &temporal),
        ("spectral 11", &spectral),
        ("stream means only", &means_only),
        ("shape moments only", &shape_only),
    ];
    let mut t = Table::new(["subset", "dims", "device ARI"].map(String::from).to_vec());
    let mut results = Vec::new();
    for (name, keep) in &subsets {
        let ari: f64 = (0..seeds).map(|s| run(s, keep)).sum::<f64>() / seeds as f64;
        results.push((name.to_string(), ari));
        t.add_row(vec![
            name.to_string(),
            (keep.len() * 4).to_string(),
            format!("{ari:.3}"),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: the stream means alone (4 numbers!) carry most");
    println!("of the signature — per-chip *bias* is the dominant imperfection,");
    println!("matching the MEMS physics of §III-D. Temporal features contain");
    println!("the means and score close to the full set; spectral features");
    println!("alone still work (resonance + noise floor) but with more");
    println!("session variance; pure shape moments (no location, no scale)");
    println!("discard the bias and degrade most.");
    let full = results[0].1;
    assert!(full > 0.75, "full feature set should group well: {full}");
    let means = results[3].1;
    assert!(
        means > full - 0.25,
        "stream means should be competitive: {means} vs {full}"
    );
    let shape = results[4].1;
    assert!(
        shape < full,
        "shape-only should lose information: {shape} vs {full}"
    );
    println!("\n[shape checks passed]");
}
