//! Experiment `fig2` — reproduces Fig. 2: the AG-FP worked example.
//!
//! Three smartphones of different models, five fingerprint captures each;
//! (a) the captures in the first two principal components' space, and
//! (b) the k-means grouping at k = 3.
//!
//! One seed draws one set of phones, so the worked example's ARI is one
//! sample of a distribution. The shape check is asserted over a seed set
//! declared in advance: the mean ARI over seeds `0xF162 + s`, `s < 200`.
//!
//! Run with: `cargo run -p srtd-bench --bin exp_fig2`

use srtd_bench::table::Table;
use srtd_cluster::{KMeans, KMeansConfig, Pca};
use srtd_fingerprint::{catalog, fingerprint_features, CaptureConfig, DeviceInstance};
use srtd_metrics::adjusted_rand_index;
use srtd_runtime::rng::SeedableRng;
use srtd_runtime::rng::StdRng;
use srtd_signal::features::standardize;

const CAPTURES_PER_PHONE: usize = 5;

/// The worked example's seed; the check's seed set starts here.
const SEED: u64 = 0xF162;

/// Seeds in the check's set.
const SWEEP_SEEDS: u64 = 200;

/// The bound on the mean ARI over the seed set.
const MIN_MEAN_ARI: f64 = 0.9;

/// One draw of the example: the three phones, each capture's standardized
/// fingerprint and each capture's true phone.
struct Example {
    phones: [DeviceInstance; 3],
    standardized: Vec<Vec<f64>>,
    truth: Vec<usize>,
}

fn example(seed: u64) -> Example {
    let mut rng = StdRng::seed_from_u64(seed);
    let models = catalog::standard_catalog();
    let phones = [
        models[2].model.manufacture(&mut rng), // iPhone 6S
        models[5].model.manufacture(&mut rng), // Nexus 6P
        models[7].model.manufacture(&mut rng), // Nexus 5
    ];
    let cfg = CaptureConfig::paper_default();
    let mut features = Vec::new();
    let mut truth = Vec::new();
    for (d, phone) in phones.iter().enumerate() {
        for _ in 0..CAPTURES_PER_PHONE {
            features.push(fingerprint_features(&phone.capture(&cfg, &mut rng)));
            truth.push(d);
        }
    }
    Example {
        phones,
        standardized: standardize(&features),
        truth,
    }
}

/// k-means at k = 3 over one example's fingerprints.
fn kmeans_groups(example: &Example) -> Vec<usize> {
    KMeans::new(KMeansConfig::new(3))
        .fit(&example.standardized)
        .assignments
}

fn main() {
    println!("Fig. 2 — AG-FP example: 3 smartphones x 5 fingerprints\n");
    let worked = example(SEED);
    let pca = Pca::fit(&worked.standardized, 2);
    let projected = pca.project_all(&worked.standardized);
    let groups = kmeans_groups(&worked);

    let mut t = Table::new(
        ["smartphone", "capture", "PC1", "PC2", "k-means group"]
            .map(String::from)
            .to_vec(),
    );
    for (i, p) in projected.iter().enumerate() {
        let phone = worked.truth[i];
        t.add_row(vec![
            format!("{} ({})", phone + 1, worked.phones[phone].model_name),
            format!("{}", i % CAPTURES_PER_PHONE + 1),
            format!("{:.2}", p[0]),
            format!("{:.2}", p[1]),
            format!("{}", groups[i]),
        ]);
    }
    println!("{}", t.render());

    let ratio = pca.explained_variance_ratio();
    println!(
        "variance explained: PC1 {:.0}%, PC2 {:.0}%",
        100.0 * ratio[0],
        100.0 * ratio[1]
    );
    let ari = adjusted_rand_index(&groups, &worked.truth);
    println!("grouping ARI vs. true devices: {ari:.3}");

    let aris: Vec<f64> = (0..SWEEP_SEEDS)
        .map(|s| {
            let e = example(SEED + s);
            adjusted_rand_index(&kmeans_groups(&e), &e.truth)
        })
        .collect();
    let mean_ari = aris.iter().sum::<f64>() / aris.len() as f64;
    let low = aris.iter().filter(|&&a| a <= 0.6).count();
    println!();
    println!("over seeds {SEED:#x} + s, s < {SWEEP_SEEDS}:");
    println!("  mean ARI {mean_ari:.3}; seeds at or below ARI 0.6: {low}");
    println!();
    println!("expected shape: captures from one phone cluster together in PC");
    println!("space; k-means at k = 3 recovers the phones (the paper's example");
    println!("shows 3 of 15 captures misgrouped, i.e. ARI < 1 is acceptable).");
    println!("Checked: mean ARI over the seed set >= {MIN_MEAN_ARI}.");
    assert!(
        mean_ari >= MIN_MEAN_ARI,
        "grouping collapsed: mean ARI {mean_ari} over {SWEEP_SEEDS} seeds"
    );
    println!("\n[shape check passed]");
}
