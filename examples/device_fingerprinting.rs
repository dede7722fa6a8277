//! Tour of the device-fingerprinting pipeline behind AG-FP.
//!
//! Manufactures three smartphones of different models, takes five
//! stationary captures from each (the paper's 6-second sign-in hold),
//! extracts the 80-dimensional Table-II feature vectors, projects them
//! onto the first two principal components (Fig. 2's view), estimates the
//! device count with the elbow method, and clusters with k-means.
//!
//! Run with: `cargo run --example device_fingerprinting`

use srtd_runtime::rng::SeedableRng;
use srtd_runtime::rng::StdRng;
use sybil_td::cluster::{elbow, KMeans, KMeansConfig, Pca};
use sybil_td::fingerprint::{catalog, fingerprint_features, CaptureConfig};
use sybil_td::metrics::adjusted_rand_index;
use sybil_td::signal::features::standardize;

const CAPTURES_PER_PHONE: usize = 5;

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let models = catalog::standard_catalog();
    let phones = [
        models[2].model.manufacture(&mut rng), // iPhone 6S
        models[5].model.manufacture(&mut rng), // Nexus 6P
        models[7].model.manufacture(&mut rng), // Nexus 5
    ];
    let capture_cfg = CaptureConfig::paper_default();

    let mut features = Vec::new();
    let mut true_device = Vec::new();
    for (d, phone) in phones.iter().enumerate() {
        for _ in 0..CAPTURES_PER_PHONE {
            let capture = phone.capture(&capture_cfg, &mut rng);
            features.push(fingerprint_features(&capture));
            true_device.push(d);
        }
    }
    println!(
        "collected {} fingerprints x {} features from {} phones",
        features.len(),
        features[0].len(),
        phones.len()
    );

    // Standardize, then visualize in PC1/PC2 like the paper's Fig. 2(a).
    let standardized = standardize(&features);
    let pca = Pca::fit(&standardized, 2);
    let ratio = pca.explained_variance_ratio();
    println!(
        "PCA: PC1 explains {:.0}%, PC2 {:.0}% of variance",
        100.0 * ratio[0],
        100.0 * ratio.get(1).copied().unwrap_or(0.0)
    );
    println!("\n  phone | capture |     PC1 |     PC2");
    for (i, f) in standardized.iter().enumerate() {
        let p = pca.project(f);
        println!(
            "      {} |       {} | {:7.2} | {:7.2}",
            phones[true_device[i]]
                .model_name
                .chars()
                .take(1)
                .collect::<String>(),
            i % CAPTURES_PER_PHONE + 1,
            p[0],
            p[1]
        );
    }

    // Elbow method estimates the device count (the platform does not know
    // it), then k-means groups the fingerprints — Fig. 2(b).
    let elbow_result = elbow(&standardized, 8, KMeansConfig::new(1));
    println!(
        "\nelbow SSE curve: {:?}",
        round_all(&elbow_result.sse_curve)
    );
    println!("estimated device count k = {}", elbow_result.k);

    let clusters = KMeans::new(KMeansConfig::new(elbow_result.k)).fit(&standardized);
    let ari = adjusted_rand_index(&clusters.assignments, &true_device);
    println!("k-means assignments: {:?}", clusters.assignments);
    println!("Adjusted Rand Index vs. true devices: {ari:.3}");
}

fn round_all(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 10.0).round() / 10.0).collect()
}
