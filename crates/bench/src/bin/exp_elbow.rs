//! Experiment `elbow` — the §IV-C elbow-method behaviour: SSE versus k on
//! fingerprint features, and the chosen device count.
//!
//! Run with: `cargo run -p srtd-bench --bin exp_elbow`

use srtd_bench::table::Table;
use srtd_cluster::{elbow, KMeansConfig};
use srtd_fingerprint::{catalog, fingerprint_features, CaptureConfig};
use srtd_runtime::rng::SeedableRng;
use srtd_runtime::rng::StdRng;
use srtd_signal::features::standardize;

fn main() {
    println!("Elbow method on fingerprint features (§IV-C)\n");
    let cfg = CaptureConfig::paper_default();
    let models = catalog::standard_catalog();

    let mut t = Table::new(
        ["true devices", "captures", "estimated k"]
            .map(String::from)
            .to_vec(),
    );
    let mut all_ok = true;
    for true_devices in 2..=5usize {
        let mut rng = StdRng::seed_from_u64(0xE1B0 + true_devices as u64);
        let mut features = Vec::new();
        for d in 0..true_devices {
            // Spread across models so devices are separable.
            let device = models[(d * 2) % models.len()].model.manufacture(&mut rng);
            for _ in 0..5 {
                features.push(fingerprint_features(&device.capture(&cfg, &mut rng)));
            }
        }
        let standardized = standardize(&features);
        let result = elbow(&standardized, features.len(), KMeansConfig::new(1));
        let ok = result.k.abs_diff(true_devices) <= 2;
        all_ok &= ok;
        t.add_row(vec![
            true_devices.to_string(),
            features.len().to_string(),
            format!("{}{}", result.k, if ok { "" } else { "  (!)" }),
        ]);
        if true_devices == 3 {
            println!("SSE curve at 3 devices:");
            let mut c = Table::new(["k", "SSE"].map(String::from).to_vec());
            for (i, sse) in result.sse_curve.iter().enumerate() {
                c.add_row(vec![(i + 1).to_string(), format!("{sse:.1}")]);
            }
            println!("{}", c.render());
        }
    }
    println!("{}", t.render());
    println!("expected shape: SSE drops steeply until k reaches the true");
    println!("device count, then flattens. Session noise keeps the tail");
    println!("sloping, so the knee over-estimates by up to ~2 — a conservative");
    println!("error for AG-FP: splitting one device across groups never merges");
    println!("distinct users, it only weakens Sybil collapsing slightly.");
    assert!(all_ok, "elbow estimate was off by more than 2 somewhere");
    println!("\n[shape check passed]");
}
