//! Experiment `fig8` — reproduces Fig. 8: fingerprint centers of all 11
//! Table-IV smartphones in the first two principal components' space.
//!
//! The paper's observation: centers of same-model units sit very close
//! (hard to differentiate), while models separate.
//!
//! One seed draws one fleet, so the worked example's cross-model to
//! same-model distance ratio is one sample of a distribution. The shape
//! check is asserted over a seed set declared in advance: the median ratio
//! over seeds `0xF168 + s`, `s < 100`.
//!
//! Run with: `cargo run -p srtd-bench --bin exp_fig8`

use srtd_bench::table::Table;
use srtd_cluster::{squared_distance, Pca};
use srtd_fingerprint::{catalog, fingerprint_features, CaptureConfig};
use srtd_runtime::rng::SeedableRng;
use srtd_runtime::rng::StdRng;
use srtd_signal::features::standardize;

const CAPTURES_PER_UNIT: usize = 5;

/// The worked example's seed; the check's seed set starts here.
const SEED: u64 = 0xF168;

/// Seeds in the check's set.
const SWEEP_SEEDS: u64 = 100;

/// The bound the median cross-model / same-model ratio must exceed.
const MIN_MEDIAN_RATIO: f64 = 2.0;

/// One draw of the Table IV fleet: each unit's name and its center in the
/// first two principal components' space, and the mean center distance
/// between units of the same model and of different models.
struct Fleet {
    unit_names: Vec<String>,
    centers: Vec<[f64; 2]>,
    same_mean: f64,
    cross_mean: f64,
}

fn fleet(seed: u64) -> Fleet {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = CaptureConfig::paper_default();

    // Manufacture the full Table IV fleet and capture each unit.
    let mut unit_names = Vec::new();
    let mut model_of_unit = Vec::new();
    let mut features = Vec::new();
    let mut unit_of_capture = Vec::new();
    for (model_idx, entry) in catalog::standard_catalog().iter().enumerate() {
        for unit in 0..entry.quantity {
            let device = entry.model.manufacture(&mut rng);
            let unit_idx = unit_names.len();
            unit_names.push(format!("{} #{}", entry.model.name, unit + 1));
            model_of_unit.push(model_idx);
            for _ in 0..CAPTURES_PER_UNIT {
                features.push(fingerprint_features(&device.capture(&cfg, &mut rng)));
                unit_of_capture.push(unit_idx);
            }
        }
    }
    let units = unit_names.len();
    assert_eq!(units, 11);

    let standardized = standardize(&features);
    let pca = Pca::fit(&standardized, 2);
    let projected = pca.project_all(&standardized);

    // Per-unit centers in PC space.
    let mut centers = vec![[0.0f64; 2]; units];
    let mut counts = vec![0usize; units];
    for (p, &u) in projected.iter().zip(&unit_of_capture) {
        centers[u][0] += p[0];
        centers[u][1] += p[1];
        counts[u] += 1;
    }
    for (c, &n) in centers.iter_mut().zip(&counts) {
        c[0] /= n as f64;
        c[1] /= n as f64;
    }

    // Same-model vs. cross-model center distances.
    let mut same = Vec::new();
    let mut cross = Vec::new();
    for i in 0..units {
        for j in i + 1..units {
            let d = squared_distance(&centers[i], &centers[j]).sqrt();
            if model_of_unit[i] == model_of_unit[j] {
                same.push(d);
            } else {
                cross.push(d);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Fleet {
        unit_names,
        centers,
        same_mean: mean(&same),
        cross_mean: mean(&cross),
    }
}

fn main() {
    println!("Fig. 8 — fingerprint centers of the 11 Table-IV smartphones\n");
    let worked = fleet(SEED);
    let mut t = Table::new(["unit", "PC1", "PC2"].map(String::from).to_vec());
    for (name, center) in worked.unit_names.iter().zip(&worked.centers) {
        t.add_row(vec![
            name.clone(),
            format!("{:.2}", center[0]),
            format!("{:.2}", center[1]),
        ]);
    }
    println!("{}", t.render());
    println!("mean center distance, same model : {:.2}", worked.same_mean);
    println!(
        "mean center distance, cross model: {:.2}",
        worked.cross_mean
    );

    let mut ratios: Vec<f64> = (0..SWEEP_SEEDS)
        .map(|s| {
            let f = fleet(SEED + s);
            f.cross_mean / f.same_mean
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = (ratios[mid - 1] + ratios[mid]) / 2.0;
    let low = ratios.iter().filter(|&&r| r <= 2.0).count();
    println!();
    println!("cross-model / same-model ratio over seeds {SEED:#x} + s, s < {SWEEP_SEEDS}:");
    println!("  median {median:.2}; seeds at or below 2: {low}");
    println!();
    println!("expected shape (paper): same-model centers are very close and");
    println!("hard to differentiate; different models separate clearly.");
    println!("Checked: median ratio over the seed set > {MIN_MEDIAN_RATIO}.");
    assert!(
        median > MIN_MEDIAN_RATIO,
        "same-model units should be much closer: median ratio {median} over {SWEEP_SEEDS} seeds"
    );
    println!("\n[shape check passed]");
}
