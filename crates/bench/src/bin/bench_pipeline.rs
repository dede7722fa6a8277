//! Tracked pipeline baseline: times the three hot paths this repo
//! optimizes — Algorithm 2 (framework iteration), the real FFT, and DTW —
//! and writes the results as `BENCH_pipeline.json` for regression
//! tracking.
//!
//! Runs in quick mode by default (a few seconds end to end) so it can be
//! part of `scripts/verify.sh`; set `SRTD_BENCH_FULL=1` for the longer
//! budget. The output path is the first argument (default
//! `BENCH_pipeline.json` in the current directory).
//!
//! Besides wall-clock numbers the export records input sizes, the worker
//! thread count, speedup ratios (parallel vs. sequential dispatch, CSR
//! arena vs. the legacy nested-`Vec` reference, paired vs. per-stream
//! FFT, fused vs. seed feature extraction), a `feature_fusion` section
//! with pass counts and fusion-related counters, an `epochs` section
//! (cold vs. warm-started epoch latency and incremental CSR fold vs.
//! from-scratch rebuild), a `pool` section (persistent-pool dispatch vs
//! a spawn-per-call scoped baseline, and the scratch-arena hit rate), obs
//! counters from one instrumented pass, and a framework bit-identity
//! check across thread counts. The
//! `parallel_speedups_meaningful` flag records whether the host had more
//! than one core; on single-core hosts the parallel ratios are context,
//! not claims, and `bench_check` skips its speedup assertions.
//!
//! Run with: `cargo run -p srtd-bench --release --bin bench_pipeline`

use srtd_cluster::{KMeans, KMeansConfig};
use srtd_core::aggregate::initial_group_weight;
use srtd_core::{
    AccountGrouping, AgTr, AgTs, GroupAggregation, Grouping, PerfectGrouping, SybilResistantTd,
};
use srtd_graph::UnionFind;
use srtd_platform::{EpochConfig, EpochEngine};
use srtd_runtime::bench::{black_box, Bench, BenchConfig, BenchStats};
use srtd_runtime::json::{Json, ToJson};
use srtd_runtime::obs;
use srtd_runtime::parallel::{parallel_map, set_max_threads, triangle_pairs};
use srtd_runtime::pool;
use srtd_runtime::rng::{Rng, SeedableRng, StdRng};
use srtd_sensing::{ScaledCampaign, ScaledCampaignConfig};
use srtd_signal::features::standardize;
use srtd_signal::fft::{
    fft_windowed_real_into, fft_windowed_real_pair_into, real_pair_magnitudes_into,
};
use srtd_signal::{stream_features_batch, Spectrum};
use srtd_timeseries::{dtw, PrunedPairwise};
use srtd_truth::{max_abs_delta, ConvergenceCriterion, Report, SensingData};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Campaign shape: the `exp_large_scale` regime scaled until the
/// framework's parallel gate (64 tasks) is comfortably passed.
const LEGIT: usize = 200;
const ATTACKERS: usize = 2;
const SYBILS_PER_ATTACKER: usize = 20;
const TASKS: usize = 600;
const REPORT_PROB: f64 = 0.25;

/// Interleaved (seq, par4) single-call pairs behind
/// `speedups.framework_par4_vs_seq`; odd, so the median is one pair.
const FRAMEWORK_PAIRS: usize = 21;

/// Timed calls behind each `grouping_scale` signal's `wall_ms`; odd, so
/// the median is one call.
const SCALE_CALLS: usize = 5;

/// A deterministic large campaign: 240 accounts in 202 true groups over
/// 600 tasks, ~25% report density, two Sybil attackers pushing -50 dBm.
fn large_campaign(seed: u64) -> (SensingData, Vec<usize>) {
    let accounts = LEGIT + ATTACKERS * SYBILS_PER_ATTACKER;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = SensingData::new(TASKS);
    let mut labels = Vec::with_capacity(accounts);
    for a in 0..accounts {
        let owner = if a < LEGIT {
            a
        } else {
            LEGIT + (a - LEGIT) / SYBILS_PER_ATTACKER
        };
        labels.push(owner);
        for t in 0..TASKS {
            if rng.gen_range(0f64..1.0) >= REPORT_PROB {
                continue;
            }
            let truth = (t as f64 * 0.37).sin() * 20.0 - 70.0;
            let value = if owner >= LEGIT {
                -50.0
            } else {
                truth + rng.gen_range(-3f64..3.0)
            };
            data.add_report(a, t, value, t as f64 * 10.0 + a as f64 * 0.01);
        }
    }
    (data, labels)
}

/// The pre-CSR reference implementation of Algorithm 2's data-grouping
/// and iteration stages: an allocated snapshot of each task's claims, one
/// bucket `Vec` per group per task, sequential loss/truth loops. Kept
/// here (not in the library) purely as the bench's legacy baseline.
fn legacy_discover(data: &SensingData, grouping: &Grouping) -> (Vec<Option<f64>>, Vec<f64>, usize) {
    let m = data.num_tasks();
    let l = grouping.len();
    let mut per_task: Vec<Vec<(usize, f64, f64)>> = Vec::with_capacity(m);
    for j in 0..m {
        let (accounts, values) = data.task_claims(j);
        let claims: Vec<(u32, f64)> = accounts
            .iter()
            .copied()
            .zip(values.iter().copied())
            .collect();
        if claims.is_empty() {
            per_task.push(Vec::new());
            continue;
        }
        let reporters = claims.len();
        let mut by_group: Vec<Vec<f64>> = vec![Vec::new(); l];
        for &(account, value) in &claims {
            by_group[grouping.group_of(account as usize)].push(value);
        }
        per_task.push(
            by_group
                .iter()
                .enumerate()
                .filter(|(_, vals)| !vals.is_empty())
                .map(|(k, vals)| {
                    (
                        k,
                        GroupAggregation::default().aggregate(vals),
                        initial_group_weight(vals.len(), reporters),
                    )
                })
                .collect(),
        );
    }
    let estimate =
        |entries: &[(usize, f64, f64)], weight_of: &dyn Fn(usize, f64) -> f64| -> Option<f64> {
            let mut num = 0.0;
            let mut den = 0.0;
            let mut sum = 0.0;
            let mut count = 0usize;
            for &(k, v, seed) in entries {
                let w = weight_of(k, seed);
                num += w * v;
                den += w;
                sum += v;
                count += 1;
            }
            if count == 0 {
                None
            } else if den > 0.0 {
                Some(num / den)
            } else {
                Some(sum / count as f64)
            }
        };
    let mut truths: Vec<Option<f64>> = per_task
        .iter()
        .map(|entries| estimate(entries, &|_, seed| seed))
        .collect();
    let scales: Vec<f64> = per_task
        .iter()
        .map(|entries| {
            if entries.len() < 2 {
                return 1.0;
            }
            let mean = entries.iter().map(|&(_, v, _)| v).sum::<f64>() / entries.len() as f64;
            let var = entries
                .iter()
                .map(|&(_, v, _)| (v - mean) * (v - mean))
                .sum::<f64>()
                / entries.len() as f64;
            var.sqrt().max(1e-9)
        })
        .collect();
    let criterion = ConvergenceCriterion::default();
    let mut weights = vec![1.0f64; l];
    let mut iterations = 0;
    for iter in 0..criterion.max_iterations {
        iterations = iter + 1;
        let mut losses = vec![0.0f64; l];
        for (j, entries) in per_task.iter().enumerate() {
            let Some(truth) = truths[j] else { continue };
            for &(k, value, _) in entries {
                let e = (value - truth) / scales[j];
                losses[k] += e * e;
            }
        }
        let total: f64 = losses.iter().sum();
        for (w, &loss) in weights.iter_mut().zip(&losses) {
            *w = (total.max(1e-12) / loss.max(1e-12)).ln().max(0.0);
        }
        if weights.iter().all(|&w| w == 0.0) {
            weights.fill(1.0);
        }
        let next: Vec<Option<f64>> = per_task
            .iter()
            .map(|entries| estimate(entries, &|k, _| weights[k]))
            .collect();
        let delta = max_abs_delta(&truths, &next);
        truths = next;
        if delta <= criterion.tolerance {
            break;
        }
    }
    (truths, weights, iterations)
}

/// The pre-fusion Table-II extraction path: per-call cosine windowing
/// into a copy, one FFT per stream, and one or more passes per feature —
/// the exact shape the fused kernels replaced. Kept in the bench (like
/// [`legacy_discover`]) so the fused-vs-seed speedup is measured on this
/// host rather than asserted from history. It carries the product's Hann
/// window and brightness cut-off as its own formulas.
mod seed_features {
    use srtd_signal::fft::fft_windowed_real_into;
    use srtd_signal::spectral::{
        brightness, rolloff, roughness, SpectralFeatures, ROLLOFF_FRACTION,
    };
    use srtd_signal::stats;
    use srtd_signal::temporal::{non_negative_fraction, zero_crossing_rate, TemporalFeatures};
    use srtd_signal::{Spectrum, StreamFeatures};

    /// A Hann-windowed copy, one cosine per sample; frames shorter than 2
    /// samples pass through.
    fn windowed(signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        if n < 2 {
            return signal.to_vec();
        }
        signal
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let t = i as f64 / (n - 1) as f64;
                x * (0.5 - 0.5 * (2.0 * std::f64::consts::PI * t).cos())
            })
            .collect()
    }

    fn temporal(signal: &[f64]) -> TemporalFeatures {
        let (max, min) = if signal.is_empty() {
            (0.0, 0.0)
        } else {
            (
                signal.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                signal.iter().cloned().fold(f64::INFINITY, f64::min),
            )
        };
        TemporalFeatures {
            mean: stats::mean(signal),
            std_dev: stats::std_dev(signal),
            skewness: stats::skewness(signal),
            kurtosis: stats::kurtosis(signal),
            rms: stats::rms(signal),
            max,
            min,
            zcr: zero_crossing_rate(signal),
            non_negative_fraction: non_negative_fraction(signal),
        }
    }

    fn flatness(body: &[f64]) -> f64 {
        let n = body.len() as f64;
        let arith = body.iter().sum::<f64>() / n;
        if arith <= 0.0 || body.iter().any(|&m| m <= 0.0) {
            return 0.0;
        }
        let log_geo = body.iter().map(|&m| m.ln()).sum::<f64>() / n;
        (log_geo.exp() / arith).clamp(0.0, 1.0)
    }

    fn irregularity(body: &[f64]) -> f64 {
        let denom: f64 = body.iter().map(|&m| m * m).sum();
        if denom <= 0.0 || body.len() < 2 {
            return 0.0;
        }
        let num: f64 = body.windows(2).map(|w| (w[0] - w[1]).powi(2)).sum();
        num / denom
    }

    fn entropy(body: &[f64], total: f64) -> f64 {
        if body.len() < 2 {
            return 0.0;
        }
        let h: f64 = body
            .iter()
            .filter(|&&m| m > 0.0)
            .map(|&m| {
                let p = m / total;
                -p * p.ln()
            })
            .sum();
        (h / (body.len() as f64).ln()).clamp(0.0, 1.0)
    }

    fn spectral(spectrum: &Spectrum, cutoff_hz: f64) -> SpectralFeatures {
        let mags = spectrum.magnitudes();
        let body = if mags.len() > 1 { &mags[1..] } else { &[][..] };
        let total: f64 = body.iter().sum();
        if body.is_empty() || total <= 0.0 {
            return SpectralFeatures::default();
        }
        let freq = |k: usize| spectrum.frequency(k + 1);
        let centroid: f64 = body
            .iter()
            .enumerate()
            .map(|(k, &m)| freq(k) * m)
            .sum::<f64>()
            / total;
        let var: f64 = body
            .iter()
            .enumerate()
            .map(|(k, &m)| (freq(k) - centroid).powi(2) * m)
            .sum::<f64>()
            / total;
        let spread = var.sqrt();
        let (skewness, kurtosis) = if spread > 0.0 {
            let m3: f64 = body
                .iter()
                .enumerate()
                .map(|(k, &m)| (freq(k) - centroid).powi(3) * m)
                .sum::<f64>()
                / total;
            let m4: f64 = body
                .iter()
                .enumerate()
                .map(|(k, &m)| (freq(k) - centroid).powi(4) * m)
                .sum::<f64>()
                / total;
            (m3 / spread.powi(3), m4 / spread.powi(4))
        } else {
            (0.0, 0.0)
        };
        SpectralFeatures {
            centroid,
            spread,
            skewness,
            kurtosis,
            flatness: flatness(body),
            irregularity: irregularity(body),
            entropy: entropy(body, total),
            rolloff: rolloff(spectrum, ROLLOFF_FRACTION),
            brightness: brightness(spectrum, cutoff_hz),
            rms: stats::rms(body),
            roughness: roughness(spectrum),
        }
    }

    pub fn extract(signal: &[f64], sample_rate: f64) -> StreamFeatures {
        let mut buf = Vec::new();
        fft_windowed_real_into(&mut buf, &windowed(signal), None);
        let spectrum = Spectrum::from_fft_into(&buf, sample_rate, Vec::new());
        StreamFeatures {
            temporal: temporal(signal),
            spectral: spectral(&spectrum, 0.3 * sample_rate / 2.0),
        }
    }
}

/// The spawn-per-call baseline of the pool dispatch bench: the chunks
/// `parallel_map` cuts at `threads` workers, each on a fresh scoped
/// thread, joined in chunk order.
fn scoped_map<T: Sync, U: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<U>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scoped worker panicked"))
            .collect()
    })
}

fn result_bits(truths: &[Option<f64>], weights: &[f64], trace: &[f64]) -> Vec<u64> {
    truths
        .iter()
        .map(|t| t.map_or(u64::MAX, f64::to_bits))
        .chain(weights.iter().map(|w| w.to_bits()))
        .chain(trace.iter().map(|d| d.to_bits()))
        .collect()
}

fn stats_json(group: &str, name: &str, stats: BenchStats, params: Vec<(&str, Json)>) -> Json {
    let mut fields = vec![
        ("group", Json::str(group)),
        ("name", Json::str(name)),
        ("median_ns", stats.median_ns.to_json()),
        ("min_ns", stats.min_ns.to_json()),
        ("max_ns", stats.max_ns.to_json()),
        ("batch", stats.batch.to_json()),
    ];
    fields.extend(params);
    Json::obj(fields)
}

/// Accounts each `regroup_scale` round touches.
const REGROUP_DIRTY: usize = 100;

/// Campaign sizes of the `regroup_scale` section.
const REGROUP_SIZES: [usize; 3] = [5_000, 20_000, 80_000];

/// The epoch stages `regroup_scale` splits, in export order, each with
/// its path below `server.epoch` in the epoch's trace tree: the index
/// update runs inside `epoch.regroup`, Algorithm 2's per-task arena build
/// and iteration loop inside `epoch.discover`.
const REGROUP_STAGES: [(&str, &[&str]); 7] = [
    ("epoch.fold", &["epoch.fold"]),
    ("epoch.regroup", &["epoch.regroup"]),
    (
        "epoch.index_update",
        &["epoch.regroup", "epoch.index_update"],
    ),
    ("epoch.discover", &["epoch.discover"]),
    (
        "framework.per_task_build",
        &[
            "epoch.discover",
            "framework.discover",
            "framework.per_task_build",
        ],
    ),
    (
        "framework.td_loop",
        &["epoch.discover", "framework.discover", "framework.td_loop"],
    ),
    ("epoch.swap", &["epoch.swap"]),
];

/// Wall-clock nanoseconds of each of [`REGROUP_STAGES`] in one epoch's
/// telemetry window.
fn epoch_stage_ns(window: &obs::WindowRecord) -> [f64; 7] {
    let root = window
        .trace
        .iter()
        .find(|n| n.name == "server.epoch")
        .expect("an epoch window");
    REGROUP_STAGES.map(|(stage, path)| {
        path.iter()
            .try_fold(root, |node, name| {
                node.children.iter().find(|c| c.name == *name)
            })
            .unwrap_or_else(|| panic!("every stage runs: {stage}"))
            .total_ns as f64
    })
}

/// The whole [`epoch_stage_ns`] split of the epoch whose `epoch.discover`
/// is the median of `epochs`: stages taken from one epoch nest as they
/// ran, where per-stage medians of different epochs need not.
fn median_epoch(epochs: &[[f64; 7]]) -> [f64; 7] {
    let discover = REGROUP_STAGES
        .iter()
        .position(|&(stage, _)| stage == "epoch.discover")
        .expect("a discover stage");
    let mut epochs = epochs.to_vec();
    epochs.sort_by(|a, b| a[discover].total_cmp(&b[discover]));
    epochs[epochs.len() / 2]
}

/// One engine grouping `campaign` with `method`: a set-up epoch folds all
/// but `rounds × REGROUP_DIRTY` held-back reports (the latest of as many
/// accounts); then each round folds one held-back report into each of
/// `REGROUP_DIRTY` accounts, and runs one more epoch with nothing new.
/// Returns the stage split of the median touched epoch and of the median
/// empty one (by `epoch.discover`), read from each epoch's telemetry
/// window.
fn regroup_rounds<G: AccountGrouping>(
    method: G,
    campaign: &ScaledCampaign,
    rounds: usize,
) -> ([f64; 7], [f64; 7]) {
    let data = &campaign.data;
    let stride = data.num_accounts() / (rounds * REGROUP_DIRTY);
    let held: Vec<Report> = (0..rounds * REGROUP_DIRTY)
        .map(|k| {
            let trajectory = data.trajectory_of(k * stride);
            *trajectory.last().expect("every account reports")
        })
        .collect();
    let held_keys: HashSet<(usize, usize)> = held.iter().map(|r| (r.account, r.task)).collect();
    let mut engine = EpochEngine::new(
        SybilResistantTd::new(method),
        data.num_tasks(),
        EpochConfig::default(),
    );
    let mut epoch = |reports: &mut dyn Iterator<Item = &Report>| {
        for r in reports {
            engine
                .ingest(r.account, r.task, r.value, r.timestamp)
                .expect("a campaign report");
        }
        engine.run_epoch();
        obs::latest_window()
    };
    epoch(
        &mut data
            .reports()
            .iter()
            .filter(|r| !held_keys.contains(&(r.account, r.task))),
    );
    obs::set_enabled(true);
    obs::reset();
    let (mut touched, mut empty) = (Vec::new(), Vec::new());
    for round in held.chunks(REGROUP_DIRTY) {
        let window = epoch(&mut round.iter()).expect("an epoch window");
        let dirty = window
            .report
            .counters
            .iter()
            .find(|(name, _)| name == "epoch.regroup.dirty_accounts")
            .map_or(0, |&(_, n)| n);
        assert_eq!(
            dirty, REGROUP_DIRTY as u64,
            "a round touches exactly its accounts"
        );
        touched.push(epoch_stage_ns(&window));
        empty.push(epoch_stage_ns(
            &epoch(&mut std::iter::empty()).expect("an epoch window"),
        ));
    }
    obs::set_enabled(false);
    (median_epoch(&touched), median_epoch(&empty))
}

/// What one `group()` call recorded about its blocking: the
/// `grouping.<signal>.pairs.{total,candidate}` counters and the
/// `grouping.<signal>.buckets` gauge.
struct BlockingCounts {
    total: u64,
    candidate: u64,
    buckets: u64,
}

/// Runs `group` once instrumented and reads `signal`'s blocking counts,
/// so the bench reports the candidates the product's own `group()`
/// scores.
fn blocking_counts(signal: &str, group: impl FnOnce() -> Grouping) -> BlockingCounts {
    obs::set_enabled(true);
    obs::reset();
    let _ = group();
    let report = obs::snapshot();
    obs::set_enabled(false);
    let counter = |name: String| {
        report
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    };
    let buckets = format!("grouping.{signal}.buckets");
    BlockingCounts {
        total: counter(format!("grouping.{signal}.pairs.total")),
        candidate: counter(format!("grouping.{signal}.pairs.candidate")),
        buckets: report
            .gauges
            .iter()
            .find(|(k, _)| *k == buckets)
            .map_or(0, |&(_, v)| v as u64),
    }
}

/// Runs `f` [`SCALE_CALLS`] times and returns its last output with the
/// median wall time of one call, in ms. Dropping an output is not timed.
fn median_call_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut out = None;
    let mut ms: Vec<f64> = (0..SCALE_CALLS)
        .map(|_| {
            let start = Instant::now();
            let value = black_box(f());
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            out = Some(value);
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    (out.expect("at least one call"), ms[SCALE_CALLS / 2])
}

/// `regroup_scale`'s export of one stage split.
fn stages_json(stages: &[f64; 7]) -> Json {
    Json::obj(
        REGROUP_STAGES
            .iter()
            .zip(stages)
            .map(|((name, _), ns)| (*name, ns.to_json())),
    )
}

fn main() {
    let quick = !matches!(std::env::var("SRTD_BENCH_FULL"), Ok(v) if v == "1");
    let config = if quick {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let threads_available = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut cases: Vec<Json> = Vec::new();

    // ---- Framework (Algorithm 2) on the large-scale campaign ----
    let (data, labels) = large_campaign(0);
    let grouping = PerfectGrouping::new(labels).group(&data, &[]);
    let framework = SybilResistantTd::new(PerfectGrouping::new(vec![]));
    let num_reports = data.reports().len();
    let num_groups = grouping.len();

    // Byte-identity across worker counts, asserted before timing.
    set_max_threads(1);
    let r1 = framework.discover_with_grouping(&data, grouping.clone());
    set_max_threads(4);
    let r4 = framework.discover_with_grouping(&data, grouping.clone());
    set_max_threads(0);
    let bit_identical = result_bits(&r1.truths, &r1.group_weights, &r1.convergence_trace)
        == result_bits(&r4.truths, &r4.group_weights, &r4.convergence_trace);
    assert!(
        bit_identical,
        "framework output must be byte-identical at 1 vs 4 worker threads"
    );

    // Legacy reference must agree numerically (different float association
    // allows ulp-level drift, nothing more).
    let (legacy_truths, _, _) = legacy_discover(&data, &grouping);
    for (a, b) in r1.truths.iter().zip(&legacy_truths) {
        match (a, b) {
            (Some(x), Some(y)) => assert!(
                (x - y).abs() < 1e-6 * (1.0 + x.abs()),
                "CSR vs legacy drifted: {x} vs {y}"
            ),
            (None, None) => {}
            _ => panic!("CSR vs legacy coverage mismatch"),
        }
    }

    let mut group = Bench::with_config("pipeline", config);
    let framework_params = vec![
        ("tasks", TASKS.to_json()),
        (
            "accounts",
            (LEGIT + ATTACKERS * SYBILS_PER_ATTACKER).to_json(),
        ),
        ("groups", num_groups.to_json()),
        ("reports", num_reports.to_json()),
    ];

    set_max_threads(1);
    let fw_seq = group.run("framework/large/seq", || {
        framework.discover_with_grouping(black_box(&data), grouping.clone())
    });
    set_max_threads(4);
    let fw_par4 = group.run("framework/large/par4", || {
        framework.discover_with_grouping(black_box(&data), grouping.clone())
    });
    // The two blocks above also warm both paths up. Timed back to back,
    // they drift with whatever else the host runs between them, so the
    // exported speedup is the median ratio of interleaved single-call
    // pairs, alternating which side runs first.
    let time_call = |threads: usize| {
        set_max_threads(threads);
        let start = Instant::now();
        black_box(framework.discover_with_grouping(black_box(&data), grouping.clone()));
        start.elapsed().as_secs_f64()
    };
    let mut pair_ratios: Vec<f64> = (0..FRAMEWORK_PAIRS)
        .map(|k| {
            let (seq, par4) = if k % 2 == 0 {
                let seq = time_call(1);
                (seq, time_call(4))
            } else {
                let par4 = time_call(4);
                (time_call(1), par4)
            };
            seq / par4
        })
        .collect();
    set_max_threads(0);
    pair_ratios.sort_by(f64::total_cmp);
    let framework_par4_vs_seq = pair_ratios[FRAMEWORK_PAIRS / 2];
    println!(
        "framework/large par4 vs seq: {framework_par4_vs_seq:.3} \
         (median of {FRAMEWORK_PAIRS} interleaved pairs)"
    );
    let fw_legacy = group.run("framework/large/legacy", || {
        legacy_discover(black_box(&data), black_box(&grouping))
    });
    cases.push(stats_json(
        "framework",
        "large/seq",
        fw_seq,
        framework_params.clone(),
    ));
    cases.push(stats_json(
        "framework",
        "large/par4",
        fw_par4,
        framework_params.clone(),
    ));
    cases.push(stats_json(
        "framework",
        "large/legacy",
        fw_legacy,
        framework_params,
    ));

    // ---- FFT: per-stream vs two-for-one, single vs batched features ----
    // Both cases end at two magnitude spectra in recycled storage, as the
    // feature path does: two single-stream transforms, each read out
    // through `Spectrum::from_fft_into`, against one pair transform and
    // its split.
    let n_fft = 1024usize;
    let x: Vec<f64> = (0..n_fft).map(|i| (i as f64 * 0.37).sin()).collect();
    let y: Vec<f64> = (0..n_fft).map(|i| (i as f64 * 0.91).cos()).collect();
    let mut fft_buf = Vec::new();
    let (mut mag_x, mut mag_y) = (Vec::new(), Vec::new());
    let fft_single = group.run("fft/two_singles/1024", || {
        for (s, mag) in [(&x, &mut mag_x), (&y, &mut mag_y)] {
            fft_windowed_real_into(black_box(&mut fft_buf), black_box(s), None);
            let spectrum = Spectrum::from_fft_into(&fft_buf, 100.0, std::mem::take(mag));
            *mag = spectrum.into_magnitudes();
        }
        black_box((&mag_x, &mag_y));
    });
    let fft_paired = group.run("fft/real_pair/1024", || {
        fft_windowed_real_pair_into(
            black_box(&mut fft_buf),
            black_box(&x),
            None,
            black_box(&y),
            None,
        );
        real_pair_magnitudes_into(&fft_buf, &mut mag_x, &mut mag_y);
        black_box((&mag_x, &mag_y));
    });
    cases.push(stats_json(
        "fft",
        "two_singles/1024",
        fft_single,
        vec![("n", n_fft.to_json())],
    ));
    cases.push(stats_json(
        "fft",
        "real_pair/1024",
        fft_paired,
        vec![("n", n_fft.to_json())],
    ));

    let streams: Vec<Vec<f64>> = (0..4)
        .map(|s| {
            (0..600)
                .map(|i| (i as f64 * (0.21 + s as f64 * 0.13)).sin() * 2.0 + 9.81)
                .collect()
        })
        .collect();
    let feat_rate = 100.0;

    // The seed reference must agree with the fused library path before
    // either is timed (the fused kernels preserve accumulation order, so
    // the agreement is in practice bit-exact; 1e-9 is the contract).
    for s in &streams {
        let fused = stream_features_batch(&[s], feat_rate)[0].to_vec();
        let seeded = seed_features::extract(s, feat_rate).to_vec();
        for (a, b) in fused.iter().zip(&seeded) {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                "fused vs seed extraction drifted: {a} vs {b}"
            );
        }
    }

    let feat_seed = group.run("features/seed/4x600", || {
        streams
            .iter()
            .map(|s| seed_features::extract(black_box(s), feat_rate))
            .collect::<Vec<_>>()
    });
    let feat_single = group.run("features/per_stream/4x600", || {
        streams
            .iter()
            .map(|s| stream_features_batch(&[black_box(s)], feat_rate))
            .collect::<Vec<_>>()
    });
    let feat_batch = group.run("features/fused/4x600", || {
        stream_features_batch(black_box(&streams), feat_rate)
    });
    let feat_params = vec![("streams", 4usize.to_json()), ("len", 600usize.to_json())];
    cases.push(stats_json(
        "features",
        "seed/4x600",
        feat_seed,
        feat_params.clone(),
    ));
    cases.push(stats_json(
        "features",
        "per_stream/4x600",
        feat_single,
        feat_params.clone(),
    ));
    cases.push(stats_json(
        "features",
        "fused/4x600",
        feat_batch,
        feat_params,
    ));

    // ---- Pool dispatch: persistent workers vs scoped spawn-per-call ----
    // Same items, same deterministic chunking, same closure — the only
    // difference is how workers come to exist (unpark vs spawn), so the
    // median gap is pure thread-management overhead. The scoped side is
    // `scoped_map` below, a fresh `std::thread::scope` per call over the
    // chunks `parallel_map` cuts at 4 workers. Outputs are asserted
    // bit-identical before either path is timed. The scratch counters
    // around a fused feature pass record how often the per-thread FFT
    // arena checkout found warm buffers; warm arenas across batches are
    // the reason the pool is persistent at all.
    let dispatch_items: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
    let dispatch_job = |&x: &f64| (x * 1.000_001 + 0.25).sqrt();
    set_max_threads(4);
    let out_scoped = scoped_map(&dispatch_items, 4, dispatch_job);
    let disp_scoped = group.run("pool/dispatch_scoped/4x256", || {
        scoped_map(black_box(&dispatch_items), 4, dispatch_job)
    });
    let out_pool = parallel_map(&dispatch_items, dispatch_job);
    assert!(
        out_pool
            .iter()
            .zip(&out_scoped)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "pool and scoped dispatch must produce identical bits"
    );
    let disp_pool = group.run("pool/dispatch_pool/4x256", || {
        parallel_map(black_box(&dispatch_items), dispatch_job)
    });
    let scratch_before = pool::stats();
    for _ in 0..8 {
        black_box(stream_features_batch(&streams, feat_rate));
    }
    let scratch_after = pool::stats();
    set_max_threads(0);
    let scratch_checkouts = scratch_after.scratch_checkouts - scratch_before.scratch_checkouts;
    let scratch_reuses = scratch_after.scratch_reuses - scratch_before.scratch_reuses;
    let pool_params = vec![
        ("items", dispatch_items.len().to_json()),
        ("threads", 4usize.to_json()),
    ];
    cases.push(stats_json(
        "pool",
        "dispatch_scoped/4x256",
        disp_scoped,
        pool_params.clone(),
    ));
    cases.push(stats_json(
        "pool",
        "dispatch_pool/4x256",
        disp_pool,
        pool_params,
    ));

    // ---- DTW: the one the product runs, under its band (25 at n = 200) ----
    let dtw_n = 200usize;
    let a: Vec<f64> = (0..dtw_n).map(|i| (i as f64 * 0.11).sin() * 5.0).collect();
    let b: Vec<f64> = (0..dtw_n)
        .map(|i| (i as f64 * 0.11 + 0.8).sin() * 5.0)
        .collect();
    let dtw_raw = group.run("dtw/raw/200", || dtw(black_box(&a), black_box(&b)));
    cases.push(stats_json(
        "dtw",
        "raw/200",
        dtw_raw,
        vec![("n", dtw_n.to_json())],
    ));

    // ---- AG-TR pairwise pruning on the large campaign ----
    // The grouping must equal the components of the exact matrix's
    // below-φ pairs (this is the bench-side guard; the root equivalence
    // test suite is the exhaustive one), and pruning must have skipped at
    // least one of the n(n−1)/2 full DTW evaluations to count as a win.
    let ag_tr = AgTr::default();
    let full_matrix = ag_tr.dissimilarity_matrix(&data);
    let mut components = UnionFind::new(full_matrix.len());
    for (i, row) in full_matrix.iter().enumerate() {
        for (j, &d) in row.iter().enumerate().skip(i + 1) {
            if d < ag_tr.phi() {
                components.union(i, j);
            }
        }
    }
    let grouping_identical = ag_tr.group(&data, &[]) == Grouping::new(components.into_groups());
    assert!(
        grouping_identical,
        "AG-TR grouping must match the exact matrix's components"
    );
    // The pruned engine AG-TR runs, over every pair rather than the
    // blocked candidates: kept distances must be bit-identical to the
    // exact matrix, and every pair it drops must be at or above φ.
    let trajectories = ag_tr.trajectories(&data);
    let all_pairs = triangle_pairs(trajectories.len());
    let pruned_engine = PrunedPairwise::new(ag_tr.phi());
    let (pruned_edges, prune_stats) = pruned_engine.edges2_with_stats(&trajectories, &all_pairs);
    assert!(
        prune_stats.full_evals < prune_stats.pairs,
        "pruning must skip full DTW evaluations on the large campaign \
         ({} of {} ran to completion)",
        prune_stats.full_evals,
        prune_stats.pairs,
    );
    let mut kept = HashSet::new();
    for &(i, j, d) in &pruned_edges {
        assert_eq!(
            d.to_bits(),
            full_matrix[i][j].to_bits(),
            "kept pair ({i},{j}) must be bit-identical"
        );
        kept.insert((i, j));
    }
    for &(i, j) in &all_pairs {
        assert!(
            kept.contains(&(i, j)) || full_matrix[i][j] >= ag_tr.phi(),
            "pruned a below-φ pair ({i},{j})"
        );
    }

    // The full matrix costs ~hundreds of ms per call, so the pruning
    // comparison gets its own smaller quick-mode budget.
    let prune_cfg = if quick {
        BenchConfig {
            warmup_time: Duration::from_millis(10),
            sample_time: Duration::from_millis(5),
            samples: 3,
        }
    } else {
        BenchConfig::default()
    };
    let mut prune_group = Bench::with_config("dtw_prune", prune_cfg);
    let prune_params = vec![
        (
            "accounts",
            (LEGIT + ATTACKERS * SYBILS_PER_ATTACKER).to_json(),
        ),
        ("pairs", prune_stats.pairs.to_json()),
    ];
    let matrix_full = prune_group.run("agtr_matrix/full", || {
        ag_tr.dissimilarity_matrix(black_box(&data))
    });
    let edges_pruned = prune_group.run("agtr_edges/pruned", || {
        pruned_engine.edges2_with_stats(black_box(&ag_tr.trajectories(&data)), &all_pairs)
    });
    cases.push(stats_json(
        "dtw_prune",
        "agtr_matrix/full",
        matrix_full,
        prune_params.clone(),
    ));
    cases.push(stats_json(
        "dtw_prune",
        "agtr_edges/pruned",
        edges_pruned,
        prune_params,
    ));

    // Per-signal candidate counts on the same campaign: how many of the
    // n(n−1)/2 pairs each blocked signal's `group()` actually scores (the
    // honesty columns of the dtw_prune export). AG-TS candidates do not
    // depend on ρ ≥ 0.
    let ts_block = blocking_counts("ag_ts", || AgTs::default().group(&data, &[]));
    let tr_block = blocking_counts("ag_tr", || ag_tr.group(&data, &[]));

    // ---- Grouping at scale: a 100k-account campaign, all three signals ----
    // The sub-quadratic claim measured, not asserted: blocked candidate
    // generation must leave ≥ 99% of the n(n−1)/2 pairs unvisited while
    // grouping still runs end to end. Each signal's wall time is the
    // median of SCALE_CALLS calls: one call of the same code spreads up
    // to 2× on a busy host, and a Bench loop would blow the quick-mode
    // budget `scripts/verify.sh` runs under.
    let scale_cfg = ScaledCampaignConfig::new(100_000).with_seed(42);
    let t_gen = Instant::now();
    let campaign = ScaledCampaign::generate(&scale_cfg);
    let scale_generate_ms = t_gen.elapsed().as_secs_f64() * 1e3;
    let sn = campaign.num_accounts();
    // Eq. 6 scales as T²/m for identical task sets, so the worked-example
    // ρ = 1 would reject even perfect replicas at m = 2000 (6²/2000 ≈
    // 0.018): the threshold must scale with the campaign. The blocking
    // counts come from one instrumented `group()` per signal; the timed
    // calls run uninstrumented.
    let ag_ts_scale = AgTs::new(0.01);
    let ts_scale = blocking_counts("ag_ts", || ag_ts_scale.group(&campaign.data, &[]));
    let (g_ts_scale, scale_ts_ms) = median_call_ms(|| ag_ts_scale.group(&campaign.data, &[]));
    let ag_tr_scale = AgTr::default();
    let tr_scale = blocking_counts("ag_tr", || ag_tr_scale.group(&campaign.data, &[]));
    let (g_tr_scale, scale_tr_ms) = median_call_ms(|| ag_tr_scale.group(&campaign.data, &[]));
    let (fp_scale, scale_fp_ms) = median_call_ms(|| {
        let scale_points = standardize(&campaign.fingerprints);
        KMeans::new(
            KMeansConfig::new(campaign.num_devices)
                .with_restarts(1)
                .with_max_iterations(25),
        )
        .fit(&scale_points)
    });
    assert_eq!(fp_scale.assignments.len(), sn);
    // Both pairwise signals must group the Sybil rings: every ring merges
    // its five members, so each signal loses at least 4 accounts per ring
    // relative to all-singletons.
    let rings = scale_cfg.num_rings;
    assert!(
        g_ts_scale.len() <= sn - 4 * rings && g_tr_scale.len() <= sn - 4 * rings,
        "scaled grouping missed Sybil rings: TS {} TR {} groups of {sn}",
        g_ts_scale.len(),
        g_tr_scale.len(),
    );
    let scale_pairs_total = ts_scale.total + tr_scale.total;
    let scale_pairs_visited = ts_scale.candidate + tr_scale.candidate;
    let scale_skip_rate = 1.0 - scale_pairs_visited as f64 / scale_pairs_total as f64;
    assert!(
        scale_skip_rate >= 0.99,
        "blocking must skip ≥ 99% of pairwise work at 100k accounts \
         (visited {scale_pairs_visited} of {scale_pairs_total})"
    );

    // ---- Epochs: cold vs warm-start epoch latency, fold vs rebuild ----
    // The steady-state epoch contract: re-running Algorithm 2 on
    // unchanged data seeded with the previous epoch's weights converges
    // in 1 iteration instead of ~5, so a warm epoch pays one truth/weight
    // round plus the arena build.
    let cold_epoch = framework.discover_with_grouping(&data, grouping.clone());
    let warm_epoch = framework.discover_with_grouping_seeded(
        &data,
        grouping.clone(),
        Some(&cold_epoch.group_weights),
    );
    assert!(warm_epoch.warm_started, "warm seed must be accepted");
    assert!(
        warm_epoch.iterations <= 2 && warm_epoch.iterations < cold_epoch.iterations,
        "warm epoch took {} iterations vs {} cold",
        warm_epoch.iterations,
        cold_epoch.iterations
    );
    let ep_cold = group.run("epochs/cold", || {
        framework.discover_with_grouping(black_box(&data), grouping.clone())
    });
    let ep_warm = group.run("epochs/warm", || {
        framework.discover_with_grouping_seeded(
            black_box(&data),
            grouping.clone(),
            Some(&cold_epoch.group_weights),
        )
    });
    let epoch_params = vec![
        ("cold_iterations", cold_epoch.iterations.to_json()),
        ("warm_iterations", warm_epoch.iterations.to_json()),
    ];
    cases.push(stats_json("epochs", "cold", ep_cold, epoch_params.clone()));
    cases.push(stats_json("epochs", "warm", ep_warm, epoch_params));

    // Data-plane half of the epoch story: admitting a batch of new
    // reports by folding into the warm CSR indexes vs the pre-incremental
    // world (invalidate, re-index everything from scratch on next read).
    // `data`'s indexes are warm from the runs above; `cold_base` holds the
    // same reports with its caches never touched, so the accessor pays a
    // fold of the whole report list into empty indexes after the fold.
    let accounts = LEGIT + ATTACKERS * SYBILS_PER_ATTACKER;
    let new_accounts = 10usize;
    let mut batch_rng = StdRng::seed_from_u64(99);
    let mut batch: Vec<Report> = Vec::new();
    for a in accounts..accounts + new_accounts {
        for t in 0..TASKS {
            if batch_rng.gen_range(0f64..1.0) < REPORT_PROB {
                batch.push(Report {
                    account: a,
                    task: t,
                    value: -50.0,
                    timestamp: t as f64 * 10.0 + a as f64 * 0.01,
                });
            }
        }
    }
    let (cold_base, _) = large_campaign(0);
    let touch = |d: &SensingData| {
        d.task_claims(0).0.len() + d.account_reports(accounts + new_accounts - 1).len()
    };
    let fold_warm = group.run("epochs/fold_incremental", || {
        let mut d = data.clone();
        d.reserve_accounts(accounts + new_accounts);
        d.fold_batch(black_box(&batch));
        black_box(touch(&d))
    });
    let fold_rebuild = group.run("epochs/fold_rebuild", || {
        let mut d = cold_base.clone();
        d.reserve_accounts(accounts + new_accounts);
        d.fold_batch(black_box(&batch));
        black_box(touch(&d))
    });
    let fold_params = vec![
        ("batch_reports", batch.len().to_json()),
        ("base_reports", num_reports.to_json()),
    ];
    cases.push(stats_json(
        "epochs",
        "fold_incremental",
        fold_warm,
        fold_params.clone(),
    ));
    cases.push(stats_json(
        "epochs",
        "fold_rebuild",
        fold_rebuild,
        fold_params,
    ));

    // ---- Obs counters from one instrumented pass over the same paths ----
    obs::set_enabled(true);
    obs::reset();
    let _ = framework.discover_with_grouping(&data, grouping.clone());
    let _ = stream_features_batch(&streams, feat_rate);
    let _ = dtw(&a, &b);
    let _ = pruned_engine.edges2_with_stats(&ag_tr.trajectories(&data), &all_pairs);
    let report = obs::snapshot();
    obs::set_enabled(false);
    let counters: Vec<(String, u64)> = report.counters;
    let counter = |name: &str| -> u64 {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    };

    // ---- Regroup at scale: the engine-owned edge index ----
    // An epoch that touches 100 accounts, and one that touches none, on
    // AG-TR and AG-TS engines over 5k, 20k and 80k ScaledCampaign
    // accounts. The stage split comes from each epoch's own telemetry
    // window; with the index, the edge work (`epoch.index_update`) grows
    // with the touched accounts, not with the campaign.
    let regroup_rounds_n = if quick { 3 } else { 7 };
    let mut regroup_cases: Vec<(&str, Json)> = Vec::new();
    for (signal, rho) in [("ag_tr", None), ("ag_ts", Some(0.01))] {
        let mut sizes = Vec::new();
        let mut regroup_ns = Vec::new();
        for accounts in REGROUP_SIZES {
            let campaign =
                ScaledCampaign::generate(&ScaledCampaignConfig::new(accounts).with_seed(42));
            let (touched, empty) = match rho {
                None => regroup_rounds(AgTr::default(), &campaign, regroup_rounds_n),
                Some(rho) => regroup_rounds(AgTs::new(rho), &campaign, regroup_rounds_n),
            };
            println!(
                "regroup_scale {signal}, {accounts} accounts: regroup {:.2} ms (index \
                 update {:.2} ms), per-task build {:.2} ms, TD loop {:.2} ms touching \
                 {REGROUP_DIRTY} accounts; regroup {:.3} ms (index update {:.3} ms) \
                 touching none",
                touched[1] / 1e6,
                touched[2] / 1e6,
                touched[4] / 1e6,
                touched[5] / 1e6,
                empty[1] / 1e6,
                empty[2] / 1e6
            );
            regroup_ns.push(touched[1]);
            sizes.push(Json::obj([
                ("accounts", accounts.to_json()),
                ("reports", campaign.data.num_reports().to_json()),
                ("touched_epoch_ns", stages_json(&touched)),
                ("empty_epoch_ns", stages_json(&empty)),
            ]));
        }
        // Every touched epoch dirties the same 100 accounts, so the
        // regroup ratio is the per-dirty-account ratio.
        regroup_cases.push((
            signal,
            Json::obj([
                ("sizes", Json::arr(sizes)),
                (
                    "regroup_per_dirty_80k_vs_5k",
                    (regroup_ns[2] / regroup_ns[0]).to_json(),
                ),
            ]),
        ));
    }

    // ---- Obs disabled-path overhead ----
    // Every obs entry point bails on one relaxed atomic load while
    // collection is off; these loops pin that the instrumented hot paths
    // stay effectively free. Batches of OBS_OPS calls per sample make the
    // per-op cost resolvable at sub-ns scale.
    const OBS_OPS: usize = 1000;
    assert!(
        !obs::enabled(),
        "obs must be disabled for the overhead measurement"
    );
    let obs_counter = group.run("obs/counter_add_disabled/1000", || {
        for i in 0..OBS_OPS {
            obs::counter_add(black_box("bench.obs.counter"), black_box(i as u64));
        }
    });
    let obs_span = group.run("obs/span_disabled/1000", || {
        for _ in 0..OBS_OPS {
            drop(obs::span(black_box("bench.obs.span")));
        }
    });
    let obs_observe = group.run("obs/observe_disabled/1000", || {
        for i in 0..OBS_OPS {
            obs::observe(black_box("bench.obs.hist"), black_box(i as f64));
        }
    });
    let obs_params = vec![("ops", OBS_OPS.to_json())];
    cases.push(stats_json(
        "obs",
        "counter_add_disabled/1000",
        obs_counter,
        obs_params.clone(),
    ));
    cases.push(stats_json(
        "obs",
        "span_disabled/1000",
        obs_span,
        obs_params.clone(),
    ));
    cases.push(stats_json(
        "obs",
        "observe_disabled/1000",
        obs_observe,
        obs_params,
    ));

    let doc = Json::obj([
        ("schema", Json::str("srtd-bench-pipeline-v11")),
        ("quick", quick.to_json()),
        ("threads_available", threads_available.to_json()),
        (
            "input",
            Json::obj([
                ("tasks", TASKS.to_json()),
                (
                    "accounts",
                    (LEGIT + ATTACKERS * SYBILS_PER_ATTACKER).to_json(),
                ),
                ("groups", num_groups.to_json()),
                ("reports", num_reports.to_json()),
                ("fft_n", n_fft.to_json()),
                ("dtw_n", dtw_n.to_json()),
            ]),
        ),
        ("cases", Json::arr(cases)),
        (
            "speedups",
            Json::obj([
                // On a single-core host the par4 dispatch can only add
                // overhead; bench_check gates its speedup assertion on
                // this flag so the number is context, not a claim.
                (
                    "parallel_speedups_meaningful",
                    (threads_available > 1).to_json(),
                ),
                ("framework_par4_vs_seq", framework_par4_vs_seq.to_json()),
                (
                    "epoch_warm_vs_cold",
                    (ep_cold.median_ns / ep_warm.median_ns).to_json(),
                ),
                (
                    "framework_csr_seq_vs_legacy",
                    (fw_legacy.median_ns / fw_seq.median_ns).to_json(),
                ),
                (
                    "fft_pair_vs_two_singles",
                    (fft_single.median_ns / fft_paired.median_ns).to_json(),
                ),
                (
                    "features_per_stream_vs_seed",
                    (feat_seed.median_ns / feat_single.median_ns).to_json(),
                ),
                (
                    "features_fused_vs_seed",
                    (feat_seed.median_ns / feat_batch.median_ns).to_json(),
                ),
                (
                    "features_fused_vs_per_stream",
                    (feat_single.median_ns / feat_batch.median_ns).to_json(),
                ),
                (
                    "pool_dispatch_vs_scoped",
                    (disp_scoped.median_ns / disp_pool.median_ns).to_json(),
                ),
            ]),
        ),
        (
            "pool",
            Json::obj([
                ("dispatch_items", dispatch_items.len().to_json()),
                ("dispatch_threads", 4usize.to_json()),
                ("dispatch_scoped_median_ns", disp_scoped.median_ns.to_json()),
                ("dispatch_pool_median_ns", disp_pool.median_ns.to_json()),
                (
                    "dispatch_pool_vs_scoped",
                    (disp_scoped.median_ns / disp_pool.median_ns).to_json(),
                ),
                ("jobs", scratch_after.jobs.to_json()),
                ("wakeups", scratch_after.wakeups.to_json()),
                ("scratch_checkouts", scratch_checkouts.to_json()),
                ("scratch_reuses", scratch_reuses.to_json()),
                (
                    "scratch_hit_rate",
                    (scratch_reuses as f64 / scratch_checkouts.max(1) as f64).to_json(),
                ),
                (
                    "note",
                    Json::str(
                        "dispatch benches force 4 workers over 256 items so the \
                         pool-vs-scoped gap isolates unpark-vs-spawn cost; scratch \
                         counters cover 8 fused feature passes after warmup, so the \
                         hit rate shows per-thread FFT arenas surviving across \
                         batches",
                    ),
                ),
            ]),
        ),
        (
            "epochs",
            Json::obj([
                ("cold_iterations", cold_epoch.iterations.to_json()),
                ("warm_iterations", warm_epoch.iterations.to_json()),
                ("warm_started", warm_epoch.warm_started.to_json()),
                ("cold_median_ns", ep_cold.median_ns.to_json()),
                ("warm_median_ns", ep_warm.median_ns.to_json()),
                (
                    "warm_speedup",
                    (ep_cold.median_ns / ep_warm.median_ns).to_json(),
                ),
                ("fold_batch_reports", batch.len().to_json()),
                ("fold_median_ns", fold_warm.median_ns.to_json()),
                ("rebuild_median_ns", fold_rebuild.median_ns.to_json()),
                (
                    "fold_speedup_vs_rebuild",
                    (fold_rebuild.median_ns / fold_warm.median_ns).to_json(),
                ),
            ]),
        ),
        (
            "feature_fusion",
            Json::obj([
                ("passes_before_per_stream", 24usize.to_json()),
                ("passes_after_per_stream", 4usize.to_json()),
                ("seed_median_ns", feat_seed.median_ns.to_json()),
                ("per_stream_median_ns", feat_single.median_ns.to_json()),
                ("fused_median_ns", feat_batch.median_ns.to_json()),
                (
                    "fused_vs_seed_speedup",
                    (feat_seed.median_ns / feat_batch.median_ns).to_json(),
                ),
                (
                    "window_cache_hits",
                    counter("signal.window.cache_hits").to_json(),
                ),
                (
                    "window_cache_misses",
                    counter("signal.window.cache_misses").to_json(),
                ),
                (
                    "fused_calls",
                    counter("signal.features.fused_calls").to_json(),
                ),
                (
                    "peak_pairs",
                    counter("signal.spectral.peak_pairs").to_json(),
                ),
                (
                    "note",
                    Json::str(
                        "single-core container: medians measure the algorithmic win \
                         (fewer passes, cached windows, paired FFTs), not parallel scaling",
                    ),
                ),
            ]),
        ),
        (
            "determinism",
            Json::obj([(
                "framework_bit_identical_threads_1_vs_4",
                bit_identical.to_json(),
            )]),
        ),
        (
            "dtw_prune",
            Json::obj([
                (
                    "accounts",
                    (LEGIT + ATTACKERS * SYBILS_PER_ATTACKER).to_json(),
                ),
                ("pairs", prune_stats.pairs.to_json()),
                ("lb_kim_pruned", prune_stats.lb_kim_pruned.to_json()),
                ("lb_keogh_pruned", prune_stats.lb_keogh_pruned.to_json()),
                ("early_abandoned", prune_stats.early_abandoned.to_json()),
                ("full_evals", prune_stats.full_evals.to_json()),
                ("prune_rate", prune_stats.prune_rate().to_json()),
                ("full_median_ns", matrix_full.median_ns.to_json()),
                ("pruned_median_ns", edges_pruned.median_ns.to_json()),
                (
                    "speedup_vs_full",
                    (matrix_full.median_ns / edges_pruned.median_ns).to_json(),
                ),
                ("grouping_identical", grouping_identical.to_json()),
                ("ag_ts_pairs_total", ts_block.total.to_json()),
                ("ag_ts_pairs_candidate", ts_block.candidate.to_json()),
                ("ag_tr_pairs_total", tr_block.total.to_json()),
                ("ag_tr_pairs_candidate", tr_block.candidate.to_json()),
            ]),
        ),
        (
            "grouping_scale",
            Json::obj([
                ("accounts", sn.to_json()),
                ("tasks", campaign.data.num_tasks().to_json()),
                ("reports", campaign.data.num_reports().to_json()),
                ("sybil_rings", rings.to_json()),
                ("pairs_total", scale_pairs_total.to_json()),
                ("pairs_visited", scale_pairs_visited.to_json()),
                ("blocking_skip_rate", scale_skip_rate.to_json()),
                ("generate_ms", scale_generate_ms.to_json()),
                (
                    "ag_ts",
                    Json::obj([
                        ("rho", ag_ts_scale.rho().to_json()),
                        ("pairs_total", ts_scale.total.to_json()),
                        ("pairs_candidate", ts_scale.candidate.to_json()),
                        ("buckets", ts_scale.buckets.to_json()),
                        ("groups", g_ts_scale.len().to_json()),
                        ("timed_calls", SCALE_CALLS.to_json()),
                        ("wall_ms", scale_ts_ms.to_json()),
                    ]),
                ),
                (
                    "ag_tr",
                    Json::obj([
                        ("phi", ag_tr_scale.phi().to_json()),
                        ("pairs_total", tr_scale.total.to_json()),
                        ("pairs_candidate", tr_scale.candidate.to_json()),
                        ("buckets", tr_scale.buckets.to_json()),
                        ("groups", g_tr_scale.len().to_json()),
                        ("timed_calls", SCALE_CALLS.to_json()),
                        ("wall_ms", scale_tr_ms.to_json()),
                    ]),
                ),
                (
                    "ag_fp",
                    Json::obj([
                        ("k", campaign.num_devices.to_json()),
                        ("pairs_total", fp_scale.pruning.total().to_json()),
                        ("distance_evals", fp_scale.pruning.distance_evals.to_json()),
                        (
                            "skipped_by_norm",
                            fp_scale.pruning.skipped_by_norm.to_json(),
                        ),
                        ("iterations", fp_scale.iterations.to_json()),
                        ("timed_calls", SCALE_CALLS.to_json()),
                        ("wall_ms", scale_fp_ms.to_json()),
                    ]),
                ),
                (
                    "note",
                    Json::str(
                        "wall_ms is the median of timed_calls calls per signal on a \
                         100k-account synthetic campaign (AG-FP: standardize + \
                         k-means); pairwise totals count both blocked signals \
                         (AG-TS + AG-TR), AG-FP is centroid-based so its pair \
                         economics are point–centroid comparisons",
                    ),
                ),
            ]),
        ),
        (
            "regroup_scale",
            Json::obj(
                [
                    ("dirty_accounts", REGROUP_DIRTY.to_json()),
                    ("rounds", regroup_rounds_n.to_json()),
                ]
                .into_iter()
                .chain(regroup_cases)
                .chain([(
                    "note",
                    Json::str(
                        "each split is one epoch's stage times, the epoch whose \
                         epoch.discover is the median over the rounds, from its own obs \
                         window: an epoch folding one report into each of 100 accounts, \
                         and one folding nothing; epoch.index_update is nested in \
                         epoch.regroup, which adds the union-find and the Grouping \
                         build; framework.per_task_build (Eq. 3/4 arena) and \
                         framework.td_loop (the weight/truth iterations) are nested in \
                         epoch.discover",
                    ),
                )]),
            ),
        ),
        (
            "obs_overhead",
            Json::obj([
                ("ops_per_sample", OBS_OPS.to_json()),
                (
                    "counter_add_disabled_ns_per_op",
                    (obs_counter.median_ns / OBS_OPS as f64).to_json(),
                ),
                (
                    "span_disabled_ns_per_op",
                    (obs_span.median_ns / OBS_OPS as f64).to_json(),
                ),
                (
                    "observe_disabled_ns_per_op",
                    (obs_observe.median_ns / OBS_OPS as f64).to_json(),
                ),
                (
                    "note",
                    Json::str(
                        "disabled-path cost of the instrumented hot loops: one \
                         relaxed atomic load per call, within measurement noise \
                         of the uninstrumented pre-timeline numbers",
                    ),
                ),
            ]),
        ),
        (
            "counters",
            Json::obj(counters.iter().map(|(k, v)| (k.as_str(), v.to_json()))),
        ),
    ]);
    std::fs::write(&out_path, doc.render() + "\n").expect("write bench JSON");
    println!("\nwrote {out_path}");
}
