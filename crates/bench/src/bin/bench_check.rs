//! Validates a `BENCH_pipeline.json` produced by `bench_pipeline` against
//! the expected schema and bounds, so `scripts/verify.sh` catches both
//! format drift and regressions.
//!
//! A structural error — a missing key, a wrong type, counts that do not
//! add up, a correctness flag that reads false — stops the check at once. Bound violations — a measured value
//! past its ceiling or floor — are collected, and every one is printed
//! before the check exits non-zero, so one failing gate never hides
//! another.
//!
//! Run with: `cargo run -p srtd-bench --bin bench_check -- BENCH_pipeline.json`

use srtd_runtime::json::{parse, Json};
use std::process::exit;

const SCHEMA: &str = "srtd-bench-pipeline-v11";
const TOP_LEVEL_KEYS: [&str; 15] = [
    "schema",
    "quick",
    "threads_available",
    "input",
    "cases",
    "speedups",
    "pool",
    "epochs",
    "determinism",
    "dtw_prune",
    "grouping_scale",
    "regroup_scale",
    "feature_fusion",
    "obs_overhead",
    "counters",
];
const CASE_KEYS: [&str; 6] = ["group", "name", "median_ns", "min_ns", "max_ns", "batch"];

/// `regroup_scale`'s campaign sizes, in export order.
const REGROUP_SIZES: [f64; 3] = [5_000.0, 20_000.0, 80_000.0];

/// `regroup_scale`'s epoch stages, in export order; the index update is
/// nested in `epoch.regroup`, the per-task build and the TD loop in
/// `epoch.discover`.
const REGROUP_STAGES: [&str; 7] = [
    "epoch.fold",
    "epoch.regroup",
    "epoch.index_update",
    "epoch.discover",
    "framework.per_task_build",
    "framework.td_loop",
    "epoch.swap",
];

/// Ceilings on `epoch.regroup` time per dirty account at 80k accounts over
/// 5k, per signal, within one run. The campaign grows 16×, and an edge
/// path that rescans it every epoch reads 26–30×. Twelve quick runs on a
/// 2-vCPU VM read 7.9–11.4× (AG-TR) and 5.7–7.4× (AG-TS); most of what
/// still grows is the union-find and `Grouping` build over every account.
const REGROUP_RATIO_MAX: [(&str, f64); 2] = [("ag_tr", 16.0), ("ag_ts", 11.0)];

/// Ceiling on the edge index's update in an epoch with nothing new, at
/// 80k accounts; a rescan of the campaign takes 109–221 ms there.
const EMPTY_INDEX_UPDATE_MAX_NS: f64 = 1e6;

/// Fewest timed `group()` calls behind each `grouping_scale` signal's
/// `wall_ms` median.
const MIN_SCALE_CALLS: f64 = 5.0;

/// Ceiling on the whole `epoch.regroup` in an epoch with nothing new, at
/// 80k accounts: the index update plus reading the unchanged partition
/// out of the forest. Building one `Vec` per group every epoch read
/// 3.6–8.4 ms there over 10 runs, reading labels 0.44–0.57 ms.
const EMPTY_REGROUP_MAX_NS: f64 = 1e6;

fn fail(msg: &str) -> ! {
    eprintln!("bench-check: {msg}");
    exit(1);
}

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| fail("usage: bench_check <BENCH_pipeline.json>"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let tree = parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e:?}")));
    let Json::Obj(fields) = tree else {
        fail("top level must be a JSON object");
    };
    for key in TOP_LEVEL_KEYS {
        if get(&fields, key).is_none() {
            fail(&format!("missing top-level key `{key}`"));
        }
    }
    match get(&fields, "schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(other) => fail(&format!("schema must be \"{SCHEMA}\", got {other:?}")),
        None => unreachable!(),
    }
    let threads_available = match get(&fields, "threads_available") {
        Some(Json::Num(n)) if *n >= 1.0 => *n,
        _ => fail("threads_available must be a number >= 1"),
    };
    // Bound violations, reported together at the end.
    let mut violations: Vec<String> = Vec::new();
    let Some(Json::Arr(cases)) = get(&fields, "cases") else {
        fail("cases must be an array");
    };
    if cases.is_empty() {
        fail("cases must not be empty");
    }
    for (i, case) in cases.iter().enumerate() {
        let Json::Obj(case_fields) = case else {
            fail(&format!("cases[{i}] must be an object"));
        };
        for key in CASE_KEYS {
            match get(case_fields, key) {
                None => fail(&format!("cases[{i}] missing key `{key}`")),
                Some(Json::Num(n)) if key.ends_with("_ns") && *n <= 0.0 => {
                    fail(&format!("cases[{i}].{key} must be positive"))
                }
                Some(_) => {}
            }
        }
    }
    for section in ["input", "speedups", "determinism", "counters"] {
        if !matches!(get(&fields, section), Some(Json::Obj(_))) {
            fail(&format!("`{section}` must be an object"));
        }
    }
    let Some(Json::Obj(speedups)) = get(&fields, "speedups") else {
        unreachable!();
    };
    // Parallel speedups are honest claims only when the host actually has
    // more than one core; the flag records which world the numbers came
    // from, and the >1.0 assertion is gated on it.
    let meaningful = match get(speedups, "parallel_speedups_meaningful") {
        Some(Json::Bool(b)) => *b,
        _ => fail("speedups.parallel_speedups_meaningful must be a bool"),
    };
    if meaningful != (threads_available > 1.0) {
        fail("speedups.parallel_speedups_meaningful must match threads_available > 1");
    }
    match get(speedups, "framework_par4_vs_seq") {
        Some(Json::Num(n)) if *n > 0.0 => {
            if meaningful && *n <= 1.0 {
                violations.push(format!(
                    "speedups.framework_par4_vs_seq is {n}; it must exceed 1.0 on a \
                     multi-core host"
                ));
            }
        }
        _ => fail("speedups.framework_par4_vs_seq must be a positive number"),
    }
    if !meaningful {
        println!(
            "bench-check: single-core host, skipping parallel-speedup assertions \
             (framework_par4_vs_seq recorded for context only)"
        );
    }
    let Some(Json::Obj(pool)) = get(&fields, "pool") else {
        fail("`pool` must be an object");
    };
    let pool_num = |key: &str| -> f64 {
        match get(pool, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("pool.{key} must be a number >= 0")),
        }
    };
    for key in [
        "dispatch_items",
        "dispatch_threads",
        "dispatch_scoped_median_ns",
        "dispatch_pool_median_ns",
    ] {
        if pool_num(key) <= 0.0 {
            fail(&format!("pool.{key} must be positive"));
        }
    }
    let dispatch_ratio = pool_num("dispatch_pool_vs_scoped");
    if dispatch_ratio <= 0.0 {
        fail("pool.dispatch_pool_vs_scoped must be positive");
    }
    // The pool's whole point is that unparking beats spawning; but on a
    // single-core host both benches degenerate toward the sequential
    // path, so the claim is only asserted where it is meaningful.
    if meaningful && dispatch_ratio <= 1.0 {
        violations.push(format!(
            "pool.dispatch_pool_vs_scoped is {dispatch_ratio}; it must exceed 1.0 on a \
             multi-core host"
        ));
    }
    if pool_num("jobs") < 1.0 {
        violations.push("pool.jobs must be at least 1 (the dispatch bench ran on the pool)".into());
    }
    pool_num("wakeups");
    let checkouts = pool_num("scratch_checkouts");
    let reuses = pool_num("scratch_reuses");
    if checkouts < 1.0 {
        violations.push(
            "pool.scratch_checkouts must be at least 1 (feature passes use the arena)".into(),
        );
    }
    if reuses > checkouts {
        fail("pool.scratch_reuses cannot exceed scratch_checkouts");
    }
    let hit_rate = pool_num("scratch_hit_rate");
    if !(0.0..=1.0).contains(&hit_rate) {
        fail("pool.scratch_hit_rate must be in [0, 1]");
    }
    if (hit_rate - reuses / checkouts.max(1.0)).abs() > 1e-9 {
        fail("pool.scratch_hit_rate is inconsistent with the checkout counts");
    }
    // The counters are sampled after a warmup pass, so a cold arena on
    // every checkout would mean thread-locals are being torn down between
    // batches — exactly the regression the persistent pool exists to
    // prevent.
    if hit_rate < 0.5 {
        violations.push(format!(
            "pool.scratch_hit_rate is {hit_rate}; warm arenas must dominate \
             after warmup"
        ));
    }
    if !matches!(get(pool, "note"), Some(Json::Str(_))) {
        fail("pool.note must be a string");
    }
    let Some(Json::Obj(epochs)) = get(&fields, "epochs") else {
        fail("`epochs` must be an object");
    };
    let epoch_num = |key: &str| -> f64 {
        match get(epochs, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("epochs.{key} must be a number >= 0")),
        }
    };
    let cold_iters = epoch_num("cold_iterations");
    let warm_iters = epoch_num("warm_iterations");
    if !matches!(get(epochs, "warm_started"), Some(Json::Bool(true))) {
        fail("epochs.warm_started must be true");
    }
    if warm_iters > 2.0 {
        violations.push(format!(
            "epochs.warm_iterations is {warm_iters}; it must be <= 2 (steady-state contract)"
        ));
    }
    if warm_iters >= cold_iters {
        violations.push(format!(
            "epochs.warm_iterations ({warm_iters}) must be strictly below \
             cold_iterations ({cold_iters})"
        ));
    }
    for key in [
        "cold_median_ns",
        "warm_median_ns",
        "warm_speedup",
        "fold_median_ns",
        "rebuild_median_ns",
        "fold_speedup_vs_rebuild",
    ] {
        if epoch_num(key) <= 0.0 {
            fail(&format!("epochs.{key} must be positive"));
        }
    }
    if epoch_num("fold_batch_reports") < 1.0 {
        fail("epochs.fold_batch_reports must be positive");
    }
    match get(&fields, "determinism") {
        Some(Json::Obj(d)) => match get(d, "framework_bit_identical_threads_1_vs_4") {
            Some(Json::Bool(true)) => {}
            _ => fail("determinism.framework_bit_identical_threads_1_vs_4 must be true"),
        },
        _ => unreachable!(),
    }
    let Some(Json::Obj(prune)) = get(&fields, "dtw_prune") else {
        fail("`dtw_prune` must be an object");
    };
    let prune_num = |key: &str| -> f64 {
        match get(prune, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("dtw_prune.{key} must be a number >= 0")),
        }
    };
    let pairs = prune_num("pairs");
    let kim = prune_num("lb_kim_pruned");
    let keogh = prune_num("lb_keogh_pruned");
    let abandoned = prune_num("early_abandoned");
    let full_evals = prune_num("full_evals");
    if pairs < 1.0 {
        fail("dtw_prune.pairs must be positive");
    }
    if kim + keogh + abandoned + full_evals != pairs {
        fail("dtw_prune outcome counts must partition the pair count");
    }
    if full_evals >= pairs {
        violations.push(format!(
            "dtw_prune.full_evals ({full_evals}) must be strictly below the pair count \
             ({pairs})"
        ));
    }
    let rate = prune_num("prune_rate");
    if !(0.0..=1.0).contains(&rate) {
        fail("dtw_prune.prune_rate must be in [0, 1]");
    }
    for key in ["full_median_ns", "pruned_median_ns", "speedup_vs_full"] {
        if prune_num(key) <= 0.0 {
            fail(&format!("dtw_prune.{key} must be positive"));
        }
    }
    if !matches!(get(prune, "grouping_identical"), Some(Json::Bool(true))) {
        fail("dtw_prune.grouping_identical must be true");
    }
    // Per-signal blocking honesty: the candidate count each signal visits
    // can never exceed the pairs it was responsible for.
    for signal in ["ag_ts", "ag_tr"] {
        let total = prune_num(&format!("{signal}_pairs_total"));
        let candidate = prune_num(&format!("{signal}_pairs_candidate"));
        if candidate > total {
            fail(&format!(
                "dtw_prune.{signal}_pairs_candidate ({candidate}) exceeds \
                 {signal}_pairs_total ({total})"
            ));
        }
    }
    let Some(Json::Obj(scale)) = get(&fields, "grouping_scale") else {
        fail("`grouping_scale` must be an object");
    };
    let scale_num = |key: &str| -> f64 {
        match get(scale, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("grouping_scale.{key} must be a number >= 0")),
        }
    };
    let accounts = scale_num("accounts");
    if accounts < 100_000.0 {
        fail("grouping_scale.accounts must cover at least 100k accounts");
    }
    let pairs_total = scale_num("pairs_total");
    let pairs_visited = scale_num("pairs_visited");
    // Two blocked pairwise signals over n(n−1)/2 pairs each.
    if pairs_total != accounts * (accounts - 1.0) {
        fail("grouping_scale.pairs_total must be 2 · n(n−1)/2 for the two pairwise signals");
    }
    if pairs_visited > pairs_total {
        fail("grouping_scale.pairs_visited exceeds pairs_total");
    }
    let skip_rate = scale_num("blocking_skip_rate");
    if (skip_rate - (1.0 - pairs_visited / pairs_total)).abs() > 1e-9 {
        fail("grouping_scale.blocking_skip_rate is inconsistent with the pair counts");
    }
    // The sub-quadratic acceptance bar: ≥ 99% of pairwise work skipped.
    if skip_rate < 0.99 {
        violations.push(format!(
            "grouping_scale.blocking_skip_rate is {skip_rate}; blocking must \
             skip at least 99% of the pairwise work at this scale"
        ));
    }
    if scale_num("generate_ms") <= 0.0 {
        fail("grouping_scale.generate_ms must be positive");
    }
    for signal in ["ag_ts", "ag_tr"] {
        let Some(Json::Obj(sig)) = get(scale, signal) else {
            fail(&format!("grouping_scale.{signal} must be an object"));
        };
        let sig_num = |key: &str| -> f64 {
            match get(sig, key) {
                Some(Json::Num(n)) if *n >= 0.0 => *n,
                _ => fail(&format!(
                    "grouping_scale.{signal}.{key} must be a number >= 0"
                )),
            }
        };
        if sig_num("pairs_candidate") > sig_num("pairs_total") {
            fail(&format!(
                "grouping_scale.{signal}: candidate pairs exceed the total"
            ));
        }
        if sig_num("pairs_total") != accounts * (accounts - 1.0) / 2.0 {
            fail(&format!(
                "grouping_scale.{signal}.pairs_total must be n(n−1)/2"
            ));
        }
        if sig_num("groups") < 1.0 || sig_num("groups") > accounts {
            fail(&format!("grouping_scale.{signal}.groups out of range"));
        }
        if sig_num("wall_ms") <= 0.0 {
            fail(&format!("grouping_scale.{signal}.wall_ms must be positive"));
        }
        if sig_num("timed_calls") < MIN_SCALE_CALLS {
            fail(&format!(
                "grouping_scale.{signal}.wall_ms must be the median of at least \
                 {MIN_SCALE_CALLS} timed calls"
            ));
        }
        sig_num("buckets");
    }
    let Some(Json::Obj(fp)) = get(scale, "ag_fp") else {
        fail("grouping_scale.ag_fp must be an object");
    };
    let fp_num = |key: &str| -> f64 {
        match get(fp, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("grouping_scale.ag_fp.{key} must be a number >= 0")),
        }
    };
    if fp_num("distance_evals") + fp_num("skipped_by_norm") != fp_num("pairs_total") {
        fail("grouping_scale.ag_fp: evaluated + skipped must partition the comparison total");
    }
    if fp_num("k") < 1.0 || fp_num("wall_ms") <= 0.0 {
        fail("grouping_scale.ag_fp k/wall_ms out of range");
    }
    if fp_num("timed_calls") < MIN_SCALE_CALLS {
        fail(&format!(
            "grouping_scale.ag_fp.wall_ms must be the median of at least \
             {MIN_SCALE_CALLS} timed calls"
        ));
    }
    if !matches!(get(scale, "note"), Some(Json::Str(_))) {
        fail("grouping_scale.note must be a string");
    }
    let Some(Json::Obj(regroup)) = get(&fields, "regroup_scale") else {
        fail("`regroup_scale` must be an object");
    };
    let regroup_num = |key: &str| -> f64 {
        match get(regroup, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("regroup_scale.{key} must be a number >= 0")),
        }
    };
    let dirty_accounts = regroup_num("dirty_accounts");
    if dirty_accounts < 1.0 || regroup_num("rounds") < 1.0 {
        fail("regroup_scale.dirty_accounts and rounds must be positive");
    }
    for (signal, ratio_max) in REGROUP_RATIO_MAX {
        let Some(Json::Obj(sig)) = get(regroup, signal) else {
            fail(&format!("regroup_scale.{signal} must be an object"));
        };
        let Some(Json::Arr(sizes)) = get(sig, "sizes") else {
            fail(&format!("regroup_scale.{signal}.sizes must be an array"));
        };
        if sizes.len() != REGROUP_SIZES.len() {
            fail(&format!(
                "regroup_scale.{signal}.sizes must hold {} campaigns",
                REGROUP_SIZES.len()
            ));
        }
        let mut per_dirty = Vec::new();
        let mut empty_index_ns = 0.0;
        let mut empty_regroup_ns = 0.0;
        for (size, want) in sizes.iter().zip(REGROUP_SIZES) {
            let what = format!("regroup_scale.{signal}[{want}]");
            let Json::Obj(size) = size else {
                fail(&format!("{what} must be an object"));
            };
            let num = |fields: &[(String, Json)], key: &str| -> f64 {
                match get(fields, key) {
                    Some(Json::Num(n)) if *n >= 0.0 => *n,
                    _ => fail(&format!("{what}.{key} must be a number >= 0")),
                }
            };
            if num(size, "accounts") != want || num(size, "reports") < want {
                fail(&format!(
                    "{what}: accounts must be {want}, with a report each"
                ));
            }
            let split = |key: &str| -> [f64; 7] {
                let Some(Json::Obj(stages)) = get(size, key) else {
                    fail(&format!("{what}.{key} must be an object"));
                };
                let ns = REGROUP_STAGES.map(|stage| num(stages, stage));
                // The index update runs inside the regroup stage, the
                // per-task build and the TD loop inside discovery.
                if ns[2] > ns[1] {
                    fail(&format!(
                        "{what}.{key}: epoch.index_update exceeds epoch.regroup"
                    ));
                }
                if ns[4] + ns[5] > ns[3] {
                    fail(&format!(
                        "{what}.{key}: framework.per_task_build + framework.td_loop \
                         exceed epoch.discover"
                    ));
                }
                ns
            };
            let touched = split("touched_epoch_ns");
            let empty = split("empty_epoch_ns");
            if touched[1] <= 0.0 || touched[2] <= 0.0 {
                fail(&format!("{what}: the touched epoch must regroup"));
            }
            per_dirty.push(touched[1] / dirty_accounts);
            empty_index_ns = empty[2];
            empty_regroup_ns = empty[1];
        }
        let ratio = match get(sig, "regroup_per_dirty_80k_vs_5k") {
            Some(Json::Num(n)) if *n > 0.0 => *n,
            _ => fail(&format!(
                "regroup_scale.{signal}.regroup_per_dirty_80k_vs_5k must be positive"
            )),
        };
        if (ratio - per_dirty[2] / per_dirty[0]).abs() > 1e-9 * ratio {
            fail(&format!(
                "regroup_scale.{signal}.regroup_per_dirty_80k_vs_5k is inconsistent with its sizes"
            ));
        }
        if ratio > ratio_max {
            violations.push(format!(
                "regroup_scale.{signal}: regroup per dirty account grew {ratio:.1}x from 5k \
                 to 80k accounts (ceiling {ratio_max}x); the edge index should cost in \
                 proportion to the dirty accounts, not the campaign"
            ));
        }
        if empty_index_ns >= EMPTY_INDEX_UPDATE_MAX_NS {
            violations.push(format!(
                "regroup_scale.{signal}: an epoch with nothing new spent {:.3} ms updating \
                 the edge index at 80k accounts (ceiling {} ms)",
                empty_index_ns / 1e6,
                EMPTY_INDEX_UPDATE_MAX_NS / 1e6
            ));
        }
        if empty_regroup_ns >= EMPTY_REGROUP_MAX_NS {
            violations.push(format!(
                "regroup_scale.{signal}: an epoch with nothing new spent {:.3} ms in \
                 epoch.regroup at 80k accounts (ceiling {} ms); an unchanged partition \
                 should cost one pass over the forest",
                empty_regroup_ns / 1e6,
                EMPTY_REGROUP_MAX_NS / 1e6
            ));
        }
    }
    if !matches!(get(regroup, "note"), Some(Json::Str(_))) {
        fail("regroup_scale.note must be a string");
    }
    let Some(Json::Obj(fusion)) = get(&fields, "feature_fusion") else {
        fail("`feature_fusion` must be an object");
    };
    let fusion_num = |key: &str| -> f64 {
        match get(fusion, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("feature_fusion.{key} must be a number >= 0")),
        }
    };
    let passes_before = fusion_num("passes_before_per_stream");
    let passes_after = fusion_num("passes_after_per_stream");
    if passes_after < 1.0 || passes_after >= passes_before {
        fail("feature_fusion pass counts must satisfy 1 <= after < before");
    }
    for key in ["seed_median_ns", "per_stream_median_ns", "fused_median_ns"] {
        if fusion_num(key) <= 0.0 {
            fail(&format!("feature_fusion.{key} must be positive"));
        }
    }
    let fused_vs_seed = fusion_num("fused_vs_seed_speedup");
    if fused_vs_seed <= 1.0 {
        violations.push(format!(
            "feature_fusion.fused_vs_seed_speedup is {fused_vs_seed}; it must exceed 1.0"
        ));
    }
    for key in [
        "window_cache_hits",
        "window_cache_misses",
        "fused_calls",
        "peak_pairs",
    ] {
        fusion_num(key);
    }
    if !matches!(get(fusion, "note"), Some(Json::Str(_))) {
        fail("feature_fusion.note must be a string");
    }
    let Some(Json::Obj(obs)) = get(&fields, "obs_overhead") else {
        fail("`obs_overhead` must be an object");
    };
    let obs_num = |key: &str| -> f64 {
        match get(obs, key) {
            Some(Json::Num(n)) if *n >= 0.0 => *n,
            _ => fail(&format!("obs_overhead.{key} must be a number >= 0")),
        }
    };
    if obs_num("ops_per_sample") < 1.0 {
        fail("obs_overhead.ops_per_sample must be positive");
    }
    // The disabled path is one relaxed atomic load per call: anywhere
    // near 1µs/op would mean the gate regressed into lock or allocation
    // territory. 1000ns is a deliberately loose ceiling that still
    // catches that class of regression on slow CI hosts.
    for key in [
        "counter_add_disabled_ns_per_op",
        "span_disabled_ns_per_op",
        "observe_disabled_ns_per_op",
    ] {
        let ns = obs_num(key);
        if ns >= 1000.0 {
            violations.push(format!(
                "obs_overhead.{key} is {ns} ns/op; the disabled path must stay \
                 far below 1000 ns"
            ));
        }
    }
    if !matches!(get(obs, "note"), Some(Json::Str(_))) {
        fail("obs_overhead.note must be a string");
    }
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("bench-check: {violation}");
        }
        fail(&format!("{} bound(s) violated in {path}", violations.len()));
    }
    println!("bench-check: OK ({path})");
}
