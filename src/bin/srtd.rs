//! `srtd` — command-line front end for the Sybil-resistant truth
//! discovery stack.
//!
//! ```text
//! srtd simulate --seed 7 --out campaign/     # generate a campaign as CSV
//! srtd evaluate --seed 7                     # MAE of all methods
//! srtd evaluate --from campaign/             # ... on exported CSV data
//! srtd group --seed 7 --method ag-tr         # print the grouping + ARI
//! ```
//!
//! Arguments are parsed by hand (the approved dependency set has no CLI
//! parser); every flag has a default so each subcommand runs bare.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sybil_td::core::{AccountGrouping, AgFp, AgTr, AgTs, AgVal, SybilResistantTd};
use sybil_td::metrics::{adjusted_rand_index, mae};
use sybil_td::runtime::obs;
use sybil_td::sensing::{Scenario, ScenarioConfig};
use sybil_td::truth::{Crh, Report, SensingData, TruthDiscovery};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some((run, own_flags)) = command(name) else {
        eprintln!("error: unknown command `{name}`");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..], own_flags) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if flags.contains_key("obs") {
        obs::set_enabled(true);
    }
    match flag_parse(&flags, "obs-history", 0usize) {
        // 0 (the default) leaves the SRTD_OBS_HISTORY / built-in default
        // resolution untouched.
        Ok(0) => {}
        Ok(n) => obs::set_history_capacity(n),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let result = run(&flags);
    if result.is_ok() {
        if obs::enabled() {
            let report = obs::snapshot();
            if !report.is_empty() && flags.contains_key("obs") {
                println!("\n{}", report.render_table());
            }
        }
        match obs::export_json_if_requested() {
            Ok(Some(path)) => eprintln!("obs: wrote {}", path.display()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: writing SRTD_OBS_JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
srtd — Sybil-resistant truth discovery for mobile crowdsensing

USAGE:
  srtd simulate [--seed N] [--legit N] [--tasks N] [--activeness L,A] [--out DIR]
  srtd evaluate [--seed N] [--seeds N] [--legit N] [--tasks N] [--activeness L,A]
                [--from DIR]
  srtd group    [--seed N] [--legit N] [--tasks N] [--activeness L,A]
                [--method ag-fp|ag-ts|ag-tr|ag-val]
  srtd help

Every command also takes --obs and --obs-history N (below); any other
flag is an error.

simulate  generate a campaign and write reports.csv, fingerprints.csv,
          ground_truth.csv, owners.csv into --out (default: campaign/)
evaluate  print the MAE of CRH and TD-FP/TD-TS/TD-TR, either on generated
          campaigns (averaged over --seeds) or on CSV data from --from
group     run one grouping method and print groups plus ARI vs. owners

--obs enables the observability layer (spans, counters, events) and prints
a report after the run; SRTD_OBS=1 in the environment does the same, and
SRTD_OBS_JSON=<path> additionally writes the report as JSON (including the
retained telemetry windows — evaluate opens one per seed). --obs-history N
overrides how many windows are retained (default SRTD_OBS_HISTORY or 64).";

type Command = fn(&HashMap<String, String>) -> Result<(), String>;

/// A command's handler and the flags it reads besides [`OBS_FLAGS`];
/// `None` for an unknown command.
fn command(name: &str) -> Option<(Command, &'static [&'static str])> {
    Some(match name {
        "simulate" => (
            cmd_simulate,
            &["seed", "legit", "tasks", "activeness", "out"],
        ),
        "evaluate" => (
            cmd_evaluate,
            &["seed", "seeds", "legit", "tasks", "activeness", "from"],
        ),
        "group" => (
            cmd_group,
            &["seed", "legit", "tasks", "activeness", "method"],
        ),
        "help" | "--help" | "-h" => (
            |_| {
                println!("{USAGE}");
                Ok(())
            },
            &[],
        ),
        _ => return None,
    })
}

/// Flags every command reads; `obs` takes no value, its presence alone is
/// the signal.
const OBS_FLAGS: &[&str] = &["obs", "obs-history"];

/// Parses `--name value` pairs; a flag that is neither one of `own` nor
/// one of [`OBS_FLAGS`] is an error, so a typo fails instead of being
/// silently ignored.
fn parse_flags(args: &[String], own: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        if !own.contains(&name) && !OBS_FLAGS.contains(&name) {
            return Err(format!("unknown flag `{flag}`"));
        }
        if name == "obs" {
            flags.insert(name.to_string(), String::from("1"));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} got unparseable value `{v}`")),
    }
}

fn activeness(flags: &HashMap<String, String>) -> Result<(f64, f64), String> {
    match flags.get("activeness") {
        None => Ok((1.0, 1.0)),
        Some(v) => {
            let (l, a) = v
                .split_once(',')
                .ok_or_else(|| "--activeness wants L,A (e.g. 0.5,1.0)".to_string())?;
            let l: f64 = l.trim().parse().map_err(|_| "bad legit activeness")?;
            let a: f64 = a.trim().parse().map_err(|_| "bad attacker activeness")?;
            Ok((l, a))
        }
    }
}

fn config_from(flags: &HashMap<String, String>) -> Result<ScenarioConfig, String> {
    let (legit_alpha, attacker_alpha) = activeness(flags)?;
    let cfg = ScenarioConfig {
        num_tasks: flag_parse(flags, "tasks", 10usize)?,
        num_legit: flag_parse(flags, "legit", 8usize)?,
        ..ScenarioConfig::paper_default()
    }
    .with_seed(flag_parse(flags, "seed", 0u64)?)
    .with_activeness(legit_alpha, attacker_alpha);
    Ok(cfg)
}

fn cmd_simulate(flags: &HashMap<String, String>) -> Result<(), String> {
    let cfg = config_from(flags)?;
    let out: PathBuf = flag_parse(flags, "out", PathBuf::from("campaign"))?;
    let s = Scenario::generate(&cfg);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out:?}: {e}"))?;

    let mut reports = String::from("account,task,value,timestamp\n");
    for r in s.data.reports() {
        writeln!(
            reports,
            "{},{},{},{}",
            r.account, r.task, r.value, r.timestamp
        )
        .expect("string write");
    }
    write_file(&out.join("reports.csv"), &reports)?;

    let mut prints = String::new();
    for (a, f) in s.fingerprints.iter().enumerate() {
        let cells: Vec<String> = f.iter().map(f64::to_string).collect();
        writeln!(prints, "{a},{}", cells.join(",")).expect("string write");
    }
    write_file(&out.join("fingerprints.csv"), &prints)?;

    let mut truths = String::from("task,value\n");
    for (t, v) in s.ground_truth.iter().enumerate() {
        writeln!(truths, "{t},{v}").expect("string write");
    }
    write_file(&out.join("ground_truth.csv"), &truths)?;

    let mut owners = String::from("account,owner,is_sybil\n");
    for a in 0..s.num_accounts() {
        writeln!(owners, "{a},{},{}", s.owners[a], s.is_sybil[a]).expect("string write");
    }
    write_file(&out.join("owners.csv"), &owners)?;

    println!(
        "wrote campaign (seed {}, {} accounts, {} reports) to {}",
        cfg.seed,
        s.num_accounts(),
        s.data.num_reports(),
        out.display()
    );
    Ok(())
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path:?}: {e}"))
}

/// A campaign loaded back from `simulate` CSV output.
struct LoadedCampaign {
    data: SensingData,
    fingerprints: Vec<Vec<f64>>,
    ground_truth: Vec<f64>,
}

/// Reads a campaign back from `simulate`'s CSV files. A row the pipeline
/// cannot take fails with its file and line number: a malformed cell, a
/// ground-truth row out of task order, a report
/// [`SensingData::check_report`] refuses (a task beyond the rows of
/// `ground_truth.csv` among them), and a fingerprint row out of account
/// order or whose length differs from the first one's. So does an
/// account with no fingerprint.
fn load_campaign(dir: &Path) -> Result<LoadedCampaign, String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("reading {name} in {dir:?}: {e}"))
    };
    let mut ground_truth = Vec::new();
    for (line, row) in csv_rows(&read("ground_truth.csv")?, 1) {
        let value = truth(row, ground_truth.len())
            .map_err(|e| format!("ground_truth.csv line {line}: {e}"))?;
        ground_truth.push(value);
    }
    let mut data = SensingData::new(ground_truth.len());
    for (line, row) in csv_rows(&read("reports.csv")?, 1) {
        let r = report(row)
            .and_then(|r| data.check_report(&r).map(|()| r))
            .map_err(|e| format!("reports.csv line {line}: {e}"))?;
        data.fold_batch(&[r]);
    }
    let mut fingerprints: Vec<Vec<f64>> = Vec::new();
    for (line, row) in csv_rows(&read("fingerprints.csv")?, 0) {
        let width = fingerprints.first().map(Vec::len);
        let features = fingerprint(row, fingerprints.len(), width)
            .map_err(|e| format!("fingerprints.csv line {line}: {e}"))?;
        fingerprints.push(features);
    }
    if fingerprints.len() < data.num_accounts() {
        return Err(format!(
            "fingerprints.csv: no row for account {}",
            fingerprints.len()
        ));
    }
    Ok(LoadedCampaign {
        data,
        fingerprints,
        ground_truth,
    })
}

/// The non-blank lines of a CSV file after its `header` lines, each with
/// its 1-based line number.
fn csv_rows(text: &str, header: usize) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .skip(header)
        .filter(|(_, row)| !row.trim().is_empty())
        .map(|(i, row)| (i + 1, row))
}

/// Parses one CSV cell, naming it in the error.
fn cell<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let text = text.trim();
    text.parse().map_err(|e| format!("{what} `{text}`: {e}"))
}

/// One `ground_truth.csv` row, `task,value`, which must name `task`: the
/// truths are indexed by row, so a missing or swapped row would silently
/// score every later task against another task's truth. Fingerprints are
/// read the same way.
fn truth(row: &str, task: usize) -> Result<f64, String> {
    let Some((named, value)) = row.split_once(',') else {
        return Err("expected `task,value`".to_string());
    };
    let named: usize = cell(named, "task")?;
    if named != task {
        return Err(format!("task {named} where task {task} belongs"));
    }
    cell(value, "value")
}

/// One `fingerprints.csv` row, `account,feature,…`, which must name
/// `account` and hold `width` features (the first row's count, `None`
/// for the first row itself).
fn fingerprint(row: &str, account: usize, width: Option<usize>) -> Result<Vec<f64>, String> {
    let mut cells = row.split(',');
    let named: usize = cell(cells.next().unwrap_or(""), "account")?;
    if named != account {
        return Err(format!("account {named} where account {account} belongs"));
    }
    let features = cells
        .map(|c| cell(c, "feature"))
        .collect::<Result<Vec<f64>, _>>()?;
    match width {
        Some(want) if features.len() != want => Err(format!(
            "{} features, but the first row has {want}",
            features.len()
        )),
        _ => Ok(features),
    }
}

/// One `reports.csv` row, `account,task,value,timestamp`.
fn report(row: &str) -> Result<Report, String> {
    let cells: Vec<&str> = row.split(',').collect();
    let [account, task, value, timestamp] = cells[..] else {
        return Err(format!(
            "expected `account,task,value,timestamp`, got {} cells",
            cells.len()
        ));
    };
    Ok(Report {
        account: cell(account, "account")?,
        task: cell(task, "task")?,
        value: cell(value, "value")?,
        timestamp: cell(timestamp, "timestamp")?,
    })
}

fn evaluate_one(
    data: &SensingData,
    fingerprints: &[Vec<f64>],
    ground_truth: &[f64],
) -> Vec<(&'static str, f64)> {
    let mut rows = Vec::new();
    let crh = Crh.discover(data).truths_or(0.0);
    rows.push(("CRH", mae(&crh, ground_truth).expect("lengths")));
    let fp = SybilResistantTd::new(AgFp::default())
        .discover(data, fingerprints)
        .truths_or(0.0);
    rows.push(("TD-FP", mae(&fp, ground_truth).expect("lengths")));
    let ts = SybilResistantTd::new(AgTs::default())
        .discover(data, fingerprints)
        .truths_or(0.0);
    rows.push(("TD-TS", mae(&ts, ground_truth).expect("lengths")));
    let tr = SybilResistantTd::new(AgTr::default())
        .discover(data, fingerprints)
        .truths_or(0.0);
    rows.push(("TD-TR", mae(&tr, ground_truth).expect("lengths")));
    rows
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(dir) = flags.get("from") {
        let campaign = load_campaign(Path::new(dir))?;
        println!("method  MAE (from {dir})");
        for (name, err) in evaluate_one(
            &campaign.data,
            &campaign.fingerprints,
            &campaign.ground_truth,
        ) {
            println!("{name:6}  {err:.2}");
        }
        return Ok(());
    }
    let seeds: u64 = flag_parse(flags, "seeds", 1u64)?;
    let base = config_from(flags)?;
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for seed in 0..seeds.max(1) {
        // One telemetry window per seed: the exported history then shows
        // each campaign's cost as a delta, not one cumulative blob.
        obs::window_begin();
        let s = Scenario::generate(&base.clone().with_seed(base.seed + seed));
        for (i, (name, err)) in evaluate_one(&s.data, &s.fingerprints, &s.ground_truth)
            .into_iter()
            .enumerate()
        {
            if totals.len() <= i {
                totals.push((name, 0.0));
            }
            totals[i].1 += err;
        }
        obs::window_end(&format!("seed-{}", base.seed + seed));
    }
    println!("method  MAE (avg over {} seed(s))", seeds.max(1));
    for (name, sum) in totals {
        println!("{name:6}  {:.2}", sum / seeds.max(1) as f64);
    }
    Ok(())
}

fn cmd_group(flags: &HashMap<String, String>) -> Result<(), String> {
    let method = flags.get("method").map(String::as_str).unwrap_or("ag-tr");
    let cfg = config_from(flags)?;
    let s = Scenario::generate(&cfg);
    let grouping = match method {
        "ag-fp" => AgFp::default().group(&s.data, &s.fingerprints),
        "ag-ts" => AgTs::default().group(&s.data, &s.fingerprints),
        "ag-tr" => AgTr::default().group(&s.data, &s.fingerprints),
        "ag-val" => AgVal::default().group(&s.data, &s.fingerprints),
        other => {
            return Err(format!(
                "unknown method `{other}` (ag-fp|ag-ts|ag-tr|ag-val)"
            ))
        }
    };
    println!(
        "{method} on seed {} -> {} groups:",
        cfg.seed,
        grouping.len()
    );
    for (k, group) in grouping.groups().iter().enumerate() {
        let marks: Vec<String> = group
            .iter()
            .map(|&a| format!("{a}{}", if s.is_sybil[a] { "*" } else { "" }))
            .collect();
        println!("  g{k}: {{{}}}", marks.join(", "));
    }
    println!("(* = Sybil account)");
    println!(
        "ARI vs. true owners: {:.3}",
        adjusted_rand_index(grouping.labels(), &s.owners)
    );
    Ok(())
}
