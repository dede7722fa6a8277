//! End-to-end tests of the `srtd` binary: real process, real files.

use std::path::PathBuf;
use std::process::{Command, Output};

fn srtd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srtd"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srtd-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn help_prints_usage() {
    let out = srtd(&["help"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("simulate"));
    assert!(stdout(&out).contains("evaluate"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = srtd(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_flag_value_fails() {
    let out = srtd(&["evaluate", "--seed"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed needs a value"));
}

#[test]
fn simulate_then_evaluate_round_trips() {
    let dir = temp_dir("roundtrip");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let out = srtd(&["simulate", "--seed", "7", "--out", dir_str]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for file in [
        "reports.csv",
        "fingerprints.csv",
        "ground_truth.csv",
        "owners.csv",
    ] {
        assert!(dir.join(file).exists(), "{file} missing");
    }

    // Evaluating from the CSV export must match evaluating the same seed
    // in-process (the CSV round trip is lossless for this pipeline).
    let from_csv = srtd(&["evaluate", "--from", dir_str]);
    assert!(from_csv.status.success());
    let generated = srtd(&["evaluate", "--seed", "7"]);
    assert!(generated.status.success());
    let grab = |text: &str, method: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(method))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    };
    let csv_text = stdout(&from_csv);
    let gen_text = stdout(&generated);
    for method in ["CRH", "TD-FP", "TD-TS", "TD-TR"] {
        let a = grab(&csv_text, method);
        let b = grab(&gen_text, method);
        assert!((a - b).abs() < 0.05, "{method}: CSV {a} vs generated {b}");
    }
    // TD-TR beats CRH on the default attacked campaign.
    assert!(grab(&csv_text, "TD-TR") < grab(&csv_text, "CRH"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_reports_perfect_ari_on_seed_7() {
    let out = srtd(&["group", "--seed", "7", "--method", "ag-tr"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("ARI vs. true owners: 1.000"), "{text}");
    assert!(text.contains("(* = Sybil account)"));
}

#[test]
fn group_rejects_unknown_method() {
    let out = srtd(&["group", "--method", "ag-nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
}

#[test]
fn evaluate_honors_activeness_flag() {
    let out = srtd(&["evaluate", "--seeds", "2", "--activeness", "0.5,0.5"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("avg over 2 seed(s)"));
    let bad = srtd(&["evaluate", "--activeness", "nonsense"]);
    assert!(!bad.status.success());
}

#[test]
fn obs_flag_prints_report_and_exports_json() {
    let json_path = std::env::temp_dir().join(format!("srtd-cli-obs-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_srtd"))
        .args([
            "evaluate", "--seed", "0", "--legit", "4", "--tasks", "4", "--obs",
        ])
        .env_remove("SRTD_OBS")
        .env("SRTD_OBS_JSON", &json_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    // The human table follows the MAE output and covers the pipeline.
    for needle in ["spans (wall clock)", "counters", "framework.discover"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    // The JSON export exists and carries the report sections, including
    // the retained telemetry windows (evaluate opens one per seed).
    let json = std::fs::read_to_string(&json_path).expect("SRTD_OBS_JSON written");
    for needle in [
        "\"spans\"",
        "\"counters\"",
        "framework.iteration",
        "\"history\"",
        "\"label\":\"seed-0\"",
    ] {
        assert!(json.contains(needle), "missing `{needle}` in export");
    }
    let _ = std::fs::remove_file(&json_path);
}

#[test]
fn obs_disabled_runs_print_no_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_srtd"))
        .args(["evaluate", "--seed", "0", "--legit", "4", "--tasks", "4"])
        .env_remove("SRTD_OBS")
        .env_remove("SRTD_OBS_JSON")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(!text.contains("spans (wall clock)"), "{text}");
}

#[test]
fn a_misspelled_flag_is_refused() {
    let out = srtd(&["group", "--seed", "7", "--methd", "ag-ts"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--methd`"));
    // A flag another command reads is refused too.
    let out = srtd(&["group", "--seeds", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--seeds`"));
}

/// `evaluate --from` on a `simulate` export with one file edited: each
/// row the pipeline cannot take or would misread fails the run with exit
/// code 1 and `error: <file> line N: …`, never a panic.
#[test]
fn evaluate_refuses_bad_csv_rows_by_line() {
    let base = temp_dir("bad-rows");
    let base_str = base.to_str().expect("utf-8 temp path");
    assert!(srtd(&["simulate", "--seed", "7", "--out", base_str])
        .status
        .success());
    let read = |file: &str| -> Vec<String> {
        std::fs::read_to_string(base.join(file))
            .expect("simulate wrote the file")
            .lines()
            .map(String::from)
            .collect()
    };
    let set_cell = |row: &str, k: usize, value: &str| -> String {
        let mut cells: Vec<&str> = row.split(',').collect();
        cells[k] = value;
        cells.join(",")
    };
    let truths = read("ground_truth.csv");
    let reports = read("reports.csv");
    let prints = read("fingerprints.csv");
    let cases: [(&str, Vec<String>, String); 7] = [
        (
            "ground_truth.csv",
            {
                let mut rows = truths.clone();
                rows.swap(1, 2);
                rows
            },
            "ground_truth.csv line 2: task 1 where task 0 belongs".to_string(),
        ),
        (
            "reports.csv",
            reports.iter().chain(&reports[1..2]).cloned().collect(),
            {
                let dup: Vec<&str> = reports[1].split(',').collect();
                format!(
                    "reports.csv line {}: account {} already reported task {}",
                    reports.len() + 1,
                    dup[0],
                    dup[1]
                )
            },
        ),
        (
            "reports.csv",
            {
                let mut rows = reports.clone();
                rows[3] = set_cell(&rows[3], 2, "NaN");
                rows
            },
            "reports.csv line 4: value NaN is not finite".to_string(),
        ),
        (
            "reports.csv",
            {
                let mut rows = reports.clone();
                rows[4] = set_cell(&rows[4], 1, "10");
                rows
            },
            "reports.csv line 5: task 10 out of range for 10 tasks".to_string(),
        ),
        (
            "fingerprints.csv",
            {
                let mut rows = prints.clone();
                let short = rows[2].rsplit_once(',').expect("features").0.to_string();
                rows[2] = short;
                rows
            },
            format!(
                "fingerprints.csv line 3: {} features, but the first row has {}",
                prints[0].split(',').count() - 2,
                prints[0].split(',').count() - 1
            ),
        ),
        (
            "fingerprints.csv",
            prints
                .iter()
                .filter(|row| !row.starts_with("3,"))
                .cloned()
                .collect(),
            "fingerprints.csv line 4: account 4 where account 3 belongs".to_string(),
        ),
        (
            "fingerprints.csv",
            prints[..3].to_vec(),
            "fingerprints.csv: no row for account 3".to_string(),
        ),
    ];
    for (k, (file, rows, want)) in cases.into_iter().enumerate() {
        let dir = temp_dir(&format!("bad-rows-{k}"));
        std::fs::create_dir_all(&dir).expect("case dir");
        for name in ["reports.csv", "fingerprints.csv", "ground_truth.csv"] {
            std::fs::copy(base.join(name), dir.join(name)).expect("copy");
        }
        std::fs::write(dir.join(file), rows.join("\n") + "\n").expect("edit");
        let out = srtd(&["evaluate", "--from", dir.to_str().expect("utf-8")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {k}: {stderr}");
        assert_eq!(stderr.trim_end(), format!("error: {want}"), "case {k}");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&base);
}
