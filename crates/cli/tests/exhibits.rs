//! The paper's exhibits through the real binary: a complete quick run of
//! each paper built-in writes exactly the exhibit files its records form,
//! each the library's render of the records read back from the run's own
//! `CAMPAIGN_<name>.json`, and a run whose records are not the whole
//! campaign writes none.

use hotnoc_core::ChipConfigId;
use hotnoc_reconfig::MigrationScheme;
use hotnoc_scenario::exhibits;
use hotnoc_scenario::json::Json;
use hotnoc_scenario::runner::validate_campaign_json;
use hotnoc_scenario::JobRecord;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-exhibits-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the quick built-in `name` into `out_dir` with `extra` flags,
/// requires exit 0, and returns stdout.
fn run_builtin(name: &str, out_dir: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hotnoc"))
        .args(["campaign", "run", "--builtin", name, "--quick", "--quiet"])
        .arg("--out-dir")
        .arg(out_dir)
        .args(extra)
        .output()
        .expect("spawn hotnoc");
    assert!(
        out.status.success(),
        "{name} {extra:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The records of `dir/CAMPAIGN_<name>.json`, parsed back.
fn records(dir: &Path, name: &str) -> Vec<JobRecord> {
    let text = read(dir, &format!("CAMPAIGN_{name}.json"));
    let doc = Json::parse(&text).expect("artifact is JSON");
    validate_campaign_json(&doc)
        .expect("valid artifact")
        .records
}

/// The names of the files in `dir` that are not campaign artifacts or
/// journals, sorted.
fn exhibit_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("out dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| !name.starts_with("CAMPAIGN_"))
        .collect();
    names.sort();
    names
}

#[test]
fn fig1_writes_figure_1() {
    let dir = tmp_dir("fig1");
    let stdout = run_builtin("fig1", &dir, &[]);
    assert_eq!(exhibit_files(&dir), ["fig1.csv"]);
    let table = exhibits::fig1_table(&records(&dir, "fig1")).expect("fig1 table");
    let csv = read(&dir, "fig1.csv");
    assert_eq!(csv, exhibits::fig1_csv(&table));
    assert_eq!(csv.lines().count(), 1 + 5, "header + configs A-E");
    // The quick fig1 campaign migrates every 24 blocks.
    assert!(
        stdout.contains("X-Y Shift throughput penalty at 24-block period"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn period_sweep_writes_the_sweep() {
    let dir = tmp_dir("period");
    run_builtin("period-sweep", &dir, &[]);
    assert_eq!(exhibit_files(&dir), ["period_sweep.csv"]);
    let records = records(&dir, "period-sweep");
    let table = exhibits::period_table(&records, ChipConfigId::A, MigrationScheme::XYShift)
        .expect("period table");
    let csv = read(&dir, "period_sweep.csv");
    assert_eq!(csv, exhibits::period_csv(&table));
    assert_eq!(csv.lines().count(), 1 + 3, "header + 1/4/8 blocks");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn migration_cost_writes_both_chips_and_table_1() {
    let dir = tmp_dir("cost");
    run_builtin("migration-cost", &dir, &[]);
    assert_eq!(
        exhibit_files(&dir),
        ["migration_cost_A.csv", "migration_cost_E.csv", "table1.txt"]
    );
    let records = records(&dir, "migration-cost");
    for id in [ChipConfigId::A, ChipConfigId::E] {
        let rows = exhibits::migration_cost_rows(&records, id).expect("cost rows");
        let file = format!("migration_cost_{id}.csv");
        let csv = read(&dir, &file);
        assert_eq!(csv, exhibits::migration_cost_csv(&rows), "{file}");
        assert_eq!(csv.lines().count(), 1 + 5, "{file}: header + five schemes");
    }
    assert_eq!(read(&dir, "table1.txt"), exhibits::table1());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_partial_and_shard_runs_write_no_exhibit() {
    let dir = tmp_dir("none");
    run_builtin("smoke", &dir.join("smoke"), &[]);
    // Two of period-sweep's three jobs span two periods: as a whole
    // campaign they would form the sweep.
    run_builtin("period-sweep", &dir.join("partial"), &["--max-jobs", "2"]);
    run_builtin("period-sweep", &dir.join("shard"), &["--shard", "0/2"]);
    for run in ["smoke", "partial", "shard"] {
        assert!(exhibit_files(&dir.join(run)).is_empty(), "{run}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
