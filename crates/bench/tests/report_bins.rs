//! Runs each `report_*` binary (quick fidelity where it has one) in a fresh
//! directory and checks that it exits 0 and leaves its exhibit files there.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` in a fresh temp directory named after `name`;
/// returns the directory and the binary's stdout.
fn run(name: &str, bin: &str, args: &[&str]) -> (PathBuf, String) {
    let dir =
        std::env::temp_dir().join(format!("hotnoc-report-bins-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary starts");
    assert!(
        out.status.success(),
        "{name} {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

/// The line count of `file` in `dir`.
fn lines(dir: &Path, file: &str) -> usize {
    let text = std::fs::read_to_string(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    text.lines().count()
}

#[test]
fn report_fig1_writes_the_figure_and_names_its_period() {
    let (dir, stdout) = run("fig1", env!("CARGO_BIN_EXE_report_fig1"), &["--quick"]);
    assert_eq!(lines(&dir, "fig1.csv"), 1 + 5, "header + configs A-E");
    // The quick fig1 campaign migrates every 24 blocks.
    assert!(
        stdout.contains("X-Y Shift throughput penalty at 24-block period"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let bin = env!("CARGO_BIN_EXE_report_fig1");
    let (dir, stdout) = run("fig1-predict", bin, &["--predict", "--quick"]);
    assert!(stdout.contains("Orbit-average predictor"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_period_writes_the_sweep() {
    let (dir, _) = run("period", env!("CARGO_BIN_EXE_report_period"), &["--quick"]);
    assert_eq!(
        lines(&dir, "period_sweep.csv"),
        1 + 3,
        "header + 1/4/8 blocks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_migration_cost_writes_both_chips() {
    let bin = env!("CARGO_BIN_EXE_report_migration_cost");
    let (dir, _) = run("migration-cost", bin, &["--quick"]);
    for file in ["migration_cost_A.csv", "migration_cost_E.csv"] {
        assert_eq!(lines(&dir, file), 1 + 5, "{file}: header + five schemes");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_table1_writes_the_table() {
    let (dir, _) = run("table1", env!("CARGO_BIN_EXE_report_table1"), &[]);
    assert!(dir.join("table1.txt").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
