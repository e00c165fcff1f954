//! Golden fingerprints for the paper's exhibits.
//!
//! Each exhibit has exactly one path: a built-in campaign, projected onto
//! the report tables by `scenario::exhibits` and rendered by
//! `core::report`. This file pins the bytes of that path at quick fidelity:
//!
//! * the `CAMPAIGN_<name>.json` artifacts of `fig1`, `period-sweep`,
//!   `migration-cost` and `adaptive-compare`;
//! * the ASCII and CSV renders of Figure 1, the period sweep and the
//!   migration-cost tables of configs A and E;
//! * the per-job `hotnoc-trace-v1` traces of the `smoke` campaign, whose
//!   `migration` events carry the §2.2 migration energy computed on both
//!   the periodic and the adaptive co-simulation paths.
//!
//! The CI determinism matrix runs this file at `HOTNOC_THREADS` in
//! {1, 2, 4}. If a fingerprint changes after an *intentional* change to an
//! exhibit, regenerate with
//! `cargo test --test golden_exhibits -- --nocapture` and update the table.

use hotnoc::core::configs::{ChipConfigId, Fidelity};
use hotnoc::core::report;
use hotnoc::reconfig::MigrationScheme;
use hotnoc::scenario::builtin::builtin;
use hotnoc::scenario::exhibits;
use hotnoc::scenario::runner::{run_campaign, JobRecord, RunnerOptions};
use hotnoc::scenario::TraceDoc;

/// FNV-1a over raw bytes.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A completed quick-fidelity builtin campaign.
struct Exhibit {
    records: Vec<JobRecord>,
    /// The `CAMPAIGN_<name>.json` bytes.
    artifact: String,
    /// Per-job traces as `(file name, bytes)`, sorted by file name; empty
    /// unless the run was traced.
    traces: Vec<(String, String)>,
}

/// Runs the quick-fidelity builtin `name` in a fresh directory.
fn run_quick(name: &str, traced: bool) -> Exhibit {
    let dir = std::env::temp_dir().join(format!(
        "hotnoc-golden-exhibits-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = builtin(name, Fidelity::Quick).expect("known builtin");
    let trace_dir = dir.join("traces");
    let run = run_campaign(
        &spec,
        &RunnerOptions {
            out_dir: dir.clone(),
            trace_dir: traced.then(|| trace_dir.clone()),
            ..RunnerOptions::default()
        },
    )
    .expect("campaign runs");
    assert!(run.is_complete(), "{name}: campaign stopped early");
    let artifact = std::fs::read_to_string(run.json_path.as_ref().expect("artifact emitted"))
        .expect("artifact readable");
    let mut traces = Vec::new();
    if traced {
        for entry in std::fs::read_dir(&trace_dir).expect("trace dir exists") {
            let path = entry.expect("dir entry").path();
            let text = std::fs::read_to_string(&path).expect("trace readable");
            let file = path.file_name().expect("file name").to_string_lossy();
            traces.push((file.into_owned(), text));
        }
        traces.sort();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Exhibit {
        records: run.completed,
        artifact,
        traces,
    }
}

/// Checks every `(label, bytes)` against its recorded fingerprint. All
/// fingerprints are printed first, so one `--nocapture` run re-records a
/// table after an intentional change.
fn assert_golden(golden: &[(&str, u64)], renders: &[(&str, String)]) {
    for (label, text) in renders {
        println!("{label}: {:#018x}", fingerprint(text.as_bytes()));
    }
    assert_eq!(golden.len(), renders.len(), "one fingerprint per render");
    for ((label, expected), (got_label, text)) in golden.iter().zip(renders) {
        assert_eq!(label, got_label, "golden table out of order");
        let got = fingerprint(text.as_bytes());
        assert_eq!(
            got, *expected,
            "{label}: bytes diverged from the recorded exhibit \
             (expected {expected:#018x}, got {got:#018x})"
        );
    }
}

#[test]
fn fig1_exhibit_reproduces_recorded_bytes() {
    let run = run_quick("fig1", false);
    let table = exhibits::fig1_table(&run.records).expect("fig1 table");
    assert_golden(
        &[
            ("CAMPAIGN_fig1.json", 0x72269f8399780346),
            ("fig1_ascii", 0x532872effb9c9f5b),
            ("fig1_csv", 0x770860f42987f43c),
        ],
        &[
            ("CAMPAIGN_fig1.json", run.artifact),
            ("fig1_ascii", report::fig1_ascii(&table)),
            ("fig1_csv", report::fig1_csv(&table)),
        ],
    );
}

#[test]
fn period_sweep_exhibit_reproduces_recorded_bytes() {
    let run = run_quick("period-sweep", false);
    let table = exhibits::period_table(&run.records, ChipConfigId::A, MigrationScheme::XYShift)
        .expect("period table");
    assert_golden(
        &[
            ("CAMPAIGN_period-sweep.json", 0x6cf28027f4c77d63),
            ("period_ascii", 0xec6eed0ba8eef931),
            ("period_csv", 0x3a396d3db3ff96f3),
        ],
        &[
            ("CAMPAIGN_period-sweep.json", run.artifact),
            ("period_ascii", report::period_ascii(&table)),
            ("period_csv", report::period_csv(&table)),
        ],
    );
}

#[test]
fn migration_cost_exhibit_reproduces_recorded_bytes() {
    let run = run_quick("migration-cost", false);
    let rows = |id| exhibits::migration_cost_rows(&run.records, id).expect("cost rows");
    let (a, e) = (rows(ChipConfigId::A), rows(ChipConfigId::E));
    assert_eq!(a.len(), 5);
    assert!(a.iter().all(|r| r.energy_uj > 0.0));
    // Rotation stalls longest (most phases) — the paper's "largest energy
    // penalty".
    let (rot, xys) = (&a[0], &a[4]);
    assert!(rot.stall_us > xys.stall_us);
    assert!(rot.energy_uj > xys.energy_uj);
    assert_golden(
        &[
            ("CAMPAIGN_migration-cost.json", 0x22e28d11dfd00d83),
            ("migration_cost_ascii_A", 0xb664e578be64cfbb),
            ("migration_cost_csv_A", 0x6e46643ff6130f25),
            ("migration_cost_ascii_E", 0xad75579347a1e6db),
            ("migration_cost_csv_E", 0x8edc2c79d6ca1de2),
        ],
        &[
            ("CAMPAIGN_migration-cost.json", run.artifact),
            ("migration_cost_ascii_A", report::migration_cost_ascii(&a)),
            ("migration_cost_csv_A", report::migration_cost_csv(&a)),
            ("migration_cost_ascii_E", report::migration_cost_ascii(&e)),
            ("migration_cost_csv_E", report::migration_cost_csv(&e)),
        ],
    );
}

#[test]
fn adaptive_compare_artifact_reproduces_recorded_bytes() {
    let run = run_quick("adaptive-compare", false);
    assert_golden(
        &[("CAMPAIGN_adaptive-compare.json", 0x595c7174b4c704bd)],
        &[("CAMPAIGN_adaptive-compare.json", run.artifact)],
    );
}

#[test]
fn smoke_traces_reproduce_recorded_bytes() {
    let run = run_quick("smoke", true);
    assert_eq!(run.traces.len(), run.records.len(), "one trace per job");
    let migrations: usize = run
        .traces
        .iter()
        .map(|(file, text)| {
            let doc = TraceDoc::parse(text).unwrap_or_else(|e| panic!("{file}: {e}"));
            doc.events
                .iter()
                .filter(|e| e.kind() == "migration")
                .count()
        })
        .sum();
    assert_eq!(migrations, 541, "smoke traces lost or gained migrations");
    let mut all = String::new();
    for (file, text) in &run.traces {
        all.push_str(file);
        all.push('\n');
        all.push_str(text);
    }
    assert_golden(
        &[("smoke traces", 0x4e7a330c8d718bd6)],
        &[("smoke traces", all)],
    );
}
