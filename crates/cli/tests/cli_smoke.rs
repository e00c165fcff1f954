//! End-to-end tests of the `hotnoc` binary: campaign run / interrupt /
//! resume / check / diff, spec-file campaigns, single scenarios, and exit
//! codes.

use hotnoc_scenario::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn hotnoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hotnoc"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A tiny traffic-only campaign spec file (6 jobs, debug-profile fast).
fn write_campaign_spec(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("tiny.json");
    std::fs::write(
        &path,
        r#"{
  "schema": "hotnoc-campaign-spec-v1",
  "name": "cli-tiny",
  "seed": 11,
  "fidelity": "quick",
  "configs": [{"config": "A"}],
  "workloads": [
    {"kind": "traffic", "pattern": "uniform", "rate": 0.06, "packet_len": 3, "cycles": 200},
    {"kind": "traffic", "pattern": "tornado", "rate": 0.05, "packet_len": 3, "cycles": 200}
  ],
  "policies": ["baseline"],
  "seeds": [1, 2, 3]
}"#,
    )
    .expect("write spec");
    path
}

#[test]
fn campaign_run_interrupt_resume_and_check() {
    let dir = tmp_dir("resume");
    let spec = write_campaign_spec(&dir);
    let out_dir = dir.join("artifacts");

    // Interrupted run: only 2 of 6 jobs.
    let partial = hotnoc()
        .args(["campaign", "run", "--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&out_dir)
        .args(["--threads", "2", "--max-jobs", "2"])
        .output()
        .expect("spawn hotnoc");
    assert!(partial.status.success(), "stderr: {}", stderr(&partial));
    assert!(stdout(&partial).contains("partial"), "{}", stdout(&partial));
    assert!(!out_dir.join("CAMPAIGN_cli-tiny.json").exists());
    assert!(out_dir.join("CAMPAIGN_cli-tiny.manifest.jsonl").exists());

    // Resume to completion.
    let resumed = hotnoc()
        .args(["campaign", "run", "--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&out_dir)
        .args(["--threads", "2"])
        .output()
        .expect("spawn hotnoc");
    assert!(resumed.status.success(), "stderr: {}", stderr(&resumed));
    let text = stdout(&resumed);
    assert!(text.contains("resumed 2 job(s)"), "{text}");
    assert!(text.contains("6/6 jobs"), "{text}");
    let artifact = out_dir.join("CAMPAIGN_cli-tiny.json");
    assert!(artifact.exists());

    // The emitted artifact validates.
    let check = hotnoc()
        .args(["campaign", "check"])
        .arg(&artifact)
        .output()
        .expect("spawn hotnoc");
    assert!(check.status.success(), "stderr: {}", stderr(&check));
    assert!(stdout(&check).contains("ok (campaign cli-tiny, 6 jobs)"));

    // A tampered artifact fails the check with exit 1.
    let tampered = out_dir.join("CAMPAIGN_tampered.json");
    let body = std::fs::read_to_string(&artifact).unwrap();
    std::fs::write(&tampered, body.replace("\"seed\": 11", "\"seed\": 12")).unwrap();
    let bad = hotnoc()
        .args(["campaign", "check"])
        .arg(&tampered)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(bad.status.code(), Some(1), "stderr: {}", stderr(&bad));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_artifacts_are_identical_across_thread_counts() {
    let dir = tmp_dir("threads");
    let spec = write_campaign_spec(&dir);
    let mut bytes = Vec::new();
    for threads in ["1", "4"] {
        let out_dir = dir.join(format!("t{threads}"));
        let run = hotnoc()
            .args(["campaign", "run", "--spec"])
            .arg(&spec)
            .args(["--out-dir"])
            .arg(&out_dir)
            .args(["--threads", threads, "--quiet"])
            .output()
            .expect("spawn hotnoc");
        assert!(run.status.success(), "stderr: {}", stderr(&run));
        bytes.push(std::fs::read(out_dir.join("CAMPAIGN_cli-tiny.json")).unwrap());
    }
    assert_eq!(bytes[0], bytes[1], "artifact differs across thread counts");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_list_and_expand() {
    let list = hotnoc().args(["campaign", "list"]).output().expect("spawn");
    assert!(list.status.success());
    for name in [
        "fig1",
        "period-sweep",
        "migration-cost",
        "adaptive-compare",
        "sweep",
        "degraded-mesh",
        "smoke",
    ] {
        assert!(stdout(&list).contains(name), "missing builtin {name}");
    }

    let expand = hotnoc()
        .args(["campaign", "expand", "--builtin", "sweep", "--quick"])
        .output()
        .expect("spawn");
    assert!(expand.status.success());
    let text = stdout(&expand);
    assert!(text.contains("50 jobs"), "{text}");
    assert!(text.contains("A/w0:ldpc/rotation/p8/s0"), "{text}");
}

#[test]
fn scenario_run_prints_outcome_json() {
    let dir = tmp_dir("scenario");
    let spec = dir.join("scenario.json");
    std::fs::write(
        &spec,
        r#"{
  "name": "one-traffic",
  "chip": {"config": "B"},
  "workload": {"kind": "traffic", "pattern": "neighbor", "rate": 0.1, "packet_len": 2, "cycles": 150},
  "policy": {"kind": "baseline"},
  "mode": "cosim",
  "fidelity": "quick",
  "seed": 5
}"#,
    )
    .unwrap();
    let run = hotnoc()
        .args(["scenario", "run", "--spec"])
        .arg(&spec)
        .output()
        .expect("spawn");
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    let text = stdout(&run);
    assert!(text.contains("\"kind\": \"traffic\""), "{text}");
    assert!(text.contains("\"drained\": true"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_run_with_degraded_fabric_reports_fault_counters() {
    let dir = tmp_dir("faulty");
    let spec = dir.join("degraded.json");
    std::fs::write(
        &spec,
        r#"{
  "name": "degraded-traffic",
  "chip": {"config": "A"},
  "workload": {"kind": "traffic", "pattern": "uniform", "rate": 0.08, "packet_len": 3, "cycles": 300},
  "policy": {"kind": "baseline"},
  "mode": "cosim",
  "fidelity": "quick",
  "faults": [
    {"at": 0, "fail_router": [1, 1]},
    {"at": 50, "fail_link": [[2, 2], [3, 2]]}
  ],
  "seed": 7
}"#,
    )
    .unwrap();
    let run = hotnoc()
        .args(["scenario", "run", "--spec"])
        .arg(&spec)
        .output()
        .expect("spawn");
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    let text = stdout(&run);
    // A dead router forces drops and/or detours; the outcome must say so.
    assert!(
        text.contains("packets_dropped") || text.contains("detour_hops"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_run_accepts_repair_before_fail_as_a_no_op() {
    // Pinned semantics (mirrors the fault.rs unit tests): a repair event
    // scheduled before any matching fail is valid input and a deterministic
    // runtime no-op — exit 0 with a normal outcome, not exit 2.
    let dir = tmp_dir("repair-first");
    let spec = dir.join("repair-first.json");
    std::fs::write(
        &spec,
        r#"{
  "name": "repair-first",
  "chip": {"config": "A"},
  "workload": {"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 150},
  "policy": {"kind": "baseline"},
  "mode": "cosim",
  "fidelity": "quick",
  "faults": [
    {"at": 10, "repair_router": [1, 1]},
    {"at": 20, "repair_link": [[0, 0], [1, 0]]}
  ],
  "seed": 3
}"#,
    )
    .unwrap();
    let run = hotnoc()
        .args(["scenario", "run", "--spec"])
        .arg(&spec)
        .output()
        .expect("spawn");
    assert_eq!(run.status.code(), Some(0), "stderr: {}", stderr(&run));
    let text = stdout(&run);
    assert!(text.contains("\"kind\": \"traffic\""), "{text}");

    // Byte-identical to the same scenario without the no-op events: strip
    // the faults (the spec *content* differs, but the outcome must not).
    let clean = dir.join("clean.json");
    let body = std::fs::read_to_string(&spec).unwrap();
    let start = body.find("  \"faults\"").expect("faults field present");
    let end = body[start..].find("],\n").expect("faults array ends") + start + 3;
    let mut stripped = body.clone();
    stripped.replace_range(start..end, "");
    std::fs::write(&clean, stripped).unwrap();
    let clean_run = hotnoc()
        .args(["scenario", "run", "--spec"])
        .arg(&clean)
        .output()
        .expect("spawn");
    assert_eq!(clean_run.status.code(), Some(0), "{}", stderr(&clean_run));
    assert_eq!(
        stdout(&run),
        stdout(&clean_run),
        "no-op repairs changed the outcome"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_run_rejects_out_of_bounds_fault_as_bad_input() {
    // A fault plan naming a router outside the mesh is bad input: exit 2
    // with a message pointing at the offending event — never a panic, and
    // not exit 1 (nothing was simulated).
    let dir = tmp_dir("oob-fault");
    let spec = dir.join("oob.json");
    std::fs::write(
        &spec,
        r#"{
  "name": "oob-fault",
  "chip": {"config": "A"},
  "workload": {"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 3, "cycles": 100},
  "policy": {"kind": "baseline"},
  "mode": "cosim",
  "fidelity": "quick",
  "faults": [{"at": 0, "fail_router": [9, 9]}],
  "seed": 1
}"#,
    )
    .unwrap();
    let run = hotnoc()
        .args(["scenario", "run", "--spec"])
        .arg(&spec)
        .output()
        .expect("spawn");
    assert_eq!(run.status.code(), Some(2), "stderr: {}", stderr(&run));
    let err = stderr(&run);
    assert!(err.contains("fault"), "{err}");

    // Fault plans on the LDPC co-simulation are equally bad input.
    let ldpc = dir.join("ldpc-fault.json");
    std::fs::write(
        &ldpc,
        r#"{
  "name": "ldpc-fault",
  "chip": {"config": "A"},
  "workload": {"kind": "ldpc"},
  "policy": {"kind": "baseline"},
  "mode": "cosim",
  "fidelity": "quick",
  "faults": [{"at": 0, "fail_router": [1, 1]}],
  "seed": 1
}"#,
    )
    .unwrap();
    let run = hotnoc()
        .args(["scenario", "run", "--spec"])
        .arg(&ldpc)
        .output()
        .expect("spawn");
    assert_eq!(run.status.code(), Some(2), "stderr: {}", stderr(&run));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_check_cross_validates_fault_axes() {
    // A campaign over the failed_routers axis runs end to end from a spec
    // file, and `check` catches an artifact whose fault axis was tampered
    // with (the embedded spec re-expands to different jobs).
    let dir = tmp_dir("fault-axis");
    let spec = dir.join("degraded.json");
    std::fs::write(
        &spec,
        r#"{
  "schema": "hotnoc-campaign-spec-v1",
  "name": "cli-degraded",
  "seed": 19,
  "fidelity": "quick",
  "configs": [{"config": "A"}],
  "workloads": [
    {"kind": "traffic", "pattern": "uniform", "rate": 0.06, "packet_len": 3, "cycles": 200}
  ],
  "policies": ["baseline"],
  "failed_routers": [0, 1],
  "seeds": [1, 2]
}"#,
    )
    .unwrap();
    let out_dir = dir.join("artifacts");
    let run = hotnoc()
        .args(["campaign", "run", "--spec"])
        .arg(&spec)
        .args(["--out-dir"])
        .arg(&out_dir)
        .args(["--threads", "2", "--quiet"])
        .output()
        .expect("spawn hotnoc");
    assert!(run.status.success(), "stderr: {}", stderr(&run));
    let artifact = out_dir.join("CAMPAIGN_cli-degraded.json");
    let body = std::fs::read_to_string(&artifact).unwrap();
    assert!(body.contains("/fr1/"), "fault tag missing from artifact");

    let check = hotnoc()
        .args(["campaign", "check"])
        .arg(&artifact)
        .output()
        .expect("spawn hotnoc");
    assert!(check.status.success(), "stderr: {}", stderr(&check));

    let tampered = out_dir.join("CAMPAIGN_tampered-axis.json");
    std::fs::write(
        &tampered,
        body.replace("\"failed_routers\": [0, 1]", "\"failed_routers\": [0, 2]"),
    )
    .unwrap();
    let bad = hotnoc()
        .args(["campaign", "check"])
        .arg(&tampered)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(bad.status.code(), Some(1), "stderr: {}", stderr(&bad));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn custom_ldpc_chip_too_large_for_its_code_is_bad_input_exit_2() {
    // A quick-fidelity code has 240 check nodes, so a 16x16 LDPC chip
    // cannot be mapped: rejected up front with exit 2, never a mid-run
    // exit 1.
    let dir = tmp_dir("ldpc-16x16");
    let chip = format!(
        r#"{{"custom": {{"mesh_side": 16, "tile_weights": [{}], "base_peak_celsius": 80.0}}}}"#,
        vec!["1.0"; 256].join(", ")
    );
    let scenario = dir.join("scenario.json");
    std::fs::write(
        &scenario,
        format!(
            r#"{{"name": "big", "chip": {chip}, "workload": {{"kind": "ldpc"}},
  "policy": {{"kind": "baseline"}}, "mode": "cosim", "fidelity": "quick", "seed": 0}}"#
        ),
    )
    .unwrap();
    let campaign = dir.join("campaign.json");
    std::fs::write(
        &campaign,
        format!(
            r#"{{"schema": "hotnoc-campaign-spec-v1", "name": "big", "seed": 1,
  "fidelity": "quick", "configs": [{chip}], "workloads": [{{"kind": "ldpc"}}],
  "policies": ["baseline"], "seeds": [0]}}"#
        ),
    )
    .unwrap();
    let out_dir = dir.join("artifacts");
    let mut campaign_run = hotnoc();
    campaign_run
        .args(["campaign", "run", "--spec"])
        .arg(&campaign)
        .arg("--out-dir")
        .arg(&out_dir);
    let mut scenario_run = hotnoc();
    scenario_run
        .args(["scenario", "run", "--spec"])
        .arg(&scenario);
    for mut cmd in [scenario_run, campaign_run] {
        let run = cmd.output().expect("spawn");
        assert_eq!(run.status.code(), Some(2), "stderr: {}", stderr(&run));
        assert!(stderr(&run).contains("check nodes"), "{}", stderr(&run));
    }
    assert!(!out_dir.exists(), "no job may start");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sub_frame_horizon_is_bad_input_exit_2() {
    // 0.001 ms is under half of one 5 us thermal frame: the co-simulation
    // would have no frame to measure, so the spec is rejected up front.
    let dir = tmp_dir("sub-frame");
    let scenario = dir.join("scenario.json");
    std::fs::write(
        &scenario,
        r#"{"name": "blink", "chip": {"config": "A"}, "workload": {"kind": "ldpc"},
  "policy": {"kind": "periodic", "scheme": "xy-shift", "period_blocks": 24},
  "mode": "cosim", "fidelity": "quick", "seed": 0, "sim_time_ms": 0.001}"#,
    )
    .unwrap();
    let campaign = dir.join("campaign.json");
    std::fs::write(
        &campaign,
        r#"{"schema": "hotnoc-campaign-spec-v1", "name": "blink", "seed": 1,
  "fidelity": "quick", "configs": [{"config": "A"}], "workloads": [{"kind": "ldpc"}],
  "policies": ["adaptive"], "periods": [24], "seeds": [0], "sim_time_ms": 0.001}"#,
    )
    .unwrap();
    let out_dir = dir.join("artifacts");
    let mut campaign_run = hotnoc();
    campaign_run
        .args(["campaign", "run", "--spec"])
        .arg(&campaign)
        .arg("--out-dir")
        .arg(&out_dir);
    let mut scenario_run = hotnoc();
    scenario_run
        .args(["scenario", "run", "--spec"])
        .arg(&scenario);
    for mut cmd in [scenario_run, campaign_run] {
        let run = cmd.output().expect("spawn");
        assert_eq!(run.status.code(), Some(2), "stderr: {}", stderr(&run));
        assert!(stderr(&run).contains("thermal frame"), "{}", stderr(&run));
    }
    assert!(!out_dir.exists(), "no job may start");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thermal_runaway_fails_the_job_with_exit_1_and_no_artifact() {
    // On a uniform 14x14 quick-fidelity die, xy-shift at period 1 migrates
    // for longer than it decodes and the leakage loop runs away past any
    // physical temperature: the job fails instead of recording a peak.
    let dir = tmp_dir("runaway-14x14");
    let chip = format!(
        r#"{{"custom": {{"mesh_side": 14, "tile_weights": [{}], "base_peak_celsius": 80.0}}}}"#,
        vec!["1.0"; 196].join(", ")
    );
    let scenario = dir.join("scenario.json");
    std::fs::write(
        &scenario,
        format!(
            r#"{{"name": "runaway", "chip": {chip}, "workload": {{"kind": "ldpc"}},
  "policy": {{"kind": "periodic", "scheme": "xy-shift", "period_blocks": 1}},
  "mode": "cosim", "fidelity": "quick", "seed": 0}}"#
        ),
    )
    .unwrap();
    let campaign = dir.join("campaign.json");
    std::fs::write(
        &campaign,
        format!(
            r#"{{"schema": "hotnoc-campaign-spec-v1", "name": "runaway", "seed": 1,
  "fidelity": "quick", "configs": [{chip}], "workloads": [{{"kind": "ldpc"}}],
  "policies": ["periodic"], "schemes": ["xy-shift"], "periods": [1], "seeds": [0]}}"#
        ),
    )
    .unwrap();
    let out_dir = dir.join("artifacts");
    let mut campaign_run = hotnoc();
    campaign_run
        .args(["campaign", "run", "--spec"])
        .arg(&campaign)
        .arg("--out-dir")
        .arg(&out_dir);
    let mut scenario_run = hotnoc();
    scenario_run
        .args(["scenario", "run", "--spec"])
        .arg(&scenario);
    for mut cmd in [scenario_run, campaign_run] {
        let run = cmd.output().expect("spawn");
        assert_eq!(run.status.code(), Some(1), "stderr: {}", stderr(&run));
        assert!(stderr(&run).contains("thermal runaway"), "{}", stderr(&run));
        assert!(
            stdout(&run).is_empty(),
            "no result may be printed: {}",
            stdout(&run)
        );
    }
    assert!(
        !out_dir.join("CAMPAIGN_runaway.json").exists(),
        "no campaign artifact may be written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Path of a committed test fixture.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Scales every `mean_latency_cycles` field in a campaign document —
/// the "synthetically slowed artifact" of the regression-gate tests.
fn scale_latencies(j: &mut Json, factor: f64) {
    match j {
        Json::Object(fields) => {
            for (k, v) in fields.iter_mut() {
                if k == "mean_latency_cycles" {
                    if let Json::Num(x) = v {
                        *x *= factor;
                    }
                } else {
                    scale_latencies(v, factor);
                }
            }
        }
        Json::Array(items) => {
            for item in items.iter_mut() {
                scale_latencies(item, factor);
            }
        }
        _ => {}
    }
}

#[test]
fn campaign_diff_golden_report_and_exit_codes() {
    // Exit 0 + byte-for-byte golden report: two committed runs of the same
    // spec under different seed sets must diff to inconclusive groups with
    // near-unit ratios.
    let out = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(fixture("CAMPAIGN_fix-b.json"))
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let golden = std::fs::read_to_string(fixture("diff_fix-a_fix-b.golden.txt")).unwrap();
    assert_eq!(
        stdout(&out),
        golden,
        "diff report drifted from the committed golden"
    );
    assert!(stdout(&out).contains("inconclusive"));

    // Exit 1: a synthetically slowed B trips --fail-on-regression.
    let dir = tmp_dir("diff");
    let text = std::fs::read_to_string(fixture("CAMPAIGN_fix-b.json")).unwrap();
    let mut doc = Json::parse(&text).expect("fixture parses");
    scale_latencies(&mut doc, 1.5);
    let slowed = dir.join("CAMPAIGN_slowed.json");
    std::fs::write(&slowed, format!("{doc}\n")).unwrap();
    let regressed = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(&slowed)
        .args(["--fail-on-regression", "--threshold-pct", "15"])
        .output()
        .expect("spawn hotnoc");
    assert_eq!(
        regressed.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        stdout(&regressed),
        stderr(&regressed)
    );
    assert!(stdout(&regressed).contains("verdict: REGRESSED"));
    // Without the gate flag the same diff is informational: exit 0.
    let informational = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(&slowed)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(informational.status.code(), Some(0));
    // A generous threshold absorbs the 50% slowdown.
    let tolerant = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(&slowed)
        .args(["--fail-on-regression", "--threshold-pct", "80"])
        .output()
        .expect("spawn hotnoc");
    assert_eq!(tolerant.status.code(), Some(0));

    // Exit 2: a cross-validation failure is bad input for diff — exit 1
    // is reserved for gated regressions.
    let tampered = dir.join("tampered.json");
    std::fs::write(&tampered, text.replace("\"seed\": 102", "\"seed\": 103")).unwrap();
    let invalid = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(&tampered)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(
        invalid.status.code(),
        Some(2),
        "stderr: {}",
        stderr(&invalid)
    );

    // Exit 2: bad input (missing file, usage error).
    let missing = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(dir.join("nope.json"))
        .output()
        .expect("spawn hotnoc");
    assert_eq!(missing.status.code(), Some(2));
    let one_arg = hotnoc()
        .args(["campaign", "diff"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .output()
        .expect("spawn hotnoc");
    assert_eq!(one_arg.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_or_unknown_schema_is_clean_bad_input_exit_2() {
    // A document without a `schema` field (or with an unrecognized one)
    // never was a campaign artifact: `check` and `diff` must report it
    // cleanly with exit 2 — not exit 1 (a failed validation of a real
    // artifact) and certainly not a panic.
    let dir = tmp_dir("schema");
    let text = std::fs::read_to_string(fixture("CAMPAIGN_fix-a.json")).unwrap();
    let schemaless = dir.join("schemaless.json");
    std::fs::write(
        &schemaless,
        text.replacen("\"schema\": \"hotnoc-campaign-v1\", ", "", 1),
    )
    .unwrap();
    let unknown = dir.join("unknown.json");
    std::fs::write(
        &unknown,
        text.replacen("hotnoc-campaign-v1", "hotnoc-campaign-v99", 1),
    )
    .unwrap();

    for bad in [&schemaless, &unknown] {
        let check = hotnoc()
            .args(["campaign", "check"])
            .arg(bad)
            .output()
            .expect("spawn hotnoc");
        assert_eq!(
            check.status.code(),
            Some(2),
            "check {}: stderr: {}",
            bad.display(),
            stderr(&check)
        );
        assert!(stderr(&check).contains("schema"), "{}", stderr(&check));
        let diff = hotnoc()
            .args(["campaign", "diff"])
            .arg(fixture("CAMPAIGN_fix-a.json"))
            .arg(bad)
            .output()
            .expect("spawn hotnoc");
        assert_eq!(diff.status.code(), Some(2), "diff vs {}", bad.display());
    }

    // One bad-input file among valid ones dominates the exit code.
    let mixed = hotnoc()
        .args(["campaign", "check"])
        .arg(fixture("CAMPAIGN_fix-a.json"))
        .arg(&schemaless)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(mixed.status.code(), Some(2));
    assert!(stdout(&mixed).contains("ok (campaign fix-a, 6 jobs)"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let bad = hotnoc().args(["campaign", "run"]).output().expect("spawn");
    assert_eq!(bad.status.code(), Some(2));
    let unknown = hotnoc().args(["frobnicate"]).output().expect("spawn");
    assert_eq!(unknown.status.code(), Some(2));
    let missing = hotnoc()
        .args(["campaign", "run", "--builtin", "nope"])
        .output()
        .expect("spawn");
    assert_eq!(missing.status.code(), Some(2));
    // --quick contradicts a spec file's own fidelity: reject, don't ignore.
    let conflict = hotnoc()
        .args(["campaign", "run", "--spec", "whatever.json", "--quick"])
        .output()
        .expect("spawn");
    assert_eq!(conflict.status.code(), Some(2));
}

#[test]
fn repeated_flags_are_usage_errors() {
    let dir = tmp_dir("repeat");
    for args in [
        "campaign expand --builtin smoke --builtin fig1",
        "campaign expand --builtin smoke --quick --quick",
    ] {
        let out = hotnoc().args(args.split(' ')).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?} expanded anyway");
        assert!(
            stderr(&out).contains("given more than once"),
            "{}",
            stderr(&out)
        );
    }
    // A repeated --out-dir is refused before anything runs or is written.
    let (a, b) = (dir.join("a"), dir.join("b"));
    let out = hotnoc()
        .args([
            "campaign",
            "run",
            "--builtin",
            "smoke",
            "--quick",
            "--quiet",
        ])
        .arg("--out-dir")
        .arg(&a)
        .arg("--out-dir")
        .arg(&b)
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    assert!(!a.exists() && !b.exists(), "a repeated --out-dir still ran");
    let _ = std::fs::remove_dir_all(&dir);
}
