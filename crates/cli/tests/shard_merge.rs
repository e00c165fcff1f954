//! End-to-end tests of distributed campaign sharding through the real
//! binary: `campaign run --shard i/n` + `campaign merge` reproduce the
//! whole-run artifacts byte-for-byte (including a kill/resume inside one
//! shard and shards at different thread counts), and every bad-input
//! path exits 2 with a message naming the offender.

use hotnoc_scenario::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn hotnoc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hotnoc"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-shardcli-{tag}-{}", std::process::id()));
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
fn write_campaign_spec(dir: &Path, name: &str, seeds: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create spec dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(
        &path,
        format!(
            r#"{{
  "schema": "hotnoc-campaign-spec-v1",
  "name": "{name}",
  "seed": 11,
  "fidelity": "quick",
  "configs": [{{"config": "A"}}],
  "workloads": [
    {{"kind": "traffic", "pattern": "uniform", "rate": 0.06, "packet_len": 3, "cycles": 200}},
    {{"kind": "traffic", "pattern": "tornado", "rate": 0.05, "packet_len": 3, "cycles": 200}}
  ],
  "policies": ["baseline"],
  "seeds": [{seeds}]
}}"#
        ),
    )
    .expect("write spec");
    path
}

fn run_spec(spec: &Path, out_dir: &Path, extra: &[&str]) -> Output {
    hotnoc()
        .arg("campaign")
        .arg("run")
        .arg("--spec")
        .arg(spec)
        .arg("--out-dir")
        .arg(out_dir)
        .arg("--quiet")
        .args(extra)
        .output()
        .expect("spawn hotnoc")
}

/// The tentpole proof, CLI edition: three shards — one interrupted with
/// `--max-jobs` then resumed at a different thread count, the others at
/// unequal thread counts — merge back to the exact whole-run bytes.
#[test]
fn sharded_run_merges_to_whole_run_bytes() {
    let dir = tmp_dir("merge");
    let spec = write_campaign_spec(&dir, "shard-e2e", "1, 2, 3");
    let whole_dir = dir.join("whole");
    let shard_dir = dir.join("shards");
    let merged_dir = dir.join("merged");

    let whole = run_spec(&spec, &whole_dir, &["--threads", "2"]);
    assert!(whole.status.success(), "{}", stderr(&whole));

    // Shard 0: 4 threads. Shard 1: interrupted after 1 job, resumed on 2
    // threads. Shard 2: single-threaded.
    let s0 = run_spec(&spec, &shard_dir, &["--shard", "0/3", "--threads", "4"]);
    assert!(s0.status.success(), "{}", stderr(&s0));
    let partial = run_spec(
        &spec,
        &shard_dir,
        &["--shard", "1/3", "--threads", "4", "--max-jobs", "1"],
    );
    assert!(partial.status.success(), "{}", stderr(&partial));
    assert!(
        stdout(&partial).contains("still pending"),
        "{}",
        stdout(&partial)
    );
    let s1 = run_spec(&spec, &shard_dir, &["--shard", "1/3", "--threads", "2"]);
    assert!(s1.status.success(), "{}", stderr(&s1));
    assert!(
        stdout(&s1).contains("resumed 1 job(s) from the manifest"),
        "{}",
        stdout(&s1)
    );
    let s2 = run_spec(&spec, &shard_dir, &["--shard", "2/3", "--threads", "1"]);
    assert!(s2.status.success(), "{}", stderr(&s2));

    let shard_paths: Vec<PathBuf> = (0..3)
        .map(|i| shard_dir.join(format!("CAMPAIGN_shard-e2e.shard-{i}-of-3.json")))
        .collect();
    for p in &shard_paths {
        assert!(p.exists(), "missing {}", p.display());
    }

    // `check` understands shard artifacts.
    let check = hotnoc()
        .arg("campaign")
        .arg("check")
        .args(&shard_paths)
        .output()
        .expect("spawn hotnoc");
    assert!(check.status.success(), "{}", stderr(&check));
    assert!(
        stdout(&check).contains("ok (shard 0/3 of campaign shard-e2e, 2 of 6 jobs)"),
        "{}",
        stdout(&check)
    );

    let merge = hotnoc()
        .arg("campaign")
        .arg("merge")
        .args(&shard_paths)
        .arg("--out-dir")
        .arg(&merged_dir)
        .output()
        .expect("spawn hotnoc");
    assert!(merge.status.success(), "{}", stderr(&merge));
    assert!(
        stdout(&merge).contains("merged 3 shard(s) of campaign shard-e2e: 6 jobs"),
        "{}",
        stdout(&merge)
    );

    // Byte-for-byte equality with the single-host run, both artifacts.
    for artifact in [
        "CAMPAIGN_shard-e2e.json",
        "CAMPAIGN_shard-e2e.aggregate.json",
    ] {
        let whole_bytes = std::fs::read(whole_dir.join(artifact)).expect("whole artifact");
        let merged_bytes = std::fs::read(merged_dir.join(artifact)).expect("merged artifact");
        assert_eq!(whole_bytes, merged_bytes, "{artifact} differs");
    }

    // The merged artifact validates and diffs cleanly against the whole run.
    let diff = hotnoc()
        .arg("campaign")
        .arg("diff")
        .arg(whole_dir.join("CAMPAIGN_shard-e2e.json"))
        .arg(merged_dir.join("CAMPAIGN_shard-e2e.json"))
        .arg("--fail-on-regression")
        .output()
        .expect("spawn hotnoc");
    assert!(diff.status.success(), "{}", stderr(&diff));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_incomplete_duplicate_and_mismatched_sets() {
    let dir = tmp_dir("reject");
    let spec = write_campaign_spec(&dir, "shard-rej", "1, 2, 3");
    let shard_dir = dir.join("shards");
    for i in 0..2 {
        let out = run_spec(&spec, &shard_dir, &["--shard", &format!("{i}/2")]);
        assert!(out.status.success(), "{}", stderr(&out));
    }
    let s0 = shard_dir.join("CAMPAIGN_shard-rej.shard-0-of-2.json");
    let s1 = shard_dir.join("CAMPAIGN_shard-rej.shard-1-of-2.json");

    // Missing shard.
    let out = hotnoc()
        .args(["campaign", "merge"])
        .arg(&s0)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("missing shard 1/2"),
        "{}",
        stderr(&out)
    );

    // Duplicate shard.
    let out = hotnoc()
        .args(["campaign", "merge"])
        .args([&s0, &s0, &s1])
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("duplicate shard 0/2"),
        "{}",
        stderr(&out)
    );

    // Fingerprint mismatch: same campaign name, different seed axis.
    let other_spec = write_campaign_spec(&dir.join("other"), "shard-rej", "1, 2");
    let other_dir = dir.join("other-shards");
    let out = run_spec(&other_spec, &other_dir, &["--shard", "1/2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = hotnoc()
        .args(["campaign", "merge"])
        .arg(&s0)
        .arg(other_dir.join("CAMPAIGN_shard-rej.shard-1-of-2.json"))
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("fingerprint mismatch"),
        "{}",
        stderr(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard whose claimed count is absurd (its stripe is then only job
/// 0) is a valid artifact, but an incomplete set: merge must say which
/// stripe is missing and exit 2, never size anything by the claimed count.
#[test]
fn merge_names_the_gap_of_a_huge_claimed_shard_count() {
    let dir = tmp_dir("huge");
    let spec = write_campaign_spec(&dir, "shard-huge", "1, 2, 3");
    let out = run_spec(&spec, &dir, &["--shard", "0/1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let path = dir.join("CAMPAIGN_shard-huge.shard-0-of-1.json");
    let mut doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let Json::Object(fields) = &mut doc else {
        panic!("artifact is an object");
    };
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("shard", v) => {
                *v = Json::object(vec![
                    ("index", Json::int(0)),
                    ("count", Json::int(4_000_000_000_000_000)),
                ]);
            }
            ("jobs", v) => *v = Json::int(1),
            ("results", Json::Array(records)) => records.truncate(1),
            _ => {}
        }
    }
    std::fs::write(&path, doc.to_string()).unwrap();

    let check = hotnoc()
        .args(["campaign", "check"])
        .arg(&path)
        .output()
        .expect("spawn hotnoc");
    assert!(check.status.success(), "{}", stderr(&check));
    let merge = hotnoc()
        .args(["campaign", "merge"])
        .arg(&path)
        .arg("--out-dir")
        .arg(dir.join("merged"))
        .output()
        .expect("spawn hotnoc");
    assert_eq!(merge.status.code(), Some(2), "{}", stderr(&merge));
    assert!(
        stderr(&merge).contains("missing shard 1/4000000000000000"),
        "{}",
        stderr(&merge)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_and_check_classify_bad_inputs_as_exit_2() {
    let dir = tmp_dir("badinput");

    // Unreadable file.
    let missing = dir.join("nope.json");
    let out = hotnoc()
        .args(["campaign", "merge"])
        .arg(&missing)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("nope.json"), "{}", stderr(&out));

    // Valid JSON without a schema tag.
    let schemaless = dir.join("schemaless.json");
    std::fs::write(&schemaless, "{\"jobs\": 3}\n").unwrap();
    let out = hotnoc()
        .args(["campaign", "merge"])
        .arg(&schemaless)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("missing \"schema\""),
        "{}",
        stderr(&out)
    );

    // A known-but-wrong schema.
    let wrong = dir.join("wrong.json");
    std::fs::write(&wrong, "{\"schema\": \"hotnoc-bench-v2\"}\n").unwrap();
    let out = hotnoc()
        .args(["campaign", "merge"])
        .arg(&wrong)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown schema"), "{}", stderr(&out));
    let out = hotnoc()
        .args(["campaign", "check"])
        .arg(&wrong)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));

    // A whole-campaign artifact handed to merge.
    let spec = write_campaign_spec(&dir, "shard-bad", "1, 2, 3");
    let whole_dir = dir.join("whole");
    let out = run_spec(&spec, &whole_dir, &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    let whole = whole_dir.join("CAMPAIGN_shard-bad.json");
    let out = hotnoc()
        .args(["campaign", "merge"])
        .arg(&whole)
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("not a shard"), "{}", stderr(&out));

    // A shard artifact handed to diff.
    let shard_dir = dir.join("shards");
    let out = run_spec(&spec, &shard_dir, &["--shard", "0/2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let shard = shard_dir.join("CAMPAIGN_shard-bad.shard-0-of-2.json");
    let out = hotnoc()
        .args(["campaign", "diff"])
        .args([&shard, &whole])
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("merge the shard set first"),
        "{}",
        stderr(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_shard_flags_are_usage_errors() {
    let dir = tmp_dir("usage");
    let spec = write_campaign_spec(&dir, "shard-usage", "1, 2, 3");
    for bad in ["3/3", "0/0", "banana", "1/2/3"] {
        let out = run_spec(&spec, &dir.join("out"), &["--shard", bad]);
        assert_eq!(out.status.code(), Some(2), "--shard {bad}");
        assert!(stderr(&out).contains("shard"), "{}", stderr(&out));
    }
    // merge with no paths is a usage error too.
    let out = hotnoc()
        .args(["campaign", "merge"])
        .output()
        .expect("spawn hotnoc");
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
