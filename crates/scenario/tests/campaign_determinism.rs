//! Campaign-level determinism guarantees:
//!
//! 1. The same `CampaignSpec` + seed produces a **byte-identical**
//!    `CAMPAIGN_<name>.json` at thread counts 1 and 4 (workers race for
//!    jobs, but results assemble by index).
//! 2. A resume from a **truncated manifest** — simulating a campaign
//!    killed mid-write — completes to the same bytes as an uninterrupted
//!    run, without re-running the journaled jobs.
//!
//! The campaign is a 48-job traffic sweep (2 chips x 3 patterns x 8
//! seeds), cheap enough for debug-profile CI while still exercising the
//! parallel pull-queue with many more jobs than workers.

use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_noc::TrafficPattern;
use hotnoc_scenario::runner::{parse_campaign_document, run_campaign, RunnerOptions};
use hotnoc_scenario::{CampaignSpec, ChipKind, Mode, PolicyAxis, Workload};
use std::path::PathBuf;

fn forty_eight_jobs(name: &str) -> CampaignSpec {
    let traffic = |pattern: TrafficPattern, rate: f64| Workload::Traffic {
        pattern,
        rate,
        packet_len: 3,
        cycles: 250,
    };
    let spec = CampaignSpec {
        name: name.to_string(),
        seed: 2005,
        fidelity: Fidelity::Quick,
        mode: Mode::Cosim,
        sim_time_ms: None,
        configs: vec![
            ChipKind::Config(ChipConfigId::A),
            ChipKind::Config(ChipConfigId::C),
        ],
        workloads: vec![
            traffic(TrafficPattern::UniformRandom, 0.08),
            traffic(TrafficPattern::Transpose, 0.06),
            traffic(
                TrafficPattern::Hotspot {
                    nodes: vec![hotnoc_noc::Coord::new(1, 1)],
                    fraction: 0.4,
                },
                0.05,
            ),
        ],
        policies: vec![PolicyAxis::Baseline],
        schemes: vec![],
        periods: vec![],
        offered_loads: vec![],
        failed_routers: vec![],
        failed_links: vec![],
        seeds: (0..8).collect(),
    };
    assert_eq!(spec.expand().len(), 48, "test campaign must have 48 jobs");
    spec
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(dir: &std::path::Path, threads: usize) -> RunnerOptions {
    RunnerOptions {
        threads,
        out_dir: dir.to_path_buf(),
        max_jobs: None,
        fresh: false,
        progress: false,
        trace_dir: None,
        shard: None,
    }
}

#[test]
fn campaign_json_is_byte_identical_across_thread_counts() {
    let spec = forty_eight_jobs("det48");
    let mut artifacts = Vec::new();
    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("t{threads}"));
        let run = run_campaign(&spec, &opts(&dir, threads)).expect("campaign runs");
        assert!(run.is_complete());
        assert_eq!(run.total_jobs, 48);
        let bytes = std::fs::read(run.json_path.as_ref().expect("artifact")).expect("readable");
        parse_campaign_document(std::str::from_utf8(&bytes).expect("utf8")).expect("validates");
        artifacts.push(bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        artifacts[0], artifacts[1],
        "CAMPAIGN_det48.json differs between 1 and 4 threads"
    );
}

#[test]
fn resume_from_truncated_manifest_matches_uninterrupted_run() {
    let spec = forty_eight_jobs("det48r");

    // Reference: uninterrupted single invocation.
    let ref_dir = tmp_dir("ref");
    let full = run_campaign(&spec, &opts(&ref_dir, 4)).expect("reference run");
    let reference = std::fs::read(full.json_path.as_ref().unwrap()).unwrap();

    // Interrupted: run everything, then truncate the journal mid-line as a
    // kill at an arbitrary byte boundary would.
    let dir = tmp_dir("truncated");
    let first = run_campaign(&spec, &opts(&dir, 4)).expect("first run");
    let manifest = first.manifest_path.clone();
    let text = std::fs::read_to_string(&manifest).unwrap();
    let keep_lines = 30; // header + 29 completed jobs
    let kept: String = text
        .lines()
        .take(keep_lines)
        .map(|l| format!("{l}\n"))
        .collect();
    // Cut into the middle of the next journal line: the resume must ignore
    // the torn record and recompute that job.
    let torn = text.lines().nth(keep_lines).expect("more lines exist");
    let partial = format!("{kept}{}", &torn[..torn.len() / 2]);
    std::fs::write(&manifest, partial).unwrap();
    // Also remove the stale artifact so completeness is re-proven.
    let _ = std::fs::remove_file(dir.join("CAMPAIGN_det48r.json"));

    let resumed = run_campaign(&spec, &opts(&dir, 2)).expect("resume");
    assert!(resumed.is_complete());
    assert_eq!(
        resumed.resumed_jobs, 29,
        "exactly the intact journal lines should be recovered"
    );
    assert_eq!(resumed.executed_jobs, 48 - 29);
    let resumed_bytes = std::fs::read(resumed.json_path.as_ref().unwrap()).unwrap();
    assert_eq!(
        resumed_bytes, reference,
        "resume from a truncated manifest diverged from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn latency_load_builtin_is_byte_identical_across_threads_and_resume() {
    // The saturation-curve campaign sweeps the offered-load axis; its
    // CAMPAIGN json *and* its seed-axis aggregate artifact
    // (hotnoc-campaign-aggregate-v1) must come out byte-identical at
    // HOTNOC_THREADS in {1, 4} and across a kill/resume boundary.
    let spec =
        hotnoc_scenario::builtin::builtin("latency-load", Fidelity::Quick).expect("known builtin");

    let mut artifacts: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("latload-t{threads}"));
        let run = run_campaign(&spec, &opts(&dir, threads)).expect("campaign runs");
        assert!(run.is_complete());
        let campaign = std::fs::read(run.json_path.as_ref().expect("artifact")).unwrap();
        parse_campaign_document(std::str::from_utf8(&campaign).expect("utf8")).expect("validates");
        let aggregate =
            std::fs::read(run.aggregate_path.as_ref().expect("aggregate artifact")).unwrap();
        assert!(std::str::from_utf8(&aggregate)
            .expect("utf8")
            .contains("hotnoc-campaign-aggregate-v1"));
        artifacts.push((campaign, aggregate));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        artifacts[0].0, artifacts[1].0,
        "CAMPAIGN_latency-load.json differs between 1 and 4 threads"
    );
    assert_eq!(
        artifacts[0].1, artifacts[1].1,
        "aggregate artifact differs between 1 and 4 threads"
    );

    // Kill after 5 jobs at t4, resume at t1: same bytes as uninterrupted.
    let dir = tmp_dir("latload-resume");
    let partial = run_campaign(
        &spec,
        &RunnerOptions {
            max_jobs: Some(5),
            ..opts(&dir, 4)
        },
    )
    .expect("partial run");
    assert!(!partial.is_complete());
    assert!(
        partial.aggregate_path.is_none(),
        "no aggregate while partial"
    );
    let resumed = run_campaign(&spec, &opts(&dir, 1)).expect("resume");
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed_jobs, 5);
    assert_eq!(
        std::fs::read(resumed.json_path.as_ref().unwrap()).unwrap(),
        artifacts[0].0,
        "resumed latency-load artifact diverged"
    );
    assert_eq!(
        std::fs::read(resumed.aggregate_path.as_ref().unwrap()).unwrap(),
        artifacts[0].1,
        "resumed latency-load aggregate diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_mesh_builtin_is_byte_identical_across_threads_and_resume() {
    // The fault-axis campaign runs the same traffic with 0/1/2 routers
    // failed at cycle 0; surround routing and drop accounting must stay as
    // deterministic as the healthy path, so the CAMPAIGN json and the
    // aggregate artifact come out byte-identical at 1 and 4 threads and
    // across a kill/resume boundary.
    let spec =
        hotnoc_scenario::builtin::builtin("degraded-mesh", Fidelity::Quick).expect("known builtin");

    let mut artifacts: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("degraded-t{threads}"));
        let run = run_campaign(&spec, &opts(&dir, threads)).expect("campaign runs");
        assert!(run.is_complete());
        assert_eq!(run.total_jobs, 12);
        let campaign = std::fs::read(run.json_path.as_ref().expect("artifact")).unwrap();
        parse_campaign_document(std::str::from_utf8(&campaign).expect("utf8")).expect("validates");
        let aggregate =
            std::fs::read(run.aggregate_path.as_ref().expect("aggregate artifact")).unwrap();
        artifacts.push((campaign, aggregate));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        artifacts[0].0, artifacts[1].0,
        "CAMPAIGN_degraded-mesh.json differs between 1 and 4 threads"
    );
    assert_eq!(
        artifacts[0].1, artifacts[1].1,
        "degraded-mesh aggregate differs between 1 and 4 threads"
    );
    // Degraded jobs really did drop or detour traffic (the axis is live).
    let text = std::str::from_utf8(&artifacts[0].0).unwrap();
    assert!(text.contains("/fr2/"), "fault tag missing from job names");
    assert!(
        text.contains("packets_dropped") || text.contains("detour_hops"),
        "no fault counters in any degraded outcome"
    );

    // Kill after 4 jobs at t4, resume at t1: same bytes as uninterrupted.
    let dir = tmp_dir("degraded-resume");
    let partial = run_campaign(
        &spec,
        &RunnerOptions {
            max_jobs: Some(4),
            ..opts(&dir, 4)
        },
    )
    .expect("partial run");
    assert!(!partial.is_complete());
    let resumed = run_campaign(&spec, &opts(&dir, 1)).expect("resume");
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed_jobs, 4);
    assert_eq!(
        std::fs::read(resumed.json_path.as_ref().unwrap()).unwrap(),
        artifacts[0].0,
        "resumed degraded-mesh artifact diverged"
    );
    assert_eq!(
        std::fs::read(resumed.aggregate_path.as_ref().unwrap()).unwrap(),
        artifacts[0].1,
        "resumed degraded-mesh aggregate diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_jobs_interrupt_then_resume_is_lossless() {
    let spec = forty_eight_jobs("det48m");
    let dir = tmp_dir("maxjobs");
    // Three partial invocations at different thread counts, then completion.
    for (threads, cap) in [(1usize, 10usize), (4, 10), (2, 10)] {
        let run = run_campaign(
            &spec,
            &RunnerOptions {
                max_jobs: Some(cap),
                ..opts(&dir, threads)
            },
        )
        .expect("partial run");
        assert!(!run.is_complete());
    }
    let finished = run_campaign(&spec, &opts(&dir, 4)).expect("final run");
    assert!(finished.is_complete());
    assert_eq!(finished.resumed_jobs, 30);
    assert_eq!(finished.executed_jobs, 18);

    let ref_dir = tmp_dir("maxjobs-ref");
    let reference = run_campaign(&spec, &opts(&ref_dir, 1)).expect("reference");
    assert_eq!(
        std::fs::read(finished.json_path.as_ref().unwrap()).unwrap(),
        std::fs::read(reference.json_path.as_ref().unwrap()).unwrap(),
        "chunked execution diverged from a single-shot run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}
