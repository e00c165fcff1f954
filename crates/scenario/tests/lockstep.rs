//! Lockstep co-simulation groups leave every byte as it was: a campaign
//! whose co-simulation jobs run in lockstep groups of one chip writes the
//! same artifact, aggregate and trace bytes as running each job alone and
//! assembling the results by index — at 1 and 2 threads, across a
//! `--max-jobs` cut and its resume, and per shard.
//!
//! The campaign holds, per chip (A and E), a baseline, six periodic jobs
//! and three adaptive ones: groups of four periodic jobs, of two periodic
//! and two adaptive jobs, and a remainder of one, with the baselines run
//! alone in between.

use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_obs::TraceEvent;
use hotnoc_reconfig::MigrationScheme;
use hotnoc_scenario::run::run_jobs;
use hotnoc_scenario::runner::{
    campaign_json, parse_campaign_document, run_campaign, RunnerOptions,
};
use hotnoc_scenario::stats::{aggregate, aggregate_json};
use hotnoc_scenario::{
    merge_shards, CampaignSpec, ChipKind, JobRecord, Mode, PolicyAxis, Shard, TraceDoc, Workload,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn campaign() -> CampaignSpec {
    let spec = CampaignSpec {
        name: "lockstep".to_string(),
        seed: 11,
        fidelity: Fidelity::Quick,
        mode: Mode::Cosim,
        sim_time_ms: Some(3.0),
        configs: vec![
            ChipKind::Config(ChipConfigId::A),
            ChipKind::Config(ChipConfigId::E),
        ],
        workloads: vec![Workload::Ldpc],
        policies: vec![
            PolicyAxis::Baseline,
            PolicyAxis::Periodic,
            PolicyAxis::Adaptive,
        ],
        schemes: vec![MigrationScheme::XYShift, MigrationScheme::Rotation],
        periods: vec![4, 8, 16],
        offered_loads: vec![],
        failed_routers: vec![],
        failed_links: vec![],
        seeds: vec![0],
    };
    assert_eq!(spec.expand().len(), 20, "10 jobs per chip");
    spec
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hotnoc-lockstep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every job run alone, as a unit of one: the artifact, the aggregate and
/// each job's trace events, keyed by job index.
struct Alone {
    artifact: String,
    aggregate: String,
    traces: BTreeMap<usize, Vec<TraceEvent>>,
}

fn alone(spec: &CampaignSpec) -> Alone {
    let mut records = Vec::new();
    let mut traces = BTreeMap::new();
    for (index, job) in spec.expand().into_iter().enumerate() {
        let unit = run_jobs(&[(&job, Some(index as u64))]).pop();
        let (outcome, events) = unit.expect("one result").expect("job runs");
        traces.insert(index, events);
        records.push(JobRecord {
            index,
            spec: job,
            outcome,
        });
    }
    Alone {
        artifact: campaign_json(spec, &records),
        aggregate: aggregate_json(spec, &aggregate(&records)),
        traces,
    }
}

/// Every trace in `dir`, keyed by job index, with shard bookkeeping
/// dropped (a shard's trace adds one `ShardProgress` event).
fn read_traces(dir: &Path, campaign: &str) -> BTreeMap<usize, Vec<TraceEvent>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("trace dir") {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        let prefix = format!("TRACE_{campaign}.job");
        let Some(index) = name
            .strip_prefix(&prefix)
            .and_then(|s| s.strip_suffix(".jsonl"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let mut doc = TraceDoc::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        doc.events
            .retain(|e| !matches!(e, TraceEvent::ShardProgress { .. }));
        out.insert(index.parse().unwrap(), doc.events);
    }
    out
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn lockstep_groups_write_the_bytes_of_jobs_run_alone() {
    let spec = campaign();
    let want = alone(&spec);
    assert!(want.artifact.contains("\"adaptive\""));

    let whole = |tag: &str, threads: usize, cut: Option<usize>| {
        let dir = tmp_dir(tag);
        let opts = RunnerOptions {
            threads,
            out_dir: dir.clone(),
            trace_dir: Some(dir.join("traces")),
            max_jobs: cut,
            ..RunnerOptions::default()
        };
        let run = run_campaign(&spec, &opts).expect("runs");
        if let Some(cut) = cut {
            assert_eq!(run.executed_jobs, cut);
            assert!(run.json_path.is_none(), "a cut run is partial");
            let resumed = run_campaign(
                &spec,
                &RunnerOptions {
                    max_jobs: None,
                    ..opts
                },
            )
            .expect("resumes");
            assert_eq!(resumed.resumed_jobs, cut);
        }
        let stem = dir.join("CAMPAIGN_lockstep");
        assert_eq!(
            read(&stem.with_extension("json")),
            want.artifact,
            "{tag}: artifact"
        );
        assert_eq!(
            read(&stem.with_extension("aggregate.json")),
            want.aggregate,
            "{tag}: aggregate"
        );
        assert_eq!(
            read_traces(&dir.join("traces"), "lockstep"),
            want.traces,
            "{tag}: traces"
        );
        let _ = std::fs::remove_dir_all(&dir);
    };
    whole("t1", 1, None);
    whole("t2", 2, None);
    // A cut of 5 splits chip A's first group of four from the rest.
    whole("cut", 2, Some(5));

    // Each shard groups only its own stripe; the merged shards are the
    // whole campaign.
    let dir = tmp_dir("shards");
    let mut docs = Vec::new();
    for index in 0..2 {
        let shard = Shard::new(index, 2).unwrap();
        let run = run_campaign(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: dir.clone(),
                trace_dir: Some(dir.join("traces")),
                shard: Some(shard),
                ..RunnerOptions::default()
            },
        )
        .expect("shard runs");
        let text = read(run.json_path.as_ref().expect("complete shard"));
        docs.push(parse_campaign_document(&text).expect("shard validates"));
    }
    let merged = merge_shards(docs).expect("shards merge");
    assert_eq!(
        campaign_json(&spec, &merged.records),
        want.artifact,
        "merged shards"
    );
    assert_eq!(
        read_traces(&dir.join("traces"), "lockstep"),
        want.traces,
        "shard traces"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
