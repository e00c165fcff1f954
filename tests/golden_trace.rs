//! Golden-determinism guard for the `hotnoc-trace-v1` event stream.
//!
//! Two layers of protection for the tracing tentpole:
//!
//! 1. **Byte fingerprints of serialized traces** for configurations A–E
//!    under the same canned three-fault hotspot scenario that
//!    `golden_faults` pins. The fingerprint folds the exact
//!    `hotnoc-trace-v1` JSONL bytes, so any change to event emission
//!    order, payloads, or the canonical serialization shows up here. The
//!    CI matrix runs this test at `HOTNOC_THREADS` in {1, 2, 4} with
//!    `set_par_threshold(1)`, which pins the striped parallel sweep.
//!
//! 2. **Kill/resume and thread-count byte-equality** for campaign
//!    `--trace-dir`: a campaign interrupted by `max_jobs` and resumed at
//!    a different thread count must leave byte-identical per-job traces.
//!
//! The healthy golden fingerprints (`golden_determinism`) must NOT move
//! when tracing is wired in: a network that is not recording takes the
//! exact same simulation path. That invariant is asserted here directly by
//! comparing a traced and an untraced run of the same scenario.
//!
//! If a fingerprint changes after an *intentional* change to event
//! emission or the trace schema, regenerate with
//! `cargo test --test golden_trace -- --nocapture` and update `GOLDEN`.

use hotnoc::core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc::noc::{Coord, FaultPlan, Mesh, Network, NocConfig, TrafficGenerator, TrafficPattern};
use hotnoc::obs::TraceEvent;
use hotnoc::scenario::runner::{run_campaign, RunnerOptions};
use hotnoc::scenario::spec::{FaultEventSpec, FaultKindSpec};
use hotnoc::scenario::{
    CampaignSpec, ChipKind, Mode, Policy, PolicyAxis, ScenarioSpec, TraceDoc, Workload,
};
use std::path::{Path, PathBuf};

/// FNV-1a over raw bytes — the serialized trace IS the contract.
fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The same deterministic hotspot scenario as `golden_faults`.
fn scenario(id: ChipConfigId) -> (Mesh, TrafficGenerator) {
    let spec = ChipSpec::of(id, Fidelity::Quick);
    let side = spec.mesh_side;
    let mesh = Mesh::square(side).expect("mesh");
    let hot = spec.hottest_tile();
    let hot_coord = Coord::new((hot % side) as u8, (hot / side) as u8);
    let band = spec.warm_band_row() as u8;
    let pattern = TrafficPattern::Hotspot {
        nodes: vec![
            hot_coord,
            Coord::new(0, band),
            Coord::new(side as u8 - 1, band),
        ],
        fraction: 0.5,
    };
    let gen = TrafficGenerator::new(mesh, pattern, 0.15, 4, 0x5EED + id as u64);
    (mesh, gen)
}

/// The canned fault plan from `golden_faults`, scaled to the mesh side.
fn fault_plan(side: usize) -> FaultPlan {
    let s = side as u8;
    FaultPlan::new()
        .fail_router(100, Coord::new(1, 1))
        .fail_link(200, Coord::new(s - 2, s - 2), Coord::new(s - 1, s - 2))
        .repair_router(400, Coord::new(1, 1))
}

/// Drives the degraded scenario, optionally recording a trace, and
/// returns the final delivered-flit count (a cheap simulation
/// fingerprint) plus the recorded trace events.
fn run(id: ChipConfigId, traced: bool) -> (u64, Vec<TraceEvent>) {
    let side = ChipSpec::of(id, Fidelity::Quick).mesh_side;
    let (mesh, mut gen) = scenario(id);
    let mut net = Network::new(mesh, NocConfig::default());
    net.set_par_threshold(1);
    net.install_fault_plan(fault_plan(side))
        .expect("canned plan is valid on every config");
    if traced {
        net.start_trace();
    }
    for _ in 0..600 {
        gen.tick(&mut net);
        net.step();
    }
    let mut budget = 50_000u64;
    while net.in_flight() > 0 && budget > 0 {
        net.step();
        budget -= 1;
    }
    assert_eq!(net.in_flight(), 0, "{id}: degraded network failed to drain");
    let events = net.take_trace().unwrap_or_default();
    (net.stats().flits_ejected, events)
}

/// Serializes config `id`'s degraded trace and fingerprints the bytes.
fn trace_fingerprint(id: ChipConfigId) -> u64 {
    let (_, events) = run(id, true);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::RouterFailed { .. })),
        "{id}: trace missed the canned router failure"
    );
    let doc = TraceDoc::new(&format!("golden-{id}"), events);
    let text = doc.to_jsonl();
    // The serialized trace must survive its own parser byte-for-byte.
    let reparsed = TraceDoc::parse(&text).expect("golden trace parses");
    assert_eq!(reparsed.to_jsonl(), text, "{id}: trace round-trip unstable");
    fingerprint(text.as_bytes())
}

/// Byte fingerprints of the `hotnoc-trace-v1` documents recorded from the
/// implementation that introduced event tracing, configs A–E under the
/// canned three-fault plan.
const GOLDEN: [(ChipConfigId, u64); 5] = [
    (ChipConfigId::A, 0x6f1b8d257826ed75),
    (ChipConfigId::B, 0xbafdb67df6b1493d),
    (ChipConfigId::C, 0x208853081a8bcde4),
    (ChipConfigId::D, 0x01376e200508fbfa),
    (ChipConfigId::E, 0x4528345b4e8210dd),
];

#[test]
fn degraded_traces_reproduce_recorded_bytes_on_configs_a_to_e() {
    let results: Vec<(ChipConfigId, u64)> = GOLDEN
        .iter()
        .map(|&(id, _)| (id, trace_fingerprint(id)))
        .collect();
    for (id, got) in &results {
        println!("config {id}: trace fingerprint {got:#018x}");
    }
    for ((id, expected), (_, got)) in GOLDEN.iter().zip(&results) {
        assert_eq!(
            got, expected,
            "config {id}: serialized trace diverged from the recorded bytes \
             (expected {expected:#018x}, got {got:#018x})"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    for id in [ChipConfigId::A, ChipConfigId::C, ChipConfigId::E] {
        let (plain, none) = run(id, false);
        let (traced, events) = run(id, true);
        assert!(none.is_empty());
        assert!(!events.is_empty(), "{id}: traced run recorded nothing");
        assert_eq!(
            plain, traced,
            "{id}: recording a trace changed the simulation"
        );
    }
}

/// A small traffic campaign over the router-failure axis, so the per-job
/// traces carry fault epochs alongside the congestion/drop events.
fn faulty_campaign(name: &str) -> CampaignSpec {
    CampaignSpec {
        name: name.to_string(),
        seed: 77,
        fidelity: Fidelity::Quick,
        mode: Mode::Cosim,
        sim_time_ms: None,
        configs: vec![ChipKind::Config(ChipConfigId::A)],
        workloads: vec![
            Workload::Traffic {
                pattern: TrafficPattern::UniformRandom,
                rate: 0.08,
                packet_len: 3,
                cycles: 400,
            },
            Workload::Traffic {
                pattern: TrafficPattern::Transpose,
                rate: 0.08,
                packet_len: 3,
                cycles: 400,
            },
        ],
        policies: vec![PolicyAxis::Baseline],
        schemes: vec![],
        periods: vec![],
        offered_loads: vec![],
        failed_routers: vec![1],
        failed_links: vec![],
        seeds: vec![1, 2],
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hotnoc-golden-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_traces(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.file_name().to_string_lossy().starts_with("TRACE_"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read_to_string(e.path()).expect("trace readable"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn campaign_trace_dir_is_byte_identical_across_kill_resume_and_threads() {
    let spec = faulty_campaign("golden-trace-camp");
    let total_jobs = spec.expand().len();
    let run_with =
        |tag: &str, threads: usize, kill_after: Option<usize>| -> Vec<(String, String)> {
            let dir = tmp_dir(tag);
            let opts = RunnerOptions {
                threads,
                out_dir: dir.clone(),
                max_jobs: kill_after,
                trace_dir: Some(dir.join("traces")),
                ..RunnerOptions::default()
            };
            let first = run_campaign(&spec, &opts).expect("campaign runs");
            if kill_after.is_some() {
                assert!(!first.is_complete(), "max_jobs should have interrupted");
                // Resume the killed campaign at a different thread count.
                let resumed = run_campaign(
                    &spec,
                    &RunnerOptions {
                        threads: 4,
                        max_jobs: None,
                        ..opts
                    },
                )
                .expect("campaign resumes");
                assert!(resumed.is_complete());
            }
            let traces = read_traces(&dir.join("traces"));
            let _ = std::fs::remove_dir_all(&dir);
            traces
        };
    let reference = run_with("ref-t1", 1, None);
    assert_eq!(reference.len(), total_jobs, "one trace per job");
    for (name, text) in &reference {
        let doc = TraceDoc::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            doc.events
                .iter()
                .any(|e| matches!(e, TraceEvent::RouterFailed { .. })),
            "{name}: campaign trace missed the canned fault"
        );
    }
    assert_eq!(
        reference,
        run_with("t2", 2, None),
        "--trace-dir bytes diverged between 1 and 2 threads"
    );
    assert_eq!(
        reference,
        run_with("t4", 4, None),
        "--trace-dir bytes diverged between 1 and 4 threads"
    );
    assert_eq!(
        reference,
        run_with("killed", 2, Some(1)),
        "--trace-dir bytes diverged across kill/resume"
    );
}

#[test]
fn scenario_trace_round_trips_through_the_file_format() {
    let side = ChipSpec::of(ChipConfigId::A, Fidelity::Quick).mesh_side as u8;
    let spec = ScenarioSpec {
        name: "golden-roundtrip".into(),
        chip: ChipKind::Config(ChipConfigId::A),
        workload: Workload::Traffic {
            pattern: TrafficPattern::UniformRandom,
            rate: 0.08,
            packet_len: 3,
            cycles: 500,
        },
        policy: Policy::Baseline,
        mode: Mode::Cosim,
        fidelity: Fidelity::Quick,
        sim_time_ms: None,
        faults: vec![FaultEventSpec {
            at: 100,
            kind: FaultKindSpec::FailRouter(Coord::new(side - 2, side - 2)),
        }],
        seed: 3,
    };
    let (_, events) = hotnoc::scenario::run_scenario_traced(&spec).expect("traced run");
    assert!(matches!(events.first(), Some(TraceEvent::JobStart { .. })));
    assert!(matches!(events.last(), Some(TraceEvent::JobFinish { .. })));
    let text = TraceDoc::new(&spec.name, events).to_jsonl();
    let doc = TraceDoc::parse(&text).expect("parses");
    assert_eq!(doc.to_jsonl(), text, "file format round-trip unstable");
}
