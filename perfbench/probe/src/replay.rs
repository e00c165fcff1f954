//! Replays a campaign through the crates' public functions, one job at a
//! time, with a span around every call into a layer.
//!
//! The pipeline is the one `hotnoc campaign run` executes: per distinct
//! chip `Chip::build` and `Chip::calibrate` (the runner memoizes calibrated
//! chips per process), then `run_cosim` per LDPC job, or
//! `TrafficGenerator::run` per traffic job, then `campaign_json` for the
//! artifact. A call that contains another layer is followed by replays of
//! its inner public functions on identical inputs, recorded as child spans,
//! so the parent's self time is its span minus the children. The artifact
//! the replay encodes must equal the CLI's byte for byte.

use crate::spans::Spans;
use hotnoc_core::configs::ChipSpec;
use hotnoc_core::cosim::run_cosim;
use hotnoc_core::{CalibratedPower, Chip};
use hotnoc_ldpc::app::{ComputeModel, LdpcNocApp};
use hotnoc_ldpc::schedule::MessageParams;
use hotnoc_ldpc::{ClusterMapping, LdpcCode};
use hotnoc_noc::{Mesh, Network, NocConfig, TrafficGenerator};
use hotnoc_power::leakage::leakage_per_block;
use hotnoc_reconfig::phases::PhaseCostModel;
use hotnoc_reconfig::{MigrationPlan, StateSpec};
use hotnoc_scenario::json::Json;
use hotnoc_scenario::outcome::{CosimMetrics, TrafficMetrics};
use hotnoc_scenario::run::params_of;
use hotnoc_scenario::runner::campaign_json;
use hotnoc_scenario::spec::fidelity_name;
use hotnoc_scenario::{
    CampaignSpec, JobRecord, Mode, Policy, ScenarioOutcome, ScenarioSpec, Workload,
};
use hotnoc_thermal::{Floorplan, Integrator, PackageConfig, RcNetwork, TransientSim};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Same drain budget as the scenario runner's traffic path.
const DRAIN_BUDGET_PER_CYCLE: u64 = 50;
const DRAIN_BUDGET_FLOOR: u64 = 50_000;

/// Steady-state solves timed per calibrated chip for the per-call figure.
const STEADY_CALLS: u64 = 8;

/// Counters gathered alongside the spans (all exact, from the simulation).
#[derive(Default)]
struct Counts {
    noc_cycles: u64,
    noc_flit_hops: u64,
    noc_offered: u64,
    noc_delivered: u64,
    noc_drain_cycles: u64,
    noc_pre_sweep_ns: u64,
    noc_alloc_sweep_ns: u64,
    ldpc_block_cycles: u64,
    thermal_steps: u64,
    thermal_steady_calls: u64,
    power_leakage_calls: u64,
    reconfig_plans: u64,
    reconfig_phases: u64,
    reconfig_migrations: u64,
    artifact_bytes: u64,
}

impl Counts {
    fn to_json(&self) -> Json {
        let n = Json::int;
        Json::object(vec![
            ("noc.cycles", n(self.noc_cycles)),
            ("noc.flit_hops", n(self.noc_flit_hops)),
            ("noc.offered", n(self.noc_offered)),
            ("noc.delivered", n(self.noc_delivered)),
            ("noc.drain_cycles", n(self.noc_drain_cycles)),
            ("noc.pre_sweep_ns", n(self.noc_pre_sweep_ns)),
            ("noc.alloc_sweep_ns", n(self.noc_alloc_sweep_ns)),
            ("ldpc.block_cycles", n(self.ldpc_block_cycles)),
            ("thermal.steps", n(self.thermal_steps)),
            ("thermal.steady_calls", n(self.thermal_steady_calls)),
            ("power.leakage_calls", n(self.power_leakage_calls)),
            ("reconfig.plans", n(self.reconfig_plans)),
            ("reconfig.phases", n(self.reconfig_phases)),
            ("reconfig.migrations", n(self.reconfig_migrations)),
            ("scenario.artifact_bytes", n(self.artifact_bytes)),
        ])
    }

    /// Runs `f` with the `hotnoc_obs::prof` profiler on and adds the NoC
    /// sweep phases it recorded.
    fn profiled_noc<T>(&mut self, f: impl FnOnce() -> T) -> T {
        hotnoc_obs::prof::take_report();
        hotnoc_obs::prof::set_enabled(true);
        let out = f();
        hotnoc_obs::prof::set_enabled(false);
        for phase in hotnoc_obs::prof::take_report().phases {
            match phase.name.as_str() {
                "noc/step/pre_sweep" => self.noc_pre_sweep_ns += phase.total_ns,
                "noc/step/alloc_sweep" => self.noc_alloc_sweep_ns += phase.total_ns,
                _ => {}
            }
        }
        out
    }
}

/// The replay's result: spans, counts and the artifact it encoded.
pub struct Replay {
    spans: Spans,
    pub artifact: String,
    counts: Counts,
}

impl Replay {
    pub fn report(&self) -> Json {
        Json::object(vec![
            ("wall_ns", Json::int(self.spans.elapsed_ns())),
            ("spans", self.spans.to_json()),
            ("counts", self.counts.to_json()),
        ])
    }
}

/// Replays every job of `campaign` in index order.
pub fn replay_campaign(campaign: &CampaignSpec) -> Result<Replay, String> {
    let mut spans = Spans::new();
    let mut counts = Counts::default();
    let jobs = campaign.expand();
    let mut chips: BTreeMap<String, (Chip, CalibratedPower)> = BTreeMap::new();
    let mut records = Vec::with_capacity(jobs.len());
    for (index, job) in jobs.iter().enumerate() {
        let op = index as u64;
        let span = spans.open("scenario.job", None, op);
        let outcome = match &job.workload {
            Workload::Ldpc => {
                // The runner's calibrated-chip cache key: fidelity and chip.
                let chip_key = format!("{}|{:?}", fidelity_name(job.fidelity), job.chip);
                if !chips.contains_key(&chip_key) {
                    let built = build_and_calibrate(job, &mut spans, &mut counts, span, op)?;
                    chips.insert(chip_key.clone(), built);
                }
                let (chip, cal) = &chips[&chip_key];
                cosim_job(job, chip, cal, &mut spans, &mut counts, span, op)?
            }
            Workload::Traffic { .. } => traffic_job(job, &mut spans, &mut counts, span, op)?,
        };
        spans.close(span);
        records.push(JobRecord {
            index,
            spec: job.clone(),
            outcome,
        });
    }
    let artifact = spans.time("scenario.json_encode", None, 0, || {
        campaign_json(campaign, &records)
    });
    let parsed = spans.time("scenario.json_parse", None, 0, || Json::parse(&artifact));
    parsed.map_err(|e| format!("replayed artifact does not parse: {e}"))?;
    counts.artifact_bytes = artifact.len() as u64;
    Ok(Replay {
        spans,
        artifact,
        counts,
    })
}

fn build_and_calibrate(
    job: &ScenarioSpec,
    spans: &mut Spans,
    counts: &mut Counts,
    parent: usize,
    op: u64,
) -> Result<(Chip, CalibratedPower), String> {
    let chip_spec: ChipSpec = job.chip.to_chip_spec(job.fidelity);
    let build = spans.open("core.chip_build", Some(parent), op);
    let mut chip = Chip::build(chip_spec.clone()).map_err(|e| e.to_string())?;
    spans.close(build);
    // Replays of the build's inner calls on identical inputs.
    let code = spans
        .time("ldpc.code_build", Some(build), op, || {
            LdpcCode::gallager(chip_spec.code_n, chip_spec.wc, chip_spec.wr, chip_spec.seed)
        })
        .map_err(|e| e.to_string())?;
    let mapping = spans
        .time("ldpc.mapping", Some(build), op, || {
            ClusterMapping::weighted(&code, &chip_spec.tile_weights)
        })
        .map_err(|e| e.to_string())?;
    spans
        .time("thermal.rc_build", Some(build), op, || {
            let plan = Floorplan::mesh_grid(
                chip_spec.mesh_side,
                chip_spec.mesh_side,
                hotnoc_core::chip::TILE_AREA_M2,
            )?;
            RcNetwork::build(&plan, &PackageConfig::date05_defaults())
        })
        .map(black_box)
        .map_err(|e| e.to_string())?;

    let calibrate = spans.open("core.calibrate", Some(parent), op);
    let cal = chip.calibrate().map_err(|e| e.to_string())?;
    spans.close(calibrate);
    // The calibration's NoC block, replayed on a fresh network.
    let mut app = LdpcNocApp::new(
        code,
        mapping,
        LdpcNocApp::identity_placement(chip_spec.n_tiles()),
        MessageParams::default(),
        ComputeModel::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut net = Network::new(chip.mesh(), *chip.noc_config());
    let run = counts.profiled_noc(|| {
        spans.time("ldpc.block_run", Some(calibrate), op, || {
            app.run_block(&mut net, chip_spec.iterations)
        })
    });
    let run = run.map_err(|e| e.to_string())?;
    if run.cycles != cal.block_cycles {
        return Err(format!(
            "replayed block took {} cycles, calibration measured {}",
            run.cycles, cal.block_cycles
        ));
    }
    counts.ldpc_block_cycles += run.cycles;
    counts.noc_cycles += net.cycle();
    counts.noc_flit_hops += net.stats().flit_hops;

    // Per-call steady-state cost on the calibrated power map (a probe
    // outside the pipeline, recorded as its own top-level span).
    spans.time("thermal.steady", None, op, || {
        for _ in 0..STEADY_CALLS {
            black_box(chip.thermal().steady_state(black_box(&cal.dynamic)).ok());
        }
    });
    counts.thermal_steady_calls += STEADY_CALLS;
    Ok((chip, cal))
}

fn cosim_job(
    job: &ScenarioSpec,
    chip: &Chip,
    cal: &CalibratedPower,
    spans: &mut Spans,
    counts: &mut Counts,
    parent: usize,
    op: u64,
) -> Result<ScenarioOutcome, String> {
    let Policy::Periodic { scheme, .. } = job.policy else {
        return Err(format!(
            "{}: the replay covers periodic policies only",
            job.name
        ));
    };
    if job.mode != Mode::Cosim {
        return Err(format!("{}: the replay covers cosim mode only", job.name));
    }
    let params = params_of(job);
    let cosim = spans.open("core.cosim", Some(parent), op);
    let result = run_cosim(chip, cal, Some(scheme), &params).map_err(|e| e.to_string())?;
    spans.close(cosim);

    // Inner calls of the co-sim loop, replayed with the same shapes: the
    // migration plan, one transient step per frame, one leakage evaluation
    // per frame.
    let plan = spans.time("reconfig.plan", Some(cosim), op, || {
        MigrationPlan::plan(
            chip.mesh(),
            scheme,
            &StateSpec::default(),
            &PhaseCostModel::default(),
        )
    });
    counts.reconfig_plans += 1;
    counts.reconfig_phases += plan.num_phases() as u64;
    counts.reconfig_migrations += result.migrations;

    let frames = (params.sim_time / params.dt).round() as u64;
    let areas = chip.tile_areas_mm2();
    let temps = chip
        .steady_with_leakage(&cal.dynamic)
        .map_err(|e| e.to_string())?;
    let leak = leakage_per_block(&areas, &temps, chip.tech());
    let power: Vec<f64> = cal.dynamic.iter().zip(&leak).map(|(d, l)| d + l).collect();
    spans
        .time("thermal.step", Some(cosim), op, || {
            let mut sim = TransientSim::new(chip.thermal(), params.dt, Integrator::BackwardEuler)?;
            sim.init_from_steady(&power)?;
            for _ in 0..frames {
                sim.step(black_box(&power))?;
            }
            black_box(sim.block_temps());
            Ok::<(), hotnoc_thermal::ThermalError>(())
        })
        .map_err(|e| e.to_string())?;
    spans.time("power.leakage", Some(cosim), op, || {
        for _ in 0..frames {
            black_box(leakage_per_block(&areas, black_box(&temps), chip.tech()));
        }
    });
    counts.thermal_steps += frames;
    counts.power_leakage_calls += frames;
    Ok(ScenarioOutcome::Cosim(CosimMetrics::of(&result)))
}

fn traffic_job(
    job: &ScenarioSpec,
    spans: &mut Spans,
    counts: &mut Counts,
    parent: usize,
    op: u64,
) -> Result<ScenarioOutcome, String> {
    let Workload::Traffic {
        pattern,
        rate,
        packet_len,
        cycles,
    } = &job.workload
    else {
        unreachable!("traffic_job is called for traffic workloads");
    };
    if !job.faults.is_empty() {
        return Err(format!(
            "{}: the replay covers healthy fabrics only",
            job.name
        ));
    }
    let mesh = Mesh::square(job.chip.mesh_side()).map_err(|e| e.to_string())?;
    let mut net = Network::new(mesh, NocConfig::default());
    let mut gen = TrafficGenerator::new(mesh, pattern.clone(), *rate, *packet_len, job.seed);
    let budget = cycles.saturating_mul(DRAIN_BUDGET_PER_CYCLE) + DRAIN_BUDGET_FLOOR;
    let (offered, drained) = counts.profiled_noc(|| {
        spans.time("noc.traffic_run", Some(parent), op, || {
            gen.run(&mut net, *cycles, budget)
        })
    });
    let stats = net.stats();
    counts.noc_cycles += net.cycle();
    counts.noc_flit_hops += stats.flit_hops;
    counts.noc_offered += offered;
    counts.noc_delivered += stats.packets_delivered;
    counts.noc_drain_cycles += net.cycle().saturating_sub(*cycles);
    Ok(ScenarioOutcome::Traffic(TrafficMetrics {
        offered,
        delivered: stats.packets_delivered,
        drained,
        mean_latency_cycles: stats.mean_latency().unwrap_or(0.0),
        p50_latency_cycles: stats.latency_quantile_upper(0.5).unwrap_or(0),
        p95_latency_cycles: stats.latency_quantile_upper(0.95).unwrap_or(0),
        max_latency_cycles: stats.max_packet_latency,
        flit_hops: stats.flit_hops,
        packets_dropped: stats.packets_dropped,
        flits_dropped: stats.flits_dropped,
        detour_hops: stats.detour_hops,
    }))
}
