//! Executes [`ScenarioSpec`] jobs and produces their [`ScenarioOutcome`]s.
//! [`run_jobs`] is the only executor: a lone scenario, a serve submission
//! and a campaign's work unit all run through it, a lone job as a unit of
//! one.
//!
//! Every execution path is deterministic: LDPC co-simulations contain no
//! randomness beyond the code-construction seed baked into the chip spec,
//! and traffic scenarios seed their generator from the spec. Combined with
//! the NoC's thread-count-invariant parallel sweep, the same spec produces
//! bit-identical metrics on any machine at any `HOTNOC_THREADS`.

use crate::error::ScenarioError;
use crate::outcome::{CosimMetrics, PlanCostMetrics, ScenarioOutcome, TrafficMetrics};
use crate::spec::{fidelity_name, ChipKind, Mode, Policy, ScenarioSpec, Workload};
use hotnoc_core::configs::Fidelity;
use hotnoc_core::cosim::{
    migration_cost, run_cosim, run_cosim_group, CosimJob, CosimOutcome, LanePolicy,
};
use hotnoc_core::{CalibratedPower, Chip, CosimParams};
use hotnoc_noc::{Mesh, Network, NocConfig, TrafficGenerator};
use hotnoc_obs::TraceEvent;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Cycles the post-run drain of a traffic scenario may take, per injection
/// cycle (plus a fixed floor). Generous: drain failure is a reportable
/// outcome (`drained: false`), not an error.
const DRAIN_BUDGET_PER_CYCLE: u64 = 50;
const DRAIN_BUDGET_FLOOR: u64 = 50_000;

/// The co-simulation parameters implied by a spec: fidelity default, then
/// the policy's period and the optional horizon override.
pub fn params_of(spec: &ScenarioSpec) -> CosimParams {
    let mut p = match spec.fidelity {
        Fidelity::Full => CosimParams::default(),
        Fidelity::Quick => CosimParams::quick(),
    };
    match spec.policy {
        Policy::Periodic { period_blocks, .. } | Policy::Adaptive { period_blocks } => {
            p.period_blocks = period_blocks;
        }
        Policy::Baseline => {}
    }
    if let Some(ms) = spec.sim_time_ms {
        p.sim_time = ms * 1e-3;
        p.warmup = p.sim_time / 2.0;
    }
    p
}

/// Runs one scenario to completion: [`run_jobs`] with a unit of one job.
///
/// # Errors
///
/// Propagates spec validation failures and substrate (chip construction,
/// calibration, thermal, NoC) errors.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioOutcome, ScenarioError> {
    let result = run_jobs(&[(spec, None)]).pop().expect("one result per job");
    result.map(|(outcome, _)| outcome)
}

/// Runs one scenario and also returns its deterministic event trace,
/// bracketed by [`TraceEvent::JobStart`] / [`TraceEvent::JobFinish`] as
/// job 0. The simulation is identical to [`run_scenario`] — tracing is
/// observation only.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_traced(
    spec: &ScenarioSpec,
) -> Result<(ScenarioOutcome, Vec<TraceEvent>), ScenarioError> {
    run_jobs(&[(spec, Some(0))])
        .pop()
        .expect("one result per job")
}

/// The lockstep group a job may share with others
/// ([`hotnoc_core::cosim::run_cosim_group`]): its chip (canonical JSON),
/// fidelity, thermal step and frame count. `None` for a job that always
/// runs alone: a baseline, plan-cost or traffic job.
pub(crate) fn lane_key(spec: &ScenarioSpec) -> Option<String> {
    lane_policy(spec)?;
    let params = params_of(spec);
    Some(format!(
        "{}|{}|{:x}|{}",
        fidelity_name(spec.fidelity),
        spec.chip.to_json(),
        params.dt.to_bits(),
        params.frames()
    ))
}

/// How a transient LDPC co-simulation job migrates; `None` for every other
/// job. This is the one place that decides whether a job joins a lockstep
/// group or runs alone.
fn lane_policy(spec: &ScenarioSpec) -> Option<LanePolicy> {
    match (&spec.workload, &spec.policy, spec.mode) {
        (Workload::Ldpc, Policy::Periodic { scheme, .. }, Mode::Cosim) => {
            Some(LanePolicy::Periodic(*scheme))
        }
        (Workload::Ldpc, Policy::Adaptive { .. }, _) => Some(LanePolicy::Adaptive),
        _ => None,
    }
}

/// The one executor: runs a unit of jobs and returns each job's outcome and
/// trace (empty when untraced), in order. Each entry is a spec and, for a
/// traced job, its campaign job index, which lands in the
/// [`TraceEvent::JobStart`] / [`TraceEvent::JobFinish`] brackets;
/// `JobFinish` is keyed by the highest cycle any event reached.
///
/// Each job validates and looks its chip up on its own. Plan-cost, baseline
/// and traffic jobs run directly; every transient co-simulation job steps
/// through one [`run_cosim_group`] call on their shared chip. A job's bytes
/// are those it has as a unit of one: a job that fails ends with its own
/// error.
///
/// # Panics
///
/// If the unit's co-simulation jobs differ in chip, fidelity, thermal step
/// or frame count.
pub fn run_jobs(
    jobs: &[(&ScenarioSpec, Option<u64>)],
) -> Vec<Result<(ScenarioOutcome, Vec<TraceEvent>), ScenarioError>> {
    let mut traces: Vec<Vec<TraceEvent>> = jobs
        .iter()
        .map(|&(spec, job)| job.map(|j| vec![job_start(spec, j)]).unwrap_or_default())
        .collect();
    // `None` marks a job waiting for its lane of the group.
    let mut results = Vec::with_capacity(jobs.len());
    let mut group = Vec::new();
    let mut chip = None;
    for (&(spec, job), trace) in jobs.iter().zip(&mut traces) {
        let events = job.map(|_| trace);
        let result = (spec.validate().map_err(ScenarioError::Spec)).and_then(|()| {
            let Some(policy) = lane_policy(spec) else {
                return run_alone(spec, events).map(Some);
            };
            let cached = calibrated_chip(&spec.chip, spec.fidelity)?;
            let key = lane_key(spec);
            let (first, _) = chip.get_or_insert_with(|| (key.clone(), cached));
            assert!(
                *first == key,
                "a unit's co-simulation jobs share one lane key"
            );
            group.push(CosimJob {
                policy,
                params: params_of(spec),
                events,
            });
            Ok(None)
        });
        results.push(result.transpose());
    }
    let mut lanes = (chip.map(|(_, c)| run_cosim_group(&c.0, &c.1, group)))
        .unwrap_or_default()
        .into_iter();
    (results.into_iter().zip(traces).zip(jobs))
        .map(|((result, mut events), &(spec, job))| {
            let outcome = result.unwrap_or_else(|| {
                let lane = lanes.next().expect("one result per lane");
                lane.map(scenario_outcome).map_err(ScenarioError::from)
            })?;
            if let Some(j) = job {
                job_finish(spec, j, &mut events);
            }
            Ok((outcome, events))
        })
        .collect()
}

/// The event that opens job `job`'s trace.
fn job_start(spec: &ScenarioSpec, job: u64) -> TraceEvent {
    TraceEvent::JobStart {
        cycle: 0,
        job,
        name: spec.name.clone(),
    }
}

/// Closes job `job`'s trace with a [`TraceEvent::JobFinish`] keyed by the
/// highest cycle any event reached.
fn job_finish(spec: &ScenarioSpec, job: u64, events: &mut Vec<TraceEvent>) {
    let end = events.iter().map(TraceEvent::cycle).max().unwrap_or(0);
    events.push(TraceEvent::JobFinish {
        cycle: end,
        job,
        name: spec.name.clone(),
    });
}

/// A co-simulation job's result as a scenario outcome.
fn scenario_outcome(outcome: CosimOutcome) -> ScenarioOutcome {
    match outcome {
        CosimOutcome::Periodic(r) => ScenarioOutcome::Cosim(CosimMetrics::of(&r)),
        CosimOutcome::Adaptive(r) => ScenarioOutcome::Adaptive(r),
    }
}

/// Runs a job that [`lane_policy`] leaves alone: traffic, a plan-cost
/// (periodic) job or the static baseline.
fn run_alone(
    spec: &ScenarioSpec,
    events: Option<&mut Vec<TraceEvent>>,
) -> Result<ScenarioOutcome, ScenarioError> {
    if let Workload::Traffic {
        pattern,
        rate,
        packet_len,
        cycles,
    } = &spec.workload
    {
        return run_traffic(spec, pattern.clone(), *rate, *packet_len, *cycles, events);
    }
    let params = params_of(spec);
    let cached = calibrated_chip(&spec.chip, spec.fidelity)?;
    let (chip, cal) = (&cached.0, &cached.1);
    if let Policy::Periodic { scheme, .. } = spec.policy {
        // One migration's §2.1–2.2 cost (no transient solve).
        let cost = migration_cost(chip, scheme, &params, cal.total_dynamic);
        return Ok(ScenarioOutcome::PlanCost(PlanCostMetrics {
            phases: cost.plan.num_phases() as u64,
            stall_us: cost.stall_seconds * 1e6,
            flit_hops: cost.plan.total_flit_hops(),
            energy_uj: cost.energy_j * 1e6,
            moves: cost.plan.total_moves() as u64,
        }));
    }
    let r = run_cosim(chip, cal, None, &params)?;
    Ok(ScenarioOutcome::Cosim(CosimMetrics::of(&r)))
}

/// Upper bound on cached calibrated chips; reaching it clears the cache
/// (campaigns reuse a handful of chips, so eviction is a non-event).
const CHIP_CACHE_CAP: usize = 32;

/// Builds and calibrates the chip a scenario runs on, memoized process-wide
/// by canonical chip JSON + fidelity. Building a chip is expensive (a full
/// cycle-accurate NoC block simulation plus a bisection of leakage-coupled
/// steady-state solves) and campaigns run many jobs against the same chip —
/// e.g. `fig1` runs five schemes per configuration. Each key has its own
/// slot behind its own mutex: the first requester builds while later ones
/// wait for its result, so a chip calibrates once, and distinct chips
/// still calibrate in parallel. A failed build leaves the slot empty, so
/// each requester gets the error from its own attempt.
fn calibrated_chip(
    kind: &ChipKind,
    fidelity: Fidelity,
) -> Result<Arc<(Chip, CalibratedPower)>, ScenarioError> {
    type Slot = Arc<Mutex<Option<Arc<(Chip, CalibratedPower)>>>>;
    static CACHE: OnceLock<Mutex<HashMap<String, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = format!("{}|{}", fidelity_name(fidelity), kind.to_json());
    let slot = {
        let mut map = cache.lock().expect("chip cache lock");
        if !map.contains_key(&key) && map.len() >= CHIP_CACHE_CAP {
            map.clear();
        }
        Arc::clone(map.entry(key).or_default())
    };
    // A build that panicked left the slot empty; the next requester retries.
    let mut built = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = built.as_ref() {
        return Ok(Arc::clone(hit));
    }
    let mut chip = Chip::build(kind.to_chip_spec(fidelity))?;
    let cal = chip.calibrate()?;
    Ok(Arc::clone(built.insert(Arc::new((chip, cal)))))
}

fn run_traffic(
    spec: &ScenarioSpec,
    pattern: hotnoc_noc::TrafficPattern,
    rate: f64,
    packet_len: u32,
    cycles: u64,
    events: Option<&mut Vec<TraceEvent>>,
) -> Result<ScenarioOutcome, ScenarioError> {
    let mesh = Mesh::square(spec.chip.mesh_side())?;
    let mut net = Network::new(mesh, NocConfig::default());
    if events.is_some() {
        net.start_trace();
    }
    if !spec.faults.is_empty() {
        net.install_fault_plan(spec.faults.clone())?;
    }
    let mut gen = TrafficGenerator::new(mesh, pattern, rate, packet_len, spec.seed);
    let budget = cycles.saturating_mul(DRAIN_BUDGET_PER_CYCLE) + DRAIN_BUDGET_FLOOR;
    let (offered, drained) = gen.run(&mut net, cycles, budget);
    if let Some(ev) = events {
        ev.extend(net.take_trace().expect("trace started above"));
    }
    let stats = net.stats();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ChipKind;
    use hotnoc_core::configs::ChipConfigId;
    use hotnoc_noc::{FaultPlan, TrafficPattern};
    use hotnoc_reconfig::MigrationScheme;

    fn traffic_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: format!("t{seed}"),
            chip: ChipKind::Config(ChipConfigId::A),
            workload: Workload::Traffic {
                pattern: TrafficPattern::UniformRandom,
                rate: 0.05,
                packet_len: 4,
                cycles: 400,
            },
            policy: Policy::Baseline,
            mode: Mode::Cosim,
            fidelity: Fidelity::Quick,
            sim_time_ms: None,
            faults: FaultPlan::new(),
            seed,
        }
    }

    #[test]
    fn traffic_scenario_delivers_and_is_deterministic() {
        let a = run_scenario(&traffic_spec(9)).unwrap();
        let b = run_scenario(&traffic_spec(9)).unwrap();
        assert_eq!(a, b);
        let ScenarioOutcome::Traffic(m) = &a else {
            panic!("expected traffic outcome");
        };
        assert!(m.drained);
        assert!(m.offered > 0);
        assert_eq!(m.delivered, m.offered);
        assert!(m.mean_latency_cycles > 0.0);
    }

    #[test]
    fn traced_traffic_run_brackets_and_matches_untraced() {
        use hotnoc_noc::Coord;
        let mut spec = traffic_spec(9);
        spec.faults = FaultPlan::new()
            .fail_router(100, Coord::new(1, 1))
            .repair_router(250, Coord::new(1, 1));
        let plain = run_scenario(&spec).unwrap();
        let (traced, events) = run_scenario_traced(&spec).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(matches!(events.first(), Some(TraceEvent::JobStart { .. })));
        assert!(matches!(events.last(), Some(TraceEvent::JobFinish { .. })));
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
        assert_eq!(count("router_failed"), 1);
        assert_eq!(count("router_repaired"), 1);
        assert_eq!(count("fault_epoch"), 2);
        assert!(count("congestion") > 0, "traffic should register occupancy");
        let cycles: Vec<u64> = events.iter().map(TraceEvent::cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]), "order: {cycles:?}");
        // The traced run serializes to a valid hotnoc-trace-v1 document.
        let doc = crate::tracefile::TraceDoc::new(&spec.name, events);
        let back = crate::tracefile::TraceDoc::parse(&doc.to_jsonl()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn traffic_seed_changes_the_run() {
        let a = run_scenario(&traffic_spec(1)).unwrap();
        let b = run_scenario(&traffic_spec(2)).unwrap();
        assert_ne!(a, b, "different seeds should offer different traffic");
    }

    #[test]
    fn ldpc_periodic_matches_run_cosim() {
        let spec = ScenarioSpec {
            name: "xy".to_string(),
            chip: ChipKind::Config(ChipConfigId::A),
            workload: Workload::Ldpc,
            policy: Policy::Periodic {
                scheme: MigrationScheme::XYShift,
                period_blocks: 24,
            },
            mode: Mode::Cosim,
            fidelity: Fidelity::Quick,
            sim_time_ms: None,
            faults: FaultPlan::new(),
            seed: 0,
        };
        let out = run_scenario(&spec).unwrap();
        let ScenarioOutcome::Cosim(m) = &out else {
            panic!("expected cosim outcome");
        };
        let mut chip = Chip::build(spec.chip.to_chip_spec(Fidelity::Quick)).unwrap();
        let cal = chip.calibrate().unwrap();
        let direct = hotnoc_core::cosim::run_cosim(
            &chip,
            &cal,
            Some(MigrationScheme::XYShift),
            &CosimParams::quick(),
        )
        .unwrap();
        assert_eq!(*m, CosimMetrics::of(&direct));
        assert!(m.reduction > 0.5, "xy-shift should cool config A");
    }
}
