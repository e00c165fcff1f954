//! Executes one [`ScenarioSpec`] and produces a [`ScenarioOutcome`].
//!
//! Every execution path is deterministic: LDPC co-simulations contain no
//! randomness beyond the code-construction seed baked into the chip spec,
//! and traffic scenarios seed their generator from the spec. Combined with
//! the NoC's thread-count-invariant parallel sweep, the same spec produces
//! bit-identical metrics on any machine at any `HOTNOC_THREADS`.

use crate::error::ScenarioError;
use crate::outcome::{CosimMetrics, PlanCostMetrics, ScenarioOutcome, TrafficMetrics};
use crate::spec::{fidelity_name, ChipKind, Mode, Policy, ScenarioSpec, Workload};
use hotnoc_core::adaptive::run_adaptive_cosim_traced;
use hotnoc_core::configs::Fidelity;
use hotnoc_core::cosim::{migration_cost, run_cosim_traced};
use hotnoc_core::{CalibratedPower, Chip, CosimParams};
use hotnoc_noc::{Mesh, Network, NocConfig, TrafficGenerator};
use hotnoc_obs::TraceEvent;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

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

/// Runs one scenario to completion.
///
/// # Errors
///
/// Propagates spec validation failures and substrate (chip construction,
/// calibration, thermal, NoC) errors.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioOutcome, ScenarioError> {
    spec.validate().map_err(ScenarioError::Spec)?;
    dispatch(spec, None)
}

/// Runs one scenario and also returns its deterministic event trace,
/// bracketed by [`TraceEvent::JobStart`] / [`TraceEvent::JobFinish`]. The
/// simulation is identical to [`run_scenario`] — tracing is observation
/// only.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_traced(
    spec: &ScenarioSpec,
) -> Result<(ScenarioOutcome, Vec<TraceEvent>), ScenarioError> {
    run_scenario_traced_as_job(spec, 0)
}

/// [`run_scenario_traced`] for a campaign job: `job` is the job's index in
/// the stably-ordered expanded job list and lands in the bracket events.
/// `JobFinish` is keyed by the highest cycle any event reached.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_traced_as_job(
    spec: &ScenarioSpec,
    job: u64,
) -> Result<(ScenarioOutcome, Vec<TraceEvent>), ScenarioError> {
    spec.validate().map_err(ScenarioError::Spec)?;
    let mut events = vec![TraceEvent::JobStart {
        cycle: 0,
        job,
        name: spec.name.clone(),
    }];
    let outcome = dispatch(spec, Some(&mut events))?;
    let end = events.iter().map(TraceEvent::cycle).max().unwrap_or(0);
    events.push(TraceEvent::JobFinish {
        cycle: end,
        job,
        name: spec.name.clone(),
    });
    Ok((outcome, events))
}

fn dispatch(
    spec: &ScenarioSpec,
    events: Option<&mut Vec<TraceEvent>>,
) -> Result<ScenarioOutcome, ScenarioError> {
    match &spec.workload {
        Workload::Ldpc => run_ldpc(spec, events),
        Workload::Traffic {
            pattern,
            rate,
            packet_len,
            cycles,
        } => run_traffic(spec, pattern.clone(), *rate, *packet_len, *cycles, events),
    }
}

/// Upper bound on cached calibrated chips; reaching it clears the cache
/// (campaigns reuse a handful of chips, so eviction is a non-event).
const CHIP_CACHE_CAP: usize = 32;

/// Builds and calibrates the chip a scenario runs on, memoized process-wide
/// by canonical chip JSON + fidelity. Building a chip is expensive (a full
/// cycle-accurate NoC block simulation plus a bisection of leakage-coupled
/// steady-state solves) and campaigns run many jobs against the same chip —
/// e.g. `fig1` runs five schemes per configuration. Construction happens
/// outside the lock so distinct chips calibrate in parallel; a race on one
/// key wastes a duplicate build but stays deterministic (calibration is a
/// pure function of the spec, so both results are identical).
fn calibrated_chip(
    kind: &ChipKind,
    fidelity: Fidelity,
) -> Result<Arc<(Chip, CalibratedPower)>, ScenarioError> {
    type Cache = Mutex<HashMap<String, Arc<(Chip, CalibratedPower)>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = format!("{}|{}", fidelity_name(fidelity), kind.to_json());
    if let Some(hit) = cache.lock().expect("chip cache lock").get(&key) {
        return Ok(Arc::clone(hit));
    }
    let mut chip = Chip::build(kind.to_chip_spec(fidelity))?;
    let cal = chip.calibrate()?;
    let entry = Arc::new((chip, cal));
    let mut map = cache.lock().expect("chip cache lock");
    if map.len() >= CHIP_CACHE_CAP {
        map.clear();
    }
    Ok(Arc::clone(map.entry(key).or_insert(entry)))
}

fn run_ldpc(
    spec: &ScenarioSpec,
    events: Option<&mut Vec<TraceEvent>>,
) -> Result<ScenarioOutcome, ScenarioError> {
    let params = params_of(spec);
    let cached = calibrated_chip(&spec.chip, spec.fidelity)?;
    let (chip, cal) = (&cached.0, &cached.1);
    match (&spec.policy, spec.mode) {
        (Policy::Periodic { scheme, .. }, Mode::PlanCost) => {
            // One migration's §2.1–2.2 cost (no transient solve).
            let cost = migration_cost(chip, *scheme, &params, cal.total_dynamic);
            Ok(ScenarioOutcome::PlanCost(PlanCostMetrics {
                phases: cost.plan.num_phases() as u64,
                stall_us: cost.stall_seconds * 1e6,
                flit_hops: cost.plan.total_flit_hops(),
                energy_uj: cost.energy_j * 1e6,
                moves: cost.plan.total_moves() as u64,
            }))
        }
        (Policy::Baseline, _) => {
            let r = run_cosim_traced(chip, cal, None, &params, events)?;
            Ok(ScenarioOutcome::Cosim(CosimMetrics::of(&r)))
        }
        (Policy::Periodic { scheme, .. }, Mode::Cosim) => {
            let r = run_cosim_traced(chip, cal, Some(*scheme), &params, events)?;
            Ok(ScenarioOutcome::Cosim(CosimMetrics::of(&r)))
        }
        (Policy::Adaptive { .. }, _) => {
            let r = run_adaptive_cosim_traced(chip, cal, &params, events)?;
            Ok(ScenarioOutcome::Adaptive(r))
        }
    }
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
