//! Transient thermal co-simulation with periodic migration.
//!
//! The chip decodes blocks continuously; after every `period_blocks` blocks
//! the reconfiguration controller halts the PEs, executes the
//! congestion-free phased migration (burning state-transfer energy — "our
//! simulations also include the energy consumed during the migration
//! operation"), and decoding resumes with the workload spatially remapped.
//! The thermal solver integrates the resulting time-varying power map.

use crate::chip::{check_runaway, CalibratedPower, Chip};
use crate::error::CoreError;
use hotnoc_obs::TraceEvent;
use hotnoc_power::leakage;
use hotnoc_reconfig::phases::PhaseCostModel;
use hotnoc_reconfig::{MigrationPlan, MigrationScheme, OrbitDecomposition, StateSpec};
use hotnoc_thermal::{Integrator, ThermalTrace, ThresholdWatcher, TransientSim};

/// Temperature threshold watched by traced co-simulation runs, °C. Not part
/// of [`CosimParams`] (which is serialized into artifacts) — the watcher is
/// pure observation and never feeds back into the simulation.
pub const TRACE_TEMP_THRESHOLD_C: f64 = 70.0;

/// Hysteresis band of the traced threshold watcher, °C.
pub const TRACE_TEMP_HYSTERESIS_C: f64 = 0.5;

/// Parameters of one co-simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosimParams {
    /// Thermal integration step, seconds.
    pub dt: f64,
    /// Total simulated time, seconds.
    pub sim_time: f64,
    /// Warm-up prefix excluded from statistics, seconds.
    pub warmup: f64,
    /// Migration period in decoded blocks (the paper aligns migrations to
    /// block completion).
    pub period_blocks: u64,
    /// Energy per flit-hop of state-transfer traffic, joules (buffer write
    /// + read + crossbar + link for one 64-bit flit in 160 nm).
    pub e_flit_hop: f64,
    /// Energy per flit at each transfer endpoint, joules: the state-memory
    /// read plus conversion-unit transform at the source and the write at
    /// the destination (§2.1).
    pub e_convert_flit: f64,
    /// Fraction of the chip's dynamic power burned while stalled (the PEs
    /// are halted, not power-gated: clocks, registers and the migration
    /// control keep running).
    pub stall_power_fraction: f64,
}

impl Default for CosimParams {
    fn default() -> Self {
        CosimParams {
            dt: 5e-6,
            sim_time: 0.05,
            warmup: 0.025,
            period_blocks: 1,
            e_flit_hop: 5.0e-10,
            e_convert_flit: 8.0e-10,
            stall_power_fraction: 0.9,
        }
    }
}

impl CosimParams {
    /// A short-horizon variant for tests. Quick-fidelity blocks are much
    /// shorter than paper blocks, so the period is raised to keep the
    /// migration period near the paper's ~100 µs operating point.
    pub fn quick() -> Self {
        CosimParams {
            dt: 5e-6,
            sim_time: 0.012,
            warmup: 0.006,
            period_blocks: 24,
            ..CosimParams::default()
        }
    }
}

/// The outcome of one co-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimResult {
    /// Scheme simulated (`None` = static baseline).
    pub scheme: Option<MigrationScheme>,
    /// Steady-state peak of the static placement (°C) — the Figure 1 base.
    pub base_peak: f64,
    /// Peak temperature under migration, measured after warm-up (°C).
    pub peak: f64,
    /// `base_peak - peak`: the Figure 1 quantity (°C).
    pub reduction: f64,
    /// Time-averaged mean die temperature under migration (°C).
    pub mean_temp: f64,
    /// Mean die temperature of the static baseline (°C).
    pub base_mean_temp: f64,
    /// Throughput penalty: stall / (period + stall).
    pub throughput_penalty: f64,
    /// Migration stall, seconds.
    pub stall_seconds: f64,
    /// Migration period (active decode time between stalls), seconds.
    pub period_seconds: f64,
    /// Energy per migration event, joules.
    pub migration_energy_j: f64,
    /// Congestion-free phases per migration.
    pub phases: usize,
    /// Migrations executed during the simulated horizon.
    pub migrations: u64,
}

impl CosimResult {
    /// Average-temperature increase attributable to migration energy (°C).
    pub fn mean_temp_increase(&self) -> f64 {
        self.mean_temp - self.base_mean_temp
    }
}

/// One migration's §2.1–2.2 cost: the congestion-free plan of a scheme on
/// the chip's mesh, the stall it imposes and the energy it consumes.
#[derive(Debug, Clone)]
pub struct MigrationCost {
    /// The phased plan (default [`StateSpec`] and [`PhaseCostModel`]).
    pub plan: MigrationPlan,
    /// Stall time at the NoC clock, seconds.
    pub stall_seconds: f64,
    /// Energy per migration event, joules.
    pub energy_j: f64,
}

/// Plans one migration of `chip` under `scheme` and prices it: the energy
/// is the state-transfer traffic, the endpoint conversion/copy work, plus
/// the clock/control power (`stall_power_fraction` of `chip_power` watts)
/// the halted chip keeps burning for the stall. The co-simulation, the
/// adaptive controller and the plan-cost scenarios all price migrations
/// here.
pub fn migration_cost(
    chip: &Chip,
    scheme: MigrationScheme,
    params: &CosimParams,
    chip_power: f64,
) -> MigrationCost {
    let mesh = chip.mesh();
    let plan = MigrationPlan::plan(
        mesh,
        scheme,
        &StateSpec::default(),
        &PhaseCostModel::default(),
    );
    let stall_seconds = plan.total_cycles() as f64 / chip.noc_config().clock_hz;
    let energy_j = plan.total_flit_hops() as f64 * params.e_flit_hop
        + plan.per_tile_endpoint_flits(mesh).iter().sum::<u64>() as f64 * params.e_convert_flit
        + stall_seconds * params.stall_power_fraction * chip_power;
    MigrationCost {
        plan,
        stall_seconds,
        energy_j,
    }
}

/// Runs the co-simulation of `chip` under `scheme` (or the static baseline
/// for `None`).
///
/// # Errors
///
/// Propagates thermal-solver failures and fails with
/// [`CoreError::ThermalRunaway`] when a block passes
/// [`crate::chip::MAX_BLOCK_TEMP_C`]; parameters are validated up front.
pub fn run_cosim(
    chip: &Chip,
    cal: &CalibratedPower,
    scheme: Option<MigrationScheme>,
    params: &CosimParams,
) -> Result<CosimResult, CoreError> {
    run_cosim_traced(chip, cal, scheme, params, None)
}

/// [`run_cosim`] with an optional trace buffer. When one is supplied,
/// every migration commit records a [`TraceEvent::PolicyDecision`] and the
/// plan's [`TraceEvent::Migration`] (via
/// [`MigrationPlan::trace_event`]), and a [`ThresholdWatcher`] at
/// [`TRACE_TEMP_THRESHOLD_C`] turns the thermal frames into
/// [`TraceEvent::TempCrossing`] events. Cycles are derived from elapsed
/// simulated time at the NoC clock, so the trace is deterministic whenever
/// the run is. The simulation itself is identical with or without tracing.
///
/// # Errors
///
/// As [`run_cosim`].
pub fn run_cosim_traced(
    chip: &Chip,
    cal: &CalibratedPower,
    scheme: Option<MigrationScheme>,
    params: &CosimParams,
    mut events: Option<&mut Vec<TraceEvent>>,
) -> Result<CosimResult, CoreError> {
    let n = chip.spec().n_tiles();
    let areas = chip.tile_areas_mm2();
    let clock = chip.noc_config().clock_hz;

    // Static baseline: leakage-coupled steady state.
    let base_temps = chip.steady_with_leakage(&cal.dynamic)?;
    let base_peak = peak_of(&base_temps);
    let base_mean = mean_of(&base_temps);

    let Some(scheme) = scheme else {
        return Ok(CosimResult {
            scheme: None,
            base_peak,
            peak: base_peak,
            reduction: 0.0,
            mean_temp: base_mean,
            base_mean_temp: base_mean,
            throughput_penalty: 0.0,
            stall_seconds: 0.0,
            period_seconds: cal.block_seconds * params.period_blocks as f64,
            migration_energy_j: 0.0,
            phases: 0,
            migrations: 0,
        });
    };

    let mesh = chip.mesh();
    let MigrationCost {
        plan,
        stall_seconds: stall_s,
        energy_j: migration_energy,
    } = migration_cost(chip, scheme, params, cal.total_dynamic);
    let period_s = cal.block_seconds * params.period_blocks as f64;
    let super_s = period_s + stall_s;
    let per_tile_hops = plan.per_tile_flit_hops(mesh);
    let per_tile_endpoints = plan.per_tile_endpoint_flits(mesh);

    // Power maps for every migration state (the permutation cycles with the
    // scheme's group order).
    let order = scheme.order(mesh);
    let mut maps: Vec<Vec<f64>> = Vec::with_capacity(order);
    for k in 0..order {
        let mut m = vec![0.0; n];
        for tile in 0..n {
            let c = mesh.coord(hotnoc_noc::NodeId::new(tile as u16));
            let dst = scheme.apply_k(c, mesh, k);
            let dst_idx = mesh.node_id(dst).expect("on mesh").index();
            m[dst_idx] = cal.dynamic[tile];
        }
        maps.push(m);
    }

    // Stall power map: each tile keeps `stall_power_fraction` of its own
    // dynamic power (clock distribution is not gated during the halt); the
    // state-transfer energy lands on the tiles whose routers forward the
    // streams and on the endpoints doing the conversion/copy work. The
    // local component follows the permutation like the active map; the
    // transfer component is fixed in physical space (the plan's routes).
    let per_tile_transfer: Vec<f64> = per_tile_hops
        .iter()
        .zip(&per_tile_endpoints)
        .map(|(&h, &e)| h as f64 * params.e_flit_hop + e as f64 * params.e_convert_flit)
        .collect();
    let mut stall_maps: Vec<Vec<f64>> = Vec::with_capacity(order);
    for m in &maps {
        let sm: Vec<f64> = m
            .iter()
            .zip(&per_tile_transfer)
            .map(|(p, t)| params.stall_power_fraction * p + t / stall_s)
            .collect();
        stall_maps.push(sm);
    }

    // Initialize at the long-run operating point: the time-averaged power
    // the package integrates (active decode, reduced stall power, transfer
    // energy).
    let init_dyn: Vec<f64> = cal
        .dynamic
        .iter()
        .zip(&per_tile_transfer)
        .map(|(p, t)| (p * (period_s + params.stall_power_fraction * stall_s) + t) / super_s)
        .collect();
    let init_temps = chip.steady_with_leakage(&init_dyn)?;
    check_runaway(&init_temps)?;
    let init_leak = leakage::leakage_per_block(&areas, &init_temps, chip.tech());
    let init_total: Vec<f64> = init_dyn
        .iter()
        .zip(&init_leak)
        .map(|(d, l)| d + l)
        .collect();

    let mut sim = TransientSim::new(chip.thermal(), params.dt, Integrator::BackwardEuler)?;
    sim.init_from_steady(&init_total)?;

    let frames = (params.sim_time / params.dt).round() as usize;
    let warmup_frames = (params.warmup / params.dt).round() as usize;
    let mut trace = ThermalTrace::new(params.dt, n);
    let mut watcher = events
        .as_ref()
        .map(|_| ThresholdWatcher::new(TRACE_TEMP_THRESHOLD_C, TRACE_TEMP_HYSTERESIS_C, n));

    let mut k = 0usize; // migrations so far
    let mut tau = 0.0f64; // position within the current super-period
    let mut frame_power = vec![0.0f64; n];
    for fi in 0..frames {
        frame_power.iter_mut().for_each(|p| *p = 0.0);
        let mut remaining = params.dt;
        while remaining > 1e-15 {
            if tau < period_s {
                let seg = remaining.min(period_s - tau);
                let w = seg / params.dt;
                let map = &maps[k % order];
                for (fp, m) in frame_power.iter_mut().zip(map) {
                    *fp += w * m;
                }
                tau += seg;
                remaining -= seg;
            } else {
                let seg = remaining.min(super_s - tau);
                let w = seg / params.dt;
                let sm = &stall_maps[k % order];
                for (fp, s) in frame_power.iter_mut().zip(sm) {
                    *fp += w * s;
                }
                tau += seg;
                remaining -= seg;
                if super_s - tau < 1e-12 {
                    tau = 0.0;
                    k += 1;
                    if let Some(ev) = events.as_deref_mut() {
                        let elapsed = fi as f64 * params.dt + (params.dt - remaining);
                        let cycle = (elapsed * clock).round() as u64;
                        ev.push(TraceEvent::PolicyDecision {
                            cycle,
                            decision: k as u64,
                            scheme: scheme.to_string(),
                        });
                        ev.push(plan.trace_event(cycle, migration_energy));
                    }
                }
            }
        }
        // Temperature-coupled leakage from the previous frame's state.
        let leak = leakage::leakage_per_block(&areas, sim.block_temps(), chip.tech());
        for (fp, l) in frame_power.iter_mut().zip(&leak) {
            *fp += l;
        }
        sim.step(&frame_power)?;
        check_runaway(sim.block_temps())?;
        trace.push(sim.block_temps());
        if let (Some(ev), Some(w)) = (events.as_deref_mut(), watcher.as_mut()) {
            let cycle = ((fi + 1) as f64 * params.dt * clock).round() as u64;
            w.observe(cycle, sim.block_temps(), ev);
        }
    }

    let stats = trace
        .stats_after(warmup_frames.min(frames.saturating_sub(1)))
        .expect("at least one measured frame");

    Ok(CosimResult {
        scheme: Some(scheme),
        base_peak,
        peak: stats.peak,
        reduction: base_peak - stats.peak,
        mean_temp: stats.mean,
        base_mean_temp: base_mean,
        throughput_penalty: stall_s / super_s,
        stall_seconds: stall_s,
        period_seconds: period_s,
        migration_energy_j: migration_energy,
        phases: plan.num_phases(),
        migrations: k as u64,
    })
}

/// Analytic predictor: the peak-temperature reduction implied by the
/// orbit-averaged power map (the migration period is much shorter than the
/// die's thermal time constant, so the die responds to the time-averaged
/// map). Ignores migration energy and finite-period ripple — an upper bound
/// the transient co-simulation approaches.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn predicted_reduction(
    chip: &Chip,
    cal: &CalibratedPower,
    scheme: MigrationScheme,
) -> Result<f64, CoreError> {
    let base = chip.steady_with_leakage(&cal.dynamic)?;
    let orbit = OrbitDecomposition::new(scheme, chip.mesh());
    let averaged = orbit.time_averaged_power(&cal.dynamic);
    let migrated = chip.steady_with_leakage(&averaged)?;
    Ok(peak_of(&base) - peak_of(&migrated))
}

fn peak_of(t: &[f64]) -> f64 {
    t.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

fn mean_of(t: &[f64]) -> f64 {
    t.iter().sum::<f64>() / t.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{ChipConfigId, ChipSpec, Fidelity};

    fn chip_and_cal(id: ChipConfigId) -> (Chip, CalibratedPower) {
        let mut chip = Chip::build(ChipSpec::of(id, Fidelity::Quick)).unwrap();
        let cal = chip.calibrate().unwrap();
        (chip, cal)
    }

    #[test]
    fn baseline_has_no_penalty() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let r = run_cosim(&chip, &cal, None, &CosimParams::quick()).unwrap();
        assert_eq!(r.reduction, 0.0);
        assert_eq!(r.throughput_penalty, 0.0);
        assert_eq!(r.migrations, 0);
        assert!((r.base_peak - chip.spec().base_peak_celsius).abs() < 0.1);
    }

    #[test]
    fn xy_shift_reduces_peak_on_config_a() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let r = run_cosim(
            &chip,
            &cal,
            Some(MigrationScheme::XYShift),
            &CosimParams::quick(),
        )
        .unwrap();
        assert!(r.migrations > 0, "no migrations happened");
        assert!(
            r.reduction > 1.0,
            "X-Y shift should cool config A: reduction {}",
            r.reduction
        );
        assert!(r.throughput_penalty > 0.0 && r.throughput_penalty < 0.1);
    }

    #[test]
    fn predictor_bounds_cosim_reduction() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let pred = predicted_reduction(&chip, &cal, MigrationScheme::XYShift).unwrap();
        let r = run_cosim(
            &chip,
            &cal,
            Some(MigrationScheme::XYShift),
            &CosimParams::quick(),
        )
        .unwrap();
        assert!(pred > 0.0);
        assert!(
            r.reduction <= pred + 0.3,
            "cosim {} should not exceed predictor {}",
            r.reduction,
            pred
        );
    }

    #[test]
    fn migration_energy_raises_mean_temperature() {
        let (chip, cal) = chip_and_cal(ChipConfigId::E);
        let r = run_cosim(
            &chip,
            &cal,
            Some(MigrationScheme::Rotation),
            &CosimParams::quick(),
        )
        .unwrap();
        assert!(r.migration_energy_j > 0.0);
        assert!(r.phases >= 2, "rotation should need several phases");
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_migrations() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let params = CosimParams::quick();
        let plain = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &params).unwrap();
        let mut events = Vec::new();
        let traced = run_cosim_traced(
            &chip,
            &cal,
            Some(MigrationScheme::XYShift),
            &params,
            Some(&mut events),
        )
        .unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(count("migration"), traced.migrations);
        assert_eq!(count("policy_decision"), traced.migrations);
        let cycles: Vec<u64> = events.iter().map(TraceEvent::cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "trace must be in sim-time order: {cycles:?}"
        );
    }

    #[test]
    fn right_shift_weak_on_warm_band() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let rs =
            predicted_reduction(&chip, &cal, MigrationScheme::XTranslation { offset: 1 }).unwrap();
        let xys = predicted_reduction(&chip, &cal, MigrationScheme::XYShift).unwrap();
        assert!(
            rs < xys,
            "right shift ({rs}) should trail X-Y shift ({xys}) on a warm band"
        );
    }
}
