//! Transient thermal co-simulation with runtime migration.
//!
//! The chip decodes blocks continuously; after every `period_blocks` blocks
//! the reconfiguration controller halts the PEs, executes the
//! congestion-free phased migration (burning state-transfer energy — "our
//! simulations also include the energy consumed during the migration
//! operation"), and decoding resumes with the workload spatially remapped.
//! The thermal solver integrates the resulting time-varying power map.
//!
//! One frame loop serves the periodic and the adaptive ([`crate::adaptive`])
//! policies alike, so a migration costs the same heat under either.

use crate::chip::{check_runaway, CalibratedPower, Chip};
use crate::error::CoreError;
use hotnoc_obs::TraceEvent;
use hotnoc_power::leakage::leakage_power;
use hotnoc_reconfig::phases::PhaseCostModel;
use hotnoc_reconfig::{MigrationPlan, MigrationScheme, OrbitDecomposition, StateSpec};
use hotnoc_thermal::{rc_model, Integrator, ThresholdWatcher, TransientSim};

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

    /// Thermal frames in the horizon: `sim_time / dt`, rounded. A horizon
    /// under half a frame has none and cannot be co-simulated.
    pub fn frames(&self) -> usize {
        (self.sim_time / self.dt).round() as usize
    }
}

/// The outcome of one co-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimResult {
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
/// [`crate::chip::MAX_BLOCK_TEMP_C`].
///
/// # Panics
///
/// With a scheme, if `params` holds no thermal frame ([`CosimParams::frames`]).
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
    events: Option<&mut Vec<TraceEvent>>,
) -> Result<CosimResult, CoreError> {
    // Static baseline: leakage-coupled steady state.
    let base_temps = chip.steady_with_leakage(&cal.dynamic)?;
    let base_peak = rc_model::peak(&base_temps);
    let base_mean = mean_of(&base_temps);
    let period_s = cal.block_seconds * params.period_blocks as f64;

    let Some(scheme) = scheme else {
        return Ok(CosimResult {
            base_peak,
            peak: base_peak,
            reduction: 0.0,
            mean_temp: base_mean,
            base_mean_temp: base_mean,
            throughput_penalty: 0.0,
            stall_seconds: 0.0,
            period_seconds: period_s,
            migration_energy_j: 0.0,
            phases: 0,
            migrations: 0,
        });
    };

    let policy: Policy = Box::new(move |_: &[f64]| Ok(scheme));
    let (peak, mean, migrations) = co_simulate(chip, cal, params, policy, events)?;
    let cost = &migrations.priced[0].cost;
    Ok(CosimResult {
        base_peak,
        peak,
        reduction: base_peak - peak,
        mean_temp: mean,
        base_mean_temp: base_mean,
        throughput_penalty: cost.stall_seconds / (period_s + cost.stall_seconds),
        stall_seconds: cost.stall_seconds,
        period_seconds: period_s,
        migration_energy_j: cost.energy_j,
        phases: cost.plan.num_phases(),
        migrations: migrations.schedule.len() as u64,
    })
}

/// Names the next migration's scheme from the current physical per-tile
/// dynamic power map: a fixed scheme, or [`crate::adaptive::pick_scheme`].
pub(crate) type Policy<'c> = Box<dyn FnMut(&[f64]) -> Result<MigrationScheme, CoreError> + 'c>;

/// The frame loop behind every migration policy, starting at the long-run
/// operating point of the first scheme. Returns the peak and mean block
/// temperature over the frames after warm-up (°C) and the migration clock,
/// which holds the committed schedule. Panics if there is no frame.
pub(crate) fn co_simulate<'c>(
    chip: &'c Chip,
    cal: &CalibratedPower,
    params: &'c CosimParams,
    policy: Policy<'c>,
    mut events: Option<&mut Vec<TraceEvent>>,
) -> Result<(f64, f64, Migrations<'c>), CoreError> {
    let n = cal.dynamic.len();
    let (areas, tech) = (chip.tile_areas_mm2(), chip.tech());
    let frames = params.frames();
    assert!(frames > 0, "no thermal frame in the horizon");
    let skip = ((params.warmup / params.dt).round() as usize).min(frames - 1);

    let mut migrations = Migrations::new(chip, cal, params, policy)?;
    // The long-run operating point: the time-averaged power the package
    // integrates (active decode, reduced stall power, transfer energy).
    let first = &migrations.priced[migrations.pending];
    let (period_s, stall_s) = (migrations.period_s, first.cost.stall_seconds);
    let active_s = period_s + params.stall_power_fraction * stall_s;
    let mut power: Vec<f64> = (cal.dynamic.iter().zip(&first.transfer_j))
        .map(|(p, t)| (p * active_s + t) / (period_s + stall_s))
        .collect();
    let init_temps = chip.steady_with_leakage(&power)?;
    check_runaway(&init_temps)?;
    for ((p, &a), &t) in power.iter_mut().zip(&areas).zip(&init_temps) {
        *p += leakage_power(a, t, tech);
    }
    let mut sim = TransientSim::new(chip.thermal(), params.dt, Integrator::BackwardEuler)?;
    sim.init_from_steady(&power)?;

    let mut watcher = events
        .as_ref()
        .map(|_| ThresholdWatcher::new(TRACE_TEMP_THRESHOLD_C, TRACE_TEMP_HYSTERESIS_C, n));
    let (mut peak, mut sum) = (f64::NEG_INFINITY, 0.0);
    for fi in 0..frames {
        migrations.fill(&mut power, fi, events.as_deref_mut())?;
        // Temperature-coupled leakage from the previous frame's state.
        for ((p, &a), &t) in power.iter_mut().zip(&areas).zip(sim.block_temps()) {
            *p += leakage_power(a, t, tech);
        }
        sim.step(&power)?;
        let temps = sim.block_temps();
        check_runaway(temps)?;
        if let (Some(ev), Some(w)) = (events.as_deref_mut(), watcher.as_mut()) {
            let cycle = ((fi + 1) as f64 * params.dt * chip.noc_config().clock_hz).round();
            w.observe(cycle as u64, temps, ev);
        }
        if fi >= skip {
            for &t in temps {
                peak = peak.max(t);
                sum += t;
            }
        }
    }
    Ok((peak, sum / ((frames - skip) * n) as f64, migrations))
}

/// One scheme's migration as the frame loop charges it: the §2.2 cost and
/// each tile's share of the state-transfer energy (router hops, conversion), J.
struct Priced {
    cost: MigrationCost,
    transfer_j: Vec<f64>,
}

/// The super-period clock: `period_blocks` blocks of decoding on the
/// current placement, the pending migration's stall, then its commit, which
/// moves the workload and asks the policy for the next migration.
pub(crate) struct Migrations<'c> {
    chip: &'c Chip,
    params: &'c CosimParams,
    total_dynamic: f64,
    policy: Policy<'c>,
    /// Every scheme the policy has named, priced once.
    priced: Vec<Priced>,
    /// Index in `priced` of the migration that closes this super-period.
    pending: usize,
    /// Physical per-tile dynamic power of the current placement, W.
    placement: Vec<f64>,
    period_s: f64,
    /// Time into the current super-period, s.
    tau: f64,
    /// Committed migrations, in order.
    pub(crate) schedule: Vec<MigrationScheme>,
    /// Total stall time of the committed migrations, s.
    stalled_s: f64,
}

impl<'c> Migrations<'c> {
    fn new(
        chip: &'c Chip,
        cal: &CalibratedPower,
        params: &'c CosimParams,
        policy: Policy<'c>,
    ) -> Result<Self, CoreError> {
        let mut migrations = Migrations {
            chip,
            params,
            total_dynamic: cal.total_dynamic,
            policy,
            priced: Vec::new(),
            pending: 0,
            placement: cal.dynamic.clone(),
            period_s: cal.block_seconds * params.period_blocks as f64,
            tau: 0.0,
            schedule: Vec::new(),
            stalled_s: 0.0,
        };
        migrations.decide()?;
        Ok(migrations)
    }

    /// Asks the policy for the next migration, pricing its scheme the first
    /// time it is named.
    fn decide(&mut self) -> Result<(), CoreError> {
        let scheme = (self.policy)(&self.placement)?;
        let known = self
            .priced
            .iter()
            .position(|m| m.cost.plan.scheme == scheme);
        self.pending = known.unwrap_or(self.priced.len());
        if known.is_none() {
            let (mesh, p) = (self.chip.mesh(), self.params);
            let cost = migration_cost(self.chip, scheme, p, self.total_dynamic);
            let ends = cost.plan.per_tile_endpoint_flits(mesh);
            let transfer_j = (cost.plan.per_tile_flit_hops(mesh).iter().zip(ends))
                .map(|(&h, e)| h as f64 * p.e_flit_hop + e as f64 * p.e_convert_flit)
                .collect();
            self.priced.push(Priced { cost, transfer_j });
        }
        Ok(())
    }

    /// Writes frame `fi`'s dynamic power (per tile, averaged over `dt`) into
    /// `frame`, committing each migration whose stall ends in it. A stalled
    /// tile keeps `stall_power_fraction` of its dynamic power (the clocks
    /// are not gated) and burns its share of the transfer energy.
    fn fill(
        &mut self,
        frame: &mut [f64],
        fi: usize,
        mut events: Option<&mut Vec<TraceEvent>>,
    ) -> Result<(), CoreError> {
        let (dt, spf) = (self.params.dt, self.params.stall_power_fraction);
        frame.fill(0.0);
        let mut remaining = dt;
        while remaining > 1e-15 {
            let m = &self.priced[self.pending];
            let stall_s = m.cost.stall_seconds;
            let stalled = self.tau >= self.period_s;
            let end = self.period_s + if stalled { stall_s } else { 0.0 };
            let seg = remaining.min(end - self.tau);
            let w = seg / dt;
            for ((fp, p), t) in frame.iter_mut().zip(&self.placement).zip(&m.transfer_j) {
                *fp += if stalled {
                    w * (spf * p + t / stall_s)
                } else {
                    w * p
                };
            }
            self.tau += seg;
            remaining -= seg;
            if !stalled || end - self.tau >= 1e-12 {
                continue;
            }
            // Commit: the workload at tile t moves to scheme(t).
            let (mesh, scheme) = (self.chip.mesh(), m.cost.plan.scheme);
            let mut next = vec![0.0; self.placement.len()];
            for (tile, &p) in self.placement.iter().enumerate() {
                let c = scheme.apply(mesh.coord(hotnoc_noc::NodeId::new(tile as u16)), mesh);
                next[mesh.node_id(c).expect("on mesh").index()] = p;
            }
            self.placement = next;
            self.tau = 0.0;
            self.stalled_s += stall_s;
            self.schedule.push(scheme);
            if let Some(ev) = events.as_deref_mut() {
                let elapsed = fi as f64 * dt + (dt - remaining);
                let cycle = (elapsed * self.chip.noc_config().clock_hz).round() as u64;
                ev.push(TraceEvent::PolicyDecision {
                    cycle,
                    decision: self.schedule.len() as u64,
                    scheme: scheme.to_string(),
                });
                ev.push(m.cost.plan.trace_event(cycle, m.cost.energy_j));
            }
            self.decide()?;
        }
        Ok(())
    }

    /// Σ stall / Σ (period + stall) over the committed migrations; 0 when
    /// none was committed.
    pub(crate) fn throughput_penalty(&self) -> f64 {
        match self.schedule.len() {
            0 => 0.0,
            m => self.stalled_s / (m as f64 * self.period_s + self.stalled_s),
        }
    }
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
    Ok(rc_model::peak(&base) - rc_model::peak(&migrated))
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

    /// Drives the migration clock alone over the horizon of `params` and
    /// checks the dynamic energy it integrated (Σ frame power × dt) against
    /// the energy its committed migrations are charged, plus the open
    /// super-period's share. Returns the committed schedule.
    fn assert_energy_balance(
        chip: &Chip,
        cal: &CalibratedPower,
        params: &CosimParams,
        policy: Policy,
    ) -> Vec<MigrationScheme> {
        let mut clock = Migrations::new(chip, cal, params, policy).unwrap();
        let mut frame = vec![0.0; cal.dynamic.len()];
        let mut integrated = 0.0;
        for fi in 0..params.frames() {
            clock.fill(&mut frame, fi, None).unwrap();
            integrated += frame.iter().sum::<f64>() * params.dt;
        }
        let energy_j = |scheme: MigrationScheme| {
            let m = clock.priced.iter().find(|m| m.cost.plan.scheme == scheme);
            m.unwrap().cost.energy_j
        };
        let decoding = clock.period_s * cal.total_dynamic;
        let committed: f64 = clock.schedule.iter().map(|&s| decoding + energy_j(s)).sum();
        let pending = &clock.priced[clock.pending];
        let decoded = clock.tau.min(clock.period_s);
        let open = decoded * cal.total_dynamic
            + (clock.tau - decoded) / pending.cost.stall_seconds * pending.cost.energy_j;
        let expected = committed + open;
        assert!(
            ((integrated - expected) / expected).abs() <= 1e-9,
            "integrated {integrated} J, charged {expected} J over {} migrations",
            clock.schedule.len()
        );
        clock.schedule
    }

    #[test]
    fn integrated_dynamic_energy_is_what_the_migrations_are_charged() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let params = CosimParams::quick();
        for scheme in MigrationScheme::FIGURE1 {
            let policy = Box::new(move |_: &[f64]| Ok(scheme));
            let schedule = assert_energy_balance(&chip, &cal, &params, policy);
            assert!(!schedule.is_empty(), "{scheme}: no migration committed");
        }
        let pick = Box::new(|power: &[f64]| crate::adaptive::pick_scheme(&chip, power, &params));
        let adaptive = assert_energy_balance(&chip, &cal, &params, pick);
        for scheme in [
            MigrationScheme::XTranslation { offset: 1 },
            MigrationScheme::Rotation,
        ] {
            assert!(adaptive.contains(&scheme), "{scheme} unused: {adaptive:?}");
        }
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
