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
//! policies alike, so a migration costs the same heat under either. It
//! steps up to [`LANES`] jobs of one chip at once ([`run_cosim_group`]),
//! each with its own migration clock, policy, leakage, runaway check,
//! trace and statistics; a single job is its one-lane instance, and a
//! job's bytes do not depend on the jobs it shares a group with.

use crate::adaptive::{pick_scheme, AdaptiveResult};
use crate::chip::{check_runaway, CalibratedPower, Chip};
use crate::error::CoreError;
use hotnoc_obs::TraceEvent;
use hotnoc_power::leakage::leakage_power;
use hotnoc_reconfig::phases::PhaseCostModel;
use hotnoc_reconfig::{MigrationPlan, MigrationScheme, OrbitDecomposition, StateSpec};
use hotnoc_thermal::{rc_model, ThresholdWatcher, TransientLanes};
use std::array;

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
    /// Throughput penalty: stall / (period + stall) of the scheme; 0 when
    /// the horizon committed no migration.
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
    let _t = hotnoc_obs::prof::scope("reconfig/plan");
    let mesh = chip.mesh();
    let plan = MigrationPlan::plan(
        mesh,
        scheme,
        &StateSpec::default(),
        &PhaseCostModel::default(),
    );
    let stall_seconds = chip.noc_config().cycles_to_seconds(plan.total_cycles());
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
/// for `None`): a one-job [`run_cosim_group`] call, untraced.
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
    let Some(scheme) = scheme else {
        // Static baseline: leakage-coupled steady state.
        let base_temps = chip.steady_with_leakage(&cal.dynamic)?;
        let (base_peak, base_mean) = (rc_model::peak(&base_temps), mean_of(&base_temps));
        return Ok(CosimResult {
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
    let job = CosimJob {
        policy: LanePolicy::Periodic(scheme),
        params: *params,
        events: None,
    };
    match run_cosim_group(chip, cal, vec![job])
        .pop()
        .expect("one result per job")?
    {
        CosimOutcome::Periodic(r) => Ok(r),
        CosimOutcome::Adaptive(_) => unreachable!("a periodic job has a periodic outcome"),
    }
}

/// The most jobs [`run_cosim_group`] steps at once.
pub const LANES: usize = 4;

/// How a co-simulated job picks its migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePolicy {
    /// Every migration uses this scheme, as in [`run_cosim`].
    Periodic(MigrationScheme),
    /// [`pick_scheme`] names each migration, as in
    /// [`crate::run_adaptive_cosim`].
    Adaptive,
}

/// One job of a [`run_cosim_group`] call.
#[derive(Debug)]
pub struct CosimJob<'e> {
    /// The migration policy.
    pub policy: LanePolicy,
    /// The job's parameters. Every job of a group shares `dt` and
    /// [`CosimParams::frames`]; the rest may differ.
    pub params: CosimParams,
    /// Trace buffer. When one is supplied, every migration commit records
    /// a [`TraceEvent::PolicyDecision`] and the plan's
    /// [`TraceEvent::Migration`] (via [`MigrationPlan::trace_event`]), and
    /// a [`ThresholdWatcher`] at [`TRACE_TEMP_THRESHOLD_C`] turns the
    /// thermal frames into [`TraceEvent::TempCrossing`] events. Cycles are
    /// derived from elapsed simulated time at the NoC clock, so the trace is
    /// deterministic whenever the run is. The simulation itself is
    /// identical with or without tracing.
    pub events: Option<&'e mut Vec<TraceEvent>>,
}

/// What one job of a [`run_cosim_group`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CosimOutcome {
    /// A [`LanePolicy::Periodic`] job's result.
    Periodic(CosimResult),
    /// A [`LanePolicy::Adaptive`] job's result.
    Adaptive(AdaptiveResult),
}

/// Co-simulates `jobs` on one chip, [`LANES`] at a time in lockstep
/// through one backward-Euler kernel, and returns each job's result in
/// order. Each result is exactly what the job returns in a group of its
/// own, trace included: a job that fails ends with its own error and leaves
/// the others' bytes as they were.
///
/// # Panics
///
/// If the jobs of one lockstep group differ in `dt` or frame count, or
/// hold no thermal frame.
pub fn run_cosim_group(
    chip: &Chip,
    cal: &CalibratedPower,
    jobs: Vec<CosimJob<'_>>,
) -> Vec<Result<CosimOutcome, CoreError>> {
    let mut out = Vec::with_capacity(jobs.len());
    let mut jobs = jobs.into_iter().peekable();
    while jobs.peek().is_some() {
        let group: Vec<CosimJob> = jobs.by_ref().take(LANES).collect();
        match group.len() {
            1 => out.extend(lockstep::<1>(chip, cal, group)),
            2 => out.extend(lockstep::<2>(chip, cal, group)),
            3 => out.extend(lockstep::<3>(chip, cal, group)),
            _ => out.extend(lockstep::<LANES>(chip, cal, group)),
        }
    }
    out
}

/// Runs a group of exactly `L` jobs and assembles each job's result.
fn lockstep<const L: usize>(
    chip: &Chip,
    cal: &CalibratedPower,
    jobs: Vec<CosimJob<'_>>,
) -> [Result<CosimOutcome, CoreError>; L] {
    let jobs: [CosimJob; L] = jobs.try_into().expect("a group of L jobs");
    // The static baseline each result is measured against, solved once.
    let base = chip.steady_with_leakage(&cal.dynamic);
    let bases = jobs.each_ref().map(|_| base.clone());
    let shapes = jobs.each_ref().map(|j| (j.policy, j.params));
    let timer = hotnoc_obs::prof::scope("core/cosim");
    let runs = co_simulate(
        chip,
        cal,
        jobs.map(|job| {
            let params = job.params;
            let policy: Policy = match job.policy {
                LanePolicy::Periodic(scheme) => Box::new(move |_: &[f64]| Ok(scheme)),
                LanePolicy::Adaptive => {
                    Box::new(move |power: &[f64]| pick_scheme(chip, power, &params))
                }
            };
            (params, policy, job.events)
        }),
    );
    drop(timer);
    let mut lanes = bases.into_iter().zip(runs).zip(shapes);
    array::from_fn(|_| {
        let ((base, run), (policy, params)) = lanes.next().expect("one entry per lane");
        Ok(outcome(cal, policy, &params, base?, run?))
    })
}

/// A finished lane's result against the static baseline `base_temps`.
fn outcome(
    cal: &CalibratedPower,
    policy: LanePolicy,
    params: &CosimParams,
    base_temps: Vec<f64>,
    (peak, mean, migrations): (f64, f64, Migrations<'_>),
) -> CosimOutcome {
    let base_peak = rc_model::peak(&base_temps);
    match policy {
        LanePolicy::Periodic(_) => {
            let period_s = cal.block_seconds * params.period_blocks as f64;
            let cost = &migrations.priced[0].cost;
            let committed = migrations.schedule.len() as u64;
            CosimOutcome::Periodic(CosimResult {
                base_peak,
                peak,
                reduction: base_peak - peak,
                mean_temp: mean,
                base_mean_temp: mean_of(&base_temps),
                throughput_penalty: match committed {
                    0 => 0.0,
                    _ => cost.stall_seconds / (period_s + cost.stall_seconds),
                },
                stall_seconds: cost.stall_seconds,
                period_seconds: period_s,
                migration_energy_j: cost.energy_j,
                phases: cost.plan.num_phases(),
                migrations: committed,
            })
        }
        LanePolicy::Adaptive => CosimOutcome::Adaptive(AdaptiveResult {
            base_peak,
            peak,
            reduction: base_peak - peak,
            throughput_penalty: migrations.throughput_penalty(),
            schedule: migrations.schedule,
        }),
    }
}

/// Names the next migration's scheme from the current physical per-tile
/// dynamic power map: a fixed scheme, or [`crate::adaptive::pick_scheme`].
type Policy<'c> = Box<dyn FnMut(&[f64]) -> Result<MigrationScheme, CoreError> + 'c>;

/// One job in the frame loop: its migration clock, the power map it
/// feeds the thermal lane, its trace and its post-warm-up statistics.
struct Lane<'c, 'e> {
    migrations: Migrations<'c>,
    power: Vec<f64>,
    events: Option<&'e mut Vec<TraceEvent>>,
    watcher: Option<ThresholdWatcher>,
    /// Frames before the statistics start.
    skip: usize,
    peak: f64,
    sum: f64,
}

/// A lane's outcome: the peak and mean block temperature over the frames
/// after warm-up (°C) and the migration clock, which holds the committed
/// schedule.
type LaneRun<'c> = Result<(f64, f64, Migrations<'c>), CoreError>;

/// The frame loop behind every migration policy, for `L` jobs of one chip
/// in lockstep. Each lane starts at the long-run operating point of its
/// first scheme, or at the static one when its horizon ends before the
/// first migration can commit, and keeps its own clock, policy, leakage,
/// runaway check, watcher and statistics; a lane that fails stops with its
/// own error.
/// Panics if the lanes differ in `dt` or frame count, or hold no frame.
fn co_simulate<'c, const L: usize>(
    chip: &'c Chip,
    cal: &CalibratedPower,
    jobs: [(CosimParams, Policy<'c>, Option<&mut Vec<TraceEvent>>); L],
) -> [LaneRun<'c>; L] {
    let n = cal.dynamic.len();
    let (areas, tech) = (chip.tile_areas_mm2(), chip.tech());
    let (dt, frames) = (jobs[0].0.dt, jobs[0].0.frames());
    assert!(frames > 0, "no thermal frame in the horizon");
    assert!(
        jobs.iter().all(|j| j.0.dt == dt && j.0.frames() == frames),
        "lockstep lanes must share dt and frame count"
    );

    let mut lanes: [Result<Lane, CoreError>; L] = jobs.map(|(params, policy, events)| {
        let migrations = Migrations::new(chip, cal, params, policy)?;
        // The long-run operating point: the time-averaged power the
        // package integrates (active decode, reduced stall power,
        // transfer energy). A horizon shorter than the first super-period
        // never reaches that average, so it starts from the static one.
        let first = &migrations.priced[migrations.pending];
        let (period_s, stall_s) = (migrations.period_s, first.cost.stall_seconds);
        let active_s = period_s + params.stall_power_fraction * stall_s;
        let mut power: Vec<f64> = if (frames as f64 * dt) < period_s + stall_s {
            cal.dynamic.clone()
        } else {
            (cal.dynamic.iter().zip(&first.transfer_j))
                .map(|(p, t)| (p * active_s + t) / (period_s + stall_s))
                .collect()
        };
        let init_temps = chip.steady_with_leakage(&power)?;
        check_runaway(&init_temps)?;
        for ((p, &a), &t) in power.iter_mut().zip(&areas).zip(&init_temps) {
            *p += leakage_power(a, t, tech);
        }
        let watcher = events
            .as_ref()
            .map(|_| ThresholdWatcher::new(TRACE_TEMP_THRESHOLD_C, TRACE_TEMP_HYSTERESIS_C, n));
        Ok(Lane {
            migrations,
            power,
            events,
            watcher,
            skip: ((params.warmup / params.dt).round() as usize).min(frames - 1),
            peak: f64::NEG_INFINITY,
            sum: 0.0,
        })
    });
    let mut sim = TransientLanes::<L>::new(chip.thermal(), dt);
    for (l, slot) in lanes.iter_mut().enumerate() {
        let Ok(lane) = slot else { continue };
        let init = match &mut sim {
            Ok(sim) => sim.init_from_steady(l, &lane.power),
            Err(e) => Err(e.clone()),
        };
        if let Err(e) = init {
            *slot = Err(e.into());
        }
    }

    if let Ok(sim) = &mut sim {
        for fi in 0..frames {
            for (l, slot) in lanes.iter_mut().enumerate() {
                let Ok(lane) = slot else { continue };
                let events = lane.events.as_deref_mut();
                if let Err(e) = lane.migrations.fill(&mut lane.power, fi, events) {
                    *slot = Err(e);
                    continue;
                }
                // Temperature-coupled leakage from the previous frame's state.
                let _t = hotnoc_obs::prof::scope("power/leakage");
                let temps = sim.block_temps(l);
                for ((p, &a), &t) in lane.power.iter_mut().zip(&areas).zip(temps) {
                    *p += leakage_power(a, t, tech);
                }
            }
            let power = array::from_fn(|l| lanes[l].as_ref().ok().map(|lane| &lane.power[..]));
            let stepped = sim.step(power);
            for ((l, slot), step) in lanes.iter_mut().enumerate().zip(stepped) {
                let Ok(lane) = slot else { continue };
                let temps = sim.block_temps(l);
                if let Err(e) = step
                    .map_err(CoreError::from)
                    .and_then(|()| check_runaway(temps))
                {
                    *slot = Err(e);
                    continue;
                }
                if let (Some(ev), Some(w)) = (lane.events.as_deref_mut(), lane.watcher.as_mut()) {
                    let cycle = chip.noc_config().seconds_to_cycles((fi + 1) as f64 * dt);
                    w.observe(cycle, temps, ev);
                }
                if fi >= lane.skip {
                    for &t in temps {
                        lane.peak = lane.peak.max(t);
                        lane.sum += t;
                    }
                }
            }
            if lanes.iter().all(Result::is_err) {
                break;
            }
        }
    }
    lanes.map(|slot| {
        let lane = slot?;
        let mean = lane.sum / ((frames - lane.skip) * n) as f64;
        Ok((lane.peak, mean, lane.migrations))
    })
}

/// One scheme's migration as the frame loop charges it: the §2.2 cost and
/// each tile's share of the state-transfer energy (router hops, conversion), J.
struct Priced {
    cost: MigrationCost,
    transfer_j: Vec<f64>,
    /// The scheme's [`MigrationScheme::permutation`], which each commit applies.
    perm: Vec<usize>,
}

/// The super-period clock: `period_blocks` blocks of decoding on the
/// current placement, the pending migration's stall, then its commit, which
/// moves the workload and asks the policy for the next migration.
struct Migrations<'c> {
    chip: &'c Chip,
    params: CosimParams,
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
    schedule: Vec<MigrationScheme>,
    /// Total stall time of the committed migrations, s.
    stalled_s: f64,
}

impl<'c> Migrations<'c> {
    fn new(
        chip: &'c Chip,
        cal: &CalibratedPower,
        params: CosimParams,
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
            let (mesh, p) = (self.chip.mesh(), &self.params);
            let cost = migration_cost(self.chip, scheme, p, self.total_dynamic);
            let ends = cost.plan.per_tile_endpoint_flits(mesh);
            let transfer_j = (cost.plan.per_tile_flit_hops(mesh).iter().zip(ends))
                .map(|(&h, e)| h as f64 * p.e_flit_hop + e as f64 * p.e_convert_flit)
                .collect();
            self.priced.push(Priced {
                cost,
                transfer_j,
                perm: scheme.permutation(mesh),
            });
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
            let scheme = m.cost.plan.scheme;
            let mut next = vec![0.0; self.placement.len()];
            for (&p, &to) in self.placement.iter().zip(&m.perm) {
                next[to] = p;
            }
            self.placement = next;
            self.tau = 0.0;
            self.stalled_s += stall_s;
            self.schedule.push(scheme);
            if let Some(ev) = events.as_deref_mut() {
                let elapsed = fi as f64 * dt + (dt - remaining);
                let cycle = self.chip.noc_config().seconds_to_cycles(elapsed);
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
    fn throughput_penalty(&self) -> f64 {
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
        let job = CosimJob {
            policy: LanePolicy::Periodic(MigrationScheme::XYShift),
            params,
            events: Some(&mut events),
        };
        let Some(Ok(CosimOutcome::Periodic(traced))) =
            run_cosim_group(&chip, &cal, vec![job]).pop()
        else {
            panic!("a periodic job has a periodic result");
        };
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
    fn grouped_jobs_are_byte_identical_to_each_job_alone() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let quick = CosimParams::quick();
        let slow = CosimParams {
            period_blocks: 96,
            ..quick
        };
        // Transfer energy this large runs away at the first operating point.
        let runaway = CosimParams {
            e_flit_hop: 1e-3,
            ..quick
        };
        let xy = LanePolicy::Periodic(MigrationScheme::XYShift);
        let rot = LanePolicy::Periodic(MigrationScheme::Rotation);
        // Five jobs: a lockstep group of four (one of which fails), then one.
        let jobs = [
            (xy, quick, true),
            (LanePolicy::Adaptive, slow, true),
            (xy, runaway, true),
            (rot, slow, false),
            (LanePolicy::Adaptive, quick, false),
        ];
        let render = |r: &Result<CosimOutcome, CoreError>| match r {
            Ok(o) => format!("{o:?}"),
            Err(e) => format!("error: {e}"),
        };
        let alone: Vec<(String, Vec<TraceEvent>)> = jobs
            .iter()
            .map(|&(policy, params, traced)| {
                let mut events = Vec::new();
                let events_ref = traced.then_some(&mut events);
                let job = CosimJob {
                    policy,
                    params,
                    events: events_ref,
                };
                (render(&run_cosim_group(&chip, &cal, vec![job])[0]), events)
            })
            .collect();
        let mut traces = vec![Vec::new(); jobs.len()];
        let group = jobs
            .iter()
            .zip(&mut traces)
            .map(|(&(policy, params, traced), events)| CosimJob {
                policy,
                params,
                events: traced.then_some(events),
            })
            .collect();
        let grouped = run_cosim_group(&chip, &cal, group);
        assert_eq!(grouped.len(), jobs.len());
        for (l, ((got, trace), (want, want_trace))) in
            grouped.iter().zip(&traces).zip(&alone).enumerate()
        {
            assert_eq!(&render(got), want, "job {l}");
            assert_eq!(trace, want_trace, "job {l} trace");
        }
        assert!(
            alone[2].0.starts_with("error: thermal runaway"),
            "{}",
            alone[2].0
        );
        assert!(alone.iter().filter(|a| a.0.starts_with("error")).count() == 1);
        assert!(!traces[0].is_empty() && !traces[1].is_empty());
        // A periodic job alone is `run_cosim`, an adaptive one
        // `run_adaptive_cosim`.
        let direct = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &quick).unwrap();
        assert_eq!(
            render(&grouped[0]),
            render(&Ok(CosimOutcome::Periodic(direct)))
        );
        let adaptive = crate::adaptive::run_adaptive_cosim(&chip, &cal, &quick).unwrap();
        assert_eq!(
            render(&grouped[4]),
            render(&Ok(CosimOutcome::Adaptive(adaptive)))
        );
    }

    #[test]
    fn a_horizon_shorter_than_one_super_period_reports_no_migration_heat() {
        // Config A at quick fidelity: 200 blocks are a 0.53 ms period, so
        // a 0.3 ms horizon commits no migration under either policy and
        // must read the static baseline's peak.
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let params = CosimParams {
            sim_time: 0.3e-3,
            warmup: 0.15e-3,
            period_blocks: 200,
            ..CosimParams::quick()
        };
        let periodic = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &params).unwrap();
        assert_eq!(periodic.migrations, 0);
        assert!(periodic.reduction.abs() < 1e-9, "{}", periodic.reduction);
        assert_eq!(periodic.throughput_penalty, 0.0);
        let adaptive = crate::adaptive::run_adaptive_cosim(&chip, &cal, &params).unwrap();
        assert!(adaptive.schedule.is_empty(), "{:?}", adaptive.schedule);
        assert!(adaptive.reduction.abs() < 1e-9, "{}", adaptive.reduction);
        assert_eq!(adaptive.throughput_penalty, 0.0);
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
        let mut clock = Migrations::new(chip, cal, *params, policy).unwrap();
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
