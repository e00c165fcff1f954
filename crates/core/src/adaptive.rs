//! Runtime-adaptive migration-function selection.
//!
//! §2.3 of the paper: "the same migration unit can perform all migration
//! functions presented with only minor changes to the mathematical
//! operations, allowing dynamic alteration of the migration function at
//! runtime." This module exploits that hardware capability: instead of
//! committing to one scheme at design time, the controller re-evaluates at
//! every migration point which transform will flatten the *current*
//! physical power map best, using the orbit-average predictor (cheap: a few
//! steady-state solves on a tiny RC network — well within a migration
//! period even for firmware).
//!
//! This is the natural extension of the paper's observation that the best
//! fixed scheme differs per chip (rotation on the 4x4s, translation on the
//! 5x5s): an adaptive policy recovers the best of both without knowing the
//! configuration in advance.

use crate::chip::{CalibratedPower, Chip};
use crate::cosim::{co_simulate, migration_cost, CosimParams};
use crate::error::CoreError;
use hotnoc_obs::TraceEvent;
use hotnoc_reconfig::{MigrationScheme, OrbitDecomposition};
use hotnoc_thermal::rc_model;

/// Outcome of an adaptive co-simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveResult {
    /// Static baseline peak (°C).
    pub base_peak: f64,
    /// Peak under adaptive migration (°C), after warm-up.
    pub peak: f64,
    /// `base_peak - peak` (°C).
    pub reduction: f64,
    /// Sequence of schemes the controller chose (one per migration).
    pub schedule: Vec<MigrationScheme>,
    /// Σ stall / Σ (period + stall) over the committed migrations (0 if none).
    pub throughput_penalty: f64,
}

/// Greedy one-step-lookahead scheme selection: among the applicable
/// transforms, pick the one whose orbit-averaged power map (an upper bound
/// on what sustained use of the scheme can achieve) has the lowest
/// steady-state peak; energy cost breaks ties toward cheaper schemes.
///
/// `current_power` is the *physical* per-tile dynamic map at the decision
/// point.
///
/// # Errors
///
/// Propagates thermal solver failures.
pub fn pick_scheme(
    chip: &Chip,
    current_power: &[f64],
    params: &CosimParams,
) -> Result<MigrationScheme, CoreError> {
    let mesh = chip.mesh();
    let mut best: Option<(f64, MigrationScheme)> = None;
    for scheme in MigrationScheme::FIGURE1 {
        if !scheme.is_applicable(mesh) {
            continue;
        }
        let averaged = OrbitDecomposition::new(scheme, mesh).time_averaged_power(current_power);
        let peak = rc_model::peak(&chip.steady_with_leakage(&averaged)?);
        // Energy tie-breaker: one migration's energy spread over a period,
        // expressed as an equivalent temperature penalty through the
        // package's shared resistance (~0.5 K/W effective).
        let cost = migration_cost(chip, scheme, params, current_power.iter().sum::<f64>());
        let period_s = 100e-6; // nominal period for the tie-break weight
        let penalty_c = 0.5 * cost.energy_j / (period_s + cost.stall_seconds);
        let score = peak + penalty_c;
        if best.is_none_or(|(b, _)| score < b) {
            best = Some((score, scheme));
        }
    }
    Ok(best.expect("at least one applicable scheme").1)
}

/// Runs the transient co-simulation with adaptive scheme selection at every
/// migration point. It is the periodic co-simulation's frame loop with
/// [`pick_scheme`] choosing each migration, so every migration burns the
/// stall and transfer heat of the scheme chosen for it.
///
/// # Errors
///
/// Propagates thermal solver failures and fails with
/// [`CoreError::ThermalRunaway`] when a block passes
/// [`crate::chip::MAX_BLOCK_TEMP_C`].
///
/// # Panics
///
/// If `params` holds no thermal frame ([`CosimParams::frames`]).
pub fn run_adaptive_cosim(
    chip: &Chip,
    cal: &CalibratedPower,
    params: &CosimParams,
) -> Result<AdaptiveResult, CoreError> {
    run_adaptive_cosim_traced(chip, cal, params, None)
}

/// [`run_adaptive_cosim`] with an optional trace buffer: each committed
/// migration records a [`TraceEvent::PolicyDecision`] (ordinal + chosen
/// scheme) and the executed plan's [`TraceEvent::Migration`], and a
/// threshold watcher emits [`TraceEvent::TempCrossing`] events per thermal
/// frame. The simulation is identical with or without tracing.
///
/// # Errors
///
/// As [`run_adaptive_cosim`].
pub fn run_adaptive_cosim_traced(
    chip: &Chip,
    cal: &CalibratedPower,
    params: &CosimParams,
    events: Option<&mut Vec<TraceEvent>>,
) -> Result<AdaptiveResult, CoreError> {
    let base_peak = rc_model::peak(&chip.steady_with_leakage(&cal.dynamic)?);
    let policy = Box::new(|power: &[f64]| pick_scheme(chip, power, params));
    let (peak, _, migrations) = co_simulate(chip, cal, params, policy, events)?;
    Ok(AdaptiveResult {
        base_peak,
        peak,
        reduction: base_peak - peak,
        throughput_penalty: migrations.throughput_penalty(),
        schedule: migrations.schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{ChipConfigId, ChipSpec, Fidelity};
    use crate::cosim::{run_cosim, CosimParams};

    fn chip_and_cal(id: ChipConfigId) -> (Chip, CalibratedPower) {
        let mut chip = Chip::build(ChipSpec::of(id, Fidelity::Quick)).unwrap();
        let cal = chip.calibrate().unwrap();
        (chip, cal)
    }

    #[test]
    fn picks_rotation_class_on_config_a() {
        // A's diagonal texture favours rotation; adaptive should find it.
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let scheme = pick_scheme(&chip, &cal.dynamic, &CosimParams::quick()).unwrap();
        assert!(
            matches!(
                scheme,
                MigrationScheme::Rotation | MigrationScheme::XYMirror
            ),
            "expected a rotation-class scheme on A, got {scheme}"
        );
    }

    #[test]
    fn picks_translation_on_config_e() {
        let (chip, cal) = chip_and_cal(ChipConfigId::E);
        let scheme = pick_scheme(&chip, &cal.dynamic, &CosimParams::quick()).unwrap();
        assert!(
            matches!(
                scheme,
                MigrationScheme::XYShift | MigrationScheme::XTranslation { .. }
            ),
            "expected translation on E's centre hotspot, got {scheme}"
        );
    }

    #[test]
    fn adaptive_matches_best_fixed_scheme() {
        for id in [ChipConfigId::A, ChipConfigId::E] {
            let (chip, cal) = chip_and_cal(id);
            let params = CosimParams::quick();
            let adaptive = run_adaptive_cosim(&chip, &cal, &params).unwrap();
            assert!(!adaptive.schedule.is_empty(), "{id}: no migrations chosen");
            let best_fixed = MigrationScheme::FIGURE1
                .iter()
                .map(|&s| run_cosim(&chip, &cal, Some(s), &params).unwrap().reduction)
                .fold(f64::MIN, f64::max);
            assert!(
                adaptive.reduction > best_fixed - 1.0,
                "{id}: adaptive {:.2} far below best fixed {:.2}",
                adaptive.reduction,
                best_fixed
            );
        }
    }

    #[test]
    fn constant_schedule_is_periodic_migration() {
        // E's centre hotspot makes every decision xy-shift, so the adaptive
        // run must be the periodic xy-shift run, migration heat included.
        let (chip, cal) = chip_and_cal(ChipConfigId::E);
        let params = CosimParams::quick();
        let adaptive = run_adaptive_cosim(&chip, &cal, &params).unwrap();
        let periodic = run_cosim(&chip, &cal, Some(MigrationScheme::XYShift), &params).unwrap();
        assert!(
            adaptive
                .schedule
                .iter()
                .all(|&s| s == MigrationScheme::XYShift),
            "{:?}",
            adaptive.schedule
        );
        assert_eq!(adaptive.schedule.len() as u64, periodic.migrations);
        assert_eq!(adaptive.peak.to_bits(), periodic.peak.to_bits());
        assert_eq!(adaptive.reduction.to_bits(), periodic.reduction.to_bits());
        let rel = (adaptive.throughput_penalty / periodic.throughput_penalty - 1.0).abs();
        assert!(
            rel <= 1e-12,
            "penalty {} vs {}",
            adaptive.throughput_penalty,
            periodic.throughput_penalty
        );
    }

    #[test]
    fn traced_adaptive_emits_one_decision_per_migration() {
        let (chip, cal) = chip_and_cal(ChipConfigId::A);
        let params = CosimParams::quick();
        let plain = run_adaptive_cosim(&chip, &cal, &params).unwrap();
        let mut events = Vec::new();
        let traced = run_adaptive_cosim_traced(&chip, &cal, &params, Some(&mut events)).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let decisions: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                hotnoc_obs::TraceEvent::PolicyDecision { scheme, .. } => Some(scheme.as_str()),
                _ => None,
            })
            .collect();
        let expected: Vec<String> = traced.schedule.iter().map(|s| s.to_string()).collect();
        assert_eq!(decisions, expected, "one decision per scheduled migration");
        assert_eq!(
            events.iter().filter(|e| e.kind() == "migration").count(),
            traced.schedule.len()
        );
    }

    #[test]
    fn adaptive_schedule_is_consistent() {
        let (chip, cal) = chip_and_cal(ChipConfigId::D);
        let params = CosimParams::quick();
        let a = run_adaptive_cosim(&chip, &cal, &params).unwrap();
        let b = run_adaptive_cosim(&chip, &cal, &params).unwrap();
        assert_eq!(
            a.schedule, b.schedule,
            "adaptive policy must be deterministic"
        );
    }
}
