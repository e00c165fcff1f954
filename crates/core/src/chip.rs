//! Chip assembly: workload, activity measurement, power derivation and
//! calibration against the paper's base temperatures.

use crate::configs::ChipSpec;
use crate::error::CoreError;
use hotnoc_ldpc::app::{ComputeModel, LdpcNocApp};
use hotnoc_ldpc::schedule::MessageParams;
use hotnoc_ldpc::{ClusterMapping, LdpcCode};
use hotnoc_noc::{Mesh, Network, NocConfig};
use hotnoc_power::{leakage, pe_power, router_power, TechParams};
use hotnoc_thermal::{rc_model, Floorplan, PackageConfig, RcNetwork};

/// The paper's functional-unit area: 4.36 mm² per PE tile.
pub const TILE_AREA_M2: f64 = 4.36e-6;

/// Highest block temperature (°C) at which the models mean anything. The
/// leakage model clamps its input here, and a co-simulation that passes it
/// fails with [`CoreError::ThermalRunaway`] instead of recording a number.
pub const MAX_BLOCK_TEMP_C: f64 = 250.0;

/// Fails with [`CoreError::ThermalRunaway`] when a block of `temps` is
/// above [`MAX_BLOCK_TEMP_C`] or not a number.
pub(crate) fn check_runaway(temps: &[f64]) -> Result<(), CoreError> {
    match temps.iter().find(|&&t| t.is_nan() || t > MAX_BLOCK_TEMP_C) {
        Some(&temp) => Err(CoreError::ThermalRunaway { temp }),
        None => Ok(()),
    }
}

/// A fully assembled chip configuration ready for co-simulation.
#[derive(Debug)]
pub struct Chip {
    spec: ChipSpec,
    mesh: Mesh,
    thermal: RcNetwork,
    tech: TechParams,
    noc_cfg: NocConfig,
    app: LdpcNocApp,
}

/// The calibrated per-tile power model of a chip configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedPower {
    /// Dynamic power per tile (W), scaled so the steady-state peak
    /// (including leakage) hits the configuration's base temperature.
    pub dynamic: Vec<f64>,
    /// The scale factor applied to the raw activity-derived powers.
    pub scale: f64,
    /// Cycles per decoded block measured on the cycle-accurate NoC.
    pub block_cycles: u64,
    /// Seconds per decoded block at the configured clock.
    pub block_seconds: f64,
    /// Total calibrated dynamic chip power (W).
    pub total_dynamic: f64,
}

impl Chip {
    /// Builds the chip: LDPC code, weighted cluster mapping, NoC
    /// application, floorplan and thermal network.
    ///
    /// # Errors
    ///
    /// Propagates construction failures from the substrates.
    pub fn build(spec: ChipSpec) -> Result<Chip, CoreError> {
        let _t = hotnoc_obs::prof::scope("core/chip_build");
        let mesh = Mesh::square(spec.mesh_side)?;
        let code = LdpcCode::gallager(spec.code_n, spec.wc, spec.wr, spec.seed)?;
        let mapping = ClusterMapping::weighted(&code, &spec.tile_weights)?;
        let app = LdpcNocApp::new(
            code,
            mapping,
            LdpcNocApp::identity_placement(spec.n_tiles()),
            MessageParams::default(),
            ComputeModel::default(),
        )?;
        let plan = Floorplan::mesh_grid(spec.mesh_side, spec.mesh_side, TILE_AREA_M2)?;
        let thermal = RcNetwork::build(&plan, &PackageConfig::date05_defaults())?;
        Ok(Chip {
            spec,
            mesh,
            thermal,
            tech: TechParams::ldpc_160nm(),
            noc_cfg: NocConfig::default(),
            app,
        })
    }

    /// The configuration specification.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// The mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The thermal network.
    pub fn thermal(&self) -> &RcNetwork {
        &self.thermal
    }

    /// The technology parameters.
    pub fn tech(&self) -> &TechParams {
        &self.tech
    }

    /// The NoC configuration (clock, buffering, link latency).
    pub fn noc_config(&self) -> &NocConfig {
        &self.noc_cfg
    }

    /// Per-tile areas in mm² (uniform grid).
    pub fn tile_areas_mm2(&self) -> Vec<f64> {
        vec![TILE_AREA_M2 * 1e6; self.spec.n_tiles()]
    }

    /// Runs one block on a fresh cycle-accurate NoC, prices each router's
    /// own activity counters and each PE's operations as per-tile dynamic
    /// power over the block, and calibrates its scale so the steady-state
    /// peak (with temperature-coupled leakage) equals the configuration's
    /// base peak temperature — the paper's measured operating point.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Noc`] if the block simulation fails to drain.
    /// * [`CoreError::CalibrationFailed`] if no scale reaches the target.
    pub fn calibrate(&mut self) -> Result<CalibratedPower, CoreError> {
        let mut net = Network::new(self.mesh, self.noc_cfg);
        let iterations = self.spec.iterations;
        let run = {
            let _t = hotnoc_obs::prof::scope("core/calibrate/noc_block");
            self.app.run_block(&mut net, iterations)?
        };
        let block_seconds = self.noc_cfg.cycles_to_seconds(run.cycles);

        // Raw per-tile dynamic power over the block window. The network is
        // fresh, so each router's counters hold exactly this block.
        let raw: Vec<f64> = self
            .mesh
            .iter_nodes()
            .zip(&run.ops_per_node)
            .map(|(id, &ops)| {
                let act = net.router(id).activity();
                router_power::router_dynamic_power(&act, block_seconds, &self.tech)
                    + pe_power::pe_dynamic_power(ops, block_seconds, &self.tech)
            })
            .collect();

        let target = self.spec.base_peak_celsius;
        let scale = {
            let _t = hotnoc_obs::prof::scope("core/calibrate/bisect");
            self.solve_scale(&raw, target)?
        };
        let dynamic: Vec<f64> = raw.iter().map(|p| p * scale).collect();
        let total_dynamic = dynamic.iter().sum();
        Ok(CalibratedPower {
            dynamic,
            scale,
            block_cycles: run.cycles,
            block_seconds,
            total_dynamic,
        })
    }

    /// Steady-state block temperatures under `dynamic` power plus
    /// temperature-coupled leakage (fixed-point iteration). Leakage input
    /// temperatures are clamped at [`MAX_BLOCK_TEMP_C`] as a numerical
    /// guard — the exponential model is only meaningful in the operating
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Thermal`] on a malformed power vector.
    pub fn steady_with_leakage(&self, dynamic: &[f64]) -> Result<Vec<f64>, CoreError> {
        let areas = self.tile_areas_mm2();
        let mut temps = self.thermal.steady_state(dynamic)?;
        for _ in 0..6 {
            let clamped: Vec<f64> = temps.iter().map(|t| t.min(MAX_BLOCK_TEMP_C)).collect();
            let leak = leakage::leakage_per_block(&areas, &clamped, &self.tech);
            let total: Vec<f64> = dynamic.iter().zip(&leak).map(|(d, l)| d + l).collect();
            temps = self.thermal.steady_state(&total)?;
        }
        Ok(temps)
    }

    /// Bisects the dynamic-power scale so the leakage-coupled steady peak
    /// hits `target` °C. The bracket is seeded from the leakage-free
    /// solution, which is exact by linearity of the RC network.
    fn solve_scale(&self, raw: &[f64], target: f64) -> Result<f64, CoreError> {
        let peak_at = |s: f64| -> Result<f64, CoreError> {
            let dynamic: Vec<f64> = raw.iter().map(|p| p * s).collect();
            Ok(rc_model::peak(&self.steady_with_leakage(&dynamic)?))
        };
        let amb = self.thermal.ambient();
        let peak1 = rc_model::peak(&self.thermal.steady_state(raw)?);
        // NaN peaks must land in the error arm, hence the negated > rather
        // than <=.
        let bracket_ok = peak1 > amb && target > amb;
        if !bracket_ok {
            return Err(CoreError::CalibrationFailed {
                target,
                achieved: peak1,
            });
        }
        // Leakage only adds heat, so the true scale is at most the
        // leakage-free estimate.
        let s0 = (target - amb) / (peak1 - amb);
        let (mut lo, mut hi) = (s0 / 10.0, s0 * 1.5);
        let (p_lo, p_hi) = (peak_at(lo)?, peak_at(hi)?);
        if !(p_lo <= target && target <= p_hi) {
            return Err(CoreError::CalibrationFailed {
                target,
                achieved: if target < p_lo { p_lo } else { p_hi },
            });
        }
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            // Once the midpoint rounds onto an end, no later step moves
            // the bracket off it: the answer is `mid` already.
            if mid == lo || mid == hi {
                return Ok(mid);
            }
            if peak_at(mid)? < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{ChipConfigId, Fidelity};

    #[test]
    fn quick_chip_calibrates_to_target() {
        let spec = ChipSpec::of(ChipConfigId::A, Fidelity::Quick);
        let target = spec.base_peak_celsius;
        let mut chip = Chip::build(spec).unwrap();
        let cal = chip.calibrate().unwrap();
        let temps = chip.steady_with_leakage(&cal.dynamic).unwrap();
        let peak = temps.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (peak - target).abs() < 0.05,
            "calibrated peak {peak} vs target {target}"
        );
        assert!(cal.block_cycles > 0);
        assert!(cal.total_dynamic > 1.0, "chip should burn watts");
    }

    #[test]
    fn warm_band_row_is_hottest_in_power() {
        let spec = ChipSpec::of(ChipConfigId::B, Fidelity::Quick);
        let band = spec.warm_band_row();
        let n = spec.mesh_side;
        let mut chip = Chip::build(spec).unwrap();
        let cal = chip.calibrate().unwrap();
        let row_power = |r: usize| -> f64 { cal.dynamic[r * n..(r + 1) * n].iter().sum() };
        for row in 0..n {
            if row != band {
                assert!(
                    row_power(band) > row_power(row),
                    "band row {band} not hottest"
                );
            }
        }
    }

    /// Stopping once the midpoint rounds onto an end of the bracket
    /// returns the scale all 60 bisection steps reach, bit for bit.
    #[test]
    fn solve_scale_matches_sixty_bisection_steps() {
        let sixty_steps = |chip: &Chip, raw: &[f64], target: f64| {
            let peak_at = |s: f64| {
                let dynamic: Vec<f64> = raw.iter().map(|p| p * s).collect();
                rc_model::peak(&chip.steady_with_leakage(&dynamic).unwrap())
            };
            let amb = chip.thermal.ambient();
            let peak1 = rc_model::peak(&chip.thermal.steady_state(raw).unwrap());
            let s0 = (target - amb) / (peak1 - amb);
            let (mut lo, mut hi) = (s0 / 10.0, s0 * 1.5);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if peak_at(mid) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let weights = (0..36).map(|i| 0.7 + (i % 5) as f64 * 0.4).collect();
        let custom = ChipSpec::custom(6, weights, 80.0, Fidelity::Quick);
        let specs = ChipConfigId::ALL
            .iter()
            .map(|&id| ChipSpec::of(id, Fidelity::Quick))
            .chain([custom]);
        for spec in specs {
            let (side, target) = (spec.mesh_side, spec.base_peak_celsius);
            let mut chip = Chip::build(spec).unwrap();
            let cal = chip.calibrate().unwrap();
            let raw: Vec<f64> = cal.dynamic.iter().map(|p| p / cal.scale).collect();
            let scale = chip.solve_scale(&raw, target).unwrap();
            assert_eq!(
                scale.to_bits(),
                sixty_steps(&chip, &raw, target).to_bits(),
                "{side}x{side} die at {target} C"
            );
        }
    }

    #[test]
    fn five_by_five_builds() {
        let spec = ChipSpec::of(ChipConfigId::E, Fidelity::Quick);
        let mut chip = Chip::build(spec).unwrap();
        let cal = chip.calibrate().unwrap();
        assert_eq!(cal.dynamic.len(), 25);
        // Centre tile carries the most dynamic power for config E.
        let hottest = cal
            .dynamic
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(hottest, 12);
    }
}
