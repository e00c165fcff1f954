//! Fast end-to-end smoke test: one short co-simulation per chip
//! configuration A–E. Guards the whole pipeline (NoC → LDPC workload →
//! power → thermal → reconfiguration) without the cost of the full
//! paper-exhibit runs.

use hotnoc::core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc::core::{run_cosim, Chip, CosimParams};
use hotnoc::reconfig::MigrationScheme;

#[test]
fn every_chip_config_runs_and_migration_cools() {
    for id in ChipConfigId::ALL {
        let out = Chip::build(ChipSpec::of(id, Fidelity::Quick))
            .and_then(|mut chip| {
                let cal = chip.calibrate()?;
                run_cosim(
                    &chip,
                    &cal,
                    Some(MigrationScheme::XYShift),
                    &CosimParams::quick(),
                )
            })
            .unwrap_or_else(|e| panic!("config {id:?} failed: {e}"));
        assert!(
            out.base_peak.is_finite(),
            "config {id:?}: non-finite base peak"
        );
        assert!(
            out.base_peak > 40.0,
            "config {id:?}: base peak {:.1} °C not above ambient",
            out.base_peak
        );
        assert!(
            out.reduction.is_finite() && out.reduction > 0.0,
            "config {id:?}: migration should reduce the peak, got {:.2} °C",
            out.reduction
        );
        assert!(
            out.reduction < out.base_peak,
            "config {id:?}: reduction {:.1} exceeds the peak itself",
            out.reduction
        );
        assert!(
            out.throughput_penalty > 0.0,
            "config {id:?}: migration should cost throughput"
        );
    }
}
