//! Quickstart: build the paper's configuration A, calibrate it against the
//! published base temperature, and run a short X-Y-shift migration
//! co-simulation.
//!
//! Run with: `cargo run --example quickstart`

use hotnoc::core::chip::Chip;
use hotnoc::core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc::core::cosim::{run_cosim, CosimParams};
use hotnoc::core::report::heatmap_ascii;
use hotnoc::reconfig::MigrationScheme;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build configuration A: a 4x4 LDPC-decoder NoC (Quick fidelity
    //    keeps this example fast; use Fidelity::Full for paper-scale runs).
    let id = ChipConfigId::A;
    let spec = ChipSpec::of(id, Fidelity::Quick);
    println!(
        "Building config {id}: {}x{} mesh, {}-bit LDPC code, target base peak {:.2} C",
        spec.mesh_side, spec.mesh_side, spec.code_n, spec.base_peak_celsius
    );
    let mut chip = Chip::build(spec)?;

    // 2. Measure switching activity on the cycle-accurate NoC and calibrate
    //    the per-tile power map to the paper's base operating point.
    let cal = chip.calibrate()?;
    println!(
        "Calibrated: block = {} cycles ({:.1} us), chip power = {:.1} W",
        cal.block_cycles,
        cal.block_seconds * 1e6,
        cal.total_dynamic
    );
    println!("\nPer-tile dynamic power (W):");
    println!("{}", heatmap_ascii(&cal.dynamic, 4, 4));

    // 3. Static thermal baseline.
    let base = chip.steady_with_leakage(&cal.dynamic)?;
    println!("Static (no-migration) temperatures (C):");
    println!("{}", heatmap_ascii(&base, 4, 4));

    // 4. Runtime reconfiguration: migrate every decoded block with the
    //    X-Y shift transformation.
    let result = run_cosim(
        &chip,
        &cal,
        Some(MigrationScheme::XYShift),
        &CosimParams::quick(),
    )?;
    println!(
        "X-Y shift migration, period {:.1} us:",
        result.period_seconds * 1e6
    );
    println!("  base peak:          {:.2} C", result.base_peak);
    println!("  migrated peak:      {:.2} C", result.peak);
    println!("  reduction:          {:.2} C", result.reduction);
    println!(
        "  throughput penalty: {:.2} %",
        result.throughput_penalty * 100.0
    );
    println!("  migrations run:     {}", result.migrations);
    Ok(())
}
