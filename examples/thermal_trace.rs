//! Records a transient thermal trace of configuration E under rotation and
//! under X-Y shift, showing why rotation cannot cool a centre hotspot on an
//! odd mesh (§3 of the paper): the centre tile is a fixed point of the
//! rotation, so its temperature barely moves, while the X-Y shift walks the
//! hot workload across the die.
//!
//! Run with: `cargo run --example thermal_trace`
//! Writes `thermal_trace_<scheme>.csv` next to the binary.

use hotnoc::core::chip::Chip;
use hotnoc::core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc::core::report::heatmap_ascii;
use hotnoc::power::leakage;
use hotnoc::reconfig::{MigrationScheme, OrbitDecomposition};
use hotnoc::thermal::{Integrator, TransientSim};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut chip = Chip::build(ChipSpec::of(ChipConfigId::E, Fidelity::Quick))?;
    let cal = chip.calibrate()?;
    let base = chip.steady_with_leakage(&cal.dynamic)?;
    println!("Config E static temperatures (hotspot at the centre):");
    println!("{}", heatmap_ascii(&base, 5, 5));

    for scheme in [MigrationScheme::Rotation, MigrationScheme::XYShift] {
        let frames = simulate(&chip, &cal.dynamic, scheme)?;
        let (block, peak) = frames
            .iter()
            .flat_map(|f| f.iter().copied().enumerate())
            .fold((0, f64::NEG_INFINITY), |best, (i, t)| {
                if t > best.1 {
                    (i, t)
                } else {
                    best
                }
            });
        println!(
            "{scheme}: peak over {:.1} ms trace = {peak:.2} C (block {block} hottest)",
            frames.len() as f64 * DT * 1e3,
        );
        let mut csv = String::from("time_s");
        for b in 0..cal.dynamic.len() {
            csv.push_str(&format!(",block{b}"));
        }
        for (i, frame) in frames.iter().enumerate() {
            csv.push_str(&format!("\n{:.9}", i as f64 * DT));
            for t in frame {
                csv.push_str(&format!(",{t:.4}"));
            }
        }
        csv.push('\n');
        let path = format!(
            "thermal_trace_{}.csv",
            scheme.to_string().to_lowercase().replace([' ', '-'], "_")
        );
        std::fs::write(&path, csv)?;
        println!("  trace written to {path}");
    }

    // The mechanism, analytically: the time-averaged power map.
    println!("\nTime-averaged power under rotation (centre unchanged):");
    let rot_avg = OrbitDecomposition::new(MigrationScheme::Rotation, chip.mesh())
        .time_averaged_power(&cal.dynamic);
    println!("{}", heatmap_ascii(&rot_avg, 5, 5));
    println!("Time-averaged power under X-Y shift (centre dispersed):");
    let xys_avg = OrbitDecomposition::new(MigrationScheme::XYShift, chip.mesh())
        .time_averaged_power(&cal.dynamic);
    println!("{}", heatmap_ascii(&xys_avg, 5, 5));
    Ok(())
}

/// Thermal frame period of the trace, seconds.
const DT: f64 = 10e-6;

/// A hand-rolled migration loop over the raw thermal API (the `cosim`
/// module packages this; the example shows the moving parts). Returns the
/// block temperatures of every frame.
fn simulate(
    chip: &Chip,
    dynamic: &[f64],
    scheme: MigrationScheme,
) -> Result<Vec<Vec<f64>>, Box<dyn std::error::Error>> {
    let mesh = chip.mesh();
    let period = 100e-6;
    let mut sim = TransientSim::new(chip.thermal(), DT, Integrator::BackwardEuler)?;
    sim.init_from_steady(dynamic)?;
    let mut frames = Vec::new();
    let areas = chip.tile_areas_mm2();

    let order = scheme.order(mesh);
    let mut k = 0usize;
    let mut since_migration = 0.0;
    for _ in 0..800 {
        // Power map for the current migration state.
        let mut power = vec![0.0; dynamic.len()];
        for (tile, &d) in dynamic.iter().enumerate() {
            let c = mesh.coord(hotnoc::noc::NodeId::new(tile as u16));
            let dst = scheme.apply_k(c, mesh, k % order);
            power[mesh.node_id(dst)?.index()] = d;
        }
        let leak = leakage::leakage_per_block(&areas, sim.block_temps(), chip.tech());
        for (p, l) in power.iter_mut().zip(&leak) {
            *p += l;
        }
        sim.step(&power)?;
        frames.push(sim.block_temps().to_vec());
        since_migration += DT;
        if since_migration >= period {
            since_migration = 0.0;
            k += 1;
        }
    }
    Ok(frames)
}
