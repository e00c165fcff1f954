//! Regenerates the §2.1–2.2 migration cost analysis: congestion-free
//! phases, deterministic stall time, state-transfer flit-hops and energy per
//! migration event, for both chip sizes.
//!
//! Paper reference points: migration is congestion free, deterministic in
//! time, and the rotational migration has the largest energy penalty.
//!
//! A thin wrapper over the built-in `migration-cost` campaign (plan-cost
//! mode: no transient solve). Leaves `CAMPAIGN_migration-cost.json` and a
//! CSV per chip. Exits non-zero on failure.

use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_scenario::builtin::builtin;
use hotnoc_scenario::exhibits;
use hotnoc_scenario::runner::{run_campaign, RunnerOptions};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let fidelity = if quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };
    let spec = builtin("migration-cost", fidelity).expect("migration-cost is a builtin");
    let run = run_campaign(
        &spec,
        &RunnerOptions {
            progress: true,
            ..RunnerOptions::default()
        },
    )?;
    for (id, label) in [(ChipConfigId::A, "4x4 chip"), (ChipConfigId::E, "5x5 chip")] {
        let rows =
            exhibits::migration_cost_rows(&run.completed, id).map_err(std::io::Error::other)?;
        println!("Migration cost — {label} (config {id}):");
        println!("{}", exhibits::migration_cost_ascii(&rows));
        let rot = &rows[0].1;
        let max_other = rows[1..]
            .iter()
            .map(|(_, r)| r.energy_uj)
            .fold(f64::MIN, f64::max);
        println!(
            "Rotation energy {:.1} uJ vs best-of-others {:.1} uJ (paper: rotation largest)\n",
            rot.energy_uj, max_other
        );
        hotnoc_bench::save(
            &format!("migration_cost_{id}.csv"),
            &exhibits::migration_cost_csv(&rows),
        )?;
    }
    Ok(())
}
