//! Regenerates **Figure 1** of the paper: reduction in peak temperature per
//! configuration (A–E) under each migration scheme, plus the §3 averages.
//!
//! Since the campaign engine landed this binary is a thin wrapper over the
//! built-in `fig1` campaign: the sweep runs in parallel (respecting
//! `HOTNOC_THREADS`), journals to `CAMPAIGN_fig1.manifest.jsonl` in the
//! working directory — so a killed run resumes where it stopped — and
//! leaves the machine-readable `CAMPAIGN_fig1.json` next to `fig1.csv`.
//!
//! Usage:
//!   report_fig1            # full transient co-simulation (the figure)
//!   report_fig1 --predict  # fast orbit-average predictor only
//!   report_fig1 --quick    # reduced-fidelity smoke run
//!
//! Exits non-zero if the sweep fails or an artifact cannot be written.

use hotnoc_core::configs::{ChipConfigId, ChipSpec, Fidelity};
use hotnoc_core::cosim::predicted_reduction;
use hotnoc_core::report::{self, Fig1Row, Fig1Table};
use hotnoc_core::Chip;
use hotnoc_reconfig::MigrationScheme;
use hotnoc_scenario::builtin::builtin;
use hotnoc_scenario::exhibits;
use hotnoc_scenario::runner::{run_campaign, RunnerOptions};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let predict_only = args.iter().any(|a| a == "--predict");
    let quick = args.iter().any(|a| a == "--quick");
    let fidelity = if quick {
        Fidelity::Quick
    } else {
        Fidelity::Full
    };

    if predict_only {
        run_predictor(fidelity)?;
        return Ok(());
    }

    let spec = builtin("fig1", fidelity).expect("fig1 is a builtin");
    let run = run_campaign(
        &spec,
        &RunnerOptions {
            progress: true,
            ..RunnerOptions::default()
        },
    )?;
    let table = exhibits::fig1_table(&run.completed).map_err(std::io::Error::other)?;
    println!("{}", report::fig1_ascii(&table));
    print_notes(&table);
    hotnoc_bench::save("fig1.csv", &report::fig1_csv(&table))?;
    Ok(())
}

fn run_predictor(fidelity: Fidelity) -> Result<(), Box<dyn Error>> {
    println!("Orbit-average predictor (upper bound, no migration energy):");
    println!(
        "{:<14}{:>10}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "Config", "block us", "Rot", "X Mirror", "X-Y Mirror", "Right Shift", "X-Y Shift"
    );
    for id in ChipConfigId::ALL {
        let mut chip = Chip::build(ChipSpec::of(id, fidelity))?;
        let cal = chip.calibrate()?;
        print!(
            "{:<14}{:>10.1}",
            format!("{} ({:.2})", id, chip.spec().base_peak_celsius),
            cal.block_seconds * 1e6
        );
        for scheme in MigrationScheme::FIGURE1 {
            let r = predicted_reduction(&chip, &cal, scheme)?;
            print!("{r:>12.2}");
        }
        println!();
    }
    Ok(())
}

fn print_notes(table: &Fig1Table) {
    let avg = table.average_reductions();
    println!("\nSection 3 cross-checks:");
    println!(
        "  X-Y Shift average reduction: {:.2} C (paper: 4.62 C, highest)",
        avg[4]
    );
    println!(
        "  Rotation  average reduction: {:.2} C (paper: 4.15 C, second)",
        avg[0]
    );
    let e_row: &Fig1Row = &table.rows[4];
    println!(
        "  Rotation on E: reduction {:.2} C (paper: negative), mean-temp increase {:.2} C (paper: ~0.3 C)",
        e_row.results[0].reduction,
        e_row.results[0].mean_temp_increase()
    );
    let a_row = &table.rows[0];
    let best_a = a_row
        .results
        .iter()
        .map(|r| r.reduction)
        .fold(f64::MIN, f64::max);
    println!("  Best reduction on A: {best_a:.2} C (paper: up to 8 C)");
    println!(
        "  X-Y Shift throughput penalty at 1-block period: {:.2}% (paper: 1.6%)",
        a_row.results[4].throughput_penalty * 100.0
    );
}
