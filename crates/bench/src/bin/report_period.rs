//! Regenerates the §3 in-text migration-period sweep: periods of 1, 4 and 8
//! LDPC blocks (the paper's 109.3 / 437.2 / 874.4 µs), reporting throughput
//! penalty and peak temperature.
//!
//! Paper reference points: 1 block -> 1.6 % penalty; 4 blocks -> < 0.4 %
//! with peak rise under 0.1 °C; 8 blocks -> < 0.2 % without significant
//! peak impact.
//!
//! A thin wrapper over the built-in `period-sweep` campaign: the runs
//! journal to `CAMPAIGN_period-sweep.manifest.jsonl` (killed runs resume)
//! and the machine-readable `CAMPAIGN_period-sweep.json` lands next to
//! `period_sweep.csv`. Exits non-zero on failure.

use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_reconfig::MigrationScheme;
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
    let spec = builtin("period-sweep", fidelity).expect("period-sweep is a builtin");
    let run = run_campaign(
        &spec,
        &RunnerOptions {
            progress: true,
            ..RunnerOptions::default()
        },
    )?;
    let table = exhibits::period_table(&run.completed, ChipConfigId::A, MigrationScheme::XYShift)
        .map_err(std::io::Error::other)?;
    println!("{}", exhibits::period_ascii(&table));
    if table.rows.len() == 3 {
        let rise = table.rows[1].1.peak - table.rows[0].1.peak;
        println!("Peak rise from 1-block to 4-block period: {rise:.3} C (paper: < 0.1 C)");
        let rise8 = table.rows[2].1.peak - table.rows[0].1.peak;
        println!(
            "Peak rise from 1-block to 8-block period: {rise8:.3} C (paper: no significant impact)"
        );
    }
    hotnoc_bench::save("period_sweep.csv", &exhibits::period_csv(&table))?;
    Ok(())
}
