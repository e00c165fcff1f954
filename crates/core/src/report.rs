//! The paper's exhibit tables and their rendering as ASCII tables, CSV and
//! heatmaps. The tables are filled from campaign records by
//! `hotnoc_scenario::exhibits`.

use crate::configs::ChipConfigId;
use crate::cosim::CosimResult;
use hotnoc_reconfig::MigrationScheme;
use std::fmt::Write as _;

/// One configuration's row of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// The configuration.
    pub config: ChipConfigId,
    /// Its base (static) peak temperature, °C.
    pub base_peak: f64,
    /// Results per scheme, in [`MigrationScheme::FIGURE1`] order.
    pub results: Vec<CosimResult>,
}

/// The regenerated Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Table {
    /// One row per configuration A–E.
    pub rows: Vec<Fig1Row>,
}

impl Fig1Table {
    /// Mean peak-temperature reduction per scheme across configurations
    /// (the §3 ranking: X-Y shift 4.62 °C, rotation 4.15 °C in the paper).
    pub fn average_reductions(&self) -> Vec<f64> {
        let k = MigrationScheme::FIGURE1.len();
        let mut avg = vec![0.0; k];
        for row in &self.rows {
            for (i, r) in row.results.iter().enumerate() {
                avg[i] += r.reduction;
            }
        }
        for a in avg.iter_mut() {
            *a /= self.rows.len() as f64;
        }
        avg
    }
}

/// One row of the migration-period sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRow {
    /// Period in decoded blocks.
    pub period_blocks: u64,
    /// Period in microseconds (measured block time × blocks).
    pub period_us: f64,
    /// Throughput penalty in percent.
    pub penalty_pct: f64,
    /// Peak temperature under migration, °C.
    pub peak: f64,
    /// Peak-temperature reduction vs the static base, °C.
    pub reduction: f64,
}

/// The §3 period sweep for one configuration and scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodTable {
    /// Configuration swept.
    pub config: ChipConfigId,
    /// Migration scheme used.
    pub scheme: MigrationScheme,
    /// One row per period.
    pub rows: Vec<PeriodRow>,
}

/// Migration cost of one scheme on one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationCostRow {
    /// The scheme.
    pub scheme: MigrationScheme,
    /// Congestion-free phases.
    pub phases: usize,
    /// Stall time, µs.
    pub stall_us: f64,
    /// State-transfer flit-hops.
    pub flit_hops: u64,
    /// Energy per migration, µJ.
    pub energy_uj: f64,
    /// PEs moved.
    pub moves: usize,
}

/// Renders the regenerated Figure 1 as an ASCII table (reductions in °C).
pub fn fig1_ascii(table: &Fig1Table) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 1: Reduction in Peak Temps (degrees C)");
    let _ = write!(out, "{:<14}", "Config (base)");
    for s in MigrationScheme::FIGURE1 {
        let _ = write!(out, "{:>12}", s.to_string());
    }
    let _ = writeln!(out);
    for row in &table.rows {
        let label = format!("{} ({:.2})", row.config, row.base_peak);
        let _ = write!(out, "{label:<14}");
        for r in &row.results {
            let _ = write!(out, "{:>12.2}", r.reduction);
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<14}", "Average");
    for a in table.average_reductions() {
        let _ = write!(out, "{a:>12.2}");
    }
    let _ = writeln!(out);
    out
}

/// Renders Figure 1 as CSV (`config,base_peak,rot,...`).
pub fn fig1_csv(table: &Fig1Table) -> String {
    let mut out = String::from("config,base_peak_c");
    for s in MigrationScheme::FIGURE1 {
        let _ = write!(out, ",{}", s.to_string().replace(' ', "_").to_lowercase());
    }
    out.push('\n');
    for row in &table.rows {
        let _ = write!(out, "{},{:.2}", row.config, row.base_peak);
        for r in &row.results {
            let _ = write!(out, ",{:.3}", r.reduction);
        }
        out.push('\n');
    }
    out
}

/// Renders the period sweep as an ASCII table.
pub fn period_ascii(table: &PeriodTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Migration period sweep — config {}, scheme {}",
        table.config, table.scheme
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>14} {:>10} {:>12}",
        "blocks", "period (us)", "penalty (%)", "peak (C)", "redn (C)"
    );
    for r in &table.rows {
        let _ = writeln!(
            out,
            "{:>8} {:>12.1} {:>14.2} {:>10.2} {:>12.2}",
            r.period_blocks, r.period_us, r.penalty_pct, r.peak, r.reduction
        );
    }
    out
}

/// Renders the period sweep as CSV
/// (`blocks,period_us,penalty_pct,peak_c,reduction_c`).
pub fn period_csv(table: &PeriodTable) -> String {
    let mut out = String::from("blocks,period_us,penalty_pct,peak_c,reduction_c\n");
    for r in &table.rows {
        let _ = writeln!(
            out,
            "{},{:.3},{:.4},{:.3},{:.3}",
            r.period_blocks, r.period_us, r.penalty_pct, r.peak, r.reduction
        );
    }
    out
}

/// Renders the migration cost table as CSV
/// (`scheme,phases,stall_us,flit_hops,energy_uj,moves`).
pub fn migration_cost_csv(rows: &[MigrationCostRow]) -> String {
    let mut out = String::from("scheme,phases,stall_us,flit_hops,energy_uj,moves\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.3},{},{:.3},{}",
            r.scheme.to_string().replace(' ', "_").to_lowercase(),
            r.phases,
            r.stall_us,
            r.flit_hops,
            r.energy_uj,
            r.moves
        );
    }
    out
}

/// Renders the migration cost table.
pub fn migration_cost_ascii(rows: &[MigrationCostRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>10} {:>11} {:>12} {:>7}",
        "Scheme", "phases", "stall(us)", "flit-hops", "energy(uJ)", "moves"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>10.2} {:>11} {:>12.1} {:>7}",
            r.scheme.to_string(),
            r.phases,
            r.stall_us,
            r.flit_hops,
            r.energy_uj,
            r.moves
        );
    }
    out
}

/// Renders a per-tile scalar field (temperatures, power) as an ASCII
/// heatmap, row y=0 at the bottom.
///
/// # Panics
///
/// Panics if `values.len() != width * height`.
pub fn heatmap_ascii(values: &[f64], width: usize, height: usize) -> String {
    assert_eq!(values.len(), width * height, "field size mismatch");
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    for y in (0..height).rev() {
        for x in 0..width {
            let v = values[y * width + x];
            let idx = (((v - min) / span) * (shades.len() - 1) as f64).round() as usize;
            let c = shades[idx.min(shades.len() - 1)];
            let _ = write!(out, "{c}{c}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "min {min:.2}  max {max:.2}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_result(scheme: MigrationScheme, reduction: f64) -> CosimResult {
        CosimResult {
            scheme: Some(scheme),
            base_peak: 85.44,
            peak: 85.44 - reduction,
            reduction,
            mean_temp: 70.0,
            base_mean_temp: 69.8,
            throughput_penalty: 0.016,
            stall_seconds: 1.7e-6,
            period_seconds: 109.3e-6,
            migration_energy_j: 1e-5,
            phases: 1,
            migrations: 100,
        }
    }

    fn dummy_table() -> Fig1Table {
        let results: Vec<CosimResult> = MigrationScheme::FIGURE1
            .iter()
            .enumerate()
            .map(|(i, &s)| dummy_result(s, i as f64))
            .collect();
        Fig1Table {
            rows: vec![Fig1Row {
                config: ChipConfigId::A,
                base_peak: 85.44,
                results,
            }],
        }
    }

    #[test]
    fn fig1_ascii_contains_all_schemes() {
        let s = fig1_ascii(&dummy_table());
        for scheme in MigrationScheme::FIGURE1 {
            assert!(s.contains(&scheme.to_string()), "missing {scheme}");
        }
        assert!(s.contains("A (85.44)"));
        assert!(s.contains("Average"));
    }

    #[test]
    fn fig1_csv_shape() {
        let csv = fig1_csv(&dummy_table());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 7);
        assert!(lines[1].starts_with("A,85.44"));
    }

    #[test]
    fn heatmap_renders_grid() {
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let hm = heatmap_ascii(&vals, 4, 4);
        assert_eq!(hm.lines().count(), 5); // 4 rows + legend
        assert!(hm.contains("min 0.00"));
        assert!(hm.contains("max 15.00"));
        // Hottest row (y=3) renders first.
        assert!(hm.lines().next().unwrap().contains('@'));
    }

    #[test]
    fn average_and_best_scheme() {
        let t = dummy_table();
        let avg = t.average_reductions();
        assert_eq!(avg, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        // The best average belongs to X-Y shift, the last Figure 1 scheme.
        let best = avg.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1));
        assert_eq!(
            MigrationScheme::FIGURE1[best.unwrap().0],
            MigrationScheme::XYShift
        );
    }
}
