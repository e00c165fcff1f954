//! The paper's exhibit tables — Figure 1, the §3 period sweep and the
//! §2.1–2.2 migration cost — built straight from campaign records and
//! rendered as ASCII and CSV, so the `report_*` binaries are thin wrappers
//! over the engine: run (or resume) a built-in campaign, then read its
//! records here. This is the only path to each exhibit. The module also
//! renders the latency-vs-load curve of traffic campaigns.

use crate::outcome::{CosimMetrics, PlanCostMetrics, ScenarioOutcome};
use crate::runner::JobRecord;
use crate::spec::{ChipKind, Policy, Workload};
use crate::stats::{GroupKey, SummaryStats};
use hotnoc_core::configs::ChipConfigId;
use hotnoc_reconfig::MigrationScheme;
use std::fmt::Write as _;

/// The regenerated Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Table {
    /// One row per configuration A–E: the configuration and its co-sim
    /// metrics per scheme, in [`MigrationScheme::FIGURE1`] order.
    pub rows: Vec<(ChipConfigId, Vec<CosimMetrics>)>,
}

impl Fig1Table {
    /// Mean peak-temperature reduction per scheme across configurations
    /// (the §3 ranking: X-Y shift 4.62 °C, rotation 4.15 °C in the paper).
    pub fn average_reductions(&self) -> Vec<f64> {
        let k = MigrationScheme::FIGURE1.len();
        let mut avg = vec![0.0; k];
        for (_, results) in &self.rows {
            for (i, r) in results.iter().enumerate() {
                avg[i] += r.reduction;
            }
        }
        for a in avg.iter_mut() {
            *a /= self.rows.len() as f64;
        }
        avg
    }
}

/// The §3 period sweep for one configuration and scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodTable {
    /// Configuration swept.
    pub config: ChipConfigId,
    /// Migration scheme used.
    pub scheme: MigrationScheme,
    /// One row per period: the period in decoded blocks and its co-sim
    /// metrics.
    pub rows: Vec<(u64, CosimMetrics)>,
}

/// The records of config `id` migrating periodically under `scheme`, in
/// campaign order, each with its period in decoded blocks.
fn periodic(
    records: &[JobRecord],
    id: ChipConfigId,
    scheme: MigrationScheme,
) -> impl Iterator<Item = (u64, &JobRecord)> {
    records.iter().filter_map(move |r| match r.spec.policy {
        Policy::Periodic {
            scheme: s,
            period_blocks,
        } if s == scheme && r.spec.chip == ChipKind::Config(id) => Some((period_blocks, r)),
        _ => None,
    })
}

/// The first record of config `id` under `scheme`.
fn first_periodic(
    records: &[JobRecord],
    id: ChipConfigId,
    scheme: MigrationScheme,
) -> Result<&JobRecord, String> {
    periodic(records, id, scheme)
        .next()
        .map(|(_, r)| r)
        .ok_or_else(|| format!("no record for config {id}, scheme {scheme}"))
}

/// A record's co-sim metrics.
fn cosim_metrics(rec: &JobRecord) -> Result<CosimMetrics, String> {
    match &rec.outcome {
        ScenarioOutcome::Cosim(m) => Ok(m.clone()),
        _ => Err(format!("record {} is not a cosim outcome", rec.spec.name)),
    }
}

/// Builds the Figure 1 table from a `fig1`-shaped campaign (every config
/// in [`ChipConfigId::ALL`] x every scheme in [`MigrationScheme::FIGURE1`],
/// cosim outcomes).
///
/// # Errors
///
/// Reports the first missing (config, scheme) cell or non-cosim outcome.
pub fn fig1_table(records: &[JobRecord]) -> Result<Fig1Table, String> {
    let rows = ChipConfigId::ALL.iter().map(|&id| {
        let results = MigrationScheme::FIGURE1
            .iter()
            .map(|&scheme| cosim_metrics(first_periodic(records, id, scheme)?))
            .collect::<Result<_, _>>()?;
        Ok((id, results))
    });
    Ok(Fig1Table {
        rows: rows.collect::<Result<_, String>>()?,
    })
}

/// Builds the §3 period-sweep table for one config and scheme from a
/// `period-sweep`-shaped campaign. Rows come out in campaign (axis) order.
///
/// # Errors
///
/// Reports a missing config or non-cosim outcomes.
pub fn period_table(
    records: &[JobRecord],
    id: ChipConfigId,
    scheme: MigrationScheme,
) -> Result<PeriodTable, String> {
    let rows = periodic(records, id, scheme)
        .map(|(period_blocks, r)| Ok((period_blocks, cosim_metrics(r)?)))
        .collect::<Result<Vec<_>, String>>()?;
    if rows.is_empty() {
        return Err(format!(
            "no periodic records for config {id} under {scheme}"
        ));
    }
    Ok(PeriodTable {
        config: id,
        scheme,
        rows,
    })
}

/// Builds the §2.1–2.2 migration-cost table for one config from a
/// `migration-cost`-shaped campaign (plan-cost outcomes), in
/// [`MigrationScheme::FIGURE1`] order.
///
/// # Errors
///
/// Reports the first missing scheme or non-plan-cost outcome.
pub fn migration_cost_rows(
    records: &[JobRecord],
    id: ChipConfigId,
) -> Result<Vec<(MigrationScheme, PlanCostMetrics)>, String> {
    MigrationScheme::FIGURE1
        .iter()
        .map(|&scheme| {
            let rec = first_periodic(records, id, scheme)?;
            match &rec.outcome {
                ScenarioOutcome::PlanCost(m) => Ok((scheme, m.clone())),
                _ => Err(format!(
                    "record {} is not a plan-cost outcome",
                    rec.spec.name
                )),
            }
        })
        .collect()
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
    for (config, results) in &table.rows {
        let label = format!("{config} ({:.2})", results[0].base_peak);
        let _ = write!(out, "{label:<14}");
        for r in results {
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
    for (config, results) in &table.rows {
        let _ = write!(out, "{config},{:.2}", results[0].base_peak);
        for r in results {
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
    for (blocks, m) in &table.rows {
        let _ = writeln!(
            out,
            "{:>8} {:>12.1} {:>14.2} {:>10.2} {:>12.2}",
            blocks,
            m.period_seconds * 1e6,
            m.throughput_penalty * 100.0,
            m.peak,
            m.reduction
        );
    }
    out
}

/// Renders the period sweep as CSV
/// (`blocks,period_us,penalty_pct,peak_c,reduction_c`).
pub fn period_csv(table: &PeriodTable) -> String {
    let mut out = String::from("blocks,period_us,penalty_pct,peak_c,reduction_c\n");
    for (blocks, m) in &table.rows {
        let _ = writeln!(
            out,
            "{},{:.3},{:.4},{:.3},{:.3}",
            blocks,
            m.period_seconds * 1e6,
            m.throughput_penalty * 100.0,
            m.peak,
            m.reduction
        );
    }
    out
}

/// Renders the migration cost table as CSV
/// (`scheme,phases,stall_us,flit_hops,energy_uj,moves`).
pub fn migration_cost_csv(rows: &[(MigrationScheme, PlanCostMetrics)]) -> String {
    let mut out = String::from("scheme,phases,stall_us,flit_hops,energy_uj,moves\n");
    for (scheme, m) in rows {
        let _ = writeln!(
            out,
            "{},{},{:.3},{},{:.3},{}",
            scheme.to_string().replace(' ', "_").to_lowercase(),
            m.phases,
            m.stall_us,
            m.flit_hops,
            m.energy_uj,
            m.moves
        );
    }
    out
}

/// Renders the migration cost table.
pub fn migration_cost_ascii(rows: &[(MigrationScheme, PlanCostMetrics)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>10} {:>11} {:>12} {:>7}",
        "Scheme", "phases", "stall(us)", "flit-hops", "energy(uJ)", "moves"
    );
    for (scheme, m) in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>10.2} {:>11} {:>12.1} {:>7}",
            scheme.to_string(),
            m.phases,
            m.stall_us,
            m.flit_hops,
            m.energy_uj,
            m.moves
        );
    }
    out
}

/// One operating point of a latency-vs-load saturation curve, aggregated
/// across the seed axis.
#[derive(Debug, Clone)]
pub struct LatencyLoadPoint {
    /// Offered load (packets per node per cycle).
    pub offered_load: f64,
    /// Seeds aggregated into this point.
    pub n: u64,
    /// Fraction of offered packets delivered (1.0 below saturation).
    pub delivered_frac: f64,
    /// Runs whose network drained within the post-run budget.
    pub drained: u64,
    /// Mean packet latency across seeds (summary over the per-run means).
    pub mean_latency: SummaryStats,
    /// Largest per-run p95 upper bound (histogram bucket edge), cycles.
    pub p95_upper: u64,
    /// Largest per-run maximum latency, cycles.
    pub max_latency: u64,
}

/// A latency-vs-load curve: one campaign group modulo the offered-load
/// tag, one point per load.
#[derive(Debug, Clone)]
pub struct LatencyLoadCurve {
    /// The curve's identity: the seed-stripped group key with the
    /// `@l<rate>` load tag removed (e.g. `"A/w0:traffic:uniform/baseline"`)
    /// — distinguishes workload-axis entries that share a pattern label
    /// but differ in packet length or cycle count.
    pub key: String,
    /// Chip label (`"A"`, `"custom6x6"`).
    pub chip: String,
    /// Workload label (`"traffic:uniform"`).
    pub workload: String,
    /// Operating points in ascending load order.
    pub points: Vec<LatencyLoadPoint>,
}

/// Extracts latency-vs-load curves from a campaign's traffic records: one
/// curve per load-stripped group, one point per offered load, seeds
/// collapsed. Campaigns without traffic records (or with a single
/// operating point per curve) still produce curves — rendering decides
/// what is worth showing.
pub fn latency_load_curves(records: &[JobRecord]) -> Vec<LatencyLoadCurve> {
    let mut curves: Vec<LatencyLoadCurve> = Vec::new();
    for rec in records {
        let (Workload::Traffic { rate, .. }, ScenarioOutcome::Traffic(m)) =
            (&rec.spec.workload, &rec.outcome)
        else {
            continue;
        };
        let key = GroupKey::of_name(&rec.spec.name)
            .as_str()
            .replacen(&format!("@l{rate}"), "", 1);
        let curve = match curves.iter_mut().find(|c| c.key == key) {
            Some(c) => c,
            None => {
                curves.push(LatencyLoadCurve {
                    key,
                    chip: rec.spec.chip.label(),
                    workload: rec.spec.workload.label(),
                    points: Vec::new(),
                });
                curves.last_mut().expect("just pushed")
            }
        };
        let point = match curve.points.iter_mut().find(|p| p.offered_load == *rate) {
            Some(p) => p,
            None => {
                curve.points.push(LatencyLoadPoint {
                    offered_load: *rate,
                    n: 0,
                    delivered_frac: 0.0,
                    drained: 0,
                    mean_latency: SummaryStats::new(),
                    p95_upper: 0,
                    max_latency: 0,
                });
                curve.points.last_mut().expect("just pushed")
            }
        };
        point.n += 1;
        // Running mean of the delivered fraction (each run weighs equally).
        let frac = if m.offered == 0 {
            1.0
        } else {
            m.delivered as f64 / m.offered as f64
        };
        point.delivered_frac += (frac - point.delivered_frac) / point.n as f64;
        point.drained += u64::from(m.drained);
        point.mean_latency.record(m.mean_latency_cycles);
        point.p95_upper = point.p95_upper.max(m.p95_latency_cycles);
        point.max_latency = point.max_latency.max(m.max_latency_cycles);
    }
    for curve in &mut curves {
        curve
            .points
            .sort_by(|a, b| a.offered_load.total_cmp(&b.offered_load));
    }
    curves
}

/// Renders latency-vs-load curves as deterministic text tables — the
/// saturation-curve exhibit a `latency-load` campaign produces. Curves
/// with fewer than two operating points are skipped (no curve to show);
/// returns `None` when nothing qualifies.
pub fn render_latency_load(curves: &[LatencyLoadCurve]) -> Option<String> {
    let mut s = String::new();
    for curve in curves.iter().filter(|c| c.points.len() >= 2) {
        let _ = writeln!(
            s,
            "latency vs offered load — chip {}, {} ({}):",
            curve.chip, curve.workload, curve.key
        );
        let _ = writeln!(
            s,
            "{:>8}  {:>3}  {:>10}  {:>22}  {:>7}  {:>7}  drained",
            "load", "n", "delivered", "mean latency (cyc)", "p95 <=", "max"
        );
        for p in &curve.points {
            let mean = p.mean_latency.mean().unwrap_or(0.0);
            let ci = match p.mean_latency.ci95_half_width() {
                Some(hw) => format!("{mean:.2} ± {hw:.2}"),
                None => format!("{mean:.2}"),
            };
            let _ = writeln!(
                s,
                "{:>8}  {:>3}  {:>9.1}%  {:>22}  {:>7}  {:>7}  {}/{}",
                p.offered_load,
                p.n,
                p.delivered_frac * 100.0,
                ci,
                p.p95_upper,
                p.max_latency,
                p.drained,
                p.n
            );
        }
    }
    (!s.is_empty()).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::builtin;
    use crate::runner::{run_campaign, RunnerOptions};
    use hotnoc_core::configs::Fidelity;

    fn dummy_result(reduction: f64) -> CosimMetrics {
        CosimMetrics {
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
        let results = (0..MigrationScheme::FIGURE1.len())
            .map(|i| dummy_result(i as f64))
            .collect();
        Fig1Table {
            rows: vec![(ChipConfigId::A, results)],
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

    #[test]
    fn latency_load_campaign_produces_a_monotone_saturation_curve() {
        let dir = std::env::temp_dir().join(format!("hotnoc-latload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = builtin("latency-load", Fidelity::Quick).unwrap();
        let run = run_campaign(
            &spec,
            &RunnerOptions {
                threads: 2,
                out_dir: dir.clone(),
                ..RunnerOptions::default()
            },
        )
        .expect("campaign runs");
        let curves = latency_load_curves(&run.completed);
        assert_eq!(curves.len(), 1);
        let curve = &curves[0];
        assert_eq!(curve.chip, "A");
        assert_eq!(curve.points.len(), spec.offered_loads.len());
        for (p, &load) in curve.points.iter().zip(&spec.offered_loads) {
            assert_eq!(p.offered_load, load);
            assert_eq!(p.n, spec.seeds.len() as u64);
            assert!(p.mean_latency.mean().unwrap() > 0.0);
        }
        // Latency cannot improve as offered load grows (the defining shape
        // of a saturation curve, with slack for sub-saturation noise).
        let first = curve.points.first().unwrap().mean_latency.mean().unwrap();
        let last = curve.points.last().unwrap().mean_latency.mean().unwrap();
        assert!(
            last >= first * 0.95,
            "latency fell with load: {first:.2} -> {last:.2}"
        );
        let table = render_latency_load(&curves).expect("2+ points");
        assert!(table.contains("latency vs offered load"), "{table}");
        assert!(table.contains("0.02"), "{table}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
