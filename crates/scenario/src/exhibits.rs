//! Reassembles the paper's exhibit tables from campaign results, so the
//! `report_*` binaries are thin wrappers over the engine: run (or resume) a
//! built-in campaign, then project its records onto the
//! `hotnoc_core::report` tables for rendering. This is the only path to
//! each exhibit.

use crate::outcome::ScenarioOutcome;
use crate::runner::JobRecord;
use crate::spec::{ChipKind, Policy, Workload};
use crate::stats::{GroupKey, SummaryStats};
use hotnoc_core::configs::ChipConfigId;
use hotnoc_core::report::{Fig1Row, Fig1Table, MigrationCostRow, PeriodRow, PeriodTable};
use hotnoc_reconfig::MigrationScheme;
use std::fmt::Write as _;

/// The records of one chip configuration, in campaign order.
fn records_of(records: &[JobRecord], id: ChipConfigId) -> Vec<&JobRecord> {
    records
        .iter()
        .filter(|r| r.spec.chip == ChipKind::Config(id))
        .collect()
}

/// Rebuilds the Figure 1 table from a `fig1`-shaped campaign (every config
/// in [`ChipConfigId::ALL`] x every scheme in [`MigrationScheme::FIGURE1`],
/// cosim outcomes).
///
/// # Errors
///
/// Reports the first missing (config, scheme) cell or non-cosim outcome.
pub fn fig1_table(records: &[JobRecord]) -> Result<Fig1Table, String> {
    let mut rows = Vec::new();
    for id in ChipConfigId::ALL {
        let of_config = records_of(records, id);
        let mut results = Vec::new();
        for scheme in MigrationScheme::FIGURE1 {
            let rec = of_config
                .iter()
                .find(
                    |r| matches!(r.spec.policy, Policy::Periodic { scheme: s, .. } if s == scheme),
                )
                .ok_or_else(|| format!("no record for config {id}, scheme {scheme}"))?;
            let ScenarioOutcome::Cosim(m) = &rec.outcome else {
                return Err(format!("record {} is not a cosim outcome", rec.spec.name));
            };
            results.push(m.to_cosim_result(Some(scheme)));
        }
        rows.push(Fig1Row {
            config: id,
            base_peak: results[0].base_peak,
            results,
        });
    }
    Ok(Fig1Table { rows })
}

/// Rebuilds the §3 period-sweep table for one config and scheme from a
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
    let mut rows = Vec::new();
    for rec in records_of(records, id) {
        let Policy::Periodic {
            scheme: s,
            period_blocks,
        } = rec.spec.policy
        else {
            continue;
        };
        if s != scheme {
            continue;
        }
        let ScenarioOutcome::Cosim(m) = &rec.outcome else {
            return Err(format!("record {} is not a cosim outcome", rec.spec.name));
        };
        rows.push(PeriodRow {
            period_blocks,
            period_us: m.period_seconds * 1e6,
            penalty_pct: m.throughput_penalty * 100.0,
            peak: m.peak,
            reduction: m.reduction,
        });
    }
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

/// Rebuilds the §2.1–2.2 migration-cost table for one config from a
/// `migration-cost`-shaped campaign (plan-cost outcomes), in
/// [`MigrationScheme::FIGURE1`] order.
///
/// # Errors
///
/// Reports the first missing scheme or non-plan-cost outcome.
pub fn migration_cost_rows(
    records: &[JobRecord],
    id: ChipConfigId,
) -> Result<Vec<MigrationCostRow>, String> {
    let of_config = records_of(records, id);
    let mut rows = Vec::new();
    for scheme in MigrationScheme::FIGURE1 {
        let rec = of_config
            .iter()
            .find(|r| matches!(r.spec.policy, Policy::Periodic { scheme: s, .. } if s == scheme))
            .ok_or_else(|| format!("no record for config {id}, scheme {scheme}"))?;
        let ScenarioOutcome::PlanCost(m) = &rec.outcome else {
            return Err(format!(
                "record {} is not a plan-cost outcome",
                rec.spec.name
            ));
        };
        rows.push(MigrationCostRow {
            scheme,
            phases: m.phases as usize,
            stall_us: m.stall_us,
            flit_hops: m.flit_hops,
            energy_uj: m.energy_uj,
            moves: m.moves as usize,
        });
    }
    Ok(rows)
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
