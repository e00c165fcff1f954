//! `ScenarioOutcome` — the machine-readable result of one scenario run.
//!
//! Outcomes serialize to canonical JSON (see [`crate::json`]) with a `kind`
//! tag. The encode/decode pair is **exact**: floats use shortest-roundtrip
//! formatting, so an outcome journaled to a campaign manifest and read back
//! on resume re-serializes to the same bytes an uninterrupted run would
//! have produced.

use crate::json::Json;
use crate::spec::{scheme_from_name, scheme_name};
use hotnoc_core::{AdaptiveResult, CosimResult};

/// Thermal co-simulation metrics (LDPC workload, baseline or periodic
/// policy): a [`CosimResult`] as campaign artifacts record it.
#[derive(Debug, Clone, PartialEq)]
pub struct CosimMetrics {
    /// Steady-state peak of the static placement, °C.
    pub base_peak: f64,
    /// Peak under migration after warm-up, °C.
    pub peak: f64,
    /// `base_peak - peak`, °C.
    pub reduction: f64,
    /// Time-averaged mean die temperature under migration, °C.
    pub mean_temp: f64,
    /// Mean die temperature of the static baseline, °C.
    pub base_mean_temp: f64,
    /// Throughput penalty: stall / (period + stall) of the scheme; 0 when
    /// the horizon committed no migration.
    pub throughput_penalty: f64,
    /// Migration stall, seconds.
    pub stall_seconds: f64,
    /// Active decode time between stalls, seconds.
    pub period_seconds: f64,
    /// Energy per migration event, joules.
    pub migration_energy_j: f64,
    /// Congestion-free phases per migration.
    pub phases: u64,
    /// Migrations executed during the horizon.
    pub migrations: u64,
}

impl CosimMetrics {
    /// Extracts the metrics of a [`CosimResult`].
    pub fn of(r: &CosimResult) -> CosimMetrics {
        CosimMetrics {
            base_peak: r.base_peak,
            peak: r.peak,
            reduction: r.reduction,
            mean_temp: r.mean_temp,
            base_mean_temp: r.base_mean_temp,
            throughput_penalty: r.throughput_penalty,
            stall_seconds: r.stall_seconds,
            period_seconds: r.period_seconds,
            migration_energy_j: r.migration_energy_j,
            phases: r.phases as u64,
            migrations: r.migrations,
        }
    }
}

/// Migration-plan cost metrics (plan-cost mode; no transient solve).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCostMetrics {
    /// Congestion-free phases.
    pub phases: u64,
    /// Stall time, µs.
    pub stall_us: f64,
    /// State-transfer flit-hops.
    pub flit_hops: u64,
    /// Energy per migration, µJ.
    pub energy_uj: f64,
    /// PEs moved.
    pub moves: u64,
}

/// Synthetic-traffic metrics (bare NoC, no thermal model).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMetrics {
    /// Packets offered by the generator.
    pub offered: u64,
    /// Packets delivered (including the drain window).
    pub delivered: u64,
    /// Whether the network drained within the post-run budget.
    pub drained: bool,
    /// Mean packet latency in cycles (0 when nothing was delivered).
    pub mean_latency_cycles: f64,
    /// Upper bound on the median packet latency (histogram bucket edge; 0
    /// when nothing was delivered).
    pub p50_latency_cycles: u64,
    /// Upper bound on the 95th-percentile packet latency (histogram bucket
    /// edge; 0 when nothing was delivered).
    pub p95_latency_cycles: u64,
    /// Maximum packet latency in cycles.
    pub max_latency_cycles: u64,
    /// Total flit-hops.
    pub flit_hops: u64,
    /// Packets dropped on a degraded fabric (dead endpoints, unreachable
    /// destinations, fault teardown). Zero on a healthy run.
    pub packets_dropped: u64,
    /// Flits dropped on a degraded fabric. Zero on a healthy run.
    pub flits_dropped: u64,
    /// Route computations where surround routing detoured away from the
    /// healthy (XY) output. Zero on a healthy run.
    pub detour_hops: u64,
}

/// An optional non-negative integer field: absent defaults to 0, but a
/// present field of the wrong type is still an error.
fn opt_u64(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field {key:?} is not a non-negative integer")),
    }
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// Thermal co-simulation (baseline or periodic policy).
    Cosim(CosimMetrics),
    /// Adaptive co-simulation.
    Adaptive(AdaptiveResult),
    /// Migration-plan cost analysis.
    PlanCost(PlanCostMetrics),
    /// Synthetic traffic on the bare NoC.
    Traffic(TrafficMetrics),
}

impl ScenarioOutcome {
    /// The outcome's `kind` tag (`"cosim"` / `"adaptive"` / `"plan-cost"`
    /// / `"traffic"`), as serialized to JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            ScenarioOutcome::Cosim(_) => "cosim",
            ScenarioOutcome::Adaptive(_) => "adaptive",
            ScenarioOutcome::PlanCost(_) => "plan-cost",
            ScenarioOutcome::Traffic(_) => "traffic",
        }
    }

    /// Serializes to canonical JSON with a `kind` tag.
    pub fn to_json(&self) -> Json {
        match self {
            ScenarioOutcome::Cosim(m) => Json::object(vec![
                ("kind", Json::str("cosim")),
                ("base_peak", Json::Num(m.base_peak)),
                ("peak", Json::Num(m.peak)),
                ("reduction", Json::Num(m.reduction)),
                ("mean_temp", Json::Num(m.mean_temp)),
                ("base_mean_temp", Json::Num(m.base_mean_temp)),
                ("throughput_penalty", Json::Num(m.throughput_penalty)),
                ("stall_seconds", Json::Num(m.stall_seconds)),
                ("period_seconds", Json::Num(m.period_seconds)),
                ("migration_energy_j", Json::Num(m.migration_energy_j)),
                ("phases", Json::int(m.phases)),
                ("migrations", Json::int(m.migrations)),
            ]),
            ScenarioOutcome::Adaptive(m) => Json::object(vec![
                ("kind", Json::str("adaptive")),
                ("base_peak", Json::Num(m.base_peak)),
                ("peak", Json::Num(m.peak)),
                ("reduction", Json::Num(m.reduction)),
                ("throughput_penalty", Json::Num(m.throughput_penalty)),
                (
                    "schedule",
                    Json::Array(
                        m.schedule
                            .iter()
                            .map(|&s| Json::Str(scheme_name(s)))
                            .collect(),
                    ),
                ),
            ]),
            ScenarioOutcome::PlanCost(m) => Json::object(vec![
                ("kind", Json::str("plan-cost")),
                ("phases", Json::int(m.phases)),
                ("stall_us", Json::Num(m.stall_us)),
                ("flit_hops", Json::int(m.flit_hops)),
                ("energy_uj", Json::Num(m.energy_uj)),
                ("moves", Json::int(m.moves)),
            ]),
            ScenarioOutcome::Traffic(m) => {
                let mut fields = vec![
                    ("kind", Json::str("traffic")),
                    ("offered", Json::int(m.offered)),
                    ("delivered", Json::int(m.delivered)),
                    ("drained", Json::Bool(m.drained)),
                    ("mean_latency_cycles", Json::Num(m.mean_latency_cycles)),
                    ("p50_latency_cycles", Json::int(m.p50_latency_cycles)),
                    ("p95_latency_cycles", Json::int(m.p95_latency_cycles)),
                    ("max_latency_cycles", Json::int(m.max_latency_cycles)),
                    ("flit_hops", Json::int(m.flit_hops)),
                ];
                // Fault counters are emitted only when non-zero, so healthy
                // traffic outcomes keep their exact pre-fault JSON (and
                // campaign artifacts their bytes).
                if m.packets_dropped != 0 {
                    fields.push(("packets_dropped", Json::int(m.packets_dropped)));
                }
                if m.flits_dropped != 0 {
                    fields.push(("flits_dropped", Json::int(m.flits_dropped)));
                }
                if m.detour_hops != 0 {
                    fields.push(("detour_hops", Json::int(m.detour_hops)));
                }
                Json::object(fields)
            }
        }
    }

    /// Deserializes from the JSON produced by [`ScenarioOutcome::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation.
    pub fn from_json(j: &Json) -> Result<ScenarioOutcome, String> {
        match j.req_str("kind")? {
            "cosim" => Ok(ScenarioOutcome::Cosim(CosimMetrics {
                base_peak: j.req_f64("base_peak")?,
                peak: j.req_f64("peak")?,
                reduction: j.req_f64("reduction")?,
                mean_temp: j.req_f64("mean_temp")?,
                base_mean_temp: j.req_f64("base_mean_temp")?,
                throughput_penalty: j.req_f64("throughput_penalty")?,
                stall_seconds: j.req_f64("stall_seconds")?,
                period_seconds: j.req_f64("period_seconds")?,
                migration_energy_j: j.req_f64("migration_energy_j")?,
                phases: j.req_u64("phases")?,
                migrations: j.req_u64("migrations")?,
            })),
            "adaptive" => Ok(ScenarioOutcome::Adaptive(AdaptiveResult {
                base_peak: j.req_f64("base_peak")?,
                peak: j.req_f64("peak")?,
                reduction: j.req_f64("reduction")?,
                throughput_penalty: j.req_f64("throughput_penalty")?,
                schedule: j
                    .req_array("schedule")?
                    .iter()
                    .map(|s| scheme_from_name(s.as_str().ok_or("schedule entry is not a string")?))
                    .collect::<Result<Vec<_>, _>>()?,
            })),
            "plan-cost" => Ok(ScenarioOutcome::PlanCost(PlanCostMetrics {
                phases: j.req_u64("phases")?,
                stall_us: j.req_f64("stall_us")?,
                flit_hops: j.req_u64("flit_hops")?,
                energy_uj: j.req_f64("energy_uj")?,
                moves: j.req_u64("moves")?,
            })),
            "traffic" => Ok(ScenarioOutcome::Traffic(TrafficMetrics {
                offered: j.req_u64("offered")?,
                delivered: j.req_u64("delivered")?,
                drained: j.req("drained")?.as_bool().ok_or("drained is not a bool")?,
                mean_latency_cycles: j.req_f64("mean_latency_cycles")?,
                // Optional with a 0 default: traffic outcomes archived
                // before the analytics layer (same `hotnoc-campaign-v1`
                // tag) predate the quantile fields and must keep parsing.
                p50_latency_cycles: opt_u64(j, "p50_latency_cycles")?,
                p95_latency_cycles: opt_u64(j, "p95_latency_cycles")?,
                max_latency_cycles: j.req_u64("max_latency_cycles")?,
                flit_hops: j.req_u64("flit_hops")?,
                // Optional with a 0 default: absent on healthy runs (and on
                // every outcome archived before fault injection existed).
                packets_dropped: opt_u64(j, "packets_dropped")?,
                flits_dropped: opt_u64(j, "flits_dropped")?,
                detour_hops: opt_u64(j, "detour_hops")?,
            })),
            other => Err(format!("unknown outcome kind {other:?}")),
        }
    }

    /// Decodes an outcome read back from a journal, accepting it only if
    /// it re-serializes to exactly the JSON it was read from. A record
    /// written by an older binary may decode leniently (e.g. traffic
    /// quantile fields defaulting to 0); replaying it would break the
    /// "resumed or cached bytes == computed bytes" guarantee, so it is
    /// rejected and the caller recomputes.
    ///
    /// # Errors
    ///
    /// As [`ScenarioOutcome::from_json`], plus non-canonical input.
    pub fn from_journal(j: &Json) -> Result<ScenarioOutcome, String> {
        let outcome = ScenarioOutcome::from_json(j)?;
        if outcome.to_json() != *j {
            return Err("outcome is not canonical".to_string());
        }
        Ok(outcome)
    }

    /// A one-line human summary for the campaign table.
    pub fn summary(&self) -> String {
        match self {
            ScenarioOutcome::Cosim(m) => format!(
                "peak {:.2} C  reduction {:+.2} C  penalty {:.2}%  migrations {}",
                m.peak,
                m.reduction,
                m.throughput_penalty * 100.0,
                m.migrations
            ),
            ScenarioOutcome::Adaptive(m) => format!(
                "peak {:.2} C  reduction {:+.2} C  penalty {:.2}%  migrations {}",
                m.peak,
                m.reduction,
                m.throughput_penalty * 100.0,
                m.schedule.len()
            ),
            ScenarioOutcome::PlanCost(m) => format!(
                "phases {}  stall {:.2} us  hops {}  energy {:.2} uJ  moves {}",
                m.phases, m.stall_us, m.flit_hops, m.energy_uj, m.moves
            ),
            ScenarioOutcome::Traffic(m) => {
                let faults = if m.packets_dropped > 0 || m.detour_hops > 0 {
                    format!("  dropped {}  detours {}", m.packets_dropped, m.detour_hops)
                } else {
                    String::new()
                };
                format!(
                    "delivered {}/{}  mean latency {:.1} cyc  p95 <{}  max {}  drained {}{faults}",
                    m.delivered,
                    m.offered,
                    m.mean_latency_cycles,
                    m.p95_latency_cycles,
                    m.max_latency_cycles,
                    m.drained
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotnoc_reconfig::MigrationScheme;

    fn outcomes() -> Vec<ScenarioOutcome> {
        vec![
            ScenarioOutcome::Cosim(CosimMetrics {
                base_peak: 85.44,
                peak: 80.1234567891234,
                reduction: 5.31654321087666,
                mean_temp: 70.0,
                base_mean_temp: 69.5,
                throughput_penalty: 0.016,
                stall_seconds: 1.7e-6,
                period_seconds: 1.093e-4,
                migration_energy_j: 1.059e-6,
                phases: 3,
                migrations: 457,
            }),
            ScenarioOutcome::Adaptive(AdaptiveResult {
                base_peak: 75.98,
                peak: 71.0,
                reduction: 4.98,
                throughput_penalty: 0.012,
                schedule: vec![MigrationScheme::XYShift, MigrationScheme::Rotation],
            }),
            ScenarioOutcome::PlanCost(PlanCostMetrics {
                phases: 4,
                stall_us: 2.18,
                flit_hops: 1234,
                energy_uj: 1.07,
                moves: 25,
            }),
            ScenarioOutcome::Traffic(TrafficMetrics {
                offered: 812,
                delivered: 812,
                drained: true,
                mean_latency_cycles: 13.71,
                p50_latency_cycles: 16,
                p95_latency_cycles: 32,
                max_latency_cycles: 44,
                flit_hops: 9000,
                packets_dropped: 0,
                flits_dropped: 0,
                detour_hops: 0,
            }),
            ScenarioOutcome::Traffic(TrafficMetrics {
                offered: 640,
                delivered: 601,
                drained: true,
                mean_latency_cycles: 19.2,
                p50_latency_cycles: 16,
                p95_latency_cycles: 64,
                max_latency_cycles: 131,
                flit_hops: 11200,
                packets_dropped: 39,
                flits_dropped: 117,
                detour_hops: 420,
            }),
        ]
    }

    #[test]
    fn outcome_json_roundtrip_is_byte_stable() {
        for o in outcomes() {
            let text = o.to_json().to_string();
            let back =
                ScenarioOutcome::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, o);
            assert_eq!(back.to_json().to_string(), text, "byte-stable reencode");
        }
    }

    #[test]
    fn pre_analytics_traffic_outcomes_still_decode() {
        // Traffic outcomes journaled before the quantile fields existed
        // (same hotnoc-campaign-v1 tag) must keep parsing, with the
        // missing percentiles defaulting to 0.
        let legacy = r#"{"kind": "traffic", "offered": 10, "delivered": 10, "drained": true,
                         "mean_latency_cycles": 5.5, "max_latency_cycles": 9, "flit_hops": 40}"#;
        let back = ScenarioOutcome::from_json(&Json::parse(legacy).expect("parses"))
            .expect("legacy outcome decodes");
        let ScenarioOutcome::Traffic(m) = &back else {
            panic!("expected traffic outcome");
        };
        assert_eq!(m.p50_latency_cycles, 0);
        assert_eq!(m.p95_latency_cycles, 0);
        assert_eq!(m.max_latency_cycles, 9);
        // A present-but-mistyped field is still rejected.
        let bad = legacy.replace(
            "\"drained\": true,",
            "\"drained\": true, \"p95_latency_cycles\": \"x\",",
        );
        assert!(ScenarioOutcome::from_json(&Json::parse(&bad).expect("parses")).is_err());
    }

    #[test]
    fn fault_counters_are_absent_when_zero() {
        // Healthy traffic outcomes must keep their exact pre-fault JSON so
        // archived campaign artifacts stay byte-identical.
        let healthy = &outcomes()[3];
        let text = healthy.to_json().to_string();
        for key in ["packets_dropped", "flits_dropped", "detour_hops"] {
            assert!(!text.contains(key), "{key} leaked into {text}");
        }
        let degraded = &outcomes()[4];
        let text = degraded.to_json().to_string();
        for key in ["packets_dropped", "flits_dropped", "detour_hops"] {
            assert!(text.contains(key), "{key} missing from {text}");
        }
        assert!(degraded.summary().contains("dropped 39"));
        assert!(degraded.summary().contains("detours 420"));
        assert!(!healthy.summary().contains("dropped"));
    }

    #[test]
    fn summaries_are_one_line() {
        for o in outcomes() {
            assert!(!o.summary().contains('\n'));
        }
    }
}
