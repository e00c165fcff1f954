//! Built-in named campaigns: the paper's exhibits and engineering sweeps,
//! expressed as [`CampaignSpec`]s so the report binaries (and the CLI) are
//! thin wrappers over the engine.

use crate::campaign::{CampaignSpec, PolicyAxis};
use crate::spec::{ChipKind, Mode, Workload};
use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_noc::{Coord, TrafficPattern};
use hotnoc_reconfig::MigrationScheme;

/// The built-in campaign names with one-line descriptions.
pub const BUILTINS: &[(&str, &str)] = &[
    (
        "fig1",
        "Figure 1: peak-temperature reduction, configs A-E x all five schemes",
    ),
    (
        "period-sweep",
        "Sec. 3 period sweep: config A, X-Y shift, periods 1/4/8 blocks",
    ),
    (
        "migration-cost",
        "Sec. 2.1-2.2 migration cost: phases/stall/flit-hops/energy per scheme",
    ),
    (
        "adaptive-compare",
        "Adaptive scheme selection vs every fixed scheme, configs A-E",
    ),
    (
        "sweep",
        "Engineering sweep: configs A-E x schemes x 2 periods (50 jobs)",
    ),
    (
        "latency-load",
        "Latency-vs-load saturation curve: uniform traffic on config A across the offered-load axis",
    ),
    (
        "degraded-mesh",
        "Degraded fabrics: uniform traffic on config A with 0/1/2 routers failed at cycle 0",
    ),
    (
        "smoke",
        "Seconds-fast mixed campaign (quick ldpc + traffic) for CI",
    ),
];

fn all_configs() -> Vec<ChipKind> {
    ChipConfigId::ALL
        .iter()
        .map(|&c| ChipKind::Config(c))
        .collect()
}

/// The migration period (blocks) matching each fidelity's default cosim
/// parameters: full-fidelity blocks are the paper's ~109 µs, quick blocks
/// are much shorter so the period is raised to land near the same ~100 µs
/// operating point (mirrors `CosimParams::quick`).
fn default_period(fidelity: Fidelity) -> u64 {
    match fidelity {
        Fidelity::Full => 1,
        Fidelity::Quick => 24,
    }
}

/// Resolves a built-in campaign by name at the given fidelity. `smoke` is
/// always quick-fidelity; every other campaign honours `fidelity`.
pub fn builtin(name: &str, fidelity: Fidelity) -> Option<CampaignSpec> {
    let base = CampaignSpec {
        name: name.to_string(),
        seed: 0xDA7E,
        fidelity,
        mode: Mode::Cosim,
        sim_time_ms: None,
        configs: all_configs(),
        workloads: vec![Workload::Ldpc],
        policies: vec![PolicyAxis::Periodic],
        schemes: MigrationScheme::FIGURE1.to_vec(),
        periods: vec![default_period(fidelity)],
        offered_loads: vec![],
        failed_routers: vec![],
        failed_links: vec![],
        seeds: vec![0],
    };
    let spec = match name {
        "fig1" => base,
        "period-sweep" => CampaignSpec {
            configs: vec![ChipKind::Config(ChipConfigId::A)],
            schemes: vec![MigrationScheme::XYShift],
            periods: vec![1, 4, 8],
            ..base
        },
        "migration-cost" => CampaignSpec {
            configs: vec![
                ChipKind::Config(ChipConfigId::A),
                ChipKind::Config(ChipConfigId::E),
            ],
            mode: Mode::PlanCost,
            ..base
        },
        "adaptive-compare" => CampaignSpec {
            policies: vec![PolicyAxis::Periodic, PolicyAxis::Adaptive],
            ..base
        },
        "sweep" => CampaignSpec {
            periods: match fidelity {
                Fidelity::Full => vec![1, 4],
                Fidelity::Quick => vec![8, 32],
            },
            ..base
        },
        "latency-load" => CampaignSpec {
            configs: vec![ChipKind::Config(ChipConfigId::A)],
            workloads: vec![Workload::Traffic {
                pattern: TrafficPattern::UniformRandom,
                // The rate is a placeholder: the offered-load axis replaces
                // it per job.
                rate: 0.05,
                packet_len: 4,
                cycles: match fidelity {
                    Fidelity::Full => 2000,
                    Fidelity::Quick => 300,
                },
            }],
            policies: vec![PolicyAxis::Baseline],
            schemes: vec![],
            periods: vec![],
            offered_loads: match fidelity {
                Fidelity::Full => vec![0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.24],
                Fidelity::Quick => vec![0.02, 0.06, 0.1, 0.14],
            },
            seeds: (0..4).collect(),
            ..base
        },
        "degraded-mesh" => CampaignSpec {
            configs: vec![ChipKind::Config(ChipConfigId::A)],
            workloads: vec![Workload::Traffic {
                pattern: TrafficPattern::UniformRandom,
                rate: 0.05,
                packet_len: 4,
                cycles: match fidelity {
                    Fidelity::Full => 2000,
                    Fidelity::Quick => 300,
                },
            }],
            policies: vec![PolicyAxis::Baseline],
            schemes: vec![],
            periods: vec![],
            // 0 is the healthy reference point of the axis.
            failed_routers: vec![0, 1, 2],
            seeds: (0..4).collect(),
            ..base
        },
        "smoke" => CampaignSpec {
            fidelity: Fidelity::Quick,
            configs: vec![ChipKind::Config(ChipConfigId::A)],
            workloads: vec![
                Workload::Ldpc,
                Workload::Traffic {
                    pattern: TrafficPattern::UniformRandom,
                    rate: 0.05,
                    packet_len: 4,
                    cycles: 400,
                },
                Workload::Traffic {
                    pattern: TrafficPattern::Hotspot {
                        nodes: vec![Coord::new(1, 1)],
                        fraction: 0.5,
                    },
                    rate: 0.05,
                    packet_len: 4,
                    cycles: 400,
                },
            ],
            policies: vec![
                PolicyAxis::Baseline,
                PolicyAxis::Periodic,
                PolicyAxis::Adaptive,
            ],
            schemes: vec![MigrationScheme::XYShift, MigrationScheme::Rotation],
            periods: vec![24],
            ..base
        },
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_validates_at_both_fidelities() {
        for (name, _) in BUILTINS {
            for fidelity in [Fidelity::Full, Fidelity::Quick] {
                let spec = builtin(name, fidelity).expect("known builtin");
                spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!spec.expand().is_empty(), "{name} expands to no jobs");
            }
        }
        assert!(builtin("nope", Fidelity::Quick).is_none());
    }

    #[test]
    fn sweep_meets_the_48_job_floor() {
        let jobs = builtin("sweep", Fidelity::Quick).unwrap().expand();
        assert!(jobs.len() >= 48, "sweep has only {} jobs", jobs.len());
    }

    #[test]
    fn fig1_covers_every_config_and_scheme() {
        let jobs = builtin("fig1", Fidelity::Full).unwrap().expand();
        assert_eq!(jobs.len(), 5 * 5);
    }

    #[test]
    fn latency_load_sweeps_the_offered_load_axis() {
        let spec = builtin("latency-load", Fidelity::Quick).unwrap();
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.offered_loads.len() * spec.seeds.len());
        // One group (seed axis collapsed) per operating point.
        let loads: std::collections::BTreeSet<String> = jobs
            .iter()
            .map(|j| match &j.workload {
                Workload::Traffic { rate, .. } => format!("{rate}"),
                Workload::Ldpc => unreachable!("latency-load is traffic-only"),
            })
            .collect();
        assert_eq!(loads.len(), spec.offered_loads.len());
        assert!(jobs[0].name.contains("@l0.02"), "{}", jobs[0].name);
    }

    #[test]
    fn degraded_mesh_sweeps_the_failure_axis() {
        let spec = builtin("degraded-mesh", Fidelity::Quick).unwrap();
        let jobs = spec.expand();
        assert_eq!(jobs.len(), spec.failed_routers.len() * spec.seeds.len());
        // The healthy point carries no fault plan; the others do.
        assert!(jobs[0].name.contains("/fr0/"), "{}", jobs[0].name);
        assert!(jobs[0].faults.is_empty());
        let degraded: Vec<_> = jobs.iter().filter(|j| j.name.contains("/fr2/")).collect();
        assert_eq!(degraded.len(), spec.seeds.len());
        assert!(degraded.iter().all(|j| j.faults.events().len() == 2));
    }

    #[test]
    fn smoke_is_small_and_mixed() {
        let jobs = builtin("smoke", Fidelity::Full).unwrap().expand();
        assert!(jobs.len() <= 12, "smoke too big for CI: {}", jobs.len());
        assert!(jobs
            .iter()
            .any(|j| matches!(j.workload, Workload::Traffic { .. })));
        assert!(jobs.iter().any(|j| matches!(j.workload, Workload::Ldpc)));
    }
}
