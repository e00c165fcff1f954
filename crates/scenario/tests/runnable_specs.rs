//! Every spec the validator accepts can run. A seeded battery draws small
//! random scenarios: configs A–E and custom 2x2–5x5 dies, every migration
//! scheme name (`x-shift-k` / `y-shift-k` for k in 0..=9 included),
//! baseline, periodic and adaptive policies in both modes, and traffic with
//! random patterns and fault plans. Each spec must either fail
//! `validate` or, run through `run_scenario`, end in an outcome or a
//! `thermal runaway` error. Any other error is a hole in the validator.
//! A co-simulation that committed no migration must also report no
//! throughput penalty.

use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_noc::{Coord, FaultPlan, TrafficPattern};
use hotnoc_scenario::spec::scheme_from_name;
use hotnoc_scenario::{
    run_scenario, ChipKind, Mode, Policy, ScenarioOutcome, ScenarioSpec, Workload,
};

/// Specs drawn. An LDPC spec on a custom die calibrates a chip of its own,
/// so the battery stays small enough for a debug build.
const CASES: u64 = 32;

/// SplitMix64, the battery's only source of randomness.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `1 / n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }
}

/// Every canonical scheme name the spec format accepts.
fn scheme_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "rotation",
        "x-mirror",
        "xy-mirror",
        "right-shift",
        "xy-shift",
    ]
    .map(String::from)
    .to_vec();
    for k in 0..=9 {
        names.push(format!("x-shift-{k}"));
        names.push(format!("y-shift-{k}"));
    }
    names
}

/// A config A–E or a custom 2x2–5x5 die with positive weights and a base
/// peak drawn across 45–200 °C (the ends are outside the calibratable
/// range).
fn chip(d: &mut Draw) -> ChipKind {
    if d.one_in(2) {
        let ids = [
            ChipConfigId::A,
            ChipConfigId::B,
            ChipConfigId::C,
            ChipConfigId::D,
            ChipConfigId::E,
        ];
        return ChipKind::Config(ids[d.below(5) as usize]);
    }
    let side = 2 + d.below(4) as usize;
    ChipKind::Custom {
        mesh_side: side,
        tile_weights: (0..side * side).map(|_| 0.05 + d.unit()).collect(),
        base_peak_celsius: 45.0 + 155.0 * d.unit(),
    }
}

/// A coordinate on a `side` x `side` mesh; one draw in eight may land one
/// past its edge.
fn coord(d: &mut Draw, side: usize) -> Coord {
    let bound = side as u64 + u64::from(d.one_in(8));
    Coord::new(d.below(bound) as u8, d.below(bound) as u8)
}

fn pattern(d: &mut Draw, side: usize) -> TrafficPattern {
    match d.below(6) {
        0 => TrafficPattern::UniformRandom,
        1 => TrafficPattern::Transpose,
        2 => TrafficPattern::BitComplement,
        3 => TrafficPattern::Tornado,
        4 => TrafficPattern::Neighbor,
        _ => TrafficPattern::Hotspot {
            nodes: (0..=d.below(2)).map(|_| coord(d, side)).collect(),
            fraction: 1.1 * d.unit(),
        },
    }
}

/// Up to three router or link failures and repairs within `cycles`; a link
/// usually joins neighbours.
fn faults(d: &mut Draw, side: usize, cycles: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..d.below(4) {
        let at = d.below(cycles + 1);
        let a = coord(d, side);
        let b = match d.below(3) {
            0 => coord(d, side),
            1 => Coord::new(a.x + 1, a.y),
            _ => Coord::new(a.x, a.y + 1),
        };
        plan = match d.below(4) {
            0 => plan.fail_router(at, a),
            1 => plan.repair_router(at, a),
            2 => plan.fail_link(at, a, b),
            _ => plan.repair_link(at, a, b),
        };
    }
    plan
}

/// Case `case`'s spec, drawn from its own seed.
fn spec(case: u64, schemes: &[String]) -> ScenarioSpec {
    let mut d = Draw(0x00c0_ffee ^ case.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let chip = chip(&mut d);
    let side = chip.mesh_side();
    let period_blocks = d.below(33);
    let mut policy = match d.below(4) {
        0 => Policy::Baseline,
        1 => Policy::Adaptive { period_blocks },
        _ => {
            let name = &schemes[d.below(schemes.len() as u64) as usize];
            Policy::Periodic {
                scheme: scheme_from_name(name).expect("canonical scheme name"),
                period_blocks,
            }
        }
    };
    let mode = if d.one_in(4) {
        Mode::PlanCost
    } else {
        Mode::Cosim
    };
    let (workload, faults) = if d.one_in(3) {
        let cycles = d.below(301);
        let workload = Workload::Traffic {
            pattern: pattern(&mut d, side),
            rate: 1.1 * d.unit(),
            packet_len: if d.one_in(8) {
                0
            } else {
                1 + d.below(6) as u32
            },
            cycles,
        };
        // Traffic runs only under the baseline policy; keep most draws there.
        if !d.one_in(8) {
            policy = Policy::Baseline;
        }
        (workload, faults(&mut d, side, cycles))
    } else {
        (Workload::Ldpc, FaultPlan::new())
    };
    ScenarioSpec {
        name: format!("case{case}"),
        chip,
        workload,
        policy,
        mode,
        fidelity: Fidelity::Quick,
        sim_time_ms: Some(0.3 * d.unit()),
        faults,
        seed: d.next() >> 11,
    }
}

#[test]
fn every_spec_the_validator_accepts_runs() {
    let schemes = scheme_names();
    let mut ran = 0;
    let mut holes = Vec::new();
    for case in 0..CASES {
        let spec = spec(case, &schemes);
        if spec.validate().is_err() {
            continue;
        }
        ran += 1;
        match run_scenario(&spec) {
            Ok(ScenarioOutcome::Cosim(m)) if m.migrations == 0 && m.throughput_penalty != 0.0 => {
                holes.push(format!(
                    "{}: penalty {} without a migration\n  {}",
                    spec.name,
                    m.throughput_penalty,
                    spec.to_json()
                ));
            }
            Ok(_) => {}
            Err(e) => {
                let e = e.to_string();
                if !e.contains("thermal runaway") {
                    holes.push(format!("{}: {e}\n  {}", spec.name, spec.to_json()));
                }
            }
        }
    }
    assert!(ran >= CASES / 2, "only {ran} of {CASES} specs validate");
    assert!(
        holes.is_empty(),
        "accepted but failed:\n{}",
        holes.join("\n")
    );
}
