//! Property tests for the power models: linearity in activity, inverse
//! scaling with window length, leakage monotonicity in temperature.

use hotnoc_noc::{NocConfig, RouterActivity};
use hotnoc_power::{leakage, pe_power, router_power, tech::TechParams};
use proptest::prelude::*;

fn activity_strategy() -> impl Strategy<Value = RouterActivity> {
    (
        0u64..1_000_000,
        0u64..200_000,
        0u64..200_000,
        0u64..200_000,
        0u64..200_000,
        0u64..200_000,
        0u64..10_000_000,
    )
        .prop_map(|(bw, n, e, s, w, l, bt)| RouterActivity {
            buffer_writes: bw,
            link_flits: [n, e, s, w, l],
            bit_transitions: bt,
        })
}

fn sum(a: &RouterActivity, b: &RouterActivity) -> RouterActivity {
    RouterActivity {
        buffer_writes: a.buffer_writes + b.buffer_writes,
        link_flits: std::array::from_fn(|d| a.link_flits[d] + b.link_flits[d]),
        bit_transitions: a.bit_transitions + b.bit_transitions,
    }
}

fn seconds(cycles: u64) -> f64 {
    NocConfig::default().cycles_to_seconds(cycles)
}

proptest! {
    #[test]
    fn router_energy_additive(a in activity_strategy(), b in activity_strategy()) {
        let tech = TechParams::ldpc_160nm();
        let ea = router_power::router_dynamic_energy(&a, &tech);
        let eb = router_power::router_dynamic_energy(&b, &tech);
        let eab = router_power::router_dynamic_energy(&sum(&a, &b), &tech);
        prop_assert!((eab - (ea + eb)).abs() < 1e-9 * (1.0 + eab.abs()));
    }

    #[test]
    fn power_halves_when_window_doubles(
        a in activity_strategy(),
        cycles in 1u64..10_000_000,
    ) {
        let tech = TechParams::ldpc_160nm();
        let p1 = router_power::router_dynamic_power(&a, seconds(cycles), &tech);
        let p2 = router_power::router_dynamic_power(&a, seconds(cycles * 2), &tech);
        prop_assert!((p1 - 2.0 * p2).abs() < 1e-9 * (1.0 + p1.abs()));
    }

    #[test]
    fn pe_power_linear_in_ops(ops in 0u64..10_000_000, cycles in 1u64..10_000_000) {
        let tech = TechParams::ldpc_160nm();
        let p1 = pe_power::pe_dynamic_power(ops, seconds(cycles), &tech);
        let p2 = pe_power::pe_dynamic_power(ops * 2, seconds(cycles), &tech);
        prop_assert!((p2 - 2.0 * p1).abs() < 1e-9 * (1.0 + p2.abs()));
    }

    #[test]
    fn leakage_monotone_in_temperature(
        t1 in -20.0f64..200.0,
        dt in 0.1f64..100.0,
        area in 0.1f64..50.0,
    ) {
        let tech = TechParams::ldpc_160nm();
        let cold = leakage::leakage_power(area, t1, &tech);
        let hot = leakage::leakage_power(area, t1 + dt, &tech);
        prop_assert!(hot > cold);
        prop_assert!(cold > 0.0);
    }
}
