//! Router dynamic power from event counts (Orion-style decomposition).

use crate::tech::TechParams;
use hotnoc_noc::RouterActivity;

/// Dynamic energy consumed by one router's counted events, in joules.
///
/// Every flit that leaves the router was read from an input buffer,
/// arbitrated and switched through the crossbar on its way to the link, so
/// each departing flit pays `e_buffer_read`, `e_xbar`, `e_arb` and
/// `e_link_flit`.
pub fn router_dynamic_energy(a: &RouterActivity, tech: &TechParams) -> f64 {
    let departures = a.total_link_flits() as f64;
    // One product per event, summed in this order: the golden exhibits pin
    // the calibrated watts to this rounding.
    a.buffer_writes as f64 * tech.e_buffer_write
        + departures * tech.e_buffer_read
        + departures * tech.e_xbar
        + departures * tech.e_arb
        + departures * tech.e_link_flit
        + a.bit_transitions as f64 * tech.e_bit_transition
}

/// Average dynamic power of one router over a window of `seconds`, in
/// watts. Zero for an empty window.
pub fn router_dynamic_power(a: &RouterActivity, seconds: f64, tech: &TechParams) -> f64 {
    if seconds == 0.0 {
        return 0.0;
    }
    router_dynamic_energy(a, tech) / seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1000 writes, 900 departures.
    fn act() -> RouterActivity {
        RouterActivity {
            buffer_writes: 1000,
            link_flits: [200, 200, 200, 200, 100],
            bit_transitions: 32_000,
        }
    }

    #[test]
    fn energy_is_linear_in_activity() {
        let tech = TechParams::ldpc_160nm();
        let e1 = router_dynamic_energy(&act(), &tech);
        let a = act();
        let doubled = RouterActivity {
            buffer_writes: 2 * a.buffer_writes,
            link_flits: a.link_flits.map(|f| 2 * f),
            bit_transitions: 2 * a.bit_transitions,
        };
        let e2 = router_dynamic_energy(&doubled, &tech);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_scales_inverse_with_window() {
        let tech = TechParams::ldpc_160nm();
        let p1 = router_dynamic_power(&act(), 2.0e-6, &tech);
        let p2 = router_dynamic_power(&act(), 4.0e-6, &tech);
        assert!((p1 / p2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn buffer_events_dominate_arbitration() {
        // Sanity on the decomposition: datapath >> control for wide flits.
        let tech = TechParams::ldpc_160nm();
        assert!(tech.e_buffer_write > 10.0 * tech.e_arb);
    }

    #[test]
    fn plausible_magnitude() {
        // A saturated router (1 flit/cycle on 4 ports) at 500 MHz should
        // burn tens of milliwatts to a few hundred, not watts.
        let tech = TechParams::ldpc_160nm();
        let cycles = 500_000;
        let a = RouterActivity {
            buffer_writes: 4 * cycles,
            link_flits: [cycles, cycles, cycles, cycles, 0],
            bit_transitions: 4 * 32 * cycles,
        };
        let seconds = hotnoc_noc::NocConfig::default().cycles_to_seconds(cycles);
        let p = router_dynamic_power(&a, seconds, &tech);
        assert!((0.01..2.0).contains(&p), "router power {p} W implausible");
    }
}
