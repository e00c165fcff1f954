//! Switching-activity counters and network statistics.
//!
//! The paper derives per-component power from switching rates observed in
//! the cycle-accurate simulation. [`RouterActivity`] is that hand-off: each
//! router counts its own events, and `hotnoc-power` prices the record as it
//! stands.

use hotnoc_obs::Log2Histogram;

/// Per-router event counters, cumulative since the router was built.
///
/// A flit that wins switch allocation is read from its input buffer,
/// arbitrated, crosses the crossbar and leaves on one output port, so
/// `link_flits` counts all four of those events at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits sent on each output port (N, E, S, W, Local).
    pub link_flits: [u64; 5],
    /// Payload bit transitions observed on outbound links (for bit-accurate
    /// dynamic power estimates).
    pub bit_transitions: u64,
}

impl RouterActivity {
    /// Total flits sent on all output ports.
    pub fn total_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// `true` if no activity was recorded.
    pub fn is_idle(&self) -> bool {
        *self == RouterActivity::default()
    }
}

/// Network-wide aggregate statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkStats {
    /// Packets injected into the network.
    pub packets_injected: u64,
    /// Packets fully delivered (tail ejected).
    pub packets_delivered: u64,
    /// Flits injected.
    pub flits_injected: u64,
    /// Flits ejected.
    pub flits_ejected: u64,
    /// Sum of packet latencies (inject -> tail ejection), in cycles.
    pub total_packet_latency: u64,
    /// Maximum packet latency observed.
    pub max_packet_latency: u64,
    /// Total flit-hops (each flit crossing each mesh link counts once).
    pub flit_hops: u64,
    /// Flits physically removed from the network by fault teardown (never
    /// ejected). Zero on a healthy fabric. Flit conservation makes
    /// `flits_injected - flits_ejected - flits_dropped` the flits still in
    /// the network, which is how [`crate::Network::in_flight`] counts them.
    pub flits_dropped: u64,
    /// Packets dropped by fault teardown (each counted once, however many
    /// of its flits were still in flight).
    pub packets_dropped: u64,
    /// Route computations where surround routing chose a different output
    /// than XY routing would have.
    pub detour_hops: u64,
    /// Distribution of packet latencies, cycles.
    pub latency_histogram: Log2Histogram,
}

impl NetworkStats {
    /// Mean packet latency in cycles, or `None` before any delivery.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.packets_delivered > 0)
            .then(|| self.total_packet_latency as f64 / self.packets_delivered as f64)
    }

    /// Accumulates a delta produced by one stripe of the parallel sweep.
    /// Every field is a commutative fold (sums, max, bucket-wise histogram
    /// addition), so the merged totals do not depend on stripe order.
    pub fn merge(&mut self, delta: &NetworkStats) {
        self.packets_injected += delta.packets_injected;
        self.packets_delivered += delta.packets_delivered;
        self.flits_injected += delta.flits_injected;
        self.flits_ejected += delta.flits_ejected;
        self.total_packet_latency += delta.total_packet_latency;
        self.max_packet_latency = self.max_packet_latency.max(delta.max_packet_latency);
        self.flit_hops += delta.flit_hops;
        self.flits_dropped += delta.flits_dropped;
        self.packets_dropped += delta.packets_dropped;
        self.detour_hops += delta.detour_hops;
        self.latency_histogram.merge(&delta.latency_histogram);
    }

    /// Upper bound on the `q`-quantile packet latency (the bucket edge of
    /// [`Log2Histogram::quantile_upper_bound`]), or `None` before any
    /// delivery. This is what latency-vs-load curves report as p50/p95.
    pub fn latency_quantile_upper(&self, q: f64) -> Option<u64> {
        self.latency_histogram.quantile_upper_bound(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> RouterActivity {
        RouterActivity {
            buffer_writes: n,
            link_flits: [n, n, n, n, n],
            bit_transitions: 10 * n,
        }
    }

    #[test]
    fn mesh_vs_total_link_flits() {
        let a = sample(2);
        assert_eq!(a.total_link_flits(), 10);
    }

    #[test]
    fn idle_detection() {
        assert!(RouterActivity::default().is_idle());
        assert!(!sample(1).is_idle());
    }

    #[test]
    fn stats_merge_folds_all_fields() {
        let mut a = NetworkStats {
            packets_delivered: 2,
            total_packet_latency: 30,
            max_packet_latency: 20,
            flit_hops: 7,
            ..NetworkStats::default()
        };
        a.latency_histogram.record(10);
        a.latency_histogram.record(20);
        let mut b = NetworkStats {
            packets_delivered: 1,
            total_packet_latency: 50,
            max_packet_latency: 50,
            flits_ejected: 4,
            ..NetworkStats::default()
        };
        b.latency_histogram.record(50);
        a.merge(&b);
        assert_eq!(a.packets_delivered, 3);
        assert_eq!(a.total_packet_latency, 80);
        assert_eq!(a.max_packet_latency, 50);
        assert_eq!(a.flits_ejected, 4);
        assert_eq!(a.flit_hops, 7);
        assert_eq!(a.latency_histogram.count(), 3);
    }

    #[test]
    fn stats_latency_quantile_delegates_to_the_histogram() {
        let mut s = NetworkStats::default();
        assert_eq!(s.latency_quantile_upper(0.5), None);
        for lat in [1u64, 2, 2, 3, 100] {
            s.latency_histogram.record(lat);
        }
        assert_eq!(s.latency_quantile_upper(0.5), Some(4));
        assert_eq!(s.latency_quantile_upper(1.0), Some(128));
    }

    #[test]
    fn stats_latency_and_throughput() {
        let mut s = NetworkStats::default();
        assert_eq!(s.mean_latency(), None);
        s.packets_delivered = 4;
        s.total_packet_latency = 100;
        assert_eq!(s.mean_latency(), Some(25.0));
    }
}
