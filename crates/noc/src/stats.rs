//! Switching-activity counters and network statistics.
//!
//! The thermal methodology of the paper derives per-component power from
//! switching rates observed in the cycle-accurate simulation; these counters
//! are the interface between the NoC simulator and the power model.

use hotnoc_obs::Log2Histogram;
use std::ops::{Add, Sub};

/// Per-router event counters for one simulation interval.
///
/// Each counter corresponds to an energy-bearing micro-operation in the
/// router (buffer write, buffer read, crossbar traversal, arbitration,
/// outbound link flit). `RouterActivity` forms a commutative monoid under
/// `+` and supports windowed deltas via `-`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterActivity {
    /// Flits written into input buffers.
    pub buffer_writes: u64,
    /// Flits read out of input buffers.
    pub buffer_reads: u64,
    /// Flits that crossed the crossbar.
    pub xbar_traversals: u64,
    /// Switch-allocation decisions performed.
    pub arbitrations: u64,
    /// Flits sent on each output port (N, E, S, W, Local).
    pub link_flits: [u64; 5],
    /// Payload bit transitions observed on outbound links (for bit-accurate
    /// dynamic power estimates).
    pub bit_transitions: u64,
    /// Head flits routed (route computations).
    pub routes_computed: u64,
}

impl RouterActivity {
    /// Total flits sent on mesh links (excluding the local/ejection port).
    pub fn mesh_link_flits(&self) -> u64 {
        self.link_flits[..4].iter().sum()
    }

    /// Total flits sent on all output ports.
    pub fn total_link_flits(&self) -> u64 {
        self.link_flits.iter().sum()
    }

    /// `true` if no activity was recorded.
    pub fn is_idle(&self) -> bool {
        *self == RouterActivity::default()
    }
}

impl Add for RouterActivity {
    type Output = RouterActivity;

    fn add(self, rhs: RouterActivity) -> RouterActivity {
        let mut link_flits = [0u64; 5];
        for (i, slot) in link_flits.iter_mut().enumerate() {
            *slot = self.link_flits[i] + rhs.link_flits[i];
        }
        RouterActivity {
            buffer_writes: self.buffer_writes + rhs.buffer_writes,
            buffer_reads: self.buffer_reads + rhs.buffer_reads,
            xbar_traversals: self.xbar_traversals + rhs.xbar_traversals,
            arbitrations: self.arbitrations + rhs.arbitrations,
            link_flits,
            bit_transitions: self.bit_transitions + rhs.bit_transitions,
            routes_computed: self.routes_computed + rhs.routes_computed,
        }
    }
}

impl Sub for RouterActivity {
    type Output = RouterActivity;

    /// Windowed delta; saturates at zero so a reset mid-window cannot
    /// produce wrap-around garbage.
    fn sub(self, rhs: RouterActivity) -> RouterActivity {
        let mut link_flits = [0u64; 5];
        for (i, slot) in link_flits.iter_mut().enumerate() {
            *slot = self.link_flits[i].saturating_sub(rhs.link_flits[i]);
        }
        RouterActivity {
            buffer_writes: self.buffer_writes.saturating_sub(rhs.buffer_writes),
            buffer_reads: self.buffer_reads.saturating_sub(rhs.buffer_reads),
            xbar_traversals: self.xbar_traversals.saturating_sub(rhs.xbar_traversals),
            arbitrations: self.arbitrations.saturating_sub(rhs.arbitrations),
            link_flits,
            bit_transitions: self.bit_transitions.saturating_sub(rhs.bit_transitions),
            routes_computed: self.routes_computed.saturating_sub(rhs.routes_computed),
        }
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
    /// ejected). Zero on a healthy fabric; flit conservation holds as
    /// `flits_injected == flits_ejected + flits_dropped` once idle.
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

    /// Delivered throughput in flits per cycle over `cycles`.
    pub fn throughput(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.flits_ejected as f64 / cycles as f64
        }
    }
}

/// A point-in-time snapshot of every activity counter in the network.
///
/// Snapshots are cheap (a few hundred words) and subtractable, which is how
/// the co-simulation extracts per-window activity for the power model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActivitySnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Per-router activity, indexed by node id.
    pub routers: Vec<RouterActivity>,
    /// Per-node injected flits (NIC activity).
    pub nic_injected: Vec<u64>,
    /// Per-node ejected flits (NIC activity).
    pub nic_ejected: Vec<u64>,
}

impl ActivitySnapshot {
    /// Computes the activity that happened between `earlier` and `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two snapshots come from differently sized networks.
    pub fn delta_since(&self, earlier: &ActivitySnapshot) -> ActivitySnapshot {
        assert_eq!(
            self.routers.len(),
            earlier.routers.len(),
            "snapshots from different networks"
        );
        ActivitySnapshot {
            cycle: self.cycle.saturating_sub(earlier.cycle),
            routers: self
                .routers
                .iter()
                .zip(&earlier.routers)
                .map(|(a, b)| *a - *b)
                .collect(),
            nic_injected: self
                .nic_injected
                .iter()
                .zip(&earlier.nic_injected)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            nic_ejected: self
                .nic_ejected
                .iter()
                .zip(&earlier.nic_ejected)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> RouterActivity {
        RouterActivity {
            buffer_writes: n,
            buffer_reads: n + 1,
            xbar_traversals: n + 2,
            arbitrations: n + 3,
            link_flits: [n, n, n, n, n],
            bit_transitions: 10 * n,
            routes_computed: n / 2,
        }
    }

    #[test]
    fn activity_add_sub_roundtrip() {
        let a = sample(10);
        let b = sample(3);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn activity_sub_saturates() {
        let small = sample(1);
        let big = sample(5);
        let d = small - big;
        assert_eq!(d.buffer_writes, 0);
        assert_eq!(d.link_flits, [0; 5]);
    }

    #[test]
    fn mesh_vs_total_link_flits() {
        let a = sample(2);
        assert_eq!(a.mesh_link_flits(), 8);
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
        s.flits_ejected = 50;
        assert_eq!(s.mean_latency(), Some(25.0));
        assert!((s.throughput(100) - 0.5).abs() < 1e-12);
        assert_eq!(s.throughput(0), 0.0);
    }

    #[test]
    fn snapshot_delta() {
        let early = ActivitySnapshot {
            cycle: 100,
            routers: vec![sample(1), sample(2)],
            nic_injected: vec![5, 6],
            nic_ejected: vec![1, 2],
        };
        let late = ActivitySnapshot {
            cycle: 300,
            routers: vec![sample(4), sample(9)],
            nic_injected: vec![15, 16],
            nic_ejected: vec![11, 12],
        };
        let d = late.delta_since(&early);
        assert_eq!(d.cycle, 200);
        assert_eq!(d.routers[0].buffer_writes, 3);
        assert_eq!(d.nic_injected, vec![10, 10]);
        assert_eq!(d.nic_ejected, vec![10, 10]);
    }

    #[test]
    #[should_panic(expected = "different networks")]
    fn snapshot_delta_size_mismatch_panics() {
        let a = ActivitySnapshot {
            cycle: 0,
            routers: vec![sample(1)],
            nic_injected: vec![0],
            nic_ejected: vec![0],
        };
        let b = ActivitySnapshot {
            cycle: 0,
            routers: vec![],
            nic_injected: vec![],
            nic_ejected: vec![],
        };
        let _ = a.delta_since(&b);
    }
}
