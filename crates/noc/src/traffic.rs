//! Synthetic traffic patterns for validation and benchmarking.
//!
//! The paper's workload is the LDPC decoder (crate `hotnoc-ldpc`); these
//! patterns exercise the simulator independently and drive the engineering
//! benchmarks (router saturation, latency/load curves).

use crate::flit::{Packet, PacketClass};
use crate::network::Network;
use crate::topology::{Coord, Mesh, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A classical synthetic destination pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Destination chosen uniformly at random (excluding the source).
    UniformRandom,
    /// `(x, y) -> (y, x)`.
    Transpose,
    /// `(x, y) -> (W-1-x, H-1-y)`.
    BitComplement,
    /// `(x, y) -> ((x + W/2) % W, y)`: worst case for ring-like traffic.
    Tornado,
    /// Nearest-neighbour: destination is the east neighbour (wrapping).
    Neighbor,
    /// A fraction of traffic targets a fixed set of hotspot nodes; the rest
    /// is uniform random.
    Hotspot {
        /// The oversubscribed destinations.
        nodes: Vec<Coord>,
        /// Probability that a packet targets a hotspot node (0..=1).
        fraction: f64,
    },
}

impl TrafficPattern {
    /// Picks a destination for a packet originating at `src`.
    pub fn destination(&self, mesh: Mesh, src: Coord, rng: &mut StdRng) -> Coord {
        let (w, h) = (mesh.width() as u8, mesh.height() as u8);
        match self {
            TrafficPattern::UniformRandom => loop {
                let d = Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
                if d != src {
                    return d;
                }
            },
            TrafficPattern::Transpose => Coord::new(src.y.min(w - 1), src.x.min(h - 1)),
            TrafficPattern::BitComplement => Coord::new(w - 1 - src.x, h - 1 - src.y),
            TrafficPattern::Tornado => Coord::new((src.x + w / 2) % w, src.y),
            TrafficPattern::Neighbor => Coord::new((src.x + 1) % w, src.y),
            TrafficPattern::Hotspot { nodes, fraction } => {
                if !nodes.is_empty() && rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                    nodes[rng.gen_range(0..nodes.len())]
                } else {
                    TrafficPattern::UniformRandom.destination(mesh, src, rng)
                }
            }
        }
    }
}

/// Open-loop Bernoulli traffic generator: every node independently injects a
/// packet with probability `rate` per cycle.
#[derive(Debug)]
pub struct TrafficGenerator {
    mesh: Mesh,
    pattern: TrafficPattern,
    /// Packets per node per cycle (0..=1).
    rate: f64,
    packet_len: u32,
    rng: StdRng,
    next_id: u64,
}

impl TrafficGenerator {
    /// Creates a generator with a fixed seed (reproducible).
    pub fn new(mesh: Mesh, pattern: TrafficPattern, rate: f64, packet_len: u32, seed: u64) -> Self {
        TrafficGenerator {
            mesh,
            pattern,
            rate: rate.clamp(0.0, 1.0),
            packet_len: packet_len.max(1),
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Number of packets generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Injects this cycle's packets into `net`. Returns how many were
    /// injected.
    ///
    /// # Panics
    ///
    /// Panics if the generator's mesh differs from the network's.
    pub fn tick(&mut self, net: &mut Network) -> u64 {
        assert_eq!(self.mesh, net.mesh(), "generator/network mesh mismatch");
        let mut injected = 0;
        for src in self.mesh.iter_coords() {
            if !self.rng.gen_bool(self.rate) {
                continue;
            }
            let dst = self.pattern.destination(self.mesh, src, &mut self.rng);
            if dst == src {
                continue;
            }
            let src_id: NodeId = self.mesh.node_id(src).expect("src in mesh");
            let dst_id: NodeId = self.mesh.node_id(dst).expect("dst in mesh");
            let p = Packet::new(
                self.next_id,
                src_id,
                dst_id,
                PacketClass::Data,
                self.packet_len,
            );
            self.next_id += 1;
            net.inject(p).expect("generated packet is valid");
            injected += 1;
        }
        injected
    }

    /// Runs `cycles` of open-loop injection + simulation, then drains.
    ///
    /// Returns `(offered, drained_ok)`: the number of packets offered and
    /// whether the network drained within the post-run budget.
    pub fn run(&mut self, net: &mut Network, cycles: u64, drain_budget: u64) -> (u64, bool) {
        let mut offered = 0;
        for _ in 0..cycles {
            offered += self.tick(net);
            net.step();
        }
        let ok = net.run_until_idle(drain_budget).is_ok();
        (offered, ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;

    fn mesh() -> Mesh {
        Mesh::square(4).unwrap()
    }

    #[test]
    fn patterns_stay_in_mesh() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(7);
        let patterns = [
            TrafficPattern::UniformRandom,
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbor,
            TrafficPattern::Hotspot {
                nodes: vec![Coord::new(1, 1)],
                fraction: 0.8,
            },
        ];
        for p in &patterns {
            for src in m.iter_coords() {
                for _ in 0..16 {
                    let d = p.destination(m, src, &mut rng);
                    assert!(m.contains(d), "{p:?} produced {d} from {src}");
                }
            }
        }
    }

    #[test]
    fn uniform_never_self() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(3);
        for src in m.iter_coords() {
            for _ in 0..50 {
                assert_ne!(
                    TrafficPattern::UniformRandom.destination(m, src, &mut rng),
                    src
                );
            }
        }
    }

    #[test]
    fn transpose_is_involution() {
        let m = mesh();
        let mut rng = StdRng::seed_from_u64(0);
        for src in m.iter_coords() {
            let d = TrafficPattern::Transpose.destination(m, src, &mut rng);
            let dd = TrafficPattern::Transpose.destination(m, d, &mut rng);
            assert_eq!(dd, src);
        }
    }

    #[test]
    fn low_load_uniform_delivers_everything() {
        let m = mesh();
        let mut net = Network::new(m, NocConfig::default());
        let mut gen = TrafficGenerator::new(m, TrafficPattern::UniformRandom, 0.05, 4, 42);
        let (offered, ok) = gen.run(&mut net, 2_000, 50_000);
        assert!(ok, "network failed to drain");
        assert!(offered > 0);
        assert_eq!(net.stats().packets_delivered, offered);
    }

    #[test]
    fn hotspot_pattern_concentrates() {
        let m = mesh();
        let hs = Coord::new(2, 2);
        let p = TrafficPattern::Hotspot {
            nodes: vec![hs],
            fraction: 0.9,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let mut hits = 0;
        let trials = 1000;
        for _ in 0..trials {
            if p.destination(m, Coord::new(0, 0), &mut rng) == hs {
                hits += 1;
            }
        }
        assert!(hits > trials / 2, "only {hits}/{trials} hotspot hits");
    }

    #[test]
    fn generator_is_reproducible() {
        let m = mesh();
        let run = |seed| {
            let mut net = Network::new(m, NocConfig::default());
            let mut gen = TrafficGenerator::new(m, TrafficPattern::UniformRandom, 0.1, 2, seed);
            gen.run(&mut net, 500, 20_000);
            net.stats().clone()
        };
        assert_eq!(run(9), run(9));
    }
}
