//! Timing/activity-accurate NoC application model of the LDPC decoder.
//!
//! The paper's methodology: "A modified cycle-accurate NoC simulator is then
//! run with an encoded message to obtain switching rates for the components
//! in the chip during operation." This module is that run: it drives a
//! `hotnoc_noc::Network` with the message-passing traffic of the decoder
//! (functionally decoupled — no numeric decode runs; the network carries
//! the traffic volume of a fixed iteration count, which is what the
//! switching-rate methodology needs) and reports the block's latency and
//! per-tile PE operations. The routers' switching activity stays on the
//! network, in each router's own counters
//! (`Network::router(id).activity()`).
//!
//! The decoder's fixed schedule sends the same messages every iteration,
//! so the block does not step every cycle: [`LdpcNocApp::run_block`] runs
//! its iterations as [`Network::run_periods`] periods, which steps them
//! only until one starts in the network state the previous one started in
//! and applies the rest from its log (cycles, statistics, buffer writes
//! and link flits as logged; payload bit transitions recomputed for the
//! later packets' ids). The network ends as stepping would have left it.

use crate::code::LdpcCode;
use crate::error::LdpcError;
use crate::mapping::ClusterMapping;
use crate::schedule::{phase_traffic, IterPhase, MessageParams, PhaseTraffic};
use hotnoc_noc::{Network, NocError, NodeId, Packet, PacketClass};

/// Compute-model parameters of a PE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Edge operations retired per cycle by one PE (datapath parallelism).
    pub edges_per_cycle: u32,
    /// Fixed per-phase pipeline overhead cycles (operand fetch, barrier).
    pub phase_overhead_cycles: u32,
}

impl Default for ComputeModel {
    fn default() -> Self {
        ComputeModel {
            edges_per_cycle: 2,
            phase_overhead_cycles: 8,
        }
    }
}

/// Measured results of one decoded block on the NoC.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockRun {
    /// Total cycles from block start to completion.
    pub cycles: u64,
    /// Edge operations executed per tile (node-id indexed).
    pub ops_per_node: Vec<u64>,
}

/// The application model: a code, a cluster mapping, and the placement of
/// clusters onto mesh nodes.
#[derive(Debug, Clone)]
pub struct LdpcNocApp {
    code: LdpcCode,
    mapping: ClusterMapping,
    /// `placement[cluster] = node` the cluster currently executes on.
    placement: Vec<NodeId>,
    params: MessageParams,
    compute: ComputeModel,
    next_packet_id: u64,
}

impl LdpcNocApp {
    /// Creates the application model.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::InvalidClusterCount`] if the placement length
    /// does not match the mapping's cluster count.
    pub fn new(
        code: LdpcCode,
        mapping: ClusterMapping,
        placement: Vec<NodeId>,
        params: MessageParams,
        compute: ComputeModel,
    ) -> Result<Self, LdpcError> {
        if placement.len() != mapping.n_clusters() {
            return Err(LdpcError::InvalidClusterCount {
                clusters: placement.len(),
            });
        }
        Ok(LdpcNocApp {
            code,
            mapping,
            placement,
            params,
            compute,
            next_packet_id: 0,
        })
    }

    /// The identity placement: cluster `i` on node `i`.
    pub fn identity_placement(n_clusters: usize) -> Vec<NodeId> {
        (0..n_clusters).map(|i| NodeId::new(i as u16)).collect()
    }

    /// The code being decoded.
    pub fn code(&self) -> &LdpcCode {
        &self.code
    }

    /// The cluster mapping.
    pub fn mapping(&self) -> &ClusterMapping {
        &self.mapping
    }

    /// Current cluster→node placement.
    pub fn placement(&self) -> &[NodeId] {
        &self.placement
    }

    /// Decodes one block taking `iterations` message-passing iterations
    /// on `net`. The block's router events accumulate in `net`'s activity
    /// counters.
    ///
    /// Every iteration sends the same messages, so the iterations are
    /// [`Network::run_periods`] periods: they are stepped cycle by cycle
    /// until one starts in the network state the previous one started in,
    /// and the rest are applied from the last one's log, which leaves `net`
    /// as stepping them would have. A block steps at least two iterations,
    /// and a network with a fault plan, a trace or a delivery log, or with
    /// traffic in flight, steps every iteration.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Timeout`] if a phase fails to drain (indicating a
    /// saturated or misconfigured network).
    pub fn run_block(
        &mut self,
        net: &mut Network,
        iterations: usize,
    ) -> Result<BlockRun, NocError> {
        let start_cycle = net.cycle();

        let v2c = phase_traffic(
            &self.mapping,
            &self.code,
            IterPhase::VarToCheck,
            &self.params,
        );
        let c2v = phase_traffic(
            &self.mapping,
            &self.code,
            IterPhase::CheckToVar,
            &self.params,
        );
        let var_ops = self.mapping.var_ops_per_cluster(&self.code);
        let chk_ops = self.mapping.chk_ops_per_cluster(&self.code);

        let repeated = net.run_periods(iterations, |net| {
            self.run_phase(net, &v2c, &var_ops)?;
            self.run_phase(net, &c2v, &chk_ops)
        })?;
        self.next_packet_id += repeated;

        let mut ops_per_node = vec![0u64; net.mesh().len()];
        for (cluster, node) in self.placement.iter().enumerate() {
            ops_per_node[node.index()] = (var_ops[cluster] + chk_ops[cluster]) * iterations as u64;
        }
        Ok(BlockRun {
            cycles: net.cycle() - start_cycle,
            ops_per_node,
        })
    }

    /// One phase: compute locally, then exchange messages and drain.
    fn run_phase(
        &mut self,
        net: &mut Network,
        traffic: &PhaseTraffic,
        ops: &[u64],
    ) -> Result<(), NocError> {
        // Local compute: PEs work in parallel; the phase waits for the
        // slowest one.
        let max_ops = ops.iter().copied().max().unwrap_or(0);
        let compute_cycles = max_ops.div_ceil(self.compute.edges_per_cycle as u64)
            + self.compute.phase_overhead_cycles as u64;
        net.run(compute_cycles);

        // Message exchange.
        for t in &traffic.transfers {
            let src = self.placement[t.src_cluster];
            let dst = self.placement[t.dst_cluster];
            for &len in &t.packet_lens {
                let p = Packet::new(self.next_packet_id, src, dst, PacketClass::Data, len);
                self.next_packet_id += 1;
                net.inject(p)?;
            }
        }
        // Drain: a barrier at phase end (all messages delivered before the
        // next compute starts).
        let budget = 200_000;
        net.run_until_idle(budget)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotnoc_noc::{Mesh, NocConfig};

    fn setup(n_clusters: usize, mesh_side: usize) -> (LdpcNocApp, Network) {
        let code = LdpcCode::gallager(240, 3, 6, 5).unwrap();
        let mapping = ClusterMapping::contiguous(&code, n_clusters).unwrap();
        let app = LdpcNocApp::new(
            code,
            mapping,
            LdpcNocApp::identity_placement(n_clusters),
            MessageParams::default(),
            ComputeModel::default(),
        )
        .unwrap();
        let net = Network::new(Mesh::square(mesh_side).unwrap(), NocConfig::default());
        (app, net)
    }

    #[test]
    fn block_runs_and_measures() {
        let (mut app, mut net) = setup(16, 4);
        let run = app.run_block(&mut net, 5).unwrap();
        assert!(run.cycles > 0);
        assert!(net.stats().packets_delivered > 0);
        // Total ops = 2 * edges * iterations.
        let total_ops: u64 = run.ops_per_node.iter().sum();
        assert_eq!(total_ops, 2 * app.code().edges() as u64 * 5);
        // Activity landed on the routers.
        let writes: u64 = net
            .mesh()
            .iter_nodes()
            .map(|id| net.router(id).activity().buffer_writes)
            .sum();
        assert!(writes > 0);
    }

    #[test]
    fn two_blocks_are_reproducible() {
        let (mut app1, mut net1) = setup(16, 4);
        let (mut app2, mut net2) = setup(16, 4);
        let a = app1.run_block(&mut net1, 3).unwrap();
        let b = app2.run_block(&mut net2, 3).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.ops_per_node, b.ops_per_node);
    }

    #[test]
    fn placement_moves_activity() {
        let (mut app, mut net) = setup(16, 4);
        let base = app.run_block(&mut net, 2).unwrap();
        // Reverse the placement; the ops map should reverse too.
        let reversed: Vec<NodeId> = (0..16).rev().map(|i| NodeId::new(i as u16)).collect();
        let mut app = LdpcNocApp::new(
            app.code().clone(),
            app.mapping().clone(),
            reversed,
            MessageParams::default(),
            ComputeModel::default(),
        )
        .unwrap();
        let mut net2 = Network::new(Mesh::square(4).unwrap(), NocConfig::default());
        let moved = app.run_block(&mut net2, 2).unwrap();
        let rev_ops: Vec<u64> = base.ops_per_node.iter().rev().copied().collect();
        assert_eq!(moved.ops_per_node, rev_ops);
    }

    #[test]
    fn on_5x5_mesh_with_25_clusters() {
        let (mut app, mut net) = setup(25, 5);
        let run = app.run_block(&mut net, 2).unwrap();
        assert!(run.cycles > 0);
        assert_eq!(run.ops_per_node.len(), 25);
        assert!(run.ops_per_node.iter().all(|&o| o > 0));
    }

    #[test]
    fn mismatched_placement_rejected() {
        let code = LdpcCode::gallager(120, 3, 6, 1).unwrap();
        let mapping = ClusterMapping::contiguous(&code, 16).unwrap();
        let result = LdpcNocApp::new(
            code,
            mapping,
            vec![NodeId::new(0); 4],
            MessageParams::default(),
            ComputeModel::default(),
        );
        assert!(result.is_err());
    }

    #[test]
    fn longer_blocks_take_proportionally_longer() {
        let (mut app, mut net) = setup(16, 4);
        let short = app.run_block(&mut net, 2).unwrap();
        let long = app.run_block(&mut net, 4).unwrap();
        let ratio = long.cycles as f64 / short.cycles as f64;
        assert!((1.6..2.4).contains(&ratio), "scaling ratio {ratio}");
    }
}
