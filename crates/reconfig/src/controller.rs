//! The runtime reconfiguration controller.
//!
//! Triggers a migration every `period_blocks` completed LDPC blocks — the
//! paper chooses "periods for reconfiguration ... to coincide with the
//! completion of the decoding of LDPC message blocks, minimizing the amount
//! of state information that must be transferred between PEs". The
//! controller owns the cumulative logical↔physical map and the (fixed,
//! deterministic) migration plan.

use crate::io_transform::CumulativeMap;
use crate::phases::{MigrationPlan, PhaseCostModel};
use crate::state_transfer::StateSpec;
use crate::transform::MigrationScheme;
use hotnoc_noc::Mesh;

/// A migration that must now be executed by the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationEvent {
    /// 1-based index of this migration.
    pub index: u64,
    /// Stall duration in cycles (all PEs halted, §2.1).
    pub stall_cycles: u64,
    /// Flit-hops of state-transfer traffic (for energy accounting).
    pub flit_hops: u64,
    /// Number of congestion-free phases executed.
    pub phases: usize,
    /// The cumulative logical→physical permutation *after* this migration.
    pub permutation: Vec<usize>,
}

/// Periodic migration controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigController {
    mesh: Mesh,
    scheme: MigrationScheme,
    period_blocks: u64,
    blocks_done: u64,
    migrations: u64,
    map: CumulativeMap,
    plan: MigrationPlan,
}

impl ReconfigController {
    /// Creates a controller that migrates after every `period_blocks`
    /// completed blocks using `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if `period_blocks == 0` or the scheme is inapplicable to the
    /// mesh (rotation on a rectangle).
    pub fn new(
        mesh: Mesh,
        scheme: MigrationScheme,
        period_blocks: u64,
        state: &StateSpec,
        cost: &PhaseCostModel,
    ) -> Self {
        assert!(period_blocks > 0, "period must be at least one block");
        assert!(scheme.is_applicable(mesh), "{scheme} not applicable");
        ReconfigController {
            mesh,
            scheme,
            period_blocks,
            blocks_done: 0,
            migrations: 0,
            map: CumulativeMap::identity(mesh),
            plan: MigrationPlan::plan(mesh, scheme, state, cost),
        }
    }

    /// The migration scheme in use.
    pub fn scheme(&self) -> MigrationScheme {
        self.scheme
    }

    /// The fixed migration plan (identical every period — deterministic).
    pub fn plan(&self) -> &MigrationPlan {
        &self.plan
    }

    /// The current cumulative logical↔physical map.
    pub fn map(&self) -> &CumulativeMap {
        &self.map
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Reports one completed LDPC block. Returns the migration to execute
    /// if this block completes a period.
    pub fn on_block_complete(&mut self) -> Option<MigrationEvent> {
        self.blocks_done += 1;
        if !self.blocks_done.is_multiple_of(self.period_blocks) {
            return None;
        }
        self.map.apply_scheme(self.scheme);
        self.migrations += 1;
        Some(MigrationEvent {
            index: self.migrations,
            stall_cycles: self.plan.total_cycles(),
            flit_hops: self.plan.total_flit_hops(),
            phases: self.plan.num_phases(),
            permutation: self.map.as_permutation(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(period: u64) -> ReconfigController {
        ReconfigController::new(
            Mesh::square(4).unwrap(),
            MigrationScheme::XYShift,
            period,
            &StateSpec::ldpc_default(),
            &PhaseCostModel::default(),
        )
    }

    #[test]
    fn fires_every_period() {
        let mut c = ctrl(4);
        let mut events = 0;
        for _ in 0..16 {
            if c.on_block_complete().is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 4);
        assert_eq!(c.migrations(), 4);
    }

    #[test]
    fn period_one_fires_every_block() {
        let mut c = ctrl(1);
        for i in 1..=5 {
            let ev = c.on_block_complete().expect("fires every block");
            assert_eq!(ev.index, i);
        }
    }

    #[test]
    fn map_accumulates() {
        let mut c = ctrl(1);
        let mesh = Mesh::square(4).unwrap();
        c.on_block_complete();
        c.on_block_complete();
        // Two X-Y shifts = shift by (2, 2).
        let expect = |x: u8, y: u8| hotnoc_noc::Coord::new((x + 2) % 4, (y + 2) % 4);
        for co in mesh.iter_coords() {
            use hotnoc_noc::AddressMap;
            assert_eq!(c.map().logical_to_physical(co), expect(co.x, co.y));
        }
    }

    #[test]
    fn event_carries_plan_costs() {
        let mut c = ctrl(1);
        let ev = c.on_block_complete().unwrap();
        assert_eq!(ev.stall_cycles, c.plan().total_cycles());
        assert_eq!(ev.flit_hops, c.plan().total_flit_hops());
        assert_eq!(ev.permutation.len(), 16);
    }

    #[test]
    #[should_panic(expected = "period must be at least one block")]
    fn zero_period_rejected() {
        ctrl(0);
    }
}
