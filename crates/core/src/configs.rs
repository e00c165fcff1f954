//! The paper's five chip configurations.
//!
//! "The 4x4 chip is evaluated with two different configurations (referred to
//! as A and B), while the 5x5 chip is evaluated with three different
//! configurations (C, D, E). Differences in thermal profiles and power
//! consumption between the configurations are due to the irregularity of the
//! communication patterns and the amount of computation mapped to a single
//! PE."
//!
//! Each configuration is captured by its per-tile workload weights — the
//! amount of LDPC computation the (thermally-aware, §2 of the paper)
//! placement flow assigned to each PE. The paper's chips are fixed
//! placed-and-routed artifacts; the weights below are calibrated so that the
//! resulting power maps reproduce the base peak temperatures of Figure 1
//! (A 85.44 °C, B 84.05 °C, C 75.17 °C, D 72.80 °C, E 75.98 °C over a 40 °C
//! ambient) and the structural features §3 describes: every configuration
//! carries one row of "significantly higher power output" (the warm band),
//! and configuration E's hotspots sit near the centre of the die.

use std::fmt;

/// Identifier of one of the paper's configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipConfigId {
    /// 4x4, base peak 85.44 °C.
    A,
    /// 4x4, base peak 84.05 °C.
    B,
    /// 5x5, base peak 75.17 °C.
    C,
    /// 5x5, base peak 72.80 °C.
    D,
    /// 5x5, base peak 75.98 °C (hotspots near the centre).
    E,
}

impl ChipConfigId {
    /// All five configurations in Figure 1 order.
    pub const ALL: [ChipConfigId; 5] = [
        ChipConfigId::A,
        ChipConfigId::B,
        ChipConfigId::C,
        ChipConfigId::D,
        ChipConfigId::E,
    ];
}

impl std::str::FromStr for ChipConfigId {
    type Err = String;

    /// Parses a configuration letter, case-insensitively (`"a"`/`"A"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_uppercase().as_str() {
            "A" => Ok(ChipConfigId::A),
            "B" => Ok(ChipConfigId::B),
            "C" => Ok(ChipConfigId::C),
            "D" => Ok(ChipConfigId::D),
            "E" => Ok(ChipConfigId::E),
            other => Err(format!("unknown chip configuration {other:?} (want A-E)")),
        }
    }
}

impl fmt::Display for ChipConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChipConfigId::A => "A",
            ChipConfigId::B => "B",
            ChipConfigId::C => "C",
            ChipConfigId::D => "D",
            ChipConfigId::E => "E",
        };
        f.write_str(s)
    }
}

/// Fidelity level: full-size workload for benchmark/figure regeneration,
/// reduced workload for fast unit/integration tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Paper-scale code and simulation horizon.
    Full,
    /// Small code and short horizon (seconds-fast in debug builds).
    Quick,
}

/// Full description of one chip configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Mesh side length (4 or 5).
    pub mesh_side: usize,
    /// The paper's base (no-migration) peak temperature for this
    /// configuration, °C — the calibration target.
    pub base_peak_celsius: f64,
    /// Per-tile workload weights, row-major (node-id order). Length
    /// `mesh_side^2`.
    pub tile_weights: Vec<f64>,
    /// LDPC block length.
    pub code_n: usize,
    /// Variable degree.
    pub wc: usize,
    /// Check degree.
    pub wr: usize,
    /// Code construction seed.
    pub seed: u64,
    /// Decoder iterations per block (fixed schedule, as in hardware).
    pub iterations: usize,
}

/// Per-tile weights of configuration A (4x4, row-major, y=0 first).
///
/// Structure: a strong warm band on the bottom edge row (hottest at (1,0))
/// plus warmth along that tile's wrap-diagonal class
/// {(1,0),(2,1),(3,2),(0,3)}. Wrap-diagonal classes are invariant under the
/// X-Y shift, which handicaps translation on this chip; rotation's orbits
/// cut across both the band and the diagonal, which is why Figure 1 shows
/// rotation and X-Y mirroring strongest on the even-dimensioned chips.
const WEIGHTS_A: [f64; 16] = [
    2.20, 3.20, 2.00, 1.70, // y = 0 (warm band)
    0.70, 0.70, 1.90, 0.70, // y = 1 (diagonal warmth at x=2)
    0.70, 0.70, 0.70, 1.80, // y = 2 (diagonal warmth at x=3)
    1.60, 0.70, 0.70, 0.70, // y = 3 (diagonal warmth at x=0)
];

/// Configuration B (4x4): warm band on the top edge row (hottest at (2,3))
/// with warmth along its wrap-diagonal class {(2,3),(3,0),(0,1),(1,2)}.
const WEIGHTS_B: [f64; 16] = [
    0.70, 0.70, 0.70, 1.50, // y = 0 (diagonal warmth at x=3)
    1.80, 0.70, 0.70, 0.70, // y = 1 (diagonal warmth at x=0)
    0.70, 1.90, 0.70, 0.70, // y = 2 (diagonal warmth at x=1)
    1.60, 2.10, 3.00, 1.90, // y = 3 (warm band)
];

/// Configuration C (5x5): a single strong warm band on row 1 and no
/// diagonal structure. On the odd mesh the X-Y shift walks every tile
/// through five distinct rows and columns (no fixed points), dispersing the
/// band completely; rotation's inner-ring orbits pass through two band
/// members ((1,1) and (3,1) share an orbit), which limits it — §3's
/// "translation is more effective" for the larger chips.
const WEIGHTS_C: [f64; 25] = [
    0.70, 0.75, 0.70, 0.75, 0.70, // y = 0
    2.60, 3.00, 2.40, 2.20, 2.00, // y = 1 (warm band)
    0.70, 0.70, 0.75, 0.70, 0.70, // y = 2
    0.65, 0.70, 0.70, 0.70, 0.65, // y = 3
    0.65, 0.70, 0.65, 0.70, 0.65, // y = 4
];

/// Configuration D (5x5): warm band on row 3, milder contrast (the coolest
/// chip, base 72.8 °C).
const WEIGHTS_D: [f64; 25] = [
    0.70, 0.75, 0.70, 0.75, 0.70, // y = 0
    0.70, 0.70, 0.75, 0.70, 0.70, // y = 1
    0.70, 0.75, 0.70, 0.70, 0.70, // y = 2
    2.20, 2.60, 2.90, 2.30, 2.10, // y = 3 (warm band)
    0.65, 0.70, 0.65, 0.70, 0.65, // y = 4
];

/// Configuration E (5x5): hotspots near the centre of the chip — the centre
/// tile and a warm band through the centre row. Rotation and mirroring fix
/// the centre of an odd mesh, so they cannot move the dominant hotspot at
/// all; with the reconfiguration energy added, §3 reports rotation
/// "actually results in higher peak temperatures for configuration E".
const WEIGHTS_E: [f64; 25] = [
    0.70, 0.75, 0.70, 0.75, 0.70, // y = 0
    0.80, 0.95, 1.50, 0.95, 0.80, // y = 1
    2.10, 2.40, 3.00, 2.40, 2.10, // y = 2 (warm band through the centre)
    0.80, 0.95, 1.50, 0.95, 0.80, // y = 3
    0.70, 0.75, 0.70, 0.75, 0.70, // y = 4
];

/// LDPC code size and decoder iterations per fidelity level. 4320 bits at
/// 20 iterations gives ~109 us blocks on the 4x4 chip at 500 MHz — the
/// paper's migration period granularity.
fn code_params(fidelity: Fidelity) -> (usize, usize) {
    match fidelity {
        Fidelity::Full => (4320, 20),
        Fidelity::Quick => (480, 4),
    }
}

impl ChipSpec {
    /// The specification of configuration `id` at the given fidelity.
    pub fn of(id: ChipConfigId, fidelity: Fidelity) -> ChipSpec {
        let (mesh_side, base_peak, weights): (usize, f64, &[f64]) = match id {
            ChipConfigId::A => (4, 85.44, &WEIGHTS_A),
            ChipConfigId::B => (4, 84.05, &WEIGHTS_B),
            ChipConfigId::C => (5, 75.17, &WEIGHTS_C),
            ChipConfigId::D => (5, 72.80, &WEIGHTS_D),
            ChipConfigId::E => (5, 75.98, &WEIGHTS_E),
        };
        let (code_n, iterations) = code_params(fidelity);
        ChipSpec {
            mesh_side,
            base_peak_celsius: base_peak,
            tile_weights: weights.to_vec(),
            code_n,
            wc: 3,
            wr: 6,
            seed: 0xDA7E_2005 + id as u64,
            iterations,
        }
    }

    /// A user-defined chip outside the paper's five configurations: a
    /// square `mesh_side` x `mesh_side` die with arbitrary per-tile
    /// workload weights, calibrated to `base_peak_celsius`. The LDPC code
    /// parameters follow `fidelity` exactly as for the named
    /// configurations.
    ///
    /// # Panics
    ///
    /// Panics if `tile_weights.len() != mesh_side * mesh_side`.
    pub fn custom(
        mesh_side: usize,
        tile_weights: Vec<f64>,
        base_peak_celsius: f64,
        fidelity: Fidelity,
    ) -> ChipSpec {
        assert_eq!(
            tile_weights.len(),
            mesh_side * mesh_side,
            "tile_weights must cover the {mesh_side}x{mesh_side} mesh"
        );
        let (code_n, iterations) = code_params(fidelity);
        ChipSpec {
            mesh_side,
            base_peak_celsius,
            tile_weights,
            code_n,
            wc: 3,
            wr: 6,
            seed: 0xDA7E_2005,
            iterations,
        }
    }

    /// Number of tiles (PEs).
    pub fn n_tiles(&self) -> usize {
        self.mesh_side * self.mesh_side
    }

    /// Index of the tile with the highest workload weight.
    pub fn hottest_tile(&self) -> usize {
        self.tile_weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty weights")
            .0
    }

    /// The warm-band row: the row with the highest total weight. §3: "In
    /// all test cases, one of the rows had a significantly higher power
    /// output than the remaining rows."
    pub fn warm_band_row(&self) -> usize {
        let n = self.mesh_side;
        (0..n)
            .max_by(|&a, &b| {
                let wa: f64 = self.tile_weights[a * n..(a + 1) * n].iter().sum();
                let wb: f64 = self.tile_weights[b * n..(b + 1) * n].iter().sum();
                wa.total_cmp(&wb)
            })
            .expect("non-empty mesh")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_well_formed() {
        for id in ChipConfigId::ALL {
            let spec = ChipSpec::of(id, Fidelity::Full);
            assert_eq!(spec.tile_weights.len(), spec.n_tiles());
            assert!(spec.tile_weights.iter().all(|&w| w > 0.0));
            assert!(spec.code_n.is_multiple_of(spec.wr));
            assert!(spec.base_peak_celsius > 70.0 && spec.base_peak_celsius < 90.0);
        }
    }

    #[test]
    fn mesh_sides_match_paper() {
        assert_eq!(ChipSpec::of(ChipConfigId::A, Fidelity::Full).mesh_side, 4);
        assert_eq!(ChipSpec::of(ChipConfigId::B, Fidelity::Full).mesh_side, 4);
        for id in [ChipConfigId::C, ChipConfigId::D, ChipConfigId::E] {
            assert_eq!(ChipSpec::of(id, Fidelity::Full).mesh_side, 5);
        }
    }

    #[test]
    fn base_peaks_match_figure1() {
        let peaks: Vec<f64> = ChipConfigId::ALL
            .iter()
            .map(|&id| ChipSpec::of(id, Fidelity::Full).base_peak_celsius)
            .collect();
        assert_eq!(peaks, vec![85.44, 84.05, 75.17, 72.80, 75.98]);
    }

    #[test]
    fn every_config_has_a_warm_band() {
        for id in ChipConfigId::ALL {
            let spec = ChipSpec::of(id, Fidelity::Full);
            let n = spec.mesh_side;
            let band = spec.warm_band_row();
            let band_sum: f64 = spec.tile_weights[band * n..(band + 1) * n].iter().sum();
            for row in 0..n {
                if row == band {
                    continue;
                }
                let sum: f64 = spec.tile_weights[row * n..(row + 1) * n].iter().sum();
                assert!(
                    band_sum > 1.3 * sum,
                    "{id}: row {row} rivals the warm band ({sum} vs {band_sum})"
                );
            }
        }
    }

    #[test]
    fn config_e_hotspot_is_central() {
        let spec = ChipSpec::of(ChipConfigId::E, Fidelity::Full);
        // Centre tile of a 5x5 in row-major order is index 12.
        assert_eq!(spec.hottest_tile(), 12);
        assert_eq!(spec.warm_band_row(), 2);
    }

    #[test]
    fn configs_a_b_hotspots_off_center() {
        for id in [ChipConfigId::A, ChipConfigId::B] {
            let spec = ChipSpec::of(id, Fidelity::Full);
            let hot = spec.hottest_tile();
            let (x, y) = (hot % 4, hot / 4);
            assert!(
                x == 0 || y == 0 || x == 3 || y == 3,
                "{id}: hottest tile ({x},{y}) not on the edge"
            );
        }
    }

    #[test]
    fn quick_fidelity_is_smaller() {
        let full = ChipSpec::of(ChipConfigId::A, Fidelity::Full);
        let quick = ChipSpec::of(ChipConfigId::A, Fidelity::Quick);
        assert!(quick.code_n < full.code_n);
        assert!(quick.iterations < full.iterations);
        assert_eq!(quick.tile_weights, full.tile_weights);
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = ChipConfigId::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, vec!["A", "B", "C", "D", "E"]);
    }
}
