//! Simulated annealing over cluster→tile assignments.

use crate::cost::PlacementCost;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated-annealing parameters. The defaults anneal a 25-tile problem in
/// well under a second with the thermal objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Annealer {
    /// Total proposed moves.
    pub iters: usize,
    /// Initial temperature, in cost units.
    pub t0: f64,
    /// Final temperature.
    pub t_end: f64,
    /// RNG seed (placements are reproducible).
    pub seed: u64,
}

impl Default for Annealer {
    fn default() -> Self {
        Annealer {
            iters: 4_000,
            t0: 5.0,
            t_end: 0.01,
            seed: 0x00DA_7E05,
        }
    }
}

impl Annealer {
    /// Optimizes an assignment of `n` clusters to the first `n` tiles,
    /// returning the best assignment found and its cost.
    ///
    /// Moves are random pair swaps; the cooling schedule is geometric.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the annealer parameters are non-positive.
    pub fn optimize(&self, n: usize, cost: &dyn PlacementCost) -> (Vec<usize>, f64) {
        assert!(n > 0, "nothing to place");
        assert!(
            self.t0 > 0.0 && self.t_end > 0.0 && self.t_end <= self.t0,
            "invalid temperature schedule"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut current: Vec<usize> = (0..n).collect();
        let mut current_cost = cost.evaluate(&current);
        let mut best = current.clone();
        let mut best_cost = current_cost;
        if n == 1 {
            return (best, best_cost);
        }
        let alpha = (self.t_end / self.t0).powf(1.0 / self.iters.max(1) as f64);
        let mut temp = self.t0;
        for _ in 0..self.iters {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n);
            while j == i {
                j = rng.gen_range(0..n);
            }
            current.swap(i, j);
            let new_cost = cost.evaluate(&current);
            let delta = new_cost - current_cost;
            if delta <= 0.0 || rng.gen_bool((-delta / temp).exp().min(1.0)) {
                current_cost = new_cost;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best = current.clone();
                }
            } else {
                current.swap(i, j); // revert
            }
            temp *= alpha;
        }
        (best, best_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CommCost;
    use hotnoc_noc::Mesh;

    struct IdentityLover;
    impl PlacementCost for IdentityLover {
        fn evaluate(&self, a: &[usize]) -> f64 {
            // Cost = number of displaced clusters.
            a.iter().enumerate().filter(|(i, &t)| *i != t).count() as f64
        }
    }

    #[test]
    fn finds_trivial_optimum() {
        let annealer = Annealer {
            iters: 5_000,
            ..Annealer::default()
        };
        let (best, cost) = annealer.optimize(9, &IdentityLover);
        assert_eq!(cost, 0.0);
        assert_eq!(best, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn result_is_a_permutation() {
        let mesh = Mesh::square(4).unwrap();
        let mut traffic = vec![vec![0u64; 16]; 16];
        traffic[0][15] = 50;
        traffic[3][12] = 50;
        let cost = CommCost::new(mesh, &traffic);
        let (best, _) = Annealer::default().optimize(16, &cost);
        let mut sorted = best.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn improves_over_identity_for_comm() {
        let mesh = Mesh::square(4).unwrap();
        let mut traffic = vec![vec![0u64; 16]; 16];
        // Clusters at opposite corners talk heavily under identity.
        traffic[0][15] = 100;
        traffic[15][0] = 100;
        let cost = CommCost::new(mesh, &traffic);
        let identity: Vec<usize> = (0..16).collect();
        let (_, best_cost) = Annealer::default().optimize(16, &cost);
        assert!(best_cost < cost.evaluate(&identity));
        // Optimal: adjacent tiles -> 2 * 100 * 1.
        assert!(best_cost <= 200.0 + 1e-9, "best {best_cost}");
    }

    #[test]
    fn reproducible_per_seed() {
        let mesh = Mesh::square(3).unwrap();
        let mut traffic = vec![vec![0u64; 9]; 9];
        traffic[0][8] = 10;
        let cost = CommCost::new(mesh, &traffic);
        let a = Annealer::default().optimize(9, &cost);
        let b = Annealer::default().optimize(9, &cost);
        assert_eq!(a, b);
    }

    #[test]
    fn single_cluster_is_immediate() {
        let (best, _) = Annealer::default().optimize(1, &IdentityLover);
        assert_eq!(best, vec![0]);
    }
}
