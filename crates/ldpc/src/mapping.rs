//! Partitioning of LDPC variable/check nodes into per-PE clusters.
//!
//! The paper's five configurations (A, B on 4x4; C, D, E on 5x5) differ "due
//! to the irregularity of the communication patterns and the amount of
//! computation mapped to a single PE" — exactly the degrees of freedom of
//! [`ClusterMapping::weighted`]: per-cluster weights control how much of the
//! Tanner graph each PE owns.

use crate::code::LdpcCode;
use crate::error::LdpcError;

/// Assignment of every variable and check node to one of `n_clusters`
/// PE clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMapping {
    n_clusters: usize,
    var_cluster: Vec<usize>,
    chk_cluster: Vec<usize>,
}

impl ClusterMapping {
    /// Splits nodes into equally sized contiguous runs.
    ///
    /// # Errors
    ///
    /// Returns [`LdpcError::InvalidClusterCount`] if `n_clusters` is zero or
    /// exceeds the number of variables or checks.
    pub fn contiguous(code: &LdpcCode, n_clusters: usize) -> Result<Self, LdpcError> {
        ClusterMapping::weighted(code, &vec![1.0; n_clusters])
    }

    /// Splits nodes into contiguous runs sized proportionally to `weights`
    /// (largest-remainder apportionment, every cluster gets at least one
    /// variable and one check).
    ///
    /// # Errors
    ///
    /// * [`LdpcError::InvalidClusterCount`] for zero clusters or more
    ///   clusters than nodes.
    /// * [`LdpcError::InvalidWeights`] for non-positive or non-finite
    ///   weights.
    pub fn weighted(code: &LdpcCode, weights: &[f64]) -> Result<Self, LdpcError> {
        let n_clusters = weights.len();
        if n_clusters == 0 || n_clusters > code.n() || n_clusters > code.m() {
            return Err(LdpcError::InvalidClusterCount {
                clusters: n_clusters,
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(LdpcError::InvalidWeights);
        }
        let var_counts = apportion(code.n(), weights);
        let chk_counts = apportion(code.m(), weights);
        let expand = |counts: &[usize]| {
            let mut v = Vec::new();
            for (cluster, &count) in counts.iter().enumerate() {
                v.extend(std::iter::repeat_n(cluster, count));
            }
            v
        };
        Ok(ClusterMapping {
            n_clusters,
            var_cluster: expand(&var_counts),
            chk_cluster: expand(&chk_counts),
        })
    }

    /// Number of clusters (PEs).
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Cluster of each variable node.
    pub fn var_cluster(&self) -> &[usize] {
        &self.var_cluster
    }

    /// Cluster of each check node.
    pub fn chk_cluster(&self) -> &[usize] {
        &self.chk_cluster
    }

    /// Edge-operation count per cluster per decoding iteration: each Tanner
    /// edge costs one variable-side op (at the variable's cluster) and one
    /// check-side op (at the check's cluster).
    pub fn ops_per_cluster(&self, code: &LdpcCode) -> Vec<u64> {
        let mut ops = vec![0u64; self.n_clusters];
        for (r, c) in code.h().entries() {
            ops[self.chk_cluster[r]] += 1;
            ops[self.var_cluster[c]] += 1;
        }
        ops
    }

    /// Variable-side edge count per cluster (work in the var→check phase).
    pub fn var_ops_per_cluster(&self, code: &LdpcCode) -> Vec<u64> {
        let mut ops = vec![0u64; self.n_clusters];
        for (_, c) in code.h().entries() {
            ops[self.var_cluster[c]] += 1;
        }
        ops
    }

    /// Check-side edge count per cluster (work in the check→var phase).
    pub fn chk_ops_per_cluster(&self, code: &LdpcCode) -> Vec<u64> {
        let mut ops = vec![0u64; self.n_clusters];
        for (r, _) in code.h().entries() {
            ops[self.chk_cluster[r]] += 1;
        }
        ops
    }

    /// Inter-cluster message counts per iteration phase:
    /// `t[i][j]` = messages from cluster `i`'s variables to cluster `j`'s
    /// checks in the var→check phase (the check→var phase is the
    /// transpose). Diagonal entries are local and travel no links.
    pub fn traffic_matrix(&self, code: &LdpcCode) -> Vec<Vec<u64>> {
        let mut t = vec![vec![0u64; self.n_clusters]; self.n_clusters];
        for (r, c) in code.h().entries() {
            t[self.var_cluster[c]][self.chk_cluster[r]] += 1;
        }
        t
    }
}

/// Largest-remainder apportionment of `total` items over `weights`,
/// guaranteeing at least one item per bucket.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let k = weights.len();
    debug_assert!(total >= k, "fewer items than buckets");
    let sum: f64 = weights.iter().sum();
    let spare = total - k; // one reserved per bucket
    let quotas: Vec<f64> = weights.iter().map(|w| w / sum * spare as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    // Distribute the remainder to the largest fractional parts.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let fa = quotas[a] - quotas[a].floor();
        let fb = quotas[b] - quotas[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in order.iter().take(spare - assigned) {
        counts[i] += 1;
    }
    for c in counts.iter_mut() {
        *c += 1; // the reserved item
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code() -> LdpcCode {
        LdpcCode::gallager(240, 3, 6, 5).unwrap()
    }

    #[test]
    fn contiguous_covers_everything() {
        let c = code();
        let m = ClusterMapping::contiguous(&c, 16).unwrap();
        assert_eq!(m.var_cluster().len(), 240);
        assert_eq!(m.chk_cluster().len(), 120);
        assert_eq!(m.n_clusters(), 16);
        assert!(m.var_cluster().iter().all(|&cl| cl < 16));
        // Equal split: 240/16 = 15 vars each.
        for cl in 0..16 {
            let count = m.var_cluster().iter().filter(|&&x| x == cl).count();
            assert_eq!(count, 15);
        }
    }

    #[test]
    fn weighted_apportions_proportionally() {
        let c = code();
        let mut weights = vec![1.0; 16];
        weights[3] = 4.0; // cluster 3 gets ~4x the work
        let m = ClusterMapping::weighted(&c, &weights).unwrap();
        let counts: Vec<usize> = (0..16)
            .map(|cl| m.var_cluster().iter().filter(|&&x| x == cl).count())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 240);
        assert!(
            counts[3] > 2 * counts[0],
            "heavy cluster not heavy: {counts:?}"
        );
        assert!(counts.iter().all(|&x| x >= 1));
    }

    #[test]
    fn ops_follow_weights() {
        let c = code();
        let mut weights = vec![1.0; 16];
        weights[5] = 3.0;
        let m = ClusterMapping::weighted(&c, &weights).unwrap();
        let ops = m.ops_per_cluster(&c);
        let total: u64 = ops.iter().sum();
        assert_eq!(total, 2 * c.edges() as u64);
        let mean_other: f64 = ops
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, &o)| o as f64)
            .sum::<f64>()
            / 15.0;
        assert!(ops[5] as f64 > 1.8 * mean_other, "ops {ops:?}");
    }

    #[test]
    fn var_plus_chk_ops_equal_total() {
        let c = code();
        let m = ClusterMapping::contiguous(&c, 25).unwrap();
        let v = m.var_ops_per_cluster(&c);
        let k = m.chk_ops_per_cluster(&c);
        let t = m.ops_per_cluster(&c);
        for i in 0..25 {
            assert_eq!(v[i] + k[i], t[i]);
        }
    }

    #[test]
    fn traffic_matrix_conserves_edges() {
        let c = code();
        let m = ClusterMapping::contiguous(&c, 16).unwrap();
        let t = m.traffic_matrix(&c);
        let total: u64 = t.iter().flatten().sum();
        assert_eq!(total, c.edges() as u64);
        // A random-permutation code spreads traffic widely: most
        // off-diagonal pairs see messages.
        let nonzero_offdiag = t
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().filter(move |(j, _)| i != *j))
            .filter(|(_, &v)| v > 0)
            .count();
        assert!(nonzero_offdiag > 100, "traffic too concentrated");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let c = code();
        assert!(ClusterMapping::contiguous(&c, 0).is_err());
        assert!(ClusterMapping::contiguous(&c, 10_000).is_err());
        assert!(ClusterMapping::weighted(&c, &[1.0, -1.0]).is_err());
        assert!(ClusterMapping::weighted(&c, &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn apportion_exact_totals() {
        let counts = apportion(25, &[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(counts, vec![5; 5]);
        let counts = apportion(10, &[3.0, 1.0]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts[0] > counts[1]);
    }
}
