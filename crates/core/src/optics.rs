//! OPTICS (Ankerst et al., SIGMOD 1999) — the paper's counterpoint.
//!
//! The paper positions scenario S3 as "the opposite configuration of
//! OPTICS, where minpts is fixed and ε is varied": OPTICS computes, for a
//! fixed `minpts`, an *ordering* of the points with per-point reachability
//! distances, from which a DBSCAN-like clustering can be extracted for
//! any `ε' ≤ ε_max` — one pass, many densities. Hybrid-DBSCAN's neighbor
//! table plays the same role for the opposite knob: fixed ε, many
//! `minpts`.
//!
//! This module implements classic OPTICS over any [`NeighborSource`]
//! (including the GPU-built neighbor table, whose ε becomes `ε_max`) and
//! the ε'-cut cluster extraction. The test suite validates the defining
//! property: the extraction at `ε'` is equivalent to DBSCAN at `ε'` for
//! the same `minpts` (up to DBSCAN's inherent border-point ambiguity).

use crate::dbscan::{Clustering, NeighborSource, PointLabel};
use spatial::Point2;

/// One entry of the OPTICS ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedPoint {
    /// Point id.
    pub id: u32,
    /// Reachability distance from the preceding structure
    /// (`f64::INFINITY` for points that start a new component).
    pub reachability: f64,
    /// Core distance at `minpts` (`f64::INFINITY` if not core within
    /// ε_max).
    pub core_distance: f64,
}

/// The OPTICS output: the cluster-ordering with reachability and core
/// distances.
#[derive(Debug, Clone)]
pub struct OpticsOrdering {
    pub eps_max: f64,
    pub minpts: usize,
    pub order: Vec<OrderedPoint>,
}

impl OpticsOrdering {
    /// Extract the DBSCAN-equivalent clustering at `eps_cut ≤ eps_max`
    /// (the classic ExtractDBSCAN procedure): scanning the ordering, a
    /// point with reachability > ε' starts a new cluster if its own core
    /// distance at ε' qualifies, else is noise.
    pub fn extract_dbscan(&self, eps_cut: f64) -> Clustering {
        assert!(
            eps_cut <= self.eps_max + 1e-12,
            "extraction eps {} exceeds the ordering's eps_max {}",
            eps_cut,
            self.eps_max
        );
        let n = self.order.len();
        let mut labels = vec![PointLabel::NOISE; n];
        let mut cluster: i64 = -1;
        for op in &self.order {
            if op.reachability > eps_cut {
                if op.core_distance <= eps_cut {
                    cluster += 1;
                    labels[op.id as usize] = PointLabel::cluster(cluster as u32);
                }
                // else: noise (leave the default label).
            } else if cluster >= 0 {
                labels[op.id as usize] = PointLabel::cluster(cluster as u32);
            }
        }
        Clustering::from_labels(labels)
    }

    /// The reachability plot values in order (∞ mapped to `None`).
    pub fn reachability_plot(&self) -> Vec<Option<f64>> {
        self.order
            .iter()
            .map(|o| {
                if o.reachability.is_finite() {
                    Some(o.reachability)
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Run OPTICS with `minpts` over `source` (whose search radius is
/// `eps_max`). `data` supplies coordinates for the distance computations
/// the neighbor table does not store.
pub fn optics<S: NeighborSource + ?Sized>(
    source: &S,
    data: &[Point2],
    eps_max: f64,
    minpts: usize,
) -> OpticsOrdering {
    let n = source.num_points();
    assert_eq!(n, data.len(), "source and coordinate array disagree");
    let mut processed = vec![false; n];
    let mut reachability = vec![f64::INFINITY; n];
    let mut core_distance = vec![f64::INFINITY; n];
    let mut order: Vec<OrderedPoint> = Vec::with_capacity(n);
    let mut scratch: Vec<u32> = Vec::new();
    let mut dists: Vec<f64> = Vec::new();

    // Core distance: the minpts-th smallest distance within the
    // neighborhood (including self), if the point is core.
    let compute_core = |id: u32, neighbors: &[u32], dists: &mut Vec<f64>, data: &[Point2]| -> f64 {
        if neighbors.len() < minpts {
            return f64::INFINITY;
        }
        dists.clear();
        let p = data[id as usize];
        dists.extend(neighbors.iter().map(|&j| p.distance(&data[j as usize])));
        dists.sort_by(|a, b| a.total_cmp(b));
        dists[minpts - 1]
    };

    // Seeds: a simple binary-heap-free priority queue over reachability
    // (the classic algorithm uses a mutable-priority heap; a scan of the
    // pending set keeps this implementation obviously correct, and the
    // seed set stays small in practice).
    let mut seeds: Vec<u32> = Vec::new();

    for start in 0..n as u32 {
        if processed[start as usize] {
            continue;
        }
        processed[start as usize] = true;
        let neighbors = source.neighbors(start, &mut scratch);
        let cd = compute_core(start, neighbors, &mut dists, data);
        core_distance[start as usize] = cd;
        order.push(OrderedPoint {
            id: start,
            reachability: f64::INFINITY,
            core_distance: cd,
        });

        if cd.is_finite() {
            update_seeds(
                start,
                neighbors,
                data,
                cd,
                &processed,
                &mut reachability,
                &mut seeds,
            );
        }

        while !seeds.is_empty() {
            // Pop the seed with the smallest reachability (ties: smaller id,
            // for determinism).
            let (pos, _) = seeds
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    reachability[a as usize]
                        .total_cmp(&reachability[b as usize])
                        .then(a.cmp(&b))
                })
                .expect("seeds non-empty");
            let q = seeds.swap_remove(pos);
            if processed[q as usize] {
                continue;
            }
            processed[q as usize] = true;
            let neighbors = source.neighbors(q, &mut scratch);
            let cdq = compute_core(q, neighbors, &mut dists, data);
            core_distance[q as usize] = cdq;
            order.push(OrderedPoint {
                id: q,
                reachability: reachability[q as usize],
                core_distance: cdq,
            });
            if cdq.is_finite() {
                update_seeds(
                    q,
                    neighbors,
                    data,
                    cdq,
                    &processed,
                    &mut reachability,
                    &mut seeds,
                );
            }
        }
    }

    OpticsOrdering {
        eps_max,
        minpts,
        order,
    }
}

/// Relax the reachability of `center`'s unprocessed neighbors.
fn update_seeds(
    center: u32,
    neighbors: &[u32],
    data: &[Point2],
    core_dist: f64,
    processed: &[bool],
    reachability: &mut [f64],
    seeds: &mut Vec<u32>,
) {
    let p = data[center as usize];
    for &j in neighbors {
        if processed[j as usize] {
            continue;
        }
        let new_reach = core_dist.max(p.distance(&data[j as usize]));
        if new_reach < reachability[j as usize] {
            if reachability[j as usize].is_infinite() {
                seeds.push(j);
            }
            reachability[j as usize] = new_reach;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, GridSource};
    use crate::kernels::test_support::mixed_points;
    use spatial::GridIndex;

    #[test]
    fn ordering_covers_every_point_once() {
        let data = mixed_points(300);
        let eps = 1.0;
        let grid = GridIndex::build(&data, eps);
        let src = GridSource::new(&grid, &data);
        let o = optics(&src, &data, eps, 4);
        assert_eq!(o.order.len(), data.len());
        let mut seen = vec![false; data.len()];
        for op in &o.order {
            assert!(!seen[op.id as usize], "point {} ordered twice", op.id);
            seen[op.id as usize] = true;
        }
    }

    #[test]
    fn extraction_at_eps_max_matches_dbscan_structure() {
        // ExtractDBSCAN(eps_max) recovers DBSCAN(eps_max)'s clusters up to
        // the usual border ambiguity: compare cluster counts and noise on
        // data without contested borders.
        let data = mixed_points(400);
        let eps = 0.7;
        let minpts = 4;
        let grid = GridIndex::build(&data, eps);
        let src = GridSource::new(&grid, &data);
        let o = optics(&src, &data, eps, minpts);
        let from_optics = o.extract_dbscan(eps);
        let direct = Dbscan::new(minpts).run(&src);
        assert_eq!(from_optics.num_clusters(), direct.num_clusters());
        // Core-point memberships must agree exactly (borders may differ):
        // verify via pairwise same-cluster relation on core points.
        let eps_sq = eps * eps;
        let is_core = |i: usize| {
            data.iter()
                .filter(|q| data[i].distance_sq(q) <= eps_sq)
                .count()
                >= minpts
        };
        let cores: Vec<usize> = (0..data.len()).filter(|&i| is_core(i)).collect();
        for w in cores.windows(2) {
            let (a, b) = (w[0], w[1]);
            let same_direct = direct.labels()[a] == direct.labels()[b];
            let same_optics = from_optics.labels()[a] == from_optics.labels()[b];
            assert_eq!(same_direct, same_optics, "core pair ({a},{b}) disagrees");
        }
    }

    #[test]
    fn smaller_cut_never_merges_clusters() {
        // Lowering eps' can only split clusters or grow noise, never merge.
        let data = mixed_points(400);
        let eps = 1.0;
        let grid = GridIndex::build(&data, eps);
        let src = GridSource::new(&grid, &data);
        let o = optics(&src, &data, eps, 4);
        let coarse = o.extract_dbscan(1.0);
        let fine = o.extract_dbscan(0.4);
        assert!(
            fine.num_clusters() >= coarse.num_clusters()
                || fine.noise_count() >= coarse.noise_count()
        );
        assert!(fine.noise_count() >= coarse.noise_count());
    }

    #[test]
    fn reachability_of_dense_clump_is_low() {
        // Points inside a tight clump have small reachability; the jump
        // into the clump from outside is visible in the plot.
        let mut data = vec![Point2::new(50.0, 50.0)];
        for i in 0..30 {
            data.push(Point2::new(0.01 * (i % 6) as f64, 0.01 * (i / 6) as f64));
        }
        let eps = 2.0;
        let grid = GridIndex::build(&data, eps);
        let src = GridSource::new(&grid, &data);
        let o = optics(&src, &data, eps, 3);
        // All clump members after the first have tiny reachability.
        let clump_reach: Vec<f64> = o
            .order
            .iter()
            .filter(|op| op.id != 0 && op.reachability.is_finite())
            .map(|op| op.reachability)
            .collect();
        assert!(clump_reach.len() >= 28);
        assert!(clump_reach.iter().all(|&r| r < 0.1), "{clump_reach:?}");
    }

    #[test]
    fn works_over_the_gpu_built_table() {
        use crate::dbscan::TableSource;
        use crate::hybrid::{HybridConfig, HybridDbscan};
        use gpu_sim::Device;
        use spatial::presort::spatial_sort;

        let data = mixed_points(300);
        let eps = 0.8;
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let handle = hybrid.build_table(&data, eps).unwrap();
        // The table is in sorted space; pair it with the sorted coords.
        let sorted = spatial_sort(&data);
        let o = optics(&TableSource::new(&handle.table), &sorted, eps, 4);
        assert_eq!(o.order.len(), data.len());
        let from_table = o.extract_dbscan(eps);
        let grid = GridIndex::build(&data, eps);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert_eq!(from_table.num_clusters(), direct.num_clusters());
    }

    #[test]
    #[should_panic(expected = "exceeds the ordering's eps_max")]
    fn extraction_beyond_eps_max_panics() {
        let data = mixed_points(50);
        let grid = GridIndex::build(&data, 0.5);
        let o = optics(&GridSource::new(&grid, &data), &data, 0.5, 3);
        let _ = o.extract_dbscan(1.0);
    }
}
