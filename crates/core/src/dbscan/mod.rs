//! The DBSCAN algorithm (Algorithm 1 of the paper) over pluggable
//! neighbor sources, plus cluster-label containers and comparisons.
//!
//! DBSCAN itself is agnostic to *how* the ε-neighborhood of a point is
//! obtained: the reference implementation searches an R-tree per point,
//! the grid path searches the `(G, A)` grid, and Hybrid-DBSCAN looks the
//! neighbors up in the precomputed table `T`. The [`NeighborSource`] trait
//! captures that seam, so a single, well-tested implementation of the
//! clustering logic serves every configuration — which is also what makes
//! the "hybrid == reference" equivalence tests meaningful.

pub mod algorithm1;
mod clustering;
mod sources;

pub use algorithm1::{dbscan_algorithm1, Algorithm1Output};
pub use clustering::{Clustering, PointLabel};
pub use sources::{GridSource, NeighborSource, PackedTreeSource, RTreeSource, TableSource};

use crate::table::NeighborTable;

/// The DBSCAN clustering engine.
///
/// `Dbscan` is an allocation-reusing form of Algorithm 1: points are
/// visited in id order (or a caller's order); each unvisited point's
/// ε-neighborhood is fetched from the source; core points (≥ `minpts`
/// neighbors, *including the point itself*, per Ester et al.) open a
/// cluster that is expanded breadth-first through directly
/// density-reachable core points. Border points join the first cluster
/// that reaches them; unreachable points are noise.
///
/// A point is labeled when it is *queued*, not when it is dequeued, so
/// it enters the expansion queue at most once: the queue holds at most
/// `n` ids for the whole run, and every point's neighborhood is fetched
/// exactly once. Neighborhoods are borrowed from the source
/// ([`NeighborSource::neighbors`]); over the table `T` nothing is
/// copied.
pub struct Dbscan {
    minpts: usize,
}

impl Dbscan {
    /// Create an engine for a given `minpts`. (`ε` lives in the neighbor
    /// source: an index source searches with it, a table source had it
    /// baked in at table-construction time.)
    pub fn new(minpts: usize) -> Self {
        assert!(minpts >= 1, "minpts must be at least 1");
        Dbscan { minpts }
    }

    pub fn minpts(&self) -> usize {
        self.minpts
    }

    /// Cluster all points reachable through `source`, visiting points in
    /// id order.
    pub fn run<S: NeighborSource + ?Sized>(&self, source: &S) -> Clustering {
        self.run_with_order(source, None)
    }

    /// Cluster with an explicit visit order.
    ///
    /// DBSCAN's cluster *memberships* for core points are visit-order
    /// independent, but border points join the first cluster that reaches
    /// them, so the visit order decides contested borders. Hybrid-DBSCAN
    /// stores `T` in spatially-sorted id space; passing the inverse
    /// permutation here makes it visit points in the caller's original
    /// order and therefore produce labels *identical* to the reference
    /// implementation's.
    pub fn run_with_order<S: NeighborSource + ?Sized>(
        &self,
        source: &S,
        order: Option<&[u32]>,
    ) -> Clustering {
        let n = source.num_points();
        if let Some(o) = order {
            assert_eq!(o.len(), n, "visit order must cover every point");
        }
        let mut labels = vec![PointLabel::UNVISITED; n];
        let mut n_clusters = 0u32;

        // Reused buffers: an index source's query answer, and the BFS
        // queue (each point is pushed at most once, so len ≤ n).
        let mut scratch: Vec<u32> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();

        for visit_idx in 0..n as u32 {
            let p = order.map_or(visit_idx, |o| o[visit_idx as usize]);
            if labels[p as usize] != PointLabel::UNVISITED {
                continue;
            }
            let neighbors = source.neighbors(p, &mut scratch);
            if neighbors.len() < self.minpts {
                labels[p as usize] = PointLabel::NOISE;
                continue;
            }

            // p is a core point: open a new cluster and expand it.
            let cluster = PointLabel::cluster(n_clusters);
            n_clusters += 1;
            labels[p as usize] = cluster;
            queue.clear();
            claim(neighbors, cluster, &mut labels, &mut queue);

            let mut cursor = 0;
            while cursor < queue.len() {
                let q = queue[cursor];
                cursor += 1;
                let neighbors = source.neighbors(q, &mut scratch);
                if neighbors.len() >= self.minpts {
                    // Directly density-reachable core point: its
                    // neighborhood extends the cluster.
                    claim(neighbors, cluster, &mut labels, &mut queue);
                }
            }
        }

        Clustering::new(labels, n_clusters)
    }
}

/// Scan a core point's neighborhood: unvisited points join `cluster` and
/// are queued for their own coreness test; points judged noise earlier
/// become border points of `cluster` (their neighborhood was already
/// fetched and is too small, so they are not queued); clustered points
/// keep their label, so a border point stays in the first cluster that
/// claimed it.
fn claim(neighbors: &[u32], cluster: PointLabel, labels: &mut [PointLabel], queue: &mut Vec<u32>) {
    for &q in neighbors {
        let lbl = &mut labels[q as usize];
        if *lbl == PointLabel::UNVISITED {
            *lbl = cluster;
            queue.push(q);
        } else if *lbl == PointLabel::NOISE {
            *lbl = cluster;
        }
    }
}

/// Cluster a table `T` kept in sorted-id space and return the labels in
/// the caller's point order: visit points in `visit_order` (sorted-space
/// ids in ascending original id) and map the labels back through `perm`
/// (`perm[k]` = original index of sorted position `k`). The result is
/// identical to the reference implementation's labels.
pub fn cluster_table(
    table: &NeighborTable,
    perm: &[u32],
    visit_order: &[u32],
    minpts: usize,
) -> Clustering {
    Dbscan::new(minpts)
        .run_with_order(&TableSource::new(table), Some(visit_order))
        .unpermute(perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial::{GridIndex, Point2, RTree};

    /// Two tight clumps of 5 and one far-away singleton.
    fn two_clumps() -> Vec<Point2> {
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(Point2::new(i as f64 * 0.1, 0.0));
        }
        for i in 0..5 {
            pts.push(Point2::new(100.0 + i as f64 * 0.1, 0.0));
        }
        pts.push(Point2::new(50.0, 50.0));
        pts
    }

    #[test]
    fn clusters_two_clumps_with_grid_source() {
        let data = two_clumps();
        let grid = GridIndex::build(&data, 0.5);
        let src = GridSource::new(&grid, &data);
        let c = Dbscan::new(3).run(&src);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.noise_count(), 1);
        // All five points of each clump share a label.
        for i in 1..5 {
            assert_eq!(c.labels()[i], c.labels()[0]);
            assert_eq!(c.labels()[5 + i], c.labels()[5]);
        }
        assert_ne!(c.labels()[0], c.labels()[5]);
    }

    #[test]
    fn grid_and_rtree_sources_agree() {
        let data = two_clumps();
        let grid = GridIndex::build(&data, 0.5);
        let rtree = RTree::bulk_load(&data);
        let cg = Dbscan::new(3).run(&GridSource::new(&grid, &data));
        let cr = Dbscan::new(3).run(&RTreeSource::new(&rtree, &data, 0.5));
        assert!(cg.equivalent_to(&cr));
        assert_eq!(
            cg.labels(),
            cr.labels(),
            "same visit order -> identical labels"
        );
    }

    #[test]
    fn minpts_larger_than_any_neighborhood_makes_all_noise() {
        let data = two_clumps();
        let grid = GridIndex::build(&data, 0.5);
        let c = Dbscan::new(10).run(&GridSource::new(&grid, &data));
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.noise_count(), data.len());
    }

    #[test]
    fn minpts_one_clusters_every_point() {
        // With minpts = 1 every point is a core point of its own cluster.
        let data = two_clumps();
        let grid = GridIndex::build(&data, 0.5);
        let c = Dbscan::new(1).run(&GridSource::new(&grid, &data));
        assert_eq!(c.noise_count(), 0);
        assert_eq!(c.num_clusters(), 3, "two clumps + the singleton");
    }

    #[test]
    fn chain_is_density_reachable() {
        // A chain of points each within eps of the next: one cluster.
        let data: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64 * 0.9, 0.0)).collect();
        let grid = GridIndex::build(&data, 1.0);
        let c = Dbscan::new(2).run(&GridSource::new(&grid, &data));
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn border_point_between_two_clusters_joins_first() {
        // Chain clump A (ids 0-4) ending at x = 0, chain clump B (ids
        // 6-10) starting at x = 1.7, and a point at x = 0.85 (id 5) within
        // ε = 0.85 of exactly one member of each clump: it has only 3
        // neighbors (itself + one per clump), so with minpts = 5 it is a
        // border point of whichever cluster claims it first.
        let mut data = Vec::new();
        for i in 0..5 {
            data.push(Point2::new(-0.8 + 0.2 * i as f64, 0.0)); // A: -0.8..0
        }
        data.push(Point2::new(0.85, 0.0)); // border (id 5)
        for i in 0..5 {
            data.push(Point2::new(1.7 + 0.2 * i as f64, 0.0)); // B: 1.7..2.5
        }
        let grid = GridIndex::build(&data, 0.85);
        let c = Dbscan::new(5).run(&GridSource::new(&grid, &data));
        assert_eq!(c.num_clusters(), 2);
        // Cluster of A is created first (lower ids), so the border point
        // belongs to A's cluster.
        assert_eq!(c.labels()[5], c.labels()[0]);
        assert_ne!(c.labels()[5], c.labels()[6]);

        // Visiting in reverse opens B's cluster first, so B claims it.
        let reversed: Vec<u32> = (0..data.len() as u32).rev().collect();
        let r = Dbscan::new(5).run_with_order(&GridSource::new(&grid, &data), Some(&reversed));
        assert_eq!(r.num_clusters(), 2);
        assert_eq!(r.labels()[5], r.labels()[6]);
        assert_ne!(r.labels()[5], r.labels()[0]);
        assert_eq!(r.labels()[6], PointLabel::cluster(0), "B opens first");
    }

    #[test]
    fn noise_point_reclaimed_as_border() {
        // Point 0 is visited first with only 2 neighbors (itself + the
        // nearest clump member) and is marked noise; the clump's core
        // point then reaches it and must re-label it as a border point.
        let mut data = vec![Point2::new(0.0, 0.0)];
        for i in 0..4 {
            data.push(Point2::new(0.95 + 0.25 * i as f64, 0.0));
        }
        let grid = GridIndex::build(&data, 1.0);
        // Neighborhood of 0: {0, 1} (dist to p1 = 0.95, others > 1.0).
        let c = Dbscan::new(3).run(&GridSource::new(&grid, &data));
        assert_eq!(c.num_clusters(), 1);
        assert_eq!(
            c.labels()[0],
            c.labels()[1],
            "noise point reclaimed as border"
        );
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_minpts_rejected() {
        let _ = Dbscan::new(0);
    }

    #[test]
    fn empty_input() {
        let data = vec![Point2::new(0.0, 0.0)];
        let grid = GridIndex::build(&data, 1.0);
        let src = GridSource::new(&grid, &data);
        let c = Dbscan::new(1).run(&src);
        assert_eq!(c.len(), 1);
        assert_eq!(c.num_clusters(), 1);
    }
}
