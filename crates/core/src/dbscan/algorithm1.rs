//! A *literal* transcription of Algorithm 1 from the paper.
//!
//! The paper's reference implementation follows the classic DBSCAN
//! pseudo-code, maintaining `visitedSet`, `clusterSet` and `noiseSet` as
//! set data structures and materializing each cluster as a set `C` of
//! points. This module reproduces that structure faithfully — `HashSet`s
//! and all — because the comparisons in the evaluation are against *that*
//! kind of implementation, not against a label-array-optimized engine
//! like [`crate::dbscan::Dbscan`]. (The two produce identical labels; the
//! test suite asserts it.)
//!
//! Keeping the literal version around also documents the mapping between
//! the paper's pseudo-code and the optimized engine line by line.

use super::clustering::{Clustering, PointLabel};
use super::sources::NeighborSource;
use std::collections::HashSet;

/// Output of the literal Algorithm 1: the set of clusters `C` (each a set
/// of point ids) plus the noise set.
#[derive(Debug, Clone)]
pub struct Algorithm1Output {
    pub clusters: Vec<Vec<u32>>,
    pub noise: Vec<u32>,
    pub n_points: usize,
}

impl Algorithm1Output {
    /// Convert to the dense-label representation for comparisons.
    ///
    /// Cluster ids follow creation order, matching [`super::Dbscan`]'s
    /// numbering; a point claimed by a cluster after being marked noise is
    /// a border point and keeps its cluster membership (the noise set only
    /// retains never-reclaimed points).
    pub fn to_clustering(&self) -> Clustering {
        let mut labels = vec![PointLabel::NOISE; self.n_points];
        for (k, members) in self.clusters.iter().enumerate() {
            for &m in members {
                labels[m as usize] = PointLabel::cluster(k as u32);
            }
        }
        Clustering::from_labels(labels)
    }
}

/// Procedure DBSCAN(D, ε, minpts, Index I) — Algorithm 1, line by line.
/// `D`, `ε` and `I` are embodied by the [`NeighborSource`].
pub fn dbscan_algorithm1<S: NeighborSource + ?Sized>(
    source: &S,
    minpts: usize,
) -> Algorithm1Output {
    let n = source.num_points();
    // Lines 2-5: visitedSet, clusterSet, noiseSet, C ← ∅.
    let mut visited_set: HashSet<u32> = HashSet::new();
    let mut cluster_set: HashSet<u32> = HashSet::new();
    let mut noise_set: HashSet<u32> = HashSet::new();
    let mut clusters: Vec<Vec<u32>> = Vec::new();

    let mut scratch: Vec<u32> = Vec::new();

    // Line 6: for all p ∈ D | p ∉ visitedSet.
    for p in 0..n as u32 {
        if visited_set.contains(&p) {
            continue;
        }
        // Line 7: C ← ∅ (the current cluster).
        let mut current_cluster: Vec<u32> = Vec::new();
        // Line 8: visitedSet ← visitedSet ∪ {p}.
        visited_set.insert(p);
        // Line 9: N ← NeighborSearch(p, ε, I).
        let neighbors = source.neighbors(p, &mut scratch);
        // Line 10: if |N| < minpts then noiseSet ← noiseSet ∪ {p}.
        if neighbors.len() < minpts {
            noise_set.insert(p);
            continue;
        }
        // Lines 12-13: C ← C ∪ {p}; clusterSet ← clusterSet ∪ {p}.
        current_cluster.push(p);
        cluster_set.insert(p);

        // Line 14: for all i ∈ N (with line 15's N ← N \ i expressed as a
        // work-list cursor; the set keeps growing at line 20).
        let mut work: Vec<u32> = neighbors.to_vec();
        let mut cursor = 0;
        while cursor < work.len() {
            let i = work[cursor];
            cursor += 1;
            // Line 16: if i ∉ visitedSet.
            if !visited_set.contains(&i) {
                // Line 17: visitedSet ← visitedSet ∪ {i}.
                visited_set.insert(i);
                // Line 18: N̂ ← NeighborSearch(i, ε, I).
                let n_hat = source.neighbors(i, &mut scratch);
                // Lines 19-20: if |N̂| ≥ minpts then N ← N ∪ N̂.
                if n_hat.len() >= minpts {
                    work.extend_from_slice(n_hat);
                }
            }
            // Lines 21-23: if i ∉ clusterSet, add it to the cluster.
            if !cluster_set.contains(&i) {
                current_cluster.push(i);
                cluster_set.insert(i);
                // A previously-noise point reached here is a border point.
                noise_set.remove(&i);
            }
        }
        // Line 24: C ← C ∪ C.
        clusters.push(current_cluster);
    }

    let mut noise: Vec<u32> = noise_set.into_iter().collect();
    noise.sort_unstable();
    Algorithm1Output {
        clusters,
        noise,
        n_points: n,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Dbscan, GridSource};
    use super::*;
    use spatial::{GridIndex, Point2};

    fn wavy(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.13;
                Point2::new((t * 1.3).sin() * 4.0 + t * 0.05, (t * 0.7).cos() * 4.0)
            })
            .collect()
    }

    #[test]
    fn literal_matches_optimized_engine() {
        let data = wavy(400);
        for (eps, minpts) in [(0.3, 3), (0.8, 5), (1.5, 10)] {
            let grid = GridIndex::build(&data, eps);
            let src = GridSource::new(&grid, &data);
            let literal = dbscan_algorithm1(&src, minpts).to_clustering();
            let optimized = Dbscan::new(minpts).run(&src);
            assert_eq!(
                literal.labels(),
                optimized.labels(),
                "eps={eps} minpts={minpts}"
            );
        }
    }

    #[test]
    fn clusters_and_noise_partition_points() {
        let data = wavy(300);
        let grid = GridIndex::build(&data, 0.5);
        let out = dbscan_algorithm1(&GridSource::new(&grid, &data), 4);
        let mut seen = vec![false; data.len()];
        for members in &out.clusters {
            for &m in members {
                assert!(!seen[m as usize], "point {m} in two clusters");
                seen[m as usize] = true;
            }
        }
        for &m in &out.noise {
            assert!(!seen[m as usize], "noise point {m} also clustered");
            seen[m as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every point accounted for");
    }

    #[test]
    fn empty_neighborhoods_are_noise() {
        let data = vec![
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(200.0, 0.0),
        ];
        let grid = GridIndex::build(&data, 1.0);
        let out = dbscan_algorithm1(&GridSource::new(&grid, &data), 2);
        assert!(out.clusters.is_empty());
        assert_eq!(out.noise, vec![0, 1, 2]);
    }
}
