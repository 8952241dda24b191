//! Property-based tests (proptest) on the core data structures and
//! invariants, using brute force as the oracle.

use hybrid_dbscan::core::batch::{batch_points, BatchConfig};
use hybrid_dbscan::core::dbscan::{Dbscan, GridSource, NeighborSource, TableSource};
use hybrid_dbscan::core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan::core::reference::ReferenceDbscan;
use hybrid_dbscan::gpu_sim::Device;
use hybrid_dbscan::spatial::distance::brute_force_neighbors;
use hybrid_dbscan::spatial::presort::spatial_sort_permutation;
use hybrid_dbscan::spatial::{
    GridIndex, PackedKdTree, Point2, PointN, PointStore, PointsViewN, RTree,
};
use proptest::prelude::*;

/// Random points in a bounded box; coordinates quantized a little so exact
/// eps-boundary ties occur with realistic probability.
fn points_strategy(max_n: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec((0i32..2000, 0i32..2000), 1..max_n).prop_map(|v| {
        v.into_iter()
            .map(|(x, y)| Point2::new(x as f64 / 100.0, y as f64 / 100.0))
            .collect()
    })
}

fn eps_strategy() -> impl Strategy<Value = f64> {
    (1u32..30).prop_map(|e| e as f64 / 10.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every index answers ε-range queries exactly like brute force.
    #[test]
    fn indexes_match_brute_force(data in points_strategy(120), eps in eps_strategy()) {
        let grid = GridIndex::build(&data, eps);
        let rtree = RTree::bulk_load(&data);
        let store = PointStore::from_points(&data);
        let points = PointsViewN::from(store.view());
        let tree = PackedKdTree::build(points);
        for (id, q) in data.iter().enumerate() {
            let expected = brute_force_neighbors(&data, q, eps);
            let mut g = grid.query(&data, q);
            g.sort_unstable();
            prop_assert_eq!(&g, &expected, "grid disagrees at {}", id);
            let mut r = rtree.query_eps(q, eps);
            r.sort_unstable();
            prop_assert_eq!(&r, &expected, "rtree disagrees at {}", id);
            let k = tree.query_eps(points, &PointN::from(*q), eps);
            prop_assert_eq!(&k, &expected, "packed kd-tree disagrees at {}", id);
        }
    }

    /// The GPU-built neighbor table contains exactly the brute-force
    /// neighborhood of every point (completeness and soundness of the
    /// kernels + batching + sort + table assembly, end to end).
    #[test]
    fn neighbor_table_is_exact(data in points_strategy(100), eps in eps_strategy()) {
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let handle = hybrid.build_table(&data, eps).unwrap();
        // The table lives in sorted space: translate through the
        // permutation for comparison.
        let perm = &handle.perm;
        for sorted_id in 0..data.len() as u32 {
            let orig = perm[sorted_id as usize];
            let mut got: Vec<u32> = handle
                .table
                .neighbors(sorted_id)
                .iter()
                .map(|&v| perm[v as usize])
                .collect();
            got.sort_unstable();
            let expected = brute_force_neighbors(&data, &data[orig as usize], eps);
            prop_assert_eq!(got, expected, "wrong neighborhood for point {}", orig);
        }
    }

    /// Hybrid-DBSCAN labels equal the reference labels on random data.
    #[test]
    fn hybrid_equals_reference(
        data in points_strategy(100),
        eps in eps_strategy(),
        minpts in 1usize..8,
    ) {
        let device = Device::k20c();
        let h = HybridDbscan::new(&device, HybridConfig::default())
            .run(&data, eps, minpts)
            .unwrap();
        let r = ReferenceDbscan::new(eps, minpts).run(&data);
        prop_assert_eq!(h.clustering.labels(), r.clustering.labels());
    }

    /// DBSCAN semantic invariants, checked against the neighbor oracle:
    /// noise points are never core; core points and all their neighbors
    /// share the core point's cluster.
    #[test]
    fn dbscan_core_invariants(
        data in points_strategy(120),
        eps in eps_strategy(),
        minpts in 1usize..8,
    ) {
        let grid = GridIndex::build(&data, eps);
        let src = GridSource::new(&grid, &data);
        let c = Dbscan::new(minpts).run(&src);
        for (i, label) in c.labels().iter().enumerate() {
            let n = brute_force_neighbors(&data, &data[i], eps);
            if n.len() >= minpts {
                // Core point: clustered; every neighbor is clustered (at
                // worst as a border point of another cluster); and every
                // *core* neighbor shares its cluster (mutual direct
                // density-reachability).
                let k = label.cluster_id();
                prop_assert!(k.is_some(), "core point {} left unclustered", i);
                for &j in &n {
                    let jl = c.labels()[j as usize];
                    prop_assert!(
                        jl.is_clustered(),
                        "neighbor {} of core {} left as noise", j, i
                    );
                    let jn = brute_force_neighbors(&data, &data[j as usize], eps);
                    if jn.len() >= minpts {
                        prop_assert_eq!(
                            jl.cluster_id(), k,
                            "core neighbor {} of core {} in different cluster", j, i
                        );
                    }
                }
            } else if label.is_noise() {
                // Noise points must not be within eps of any core point.
                for &j in &n {
                    let jn = brute_force_neighbors(&data, &data[j as usize], eps);
                    prop_assert!(jn.len() < minpts,
                        "noise point {} is density-reachable from core {}", i, j);
                }
            }
        }
    }

    /// The batch planner always leaves headroom: expected per-batch size
    /// never exceeds the buffer, for any estimate and database size.
    #[test]
    fn batch_plan_has_headroom(
        e_b in 0u64..10_000_000_000,
        n in 1usize..100_000_000,
    ) {
        let plan = BatchConfig::default().plan(e_b, n);
        prop_assert!(plan.n_batches >= 1);
        prop_assert!(plan.buffer_items >= 1);
        prop_assert!(plan.expected_batch_size() <= plan.buffer_items);
    }

    /// Strided batch assignment partitions the database for any (n, n_b).
    #[test]
    fn strided_batches_partition(n in 1usize..5000, nb in 1usize..64) {
        let mut seen = vec![false; n];
        for l in 0..nb {
            for i in batch_points(n, nb, l) {
                prop_assert!(!seen[i], "point {} assigned twice", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// The spatial pre-sort is a permutation and never loses points.
    #[test]
    fn presort_is_permutation(data in points_strategy(300)) {
        let perm = spatial_sort_permutation(&data);
        let mut idx: Vec<u32> = perm.as_slice().to_vec();
        idx.sort_unstable();
        let expected: Vec<u32> = (0..data.len() as u32).collect();
        prop_assert_eq!(idx, expected);
    }

    /// TableSource and GridSource agree for every point (different data
    /// layouts, same neighborhoods).
    #[test]
    fn table_source_equals_grid_source(data in points_strategy(80), eps in eps_strategy()) {
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let handle = hybrid.build_table(&data, eps).unwrap();
        let grid = GridIndex::build(&data, eps);
        let gs = GridSource::new(&grid, &data);
        let ts = TableSource::new(&handle.table);
        for orig in 0..data.len() as u32 {
            let sorted_id = handle.visit_order[orig as usize];
            let mut scratch = Vec::new();
            let mut a: Vec<u32> = ts
                .neighbors(sorted_id, &mut scratch)
                .iter()
                .map(|&v| handle.perm[v as usize])
                .collect();
            a.sort_unstable();
            let mut b = gs.neighbors(orig, &mut scratch).to_vec();
            b.sort_unstable();
            prop_assert_eq!(a, b, "point {}", orig);
        }
    }
}
