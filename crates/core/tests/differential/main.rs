//! Differential correctness harness (DESIGN.md §8).
//!
//! Every clusterer in this repository claims to compute *exact* DBSCAN:
//! the paper's thesis is that the GPU changes throughput, never output.
//! This test target holds all three implementations (Hybrid global,
//! Hybrid shared, the R-tree reference), the Hybrid tree/auto ε-search
//! backends, and all three ε-indexes (grid, packed kd-tree, R-tree) to
//! that claim:
//!
//! * [`harness`] runs every clusterer on the same input and validates
//!   each against the brute-force oracle (`hybrid_dbscan_core::oracle`),
//!   then compares them pairwise up to cluster relabeling and the
//!   documented border-point ambiguity. Index ε-neighborhoods are
//!   cross-checked point-for-point against brute force first, so an
//!   index bug is reported as an index bug, not a clustering bug.
//! * [`generators`] builds adversarial inputs on an exact binary lattice
//!   (coordinates and ε are multiples of 1/128), so exact-ε boundary
//!   ties are *engineered*, not hoped for.
//! * [`transforms`] applies metamorphic transforms — permutation, rigid
//!   translation/rotation/reflection, power-of-two joint (coords, ε)
//!   scaling, uniform k-fold duplication with `minpts × k` — and asserts
//!   partition invariance.
//! * [`sweep`] is the seeded randomized tier: a handful of cases by
//!   default, `DIFF_CASES=n` for the long CI sweep.
//! * [`threads`] re-runs the clusterers on rayon pool views of 1, 2 and
//!   8 threads and asserts schedule independence: bitwise-identical
//!   labels from every clusterer.
//! * [`engine`] holds the DBSCAN engine to the literal Algorithm 1
//!   transcription label for label over table, grid and R-tree sources,
//!   and the table path to the R-tree reference's exact labels.
//! * [`sharded`] holds the sharded pipeline to bitwise table and
//!   clustering equality with the unsharded build at k ∈ {1, 2, 4} and
//!   1/2/8 threads in both execution modes, including a halo-straddling
//!   adversarial generator with exact-ε cross-boundary pairs.
//!
//! Failing cases are delta-debugged down to a minimal point set by
//! `oracle::shrink_case` before being reported (the offline proptest
//! stand-in does not shrink).

mod engine;
mod generators;
mod grid_layouts;
mod harness;
mod nd;
mod sharded;
mod sweep;
mod threads;
mod transforms;

use generators::{Case, Q};
use harness::assert_case;
use proptest::TestRng;
use spatial::Point2;

/// Quick deterministic tier: every generator family under a few fixed
/// seeds, full differential over every clusterer each time.
#[test]
fn quick_all_families_fixed_seeds() {
    for family in generators::FAMILIES {
        for seed in [1u64, 7, 1234] {
            let mut rng = TestRng::new(seed);
            let case = (family.generate)(&mut rng);
            assert_case(&case);
        }
    }
}

/// Satellite: exact-ε boundary pairs, axis-aligned. Points spaced at
/// exactly ε (binary-lattice coordinates, so the distance computation is
/// bit-exact) must count as neighbors — in every index and in every
/// clusterer. ε = 1.0, chain 0, 1, 2, 3 at unit spacing: with minpts = 3
/// the whole chain is one cluster; shrinking ε by one lattice quantum
/// disconnects everything into noise.
#[test]
fn exact_eps_boundary_axis_aligned() {
    let data: Vec<Point2> = (0..4).map(|i| Point2::new(i as f64, 0.0)).collect();
    let eps = 1.0;

    // Point-for-point: every index must report both exact-ε neighbors
    // for the interior points.
    harness::cross_check_neighborhoods(&data, eps).unwrap();
    let grid = spatial::GridIndex::build(&data, eps);
    let mut n1 = grid.query(&data, &data[1]);
    n1.sort_unstable();
    assert_eq!(
        n1,
        vec![0, 1, 2],
        "closed ball must include exact-eps pairs"
    );

    // Clusterers: one chain cluster at ε, all noise one quantum below.
    let at_eps = Case {
        family: "exact-eps-axis",
        data: data.clone(),
        eps,
        minpts: 3,
    };
    assert_case(&at_eps);
    let c = harness::run_all(&at_eps);
    assert!(
        c.iter()
            .all(|(_, c)| c.num_clusters() == 1 && c.noise_count() == 0),
        "exact-eps chain must form a single cluster in every clusterer"
    );

    let below = Case {
        family: "exact-eps-axis-minus-quantum",
        data,
        eps: eps - Q,
        minpts: 3,
    };
    assert_case(&below);
    let c = harness::run_all(&below);
    assert!(
        c.iter().all(|(_, c)| c.num_clusters() == 0),
        "one lattice quantum below eps must disconnect the chain everywhere"
    );
}

/// Satellite: exact-ε boundary pairs on the diagonal, via Pythagorean
/// triples. (0,0)–(3,4) is at distance exactly 5 in floating point
/// (9 + 16 = 25 exactly), so ε = 5 is an exact boundary hit that no
/// axis-aligned test exercises.
#[test]
fn exact_eps_boundary_pythagorean() {
    let data = vec![
        Point2::new(0.0, 0.0),
        Point2::new(3.0, 4.0),
        Point2::new(6.0, 8.0),
        Point2::new(-4.0, 3.0),
    ];
    let eps = 5.0;
    harness::cross_check_neighborhoods(&data, eps).unwrap();
    let store = spatial::PointStore::from_points(&data);
    let points = spatial::PointsViewN::from(store.view());
    let tree = spatial::PackedKdTree::build(points);
    let n0 = tree.query_eps(points, &data[0].into(), eps);
    assert_eq!(n0, vec![0, 1, 3], "3-4-5 neighbors at exactly eps");

    // minpts = 3: point 0 sees {0, 1, 3}, point 1 sees {0, 1, 2} — both
    // core, chaining all four into one cluster.
    let case = Case {
        family: "exact-eps-pythagorean",
        data,
        eps,
        minpts: 3,
    };
    assert_case(&case);
    let c = harness::run_all(&case);
    assert!(
        c.iter()
            .all(|(_, c)| c.num_clusters() == 1 && c.noise_count() == 0),
        "3-4-5 chain must form a single cluster in every clusterer"
    );
}

/// Satellite: exact-ε pairs that straddle grid cell boundaries. With
/// cell width = ε and the grid origin at the data minimum, points at
/// integer multiples of ε sit exactly on cell edges; their exact-ε
/// neighbors live in adjacent cells. This is the configuration where a
/// cell-assignment rounding bug or an open-ball comparison would first
/// diverge between the grid and the tree indexes.
#[test]
fn exact_eps_pairs_straddle_cell_boundaries() {
    let eps = 1.0;
    // 5×2 lattice at exactly ε spacing — every point is on a cell corner
    // and has 3–4 exact-ε neighbors (self + axis neighbors).
    let mut data = Vec::new();
    for i in 0..5 {
        for j in 0..2 {
            data.push(Point2::new(i as f64 * eps, j as f64 * eps));
        }
    }
    harness::cross_check_neighborhoods(&data, eps).unwrap();
    let case = Case {
        family: "exact-eps-cell-straddle",
        data,
        eps,
        minpts: 4,
    };
    assert_case(&case);
    let c = harness::run_all(&case);
    assert!(
        c.iter()
            .all(|(_, c)| c.num_clusters() == 1 && c.noise_count() == 0),
        "eps-lattice must chain into one cluster in every clusterer"
    );
}

/// Metamorphic: partition invariance under every transform, over a few
/// generated cases per family (quick tier; the sweep re-runs this on
/// randomized cases).
#[test]
fn quick_metamorphic_invariance() {
    for (family, seed) in [
        (&generators::FAMILIES[5], 11u64), // clumps: the realistic family
        (&generators::FAMILIES[3], 23),    // boundary straddlers
        (&generators::FAMILIES[7], 31),    // eps-spaced grid
    ] {
        let mut rng = TestRng::new(seed);
        let case = (family.generate)(&mut rng);
        transforms::assert_all_invariant(&case, &mut rng);
    }
}
