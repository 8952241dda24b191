//! Exactness of the DBSCAN engine (`Dbscan::run_with_order`).
//!
//! The engine labels a point when it is queued and reads neighborhoods in
//! place; the literal Algorithm 1 transcription labels on dequeue and
//! copies every neighborhood into its work list. Both must produce the
//! *same labels*, bit for bit, over every neighbor source — and the
//! table path (`cluster_with_table`) must reproduce the R-tree
//! reference's labels exactly, not merely up to border ambiguity.

use crate::generators::FAMILIES;
use crate::harness::labels_i64;
use gpu_sim::Device;
use hybrid_dbscan_core::dbscan::{
    dbscan_algorithm1, Dbscan, GridSource, NeighborSource, RTreeSource, TableSource,
};
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::reference::ReferenceDbscan;
use proptest::TestRng;
use spatial::{GridIndex, RTree};

/// The minpts values every case runs at: every point core, pairs, the
/// paper's default, and one above the largest neighborhood (all noise).
fn minpts_values(source: &dyn NeighborSource) -> [usize; 4] {
    let mut scratch = Vec::new();
    let max_degree = (0..source.num_points() as u32)
        .map(|id| source.neighbors(id, &mut scratch).len())
        .max()
        .unwrap_or(0);
    [1, 2, 4, max_degree + 1]
}

fn assert_engine_matches_algorithm1(name: &str, family: &str, source: &dyn NeighborSource) {
    for minpts in minpts_values(source) {
        let engine = Dbscan::new(minpts).run(source);
        let literal = dbscan_algorithm1(source, minpts).to_clustering();
        assert_eq!(
            labels_i64(&engine),
            labels_i64(&literal),
            "family `{family}`, {name} source, minpts = {minpts}"
        );
    }
}

/// `Dbscan::run` == literal Algorithm 1 over table, grid and R-tree
/// sources, for every generator family and minpts ∈ {1, 2, 4, max + 1}.
#[test]
fn engine_labels_equal_algorithm1_on_every_source() {
    let device = Device::k20c();
    for (fi, family) in FAMILIES.iter().enumerate() {
        let mut rng = TestRng::new(0xE1 ^ ((fi as u64) << 8));
        let case = (family.generate)(&mut rng);
        let handle = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&case.data, case.eps)
            .unwrap_or_else(|e| panic!("build failed on {}: {e:?}", case.family));
        let grid = GridIndex::build(&case.data, case.eps);
        let rtree = RTree::bulk_load(&case.data);
        for (name, source) in [
            (
                "table",
                &TableSource::new(&handle.table) as &dyn NeighborSource,
            ),
            ("grid", &GridSource::new(&grid, &case.data)),
            ("rtree", &RTreeSource::new(&rtree, &case.data, case.eps)),
        ] {
            assert_engine_matches_algorithm1(name, case.family, source);
        }
    }
}

/// `cluster_with_table` labels == `ReferenceDbscan` labels, bitwise, for
/// every generator family and minpts ∈ {1, 2, 4, max + 1}.
#[test]
fn table_labels_equal_reference_labels() {
    let device = Device::k20c();
    for (fi, family) in FAMILIES.iter().enumerate() {
        let mut rng = TestRng::new(0xE2 ^ ((fi as u64) << 8));
        let case = (family.generate)(&mut rng);
        let handle = HybridDbscan::new(&device, HybridConfig::default())
            .build_table(&case.data, case.eps)
            .unwrap_or_else(|e| panic!("build failed on {}: {e:?}", case.family));
        for minpts in minpts_values(&TableSource::new(&handle.table)) {
            let (hybrid, _) = HybridDbscan::cluster_with_table(&handle, minpts);
            let reference = ReferenceDbscan::new(case.eps, minpts)
                .run(&case.data)
                .clustering;
            assert_eq!(
                labels_i64(&hybrid),
                labels_i64(&reference),
                "family `{}`, minpts = {minpts}",
                case.family
            );
        }
    }
}
