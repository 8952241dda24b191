//! Schedule independence of the differential surface.
//!
//! The repository's determinism policy (DESIGN.md §7): Hybrid-DBSCAN,
//! the reference, and the host DBSCAN runs produce *bitwise identical*
//! labels on any pool size.
//!
//! Pool views are created with `ThreadPoolBuilder::num_threads(t)`, so
//! the 8-thread case is exercised even under `RAYON_NUM_THREADS=1`.

use crate::generators::{Case, FAMILIES};
use crate::harness::{labels_i64, run_all};
use hybrid_dbscan_core::dbscan::Clustering;
use proptest::TestRng;

fn run_all_at(threads: usize, case: &Case) -> Vec<(&'static str, Clustering)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    pool.install(|| run_all(case))
}

#[test]
fn schedule_independence_at_1_2_and_8_threads() {
    // One case per family keeps this inside the quick tier; the seeds
    // are arbitrary but fixed.
    for (fi, family) in FAMILIES.iter().enumerate() {
        let mut rng = TestRng::new(0x7EAD ^ (fi as u64) << 8);
        let case = (family.generate)(&mut rng);

        let base = run_all_at(1, &case);
        for threads in [2usize, 8] {
            let other = run_all_at(threads, &case);
            for ((name, a), (name2, b)) in base.iter().zip(&other) {
                assert_eq!(name, name2);
                assert_eq!(
                    labels_i64(a),
                    labels_i64(b),
                    "family `{}`: {name} labels changed at {threads} threads",
                    family.name
                );
            }
        }
    }
}
