//! Sharded-vs-unsharded differential tier (DESIGN.md §14).
//!
//! The sharded pipeline promises the strongest equivalence in the
//! repository: not merely the same clusters, but the *same neighbor-table
//! rows, bitwise*, and the *same labels* as [`HybridDbscan::run`], at
//! every shard count, in both execution modes, on any rayon pool — and
//! per-shard modeled-time bits that do not move with the thread count. These tests hold it to that promise over every generator
//! family plus a dedicated halo-straddling adversarial generator that
//! plants exact-ε pairs across the x-quantile boundaries the planner will
//! choose.

use crate::generators::{Case, FAMILIES, Q};
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::shard::{ShardConfig, ShardMode, ShardedHybrid};
use hybrid_dbscan_core::{clustering_fingerprint, table_fingerprint};
use proptest::TestRng;
use spatial::Point2;

const KS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 8];

struct Observed {
    table_print: u64,
    cluster_print: u64,
    modeled_bits: u64,
    shard_modeled_bits: Vec<u64>,
}

fn observe(threads: usize, case: &Case, k: usize, mode: ShardMode) -> Observed {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    pool.install(|| {
        let device = Device::k20c();
        let cfg = ShardConfig {
            shards: k,
            mode,
            hybrid: HybridConfig::default(),
        };
        let sharded = ShardedHybrid::new(&device, cfg);
        let handle = sharded
            .build_table(&case.data, case.eps)
            .unwrap_or_else(|e| panic!("sharded build failed on {}: {e:?}", case.family));
        let run = sharded
            .run(&case.data, case.eps, case.minpts)
            .unwrap_or_else(|e| panic!("sharded run failed on {}: {e:?}", case.family));
        assert_eq!(
            run.modeled_time.as_millis().to_bits(),
            handle.modeled_time.as_millis().to_bits()
        );
        Observed {
            table_print: table_fingerprint(&handle.table),
            cluster_print: clustering_fingerprint(&run.clustering),
            modeled_bits: handle.modeled_time.as_millis().to_bits(),
            shard_modeled_bits: handle
                .shards
                .iter()
                .map(|s| s.modeled_time.as_millis().to_bits())
                .collect(),
        }
    })
}

/// Table print of the unsharded build and label print of
/// `HybridDbscan::run`, the pair every sharded observation must match.
fn reference_prints(case: &Case) -> (u64, u64) {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
    let handle = hybrid
        .build_table(&case.data, case.eps)
        .unwrap_or_else(|e| panic!("unsharded build failed on {}: {e:?}", case.family));
    let run = hybrid
        .run(&case.data, case.eps, case.minpts)
        .unwrap_or_else(|e| panic!("unsharded run failed on {}: {e:?}", case.family));
    (
        table_fingerprint(&handle.table),
        clustering_fingerprint(&run.clustering),
    )
}

/// The full (k, threads, mode) matrix against the unsharded build.
fn assert_sharded_equivalence(case: &Case) {
    let (table_print, cluster_print) = reference_prints(case);
    for mode in [ShardMode::Concurrent, ShardMode::OutOfCore] {
        for k in KS {
            let base = observe(THREADS[0], case, k, mode);
            assert_eq!(
                base.table_print, table_print,
                "family `{}`: sharded table differs from unsharded at k={k} {mode:?}",
                case.family
            );
            assert_eq!(
                base.cluster_print, cluster_print,
                "family `{}`: ShardedHybrid::run labels differ from HybridDbscan::run at k={k} {mode:?}",
                case.family
            );
            for &threads in &THREADS[1..] {
                let other = observe(threads, case, k, mode);
                assert_eq!(
                    other.table_print, table_print,
                    "family `{}`: table moved at k={k} {mode:?} t={threads}",
                    case.family
                );
                assert_eq!(
                    other.cluster_print, cluster_print,
                    "family `{}`: clustering moved at k={k} {mode:?} t={threads}",
                    case.family
                );
                assert_eq!(
                    other.modeled_bits, base.modeled_bits,
                    "family `{}`: modeled-time bits moved at k={k} {mode:?} t={threads}",
                    case.family
                );
                assert_eq!(
                    other.shard_modeled_bits, base.shard_modeled_bits,
                    "family `{}`: per-shard modeled bits moved at k={k} {mode:?} t={threads}",
                    case.family
                );
            }
        }
    }
}

/// Every generator family × k ∈ {1,2,4} × {1,2,8} threads × both modes.
#[test]
fn sharded_matches_unsharded_across_families_shards_and_threads() {
    for (fi, family) in FAMILIES.iter().enumerate() {
        let mut rng = TestRng::new(0x5AAD ^ ((fi as u64) << 8));
        let case = (family.generate)(&mut rng);
        assert_sharded_equivalence(&case);
    }
}

/// Adversarial generator: clusters engineered to straddle the x-quantile
/// shard boundaries. Points live on the exact binary lattice; around each
/// of the quartile x positions (where the planner puts its k=2 and k=4
/// cuts) we plant vertical runs on both sides at exactly-ε horizontal
/// separation, so every boundary carries cross-shard edges that merge
/// only through the halo. A sprinkle of lattice noise keeps the
/// estimation kernel honest.
fn halo_straddling_case(rng: &mut TestRng) -> Case {
    let eps = 16.0 * Q; // exact on the lattice
    let mut data = Vec::new();
    // Quartiles of the x extent [0, 4]: cuts land near 1, 2, 3.
    for cut in [1.0f64, 2.0, 3.0] {
        let left = cut - eps / 2.0;
        let right = cut + eps / 2.0; // exactly ε from `left`
        for i in 0..8 {
            let y = i as f64 * eps; // vertical chains, ε-spaced
            data.push(Point2::new(left, y));
            data.push(Point2::new(right, y));
        }
        // A point sitting exactly on the candidate boundary.
        data.push(Point2::new(cut, 4.0 * eps));
    }
    // Lattice noise across the extent, far enough apart to stay noise.
    for _ in 0..40 {
        let gx = (rng.next_u64() % 512) as f64 * Q;
        let gy = (rng.next_u64() % 512) as f64 * Q;
        data.push(Point2::new(gx, gy));
    }
    Case {
        family: "halo-straddlers",
        data,
        eps,
        minpts: 3,
    }
}

#[test]
fn halo_straddling_adversarial_cases() {
    for seed in [3u64, 17, 4242] {
        let mut rng = TestRng::new(seed);
        let case = halo_straddling_case(&mut rng);
        assert_sharded_equivalence(&case);
        // Sanity: the generator must actually produce cross-boundary
        // structure — some cluster must span a k=4 shard boundary.
        let device = Device::k20c();
        let cfg = ShardConfig {
            shards: 4,
            mode: ShardMode::Concurrent,
            hybrid: HybridConfig::default(),
        };
        let handle = ShardedHybrid::new(&device, cfg)
            .build_table(&case.data, case.eps)
            .unwrap();
        assert!(
            handle.shards.iter().all(|s| s.halo_points > 0),
            "adversarial case must exercise every halo: {:?}",
            handle.shards
        );
    }
}
