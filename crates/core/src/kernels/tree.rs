//! The GPUCalcTree kernel: tree-based ε-neighborhood search.
//!
//! One thread computes the ε-neighborhood of one point by descending the
//! device-resident packed kd-tree ([`spatial::PackedKdTree`]) with a
//! fixed-size stack — the BVH-style traversal GPUs use when a grid is a
//! poor fit (skewed density, d > 2). The thread visits every node whose
//! subtree can intersect the closed ε-ball, scans reached leaves' id
//! ranges chunk-wise against the SoA coordinate arrays, and atomically
//! appends hits exactly like [`super::GpuCalcGlobal`].
//!
//! **Same contract as the grid kernels**: identical strided batch
//! assignment (Section VI), identical hit predicate (the ordered
//! mul-mul-add rounding chain of `PointN::distance_sq`, bit-identical to
//! `Point2::distance_sq` at `D = 2`), identical append accounting. Only
//! the candidate set generation differs, so the emitted pair *set* —
//! and after the canonical device sort, the neighbor table bytes — match
//! the grid backend exactly.
//!
//! **Cost shape**: traversal pays a [`ThreadCtx::read_global_dependent`]
//! surcharge per visited node (each child address depends on the parent's
//! node record — a pointer chase the scheduler cannot pipeline), while
//! leaf scans touch a candidate volume of roughly `(2ε)^d` around the
//! query versus the grid stencil's `(3ε)^d`. Dense or skewed regions and
//! higher dimensions amortize the per-node latency over bigger savings;
//! sparse uniform 2-D data does not — which is exactly the trade-off the
//! [`crate::backend`] selector navigates.

use super::{scan_ids, NeighborPair};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel, ChargeBatch, ThreadCtx};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
use spatial::packed_tree::LEAF_AXIS;
use spatial::{PointsViewN, TreeView};

/// Traversal stack capacity: comfortably above the packed tree's depth
/// cap (24) plus the push-two-pop-one slack.
const STACK_CAP: usize = 32;

/// Stack-based ε-ball traversal of the packed tree, invoking `on_hits`
/// per hit chunk. Shared by the calc and count kernels so both charge the
/// same traversal cost.
///
/// Per visited node the thread pays one *dependent* global read for the
/// 8-byte node record (split or leaf range — its address came from the
/// parent's visit) plus the 4-byte axis tag and the two bound
/// comparisons; leaves then scan their id range via [`scan_ids`].
#[inline]
fn traverse_eps<const D: usize>(
    t: &mut ThreadCtx,
    points: PointsViewN<'_, D>,
    tree: &TreeView<'_>,
    q: &[f64; D],
    eps: f64,
    on_hits: &mut impl FnMut(&mut ThreadCtx, &[u32]),
) {
    let eps_sq = eps * eps;
    let mut lo = [0.0f64; D];
    let mut hi = [0.0f64; D];
    for k in 0..D {
        lo[k] = q[k] - eps;
        hi[k] = q[k] + eps;
    }
    let mut stack = [0u32; STACK_CAP];
    let mut sp = 1usize;
    while sp > 0 {
        sp -= 1;
        let node = stack[sp] as usize;
        // Node record fetch: one dependent hop (address chased from the
        // parent) for the 8-byte payload, plus the axis tag.
        t.read_global_dependent::<f64>(1);
        t.read_global::<u32>(1);
        let axis = tree.axes[node];
        if axis == LEAF_AXIS {
            let r = tree.ranges[node];
            scan_ids(
                t,
                points,
                &tree.ids[r.start as usize..r.end as usize],
                q,
                eps_sq,
                &mut *on_hits,
            );
            continue;
        }
        let split = tree.splits[node];
        let a = axis as usize;
        t.charge_flops(2);
        if hi[a] >= split {
            stack[sp] = (2 * node + 2) as u32;
            sp += 1;
        }
        if lo[a] <= split {
            stack[sp] = (2 * node + 1) as u32;
            sp += 1;
        }
        debug_assert!(sp <= STACK_CAP);
    }
}

/// Thread-per-point ε-neighborhood kernel over the packed kd-tree.
pub struct GpuCalcTree<'a, const D: usize> {
    /// `D` (device-resident, spatially pre-sorted), SoA coordinates.
    pub points: PointsViewN<'a, D>,
    /// The packed node pool (splits/axes/ranges/ids buffers).
    pub tree: TreeView<'a>,
    /// Search radius.
    pub eps: f64,
    /// Batch number `l ∈ 0..n_batches`.
    pub batch: usize,
    /// Total number of batches `n_b`.
    pub n_batches: usize,
    /// `gpuResultSet`: the atomic result buffer.
    pub result: &'a DeviceAppendBuffer<NeighborPair>,
}

impl<const D: usize> GpuCalcTree<'_, D> {
    /// Identical strided partition to [`super::GpuCalcGlobal`] — the
    /// batching scheme is backend-independent.
    pub fn points_in_batch(n_points: usize, n_batches: usize, batch: usize) -> usize {
        super::GpuCalcGlobal::points_in_batch(n_points, n_batches, batch)
    }

    /// The launch configuration covering this batch at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        let n = Self::points_in_batch(self.points.len(), self.n_batches, self.batch);
        LaunchConfig::for_elements(n.max(1), block_dim)
    }
}

impl<const D: usize> BlockKernel for GpuCalcTree<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let in_batch = Self::points_in_batch(n_points, self.n_batches, self.batch) as u64;
        let mut stage = self.result.stage();

        ctx.for_each_thread(|t| {
            if t.gid >= in_batch {
                return;
            }
            let pi = (t.gid as usize) * self.n_batches + self.batch;
            debug_assert!(pi < n_points);

            // point <- D[gid'] (registers): D coordinates.
            t.read_global::<f64>(D as u64);
            let q: [f64; D] = std::array::from_fn(|k| self.points.coords[k][pi]);
            // ε-ball bounds: one sub and one add per dimension.
            t.charge_flops(2 * D as u64);

            traverse_eps(t, self.points, &self.tree, &q, self.eps, &mut |t, hits| {
                let mut charge = ChargeBatch {
                    atomics: hits.len() as u64,
                    ..ChargeBatch::default()
                };
                charge.write_global::<NeighborPair>(hits.len() as u64);
                t.charge_batch(charge);
                for &cand in hits {
                    stage.push((pi as u32, cand));
                }
            });
        });
        Ok(())
    }
}

/// The Section VI result-size estimation kernel, tree flavor: counts
/// (never materializes) the neighbors of a strided sample.
pub struct TreeCountKernel<'a, const D: usize> {
    pub points: PointsViewN<'a, D>,
    pub tree: TreeView<'a>,
    pub eps: f64,
    /// Sample stride: thread `g` counts the neighbors of point
    /// `g · stride`.
    pub stride: usize,
    /// The device counter accumulating `e_b`.
    pub counter: &'a DeviceCounter,
}

impl<const D: usize> TreeCountKernel<'_, D> {
    /// Launch configuration covering the sample at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        LaunchConfig::for_elements(
            super::NeighborCountKernel::sample_size(self.points.len(), self.stride).max(1),
            block_dim,
        )
    }
}

impl<const D: usize> BlockKernel for TreeCountKernel<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let stride = self.stride.max(1);
        let samples = super::NeighborCountKernel::sample_size(n_points, stride) as u64;

        ctx.for_each_thread(|t| {
            if t.gid >= samples {
                return;
            }
            let pi = (t.gid as usize) * stride;
            debug_assert!(pi < n_points);

            t.read_global::<f64>(D as u64);
            let q: [f64; D] = std::array::from_fn(|k| self.points.coords[k][pi]);
            t.charge_flops(2 * D as u64);

            let mut local = 0u64;
            traverse_eps(t, self.points, &self.tree, &q, self.eps, &mut |_, hits| {
                local += hits.len() as u64
            });
            // One atomic per thread, not per hit.
            t.charge_atomic();
            self.counter.add(local);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{
        brute_force_pairs, check_staged_appends, dense_cell_points, estimate_result_capacity,
        mixed_points,
    };
    use super::*;
    use gpu_sim::Device;
    use spatial::{GridIndex, PackedKdTree, Point2, PointN, PointStore, PointStoreN};

    fn nd_points<const D: usize>(n: usize, extent: f64) -> Vec<PointN<D>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                PointN::new(std::array::from_fn(|k| {
                    (t * (0.357 + 0.191 * k as f64)).fract() * extent
                }))
            })
            .collect()
    }

    fn brute_pairs_nd<const D: usize>(data: &[PointN<D>], eps: f64) -> Vec<(u32, u32)> {
        let eps_sq = eps * eps;
        let mut out = Vec::new();
        for (i, p) in data.iter().enumerate() {
            for (j, q) in data.iter().enumerate() {
                if p.distance_sq(q) <= eps_sq {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn run_tree_kernel<const D: usize>(
        data: &[PointN<D>],
        eps: f64,
        n_batches: usize,
    ) -> Vec<(u32, u32)> {
        let device = Device::k20c();
        let store = PointStoreN::from_points(data);
        let tree = PackedKdTree::<D>::build(store.view());
        let counter = DeviceCounter::new(&device).unwrap();
        let count = TreeCountKernel {
            points: store.view(),
            tree: tree.view(),
            eps,
            stride: 1,
            counter: &counter,
        };
        device.launch(count.launch_config(256), &count).unwrap();
        let cap = counter.get() as usize + 64;
        let mut result = DeviceAppendBuffer::new(&device, cap).unwrap();
        for batch in 0..n_batches {
            let kernel = GpuCalcTree {
                points: store.view(),
                tree: tree.view(),
                eps,
                batch,
                n_batches,
                result: &result,
            };
            device.launch(kernel.launch_config(256), &kernel).unwrap();
        }
        assert!(!result.overflowed());
        let mut pairs = result.as_filled_slice().to_vec();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn block_overflowing_its_append_stage_loses_no_pair() {
        let data: Vec<PointN<2>> = dense_cell_points().into_iter().map(PointN::from).collect();
        let eps = 0.3;
        let device = Device::k20c();
        let store = PointStoreN::from_points(&data);
        let tree = PackedKdTree::<2>::build(store.view());
        check_staged_appends(&device, &brute_pairs_nd(&data, eps), |result| {
            let kernel = GpuCalcTree {
                points: store.view(),
                tree: tree.view(),
                eps,
                batch: 0,
                n_batches: 1,
                result,
            };
            device.launch(kernel.launch_config(256), &kernel).unwrap();
        });
    }

    #[test]
    fn matches_brute_force_2d() {
        let data = nd_points::<2>(300, 8.0);
        for eps in [0.3, 1.0, 2.5] {
            assert_eq!(run_tree_kernel(&data, eps, 1), brute_pairs_nd(&data, eps));
        }
    }

    #[test]
    fn matches_brute_force_3d_and_4d() {
        let p3 = nd_points::<3>(250, 5.0);
        let p4 = nd_points::<4>(180, 4.0);
        for eps in [0.6, 1.2] {
            assert_eq!(run_tree_kernel(&p3, eps, 1), brute_pairs_nd(&p3, eps));
            assert_eq!(run_tree_kernel(&p4, eps, 1), brute_pairs_nd(&p4, eps));
        }
    }

    #[test]
    fn batched_union_equals_unbatched() {
        let data = nd_points::<3>(400, 4.0);
        let eps = 0.8;
        let unbatched = run_tree_kernel(&data, eps, 1);
        for n_batches in [2, 3, 5, 7] {
            assert_eq!(
                run_tree_kernel(&data, eps, n_batches),
                unbatched,
                "n_batches = {n_batches}"
            );
        }
    }

    #[test]
    fn pairs_match_grid_kernel_exactly_in_2d() {
        // The tree backend must produce the *same pair set* as the grid
        // backend on the same (pre-sorted) database — the foundation of
        // the bitwise neighbor-table guarantee.
        let data2: Vec<Point2> = mixed_points(400);
        let eps = 0.7;
        let device = Device::k20c();
        let grid = GridIndex::build(&data2, eps);
        let store = PointStore::from_points(&data2);
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let mut result = DeviceAppendBuffer::new(&device, cap).unwrap();
        let kernel = super::super::GpuCalcGlobal {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
            geom: grid.geometry(),
            eps,
            batch: 0,
            n_batches: 1,
            result: &result,
            skip_dense_at: None,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        assert!(!result.overflowed());
        let mut grid_pairs = result.as_filled_slice().to_vec();
        grid_pairs.sort_unstable();

        let datan: Vec<PointN<2>> = data2.iter().map(|&p| PointN::from(p)).collect();
        let tree_pairs = run_tree_kernel(&datan, eps, 1);
        assert_eq!(tree_pairs, grid_pairs);
        assert_eq!(tree_pairs, brute_force_pairs(&data2, eps));
    }

    #[test]
    fn count_kernel_is_exact_at_stride_one() {
        let data = nd_points::<3>(300, 4.0);
        let eps = 0.9;
        let device = Device::k20c();
        let store = PointStoreN::from_points(&data);
        let tree = PackedKdTree::<3>::build(store.view());
        let counter = DeviceCounter::new(&device).unwrap();
        let kernel = TreeCountKernel {
            points: store.view(),
            tree: tree.view(),
            eps,
            stride: 1,
            counter: &counter,
        };
        let report = device.launch(kernel.launch_config(256), &kernel).unwrap();
        assert_eq!(counter.get() as usize, brute_pairs_nd(&data, eps).len());
        // The estimation kernel writes no result set.
        assert_eq!(report.counters.global_write_bytes, 0);
    }

    #[test]
    fn traversal_charges_dependent_reads() {
        // The tree kernel's defining cost: modeled cycles must exceed a
        // hypothetical kernel doing the same reads without the dependent
        // surcharge. Cheap sanity proxy: the kernel must report nonzero
        // read traffic and run longer on a deeper tree (more points).
        let small = nd_points::<2>(64, 4.0);
        let large = nd_points::<2>(4096, 4.0);
        let device = Device::k20c();
        let time_of = |data: &[PointN<2>]| {
            let store = PointStoreN::from_points(data);
            let tree = PackedKdTree::<2>::build(store.view());
            let counter = DeviceCounter::new(&device).unwrap();
            let kernel = TreeCountKernel {
                points: store.view(),
                tree: tree.view(),
                eps: 0.5,
                stride: 1,
                counter: &counter,
            };
            let report = device.launch(kernel.launch_config(256), &kernel).unwrap();
            assert!(report.counters.global_read_bytes > 0);
            report.duration
        };
        assert!(time_of(&large) > time_of(&small));
    }

    #[test]
    fn overflow_is_reported_not_lost() {
        let data = nd_points::<2>(200, 3.0);
        let device = Device::k20c();
        let store = PointStoreN::from_points(&data);
        let tree = PackedKdTree::<2>::build(store.view());
        let result = DeviceAppendBuffer::new(&device, 10).unwrap();
        let kernel = GpuCalcTree {
            points: store.view(),
            tree: tree.view(),
            eps: 1.0,
            batch: 0,
            n_batches: 1,
            result: &result,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        assert!(result.overflowed());
        assert!(result.rejected() > 0);
    }
}
