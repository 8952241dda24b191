//! Dimension-generic grid kernels — the grid backend for d > 2.
//!
//! Structurally [`super::GpuCalcGlobal`] and [`super::NeighborCountKernel`]
//! over [`spatial::GridIndexN`]: thread per point, the `3^D` stencil of
//! adjacent cells instead of 9, each cell resolved by binary search over
//! the sparse `u64` key array (charged as probe reads), and the shared
//! chunked ε-scan of [`super::tree::scan_ids_nd`]. This is what the tree
//! backend is measured against in higher dimensions: the stencil grows
//! `3^D` while the tree's candidate volume stays `(2ε)^D`.

use super::tree::scan_ids_nd;
use super::NeighborPair;
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel, ChargeBatch, ThreadCtx};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
use spatial::grid::CellRange;
use spatial::{CellsViewN, GridGeometryN, PointsViewN};

/// Resolve and load cell key `h` from the sparse ND `G`, charging the
/// binary-search probes plus the `CellRange` read (the ND analogue of
/// [`super::load_cell_range`]; the ND layout is always sparse).
#[inline]
fn load_cell_range_nd(t: &mut ThreadCtx, cells: &CellsViewN<'_>, h: u64) -> CellRange {
    let probes = cells.probe_reads();
    if probes > 0 {
        t.read_global::<u64>(probes);
    }
    t.read_global::<CellRange>(1);
    cells.range_of(h)
}

/// Thread-per-point ε-neighborhood kernel over the sparse ND grid.
pub struct GpuCalcGridNd<'a, const D: usize> {
    pub points: PointsViewN<'a, D>,
    pub cells: CellsViewN<'a>,
    /// `A`: point ids grouped by cell.
    pub lookup: &'a [u32],
    pub geom: GridGeometryN<D>,
    pub eps: f64,
    pub batch: usize,
    pub n_batches: usize,
    pub result: &'a DeviceAppendBuffer<NeighborPair>,
}

impl<const D: usize> GpuCalcGridNd<'_, D> {
    /// The launch configuration covering this batch at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        let n =
            super::GpuCalcGlobal::points_in_batch(self.points.len(), self.n_batches, self.batch);
        LaunchConfig::for_elements(n.max(1), block_dim)
    }
}

impl<const D: usize> BlockKernel for GpuCalcGridNd<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let eps_sq = self.eps * self.eps;
        let in_batch =
            super::GpuCalcGlobal::points_in_batch(n_points, self.n_batches, self.batch) as u64;
        let mut stage = self.result.stage();

        ctx.for_each_thread(|t| {
            if t.gid >= in_batch {
                return;
            }
            let pi = (t.gid as usize) * self.n_batches + self.batch;
            debug_assert!(pi < n_points);

            t.read_global::<f64>(D as u64);
            let q = self.points.get(pi);

            // Stencil enumeration: pure arithmetic, ~5 flops per
            // dimension (10 at D = 2, matching the 2-D kernel's charge).
            t.charge_flops(5 * D as u64);
            let c = self.geom.cell_coords_of(&q);
            let (stencil, n_cells) = self.geom.stencil_of_coords(&c);

            for &h in &stencil[..n_cells] {
                let range = load_cell_range_nd(t, &self.cells, h);
                scan_ids_nd(
                    t,
                    self.points,
                    &self.lookup[range.start as usize..range.end as usize],
                    &q.coords,
                    eps_sq,
                    |t, hits| {
                        let mut charge = ChargeBatch {
                            atomics: hits.len() as u64,
                            ..ChargeBatch::default()
                        };
                        charge.write_global::<NeighborPair>(hits.len() as u64);
                        t.charge_batch(charge);
                        for &cand in hits {
                            stage.push((pi as u32, cand));
                        }
                    },
                );
            }
        });
        Ok(())
    }
}

/// The result-size estimation kernel over the sparse ND grid.
pub struct GridNdCountKernel<'a, const D: usize> {
    pub points: PointsViewN<'a, D>,
    pub cells: CellsViewN<'a>,
    pub lookup: &'a [u32],
    pub geom: GridGeometryN<D>,
    pub eps: f64,
    pub stride: usize,
    pub counter: &'a DeviceCounter,
}

impl<const D: usize> GridNdCountKernel<'_, D> {
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        LaunchConfig::for_elements(
            super::NeighborCountKernel::sample_size(self.points.len(), self.stride).max(1),
            block_dim,
        )
    }
}

impl<const D: usize> BlockKernel for GridNdCountKernel<'_, D> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let stride = self.stride.max(1);
        let samples = super::NeighborCountKernel::sample_size(n_points, stride) as u64;
        let eps_sq = self.eps * self.eps;

        ctx.for_each_thread(|t| {
            if t.gid >= samples {
                return;
            }
            let pi = (t.gid as usize) * stride;
            debug_assert!(pi < n_points);

            t.read_global::<f64>(D as u64);
            let q = self.points.get(pi);
            t.charge_flops(5 * D as u64);
            let c = self.geom.cell_coords_of(&q);
            let (stencil, n_cells) = self.geom.stencil_of_coords(&c);

            let mut local = 0u64;
            for &h in &stencil[..n_cells] {
                let range = load_cell_range_nd(t, &self.cells, h);
                scan_ids_nd(
                    t,
                    self.points,
                    &self.lookup[range.start as usize..range.end as usize],
                    &q.coords,
                    eps_sq,
                    |_, hits| local += hits.len() as u64,
                );
            }
            t.charge_atomic();
            self.counter.add(local);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{check_staged_appends, dense_cell_points};
    use super::*;
    use gpu_sim::Device;
    use spatial::{GridIndexN, PointN, PointStoreN};

    fn nd_points<const D: usize>(n: usize, extent: f64) -> Vec<PointN<D>> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                PointN::new(std::array::from_fn(|k| {
                    (t * (0.433 + 0.239 * k as f64)).fract() * extent
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

    fn run_gridnd_kernel<const D: usize>(
        data: &[PointN<D>],
        eps: f64,
        n_batches: usize,
    ) -> Vec<(u32, u32)> {
        let device = Device::k20c();
        let store = PointStoreN::from_points(data);
        let grid = GridIndexN::<D>::build(data, eps);
        let counter = DeviceCounter::new(&device).unwrap();
        let count = GridNdCountKernel {
            points: store.view(),
            cells: grid.cells(),
            lookup: grid.lookup(),
            geom: *grid.geometry(),
            eps,
            stride: 1,
            counter: &counter,
        };
        device.launch(count.launch_config(256), &count).unwrap();
        let cap = counter.get() as usize + 64;
        let mut result = DeviceAppendBuffer::new(&device, cap).unwrap();
        for batch in 0..n_batches {
            let kernel = GpuCalcGridNd {
                points: store.view(),
                cells: grid.cells(),
                lookup: grid.lookup(),
                geom: *grid.geometry(),
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
        let data: Vec<PointN<3>> = dense_cell_points()
            .into_iter()
            .map(|p| PointN::new([p.x, p.y, 0.25]))
            .collect();
        let eps = 0.3;
        let device = Device::k20c();
        let store = PointStoreN::from_points(&data);
        let grid = GridIndexN::<3>::build(&data, eps);
        check_staged_appends(&device, &brute_pairs_nd(&data, eps), |result| {
            let kernel = GpuCalcGridNd {
                points: store.view(),
                cells: grid.cells(),
                lookup: grid.lookup(),
                geom: *grid.geometry(),
                eps,
                batch: 0,
                n_batches: 1,
                result,
            };
            device.launch(kernel.launch_config(256), &kernel).unwrap();
        });
    }

    #[test]
    fn matches_brute_force_in_each_dimension() {
        let p2 = nd_points::<2>(300, 6.0);
        let p3 = nd_points::<3>(250, 4.0);
        let p4 = nd_points::<4>(180, 3.0);
        for eps in [0.5, 1.1] {
            assert_eq!(run_gridnd_kernel(&p2, eps, 1), brute_pairs_nd(&p2, eps));
            assert_eq!(run_gridnd_kernel(&p3, eps, 1), brute_pairs_nd(&p3, eps));
            assert_eq!(run_gridnd_kernel(&p4, eps, 1), brute_pairs_nd(&p4, eps));
        }
    }

    #[test]
    fn batched_union_equals_unbatched() {
        let data = nd_points::<3>(350, 4.0);
        let eps = 0.7;
        let unbatched = run_gridnd_kernel(&data, eps, 1);
        for n_batches in [2, 4, 5] {
            assert_eq!(run_gridnd_kernel(&data, eps, n_batches), unbatched);
        }
    }

    #[test]
    fn pairs_match_tree_backend() {
        // Grid-ND and tree backends must emit identical pair sets —
        // the cross-backend guarantee in d > 2.
        let data = nd_points::<3>(300, 4.0);
        let eps = 0.8;
        let device = Device::k20c();
        let store = PointStoreN::from_points(&data);
        let tree = spatial::PackedKdTree::<3>::build(store.view());
        let counter = DeviceCounter::new(&device).unwrap();
        let count = super::super::TreeCountKernel {
            points: store.view(),
            tree: tree.view(),
            eps,
            stride: 1,
            counter: &counter,
        };
        device.launch(count.launch_config(256), &count).unwrap();
        let mut result = DeviceAppendBuffer::new(&device, counter.get() as usize + 64).unwrap();
        let kernel = super::super::GpuCalcTree {
            points: store.view(),
            tree: tree.view(),
            eps,
            batch: 0,
            n_batches: 1,
            result: &result,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        assert!(!result.overflowed());
        let mut tree_pairs = result.as_filled_slice().to_vec();
        tree_pairs.sort_unstable();
        assert_eq!(run_gridnd_kernel(&data, eps, 1), tree_pairs);
    }
}
