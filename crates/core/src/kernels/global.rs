//! The GPUCalcGlobal kernel (Algorithm 2 of the paper).
//!
//! One thread computes the ε-neighborhood of one point using only global
//! memory: it loads its point, enumerates the ≤9 grid cells that can
//! contain neighbors, scans each cell's `[A_min, A_max]` range of the
//! lookup array, computes distances, and atomically appends each hit to
//! the device result buffer as a `(point, neighbor)` pair. The scan runs
//! chunk-wise over the SoA coordinate store ([`super::scan_ids`]):
//! same hits, same modeled cost, a fraction of the host wall-clock.
//!
//! **Batching** (Section VI): with `n_b` batches, batch `l` processes the
//! points `{gid · n_b + l}` — a strided assignment over the spatially
//! sorted database, so every batch sees a uniform spatial sample and the
//! per-batch result sizes `|R_l|` stay consistent (Figure 2). The launch
//! covers `ceil(|D| / n_b)` points.

use super::{load_cell_range, scan_ids, NeighborPair};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel, ChargeBatch};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::DeviceAppendBuffer;
use spatial::grid::{CellRange, CellsView};
use spatial::{GridGeometry, PointsView, PointsViewN};

/// Algorithm 2: thread-per-point ε-neighborhood kernel over global memory.
pub struct GpuCalcGlobal<'a> {
    /// `D` (device-resident, spatially sorted), as the SoA coordinate view.
    pub points: PointsView<'a>,
    /// `G`: per-cell ranges into `A`, in either layout.
    pub grid: CellsView<'a>,
    /// `A`: point ids grouped by cell.
    pub lookup: &'a [u32],
    /// Grid geometry (device constants).
    pub geom: GridGeometry,
    /// Search radius; must equal the grid's cell width.
    pub eps: f64,
    /// Batch number `l ∈ 0..n_batches`.
    pub batch: usize,
    /// Total number of batches `n_b`.
    pub n_batches: usize,
    /// `gpuResultSet`: the atomic result buffer.
    pub result: &'a DeviceAppendBuffer<NeighborPair>,
    /// Split-kernel mask (the paper's future-work hybrid): when set,
    /// threads whose point lives in a cell with at least this many points
    /// return immediately — those cells are processed by GPUCalcShared.
    /// `None` (the default everywhere in the paper's pipeline) disables
    /// the mask.
    pub skip_dense_at: Option<usize>,
}

impl GpuCalcGlobal<'_> {
    /// Number of points this batch processes: `ceil(|D| / n_b)` thread
    /// slots, minus slots whose strided id falls past `|D|`.
    pub fn points_in_batch(n_points: usize, n_batches: usize, batch: usize) -> usize {
        debug_assert!(batch < n_batches);
        // gids g with g * n_batches + batch < n_points.
        n_points.saturating_sub(batch).div_ceil(n_batches)
    }

    /// The launch configuration covering this batch at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        let n = Self::points_in_batch(self.points.len(), self.n_batches, self.batch);
        LaunchConfig::for_elements(n.max(1), block_dim)
    }
}

impl BlockKernel for GpuCalcGlobal<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let eps_sq = self.eps * self.eps;
        let in_batch = Self::points_in_batch(n_points, self.n_batches, self.batch) as u64;
        let points = PointsViewN::from(self.points);
        let mut stage = self.result.stage();

        ctx.for_each_thread(|t| {
            if t.gid >= in_batch {
                return;
            }
            // Strided batch assignment: gid -> point id.
            let pi = (t.gid as usize) * self.n_batches + self.batch;
            debug_assert!(pi < n_points);

            // point <- D[gid'] (registers).
            t.read_global::<spatial::Point2>(1);
            let (qx, qy) = (self.points.xs[pi], self.points.ys[pi]);

            // cellIDsArr <- getNeighborCells(gid): pure arithmetic.
            t.charge_flops(10);
            let own_cell = self.geom.cell_of(&self.points.get(pi));
            if let Some(threshold) = self.skip_dense_at {
                // Split-kernel mask: dense cells belong to GPUCalcShared.
                t.read_global::<CellRange>(1);
                if self.grid.range_of(own_cell as u32).len() >= threshold {
                    return;
                }
            }
            let (cells, n_cells) = self.geom.neighbor_cells(own_cell);

            for &cell_id in &cells[..n_cells] {
                // lookupMin/Max <- G[cellID].
                let range = load_cell_range(t, &self.grid, cell_id);
                scan_ids(
                    t,
                    points,
                    &self.lookup[range.start as usize..range.end as usize],
                    &[qx, qy],
                    eps_sq,
                    |t, hits| {
                        // atomic: gpuResultSet <- gpuResultSet ∪ result —
                        // charged per hit (batched: exact integer costs),
                        // staged per block and appended with one cursor
                        // reservation per stage-full.
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

#[cfg(test)]
mod tests {
    use super::super::test_support::{
        brute_force_pairs, check_staged_appends, dense_cell_points, estimate_result_capacity,
        mixed_points,
    };
    use super::*;
    use gpu_sim::Device;
    use spatial::{GridIndex, Point2, PointStore};

    fn run_kernel(
        data: &[Point2],
        eps: f64,
        n_batches: usize,
    ) -> (Vec<(u32, u32)>, Vec<gpu_sim::KernelReport>) {
        let device = Device::k20c();
        let grid = GridIndex::build(data, eps);
        let store = PointStore::from_points(data);
        // Size the result buffer the way production does: via the
        // estimation kernel (exact at stride 1), not O(n²) scratch.
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let result = DeviceAppendBuffer::new(&device, cap).unwrap();
        let mut reports = Vec::new();
        for batch in 0..n_batches {
            let kernel = GpuCalcGlobal {
                points: store.view(),
                grid: grid.cells_view(),
                lookup: grid.lookup(),
                geom: grid.geometry(),
                eps,
                batch,
                n_batches,
                result: &result,
                skip_dense_at: None,
            };
            let cfg = kernel.launch_config(256);
            reports.push(device.launch(cfg, &kernel).unwrap());
        }
        let mut result = result;
        assert!(!result.overflowed());
        let mut pairs = result.as_filled_slice().to_vec();
        pairs.sort_unstable();
        (pairs, reports)
    }

    #[test]
    fn single_batch_matches_brute_force() {
        let data = mixed_points(300);
        for eps in [0.3, 1.0, 2.5] {
            let (pairs, _) = run_kernel(&data, eps, 1);
            assert_eq!(pairs, brute_force_pairs(&data, eps), "eps = {eps}");
        }
    }

    #[test]
    fn batched_union_equals_unbatched() {
        let data = mixed_points(500);
        let eps = 0.8;
        let (unbatched, _) = run_kernel(&data, eps, 1);
        for n_batches in [2, 3, 5, 7] {
            let (batched, _) = run_kernel(&data, eps, n_batches);
            assert_eq!(batched, unbatched, "n_batches = {n_batches}");
        }
    }

    #[test]
    fn sparse_grid_layout_produces_identical_pairs() {
        let data = mixed_points(300);
        let eps = 0.6;
        let device = Device::k20c();
        let store = PointStore::from_points(&data);
        let mut by_layout = Vec::new();
        for layout in [spatial::GridLayout::Dense, spatial::GridLayout::Sparse] {
            let grid = GridIndex::build_with_layout(&data, eps, layout);
            let cap = estimate_result_capacity(&device, &store, &grid, eps);
            let result = DeviceAppendBuffer::new(&device, cap).unwrap();
            let kernel = GpuCalcGlobal {
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
            let mut result = result;
            assert!(!result.overflowed());
            let mut pairs = result.as_filled_slice().to_vec();
            pairs.sort_unstable();
            by_layout.push(pairs);
        }
        assert_eq!(by_layout[0], by_layout[1]);
        assert_eq!(by_layout[0], brute_force_pairs(&data, eps));
    }

    #[test]
    fn points_in_batch_partitions_database() {
        for n in [1usize, 10, 999, 1000, 1001] {
            for nb in [1usize, 2, 3, 7] {
                let total: usize = (0..nb)
                    .map(|l| GpuCalcGlobal::points_in_batch(n, nb, l))
                    .sum();
                assert_eq!(total, n, "n = {n}, nb = {nb}");
            }
        }
    }

    #[test]
    fn thread_count_tracks_points() {
        let data = mixed_points(1000);
        let (_, reports) = run_kernel(&data, 0.5, 1);
        // n_GPU = ceil(1000/256)*256 = 1024 (Table II's "roughly |D|").
        assert_eq!(reports[0].threads_launched, 1024);
    }

    #[test]
    fn batches_report_fewer_threads_each() {
        let data = mixed_points(1000);
        let (_, reports) = run_kernel(&data, 0.5, 4);
        for r in &reports {
            assert!(
                r.threads_launched <= 256 * 1024 / 256,
                "{}",
                r.threads_launched
            );
            assert_eq!(r.threads_launched, 256);
        }
    }

    #[test]
    fn every_point_has_self_pair() {
        let data = mixed_points(100);
        let (pairs, _) = run_kernel(&data, 0.4, 3);
        for i in 0..data.len() as u32 {
            assert!(
                pairs.binary_search(&(i, i)).is_ok(),
                "missing self pair for {i}"
            );
        }
    }

    #[test]
    fn duplicate_points_all_pair_up() {
        let data = vec![Point2::new(1.0, 1.0); 8];
        let (pairs, _) = run_kernel(&data, 0.1, 2);
        assert_eq!(pairs.len(), 64, "8 coincident points produce 8x8 pairs");
    }

    #[test]
    fn block_overflowing_its_append_stage_loses_no_pair() {
        let data = dense_cell_points();
        let eps = 0.3;
        let device = Device::k20c();
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        check_staged_appends(&device, &brute_force_pairs(&data, eps), |result| {
            let kernel = GpuCalcGlobal {
                points: store.view(),
                grid: grid.cells_view(),
                lookup: grid.lookup(),
                geom: grid.geometry(),
                eps,
                batch: 0,
                n_batches: 1,
                result,
                skip_dense_at: None,
            };
            device.launch(kernel.launch_config(256), &kernel).unwrap();
        });
    }

    #[test]
    fn overflow_is_reported_not_lost() {
        let data = mixed_points(200);
        let eps = 1.0;
        let device = Device::k20c();
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        // Deliberately undersized buffer.
        let result = DeviceAppendBuffer::new(&device, 10).unwrap();
        let kernel = GpuCalcGlobal {
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
        assert!(result.overflowed());
        assert!(result.rejected() > 0);
    }
}
