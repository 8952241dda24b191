//! The GPUCalcShared kernel (Algorithm 3 of the paper).
//!
//! One thread *block* processes one non-empty grid cell (the *origin*
//! cell), given by the schedule `S`. The block pages the origin cell's
//! points and each adjacent *comparison* cell's points from global into
//! shared memory in block-size tiles, synchronizes, and then each thread
//! compares its origin point against every staged comparison point —
//! exploiting shared-memory bandwidth for the O(m·n) distance work. The
//! staged tiles are SoA (separate x/y arrays, same byte footprint), and
//! the per-thread compare loop runs chunk-wise with the hoisted x-axis
//! filter of [`super::scan_ids`] — same hits, same modeled cost.
//!
//! The paper's pseudo-code assumes cells no larger than the block; the
//! real implementation (and this one) adds the outer tiling loop it
//! mentions ("if there are more points in a cell than the block size,
//! then an additional loop is needed").
//!
//! Why this kernel loses (Table II): every block pays the fixed block
//! overhead and the staging traffic even when its cell holds a handful of
//! points, and idle lanes in each warp are dragged along at warp cost —
//! the sparser/more uniform the data (small ε, SDSS-like), the more
//! blocks, the worse the total. The experiment harness reproduces exactly
//! that trade-off.

use super::{load_cell_range, NeighborPair, SCAN_LANES};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::ChargeBatch;
use gpu_sim::kernel::{BlockCtx, BlockKernel};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::DeviceAppendBuffer;
use spatial::grid::CellsView;
use spatial::{GridGeometry, Point2, PointsView};

/// Algorithm 3: block-per-cell ε-neighborhood kernel staging through
/// shared memory.
pub struct GpuCalcShared<'a> {
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
    /// The schedule `S`: linear ids of the non-empty cells this launch
    /// processes, one block each. For a batched execution, a strided
    /// sub-slice of the full schedule.
    pub schedule: &'a [u32],
    /// `gpuResultSet`: the atomic result buffer.
    pub result: &'a DeviceAppendBuffer<NeighborPair>,
}

impl GpuCalcShared<'_> {
    /// Launch configuration: one block per scheduled cell. `N` (the total
    /// thread count of Algorithm 3) is `|S| · block_dim` — the `n_GPU`
    /// reported in Table II.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        // Two point tiles plus the origin-id tile.
        let shared_bytes =
            block_dim as usize * (2 * std::mem::size_of::<Point2>() + std::mem::size_of::<u32>());
        LaunchConfig::new(self.schedule.len() as u32, block_dim).with_shared_mem(shared_bytes)
    }
}

impl BlockKernel for GpuCalcShared<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let bd = ctx.block_dim as usize;
        let eps_sq = self.eps * self.eps;

        // cellToProc <- S[blockID].
        let cell = self.schedule[ctx.block_idx as usize];
        let origin_range = self.grid.range_of(cell);
        let m_origin = origin_range.len();
        let mut stage = self.result.stage();

        // shared pntsOriginCell[blockDim.x], pntsCompCell[blockDim.x] —
        // staged SoA (split x/y), same 2 * size_of::<Point2>() bytes per
        // thread as the interleaved layout.
        let mut s_origin_x: Vec<f64> = ctx.alloc_shared(bd)?;
        let mut s_origin_y: Vec<f64> = ctx.alloc_shared(bd)?;
        let mut s_comp_x: Vec<f64> = ctx.alloc_shared(bd)?;
        let mut s_comp_y: Vec<f64> = ctx.alloc_shared(bd)?;
        // Origin point ids travel with the staged coordinates (the result
        // pair needs them); a real kernel stages them in shared memory too.
        let mut s_origin_ids: Vec<u32> = ctx.alloc_shared(bd)?;

        // Thread 0 fetches the neighbor-cell list; synchronize().
        let mut cell_ids = [0u32; 9];
        let mut n_cells = 0;
        ctx.phase(|t| {
            if t.tid == 0 {
                let _ = load_cell_range(t, &self.grid, cell);
                t.charge_flops(10);
                let (ids, n) = self.geom.neighbor_cells(cell as usize);
                cell_ids = ids;
                n_cells = n;
            }
        });

        // Outer tiling over the origin cell (the "additional loop" for
        // cells larger than the block).
        let origin_tiles = m_origin.div_ceil(bd).max(1);
        for ot in 0..origin_tiles {
            let o_base = origin_range.start as usize + ot * bd;
            let o_count = (m_origin - ot * bd).min(bd);

            // Stage the origin tile: one point per thread. The kernel is
            // "oblivious to the number of data points per cell" (paper,
            // §IV-B): every thread executes the load sequence in lockstep
            // (cost), but only in-range lanes store real points
            // (function).
            ctx.phase(|t| {
                let k = t.tid as usize;
                t.read_global::<u32>(1);
                t.read_global::<Point2>(1);
                t.access_shared::<Point2>(1);
                if k < o_count {
                    // lookupOffset <- G[cellToProc].min + threadId.x;
                    // dataID <- A[lookupOffset]; copy D[dataID] to shared.
                    let id = self.lookup[o_base + k];
                    s_origin_x[k] = self.points.xs[id as usize];
                    s_origin_y[k] = self.points.ys[id as usize];
                    s_origin_ids[k] = id;
                }
            });

            // Loop over the comparison cells.
            for &comp_cell in &cell_ids[..n_cells] {
                let comp_range = self.grid.range_of(comp_cell);
                let m_comp = comp_range.len();
                if m_comp == 0 {
                    continue;
                }
                let comp_tiles = m_comp.div_ceil(bd);
                for ct in 0..comp_tiles {
                    let c_base = comp_range.start as usize + ct * bd;
                    let c_count = (m_comp - ct * bd).min(bd);

                    // Stage the comparison tile; synchronize(). All lanes
                    // execute the loads in lockstep (cost).
                    ctx.phase(|t| {
                        let k = t.tid as usize;
                        t.read_global::<u32>(1);
                        t.read_global::<Point2>(1);
                        t.access_shared::<Point2>(1);
                        if k < c_count {
                            let id = self.lookup[c_base + k];
                            s_comp_x[k] = self.points.xs[id as usize];
                            s_comp_y[k] = self.points.ys[id as usize];
                        }
                    });

                    // Compare: thread k owns origin point k (if staged)
                    // and scans the staged comparison tile from shared
                    // memory, chunk-wise over SoA lanes with the x-axis
                    // filter hoisted (bit-identical hit decisions; see
                    // scan_ids for the argument). Lanes without an
                    // origin point idle, but the warp-max accounting still
                    // charges their warp the active lanes' cost — and the
                    // block keeps paying the staging loads and barriers
                    // above, which is what sinks this kernel on sparse
                    // cells (Table II).
                    ctx.phase(|t| {
                        let k = t.tid as usize;
                        if k >= o_count {
                            return;
                        }
                        let (px, py) = (s_origin_x[k], s_origin_y[k]);
                        let pid = s_origin_ids[k];
                        t.access_shared::<Point2>(1);
                        t.access_shared::<Point2>(c_count as u64);
                        // Per candidate: 5 DP ops for the distance plus
                        // ~7 ops of loop index, compare and branch
                        // arithmetic (the DP dependency chain pipelines
                        // poorly inside a warp).
                        t.charge_flops(12 * c_count as u64);
                        let mut j = 0;
                        while j < c_count {
                            let c = (c_count - j).min(SCAN_LANES);
                            let mut d2 = [0.0f64; SCAN_LANES];
                            let mut all_far = true;
                            for l in 0..c {
                                let dx = px - s_comp_x[j + l];
                                d2[l] = dx * dx;
                                all_far &= d2[l] > eps_sq;
                            }
                            if !all_far {
                                for l in 0..c {
                                    let dy = py - s_comp_y[j + l];
                                    d2[l] += dy * dy;
                                }
                                let mut h = 0u64;
                                for (l, &d) in d2.iter().take(c).enumerate() {
                                    if d <= eps_sq {
                                        stage.push((pid, self.lookup[c_base + j + l]));
                                        h += 1;
                                    }
                                }
                                if h > 0 {
                                    let mut charge = ChargeBatch {
                                        atomics: h,
                                        ..ChargeBatch::default()
                                    };
                                    charge.write_global::<NeighborPair>(h);
                                    t.charge_batch(charge);
                                }
                            }
                            j += c;
                        }
                    });
                }
            }
        }
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
    use spatial::{GridIndex, PointStore};

    fn run_kernel(
        data: &[Point2],
        eps: f64,
        block_dim: u32,
    ) -> (Vec<(u32, u32)>, gpu_sim::KernelReport) {
        let device = Device::k20c();
        let grid = GridIndex::build(data, eps);
        let store = PointStore::from_points(data);
        // Size via the estimation kernel (exact at stride 1), as
        // production does — not O(n²) scratch.
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let result = DeviceAppendBuffer::new(&device, cap).unwrap();
        let kernel = GpuCalcShared {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
            geom: grid.geometry(),
            eps,
            schedule: grid.non_empty_cells(),
            result: &result,
        };
        let report = device
            .launch(kernel.launch_config(block_dim), &kernel)
            .unwrap();
        let mut result = result;
        assert!(!result.overflowed());
        let mut pairs = result.as_filled_slice().to_vec();
        pairs.sort_unstable();
        (pairs, report)
    }

    #[test]
    fn matches_brute_force() {
        let data = mixed_points(300);
        for eps in [0.3, 1.0, 2.5] {
            let (pairs, _) = run_kernel(&data, eps, 64);
            assert_eq!(pairs, brute_force_pairs(&data, eps), "eps = {eps}");
        }
    }

    #[test]
    fn matches_global_kernel_results() {
        let data = mixed_points(400);
        let eps = 0.7;
        let (shared_pairs, _) = run_kernel(&data, eps, 64);
        assert_eq!(shared_pairs, brute_force_pairs(&data, eps));
    }

    #[test]
    fn cells_larger_than_block_are_tiled() {
        // 500 coincident-ish points in one cell, block of 64: the origin
        // and comparison tiling loops must cover everything.
        let data: Vec<Point2> = (0..300)
            .map(|i| Point2::new(0.001 * (i % 17) as f64, 0.001 * (i % 13) as f64))
            .collect();
        let (pairs, report) = run_kernel(&data, 1.0, 64);
        assert_eq!(pairs.len(), 300 * 300);
        assert_eq!(
            report.config.grid_dim, 1,
            "single non-empty cell = single block"
        );
    }

    #[test]
    fn block_overflowing_its_append_stage_loses_no_pair() {
        let data = dense_cell_points();
        let eps = 0.3;
        let device = Device::k20c();
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        check_staged_appends(&device, &brute_force_pairs(&data, eps), |result| {
            let kernel = GpuCalcShared {
                points: store.view(),
                grid: grid.cells_view(),
                lookup: grid.lookup(),
                geom: grid.geometry(),
                eps,
                schedule: grid.non_empty_cells(),
                result,
            };
            device.launch(kernel.launch_config(64), &kernel).unwrap();
        });
    }

    #[test]
    fn thread_count_is_blocks_times_block_dim() {
        let data = mixed_points(500);
        let eps = 0.4;
        let grid = GridIndex::build(&data, eps);
        let (_, report) = run_kernel(&data, eps, 128);
        assert_eq!(
            report.threads_launched,
            grid.non_empty_cells().len() as u64 * 128,
            "n_GPU = non-empty cells x block size (Table II)"
        );
    }

    #[test]
    fn schedule_subset_processes_only_those_cells() {
        let data = mixed_points(200);
        let eps = 0.9;
        let device = Device::k20c();
        let grid = GridIndex::build(&data, eps);
        let store = PointStore::from_points(&data);
        let cap = estimate_result_capacity(&device, &store, &grid, eps);
        let full_schedule = grid.non_empty_cells();
        // Split the schedule in two and verify the union matches.
        let mid = full_schedule.len() / 2;
        let mut all_pairs = Vec::new();
        for part in [&full_schedule[..mid], &full_schedule[mid..]] {
            let result = DeviceAppendBuffer::new(&device, cap).unwrap();
            let kernel = GpuCalcShared {
                points: store.view(),
                grid: grid.cells_view(),
                lookup: grid.lookup(),
                geom: grid.geometry(),
                eps,
                schedule: part,
                result: &result,
            };
            if !part.is_empty() {
                device.launch(kernel.launch_config(64), &kernel).unwrap();
            }
            let mut result = result;
            all_pairs.extend_from_slice(result.as_filled_slice());
        }
        all_pairs.sort_unstable();
        assert_eq!(all_pairs, brute_force_pairs(&data, eps));
    }

    #[test]
    fn shared_memory_request_scales_with_block() {
        let data = mixed_points(50);
        let grid = GridIndex::build(&data, 1.0);
        let store = PointStore::from_points(&data);
        let device = Device::k20c();
        let result = DeviceAppendBuffer::new(&device, 10_000).unwrap();
        let kernel = GpuCalcShared {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
            geom: grid.geometry(),
            eps: 1.0,
            schedule: grid.non_empty_cells(),
            result: &result,
        };
        let cfg = kernel.launch_config(256);
        assert_eq!(cfg.shared_mem_bytes, 256 * (2 * 16 + 4));
        assert!(cfg.validate(device.props()).is_ok());
    }
}
