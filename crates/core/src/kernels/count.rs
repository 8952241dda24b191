//! The result-size estimation kernel (Section VI of the paper).
//!
//! To size the batch buffers, the batching scheme needs an estimate `a_b`
//! of the total result-set size. This kernel computes the *exact* neighbor
//! count `e_b` of a uniformly distributed sample of `f·|D|` points
//! (`f = 0.01` by default) — uniform because the database is spatially
//! sorted, so a fixed stride is a uniform spatial sample. It returns only
//! a single counter ("does not return a result set R, which requires
//! significant overhead"), so it runs in negligible time; the estimate is
//! then `a_b = e_b / f`.

use super::{load_cell_range, scan_ids};
use gpu_sim::error::DeviceError;
use gpu_sim::kernel::{BlockCtx, BlockKernel};
use gpu_sim::launch::LaunchConfig;
use gpu_sim::memory::DeviceCounter;
use spatial::grid::CellsView;
use spatial::{GridGeometry, PointsView, PointsViewN};

/// Counts neighbors-within-ε over a strided sample of the database.
pub struct NeighborCountKernel<'a> {
    /// `D` (device-resident, spatially sorted), as the SoA coordinate view.
    pub points: PointsView<'a>,
    /// `G`, in either layout.
    pub grid: CellsView<'a>,
    /// `A`.
    pub lookup: &'a [u32],
    /// Grid geometry.
    pub geom: GridGeometry,
    /// Search radius.
    pub eps: f64,
    /// Sample stride: thread `g` counts the neighbors of point
    /// `g · stride`. A stride of `1/f` samples the fraction `f`.
    pub stride: usize,
    /// The device counter accumulating `e_b`.
    pub counter: &'a DeviceCounter,
}

impl NeighborCountKernel<'_> {
    /// Number of sample points for a database of `n` at `stride`.
    pub fn sample_size(n: usize, stride: usize) -> usize {
        n.div_ceil(stride.max(1))
    }

    /// Launch configuration covering the sample at `block_dim`.
    pub fn launch_config(&self, block_dim: u32) -> LaunchConfig {
        LaunchConfig::for_elements(
            Self::sample_size(self.points.len(), self.stride).max(1),
            block_dim,
        )
    }
}

impl BlockKernel for NeighborCountKernel<'_> {
    fn run_block(&self, ctx: &mut BlockCtx) -> Result<(), DeviceError> {
        let n_points = self.points.len();
        let stride = self.stride.max(1);
        let samples = Self::sample_size(n_points, stride) as u64;
        let eps_sq = self.eps * self.eps;
        let points = PointsViewN::from(self.points);

        ctx.for_each_thread(|t| {
            if t.gid >= samples {
                return;
            }
            let pi = (t.gid as usize) * stride;
            debug_assert!(pi < n_points);

            t.read_global::<spatial::Point2>(1);
            let (qx, qy) = (self.points.xs[pi], self.points.ys[pi]);
            t.charge_flops(10);
            let (cells, n_cells) = self
                .geom
                .neighbor_cells(self.geom.cell_of(&self.points.get(pi)));

            let mut local = 0u64;
            for &cell_id in &cells[..n_cells] {
                let range = load_cell_range(t, &self.grid, cell_id);
                scan_ids(
                    t,
                    points,
                    &self.lookup[range.start as usize..range.end as usize],
                    &[qx, qy],
                    eps_sq,
                    |_, hits| local += hits.len() as u64,
                );
            }
            // One atomic per thread, not per hit.
            t.charge_atomic();
            self.counter.add(local);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::mixed_points;
    use super::*;
    use gpu_sim::Device;
    use spatial::distance::brute_force_count;
    use spatial::{GridIndex, Point2, PointStore};

    fn count(data: &[Point2], eps: f64, stride: usize) -> (u64, gpu_sim::KernelReport) {
        let device = Device::k20c();
        let grid = GridIndex::build(data, eps);
        let store = PointStore::from_points(data);
        let counter = DeviceCounter::new(&device).unwrap();
        let kernel = NeighborCountKernel {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
            geom: grid.geometry(),
            eps,
            stride,
            counter: &counter,
        };
        let report = device.launch(kernel.launch_config(256), &kernel).unwrap();
        (counter.get(), report)
    }

    #[test]
    fn stride_one_counts_exactly() {
        let data = mixed_points(250);
        let eps = 0.8;
        let expected: usize = data.iter().map(|q| brute_force_count(&data, q, eps)).sum();
        let (got, _) = count(&data, eps, 1);
        assert_eq!(got as usize, expected);
    }

    #[test]
    fn strided_count_matches_sampled_brute_force() {
        let data = mixed_points(400);
        let eps = 0.5;
        let stride = 7;
        let expected: usize = data
            .iter()
            .step_by(stride)
            .map(|q| brute_force_count(&data, q, eps))
            .sum();
        let (got, _) = count(&data, eps, stride);
        assert_eq!(got as usize, expected);
    }

    #[test]
    fn estimate_scales_to_total() {
        // The 1-in-100 sample times 100 should land near the true total
        // for a reasonably mixed dataset.
        let data = mixed_points(5000);
        let eps = 0.5;
        let (sampled, _) = count(&data, eps, 100);
        let (exact, _) = count(&data, eps, 1);
        let estimate = sampled * 100;
        let ratio = estimate as f64 / exact as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "estimate {estimate} vs exact {exact} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn atomics_are_one_per_sample_thread() {
        let data = mixed_points(512);
        let (_, report) = count(&data, 0.5, 2);
        assert_eq!(report.counters.atomics, 256);
    }

    #[test]
    fn sample_size_arithmetic() {
        assert_eq!(NeighborCountKernel::sample_size(1000, 100), 10);
        assert_eq!(NeighborCountKernel::sample_size(1001, 100), 11);
        assert_eq!(NeighborCountKernel::sample_size(5, 100), 1);
        assert_eq!(NeighborCountKernel::sample_size(100, 1), 100);
    }

    #[test]
    fn count_kernel_is_much_cheaper_than_listing() {
        // The estimation kernel writes no result set: its global write
        // traffic must be zero.
        let data = mixed_points(1000);
        let (_, report) = count(&data, 1.0, 100);
        assert_eq!(report.counters.global_write_bytes, 0);
    }
}
