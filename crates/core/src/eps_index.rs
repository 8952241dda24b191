//! The point-type seam of the hybrid pipeline: one [`EpsPoint`] impl per
//! point type, so [`crate::hybrid::HybridDbscan::build_table`] runs the
//! same preamble, batch plan, stream workers, retry/replan loop, schedule
//! and recorder for 2-D and `D`-dimensional data.
//!
//! An impl answers only what differs by dimension: the coordinates (which
//! the spatial pre-sort keys and the backend selector bins), and the
//! ε-grid — its host build, its H2D upload, and its count and calc kernel
//! launches. The tree backend ([`PackedKdTree`] with
//! [`crate::kernels::GpuCalcTree`]) is already dimension-generic and lives
//! in the shared pipeline.
//!
//! * [`Point2`] keeps the paper's grid: dense or sparse [`GridIndex`],
//!   [`GpuCalcGlobal`]/[`GpuCalcShared`]/[`NeighborCountKernel`], and the
//!   non-empty-cell schedule the shared kernel is driven by.
//! * [`PointN<D>`] uses the sparse [`GridIndexN`] with its `3^D` stencil
//!   ([`GpuCalcGridNd`]/[`GridNdCountKernel`]); it has no cell schedule,
//!   so the shared kernel is rejected up front.

use crate::kernels::{
    GpuCalcGlobal, GpuCalcGridNd, GpuCalcShared, GridNdCountKernel, NeighborCountKernel,
    NeighborPair,
};
use gpu_sim::device::Device;
use gpu_sim::error::DeviceError;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceBuffer, DeviceCounter};
use gpu_sim::time::SimDuration;
use gpu_sim::KernelReport;
use spatial::grid::{CellRange, CellsView};
use spatial::{
    CellsViewN, GridGeometryN, GridIndex, GridIndexN, Point2, PointN, PointStore, PointStoreN,
    PointsViewN,
};

/// Which points one grid calc launch covers.
#[derive(Clone, Copy)]
pub enum GridBatch<'a> {
    /// The strided batch `batch` of `n_batches` (Section VI).
    Strided { batch: usize, n_batches: usize },
    /// A packing of non-empty cells for the shared kernel.
    Cells(&'a [u32]),
}

/// A point type the hybrid pipeline can build a neighbor table over.
/// Sealed: the module is private, so only the impls below exist.
pub trait EpsPoint<const D: usize>: Copy + Send + Sync {
    /// Whether the grid defines the non-empty-cell schedule that
    /// [`GpuCalcShared`] is driven by.
    const CELL_SCHEDULE: bool;
    /// SoA coordinate mirror the kernels scan (host-side layout only).
    type Store: Send + Sync;
    /// The host-side ε-grid, before upload.
    type Grid: Send;
    /// The uploaded ε-grid the kernels traverse.
    type DeviceGrid: Send + Sync;

    fn coords(&self) -> [f64; D];
    fn store(sorted: &[Self]) -> Self::Store;
    fn view(store: &Self::Store) -> PointsViewN<'_, D>;
    fn build_grid(sorted: &[Self], eps: f64) -> Self::Grid;
    /// Upload `G` and `A`, returning the summed H2D transfer time.
    fn upload_grid(
        device: &Device,
        grid: Self::Grid,
    ) -> Result<(Self::DeviceGrid, SimDuration), DeviceError>;
    /// Launch the result-size estimation kernel over the grid.
    #[allow(clippy::too_many_arguments)]
    fn launch_count(
        device: &Device,
        block_dim: u32,
        store: &Self::Store,
        grid: &Self::DeviceGrid,
        eps: f64,
        stride: usize,
        counter: &DeviceCounter,
    ) -> Result<KernelReport, DeviceError>;
    /// Launch one batch of the grid calc kernel.
    #[allow(clippy::too_many_arguments)]
    fn launch_calc(
        device: &Device,
        block_dim: u32,
        store: &Self::Store,
        grid: &Self::DeviceGrid,
        eps: f64,
        batch: GridBatch<'_>,
        result: &DeviceAppendBuffer<NeighborPair>,
    ) -> Result<KernelReport, DeviceError>;
    /// Pack the non-empty cells into shared-kernel batches; only called
    /// when [`Self::CELL_SCHEDULE`] holds.
    fn pack_cells(grid: &Self::DeviceGrid, capacity: usize) -> (Vec<Vec<u32>>, usize);
}

/// Device-resident `G`, in either layout. Dense is the single flat range
/// array (one H2D transfer, exactly as before the sparse layout existed);
/// sparse uploads the non-empty keys and their ranges as two buffers —
/// O(|D|) device memory instead of O(nx·ny).
pub(crate) enum GridBuffers {
    Dense {
        ranges: DeviceBuffer<CellRange>,
    },
    Sparse {
        keys: DeviceBuffer<u32>,
        ranges: DeviceBuffer<CellRange>,
    },
}

impl GridBuffers {
    /// Upload `G` to the device, returning the summed H2D transfer time.
    pub(crate) fn upload(
        device: &Device,
        grid: &GridIndex,
    ) -> Result<(Self, SimDuration), DeviceError> {
        match grid.cells_view() {
            CellsView::Dense(ranges) => {
                let (buf, t) = DeviceBuffer::from_host(device, ranges, false)?;
                Ok((GridBuffers::Dense { ranges: buf }, t))
            }
            CellsView::Sparse { keys, ranges } => {
                let (k_buf, t_k) = DeviceBuffer::from_host(device, keys, false)?;
                let (r_buf, t_r) = DeviceBuffer::from_host(device, ranges, false)?;
                Ok((
                    GridBuffers::Sparse {
                        keys: k_buf,
                        ranges: r_buf,
                    },
                    t_k + t_r,
                ))
            }
        }
    }

    /// The device-resident `G` as the layout-agnostic kernel view.
    pub(crate) fn view(&self) -> CellsView<'_> {
        match self {
            GridBuffers::Dense { ranges } => CellsView::Dense(ranges.as_slice()),
            GridBuffers::Sparse { keys, ranges } => CellsView::Sparse {
                keys: keys.as_slice(),
                ranges: ranges.as_slice(),
            },
        }
    }
}

/// The uploaded 2-D grid: `G`, `A`, and the host index that defines the
/// geometry and the shared kernel's cell schedule.
pub struct Grid2Buffers {
    grid: GridIndex,
    g_buf: GridBuffers,
    a_buf: DeviceBuffer<u32>,
}

impl EpsPoint<2> for Point2 {
    const CELL_SCHEDULE: bool = true;
    type Store = PointStore;
    type Grid = GridIndex;
    type DeviceGrid = Grid2Buffers;

    fn coords(&self) -> [f64; 2] {
        [self.x, self.y]
    }

    fn store(sorted: &[Self]) -> PointStore {
        PointStore::from_points(sorted)
    }

    fn view(store: &PointStore) -> PointsViewN<'_, 2> {
        PointsViewN::from(store.view())
    }

    fn build_grid(sorted: &[Self], eps: f64) -> GridIndex {
        GridIndex::build(sorted, eps)
    }

    fn upload_grid(
        device: &Device,
        grid: GridIndex,
    ) -> Result<(Grid2Buffers, SimDuration), DeviceError> {
        let (g_buf, up_g) = GridBuffers::upload(device, &grid)?;
        let (a_buf, up_a) = DeviceBuffer::from_host(device, grid.lookup(), false)?;
        Ok((Grid2Buffers { grid, g_buf, a_buf }, up_g + up_a))
    }

    fn launch_count(
        device: &Device,
        block_dim: u32,
        store: &PointStore,
        grid: &Grid2Buffers,
        eps: f64,
        stride: usize,
        counter: &DeviceCounter,
    ) -> Result<KernelReport, DeviceError> {
        let kernel = NeighborCountKernel {
            points: store.view(),
            grid: grid.g_buf.view(),
            lookup: grid.a_buf.as_slice(),
            geom: grid.grid.geometry(),
            eps,
            stride,
            counter,
        };
        device.launch(kernel.launch_config(block_dim), &kernel)
    }

    fn launch_calc(
        device: &Device,
        block_dim: u32,
        store: &PointStore,
        grid: &Grid2Buffers,
        eps: f64,
        batch: GridBatch<'_>,
        result: &DeviceAppendBuffer<NeighborPair>,
    ) -> Result<KernelReport, DeviceError> {
        match batch {
            GridBatch::Strided { batch, n_batches } => {
                let kernel = GpuCalcGlobal {
                    points: store.view(),
                    grid: grid.g_buf.view(),
                    lookup: grid.a_buf.as_slice(),
                    geom: grid.grid.geometry(),
                    eps,
                    batch,
                    n_batches,
                    result,
                    skip_dense_at: None,
                };
                device.launch(kernel.launch_config(block_dim), &kernel)
            }
            GridBatch::Cells(schedule) => {
                let kernel = GpuCalcShared {
                    points: store.view(),
                    grid: grid.g_buf.view(),
                    lookup: grid.a_buf.as_slice(),
                    geom: grid.grid.geometry(),
                    eps,
                    schedule,
                    result,
                };
                device.launch(kernel.launch_config(block_dim), &kernel)
            }
        }
    }

    fn pack_cells(grid: &Grid2Buffers, capacity: usize) -> (Vec<Vec<u32>>, usize) {
        pack_shared_cells(&grid.grid, capacity)
    }
}

/// The uploaded sparse `D`-dimensional grid `(keys, ranges, A)`.
pub struct GridNBuffers<const D: usize> {
    geom: GridGeometryN<D>,
    keys: DeviceBuffer<u64>,
    ranges: DeviceBuffer<CellRange>,
    lookup: DeviceBuffer<u32>,
}

impl<const D: usize> GridNBuffers<D> {
    fn cells(&self) -> CellsViewN<'_> {
        CellsViewN {
            keys: self.keys.as_slice(),
            ranges: self.ranges.as_slice(),
        }
    }
}

impl<const D: usize> EpsPoint<D> for PointN<D> {
    const CELL_SCHEDULE: bool = false;
    type Store = PointStoreN<D>;
    type Grid = GridIndexN<D>;
    type DeviceGrid = GridNBuffers<D>;

    fn coords(&self) -> [f64; D] {
        self.coords
    }

    fn store(sorted: &[Self]) -> PointStoreN<D> {
        PointStoreN::from_points(sorted)
    }

    fn view(store: &PointStoreN<D>) -> PointsViewN<'_, D> {
        store.view()
    }

    fn build_grid(sorted: &[Self], eps: f64) -> GridIndexN<D> {
        GridIndexN::build(sorted, eps)
    }

    fn upload_grid(
        device: &Device,
        grid: GridIndexN<D>,
    ) -> Result<(GridNBuffers<D>, SimDuration), DeviceError> {
        let cells = grid.cells();
        let (keys, t0) = DeviceBuffer::from_host(device, cells.keys, false)?;
        let (ranges, t1) = DeviceBuffer::from_host(device, cells.ranges, false)?;
        let (lookup, t2) = DeviceBuffer::from_host(device, grid.lookup(), false)?;
        let bufs = GridNBuffers {
            geom: *grid.geometry(),
            keys,
            ranges,
            lookup,
        };
        Ok((bufs, t0 + t1 + t2))
    }

    fn launch_count(
        device: &Device,
        block_dim: u32,
        store: &PointStoreN<D>,
        grid: &GridNBuffers<D>,
        eps: f64,
        stride: usize,
        counter: &DeviceCounter,
    ) -> Result<KernelReport, DeviceError> {
        let kernel = GridNdCountKernel {
            points: store.view(),
            cells: grid.cells(),
            lookup: grid.lookup.as_slice(),
            geom: grid.geom,
            eps,
            stride,
            counter,
        };
        device.launch(kernel.launch_config(block_dim), &kernel)
    }

    fn launch_calc(
        device: &Device,
        block_dim: u32,
        store: &PointStoreN<D>,
        grid: &GridNBuffers<D>,
        eps: f64,
        batch: GridBatch<'_>,
        result: &DeviceAppendBuffer<NeighborPair>,
    ) -> Result<KernelReport, DeviceError> {
        let GridBatch::Strided { batch, n_batches } = batch else {
            unreachable!("the N-D grid has no cell schedule")
        };
        let kernel = GpuCalcGridNd {
            points: store.view(),
            cells: grid.cells(),
            lookup: grid.lookup.as_slice(),
            geom: grid.geom,
            eps,
            batch,
            n_batches,
            result,
        };
        device.launch(kernel.launch_config(block_dim), &kernel)
    }

    fn pack_cells(_: &GridNBuffers<D>, _: usize) -> (Vec<Vec<u32>>, usize) {
        unreachable!("the N-D grid has no cell schedule")
    }
}

/// Pack the non-empty cells of `grid` into batches for the shared kernel.
///
/// The paper's strided point assignment does not apply to a block-per-cell
/// kernel: one dense cell can emit more pairs than a whole batch budget.
/// Instead we bound each cell's output conservatively by
/// `m_h × Σ_{h' ∈ adj(h)} m_{h'}` (every pair a cell's blocks can emit is
/// counted) and first-fit cells, in schedule order, into batches whose
/// summed bound stays within `capacity`. Overflow is therefore impossible
/// by construction. Returns the batches and the capacity actually needed
/// (which exceeds `capacity` only when a single cell's bound does).
fn pack_shared_cells(grid: &GridIndex, capacity: usize) -> (Vec<Vec<u32>>, usize) {
    let cells = grid.cells_view();
    let geom = grid.geometry();
    let mut required = capacity.max(1);
    let mut bounds = Vec::with_capacity(grid.non_empty_cells().len());
    for &h in grid.non_empty_cells() {
        let m = cells.range_of(h).len();
        let (adj, n_adj) = geom.neighbor_cells(h as usize);
        let neighborhood: usize = adj[..n_adj].iter().map(|&a| cells.range_of(a).len()).sum();
        let bound = m * neighborhood;
        required = required.max(bound);
        bounds.push((h, bound));
    }
    let mut batches: Vec<Vec<u32>> = Vec::new();
    let mut current: Vec<u32> = Vec::new();
    let mut load = 0usize;
    for (h, bound) in bounds {
        if load + bound > required && !current.is_empty() {
            batches.push(std::mem::take(&mut current));
            load = 0;
        }
        current.push(h);
        load += bound;
    }
    if !current.is_empty() {
        batches.push(current);
    }
    (batches, required)
}
