//! The GPU kernels of Section IV, implemented against the `gpu-sim`
//! SIMT device.
//!
//! * [`GpuCalcGlobal`] — Algorithm 2: one thread per point, global memory
//!   only, with the strided batch assignment of Section VI baked into the
//!   gid→point mapping (Figure 2).
//! * [`GpuCalcShared`] — Algorithm 3: one block per non-empty grid cell
//!   (driven by the schedule `S`), origin/comparison cells paged through
//!   shared memory in block-size tiles with `__syncthreads()` barriers.
//! * [`NeighborCountKernel`] — the result-size estimation kernel of
//!   Section VI: counts (never materializes) the neighbors of a uniform
//!   sample of points.
//!
//! All kernels emit key/value pairs `(k_j, v_j)` where `v_j ∈ N_ε(k_j)`,
//! appended to a
//! [`DeviceAppendBuffer`](gpu_sim::memory::DeviceAppendBuffer) through
//! the atomic cursor — the `atomic: gpuResultSet ∪ result` of the
//! pseudo-code. Append overflow is
//! recorded in the buffer rather than corrupting memory; the batching
//! scheme's job is to make it never happen.

mod count;
mod global;
mod gridnd;
mod shared;
mod tree;

pub use count::NeighborCountKernel;
pub use global::GpuCalcGlobal;
pub use gridnd::{GpuCalcGridNd, GridNdCountKernel};
pub use shared::GpuCalcShared;
pub use tree::{GpuCalcTree, TreeCountKernel};

use gpu_sim::kernel::{ChargeBatch, ThreadCtx};
use spatial::grid::{CellRange, CellsView};
use spatial::PointsViewN;

/// A result-set item: `key` is a point id, `value` a point id within ε of
/// it. Layout matches the 8-byte pairs the device sort operates on.
pub type NeighborPair = (u32, u32);

/// Chunk width of the ε-neighborhood inner loop. Eight f64 lanes are one
/// cache line per coordinate array and small enough for the autovectorizer
/// to keep the whole distance computation in SIMD registers.
pub(crate) const SCAN_LANES: usize = 8;

/// Resolve and load cell `h`'s `[start, end)` range from `G`, charging
/// the modeled cost: the `CellRange` read itself, plus — for the sparse
/// layout only — the binary-search key probes that locate it.
#[inline]
pub(crate) fn load_cell_range(t: &mut ThreadCtx, grid: &CellsView<'_>, h: u32) -> CellRange {
    let probes = grid.probe_reads();
    if probes > 0 {
        t.read_global::<u32>(probes);
    }
    t.read_global::<CellRange>(1);
    grid.range_of(h)
}

/// The ε-neighborhood inner loop of the global-memory grid, count and
/// tree kernels in every dimension: scan the candidate ids `ids` and
/// invoke `on_hits` once per chunk with the candidates within the closed
/// ε-ball around `q`, in `ids` order (so callers can append and account
/// hits in bulk).
///
/// The scan runs chunk-wise over [`SCAN_LANES`]-wide lanes of the SoA
/// coordinate arrays:
///
/// * dimension 0 is computed first for the whole chunk and the remaining
///   dimensions are skipped when every lane already has `fl(dx₀²) > ε²` —
///   safe because f64 rounding is monotone and each added square is
///   non-negative, so no such lane can be a hit;
/// * lane arithmetic accumulates squares in dimension order, the exact
///   rounding sequence of [`spatial::PointN::distance_sq`] (at `D = 2`
///   the mul-mul-add chain of `Point2::distance_sq`), so hit decisions
///   are bit-identical to the scalar loop;
/// * `gpu_sim` accounting is charged once per chunk via [`ChargeBatch`]
///   (per candidate: the id read, `D` coordinate reads, `3D − 1`
///   distance flops — 5 at `D = 2`), which the cost model guarantees is
///   bitwise identical to per-element charging.
#[inline]
pub(crate) fn scan_ids<const D: usize>(
    t: &mut ThreadCtx,
    points: PointsViewN<'_, D>,
    ids: &[u32],
    q: &[f64; D],
    eps_sq: f64,
    mut on_hits: impl FnMut(&mut ThreadCtx, &[u32]),
) {
    let mut k = 0usize;
    let end = ids.len();
    while k < end {
        let c = (end - k).min(SCAN_LANES);
        let mut batch = ChargeBatch {
            flops: (3 * D as u64 - 1) * c as u64,
            ..ChargeBatch::default()
        };
        batch.read_global::<u32>(c as u64);
        batch.read_global::<f64>((D * c) as u64);
        t.charge_batch(batch);

        let chunk = &ids[k..k + c];
        let mut d2 = [0.0f64; SCAN_LANES];
        let mut all_far = true;
        for (j, &id) in chunk.iter().enumerate() {
            let dx = q[0] - points.coords[0][id as usize];
            d2[j] = dx * dx;
            all_far &= d2[j] > eps_sq;
        }
        if !all_far {
            // Axis-major lane loop mirroring the SoA layout; `q` and
            // `coords` are indexed by the same axis on purpose.
            #[allow(clippy::needless_range_loop)]
            for axis in 1..D {
                for (j, &id) in chunk.iter().enumerate() {
                    let dx = q[axis] - points.coords[axis][id as usize];
                    d2[j] += dx * dx;
                }
            }
            let mut hits = [0u32; SCAN_LANES];
            let mut h = 0;
            for (j, &id) in chunk.iter().enumerate() {
                if d2[j] <= eps_sq {
                    hits[h] = id;
                    h += 1;
                }
            }
            if h > 0 {
                on_hits(t, &hits[..h]);
            }
        }
        k += c;
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::{NeighborCountKernel, NeighborPair};
    use gpu_sim::memory::{DeviceAppendBuffer, DeviceCounter};
    use gpu_sim::Device;
    use spatial::{GridIndex, Point2, PointStore};

    /// Coincident points at the head of [`dense_cell_points`].
    pub const DENSE: usize = 120;

    /// [`DENSE`] coincident points, then a scatter of [`mixed_points`].
    /// At ε = 0.3 the coincident points share one cell and the first
    /// block of a thread-per-point launch, so that one block emits
    /// `DENSE²` = 14400 pairs — more than the K20c's 6144-pair append
    /// stage holds.
    pub fn dense_cell_points() -> Vec<Point2> {
        let mut data = vec![Point2::new(0.5, 0.5); DENSE];
        data.extend(mixed_points(200));
        data
    }

    /// Launch a calc kernel (via `launch`) into an exactly sized result
    /// buffer and into an undersized one. Block staging must lose no
    /// pair: the first buffer holds exactly `exact`, and the second
    /// reports overflow with `len() + rejected()` equal to `exact.len()`
    /// — the `|R|` the overflow replan sizes its retry from.
    pub fn check_staged_appends(
        device: &Device,
        exact: &[NeighborPair],
        launch: impl Fn(&DeviceAppendBuffer<NeighborPair>),
    ) {
        let stage = device.props().shared_mem_per_block / std::mem::size_of::<NeighborPair>();
        assert!(DENSE * DENSE > stage, "one block must overflow its stage");

        let mut fits = DeviceAppendBuffer::new(device, exact.len()).unwrap();
        launch(&fits);
        assert!(!fits.overflowed());
        let mut pairs = fits.as_filled_slice().to_vec();
        pairs.sort_unstable();
        assert_eq!(pairs, exact);

        let short = DeviceAppendBuffer::new(device, exact.len() / 3).unwrap();
        launch(&short);
        assert!(short.overflowed());
        assert_eq!(short.len(), short.capacity());
        assert_eq!(short.len() + short.rejected(), exact.len());
    }

    /// Size a result buffer the way the production pipeline does: run the
    /// Section VI estimation kernel (exact at stride 1) and add the same
    /// slack the tests always used — instead of O(n²) scratch.
    pub fn estimate_result_capacity(
        device: &Device,
        store: &PointStore,
        grid: &GridIndex,
        eps: f64,
    ) -> usize {
        let counter = DeviceCounter::new(device).unwrap();
        let kernel = NeighborCountKernel {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
            geom: grid.geometry(),
            eps,
            stride: 1,
            counter: &counter,
        };
        device.launch(kernel.launch_config(256), &kernel).unwrap();
        counter.get() as usize + 64
    }

    /// A small mixed-density point set exercising multi-cell grids.
    pub fn mixed_points(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                if i % 3 == 0 {
                    // Clumped third.
                    Point2::new(
                        2.0 + (t * 0.618).fract() * 0.5,
                        2.0 + (t * 0.414).fract() * 0.5,
                    )
                } else {
                    // Spread remainder.
                    Point2::new((t * 0.777).fract() * 10.0, (t * 0.333).fract() * 10.0)
                }
            })
            .collect()
    }

    /// All (key, value) neighbor pairs by brute force, sorted.
    pub fn brute_force_pairs(data: &[Point2], eps: f64) -> Vec<(u32, u32)> {
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
}
