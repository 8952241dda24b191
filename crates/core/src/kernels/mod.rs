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
//! appended to a [`DeviceAppendBuffer`] through the atomic cursor — the
//! `atomic: gpuResultSet ∪ result` of the pseudo-code. Append overflow is
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
use spatial::PointsView;

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

/// The shared ε-neighborhood inner loop: scan the candidates `A[k]` for
/// `k ∈ [range.start, range.end)` and invoke `on_hits` once per chunk
/// with the candidates within the closed ε-ball around `(qx, qy)`, in
/// `k` order (so callers can append and account hits in bulk).
///
/// The scan runs chunk-wise over [`SCAN_LANES`]-wide lanes of the SoA
/// coordinate arrays:
///
/// * the x-axis distance is computed first for the whole chunk and the
///   y pass is skipped when every lane already has `fl(dx²) > ε²` — safe
///   because `fl(fl(dx²) + fl(dy²)) ≥ fl(dx²)` (f64 rounding is monotone
///   and `fl(dy²) ≥ 0`), so no such lane can be a hit;
/// * lane arithmetic (`d2 = dx·dx` then `d2 += dy·dy`) performs exactly
///   the mul-mul-add rounding sequence of `Point2::distance_sq`, so hit
///   decisions are bit-identical to the scalar loop;
/// * `gpu_sim` accounting is charged once per chunk via [`ChargeBatch`]
///   (per candidate: the `A[k]` id read, the point read, 5 distance
///   flops), which the cost model guarantees is bitwise identical to
///   per-element charging.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_cell_range(
    t: &mut ThreadCtx,
    points: PointsView<'_>,
    lookup: &[u32],
    range: CellRange,
    qx: f64,
    qy: f64,
    eps_sq: f64,
    mut on_hits: impl FnMut(&mut ThreadCtx, &[u32]),
) {
    let mut k = range.start as usize;
    let end = range.end as usize;
    while k < end {
        let c = (end - k).min(SCAN_LANES);
        let mut batch = ChargeBatch {
            flops: 5 * c as u64,
            ..ChargeBatch::default()
        };
        batch.read_global::<u32>(c as u64);
        batch.read_global::<spatial::Point2>(c as u64);
        t.charge_batch(batch);

        let ids = &lookup[k..k + c];
        let mut d2 = [0.0f64; SCAN_LANES];
        let mut all_far = true;
        for (j, &id) in ids.iter().enumerate() {
            let dx = qx - points.xs[id as usize];
            d2[j] = dx * dx;
            all_far &= d2[j] > eps_sq;
        }
        if !all_far {
            for (j, &id) in ids.iter().enumerate() {
                let dy = qy - points.ys[id as usize];
                d2[j] += dy * dy;
            }
            let mut hits = [0u32; SCAN_LANES];
            let mut h = 0;
            for (j, &id) in ids.iter().enumerate() {
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
