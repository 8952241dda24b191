//! Hybrid-DBSCAN (Algorithm 4): the end-to-end pipeline.
//!
//! ```text
//! host                         device (simulated)
//! ────────────────────────────────────────────────────────────────
//! spatial pre-sort of D
//! index construction (grid G, A or packed kd-tree)
//!            ── H2D: D, index ─────────────▶
//!                                estimation kernel → e_b
//! batch plan (Eq. 1)
//! pinned staging buffers
//! for each batch l (3 streams):
//!                                GPUCalcGlobal/Shared/Tree (strided)
//!                                thrust sort_by_key on R_l
//!            ◀── D2H into pinned staging ──
//! ingest R_l values into T
//! ────────────────────────────────────────────────────────────────
//! DBSCAN(T, minpts) — possibly many times with different minpts
//! ```
//!
//! The *functional* work executes eagerly (kernels really compute the
//! pairs, the sort really sorts, the builder really assembles `T`); the
//! *device timing* is modeled, and the per-batch operation chains are
//! replayed through the stream scheduler to produce the overlapped
//! GPU-phase makespan — deterministic regardless of host load. Every op
//! in those chains is modeled, including the host-lane table ingest (a
//! bandwidth model over the staged pair count): wall-measured time must
//! never enter the schedule, or `modeled_time` would vary run to run and
//! with the rayon pool's thread count (see DESIGN.md, "Threading model &
//! determinism policy"). Only the host DBSCAN stage and the explicitly
//! named `wall_time` fields are wall-clock measurements.
//!
//! One pipeline serves every dimension: `build_table` and `run` are
//! generic over the point type — the paper's 2-D `Point2` and
//! `PointN<D>` for d ∈ {3, 4} — through the crate-private
//! `EpsPoint` seam (`eps_index`), which supplies only the pre-sort
//! and the ε-grid (build, upload, count and calc launches). Backend
//! selection, the tree backend, batching, overflow replanning, the
//! stream workers, the schedule and the recorder are shared, so 3-D and
//! 4-D builds report 3-stream makespans and emit the same spans as 2-D.
//! The shared kernel needs the 2-D grid's cell schedule and rejects d > 2.

use crate::backend::{select_backend, BackendDecision, ChosenBackend, IndexBackend};
use crate::batch::{BatchConfig, BatchPlan};
use crate::dbscan::{cluster_table, Clustering};
use crate::eps_index::{EpsPoint, GridBatch};
use crate::kernels::{GpuCalcTree, NeighborPair, TreeCountKernel};
use crate::table::{NeighborTable, NeighborTableBuilder};
use gpu_sim::device::Device;
use gpu_sim::error::DeviceError;
use gpu_sim::hostmem::PinnedBuffer;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceBuffer, DeviceCounter};
use gpu_sim::profiler::KernelProfile;
use gpu_sim::stream::{schedule_chains, OpSpec};
use gpu_sim::thrust;
use gpu_sim::time::{SimDuration, SimTime};
use gpu_sim::timeline::{Engine, Timeline};
use obs::Recorder;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use spatial::grid::CellRange;
use spatial::presort::spatial_sort_permutation_by;
use spatial::{PackedKdTree, TreeView};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which ε-neighborhood kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KernelChoice {
    /// GPUCalcGlobal (Algorithm 2) — the paper's winner, used by default.
    Global,
    /// GPUCalcShared (Algorithm 3) — evaluated in Table II.
    Shared,
}

/// Configuration of a Hybrid-DBSCAN run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    pub kernel: KernelChoice,
    /// Which ε-search index to build and traverse (grid, tree, or
    /// per-workload auto-selection). The shared kernel always uses the
    /// grid regardless of this setting. Defaults to `Grid` — the paper's
    /// structure, and bit-for-bit the pre-backend pipeline.
    pub backend: IndexBackend,
    /// Threads per block (paper: 256).
    pub block_dim: u32,
    /// Batching-scheme tunables.
    pub batch: BatchConfig,
    /// Host threads ingesting batch results into `T` (paper: the 3
    /// batching threads double as constructors).
    pub host_lanes: usize,
    /// Overflow-recovery retries (each replans `n_b` from the counted
    /// `|R|`). The published α makes retries unnecessary; this guards
    /// adversarial estimates.
    pub max_retries: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            kernel: KernelChoice::Global,
            backend: IndexBackend::Grid,
            block_dim: 256,
            batch: BatchConfig::default(),
            host_lanes: 3,
            max_retries: 4,
        }
    }
}

/// Sustained host-lane ingest throughput, pairs per second: one pass of
/// run detection over the sorted keys plus a memcpy-class copy of the
/// 8-byte pairs into the builder's per-batch segment.
const INGEST_PAIRS_PER_SEC: f64 = 400.0e6;
/// Fixed per-batch ingest overhead (builder bookkeeping, segment setup).
const INGEST_OVERHEAD_US: f64 = 5.0;

/// Modeled duration of ingesting `n` staged pairs into the table builder.
///
/// A pure function of the pair count — the determinism policy (DESIGN.md)
/// forbids wall-measured durations in the scheduled op chains, since the
/// schedule's makespan feeds [`GpuPhaseReport::modeled_time`], which must
/// be bitwise identical across runs and thread counts.
pub(crate) fn ingest_time_model(n: usize) -> SimDuration {
    SimDuration::from_micros(INGEST_OVERHEAD_US)
        + SimDuration::from_secs(n as f64 / INGEST_PAIRS_PER_SEC)
}

/// Timing and profiling of the GPU phase (neighbor-table construction).
#[derive(Debug, Clone)]
pub struct GpuPhaseReport {
    /// Modeled time of the whole table-construction phase: uploads,
    /// estimation, pinned allocation, and the overlapped batch schedule.
    /// This is the paper's "Hybrid: GPU Time" curve.
    pub modeled_time: SimDuration,
    /// Host wall-clock time actually spent (for honesty in reports).
    pub wall_time: std::time::Duration,
    /// The batch plan actually executed. If overflow retries occurred this
    /// is the *retried* plan (doubled `n_batches`), not the initial one —
    /// post-retry telemetry must describe the run that produced the
    /// results, and `plan.n_batches` always equals [`Self::n_batches`].
    pub plan: BatchPlan,
    /// Batches actually run (= `plan.n_batches`).
    pub n_batches: usize,
    /// Total result-set pairs produced (`|R|` = `|B|`).
    pub result_pairs: usize,
    /// Pairs produced by each executed batch, in batch order — the
    /// planned-vs-actual telemetry behind the batching scheme's
    /// estimation-accuracy metrics.
    pub per_batch_pairs: Vec<usize>,
    /// Aggregated kernel launches.
    pub kernel_profile: KernelProfile,
    /// Estimation-kernel sample count `e_b`.
    pub e_b: u64,
    /// Which ε-search backend ran, and why (the `Auto` policy's inputs).
    pub backend: BackendDecision,
    /// Overflow retries performed.
    pub retries: usize,
    /// Batches run by overflowed (discarded) passes across all retries.
    pub discarded_batches: usize,
    /// Pairs materialized then thrown away by overflowed passes — the
    /// true cost of a bad estimate.
    pub discarded_pairs: usize,
    /// Component breakdown of `modeled_time` (the serial preamble parts)
    /// and of the overlapped batch schedule (per-engine sums; these
    /// overlap, so they exceed `batch_schedule_time`).
    pub breakdown: GpuPhaseBreakdown,
    /// The full batch schedule (per-op placements); render with
    /// [`gpu_sim::stream::Schedule::render_gantt`] to visualize the
    /// copy/compute overlap.
    pub schedule: gpu_sim::stream::Schedule,
}

/// Where the GPU phase spends its modeled time.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct GpuPhaseBreakdown {
    pub upload_time: SimDuration,
    pub estimation_time: SimDuration,
    pub pinned_alloc_time: SimDuration,
    /// Makespan of the overlapped per-batch schedule.
    pub batch_schedule_time: SimDuration,
    /// Serial sums per operation kind (overlapped in the schedule).
    pub kernel_time: SimDuration,
    pub sort_time: SimDuration,
    pub d2h_time: SimDuration,
    pub ingest_time: SimDuration,
}

/// Timing breakdown of a full run (the curves of Figure 3). The two
/// fields are on different clocks, so the struct offers no sum: callers
/// that print one add the two themselves and label it as mixed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HybridTimings {
    /// Table construction (modeled device + overlapped host).
    pub gpu_phase: SimDuration,
    /// Host DBSCAN over the table (measured host wall time).
    pub dbscan_wall: Duration,
}

/// The output of [`HybridDbscan::run`].
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// Cluster labels in the *caller's* point order.
    pub clustering: Clustering,
    pub timings: HybridTimings,
    pub gpu: GpuPhaseReport,
}

/// A constructed neighbor table together with the permutation needed to
/// translate between caller order and table (spatially sorted) order.
pub struct TableHandle {
    /// `T`, keyed in spatially-sorted id space (device layout).
    pub table: NeighborTable,
    /// `perm[k]` = original index of sorted position `k`.
    pub perm: Vec<u32>,
    /// Visit order for DBSCAN: sorted-space ids in ascending original-id
    /// order (`visit_order[i] = sorted position of original point i`), so
    /// table-driven runs match the reference implementation's border
    /// assignments exactly.
    pub visit_order: Vec<u32>,
    pub gpu: GpuPhaseReport,
}

/// Errors from a Hybrid-DBSCAN run.
#[derive(Debug)]
pub enum HybridError {
    Device(DeviceError),
    /// The result buffers kept overflowing even after doubling `n_b`
    /// `max_retries` times.
    RetriesExhausted {
        attempts: usize,
    },
}

impl std::fmt::Display for HybridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HybridError::Device(e) => write!(f, "device error: {e}"),
            HybridError::RetriesExhausted { attempts } => {
                write!(f, "batch buffers overflowed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for HybridError {}

impl From<DeviceError> for HybridError {
    fn from(e: DeviceError) -> Self {
        HybridError::Device(e)
    }
}

/// Output of one batch pass: the filled builder, per-batch operation
/// chains for scheduling, the kernel profile, and the per-batch pair
/// counts.
type BatchPassOutput = (
    NeighborTableBuilder,
    Vec<Vec<OpSpec>>,
    KernelProfile,
    Vec<usize>,
);

/// Result of one full pass over the batches.
enum BatchPass {
    /// No buffer overflowed: the pass's outputs are final.
    Complete(BatchPassOutput),
    /// At least one batch overflowed. The pass ran *every* batch anyway
    /// (the append cursor counts attempts past capacity), so the true
    /// `|R|` is now known exactly and the caller can replan with
    /// Equation 1 instead of blindly doubling `n_b`.
    Overflowed {
        /// Exact total append attempts across all batches (= `|R|`).
        required_total: u64,
        /// Largest single-batch requirement — the minimal buffer size
        /// that makes the current batch assignment overflow-free.
        max_required: usize,
        /// Pairs materialized (then discarded) by the failed pass.
        produced_pairs: usize,
        /// Batches the failed pass ran (all of them — discarded work).
        batches: usize,
    },
}

/// Device-resident packed kd-tree: the four SoA node-pool buffers
/// (splits, axes, leaf ranges, reordered ids — the tree's `A`).
pub(crate) struct TreeBuffers {
    splits: DeviceBuffer<f64>,
    axes: DeviceBuffer<u32>,
    ranges: DeviceBuffer<CellRange>,
    ids: DeviceBuffer<u32>,
}

impl TreeBuffers {
    /// Upload the node pool, returning the summed H2D transfer time.
    pub(crate) fn upload<const D: usize>(
        device: &Device,
        tree: &PackedKdTree<D>,
    ) -> Result<(Self, SimDuration), DeviceError> {
        let v = tree.view();
        let (splits, t0) = DeviceBuffer::from_host(device, v.splits, false)?;
        let (axes, t1) = DeviceBuffer::from_host(device, v.axes, false)?;
        let (ranges, t2) = DeviceBuffer::from_host(device, v.ranges, false)?;
        let (ids, t3) = DeviceBuffer::from_host(device, v.ids, false)?;
        Ok((
            TreeBuffers {
                splits,
                axes,
                ranges,
                ids,
            },
            t0 + t1 + t2 + t3,
        ))
    }

    pub(crate) fn view(&self) -> TreeView<'_> {
        TreeView {
            splits: self.splits.as_slice(),
            axes: self.axes.as_slice(),
            ranges: self.ranges.as_slice(),
            ids: self.ids.as_slice(),
        }
    }
}

/// The ε-search index, one variant per backend: the point type's grid
/// and the packed kd-tree before their H2D upload (host side, so
/// `ConstructIndex` stays inside the `index_build` span while the
/// transfers land in `h2d_upload`), then their device-resident buffers,
/// which the batch loop dispatches kernels on.
enum SearchIndex<G, T> {
    Grid(G),
    Tree(T),
}

/// The Hybrid-DBSCAN engine (Algorithm 4).
pub struct HybridDbscan {
    device: Device,
    config: HybridConfig,
    recorder: Option<Arc<Recorder>>,
    /// Device index for recorded timeline ops (sharded runs give each
    /// shard its own lane group in the Chrome trace).
    trace_device: u32,
}

impl HybridDbscan {
    pub fn new(device: &Device, config: HybridConfig) -> Self {
        HybridDbscan {
            device: device.clone(),
            config,
            recorder: None,
            trace_device: 0,
        }
    }

    /// Attach an [`obs::Recorder`]: every subsequent run records spans,
    /// device-timeline operations, and batching/kernel metrics into it.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Record device-timeline ops under device index `device` (default 0)
    /// so per-shard runs land on distinct Chrome-trace lane groups.
    pub fn with_trace_lane(mut self, device: u32) -> Self {
        self.trace_device = device;
        self
    }

    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Full Algorithm 4: construct `T` on the (simulated) GPU, then run
    /// DBSCAN over it. Labels are returned in the caller's point order.
    pub fn run<const D: usize, P: EpsPoint<D>>(
        &self,
        data: &[P],
        eps: f64,
        minpts: usize,
    ) -> Result<HybridResult, HybridError> {
        let rec = self.recorder.as_deref();
        let run_span = rec.map(|r| {
            let mut s = r.span("hybrid_dbscan", "run");
            s.arg("n_points", data.len())
                .arg("eps", eps)
                .arg("minpts", minpts);
            s
        });
        let handle = self.build_table(data, eps)?;
        let dbscan_span = rec.map(|r| r.span("dbscan", "host"));
        let (clustering, dbscan_wall) = Self::cluster_with_table(&handle, minpts);
        drop(dbscan_span);
        if let Some(r) = rec {
            r.metrics()
                .observe("dbscan.duration_ms", dbscan_wall.as_secs_f64() * 1e3);
            r.metrics()
                .gauge_set("dbscan.clusters", clustering.num_clusters() as f64);
        }
        drop(run_span);
        let timings = HybridTimings {
            gpu_phase: handle.gpu.modeled_time,
            dbscan_wall,
        };
        Ok(HybridResult {
            clustering,
            timings,
            gpu: handle.gpu,
        })
    }

    /// Run DBSCAN over an existing table handle (the data-reuse path,
    /// scenario S3). Returns labels in caller order plus the measured
    /// DBSCAN duration.
    ///
    /// The table lives in sorted-id space; DBSCAN walks it in the caller's
    /// original point order (via [`TableHandle::visit_order`]) and the
    /// labels are mapped back, so the result is *identical* to the
    /// reference implementation's — not merely equivalent.
    pub fn cluster_with_table(handle: &TableHandle, minpts: usize) -> (Clustering, Duration) {
        let t0 = Instant::now();
        let clustering = cluster_table(&handle.table, &handle.perm, &handle.visit_order, minpts);
        (clustering, t0.elapsed())
    }

    /// Construct the neighbor table `T` for `data` at `eps` (lines 2-8 of
    /// Algorithm 4, including the batching scheme of Section VI). The same
    /// pipeline serves 2-D [`spatial::Point2`] and `D`-dimensional
    /// [`spatial::PointN`] data; only the ε-grid differs.
    pub fn build_table<const D: usize, P: EpsPoint<D>>(
        &self,
        data: &[P],
        eps: f64,
    ) -> Result<TableHandle, HybridError> {
        let cfg = &self.config;
        assert!(!data.is_empty(), "cannot cluster an empty database");
        assert!(
            eps > 0.0 && eps.is_finite(),
            "eps must be positive and finite"
        );
        assert!(
            cfg.kernel == KernelChoice::Global || P::CELL_SCHEDULE,
            "the shared kernel needs the 2-D grid's cell schedule"
        );
        let wall_start = Instant::now();
        let rec = self.recorder.as_deref();
        let mut table_span = rec.map(|r| {
            let mut s = r.span("build_table", "hybrid");
            s.arg("n_points", data.len()).arg("eps", eps);
            s
        });

        // Spatial pre-sort (Section IV): improves locality and makes the
        // strided batch assignment a uniform spatial sample.
        let index_span = rec.map(|r| r.span("index_build", "host"));
        let perm = spatial_sort_permutation_by(data, P::coords);
        let sorted: Vec<P> = perm.apply(data);

        // ε-search backend selection (grid vs packed kd-tree). Both
        // backends enumerate the exact closed ε-ball, so the pair set —
        // and therefore the table — is bitwise identical either way; the
        // choice only moves modeled cost. `Auto` decides from sampled
        // cell-occupancy statistics; the shared kernel is cell-driven and
        // always forces the grid.
        let decision = select_backend(
            cfg.backend,
            matches!(cfg.kernel, KernelChoice::Shared),
            &sorted,
            eps,
        );

        // ConstructIndex(D, eps) on the host, plus the SoA coordinate
        // mirror the kernels' inner loops scan (host-side layout only —
        // the device upload below stays the one point array).
        let store = P::store(&sorted);
        let host_index = match decision.chosen {
            ChosenBackend::Grid => SearchIndex::Grid(P::build_grid(&sorted, eps)),
            ChosenBackend::Tree => SearchIndex::Tree(PackedKdTree::build(P::view(&store))),
        };
        drop(index_span);

        // H2D uploads of D plus the search index — (G, A) for the grid,
        // the four SoA node-pool arrays for the tree (pageable: one-off
        // inputs). D stays one point-array transfer — the SoA mirror is
        // host-side layout only — and the buffer is held for
        // device-memory accounting.
        let upload_span = rec.map(|r| r.span("h2d_upload", "host"));
        let (_d_buf, up_d) = DeviceBuffer::from_host(&self.device, &sorted, false)?;
        let (index, up_index) = match host_index {
            SearchIndex::Grid(grid) => {
                let (bufs, up) = P::upload_grid(&self.device, grid)?;
                (SearchIndex::Grid(bufs), up)
            }
            // The host tree stays alive until the build ends: freeing it
            // before the batch loop changes the allocator's heap under the
            // table build, and measured ~20% slower jobs on the SW4 ε
            // sweep (2-vCPU host).
            SearchIndex::Tree(tree) => {
                let (bufs, up) = TreeBuffers::upload(&self.device, &tree)?;
                (SearchIndex::Tree((tree, bufs)), up)
            }
        };
        drop(upload_span);

        // Result-size estimation kernel over the f-sample. Both count
        // kernels are exact at a given stride, so `e_b` — and with it the
        // batch plan — is identical across backends.
        let est_span = rec.map(|r| r.span("estimation_kernel", "host"));
        let counter = DeviceCounter::new(&self.device)?;
        // The stride and the estimate scaling must come from the same
        // place (BatchConfig), or the realized sample fraction and the
        // assumed one drift apart and bias a_b.
        let stride = cfg.batch.stride_for(sorted.len());
        let est_report = match &index {
            SearchIndex::Grid(grid) => P::launch_count(
                &self.device,
                cfg.block_dim,
                &store,
                grid,
                eps,
                stride,
                &counter,
            )?,
            SearchIndex::Tree((_, tree)) => {
                let count_kernel = TreeCountKernel {
                    points: P::view(&store),
                    tree: tree.view(),
                    eps,
                    stride,
                    counter: &counter,
                };
                self.device
                    .launch(count_kernel.launch_config(cfg.block_dim), &count_kernel)?
            }
        };
        let e_b = counter.get();
        drop(counter);
        if let Some(mut s) = est_span {
            s.arg("e_b", e_b).arg("stride", stride);
        }

        // Batch plan (Equation 1), fitted to the remaining device memory
        // with a small headroom. The plan scales e_b by the realized
        // sample size, not by 1/f (see BatchConfig::estimate_total).
        let mut plan = cfg.batch.plan(e_b, sorted.len());
        let n_buffers = cfg.batch.n_streams.min(plan.n_batches).max(1);
        let headroom = self.device.available_bytes() / 10;
        plan = plan
            .fit_to_memory(
                self.device.available_bytes().saturating_sub(headroom),
                std::mem::size_of::<NeighborPair>(),
                n_buffers,
            )
            .ok_or(DeviceError::OutOfMemory {
                requested_bytes: std::mem::size_of::<NeighborPair>(),
                available_bytes: self.device.available_bytes(),
            })?;

        // For the shared kernel, batches are load-bound cell packings
        // rather than point strides; one dense cell may force a larger
        // buffer than Equation 1 chose.
        let shared_batches: Option<Vec<Vec<u32>>> = match cfg.kernel {
            KernelChoice::Global => None,
            KernelChoice::Shared => {
                let SearchIndex::Grid(grid) = &index else {
                    unreachable!("shared kernel always runs on the grid backend")
                };
                let (batches, required) = P::pack_cells(grid, plan.buffer_items);
                if required > plan.buffer_items {
                    let budget = self
                        .device
                        .available_bytes()
                        .saturating_sub(self.device.available_bytes() / 10);
                    let pair = std::mem::size_of::<NeighborPair>();
                    if required * pair * n_buffers > budget {
                        return Err(HybridError::Device(DeviceError::OutOfMemory {
                            requested_bytes: required * pair * n_buffers,
                            available_bytes: budget,
                        }));
                    }
                    plan.buffer_items = required;
                }
                plan.n_batches = batches.len().max(1);
                Some(batches)
            }
        };

        // Pinned staging buffers, one per stream.
        let n_buffers = cfg.batch.n_streams.min(plan.n_batches).max(1);
        let pinned: Vec<PinnedBuffer<NeighborPair>> = (0..n_buffers)
            .map(|_| PinnedBuffer::new(&self.device, plan.buffer_items))
            .collect();
        let pinned_alloc_time: SimDuration = pinned.iter().map(|p| p.alloc_time()).sum();

        // Device result buffers, one per stream, reused across batches.
        let mut dev_buffers: Vec<DeviceAppendBuffer<NeighborPair>> = (0..n_buffers)
            .map(|_| DeviceAppendBuffer::new(&self.device, plan.buffer_items))
            .collect::<Result<_, _>>()?;

        // Execute batches, replanning from the exact counted |R| on
        // overflow.
        let batch_span = rec.map(|r| r.span("batch_loop", "host"));
        let mut pinned = pinned;
        let mut attempt_plan = plan;
        let mut retries = 0;
        let mut discarded_batches = 0usize;
        let mut discarded_pairs = 0usize;
        let (builder, chains, profile, per_batch_pairs) = loop {
            match self.run_batches::<D, P>(
                &store,
                &index,
                eps,
                &attempt_plan,
                shared_batches.as_deref(),
                &mut dev_buffers,
                &mut pinned,
            )? {
                BatchPass::Complete(out) => break out,
                BatchPass::Overflowed {
                    required_total,
                    max_required,
                    produced_pairs,
                    batches,
                } => {
                    retries += 1;
                    discarded_batches += batches;
                    discarded_pairs += produced_pairs;
                    if retries > cfg.max_retries {
                        return Err(HybridError::RetriesExhausted { attempts: retries });
                    }
                    if attempt_plan.n_batches < sorted.len() {
                        // The failed pass counted every append attempt,
                        // so |R| is known exactly: apply Equation 1 to
                        // the true total with a small safety margin.
                        // This lands on the minimal batch count instead
                        // of overshooting by powers of two, keeping the
                        // executed n_b monotone in the configured α.
                        // Per-batch skew can still defeat the uniform-
                        // batch assumption; fall back to doubling then.
                        let margin = attempt_plan.effective_alpha.max(cfg.batch.alpha).max(0.05);
                        let replanned = attempt_plan.replan_for_total(required_total, margin);
                        attempt_plan = if replanned.n_batches > attempt_plan.n_batches {
                            replanned
                        } else {
                            attempt_plan.with_doubled_batches()
                        };
                        // More batches than points is pure overhead.
                        attempt_plan.n_batches = attempt_plan.n_batches.min(sorted.len());
                    } else {
                        // Already one point per batch and still
                        // overflowing: the buffer is smaller than a
                        // single ε-neighborhood, and no batch split can
                        // fix that. Grow the buffers to the exact
                        // largest requirement — deterministic success
                        // on the next pass, where the old blind
                        // doubling could under-size and overflow again.
                        attempt_plan.buffer_items =
                            attempt_plan.buffer_items.max(max_required).max(1);
                        dev_buffers = (0..n_buffers)
                            .map(|_| {
                                DeviceAppendBuffer::new(&self.device, attempt_plan.buffer_items)
                            })
                            .collect::<Result<_, _>>()?;
                        pinned = (0..n_buffers)
                            .map(|_| PinnedBuffer::new(&self.device, attempt_plan.buffer_items))
                            .collect();
                    }
                }
            }
        };
        if let Some(mut s) = batch_span {
            s.arg("n_batches", attempt_plan.n_batches)
                .arg("retries", retries);
        }
        let total_pairs: usize = per_batch_pairs.iter().sum();

        // Modeled GPU-phase time: serial preamble (uploads, estimation,
        // pinned allocation) + the overlapped 3-stream batch schedule.
        let mut timeline = Timeline::new(cfg.host_lanes.max(1));
        let schedule = schedule_chains(&mut timeline, &chains, cfg.batch.n_streams);
        let sum_label = |label: &str| -> SimDuration {
            chains
                .iter()
                .flatten()
                .filter(|op| op.label == label)
                .map(|op| op.duration)
                .sum()
        };
        let breakdown = GpuPhaseBreakdown {
            upload_time: up_d + up_index,
            estimation_time: est_report.duration,
            pinned_alloc_time,
            batch_schedule_time: schedule.makespan,
            kernel_time: sum_label("kernel"),
            sort_time: sum_label("sort"),
            d2h_time: sum_label("d2h"),
            ingest_time: sum_label("ingest"),
        };
        let modeled_time =
            up_d + up_index + est_report.duration + pinned_alloc_time + schedule.makespan;

        let table = builder.finalize();
        let mut kernel_profile = profile;
        if let Some(r) = rec {
            self.record_gpu_phase(
                r,
                &schedule,
                &breakdown,
                &est_report,
                &kernel_profile,
                &attempt_plan,
                &per_batch_pairs,
                &decision,
                e_b,
                retries,
                discarded_batches,
                discarded_pairs,
            );
        }
        kernel_profile.record(&est_report);

        let gpu = GpuPhaseReport {
            modeled_time,
            wall_time: wall_start.elapsed(),
            plan: attempt_plan,
            n_batches: attempt_plan.n_batches,
            result_pairs: total_pairs,
            per_batch_pairs,
            kernel_profile,
            e_b,
            backend: decision,
            retries,
            discarded_batches,
            discarded_pairs,
            breakdown,
            schedule,
        };
        if let Some(s) = table_span.as_mut() {
            s.arg("backend", decision.chosen.name());
            s.arg("modeled_ms", format!("{:.3}", modeled_time.as_millis()));
            s.set_sim(SimTime::ZERO, modeled_time);
        }
        drop(table_span);
        // visit_order[original id] = sorted position.
        let perm_slice = perm.as_slice();
        let mut visit_order = vec![0u32; perm_slice.len()];
        for (k, &orig) in perm_slice.iter().enumerate() {
            visit_order[orig as usize] = k as u32;
        }
        Ok(TableHandle {
            table,
            perm: perm_slice.to_vec(),
            visit_order,
            gpu,
        })
    }

    /// Record the GPU phase into an [`obs::Recorder`]: the device-timeline
    /// track (preamble + overlapped batch schedule, same labels as
    /// [`gpu_sim::stream::Schedule::render_gantt`]) and the batching /
    /// kernel metrics.
    #[allow(clippy::too_many_arguments)]
    fn record_gpu_phase(
        &self,
        r: &Recorder,
        schedule: &gpu_sim::stream::Schedule,
        breakdown: &GpuPhaseBreakdown,
        est_report: &gpu_sim::KernelReport,
        batch_profile: &KernelProfile,
        plan: &BatchPlan,
        per_batch_pairs: &[usize],
        decision: &BackendDecision,
        e_b: u64,
        retries: usize,
        discarded_batches: usize,
        discarded_pairs: usize,
    ) {
        // Device track: the serial preamble occupies its engines back to
        // back, then the batch schedule replays shifted past it.
        let dev = self.trace_device;
        let mut t = SimTime::ZERO;
        r.record_device_op_on(dev, Engine::H2D, "upload", 0, 0, t, breakdown.upload_time);
        t = t + breakdown.upload_time;
        r.record_device_op_on(
            dev,
            Engine::Compute,
            "estimation",
            0,
            0,
            t,
            breakdown.estimation_time,
        );
        t = t + breakdown.estimation_time;
        r.record_device_op_on(
            dev,
            Engine::Host(0),
            "pinned_alloc",
            0,
            0,
            t,
            breakdown.pinned_alloc_time,
        );
        t = t + breakdown.pinned_alloc_time;
        r.record_schedule_on(dev, schedule, t - SimTime::ZERO);

        // Batching-scheme telemetry: how good was the estimate, and how
        // much of the overestimated buffers did the batches actually use?
        let m = r.metrics();
        let actual: usize = per_batch_pairs.iter().sum();
        m.counter_add("batch.e_b", e_b);
        m.gauge_set(
            "estimation.sample_fraction",
            self.config.batch.sample_fraction,
        );
        m.counter_add("batch.batches_run", per_batch_pairs.len() as u64);
        m.counter_add("batch.retries", retries as u64);
        m.counter_add("batch.discarded_batches", discarded_batches as u64);
        m.counter_add("batch.discarded_pairs", discarded_pairs as u64);
        m.counter_add("batch.result_pairs", actual as u64);
        m.gauge_set("batch.estimated_total", plan.estimated_total as f64);
        m.gauge_set("batch.overestimation_factor", 1.0 + plan.effective_alpha);
        if plan.estimated_total > 0 {
            m.gauge_set(
                "batch.estimation_accuracy",
                actual as f64 / plan.estimated_total as f64,
            );
        }
        let capacity = (plan.buffer_items * per_batch_pairs.len()).max(1);
        m.gauge_set("batch.buffer_utilization", actual as f64 / capacity as f64);
        for &pairs in per_batch_pairs {
            m.observe("batch.pairs", pairs as f64);
            m.observe(
                "batch.fill_fraction",
                pairs as f64 / plan.buffer_items.max(1) as f64,
            );
        }

        // Backend-selection telemetry: what ran and what the sampled
        // statistics said (zeros when the decision didn't need stats).
        m.counter_add(
            match decision.chosen {
                ChosenBackend::Grid => "backend.grid_runs",
                ChosenBackend::Tree => "backend.tree_runs",
            },
            1,
        );
        m.gauge_set("backend.cell_cv", decision.cell_cv);
        m.gauge_set("backend.mean_occupancy", decision.mean_occupancy);

        // Per-kernel profile metrics (the estimation launch is kept
        // separate from the batch kernels so their occupancies don't mix).
        let kernel_name = match (decision.chosen, self.config.kernel) {
            (ChosenBackend::Tree, _) => "gpucalc_tree",
            (ChosenBackend::Grid, KernelChoice::Global) => "gpucalc_global",
            (ChosenBackend::Grid, KernelChoice::Shared) => "gpucalc_shared",
        };
        obs::bench::record_kernel_profile(m, kernel_name, batch_profile);
        m.counter_add("kernel.estimation.launches", 1);
        m.gauge_set("kernel.estimation.occupancy", est_report.occupancy);
        let est_secs = est_report.duration.as_secs();
        m.gauge_set(
            "kernel.estimation.gmem_gbps",
            if est_secs == 0.0 {
                0.0
            } else {
                est_report.counters.global_bytes() as f64 / est_secs / 1e9
            },
        );

        // Schedule-shape metrics: overlap achieved by the 3 streams.
        let serial = schedule.serial_time().as_secs();
        let makespan = schedule.makespan.as_secs();
        m.gauge_set("schedule.makespan_ms", schedule.makespan.as_millis());
        m.gauge_set(
            "schedule.overlap_factor",
            if makespan == 0.0 {
                0.0
            } else {
                serial / makespan
            },
        );
    }

    /// Run all batches of `plan` as a wall-clock pipeline mirroring the
    /// modeled stream schedule: one pool-driven worker per stream, each
    /// owning its device/pinned buffer pair and executing its batches
    /// (`l ≡ stream (mod n_buffers)`, the serial loop's exact buffer
    /// assignment) kernel → sort → D2H → ingest in order. Kernels still
    /// serialize on the device's compute engine, but the host-side sort,
    /// staging copy, and table ingest of batch *l* now overlap the kernel
    /// of batch *l+1* in wall-clock, exactly as the modeled 3-stream
    /// schedule overlaps them on the timeline.
    ///
    /// Returns [`BatchPass::Overflowed`] (with exact per-batch
    /// requirement counts for replanning) if any batch overflowed its
    /// buffer, otherwise the filled builder, the per-batch operation
    /// chains for scheduling, the kernel profile, and the per-batch pair
    /// counts.
    ///
    /// INVARIANT (threading policy, DESIGN.md): every outcome a worker
    /// produces — kernel report, sorted sequence, staged length, modeled
    /// durations — is a pure function of its batch index, and the drain
    /// loop below merges them in batch order. The pipeline therefore
    /// yields bit-identical tables, profiles, and `modeled_time` at every
    /// thread count, including 1 (where the workers simply run one after
    /// another).
    #[allow(clippy::too_many_arguments)]
    fn run_batches<const D: usize, P: EpsPoint<D>>(
        &self,
        store: &P::Store,
        search: &SearchIndex<P::DeviceGrid, (PackedKdTree<D>, TreeBuffers)>,
        eps: f64,
        plan: &BatchPlan,
        shared_batches: Option<&[Vec<u32>]>,
        dev_buffers: &mut [DeviceAppendBuffer<NeighborPair>],
        pinned: &mut [PinnedBuffer<NeighborPair>],
    ) -> Result<BatchPass, HybridError> {
        let cfg = &self.config;
        let n_b = shared_batches.map_or(plan.n_batches, |b| b.len().max(1));
        let n_buffers = dev_buffers.len();
        let builder = NeighborTableBuilder::new(eps, P::view(store).len(), n_b);

        /// What one batch hands from its stream worker to the drain loop.
        struct BatchOutcome {
            /// `None` marks an empty shared-kernel batch (no launch).
            report: Option<gpu_sim::KernelReport>,
            sort_time: SimDuration,
            d2h_time: SimDuration,
            staged_len: usize,
            /// Exact pairs this batch needed: every append attempt,
            /// counted past capacity. A pure function of the batch, so
            /// an overflowed pass yields the true `|R|` deterministically.
            required: usize,
        }
        let outcomes: Vec<Mutex<Option<BatchOutcome>>> =
            (0..n_b).map(|_| Mutex::new(None)).collect();
        let abort = AtomicBool::new(false);
        let overflowed = AtomicBool::new(false);
        // Lowest-batch-index error among those observed wins, so the
        // surfaced error does not depend on worker interleaving.
        let first_error: Mutex<Option<(usize, HybridError)>> = Mutex::new(None);

        let worker = |stream: usize,
                      buf: &mut DeviceAppendBuffer<NeighborPair>,
                      stage: &mut PinnedBuffer<NeighborPair>| {
            let mut l = stream;
            while l < n_b && !abort.load(Ordering::Relaxed) {
                buf.reset();

                // Kernel launch (functional execution + modeled duration);
                // the device's compute engine admits one kernel at a time.
                let launched = match (search, shared_batches) {
                    (SearchIndex::Tree((_, tree)), _) => {
                        let kernel = GpuCalcTree {
                            points: P::view(store),
                            tree: tree.view(),
                            eps,
                            batch: l,
                            n_batches: n_b,
                            result: buf,
                        };
                        Some(
                            self.device
                                .launch(kernel.launch_config(cfg.block_dim), &kernel),
                        )
                    }
                    (SearchIndex::Grid(grid), batches) => {
                        let batch = match batches {
                            None => Some(GridBatch::Strided {
                                batch: l,
                                n_batches: n_b,
                            }),
                            Some(cells) if cells[l].is_empty() => None,
                            Some(cells) => Some(GridBatch::Cells(&cells[l])),
                        };
                        batch.map(|batch| {
                            P::launch_calc(
                                &self.device,
                                cfg.block_dim,
                                store,
                                grid,
                                eps,
                                batch,
                                buf,
                            )
                        })
                    }
                };
                let report = match launched {
                    None => {
                        // Empty shared batch: no launch, empty chain.
                        *outcomes[l].lock() = Some(BatchOutcome {
                            report: None,
                            sort_time: SimDuration::ZERO,
                            d2h_time: SimDuration::ZERO,
                            staged_len: 0,
                            required: 0,
                        });
                        l += n_buffers;
                        continue;
                    }
                    Some(Ok(report)) => report,
                    Some(Err(e)) => {
                        let mut slot = first_error.lock();
                        if slot.as_ref().is_none_or(|&(l0, _)| l < l0) {
                            *slot = Some((l, e.into()));
                        }
                        abort.store(true, Ordering::Relaxed);
                        return;
                    }
                };

                if buf.overflowed() {
                    // Keep going instead of aborting: the remaining
                    // batches still run their kernels, so every batch
                    // reports its exact requirement and the retry can
                    // replan from the true |R| (which *worker* notices
                    // first is schedule-dependent, but per-batch
                    // requirements are not — the whole pass's pairs are
                    // discarded and only the counts escape).
                    overflowed.store(true, Ordering::Relaxed);
                    *outcomes[l].lock() = Some(BatchOutcome {
                        report: Some(report),
                        sort_time: SimDuration::ZERO,
                        d2h_time: SimDuration::ZERO,
                        staged_len: 0,
                        required: buf.len() + buf.rejected(),
                    });
                    l += n_buffers;
                    continue;
                }
                if overflowed.load(Ordering::Relaxed) {
                    // Another batch already overflowed: this pass is
                    // doomed, so skip the canonicalization / transfer /
                    // ingest and just report this batch's exact count.
                    *outcomes[l].lock() = Some(BatchOutcome {
                        report: Some(report),
                        sort_time: SimDuration::ZERO,
                        d2h_time: SimDuration::ZERO,
                        staged_len: 0,
                        required: buf.len(),
                    });
                    l += n_buffers;
                    continue;
                }

                // Host-side sort by key (Thrust), so identical keys are
                // adjacent before the transfer. INVARIANT (threading
                // policy, DESIGN.md): this total-order sort is the
                // canonicalization of the append buffer — block append
                // order varies with host scheduling, and every
                // downstream consumer (staging copy, table ingest) sees
                // only the sorted, schedule-independent sequence.
                let sort_time = thrust::sort_by_key(&self.device, buf.as_filled_mut_slice());

                // D2H straight into this stream's pinned staging area.
                // The staging buffer is reused by batch l + n_buffers —
                // same stream, so reuse serializes by construction
                // (Algorithm 4's rationale for copying values out into
                // buffer B).
                let (staged_len, d2h_time) = buf.download_into(stage);

                // Host: copy the values out of staging into T, off the
                // driving thread — the builder's lock-free claims let
                // streams ingest concurrently. The chain op's duration
                // is modeled from the staged pair count, never measured.
                builder.ingest_batch(l, &stage.as_slice()[..staged_len]);

                *outcomes[l].lock() = Some(BatchOutcome {
                    report: Some(report),
                    sort_time,
                    d2h_time,
                    staged_len,
                    required: staged_len,
                });
                l += n_buffers;
            }
        };

        // Drive the stream workers. With one buffer or one thread the
        // pipeline degenerates to the workers running back to back on
        // this thread — same batch work, same outcomes.
        if n_buffers > 1 && rayon::current_num_threads() > 1 {
            rayon::scope(|s| {
                for (stream, (buf, stage)) in
                    dev_buffers.iter_mut().zip(pinned.iter_mut()).enumerate()
                {
                    let worker = &worker;
                    s.spawn(move |_| worker(stream, buf, stage));
                }
            });
        } else {
            for (stream, (buf, stage)) in dev_buffers.iter_mut().zip(pinned.iter_mut()).enumerate()
            {
                worker(stream, buf, stage);
            }
        }

        if let Some((_, e)) = first_error.into_inner() {
            return Err(e);
        }
        if overflowed.load(Ordering::Relaxed) {
            let mut required_total = 0u64;
            let mut max_required = 0usize;
            let mut produced_pairs = 0usize;
            for slot in &outcomes {
                let out = slot
                    .lock()
                    .take()
                    .expect("pipeline finished without an outcome for some batch");
                required_total += out.required as u64;
                max_required = max_required.max(out.required);
                produced_pairs += out.required.min(plan.buffer_items);
            }
            return Ok(BatchPass::Overflowed {
                required_total,
                max_required,
                produced_pairs,
                batches: n_b,
            });
        }

        // Drain outcomes in batch index order. `KernelProfile::record`
        // folds f64 sums and `schedule_chains` consumes chains
        // positionally, so this ordered merge — not the workers'
        // completion order — is what keeps `modeled_time_bits` and the
        // profile bit-identical to the serial loop.
        let mut chains: Vec<Vec<OpSpec>> = Vec::with_capacity(n_b);
        let mut profile = KernelProfile::new();
        let mut per_batch_pairs: Vec<usize> = Vec::with_capacity(n_b);
        for slot in &outcomes {
            let out = slot
                .lock()
                .take()
                .expect("pipeline finished without an outcome for some batch");
            match out.report {
                None => {
                    chains.push(Vec::new());
                    per_batch_pairs.push(0);
                }
                Some(report) => {
                    profile.record(&report);
                    per_batch_pairs.push(out.staged_len);
                    let ingest_time = ingest_time_model(out.staged_len);
                    chains.push(vec![
                        OpSpec::new(Engine::Compute, report.duration, "kernel"),
                        OpSpec::new(Engine::Compute, out.sort_time, "sort"),
                        OpSpec::new(Engine::D2H, out.d2h_time, "d2h"),
                        OpSpec::new(
                            Engine::Host(chains.len() % cfg.host_lanes.max(1)),
                            ingest_time,
                            "ingest",
                        ),
                    ]);
                }
            }
        }

        Ok(BatchPass::Complete((
            builder,
            chains,
            profile,
            per_batch_pairs,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbscan::{Dbscan, GridSource};
    use crate::kernels::test_support::mixed_points;
    use crate::shard::{clustering_fingerprint, table_fingerprint};
    use spatial::nd::brute_force_neighbors_nd;
    use spatial::{GridIndex, Point2, PointN};

    /// Quasi-random `D`-dimensional points filling `[0, extent)^D`.
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

    fn build_with<const D: usize, P: EpsPoint<D>>(
        cfg: HybridConfig,
        data: &[P],
        eps: f64,
    ) -> TableHandle {
        HybridDbscan::new(&Device::k20c(), cfg)
            .build_table(data, eps)
            .unwrap()
    }

    /// A 1-D line with a denser middle third. Per-point neighbor counts
    /// are near-constant within each region and strided batches sample
    /// both regions evenly, so per-batch result sizes have low skew —
    /// the regime of the paper's datasets, unlike `mixed_points`.
    fn gradient_line_points(n: usize) -> Vec<Point2> {
        let mut x = 0.0f64;
        (0..n)
            .map(|i| {
                let step = if (n / 3..2 * n / 3).contains(&i) {
                    0.07
                } else {
                    0.1
                };
                x += step;
                Point2::new(x, 0.5)
            })
            .collect()
    }

    fn tiny_batch_config(buffer_items: usize) -> BatchConfig {
        BatchConfig {
            alpha: 0.05,
            sample_fraction: 0.05,
            static_threshold: 0, // always static sizing
            static_buffer_items: buffer_items,
            n_streams: 3,
        }
    }

    #[test]
    fn run_matches_direct_grid_dbscan() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        for (eps, minpts) in [(0.5, 4), (1.0, 8), (0.25, 2)] {
            let result = hybrid.run(&data, eps, minpts).unwrap();
            let grid = GridIndex::build(&data, eps);
            let direct = Dbscan::new(minpts).run(&GridSource::new(&grid, &data));
            assert!(
                result.clustering.equivalent_to(&direct),
                "eps={eps} minpts={minpts}: {} vs {} clusters",
                result.clustering.num_clusters(),
                direct.num_clusters()
            );
        }
    }

    #[test]
    fn multi_batch_run_matches_single_batch() {
        fn check<const D: usize, P: EpsPoint<D>>(data: &[P], eps: f64, backend: IndexBackend) {
            let device = Device::k20c();
            let one = HybridDbscan::new(
                &device,
                HybridConfig {
                    backend,
                    ..HybridConfig::default()
                },
            );
            let many = HybridDbscan::new(
                &device,
                HybridConfig {
                    backend,
                    batch: tiny_batch_config(2000), // forces several batches
                    ..HybridConfig::default()
                },
            );
            let r1 = one.run(data, eps, 4).unwrap();
            let rn = many.run(data, eps, 4).unwrap();
            assert!(rn.gpu.n_batches > 1, "test must exercise batching");
            assert!(r1.clustering.equivalent_to(&rn.clustering));
            assert_eq!(r1.gpu.result_pairs, rn.gpu.result_pairs);
        }
        check(&mixed_points(800), 0.6, IndexBackend::Grid);
        check(&nd_points::<3>(500, 4.0), 0.8, IndexBackend::Grid);
        check(&nd_points::<3>(500, 4.0), 0.8, IndexBackend::Tree);
    }

    #[test]
    fn shared_kernel_produces_identical_clustering() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let global = HybridDbscan::new(&device, HybridConfig::default());
        let shared = HybridDbscan::new(
            &device,
            HybridConfig {
                kernel: KernelChoice::Shared,
                ..HybridConfig::default()
            },
        );
        let rg = global.run(&data, 0.7, 4).unwrap();
        let rs = shared.run(&data, 0.7, 4).unwrap();
        assert!(rg.clustering.equivalent_to(&rs.clustering));
        assert_eq!(rg.gpu.result_pairs, rs.gpu.result_pairs);
    }

    #[test]
    fn shared_kernel_multi_batch_matches() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let cfg = HybridConfig {
            kernel: KernelChoice::Shared,
            batch: tiny_batch_config(3000),
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 0.7, 4).unwrap();
        assert!(r.gpu.n_batches > 1);
        let grid = GridIndex::build(&data, 0.7);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    #[test]
    fn overflow_recovery_replans_batches() {
        let data = mixed_points(400);
        let device = Device::k20c();
        // Lie to the planner: a strongly negative α makes Equation 1 plan
        // far too few batches for the (exact, stride-1) estimate, so the
        // static per-stream buffers must overflow and the retry path
        // kicks in. (The old trick of a sample "fraction" above 1 no
        // longer works: the estimate is scaled by the realized sample
        // size, so any f with stride 1 yields an exact a_b.)
        let cfg = HybridConfig {
            batch: BatchConfig {
                alpha: -0.9,
                sample_fraction: 1.0,
                static_threshold: 0,       // static-buffer path
                static_buffer_items: 2000, // far below |R| / n_b
                n_streams: 3,
            },
            max_retries: 16,
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 1.0, 4).unwrap();
        assert!(r.gpu.retries > 0, "undersized plan must trigger retries");
        // The failed pass counted the true |R|, so the executed plan is
        // the minimal Equation-1 plan for it (margin 5%), not a blind
        // power-of-two overshoot.
        let minimal = (1.05 * r.gpu.result_pairs as f64 / 2000.0).ceil() as usize;
        assert_eq!(r.gpu.plan.n_batches, minimal.min(data.len()));
        assert_eq!(r.gpu.plan.estimated_total, r.gpu.result_pairs as u64);
        // Discarded-work accounting covers every retried batch.
        assert!(r.gpu.discarded_batches > 0);
        assert!(r.gpu.discarded_pairs > 0);
        // And the result is still correct.
        let grid = GridIndex::build(&data, 1.0);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    #[test]
    fn executed_batches_monotone_entering_retry_free_region() {
        // Regression for the α-sweep anomaly: a retry at a small α used
        // to *double* n_b, making the executed batch count jump far above
        // what a slightly larger (retry-free) α needs (the ablation
        // showed 310 + retry at α=0.00 vs 162 at α=0.05). With the exact
        // replan, the executed n_b must be non-increasing until the sweep
        // enters the retry-free region (beyond that it legitimately grows
        // with α, since buffers are fixed and Equation 1 scales with it).
        //
        // Calibration (all deterministic): |R| = 33,314 at eps 0.35, so
        // with b_b = 980 the α=0.00 plan of 34 batches has a max fill of
        // 985 (0.5% skew vs 0.02% headroom — overflow), while every
        // α ≥ 0.01 plan fits. The replan executes ceil(1.05·|R|/980) =
        // 36 batches; the old doubling executed 68.
        let data = gradient_line_points(4000);
        let device = Device::k20c();
        let mut executed: Vec<(f64, usize, usize)> = Vec::new();
        for alpha in [0.0, 0.01, 0.05, 0.2, 0.5] {
            let cfg = HybridConfig {
                batch: BatchConfig {
                    alpha,
                    sample_fraction: 1.0, // exact estimate: a_b = |R|
                    static_threshold: 0,
                    static_buffer_items: 980,
                    n_streams: 3,
                },
                max_retries: 8,
                ..HybridConfig::default()
            };
            let hybrid = HybridDbscan::new(&device, cfg);
            let r = hybrid.run(&data, 0.35, 4).unwrap();
            executed.push((alpha, r.gpu.retries, r.gpu.n_batches));
        }
        assert!(
            executed.iter().any(|&(_, retries, _)| retries > 0),
            "sweep must exercise the retry path: {executed:?}"
        );
        let first_retry_free = executed
            .iter()
            .position(|&(_, retries, _)| retries == 0)
            .expect("some α must be retry-free");
        for w in executed[..=first_retry_free].windows(2) {
            assert!(
                w[1].2 <= w[0].2,
                "executed n_batches must be non-increasing entering the \
                 retry-free region: {executed:?}"
            );
        }
        // No power-of-two overshoot: a retried α may not execute more
        // than ~25% above the first retry-free batch count.
        let baseline = executed[first_retry_free].2 as f64;
        for &(alpha, retries, n) in &executed[..first_retry_free] {
            assert!(
                retries > 0 && (n as f64) <= baseline * 1.25,
                "α={alpha}: executed {n} vs retry-free {baseline}: {executed:?}"
            );
        }
        // Pin the executed sweep shape (deterministic pipeline).
        let shape: Vec<(usize, usize)> = executed.iter().map(|&(_, r, n)| (r, n)).collect();
        assert_eq!(
            shape,
            vec![(1, 36), (0, 35), (0, 36), (0, 41), (0, 51)],
            "{executed:?}"
        );
    }

    #[test]
    fn post_retry_report_and_metrics_describe_executed_plan() {
        // After overflow recovery the report's plan (and the recorded
        // telemetry) must describe the *retried* plan, not the initial
        // one, and count the retries.
        let data = mixed_points(400);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: BatchConfig {
                alpha: -0.9,
                sample_fraction: 1.0,
                static_threshold: 0,
                static_buffer_items: 2000,
                n_streams: 3,
            },
            max_retries: 16,
            ..HybridConfig::default()
        };
        let rec = Arc::new(obs::Recorder::new());
        let hybrid = HybridDbscan::new(&device, cfg).with_recorder(rec.clone());
        let r = hybrid.run(&data, 1.0, 4).unwrap();
        assert!(r.gpu.retries > 0, "test must exercise the retry path");
        // The executed plan is the one in the report.
        assert_eq!(r.gpu.plan.n_batches, r.gpu.n_batches);
        assert_eq!(r.gpu.per_batch_pairs.len(), r.gpu.n_batches);
        let initial = cfg.batch.plan(r.gpu.e_b, data.len());
        assert!(
            r.gpu.plan.n_batches > initial.n_batches,
            "retried plan must have more batches than the initial plan"
        );
        // Telemetry: the retry counter and the batch count reflect the
        // executed run.
        let m = rec.metrics().snapshot();
        assert_eq!(m.counters["batch.retries"], r.gpu.retries as u64);
        assert_eq!(m.counters["batch.batches_run"], r.gpu.n_batches as u64);
        assert_eq!(
            m.counters["batch.discarded_batches"],
            r.gpu.discarded_batches as u64
        );
        assert_eq!(
            m.counters["batch.discarded_pairs"],
            r.gpu.discarded_pairs as u64
        );
        assert!(
            r.gpu.discarded_batches > 0,
            "retried passes must be accounted as discarded work"
        );
        assert_eq!(
            m.histograms["batch.pairs"].count, r.gpu.n_batches as u64,
            "per-batch telemetry must come from the executed plan"
        );
    }

    #[test]
    fn fractional_sample_stride_estimate_is_unbiased() {
        // Regression for the estimation-stride bias: with f = 0.03 the
        // stride is round(1/0.03) = 33, whose realized fraction differs
        // from f. The report's estimated total must equal the unbiased
        // scaling of e_b by the realized sample size.
        // Large enough that the MIN_SAMPLE stride clamp is inactive and
        // the f-derived stride is what the kernel actually runs.
        let data = mixed_points(3000);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: BatchConfig {
                sample_fraction: 0.03,
                ..BatchConfig::default()
            },
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 0.6, 4).unwrap();
        let batch = &cfg.batch;
        assert_eq!(batch.stride_for(data.len()), 33);
        let sample = batch.sample_size(data.len());
        assert_eq!(sample, data.len().div_ceil(33));
        let unbiased = (r.gpu.e_b as f64 * data.len() as f64 / sample as f64).ceil() as u64;
        assert_eq!(r.gpu.plan.estimated_total, unbiased.max(1));
        // The naive e_b / f scaling differs — the bias this fixes.
        let naive = (r.gpu.e_b as f64 / 0.03).ceil() as u64;
        assert_ne!(
            naive, unbiased,
            "test data must exercise the non-integral-stride bias"
        );
    }

    #[test]
    fn table_reuse_across_minpts() {
        let data = mixed_points(500);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let handle = hybrid.build_table(&data, 0.8).unwrap();
        let grid = GridIndex::build(&data, 0.8);
        for minpts in [2, 4, 8, 16] {
            let (clustering, _) = HybridDbscan::cluster_with_table(&handle, minpts);
            let direct = Dbscan::new(minpts).run(&GridSource::new(&grid, &data));
            assert!(clustering.equivalent_to(&direct), "minpts = {minpts}");
        }
    }

    #[test]
    fn timings_are_populated() {
        let data = mixed_points(300);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let r = hybrid.run(&data, 0.5, 4).unwrap();
        assert!(r.timings.gpu_phase > SimDuration::ZERO);
        assert!(r.timings.dbscan_wall > Duration::ZERO);
        assert!(r.gpu.result_pairs > 0);
        assert!(r.gpu.e_b > 0);
        assert!(r.gpu.kernel_profile.launches >= 2, "estimation + >=1 batch");
    }

    #[test]
    fn device_memory_is_released_after_run() {
        let data = mixed_points(300);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let _ = hybrid.run(&data, 0.5, 4).unwrap();
        assert_eq!(
            device.used_bytes(),
            0,
            "all device allocations must be dropped"
        );
    }

    #[test]
    fn tiny_device_forces_memory_fitting() {
        // A device with little memory: the plan must shrink buffers and
        // still produce correct results.
        let data = mixed_points(400);
        let device = Device::tiny(2 * 1024 * 1024);
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let r = hybrid.run(&data, 0.8, 4).unwrap();
        let grid = GridIndex::build(&data, 0.8);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    #[test]
    fn per_batch_pairs_sum_to_total() {
        let data = mixed_points(800);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: tiny_batch_config(2000),
            ..HybridConfig::default()
        };
        let hybrid = HybridDbscan::new(&device, cfg);
        let r = hybrid.run(&data, 0.6, 4).unwrap();
        assert!(r.gpu.per_batch_pairs.len() > 1);
        assert_eq!(r.gpu.per_batch_pairs.len(), r.gpu.n_batches);
        assert_eq!(
            r.gpu.per_batch_pairs.iter().sum::<usize>(),
            r.gpu.result_pairs
        );
    }

    #[test]
    fn recorder_captures_spans_device_track_and_metrics() {
        let data = mixed_points(400);
        let device = Device::k20c();
        let rec = Arc::new(obs::Recorder::new());
        let hybrid = HybridDbscan::new(&device, HybridConfig::default()).with_recorder(rec.clone());
        let r = hybrid.run(&data, 0.6, 4).unwrap();

        // Host spans: the run tree exists and is parented correctly.
        let spans = rec.spans();
        let run_span = spans.iter().find(|s| s.name == "hybrid_dbscan").unwrap();
        let build = spans.iter().find(|s| s.name == "build_table").unwrap();
        assert_eq!(build.parent, Some(run_span.id));
        assert!(
            build.sim_dur_us.is_some(),
            "build_table carries its sim window"
        );
        for name in ["index_build", "estimation_kernel", "batch_loop", "dbscan"] {
            assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
        }

        // Device track: preamble + schedule ops, labels matching the
        // Gantt, total op count = 3 preamble + schedule ops.
        let ops = rec.device_ops();
        assert_eq!(ops.len(), 3 + r.gpu.schedule.ops.len());
        for label in r.gpu.schedule.op_labels() {
            assert!(
                ops.iter().any(|o| o.label == label),
                "missing device op {label}"
            );
        }

        // Metrics: estimation accuracy and kernel telemetry present.
        let m = rec.metrics().snapshot();
        assert_eq!(m.counters["batch.e_b"], r.gpu.e_b);
        assert_eq!(m.counters["batch.result_pairs"], r.gpu.result_pairs as u64);
        let acc = m.gauges["batch.estimation_accuracy"];
        assert!(acc > 0.0 && acc.is_finite(), "accuracy {acc}");
        assert!(m.gauges["kernel.gpucalc_global.mean_occupancy"] > 0.0);
        assert!(m.gauges["kernel.estimation.occupancy"] > 0.0);
        assert_eq!(m.histograms["batch.pairs"].count, r.gpu.n_batches as u64);
    }

    #[test]
    fn device_lane_events_do_not_overlap_in_recorder() {
        let data = mixed_points(600);
        let device = Device::k20c();
        let cfg = HybridConfig {
            batch: tiny_batch_config(2000),
            ..HybridConfig::default()
        };
        let rec = Arc::new(obs::Recorder::new());
        let hybrid = HybridDbscan::new(&device, cfg).with_recorder(rec.clone());
        let r = hybrid.build_table(&data, 0.6).unwrap();
        assert!(r.gpu.n_batches > 1);
        let mut ops = rec.device_ops();
        ops.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for engine in [Engine::H2D, Engine::Compute, Engine::D2H, Engine::Host(0)] {
            let lane: Vec<_> = ops.iter().filter(|o| o.engine == engine).collect();
            for w in lane.windows(2) {
                assert!(
                    w[1].start_us >= w[0].start_us + w[0].dur_us - 1e-6,
                    "overlap on {engine:?}: {w:?}"
                );
            }
        }
    }

    #[test]
    fn labels_are_in_caller_order() {
        // Shuffle the input; the two coincident-cluster memberships must
        // land on the right original indices.
        let mut data = Vec::new();
        for i in 0..40 {
            data.push(Point2::new(100.0 + (i % 7) as f64 * 0.01, 0.0)); // clump B first
        }
        for i in 0..40 {
            data.push(Point2::new((i % 7) as f64 * 0.01, 0.0)); // clump A second
        }
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, HybridConfig::default());
        let r = hybrid.run(&data, 0.5, 3).unwrap();
        let labels = r.clustering.labels();
        // Points 0..40 (clump at x~100) share one label; 40..80 the other.
        for i in 1..40 {
            assert_eq!(labels[i], labels[0]);
            assert_eq!(labels[40 + i], labels[40]);
        }
        assert_ne!(labels[0], labels[40]);
    }

    #[test]
    fn tree_backend_matches_grid_bitwise() {
        fn check<const D: usize, P: EpsPoint<D>>(data: &[P], eps: f64) {
            let tree_cfg = HybridConfig {
                backend: IndexBackend::Tree,
                ..HybridConfig::default()
            };
            let hg = build_with(HybridConfig::default(), data, eps);
            let ht = build_with(tree_cfg, data, eps);
            assert_eq!(hg.gpu.backend.chosen, ChosenBackend::Grid);
            assert_eq!(ht.gpu.backend.chosen, ChosenBackend::Tree);
            // Exact count kernels on both sides → identical e_b →
            // identical batch plan → (after the canonical device sort)
            // identical tables.
            assert_eq!(hg.gpu.e_b, ht.gpu.e_b);
            assert_eq!(hg.gpu.n_batches, ht.gpu.n_batches);
            assert_eq!(hg.gpu.per_batch_pairs, ht.gpu.per_batch_pairs);
            assert_eq!(table_fingerprint(&hg.table), table_fingerprint(&ht.table));
            let (cg, _) = HybridDbscan::cluster_with_table(&hg, 4);
            let (ct, _) = HybridDbscan::cluster_with_table(&ht, 4);
            assert_eq!(clustering_fingerprint(&cg), clustering_fingerprint(&ct));

            // Table neighborhoods equal the brute-force oracle (ids in
            // sorted order, mapped through the permutation).
            let sorted: Vec<PointN<D>> = hg
                .perm
                .iter()
                .map(|&i| PointN::new(data[i as usize].coords()))
                .collect();
            for i in (0..sorted.len()).step_by(37) {
                let want = brute_force_neighbors_nd(&sorted, &sorted[i], eps);
                assert_eq!(hg.table.neighbors(i as u32), &want[..], "{D}-D point {i}");
            }
        }
        check(&mixed_points(600), 0.6);
        check(&nd_points::<3>(400, 4.0), 0.8);
        check(&nd_points::<4>(250, 3.0), 0.7);
    }

    #[test]
    fn tree_backend_multi_batch_matches_grid() {
        let data = mixed_points(800);
        let device = Device::k20c();
        let mk = |backend| {
            HybridConfig {
                backend,
                batch: tiny_batch_config(2000), // forces several batches
                ..HybridConfig::default()
            }
        };
        let hg = HybridDbscan::new(&device, mk(IndexBackend::Grid))
            .build_table(&data, 0.6)
            .unwrap();
        let ht = HybridDbscan::new(&device, mk(IndexBackend::Tree))
            .build_table(&data, 0.6)
            .unwrap();
        assert!(ht.gpu.n_batches > 1, "test must exercise batching");
        assert_eq!(hg.gpu.per_batch_pairs, ht.gpu.per_batch_pairs);
        assert_eq!(
            crate::shard::table_fingerprint(&hg.table),
            crate::shard::table_fingerprint(&ht.table)
        );
    }

    #[test]
    fn auto_backend_resolves_and_matches_grid() {
        fn check<const D: usize, P: EpsPoint<D>>(data: &[P], eps: f64) {
            let auto_cfg = HybridConfig {
                backend: IndexBackend::Auto,
                ..HybridConfig::default()
            };
            let ha = build_with(auto_cfg, data, eps);
            assert_eq!(ha.gpu.backend.requested, IndexBackend::Auto);
            assert_eq!(ha.gpu.backend.reason, "auto");
            let hg = build_with(HybridConfig::default(), data, eps);
            assert_eq!(table_fingerprint(&hg.table), table_fingerprint(&ha.table));
            let (ca, _) = HybridDbscan::cluster_with_table(&ha, 4);
            let (cg, _) = HybridDbscan::cluster_with_table(&hg, 4);
            assert_eq!(clustering_fingerprint(&ca), clustering_fingerprint(&cg));
        }
        check(&mixed_points(600), 0.6);
        check(&nd_points::<3>(400, 3.0), 0.7);
    }

    #[test]
    fn shared_kernel_overrides_tree_request() {
        let data = mixed_points(400);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(
            &device,
            HybridConfig {
                kernel: KernelChoice::Shared,
                backend: IndexBackend::Tree,
                ..HybridConfig::default()
            },
        );
        let r = hybrid.run(&data, 0.7, 4).unwrap();
        assert_eq!(r.gpu.backend.chosen, ChosenBackend::Grid);
        assert_eq!(r.gpu.backend.reason, "shared-kernel");
        let grid = GridIndex::build(&data, 0.7);
        let direct = Dbscan::new(4).run(&GridSource::new(&grid, &data));
        assert!(r.clustering.equivalent_to(&direct));
    }

    #[test]
    fn nd_overflow_recovery_matches_unbatched_table() {
        // Tiny static buffers overflow the first pass; the exact replan
        // (HybridConfig::max_retries, not a hard-coded bound) recovers.
        let data = nd_points::<3>(300, 2.0);
        let cfg = HybridConfig {
            backend: IndexBackend::Tree,
            batch: BatchConfig {
                alpha: -0.9,
                sample_fraction: 1.0,
                static_threshold: 0,
                static_buffer_items: 64,
                n_streams: 3,
            },
            max_retries: 16,
            ..HybridConfig::default()
        };
        let h = build_with(cfg, &data, 0.8);
        assert!(h.gpu.retries > 0, "undersized plan must trigger retries");
        assert!(h.gpu.discarded_batches > 0);
        let reference = build_with(HybridConfig::default(), &data, 0.8);
        assert_eq!(
            table_fingerprint(&h.table),
            table_fingerprint(&reference.table)
        );
    }

    #[test]
    fn nd_retries_honor_max_retries() {
        let data = nd_points::<3>(300, 2.0);
        let cfg = HybridConfig {
            batch: BatchConfig {
                alpha: -0.9,
                sample_fraction: 1.0,
                static_threshold: 0,
                static_buffer_items: 64,
                n_streams: 3,
            },
            max_retries: 0,
            ..HybridConfig::default()
        };
        let err = HybridDbscan::new(&Device::k20c(), cfg)
            .build_table(&data, 0.8)
            .err()
            .expect("a forced overflow with no retries must fail");
        assert!(
            matches!(err, HybridError::RetriesExhausted { attempts: 1 }),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "cell schedule")]
    fn shared_kernel_rejects_nd_input() {
        let cfg = HybridConfig {
            kernel: KernelChoice::Shared,
            ..HybridConfig::default()
        };
        let _ = HybridDbscan::new(&Device::k20c(), cfg).build_table(&nd_points::<3>(50, 2.0), 0.5);
    }
}
