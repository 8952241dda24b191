//! The traced replay of one table build and one DBSCAN, layer by layer.
//!
//! `HybridDbscan::build_table` runs its layers inside one call (and its
//! batches on overlapping stream workers), so the benchmark times each
//! layer by calling that layer's public functions itself, in the order
//! the build does, with a span around each call:
//!
//! 1. `spatial_sort_permutation`
//! 2. `select_backend`
//! 3. `GridIndex::build` or `PackedKdTree::build`
//! 4. `DeviceBuffer::from_host`
//! 5. `NeighborCountKernel` or `TreeCountKernel`
//! 6. `BatchConfig::plan`
//! 7. per batch: `GpuCalcGlobal` or `GpuCalcTree`, `thrust::sort_by_key`,
//!    the D2H download and `NeighborTableBuilder::ingest_batch`
//! 8. `NeighborTableBuilder::finalize`
//! 9. `Dbscan::run_with_order`
//!
//! The batches run on one worker per stream, as in the build. The caller checks that the
//! replayed table and labels equal the untraced ones bit for bit, so the
//! per-layer numbers describe the same work.

use gpu_sim::hostmem::PinnedBuffer;
use gpu_sim::memory::{DeviceAppendBuffer, DeviceBuffer, DeviceCounter};
use gpu_sim::{thrust, Device, DeviceError};
use hybrid_dbscan_core::backend::{select_backend, ChosenBackend};
use hybrid_dbscan_core::batch::BatchPlan;
use hybrid_dbscan_core::dbscan::TableSource;
use hybrid_dbscan_core::hybrid::{HybridError, KernelChoice};
use hybrid_dbscan_core::kernels::{
    GpuCalcGlobal, GpuCalcTree, NeighborCountKernel, NeighborPair, TreeCountKernel,
};
use hybrid_dbscan_core::table::{NeighborTable, NeighborTableBuilder};
use hybrid_dbscan_core::{Clustering, Dbscan, HybridDbscan};
use obs::Recorder;
use spatial::grid::CellsView;
use spatial::presort::spatial_sort_permutation;
use spatial::{
    CellRange, GridGeometry, GridIndex, PackedKdTree, Point2, PointStore, PointsViewN, TreeView,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Wall milliseconds per layer, summed over a build's calls.
#[derive(Debug, Default, Clone)]
pub struct Walls(BTreeMap<&'static str, f64>);

impl Walls {
    /// Milliseconds recorded under `layer` (0 if none).
    pub fn get(&self, layer: &str) -> f64 {
        self.0.get(layer).copied().unwrap_or(0.0)
    }

    /// Milliseconds along the build: every layer, with the batch region
    /// counted by its own wall instead of its overlapping per-op walls.
    pub fn critical_sum(&self) -> f64 {
        self.0
            .iter()
            .filter(|(layer, _)| !BATCH_OPS.contains(layer))
            .map(|(_, ms)| ms)
            .sum()
    }

    fn add(&mut self, layer: &'static str, d: std::time::Duration) {
        *self.0.entry(layer).or_default() += d.as_secs_f64() * 1e3;
    }
}

/// The per-batch layers, which run concurrently on the stream workers.
pub const BATCH_OPS: [&str; 4] = ["kernel", "sort", "d2h", "ingest"];

/// Opens a span around each layer call and adds its wall time to
/// [`Walls`]. Every span carries the job id.
struct Tracer<'a> {
    rec: &'a Recorder,
    job: u64,
    walls: Walls,
}

impl Tracer<'_> {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let mut span = self.rec.span(layer, "layer");
        span.arg("job", self.job);
        let t = Instant::now();
        let out = f();
        self.walls.add(layer, t.elapsed());
        drop(span);
        out
    }
}

/// A table rebuilt by the replay, in the same sorted-id space as
/// `TableHandle`.
pub struct ReplayedTable {
    pub table: NeighborTable,
    pub perm: Vec<u32>,
    pub visit_order: Vec<u32>,
    /// Whether the tree backend ran.
    pub tree: bool,
    /// Mean points per non-empty grid cell or per tree leaf.
    pub points_per_cell: f64,
    pub walls: Walls,
}

/// The host-side ε-search index, before its upload.
enum HostIndex {
    Grid(GridIndex),
    Tree(PackedKdTree<2>),
}

/// The device-resident ε-search structure the kernels read.
enum Index {
    Grid {
        geom: GridGeometry,
        ranges: DeviceBuffer<CellRange>,
        /// Present for the sparse layout only.
        keys: Option<DeviceBuffer<u32>>,
        lookup: DeviceBuffer<u32>,
    },
    Tree {
        splits: DeviceBuffer<f64>,
        axes: DeviceBuffer<u32>,
        ranges: DeviceBuffer<CellRange>,
        ids: DeviceBuffer<u32>,
    },
}

/// Borrowed kernel-facing view of an [`Index`].
#[derive(Clone, Copy)]
enum View<'a> {
    Grid {
        cells: CellsView<'a>,
        lookup: &'a [u32],
        geom: GridGeometry,
    },
    Tree(TreeView<'a>),
}

impl Index {
    /// Upload the host index, as `build_table`'s H2D step does.
    fn upload(device: &Device, host: HostIndex) -> Result<Index, DeviceError> {
        fn up<T: Copy>(device: &Device, host: &[T]) -> Result<DeviceBuffer<T>, DeviceError> {
            DeviceBuffer::from_host(device, host, false).map(|(buf, _)| buf)
        }
        Ok(match host {
            HostIndex::Grid(grid) => {
                let (ranges, keys) = match grid.cells_view() {
                    CellsView::Dense(ranges) => (up(device, ranges)?, None),
                    CellsView::Sparse { keys, ranges } => {
                        (up(device, ranges)?, Some(up(device, keys)?))
                    }
                };
                Index::Grid {
                    geom: grid.geometry(),
                    ranges,
                    keys,
                    lookup: up(device, grid.lookup())?,
                }
            }
            HostIndex::Tree(tree) => {
                let v = tree.view();
                Index::Tree {
                    splits: up(device, v.splits)?,
                    axes: up(device, v.axes)?,
                    ranges: up(device, v.ranges)?,
                    ids: up(device, v.ids)?,
                }
            }
        })
    }

    fn view(&self) -> View<'_> {
        match self {
            Index::Grid {
                geom,
                ranges,
                keys,
                lookup,
            } => View::Grid {
                cells: match keys {
                    None => CellsView::Dense(ranges.as_slice()),
                    Some(keys) => CellsView::Sparse {
                        keys: keys.as_slice(),
                        ranges: ranges.as_slice(),
                    },
                },
                lookup: lookup.as_slice(),
                geom: *geom,
            },
            Index::Tree {
                splits,
                axes,
                ranges,
                ids,
            } => View::Tree(TreeView {
                splits: splits.as_slice(),
                axes: axes.as_slice(),
                ranges: ranges.as_slice(),
                ids: ids.as_slice(),
            }),
        }
    }
}

/// Replay `hybrid.build_table(data, eps)` layer by layer under job id
/// `job`. `executed` is the batch plan the untraced build ran last: when
/// the first plan overflows, the replay retries with it. Only the global
/// kernel is replayed: every workload uses it.
pub fn build(
    hybrid: &HybridDbscan,
    data: &[Point2],
    eps: f64,
    executed: BatchPlan,
    rec: &Recorder,
    job: u64,
) -> Result<ReplayedTable, HybridError> {
    let cfg = *hybrid.config();
    assert_eq!(
        cfg.kernel,
        KernelChoice::Global,
        "the replay covers the global kernel"
    );
    let device = hybrid.device();
    let n = data.len();
    let mut tr = Tracer {
        rec,
        job,
        walls: Walls::default(),
    };

    let (perm, sorted, visit_order) = tr.time("presort", || {
        let perm = spatial_sort_permutation(data);
        let sorted = perm.apply(data);
        let mut visit_order = vec![0u32; n];
        for (k, &orig) in perm.as_slice().iter().enumerate() {
            visit_order[orig as usize] = k as u32;
        }
        (perm.as_slice().to_vec(), sorted, visit_order)
    });
    let decision = tr.time("select", || {
        select_backend(cfg.backend, false, &sorted, eps)
    });
    let tree = decision.chosen == ChosenBackend::Tree;

    let (store, host_index) = tr.time("index_build", || {
        let store = PointStore::from_points(&sorted);
        let index = if tree {
            HostIndex::Tree(PackedKdTree::build(PointsViewN::from(store.view())))
        } else {
            HostIndex::Grid(GridIndex::build(&sorted, eps))
        };
        (store, index)
    });
    let points_per_cell = match &host_index {
        HostIndex::Grid(grid) => grid.stats().avg_points_per_non_empty_cell,
        HostIndex::Tree(tree) => n as f64 / tree.stats().leaves.max(1) as f64,
    };

    let (_d_buf, index) = tr.time("h2d", || -> Result<_, DeviceError> {
        let (d_buf, _) = DeviceBuffer::from_host(device, &sorted, false)?;
        Ok((d_buf, Index::upload(device, host_index)?))
    })?;
    let view = index.view();

    let e_b = tr.time("estimate", || -> Result<u64, DeviceError> {
        let counter = DeviceCounter::new(device)?;
        let stride = cfg.batch.stride_for(n);
        match view {
            View::Grid {
                cells,
                lookup,
                geom,
            } => {
                let k = NeighborCountKernel {
                    points: store.view(),
                    grid: cells,
                    lookup,
                    geom,
                    eps,
                    stride,
                    counter: &counter,
                };
                device.launch(k.launch_config(cfg.block_dim), &k)?;
            }
            View::Tree(tree) => {
                let k = TreeCountKernel {
                    points: PointsViewN::from(store.view()),
                    tree,
                    eps,
                    stride,
                    counter: &counter,
                };
                device.launch(k.launch_config(cfg.block_dim), &k)?;
            }
        }
        Ok(counter.get())
    })?;

    let pair_bytes = std::mem::size_of::<NeighborPair>();
    let mut plan = tr.time("plan", || -> Result<BatchPlan, DeviceError> {
        let plan = cfg.batch.plan(e_b, n);
        let n_buffers = cfg.batch.n_streams.min(plan.n_batches).max(1);
        let available = device.available_bytes();
        plan.fit_to_memory(available - available / 10, pair_bytes, n_buffers)
            .ok_or(DeviceError::OutOfMemory {
                requested_bytes: pair_bytes,
                available_bytes: available,
            })
    })?;

    // A build whose buffers overflowed replays that discarded pass too,
    // then the plan the untraced build finally executed.
    let pass = Pass {
        device,
        block_dim: cfg.block_dim,
        n_streams: cfg.batch.n_streams,
        view,
        store: &store,
        eps,
    };
    let builder = loop {
        let (builder, overflowed) = pass.run(&mut tr, &plan)?;
        if !overflowed {
            break builder;
        }
        if plan == executed {
            return Err(HybridError::RetriesExhausted { attempts: 1 });
        }
        plan = executed;
    };
    let table = tr.time("finalize", || builder.finalize());

    Ok(ReplayedTable {
        table,
        perm,
        visit_order,
        tree,
        points_per_cell,
        walls: tr.walls,
    })
}

/// What one pass over the batches needs besides its plan.
struct Pass<'a> {
    device: &'a Device,
    block_dim: u32,
    n_streams: usize,
    view: View<'a>,
    store: &'a PointStore,
    eps: f64,
}

impl Pass<'_> {
    /// Run every batch of `plan` on one worker per stream, each taking
    /// batches `l ≡ stream (mod n_buffers)` in order, as `build_table`
    /// runs them. Returns the filled builder and whether any buffer
    /// overflowed. Per-op walls on concurrent streams overlap, so the
    /// batch region's own wall is recorded as `batches` for the layer sum.
    fn run(
        &self,
        tr: &mut Tracer<'_>,
        plan: &BatchPlan,
    ) -> Result<(NeighborTableBuilder, bool), HybridError> {
        let Pass {
            device,
            block_dim,
            view,
            store,
            eps,
            ..
        } = *self;
        let n_buffers = self.n_streams.min(plan.n_batches).max(1);
        let (mut dev_bufs, mut stages) = tr.time("plan", || -> Result<_, DeviceError> {
            let stages: Vec<PinnedBuffer<NeighborPair>> = (0..n_buffers)
                .map(|_| PinnedBuffer::new(device, plan.buffer_items))
                .collect();
            let dev_bufs = (0..n_buffers)
                .map(|_| DeviceAppendBuffer::new(device, plan.buffer_items))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((dev_bufs, stages))
        })?;

        let n_b = plan.n_batches;
        let builder = NeighborTableBuilder::new(eps, store.len(), n_b);
        let overflowed = AtomicBool::new(false);
        let (rec, job) = (tr.rec, tr.job);
        let worker = |stream: usize,
                      buf: &mut DeviceAppendBuffer<NeighborPair>,
                      stage: &mut PinnedBuffer<NeighborPair>|
         -> Result<Walls, DeviceError> {
            let mut tr = Tracer {
                rec,
                job,
                walls: Walls::default(),
            };
            for l in (stream..n_b).step_by(n_buffers) {
                buf.reset();
                tr.time("kernel", || -> Result<(), DeviceError> {
                    let result = &*buf;
                    match view {
                        View::Grid {
                            cells,
                            lookup,
                            geom,
                        } => {
                            let k = GpuCalcGlobal {
                                points: store.view(),
                                grid: cells,
                                lookup,
                                geom,
                                eps,
                                batch: l,
                                n_batches: n_b,
                                result,
                                skip_dense_at: None,
                            };
                            device.launch(k.launch_config(block_dim), &k)?;
                        }
                        View::Tree(tree) => {
                            let k = GpuCalcTree {
                                points: PointsViewN::from(store.view()),
                                tree,
                                eps,
                                batch: l,
                                n_batches: n_b,
                                result,
                            };
                            device.launch(k.launch_config(block_dim), &k)?;
                        }
                    }
                    Ok(())
                })?;
                if buf.overflowed() {
                    overflowed.store(true, Ordering::Relaxed);
                    continue;
                }
                tr.time("sort", || {
                    thrust::sort_by_key(device, buf.as_filled_mut_slice())
                });
                let (staged, _) = tr.time("d2h", || buf.download_into(stage));
                tr.time("ingest", || {
                    builder.ingest_batch(l, &stage.as_slice()[..staged])
                });
            }
            Ok(tr.walls)
        };

        let streams = dev_bufs.iter_mut().zip(stages.iter_mut()).enumerate();
        let region = Instant::now();
        let per_stream: Vec<Result<Walls, DeviceError>> = if n_buffers > 1
            && rayon::current_num_threads() > 1
        {
            let slots: Vec<Mutex<Option<Result<Walls, DeviceError>>>> =
                (0..n_buffers).map(|_| Mutex::new(None)).collect();
            rayon::scope(|s| {
                for ((stream, (buf, stage)), slot) in streams.zip(&slots) {
                    let worker = &worker;
                    s.spawn(move |_| {
                        *slot.lock().expect("no worker panicked") = Some(worker(stream, buf, stage))
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("no worker panicked")
                        .expect("every stream worker ran")
                })
                .collect()
        } else {
            streams
                .map(|(stream, (buf, stage))| worker(stream, buf, stage))
                .collect()
        };
        tr.walls.add("batches", region.elapsed());
        for walls in per_stream {
            for (layer, ms) in walls?.0 {
                *tr.walls.0.entry(layer).or_default() += ms;
            }
        }
        Ok((builder, overflowed.into_inner()))
    }
}

/// Replay `cluster_with_table` on a replayed table under job id `job`:
/// labels in caller order and the wall milliseconds of the layer.
pub fn dbscan(t: &ReplayedTable, minpts: usize, rec: &Recorder, job: u64) -> (Clustering, f64) {
    let mut tr = Tracer {
        rec,
        job,
        walls: Walls::default(),
    };
    let clustering = tr.time("dbscan", || {
        Dbscan::new(minpts)
            .run_with_order(&TableSource::new(&t.table), Some(&t.visit_order))
            .unpermute(&t.perm)
    });
    (clustering, tr.walls.get("dbscan"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_dbscan_core::batch::BatchConfig;
    use hybrid_dbscan_core::{table_fingerprint, HybridConfig, IndexBackend};

    /// A negative α sizes the first pass's buffers below the estimate, so
    /// the untraced build must retry; the replay must then replay the
    /// overflowing pass and the executed plan and still rebuild the same
    /// table.
    #[test]
    fn replays_a_build_that_overflowed() {
        let data = crate::make_inputs(crate::Workload::S1SingleSdss2, 1, 0.001);
        let config = HybridConfig {
            backend: IndexBackend::Auto,
            batch: BatchConfig {
                alpha: -0.25,
                ..Default::default()
            },
            ..Default::default()
        };
        let hybrid = HybridDbscan::new(&Device::k20c(), config);
        let eps = 0.07;
        for threads in [1, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the rayon pool builds");
            pool.install(|| {
                let handle = hybrid.build_table(&data, eps).expect("the build retries");
                assert!(handle.gpu.retries > 0, "the first pass must overflow");
                let rec = Recorder::new();
                let replayed =
                    build(&hybrid, &data, eps, handle.gpu.plan, &rec, 1).expect("the replay");
                assert_eq!(
                    table_fingerprint(&replayed.table),
                    table_fingerprint(&handle.table)
                );
                assert!(replayed.walls.get("batches") > 0.0);
            });
        }
    }
}
