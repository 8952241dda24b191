//! **Micro-benchmarks of the hot-path stages** — the `micro` workloads of
//! `repro bench`.
//!
//! The suite workloads time the whole pipeline; these isolate the stages
//! the data-layout work targets, so a layout regression shows up in the
//! stage that caused it instead of being averaged into `build_table`:
//!
//! * `grid_build_dense` / `grid_build_sparse` — [`GridIndex`]
//!   construction forced to each layout on the same dataset/ε, making
//!   the sparse build's cost visible next to the dense counting sort.
//! * `kernel_global` / `kernel_shared` — one unbatched simulated launch
//!   of each ε-neighborhood kernel (host wall time of the simulation;
//!   the modeled device time is deterministic and covered by the suite).
//! * `table_ingest` — [`NeighborTableBuilder`] fed the full sorted result
//!   set as one batch: `new` + `ingest_batch` + `finalize`.
//!
//! All micro stages are host wall-clock, so the regression gate treats
//! them as advisory drift (never gating), and `compare` against an older
//! baseline that predates them simply skips them — baselines only gain
//! the micro rows when refreshed per DESIGN.md §10.

use crate::common::DatasetCache;
use crate::harness::{suite_row, S1_ROW};
use gpu_sim::memory::DeviceAppendBuffer;
use gpu_sim::Device;
use hybrid_dbscan_core::kernels::{GpuCalcGlobal, GpuCalcShared, NeighborPair};
use hybrid_dbscan_core::table::NeighborTableBuilder;
use obs::bench::WorkloadResult;
use obs::stats;
use spatial::presort::spatial_sort;
use spatial::{GridIndex, GridLayout, PointStore};
use std::time::Instant;

/// Compare key of the micro workload (stable across PRs, like suite ids).
/// Its dataset and ε are the S1 row's ([`crate::harness::S1_ROW`]).
pub const MICRO_ID: &str = "micro/sw1-eps0.2";

/// The stages a micro workload reports (all wall-clock/advisory).
pub const MICRO_STAGES: &[&str] = &[
    "grid_build_dense",
    "grid_build_sparse",
    "kernel_global",
    "kernel_shared",
    "table_ingest",
];

/// Run the micro workload: `warmup` discarded passes, then `trials` timed
/// passes over every stage.
pub fn run_micro(
    device: &Device,
    cache: &mut DatasetCache,
    warmup: usize,
    trials: usize,
) -> WorkloadResult {
    let s1 = suite_row(S1_ROW);
    let data = spatial_sort(&cache.get(s1.dataset).points);
    let eps = s1.eps;
    let trials = trials.max(1);

    // Shared fixtures for the kernel and ingest stages (built once; their
    // construction is timed by the grid-build stages).
    let grid = GridIndex::build(&data, eps);
    let store = PointStore::from_points(&data);
    let cap = result_capacity(device, &store, &grid, eps);

    let mut ms: std::collections::BTreeMap<&str, Vec<f64>> =
        MICRO_STAGES.iter().map(|&s| (s, Vec::new())).collect();
    let mut pairs_sorted: Vec<(u32, u32)> = Vec::new();

    for i in 0..warmup + trials {
        let keep = i >= warmup;
        let mut record = |stage: &str, t0: Instant| {
            if keep {
                ms.get_mut(stage)
                    .unwrap()
                    .push(t0.elapsed().as_secs_f64() * 1e3);
            }
        };

        let t0 = Instant::now();
        let dense = GridIndex::build_with_layout(&data, eps, GridLayout::Dense);
        record("grid_build_dense", t0);

        let t0 = Instant::now();
        let sparse = GridIndex::build_with_layout(&data, eps, GridLayout::Sparse);
        record("grid_build_sparse", t0);
        assert_eq!(dense.lookup(), sparse.lookup(), "layouts must agree");

        let mut result = DeviceAppendBuffer::<NeighborPair>::new(device, cap).unwrap();
        let gk = GpuCalcGlobal {
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
        let t0 = Instant::now();
        device.launch(gk.launch_config(256), &gk).unwrap();
        record("kernel_global", t0);
        assert!(!result.overflowed());
        pairs_sorted = result.as_filled_slice().to_vec();
        pairs_sorted.sort_unstable();

        let result = DeviceAppendBuffer::<NeighborPair>::new(device, cap).unwrap();
        let sk = GpuCalcShared {
            points: store.view(),
            grid: grid.cells_view(),
            lookup: grid.lookup(),
            geom: grid.geometry(),
            eps,
            schedule: grid.non_empty_cells(),
            result: &result,
        };
        let t0 = Instant::now();
        device.launch(sk.launch_config(256), &sk).unwrap();
        record("kernel_shared", t0);
        assert!(!result.overflowed());

        let t0 = Instant::now();
        let builder = NeighborTableBuilder::new(eps, data.len(), 1);
        builder.ingest_batch(0, &pairs_sorted);
        let table = builder.finalize();
        record("table_ingest", t0);
        assert_eq!(table.num_points(), data.len());
    }

    let mut out = WorkloadResult {
        id: MICRO_ID.to_string(),
        scenario: "micro".to_string(),
        kernel: "both".to_string(),
        minpts: 0,
        ..s1.result(data.len())
    };
    for (stage, samples) in &ms {
        out.stages
            .insert((*stage).to_string(), stats::summarize(samples));
    }
    out.metrics
        .insert("result_pairs".into(), pairs_sorted.len() as f64);
    out.metrics
        .insert("grid_cells".into(), grid.stats().total_cells as f64);
    out
}

/// Size the result buffer via the Section VI estimation kernel (exact at
/// stride 1) — the same approach the kernel unit tests use.
fn result_capacity(device: &Device, store: &PointStore, grid: &GridIndex, eps: f64) -> usize {
    use gpu_sim::memory::DeviceCounter;
    use hybrid_dbscan_core::kernels::NeighborCountKernel;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_workload_reports_every_stage() {
        let device = Device::k20c();
        let mut cache = DatasetCache::new(0.002);
        let wl = run_micro(&device, &mut cache, 0, 1);
        assert_eq!(wl.id, MICRO_ID);
        for stage in MICRO_STAGES {
            let s = wl
                .stages
                .get(*stage)
                .unwrap_or_else(|| panic!("missing micro stage {stage}"));
            assert_eq!(s.trials, 1);
            assert!(s.median_ms >= 0.0);
        }
        assert!(wl.metrics["result_pairs"] > 0.0);
    }
}
