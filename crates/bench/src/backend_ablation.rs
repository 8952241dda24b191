//! **Backend ablation** — grid vs tree vs auto ε-search, 2-D and d > 2.
//!
//! Two entry points, mirroring [`crate::shard`]:
//!
//! * [`run_backend_workloads`] — appended to the `repro bench` suite:
//!   each ablation workload (skewed SW1, uniform SDSS1, skewed-exp SKX1,
//!   jittered 3-D and 4-D lattices) runs under all three `IndexBackend`
//!   settings. Every backend's neighbor table and clustering must be
//!   fingerprint-identical (the bench never times a wrong answer); what
//!   differs — and what this ablation measures — is the *modeled* device
//!   time. Each auto row records whether the selector picked the
//!   backend the modeled times say is faster. Every workload, 2-D or
//!   N-D, goes through the same `HybridDbscan::build_table`, so every
//!   modeled time is a 3-stream makespan and the rows compare like for
//!   like across dimensions.
//! * [`print`] — `repro backend`: the CI smoke step. Runs the ablation,
//!   prints the per-workload grid/tree/auto comparison, and exits
//!   nonzero on any fingerprint mismatch, or — under `BENCH_STRICT=1` —
//!   when the auto selector matches the per-workload winner on fewer
//!   than [`AUTO_MATCH_FLOOR`] of the workloads.

use crate::common::{DatasetCache, Options, TextTable};
use crate::stats;
use gpu_sim::time::SimDuration;
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, HybridError, TableHandle};
use hybrid_dbscan_core::{clustering_fingerprint, table_fingerprint, IndexBackend};
use obs::bench::WorkloadResult;
use std::time::Instant;

/// The acceptance floor for the auto selector: it must pick the
/// modeled-time winner on at least this fraction of ablation workloads.
pub const AUTO_MATCH_FLOOR: f64 = 0.9;

/// What the ablation clusters.
#[derive(Debug, Clone, Copy)]
enum AblationData {
    /// A registered 2-D dataset, by name.
    Named(&'static str),
    /// A jittered D-dimensional lattice: `full_size` points at scale 1,
    /// unit spacing, `jitter` of a spacing of Gaussian displacement.
    Lattice {
        d: usize,
        full_size: usize,
        jitter: f64,
        seed: u64,
    },
}

/// One ablation workload; each runs under grid, tree, and auto.
#[derive(Debug, Clone, Copy)]
pub struct AblationWorkload {
    pub id: &'static str,
    data: AblationData,
    pub eps: f64,
    pub minpts: usize,
}

/// The fixed ablation set: both 2-D density regimes the selector
/// separates (uniform SDSS, skewed SW, strongly skewed SKX), plus the
/// d > 2 lattices where the grid's 3^D stencil over-scans.
pub const ABLATION: &[AblationWorkload] = &[
    AblationWorkload {
        id: "backend/sdss1-eps0.2",
        data: AblationData::Named("SDSS1"),
        eps: 0.2,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/sw1-eps0.4",
        data: AblationData::Named("SW1"),
        eps: 0.4,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/skx1-eps1.0",
        data: AblationData::Named("SKX1"),
        eps: 1.0,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/lat3-eps3.0",
        data: AblationData::Lattice {
            d: 3,
            full_size: 1_000_000,
            jitter: 0.25,
            seed: 0x1a73,
        },
        eps: 3.0,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/lat4-eps2.0",
        data: AblationData::Lattice {
            d: 4,
            full_size: 500_000,
            jitter: 0.25,
            seed: 0x1a74,
        },
        eps: 2.0,
        minpts: 4,
    },
];

/// One backend's run of one workload.
struct BackendRun {
    backend: IndexBackend,
    /// What the selector resolved to ("grid"/"tree").
    chosen: &'static str,
    reason: &'static str,
    cell_cv: f64,
    mean_occupancy: f64,
    modeled: SimDuration,
    build_ms: f64,
    table_fp: u64,
    clustering_fp: u64,
    e_b: u64,
    n_batches: usize,
    result_pairs: usize,
    points: usize,
    clusters: usize,
}

/// Build and cluster one workload under one backend. `build` calls
/// `HybridDbscan::build_table` on the workload's points — 2-D or N-D,
/// the pipeline is the same.
fn run_backend(
    device: &Device,
    w: &AblationWorkload,
    backend: IndexBackend,
    points: usize,
    build: impl Fn(&HybridDbscan) -> Result<TableHandle, HybridError>,
) -> BackendRun {
    let cfg = HybridConfig {
        backend,
        ..HybridConfig::default()
    };
    let t0 = Instant::now();
    let handle = build(&HybridDbscan::new(device, cfg))
        .unwrap_or_else(|e| panic!("{} ({}): {e:?}", w.id, backend.name()));
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (clustering, _) = HybridDbscan::cluster_with_table(&handle, w.minpts);
    BackendRun {
        backend,
        chosen: handle.gpu.backend.chosen.name(),
        reason: handle.gpu.backend.reason,
        cell_cv: handle.gpu.backend.cell_cv,
        mean_occupancy: handle.gpu.backend.mean_occupancy,
        modeled: handle.gpu.modeled_time,
        build_ms,
        table_fp: table_fingerprint(&handle.table),
        clustering_fp: clustering_fingerprint(&clustering),
        e_b: handle.gpu.e_b,
        n_batches: handle.gpu.n_batches,
        result_pairs: handle.gpu.result_pairs,
        points,
        clusters: clustering.num_clusters() as usize,
    }
}

/// Run one workload under all three backends, checking the cross-backend
/// fingerprint contract. Panics on a mismatch — a wrong answer must
/// never be timed (same policy as the shard workloads).
fn run_workload(
    device: &Device,
    cache: &mut DatasetCache,
    w: &AblationWorkload,
) -> Vec<BackendRun> {
    let backends = [IndexBackend::Grid, IndexBackend::Tree, IndexBackend::Auto];
    let run_all =
        |points: usize, build: &dyn Fn(&HybridDbscan) -> Result<TableHandle, HybridError>| {
            backends
                .iter()
                .map(|&b| run_backend(device, w, b, points, build))
                .collect::<Vec<_>>()
        };
    let runs = match w.data {
        AblationData::Named(name) => {
            let points = cache.get(name).points.clone();
            run_all(points.len(), &|h| h.build_table(&points, w.eps))
        }
        AblationData::Lattice {
            d,
            full_size,
            jitter,
            seed,
        } => {
            let n = ((full_size as f64 * cache.scale()).round() as usize).max(64);
            eprintln!("# generating {}: {n} points ({d}-D lattice)…", w.id);
            match d {
                3 => {
                    let data = datasets::lattice_nd::<3>(n, 1.0, jitter, seed);
                    run_all(data.len(), &|h| h.build_table(&data, w.eps))
                }
                4 => {
                    let data = datasets::lattice_nd::<4>(n, 1.0, jitter, seed);
                    run_all(data.len(), &|h| h.build_table(&data, w.eps))
                }
                _ => panic!("unsupported lattice dimension {d}"),
            }
        }
    };
    for r in &runs[1..] {
        assert_eq!(
            (
                r.table_fp,
                r.clustering_fp,
                r.e_b,
                r.n_batches,
                r.result_pairs
            ),
            (
                runs[0].table_fp,
                runs[0].clustering_fp,
                runs[0].e_b,
                runs[0].n_batches,
                runs[0].result_pairs
            ),
            "{}: backend `{}` output diverges from `{}`",
            w.id,
            r.backend.name(),
            runs[0].backend.name(),
        );
    }
    runs
}

/// The modeled-time winner between the two *explicit* backends (the auto
/// row is the selector's answer, not a contestant).
fn winner(runs: &[BackendRun]) -> &'static str {
    let grid = runs
        .iter()
        .find(|r| r.backend == IndexBackend::Grid)
        .unwrap();
    let tree = runs
        .iter()
        .find(|r| r.backend == IndexBackend::Tree)
        .unwrap();
    if tree.modeled.as_secs() < grid.modeled.as_secs() {
        "tree"
    } else {
        "grid"
    }
}

fn workload_result(w: &AblationWorkload, r: &BackendRun, win: &str) -> WorkloadResult {
    let dataset = match w.data {
        AblationData::Named(name) => name.to_string(),
        AblationData::Lattice { d, .. } => format!("LAT{d}"),
    };
    let mut out = WorkloadResult {
        id: format!("{}/{}", w.id, r.backend.name()),
        scenario: "backend".to_string(),
        dataset,
        kernel: r.chosen.to_string(),
        eps: w.eps,
        minpts: w.minpts as u64,
        points: r.points as u64,
        ..WorkloadResult::default()
    };
    out.stages
        .insert("build_table".into(), stats::summarize(&[r.build_ms]));
    out.stages
        .insert("modeled".into(), stats::summarize(&[r.modeled.as_millis()]));
    out.modeled_time_bits = Some(r.modeled.as_secs().to_bits());
    out.metrics.insert("e_b".into(), r.e_b as f64);
    out.metrics.insert("batches".into(), r.n_batches as f64);
    out.metrics
        .insert("result_pairs".into(), r.result_pairs as f64);
    out.metrics.insert("clusters".into(), r.clusters as f64);
    out.metrics.insert("cell_cv".into(), r.cell_cv);
    out.metrics
        .insert("mean_occupancy".into(), r.mean_occupancy);
    out.metrics.insert(
        "winner_is_tree".into(),
        if win == "tree" { 1.0 } else { 0.0 },
    );
    if r.backend == IndexBackend::Auto {
        out.metrics.insert(
            "auto_matched_winner".into(),
            if r.chosen == win { 1.0 } else { 0.0 },
        );
    }
    out
}

/// The `repro bench` backend-ablation rows: one [`WorkloadResult`] per
/// (workload, backend). Single-trial by design — the measured quantity
/// is the deterministic modeled time; the wall build time rides along as
/// advisory context.
pub fn run_backend_workloads(opts: &Options) -> Vec<WorkloadResult> {
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let mut out = Vec::new();
    for w in ABLATION {
        let runs = run_workload(&device, &mut cache, w);
        let win = winner(&runs);
        out.extend(runs.iter().map(|r| workload_result(w, r, win)));
    }
    out
}

/// `repro backend` — the smoke entry. Returns the process exit code.
pub fn print(opts: &Options) -> i32 {
    let strict = std::env::var("BENCH_STRICT")
        .map(|v| v == "1")
        .unwrap_or(false);
    println!("== Backend ablation: grid vs tree vs auto ε-search ==");
    println!(
        "{} workloads × 3 backends at scale {}; identical tables required, modeled time compared\n",
        ABLATION.len(),
        opts.scale
    );

    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let mut t = TextTable::new(&[
        "Workload",
        "points",
        "grid",
        "tree",
        "winner",
        "auto chose",
        "match",
        "cv",
        "occ",
    ]);
    let (mut matched, mut total) = (0usize, 0usize);
    for w in ABLATION {
        let runs = run_workload(&device, &mut cache, w);
        let win = winner(&runs);
        let grid = runs
            .iter()
            .find(|r| r.backend == IndexBackend::Grid)
            .unwrap();
        let tree = runs
            .iter()
            .find(|r| r.backend == IndexBackend::Tree)
            .unwrap();
        let auto = runs
            .iter()
            .find(|r| r.backend == IndexBackend::Auto)
            .unwrap();
        total += 1;
        if auto.chosen == win {
            matched += 1;
        }
        t.row(vec![
            w.id.to_string(),
            grid.points.to_string(),
            format!("{:.2} ms", grid.modeled.as_millis()),
            format!("{:.2} ms", tree.modeled.as_millis()),
            win.to_string(),
            format!("{} ({})", auto.chosen, auto.reason),
            if auto.chosen == win { "yes" } else { "NO" }.to_string(),
            format!("{:.2}", auto.cell_cv),
            format!("{:.1}", auto.mean_occupancy),
        ]);
    }
    t.print();

    let rate = matched as f64 / total as f64;
    println!(
        "\n# auto selector matched the modeled winner on {matched}/{total} workloads ({:.0}%)",
        rate * 100.0
    );
    if rate < AUTO_MATCH_FLOOR {
        if strict {
            eprintln!(
                "# backend: auto match rate below {:.0}% (BENCH_STRICT=1 — failing)",
                AUTO_MATCH_FLOOR * 100.0
            );
            return 1;
        }
        eprintln!(
            "# backend: auto match rate below {:.0}% (advisory; set BENCH_STRICT=1 to enforce)",
            AUTO_MATCH_FLOOR * 100.0
        );
    }
    0
}
