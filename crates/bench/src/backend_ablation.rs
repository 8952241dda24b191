//! **Backend ablation** — grid vs tree vs auto ε-search, 2-D and d > 2.
//!
//! Each registry ablation workload ([`crate::harness::ABLATION`]: skewed
//! SW1, uniform SDSS1, skewed-exp SKX1, jittered 3-D and 4-D lattices)
//! runs under all three `IndexBackend` settings, one
//! [`WorkloadResult`] row per backend. Every backend's neighbor table and
//! clustering must be fingerprint-identical ([`mismatches`]); what
//! differs — and what this ablation measures — is the *modeled* device
//! time. Each auto row records whether the selector picked the backend
//! the modeled times say is faster. Every workload, 2-D or N-D, goes
//! through the same `HybridDbscan::build_table`, so every modeled time is
//! a 3-stream makespan and the rows compare like for like across
//! dimensions.
//!
//! The rows ride in the `repro bench` suite ([`run_backend_workloads`]);
//! [`print()`] is `repro backend`, the CI smoke step: it prints the
//! per-workload grid/tree/auto comparison, writes `BENCH_backend.json`,
//! and exits nonzero on any fingerprint mismatch, or — under
//! `BENCH_STRICT=1` — when the auto selector matches the per-workload
//! winner on fewer than [`AUTO_MATCH_FLOOR`] of the workloads.

use crate::common::{DatasetCache, Options, TextTable};
use crate::harness::{self, AblationData, AblationWorkload, Findings, ABLATION};
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, HybridError, TableHandle};
use hybrid_dbscan_core::{clustering_fingerprint, table_fingerprint, IndexBackend};
use obs::bench::WorkloadResult;
use obs::stats;
use std::time::Instant;

/// The acceptance floor for the auto selector: it must pick the
/// modeled-time winner on at least this fraction of ablation workloads.
pub const AUTO_MATCH_FLOOR: f64 = 0.9;

/// The backends each workload runs under, in row order.
const BACKENDS: [IndexBackend; 3] = [IndexBackend::Grid, IndexBackend::Tree, IndexBackend::Auto];

/// Build and cluster one workload under one backend. `build` calls
/// `HybridDbscan::build_table` on the workload's points — 2-D or N-D,
/// the pipeline is the same.
fn run_backend(
    device: &Device,
    w: &AblationWorkload,
    backend: IndexBackend,
    points: usize,
    build: impl Fn(&HybridDbscan) -> Result<TableHandle, HybridError>,
) -> WorkloadResult {
    let cfg = HybridConfig {
        backend,
        ..HybridConfig::default()
    };
    let t0 = Instant::now();
    let handle = build(&HybridDbscan::new(device, cfg))
        .unwrap_or_else(|e| panic!("{} ({}): {e:?}", w.id, backend.name()));
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (clustering, _) = HybridDbscan::cluster_with_table(&handle, w.minpts);
    let gpu = &handle.gpu;
    let mut out = WorkloadResult {
        id: format!("{}/{}", w.id, backend.name()),
        scenario: "backend".to_string(),
        dataset: match w.data {
            AblationData::Named(name) => name.to_string(),
            AblationData::Lattice { d, .. } => format!("LAT{d}"),
        },
        // The backend the selector resolved to ("grid"/"tree").
        kernel: gpu.backend.chosen.name().to_string(),
        eps: w.eps,
        minpts: w.minpts as u64,
        points: points as u64,
        modeled_time_bits: Some(gpu.modeled_time.as_secs().to_bits()),
        ..WorkloadResult::default()
    };
    out.stages
        .insert("build_table".into(), stats::summarize(&[build_ms]));
    out.stages.insert(
        "modeled".into(),
        stats::summarize(&[gpu.modeled_time.as_millis()]),
    );
    let m = &mut out.metrics;
    m.insert("e_b".into(), gpu.e_b as f64);
    m.insert("batches".into(), gpu.n_batches as f64);
    m.insert("result_pairs".into(), gpu.result_pairs as f64);
    m.insert("clusters".into(), clustering.num_clusters() as f64);
    m.insert("cell_cv".into(), gpu.backend.cell_cv);
    m.insert("mean_occupancy".into(), gpu.backend.mean_occupancy);
    out.fingerprints
        .insert("table".into(), table_fingerprint(&handle.table));
    out.fingerprints
        .insert("clustering".into(), clustering_fingerprint(&clustering));
    out
}

/// One workload under every backend, with the modeled-time winner
/// between the two *explicit* backends (the auto row is the selector's
/// answer, not a contestant) recorded on each row.
fn run_workload(
    device: &Device,
    cache: &mut DatasetCache,
    w: &AblationWorkload,
) -> Vec<WorkloadResult> {
    let run_all =
        |points: usize, build: &dyn Fn(&HybridDbscan) -> Result<TableHandle, HybridError>| {
            BACKENDS
                .iter()
                .map(|&b| run_backend(device, w, b, points, build))
                .collect::<Vec<_>>()
        };
    let mut rows = match w.data {
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
    let modeled_s = |r: &WorkloadResult| f64::from_bits(r.modeled_time_bits.unwrap_or_default());
    let win = if modeled_s(&rows[1]) < modeled_s(&rows[0]) {
        "tree"
    } else {
        "grid"
    };
    for row in &mut rows {
        row.metrics
            .insert("winner_is_tree".into(), f64::from(u8::from(win == "tree")));
    }
    let auto = &mut rows[2];
    let matched = f64::from(u8::from(auto.kernel == win));
    auto.metrics.insert("auto_matched_winner".into(), matched);
    rows
}

/// The backend-ablation rows: one [`WorkloadResult`] per (workload,
/// backend), grid, tree, auto in turn. Single-trial by design — the
/// measured quantity is the deterministic modeled time; the wall build
/// time rides along as advisory context.
pub fn run_backend_workloads(opts: &Options) -> Vec<WorkloadResult> {
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    ABLATION
        .iter()
        .flat_map(|w| run_workload(&device, &mut cache, w))
        .collect()
}

/// Ablation rows whose table, clustering or batch plan differs from the
/// grid row of the same workload.
pub fn mismatches(rows: &[WorkloadResult]) -> Vec<String> {
    ABLATION
        .iter()
        .flat_map(|w| {
            let mut group = rows.iter().filter(|r| {
                r.id.strip_prefix(w.id)
                    .is_some_and(|backend| backend.starts_with('/'))
            });
            match group.next() {
                Some(grid) => harness::mismatches(grid, group, &["e_b", "batches", "result_pairs"]),
                None => Vec::new(),
            }
        })
        .collect()
}

/// Print the per-workload grid/tree/auto comparison of ablation rows (as
/// [`run_backend_workloads`] orders them).
pub fn print_table(rows: &[WorkloadResult]) {
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
    for (w, runs) in ABLATION.iter().zip(rows.chunks(BACKENDS.len())) {
        let (grid, tree, auto) = (&runs[0], &runs[1], &runs[2]);
        let ok = auto.metrics["auto_matched_winner"] == 1.0;
        t.row(vec![
            w.id.to_string(),
            grid.points.to_string(),
            format!("{:.2} ms", grid.stages["modeled"].median_ms),
            format!("{:.2} ms", tree.stages["modeled"].median_ms),
            if grid.metrics["winner_is_tree"] == 1.0 {
                "tree"
            } else {
                "grid"
            }
            .to_string(),
            auto.kernel.clone(),
            if ok { "yes" } else { "NO" }.to_string(),
            format!("{:.2}", auto.metrics["cell_cv"]),
            format!("{:.1}", auto.metrics["mean_occupancy"]),
        ]);
    }
    t.print();
}

/// The ablation's gate: a row that does not reproduce its grid row is
/// always fatal; an auto selector that matches the modeled winner on
/// fewer than [`AUTO_MATCH_FLOOR`] of the workloads fails only under
/// `BENCH_STRICT=1`.
fn findings(rows: &[WorkloadResult]) -> Findings {
    let auto: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.metrics.get("auto_matched_winner").copied())
        .collect();
    let matched = auto.iter().filter(|&&m| m == 1.0).count();
    let rate = matched as f64 / auto.len().max(1) as f64;
    println!(
        "\n# auto selector matched the modeled winner on {matched}/{} workloads ({:.0}%)",
        auto.len(),
        rate * 100.0
    );
    let mut findings = Findings {
        fatal: mismatches(rows),
        ..Findings::default()
    };
    if rate < AUTO_MATCH_FLOOR {
        findings.strict.push(format!(
            "auto match rate below {:.0}%",
            AUTO_MATCH_FLOOR * 100.0
        ));
    }
    findings
}

/// `repro backend` — the smoke entry. Returns the process exit code.
pub fn print(opts: &Options) -> i32 {
    println!("== Backend ablation: grid vs tree vs auto ε-search ==");
    println!(
        "{} workloads × 3 backends at scale {}; identical tables required, modeled time compared\n",
        ABLATION.len(),
        opts.scale
    );

    let rows = run_backend_workloads(opts);
    print_table(&rows);
    let findings = findings(&rows);
    let doc = harness::bench_doc(opts, 1, 0, rows);
    harness::finish(
        opts,
        "backend",
        Some("BENCH_STRICT"),
        "BENCH_backend.json",
        &doc,
        findings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every backend gives the grid's answer on a real (tiny) run, and a
    /// row whose table or batch plan differs is named.
    #[test]
    fn backends_agree_and_a_divergent_row_is_named() {
        let opts = Options {
            scale: 0.002,
            ..Options::default()
        };
        let mut rows = run_backend_workloads(&opts);
        assert_eq!(rows.len(), BACKENDS.len() * ABLATION.len());
        assert!(mismatches(&rows).is_empty(), "{:?}", mismatches(&rows));
        for auto in rows.iter().skip(2).step_by(3) {
            assert!(auto.id.ends_with("/auto"), "{}", auto.id);
            assert!(auto.metrics.contains_key("auto_matched_winner"));
        }

        *rows[1].fingerprints.get_mut("table").unwrap() ^= 1;
        *rows.last_mut().unwrap().metrics.get_mut("e_b").unwrap() += 1.0;
        let found = mismatches(&rows);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("backend/sdss1-eps0.2/tree: table differ"));
        assert!(found[1].starts_with("backend/lat4-eps2.0/auto: e_b differ"));
        // A cross-backend mismatch is always fatal.
        assert_eq!(findings(&rows).fatal, found);
    }

    /// Auto rows matching the winner on `matched` of five workloads.
    fn auto_rows(matched: usize) -> Vec<WorkloadResult> {
        (0..5)
            .map(|i| {
                let mut r = WorkloadResult::default();
                let hit = f64::from(u8::from(i < matched));
                r.metrics.insert("auto_matched_winner".into(), hit);
                r
            })
            .collect()
    }

    #[test]
    fn auto_match_floor_is_a_strict_only_finding() {
        assert!(findings(&auto_rows(5)).strict.is_empty());
        // 4/5 = 80% is below the 90% floor: fatal only under BENCH_STRICT.
        let f = findings(&auto_rows(4));
        assert!(f.fatal.is_empty());
        assert_eq!(f.strict, ["auto match rate below 90%"]);
    }
}
