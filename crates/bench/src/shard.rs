//! **Shard-scaling rows** — the sharded pipeline in the benchmark suite,
//! plus the `repro shard` smoke comparison.
//!
//! Both run the registry's shard rows ([`crate::harness::SHARD_SUITE`],
//! [`crate::harness::SHARD_SMOKE`]) through one row function,
//! [`shard_row`], over the S1 row's dataset and ε:
//!
//! * [`run_shard_workloads`] — appended to the `repro bench` suite: SW1
//!   at **10× the suite scale**, run unsharded (k = 1), 2-way concurrent,
//!   and 4-way out-of-core through a deliberately undersized device. The
//!   concurrent row records the modeled speedup over k = 1; the
//!   out-of-core row records the device-memory high-water mark against
//!   the limit the unsharded build cannot fit in. A sharded row whose
//!   fingerprints differ from the k = 1 row fails the run
//!   ([`mismatches`]) — the bench must never time a wrong answer.
//! * [`print()`] — `repro shard`: the CI smoke step. Builds the table
//!   unsharded and at k = 2 in both modes (plus k = 4 out-of-core),
//!   compares table and clustering fingerprints, and exits nonzero on
//!   any mismatch.

use crate::common::{DatasetCache, Options, TextTable};
use crate::harness::{
    self, suite_row, timed_trial, Findings, ShardRow, S1_ROW, SHARD_SMOKE, SHARD_SUITE,
};
use gpu_sim::Device;
use hybrid_dbscan_core::dbscan::cluster_table;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::shard::{ShardConfig, ShardedHybrid};
use hybrid_dbscan_core::{clustering_fingerprint, table_fingerprint};
use obs::bench::WorkloadResult;
use obs::stats;
use spatial::Point2;
use std::time::Instant;

/// The shard workloads run at 10× the suite's point counts: sharding is
/// only interesting once the dataset presses on one device.
const SCALE_FACTOR: f64 = 10.0;

/// The out-of-core device limit: one byte short of the raw point array
/// `D`. The batching scheme already adapts *buffer* sizes to whatever
/// memory is available (`BatchPlan::fit_to_memory`), so the only thing
/// that genuinely cannot shrink is the resident per-point state — capping
/// the device below `|D| × sizeof(Point2)` guarantees the unsharded
/// upload cannot even begin, while a quarter-shard (plus its ε-halo)
/// fits with room for grid and result buffers.
fn ooc_device_limit(n_points: usize) -> usize {
    n_points * std::mem::size_of::<Point2>() - 1
}

/// Build and cluster the S1 row's points under one shard row: the build
/// wall time, the modeled makespan, the footprint, and the table and
/// clustering fingerprints.
pub fn shard_row(row: &ShardRow, points: &[Point2]) -> WorkloadResult {
    let w = suite_row(S1_ROW);
    let device = if row.limited_device {
        let limit = ooc_device_limit(points.len());
        assert!(
            HybridDbscan::new(&Device::tiny(limit), HybridConfig::default())
                .build_table(points, w.eps)
                .is_err(),
            "the out-of-core device limit ({limit} B) must not fit the unsharded build"
        );
        Device::tiny(limit)
    } else {
        Device::k20c()
    };
    let cfg = ShardConfig {
        shards: row.shards,
        mode: row.mode,
        hybrid: HybridConfig::default(),
    };
    let t0 = Instant::now();
    let handle = ShardedHybrid::new(&device, cfg)
        .build_table(points, w.eps)
        .unwrap_or_else(|e| panic!("{}: sharded build failed: {e}", row.id));
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let clustering = cluster_table(&handle.table, &handle.perm, &handle.visit_order, w.minpts);

    let mut out = WorkloadResult {
        id: row.id.to_string(),
        scenario: "shard".to_string(),
        modeled_time_bits: Some(handle.modeled_time.as_secs().to_bits()),
        ..w.result(points.len())
    };
    out.stages
        .insert("build_table".into(), stats::summarize(&[build_ms]));
    out.stages.insert(
        "modeled".into(),
        stats::summarize(&[handle.modeled_time.as_millis()]),
    );
    let m = &mut out.metrics;
    m.insert("shards".into(), handle.shards.len() as f64);
    m.insert("peak_bytes".into(), handle.peak_bytes as f64);
    m.insert(
        "halo_points".into(),
        handle.shards.iter().map(|s| s.halo_points).sum::<usize>() as f64,
    );
    m.insert(
        "result_pairs".into(),
        handle.shards.iter().map(|s| s.result_pairs).sum::<usize>() as f64,
    );
    if row.limited_device {
        let limit = ooc_device_limit(points.len());
        assert!(
            handle.peak_bytes <= limit,
            "out-of-core peak {} exceeded the {limit} B device limit",
            handle.peak_bytes
        );
        m.insert("device_limit_bytes".into(), limit as f64);
    }
    out.fingerprints
        .insert("table".into(), table_fingerprint(&handle.table));
    out.fingerprints
        .insert("clustering".into(), clustering_fingerprint(&clustering));
    out
}

/// The `repro bench` shard-scaling rows. Single-trial by design: every
/// reported stage except the wall build time is modeled, and the wall
/// time of a 10×-scale build is too expensive to repeat.
pub fn run_shard_workloads(opts: &Options) -> Vec<WorkloadResult> {
    let scale = (opts.scale * SCALE_FACTOR).min(1.0);
    let points = DatasetCache::new(scale)
        .get(suite_row(S1_ROW).dataset)
        .points
        .clone();
    let mut rows: Vec<WorkloadResult> = SHARD_SUITE
        .iter()
        .map(|row| shard_row(row, &points))
        .collect();
    // The 2-shard concurrent speedup over k = 1 is the shard-scaling
    // headline (modeled time = slowest shard).
    let modeled_s = |r: &WorkloadResult| f64::from_bits(r.modeled_time_bits.unwrap_or_default());
    let speedup = modeled_s(&rows[0]) / modeled_s(&rows[1]);
    rows[1].metrics.insert("speedup_vs_k1".into(), speedup);
    eprintln!(
        "# shard: 2-shard modeled speedup {speedup:.2}x over k=1; \
         out-of-core peak {:.1} MiB within the {:.1} MiB limit",
        rows[2].metrics["peak_bytes"] / (1024.0 * 1024.0),
        rows[2].metrics["device_limit_bytes"] / (1024.0 * 1024.0),
    );
    rows
}

/// Suite shard rows whose table or clustering differs from the unsharded
/// k = 1 row's.
pub fn mismatches(rows: &[WorkloadResult]) -> Vec<String> {
    let mut shard = rows
        .iter()
        .filter(|r| SHARD_SUITE.iter().any(|s| s.id == r.id));
    match shard.next() {
        Some(k1) => harness::mismatches(k1, shard, &[]),
        None => Vec::new(),
    }
}

/// `repro shard` — the CI smoke step: sharded vs unsharded fingerprint
/// comparison, fatal on any mismatch. Writes `SHARD_fingerprints.json`.
/// Returns the process exit code.
pub fn print(opts: &Options) -> i32 {
    println!("== Shard smoke: sharded vs unsharded fingerprints (fatal on mismatch) ==\n");
    let w = suite_row(S1_ROW);
    let points = DatasetCache::new(opts.scale).get(w.dataset).points.clone();

    let unsharded = timed_trial(
        &HybridDbscan::new(&Device::k20c(), HybridConfig::default()),
        &points,
        w,
    );
    let mut reference = WorkloadResult {
        id: "unsharded".into(),
        ..WorkloadResult::default()
    };
    let fps = &mut reference.fingerprints;
    fps.insert("table".into(), table_fingerprint(&unsharded.handle.table));
    fps.insert(
        "clustering".into(),
        clustering_fingerprint(&unsharded.clustering),
    );

    let mut findings = Findings::default();
    let mut t = TextTable::new(&[
        "config", "modeled", "peak MiB", "halo pts", "table", "clusters",
    ]);
    let mut rows = Vec::new();
    for row in SHARD_SMOKE {
        let mut r = shard_row(row, &points);
        let verdict = |name: &str| {
            if r.fingerprints[name] == reference.fingerprints[name] {
                "match"
            } else {
                "MISMATCH"
            }
        };
        t.row(vec![
            r.id.clone(),
            format!("{:.2} ms", r.stages["modeled"].median_ms),
            format!("{:.1}", r.metrics["peak_bytes"] / (1024.0 * 1024.0)),
            r.metrics["halo_points"].to_string(),
            verdict("table").to_string(),
            verdict("clustering").to_string(),
        ]);
        let mismatch = harness::mismatches(&reference, [&r], &[]);
        r.metrics.insert(
            "matches_reference".into(),
            f64::from(u8::from(mismatch.is_empty())),
        );
        findings.fatal.extend(mismatch);
        // The smoke's ledger series are the modeled stage and the
        // fingerprint verdict; the wall time and |R| belong to the bench
        // rows.
        r.stages.retain(|stage, _| stage == "modeled");
        r.metrics.remove("result_pairs");
        rows.push(r);
    }
    t.print();
    println!(
        "\n# unsharded reference: table {:016x}, clustering {:016x}",
        reference.fingerprints["table"], reference.fingerprints["clustering"]
    );
    if findings.fatal.is_empty() {
        println!("# shard: all sharded fingerprints match the unsharded build");
    }
    let doc = harness::bench_doc(opts, 1, 0, rows);
    harness::finish(
        opts,
        "shard",
        None,
        "SHARD_fingerprints.json",
        &doc,
        findings,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion, in miniature: the 10× shard workloads
    /// complete (the out-of-core one under a device limit the unsharded
    /// build provably exceeds — asserted inside `shard_row`), every
    /// sharded row reproduces the k = 1 answer, and the 2-shard row
    /// reports a real modeled speedup.
    #[test]
    fn shard_workloads_complete_and_scale() {
        let opts = Options {
            scale: 0.002,
            trials: 1,
            warmup: 0,
            ..Options::default()
        };
        let rows = run_shard_workloads(&opts);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].id, "shard/sw1-10x-eps0.2/k1");
        let speedup = rows[1].metrics["speedup_vs_k1"];
        assert!(
            speedup >= 1.6,
            "2-shard modeled speedup {speedup:.2}x below the 1.6x floor"
        );
        assert!(rows[2].metrics["peak_bytes"] <= rows[2].metrics["device_limit_bytes"]);
        for row in &rows {
            assert!(row.stages["modeled"].median_ms > 0.0);
            assert_eq!(row.fingerprints.len(), 2, "{}", row.id);
        }
        assert!(mismatches(&rows).is_empty(), "{:?}", mismatches(&rows));

        // A sharded row with a different clustering is named, and only it.
        let mut bad = rows.clone();
        *bad[2].fingerprints.get_mut("clustering").unwrap() ^= 1;
        let found = mismatches(&bad);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("shard/sw1-10x-eps0.2/k4-outofcore: clustering"));
    }
}
