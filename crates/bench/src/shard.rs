//! **Shard-scaling workloads** — the sharded pipeline in the benchmark
//! suite, plus the `repro shard` smoke comparison.
//!
//! Two entry points:
//!
//! * [`run_shard_workloads`] — appended to the `repro bench` suite: SW1
//!   at **10× the suite scale**, run unsharded (k = 1), 2-way concurrent,
//!   and 4-way out-of-core through a deliberately undersized device. The
//!   concurrent row records the modeled speedup over k = 1; the
//!   out-of-core row records the device-memory high-water mark against
//!   the limit the unsharded build cannot fit in. Fingerprint mismatches
//!   between any sharded table and the unsharded one are fatal — the
//!   bench must never time a wrong answer.
//! * [`print`] — `repro shard`: the CI smoke step. Builds the table
//!   unsharded and at k = 2 in both modes, compares table and clustering
//!   fingerprints, and exits nonzero on any mismatch.

use crate::common::{baseline_refresh, DatasetCache, Options, TextTable};
use crate::stats;
use gpu_sim::Device;
use hybrid_dbscan_core::dbscan::cluster_table;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use hybrid_dbscan_core::shard::{ShardConfig, ShardMode, ShardedHybrid, ShardedTableHandle};
use hybrid_dbscan_core::{clustering_fingerprint, table_fingerprint};
use obs::bench::WorkloadResult;
use obs::json::JsonWriter;
use obs::ledger::{GateOutcome, LedgerEntry, LedgerRecord, StagePoint, RECORD_VERSION};
use obs::provenance::Provenance;
use spatial::Point2;
use std::time::Instant;

/// Schema id / version of `SHARD_fingerprints.json` (the smoke run's
/// provenance-stamped fingerprint artifact).
pub const SCHEMA: &str = "hybrid-dbscan/shard-fingerprints";
pub const SCHEMA_VERSION: u64 = 1;

/// The shard workload dataset and parameters (S1's SW1 pairing).
const DATASET: &str = "SW1";
const EPS: f64 = 0.2;
const MINPTS: usize = 4;

/// The shard workloads run at 10× the suite's point counts (ISSUE 8):
/// sharding is only interesting once the dataset presses on one device.
const SCALE_FACTOR: f64 = 10.0;

/// The out-of-core device limit for the k = 4 workload: one byte short
/// of the raw point array `D`. The batching scheme already adapts
/// *buffer* sizes to whatever memory is available
/// (`BatchPlan::fit_to_memory`), so the only thing that genuinely cannot
/// shrink is the resident per-point state — capping the device below
/// `|D| × sizeof(Point2)` guarantees the unsharded upload cannot even
/// begin, while a quarter-shard (plus its ε-halo) fits with room for
/// grid and result buffers.
fn ooc_device_limit(n_points: usize) -> usize {
    n_points * std::mem::size_of::<Point2>() - 1
}

fn sharded_build(
    device: &Device,
    mode: ShardMode,
    shards: usize,
    points: &[Point2],
) -> (ShardedTableHandle, f64) {
    let cfg = ShardConfig {
        shards,
        mode,
        hybrid: HybridConfig::default(),
    };
    let t0 = Instant::now();
    let handle = ShardedHybrid::new(device, cfg)
        .build_table(points, EPS)
        .unwrap_or_else(|e| panic!("sharded build (k={shards}, {mode:?}) failed: {e}"));
    (handle, t0.elapsed().as_secs_f64() * 1e3)
}

fn workload_result(
    id: &str,
    points: usize,
    handle: &ShardedTableHandle,
    build_ms: f64,
) -> WorkloadResult {
    let mut out = WorkloadResult {
        id: id.to_string(),
        scenario: "shard".to_string(),
        dataset: DATASET.to_string(),
        kernel: "global".to_string(),
        eps: EPS,
        minpts: MINPTS as u64,
        points: points as u64,
        ..WorkloadResult::default()
    };
    out.stages
        .insert("build_table".into(), stats::summarize(&[build_ms]));
    out.stages.insert(
        "modeled".into(),
        stats::summarize(&[handle.modeled_time.as_millis()]),
    );
    out.metrics
        .insert("shards".into(), handle.shards.len() as f64);
    out.metrics
        .insert("peak_bytes".into(), handle.peak_bytes as f64);
    out.metrics.insert(
        "halo_points".into(),
        handle.shards.iter().map(|s| s.halo_points).sum::<usize>() as f64,
    );
    out.metrics.insert(
        "result_pairs".into(),
        handle.shards.iter().map(|s| s.result_pairs).sum::<usize>() as f64,
    );
    out.modeled_time_bits = Some(handle.modeled_time.as_secs().to_bits());
    out
}

/// The `repro bench` shard-scaling rows. Single-trial by design: every
/// reported stage except the wall build time is modeled, and the wall
/// time of a 10×-scale build is too expensive to repeat.
pub fn run_shard_workloads(opts: &Options) -> Vec<WorkloadResult> {
    let scale = (opts.scale * SCALE_FACTOR).min(1.0);
    let mut cache = DatasetCache::new(scale);
    let points = cache.get(DATASET).points.clone();
    let mut out = Vec::new();

    // k = 1: the unsharded baseline (and the footprint measurement the
    // out-of-core device limit derives from).
    let base_device = Device::k20c();
    let (base, base_ms) = sharded_build(&base_device, ShardMode::Concurrent, 1, &points);
    let base_print = table_fingerprint(&base.table);
    out.push(workload_result(
        "shard/sw1-10x-eps0.2/k1",
        points.len(),
        &base,
        base_ms,
    ));

    // k = 2 concurrent: one device per shard, modeled time = slowest
    // shard. The speedup over k = 1 is the shard-scaling headline.
    let (conc, conc_ms) = sharded_build(&Device::k20c(), ShardMode::Concurrent, 2, &points);
    assert_eq!(
        table_fingerprint(&conc.table),
        base_print,
        "2-shard concurrent table diverged from unsharded"
    );
    let speedup = base.modeled_time.as_millis() / conc.modeled_time.as_millis();
    let mut wl = workload_result(
        "shard/sw1-10x-eps0.2/k2-concurrent",
        points.len(),
        &conc,
        conc_ms,
    );
    wl.metrics.insert("speedup_vs_k1".into(), speedup);
    out.push(wl);

    // k = 4 out-of-core: a device the unsharded build cannot fit in,
    // shards tiling through it sequentially.
    let limit = ooc_device_limit(points.len());
    let tiny = Device::tiny(limit);
    assert!(
        HybridDbscan::new(&tiny, HybridConfig::default())
            .build_table(&points, EPS)
            .is_err(),
        "the out-of-core device limit ({limit} B) must not fit the unsharded build"
    );
    let (ooc, ooc_ms) = sharded_build(&Device::tiny(limit), ShardMode::OutOfCore, 4, &points);
    assert_eq!(
        table_fingerprint(&ooc.table),
        base_print,
        "4-shard out-of-core table diverged from unsharded"
    );
    assert!(
        ooc.peak_bytes <= limit,
        "out-of-core peak {} exceeded the {limit} B device limit",
        ooc.peak_bytes
    );
    let mut wl = workload_result(
        "shard/sw1-10x-eps0.2/k4-outofcore",
        points.len(),
        &ooc,
        ooc_ms,
    );
    wl.metrics.insert("device_limit_bytes".into(), limit as f64);
    out.push(wl);

    eprintln!(
        "# shard: 2-shard modeled speedup {speedup:.2}x over k=1; \
         out-of-core peak {:.1} MiB within the {:.1} MiB limit",
        ooc.peak_bytes as f64 / (1024.0 * 1024.0),
        limit as f64 / (1024.0 * 1024.0),
    );
    out
}

/// `repro shard` — the CI smoke step: sharded vs unsharded fingerprint
/// comparison at k = 2 in both modes (plus k = 4 out-of-core), fatal on
/// any mismatch. Returns the process exit code.
pub fn print(opts: &Options) -> i32 {
    println!("== Shard smoke: sharded vs unsharded fingerprints (fatal on mismatch) ==\n");
    let mut cache = DatasetCache::new(opts.scale);
    let points = cache.get(DATASET).points.clone();

    let device = Device::k20c();
    let reference = HybridDbscan::new(&device, HybridConfig::default())
        .build_table(&points, EPS)
        .expect("unsharded build");
    let ref_table = table_fingerprint(&reference.table);
    let ref_clusters =
        clustering_fingerprint(&HybridDbscan::cluster_with_table(&reference, MINPTS).0);

    let mut t = TextTable::new(&[
        "config", "modeled", "peak MiB", "halo pts", "table", "clusters",
    ]);
    struct SmokeRow {
        id: String,
        shards: usize,
        mode: &'static str,
        modeled_ms: f64,
        modeled_bits: u64,
        peak_bytes: usize,
        halo_points: usize,
        table_fp: u64,
        clusters_fp: u64,
        table_ok: bool,
        clusters_ok: bool,
    }
    let mut rows: Vec<SmokeRow> = Vec::new();
    let mut failed = false;
    for (label, k, mode) in [
        ("k=2 concurrent", 2, ShardMode::Concurrent),
        ("k=2 out-of-core", 2, ShardMode::OutOfCore),
        ("k=4 out-of-core", 4, ShardMode::OutOfCore),
    ] {
        let (handle, _) = sharded_build(&Device::k20c(), mode, k, &points);
        let table_fp = table_fingerprint(&handle.table);
        let clusters_fp = clustering_fingerprint(&cluster_table(
            &handle.table,
            &handle.perm,
            &handle.visit_order,
            MINPTS,
        ));
        let table_ok = table_fp == ref_table;
        let clusters_ok = clusters_fp == ref_clusters;
        failed |= !(table_ok && clusters_ok);
        let verdict = |ok: bool| if ok { "match" } else { "MISMATCH" }.to_string();
        t.row(vec![
            label.to_string(),
            format!("{:.2} ms", handle.modeled_time.as_millis()),
            format!("{:.1}", handle.peak_bytes as f64 / (1024.0 * 1024.0)),
            handle
                .shards
                .iter()
                .map(|s| s.halo_points)
                .sum::<usize>()
                .to_string(),
            verdict(table_ok),
            verdict(clusters_ok),
        ]);
        let mode_name = match mode {
            ShardMode::Concurrent => "concurrent",
            ShardMode::OutOfCore => "outofcore",
        };
        rows.push(SmokeRow {
            id: format!("shard/smoke/k{k}-{mode_name}"),
            shards: k,
            mode: mode_name,
            modeled_ms: handle.modeled_time.as_millis(),
            modeled_bits: handle.modeled_time.as_secs().to_bits(),
            peak_bytes: handle.peak_bytes,
            halo_points: handle.shards.iter().map(|s| s.halo_points).sum(),
            table_fp,
            clusters_fp,
            table_ok,
            clusters_ok,
        });
    }
    t.print();

    let prov = Provenance::collect(
        SCHEMA,
        SCHEMA_VERSION,
        rows.iter().map(|r| r.id.clone()).collect(),
    );

    // SHARD_fingerprints.json: the provenance-stamped fingerprint witness
    // of this smoke run (fingerprints as 16-hex-digit strings — they are
    // full 64-bit patterns the JSON number space cannot carry).
    let hex = |v: u64| format!("{v:016x}");
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.field_uint("version", SCHEMA_VERSION);
    prov.write_field(&mut w);
    w.key("reference");
    w.begin_object();
    w.field_str("table_fingerprint", &hex(ref_table));
    w.field_str("clustering_fingerprint", &hex(ref_clusters));
    w.end_object();
    w.key("configs");
    w.begin_array();
    for r in &rows {
        w.begin_object();
        w.field_str("id", &r.id);
        w.field_uint("shards", r.shards as u64);
        w.field_str("mode", r.mode);
        w.field_float("modeled_ms", r.modeled_ms);
        w.field_uint("peak_bytes", r.peak_bytes as u64);
        w.field_uint("halo_points", r.halo_points as u64);
        w.field_str("table_fingerprint", &hex(r.table_fp));
        w.field_str("clustering_fingerprint", &hex(r.clusters_fp));
        w.field_bool("matches_reference", r.table_ok && r.clusters_ok);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let json = w.finish();
    if let Err(e) = obs::json::parse(&json) {
        eprintln!("# shard: INTERNAL ERROR: emitted fingerprint doc does not parse: {e}");
        return 1;
    }
    let path = opts
        .csv_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."))
        .join("SHARD_fingerprints.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("# shard: wrote {}", path.display()),
        Err(e) => eprintln!("# shard: cannot write {}: {e}", path.display()),
    }

    // Run-ledger record: fingerprint equivalence is always strict.
    let mismatches = rows
        .iter()
        .filter(|r| !(r.table_ok && r.clusters_ok))
        .count();
    let entries = rows
        .iter()
        .map(|r| {
            let mut e = LedgerEntry {
                workload: r.id.clone(),
                modeled_time_bits: Some(r.modeled_bits),
                ..LedgerEntry::default()
            };
            e.stages.insert(
                "modeled".into(),
                StagePoint {
                    median_ms: r.modeled_ms,
                    mad_ms: 0.0,
                    wall: false,
                },
            );
            let m = &mut e.metrics;
            m.insert("shards".into(), r.shards as f64);
            m.insert("peak_bytes".into(), r.peak_bytes as f64);
            m.insert("halo_points".into(), r.halo_points as f64);
            m.insert(
                "matches_reference".into(),
                f64::from(u8::from(r.table_ok && r.clusters_ok)),
            );
            e
        })
        .collect();
    opts.append_ledger(&LedgerRecord {
        version: RECORD_VERSION,
        command: "shard".into(),
        scale: opts.scale,
        baseline_refresh: baseline_refresh(),
        provenance: prov,
        gate: GateOutcome {
            strict: true,
            regressions: mismatches as u64,
            advisories: 0,
            passed: !failed,
        },
        entries,
    });

    if failed {
        eprintln!("# shard: FINGERPRINT MISMATCH — sharded output diverged from unsharded");
        1
    } else {
        println!("\n# shard: all sharded fingerprints match the unsharded build");
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion, in miniature: the 10× shard workloads
    /// complete (the out-of-core one under a device limit the unsharded
    /// build provably exceeds — asserted inside `run_shard_workloads`)
    /// and the 2-shard row reports a real modeled speedup.
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
        }
    }
}
