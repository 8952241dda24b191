//! **Thread scaling** — host-pool speedup on the fixed S1 workload.
//!
//! The rayon shim is a real work-stealing pool (see DESIGN.md, "Threading
//! model & determinism policy"); this experiment sweeps the pool size over
//! `{1, 2, 4, all}` on the S1 workload (SW1, ε = 0.2 — the Table II row)
//! and reports wall-clock per stage plus the speedup relative to one
//! thread. Each sweep point runs under
//! `ThreadPoolBuilder::num_threads(t).install(..)`, which is exactly what
//! `RAYON_NUM_THREADS=t` would give the whole process. Trials are
//! interleaved round-robin across thread counts (see [`measure_all`]) so
//! slow machine drift cannot bias the speedup columns toward whichever
//! count would otherwise run first.
//!
//! The determinism policy makes a claim this benchmark checks on every
//! run: modeled `SimDuration`s and clusterings must be **bitwise
//! identical** at every thread count — only wall-clock columns may move.
//! Results are written to `BENCH_threads.json` (under `--csv DIR` when
//! given, else the working directory).

use crate::common::{baseline_refresh, fmt_secs, DatasetCache, Options, TextTable};
use crate::table2;
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use obs::json::JsonWriter;
use obs::ledger::{GateOutcome, LedgerEntry, LedgerRecord, StagePoint, RECORD_VERSION};
use obs::provenance::Provenance;
use std::time::Instant;

/// Schema id / version of `BENCH_threads.json`. Version 2 added the
/// schema header + provenance block and moved `modeled_time_bits` to the
/// 16-hex-digit string encoding every other artifact uses (the JSON
/// number space is f64 — a raw integer cannot carry all 64 bits).
/// Version 3 dropped the disjoint-set clusterer's `disjoint_set_ms` and
/// `speedup_disjoint_set` columns; [`check_doc`] still reads version 2.
pub const SCHEMA: &str = "hybrid-dbscan/threads";
pub const SCHEMA_VERSION: u64 = 3;

/// minpts for the clustering stages (the paper's S2 sweep midpoint).
const MINPTS: usize = 4;

/// Stable ledger/compare id of one sweep point.
pub fn workload_id(dataset: &str, eps: f64, threads: usize) -> String {
    format!("threads/{}-eps{eps}/t{threads}", dataset.to_lowercase())
}

/// One sweep point: wall-clock medians over `trials` runs at `threads`
/// pool threads, plus the modeled/functional outputs whose bitwise
/// invariance the determinism policy guarantees.
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub threads: usize,
    /// Median wall-clock seconds of `build_table` (GPU-phase simulation:
    /// kernels, device sort, table ingest — all on the pool).
    pub build_table_s: f64,
    /// Median wall-clock seconds of the host DBSCAN over `T`.
    pub dbscan_s: f64,
    /// Modeled GPU-phase time (thread-count-invariant by policy).
    pub modeled_bits: u64,
    pub modeled_s: f64,
    pub clusters: usize,
    pub result_pairs: usize,
    /// Serial fraction of `build_table` from an extra profiled (untimed)
    /// run: wall time with < 2 pool tasks in flight (see `obs::analyze`).
    pub serial_fraction_build: f64,
    /// Mean per-worker busy % over the profiled window.
    pub worker_util_pct: f64,
    /// Total chunks claimed by threads other than the submitter.
    pub pool_steals: u64,
}

/// Speedup guarded against degenerate baselines: a tiny workload can
/// time a stage at ~0 s, and a raw division would put `inf`/`NaN` into
/// BENCH_threads.json. Degenerate points report 1.0 (no claim).
fn safe_speedup(base_s: f64, cur_s: f64) -> f64 {
    if !base_s.is_finite() || !cur_s.is_finite() || base_s < 1e-9 || cur_s < 1e-9 {
        1.0
    } else {
        base_s / cur_s
    }
}

/// One timed trial on an already-installed pool view: the full
/// build_table / DBSCAN chain, returning the wall times
/// and the functional outputs of this run.
fn measure_trial(points: &[spatial::Point2], eps: f64, threads: usize) -> SweepRow {
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());

    let t0 = Instant::now();
    let handle = hybrid.build_table(points, eps).expect("build_table");
    let build_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let (clustering, _) = HybridDbscan::cluster_with_table(&handle, MINPTS);
    let dbscan_s = t1.elapsed().as_secs_f64();

    SweepRow {
        threads,
        build_table_s: build_s,
        dbscan_s,
        modeled_bits: handle.gpu.modeled_time.as_secs().to_bits(),
        modeled_s: handle.gpu.modeled_time.as_secs(),
        clusters: clustering.num_clusters() as usize,
        result_pairs: handle.gpu.result_pairs,
        serial_fraction_build: 1.0,
        worker_util_pct: 0.0,
        pool_steals: 0,
    }
}

/// One extra *untimed* run under the pool profiler for the attribution
/// columns (profiling shifts wall times, so it never shares a run with
/// the timed trials). The determinism policy says instrumentation must
/// not move modeled bits — checked here on every sweep point.
fn profile_point(points: &[spatial::Point2], eps: f64, row: &mut SweepRow) {
    let device = Device::k20c();
    let rec = std::sync::Arc::new(obs::Recorder::new());
    let outer = rec.span("threads_profile", "bench");
    let profiled = HybridDbscan::new(&device, HybridConfig::default()).with_recorder(rec.clone());
    let session = rayon::profile::profile_pool();
    let handle = profiled.build_table(points, eps).expect("profiled build");
    let pool_profile = session.finish();
    drop(outer);
    assert_eq!(
        handle.gpu.modeled_time.as_secs().to_bits(),
        row.modeled_bits,
        "profiling changed modeled time bits at {} threads",
        row.threads
    );
    rec.record_pool_profile(&pool_profile);
    let analysis = obs::analyze::analyze(&rec);
    row.serial_fraction_build = analysis
        .stages
        .iter()
        .find(|s| s.name == "build_table")
        .map_or(1.0, |s| s.serial_fraction);
    row.worker_util_pct = if analysis.workers.is_empty() {
        0.0
    } else {
        analysis
            .workers
            .iter()
            .map(|w| w.utilization_pct)
            .sum::<f64>()
            / analysis.workers.len() as f64
    };
    row.pool_steals = analysis.workers.iter().map(|w| w.steals).sum();
}

/// Run the whole sweep with trials **interleaved round-robin** across
/// thread counts: trial round r runs every thread count once before
/// round r + 1 begins. Sequential per-count blocks are biased on shared
/// or CPU-quota'd runners — slow machine drift (frequency scaling, CFS
/// throttling as the sustained load accrues) lands entirely on whichever
/// count runs last, which systematically penalized the 4-thread point.
/// Interleaving makes every count sample the same drift window, so the
/// speedup columns compare like with like.
fn measure_all(points: &[spatial::Point2], eps: f64, trials: usize) -> Vec<SweepRow> {
    let counts = thread_counts();
    let pools: Vec<rayon::ThreadPool> = counts
        .iter()
        .map(|&t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool view")
        })
        .collect();
    let mut rows: Vec<Option<SweepRow>> = vec![None; counts.len()];
    let mut samples: Vec<[Vec<f64>; 2]> = counts.iter().map(|_| Default::default()).collect();
    for round in 0..trials.max(1) {
        // Rotate the starting count each round: the first pipeline of a
        // round pays one-off costs (cold allocator, page faults) that
        // would otherwise always land on the same count.
        for k in 0..pools.len() {
            let i = (round + k) % pools.len();
            let pool = &pools[i];
            let trial = pool.install(|| measure_trial(points, eps, counts[i]));
            samples[i][0].push(trial.build_table_s);
            samples[i][1].push(trial.dbscan_s);
            match &rows[i] {
                Some(acc) => assert_eq!(
                    acc.modeled_bits, trial.modeled_bits,
                    "modeled time bits changed between trials at {} threads",
                    counts[i]
                ),
                None => rows[i] = Some(trial),
            }
        }
    }
    rows.into_iter()
        .zip(&pools)
        .zip(samples)
        .map(|((row, pool), mut s)| {
            let mut row = row.expect("at least one trial");
            // Median, like the bench suite: wall times on a shared or
            // CPU-quota'd runner are right-skewed by stalls, and a mean
            // lets one throttled trial move a speedup column.
            row.build_table_s = median(&mut s[0]);
            row.dbscan_s = median(&mut s[1]);
            pool.install(|| profile_point(points, eps, &mut row));
            row
        })
        .collect()
}

/// Median of a non-empty sample (sorts in place; even lengths average
/// the middle pair).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// The sweep's thread counts: `{1, 2, 4, all}` where `all` is the
/// current configured width (`RAYON_NUM_THREADS` or the core count),
/// sorted and deduplicated.
pub fn thread_counts() -> Vec<usize> {
    let mut ts = vec![1, 2, 4, rayon::current_num_threads()];
    ts.sort_unstable();
    ts.dedup();
    ts
}

/// Run the full sweep on the S1 workload (SW1, ε from Table II).
pub fn run(opts: &Options) -> (String, f64, usize, Vec<SweepRow>) {
    let (name, eps, ..) = table2::PAPER[0]; // SW1, ε = 0.2 — scenario S1
    let mut cache = DatasetCache::new(opts.scale);
    let points = cache.get(name).points.clone();
    let rows = measure_all(&points, eps, opts.trials);
    (name.to_string(), eps, points.len(), rows)
}

/// True iff every modeled/functional output matches the 1-thread row.
pub fn bitwise_identical(rows: &[SweepRow]) -> bool {
    rows.windows(2).all(|w| {
        w[0].modeled_bits == w[1].modeled_bits
            && w[0].clusters == w[1].clusters
            && w[0].result_pairs == w[1].result_pairs
    })
}

fn render_json(
    dataset: &str,
    eps: f64,
    n_points: usize,
    opts: &Options,
    rows: &[SweepRow],
    prov: &Provenance,
) -> String {
    let base = &rows[0];
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SCHEMA);
    w.field_uint("version", SCHEMA_VERSION);
    prov.write_field(&mut w);
    w.key("workload");
    w.begin_object();
    w.field_str("dataset", dataset);
    w.field_float("eps", eps);
    w.field_float("scale", opts.scale);
    w.field_uint("points", n_points as u64);
    w.field_uint("minpts", MINPTS as u64);
    w.field_uint("trials", opts.trials.max(1) as u64);
    w.end_object();
    w.field_uint("host_threads", rayon::current_num_threads() as u64);
    w.field_bool("bitwise_identical", bitwise_identical(rows));
    w.key("sweep");
    w.begin_array();
    for r in rows {
        w.begin_object();
        w.field_uint("threads", r.threads as u64);
        w.field_float("build_table_ms", r.build_table_s * 1e3);
        w.field_float("dbscan_ms", r.dbscan_s * 1e3);
        w.field_float(
            "speedup_build_table",
            safe_speedup(base.build_table_s, r.build_table_s),
        );
        w.field_float("speedup_dbscan", safe_speedup(base.dbscan_s, r.dbscan_s));
        w.field_float("serial_fraction_build", r.serial_fraction_build);
        w.field_float("worker_util_pct", r.worker_util_pct);
        w.field_uint("pool_steals", r.pool_steals);
        w.field_float("modeled_time_ms", r.modeled_s * 1e3);
        w.field_str("modeled_time_bits", &format!("{:016x}", r.modeled_bits));
        w.field_uint("clusters", r.clusters as u64);
        w.field_uint("result_pairs", r.result_pairs as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Read back a `BENCH_threads.json` document (this version or version 2)
/// as `(threads, modeled_time_bits)` per sweep point. Columns a version
/// dropped are ignored.
pub fn check_doc(text: &str) -> Result<Vec<(u64, u64)>, String> {
    use obs::json::JsonValue;
    let doc = obs::json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("schema is not {SCHEMA}"));
    }
    let version = doc.get("version").and_then(JsonValue::as_u64);
    if !version.is_some_and(|v| (2..=SCHEMA_VERSION).contains(&v)) {
        return Err(format!(
            "unsupported version {version:?} (supported: 2..={SCHEMA_VERSION})"
        ));
    }
    let sweep = doc
        .get("sweep")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array 'sweep'")?;
    sweep
        .iter()
        .map(|r| {
            let threads = r.get("threads").and_then(JsonValue::as_u64);
            let bits = r
                .get("modeled_time_bits")
                .and_then(JsonValue::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok());
            threads
                .zip(bits)
                .ok_or_else(|| "malformed sweep row".to_string())
        })
        .collect()
}

/// Fold one sweep into a run-ledger record: one entry per thread count,
/// wall stages + the modeled stage (single-run medians, MAD 0), the
/// speedup/attribution columns as metrics, and the gate outcome.
pub fn ledger_record(
    dataset: &str,
    eps: f64,
    opts: &Options,
    rows: &[SweepRow],
    prov: Provenance,
    gate: GateOutcome,
) -> LedgerRecord {
    let base = &rows[0];
    let entries = rows
        .iter()
        .map(|r| {
            let mut e = LedgerEntry {
                workload: workload_id(dataset, eps, r.threads),
                modeled_time_bits: Some(r.modeled_bits),
                ..LedgerEntry::default()
            };
            let wall = |s: f64| StagePoint {
                median_ms: s * 1e3,
                mad_ms: 0.0,
                wall: true,
            };
            e.stages.insert("build_table".into(), wall(r.build_table_s));
            e.stages.insert("dbscan".into(), wall(r.dbscan_s));
            e.stages.insert(
                "modeled".into(),
                StagePoint {
                    median_ms: r.modeled_s * 1e3,
                    mad_ms: 0.0,
                    wall: false,
                },
            );
            let m = &mut e.metrics;
            m.insert("threads".into(), r.threads as f64);
            m.insert(
                "speedup_build_table".into(),
                safe_speedup(base.build_table_s, r.build_table_s),
            );
            m.insert(
                "speedup_dbscan".into(),
                safe_speedup(base.dbscan_s, r.dbscan_s),
            );
            m.insert("serial_fraction_build".into(), r.serial_fraction_build);
            m.insert("worker_util_pct".into(), r.worker_util_pct);
            m.insert("pool_steals".into(), r.pool_steals as f64);
            m.insert("clusters".into(), r.clusters as f64);
            m.insert("result_pairs".into(), r.result_pairs as f64);
            e
        })
        .collect();
    LedgerRecord {
        version: RECORD_VERSION,
        command: "threads".into(),
        scale: opts.scale,
        baseline_refresh: baseline_refresh(),
        provenance: prov,
        gate,
        entries,
    }
}

/// Run the sweep, print the scaling table, and write `BENCH_threads.json`.
/// Returns the process exit code.
pub fn print(opts: &Options) -> i32 {
    println!("== Thread scaling (S1): rayon pool sweep over {{1, 2, 4, all}} ==");
    println!("Wall-clock per stage; modeled times and clusterings must be");
    println!("bitwise identical at every thread count (determinism policy).\n");

    let (dataset, eps, n_points, rows) = run(opts);
    let base = &rows[0];
    let mut t = TextTable::new(&[
        "Threads",
        "build_table",
        "speedup",
        "serial frac",
        "util",
        "DBSCAN",
        "speedup",
        "modeled GPU",
    ]);
    for r in &rows {
        t.row(vec![
            r.threads.to_string(),
            fmt_secs(r.build_table_s),
            format!("{:.2}x", safe_speedup(base.build_table_s, r.build_table_s)),
            format!("{:.2}", r.serial_fraction_build),
            format!("{:.0}%", r.worker_util_pct),
            fmt_secs(r.dbscan_s),
            format!("{:.2}x", safe_speedup(base.dbscan_s, r.dbscan_s)),
            fmt_secs(r.modeled_s),
        ]);
    }
    t.print();
    let identical = bitwise_identical(&rows);
    println!(
        "\n# modeled time / clusters / |R| bitwise identical across thread counts: {}",
        if identical {
            "yes"
        } else {
            "NO — DETERMINISM VIOLATION"
        }
    );

    // Gate first, append the run (with its gate outcome) to the ledger,
    // and only then overwrite the BENCH_threads.json artifact: the
    // artifact is a snapshot that each run clobbers, so the ledger is
    // where the history survives.
    let prov = Provenance::collect(
        SCHEMA,
        SCHEMA_VERSION,
        rows.iter()
            .map(|r| workload_id(&dataset, eps, r.threads))
            .collect(),
    );
    let (gate, code) = gate(&rows, identical);
    opts.append_ledger(&ledger_record(
        &dataset,
        eps,
        opts,
        &rows,
        prov.clone(),
        gate,
    ));

    let json = render_json(&dataset, eps, n_points, opts, &rows, &prov);
    // Self-check: never ship a document its own reader rejects.
    if let Err(e) = check_doc(&json) {
        eprintln!("# threads: INTERNAL ERROR: emitted document does not parse: {e}");
        return 1;
    }
    let path = opts
        .csv_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."))
        .join("BENCH_threads.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("# threads: wrote {}", path.display()),
        Err(e) => eprintln!("# threads: cannot write {}: {e}", path.display()),
    }
    code
}

/// Minimum acceptable `build_table` speedup at 4 threads when the gate
/// is strict. Deliberately below the pipeline's multicore headroom so a
/// noisy shared runner doesn't flake the gate.
const STRICT_MIN_SPEEDUP_4T: f64 = 1.8;

/// Scaling gate: advisory by default (CI machines vary from 1 hardware
/// thread upward, where wall-clock speedup is physically unmeasurable);
/// `THREADS_STRICT=1` promotes the speedup shortfall to a failure on
/// runners known to have ≥ 4 cores. A determinism violation is always
/// fatal — that invariant does not depend on the hardware.
///
/// Returns the outcome (recorded in the run ledger) and the exit code —
/// the caller appends the ledger record before exiting, so failed runs
/// leave history too.
fn gate(rows: &[SweepRow], identical: bool) -> (GateOutcome, i32) {
    let strict = std::env::var("THREADS_STRICT").is_ok_and(|v| v == "1");
    let mut out = GateOutcome {
        strict,
        regressions: 0,
        advisories: 0,
        passed: true,
    };
    if !identical {
        eprintln!("# threads: FATAL: modeled outputs differ across thread counts");
        out.regressions = 1;
        out.passed = false;
        return (out, 1);
    }
    let base = &rows[0];
    let Some(four) = rows.iter().find(|r| r.threads == 4) else {
        return (out, 0);
    };
    let speedup = safe_speedup(base.build_table_s, four.build_table_s);
    if speedup >= STRICT_MIN_SPEEDUP_4T {
        return (out, 0);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "# threads: speedup_build_table at 4 threads is {speedup:.2}x \
         (target >= {STRICT_MIN_SPEEDUP_4T}; {cores} hardware threads)"
    );
    if strict {
        eprintln!("# threads: THREADS_STRICT=1 — failing");
        out.regressions = 1;
        out.passed = false;
        return (out, 1);
    }
    eprintln!("# threads: advisory only (set THREADS_STRICT=1 to enforce)");
    out.advisories = 1;
    (out, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_counts_are_sorted_unique_and_include_one() {
        let ts = thread_counts();
        assert!(ts.contains(&1));
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sweep_is_bitwise_invariant_on_a_small_workload() {
        let opts = Options {
            scale: 0.002,
            trials: 1,
            ..Options::default()
        };
        let (_, _, n, rows) = run(&opts);
        assert!(n > 0);
        assert_eq!(rows.len(), thread_counts().len());
        assert!(bitwise_identical(&rows), "rows: {rows:?}");
    }

    #[test]
    fn safe_speedup_guards_degenerate_baselines() {
        assert_eq!(safe_speedup(1.0, 0.5), 2.0);
        // Zero / near-zero on either side: no claim, never inf/NaN.
        assert_eq!(safe_speedup(0.0, 0.5), 1.0);
        assert_eq!(safe_speedup(0.5, 0.0), 1.0);
        assert_eq!(safe_speedup(0.0, 0.0), 1.0);
        assert_eq!(safe_speedup(f64::NAN, 1.0), 1.0);
        assert_eq!(safe_speedup(1.0, f64::INFINITY), 1.0);
        assert!(safe_speedup(1e-10, 1e-10).is_finite());
    }

    fn test_provenance() -> Provenance {
        Provenance {
            header_version: obs::provenance::HEADER_VERSION,
            schema: SCHEMA.into(),
            schema_version: SCHEMA_VERSION,
            git_sha: "ee9aa08269b9".into(),
            git_dirty: false,
            rustc: "rustc 1.95.0".into(),
            rayon_num_threads: "unset".into(),
            host: "testhost".into(),
            os: "linux".into(),
            timestamp_unix: 1_754_611_200,
            workloads: vec![workload_id("SW1", 0.2, 1), workload_id("SW1", 0.2, 4)],
        }
    }

    #[test]
    fn rendered_json_parses_with_shared_parser() {
        // Regression: `bitwise_identical` used to be pushed raw past the
        // writer's comma state, so the following `"sweep"` key had no
        // separator and the emitted document was malformed.
        use obs::json::{parse, JsonValue};
        let rows = vec![
            SweepRow {
                threads: 1,
                build_table_s: 1.0,
                dbscan_s: 0.1,
                modeled_bits: u64::MAX, // largest bit pattern must survive
                modeled_s: 0.05,
                clusters: 7,
                result_pairs: 1234,
                serial_fraction_build: 1.0,
                worker_util_pct: 0.0,
                pool_steals: 0,
            },
            SweepRow {
                threads: 4,
                build_table_s: 0.5,
                dbscan_s: 0.1,
                modeled_bits: u64::MAX,
                modeled_s: 0.05,
                clusters: 7,
                result_pairs: 1234,
                serial_fraction_build: 0.4,
                worker_util_pct: 62.5,
                pool_steals: 9,
            },
        ];
        let opts = Options::default();
        let prov = test_provenance();
        let text = render_json("SW1", 0.2, 1000, &opts, &rows, &prov);
        assert_eq!(
            check_doc(&text).expect("own reader accepts it"),
            vec![(1, u64::MAX), (4, u64::MAX)]
        );
        let doc = parse(&text).expect("valid JSON");
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("version").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        let parsed_prov = Provenance::parse_field(&doc).expect("well-formed provenance");
        assert_eq!(parsed_prov, Some(prov));
        assert_eq!(
            doc.get("bitwise_identical").and_then(JsonValue::as_bool),
            Some(true)
        );
        let sweep = doc.get("sweep").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[1].get("threads").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(
            sweep[1].get("pool_steals").and_then(JsonValue::as_u64),
            Some(9)
        );
        // Bits travel as a hex string: u64::MAX survives where an f64
        // number could not carry it.
        assert_eq!(
            sweep[0]
                .get("modeled_time_bits")
                .and_then(JsonValue::as_str),
            Some("ffffffffffffffff")
        );
        assert!(sweep[1]
            .get("serial_fraction_build")
            .and_then(JsonValue::as_f64)
            .is_some());
        assert!(sweep[1]
            .get("speedup_dbscan")
            .and_then(JsonValue::as_f64)
            .is_some());
        assert_eq!(
            doc.get("workload")
                .and_then(|w| w.get("dataset"))
                .and_then(JsonValue::as_str),
            Some("SW1")
        );
    }

    #[test]
    fn version_2_document_still_parses() {
        // A version-2 document as committed before the disjoint-set
        // clusterer was retired: it still carries that clusterer's columns.
        let v2 = r#"{"schema":"hybrid-dbscan/threads","version":2,"workload":{"dataset":"SW1","eps":0.200,"scale":0.020,"points":37292,"minpts":4,"trials":3},"host_threads":1,"bitwise_identical":true,"sweep":[{"threads":1,"build_table_ms":1174.312,"dbscan_ms":45.218,"disjoint_set_ms":88.020,"speedup_build_table":1.000,"speedup_dbscan":1.000,"speedup_disjoint_set":1.000,"modeled_time_ms":96.558,"modeled_time_bits":"3fb8b80b383bd8dc","clusters":64,"result_pairs":17113506},{"threads":2,"build_table_ms":1018.171,"dbscan_ms":33.799,"disjoint_set_ms":90.389,"speedup_build_table":1.153,"speedup_dbscan":1.338,"speedup_disjoint_set":0.974,"modeled_time_ms":96.558,"modeled_time_bits":"3fb8b80b383bd8dc","clusters":64,"result_pairs":17113506}]}"#;
        assert_eq!(
            check_doc(v2).expect("version 2 parses"),
            vec![(1, 0x3fb8_b80b_383b_d8dc), (2, 0x3fb8_b80b_383b_d8dc)]
        );
        let v1 = v2.replacen(r#""version":2"#, r#""version":1"#, 1);
        assert!(check_doc(&v1).unwrap_err().contains("version"));
    }

    #[test]
    fn sweep_ledger_record_round_trips_and_keys_by_thread_count() {
        let rows = vec![
            SweepRow {
                threads: 1,
                build_table_s: 1.0,
                dbscan_s: 0.1,
                modeled_bits: 0x3fe0_0000_0000_0001,
                modeled_s: 0.5,
                clusters: 7,
                result_pairs: 1234,
                serial_fraction_build: 1.0,
                worker_util_pct: 96.0,
                pool_steals: 0,
            },
            SweepRow {
                threads: 4,
                build_table_s: 0.4,
                dbscan_s: 0.1,
                modeled_bits: 0x3fe0_0000_0000_0001,
                modeled_s: 0.5,
                clusters: 7,
                result_pairs: 1234,
                serial_fraction_build: 0.4,
                worker_util_pct: 62.5,
                pool_steals: 9,
            },
        ];
        let opts = Options::default();
        let gate = GateOutcome {
            strict: false,
            regressions: 0,
            advisories: 1,
            passed: true,
        };
        let rec = ledger_record("SW1", 0.2, &opts, &rows, test_provenance(), gate);
        assert_eq!(rec.command, "threads");
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.entries[1].workload, "threads/sw1-eps0.2/t4");
        assert_eq!(rec.entries[1].metrics["threads"], 4.0);
        assert_eq!(rec.entries[1].metrics["speedup_build_table"], 2.5);
        assert!(rec.entries[1].stages["build_table"].wall);
        assert!(!rec.entries[1].stages["modeled"].wall);
        assert_eq!(
            rec.entries[0].modeled_time_bits,
            Some(0x3fe0_0000_0000_0001)
        );
        let line = rec.to_json();
        let back = LedgerRecord::parse(&line).expect("record parses");
        assert_eq!(back.to_json(), line, "ledger round trip is exact");
    }
}
