//! **Continuous benchmark suite with regression gating** — `repro bench`.
//!
//! Runs a fixed suite of S1/S2/S3 workloads (kernel variant × dataset ×
//! ε), each with warmup + N timed trials, and summarizes every stage
//! (`build_table`, `dbscan`, and the modeled device time)
//! as median/MAD/IQR ([`crate::stats`]). Per-kernel device counters
//! (occupancy, global-memory GB/s, atomics) come from
//! [`gpu_sim::profiler::KernelProfile`] and are threaded through
//! [`obs::Metrics`] via [`obs::bench::record_kernel_profile`]. Results are
//! written to `BENCH_suite.json` in the [`obs::bench::BenchDoc`] schema.
//!
//! `repro bench --compare <baseline.json>` reloads a previous document
//! (the store lives under `results/baselines/`) and flags any stage whose
//! median moved beyond a noise threshold derived from the baseline's MAD
//! ([`noise_threshold`]). Gating is two-tier: the deterministic modeled
//! stage fails the run under `BENCH_STRICT=1` (mirroring the differential
//! sweep's `DIFF_STRICT` gate), while wall-clock stages are reported as
//! advisory drift — on a shared machine they can move 2× with load, so
//! they inform but never gate. See DESIGN.md, "Benchmark methodology &
//! regression policy".

use crate::common::{baseline_refresh, DatasetCache, Options, TextTable};
use crate::stats;
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan, KernelChoice};
use obs::bench::{BenchDoc, StageStats, WorkloadResult, SCHEMA_VERSION};
use obs::ledger::{GateOutcome, LedgerEntry, LedgerRecord, StagePoint, RECORD_VERSION};
use obs::provenance::Provenance;
use obs::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// One suite entry. The id is the compare key and must stay stable across
/// PRs; retire ids rather than repurposing them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub id: &'static str,
    pub scenario: &'static str,
    pub dataset: &'static str,
    pub eps: f64,
    pub minpts: usize,
    pub kernel: KernelChoice,
}

/// The fixed suite: the Table II kernel pairing (S1), the low end of the
/// SW4 multi-clustering sweep (S2), and a table-reuse row (S3). Chosen to
/// cover both kernels, both dataset families (uniform SDSS / skewed SW),
/// and a high-minpts clustering, while staying a few minutes at the
/// default `--scale`.
pub const SUITE: &[Workload] = &[
    Workload {
        id: "s1/sw1-eps0.2/global",
        scenario: "S1",
        dataset: "SW1",
        eps: 0.2,
        minpts: 4,
        kernel: KernelChoice::Global,
    },
    Workload {
        id: "s1/sw1-eps0.2/shared",
        scenario: "S1",
        dataset: "SW1",
        eps: 0.2,
        minpts: 4,
        kernel: KernelChoice::Shared,
    },
    Workload {
        id: "s2/sw4-eps0.1/global",
        scenario: "S2",
        dataset: "SW4",
        eps: 0.1,
        minpts: 4,
        kernel: KernelChoice::Global,
    },
    Workload {
        id: "s3/sdss1-eps0.2-minpts40/global",
        scenario: "S3",
        dataset: "SDSS1",
        eps: 0.2,
        minpts: 40,
        kernel: KernelChoice::Global,
    },
];

/// Stable JSON/display name of a kernel variant (shared with `repro
/// profile`, whose documents must use the same ids as the bench suite).
pub fn kernel_name(k: KernelChoice) -> &'static str {
    match k {
        KernelChoice::Global => "global",
        KernelChoice::Shared => "shared",
    }
}

/// Run one workload: `warmup` discarded runs, then `trials` timed runs.
fn run_workload(
    device: &Device,
    cache: &mut DatasetCache,
    w: &Workload,
    warmup: usize,
    trials: usize,
) -> WorkloadResult {
    let points = cache.get(w.dataset).points.clone();
    let cfg = HybridConfig {
        kernel: w.kernel,
        ..HybridConfig::default()
    };
    let rec = Arc::new(Recorder::new());
    let hybrid = HybridDbscan::new(device, cfg).with_recorder(rec.clone());

    let trials = trials.max(1);
    let mut build_ms = Vec::with_capacity(trials);
    let mut dbscan_ms = Vec::with_capacity(trials);
    let mut modeled_ms = Vec::with_capacity(trials);
    let mut out = WorkloadResult {
        id: w.id.to_string(),
        scenario: w.scenario.to_string(),
        dataset: w.dataset.to_string(),
        kernel: kernel_name(w.kernel).to_string(),
        eps: w.eps,
        minpts: w.minpts as u64,
        points: points.len() as u64,
        ..WorkloadResult::default()
    };

    for i in 0..warmup + trials {
        let t0 = Instant::now();
        let handle = hybrid.build_table(&points, w.eps).expect("build_table");
        let build = t0.elapsed().as_secs_f64() * 1e3;

        let (clustering, dbscan_time) = HybridDbscan::cluster_with_table(&handle, w.minpts);

        if i < warmup {
            continue;
        }
        build_ms.push(build);
        dbscan_ms.push(dbscan_time.as_secs_f64() * 1e3);
        modeled_ms.push(handle.gpu.modeled_time.as_millis());
        // Exact bit pattern of the modeled seconds: the determinism
        // witness the ledger/trend layer tracks across runs.
        out.modeled_time_bits = Some(handle.gpu.modeled_time.as_secs().to_bits());

        // Device counters and scalar telemetry from the last trial (they
        // are modeled, hence identical across trials).
        obs::bench::record_kernel_profile(
            rec.metrics(),
            kernel_name(w.kernel),
            &handle.gpu.kernel_profile,
        );
        out.counters
            .insert("kernels".into(), handle.gpu.kernel_profile.stats());
        out.metrics
            .insert("clusters".into(), clustering.num_clusters() as f64);
        out.metrics
            .insert("result_pairs".into(), handle.gpu.result_pairs as f64);
        out.metrics
            .insert("batches".into(), handle.gpu.n_batches as f64);
        out.metrics.insert("e_b".into(), handle.gpu.e_b as f64);
    }

    // Per-batch distribution percentiles from the recorder's histogram
    // (identical per trial — the batch split is modeled, not wall-timed).
    let snapshot = rec.metrics().snapshot();
    if let Some(h) = snapshot.histograms.get("batch.pairs") {
        out.metrics
            .insert("batch_pairs_p50".into(), h.percentile(0.5));
        out.metrics
            .insert("batch_pairs_p95".into(), h.percentile(0.95));
    }

    out.stages
        .insert("build_table".into(), stats::summarize(&build_ms));
    out.stages
        .insert("dbscan".into(), stats::summarize(&dbscan_ms));
    out.stages
        .insert("modeled".into(), stats::summarize(&modeled_ms));
    out
}

/// Run the full suite: the S1/S2/S3 pipeline workloads plus the
/// hot-path micro workload ([`crate::micro`]).
pub fn run_suite(opts: &Options) -> BenchDoc {
    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let mut workloads: Vec<WorkloadResult> = SUITE
        .iter()
        .map(|w| run_workload(&device, &mut cache, w, opts.warmup, opts.trials))
        .collect();
    workloads.push(crate::micro::run_micro(
        &device,
        &mut cache,
        opts.warmup,
        opts.trials,
    ));
    // Shard-scaling rows at 10× the suite scale (ISSUE 8): unsharded
    // baseline, 2-shard concurrent speedup, 4-shard out-of-core under a
    // device limit the unsharded build exceeds.
    workloads.extend(crate::shard::run_shard_workloads(opts));
    // Backend-ablation rows (ISSUE 10): every ablation workload under
    // grid, tree, and auto ε-search, fingerprint-checked cross-backend.
    workloads.extend(crate::backend_ablation::run_backend_workloads(opts));
    let workload_ids = workloads.iter().map(|w| w.id.clone()).collect();
    BenchDoc {
        version: SCHEMA_VERSION,
        scale: opts.scale,
        trials: opts.trials.max(1) as u64,
        warmup: opts.warmup as u64,
        host_threads: rayon::current_num_threads() as u64,
        provenance: Some(Provenance::collect(
            obs::bench::SCHEMA,
            SCHEMA_VERSION,
            workload_ids,
        )),
        workloads,
    }
}

// ---------------------------------------------------------------------
// Regression gating
// ---------------------------------------------------------------------

/// Stages measured in host wall-clock time. Their medians move with
/// machine load (a shared CI box can drift 2× between back-to-back
/// runs), so their deltas are reported but never gate — only the
/// deterministic modeled stage does, the same reason rustc-perf gates on
/// instruction counts rather than wall time.
pub fn is_wall_stage(stage: &str) -> bool {
    stage != "modeled"
}

/// Per-stage noise threshold (milliseconds) derived from the baseline.
///
/// Wall-clock stages: a delta must exceed `max(0.25 ms, 12% of the
/// baseline median, 4 × baseline MAD)`. The MAD term adapts to each
/// stage's measured run-to-run noise; the relative and absolute floors
/// keep single-trial baselines (MAD = 0) and microsecond-scale stages
/// from flagging jitter.
///
/// The modeled stage is deterministic (bitwise identical across runs and
/// thread counts by the determinism policy), so its threshold is only
/// wide enough to absorb the writer's 3-decimal formatting:
/// `max(0.01 ms, 0.1% of the baseline median, 4 × MAD)`.
pub fn noise_threshold(stage: &str, base: &StageStats) -> f64 {
    if is_wall_stage(stage) {
        (0.25_f64).max(0.12 * base.median_ms).max(4.0 * base.mad_ms)
    } else {
        (0.01_f64)
            .max(0.001 * base.median_ms)
            .max(4.0 * base.mad_ms)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Improvement,
}

/// One flagged stage comparison. `gating` is true for deterministic
/// stages (regressions there fail under `BENCH_STRICT=1`); wall-clock
/// stage deltas are advisory drift.
#[derive(Debug, Clone)]
pub struct StageDelta {
    pub workload: String,
    pub stage: String,
    pub base_ms: f64,
    pub cur_ms: f64,
    pub threshold_ms: f64,
    pub verdict: Verdict,
    pub gating: bool,
}

/// Outcome of comparing a run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Stage medians that moved beyond the noise threshold.
    pub deltas: Vec<StageDelta>,
    /// Stage comparisons actually performed.
    pub checked: usize,
    /// Workloads present in both documents but not comparable (point
    /// counts differ — e.g. the baseline was taken at another `--scale`).
    pub incomparable: Vec<String>,
    /// Baseline workloads absent from the current run.
    pub missing: Vec<String>,
}

impl CompareReport {
    /// Gating regressions: deterministic stages that got slower. These
    /// fail the run under `BENCH_STRICT=1`.
    pub fn regressions(&self) -> Vec<&StageDelta> {
        self.deltas
            .iter()
            .filter(|d| d.gating && d.verdict == Verdict::Regression)
            .collect()
    }

    /// Advisory wall-clock drift (either direction) beyond the noise
    /// threshold — reported, never fatal.
    pub fn wall_drift(&self) -> Vec<&StageDelta> {
        self.deltas.iter().filter(|d| !d.gating).collect()
    }
}

/// Compare `current` against `baseline`, stage by stage.
pub fn compare(baseline: &BenchDoc, current: &BenchDoc) -> CompareReport {
    let mut report = CompareReport::default();
    for base_wl in &baseline.workloads {
        let Some(cur_wl) = current.workload(&base_wl.id) else {
            report.missing.push(base_wl.id.clone());
            continue;
        };
        if cur_wl.points != base_wl.points {
            report.incomparable.push(format!(
                "{}: {} points vs baseline {} (different --scale?)",
                base_wl.id, cur_wl.points, base_wl.points
            ));
            continue;
        }
        for (stage, base) in &base_wl.stages {
            let Some(cur) = cur_wl.stages.get(stage) else {
                report.incomparable.push(format!(
                    "{}: stage '{stage}' missing from current run",
                    base_wl.id
                ));
                continue;
            };
            report.checked += 1;
            let threshold = noise_threshold(stage, base);
            let delta = cur.median_ms - base.median_ms;
            let verdict = if delta > threshold {
                Verdict::Regression
            } else if -delta > threshold {
                Verdict::Improvement
            } else {
                continue;
            };
            report.deltas.push(StageDelta {
                workload: base_wl.id.clone(),
                stage: stage.clone(),
                base_ms: base.median_ms,
                cur_ms: cur.median_ms,
                threshold_ms: threshold,
                verdict,
                gating: !is_wall_stage(stage),
            });
        }
    }
    report
}

/// Fold a suite run into one run-ledger record (per-workload stage
/// medians/MAD, modeled bits, scalar metrics, and the gate outcome).
pub fn ledger_record(doc: &BenchDoc, gate: GateOutcome) -> LedgerRecord {
    let entries = doc
        .workloads
        .iter()
        .map(|wl| {
            let mut e = LedgerEntry {
                workload: wl.id.clone(),
                modeled_time_bits: wl.modeled_time_bits,
                ..LedgerEntry::default()
            };
            for (stage, s) in &wl.stages {
                e.stages.insert(
                    stage.clone(),
                    StagePoint {
                        median_ms: s.median_ms,
                        mad_ms: s.mad_ms,
                        wall: is_wall_stage(stage),
                    },
                );
            }
            e.metrics
                .extend(wl.metrics.iter().map(|(k, v)| (k.clone(), *v)));
            e
        })
        .collect();
    LedgerRecord {
        version: RECORD_VERSION,
        command: "bench".into(),
        scale: doc.scale,
        baseline_refresh: baseline_refresh(),
        provenance: doc
            .provenance
            .clone()
            .unwrap_or_else(|| Provenance::collect(obs::bench::SCHEMA, doc.version, Vec::new())),
        gate,
        entries,
    }
}

// ---------------------------------------------------------------------
// CLI entry
// ---------------------------------------------------------------------

fn fmt_ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2} s", v / 1e3)
    } else {
        format!("{v:.2} ms")
    }
}

fn print_doc(doc: &BenchDoc) {
    let mut t = TextTable::new(&[
        "Workload",
        "points",
        "build_table",
        "±MAD",
        "DBSCAN",
        "modeled GPU",
        "occ",
        "GB/s",
        "atomics",
    ]);
    for wl in doc
        .workloads
        .iter()
        .filter(|wl| wl.scenario != "micro" && wl.scenario != "backend")
    {
        let stage = |name: &str| wl.stages.get(name).cloned().unwrap_or_default();
        let counters = wl.counters.get("kernels").copied().unwrap_or_default();
        t.row(vec![
            wl.id.clone(),
            wl.points.to_string(),
            fmt_ms(stage("build_table").median_ms),
            fmt_ms(stage("build_table").mad_ms),
            fmt_ms(stage("dbscan").median_ms),
            fmt_ms(stage("modeled").median_ms),
            format!("{:.2}", counters.mean_occupancy),
            format!("{:.1}", counters.gmem_gbps),
            counters.atomics.to_string(),
        ]);
    }
    t.print();

    let backend: Vec<_> = doc
        .workloads
        .iter()
        .filter(|wl| wl.scenario == "backend")
        .collect();
    if !backend.is_empty() {
        println!("\n-- Backend ablation (modeled device time; identical tables checked) --");
        let mut t = TextTable::new(&["Workload", "points", "ran", "modeled", "cv", "occ"]);
        for wl in backend {
            t.row(vec![
                wl.id.clone(),
                wl.points.to_string(),
                wl.kernel.clone(),
                fmt_ms(
                    wl.stages
                        .get("modeled")
                        .map(|s| s.median_ms)
                        .unwrap_or_default(),
                ),
                format!(
                    "{:.2}",
                    wl.metrics.get("cell_cv").copied().unwrap_or_default()
                ),
                format!(
                    "{:.1}",
                    wl.metrics
                        .get("mean_occupancy")
                        .copied()
                        .unwrap_or_default()
                ),
            ]);
        }
        t.print();
    }

    let micro: Vec<_> = doc
        .workloads
        .iter()
        .filter(|wl| wl.scenario == "micro")
        .collect();
    if !micro.is_empty() {
        println!("\n-- Micro stages (host wall-clock, advisory) --");
        let mut t = TextTable::new(&["Workload", "stage", "median", "±MAD"]);
        for wl in micro {
            for (stage, s) in &wl.stages {
                t.row(vec![
                    wl.id.clone(),
                    stage.clone(),
                    fmt_ms(s.median_ms),
                    fmt_ms(s.mad_ms),
                ]);
            }
        }
        t.print();
    }
}

fn print_compare(report: &CompareReport, baseline_path: &std::path::Path) {
    println!(
        "\n-- Compare vs {} ({} stage comparisons) --",
        baseline_path.display(),
        report.checked
    );
    for note in report.missing.iter() {
        println!("  MISSING      {note} (workload not in current run)");
    }
    for note in report.incomparable.iter() {
        println!("  INCOMPARABLE {note}");
    }
    for d in &report.deltas {
        let tag = match (d.gating, d.verdict) {
            (true, Verdict::Regression) => "REGRESSION",
            (true, Verdict::Improvement) => "improvement",
            // Wall-clock stages drift with machine load; advisory only.
            (false, _) => "wall-drift",
        };
        println!(
            "  {tag:<12} {}/{}: {} -> {} (threshold {})",
            d.workload,
            d.stage,
            fmt_ms(d.base_ms),
            fmt_ms(d.cur_ms),
            fmt_ms(d.threshold_ms),
        );
    }
    if report.deltas.is_empty() {
        println!("  all stage medians within noise thresholds");
    }
    let n_reg = report.regressions().len();
    let n_gating = report.deltas.iter().filter(|d| d.gating).count();
    println!(
        "# {} regression(s), {} improvement(s), {} advisory wall-clock drift(s)",
        n_reg,
        n_gating - n_reg,
        report.wall_drift().len()
    );
}

/// Run the suite, write `BENCH_suite.json`, optionally compare against a
/// baseline. Returns the process exit code: nonzero only when
/// `BENCH_STRICT=1` and the comparison found regressions (or the baseline
/// could not be loaded).
pub fn print(opts: &Options) -> i32 {
    let strict = std::env::var("BENCH_STRICT")
        .map(|v| v == "1")
        .unwrap_or(false);
    println!("== Benchmark suite: S1/S2/S3 workloads, warmup + trials, device counters ==");
    println!(
        "{} workloads, warmup = {}, trials = {}; medians/MAD to BENCH_suite.json\n",
        SUITE.len(),
        opts.warmup,
        opts.trials.max(1)
    );

    let doc = run_suite(opts);
    print_doc(&doc);

    let text = doc.to_json();
    // Self-check: never ship a document the shared parser rejects.
    if let Err(e) = BenchDoc::parse(&text) {
        eprintln!("# bench: INTERNAL ERROR: emitted document does not parse: {e}");
        return 1;
    }
    let path = opts
        .csv_dir
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("."))
        .join("BENCH_suite.json");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &text) {
        Ok(()) => eprintln!("# bench: wrote {}", path.display()),
        Err(e) => eprintln!("# bench: cannot write {}: {e}", path.display()),
    }

    // Gate, then append the run (with its gate outcome) to the ledger —
    // the append happens on every path, comparison or not, so the ledger
    // is the complete run history.
    let mut gate = GateOutcome {
        strict,
        regressions: 0,
        advisories: 0,
        passed: true,
    };
    let mut exit = 0;
    if let Some(baseline_path) = &opts.compare {
        match std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|t| BenchDoc::parse(&t))
        {
            Ok(baseline) => {
                let report = compare(&baseline, &doc);
                print_compare(&report, baseline_path);
                gate.regressions = report.regressions().len() as u64;
                gate.advisories = report.wall_drift().len() as u64;
                if !report.regressions().is_empty() {
                    if strict {
                        eprintln!("# bench: regressions found (BENCH_STRICT=1 — failing)");
                        gate.passed = false;
                        exit = 1;
                    } else {
                        eprintln!(
                            "# bench: regressions found (advisory; set BENCH_STRICT=1 to enforce)"
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!(
                    "# bench: cannot load baseline {}: {e}",
                    baseline_path.display()
                );
                if strict {
                    gate.passed = false;
                    exit = 1;
                }
            }
        }
    }
    opts.append_ledger(&ledger_record(&doc, gate));
    exit
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload document with the given stage medians (the modeled
    /// stage is the gating one; build_table is wall-clock/advisory).
    fn doc_with(modeled_median: f64, build_median: f64, mad: f64) -> BenchDoc {
        let stage = |median: f64| StageStats {
            trials: 3,
            median_ms: median,
            mean_ms: median,
            mad_ms: mad,
            iqr_ms: 2.0 * mad,
            min_ms: median - mad,
            max_ms: median + mad,
        };
        let mut wl = WorkloadResult {
            id: "s1/test/global".into(),
            scenario: "S1".into(),
            dataset: "SW1".into(),
            kernel: "global".into(),
            eps: 0.2,
            minpts: 4,
            points: 1000,
            ..WorkloadResult::default()
        };
        wl.stages.insert("modeled".into(), stage(modeled_median));
        wl.stages.insert("build_table".into(), stage(build_median));
        BenchDoc {
            version: SCHEMA_VERSION,
            scale: 0.02,
            trials: 3,
            warmup: 1,
            host_threads: 4,
            provenance: None,
            workloads: vec![wl],
        }
    }

    #[test]
    fn synthetic_two_x_slowdown_is_flagged() {
        let base = doc_with(100.0, 100.0, 1.0);
        let slow = doc_with(200.0, 100.0, 1.0);
        let report = compare(&base, &slow);
        assert_eq!(report.checked, 2);
        let regs = report.regressions();
        assert_eq!(regs.len(), 1, "2x slowdown must be flagged: {report:?}");
        assert_eq!(regs[0].stage, "modeled");
        assert_eq!(regs[0].cur_ms, 200.0);
        assert!(regs[0].gating);
    }

    #[test]
    fn wall_clock_slowdown_is_advisory_drift_not_gating() {
        // The same 2x on a wall-clock stage is surfaced, but as drift:
        // machine load moves wall time, so it must never fail CI.
        let base = doc_with(100.0, 100.0, 1.0);
        let slow = doc_with(100.0, 200.0, 1.0);
        let report = compare(&base, &slow);
        assert!(report.regressions().is_empty(), "{report:?}");
        let drift = report.wall_drift();
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].stage, "build_table");
        assert!(!drift[0].gating);
    }

    #[test]
    fn identical_docs_have_zero_regressions() {
        let base = doc_with(100.0, 100.0, 1.0);
        let report = compare(&base, &base.clone());
        assert_eq!(report.checked, 2);
        assert!(report.deltas.is_empty(), "{report:?}");
        assert!(report.incomparable.is_empty());
        assert!(report.missing.is_empty());
    }

    #[test]
    fn speedup_is_reported_as_improvement_not_regression() {
        let base = doc_with(100.0, 100.0, 1.0);
        let fast = doc_with(50.0, 100.0, 1.0);
        let report = compare(&base, &fast);
        assert!(report.regressions().is_empty());
        assert_eq!(report.deltas.len(), 1);
        assert_eq!(report.deltas[0].verdict, Verdict::Improvement);
        assert!(report.deltas[0].gating);
    }

    #[test]
    fn noise_threshold_tracks_mad_with_floors() {
        // Noisy wall baseline: the MAD term dominates.
        let noisy = StageStats {
            median_ms: 100.0,
            mad_ms: 10.0,
            ..StageStats::default()
        };
        assert_eq!(noise_threshold("build_table", &noisy), 40.0);
        // Quiet wall baseline: the relative floor dominates.
        let quiet = StageStats {
            median_ms: 100.0,
            mad_ms: 0.0,
            ..StageStats::default()
        };
        assert_eq!(noise_threshold("dbscan", &quiet), 12.0);
        // Microsecond-scale wall stage: the absolute floor dominates.
        let tiny = StageStats {
            median_ms: 0.01,
            mad_ms: 0.0,
            ..StageStats::default()
        };
        assert_eq!(noise_threshold("dbscan", &tiny), 0.25);
        // The deterministic modeled stage gets a much tighter band —
        // just wide enough for the writer's 3-decimal formatting.
        assert_eq!(noise_threshold("modeled", &quiet), 0.1);
        assert_eq!(noise_threshold("modeled", &tiny), 0.01);
        // A sub-threshold drift is not flagged.
        let base = doc_with(100.0, 100.0, 10.0);
        let drift = doc_with(100.0, 120.0, 10.0);
        assert!(compare(&base, &drift).deltas.is_empty());
    }

    #[test]
    fn scale_mismatch_is_incomparable_not_regression() {
        let base = doc_with(100.0, 100.0, 1.0);
        let mut other = doc_with(500.0, 500.0, 1.0);
        other.workloads[0].points = 2000;
        let report = compare(&base, &other);
        assert!(report.deltas.is_empty());
        assert_eq!(report.incomparable.len(), 1);
        assert!(report.incomparable[0].contains("s1/test/global"));
    }

    #[test]
    fn missing_workload_is_reported() {
        let base = doc_with(100.0, 100.0, 1.0);
        let empty = BenchDoc {
            workloads: Vec::new(),
            ..doc_with(1.0, 1.0, 0.0)
        };
        let report = compare(&base, &empty);
        assert_eq!(report.missing, vec!["s1/test/global".to_string()]);
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn ledger_record_carries_stages_bits_and_gate() {
        let mut doc = doc_with(100.0, 250.0, 1.0);
        doc.workloads[0].modeled_time_bits = Some(0xdead_beef_dead_beef);
        let gate = GateOutcome {
            strict: true,
            regressions: 1,
            advisories: 2,
            passed: false,
        };
        let rec = ledger_record(&doc, gate);
        assert_eq!(rec.command, "bench");
        assert!(!rec.gate.passed);
        assert_eq!(rec.gate.regressions, 1);
        let e = &rec.entries[0];
        assert_eq!(e.modeled_time_bits, Some(0xdead_beef_dead_beef));
        assert!(!e.stages["modeled"].wall, "modeled gates, never wall");
        assert!(e.stages["build_table"].wall);
        assert_eq!(e.stages["build_table"].median_ms, 250.0);
        let line = rec.to_json();
        let back = LedgerRecord::parse(&line).expect("record parses");
        assert_eq!(back.to_json(), line, "ledger round trip is exact");
    }

    #[test]
    fn suite_runs_round_trips_and_self_compares_clean() {
        // The acceptance criterion, in miniature: a real (tiny) suite run
        // emits a document the shared parser accepts, the parse is exact
        // (round-trip fixed point), and comparing the run against itself
        // reports zero regressions.
        let opts = Options {
            scale: 0.002,
            trials: 1,
            warmup: 0,
            ..Options::default()
        };
        let doc = run_suite(&opts);
        // The suite workloads plus the hot-path micro workload, the three
        // shard-scaling rows, and the backend ablation (3 backends per
        // ablation workload).
        assert_eq!(
            doc.workloads.len(),
            SUITE.len() + 1 + 3 + 3 * crate::backend_ablation::ABLATION.len()
        );
        let text = doc.to_json();
        let parsed = BenchDoc::parse(&text).expect("suite output must parse");
        assert_eq!(parsed.to_json(), text, "round-trip must be exact");
        for wl in &doc.workloads {
            if wl.scenario == "micro" {
                for stage in crate::micro::MICRO_STAGES {
                    assert!(wl.stages.contains_key(*stage), "{}: {stage}", wl.id);
                }
                continue;
            }
            if wl.scenario == "shard" || wl.scenario == "backend" {
                for stage in ["build_table", "modeled"] {
                    assert!(wl.stages.contains_key(stage), "{}: {stage}", wl.id);
                }
                continue;
            }
            for stage in ["build_table", "dbscan", "modeled"] {
                let s = wl
                    .stages
                    .get(stage)
                    .unwrap_or_else(|| panic!("{}: missing stage {stage}", wl.id));
                assert_eq!(s.trials, 1);
                assert!(s.median_ms >= 0.0);
            }
            let k = wl.counters.get("kernels").expect("kernel counters");
            assert!(k.launches > 0);
            assert!(k.mean_occupancy > 0.0);
            assert!(wl.metrics["result_pairs"] > 0.0);
        }
        let report = compare(&parsed, &doc);
        assert!(report.checked >= 3 * SUITE.len() + crate::micro::MICRO_STAGES.len());
        assert!(report.regressions().is_empty(), "{report:?}");
        assert!(report.incomparable.is_empty());
    }
}
