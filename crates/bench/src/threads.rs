//! **Thread scaling** — host-pool speedup on the fixed S1 workload.
//!
//! The rayon shim is a real work-stealing pool (see DESIGN.md, "Threading
//! model & determinism policy"); this experiment sweeps the pool size over
//! `{1, 2, 4, all}` on the registry's S1 row
//! ([`crate::harness::S1_ROW`]: SW1, ε = 0.2, the Table II row) and
//! reports wall-clock per stage plus the speedup relative to one thread.
//! Each sweep point runs under `ThreadPoolBuilder::num_threads(t)
//! .install(..)`, which is exactly what `RAYON_NUM_THREADS=t` would give
//! the whole process. Trials are interleaved round-robin across thread
//! counts (see [`run`]) so slow machine drift cannot bias the speedup
//! columns toward whichever count would otherwise run first.
//!
//! The determinism policy makes a claim this benchmark checks on every
//! run: modeled `SimDuration`s and clusterings must be **bitwise
//! identical** at every thread count — only wall-clock columns may move.
//! One row per thread count goes to `BENCH_threads.json` (a
//! [`obs::bench::BenchDoc`], under `--csv DIR` when given, else the
//! working directory) through [`crate::harness::finish`].

use crate::common::{fmt_secs, DatasetCache, Options, TextTable};
use crate::harness::{self, suite_row, timed_trial, Findings, S1_ROW};
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use obs::bench::WorkloadResult;
use obs::stats;

/// Speedup guarded against degenerate baselines: a tiny workload can
/// time a stage at ~0 ms, and a raw division would put `inf`/`NaN` into
/// BENCH_threads.json. Degenerate points report 1.0 (no claim).
fn safe_speedup(base: f64, cur: f64) -> f64 {
    if !base.is_finite() || !cur.is_finite() || base < 1e-6 || cur < 1e-6 {
        1.0
    } else {
        base / cur
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

/// Run the whole sweep: one row per thread count, plus its fatal
/// findings — modeled bits that change between trials at one thread
/// count, or that profiling moves.
///
/// Trials are **interleaved round-robin** across thread counts: trial
/// round r runs every thread count once before round r + 1 begins.
/// Sequential per-count blocks are biased on shared or CPU-quota'd
/// runners — slow machine drift (frequency scaling, CFS throttling as
/// the sustained load accrues) lands entirely on whichever count runs
/// last, which systematically penalized the 4-thread point. Interleaving
/// makes every count sample the same drift window, so the speedup columns
/// compare like with like. After the timed trials, each count gets one
/// extra *untimed* run under the pool profiler
/// ([`crate::profile::profiled_run`]) for the attribution columns —
/// profiling shifts wall times, so it never shares a run with the timed
/// trials.
pub fn run(opts: &Options) -> (Vec<WorkloadResult>, Findings) {
    let w = suite_row(S1_ROW);
    let points = DatasetCache::new(opts.scale).get(w.dataset).points.clone();
    let device = Device::k20c();
    let hybrid = HybridDbscan::new(&device, HybridConfig::default());
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
    let mut rows: Vec<WorkloadResult> = counts
        .iter()
        .map(|&t| WorkloadResult {
            // The stable ledger id of one sweep point.
            id: format!("threads/{}-eps{}/t{t}", w.dataset.to_lowercase(), w.eps),
            ..w.result(points.len())
        })
        .collect();
    let mut findings = Findings::default();
    // Per count: build, DBSCAN and modeled samples (ms).
    let mut samples: Vec<[Vec<f64>; 3]> = counts.iter().map(|_| Default::default()).collect();
    for round in 0..opts.trials.max(1) {
        // Rotate the starting count each round: the first pipeline of a
        // round pays one-off costs (cold allocator, page faults) that
        // would otherwise always land on the same count.
        for k in 0..pools.len() {
            let i = (round + k) % pools.len();
            let trial = pools[i].install(|| timed_trial(&hybrid, &points, w));
            let modeled = trial.handle.gpu.modeled_time;
            let bits = modeled.as_secs().to_bits();
            let row = &mut rows[i];
            if row.modeled_time_bits.is_some_and(|b| b != bits) {
                findings.fatal.push(format!(
                    "modeled time bits changed between trials at {} threads",
                    counts[i]
                ));
            }
            row.modeled_time_bits = Some(bits);
            row.metrics
                .insert("clusters".into(), trial.clustering.num_clusters() as f64);
            row.metrics
                .insert("result_pairs".into(), trial.handle.gpu.result_pairs as f64);
            samples[i][0].push(trial.build_ms);
            samples[i][1].push(trial.dbscan_ms);
            samples[i][2].push(modeled.as_millis());
        }
    }

    for ((row, pool), s) in rows.iter_mut().zip(&pools).zip(&samples) {
        // Medians, like the bench suite: wall times on a shared or
        // CPU-quota'd runner are right-skewed by stalls, and a mean lets
        // one throttled trial move a speedup column.
        for (stage, sample) in ["build_table", "dbscan", "modeled"].into_iter().zip(s) {
            row.stages.insert(stage.into(), stats::summarize(sample));
        }
        let bits = row.modeled_time_bits.unwrap_or_default();
        let (profiled, _) = crate::profile::profiled_run(&device, &points, w, pool, bits);
        if !profiled.bits_match_unprofiled {
            findings.fatal.push(format!(
                "profiling changed modeled time bits at {} threads",
                profiled.threads
            ));
        }
        let m = &mut row.metrics;
        m.insert("threads".into(), profiled.threads as f64);
        m.insert(
            "serial_fraction_build".into(),
            profiled.serial_fraction_build().unwrap_or(1.0),
        );
        m.insert(
            "worker_util_pct".into(),
            profiled.mean_utilization_pct().unwrap_or(0.0),
        );
        m.insert("pool_steals".into(), profiled.steals() as f64);
    }
    let median = |row: &WorkloadResult, stage: &str| row.stages[stage].median_ms;
    let (base_build, base_dbscan) = (median(&rows[0], "build_table"), median(&rows[0], "dbscan"));
    for row in &mut rows {
        let build = safe_speedup(base_build, median(row, "build_table"));
        let dbscan = safe_speedup(base_dbscan, median(row, "dbscan"));
        row.metrics.insert("speedup_build_table".into(), build);
        row.metrics.insert("speedup_dbscan".into(), dbscan);
    }
    (rows, findings)
}

/// True iff every modeled/functional output matches the 1-thread row.
pub fn bitwise_identical(rows: &[WorkloadResult]) -> bool {
    rows.windows(2).all(|w| {
        w[0].modeled_time_bits == w[1].modeled_time_bits
            && ["clusters", "result_pairs"]
                .iter()
                .all(|m| w[0].metrics.get(*m) == w[1].metrics.get(*m))
    })
}

/// Minimum acceptable `build_table` speedup at 4 threads when the gate
/// is strict. Deliberately below the pipeline's multicore headroom so a
/// noisy shared runner doesn't flake the gate.
const STRICT_MIN_SPEEDUP_4T: f64 = 1.8;

/// The sweep's gate findings: a determinism violation is always fatal —
/// that invariant does not depend on the hardware. The 4-thread speedup
/// shortfall fails only under `THREADS_STRICT=1`, on runners known to
/// have ≥ 4 cores (CI machines vary from 1 hardware thread upward, where
/// wall-clock speedup is physically unmeasurable).
fn gate_findings(rows: &[WorkloadResult], findings: &mut Findings) {
    if !bitwise_identical(rows) {
        findings
            .fatal
            .push("modeled outputs differ across thread counts".into());
        return;
    }
    let Some(four) = rows.iter().find(|r| r.metrics["threads"] == 4.0) else {
        return;
    };
    let speedup = four.metrics["speedup_build_table"];
    if speedup < STRICT_MIN_SPEEDUP_4T {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        findings.strict.push(format!(
            "speedup_build_table at 4 threads is {speedup:.2}x \
             (target >= {STRICT_MIN_SPEEDUP_4T}; {cores} hardware threads)"
        ));
    }
}

/// Run the sweep, print the scaling table, and finish (ledger record,
/// then `BENCH_threads.json`). Returns the process exit code.
pub fn print(opts: &Options) -> i32 {
    println!("== Thread scaling (S1): rayon pool sweep over {{1, 2, 4, all}} ==");
    println!("Wall-clock per stage; modeled times and clusterings must be");
    println!("bitwise identical at every thread count (determinism policy).\n");

    let (rows, mut findings) = run(opts);
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
        let ms = |stage: &str| fmt_secs(r.stages[stage].median_ms / 1e3);
        t.row(vec![
            r.metrics["threads"].to_string(),
            ms("build_table"),
            format!("{:.2}x", r.metrics["speedup_build_table"]),
            format!("{:.2}", r.metrics["serial_fraction_build"]),
            format!("{:.0}%", r.metrics["worker_util_pct"]),
            ms("dbscan"),
            format!("{:.2}x", r.metrics["speedup_dbscan"]),
            ms("modeled"),
        ]);
    }
    t.print();
    println!(
        "\n# modeled time / clusters / |R| bitwise identical across thread counts: {}",
        if bitwise_identical(&rows) {
            "yes"
        } else {
            "NO — DETERMINISM VIOLATION"
        }
    );

    gate_findings(&rows, &mut findings);
    let doc = harness::bench_doc(opts, opts.trials, 0, rows);
    harness::finish(
        opts,
        "threads",
        Some("THREADS_STRICT"),
        "BENCH_threads.json",
        &doc,
        findings,
    )
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
        let (rows, findings) = run(&opts);
        assert_eq!(rows.len(), thread_counts().len());
        assert!(rows[0].points > 0);
        assert!(bitwise_identical(&rows), "rows: {rows:?}");
        assert!(findings.fatal.is_empty(), "{findings:?}");
        assert_eq!(rows[0].id, "threads/sw1-eps0.2/t1");
        // The ledger key set of the pre-harness sweep records.
        let metrics: Vec<&str> = rows[0].metrics.keys().map(String::as_str).collect();
        assert_eq!(
            metrics,
            [
                "clusters",
                "pool_steals",
                "result_pairs",
                "serial_fraction_build",
                "speedup_build_table",
                "speedup_dbscan",
                "threads",
                "worker_util_pct"
            ]
        );
        let stages: Vec<&str> = rows[0].stages.keys().map(String::as_str).collect();
        assert_eq!(stages, ["build_table", "dbscan", "modeled"]);
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
        assert!(safe_speedup(1e-7, 1e-7).is_finite());
    }

    /// Two sweep rows, 1 and 4 threads, with the given 4-thread speedup
    /// and 4-thread modeled bits.
    fn rows(speedup_4t: f64, bits_4t: u64) -> Vec<WorkloadResult> {
        [(1.0, 1.0, 0x3fe0), (4.0, speedup_4t, bits_4t)]
            .into_iter()
            .map(|(threads, speedup, bits)| {
                let mut r = WorkloadResult {
                    modeled_time_bits: Some(bits),
                    ..WorkloadResult::default()
                };
                r.metrics.insert("threads".into(), threads);
                r.metrics.insert("speedup_build_table".into(), speedup);
                r.metrics.insert("clusters".into(), 7.0);
                r
            })
            .collect()
    }

    #[test]
    fn determinism_violation_is_always_fatal() {
        let mut f = Findings::default();
        gate_findings(&rows(2.5, 0x3fe1), &mut f);
        assert_eq!(f.fatal.len(), 1, "{f:?}");
        assert!(f.strict.is_empty());
        let (gate, code) = harness::gate("threads", Some("THREADS_STRICT_UNSET_IN_TESTS"), &f);
        assert_eq!(code, 1);
        assert!(!gate.passed && !gate.strict);
    }

    #[test]
    fn speedup_shortfall_fails_only_under_strict() {
        let mut f = Findings::default();
        gate_findings(&rows(2.5, 0x3fe0), &mut f);
        assert!(f.fatal.is_empty() && f.strict.is_empty(), "{f:?}");

        let mut f = Findings::default();
        gate_findings(&rows(1.79, 0x3fe0), &mut f);
        assert!(f.fatal.is_empty());
        assert_eq!(f.strict.len(), 1, "{f:?}");
        assert!(f.strict[0].contains("1.79x"));
        // Without the strict variable: advisory, exit 0. A command with
        // no strict variable (or with it set) fails.
        let (gate, code) = harness::gate("threads", Some("THREADS_STRICT_UNSET_IN_TESTS"), &f);
        assert_eq!((code, gate.passed, gate.advisories), (0, true, 1));
        let (gate, code) = harness::gate("threads", None, &f);
        assert_eq!((code, gate.passed, gate.regressions), (1, false, 1));
    }
}
