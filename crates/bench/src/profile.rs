//! `repro profile` — run the benchmark-suite workloads under the pool
//! profiler and emit a scaling diagnosis (`PROFILE.json`).
//!
//! For every suite workload × thread count in `{1, 2, 4, 8}` the command
//! runs the full pipeline twice: once unprofiled (the determinism
//! reference) and once under [`rayon::profile::profile_pool`] with an
//! [`obs::Recorder`] attached. The profiled run yields per-stage serial
//! fractions, Amdahl ceilings, per-worker utilization, dispatch hotspots
//! and the device critical path ([`obs::analyze`]); the unprofiled run
//! pins the policy that instrumentation must not move modeled time bits.
//! Any bit mismatch — or a `PROFILE.json` that fails its own round-trip
//! validation — exits nonzero, which is what CI hangs its smoke test on.
//! The gate, the ledger record and the write go through
//! [`crate::harness::finish`]; `PROFILE.json` stays a
//! [`obs::analyze::ProfileDoc`], because its worker and hotspot diagnosis
//! has no `BenchDoc` form.

use crate::common::{DatasetCache, Options, TextTable};
use crate::harness::{self, kernel_name, Findings, Workload, SUITE};
use gpu_sim::Device;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use obs::analyze::{analyze, ProfileDoc, ProfileRun, SCHEMA, SCHEMA_VERSION};
use obs::provenance::Provenance;
use obs::Recorder;
use spatial::Point2;
use std::sync::Arc;

/// Thread counts each workload is profiled at (capped sweeps would hide
/// the scaling story the diagnosis exists to tell).
pub const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

fn config(w: &Workload) -> HybridConfig {
    HybridConfig {
        kernel: w.kernel,
        ..HybridConfig::default()
    }
}

/// One profiled run of `w` on `pool`: the full pipeline with recorder
/// spans and a pool-profiler session. `reference_bits` are the modeled
/// time bits of an unprofiled run of the same row; the run records
/// whether profiling reproduced them. Returns the run record plus the
/// recorder (so the caller can export `--trace`/`--metrics`). `repro
/// threads` calls this for its attribution columns.
pub fn profiled_run(
    device: &Device,
    points: &[Point2],
    w: &Workload,
    pool: &rayon::ThreadPool,
    reference_bits: u64,
) -> (ProfileRun, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let hybrid = HybridDbscan::new(device, config(w)).with_recorder(rec.clone());
    let session = rayon::profile::profile_pool();
    let result = pool.install(|| hybrid.run(points, w.eps, w.minpts).expect("profiled run"));
    let pool_profile = session.finish();
    rec.record_pool_profile(&pool_profile);

    let bits = result.gpu.modeled_time.as_secs().to_bits();
    let run = ProfileRun {
        workload: w.id.to_string(),
        scenario: w.scenario.to_string(),
        kernel: kernel_name(w.kernel).to_string(),
        threads: pool.current_num_threads() as u64,
        modeled_ms: result.gpu.modeled_time.as_millis(),
        modeled_time_bits: bits,
        bits_match_unprofiled: bits == reference_bits,
        ..ProfileRun::from_analysis(&analyze(&rec))
    };
    (run, rec)
}

/// Profile one workload at one pool width: an unprofiled reference run
/// (the modeled-bits sentinel), then [`profiled_run`].
fn profile_workload(
    device: &Device,
    cache: &mut DatasetCache,
    w: &Workload,
    threads: usize,
) -> (ProfileRun, Arc<Recorder>) {
    let points = cache.get(w.dataset).points.clone();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool view");
    let reference = HybridDbscan::new(device, config(w));
    let bits = pool.install(|| {
        let result = reference
            .run(&points, w.eps, w.minpts)
            .expect("reference run");
        result.gpu.modeled_time.as_secs().to_bits()
    });
    profiled_run(device, &points, w, &pool, bits)
}

/// The profile's gate: any run whose profiled modeled bits differ from
/// the unprofiled reference is fatal (determinism policy).
fn findings(doc: &ProfileDoc) -> Findings {
    let mismatches = doc.runs.iter().filter(|r| !r.bits_match_unprofiled).count();
    Findings {
        fatal: (mismatches > 0)
            .then(|| format!("DETERMINISM VIOLATION — {mismatches} run(s) changed modeled bits"))
            .into_iter()
            .collect(),
        ..Findings::default()
    }
}

/// Run the profiling sweep, print the diagnosis, and finish (ledger
/// record, then `PROFILE.json`). Returns the process exit code: nonzero
/// when profiling perturbed modeled time bits or the emitted document
/// failed validation.
pub fn print(opts: &Options) -> i32 {
    println!("== Scaling profile: suite workloads under the pool profiler ==");
    println!(
        "Each workload runs unprofiled then profiled at {:?} threads;",
        THREAD_COUNTS
    );
    println!("modeled time bits must be identical in both runs (determinism policy).\n");

    let device = Device::k20c();
    let mut cache = DatasetCache::new(opts.scale);
    let mut doc = ProfileDoc {
        version: SCHEMA_VERSION,
        scale: opts.scale,
        host_threads: rayon::current_num_threads() as u64,
        provenance: Some(Provenance::collect(
            SCHEMA,
            SCHEMA_VERSION,
            SUITE.iter().map(|w| w.id.to_string()).collect(),
        )),
        runs: Vec::new(),
    };
    let mut last_rec: Option<Arc<Recorder>> = None;
    for w in SUITE {
        for &threads in THREAD_COUNTS {
            let (run, rec) = profile_workload(&device, &mut cache, w, threads);
            doc.runs.push(run);
            last_rec = Some(rec);
        }
    }

    let mut t = TextTable::new(&[
        "workload",
        "threads",
        "build wall",
        "serial frac",
        "Amdahl max",
        "mean util",
        "steals",
        "bits ok",
    ]);
    for run in &doc.runs {
        let build = run.stages.iter().find(|s| s.name == "build_table");
        t.row(vec![
            run.workload.clone(),
            run.threads.to_string(),
            build.map_or("-".into(), |s| format!("{:.1} ms", s.wall_ms)),
            build.map_or("-".into(), |s| format!("{:.2}", s.serial_fraction)),
            build.map_or("-".into(), |s| format!("{:.1}x", s.amdahl_max_speedup)),
            format!("{:.0}%", run.mean_utilization_pct().unwrap_or(0.0)),
            run.steals().to_string(),
            if run.bits_match_unprofiled {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    t.print();
    // Full diagnosis for the S1 workload at the widest pool — the run a
    // scaling investigation reads first.
    if let Some(run) = doc
        .runs
        .iter()
        .rev()
        .find(|r| r.scenario == "S1" && r.threads == *THREAD_COUNTS.last().unwrap() as u64)
    {
        println!(
            "\n--- diagnosis: {} at {} threads ---",
            run.workload, run.threads
        );
        for line in &run.diagnosis {
            println!("  {line}");
        }
        if !run.workers.is_empty() {
            let mut wt = TextTable::new(&["worker", "busy", "park", "queue-wait", "util", "tasks"]);
            for wu in &run.workers {
                wt.row(vec![
                    wu.name.clone(),
                    format!("{:.1} ms", wu.busy_ms),
                    format!("{:.1} ms", wu.park_ms),
                    format!("{:.2} ms", wu.queue_wait_ms),
                    format!("{:.0}%", wu.utilization_pct),
                    format!("{} ({} stolen)", wu.tasks, wu.steals),
                ]);
            }
            wt.print();
        }
        if !run.hotspots.is_empty() {
            println!("  top hotspots:");
            for h in run.hotspots.iter().take(4) {
                println!(
                    "    {:<12} {:>9.1} ms busy  {:>7.2} ms queue-wait  {} tasks",
                    h.label, h.busy_ms, h.queue_wait_ms, h.tasks
                );
            }
        }
    }

    let findings = findings(&doc);
    let code = harness::finish(opts, "profile", None, "PROFILE.json", &doc, findings);
    if let Some(rec) = &last_rec {
        opts.write_observability(rec);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiled_run_emits_stages_and_matches_unprofiled_bits() {
        let mut cache = DatasetCache::new(0.002);
        let device = Device::k20c();
        let (run, _rec) = profile_workload(&device, &mut cache, &SUITE[0], 2);
        assert!(run.bits_match_unprofiled, "{run:?}");
        let names: Vec<&str> = run.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"build_table"), "{names:?}");
        assert!(names.contains(&"dbscan"), "{names:?}");
        for s in &run.stages {
            assert!((0.0..=1.0).contains(&s.serial_fraction), "{s:?}");
            assert!(s.amdahl_max_speedup >= 1.0, "{s:?}");
            assert!(!s.dominant.is_empty());
        }
        assert!(!run.diagnosis.is_empty());
        // The device schedule always yields a critical path.
        assert!(!run.critical_path.is_empty());
    }

    #[test]
    fn perturbed_bits_are_fatal() {
        let run = |ok| ProfileRun {
            bits_match_unprofiled: ok,
            ..ProfileRun::default()
        };
        let mut doc = ProfileDoc {
            runs: vec![run(true), run(true)],
            ..ProfileDoc::default()
        };
        assert!(findings(&doc).fatal.is_empty());
        doc.runs[1] = run(false);
        let f = findings(&doc);
        assert_eq!(f.fatal.len(), 1, "{f:?}");
        assert_eq!(harness::gate("profile", None, &f).1, 1);
    }
}
