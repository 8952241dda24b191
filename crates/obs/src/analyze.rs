//! Scaling diagnosis: turn a recorder's spans, device ops, and pool
//! worker lanes into an attribution story — per-stage serial fraction
//! and Amdahl ceiling, per-worker utilization, dispatch hotspots, and
//! the critical path through the device schedule.
//!
//! ## Serial fraction
//!
//! For each pipeline stage (a top-level span, or the children of the
//! single root span when there is one), pool task events are clipped to
//! the stage's wall window and swept boundary-by-boundary: wall time
//! with **fewer than two** concurrently executing pool tasks counts as
//! serial. A stage that never touches the pool (or runs on the
//! sequential fast path under one thread) therefore reports serial
//! fraction 1.0 — exactly the diagnosis a scaling investigation wants.
//! The Amdahl-predicted max speedup is `1 / max(serial_fraction, 1e-4)`
//! (clamped so a fully parallel stage reports a finite ceiling).
//!
//! ## Critical path
//!
//! Over the device ops: start from the op that finishes last and walk
//! backwards, each time picking the latest-finishing unvisited op that
//! ends at or before the current op's start **and** shares its chain,
//! engine, or stream (the three edge kinds the simulated scheduler can
//! serialize on). The walk is a lower bound on the true dependency
//! chain but matches the scheduler's actual constraints for the
//! pipelines this workspace builds.
//!
//! ## PROFILE.json
//!
//! [`ProfileDoc`] is the schema-versioned document `repro profile`
//! emits. Like `BENCH_suite.json` it round-trips exactly through
//! [`crate::json`]: `parse(doc.to_json()).to_json() == doc.to_json()`.

use crate::json::{self, JsonWriter};
use crate::provenance::Provenance;
use crate::{DeviceOp, Recorder};
use std::collections::BTreeMap;

/// Document identifier; bump [`SCHEMA_VERSION`] on incompatible changes.
///
/// Version history: v1 had no provenance header; v2 (PR 9) added it.
/// [`ProfileDoc::parse`] still accepts v1 documents (provenance `None`).
pub const SCHEMA: &str = "hybrid-dbscan/profile";
pub const SCHEMA_VERSION: u64 = 2;

/// Floor for the serial fraction in the Amdahl ceiling, so a fully
/// parallel stage reports a finite (10 000×) max speedup instead of inf.
const MIN_SERIAL_FRACTION: f64 = 1e-4;

/// One pipeline stage's scaling diagnosis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageAnalysis {
    pub name: String,
    pub wall_ms: f64,
    /// Total pool task time inside the stage window (may exceed
    /// `wall_ms` when several workers run concurrently).
    pub pool_busy_ms: f64,
    pub pool_tasks: u64,
    /// Fraction of the stage's wall time with < 2 pool tasks in flight.
    pub serial_fraction: f64,
    /// Amdahl ceiling: `1 / max(serial_fraction, 1e-4)`.
    pub amdahl_max_speedup: f64,
    /// Human-readable name of the dominant bottleneck, e.g.
    /// "91% of wall time inside batch_loop".
    pub dominant: String,
}

/// One pool worker's utilization over the profiled window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerUtilization {
    pub name: String,
    pub busy_ms: f64,
    pub park_ms: f64,
    pub queue_wait_ms: f64,
    /// `busy / session span`, percent.
    pub utilization_pct: f64,
    pub tasks: u64,
    pub steals: u64,
}

/// One op on the device critical path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CriticalPathStep {
    /// Engine lane name (`H2D`/`Compute`/`D2H`/`Host l`).
    pub lane: String,
    pub label: String,
    pub start_ms: f64,
    pub dur_ms: f64,
}

/// Aggregate pool time by region label — where dispatch actually goes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Hotspot {
    pub label: String,
    pub busy_ms: f64,
    pub queue_wait_ms: f64,
    pub tasks: u64,
    pub steals: u64,
}

/// Full scaling diagnosis of one recorded run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunAnalysis {
    /// Wall length of the outermost span (0 when no spans recorded).
    pub wall_ms: f64,
    pub stages: Vec<StageAnalysis>,
    pub workers: Vec<WorkerUtilization>,
    pub critical_path: Vec<CriticalPathStep>,
    /// Sum of critical-path op durations (modeled µs → ms).
    pub critical_path_ms: f64,
    /// Sorted by `busy_ms` descending.
    pub hotspots: Vec<Hotspot>,
    /// Human-readable findings, one line per stage plus run-level lines.
    pub diagnosis: Vec<String>,
}

/// Wall time (µs) inside `[lo, hi]` with at least two of `intervals`
/// active — the time the window is actually parallel.
fn parallel_time_us(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut bounds: Vec<(f64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e > s {
            bounds.push((s, 1));
            bounds.push((e, -1));
        }
    }
    if bounds.is_empty() {
        return 0.0;
    }
    // Ends before starts at equal timestamps: touching intervals do not
    // count as overlapping.
    bounds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut active = 0i32;
    let mut parallel = 0.0;
    let mut prev = bounds[0].0;
    for (t, delta) in bounds {
        if active >= 2 {
            parallel += t - prev;
        }
        prev = t;
        active += delta;
    }
    parallel
}

/// Serial fraction of the window `[lo, hi]` given pool task intervals.
fn serial_fraction(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let window = hi - lo;
    if window <= 0.0 {
        return 1.0;
    }
    let serial = window - parallel_time_us(intervals, lo, hi);
    (serial / window).clamp(0.0, 1.0)
}

/// Critical path through the device ops (see module docs for the walk).
pub fn critical_path(ops: &[DeviceOp]) -> Vec<CriticalPathStep> {
    if ops.is_empty() {
        return Vec::new();
    }
    let end = |o: &DeviceOp| o.start_us + o.dur_us;
    let mut cur = 0usize;
    for (i, o) in ops.iter().enumerate() {
        if end(o) > end(&ops[cur]) {
            cur = i;
        }
    }
    let mut visited = vec![false; ops.len()];
    visited[cur] = true;
    let mut path = vec![cur];
    loop {
        let c = &ops[cur];
        let mut best: Option<usize> = None;
        for (i, o) in ops.iter().enumerate() {
            if visited[i] || end(o) > c.start_us + 1e-6 {
                continue;
            }
            let linked = o.chain == c.chain || o.engine == c.engine || o.stream == c.stream;
            if linked && best.is_none_or(|b| end(o) > end(&ops[b])) {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                visited[i] = true;
                path.push(i);
                cur = i;
            }
            None => break,
        }
    }
    path.reverse();
    path.iter()
        .map(|&i| {
            let o = &ops[i];
            CriticalPathStep {
                lane: crate::chrome::engine_lane_name(o.engine),
                label: o.label.clone(),
                start_ms: o.start_us / 1e3,
                dur_ms: o.dur_us / 1e3,
            }
        })
        .collect()
}

/// Run the full analysis pass over a recorder.
pub fn analyze(rec: &Recorder) -> RunAnalysis {
    let spans = rec.spans();
    let device_ops = rec.device_ops();
    let lanes = rec.pool_lanes();
    let pool_span_us = rec.pool_span_us();

    // All pool task intervals, across every worker lane.
    let intervals: Vec<(f64, f64)> = lanes
        .iter()
        .flat_map(|l| l.events.iter().map(|e| (e.start_us, e.start_us + e.dur_us)))
        .collect();

    // Stages: the children of the single root span when there is exactly
    // one root with children (the `hybrid_dbscan` umbrella), otherwise
    // the roots themselves (`build_table` called standalone).
    let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let stage_spans: Vec<_> = if roots.len() == 1 {
        let root = roots[0];
        let children: Vec<_> = spans.iter().filter(|s| s.parent == Some(root.id)).collect();
        if children.is_empty() {
            roots
        } else {
            children
        }
    } else {
        roots
    };
    let wall_ms = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.wall_start_us + s.wall_dur_us)
        .fold(0.0f64, f64::max)
        / 1e3;

    let mut stages = Vec::new();
    let mut diagnosis = Vec::new();
    for stage in &stage_spans {
        let lo = stage.wall_start_us;
        let hi = stage.wall_start_us + stage.wall_dur_us;
        let sf = serial_fraction(&intervals, lo, hi);
        let amdahl = 1.0 / sf.max(MIN_SERIAL_FRACTION);
        let clipped: Vec<(f64, f64)> = intervals
            .iter()
            .map(|&(s, e)| (s.max(lo), e.min(hi)))
            .filter(|&(s, e)| e > s)
            .collect();
        let pool_busy_ms = clipped.iter().map(|&(s, e)| e - s).sum::<f64>() / 1e3;
        let pool_tasks = clipped.len() as u64;

        // Dominant bottleneck: the largest child span, by share of the
        // stage's wall time; stages without children are judged by their
        // parallelism alone.
        let biggest_child = spans
            .iter()
            .filter(|s| s.parent == Some(stage.id))
            .max_by(|a, b| a.wall_dur_us.total_cmp(&b.wall_dur_us));
        let dominant = match biggest_child {
            Some(child) if stage.wall_dur_us > 0.0 => {
                let pct = child.wall_dur_us / stage.wall_dur_us * 100.0;
                format!("{:.0}% of wall time inside {}", pct, child.name)
            }
            _ if sf > 0.5 => format!("{:.0}% of wall time single-threaded", sf * 100.0),
            _ => "parallel pool execution".to_string(),
        };
        diagnosis.push(format!(
            "{}: {dominant}; serial fraction {sf:.2}, Amdahl max speedup {amdahl:.1}x",
            stage.name
        ));
        stages.push(StageAnalysis {
            name: stage.name.clone(),
            wall_ms: stage.wall_dur_us / 1e3,
            pool_busy_ms,
            pool_tasks,
            serial_fraction: sf,
            amdahl_max_speedup: amdahl,
            dominant,
        });
    }

    let workers: Vec<WorkerUtilization> = lanes
        .iter()
        .map(|l| WorkerUtilization {
            name: l.name.clone(),
            busy_ms: l.busy_us() / 1e3,
            park_ms: l.park_us / 1e3,
            queue_wait_ms: l.queue_wait_us / 1e3,
            utilization_pct: if pool_span_us > 0.0 {
                l.busy_us() / pool_span_us * 100.0
            } else {
                0.0
            },
            tasks: l.tasks,
            steals: l.steals,
        })
        .collect();
    if !workers.is_empty() {
        let mean_util =
            workers.iter().map(|w| w.utilization_pct).sum::<f64>() / workers.len() as f64;
        let steals: u64 = workers.iter().map(|w| w.steals).sum();
        diagnosis.push(format!(
            "pool: {} workers, mean utilization {mean_util:.0}%, {steals} steals",
            workers.len()
        ));
    }

    // Hotspots: pool time by region label (BTreeMap for a deterministic
    // tie order, then sorted by busy time).
    let mut by_label: BTreeMap<&str, Hotspot> = BTreeMap::new();
    for lane in &lanes {
        for e in &lane.events {
            let h = by_label.entry(e.label).or_insert_with(|| Hotspot {
                label: e.label.to_string(),
                ..Hotspot::default()
            });
            h.busy_ms += e.dur_us / 1e3;
            h.queue_wait_ms += e.queue_us / 1e3;
            h.tasks += 1;
            h.steals += e.stolen as u64;
        }
    }
    let mut hotspots: Vec<Hotspot> = by_label.into_values().collect();
    hotspots.sort_by(|a, b| b.busy_ms.total_cmp(&a.busy_ms));

    let critical_path = critical_path(&device_ops);
    let critical_path_ms: f64 = critical_path.iter().map(|s| s.dur_ms).sum();
    if !critical_path.is_empty() {
        let makespan_ms = device_ops
            .iter()
            .map(|o| o.start_us + o.dur_us)
            .fold(0.0f64, f64::max)
            / 1e3;
        let pct = if makespan_ms > 0.0 {
            critical_path_ms / makespan_ms * 100.0
        } else {
            0.0
        };
        diagnosis.push(format!(
            "device critical path: {critical_path_ms:.3} ms over {} ops ({pct:.0}% of makespan)",
            critical_path.len()
        ));
    }

    RunAnalysis {
        wall_ms,
        stages,
        workers,
        critical_path,
        critical_path_ms,
        hotspots,
        diagnosis,
    }
}

/// One profiled run of one workload at one thread count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileRun {
    /// Workload id, e.g. `s1/sw1-eps0.2/global`.
    pub workload: String,
    pub scenario: String,
    pub kernel: String,
    pub threads: u64,
    pub wall_ms: f64,
    pub modeled_ms: f64,
    /// `to_bits()` of the modeled GPU-phase seconds — the determinism
    /// sentinel CI compares across profiled/unprofiled runs. Serialized
    /// as a 16-digit hex string (JSON numbers are f64 in the shared
    /// parser and would truncate a 64-bit pattern).
    pub modeled_time_bits: u64,
    /// True when an unprofiled run of the same workload produced the
    /// identical `modeled_time_bits`.
    pub bits_match_unprofiled: bool,
    pub stages: Vec<StageAnalysis>,
    pub workers: Vec<WorkerUtilization>,
    pub critical_path: Vec<CriticalPathStep>,
    pub critical_path_ms: f64,
    pub hotspots: Vec<Hotspot>,
    pub diagnosis: Vec<String>,
}

impl ProfileRun {
    /// Copy the analysis fields out of a [`RunAnalysis`].
    pub fn from_analysis(a: &RunAnalysis) -> ProfileRun {
        ProfileRun {
            wall_ms: a.wall_ms,
            stages: a.stages.clone(),
            workers: a.workers.clone(),
            critical_path: a.critical_path.clone(),
            critical_path_ms: a.critical_path_ms,
            hotspots: a.hotspots.clone(),
            diagnosis: a.diagnosis.clone(),
            ..ProfileRun::default()
        }
    }

    /// Mean per-worker busy % over the profiled window; `None` when no
    /// pool worker ran.
    pub fn mean_utilization_pct(&self) -> Option<f64> {
        (!self.workers.is_empty()).then(|| {
            self.workers.iter().map(|w| w.utilization_pct).sum::<f64>() / self.workers.len() as f64
        })
    }

    /// Chunks claimed by threads other than their submitter.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Serial fraction of the `build_table` stage, when it was recorded.
    pub fn serial_fraction_build(&self) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.name == "build_table")
            .map(|s| s.serial_fraction)
    }
}

/// A full `PROFILE.json` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileDoc {
    pub version: u64,
    pub scale: f64,
    pub host_threads: u64,
    /// Identity of the producing run. `None` only on parsed v1 documents.
    pub provenance: Option<Provenance>,
    pub runs: Vec<ProfileRun>,
}

impl ProfileDoc {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SCHEMA);
        w.field_uint("version", self.version);
        w.field_float("scale", self.scale);
        w.field_uint("host_threads", self.host_threads);
        if let Some(p) = &self.provenance {
            p.write_field(&mut w);
        }
        w.key("runs");
        w.begin_array();
        for run in &self.runs {
            w.begin_object();
            w.field_str("workload", &run.workload);
            w.field_str("scenario", &run.scenario);
            w.field_str("kernel", &run.kernel);
            w.field_uint("threads", run.threads);
            w.field_float("wall_ms", run.wall_ms);
            w.field_float("modeled_ms", run.modeled_ms);
            w.field_hex("modeled_time_bits", run.modeled_time_bits);
            w.field_bool("bits_match_unprofiled", run.bits_match_unprofiled);
            w.key("stages");
            w.begin_array();
            for s in &run.stages {
                w.begin_object();
                w.field_str("name", &s.name);
                w.field_float("wall_ms", s.wall_ms);
                w.field_float("pool_busy_ms", s.pool_busy_ms);
                w.field_uint("pool_tasks", s.pool_tasks);
                w.field_float("serial_fraction", s.serial_fraction);
                w.field_float("amdahl_max_speedup", s.amdahl_max_speedup);
                w.field_str("dominant", &s.dominant);
                w.end_object();
            }
            w.end_array();
            w.key("workers");
            w.begin_array();
            for wu in &run.workers {
                w.begin_object();
                w.field_str("name", &wu.name);
                w.field_float("busy_ms", wu.busy_ms);
                w.field_float("park_ms", wu.park_ms);
                w.field_float("queue_wait_ms", wu.queue_wait_ms);
                w.field_float("utilization_pct", wu.utilization_pct);
                w.field_uint("tasks", wu.tasks);
                w.field_uint("steals", wu.steals);
                w.end_object();
            }
            w.end_array();
            w.key("critical_path");
            w.begin_array();
            for step in &run.critical_path {
                w.begin_object();
                w.field_str("lane", &step.lane);
                w.field_str("label", &step.label);
                w.field_float("start_ms", step.start_ms);
                w.field_float("dur_ms", step.dur_ms);
                w.end_object();
            }
            w.end_array();
            w.field_float("critical_path_ms", run.critical_path_ms);
            w.key("hotspots");
            w.begin_array();
            for h in &run.hotspots {
                w.begin_object();
                w.field_str("label", &h.label);
                w.field_float("busy_ms", h.busy_ms);
                w.field_float("queue_wait_ms", h.queue_wait_ms);
                w.field_uint("tasks", h.tasks);
                w.field_uint("steals", h.steals);
                w.end_object();
            }
            w.end_array();
            w.key("diagnosis");
            w.begin_array();
            for line in &run.diagnosis {
                w.string(line);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parse a document produced by [`Self::to_json`]. Schema and
    /// version are validated; field errors name the offending key.
    pub fn parse(text: &str) -> Result<ProfileDoc, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let schema = v.req_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unexpected schema '{schema}' (want '{SCHEMA}')"));
        }
        let version = v.req_u64("version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "unsupported schema version {version} (supported: 1..={SCHEMA_VERSION})"
            ));
        }
        let mut doc = ProfileDoc {
            version,
            scale: v.req_f64("scale")?,
            host_threads: v.req_u64("host_threads")?,
            provenance: Provenance::parse_field(&v)?,
            runs: Vec::new(),
        };
        for r in v.req_arr("runs")? {
            let mut run = ProfileRun {
                workload: r.req_str("workload")?.to_string(),
                scenario: r.req_str("scenario")?.to_string(),
                kernel: r.req_str("kernel")?.to_string(),
                threads: r.req_u64("threads")?,
                wall_ms: r.req_f64("wall_ms")?,
                modeled_ms: r.req_f64("modeled_ms")?,
                modeled_time_bits: r
                    .opt_hex("modeled_time_bits")?
                    .ok_or("missing string field 'modeled_time_bits'")?,
                bits_match_unprofiled: r.req_bool("bits_match_unprofiled")?,
                critical_path_ms: r.req_f64("critical_path_ms")?,
                ..ProfileRun::default()
            };
            for s in r.req_arr("stages")? {
                run.stages.push(StageAnalysis {
                    name: s.req_str("name")?.to_string(),
                    wall_ms: s.req_f64("wall_ms")?,
                    pool_busy_ms: s.req_f64("pool_busy_ms")?,
                    pool_tasks: s.req_u64("pool_tasks")?,
                    serial_fraction: s.req_f64("serial_fraction")?,
                    amdahl_max_speedup: s.req_f64("amdahl_max_speedup")?,
                    dominant: s.req_str("dominant")?.to_string(),
                });
            }
            for wv in r.req_arr("workers")? {
                run.workers.push(WorkerUtilization {
                    name: wv.req_str("name")?.to_string(),
                    busy_ms: wv.req_f64("busy_ms")?,
                    park_ms: wv.req_f64("park_ms")?,
                    queue_wait_ms: wv.req_f64("queue_wait_ms")?,
                    utilization_pct: wv.req_f64("utilization_pct")?,
                    tasks: wv.req_u64("tasks")?,
                    steals: wv.req_u64("steals")?,
                });
            }
            for step in r.req_arr("critical_path")? {
                run.critical_path.push(CriticalPathStep {
                    lane: step.req_str("lane")?.to_string(),
                    label: step.req_str("label")?.to_string(),
                    start_ms: step.req_f64("start_ms")?,
                    dur_ms: step.req_f64("dur_ms")?,
                });
            }
            for h in r.req_arr("hotspots")? {
                run.hotspots.push(Hotspot {
                    label: h.req_str("label")?.to_string(),
                    busy_ms: h.req_f64("busy_ms")?,
                    queue_wait_ms: h.req_f64("queue_wait_ms")?,
                    tasks: h.req_u64("tasks")?,
                    steals: h.req_u64("steals")?,
                });
            }
            for line in r.req_arr("diagnosis")? {
                run.diagnosis.push(
                    line.as_str()
                        .ok_or("diagnosis entry not a string")?
                        .to_string(),
                );
            }
            doc.runs.push(run);
        }
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PoolTaskEvent, PoolWorkerLane};
    use gpu_sim::timeline::Engine;
    use gpu_sim::{SimDuration, SimTime};

    fn lane(name: &str, events: Vec<PoolTaskEvent>) -> PoolWorkerLane {
        let tasks = events.len() as u64;
        PoolWorkerLane {
            name: name.into(),
            tasks,
            local_pops: tasks,
            events,
            ..PoolWorkerLane::default()
        }
    }

    fn ev(start_us: f64, dur_us: f64) -> PoolTaskEvent {
        PoolTaskEvent {
            label: "par_iter",
            start_us,
            dur_us,
            stolen: false,
            queue_us: 0.0,
        }
    }

    #[test]
    fn serial_fraction_is_one_without_overlap() {
        // One worker, back-to-back tasks: never two in flight.
        let intervals = vec![(0.0, 400.0), (400.0, 1000.0)];
        assert_eq!(serial_fraction(&intervals, 0.0, 1000.0), 1.0);
        // No pool events at all.
        assert_eq!(serial_fraction(&[], 0.0, 1000.0), 1.0);
    }

    #[test]
    fn serial_fraction_sees_cross_worker_overlap() {
        // Two workers fully overlapped for the whole window.
        let intervals = vec![(0.0, 1000.0), (0.0, 1000.0)];
        assert!(serial_fraction(&intervals, 0.0, 1000.0) < 0.01);
        // Overlapped for half the window.
        let intervals = vec![(0.0, 1000.0), (500.0, 1000.0)];
        let sf = serial_fraction(&intervals, 0.0, 1000.0);
        assert!((sf - 0.5).abs() < 1e-9, "{sf}");
        // Clipping: overlap outside the window does not count.
        let sf = serial_fraction(&intervals, 0.0, 500.0);
        assert_eq!(sf, 1.0);
    }

    #[test]
    fn analyze_flags_serialized_and_parallel_stages() {
        let rec = Recorder::new();
        let (lo, hi) = {
            let s = rec.span("stage", "host");
            // Hold the span open a moment so it has nonzero duration.
            std::thread::sleep(std::time::Duration::from_millis(2));
            drop(s);
            let sp = &rec.spans()[0];
            (sp.wall_start_us, sp.wall_start_us + sp.wall_dur_us)
        };
        // Two workers busy with overlapping tasks across the whole stage.
        rec.record_pool_lanes(
            hi - lo,
            vec![
                lane("rayon-worker-0", vec![ev(lo, hi - lo)]),
                lane("rayon-worker-1", vec![ev(lo, hi - lo)]),
            ],
        );
        let a = analyze(&rec);
        assert_eq!(a.stages.len(), 1);
        assert!(a.stages[0].serial_fraction < 0.3, "{:?}", a.stages[0]);
        assert!(a.stages[0].amdahl_max_speedup > 3.0);
        assert_eq!(a.workers.len(), 2);
        assert!(!a.diagnosis.is_empty());

        // A recorder with no pool events: fully serial.
        let rec = Recorder::new();
        {
            let _s = rec.span("stage", "host");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let a = analyze(&rec);
        assert_eq!(a.stages[0].serial_fraction, 1.0);
        assert!((a.stages[0].amdahl_max_speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nested_tasks_do_not_push_utilization_above_100_pct() {
        // A worker busy for the whole 1000 µs session, with two tasks run
        // nested inside the outer one while it waited (`help_one`): the
        // durations sum to 1700 µs, the busy time is their union.
        let rec = Recorder::new();
        rec.record_pool_lanes(
            1000.0,
            vec![lane(
                "main",
                vec![ev(0.0, 1000.0), ev(100.0, 400.0), ev(200.0, 300.0)],
            )],
        );
        let w = &analyze(&rec).workers[0];
        assert_eq!(w.busy_ms, 1.0);
        assert!(w.utilization_pct <= 100.0, "{w:?}");
        assert_eq!(w.utilization_pct, 100.0);
    }

    #[test]
    fn analyze_uses_root_children_as_stages() {
        let rec = Recorder::new();
        {
            let _root = rec.span("hybrid_dbscan", "run");
            let _a = rec.span("build_table", "hybrid");
            drop(_a);
            let _b = rec.span("dbscan", "host");
        }
        let a = analyze(&rec);
        let names: Vec<&str> = a.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["build_table", "dbscan"]);
    }

    #[test]
    fn critical_path_follows_chain_and_engine_edges() {
        let rec = Recorder::new();
        // chain 0: h2d 0-10, compute 10-30; chain 1: compute 30-40
        // (serialized behind chain 0 on the Compute engine).
        rec.record_device_op(
            Engine::H2D,
            "up",
            0,
            0,
            SimTime::ZERO,
            SimDuration::from_micros(10.0),
        );
        rec.record_device_op(
            Engine::Compute,
            "k0",
            0,
            0,
            SimTime::from_secs(10e-6),
            SimDuration::from_micros(20.0),
        );
        rec.record_device_op(
            Engine::Compute,
            "k1",
            1,
            1,
            SimTime::from_secs(30e-6),
            SimDuration::from_micros(10.0),
        );
        let path = critical_path(&rec.device_ops());
        let labels: Vec<&str> = path.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["up", "k0", "k1"]);
        let total: f64 = path.iter().map(|s| s.dur_ms).sum();
        assert!((total - 0.04).abs() < 1e-12, "{total}");
    }

    #[test]
    fn hotspots_aggregate_by_label_and_sort_by_busy() {
        let rec = Recorder::new();
        rec.record_pool_lanes(
            1000.0,
            vec![lane(
                "w0",
                vec![
                    PoolTaskEvent {
                        label: "sort_runs",
                        start_us: 0.0,
                        dur_us: 100.0,
                        stolen: true,
                        queue_us: 5.0,
                    },
                    PoolTaskEvent {
                        label: "par_iter",
                        start_us: 100.0,
                        dur_us: 700.0,
                        stolen: false,
                        queue_us: 0.0,
                    },
                ],
            )],
        );
        let a = analyze(&rec);
        assert_eq!(a.hotspots.len(), 2);
        assert_eq!(a.hotspots[0].label, "par_iter");
        assert_eq!(a.hotspots[1].label, "sort_runs");
        assert_eq!(a.hotspots[1].steals, 1);
    }

    fn sample_doc() -> ProfileDoc {
        ProfileDoc {
            version: SCHEMA_VERSION,
            scale: 0.02,
            host_threads: 8,
            provenance: Some(Provenance {
                header_version: crate::provenance::HEADER_VERSION,
                schema: SCHEMA.into(),
                schema_version: SCHEMA_VERSION,
                git_sha: "ee9aa08269b9".into(),
                git_dirty: false,
                rustc: "rustc 1.95.0".into(),
                rayon_num_threads: "8".into(),
                host: "test".into(),
                os: "linux/x86_64".into(),
                timestamp_unix: 1_754_611_200,
                workloads: vec!["s1/sw1-eps0.2/global".into()],
            }),
            runs: vec![ProfileRun {
                workload: "s1/sw1-eps0.2/global".into(),
                scenario: "S1".into(),
                kernel: "global".into(),
                threads: 4,
                wall_ms: 1234.5,
                modeled_ms: 842.125,
                // Deliberately not f64-representable (odd low bit): real
                // bit patterns use the full mantissa, and a numeric JSON
                // encoding would silently truncate them.
                modeled_time_bits: 0x3FEB_5A5A_5A5A_5A5B,
                bits_match_unprofiled: true,
                stages: vec![StageAnalysis {
                    name: "build_table".into(),
                    wall_ms: 900.25,
                    pool_busy_ms: 1800.5,
                    pool_tasks: 64,
                    serial_fraction: 0.91,
                    amdahl_max_speedup: 1.1,
                    dominant: "91% of wall time inside batch_loop".into(),
                }],
                workers: vec![WorkerUtilization {
                    name: "rayon-worker-0".into(),
                    busy_ms: 500.5,
                    park_ms: 300.25,
                    queue_wait_ms: 2.5,
                    utilization_pct: 55.5,
                    tasks: 32,
                    steals: 12,
                }],
                critical_path: vec![CriticalPathStep {
                    lane: "Compute".into(),
                    label: "gpucalc".into(),
                    start_ms: 0.125,
                    dur_ms: 500.75,
                }],
                critical_path_ms: 500.75,
                hotspots: vec![Hotspot {
                    label: "par_iter".into(),
                    busy_ms: 1500.125,
                    queue_wait_ms: 3.5,
                    tasks: 64,
                    steals: 12,
                }],
                diagnosis: vec![
                    "build_table: 91% of wall time inside batch_loop; serial fraction 0.91, \
                     Amdahl max speedup 1.1x"
                        .into(),
                ],
            }],
        }
    }

    #[test]
    fn profile_doc_round_trips_exactly() {
        let doc = sample_doc();
        let text = doc.to_json();
        let parsed = ProfileDoc::parse(&text).expect("parse own output");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "emission must be a fixed point");
    }

    #[test]
    fn profile_doc_rejects_wrong_schema_and_version() {
        let text = sample_doc().to_json();
        let wrong = text.replacen(SCHEMA, "something/else", 1);
        assert!(ProfileDoc::parse(&wrong).unwrap_err().contains("schema"));
        let wrong = text.replacen(r#""version":2"#, r#""version":999"#, 1);
        assert!(ProfileDoc::parse(&wrong).unwrap_err().contains("version"));
        assert!(ProfileDoc::parse("{}").is_err());
        assert!(ProfileDoc::parse("not json").is_err());
    }

    #[test]
    fn profile_doc_v1_parses_without_provenance() {
        let mut doc = sample_doc();
        doc.version = 1;
        doc.provenance = None;
        let text = doc.to_json();
        assert!(!text.contains("provenance"));
        let parsed = ProfileDoc::parse(&text).expect("v1 fallback");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text);
    }
}
