//! Closed-loop clustering-throughput benchmark for Hybrid-DBSCAN.
//!
//! One client thread issues clustering jobs back to back (a closed loop:
//! the next job starts when the previous one returns) on a rayon pool of
//! at most `available_parallelism` threads. A job is one clustering. The
//! timed run calls only the library's top-level entry points
//! (`HybridDbscan::run`, `build_table`, `cluster_with_table`) with tracing
//! off; a separate traced run replays each build layer by layer through
//! the public functions of every layer (see [`replay`]) and reports the
//! per-layer metrics. Every job's output is checked against the R-tree
//! reference DBSCAN outside the measured regions.
//!
//! The workloads, the metrics and the layer-to-end-to-end mapping are
//! documented in `perfbench/README.md`.

mod replay;

use datasets::DatasetSpec;
use gpu_sim::{Device, SimDuration};
use hybrid_dbscan_core::hybrid::{HybridError, TableHandle};
use hybrid_dbscan_core::reference::ReferenceDbscan;
use hybrid_dbscan_core::scenario;
use hybrid_dbscan_core::{
    clustering_fingerprint, table_fingerprint, Clustering, HybridConfig, HybridDbscan, IndexBackend,
};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use spatial::Point2;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Jobs that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

/// Setups per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Half-width of the seeded uniform jitter added to every coordinate
/// (dataset units, degrees). The SW generators draw a handful of
/// heavy-tailed receiver sites at these scales, so a different generator
/// seed changes the pair count of a table by up to 10x; the benchmark
/// seed therefore perturbs the published dataset (generated from its
/// spec's own seed) by measurement-scale noise instead, 1/70 of the
/// smallest ε of any workload.
const JITTER: f64 = 1e-3;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// S2: one build plus one DBSCAN per job over an ε sweep of SW4.
    S2SweepSw4,
    /// S3: DBSCAN over one cached SW1 table, cycling Table V's minpts.
    S3ReuseSw1,
    /// S1: one build plus one DBSCAN per job over uniform SDSS2.
    S1SingleSdss2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::S2SweepSw4,
        Workload::S3ReuseSw1,
        Workload::S1SingleSdss2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S2SweepSw4 => "s2-sweep-sw4",
            Workload::S3ReuseSw1 => "s3-reuse-sw1",
            Workload::S1SingleSdss2 => "s1-single-sdss2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn spec(self) -> DatasetSpec {
        match self {
            Workload::S2SweepSw4 => datasets::spec::SW4,
            Workload::S3ReuseSw1 => datasets::spec::SW1,
            Workload::S1SingleSdss2 => datasets::spec::SDSS2,
        }
    }

    /// The dataset scale the benchmark runs at.
    pub fn scale(self) -> f64 {
        match self {
            Workload::S2SweepSw4 => 0.002,
            Workload::S3ReuseSw1 => 0.01,
            Workload::S1SingleSdss2 => 0.04,
        }
    }

    /// The default seed: the dataset spec's own generator seed.
    pub fn default_seed(self) -> u64 {
        self.spec().seed
    }

    /// The `(ε, minpts)` of each job, in the order the loop cycles them.
    pub fn variants(self) -> Vec<(f64, usize)> {
        match self {
            Workload::S2SweepSw4 => scenario::s2_variants("SW4")[..5]
                .iter()
                .map(|v| (v.eps, v.minpts))
                .collect(),
            Workload::S3ReuseSw1 => {
                let (eps, minpts) = scenario::s3_rows("SW1").swap_remove(0);
                minpts.into_iter().map(|m| (eps, m)).collect()
            }
            Workload::S1SingleSdss2 => {
                let (_, eps) = scenario::s1_settings()
                    .into_iter()
                    .find(|&(name, _)| name == "SDSS2")
                    .expect("Table II lists SDSS2");
                vec![(eps, 4)]
            }
        }
    }

    /// S3 clusters one table built during setup; the others build one
    /// table per job.
    fn reuses_table(self) -> bool {
        self == Workload::S3ReuseSw1
    }
}

/// The points the program receives: the workload's dataset at `scale`,
/// generated from its spec's seed, with every coordinate moved by a
/// uniform jitter in `[-JITTER, JITTER)` drawn from `seed`.
pub fn make_inputs(workload: Workload, seed: u64, scale: f64) -> Vec<Point2> {
    let mut points = workload.spec().generate(scale).points;
    let mut rng = StdRng::seed_from_u64(seed);
    for p in &mut points {
        p.x += (rng.random::<f64>() * 2.0 - 1.0) * JITTER;
        p.y += (rng.random::<f64>() * 2.0 - 1.0) * JITTER;
    }
    points
}

/// The configuration every workload clusters with.
fn hybrid_config() -> HybridConfig {
    HybridConfig {
        backend: IndexBackend::Auto,
        ..Default::default()
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum measured wall time; a run also completes at least one pass
    /// over the variants and `TAIL_BEYOND + 1` jobs.
    pub seconds: f64,
    /// Run the traced replay (per-layer metrics) instead of the timed
    /// loop (end-to-end metrics).
    pub trace: bool,
    pub scale: f64,
    /// Rayon pool size.
    pub threads: usize,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// The single-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "metric {} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything a job needs, built by setup.
struct Bench {
    hybrid: HybridDbscan,
    points: Vec<Point2>,
    variants: Vec<(f64, usize)>,
    /// The cached table of a reuse workload.
    table: Option<TableHandle>,
}

impl Bench {
    /// Generate the inputs, create the device, build the cached table if
    /// the workload reuses one, and warm up with one pass over the
    /// variants.
    fn setup(cfg: &RunConfig) -> Result<Bench, HybridError> {
        let points = make_inputs(cfg.workload, cfg.seed, cfg.scale);
        let device = Device::k20c();
        let hybrid = HybridDbscan::new(&device, hybrid_config());
        let variants = cfg.workload.variants();
        let table = if cfg.workload.reuses_table() {
            Some(hybrid.build_table(&points, variants[0].0)?)
        } else {
            None
        };
        let bench = Bench {
            hybrid,
            points,
            variants,
            table,
        };
        for i in 0..bench.variants.len() {
            bench.job(i)?;
        }
        Ok(bench)
    }

    /// Job `i`: cluster with the `i mod |variants|`-th variant. Returns the
    /// labels and, when the job built a table, its modeled device time.
    fn job(&self, i: usize) -> Result<(Clustering, Option<SimDuration>), HybridError> {
        let (eps, minpts) = self.variants[i % self.variants.len()];
        match &self.table {
            Some(handle) => Ok((HybridDbscan::cluster_with_table(handle, minpts).0, None)),
            None => {
                let r = self.hybrid.run(&self.points, eps, minpts)?;
                Ok((r.clustering, Some(r.gpu.modeled_time)))
            }
        }
    }

    /// The job count a run needs at least: one pass over the variants and
    /// enough jobs for a tail percentile.
    fn min_jobs(&self) -> usize {
        self.variants.len().max(TAIL_BEYOND + 1)
    }

    /// Reference clustering fingerprints of every variant, computed in
    /// parallel on the pool.
    fn reference_fingerprints(&self) -> Vec<u64> {
        self.variants
            .par_iter()
            .map(|&(eps, minpts)| {
                clustering_fingerprint(
                    &ReferenceDbscan::new(eps, minpts)
                        .run(&self.points)
                        .clustering,
                )
            })
            .collect()
    }

    /// Distinct ε values in job order.
    fn distinct_eps(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for &(eps, _) in &self.variants {
            if !out.contains(&eps) {
                out.push(eps);
            }
        }
        out
    }
}

/// Run one benchmark invocation on a pool of `cfg.threads` threads.
pub fn run(cfg: &RunConfig) -> Result<Report, HybridError> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(cfg.threads.max(1))
        .build()
        .expect("the rayon pool builds");
    pool.install(|| {
        if cfg.trace {
            run_traced(cfg)
        } else {
            run_timed(cfg)
        }
    })
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM present in /proc/self/status");
    kib / 1024.0
}

/// The timed run: repeated setups, then the closed loop, then the checks.
fn run_timed(cfg: &RunConfig) -> Result<Report, HybridError> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_tables = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        let b = Bench::setup(cfg)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(h) = &b.table {
            setup_tables.push((table_fingerprint(&h.table), h.gpu.modeled_time));
        }
        bench = Some(b);
    }
    let bench = bench.expect("at least one setup");

    // The closed loop. Only the job call is inside a latency sample, and
    // every timing metric comes from those samples.
    let mut latencies_ms = Vec::new();
    let mut outputs: Vec<Option<u64>> = Vec::new();
    let mut job_modeled: Vec<Option<SimDuration>> = Vec::new();
    let min_jobs = bench.min_jobs();
    let region = Instant::now();
    while latencies_ms.len() < min_jobs || region.elapsed().as_secs_f64() < cfg.seconds {
        let i = latencies_ms.len();
        let t = Instant::now();
        let out = bench.job(i);
        latencies_ms.push(ms(t.elapsed()));
        match out {
            Ok((clustering, modeled)) => {
                outputs.push(Some(clustering_fingerprint(&clustering)));
                job_modeled.push(modeled);
            }
            Err(e) => {
                eprintln!("job {i} failed: {e}");
                outputs.push(None);
                job_modeled.push(None);
            }
        }
    }
    let rss = peak_rss_mib();

    // Checks, outside every measured region.
    let n_var = bench.variants.len();
    let refs = bench.reference_fingerprints();
    let mut failed = 0u64;
    for (i, out) in outputs.iter().enumerate() {
        if *out != Some(refs[i % n_var]) {
            eprintln!("job {i}: clustering differs from the reference");
            failed += 1;
        }
    }
    let mut notes = Vec::new();
    let mut consistent = true;
    // Modeled time of the tables of one pass; every repeat of a variant
    // must model the same time to the bit.
    let modeled_table_ms = match &bench.table {
        Some(h) => {
            consistent &= setup_tables.iter().all(|&(fp, m)| {
                fp == table_fingerprint(&h.table)
                    && m.as_secs().to_bits() == h.gpu.modeled_time.as_secs().to_bits()
            });
            h.gpu.modeled_time.as_millis()
        }
        None => {
            let mut total = SimDuration::ZERO;
            for v in 0..n_var {
                let mut seen = job_modeled.iter().skip(v).step_by(n_var).flatten();
                match seen.next() {
                    Some(&first) => {
                        let bits = first.as_secs().to_bits();
                        consistent &= seen.all(|m| m.as_secs().to_bits() == bits);
                        total += first;
                    }
                    // Every job of this variant failed; `failed` counts them.
                    None => consistent = false,
                }
            }
            for eps in bench.distinct_eps() {
                let a = bench.hybrid.build_table(&bench.points, eps)?;
                let b = bench.hybrid.build_table(&bench.points, eps)?;
                consistent &= table_fingerprint(&a.table) == table_fingerprint(&b.table);
            }
            total.as_millis()
        }
    };
    if !consistent {
        notes.push("repeated builds differ in table fingerprint or modeled time".to_string());
    }

    let jobs = latencies_ms.len();
    // Throughput of each complete pass over the variants; the median over
    // passes keeps a burst of host contention from moving the figure.
    let pass_rates: Vec<f64> = latencies_ms
        .chunks_exact(n_var)
        .map(|pass| n_var as f64 * 1e3 / pass.iter().sum::<f64>())
        .collect();
    let mut sorted = latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = sorted[jobs - 1 - TAIL_BEYOND];
    let tail_pct = 100.0 * (jobs - TAIL_BEYOND) as f64 / jobs as f64;
    notes.push(format!(
        "clustering_ms_tail is p{tail_pct:.1} of {jobs} jobs ({TAIL_BEYOND} beyond it)"
    ));
    notes.push(format!(
        "error_rate = {} ({failed} of {jobs} jobs failed)",
        failed as f64 / jobs as f64
    ));
    Ok(Report {
        correct: failed == 0 && consistent,
        attempted: jobs as u64,
        failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&setup_s),
                unit: "s",
            },
            Metric {
                name: "clusterings_per_s",
                value: median(&pass_rates),
                unit: "1/s",
            },
            Metric {
                name: "clustering_ms_p50",
                value: median(&latencies_ms),
                unit: "ms",
            },
            Metric {
                name: "clustering_ms_tail",
                value: tail,
                unit: "ms",
            },
            Metric {
                name: "modeled_table_ms",
                value: modeled_table_ms,
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mib",
                value: rss,
                unit: "MiB",
            },
        ],
        notes,
    })
}

/// Per-table values of the traced run: replayed walls plus the modeled
/// figures of the untraced build of the same table.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The median over samples, or the mean for the metrics in
    /// `MEAN_LAYER_METRICS`.
    fn value(&self, name: &'static str) -> f64 {
        let v = &self.0[name];
        if MEAN_LAYER_METRICS.contains(&name) {
            v.iter().sum::<f64>() / v.len() as f64
        } else {
            median(v)
        }
    }
}

/// Per-table metrics reported as means: a retry at one ε of a sweep is
/// rare enough that a median over tables would hide it.
const MEAN_LAYER_METRICS: [&str; 2] = ["batch.retries", "batch.useful_pair_ratio"];

/// Record the build layers of one table: the replayed walls and the
/// untraced report's modeled breakdown and counters.
fn push_build_samples(s: &mut Samples, replayed: &replay::ReplayedTable, handle: &TableHandle) {
    let w = &replayed.walls;
    let gpu = &handle.gpu;
    let b = &gpu.breakdown;
    let k = &gpu.kernel_profile;
    let pairs = gpu.result_pairs as f64;
    let useful = pairs + gpu.discarded_pairs as f64;
    s.push("spatial.presort_ms", w.get("presort"));
    s.push("spatial.index_build_ms", w.get("index_build"));
    s.push("spatial.points_per_cell", replayed.points_per_cell);
    s.push("backend.select_ms", w.get("select"));
    s.push("backend.tree_share", f64::from(u8::from(replayed.tree)));
    s.push("h2d.wall_ms", w.get("h2d"));
    s.push("h2d.modeled_ms", b.upload_time.as_millis());
    s.push("estimate.wall_ms", w.get("estimate"));
    s.push("estimate.modeled_ms", b.estimation_time.as_millis());
    s.push("batch.count", gpu.n_batches as f64);
    s.push("batch.retries", gpu.retries as f64);
    s.push(
        "batch.useful_pair_ratio",
        if useful > 0.0 { pairs / useful } else { 1.0 },
    );
    s.push(
        "batch.estimate_ratio",
        gpu.plan.estimated_total as f64 / pairs.max(1.0),
    );
    s.push(
        "batch.buffer_fill",
        pairs / (gpu.plan.buffer_items * gpu.n_batches).max(1) as f64,
    );
    let op_walls: f64 = replay::BATCH_OPS.iter().map(|op| w.get(op)).sum();
    s.push("batch.wall_overlap", op_walls / w.get("batches"));
    s.push("kernel.wall_ms", w.get("kernel"));
    s.push(
        "kernel.host_ns_per_pair",
        w.get("kernel") * 1e6 / pairs.max(1.0),
    );
    s.push("kernel.modeled_ms", b.kernel_time.as_millis());
    let gmem = k.counters.global_bytes() as f64;
    s.push("kernel.flops", k.counters.flops as f64);
    s.push("kernel.gmem_bytes", gmem);
    s.push(
        "kernel.flops_per_byte",
        k.counters.flops as f64 / gmem.max(1.0),
    );
    s.push("kernel.occupancy", k.mean_occupancy());
    s.push("kernel.atomics", k.counters.atomics as f64);
    s.push("sort.wall_ms", w.get("sort"));
    s.push("sort.modeled_ms", b.sort_time.as_millis());
    s.push("d2h.wall_ms", w.get("d2h"));
    s.push("d2h.modeled_ms", b.d2h_time.as_millis());
    s.push(
        "d2h.bytes",
        pairs * std::mem::size_of::<(u32, u32)>() as f64,
    );
    s.push("pinned_alloc.modeled_ms", b.pinned_alloc_time.as_millis());
    s.push("ingest.wall_ms", w.get("ingest") + w.get("finalize"));
    s.push("ingest.modeled_ms", b.ingest_time.as_millis());
    s.push("table.bytes", handle.table.memory_bytes() as f64);
    s.push("table.pairs", handle.table.num_entries() as f64);
    let makespan = b.batch_schedule_time.as_millis();
    let serial = (b.kernel_time + b.sort_time + b.d2h_time + b.ingest_time).as_millis();
    s.push("schedule.makespan_modeled_ms", makespan);
    s.push(
        "schedule.overlap",
        if makespan > 0.0 {
            serial / makespan
        } else {
            1.0
        },
    );
}

/// Per-layer metric names and units, in report order.
const LAYER_METRICS: [(&str, &str); 40] = [
    ("spatial.presort_ms", "ms"),
    ("spatial.index_build_ms", "ms"),
    ("spatial.points_per_cell", "points"),
    ("backend.select_ms", "ms"),
    ("backend.tree_share", "ratio"),
    ("h2d.wall_ms", "ms"),
    ("h2d.modeled_ms", "ms"),
    ("estimate.wall_ms", "ms"),
    ("estimate.modeled_ms", "ms"),
    ("batch.count", "count"),
    ("batch.retries", "count"),
    ("batch.useful_pair_ratio", "ratio"),
    ("batch.estimate_ratio", "ratio"),
    ("batch.buffer_fill", "ratio"),
    ("batch.wall_overlap", "ratio"),
    ("kernel.wall_ms", "ms"),
    ("kernel.host_ns_per_pair", "ns/pair"),
    ("kernel.modeled_ms", "ms"),
    ("kernel.flops", "flop"),
    ("kernel.gmem_bytes", "B"),
    ("kernel.flops_per_byte", "flop/B"),
    ("kernel.occupancy", "ratio"),
    ("kernel.atomics", "count"),
    ("sort.wall_ms", "ms"),
    ("sort.modeled_ms", "ms"),
    ("d2h.wall_ms", "ms"),
    ("d2h.modeled_ms", "ms"),
    ("d2h.bytes", "B"),
    ("pinned_alloc.modeled_ms", "ms"),
    ("ingest.wall_ms", "ms"),
    ("ingest.modeled_ms", "ms"),
    ("table.bytes", "B"),
    ("table.pairs", "count"),
    ("schedule.makespan_modeled_ms", "ms"),
    ("schedule.overlap", "ratio"),
    ("dbscan.wall_ms", "ms"),
    ("dbscan.ns_per_entry", "ns/entry"),
    ("dbscan.clusters", "count"),
    ("dbscan.noise_points", "count"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// The traced run: each job runs untraced, then is replayed layer by
/// layer with spans; the replay must reproduce the untraced table and
/// labels bit for bit.
fn run_traced(cfg: &RunConfig) -> Result<Report, HybridError> {
    let bench = Bench::setup(cfg)?;
    let rec = Recorder::new();
    let mut s = Samples::default();
    let mut mismatches = 0u64;
    let mut tables = 0usize;

    // A reuse workload builds its table once, in setup: replay that
    // build once and every job's DBSCAN.
    let cached = match &bench.table {
        Some(handle) => {
            let replayed = replay::build(
                &bench.hybrid,
                &bench.points,
                handle.table.eps(),
                handle.gpu.plan,
                &rec,
                0,
            )?;
            mismatches +=
                u64::from(table_fingerprint(&replayed.table) != table_fingerprint(&handle.table));
            push_build_samples(&mut s, &replayed, handle);
            tables += 1;
            Some(replayed)
        }
        None => None,
    };

    let mut outputs: Vec<u64> = Vec::new();
    let min_jobs = bench.variants.len();
    let region = Instant::now();
    while outputs.len() < min_jobs || region.elapsed().as_secs_f64() < cfg.seconds {
        let i = outputs.len();
        let (eps, minpts) = bench.variants[i % bench.variants.len()];
        let job_id = i as u64 + 1;
        let t = Instant::now();
        let fresh;
        let handle = match &bench.table {
            Some(h) => h,
            None => {
                fresh = bench.hybrid.build_table(&bench.points, eps)?;
                &fresh
            }
        };
        let (clustering, _) = HybridDbscan::cluster_with_table(handle, minpts);
        let untraced_ms = ms(t.elapsed());
        let fp = clustering_fingerprint(&clustering);
        drop(clustering);

        let mut job_span = rec.span("job", "job");
        job_span
            .arg("job", job_id)
            .arg("eps", eps)
            .arg("minpts", minpts);
        let replayed_build;
        let (replayed, build_ms) = match &cached {
            Some(r) => (r, 0.0),
            None => {
                replayed_build = replay::build(
                    &bench.hybrid,
                    &bench.points,
                    eps,
                    handle.gpu.plan,
                    &rec,
                    job_id,
                )?;
                mismatches += u64::from(
                    table_fingerprint(&replayed_build.table) != table_fingerprint(&handle.table),
                );
                push_build_samples(&mut s, &replayed_build, handle);
                tables += 1;
                (&replayed_build, replayed_build.walls.critical_sum())
            }
        };
        let (replayed_clustering, dbscan_ms) = replay::dbscan(replayed, minpts, &rec, job_id);
        drop(job_span);
        mismatches += u64::from(clustering_fingerprint(&replayed_clustering) != fp);
        s.push("dbscan.wall_ms", dbscan_ms);
        s.push(
            "dbscan.ns_per_entry",
            dbscan_ms * 1e6 / replayed.table.num_entries().max(1) as f64,
        );
        s.push(
            "dbscan.clusters",
            f64::from(replayed_clustering.num_clusters()),
        );
        s.push(
            "dbscan.noise_points",
            replayed_clustering.noise_count() as f64,
        );
        s.push(
            "trace.layer_sum_ratio",
            (build_ms + dbscan_ms) / untraced_ms,
        );
        outputs.push(fp);
    }

    let n_var = bench.variants.len();
    let refs = bench.reference_fingerprints();
    let failed = outputs
        .iter()
        .enumerate()
        .filter(|&(i, &fp)| fp != refs[i % n_var])
        .count() as u64;

    let mut notes = vec![format!(
        "{} jobs and {tables} tables replayed; {mismatches} replay mismatches",
        outputs.len()
    )];
    if let Some(path) = &cfg.trace_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("trace directory is creatable");
        }
        std::fs::write(path, obs::chrome::export(&rec)).expect("trace file is writable");
        notes.push(format!("chrome trace written to {}", path.display()));
    }
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: s.value(name),
            unit,
        })
        .collect();
    Ok(Report {
        correct: failed == 0 && mismatches == 0,
        attempted: outputs.len() as u64,
        failed,
        metrics,
        notes,
    })
}
