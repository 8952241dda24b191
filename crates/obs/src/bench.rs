//! Schema for the continuous-benchmark documents (`BENCH_suite.json` and
//! the baselines under `results/baselines/`).
//!
//! The measurement harness (`crates/bench::harness`) produces a
//! [`BenchDoc`] per run: one [`WorkloadResult`] per workload row, each
//! carrying per-stage wall/modeled statistics ([`StageStats`]), per-kernel
//! device counters (re-using [`gpu_sim::profiler::ProfileStats`], the
//! profiler → observability contract), and scalar metrics. Documents are
//! schema-versioned and round-trip exactly through [`crate::json`]:
//! `parse(doc.to_json()).to_json() == doc.to_json()`, which is what makes
//! checked-in baselines diffable and the regression gate trustworthy.

use crate::json::{self, JsonWriter};
use crate::metrics::Metrics;
use crate::provenance::Provenance;
use gpu_sim::profiler::{KernelProfile, ProfileStats};
use std::collections::BTreeMap;

/// Document identifier; bump [`SCHEMA_VERSION`] on incompatible changes.
///
/// Version history: v1 had no provenance header and no per-workload
/// `modeled_time_bits`; v2 added both. v3 dropped the retired
/// disjoint-set clusterer's `disjoint_set` stage. v4 added per-workload
/// `fingerprints` and became the one document every measuring command
/// writes (`BENCH_suite.json`, `BENCH_threads.json`,
/// `SHARD_fingerprints.json`, `BENCH_backend.json`). [`BenchDoc::parse`]
/// still accepts v1–v3 documents (v1's optional fields come back `None`;
/// a v2 `disjoint_set` stage parses like any other stage; before v4
/// `fingerprints` is empty) so `--compare` against older baselines keeps
/// working.
pub const SCHEMA: &str = "hybrid-dbscan/bench-suite";
pub const SCHEMA_VERSION: u64 = 4;

/// Robust summary of one stage's per-trial durations (milliseconds).
///
/// Medians and MAD rather than means: a single descheduled trial must not
/// move the number CI compares against a baseline. The MAD is what the
/// regression gate's noise threshold is derived from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageStats {
    pub trials: u64,
    pub median_ms: f64,
    pub mean_ms: f64,
    /// Median absolute deviation from the median.
    pub mad_ms: f64,
    /// Interquartile range (Q3 − Q1).
    pub iqr_ms: f64,
    pub min_ms: f64,
    pub max_ms: f64,
}

/// One suite workload's results.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadResult {
    /// Stable identifier, e.g. `s1/sw1-eps0.2/global`; the compare key.
    pub id: String,
    /// Paper scenario (`S1`/`S2`/`S3`).
    pub scenario: String,
    pub dataset: String,
    /// Kernel variant (`global`/`shared`).
    pub kernel: String,
    pub eps: f64,
    pub minpts: u64,
    /// Points actually clustered — baselines taken at a different scale
    /// are incomparable, and the gate detects that through this field.
    pub points: u64,
    /// Bit pattern of the modeled device time (`to_bits()` of the modeled
    /// seconds), serialized as a hex string. `None` on v1 documents and on
    /// workloads without a single modeled time.
    pub modeled_time_bits: Option<u64>,
    /// Output fingerprints (`table`, `clustering`) of rows whose answer is
    /// checked against a reference: sharded against unsharded, one
    /// backend against another. Serialized as hex strings like
    /// `modeled_time_bits`, and omitted when empty.
    pub fingerprints: BTreeMap<String, u64>,
    /// Stage name → summary (`build_table`, `dbscan`, `modeled`, or the
    /// micro workload's stages).
    pub stages: BTreeMap<String, StageStats>,
    /// Device-counter profiles, e.g. `kernels` (all launches of the run).
    pub counters: BTreeMap<String, ProfileStats>,
    /// Scalar outputs and telemetry (clusters, result_pairs, batch
    /// percentiles, …).
    pub metrics: BTreeMap<String, f64>,
}

/// A full benchmark-suite document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchDoc {
    pub version: u64,
    pub scale: f64,
    pub trials: u64,
    pub warmup: u64,
    pub host_threads: u64,
    /// Identity of the producing run. `None` only on parsed v1 documents;
    /// every v2 emitter stamps it.
    pub provenance: Option<Provenance>,
    pub workloads: Vec<WorkloadResult>,
}

impl BenchDoc {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", SCHEMA);
        w.field_uint("version", self.version);
        w.field_float("scale", self.scale);
        w.field_uint("trials", self.trials);
        w.field_uint("warmup", self.warmup);
        w.field_uint("host_threads", self.host_threads);
        if let Some(p) = &self.provenance {
            p.write_field(&mut w);
        }
        w.key("workloads");
        w.begin_array();
        for wl in &self.workloads {
            w.begin_object();
            w.field_str("id", &wl.id);
            w.field_str("scenario", &wl.scenario);
            w.field_str("dataset", &wl.dataset);
            w.field_str("kernel", &wl.kernel);
            w.field_float("eps", wl.eps);
            w.field_uint("minpts", wl.minpts);
            w.field_uint("points", wl.points);
            if let Some(bits) = wl.modeled_time_bits {
                w.field_hex("modeled_time_bits", bits);
            }
            if !wl.fingerprints.is_empty() {
                w.key("fingerprints");
                w.begin_object();
                for (name, fp) in &wl.fingerprints {
                    w.field_hex(name, *fp);
                }
                w.end_object();
            }
            w.key("stages");
            w.begin_object();
            for (name, s) in &wl.stages {
                w.key(name);
                w.begin_object();
                w.field_uint("trials", s.trials);
                w.field_float("median_ms", s.median_ms);
                w.field_float("mean_ms", s.mean_ms);
                w.field_float("mad_ms", s.mad_ms);
                w.field_float("iqr_ms", s.iqr_ms);
                w.field_float("min_ms", s.min_ms);
                w.field_float("max_ms", s.max_ms);
                w.end_object();
            }
            w.end_object();
            w.key("counters");
            w.begin_object();
            for (name, p) in &wl.counters {
                w.key(name);
                w.begin_object();
                w.field_uint("launches", p.launches);
                w.field_uint("total_threads", p.total_threads);
                w.field_uint("total_blocks", p.total_blocks);
                w.field_float("time_ms", p.time_ms);
                w.field_float("mean_occupancy", p.mean_occupancy);
                w.field_float("gmem_gbps", p.gmem_gbps);
                w.field_uint("atomics", p.atomics);
                w.end_object();
            }
            w.end_object();
            w.field_f64_map("metrics", &wl.metrics);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parse a document produced by [`Self::to_json`] (e.g. a checked-in
    /// baseline). Schema and version are validated; field errors name the
    /// offending key.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
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
        let mut doc = BenchDoc {
            version,
            scale: v.req_f64("scale")?,
            trials: v.req_u64("trials")?,
            warmup: v.req_u64("warmup")?,
            host_threads: v.req_u64("host_threads")?,
            provenance: Provenance::parse_field(&v)?,
            workloads: Vec::new(),
        };
        for wl in v.req_arr("workloads")? {
            let mut out = WorkloadResult {
                id: wl.req_str("id")?.to_string(),
                scenario: wl.req_str("scenario")?.to_string(),
                dataset: wl.req_str("dataset")?.to_string(),
                kernel: wl.req_str("kernel")?.to_string(),
                eps: wl.req_f64("eps")?,
                minpts: wl.req_u64("minpts")?,
                points: wl.req_u64("points")?,
                modeled_time_bits: wl.opt_hex("modeled_time_bits")?,
                ..WorkloadResult::default()
            };
            if let Some(fps) = wl.get("fingerprints") {
                for name in fps
                    .as_obj()
                    .ok_or("'fingerprints' is not an object")?
                    .keys()
                {
                    out.fingerprints
                        .insert(name.clone(), fps.opt_hex(name)?.unwrap_or_default());
                }
            }
            for (name, s) in wl.req_obj("stages")? {
                out.stages.insert(
                    name.clone(),
                    StageStats {
                        trials: s.req_u64("trials")?,
                        median_ms: s.req_f64("median_ms")?,
                        mean_ms: s.req_f64("mean_ms")?,
                        mad_ms: s.req_f64("mad_ms")?,
                        iqr_ms: s.req_f64("iqr_ms")?,
                        min_ms: s.req_f64("min_ms")?,
                        max_ms: s.req_f64("max_ms")?,
                    },
                );
            }
            for (name, p) in wl.req_obj("counters")? {
                out.counters.insert(
                    name.clone(),
                    ProfileStats {
                        launches: p.req_u64("launches")?,
                        total_threads: p.req_u64("total_threads")?,
                        total_blocks: p.req_u64("total_blocks")?,
                        time_ms: p.req_f64("time_ms")?,
                        mean_occupancy: p.req_f64("mean_occupancy")?,
                        gmem_gbps: p.req_f64("gmem_gbps")?,
                        atomics: p.req_u64("atomics")?,
                    },
                );
            }
            out.metrics = wl.req_f64_map("metrics")?;
            doc.workloads.push(out);
        }
        Ok(doc)
    }

    /// Look up a workload by id.
    pub fn workload(&self, id: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.id == id)
    }
}

/// Record a kernel profile's headline counters into a metrics registry
/// under `kernel.<name>.*` — the single wiring point between
/// [`gpu_sim::profiler::KernelProfile`] and [`Metrics`], shared by the
/// pipeline instrumentation (`HybridDbscan::record_gpu_phase`) and the
/// benchmark suite.
pub fn record_kernel_profile(m: &Metrics, name: &str, profile: &KernelProfile) {
    let s = profile.stats();
    m.counter_add(&format!("kernel.{name}.launches"), s.launches);
    m.counter_add(&format!("kernel.{name}.atomics"), s.atomics);
    m.gauge_set(&format!("kernel.{name}.mean_occupancy"), s.mean_occupancy);
    m.gauge_set(&format!("kernel.{name}.gmem_gbps"), s.gmem_gbps);
    m.gauge_set(&format!("kernel.{name}.time_ms"), s.time_ms);
    m.gauge_set(
        &format!("kernel.{name}.total_threads"),
        s.total_threads as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::provenance::HEADER_VERSION;

    fn sample_doc() -> BenchDoc {
        let mut wl = WorkloadResult {
            id: "s1/sw1-eps0.2/global".into(),
            scenario: "S1".into(),
            dataset: "SW1".into(),
            kernel: "global".into(),
            eps: 0.2,
            minpts: 4,
            points: 37292,
            modeled_time_bits: Some(u64::MAX),
            ..WorkloadResult::default()
        };
        wl.stages.insert(
            "build_table".into(),
            StageStats {
                trials: 3,
                median_ms: 2410.5,
                mean_ms: 2400.25,
                mad_ms: 12.5,
                iqr_ms: 25.0,
                min_ms: 2380.0,
                max_ms: 2450.0,
            },
        );
        wl.counters.insert(
            "kernels".into(),
            ProfileStats {
                launches: 4,
                total_threads: 1024,
                total_blocks: 4,
                time_ms: 96.5,
                mean_occupancy: 0.85,
                gmem_gbps: 120.25,
                atomics: 17,
            },
        );
        wl.metrics.insert("clusters".into(), 64.0);
        wl.metrics.insert("result_pairs".into(), 17113506.0);
        BenchDoc {
            version: SCHEMA_VERSION,
            scale: 0.02,
            trials: 3,
            warmup: 1,
            host_threads: 4,
            provenance: Some(Provenance {
                header_version: HEADER_VERSION,
                schema: SCHEMA.into(),
                schema_version: SCHEMA_VERSION,
                git_sha: "ee9aa08269b9".into(),
                git_dirty: false,
                rustc: "rustc 1.95.0".into(),
                rayon_num_threads: "unset".into(),
                host: "test".into(),
                os: "linux/x86_64".into(),
                timestamp_unix: 1_754_611_200,
                workloads: vec!["s1/sw1-eps0.2/global".into()],
            }),
            workloads: vec![wl],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let doc = sample_doc();
        let text = doc.to_json();
        let parsed = BenchDoc::parse(&text).expect("parse own output");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "emission must be a fixed point");
    }

    #[test]
    fn rejects_wrong_schema_and_version() {
        let text = sample_doc().to_json();
        let wrong = text.replacen(SCHEMA, "something/else", 1);
        assert!(BenchDoc::parse(&wrong).unwrap_err().contains("schema"));
        let wrong = text.replacen(
            &format!(r#""version":{SCHEMA_VERSION}"#),
            r#""version":999"#,
            1,
        );
        assert!(BenchDoc::parse(&wrong).unwrap_err().contains("version"));
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("not json").is_err());
    }

    #[test]
    fn v1_documents_still_parse_without_provenance_or_bits() {
        // A pre-PR-9 baseline: version 1, no provenance header, no
        // per-workload modeled_time_bits. `--compare` must keep working.
        let mut doc = sample_doc();
        doc.version = 1;
        doc.provenance = None;
        doc.workloads[0].modeled_time_bits = None;
        let text = doc.to_json();
        assert!(!text.contains("provenance"));
        assert!(!text.contains("modeled_time_bits"));
        let parsed = BenchDoc::parse(&text).expect("v1 fallback");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_json(), text, "v1 round-trip stays exact");
    }

    #[test]
    fn v2_documents_with_a_disjoint_set_stage_still_parse() {
        // A v2 suite record (the committed smoke baseline's format) still
        // carries the retired disjoint-set clusterer's wall stage.
        let mut doc = sample_doc();
        doc.version = 2;
        let stage = doc.workloads[0].stages["build_table"].clone();
        doc.workloads[0].stages.insert("disjoint_set".into(), stage);
        let text = doc.to_json();
        assert!(text.contains(r#""version":2"#));
        let parsed = BenchDoc::parse(&text).expect("v2 fallback");
        assert_eq!(parsed, doc);
        assert!(parsed.workloads[0].stages.contains_key("disjoint_set"));
    }

    #[test]
    fn bits_survive_as_full_64bit_patterns() {
        let mut doc = sample_doc();
        doc.workloads[0]
            .fingerprints
            .insert("table".into(), u64::MAX - 1);
        let parsed = BenchDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(parsed.workloads[0].modeled_time_bits, Some(u64::MAX));
        assert_eq!(parsed.workloads[0].fingerprints["table"], u64::MAX - 1);
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.provenance.as_ref().map(|p| p.git_sha.as_str()),
            Some("ee9aa08269b9")
        );
    }

    #[test]
    fn v3_documents_without_fingerprints_round_trip_exactly() {
        // The committed smoke baseline is v3: no fingerprints member. It
        // must parse and re-emit byte for byte.
        let mut doc = sample_doc();
        doc.version = 3;
        let text = doc.to_json();
        assert!(!text.contains("fingerprints"));
        let parsed = BenchDoc::parse(&text).expect("v3 fallback");
        assert!(parsed.workloads[0].fingerprints.is_empty());
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn workload_lookup_by_id() {
        let doc = sample_doc();
        assert!(doc.workload("s1/sw1-eps0.2/global").is_some());
        assert!(doc.workload("nope").is_none());
    }

    #[test]
    fn record_kernel_profile_names_match_pipeline_contract() {
        use gpu_sim::kernel::KernelReport;
        use gpu_sim::launch::LaunchConfig;
        use gpu_sim::SimDuration;

        let mut p = KernelProfile::new();
        p.record(&KernelReport {
            config: LaunchConfig::for_elements(1024, 256),
            threads_launched: 1024,
            duration: SimDuration::from_millis(2.0),
            counters: gpu_sim::cost::Counters {
                flops: 1024,
                global_read_bytes: 8192,
                atomics: 3,
                ..Default::default()
            },
            occupancy: 0.75,
        });
        let m = Metrics::new();
        record_kernel_profile(&m, "gpucalc_global", &p);
        let s = m.snapshot();
        assert_eq!(s.counters["kernel.gpucalc_global.launches"], 1);
        assert_eq!(s.counters["kernel.gpucalc_global.atomics"], 3);
        assert!(s.gauges["kernel.gpucalc_global.mean_occupancy"] > 0.0);
        assert!(s.gauges["kernel.gpucalc_global.gmem_gbps"] > 0.0);
        assert!(s.gauges["kernel.gpucalc_global.time_ms"] > 0.0);
    }
}
