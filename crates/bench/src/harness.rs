//! **The measurement harness** behind `repro bench`, `threads`,
//! `profile`, `shard` and `backend`.
//!
//! Every measuring command does the same four things; this module owns
//! each of them once, and the commands are views that pick rows, print
//! their table and call [`finish`]:
//!
//! * **Workload registry** — the suite rows ([`SUITE`]), the shard rows
//!   ([`SHARD_SUITE`], [`SHARD_SMOKE`]) and the backend-ablation rows
//!   ([`ABLATION`]). No command keeps its own copy of a workload: the
//!   thread sweep and the shard rows reuse the S1 suite row ([`S1_ROW`]).
//! * **Row result** — every row becomes an [`obs::bench::WorkloadResult`]
//!   (stage statistics, metrics, modeled-time bits and, where an answer
//!   is checked against a reference, fingerprints; see [`mismatches`]).
//! * **Gate** — [`Findings`] sorts a run's failures into always fatal,
//!   fatal only under the command's `*_STRICT=1` variable, and advisory;
//!   [`gate`] turns them into the ledger's [`GateOutcome`] and the exit
//!   code.
//! * **Finish** — [`finish`] checks that the artifact reparses to the same
//!   bytes, appends the run's ledger record, and only then overwrites the
//!   artifact. The artifact is a snapshot every run clobbers; the ledger
//!   is where the history survives, so a failed run still leaves its
//!   record.

use crate::common::{baseline_refresh, Options};
use hybrid_dbscan_core::hybrid::{HybridDbscan, KernelChoice, TableHandle};
use hybrid_dbscan_core::{Clustering, ShardMode};
use obs::analyze::ProfileDoc;
use obs::bench::{BenchDoc, WorkloadResult, SCHEMA_VERSION};
use obs::ledger::{GateOutcome, LedgerEntry, LedgerRecord, StagePoint, RECORD_VERSION};
use obs::provenance::Provenance;
use spatial::Point2;
use std::collections::BTreeMap;
use std::time::Instant;

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

/// One suite row. The id is the compare and ledger key and must stay
/// stable across PRs; retire ids rather than repurposing them.
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
        id: S1_ROW,
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

impl Workload {
    /// This row's result header over `points` points, with no stages
    /// or metrics yet.
    pub fn result(&self, points: usize) -> WorkloadResult {
        WorkloadResult {
            id: self.id.to_string(),
            scenario: self.scenario.to_string(),
            dataset: self.dataset.to_string(),
            kernel: kernel_name(self.kernel).to_string(),
            eps: self.eps,
            minpts: self.minpts as u64,
            points: points as u64,
            ..WorkloadResult::default()
        }
    }
}

/// The S1 row (SW1, ε = 0.2, the Table II pairing): the thread sweep
/// runs it at every pool width, and the shard rows split it.
pub const S1_ROW: &str = "s1/sw1-eps0.2/global";

/// The suite row with this id. Ids are constants of the callers, so an
/// unknown one is a bug.
pub fn suite_row(id: &str) -> &'static Workload {
    SUITE
        .iter()
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("no suite row '{id}'"))
}

/// Stable JSON/display name of a kernel variant.
pub fn kernel_name(k: KernelChoice) -> &'static str {
    match k {
        KernelChoice::Global => "global",
        KernelChoice::Shared => "shared",
    }
}

/// One sharded build of the S1 row.
#[derive(Debug, Clone, Copy)]
pub struct ShardRow {
    pub id: &'static str,
    pub shards: usize,
    pub mode: ShardMode,
    /// Build through a device one byte too small for the unsharded point
    /// array, so only a sharded build can run at all.
    pub limited_device: bool,
}

/// The `repro bench` shard-scaling rows, run at 10× the suite scale:
/// the unsharded baseline, the 2-shard concurrent speedup, and 4-shard
/// out-of-core under a device limit the unsharded build exceeds.
pub const SHARD_SUITE: &[ShardRow] = &[
    ShardRow {
        id: "shard/sw1-10x-eps0.2/k1",
        shards: 1,
        mode: ShardMode::Concurrent,
        limited_device: false,
    },
    ShardRow {
        id: "shard/sw1-10x-eps0.2/k2-concurrent",
        shards: 2,
        mode: ShardMode::Concurrent,
        limited_device: false,
    },
    ShardRow {
        id: "shard/sw1-10x-eps0.2/k4-outofcore",
        shards: 4,
        mode: ShardMode::OutOfCore,
        limited_device: true,
    },
];

/// The `repro shard` smoke rows: k = 2 in both modes plus k = 4
/// out-of-core, each checked against the unsharded build.
pub const SHARD_SMOKE: &[ShardRow] = &[
    ShardRow {
        id: "shard/smoke/k2-concurrent",
        shards: 2,
        mode: ShardMode::Concurrent,
        limited_device: false,
    },
    ShardRow {
        id: "shard/smoke/k2-outofcore",
        shards: 2,
        mode: ShardMode::OutOfCore,
        limited_device: false,
    },
    ShardRow {
        id: "shard/smoke/k4-outofcore",
        shards: 4,
        mode: ShardMode::OutOfCore,
        limited_device: false,
    },
];

/// What a backend-ablation row clusters.
#[derive(Debug, Clone, Copy)]
pub enum AblationData {
    /// A registered 2-D dataset, by name.
    Named(&'static str),
    /// A jittered D-dimensional lattice: `full_size` points at scale 1,
    /// unit spacing, `jitter` of a spacing of Gaussian displacement.
    Lattice {
        d: usize,
        full_size: usize,
        jitter: f64,
        seed: u64,
    },
}

/// One backend-ablation workload; each runs under grid, tree, and auto.
#[derive(Debug, Clone, Copy)]
pub struct AblationWorkload {
    pub id: &'static str,
    pub data: AblationData,
    pub eps: f64,
    pub minpts: usize,
}

/// The fixed ablation set: both 2-D density regimes the selector
/// separates (uniform SDSS, skewed SW, strongly skewed SKX), plus the
/// d > 2 lattices where the grid's 3^D stencil over-scans.
pub const ABLATION: &[AblationWorkload] = &[
    AblationWorkload {
        id: "backend/sdss1-eps0.2",
        data: AblationData::Named("SDSS1"),
        eps: 0.2,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/sw1-eps0.4",
        data: AblationData::Named("SW1"),
        eps: 0.4,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/skx1-eps1.0",
        data: AblationData::Named("SKX1"),
        eps: 1.0,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/lat3-eps3.0",
        data: AblationData::Lattice {
            d: 3,
            full_size: 1_000_000,
            jitter: 0.25,
            seed: 0x1a73,
        },
        eps: 3.0,
        minpts: 4,
    },
    AblationWorkload {
        id: "backend/lat4-eps2.0",
        data: AblationData::Lattice {
            d: 4,
            full_size: 500_000,
            jitter: 0.25,
            seed: 0x1a74,
        },
        eps: 2.0,
        minpts: 4,
    },
];

// ---------------------------------------------------------------------
// Row results
// ---------------------------------------------------------------------

/// One timed trial of a suite row: `build_table`, then DBSCAN over `T`.
pub struct Trial {
    pub handle: TableHandle,
    pub clustering: Clustering,
    /// Host wall time of `build_table` (ms).
    pub build_ms: f64,
    /// Host wall time of the DBSCAN over `T` (ms).
    pub dbscan_ms: f64,
}

/// Run one trial of `w` on `points` with `hybrid`.
pub fn timed_trial(hybrid: &HybridDbscan, points: &[Point2], w: &Workload) -> Trial {
    let t0 = Instant::now();
    let handle = hybrid.build_table(points, w.eps).expect("build_table");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (clustering, dbscan) = HybridDbscan::cluster_with_table(&handle, w.minpts);
    Trial {
        handle,
        clustering,
        build_ms,
        dbscan_ms: dbscan.as_secs_f64() * 1e3,
    }
}

/// Rows whose answer differs from `reference`'s: any fingerprint of the
/// reference, or any of the named `metrics`, that a row does not
/// reproduce. One line per differing row. A row may differ from its
/// reference in how long it took, never in what it computed.
pub fn mismatches<'a>(
    reference: &WorkloadResult,
    rows: impl IntoIterator<Item = &'a WorkloadResult>,
    metrics: &[&str],
) -> Vec<String> {
    rows.into_iter()
        .filter_map(|row| {
            let differ: Vec<&str> = reference
                .fingerprints
                .iter()
                .filter(|(k, fp)| row.fingerprints.get(*k) != Some(fp))
                .map(|(k, _)| k.as_str())
                .chain(
                    metrics
                        .iter()
                        .copied()
                        .filter(|m| row.metrics.get(*m) != reference.metrics.get(*m)),
                )
                .collect();
            (!differ.is_empty()).then(|| {
                format!(
                    "{}: {} differ from {}",
                    row.id,
                    differ.join(", "),
                    reference.id
                )
            })
        })
        .collect()
}

/// The document a measuring command writes: its rows under a provenance
/// header that names them.
pub fn bench_doc(
    opts: &Options,
    trials: usize,
    warmup: usize,
    workloads: Vec<WorkloadResult>,
) -> BenchDoc {
    BenchDoc {
        version: SCHEMA_VERSION,
        scale: opts.scale,
        trials: trials.max(1) as u64,
        warmup: warmup as u64,
        host_threads: rayon::current_num_threads() as u64,
        provenance: Some(Provenance::collect(
            obs::bench::SCHEMA,
            SCHEMA_VERSION,
            workloads.iter().map(|w| w.id.clone()).collect(),
        )),
        workloads,
    }
}

// ---------------------------------------------------------------------
// Gate
// ---------------------------------------------------------------------

/// A run's findings, sorted by how they gate.
#[derive(Debug, Default)]
pub struct Findings {
    /// Always fail the run: determinism violations, fingerprint
    /// mismatches, an artifact that does not reparse.
    pub fatal: Vec<String>,
    /// Fail the run only under the command's `*_STRICT=1` (modeled-stage
    /// regressions, the 4-thread speedup floor, the auto-selector floor);
    /// advisory otherwise. A command without a strict variable always
    /// fails on them.
    pub strict: Vec<String>,
    /// Advisory findings the view has already printed (wall-clock drift).
    pub advisories: u64,
}

/// Print the findings and fold them into the ledger's gate outcome and
/// the exit code. `strict_var` names the command's `*_STRICT` variable.
pub fn gate(command: &str, strict_var: Option<&str>, f: &Findings) -> (GateOutcome, i32) {
    let strict = strict_var.is_none_or(|v| std::env::var(v).is_ok_and(|s| s == "1"));
    for m in &f.fatal {
        eprintln!("# {command}: FATAL: {m}");
    }
    for m in &f.strict {
        match strict_var {
            Some(v) if strict => eprintln!("# {command}: {m} ({v}=1 — failing)"),
            Some(v) => eprintln!("# {command}: {m} (advisory; set {v}=1 to enforce)"),
            None => eprintln!("# {command}: {m}"),
        }
    }
    let gating = f.fatal.len() + if strict { f.strict.len() } else { 0 };
    let outcome = GateOutcome {
        strict,
        regressions: gating as u64,
        advisories: f.advisories + if strict { 0 } else { f.strict.len() as u64 },
        passed: gating == 0,
    };
    (outcome, i32::from(gating > 0))
}

// ---------------------------------------------------------------------
// Finish
// ---------------------------------------------------------------------

/// A document a measuring command writes: a [`BenchDoc`], or for
/// `repro profile` a [`ProfileDoc`] (its worker and hotspot diagnosis has
/// no `BenchDoc` form).
pub trait Artifact {
    fn emit(&self) -> String;
    /// Parse a document of this kind and emit it again.
    fn reparse(json: &str) -> Result<String, String>;
    fn scale(&self) -> f64;
    fn provenance(&self) -> Provenance;
    /// The run's ledger entries, one per row.
    fn ledger_entries(&self) -> Vec<LedgerEntry>;
}

/// Stages measured in host wall-clock time: everything but the
/// deterministic `modeled` stage.
pub fn is_wall_stage(stage: &str) -> bool {
    stage != "modeled"
}

impl Artifact for BenchDoc {
    fn emit(&self) -> String {
        self.to_json()
    }

    fn reparse(json: &str) -> Result<String, String> {
        BenchDoc::parse(json).map(|doc| doc.to_json())
    }

    fn scale(&self) -> f64 {
        self.scale
    }

    fn provenance(&self) -> Provenance {
        self.provenance.clone().unwrap_or_default()
    }

    fn ledger_entries(&self) -> Vec<LedgerEntry> {
        self.workloads
            .iter()
            .map(|wl| LedgerEntry {
                workload: wl.id.clone(),
                modeled_time_bits: wl.modeled_time_bits,
                stages: wl
                    .stages
                    .iter()
                    .map(|(stage, s)| {
                        let point = StagePoint {
                            median_ms: s.median_ms,
                            mad_ms: s.mad_ms,
                            wall: is_wall_stage(stage),
                        };
                        (stage.clone(), point)
                    })
                    .collect(),
                metrics: wl.metrics.clone(),
            })
            .collect()
    }
}

impl Artifact for ProfileDoc {
    fn emit(&self) -> String {
        self.to_json()
    }

    fn reparse(json: &str) -> Result<String, String> {
        ProfileDoc::parse(json).map(|doc| doc.to_json())
    }

    fn scale(&self) -> f64 {
        self.scale
    }

    fn provenance(&self) -> Provenance {
        self.provenance.clone().unwrap_or_default()
    }

    /// One entry per workload × thread count: the profiled stage wall
    /// times, the modeled stage, and the attribution metrics.
    fn ledger_entries(&self) -> Vec<LedgerEntry> {
        self.runs
            .iter()
            .map(|run| {
                let point = |median_ms, wall| StagePoint {
                    median_ms,
                    mad_ms: 0.0,
                    wall,
                };
                let mut stages: BTreeMap<String, StagePoint> = run
                    .stages
                    .iter()
                    .map(|s| (s.name.clone(), point(s.wall_ms, true)))
                    .collect();
                stages.insert("modeled".into(), point(run.modeled_ms, false));
                let mut metrics = BTreeMap::from([
                    ("threads".to_string(), run.threads as f64),
                    (
                        "bits_match_unprofiled".to_string(),
                        f64::from(u8::from(run.bits_match_unprofiled)),
                    ),
                ]);
                if let Some(util) = run.mean_utilization_pct() {
                    metrics.insert("worker_util_pct".into(), util);
                    metrics.insert("pool_steals".into(), run.steals() as f64);
                }
                if let Some(serial) = run.serial_fraction_build() {
                    metrics.insert("serial_fraction_build".into(), serial);
                }
                LedgerEntry {
                    workload: format!("profile/{}/t{}", run.workload, run.threads),
                    stages,
                    modeled_time_bits: Some(run.modeled_time_bits),
                    metrics,
                }
            })
            .collect()
    }
}

/// The last step of every measuring command: check that `doc` reparses
/// to the same bytes (a failure is fatal), gate `findings`, append the
/// run's ledger record, and only then write `doc` to `file` (under
/// `--csv DIR`, else the working directory). A document that fails the
/// check is not written. Returns the exit code.
pub fn finish<A: Artifact>(
    opts: &Options,
    command: &str,
    strict_var: Option<&str>,
    file: &str,
    doc: &A,
    mut findings: Findings,
) -> i32 {
    let json = doc.emit();
    let check = A::reparse(&json).and_then(|again| match again == json {
        true => Ok(()),
        false => Err("not a round-trip fixed point".to_string()),
    });
    if let Err(e) = &check {
        findings.fatal.push(format!("emitted {file}: {e}"));
    }
    let (gate, code) = gate(command, strict_var, &findings);
    opts.append_ledger(&LedgerRecord {
        version: RECORD_VERSION,
        command: command.into(),
        scale: doc.scale(),
        baseline_refresh: baseline_refresh(),
        provenance: doc.provenance(),
        gate,
        entries: doc.ledger_entries(),
    });
    if check.is_ok() {
        opts.write_artifact(command, file, &json);
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::analyze::{ProfileRun, StageAnalysis, WorkerUtilization};
    use obs::bench::StageStats;
    use obs::ledger::Ledger;
    use std::cell::RefCell;
    use std::path::PathBuf;

    /// A strict variable no test environment sets: its findings are
    /// advisory.
    const UNSET_STRICT: &str = "REPRO_HARNESS_TEST_STRICT_NEVER_SET";

    #[test]
    fn registry_ids_are_unique_and_the_s1_row_resolves() {
        let ids: Vec<&str> = SUITE
            .iter()
            .map(|w| w.id)
            .chain(SHARD_SUITE.iter().chain(SHARD_SMOKE).map(|r| r.id))
            .chain(ABLATION.iter().map(|w| w.id))
            .collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "{ids:?}");
        let s1 = suite_row(S1_ROW);
        assert_eq!((s1.dataset, s1.eps, s1.minpts), ("SW1", 0.2, 4));
    }

    #[test]
    fn gate_sorts_fatal_strict_and_advisory_findings() {
        let clean = Findings {
            advisories: 3,
            ..Findings::default()
        };
        let (g, code) = gate("t", Some(UNSET_STRICT), &clean);
        assert_eq!(
            (code, g.passed, g.regressions, g.advisories),
            (0, true, 0, 3)
        );

        let strict_only = Findings {
            strict: vec!["slow".into()],
            ..Findings::default()
        };
        // Advisory without the variable ...
        let (g, code) = gate("t", Some(UNSET_STRICT), &strict_only);
        assert_eq!(
            (code, g.strict, g.passed, g.advisories),
            (0, false, true, 1)
        );
        // ... always fatal for a command that has none.
        let (g, code) = gate("t", None, &strict_only);
        assert_eq!(
            (code, g.strict, g.passed, g.regressions),
            (1, true, false, 1)
        );

        let fatal = Findings {
            fatal: vec!["wrong answer".into()],
            ..Findings::default()
        };
        let (g, code) = gate("t", Some(UNSET_STRICT), &fatal);
        assert_eq!((code, g.passed, g.regressions), (1, false, 1));
    }

    /// An artifact that records what its destination held when the ledger
    /// record was built, and optionally fails its self-parse.
    struct Fixture<const ROUND_TRIPS: bool> {
        dest: PathBuf,
        seen: RefCell<Option<String>>,
    }

    impl<const ROUND_TRIPS: bool> Artifact for Fixture<ROUND_TRIPS> {
        fn emit(&self) -> String {
            "{\"run\":\"new\"}".into()
        }

        fn reparse(json: &str) -> Result<String, String> {
            if ROUND_TRIPS {
                Ok(json.into())
            } else {
                Err("fixture rejects itself".into())
            }
        }

        fn scale(&self) -> f64 {
            0.002
        }

        fn provenance(&self) -> Provenance {
            Provenance::default()
        }

        fn ledger_entries(&self) -> Vec<LedgerEntry> {
            *self.seen.borrow_mut() = std::fs::read_to_string(&self.dest).ok();
            vec![LedgerEntry {
                workload: "fixture/row".into(),
                ..LedgerEntry::default()
            }]
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bench-harness-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts_in(dir: &std::path::Path) -> Options {
        Options {
            csv_dir: Some(dir.join("out")),
            ledger: Some(dir.join("ledger")),
            ..Options::default()
        }
    }

    #[test]
    fn finish_appends_the_record_before_writing_the_artifact_even_when_the_gate_fails() {
        let dir = scratch("order");
        let opts = opts_in(&dir);
        let dest = dir.join("out").join("A.json");
        std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
        std::fs::write(&dest, "previous run").unwrap();
        let doc = Fixture::<true> {
            dest: dest.clone(),
            seen: RefCell::new(None),
        };
        let findings = Findings {
            fatal: vec!["wrong answer".into()],
            ..Findings::default()
        };
        let code = finish(&opts, "fixture", None, "A.json", &doc, findings);
        assert_eq!(code, 1);
        // The record was built while the destination still held the
        // previous run's artifact ...
        assert_eq!(doc.seen.borrow().as_deref(), Some("previous run"));
        // ... then appended, then the artifact was written.
        let records = Ledger::at(dir.join("ledger")).load().records;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].command, "fixture");
        assert!(!records[0].gate.passed);
        assert_eq!(records[0].entries[0].workload, "fixture/row");
        assert_eq!(std::fs::read_to_string(&dest).unwrap(), doc.emit());

        // An artifact that cannot be written still leaves its record.
        let blocked = Options {
            csv_dir: Some(dest.clone()), // a file, not a directory
            ..opts
        };
        let code = finish(
            &blocked,
            "fixture",
            None,
            "A.json",
            &doc,
            Findings::default(),
        );
        assert_eq!(code, 0);
        let records = Ledger::at(dir.join("ledger")).load().records;
        assert_eq!(records.len(), 2);
        assert!(records[1].gate.passed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_artifact_failing_its_self_parse_exits_1_records_failure_and_is_not_written() {
        let dir = scratch("selfparse");
        let opts = opts_in(&dir);
        let dest = dir.join("out").join("B.json");
        let doc = Fixture::<false> {
            dest: dest.clone(),
            seen: RefCell::new(None),
        };
        let code = finish(
            &opts,
            "fixture",
            Some(UNSET_STRICT),
            "B.json",
            &doc,
            Findings::default(),
        );
        assert_eq!(code, 1);
        let records = Ledger::at(dir.join("ledger")).load().records;
        assert_eq!(records.len(), 1);
        assert!(!records[0].gate.passed);
        assert_eq!(records[0].gate.regressions, 1);
        assert!(
            !dest.exists(),
            "a document that does not reparse is never written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_doc_ledger_entries_carry_stages_bits_and_metrics() {
        let stage = |median_ms| StageStats {
            trials: 3,
            median_ms,
            mad_ms: 1.0,
            ..StageStats::default()
        };
        let mut wl = WorkloadResult {
            id: "s1/test/global".into(),
            modeled_time_bits: Some(0xdead_beef_dead_beef),
            ..WorkloadResult::default()
        };
        wl.stages.insert("modeled".into(), stage(100.0));
        wl.stages.insert("build_table".into(), stage(250.0));
        wl.metrics.insert("clusters".into(), 7.0);
        wl.fingerprints.insert("table".into(), 42);
        let doc = bench_doc(&Options::default(), 3, 1, vec![wl]);
        assert_eq!(
            doc.provenance.as_ref().unwrap().workloads,
            ["s1/test/global"]
        );

        let entries = doc.ledger_entries();
        let e = &entries[0];
        assert_eq!(e.workload, "s1/test/global");
        assert_eq!(e.modeled_time_bits, Some(0xdead_beef_dead_beef));
        assert!(!e.stages["modeled"].wall, "modeled gates, never wall");
        assert!(e.stages["build_table"].wall);
        assert_eq!(e.stages["build_table"].median_ms, 250.0);
        assert_eq!(e.stages["build_table"].mad_ms, 1.0);
        // Fingerprints stay in the artifact; the ledger carries metrics.
        assert_eq!(e.metrics.keys().collect::<Vec<_>>(), ["clusters"]);
        assert_eq!(BenchDoc::reparse(&doc.emit()), Ok(doc.emit()));

        let record = LedgerRecord {
            version: RECORD_VERSION,
            command: "bench".into(),
            provenance: doc.provenance(),
            entries,
            ..LedgerRecord::default()
        };
        let line = record.to_json();
        let back = LedgerRecord::parse(&line).expect("record parses");
        assert_eq!(back.to_json(), line, "ledger round trip is exact");
    }

    #[test]
    fn profile_doc_ledger_entries_key_by_workload_and_thread_count() {
        let run = ProfileRun {
            workload: "s1/sw1-eps0.2/global".into(),
            threads: 4,
            modeled_ms: 96.5,
            modeled_time_bits: 0x3fb8_b80b_383b_d8dc,
            bits_match_unprofiled: true,
            stages: vec![StageAnalysis {
                name: "build_table".into(),
                wall_ms: 40.0,
                serial_fraction: 0.25,
                ..StageAnalysis::default()
            }],
            workers: vec![WorkerUtilization {
                utilization_pct: 50.0,
                steals: 3,
                ..WorkerUtilization::default()
            }],
            ..ProfileRun::default()
        };
        let doc = ProfileDoc {
            version: obs::analyze::SCHEMA_VERSION,
            scale: 0.002,
            runs: vec![run],
            ..ProfileDoc::default()
        };
        let e = &doc.ledger_entries()[0];
        assert_eq!(e.workload, "profile/s1/sw1-eps0.2/global/t4");
        assert_eq!(e.modeled_time_bits, Some(0x3fb8_b80b_383b_d8dc));
        assert!(e.stages["build_table"].wall && !e.stages["modeled"].wall);
        let metrics: Vec<&str> = e.metrics.keys().map(String::as_str).collect();
        assert_eq!(
            metrics,
            [
                "bits_match_unprofiled",
                "pool_steals",
                "serial_fraction_build",
                "threads",
                "worker_util_pct"
            ]
        );
        assert_eq!(e.metrics["pool_steals"], 3.0);
        assert_eq!(ProfileDoc::reparse(&doc.emit()), Ok(doc.emit()));
    }
}
