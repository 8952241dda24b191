//! Append-only run ledger (`results/ledger/ledger.jsonl`).
//!
//! Every `repro bench|threads|profile|shard|backend` run appends one compact
//! [`LedgerRecord`] line: per-stage medians/MAD, `modeled_time_bits`,
//! scalar metrics (speedups, serial fraction, worker utilization), the
//! gate outcome, and a full [`Provenance`] header. The ledger is what
//! turns eight PRs of overwritten `BENCH_*.json` snapshots into a
//! trajectory [`crate::trend`] can analyze — a 3%/PR drift is invisible
//! to any pairwise compare but obvious over ten records.
//!
//! Robustness rules:
//!
//! * **Append-only JSONL** — one record per line, written with a single
//!   `write` after the file is (re)opened in append mode. Existing lines
//!   are never rewritten.
//! * **Truncated-tail recovery** — a run killed mid-append leaves a
//!   partial last line. [`Ledger::load`] drops an unparsable tail (and
//!   counts it in [`LoadResult::skipped`]); [`Ledger::append`] terminates
//!   an unterminated tail with a newline before writing, so one crash
//!   never corrupts the next record.
//! * **Size-capped rotation** — when the active file would exceed
//!   [`MAX_ACTIVE_BYTES`], it is rotated to `ledger.1.jsonl` (replacing
//!   any previous rotation) and a fresh active file is started.
//!   [`Ledger::load`] reads the rotation first, so the window trend
//!   analysis sees spans both files.

use crate::json::{self, JsonWriter};
use crate::provenance::Provenance;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Schema id / version of one ledger record (each line is versioned
/// independently, so old lines stay readable after a bump).
pub const RECORD_SCHEMA: &str = "hybrid-dbscan/ledger-record";
pub const RECORD_VERSION: u64 = 1;

/// Default ledger directory, relative to the repo root.
pub const DEFAULT_DIR: &str = "results/ledger";

/// Active file size cap before rotation (4 MiB holds years of records at
/// the observed ~2-4 KiB/record; the cap bounds repo and parse cost).
pub const MAX_ACTIVE_BYTES: u64 = 4 << 20;

/// One stage's summary in a ledger record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StagePoint {
    pub median_ms: f64,
    pub mad_ms: f64,
    /// True for host wall-clock stages (machine-load-sensitive, advisory
    /// in trend analysis); false for deterministic modeled stages.
    pub wall: bool,
}

/// One workload's row in a ledger record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerEntry {
    /// Stable workload id — with the record's command and scale, the
    /// trend-series key (`obs::trend::SeriesKey`; e.g.
    /// `s1/sw1-eps0.2/global`, `threads/sw1-eps0.2/t4`).
    pub workload: String,
    pub stages: BTreeMap<String, StagePoint>,
    /// Bit pattern of the modeled time, when the producing command has
    /// one. Any change between consecutive records outside a baseline
    /// refresh is flagged unconditionally by `obs::trend`.
    pub modeled_time_bits: Option<u64>,
    /// Scalar telemetry: speedups, serial fractions, utilization, …
    pub metrics: BTreeMap<String, f64>,
}

/// Outcome of the producing command's own gate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GateOutcome {
    /// Was the relevant `*_STRICT=1` env set for the run?
    pub strict: bool,
    /// Gating regressions found (modeled-stage, determinism, fingerprint).
    pub regressions: u64,
    /// Advisory findings (wall drift, speedup shortfall).
    pub advisories: u64,
    /// Did the run pass its own gate?
    pub passed: bool,
}

/// One run's ledger line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerRecord {
    pub version: u64,
    /// Producing subcommand: `bench`, `threads`, `profile`, `shard` or
    /// `backend`.
    pub command: String,
    pub scale: f64,
    /// True when the run intentionally refreshed a baseline
    /// (`LEDGER_BASELINE_REFRESH=1`): trend analysis allows
    /// `modeled_time_bits` to change across such a record.
    pub baseline_refresh: bool,
    pub provenance: Provenance,
    pub gate: GateOutcome,
    pub entries: Vec<LedgerEntry>,
}

impl LedgerRecord {
    /// Serialize as a single JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", RECORD_SCHEMA);
        w.field_uint("version", self.version);
        w.field_str("command", &self.command);
        w.field_float("scale", self.scale);
        w.field_bool("baseline_refresh", self.baseline_refresh);
        self.provenance.write_field(&mut w);
        w.key("gate");
        w.begin_object();
        w.field_bool("strict", self.gate.strict);
        w.field_uint("regressions", self.gate.regressions);
        w.field_uint("advisories", self.gate.advisories);
        w.field_bool("passed", self.gate.passed);
        w.end_object();
        w.key("entries");
        w.begin_array();
        for e in &self.entries {
            w.begin_object();
            w.field_str("workload", &e.workload);
            w.key("stages");
            w.begin_object();
            for (name, s) in &e.stages {
                w.key(name);
                w.begin_object();
                w.field_float("median_ms", s.median_ms);
                w.field_float("mad_ms", s.mad_ms);
                w.field_bool("wall", s.wall);
                w.end_object();
            }
            w.end_object();
            if let Some(bits) = e.modeled_time_bits {
                w.field_hex("modeled_time_bits", bits);
            }
            w.field_f64_map("metrics", &e.metrics);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Parse one JSONL line.
    pub fn parse(text: &str) -> Result<LedgerRecord, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let schema = v.req_str("schema")?;
        if schema != RECORD_SCHEMA {
            return Err(format!(
                "unexpected schema '{schema}' (want '{RECORD_SCHEMA}')"
            ));
        }
        let version = v.req_u64("version")?;
        if version > RECORD_VERSION {
            return Err(format!(
                "unsupported record version {version} (supported: <= {RECORD_VERSION})"
            ));
        }
        let gate_v = v.get("gate").ok_or("missing 'gate' object")?;
        let gate = GateOutcome {
            strict: gate_v.req_bool("strict")?,
            regressions: gate_v.req_u64("regressions")?,
            advisories: gate_v.req_u64("advisories")?,
            passed: gate_v.req_bool("passed")?,
        };
        let mut rec = LedgerRecord {
            version,
            command: v.req_str("command")?.to_string(),
            scale: v.req_f64("scale")?,
            baseline_refresh: v.req_bool("baseline_refresh")?,
            provenance: Provenance::parse_field(&v)?.ok_or("missing 'provenance' header")?,
            gate,
            entries: Vec::new(),
        };
        for e in v.req_arr("entries")? {
            let mut entry = LedgerEntry {
                workload: e.req_str("workload")?.to_string(),
                ..LedgerEntry::default()
            };
            for (name, s) in e.req_obj("stages")? {
                entry.stages.insert(
                    name.clone(),
                    StagePoint {
                        median_ms: s.req_f64("median_ms")?,
                        mad_ms: s.req_f64("mad_ms")?,
                        wall: s.req_bool("wall")?,
                    },
                );
            }
            entry.modeled_time_bits = e.opt_hex("modeled_time_bits")?;
            entry.metrics = e.req_f64_map("metrics")?;
            rec.entries.push(entry);
        }
        Ok(rec)
    }
}

/// Result of loading a ledger directory.
#[derive(Debug, Clone, Default)]
pub struct LoadResult {
    /// Records in append order (rotated file first, then the active one).
    pub records: Vec<LedgerRecord>,
    /// Lines that failed to parse and were skipped, with reasons. A
    /// truncated tail shows up here as exactly one entry.
    pub skipped: Vec<String>,
}

/// Handle to a ledger directory.
#[derive(Debug, Clone)]
pub struct Ledger {
    dir: PathBuf,
}

impl Ledger {
    /// Ledger under an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Ledger {
        Ledger { dir: dir.into() }
    }

    /// Ledger under the default repo location ([`DEFAULT_DIR`]).
    pub fn default_location() -> Ledger {
        Ledger::at(DEFAULT_DIR)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the active JSONL file.
    pub fn active_path(&self) -> PathBuf {
        self.dir.join("ledger.jsonl")
    }

    /// Path of the (single) rotated file.
    pub fn rotated_path(&self) -> PathBuf {
        self.dir.join("ledger.1.jsonl")
    }

    /// Append one record. Creates the directory on first use, terminates
    /// a truncated tail left by a killed writer, and rotates the active
    /// file when it would exceed `max_bytes`. Returns the path written.
    pub fn append_with_cap(
        &self,
        record: &LedgerRecord,
        max_bytes: u64,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.active_path();
        let line = record.to_json();
        if let Ok(meta) = std::fs::metadata(&path) {
            if meta.len() + line.len() as u64 + 1 > max_bytes {
                // Replace any previous rotation: the cap bounds total
                // footprint at ~2x max_bytes.
                std::fs::rename(&path, self.rotated_path())?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        // Recovery: if a previous append died mid-line, the file does not
        // end in '\n'; terminate that tail so our record starts a fresh
        // line (load() will skip the dead fragment).
        let len = file.metadata()?.len();
        if len > 0 {
            let existing = std::fs::read(&path)?;
            if existing.last() != Some(&b'\n') {
                file.write_all(b"\n")?;
            }
        }
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        Ok(path)
    }

    /// [`Self::append_with_cap`] at the default [`MAX_ACTIVE_BYTES`].
    pub fn append(&self, record: &LedgerRecord) -> std::io::Result<PathBuf> {
        self.append_with_cap(record, MAX_ACTIVE_BYTES)
    }

    /// Load every record, rotation first. Unparsable lines (a truncated
    /// tail, a hand-edit gone wrong) are skipped and reported, never
    /// fatal: one bad line must not take out the whole trajectory.
    pub fn load(&self) -> LoadResult {
        let mut out = LoadResult::default();
        for path in [self.rotated_path(), self.active_path()] {
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match LedgerRecord::parse(line) {
                    Ok(rec) => out.records.push(rec),
                    Err(e) => out.skipped.push(format!(
                        "{}:{}: {e}",
                        path.file_name().unwrap_or_default().to_string_lossy(),
                        i + 1
                    )),
                }
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::provenance::{Provenance, HEADER_VERSION};

    /// A deterministic record for ledger/trend tests (`seq` varies the
    /// timestamp and sha so records are distinguishable).
    pub(crate) fn sample_record(seq: u64, modeled_ms: f64, bits: u64) -> LedgerRecord {
        let mut entry = LedgerEntry {
            workload: "s1/sw1-eps0.2/global".into(),
            modeled_time_bits: Some(bits),
            ..LedgerEntry::default()
        };
        entry.stages.insert(
            "modeled".into(),
            StagePoint {
                median_ms: modeled_ms,
                mad_ms: 0.0,
                wall: false,
            },
        );
        entry.stages.insert(
            "build_table".into(),
            StagePoint {
                median_ms: 40.0 + seq as f64,
                mad_ms: 1.5,
                wall: true,
            },
        );
        entry.metrics.insert("clusters".into(), 64.0);
        LedgerRecord {
            version: RECORD_VERSION,
            command: "bench".into(),
            scale: 0.002,
            baseline_refresh: false,
            provenance: Provenance {
                header_version: HEADER_VERSION,
                schema: "hybrid-dbscan/bench-suite".into(),
                schema_version: 2,
                git_sha: format!("sha{seq:09}"),
                git_dirty: false,
                rustc: "rustc 1.95.0".into(),
                rayon_num_threads: "4".into(),
                host: "test".into(),
                os: "linux/x86_64".into(),
                timestamp_unix: 1_754_000_000 + seq * 3600,
                workloads: vec!["s1/sw1-eps0.2/global".into()],
            },
            gate: GateOutcome {
                strict: false,
                regressions: 0,
                advisories: 1,
                passed: true,
            },
            entries: vec![entry],
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("obs-ledger-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_round_trips_exactly() {
        let rec = sample_record(3, 6.745, 0x3fdb_22d0_e560_4189);
        let line = rec.to_json();
        assert!(!line.contains('\n'), "a record must be one line");
        let back = LedgerRecord::parse(&line).expect("parse own output");
        assert_eq!(back, rec);
        assert_eq!(back.to_json(), line, "emission must be a fixed point");
    }

    #[test]
    fn bits_survive_as_full_64bit_patterns() {
        let rec = sample_record(0, 1.0, u64::MAX);
        let back = LedgerRecord::parse(&rec.to_json()).unwrap();
        assert_eq!(back.entries[0].modeled_time_bits, Some(u64::MAX));
    }

    #[test]
    fn append_and_reload_round_trip() {
        let dir = tmp_dir("roundtrip");
        let ledger = Ledger::at(&dir);
        let a = sample_record(1, 6.7, 100);
        let b = sample_record(2, 6.7, 100);
        ledger.append(&a).expect("append a");
        ledger.append(&b).expect("append b");
        let loaded = ledger.load();
        assert!(loaded.skipped.is_empty(), "{:?}", loaded.skipped);
        assert_eq!(loaded.records, vec![a, b]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_last_line_is_recovered() {
        let dir = tmp_dir("truncated");
        let ledger = Ledger::at(&dir);
        let a = sample_record(1, 6.7, 100);
        ledger.append(&a).expect("append");
        // Simulate a writer killed mid-append: a partial record with no
        // terminating newline.
        let mut bytes = std::fs::read(ledger.active_path()).unwrap();
        bytes.extend_from_slice(br#"{"schema":"hybrid-dbscan/ledger-rec"#);
        std::fs::write(ledger.active_path(), &bytes).unwrap();

        // Load drops exactly the dead tail.
        let loaded = ledger.load();
        assert_eq!(loaded.records, vec![a.clone()]);
        assert_eq!(loaded.skipped.len(), 1, "{:?}", loaded.skipped);

        // The next append terminates the tail and lands intact.
        let b = sample_record(2, 6.7, 100);
        ledger.append(&b).expect("append after truncation");
        let loaded = ledger.load();
        assert_eq!(loaded.records, vec![a, b]);
        assert_eq!(loaded.skipped.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_caps_the_active_file_and_load_reads_both() {
        let dir = tmp_dir("rotation");
        let ledger = Ledger::at(&dir);
        let recs: Vec<LedgerRecord> = (0..6).map(|i| sample_record(i, 6.7, 100)).collect();
        let cap = recs[0].to_json().len() as u64 * 2 + 16;
        for r in &recs {
            ledger.append_with_cap(r, cap).expect("append");
        }
        assert!(
            ledger.rotated_path().exists(),
            "rotation must have happened"
        );
        assert!(
            std::fs::metadata(ledger.active_path()).unwrap().len() <= cap,
            "active file must respect the cap"
        );
        let loaded = ledger.load();
        assert!(loaded.skipped.is_empty(), "{:?}", loaded.skipped);
        // The single-rotation policy may drop the oldest records, but
        // order is preserved and the newest record is always last.
        assert!(loaded.records.len() >= 2);
        let n = loaded.records.len();
        assert_eq!(loaded.records[n - 1], recs[5]);
        for w in loaded.records.windows(2) {
            assert!(
                w[0].provenance.timestamp_unix <= w[1].provenance.timestamp_unix,
                "append order must be preserved"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_version_lines_are_skipped_not_fatal() {
        let dir = tmp_dir("future");
        let ledger = Ledger::at(&dir);
        ledger.append(&sample_record(1, 6.7, 100)).unwrap();
        let line = sample_record(2, 6.7, 100)
            .to_json()
            .replace(r#""version":1"#, r#""version":999"#);
        let mut bytes = std::fs::read(ledger.active_path()).unwrap();
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        std::fs::write(ledger.active_path(), &bytes).unwrap();
        let loaded = ledger.load();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.skipped.len(), 1);
        assert!(loaded.skipped[0].contains("version"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
