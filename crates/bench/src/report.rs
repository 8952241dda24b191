//! `repro report` — the cross-run trend report over the run ledger.
//!
//! Loads the ledger (`results/ledger/` or `--ledger DIR`), runs the
//! [`obs::trend`] change-point analysis over the window, prints the text
//! summary, and renders the self-contained HTML dashboard
//! ([`obs::dashboard`]) to `REPORT.html` (under `--csv DIR` when given,
//! else the working directory). The dashboard's embedded JSON payload is
//! round-trip-validated through [`obs::json::parse`] before the file is
//! written — a dashboard whose data block doesn't parse is a bug, not an
//! artifact.
//!
//! Gate: trend regressions (modeled-stage steps, `modeled_time_bits`
//! changes outside a `LEDGER_BASELINE_REFRESH=1` run) are advisory by
//! default and fail the run under `TREND_STRICT=1` — the same strictness
//! pattern as `BENCH_STRICT` / `THREADS_STRICT` / `DIFF_STRICT`.

use crate::common::Options;
use crate::harness::{self, Findings};
use obs::dashboard;
use obs::trend;

/// Load the ledger, analyze, print the summary, write `REPORT.html`.
/// Returns the process exit code: nonzero when `TREND_STRICT=1` and the
/// analysis found gating findings, or the dashboard failed validation.
pub fn print(opts: &Options) -> i32 {
    let ledger = opts.run_ledger();
    println!(
        "== Run-ledger trend report ({}) ==\n",
        ledger.dir().display()
    );

    let loaded = ledger.load();
    for reason in &loaded.skipped {
        eprintln!("# report: skipped unreadable ledger line: {reason}");
    }
    if loaded.records.is_empty() {
        eprintln!(
            "# report: ledger at {} has no readable records",
            ledger.dir().display()
        );
        eprintln!(
            "# report: run `repro bench|threads|profile|shard|backend` first to append records"
        );
        return 1;
    }

    let report = trend::analyze(&loaded.records, trend::DEFAULT_WINDOW);
    print!("{}", dashboard::render_text(&loaded.records, &report));

    // Render, then validate the embedded payload through the shared
    // parser before shipping the file.
    let html = dashboard::render_html(&loaded.records, &report);
    let mut findings = Findings::default();
    if let Err(e) = dashboard::embedded_json(&html).and_then(|json| {
        obs::json::parse(&json).map_err(|e| format!("embedded payload does not parse: {e}"))
    }) {
        findings.fatal.push(e);
    } else {
        opts.write_artifact("report", "REPORT.html", &html);
    }

    let gating = report.gating().len();
    if gating > 0 {
        findings
            .strict
            .push(format!("{gating} gating trend finding(s)"));
    }
    harness::gate("report", Some("TREND_STRICT"), &findings).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ledger::{GateOutcome, Ledger, LedgerEntry, LedgerRecord, StagePoint, RECORD_VERSION};
    use obs::provenance::Provenance;

    fn record(seq: u64, modeled_ms: f64, bits: u64) -> LedgerRecord {
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
                header_version: obs::provenance::HEADER_VERSION,
                schema: obs::ledger::RECORD_SCHEMA.into(),
                schema_version: RECORD_VERSION,
                git_sha: "ee9aa08269b9".into(),
                git_dirty: false,
                rustc: "rustc 1.95.0".into(),
                rayon_num_threads: "unset".into(),
                host: "testhost".into(),
                os: "linux".into(),
                timestamp_unix: 1_754_000_000 + seq * 3600,
                workloads: vec!["s1/sw1-eps0.2/global".into()],
            },
            gate: GateOutcome {
                strict: false,
                regressions: 0,
                advisories: 0,
                passed: true,
            },
            entries: vec![entry],
        }
    }

    fn temp_ledger(name: &str) -> Ledger {
        let dir = std::env::temp_dir().join(format!("repro-report-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Ledger::at(dir)
    }

    #[test]
    fn report_runs_end_to_end_over_a_real_ledger_dir() {
        let ledger = temp_ledger("e2e");
        for i in 0..5 {
            ledger.append(&record(i, 100.0, 0xabc)).unwrap();
        }
        let opts = Options {
            ledger: Some(ledger.dir().to_path_buf()),
            csv_dir: Some(ledger.dir().to_path_buf()),
            ..Options::default()
        };
        assert_eq!(print(&opts), 0);
        let html = std::fs::read_to_string(ledger.dir().join("REPORT.html")).unwrap();
        let json = obs::dashboard::embedded_json(&html).unwrap();
        let v = obs::json::parse(&json).expect("embedded payload parses");
        assert_eq!(
            v.get("records")
                .and_then(obs::json::JsonValue::as_arr)
                .map(|a| a.len()),
            Some(5)
        );
        let _ = std::fs::remove_dir_all(ledger.dir());
    }

    #[test]
    fn doctored_two_x_modeled_step_is_flagged_and_would_gate() {
        // The acceptance scenario: a ledger whose newest records carry a
        // doctored 2× modeled stage time must be flagged by obs::trend as
        // a gating finding (which fails `repro report` under
        // TREND_STRICT=1 — the exit-code path is exercised through the
        // report's own gating() count, since tests must not set process
        // env for other tests' sake).
        let ledger = temp_ledger("doctored");
        for i in 0..8 {
            let ms = if i < 6 { 100.0 } else { 200.0 };
            ledger.append(&record(i, ms, 0xabc)).unwrap();
        }
        let loaded = ledger.load();
        let report = obs::trend::analyze(&loaded.records, obs::trend::DEFAULT_WINDOW);
        let gating = report.gating();
        assert!(
            gating.iter().any(|f| f.stage == "modeled"),
            "2x modeled step must gate: {:?}",
            report.findings
        );
        let _ = std::fs::remove_dir_all(ledger.dir());
    }

    #[test]
    fn empty_ledger_dir_is_an_error_not_a_crash() {
        let ledger = temp_ledger("empty");
        std::fs::create_dir_all(ledger.dir()).unwrap();
        let opts = Options {
            ledger: Some(ledger.dir().to_path_buf()),
            ..Options::default()
        };
        assert_eq!(print(&opts), 1);
        let _ = std::fs::remove_dir_all(ledger.dir());
    }
}
