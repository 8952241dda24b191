//! Every workload at a tiny scale, on pools of 1 and 2 threads: each
//! metric `BENCHMARK.json` names is emitted with its unit, every output
//! check passes, and the modeled table time repeats bit for bit across
//! runs and pool sizes.

use obs::json::{parse, JsonValue};
use perfbench::{run, Report, RunConfig, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn tiny_scale(w: Workload) -> f64 {
    match w {
        Workload::S2SweepSw4 => 0.0002,
        Workload::S3ReuseSw1 => 0.001,
        Workload::S1SingleSdss2 => 0.001,
    }
}

fn tiny_run(workload: Workload, threads: usize, trace: bool) -> Report {
    let report = run(&RunConfig {
        workload,
        seed: workload.default_seed(),
        seconds: 0.0,
        trace,
        scale: tiny_scale(workload),
        threads,
        trace_out: None,
    })
    .expect("the run completes");
    assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
    assert_eq!(
        report.failed,
        0,
        "{}: error_rate must be 0",
        workload.name()
    );
    assert!(report.attempted > 0);
    report
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// The emitted result line carries exactly the declared metrics.
fn assert_emits(report: &Report, section: &str) {
    let line = parse(&report.json_line()).expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = line
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics");
    let declared = declared(section);
    assert_eq!(metrics.len(), declared.len(), "{section}: metric count");
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{section}: {name} missing"));
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str())
        );
        assert!(
            m.get("value").and_then(JsonValue::as_f64).is_some(),
            "{name}"
        );
    }
}

fn modeled_bits(report: &Report) -> u64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == "modeled_table_ms")
        .expect("modeled_table_ms is reported")
        .value
        .to_bits()
}

#[test]
fn declared_workloads_are_the_benchmark_workloads() {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn timed_runs_emit_every_metric_and_model_identically() {
    for w in Workload::ALL {
        let runs = [
            tiny_run(w, 1, false),
            tiny_run(w, 2, false),
            tiny_run(w, 2, false),
        ];
        for r in &runs {
            assert_emits(r, "end_to_end");
        }
        let bits = modeled_bits(&runs[0]);
        assert!(f64::from_bits(bits) > 0.0);
        for r in &runs[1..] {
            assert_eq!(modeled_bits(r), bits, "{}: modeled_table_ms", w.name());
        }
    }
}

#[test]
fn traced_runs_replay_the_untraced_tables() {
    for w in Workload::ALL {
        for threads in [1, 2] {
            // `correct` covers the replay: its tables and labels must
            // match the untraced build's fingerprints.
            let r = tiny_run(w, threads, true);
            assert_emits(&r, "per_layer");
        }
    }
}

#[test]
fn seeds_change_the_inputs_but_not_their_size() {
    let w = Workload::S2SweepSw4;
    let a = perfbench::make_inputs(w, 1, tiny_scale(w));
    let b = perfbench::make_inputs(w, 2, tiny_scale(w));
    assert_eq!(a.len(), b.len());
    assert_ne!(a, b);
    assert_eq!(a, perfbench::make_inputs(w, 1, tiny_scale(w)));
}
