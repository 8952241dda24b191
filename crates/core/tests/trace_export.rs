//! Smoke test for the Chrome trace exporter: build a neighbor table on a
//! tiny dataset with a recorder attached, export the trace, and re-parse
//! the JSON with the shared `obs::json` parser (the same parser the
//! benchmark harness uses to load baselines) to check the trace-event
//! contract: field presence, lane metadata, per-lane non-overlap, and
//! that every emitted document (trace + metrics snapshot) round-trips.

use gpu_sim::device::Device;
use hybrid_dbscan_core::batch::BatchConfig;
use hybrid_dbscan_core::hybrid::{HybridConfig, HybridDbscan};
use obs::json::{parse, JsonValue};
use obs::Recorder;
use spatial::{Point2, PointN};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic tiny dataset: a grid of small clusters, enough points to
/// produce several batches under a small buffer budget.
fn tiny_points(n: usize) -> Vec<Point2> {
    (0..n)
        .map(|i| {
            let cluster = i % 8;
            let k = (i / 8) as f64;
            Point2::new(
                (cluster % 4) as f64 * 10.0 + (k * 0.618).fract(),
                (cluster / 4) as f64 * 10.0 + (k * 0.382).fract(),
            )
        })
        .collect()
}

/// A deterministic 3-D counterpart of [`tiny_points`]: eight clusters
/// at the corners of a cube.
fn tiny_points_3d(n: usize) -> Vec<PointN<3>> {
    (0..n)
        .map(|i| {
            let cluster = i % 8;
            let k = (i / 8) as f64;
            PointN::new([
                (cluster & 1) as f64 * 10.0 + (k * 0.618).fract(),
                ((cluster >> 1) & 1) as f64 * 10.0 + (k * 0.382).fract(),
                (cluster >> 2) as f64 * 10.0 + (k * 0.271).fract(),
            ])
        })
        .collect()
}

#[test]
fn exported_trace_is_valid_and_lanes_do_not_overlap() {
    let data = tiny_points(400);
    let device = Device::k20c();
    let rec = Arc::new(Recorder::new());
    let hybrid = HybridDbscan::new(&device, HybridConfig::default()).with_recorder(rec.clone());
    hybrid.build_table(&data, 0.9).expect("build_table");
    check_exported_trace(&rec);
}

/// N-D builds run the same pipeline, so they emit the same layer spans
/// and device-lane ops, and their trace obeys the same contract.
#[test]
fn nd_build_trace_is_valid_and_lanes_do_not_overlap() {
    let data = tiny_points_3d(400);
    let device = Device::k20c();
    let rec = Arc::new(Recorder::new());
    let cfg = HybridConfig {
        batch: BatchConfig {
            static_threshold: 0,
            static_buffer_items: 512,
            ..BatchConfig::default()
        },
        ..HybridConfig::default()
    };
    let hybrid = HybridDbscan::new(&device, cfg).with_recorder(rec.clone());
    let handle = hybrid.build_table(&data, 0.9).expect("build_table");
    assert!(handle.gpu.n_batches > 1, "test must exercise batching");
    let spans = rec.spans();
    for name in [
        "build_table",
        "index_build",
        "h2d_upload",
        "estimation_kernel",
        "batch_loop",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
    }
    assert_eq!(rec.device_ops().len(), 3 + handle.gpu.schedule.ops.len());
    check_exported_trace(&rec);
}

/// Export `rec`'s trace and metrics and check the trace-event contract.
fn check_exported_trace(rec: &Recorder) {
    let json_text = rec.chrome_trace_json();
    let doc = parse(&json_text).expect("trace must be valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every event carries name/ph/pid/tid; X events also ts/dur.
    let mut lane_names: Vec<String> = Vec::new();
    let mut device_events: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut host_events = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
        assert!(ev.get("name").and_then(JsonValue::as_str).is_some(), "name");
        let pid = ev.get("pid").and_then(JsonValue::as_u64).expect("pid");
        let tid = ev.get("tid").and_then(JsonValue::as_u64).expect("tid");
        match ph {
            "M" => {
                if ev.get("name").and_then(JsonValue::as_str) == Some("thread_name") && pid == 0 {
                    let lane = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .expect("thread_name args.name");
                    lane_names.push(lane.to_string());
                }
            }
            "X" => {
                let ts = ev.get("ts").and_then(JsonValue::as_f64).expect("ts");
                let dur = ev.get("dur").and_then(JsonValue::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                if pid == 0 {
                    device_events.entry(tid).or_default().push((ts, dur));
                } else {
                    host_events += 1;
                }
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }

    // Distinct H2D / Compute / D2H lanes must be named.
    for lane in ["H2D", "Compute", "D2H"] {
        assert!(
            lane_names.iter().any(|n| n == lane),
            "missing device lane {lane}: {lane_names:?}"
        );
    }
    assert!(host_events > 0, "host spans must be exported");
    assert!(
        device_events.len() >= 3,
        "events on at least 3 device lanes"
    );

    // Per-lane events never overlap (engines are exclusive resources).
    for (tid, lane) in device_events.iter_mut() {
        lane.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in lane.windows(2) {
            let (t0, d0) = w[0];
            let (t1, _) = w[1];
            assert!(
                t1 >= t0 + d0 - 1e-6,
                "lane {tid} events overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    // The metrics export parses too and carries the batch telemetry.
    let metrics = parse(&rec.metrics_json()).expect("metrics must be valid JSON");
    let counters = metrics.get("counters").expect("counters object");
    assert!(
        counters
            .get("batch.result_pairs")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    let gauges = metrics.get("gauges").expect("gauges object");
    assert!(gauges
        .get("batch.estimation_accuracy")
        .and_then(JsonValue::as_f64)
        .is_some());
    // The kernel-profile wiring (obs::bench::record_kernel_profile) lands
    // in the same snapshot.
    assert!(gauges
        .get("kernel.gpucalc_global.gmem_gbps")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
        .is_finite());
    assert!(
        counters
            .get("kernel.gpucalc_global.launches")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn trace_json_escapes_are_reversible() {
    // Round-trip a span name with every escaped character class through
    // the exporter and the shared parser.
    let rec = Recorder::new();
    drop(rec.span("weird \"name\"\\with\nescapes\tand\u{1}ctrl", "test"));
    let doc = parse(&rec.chrome_trace_json()).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
    let found = events.iter().any(|e| {
        e.get("name").and_then(JsonValue::as_str)
            == Some("weird \"name\"\\with\nescapes\tand\u{1}ctrl")
    });
    assert!(found, "escaped span name must round-trip");
}
