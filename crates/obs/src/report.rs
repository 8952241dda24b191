//! Plain-text run summary: span tree, device-engine utilization, pool
//! worker utilization (when a pool profile was ingested), metrics.

use crate::{DeviceOp, PoolWorkerLane, Recorder, SpanRecord};
use gpu_sim::timeline::Engine;
use std::fmt::Write as _;

fn write_span_tree(out: &mut String, spans: &[SpanRecord], parent: Option<u64>, depth: usize) {
    for span in spans.iter().filter(|s| s.parent == parent) {
        let indent = "  ".repeat(depth + 1);
        let _ = write!(
            out,
            "{indent}{} [{}] {:.3} ms",
            span.name,
            span.cat,
            span.wall_dur_us / 1e3
        );
        if let Some(sim) = span.sim_dur_us {
            let _ = write!(out, " (sim {:.3} ms)", sim / 1e3);
        }
        for (k, v) in &span.args {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        write_span_tree(out, spans, Some(span.id), depth + 1);
    }
}

fn write_device_summary(out: &mut String, ops: &[DeviceOp]) {
    let mut lanes: Vec<Engine> = Vec::new();
    for op in ops {
        if !lanes.contains(&op.engine) {
            lanes.push(op.engine);
        }
    }
    lanes.sort_by_key(|e| crate::chrome::engine_tid(*e));
    let end_us = ops
        .iter()
        .map(|o| o.start_us + o.dur_us)
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "device timeline: {} ops, span {:.3} ms",
        ops.len(),
        end_us / 1e3
    );
    for lane in lanes {
        let busy: f64 = ops
            .iter()
            .filter(|o| o.engine == lane)
            .map(|o| o.dur_us)
            .sum();
        let count = ops.iter().filter(|o| o.engine == lane).count();
        let util = if end_us > 0.0 {
            busy / end_us * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<8} {count:>4} ops  busy {:>10.3} ms  ({util:>5.1}% of span)",
            crate::chrome::engine_lane_name(lane),
            busy / 1e3,
        );
    }
}

fn write_pool_summary(out: &mut String, span_us: f64, lanes: &[PoolWorkerLane]) {
    let steals: u64 = lanes.iter().map(|l| l.steals).sum();
    let tasks: u64 = lanes.iter().map(|l| l.tasks).sum();
    let _ = writeln!(
        out,
        "pool workers: {} lanes, session {:.3} ms, {tasks} tasks ({steals} stolen)",
        lanes.len(),
        span_us / 1e3
    );
    for lane in lanes {
        let busy_pct = if span_us > 0.0 {
            lane.busy_us() / span_us * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<16} busy {:>5.1}%  park {:>9.3} ms  queue-wait {:>8.3} ms  \
             {:>5} tasks ({} stolen, {} local)",
            lane.name,
            busy_pct,
            lane.park_us / 1e3,
            lane.queue_wait_us / 1e3,
            lane.tasks,
            lane.steals,
            lane.local_pops,
        );
    }
}

/// Render the full text report for a recorder.
pub fn render(rec: &Recorder) -> String {
    let spans = rec.spans();
    let ops = rec.device_ops();
    let metrics = rec.metrics().snapshot();

    let mut out = String::new();
    out.push_str("== run summary ==\n");
    if !spans.is_empty() {
        out.push_str("spans:\n");
        write_span_tree(&mut out, &spans, None, 0);
    }
    if !ops.is_empty() {
        write_device_summary(&mut out, &ops);
    }
    let pool_lanes = rec.pool_lanes();
    if !pool_lanes.is_empty() {
        write_pool_summary(&mut out, rec.pool_span_us(), &pool_lanes);
    }
    let metrics_text = metrics.to_text();
    if !metrics_text.is_empty() {
        out.push_str(&metrics_text);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Recorder;
    use gpu_sim::timeline::Engine;
    use gpu_sim::{SimDuration, SimTime};

    #[test]
    fn report_shows_spans_device_and_metrics() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("run", "hybrid");
            let _inner = rec.span("index_build", "hybrid");
        }
        rec.record_device_op(
            Engine::Compute,
            "kernel",
            0,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(1.0),
        );
        rec.metrics().counter_add("batches", 4);
        let text = rec.text_report();
        assert!(text.contains("run summary"), "{text}");
        assert!(text.contains("run [hybrid]"), "{text}");
        assert!(text.contains("index_build"), "{text}");
        assert!(text.contains("Compute"), "{text}");
        assert!(text.contains("batches"), "{text}");
    }

    #[test]
    fn empty_recorder_renders_header_only() {
        let rec = Recorder::new();
        let text = rec.text_report();
        assert_eq!(text, "== run summary ==\n");
    }

    #[test]
    fn pool_summary_lists_each_worker_lane() {
        use crate::{PoolTaskEvent, PoolWorkerLane};
        let ev = |start_us: f64, dur_us: f64| PoolTaskEvent {
            label: "par_iter",
            start_us,
            dur_us,
            stolen: false,
            queue_us: 0.0,
        };
        let rec = Recorder::new();
        rec.record_pool_lanes(
            1000.0,
            vec![
                PoolWorkerLane {
                    name: "main".into(),
                    tasks: 3,
                    local_pops: 3,
                    // The second task runs nested inside the first: busy
                    // is their union (900 µs), not the 1100 µs sum.
                    events: vec![ev(0.0, 600.0), ev(100.0, 200.0), ev(600.0, 300.0)],
                    ..Default::default()
                },
                PoolWorkerLane {
                    name: "rayon-worker-0".into(),
                    events: vec![ev(0.0, 250.0)],
                    park_us: 700.0,
                    parks: 2,
                    steals: 1,
                    tasks: 1,
                    ..Default::default()
                },
            ],
        );
        let text = rec.text_report();
        assert!(text.contains("pool workers: 2 lanes"), "{text}");
        assert!(text.contains("4 tasks (1 stolen)"), "{text}");
        assert!(text.contains("rayon-worker-0"), "{text}");
        assert!(text.contains("busy  90.0%"), "{text}");
    }
}
