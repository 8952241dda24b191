//! Chrome trace-event JSON exporter.
//!
//! Produces the `{"traceEvents": [...]}` object format understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>. Two processes map the
//! pipeline's two clocks onto separate track groups:
//!
//! * **pid 0 — "device (sim time)"**: one thread lane per simulated engine
//!   (tid 0 = H2D, 1 = Compute, 2 = D2H, 3+l = Host lane *l*), timestamps
//!   in simulated microseconds since schedule start. Engine exclusivity in
//!   the [`gpu_sim::timeline::Timeline`] guarantees lane events never
//!   overlap.
//! * **pid 1 — "host (wall time)"**: one lane per OS thread that recorded
//!   spans, timestamps in wall microseconds since the recorder's epoch.
//! * **pid 2 — "pool workers (wall time)"**: one lane per pool worker
//!   thread captured by a profiling session ([`rayon::profile`]), each
//!   task event tagged with its region label and whether it was stolen.
//!   Present only when a pool profile was ingested.
//!
//! All events are complete (`"ph": "X"`) duration events plus `"M"`
//! metadata records naming the processes and lanes.

use crate::json::JsonWriter;
use crate::Recorder;
use gpu_sim::timeline::Engine;

pub const DEVICE_PID: u64 = 0;
pub const HOST_PID: u64 = 1;
pub const POOL_PID: u64 = 2;

/// Stable lane (tid) assignment for device engines (device 0).
pub fn engine_tid(engine: Engine) -> u64 {
    match engine {
        Engine::H2D => 0,
        Engine::Compute => 1,
        Engine::D2H => 2,
        Engine::Host(l) => 3 + l as u64,
    }
}

/// Lane (tid) for an engine of simulated device `device`: devices get
/// disjoint 16-lane tid blocks, so a sharded run's per-shard pipelines
/// render as separate lane groups. Device 0 keeps the historical tids.
pub fn device_engine_tid(device: u32, engine: Engine) -> u64 {
    device as u64 * 16 + engine_tid(engine)
}

/// Human-readable lane name for a device engine.
pub fn engine_lane_name(engine: Engine) -> String {
    match engine {
        Engine::H2D => "H2D".to_string(),
        Engine::Compute => "Compute".to_string(),
        Engine::D2H => "D2H".to_string(),
        Engine::Host(l) => format!("Host {l}"),
    }
}

/// Lane name for an engine of simulated device `device`; shard devices
/// are prefixed so Perfetto groups read "shard1 Compute" etc.
pub fn device_engine_lane_name(device: u32, engine: Engine) -> String {
    if device == 0 {
        engine_lane_name(engine)
    } else {
        format!("shard{device} {}", engine_lane_name(engine))
    }
}

/// `us` rounded to the 1 ns (3-decimal µs) grid the JSON writer emits.
fn round_ns(us: f64) -> f64 {
    (us * 1e3).round() / 1e3
}

fn metadata_event(w: &mut JsonWriter, name: &str, pid: u64, tid: u64, value: &str) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("ph", "M");
    w.field_uint("pid", pid);
    w.field_uint("tid", tid);
    w.key("args");
    w.begin_object();
    w.field_str("name", value);
    w.end_object();
    w.end_object();
}

/// Serialize the recorder's full state as Chrome trace-event JSON.
pub fn export(rec: &Recorder) -> String {
    let device_ops = rec.device_ops();
    let spans = rec.spans();
    let thread_names = rec.thread_names();
    let pool_lanes = rec.pool_lanes();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    // Process names.
    metadata_event(&mut w, "process_name", DEVICE_PID, 0, "device (sim time)");
    metadata_event(&mut w, "process_name", HOST_PID, 0, "host (wall time)");
    if !pool_lanes.is_empty() {
        metadata_event(
            &mut w,
            "process_name",
            POOL_PID,
            0,
            "pool workers (wall time)",
        );
    }

    // Device lane names, one per (device, engine) actually used, in tid
    // order.
    let mut lanes: Vec<(u32, Engine)> = Vec::new();
    for op in &device_ops {
        if !lanes.contains(&(op.device, op.engine)) {
            lanes.push((op.device, op.engine));
        }
    }
    lanes.sort_by_key(|&(d, e)| device_engine_tid(d, e));
    for &(device, engine) in &lanes {
        metadata_event(
            &mut w,
            "thread_name",
            DEVICE_PID,
            device_engine_tid(device, engine),
            &device_engine_lane_name(device, engine),
        );
    }

    // Host lane names.
    for (tid, name) in thread_names.iter().enumerate() {
        metadata_event(&mut w, "thread_name", HOST_PID, tid as u64, name);
    }

    // Pool worker lane names (tid = lane index in ingestion order, which
    // the recorder keeps sorted by worker name).
    for (tid, lane) in pool_lanes.iter().enumerate() {
        metadata_event(&mut w, "thread_name", POOL_PID, tid as u64, &lane.name);
    }

    // Device events.
    for op in &device_ops {
        w.begin_object();
        w.field_str("name", &op.label);
        w.field_str("cat", "device");
        w.field_str("ph", "X");
        // Round the end, not the duration, to the exported 1 ns grid:
        // ops that abut on an engine's timeline must still abut after
        // the 3-decimal export, never overlap by a rounding step.
        let ts = round_ns(op.start_us);
        w.field_float("ts", ts);
        w.field_float("dur", round_ns(op.start_us + op.dur_us) - ts);
        w.field_uint("pid", DEVICE_PID);
        w.field_uint("tid", device_engine_tid(op.device, op.engine));
        w.key("args");
        w.begin_object();
        w.field_uint("chain", op.chain as u64);
        w.field_uint("stream", op.stream as u64);
        w.end_object();
        w.end_object();
    }

    // Host span events.
    for span in &spans {
        w.begin_object();
        w.field_str("name", &span.name);
        w.field_str("cat", span.cat);
        w.field_str("ph", "X");
        w.field_float("ts", span.wall_start_us);
        w.field_float("dur", span.wall_dur_us);
        w.field_uint("pid", HOST_PID);
        w.field_uint("tid", span.tid as u64);
        w.key("args");
        w.begin_object();
        if let (Some(ts), Some(td)) = (span.sim_start_us, span.sim_dur_us) {
            w.field_float("sim_start_us", ts);
            w.field_float("sim_dur_us", td);
        }
        for (k, v) in &span.args {
            w.field_str(k, v);
        }
        w.end_object();
        w.end_object();
    }

    // Pool worker task events, one lane per worker.
    for (tid, lane) in pool_lanes.iter().enumerate() {
        for ev in &lane.events {
            w.begin_object();
            w.field_str("name", ev.label);
            w.field_str("cat", "pool");
            w.field_str("ph", "X");
            w.field_float("ts", ev.start_us);
            w.field_float("dur", ev.dur_us);
            w.field_uint("pid", POOL_PID);
            w.field_uint("tid", tid as u64);
            w.key("args");
            w.begin_object();
            w.field_bool("stolen", ev.stolen);
            w.field_float("queue_us", ev.queue_us);
            w.end_object();
            w.end_object();
        }
    }

    w.end_array();
    w.field_str("displayTimeUnit", "ms");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{SimDuration, SimTime};

    #[test]
    fn lane_assignment_is_stable_and_distinct() {
        let lanes = [
            Engine::H2D,
            Engine::Compute,
            Engine::D2H,
            Engine::Host(0),
            Engine::Host(1),
        ];
        let tids: Vec<u64> = lanes.iter().map(|&e| engine_tid(e)).collect();
        assert_eq!(tids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shard_devices_get_disjoint_lane_blocks() {
        // Device 0 keeps the historical tids; shard devices move to
        // their own 16-lane blocks with prefixed names.
        assert_eq!(device_engine_tid(0, Engine::Compute), 1);
        assert_eq!(device_engine_tid(1, Engine::H2D), 16);
        assert_eq!(device_engine_tid(2, Engine::Host(1)), 36);
        assert_eq!(device_engine_lane_name(0, Engine::Compute), "Compute");
        assert_eq!(device_engine_lane_name(1, Engine::D2H), "shard1 D2H");

        let rec = Recorder::new();
        rec.record_device_op_on(
            1,
            Engine::Compute,
            "kernel",
            0,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(0.5),
        );
        let json = export(&rec);
        assert!(json.contains(r#""shard1 Compute""#), "{json}");
        assert!(json.contains(r#""tid":17"#), "{json}");
    }

    #[test]
    fn export_contains_lanes_events_and_metadata() {
        let rec = Recorder::new();
        rec.record_device_op(
            Engine::H2D,
            "upload",
            0,
            0,
            SimTime::ZERO,
            SimDuration::from_secs(0.25),
        );
        rec.record_device_op(
            Engine::Compute,
            "kernel",
            0,
            0,
            SimTime::from_secs(0.25),
            SimDuration::from_secs(1.0),
        );
        {
            let mut s = rec.span("build_table", "hybrid");
            s.arg("batches", 4);
        }
        let json = export(&rec);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains(r#""device (sim time)""#), "{json}");
        assert!(json.contains(r#""host (wall time)""#), "{json}");
        assert!(json.contains(r#""name":"upload""#), "{json}");
        assert!(json.contains(r#""name":"kernel""#), "{json}");
        assert!(json.contains(r#""name":"build_table""#), "{json}");
        assert!(json.contains(r#""batches":"4""#), "{json}");
        assert!(json.contains(r#""ph":"M""#), "{json}");
        assert!(json.contains(r#""ph":"X""#), "{json}");
        assert!(json.contains(r#""displayTimeUnit":"ms""#), "{json}");
    }

    #[test]
    fn empty_recorder_exports_valid_skeleton() {
        let rec = Recorder::new();
        let json = export(&rec);
        assert!(json.contains(r#""traceEvents":["#), "{json}");
        // No pool profile ingested → no pool process in the trace.
        assert!(!json.contains("pool workers"), "{json}");
    }

    #[test]
    fn pool_lanes_export_under_their_own_pid() {
        use crate::{PoolTaskEvent, PoolWorkerLane};
        let rec = Recorder::new();
        rec.record_pool_lanes(
            500.0,
            vec![PoolWorkerLane {
                name: "rayon-worker-0".into(),
                tasks: 1,
                steals: 1,
                events: vec![PoolTaskEvent {
                    label: "par_iter",
                    start_us: 10.0,
                    dur_us: 120.0,
                    stolen: true,
                    queue_us: 3.0,
                }],
                ..Default::default()
            }],
        );
        let json = export(&rec);
        assert!(json.contains(r#""pool workers (wall time)""#), "{json}");
        assert!(json.contains(r#""rayon-worker-0""#), "{json}");
        assert!(json.contains(r#""cat":"pool""#), "{json}");
        assert!(json.contains(r#""stolen":true"#), "{json}");
        assert!(json.contains(&format!(r#""pid":{POOL_PID}"#)), "{json}");
    }
}
