//! The metric catalog: every name the benchmark emits, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` lists
//! exactly these; `cbm-benchmark describe` prints them and a test
//! compares the two, so file and binary cannot drift.

use crate::json::Value;
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` = higher is better.
    pub higher: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher: true,
        bound: None,
    }
}

/// What a user of the store sees, per workload, tracing off; each is
/// the median over a run's rounds (`peak_rss_mb`: the process's).
pub const END_TO_END: [MetricDef; 5] = [
    // total_ops / wall of the run / run_tcp call
    e2e("ops_per_s", "ops/s", true, 0.25),
    // process user+sys CPU over the call / total_ops
    e2e("cpu_ns_per_op", "ns", false, 0.25),
    // bytes_sent / total_ops
    e2e("wire_bytes_per_op", "bytes", false, 0.02),
    // VmHWM of the measuring process
    e2e("peak_rss_mb", "MB", false, 0.25),
    // everything before the timed call (median of several set-ups)
    e2e("setup_s", "s", false, 0.25),
];

/// Single-layer metrics of the traced run. Source: (R) layer replay,
/// (T) the engine's own flight-recorder spans, (C) exact counts of an
/// untraced run's report. A layer the workload bypasses reports 0.
pub const PER_LAYER: [MetricDef; 70] = [
    // R: store.objects + the base type's λ, store.shard, obs
    lower("adt.output_ns", "ns"),
    lower("store.objects.apply_cc_ns", "ns"),
    lower("store.objects.apply_ccv_ns", "ns"),
    lower("store.objects.compact_ns", "ns"),
    lower("store.objects.refold_share", "ratio"),
    lower("store.shard.route_ns", "ns"),
    lower("obs.clock_pair_ns", "ns"),
    lower("obs.hist.record_ns", "ns"),
    // R + C: net.broadcast
    lower("net.broadcast.push_ns", "ns"),
    lower("net.broadcast.flush_ns", "ns"),
    lower("net.broadcast.receive_ns", "ns"),
    higher("net.broadcast.direct_deliver_share", "ratio"),
    lower("net.broadcast.buffered_peak", "count"),
    lower("net.broadcast.payload_copies_per_op", "count"),
    higher("net.broadcast.mean_batch", "count"),
    lower("net.msgs_per_op", "count"),
    // R + C: net.delta
    lower("net.delta.wire_len_ns", "ns"),
    lower("net.delta.encode_ns", "ns"),
    lower("net.delta.decode_ns", "ns"),
    lower("net.delta.header_bytes", "bytes"),
    lower("net.delta.header_bytes_per_op", "bytes"),
    // R: the socket path, and the in-process transport it replaces
    lower("store.codec.encode_ns", "ns"),
    lower("store.codec.decode_ns", "ns"),
    lower("store.codec.bytes_per_op", "bytes"),
    lower("net.tcp.frame_ns", "ns"),
    lower("net.tcp.deframe_ns", "ns"),
    lower("net.tcp.stream_ns", "ns"),
    lower("net.thread_net.stream_ns", "ns"),
    // R + C: check.monitor
    lower("check.monitor.own_ns", "ns"),
    lower("check.monitor.fold_ns", "ns"),
    lower("check.monitor.share", "ratio"),
    lower("check.monitor.ops_checked", "count"),
    lower("check.monitor.folds", "count"),
    lower("check.monitor.escalations", "count"),
    // R + C: store.durable
    lower("store.durable.append_own_ns", "ns"),
    lower("store.durable.append_batch_ns", "ns"),
    lower("store.durable.seal_us", "us"),
    lower("store.durable.snapshot_us", "us"),
    lower("store.durable.bytes_per_op", "bytes"),
    lower("store.durable.log_bytes", "bytes"),
    lower("store.durable.recover_ns_per_record", "ns"),
    lower("store.durable.replayed_records", "count"),
    lower("store.durable.recovery_ms", "ms"),
    // T + C: store.engine
    lower("store.engine.read_route_us_p50", "us"),
    lower("store.engine.read_route_us_p99", "us"),
    lower("store.engine.remote_reads", "count"),
    lower("store.engine.visibility_lag_us_p50", "us"),
    lower("store.engine.visibility_lag_us_p99", "us"),
    lower("store.engine.drain_us_p50", "us"),
    lower("store.engine.drain_share", "ratio"),
    lower("store.engine.drains", "count"),
    lower("store.engine.causal_buffer_peak", "count"),
    lower("store.engine.nacks", "count"),
    lower("store.engine.repairs", "count"),
    lower("store.engine.op_p50_ns", "ns"),
    lower("store.engine.op_p99_ns", "ns"),
    higher("check.verify.windows", "count"),
    lower("store.engine.trace_overhead_pct", "%"),
    // R: replayed nanoseconds per op, by layer group — what an
    // optimisation of the group can at most save
    lower("store.objects.ns_per_op", "ns"),
    lower("store.objects.ccv_ns_per_op", "ns"),
    lower("store.shard.ns_per_op", "ns"),
    lower("obs.ns_per_op", "ns"),
    lower("net.broadcast.ns_per_op", "ns"),
    lower("net.socket_path.ns_per_op", "ns"),
    lower("net.thread_net.ns_per_op", "ns"),
    lower("check.monitor.ns_per_op", "ns"),
    lower("store.durable.ns_per_op", "ns"),
    // R + C: engine CPU the replayed layers do not explain
    lower("store.engine.cpu_ns_per_op", "ns"),
    lower("store.engine.attributed_ns_per_op", "ns"),
    lower("store.engine.unattributed_share", "ratio"),
];

fn better(m: &MetricDef) -> Value {
    Value::str(if m.higher { "higher" } else { "lower" })
}

/// The `workloads`, `end_to_end` and `per_layer` lists, in
/// `BENCHMARK.json`'s own shape.
pub fn describe() -> Value {
    Value::obj([
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", better(m)),
                            ("bound", Value::Num(m.bound.expect("end-to-end bound"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Render named values as the driver's `metrics` object, checking
/// that they are exactly `defs` (a metric that is missing, extra or
/// not a finite number is a bug in the benchmark).
pub fn metrics_object(defs: &[MetricDef], values: &[(&'static str, f64)]) -> Value {
    assert_eq!(
        defs.iter().map(|d| d.name).collect::<Vec<_>>(),
        values.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "emitted metrics differ from the catalog"
    );
    Value::obj(defs.iter().zip(values).map(|(d, (_, v))| {
        assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
        (
            d.name,
            Value::obj([("value", Value::Num(*v)), ("unit", Value::str(d.unit))]),
        )
    }))
}
