//! The traced run (`--trace 1`): every per-layer metric of one
//! workload, from three sources, all read from the benchmark's side of
//! the engine's public API:
//!
//! * **(R)** the layer replay of [`crate::replay`];
//! * **(T)** one engine run with `ObsConfig.trace = true` — only the
//!   `FlightRecord` spans and registry the engine already emits are
//!   read. Its throughput against an untraced run of the same size is
//!   the tracing overhead;
//! * **(C)** exact counts from the untraced run's `StoreReport`.
//!
//! It also runs the replay's self-check: the recording pipeline must
//! ship exactly the engine's payload count (and within 1% of its batch
//! count) for the same script, which is the evidence that the
//! outside-in pipeline does the same work as the engine.

use crate::catalog::{metrics_object, PER_LAYER};
use crate::e2e::{median, out_dir, prepare, scaled, timed_round, Prepared, Round};
use crate::json::Value;
use crate::replay::{layer, replay, Replayed, REPLAY_EPOCHS};
use crate::workloads::{sequential_oracle, Base, BenchAdt, Workload, WORKERS};
use cbm_adt::counter::Counter;
use cbm_adt::register::Register;
use cbm_obs::SpanKind;
use cbm_store::{Mode, StoreReport};
use std::collections::HashMap;
use std::time::Instant;

/// The driver-facing result of a traced run.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub failure: Option<String>,
    /// Every [`PER_LAYER`] metric, in catalog order.
    pub values: Vec<(&'static str, f64)>,
}

impl Traced {
    pub fn metrics(&self) -> Value {
        metrics_object(&PER_LAYER, &self.values)
    }
}

pub fn traced_run(w: &'static Workload, seed: u64, seconds: f64, scale: usize) -> Traced {
    match w.base {
        Base::Register => traced_adt::<Register>(w, seed, seconds, scale),
        Base::Counter => traced_adt::<Counter>(w, seed, seconds, scale),
    }
}

/// Exact percentile (nearest rank) of a sample, 0 when empty.
fn percentile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

fn registry(r: &StoreReport, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The replay must have done the engine's work: compare it with an
/// engine run of the replay's own size.
fn self_check(p: &Prepared, small: &StoreReport, r: &Replayed) -> Result<(), String> {
    let s = &r.stats;
    if s.ops != small.total_ops {
        return Err(format!(
            "replay ran {} ops, engine {}",
            s.ops, small.total_ops
        ));
    }
    if s.payloads != small.payloads_sent {
        return Err(format!(
            "replay shipped {} payloads, engine {}",
            s.payloads, small.payloads_sent
        ));
    }
    if s.batches.abs_diff(small.batches_sent) * 100 > small.batches_sent {
        return Err(format!(
            "replay flushed {} batches, engine {} (more than 1% apart)",
            s.batches, small.batches_sent
        ));
    }
    if s.remote_reads != small.remote_reads {
        return Err(format!(
            "replay routed {} reads, engine {}",
            s.remote_reads, small.remote_reads
        ));
    }
    let h = &s.final_hashes;
    if p.workload.mode == Mode::Convergent && h.iter().any(|&x| x != h[0]) {
        return Err(format!("replayed convergent replicas diverged: {h:x?}"));
    }
    if let Some(o) = sequential_oracle(p.workload, &p.script, r.ops_per_worker) {
        if h.iter().any(|&x| x != o) {
            return Err(format!(
                "replayed replicas {h:x?} != sequential oracle {o:#x}"
            ));
        }
    }
    Ok(())
}

fn traced_adt<A: BenchAdt>(w: &'static Workload, seed: u64, seconds: f64, scale: usize) -> Traced {
    let (ops, every) = scaled(w, scale);
    let p = prepare::<A>(w, seed, ops, every);

    // untraced and traced full-size rounds in pairs for `seconds`; the
    // replay that follows is fixed work on top
    let start = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let (mut plain_report, mut traced_report) = (None, None);
    loop {
        // alternate which side of a pair runs first
        for trace in if plain.len().is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        } {
            let (r, report) = timed_round::<A>(&p, trace);
            eprintln!(
                "  {} round: {:>7.3} s  {:>12.0} ops/s",
                if trace { "traced  " } else { "untraced" },
                r.wall_s,
                r.ops_per_s
            );
            if trace {
                traced.push(r);
                traced_report = Some(report);
            } else {
                plain.push(r);
                plain_report = Some(report);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let (plain_report, traced_report) = (
        plain_report.expect("one untraced round ran"),
        traced_report.expect("one traced round ran"),
    );

    let replay_ops = REPLAY_EPOCHS * every;
    let small = p.run_engine::<A>(replay_ops, every, false);
    let t = Instant::now();
    let replayed = replay::<A>(w, &p.script, &p.map, seed, every, p.scratch.path());
    eprintln!(
        "  layer replay: {} ops/worker, {} spans, {:.2} s",
        replayed.ops_per_worker,
        replayed.log.spans.len(),
        t.elapsed().as_secs_f64()
    );
    // a pass's self time is what its replay spent outside the timed
    // blocks: cloning envelopes, and the other kinds' untimed calls
    let own = replayed.log.self_times();
    for s in replayed.log.spans.iter().filter(|s| s.parent == Some(0)) {
        eprintln!(
            "    pass {:<22} {:>9.3} ms, self {:>9.3} ms",
            s.layer,
            s.busy_ns as f64 / 1e6,
            own[s.id as usize] as f64 / 1e6
        );
    }
    let trace_path = out_dir().join(format!("trace-{}.jsonl", w.name));
    replayed
        .log
        .write_jsonl(&trace_path)
        .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));

    let per_round = (WORKERS * ops) as u64;
    let rounds = plain.iter().chain(&traced);
    let attempted = per_round * (plain.len() + traced.len()) as u64 + small.total_ops;
    let mut failed = per_round * rounds.clone().filter(|r| r.verdict.is_err()).count() as u64;
    let mut failure = rounds.clone().find_map(|r| r.verdict.clone().err());
    if let Err(e) = self_check(&p, &small, &replayed) {
        failed = attempted; // the layer numbers describe different work
        failure.get_or_insert(format!("replay self-check: {e}"));
    }

    let col = |rs: &[Round], f: fn(&Round) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    let values = assemble(
        &replayed,
        &plain_report,
        &traced_report,
        col(&plain, |r| r.ops_per_s),
        col(&traced, |r| r.ops_per_s),
        col(&plain, |r| r.cpu_ns_per_op),
    );
    Traced {
        attempted,
        failed,
        failure,
        values,
    }
}

/// Every per-layer metric, in catalog order.
fn assemble(
    r: &Replayed,
    plain: &StoreReport,
    traced: &StoreReport,
    plain_ops_per_s: f64,
    traced_ops_per_s: f64,
    cpu_ns_per_op: f64,
) -> Vec<(&'static str, f64)> {
    let per_call = |l: &str| r.log.total(l).ns_per_call(r.pair_ns);
    // replayed nanoseconds of a layer per op of the replayed script
    let per_op = |l: &str| r.log.total(l).net_ns(r.pair_ns) / r.stats.ops as f64;
    let calls = |l: &str| r.log.total(l).calls as f64;
    let ops = plain.total_ops as f64;
    let wall_workers = plain.wall_ns as f64 * WORKERS as f64;

    // (T) the engine's own spans
    let spans = traced.trace.as_ref().map_or(&[][..], |t| &t.spans[..]);
    let durs = |kind: SpanKind| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .collect()
    };
    let mut read_route = durs(SpanKind::ReadRoute);
    let mut drains = durs(SpanKind::Drain);
    let drain_ns: u64 = drains.iter().sum();
    // visibility lag: Deliver stamp − BatchFlush stamp of the same
    // envelope, matched on (sender, recipient, per-edge seq)
    let flushed: HashMap<(u32, i64, u64), u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::BatchFlush)
        .map(|s| ((s.worker, s.peer, s.logical), s.wall_ns))
        .collect();
    let mut lag: Vec<u64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Deliver)
        .filter_map(|s| {
            flushed
                .get(&(s.peer as u32, s.worker as i64, s.logical))
                .map(|&sent| s.wall_ns.saturating_sub(sent))
        })
        .collect();

    let envelopes_per_op = ratio(r.stats.envelopes as f64, r.stats.ops as f64);
    let objects = per_op(layer::OUTPUT)
        + per_op(layer::APPLY_CC)
        + per_op(layer::APPLY_CCV)
        + per_op(layer::COMPACT);
    let ccv = per_op(layer::APPLY_CCV) + per_op(layer::COMPACT);
    let shard = per_op(layer::ROUTE);
    // `execute` reads one clock pair and records one sample per op
    let obs = per_call(layer::CLOCK_PAIR) + per_call(layer::HIST);
    let broadcast = per_op(layer::PUSH) + per_op(layer::FLUSH) + per_op(layer::RECEIVE);
    // a stream's per-envelope time covers that transport's whole path
    // (for TCP: encode, frame, syscalls, deframe, decode)
    let socket_path = per_call(layer::TCP_STREAM) * envelopes_per_op;
    let thread_net = per_call(layer::THREAD_STREAM) * envelopes_per_op;
    let monitor = per_op(layer::MON_OWN) + per_op(layer::MON_FOLD);
    let durable = per_op(layer::LOG_OWN) + per_op(layer::LOG_BATCH) + per_op(layer::SEAL);
    let attributed =
        objects + shard + obs + broadcast + socket_path + thread_net + monitor + durable;

    let recovery = plain.chaos.recoveries.first();
    let us = 1e-3;
    vec![
        ("adt.output_ns", per_call(layer::OUTPUT)),
        ("store.objects.apply_cc_ns", per_call(layer::APPLY_CC)),
        ("store.objects.apply_ccv_ns", per_call(layer::APPLY_CCV)),
        ("store.objects.compact_ns", per_call(layer::COMPACT)),
        (
            "store.objects.refold_share",
            ratio(r.stats.refolds as f64, r.stats.applies as f64),
        ),
        ("store.shard.route_ns", per_call(layer::ROUTE)),
        ("obs.clock_pair_ns", r.pair_ns),
        ("obs.hist.record_ns", per_call(layer::HIST)),
        ("net.broadcast.push_ns", per_call(layer::PUSH)),
        ("net.broadcast.flush_ns", per_call(layer::FLUSH)),
        ("net.broadcast.receive_ns", per_call(layer::RECEIVE)),
        (
            "net.broadcast.direct_deliver_share",
            ratio(r.stats.direct as f64, r.stats.received as f64),
        ),
        ("net.broadcast.buffered_peak", r.stats.buffered_peak as f64),
        (
            "net.broadcast.payload_copies_per_op",
            registry(plain, "payload_copy_ops_total") / ops,
        ),
        ("net.broadcast.mean_batch", plain.mean_batch),
        ("net.msgs_per_op", plain.msgs_sent as f64 / ops),
        ("net.delta.wire_len_ns", per_call(layer::DELTA_LEN)),
        ("net.delta.encode_ns", per_call(layer::DELTA_ENC)),
        ("net.delta.decode_ns", per_call(layer::DELTA_DEC)),
        (
            "net.delta.header_bytes",
            ratio(r.header_bytes as f64, calls(layer::DELTA_LEN)),
        ),
        (
            "net.delta.header_bytes_per_op",
            registry(plain, "matrix_header_bytes_total") / ops,
        ),
        ("store.codec.encode_ns", per_call(layer::CODEC_ENC)),
        ("store.codec.decode_ns", per_call(layer::CODEC_DEC)),
        (
            "store.codec.bytes_per_op",
            r.codec_bytes as f64 / r.stats.ops as f64,
        ),
        ("net.tcp.frame_ns", per_call(layer::FRAME)),
        ("net.tcp.deframe_ns", per_call(layer::DEFRAME)),
        ("net.tcp.stream_ns", per_call(layer::TCP_STREAM)),
        ("net.thread_net.stream_ns", per_call(layer::THREAD_STREAM)),
        ("check.monitor.own_ns", per_call(layer::MON_OWN)),
        ("check.monitor.fold_ns", per_call(layer::MON_FOLD)),
        (
            "check.monitor.share",
            registry(plain, "monitor_ns") / wall_workers,
        ),
        (
            "check.monitor.ops_checked",
            plain.monitor.ops_checked as f64,
        ),
        ("check.monitor.folds", plain.monitor.folds as f64),
        (
            "check.monitor.escalations",
            plain.monitor.escalations as f64,
        ),
        ("store.durable.append_own_ns", per_call(layer::LOG_OWN)),
        ("store.durable.append_batch_ns", per_call(layer::LOG_BATCH)),
        ("store.durable.seal_us", per_call(layer::SEAL) * us),
        ("store.durable.snapshot_us", per_call(layer::SNAPSHOT) * us),
        (
            "store.durable.bytes_per_op",
            r.durable_bytes as f64 / r.stats.ops as f64,
        ),
        (
            "store.durable.log_bytes",
            recovery.map_or(0.0, |x| x.log_bytes as f64),
        ),
        (
            "store.durable.recover_ns_per_record",
            per_call(layer::RECOVER),
        ),
        (
            "store.durable.replayed_records",
            recovery.map_or(0.0, |x| x.replayed_records as f64),
        ),
        (
            "store.durable.recovery_ms",
            recovery.map_or(0.0, |x| x.sync_wall_ns as f64 / 1e6),
        ),
        (
            "store.engine.read_route_us_p50",
            percentile(&mut read_route, 0.50) * us,
        ),
        (
            "store.engine.read_route_us_p99",
            percentile(&mut read_route, 0.99) * us,
        ),
        ("store.engine.remote_reads", plain.remote_reads as f64),
        (
            "store.engine.visibility_lag_us_p50",
            percentile(&mut lag, 0.50) * us,
        ),
        (
            "store.engine.visibility_lag_us_p99",
            percentile(&mut lag, 0.99) * us,
        ),
        (
            "store.engine.drain_us_p50",
            percentile(&mut drains, 0.50) * us,
        ),
        (
            "store.engine.drain_share",
            drain_ns as f64 / (traced.wall_ns as f64 * WORKERS as f64),
        ),
        ("store.engine.drains", registry(plain, "drains_total")),
        (
            "store.engine.causal_buffer_peak",
            registry(plain, "causal_buffer_peak"),
        ),
        ("store.engine.nacks", plain.chaos.nacks as f64),
        ("store.engine.repairs", plain.chaos.repairs as f64),
        ("store.engine.op_p50_ns", plain.latency.p50_ns as f64),
        ("store.engine.op_p99_ns", plain.latency.p99_ns as f64),
        ("check.verify.windows", plain.windows.len() as f64),
        (
            "store.engine.trace_overhead_pct",
            (1.0 - traced_ops_per_s / plain_ops_per_s) * 100.0,
        ),
        ("store.objects.ns_per_op", objects),
        ("store.objects.ccv_ns_per_op", ccv),
        ("store.shard.ns_per_op", shard),
        ("obs.ns_per_op", obs),
        ("net.broadcast.ns_per_op", broadcast),
        ("net.socket_path.ns_per_op", socket_path),
        ("net.thread_net.ns_per_op", thread_net),
        ("check.monitor.ns_per_op", monitor),
        ("store.durable.ns_per_op", durable),
        ("store.engine.cpu_ns_per_op", cpu_ns_per_op),
        ("store.engine.attributed_ns_per_op", attributed),
        (
            "store.engine.unattributed_share",
            1.0 - attributed / cpu_ns_per_op,
        ),
    ]
}

/// Human-readable ledger of one traced run (stderr of `--trace 1`, and
/// the per-workload section of `all`).
pub fn render_ledger(w: &Workload, t: &Traced) -> String {
    use std::fmt::Write as _;
    let mut out = format!("per-layer metrics, {} (tracing on for T rows):\n", w.name);
    for (d, (_, v)) in PER_LAYER.iter().zip(&t.values) {
        let _ = writeln!(out, "  {:<40} {:>14.3} {}", d.name, v, d.unit);
    }
    out
}
