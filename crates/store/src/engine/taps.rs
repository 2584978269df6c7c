//! The tap seam: everything that *watches* the Fig. 4/5 handlers.
//!
//! [`Taps`] owns the streaming monitor, the flight recorder, the
//! durable epoch log with its retention buffers, the sampled-window
//! recorder and the latency histograms, and is told about each engine
//! event **once**: an own op, a served read, a flush, a delivered batch
//! and each op in it, a nack or repair, a cut, an epoch seal, a
//! recovery install. The handlers in `worker.rs` never name an
//! attachment; with every attachment off each tap is a handful of
//! not-taken branches — the per-op taps are `#[inline(always)]` so
//! those branches sit in the handler itself, as they did when the
//! attachments were written out there (left to the inliner they
//! became calls, and `read_local` paid ~3% for them).
//!
//! It is one concrete struct on purpose — there is exactly one set of
//! attachments today. A new observer is a field here plus a line in
//! the taps whose events it cares about (`docs/ARCHITECTURE.md`,
//! "Where to attach a new observer"); a trait can arrive with the
//! second implementation (the deterministic simulator).
//!
//! Within a tap the order is fixed — durable log, retention buffers,
//! monitor, window recorder — so a record is on its way to disk before
//! anything derived from it is computed. Trace spans sort by logical
//! key when their epoch seals, so span emission order inside an epoch
//! never reaches the timeline.
//!
//! Every [`EpochLog`] call lives in this file, and so does every disk
//! `expect`: the log is the durability contract, so a failed append or
//! fsync stops the worker rather than let it run ahead of its disk.
//!
//! So does the op path's **clock**: the handlers never read one. They
//! ask [`Taps::op_start`] whether this op is timed and hand the answer
//! back to [`Taps::op_done`]; every reading this file takes goes
//! through [`now`], the seam a simulated clock would replace. Which
//! ops are timed, and with what weight they enter the latency
//! histogram, is `sampler.rs`.

use super::sampler::OpSampler;
use crate::chaos::CrashSpan;
use crate::config::StoreConfig;
use crate::durable::{self, EpochLog, LogCounts, LogError, Recovered, SealInfo};
use crate::objects::{slot_of, ObjectTable};
use crate::record::{OwnEvent, WindowRecord, WindowRecorder};
use crate::shard::ShardMap;
use crate::stats::{LatencySummary, MonitorEscalation};
use crate::wire::{BatchMsg, WireOp};
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_check::monitor::{Escalation, Monitor, MonitorStats, Stamp};
use cbm_check::Verdict;
use cbm_net::broadcast::InterestBatchCausalBroadcast;
use cbm_net::chaos::ChaosEvent;
use cbm_net::clock::Timestamp;
use cbm_net::NodeId;
use cbm_obs::trace::TraceConfig;
use cbm_obs::{AtomicHistogram, EpochTracer, LatencyHistogram, Span, SpanKind};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Instant;

/// Ops retained for one crashed worker's disk-based tail fetch: from
/// its crash cut (where its own log replay lands) to its recovery
/// boundary, this helper records every op it applies to the shards it
/// was elected to serve, so the recoverer can fetch just the delta
/// instead of a full state transfer (`docs/DURABILITY.md`).
struct RetainBuf<I> {
    /// The crashed worker this buffer serves.
    for_worker: NodeId,
    /// `(shard, ops applied to it since the crash cut, apply order)`.
    ops: Vec<(u32, Vec<WireOp<I>>)>,
}

/// What the attachments hand back when a worker finishes.
pub(super) struct TapReport {
    /// Sealed trace spans plus the count truncated away by the caps.
    pub trace: (Vec<Span>, u64),
    /// Streaming-monitor counters (zero when the monitor is off).
    pub monitor: MonitorStats,
    /// Estimated wall time in monitor hooks (strided sample).
    pub monitor_ns: u64,
    /// Every monitor escalation this worker recorded, in op order.
    pub escalations: Vec<MonitorEscalation>,
    /// This worker's operation latency profile.
    pub latency: LatencySummary,
}

/// The engine's one clock reading.
#[inline(always)]
pub(super) fn now() -> Instant {
    Instant::now()
}

/// Nanoseconds since `t`.
#[inline(always)]
pub(super) fn ns_since(t: Instant) -> u64 {
    now().duration_since(t).as_nanos() as u64
}

/// A span stamped with its lane, epoch, logical key and wall offset;
/// the caller fills in what the kind uses. The one place the engine
/// (worker lanes and the verifier lane alike) builds a span.
pub(super) fn new_span(kind: SpanKind, lane: u32, epoch: u64, key: u64, wall_ns: u64) -> Span {
    let mut sp = Span::new(kind, lane, epoch, key);
    sp.wall_ns = wall_ns;
    sp
}

/// One worker's attachments (see the [module docs](self)).
pub(super) struct Taps<'a, T: Adt> {
    me: NodeId,
    adt: &'a T,
    cfg: &'a StoreConfig,
    map: &'a ShardMap,
    /// The run's shared start instant; span wall stamps are offsets
    /// from it so all lanes share one timeline.
    t0: Instant,
    /// Inline streaming monitor (`None` unless `verify.monitor`): CC
    /// certifies against a delivery-order shadow fold, CCv against an
    /// independent Lamport-arbitrated one.
    monitor: Option<Monitor<T>>,
    /// Monitor hook call counter (timing stride).
    mon_tick: u64,
    /// Estimated nanoseconds in monitor hooks: every 64th call is
    /// timed and scaled, so steady state pays two `Instant::now()`s
    /// per 64 folds instead of per fold. An estimate, like every other
    /// wall-clock series.
    mon_ns: u64,
    escalations: Vec<MonitorEscalation>,
    /// Does the current epoch follow a crash-recovery state transfer?
    /// Recorded on escalations: their windows are then anchored on the
    /// installed recovery states, the streaming analogue of the
    /// `spans_recovery` anchoring sampled windows get in `record.rs`.
    epoch_spans_recovery: bool,
    tracer: EpochTracer,
    /// The epoch whose spans the worker is currently recording; spans
    /// created during a boundary drain still belong to the epoch the
    /// drain closes.
    epoch: u64,
    /// Durable epoch log appender (`Some` when `durable.log_dir` is
    /// set): own-op and delivered-batch records gather in its group
    /// commit, each drain cut seals with a write and an fsync, boundary
    /// seals snapshot-compact on the configured cadence. See
    /// `docs/DURABILITY.md`.
    dlog: Option<EpochLog>,
    /// The per-run log directory (recovery replays from it).
    dlog_dir: Option<PathBuf>,
    /// Active retention buffers: one per crash span this worker is an
    /// elected delta helper for.
    retain: Vec<RetainBuf<T::Input>>,
    recorder: WindowRecorder<T>,
    tx: mpsc::Sender<WindowRecord<T>>,
    /// Cumulative operation latency profile.
    hist: LatencyHistogram,
    /// Latencies since the last epoch close; merged into `hist` and
    /// the shared registry histogram at each one.
    hist_epoch: LatencyHistogram,
    /// Which local ops are timed, and the weight each enters
    /// `hist_epoch` with.
    sampler: OpSampler,
    /// No local op before this index gets an `op` span (`u64::MAX`
    /// when none ever does): one compare per op instead of a division
    /// by the tracer's stride.
    next_span: u64,
}

impl<'a, T> Taps<'a, T>
where
    T: Adt + Clone,
    T::Input: Wire,
    T::State: Wire,
{
    pub(super) fn new(
        adt: &'a T,
        cfg: &'a StoreConfig,
        map: &'a ShardMap,
        me: NodeId,
        tracing: bool,
        tx: mpsc::Sender<WindowRecord<T>>,
        t0: Instant,
    ) -> Self {
        let objects = cfg.objects.max(1);
        let dlog_dir = cfg.durable.log_dir.as_ref().map(PathBuf::from);
        // resume keeps the on-disk log/snapshot (the restart replays
        // them); every other run starts from truncated files
        let dlog = dlog_dir.as_ref().map(|d| {
            EpochLog::open(d, me, !cfg.durable.resume).expect("open the durable epoch log")
        });
        let monitor = cfg
            .verify
            .monitor
            .then(|| Monitor::new(adt.clone(), cfg.mode, objects, cfg.workers.max(1), me));
        Taps {
            me,
            adt,
            cfg,
            map,
            t0,
            monitor,
            mon_tick: 0,
            mon_ns: 0,
            escalations: Vec::new(),
            epoch_spans_recovery: false,
            tracer: EpochTracer::new(
                tracing,
                TraceConfig {
                    cap_per_kind: cfg.obs.epoch_cap,
                },
            ),
            epoch: 0,
            dlog,
            dlog_dir,
            retain: Vec::new(),
            recorder: WindowRecorder::new(),
            tx,
            hist: LatencyHistogram::new(),
            hist_epoch: LatencyHistogram::new(),
            sampler: OpSampler::new(me),
            next_span: if tracing && cfg.obs.op_sample_every > 0 {
                0
            } else {
                u64::MAX
            },
        }
    }

    /// When tracing: how many fault events the chaos endpoint should
    /// buffer between epoch seals (faults become trace events; the
    /// buffer drains at every seal, so the cap is effectively per
    /// epoch).
    pub(super) fn fault_event_cap(&self) -> Option<usize> {
        self.tracer.enabled().then(|| match self.cfg.obs.epoch_cap {
            0 => usize::MAX,
            cap => cap.saturating_mul(4),
        })
    }

    /// Is a durable log attached?
    pub(super) fn logging(&self) -> bool {
        self.dlog.is_some()
    }

    /// The durable log's cumulative counts (zero without a log).
    pub(super) fn log_counts(&self) -> LogCounts {
        self.dlog.as_ref().map(|l| l.counts).unwrap_or_default()
    }

    /// Streaming-monitor counters (sealed into every durable cut).
    pub(super) fn monitor_stats(&self) -> MonitorStats {
        self.monitor
            .as_ref()
            .map(Monitor::stats)
            .unwrap_or_default()
    }

    // ---- spans -------------------------------------------------------

    /// Record a span of `kind` with logical key `key`, stamped with
    /// this worker, the current epoch and a wall offset: `over` gives
    /// a measured `(start, duration)`, otherwise the stamp is "now".
    /// `fill` runs only when tracing is on.
    #[inline]
    fn span_at(
        &mut self,
        kind: SpanKind,
        key: u64,
        over: Option<(Instant, u64)>,
        fill: impl FnOnce(&mut Span),
    ) {
        if !self.tracer.enabled() {
            return;
        }
        let wall = over.map_or_else(now, |(t, _)| t).duration_since(self.t0);
        let mut sp = new_span(
            kind,
            self.me as u32,
            self.epoch,
            key,
            wall.as_nanos() as u64,
        );
        // a measured span is never an instant in the export, whatever
        // the clock's resolution (`trace_check` holds `op` and
        // `read_route` spans to that)
        sp.dur_ns = over.map_or(0, |(_, dur)| dur.max(1));
        fill(&mut sp);
        self.tracer.push(sp);
    }

    /// An instantaneous span (see [`Taps::span_at`]).
    #[inline]
    fn span(&mut self, kind: SpanKind, key: u64, fill: impl FnOnce(&mut Span)) {
        self.span_at(kind, key, None, fill);
    }

    /// Are `batch_flush`/`deliver` spans being recorded at all?
    fn trace_batches(&self) -> bool {
        self.tracer.enabled() && self.cfg.obs.batch_sample_every > 0
    }

    /// Deterministic envelope-span sampling: strided on the per-edge
    /// seq, so the flush and deliver halves of an envelope always
    /// sample together and the sampled set reproduces across runs.
    fn sample_batch(&self, seq: u64) -> bool {
        let stride = self.cfg.obs.batch_sample_every as u64;
        stride > 0 && seq.is_multiple_of(stride)
    }

    // ---- the monitor, once -------------------------------------------

    /// Run one monitor hook on `obj`'s shadow slot, under the strided
    /// timer, and record the escalation if it raises one. `at_op` is
    /// this worker's op counter, an escalation's deterministic stamp.
    #[inline(always)]
    fn certify(
        &mut self,
        at_op: u64,
        obj: u32,
        hook: impl FnOnce(&mut Monitor<T>, u32) -> Option<Escalation>,
    ) {
        let Some(monitor) = self.monitor.as_mut() else {
            return;
        };
        // the monitor keeps each object's shadow in its table slot
        let slot = slot_of(obj, self.cfg.objects.max(1)) as u32;
        self.mon_tick = self.mon_tick.wrapping_add(1);
        let t = (self.mon_tick & 63 == 0).then(now);
        let esc = hook(monitor, slot);
        if let Some(t) = t {
            self.mon_ns += ns_since(t) << 6;
        }
        if let Some(esc) = esc {
            self.note_escalation(at_op, obj, esc);
        }
    }

    /// Record one monitor escalation: report row + `monitor_escalate`
    /// trace span.
    fn note_escalation(&mut self, at_op: u64, obj: u32, esc: Escalation) {
        let confirmed = esc.confirmed();
        let shard = self.map.shard_of(obj) as i64;
        self.span(SpanKind::MonitorEscalate, at_op, |sp| {
            sp.shard = shard;
            sp.a = esc.pattern.code();
            sp.b = esc.events as u64;
            sp.flag = confirmed;
        });
        self.escalations.push(MonitorEscalation {
            worker: self.me,
            epoch: self.epoch,
            at_op,
            obj: Some(obj),
            pattern: esc.pattern.name(),
            events: esc.events,
            confirmed,
            verdict: match esc.verdict {
                Verdict::Sat => "sat",
                Verdict::Unsat => "unsat",
                Verdict::Unknown => "unknown",
            },
            spans_recovery: self.epoch_spans_recovery,
            detail: esc.witness.err().unwrap_or_default(),
        });
    }

    /// Record one applied update into every active retention buffer
    /// whose served shards include the op's shard — the material of a
    /// crashed worker's disk-recovery delta fetch.
    fn retain_op(&mut self, obj: u32, ts: Timestamp, input: &T::Input) {
        let shard = self.map.shard_of(obj) as u32;
        for buf in self.retain.iter_mut() {
            if let Some((_, ops)) = buf.ops.iter_mut().find(|(s, _)| *s == shard) {
                ops.push(WireOp {
                    obj,
                    input: input.clone(),
                    ts,
                    wseq: None,
                });
            }
        }
    }

    // ---- events from the handlers ------------------------------------

    /// An own operation was applied locally (Fig. 4/5 "on update", and
    /// local queries). Returns the op's sampled-window tag.
    #[inline(always)]
    pub(super) fn own_op(
        &mut self,
        at_op: u64,
        obj: u32,
        ts: Timestamp,
        input: &T::Input,
        output: T::Output,
        is_update: bool,
    ) -> Option<u32> {
        if is_update {
            if let Some(log) = self.dlog.as_mut() {
                // reads are pure and replay from state; only the
                // applied update needs a log record
                log.log_own(obj, ts, input)
                    .expect("append an own-update record");
            }
            if !self.retain.is_empty() {
                self.retain_op(obj, ts, input);
            }
        }
        // certify the output against the shadow state (queries) and
        // fold the update in; any mismatch escalates to the exact
        // checkers right here, on the implicated window
        self.certify(at_op, obj, |m, slot| {
            m.on_own(slot, input, &output, ts.time)
        });
        self.recorder.on_own(
            self.me,
            OwnEvent {
                obj,
                input: input.clone(),
                output,
                ts,
            },
        )
    }

    /// Does local op `at_op` get an `op` span? A deterministic stride
    /// of the worker's own op counter.
    fn traces_op(&self, at_op: u64) -> bool {
        let stride = self.cfg.obs.op_sample_every as u64;
        self.tracer.enabled() && stride > 0 && at_op.is_multiple_of(stride)
    }

    /// `at_op` reached `next_span` (so op spans are on): decide it, and
    /// find the stride's next multiple.
    #[cold]
    fn arm_span(&mut self, at_op: u64) -> bool {
        let stride = self.cfg.obs.op_sample_every as u64;
        self.next_span = (at_op / stride + 1) * stride;
        at_op.is_multiple_of(stride)
    }

    /// Local operation `at_op` is about to execute: its start instant
    /// if it is timed — its block's latency sample, or an op the tracer
    /// samples (timed for the span only) — else `None`, which is what
    /// all but one op in 64 get, for two compares.
    #[inline(always)]
    pub(super) fn op_start(&mut self, at_op: u64) -> Option<Instant> {
        let sampled = self.sampler.due(at_op, &mut self.hist_epoch);
        let traced = at_op >= self.next_span && self.arm_span(at_op);
        (sampled || traced).then(now)
    }

    /// Local operation `at_op` is complete; `t` is what
    /// [`Taps::op_start`] answered for it.
    #[inline(always)]
    pub(super) fn op_done(&mut self, t: Option<Instant>, at_op: u64, obj: u32, is_update: bool) {
        if let Some(t) = t {
            self.op_timed(t, at_op, obj, is_update);
        }
    }

    /// The timed minority of [`Taps::op_done`]: latency sample and/or
    /// `op` span.
    fn op_timed(&mut self, t: Instant, at_op: u64, obj: u32, is_update: bool) {
        let lat = ns_since(t);
        if self.sampler.is_sample(at_op) {
            self.sampler.sampled(lat);
        }
        if self.traces_op(at_op) {
            let shard = self.map.shard_of(obj) as i64;
            self.span_at(SpanKind::Op, at_op, Some((t, lat)), |sp| {
                sp.shard = shard;
                sp.a = obj as u64;
                sp.flag = is_update;
            });
        }
    }

    /// A routed read is about to leave: always timed.
    pub(super) fn read_start(&self) -> Instant {
        now()
    }

    /// A routed read of `obj` that started at `t` was answered by
    /// `server`. Routed reads enter the latency histogram one by one,
    /// outside the sampled blocks.
    pub(super) fn read_routed(
        &mut self,
        t: Instant,
        at_op: u64,
        obj: u32,
        shard: usize,
        server: NodeId,
    ) {
        let lat = ns_since(t);
        self.sampler.routed(at_op, &mut self.hist_epoch);
        self.hist_epoch.record(lat);
        self.span_at(SpanKind::ReadRoute, at_op, Some((t, lat)), |sp| {
            sp.peer = server as i64;
            sp.shard = shard as i64;
            sp.a = obj as u64;
        });
    }

    /// This worker answered a peer's routed read. Routed reads are
    /// certified where they are answered: the issuer has no replica
    /// (and no shadow) of the shard, the server has both — summed
    /// across workers this is what closes the 100%-of-ops accounting
    /// under partial replication.
    #[inline(always)]
    pub(super) fn served_read(
        &mut self,
        at_op: u64,
        obj: u32,
        input: &T::Input,
        output: &T::Output,
    ) {
        self.certify(at_op, obj, |m, slot| m.on_served_read(slot, input, output));
    }

    /// One flush's stamped envelopes are about to be sent. A
    /// `batch_flush` span carries the sender's knowledge as it stood
    /// *before* the flush, so every matching `deliver` span's
    /// (post-stamp) clock dominates it — reconstructed from the
    /// post-flush matrix by undoing the per-edge send increments, so
    /// unsampled flushes never pay for the matrix clone.
    pub(super) fn flushed(
        &mut self,
        envs: &[(NodeId, BatchMsg<T::Input>)],
        proto: &InterestBatchCausalBroadcast<WireOp<T::Input>>,
    ) {
        if !self.trace_batches() || !envs.iter().any(|(_, e)| self.sample_batch(e.seq)) {
            return;
        }
        let n = self.cfg.workers.max(1);
        let mut vc = proto.knowledge();
        for (to, _) in envs {
            vc[self.me * n + *to] -= 1;
        }
        for (to, env) in envs {
            if self.sample_batch(env.seq) {
                self.span(SpanKind::BatchFlush, env.seq, |sp| {
                    sp.peer = *to as i64;
                    sp.a = env.payload.len() as u64;
                    sp.vc = vc.clone();
                });
            }
        }
    }

    /// The causal layer delivered `batch` (Fig. 4/5 "on delivery"),
    /// before its ops are applied.
    #[inline(always)]
    pub(super) fn delivered(
        &mut self,
        batch: &BatchMsg<T::Input>,
        proto: &InterestBatchCausalBroadcast<WireOp<T::Input>>,
    ) {
        if let Some(log) = self.dlog.as_mut() {
            // one record per causally-delivered batch: replay
            // re-applies it in the same delivery order
            log.log_batch(batch.sender, batch.seq, &batch.payload)
                .expect("append a delivered-batch record");
        }
        if self.trace_batches() && self.sample_batch(batch.seq) {
            self.span(SpanKind::Deliver, batch.seq, |sp| {
                sp.peer = batch.sender as i64;
                sp.a = batch.payload.len() as u64;
                // envelopes carry only knowledge *deltas*, so the span
                // stamps the receiver's post-fold knowledge snapshot
                // instead: it dominates the envelope's full matrix
                // (the fold just merged it in), so it still dominates
                // the matching flush span's pre-flush clock — the
                // pairing invariant the trace checker verifies
                sp.vc = proto.knowledge();
            });
        }
    }

    /// One op of a delivered batch was applied. `at_op` is the
    /// worker's op counter, the stamp of any escalation it raises.
    #[inline(always)]
    pub(super) fn delivered_op(&mut self, at_op: u64, sender: NodeId, op: &WireOp<T::Input>) {
        self.certify(at_op, op.obj, |m, slot| {
            m.on_delivered(slot, &op.input, Stamp::new(op.ts.time, op.ts.pid))
        });
        self.recorder.on_remote(sender, op.wseq);
        if !self.retain.is_empty() {
            self.retain_op(op.obj, op.ts, &op.input);
        }
    }

    /// Half of a nack/repair exchange on the edge to `peer`: the nack
    /// (`repaired = None`) or the repair answering it with that many
    /// envelopes. Both halves carry the logical `key` (drain number ×
    /// cluster + the peer).
    pub(super) fn nack_repair(&mut self, key: u64, peer: NodeId, repaired: Option<usize>) {
        self.span(SpanKind::NackRepair, key, |sp| {
            sp.peer = peer as i64;
            sp.a = repaired.unwrap_or(0) as u64;
            sp.flag = repaired.is_some();
        });
    }

    /// This worker's schedule crashes it at the cut the boundary drain
    /// of epoch `e` is about to establish.
    pub(super) fn crashed(&mut self, e: u64) {
        self.span(SpanKind::Crash, e, |_| {});
    }

    /// Drain number `drain` (started at `t`) is complete everywhere.
    /// A `live` drain with a log attached passes the cut's `seal`: it
    /// goes to disk with one fsync — the cut, not the record append,
    /// is the durability unit — and compacts into a snapshot when the
    /// boundary cadence says so. A crashed worker's discard-drain
    /// writes nothing (its log stays frozen at the crash cut).
    pub(super) fn cut(
        &mut self,
        t: Instant,
        drain: u64,
        live: bool,
        (delivered, nacks): (u64, u64),
        seal: Option<SealInfo>,
        table: &ObjectTable<T>,
    ) {
        if let (Some(log), Some(seal)) = (self.dlog.as_mut(), &seal) {
            let compact = log
                .seal(seal, self.cfg.durable.snapshot_every)
                .expect("seal the epoch log");
            if compact {
                log.snapshot(seal, &table.snapshot())
                    .expect("write the epoch-log snapshot");
            }
        }
        let dur = ns_since(t);
        self.span_at(SpanKind::Drain, drain, Some((t, dur)), |sp| {
            sp.a = delivered; // cumulative at the cut
            sp.b = nacks;
            sp.flag = live;
        });
    }

    /// Convert the chaos endpoint's buffered fault events into `fault`
    /// spans and seal every epoch up to and including `epoch` —
    /// arrival order no longer matters after this, which is what makes
    /// the retained span set deterministic.
    pub(super) fn seal_epoch(&mut self, epoch: u64, faults: Vec<ChaosEvent>, every_ops: u64) {
        for ev in faults {
            self.span(SpanKind::Fault, ev.vtime, |sp| {
                sp.epoch = ev.vtime / every_ops;
                sp.peer = ev.to as i64;
                sp.a = ev.kind.code();
            });
        }
        self.tracer.seal(epoch);
    }

    /// An epoch closed with `issued` ops issued so far: enter the
    /// sampled blocks' outstanding weight, then merge the epoch's
    /// latency buckets into the worker's profile and the shared
    /// registry histogram.
    pub(super) fn merge_latency(&mut self, issued: u64, shared: &AtomicHistogram) {
        self.sampler.settle(issued, &mut self.hist_epoch);
        let eh = std::mem::replace(&mut self.hist_epoch, LatencyHistogram::new());
        shared.merge_from(&eh);
        self.hist.merge(&eh);
    }

    /// Spans and escalations from here on belong to epoch `e`, which
    /// opened at a drain that did (`spans_recovery`) or did not run a
    /// recovery transfer.
    pub(super) fn open_epoch(&mut self, e: u64, spans_recovery: bool) {
        self.epoch = e;
        self.epoch_spans_recovery = spans_recovery;
    }

    /// At a global drain every future stamp exceeds every folded one,
    /// so the monitor's shadow rings compact into their seeds.
    pub(super) fn compacted(&mut self) {
        if let Some(m) = self.monitor.as_mut() {
            m.on_drain();
        }
    }

    // ---- sampled windows ---------------------------------------------

    /// Start recording window `wid` from the drained `snapshot`.
    pub(super) fn open_window(
        &mut self,
        wid: u64,
        quota: usize,
        snapshot: Vec<T::State>,
        spans_recovery: bool,
    ) {
        self.recorder.start(wid, quota, snapshot, spans_recovery);
    }

    /// This worker sits window `wid` out, crashed: send the verifier
    /// its placeholder.
    pub(super) fn crashed_window(&mut self, wid: u64) {
        let _ = self.tx.send(WindowRecord::crashed(self.me, wid));
    }

    /// The open window (if any) is closed everywhere: hand the record
    /// to the verifier. A failed channel send only means the verifier
    /// died; that surfaces at join time, not here.
    pub(super) fn close_window(&mut self) {
        if self.recorder.active() {
            let _ = self.tx.send(self.recorder.finish(self.me));
        }
    }

    // ---- recovery ----------------------------------------------------

    /// Replay this worker's own snapshot + log tail, exactly as a
    /// process restart would. `None` without a log directory.
    pub(super) fn replay(&self) -> Option<Result<Recovered<T>, LogError>> {
        let dir = self.dlog_dir.as_ref()?;
        let objects = self.cfg.objects.max(1);
        Some(durable::recover::<T>(
            self.adt,
            dir,
            self.me,
            objects,
            self.cfg.mode,
        ))
    }

    /// Wipe this worker's log files, so a fresh run does not append
    /// onto a stale prefix.
    pub(super) fn wipe_log(&mut self) {
        if let Some(dir) = &self.dlog_dir {
            self.dlog =
                Some(EpochLog::open(dir, self.me, true).expect("reopen the epoch log fresh"));
        }
    }

    /// Continue the monitor's counters from a persisted cut (durable
    /// restart).
    pub(super) fn seed_monitor_stats(&mut self, s: MonitorStats) {
        if let Some(m) = self.monitor.as_mut() {
            m.seed_stats(s);
        }
    }

    /// `table` now holds a recovered cut: restart the attachments from
    /// it. Each hosted slot's monitor shadow restarts at the installed
    /// state with an empty ring — so no post-recovery escalation can
    /// rebuild a window containing pre-crash placeholder events — and
    /// the per-origin frontier re-arms. With a log attached (`seal`),
    /// the cut is compacted into a fresh snapshot: the log prefix it
    /// replaces is gone (or froze at a crash cut, leaving a gap the
    /// log can never describe), so appending resumes from a sound base
    /// and a later restart replays only this.
    pub(super) fn adopt_cut(&mut self, table: &ObjectTable<T>, seal: Option<SealInfo>) {
        if let Some(m) = self.monitor.as_mut() {
            for &s in self.map.hosted(self.me) {
                let states = table.shard_snapshot(self.map.slots_of(s));
                for (slot, st) in self.map.slots_of(s).zip(states.iter()) {
                    m.install_slot(slot, st);
                }
            }
            m.resync();
        }
        if let (Some(log), Some(seal)) = (self.dlog.as_mut(), seal) {
            log.snapshot(&seal, &table.snapshot())
                .expect("snapshot the recovered cut");
        }
    }

    /// This worker finished recovering `span` (started at `t`).
    pub(super) fn recovered(&mut self, t: Instant, span: &CrashSpan, shards: u64, objects: u64) {
        let dur = ns_since(t);
        self.span_at(
            SpanKind::Recover,
            span.recover_epoch,
            Some((t, dur)),
            |sp| {
                sp.peer = span.helper as i64;
                sp.a = shards;
                sp.b = objects;
            },
        );
    }

    /// Start retaining the ops this worker applies to `shards`, for
    /// `worker`'s disk-recovery delta fetch.
    pub(super) fn retain_for(&mut self, worker: NodeId, shards: Vec<u32>) {
        self.retain.push(RetainBuf {
            for_worker: worker,
            ops: shards.into_iter().map(|s| (s, Vec::new())).collect(),
        });
    }

    /// Stop retaining for `worker` and hand over what accumulated.
    #[allow(clippy::type_complexity)]
    pub(super) fn take_retained(
        &mut self,
        worker: NodeId,
    ) -> Option<Vec<(u32, Vec<WireOp<T::Input>>)>> {
        let i = self.retain.iter().position(|b| b.for_worker == worker)?;
        Some(self.retain.swap_remove(i).ops)
    }

    // ---- teardown ----------------------------------------------------

    /// Close the attachments. `events_overflow` is what the chaos
    /// endpoint's fault-event buffer dropped.
    pub(super) fn finish(self, events_overflow: u64) -> TapReport {
        let monitor = self.monitor_stats();
        let (spans, dropped) = self.tracer.finish();
        TapReport {
            trace: (spans, dropped + events_overflow),
            monitor,
            monitor_ns: self.mon_ns,
            escalations: self.escalations,
            latency: LatencySummary::from_histogram(&self.hist),
        }
    }
}
