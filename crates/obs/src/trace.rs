//! Causally-stamped structured tracing with a deterministic logical
//! timeline.
//!
//! Each worker owns an [`EpochTracer`]: a bounded recorder that
//! accumulates [`Span`]s and **seals** them per engine epoch at the
//! drain rendezvous that closes the epoch. Sealing sorts the epoch's
//! spans by their *logical key* — `(epoch, kind, worker, peer,
//! logical, …)`, every component a pure function of `(config, seed)`
//! — and truncates deterministically to a per-kind cap, so the
//! retained span set is identical across runs even though arrival
//! order (and therefore any naive ring-buffer eviction) is not. Old
//! sealed epochs are evicted oldest-first past a keep budget: the
//! recorder behaves like a flight recorder, always holding the most
//! recent window of history at bounded memory.
//!
//! Spans carry two timelines:
//!
//! * the **logical timeline** — epoch, per-edge sequence numbers,
//!   op counts, drain indices — which is deterministic and is the
//!   only thing the JSONL export renders ([`crate::export::jsonl`]);
//! * **wall time** (`wall_ns`, `dur_ns`) and the envelope's
//!   edge-knowledge **vector clock** (`vc`), which depend on real
//!   scheduling and are rendered only by the Chrome trace export.
//!
//! A [`FlightRecord`] is the merged, globally sorted timeline of every
//! worker (plus the verifier), ready for export.

/// What a [`Span`] describes. The discriminant order is the canonical
/// sort rank within an epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One sampled client operation at a replica worker.
    Op,
    /// A read of a non-hosted object routed to a remote replica.
    ReadRoute,
    /// One interest-multicast envelope leaving a sender
    /// (`logical` = per-edge sequence number, `peer` = recipient).
    BatchFlush,
    /// One envelope causally delivered at a receiver
    /// (`logical` = per-edge sequence number, `peer` = sender).
    Deliver,
    /// A drain rendezvous (window close, epoch boundary, or final
    /// drain) at one worker (`logical` = drain index).
    Drain,
    /// Gap repair traffic during a drain: a nack sent
    /// (`flag = false`) or a repair served (`flag = true`).
    NackRepair,
    /// A fault injected by the chaos endpoint
    /// (`a` = fault code, `logical` = virtual time of injection).
    Fault,
    /// A worker crashing at an epoch boundary (`logical` = crash
    /// epoch).
    Crash,
    /// A crashed worker rejoining via shard-state sync
    /// (`logical` = recovery epoch, `peer` = helper).
    Recover,
    /// A verification window verdict from the verifier thread
    /// (`logical` = window id, `flag` = passed).
    VerifyWindow,
    /// A streaming-monitor suspicion escalated to the exact checkers
    /// (`logical` = the worker's op count at escalation, `a` = bad-
    /// pattern code, `b` = events in the rebuilt window, `flag` =
    /// confirmed by the witness re-verification).
    MonitorEscalate,
}

impl SpanKind {
    /// Every kind, in canonical rank order.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Op,
        SpanKind::ReadRoute,
        SpanKind::BatchFlush,
        SpanKind::Deliver,
        SpanKind::Drain,
        SpanKind::NackRepair,
        SpanKind::Fault,
        SpanKind::Crash,
        SpanKind::Recover,
        SpanKind::VerifyWindow,
        SpanKind::MonitorEscalate,
    ];

    /// Stable snake_case name used by both exports and the JSON
    /// schema.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::ReadRoute => "read_route",
            SpanKind::BatchFlush => "batch_flush",
            SpanKind::Deliver => "deliver",
            SpanKind::Drain => "drain",
            SpanKind::NackRepair => "nack_repair",
            SpanKind::Fault => "fault",
            SpanKind::Crash => "crash",
            SpanKind::Recover => "recover",
            SpanKind::VerifyWindow => "verify_window",
            SpanKind::MonitorEscalate => "monitor_escalate",
        }
    }

    /// Canonical sort rank (position in [`SpanKind::ALL`]).
    pub(crate) fn rank(self) -> usize {
        self as usize
    }
}

/// One trace event. Field meaning varies by [`SpanKind`] (see the
/// variant docs and `docs/OBSERVABILITY.md` for the full schema);
/// unused fields hold `0` / `-1` / `false` / empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Kind of event.
    pub kind: SpanKind,
    /// Worker id (`workers` = the verifier thread).
    pub worker: u32,
    /// Engine epoch the event belongs to.
    pub epoch: u64,
    /// Kind-specific logical stamp (op count, edge sequence number,
    /// drain index, window id, …). Deterministic.
    pub logical: u64,
    /// Kind-specific peer worker (-1 when not applicable).
    pub peer: i64,
    /// Shard id (-1 when not applicable).
    pub shard: i64,
    /// Kind-specific payload value (object id, batch size, …).
    pub a: u64,
    /// Second kind-specific payload value.
    pub b: u64,
    /// Kind-specific boolean (update vs read, nack vs repair,
    /// verdict, …).
    pub flag: bool,
    /// Edge-knowledge vector-clock stamp: the sender row of the
    /// envelope matrix for flush/deliver spans. **Not** deterministic
    /// across runs (delivery interleaving); Chrome export only.
    pub vc: Vec<u64>,
    /// Wall-clock start, nanoseconds since the engine's shared start
    /// instant. Chrome export only.
    pub wall_ns: u64,
    /// Wall-clock duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

impl Span {
    /// A span with every optional field zeroed; callers fill in what
    /// the kind uses.
    pub fn new(kind: SpanKind, worker: u32, epoch: u64, logical: u64) -> Self {
        Self {
            kind,
            worker,
            epoch,
            logical,
            peer: -1,
            shard: -1,
            a: 0,
            b: 0,
            flag: false,
            vc: Vec::new(),
            wall_ns: 0,
            dur_ns: 0,
        }
    }

    /// The deterministic sort key: everything except `vc`, `wall_ns`,
    /// `dur_ns`.
    pub(crate) fn key(&self) -> (u64, usize, u32, i64, u64, i64, u64, u64, bool) {
        (
            self.epoch,
            self.kind.rank(),
            self.worker,
            self.peer,
            self.logical,
            self.shard,
            self.a,
            self.b,
            self.flag,
        )
    }
}

/// Bounds for an [`EpochTracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum retained spans **per kind per epoch per worker**;
    /// sealing truncates (in logical-key order) past this and counts
    /// the overflow in `dropped`.
    pub cap_per_kind: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self { cap_per_kind: 4096 }
    }
}

/// Per-worker bounded span recorder with deterministic per-epoch
/// sealing. See the [module docs](self).
#[derive(Debug)]
pub struct EpochTracer {
    enabled: bool,
    cfg: TraceConfig,
    cur: Vec<Span>,
    sealed: Vec<(u64, Vec<Span>)>,
    dropped: u64,
}

impl EpochTracer {
    /// A recorder; when `enabled` is false every call is a no-op and
    /// [`EpochTracer::finish`] returns nothing.
    pub fn new(enabled: bool, cfg: TraceConfig) -> Self {
        Self {
            enabled,
            cfg,
            cur: Vec::new(),
            sealed: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a span (no-op when disabled).
    pub fn push(&mut self, span: Span) {
        if self.enabled {
            self.cur.push(span);
        }
    }

    /// Seal every accumulated span with `span.epoch <= epoch`: sort by
    /// the deterministic key, truncate per kind to the cap, retain as
    /// the chunk for `epoch`, and evict the oldest sealed chunks past
    /// the keep budget. Call at the drain rendezvous that closes
    /// `epoch` — the only point where the epoch's span *set* (not
    /// order) is guaranteed identical across runs.
    pub fn seal(&mut self, epoch: u64) {
        if !self.enabled {
            return;
        }
        let mut chunk: Vec<Span> = Vec::new();
        let mut rest: Vec<Span> = Vec::new();
        for s in self.cur.drain(..) {
            if s.epoch <= epoch {
                chunk.push(s)
            } else {
                rest.push(s)
            }
        }
        self.cur = rest;
        chunk.sort_by_key(|x| x.key());
        if self.cfg.cap_per_kind > 0 {
            let mut kept: Vec<Span> = Vec::with_capacity(chunk.len());
            let mut run_kind: Option<(u64, SpanKind)> = None;
            let mut run_len = 0usize;
            for s in chunk {
                if run_kind != Some((s.epoch, s.kind)) {
                    run_kind = Some((s.epoch, s.kind));
                    run_len = 0;
                }
                if run_len < self.cfg.cap_per_kind {
                    run_len += 1;
                    kept.push(s);
                } else {
                    self.dropped += 1;
                }
            }
            chunk = kept;
        }
        self.sealed.push((epoch, chunk));
    }

    /// Consume the recorder: all sealed spans in epoch order (plus any
    /// unsealed leftovers, sorted), and the count of spans dropped by
    /// the bounds.
    pub fn finish(mut self) -> (Vec<Span>, u64) {
        if !self.enabled {
            return (Vec::new(), 0);
        }
        let mut out: Vec<Span> = Vec::new();
        for (_, chunk) in std::mem::take(&mut self.sealed) {
            out.extend(chunk);
        }
        self.cur.sort_by_key(|x| x.key());
        out.append(&mut self.cur);
        (out, self.dropped)
    }
}

/// The merged timeline of one engine run: every worker's sealed spans
/// plus the verifier's, globally sorted by the deterministic key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// Number of replica workers (`worker == workers` is the
    /// verifier).
    pub workers: u32,
    /// Workload seed the run used.
    pub seed: u64,
    /// All retained spans, sorted by `Span::key`.
    pub spans: Vec<Span>,
    /// Total spans dropped across all recorders by the trace bounds.
    pub dropped: u64,
}

impl FlightRecord {
    /// Merge per-worker span lists (as returned by
    /// [`EpochTracer::finish`]) into one globally sorted record.
    pub fn assemble(workers: u32, seed: u64, parts: Vec<(Vec<Span>, u64)>) -> Self {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for (part, d) in parts {
            spans.extend(part);
            dropped += d;
        }
        spans.sort_by_key(|x| x.key());
        Self {
            workers,
            seed,
            spans,
            dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, epoch: u64, logical: u64) -> Span {
        Span::new(kind, 0, epoch, logical)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = EpochTracer::new(false, TraceConfig::default());
        t.push(span(SpanKind::Op, 0, 1));
        t.seal(0);
        let (spans, dropped) = t.finish();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn sealing_sorts_regardless_of_arrival_order() {
        let mk = |order: &[u64]| {
            let mut t = EpochTracer::new(true, TraceConfig::default());
            for &l in order {
                t.push(span(SpanKind::Deliver, 0, l));
            }
            t.seal(0);
            t.finish().0
        };
        assert_eq!(mk(&[3, 1, 2]), mk(&[2, 3, 1]));
    }

    #[test]
    fn cap_truncates_deterministically() {
        let mut t = EpochTracer::new(true, TraceConfig { cap_per_kind: 2 });
        for l in [5u64, 1, 4, 2, 3] {
            t.push(span(SpanKind::Op, 0, l));
        }
        t.push(span(SpanKind::Drain, 0, 0));
        t.seal(0);
        let (spans, dropped) = t.finish();
        assert_eq!(dropped, 3);
        let ops: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Op)
            .map(|s| s.logical)
            .collect();
        assert_eq!(ops, vec![1, 2]);
        assert_eq!(
            spans.iter().filter(|s| s.kind == SpanKind::Drain).count(),
            1
        );
    }

    #[test]
    fn straggler_spans_wait_for_their_epoch() {
        let mut t = EpochTracer::new(true, TraceConfig::default());
        t.push(span(SpanKind::Fault, 1, 9));
        t.push(span(SpanKind::Op, 0, 0));
        t.seal(0);
        t.push(span(SpanKind::Op, 1, 1));
        t.seal(1);
        let (spans, _) = t.finish();
        let key: Vec<(u64, SpanKind)> = spans.iter().map(|s| (s.epoch, s.kind)).collect();
        assert_eq!(
            key,
            vec![(0, SpanKind::Op), (1, SpanKind::Op), (1, SpanKind::Fault)]
        );
    }

    #[test]
    fn assemble_merges_and_sorts() {
        let a = vec![span(SpanKind::Drain, 1, 0)];
        let mut b0 = span(SpanKind::Op, 0, 3);
        b0.worker = 1;
        let rec = FlightRecord::assemble(2, 7, vec![(a, 1), (vec![b0], 2)]);
        assert_eq!(rec.dropped, 3);
        assert_eq!(rec.spans[0].kind, SpanKind::Op);
        assert_eq!(rec.spans[1].kind, SpanKind::Drain);
    }
}
