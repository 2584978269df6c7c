//! Layer replay: the outside-in per-layer ledger.
//!
//! The engine has no stage timers yet, so the benchmark measures the
//! layers an op crosses from *outside*: it runs one seeded pass of the
//! workload's script through a single-threaded 4-replica pipeline it
//! assembles from the same public layer APIs the engine's `Worker`
//! uses (`ShardMap`, `ObjectTable`, `LamportClock`,
//! `InterestBatchCausalBroadcast`, `CcMonitor`, `EpochLog`), recording
//! on **tapes** the exact call sequence each layer sees. Envelopes
//! travel over per-edge FIFO queues and a seeded scheduler decides how
//! much of each queue a replica drains before its next burst of ops,
//! so envelopes overtake their causal past and the causal buffer is
//! exercised. Drains mirror the engine's: an epoch-boundary cut, the
//! window-close cut 48 ops into every later epoch, and the final cut.
//!
//! Each tape is then re-fed to its layer alone, from fresh state, and
//! timed in blocks (see [`crate::spans`]). Because flush rules and the
//! script are the engine's, the pipeline's payload count must equal
//! the engine's `payloads_sent` exactly and its envelope count must be
//! within 1% of `batches_sent` — [`crate::layers`] checks both.

use crate::spans::{Block, RunTimer, SpanLog, BLOCK};
use crate::workloads::{mix, BenchAdt, Script, Workload, BATCH, OBJECTS, WORKERS};
use cbm_check::monitor::{CcMonitor, MonitorStats, Stamp};
use cbm_net::broadcast::{InterestBatchCausalBroadcast, InterestMask, KnowledgeDelta};
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::endpoint::Endpoint;
use cbm_net::tcp::{frame, FrameDecoder, TcpNet};
use cbm_net::thread_net::ThreadNet;
use cbm_net::wire::{from_bytes, to_bytes};
use cbm_net::NodeId;
use cbm_obs::LatencyHistogram;
use cbm_store::durable::{self, EpochLog, SealInfo};
use cbm_store::objects::ObjectTable;
use cbm_store::wire::{batch_bytes, BatchMsg, StoreMsg, WireOp};
use cbm_store::{Mode, ShardMap};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Epochs of the workload's own length the pipeline runs: long enough
/// for convergent-mode epoch logs to reach their real length (refold
/// cost grows with it), short enough for the tapes to stay in memory.
pub const REPLAY_EPOCHS: usize = 2;
/// Ops each worker records into the window that opens every epoch
/// after the first (the engine drains again when it closes).
const WINDOW_OPS: usize = 48;
/// Envelopes streamed through a transport to time it.
const STREAM_ENVELOPES: usize = 8192;
/// Envelopes per codec / framing block.
const CODEC_BLOCK: usize = 256;

type Msg<A> =
    StoreMsg<<A as cbm_adt::Adt>::Input, <A as cbm_adt::Adt>::Output, <A as cbm_adt::Adt>::State>;

/// One flushed batch: the payload once, plus the per-recipient stamps.
struct Flush<A: BenchAdt> {
    sender: NodeId,
    payload: Vec<WireOp<A::Input>>,
    /// `(recipient, per-edge seq, delta header)`.
    copies: Vec<(NodeId, u64, KnowledgeDelta)>,
}

impl<A: BenchAdt> Flush<A> {
    fn envelope(&self, copy: usize) -> BatchMsg<A::Input> {
        let (_, seq, knows) = &self.copies[copy];
        BatchMsg {
            sender: self.sender,
            seq: *seq,
            knows: knows.clone(),
            payload: self.payload.clone(),
        }
    }
}

enum Bcast<A: BenchAdt> {
    Push(WireOp<A::Input>, InterestMask),
    FlushMask(InterestMask),
    FlushAll,
    Receive { flush: u32, copy: u8 },
}

enum Apply<A: BenchAdt> {
    Update {
        obj: u32,
        ts: Timestamp,
        input: A::Input,
    },
    Compact,
}

enum Mon<A: BenchAdt> {
    Own {
        slot: u32,
        input: A::Input,
        output: A::Output,
        time: u64,
    },
    Delivered {
        slot: u32,
        input: A::Input,
        stamp: Stamp,
    },
    Drain,
}

enum Dur<A: BenchAdt> {
    Own {
        obj: u32,
        ts: Timestamp,
        input: A::Input,
    },
    Batch {
        flush: u32,
        seq: u64,
    },
    Seal(SealInfo),
}

/// One replica of the recording pipeline.
struct Replica<A: BenchAdt> {
    table: ObjectTable<A>,
    clock: LamportClock,
    proto: InterestBatchCausalBroadcast<WireOp<A::Input>>,
    issued: u64,
}

/// The recorded call sequences, per layer.
struct Tapes<A: BenchAdt> {
    /// `λ` evaluations `(replica, obj, input)`: every local op, plus
    /// routed reads at their server.
    outputs: Vec<(u8, u32, A::Input)>,
    /// Placement lookups `(replica, obj, is_update)`, one per op.
    routes: Vec<(u8, u32, bool)>,
    applies: Vec<Vec<Apply<A>>>,
    bcast: Vec<Vec<Bcast<A>>>,
    flushes: Vec<Flush<A>>,
    /// Routed-read request/reply pairs (the other messages the codec
    /// sees).
    routed: Vec<(u32, A::Input, A::Output)>,
    monitor: Vec<Vec<Mon<A>>>,
    durable: Vec<Vec<Dur<A>>>,
}

/// SplitMix64 stream for the pipeline's scheduler.
struct Sched(u64);

impl Sched {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0) % n as u64) as usize
    }
}

/// The recording pass.
struct Pipeline<'a, A: BenchAdt> {
    adt: A,
    w: &'a Workload,
    script: &'a Script,
    map: &'a ShardMap,
    replicas: Vec<Replica<A>>,
    /// `edges[sender][recipient]`: in-flight `(flush, copy)`, FIFO.
    edges: Vec<Vec<VecDeque<(u32, u8)>>>,
    /// `(sender, recipient, seq)` → flush index, for delivered batches
    /// that sat in the causal buffer.
    flush_of: HashMap<(NodeId, NodeId, u64), u32>,
    sched: Sched,
    tapes: Tapes<A>,
    stats: PipelineStats,
}

/// What the recording pass counted (the replay's self-check inputs
/// and the broadcast-layer ratios).
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    pub ops: u64,
    pub payloads: u64,
    pub batches: u64,
    pub envelopes: u64,
    pub remote_reads: u64,
    pub received: u64,
    /// Envelopes delivered by the `on_receive` call that received them.
    pub direct: u64,
    pub buffered_peak: usize,
    pub applies: u64,
    pub refolds: u64,
    pub final_hashes: Vec<u64>,
}

impl<'a, A: BenchAdt> Pipeline<'a, A> {
    fn new(w: &'a Workload, script: &'a Script, map: &'a ShardMap, seed: u64) -> Self {
        let adt = A::default();
        fn per<T>() -> Vec<Vec<T>> {
            (0..WORKERS).map(|_| Vec::new()).collect()
        }
        Pipeline {
            replicas: (0..WORKERS)
                .map(|me| Replica {
                    table: ObjectTable::new(&adt, OBJECTS, w.mode),
                    clock: LamportClock::new(),
                    proto: InterestBatchCausalBroadcast::new(me, WORKERS),
                    issued: 0,
                })
                .collect(),
            adt,
            w,
            script,
            map,
            edges: (0..WORKERS)
                .map(|_| (0..WORKERS).map(|_| VecDeque::new()).collect())
                .collect(),
            flush_of: HashMap::new(),
            sched: Sched(seed ^ 0x5EED_0F5C_4ED0_1E5E),
            tapes: Tapes {
                outputs: Vec::new(),
                routes: Vec::new(),
                applies: per(),
                bcast: per(),
                flushes: Vec::new(),
                routed: Vec::new(),
                monitor: per(),
                durable: per(),
            },
            stats: PipelineStats::default(),
        }
    }

    /// `Worker::execute`, layer call for layer call.
    fn execute(&mut self, me: usize) {
        let op = self.script.op(me, self.replicas[me].issued);
        self.replicas[me].issued += 1;
        self.stats.ops += 1;
        let is_update = op.write.is_some();
        let input = op.input::<A>();
        self.tapes.routes.push((me as u8, op.obj, is_update));
        let shard = self.map.shard_of(op.obj);
        if !is_update && !self.map.hosts(me, shard) {
            // routed read: answered from the first replica's table
            // (fault-free: the first replica is always live)
            let server = self.map.replicas(shard)[0];
            let output = self.replicas[server]
                .table
                .output(&self.adt, op.obj, &input);
            self.tapes
                .outputs
                .push((server as u8, op.obj, input.clone()));
            self.tapes.routed.push((op.obj, input, output));
            self.stats.remote_reads += 1;
            return;
        }
        let obj = if is_update {
            self.map.localize(me, op.obj)
        } else {
            op.obj
        };
        let r = &mut self.replicas[me];
        let ts = Timestamp::new(r.clock.tick(), me);
        let output = r.table.output(&self.adt, obj, &input);
        self.tapes.outputs.push((me as u8, obj, input.clone()));
        if is_update {
            r.table.apply_update(&self.adt, obj, ts, &input);
            self.stats.applies += 1;
            self.tapes.applies[me].push(Apply::Update {
                obj,
                ts,
                input: input.clone(),
            });
            if self.w.durable_crash {
                self.tapes.durable[me].push(Dur::Own {
                    obj,
                    ts,
                    input: input.clone(),
                });
            }
        }
        if self.w.monitor {
            self.tapes.monitor[me].push(Mon::Own {
                slot: r.table.slot(obj) as u32,
                input: input.clone(),
                output,
                time: ts.time,
            });
        }
        if is_update {
            let mask = self.map.mask(self.map.shard_of(obj));
            if mask != InterestMask::solo(me) {
                let wire = WireOp {
                    obj,
                    input,
                    ts,
                    wseq: None,
                };
                self.tapes.bcast[me].push(Bcast::Push(wire.clone(), mask));
                self.stats.payloads += 1;
                if r.proto.push(wire, mask) >= BATCH {
                    self.tapes.bcast[me].push(Bcast::FlushMask(mask));
                    let envs = r.proto.flush_mask(mask);
                    self.ship(me, envs);
                }
            }
        }
    }

    /// Put one flush's stamped envelopes on their edges. A
    /// `flush_all` returns the envelopes of several batches back to
    /// back; a batch's copies all start with the same op, whose
    /// Lamport timestamp no other batch of this sender shares.
    fn ship(&mut self, me: usize, envs: Vec<(NodeId, BatchMsg<A::Input>)>) {
        let mut open: Option<Timestamp> = None;
        for (to, env) in envs {
            let first = env.payload[0].ts;
            if open != Some(first) {
                open = Some(first);
                self.stats.batches += 1;
                self.tapes.flushes.push(Flush {
                    sender: me,
                    payload: env.payload,
                    copies: Vec::new(),
                });
            }
            let flush = self.tapes.flushes.len() - 1;
            let f = &mut self.tapes.flushes[flush];
            f.copies.push((to, env.seq, env.knows));
            self.stats.envelopes += 1;
            self.flush_of.insert((me, to, env.seq), flush as u32);
            self.edges[me][to].push_back((flush as u32, (f.copies.len() - 1) as u8));
        }
    }

    /// `Worker::deliver` for one arriving envelope.
    fn receive(&mut self, me: usize, flush: u32, copy: u8) {
        let env = self.tapes.flushes[flush as usize].envelope(copy as usize);
        let (sender, seq) = (env.sender, env.seq);
        self.tapes.bcast[me].push(Bcast::Receive { flush, copy });
        let r = &mut self.replicas[me];
        let delivered = r.proto.on_receive(env);
        self.stats.received += 1;
        if delivered.iter().any(|m| m.sender == sender && m.seq == seq) {
            self.stats.direct += 1;
        }
        self.stats.buffered_peak = self.stats.buffered_peak.max(r.proto.buffered());
        for batch in delivered {
            if self.w.durable_crash {
                self.tapes.durable[me].push(Dur::Batch {
                    flush: self.flush_of[&(batch.sender, me, batch.seq)],
                    seq: batch.seq,
                });
            }
            for op in batch.payload {
                r.clock.observe(op.ts.time);
                r.table.apply_update(&self.adt, op.obj, op.ts, &op.input);
                self.stats.applies += 1;
                if self.w.monitor {
                    self.tapes.monitor[me].push(Mon::Delivered {
                        slot: r.table.slot(op.obj) as u32,
                        input: op.input.clone(),
                        stamp: Stamp::new(op.ts.time, op.ts.pid),
                    });
                }
                self.tapes.applies[me].push(Apply::Update {
                    obj: op.obj,
                    ts: op.ts,
                    input: op.input,
                });
            }
        }
    }

    /// `Worker::pump`, except that a seeded share of each inbound edge
    /// stays in flight.
    fn pump(&mut self, me: usize) {
        let first = self.sched.below(WORKERS);
        for k in 0..WORKERS {
            let s = (first + k) % WORKERS;
            let take = self.sched.below(self.edges[s][me].len() + 1);
            for _ in 0..take {
                let (flush, copy) = self.edges[s][me].pop_front().expect("take <= len");
                self.receive(me, flush, copy);
            }
        }
    }

    /// Every worker issues `ops` more ops, in seeded bursts.
    fn run_phase(&mut self, ops: usize) {
        let mut left = [ops; WORKERS];
        while left.iter().any(|&l| l > 0) {
            let me = self.sched.below(WORKERS);
            if left[me] == 0 {
                continue;
            }
            self.pump(me);
            let burst = (1 + self.sched.below(64)).min(left[me]);
            for _ in 0..burst {
                self.execute(me);
            }
            left[me] -= burst;
        }
    }

    /// `Worker::quiesce` + the seal, and at boundary cuts the
    /// compaction that follows it.
    fn drain(&mut self, epoch: u64, boundary: bool) {
        for me in 0..WORKERS {
            self.tapes.bcast[me].push(Bcast::FlushAll);
            let envs = self.replicas[me].proto.flush_all();
            self.ship(me, envs);
        }
        while self.edges.iter().flatten().any(|q| !q.is_empty()) {
            let me = self.sched.below(WORKERS);
            self.pump(me);
        }
        for (me, r) in self.replicas.iter_mut().enumerate() {
            assert_eq!(r.proto.buffered(), 0, "drain left envelopes buffered");
            if self.w.durable_crash {
                self.tapes.durable[me].push(Dur::Seal(SealInfo {
                    epoch,
                    boundary,
                    issued: r.issued,
                    lamport: r.clock.now(),
                    delivered: r.proto.delivered_edges().to_vec(),
                    state_hash: r.table.state_hash(),
                    monitor: MonitorStats::default(),
                }));
            }
            if boundary {
                r.table.compact();
                self.tapes.applies[me].push(Apply::Compact);
                if self.w.monitor {
                    self.tapes.monitor[me].push(Mon::Drain);
                }
            }
        }
    }

    /// The engine's epoch structure (`Worker::run`).
    fn run(
        mut self,
        epochs: usize,
        every: usize,
    ) -> (Tapes<A>, PipelineStats, Vec<ObjectTable<A>>) {
        for e in 0..epochs {
            if e > 0 {
                self.drain(e as u64, true);
                let quota = WINDOW_OPS.min(every);
                self.run_phase(quota);
                self.drain(e as u64, false);
                self.run_phase(every - quota);
            } else {
                self.run_phase(every);
            }
        }
        self.drain(epochs as u64, true);
        self.stats.refolds = self.replicas.iter().map(|r| r.table.refolds).sum();
        self.stats.final_hashes = self.replicas.iter().map(|r| r.table.state_hash()).collect();
        let tables = self.replicas.into_iter().map(|r| r.table).collect();
        (self.tapes, self.stats, tables)
    }
}

/// What the replay hands to [`crate::layers`].
pub struct Replayed {
    pub log: SpanLog,
    /// Calibrated cost of one `Instant::now()` + `elapsed()` pair.
    pub pair_ns: f64,
    pub stats: PipelineStats,
    /// Ops per worker the pipeline ran.
    pub ops_per_worker: usize,
    /// Σ exact varint header bytes over all envelopes.
    pub header_bytes: u64,
    /// Σ encoded `StoreMsg` body bytes (TCP workloads only).
    pub codec_bytes: u64,
    /// Σ bytes appended to the epoch logs (durable workloads only).
    pub durable_bytes: u64,
}

/// Leaf layers timed by the replay; the names of their per-call
/// metrics are these plus `_ns` (or `_us`).
pub mod layer {
    pub const OUTPUT: &str = "adt.output";
    pub const APPLY_CC: &str = "store.objects.apply_cc";
    pub const APPLY_CCV: &str = "store.objects.apply_ccv";
    pub const COMPACT: &str = "store.objects.compact";
    pub const ROUTE: &str = "store.shard.route";
    pub const CLOCK_PAIR: &str = "obs.clock_pair";
    pub const HIST: &str = "obs.hist.record";
    pub const PUSH: &str = "net.broadcast.push";
    pub const FLUSH: &str = "net.broadcast.flush";
    pub const RECEIVE: &str = "net.broadcast.receive";
    pub const DELTA_LEN: &str = "net.delta.wire_len";
    pub const DELTA_ENC: &str = "net.delta.encode";
    pub const DELTA_DEC: &str = "net.delta.decode";
    pub const CODEC_ENC: &str = "store.codec.encode";
    pub const CODEC_DEC: &str = "store.codec.decode";
    pub const FRAME: &str = "net.tcp.frame";
    pub const DEFRAME: &str = "net.tcp.deframe";
    pub const TCP_STREAM: &str = "net.tcp.stream";
    pub const THREAD_STREAM: &str = "net.thread_net.stream";
    pub const MON_OWN: &str = "check.monitor.own";
    pub const MON_FOLD: &str = "check.monitor.fold";
    pub const LOG_OWN: &str = "store.durable.append_own";
    pub const LOG_BATCH: &str = "store.durable.append_batch";
    pub const SEAL: &str = "store.durable.seal";
    pub const SNAPSHOT: &str = "store.durable.snapshot";
    pub const RECOVER: &str = "store.durable.recover";
}

/// Record one pass of `w`'s script and replay every layer's tape.
/// `every` is the epoch length (the workload's, or its scaled-down
/// test size); `scratch` holds the replayed epoch logs.
pub fn replay<A: BenchAdt>(
    w: &Workload,
    script: &Script,
    map: &ShardMap,
    seed: u64,
    every: usize,
    scratch: &Path,
) -> Replayed {
    let mut log = SpanLog::new();
    let root = log.open("replay", None);

    let rec = log.open("record", Some(root));
    let (tapes, stats, tables) = Pipeline::<A>::new(w, script, map, seed).run(REPLAY_EPOCHS, every);
    log.close(rec);

    let adt = A::default();
    let pair_ns = pass_obs(&mut log, root, stats.ops);
    pass_objects(&mut log, root, &adt, w.mode, &tapes, &tables);
    pass_route(&mut log, root, map, &tapes);
    pass_broadcast::<A>(&mut log, root, &tapes);
    let header_bytes = pass_delta::<A>(&mut log, root, &tapes);
    let codec_bytes = if w.tcp {
        pass_codec::<A>(&mut log, root, &tapes)
    } else {
        0
    };
    pass_stream::<A>(&mut log, root, &tapes, w.tcp);
    if w.monitor {
        assert_eq!(w.mode, Mode::Causal, "the monitored workload is causal");
        pass_monitor(&mut log, root, &adt, &tapes);
    }
    let durable_bytes = if w.durable_crash {
        pass_durable(&mut log, root, &adt, w.mode, &tapes, &stats, scratch)
    } else {
        0
    };
    log.close(root);

    Replayed {
        log,
        pair_ns,
        stats,
        ops_per_worker: REPLAY_EPOCHS * every,
        header_bytes,
        codec_bytes,
        durable_bytes,
    }
}

/// `cbm-obs`: the clock pair `execute` reads around every op, and the
/// latency histogram it feeds. Returns the calibrated pair cost.
fn pass_obs(log: &mut SpanLog, root: u32, ops: u64) -> f64 {
    let pass = log.open("obs", Some(root));
    let n = (ops as usize).max(BLOCK);
    let mut lat: Vec<u64> = Vec::with_capacity(n);
    for _ in 0..n / BLOCK {
        log.timed(layer::CLOCK_PAIR, pass, BLOCK as u64, || {
            for _ in 0..BLOCK {
                let t = Instant::now();
                lat.push(black_box(t.elapsed().as_nanos() as u64));
            }
        });
    }
    // the histogram's input is what `execute` feeds it: clock-pair
    // readings (here, of back-to-back pairs)
    let mut hist = LatencyHistogram::new();
    for chunk in lat.chunks(BLOCK) {
        log.timed(layer::HIST, pass, chunk.len() as u64, || {
            for &v in chunk {
                hist.record(black_box(v));
            }
        });
    }
    black_box(hist.count());
    log.close(pass);
    // a block holds BLOCK pairs plus the one pair that times it
    let t = log.total(layer::CLOCK_PAIR);
    t.busy_ns as f64 / (t.calls + t.clock_pairs) as f64
}

/// `store.objects` (and the base type's `λ` through its read path):
/// every replica's apply tape into a fresh table, then the read tape
/// against the final tables.
fn pass_objects<A: BenchAdt>(
    log: &mut SpanLog,
    root: u32,
    adt: &A,
    mode: Mode,
    tapes: &Tapes<A>,
    tables: &[ObjectTable<A>],
) {
    let pass = log.open("store.objects", Some(root));
    let apply = match mode {
        Mode::Causal => layer::APPLY_CC,
        Mode::Convergent => layer::APPLY_CCV,
    };
    for tape in &tapes.applies {
        let mut table = ObjectTable::new(adt, OBJECTS, mode);
        // compactions split the tape into runs of updates
        for run in tape.split_inclusive(|ev| matches!(ev, Apply::Compact)) {
            for chunk in run.chunks(BLOCK) {
                let updates = chunk
                    .iter()
                    .filter(|ev| matches!(ev, Apply::Update { .. }))
                    .count();
                if updates == 0 {
                    continue; // a run that is only its compaction
                }
                log.timed(apply, pass, updates as u64, || {
                    for ev in chunk {
                        if let Apply::Update { obj, ts, input } = ev {
                            table.apply_update(adt, *obj, *ts, input);
                        }
                    }
                });
            }
            if matches!(run.last(), Some(Apply::Compact)) {
                log.timed(layer::COMPACT, pass, 1, || table.compact());
            }
        }
        black_box(table.state_hash());
    }
    for chunk in tapes.outputs.chunks(BLOCK) {
        log.timed(layer::OUTPUT, pass, chunk.len() as u64, || {
            for (at, obj, input) in chunk {
                black_box(tables[*at as usize].output(adt, *obj, input));
            }
        });
    }
    log.close(pass);
}

/// `store.shard`: the placement lookups `execute` makes per op.
fn pass_route<A: BenchAdt>(log: &mut SpanLog, root: u32, map: &ShardMap, tapes: &Tapes<A>) {
    let pass = log.open("store.shard", Some(root));
    for chunk in tapes.routes.chunks(BLOCK) {
        log.timed(layer::ROUTE, pass, chunk.len() as u64, || {
            for &(me, obj, is_update) in chunk {
                let me = me as usize;
                if is_update {
                    let obj = map.localize(me, obj);
                    black_box(map.mask(map.shard_of(obj)));
                } else {
                    black_box(map.hosts(me, map.shard_of(obj)));
                }
            }
        });
    }
    log.close(pass);
}

/// `net.broadcast`: each replica's push / flush / receive tape into a
/// fresh endpoint. The three kinds interleave on one stateful object,
/// so each run of same-kind calls gets one clock pair.
fn pass_broadcast<A: BenchAdt>(log: &mut SpanLog, root: u32, tapes: &Tapes<A>) {
    const PUSH: usize = 0;
    const FLUSH: usize = 1;
    const RECEIVE: usize = 2;
    let pass = log.open("net.broadcast", Some(root));
    for (me, tape) in tapes.bcast.iter().enumerate() {
        let mut proto: InterestBatchCausalBroadcast<WireOp<A::Input>> =
            InterestBatchCausalBroadcast::new(me, WORKERS);
        let mut timer = RunTimer::new(&[layer::PUSH, layer::FLUSH, layer::RECEIVE]);
        let mut i = 0;
        while i < tape.len() {
            match &tape[i] {
                Bcast::Push(..) => {
                    let end = tape[i..]
                        .iter()
                        .position(|ev| !matches!(ev, Bcast::Push(..)))
                        .map_or(tape.len(), |k| i + k);
                    // the engine hands `push` an owned op
                    let ops: Vec<_> = tape[i..end]
                        .iter()
                        .map(|ev| match ev {
                            Bcast::Push(op, mask) => (op.clone(), *mask),
                            _ => unreachable!("run of pushes"),
                        })
                        .collect();
                    let calls = ops.len() as u64;
                    let t = Instant::now();
                    for (op, mask) in ops {
                        black_box(proto.push(op, mask));
                    }
                    timer.run(log, pass, PUSH, calls, t, Instant::now());
                    i = end;
                }
                Bcast::FlushMask(mask) => {
                    let t = Instant::now();
                    let envs = proto.flush_mask(*mask);
                    timer.run(log, pass, FLUSH, 1, t, Instant::now());
                    drop(black_box(envs)); // freeing the copies is the transport's cost
                    i += 1;
                }
                Bcast::FlushAll => {
                    let t = Instant::now();
                    let envs = proto.flush_all();
                    timer.run(log, pass, FLUSH, 1, t, Instant::now());
                    drop(black_box(envs));
                    i += 1;
                }
                Bcast::Receive { flush, copy } => {
                    let env = tapes.flushes[*flush as usize].envelope(*copy as usize);
                    let t = Instant::now();
                    let out = proto.on_receive(env);
                    timer.run(log, pass, RECEIVE, 1, t, Instant::now());
                    drop(black_box(out));
                    i += 1;
                }
            }
        }
        timer.finish(log, pass);
    }
    log.close(pass);
}

/// `net.delta`: the varint header codec over every envelope's stamp.
/// Returns Σ header bytes.
fn pass_delta<A: BenchAdt>(log: &mut SpanLog, root: u32, tapes: &Tapes<A>) -> u64 {
    let pass = log.open("net.delta", Some(root));
    let stamps: Vec<(NodeId, u64, &KnowledgeDelta)> = tapes
        .flushes
        .iter()
        .flat_map(|f| f.copies.iter().map(move |(_, seq, k)| (f.sender, *seq, k)))
        .collect();
    let mut bytes = 0u64;
    for chunk in stamps.chunks(BLOCK) {
        let calls = chunk.len() as u64;
        bytes += log.timed(layer::DELTA_LEN, pass, calls, || {
            chunk
                .iter()
                .map(|(s, q, k)| k.wire_len(*s, *q) as u64)
                .sum::<u64>()
        });
        let encoded: Vec<Vec<u8>> = log.timed(layer::DELTA_ENC, pass, calls, || {
            chunk.iter().map(|(s, q, k)| k.encode(*s, *q)).collect()
        });
        log.timed(layer::DELTA_DEC, pass, calls, || {
            for buf in &encoded {
                black_box(KnowledgeDelta::decode(buf).expect("decode what encode wrote"));
            }
        });
    }
    log.close(pass);
    bytes
}

/// Every recorded envelope, one per (flush, recipient).
fn envelopes<A: BenchAdt>(tapes: &Tapes<A>) -> impl Iterator<Item = BatchMsg<A::Input>> + '_ {
    tapes
        .flushes
        .iter()
        .flat_map(|f| (0..f.copies.len()).map(move |c| f.envelope(c)))
}

/// Every message the socket path would carry: one `Batch` per
/// envelope, then the routed-read pairs.
fn socket_messages<A: BenchAdt>(tapes: &Tapes<A>) -> impl Iterator<Item = Msg<A>> + '_ {
    let reads = tapes.routed.iter().flat_map(|(obj, input, output)| {
        [
            StoreMsg::ReadReq {
                obj: *obj,
                input: input.clone(),
            },
            StoreMsg::ReadReply {
                output: output.clone(),
            },
        ]
    });
    envelopes(tapes).map(StoreMsg::Batch).chain(reads)
}

/// `store.codec` + `net.tcp` framing: encode → frame → deframe →
/// decode, a block of envelopes at a time. Returns Σ body bytes.
fn pass_codec<A: BenchAdt>(log: &mut SpanLog, root: u32, tapes: &Tapes<A>) -> u64 {
    let pass = log.open("store.codec+net.tcp", Some(root));
    let mut bytes = 0u64;
    let mut msgs = socket_messages::<A>(tapes).peekable();
    while msgs.peek().is_some() {
        let block: Vec<Msg<A>> = msgs.by_ref().take(CODEC_BLOCK).collect();
        let calls = block.len() as u64;
        let bodies: Vec<Vec<u8>> = log.timed(layer::CODEC_ENC, pass, calls, || {
            block.iter().map(to_bytes).collect()
        });
        bytes += bodies.iter().map(|b| b.len() as u64).sum::<u64>();
        let frames: Vec<Vec<u8>> = log.timed(layer::FRAME, pass, calls, || {
            bodies.iter().map(|b| frame(b)).collect()
        });
        let mut dec = FrameDecoder::new();
        let deframed: Vec<Vec<u8>> = log.timed(layer::DEFRAME, pass, calls, || {
            frames
                .iter()
                .map(|f| {
                    dec.push(f);
                    dec.next_frame()
                        .expect("a frame this pass wrote")
                        .expect("a whole frame was pushed")
                })
                .collect()
        });
        log.timed(layer::CODEC_DEC, pass, calls, || {
            for body in &deframed {
                black_box(from_bytes::<Msg<A>>(body).expect("decode what encode wrote"));
            }
        });
    }
    log.close(pass);
    bytes
}

/// One-way stream of recorded envelopes between two endpoints of the
/// workload's transport, sender in its own thread: wall time per
/// envelope from first send to last receive.
fn pass_stream<A: BenchAdt>(log: &mut SpanLog, root: u32, tapes: &Tapes<A>, tcp: bool) {
    fn stream<M: Clone + Send, E: Endpoint<M>>(mut eps: Vec<E>, msgs: Vec<(M, usize)>) {
        let rx = eps.pop().expect("two endpoints");
        let tx = eps.pop().expect("two endpoints");
        let n = msgs.len();
        std::thread::scope(|s| {
            s.spawn(move || {
                for (m, bytes) in msgs {
                    tx.send_sized(1, m, bytes);
                }
                tx // keep the endpoint alive until everything is sent
            });
            for _ in 0..n {
                black_box(rx.recv().expect("the sender is alive"));
            }
        });
    }
    let msgs: Vec<(Msg<A>, usize)> = envelopes(tapes)
        .take(STREAM_ENVELOPES)
        .map(|env| {
            let bytes = batch_bytes(&env);
            (StoreMsg::Batch(env), bytes)
        })
        .collect();
    if msgs.is_empty() {
        return;
    }
    let calls = msgs.len() as u64;
    if tcp {
        let pass = log.open("net.tcp", Some(root));
        let net: TcpNet<Msg<A>> = TcpNet::new(2).expect("bind + handshake a loopback pair");
        let eps = net.into_endpoints();
        log.timed(layer::TCP_STREAM, pass, calls, || stream(eps, msgs));
        log.close(pass);
    } else {
        let pass = log.open("net.thread_net", Some(root));
        let eps = ThreadNet::<Msg<A>>::new(2).into_endpoints();
        log.timed(layer::THREAD_STREAM, pass, calls, || stream(eps, msgs));
        log.close(pass);
    }
}

/// `check.monitor`: each replica's own / fold tape into a fresh
/// causal monitor.
fn pass_monitor<A: BenchAdt>(log: &mut SpanLog, root: u32, adt: &A, tapes: &Tapes<A>) {
    const OWN: usize = 0;
    const FOLD: usize = 1;
    let pass = log.open("check.monitor", Some(root));
    for (me, tape) in tapes.monitor.iter().enumerate() {
        let mut mon = CcMonitor::new(adt.clone(), OBJECTS, WORKERS, me);
        let mut timer = RunTimer::new(&[layer::MON_OWN, layer::MON_FOLD]);
        // runs of same-kind events; drains are untimed cut points
        for run in tape.chunk_by(|a, b| std::mem::discriminant(a) == std::mem::discriminant(b)) {
            let calls = run.len() as u64;
            match &run[0] {
                Mon::Own { .. } => {
                    let t = Instant::now();
                    for ev in run {
                        if let Mon::Own {
                            slot,
                            input,
                            output,
                            time,
                        } = ev
                        {
                            let esc = mon.on_own(*slot, input, output, *time);
                            assert!(esc.is_none(), "replayed own op escalated");
                        }
                    }
                    timer.run(log, pass, OWN, calls, t, Instant::now());
                }
                Mon::Delivered { .. } => {
                    let t = Instant::now();
                    for ev in run {
                        if let Mon::Delivered { slot, input, stamp } = ev {
                            let esc = mon.on_delivered(*slot, input, *stamp);
                            assert!(esc.is_none(), "replayed fold escalated");
                        }
                    }
                    timer.run(log, pass, FOLD, calls, t, Instant::now());
                }
                Mon::Drain => {
                    for _ in run {
                        mon.on_drain();
                    }
                }
            }
        }
        timer.finish(log, pass);
    }
    log.close(pass);
}

/// `store.durable`: each replica's append / seal tape into a fresh
/// epoch log under `scratch`, then a timed replay of that log
/// (`durable::recover`, which must land on the pipeline's own final
/// state) and timed snapshots of the final cut. Returns the bytes
/// appended.
fn pass_durable<A: BenchAdt>(
    log: &mut SpanLog,
    root: u32,
    adt: &A,
    mode: Mode,
    tapes: &Tapes<A>,
    stats: &PipelineStats,
    scratch: &Path,
) -> u64 {
    const OWN: usize = 0;
    const BATCH_REC: usize = 1;
    let dir = scratch.join("replay-log");
    let pass = log.open("store.durable", Some(root));
    let mut appended = 0u64;
    for (me, tape) in tapes.durable.iter().enumerate() {
        let mut elog = EpochLog::open(&dir, me, true).expect("open a fresh epoch log");
        let mut timer = RunTimer::new(&[layer::LOG_OWN, layer::LOG_BATCH]);
        let mut last_seal = None;
        for run in tape.chunk_by(|a, b| std::mem::discriminant(a) == std::mem::discriminant(b)) {
            let calls = run.len() as u64;
            match &run[0] {
                Dur::Own { .. } => {
                    let t = Instant::now();
                    for ev in run {
                        if let Dur::Own { obj, ts, input } = ev {
                            elog.log_own(*obj, *ts, input)
                                .expect("append an own record");
                        }
                    }
                    timer.run(log, pass, OWN, calls, t, Instant::now());
                }
                Dur::Batch { .. } => {
                    let t = Instant::now();
                    for ev in run {
                        if let Dur::Batch { flush, seq } = ev {
                            let f = &tapes.flushes[*flush as usize];
                            elog.log_batch(f.sender, *seq, &f.payload)
                                .expect("append a batch record");
                        }
                    }
                    timer.run(log, pass, BATCH_REC, calls, t, Instant::now());
                }
                Dur::Seal(_) => {
                    for ev in run {
                        if let Dur::Seal(info) = ev {
                            // snapshot_every = 0: the log keeps every
                            // record, so the replay below walks all
                            log.timed(layer::SEAL, pass, 1, || {
                                elog.seal(info, 0).expect("seal the epoch log")
                            });
                            last_seal = Some(info.clone());
                        }
                    }
                }
            }
        }
        timer.finish(log, pass);
        appended += elog.appended;

        // one block whose calls are the records the replay walked
        let t = Instant::now();
        let rec = durable::recover::<A>(adt, &dir, me, OBJECTS, mode);
        let end = Instant::now();
        let rec = rec.unwrap_or_else(|e| panic!("replaying replica {me}'s log failed: {e}"));
        let replayed = Block {
            calls: rec.replayed_records,
            busy_ns: end.duration_since(t).as_nanos() as u64,
            clock_pairs: 1,
        };
        log.block(layer::RECOVER, pass, t, end, replayed);
        let mut table = ObjectTable::new(adt, OBJECTS, mode);
        table.install(&rec.states);
        assert_eq!(
            table.state_hash(),
            stats.final_hashes[me],
            "replica {me}'s log replayed to a different state"
        );

        let seal = last_seal.expect("every tape ends with the final seal");
        for _ in 0..3 {
            log.timed(layer::SNAPSHOT, pass, 1, || {
                elog.snapshot(&seal, &rec.states).expect("write a snapshot")
            });
        }
    }
    log.close(pass);
    appended
}
