//! The paper's two handlers, and nothing else.
//!
//! Fig. 4 (CC) and Fig. 5 (CCv) are the same pair of handlers over a
//! different object table — *on update: apply locally and causally
//! broadcast; on delivery: apply* — and this file is that pair for a
//! sharded object space: [`Worker::execute`] is "on update" (and the
//! wait-free local query), [`Worker::deliver`] is "on delivery", and
//! the rest is the plumbing between them and the wire: the op step,
//! batching and shipping, the inbound message switch, and the one op
//! that is not wait-free — a read of a shard this replica does not
//! host ([`Worker::remote_read`]).
//!
//! ## One switch, one wait, four barriers
//!
//! Every message a worker takes, in every phase — op path, drain,
//! recovery — goes through [`Worker::handle`], and every wait on a
//! peer is the host's one group wait ([`Host::wait`]): poll the inbox
//! of every worker the thread hosts, handle what arrived, yield the
//! timeslice only when nothing has. The rendezvous spins, a routed
//! read and both sides of a recovery transfer wait on a condition over
//! the hosted workers' own state, never in a blocking receive, so no
//! such wait can strand a peer on a message only a hosted worker would
//! serve — and a routed read whose server shares the reader's thread
//! is answered inside the wait. A thread that unwinds raises
//! `Coordinator::panicked`, and another thread's next idle turn in the
//! wait then fails too, so a panic fails the run instead of leaving
//! its peers spinning on what it will never send (a thread already
//! parked at one of the barriers below cannot tell).
//!
//! Four waits do sleep in the kernel: the `coord.barrier.wait()`
//! calls on the [`Coordinator`]'s `std::sync::Barrier`, one party per
//! thread — the drain's closing barrier (`Host::quiesce`), the one
//! after the per-shard hashes are published
//! (`compact_and_check_convergence`), the one after a boundary's
//! recovery transfers (`recover_at_boundary`) and the one after the
//! cold-start claims (`resume_from_disk`). A parked thread handles
//! nothing, so each is reached only once every nack, routed read and
//! transfer of its phase has been answered for every hosted worker: no
//! peer still waits on them, and what arrives meanwhile stays in the
//! inboxes. The closing barrier must not serve: after a window-close
//! cut a worker steps straight on into its next ops (`close_window`),
//! and a peer still pumping in its `done` spin would deliver those
//! post-cut envelopes into its own seal and window snapshot.
//!
//! A replica that is down (`discarding`: from its crash cut until its
//! recovery transfer is in) drops everything but that transfer,
//! counted.
//!
//! ## Execution model
//!
//! Each worker is a replica of the shards assigned to it by the
//! [`ShardMap`] (every shard under the default full-replication
//! placement). The workers run on as many threads as there are cores,
//! each thread hosting a contiguous range of them and stepping them in
//! turns (`host.rs`). A worker's steps are wait-free for
//! **replica-local** operations: it generates its next operation,
//! answers queries on hosted objects from its local object table,
//! applies and queues updates for the interest-filtered batched causal
//! multicast, and integrates whatever peers' batches have arrived —
//! never blocking on another replica (§6.1's process model under a
//! real scheduler). Under partial replication two routed paths appear:
//! updates always execute at a replica of their object (non-hosted
//! updates are deterministically re-addressed, [`ShardMap::localize`]),
//! and a read of a non-hosted object travels to a live replica of its
//! shard over a reliable request/reply exchange (the one place a worker
//! waits on the op path — the price §1's wait-freedom result puts on
//! reading state you do not replicate). See `docs/SHARDING.md`.
//!
//! ## Interest edges
//!
//! Replication runs over [`InterestBatchCausalBroadcast`]: updates
//! queue per shard (one batch is only ever addressed to the replicas
//! interested in all of its contents) and every flushed envelope is
//! stamped per recipient with per-edge sequence numbers, so gap
//! detection, duplicate suppression, and the drain's nack/repair round
//! all work per **interest edge** — no part of the protocol assumes a
//! receiver sees every envelope a sender emits.
//!
//! Everything that watches these handlers — log, tracing, checking,
//! window sampling, and the clock that times them — hangs off
//! [`Taps`]; the epoch schedule and the rendezvous are in `drain.rs`,
//! crash recovery in `recovery.rs`, and the driver that steps a
//! thread's hosted workers through them in `host.rs`.
//!
//! ## What a step costs
//!
//! [`Worker::step`] is the op plus three checks that are almost always
//! a compare or two loads each: the fault layer's clock tick
//! ([`ChaosEndpoint::tick`]), the inbound poll (an empty
//! [`cbm_net::inbox`] answers by comparing two counts), and the op
//! clock ([`Taps::op_start`] times one op in 64). `docs/THROUGHPUT.md`,
//! "What a step costs", has the measurements.
//!
//! [`Host::wait`]: super::host::Host::wait

use super::counters::{Counters, Published};
use super::drain::Coordinator;
use super::taps::Taps;
use crate::chaos::ChaosSchedule;
use crate::config::StoreConfig;
use crate::objects::ObjectTable;
use crate::shard::ShardMap;
use crate::stats::{EpochMetrics, RecoveryStats};
use crate::wire::{op_bytes, read_reply_bytes, read_req_bytes, BatchMsg, StoreMsg, WireOp};
use cbm_adt::space::SpaceInput;
use cbm_adt::wire::Wire;
use cbm_adt::Adt;
use cbm_net::broadcast::{BufPool, InterestBatchCausalBroadcast, InterestMask};
use cbm_net::chaos::ChaosEndpoint;
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::endpoint::Endpoint as EndpointApi;
use cbm_net::NodeId;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// The chaos layer wrapped around a worker's transport endpoint,
/// generic over the underlying transport `E` (thread channels or TCP).
pub(super) type WorkerEndpoint<T, E> =
    ChaosEndpoint<StoreMsg<<T as Adt>::Input, <T as Adt>::Output, <T as Adt>::State>, E>;

/// A routed read whose reply is outstanding: what
/// [`Worker::read_done`] records once it is in.
pub(super) struct RoutedRead {
    t: Instant,
    obj: u32,
    shard: usize,
    server: NodeId,
}

pub(super) struct Worker<'a, T: Adt, E> {
    pub(super) adt: &'a T,
    pub(super) cfg: &'a StoreConfig,
    pub(super) sched: &'a ChaosSchedule,
    pub(super) map: &'a ShardMap,
    pub(super) ep: WorkerEndpoint<T, E>,
    pub(super) coord: &'a Coordinator,
    pub(super) me: NodeId,
    pub(super) proto: InterestBatchCausalBroadcast<WireOp<T::Input>>,
    pub(super) table: ObjectTable<T>,
    pub(super) clock: LamportClock,
    pub(super) crashed: bool,
    /// Drains started so far (also the transport marker a cut waits for).
    pub(super) quiesce_idx: u64,
    /// Does any fault of the plan lose envelopes between live
    /// replicas ([`Fault::needs_repair`])? Only then can a nack arrive,
    /// so only then does [`Worker::ship`] copy each envelope into
    /// `epoch_sent`; a fault-free, crash-only, duplication-only or
    /// latency-only plan ships every envelope by move and keeps no log.
    /// Precomputed: checked on every flush.
    ///
    /// [`Fault::needs_repair`]: cbm_net::fault::Fault::needs_repair
    pub(super) keeps_repair_log: bool,
    /// Precomputed `InterestMask::solo(me)`: an update whose shard has
    /// this mask has no other replica to reach.
    solo: InterestMask,
    /// Per-recipient envelopes flushed since the last completed drain
    /// (the per-edge repair logs; empty unless `keeps_repair_log`).
    pub(super) epoch_sent: Vec<Vec<BatchMsg<T::Input>>>,
    /// The flush and delivery lists, kept between calls so neither
    /// handler allocates one per batch (both are empty at rest).
    outbox: Vec<(NodeId, BatchMsg<T::Input>)>,
    deliverable: Vec<BatchMsg<T::Input>>,
    /// Read-routing table for the current epoch: a live replica per
    /// shard, recomputed at every boundary from the shared schedule.
    pub(super) read_route: Vec<NodeId>,
    /// The reply slot: a routed read is outstanding. The server
    /// certifies what it answers, so the reply's value is not kept.
    pub(super) awaiting_reply: bool,
    /// This worker's cumulative counters; `c.ops` doubles as the
    /// script position.
    pub(super) c: Counters,
    /// `c` as of the last epoch close (per-epoch row deltas).
    pub(super) prev: Counters,
    pub(super) published: &'a Published,
    /// Deterministic per-epoch counter rows, epoch order.
    pub(super) rows: Vec<EpochMetrics>,
    pub(super) recoveries: Vec<RecoveryStats>,
    /// In-run crash recovery goes through the disk ladder (own log
    /// replay + co-replica delta fetch) instead of full state transfer.
    pub(super) disk_recovery: bool,
    /// The replica is down, from its crash cut until its recovery
    /// transfer is in: [`Worker::handle`] drops what arrives, counted
    /// in `c.discarded`, except that transfer.
    pub(super) discarding: bool,
    /// Helper side of a recovery: `sync_req[q]` is recoverer `q`'s
    /// handshake (its `full` flag) from arrival until it is served.
    pub(super) sync_req: Vec<Option<bool>>,
    /// Recoverer side: transfer replies still to come, and the
    /// `(shards, objects)` the ones already in have installed.
    pub(super) sync_replies: usize,
    pub(super) synced: (u64, u64),
    pub(super) taps: Taps<'a, T>,
}

impl<'a, T, E> Worker<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<StoreMsg<T::Input, T::Output, T::State>>,
{
    #[allow(clippy::too_many_arguments)]
    pub(super) fn new(
        adt: &'a T,
        cfg: &'a StoreConfig,
        sched: &'a ChaosSchedule,
        map: &'a ShardMap,
        ep: E,
        coord: &'a Coordinator,
        pool: Arc<BufPool<WireOp<T::Input>>>,
        published: &'a Published,
        taps: Taps<'a, T>,
    ) -> Self {
        let me = ep.me();
        let n = ep.cluster_size();
        // a worker's spilled buffers can serve its peers only when the
        // transport moves envelopes rather than re-encoding them
        let proto = if ep.moves_messages() {
            InterestBatchCausalBroadcast::with_pool(me, n, pool)
        } else {
            InterestBatchCausalBroadcast::new(me, n)
        };
        // the chaos RNG stream is decorrelated from the workload RNGs
        let chaos_seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(me as u64)
            ^ 0xC4A0_5C4A_05C4_A05C;
        let mut ep = ChaosEndpoint::new(ep, chaos_seed);
        ep.schedule(sched.link_plan.clone().into_schedule());
        if let Some(cap) = taps.fault_event_cap() {
            ep.record_events(cap);
        }
        Worker {
            adt,
            cfg,
            sched,
            map,
            ep,
            coord,
            me,
            proto,
            table: ObjectTable::new(adt, cfg.objects.max(1), cfg.mode),
            clock: LamportClock::new(),
            crashed: false,
            quiesce_idx: 0,
            keeps_repair_log: cfg.chaos.events().iter().any(|e| e.fault.needs_repair()),
            solo: InterestMask::solo(me),
            epoch_sent: vec![Vec::new(); n],
            outbox: Vec::new(),
            deliverable: Vec::new(),
            read_route: vec![0; map.shards()],
            awaiting_reply: false,
            c: Counters::default(),
            prev: Counters::default(),
            published,
            rows: Vec::new(),
            recoveries: Vec::new(),
            disk_recovery: taps.logging() && cfg.durable.recover_from_disk,
            discarding: false,
            sync_req: vec![None; n],
            sync_replies: 0,
            synced: (0, 0),
            taps,
        }
    }

    /// One operation of the hot loop. A read of a shard this replica
    /// does not host leaves its request outstanding and returns it:
    /// the op ends in [`Worker::read_done`] once the host's group wait
    /// has brought the reply in.
    pub(super) fn step<G>(&mut self, gen: &G, rng: &mut StdRng) -> Option<RoutedRead>
    where
        G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    {
        self.ep.tick();
        self.pump();
        let op = gen(self.me, self.c.ops, rng);
        let routed = self.execute(op);
        if routed.is_none() {
            self.c.ops += 1;
        }
        routed
    }

    /// Execute one operation against the local replica. Updates and
    /// hosted reads are wait-free; a read of a non-hosted object is
    /// sent to a replica of its shard and returned outstanding.
    fn execute(&mut self, op: SpaceInput<T::Input>) -> Option<RoutedRead> {
        let is_update = self.adt.is_update(&op.input);
        let shard = self.map.shard_of(op.obj);
        let hosted = self.map.hosts(self.me, shard);
        if !is_update && !hosted {
            let t = self.taps.read_start();
            let server = self.read_route[shard];
            self.remote_read(server, op.obj, op.input);
            return Some(RoutedRead {
                t,
                obj: op.obj,
                shard,
                server,
            });
        }
        let t = self.taps.op_start(self.c.ops);
        // updates always execute at a replica of their object
        let (obj, shard) = if hosted {
            (op.obj, shard)
        } else {
            let obj = self.map.localize(self.me, op.obj);
            (obj, self.map.shard_of(obj))
        };
        let ts = Timestamp::new(self.clock.tick(), self.me);
        let output = self.table.output(self.adt, obj, &op.input);
        if is_update {
            self.c.updates += 1;
            self.table.apply_update(self.adt, obj, ts, &op.input);
        } else {
            self.c.reads += 1;
        }
        let wseq = self
            .taps
            .own_op(self.c.ops, obj, ts, &op.input, output, is_update);
        if is_update {
            let mask = self.map.mask(shard);
            if mask != self.solo {
                // at least one other replica is interested
                let pending = self.proto.push(
                    WireOp {
                        obj,
                        input: op.input,
                        ts,
                        wseq,
                    },
                    mask,
                );
                self.c.peak_pending = self.c.peak_pending.max(pending as u64);
                if pending >= self.cfg.batch.threshold() {
                    self.flush_mask(mask);
                }
            }
        }
        self.taps.op_done(t, self.c.ops, obj, is_update);
        None
    }

    /// Route a read of a non-hosted object to `server`, a live replica
    /// of its shard. The reply is waited for by the host
    /// ([`Host::wait`]), which serves every other message kind — on
    /// every worker it hosts — meanwhile, so two workers reading across
    /// each other can never deadlock, and a server on this worker's
    /// own thread answers inside the wait.
    ///
    /// [`Host::wait`]: super::host::Host::wait
    fn remote_read(&mut self, server: NodeId, obj: u32, input: T::Input) {
        self.c.remote_reads += 1;
        self.c.reads += 1;
        self.ep.send_reliable(
            server,
            StoreMsg::ReadReq { obj, input },
            read_req_bytes::<T::Input>(),
        );
        self.awaiting_reply = true;
    }

    /// The reply to `read` is in: time it and finish the op.
    pub(super) fn read_done(&mut self, read: RoutedRead) {
        let RoutedRead {
            t,
            obj,
            shard,
            server,
        } = read;
        self.taps.read_routed(t, self.c.ops, obj, shard, server);
        self.c.ops += 1;
    }

    /// Seal and ship one mask's pending batch through the fault layer.
    fn flush_mask(&mut self, mask: InterestMask) {
        self.proto.flush_mask_into(mask, &mut self.outbox);
        self.ship();
    }

    /// Ship every pending batch, in first-push mask order (drains).
    pub(super) fn flush_all(&mut self) {
        self.proto.flush_all_into(&mut self.outbox);
        self.ship();
    }

    /// Send the stamped envelopes in `outbox` through the fault layer,
    /// keeping a copy of each in its recipient's epoch repair log when
    /// the plan can lose it between live replicas — the one place that
    /// rule and the byte accounting live, so the threshold-flush and
    /// drain-flush paths can never diverge.
    fn ship(&mut self) {
        let mut envs = std::mem::take(&mut self.outbox);
        self.taps.flushed(&envs, &self.proto);
        for (to, env) in envs.drain(..) {
            // the exact delta header size (the dense era charged a flat
            // 8·n² here), computed once per envelope; it depends on
            // flush-time knowledge, so `matrix_bytes` — unlike the
            // message/batch/payload counts — is not
            // interleaving-deterministic
            let header = env.knows.wire_len(env.sender, env.seq);
            self.c.matrix_bytes += header as u64;
            self.c.payload_copy_ops += env.payload.len() as u64;
            let bytes = header + env.payload.len() * op_bytes::<T::Input>();
            if self.keeps_repair_log {
                // a nack can arrive only when an envelope can be lost
                // between live replicas; every other plan — crash-only
                // included, whose misses the recovery transfer and
                // resync close — skips the clone and the kept memory
                self.c.repair_copies += 1;
                self.epoch_sent[to].push(env.clone());
            }
            self.ep.send(to, StoreMsg::Batch(env), bytes);
        }
        self.outbox = envs;
    }

    /// Handle one inbound message: the engine's only inbound switch.
    fn handle(&mut self, from: NodeId, msg: StoreMsg<T::Input, T::Output, T::State>) {
        match msg {
            StoreMsg::SyncReq { full } => {
                debug_assert!(self.sync_req[from].is_none(), "a second handshake");
                self.sync_req[from] = Some(full);
            }
            StoreMsg::ShardSync(payload) if self.sync_replies > 0 => self.install_shards(&payload),
            StoreMsg::ShardDelta(payload) if self.sync_replies > 0 => self.apply_delta(&payload),
            // a down replica's state is re-established by its recovery
            // transfer, not by late delivery
            _ if self.discarding => self.c.discarded += 1,
            StoreMsg::Batch(env) => self.deliver(env),
            StoreMsg::Repair(envs) => {
                for env in envs {
                    self.deliver(env);
                }
            }
            StoreMsg::Nack if self.keeps_repair_log => self.serve_nack(from),
            StoreMsg::Nack => {
                // a nack that no repair log can answer is a protocol
                // bug: an empty repair would leave the nacker waiting
                // on its gap for ever
                self.c.discarded += 1;
                debug_assert!(false, "nack under a plan that keeps no repair log");
            }
            StoreMsg::ReadReq { obj, input } => {
                let output = self.table.output(self.adt, obj, &input);
                self.c.reads_served += 1;
                self.taps.served_read(self.c.ops, obj, &input, &output);
                self.ep.send_reliable(
                    from,
                    StoreMsg::ReadReply { output },
                    read_reply_bytes::<T::Output>(),
                );
            }
            StoreMsg::ReadReply { .. } if self.awaiting_reply => self.awaiting_reply = false,
            StoreMsg::ReadReply { .. } => {
                // a reply with no read outstanding is a protocol bug:
                // it must not satisfy the next read
                self.c.discarded += 1;
                debug_assert!(false, "read reply with no outstanding request");
            }
            StoreMsg::ShardSync(_) | StoreMsg::ShardDelta(_) => {
                // a state transfer nobody awaits is a protocol bug;
                // tolerate and count rather than corrupt the replica
                self.c.discarded += 1;
                debug_assert!(false, "state transfer with no reply pending");
            }
        }
    }

    /// Integrate everything that has arrived (non-blocking).
    pub(super) fn pump(&mut self) -> bool {
        let mut got_any = false;
        while let Some((from, msg)) = self.ep.try_recv() {
            got_any = true;
            self.handle(from, msg);
        }
        got_any
    }

    /// Deliver one batch envelope through the interest causal layer,
    /// then hand each applied envelope's buffers back to it.
    fn deliver(&mut self, env: BatchMsg<T::Input>) {
        let mut batches = std::mem::take(&mut self.deliverable);
        self.proto.on_receive_into(env, &mut batches);
        for batch in batches.drain(..) {
            self.c.delivered += 1;
            self.taps.delivered(&batch, &self.proto);
            for op in &batch.payload {
                self.clock.observe(op.ts.time);
                self.table.apply_update(self.adt, op.obj, op.ts, &op.input);
                self.taps.delivered_op(self.c.ops, batch.sender, op);
            }
            self.proto.recycle(batch);
        }
        self.deliverable = batches;
        self.c.peak_buffered = self.c.peak_buffered.max(self.proto.buffered() as u64);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::engine::host::Host;
    use cbm_adt::register::{RegInput, RegOutput, Register};
    use cbm_net::thread_net::{Endpoint, ThreadNet};
    use cbm_obs::Registry;
    use std::time::Instant;

    type Msg = StoreMsg<RegInput, RegOutput, u64>;

    /// Everything worker 0 of a 2-node `ThreadNet` borrows, for tests
    /// that drive one worker by hand on the test thread.
    pub(in crate::engine) struct Rig {
        cfg: StoreConfig,
        map: ShardMap,
        sched: ChaosSchedule,
        pub coord: Coordinator,
        pub registry: Registry,
        pub published: Published,
    }

    impl Rig {
        pub(crate) fn new() -> Self {
            let cfg = StoreConfig {
                workers: 2,
                objects: 4,
                ..StoreConfig::default()
            };
            let map = ShardMap::build(&cfg);
            let mut registry = Registry::new();
            Rig {
                coord: Coordinator::new(2, 1, map.shards()),
                map,
                sched: ChaosSchedule::build(&cfg),
                published: Published::register(&mut registry),
                registry,
                cfg,
            }
        }

        /// Worker 0, and node 1's endpoint to play its peer.
        pub(crate) fn worker(&self) -> (Worker<'_, Register, Endpoint<Msg>>, Endpoint<Msg>) {
            let mut eps = ThreadNet::new(2).into_endpoints();
            let (peer, ep) = (eps.pop().unwrap(), eps.pop().unwrap());
            let (cfg, map) = (&self.cfg, &self.map);
            // no verifier thread: window records go nowhere
            let windows = std::sync::mpsc::channel().0;
            let taps = Taps::new(&Register, cfg, map, 0, false, windows, Instant::now());
            let (coord, published) = (&self.coord, &self.published);
            let pool = Arc::new(BufPool::new(2));
            let w = Worker::new(
                &Register,
                cfg,
                &self.sched,
                map,
                ep,
                coord,
                pool,
                published,
                taps,
            );
            (w, peer)
        }
    }

    /// A routed read waits by serving: a peer's request and a batch
    /// that arrive ahead of the reply are handled, in arrival order,
    /// before the host's wait returns — and a second reply satisfies
    /// nothing.
    #[test]
    fn a_routed_read_serves_what_arrives_before_its_reply() {
        let rig = Rig::new();
        let (w, peer) = rig.worker();
        let mut host = Host::new(vec![w]);
        let mut proto = InterestBatchCausalBroadcast::new(1, 2);
        let write = WireOp {
            obj: 0,
            input: RegInput::Write(7),
            ts: Timestamp::new(1, 1),
            wseq: None,
        };
        proto.push(write, InterestMask::first_n(2));
        let (_, env) = proto.flush_all().pop().unwrap();
        let (read, zero) = (RegInput::Read, RegOutput::Val(0));
        let reply = || StoreMsg::ReadReply { output: zero };
        let req = StoreMsg::ReadReq {
            obj: 0,
            input: read,
        };
        peer.send(0, req);
        peer.send(0, StoreMsg::Batch(env));
        peer.send(0, reply());
        host.ws[0].remote_read(1, 1, read);
        host.wait(|ws| !ws[0].awaiting_reply);
        let w = &mut host.ws[0];
        assert_eq!((w.c.reads_served, w.c.delivered), (1, 1));
        assert_eq!(w.table.output(&Register, 0, &read), RegOutput::Val(7));
        // the peer got this worker's request, then the answer to its
        // own, served before the batch was delivered
        let got: Vec<_> = std::iter::from_fn(|| peer.try_recv()).collect();
        let [(0, StoreMsg::ReadReq { obj: 1, .. }), (0, StoreMsg::ReadReply { output })] = got[..]
        else {
            panic!("{got:?}");
        };
        assert_eq!(output, zero);

        // a stray reply is counted as discarded (and, being a protocol
        // bug, trips the debug assertion)
        peer.send(0, reply());
        let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.pump()));
        assert_eq!(pumped.is_err(), cfg!(debug_assertions));
        assert_eq!(w.c.discarded, 1);
    }
}
