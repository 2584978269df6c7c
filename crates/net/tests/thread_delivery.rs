//! Real-thread causal delivery stress test.
//!
//! N threads broadcast concurrently over [`ThreadNet`] through
//! [`CausalBroadcast`] (and, batched, through the full-mask
//! [`InterestBatchCausalBroadcast`] the store engine uses); every
//! receiver's delivery order is checked causal *independently of the
//! protocol's own bookkeeping*: per-sender
//! sequence numbers must arrive gap-free and duplicate-free, and each
//! delivered message's vector clock must be covered by what the
//! receiver had already delivered. The sweep varies cluster size,
//! message count, and a seeded interleaving (send bursts and yield
//! points), so each run exercises a different OS schedule on top of a
//! different submission pattern.

use cbm_net::broadcast::{
    full_interest, BufPool, CausalBroadcast, CausalMsg, InterestBatchCausalBroadcast, InterestMsg,
};
use cbm_net::clock::VectorClock;
use cbm_net::thread_net::ThreadNet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;

/// Independent causal-delivery monitor for one receiver.
///
/// `deliver` is called with each message in the receiver's delivery
/// order; it panics (with context) on a duplicate, a per-sender gap, or
/// a vector clock not covered by the messages delivered before it.
struct CausalMonitor {
    me: usize,
    delivered: VectorClock,
}

impl CausalMonitor {
    fn new(me: usize, n: usize) -> Self {
        CausalMonitor {
            me,
            delivered: VectorClock::new(n),
        }
    }

    /// Record one of our own broadcasts (they deliver locally at once,
    /// so peers' later messages may carry our component in their clock).
    fn locally_broadcast(&mut self) {
        self.delivered.tick(self.me);
    }

    fn deliver(&mut self, sender: usize, vc: &VectorClock) {
        assert_ne!(sender, self.me, "own messages must not be redelivered");
        let expected = self.delivered.get(sender) + 1;
        let got = vc.get(sender);
        assert!(
            got == expected,
            "receiver {}: sender {sender} seq {got}, expected {expected} ({})",
            self.me,
            if got <= self.delivered.get(sender) {
                "duplicate"
            } else {
                "gap"
            }
        );
        for j in 0..self.delivered.len() {
            if j != sender {
                assert!(
                    vc.get(j) <= self.delivered.get(j),
                    "receiver {}: message from {sender} delivered before its \
                     causal past from {j} ({} > {})",
                    self.me,
                    vc.get(j),
                    self.delivered.get(j)
                );
            }
        }
        self.delivered.tick(sender);
    }

    /// Messages delivered from peers (own broadcasts excluded).
    fn remote_total(&self) -> u64 {
        self.delivered.total() - self.delivered.get(self.me)
    }
}

/// One full-mesh run: every node broadcasts `msgs` messages in seeded
/// bursts, receiving (and echo-chaining causality) between bursts.
fn causal_stress(n: usize, msgs: u64, seed: u64) {
    let net: ThreadNet<CausalMsg<u64>> = ThreadNet::new(n);
    let eps = net.into_endpoints();
    let stats = eps[0].stats();
    thread::scope(|s| {
        for ep in eps {
            s.spawn(move || {
                let me = ep.me;
                let n = ep.cluster_size();
                let mut rng = StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37));
                let mut proto: CausalBroadcast<u64> = CausalBroadcast::new(me, n);
                let mut monitor = CausalMonitor::new(me, n);
                let mut sent = 0u64;
                while sent < msgs || monitor.remote_total() < msgs * (n as u64 - 1) {
                    // a seeded burst of broadcasts
                    let burst = rng.gen_range(0u64..=3).min(msgs - sent);
                    for _ in 0..burst {
                        let m = proto.broadcast(sent);
                        monitor.locally_broadcast();
                        sent += 1;
                        ep.broadcast(m);
                    }
                    // drain whatever has arrived; deliveries feed the
                    // next burst's vector clock (real causal chains)
                    let mut got_any = false;
                    while let Some((_, m)) = ep.try_recv() {
                        got_any = true;
                        for d in proto.on_receive(m) {
                            monitor.deliver(d.sender, &d.vc);
                        }
                    }
                    if !got_any || rng.gen_bool(0.3) {
                        // idle or seeded interleaving point: let peers run
                        thread::yield_now();
                    }
                }
                assert_eq!(proto.buffered(), 0, "receiver {me}: undelivered leftovers");
            });
        }
    });
    assert_eq!(
        stats.snapshot().msgs_sent,
        n as u64 * msgs * (n as u64 - 1),
        "every broadcast fans out to n-1 peers, none lost"
    );
}

#[test]
fn causal_delivery_seed_sweep_3_nodes() {
    for seed in 0..8 {
        causal_stress(3, 200, seed);
    }
}

#[test]
fn causal_delivery_seed_sweep_4_nodes() {
    for seed in 0..6 {
        causal_stress(4, 150, seed);
    }
}

#[test]
fn causal_delivery_wide_mesh() {
    for seed in 0..3 {
        causal_stress(6, 60, seed);
    }
}

/// One batched payload: `(origin, per-origin index, the origin's
/// monitor clock when it was pushed)`.
type Stamped = (u64, u64, VectorClock);

/// The batched mode — the interest stack with a full mask, which is
/// what the store engine runs at full replication — under the same
/// monitor. Batches are the causal unit and payload order inside a
/// batch must be preserved. Interest envelopes carry edge stamps, not a
/// vector clock, so each payload carries the *monitor's* clock instead:
/// the check stays independent of the protocol's own bookkeeping.
#[test]
fn batched_causal_delivery_across_threads() {
    for seed in 0..6 {
        batched_stress(seed, 120, 3, false);
    }
}

/// The same, with every endpoint handing each delivered batch back and
/// all four sharing one buffer pool, as the store engine's workers do:
/// a buffer that carried one thread's batch carries another's next, so
/// anything left in it would break the per-sender payload order. The
/// runs are long enough, and the batches large enough, for the
/// endpoints' own stocks to overflow into the pool.
#[test]
fn batched_causal_delivery_through_a_shared_pool() {
    let pooled: u64 = (0..6)
        .map(|seed| batched_stress(seed, 1500, 40, true))
        .sum();
    assert!(pooled > 0, "the pool never supplied a buffer");
}

/// Raises its flag if dropped by a panicking thread.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Relaxed);
        }
    }
}

/// One 4-node batched run, flushing after 1 to `max_batch` payloads;
/// `pooled`: share one [`BufPool`] and recycle every delivered batch.
/// Returns the draws the pool served.
fn batched_stress(seed: u64, msgs_per_node: u64, max_batch: usize, pooled: bool) -> u64 {
    let n = 4;
    let net: ThreadNet<InterestMsg<Vec<Stamped>>> = ThreadNet::new(n);
    let eps = net.into_endpoints();
    let pool = Arc::new(BufPool::new(n));
    let failed = AtomicBool::new(false);
    thread::scope(|s| {
        let mut nodes = Vec::new();
        for ep in eps {
            let (pool, failed) = (Arc::clone(&pool), &failed);
            nodes.push(s.spawn(move || {
                // a node that panics stops its peers, which would
                // otherwise wait forever for its payloads
                let _stop = StopOnPanic(failed);
                let me = ep.me;
                let n = ep.cluster_size();
                let mut rng = StdRng::seed_from_u64(seed ^ (me as u64) << 7);
                let mut proto: InterestBatchCausalBroadcast<Stamped> = if pooled {
                    InterestBatchCausalBroadcast::with_pool(me, n, pool)
                } else {
                    InterestBatchCausalBroadcast::new(me, n)
                };
                let mut monitor = CausalMonitor::new(me, n);
                // per-sender payload cursor: batches preserve issue order
                let mut next_payload = vec![0u64; n];
                let mut issued = 0u64;
                let mut seen = 0u64;
                let want = msgs_per_node * (n as u64 - 1);
                while (issued < msgs_per_node || seen < want) && !failed.load(Relaxed) {
                    let burst = rng.gen_range(0u64..=4).min(msgs_per_node - issued);
                    for _ in 0..burst {
                        let stamp = monitor.delivered.clone();
                        proto.push((me as u64, issued, stamp), full_interest(n));
                        issued += 1;
                        if proto.pending() >= rng.gen_range(1..=max_batch)
                            || issued == msgs_per_node
                        {
                            monitor.locally_broadcast();
                            for (to, env) in proto.flush_all() {
                                ep.send(to, env);
                            }
                        }
                    }
                    let mut got_any = false;
                    while let Some((_, m)) = ep.try_recv() {
                        got_any = true;
                        for batch in proto.on_receive(m) {
                            // the batch depends on everything its
                            // origin had delivered when it pushed the
                            // last payload, and is the origin's next
                            let (_, _, mut vc) = batch.payload.last().expect("non-empty").clone();
                            vc.tick(batch.sender);
                            assert_eq!(batch.seq, vc.get(batch.sender), "edge seq = batch count");
                            monitor.deliver(batch.sender, &vc);
                            for &(src, k, _) in &batch.payload {
                                assert_eq!(src as usize, batch.sender);
                                assert_eq!(
                                    k, next_payload[batch.sender],
                                    "payload order broken inside/across batches"
                                );
                                next_payload[batch.sender] = k + 1;
                                seen += 1;
                            }
                            if pooled {
                                proto.recycle(batch);
                            }
                        }
                    }
                    if !got_any || rng.gen_bool(0.25) {
                        thread::yield_now();
                    }
                }
                if failed.load(Relaxed) {
                    return 0;
                }
                assert_eq!(proto.buffered(), 0, "receiver {me}: undelivered leftovers");
                for (q, &cnt) in next_payload.iter().enumerate() {
                    if q != me {
                        assert_eq!(cnt, msgs_per_node, "receiver {me} missed payloads of {q}");
                    }
                }
                proto.bufs_pooled()
            }));
        }
        nodes.into_iter().map(|h| h.join().unwrap()).sum()
    })
}
