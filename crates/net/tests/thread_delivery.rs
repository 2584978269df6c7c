//! Real-thread causal delivery stress test.
//!
//! N threads broadcast concurrently over [`ThreadNet`] through the
//! full-mask [`InterestBatchCausalBroadcast`] — one payload per flush,
//! as the library replicas run it, or batched, as the store engine
//! does; every receiver's delivery order is checked causal
//! *independently of the protocol's own bookkeeping*: per-sender
//! sequence numbers must arrive gap-free and duplicate-free, and each
//! delivered batch's vector clock (kept by the monitors, carried in the
//! payloads) must be covered by what the receiver had already
//! delivered. The sweep varies cluster size, message count, batch
//! size, and a seeded interleaving (send bursts and yield points), so
//! each run exercises a different OS schedule on top of a different
//! submission pattern.

use cbm_net::broadcast::{full_interest, BufPool, InterestBatchCausalBroadcast, InterestMsg};
use cbm_net::thread_net::ThreadNet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;

/// Independent causal-delivery monitor for one receiver.
///
/// `deliver` is called with each batch in the receiver's delivery
/// order; it panics (with context) on a duplicate, a per-sender gap, or
/// a vector clock not covered by the batches delivered before it.
struct CausalMonitor {
    me: usize,
    /// Batches delivered per sender, own flushes included.
    delivered: Vec<u64>,
}

impl CausalMonitor {
    fn new(me: usize, n: usize) -> Self {
        CausalMonitor {
            me,
            delivered: vec![0; n],
        }
    }

    /// Record one of our own flushes (they deliver locally at once, so
    /// peers' later batches may carry our component in their clock).
    fn locally_broadcast(&mut self) {
        self.delivered[self.me] += 1;
    }

    fn deliver(&mut self, sender: usize, vc: &[u64]) {
        assert_ne!(sender, self.me, "own messages must not be redelivered");
        let expected = self.delivered[sender] + 1;
        let got = vc[sender];
        assert!(
            got == expected,
            "receiver {}: sender {sender} seq {got}, expected {expected} ({})",
            self.me,
            if got <= self.delivered[sender] {
                "duplicate"
            } else {
                "gap"
            }
        );
        for (j, (&v, &d)) in vc.iter().zip(&self.delivered).enumerate() {
            assert!(
                j == sender || v <= d,
                "receiver {}: message from {sender} delivered before its \
                 causal past from {j} ({v} > {d})",
                self.me,
            );
        }
        self.delivered[sender] += 1;
    }
}

#[test]
fn causal_delivery_seed_sweep_3_nodes() {
    for seed in 0..8 {
        batched_stress(3, seed, 200, 1, false);
    }
}

#[test]
fn causal_delivery_seed_sweep_4_nodes() {
    for seed in 0..6 {
        batched_stress(4, seed, 150, 1, false);
    }
}

#[test]
fn causal_delivery_wide_mesh() {
    for seed in 0..3 {
        batched_stress(6, seed, 60, 1, false);
    }
}

/// One batched payload: `(origin, per-origin index, the origin's
/// monitor clock when it was pushed)`.
type Stamped = (u64, u64, Vec<u64>);

/// The batched mode — what the store engine runs at full replication —
/// under the same monitor. Batches are the causal unit and payload
/// order inside a batch must be preserved. Envelopes carry edge
/// stamps, not a vector clock, so each payload carries the *monitor's*
/// clock instead: the check stays independent of the protocol's own
/// bookkeeping.
#[test]
fn batched_causal_delivery_across_threads() {
    for seed in 0..6 {
        batched_stress(4, seed, 120, 3, false);
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
        .map(|seed| batched_stress(4, seed, 1500, 40, true))
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

/// One `n`-node run, flushing after 1 to `max_batch` payloads;
/// `pooled`: share one [`BufPool`] and recycle every delivered batch.
/// Returns the draws the pool served.
fn batched_stress(n: usize, seed: u64, msgs_per_node: u64, max_batch: usize, pooled: bool) -> u64 {
    let net: ThreadNet<InterestMsg<Vec<Stamped>>> = ThreadNet::new(n);
    let eps = net.into_endpoints();
    let stats = eps[0].stats();
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
                            vc[batch.sender] += 1;
                            assert_eq!(batch.seq, vc[batch.sender], "edge seq = batch count");
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
                    return (0, 0);
                }
                assert_eq!(proto.buffered(), 0, "receiver {me}: undelivered leftovers");
                for (q, &cnt) in next_payload.iter().enumerate() {
                    if q != me {
                        assert_eq!(cnt, msgs_per_node, "receiver {me} missed payloads of {q}");
                    }
                }
                (proto.bufs_pooled(), proto.batches_sent())
            }));
        }
        let (pooled, batches) = nodes
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(p, b), (q, c)| (p + q, b + c));
        assert_eq!(
            stats.snapshot().msgs_sent,
            batches * (n as u64 - 1),
            "every flush fans out to n-1 peers, none lost"
        );
        pooled
    })
}
