//! Criterion bench: protocol-layer throughput. (a) the causal
//! broadcast state machine alone (buffering + delivery checks), and
//! (b) end-to-end over real threads (`ThreadNet`), which exercises the
//! wait-free pipeline under true parallelism.

use cbm_net::broadcast::{CausalBroadcast, CausalMsg};
use cbm_net::thread_net::ThreadNet;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// In-order delivery of `n_msgs` messages between two endpoints.
fn protocol_only(n_msgs: usize) {
    let mut a: CausalBroadcast<u64> = CausalBroadcast::new(0, 2);
    let mut b: CausalBroadcast<u64> = CausalBroadcast::new(1, 2);
    for i in 0..n_msgs as u64 {
        let m = a.broadcast(i);
        let delivered = b.on_receive(m);
        assert_eq!(delivered.len(), 1);
    }
}

/// Worst-case buffering: deliver everything in reverse send order.
fn protocol_reversed(n_msgs: usize) {
    let mut a: CausalBroadcast<u64> = CausalBroadcast::new(0, 2);
    let mut b: CausalBroadcast<u64> = CausalBroadcast::new(1, 2);
    let msgs: Vec<CausalMsg<u64>> = (0..n_msgs as u64).map(|i| a.broadcast(i)).collect();
    let mut total = 0;
    for m in msgs.into_iter().rev() {
        total += b.on_receive(m).len();
    }
    assert_eq!(total, n_msgs);
}

/// Two threads exchanging causal broadcasts over the in-process
/// transport.
fn threaded_exchange(n_msgs: usize) {
    let mut net: ThreadNet<CausalMsg<u64>> = ThreadNet::new(2);
    let e0 = net.endpoint(0);
    let e1 = net.endpoint(1);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut proto: CausalBroadcast<u64> = CausalBroadcast::new(0, 2);
            for i in 0..n_msgs as u64 {
                let m = proto.broadcast(i);
                e0.broadcast(m);
            }
        });
        s.spawn(move || {
            let mut proto: CausalBroadcast<u64> = CausalBroadcast::new(1, 2);
            let mut delivered = 0;
            while delivered < n_msgs {
                let (_, m) = e1.recv().expect("sender alive until done");
                delivered += proto.on_receive(m).len();
            }
        });
    });
}

fn bench_broadcast(c: &mut Criterion) {
    const N: usize = 4096;
    let mut group = c.benchmark_group("causal_broadcast");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("in_order", |b| b.iter(|| protocol_only(N)));
    group.bench_function("reversed", |b| b.iter(|| protocol_reversed(N)));
    group.bench_function("threaded", |b| b.iter(|| threaded_exchange(N)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_broadcast
}
criterion_main!(benches);
