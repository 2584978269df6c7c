//! Criterion bench: delivery cost of the arbitrated log (generalized
//! Fig. 5) under in-order vs out-of-order timestamp arrival — the
//! checkpointed replay is the data structure this measures — plus the
//! verbatim O(k) Fig. 5 window insert as the baseline.

use cbm_adt::window::{WaInput, WindowArray};
use cbm_core::convergent::{ArbUpdate, ConvergentShared};
use cbm_core::replica::{Outgoing, Replica, Stamped};
use cbm_core::wk_array::WkArrayCcv;
use cbm_net::broadcast::CausalBroadcast;
use cbm_net::clock::Timestamp;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const N: usize = 2048;

/// Build the envelopes once: a remote replica's N writes.
fn envelopes(reverse_blocks: bool) -> Vec<cbm_net::broadcast::CausalMsg<ArbUpdate<WaInput>>> {
    let mut sender: CausalBroadcast<ArbUpdate<WaInput>> = CausalBroadcast::new(1, 2);
    let mut msgs: Vec<_> = (0..N as u64)
        .map(|i| {
            sender.broadcast(ArbUpdate {
                ts: Timestamp::new(i + 1, 1),
                op: Stamped {
                    event: i,
                    input: WaInput::Write(0, i),
                },
            })
        })
        .collect();
    if reverse_blocks {
        // reverse within blocks of 32: causal FIFO still admits it only
        // block-locally, so shuffle *timestamps* instead: swap pairs
        for chunk in msgs.chunks_mut(2) {
            if chunk.len() == 2 {
                let t = chunk[0].payload.ts;
                chunk[0].payload.ts = chunk[1].payload.ts;
                chunk[1].payload.ts = t;
            }
        }
    }
    msgs
}

fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccv_delivery");
    group.throughput(Throughput::Elements(N as u64));
    for (name, rev) in [("ts_in_order", false), ("ts_swapped_pairs", true)] {
        let msgs = envelopes(rev);
        group.bench_with_input(
            BenchmarkId::new("ConvergentShared", name),
            &msgs,
            |b, msgs| {
                b.iter_batched(
                    || {
                        let r: ConvergentShared<WindowArray> =
                            ConvergentShared::new_replica(0, 2, WindowArray::new(1, 3));
                        (r, msgs.clone())
                    },
                    |(mut r, msgs)| {
                        let mut out: Vec<Outgoing<_>> = Vec::new();
                        for m in msgs {
                            r.on_deliver(1, m, &mut out, &mut Vec::new(), &mut Vec::new());
                        }
                        r.log_len()
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    // verbatim Fig. 5: O(k) insert regardless of arrival order
    let mut sender = WkArrayCcv::new(1, 2, 1, 3);
    let msgs: Vec<_> = (0..N as u64).map(|i| sender.write(i, 0, i)).collect();
    group.bench_function("WkArrayCcv/ts_in_order", |b| {
        b.iter_batched(
            || (WkArrayCcv::new(0, 2, 1, 3), msgs.clone()),
            |(mut r, msgs)| {
                for m in msgs {
                    r.receive(m);
                }
                r.read(0)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_delivery
}
criterion_main!(benches);
