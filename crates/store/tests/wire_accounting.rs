//! Store-level mirror of the transport accounting pin
//! (`bytes_are_exact_under_chaos_with_reliable_control` in
//! `cbm-net::chaos`), retargeted at the varint wire format: across
//! lossless faults (block + heal parking, link delays) interleaved
//! with reliable control traffic (routed reads under partial
//! replication), the transport's `bytes_sent` must equal exactly the
//! varint sizes the engine declared — the delta-encoded knowledge
//! headers of every shipped copy, the per-op payload bytes, and the
//! request/reply control sizes. Delta headers size by flush-time
//! knowledge, so byte totals are **not** run-to-run deterministic
//! (see `docs/SHARDING.md`); this test pins the complementary
//! guarantee that they are *exact* within a run.

use cbm_adt::register::{RegInput, RegOutput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_store::wire::{read_reply_bytes, read_req_bytes};
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;

fn metric(r: &StoreReport, name: &str) -> u64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("metric {name} not in snapshot"))
}

#[test]
fn bytes_are_exact_under_chaos_with_reliable_control() {
    // Lossless plan: parked copies heal back mid-epoch, delayed copies
    // flush at the cut — every copy reaches the wire exactly once, so
    // the declared sizes must reconcile to the byte.
    let mut chaos = FaultPlan::new();
    chaos.push(
        200,
        Fault::PartitionOneWay {
            from: vec![0],
            to: vec![1, 2, 3],
        },
    );
    chaos.push(350, Fault::DelayAll { extra: 5 });
    chaos.push(600, Fault::HealAll);
    chaos.push(700, Fault::DelayAll { extra: 0 });
    let cfg = StoreConfig {
        workers: 4,
        objects: 32,
        ops_per_worker: 3_000,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(8),
        verify: VerifyConfig {
            every_ops: 1_000,
            window_ops: 24,
            sample_every: 1,
            monitor: false,
        },
        seed: 7,
        sharding: ShardConfig::rf(2),
        chaos,
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    };
    let r = run(&Register, &cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0u32..32);
        if rng.gen_bool(0.5) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1000)))
        }
    });
    assert!(r.verified(), "windows must verify under the lossless plan");
    assert!(r.chaos.parked > 0, "the block actually parked copies");
    assert!(r.chaos.delayed > 0, "the delay actually held copies back");
    assert_eq!(r.chaos.nacks, 0, "lossless plan: no gaps at drains");
    assert!(r.remote_reads > 0, "reliable control traffic exercised");

    // batch copies: exact delta headers + flat per-op charge (see
    // `cbm_store::wire::batch_bytes`); control: one req + one reply
    // per routed read
    let per_op = (4 + 10 + 1 + std::mem::size_of::<RegInput>()) as u64;
    let expected = metric(&r, "matrix_header_bytes_total")
        + per_op * metric(&r, "payload_copy_ops_total")
        + r.remote_reads * (read_req_bytes::<RegInput>() + read_reply_bytes::<RegOutput>()) as u64;
    assert_eq!(r.bytes_sent, expected, "byte count is exact");
}
