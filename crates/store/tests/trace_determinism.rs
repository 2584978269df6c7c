//! The flight-recorder determinism contract (`docs/OBSERVABILITY.md`):
//!
//! * the **logical timeline** (the JSONL export) is byte-identical
//!   across runs at the same `(config, seed)` — under full and partial
//!   replication, and with a fault plan active;
//! * every `deliver` span's vector clock pointwise dominates its
//!   matching `batch_flush` span's clock (the flush half records the
//!   sender's knowledge *before* stamping, the deliver half the
//!   envelope's stamped edge matrix).

use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::named;
use cbm_obs::export::jsonl;
use cbm_obs::{FlightRecord, SpanKind};
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

/// A small traced config: exhaustive envelope spans (stride 1) and a
/// cap far above the span volume, so nothing is sampled away or
/// truncated and the whole timeline takes part in the byte comparison.
fn cfg(workers: usize, rf: usize, mode: Mode, batch: usize, seed: u64) -> StoreConfig {
    StoreConfig {
        workers,
        objects: 16,
        ops_per_worker: 600,
        mode,
        batch: BatchPolicy::Every(batch),
        verify: VerifyConfig {
            every_ops: 200,
            window_ops: 16,
            sample_every: 1,
            monitor: false,
        },
        seed,
        sharding: if rf == 0 {
            ShardConfig::full()
        } else {
            ShardConfig::rf(rf)
        },
        chaos: cbm_net::fault::FaultPlan::new(),
        obs: ObsConfig {
            trace: true,
            op_sample_every: 16,
            batch_sample_every: 1,
            epoch_cap: 1_000_000,
        },
        durable: DurableConfig::default(),
    }
}

fn traced(cfg: &StoreConfig) -> FlightRecord {
    let report = run(&Register, cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0u32..16);
        if rng.gen_bool(0.5) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000)))
        }
    });
    assert!(report.verified(), "{:?}", report.windows);
    report.trace.expect("tracing was enabled")
}

#[test]
fn jsonl_byte_identical_full_replication() {
    let c = cfg(4, 0, Mode::Causal, 4, 11);
    assert_eq!(jsonl(&traced(&c)), jsonl(&traced(&c)));
}

#[test]
fn jsonl_byte_identical_rf2() {
    let c = cfg(4, 2, Mode::Convergent, 4, 12);
    assert_eq!(jsonl(&traced(&c)), jsonl(&traced(&c)));
}

#[test]
fn jsonl_byte_identical_under_chaos() {
    // chaos runs trace automatically; the fault schedule is part of
    // the deterministic timeline (fault spans key on virtual tick)
    let mut c = cfg(4, 0, Mode::Causal, 4, 13);
    c.ops_per_worker = 2_000;
    c.verify.every_ops = 500;
    c.chaos = (named("lossy-mesh").expect("a catalogue plan").build)(4, 500);
    c.obs.trace = false; // exercise the automatic chaos path
    assert_eq!(jsonl(&traced(&c)), jsonl(&traced(&c)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn deliver_clock_dominates_matching_flush_clock(
        seed in 0u64..=500,
        workers in 2usize..=4,
        batch in 1usize..=4,
        convergent in proptest::bool::ANY,
    ) {
        let mode = if convergent { Mode::Convergent } else { Mode::Causal };
        let rec = traced(&cfg(workers, 0, mode, batch, seed));
        prop_assert_eq!(rec.dropped, 0, "cap must not break flush/deliver pairing");
        // flush(worker=s, peer=r, logical=seq)  <->
        // deliver(worker=r, peer=s, logical=seq): seqs are per-edge,
        // so the triple identifies the envelope
        let flushes: HashMap<(u64, u64, u64), &cbm_obs::Span> = rec
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::BatchFlush)
            .map(|s| ((u64::from(s.worker), s.peer as u64, s.logical), s))
            .collect();
        let mut matched = 0usize;
        for d in rec.spans.iter().filter(|s| s.kind == SpanKind::Deliver) {
            let key = (d.peer as u64, u64::from(d.worker), d.logical);
            let f = flushes
                .get(&key)
                .expect("every delivered envelope was flushed");
            prop_assert_eq!(d.vc.len(), f.vc.len());
            prop_assert!(!d.vc.is_empty(), "deliver spans carry the edge matrix");
            for (i, (dv, fv)) in d.vc.iter().zip(f.vc.iter()).enumerate() {
                prop_assert!(
                    dv >= fv,
                    "deliver clock [{}] = {} < flush clock {} for envelope {:?}",
                    i, dv, fv, key
                );
            }
            matched += 1;
        }
        prop_assert!(matched > 0, "workload produced no deliveries");
    }
}
