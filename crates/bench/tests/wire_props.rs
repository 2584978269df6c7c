//! One property over **every** `Wire` type in the workspace (this crate
//! sits at the top of the crate graph, so it can name them all):
//!
//! 1. decoding an encoding is the identity — same `Debug` rendering,
//!    and it re-encodes to the same bytes (which also pins `f64`
//!    bit-exactness and label re-interning);
//! 2. every strict prefix of a valid encoding decodes to `None`,
//!    without panicking — what a torn frame, a short read or a
//!    truncated log record looks like to a decoder.
//!
//! Adding a `Wire` impl anywhere means adding an `Arb` impl and one
//! `laws::<T>` line here.

use cbm_adt::counter::{CtInput, CtOutput};
use cbm_adt::register::{RegInput, RegOutput};
use cbm_adt::wire::{from_bytes, to_bytes, Wire};
use cbm_bench::proto::{Ctrl, LegSpec};
use cbm_bench::Workload;
use cbm_check::monitor::MonitorStats;
use cbm_net::broadcast::InterestMsg;
use cbm_net::clock::Timestamp;
use cbm_net::delta::KnowledgeDelta;
use cbm_net::fault::{Fault, FaultEvent, FaultPlan};
use cbm_store::durable::SealInfo;
use cbm_store::stats::{MonitorEscalation, MonitorReport};
use cbm_store::wire::{ShardDeltaPayload, ShardSyncPayload, StoreMsg, WireOp};
use cbm_store::{
    BatchPolicy, ChaosReport, DurableConfig, EpochMetrics, LatencySummary, Mode, ObsConfig,
    RecoveryStats, ShardConfig, StoreConfig, StoreReport, VerifyConfig, WindowVerdict, WorkerStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Debug;

/// A seeded arbitrary value (the proptest stand-in draws the seed).
trait Arb: Sized {
    fn arb(g: &mut StdRng) -> Self;
}

/// `Arb` for a plain struct, one field list — the test-side mirror of
/// `wire_struct!`.
macro_rules! arb_struct {
    ($($ty:ident $(<$($p:ident),+>)? { $($field:ident),+ $(,)? })+) => {$(
        impl $(<$($p: Arb),+>)? Arb for $ty $(<$($p),+>)? {
            fn arb(g: &mut StdRng) -> Self {
                $ty { $($field: Arb::arb(g),)+ }
            }
        }
    )+};
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arb for $t {
            fn arb(g: &mut StdRng) -> Self {
                // mostly small (readable failures), sometimes any bits
                if g.gen_bool(0.75) { (g.next_u64() % 64) as $t } else { g.next_u64() as $t }
            }
        }
    )*};
}

arb_int!(u8, u16, u32, u64, i64, usize);

impl Arb for u128 {
    fn arb(g: &mut StdRng) -> Self {
        u128::from(g.next_u64()) << 64 | u128::from(g.next_u64())
    }
}

impl Arb for bool {
    fn arb(g: &mut StdRng) -> Self {
        g.gen_bool(0.5)
    }
}

impl Arb for f64 {
    fn arb(g: &mut StdRng) -> Self {
        f64::from_bits(g.next_u64())
    }
}

impl Arb for String {
    fn arb(g: &mut StdRng) -> Self {
        const ALPHABET: [char; 6] = ['a', 'Z', '7', ' ', 'é', '→'];
        (0..g.gen_range(0usize..6))
            .map(|_| ALPHABET[g.gen_range(0usize..ALPHABET.len())])
            .collect()
    }
}

impl<T: Arb> Arb for Option<T> {
    fn arb(g: &mut StdRng) -> Self {
        g.gen_bool(0.5).then(|| T::arb(g))
    }
}

impl<T: Arb> Arb for Vec<T> {
    fn arb(g: &mut StdRng) -> Self {
        (0..g.gen_range(0usize..4)).map(|_| T::arb(g)).collect()
    }
}

impl<T: Arb> Arb for Box<T> {
    fn arb(g: &mut StdRng) -> Self {
        Box::new(T::arb(g))
    }
}

impl<A: Arb, B: Arb> Arb for (A, B) {
    fn arb(g: &mut StdRng) -> Self {
        (A::arb(g), B::arb(g))
    }
}

/// A report label: decoders re-intern against this vocabulary.
impl Arb for &'static str {
    fn arb(g: &mut StdRng) -> Self {
        const LABELS: [&str; 6] = ["CC", "CCv", "cyclic_co", "thin_air_read", "sat", "unknown"];
        LABELS[g.gen_range(0usize..LABELS.len())]
    }
}

impl Arb for Result<(), String> {
    fn arb(g: &mut StdRng) -> Self {
        Option::<String>::arb(g).map_or(Ok(()), Err)
    }
}

impl Arb for FaultPlan {
    fn arb(g: &mut StdRng) -> Self {
        let mut plan = FaultPlan::new();
        for FaultEvent { at, fault } in Vec::arb(g) {
            plan.push(at, fault);
        }
        plan
    }
}

/// `Arb` for an enum: one constructor expression per variant.
macro_rules! arb_enum {
    ($($ty:ident $(<$($p:ident),+>)? [$g:ident] { $($variant:expr),+ $(,)? })+) => {$(
        impl $(<$($p: Arb),+>)? Arb for $ty $(<$($p),+>)? {
            #[allow(unused_variables)] // unit variants draw nothing
            fn arb($g: &mut StdRng) -> Self {
                let variants: &[fn(&mut StdRng) -> Self] = &[$(|$g| $variant),+];
                variants[$g.gen_range(0usize..variants.len())]($g)
            }
        }
    )+};
}

arb_enum! {
    RegInput [g] { RegInput::Write(Arb::arb(g)), RegInput::Read }
    RegOutput [g] { RegOutput::Ack, RegOutput::Val(Arb::arb(g)) }
    CtInput [g] { CtInput::Add(Arb::arb(g)), CtInput::Read }
    CtOutput [g] { CtOutput::Ack, CtOutput::Val(Arb::arb(g)) }
    Mode [g] { Mode::Causal, Mode::Convergent }
    BatchPolicy [g] { BatchPolicy::Off, BatchPolicy::Every(Arb::arb(g)) }
    Workload [g] {
        Workload::Register { read_ratio: Arb::arb(g), remote_read_ratio: Arb::arb(g) },
        Workload::Counter,
    }
    Ctrl [g] {
        Ctrl::Hello(Arb::arb(g)),
        Ctrl::Run(Arb::arb(g)),
        Ctrl::Report(Arb::arb(g)),
        Ctrl::Error(Arb::arb(g)),
        Ctrl::Shutdown,
    }
    Fault [g] {
        Fault::Crash(Arb::arb(g)),
        Fault::Recover(Arb::arb(g)),
        Fault::Partition { side: Arb::arb(g) },
        Fault::PartitionOneWay { from: Arb::arb(g), to: Arb::arb(g) },
        Fault::BlockLink { from: Arb::arb(g), to: Arb::arb(g) },
        Fault::HealLink { from: Arb::arb(g), to: Arb::arb(g) },
        Fault::HealAll,
        Fault::LinkDrop { from: Arb::arb(g), to: Arb::arb(g), prob: Arb::arb(g) },
        Fault::DropAll { prob: Arb::arb(g) },
        Fault::LinkDup { from: Arb::arb(g), to: Arb::arb(g), prob: Arb::arb(g) },
        Fault::DupAll { prob: Arb::arb(g) },
        Fault::LinkDelay { from: Arb::arb(g), to: Arb::arb(g), extra: Arb::arb(g) },
        Fault::DelayAll { extra: Arb::arb(g) },
        Fault::ClockSkew { node: Arb::arb(g), offset: Arb::arb(g) },
    }
    StoreMsg<I, O, S> [g] {
        StoreMsg::Batch(Arb::arb(g)),
        StoreMsg::Nack,
        StoreMsg::Repair(Arb::arb(g)),
        StoreMsg::ShardSync(Arb::arb(g)),
        StoreMsg::ReadReq { obj: Arb::arb(g), input: Arb::arb(g) },
        StoreMsg::ReadReply { output: Arb::arb(g) },
        StoreMsg::SyncReq { full: Arb::arb(g) },
        StoreMsg::ShardDelta(Arb::arb(g)),
    }
}

/// Built from the nested `(row, cells)` form (rows may be empty, which
/// the decoders accept).
impl Arb for KnowledgeDelta {
    fn arb(g: &mut StdRng) -> Self {
        KnowledgeDelta::from_rows(Vec::<(u32, Vec<(u32, u64)>)>::arb(g))
    }
}

arb_struct! {
    Timestamp { time, pid }
    InterestMsg<P> { sender, seq, knows, payload }
    FaultEvent { at, fault }
    MonitorStats { ops_checked, folds, escalations, cleared, violations, kernel_unknown }
    WireOp<I> { obj, input, ts, wseq }
    ShardSyncPayload<S> { shards, lamport }
    ShardDeltaPayload<I> { shards, lamport }
    ShardConfig { shards, replication, placement_seed, locality }
    VerifyConfig { every_ops, window_ops, sample_every, monitor }
    ObsConfig { trace, op_sample_every, batch_sample_every, epoch_cap }
    DurableConfig { log_dir, snapshot_every, recover_from_disk, resume, halt_at_boundary }
    StoreConfig {
        workers, objects, ops_per_worker, mode, batch, verify, seed, sharding, chaos, obs,
        durable,
    }
    LatencySummary { count, p50_ns, p90_ns, p99_ns, p999_ns, max_ns, mean_ns }
    WorkerStats {
        worker, ops, reads, updates, remote_reads, reads_served, batches_sent, payloads_sent,
        batches_delivered, latency,
    }
    WindowVerdict { window, shard, criterion, events, crashed_workers, spans_recovery, result }
    RecoveryStats {
        worker, crash_epoch, recover_epoch, helper, synced_shards, synced_objects, sync_wall_ns,
        replayed_records, log_bytes,
    }
    MonitorEscalation {
        worker, epoch, at_op, obj, pattern, events, confirmed, verdict, spans_recovery, detail,
    }
    MonitorReport {
        enabled, ops_checked, folds, escalations, cleared, violations, kernel_unknown, records,
    }
    ChaosReport {
        active, drops, dups, parked, released, delayed, pruned, crash_discarded, nacks, repairs,
        repaired_batches, dropped_per_node, dup_per_node, recoveries,
    }
    EpochMetrics {
        epoch, ops, updates, remote_reads, batches, payloads, delivered, nacks, repairs, faults,
        crashed,
    }
    SealInfo { epoch, boundary, issued, lamport, delivered, state_hash, monitor }
    LegSpec { name, cfg, workload, trace, trace_dir }
}

impl Arb for StoreReport {
    fn arb(g: &mut StdRng) -> Self {
        StoreReport {
            config: Arb::arb(g),
            wall_ns: Arb::arb(g),
            total_ops: Arb::arb(g),
            ops_per_sec: Arb::arb(g),
            latency: Arb::arb(g),
            msgs_sent: Arb::arb(g),
            bytes_sent: Arb::arb(g),
            batches_sent: Arb::arb(g),
            payloads_sent: Arb::arb(g),
            mean_batch: Arb::arb(g),
            remote_reads: Arb::arb(g),
            windows: Arb::arb(g),
            windows_failed: Arb::arb(g),
            drains_converged: Arb::arb(g),
            final_state_hashes: Arb::arb(g),
            monitor: Arb::arb(g),
            chaos: Arb::arb(g),
            per_worker: Arb::arb(g),
            epochs: Arb::arb(g),
            metrics: Arb::arb(g),
            trace: None, // flight records never cross the wire
        }
    }
}

fn laws<T: Wire + Arb + Debug>(g: &mut StdRng) -> Result<(), TestCaseError> {
    let what = std::any::type_name::<T>();
    let v = T::arb(g);
    let bytes = to_bytes(&v);
    let Some(back) = from_bytes::<T>(&bytes) else {
        return Err(TestCaseError::Fail(format!(
            "{what}: {v:?} does not decode"
        )));
    };
    prop_assert_eq!(format!("{back:?}"), format!("{v:?}"), "{what}: round-trip");
    prop_assert_eq!(to_bytes(&back), bytes.clone(), "{what}: re-encode");
    for cut in 0..bytes.len() {
        prop_assert!(
            from_bytes::<T>(&bytes[..cut]).is_none(),
            "{what}: {cut}-byte prefix of {v:?} decoded"
        );
    }
    Ok(())
}

type RegMsg = StoreMsg<RegInput, RegOutput, u64>;
type CtMsg = StoreMsg<CtInput, CtOutput, i64>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_wire_type_roundtrips_and_rejects_strict_prefixes(seed in 0u64..u64::MAX) {
        let g = &mut StdRng::seed_from_u64(seed);
        // cbm-adt: primitives, containers, ADT alphabets
        laws::<u8>(g)?;
        laws::<u16>(g)?;
        laws::<u32>(g)?;
        laws::<u64>(g)?;
        laws::<u128>(g)?;
        laws::<i64>(g)?;
        laws::<usize>(g)?;
        laws::<bool>(g)?;
        laws::<f64>(g)?;
        laws::<String>(g)?;
        laws::<Option<String>>(g)?;
        laws::<Vec<Option<u16>>>(g)?;
        laws::<(u8, String)>(g)?;
        laws::<RegInput>(g)?;
        laws::<RegOutput>(g)?;
        laws::<CtInput>(g)?;
        laws::<CtOutput>(g)?;
        // cbm-net, cbm-check
        laws::<Timestamp>(g)?;
        laws::<KnowledgeDelta>(g)?;
        laws::<InterestMsg<Vec<u64>>>(g)?;
        laws::<Fault>(g)?;
        laws::<FaultEvent>(g)?;
        laws::<FaultPlan>(g)?;
        laws::<MonitorStats>(g)?;
        // cbm-store
        laws::<WireOp<RegInput>>(g)?;
        laws::<ShardSyncPayload<i64>>(g)?;
        laws::<ShardDeltaPayload<CtInput>>(g)?;
        laws::<RegMsg>(g)?;
        laws::<CtMsg>(g)?;
        laws::<Mode>(g)?;
        laws::<BatchPolicy>(g)?;
        laws::<ShardConfig>(g)?;
        laws::<VerifyConfig>(g)?;
        laws::<ObsConfig>(g)?;
        laws::<DurableConfig>(g)?;
        laws::<StoreConfig>(g)?;
        laws::<LatencySummary>(g)?;
        laws::<WorkerStats>(g)?;
        laws::<WindowVerdict>(g)?;
        laws::<RecoveryStats>(g)?;
        laws::<MonitorEscalation>(g)?;
        laws::<MonitorReport>(g)?;
        laws::<ChaosReport>(g)?;
        laws::<EpochMetrics>(g)?;
        laws::<StoreReport>(g)?;
        laws::<SealInfo>(g)?;
        // cbm-bench
        laws::<Workload>(g)?;
        laws::<LegSpec>(g)?;
        laws::<Ctrl>(g)?;
    }
}
