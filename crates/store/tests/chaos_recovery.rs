//! Chaos-hardened engine: fault-injected live runs, crash/recovery
//! state transfer, and the determinism contract.
//!
//! The headline property (the proptest below): a run that crashes a
//! worker at a random epoch and recovers it later converges to **the
//! same final object space** as the fault-free run of the same seed,
//! in both modes — the recovery protocol (cut snapshot + frontier +
//! missed-envelope replay + script resumption) loses nothing and
//! duplicates nothing. The counter space makes the comparison exact in
//! causal mode too: counter updates commute, so any causally
//! consistent delivery of the same op multiset folds to the same sums.

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_store::{
    profile, run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig,
    StoreReport, VerifyConfig, PROFILE_NAMES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const EVERY: usize = 80;

fn cfg(mode: Mode, workers: usize, ops: usize, seed: u64, chaos: FaultPlan) -> StoreConfig {
    StoreConfig {
        workers,
        objects: 16,
        ops_per_worker: ops,
        mode,
        batch: BatchPolicy::Every(4),
        verify: VerifyConfig {
            every_ops: EVERY,
            window_ops: 12,
            sample_every: 1,
            monitor: false,
        },
        seed,
        sharding: ShardConfig::full(),
        chaos,
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

fn counter_gen(objects: u32) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<CtInput> + Sync {
    move |_, _, rng| {
        let obj = rng.gen_range(0u32..objects);
        if rng.gen_bool(0.3) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..100)))
        }
    }
}

fn reg_gen(objects: u32) -> impl Fn(usize, u64, &mut StdRng) -> SpaceInput<RegInput> + Sync {
    move |_, _, rng| {
        let obj = rng.gen_range(0u32..objects);
        if rng.gen_bool(0.5) {
            SpaceInput::new(obj, RegInput::Read)
        } else {
            SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1000)))
        }
    }
}

fn assert_windows_ok(r: &StoreReport) {
    assert!(!r.windows.is_empty(), "no verification windows sampled");
    for w in &r.windows {
        assert!(
            w.result.is_ok(),
            "window {} [{}] failed: {:?}",
            w.window,
            w.criterion,
            w.result
        );
    }
    assert!(r.verified());
}

fn assert_same_final_state(a: &StoreReport, b: &StoreReport, what: &str) {
    let h = a.final_state_hashes[0];
    assert!(
        a.final_state_hashes.iter().all(|&x| x == h),
        "{what}: chaos-run replicas diverged: {:?}",
        a.final_state_hashes
    );
    assert!(
        b.final_state_hashes.iter().all(|&x| x == h),
        "{what}: fault-free twin disagrees: {:?} vs {h:#x}",
        b.final_state_hashes
    );
}

/// Crash worker `victim` at epoch `crash_e`, recover at `recover_e`,
/// and require byte-identical convergence with the fault-free twin.
fn check_crash_recovery(mode: Mode, victim: usize, crash_e: u64, recover_e: u64, seed: u64) {
    let ops = 4 * EVERY; // 4 fault-free epochs; the span stretches the run
    let plan = FaultPlan::new()
        .at(crash_e * EVERY as u64, Fault::Crash(victim))
        .at(recover_e * EVERY as u64, Fault::Recover(victim));
    let chaos = run(&Counter, &cfg(mode, 3, ops, seed, plan), counter_gen(16));
    let free = run(
        &Counter,
        &cfg(mode, 3, ops, seed, FaultPlan::new()),
        counter_gen(16),
    );

    assert_eq!(chaos.total_ops, free.total_ops, "script must resume fully");
    assert_same_final_state(&chaos, &free, "crash-recovery");
    assert_windows_ok(&chaos);
    assert_windows_ok(&free);

    // exactly one recovery, through a live helper, replaying the
    // envelopes the victim missed
    assert_eq!(chaos.chaos.recoveries.len(), 1);
    let rec = &chaos.chaos.recoveries[0];
    assert_eq!(rec.worker, victim);
    assert_eq!((rec.crash_epoch, rec.recover_epoch), (crash_e, recover_e));
    assert_ne!(rec.helper, victim);
    assert!(
        rec.synced_shards > 0,
        "recovery must install every hosted shard's state"
    );
    assert!(rec.synced_objects > 0);

    // at least one window spans the recovery drain and still verifies
    let spanning: Vec<_> = chaos.windows.iter().filter(|w| w.spans_recovery).collect();
    assert!(!spanning.is_empty(), "no window spans the recovery");
    assert!(spanning.iter().all(|w| w.result.is_ok()));
    // windows during the outage carry the victim as a crashed part
    assert!(chaos.windows.iter().any(|w| w.crashed_workers == 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The satellite property: crash at a random epoch + recovery
    /// converges to the fault-free final state, in both modes.
    #[test]
    fn crash_recovery_matches_fault_free_run(
        crash_e in 1u64..=2,
        extra in 1u64..=2,
        seed in 0u64..1_000,
        convergent in proptest::bool::ANY,
    ) {
        let mode = if convergent { Mode::Convergent } else { Mode::Causal };
        check_crash_recovery(mode, 2, crash_e, crash_e + extra, seed);
    }
}

/// Crash/recovery under partial replication (rf = 2 of 4 workers):
/// every hosted shard is re-installed from live co-replica helpers,
/// and the run ends byte-identical — replica by replica — to its
/// fault-free twin (cross-replica equality does not apply: partial
/// replicas host different shards).
fn check_sharded_crash_recovery(
    mode: Mode,
    victim: usize,
    crash_e: u64,
    recover_e: u64,
    seed: u64,
    placement_seed: u64,
) {
    let ops = 4 * EVERY;
    let plan = FaultPlan::new()
        .at(crash_e * EVERY as u64, Fault::Crash(victim))
        .at(recover_e * EVERY as u64, Fault::Recover(victim));
    let mut chaos_cfg = cfg(mode, 4, ops, seed, plan);
    chaos_cfg.sharding = ShardConfig {
        shards: 0,
        replication: 2,
        placement_seed,
        locality: 0,
    };
    let mut free_cfg = cfg(mode, 4, ops, seed, FaultPlan::new());
    free_cfg.sharding = chaos_cfg.sharding;

    let chaos = run(&Counter, &chaos_cfg, counter_gen(16));
    let free = run(&Counter, &free_cfg, counter_gen(16));

    assert_eq!(chaos.total_ops, free.total_ops, "script must resume fully");
    assert_eq!(
        chaos.final_state_hashes, free.final_state_hashes,
        "every replica must end byte-identical to its fault-free twin"
    );
    assert_windows_ok(&chaos);
    assert_windows_ok(&free);
    assert!(chaos.windows.iter().all(|w| w.shard.is_some()));

    assert_eq!(chaos.chaos.recoveries.len(), 1);
    let rec = &chaos.chaos.recoveries[0];
    assert_eq!(rec.worker, victim);
    assert!(
        rec.synced_shards > 0,
        "the victim hosts shards; recovery must re-install them"
    );
    let spanning: Vec<_> = chaos.windows.iter().filter(|w| w.spans_recovery).collect();
    assert!(!spanning.is_empty(), "no window spans the recovery");
    assert!(spanning.iter().all(|w| w.result.is_ok()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The sharded satellite property: crash/recovery at rf=2
    /// converges to the fault-free twin across random victims, spans,
    /// seeds, and placements, in both modes.
    #[test]
    fn sharded_crash_recovery_matches_fault_free_run(
        victim in 1usize..=3,
        crash_e in 1u64..=2,
        extra in 1u64..=2,
        seed in 0u64..1_000,
        placement_seed in 0u64..8,
        convergent in proptest::bool::ANY,
    ) {
        let mode = if convergent { Mode::Convergent } else { Mode::Causal };
        check_sharded_crash_recovery(mode, victim, crash_e, crash_e + extra, seed, placement_seed);
    }
}

#[test]
fn crash_of_a_finished_worker_still_recovers() {
    // the victim completes its whole script in epoch 0, then crashes:
    // the schedule must stretch the run through the recovery boundary
    // so the worker rejoins (and the final convergence check sees a
    // synced replica, not a stale one)
    let e = EVERY as u64;
    let plan = FaultPlan::new()
        .at(e, Fault::Crash(2))
        .at(2 * e, Fault::Recover(2));
    let chaos = run(
        &Counter,
        &cfg(Mode::Convergent, 3, EVERY, 13, plan),
        counter_gen(16),
    );
    let free = run(
        &Counter,
        &cfg(Mode::Convergent, 3, EVERY, 13, FaultPlan::new()),
        counter_gen(16),
    );
    assert_eq!(chaos.chaos.recoveries.len(), 1);
    assert_same_final_state(&chaos, &free, "finished-worker crash");
    assert!(chaos.verified());
}

#[test]
fn rolling_crashes_recover_in_sequence() {
    let e = EVERY as u64;
    let plan = FaultPlan::new()
        .at(e, Fault::Crash(2))
        .at(2 * e, Fault::Recover(2))
        .at(2 * e, Fault::Crash(1))
        .at(3 * e, Fault::Recover(1));
    let chaos = run(
        &Counter,
        &cfg(Mode::Convergent, 3, 4 * EVERY, 9, plan),
        counter_gen(16),
    );
    let free = run(
        &Counter,
        &cfg(Mode::Convergent, 3, 4 * EVERY, 9, FaultPlan::new()),
        counter_gen(16),
    );
    assert_same_final_state(&chaos, &free, "rolling-crashes");
    assert_windows_ok(&chaos);
    assert_eq!(chaos.chaos.recoveries.len(), 2);
}

#[test]
fn link_fault_profiles_verify_windows_in_both_modes() {
    for name in [
        "lossy-mesh",
        "duplicate-storm",
        "latency-spike",
        "partition-flap",
    ] {
        for mode in [Mode::Causal, Mode::Convergent] {
            let plan = profile(name, 3, EVERY).expect(name);
            let r = run(&Register, &cfg(mode, 3, 3 * EVERY, 21, plan), reg_gen(16));
            assert_windows_ok(&r);
            assert!(r.chaos.active);
            match name {
                "lossy-mesh" => {
                    assert!(r.chaos.drops > 0, "{name}: nothing dropped");
                    assert!(r.chaos.repairs > 0, "{name}: drops need repairs");
                }
                "duplicate-storm" => assert!(r.chaos.dups > 0, "{name}: nothing duplicated"),
                "latency-spike" => assert!(r.chaos.delayed > 0, "{name}: nothing delayed"),
                "partition-flap" => {
                    assert!(r.chaos.parked > 0, "{name}: nothing parked");
                    assert!(
                        r.chaos.released > 0,
                        "{name}: heal must release parked sends"
                    );
                }
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn every_profile_reproduces_counts_exactly() {
    for name in PROFILE_NAMES {
        let plan = profile(name, 3, EVERY).expect(name);
        let make = || {
            run(
                &Register,
                &cfg(Mode::Convergent, 3, 3 * EVERY, 33, plan.clone()),
                reg_gen(16),
            )
        };
        let a = make();
        let b = make();
        assert_windows_ok(&a);
        assert_eq!(a.msgs_sent, b.msgs_sent, "{name}: msgs_sent");
        // note: bytes_sent is *not* compared — delta-encoded knowledge
        // headers size by how much changed on an edge since its
        // previous envelope, which depends on delivery interleaving;
        // the deterministic contract covers message/batch/payload
        // counts, not byte totals (see docs/SHARDING.md)
        assert_eq!(a.batches_sent, b.batches_sent, "{name}: batches_sent");
        assert_eq!(a.payloads_sent, b.payloads_sent, "{name}: payloads_sent");
        assert_eq!(a.chaos.drops, b.chaos.drops, "{name}: drops");
        assert_eq!(a.chaos.dups, b.chaos.dups, "{name}: dups");
        assert_eq!(a.chaos.nacks, b.chaos.nacks, "{name}: nacks");
        assert_eq!(a.chaos.repairs, b.chaos.repairs, "{name}: repairs");
        assert_eq!(
            a.chaos.repaired_batches, b.chaos.repaired_batches,
            "{name}: repaired_batches"
        );
        assert_eq!(
            a.chaos.dropped_per_node, b.chaos.dropped_per_node,
            "{name}: dropped_per_node"
        );
        // note: register *states* are not compared — Lamport timestamps
        // depend on delivery interleaving, so the arbitration winner may
        // legitimately differ between runs; state identity is asserted
        // with the commutative counter space elsewhere
        for (x, y) in a.chaos.recoveries.iter().zip(&b.chaos.recoveries) {
            assert_eq!(x.synced_shards, y.synced_shards, "{name}: synced shards");
            assert_eq!(x.synced_objects, y.synced_objects, "{name}: synced objects");
        }
    }
}

#[test]
fn mixed_chaos_survives_with_counter_state_identity() {
    let plan = profile("mixed-chaos", 3, EVERY).unwrap();
    let chaos = run(
        &Counter,
        &cfg(Mode::Convergent, 3, 4 * EVERY, 5, plan),
        counter_gen(16),
    );
    let free = run(
        &Counter,
        &cfg(Mode::Convergent, 3, 4 * EVERY, 5, FaultPlan::new()),
        counter_gen(16),
    );
    assert_windows_ok(&chaos);
    assert_same_final_state(&chaos, &free, "mixed-chaos");
    assert!(chaos.chaos.drops > 0 && chaos.chaos.dups > 0);
    assert_eq!(chaos.chaos.recoveries.len(), 1);
}

/// Only a plan that can lose an envelope between live replicas keeps
/// repair logs: under it every stamped envelope is copied once, under
/// any other plan none is — and a crash-only plan, whose misses the
/// recovery transfer and resync close, never nacks. (A plan that lost
/// envelopes without keeping logs would nack a worker that cannot
/// answer, which trips the engine's debug assertion.)
#[test]
fn only_a_plan_that_loses_between_live_replicas_keeps_a_repair_log() {
    for name in PROFILE_NAMES {
        let plan = profile(name, 3, EVERY).expect(name);
        let r = run(
            &Register,
            &cfg(Mode::Causal, 3, 3 * EVERY, 21, plan),
            reg_gen(16),
        );
        assert_windows_ok(&r);
        let metric = |m| r.metric(m).expect("a published counter");
        let copies = metric("repair_log_copies_total");
        let stamped =
            metric("envelope_bufs_reused_total") + metric("envelope_bufs_allocated_total");
        match *name {
            "lossy-mesh" | "partition-flap" | "mixed-chaos" => {
                assert!(copies > 0, "{name}: a lossy plan keeps its repair logs");
                assert_eq!(copies, stamped, "{name}: one copy per stamped envelope");
            }
            "crash-recover" | "rolling-crashes" => {
                assert_eq!((copies, r.chaos.nacks), (0, 0), "{name}: nothing to repair");
                assert!(!r.chaos.recoveries.is_empty(), "{name}: a crash recovered");
            }
            "duplicate-storm" | "latency-spike" => assert_eq!(copies, 0, "{name}: loses nothing"),
            _ => unreachable!("{name}: a profile this test does not classify"),
        }
    }
}
