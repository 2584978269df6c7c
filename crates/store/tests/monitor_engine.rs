//! The streaming monitor threaded through the live engine: 100%
//! certification accounting, escalation determinism, and survival of
//! sharding, chaos, and crash recovery.
//!
//! The accounting identity under test everywhere: every operation is
//! certified exactly once — own invocations at their issuer, routed
//! reads at their server — so `monitor.ops_checked == total_ops` on a
//! complete run, at any replication factor and under any fault plan
//! the engine tolerates. A correct engine never produces a confirmed
//! violation, so all runs here must certify.

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::{named, FaultPlan};
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;

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

fn monitored_cfg(mode: Mode, workers: usize, seed: u64) -> StoreConfig {
    StoreConfig {
        workers,
        objects: 32,
        ops_per_worker: 2_000,
        mode,
        batch: BatchPolicy::Every(8),
        verify: VerifyConfig {
            every_ops: 500,
            window_ops: 16,
            sample_every: 1,
            monitor: true,
        },
        seed,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

fn assert_certified(r: &StoreReport) {
    assert!(r.monitor.enabled);
    assert_eq!(
        r.monitor.ops_checked, r.total_ops,
        "certification shortfall: {}/{} ops",
        r.monitor.ops_checked, r.total_ops
    );
    assert_eq!(
        r.monitor.violations, 0,
        "confirmed violations on a correct engine: {:?}",
        r.monitor.records
    );
    assert!(r.monitor.certified(r.total_ops));
    assert!(r.verified(), "monitored run failed verification");
}

#[test]
fn cc_run_certifies_every_op() {
    let r = run(&Register, &monitored_cfg(Mode::Causal, 4, 11), reg_gen(32));
    assert_certified(&r);
    assert_eq!(
        r.monitor.escalations, 0,
        "false alarms: {:?}",
        r.monitor.records
    );
    assert!(r.monitor.folds > 0, "remote updates must fold into shadows");
}

#[test]
fn ccv_run_certifies_every_op() {
    let r = run(
        &Register,
        &monitored_cfg(Mode::Convergent, 4, 11),
        reg_gen(32),
    );
    assert_certified(&r);
    assert_eq!(
        r.monitor.escalations, 0,
        "false alarms: {:?}",
        r.monitor.records
    );
    assert!(r.drains_converged);
}

#[test]
fn monitor_off_reports_disabled() {
    let mut cfg = monitored_cfg(Mode::Causal, 4, 11);
    cfg.verify.monitor = false;
    let r = run(&Register, &cfg, reg_gen(32));
    assert!(!r.monitor.enabled);
    assert_eq!(r.monitor.ops_checked, 0);
    assert!(!r.monitor.certified(r.total_ops), "vacuous certification");
    assert!(r.verified(), "monitor-off runs keep the sampled verdicts");
}

/// rf=2: reads of non-hosted objects route to a serving replica; the
/// server certifies them (`on_served_read`), the issuer doesn't. The
/// sum still covers every op exactly once.
#[test]
fn rf2_certifies_routed_reads_at_the_server() {
    let mut cfg = monitored_cfg(Mode::Causal, 4, 17);
    cfg.sharding = ShardConfig::rf(2);
    let r = run(&Register, &cfg, reg_gen(32));
    assert!(r.remote_reads > 0, "workload must route reads");
    assert_certified(&r);
}

#[test]
fn convergent_rf2_certifies() {
    let mut cfg = monitored_cfg(Mode::Convergent, 4, 17);
    cfg.sharding = ShardConfig::rf(2);
    let r = run(&Register, &cfg, reg_gen(32));
    assert_certified(&r);
}

/// Monitor counters are deterministic per `(config, seed)` — the same
/// contract the loadgen `--gate` enforces on the committed baseline.
#[test]
fn monitor_counters_are_deterministic_across_runs() {
    let cfg = monitored_cfg(Mode::Causal, 4, 23);
    let a = run(&Register, &cfg, reg_gen(32));
    let b = run(&Register, &cfg, reg_gen(32));
    assert_certified(&a);
    assert_eq!(a.monitor.ops_checked, b.monitor.ops_checked);
    assert_eq!(a.monitor.folds, b.monitor.folds);
    assert_eq!(a.monitor.escalations, b.monitor.escalations);
    assert_eq!(a.monitor.records.len(), b.monitor.records.len());
}

/// Chaos: loss + repair must not desynchronize the shadows (nack
/// retransmits re-deliver in causal order; the monitor sees each
/// update exactly once).
#[test]
fn lossy_mesh_still_certifies() {
    let mut cfg = monitored_cfg(Mode::Causal, 4, 29);
    cfg.chaos = (named("lossy-mesh").unwrap().build)(4, 500);
    let r = run(&Register, &cfg, reg_gen(32));
    assert_certified(&r);
}

#[test]
fn duplicate_storm_folds_each_update_once() {
    let mut cfg = monitored_cfg(Mode::Causal, 4, 29);
    cfg.chaos = (named("duplicate-storm").unwrap().build)(4, 500);
    let r = run(&Register, &cfg, reg_gen(32));
    assert_certified(&r);
    assert_eq!(r.monitor.escalations, 0, "{:?}", r.monitor.records);
}

/// Crash + recovery: the recovering worker's monitor rebuilds from
/// the per-shard state transfer (`install_slot` + `resync`), so
/// post-recovery traffic certifies against transferred — not
/// crashed-placeholder — shadows, the same anchoring rule recovery
/// verification windows follow.
#[test]
fn crash_recovery_rebuilds_monitor_state() {
    // counters: commutative updates keep the causal-mode comparison
    // exact across the recovery replay
    let mut cfg = monitored_cfg(Mode::Causal, 4, 31);
    cfg.chaos = (named("crash-recover").unwrap().build)(4, 500);
    let r = run(&Counter, &cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0u32..32);
        if rng.gen_bool(0.5) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..100)))
        }
    });
    assert!(r.chaos.active);
    assert_certified(&r);
}

/// The chaos analog of the determinism contract: same fault plan,
/// same seed, same monitor counters.
#[test]
fn chaos_monitor_counters_are_deterministic() {
    let mut cfg = monitored_cfg(Mode::Causal, 4, 37);
    cfg.chaos = (named("mixed-chaos").unwrap().build)(4, 500);
    cfg.sharding = ShardConfig::rf(2);
    let a = run(&Register, &cfg, reg_gen(32));
    let b = run(&Register, &cfg, reg_gen(32));
    assert_certified(&a);
    assert_eq!(a.monitor.ops_checked, b.monitor.ops_checked);
    assert_eq!(a.monitor.escalations, b.monitor.escalations);
    assert_eq!(a.monitor.violations, b.monitor.violations);
}
