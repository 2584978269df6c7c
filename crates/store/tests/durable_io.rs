//! The durable log's I/O under the engine (`docs/DURABILITY.md`, "The
//! durability contract"): records reach the file by group commit — a
//! write per full group and per seal, not per record — while the sync
//! schedule (one per seal, three per snapshot) and the recovery ladder
//! are what they were with a write per record.

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_store::durable::GROUP_BYTES;
use cbm_store::{
    run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::fs;

/// Epochs long enough that a worker's records between two seals fill
/// a group.
const EVERY: usize = 6_000;
const VICTIM: usize = 2;

fn metric(r: &StoreReport, name: &str) -> u64 {
    r.metric(name)
        .unwrap_or_else(|| panic!("metric {name} not in snapshot"))
}

/// 3 workers, four epochs of script each, worker 2 down from boundary
/// 1 to boundary 3 and recovering from its own disk; every boundary
/// seal compacts.
fn leg(rf: usize) -> StoreReport {
    let dir = std::env::temp_dir().join(format!("cbm-durable-io-rf{rf}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let e = EVERY as u64;
    let cfg = StoreConfig {
        workers: 3,
        objects: 16,
        ops_per_worker: 4 * EVERY,
        mode: Mode::Convergent,
        batch: BatchPolicy::Every(4),
        verify: VerifyConfig {
            every_ops: EVERY,
            window_ops: 12,
            sample_every: 1,
            monitor: false,
        },
        seed: 5,
        sharding: if rf == 0 {
            ShardConfig::full()
        } else {
            ShardConfig::rf(rf)
        },
        chaos: FaultPlan::new()
            .at(e, Fault::Crash(VICTIM))
            .at(3 * e, Fault::Recover(VICTIM)),
        obs: ObsConfig::default(),
        durable: DurableConfig {
            log_dir: Some(dir.to_string_lossy().into_owned()),
            snapshot_every: 1,
            recover_from_disk: true,
            resume: false,
            halt_at_boundary: 0,
        },
    };
    let r = run(&Counter, &cfg, |_, _, rng: &mut StdRng| {
        let obj = rng.gen_range(0u32..16);
        if rng.gen_bool(0.3) {
            SpaceInput::new(obj, CtInput::Read)
        } else {
            SpaceInput::new(obj, CtInput::Add(rng.gen_range(1i64..100)))
        }
    });
    let _ = fs::remove_dir_all(&dir);
    r
}

#[test]
fn group_commit_keeps_the_sync_schedule_and_the_recovery_ladder() {
    // The seal and snapshot schedule, per worker. The victim's paused
    // script runs on past the others' (a chaos run issues its twin's
    // exact ops), so the run has six epochs. A live worker seals
    // boundaries 1..=5, the window-close drains of epochs 1..=5 and the
    // final drain 6: 11 seals, the 6 boundary ones compacting at
    // cadence 1. The victim seals boundary 1 (its crash cut,
    // compacted), sits out every drain up to boundary 3, snapshots the
    // recovered cut there, then seals window 3 through the final drain:
    // 7 seals, 5 snapshots.
    let (seals, snapshots) = (2 * 11 + 7, 2 * 6 + 5);
    for rf in [0, 2] {
        let r = leg(rf);
        assert!(r.verified(), "rf {rf}: {:?}", r.windows);

        // every applied update and every delivered batch is one record,
        // and so is every seal
        let records = metric(&r, "durable_records_total");
        assert_eq!(
            records,
            metric(&r, "updates_total") + metric(&r, "batches_delivered_total") + seals,
            "rf {rf}"
        );
        assert_eq!(
            metric(&r, "durable_syncs_total"),
            seals + 3 * snapshots,
            "rf {rf}: one sync per seal, three per snapshot"
        );
        let bytes = metric(&r, "durable_bytes_total");
        let writes = metric(&r, "durable_write_syscalls_total");
        let bound = bytes / GROUP_BYTES as u64 + seals + snapshots;
        assert!(writes <= bound, "rf {rf}: {writes} writes > {bound}");
        assert!(
            writes > seals + snapshots,
            "rf {rf}: no group filled between two seals ({bytes} bytes)"
        );

        // the victim still lands on rung 2: its own disk replays to the
        // crash cut, and the helpers ship the outage's delta
        assert_eq!(r.chaos.recoveries.len(), 1);
        let rec = &r.chaos.recoveries[0];
        assert_eq!(
            (rec.worker, rec.crash_epoch, rec.recover_epoch),
            (VICTIM, 1, 3)
        );
        assert!(
            rec.replayed_records > 0 && rec.log_bytes > 0,
            "rf {rf}: {rec:?}"
        );
        assert!(rec.synced_objects > 0, "rf {rf}: no delta shipped");
    }
}
