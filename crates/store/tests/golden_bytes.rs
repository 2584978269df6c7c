//! Golden-bytes fixtures: the canonical encodings of one engine
//! message, one config, one report, and one own-op + batch + seal epoch
//! log, captured before the codec traits were collapsed into
//! `cbm_adt::wire::Wire`. A TCP frame, a control-protocol body, or a
//! log record written by an older build must still decode, so any
//! change to these bytes is a format break, not a refactor.
//!
//! The fixtures are hex text under `tests/golden/`; a mismatch prints
//! the actual hex.

use cbm_adt::register::{RegInput, RegOutput};
use cbm_check::monitor::MonitorStats;
use cbm_net::broadcast::InterestMsg;
use cbm_net::clock::Timestamp;
use cbm_net::delta::KnowledgeDelta;
use cbm_net::fault::Fault;
use cbm_net::wire::{from_bytes, to_bytes};
use cbm_store::durable::{EpochLog, SealInfo};
use cbm_store::stats::{MonitorEscalation, MonitorReport};
use cbm_store::wire::{StoreMsg, WireOp};
use cbm_store::{
    BatchPolicy, ChaosReport, EpochMetrics, LatencySummary, Mode, RecoveryStats, ShardConfig,
    StoreConfig, StoreReport, WindowVerdict, WorkerStats,
};

type RegMsg = StoreMsg<RegInput, RegOutput, u64>;

fn assert_golden(what: &str, actual: &[u8], fixture: &str) {
    let hex: String = actual.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, fixture.trim(), "{what}: encoding drifted");
}

fn ops() -> Vec<WireOp<RegInput>> {
    vec![
        WireOp {
            obj: 17,
            input: RegInput::Write(123_456),
            ts: Timestamp { time: 99, pid: 2 },
            wseq: Some(3),
        },
        WireOp {
            obj: 0,
            input: RegInput::Read,
            ts: Timestamp { time: 0, pid: 0 },
            wseq: None,
        },
    ]
}

fn config() -> StoreConfig {
    let mut cfg = StoreConfig {
        workers: 6,
        objects: 512,
        ops_per_worker: 10_000,
        mode: Mode::Convergent,
        batch: BatchPolicy::Every(8),
        seed: 42,
        ..StoreConfig::default()
    };
    cfg.sharding = ShardConfig::rf_local(2, 4);
    cfg.verify.monitor = true;
    cfg.chaos.push(100, Fault::DropAll { prob: 0.01 });
    cfg.chaos.push(300, Fault::Partition { side: vec![0, 5] });
    cfg.obs.trace = true;
    cfg.durable.log_dir = Some("/tmp/cbm-logs".into());
    cfg.durable.recover_from_disk = true;
    cfg.durable.halt_at_boundary = 3;
    cfg
}

fn report() -> StoreReport {
    StoreReport {
        config: config(),
        wall_ns: u128::from(u64::MAX) + 17,
        total_ops: 1_000_000,
        ops_per_sec: 123_456.789,
        latency: LatencySummary {
            count: 9,
            p50_ns: 1,
            p90_ns: 2,
            p99_ns: 3,
            p999_ns: 4,
            max_ns: 5,
            mean_ns: 2,
        },
        msgs_sent: 10,
        bytes_sent: 11,
        batches_sent: 12,
        payloads_sent: 13,
        mean_batch: 1.083,
        remote_reads: 14,
        windows: vec![
            WindowVerdict {
                window: 0,
                shard: Some(3),
                criterion: "CCv",
                events: 48,
                crashed_workers: 1,
                spans_recovery: true,
                result: Err("divergent replica".into()),
            },
            WindowVerdict {
                window: 1,
                shard: None,
                criterion: "CC",
                events: 16,
                crashed_workers: 0,
                spans_recovery: false,
                result: Ok(()),
            },
        ],
        windows_failed: 1,
        drains_converged: false,
        final_state_hashes: vec![1, 2, 3],
        monitor: MonitorReport {
            enabled: true,
            ops_checked: 100,
            folds: 50,
            escalations: 1,
            cleared: 1,
            violations: 0,
            kernel_unknown: 0,
            records: vec![MonitorEscalation {
                worker: 1,
                epoch: 2,
                at_op: 3,
                obj: Some(9),
                pattern: "cyclic_co",
                events: 7,
                confirmed: false,
                verdict: "sat",
                spans_recovery: false,
                detail: "window of 7".into(),
            }],
        },
        chaos: ChaosReport {
            active: true,
            drops: 5,
            dups: 6,
            parked: 7,
            released: 8,
            delayed: 9,
            pruned: 10,
            crash_discarded: 11,
            nacks: 12,
            repairs: 13,
            repaired_batches: 14,
            dropped_per_node: vec![0, 5],
            dup_per_node: vec![6, 0],
            recoveries: vec![RecoveryStats {
                worker: 1,
                crash_epoch: 1,
                recover_epoch: 3,
                helper: 0,
                synced_shards: 2,
                synced_objects: 64,
                sync_wall_ns: 12345,
                replayed_records: 40,
                log_bytes: 2048,
            }],
        },
        per_worker: vec![WorkerStats {
            worker: 0,
            ops: 100,
            reads: 50,
            updates: 50,
            remote_reads: 1,
            reads_served: 4,
            batches_sent: 9,
            payloads_sent: 50,
            batches_delivered: 8,
            latency: LatencySummary::default(),
        }],
        epochs: vec![EpochMetrics {
            epoch: 0,
            ops: 100,
            updates: 50,
            remote_reads: 1,
            batches: 9,
            payloads: 50,
            delivered: 8,
            nacks: 2,
            repairs: 1,
            faults: 5,
            crashed: 1,
        }],
        metrics: vec![("store.ops".into(), 100), ("store.batches".into(), 9)],
        trace: None,
    }
}

#[test]
fn store_msg_batch_bytes_are_stable() {
    let msg: RegMsg = StoreMsg::Batch(InterestMsg {
        sender: 2,
        seq: 40,
        knows: KnowledgeDelta::from_rows([(2, vec![(0, 40), (1, 7)]), (3, vec![(1, 9)])]),
        payload: ops(),
    });
    let bytes = to_bytes(&msg);
    assert_golden("StoreMsg::Batch", &bytes, include_str!("golden/batch.hex"));
    let back: RegMsg = from_bytes(&bytes).expect("decodes");
    assert_eq!(format!("{back:?}"), format!("{msg:?}"));
}

#[test]
fn store_config_bytes_are_stable() {
    let cfg = config();
    let bytes = to_bytes(&cfg);
    assert_golden("StoreConfig", &bytes, include_str!("golden/config.hex"));
    let back: StoreConfig = from_bytes(&bytes).expect("decodes");
    assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
}

#[test]
fn store_report_bytes_are_stable() {
    let report = report();
    let bytes = to_bytes(&report);
    assert_golden("StoreReport", &bytes, include_str!("golden/report.hex"));
    let back: StoreReport = from_bytes(&bytes).expect("decodes");
    assert_eq!(format!("{back:?}"), format!("{report:?}"));
    // labels re-intern against the static vocabulary
    assert_eq!(back.windows[0].criterion, "CCv");
    assert_eq!(back.monitor.records[0].pattern, "cyclic_co");
}

#[test]
fn epoch_log_bytes_are_stable() {
    let dir = std::env::temp_dir().join(format!("cbm-golden-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut log = EpochLog::open(&dir, 0, true).expect("open log");
    log.log_own(5, Timestamp { time: 7, pid: 0 }, &RegInput::Write(11))
        .expect("own");
    log.log_batch(2, 40, &ops()).expect("batch");
    let seal = SealInfo {
        epoch: 3,
        boundary: true,
        issued: 1000,
        lamport: 77,
        delivered: vec![4, 0, 40],
        state_hash: 0xdead_beef_cafe_f00d,
        monitor: MonitorStats {
            ops_checked: 1,
            folds: 2,
            escalations: 3,
            cleared: 4,
            violations: 5,
            kernel_unknown: 6,
        },
    };
    log.seal(&seal, 0).expect("seal");
    let bytes = std::fs::read(dir.join("worker-0.log")).expect("read log");
    let _ = std::fs::remove_dir_all(&dir);
    assert_golden("epoch log", &bytes, include_str!("golden/epoch_log.hex"));
}
