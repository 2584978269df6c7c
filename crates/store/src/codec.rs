//! Binary codecs for everything the store moves across process
//! boundaries: engine messages over the real-socket transport
//! ([`cbm_net::tcp`]), configs/reports over the bench control
//! protocol, and (via [`crate::durable`]) epoch-log records on disk.
//! All of it is [`cbm_adt::wire::Wire`], the workspace's one codec
//! trait — see that module for the format conventions.
//!
//! The engine is generic over the ADT: its payload scalars
//! ([`cbm_adt::register::RegInput`], [`cbm_adt::counter::CtOutput`], …)
//! implement `Wire` next to their definitions in `cbm-adt`, so putting
//! a new ADT on the socket and disk paths means implementing `Wire`
//! for its three alphabets there and nothing here.
//!
//! Plain records state their field list once (`wire_struct!`) and
//! enums their tag table once (`wire_enum!`); hand-written impls remain
//! only where decoding does real work: report labels, the absent
//! trace slot and `ObsConfig`'s reserved slot.
//!
//! `&'static str` report fields (window criterion, escalation pattern
//! and verdict names) travel as strings and re-intern on decode
//! against the known vocabulary; an unknown label fails the decode
//! (the frame handshake already guarantees both ends are the same
//! build, so an unknown label is corruption, not a newer peer).
//!
//! Flight-recorder traces deliberately do **not** cross the wire: a
//! multi-process run dumps traces node-side (the files are the
//! artifact CI collects) and ships reports with `trace: None`.

use crate::config::{
    BatchPolicy, DurableConfig, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
use crate::stats::{
    ChaosReport, EpochMetrics, LatencySummary, MonitorEscalation, MonitorReport, RecoveryStats,
    StoreReport, WindowVerdict, WorkerStats,
};
use crate::wire::{ShardDeltaPayload, ShardSyncPayload, StoreMsg, WireOp};
use cbm_adt::wire::Wire;
use cbm_adt::{wire_enum, wire_struct};

// The sealed `benchmark/` package (outside the workspace, not editable
// from a PR) still imports the codec trait under its pre-merge name.
pub use cbm_adt::wire::Wire as PayloadCodec;

wire_struct!(WireOp<I> { obj, input, ts, wseq });
wire_struct!(ShardSyncPayload<S> { shards, lamport });
wire_struct!(ShardDeltaPayload<I> { shards, lamport });

wire_enum!(StoreMsg<I, O, S> {
    0 => Batch(envelope),
    1 => Nack,
    2 => Repair(batches),
    3 => ShardSync(payload),
    4 => ReadReq { obj, input },
    5 => ReadReply { output },
    6 => SyncReq { full },
    7 => ShardDelta(payload),
});

wire_enum!(BatchPolicy { 0 => Off, 1 => Every(k) });
wire_struct!(ShardConfig {
    shards,
    replication,
    placement_seed,
    locality
});
wire_struct!(VerifyConfig {
    every_ops,
    window_ops,
    sample_every,
    monitor
});
/// The four fields, then a reserved slot that is always `0`: it keeps
/// the config and control-protocol layouts that the golden fixtures
/// pin, and any other value fails the decode.
impl Wire for ObsConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.trace.put(out);
        self.op_sample_every.put(out);
        self.batch_sample_every.put(out);
        self.epoch_cap.put(out);
        0usize.put(out);
    }

    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let cfg = ObsConfig {
            trace: Wire::get(buf, pos)?,
            op_sample_every: Wire::get(buf, pos)?,
            batch_sample_every: Wire::get(buf, pos)?,
            epoch_cap: Wire::get(buf, pos)?,
        };
        (usize::get(buf, pos)? == 0).then_some(cfg)
    }
}
wire_struct!(DurableConfig {
    log_dir,
    snapshot_every,
    recover_from_disk,
    resume,
    halt_at_boundary
});
wire_struct!(StoreConfig {
    workers,
    objects,
    ops_per_worker,
    mode,
    batch,
    verify,
    seed,
    sharding,
    chaos,
    obs,
    durable
});

/// Re-intern a decoded report label against the known vocabulary
/// (window criteria, monitor pattern names, kernel verdicts). `None`
/// for anything else: peer bytes must never mint `'static` data.
fn intern(s: &str) -> Option<&'static str> {
    const KNOWN: &[&str] = &[
        "CC",
        "CCv",
        "thin_air_read",
        "write_co_init_read",
        "write_co_read",
        "write_hb_init_read",
        "cyclic_cf",
        "cyclic_co",
        "sat",
        "unsat",
        "unknown",
    ];
    KNOWN.iter().find(|k| **k == s).copied()
}

wire_struct!(LatencySummary {
    count,
    p50_ns,
    p90_ns,
    p99_ns,
    p999_ns,
    max_ns,
    mean_ns
});
wire_struct!(WorkerStats {
    worker,
    ops,
    reads,
    updates,
    remote_reads,
    reads_served,
    batches_sent,
    payloads_sent,
    batches_delivered,
    latency
});
wire_struct!(RecoveryStats {
    worker,
    crash_epoch,
    recover_epoch,
    helper,
    synced_shards,
    synced_objects,
    sync_wall_ns,
    replayed_records,
    log_bytes
});
wire_struct!(MonitorReport {
    enabled,
    ops_checked,
    folds,
    escalations,
    cleared,
    violations,
    kernel_unknown,
    records
});
wire_struct!(ChaosReport {
    active,
    drops,
    dups,
    parked,
    released,
    delayed,
    pruned,
    crash_discarded,
    nacks,
    repairs,
    repaired_batches,
    dropped_per_node,
    dup_per_node,
    recoveries
});
wire_struct!(EpochMetrics {
    epoch,
    ops,
    updates,
    remote_reads,
    batches,
    payloads,
    delivered,
    nacks,
    repairs,
    faults,
    crashed
});

impl Wire for WindowVerdict {
    fn put(&self, out: &mut Vec<u8>) {
        self.window.put(out);
        self.shard.put(out);
        self.criterion.to_string().put(out);
        self.events.put(out);
        self.crashed_workers.put(out);
        self.spans_recovery.put(out);
        // Result<(), String> as Option<String>: None = Ok
        match &self.result {
            Ok(()) => Option::<String>::None.put(out),
            Err(e) => Some(e.clone()).put(out),
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(WindowVerdict {
            window: u64::get(buf, pos)?,
            shard: Option::get(buf, pos)?,
            criterion: intern(&String::get(buf, pos)?)?,
            events: usize::get(buf, pos)?,
            crashed_workers: usize::get(buf, pos)?,
            spans_recovery: bool::get(buf, pos)?,
            result: match Option::<String>::get(buf, pos)? {
                None => Ok(()),
                Some(e) => Err(e),
            },
        })
    }
}

impl Wire for MonitorEscalation {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker.put(out);
        self.epoch.put(out);
        self.at_op.put(out);
        self.obj.put(out);
        self.pattern.to_string().put(out);
        self.events.put(out);
        self.confirmed.put(out);
        self.verdict.to_string().put(out);
        self.spans_recovery.put(out);
        self.detail.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(MonitorEscalation {
            worker: usize::get(buf, pos)?,
            epoch: u64::get(buf, pos)?,
            at_op: u64::get(buf, pos)?,
            obj: Option::get(buf, pos)?,
            pattern: intern(&String::get(buf, pos)?)?,
            events: usize::get(buf, pos)?,
            confirmed: bool::get(buf, pos)?,
            verdict: intern(&String::get(buf, pos)?)?,
            spans_recovery: bool::get(buf, pos)?,
            detail: String::get(buf, pos)?,
        })
    }
}

impl Wire for StoreReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.config.put(out);
        u128::put(&self.wall_ns, out);
        self.total_ops.put(out);
        self.ops_per_sec.put(out);
        self.latency.put(out);
        self.msgs_sent.put(out);
        self.bytes_sent.put(out);
        self.batches_sent.put(out);
        self.payloads_sent.put(out);
        self.mean_batch.put(out);
        self.remote_reads.put(out);
        self.windows.put(out);
        self.windows_failed.put(out);
        self.drains_converged.put(out);
        self.final_state_hashes.put(out);
        self.monitor.put(out);
        self.chaos.put(out);
        self.per_worker.put(out);
        self.epochs.put(out);
        self.metrics.put(out);
        // traces never cross the wire (dumped node-side); pin the slot
        // so the layout stays stable if that ever changes
        false.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let report = StoreReport {
            config: StoreConfig::get(buf, pos)?,
            wall_ns: u128::get(buf, pos)?,
            total_ops: u64::get(buf, pos)?,
            ops_per_sec: f64::get(buf, pos)?,
            latency: LatencySummary::get(buf, pos)?,
            msgs_sent: u64::get(buf, pos)?,
            bytes_sent: u64::get(buf, pos)?,
            batches_sent: u64::get(buf, pos)?,
            payloads_sent: u64::get(buf, pos)?,
            mean_batch: f64::get(buf, pos)?,
            remote_reads: u64::get(buf, pos)?,
            windows: Vec::get(buf, pos)?,
            windows_failed: usize::get(buf, pos)?,
            drains_converged: bool::get(buf, pos)?,
            final_state_hashes: Vec::get(buf, pos)?,
            monitor: MonitorReport::get(buf, pos)?,
            chaos: ChaosReport::get(buf, pos)?,
            per_worker: Vec::get(buf, pos)?,
            epochs: Vec::get(buf, pos)?,
            metrics: Vec::get(buf, pos)?,
            trace: None,
        };
        if bool::get(buf, pos)? {
            return None; // a wire trace is not a thing this version speaks
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::wire::{from_bytes, to_bytes};

    fn verdict(criterion: &'static str) -> WindowVerdict {
        WindowVerdict {
            window: 0,
            shard: Some(3),
            criterion,
            events: 48,
            crashed_workers: 1,
            spans_recovery: true,
            result: Err("divergent replica".into()),
        }
    }

    #[test]
    fn unknown_label_fails_the_decode_instead_of_leaking() {
        // same layout, a label outside the vocabulary: a peer that
        // could mint `'static` strings could leak memory without bound
        assert!(from_bytes::<WindowVerdict>(&to_bytes(&verdict("CCv"))).is_some());
        assert!(from_bytes::<WindowVerdict>(&to_bytes(&verdict("CCx"))).is_none());
        let esc = MonitorEscalation {
            worker: 1,
            epoch: 2,
            at_op: 3,
            obj: None,
            pattern: "cyclic_co",
            events: 7,
            confirmed: false,
            verdict: "maybe",
            spans_recovery: false,
            detail: String::new(),
        };
        assert!(from_bytes::<MonitorEscalation>(&to_bytes(&esc)).is_none());
    }
}
