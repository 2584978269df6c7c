//! The engine's counters, each named once.
//!
//! [`Counters`] is one worker's **cumulative** block: the worker bumps
//! plain fields on its hot path, and everything else is derived from
//! the one list below — the per-epoch delta ([`Counters::since`]), the
//! cross-worker sum ([`Counters::absorb`]), and publication into the
//! run's lock-free [`Registry`] under the name written beside each
//! field ([`Published::publish`]). Workers feed **deltas** into the
//! registry at drain rendezvous (plus one final flush), so steady-state
//! op execution performs no shared-memory traffic for metrics.
//!
//! Adding a counter is one line here plus its increment; it then
//! appears in `StoreReport.metrics` by name. The public report shapes
//! ([`EpochMetrics`], [`WorkerStats`]) are projections of the block.

use crate::stats::{EpochMetrics, LatencySummary, WorkerStats};
use cbm_obs::{AtomicHistogram, Counter, Gauge, Registry};
use std::sync::Arc;

macro_rules! counter_block {
    (
        sums { $( $(#[$sdoc:meta])* $s:ident => $sname:literal, )* }
        peaks { $( $(#[$pdoc:meta])* $p:ident => $pname:literal, )* }
    ) => {
        /// One worker's cumulative counters (see the [module docs](self)).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub(super) struct Counters {
            $( $(#[$sdoc])* pub $s: u64, )*
            $( $(#[$pdoc])* pub $p: u64, )*
        }

        impl Counters {
            /// What accrued since `prev` (an earlier copy of the same
            /// block). Peaks are running maxima, not differences.
            pub fn since(&self, prev: &Counters) -> Counters {
                Counters {
                    $( $s: self.$s - prev.$s, )*
                    $( $p: self.$p, )*
                }
            }

            /// Fold another worker's block into this one.
            pub fn absorb(&mut self, other: &Counters) {
                $( self.$s += other.$s; )*
                $( self.$p = self.$p.max(other.$p); )*
            }
        }

        /// The registry handles behind [`Counters`], registered once
        /// before the workers spawn and shared immutably.
        pub(super) struct Published {
            sums: Vec<Arc<Counter>>,
            peaks: Vec<Arc<Gauge>>,
            /// Merged operation latency profile (fed at drains).
            pub op_latency: Arc<AtomicHistogram>,
        }

        impl Published {
            pub fn register(reg: &mut Registry) -> Self {
                Published {
                    sums: vec![$( reg.counter($sname), )*],
                    peaks: vec![$( reg.gauge($pname), )*],
                    op_latency: reg.histogram("op_latency_ns"),
                }
            }

            /// Feed one delta (see [`Counters::since`]) into the registry.
            pub fn publish(&self, delta: &Counters) {
                for (c, v) in self.sums.iter().zip([$( delta.$s, )*]) {
                    c.add(v);
                }
                for (g, v) in self.peaks.iter().zip([$( delta.$p, )*]) {
                    g.raise(v);
                }
            }
        }
    };
}

counter_block! {
    sums {
        /// Operations issued (also the worker's script position).
        ops => "ops_total",
        /// Updates among them.
        updates => "updates_total",
        /// Pure queries among them (local and routed).
        reads => "reads_total",
        /// Queries routed to a replica of a non-hosted shard.
        remote_reads => "remote_reads_total",
        /// Routed queries answered for peers.
        reads_served => "reads_served_total",
        /// Batch envelopes flushed, pre-fan-out (read off the causal
        /// layer when the block is snapshotted).
        batches => "batches_flushed_total",
        /// Update payloads across those batches (likewise).
        payloads => "payloads_flushed_total",
        /// Batch envelopes causally delivered.
        delivered => "batches_delivered_total",
        /// Bytes of `knows` matrix headers shipped with batch envelopes.
        matrix_bytes => "matrix_header_bytes_total",
        /// Payload ops shipped, summed per **copy** (a batch multicast
        /// to `k` recipients adds `k * ops`; contrast `payloads`, which
        /// counts per flush). With `matrix_bytes` this makes the byte
        /// accounting auditable: on a lossless run, `bytes_sent` of
        /// batch traffic is exactly `matrix_bytes + per_op_bytes *
        /// payload_copy_ops` (see `wire_accounting.rs`).
        payload_copy_ops => "payload_copy_ops_total",
        /// Envelope payload buffers the causal layer drew from
        /// recycled ones — its own stock or the engine's shared pool
        /// (read off it at snapshots, like `batches`). With
        /// `envelope_bufs_allocated` it sums to the envelopes stamped;
        /// the split depends on interleaving.
        envelope_bufs_reused => "envelope_bufs_reused_total",
        /// Those of `envelope_bufs_reused` the shared pool supplied.
        envelope_bufs_pooled => "envelope_bufs_pooled_total",
        /// Envelope payload buffers neither could supply.
        envelope_bufs_allocated => "envelope_bufs_allocated_total",
        /// Records framed into the durable epoch log (read off the log
        /// at snapshots, like `batches`).
        durable_records => "durable_records_total",
        /// Those of `durable_records` that are runs of own updates
        /// (one per `RUN_OPS` own updates, plus one per seal that
        /// closes a shorter run).
        durable_runs => "durable_runs_total",
        /// Bytes of those records.
        durable_bytes => "durable_bytes_total",
        /// `write(2)` calls on the log and snapshot files: one per full
        /// group, per seal with a group left, per snapshot. Where the
        /// groups fill depends on delivery order, so this moves by a
        /// write or so between identical runs.
        durable_write_syscalls => "durable_write_syscalls_total",
        /// `fdatasync`/`fsync` calls: one per seal, three per snapshot.
        durable_syncs => "durable_syncs_total",
        /// Gap nacks sent at drains.
        nacks => "nacks_total",
        /// Repair retransmissions answering peers' nacks.
        repairs => "repairs_total",
        /// Batch envelopes carried by those repairs.
        repaired_batches => "repaired_batches_total",
        /// Envelopes copied into a per-edge repair log at shipping:
        /// one per envelope under a plan that can lose one between
        /// live replicas, none under any other plan.
        repair_copies => "repair_log_copies_total",
        /// Drain rendezvous completed.
        drains => "drains_total",
        /// Fault injections (drops + dups + parks + delays + prunes +
        /// crash discards; read off the chaos endpoint at snapshots).
        faults => "faults_injected_total",
        /// Trace spans truncated away by the recorder's caps.
        spans_dropped => "trace_spans_dropped_total",
        /// Operations the streaming monitor certified.
        monitor_ops_checked => "monitor_ops_checked",
        /// Monitor suspicions escalated to the exact checkers.
        monitor_escalations => "monitor_escalations",
        /// Estimated wall time inside monitor hooks (strided sample).
        monitor_ns => "monitor_ns",
        /// Convergent-mode updates that arrived behind a later-ordered
        /// one and refolded their object's log (read off the object
        /// table at snapshots). Depends on interleaving.
        refolds => "objects_refolds_total",
        /// `δ` steps those refolds replayed, from the log's last
        /// checkpoint before each insert to its end.
        refold_steps => "objects_refold_steps_total",
        /// Convergent-mode updates ordered before an overwrite their
        /// object's log already held, so neither logged nor folded
        /// (Fig. 5's discard). Depends on interleaving.
        absorbed => "objects_absorbed_total",
        /// Inbound messages dropped unprocessed: whatever reaches a
        /// worker that is down (from its crash cut until its recovery
        /// transfer is in), and — the reason this is published — a
        /// state transfer, read reply or nack nothing awaits, which
        /// release builds tolerate and count rather than corrupt the
        /// replica.
        /// Depends on interleaving.
        discarded => "msgs_discarded_total",
    }
    peaks {
        /// Causal-buffer high-water mark.
        peak_buffered => "causal_buffer_peak",
        /// Pending-batch queue high-water mark.
        peak_pending => "batch_queue_peak",
    }
}

impl Counters {
    /// A delta's deterministic per-epoch dashboard row.
    pub(crate) fn epoch_row(&self, epoch: u64, crashed: bool) -> EpochMetrics {
        EpochMetrics {
            epoch,
            ops: self.ops,
            updates: self.updates,
            remote_reads: self.remote_reads,
            batches: self.batches,
            payloads: self.payloads,
            delivered: self.delivered,
            nacks: self.nacks,
            repairs: self.repairs,
            faults: self.faults,
            crashed: u64::from(crashed),
        }
    }

    /// The block's per-worker report row.
    pub(crate) fn worker_stats(&self, worker: usize, latency: LatencySummary) -> WorkerStats {
        WorkerStats {
            worker,
            ops: self.ops,
            reads: self.reads,
            updates: self.updates,
            remote_reads: self.remote_reads,
            reads_served: self.reads_served,
            batches_sent: self.batches,
            payloads_sent: self.payloads,
            batches_delivered: self.delivered,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_sum_and_publication_come_from_one_list() {
        let prev = Counters {
            ops: 10,
            nacks: 1,
            peak_buffered: 7,
            ..Counters::default()
        };
        let cur = Counters {
            ops: 25,
            nacks: 1,
            discarded: 3,
            peak_buffered: 9,
            ..Counters::default()
        };
        let d = cur.since(&prev);
        assert_eq!(
            (d.ops, d.nacks, d.discarded, d.peak_buffered),
            (15, 0, 3, 9)
        );

        let mut sum = prev;
        sum.absorb(&cur);
        assert_eq!((sum.ops, sum.nacks, sum.peak_buffered), (35, 2, 9));

        let mut reg = Registry::new();
        let p = Published::register(&mut reg);
        p.publish(&d);
        p.publish(&d);
        let snap = reg.snapshot();
        let get = |n: &str| snap.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
        assert_eq!(get("ops_total"), Some(30));
        assert_eq!(get("msgs_discarded_total"), Some(6));
        assert_eq!(get("causal_buffer_peak"), Some(9), "peaks raise, not add");
        assert_eq!(get("nacks_total"), Some(0));
    }
}
