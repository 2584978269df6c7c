//! Window recording and reconstruction.
//!
//! During a sampled window each worker records its own events (input,
//! output, timestamp) and its **apply order** — the sequence of window
//! events it integrated, own ops at invocation and remote updates at
//! delivery. Windows open and close at *drained* points (every replica
//! has delivered every earlier message), so a window is self-contained:
//! every window event's causal past inside the run splits into a
//! common pre-window part (applied everywhere, folded into the
//! recorded snapshots) and a window part fully visible to the
//! recorder.
//!
//! The verifier thread reassembles the per-worker records into a
//! `cbm-history::History` over the composite [`ObjectSpace`] ADT,
//! derives the delivered-before causal order from the apply prefixes
//! (exactly as the simulation driver does for recorded executions),
//! and runs the witness checkers of `cbm-check::verify` — CC for
//! delivery-order replicas, CCv (with the Lamport-timestamp total
//! order) for arbitrated ones.

use crate::config::Mode;
use crate::shard::ShardMap;
use cbm_adt::space::{ObjectSpace, SpaceInput};
use cbm_adt::Adt;
use cbm_check::verify::{verify_cc_window, verify_ccv_window};
use cbm_history::{EventId, HistoryBuilder, Relation};
use cbm_net::clock::Timestamp;
use cbm_net::NodeId;

/// One recorded own event.
#[derive(Debug, Clone)]
pub(crate) struct OwnEvent<T: Adt> {
    /// Target object.
    pub obj: u32,
    /// Input.
    pub input: T::Input,
    /// Observed output (local, wait-free).
    pub output: T::Output,
    /// Invocation timestamp (arbitration order in convergent mode).
    pub ts: Timestamp,
}

/// A window event reference: (origin worker, origin's own-event index).
pub(crate) type EventRef = (NodeId, u32);

/// One worker's contribution to a window.
pub(crate) struct WindowRecord<T: Adt> {
    /// Recording worker.
    pub worker: NodeId,
    /// Window number.
    pub window: u64,
    /// Own events, in invocation order (index = the `wseq` tag peers
    /// saw on the wire).
    pub own: Vec<OwnEvent<T>>,
    /// Apply order over window events (own + delivered remote).
    pub applies: Vec<EventRef>,
    /// Pre-window snapshot of this worker's object states.
    pub snapshot: Vec<T::State>,
    /// Untagged remote ops applied while recording (must be 0: windows
    /// open and close at drained points).
    pub foreign: u64,
    /// The worker was crashed for this window: it contributes no
    /// events, its apply order is empty, and its (stale) snapshot is
    /// excluded from convergence checks.
    pub crashed: bool,
    /// The window opened at a drain that performed a crash-recovery
    /// state transfer (its pre-window snapshots include a freshly
    /// synced replica).
    pub spans_recovery: bool,
}

impl<T: Adt> WindowRecord<T> {
    /// The record a crashed worker contributes: no events, no applies,
    /// its stale snapshot carried only for arity.
    pub(crate) fn crashed(worker: NodeId, window: u64, snapshot: Vec<T::State>) -> Self {
        WindowRecord {
            worker,
            window,
            own: Vec::new(),
            applies: Vec::new(),
            snapshot,
            foreign: 0,
            crashed: true,
            spans_recovery: false,
        }
    }
}

/// The per-worker recorder driven by the engine's hot loop.
pub(crate) struct WindowRecorder<T: Adt> {
    active: bool,
    window: u64,
    quota: usize,
    own: Vec<OwnEvent<T>>,
    applies: Vec<EventRef>,
    snapshot: Vec<T::State>,
    foreign: u64,
    spans_recovery: bool,
}

impl<T: Adt> WindowRecorder<T> {
    /// An idle recorder.
    pub(crate) fn new() -> Self {
        WindowRecorder {
            active: false,
            window: 0,
            quota: 0,
            own: Vec::new(),
            applies: Vec::new(),
            snapshot: Vec::new(),
            foreign: 0,
            spans_recovery: false,
        }
    }

    /// Recording?
    pub(crate) fn active(&self) -> bool {
        self.active
    }

    /// Start recording `quota` own events from the drained state
    /// `snapshot`. `spans_recovery` marks windows whose opening drain
    /// performed a crash-recovery state transfer.
    pub(crate) fn start(
        &mut self,
        window: u64,
        quota: usize,
        snapshot: Vec<T::State>,
        spans_recovery: bool,
    ) {
        self.active = true;
        self.window = window;
        self.quota = quota;
        self.own.clear();
        self.applies.clear();
        self.snapshot = snapshot;
        self.foreign = 0;
        self.spans_recovery = spans_recovery;
    }

    /// Record one own event; returns its wire tag. `None` when the
    /// recorder is idle or this worker's quota is already met.
    pub(crate) fn on_own(&mut self, me: NodeId, ev: OwnEvent<T>) -> Option<u32> {
        if !self.active || self.own.len() >= self.quota {
            return None;
        }
        let wseq = self.own.len() as u32;
        self.own.push(ev);
        self.applies.push((me, wseq));
        Some(wseq)
    }

    /// Record the delivery of a remote update.
    pub(crate) fn on_remote(&mut self, origin: NodeId, wseq: Option<u32>) {
        if !self.active {
            return;
        }
        match wseq {
            Some(k) => self.applies.push((origin, k)),
            None => self.foreign += 1,
        }
    }

    /// Close the window and hand over the record.
    pub(crate) fn finish(&mut self, me: NodeId) -> WindowRecord<T> {
        self.active = false;
        WindowRecord {
            worker: me,
            window: self.window,
            own: std::mem::take(&mut self.own),
            applies: std::mem::take(&mut self.applies),
            snapshot: std::mem::take(&mut self.snapshot),
            foreign: self.foreign,
            crashed: false,
            spans_recovery: self.spans_recovery,
        }
    }
}

impl<T: Adt> Default for WindowRecorder<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Rebuild a frozen window from all workers' records and verify it
/// against the mode's criterion. Returns `Ok(events)` with the window
/// size, or a violation description.
///
/// Crashed workers contribute placeholder records ([`WindowRecord::crashed`]):
/// they carry no events and no apply order, and their stale snapshots
/// are excluded from the convergence checks — the window is verified
/// over the live replicas, which is exactly the guarantee a crashed
/// process retains (§6.1: a crashed process simply stops operating).
pub(crate) fn verify_window<T: Adt>(
    space: &ObjectSpace<T>,
    mode: Mode,
    sample_every: usize,
    parts: &[WindowRecord<T>],
) -> Result<usize, String> {
    let n = parts.len();
    for part in parts {
        if part.foreign != 0 {
            return Err(format!(
                "worker {} applied {} untagged op(s) inside the window \
                 (drain boundary violated)",
                part.worker, part.foreign
            ));
        }
        if part.crashed && !(part.own.is_empty() && part.applies.is_empty()) {
            return Err(format!(
                "crashed worker {} recorded events inside the window",
                part.worker
            ));
        }
    }
    let Some(first_live) = parts.iter().position(|p| !p.crashed) else {
        return Err("window has no live workers".to_string());
    };

    // global ids: worker-major over own events
    let mut base = vec![0u32; n + 1];
    for p in 0..n {
        base[p + 1] = base[p] + parts[p].own.len() as u32;
    }
    let m = base[n] as usize;
    let id_of = |(origin, wseq): EventRef| -> Result<EventId, String> {
        if origin >= n || wseq >= parts[origin].own.len() as u32 {
            return Err(format!(
                "apply order references unknown event ({origin},{wseq})"
            ));
        }
        Ok(EventId(base[origin] + wseq))
    };

    // the window history over the composite space ADT
    let mut b: HistoryBuilder<SpaceInput<T::Input>, T::Output> = HistoryBuilder::new();
    for (p, part) in parts.iter().enumerate() {
        for ev in &part.own {
            b.op(
                p,
                SpaceInput::new(ev.obj, ev.input.clone()),
                ev.output.clone(),
            );
        }
    }
    let h = b.build();

    // apply orders and own sets in global ids
    let mut apply_orders: Vec<Vec<EventId>> = Vec::with_capacity(n);
    let mut own: Vec<Vec<EventId>> = Vec::with_capacity(n);
    for (p, part) in parts.iter().enumerate() {
        let mut order = Vec::with_capacity(part.applies.len());
        for &r in &part.applies {
            order.push(id_of(r)?);
        }
        apply_orders.push(order);
        own.push((base[p]..base[p + 1]).map(EventId).collect());
    }

    let causal = Relation::delivered_before(m, &apply_orders, &own)
        .ok_or_else(|| "delivered-before relation is cyclic".to_string())?;

    match mode {
        Mode::Causal => {
            let initials: Vec<Vec<T::State>> =
                parts.iter().map(|part| part.snapshot.clone()).collect();
            verify_cc_window(space, &h, &causal, &apply_orders, &own, &initials)
                .map_err(|e| format!("CC violation: {e:?}"))?;
        }
        Mode::Convergent => {
            for part in parts.iter().filter(|p| !p.crashed) {
                if part.worker != parts[first_live].worker
                    && part.snapshot != parts[first_live].snapshot
                {
                    return Err(format!(
                        "replicas {} and {} diverged at the window's drain point",
                        parts[first_live].worker, part.worker
                    ));
                }
            }
            // arbitration total order: Lamport timestamps extend the
            // causal order (broadcasts tick, deliveries observe)
            let mut total: Vec<EventId> = (0..m as u32).map(EventId).collect();
            let ts_of = |e: &EventId| -> Timestamp {
                let p = match base[1..].iter().position(|&hi| e.0 < hi) {
                    Some(p) => p,
                    None => unreachable!("event id in range"),
                };
                parts[p].own[(e.0 - base[p]) as usize].ts
            };
            total.sort_by_key(|e| ts_of(e));
            verify_ccv_window(
                space,
                &h,
                &causal,
                &total,
                sample_every,
                &parts[first_live].snapshot,
            )
            .map_err(|e| format!("CCv violation: {e:?}"))?;
        }
    }
    Ok(m)
}

/// One per-shard verification verdict produced by
/// [`verify_shard_windows`].
pub(crate) struct ShardVerdict {
    /// The shard verified (`None` for a whole-space window under full
    /// replication, or for a window-level failure that prevented the
    /// split).
    pub shard: Option<u32>,
    /// Crashed workers among the shard's replicas.
    pub crashed_workers: usize,
    /// `Ok(events)` with the sub-window size, or a violation.
    pub result: Result<usize, String>,
}

/// Verify one frozen epoch window under a placement.
///
/// Under full replication this is exactly [`verify_window`] (one
/// whole-space verdict). Under partial replication the window is split
/// **per shard**: for each shard, the sub-window contains the shard's
/// hosting replicas as processes, their own events on the shard's
/// objects (re-tagged to the sub-window's index space), and their apply
/// orders filtered to those events — every replica of a shard applies
/// every update of that shard, so each sub-window is self-contained and
/// verifies with the unchanged window checkers. Events a replica
/// applied for *other* shards simply fall out of the projection, and
/// routed remote reads are never recorded (they are served from a
/// replica's current state and carry no apply position; see
/// `docs/SHARDING.md` for the verification contract).
pub(crate) fn verify_shard_windows<T: Adt>(
    space: &ObjectSpace<T>,
    mode: Mode,
    sample_every: usize,
    parts: &[WindowRecord<T>],
    map: &ShardMap,
) -> Vec<ShardVerdict> {
    // the shard projection indexes parts by worker id (replica sets
    // name workers), so the slice must hold exactly one record per
    // worker, in id order — unlike verify_window, which is positional
    assert!(
        parts.iter().enumerate().all(|(i, p)| p.worker == i),
        "verify_shard_windows needs one record per worker, sorted by id"
    );
    if map.is_full() {
        return vec![ShardVerdict {
            shard: None,
            crashed_workers: parts.iter().filter(|p| p.crashed).count(),
            result: verify_window(space, mode, sample_every, parts),
        }];
    }
    // window-level integrity first: a drain-boundary violation poisons
    // every projection, so fail the window whole instead of splitting
    for part in parts {
        if part.foreign != 0 {
            return vec![ShardVerdict {
                shard: None,
                crashed_workers: parts.iter().filter(|p| p.crashed).count(),
                result: Err(format!(
                    "worker {} applied {} untagged op(s) inside the window \
                     (drain boundary violated)",
                    part.worker, part.foreign
                )),
            }];
        }
    }

    let mut out = Vec::with_capacity(map.shards());
    for s in 0..map.shards() {
        let replicas = map.replicas(s);
        // global worker id -> sub-window process index
        let local_of = |w: NodeId| replicas.iter().position(|&r| r == w);
        // per replica: old own index -> new own index, for this shard
        let mut remap: Vec<std::collections::HashMap<u32, u32>> =
            vec![std::collections::HashMap::new(); replicas.len()];
        let mut sub: Vec<WindowRecord<T>> = Vec::with_capacity(replicas.len());
        for (li, &w) in replicas.iter().enumerate() {
            let part = &parts[w];
            let mut own: Vec<OwnEvent<T>> = Vec::new();
            for (k, ev) in part.own.iter().enumerate() {
                if map.shard_of(ev.obj) == s {
                    remap[li].insert(k as u32, own.len() as u32);
                    own.push(OwnEvent {
                        obj: ev.obj,
                        input: ev.input.clone(),
                        output: ev.output.clone(),
                        ts: ev.ts,
                    });
                }
            }
            sub.push(WindowRecord {
                worker: w,
                window: part.window,
                own,
                applies: Vec::new(), // filled below (needs all remaps)
                snapshot: part.snapshot.clone(),
                foreign: 0,
                crashed: part.crashed,
                spans_recovery: part.spans_recovery,
            });
        }
        for (li, &w) in replicas.iter().enumerate() {
            let mut applies = Vec::new();
            for &(origin, wseq) in &parts[w].applies {
                if let Some(lo) = local_of(origin) {
                    if let Some(&new) = remap[lo].get(&wseq) {
                        applies.push((lo, new));
                    }
                }
            }
            sub[li].applies = applies;
        }
        // the convergent-mode snapshot-equality check compares whole
        // snapshots, but replicas of one shard only agree on *its*
        // slots — normalize the others to the first live replica's
        // values (they carry no events in this sub-window, so the CC
        // and CCv replays never read them)
        if let Some(first_live) = sub.iter().position(|p| !p.crashed) {
            let anchor = sub[first_live].snapshot.clone();
            let shard_slots: Vec<usize> = map.slots_of(s).collect();
            for p in sub.iter_mut() {
                let mut norm = anchor.clone();
                for &slot in &shard_slots {
                    norm[slot] = p.snapshot[slot].clone();
                }
                p.snapshot = norm;
            }
        }
        out.push(ShardVerdict {
            shard: Some(s as u32),
            crashed_workers: sub.iter().filter(|p| p.crashed).count(),
            result: verify_window(space, mode, sample_every, &sub),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::register::{RegInput, RegOutput, Register};

    fn ev(obj: u32, input: RegInput, output: RegOutput, t: u64, p: usize) -> OwnEvent<Register> {
        OwnEvent {
            obj,
            input,
            output,
            ts: Timestamp::new(t, p),
        }
    }

    /// Two workers, two objects: w0 writes obj0=5 (seen by w1 before
    /// its read), w1 reads obj0 then writes obj1.
    fn healthy_parts() -> Vec<WindowRecord<Register>> {
        let snapshot = vec![0u64, 9u64]; // obj1 carried 9 in from the prefix
        vec![
            WindowRecord {
                worker: 0,
                window: 0,
                own: vec![ev(0, RegInput::Write(5), RegOutput::Ack, 1, 0)],
                // own write, then w1's remote write (w1's read is a
                // pure query: never broadcast, never applied remotely)
                applies: vec![(0, 0), (1, 1)],
                snapshot: snapshot.clone(),
                foreign: 0,
                crashed: false,
                spans_recovery: false,
            },
            WindowRecord {
                worker: 1,
                window: 0,
                own: vec![
                    ev(0, RegInput::Read, RegOutput::Val(5), 2, 1),
                    ev(1, RegInput::Write(4), RegOutput::Ack, 3, 1),
                ],
                // w1 applied w0's write before reading it
                applies: vec![(0, 0), (1, 0), (1, 1)],
                snapshot,
                foreign: 0,
                crashed: false,
                spans_recovery: false,
            },
        ]
    }

    #[test]
    fn healthy_window_verifies_under_both_modes() {
        let space = ObjectSpace::new(Register, 2);
        let parts = healthy_parts();
        assert_eq!(verify_window(&space, Mode::Causal, 1, &parts), Ok(3));
        assert_eq!(verify_window(&space, Mode::Convergent, 1, &parts), Ok(3));
    }

    #[test]
    fn snapshot_feeds_the_replay() {
        // w1 reads obj1 = 9: only explainable through the snapshot
        let space = ObjectSpace::new(Register, 2);
        let mut parts = healthy_parts();
        parts[1].own[1] = ev(1, RegInput::Read, RegOutput::Val(9), 3, 1);
        assert_eq!(verify_window(&space, Mode::Causal, 1, &parts), Ok(3));
        // ...and a wrong carried-in value is caught
        parts[1].own[1] = ev(1, RegInput::Read, RegOutput::Val(8), 3, 1);
        let res = verify_window(&space, Mode::Causal, 1, &parts);
        assert!(
            res.is_err_and(|e| e.contains("OutputMismatch")),
            "snapshot replay must gate"
        );
    }

    #[test]
    fn tampered_output_fails_both_modes() {
        let space = ObjectSpace::new(Register, 2);
        for mode in [Mode::Causal, Mode::Convergent] {
            let mut parts = healthy_parts();
            parts[1].own[0] = ev(0, RegInput::Read, RegOutput::Val(777), 2, 1);
            let res = verify_window(&space, mode, 1, &parts);
            assert!(res.is_err_and(|e| e.contains("OutputMismatch")), "{mode:?}");
        }
    }

    #[test]
    fn non_causal_apply_order_rejected() {
        let space = ObjectSpace::new(Register, 2);
        let mut parts = healthy_parts();
        // w1 claims it read 5 but applied the write *after* the read
        parts[1].applies = vec![(1, 0), (0, 0), (1, 1)];
        let res = verify_window(&space, Mode::Causal, 1, &parts);
        assert!(res.is_err(), "read of 5 without its write applied first");
    }

    #[test]
    fn foreign_ops_fail_fast() {
        let space = ObjectSpace::new(Register, 2);
        let mut parts = healthy_parts();
        parts[0].foreign = 2;
        let res = verify_window(&space, Mode::Causal, 1, &parts);
        assert!(res.is_err_and(|e| e.contains("untagged")));
    }

    #[test]
    fn divergent_snapshots_fail_convergent_windows() {
        let space = ObjectSpace::new(Register, 2);
        let mut parts = healthy_parts();
        parts[1].snapshot = vec![1, 9];
        let res = verify_window(&space, Mode::Convergent, 1, &parts);
        assert!(res.is_err_and(|e| e.contains("diverged")));
    }

    #[test]
    fn crashed_part_is_ignored_but_convergence_checks_live_parts() {
        let space = ObjectSpace::new(Register, 2);
        for mode in [Mode::Causal, Mode::Convergent] {
            let mut parts = healthy_parts();
            // worker 2 is crashed with a stale (divergent) snapshot
            parts.push(WindowRecord::crashed(2, 0, vec![7, 7]));
            assert_eq!(
                verify_window(&space, mode, 1, &parts),
                Ok(3),
                "{mode:?}: crashed part must not fail the window"
            );
        }
        // a crashed part claiming events is a recording bug
        let space = ObjectSpace::new(Register, 2);
        let mut parts = healthy_parts();
        let mut bad = WindowRecord::crashed(2, 0, vec![0, 0]);
        bad.applies.push((0, 0));
        parts.push(bad);
        let res = verify_window(&space, Mode::Causal, 1, &parts);
        assert!(res.is_err_and(|e| e.contains("crashed worker")));
    }

    #[test]
    fn first_live_snapshot_anchors_convergent_windows() {
        // part 0 crashed: the convergent snapshot-equality and the CCv
        // replay must anchor on the first live part instead. Worker 1
        // records a self-contained window (a crashed peer contributes
        // no events for anyone to apply).
        let space = ObjectSpace::new(Register, 2);
        let parts = vec![
            WindowRecord::crashed(0, 0, vec![1, 2]),
            WindowRecord {
                worker: 1,
                window: 0,
                own: vec![
                    ev(1, RegInput::Read, RegOutput::Val(9), 2, 1),
                    ev(1, RegInput::Write(4), RegOutput::Ack, 3, 1),
                ],
                applies: vec![(1, 0), (1, 1)],
                snapshot: vec![0, 9],
                foreign: 0,
                crashed: false,
                spans_recovery: true,
            },
        ];
        assert_eq!(verify_window(&space, Mode::Convergent, 1, &parts), Ok(2));
        // ...and a live divergence is still caught with crashed peers
        let mut parts = healthy_parts();
        parts.push(WindowRecord::crashed(2, 0, vec![9, 9]));
        parts[1].snapshot = vec![4, 4];
        let res = verify_window(&space, Mode::Convergent, 1, &parts);
        assert!(res.is_err_and(|e| e.contains("diverged")));
    }

    #[test]
    fn all_crashed_window_is_rejected() {
        let space = ObjectSpace::new(Register, 2);
        let parts = vec![
            WindowRecord::<Register>::crashed(0, 0, vec![0, 0]),
            WindowRecord::crashed(1, 0, vec![0, 0]),
        ];
        let res = verify_window(&space, Mode::Causal, 1, &parts);
        assert!(res.is_err_and(|e| e.contains("no live workers")));
    }

    /// Build a healthy 3-worker, 2-shard, rf-2 window against whatever
    /// placement the map chose: each shard's home writes its object,
    /// the co-replica applies the write then reads it; non-replicas
    /// never touch the shard.
    fn sharded_parts(map: &ShardMap) -> Vec<WindowRecord<Register>> {
        let mut parts: Vec<WindowRecord<Register>> = (0..3)
            .map(|w| WindowRecord {
                worker: w,
                window: 0,
                own: Vec::new(),
                applies: Vec::new(),
                snapshot: vec![0u64; 4],
                foreign: 0,
                crashed: false,
                spans_recovery: false,
            })
            .collect();
        for s in 0..2u32 {
            let [a, b] = [map.replicas(s as usize)[0], map.replicas(s as usize)[1]];
            let wa = parts[a].own.len() as u32;
            parts[a]
                .own
                .push(ev(s, RegInput::Write(5 + s as u64), RegOutput::Ack, 1, a));
            parts[a].applies.push((a, wa));
            let wb = parts[b].own.len() as u32;
            parts[b].applies.push((a, wa));
            parts[b]
                .own
                .push(ev(s, RegInput::Read, RegOutput::Val(5 + s as u64), 2, b));
            parts[b].applies.push((b, wb));
        }
        parts
    }

    #[test]
    fn shard_windows_split_and_verify_per_replica_set() {
        let map = ShardMap::new(3, 4, 2, 2, 11);
        assert!(!map.is_full());
        let space = ObjectSpace::new(Register, 4);
        let parts = sharded_parts(&map);
        let verdicts = verify_shard_windows(&space, Mode::Causal, 1, &parts, &map);
        assert_eq!(verdicts.len(), 2);
        for v in &verdicts {
            assert!(v.shard.is_some());
            assert_eq!(v.crashed_workers, 0);
            assert_eq!(
                v.result,
                Ok(2),
                "shard {:?} should hold its write + read",
                v.shard
            );
        }
        // convergent mode: replicas of a shard agree on its slots even
        // though their other slots (normalized away) differ
        let mut parts = sharded_parts(&map);
        for p in parts.iter_mut() {
            // scribble on slots the worker does not host: must not
            // break per-shard convergence checks
            for slot in 0..4usize {
                if !map.hosts(p.worker, map.shard_of(slot as u32)) {
                    p.snapshot[slot] = 77 + p.worker as u64;
                }
            }
        }
        let verdicts = verify_shard_windows(&space, Mode::Convergent, 1, &parts, &map);
        assert!(
            verdicts.iter().all(|v| v.result.is_ok()),
            "{:?}",
            verdicts
                .iter()
                .map(|v| (&v.shard, &v.result))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_windows_catch_violations_in_the_right_shard() {
        let map = ShardMap::new(3, 4, 2, 2, 11);
        let space = ObjectSpace::new(Register, 4);
        let mut parts = sharded_parts(&map);
        // tamper shard 1's read output
        let b = map.replicas(1)[1];
        let idx = parts[b]
            .own
            .iter()
            .position(|e| map.shard_of(e.obj) == 1 && matches!(e.input, RegInput::Read))
            .expect("co-replica read");
        parts[b].own[idx].output = RegOutput::Val(999);
        let verdicts = verify_shard_windows(&space, Mode::Causal, 1, &parts, &map);
        for v in &verdicts {
            if v.shard == Some(1) {
                assert!(v
                    .result
                    .as_ref()
                    .is_err_and(|e| e.contains("OutputMismatch")));
            } else {
                assert_eq!(v.result, Ok(2), "untampered shard must still pass");
            }
        }
    }

    #[test]
    fn full_replication_maps_to_a_single_whole_space_verdict() {
        let map = ShardMap::new(2, 2, 2, 0, 0);
        let space = ObjectSpace::new(Register, 2);
        let verdicts = verify_shard_windows(&space, Mode::Causal, 1, &healthy_parts(), &map);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].shard, None);
        assert_eq!(verdicts[0].result, Ok(3));
    }

    #[test]
    fn foreign_ops_fail_the_whole_window_not_one_shard() {
        let map = ShardMap::new(3, 4, 2, 2, 11);
        let space = ObjectSpace::new(Register, 4);
        let mut parts = sharded_parts(&map);
        parts[0].foreign = 1;
        let verdicts = verify_shard_windows(&space, Mode::Causal, 1, &parts, &map);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].shard, None);
        assert!(verdicts[0]
            .result
            .as_ref()
            .is_err_and(|e| e.contains("untagged")));
    }

    #[test]
    fn recorder_tags_up_to_quota() {
        let mut r: WindowRecorder<Register> = WindowRecorder::new();
        assert_eq!(
            r.on_own(0, ev(0, RegInput::Read, RegOutput::Val(0), 1, 0)),
            None
        );
        r.start(3, 2, vec![0, 0], true);
        assert!(r.active());
        assert_eq!(
            r.on_own(0, ev(0, RegInput::Read, RegOutput::Val(0), 1, 0)),
            Some(0)
        );
        r.on_remote(1, Some(0));
        assert_eq!(
            r.on_own(0, ev(0, RegInput::Read, RegOutput::Val(0), 2, 0)),
            Some(1)
        );
        assert_eq!(
            r.on_own(0, ev(0, RegInput::Read, RegOutput::Val(0), 3, 0)),
            None
        );
        let rec = r.finish(0);
        assert_eq!(rec.own.len(), 2);
        assert_eq!(rec.applies, vec![(0, 0), (1, 0), (0, 1)]);
        assert_eq!(rec.window, 3);
        assert!(rec.spans_recovery && !rec.crashed);
        assert!(!r.active());
    }
}
