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
//! The verifier thread turns the per-worker records into one
//! [`Recording`] over the composite [`ObjectSpace`] ADT — per shard
//! under partial replication — with every live worker observed, and
//! [`Recording::check`] derives the delivered-before causal order from
//! the apply prefixes and runs the witness: CC for delivery-order
//! replicas, CCv (with the Lamport-timestamp total order) for
//! arbitrated ones. The monitor's escalations take the same path.
//! Whether the replicas' snapshots agree is not checked here: the
//! drain that opens the window compares the live replicas' state
//! hashes (`engine/drain.rs`).

use crate::config::Mode;
use crate::shard::ShardMap;
use cbm_adt::space::{ObjectSpace, SpaceInput};
use cbm_adt::Adt;
use cbm_check::monitor::Stamp;
use cbm_check::verify::{Part, Recording};
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
    /// events, no apply order and no snapshot.
    pub crashed: bool,
    /// The window opened at a drain that performed a crash-recovery
    /// state transfer (its pre-window snapshots include a freshly
    /// synced replica).
    pub spans_recovery: bool,
}

impl<T: Adt> WindowRecord<T> {
    /// The record a crashed worker contributes: no events, no applies,
    /// no snapshot.
    pub(crate) fn crashed(worker: NodeId, window: u64) -> Self {
        WindowRecord {
            worker,
            window,
            own: Vec::new(),
            applies: Vec::new(),
            snapshot: Vec::new(),
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

/// Verify one frozen epoch window, one record per worker in id order,
/// under a placement.
///
/// Under full replication the window is verified whole (one verdict
/// with no shard). Under partial replication it is split **per
/// shard**: each sub-window holds the shard's replicas as processes,
/// their own events on the shard's objects and their apply orders
/// restricted to those events — every replica of a shard applies every
/// update of that shard, so each sub-window is self-contained. Events a
/// replica applied for *other* shards fall out of the projection, and
/// routed remote reads are never recorded (they are served from a
/// replica's current state and carry no apply position; see
/// `docs/SHARDING.md` for the verification contract).
///
/// Crashed workers contribute placeholder records
/// ([`WindowRecord::crashed`]) with no events and no applies: a window
/// is verified over its live replicas, which is exactly the guarantee a
/// crashed process retains (§6.1: a crashed process simply stops
/// operating). Whether the live replicas held the same state at the
/// window's drain is the drain's own convergence check, not this one.
pub(crate) fn verify_shard_windows<T: Adt>(
    space: &ObjectSpace<T>,
    mode: Mode,
    sample_every: usize,
    parts: &[WindowRecord<T>],
    map: &ShardMap,
) -> Vec<ShardVerdict> {
    // replica sets name workers, so the slice is indexed by worker id
    assert!(
        parts.iter().enumerate().all(|(i, p)| p.worker == i),
        "verify_shard_windows needs one record per worker, sorted by id"
    );
    let verdict = |shard: Option<u32>, replicas: &[NodeId], result| ShardVerdict {
        shard,
        crashed_workers: replicas.iter().filter(|&&w| parts[w].crashed).count(),
        result,
    };
    let all: Vec<NodeId> = (0..parts.len()).collect();
    // window-level integrity first: a recording bug poisons every
    // projection, so fail the window whole instead of splitting
    if let Err(e) = integrity(parts) {
        return vec![verdict(None, &all, Err(e))];
    }
    if map.is_full() {
        let result = verify_projection(space, mode, sample_every, parts, &all, |_| true);
        return vec![verdict(None, &all, result)];
    }
    (0..map.shards())
        .map(|s| {
            let replicas = map.replicas(s);
            let keep = |obj| map.shard_of(obj) == s;
            let result = verify_projection(space, mode, sample_every, parts, replicas, keep);
            verdict(Some(s as u32), replicas, result)
        })
        .collect()
}

/// What every record of a window must satisfy whatever the placement:
/// no untagged applies, no events at a crashed worker, and no apply of
/// an event nobody recorded.
fn integrity<T: Adt>(parts: &[WindowRecord<T>]) -> Result<(), String> {
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
        for &(origin, wseq) in &part.applies {
            if parts
                .get(origin)
                .is_none_or(|o| wseq as usize >= o.own.len())
            {
                return Err(format!(
                    "apply order references unknown event ({origin},{wseq})"
                ));
            }
        }
    }
    Ok(())
}

/// Verify the sub-window of `replicas` over the objects `keep` accepts:
/// `Ok(events)`, or the violation.
fn verify_projection<T: Adt>(
    space: &ObjectSpace<T>,
    mode: Mode,
    sample_every: usize,
    parts: &[WindowRecord<T>],
    replicas: &[NodeId],
    keep: impl Fn(u32) -> bool,
) -> Result<usize, String> {
    if replicas.iter().all(|&w| parts[w].crashed) {
        return Err("window has no live workers".to_string());
    }
    // per replica: own index -> index among its kept events
    let renumber: Vec<Vec<Option<u32>>> = replicas
        .iter()
        .map(|&w| {
            let mut next = 0;
            (parts[w].own.iter())
                .map(|ev| {
                    let kept = keep(ev.obj).then_some(next);
                    next += u32::from(kept.is_some());
                    kept
                })
                .collect()
        })
        .collect();
    let parts = replicas
        .iter()
        .map(|&w| Part {
            events: (parts[w].own.iter())
                .filter(|ev| keep(ev.obj))
                .map(|ev| {
                    let input = SpaceInput::new(ev.obj, ev.input.clone());
                    (
                        input,
                        Some(ev.output.clone()),
                        Stamp::new(ev.ts.time, ev.ts.pid),
                    )
                })
                .collect(),
            applies: Some(
                (parts[w].applies.iter())
                    .filter_map(|&(origin, wseq)| {
                        let p = replicas.iter().position(|&r| r == origin)?;
                        Some((p, renumber[p][wseq as usize]?))
                    })
                    .collect(),
            ),
            seed: &parts[w].snapshot,
        })
        .collect();
    let (h, verdict) = Recording { parts }.check(space, mode, sample_every);
    verdict.map(|()| h.len()).map_err(|e| e.to_string())
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

    /// The one whole-space verdict on `parts` under full replication.
    fn verify_window(
        space: &ObjectSpace<Register>,
        mode: Mode,
        sample_every: usize,
        parts: &[WindowRecord<Register>],
    ) -> Result<usize, String> {
        let map = ShardMap::new(parts.len(), 2, 1, 0, 0);
        let mut verdicts = verify_shard_windows(space, mode, sample_every, parts, &map);
        assert_eq!(verdicts.len(), 1);
        verdicts.pop().map(|v| v.result).unwrap_or(Ok(0))
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
    fn crashed_part_is_ignored_but_convergence_checks_live_parts() {
        let space = ObjectSpace::new(Register, 2);
        for mode in [Mode::Causal, Mode::Convergent] {
            let mut parts = healthy_parts();
            parts.push(WindowRecord::crashed(2, 0));
            assert_eq!(
                verify_window(&space, mode, 1, &parts),
                Ok(3),
                "{mode:?}: crashed part must not fail the window"
            );
        }
        // a crashed part claiming events is a recording bug
        let space = ObjectSpace::new(Register, 2);
        let mut parts = healthy_parts();
        let mut bad = WindowRecord::crashed(2, 0);
        bad.applies.push((0, 0));
        parts.push(bad);
        let res = verify_window(&space, Mode::Causal, 1, &parts);
        assert!(res.is_err_and(|e| e.contains("crashed worker")));
    }

    #[test]
    fn first_live_snapshot_anchors_convergent_windows() {
        // part 0 crashed: the CCv replay of worker 1's events starts
        // from worker 1's own snapshot. Worker 1 records a
        // self-contained window (a crashed peer contributes no events
        // for anyone to apply).
        let space = ObjectSpace::new(Register, 2);
        let parts = vec![
            WindowRecord::crashed(0, 0),
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
    }

    #[test]
    fn all_crashed_window_is_rejected() {
        let space = ObjectSpace::new(Register, 2);
        let parts = vec![
            WindowRecord::<Register>::crashed(0, 0),
            WindowRecord::crashed(1, 0),
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
        // convergent mode: a shard's events replay only its own slots,
        // so what a replica holds for shards it does not host is never
        // read
        let mut parts = sharded_parts(&map);
        for p in parts.iter_mut() {
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
