//! Verbatim implementations of the paper's two algorithms for an array
//! of `K` window streams of size `k`: Fig. 4 ([`WkArrayCc`]) and
//! Fig. 5 ([`WkArrayCcv`]).
//!
//! These are kept separate from the generalized replicas in
//! [`crate::causal`] / [`crate::convergent`] for three reasons:
//!
//! 1. **fidelity** — the code matches the paper's pseudocode line for
//!    line (including Fig. 5's in-place timestamped-window insertion),
//!    so the reproduction can be audited against the original;
//! 2. **cost** — Fig. 5 stores only `k` timestamped values per stream,
//!    not an operation log: O(k) memory and O(k) work per delivery,
//!    which the benches compare against the generalized log replica;
//! 3. **wire realism** — messages ride the same edge-stamped causal
//!    multicast as the live store, so a reported message size is the
//!    exact varint header the engine ships plus the paper's message:
//!    `Mess(x, v)` (12 bytes) or `Mess(x, v, vt, j)` (22 bytes).
//!
//! Equivalence with the generalized replicas (same outputs under the
//! same delivery schedule) is asserted in the tests below and in the
//! integration suite.

use crate::replica::{causal_broadcast, causal_size, InvokeOutcome, Outgoing, Replica};
use cbm_adt::window::{WaInput, WaOutput, WindowArray};
use cbm_adt::Value;
use cbm_net::broadcast::{InterestBatchCausalBroadcast, InterestMsg};
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::NodeId;

/// An envelope of Fig. 4: `Mess(x, v)`, stamped with the history event.
type CcMess = InterestMsg<Vec<(u64 /*event*/, u32 /*x*/, Value)>>;

/// An envelope of Fig. 5: `Mess(x, v, vt, j)`, likewise.
type CcvMess = InterestMsg<Vec<(u64, u32, Value, Timestamp)>>;

/// Fig. 4: causally consistent array of `K` window streams of size `k`.
#[derive(Debug, Clone)]
pub struct WkArrayCc {
    k: usize,
    /// `str_i` — the local state (line 2).
    streams: Vec<Vec<Value>>,
    bcast: InterestBatchCausalBroadcast<(u64 /*event*/, u32 /*x*/, Value)>,
}

impl WkArrayCc {
    /// Direct constructor mirroring `object CC(W_k^K)`.
    pub(crate) fn new(me: NodeId, n: usize, streams: usize, k: usize) -> Self {
        WkArrayCc {
            k,
            streams: vec![vec![0; k]; streams],
            bcast: InterestBatchCausalBroadcast::new(me, n),
        }
    }

    /// `read(x)` (lines 3–5): return the local stream state.
    pub(crate) fn read(&self, x: usize) -> Vec<Value> {
        self.streams[x].clone()
    }

    /// `write(x, v)` (lines 6–8): causally broadcast `Mess(x, v)`;
    /// immediate local reception applies it at once (§6.1, property 3).
    pub(crate) fn write(
        &mut self,
        event: u64,
        x: usize,
        v: Value,
        out: &mut Vec<Outgoing<CcMess>>,
    ) {
        self.apply(x, v);
        causal_broadcast(&mut self.bcast, (event, x as u32, v), out);
    }

    /// `on receive Mess(x, v)` (lines 9–14): shift the window.
    fn apply(&mut self, x: usize, v: Value) {
        let s = &mut self.streams[x];
        for y in 0..self.k.saturating_sub(1) {
            s[y] = s[y + 1];
        }
        if self.k > 0 {
            s[self.k - 1] = v;
        }
    }

    /// Receive a remote envelope; appends applied event ids in order.
    pub(crate) fn receive(&mut self, msg: CcMess, applied: &mut Vec<u64>) {
        for m in self.bcast.on_receive(msg) {
            for &(event, x, v) in &m.payload {
                self.apply(x as usize, v);
                applied.push(event);
            }
            self.bcast.recycle(m);
        }
    }
}

impl Replica<WindowArray> for WkArrayCc {
    type Msg = CcMess;

    fn new_replica(me: NodeId, n: usize, adt: WindowArray) -> Self {
        WkArrayCc::new(me, n, adt.streams(), adt.k())
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &WaInput,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<WaOutput> {
        match input {
            WaInput::Read(x) => InvokeOutcome::Done(WaOutput::Window(self.read(*x))),
            WaInput::Write(x, v) => {
                self.write(event, *x, *v, out);
                InvokeOutcome::Done(WaOutput::Ack)
            }
        }
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        _out: &mut Vec<Outgoing<Self::Msg>>,
        _completed: &mut Vec<(u64, WaOutput)>,
        applied: &mut Vec<u64>,
    ) {
        self.receive(msg, applied);
    }

    fn local_state(&self) -> Vec<Value> {
        self.streams.concat()
    }

    fn msg_size(&self, msg: &Self::Msg) -> usize {
        // causal header + Mess(x, v): x (4) + v (8)
        causal_size(msg, 4 + 8)
    }

    fn flavour() -> &'static str {
        "Wk-array CC (Fig. 4 verbatim)"
    }
}

/// One cell of Fig. 5's state: a value with its timestamp
/// (`str_i ∈ N^{K×k×(1+2)}`, line 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    /// The value.
    pub v: Value,
    /// The arbitration timestamp `(vt, j)`.
    pub ts: Timestamp,
}

impl Cell {
    /// The initial cell `[0, (0, 0)]`.
    pub(crate) const INIT: Cell = Cell {
        v: 0,
        ts: Timestamp::ZERO,
    };
}

/// Fig. 5: causally convergent array of `K` window streams of size `k`.
#[derive(Debug, Clone)]
pub struct WkArrayCcv {
    me: NodeId,
    k: usize,
    /// `str_i` (line 2): per stream, `k` timestamped cells sorted by
    /// ascending timestamp (oldest first).
    streams: Vec<Vec<Cell>>,
    /// `vtime_i` (line 3).
    vtime: LamportClock,
    bcast: InterestBatchCausalBroadcast<(u64, u32, Value, Timestamp)>,
    /// Cluster size.
    pub n: usize,
}

impl WkArrayCcv {
    /// Direct constructor mirroring `object CCv(W_k^K)`.
    pub(crate) fn new(me: NodeId, n: usize, streams: usize, k: usize) -> Self {
        WkArrayCcv {
            me,
            k,
            streams: vec![vec![Cell::INIT; k]; streams],
            vtime: LamportClock::new(),
            bcast: InterestBatchCausalBroadcast::new(me, n),
            n,
        }
    }

    /// `read(x)` (lines 4–6): strip the timestamps.
    pub(crate) fn read(&self, x: usize) -> Vec<Value> {
        self.streams[x].iter().map(|c| c.v).collect()
    }

    /// `write(x, v)` (lines 7–9): broadcast `Mess(x, v, vtime+1, i)`;
    /// the local copy is applied by the immediate self-reception.
    pub(crate) fn write(
        &mut self,
        event: u64,
        x: usize,
        v: Value,
        out: &mut Vec<Outgoing<CcvMess>>,
    ) {
        let ts = Timestamp::new(self.vtime.now() + 1, self.me);
        // immediate self-delivery (lines 10–20 run locally at once)
        self.apply(x, v, ts);
        causal_broadcast(&mut self.bcast, (event, x as u32, v, ts), out);
    }

    /// `on receive Mess(x, v, vt, j)` (lines 10–20), transcribed
    /// faithfully: shift cells with timestamps ≤ `(vt, j)` to the left
    /// and insert the new cell at the vacated slot; a value older than
    /// all `k` current cells (`y = 0`) is discarded.
    fn apply(&mut self, x: usize, v: Value, ts: Timestamp) {
        // line 11: vtime ← max(vtime, vt)
        self.vtime.observe(ts.time);
        if self.k == 0 {
            return;
        }
        let s = &mut self.streams[x];
        // lines 12–16
        let mut y = 0usize;
        while y < self.k - 1 && s[y].ts <= ts {
            // within the loop the paper shifts as it scans
            y += 1;
        }
        // the scan found the first index whose cell is newer than ts
        // (or k-1); shift everything below it left by one and insert.
        if s[self.k - 1].ts <= ts {
            y = self.k; // newer than everything: goes last
        }
        if y != 0 {
            for z in 0..y - 1 {
                s[z] = s[z + 1];
            }
            s[y - 1] = Cell { v, ts };
        }
        debug_assert!(s.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    /// Receive a remote envelope; appends applied event ids.
    pub(crate) fn receive(&mut self, msg: CcvMess, applied: &mut Vec<u64>) {
        for m in self.bcast.on_receive(msg) {
            for &(event, x, v, ts) in &m.payload {
                self.apply(x as usize, v, ts);
                applied.push(event);
            }
            self.bcast.recycle(m);
        }
    }
}

impl Replica<WindowArray> for WkArrayCcv {
    type Msg = CcvMess;

    fn new_replica(me: NodeId, n: usize, adt: WindowArray) -> Self {
        WkArrayCcv::new(me, n, adt.streams(), adt.k())
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &WaInput,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<WaOutput> {
        match input {
            WaInput::Read(x) => InvokeOutcome::Done(WaOutput::Window(self.read(*x))),
            WaInput::Write(x, v) => {
                self.write(event, *x, *v, out);
                InvokeOutcome::Done(WaOutput::Ack)
            }
        }
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        _out: &mut Vec<Outgoing<Self::Msg>>,
        _completed: &mut Vec<(u64, WaOutput)>,
        applied: &mut Vec<u64>,
    ) {
        self.receive(msg, applied);
    }

    fn local_state(&self) -> Vec<Value> {
        (0..self.streams.len()).flat_map(|x| self.read(x)).collect()
    }

    fn msg_size(&self, msg: &Self::Msg) -> usize {
        // causal header + Mess(x, v, vt, j): x (4) + v (8) + vt (8) + j (2)
        causal_size(msg, 4 + 8 + 8 + 2)
    }

    fn flavour() -> &'static str {
        "Wk-array CCv (Fig. 5 verbatim)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{copy_for, deliver_each};

    #[test]
    fn fig4_read_returns_last_k_writes() {
        let mut r = WkArrayCc::new(0, 1, 1, 3);
        for (event, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            r.write(event, 0, v, &mut Vec::new());
        }
        assert_eq!(r.read(0), vec![2, 3, 4]);
    }

    #[test]
    fn fig4_matches_generalized_replica() {
        use crate::causal::CausalShared;
        let adt = WindowArray::new(3, 2);
        let mut spec: CausalShared<WindowArray> = CausalShared::new_replica(0, 2, adt);
        let mut fig4 = WkArrayCc::new(0, 2, 3, 2);
        let script = [(0usize, 5u64), (1, 6), (0, 7), (2, 8), (0, 9)];
        for (i, (x, v)) in script.iter().enumerate() {
            let mut out = Vec::new();
            spec.invoke(i as u64, &WaInput::Write(*x, *v), &mut out);
            fig4.write(i as u64, *x, *v, &mut Vec::new());
        }
        let spec_state = spec.local_state();
        for x in 0..3 {
            assert_eq!(spec_state[x * 2..(x + 1) * 2], fig4.read(x));
        }
    }

    #[test]
    fn fig5_insert_sorts_by_timestamp() {
        let mut r = WkArrayCcv::new(0, 1, 1, 3);
        // apply out of timestamp order directly
        r.apply(0, 30, Timestamp::new(3, 0));
        r.apply(0, 10, Timestamp::new(1, 0));
        r.apply(0, 20, Timestamp::new(2, 0));
        assert_eq!(r.read(0), vec![10, 20, 30]);
    }

    #[test]
    fn fig5_discards_values_older_than_window() {
        let mut r = WkArrayCcv::new(0, 1, 1, 2);
        r.apply(0, 10, Timestamp::new(10, 0));
        r.apply(0, 20, Timestamp::new(20, 0));
        // older than both cells: y stays 0, value discarded
        r.apply(0, 5, Timestamp::new(1, 1));
        assert_eq!(r.read(0), vec![10, 20]);
    }

    #[test]
    fn fig5_two_replicas_converge() {
        let mut a = WkArrayCcv::new(0, 2, 1, 2);
        let mut b = WkArrayCcv::new(1, 2, 1, 2);
        let (mut ma, mut mb) = (Vec::new(), Vec::new());
        a.write(0, 0, 1, &mut ma);
        b.write(1, 0, 2, &mut mb);
        b.receive(copy_for(&ma, 1), &mut Vec::new());
        a.receive(copy_for(&mb, 0), &mut Vec::new());
        assert_eq!(a.read(0), b.read(0));
        // tie on vtime=1 broken by pid: p0's write first
        assert_eq!(a.read(0), vec![1, 2]);
    }

    #[test]
    fn fig5_matches_generalized_convergent_replica() {
        use crate::convergent::ConvergentShared;
        let adt = WindowArray::new(2, 3);
        let mut spec: Vec<ConvergentShared<WindowArray>> = (0..2)
            .map(|me| ConvergentShared::new_replica(me, 2, adt))
            .collect();
        let mut fig: Vec<WkArrayCcv> = (0..2).map(|me| WkArrayCcv::new(me, 2, 2, 3)).collect();

        // concurrent writes on both replicas, then full exchange
        let (mut env_spec, mut env_fig) = (Vec::new(), Vec::new());
        for (ev, (p, x, v)) in [(0usize, 0usize, 1u64), (1, 0, 2), (0, 1, 3), (1, 1, 4)]
            .into_iter()
            .enumerate()
        {
            let (mut o, mut m) = (Vec::new(), Vec::new());
            spec[p].invoke(ev as u64, &WaInput::Write(x, v), &mut o);
            fig[p].write(ev as u64, x, v, &mut m);
            env_spec.push((p, o));
            env_fig.push((p, m));
        }
        for (from, o) in env_spec {
            deliver_each(&mut spec, from, o);
        }
        for (from, m) in env_fig {
            deliver_each(&mut fig, from, m);
        }
        assert_eq!(spec[0].local_state(), fig[0].local_state());
        assert_eq!(spec[1].local_state(), fig[1].local_state());
        assert_eq!(fig[0].local_state(), fig[1].local_state());
    }

    #[test]
    fn fig5_k0_is_total_noop() {
        let mut r = WkArrayCcv::new(0, 1, 1, 0);
        r.apply(0, 5, Timestamp::new(1, 0));
        assert_eq!(r.read(0), Vec::<Value>::new());
    }

    #[test]
    fn wire_sizes_are_exact() {
        let mut cc = WkArrayCc::new(0, 3, 1, 2);
        let mut out = Vec::new();
        cc.write(0, 0, 7, &mut out);
        let m = copy_for(&out, 2);
        // the header is exactly the varint codec's bytes: sender, seq,
        // one row (index, two cells of gap and count) — then Mess(x, v)
        assert_eq!(m.knows.encode(m.sender, m.seq).len(), 9);
        let sz = Replica::<WindowArray>::msg_size(&cc, &m);
        assert_eq!(sz, 9 + 4 + 8);
        let mut ccv = WkArrayCcv::new(0, 3, 1, 2);
        let mut out = Vec::new();
        ccv.write(0, 0, 7, &mut out);
        let sz2 = Replica::<WindowArray>::msg_size(&ccv, &copy_for(&out, 2));
        assert_eq!(sz2, sz + 10);
    }
}
