//! [`EcShared`]: eventual-consistency baseline — timestamp arbitration
//! *without* causal delivery.
//!
//! Structurally the generalized Fig. 5 replica
//! ([`crate::convergent::ConvergentShared`]) minus the causal
//! broadcast: updates carry Lamport timestamps and are merged into an
//! arbitrated log, but arrive unordered. Replicas still converge (same
//! log ⇒ same state: the arbitration order is delivery-independent),
//! so the flavour is eventually consistent — but it is **not** weakly
//! causally consistent: an effect can be applied before its cause, so
//! a replica can observe an answer without its question (the anomaly
//! separating EC from CCv on Fig. 1, demonstrated in the tests below
//! and the `message_forum` example).

use crate::convergent::ArbUpdate;
use crate::replica::{stamped_size, InvokeOutcome, Outgoing, Replica, Stamped};
use cbm_adt::Adt;
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::NodeId;

/// An eventually consistent replica of any ADT (arbitrated log over
/// unordered reliable broadcast).
#[derive(Debug, Clone)]
pub struct EcShared<T: Adt> {
    adt: T,
    me: NodeId,
    clock: LamportClock,
    log: Vec<ArbUpdate<T::Input>>,
    state: T::State,
    dirty: bool,
}

impl<T: Adt> EcShared<T> {
    fn rebuild(&mut self) {
        if !self.dirty {
            return;
        }
        let mut s = self.adt.initial();
        for up in &self.log {
            s = self.adt.transition(&s, &up.op.input);
        }
        self.state = s;
        self.dirty = false;
    }

    fn insert(&mut self, up: ArbUpdate<T::Input>) {
        let pos = self.log.partition_point(|e| e.ts < up.ts);
        if pos == self.log.len() && !self.dirty {
            self.state = self.adt.transition(&self.state, &up.op.input);
            self.log.push(up);
        } else {
            self.log.insert(pos, up);
            self.dirty = true;
        }
    }

    /// The arbitration sequence (event ids in timestamp order).
    pub(crate) fn arbitration(&self) -> Vec<u64> {
        self.log.iter().map(|u| u.op.event).collect()
    }

    /// Evaluate a query on the current fold without recording.
    #[cfg(test)]
    pub(crate) fn peek(&mut self, input: &T::Input) -> T::Output {
        self.rebuild();
        self.adt.output(&self.state, input)
    }
}

impl<T: Adt> Replica<T> for EcShared<T> {
    type Msg = ArbUpdate<T::Input>;

    fn new_replica(me: NodeId, _n: usize, adt: T) -> Self {
        let state = adt.initial();
        EcShared {
            adt,
            me,
            clock: LamportClock::new(),
            log: Vec::new(),
            state,
            dirty: false,
        }
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &T::Input,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<T::Output> {
        self.rebuild();
        let output = self.adt.output(&self.state, input);
        if self.adt.is_update(input) {
            let ts = Timestamp::new(self.clock.tick(), self.me);
            let up = ArbUpdate {
                ts,
                op: Stamped {
                    event,
                    input: input.clone(),
                },
            };
            self.insert(up.clone());
            out.push(Outgoing::Broadcast(up));
        }
        InvokeOutcome::Done(output)
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        _out: &mut Vec<Outgoing<Self::Msg>>,
        _completed: &mut Vec<(u64, T::Output)>,
        applied: &mut Vec<u64>,
    ) {
        // no causal gate: merge immediately
        self.clock.observe(msg.ts.time);
        applied.push(msg.op.event);
        self.insert(msg);
    }

    fn local_state(&self) -> T::State {
        let mut s = self.adt.initial();
        for up in &self.log {
            s = self.adt.transition(&s, &up.op.input);
        }
        s
    }

    fn msg_size(&self, _msg: &Self::Msg) -> usize {
        // timestamp (10) + stamped payload; no vector clock at all
        10 + stamped_size(16)
    }

    fn flavour() -> &'static str {
        "arbitrated log, unordered (EC baseline)"
    }

    fn arbitration_hint(&self) -> Option<Vec<u64>> {
        Some(self.arbitration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::log::{AppendLog, LogInput, LogOutput};
    use cbm_adt::window::{WaInput, WaOutput, WindowArray};

    #[test]
    fn replicas_converge_without_causal_delivery() {
        let mut a: EcShared<WindowArray> = EcShared::new_replica(0, 2, WindowArray::new(1, 2));
        let mut b: EcShared<WindowArray> = EcShared::new_replica(1, 2, WindowArray::new(1, 2));
        let mut oa = Vec::new();
        let mut ob = Vec::new();
        a.invoke(0, &WaInput::Write(0, 1), &mut oa);
        b.invoke(1, &WaInput::Write(0, 2), &mut ob);
        let Outgoing::Broadcast(ma) = oa.pop().unwrap() else {
            panic!()
        };
        let Outgoing::Broadcast(mb) = ob.pop().unwrap() else {
            panic!()
        };
        b.on_deliver(0, ma, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        a.on_deliver(1, mb, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        assert_eq!(a.local_state(), b.local_state());
        assert_eq!(a.peek(&WaInput::Read(0)), WaOutput::Window(vec![1, 2]));
    }

    #[test]
    fn answer_can_be_observed_without_its_question() {
        // p0 appends Q; p1 reads it and appends A; p2 receives A only.
        // Under EC the log at p2 contains the answer without the
        // question — a WCC violation that CausalShared cannot exhibit.
        let mut p0: EcShared<AppendLog> = EcShared::new_replica(0, 3, AppendLog);
        let mut p1: EcShared<AppendLog> = EcShared::new_replica(1, 3, AppendLog);
        let mut p2: EcShared<AppendLog> = EcShared::new_replica(2, 3, AppendLog);

        let mut oq = Vec::new();
        p0.invoke(0, &LogInput::Append(100), &mut oq); // question
        let Outgoing::Broadcast(q) = oq.pop().unwrap() else {
            panic!()
        };
        p1.on_deliver(
            0,
            q.clone(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        assert_eq!(p1.peek(&LogInput::Read), LogOutput::Entries(vec![100]));

        let mut oa = Vec::new();
        p1.invoke(1, &LogInput::Append(200), &mut oa); // answer
        let Outgoing::Broadcast(a) = oa.pop().unwrap() else {
            panic!()
        };

        // p2 receives only the answer
        p2.on_deliver(1, a, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        assert_eq!(
            p2.peek(&LogInput::Read),
            LogOutput::Entries(vec![200]),
            "answer visible without its question"
        );
        // ... and heals once the question arrives (arbitration sorts it first)
        p2.on_deliver(0, q, &mut Vec::new(), &mut Vec::new(), &mut Vec::new());
        assert_eq!(p2.peek(&LogInput::Read), LogOutput::Entries(vec![100, 200]));
    }

    #[test]
    fn smaller_messages_than_causal_flavours() {
        let ec: EcShared<WindowArray> = EcShared::new_replica(0, 16, WindowArray::new(1, 1));
        let up = ArbUpdate {
            ts: Timestamp::ZERO,
            op: Stamped {
                event: 0,
                input: WaInput::Write(0, 0),
            },
        };
        // EC carries no vector clock: constant size regardless of n
        assert_eq!(ec.msg_size(&up), 10 + 24);
    }
}
