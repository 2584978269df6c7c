//! [`PramShared`]: pipelined-consistency baseline over FIFO broadcast.
//!
//! Identical to [`crate::causal::CausalShared`] except that effects are
//! replicated through a FIFO broadcast: each sender's updates apply in
//! send order, but *cross-sender* causality is not enforced. The
//! replica is wait-free and satisfies PC (PRAM generalized, Def. 6),
//! but not WCC: an answer can be applied before its question at a third
//! replica (the anomaly the `message_forum` example demonstrates).

use crate::replica::{stamped_size, InvokeOutcome, Outgoing, Replica, Stamped};
use cbm_adt::Adt;
use cbm_net::broadcast::{FifoBroadcast, FifoMsg};
use cbm_net::NodeId;

/// A pipelined-consistent replica of any ADT.
#[derive(Debug, Clone)]
pub struct PramShared<T: Adt> {
    adt: T,
    state: T::State,
    bcast: FifoBroadcast<Stamped<T::Input>>,
}

impl<T: Adt> Replica<T> for PramShared<T> {
    type Msg = FifoMsg<Stamped<T::Input>>;

    fn new_replica(me: NodeId, n: usize, adt: T) -> Self {
        let state = adt.initial();
        PramShared {
            adt,
            state,
            bcast: FifoBroadcast::new(me, n),
        }
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &T::Input,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<T::Output> {
        let output = self.adt.output(&self.state, input);
        if self.adt.is_update(input) {
            self.state = self.adt.transition(&self.state, input);
            let msg = self.bcast.broadcast(Stamped {
                event,
                input: input.clone(),
            });
            out.push(Outgoing::Broadcast(msg));
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
        for m in self.bcast.on_receive(msg) {
            self.state = self.adt.transition(&self.state, &m.payload.input);
            applied.push(m.payload.event);
        }
    }

    fn local_state(&self) -> T::State {
        self.state.clone()
    }

    fn msg_size(&self, _msg: &Self::Msg) -> usize {
        // sender (2) + seq (8) + stamped payload
        2 + 8 + stamped_size(16)
    }

    fn flavour() -> &'static str {
        "FIFO (PC baseline)"
    }
}

impl<T: Adt> PramShared<T> {
    /// Evaluate a query locally without recording.
    #[cfg(test)]
    pub(crate) fn peek(&self, input: &T::Input) -> T::Output {
        self.adt.output(&self.state, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::window::{WaInput, WaOutput, WindowArray};

    type Rep = PramShared<WindowArray>;

    #[test]
    fn per_sender_order_is_respected() {
        let mut a: Rep = Rep::new_replica(0, 2, WindowArray::new(1, 2));
        let mut b: Rep = Rep::new_replica(1, 2, WindowArray::new(1, 2));
        let mut out = Vec::new();
        a.invoke(0, &WaInput::Write(0, 1), &mut out);
        a.invoke(1, &WaInput::Write(0, 2), &mut out);
        // deliver in reverse: FIFO layer re-orders
        let envs: Vec<_> = out
            .into_iter()
            .map(|o| match o {
                Outgoing::Broadcast(e) => e,
                _ => panic!(),
            })
            .collect();
        b.on_deliver(
            0,
            envs[1].clone(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        assert_eq!(b.peek(&WaInput::Read(0)), WaOutput::Window(vec![0, 0]));
        let mut applied = Vec::new();
        b.on_deliver(
            0,
            envs[0].clone(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut applied,
        );
        assert_eq!(applied, vec![0, 1]);
        assert_eq!(b.peek(&WaInput::Read(0)), WaOutput::Window(vec![1, 2]));
    }

    #[test]
    fn cross_sender_causality_not_enforced() {
        // p0 writes Q; p1 sees it, writes A; p2 can apply A before Q —
        // the WCC anomaly that distinguishes PC from CC.
        let mut p0: Rep = Rep::new_replica(0, 3, WindowArray::new(1, 2));
        let mut p1: Rep = Rep::new_replica(1, 3, WindowArray::new(1, 2));
        let mut p2: Rep = Rep::new_replica(2, 3, WindowArray::new(1, 2));

        let mut out_q = Vec::new();
        p0.invoke(0, &WaInput::Write(0, 1), &mut out_q);
        let Outgoing::Broadcast(q) = out_q.pop().unwrap() else {
            panic!()
        };
        p1.on_deliver(
            0,
            q.clone(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
        );

        let mut out_a = Vec::new();
        p1.invoke(1, &WaInput::Write(0, 2), &mut out_a);
        let Outgoing::Broadcast(a) = out_a.pop().unwrap() else {
            panic!()
        };

        // p2 receives the answer first — and applies it immediately
        let mut applied = Vec::new();
        p2.on_deliver(1, a, &mut Vec::new(), &mut Vec::new(), &mut applied);
        assert_eq!(
            applied,
            vec![1],
            "FIFO applies the answer before the question"
        );
        assert_eq!(p2.peek(&WaInput::Read(0)), WaOutput::Window(vec![0, 2]));
        p2.on_deliver(0, q, &mut Vec::new(), &mut Vec::new(), &mut applied);
        assert_eq!(p2.peek(&WaInput::Read(0)), WaOutput::Window(vec![2, 1]));
    }
}
