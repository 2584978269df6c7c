//! [`SeqShared`]: sequentially consistent baseline through a
//! total-order broadcast.
//!
//! Every operation — update *and* query — is routed through the
//! sequencer and applied by all replicas in slot order; the invoking
//! replica answers when its own slot arrives. The result is a single
//! total order compatible with each process's program order, i.e.
//! sequential consistency (in fact linearizability of the replicated
//! state machine).
//!
//! The point of this baseline is its **cost**: invocations block for at
//! least a round trip to the sequencer, so operation latency grows with
//! network delay — the behaviour that §1 contrasts with the wait-free
//! causal implementations (the cluster test `seq_cluster_ops_pay_latency`
//! pins it). It is also not fault-tolerant: a sequencer crash blocks
//! the object, the CAP trade-off in miniature.

use crate::replica::{InvokeOutcome, Outgoing, Replica, Stamped};
use cbm_adt::Adt;
use cbm_net::broadcast::{SeqMsg, SequencerBroadcast, SEQUENCER};
use cbm_net::NodeId;

/// A sequentially consistent replica (total-order RSM baseline).
#[derive(Debug, Clone)]
pub struct SeqShared<T: Adt> {
    adt: T,
    me: NodeId,
    state: T::State,
    proto: SequencerBroadcast<Stamped<T::Input>>,
}

impl<T: Adt> Replica<T> for SeqShared<T> {
    type Msg = SeqMsg<Stamped<T::Input>>;

    fn new_replica(me: NodeId, n: usize, adt: T) -> Self {
        let state = adt.initial();
        SeqShared {
            adt,
            me,
            state,
            proto: SequencerBroadcast::new(me, n),
        }
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &T::Input,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<T::Output> {
        let stamped = Stamped {
            event,
            input: input.clone(),
        };
        let msg = self.proto.submit(stamped);
        if self.me == SEQUENCER {
            // sequencer ordered it directly: broadcast and loop back
            out.push(Outgoing::Broadcast(msg.clone()));
            let (deliveries, _) = self.proto.on_receive(msg);
            let mut result = None;
            for (_slot, _origin, op) in deliveries {
                let output = self.adt.output(&self.state, &op.input);
                self.state = self.adt.transition(&self.state, &op.input);
                if op.event == event {
                    result = Some(output);
                }
            }
            match result {
                Some(o) => InvokeOutcome::Done(o),
                // own op still buffered behind unseen slots
                None => InvokeOutcome::Pending(event),
            }
        } else {
            out.push(Outgoing::To(SEQUENCER, msg));
            InvokeOutcome::Pending(event)
        }
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        out: &mut Vec<Outgoing<Self::Msg>>,
        completed: &mut Vec<(u64, T::Output)>,
        applied: &mut Vec<u64>,
    ) {
        let (deliveries, forward) = self.proto.on_receive(msg);
        for fwd in forward {
            // we are the sequencer: fan out, then apply our own copy
            out.push(Outgoing::Broadcast(fwd.clone()));
            let (more, _) = self.proto.on_receive(fwd);
            self.apply_all(more, completed, applied);
        }
        self.apply_all(deliveries, completed, applied);
    }

    fn local_state(&self) -> T::State {
        self.state.clone()
    }

    fn msg_size(&self, msg: &Self::Msg) -> usize {
        match msg {
            SeqMsg::Submit { .. } => 2 + 8 + 8 + 16,
            SeqMsg::Ordered { .. } => 8 + 2 + 8 + 16,
        }
    }

    fn wait_free() -> bool {
        false
    }

    fn flavour() -> &'static str {
        "sequencer (SC baseline, blocking)"
    }
}

impl<T: Adt> SeqShared<T> {
    fn apply_all(
        &mut self,
        deliveries: Vec<(u64, NodeId, Stamped<T::Input>)>,
        completed: &mut Vec<(u64, T::Output)>,
        applied: &mut Vec<u64>,
    ) {
        for (_slot, origin, op) in deliveries {
            let output = self.adt.output(&self.state, &op.input);
            self.state = self.adt.transition(&self.state, &op.input);
            applied.push(op.event);
            if origin == self.me {
                completed.push((op.event, output));
            }
        }
    }

    /// Evaluate a query locally without ordering it (debug only; this
    /// would *not* be sequentially consistent as a public operation).
    #[cfg(test)]
    pub(crate) fn peek(&self, input: &T::Input) -> T::Output {
        self.adt.output(&self.state, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::window::{WaInput, WaOutput, WindowArray};

    type Rep = SeqShared<WindowArray>;

    #[test]
    fn sequencer_completes_own_ops_immediately() {
        let mut s: Rep = Rep::new_replica(0, 2, WindowArray::new(1, 2));
        let mut out = Vec::new();
        let r = s.invoke(0, &WaInput::Write(0, 5), &mut out);
        assert_eq!(r, InvokeOutcome::Done(WaOutput::Ack));
        assert_eq!(out.len(), 1);
        let r = s.invoke(1, &WaInput::Read(0), &mut out);
        assert_eq!(r, InvokeOutcome::Done(WaOutput::Window(vec![0, 5])));
    }

    #[test]
    fn non_sequencer_ops_block_until_ordered() {
        let mut seq: Rep = Rep::new_replica(0, 2, WindowArray::new(1, 1));
        let mut p1: Rep = Rep::new_replica(1, 2, WindowArray::new(1, 1));

        let mut out1 = Vec::new();
        let r = p1.invoke(7, &WaInput::Write(0, 3), &mut out1);
        assert_eq!(r, InvokeOutcome::Pending(7));
        let Outgoing::To(to, submit) = out1.pop().unwrap() else {
            panic!()
        };
        assert_eq!(to, SEQUENCER);

        // sequencer orders and fans out
        let mut out0 = Vec::new();
        let mut completed0 = Vec::new();
        seq.on_deliver(1, submit, &mut out0, &mut completed0, &mut Vec::new());
        assert!(completed0.is_empty(), "not the origin");
        let Outgoing::Broadcast(ordered) = out0.pop().unwrap() else {
            panic!()
        };

        // p1 receives the ordered slot: its op completes
        let mut completed1 = Vec::new();
        p1.on_deliver(
            0,
            ordered,
            &mut Vec::new(),
            &mut completed1,
            &mut Vec::new(),
        );
        assert_eq!(completed1, vec![(7, WaOutput::Ack)]);
        assert_eq!(p1.peek(&WaInput::Read(0)), WaOutput::Window(vec![3]));
        assert_eq!(seq.peek(&WaInput::Read(0)), WaOutput::Window(vec![3]));
    }

    #[test]
    fn all_replicas_apply_the_same_total_order() {
        let mut seq: Rep = Rep::new_replica(0, 3, WindowArray::new(1, 3));
        let mut p1: Rep = Rep::new_replica(1, 3, WindowArray::new(1, 3));
        let mut p2: Rep = Rep::new_replica(2, 3, WindowArray::new(1, 3));

        // two concurrent submissions
        let mut o1 = Vec::new();
        p1.invoke(1, &WaInput::Write(0, 11), &mut o1);
        let mut o2 = Vec::new();
        p2.invoke(2, &WaInput::Write(0, 22), &mut o2);
        let Outgoing::To(_, s1) = o1.pop().unwrap() else {
            panic!()
        };
        let Outgoing::To(_, s2) = o2.pop().unwrap() else {
            panic!()
        };

        // sequencer handles p2's first
        let mut fan = Vec::new();
        seq.on_deliver(2, s2, &mut fan, &mut Vec::new(), &mut Vec::new());
        seq.on_deliver(1, s1, &mut fan, &mut Vec::new(), &mut Vec::new());
        let envs: Vec<_> = fan
            .into_iter()
            .map(|o| match o {
                Outgoing::Broadcast(e) => e,
                _ => panic!(),
            })
            .collect();
        // deliver to p1 and p2 in opposite orders: slot buffering fixes it
        for e in envs.iter() {
            p1.on_deliver(
                0,
                e.clone(),
                &mut Vec::new(),
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        for e in envs.iter().rev() {
            p2.on_deliver(
                0,
                e.clone(),
                &mut Vec::new(),
                &mut Vec::new(),
                &mut Vec::new(),
            );
        }
        assert_eq!(p1.local_state(), p2.local_state());
        assert_eq!(p1.local_state(), seq.local_state());
        assert_eq!(
            p1.peek(&WaInput::Read(0)),
            WaOutput::Window(vec![0, 22, 11])
        );
    }

    #[test]
    fn flavour_is_not_wait_free() {
        assert!(!<Rep as Replica<WindowArray>>::wait_free());
    }
}
