//! Sequential consistency (Definition 5): `lin(H) ∩ L(T) ≠ ∅` — and
//! its real-time strengthening, **linearizability** (Herlihy & Wing,
//! \[13\] in the paper), which §1 contrasts with SC cost-wise.

use crate::kernel::{LinQuery, Outcome};
use crate::{label_table, Budget, CheckResult, Verdict};
use cbm_adt::Adt;
use cbm_history::{History, Relation};

/// Is `h` sequentially consistent with `adt`?
///
/// On `Sat` the witness is the total order of the found linearization
/// (which is by construction a causal order, so downstream tooling can
/// reuse it).
pub fn check_sc<T: Adt>(adt: &T, h: &History<T::Input, T::Output>, budget: &Budget) -> CheckResult {
    check_sc_constrained(adt, h, None, budget)
}

/// Linearizability: sequential consistency whose witness order must
/// also respect `realtime` — the interval order "e completed before f
/// was invoked" recorded by the cluster driver
/// (`cbm-core::cluster::RunResult::realtime`).
///
/// Linearizability ⇒ SC (strictly more order constraints), and the
/// paper's cost discussion (§1, citing Attiya & Welch) is visible in
/// the recorded executions: wait-free causal replicas routinely
/// produce SC-but-not-linearizable histories once delays exceed think
/// times, while the sequencer baseline's histories stay linearizable.
pub fn check_linearizable<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    realtime: &Relation,
    budget: &Budget,
) -> CheckResult {
    check_sc_constrained(adt, h, Some(realtime), budget)
}

/// Shared implementation: SC with an optional extra order to respect.
pub(crate) fn check_sc_constrained<T: Adt>(
    adt: &T,
    h: &History<T::Input, T::Output>,
    extra: Option<&Relation>,
    budget: &Budget,
) -> CheckResult {
    let labels = label_table::<T>(h);
    // Everything is linearized and every output checked: one set
    // serves as both `include` and `visible`.
    let all = h.all_set();
    let mut nodes = budget.max_nodes;

    let combined;
    let pasts: &Relation = match extra {
        None => h.prog(),
        Some(rt) => {
            let mut rel = h.prog().clone();
            if !rel.union_closed(rt) {
                // program order and real time disagree: impossible
                // history (the driver never produces one)
                return CheckResult::new(Verdict::Unsat, 0);
            }
            combined = rel;
            &combined
        }
    };

    let q = LinQuery {
        adt,
        labels: &labels,
        pasts,
        include: &all,
        visible: &all,
    };
    let outcome = q.run(&mut nodes);
    let used = budget.max_nodes - nodes;
    match outcome {
        Outcome::Sat(seq) => {
            // The kernel drops unconstrained non-updates; rebuild a full
            // total order by appending them anywhere consistent with
            // the order that was searched.
            let witness = total_order_extending(h.len(), pasts, &seq);
            CheckResult::new(Verdict::Sat, used).with_witness(Some(witness))
        }
        Outcome::Unsat => CheckResult::new(Verdict::Unsat, used),
        Outcome::Unknown => CheckResult::new(Verdict::Unknown, used),
    }
}

/// Extend a partial witness sequence (over a subset of events) into a
/// total order over all `n` events that respects both the sequence and
/// the given partial order.
pub(crate) fn total_order_extending(n: usize, order_rel: &Relation, seq: &[usize]) -> Relation {
    // rank retained events by sequence position; insert missing events
    // greedily at the earliest slot after their predecessors.
    let mut order: Vec<usize> = seq.to_vec();
    let in_seq: Vec<bool> = {
        let mut v = vec![false; n];
        for &e in seq {
            v[e] = true;
        }
        v
    };
    for (e, &already) in in_seq.iter().enumerate() {
        if already {
            continue;
        }
        // earliest position after all predecessors already placed
        let mut pos = 0;
        for (i, &x) in order.iter().enumerate() {
            if order_rel.lt(x, e) {
                pos = i + 1;
            }
        }
        // and before all successors
        let mut upper = order.len();
        for (i, &x) in order.iter().enumerate() {
            if order_rel.lt(e, x) {
                upper = upper.min(i);
            }
        }
        // pos ≤ upper always holds when the sequence is compatible with
        // the partial order; the min is defensive
        order.insert(pos.min(upper), e);
    }
    Relation::total_from_sequence(n, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::window::{WInput, WOutput, WindowStream};
    use cbm_history::HistoryBuilder;

    type B = HistoryBuilder<WInput, WOutput>;

    fn w(v: u64) -> (WInput, WOutput) {
        (WInput::Write(v), WOutput::Ack)
    }
    fn r(vals: &[u64]) -> (WInput, WOutput) {
        (WInput::Read, WOutput::Window(vals.to_vec()))
    }

    /// Fig. 3d: p0: w(1), r/(0,1); p1: w(2), r/(1,2) — SC.
    #[test]
    fn fig3d_is_sc() {
        let adt = WindowStream::new(2);
        let mut b = B::new();
        let (i, o) = w(1);
        b.op(0, i, o);
        let (i, o) = r(&[0, 1]);
        b.op(0, i, o);
        let (i, o) = w(2);
        b.op(1, i, o);
        let (i, o) = r(&[1, 2]);
        b.op(1, i, o);
        let h = b.build();
        let res = check_sc(&adt, &h, &Budget::default());
        assert_eq!(res.verdict, Verdict::Sat);
        // witness is a total order containing the program order
        let w = res.witness.unwrap();
        assert!(w.contains(h.prog()));
        assert_eq!(w.count_linear_extensions(10), 1);
    }

    /// Fig. 3c: p0: w(1), r/(2,1); p1: w(2), r/(1,2) — not SC.
    #[test]
    fn fig3c_is_not_sc() {
        let adt = WindowStream::new(2);
        let mut b = B::new();
        let (i, o) = w(1);
        b.op(0, i, o);
        let (i, o) = r(&[2, 1]);
        b.op(0, i, o);
        let (i, o) = w(2);
        b.op(1, i, o);
        let (i, o) = r(&[1, 2]);
        b.op(1, i, o);
        let h = b.build();
        assert_eq!(
            check_sc(&adt, &h, &Budget::default()).verdict,
            Verdict::Unsat
        );
    }

    #[test]
    fn empty_history_is_sc() {
        let adt = WindowStream::new(2);
        let h = B::new().build();
        assert_eq!(check_sc(&adt, &h, &Budget::default()).verdict, Verdict::Sat);
    }

    #[test]
    fn tiny_budget_gives_unknown() {
        let adt = WindowStream::new(1);
        let mut b = B::new();
        for p in 0..3 {
            for v in 0..3 {
                let (i, o) = w(v + 10 * p);
                b.op(p as usize, i, o);
            }
        }
        let (i, o) = r(&[99]);
        b.op(0, i, o);
        let h = b.build();
        let res = check_sc(&adt, &h, &Budget::nodes(2));
        assert_eq!(res.verdict, Verdict::Unknown);
    }
}
