//! The simulation driver: runs any replica flavour over the
//! deterministic network, records the resulting distributed history
//! with its ground-truth causal witness, and measures the costs.
//!
//! A [`Cluster`] owns `n` replicas and a `cbm-net` [`SimNet`]. The
//! driver enforces the paper's process model — each process is
//! *sequential*, invoking its next operation only after the previous
//! one completed (plus a think time) — and interleaves network
//! deliveries by simulated time. Because both the network and the
//! workload are seeded, every run is replayable.
//!
//! The run result carries everything the checkers need:
//!
//! * the [`History`] (Def. 4) of the execution;
//! * the **delivered-before causal order** (the witness for Defs. 8/9);
//! * per-replica apply orders and, for arbitrated flavours, the
//!   timestamp total order (the witness for Def. 12);
//! * cost metrics: per-operation latency (zero for wait-free flavours,
//!   round-trips for the SC baseline), message and byte counts, and
//!   convergence data.

use crate::replica::{InvokeOutcome, Outgoing, Replica};
use cbm_adt::Adt;
use cbm_history::{EventId, History, HistoryBuilder, Relation};
use cbm_net::fault::{Fault, FaultPlan};
use cbm_net::latency::LatencyModel;
use cbm_net::sim::{NetStats, SimNet};
use cbm_net::NodeId;
use std::collections::HashMap;

/// One scripted operation: wait `think` ticks after the previous
/// operation completes, then invoke `input`.
#[derive(Debug, Clone)]
pub struct ScriptOp<I> {
    /// Think time before the invocation.
    pub think: u64,
    /// The operation input.
    pub input: I,
}

/// A per-process operation script, with optional crash times.
#[derive(Debug, Clone)]
pub struct Script<I> {
    /// `ops[p]` = the sequential program of process `p`.
    pub ops: Vec<Vec<ScriptOp<I>>>,
    /// `crash_at[p]` = simulated time at which `p` crashes (stops
    /// invoking and receiving), if any.
    pub crash_at: Vec<Option<u64>>,
}

impl<I> Script<I> {
    /// A script with no crashes.
    pub fn new(ops: Vec<Vec<ScriptOp<I>>>) -> Self {
        let n = ops.len();
        Script {
            ops,
            crash_at: vec![None; n],
        }
    }

    /// Number of processes.
    pub(crate) fn n_procs(&self) -> usize {
        self.ops.len()
    }
}

/// Cost metrics of a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Completion latency per completed operation, in simulated ticks
    /// (0 = completed at invocation: wait-free).
    pub op_latencies: Vec<u64>,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Time of the last operation completion.
    pub makespan: u64,
    /// Time at which the network went quiescent.
    pub quiescent_at: u64,
    /// Did all (non-crashed) replicas hold equal states at quiescence?
    pub converged: bool,
    /// Operations still pending at the end (SC baseline under crashes).
    pub incomplete_ops: usize,
    /// Full transport statistics (drop/duplicate/parked counts,
    /// per-node drops).
    pub net: NetStats,
}

impl RunStats {
    /// Mean completion latency.
    pub fn mean_latency(&self) -> f64 {
        if self.op_latencies.is_empty() {
            0.0
        } else {
            self.op_latencies.iter().sum::<u64>() as f64 / self.op_latencies.len() as f64
        }
    }
}

/// Everything a run produces.
pub struct RunResult<T: Adt> {
    /// The recorded history (events in global invocation order).
    pub history: History<T::Input, T::Output>,
    /// Delivered-before causal order (transitively closed); the
    /// witness for `verify_cc_execution`.
    pub causal: Relation,
    /// Per-replica apply orders.
    pub apply_orders: Vec<Vec<EventId>>,
    /// Per-replica own (invoked) events.
    pub own: Vec<Vec<EventId>>,
    /// Final local states of all replicas.
    pub final_states: Vec<T::State>,
    /// Arbitration order of replica 0 (arbitrated flavours only): the
    /// update part of the `≤` witness for `verify_ccv_execution`.
    pub arbitration: Option<Vec<EventId>>,
    /// The real-time interval order: `e < f` iff `e` completed before
    /// `f` was invoked (the extra constraint of linearizability; see
    /// `cbm-check::sc::check_linearizable`).
    pub realtime: Relation,
    /// Cost metrics.
    pub stats: RunStats,
}

impl<T: Adt> RunResult<T> {
    /// A total order extending `causal` (topological, update-timestamp
    /// aware callers should prefer replica arbitration); the witness
    /// `≤` for `verify_ccv_execution` on arbitrated flavours whose
    /// arbitration agrees with delivery, built from the causal witness
    /// plus the given update sequence.
    pub fn ccv_total(&self, update_arbitration: &[EventId]) -> Option<Vec<EventId>> {
        let n = self.history.len();
        let mut rel = self.causal.clone();
        let mut prev: Option<EventId> = None;
        for &u in update_arbitration {
            if let Some(p) = prev {
                if p != u {
                    rel.add_pair_closed(p.idx(), u.idx());
                }
            }
            prev = Some(u);
        }
        if !rel.is_acyclic() {
            return None;
        }
        let topo = rel.topo_order();
        Some(
            topo.into_iter()
                .map(|i| EventId(i as u32))
                .collect::<Vec<_>>(),
        )
        .filter(|v| v.len() == n)
    }
}

/// The simulation driver (see module docs).
pub struct Cluster<T: Adt, R: Replica<T>> {
    net: SimNet<R::Msg>,
    replicas: Vec<R>,
}

/// Earliest of two optional times (both timed sources pending → the
/// sooner one; one pending → it; none → none).
fn opt_min(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

struct ProcState<I> {
    remaining: std::vec::IntoIter<ScriptOp<I>>,
    ready_at: u64,
    pending: Option<u64>,
    /// Mirror of the transport's crash state (the fault layer is the
    /// single source of truth; see [`Cluster::run_faulted`]).
    crashed: bool,
}

impl<T: Adt + Clone, R: Replica<T>> Cluster<T, R> {
    /// Build a cluster of `n` replicas of flavour `R` over a simulated
    /// network.
    pub fn new(n: usize, adt: T, latency: LatencyModel, seed: u64) -> Self {
        let replicas = (0..n)
            .map(|me| R::new_replica(me, n, adt.clone()))
            .collect();
        Cluster {
            net: SimNet::new(n, latency, seed),
            replicas,
        }
    }

    /// Run a script to completion (all ops done or crashed, network
    /// quiescent) and return the recorded execution.
    ///
    /// Equivalent to [`Cluster::run_faulted`] with an empty
    /// [`FaultPlan`] — `Script::crash_at` entries still apply (they
    /// are routed through the fault layer).
    pub fn run(self, script: Script<T::Input>) -> RunResult<T> {
        self.run_faulted(script, FaultPlan::new())
    }

    /// Run a script under a [`FaultPlan`] (see `cbm-net::fault`).
    ///
    /// `Script::crash_at` entries are merged into the plan as
    /// [`Fault::Crash`] events, so a driver-level crash and a
    /// transport-level crash are the same thing: the transport is the
    /// single source of truth for crash state, and the driver mirrors
    /// it (a crashed process stops invoking; a recovered one resumes
    /// its remaining script). All fault events — including those later
    /// than the last delivery — participate in simulated-time
    /// ordering, so a post-quiescence heal still releases parked
    /// messages.
    pub fn run_faulted(mut self, script: Script<T::Input>, faults: FaultPlan) -> RunResult<T> {
        let n = self.replicas.len();
        assert_eq!(script.n_procs(), n, "script size must match cluster");

        let mut plan = faults;
        for (p, crash) in script.crash_at.iter().enumerate() {
            if let Some(at) = crash {
                plan.push(*at, Fault::Crash(p));
            }
        }
        if let Err(e) = plan.check(n) {
            panic!("{e}");
        }
        let mut schedule = plan.into_schedule();

        let mut procs: Vec<ProcState<T::Input>> = script
            .ops
            .into_iter()
            .map(|ops| ProcState {
                remaining: ops.into_iter(),
                ready_at: 0,
                pending: None,
                crashed: false,
            })
            .collect();
        // peek the first think times
        let mut next_op: Vec<Option<ScriptOp<T::Input>>> =
            procs.iter_mut().map(|p| p.remaining.next()).collect();
        for (p, op) in next_op.iter().enumerate() {
            if let Some(op) = op {
                procs[p].ready_at = op.think;
            }
        }

        // recorder state
        let mut inputs: Vec<(NodeId, T::Input)> = Vec::new();
        let mut outputs: Vec<Option<T::Output>> = Vec::new();
        let mut invoke_times: Vec<u64> = Vec::new();
        let mut complete_times: Vec<Option<u64>> = Vec::new();
        let mut apply_orders: Vec<Vec<EventId>> = vec![Vec::new(); n];
        let mut own: Vec<Vec<EventId>> = vec![Vec::new(); n];
        let mut pending_invoked: HashMap<u64, (NodeId, u64)> = HashMap::new();
        let mut stats = RunStats::default();

        loop {
            // next invocation candidate
            let mut inv: Option<(u64, NodeId)> = None;
            for (p, st) in procs.iter().enumerate() {
                if st.crashed || st.pending.is_some() || next_op[p].is_none() {
                    continue;
                }
                if inv.is_none_or(|(t, _)| st.ready_at < t) {
                    inv = Some((st.ready_at, p));
                }
            }
            let net_time = self.net.peek_time();

            // faults fire before any action at the same instant
            let next_action_time = opt_min(inv.map(|(ti, _)| ti), net_time);
            match (next_action_time, schedule.peek_time()) {
                (None, None) => break,
                (ta, Some(tf)) if ta.is_none_or(|ta| tf <= ta) => {
                    self.net.advance_time(tf);
                    while let Some(fault) = schedule.next_due(tf) {
                        self.net.apply(fault);
                    }
                    // mirror transport crash state into the driver
                    for (p, st) in procs.iter_mut().enumerate() {
                        let down = self.net.is_crashed(p);
                        if st.crashed && !down {
                            // recovered: resume the script from now.
                            // An operation that was pending at crash
                            // time is abandoned (its completion was
                            // dropped with the crash; it stays in
                            // `incomplete_ops`) so the script can
                            // continue.
                            st.ready_at = st.ready_at.max(tf);
                            if st.pending.take().is_some() {
                                next_op[p] = st.remaining.next();
                                if let Some(next) = &next_op[p] {
                                    st.ready_at = tf + next.think.max(1);
                                }
                            }
                        }
                        st.crashed = down;
                    }
                    continue;
                }
                _ => {}
            }

            match (inv, net_time) {
                (Some((ti, p)), tn) if tn.is_none_or(|tn| ti <= tn) => {
                    // invoke next op of p at time ti
                    let op = next_op[p].take().unwrap();
                    self.net.advance_time(ti);
                    let event = inputs.len() as u64;
                    inputs.push((p, op.input.clone()));
                    outputs.push(None);
                    invoke_times.push(ti);
                    complete_times.push(None);
                    own[p].push(EventId(event as u32));

                    let mut out = Vec::new();
                    let outcome = self.replicas[p].invoke(event, &op.input, &mut out);
                    self.route(p, out, &mut stats);
                    match outcome {
                        InvokeOutcome::Done(o) => {
                            outputs[event as usize] = Some(o);
                            complete_times[event as usize] = Some(ti);
                            apply_orders[p].push(EventId(event as u32));
                            stats.op_latencies.push(0);
                            stats.makespan = stats.makespan.max(ti);
                            // schedule next op
                            next_op[p] = procs[p].remaining.next();
                            if let Some(next) = &next_op[p] {
                                procs[p].ready_at = ti + next.think.max(1);
                            }
                        }
                        InvokeOutcome::Pending(id) => {
                            procs[p].pending = Some(id);
                            pending_invoked.insert(id, (p, ti));
                        }
                    }
                }
                (_, Some(_)) => {
                    // deliver next message, bounded by the next
                    // invocation/fault time: peek_time() is only a
                    // lower bound (the top entry may be dropped or
                    // parked), so an unbounded pop could return a
                    // delivery from beyond an action that must fire
                    // first
                    let limit = opt_min(inv.map(|(ti, _)| ti), schedule.peek_time());
                    let Some(d) = self.net.pop_due(limit) else {
                        continue;
                    };
                    let to = d.to;
                    let mut out = Vec::new();
                    let mut completed = Vec::new();
                    let mut applied = Vec::new();
                    self.replicas[to].on_deliver(
                        d.from,
                        d.msg,
                        &mut out,
                        &mut completed,
                        &mut applied,
                    );
                    self.route(to, out, &mut stats);
                    apply_orders[to].extend(applied.into_iter().map(|e| EventId(e as u32)));
                    for (ev, o) in completed {
                        outputs[ev as usize] = Some(o);
                        complete_times[ev as usize] = Some(d.time);
                        if let Some((p, t_inv)) = pending_invoked.remove(&ev) {
                            let lat = d.time.saturating_sub(t_inv);
                            stats.op_latencies.push(lat);
                            stats.makespan = stats.makespan.max(d.time);
                            // advance the script only if the process
                            // is still waiting on this operation (a
                            // crash-recovery may have abandoned it and
                            // moved on already)
                            if procs[p].pending == Some(ev) {
                                procs[p].pending = None;
                                next_op[p] = procs[p].remaining.next();
                                if let Some(next) = &next_op[p] {
                                    procs[p].ready_at = d.time + next.think.max(1);
                                }
                            }
                        }
                    }
                }
                (None, None) => break,
                _ => unreachable!(),
            }
        }

        stats.quiescent_at = self.net.now();
        stats.incomplete_ops = pending_invoked.len();
        let net_stats = self.net.stats();
        stats.msgs_sent = net_stats.msgs_sent;
        stats.bytes_sent = net_stats.bytes_sent;
        stats.net = net_stats;

        let final_states: Vec<T::State> = self.replicas.iter().map(|r| r.local_state()).collect();
        // the union of every replica's applied updates, in timestamp
        // order: a replica that missed an update (a dropped message)
        // cannot place it alone
        let arbitration = self
            .replicas
            .iter()
            .map(R::arbitration_hint)
            .collect::<Option<Vec<_>>>()
            .map(|lists| {
                let mut known = lists.concat();
                known.sort_unstable();
                known.dedup();
                known.into_iter().map(|(_, e)| EventId(e as u32)).collect()
            });
        let live_states: Vec<&T::State> = final_states
            .iter()
            .enumerate()
            .filter(|(p, _)| !procs[*p].crashed)
            .map(|(_, s)| s)
            .collect();
        stats.converged = live_states.windows(2).all(|w| w[0] == w[1]);

        // build the history (events in id order; per-process chains)
        let mut builder: HistoryBuilder<T::Input, T::Output> = HistoryBuilder::new();
        for (i, (p, input)) in inputs.iter().enumerate() {
            match &outputs[i] {
                Some(o) => builder.op(*p, input.clone(), o.clone()),
                None => builder.hidden(*p, input.clone()),
            };
        }
        let history = builder.build();

        let m = history.len();
        let causal = Relation::delivered_before(m, &apply_orders, &own)
            .expect("delivered-before relation must be acyclic");

        // real-time interval order: e < f iff complete(e) < invoke(f)
        let mut rt_edges: Vec<(usize, usize)> = Vec::new();
        for (e, ct) in complete_times.iter().enumerate() {
            let Some(tc) = ct else { continue };
            for (f, ti) in invoke_times.iter().enumerate() {
                if e != f && tc < ti {
                    rt_edges.push((e, f));
                }
            }
        }
        let realtime = Relation::from_edges(m, &rt_edges).expect("real time is acyclic");

        RunResult {
            history,
            causal,
            apply_orders,
            own,
            final_states,
            arbitration,
            realtime,
            stats,
        }
    }

    fn route(&mut self, from: NodeId, out: Vec<Outgoing<R::Msg>>, stats: &mut RunStats) {
        let _ = stats;
        for o in out {
            match o {
                Outgoing::Broadcast(m) => {
                    let size = self.replicas[from].msg_size(&m);
                    self.net.broadcast(from, m, size);
                }
                Outgoing::To(to, m) => {
                    let size = self.replicas[from].msg_size(&m);
                    self.net.send(from, to, m, size);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal::CausalShared;
    use crate::convergent::ConvergentShared;
    use crate::seq::SeqShared;
    use cbm_adt::window::{WaInput, WindowArray};

    fn write_read_script(n: usize, writes_per_proc: usize) -> Script<WaInput> {
        let ops = (0..n)
            .map(|p| {
                let mut v = Vec::new();
                for i in 0..writes_per_proc {
                    v.push(ScriptOp {
                        think: 3,
                        input: WaInput::Write(0, (p * 100 + i) as u64 + 1),
                    });
                    v.push(ScriptOp {
                        think: 2,
                        input: WaInput::Read(0),
                    });
                }
                v
            })
            .collect();
        Script::new(ops)
    }

    #[test]
    fn causal_cluster_runs_wait_free() {
        let c: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(3, WindowArray::new(1, 2), LatencyModel::Uniform(5, 50), 1);
        let res = c.run(write_read_script(3, 4));
        assert_eq!(res.history.len(), 3 * 8);
        assert_eq!(res.stats.incomplete_ops, 0);
        // wait-free: all latencies zero
        assert!(res.stats.op_latencies.iter().all(|&l| l == 0));
        // every write is broadcast to 2 peers
        assert_eq!(res.stats.msgs_sent, (3 * 4 * 2) as u64);
    }

    #[test]
    fn convergent_cluster_converges() {
        let c: Cluster<WindowArray, ConvergentShared<WindowArray>> =
            Cluster::new(4, WindowArray::new(2, 3), LatencyModel::Uniform(1, 80), 7);
        let res = c.run(write_read_script(4, 5));
        assert!(
            res.stats.converged,
            "CCv replicas must converge at quiescence"
        );
    }

    #[test]
    fn causal_cluster_may_not_converge_but_history_is_recorded() {
        let c: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(2, WindowArray::new(1, 2), LatencyModel::Uniform(1, 30), 3);
        let res = c.run(write_read_script(2, 3));
        // history structure: 2 processes, 6 events each
        assert_eq!(res.history.n_procs(), 2);
        assert_eq!(res.history.process_events(cbm_history::ProcId(0)).len(), 6);
        // causal order contains program order
        assert!(res.causal.contains(res.history.prog()));
    }

    #[test]
    fn seq_cluster_ops_pay_latency() {
        let c: Cluster<WindowArray, SeqShared<WindowArray>> =
            Cluster::new(3, WindowArray::new(1, 2), LatencyModel::Constant(10), 5);
        let res = c.run(write_read_script(3, 2));
        assert_eq!(res.stats.incomplete_ops, 0);
        // non-sequencer ops take ≥ 2 hops of 10 ticks
        let max = res.stats.op_latencies.iter().copied().max().unwrap_or(0);
        assert!(max >= 20, "expected blocking latency, got {max}");
        // all replicas end identical (it is an RSM)
        assert!(res.stats.converged);
    }

    #[test]
    fn crashes_stop_a_process_without_blocking_others() {
        let mut script = write_read_script(3, 4);
        script.crash_at[2] = Some(1);
        let c: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(3, WindowArray::new(1, 2), LatencyModel::Uniform(5, 20), 11);
        let res = c.run(script);
        // p2 invoked nothing (crashed before its first op at think=3)
        assert_eq!(res.own[2].len(), 0);
        // p0 and p1 completed everything, wait-free
        assert_eq!(res.own[0].len(), 8);
        assert_eq!(res.own[1].len(), 8);
        assert_eq!(res.stats.incomplete_ops, 0);
    }

    #[test]
    fn crash_while_pending_resumes_script_after_recovery() {
        use cbm_net::fault::{Fault, FaultPlan};
        // SC baseline: non-sequencer ops block on the sequencer round
        // trip, so p1's first op is pending when it crashes at t=5.
        // After recovery it must abandon that op and invoke the rest
        // of its script instead of stalling forever.
        let script: Script<WaInput> = Script::new(vec![
            vec![
                ScriptOp {
                    think: 1,
                    input: WaInput::Write(0, 1),
                },
                ScriptOp {
                    think: 1,
                    input: WaInput::Write(0, 2),
                },
            ],
            vec![
                ScriptOp {
                    think: 1,
                    input: WaInput::Write(0, 10),
                },
                ScriptOp {
                    think: 1,
                    input: WaInput::Write(0, 20),
                },
            ],
        ]);
        let plan = FaultPlan::new()
            .at(5, Fault::Crash(1))
            .at(50, Fault::Recover(1));
        let c: Cluster<WindowArray, SeqShared<WindowArray>> =
            Cluster::new(2, WindowArray::new(1, 2), LatencyModel::Constant(10), 3);
        let res = c.run_faulted(script, plan);
        // both of p1's ops were invoked (the second one post-recovery)
        assert_eq!(res.own[1].len(), 2, "recovered process resumed its script");
        // the abandoned first op never completed
        assert!(res.stats.incomplete_ops >= 1);
        // the sequencer side finished everything
        assert_eq!(res.own[0].len(), 2);
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed: u64| {
            let c: Cluster<WindowArray, ConvergentShared<WindowArray>> = Cluster::new(
                3,
                WindowArray::new(1, 2),
                LatencyModel::Uniform(1, 60),
                seed,
            );
            let res = c.run(write_read_script(3, 3));
            (
                res.stats.msgs_sent,
                res.final_states.clone(),
                res.history.len(),
            )
        };
        assert_eq!(run(9), run(9));
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;
    use crate::causal::CausalShared;
    use crate::convergent::ConvergentShared;
    use cbm_adt::window::{WaInput, WindowArray};

    fn tiny_run() -> RunResult<WindowArray> {
        let c: Cluster<WindowArray, ConvergentShared<WindowArray>> =
            Cluster::new(2, WindowArray::new(1, 2), LatencyModel::Constant(5), 1);
        c.run(Script::new(vec![
            vec![ScriptOp {
                think: 2,
                input: WaInput::Write(0, 1),
            }],
            vec![
                ScriptOp {
                    think: 3,
                    input: WaInput::Write(0, 2),
                },
                ScriptOp {
                    think: 50,
                    input: WaInput::Read(0),
                },
            ],
        ]))
    }

    /// `ccv_total` on the run's own arbitration covers every event and
    /// extends the causal order.
    fn assert_total_extends_causal<T: Adt>(res: &RunResult<T>, arb: &[EventId]) {
        let total = res.ccv_total(arb).expect("consistent arbitration");
        assert_eq!(total.len(), res.history.len());
        let mut pos = vec![0usize; res.history.len()];
        for (i, e) in total.iter().enumerate() {
            pos[e.idx()] = i;
        }
        for e in 0..res.history.len() {
            for p in res.causal.past(e).iter() {
                assert!(pos[p] < pos[e]);
            }
        }
    }

    #[test]
    fn ccv_total_covers_all_events_and_extends_causal() {
        let res = tiny_run();
        let arb = res.arbitration.clone().expect("arbitrated flavour");
        assert_total_extends_causal(&res, &arb);
    }

    /// A register's log keeps only its newest write, yet the witness
    /// lists every update, and orders them consistently with causality.
    #[test]
    fn register_witness_lists_every_update() {
        use cbm_adt::register::{RegInput, Register};
        let ops = (0..3)
            .map(|p| {
                (0..6)
                    .flat_map(|i| {
                        [
                            ScriptOp {
                                think: 1,
                                input: RegInput::Write(10 * p + i + 1),
                            },
                            ScriptOp {
                                think: 1,
                                input: RegInput::Read,
                            },
                        ]
                    })
                    .collect()
            })
            .collect();
        let c: Cluster<Register, ConvergentShared<Register>> =
            Cluster::new(3, Register, LatencyModel::Uniform(1, 60), 3);
        let res = c.run(Script::new(ops));
        assert!(res.stats.converged);
        let arb = res.arbitration.clone().expect("arbitrated flavour");
        let writes: Vec<EventId> = res
            .history
            .events()
            .filter(|&e| matches!(res.history.label(e).input, RegInput::Write(_)))
            .collect();
        let mut listed = arb.clone();
        listed.sort_unstable();
        assert_eq!(listed, writes, "every write, once");
        // replica 0 applied some write after a later-arbitrated one, so
        // its log absorbed it
        let mut rank = vec![0; res.history.len()];
        for (i, e) in arb.iter().enumerate() {
            rank[e.idx()] = i;
        }
        let applied: Vec<usize> = res.apply_orders[0].iter().map(|e| rank[e.idx()]).collect();
        assert!(applied.windows(2).any(|w| w[0] > w[1]), "no late write");
        assert_total_extends_causal(&res, &arb);
    }

    /// Under message loss no one replica applies every update, yet the
    /// witness lists each update once, in timestamp order: it is the
    /// union of every replica's applied updates.
    #[test]
    fn a_lossy_run_witness_lists_every_update() {
        use cbm_adt::register::{RegInput, Register};
        use cbm_net::fault::{Fault, FaultPlan};
        let ops = (0..3)
            .map(|p| {
                (0..6)
                    .map(|i| ScriptOp {
                        think: 3,
                        input: RegInput::Write(10 * p + i + 1),
                    })
                    .collect()
            })
            .collect();
        let c: Cluster<Register, ConvergentShared<Register>> =
            Cluster::new(3, Register, LatencyModel::Uniform(1, 20), 5);
        let res = c.run_faulted(
            Script::new(ops),
            FaultPlan::new().at(0, Fault::DropAll { prob: 0.5 }),
        );
        assert!(res.stats.net.msgs_dropped > 0);
        let updates = res.history.len();
        assert!(
            res.apply_orders[0].len() < updates,
            "replica 0 missed nothing; the test needs a loss"
        );
        let arb = res.arbitration.clone().expect("arbitrated flavour");
        let mut listed = arb.clone();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(listed.len(), updates, "every update, once");
        assert_total_extends_causal(&res, &arb);
    }

    #[test]
    fn ccv_total_rejects_contradictory_arbitration() {
        let res = tiny_run();
        let arb = res.arbitration.clone().unwrap();
        if arb.len() >= 2 {
            // reversing a causally ordered pair must be rejected when it
            // contradicts delivered-before (w(0,1) delivered before the
            // read that followed it on the same process)
            let reversed: Vec<EventId> = arb.iter().rev().copied().collect();
            // either rejected (cycle) or still consistent if the pair was
            // concurrent; both outcomes are legal, but the function must
            // not panic and must preserve the length invariant.
            if let Some(total) = res.ccv_total(&reversed) {
                assert_eq!(total.len(), res.history.len());
            }
        }
    }

    #[test]
    fn run_stats_latency_helpers() {
        let mut stats = RunStats::default();
        assert_eq!(stats.mean_latency(), 0.0);
        stats.op_latencies = vec![2, 4, 6];
        assert_eq!(stats.mean_latency(), 4.0);
    }

    #[test]
    fn script_helpers() {
        let s: Script<WaInput> = Script::new(vec![
            vec![ScriptOp {
                think: 1,
                input: WaInput::Read(0),
            }],
            vec![],
        ]);
        assert_eq!(s.n_procs(), 2);
    }

    #[test]
    fn realtime_is_empty_for_simultaneous_histories() {
        // one op per process at identical times: nothing completes
        // before anything else is invoked except by think offsets
        let c: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(2, WindowArray::new(1, 1), LatencyModel::Constant(1000), 2);
        let res = c.run(Script::new(vec![
            vec![ScriptOp {
                think: 5,
                input: WaInput::Write(0, 1),
            }],
            vec![ScriptOp {
                think: 5,
                input: WaInput::Write(0, 2),
            }],
        ]));
        // both invoked at t=5 and completed at t=5: concurrent in real time
        assert!(res.realtime.concurrent(0, 1));
    }
}
