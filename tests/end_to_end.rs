//! End-to-end validation of the algorithms at scale (the Fig. 4 and
//! Fig. 5 replicas): hundreds of randomized executions per flavour, over
//! adversarial latency distributions and crash faults, each verified
//! against its own causal witness in linear time.

use cbm_adt::counter::{Counter, CtInput};
use cbm_adt::log::AppendLog;
use cbm_adt::window::{WaInput, WindowArray};
use cbm_check::pc::check_pc;
use cbm_check::sc::check_sc;
use cbm_check::verify::verify_cc_execution;
use cbm_check::{Budget, Verdict};
use cbm_core::causal::CausalShared;
use cbm_core::cluster::{Cluster, Script, ScriptOp};
use cbm_core::convergent::ConvergentShared;
use cbm_core::pram::PramShared;
use cbm_core::seq::SeqShared;
use cbm_core::wk_array::{WkArrayCc, WkArrayCcv};
use cbm_core::workload::{window_script, WindowWorkload};
use cbm_history::EventId;
use cbm_net::fault::{Fault, FaultPlan};
use cbm_net::latency::LatencyModel;

const LATENCIES: [LatencyModel; 3] = [
    LatencyModel::Constant(10),
    LatencyModel::Uniform(1, 120),
    LatencyModel::HeavyTail {
        base: 4,
        tail_prob: 0.3,
        tail_max: 400,
    },
];

/// Prop. 6 at scale: generalized Fig. 4, many seeds, three latency
/// models, varying cluster sizes — every execution verifies as CC.
#[test]
fn prop6_causal_shared_always_cc() {
    let mut runs = 0;
    for (li, latency) in LATENCIES.iter().enumerate() {
        for procs in [2usize, 3, 5] {
            for seed in 0..12 {
                let cfg = WindowWorkload {
                    procs,
                    ops_per_proc: 12,
                    streams: 2,
                    write_ratio: 0.6,
                    max_think: 25,
                    seed: seed * 31 + li as u64,
                };
                let adt = WindowArray::new(2, 3);
                let cluster: Cluster<WindowArray, CausalShared<WindowArray>> =
                    Cluster::new(procs, adt, *latency, seed);
                let res = cluster.run(window_script(&cfg));
                assert_eq!(
                    verify_cc_execution(
                        &WindowArray::new(2, 3),
                        &res.history,
                        &res.causal,
                        &res.apply_orders,
                        &res.own
                    ),
                    Ok(()),
                    "latency {li}, procs {procs}, seed {seed}"
                );
                // wait-freedom: zero completion latency everywhere
                assert!(res.stats.op_latencies.iter().all(|&l| l == 0));
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 108);
}

/// The verbatim Fig. 4 object produces identical states to the
/// generalized replica under the same seeds.
#[test]
fn fig4_verbatim_equals_generalized() {
    for seed in 0..10 {
        let cfg = WindowWorkload {
            procs: 3,
            ops_per_proc: 15,
            streams: 2,
            write_ratio: 0.7,
            max_think: 15,
            seed,
        };
        let adt = WindowArray::new(2, 3);
        let a: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(3, adt, LatencyModel::Uniform(1, 60), seed);
        let b: Cluster<WindowArray, WkArrayCc> =
            Cluster::new(3, adt, LatencyModel::Uniform(1, 60), seed);
        let ra = a.run(window_script(&cfg));
        let rb = b.run(window_script(&cfg));
        assert_eq!(ra.final_states, rb.final_states, "seed {seed}");
        assert_eq!(ra.stats.msgs_sent, rb.stats.msgs_sent);
        // identical recorded histories (same outputs)
        assert_eq!(ra.history.len(), rb.history.len());
        for e in ra.history.events() {
            assert_eq!(ra.history.label(e), rb.history.label(e));
        }
    }
}

/// Prop. 7 at scale: generalized Fig. 5 converges and the verbatim
/// Fig. 5 object computes the same windows.
#[test]
fn prop7_convergent_flavours_agree_and_converge() {
    for seed in 0..10 {
        let cfg = WindowWorkload {
            procs: 4,
            ops_per_proc: 15,
            streams: 2,
            write_ratio: 0.7,
            max_think: 15,
            seed: seed + 500,
        };
        let adt = WindowArray::new(2, 3);
        let a: Cluster<WindowArray, ConvergentShared<WindowArray>> = Cluster::new(
            4,
            adt,
            LatencyModel::HeavyTail {
                base: 2,
                tail_prob: 0.4,
                tail_max: 300,
            },
            seed,
        );
        let b: Cluster<WindowArray, WkArrayCcv> = Cluster::new(
            4,
            adt,
            LatencyModel::HeavyTail {
                base: 2,
                tail_prob: 0.4,
                tail_max: 300,
            },
            seed,
        );
        let ra = a.run(window_script(&cfg));
        let rb = b.run(window_script(&cfg));
        assert!(ra.stats.converged, "generalized must converge, seed {seed}");
        assert!(rb.stats.converged, "verbatim must converge, seed {seed}");
        assert_eq!(ra.final_states, rb.final_states, "seed {seed}");
    }
}

/// The SC baseline pays for its total order: operation latency grows
/// with the network delay while the causal flavour stays at zero
/// (experiment E9's headline, asserted qualitatively).
#[test]
fn sc_latency_grows_with_delay_causal_stays_zero() {
    let mut last_sc = 0.0;
    for delay in [10u64, 50, 200] {
        let cfg = WindowWorkload {
            procs: 3,
            ops_per_proc: 8,
            streams: 1,
            write_ratio: 0.5,
            max_think: 5,
            seed: delay,
        };
        let adt = WindowArray::new(1, 2);
        let sc: Cluster<WindowArray, SeqShared<WindowArray>> =
            Cluster::new(3, adt, LatencyModel::Constant(delay), 1);
        let cc: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(3, adt, LatencyModel::Constant(delay), 1);
        let rs = sc.run(window_script(&cfg));
        let rc = cc.run(window_script(&cfg));
        assert_eq!(rc.stats.mean_latency(), 0.0);
        let mean = rs.stats.mean_latency();
        assert!(
            mean > last_sc,
            "SC latency must grow with delay: {mean} after {last_sc}"
        );
        assert!(mean >= delay as f64 / 2.0);
        last_sc = mean;
    }
}

/// Crash faults: wait-free flavours keep operating for survivors
/// (§6.1: "no assumption on the number of crashes").
#[test]
fn crashes_do_not_block_wait_free_flavours() {
    for seed in 0..8 {
        let cfg = WindowWorkload {
            procs: 4,
            ops_per_proc: 10,
            streams: 1,
            write_ratio: 0.6,
            max_think: 10,
            seed,
        };
        let mut script = window_script(&cfg);
        script.crash_at[1] = Some(40);
        script.crash_at[3] = Some(80);
        let adt = WindowArray::new(1, 2);
        let cluster: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(4, adt, LatencyModel::Uniform(1, 30), seed);
        let res = cluster.run(script);
        // survivors completed their whole programs
        assert_eq!(res.own[0].len(), 10, "seed {seed}");
        assert_eq!(res.own[2].len(), 10, "seed {seed}");
        assert_eq!(res.stats.incomplete_ops, 0);
        // and the execution is still causally consistent
        assert_eq!(
            verify_cc_execution(
                &WindowArray::new(1, 2),
                &res.history,
                &res.causal,
                &res.apply_orders,
                &res.own
            ),
            Ok(())
        );
    }
}

/// The SC baseline, by contrast, wedges when the sequencer crashes.
#[test]
fn sequencer_crash_blocks_sc_baseline() {
    let ops = (0..3)
        .map(|_| {
            (0..5)
                .map(|i| ScriptOp {
                    think: 10,
                    input: cbm_adt::window::WaInput::Write(0, i + 1),
                })
                .collect()
        })
        .collect();
    let mut script = Script::new(ops);
    script.crash_at[0] = Some(35); // the sequencer dies early
    let adt = WindowArray::new(1, 2);
    let cluster: Cluster<WindowArray, SeqShared<WindowArray>> =
        Cluster::new(3, adt, LatencyModel::Constant(10), 3);
    let res = cluster.run(script);
    assert!(
        res.stats.incomplete_ops > 0,
        "ops must hang once the sequencer is gone"
    );
}

/// Counters are convergent under every wait-free flavour (commuting
/// updates): cross-ADT sanity for the generalized replicas.
#[test]
fn counters_converge_under_all_wait_free_flavours() {
    let script = || {
        Script::new(
            (0..3)
                .map(|p| {
                    (0..10)
                        .map(|i| ScriptOp {
                            think: 3,
                            input: CtInput::Add((p * 10 + i) as i64 % 7 - 3),
                        })
                        .collect()
                })
                .collect(),
        )
    };
    let a: Cluster<Counter, CausalShared<Counter>> =
        Cluster::new(3, Counter, LatencyModel::Uniform(1, 40), 5);
    let b: Cluster<Counter, PramShared<Counter>> =
        Cluster::new(3, Counter, LatencyModel::Uniform(1, 40), 5);
    let c: Cluster<Counter, ConvergentShared<Counter>> =
        Cluster::new(3, Counter, LatencyModel::Uniform(1, 40), 5);
    let ra = a.run(script());
    let rb = b.run(script());
    let rc = c.run(script());
    assert!(ra.stats.converged);
    assert!(rb.stats.converged);
    assert!(rc.stats.converged);
    assert_eq!(ra.final_states[0], rb.final_states[0]);
    assert_eq!(rb.final_states[0], rc.final_states[0]);
}

/// Deterministic replay across the whole pipeline: same seed, same
/// everything (histories, stats, states).
#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let cfg = WindowWorkload {
            procs: 3,
            ops_per_proc: 20,
            streams: 2,
            write_ratio: 0.5,
            max_think: 12,
            seed: 77,
        };
        let adt = WindowArray::new(2, 2);
        let cluster: Cluster<WindowArray, ConvergentShared<WindowArray>> = Cluster::new(
            3,
            adt,
            LatencyModel::HeavyTail {
                base: 3,
                tail_prob: 0.5,
                tail_max: 100,
            },
            77,
        );
        let res = cluster.run(window_script(&cfg));
        (
            res.stats.msgs_sent,
            res.stats.bytes_sent,
            res.final_states.clone(),
            res.history.len(),
        )
    };
    assert_eq!(run(), run());
}

/// Log replicas: CausalShared on AppendLog maintains per-author prefix
/// integrity at every replica (causal delivery ⇒ an author's k-th entry
/// never precedes their (k-1)-th).
#[test]
fn append_log_causal_prefixes() {
    for seed in 0..6 {
        let script = Script::new(
            (0..3)
                .map(|p| {
                    (0..8)
                        .map(|i| ScriptOp {
                            think: 4,
                            input: cbm_adt::log::LogInput::Append((p * 100 + i) as u64),
                        })
                        .collect()
                })
                .collect(),
        );
        let cluster: Cluster<AppendLog, CausalShared<AppendLog>> =
            Cluster::new(3, AppendLog, LatencyModel::Uniform(1, 80), seed);
        let res = cluster.run(script);
        for st in &res.final_states {
            for p in 0..3u64 {
                let authors: Vec<u64> = st.iter().copied().filter(|v| v / 100 == p).collect();
                let mut sorted = authors.clone();
                sorted.sort_unstable();
                assert_eq!(authors, sorted, "author {p} out of order in {st:?}");
            }
        }
    }
}

/// A transport that duplicates half of all messages costs bandwidth,
/// never a second application: under `DupAll` every PRAM and SC replica
/// applies each event exactly once — SC replicas every event, PRAM
/// replicas their own events plus every write — and the histories stay
/// PC and SC respectively.
#[test]
fn duplicated_messages_apply_once_under_pram_and_sc() {
    /// Does every replica apply exactly the events `expect` says?
    fn applied_once(
        apply_orders: &[Vec<EventId>],
        own: &[Vec<EventId>],
        expect: impl Fn(usize, EventId) -> bool,
    ) {
        let events: Vec<EventId> = own.iter().flatten().copied().collect();
        for (p, order) in apply_orders.iter().enumerate() {
            let mut got = order.clone();
            got.sort_unstable();
            let mut want: Vec<EventId> = events.iter().copied().filter(|&e| expect(p, e)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "replica {p}: applied {order:?}");
        }
    }
    let dup_all = || FaultPlan::new().at(0, Fault::DupAll { prob: 0.5 });
    for seed in 0..6 {
        let cfg = WindowWorkload {
            procs: 3,
            ops_per_proc: 4,
            streams: 1,
            write_ratio: 0.6,
            max_think: 10,
            seed,
        };
        let adt = WindowArray::new(1, 2);
        let latency = LatencyModel::Uniform(1, 40);

        let pram: Cluster<WindowArray, PramShared<WindowArray>> =
            Cluster::new(3, adt, latency, seed);
        let res = pram.run_faulted(window_script(&cfg), dup_all());
        assert!(
            res.stats.net.msgs_duplicated > 0,
            "seed {seed}: no duplicates"
        );
        let is_write = |e: EventId| matches!(res.history.label(e).input, WaInput::Write(..));
        applied_once(&res.apply_orders, &res.own, |p, e| {
            res.own[p].contains(&e) || is_write(e)
        });
        let pc = check_pc(&adt, &res.history, &Budget::default());
        assert_eq!(pc.verdict, Verdict::Sat, "seed {seed}: PRAM not PC");

        let sc: Cluster<WindowArray, SeqShared<WindowArray>> = Cluster::new(3, adt, latency, seed);
        let res = sc.run_faulted(window_script(&cfg), dup_all());
        assert_eq!(res.stats.incomplete_ops, 0, "seed {seed}");
        applied_once(&res.apply_orders, &res.own, |_, _| true);
        let verdict = check_sc(&adt, &res.history, &Budget::default()).verdict;
        assert_eq!(verdict, Verdict::Sat, "seed {seed}: sequencer not SC");
    }
}
