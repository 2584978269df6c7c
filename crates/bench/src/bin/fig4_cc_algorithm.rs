//! Experiment E4 — **Fig. 4 + Proposition 6**: the causal-consistency
//! algorithm, swept over cluster size and network latency, every run
//! verified causally consistent against its own witness.
//!
//! Also prints the wait-freedom evidence the paper's §6.2 promises:
//! operation latency is identically zero regardless of network delay,
//! while the sequentially consistent baseline's latency tracks the
//! delay (the §1 motivation).
//!
//! ```text
//! cargo run --release -p cbm-bench --bin fig4_cc_algorithm
//! ```

use cbm_adt::window::WindowArray;
use cbm_bench::{outln, render_table};
use cbm_check::verify::verify_cc_execution;
use cbm_check::{check, Budget, Criterion, Verdict};
use cbm_core::causal::CausalShared;
use cbm_core::cluster::Cluster;
use cbm_core::seq::SeqShared;
use cbm_core::workload::{window_script, WindowWorkload};
use cbm_net::latency::LatencyModel;

fn main() {
    outln!("== Fig. 4: wait-free causally consistent W_k^K (Prop. 6) ==\n");
    let adt = WindowArray::new(4, 3);

    let mut rows = Vec::new();
    let mut verified = 0u32;
    let mut runs = 0u32;
    for procs in [2usize, 4, 8, 16] {
        for mean_delay in [10u64, 100, 1000] {
            let latency = LatencyModel::Uniform(1, 2 * mean_delay);
            let mut msgs = 0u64;
            let mut bytes = 0u64;
            let mut ops = 0u64;
            let seeds = 5;
            for seed in 0..seeds {
                let cfg = WindowWorkload {
                    procs,
                    ops_per_proc: 20,
                    streams: 4,
                    write_ratio: 0.6,
                    max_think: 20,
                    seed: seed + procs as u64 * 1000 + mean_delay,
                };
                let cluster: Cluster<WindowArray, CausalShared<WindowArray>> =
                    Cluster::new(procs, adt, latency, seed);
                let res = cluster.run(window_script(&cfg));
                runs += 1;
                ops += res.history.len() as u64;
                msgs += res.stats.msgs_sent;
                bytes += res.stats.bytes_sent;
                assert!(
                    res.stats.op_latencies.iter().all(|&l| l == 0),
                    "wait-freedom violated"
                );
                let ok = verify_cc_execution(
                    &adt,
                    &res.history,
                    &res.causal,
                    &res.apply_orders,
                    &res.own,
                );
                assert_eq!(ok, Ok(()), "Prop. 6 violated: procs {procs} seed {seed}");
                verified += 1;
            }
            rows.push(vec![
                procs.to_string(),
                mean_delay.to_string(),
                format!("{}", ops),
                "0.0".to_string(),
                format!("{:.2}", msgs as f64 / ops as f64),
                format!("{:.1}", bytes as f64 / msgs.max(1) as f64),
                format!("{seeds}/{seeds}"),
            ]);
        }
    }
    outln!(
        "{}",
        render_table(
            &[
                "procs",
                "mean delay",
                "ops",
                "op latency",
                "msgs/op",
                "bytes/msg",
                "CC verified"
            ],
            &rows
        )
    );
    outln!("({verified}/{runs} runs verified causally consistent via their witnesses)\n");

    // contrast with the SC baseline: latency tracks network delay
    outln!("contrast (motivation, §1): mean op latency vs network delay\n");
    let mut rows = Vec::new();
    for mean_delay in [10u64, 50, 200, 800] {
        let latency = LatencyModel::Constant(mean_delay);
        let cfg = WindowWorkload {
            procs: 4,
            ops_per_proc: 10,
            streams: 2,
            write_ratio: 0.5,
            max_think: 5,
            seed: mean_delay,
        };
        let adt2 = WindowArray::new(2, 2);
        let sc: Cluster<WindowArray, SeqShared<WindowArray>> = Cluster::new(4, adt2, latency, 1);
        let cc: Cluster<WindowArray, CausalShared<WindowArray>> = Cluster::new(4, adt2, latency, 1);
        let rs = sc.run(window_script(&cfg));
        let rc = cc.run(window_script(&cfg));
        rows.push(vec![
            mean_delay.to_string(),
            format!("{:.1}", rc.stats.mean_latency()),
            format!("{:.1}", rs.stats.mean_latency()),
            cbm_bench::bar(rs.stats.mean_latency(), 1700.0, 30),
        ]);
    }
    outln!(
        "{}",
        render_table(
            &["delay", "CC latency", "SC latency", "SC latency bar"],
            &rows
        )
    );

    // small runs double-checked by the search decision procedure
    outln!("\ncross-check: small runs decided CC by bounded search:");
    let mut all = true;
    for seed in 0..5 {
        let cfg = WindowWorkload {
            procs: 2,
            ops_per_proc: 5,
            streams: 1,
            write_ratio: 0.5,
            max_think: 25,
            seed,
        };
        let adt3 = WindowArray::new(1, 2);
        let cluster: Cluster<WindowArray, CausalShared<WindowArray>> =
            Cluster::new(2, adt3, LatencyModel::Uniform(1, 60), seed);
        let res = cluster.run(window_script(&cfg));
        let v = check(Criterion::Cc, &adt3, &res.history, &Budget::default()).verdict;
        all &= v == Verdict::Sat;
        outln!("  seed {seed}: {v}");
    }
    assert!(all);
    outln!("\nProp. 6 reproduced: every admitted history is causally consistent.");
}
