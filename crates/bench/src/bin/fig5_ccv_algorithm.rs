//! Experiment E5 — **Fig. 5 + Proposition 7**: the causal-convergence
//! algorithm. Every run must (a) verify causally convergent against
//! its timestamp witness, (b) converge at quiescence, and (c) agree
//! with the verbatim Fig. 5 object.
//!
//! ```text
//! cargo run --release -p cbm-bench --bin fig5_ccv_algorithm
//! ```

use cbm_adt::window::WindowArray;
use cbm_bench::{outln, render_table};
use cbm_check::verify::verify_ccv_execution;
use cbm_check::{check, Budget, Criterion, Verdict};
use cbm_core::cluster::Cluster;
use cbm_core::convergent::ConvergentShared;
use cbm_core::wk_array::WkArrayCcv;
use cbm_core::workload::{quiescent_script, window_script, WindowWorkload};
use cbm_net::latency::LatencyModel;

fn main() {
    outln!("== Fig. 5: wait-free causally convergent W_k^K (Prop. 7) ==\n");
    let adt = WindowArray::new(4, 3);

    let mut rows = Vec::new();
    for procs in [2usize, 4, 8, 16] {
        for mean_delay in [10u64, 100, 1000] {
            let latency = LatencyModel::Uniform(1, 2 * mean_delay);
            let seeds = 5;
            let mut converged = 0;
            let mut verified = 0;
            let mut msgs = 0u64;
            let mut bytes = 0u64;
            let mut ops = 0u64;
            for seed in 0..seeds {
                let cfg = WindowWorkload {
                    procs,
                    ops_per_proc: 20,
                    streams: 4,
                    write_ratio: 0.6,
                    max_think: 20,
                    seed: seed + procs as u64 * 7000 + mean_delay,
                };
                let cluster: Cluster<WindowArray, ConvergentShared<WindowArray>> =
                    Cluster::new(procs, adt, latency, seed);
                let res = cluster.run(window_script(&cfg));
                ops += res.history.len() as u64;
                msgs += res.stats.msgs_sent;
                bytes += res.stats.bytes_sent;
                assert!(res.stats.op_latencies.iter().all(|&l| l == 0));
                converged += res.stats.converged as u32;
                // witness verification: arbitration from replica 0 plus
                // the delivered-before causal order
                let arb = res.arbitration.clone().expect("arbitrated flavour");
                if let Some(total) = res.ccv_total(&arb) {
                    let ok = verify_ccv_execution(&adt, &res.history, &res.causal, &total, 1);
                    assert_eq!(
                        ok,
                        Ok(()),
                        "Prop. 7 violated: procs {procs} delay {mean_delay} seed {seed}"
                    );
                    verified += 1;
                }
            }
            assert_eq!(converged as u64, seeds, "a CCv run failed to converge");
            rows.push(vec![
                procs.to_string(),
                mean_delay.to_string(),
                ops.to_string(),
                "0.0".into(),
                format!("{:.2}", msgs as f64 / ops as f64),
                format!("{:.1}", bytes as f64 / msgs.max(1) as f64),
                format!("{converged}/{seeds}"),
                format!("{verified}/{seeds}"),
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
                "converged",
                "CCv verified",
            ],
            &rows
        )
    );

    // convergence time vs latency tail
    outln!("\nconvergence time after the last update vs latency tail:\n");
    let mut rows = Vec::new();
    for tail in [20u64, 100, 500, 2000] {
        let adt2 = WindowArray::new(2, 2);
        let cluster: Cluster<WindowArray, ConvergentShared<WindowArray>> = Cluster::new(
            4,
            adt2,
            LatencyModel::HeavyTail {
                base: 5,
                tail_prob: 0.4,
                tail_max: tail,
            },
            tail,
        );
        let res = cluster.run(quiescent_script(4, 10, 2, tail * 20, tail));
        assert!(res.stats.converged);
        rows.push(vec![
            tail.to_string(),
            res.stats.makespan.to_string(),
            res.stats.quiescent_at.to_string(),
            cbm_bench::bar(res.stats.quiescent_at as f64, 4000.0, 30),
        ]);
    }
    outln!(
        "{}",
        render_table(&["tail max", "last op", "quiescent at", "bar"], &rows)
    );

    // verbatim Fig. 5 equivalence
    outln!("\nverbatim Fig. 5 object vs generalized replica (same seeds):");
    let mut equal = true;
    for seed in 0..5 {
        let cfg = WindowWorkload {
            procs: 3,
            ops_per_proc: 15,
            streams: 2,
            write_ratio: 0.7,
            max_think: 15,
            seed,
        };
        let adt3 = WindowArray::new(2, 3);
        let a: Cluster<WindowArray, ConvergentShared<WindowArray>> =
            Cluster::new(3, adt3, LatencyModel::Uniform(1, 80), seed);
        let b: Cluster<WindowArray, WkArrayCcv> =
            Cluster::new(3, adt3, LatencyModel::Uniform(1, 80), seed);
        let ra = a.run(window_script(&cfg));
        let rb = b.run(window_script(&cfg));
        let same = ra.final_states == rb.final_states;
        equal &= same;
        outln!("  seed {seed}: states equal = {same}");
    }
    assert!(equal);

    // small runs decided CCv by search
    outln!("\ncross-check: small runs decided CCv by bounded search:");
    for seed in 0..5 {
        let cfg = WindowWorkload {
            procs: 2,
            ops_per_proc: 5,
            streams: 1,
            write_ratio: 0.5,
            max_think: 25,
            seed: seed + 40,
        };
        let adt4 = WindowArray::new(1, 2);
        let cluster: Cluster<WindowArray, ConvergentShared<WindowArray>> =
            Cluster::new(2, adt4, LatencyModel::Uniform(1, 60), seed);
        let res = cluster.run(window_script(&cfg));
        let v = check(Criterion::Ccv, &adt4, &res.history, &Budget::default()).verdict;
        assert_eq!(v, Verdict::Sat);
        outln!("  seed {seed}: {v}");
    }
    outln!("\nProp. 7 reproduced: every admitted history is causally convergent.");
}
