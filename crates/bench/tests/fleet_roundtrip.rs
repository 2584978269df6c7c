//! End-to-end multi-process dispatch: a two-node `cbm-node` fleet must
//! reproduce the driver's in-process deterministic columns exactly —
//! the property that lets `loadgen --procs N` gate against the same
//! committed baselines as every other transport.

use cbm_bench::fleet::NodePool;
use cbm_bench::proto::LegSpec;
use cbm_bench::{run_workload, Transport, Workload};
use cbm_store::{
    BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};

fn cfg(seed: u64) -> StoreConfig {
    StoreConfig {
        workers: 3,
        objects: 16,
        ops_per_worker: 600,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(4),
        verify: VerifyConfig {
            every_ops: 200,
            window_ops: 24,
            sample_every: 1,
            monitor: true,
        },
        seed,
        sharding: ShardConfig::full(),
        chaos: cbm_net::fault::FaultPlan::new(),
        obs: ObsConfig::default(),
        durable: DurableConfig::default(),
    }
}

fn workload() -> Workload {
    Workload::Register {
        read_ratio: 0.5,
        remote_read_ratio: 0.0,
    }
}

#[test]
fn fleet_reproduces_in_process_counts() {
    // referencing the binary path makes cargo build cbm-node before
    // this test runs (NodePool finds it as a sibling in the target dir)
    let _ = env!("CARGO_BIN_EXE_cbm-node");

    let specs: Vec<LegSpec> = [7u64, 11]
        .iter()
        .map(|&seed| LegSpec {
            name: format!("fleet-seed-{seed}"),
            cfg: cfg(seed),
            workload: workload(),
            trace: false,
            trace_dir: "traces".into(),
        })
        .collect();

    let mut pool = NodePool::spawn(2).expect("fleet spawns");
    let reports = pool.run_batch(&specs).expect("fleet runs the batch");
    let killed = pool.shutdown();
    assert_eq!(killed, 0, "nodes exit gracefully on Shutdown");

    for (spec, remote) in specs.iter().zip(&reports) {
        let local = run_workload(&spec.workload, &spec.cfg, Transport::Thread);
        assert!(remote.verified(), "{} verifies", spec.name);
        assert!(remote.trace.is_none(), "traces never cross the wire");
        assert_eq!(remote.msgs_sent, local.msgs_sent, "{}", spec.name);
        assert_eq!(remote.batches_sent, local.batches_sent, "{}", spec.name);
        assert_eq!(remote.payloads_sent, local.payloads_sent, "{}", spec.name);
        assert_eq!(remote.total_ops, local.total_ops, "{}", spec.name);
        assert_eq!(remote.windows.len(), local.windows.len(), "{}", spec.name);
        assert_eq!(
            remote.monitor.ops_checked, local.monitor.ops_checked,
            "{}",
            spec.name
        );
        assert_eq!(
            remote.monitor.escalations, local.monitor.escalations,
            "{}",
            spec.name
        );
    }
}
