//! Golden-bytes fixture for the `cbm-node` control protocol: one
//! `Ctrl::Run(LegSpec)` body, captured before the codec traits were
//! collapsed into `cbm_adt::wire::Wire`. A driver and a node built from
//! different commits must still understand each other (see
//! `crates/store/tests/golden_bytes.rs` for the engine-side fixtures).

use cbm_bench::proto::{Ctrl, LegSpec};
use cbm_bench::Workload;
use cbm_net::fault::Fault;
use cbm_net::wire::{from_bytes, to_bytes};
use cbm_store::{BatchPolicy, Mode, StoreConfig};

#[test]
fn ctrl_run_bytes_are_stable() {
    let mut cfg = StoreConfig {
        workers: 3,
        objects: 64,
        ops_per_worker: 2_000,
        mode: Mode::Causal,
        batch: BatchPolicy::Every(8),
        seed: 7,
        ..StoreConfig::default()
    };
    cfg.chaos.push(50, Fault::Crash(2));
    let spec = LegSpec {
        name: "cc-3w-64o-b8-r50-quick".into(),
        cfg,
        workload: Workload::Register {
            read_ratio: 0.5,
            remote_read_ratio: 0.05,
        },
        trace: true,
        trace_dir: "traces".into(),
    };
    let bytes = to_bytes(&Ctrl::Run(Box::new(spec.clone())));
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        include_str!("golden/ctrl_run.hex").trim(),
        "Ctrl::Run(LegSpec): encoding drifted"
    );
    match from_bytes::<Ctrl>(&bytes) {
        Some(Ctrl::Run(back)) => assert_eq!(*back, spec),
        other => panic!("expected Run, got {other:?}"),
    }
}
