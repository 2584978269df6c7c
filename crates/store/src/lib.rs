//! # cbm-store — a live multi-threaded causally-consistent object store
//!
//! The rest of the workspace studies the paper's constructions in
//! single-threaded simulated time; this crate runs them **live**: `N`
//! replica worker threads serve a sharded multi-object space (object
//! id → instance of any [`cbm_adt::Adt`]) over real channels
//! ([`cbm_net::thread_net::ThreadNet`]), with
//!
//! * **wait-free local operations** — queries answer from the local
//!   object table, updates apply locally and replicate asynchronously
//!   (the paper's core claim: causal objects need no waiting);
//! * **batched causal broadcast** — pending updates coalesce into one
//!   edge-stamped envelope per flush
//!   ([`cbm_net::broadcast::InterestBatchCausalBroadcast`]), cutting
//!   message counts by the mean batch size;
//! * two replication modes ([`Mode`]): delivery-order application
//!   (Fig. 4 ⇒ causal consistency) and Lamport-timestamp arbitration
//!   with epoch-compacted per-object logs (Fig. 5 ⇒ causal
//!   convergence);
//! * **sampled online verification** — the discipline of "On Verifying
//!   Causal Consistency" (Bouajjani et al.) applied online: at
//!   deterministic drain points the workers record a bounded window of
//!   events plus its delivered-before witness, and a verifier thread
//!   replays each frozen window through `cbm-check::verify` (CC or
//!   CCv), so throughput numbers ship with live consistency evidence.
//!
//! The engine is **chaos-hardened**: a [`StoreConfig::chaos`] fault
//! plan injects deterministic transport misbehaviour (loss,
//! duplication, partitions, latency, epoch-aligned worker crashes)
//! through [`cbm_net::chaos::ChaosEndpoint`], drains repair losses
//! with a nack/retransmit round, and recovering workers rejoin via an
//! anti-entropy state transfer (cut snapshot + vector-clock frontier +
//! missed-envelope replay) — with sampled verification still running
//! while the network misbehaves. The named fault profiles and the
//! schedule derivation live in `chaos`; the protocol and its
//! determinism contract are documented in `docs/CHAOS.md`.
//!
//! The engine supports **partial replication**: a [`ShardConfig`]
//! partitions the object space into shards, a deterministic
//! [`shard::ShardMap`] assigns each shard a replica set (home worker +
//! seeded placement at a configurable replication factor), and
//! replication runs over an interest-filtered causal multicast
//! ([`cbm_net::broadcast::InterestBatchCausalBroadcast`]) that
//! delivers a batch only to replicas interested in at least one of its
//! objects, with per-edge sequence numbers so gap repair and crash
//! recovery work per interest edge. Reads of non-hosted objects route
//! to a live replica over a reliable request/reply path; verification
//! windows are built and checked **per shard**. The placement, the
//! routed-read contract, and the determinism guarantees are documented
//! in `docs/SHARDING.md`.
//!
//! The `loadgen` and `chaos_loadgen` binaries in `cbm-bench` drive
//! this engine across workload and fault matrices (including a
//! replication-factor axis) and emit the committed
//! `BENCH_throughput.json` / `BENCH_chaos.json`; see
//! `docs/THROUGHPUT.md` and `docs/CHAOS.md`.
//!
//! ```
//! use cbm_adt::register::{RegInput, Register};
//! use cbm_adt::space::SpaceInput;
//! use cbm_store::{
//!     run, BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
//! };
//! use cbm_net::fault::FaultPlan;
//! use rand::Rng;
//!
//! let cfg = StoreConfig {
//!     workers: 2,
//!     objects: 8,
//!     ops_per_worker: 400,
//!     mode: Mode::Causal,
//!     batch: BatchPolicy::Every(4),
//!     verify: VerifyConfig { every_ops: 200, window_ops: 16, sample_every: 1, monitor: false },
//!     seed: 7,
//!     sharding: ShardConfig::full(),
//!     chaos: FaultPlan::new(),
//!     obs: ObsConfig::default(),
//!     durable: DurableConfig::default(),
//! };
//! let report = run(&Register, &cfg, |_, _, rng| {
//!     let obj = rng.gen_range(0u32..8);
//!     if rng.gen_bool(0.5) {
//!         SpaceInput::new(obj, RegInput::Read)
//!     } else {
//!         SpaceInput::new(obj, RegInput::Write(rng.gen_range(0u64..100)))
//!     }
//! });
//! assert_eq!(report.total_ops, 800);
//! assert!(report.verified(), "{:?}", report.windows);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod chaos;
pub mod codec;
pub(crate) mod config;
pub mod durable;
pub(crate) mod engine;
pub mod objects;
pub(crate) mod record;
pub(crate) mod shard;
pub mod stats;
pub mod wire;

pub use chaos::{profile, ChaosSchedule, CrashSpan, PROFILE_NAMES};
pub use config::{
    BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
pub use engine::{run, run_tcp};
pub use shard::ShardMap;
pub use stats::{
    ChaosReport, EpochMetrics, LatencySummary, RecoveryStats, StoreReport, WindowVerdict,
    WorkerStats,
};
