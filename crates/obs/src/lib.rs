//! # cbm-obs — observability for the live causal store
//!
//! Three layers, each usable on its own:
//!
//! * `hist` — **log-bucketed latency histograms**: HDR-style
//!   mergeable buckets with a documented relative error bound
//!   (exact max and mean), plus an atomic mirror
//!   ([`hist::AtomicHistogram`]) that per-worker local histograms
//!   merge into at drain rendezvous — collection stays off the hot
//!   path, merging is wait-free `fetch_add`s.
//! * `metrics` — a **lock-free metrics registry**: named atomic
//!   counters and gauges registered once (single-threaded build
//!   phase), then shared immutably; workers accumulate locally and
//!   flush deltas at deterministic drain points.
//! * [`trace`] + [`export`] — **causally-stamped structured tracing**:
//!   per-worker bounded span recorders whose spans carry the
//!   engine's epoch, shard, and the envelope's edge-knowledge matrix
//!   (the vector-clock generalisation the interest multicast already
//!   propagates), sealed per epoch into a deterministic logical
//!   timeline. [`export::jsonl`] renders only the
//!   deterministic fields — byte-identical across runs at fixed
//!   `(config, seed)` — while [`export::chrome_json`] adds wall
//!   times and clock stamps for `chrome://tracing` / Perfetto.
//!
//! The span schema, the metrics catalog, and the determinism contract
//! are documented in `docs/OBSERVABILITY.md`; the exported JSON shapes
//! are pinned by `docs/trace.schema.json` and the `trace_check`
//! validator binary in `cbm-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub(crate) mod hist;
pub(crate) mod metrics;
pub mod trace;

pub use hist::{AtomicHistogram, LatencyHistogram};
pub use metrics::{Counter, Gauge, Registry};
pub use trace::{EpochTracer, FlightRecord, Span, SpanKind, TraceConfig};
