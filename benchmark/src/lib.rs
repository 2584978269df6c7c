//! Library half of `cbm-benchmark` (the binary in `main.rs` is a thin
//! CLI over it; the integration tests use it directly).
//!
//! * [`workloads`] — the seven named workloads, the seeded op script,
//!   the correctness checks;
//! * [`e2e`] — set-up, timed engine rounds, process meters;
//! * [`replay`] + [`spans`] — the outside-in layer replay and its spans;
//! * [`layers`] — the traced run: every per-layer metric;
//! * [`catalog`] — metric names, units, directions, bounds;
//! * [`report`] — `all` and `compare`;
//! * [`json`] — the small JSON value the result files use.

pub mod catalog;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod replay;
pub mod report;
pub mod spans;
pub mod workloads;
