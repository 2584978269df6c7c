//! # cbm-history — Distributed histories as partially ordered event sets
//!
//! Implements Section 2.2 of Perrin, Mostéfaoui & Jard, *Causal
//! Consistency: Beyond Memory* (PPoPP 2016).
//!
//! A **distributed history** (Definition 4) is `H = (Σ, E, Λ, ↦)`:
//! a countable set of events `E`, a labelling `Λ : E → Σ` into
//! `Σ = (Σi × Σo) ∪ Σi` (full or *hidden* operations), and a partial
//! **program order** `↦` in which every event has a finite past. We
//! represent finite histories with an event arena ([`History`]), explicit
//! program-order edges, and precomputed reachability bitsets.
//!
//! The paper's derived notions map to:
//!
//! * processes `P_H` — maximal chains: [`History::maximal_chains`]
//!   (for histories built from sequential processes these are exactly the
//!   per-process event sequences, [`History::process_events`]);
//! * linearizations `lin(H)` — [`History::linearizations`];
//! * projection `H.π(E′, E″)` — [`History::project`] (keep `E′`, hide the
//!   outputs of events outside `E″`);
//! * re-ordering `H→` — checkers carry an explicit [`order::Relation`]
//!   alongside the history rather than materializing a new one;
//! * **causal orders** (Definition 7) — relations that contain `↦`; on
//!   finite histories the cofiniteness condition of Def. 7 is vacuous,
//!   which [`order::Relation::contains`] plus acyclicity capture.
//!
//! The [`zones`] module computes the six time zones of Fig. 2 (program
//! past/future, causal past/future, present, concurrent present) for an
//! event under a given causal order.
//!
//! ```
//! use cbm_history::HistoryBuilder;
//!
//! // Fig. 3d: p0: w(1), r/(0,1);  p1: w(2), r/(1,2)
//! let mut b: HistoryBuilder<&str, &str> = HistoryBuilder::new();
//! let w1 = b.op(0, "w(1)", "ack");
//! let r1 = b.op(0, "r", "(0,1)");
//! let w2 = b.op(1, "w(2)", "ack");
//! let h = b.build();
//!
//! assert!(h.prog_lt(w1, r1));                 // program order within p0
//! assert!(h.prog().concurrent(r1.idx(), w2.idx())); // across processes
//! assert_eq!(h.maximal_chains(16).len(), 2);  // P_H = the two processes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod bitset;
pub(crate) mod builder;
pub mod dot;
pub(crate) mod event;
pub(crate) mod hash;
pub(crate) mod history;
pub(crate) mod order;
pub mod zones;

pub use bitset::BitSet;
pub use builder::HistoryBuilder;
pub use event::{EventId, Label, ProcId};
pub use hash::{mix64, Fnv, MixHasher, NoHash, U64Set};
pub use history::History;
pub use order::Relation;
