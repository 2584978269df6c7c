//! # cbm-adt — Abstract data types as sequential specifications
//!
//! This crate implements Section 2.1 of Perrin, Mostéfaoui & Jard,
//! *Causal Consistency: Beyond Memory* (PPoPP 2016): abstract data types
//! (ADTs) modelled as transducers close to Mealy machines, but over
//! countable (possibly infinite) state spaces.
//!
//! An ADT is a 6-tuple `T = (Σi, Σo, Q, q0, δ, λ)` (Definition 1):
//!
//! * `Σi` — the input alphabet (the *methods* of the type),
//! * `Σo` — the output alphabet (return values),
//! * `Q`, `q0` — states and initial state,
//! * `δ : Q × Σi → Q` — the (total) transition function, the *side effect*,
//! * `λ : Q × Σi → Σo` — the (total) output function, the *return value*.
//!
//! In Rust this becomes the [`Adt`] trait with associated `Input`,
//! `Output` and `State` types. Both `δ` and `λ` must be **total**: shared
//! objects evolve according to external calls and must respond in all
//! circumstances (no panics on any reachable state/input pair).
//!
//! The **sequential specification** `L(T)` (Definition 2) is the
//! prefix-closed set of words over `Σ = (Σi × Σo) ∪ Σi` that label runs of
//! the transducer, where a bare `σi` is a *hidden operation*: its side
//! effect is taken into account but its return value is unconstrained.
//! Membership is decided by [`word::accepts`]:
//!
//! ```
//! use cbm_adt::window::{WindowStream, WInput, WOutput};
//! use cbm_adt::{accepts, Sym};
//!
//! // w(1)/⊥ . r/(0,1) . w(2) . r/(1,2) ∈ L(W2)   (w(2) hidden)
//! let w2 = WindowStream::new(2);
//! let word = vec![
//!     Sym::Op(WInput::Write(1), WOutput::Ack),
//!     Sym::Op(WInput::Read, WOutput::Window(vec![0, 1])),
//!     Sym::Hidden(WInput::Write(2)),
//!     Sym::Op(WInput::Read, WOutput::Window(vec![1, 2])),
//! ];
//! assert!(accepts(&w2, &word));
//! ```
//!
//! ## Data-type library
//!
//! | type | module | role in the paper |
//! |------|--------|-------------------|
//! | [`WindowStream`](window::WindowStream) | [`window`] | Def. 3, the guiding example `Wk` |
//! | [`WindowArray`](window::WindowArray) | [`window`] | `W_k^K`, the object implemented by Figs. 4–5 |
//! | [`Register`](register::Register) | [`register`] | integer register (`W1` up to output renaming) |
//! | [`Memory`](memory::Memory) | [`memory`] | Def. 10, pool of registers `M_X` |
//! | [`FifoQueue`](queue::FifoQueue) | [`queue`] | queue `Q` of Figs. 3e/3f (`pop` is update+query) |
//! | [`HdRhQueue`](queue::HdRhQueue) | [`queue`] | queue `Q'` of Fig. 3g (`hd`/`rh` split) |
//! | [`Counter`](counter::Counter) | [`counter`] | commutative-update type mentioned in §1 |
//! | [`AddRemSet`](set::AddRemSet) | [`set`] | non-commutative set (add/remove/contains) |
//! | [`AppendLog`](log::AppendLog) | [`log`] | append-only sequence (collaborative-editing substrate) |
//! | [`KvStore`](kv::KvStore) | [`kv`] | put/get/del/scan map (multi-key queries beyond Def. 10's memory) |
//! | [`ObjectSpace`](space::ObjectSpace) | [`space`] | a whole multi-object space of any base type as one composite ADT (the `cbm-store` object model) |
//!
//! ## Update / query classification
//!
//! Definition 1 classifies an input `σi` as an **update** when `δ` is not
//! always a loop and a **query** when `λ` depends on the state. Both
//! properties are semantic (and undecidable for infinite-state machines),
//! so implementations *declare* them via [`Adt::is_update`] /
//! [`Adt::is_query`]; the test-suite cross-validates the declarations by
//! sampling reachable states (see `classification` tests in each module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod adt;
pub mod arbitration;
pub mod counter;
pub mod kv;
pub mod log;
pub mod memory;
pub mod queue;
pub mod register;
pub mod set;
pub mod space;
pub mod window;
pub mod wire;
pub(crate) mod word;

pub use adt::{Adt, OpKind};

#[cfg(test)]
use adt::AdtExt;
pub use word::{accepts, Sym};

/// The value domain used throughout the library.
///
/// The paper uses ℕ with a default value `0`; we use `u64` and keep the
/// same convention (`DEFAULT_VALUE` is what reads return for
/// never-written cells / shorter-than-`k` windows).
pub type Value = u64;

/// The default value returned in place of missing writes (the paper's `0`).
pub(crate) const DEFAULT_VALUE: Value = 0;
