//! # cbm-check — Deciding the consistency criteria of PPoPP 2016
//!
//! Bounded decision procedures for the consistency criteria of Perrin,
//! Mostéfaoui & Jard, *Causal Consistency: Beyond Memory* (PPoPP 2016):
//!
//! | criterion | paper | function |
//! |-----------|-------|----------|
//! | sequential consistency (SC) | Def. 5 | [`check_sc`](sc::check_sc) |
//! | pipelined consistency (PC) | Def. 6 | [`check_pc`](pc::check_pc) |
//! | weak causal consistency (WCC) | Def. 8 | [`check_wcc`](causal::check_wcc) |
//! | causal consistency (CC) | Def. 9 | [`check_cc`](causal::check_cc) |
//! | causal convergence (CCv) | Def. 12 | [`check_ccv`](ccv::check_ccv) |
//! | causal memory (CM) | Def. 11 | [`check_cm`](cm::check_cm) (memory only) |
//! | eventual/update consistency (finite forms) | §5 | [`eventual`] |
//! | session guarantees | §1 | [`session`] |
//!
//! Deciding these criteria is NP-hard in general (they quantify over
//! linearizations and causal orders), so every checker takes a
//! [`Budget`] and returns a [`Verdict`]: `Sat` (with a witness),
//! `Unsat`, or `Unknown` when the budget ran out. On the paper-scale
//! histories of Fig. 3 and on randomized histories of ≲ 14 events the
//! searches are exact and fast.
//!
//! For *recorded executions* of the algorithms in `cbm-core`, prefer the
//! [`verify`] module: the execution supplies its own causal order and
//! per-replica apply orders, which turn the decision problem into a
//! linear-time verification (this is how Propositions 6 and 7 are
//! validated at scale).
//!
//! ## Example
//!
//! ```
//! use cbm_adt::window::WindowStream;
//! use cbm_check::{check, figures, Budget, Criterion};
//!
//! // Fig. 3c is causally consistent but not causally convergent
//! let h = figures::fig3c();
//! let w2 = WindowStream::new(2);
//! let b = Budget::default();
//! assert!(check(Criterion::Cc, &w2, &h, &b).verdict.is_sat());
//! assert!(check(Criterion::Ccv, &w2, &h, &b).verdict.is_unsat());
//! ```
//!
//! ## Finite-history semantics
//!
//! Histories here are finite. Definition 7's cofiniteness requirement
//! ("every event is in the causal past of all but finitely many
//! events") is vacuous on finite histories and is therefore not
//! checked; the separations the paper draws in Fig. 3 are all realized
//! by finite structures (3(b)'s zigzag program order forces a total
//! causal order without any appeal to cofiniteness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod ccv;
pub mod cm;
pub mod eventual;
pub mod figures;
pub mod kernel;
pub mod monitor;
pub mod pc;
pub mod sc;
pub mod session;
pub mod verify;

use cbm_adt::Adt;
use cbm_history::{History, Relation};

/// Node budget for the bounded searches.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum number of search nodes across the whole check.
    pub max_nodes: u64,
    /// Cap on the number of maximal chains enumerated for PC/CC.
    pub max_chains: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_nodes: 2_000_000,
            max_chains: 64,
        }
    }
}

impl Budget {
    /// A budget with the given node count and the default chain cap.
    pub(crate) fn nodes(max_nodes: u64) -> Self {
        Budget {
            max_nodes,
            ..Default::default()
        }
    }
}

/// Three-valued verdict of a criterion check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The history satisfies the criterion (a witness was found).
    Sat,
    /// The history violates the criterion.
    Unsat,
    /// Undecided within the budget.
    Unknown,
}

impl Verdict {
    /// `true` iff `Sat`.
    pub fn is_sat(self) -> bool {
        self == Verdict::Sat
    }
    /// `true` iff `Unsat`.
    pub fn is_unsat(self) -> bool {
        self == Verdict::Unsat
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Verdict::Sat => "sat",
            Verdict::Unsat => "unsat",
            Verdict::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// Result of a criterion check: verdict, nodes spent, and — when the
/// criterion is causal and satisfied — the witnessing causal order.
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Search nodes consumed.
    pub nodes_used: u64,
    /// Witness causal order (WCC/CC/CCv on `Sat`).
    pub witness: Option<Relation>,
}

impl CheckResult {
    pub(crate) fn new(verdict: Verdict, nodes_used: u64) -> Self {
        CheckResult {
            verdict,
            nodes_used,
            witness: None,
        }
    }

    pub(crate) fn with_witness(mut self, w: Option<Relation>) -> Self {
        self.witness = w;
        self
    }
}

/// The generic criteria, for table-driven harnesses (CM is
/// memory-specific and lives in [`cm`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// Sequential consistency (Def. 5).
    Sc,
    /// Pipelined consistency (Def. 6).
    Pc,
    /// Weak causal consistency (Def. 8).
    Wcc,
    /// Causal consistency (Def. 9).
    Cc,
    /// Causal convergence (Def. 12).
    Ccv,
}

impl Criterion {
    /// All generic criteria, strongest-ish first.
    pub const ALL: [Criterion; 5] = [
        Criterion::Sc,
        Criterion::Cc,
        Criterion::Ccv,
        Criterion::Wcc,
        Criterion::Pc,
    ];

    /// The criteria directly implied by `self` according to Fig. 1
    /// (transitively reduced): an implementation satisfying `self`
    /// satisfies each of these.
    #[cfg(test)]
    pub(crate) fn implies(self) -> &'static [Criterion] {
        match self {
            Criterion::Sc => &[Criterion::Cc, Criterion::Ccv],
            Criterion::Cc => &[Criterion::Pc, Criterion::Wcc],
            Criterion::Ccv => &[Criterion::Wcc],
            Criterion::Wcc | Criterion::Pc => &[],
        }
    }

    /// Short display name matching the paper's abbreviations.
    pub fn name(self) -> &'static str {
        match self {
            Criterion::Sc => "SC",
            Criterion::Pc => "PC",
            Criterion::Wcc => "WCC",
            Criterion::Cc => "CC",
            Criterion::Ccv => "CCv",
        }
    }
}

/// Which of the paper's two wait-free replication disciplines a
/// replica runs, and so which criterion its histories are checked
/// against. The simulator, the live store and the streaming
/// [`monitor`] all take this one choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Apply updates in causal delivery order (Fig. 4): **CC**
    /// (Def. 9).
    Causal,
    /// Arbitrate updates by Lamport timestamp (Fig. 5): **CCv**
    /// (Def. 12); replicas converge.
    Convergent,
}

cbm_adt::wire_enum!(Mode { 0 => Causal, 1 => Convergent });

impl Mode {
    /// Both modes, causal first.
    pub const BOTH: [Mode; 2] = [Mode::Causal, Mode::Convergent];

    /// The criterion the mode is checked against.
    pub fn checked(self) -> Criterion {
        match self {
            Mode::Causal => Criterion::Cc,
            Mode::Convergent => Criterion::Ccv,
        }
    }

    /// Name of [`Mode::checked`] ("CC" or "CCv").
    pub fn criterion(self) -> &'static str {
        self.checked().name()
    }
}

/// Check `h` against a criterion (dispatcher over the per-criterion
/// functions; see module docs).
pub fn check<T: Adt>(
    criterion: Criterion,
    adt: &T,
    h: &History<T::Input, T::Output>,
    budget: &Budget,
) -> CheckResult {
    match criterion {
        Criterion::Sc => sc::check_sc(adt, h, budget),
        Criterion::Pc => pc::check_pc(adt, h, budget),
        Criterion::Wcc => causal::check_wcc(adt, h, budget),
        Criterion::Cc => causal::check_cc(adt, h, budget),
        Criterion::Ccv => ccv::check_ccv(adt, h, budget),
    }
}

/// Extract the arena label table used by the kernel from a history.
pub(crate) fn label_table<T: Adt>(
    h: &History<T::Input, T::Output>,
) -> Vec<(T::Input, Option<T::Output>)> {
    h.labels()
        .iter()
        .map(|l| (l.input.clone(), l.output.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criterion_names() {
        assert_eq!(Criterion::Sc.name(), "SC");
        assert_eq!(Criterion::Ccv.name(), "CCv");
        assert_eq!(Criterion::ALL.len(), 5);
    }

    /// A mode names its criterion and keeps wire tags 0/1, which the
    /// store's config and control-protocol fixtures pin byte for byte.
    #[test]
    fn modes_name_their_criteria_and_keep_their_wire_tags() {
        use cbm_adt::wire::{from_bytes, to_bytes};
        assert_eq!(Mode::Causal.checked(), Criterion::Cc);
        assert_eq!(Mode::Convergent.criterion(), "CCv");
        for (tag, mode) in Mode::BOTH.into_iter().enumerate() {
            assert_eq!(to_bytes(&mode), vec![tag as u8]);
            assert_eq!(from_bytes::<Mode>(&[tag as u8]), Some(mode));
        }
        assert_eq!(from_bytes::<Mode>(&[2]), None);
    }

    #[test]
    fn implication_edges_match_fig1() {
        use Criterion::*;
        assert_eq!(Sc.implies(), &[Cc, Ccv]);
        assert_eq!(Cc.implies(), &[Pc, Wcc]);
        assert_eq!(Ccv.implies(), &[Wcc]);
        assert!(Wcc.implies().is_empty());
        assert!(Pc.implies().is_empty());
    }

    #[test]
    fn default_budget_is_generous() {
        let b = Budget::default();
        assert!(b.max_nodes >= 1_000_000);
        assert!(b.max_chains >= 16);
    }
}
