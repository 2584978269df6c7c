//! The paper's worked examples as reusable history constructors:
//! the nine histories of Fig. 3 and the time-zone grid of Fig. 2.
//!
//! Event structures were reconstructed from the figure and the prose
//! that analyses them; where the two could disagree, the prose wins
//! (it quotes the exact linearizations). In particular Fig. 3b is the
//! *zigzag* history whose program order runs
//! `w(1) ↦ r/(2,1)` on one chain and `r/(0,1) ↦ w(2)` on the other:
//! §3.2's argument — "the causal order of this history is total, so it
//! has only one possible linearization for the last read:
//! `w(1).r.w(2).r/(2,1)`" — is only valid for that structure.
//!
//! Each constructor returns the history; [`EXPECTED`] tabulates the
//! classification the paper commits to (entries the paper leaves open
//! are `None` and reported as *measured* by the harnesses).

use cbm_adt::memory::{MemInput, MemOutput};
use cbm_adt::queue::{QInput, QOutput, QpInput, QpOutput};
use cbm_adt::window::{WInput, WOutput};
use cbm_history::{History, HistoryBuilder, Relation};

type WH = History<WInput, WOutput>;
type QH = History<QInput, QOutput>;
type QpH = History<QpInput, QpOutput>;
type MH = History<MemInput, MemOutput>;

fn w(b: &mut HistoryBuilder<WInput, WOutput>, p: usize, v: u64) {
    b.op(p, WInput::Write(v), WOutput::Ack);
}
fn r(b: &mut HistoryBuilder<WInput, WOutput>, p: usize, vals: &[u64]) {
    b.op(p, WInput::Read, WOutput::Window(vals.to_vec()));
}

/// Fig. 3a (`W2`: CCv, not PC):
/// p0: `w(1), r/(0,1), r/(1,2)`; p1: `w(2), r/(0,2), r/(1,2)`.
pub fn fig3a() -> WH {
    let mut b = HistoryBuilder::new();
    w(&mut b, 0, 1);
    r(&mut b, 0, &[0, 1]);
    r(&mut b, 0, &[1, 2]);
    w(&mut b, 1, 2);
    r(&mut b, 1, &[0, 2]);
    r(&mut b, 1, &[1, 2]);
    b.build()
}

/// Fig. 3b (`W2`: PC, not WCC):
/// p0: `w(1) ↦ r/(2,1)`; p1: `r/(0,1) ↦ w(2)`.
pub fn fig3b() -> WH {
    let mut b = HistoryBuilder::new();
    w(&mut b, 0, 1);
    r(&mut b, 0, &[2, 1]);
    r(&mut b, 1, &[0, 1]);
    w(&mut b, 1, 2);
    b.build()
}

/// Fig. 3c (`W2`: CC, not CCv):
/// p0: `w(1), r/(2,1)`; p1: `w(2), r/(1,2)`.
pub fn fig3c() -> WH {
    let mut b = HistoryBuilder::new();
    w(&mut b, 0, 1);
    r(&mut b, 0, &[2, 1]);
    w(&mut b, 1, 2);
    r(&mut b, 1, &[1, 2]);
    b.build()
}

/// Fig. 3d (`W2`: SC): p0: `w(1), r/(0,1)`; p1: `w(2), r/(1,2)`.
pub fn fig3d() -> WH {
    let mut b = HistoryBuilder::new();
    w(&mut b, 0, 1);
    r(&mut b, 0, &[0, 1]);
    w(&mut b, 1, 2);
    r(&mut b, 1, &[1, 2]);
    b.build()
}

/// Fig. 3e (`Q`: WCC and PC, not CC):
/// p0: `push(1), pop/1, pop/1, push(3)`; p1: `push(2), pop/3, push(1)`.
pub fn fig3e() -> QH {
    let mut b = HistoryBuilder::new();
    b.op(0, QInput::Push(1), QOutput::Ack);
    b.op(0, QInput::Pop, QOutput::Popped(Some(1)));
    b.op(0, QInput::Pop, QOutput::Popped(Some(1)));
    b.op(0, QInput::Push(3), QOutput::Ack);
    b.op(1, QInput::Push(2), QOutput::Ack);
    b.op(1, QInput::Pop, QOutput::Popped(Some(3)));
    b.op(1, QInput::Push(1), QOutput::Ack);
    b.build()
}

/// Fig. 3f (`Q`: CC, not SC):
/// p0: `pop/1, pop/⊥`; p1: `push(1), push(2)`; p2: `pop/1, pop/⊥`.
pub fn fig3f() -> QH {
    let mut b = HistoryBuilder::new();
    b.op(0, QInput::Pop, QOutput::Popped(Some(1)));
    b.op(0, QInput::Pop, QOutput::Popped(None));
    b.op(1, QInput::Push(1), QOutput::Ack);
    b.op(1, QInput::Push(2), QOutput::Ack);
    b.op(2, QInput::Pop, QOutput::Popped(Some(1)));
    b.op(2, QInput::Pop, QOutput::Popped(None));
    b.build()
}

/// Fig. 3g (`Q'`): p0 and p2: `hd/1, rh(1), hd/2, rh(2)`;
/// p1: `push(1), push(2)`.
pub fn fig3g() -> QpH {
    let mut b = HistoryBuilder::new();
    for p in [0usize, 2] {
        b.op(p, QpInput::Hd, QpOutput::Head(Some(1)));
        b.op(p, QpInput::RemoveHead(1), QpOutput::Ack);
        b.op(p, QpInput::Hd, QpOutput::Head(Some(2)));
        b.op(p, QpInput::RemoveHead(2), QpOutput::Ack);
    }
    b.op(1, QpInput::Push(1), QpOutput::Ack);
    b.op(1, QpInput::Push(2), QpOutput::Ack);
    b.build()
}

/// Register names for the memory figures: a..e ↦ 0..4.
pub(crate) const REG_A: usize = 0;
/// Register `b`.
pub(crate) const REG_B: usize = 1;
/// Register `c`.
pub(crate) const REG_C: usize = 2;
/// Register `d`.
pub(crate) const REG_D: usize = 3;
/// Register `e`.
pub(crate) const REG_E: usize = 4;

/// Fig. 3h (`M[a-e]`: CCv but not CC):
/// p0: `wa(1), wc(2), wd(1), rb/0, re/1, rc/3`;
/// p1: `wb(1), wc(3), we(1), ra/0, rd/1, rc/3`.
pub fn fig3h() -> MH {
    let mut b = HistoryBuilder::new();
    b.op(0, MemInput::Write(REG_A, 1), MemOutput::Ack);
    b.op(0, MemInput::Write(REG_C, 2), MemOutput::Ack);
    b.op(0, MemInput::Write(REG_D, 1), MemOutput::Ack);
    b.op(0, MemInput::Read(REG_B), MemOutput::Val(0));
    b.op(0, MemInput::Read(REG_E), MemOutput::Val(1));
    b.op(0, MemInput::Read(REG_C), MemOutput::Val(3));
    b.op(1, MemInput::Write(REG_B, 1), MemOutput::Ack);
    b.op(1, MemInput::Write(REG_C, 3), MemOutput::Ack);
    b.op(1, MemInput::Write(REG_E, 1), MemOutput::Ack);
    b.op(1, MemInput::Read(REG_A), MemOutput::Val(0));
    b.op(1, MemInput::Read(REG_D), MemOutput::Val(1));
    b.op(1, MemInput::Read(REG_C), MemOutput::Val(3));
    b.build()
}

/// Fig. 3i (`M[a-d]`: CM but not CC — duplicated written values):
/// p0: `wa(1), wa(2), wb(3), rd/3, rc/1, wa(1)`;
/// p1: `wc(1), wc(2), wd(3), rb/3, ra/1, wc(1)`.
pub fn fig3i() -> MH {
    let mut b = HistoryBuilder::new();
    b.op(0, MemInput::Write(REG_A, 1), MemOutput::Ack);
    b.op(0, MemInput::Write(REG_A, 2), MemOutput::Ack);
    b.op(0, MemInput::Write(REG_B, 3), MemOutput::Ack);
    b.op(0, MemInput::Read(REG_D), MemOutput::Val(3));
    b.op(0, MemInput::Read(REG_C), MemOutput::Val(1));
    b.op(0, MemInput::Write(REG_A, 1), MemOutput::Ack);
    b.op(1, MemInput::Write(REG_C, 1), MemOutput::Ack);
    b.op(1, MemInput::Write(REG_C, 2), MemOutput::Ack);
    b.op(1, MemInput::Write(REG_D, 3), MemOutput::Ack);
    b.op(1, MemInput::Read(REG_B), MemOutput::Val(3));
    b.op(1, MemInput::Read(REG_A), MemOutput::Val(1));
    b.op(1, MemInput::Write(REG_C, 1), MemOutput::Ack);
    b.build()
}

/// The 3-process × 4-event grid of Fig. 2, with a causal order that
/// adds the diagonal edges the figure draws. Returns the history, the
/// causal order and the arena index of the "present" event (σ7, the
/// middle process's third event).
pub fn fig2_grid() -> (WH, Relation, usize) {
    let mut b: HistoryBuilder<WInput, WOutput> = HistoryBuilder::new();
    for p in 0..3usize {
        for i in 0..4u64 {
            b.hidden(p, WInput::Write(p as u64 * 4 + i + 1));
        }
    }
    let h = b.build();
    // arena ids: p0: 0..4, p1: 4..8, p2: 8..12
    let mut causal = h.prog().clone();
    // diagonal causal edges between neighbouring processes
    for (a, bb) in [
        (0usize, 5usize),
        (4, 1),
        (5, 10),
        (9, 6),
        (2, 7),
        (10, 3),
        (6, 11),
    ] {
        causal.add_pair_closed(a, bb);
    }
    assert!(causal.is_acyclic());
    (h, causal, 6) // present = p1's third event
}

/// What the paper explicitly claims for each Fig. 3 history (plus the
/// entries forced by the Fig. 1 hierarchy). `None` = left open by the
/// paper; the harness reports the measured verdict.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Figure tag, e.g. `"3a"`.
    pub tag: &'static str,
    /// Expected SC verdict.
    pub sc: Option<bool>,
    /// Expected CC verdict.
    pub cc: Option<bool>,
    /// Expected CCv verdict.
    pub ccv: Option<bool>,
    /// Expected WCC verdict.
    pub wcc: Option<bool>,
    /// Expected PC verdict.
    pub pc: Option<bool>,
    /// Expected CM verdict (memory histories only).
    pub cm: Option<bool>,
}

/// The expected classification matrix (see [`Expected`]).
pub const EXPECTED: [Expected; 9] = [
    Expected {
        tag: "3a",
        sc: Some(false),
        cc: Some(false),
        ccv: Some(true),
        wcc: Some(true),
        pc: Some(false),
        cm: None,
    },
    Expected {
        tag: "3b",
        sc: Some(false),
        cc: Some(false),
        ccv: Some(false),
        wcc: Some(false),
        pc: Some(true),
        cm: None,
    },
    Expected {
        tag: "3c",
        sc: Some(false),
        cc: Some(true),
        ccv: Some(false),
        wcc: Some(true),
        pc: Some(true),
        cm: None,
    },
    Expected {
        tag: "3d",
        sc: Some(true),
        cc: Some(true),
        ccv: Some(true),
        wcc: Some(true),
        pc: Some(true),
        cm: None,
    },
    Expected {
        tag: "3e",
        sc: Some(false),
        cc: Some(false),
        ccv: None,
        wcc: Some(true),
        pc: Some(true),
        cm: None,
    },
    Expected {
        tag: "3f",
        sc: Some(false),
        cc: Some(true),
        ccv: None,
        wcc: Some(true),
        pc: Some(true),
        cm: None,
    },
    // 3g: the caption says "CC, not SC", but the history as drawn *is*
    // sequentially consistent (a valid interleaving exists; the
    // `fig3_classification` binary prints it) — we claim only CC and
    // measure the rest.
    Expected {
        tag: "3g",
        sc: None,
        cc: Some(true),
        ccv: None,
        wcc: Some(true),
        pc: Some(true),
        cm: None,
    },
    Expected {
        tag: "3h",
        sc: Some(false),
        cc: Some(false),
        ccv: Some(true),
        wcc: Some(true),
        pc: None,
        cm: Some(false),
    },
    Expected {
        tag: "3i",
        sc: Some(false),
        cc: Some(false),
        ccv: None,
        wcc: None,
        pc: None,
        cm: Some(true),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_the_documented_shapes() {
        assert_eq!(fig3a().len(), 6);
        assert_eq!(fig3b().len(), 4);
        assert_eq!(fig3c().len(), 4);
        assert_eq!(fig3d().len(), 4);
        assert_eq!(fig3e().len(), 7);
        assert_eq!(fig3f().len(), 6);
        assert_eq!(fig3g().len(), 10);
        assert_eq!(fig3h().len(), 12);
        assert_eq!(fig3i().len(), 12);
    }

    #[test]
    fn fig2_grid_has_three_chains_of_four() {
        let (h, causal, present) = fig2_grid();
        assert_eq!(h.len(), 12);
        assert_eq!(h.n_procs(), 3);
        assert!(causal.contains(h.prog()));
        assert!(present < h.len());
        // diagonals really added
        assert!(causal.lt(0, 5));
        assert!(!h.prog_lt(cbm_history::EventId(0), cbm_history::EventId(5)));
    }

    #[test]
    fn expected_matrix_is_internally_consistent_with_fig1() {
        // if the paper claims C2 and C2 ⇒ C1, it must not claim ¬C1
        for e in EXPECTED {
            if e.sc == Some(true) {
                assert_ne!(e.cc, Some(false), "{}: SC ⇒ CC", e.tag);
                assert_ne!(e.ccv, Some(false), "{}: SC ⇒ CCv", e.tag);
            }
            if e.cc == Some(true) {
                assert_ne!(e.pc, Some(false), "{}: CC ⇒ PC", e.tag);
                assert_ne!(e.wcc, Some(false), "{}: CC ⇒ WCC", e.tag);
            }
            if e.ccv == Some(true) {
                assert_ne!(e.wcc, Some(false), "{}: CCv ⇒ WCC", e.tag);
            }
        }
    }
}
