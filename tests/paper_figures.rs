//! Integration test: the complete classification of the paper's Fig. 3
//! histories against every criterion, cross-checked with the expected
//! matrix (paper claims + Fig. 1 hierarchy closures).
//!
//! The printable version is `cargo run -p cbm-bench --bin
//! fig3_classification`.

use cbm_adt::memory::Memory;
use cbm_adt::queue::{FifoQueue, HdRhQueue};
use cbm_adt::window::WindowStream;
use cbm_adt::Adt;
use cbm_check::cm::{all_writes_distinct, check_cm};
use cbm_check::figures::{self, Expected, EXPECTED};
use cbm_check::{check, Budget, Criterion, Verdict};
use cbm_history::History;

fn verdicts<T: Adt>(adt: &T, h: &History<T::Input, T::Output>) -> [Verdict; 5] {
    let b = Budget::default();
    [
        check(Criterion::Sc, adt, h, &b).verdict,
        check(Criterion::Cc, adt, h, &b).verdict,
        check(Criterion::Ccv, adt, h, &b).verdict,
        check(Criterion::Wcc, adt, h, &b).verdict,
        check(Criterion::Pc, adt, h, &b).verdict,
    ]
}

fn assert_expected(tag: &str, expected: &Expected, measured: [Verdict; 5], cm: Option<Verdict>) {
    let pairs = [
        ("SC", expected.sc, measured[0]),
        ("CC", expected.cc, measured[1]),
        ("CCv", expected.ccv, measured[2]),
        ("WCC", expected.wcc, measured[3]),
        ("PC", expected.pc, measured[4]),
    ];
    for (name, exp, got) in pairs {
        assert_ne!(got, Verdict::Unknown, "{tag}/{name}: budget exhausted");
        if let Some(e) = exp {
            assert_eq!(
                got.is_sat(),
                e,
                "{tag}/{name}: paper claims {e}, measured {got}"
            );
        }
    }
    if let (Some(e), Some(got)) = (expected.cm, cm) {
        assert_eq!(
            got.is_sat(),
            e,
            "{tag}/CM: paper claims {e}, measured {got}"
        );
    }
}

fn expected_for(tag: &str) -> &'static Expected {
    EXPECTED.iter().find(|e| e.tag == tag).unwrap()
}

#[test]
fn fig3a_matrix() {
    let h = figures::fig3a();
    assert_expected(
        "3a",
        expected_for("3a"),
        verdicts(&WindowStream::new(2), &h),
        None,
    );
}

#[test]
fn fig3b_matrix() {
    let h = figures::fig3b();
    assert_expected(
        "3b",
        expected_for("3b"),
        verdicts(&WindowStream::new(2), &h),
        None,
    );
}

#[test]
fn fig3c_matrix() {
    let h = figures::fig3c();
    assert_expected(
        "3c",
        expected_for("3c"),
        verdicts(&WindowStream::new(2), &h),
        None,
    );
}

#[test]
fn fig3d_matrix() {
    let h = figures::fig3d();
    assert_expected(
        "3d",
        expected_for("3d"),
        verdicts(&WindowStream::new(2), &h),
        None,
    );
}

#[test]
fn fig3e_matrix() {
    let h = figures::fig3e();
    assert_expected("3e", expected_for("3e"), verdicts(&FifoQueue, &h), None);
}

#[test]
fn fig3f_matrix() {
    let h = figures::fig3f();
    assert_expected("3f", expected_for("3f"), verdicts(&FifoQueue, &h), None);
}

#[test]
fn fig3g_matrix() {
    let h = figures::fig3g();
    assert_expected("3g", expected_for("3g"), verdicts(&HdRhQueue, &h), None);
}

#[test]
fn fig3h_matrix() {
    let h = figures::fig3h();
    let mem = Memory::new(5);
    let cm = check_cm(&mem, &h, &Budget::default()).verdict;
    assert!(all_writes_distinct(&h), "3h writes are distinct");
    assert_expected("3h", expected_for("3h"), verdicts(&mem, &h), Some(cm));
}

#[test]
fn fig3i_matrix() {
    let h = figures::fig3i();
    let mem = Memory::new(4);
    let cm = check_cm(&mem, &h, &Budget::default()).verdict;
    assert!(!all_writes_distinct(&h), "3i duplicates written values");
    assert_expected("3i", expected_for("3i"), verdicts(&mem, &h), Some(cm));
}

/// The measured matrix never contradicts the Fig. 1 hierarchy.
#[test]
fn measured_matrix_respects_hierarchy() {
    fn check_hierarchy(m: [Verdict; 5], tag: &str) {
        let [sc, cc, ccv, wcc, pc] = m.map(|v| v.is_sat());
        if sc {
            assert!(cc && ccv, "{tag}: SC ⇒ CC ∧ CCv");
        }
        if cc {
            assert!(pc && wcc, "{tag}: CC ⇒ PC ∧ WCC");
        }
        if ccv {
            assert!(wcc, "{tag}: CCv ⇒ WCC");
        }
    }
    check_hierarchy(verdicts(&WindowStream::new(2), &figures::fig3a()), "3a");
    check_hierarchy(verdicts(&WindowStream::new(2), &figures::fig3b()), "3b");
    check_hierarchy(verdicts(&WindowStream::new(2), &figures::fig3c()), "3c");
    check_hierarchy(verdicts(&WindowStream::new(2), &figures::fig3d()), "3d");
    check_hierarchy(verdicts(&FifoQueue, &figures::fig3e()), "3e");
    check_hierarchy(verdicts(&FifoQueue, &figures::fig3f()), "3f");
    check_hierarchy(verdicts(&HdRhQueue, &figures::fig3g()), "3g");
    check_hierarchy(verdicts(&Memory::new(5), &figures::fig3h()), "3h");
    check_hierarchy(verdicts(&Memory::new(4), &figures::fig3i()), "3i");
}

/// Fig. 2: zone classification of the grid history is a partition and
/// respects the containment prog-past ⊆ causal-past.
#[test]
fn fig2_zones_are_consistent() {
    use cbm_history::zones::{classify, Zone};
    let (h, causal, present) = figures::fig2_grid();
    let zones = classify(&h, &causal, present);
    assert_eq!(zones.len(), h.len());
    assert_eq!(zones.iter().filter(|z| **z == Zone::Present).count(), 1);
    // prog past is a subset of causal past by construction
    for (f, z) in zones.iter().enumerate() {
        if *z == Zone::ProgramPast {
            assert!(causal.lt(f, present));
        }
        if *z == Zone::CausalPastOnly {
            assert!(causal.lt(f, present) && !h.prog().lt(f, present));
        }
    }
    // the grid has at least one event in each interesting zone
    for target in [
        Zone::ProgramPast,
        Zone::CausalPastOnly,
        Zone::ProgramFuture,
        Zone::CausalFutureOnly,
        Zone::ConcurrentPresent,
    ] {
        assert!(zones.contains(&target), "no event in zone {target:?}");
    }
}
