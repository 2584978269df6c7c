//! Experiment E3 — regenerate **Fig. 3**: the classification of the
//! nine example histories against every criterion, expected (paper
//! claims + hierarchy closure) vs measured.
//!
//! ```text
//! cargo run --release -p cbm-bench --bin fig3_classification
//! ```

use cbm_adt::memory::Memory;
use cbm_adt::queue::{FifoQueue, HdRhQueue};
use cbm_adt::window::WindowStream;
use cbm_bench::{classify, expect_mark, mark, outln, render_table};
use cbm_check::cm::check_cm;
use cbm_check::figures::{self, EXPECTED};
use cbm_check::{Budget, Verdict};

fn main() {
    outln!("== Fig. 3: classification of the nine example histories ==\n");
    let budget = Budget::default();
    let w2 = WindowStream::new(2);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut mismatches = Vec::new();

    let mut push_row = |tag: &str,
                        object: &str,
                        measured: [Verdict; 5],
                        cm: Option<Verdict>,
                        mismatches: &mut Vec<String>| {
        let exp = EXPECTED.iter().find(|e| e.tag == tag).unwrap();
        let expected = [exp.sc, exp.cc, exp.ccv, exp.wcc, exp.pc];
        let names = ["SC", "CC", "CCv", "WCC", "PC"];
        for i in 0..5 {
            if let Some(e) = expected[i] {
                if measured[i] != Verdict::Unknown && measured[i].is_sat() != e {
                    mismatches.push(format!("{tag}/{}", names[i]));
                }
            }
        }
        if let (Some(e), Some(m)) = (exp.cm, cm) {
            if m != Verdict::Unknown && m.is_sat() != e {
                mismatches.push(format!("{tag}/CM"));
            }
        }
        let fmt = |i: usize| format!("{}/{}", expect_mark(expected[i]), mark(measured[i]));
        rows.push(vec![
            tag.to_string(),
            object.to_string(),
            fmt(0),
            fmt(1),
            fmt(2),
            fmt(3),
            fmt(4),
            match cm {
                Some(m) => format!("{}/{}", expect_mark(exp.cm), mark(m)),
                None => "n/a".to_string(),
            },
        ]);
    };

    push_row(
        "3a",
        "W2",
        classify(&w2, &figures::fig3a(), &budget),
        None,
        &mut mismatches,
    );
    push_row(
        "3b",
        "W2",
        classify(&w2, &figures::fig3b(), &budget),
        None,
        &mut mismatches,
    );
    push_row(
        "3c",
        "W2",
        classify(&w2, &figures::fig3c(), &budget),
        None,
        &mut mismatches,
    );
    push_row(
        "3d",
        "W2",
        classify(&w2, &figures::fig3d(), &budget),
        None,
        &mut mismatches,
    );
    push_row(
        "3e",
        "Q",
        classify(&FifoQueue, &figures::fig3e(), &budget),
        None,
        &mut mismatches,
    );
    push_row(
        "3f",
        "Q",
        classify(&FifoQueue, &figures::fig3f(), &budget),
        None,
        &mut mismatches,
    );
    push_row(
        "3g",
        "Q'",
        classify(&HdRhQueue, &figures::fig3g(), &budget),
        None,
        &mut mismatches,
    );
    let mem5 = Memory::new(5);
    push_row(
        "3h",
        "M[a-e]",
        classify(&mem5, &figures::fig3h(), &budget),
        Some(check_cm(&mem5, &figures::fig3h(), &budget).verdict),
        &mut mismatches,
    );
    let mem4 = Memory::new(4);
    push_row(
        "3i",
        "M[a-d]",
        classify(&mem4, &figures::fig3i(), &budget),
        Some(check_cm(&mem4, &figures::fig3i(), &budget).verdict),
        &mut mismatches,
    );

    outln!(
        "{}",
        render_table(
            &["hist", "object", "SC", "CC", "CCv", "WCC", "PC", "CM"],
            &rows
        )
    );
    outln!("cells are expected/measured; '-' = the paper leaves it open\n");

    outln!("paper captions:");
    outln!("  3a: CCv, not PC        3b: PC, not WCC      3c: CC, not CCv");
    outln!("  3d: SC                 3e: WCC+PC, not CC   3f: CC, not SC");
    outln!("  3g: CC, not SC (but see note)               3h: CCv, not CC");
    outln!("  3i: CM, not CC\n");
    outln!("note on 3g: as drawn, the history admits the SC interleaving");
    outln!("  push(1).push(2).hd/1.hd/1.rh(1).rh(1).hd/2.hd/2.rh(2).rh(2),");
    outln!("  so our checker reports SC = yes; the caption's 'not SC' does");
    outln!("  not affect any theorem (the expected row in cbm_check::figures).");

    if mismatches.is_empty() {
        outln!("\nall paper claims reproduced");
    } else {
        outln!("\nMISMATCHES: {mismatches:?}");
        std::process::exit(1);
    }
}
