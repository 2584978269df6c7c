//! Experiment E1 — regenerate **Fig. 1** (the relative strength of the
//! criteria) empirically.
//!
//! For every ordered pair of criteria (C_strong, C_weak) we test the
//! implication `C_strong ⇒ C_weak` over the nine Fig. 3 histories plus
//! hundreds of random histories. The paper's hierarchy predicts which
//! implications hold; for every non-implication we exhibit a concrete
//! separating witness.
//!
//! ```text
//! cargo run --release -p cbm-bench --bin fig1_hierarchy
//! ```

use cbm_adt::queue::{FifoQueue, HdRhQueue};
use cbm_adt::window::WindowStream;
use cbm_adt::Adt;
use cbm_bench::{
    classify, outln, random_histories, random_histories_adt, render_table, RandomHistories,
};
use cbm_check::figures;
use cbm_check::{Budget, Verdict};
use cbm_history::History;

const NAMES: [&str; 5] = ["SC", "CC", "CCv", "WCC", "PC"];

/// Fig. 1's transitive closure: does `strong ⇒ weak` per the paper?
fn paper_implies(strong: usize, weak: usize) -> bool {
    // indices into NAMES
    let table: [&[usize]; 5] = [
        &[0, 1, 2, 3, 4], // SC ⇒ everything
        &[1, 3, 4],       // CC ⇒ WCC, PC
        &[2, 3],          // CCv ⇒ WCC
        &[3],             // WCC
        &[4],             // PC
    ];
    table[strong].contains(&weak)
}

struct Evidence {
    /// `violations[strong][weak]` = #histories satisfying strong but not weak
    violations: [[u32; 5]; 5],
    /// a tag of the first witness per pair
    witness: [[Option<String>; 5]; 5],
    histories: u32,
    unknowns: u32,
}

impl Evidence {
    fn new() -> Self {
        Evidence {
            violations: [[0; 5]; 5],
            witness: Default::default(),
            histories: 0,
            unknowns: 0,
        }
    }

    fn add(&mut self, tag: &str, verdicts: [Verdict; 5]) {
        self.histories += 1;
        if verdicts.contains(&Verdict::Unknown) {
            self.unknowns += 1;
            return;
        }
        let sat: Vec<bool> = verdicts.iter().map(|v| v.is_sat()).collect();
        for s in 0..5 {
            for w in 0..5 {
                if sat[s] && !sat[w] {
                    self.violations[s][w] += 1;
                    if self.witness[s][w].is_none() {
                        self.witness[s][w] = Some(tag.to_string());
                    }
                }
            }
        }
    }
}

fn add_history<T: Adt>(ev: &mut Evidence, tag: &str, adt: &T, h: &History<T::Input, T::Output>) {
    ev.add(tag, classify(adt, h, &Budget::default()));
}

#[allow(clippy::needless_range_loop)] // s/w index parallel 5x5 tables
fn main() {
    outln!("== Fig. 1: empirical criteria hierarchy ==\n");
    let mut ev = Evidence::new();

    // the paper's own separating histories
    let w2 = WindowStream::new(2);
    add_history(&mut ev, "fig3a", &w2, &figures::fig3a());
    add_history(&mut ev, "fig3b", &w2, &figures::fig3b());
    add_history(&mut ev, "fig3c", &w2, &figures::fig3c());
    add_history(&mut ev, "fig3d", &w2, &figures::fig3d());
    add_history(&mut ev, "fig3e", &FifoQueue, &figures::fig3e());
    add_history(&mut ev, "fig3f", &FifoQueue, &figures::fig3f());
    add_history(&mut ev, "fig3g", &HdRhQueue, &figures::fig3g());
    add_history(
        &mut ev,
        "fig3h",
        &cbm_adt::memory::Memory::new(5),
        &figures::fig3h(),
    );
    add_history(
        &mut ev,
        "fig3i",
        &cbm_adt::memory::Memory::new(4),
        &figures::fig3i(),
    );

    // randomized sweep
    for seed in 0..4 {
        let cfg = RandomHistories {
            count: 400,
            seed,
            ..Default::default()
        };
        let adt = random_histories_adt(&cfg);
        for (i, h) in random_histories(&cfg).iter().enumerate() {
            add_history(&mut ev, &format!("rand{seed}:{i}"), &adt, h);
        }
    }

    outln!(
        "checked {} histories ({} undecided within budget)\n",
        ev.histories,
        ev.unknowns
    );

    // implication matrix
    let mut rows = Vec::new();
    let mut all_consistent = true;
    for s in 0..5 {
        let mut row = vec![NAMES[s].to_string()];
        for w in 0..5 {
            let cell = if s == w {
                "=".to_string()
            } else if paper_implies(s, w) {
                if ev.violations[s][w] == 0 {
                    "=>".to_string()
                } else {
                    all_consistent = false;
                    format!("CONTRADICTED({})", ev.violations[s][w])
                }
            } else {
                match &ev.witness[s][w] {
                    Some(tag) => format!("x ({tag})"),
                    None => "x (no witness)".to_string(),
                }
            };
            row.push(cell);
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("==>").chain(NAMES).collect();
    outln!("{}", render_table(&headers, &rows));
    outln!("legend: '=>' implication predicted by Fig. 1, confirmed on every history;");
    outln!("        'x (tag)' no implication — `tag` is a separating witness");
    outln!("        (witness satisfies the row criterion but not the column one)\n");

    // paper arrows, spelled out
    let arrows = [
        (
            "EC <- CCv",
            "CCv implies convergence (see convergence tests; EC itself is a liveness property)",
        ),
        ("WCC <- CCv", "confirmed above"),
        ("WCC <- CC", "confirmed above"),
        ("PC <- CC", "confirmed above"),
        ("CC <- SC", "confirmed above"),
        ("CCv <- SC", "confirmed above"),
    ];
    outln!("paper arrows (weak <- strong):");
    for (a, note) in arrows {
        outln!("  {a:<12} {note}");
    }

    assert!(all_consistent, "hierarchy contradicted!");
    // every non-implication must be separated by some witness
    let mut missing = Vec::new();
    for s in 0..5 {
        for w in 0..5 {
            if s != w && !paper_implies(s, w) && ev.witness[s][w].is_none() {
                missing.push(format!("{} -/-> {}", NAMES[s], NAMES[w]));
            }
        }
    }
    if missing.is_empty() {
        outln!("\nall non-implications separated by witnesses — Fig. 1 reproduced");
    } else {
        outln!("\nWARNING: no witness found for: {missing:?}");
    }
}
