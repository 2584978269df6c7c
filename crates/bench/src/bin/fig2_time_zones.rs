//! Experiment E2 — regenerate **Fig. 2** (the time zones and what each
//! criterion requires of them).
//!
//! The grid history (3 processes × 4 events) is rebuilt with the causal
//! order drawn in the figure; the zone of every event relative to the
//! "present" event is computed by `cbm-history::zones`, and the
//! per-criterion constraint legend is printed under it — "the more
//! constraints the past imposes on the present, the stronger the
//! criterion".
//!
//! ```text
//! cargo run --release -p cbm-bench --bin fig2_time_zones
//! ```

use cbm_bench::outln;
use cbm_check::figures::fig2_grid;
use cbm_history::zones::{classify, Zone};
use cbm_history::ProcId;

fn zone_symbol(z: Zone) -> &'static str {
    match z {
        Zone::Present => "[*]",
        Zone::ProgramPast => "PP ",
        Zone::CausalPastOnly => "CP ",
        Zone::ProgramFuture => "PF ",
        Zone::CausalFutureOnly => "CF ",
        Zone::ConcurrentPresent => " . ",
    }
}

fn main() {
    outln!("== Fig. 2: time zones around an event ==\n");
    let (h, causal, present) = fig2_grid();
    let zones = classify(&h, &causal, present);

    outln!("grid (rows = processes, columns = program order; present = [*]):\n");
    for p in 0..h.n_procs() {
        let evs = h.process_events(ProcId(p as u32));
        let row: Vec<&str> = evs.iter().map(|e| zone_symbol(zones[e.idx()])).collect();
        outln!("  p{p}:  {}", row.join("  "));
    }
    outln!("\n  PP = program past    CP = causal past (only)");
    outln!("  PF = program future  CF = causal future (only)");
    outln!("   . = concurrent present\n");

    // zone counts
    let count = |z: Zone| zones.iter().filter(|x| **x == z).count();
    outln!("zone sizes: program past {}, causal-only past {}, program future {}, causal-only future {}, concurrent {}\n",
        count(Zone::ProgramPast),
        count(Zone::CausalPastOnly),
        count(Zone::ProgramFuture),
        count(Zone::CausalFutureOnly),
        count(Zone::ConcurrentPresent),
    );

    // Fig. 2's caption, as a constraint table: which zones must be
    // respected totally (outputs too) and which contribute updates only.
    outln!("per-criterion constraints on the present event's value:\n");
    let rows = [
        (
            "PC  (Def. 6)",
            "program past: outputs + updates",
            "writes of an arbitrary prefix of every other process",
        ),
        (
            "WCC (Def. 8)",
            "—",
            "updates of the whole causal past (and only them)",
        ),
        (
            "CC  (Def. 9)",
            "program past: outputs + updates",
            "updates of the whole causal past",
        ),
        (
            "SC  (Def. 5)",
            "every past event: outputs + updates",
            "total order: concurrent present is empty",
        ),
    ];
    for (c, plain, striped) in rows {
        outln!("  {c:<14}");
        outln!("      fully respected : {plain}");
        outln!("      updates count   : {striped}");
    }
    outln!("\nThe inclusion of constraint sets along the arrows of Fig. 1 is");
    outln!("visible directly: CC's constraints contain both PC's and WCC's,");
    outln!("and SC's contain everything.");
}
