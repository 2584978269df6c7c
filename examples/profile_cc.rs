//! Tight-loop checker timing on the 14-event recorded history.
//!
//! `perf_baseline` reports best and mean over a few iterations per
//! cell, which is enough to track movement but noisy for before/after
//! comparisons of a single optimization. This example spins each
//! checker 200 times over its largest history — the same
//! `cbm_bench::recorded_window_history` workload `perf_baseline`
//! measures — and prints mean wall time plus the
//! machine-independent `nodes_used` (see `docs/PERFORMANCE.md`).
//!
//! ```text
//! cargo run --release --example profile_cc
//! ```

use cbm::check::{check, Budget, Criterion};
use cbm_bench::{recorded_window_adt, recorded_window_history};

fn main() {
    let h = recorded_window_history(7, 7);
    let adt = recorded_window_adt();
    const ITERS: u32 = 200;
    for crit in [
        Criterion::Cc,
        Criterion::Wcc,
        Criterion::Ccv,
        Criterion::Sc,
        Criterion::Pc,
    ] {
        let t = std::time::Instant::now();
        let mut nodes = 0;
        for _ in 0..ITERS {
            let r = check(crit, &adt, &h, &Budget::default());
            nodes = r.nodes_used;
        }
        println!(
            "{:?}: nodes_used={} time/iter={:?}",
            crit,
            nodes,
            t.elapsed() / ITERS
        );
    }
}
