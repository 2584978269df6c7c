//! What every harness binary says about a finished run: the checks
//! that fail it, when its flight record is dumped, and the markdown
//! job-summary tables.

use cbm_store::StoreReport;

/// Why run `r` failed, one line per reason; empty means it passed. The
/// checks every harness applies to every run: each failed window, a
/// drain divergence (convergent mode), and — when the monitor ran — a
/// certification shortfall and any confirmed violation.
pub fn run_failures(r: &StoreReport) -> Vec<String> {
    let mut out: Vec<String> = r
        .windows
        .iter()
        .filter(|w| w.result.is_err())
        .map(|w| format!("window {} [{}]: {:?}", w.window, w.criterion, w.result))
        .collect();
    if !r.drains_converged {
        out.push("drain divergence".into());
    }
    let m = &r.monitor;
    if m.enabled && m.ops_checked != r.total_ops {
        out.push(format!(
            "monitor certified {} of {} ops",
            m.ops_checked, r.total_ops
        ));
    }
    if m.enabled && m.violations != 0 {
        out.push(format!(
            "{} confirmed monitor violation(s): {:?}",
            m.violations, m.records
        ));
    }
    out
}

/// The monitor's account of run `r` — certified ops, escalations, and
/// one `ESCALATE` line per escalation — or `None` if it was off.
pub fn monitor_summary(r: &StoreReport) -> Option<String> {
    let m = &r.monitor;
    let mut out = format!(
        "monitor {}/{} ops certified, {} escalation(s) ({} cleared, {} violations)",
        m.ops_checked, r.total_ops, m.escalations, m.cleared, m.violations
    );
    for rec in &m.records {
        out.push_str(&format!(
            "\n  ESCALATE worker {} epoch {} op {}: {} ({} events) -> {}",
            rec.worker, rec.epoch, rec.at_op, rec.pattern, rec.events, rec.verdict
        ));
    }
    m.enabled.then_some(out)
}

/// Whether run `r` leaves a post-mortem flight record even when
/// tracing was not asked for: a failed verdict, a monitor escalation,
/// or any repair or recovery the engine traced.
pub fn wants_trace(r: &StoreReport) -> bool {
    !r.verified()
        || r.monitor.escalations > 0
        || r.chaos.repairs > 0
        || !r.chaos.recoveries.is_empty()
}

/// Dump `r`'s flight record, if the engine kept one, as
/// `dir/name.trace.json` (Perfetto / `chrome://tracing`) and
/// `dir/name.jsonl` (the byte-comparable logical timeline), and say so
/// on stderr after `prefix`.
pub fn dump_trace(r: &StoreReport, dir: &str, name: &str, prefix: &str) {
    let Some(rec) = &r.trace else { return };
    let chrome = format!("{dir}/{name}.trace.json");
    let jsonl = format!("{dir}/{name}.jsonl");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&chrome, cbm_obs::export::chrome_json(rec)))
        .and_then(|()| std::fs::write(&jsonl, cbm_obs::export::jsonl(rec)));
    match written {
        Ok(()) => eprintln!("{prefix}trace: {chrome} + {jsonl}"),
        Err(e) => eprintln!("{prefix}trace: could not write to {dir}: {e}"),
    }
}

/// Append one titled markdown table to a GitHub Actions job-summary
/// file (`$GITHUB_STEP_SUMMARY`). Pass an empty title to continue the
/// previous section with another table.
pub fn append_summary_table(
    path: &str,
    title: &str,
    columns: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if !title.is_empty() {
        writeln!(f, "## {title}\n")?;
    }
    writeln!(f, "| {} |", columns.join(" | "))?;
    writeln!(f, "|{}|", vec!["---"; columns.len()].join("|"))?;
    for row in rows {
        writeln!(f, "| {} |", row.join(" | "))?;
    }
    writeln!(f)
}

/// Columns of the per-epoch dashboard table (prefix each row with a
/// leg/cell name column when rendering several runs into one table).
pub const EPOCH_COLUMNS: [&str; 11] = [
    "epoch",
    "ops",
    "updates",
    "remote reads",
    "batches",
    "payloads",
    "delivered",
    "nacks",
    "repairs",
    "faults",
    "crashed",
];

/// One [`EPOCH_COLUMNS`] row. Every value is deterministic per
/// `(config, seed)`, so these tables diff exactly across reruns.
pub fn epoch_row(e: &cbm_store::EpochMetrics) -> Vec<String> {
    vec![
        e.epoch.to_string(),
        e.ops.to_string(),
        e.updates.to_string(),
        e.remote_reads.to_string(),
        e.batches.to_string(),
        e.payloads.to_string(),
        e.delivered.to_string(),
        e.nacks.to_string(),
        e.repairs.to_string(),
        e.faults.to_string(),
        e.crashed.to_string(),
    ]
}
