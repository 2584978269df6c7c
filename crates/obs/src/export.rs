//! Flight-recorder exporters: deterministic JSONL and Chrome trace
//! JSON.
//!
//! [`jsonl`] renders **only** the deterministic logical timeline —
//! epoch, kind, worker, logical stamp, peer, shard, payload fields —
//! one fixed-field-order object per line, so the output is
//! byte-identical across runs at the same `(config, seed)` (this is
//! what the trace-determinism tests and the `obs-smoke` CI job diff).
//!
//! [`chrome_json`] renders the same spans in the Chrome trace event
//! format (`chrome://tracing` / <https://ui.perfetto.dev>): wall-clock
//! `ts`/`dur` in microseconds, one `tid` lane per worker plus one for
//! the verifier, with the logical fields and the envelope's
//! edge-knowledge vector clock attached as `args`. Wall times and
//! clock stamps are interleaving-dependent, so this form is **not**
//! byte-comparable — use it for reading, JSONL for diffing.
//!
//! Everything is hand-rolled `core::fmt` emission: every emitted field
//! is numeric, boolean, or a static enum name, so no string escaping
//! is needed and no serializer dependency is taken.

use std::fmt::Write as _;

use crate::trace::{FlightRecord, Span, SpanKind};

/// Schema identifier stamped into both export headers and pinned by
/// `docs/trace.schema.json`.
pub const TRACE_SCHEMA: &str = "cbm-trace-v1";

/// Human names for the chaos fault codes carried in the `a` field of
/// [`SpanKind::Fault`] spans.
pub(crate) const FAULT_NAMES: [&str; 7] = [
    "drop",
    "dup",
    "park",
    "release",
    "prune",
    "delay",
    "crash_discard",
];

/// Name of a fault code (`"fault_<code>"`-free: unknown codes render
/// as `"unknown"`).
pub(crate) fn fault_name(code: u64) -> &'static str {
    FAULT_NAMES.get(code as usize).copied().unwrap_or("unknown")
}

fn jsonl_line(out: &mut String, s: &Span) {
    let _ = write!(
        out,
        "{{\"epoch\": {}, \"kind\": \"{}\", \"worker\": {}, \"logical\": {}, \
         \"peer\": {}, \"shard\": {}, \"a\": {}, \"b\": {}, \"flag\": {}}}",
        s.epoch,
        s.kind.name(),
        s.worker,
        s.logical,
        s.peer,
        s.shard,
        s.a,
        s.b,
        s.flag
    );
}

/// Render the deterministic logical timeline as JSONL: a header object
/// (`schema`, `workers`, `seed`, `spans`, `dropped`) followed by one
/// object per span in timeline order. Byte-identical across runs at
/// fixed `(config, seed)`.
pub fn jsonl(rec: &FlightRecord) -> String {
    let mut out = String::with_capacity(64 + rec.spans.len() * 128);
    let _ = writeln!(
        out,
        "{{\"schema\": \"{}\", \"workers\": {}, \"seed\": {}, \"spans\": {}, \"dropped\": {}}}",
        TRACE_SCHEMA,
        rec.workers,
        rec.seed,
        rec.spans.len(),
        rec.dropped
    );
    for s in &rec.spans {
        jsonl_line(&mut out, s);
        out.push('\n');
    }
    out
}

fn chrome_args(out: &mut String, s: &Span) {
    let _ = write!(
        out,
        "{{\"epoch\": {}, \"logical\": {}, \"peer\": {}, \"shard\": {}, \"a\": {}, \
         \"b\": {}, \"flag\": {}",
        s.epoch, s.logical, s.peer, s.shard, s.a, s.b, s.flag
    );
    if s.kind == SpanKind::Fault {
        let _ = write!(out, ", \"fault\": \"{}\"", fault_name(s.a));
    }
    if !s.vc.is_empty() {
        out.push_str(", \"vc\": [");
        for (i, v) in s.vc.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push('}');
}

/// Render the flight record in Chrome trace event format. Spans with a
/// duration become complete (`"ph": "X"`) events; instantaneous spans
/// become thread-scoped instant (`"ph": "i"`) events. Worker ids map
/// to `tid` lanes (named via metadata events); wall times map to
/// microsecond `ts`/`dur`.
pub fn chrome_json(rec: &FlightRecord) -> String {
    let mut out = String::with_capacity(256 + rec.spans.len() * 256);
    out.push_str("{\"traceEvents\": [\n");
    let _ = write!(
        out,
        "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
         \"args\": {{\"name\": \"cbm-store\"}}}}"
    );
    for w in 0..=rec.workers {
        let label = if w == rec.workers {
            "verifier".to_string()
        } else {
            format!("worker {w}")
        };
        let _ = write!(
            out,
            ",\n  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {w}, \
             \"args\": {{\"name\": \"{label}\"}}}}"
        );
    }
    for s in &rec.spans {
        let ts_us = s.wall_ns as f64 / 1000.0;
        if s.dur_ns > 0 {
            let dur_us = (s.dur_ns as f64 / 1000.0).max(0.001);
            let _ = write!(
                out,
                ",\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {ts_us:.3}, \"dur\": {dur_us:.3}, \"args\": ",
                s.kind.name(),
                s.worker
            );
        } else {
            let _ = write!(
                out,
                ",\n  {{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {ts_us:.3}, \"args\": ",
                s.kind.name(),
                s.worker
            );
        }
        chrome_args(&mut out, s);
        out.push('}');
    }
    let _ = write!(
        out,
        "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"schema\": \"{}\", \
         \"workers\": {}, \"seed\": {}, \"dropped\": {}}}}}\n",
        TRACE_SCHEMA, rec.workers, rec.seed, rec.dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FlightRecord, Span, SpanKind};

    fn record() -> FlightRecord {
        let mut flush = Span::new(SpanKind::BatchFlush, 0, 0, 1);
        flush.peer = 1;
        flush.vc = vec![1, 0];
        flush.wall_ns = 1500;
        let mut op = Span::new(SpanKind::Op, 1, 0, 0);
        op.a = 7;
        op.dur_ns = 250;
        FlightRecord::assemble(2, 42, vec![(vec![flush, op], 0)])
    }

    #[test]
    fn jsonl_has_header_and_fixed_fields() {
        let text = jsonl(&record());
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"schema\": \"cbm-trace-v1\""));
        assert!(header.contains("\"workers\": 2"));
        assert!(header.contains("\"spans\": 2"));
        let first = lines.next().unwrap();
        assert!(
            first.starts_with("{\"epoch\": 0, \"kind\": \"op\""),
            "{first}"
        );
        // The nondeterministic fields must not leak into JSONL.
        assert!(!text.contains("vc"));
        assert!(!text.contains("wall"));
    }

    #[test]
    fn jsonl_is_deterministic_for_equal_records() {
        assert_eq!(jsonl(&record()), jsonl(&record()));
    }

    #[test]
    fn chrome_json_carries_vc_and_lanes() {
        let text = chrome_json(&record());
        assert!(text.contains("\"traceEvents\""));
        assert!(text.contains("\"vc\": [1, 0]"));
        assert!(text.contains("\"name\": \"verifier\""));
        assert!(text.contains("\"ph\": \"X\""));
        assert!(text.contains("\"ph\": \"i\""));
    }

    #[test]
    fn fault_names_cover_codes() {
        assert_eq!(fault_name(0), "drop");
        assert_eq!(fault_name(6), "crash_discard");
        assert_eq!(fault_name(99), "unknown");
    }
}
