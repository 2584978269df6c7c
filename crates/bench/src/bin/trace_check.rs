//! Validate flight-recorder exports against the `cbm-trace-v1` schema.
//!
//! ```text
//! trace_check [--schema PATH] FILE...
//! ```
//!
//! Each `FILE` is dispatched by suffix: `*.jsonl` files are checked as
//! deterministic logical timelines, `*.trace.json` (or any other
//! `*.json`) as Chrome trace event documents. The checks mirror the
//! checked-in `docs/trace.schema.json` (pass `--schema` to point at a
//! copy; the file's pinned schema id must match the binary's):
//!
//! * **JSONL** — header object carries `schema` = `cbm-trace-v1`,
//!   `workers` ≥ 1, and a `spans` count equal to the number of span
//!   lines that follow; every span line carries exactly the
//!   deterministic fields (`epoch`, `kind`, `worker`, `logical`,
//!   `peer`, `shard`, `a`, `b`, `flag`), the `kind` is one of the
//!   eleven span kinds, the lane fits the worker count (the verifier uses
//!   lane `workers`), and lines are sorted by the timeline key — the
//!   order `cbm_obs` seals, which is what makes two runs at the same
//!   `(config, seed)` byte-comparable. Nondeterministic fields (`vc`,
//!   wall times) must **not** appear.
//! * **Chrome JSON** — the document opens a `traceEvents` array,
//!   carries `process_name`/`thread_name` metadata for every lane plus
//!   the verifier, stamps the schema id in `otherData`, and every
//!   event line is a metadata (`"M"`), complete (`"X"`, with
//!   `ts`/`dur`), or instant (`"i"`) event. Every `op` and
//!   `read_route` span has `dur > 0`, i.e. is a complete event: the op
//!   clock times only the ops it samples, and the ones the tracer
//!   samples must be among them — a traced-but-untimed op would
//!   otherwise export as an instant and pass silently.
//!
//! Exit status: non-zero iff any file fails validation — the CI
//! `obs-smoke` job runs this over the artifacts `loadgen --quick
//! --trace` produced.

use cbm_bench::{field_str, field_u64};
use cbm_obs::export::TRACE_SCHEMA;
use cbm_obs::SpanKind;
use std::process::ExitCode;

/// `"key": -3` on a line (signed twin of `cbm_bench::field_u64`).
fn field_i64(line: &str, key: &str) -> Option<i64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let digits: String = rest
        .chars()
        .enumerate()
        .take_while(|(i, c)| c.is_ascii_digit() || (*i == 0 && *c == '-'))
        .map(|(_, c)| c)
        .collect();
    digits.parse().ok()
}

/// `"key": true|false` on a line.
fn field_bool(line: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Timeline rank of a kind name — the seal order spans are emitted in.
fn kind_rank(name: &str) -> Option<usize> {
    SpanKind::ALL.iter().position(|k| k.name() == name)
}

fn check_jsonl(path: &str, text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return vec![format!("{path}: empty file")];
    };
    match field_str(header, "schema") {
        Some(s) if s == TRACE_SCHEMA => {}
        Some(s) => errs.push(format!("{path}: schema '{s}', expected '{TRACE_SCHEMA}'")),
        None => errs.push(format!("{path}: header missing 'schema'")),
    }
    let workers = match field_u64(header, "workers") {
        Some(w) if w >= 1 => w,
        Some(w) => {
            errs.push(format!("{path}: implausible workers {w}"));
            w
        }
        None => {
            errs.push(format!("{path}: header missing 'workers'"));
            0
        }
    };
    let declared = field_u64(header, "spans");
    if declared.is_none() {
        errs.push(format!("{path}: header missing 'spans'"));
    }
    if field_u64(header, "dropped").is_none() {
        errs.push(format!("{path}: header missing 'dropped'"));
    }

    // the timeline sort key of one parsed span line
    type Key = (u64, usize, u64, i64, u64, i64, u64, u64, bool);

    let mut count = 0u64;
    let mut prev_key: Option<Key> = None;
    for (i, line) in lines.enumerate() {
        let lno = i + 2;
        count += 1;
        if line.contains("\"vc\"") || line.contains("wall") || line.contains("dur") {
            errs.push(format!(
                "{path}:{lno}: nondeterministic field leaked into the logical timeline"
            ));
        }
        let kind = field_str(line, "kind");
        let rank = match kind.as_deref().and_then(kind_rank) {
            Some(r) => r,
            None => {
                errs.push(format!("{path}:{lno}: unknown kind {:?}", kind));
                continue;
            }
        };
        let (Some(epoch), Some(worker), Some(logical), Some(a), Some(b)) = (
            field_u64(line, "epoch"),
            field_u64(line, "worker"),
            field_u64(line, "logical"),
            field_u64(line, "a"),
            field_u64(line, "b"),
        ) else {
            errs.push(format!("{path}:{lno}: missing numeric field"));
            continue;
        };
        let (Some(peer), Some(shard)) = (field_i64(line, "peer"), field_i64(line, "shard")) else {
            errs.push(format!("{path}:{lno}: missing peer/shard"));
            continue;
        };
        let Some(flag) = field_bool(line, "flag") else {
            errs.push(format!("{path}:{lno}: missing flag"));
            continue;
        };
        // lane `workers` is the verifier
        if worker > workers {
            errs.push(format!(
                "{path}:{lno}: worker {worker} out of range (workers = {workers})"
            ));
        }
        let key = (epoch, rank, worker, peer, logical, shard, a, b, flag);
        if let Some(p) = prev_key {
            if key < p {
                errs.push(format!("{path}:{lno}: spans out of timeline order"));
            }
        }
        prev_key = Some(key);
    }
    if let Some(d) = declared {
        if d != count {
            errs.push(format!(
                "{path}: header declares {d} spans, found {count} lines"
            ));
        }
    }
    errs
}

fn check_chrome(path: &str, text: &str) -> Vec<String> {
    let mut errs = Vec::new();
    if !text.trim_start().starts_with("{\"traceEvents\": [") {
        errs.push(format!("{path}: does not open a traceEvents array"));
    }
    if !text.contains(&format!("\"schema\": \"{TRACE_SCHEMA}\"")) {
        errs.push(format!("{path}: otherData does not pin '{TRACE_SCHEMA}'"));
    }
    if !text.contains("\"displayTimeUnit\"") {
        errs.push(format!("{path}: missing displayTimeUnit"));
    }
    if !text.contains("\"name\": \"process_name\"") || !text.contains("\"name\": \"verifier\"") {
        errs.push(format!("{path}: missing lane metadata events"));
    }
    for (i, line) in text.lines().enumerate().skip(1) {
        let t = line.trim().trim_start_matches(',');
        if !t.starts_with('{') {
            continue; // the trailer line
        }
        let lno = i + 1;
        let Some(ph) = field_str(t, "ph") else {
            errs.push(format!("{path}:{lno}: event without 'ph'"));
            continue;
        };
        match ph.as_str() {
            "M" => {}
            "X" => {
                if !t.contains("\"ts\": ") || !t.contains("\"dur\": ") {
                    errs.push(format!("{path}:{lno}: complete event missing ts/dur"));
                }
            }
            "i" => {
                if !t.contains("\"ts\": ") {
                    errs.push(format!("{path}:{lno}: instant event missing ts"));
                }
            }
            other => errs.push(format!("{path}:{lno}: unexpected phase '{other}'")),
        }
        if ph == "M" {
            continue;
        }
        let name = field_str(t, "name");
        if name.as_deref().and_then(kind_rank).is_none() {
            errs.push(format!("{path}:{lno}: event name is not a span kind"));
        }
        if matches!(name.as_deref(), Some("op" | "read_route")) && ph != "X" {
            errs.push(format!(
                "{path}:{lno}: {} span without a duration (traced but untimed)",
                name.unwrap_or_default()
            ));
        }
    }
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut schema_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--schema" => match it.next() {
                Some(p) => schema_path = Some(p.clone()),
                None => {
                    eprintln!("--schema needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("trace_check [--schema PATH] FILE...");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag '{other}'");
                return ExitCode::from(2);
            }
            f => files.push(f.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("trace_check: no files given (trace_check [--schema PATH] FILE...)");
        return ExitCode::from(2);
    }

    let mut errs: Vec<String> = Vec::new();
    if let Some(p) = schema_path {
        match std::fs::read_to_string(&p) {
            Ok(s) if s.contains(TRACE_SCHEMA) => {}
            Ok(_) => errs.push(format!(
                "{p}: schema document does not pin '{TRACE_SCHEMA}'"
            )),
            Err(e) => errs.push(format!("{p}: cannot read schema document: {e}")),
        }
    }
    let mut checked = 0usize;
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                errs.push(format!("{f}: cannot read: {e}"));
                continue;
            }
        };
        checked += 1;
        if f.ends_with(".jsonl") {
            errs.extend(check_jsonl(f, &text));
        } else {
            errs.extend(check_chrome(f, &text));
        }
    }

    if errs.is_empty() {
        println!("trace_check: {checked} file(s) valid against {TRACE_SCHEMA}");
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("trace_check: {e}");
        }
        eprintln!("trace_check: {} error(s)", errs.len());
        ExitCode::FAILURE
    }
}
