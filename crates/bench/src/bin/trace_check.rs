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

use cbm_bench::flags::{usage_error, Flags};
use cbm_bench::json::{parse_prefix, Json};
use cbm_obs::export::TRACE_SCHEMA;
use cbm_obs::SpanKind;
use std::process::ExitCode;

const USAGE: &str = "trace_check [--schema PATH] FILE...";

/// One exported line as a JSON value, its trailing comma (if any)
/// ignored.
fn parse_line(line: &str) -> Option<Json> {
    parse_prefix(line).map(|(v, _)| v)
}

/// Field `key` of `obj` read as `T` (a number or a boolean).
fn lit<T: std::str::FromStr>(obj: &Json, key: &str) -> Option<T> {
    obj.get(key)?.lit()
}

/// Field `key` of `obj` as a string.
fn string<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key)?.as_str()
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
    let header = parse_line(header).unwrap_or(Json::Obj(vec![]));
    match string(&header, "schema") {
        Some(s) if s == TRACE_SCHEMA => {}
        Some(s) => errs.push(format!("{path}: schema '{s}', expected '{TRACE_SCHEMA}'")),
        None => errs.push(format!("{path}: header missing 'schema'")),
    }
    let workers = match lit::<u64>(&header, "workers") {
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
    let declared = lit::<u64>(&header, "spans");
    if declared.is_none() {
        errs.push(format!("{path}: header missing 'spans'"));
    }
    if lit::<u64>(&header, "dropped").is_none() {
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
        let Some(span) = parse_line(line) else {
            errs.push(format!("{path}:{lno}: not a JSON object"));
            continue;
        };
        let kind = string(&span, "kind");
        let rank = match kind.and_then(kind_rank) {
            Some(r) => r,
            None => {
                errs.push(format!("{path}:{lno}: unknown kind {:?}", kind));
                continue;
            }
        };
        let (Some(epoch), Some(worker), Some(logical), Some(a), Some(b)) = (
            lit::<u64>(&span, "epoch"),
            lit::<u64>(&span, "worker"),
            lit::<u64>(&span, "logical"),
            lit::<u64>(&span, "a"),
            lit::<u64>(&span, "b"),
        ) else {
            errs.push(format!("{path}:{lno}: missing numeric field"));
            continue;
        };
        let (Some(peer), Some(shard)) = (lit::<i64>(&span, "peer"), lit::<i64>(&span, "shard"))
        else {
            errs.push(format!("{path}:{lno}: missing peer/shard"));
            continue;
        };
        let Some(flag) = lit::<bool>(&span, "flag") else {
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
        let Some(event) = parse_line(t) else {
            errs.push(format!("{path}:{lno}: not a JSON object"));
            continue;
        };
        let Some(ph) = string(&event, "ph") else {
            errs.push(format!("{path}:{lno}: event without 'ph'"));
            continue;
        };
        match ph {
            "M" => {}
            "X" => {
                if event.get("ts").is_none() || event.get("dur").is_none() {
                    errs.push(format!("{path}:{lno}: complete event missing ts/dur"));
                }
            }
            "i" => {
                if event.get("ts").is_none() {
                    errs.push(format!("{path}:{lno}: instant event missing ts"));
                }
            }
            other => errs.push(format!("{path}:{lno}: unexpected phase '{other}'")),
        }
        if ph == "M" {
            continue;
        }
        let name = string(&event, "name");
        if name.and_then(kind_rank).is_none() {
            errs.push(format!("{path}:{lno}: event name is not a span kind"));
        }
        if matches!(name, Some("op" | "read_route")) && ph != "X" {
            errs.push(format!(
                "{path}:{lno}: {} span without a duration (traced but untimed)",
                name.unwrap_or_default()
            ));
        }
    }
    errs
}

fn main() -> ExitCode {
    let mut args = Flags::from_env(USAGE);
    let mut files: Vec<String> = Vec::new();
    let mut schema_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--schema" => schema_path = Some(args.value(&a, "a path")),
            f if !f.starts_with('-') => files.push(a.clone()),
            other => args.other(other),
        }
    }
    if files.is_empty() {
        usage_error(format!("trace_check: no files given ({USAGE})"));
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
