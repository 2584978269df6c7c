//! The deterministic gate: a committed baseline document whose exact
//! counts a run must reproduce.
//!
//! Counts such as `msgs_sent` or a checker cell's search `nodes` are
//! pure functions of `(config, seed)`, so a gate compares them across
//! machines without tolerance for noise. The baseline loads before any
//! work runs: a missing, unparsable or row-less file is an operator
//! error that exits 2 at once, never a panic and never a surprise after
//! minutes of legs.

use crate::flags::usage_error;
use crate::json::{parse, Json};
use std::collections::HashMap;

/// The rows of a committed baseline, by key.
pub struct Gate {
    /// The baseline file, named in every gate message.
    pub path: String,
    doc: Json,
    rows: HashMap<String, Json>,
}

impl Gate {
    /// Load the rows of the array field `array` of the document at
    /// `path`, keyed by `key`; exits 2 if there are none.
    pub fn load(path: &str, array: &str, key: impl Fn(&Json) -> Option<String>) -> Gate {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage_error(format!("cannot read gate baseline {path}: {e}")));
        let doc = parse(&text).unwrap_or(Json::Obj(vec![]));
        let rows: HashMap<String, Json> = doc
            .get(array)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|r| Some((key(r)?, r.clone())))
            .collect();
        if rows.is_empty() {
            usage_error(format!(
                "gate baseline {path} has no \"{array}\" rows — not a document this binary writes?"
            ));
        }
        Gate {
            path: path.to_string(),
            doc,
            rows,
        }
    }

    /// The strings of the document's array field `field` (none if the
    /// document lacks it).
    pub fn strings(&self, field: &str) -> Vec<String> {
        let items = self.doc.get(field).map(Json::items).unwrap_or_default();
        items
            .iter()
            .filter_map(|v| Some(v.as_str()?.into()))
            .collect()
    }

    /// Column `col` of row `key` as a count ([`Json::count`]), if the
    /// baseline has both.
    pub fn count(&self, key: &str, col: &str) -> Option<u64> {
        self.rows.get(key)?.get(col)?.count()
    }

    /// Hold a run's `(column, value)` counts against row `key`: `None`
    /// if the baseline has no such row, else one `column got (baseline
    /// want)` line per column where `ok(got, want)` fails. A column the
    /// row lacks is not gated, so baselines older than a column still
    /// load.
    pub fn deviations(
        &self,
        key: &str,
        got: &[(&str, u64)],
        ok: impl Fn(u64, u64) -> bool,
    ) -> Option<Vec<String>> {
        self.rows.get(key)?;
        let off = got.iter().filter_map(|&(col, g)| {
            let want = self.count(key, col)?;
            (!ok(g, want)).then(|| format!("{col} {g} (baseline {want})"))
        });
        Some(off.collect())
    }

    /// Hold a run's counts to row `key` exactly: `None` if every
    /// column reproduces, else the one-line problem — the row is
    /// missing, or which columns deviate.
    pub fn exact(&self, key: &str, got: &[(&str, u64)]) -> Option<String> {
        match self.deviations(key, got, |g, want| g == want) {
            None => Some(format!(
                "missing from {} — regenerate the committed baseline",
                self.path
            )),
            Some(off) if off.is_empty() => None,
            Some(off) => Some(format!(
                "deterministic counts deviate from {}: {}",
                self.path,
                off.join(", ")
            )),
        }
    }
}
