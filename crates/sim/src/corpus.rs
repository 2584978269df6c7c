//! The regression corpus: failing `(scenario, seed)` pairs committed
//! to the repository.
//!
//! Format (one entry per line, `#` comments and blank lines ignored):
//!
//! ```text
//! <scenario-name> <CC|CCv> <seed> [note...]
//! ```
//!
//! The second field names the mode by its criterion.
//!
//! The explorer (via `scenario_runner explore --record`) appends a
//! line whenever a sweep finds a failure; after the underlying bug is
//! fixed the entry stays forever, and the tier-1 test
//! `tests/scenarios.rs` replays every entry asserting it passes. A
//! `synthetic` note marks entries added only to exercise the replay
//! path.

use crate::scenario::parse_mode;
use cbm_check::Mode;
use std::fmt;
use std::path::Path;

/// One committed corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Catalogue name of the scenario.
    pub scenario: String,
    /// The mode it runs in.
    pub mode: Mode,
    /// Seed to replay.
    pub seed: u64,
    /// Free-form note (why it was recorded).
    pub note: String,
}

impl fmt::Display for CorpusEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = self.mode.criterion();
        write!(f, "{} {mode} {}", self.scenario, self.seed)?;
        if !self.note.is_empty() {
            write!(f, " {}", self.note)?;
        }
        Ok(())
    }
}

/// Parse corpus text. Unparseable lines are errors (the corpus is
/// hand-auditable and must stay clean).
pub(crate) fn parse(text: &str) -> Result<Vec<CorpusEntry>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let scenario = parts
            .next()
            .ok_or_else(|| format!("line {}: missing scenario", i + 1))?
            .to_string();
        let mode = parts
            .next()
            .and_then(parse_mode)
            .ok_or_else(|| format!("line {}: missing or bad mode (CC or CCv)", i + 1))?;
        let seed: u64 = parts
            .next()
            .ok_or_else(|| format!("line {}: missing seed", i + 1))?
            .parse()
            .map_err(|e| format!("line {}: bad seed: {e}", i + 1))?;
        let note = parts.collect::<Vec<_>>().join(" ");
        entries.push(CorpusEntry {
            scenario,
            mode,
            seed,
            note,
        });
    }
    Ok(entries)
}

/// Load a corpus file; a missing file is an empty corpus.
pub fn load(path: &Path) -> Result<Vec<CorpusEntry>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Append an entry to a corpus file (creating it if needed).
pub(crate) fn append(path: &Path, entry: &CorpusEntry) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{entry}").map_err(|e| format!("{}: {e}", path.display()))
}

/// Append an entry unless the corpus already replays the same
/// `(scenario, mode, seed)` triple; returns whether anything was
/// written.
///
/// The explorer records every failure of a sweep, and overlapping
/// sweeps (or re-runs of the same range) find the same pairs again —
/// without this check duplicates silently accumulate in the committed
/// corpus, bloating the tier-1 replay for zero extra coverage. Notes
/// are ignored for identity: the triple is what the replay runs.
pub fn append_unique(path: &Path, entry: &CorpusEntry) -> Result<bool, String> {
    let existing = load(path)?;
    if existing
        .iter()
        .any(|e| (&e.scenario, e.mode, e.seed) == (&entry.scenario, entry.mode, entry.seed))
    {
        return Ok(false);
    }
    append(path, entry)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_comments_and_blanks() {
        let text =
            "# corpus\n\npartition-while-writing CCv 42 synthetic smoke entry\nlossy-mesh CC 7\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].scenario, "partition-while-writing");
        assert_eq!(entries[0].mode, Mode::Convergent);
        assert_eq!(entries[0].seed, 42);
        assert_eq!(entries[0].note, "synthetic smoke entry");
        assert_eq!(entries[1].note, "");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("only-a-name").is_err());
        assert!(parse("name CC not-a-seed").is_err());
        assert!(parse("name 7").is_err(), "the mode is required");
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let e = CorpusEntry {
            scenario: "flapping-links".into(),
            mode: Mode::Causal,
            seed: 9,
            note: "found by sweep".into(),
        };
        let parsed = parse(&e.to_string()).unwrap();
        assert_eq!(parsed, vec![e]);
    }

    #[test]
    fn load_missing_file_is_empty() {
        let entries = load(Path::new("/nonexistent/corpus.txt")).unwrap();
        assert!(entries.is_empty());
    }

    #[test]
    fn append_unique_refuses_duplicates() {
        let dir = std::env::temp_dir().join(format!("cbm-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.txt");
        let _ = std::fs::remove_file(&path);
        let e = CorpusEntry {
            scenario: "lossy-mesh".into(),
            mode: Mode::Causal,
            seed: 7,
            note: "first sweep".into(),
        };
        assert!(append_unique(&path, &e).unwrap(), "fresh pair is recorded");
        // same pair again — different note must not matter
        let dup = CorpusEntry {
            note: "second sweep, same failure".into(),
            ..e.clone()
        };
        assert!(!append_unique(&path, &dup).unwrap(), "duplicate refused");
        // same scenario, new seed or new mode: recorded
        let other = CorpusEntry {
            seed: 8,
            ..e.clone()
        };
        assert!(append_unique(&path, &other).unwrap());
        let ccv = CorpusEntry {
            mode: Mode::Convergent,
            ..e
        };
        assert!(append_unique(&path, &ccv).unwrap());
        let entries = load(&path).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].note, "first sweep", "original line untouched");
        let _ = std::fs::remove_file(&path);
    }
}
