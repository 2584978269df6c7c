//! Documentation link checker: every relative markdown link in the
//! repo's top-level docs resolves to a real file, and every `#anchor`
//! fragment matches a heading in its target (GitHub slug rules). This
//! is the CI guard against cross-link drift — docs here name each
//! other heavily (`docs/ARCHITECTURE.md` is the hub), and renames
//! rot silently without it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The checked set: the root README plus everything under `docs/`.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("README.md"), root.join("ROADMAP.md")];
    let docs = root.join("docs");
    let mut entries: Vec<_> = std::fs::read_dir(&docs)
        .expect("docs/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    entries.sort();
    files.extend(entries);
    files.retain(|p| p.exists());
    files
}

/// GitHub heading → anchor slug: lowercase, drop everything but
/// alphanumerics/spaces/hyphens, spaces to hyphens.
fn slug(heading: &str) -> String {
    let mut s = String::new();
    for c in heading.trim().chars() {
        if c.is_alphanumeric() {
            s.extend(c.to_lowercase());
        } else if c == ' ' || c == '-' {
            s.push(if c == ' ' { '-' } else { c });
        }
    }
    s
}

/// Headings of a markdown file (outside fenced code blocks), as slugs
/// with GitHub's `-1`, `-2` duplicate suffixes.
fn anchors(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced || !line.starts_with('#') {
            continue;
        }
        let heading = line.trim_start_matches('#');
        if !line[..line.len() - heading.len()].chars().all(|c| c == '#') {
            continue;
        }
        let base = slug(&heading.replace('`', ""));
        let n = counts.entry(base.clone()).or_insert(0);
        out.push(if *n == 0 {
            base.clone()
        } else {
            format!("{base}-{n}")
        });
        *n += 1;
    }
    out
}

/// Extract `[text](target)` links outside fenced code blocks and
/// inline code spans.
fn links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_code = false;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b'[' if !in_code => {
                    if let Some(close) = line[i..].find("](") {
                        let start = i + close + 2;
                        if let Some(end) = line[start..].find(')') {
                            let target = &line[start..start + end];
                            if !target.contains(' ') {
                                out.push(target.to_string());
                            }
                            i = start + end;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

#[test]
fn all_relative_links_and_anchors_resolve() {
    let root = repo_root();
    let files = doc_files(&root);
    assert!(
        files.len() >= 10,
        "expected README + ROADMAP + docs/*, found {files:?}"
    );
    let mut broken: Vec<String> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read doc");
        let dir = file.parent().unwrap();
        for link in links(&text) {
            if link.starts_with("http://")
                || link.starts_with("https://")
                || link.starts_with("mailto:")
            {
                continue;
            }
            let (path_part, frag) = match link.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (link.as_str(), None),
            };
            let target = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            let display = format!("{}: ({link})", file.strip_prefix(&root).unwrap().display());
            let Ok(target) = target.canonicalize() else {
                broken.push(format!("{display} — no such file"));
                continue;
            };
            if let Some(frag) = frag {
                if target.extension().is_some_and(|e| e == "md") {
                    let ttext = std::fs::read_to_string(&target).expect("read target");
                    if !anchors(&ttext).iter().any(|a| a == frag) {
                        broken.push(format!("{display} — no heading for #{frag}"));
                    }
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken doc links:\n{}",
        broken.join("\n")
    );
}

/// The which-doc table in `docs/ARCHITECTURE.md` must name every doc
/// in `docs/` — a new doc without a hub entry is drift by definition.
#[test]
fn architecture_hub_names_every_doc() {
    let root = repo_root();
    let hub = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md"))
        .expect("docs/ARCHITECTURE.md is the navigation hub");
    let mut missing = Vec::new();
    for doc in doc_files(&root) {
        let name = doc.file_name().unwrap().to_string_lossy().into_owned();
        if name == "ARCHITECTURE.md" || !doc.starts_with(root.join("docs")) {
            continue;
        }
        if !hub.contains(&name) {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "docs missing from the ARCHITECTURE.md which-doc table: {missing:?}"
    );
}

/// Every doc under `docs/` links back to the hub, so navigation works
/// from any entry point.
#[test]
fn every_doc_links_back_to_the_hub() {
    let root = repo_root();
    let mut missing = Vec::new();
    for doc in doc_files(&root) {
        if !doc.starts_with(root.join("docs")) || doc.file_name().unwrap() == "ARCHITECTURE.md" {
            continue;
        }
        let text = std::fs::read_to_string(&doc).expect("read doc");
        if !text.contains("ARCHITECTURE.md") {
            missing.push(doc.file_name().unwrap().to_string_lossy().into_owned());
        }
    }
    assert!(
        missing.is_empty(),
        "docs without a link back to docs/ARCHITECTURE.md: {missing:?}"
    );
}

/// Every `*.md` path a Rust source names — in a doc comment, a code
/// comment or a printed string — resolves from the repo root or from
/// `docs/`. Sources cite the docs as often as the docs cite each
/// other, and a renamed or never-written doc rots there just as
/// silently.
#[test]
fn rust_sources_name_only_existing_docs() {
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries {
            let p = e.expect("dir entry").path();
            if p.is_dir() {
                rust_files(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ directory");
    for krate in crates {
        rust_files(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    files.sort();
    assert!(
        files.len() >= 50,
        "expected the workspace sources, found {}",
        files.len()
    );

    let path_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("read source");
        for (n, line) in text.lines().enumerate() {
            for (at, _) in line.match_indices(".md") {
                let end = at + 3;
                if line[end..].chars().next().is_some_and(path_char) {
                    continue;
                }
                let start = line[..at]
                    .rfind(|c: char| !path_char(c))
                    .map_or(0, |i| i + 1);
                let name = &line[start..end];
                if name == ".md" || name.starts_with("*.") {
                    continue;
                }
                if !root.join(name).is_file() && !root.join("docs").join(name).is_file() {
                    let at = file.strip_prefix(&root).unwrap().display();
                    broken.push(format!("{at}:{}: {name}", n + 1));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "Rust sources name docs that do not exist:\n{}",
        broken.join("\n")
    );
}

/// The one fault-scenario table (`docs/CHAOS.md`, "Fault scenarios")
/// lists the catalogue exactly: every `cbm_net::fault::CATALOGUE`
/// name, in catalogue order, and its "live engine" column says whether
/// the plan's crashes fall on epoch boundaries.
#[test]
fn the_scenario_table_lists_the_fault_catalogue() {
    let text = std::fs::read_to_string(repo_root().join("docs/CHAOS.md")).expect("docs/CHAOS.md");
    let section = text
        .split("\n## Fault scenarios\n")
        .nth(1)
        .expect("a \"Fault scenarios\" section")
        .split("\n## ")
        .next()
        .unwrap();
    let rows: Vec<(String, String)> = section
        .lines()
        .filter_map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
            Some((name.to_string(), cells.get(3)?.to_string()))
        })
        .collect();
    let e = 500;
    let want: Vec<(String, String)> = cbm_net::fault::CATALOGUE
        .iter()
        .map(|p| {
            let live = (p.build)(4, e).crashes_on_epochs(e);
            (p.name.to_string(), (if live { "yes" } else { "no" }).into())
        })
        .collect();
    assert_eq!(
        rows, want,
        "docs/CHAOS.md's scenario table drifted from the catalogue"
    );
}
