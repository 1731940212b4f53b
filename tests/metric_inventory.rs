//! The metric inventory in `docs/OBSERVABILITY.md` is the contract for
//! every name the workspace records. This test scans the library sources
//! of every crate (`crates/*/src/**/*.rs`) for the string literal passed
//! to `obs::span`, `obs::time`, `obs::counter_add`, `obs::gauge_set` and
//! `obs::observe`, checks each name against the documented
//! `<crate>.<stage>[.<metric>]` grammar, and diffs the names both ways
//! against the "Current inventory" table: an emitted name without a row
//! fails, and so does a row that no call site emits. Doc comments and
//! `#[cfg(test)]` modules are skipped; they record throwaway `demo.*` and
//! `benchtest.*` names.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const RECORDERS: [&str; 5] = ["span", "time", "counter_add", "gauge_set", "observe"];

/// Pipeline-level namespaces the grammar allows besides crate names.
const NAMESPACES: [&str; 2] = ["scenario", "fleet"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The source with comment lines and `#[cfg(test)]` modules removed.
/// rustfmt closes a module with a `}` at the indentation of its `mod`
/// line, which is where a skipped module ends.
fn library_code(source: &str) -> String {
    let mut code = String::new();
    let mut lines = source.lines().peekable();
    while let Some(line) = lines.next() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if trimmed == "#[cfg(test)]" {
            if let Some(next) = lines.peek() {
                let item = next.trim_start();
                if item.starts_with("mod ") && item.ends_with('{') {
                    let close = format!("{}}}", &next[..next.len() - item.len()]);
                    lines.by_ref().find(|l| *l == close);
                    continue;
                }
            }
        }
        code.push_str(line);
        code.push('\n');
    }
    code
}

/// Every `obs::<recorder>("name"` in `code`, as `(name, call)` pairs.
fn recorded_names(code: &str, file: &Path) -> Vec<(String, String)> {
    let mut names = Vec::new();
    for (at, _) in code.match_indices("obs::") {
        let rest = &code[at + "obs::".len()..];
        let Some(recorder) = RECORDERS
            .iter()
            .find(|r| rest.strip_prefix(*r).is_some_and(|a| a.starts_with('(')))
        else {
            continue;
        };
        let args = rest[recorder.len() + 1..].trim_start();
        let name = args
            .strip_prefix('"')
            .and_then(|a| a.split_once('"'))
            .map(|(name, _)| name)
            .unwrap_or_else(|| {
                panic!(
                    "{}: obs::{recorder} must name its metric with a string literal",
                    file.display()
                )
            });
        names.push((name.to_string(), format!("obs::{recorder}")));
    }
    names
}

/// The backticked names in the first column of the inventory table.
fn documented_names(doc: &str) -> Vec<String> {
    let table = doc
        .split_once("Current inventory:")
        .expect("OBSERVABILITY.md has a \"Current inventory:\" table")
        .1;
    let rows: Vec<&str> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .collect();
    assert!(!rows.is_empty(), "the inventory table has no rows");
    rows.iter()
        .flat_map(|row| {
            let first = row.split('|').nth(1).expect("a first column");
            first
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Whether a documented name (segments like `<detector>` match any one
/// segment) covers an emitted name.
fn matches(documented: &str, emitted: &str) -> bool {
    let (doc, got): (Vec<&str>, Vec<&str>) = (
        documented.split('.').collect(),
        emitted.split('.').collect(),
    );
    doc.len() == got.len()
        && doc
            .iter()
            .zip(&got)
            .all(|(d, g)| d == g || (d.starts_with('<') && d.ends_with('>')))
}

fn is_segment(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

#[test]
fn every_recorded_metric_is_documented_and_every_documented_metric_is_recorded() {
    let crates_dir = root().join("crates");
    let mut crate_names = BTreeSet::new();
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates_dir).expect("crates/") {
        let dir = entry.expect("dir entry").path();
        crate_names.insert(dir.file_name().unwrap().to_string_lossy().into_owned());
        if dir.join("src").is_dir() {
            rust_files(&dir.join("src"), &mut files);
        }
    }

    let mut emitted: BTreeSet<String> = BTreeSet::new();
    let mut bad_grammar = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("readable source");
        for (name, call) in recorded_names(&library_code(&source), file) {
            let segments: Vec<&str> = name.split('.').collect();
            let grammatical = (2..=3).contains(&segments.len())
                && segments.iter().all(|s| is_segment(s))
                && (crate_names.contains(segments[0]) || NAMESPACES.contains(&segments[0]));
            if !grammatical {
                bad_grammar.push(format!("{name} ({call} in {})", file.display()));
            }
            emitted.insert(name);
        }
    }
    assert!(
        emitted.len() > 50,
        "the scan found only {} names",
        emitted.len()
    );
    assert!(
        bad_grammar.is_empty(),
        "names outside the <crate>.<stage>[.<metric>] grammar: {bad_grammar:#?}"
    );

    let doc = fs::read_to_string(root().join("docs/OBSERVABILITY.md")).expect("the doc");
    let documented = documented_names(&doc);
    let undocumented: Vec<&String> = emitted
        .iter()
        .filter(|e| !documented.iter().any(|d| matches(d, e)))
        .collect();
    let unrecorded: Vec<&String> = documented
        .iter()
        .filter(|d| !emitted.iter().any(|e| matches(d, e)))
        .collect();
    assert!(
        undocumented.is_empty() && unrecorded.is_empty(),
        "docs/OBSERVABILITY.md's inventory is out of date.\n\
         recorded but not documented: {undocumented:#?}\n\
         documented but never recorded: {unrecorded:#?}"
    );
}
