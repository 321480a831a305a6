#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! `crh-lint`: an in-tree invariant linter for the CRH workspace.
//!
//! The workspace's correctness rests on invariants the compiler cannot
//! see: acks only after quorum fsync, chaos and failover simulations
//! that must be bit-identically replayable, and daemon hot paths that
//! must never panic. `crh-lint` enforces them statically, offline, and
//! with zero dependencies — a hand-rolled lexer ([`lexer`]) feeds
//! lexical rules ([`lints`]), and a tiny walker applies them to every
//! `.rs` file in the workspace.
//!
//! Suppression is deliberate and auditable: an inline
//! `// crh-lint: allow(<id>) — <justification>` pragma with a mandatory
//! justification, covering its own line and the next. `--format json`
//! emits a machine-readable report for CI.
//!
//! Lint ids and the invariants they guard are documented in
//! `DESIGN.md` §9.

pub mod lexer;
pub mod lints;

pub use lints::{known_lint, lint_source, Finding, Scope, LINTS};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "fixtures", "node_modules"];

/// Recursively collect every `.rs` file under `root`, skipping build
/// output, VCS metadata, and the linter's own fixture corpus.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// One in-memory source file handed to [`lint_files`]: its
/// workspace-relative path (rule scoping is path-derived) and content.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Full file content.
    pub src: String,
}

/// Read every `.rs` file under `root` into [`SourceFile`]s, sorted by
/// path.
pub fn read_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        files.push(SourceFile { rel, src });
    }
    Ok(files)
}

/// The per-file lexical lints over every file (unsorted).
pub fn lint_lexical(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        findings.extend(lint_source(&f.rel, &f.src));
    }
    findings
}

/// Lint a set of in-memory files, sorted by (file, line, lint id).
/// This is the engine behind [`lint_workspace`]; integration tests feed
/// it fixture sources under synthetic paths.
pub fn lint_files(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = lint_lexical(files);
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}

/// Lint every `.rs` file under `root`, returning findings sorted by
/// (file, line, lint id).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_files(&read_workspace(root)?))
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render findings as the machine-readable CI report.
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            json_escape(f.lint),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!("  ],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

/// Render findings as human-readable terminal diagnostics.
pub fn to_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.lint, f.message
        ));
    }
    if findings.is_empty() {
        out.push_str("crh-lint: no findings\n");
    } else {
        out.push_str(&format!(
            "crh-lint: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`; falls back to `start` itself.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return start.to_path_buf(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let f = vec![Finding {
            lint: "panic-unwrap",
            file: "a\"b.rs".into(),
            line: 3,
            message: "line1\nline2".into(),
        }];
        let j = to_json(&f);
        assert!(j.contains(r#"\"b.rs"#));
        assert!(j.contains(r"line1\nline2"));
        assert!(j.contains("\"count\": 1"));
    }

    #[test]
    fn empty_report_is_valid() {
        let j = to_json(&[]);
        assert!(j.contains("\"count\": 0"));
    }
}
