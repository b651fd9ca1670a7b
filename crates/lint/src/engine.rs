//! Rule engine: file classification, `#[cfg(test)]` region tracking,
//! inline suppressions, and diagnostic rendering.
//!
//! A [`SourceFile`] is lexed once; every rule then runs over the same
//! comment-free token stream. Suppressions are ordinary comments —
//!
//! ```text
//! // oeb-lint: allow(rule-name) -- one-line justification
//! // oeb-lint: allow-file(rule-name) -- whole-file opt-out
//! ```
//!
//! — and an `allow` silences matching diagnostics on its own line and
//! the line directly below, so it works both as a trailing comment and
//! as an annotation above the offending statement.

use crate::lexer::{lex, Token, TokenKind};
use crate::parser::{parse_items, walk_items, Item};
use crate::rules::{self, Rule};

/// What kind of code a file holds; rules opt in per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/` code of a crate — the strictest surface.
    Library,
    /// Integration tests (`tests/` directory).
    Test,
    /// Criterion-style benchmarks (`benches/`).
    Bench,
    /// Example binaries (`examples/`).
    Example,
}

/// One finding, fully located and annotated. Every diagnostic is an
/// error: any one fails the check.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub snippet: String,
    pub hint: &'static str,
}

/// A lexed file plus everything rules need to judge it.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub kind: FileKind,
    /// `<name>` from `crates/<name>/…`, if the file is in a crate.
    pub crate_name: Option<String>,
    /// Comment-free token stream.
    pub tokens: Vec<Token>,
    /// Item forest parsed from [`SourceFile::tokens`] — token ranges in
    /// items index into that same vec.
    pub items: Vec<Item>,
    /// Raw source lines, for snippets.
    lines: Vec<String>,
    /// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
    test_regions: Vec<(u32, u32)>,
    /// (line, rule) pairs silenced by inline `allow` comments.
    allows: Vec<(u32, String)>,
    /// (line, rule) pairs silenced for the whole file by `allow-file`.
    file_allows: Vec<(u32, String)>,
}

impl SourceFile {
    /// Lexes `src` and precomputes test regions and suppressions.
    /// `path` must be workspace-relative (`crates/linalg/src/pca.rs`).
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let all_tokens = lex(src);
        let mut allows = Vec::new();
        let mut file_allows = Vec::new();
        for t in &all_tokens {
            if t.kind == TokenKind::Comment {
                collect_allows(t, &mut allows, &mut file_allows);
            }
        }
        let tokens: Vec<Token> = all_tokens
            .into_iter()
            .filter(|t| t.kind != TokenKind::Comment)
            .collect();
        let items = parse_items(&tokens);
        SourceFile {
            path: path.to_string(),
            kind: kind_of(path),
            crate_name: crate_of(path),
            test_regions: test_regions(&items),
            items,
            tokens,
            lines: src.lines().map(str::to_string).collect(),
            allows,
            file_allows,
        }
    }

    /// Reads and parses a file from disk.
    pub fn load(root: &std::path::Path, rel: &str) -> std::io::Result<SourceFile> {
        let src = std::fs::read_to_string(root.join(rel))?;
        Ok(SourceFile::parse(rel, &src))
    }

    /// True when `line` falls inside a `#[cfg(test)]` item or the file
    /// as a whole is test/bench/example code.
    pub fn is_test_code(&self, line: u32) -> bool {
        self.kind != FileKind::Library
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// The source text of `line` (1-based), trimmed, for snippets.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// True when a diagnostic of `rule` at `line` is silenced by an
    /// inline `allow` or a whole-file `allow-file`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.file_allows.iter().any(|(_, r)| r == rule)
            || self
                .allows
                .iter()
                .any(|(l, r)| r == rule && (*l == line || *l + 1 == line))
    }

    /// All inline `(line, rule)` suppressions, for staleness analysis.
    pub fn allow_sites(&self) -> &[(u32, String)] {
        &self.allows
    }

    /// All whole-file `(line, rule)` suppressions, for staleness analysis.
    pub fn file_allow_sites(&self) -> &[(u32, String)] {
        &self.file_allows
    }
}

/// Extracts `allow(...)` / `allow-file(...)` rule lists from a comment.
/// Doc comments (`///`, `//!`, `/**`, `/*!`) never carry suppressions —
/// they document the mechanism (this module does, for one), and a doc
/// example must not silence rules, nor count as a suppression that the
/// stale-suppression analysis would then flag.
fn collect_allows(
    t: &Token,
    allows: &mut Vec<(u32, String)>,
    file_allows: &mut Vec<(u32, String)>,
) {
    let doc = ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|p| t.text.starts_with(p));
    if doc && !t.text.starts_with("/**/") {
        return;
    }
    let Some(at) = t.text.find("oeb-lint:") else {
        return;
    };
    let rest = &t.text[at + "oeb-lint:".len()..];
    for (marker, file_level) in [("allow-file(", true), ("allow(", false)] {
        let Some(open) = rest.find(marker) else {
            continue;
        };
        let args = &rest[open + marker.len()..];
        let Some(close) = args.find(')') else {
            continue;
        };
        for rule in args[..close].split(',') {
            let rule = rule.trim().to_string();
            if rule.is_empty() {
                continue;
            }
            if file_level {
                file_allows.push((t.line, rule));
            } else {
                allows.push((t.line, rule));
            }
        }
        return;
    }
}

fn kind_of(path: &str) -> FileKind {
    // Position-based, not substring-based: `crates/x/tests/…` is a test
    // dir, a crate named `tests` would not be.
    let segs: Vec<&str> = path.split('/').collect();
    for pair in segs.windows(2) {
        let dir = pair[0];
        if dir == "tests" {
            return FileKind::Test;
        }
        if dir == "benches" {
            return FileKind::Bench;
        }
        if dir == "examples" {
            return FileKind::Example;
        }
    }
    FileKind::Library
}

fn crate_of(path: &str) -> Option<String> {
    let mut segs = path.split('/');
    if segs.next() == Some("crates") {
        segs.next().map(str::to_string)
    } else {
        None
    }
}

/// Finds line ranges of *items* annotated `#[test]`, `#[cfg(test)]`, or
/// `#[bench]` — from the item's first attribute to its last line —
/// using the parsed item forest rather than a raw token scan, so a
/// `test` identifier in an unrelated attribute position (a derive, a
/// doc string) cannot start a region and an annotated item with a
/// nested body is covered exactly.
fn test_regions(items: &[Item]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    walk_items(items, &mut |item| {
        if item.is_test_item() {
            regions.push((item.start_line, item.end_line));
        }
    });
    regions.sort_unstable();
    regions
}

/// Runs every registered rule over one file, applying suppressions.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    check_file_raw(file)
        .into_iter()
        .filter(|d| !file.suppressed(d.rule, d.line))
        .collect()
}

/// Runs every token-shape rule over one file *without* applying
/// suppressions — the input the stale-suppression analysis needs to
/// decide whether each `allow` still has a diagnostic to silence.
pub fn check_file_raw(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules::all() {
        out.extend((rule.check)(rule, file));
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Convenience used by rules to build a located diagnostic.
pub fn diag(rule: &Rule, file: &SourceFile, t: &Token, message: String) -> Diagnostic {
    Diagnostic {
        rule: rule.name,
        file: file.path.clone(),
        line: t.line,
        col: t.col,
        message,
        snippet: file.snippet(t.line),
        hint: rule.hint,
    }
}

/// Renders diagnostics as a JSON array (stable field order).
pub fn to_json(diags: &[Diagnostic]) -> serde_json::Value {
    serde_json::Value::Array(
        diags
            .iter()
            .map(|d| {
                serde_json::json!({
                    "file": d.file,
                    "line": d.line,
                    "col": d.col,
                    "rule": d.rule,
                    "severity": "error",
                    "message": d.message,
                    "snippet": d.snippet,
                    "hint": d.hint,
                })
            })
            .collect(),
    )
}

/// Renders one diagnostic for terminal output.
pub fn render_human(d: &Diagnostic, fix_hints: bool) -> String {
    let mut s = format!(
        "{}:{}:{}: error[{}]: {}\n    {}\n",
        d.file, d.line, d.col, d.rule, d.message, d.snippet
    );
    if fix_hints {
        s.push_str(&format!("    hint: {}\n", d.hint));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_kind_is_position_based() {
        assert_eq!(kind_of("crates/linalg/src/pca.rs"), FileKind::Library);
        assert_eq!(kind_of("crates/linalg/tests/proptests.rs"), FileKind::Test);
        assert_eq!(kind_of("crates/bench/benches/learners.rs"), FileKind::Bench);
        assert_eq!(kind_of("examples/demo.rs"), FileKind::Example);
        assert_eq!(kind_of("tests/integration.rs"), FileKind::Test);
    }

    #[test]
    fn crate_name_extraction() {
        assert_eq!(crate_of("crates/nn/src/mlp.rs").as_deref(), Some("nn"));
        assert_eq!(crate_of("src/lib.rs"), None);
    }

    #[test]
    fn cfg_test_regions_cover_the_mod_body() {
        let src = "pub fn lib() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let f = SourceFile::parse("crates/nn/src/x.rs", src);
        assert!(!f.is_test_code(1));
        assert!(f.is_test_code(3));
        assert!(f.is_test_code(6));
        assert!(f.is_test_code(7));
    }

    #[test]
    fn allow_comment_covers_own_and_next_line() {
        let src = "// oeb-lint: allow(some-rule) -- why\nfn a() {}\nfn b() {}\n";
        let f = SourceFile::parse("crates/nn/src/x.rs", src);
        assert!(f.suppressed("some-rule", 1));
        assert!(f.suppressed("some-rule", 2));
        assert!(!f.suppressed("some-rule", 3));
        assert!(!f.suppressed("other-rule", 2));
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// oeb-lint: allow-file(some-rule) -- demo module\nfn a() {}\n";
        let f = SourceFile::parse("crates/nn/src/x.rs", src);
        assert!(f.suppressed("some-rule", 40));
        assert!(!f.suppressed("other-rule", 2));
    }

    #[test]
    fn allow_lists_multiple_rules() {
        let src = "fn a() {} // oeb-lint: allow(rule-a, rule-b)\n";
        let f = SourceFile::parse("crates/nn/src/x.rs", src);
        assert!(f.suppressed("rule-a", 1));
        assert!(f.suppressed("rule-b", 1));
    }
}
