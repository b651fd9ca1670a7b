//! The per-file token rules: the two invariants neither clippy nor the
//! type system expresses (see DESIGN.md, "Static invariants", for the
//! clippy lints that hold the others). Rules are heuristic by design —
//! they match token shapes, not types — and every rule supports inline
//! `// oeb-lint: allow(<rule>)` suppression for the cases where a human
//! has judged the pattern safe.

use crate::engine::{diag, Diagnostic, FileKind, SourceFile};
use crate::lexer::{Token, TokenKind};

/// One registered rule.
pub struct Rule {
    /// Kebab-case rule id, as used in `allow(...)`.
    pub name: &'static str,
    /// The invariant the rule encodes, for `oeb-lint rules` and docs.
    pub invariant: &'static str,
    /// Fix hint attached to every diagnostic of this rule.
    pub hint: &'static str,
    pub check: fn(&Rule, &SourceFile) -> Vec<Diagnostic>,
}

/// Crates whose `src/` is held to panic-hygiene rules: numeric and
/// streaming kernels that run inside panic-isolated sweep workers,
/// where a panic costs a whole (dataset, algorithm) cell. The same nine
/// crates warn on `clippy::unwrap_used`/`expect_used` in their `lib.rs`.
const KERNEL_CRATES: &[&str] = &[
    "drift",
    "faults",
    "linalg",
    "nn",
    "outlier",
    "preprocess",
    "synth",
    "tabular",
    "tree",
];

/// The active rule set, in diagnostic-output order.
pub fn all() -> &'static [Rule] {
    &[
        Rule {
            name: "nan-partial-cmp",
            invariant: "float comparisons never panic on NaN",
            hint: "use `total_cmp`, or make the NaN policy explicit with \
                   `partial_cmp(..).unwrap_or(Ordering::..)`",
            check: nan_partial_cmp,
        },
        Rule {
            name: "panic-in-library",
            invariant: "kernel crates do not index with a constant literal, which panics \
                        on short input",
            hint: "return a Result/Option, use `.get(i)`, or allow-annotate with the \
                   invariant that makes the panic unreachable",
            check: panic_in_library,
        },
    ]
}

/// Looks up a rule by name.
pub fn by_name(name: &str) -> Option<&'static Rule> {
    all().iter().find(|r| r.name == name)
}

// --- nan-partial-cmp ----------------------------------------------------

/// `partial_cmp(..).unwrap()` (or `.expect(..)`) panics the moment a
/// NaN reaches the comparison — exactly when a degraded stream needs
/// the pipeline to keep going. Applies to tests too: a NaN-panicking
/// assertion helper is still a NaN-panicking comparison.
fn nan_partial_cmp(rule: &Rule, file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if !t.is_ident("partial_cmp") {
            continue;
        }
        let window = &file.tokens[i..file.tokens.len().min(i + 9)];
        if window
            .iter()
            .any(|w| w.kind == TokenKind::Ident && (w.text == "unwrap" || w.text == "expect"))
        {
            out.push(diag(
                rule,
                file,
                t,
                "`partial_cmp(..).unwrap()` panics on NaN".to_string(),
            ));
        }
    }
    out
}

// --- panic-in-library ---------------------------------------------------

/// Constant-literal indexing in non-test code of kernel crates (the
/// unwrap/expect half is `clippy::unwrap_used`/`expect_used`). Each
/// surviving use carries an allow-annotation naming the invariant that
/// makes it unreachable. Clippy's `indexing_slicing` would flag every
/// index, about 550 sites in these crates.
fn panic_in_library(rule: &Rule, file: &SourceFile) -> Vec<Diagnostic> {
    let in_kernel = file.kind == FileKind::Library
        && file
            .crate_name
            .as_deref()
            .is_some_and(|c| KERNEL_CRATES.contains(&c));
    if !in_kernel {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, t) in file.tokens.iter().enumerate() {
        if file.is_test_code(t.line) {
            continue;
        }
        // `expr[3]`: an integer literal index directly after an index-able
        // expression (`ident[`, `)[`, `][`). Array literals (`[0; 4]`,
        // `vec![0]`) and attributes (`#[..]`) do not match this shape.
        if t.is_punct("[")
            && i > 0
            && indexable_end(&file.tokens[i - 1])
            && file
                .tokens
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Int)
            && punct_at(&file.tokens, i + 2, "]")
        {
            out.push(diag(
                rule,
                file,
                t,
                format!(
                    "constant index `[{}]` can panic on short input",
                    file.tokens[i + 1].text
                ),
            ));
        }
    }
    out
}

/// Tokens an index expression can end with.
fn indexable_end(t: &Token) -> bool {
    t.kind == TokenKind::Ident || t.is_punct(")") || t.is_punct("]")
}

// --- small token helpers ------------------------------------------------

fn punct_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(text))
}
