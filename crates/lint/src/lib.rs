//! # oeb-lint
//!
//! A from-scratch static invariant checker for this workspace. The
//! reproduction's value rests on properties the compiler cannot see:
//! bit-identical results at any thread count, seeded randomness
//! everywhere, NaN-tolerant numeric kernels, and panic-isolated sweep
//! workers that never die on malformed input. Proptests catch
//! violations after the fact; this crate catches them at review time.
//!
//! Most of these invariants are checked by stock tooling: `clippy.toml`
//! bans clock reads outside oeb-trace and hash-ordered collections,
//! `[workspace.lints]` bans exact float comparison, the kernel crates
//! warn on `unwrap`/`expect`, the `rand` shim has no entropy-seeded
//! constructor, the counter vocabulary is the
//! `oeb_trace::counters` registry, and a unit test in oeb-core pins the
//! exit-code table. This crate keeps the five rules neither clippy nor
//! a type can express.
//!
//! Pipeline: a hand-rolled [`lexer`] turns each `.rs` file into a
//! line/column-tracked token stream; [`parser`] builds an item forest
//! (fns, impls, mods, attributes) on top of it; [`engine`] classifies
//! the file (library / test / bench / example, parser-derived
//! `#[cfg(test)]` regions, inline `// oeb-lint: allow(..)`
//! suppressions); [`rules`] runs two per-file token checks over the
//! comment-free tokens (`nan-partial-cmp`, and the constant-index half
//! of `panic-in-library`). A second, workspace-level layer — [`index`]
//! (`DeltaStat` impls, test fns, and lock acquisitions) feeding
//! [`semantic`] — runs three cross-file rules: delta-equivalence test
//! coverage, lock-order cycles, and stale suppressions. The `oeb-lint`
//! binary walks the workspace and gates CI:
//!
//! ```text
//! cargo run -p oeb-lint -- check [--json] [--fix-hints] [--time-budget-ms N]
//! cargo run -p oeb-lint -- rules
//! ```

pub mod engine;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use engine::{check_file, to_json, Diagnostic, FileKind, SourceFile};
pub use index::WorkspaceIndex;
pub use rules::{all as all_rules, Rule};
pub use semantic::Workspace;

/// Directories (workspace-relative prefixes) the walker never descends
/// into: build output, vendored dependency shims (external API stubs,
/// not workspace code), and the lint fixtures, which contain violations
/// on purpose.
pub const EXCLUDED_PREFIXES: &[&str] = &["target", "shims", "crates/lint/tests/fixtures"];

/// Walks `root` for workspace `.rs` files, sorted so diagnostics are
/// emitted in a stable order on every platform (`read_dir` order is
/// OS-dependent — the same invariant this crate lints for).
pub fn workspace_files(root: &std::path::Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Ok(rel) = path.strip_prefix(root) else {
                continue;
            };
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if EXCLUDED_PREFIXES.iter().any(|p| rel_str == *p) || rel_str.starts_with('.') {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if rel_str.ends_with(".rs") {
                files.push(rel_str);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the full pipeline over the workspace under `root`: token rules
/// per file, semantic rules over the index, stale-suppression analysis,
/// suppressions applied.
pub fn check_workspace(root: &std::path::Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(Workspace::load(root)?.check())
}
