//! The linter must hold itself to its own invariants: a full workspace
//! walk from the repo root must come back clean, and the lint crate's
//! own sources must not even need suppressions.

use std::path::Path;

use oeb_lint::{check_workspace, workspace_files};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn lint_runs_clean_on_its_own_source() {
    let root = repo_root();
    let own_files: Vec<String> = workspace_files(root)
        .expect("walk workspace")
        .into_iter()
        .filter(|f| f.starts_with("crates/lint/"))
        .collect();
    assert!(
        own_files.iter().any(|f| f == "crates/lint/src/lexer.rs"),
        "walker should see the lint crate's own sources: {own_files:?}"
    );
    for rel in own_files {
        let file = oeb_lint::SourceFile::load(root, &rel).expect("read source");
        let diags = oeb_lint::check_file(&file);
        assert!(diags.is_empty(), "{rel} has violations: {diags:?}");
    }
}

#[test]
fn workspace_is_lint_clean() {
    let errors = check_workspace(repo_root()).expect("walk workspace");
    assert!(
        errors.is_empty(),
        "workspace has lint errors:\n{}",
        errors
            .iter()
            .map(|d| format!("{}:{}:{} [{}] {}", d.file, d.line, d.col, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn fixtures_are_excluded_from_the_walk() {
    let files = workspace_files(repo_root()).expect("walk workspace");
    assert!(
        files.iter().all(|f| !f.contains("tests/fixtures")),
        "fixture files (intentional violations) leaked into the walk"
    );
    assert!(files.iter().all(|f| !f.starts_with("shims/")));
    assert!(files.iter().all(|f| !f.starts_with("target/")));
}
