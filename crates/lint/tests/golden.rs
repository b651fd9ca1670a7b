//! Fixture-based golden tests: every rule has a positive fixture whose
//! diagnostics must match a checked-in JSON expectation exactly, and a
//! suppressed/fixed fixture that must come back clean. Fixtures live in
//! `tests/fixtures/` (excluded from the workspace walk — they contain
//! violations on purpose) and are parsed under a synthetic workspace
//! path so crate-scoped rules fire.

use oeb_lint::engine::{check_file, to_json, SourceFile};

/// (fixture stem, rule expected, synthetic path the file is checked as).
/// Paths pick the crate context the rule cares about: a kernel crate for
/// panic hygiene, a non-kernel crate elsewhere so only the rule under
/// test fires.
const CASES: &[(&str, &str, &str)] = &[
    (
        "nan_partial_cmp",
        "nan-partial-cmp",
        "crates/oebench/src/fixture.rs",
    ),
    (
        "panic_in_library",
        "panic-in-library",
        "crates/linalg/src/fixture.rs",
    ),
];

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {path}: {e}"))
}

#[test]
fn positive_fixtures_match_expected_json() {
    for (stem, rule, synthetic_path) in CASES {
        let src = fixture(&format!("{stem}_pos.rs"));
        let file = SourceFile::parse(synthetic_path, &src);
        let diags = check_file(&file);
        assert!(
            !diags.is_empty(),
            "{stem}_pos.rs: expected at least one diagnostic"
        );
        assert!(
            diags.iter().all(|d| d.rule == *rule),
            "{stem}_pos.rs: expected only `{rule}` diagnostics, got {diags:?}"
        );
        let actual = serde_json::to_string_pretty(&to_json(&diags)).expect("render json");
        let expected_path = format!("{stem}_pos.expected.json");
        let expected: serde_json::Value = serde_json::from_str(&fixture(&expected_path))
            .unwrap_or_else(|e| panic!("{expected_path} is not valid JSON: {e:?}"));
        let actual_value: serde_json::Value =
            serde_json::from_str(&actual).expect("round-trip actual");
        assert_eq!(
            actual_value, expected,
            "{stem}_pos.rs diagnostics drifted from {expected_path}.\nactual:\n{actual}"
        );
    }
}

#[test]
fn suppressed_fixtures_are_clean() {
    for (stem, _, synthetic_path) in CASES {
        let src = fixture(&format!("{stem}_allow.rs"));
        let file = SourceFile::parse(synthetic_path, &src);
        let diags = check_file(&file);
        assert!(
            diags.is_empty(),
            "{stem}_allow.rs: expected no diagnostics, got {diags:?}"
        );
    }
}

/// Reintroducing a violation must produce located diagnostics — the
/// acceptance property behind the CI gate. One line can break two
/// invariants at once: the constant-index panic and the NaN-unsafe
/// comparison.
#[test]
fn reintroduced_violation_is_located() {
    let src = "pub fn f(xs: &[f64]) -> f64 {\n    xs.iter().cloned().fold(f64::MIN, f64::max)\n}\npub fn bad(xs: &[f64], b: f64) -> bool {\n    xs[0].partial_cmp(&b).unwrap().is_eq()\n}\n";
    let file = SourceFile::parse("crates/drift/src/fresh.rs", src);
    let diags = check_file(&file);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].rule, "panic-in-library");
    assert_eq!((diags[0].line, diags[0].col), (5, 7));
    assert_eq!(diags[1].rule, "nan-partial-cmp");
    assert_eq!((diags[1].line, diags[1].col), (5, 11));
}
