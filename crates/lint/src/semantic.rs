//! Workspace-level semantic rules, consuming the [`WorkspaceIndex`].
//!
//! Where the token rules judge one file at a time, these three rules
//! check contracts that span the workspace: every `DeltaStat` impl must
//! carry an equivalence test, the static lock graph must be acyclic,
//! and every suppression must still have something to suppress. The
//! counter vocabulary and the exit-code table are held by a type and a
//! test instead (`oeb_trace::counters`, `error::tests` in oeb-core).
//!
//! Suppression works exactly as for token rules: each diagnostic is
//! anchored to a source line, and an `// oeb-lint: allow(<rule>)` on
//! that line (or the line above) silences it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::engine::{check_file_raw, Diagnostic, SourceFile};
use crate::index::{lock_graph, WorkspaceIndex};
use crate::{rules, workspace_files};

/// Name, invariant, and hint of each semantic rule, mirroring the shape
/// of [`crate::rules::Rule`] for `oeb-lint rules` output.
pub const SEMANTIC_RULES: &[(&str, &str, &str)] = &[
    (
        "delta-equivalence",
        "every type implementing DeltaStat is exercised by at least one test asserting \
         bitwise/snapshot equivalence against the batch path",
        "add a `#[test]` naming the delta type whose name or body marks it as an \
         equivalence check (`*_bitwise`, `*_matches_*`, or a `to_bits` assertion)",
    ),
    (
        "lock-order",
        "the static lock-acquisition graph (Mutex fields and statics, with one-level \
         call-edge propagation) is free of cycles",
        "acquire locks in one global order, or scope the outer guard so it is dropped \
         before the inner lock is taken",
    ),
    (
        "stale-suppression",
        "every `allow(<rule>)` still has a diagnostic to silence on its line or the \
         line below, and names a rule that exists",
        "delete the stale allow comment (the violation it covered is gone), or fix the \
         rule name",
    ),
];

/// True when `name` is a rule this binary knows — token or semantic.
pub fn is_known_rule(name: &str) -> bool {
    rules::by_name(name).is_some() || SEMANTIC_RULES.iter().any(|(n, _, _)| *n == name)
}

/// A loaded workspace: all files parsed once, the index built once.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub index: WorkspaceIndex,
}

impl Workspace {
    /// Walks `root`, parses every workspace file, and builds the index.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for rel in workspace_files(root)? {
            files.push(SourceFile::load(root, &rel)?);
        }
        let index = WorkspaceIndex::build(&files);
        Ok(Workspace { files, index })
    }

    /// The full check: token rules per file, semantic rules over the
    /// index, stale-suppression over both — then suppressions applied,
    /// sorted by (file, line, col, rule).
    pub fn check(&self) -> Vec<Diagnostic> {
        let mut raw: Vec<Diagnostic> = Vec::new();
        for file in &self.files {
            raw.extend(check_file_raw(file));
        }
        raw.extend(self.semantic_raw());
        let stale = self.stale_suppressions(&raw);
        raw.extend(stale);

        let by_path: BTreeMap<&str, &SourceFile> =
            self.files.iter().map(|f| (f.path.as_str(), f)).collect();
        let mut out: Vec<Diagnostic> = raw
            .into_iter()
            .filter(|d| {
                !by_path
                    .get(d.file.as_str())
                    .is_some_and(|f| f.suppressed(d.rule, d.line))
            })
            .collect();
        out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
        out
    }

    /// The two index-driven rules, unsuppressed.
    pub fn semantic_raw(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        self.delta_equivalence(&mut out);
        self.lock_order(&mut out);
        out
    }

    fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }

    fn semantic_diag(
        &self,
        rule: &'static str,
        hint: &'static str,
        file: &str,
        line: u32,
        message: String,
    ) -> Diagnostic {
        let snippet = self.file(file).map(|f| f.snippet(line)).unwrap_or_default();
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            col: 1,
            message,
            snippet,
            hint,
        }
    }

    // -- delta-equivalence --------------------------------------------------

    /// Every `impl DeltaStat for T` must be named in at least one test
    /// that asserts equivalence with the batch path — the contract the
    /// incremental pipeline's correctness rests on.
    fn delta_equivalence(&self, out: &mut Vec<Diagnostic>) {
        const RULE: &str = "delta-equivalence";
        const HINT: &str = "add a `#[test]` naming the delta type whose name or body marks it \
                            as an equivalence check (`*_bitwise`, `*_matches_*`, or a `to_bits` \
                            assertion)";
        for imp in &self.index.delta_impls {
            let covered = self
                .index
                .test_fns
                .iter()
                .any(|t| t.equivalence && t.types.iter().any(|n| n == &imp.type_name));
            if !covered {
                out.push(self.semantic_diag(
                    RULE,
                    HINT,
                    &imp.file,
                    imp.line,
                    format!(
                        "`{}` implements DeltaStat but no equivalence test names it",
                        imp.type_name
                    ),
                ));
            }
        }
    }

    // -- lock-order ---------------------------------------------------------

    /// The acquisition graph must be acyclic. Each cycle is reported
    /// once, canonicalised to start at its smallest lock id, and the
    /// diagnostic is anchored at the acquisition that closes the cycle.
    fn lock_order(&self, out: &mut Vec<Diagnostic>) {
        const RULE: &str = "lock-order";
        const HINT: &str = "acquire locks in one global order, or scope the outer guard so it \
                            is dropped before the inner lock is taken";
        let graph = lock_graph(&self.index.lock_edges);
        let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
        for &start in graph.keys() {
            // DFS from each node; a path returning to `start` is a cycle.
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            let mut path: Vec<&str> = vec![start];
            let mut on_path: BTreeSet<&str> = [start].into();
            while let Some(&(node, next)) = stack.last() {
                let edges = graph.get(node).map(Vec::as_slice).unwrap_or_default();
                if next >= edges.len() {
                    on_path.remove(node);
                    path.pop();
                    stack.pop();
                    continue;
                }
                let edge = edges[next];
                if let Some(frame) = stack.last_mut() {
                    frame.1 += 1;
                }
                let to = edge.to.as_str();
                if to == start {
                    // Canonical form: the cycle's node list, rotated so
                    // the smallest id leads; dedup across start nodes.
                    let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.as_str())
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    if seen.insert(cycle.clone()) {
                        let mut display = cycle.clone();
                        display.push(cycle[0].clone());
                        out.push(self.semantic_diag(
                            RULE,
                            HINT,
                            &edge.file,
                            edge.line,
                            format!(
                                "lock-order cycle: {}{}",
                                display.join(" -> "),
                                edge.via
                                    .as_deref()
                                    .map(|v| format!(" (closed via call to `{v}`)"))
                                    .unwrap_or_default()
                            ),
                        ));
                    }
                    continue;
                }
                if !on_path.contains(to) {
                    on_path.insert(to);
                    path.push(to);
                    stack.push((to, 0));
                }
            }
        }
    }

    // -- stale-suppression --------------------------------------------------

    /// An `allow` that silences nothing is itself a defect: it hides
    /// the next real violation at that site. `raw` must hold the
    /// unsuppressed token + semantic diagnostics for the workspace.
    pub fn stale_suppressions(&self, raw: &[Diagnostic]) -> Vec<Diagnostic> {
        const RULE: &str = "stale-suppression";
        const HINT: &str = "delete the stale allow comment (the violation it covered is \
                            gone), or fix the rule name";
        let mut out = Vec::new();
        // Pass A: every suppression except allow(stale-suppression),
        // judged against the raw token + semantic diagnostics.
        for file in &self.files {
            for (line, rule) in file.allow_sites() {
                if rule == RULE {
                    continue;
                }
                if !is_known_rule(rule) {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("suppression names unknown rule `{rule}`"),
                    ));
                    continue;
                }
                let covers = raw.iter().any(|d| {
                    d.rule == rule
                        && d.file == file.path
                        && (d.line == *line || d.line == *line + 1)
                });
                if !covers {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("allow({rule}) no longer suppresses anything here"),
                    ));
                }
            }
            for (line, rule) in file.file_allow_sites() {
                if rule == RULE {
                    continue;
                }
                if !is_known_rule(rule) {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("suppression names unknown rule `{rule}`"),
                    ));
                    continue;
                }
                if !raw.iter().any(|d| d.rule == rule && d.file == file.path) {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        format!("allow-file({rule}) no longer suppresses anything in this file"),
                    ));
                }
            }
        }
        // Pass B: allow(stale-suppression) sites are judged against the
        // stale diagnostics pass A just produced — an allow covering a
        // migration-in-progress stays valid exactly while the stale
        // report it silences exists.
        for file in &self.files {
            for (line, rule) in file.allow_sites() {
                if rule != RULE {
                    continue;
                }
                let covers = out
                    .iter()
                    .any(|d| d.file == file.path && (d.line == *line || d.line == *line + 1));
                if !covers {
                    out.push(self.semantic_diag(
                        RULE,
                        HINT,
                        &file.path,
                        *line,
                        "allow(stale-suppression) no longer suppresses anything here".to_string(),
                    ));
                }
            }
        }
        out
    }
}
