//! Typed harness errors.
//!
//! Every failure mode of the evaluation pipeline maps to one
//! [`HarnessError`] variant with a stable [`exit_code`](HarnessError::exit_code),
//! so a sweep can record *why* a (dataset, learner) pair failed and the
//! CLI can signal the class of failure to calling scripts.

/// Why a harness run could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum HarnessError {
    /// The configuration itself is unusable (bad rate, zero k, ...).
    InvalidConfig(String),
    /// The algorithm does not apply to the task (ARF on regression).
    NotApplicable {
        /// Algorithm name.
        algorithm: String,
        /// Task description.
        task: String,
    },
    /// The stream has fewer than the two windows prequential needs.
    InsufficientWindows {
        /// Windows found.
        found: usize,
    },
    /// No window survived (e.g. every window dropped by fault injection).
    EmptyStream,
    /// A window arrived with the wrong column count and the degradation
    /// policy forbids skipping it.
    SchemaMismatch {
        /// Source window index.
        window: usize,
        /// Expected feature width.
        expected: usize,
        /// Observed feature width.
        got: usize,
    },
    /// Imputation left non-finite cells and fallback is disabled.
    ImputationFailed {
        /// Source window index.
        window: usize,
        /// What went wrong.
        detail: String,
    },
    /// The learner's loss went non-finite more often than the retry
    /// budget allows.
    NonFiniteLoss {
        /// Source window index of the final failure.
        window: usize,
        /// Model resets spent before giving up.
        retries: usize,
    },
    /// The run panicked and was caught by the sweep isolation layer.
    Panicked(String),
    /// Filesystem failure (checkpoint file, export target, ...).
    Io(String),
    /// A checkpoint file exists but cannot be parsed.
    Checkpoint(String),
    /// The cell exceeded its supervision budget — a logical deadline
    /// (windows / items) or the wall-clock watchdog — and was cancelled
    /// cooperatively instead of hanging the sweep.
    CellTimedOut {
        /// Windows entered before the deadline fired.
        windows: usize,
        /// Items trained before the deadline fired.
        items: usize,
        /// `true` when the wall-clock watchdog fired (machine-dependent);
        /// `false` for a logical budget, which is deterministic.
        wall: bool,
    },
    /// Every retry of the cell failed; it is parked rather than aborting
    /// the sweep.
    Quarantined {
        /// Attempts spent (first run plus retries).
        attempts: usize,
        /// `kind()` of the final failure.
        last_kind: String,
        /// Display text of the final failure.
        reason: String,
    },
}

impl HarnessError {
    /// Stable process exit code for this failure class. `0` is success
    /// and `1`/`2` are reserved for generic and usage errors, so typed
    /// failures start at 3.
    pub fn exit_code(&self) -> i32 {
        match self {
            HarnessError::InvalidConfig(_) => 3,
            HarnessError::NotApplicable { .. } => 4,
            HarnessError::InsufficientWindows { .. } => 5,
            HarnessError::EmptyStream => 6,
            HarnessError::SchemaMismatch { .. } => 7,
            HarnessError::ImputationFailed { .. } => 8,
            HarnessError::NonFiniteLoss { .. } => 9,
            HarnessError::Panicked(_) => 10,
            HarnessError::Io(_) => 11,
            HarnessError::Checkpoint(_) => 12,
            HarnessError::CellTimedOut { .. } => 13,
            HarnessError::Quarantined { .. } => 14,
        }
    }

    /// Short kebab-case identifier used in checkpoint records.
    pub fn kind(&self) -> &'static str {
        match self {
            HarnessError::InvalidConfig(_) => "invalid-config",
            HarnessError::NotApplicable { .. } => "not-applicable",
            HarnessError::InsufficientWindows { .. } => "insufficient-windows",
            HarnessError::EmptyStream => "empty-stream",
            HarnessError::SchemaMismatch { .. } => "schema-mismatch",
            HarnessError::ImputationFailed { .. } => "imputation-failed",
            HarnessError::NonFiniteLoss { .. } => "non-finite-loss",
            HarnessError::Panicked(_) => "panicked",
            HarnessError::Io(_) => "io",
            HarnessError::Checkpoint(_) => "checkpoint",
            HarnessError::CellTimedOut { .. } => "cell-timed-out",
            HarnessError::Quarantined { .. } => "quarantined",
        }
    }

    /// Is the failure worth another attempt? Structural mismatches
    /// (wrong task, too few windows, unusable config) fail identically
    /// every time; everything else — panics, non-finite losses, I/O,
    /// wall-clock timeouts — may be transient or fault-injected, so the
    /// supervision layer retries them. A *logical* timeout is excluded:
    /// it is a deterministic function of the stream, so a retry would
    /// burn budget to reach the same deadline.
    pub fn is_retryable(&self) -> bool {
        match self {
            HarnessError::InvalidConfig(_)
            | HarnessError::NotApplicable { .. }
            | HarnessError::InsufficientWindows { .. }
            | HarnessError::Quarantined { .. } => false,
            HarnessError::CellTimedOut { wall, .. } => *wall,
            _ => true,
        }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            HarnessError::NotApplicable { algorithm, task } => {
                write!(f, "{algorithm} does not apply to {task}")
            }
            HarnessError::InsufficientWindows { found } => {
                write!(
                    f,
                    "prequential evaluation needs at least 2 windows, found {found}"
                )
            }
            HarnessError::EmptyStream => write!(f, "no window survived the stream"),
            HarnessError::SchemaMismatch {
                window,
                expected,
                got,
            } => write!(
                f,
                "window {window}: expected {expected} feature columns, got {got}"
            ),
            HarnessError::ImputationFailed { window, detail } => {
                write!(f, "window {window}: imputation failed: {detail}")
            }
            HarnessError::NonFiniteLoss { window, retries } => write!(
                f,
                "window {window}: loss went non-finite after {retries} model resets"
            ),
            HarnessError::Panicked(m) => write!(f, "run panicked: {m}"),
            HarnessError::Io(m) => write!(f, "io error: {m}"),
            HarnessError::Checkpoint(m) => write!(f, "bad checkpoint: {m}"),
            HarnessError::CellTimedOut {
                windows,
                items,
                wall,
            } => write!(
                f,
                "cell exceeded its {} deadline after {windows} windows / {items} items",
                if *wall { "wall-clock" } else { "logical" }
            ),
            HarnessError::Quarantined {
                attempts,
                last_kind,
                reason,
            } => write!(
                f,
                "quarantined after {attempts} attempts (last failure {last_kind}: {reason})"
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every variant, built through an exhaustive match:
    /// each arm names the variant after it, so a new variant does not
    /// compile until it joins the chain.
    fn variants() -> Vec<HarnessError> {
        let mut all = vec![HarnessError::InvalidConfig("k = 0".into())];
        loop {
            let next = match &all[all.len() - 1] {
                HarnessError::InvalidConfig(_) => HarnessError::NotApplicable {
                    algorithm: "ARF".into(),
                    task: "Regression".into(),
                },
                HarnessError::NotApplicable { .. } => {
                    HarnessError::InsufficientWindows { found: 1 }
                }
                HarnessError::InsufficientWindows { .. } => HarnessError::EmptyStream,
                HarnessError::EmptyStream => HarnessError::SchemaMismatch {
                    window: 3,
                    expected: 10,
                    got: 9,
                },
                HarnessError::SchemaMismatch { .. } => HarnessError::ImputationFailed {
                    window: 2,
                    detail: "NaN left".into(),
                },
                HarnessError::ImputationFailed { .. } => HarnessError::NonFiniteLoss {
                    window: 8,
                    retries: 2,
                },
                HarnessError::NonFiniteLoss { .. } => {
                    HarnessError::Panicked("index out of bounds".into())
                }
                HarnessError::Panicked(_) => HarnessError::Io("permission denied".into()),
                HarnessError::Io(_) => HarnessError::Checkpoint("truncated line".into()),
                HarnessError::Checkpoint(_) => HarnessError::CellTimedOut {
                    windows: 5,
                    items: 200,
                    wall: false,
                },
                HarnessError::CellTimedOut { .. } => HarnessError::Quarantined {
                    attempts: 3,
                    last_kind: "panicked".into(),
                    reason: "run panicked: boom".into(),
                },
                HarnessError::Quarantined { .. } => return all,
            };
            all.push(next);
        }
    }

    /// EXIT_CODES.md is the registry calling scripts read: its typed
    /// rows (code >= 3) must be exactly the `| code | kind |` pairs the
    /// source defines, the codes dense from 3, and the README must link
    /// the table.
    #[test]
    fn exit_code_table_matches_the_registry() {
        let mut all = variants();
        all.sort_by_key(HarnessError::exit_code);
        let codes: Vec<i32> = all.iter().map(HarnessError::exit_code).collect();
        let dense: Vec<i32> = (3..).take(all.len()).collect();
        assert_eq!(codes, dense, "exit codes must be dense and unique from 3");

        let rendered: Vec<String> = all
            .iter()
            .map(|e| format!("| {} | {} |", e.exit_code(), e.kind()))
            .collect();
        let table: Vec<String> = include_str!("../../../EXIT_CODES.md")
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                match cells.as_slice() {
                    ["", code, kind, ..] if code.parse::<i32>().is_ok_and(|c| c >= 3) => {
                        Some(format!("| {code} | {kind} |"))
                    }
                    _ => None,
                }
            })
            .collect();
        assert_eq!(table, rendered, "EXIT_CODES.md drifted from HarnessError");

        assert!(
            include_str!("../../../README.md").contains("EXIT_CODES.md"),
            "README.md must link the exit-code table"
        );
    }

    #[test]
    fn kinds_are_distinct() {
        let kinds: Vec<&str> = variants().iter().map(HarnessError::kind).collect();
        let mut unique = kinds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn display_names_the_failure() {
        let e = HarnessError::SchemaMismatch {
            window: 3,
            expected: 10,
            got: 9,
        };
        let text = e.to_string();
        assert!(text.contains("window 3") && text.contains("10") && text.contains('9'));
    }

    #[test]
    fn retryability_matches_the_failure_class() {
        assert!(!HarnessError::InvalidConfig("k = 0".into()).is_retryable());
        assert!(!HarnessError::NotApplicable {
            algorithm: "ARF".into(),
            task: "Regression".into(),
        }
        .is_retryable());
        assert!(!HarnessError::InsufficientWindows { found: 1 }.is_retryable());
        // Logical deadlines are deterministic — retrying repeats them.
        assert!(!HarnessError::CellTimedOut {
            windows: 5,
            items: 200,
            wall: false,
        }
        .is_retryable());
        // Wall-clock timeouts are machine noise — worth another attempt.
        assert!(HarnessError::CellTimedOut {
            windows: 5,
            items: 200,
            wall: true,
        }
        .is_retryable());
        assert!(HarnessError::Panicked("boom".into()).is_retryable());
        assert!(HarnessError::NonFiniteLoss {
            window: 8,
            retries: 2,
        }
        .is_retryable());
    }
}
