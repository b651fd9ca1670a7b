//! Fault plans, kinds, and the log of injected events.

use oeb_trace::counters::{
    FAULTS_INJECTED_ALL_MISSING_COLUMN, FAULTS_INJECTED_CORRUPTED_CELLS,
    FAULTS_INJECTED_DROPPED_WINDOW, FAULTS_INJECTED_DUPLICATED_WINDOW, FAULTS_INJECTED_LABEL_NOISE,
    FAULTS_INJECTED_NAN_BURST, FAULTS_INJECTED_SCHEMA_VIOLATION, FAULTS_INJECTED_TRUNCATED_WINDOW,
};
use oeb_trace::Counter;

/// The kinds of stream fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A contiguous block of cells replaced by NaN.
    NanBurst,
    /// Individual cells replaced by extreme out-of-range values.
    CorruptedCells,
    /// Targets perturbed (pairwise swaps within the window).
    LabelNoise,
    /// An entire window removed from the stream.
    DroppedWindow,
    /// A window emitted twice.
    DuplicatedWindow,
    /// A window cut short to a fraction of its rows.
    TruncatedWindow,
    /// The window's column count changed (column added or removed).
    SchemaViolation,
    /// One feature column entirely NaN for the window.
    AllMissingColumn,
}

impl FaultKind {
    /// All kinds, in injection order.
    pub fn all() -> [FaultKind; 8] {
        [
            FaultKind::DroppedWindow,
            FaultKind::DuplicatedWindow,
            FaultKind::TruncatedWindow,
            FaultKind::SchemaViolation,
            FaultKind::AllMissingColumn,
            FaultKind::NanBurst,
            FaultKind::CorruptedCells,
            FaultKind::LabelNoise,
        ]
    }

    /// Stable identifier used in logs and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NanBurst => "nan-burst",
            FaultKind::CorruptedCells => "corrupted-cells",
            FaultKind::LabelNoise => "label-noise",
            FaultKind::DroppedWindow => "dropped-window",
            FaultKind::DuplicatedWindow => "duplicated-window",
            FaultKind::TruncatedWindow => "truncated-window",
            FaultKind::SchemaViolation => "schema-violation",
            FaultKind::AllMissingColumn => "all-missing-column",
        }
    }

    fn counter(&self) -> &'static Counter {
        match self {
            FaultKind::NanBurst => &FAULTS_INJECTED_NAN_BURST,
            FaultKind::CorruptedCells => &FAULTS_INJECTED_CORRUPTED_CELLS,
            FaultKind::LabelNoise => &FAULTS_INJECTED_LABEL_NOISE,
            FaultKind::DroppedWindow => &FAULTS_INJECTED_DROPPED_WINDOW,
            FaultKind::DuplicatedWindow => &FAULTS_INJECTED_DUPLICATED_WINDOW,
            FaultKind::TruncatedWindow => &FAULTS_INJECTED_TRUNCATED_WINDOW,
            FaultKind::SchemaViolation => &FAULTS_INJECTED_SCHEMA_VIOLATION,
            FaultKind::AllMissingColumn => &FAULTS_INJECTED_ALL_MISSING_COLUMN,
        }
    }
}

/// Per-fault injection rates plus the seed that makes them reproducible.
///
/// Window-level rates (`drop_window`, `duplicate_window`,
/// `truncate_window`, `schema_violation`, `all_missing_column`,
/// `nan_burst`) are the probability that the fault hits a given window;
/// cell/label-level rates (`cell_corruption`, `label_noise`) are the
/// per-cell / per-label probability within every window. All rates live
/// in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every injection decision derives. Decisions are
    /// keyed on `(seed, window index)`, so injection is independent of
    /// the order windows are drawn in — resuming a stream mid-way
    /// reproduces the same faults.
    pub seed: u64,
    /// Probability a window receives a NaN burst.
    pub nan_burst: f64,
    /// Per-cell probability of an extreme corrupted value.
    pub cell_corruption: f64,
    /// Per-label probability of being swapped with another label.
    pub label_noise: f64,
    /// Probability a window is dropped.
    pub drop_window: f64,
    /// Probability a window is emitted twice.
    pub duplicate_window: f64,
    /// Probability a window is truncated.
    pub truncate_window: f64,
    /// Probability a window's column count changes.
    pub schema_violation: f64,
    /// Probability one feature column goes entirely missing.
    pub all_missing_column: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none(0)
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the identity wrapper).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            nan_burst: 0.0,
            cell_corruption: 0.0,
            label_noise: 0.0,
            drop_window: 0.0,
            duplicate_window: 0.0,
            truncate_window: 0.0,
            schema_violation: 0.0,
            all_missing_column: 0.0,
        }
    }

    /// A moderately hostile preset exercising every fault kind: roughly
    /// one window in ten is structurally damaged and a few percent of
    /// cells and labels are corrupted.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            nan_burst: 0.15,
            cell_corruption: 0.02,
            label_noise: 0.05,
            drop_window: 0.08,
            duplicate_window: 0.08,
            truncate_window: 0.10,
            schema_violation: 0.08,
            all_missing_column: 0.10,
        }
    }

    /// A plan injecting exactly one fault kind at the given rate —
    /// the single-axis scenarios of the chaos matrix.
    pub fn single(seed: u64, kind: FaultKind, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::none(seed);
        match kind {
            FaultKind::NanBurst => plan.nan_burst = rate,
            FaultKind::CorruptedCells => plan.cell_corruption = rate,
            FaultKind::LabelNoise => plan.label_noise = rate,
            FaultKind::DroppedWindow => plan.drop_window = rate,
            FaultKind::DuplicatedWindow => plan.duplicate_window = rate,
            FaultKind::TruncatedWindow => plan.truncate_window = rate,
            FaultKind::SchemaViolation => plan.schema_violation = rate,
            FaultKind::AllMissingColumn => plan.all_missing_column = rate,
        }
        plan
    }

    /// Composes two plans: for every fault kind the combined plan fires
    /// when *either* would, i.e. the rates union as
    /// `1 - (1 - a)(1 - b)` (independent events), and the composed plan
    /// keeps `self`'s seed so composing with [`FaultPlan::none`] is the
    /// identity. This is how chaos scenarios stack a fault axis on top
    /// of a base plan.
    pub fn compose(&self, other: &FaultPlan) -> FaultPlan {
        let union = |a: f64, b: f64| 1.0 - (1.0 - a) * (1.0 - b);
        FaultPlan {
            seed: self.seed,
            nan_burst: union(self.nan_burst, other.nan_burst),
            cell_corruption: union(self.cell_corruption, other.cell_corruption),
            label_noise: union(self.label_noise, other.label_noise),
            drop_window: union(self.drop_window, other.drop_window),
            duplicate_window: union(self.duplicate_window, other.duplicate_window),
            truncate_window: union(self.truncate_window, other.truncate_window),
            schema_violation: union(self.schema_violation, other.schema_violation),
            all_missing_column: union(self.all_missing_column, other.all_missing_column),
        }
    }

    /// True when no fault can ever fire.
    pub fn is_clean(&self) -> bool {
        self.rates().iter().all(|&(_, r)| r == 0.0)
    }

    /// `(kind, rate)` pairs for every fault this plan controls.
    pub fn rates(&self) -> [(FaultKind, f64); 8] {
        [
            (FaultKind::DroppedWindow, self.drop_window),
            (FaultKind::DuplicatedWindow, self.duplicate_window),
            (FaultKind::TruncatedWindow, self.truncate_window),
            (FaultKind::SchemaViolation, self.schema_violation),
            (FaultKind::AllMissingColumn, self.all_missing_column),
            (FaultKind::NanBurst, self.nan_burst),
            (FaultKind::CorruptedCells, self.cell_corruption),
            (FaultKind::LabelNoise, self.label_noise),
        ]
    }

    /// Checks every rate is a probability; returns the offending fault
    /// kind and value otherwise.
    pub fn validate(&self) -> Result<(), String> {
        for (kind, rate) in self.rates() {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("{} rate {rate} outside [0, 1]", kind.name()));
            }
        }
        Ok(())
    }
}

/// One injected fault: which window, which kind, and a human-readable
/// description of what was damaged.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Source window index the fault hit.
    pub window: usize,
    /// Fault kind.
    pub kind: FaultKind,
    /// What exactly happened (rows/columns/cells affected).
    pub detail: String,
}

/// Ordered record of every fault an injector produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// Creates an empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// Records one event.
    pub fn push(&mut self, window: usize, kind: FaultKind, detail: impl Into<String>) {
        kind.counter().incr();
        self.events.push(FaultEvent {
            window,
            kind,
            detail: detail.into(),
        });
    }

    /// All events in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events of one kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_clean_and_valid() {
        let p = FaultPlan::none(7);
        assert!(p.is_clean());
        assert!(p.validate().is_ok());
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn chaos_touches_every_kind_and_validates() {
        let p = FaultPlan::chaos(1);
        assert!(!p.is_clean());
        assert!(p.validate().is_ok());
        for (kind, rate) in p.rates() {
            assert!(rate > 0.0, "{} rate is zero in chaos", kind.name());
        }
    }

    #[test]
    fn single_sets_exactly_one_rate() {
        for kind in FaultKind::all() {
            let p = FaultPlan::single(3, kind, 0.4);
            assert!(p.validate().is_ok());
            for (k, rate) in p.rates() {
                if k == kind {
                    assert!((rate - 0.4).abs() < 1e-12, "{} not set", k.name());
                } else {
                    assert!(
                        rate.abs() < 1e-12,
                        "{} leaked from single({})",
                        k.name(),
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn compose_unions_rates_and_keeps_the_left_seed() {
        let a = FaultPlan::single(5, FaultKind::DroppedWindow, 0.5);
        let b = FaultPlan::single(9, FaultKind::DroppedWindow, 0.5);
        let ab = a.compose(&b);
        assert_eq!(ab.seed, 5);
        assert!((ab.drop_window - 0.75).abs() < 1e-12);
        assert!(ab.validate().is_ok());
        // Composing with the empty plan is the identity.
        assert_eq!(a.compose(&FaultPlan::none(123)), a);
        // Rates never escape [0, 1], even from saturated inputs.
        let full = FaultPlan::single(0, FaultKind::NanBurst, 1.0);
        let sat = full.compose(&FaultPlan::chaos(0));
        assert!(sat.validate().is_ok());
        assert!((sat.nan_burst - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_rates_are_rejected() {
        let mut p = FaultPlan::none(0);
        p.drop_window = 1.5;
        assert!(p.validate().unwrap_err().contains("dropped-window"));
        p.drop_window = f64::NAN;
        assert!(p.validate().is_err());
        p.drop_window = -0.1;
        assert!(p.validate().is_err());
    }

    #[test]
    fn log_counts_by_kind() {
        let mut log = FaultLog::new();
        assert!(log.is_empty());
        log.push(0, FaultKind::NanBurst, "rows 1..3");
        log.push(2, FaultKind::NanBurst, "rows 0..1");
        log.push(2, FaultKind::LabelNoise, "3 swaps");
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(FaultKind::NanBurst), 2);
        assert_eq!(log.count(FaultKind::DroppedWindow), 0);
        assert_eq!(log.events()[2].window, 2);
    }
}
