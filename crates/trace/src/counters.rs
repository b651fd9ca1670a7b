//! The counter registry: every [`Counter`] the workspace records, and
//! [`COUNTER_NAMES`], the vocabulary `trace_check --counters` holds a
//! metrics table to. [`Counter::new`] is private to this crate, so a
//! counter outside this list cannot be built and the vocabulary cannot
//! drift from the construction sites:
//!
//! ```compile_fail,E0624
//! static ROGUE: oeb_trace::Counter = oeb_trace::Counter::new("rogue.counter");
//! ```
//!
//! Perfbench and `ci.sh` match on these names, so renaming one is a
//! breaking change.

use crate::Counter;

/// Counter the metrics snapshot synthesises from the trace buffers'
/// drop count; it has no [`Counter`] of its own.
pub(crate) const DROPPED_EVENTS: &str = "trace.events.dropped";

macro_rules! counters {
    ($($ident:ident = $name:literal;)*) => {
        $(pub static $ident: Counter = Counter::new($name);)*

        /// Every counter name a metrics snapshot may contain.
        pub const COUNTER_NAMES: &[&str] = &[$($name,)* DROPPED_EVENTS];
    };
}

counters! {
    // Which worker claims which index is real scheduling information, so
    // the `executor.*` family is outside the schedule-invariance contract
    // (see `MetricsSnapshot::deterministic_counters`). Whether the
    // watchdog's wall clock expires depends on the machine.
    EXECUTOR_CLAIMS = "executor.claims";
    EXECUTOR_PARALLEL_RUNS = "executor.parallel_runs";
    EXECUTOR_SEQUENTIAL_RUNS = "executor.sequential_runs";
    EXECUTOR_WATCHDOG_FIRED = "executor.watchdog.fired";

    // Per-kind fault injections, recorded where every injected event is
    // logged. Decisions are keyed on (seed, window index).
    FAULTS_INJECTED_ALL_MISSING_COLUMN = "faults.injected.all-missing-column";
    FAULTS_INJECTED_CORRUPTED_CELLS = "faults.injected.corrupted-cells";
    FAULTS_INJECTED_DROPPED_WINDOW = "faults.injected.dropped-window";
    FAULTS_INJECTED_DUPLICATED_WINDOW = "faults.injected.duplicated-window";
    FAULTS_INJECTED_LABEL_NOISE = "faults.injected.label-noise";
    FAULTS_INJECTED_NAN_BURST = "faults.injected.nan-burst";
    FAULTS_INJECTED_SCHEMA_VIOLATION = "faults.injected.schema-violation";
    FAULTS_INJECTED_TRUNCATED_WINDOW = "faults.injected.truncated-window";

    // Which GEMM path each product took; purely shape-driven.
    GEMM_DISPATCH_BLOCKED = "gemm.dispatch.blocked";
    GEMM_DISPATCH_SCALAR = "gemm.dispatch.scalar";
    GEMM_MATVEC_CALLS = "gemm.matvec.calls";

    // Completed harness runs (one learner over one prepared stream).
    HARNESS_RUNS = "harness.runs";

    // Pruned-KNN donor candidates cut short by the partial-distance
    // bound vs scanned to completion; data-dependent only.
    KNN_CANDIDATES_PRUNED = "knn.candidates.pruned";
    KNN_CANDIDATES_SCANNED = "knn.candidates.scanned";

    // Learner calls: per item (`learn_one`), per tested item, per window.
    LEARNER_ITEM_UPDATES = "learner.item_updates";
    LEARNER_ITEMS_TESTED = "learner.items_tested";
    LEARNER_WINDOW_UPDATES = "learner.window_updates";

    // Prepare cache and volume. Slot creation is serialised under the
    // cache lock, so exactly one caller per key records the miss.
    PREPARE_CACHE_EVICT = "prepare.cache.evict";
    PREPARE_CACHE_HIT = "prepare.cache.hit";
    PREPARE_CACHE_MISS = "prepare.cache.miss";
    PREPARE_ROWS = "prepare.rows";
    PREPARE_WINDOWS = "prepare.windows";

    // Cell executions under an installed `CellCtx`, i.e. whose spans the
    // trace attributes to a (dataset, learner, seed).
    PROFILE_CELLS_ATTRIBUTED = "profile.cells.attributed";

    // Values absorbed into / exactly retracted from maintained statistics,
    // and batch detector calls taken in incremental mode (kdq-tree,
    // PCA-CD, IForest and the concept-drift probes have no delta form).
    STATS_DELTA_ABSORBED = "stats.delta.absorbed";
    STATS_DELTA_RETRACTED = "stats.delta.retracted";
    STATS_FULL_FALLBACK = "stats.full.fallback";

    // Supervision events. Logical-deadline counts are fixed by the grid
    // and seeds; `supervise.wall.*` counts wall-clock expiries and is
    // outside the schedule-invariance contract.
    SUPERVISE_QUARANTINED = "supervise.quarantined";
    SUPERVISE_RETRIES = "supervise.retries";
    SUPERVISE_TIMEOUTS = "supervise.timeouts";
    SUPERVISE_WALL_RETRIES = "supervise.wall.retries";
    SUPERVISE_WALL_TIMEOUTS = "supervise.wall.timeouts";

    // Sweep grid size, cells resumed from a checkpoint, cells executed
    // this invocation, and failures; they depend only on the grid and
    // the checkpoint.
    SWEEP_CELLS_EXECUTED = "sweep.cells.executed";
    SWEEP_CELLS_FAILED = "sweep.cells.failed";
    SWEEP_CELLS_RESUMED = "sweep.cells.resumed";
    SWEEP_CELLS_TOTAL = "sweep.cells.total";

    // Generator cache (lookups under the cache lock, so counts follow the
    // key sequence) and generator volume.
    SYNTH_CACHE_EVICT = "synth.cache.evict";
    SYNTH_CACHE_HIT = "synth.cache.hit";
    SYNTH_CACHE_MISS = "synth.cache.miss";
    SYNTH_GENERATED_DATASETS = "synth.generated.datasets";
    SYNTH_GENERATED_ROWS = "synth.generated.rows";

    // Batched training: MLP mini-batches through the GEMM path, and
    // Hoeffding grace-period split evaluations.
    TRAIN_HOEFFDING_SPLIT_CHECKS = "train.hoeffding.split_checks";
    TRAIN_MLP_GEMM_BATCHES = "train.mlp.gemm_batches";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names = COUNTER_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_NAMES.len(), "{COUNTER_NAMES:?}");
    }
}
