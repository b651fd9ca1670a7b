//! # oebench
//!
//! A from-scratch Rust reproduction of *OEBench: Investigating Open
//! Environment Challenges in Real-World Relational Data Streams*
//! (VLDB 2024): synthetic relational data streams exhibiting the paper's
//! open-environment phenomena, the full statistics-extraction and
//! dataset-selection pipeline, ten stream-learning algorithms, and the
//! prequential evaluation harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`tabular`] — relational tables, schemas, windows, datasets, CSV IO;
//! * [`synth`] — the 55-dataset synthetic stream registry and generator;
//! * [`preprocess`] — one-hot encoding, scalers, the four imputers;
//! * [`drift`] — ten data/concept drift detectors;
//! * [`outlier`] — ECOD and Isolation Forest;
//! * [`nn`] — the MLP, EWC/LwF regularisers, iCaRL exemplar buffer;
//! * [`tree`] — CART, GBDT, Hoeffding trees, Adaptive Random Forest;
//! * [`linalg`] — matrices, PCA, K-Means, t-SNE, statistics;
//! * [`core`] — learners, harness, statistics pipeline, selection,
//!   recommendation, and the per-table/figure experiment drivers.
//!
//! # Quickstart
//!
//! ```
//! use oebench::prelude::*;
//!
//! // Generate a drifting stream from the registry and evaluate a
//! // decision tree prequentially (test-then-train per window).
//! let entry = oebench::synth::by_name("Electricity Prices").unwrap();
//! let spec = entry.spec.scaled(0.02); // small for the doctest
//! let dataset = oebench::synth::generate(&spec, 0);
//! let result = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
//! assert!(result.mean_loss.is_finite());
//! ```

#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "tests assert exact deterministic values")
)]

pub mod cli;

pub use oeb_core as core;
pub use oeb_drift as drift;
pub use oeb_faults as faults;
pub use oeb_linalg as linalg;
pub use oeb_nn as nn;
pub use oeb_outlier as outlier;
pub use oeb_preprocess as preprocess;
pub use oeb_synth as synth;
pub use oeb_tabular as tabular;
pub use oeb_tree as tree;

/// The most common imports for working with the benchmark.
pub mod prelude {
    pub use oeb_core::{
        extract_stats, recommend, run_seeds, run_stream, run_sweep, select_representatives,
        try_run_stream, Algorithm, DegradePolicy, HarnessConfig, HarnessError, ImputerChoice,
        LearnerConfig, OeStats, OutlierRemoval, RunOutcome, RunResult, Scenario, StatsConfig,
        StreamLearner, SweepReport,
    };
    pub use oeb_faults::{FaultInjector, FaultKind, FaultLog, FaultPlan};
    pub use oeb_linalg::Matrix;
    pub use oeb_synth::{generate, registry, registry_scaled, selected_five, Level, StreamSpec};
    pub use oeb_tabular::{Domain, StreamDataset, Task};
}
