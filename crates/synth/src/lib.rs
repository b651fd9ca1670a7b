//! # oeb-synth
//!
//! Synthetic relational data streams reproducing the open-environment
//! phenomena of the 55 real-world datasets studied by the paper:
//! distribution drifts (abrupt / gradual / incremental / recurrent),
//! outliers and anomalous events, incremental/decremental feature spaces,
//! missing values, and class imbalance.
//!
//! The [`mod@registry`] module carries one entry per paper dataset (shape
//! metadata from the paper's Tables 11/12, open-environment levels from
//! Table 9, drift patterns from the Table 13 audit); [`generate()`](fn@generate) turns a
//! [`StreamSpec`] into a concrete [`oeb_tabular::StreamDataset`].

// A kernel panic costs a whole sweep cell (DESIGN.md, "Static invariants").
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
pub mod generate;
pub mod registry;
pub mod spec;

pub use cache::generate_cached;
pub use generate::generate;
pub use registry::{by_name, registry, registry_scaled, selected, selected_five, DatasetEntry};
pub use spec::{
    AnomalyEvent, Balance, DriftPattern, FeatureAvailability, LabelMechanism, Level, StreamSpec,
    TaskSpec,
};
