//! # oeb-preprocess
//!
//! The preprocessing stage of the OEBench pipeline (§4.3 of the paper):
//! one-hot encoding of categorical fields, first-window standardisation,
//! and the four missing-value imputers compared in §6.6 (KNN, regression,
//! mean, zero).

// A kernel panic costs a whole sweep cell (DESIGN.md, "Static invariants").
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "tests assert exact deterministic values")
)]

pub mod delta;
pub mod encode;
pub mod impute;
pub mod scale;

pub use delta::ScalerDelta;
pub use encode::OneHotEncoder;
pub use impute::{Imputer, KnnImputer, MeanImputer, RegressionImputer, ZeroImputer};
pub use scale::{StandardScaler, TargetScaler};
