//! # oeb-outlier
//!
//! The two outlier detectors the paper selects from ADBench (§4.3):
//! [`ecod::Ecod`] (empirical-CDF tail probabilities, parameter-free) and
//! [`iforest::IsolationForest`] (random-split isolation trees), plus the
//! paper's 3-sigma window-level flagging rule in [`flag`].

// A kernel panic costs a whole sweep cell (DESIGN.md, "Static invariants").
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "tests assert exact deterministic values")
)]

pub mod delta;
pub mod ecod;
pub mod flag;
pub mod iforest;

pub use delta::EcodDelta;
pub use ecod::Ecod;
pub use flag::{anomaly_ratio, flag_by_sigma};
pub use iforest::{top_score_index, IForestConfig, IsolationForest};
