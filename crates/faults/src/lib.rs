//! Deterministic fault injection for relational data streams.
//!
//! Real-world streams break in ways the clean benchmark registry never
//! does: sensors emit NaN bursts, ETL jobs corrupt cells, labellers make
//! mistakes, whole batches get dropped, duplicated or cut short, and
//! upstream schema changes silently add or remove columns. This crate
//! turns any window source into a stream exhibiting exactly those
//! pathologies, under a seeded [`FaultPlan`] so every injected fault is
//! reproducible — the same plan over the same source always produces
//! bit-identical frames and the same [`FaultLog`].
//!
//! The unit of streaming is the [`WindowFrame`]: one encoded window of
//! features plus its targets. Anything that yields frames implements
//! [`FrameSource`]; [`DatasetFrames`] adapts a
//! [`StreamDataset`](oeb_tabular::StreamDataset) and [`FaultInjector`]
//! wraps any source, applying the plan frame by frame.

// A kernel panic costs a whole sweep cell (DESIGN.md, "Static invariants").
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod frame;
mod inject;
mod plan;

pub use frame::{DatasetFrames, FrameSource, FrameVec, SharedFrames, WindowFrame};
pub use inject::{inject_dataset, FaultInjector};
pub use plan::{FaultEvent, FaultKind, FaultLog, FaultPlan};
