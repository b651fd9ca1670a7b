//! Experiment drivers: one function per table/figure of the paper's
//! evaluation, each returning a rendered text artifact plus a
//! machine-readable JSON value. The `repro` binary in `oeb-bench`
//! dispatches on experiment ids and writes both to `results/`.

pub mod cases;
pub mod datasets;
pub mod main_results;
pub mod sweeps;

use crate::executor::{parallel_map, resolve_threads};
use crate::stats::{extract_stats, OeStats};
use oeb_synth::DatasetEntry;
use oeb_tabular::StreamDataset;
use std::sync::Arc;

/// Shared experiment context.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Row-scale factor applied to every registry spec (1.0 = the
    /// benchmark-scale sizes documented in DESIGN.md).
    pub scale: f64,
    /// Seeds per run (the paper repeats each experiment three times).
    pub seeds: Vec<u64>,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: 0.10,
            seeds: vec![0, 1, 2],
        }
    }
}

impl ExpContext {
    /// The registry at this context's scale.
    pub fn registry(&self) -> Vec<DatasetEntry> {
        oeb_synth::registry_scaled(self.scale)
    }

    /// The five representative datasets at this context's scale.
    pub fn selected_five(&self) -> Vec<DatasetEntry> {
        oeb_synth::selected_five()
            .into_iter()
            .map(|mut e| {
                e.spec = e.spec.scaled(self.scale);
                e
            })
            .collect()
    }

    /// Generates a dataset from an entry with the given seed, through
    /// the process-wide generation cache: experiments touching the same
    /// (spec, seed) share one materialized dataset. The case-study
    /// drivers use it; [`ExpContext::stats_all`] deliberately does not.
    pub fn dataset(&self, entry: &DatasetEntry, seed: u64) -> Arc<StreamDataset> {
        oeb_synth::generate_cached(&entry.spec, seed)
    }

    /// Extracts open-environment statistics for every registry dataset
    /// (seed 0), in registry order. This is the §4.3 pipeline over the
    /// whole collection.
    ///
    /// The registry fans out over the executor and is collected in
    /// registry order, so the result is identical at any worker count.
    /// Each dataset is generated uncached and freed after extraction:
    /// nothing else in a run asks for most of the 55 datasets again, so
    /// routing them through the bounded synth cache would only keep them
    /// resident.
    pub fn stats_all(&self) -> Vec<OeStats> {
        let registry = self.registry();
        parallel_map(registry.len(), resolve_threads(None), |i| {
            Self::entry_stats(&registry[i])
        })
    }

    /// One row of [`ExpContext::stats_all`]: the statistics of `entry`'s
    /// seed-0 dataset under the default configuration, generated
    /// uncached. Every consumer of §4.3 rows computes them here, so a
    /// row read from the stats cache equals a freshly extracted one.
    pub fn entry_stats(entry: &DatasetEntry) -> OeStats {
        extract_stats(&oeb_synth::generate(&entry.spec, 0))
    }
}

/// JSON-safe float: non-finite values (diverged NN losses) become null,
/// matching the paper's N/A entries.
pub fn json_f64(x: f64) -> serde_json::Value {
    if x.is_finite() {
        serde_json::json!(x)
    } else {
        serde_json::Value::Null
    }
}

/// JSON-safe float series.
pub fn json_series(xs: &[f64]) -> serde_json::Value {
    serde_json::Value::Array(xs.iter().map(|&x| json_f64(x)).collect())
}

/// A finished experiment artifact.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (e.g. `table4`, `fig10`).
    pub id: &'static str,
    /// One-line description of the paper artifact reproduced.
    pub title: &'static str,
    /// Rendered text (tables / series) for the console and `.txt` file.
    pub text: String,
    /// Machine-readable payload for the `.json` file.
    pub json: serde_json::Value,
}

/// Every experiment id in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table4", "fig9",
    "table5", "table6", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "table9",
    "fig17", "fig18", "fig19", "table10", "table13",
];

/// The §4.3 statistics of the run, computed by the first artifact that
/// needs them and borrowed by every later one.
fn shared_stats<'a>(ctx: &ExpContext, cache: &'a mut Option<Vec<OeStats>>) -> &'a [OeStats] {
    cache.get_or_insert_with(|| ctx.stats_all())
}

/// Dispatches an experiment by id.
///
/// `stats_cache`: pass the output of [`ExpContext::stats_all`] when
/// running several stats-hungry experiments in one process so the §4.3
/// pipeline runs once. Table 3, Figures 2, 3 and 9 fill it when it is
/// empty; Table 13 only reads it, and extracts its ten case-study
/// datasets itself when it is empty.
pub fn run_experiment(
    id: &str,
    ctx: &ExpContext,
    stats_cache: &mut Option<Vec<OeStats>>,
) -> Option<ExperimentOutput> {
    Some(match id {
        "table2" => datasets::table2(ctx),
        "table3" => datasets::table3(ctx, shared_stats(ctx, stats_cache)),
        "fig2" => datasets::fig2(ctx, shared_stats(ctx, stats_cache)),
        "fig3" => datasets::fig3(ctx, shared_stats(ctx, stats_cache)),
        "table13" => datasets::table13(ctx, stats_cache.as_deref()),
        "fig4" => cases::fig4(ctx),
        "fig5" => cases::fig5(ctx),
        "fig6" => cases::fig6(ctx),
        "fig7" => cases::fig7(ctx),
        "fig8" => cases::fig8(ctx),
        "table4" => main_results::table4(ctx),
        "table5" => main_results::table5(ctx),
        "table6" => main_results::table6(ctx),
        "table9" => main_results::table9(ctx),
        "fig9" => main_results::fig9(ctx, shared_stats(ctx, stats_cache)),
        "fig10" => sweeps::fig10(ctx),
        "fig11" => sweeps::fig11(ctx),
        "fig12" => sweeps::fig12(ctx),
        "fig13" => sweeps::fig13(ctx),
        "fig14" => sweeps::fig14(ctx),
        "fig15" => sweeps::fig15(ctx),
        "fig16" => sweeps::fig16(ctx),
        "fig17" => sweeps::fig17(ctx),
        "fig18" => sweeps::fig18(ctx),
        "fig19" => sweeps::fig19(ctx),
        "table10" => sweeps::table10(ctx),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiment_ids_dispatch() {
        // Only checks the dispatch table is exhaustive; each driver has
        // its own tests. Use an unknown id for the None path.
        assert!(run_experiment("nope", &ExpContext::default(), &mut None).is_none());
        assert_eq!(ALL_EXPERIMENTS.len(), 26);
    }

    #[test]
    fn context_scales_registry() {
        let ctx = ExpContext {
            scale: 0.05,
            seeds: vec![0],
        };
        let reg = ctx.registry();
        assert_eq!(reg.len(), 55);
        assert!(reg.iter().all(|e| e.spec.n_rows <= 3_100));
        assert_eq!(ctx.selected_five().len(), 5);
    }
}
