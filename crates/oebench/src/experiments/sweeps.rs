//! Hyper-parameter and ablation sweeps: Figures 10–19 and Table 10 of
//! the paper.

use super::{json_f64, json_series, ExpContext, ExperimentOutput};
use crate::executor::{parallel_map, resolve_threads};
use crate::harness::{run_seeds, run_stream, HarnessConfig, ImputerChoice, OutlierRemoval};
use crate::learners::Algorithm;
use crate::report::{fmt_summary, TextTable};
use oeb_synth::DatasetEntry;
use serde_json::json;

/// One sweep cell.
struct SweepCell {
    dataset: String,
    algorithm: Algorithm,
    variant: String,
    summary: Option<(f64, f64)>,
    train_seconds: f64,
}

/// Runs `algorithms x variants` over `entries`, averaging over the
/// context seeds.
///
/// The (entry, algorithm, variant) grid fans out over the executor and
/// is collected in grid order, so the cells are identical at any worker
/// count. Workers crossing the same dataset share it through the synth
/// and prepare caches.
fn sweep(
    ctx: &ExpContext,
    entries: &[DatasetEntry],
    algorithms: &[Algorithm],
    variants: &[(String, HarnessConfig)],
) -> Vec<SweepCell> {
    let grid: Vec<(usize, usize, usize)> = (0..entries.len())
        .flat_map(|e| {
            (0..algorithms.len()).flat_map(move |a| (0..variants.len()).map(move |v| (e, a, v)))
        })
        .collect();
    parallel_map(grid.len(), resolve_threads(None), |i| {
        let (e, a, v) = grid[i];
        let (entry, alg, (variant, cfg)) = (&entries[e], algorithms[a], &variants[v]);
        let (summary, results) = run_seeds(
            |seed| oeb_synth::generate_cached(&entry.spec, seed),
            alg,
            cfg,
            &ctx.seeds,
        );
        let train_seconds = if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| r.train_seconds).sum::<f64>() / results.len() as f64
        };
        SweepCell {
            dataset: entry
                .selected
                .map(str::to_string)
                .unwrap_or_else(|| entry.spec.name.clone()),
            algorithm: alg,
            variant: variant.clone(),
            summary,
            train_seconds,
        }
    })
}

/// Renders a sweep as `dataset x algorithm` rows with one column per
/// variant.
fn sweep_output(
    id: &'static str,
    title: &'static str,
    variants: &[String],
    cells: &[SweepCell],
) -> ExperimentOutput {
    let mut headers = vec!["Dataset".to_string(), "Algorithm".to_string()];
    headers.extend(variants.iter().cloned());
    let mut t = TextTable::new(headers);
    let mut seen: Vec<(String, Algorithm)> = Vec::new();
    for c in cells {
        let key = (c.dataset.clone(), c.algorithm);
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    for (dataset, alg) in &seen {
        let mut row = vec![dataset.clone(), alg.name().to_string()];
        for v in variants {
            let cell = cells
                .iter()
                .find(|c| &c.dataset == dataset && c.algorithm == *alg && &c.variant == v)
                .expect("sweep covers all variants");
            row.push(fmt_summary(cell.summary));
        }
        t.row(row);
    }
    let json_cells: Vec<serde_json::Value> = cells
        .iter()
        .map(|c| {
            json!({
                "dataset": c.dataset,
                "algorithm": c.algorithm.name(),
                "variant": c.variant,
                "loss_mean": c.summary.map(|(m, _)| json_f64(m)),
                "loss_std": c.summary.map(|(_, s)| json_f64(s)),
                "train_seconds": json_f64(c.train_seconds),
            })
        })
        .collect();
    ExperimentOutput {
        id,
        title,
        text: t.render(),
        json: json!({ "cells": json_cells }),
    }
}

const NN_ALGS: [Algorithm; 5] = [
    Algorithm::NaiveNn,
    Algorithm::Ewc,
    Algorithm::Lwf,
    Algorithm::Icarl,
    Algorithm::SeaNn,
];

/// Figure 10: number of local epochs {1, 5, 10, 20} for the NN family.
pub fn fig10(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants: Vec<(String, HarnessConfig)> = [1usize, 5, 10, 20]
        .iter()
        .map(|&e| {
            let mut cfg = HarnessConfig::default();
            cfg.learner.epochs = e;
            (format!("epochs={e}"), cfg)
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let cells = sweep(ctx, &entries, &NN_ALGS, &variants);
    sweep_output(
        "fig10",
        "Test error / loss vs local epochs per window",
        &names,
        &cells,
    )
}

/// Figure 11: window-size factor {0.25, 0.5, 1, 2, 4} for NN and tree
/// families.
pub fn fig11(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algs = [
        Algorithm::NaiveNn,
        Algorithm::SeaNn,
        Algorithm::NaiveDt,
        Algorithm::NaiveGbdt,
        Algorithm::SeaDt,
    ];
    let variants: Vec<(String, HarnessConfig)> = [0.25, 0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&f| {
            (
                format!("window x{f}"),
                HarnessConfig {
                    window_factor: f,
                    ..Default::default()
                },
            )
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let cells = sweep(ctx, &entries, &algs, &variants);
    sweep_output("fig11", "Test error / loss vs window size", &names, &cells)
}

/// Figure 12: batch size {16, 32, 64, 128} for the NN family.
pub fn fig12(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants: Vec<(String, HarnessConfig)> = [16usize, 32, 64, 128]
        .iter()
        .map(|&b| {
            let mut cfg = HarnessConfig::default();
            cfg.learner.batch_size = b;
            (format!("batch={b}"), cfg)
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let cells = sweep(ctx, &entries, &NN_ALGS, &variants);
    sweep_output("fig12", "Test error / loss vs batch size", &names, &cells)
}

/// Figure 13: MLP depth — 3, 5 and 7 hidden layers with the paper's
/// layer widths.
pub fn fig13(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let depths: [(&str, Vec<usize>); 3] = [
        ("3 layers", vec![32, 16, 8]),
        ("5 layers", vec![32, 32, 16, 16, 8]),
        ("7 layers", vec![32, 32, 32, 16, 16, 16, 8]),
    ];
    let variants: Vec<(String, HarnessConfig)> = depths
        .iter()
        .map(|(name, hidden)| {
            let mut cfg = HarnessConfig::default();
            cfg.learner.hidden = hidden.clone();
            (name.to_string(), cfg)
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let algs = [Algorithm::NaiveNn, Algorithm::Icarl, Algorithm::SeaNn];
    let cells = sweep(ctx, &entries, &algs, &variants);
    sweep_output(
        "fig13",
        "Test error / loss vs number of hidden layers",
        &names,
        &cells,
    )
}

/// Figure 14: imputation methods on the AIR dataset — KNN with
/// k ∈ {2, 5, 10, 20}, regression, mean, zero.
pub fn fig14(ctx: &ExpContext) -> ExperimentOutput {
    let air: Vec<DatasetEntry> = ctx
        .selected_five()
        .into_iter()
        .filter(|e| e.selected == Some("AIR"))
        .collect();
    let imputers = [
        ImputerChoice::Knn(2),
        ImputerChoice::Knn(5),
        ImputerChoice::Knn(10),
        ImputerChoice::Knn(20),
        ImputerChoice::Regression,
        ImputerChoice::Mean,
        ImputerChoice::Zero,
    ];
    let variants: Vec<(String, HarnessConfig)> = imputers
        .iter()
        .map(|&imp| {
            (
                imp.name(),
                HarnessConfig {
                    imputer: imp,
                    ..Default::default()
                },
            )
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let algs = [Algorithm::NaiveNn, Algorithm::NaiveDt, Algorithm::SeaDt];
    let cells = sweep(ctx, &air, &algs, &variants);
    sweep_output(
        "fig14",
        "Test loss vs missing-value filling method (AIR)",
        &names,
        &cells,
    )
}

/// Figure 15: loss curves with and without drift (shuffled baseline) on
/// ROOM and AIR.
pub fn fig15(ctx: &ExpContext) -> ExperimentOutput {
    curve_experiment(
        ctx,
        "fig15",
        "Loss curves: drift vs shuffled (no drift)",
        &[("drift", false), ("no drift (shuffled)", true)],
        |cfg, &(_, shuffled)| cfg.shuffle = shuffled,
    )
}

/// Figure 16: loss curves with outlier removal (none / ECOD / IForest)
/// on ROOM and AIR.
pub fn fig16(ctx: &ExpContext) -> ExperimentOutput {
    curve_experiment(
        ctx,
        "fig16",
        "Loss curves with outlier removal before test/train",
        &[
            ("no removal", OutlierRemoval::None),
            ("ECOD", OutlierRemoval::Ecod),
            ("IForest", OutlierRemoval::IForest),
        ],
        |cfg, &(_, removal)| cfg.outlier_removal = removal,
    )
}

/// Shared driver for the ROOM/AIR per-window curve figures (15, 16): one
/// curve per variant per dataset, best-family algorithm per task (DT on
/// the classification stream, NN on the regression stream, as §6.7/6.8
/// plot their best performers).
///
/// The (target, variant) grid fans out over the executor; text and JSON
/// are built after collection, in grid order.
fn curve_experiment<V: Sync>(
    ctx: &ExpContext,
    id: &'static str,
    title: &'static str,
    variants: &[(&'static str, V)],
    apply: impl Fn(&mut HarnessConfig, &(&'static str, V)) + Sync,
) -> ExperimentOutput {
    let five = ctx.selected_five();
    let targets: Vec<(&DatasetEntry, Algorithm)> = five
        .iter()
        .filter_map(|e| match e.selected {
            Some("ROOM") => Some((e, Algorithm::NaiveDt)),
            Some("AIR") => Some((e, Algorithm::NaiveNn)),
            _ => None,
        })
        .collect();
    let seed = ctx.seeds.first().copied().unwrap_or(0);
    let grid: Vec<(usize, usize)> = (0..targets.len())
        .flat_map(|t| (0..variants.len()).map(move |v| (t, v)))
        .collect();
    let runs = parallel_map(grid.len(), resolve_threads(None), |i| {
        let (t, v) = grid[i];
        let (entry, alg) = targets[t];
        let mut cfg = HarnessConfig::default();
        apply(&mut cfg, &variants[v]);
        run_stream(&oeb_synth::generate_cached(&entry.spec, seed), alg, &cfg)
    });
    let mut text = String::new();
    let mut json_rows = Vec::new();
    for (&(t, v), run) in grid.iter().zip(&runs) {
        let Some(run) = run else {
            continue;
        };
        let (entry, alg) = targets[t];
        let variant = variants[v].0;
        let curve: Vec<String> = run
            .per_window_loss
            .iter()
            .map(|l| {
                if l.is_finite() {
                    format!("{l:.3}")
                } else {
                    "inf".into()
                }
            })
            .collect();
        text.push_str(&format!(
            "{} [{}] {}: mean {:.3}\n  {}\n",
            entry.selected.unwrap_or("?"),
            alg.name(),
            variant,
            run.mean_loss,
            curve.join(" ")
        ));
        json_rows.push(json!({
            "dataset": entry.selected,
            "algorithm": alg.name(),
            "variant": variant,
            "curve": json_series(&run.per_window_loss),
            "mean": json_f64(run.mean_loss),
        }));
    }
    ExperimentOutput {
        id,
        title,
        text,
        json: json!({ "curves": json_rows }),
    }
}

/// Figure 17: regularisation-factor sweep for EWC ({1e2..1e5}) and LwF
/// ({1e-3..10}).
pub fn fig17(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let mut variants: Vec<(String, HarnessConfig)> = Vec::new();
    for &lambda in &[1e2, 1e3, 1e4, 1e5] {
        let mut cfg = HarnessConfig::default();
        cfg.learner.ewc_lambda = lambda;
        variants.push((format!("EWC λ={lambda:.0e}"), cfg));
    }
    let names_ewc: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let ewc_cells = sweep(ctx, &entries, &[Algorithm::Ewc], &variants);
    let ewc = sweep_output("fig17", "", &names_ewc, &ewc_cells);

    let mut variants: Vec<(String, HarnessConfig)> = Vec::new();
    for &lambda in &[0.001, 0.01, 0.1, 1.0, 10.0] {
        let mut cfg = HarnessConfig::default();
        cfg.learner.lwf_lambda = lambda;
        variants.push((format!("LwF λ={lambda}"), cfg));
    }
    let names_lwf: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let lwf_cells = sweep(ctx, &entries, &[Algorithm::Lwf], &variants);
    let lwf = sweep_output("fig17", "", &names_lwf, &lwf_cells);

    ExperimentOutput {
        id: "fig17",
        title: "Test error / loss vs regularisation factor (EWC, LwF)",
        text: format!("{}\n{}", ewc.text, lwf.text),
        json: json!({ "ewc": ewc.json["cells"], "lwf": lwf.json["cells"] }),
    }
}

/// Figure 18: iCaRL exemplar-buffer size {20, 50, 100, 200, 500}.
pub fn fig18(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants: Vec<(String, HarnessConfig)> = [20usize, 50, 100, 200, 500]
        .iter()
        .map(|&b| {
            let mut cfg = HarnessConfig::default();
            cfg.learner.buffer_size = b;
            (format!("buffer={b}"), cfg)
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let cells = sweep(ctx, &entries, &[Algorithm::Icarl], &variants);
    sweep_output(
        "fig18",
        "Test error / loss vs iCaRL exemplar buffer size",
        &names,
        &cells,
    )
}

/// Figure 19: ensemble size {5, 10, 20, 40} for GBDT and the SEA
/// variants.
pub fn fig19(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants: Vec<(String, HarnessConfig)> = [5usize, 10, 20, 40]
        .iter()
        .map(|&e| {
            let mut cfg = HarnessConfig::default();
            cfg.learner.ensemble_size = e;
            (format!("ensemble={e}"), cfg)
        })
        .collect();
    let names: Vec<String> = variants.iter().map(|(n, _)| n.clone()).collect();
    let algs = [Algorithm::NaiveGbdt, Algorithm::SeaNn, Algorithm::SeaDt];
    let cells = sweep(ctx, &entries, &algs, &variants);
    sweep_output(
        "fig19",
        "Test error / loss vs ensemble size",
        &names,
        &cells,
    )
}

/// Table 10: training wall-clock per epochs setting for the NN family,
/// plus the epoch-independent tree algorithms.
///
/// Both grids fan out over the executor, so each cell's time is measured
/// while other cells run on the other workers: the figures depend on the
/// worker count and are comparable only within one run (`--threads 1`
/// gives uncontended times).
pub fn table10(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let variants: Vec<(String, HarnessConfig)> = [1usize, 5, 10, 20]
        .iter()
        .map(|&e| {
            let mut cfg = HarnessConfig::default();
            cfg.learner.epochs = e;
            (format!("epochs={e}"), cfg)
        })
        .collect();
    let nn_cells = sweep(ctx, &entries, &NN_ALGS, &variants);
    let tree_algs = [
        Algorithm::NaiveDt,
        Algorithm::NaiveGbdt,
        Algorithm::SeaDt,
        Algorithm::SeaGbdt,
        Algorithm::Arf,
    ];
    let default_variant = vec![("default".to_string(), HarnessConfig::default())];
    let tree_cells = sweep(ctx, &entries, &tree_algs, &default_variant);

    let mut t = TextTable::new(vec!["Dataset", "Algorithm", "Variant", "Train seconds"]);
    let mut json_rows = Vec::new();
    for c in nn_cells.iter().chain(tree_cells.iter()) {
        t.row(vec![
            c.dataset.clone(),
            c.algorithm.name().to_string(),
            c.variant.clone(),
            format!("{:.3}", c.train_seconds),
        ]);
        json_rows.push(json!({
            "dataset": c.dataset,
            "algorithm": c.algorithm.name(),
            "variant": c.variant,
            "train_seconds": json_f64(c.train_seconds),
        }));
    }
    ExperimentOutput {
        id: "table10",
        title: "Training time per epochs setting",
        text: t.render(),
        json: json!({ "rows": json_rows }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExpContext {
        ExpContext {
            scale: 0.02,
            seeds: vec![0],
        }
    }

    #[test]
    fn fig18_sweeps_five_buffer_sizes() {
        let out = fig18(&tiny_ctx());
        let cells = out.json["cells"].as_array().unwrap();
        // 5 datasets x 1 algorithm x 5 variants.
        assert_eq!(cells.len(), 25);
    }

    #[test]
    fn fig15_produces_curves_for_both_modes() {
        let out = fig15(&tiny_ctx());
        let curves = out.json["curves"].as_array().unwrap();
        assert_eq!(curves.len(), 4); // 2 datasets x 2 variants
    }

    #[test]
    fn table10_reports_monotone_nn_time_in_epochs() {
        let out = table10(&tiny_ctx());
        let rows = out.json["rows"].as_array().unwrap();
        let time_of = |variant: &str| -> f64 {
            rows.iter()
                .filter(|r| r["algorithm"] == "Naive-NN" && r["variant"] == variant)
                .map(|r| r["train_seconds"].as_f64().unwrap())
                .sum()
        };
        assert!(time_of("epochs=20") > time_of("epochs=1"));
    }
}
