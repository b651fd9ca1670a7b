//! The headline result tables: Table 4 (test loss of all ten algorithms
//! on the five representative datasets), Table 5 (throughput), Table 6
//! (memory), Table 9 (the full 55-dataset sweep) and Figure 9 (the
//! recommendation decision tree).

use super::datasets::level_labels;
use super::{json_f64, ExpContext, ExperimentOutput};
use crate::harness::{run_seeds, HarnessConfig};
use crate::learners::Algorithm;
use crate::recommend::render_tree;
use crate::report::{fmt_summary, TextTable};
use crate::stats::OeStats;
use oeb_synth::DatasetEntry;
use parking_lot::Mutex;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One `(dataset, algorithm)` cell of a result matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// `(mean, std)` of the mean loss over seeds; `None` = N/A.
    pub summary: Option<(f64, f64)>,
    /// Mean throughput (items/s) over seeds.
    pub throughput: f64,
    /// Mean peak memory (KB) over seeds.
    pub memory_kb: f64,
}

/// Runs a dataset x algorithm result matrix under the prequential
/// harness; results are memoized per (scale, seeds, dataset-set) within
/// the process so Table 4/5/6 share one sweep.
pub fn run_matrix(
    ctx: &ExpContext,
    entries: &[DatasetEntry],
    algorithms: &[Algorithm],
) -> Arc<Vec<MatrixCell>> {
    static CACHE: Mutex<BTreeMap<String, Arc<Vec<MatrixCell>>>> = Mutex::new(BTreeMap::new());
    let key = format!(
        "{:.4}|{:?}|{}|{}",
        ctx.scale,
        ctx.seeds,
        entries
            .iter()
            .map(|e| e.spec.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
        algorithms.len(),
    );
    if let Some(cached) = CACHE.lock().get(&key) {
        return cached.clone();
    }

    // Fan the (dataset x algorithm) grid across workers; collection is
    // in grid order, so the matrix is identical for every worker count.
    // Workers crossing the same dataset share its prepared stream
    // through the prepare cache instead of preprocessing it per learner.
    let threads = crate::executor::resolve_threads(None);
    let grid: Vec<(usize, usize)> = (0..entries.len())
        .flat_map(|e| (0..algorithms.len()).map(move |a| (e, a)))
        .collect();
    let cells = crate::executor::parallel_map(grid.len(), threads, |i| {
        let (e, a) = grid[i];
        let (entry, alg) = (&entries[e], algorithms[a]);
        let cfg = HarnessConfig::default();
        let (summary, results) = run_seeds(
            |seed| oeb_synth::generate_cached(&entry.spec, seed),
            alg,
            &cfg,
            &ctx.seeds,
        );
        let throughput = if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| r.throughput).sum::<f64>() / results.len() as f64
        };
        let memory_kb = if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| r.memory_bytes as f64).sum::<f64>()
                / results.len() as f64
                / 1024.0
        };
        MatrixCell {
            dataset: entry.spec.name.clone(),
            algorithm: alg,
            summary,
            throughput,
            memory_kb,
        }
    });
    let arc = Arc::new(cells);
    CACHE.lock().insert(key, arc.clone());
    arc
}

fn short_name(entry: &DatasetEntry) -> String {
    entry
        .selected
        .map(str::to_string)
        .unwrap_or_else(|| entry.spec.name.clone())
}

fn matrix_table(
    entries: &[DatasetEntry],
    algorithms: &[Algorithm],
    cells: &[MatrixCell],
    value_of: impl Fn(&MatrixCell) -> String,
) -> TextTable {
    let mut headers = vec!["Dataset".to_string()];
    headers.extend(algorithms.iter().map(|a| a.name().to_string()));
    let mut t = TextTable::new(headers);
    for entry in entries {
        let mut row = vec![short_name(entry)];
        for &alg in algorithms {
            let cell = cells
                .iter()
                .find(|c| c.dataset == entry.spec.name && c.algorithm == alg)
                .expect("matrix covers all pairs");
            row.push(value_of(cell));
        }
        t.row(row);
    }
    t
}

fn matrix_json(cells: &[MatrixCell]) -> serde_json::Value {
    serde_json::Value::Array(
        cells
            .iter()
            .map(|c| {
                json!({
                    "dataset": c.dataset,
                    "algorithm": c.algorithm.name(),
                    "loss_mean": c.summary.map(|(m, _)| json_f64(m)),
                    "loss_std": c.summary.map(|(_, s)| json_f64(s)),
                    "throughput": json_f64(c.throughput),
                    "memory_kb": json_f64(c.memory_kb),
                })
            })
            .collect(),
    )
}

/// Table 4: test loss / error of the ten algorithms on the five
/// representative datasets (mean ± std over the context seeds).
pub fn table4(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algorithms = Algorithm::all();
    let cells = run_matrix(ctx, &entries, &algorithms);
    let t = matrix_table(&entries, &algorithms, &cells, |c| fmt_summary(c.summary));
    ExperimentOutput {
        id: "table4",
        title: "Test loss / error of stream learning algorithms (5 selected datasets)",
        text: t.render(),
        json: json!({ "cells": matrix_json(&cells) }),
    }
}

/// Table 5: throughput (items/s) of the algorithms on the five selected
/// datasets.
pub fn table5(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algorithms = Algorithm::all();
    let cells = run_matrix(ctx, &entries, &algorithms);
    let t = matrix_table(&entries, &algorithms, &cells, |c| {
        if c.throughput > 0.0 {
            format!("{:.0}", c.throughput)
        } else {
            "N/A".into()
        }
    });
    ExperimentOutput {
        id: "table5",
        title: "Throughput (items/s) of stream learning algorithms",
        text: t.render(),
        json: json!({ "cells": matrix_json(&cells) }),
    }
}

/// Table 6: peak model memory (KB) of the algorithms on the five
/// selected datasets.
pub fn table6(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.selected_five();
    let algorithms = Algorithm::all();
    let cells = run_matrix(ctx, &entries, &algorithms);
    let t = matrix_table(&entries, &algorithms, &cells, |c| {
        if c.memory_kb > 0.0 {
            format!("{:.1}", c.memory_kb)
        } else {
            "N/A".into()
        }
    });
    ExperimentOutput {
        id: "table6",
        title: "Memory consumption (KB) of stream learning algorithms",
        text: t.render(),
        json: json!({ "cells": matrix_json(&cells) }),
    }
}

/// Table 9: the appendix sweep over all 55 datasets and the nine
/// algorithm columns the paper reports there (ARF excluded).
pub fn table9(ctx: &ExpContext) -> ExperimentOutput {
    let entries = ctx.registry();
    let algorithms: Vec<Algorithm> = Algorithm::all()
        .into_iter()
        .filter(|a| *a != Algorithm::Arf)
        .collect();
    let cells = run_matrix(ctx, &entries, &algorithms);
    let t = matrix_table(&entries, &algorithms, &cells, |c| fmt_summary(c.summary));

    // Per-dataset winner counts, the evidence for "no silver bullet".
    // Every algorithm within 2% of the dataset's best loss counts as a
    // co-winner — declaring a single winner over a 0.296-vs-0.300 gap
    // would overstate how decisive the differences are.
    let mut wins: BTreeMap<&'static str, usize> = BTreeMap::new();
    for entry in &entries {
        let scored: Vec<(Algorithm, f64)> = algorithms
            .iter()
            .filter_map(|&a| {
                cells
                    .iter()
                    .find(|c| c.dataset == entry.spec.name && c.algorithm == a)
                    .and_then(|c| c.summary.map(|(m, _)| (a, m)))
            })
            .collect();
        let Some(best) = scored
            .iter()
            .map(|&(_, m)| m)
            .min_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal))
        else {
            continue;
        };
        for (alg, m) in scored {
            if m <= best * 1.02 + 1e-9 {
                *wins.entry(alg.name()).or_default() += 1;
            }
        }
    }
    let mut win_rows: Vec<(&str, usize)> = wins.iter().map(|(k, v)| (*k, *v)).collect();
    // Most wins first; co-winners with equal counts stay in name order.
    win_rows.sort_by_key(|&(name, n)| (std::cmp::Reverse(n), name));
    let mut wins_text =
        String::from("\nCo-winner counts (within 2% of each dataset's best; no silver bullet):\n");
    for (alg, n) in &win_rows {
        wins_text.push_str(&format!("  {alg}: {n}\n"));
    }

    ExperimentOutput {
        id: "table9",
        title: "Test loss / error on all 55 datasets",
        text: format!("{}{}", t.render(), wins_text),
        json: json!({
            "cells": matrix_json(&cells),
            "wins": win_rows.iter().map(|(a, n)| json!({"algorithm": a, "wins": n})).collect::<Vec<_>>(),
        }),
    }
}

/// Figure 9: the recommendation decision tree, plus the concrete
/// recommendation for each dataset's measured scenario.
pub fn fig9(ctx: &ExpContext, stats: &[OeStats]) -> ExperimentOutput {
    let registry = ctx.registry();
    let (drift, anomaly, missing) = level_labels(stats);
    let level_of = |label: &str| match label {
        "Low" => oeb_synth::Level::Low,
        "Medium low" => oeb_synth::Level::MediumLow,
        "Medium high" => oeb_synth::Level::MediumHigh,
        _ => oeb_synth::Level::High,
    };
    let mut t = TextTable::new(vec![
        "Dataset",
        "Task",
        "Drift",
        "Anomaly",
        "Missing",
        "Recommended",
    ]);
    let mut rows_json = Vec::new();
    for (i, e) in registry.iter().enumerate() {
        let scenario = crate::recommend::Scenario {
            classification: e.is_classification(),
            drift: level_of(drift[i]),
            anomaly: level_of(anomaly[i]),
            missing: level_of(missing[i]),
            resource_constrained: false,
        };
        let recs = crate::recommend::recommend(&scenario);
        let names: Vec<&str> = recs.iter().map(|a| a.name()).collect();
        t.row(vec![
            e.spec.name.clone(),
            if e.is_classification() { "clf" } else { "reg" }.to_string(),
            drift[i].to_string(),
            anomaly[i].to_string(),
            missing[i].to_string(),
            names.join(", "),
        ]);
        rows_json.push(json!({
            "dataset": e.spec.name,
            "drift": drift[i], "anomaly": anomaly[i], "missing": missing[i],
            "recommended": names,
        }));
    }
    ExperimentOutput {
        id: "fig9",
        title: "Recommended algorithms per open-environment scenario",
        text: format!("{}\n{}", render_tree(), t.render()),
        json: json!({ "recommendations": rows_json }),
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
    fn table4_has_50_cells_with_two_na() {
        let out = table4(&tiny_ctx());
        let cells = out.json["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 50);
        // ARF on the two regression datasets (AIR, POWER) is N/A.
        let na = cells
            .iter()
            .filter(|c| c["algorithm"] == "ARF" && c["loss_mean"].is_null())
            .count();
        assert_eq!(na, 2);
    }

    #[test]
    fn run_matrix_is_memoized() {
        let ctx = tiny_ctx();
        let entries = ctx.selected_five();
        let a = run_matrix(&ctx, &entries, &Algorithm::all());
        let b = run_matrix(&ctx, &entries, &Algorithm::all());
        assert!(Arc::ptr_eq(&a, &b), "second call should hit the cache");
    }

    #[test]
    fn trees_dominate_nn_throughput() {
        let ctx = tiny_ctx();
        let entries = ctx.selected_five();
        let cells = run_matrix(&ctx, &entries, &Algorithm::all());
        let mean_tp = |alg: Algorithm| {
            let v: Vec<f64> = cells
                .iter()
                .filter(|c| c.algorithm == alg && c.throughput > 0.0)
                .map(|c| c.throughput)
                .collect();
            oeb_linalg::mean(&v)
        };
        // The paper's Table 5 ordering: DT >> NN. (The full DT >> ARF gap
        // also holds, but only at realistic scales — window sizes at this
        // test's 2% scale are too small for wall-clock comparisons, so
        // that ordering is verified by the `repro table5` run instead.)
        assert!(mean_tp(Algorithm::NaiveDt) > mean_tp(Algorithm::NaiveNn));
    }

    #[test]
    fn nn_memory_is_constant_and_trees_small() {
        let ctx = tiny_ctx();
        let entries = ctx.selected_five();
        let cells = run_matrix(&ctx, &entries, &Algorithm::all());
        let nn: Vec<f64> = cells
            .iter()
            .filter(|c| c.algorithm == Algorithm::NaiveNn)
            .map(|c| c.memory_kb)
            .collect();
        // NN model size varies only with input width, not dataset length.
        assert!(nn.iter().all(|&m| m > 1.0 && m < 200.0));
        let sea_nn = cells
            .iter()
            .find(|c| c.algorithm == Algorithm::SeaNn)
            .unwrap();
        let naive_nn = cells
            .iter()
            .find(|c| c.algorithm == Algorithm::NaiveNn && c.dataset == sea_nn.dataset)
            .unwrap();
        assert!(sea_nn.memory_kb > 2.0 * naive_nn.memory_kb);
    }
}
