//! Cross-crate integration: the full OEBench pipeline — registry →
//! generation → statistics extraction → representative selection →
//! prequential evaluation — exercised end to end at small scale.

#![expect(clippy::float_cmp, reason = "tests assert exact deterministic values")]

use oebench::prelude::*;

const SCALE: f64 = 0.02;

#[test]
fn full_pipeline_stats_selection_evaluation() {
    // Stage 1: generate a slice of the registry (one per domain family).
    let names = [
        "Electricity Prices",
        "Beijing Multi-Site Air-Quality Shunyi",
        "INSECTS-Abrupt (balanced)",
        "Safe Driver",
        "Power Consumption of Tetouan City",
        "Indian Cities Weather Delhi",
        "Room Occupancy Estimation",
    ];
    let entries: Vec<_> = oebench::synth::registry_scaled(SCALE)
        .into_iter()
        .filter(|e| names.contains(&e.spec.name.as_str()))
        .collect();
    assert_eq!(entries.len(), names.len());

    // Stage 2: extract open-environment statistics for each.
    let stats: Vec<OeStats> = entries
        .iter()
        .map(|e| {
            extract_stats(
                &oebench::synth::generate(&e.spec, 0),
                &StatsConfig::default(),
            )
        })
        .collect();
    for s in &stats {
        assert!(s.n_windows >= 2, "{} has too few windows", s.name);
        assert!(s.missing_cells >= 0.0 && s.missing_cells <= 1.0);
    }

    // Stage 3: cluster and select representatives.
    let selection = select_representatives(&stats, 3, 7);
    assert_eq!(selection.representatives.len(), 3);

    // Stage 4: evaluate a learner on each representative, prequentially.
    for &rep in &selection.representatives {
        let dataset = oebench::synth::generate(&entries[rep].spec, 0);
        let result = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default())
            .expect("DT applies to both tasks");
        assert!(
            result.mean_loss.is_finite(),
            "{} diverged under DT",
            dataset.name
        );
    }
}

#[test]
fn every_algorithm_completes_on_both_task_types() {
    let reg = oebench::synth::registry_scaled(SCALE);
    let clf = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let regr = reg
        .iter()
        .find(|e| e.spec.name == "Power Consumption of Tetouan City")
        .unwrap();
    let mut cfg = HarnessConfig::default();
    cfg.learner.epochs = 2;

    for entry in [clf, regr] {
        let dataset = oebench::synth::generate(&entry.spec, 0);
        for alg in Algorithm::all() {
            match run_stream(&dataset, alg, &cfg) {
                Some(result) => {
                    assert!(
                        !result.per_window_loss.is_empty(),
                        "{} produced no windows on {}",
                        alg.name(),
                        dataset.name
                    );
                    assert!(result.memory_bytes > 0);
                }
                None => {
                    // Only ARF on regression is allowed to be N/A.
                    assert_eq!(alg, Algorithm::Arf);
                    assert!(!dataset.task.is_classification());
                }
            }
        }
    }
}

#[test]
fn detectors_fire_on_drifting_streams_not_stationary_ones() {
    let reg = oebench::synth::registry_scaled(0.04);
    let drifting = reg
        .iter()
        .find(|e| e.spec.name == "Power Consumption of Tetouan City")
        .unwrap();
    let stationary = reg.iter().find(|e| e.spec.name == "Safe Driver").unwrap();

    let score = |entry: &oebench::synth::DatasetEntry| -> f64 {
        let d = oebench::synth::generate(&entry.spec, 0);
        extract_stats(&d, &StatsConfig::default()).drift_score()
    };
    let drift_score = score(drifting);
    let stationary_score = score(stationary);
    assert!(
        drift_score > stationary_score,
        "drifting {drift_score} <= stationary {stationary_score}"
    );
}

#[test]
fn seeded_runs_are_reproducible() {
    let reg = oebench::synth::registry_scaled(SCALE);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 5);
    let a = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    let b = run_stream(&dataset, Algorithm::NaiveDt, &HarnessConfig::default()).unwrap();
    assert_eq!(a.per_window_loss, b.per_window_loss);
    assert_eq!(a.mean_loss, b.mean_loss);
}

#[test]
fn window_scaling_preserves_total_coverage() {
    let reg = oebench::synth::registry_scaled(SCALE);
    let entry = reg
        .iter()
        .find(|e| e.spec.name == "Electricity Prices")
        .unwrap();
    let dataset = oebench::synth::generate(&entry.spec, 0);
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let windows = dataset.windows_scaled(factor);
        assert_eq!(windows.first().unwrap().start, 0);
        assert_eq!(windows.last().unwrap().end, dataset.n_rows());
    }
}
