//! Dataset-collection experiments: Table 2 (size/feature histograms),
//! Table 3 (the five selected representatives), Figure 2 (clustering
//! coordinates), Figure 3 (box-plot statistics), and Table 13 (the
//! drift-type audit of the case-study streams).

use super::{ExpContext, ExperimentOutput};
use crate::executor::{parallel_map, resolve_threads};
use crate::report::{assign_levels, TextTable};
use crate::select::select_representatives;
use crate::stats::OeStats;
use oeb_linalg::five_number;
use oeb_synth::DriftPattern;
use serde_json::json;

/// Table 2: histogram of the collected datasets by paper-reported
/// instance count and feature count.
pub fn table2(ctx: &ExpContext) -> ExperimentOutput {
    let registry = ctx.registry();
    let size_bucket = |n: usize| match n {
        0..=20_000 => 0,
        20_001..=50_000 => 1,
        50_001..=200_000 => 2,
        _ => 3,
    };
    let feat_bucket = |n: usize| match n {
        0..=10 => 0,
        11..=20 => 1,
        21..=50 => 2,
        _ => 3,
    };
    let mut sizes = [0usize; 4];
    let mut feats = [0usize; 4];
    for e in &registry {
        sizes[size_bucket(e.paper_rows)] += 1;
        feats[feat_bucket(e.paper_features)] += 1;
    }
    let mut t = TextTable::new(vec![
        "Size",
        "5,000-20,000",
        "20,001-50,000",
        "50,001-200,000",
        ">200,000",
    ]);
    t.row(vec![
        "#Datasets (OEBench-rs)".to_string(),
        sizes[0].to_string(),
        sizes[1].to_string(),
        sizes[2].to_string(),
        sizes[3].to_string(),
    ]);
    let mut f = TextTable::new(vec!["#Features", "5-10", "11-20", "21-50", ">50"]);
    f.row(vec![
        "#Datasets (OEBench-rs)".to_string(),
        feats[0].to_string(),
        feats[1].to_string(),
        feats[2].to_string(),
        feats[3].to_string(),
    ]);
    ExperimentOutput {
        id: "table2",
        title: "Histogram information of the collected datasets",
        text: format!("{}\n{}", t.render(), f.render()),
        json: json!({"size_histogram": sizes.to_vec(), "feature_histogram": feats.to_vec()}),
    }
}

/// The drift / anomaly / missing level labels of each dataset, assigned
/// by quartile across the collection.
pub fn level_labels(
    stats: &[OeStats],
) -> (Vec<&'static str>, Vec<&'static str>, Vec<&'static str>) {
    let drift: Vec<f64> = stats
        .iter()
        .map(|s| (s.drift_score() + s.concept_score()) / 2.0)
        .collect();
    let anomaly: Vec<f64> = stats.iter().map(OeStats::anomaly_score).collect();
    let missing: Vec<f64> = stats.iter().map(OeStats::missing_score).collect();
    (
        assign_levels(&drift).iter().map(|l| l.label()).collect(),
        assign_levels(&anomaly).iter().map(|l| l.label()).collect(),
        assign_levels(&missing).iter().map(|l| l.label()).collect(),
    )
}

/// Table 3: the five selected representative datasets with their
/// open-environment level labels.
pub fn table3(ctx: &ExpContext, stats: &[OeStats]) -> ExperimentOutput {
    let registry = ctx.registry();
    let (drift, anomaly, missing) = level_labels(stats);
    let mut t = TextTable::new(vec![
        "Dataset",
        "Instances (paper)",
        "Features",
        "Type",
        "Task",
        "Missing value ratio",
        "Drift ratio",
        "Anomaly ratio",
    ]);
    let mut rows_json = Vec::new();
    for (i, e) in registry.iter().enumerate() {
        if e.selected.is_none() {
            continue;
        }
        let task = if e.is_classification() {
            "Classification"
        } else {
            "Regression"
        };
        t.row(vec![
            e.spec.name.clone(),
            e.paper_rows.to_string(),
            e.paper_features.to_string(),
            e.spec.domain.name().to_string(),
            task.to_string(),
            missing[i].to_string(),
            drift[i].to_string(),
            anomaly[i].to_string(),
        ]);
        rows_json.push(json!({
            "name": e.spec.name,
            "short": e.selected,
            "missing": missing[i],
            "drift": drift[i],
            "anomaly": anomaly[i],
        }));
    }
    ExperimentOutput {
        id: "table3",
        title: "Five selected representative datasets",
        text: t.render(),
        json: json!({ "selected": rows_json }),
    }
}

/// Figure 2: 3-D PCA coordinates per open-environment dimension with the
/// K-Means cluster assignment and the selected representatives.
pub fn fig2(ctx: &ExpContext, stats: &[OeStats]) -> ExperimentOutput {
    let registry = ctx.registry();
    let sel = select_representatives(stats, 5, 42);
    let group_names = ["basic", "missing", "data-drift", "concept-drift", "outlier"];
    let mut t = TextTable::new(vec![
        "Dataset",
        "Cluster",
        "Representative",
        "Task",
        "missing-xyz",
        "drift-xyz",
        "outlier-xyz",
    ]);
    let mut rows_json = Vec::new();
    for (i, s) in stats.iter().enumerate() {
        let coords = |g: usize| -> String {
            let row = sel.group_coords[g].row(i);
            format!("({:.2}, {:.2}, {:.2})", row[0], row[1], row[2])
        };
        let rep = if sel.representatives.contains(&i) {
            "*"
        } else {
            ""
        };
        t.row(vec![
            s.name.clone(),
            sel.assignments[i].to_string(),
            rep.to_string(),
            if s.classification { "clf" } else { "reg" }.to_string(),
            coords(1),
            coords(2),
            coords(4),
        ]);
        rows_json.push(json!({
            "name": s.name,
            "cluster": sel.assignments[i],
            "representative": sel.representatives.contains(&i),
            "coords": group_names
                .iter()
                .enumerate()
                .map(|(g, n)| (n.to_string(), sel.group_coords[g].row(i).to_vec()))
                .collect::<std::collections::BTreeMap<_, _>>(),
        }));
    }
    let reps: Vec<String> = sel
        .representatives
        .iter()
        .map(|&i| registry[i].spec.name.clone())
        .collect();
    ExperimentOutput {
        id: "fig2",
        title: "Clustering of datasets in the open-environment feature space",
        text: format!("{}\nRepresentatives: {}\n", t.render(), reps.join(", ")),
        json: json!({"datasets": rows_json, "representatives": reps}),
    }
}

/// Figure 3: box-plot statistics (five-number summaries) of the
/// open-environment scores, full collection vs the selected five.
pub fn fig3(ctx: &ExpContext, stats: &[OeStats]) -> ExperimentOutput {
    let registry = ctx.registry();
    let selected_idx: Vec<usize> = registry
        .iter()
        .enumerate()
        .filter(|(_, e)| e.selected.is_some())
        .map(|(i, _)| i)
        .collect();

    let score = |name: &str, s: &OeStats| -> f64 {
        match name {
            "missing" => s.missing_score(),
            "drift" => s.drift_score(),
            "concept" => s.concept_score(),
            _ => s.anomaly_score(),
        }
    };
    let mut t = TextTable::new(vec![
        "Statistic",
        "Group",
        "min",
        "q1",
        "median",
        "q3",
        "max",
    ]);
    let mut json_rows = Vec::new();
    for stat_name in ["missing", "drift", "concept", "anomaly"] {
        let all: Vec<f64> = stats.iter().map(|s| score(stat_name, s)).collect();
        let sel: Vec<f64> = selected_idx
            .iter()
            .map(|&i| score(stat_name, &stats[i]))
            .collect();
        for (group, values) in [("explored", &all), ("selected", &sel)] {
            let f = five_number(values);
            t.row(vec![
                stat_name.to_string(),
                group.to_string(),
                format!("{:.3}", f.min),
                format!("{:.3}", f.q1),
                format!("{:.3}", f.median),
                format!("{:.3}", f.q3),
                format!("{:.3}", f.max),
            ]);
            json_rows.push(json!({
                "statistic": stat_name, "group": group,
                "min": f.min, "q1": f.q1, "median": f.median, "q3": f.q3, "max": f.max,
            }));
        }
    }
    ExperimentOutput {
        id: "fig3",
        title: "Distribution of open-environment statistics (explored vs selected)",
        text: t.render(),
        json: json!({ "boxes": json_rows }),
    }
}

/// Table 13: drift-type audit of the case-study datasets — the declared
/// generator pattern vs what the detectors measure.
///
/// Each row is [`ExpContext::entry_stats`], exactly a row of
/// [`ExpContext::stats_all`]. `shared` is the run's
/// stats cache: when it is filled the rows are read from it, otherwise
/// only the ten case-study datasets are extracted, over the executor.
pub fn table13(ctx: &ExpContext, shared: Option<&[OeStats]>) -> ExperimentOutput {
    let case_names = [
        "Italian City Air Quality",
        "Beijing Multi-Site Air-Quality Tiantan",
        "Beijing PM2.5",
        "5 cities PM2.5 (Beijing)",
        "Power Consumption of Tetouan City",
        "Household Electric Consumption",
        "BitcoinHeistRansomwareAddress",
        "BLE RSSI Indoor Localization",
        "Electricity Prices",
        "Airlines",
    ];
    let registry = ctx.registry();
    let cases: Vec<usize> = case_names
        .iter()
        .map(|&name| {
            registry
                .iter()
                .position(|e| e.spec.name == name)
                .expect("case-study dataset in registry")
        })
        .collect();
    let extracted: Vec<OeStats>;
    let case_stats: Vec<&OeStats> = match shared {
        Some(all) => cases.iter().map(|&i| &all[i]).collect(),
        None => {
            extracted = parallel_map(cases.len(), resolve_threads(None), |k| {
                ExpContext::entry_stats(&registry[cases[k]])
            });
            extracted.iter().collect()
        }
    };
    let mut t = TextTable::new(vec![
        "Dataset",
        "Problem type",
        "Pattern (generator)",
        "Drift frequency (measured)",
        "Concept drift (measured)",
    ]);
    let mut json_rows = Vec::new();
    for ((name, &i), stats) in case_names.iter().zip(&cases).zip(case_stats) {
        let entry = &registry[i];
        debug_assert_eq!(stats.name, entry.spec.name, "stats are in registry order");
        let pattern = match entry.spec.drift_pattern {
            DriftPattern::Stationary => "stationary",
            DriftPattern::Gradual => "gradual",
            DriftPattern::Abrupt { .. } => "abrupt",
            DriftPattern::Incremental => "incremental",
            DriftPattern::Recurrent { .. } => "gradual, recurrent",
            DriftPattern::IncrementalReoccurring { .. } => "incremental, reoccurring",
        };
        let mechanism = if matches!(
            entry.spec.task,
            oeb_synth::TaskSpec::Classification {
                mechanism: oeb_synth::LabelMechanism::YToX,
                ..
            }
        ) {
            "Y -> X"
        } else {
            "X -> Y"
        };
        let freq = if stats.drift_score() > 0.25 {
            "HIGH"
        } else {
            "LOW"
        };
        t.row(vec![
            name.to_string(),
            mechanism.to_string(),
            pattern.to_string(),
            format!("{} ({:.2})", freq, stats.drift_score()),
            format!("{:.2}", stats.concept_score()),
        ]);
        json_rows.push(json!({
            "name": name, "mechanism": mechanism, "pattern": pattern,
            "drift_score": stats.drift_score(), "concept_score": stats.concept_score(),
        }));
    }
    ExperimentOutput {
        id: "table13",
        title: "Summary of drift types on the case-study datasets",
        text: t.render(),
        json: json!({ "cases": json_rows }),
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
    fn table2_matches_paper_histogram() {
        let out = table2(&tiny_ctx());
        assert_eq!(
            out.json["size_histogram"],
            serde_json::json!([13, 17, 13, 12])
        );
        assert!(out.text.contains("OEBench-rs"));
    }

    #[test]
    fn table3_lists_exactly_five() {
        let ctx = tiny_ctx();
        let stats = ctx.stats_all();
        let out = table3(&ctx, &stats);
        assert_eq!(out.json["selected"].as_array().unwrap().len(), 5);
        assert!(out.text.contains("Room Occupancy Estimation"));
    }

    #[test]
    fn fig2_selects_five_representatives() {
        let ctx = tiny_ctx();
        let stats = ctx.stats_all();
        let out = fig2(&ctx, &stats);
        assert_eq!(out.json["representatives"].as_array().unwrap().len(), 5);
    }

    #[test]
    fn fig3_produces_eight_boxes() {
        let ctx = tiny_ctx();
        let stats = ctx.stats_all();
        let out = fig3(&ctx, &stats);
        assert_eq!(out.json["boxes"].as_array().unwrap().len(), 8);
    }
}
