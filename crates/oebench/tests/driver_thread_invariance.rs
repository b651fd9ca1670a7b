//! Thread-count invariance of the experiment drivers that fan their
//! grids out over the executor: a sweep whose grid includes SEA-NN
//! (Figure 19), a loss-curve grid (Figure 16), and the §4.3 statistics
//! behind Tables 3 and 13, which share one stats cache. Table 13 also
//! runs alone, with no shared cache, and must match.
//!
//! One test only: the worker count is the process-global default set by
//! `set_default_threads`, so two tests in this binary would race on it.

use oeb_core::experiments::{run_experiment, ExpContext};
use oeb_core::{extract_stats, set_default_threads, OeStats};
use serde_json::{json, Value};

/// `value` without its wall-clock `train_seconds` fields, at any depth.
fn strip_timing(value: &Value) -> Value {
    match value {
        Value::Object(map) => {
            let mut out = serde_json::Map::new();
            for (k, v) in map.iter().filter(|(k, _)| k.as_str() != "train_seconds") {
                out.insert(k.clone(), strip_timing(v));
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

const ARTIFACTS: [&str; 4] = ["fig19", "fig16", "table3", "table13"];

/// Runs the artifacts at `threads` workers with one shared stats cache,
/// then Table 13 alone with an empty cache; returns each shared-cache
/// artifact's timing-free JSON, the standalone Table 13 JSON and the
/// filled cache.
fn run_at(ctx: &ExpContext, threads: usize) -> (Vec<Value>, Value, Vec<OeStats>) {
    set_default_threads(Some(threads));
    let mut stats_cache = None;
    let outputs = ARTIFACTS
        .iter()
        .map(|id| {
            let out = run_experiment(id, ctx, &mut stats_cache).expect("known experiment id");
            strip_timing(&out.json)
        })
        .collect();
    let standalone = run_experiment("table13", ctx, &mut None).expect("known experiment id");
    set_default_threads(None);
    (
        outputs,
        strip_timing(&standalone.json),
        stats_cache.expect("table3 fills the stats cache"),
    )
}

/// Compact serialisation, for byte-equality assertions.
fn text(value: &Value) -> String {
    serde_json::to_string(value).expect("JSON serialises")
}

#[test]
fn fanned_out_drivers_are_thread_count_invariant() {
    let ctx = ExpContext {
        scale: 0.02,
        seeds: vec![0],
    };
    // Four workers first, while the synth and prepare caches are cold.
    let (four, four_standalone, cache) = run_at(&ctx, 4);
    let (one, one_standalone, _) = run_at(&ctx, 1);
    for ((id, a), b) in ARTIFACTS.iter().zip(&one).zip(&four) {
        assert_eq!(text(a), text(b), "{id} differs between 1 and 4 workers");
    }

    // Table 13 without a shared cache extracts its ten datasets itself;
    // at either worker count it must equal the shared-cache output.
    for (threads, standalone) in [(1, &one_standalone), (4, &four_standalone)] {
        assert_eq!(
            text(standalone),
            text(&four[3]),
            "standalone table13 at {threads} workers differs from the shared-cache table13"
        );
    }

    // Table 13 read its rows from the shared cache; each must equal a
    // direct, uncached extraction of its dataset.
    let registry = ctx.registry();
    let rows = four[3]["cases"].as_array().expect("table13 rows");
    assert_eq!(rows.len(), 10);
    for row in rows {
        let name = row["name"].as_str().expect("row name");
        let i = registry
            .iter()
            .position(|e| e.spec.name == name)
            .expect("case-study dataset in registry");
        let direct = extract_stats(&oeb_synth::generate(&registry[i].spec, 0));
        assert_eq!(cache[i].field_bits(), direct.field_bits(), "{name}");
        assert_eq!(row["drift_score"], json!(direct.drift_score()), "{name}");
        assert_eq!(
            row["concept_score"],
            json!(direct.concept_score()),
            "{name}"
        );
    }
}
