//! One cold run of a workload. The orchestrator starts each run as a
//! fresh process, so the `run_matrix` memo, the synth cache and the
//! prepare cache start empty, as they do for every `repro` invocation.
//!
//! The run prints [`READY`] on stdout when set-up is done and the first
//! artifact call is next, then one JSON line with its measurements.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use oeb_core::experiments::run_experiment;
use oeb_trace::{SpanDef, Stopwatch};
use serde_json::{json, Value};

use crate::host;
use crate::layers::{self, LayerInput, ARTIFACT_SPAN};
use crate::workload::{self, Workload};

/// The line that ends set-up.
pub const READY: &str = "ready";

static ARTIFACT: SpanDef = SpanDef::new(ARTIFACT_SPAN);

/// What one run executes.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// The artifact set.
    pub workload: &'static Workload,
    /// The run's seed (`ExpContext.seeds`).
    pub seed: u64,
    /// Worker threads (`--threads` of `repro`).
    pub threads: usize,
    /// Record spans and counters.
    pub trace: bool,
    /// Stop after set-up (a set-up time sample only).
    pub setup_only: bool,
}

/// Runs the workload once in this process and returns its result line.
pub fn run(spec: &RunSpec) -> Value {
    // Set-up, as `repro` does it: the process-wide worker count, the
    // experiment context, tracing.
    oeb_core::set_default_threads(Some(spec.threads));
    let ctx = spec.workload.context(spec.seed);
    if spec.trace {
        oeb_trace::enable();
    }
    let mut stats_cache = None;
    println!("{READY}");
    let _ = std::io::stdout().flush();
    if spec.setup_only {
        return json!({});
    }

    let cpu0 = host::cpu_seconds();
    let total = Stopwatch::start();
    let mut outputs: Vec<(&str, Option<Value>, f64)> = Vec::new();
    for &id in spec.workload.artifacts {
        let watch = Stopwatch::start();
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_experiment(id, &ctx, &mut stats_cache)
        }));
        let secs = watch.stop(&ARTIFACT);
        outputs.push((id, out.ok().flatten().map(|o| o.json), secs));
    }
    let wall_s = total.elapsed_seconds();
    let cpu_s = host::cpu_seconds() - cpu0;

    let digest_input: Vec<(&str, Option<&Value>)> =
        outputs.iter().map(|(id, j, _)| (*id, j.as_ref())).collect();
    let (attempted, failed) = outputs
        .iter()
        .map(|(id, j, _)| workload::cell_counts(id, j.as_ref()))
        .fold((0, 0), |(a, f), (da, df)| (a + da, f + df));
    let artifacts: Vec<(&str, f64)> = outputs.iter().map(|(id, _, s)| (*id, *s)).collect();
    let mut artifact_secs = serde_json::Map::new();
    for (id, secs) in &artifacts {
        artifact_secs.insert(*id, json!(*secs));
    }
    let mut result = json!({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": host::peak_rss_mb(),
        "digest": workload::output_digest(&digest_input),
        "cells_attempted": attempted,
        "cells_failed": failed,
        "artifacts": Value::Object(artifact_secs),
    });
    if spec.trace {
        let (layer_values, slowest) = trace_layers(&artifacts, cpu_s, wall_s, spec.threads);
        if let Some(obj) = result.as_object_mut() {
            obj.insert("layers", layer_values);
            obj.insert("slowest", slowest);
        }
    }
    result
}

/// Drains the run's trace, parses it back with `oeb_bench::profile`
/// and computes the per-layer metrics and the slowest cells.
fn trace_layers(
    artifacts: &[(&str, f64)],
    cpu_s: f64,
    wall_s: f64,
    threads: usize,
) -> (Value, Value) {
    let counters = oeb_trace::snapshot().counters;
    let events = oeb_trace::drain_events();
    let mut text = String::new();
    for (id, ev) in events.iter().enumerate() {
        text.push_str(&oeb_trace::render_trace_event(id, ev));
        text.push('\n');
    }
    text.push_str(&oeb_trace::render_trace_footer(
        events.len(),
        oeb_trace::dropped_events(),
    ));
    text.push('\n');
    let trace =
        oeb_bench::profile::parse_trace(&text).expect("the trace crate writes valid traces");
    let metrics = layers::layer_metrics(&LayerInput {
        spans: &trace.spans,
        counters: &counters,
        artifacts,
        cpu_s,
        wall_s,
        threads,
    });
    let mut values = serde_json::Map::new();
    for (name, v) in metrics {
        values.insert(name, json!(v));
    }
    // One seed per run, so `analyze`'s (dataset, learner, seed) cells
    // are the (dataset, learner) cells, slowest first.
    let slowest: Vec<Value> = oeb_bench::profile::analyze(&trace, 1)
        .cells
        .iter()
        .take(5)
        .map(|c| json!({"dataset": c.dataset, "learner": c.learner, "ms": c.wall_ns as f64 / 1e6}))
        .collect();
    (Value::Object(values), Value::Array(slowest))
}
