//! Per-layer metrics of one traced run, computed from the run's span
//! trace (parsed with `oeb_bench::profile`) and its counter snapshot.
//!
//! Self times subtract the child spans a span covers on the same worker
//! slot: `cell.run` nests `prepare.*` and `evaluate.*`, `executor.task`
//! nests `cell.run`. The executor figures are computed here rather than
//! taken from `oeb_bench::profile::analyze`, whose utilization divides
//! by every slot that recorded a span, the idle coordinator included.

use std::collections::BTreeMap;

use oeb_bench::profile::TraceSpan;
use oeb_core::Algorithm;

use crate::workload::WORKLOADS;

/// Span the benchmark records around each artifact call.
pub const ARTIFACT_SPAN: &str = "bench.artifact";

/// Span carrying one cell's wall time (one seed of one dataset x
/// learner x variant).
const CELL_SPAN: &str = "cell.run";

/// A worker thread's lifetime umbrella. Nested pools reuse slot ids, so
/// these spans can sit inside unrelated spans of the same slot; they are
/// never a child.
const WORKER_SPAN: &str = "executor.worker";

/// The artifacts of all workloads, for the `artifact.<id>_s` metrics.
fn artifact_ids() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().flat_map(|w| w.artifacts.iter().copied())
}

/// Learner classes, as the `CellCtx` attribution names them.
fn learners() -> impl Iterator<Item = &'static str> {
    Algorithm::all().into_iter().map(|a| a.name())
}

/// Metric name of a learner's summed cell time.
pub fn learner_metric(learner: &str) -> String {
    format!("cell.{}_s", learner.to_ascii_lowercase())
}

/// Metric name of an artifact's call time.
pub fn artifact_metric(id: &str) -> String {
    format!("artifact.{id}_s")
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = artifact_ids()
        .map(|id| (artifact_metric(id), "s"))
        .collect();
    let fixed: &[(&str, &'static str)] = &[
        ("experiments.cpu_util", "ratio"),
        ("executor.utilization", "ratio"),
        ("executor.makespan_over_bound", "ratio"),
        ("executor.cell_p50_ms", "ms"),
        ("executor.cell_max_ms", "ms"),
        ("executor.task.self_s", "s"),
        ("cell.run.self_s", "s"),
        ("evaluate.train_s", "s"),
        ("evaluate.test_s", "s"),
        ("evaluate.window_p50_us", "us"),
        ("evaluate.window_p99_us", "us"),
        ("learner.items_tested", "count"),
        ("train.mlp.gemm_batches", "count"),
        ("train.hoeffding.split_checks", "count"),
        ("gemm.blocked_share", "ratio"),
        ("prepare.impute_s", "s"),
        ("prepare.detect_s", "s"),
        ("prepare.scale_s", "s"),
        ("prepare.cache_hit_ratio", "ratio"),
        ("prepare.cache_misses", "count"),
        ("prepare.windows", "count"),
        ("knn.pruned_ratio", "ratio"),
        ("stats.delta.absorbed", "count"),
        ("stats.delta.retracted", "count"),
        ("stats.full.fallback", "count"),
        ("synth.generate_s", "s"),
        ("synth.cache_hit_ratio", "ratio"),
        ("synth.cache_misses", "count"),
        ("synth.generated_rows", "count"),
        ("trace.overhead_pct", "%"),
        ("trace.events_dropped", "count"),
        ("host.kernel_s", "s"),
    ];
    out.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    out.extend(learners().map(|l| (learner_metric(l), "s")));
    out
}

fn end_ns(s: &TraceSpan) -> u64 {
    s.start_ns.saturating_add(s.dur_ns)
}

/// Union length of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(cs, ce)| ce - cs)
}

/// Self time per span name: each span's duration minus the durations of
/// the spans it directly contains on the same slot.
pub fn self_times(spans: &[TraceSpan]) -> BTreeMap<String, u64> {
    let mut by_slot: BTreeMap<u64, Vec<&TraceSpan>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name != WORKER_SPAN) {
        by_slot.entry(s.slot).or_default().push(s);
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for mut slot_spans in by_slot.into_values() {
        // Parents first: earlier start, then the longer span.
        slot_spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut own: Vec<u64> = slot_spans.iter().map(|s| s.dur_ns).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in slot_spans.iter().enumerate() {
            while stack
                .last()
                .is_some_and(|&top| end_ns(slot_spans[top]) <= s.start_ns)
            {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if end_ns(s) <= end_ns(slot_spans[top]) {
                    own[top] = own[top].saturating_sub(s.dur_ns);
                }
            }
            stack.push(i);
        }
        for (s, ns) in slot_spans.iter().zip(own) {
            *out.entry(s.name.clone()).or_default() += ns;
        }
    }
    out
}

/// Scheduling figures over the cell spans of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorStats {
    /// Cell busy time / (slots that ran cells x makespan), summed over
    /// the artifact phases.
    pub utilization: f64,
    /// Makespan / max(longest cell, total cell time / slots), summed
    /// over the artifact phases.
    pub makespan_over_bound: f64,
    /// Median cell wall time, ms.
    pub cell_p50_ms: f64,
    /// Longest cell wall time, ms.
    pub cell_max_ms: f64,
}

/// Executor figures. Each artifact call (an [`ARTIFACT_SPAN`]) is a
/// phase with its own makespan — the first cell start to the last cell
/// end inside it — and its own lower bound; a trace without artifact
/// spans is one phase. Only the slots that ran cells count as workers.
pub fn executor_stats(spans: &[TraceSpan]) -> ExecutorStats {
    let cells: Vec<&TraceSpan> = spans.iter().filter(|s| s.name == CELL_SPAN).collect();
    let mut windows: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == ARTIFACT_SPAN)
        .map(|s| (s.start_ns, end_ns(s)))
        .collect();
    if windows.is_empty() {
        windows.push((0, u64::MAX));
    }
    let (mut busy, mut capacity, mut makespan, mut bound) = (0u64, 0u64, 0u64, 0u64);
    for (w0, w1) in windows {
        let phase: Vec<&&TraceSpan> = cells
            .iter()
            .filter(|c| c.start_ns >= w0 && c.start_ns < w1)
            .collect();
        if phase.is_empty() {
            continue;
        }
        let start = phase.iter().map(|c| c.start_ns).min().unwrap_or(0);
        let end = phase.iter().map(|c| end_ns(c)).max().unwrap_or(0);
        let mut by_slot: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for c in &phase {
            by_slot
                .entry(c.slot)
                .or_default()
                .push((c.start_ns, end_ns(c)));
        }
        let slots = by_slot.len() as u64;
        let total: u64 = phase.iter().map(|c| c.dur_ns).sum();
        let longest = phase.iter().map(|c| c.dur_ns).max().unwrap_or(0);
        busy += by_slot.into_values().map(union_ns).sum::<u64>();
        capacity += slots * (end - start);
        makespan += end - start;
        bound += longest.max(total / slots);
    }
    let mut durs: Vec<u64> = cells.iter().map(|c| c.dur_ns).collect();
    durs.sort_unstable();
    ExecutorStats {
        utilization: ratio(busy as f64, capacity as f64),
        makespan_over_bound: ratio(makespan as f64, bound as f64),
        cell_p50_ms: percentile(&durs, 0.5) as f64 / 1e6,
        cell_max_ms: durs.last().copied().unwrap_or(0) as f64 / 1e6,
    }
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile of sorted values (0 when empty).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Test-then-train latency of every window, ns: from the window's
/// `evaluate.test` start (the warm-up window has none) to its
/// `evaluate.train` end, on the same slot. Taken from the spans, not the
/// `evaluate.window.latency_us` histogram, whose bucket bounds are 2-2.5x
/// apart and so hide any change smaller than that.
pub fn window_latencies(spans: &[TraceSpan]) -> Vec<u64> {
    let mut pending: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for s in spans {
        match s.name.as_str() {
            "evaluate.test" => {
                pending.insert(s.slot, s.start_ns);
            }
            "evaluate.train" => {
                let start = pending.remove(&s.slot).unwrap_or(s.start_ns);
                out.push(end_ns(s).saturating_sub(start));
            }
            _ => {}
        }
    }
    out.sort_unstable();
    out
}

/// What one traced run hands to [`layer_metrics`].
pub struct LayerInput<'a> {
    /// Span records in trace order (sorted by slot, then start).
    pub spans: &'a [TraceSpan],
    /// Counter snapshot of the run.
    pub counters: &'a BTreeMap<String, u64>,
    /// `(artifact id, seconds)` as the benchmark timed each call.
    pub artifacts: &'a [(&'a str, f64)],
    /// Process CPU seconds spent over the artifact calls.
    pub cpu_s: f64,
    /// Wall seconds of the artifact calls.
    pub wall_s: f64,
    /// Worker threads of the run.
    pub threads: usize,
}

/// Every per-layer metric except the two the orchestrator measures
/// across runs: `trace.overhead_pct`, which needs an untraced run to
/// compare with, and `host.kernel_s`. Layers a workload does not reach
/// report 0.
pub fn layer_metrics(input: &LayerInput) -> BTreeMap<String, f64> {
    let counter = |name: &str| input.counters.get(name).copied().unwrap_or(0) as f64;
    let selfs = self_times(input.spans);
    let self_s = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e9;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    for id in artifact_ids() {
        let secs = input
            .artifacts
            .iter()
            .filter(|(a, _)| *a == id)
            .fold(0.0, |acc, (_, s)| acc + s);
        m.insert(artifact_metric(id), secs);
    }
    m.insert(
        "experiments.cpu_util".into(),
        ratio(input.cpu_s, input.wall_s * input.threads as f64),
    );

    let ex = executor_stats(input.spans);
    m.insert("executor.utilization".into(), ex.utilization);
    m.insert(
        "executor.makespan_over_bound".into(),
        ex.makespan_over_bound,
    );
    m.insert("executor.cell_p50_ms".into(), ex.cell_p50_ms);
    m.insert("executor.cell_max_ms".into(), ex.cell_max_ms);
    for span in [
        "executor.task",
        "cell.run",
        "evaluate.train",
        "evaluate.test",
        "prepare.impute",
        "prepare.detect",
        "prepare.scale",
        "synth.generate",
    ] {
        let key = match span {
            "executor.task" | "cell.run" => format!("{span}.self_s"),
            _ => format!("{span}_s"),
        };
        m.insert(key, self_s(span));
    }

    let windows = window_latencies(input.spans);
    m.insert(
        "evaluate.window_p50_us".into(),
        percentile(&windows, 0.5) as f64 / 1e3,
    );
    m.insert(
        "evaluate.window_p99_us".into(),
        percentile(&windows, 0.99) as f64 / 1e3,
    );
    for name in [
        "learner.items_tested",
        "train.mlp.gemm_batches",
        "train.hoeffding.split_checks",
        "prepare.windows",
        "stats.delta.absorbed",
        "stats.delta.retracted",
        "stats.full.fallback",
    ] {
        m.insert(name.into(), counter(name));
    }
    let blocked = counter("gemm.dispatch.blocked");
    m.insert(
        "gemm.blocked_share".into(),
        ratio(blocked, blocked + counter("gemm.dispatch.scalar")),
    );
    for cache in ["prepare", "synth"] {
        let hit = counter(&format!("{cache}.cache.hit"));
        let miss = counter(&format!("{cache}.cache.miss"));
        m.insert(format!("{cache}.cache_hit_ratio"), ratio(hit, hit + miss));
        m.insert(format!("{cache}.cache_misses"), miss);
    }
    let pruned = counter("knn.candidates.pruned");
    m.insert(
        "knn.pruned_ratio".into(),
        ratio(pruned, pruned + counter("knn.candidates.scanned")),
    );
    m.insert(
        "synth.generated_rows".into(),
        counter("synth.generated.rows"),
    );
    m.insert(
        "trace.events_dropped".into(),
        counter("trace.events.dropped"),
    );

    for learner in learners() {
        let ns: u64 = input
            .spans
            .iter()
            .filter(|s| s.name == CELL_SPAN && s.learner.as_deref() == Some(learner))
            .map(|s| s.dur_ns)
            .sum();
        m.insert(learner_metric(learner), ns as f64 / 1e9);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_bench::profile::{analyze, parse_trace};
    use std::collections::BTreeSet;

    const MS: u64 = 1_000_000;

    fn span(name: &str, slot: u64, start_ms: u64, dur_ms: u64) -> String {
        format!(
            "{{\"type\":\"span\",\"id\":0,\"slot\":{slot},\"seq\":0,\"name\":\"{name}\",\"start_us\":{},\"dur_us\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            start_ms * 1_000,
            dur_ms * 1_000,
            start_ms * MS,
            dur_ms * MS
        )
    }

    fn cell(slot: u64, start_ms: u64, dur_ms: u64, learner: &str) -> String {
        let mut line = span(CELL_SPAN, slot, start_ms, dur_ms);
        line.pop();
        format!("{line},\"dataset\":\"d{start_ms}\",\"learner\":\"{learner}\",\"cell_seed\":0,\"rows\":10}}")
    }

    fn parse(lines: &[String]) -> Vec<TraceSpan> {
        parse_trace(&(lines.join("\n") + "\n")).unwrap().spans
    }

    /// Two workers each busy 2383 ms of a 2428 ms makespan, with an idle
    /// coordinator slot: utilization is ~98%, where dividing by all three
    /// slots gives ~65%.
    #[test]
    fn utilization_counts_only_slots_that_ran_cells() {
        let lines = [
            span("report.render", 0, 2427, 1),
            cell(1, 0, 1200, "ARF"),
            cell(1, 1245, 1183, "ARF"),
            cell(2, 0, 2383, "EWC"),
            "{\"type\":\"footer\",\"schema\":2,\"events\":4,\"dropped\":0}".to_string(),
        ];
        let text = lines.join("\n") + "\n";
        let trace = parse_trace(&text).unwrap();
        let ex = executor_stats(&trace.spans);
        let expected = 2383.0 / 2428.0;
        assert!((ex.utilization - expected).abs() < 1e-9, "{ex:?}");
        assert!(ex.utilization > 0.98 && ex.utilization <= 1.0);
        // The profiler's figure divides by the coordinator too.
        let profiler = analyze(&trace, 1).utilization;
        assert!((profiler - (1.0 + 2.0 * 2383.0) / (3.0 * 2428.0)).abs() < 1e-9);
        assert!(profiler < 0.66);
        // Bound = max(2383, 4766 / 2) = 2383 ms.
        assert!((ex.makespan_over_bound - 2428.0 / 2383.0).abs() < 1e-9);
        assert!((ex.cell_max_ms - 2383.0).abs() < 1e-9);
    }

    #[test]
    fn phases_are_bounded_separately() {
        // Two artifacts, one slot each: the gap between them is not
        // makespan, so a perfectly packed schedule sits at the bound.
        let spans = parse(&[
            span(ARTIFACT_SPAN, 0, 0, 100),
            cell(0, 0, 100, "ARF"),
            span(ARTIFACT_SPAN, 0, 500, 50),
            cell(0, 500, 50, "ARF"),
        ]);
        let ex = executor_stats(&spans);
        assert!((ex.utilization - 1.0).abs() < 1e-12);
        assert!((ex.makespan_over_bound - 1.0).abs() < 1e-12);
        assert!((ex.cell_p50_ms - 50.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_covered_children_only() {
        let spans = parse(&[
            span("executor.worker", 1, 0, 100),
            span("executor.task", 1, 0, 90),
            cell(1, 5, 80, "EWC"),
            span("prepare.impute", 1, 10, 20),
            span("evaluate.test", 1, 30, 10),
            span("evaluate.train", 1, 40, 30),
            // Another slot's span never counts as a child.
            span("evaluate.train", 2, 10, 20),
        ]);
        let selfs = self_times(&spans);
        assert_eq!(selfs["executor.task"], 10 * MS);
        assert_eq!(selfs[CELL_SPAN], 20 * MS);
        assert_eq!(selfs["evaluate.train"], 50 * MS);
        assert!(!selfs.contains_key("executor.worker"));
    }

    #[test]
    fn window_latency_runs_from_test_start_to_train_end() {
        let spans = parse(&[
            span("evaluate.train", 1, 0, 5),
            span("evaluate.test", 1, 10, 2),
            span("evaluate.train", 1, 12, 3),
        ]);
        assert_eq!(window_latencies(&spans), vec![5 * MS, 5 * MS]);
    }

    #[test]
    fn every_metric_is_reported_even_without_spans() {
        let counters = BTreeMap::new();
        let m = layer_metrics(&LayerInput {
            spans: &[],
            counters: &counters,
            artifacts: &[("table3", 1.5)],
            cpu_s: 1.0,
            wall_s: 1.0,
            threads: 2,
        });
        for (name, _) in per_layer_metrics() {
            if name != "trace.overhead_pct" && name != "host.kernel_s" {
                assert!(m.contains_key(&name), "{name} missing");
            }
        }
        assert_eq!(m["artifact.table3_s"], 1.5);
        assert_eq!(m["experiments.cpu_util"], 0.5);
        let names = per_layer_metrics();
        let unique: BTreeSet<_> = names.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), names.len());
    }
}
