//! Every execution path emits exactly one `cell.run` span per cell: a
//! traced `run_stream`, a sweep, and the experiments' `run_matrix`.
//! `oeb-profile` reads each cell's wall time from that span alone.
//!
//! This file holds exactly one test on purpose: oeb-trace state is
//! process-global, so the property owns the whole test binary.

use std::collections::BTreeMap;

use oeb_core::experiments::main_results::run_matrix;
use oeb_core::experiments::ExpContext;
use oeb_core::{run_stream, run_sweep, Algorithm, HarnessConfig};
use oeb_synth::generate;

/// Drains the trace and counts `cell.run` spans per (dataset, learner,
/// seed) cell.
fn cell_runs() -> BTreeMap<(String, String, u64), usize> {
    let mut runs = BTreeMap::new();
    for ev in oeb_trace::drain_events() {
        if ev.name == "cell.run" {
            let ctx = ev.ctx.expect("cell.run carries its cell");
            let key = (ctx.dataset.clone(), ctx.learner.clone(), ctx.seed);
            *runs.entry(key).or_default() += 1;
        }
    }
    runs
}

fn assert_one_span_per_cell(path: &str, cells: usize) {
    let runs = cell_runs();
    assert_eq!(runs.len(), cells, "{path}: cells with a cell.run span");
    assert!(
        runs.values().all(|&n| n == 1),
        "{path}: a cell emitted more than one cell.run span: {runs:?}"
    );
}

#[test]
fn every_execution_path_emits_one_cell_run_span_per_cell() {
    let ctx = ExpContext {
        scale: 0.02,
        seeds: vec![0, 1],
    };
    let entries: Vec<_> = ctx.registry().into_iter().take(2).collect();
    let dataset = generate(&entries[0].spec, 0);
    let algorithms = [Algorithm::NaiveDt, Algorithm::NaiveNn];
    let cfg = HarnessConfig::default();

    oeb_trace::reset();
    oeb_trace::enable();

    run_stream(&dataset, Algorithm::NaiveDt, &cfg).expect("run_stream completes");
    assert_one_span_per_cell("run_stream", 1);

    run_sweep(&[dataset], &algorithms, &cfg, None, None, 2).expect("valid sweep config");
    assert_one_span_per_cell("sweep", algorithms.len());

    run_matrix(&ctx, &entries, &algorithms);
    assert_one_span_per_cell(
        "run_matrix",
        entries.len() * algorithms.len() * ctx.seeds.len(),
    );

    oeb_trace::disable();
}
