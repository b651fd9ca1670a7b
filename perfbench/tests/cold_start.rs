//! The cold-start rule: every timed run starts with empty process-wide
//! state (the `run_matrix` memo, the synth cache, the prepare cache), as
//! every `repro` invocation does. Two consecutive runs of a workload
//! therefore miss both caches equally often; a run served from a memo
//! would miss less.

use std::process::Command;

use serde_json::Value;

/// One traced run at the workload's own scale, as the orchestrator
/// starts it.
fn traced_run(workload: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--child", "--workload", workload, "--seed", "0"])
        .args(["--threads", "1", "--trace", "1"])
        .output()
        .expect("start perfbench");
    assert!(out.status.success(), "child run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("ready"));
    serde_json::from_str(lines.last().expect("a result line")).expect("JSON result")
}

fn layer(run: &Value, key: &str) -> f64 {
    run.get("layers")
        .and_then(|l| l.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{key} missing from {run:?}"))
}

#[test]
fn consecutive_runs_miss_the_caches_equally() {
    let first = traced_run("ablation");
    let second = traced_run("ablation");
    for key in ["prepare.cache_misses", "synth.cache_misses"] {
        assert!(layer(&first, key) > 0.0, "{key} never missed");
        assert_eq!(layer(&first, key), layer(&second, key), "{key}");
    }
    assert_eq!(layer(&first, "trace.events_dropped"), 0.0);
    assert_eq!(first.get("digest"), second.get("digest"));
}
