//! The benchmark's workloads — named sets of paper artifacts — and the
//! two output checks every run makes on them: the `output_digest` over
//! the loss-bearing JSON fields and the share of table cells that came
//! out N/A.

use oeb_core::experiments::ExpContext;
use serde_json::Value;

/// One named set of paper artifacts, sized for one cold run of a few
/// seconds on a 2-core host.
#[derive(Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Experiment ids, in the order they run (one shared `stats_cache`).
    pub artifacts: &'static [&'static str],
    /// Row-scale factor on the registry specs.
    pub scale: f64,
    /// Whether the artifacts fan cells out over every worker; otherwise
    /// their drivers run serially on one thread. Sets how many threads
    /// the calibration kernel runs on.
    pub fans_out: bool,
    /// Why the workload exists (also recorded in `BENCHMARK.json`).
    pub why: &'static str,
    /// `output_digest` of a run at [`DEFAULT_SEED`] with the committed
    /// program; any other digest there means the outputs changed.
    pub default_digest: &'static str,
}

/// The seed whose digests are recorded in [`WORKLOADS`].
pub const DEFAULT_SEED: u64 = 0;

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "matrix",
        artifacts: &["table4", "table9"],
        scale: 0.02,
        fans_out: true,
        why: "table4 + table9: evaluate.train is 95% of cell time and cells fan out over every core (cpu_util 0.98); the prepare cache is shared across learners (hit ratio 0.89)",
        default_digest: "2dbf7f689c604b96",
    },
    Workload {
        name: "ablation",
        artifacts: &["fig11", "fig19", "fig14", "fig16"],
        scale: 0.03,
        fans_out: false,
        why: "fig11 + fig19 + fig14 + fig16: sequential drivers on one core (cpu_util 0.50); preprocessing is 51-59% of fig14/fig16 cell time, 6% of the workload's",
        default_digest: "fa3bfa1cd5e8cc90",
    },
    Workload {
        name: "characterize",
        artifacts: &["table3", "fig2", "fig3", "fig9", "table13"],
        scale: 0.03,
        fans_out: false,
        why: "table3 + fig2 + fig3 + fig9 + table13: the serial stats pipeline over all 55 datasets (cpu_util 0.50, synth cache hit ratio 0.05); no learner is trained",
        default_digest: "ab80eb35907695ff",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The experiment context of one run: the workload's scale and the
    /// one seed `--seed` names.
    pub fn context(&self, seed: u64) -> ExpContext {
        ExpContext {
            scale: self.scale,
            seeds: vec![seed],
        }
    }
}

/// JSON keys that carry wall-clock measurements, not losses.
const TIMING_KEYS: &[&str] = &["throughput", "train_seconds", "test_seconds"];

/// Artifacts made only of timings; they never enter a digest.
const TIMING_ARTIFACTS: &[&str] = &["table5", "table10"];

/// `value` with every timing key removed, at any depth.
fn strip_timing(value: &Value) -> Value {
    match value {
        Value::Object(map) => {
            let mut out = serde_json::Map::new();
            for (k, v) in map.iter() {
                if !TIMING_KEYS.contains(&k.as_str()) {
                    out.insert(k.clone(), strip_timing(v));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// FNV-1a, 64 bit: stable across platforms and toolchains.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest over the loss-bearing JSON of a run's artifacts, in run
/// order. `None` marks an artifact whose driver panicked.
pub fn output_digest(outputs: &[(&str, Option<&Value>)]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (id, json) in outputs {
        if TIMING_ARTIFACTS.contains(id) {
            continue;
        }
        hash = fnv1a(hash, id.as_bytes());
        hash = fnv1a(hash, b"\n");
        let text = match json {
            Some(v) => serde_json::to_string(&strip_timing(v)).expect("JSON values serialise"),
            None => "<panicked>".to_string(),
        };
        hash = fnv1a(hash, text.as_bytes());
        hash = fnv1a(hash, b"\n");
    }
    format!("{hash:016x}")
}

/// Curve entries a curve artifact attempts: ROOM and AIR times its
/// variants. A curve whose run failed is left out of the JSON.
fn expected_curves(id: &str) -> Option<u64> {
    (id == "fig16").then_some(2 * 3)
}

/// `(attempted, failed)` cells of one artifact. A cell is a (dataset,
/// algorithm, variant) entry; it failed when its loss is N/A (null).
/// Artifacts without cells count as one cell, failed when the driver
/// panicked (`json` is `None`).
pub fn cell_counts(id: &str, json: Option<&Value>) -> (u64, u64) {
    let Some(json) = json else {
        return (
            expected_curves(id).unwrap_or(1),
            expected_curves(id).unwrap_or(1),
        );
    };
    if let Some(cells) = json.get("cells").and_then(Value::as_array) {
        let failed = cells
            .iter()
            .filter(|c| c.get("loss_mean").is_none_or(Value::is_null))
            .count();
        return (cells.len() as u64, failed as u64);
    }
    if let Some(curves) = json.get("curves").and_then(Value::as_array) {
        let ok = curves
            .iter()
            .filter(|c| c.get("mean").is_some_and(|m| !m.is_null()))
            .count() as u64;
        let attempted = expected_curves(id).unwrap_or(curves.len() as u64);
        return (attempted, attempted.saturating_sub(ok));
    }
    (1, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn digest_ignores_timing_fields_and_artifacts() {
        let a = json!({"cells": [{"loss_mean": 0.5, "throughput": 10.0, "train_seconds": 1.0}]});
        let b = json!({"cells": [{"loss_mean": 0.5, "throughput": 99.0, "train_seconds": 7.0}]});
        let c = json!({"cells": [{"loss_mean": 0.25, "throughput": 10.0}]});
        assert_eq!(
            output_digest(&[("table4", Some(&a))]),
            output_digest(&[("table4", Some(&b))])
        );
        assert_ne!(
            output_digest(&[("table4", Some(&a))]),
            output_digest(&[("table4", Some(&c))])
        );
        assert_eq!(
            output_digest(&[("table4", Some(&a)), ("table5", Some(&c))]),
            output_digest(&[("table4", Some(&a))])
        );
    }

    #[test]
    fn null_losses_and_missing_curves_count_as_failed_cells() {
        let cells = json!({"cells": [{"loss_mean": 1.0}, {"loss_mean": null}, {"x": 1}]});
        assert_eq!(cell_counts("table4", Some(&cells)), (3, 2));
        let curves = json!({"curves": [{"mean": 0.5}, {"mean": null}]});
        assert_eq!(cell_counts("fig16", Some(&curves)), (6, 5));
        assert_eq!(
            cell_counts("table3", Some(&json!({"selected": []}))),
            (1, 0)
        );
        assert_eq!(cell_counts("table3", None), (1, 1));
    }

    #[test]
    fn seeds_follow_the_workload_seed() {
        let w = find("matrix").unwrap();
        assert_eq!(w.context(7).seeds, vec![7]);
        assert!(find("nope").is_none());
    }
}
