//! `perfbench` — the repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix --seed 0 --seconds 40 --trace 0
//! ```
//!
//! Each timed run is a fresh child process (`--child`) that calls
//! `run_experiment` for every artifact of the workload. The last line on
//! stdout is the result: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer
//! metrics under `--trace 1`.

mod calibrate;
mod child;
mod host;
mod layers;
mod workload;

use std::io::{BufRead as _, BufReader, Read as _};
use std::process::{Command, Stdio};

use oeb_trace::Stopwatch;
use serde_json::{json, Value};

use calibrate::{median, Calibration, RoundScales};
use child::RunSpec;
use workload::{Workload, DEFAULT_SEED};

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("completed_cell_share", "ratio"),
];

/// Full runs made even when `--seconds` is already spent.
const MIN_RUNS: usize = 3;

/// Set-up-only processes started before every full untraced run.
const SETUP_PROBES: usize = 8;

/// Environment knobs that would change the program's configuration; the
/// benchmark measures the defaults.
const CLEARED_ENV: &[&str] = &[
    "OEBENCH_THREADS",
    "OEBENCH_PREPARE_CACHE",
    "OEBENCH_SYNTH_CACHE",
];

const USAGE: &str = "usage: perfbench --workload <matrix|ablation|characterize> --seed N \
--seconds S --trace <0|1> [--threads T]";

/// Parsed command line, shared by the orchestrator and `--child`.
#[derive(Debug, Clone, Copy)]
struct Opts {
    spec: RunSpec,
    seconds: f64,
    child: bool,
}

fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload: Option<&'static Workload> = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut threads = None;
    let (mut child, mut setup_only) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::find(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(parse_flag(flag, value()?)?),
            "--seconds" => seconds = Some(parse_flag(flag, value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--threads" => threads = Some(parse_flag(flag, value()?)?),
            "--child" => child = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let nproc = host::nproc();
    let threads = threads.unwrap_or(nproc);
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads} is outside 1..={nproc}: results are never oversubscribed"
        ));
    }
    Ok(Opts {
        spec: RunSpec {
            workload,
            seed: seed.ok_or("--seed is required")?,
            threads,
            trace: trace.ok_or("--trace is required")?,
            setup_only,
        },
        seconds: if child {
            0.0
        } else {
            seconds
                .filter(|s| *s > 0.0)
                .ok_or("--seconds must be positive")?
        },
        child,
    })
}

/// One finished child process.
struct ChildRun {
    /// Spawn to the child's [`child::READY`] line.
    setup_s: f64,
    /// The child's result line.
    result: Value,
}

/// Starts a cold run of `spec` in a fresh process and waits for it.
fn spawn(spec: &RunSpec) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", spec.workload.name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--threads", &spec.threads.to_string()])
        .args(["--trace", if spec.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if spec.setup_only {
        cmd.arg("--setup-only");
    }
    for var in CLEARED_ENV {
        cmd.env_remove(var);
    }
    let watch = Stopwatch::start();
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut out = BufReader::new(proc.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    let read = out.read_line(&mut first);
    let setup_s = watch.elapsed_seconds();
    let mut rest = String::new();
    let rest_read = out.read_to_string(&mut rest);
    let status = proc.wait().map_err(|e| format!("wait: {e}"))?;
    read.and(rest_read)
        .map_err(|e| format!("reading child output: {e}"))?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    if first.trim() != child::READY {
        return Err(format!("child printed {first:?} before set-up ended"));
    }
    let result = match rest.lines().last() {
        Some(line) => serde_json::from_str(line).map_err(|e| format!("child result: {e}"))?,
        None if spec.setup_only => json!({}),
        None => return Err("child printed no result".into()),
    };
    Ok(ChildRun { setup_s, result })
}

/// Mean without the lowest and the highest value (plain mean of two or
/// fewer); 0 when empty.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// A per-layer metric of a traced run's result.
fn layer(run: &Value, key: &str) -> f64 {
    run.get("layers").map_or(f64::NAN, |l| num(l, key))
}

/// The runs of one benchmark invocation and the checks made on them.
/// The result lines keep the raw times; `walls`, `traced_walls` and
/// `setups` are scaled to the reference host ([`calibrate`]).
#[derive(Default)]
struct Tally {
    untraced: Vec<Value>,
    traced: Vec<Value>,
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Records one child run of a round whose times `scales` turns
    /// into reference-host seconds.
    fn record(&mut self, spec: &RunSpec, run: Result<ChildRun, String>, scales: RoundScales) {
        if spec.setup_only {
            match run {
                Ok(r) => self.setups.push(r.setup_s * scales.setup),
                Err(e) => self.problems.push(format!("set-up run: {e}")),
            }
            return;
        }
        self.attempted += 1;
        match run {
            Ok(r) if spec.trace => {
                self.traced_walls
                    .push(num(&r.result, "wall_s") * scales.work);
                self.traced.push(r.result);
            }
            Ok(r) => {
                self.setups.push(r.setup_s * scales.setup);
                self.walls.push(num(&r.result, "wall_s") * scales.work);
                self.untraced.push(r.result);
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
            }
        }
    }

    /// Output checks: one digest across every run (traced or not), the
    /// recorded digest at the default seed, one cell count, and in the
    /// traced runs cold caches and no dropped events.
    fn check(&mut self, w: &Workload, seed: u64) -> Option<String> {
        let all: Vec<&Value> = self.untraced.iter().chain(&self.traced).collect();
        let digests: Vec<&str> = all
            .iter()
            .map(|r| r.get("digest").and_then(Value::as_str).unwrap_or("?"))
            .collect();
        let digest = digests.first().map(|d| d.to_string());
        if let Some(d) = &digest {
            let mismatched = digests.iter().filter(|x| *x != d).count() as u64;
            if mismatched > 0 {
                self.failed += mismatched;
                self.problems
                    .push(format!("output_digest differs between runs: {digests:?}"));
            }
            if seed == DEFAULT_SEED && d != w.default_digest {
                self.problems.push(format!(
                    "output_digest {d} differs from the recorded {} at seed {DEFAULT_SEED}",
                    w.default_digest
                ));
            }
        }
        let cells: Vec<(f64, f64)> = all
            .iter()
            .map(|r| (num(r, "cells_attempted"), num(r, "cells_failed")))
            .collect();
        if cells.windows(2).any(|p| p[0] != p[1]) {
            self.problems
                .push(format!("cell counts differ between runs: {cells:?}"));
        }
        for pair in self.traced.windows(2) {
            for key in ["prepare.cache_misses", "synth.cache_misses"] {
                let (a, b) = (layer(&pair[0], key), layer(&pair[1], key));
                if a != b {
                    self.problems.push(format!(
                        "{key} {a} then {b}: a run was served from warm state"
                    ));
                }
            }
        }
        for r in &self.traced {
            let dropped = layer(r, "trace.events_dropped");
            if dropped > 0.0 || dropped.is_nan() {
                self.problems
                    .push(format!("trace dropped {dropped} events"));
            }
        }
        digest
    }
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

/// Runs the workload for `opts.seconds` and returns (metrics, digest,
/// tally, calibration) — end-to-end metrics untraced, per-layer metrics
/// traced.
fn measure(opts: &Opts) -> (serde_json::Map, Option<String>, Tally, Calibration) {
    let base = RunSpec {
        trace: false,
        setup_only: false,
        ..opts.spec
    };
    let setup_probe = RunSpec {
        setup_only: true,
        ..base
    };
    let traced = RunSpec {
        trace: true,
        ..base
    };
    // Alternate untraced and traced runs: the pair gives the tracing
    // overhead under the same host conditions.
    let round_specs = if opts.spec.trace {
        vec![base, traced]
    } else {
        let mut specs = vec![setup_probe; SETUP_PROBES];
        specs.push(base);
        specs
    };
    let mut tally = Tally::default();
    let clock = Stopwatch::start();
    let w = opts.spec.workload;
    let mut calibration = Calibration::start(if w.fans_out { opts.spec.threads } else { 1 });
    let mut rounds = 0;
    loop {
        let round = Stopwatch::start();
        let runs: Vec<_> = round_specs.iter().map(|s| (s, spawn(s))).collect();
        calibration.sample();
        for (spec, run) in runs {
            tally.record(spec, run, calibration.round_scales());
        }
        rounds += 1;
        let spent = clock.elapsed_seconds();
        let min_rounds = if opts.spec.trace { 2 } else { MIN_RUNS };
        if rounds >= min_rounds && spent + round.elapsed_seconds() > opts.seconds {
            break;
        }
    }
    let digest = tally.check(opts.spec.workload, opts.spec.seed);

    let mut metrics = serde_json::Map::new();
    let of =
        |runs: &[Value], key: &str| median(&runs.iter().map(|r| num(r, key)).collect::<Vec<_>>());
    if opts.spec.trace {
        let traced = |key: &str| {
            median(
                &tally
                    .traced
                    .iter()
                    .map(|r| layer(r, key))
                    .collect::<Vec<_>>(),
            )
        };
        let overhead =
            100.0 * (trimmed_mean(&tally.traced_walls) / trimmed_mean(&tally.walls) - 1.0);
        for (name, unit) in layers::per_layer_metrics() {
            let value = match name.as_str() {
                "trace.overhead_pct" => overhead,
                "host.kernel_s" => calibration.work_kernel_s(),
                _ => traced(&name),
            };
            metrics.insert(name, metric(value, unit));
        }
    } else {
        let cells = tally.untraced.first().map_or(0.0, |r| {
            let attempted = num(r, "cells_attempted");
            (attempted - num(r, "cells_failed")) / attempted
        });
        let values = [
            trimmed_mean(&tally.walls),
            median(&tally.setups),
            of(&tally.untraced, "peak_rss_mb"),
            cells,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.insert(*name, metric(value, unit));
        }
    }
    (metrics, digest, tally, calibration)
}

/// Human-readable lines printed before the result line.
fn report(
    opts: &Opts,
    metrics: &serde_json::Map,
    digest: Option<&str>,
    tally: &Tally,
    calibration: &Calibration,
) {
    let w = opts.spec.workload;
    println!(
        "host {}",
        serde_json::to_string(&host::host_block(opts.spec.threads)).expect("JSON serialises")
    );
    println!(
        "workload {} ({}) seed {} scale {} threads {}: {} untraced + {} traced runs, {} set-up samples",
        w.name,
        w.artifacts.join(" "),
        opts.spec.seed,
        w.scale,
        opts.spec.threads,
        tally.untraced.len(),
        tally.traced.len(),
        tally.setups.len()
    );
    println!("why: {}", w.why);
    let fmt = |values: Vec<f64>| -> String {
        let v: Vec<String> = values.iter().map(|x| format!("{x:.3}")).collect();
        v.join(" ")
    };
    println!(
        "untraced wall_s per run, unscaled: {}",
        fmt(tally.untraced.iter().map(|r| num(r, "wall_s")).collect())
    );
    println!(
        "calibration kernel s on one thread (reference {}): {}",
        calibrate::REFERENCE_S,
        fmt(calibration.serial_s.clone())
    );
    if !calibration.wide_s.is_empty() {
        println!(
            "calibration kernel s on {} threads at once: {}",
            opts.spec.threads,
            fmt(calibration.wide_s.clone())
        );
    }
    println!("output_digest {}", digest.unwrap_or("none"));
    if let Some(first) = tally.untraced.first() {
        let (a, f) = (num(first, "cells_attempted"), num(first, "cells_failed"));
        println!("failed_cell_share {} ({f} of {a} cells N/A)", f / a);
    }
    for (name, m) in metrics.iter() {
        println!(
            "  {name:<32} {:>14.6} {}",
            num(m, "value"),
            m.get("unit").and_then(Value::as_str).unwrap_or("")
        );
    }
    if let Some(slowest) = tally
        .traced
        .last()
        .and_then(|r| r.get("slowest"))
        .and_then(Value::as_array)
        .filter(|cells| !cells.is_empty())
    {
        println!("slowest (dataset, learner) cells of the last traced run:");
        for c in slowest {
            println!(
                "  {:<44} {:<12} {:>10.3} ms",
                c.get("dataset").and_then(Value::as_str).unwrap_or("?"),
                c.get("learner").and_then(Value::as_str).unwrap_or("?"),
                num(c, "ms")
            );
        }
    }
    for p in &tally.problems {
        println!("problem: {p}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if opts.child {
        let result = child::run(&opts.spec);
        if !opts.spec.setup_only {
            println!(
                "{}",
                serde_json::to_string(&result).expect("JSON serialises")
            );
        }
        return;
    }
    let (metrics, digest, tally, calibration) = measure(&opts);
    report(&opts, &metrics, digest.as_deref(), &tally, &calibration);
    let result = json!({
        "correct": tally.problems.is_empty(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": Value::Object(metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("JSON serialises")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn trimmed_mean_drops_one_value_at_each_end() {
        assert_eq!(trimmed_mean(&[10.0, 1.0, 2.0, 3.0, 0.0]), 2.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0]), 1.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&s(&[
            "--workload",
            "ablation",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.spec.workload.name, "ablation");
        assert_eq!(o.spec.seed, 3);
        assert!(o.spec.trace && !o.child);
        assert_eq!(o.spec.threads, host::nproc());
    }

    #[test]
    fn refuses_oversubscription_and_bad_input() {
        let base = [
            "--workload",
            "matrix",
            "--seed",
            "0",
            "--seconds",
            "5",
            "--trace",
            "0",
        ];
        let over = (host::nproc() + 1).to_string();
        let mut args = s(&base);
        args.extend(s(&["--threads", &over]));
        assert!(parse_args(&args).unwrap_err().contains("oversubscribed"));
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&base[..6])).is_err());
        let mut bad_trace = s(&base);
        bad_trace[7] = "2".into();
        assert!(parse_args(&bad_trace).is_err());
    }

    /// The metric lists in the code and in `BENCHMARK.json` agree.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = layers::per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |f: &str| w.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
