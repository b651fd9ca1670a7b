//! Microbenchmarks for the compute-kernel layer, emitted as
//! `BENCH_kernels.json`.
//!
//! Two comparisons, both against the retained pre-kernel reference
//! implementations so the speedup is measured against what the repo
//! actually shipped before the kernel layer:
//!
//! * **matmul** — GFLOP/s of the historical scalar `ikj` loop vs the
//!   register-blocked GEMM ([`oeb_linalg::kernels::matmul_blocked_into`])
//!   at three square sizes;
//! * **KNN imputation** — wall-clock of the brute-force ranking imputer
//!   ([`oeb_preprocess::impute::knn_impute_reference`]) vs the pruned
//!   bounded-neighbour-list rewrite behind
//!   [`oeb_preprocess::KnnImputer`].
//!
//! Every timed pair is also checked for bit-identical outputs — the
//! kernel layer's contract is "faster, same bits", and the benchmark
//! refuses to report a speedup for wrong answers.
//!
//! Each pair is timed with [`oeb_bench::warm_min_pair`]: `reps`
//! alternating warm passes per side, reporting the minimum (the noise
//! floor for a fixed deterministic workload).
//!
//! Usage: `bench_kernels [--quick] [--out FILE]`

use oeb_bench::warm_min_pair;
use oeb_linalg::{kernels, Matrix};
use oeb_preprocess::impute::knn_impute_reference;
use oeb_preprocess::{Imputer, KnnImputer};

struct Options {
    quick: bool,
    out: String,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let usage = "usage: bench_kernels [--quick] [--out FILE]";
    let mut opts = Options {
        quick: false,
        out: "BENCH_kernels.json".into(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--out" => {
                i += 1;
                opts.out = args
                    .get(i)
                    .cloned()
                    .ok_or(format!("--out needs a path\n{usage}"))?;
            }
            _ => return Err(usage.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

/// Deterministic pseudo-random fill (same LCG family as the kernel unit
/// tests); benchmark inputs must not depend on ambient entropy.
fn lcg_vec(n: usize, seed: &mut u64) -> Vec<f64> {
    (0..n)
        .map(|_| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

/// The pre-kernel `ikj` matmul, reproduced verbatim as the scalar
/// baseline (this is the loop `Matrix::matmul` shipped before the
/// kernel layer).
fn matmul_ikj_reference(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    out.as_mut_slice().fill(0.0);
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let v = a[(i, k)];
            if v == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let dst = out.row_mut(i);
            for (d, &x) in dst.iter_mut().zip(brow) {
                *d += v * x;
            }
        }
    }
}

fn bench_matmul(size: usize, reps: usize, seed: &mut u64) -> serde_json::Value {
    let a = Matrix::from_vec(size, size, lcg_vec(size * size, seed));
    let b = Matrix::from_vec(size, size, lcg_vec(size * size, seed));
    let mut scalar_out = Matrix::zeros(size, size);
    let mut blocked_out = Matrix::zeros(size, size);

    let (scalar_seconds, blocked_seconds) = warm_min_pair(
        reps,
        || matmul_ikj_reference(&a, &b, &mut scalar_out),
        || kernels::matmul_blocked_into(&a, &b, &mut blocked_out),
    );

    for (x, y) in scalar_out.as_slice().iter().zip(blocked_out.as_slice()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "blocked GEMM diverged from the scalar reference at size {size}"
        );
    }

    let flops = 2.0 * (size * size * size) as f64;
    let scalar_gflops = flops / scalar_seconds.max(1e-12) / 1e9;
    let blocked_gflops = flops / blocked_seconds.max(1e-12) / 1e9;
    let speedup = scalar_seconds / blocked_seconds.max(1e-12);
    eprintln!(
        "[bench_kernels] matmul {size}x{size}: scalar {scalar_gflops:.2} GFLOP/s, \
         blocked {blocked_gflops:.2} GFLOP/s ({speedup:.2}x)"
    );
    serde_json::json!({
        "size": size as u64,
        "scalar_seconds": scalar_seconds,
        "blocked_seconds": blocked_seconds,
        "scalar_gflops": scalar_gflops,
        "blocked_gflops": blocked_gflops,
        "speedup": speedup,
    })
}

/// A reference/window pair with `missing_pct`% cells blanked to NaN,
/// sized like a prepare-stage imputation call.
fn holey(rows: usize, cols: usize, missing_pct: u64, seed: &mut u64) -> Matrix {
    let mut data = lcg_vec(rows * cols, seed);
    for v in data.iter_mut() {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (*seed >> 33) % 100 < missing_pct {
            *v = f64::NAN;
        }
    }
    Matrix::from_vec(rows, cols, data)
}

fn bench_knn(
    window_rows: usize,
    ref_rows: usize,
    cols: usize,
    reps: usize,
    seed: &mut u64,
) -> serde_json::Value {
    let window = holey(window_rows, cols, 20, seed);
    let reference = holey(ref_rows, cols, 20, seed);
    let imputer = KnnImputer::default();

    let mut brute_out = Matrix::zeros(0, 0);
    let mut pruned_out = Matrix::zeros(0, 0);
    let (brute_seconds, pruned_seconds) = warm_min_pair(
        reps,
        || {
            let mut w = window.clone();
            knn_impute_reference(imputer.k, &mut w, &reference);
            brute_out = w;
        },
        || {
            let mut w = window.clone();
            imputer.impute(&mut w, &reference);
            pruned_out = w;
        },
    );

    for (x, y) in brute_out.as_slice().iter().zip(pruned_out.as_slice()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "pruned KNN imputation diverged from the brute-force reference"
        );
    }

    let speedup = brute_seconds / pruned_seconds.max(1e-12);
    eprintln!(
        "[bench_kernels] knn impute {window_rows}x{cols} vs {ref_rows} refs: \
         brute {brute_seconds:.4}s, pruned {pruned_seconds:.4}s ({speedup:.2}x)"
    );
    serde_json::json!({
        "window_rows": window_rows as u64,
        "reference_rows": ref_rows as u64,
        "cols": cols as u64,
        "missing_pct": 20u64,
        "k": imputer.k as u64,
        "brute_seconds": brute_seconds,
        "pruned_seconds": pruned_seconds,
        "speedup": speedup,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut seed = 0x0eb4_c0de_u64;

    let (sizes, reps): (&[usize], usize) = if opts.quick {
        (&[32, 64, 96], 3)
    } else {
        (&[64, 128, 256], 7)
    };
    let matmul: Vec<serde_json::Value> = sizes
        .iter()
        .map(|&s| bench_matmul(s, reps, &mut seed))
        .collect();

    let knn = if opts.quick {
        bench_knn(40, 120, 12, 3, &mut seed)
    } else {
        bench_knn(120, 500, 24, 5, &mut seed)
    };

    // One traced pass through the public dispatchers (the timed loops
    // above call the kernels directly, bypassing dispatch counting):
    // exercises the size-based GEMM dispatch, matvec, and the pruned
    // KNN candidate counters, then embeds the snapshot as the metrics
    // block.
    oeb_trace::reset();
    oeb_trace::enable();
    for &size in sizes {
        let a = Matrix::from_vec(size, size, lcg_vec(size * size, &mut seed));
        let b = Matrix::from_vec(size, size, lcg_vec(size * size, &mut seed));
        let mut out = Matrix::zeros(size, size);
        kernels::matmul_into(&a, &b, &mut out);
        let v = lcg_vec(size, &mut seed);
        let mut mv = Vec::new();
        kernels::matvec_into(&a, &v, &mut mv);
    }
    {
        let mut window = holey(40, 12, 20, &mut seed);
        let reference = holey(120, 12, 20, &mut seed);
        KnnImputer::default().impute(&mut window, &reference);
    }
    oeb_trace::disable();
    let metrics = oeb_bench::metrics_json(&oeb_trace::snapshot());

    let json = serde_json::json!({
        "benchmark": "compute kernels: blocked GEMM and pruned KNN imputation vs scalar references",
        "quick": opts.quick,
        "matmul": matmul,
        "knn_impute": knn,
        "metrics": metrics,
    });
    std::fs::write(
        &opts.out,
        serde_json::to_string_pretty(&json).expect("json serialises"),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
    eprintln!("[bench_kernels] -> {}", opts.out);
}
