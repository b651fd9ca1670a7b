//! Property-based tests for the linear-algebra kernels: algebraic
//! identities that must hold for arbitrary well-formed inputs.

#![expect(clippy::float_cmp, reason = "tests assert exact deterministic values")]

use oeb_linalg::{
    five_number, hellinger, kernels, kl_divergence, ks_p_value, ks_statistic, quantile,
    ridge_regression, solve, symmetric_eigen, Histogram, Matrix, Pca,
};
use proptest::prelude::*;

fn small_f64() -> impl Strategy<Value = f64> {
    prop_oneof![-100.0..100.0f64, -1.0..1.0f64]
}

/// Values for the bit-identity suites: mixes exact zeros in so the
/// GEMM sparsity skip is exercised, not just the dense path.
fn kernel_f64() -> impl Strategy<Value = f64> {
    prop_oneof![3 => -100.0..100.0f64, 1 => Just(0.0), 1 => Just(-0.0)]
}

/// GEMM shapes biased towards the awkward cases: empty products,
/// scalars, and tall/skinny panels that straddle the register blocks.
fn gemm_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        // Degenerate: any dimension may be zero.
        (0..3usize, 0..3usize, 0..3usize),
        // 1x1 and other tiny products.
        (1..3usize, 1..3usize, 1..3usize),
        // Tall/skinny: long k against narrow m/n.
        (1..4usize, 30..70usize, 1..4usize),
        // Wide outputs crossing the 4-wide register tile edge.
        (1..10usize, 1..10usize, 1..14usize),
        // General small blocks.
        (1..12usize, 1..12usize, 1..12usize),
    ]
}

fn gemm_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    gemm_shape().prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(kernel_f64(), m * k),
            prop::collection::vec(kernel_f64(), k * n),
        )
            .prop_map(move |(a, b)| (Matrix::from_vec(m, k, a), Matrix::from_vec(k, n, b)))
    })
}

fn assert_bits_eq(lhs: &Matrix, rhs: &Matrix) {
    prop_assert_eq!(lhs.shape(), rhs.shape());
    for (i, (x, y)) in lhs.as_slice().iter().zip(rhs.as_slice()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {} differs: {} vs {}",
            i,
            x,
            y
        );
    }
}

fn matrix(
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = Matrix> {
    (rows, cols).prop_flat_map(|(r, c)| {
        prop::collection::vec(small_f64(), r * c).prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in matrix(1..8, 1..8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_neutral(m in matrix(1..8, 1..8)) {
        let id = Matrix::identity(m.cols());
        let prod = m.matmul(&id);
        for (a, b) in prod.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(1..6, 1..6), b_data in prop::collection::vec(small_f64(), 36)) {
        // (A B)^T == B^T A^T for compatible shapes.
        let b = Matrix::from_vec(a.cols(), 6usize.min(36 / a.cols().max(1)).max(1),
            b_data[..a.cols() * 6usize.min(36 / a.cols().max(1)).max(1)].to_vec());
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert_eq!(lhs.shape(), rhs.shape());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn covariance_is_symmetric_psd_diagonal(m in matrix(2..20, 1..6)) {
        let cov = m.covariance();
        for i in 0..cov.rows() {
            prop_assert!(cov[(i, i)] >= -1e-9, "negative variance on diagonal");
            for j in 0..cov.cols() {
                prop_assert!((cov[(i, j)] - cov[(j, i)]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn eigen_preserves_trace_and_orthonormality(m in matrix(2..6, 2..6)) {
        // Symmetrise the random matrix first.
        let mt = m.transpose();
        let mut sym = Matrix::zeros(m.rows().min(m.cols()), m.rows().min(m.cols()));
        let n = sym.rows();
        for i in 0..n {
            for j in 0..n {
                sym[(i, j)] = (m[(i, j)] + mt[(i, j)]) / 2.0;
            }
        }
        let e = symmetric_eigen(&sym);
        let trace: f64 = (0..n).map(|i| sym[(i, i)]).sum();
        let eig_sum: f64 = e.values.iter().sum();
        prop_assert!((trace - eig_sum).abs() < 1e-6 * (1.0 + trace.abs()));
        for i in 0..n {
            let v = e.vectors.col(i);
            let norm: f64 = v.iter().map(|x| x * x).sum();
            prop_assert!((norm - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn pca_projection_is_centred(m in matrix(3..20, 2..6)) {
        let pca = Pca::fit(&m, 2);
        let proj = pca.transform(&m);
        for mean in proj.col_means() {
            prop_assert!(mean.abs() < 1e-6);
        }
        // Explained ratios are a sub-distribution.
        let total: f64 = pca.explained_ratio.iter().sum();
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&total));
    }

    #[test]
    fn solve_inverts_products(v in prop::collection::vec(-10.0..10.0f64, 2..5)) {
        // Build a well-conditioned SPD matrix A = B^T B + I and check
        // solve(A, A x) == x.
        let n = v.len();
        let b = Matrix::from_vec(n, n, (0..n * n).map(|i| ((i * 37 + 11) % 19) as f64 / 19.0).collect());
        let mut a = b.transpose().matmul(&b);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let rhs = a.matvec(&v);
        let x = solve(&a, &rhs).expect("SPD + I is nonsingular");
        for (xi, vi) in x.iter().zip(&v) {
            prop_assert!((xi - vi).abs() < 1e-6);
        }
    }

    #[test]
    fn ridge_residual_is_orthogonalish(ys in prop::collection::vec(-10.0..10.0f64, 8..20)) {
        let rows: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64, 1.0]).collect();
        let x = Matrix::from_rows(&rows);
        let w = ridge_regression(&x, &ys, 1e-9).expect("regularised");
        // The fitted line minimises MSE: perturbing w must not help.
        let mse = |w0: f64, w1: f64| -> f64 {
            ys.iter()
                .enumerate()
                .map(|(i, y)| (w0 * i as f64 + w1 - y).powi(2))
                .sum()
        };
        let base = mse(w[0], w[1]);
        prop_assert!(base <= mse(w[0] + 0.1, w[1]) + 1e-6);
        prop_assert!(base <= mse(w[0], w[1] + 0.1) + 1e-6);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(xs in prop::collection::vec(-1000.0..1000.0f64, 1..50)) {
        let f = five_number(&xs);
        prop_assert!(f.min <= f.q1 && f.q1 <= f.median && f.median <= f.q3 && f.q3 <= f.max);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(f.min, lo);
        prop_assert_eq!(f.max, hi);
        prop_assert!(quantile(&xs, 0.5) >= lo && quantile(&xs, 0.5) <= hi);
    }

    #[test]
    fn histogram_mass_conserved(xs in prop::collection::vec(-50.0..50.0f64, 1..100)) {
        let h = Histogram::from_data(&xs, 10);
        prop_assert_eq!(h.total, xs.len());
        let p = h.probabilities();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hellinger_bounds_and_symmetry(
        p in prop::collection::vec(0.0..1.0f64, 5),
        q in prop::collection::vec(0.0..1.0f64, 5),
    ) {
        let norm = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum::<f64>().max(1e-12);
            v.iter().map(|x| x / s).collect()
        };
        let (p, q) = (norm(&p), norm(&q));
        let d = hellinger(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        prop_assert!((d - hellinger(&q, &p)).abs() < 1e-12);
        prop_assert!(hellinger(&p, &p) < 1e-9);
    }

    #[test]
    fn kl_is_nonnegative(
        p in prop::collection::vec(0.0..1.0f64, 6),
        q in prop::collection::vec(0.0..1.0f64, 6),
    ) {
        prop_assert!(kl_divergence(&p, &q) >= -1e-9);
    }

    #[test]
    fn ks_statistic_bounds_and_identity(xs in prop::collection::vec(-10.0..10.0f64, 2..40)) {
        prop_assert!(ks_statistic(&xs, &xs) < 1e-12);
        let shifted: Vec<f64> = xs.iter().map(|x| x + 100.0).collect();
        let d = ks_statistic(&xs, &shifted);
        prop_assert!((d - 1.0).abs() < 1e-12);
        prop_assert!(ks_p_value(d, xs.len(), xs.len()) <= 1.0);
    }
}

// Bit-identity suites for the compute kernels: the blocked GEMM and the
// unrolled slice kernels must reproduce the scalar reference *bitwise*,
// not just within a tolerance — reordering within one output element's
// k-accumulation would silently change rounding and break the
// reproducibility guarantees downstream (sweep determinism, golden
// artifacts).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn blocked_gemm_is_bit_identical_to_scalar((a, b) in gemm_operands()) {
        let mut scalar = Matrix::zeros(a.rows(), b.cols());
        let mut blocked = Matrix::zeros(a.rows(), b.cols());
        kernels::matmul_scalar_into(&a, &b, &mut scalar);
        // Call the blocked path directly: the dispatcher would route
        // these small shapes to the scalar kernel, and the whole point
        // is to exercise panel packing and tile edges on them.
        kernels::matmul_blocked_into(&a, &b, &mut blocked);
        assert_bits_eq(&scalar, &blocked);
    }

    #[test]
    fn dispatching_matmul_matches_operator((a, b) in gemm_operands()) {
        let via_operator = a.matmul(&b);
        let mut via_into = Matrix::zeros(a.rows(), b.cols());
        kernels::matmul_into(&a, &b, &mut via_into);
        assert_bits_eq(&via_operator, &via_into);
    }

    #[test]
    fn dot_is_bit_identical_to_sum_chain(
        pair in prop::collection::vec((kernel_f64(), kernel_f64()), 0..40)
    ) {
        let xs: Vec<f64> = pair.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pair.iter().map(|p| p.1).collect();
        let naive: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        prop_assert_eq!(kernels::dot(&xs, &ys).to_bits(), naive.to_bits());
        // Seeded variant must match an accumulator loop started at init.
        let mut seeded = 7.25;
        for (x, y) in xs.iter().zip(&ys) {
            seeded += x * y;
        }
        prop_assert_eq!(kernels::dot_from(7.25, &xs, &ys).to_bits(), seeded.to_bits());
    }

    #[test]
    fn axpy_is_bit_identical_to_scalar_loop(
        a in kernel_f64(),
        pair in prop::collection::vec((kernel_f64(), kernel_f64()), 0..40)
    ) {
        let xs: Vec<f64> = pair.iter().map(|p| p.0).collect();
        let mut ys: Vec<f64> = pair.iter().map(|p| p.1).collect();
        let mut naive = ys.clone();
        for (yi, x) in naive.iter_mut().zip(&xs) {
            *yi += a * x;
        }
        kernels::axpy(a, &xs, &mut ys);
        for (x, y) in ys.iter().zip(&naive) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scale_add_is_bit_identical_to_scalar_loop(
        s in kernel_f64(),
        pair in prop::collection::vec((kernel_f64(), kernel_f64()), 0..40)
    ) {
        let xs: Vec<f64> = pair.iter().map(|p| p.0).collect();
        let mut ys: Vec<f64> = pair.iter().map(|p| p.1).collect();
        let mut naive = ys.clone();
        for (yi, x) in naive.iter_mut().zip(&xs) {
            *yi = s * *yi + x;
        }
        kernels::scale_add(s, &xs, &mut ys);
        for (x, y) in ys.iter().zip(&naive) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sum_and_sq_dist_are_bit_identical_to_iterator_chains(
        pair in prop::collection::vec((kernel_f64(), kernel_f64()), 0..40)
    ) {
        let xs: Vec<f64> = pair.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pair.iter().map(|p| p.1).collect();
        let naive_sum: f64 = xs.iter().sum();
        prop_assert_eq!(kernels::sum(&xs).to_bits(), naive_sum.to_bits());
        let naive_dist: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - y) * (x - y))
            .sum();
        prop_assert_eq!(kernels::sq_dist(&xs, &ys).to_bits(), naive_dist.to_bits());
    }

    #[test]
    fn matmul_is_bit_identical_across_four_threads((a, b) in gemm_operands()) {
        let mut sequential = Matrix::zeros(a.rows(), b.cols());
        kernels::matmul_into(&a, &b, &mut sequential);
        let results: Vec<Matrix> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Matrix::zeros(a.rows(), b.cols());
                        kernels::matmul_into(&a, &b, &mut out);
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in &results {
            assert_bits_eq(&sequential, out);
        }
    }
}
