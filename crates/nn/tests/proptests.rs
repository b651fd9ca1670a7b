//! Property-based tests for the neural substrate: parameter round-trips,
//! softmax simplex membership, loss nonnegativity, gradient-descent
//! sanity and exemplar-buffer invariants over arbitrary inputs.

use oeb_linalg::Matrix;
use oeb_nn::{softmax, ExemplarBuffer, Mlp, Objective, SgdConfig, TrainOpts, TrainScratch};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn params_roundtrip_preserves_function(
        seed in 0u64..1000,
        x in prop::collection::vec(-10.0..10.0f64, 4),
    ) {
        let m = Mlp::new(4, &[8, 4], 3, Objective::CrossEntropy, seed);
        let mut clone = Mlp::new(4, &[8, 4], 3, Objective::CrossEntropy, seed + 1);
        clone.set_params(&m.get_params());
        prop_assert_eq!(m.forward(&x), clone.forward(&x));
    }

    #[test]
    fn softmax_is_a_probability_simplex(z in prop::collection::vec(-50.0..50.0f64, 1..8)) {
        let p = softmax(&z);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
        // Softmax is shift-invariant.
        let shifted: Vec<f64> = z.iter().map(|v| v + 7.0).collect();
        let q = softmax(&shifted);
        for (a, b) in p.iter().zip(&q) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn losses_are_nonnegative(
        seed in 0u64..100,
        x in prop::collection::vec(-5.0..5.0f64, 3),
        y in 0usize..4,
    ) {
        let clf = Mlp::new(3, &[6], 4, Objective::CrossEntropy, seed);
        prop_assert!(clf.loss(&x, y as f64) >= 0.0);
        let reg = Mlp::new(3, &[6], 1, Objective::SquaredError, seed);
        prop_assert!(reg.loss(&x, 1.5) >= 0.0);
    }

    #[test]
    fn one_sgd_step_on_one_sample_reduces_its_loss(
        seed in 0u64..200,
        x in prop::collection::vec(-2.0..2.0f64, 3),
        y in -2.0..2.0f64,
    ) {
        let mut m = Mlp::new(3, &[8], 1, Objective::SquaredError, seed);
        let before = m.loss(&x, y);
        prop_assume!(before > 1e-6);
        let xs = Matrix::from_rows(std::slice::from_ref(&x));
        m.train_batch(&xs, &[y], &[0], 0.001, &TrainOpts::default(), &mut TrainScratch::default());
        let after = m.loss(&x, y);
        prop_assert!(after <= before + 1e-9, "loss rose from {before} to {after}");
    }

    #[test]
    fn fisher_diagonal_is_nonnegative(seed in 0u64..100, n in 1usize..20) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 5) as f64, 1.0]).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let m = Mlp::new(2, &[4], 2, Objective::CrossEntropy, seed);
        let f = m.fisher_diagonal(&Matrix::from_rows(&rows), &ys, 50);
        prop_assert_eq!(f.len(), m.n_params());
        prop_assert!(f.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn exemplar_buffer_never_exceeds_capacity(
        capacity in 0usize..40,
        rounds in 1usize..4,
        labels in prop::collection::vec(0usize..3, 10..40),
    ) {
        let model = Mlp::new(2, &[4], 3, Objective::CrossEntropy, 1);
        let mut buf = ExemplarBuffer::new(capacity);
        for _ in 0..rounds {
            let rows: Vec<Vec<f64>> = labels
                .iter()
                .map(|&c| vec![c as f64, 1.0 - c as f64])
                .collect();
            let ys: Vec<f64> = labels.iter().map(|&c| c as f64).collect();
            buf.update(&model, &Matrix::from_rows(&rows), &ys, true);
            prop_assert!(buf.len() <= capacity.max(3), "buffer {} over capacity {}", buf.len(), capacity);
        }
    }

    /// The tentpole contract of the GEMM training path: batched
    /// `train_batch` must be bit-identical to the retained per-sample
    /// reference across degenerate shapes (1-row batches, single-neuron
    /// layers) and with the LwF / EWC options on. Data mixes in exact
    /// zeros, huge magnitudes (overflow to inf exercises the no-skip
    /// chains) and NaN (exercises the skipped-update path).
    #[test]
    fn batched_train_matches_reference_bitwise(
        seed in 0u64..1000,
        arch in prop_oneof![
            Just((1usize, vec![], 1usize)),
            Just((1, vec![1], 1)),
            Just((3, vec![1, 4], 2)),
            Just((5, vec![8, 4], 3)),
            Just((2, vec![16, 8], 2)),
        ],
        n_rows in 1usize..70,
        objective_sel in 0usize..2,
        reg_sel in 0usize..3,
        lambda in 0.01..5.0f64,
        data in prop::collection::vec(
            prop_oneof![
                5 => -3.0..3.0f64,
                1 => Just(0.0),
                1 => Just(1e300),
                1 => Just(f64::NAN),
            ],
            1..64,
        ),
    ) {
        let (input, hidden, output) = arch;
        let objective = if objective_sel == 0 && output > 1 {
            Objective::CrossEntropy
        } else {
            Objective::SquaredError
        };
        let (width, n_out) = if objective == Objective::SquaredError {
            (input, 1)
        } else {
            (input, output)
        };
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|r| (0..width).map(|c| data[(r * 31 + c * 7) % data.len()]).collect())
            .collect();
        let ys: Vec<f64> = (0..n_rows).map(|r| (r % n_out.max(2)) as f64).collect();
        let xs = Matrix::from_rows(&rows);
        let mut batched = Mlp::new(input, &hidden, n_out, objective, seed);
        let mut reference = batched.clone();
        let teacher = Mlp::new(input, &hidden, n_out, objective, seed ^ 0x5eed);
        let anchor = batched.get_params();
        let fisher: Vec<f64> = (0..batched.n_params()).map(|i| (i % 5) as f64 * 0.25).collect();
        let opts = match reg_sel {
            1 => TrainOpts { ewc: Some((&anchor, &fisher, lambda)), ..Default::default() },
            2 => TrainOpts { distill: Some((&teacher, lambda)), ..Default::default() },
            _ => TrainOpts::default(),
        };
        // Several steps, including 1-row batches and a ragged tail.
        let all: Vec<usize> = (0..n_rows).collect();
        let mut scratch = TrainScratch::default();
        for step in 0..3 {
            let batch: Vec<usize> = match step {
                0 => vec![all[seed as usize % n_rows]],
                1 => all.clone(),
                _ => all.iter().copied().step_by(2).collect(),
            };
            let lb = batched.train_batch(&xs, &ys, &batch, 0.01, &opts, &mut scratch);
            let lr_ = reference.train_batch_reference(&xs, &ys, &batch, 0.01, &opts);
            prop_assert!(
                lb.to_bits() == lr_.to_bits() || (lb.is_nan() && lr_.is_nan()),
                "loss diverged at step {}: {} vs {}", step, lb, lr_
            );
            let pb = batched.get_params();
            let pr = reference.get_params();
            for (i, (a, b)) in pb.iter().zip(&pr).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "param {} diverged at step {}: {} vs {}", i, step, a, b
                );
            }
        }
    }

    #[test]
    fn training_config_is_deterministic(seed in 0u64..50) {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![(i % 8) as f64 / 8.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * 2.0).collect();
        let xs = Matrix::from_rows(&rows);
        let cfg = SgdConfig { epochs: 3, batch_size: 16, lr: 0.05, seed };
        let run = || {
            let mut m = Mlp::new(1, &[6], 1, Objective::SquaredError, seed);
            oeb_nn::train_window(&mut m, &xs, &ys, &cfg, &oeb_nn::Regularizer::None);
            m.get_params()
        };
        prop_assert_eq!(run(), run());
    }
}
