//! Property-based tests for preprocessing: the imputer contract (no NaN
//! left, observed cells untouched), one-hot structure, and scaler
//! invertibility — over arbitrary hole patterns.

#![expect(clippy::float_cmp, reason = "tests assert exact deterministic values")]

use oeb_linalg::Matrix;
use oeb_preprocess::{
    Imputer, KnnImputer, MeanImputer, OneHotEncoder, RegressionImputer, StandardScaler,
    TargetScaler, ZeroImputer,
};
use oeb_tabular::{Column, Field, Schema, Table};
use proptest::prelude::*;

/// A matrix with random holes; at least one cell per column observed.
fn holey_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..20, 1usize..5).prop_flat_map(|(rows, cols)| {
        prop::collection::vec(
            prop_oneof![
                4 => (-100.0..100.0f64).prop_map(Some),
                1 => Just(None)
            ],
            rows * cols,
        )
        .prop_map(move |cells| {
            let mut data: Vec<f64> = cells.into_iter().map(|c| c.unwrap_or(f64::NAN)).collect();
            // Guarantee one observed cell per column so means exist.
            for cell in data.iter_mut().take(cols) {
                *cell = 1.0;
            }
            Matrix::from_vec(rows, cols, data)
        })
    })
}

fn imputers() -> Vec<Box<dyn Imputer>> {
    vec![
        Box::new(ZeroImputer),
        Box::new(MeanImputer),
        Box::new(KnnImputer { k: 2 }),
        Box::new(KnnImputer { k: 5 }),
        Box::new(RegressionImputer::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn imputers_complete_and_preserve(m in holey_matrix()) {
        for imp in imputers() {
            let mut data = m.clone();
            imp.impute(&mut data, &m);
            prop_assert!(data.is_finite(), "{} left non-finite cells", imp.name());
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    if m[(r, c)].is_finite() {
                        prop_assert_eq!(data[(r, c)], m[(r, c)], "{} changed an observed cell", imp.name());
                    }
                }
            }
        }
    }

    #[test]
    fn mean_imputed_values_are_within_column_range(m in holey_matrix()) {
        let mut data = m.clone();
        MeanImputer.impute(&mut data, &m);
        for c in 0..m.cols() {
            let observed: Vec<f64> = m.col(c).into_iter().filter(|x| x.is_finite()).collect();
            let lo = observed.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = observed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for r in 0..m.rows() {
                if !m[(r, c)].is_finite() {
                    prop_assert!(data[(r, c)] >= lo - 1e-9 && data[(r, c)] <= hi + 1e-9);
                }
            }
        }
    }

    #[test]
    fn knn_imputed_values_are_within_column_range(m in holey_matrix()) {
        // KNN fills with means of observed neighbours, so values stay in
        // the observed range of the column.
        let mut data = m.clone();
        KnnImputer { k: 3 }.impute(&mut data, &m);
        for c in 0..m.cols() {
            let observed: Vec<f64> = m.col(c).into_iter().filter(|x| x.is_finite()).collect();
            let lo = observed.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = observed.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for r in 0..m.rows() {
                if !m[(r, c)].is_finite() {
                    prop_assert!(data[(r, c)] >= lo - 1e-9 && data[(r, c)] <= hi + 1e-9);
                }
            }
        }
    }

    #[test]
    fn scaler_is_invertible_on_finite_cells(m in holey_matrix()) {
        let scaler = StandardScaler::fit(&m);
        let mut scaled = m.clone();
        scaler.transform(&mut scaled);
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                if m[(r, c)].is_finite() {
                    let back = scaler.inverse_value(c, scaled[(r, c)]);
                    prop_assert!((back - m[(r, c)]).abs() < 1e-6 * (1.0 + m[(r, c)].abs()));
                } else {
                    prop_assert!(scaled[(r, c)].is_nan());
                }
            }
        }
    }

    #[test]
    fn target_scaler_roundtrip(xs in prop::collection::vec(-1e4..1e4f64, 1..40)) {
        let t = TargetScaler::fit(&xs);
        for &x in &xs {
            let back = t.inverse(t.transform(x));
            prop_assert!((back - x).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn onehot_rows_have_unit_category_mass(
        cells in prop::collection::vec(prop_oneof![4 => (0u32..4).prop_map(Some), 1 => Just(None)], 1..30)
    ) {
        let n = cells.len();
        let schema = Schema::new(vec![Field::categorical("c", &["a", "b", "c", "d"])]);
        let table = Table::new(schema, vec![Column::Categorical(cells.clone())]);
        let enc = OneHotEncoder::fit(&table, &[0]);
        let m = enc.encode_all(&table);
        prop_assert_eq!(m.shape(), (n, 4));
        for (r, cell) in cells.iter().enumerate() {
            match cell {
                Some(idx) => {
                    let sum: f64 = m.row(r).iter().sum();
                    prop_assert_eq!(sum, 1.0);
                    prop_assert_eq!(m[(r, *idx as usize)], 1.0);
                }
                None => {
                    prop_assert!(m.row(r).iter().all(|x| x.is_nan()));
                }
            }
        }
    }
}
