//! ECOD — Empirical-Cumulative-distribution-based Outlier Detection,
//! Li et al., TKDE 2022.
//!
//! ECOD is parameter-free: for every dimension it estimates left- and
//! right-tail probabilities from the empirical CDF, aggregates the
//! negative log tail probabilities across dimensions (choosing the tail
//! per-dimension by the data's skewness for the "auto" variant), and
//! scores each sample by the largest of the three aggregates. Higher
//! scores mean more outlying.

use oeb_linalg::{skewness, Matrix};

/// A fitted ECOD model.
#[derive(Debug, Clone)]
pub struct Ecod {
    /// Sorted finite values per dimension (the ECDF support).
    sorted: Vec<Vec<f64>>,
    /// Per-dimension skewness of the training data.
    skew: Vec<f64>,
}

impl Ecod {
    /// Fits ECOD on a training matrix (rows = samples). Non-finite cells
    /// are ignored per-dimension.
    pub fn fit(data: &Matrix) -> Ecod {
        let d = data.cols();
        let mut sorted = Vec::with_capacity(d);
        let mut skew = Vec::with_capacity(d);
        for c in 0..d {
            let mut col: Vec<f64> = data.col(c).into_iter().filter(|x| x.is_finite()).collect();
            col.sort_by(f64::total_cmp);
            skew.push(skewness(&col));
            sorted.push(col);
        }
        Ecod { sorted, skew }
    }

    /// Left-tail empirical probability `P(X <= x)` with the +1 smoothing
    /// ECOD uses so probabilities never hit zero.
    fn left_tail(&self, c: usize, x: f64) -> f64 {
        let col = &self.sorted[c];
        if col.is_empty() {
            return 1.0;
        }
        let rank = col.partition_point(|&v| v <= x);
        (rank as f64 + 1.0) / (col.len() as f64 + 2.0)
    }

    /// Right-tail empirical probability `P(X >= x)`.
    fn right_tail(&self, c: usize, x: f64) -> f64 {
        let col = &self.sorted[c];
        if col.is_empty() {
            return 1.0;
        }
        let below = col.partition_point(|&v| v < x);
        let geq = col.len() - below;
        (geq as f64 + 1.0) / (col.len() as f64 + 2.0)
    }

    /// Outlier score of a single sample (higher = more outlying).
    /// Missing (non-finite) cells contribute nothing.
    pub fn score(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.sorted.len(), "dimension mismatch");
        let mut s_left = 0.0;
        let mut s_right = 0.0;
        let mut s_auto = 0.0;
        for (c, &x) in row.iter().enumerate() {
            if !x.is_finite() {
                continue;
            }
            let l = -self.left_tail(c, x).ln();
            let r = -self.right_tail(c, x).ln();
            s_left += l;
            s_right += r;
            s_auto += if self.skew[c] < 0.0 { l } else { r };
        }
        s_left.max(s_right).max(s_auto)
    }

    /// Scores every row of a matrix.
    pub fn score_all(&self, data: &Matrix) -> Vec<f64> {
        (0..data.rows()).map(|r| self.score(data.row(r))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_data() -> Matrix {
        // Dense cluster near the origin.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let a = i as f64 * 0.03;
                vec![a.sin() * 0.5, a.cos() * 0.5]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn outlier_scores_higher_than_inliers() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let inlier = model.score(&[0.1, 0.2]);
        let outlier = model.score(&[8.0, -7.0]);
        assert!(
            outlier > inlier * 2.0,
            "outlier {outlier} vs inlier {inlier}"
        );
    }

    #[test]
    fn score_increases_with_tail_distance() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let near = model.score(&[1.0, 0.0]);
        let far = model.score(&[3.0, 0.0]);
        let very_far = model.score(&[10.0, 0.0]);
        assert!(near <= far && far <= very_far, "{near} {far} {very_far}");
    }

    #[test]
    fn both_tails_are_detected() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let base = model.score(&[0.0, 0.0]);
        assert!(model.score(&[5.0, 0.0]) > base);
        assert!(model.score(&[-5.0, 0.0]) > base);
    }

    #[test]
    fn missing_cells_are_skipped() {
        let data = ring_data();
        let model = Ecod::fit(&data);
        let s = model.score(&[f64::NAN, 0.3]);
        assert!(s.is_finite());
    }

    #[test]
    fn handles_training_data_with_nan_columns() {
        let data = Matrix::from_rows(&[
            vec![1.0, f64::NAN],
            vec![2.0, f64::NAN],
            vec![3.0, f64::NAN],
        ]);
        let model = Ecod::fit(&data);
        assert!(model.score(&[2.0, 5.0]).is_finite());
    }

    #[test]
    fn scores_are_deterministic() {
        let data = ring_data();
        let m1 = Ecod::fit(&data);
        let m2 = Ecod::fit(&data);
        assert_eq!(m1.score_all(&data), m2.score_all(&data));
    }
}
