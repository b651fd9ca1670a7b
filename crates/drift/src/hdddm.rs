//! HDDDM — Hellinger Distance Drift Detection Method, Ditzler & Polikar,
//! CIDUE 2011.
//!
//! A multi-dimensional batch detector: each incoming window is compared to
//! a growing baseline via the average per-feature Hellinger distance
//! between histograms. The change in distance between consecutive windows
//! is tested against an adaptive threshold (mean + gamma * std of the
//! historical changes). On drift the baseline resets to the new window.

use crate::state::{BatchDriftDetector, DriftState};
use oeb_linalg::{hellinger, Histogram, Matrix};

/// Histogram resolution used for the per-feature Hellinger distances.
const BINS: usize = 16;

/// HDDDM detector.
#[derive(Debug, Clone)]
pub struct Hdddm {
    /// Threshold multiplier for drift (original paper: gamma in [0.5, 2]).
    pub gamma: f64,
    /// Threshold multiplier for the warning zone (must be < gamma).
    pub warn_gamma: f64,
    baseline: Option<Matrix>,
    prev_distance: Option<f64>,
    /// Historical |epsilon| changes since the last reset.
    diffs: Vec<f64>,
}

impl Hdddm {
    /// Creates an HDDDM detector with the given drift multiplier.
    pub fn new(gamma: f64) -> Hdddm {
        Hdddm {
            gamma,
            warn_gamma: gamma * 0.5,
            baseline: None,
            prev_distance: None,
            diffs: Vec::new(),
        }
    }

    /// Average per-feature Hellinger distance between two matrices.
    fn distance(a: &Matrix, b: &Matrix) -> f64 {
        let d = a.cols().min(b.cols());
        if d == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for c in 0..d {
            let ca = a.col(c);
            let cb = b.col(c);
            // Shared range so the histograms are comparable.
            let all: Vec<f64> = ca
                .iter()
                .chain(cb.iter())
                .copied()
                .filter(|x| x.is_finite())
                .collect();
            if all.is_empty() {
                continue;
            }
            let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = all.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let hi = if hi > lo { hi } else { lo + 1.0 };
            let ha = Histogram::new(&ca, BINS, lo, hi);
            let hb = Histogram::new(&cb, BINS, lo, hi);
            total += hellinger(&ha.probabilities(), &hb.probabilities());
        }
        total / d as f64
    }

    fn append_baseline(&mut self, window: &Matrix) {
        match &mut self.baseline {
            None => self.baseline = Some(window.clone()),
            Some(base) => {
                let mut rows: Vec<Vec<f64>> =
                    (0..base.rows()).map(|r| base.row(r).to_vec()).collect();
                rows.extend((0..window.rows()).map(|r| window.row(r).to_vec()));
                *base = Matrix::from_rows(&rows);
            }
        }
    }
}

impl Default for Hdddm {
    fn default() -> Self {
        Hdddm::new(1.5)
    }
}

impl BatchDriftDetector for Hdddm {
    fn update(&mut self, window: &Matrix) -> DriftState {
        let Some(baseline) = &self.baseline else {
            self.baseline = Some(window.clone());
            return DriftState::Stable;
        };
        let dist = Self::distance(baseline, window);
        let state = match self.prev_distance {
            None => DriftState::Stable,
            Some(prev) => {
                let eps = (dist - prev).abs();
                if self.diffs.len() >= 2 {
                    let mean = oeb_linalg::mean(&self.diffs);
                    // Floor the deviation so a run of near-identical
                    // distances cannot make the threshold collapse.
                    let std = oeb_linalg::std_dev(&self.diffs).max(0.25 * mean + 1e-4);
                    if eps > mean + self.gamma * std {
                        DriftState::Drift
                    } else if eps > mean + self.warn_gamma * std {
                        DriftState::Warning
                    } else {
                        DriftState::Stable
                    }
                } else {
                    DriftState::Stable
                }
            }
        };
        if state.is_drift() {
            // Reset the baseline to the drifted window.
            self.baseline = Some(window.clone());
            self.prev_distance = None;
            self.diffs.clear();
        } else {
            if let Some(prev) = self.prev_distance {
                self.diffs.push((dist - prev).abs());
            }
            self.prev_distance = Some(dist);
            self.append_baseline(window);
        }
        state
    }

    fn reset(&mut self) {
        self.baseline = None;
        self.prev_distance = None;
        self.diffs.clear();
    }

    fn name(&self) -> &'static str {
        "HDDDM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn window(rng: &mut StdRng, shift: f64, n: usize, d: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..d).map(|_| rng.gen::<f64>() + shift).collect())
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn quiet_on_stationary_windows() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut det = Hdddm::default();
        let mut drifts = 0;
        for _ in 0..25 {
            if det.update(&window(&mut rng, 0.0, 200, 4)).is_drift() {
                drifts += 1;
            }
        }
        assert!(drifts <= 2, "{drifts} false drifts");
    }

    #[test]
    fn fires_on_abrupt_shift() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut det = Hdddm::default();
        for _ in 0..10 {
            det.update(&window(&mut rng, 0.0, 200, 4));
        }
        let mut fired = false;
        for _ in 0..3 {
            if det.update(&window(&mut rng, 3.0, 200, 4)).is_drift() {
                fired = true;
                break;
            }
        }
        assert!(fired, "HDDDM missed an abrupt shift");
    }

    #[test]
    fn baseline_resets_after_drift() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut det = Hdddm::default();
        for _ in 0..10 {
            det.update(&window(&mut rng, 0.0, 200, 4));
        }
        // Force the drift.
        while !det.update(&window(&mut rng, 3.0, 200, 4)).is_drift() {}
        // The new regime becomes the baseline: staying there is stable.
        let mut post_drifts = 0;
        for _ in 0..10 {
            if det.update(&window(&mut rng, 3.0, 200, 4)).is_drift() {
                post_drifts += 1;
            }
        }
        assert!(
            post_drifts <= 1,
            "{post_drifts} drifts after baseline reset"
        );
    }

    #[test]
    fn distance_is_zero_for_identical_windows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert!(Hdddm::distance(&m, &m) < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut det = Hdddm::default();
        det.update(&window(&mut rng, 0.0, 50, 2));
        det.reset();
        assert!(det.baseline.is_none());
    }
}
