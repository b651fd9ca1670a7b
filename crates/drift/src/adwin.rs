//! ADWIN (ADaptive WINdowing) — Bifet & Gavaldà, SDM 2007.
//!
//! Maintains a variable-length window over a real-valued stream and drops
//! the oldest items whenever two sub-windows exhibit statistically
//! distinct means. Used both as a 1-D data-drift detector and, fed with an
//! error stream, as the paper's "ADWIN accuracy" concept-drift detector.
//!
//! This implementation uses the standard exponential-histogram bucket
//! compression, so memory is `O(M log(n/M))` for window length `n`.

use crate::state::{ConceptDriftDetector, DriftState};

/// A bucket row: up to `max_buckets` buckets each summarising `2^row`
/// items by (sum, count-implicit).
#[derive(Debug, Clone, Default)]
struct BucketRow {
    /// Sums of each bucket in this row (all hold `2^row` items).
    sums: Vec<f64>,
    /// Sums of squares for variance tracking.
    sq_sums: Vec<f64>,
}

/// ADWIN detector over a real-valued stream.
#[derive(Debug, Clone)]
pub struct Adwin {
    /// Confidence parameter; smaller = more conservative. Default 0.002.
    delta: f64,
    /// Maximum buckets per exponential row before two merge.
    max_buckets: usize,
    rows: Vec<BucketRow>,
    /// Total items in the window.
    total: usize,
    /// Total sum over the window.
    sum: f64,
    /// Check for cuts only every `clock` items (standard optimisation).
    clock: usize,
    since_check: usize,
}

impl Adwin {
    /// Creates an ADWIN detector with confidence `delta` (typical 0.002).
    pub fn new(delta: f64) -> Adwin {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        Adwin {
            delta,
            max_buckets: 5,
            rows: vec![BucketRow::default()],
            total: 0,
            sum: 0.0,
            clock: 8,
            since_check: 0,
        }
    }

    /// Current window length.
    pub fn window_len(&self) -> usize {
        self.total
    }

    /// Current window mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Inserts a value; returns `true` when the window was cut (drift).
    pub fn insert(&mut self, value: f64) -> bool {
        // New item enters row 0 as a singleton bucket.
        self.rows[0].sums.insert(0, value); // oeb-lint: allow(panic-in-library) -- row 0 exists from construction
        self.rows[0].sq_sums.insert(0, value * value); // oeb-lint: allow(panic-in-library) -- row 0 exists from construction
        self.total += 1;
        self.sum += value;
        self.compress();

        self.since_check += 1;
        if self.since_check < self.clock {
            return false;
        }
        self.since_check = 0;
        self.detect_cut()
    }

    /// Merges overflowing buckets upward (two `2^r` buckets -> one
    /// `2^{r+1}` bucket).
    fn compress(&mut self) {
        let mut row = 0;
        while row < self.rows.len() {
            if self.rows[row].sums.len() > self.max_buckets {
                if row + 1 == self.rows.len() {
                    self.rows.push(BucketRow::default());
                }
                // Merge the two oldest buckets of this row.
                #[expect(clippy::expect_used, reason = "pop guarded by the len check above")]
                let s1 = self.rows[row].sums.pop().expect("len > max_buckets");
                #[expect(clippy::expect_used, reason = "pop guarded by the len check above")]
                let s2 = self.rows[row].sums.pop().expect("len > max_buckets");
                #[expect(clippy::expect_used, reason = "sq_sums moves in lockstep with sums")]
                let q1 = self.rows[row].sq_sums.pop().expect("len > max_buckets");
                #[expect(clippy::expect_used, reason = "sq_sums moves in lockstep with sums")]
                let q2 = self.rows[row].sq_sums.pop().expect("len > max_buckets");
                self.rows[row + 1].sums.insert(0, s1 + s2);
                self.rows[row + 1].sq_sums.insert(0, q1 + q2);
                row += 1;
            } else {
                row += 1;
            }
        }
    }

    /// Scans cut points oldest-first; drops tail buckets while a
    /// statistically significant mean difference exists.
    fn detect_cut(&mut self) -> bool {
        if self.total < 10 {
            return false;
        }
        let mut cut_happened = false;
        loop {
            let mut found = false;
            // Walk buckets from oldest (deepest row, last position) to
            // newest, accumulating the "old" side.
            let mut n0 = 0f64;
            let mut s0 = 0f64;
            let total_n = self.total as f64;
            let total_s = self.sum;

            'outer: for row in (0..self.rows.len()).rev() {
                let size = (1usize << row) as f64;
                for b in (0..self.rows[row].sums.len()).rev() {
                    n0 += size;
                    s0 += self.rows[row].sums[b];
                    let n1 = total_n - n0;
                    if n1 < 1.0 || n0 < 1.0 {
                        continue;
                    }
                    let mu0 = s0 / n0;
                    let mu1 = (total_s - s0) / n1;
                    if self.cut_test(n0, n1, mu0, mu1) {
                        // Drop the oldest bucket and retry.
                        self.drop_oldest_bucket();
                        found = true;
                        cut_happened = true;
                        break 'outer;
                    }
                }
            }
            if !found {
                break;
            }
        }
        cut_happened
    }

    /// The ADWIN epsilon-cut condition with variance correction.
    fn cut_test(&self, n0: f64, n1: f64, mu0: f64, mu1: f64) -> bool {
        let n = self.total as f64;
        let variance = self.variance();
        let m = 1.0 / (1.0 / n0 + 1.0 / n1);
        let delta_prime = self.delta / n.ln().max(1.0);
        let eps = (2.0 / m * variance * (2.0 / delta_prime).ln()).sqrt()
            + 2.0 / (3.0 * m) * (2.0 / delta_prime).ln();
        (mu0 - mu1).abs() > eps
    }

    fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let sq_sum: f64 = self.rows.iter().flat_map(|r| &r.sq_sums).sum();
        (sq_sum / self.total as f64 - mean * mean).max(0.0)
    }

    fn drop_oldest_bucket(&mut self) {
        for row in (0..self.rows.len()).rev() {
            if let Some(s) = self.rows[row].sums.pop() {
                self.rows[row].sq_sums.pop();
                self.sum -= s;
                self.total -= 1usize << row;
                return;
            }
        }
    }
}

impl ConceptDriftDetector for Adwin {
    fn update(&mut self, error: f64) -> DriftState {
        if self.insert(error) {
            DriftState::Drift
        } else {
            DriftState::Stable
        }
    }

    fn reset(&mut self) {
        *self = Adwin::new(self.delta);
    }

    fn name(&self) -> &'static str {
        "ADWIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_stream_keeps_growing_window() {
        let mut a = Adwin::new(0.002);
        let mut drifted = false;
        for i in 0..2000 {
            let v = if i % 2 == 0 { 0.4 } else { 0.6 };
            drifted |= a.insert(v);
        }
        assert!(!drifted, "false positive on a stable stream");
        assert!(a.window_len() > 1000);
        assert!((a.mean() - 0.5).abs() < 0.05);
    }

    #[test]
    fn abrupt_mean_shift_is_detected_and_window_shrinks() {
        let mut a = Adwin::new(0.002);
        for _ in 0..1000 {
            a.insert(0.1);
        }
        let mut detected = false;
        for _ in 0..400 {
            detected |= a.insert(0.9);
        }
        assert!(detected, "missed an abrupt shift");
        // Window should have dropped most of the old regime.
        assert!(a.window_len() < 800, "window = {}", a.window_len());
        assert!(a.mean() > 0.6);
    }

    #[test]
    fn small_shift_needs_more_data_than_large_shift() {
        let detect_after = |shift: f64| -> usize {
            let mut a = Adwin::new(0.002);
            for _ in 0..1000 {
                a.insert(0.3);
            }
            for i in 0..4000 {
                if a.insert(0.3 + shift) {
                    return i;
                }
            }
            4000
        };
        let big = detect_after(0.5);
        let small = detect_after(0.12);
        assert!(
            big < small,
            "large shift detected at {big}, small at {small}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut a = Adwin::new(0.002);
        for _ in 0..100 {
            a.insert(1.0);
        }
        a.reset();
        assert_eq!(a.window_len(), 0);
        assert_eq!(a.mean(), 0.0);
    }

    #[test]
    fn bucket_compression_bounds_memory() {
        let mut a = Adwin::new(0.002);
        for _ in 0..100_000 {
            a.insert(0.5);
        }
        let buckets: usize = a.rows.iter().map(|r| r.sums.len()).sum();
        assert!(buckets < 150, "buckets = {buckets}");
        assert_eq!(a.window_len(), 100_000);
    }
}
