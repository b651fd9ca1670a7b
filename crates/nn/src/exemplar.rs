//! iCaRL-style exemplar buffer — Rebuffi et al., CVPR 2017.
//!
//! Stores a bounded set of past samples chosen by *herding*: per class,
//! samples are greedily selected so the running mean of their hidden
//! representations tracks the class-mean representation. Following the
//! paper's adaptation (§6.1), regression streams treat all samples as a
//! single class, and only the exemplar-selection strategy is used (the
//! nearest-mean classifier is disregarded).

use crate::mlp::Mlp;
use oeb_linalg::Matrix;
use std::collections::BTreeMap;

/// A bounded exemplar store.
#[derive(Debug, Clone)]
pub struct ExemplarBuffer {
    /// Total capacity across classes (paper default 100).
    pub capacity: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl ExemplarBuffer {
    /// Creates an empty buffer with the given capacity.
    pub fn new(capacity: usize) -> ExemplarBuffer {
        ExemplarBuffer {
            capacity,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Number of stored exemplars.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Approximate buffer memory in bytes (for the Table 6 accounting).
    pub fn memory_bytes(&self) -> usize {
        self.xs.iter().map(|x| x.len() * 8).sum::<usize>() + self.ys.len() * 8
    }

    /// The stored exemplars as a matrix + target vector, or `None` when
    /// empty.
    pub fn as_training_data(&self) -> Option<(Matrix, Vec<f64>)> {
        if self.xs.is_empty() {
            None
        } else {
            Some((Matrix::from_rows(&self.xs), self.ys.clone()))
        }
    }

    /// Rebuilds the buffer from the union of the current buffer and the
    /// new window, herding in `model`'s hidden-representation space.
    ///
    /// `classify` controls grouping: classification groups by label,
    /// regression pools everything into one group.
    pub fn update(&mut self, model: &Mlp, xs: &Matrix, ys: &[f64], classify: bool) {
        assert_eq!(xs.rows(), ys.len());
        // Candidate pool = old exemplars + new window.
        let mut pool_x: Vec<Vec<f64>> = std::mem::take(&mut self.xs);
        let mut pool_y: Vec<f64> = std::mem::take(&mut self.ys);
        for r in 0..xs.rows() {
            pool_x.push(xs.row(r).to_vec());
            pool_y.push(ys[r]);
        }
        if pool_x.is_empty() || self.capacity == 0 {
            return;
        }

        // Group candidates.
        let mut groups: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
        for (i, &y) in pool_y.iter().enumerate() {
            let key = if classify { y as i64 } else { 0 };
            groups.entry(key).or_default().push(i);
        }
        let quota = (self.capacity / groups.len()).max(1);

        let mut keep: Vec<usize> = Vec::with_capacity(self.capacity);
        for members in groups.values() {
            keep.extend(herd(model, &pool_x, members, quota));
            if keep.len() >= self.capacity {
                keep.truncate(self.capacity);
                break;
            }
        }
        self.xs = keep.iter().map(|&i| pool_x[i].clone()).collect();
        self.ys = keep.iter().map(|&i| pool_y[i]).collect();
    }
}

/// Greedy herding: picks up to `quota` members whose representation mean
/// best tracks the group mean.
fn herd(model: &Mlp, pool: &[Vec<f64>], members: &[usize], quota: usize) -> Vec<usize> {
    let reprs: Vec<Vec<f64>> = members
        .iter()
        .map(|&i| model.hidden_repr(&pool[i]))
        .collect();
    let dim = reprs.first().map(Vec::len).unwrap_or(0);
    if dim == 0 {
        return members.iter().take(quota).copied().collect();
    }
    let mut mean = vec![0.0; dim];
    for r in &reprs {
        for (m, &v) in mean.iter_mut().zip(r) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= reprs.len() as f64;
    }

    let mut chosen: Vec<usize> = Vec::new();
    let mut chosen_sum = vec![0.0; dim];
    let mut used = vec![false; members.len()];
    for step in 0..quota.min(members.len()) {
        let k = (step + 1) as f64;
        let mut best: Option<(usize, f64)> = None;
        for (slot, r) in reprs.iter().enumerate() {
            if used[slot] {
                continue;
            }
            // Distance between the class mean and the mean including this
            // candidate.
            let mut d = 0.0;
            for i in 0..dim {
                let cand_mean = (chosen_sum[i] + r[i]) / k;
                let diff = mean[i] - cand_mean;
                d += diff * diff;
            }
            match best {
                Some((_, bd)) if bd <= d => {}
                _ => best = Some((slot, d)),
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "k <= reprs.len() leaves a free slot each round"
        )]
        let (slot, _) = best.expect("unused candidates remain");
        used[slot] = true;
        for (s, &v) in chosen_sum.iter_mut().zip(&reprs[slot]) {
            *s += v;
        }
        chosen.push(members[slot]);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Objective;

    fn model(input: usize) -> Mlp {
        Mlp::new(input, &[8, 4], 2, Objective::CrossEntropy, 11)
    }

    fn two_class_window() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let c = i % 2;
            rows.push(vec![c as f64 * 4.0 + (i % 5) as f64 * 0.1, -(c as f64)]);
            ys.push(c as f64);
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn respects_capacity() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(10);
        buf.update(&m, &xs, &ys, true);
        assert!(buf.len() <= 10);
        assert!(!buf.is_empty());
    }

    #[test]
    fn keeps_both_classes() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(10);
        buf.update(&m, &xs, &ys, true);
        let (_, kept_ys) = buf.as_training_data().unwrap();
        assert!(kept_ys.contains(&0.0));
        assert!(kept_ys.contains(&1.0));
    }

    #[test]
    fn regression_mode_pools_one_group() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(7);
        buf.update(&m, &xs, &ys, false);
        assert_eq!(buf.len(), 7);
    }

    #[test]
    fn accumulates_across_windows_within_capacity() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(20);
        buf.update(&m, &xs, &ys, true);
        let first = buf.len();
        buf.update(&m, &xs, &ys, true);
        assert!(buf.len() <= 20);
        assert!(buf.len() >= first.min(20));
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(0);
        buf.update(&m, &xs, &ys, true);
        assert!(buf.is_empty());
        assert!(buf.as_training_data().is_none());
    }

    #[test]
    fn memory_accounting() {
        let (xs, ys) = two_class_window();
        let m = model(2);
        let mut buf = ExemplarBuffer::new(10);
        buf.update(&m, &xs, &ys, true);
        assert_eq!(buf.memory_bytes(), buf.len() * 2 * 8 + buf.len() * 8);
    }
}
