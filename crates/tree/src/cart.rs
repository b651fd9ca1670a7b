//! CART decision trees (classification by Gini impurity, regression by
//! variance reduction), with optional per-split feature subsampling so the
//! same implementation backs bagged ensembles.
//!
//! Candidate thresholds per feature are limited to quantile cut points,
//! which bounds fit cost at `O(n log n)` per feature without hurting
//! accuracy at benchmark scale.

use oeb_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Tree learning task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeTask {
    /// Predict one of `n_classes` labels (targets are class indices).
    Classification {
        /// Number of classes.
        n_classes: usize,
    },
    /// Predict a continuous value.
    Regression,
}

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Candidate thresholds per feature (quantile cuts).
    pub max_thresholds: usize,
    /// `Some(k)`: consider a random subset of `k` features per split
    /// (for random-forest-style ensembles).
    pub max_features: Option<usize>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_leaf: 4,
            max_thresholds: 32,
            max_features: None,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// Class index or regression mean.
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// NaN (missing) routes to the majority side chosen at fit time.
        nan_left: bool,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.count() + right.count(),
        }
    }
}

/// Stable per-feature row orderings of a training matrix, computed once
/// and shared across every tree fitted on the same rows (a GBDT fits
/// `rounds x classes` trees per window; the orderings depend only on
/// the feature values, never on the targets).
///
/// The per-node split sweep historically stable-sorted each node's
/// `(value, target)` pairs from scratch. Node index sets are always
/// ascending (the root starts ascending and `partition` preserves
/// relative order), so stably filtering these root orderings by node
/// membership reproduces each node's historical sequence exactly —
/// values ascending, ties in ascending row order — and the sweep's
/// accumulation chains stay bit-identical.
#[derive(Debug, Clone)]
pub struct FeaturePresort {
    /// Per feature: rows with finite values, ascending by value, ties
    /// in ascending row order (stable sort of the ascending range).
    finite: Vec<Vec<u32>>,
    /// Per feature: rows with non-finite values, ascending.
    nonfinite: Vec<Vec<u32>>,
}

impl FeaturePresort {
    /// Sorts every feature column of `xs` once.
    pub fn new(xs: &Matrix) -> FeaturePresort {
        let (n, d) = (xs.rows(), xs.cols());
        let mut finite = Vec::with_capacity(d);
        let mut nonfinite = Vec::with_capacity(d);
        for f in 0..d {
            let mut fin: Vec<u32> = Vec::with_capacity(n);
            let mut non: Vec<u32> = Vec::new();
            for i in 0..n {
                if xs[(i, f)].is_finite() {
                    fin.push(i as u32);
                } else {
                    non.push(i as u32);
                }
            }
            fin.sort_by(|&a, &b| xs[(a as usize, f)].total_cmp(&xs[(b as usize, f)]));
            finite.push(fin);
            nonfinite.push(non);
        }
        FeaturePresort { finite, nonfinite }
    }
}

/// Reusable per-fit buffers: node membership marks, the assembled
/// `(value, target)` sequence, the feature subset, and the sweep's
/// aggregate registers — so the per-node/per-candidate work allocates
/// nothing.
struct BuildScratch {
    in_node: Vec<bool>,
    sorted: Vec<(f64, f64)>,
    features: Vec<usize>,
    nan: SplitAgg,
    total: SplitAgg,
    left: SplitAgg,
    right: SplitAgg,
    with_nan: SplitAgg,
}

impl BuildScratch {
    fn new(n: usize, d: usize, task: TreeTask) -> BuildScratch {
        BuildScratch {
            in_node: vec![false; n],
            sorted: Vec::with_capacity(n),
            features: Vec::with_capacity(d),
            nan: SplitAgg::new(task),
            total: SplitAgg::new(task),
            left: SplitAgg::new(task),
            right: SplitAgg::new(task),
            with_nan: SplitAgg::new(task),
        }
    }
}

/// A fitted CART decision tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    task: TreeTask,
    n_features: usize,
}

impl DecisionTree {
    /// Fits a tree on `(xs, ys)`.
    ///
    /// # Panics
    /// Panics on empty input or length mismatch.
    pub fn fit(xs: &Matrix, ys: &[f64], task: TreeTask, config: &TreeConfig) -> DecisionTree {
        let presort = FeaturePresort::new(xs);
        Self::fit_with_presort(xs, ys, task, config, &presort)
    }

    /// [`DecisionTree::fit`] reusing an existing [`FeaturePresort`] of
    /// `xs` — the ensemble entry point (compute the presort once per
    /// window, fit many trees against it).
    ///
    /// # Panics
    /// Panics on empty input or length mismatch.
    pub fn fit_with_presort(
        xs: &Matrix,
        ys: &[f64],
        task: TreeTask,
        config: &TreeConfig,
        presort: &FeaturePresort,
    ) -> DecisionTree {
        assert_eq!(xs.rows(), ys.len(), "feature/target length mismatch");
        assert!(xs.rows() > 0, "cannot fit a tree on no data");
        let idx: Vec<usize> = (0..xs.rows()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut scratch = BuildScratch::new(xs.rows(), xs.cols(), task);
        let root = build(
            xs,
            ys,
            &idx,
            task,
            config,
            0,
            &mut rng,
            presort,
            &mut scratch,
        );
        DecisionTree {
            root,
            task,
            n_features: xs.cols(),
        }
    }

    /// The historical per-node-sorting fit, retained as the bitwise
    /// reference for the presorted path (equivalence tests compare the
    /// two tree structures exactly).
    #[doc(hidden)]
    pub fn fit_reference(
        xs: &Matrix,
        ys: &[f64],
        task: TreeTask,
        config: &TreeConfig,
    ) -> DecisionTree {
        assert_eq!(xs.rows(), ys.len(), "feature/target length mismatch");
        assert!(xs.rows() > 0, "cannot fit a tree on no data");
        let idx: Vec<usize> = (0..xs.rows()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let root = build_reference(xs, ys, &idx, task, config, 0, &mut rng);
        DecisionTree {
            root,
            task,
            n_features: xs.cols(),
        }
    }

    /// Predicts for one sample: class index (classification) or value
    /// (regression). Missing features follow the majority route recorded
    /// at fit time.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n_features);
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    nan_left,
                    left,
                    right,
                } => {
                    let v = x[*feature];
                    let go_left = if v.is_finite() {
                        v <= *threshold
                    } else {
                        *nan_left
                    };
                    node = if go_left { left } else { right };
                }
            }
        }
    }

    /// The learning task.
    pub fn task(&self) -> TreeTask {
        self.task
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.root.count()
    }

    /// Approximate model size in bytes (for the Table 6 accounting):
    /// each node stores a feature id, threshold and two child slots.
    pub fn memory_bytes(&self) -> usize {
        self.n_nodes() * 40
    }
}

fn leaf_value(ys: &[f64], idx: &[usize], task: TreeTask) -> f64 {
    match task {
        TreeTask::Classification { n_classes } => {
            let mut counts = vec![0usize; n_classes];
            for &i in idx {
                let c = (ys[i] as usize).min(n_classes - 1);
                counts[c] += 1;
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| *c)
                .map(|(c, _)| c as f64)
                .unwrap_or(0.0)
        }
        TreeTask::Regression => {
            let sum: f64 = idx.iter().map(|&i| ys[i]).sum();
            sum / idx.len().max(1) as f64
        }
    }
}

/// Impurity of an index set: Gini (classification) or variance
/// (regression), scaled by the set size.
fn impurity(ys: &[f64], idx: &[usize], task: TreeTask) -> f64 {
    let n = idx.len() as f64;
    if idx.is_empty() {
        return 0.0;
    }
    match task {
        TreeTask::Classification { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for &i in idx {
                counts[(ys[i] as usize).min(n_classes - 1)] += 1.0;
            }
            let gini = 1.0 - counts.iter().map(|c| (c / n) * (c / n)).sum::<f64>();
            gini * n
        }
        TreeTask::Regression => {
            let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / n;
            idx.iter().map(|&i| (ys[i] - mean).powi(2)).sum::<f64>()
        }
    }
}

/// Incremental impurity aggregate for the split sweep: class counts for
/// Gini, (sum, sum of squares) for variance.
#[derive(Debug, Clone)]
struct SplitAgg {
    count: f64,
    /// Class counts (classification) — empty for regression.
    classes: Vec<f64>,
    sum: f64,
    sq_sum: f64,
}

impl SplitAgg {
    fn new(task: TreeTask) -> SplitAgg {
        let classes = match task {
            TreeTask::Classification { n_classes } => vec![0.0; n_classes],
            TreeTask::Regression => Vec::new(),
        };
        SplitAgg {
            count: 0.0,
            classes,
            sum: 0.0,
            sq_sum: 0.0,
        }
    }

    #[inline]
    fn add(&mut self, y: f64) {
        self.count += 1.0;
        if self.classes.is_empty() {
            self.sum += y;
            self.sq_sum += y * y;
        } else {
            let c = (y as usize).min(self.classes.len() - 1);
            self.classes[c] += 1.0;
        }
    }

    fn plus(&self, other: &SplitAgg) -> SplitAgg {
        let mut out = self.clone();
        out.count += other.count;
        out.sum += other.sum;
        out.sq_sum += other.sq_sum;
        for (a, b) in out.classes.iter_mut().zip(&other.classes) {
            *a += b;
        }
        out
    }

    fn minus(&self, other: &SplitAgg) -> SplitAgg {
        let mut out = self.clone();
        out.count -= other.count;
        out.sum -= other.sum;
        out.sq_sum -= other.sq_sum;
        for (a, b) in out.classes.iter_mut().zip(&other.classes) {
            *a -= b;
        }
        out
    }

    /// Zeroes the aggregate in place, keeping the class-count
    /// allocation.
    fn reset(&mut self) {
        self.count = 0.0;
        self.sum = 0.0;
        self.sq_sum = 0.0;
        self.classes.fill(0.0);
    }

    /// `self = a + b` without allocating — the exact operations of
    /// [`SplitAgg::plus`] into a reused register.
    fn assign_sum(&mut self, a: &SplitAgg, b: &SplitAgg) {
        self.count = a.count + b.count;
        self.sum = a.sum + b.sum;
        self.sq_sum = a.sq_sum + b.sq_sum;
        self.classes.clear();
        self.classes
            .extend(a.classes.iter().zip(&b.classes).map(|(x, y)| x + y));
    }

    /// `self = a - b` without allocating — the exact operations of
    /// [`SplitAgg::minus`] into a reused register.
    fn assign_diff(&mut self, a: &SplitAgg, b: &SplitAgg) {
        self.count = a.count - b.count;
        self.sum = a.sum - b.sum;
        self.sq_sum = a.sq_sum - b.sq_sum;
        self.classes.clear();
        self.classes
            .extend(a.classes.iter().zip(&b.classes).map(|(x, y)| x - y));
    }

    /// Size-weighted impurity: `gini * n` or the sum of squared errors.
    fn impurity(&self) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        if self.classes.is_empty() {
            (self.sq_sum - self.sum * self.sum / self.count).max(0.0)
        } else {
            let gini = 1.0
                - self
                    .classes
                    .iter()
                    .map(|c| (c / self.count) * (c / self.count))
                    .sum::<f64>();
            gini * self.count
        }
    }
}

/// Builds one node from the shared presort and scratch buffers: the
/// node's per-feature `(value, target)` sequences come from stably
/// filtering the root orderings by membership (no per-node sort), and
/// the candidate sweep runs in reused aggregate registers (no per-
/// candidate clones). Chain for chain this performs the same float
/// operations in the same order as [`build_reference`], so the fitted
/// tree is bit-identical.
#[allow(clippy::too_many_arguments)]
fn build(
    xs: &Matrix,
    ys: &[f64],
    idx: &[usize],
    task: TreeTask,
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
    presort: &FeaturePresort,
    scratch: &mut BuildScratch,
) -> Node {
    let parent_impurity = impurity(ys, idx, task);
    if depth >= config.max_depth
        || idx.len() < 2 * config.min_samples_leaf
        || parent_impurity <= 1e-12
    {
        return Node::Leaf {
            value: leaf_value(ys, idx, task),
        };
    }

    // Feature subset for this split — drawn exactly as the reference
    // does, so the RNG stream stays aligned.
    let d = xs.cols();
    scratch.features.clear();
    scratch.features.extend(0..d);
    if let Some(k) = config.max_features {
        scratch.features.shuffle(rng);
        scratch.features.truncate(k.clamp(1, d));
    }

    for &i in idx {
        scratch.in_node[i] = true;
    }
    let mut best: Option<(usize, f64, f64, bool)> = None; // (feat, thr, score, nan_left)
    for fi in 0..scratch.features.len() {
        let f = scratch.features[fi];
        scratch.sorted.clear();
        scratch.nan.reset();
        for &i in &presort.nonfinite[f] {
            if scratch.in_node[i as usize] {
                scratch.nan.add(ys[i as usize]);
            }
        }
        // Node rows are always ascending, so this stable filter yields
        // the node's values ascending with ties in row order — the
        // sequence the reference obtains by sorting the node afresh.
        for &i in &presort.finite[f] {
            let i = i as usize;
            if scratch.in_node[i] {
                scratch.sorted.push((xs[(i, f)], ys[i]));
            }
        }
        let n_obs = scratch.sorted.len();
        if n_obs < 2 {
            continue;
        }
        #[expect(
            clippy::float_cmp,
            reason = "equal ends of the sorted values mean a constant feature, which has no split"
        )]
        // oeb-lint: allow(panic-in-library) -- guarded by the len >= 2 check above
        if scratch.sorted[0].0 == scratch.sorted[n_obs - 1].0 {
            continue;
        }
        scratch.total.reset();
        for &(_, y) in &scratch.sorted {
            scratch.total.add(y);
        }

        let n_cand = config.max_thresholds.min(n_obs - 1);
        scratch.left.reset();
        let mut cursor = 0usize;
        let has_nan = scratch.nan.count > 0.0;
        for t in 0..n_cand {
            let pos = ((t + 1) * (n_obs - 1) / (n_cand + 1).max(1)).min(n_obs - 2);
            let thr = (scratch.sorted[pos].0 + scratch.sorted[pos + 1].0) / 2.0;
            // Advance the sweep to include every value <= thr.
            while cursor < n_obs && scratch.sorted[cursor].0 <= thr {
                let y = scratch.sorted[cursor].1;
                scratch.left.add(y);
                cursor += 1;
            }
            if cursor == 0 || cursor == n_obs {
                continue;
            }
            scratch.right.assign_diff(&scratch.total, &scratch.left);
            // Try the missing values on each side (once when there are
            // none — the reference also adds the zeroed aggregate then).
            for nan_left in if has_nan {
                &[true, false][..]
            } else {
                &[true][..]
            } {
                let (l, r) = if *nan_left {
                    scratch.with_nan.assign_sum(&scratch.left, &scratch.nan);
                    (&scratch.with_nan, &scratch.right)
                } else {
                    scratch.with_nan.assign_sum(&scratch.right, &scratch.nan);
                    (&scratch.left, &scratch.with_nan)
                };
                if (l.count as usize) < config.min_samples_leaf
                    || (r.count as usize) < config.min_samples_leaf
                {
                    continue;
                }
                let score = l.impurity() + r.impurity();
                match best {
                    Some((_, _, b, _)) if b <= score => {}
                    _ => best = Some((f, thr, score, *nan_left)),
                }
            }
        }
    }
    for &i in idx {
        scratch.in_node[i] = false;
    }

    let Some((feature, threshold, score, nan_left)) = best else {
        return Node::Leaf {
            value: leaf_value(ys, idx, task),
        };
    };
    if score >= parent_impurity - 1e-12 {
        // No impurity reduction: stop.
        return Node::Leaf {
            value: leaf_value(ys, idx, task),
        };
    }
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| {
        let v = xs[(i, feature)];
        if v.is_finite() {
            v <= threshold
        } else {
            nan_left
        }
    });
    Node::Split {
        feature,
        threshold,
        nan_left,
        left: Box::new(build(
            xs,
            ys,
            &left_idx,
            task,
            config,
            depth + 1,
            rng,
            presort,
            scratch,
        )),
        right: Box::new(build(
            xs,
            ys,
            &right_idx,
            task,
            config,
            depth + 1,
            rng,
            presort,
            scratch,
        )),
    }
}

/// The historical node builder: sorts each node's observations afresh
/// per feature and clones sweep aggregates per candidate. Retained as
/// the bitwise reference for [`build`].
fn build_reference(
    xs: &Matrix,
    ys: &[f64],
    idx: &[usize],
    task: TreeTask,
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
) -> Node {
    let parent_impurity = impurity(ys, idx, task);
    if depth >= config.max_depth
        || idx.len() < 2 * config.min_samples_leaf
        || parent_impurity <= 1e-12
    {
        return Node::Leaf {
            value: leaf_value(ys, idx, task),
        };
    }

    // Feature subset for this split.
    let d = xs.cols();
    let mut features: Vec<usize> = (0..d).collect();
    if let Some(k) = config.max_features {
        features.shuffle(rng);
        features.truncate(k.clamp(1, d));
    }

    // Split search: per feature, sort the observed values once and sweep
    // prefix aggregates (class counts or sum/sum-of-squares), evaluating
    // candidate thresholds at quantile positions without materialising
    // any partitions. Missing values are aggregated wholesale and tried
    // on each side.
    let mut best: Option<(usize, f64, f64, bool)> = None; // (feat, thr, score, nan_left)
    let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
    for &f in &features {
        sorted.clear();
        let mut nan_agg = SplitAgg::new(task);
        for &i in idx {
            let v = xs[(i, f)];
            if v.is_finite() {
                sorted.push((v, ys[i]));
            } else {
                nan_agg.add(ys[i]);
            }
        }
        if sorted.len() < 2 {
            continue;
        }
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        #[expect(
            clippy::float_cmp,
            reason = "equal ends of the sorted values mean a constant feature, which has no split"
        )]
        // oeb-lint: allow(panic-in-library) -- guarded by the len >= 2 check above
        if sorted[0].0 == sorted[sorted.len() - 1].0 {
            continue;
        }
        let mut total_agg = SplitAgg::new(task);
        for &(_, y) in &sorted {
            total_agg.add(y);
        }

        let n_obs = sorted.len();
        let n_cand = config.max_thresholds.min(n_obs - 1);
        let mut left = SplitAgg::new(task);
        let mut cursor = 0usize;
        let has_nan = nan_agg.count > 0.0;
        for t in 0..n_cand {
            let pos = ((t + 1) * (n_obs - 1) / (n_cand + 1).max(1)).min(n_obs - 2);
            let thr = (sorted[pos].0 + sorted[pos + 1].0) / 2.0;
            // Advance the sweep to include every value <= thr.
            while cursor < n_obs && sorted[cursor].0 <= thr {
                left.add(sorted[cursor].1);
                cursor += 1;
            }
            if cursor == 0 || cursor == n_obs {
                continue;
            }
            let right = total_agg.minus(&left);
            // Try the missing values on each side (once when there are
            // none — routing is then immaterial at fit time).
            for nan_left in if has_nan {
                &[true, false][..]
            } else {
                &[true][..]
            } {
                let (l, r) = if *nan_left {
                    (left.plus(&nan_agg), right.clone())
                } else {
                    (left.clone(), right.plus(&nan_agg))
                };
                if (l.count as usize) < config.min_samples_leaf
                    || (r.count as usize) < config.min_samples_leaf
                {
                    continue;
                }
                let score = l.impurity() + r.impurity();
                match best {
                    Some((_, _, b, _)) if b <= score => {}
                    _ => best = Some((f, thr, score, *nan_left)),
                }
            }
        }
    }

    let Some((feature, threshold, score, nan_left)) = best else {
        return Node::Leaf {
            value: leaf_value(ys, idx, task),
        };
    };
    if score >= parent_impurity - 1e-12 {
        // No impurity reduction: stop.
        return Node::Leaf {
            value: leaf_value(ys, idx, task),
        };
    }
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| {
        let v = xs[(i, feature)];
        if v.is_finite() {
            v <= threshold
        } else {
            nan_left
        }
    });
    Node::Split {
        feature,
        threshold,
        nan_left,
        left: Box::new(build_reference(
            xs,
            ys,
            &left_idx,
            task,
            config,
            depth + 1,
            rng,
        )),
        right: Box::new(build_reference(
            xs,
            ys,
            &right_idx,
            task,
            config,
            depth + 1,
            rng,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural bit-equality via the Debug representation: node
    /// shapes, feature ids, thresholds and leaf values all surface in
    /// it, and f64's Debug is round-trip exact.
    fn assert_same_tree(a: &DecisionTree, b: &DecisionTree, what: &str) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
    }

    #[test]
    fn presorted_fit_matches_reference_bitwise() {
        let mut s = 0x5eedu64;
        let mut lcg = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        // Shapes chosen to exercise ties, constant columns, NaN routing,
        // feature subsampling (RNG alignment) and both tasks.
        for (rows, cols, n_classes, nan_col, max_features) in [
            (60, 5, 3, None, None),
            (200, 8, 4, Some(2), None),
            (31, 3, 2, Some(0), Some(2)),
            (120, 6, 5, None, Some(3)),
            (17, 4, 2, Some(1), None),
        ] {
            let data: Vec<Vec<f64>> = (0..rows)
                .map(|r| {
                    (0..cols)
                        .map(|c| {
                            if Some(c) == nan_col && r % 5 == 0 {
                                f64::NAN
                            } else if c == cols - 1 {
                                1.25 // constant column: never splittable
                            } else {
                                (lcg() * 8.0).floor() / 2.0 // heavy ties
                            }
                        })
                        .collect()
                })
                .collect();
            let xs = Matrix::from_rows(&data);
            let ys_class: Vec<f64> = data
                .iter()
                .map(|r| ((r[0].abs() * 3.0) as usize % n_classes) as f64)
                .collect();
            let ys_reg: Vec<f64> = data.iter().map(|r| r[0] * 1.5 - r[1 % cols]).collect();
            let config = TreeConfig {
                max_depth: 6,
                max_features,
                seed: 11,
                ..Default::default()
            };
            let fast = DecisionTree::fit(
                &xs,
                &ys_class,
                TreeTask::Classification { n_classes },
                &config,
            );
            let reference = DecisionTree::fit_reference(
                &xs,
                &ys_class,
                TreeTask::Classification { n_classes },
                &config,
            );
            assert_same_tree(&fast, &reference, "classification tree diverged");
            let fast = DecisionTree::fit(&xs, &ys_reg, TreeTask::Regression, &config);
            let reference =
                DecisionTree::fit_reference(&xs, &ys_reg, TreeTask::Regression, &config);
            assert_same_tree(&fast, &reference, "regression tree diverged");
        }
    }

    #[test]
    fn shared_presort_matches_per_fit_presort() {
        // The ensemble entry point: one presort, many target vectors
        // (as GBDT uses it) must equal fitting each tree standalone.
        let rows: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 17) as f64, ((i * 7) % 23) as f64, (i % 3) as f64])
            .collect();
        let xs = Matrix::from_rows(&rows);
        let presort = FeaturePresort::new(&xs);
        for round in 0..4u64 {
            let ys: Vec<f64> = rows
                .iter()
                .enumerate()
                .map(|(i, r)| r[0] - (i as f64 * 0.01) * round as f64)
                .collect();
            let config = TreeConfig {
                max_depth: 5,
                seed: round,
                ..Default::default()
            };
            let shared =
                DecisionTree::fit_with_presort(&xs, &ys, TreeTask::Regression, &config, &presort);
            let standalone = DecisionTree::fit(&xs, &ys, TreeTask::Regression, &config);
            assert_same_tree(&shared, &standalone, "shared presort diverged");
        }
    }

    fn step_data() -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, (i % 13) as f64]).collect();
        let ys: Vec<f64> = (0..200).map(|i| if i < 100 { 0.0 } else { 1.0 }).collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn learns_a_step_function_classification() {
        let (xs, ys) = step_data();
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: 2 },
            &TreeConfig::default(),
        );
        assert_eq!(tree.predict(&[10.0, 0.0]), 0.0);
        assert_eq!(tree.predict(&[150.0, 0.0]), 1.0);
    }

    #[test]
    fn learns_piecewise_regression() {
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64 / 300.0]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 0.5 { 2.0 } else { -3.0 })
            .collect();
        let xs = Matrix::from_rows(&rows);
        let tree = DecisionTree::fit(&xs, &ys, TreeTask::Regression, &TreeConfig::default());
        assert!((tree.predict(&[0.2]) - 2.0).abs() < 0.1);
        assert!((tree.predict(&[0.9]) + 3.0).abs() < 0.1);
    }

    #[test]
    fn pure_node_stops_splitting() {
        let xs = Matrix::from_rows(&vec![vec![1.0]; 50]);
        let ys = vec![3.0; 50];
        let tree = DecisionTree::fit(&xs, &ys, TreeTask::Regression, &TreeConfig::default());
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[1.0]), 3.0);
    }

    #[test]
    fn max_depth_is_respected() {
        let (xs, ys) = step_data();
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: 2 },
            &TreeConfig {
                max_depth: 1,
                ..Default::default()
            },
        );
        assert!(tree.n_nodes() <= 3);
    }

    #[test]
    fn missing_values_are_routed() {
        let (xs, ys) = step_data();
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: 2 },
            &TreeConfig::default(),
        );
        let p = tree.predict(&[f64::NAN, 0.0]);
        assert!(p == 0.0 || p == 1.0);
    }

    #[test]
    fn trains_on_data_containing_nan() {
        let mut rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        rows[5][0] = f64::NAN;
        rows[50][0] = f64::NAN;
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 1.0 }).collect();
        let xs = Matrix::from_rows(&rows);
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: 2 },
            &TreeConfig::default(),
        );
        assert_eq!(tree.predict(&[10.0]), 0.0);
        assert_eq!(tree.predict(&[90.0]), 1.0);
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let (xs, ys) = step_data();
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: 2 },
            &TreeConfig {
                max_features: Some(1),
                seed: 3,
                ..Default::default()
            },
        );
        let correct = (0..xs.rows())
            .filter(|&r| tree.predict(xs.row(r)) == ys[r])
            .count();
        assert!(correct >= 150, "accuracy {correct}/200");
    }

    #[test]
    fn outlier_degrades_but_does_not_crash_regression() {
        // §5.3: the tree survives the absurd cell (unlike the NN).
        let mut rows: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
        rows.push(vec![999_990.0]);
        let mut ys: Vec<f64> = (0..100).map(|i| i as f64).collect();
        ys.push(999_990.0);
        let xs = Matrix::from_rows(&rows);
        let tree = DecisionTree::fit(&xs, &ys, TreeTask::Regression, &TreeConfig::default());
        let pred = tree.predict(&[50.0]);
        assert!(pred.is_finite());
        assert!(pred < 10_000.0, "prediction {pred} dominated by outlier");
    }

    #[test]
    fn memory_scales_with_nodes() {
        let (xs, ys) = step_data();
        let tree = DecisionTree::fit(
            &xs,
            &ys,
            TreeTask::Classification { n_classes: 2 },
            &TreeConfig::default(),
        );
        assert_eq!(tree.memory_bytes(), tree.n_nodes() * 40);
    }

    #[test]
    #[should_panic(expected = "cannot fit a tree on no data")]
    fn empty_input_panics() {
        let xs = Matrix::zeros(0, 1);
        let _ = DecisionTree::fit(&xs, &[], TreeTask::Regression, &TreeConfig::default());
    }
}
