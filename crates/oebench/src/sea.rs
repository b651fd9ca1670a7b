//! SEA — the Streaming Ensemble Algorithm, Street & Kim, KDD 2001 —
//! generalised over the three base models the paper pairs it with
//! (SEA-NN, SEA-DT, SEA-GBDT).
//!
//! Each window trains a fresh candidate model; the candidate joins the
//! ensemble if there is room, otherwise it replaces the worst existing
//! member *when it outperforms it on the current window* — "SEA maintains
//! an ensemble and replaces older models with current models of better
//! quality" (§4.5). Prediction is a majority vote (classification) or the
//! member median (regression).

use crate::learners::{item_loss, LearnerConfig, StreamLearner};
use oeb_linalg::Matrix;
use oeb_nn::{train_window, Mlp, Objective, Regularizer, SgdConfig};
use oeb_tabular::Task;
use oeb_tree::{DecisionTree, Gbdt, GbdtConfig, TreeConfig, TreeTask};

/// Which base model SEA wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseKind {
    /// Per-window MLP.
    Nn,
    /// Per-window CART tree.
    Dt,
    /// Per-window GBDT.
    Gbdt,
}

enum BaseModel {
    Nn(Box<Mlp>),
    Dt(DecisionTree),
    Gbdt(Gbdt),
}

impl BaseModel {
    fn fit(
        kind: BaseKind,
        task: Task,
        input_dim: usize,
        xs: &Matrix,
        ys: &[f64],
        cfg: &LearnerConfig,
        seed: u64,
    ) -> BaseModel {
        match kind {
            BaseKind::Nn => {
                let objective = match task {
                    Task::Classification { .. } => Objective::CrossEntropy,
                    Task::Regression => Objective::SquaredError,
                };
                let mut mlp =
                    Mlp::new(input_dim, &cfg.hidden, task.output_width(), objective, seed);
                train_window(
                    &mut mlp,
                    xs,
                    ys,
                    &SgdConfig {
                        epochs: cfg.epochs,
                        batch_size: cfg.batch_size,
                        lr: cfg.lr,
                        seed,
                    },
                    &Regularizer::None,
                );
                BaseModel::Nn(Box::new(mlp))
            }
            BaseKind::Dt => BaseModel::Dt(DecisionTree::fit(
                xs,
                ys,
                tree_task(task),
                &TreeConfig {
                    seed,
                    ..Default::default()
                },
            )),
            BaseKind::Gbdt => BaseModel::Gbdt(Gbdt::fit(
                xs,
                ys,
                tree_task(task),
                &GbdtConfig {
                    n_rounds: 5,
                    tree: TreeConfig {
                        max_depth: 6,
                        seed,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )),
        }
    }

    fn predict(&self, task: Task, x: &[f64]) -> f64 {
        match self {
            BaseModel::Nn(m) => match task {
                Task::Classification { .. } => m.predict_class(x) as f64,
                Task::Regression => m.forward(x)[0],
            },
            BaseModel::Dt(m) => m.predict(x),
            BaseModel::Gbdt(m) => m.predict(x),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            BaseModel::Nn(m) => m.memory_bytes(),
            BaseModel::Dt(m) => m.memory_bytes(),
            BaseModel::Gbdt(m) => m.memory_bytes(),
        }
    }
}

fn tree_task(task: Task) -> TreeTask {
    match task {
        Task::Classification { n_classes } => TreeTask::Classification { n_classes },
        Task::Regression => TreeTask::Regression,
    }
}

/// The SEA ensemble learner.
pub struct SeaLearner {
    kind: BaseKind,
    task: Task,
    input_dim: usize,
    cfg: LearnerConfig,
    members: Vec<BaseModel>,
    window_counter: u64,
}

impl SeaLearner {
    /// Creates an empty SEA ensemble of capacity `cfg.ensemble_size`.
    pub fn new(kind: BaseKind, task: Task, input_dim: usize, cfg: LearnerConfig) -> SeaLearner {
        SeaLearner {
            kind,
            task,
            input_dim,
            cfg,
            members: Vec::new(),
            window_counter: 0,
        }
    }

    /// Current ensemble size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True before any window was seen.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Mean loss of one model over a window (error rate or MSE).
    fn window_loss(&self, model: &BaseModel, xs: &Matrix, ys: &[f64]) -> f64 {
        let n = xs.rows().max(1);
        let mut loss = 0.0;
        for r in 0..xs.rows() {
            let pred = model.predict(self.task, xs.row(r));
            loss += item_loss(self.task, pred, ys[r]);
        }
        loss / n as f64
    }
}

impl StreamLearner for SeaLearner {
    fn name(&self) -> &'static str {
        match self.kind {
            BaseKind::Nn => "SEA-NN",
            BaseKind::Dt => "SEA-DT",
            BaseKind::Gbdt => "SEA-GBDT",
        }
    }

    fn predict(&self, x: &[f64]) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        match self.task {
            Task::Classification { n_classes } => {
                let mut votes = vec![0usize; n_classes];
                for m in &self.members {
                    let c = (m.predict(self.task, x) as usize).min(n_classes - 1);
                    votes[c] += 1;
                }
                let mut best = 0;
                for (c, &v) in votes.iter().enumerate() {
                    if v > votes[best] {
                        best = c;
                    }
                }
                best as f64
            }
            Task::Regression => {
                // Median of the members: the robust analogue of SEA's
                // majority vote (a single diverged member must not poison
                // the ensemble prediction).
                let mut preds: Vec<f64> = self
                    .members
                    .iter()
                    .map(|m| m.predict(self.task, x))
                    .collect();
                preds.sort_by(f64::total_cmp);
                preds[preds.len() / 2]
            }
        }
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        if xs.rows() == 0 {
            return;
        }
        self.window_counter += 1;
        let seed = self
            .cfg
            .seed
            .wrapping_mul(0x100000001B3)
            .wrapping_add(self.window_counter);
        let candidate = BaseModel::fit(
            self.kind,
            self.task,
            self.input_dim,
            xs,
            ys,
            &self.cfg,
            seed,
        );

        if self.members.len() < self.cfg.ensemble_size.max(1) {
            self.members.push(candidate);
            return;
        }
        // Quality check on the current window.
        let candidate_loss = self.window_loss(&candidate, xs, ys);
        let (worst_idx, worst_loss) = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| (i, self.window_loss(m, xs, ys)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty ensemble");
        if candidate_loss < worst_loss {
            self.members[worst_idx] = candidate;
        }
    }

    fn memory_bytes(&self) -> usize {
        self.members.iter().map(BaseModel::memory_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(offset: f64, n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 10) as f64 + offset]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| f64::from(r[0] >= offset + 5.0))
            .collect();
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn ensemble_fills_to_capacity_then_replaces() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(
            BaseKind::Dt,
            task,
            1,
            LearnerConfig {
                ensemble_size: 3,
                ..Default::default()
            },
        );
        for w in 0..5 {
            let (xs, ys) = window(w as f64 * 0.1, 64);
            sea.train_window(&xs, &ys);
        }
        assert_eq!(sea.len(), 3);
    }

    #[test]
    fn majority_vote_classifies() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(BaseKind::Dt, task, 1, LearnerConfig::default());
        for _ in 0..3 {
            let (xs, ys) = window(0.0, 128);
            sea.train_window(&xs, &ys);
        }
        assert_eq!(sea.predict(&[1.0]), 0.0);
        assert_eq!(sea.predict(&[9.0]), 1.0);
    }

    #[test]
    fn regression_uses_member_median() {
        let task = Task::Regression;
        let mut sea = SeaLearner::new(BaseKind::Dt, task, 1, LearnerConfig::default());
        let rows: Vec<Vec<f64>> = (0..128).map(|i| vec![(i % 10) as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 3.0 * r[0]).collect();
        let xs = Matrix::from_rows(&rows);
        for _ in 0..3 {
            sea.train_window(&xs, &ys);
        }
        assert!((sea.predict(&[5.0]) - 15.0).abs() < 1.5);
    }

    #[test]
    fn empty_ensemble_predicts_zero() {
        let sea = SeaLearner::new(BaseKind::Nn, Task::Regression, 2, LearnerConfig::default());
        assert_eq!(sea.predict(&[1.0, 2.0]), 0.0);
        assert_eq!(sea.memory_bytes(), 0);
    }

    #[test]
    fn better_candidate_replaces_worst_member() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(
            BaseKind::Dt,
            task,
            1,
            LearnerConfig {
                ensemble_size: 2,
                ..Default::default()
            },
        );
        // Fill with models for concept A.
        let (xs_a, ys_a) = window(0.0, 128);
        sea.train_window(&xs_a, &ys_a);
        sea.train_window(&xs_a, &ys_a);
        // A new concept: labels flipped. Candidates trained on B beat old
        // members on B-windows, so the ensemble converges to concept B.
        let ys_b: Vec<f64> = ys_a.iter().map(|y| 1.0 - y).collect();
        for _ in 0..4 {
            sea.train_window(&xs_a, &ys_b);
        }
        assert_eq!(sea.predict(&[1.0]), 1.0);
        assert_eq!(sea.predict(&[9.0]), 0.0);
    }

    #[test]
    fn sea_nn_trains_members() {
        let task = Task::Classification { n_classes: 2 };
        let mut sea = SeaLearner::new(
            BaseKind::Nn,
            task,
            1,
            LearnerConfig {
                epochs: 60,
                lr: 0.05,
                ..Default::default()
            },
        );
        // Normalised inputs, as the harness always feeds the learners.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 10) as f64 / 10.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 0.5)).collect();
        let xs = Matrix::from_rows(&rows);
        sea.train_window(&xs, &ys);
        let correct = (0..xs.rows())
            .filter(|&r| sea.predict(xs.row(r)) == ys[r])
            .count();
        assert!(correct > 200, "{correct}/256");
    }
}
