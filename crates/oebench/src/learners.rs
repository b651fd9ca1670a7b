//! The ten stream-learning algorithms the paper benchmarks (§4.5, Table
//! 4): Naive-NN, EWC, LwF, iCaRL, SEA-NN, Naive-DT, Naive-GBDT, SEA-DT,
//! SEA-GBDT and ARF, behind one [`StreamLearner`] trait consumed by the
//! prequential harness.
//!
//! Conventions follow the paper's §6.1 setups: NN learners share the
//! [32, 16, 8] MLP trained 10 epochs per window at batch 64 / lr 0.01;
//! EWC and LwF regularise against the most recent window's model only;
//! iCaRL keeps a 100-exemplar herding buffer and (for regression) treats
//! the stream as a single class; tree learners refit per window without
//! epochs; ARF is classification-only (N/A on regression).

use crate::sea::{BaseKind, SeaLearner};
use oeb_linalg::Matrix;
use oeb_nn::{train_window, Mlp, Objective, Regularizer, SgdConfig};
use oeb_tabular::Task;
use oeb_tree::{
    AdaptiveRandomForest, ArfConfig, DecisionTree, Gbdt, GbdtConfig, TreeConfig, TreeTask,
};

/// Hyper-parameters shared by the learner implementations (paper §6.1
/// defaults).
#[derive(Debug, Clone)]
pub struct LearnerConfig {
    /// MLP hidden sizes.
    pub hidden: Vec<usize>,
    /// Local epochs per window.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
    /// iCaRL exemplar-buffer capacity.
    pub buffer_size: usize,
    /// SEA ensemble capacity / GBDT boosting rounds.
    pub ensemble_size: usize,
    /// EWC regularisation factor (paper tunes within {1e3, 1e4, 1e5}).
    pub ewc_lambda: f64,
    /// LwF regularisation factor (paper tunes within {0.01, 0.1, 1}).
    pub lwf_lambda: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        LearnerConfig {
            hidden: vec![32, 16, 8],
            epochs: 10,
            batch_size: 64,
            lr: 0.01,
            buffer_size: 100,
            ensemble_size: 5,
            ewc_lambda: 1e3,
            lwf_lambda: 0.1,
            seed: 0,
        }
    }
}

/// A model that learns window-by-window in the prequential protocol.
pub trait StreamLearner {
    /// Algorithm name as printed in the paper's tables.
    fn name(&self) -> &'static str;

    /// Predicts for one (encoded, imputed, scaled) sample: a class index
    /// for classification or a value for regression.
    fn predict(&self, x: &[f64]) -> f64;

    /// Trains on one window of samples.
    fn train_window(&mut self, xs: &Matrix, ys: &[f64]);

    /// Approximate model state size in bytes (Table 6 accounting).
    fn memory_bytes(&self) -> usize;
}

/// Loss of one prediction: 0/1 misclassification, or squared error.
/// Window losses average it.
#[expect(
    clippy::float_cmp,
    reason = "class labels are small integers held exactly in f64"
)]
pub(crate) fn item_loss(task: Task, pred: f64, y: f64) -> f64 {
    match task {
        Task::Classification { .. } => f64::from(pred != y),
        Task::Regression => (pred - y).powi(2),
    }
}

fn objective(task: Task) -> Objective {
    match task {
        Task::Classification { .. } => Objective::CrossEntropy,
        Task::Regression => Objective::SquaredError,
    }
}

fn tree_task(task: Task) -> TreeTask {
    match task {
        Task::Classification { n_classes } => TreeTask::Classification { n_classes },
        Task::Regression => TreeTask::Regression,
    }
}

fn mlp_for(task: Task, input_dim: usize, cfg: &LearnerConfig) -> Mlp {
    Mlp::new(
        input_dim,
        &cfg.hidden,
        task.output_width(),
        objective(task),
        cfg.seed,
    )
}

fn sgd(cfg: &LearnerConfig) -> SgdConfig {
    SgdConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        seed: cfg.seed,
    }
}

fn nn_predict(mlp: &Mlp, task: Task, x: &[f64]) -> f64 {
    match task {
        Task::Classification { .. } => mlp.predict_class(x) as f64,
        Task::Regression => mlp.forward(x)[0],
    }
}

/// Plain SGD-per-window neural network.
pub struct NaiveNn {
    mlp: Mlp,
    task: Task,
    cfg: LearnerConfig,
}

impl NaiveNn {
    /// Creates the learner.
    pub fn new(task: Task, input_dim: usize, cfg: LearnerConfig) -> NaiveNn {
        NaiveNn {
            mlp: mlp_for(task, input_dim, &cfg),
            task,
            cfg,
        }
    }
}

impl StreamLearner for NaiveNn {
    fn name(&self) -> &'static str {
        "Naive-NN"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        nn_predict(&self.mlp, self.task, x)
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        train_window(&mut self.mlp, xs, ys, &sgd(&self.cfg), &Regularizer::None);
    }

    fn memory_bytes(&self) -> usize {
        self.mlp.memory_bytes()
    }
}

/// EWC: quadratic penalty around the previous window's parameters,
/// weighted by that window's Fisher diagonal.
pub struct EwcNn {
    mlp: Mlp,
    task: Task,
    cfg: LearnerConfig,
    anchor: Option<(Vec<f64>, Vec<f64>)>,
}

impl EwcNn {
    /// Creates the learner.
    pub fn new(task: Task, input_dim: usize, cfg: LearnerConfig) -> EwcNn {
        EwcNn {
            mlp: mlp_for(task, input_dim, &cfg),
            task,
            cfg,
            anchor: None,
        }
    }
}

impl StreamLearner for EwcNn {
    fn name(&self) -> &'static str {
        "EWC"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        nn_predict(&self.mlp, self.task, x)
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        let reg = match &self.anchor {
            Some((anchor, fisher)) => Regularizer::Ewc {
                anchor: anchor.clone(),
                fisher: fisher.clone(),
                lambda: self.cfg.ewc_lambda,
            },
            None => Regularizer::None,
        };
        train_window(&mut self.mlp, xs, ys, &sgd(&self.cfg), &reg);
        // Anchor to this window (the paper keeps only the most recent
        // window's model, §6.1). The Fisher diagonal is normalised to a
        // maximum of 1e-3: the paper observes the raw EWC penalty is tiny
        // (1e-11..1e-6), factors below 1e3 act like the naive method, and
        // explosions start beyond 1e5 — with SGD stability requiring
        // lr * lambda * F < 2, a 1e-3 Fisher ceiling reproduces exactly
        // that regime (lambda 1e3 -> marginal, 1e5 -> strong, beyond ->
        // divergent).
        let mut fisher = self.mlp.fisher_diagonal(xs, ys, 500);
        let max = fisher.iter().copied().fold(0.0f64, f64::max);
        if max > 0.0 {
            for f in &mut fisher {
                *f *= 1e-3 / max;
            }
        }
        self.anchor = Some((self.mlp.get_params(), fisher));
    }

    fn memory_bytes(&self) -> usize {
        // Model + stored anchor parameters + Fisher diagonal.
        self.mlp.memory_bytes() * if self.anchor.is_some() { 3 } else { 1 }
    }
}

/// LwF: distillation toward the previous window's model.
pub struct LwfNn {
    mlp: Mlp,
    task: Task,
    cfg: LearnerConfig,
    prev: Option<Mlp>,
}

impl LwfNn {
    /// Creates the learner.
    pub fn new(task: Task, input_dim: usize, cfg: LearnerConfig) -> LwfNn {
        LwfNn {
            mlp: mlp_for(task, input_dim, &cfg),
            task,
            cfg,
            prev: None,
        }
    }
}

impl StreamLearner for LwfNn {
    fn name(&self) -> &'static str {
        "LwF"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        nn_predict(&self.mlp, self.task, x)
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        let reg = match &self.prev {
            Some(prev) => Regularizer::Lwf {
                prev: prev.clone(),
                lambda: self.cfg.lwf_lambda,
            },
            None => Regularizer::None,
        };
        train_window(&mut self.mlp, xs, ys, &sgd(&self.cfg), &reg);
        self.prev = Some(self.mlp.clone());
    }

    fn memory_bytes(&self) -> usize {
        self.mlp.memory_bytes() * if self.prev.is_some() { 2 } else { 1 }
    }
}

/// iCaRL's exemplar-replay adaptation: train on the window plus the
/// herding buffer, then refresh the buffer.
pub struct IcarlNn {
    mlp: Mlp,
    task: Task,
    cfg: LearnerConfig,
    buffer: oeb_nn::ExemplarBuffer,
}

impl IcarlNn {
    /// Creates the learner.
    pub fn new(task: Task, input_dim: usize, cfg: LearnerConfig) -> IcarlNn {
        IcarlNn {
            mlp: mlp_for(task, input_dim, &cfg),
            task,
            buffer: oeb_nn::ExemplarBuffer::new(cfg.buffer_size),
            cfg,
        }
    }
}

impl StreamLearner for IcarlNn {
    fn name(&self) -> &'static str {
        "iCaRL"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        nn_predict(&self.mlp, self.task, x)
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        // Window plus replayed exemplars, concatenated flat (the old
        // per-row Vec-of-Vec staging allocated one Vec per sample per
        // window before re-packing).
        let (train_x, train_y) = match self.buffer.as_training_data() {
            Some((bx, by)) => {
                let mut flat = Vec::with_capacity((xs.rows() + bx.rows()) * xs.cols());
                flat.extend_from_slice(xs.as_slice());
                flat.extend_from_slice(bx.as_slice());
                let mut targets = ys.to_vec();
                targets.extend(by);
                (
                    Matrix::from_vec(xs.rows() + bx.rows(), xs.cols(), flat),
                    targets,
                )
            }
            None => (xs.clone(), ys.to_vec()),
        };
        train_window(
            &mut self.mlp,
            &train_x,
            &train_y,
            &sgd(&self.cfg),
            &Regularizer::None,
        );
        self.buffer
            .update(&self.mlp, xs, ys, self.task.is_classification());
    }

    fn memory_bytes(&self) -> usize {
        self.mlp.memory_bytes() + self.buffer.memory_bytes()
    }
}

/// Per-window decision tree (trees are refit, not fine-tuned; the paper
/// notes tree methods need no epochs or batches).
pub struct NaiveDt {
    tree: Option<DecisionTree>,
    task: Task,
    seed: u64,
}

impl NaiveDt {
    /// Creates the learner.
    pub fn new(task: Task, cfg: &LearnerConfig) -> NaiveDt {
        NaiveDt {
            tree: None,
            task,
            seed: cfg.seed,
        }
    }
}

impl StreamLearner for NaiveDt {
    fn name(&self) -> &'static str {
        "Naive-DT"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.tree.as_ref().map(|t| t.predict(x)).unwrap_or(0.0)
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        if xs.rows() == 0 {
            return;
        }
        self.tree = Some(DecisionTree::fit(
            xs,
            ys,
            tree_task(self.task),
            &TreeConfig {
                seed: self.seed,
                ..Default::default()
            },
        ));
    }

    fn memory_bytes(&self) -> usize {
        self.tree.as_ref().map(|t| t.memory_bytes()).unwrap_or(0)
    }
}

/// Per-window gradient-boosted ensemble.
pub struct NaiveGbdt {
    model: Option<Gbdt>,
    task: Task,
    n_rounds: usize,
    seed: u64,
}

impl NaiveGbdt {
    /// Creates the learner; `cfg.ensemble_size` sets the boosting rounds
    /// (the paper uses 5 trees).
    pub fn new(task: Task, cfg: &LearnerConfig) -> NaiveGbdt {
        NaiveGbdt {
            model: None,
            task,
            n_rounds: cfg.ensemble_size,
            seed: cfg.seed,
        }
    }
}

impl StreamLearner for NaiveGbdt {
    fn name(&self) -> &'static str {
        "Naive-GBDT"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.model.as_ref().map(|m| m.predict(x)).unwrap_or(0.0)
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        if xs.rows() == 0 {
            return;
        }
        self.model = Some(Gbdt::fit(
            xs,
            ys,
            tree_task(self.task),
            &GbdtConfig {
                n_rounds: self.n_rounds,
                tree: TreeConfig {
                    max_depth: 6,
                    seed: self.seed,
                    ..Default::default()
                },
                ..Default::default()
            },
        ));
    }

    fn memory_bytes(&self) -> usize {
        self.model.as_ref().map(|m| m.memory_bytes()).unwrap_or(0)
    }
}

/// ARF wrapper (classification only).
pub struct ArfLearner {
    forest: AdaptiveRandomForest,
}

impl ArfLearner {
    /// Creates the learner; returns `None` for regression tasks, matching
    /// the paper's N/A entries.
    pub fn new(task: Task, input_dim: usize, cfg: &LearnerConfig) -> Option<ArfLearner> {
        match task {
            Task::Classification { n_classes } => Some(ArfLearner {
                forest: AdaptiveRandomForest::new(
                    input_dim,
                    n_classes,
                    ArfConfig {
                        n_trees: cfg.ensemble_size,
                        seed: cfg.seed.wrapping_add(0x617266),
                        ..Default::default()
                    },
                ),
            }),
            Task::Regression => None,
        }
    }
}

impl StreamLearner for ArfLearner {
    fn name(&self) -> &'static str {
        "ARF"
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.forest.predict(x) as f64
    }

    fn train_window(&mut self, xs: &Matrix, ys: &[f64]) {
        self.forest.learn_window(xs, ys);
    }

    fn memory_bytes(&self) -> usize {
        self.forest.memory_bytes()
    }
}

/// The algorithm roster of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    NaiveNn,
    Ewc,
    Lwf,
    Icarl,
    SeaNn,
    NaiveDt,
    NaiveGbdt,
    SeaDt,
    SeaGbdt,
    Arf,
}

impl Algorithm {
    /// All ten algorithms in the paper's column order.
    pub fn all() -> [Algorithm; 10] {
        [
            Algorithm::NaiveNn,
            Algorithm::Ewc,
            Algorithm::Lwf,
            Algorithm::Icarl,
            Algorithm::SeaNn,
            Algorithm::NaiveDt,
            Algorithm::NaiveGbdt,
            Algorithm::SeaDt,
            Algorithm::SeaGbdt,
            Algorithm::Arf,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::NaiveNn => "Naive-NN",
            Algorithm::Ewc => "EWC",
            Algorithm::Lwf => "LwF",
            Algorithm::Icarl => "iCaRL",
            Algorithm::SeaNn => "SEA-NN",
            Algorithm::NaiveDt => "Naive-DT",
            Algorithm::NaiveGbdt => "Naive-GBDT",
            Algorithm::SeaDt => "SEA-DT",
            Algorithm::SeaGbdt => "SEA-GBDT",
            Algorithm::Arf => "ARF",
        }
    }

    /// True for the NN-family algorithms.
    pub fn is_nn_based(&self) -> bool {
        matches!(
            self,
            Algorithm::NaiveNn
                | Algorithm::Ewc
                | Algorithm::Lwf
                | Algorithm::Icarl
                | Algorithm::SeaNn
        )
    }

    /// Instantiates the learner; `None` when the algorithm does not apply
    /// to the task (ARF on regression).
    pub fn make(
        &self,
        task: Task,
        input_dim: usize,
        cfg: &LearnerConfig,
    ) -> Option<Box<dyn StreamLearner>> {
        let cfg = cfg.clone();
        Some(match self {
            Algorithm::NaiveNn => Box::new(NaiveNn::new(task, input_dim, cfg)),
            Algorithm::Ewc => Box::new(EwcNn::new(task, input_dim, cfg)),
            Algorithm::Lwf => Box::new(LwfNn::new(task, input_dim, cfg)),
            Algorithm::Icarl => Box::new(IcarlNn::new(task, input_dim, cfg)),
            Algorithm::SeaNn => Box::new(SeaLearner::new(BaseKind::Nn, task, input_dim, cfg)),
            Algorithm::NaiveDt => Box::new(NaiveDt::new(task, &cfg)),
            Algorithm::NaiveGbdt => Box::new(NaiveGbdt::new(task, &cfg)),
            Algorithm::SeaDt => Box::new(SeaLearner::new(BaseKind::Dt, task, input_dim, cfg)),
            Algorithm::SeaGbdt => Box::new(SeaLearner::new(BaseKind::Gbdt, task, input_dim, cfg)),
            Algorithm::Arf => {
                return ArfLearner::new(task, input_dim, &cfg)
                    .map(|l| Box::new(l) as Box<dyn StreamLearner>)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_clf() -> (Matrix, Vec<f64>, Task) {
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 8) as f64, 1.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| f64::from(r[0] >= 4.0)).collect();
        (
            Matrix::from_rows(&rows),
            ys,
            Task::Classification { n_classes: 2 },
        )
    }

    fn toy_reg() -> (Matrix, Vec<f64>, Task) {
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![(i % 16) as f64 / 16.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0]).collect();
        (Matrix::from_rows(&rows), ys, Task::Regression)
    }

    #[test]
    fn every_algorithm_instantiates_for_classification() {
        let (xs, ys, task) = toy_clf();
        for alg in Algorithm::all() {
            let mut learner = alg
                .make(task, xs.cols(), &LearnerConfig::default())
                .unwrap_or_else(|| panic!("{} missing for classification", alg.name()));
            learner.train_window(&xs, &ys);
            let p = learner.predict(xs.row(0));
            assert!(p == 0.0 || p == 1.0, "{} predicted {p}", learner.name());
            assert!(learner.memory_bytes() > 0);
        }
    }

    #[test]
    fn arf_is_none_for_regression_others_work() {
        let (xs, ys, task) = toy_reg();
        for alg in Algorithm::all() {
            match alg.make(task, xs.cols(), &LearnerConfig::default()) {
                None => assert_eq!(alg, Algorithm::Arf),
                Some(mut learner) => {
                    learner.train_window(&xs, &ys);
                    assert!(learner.predict(xs.row(3)).is_finite());
                }
            }
        }
    }

    #[test]
    fn trained_learners_beat_chance_on_separable_data() {
        let (xs, ys, task) = toy_clf();
        for alg in [Algorithm::NaiveNn, Algorithm::NaiveDt, Algorithm::NaiveGbdt] {
            let mut learner = alg
                .make(task, xs.cols(), &LearnerConfig::default())
                .unwrap();
            for _ in 0..3 {
                learner.train_window(&xs, &ys);
            }
            let correct = (0..xs.rows())
                .filter(|&r| learner.predict(xs.row(r)) == ys[r])
                .count();
            assert!(correct > 230, "{}: {correct}/256 correct", learner.name());
        }
    }

    #[test]
    fn ewc_memory_triples_after_anchoring() {
        let (xs, ys, task) = toy_clf();
        let mut ewc = EwcNn::new(task, xs.cols(), LearnerConfig::default());
        let before = ewc.memory_bytes();
        ewc.train_window(&xs, &ys);
        assert_eq!(ewc.memory_bytes(), before * 3);
    }

    #[test]
    fn lwf_memory_doubles_after_snapshot() {
        let (xs, ys, task) = toy_clf();
        let mut lwf = LwfNn::new(task, xs.cols(), LearnerConfig::default());
        let before = lwf.memory_bytes();
        lwf.train_window(&xs, &ys);
        assert_eq!(lwf.memory_bytes(), before * 2);
    }

    #[test]
    fn icarl_buffer_persists_across_windows() {
        let (xs, ys, task) = toy_clf();
        let mut icarl = IcarlNn::new(task, xs.cols(), LearnerConfig::default());
        icarl.train_window(&xs, &ys);
        assert!(!icarl.buffer.is_empty());
        assert!(icarl.memory_bytes() > icarl.mlp.memory_bytes());
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::all().len(), 10);
        assert!(Algorithm::SeaNn.is_nn_based());
        assert!(!Algorithm::SeaDt.is_nn_based());
        assert_eq!(Algorithm::NaiveGbdt.name(), "Naive-GBDT");
    }
}
