//! Open-environment statistics extraction (§4.3 of the paper).
//!
//! For each stream the pipeline records: missing-value ratios (rows /
//! columns / cells), per-window data-drift percentages under HDDDM,
//! kdq-tree, PCA-CD (multi-dimensional) and KS / CDBD / ADWIN / HDDM-A
//! (per column, averaged and maxed), concept-drift percentages under DDM
//! / EDDM / ADWIN-accuracy (probe: Gaussian NB or linear regression, as
//! in the paper) and PERM, and window-level anomaly ratios under ECOD and
//! IForest (3-sigma flagging, average and max across windows).

use crate::executor::{parallel_map, resolve_threads};
use crate::probe::{GaussianNb, LinearProbe};
use oeb_drift::{
    perm_test, Adwin, BatchDriftDetector, Cdbd, CdbdDelta, ConceptDriftDetector, Ddm, DriftState,
    Eddm, Hdddm, HdddmDelta, HddmA, KdqTreeDetector, KsDeltaDetector, KsDetector, PcaCd,
    PermConfig,
};
use oeb_linalg::{EcdfMultiset, EcdfUniverse, Matrix};
use oeb_outlier::{anomaly_ratio, Ecod, IForestConfig, IsolationForest};
use oeb_preprocess::{Imputer, KnnImputer, OneHotEncoder, StandardScaler};
use oeb_tabular::{DeltaStat, MissingDelta, StreamDataset, Table, Task};
use oeb_trace::counters::{STATS_DELTA_ABSORBED, STATS_DELTA_RETRACTED, STATS_FULL_FALLBACK};
use std::sync::Arc;

/// How the §4.3 statistics are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Recompute every detector from scratch on each window (the
    /// retained batch path).
    #[default]
    Full,
    /// Maintain sufficient statistics (ECDF multisets, popcount missing
    /// counts) and slide them across windows; decisions are
    /// bit-identical to [`StatsMode::Full`], non-decomposable detectors
    /// fall back to the batch path (counted by `stats.full.fallback`).
    Incremental,
}

impl StatsMode {
    /// Parses the CLI spelling (`full` / `incremental`).
    pub fn parse(s: &str) -> Option<StatsMode> {
        match s {
            "full" => Some(StatsMode::Full),
            "incremental" => Some(StatsMode::Incremental),
            _ => None,
        }
    }

    /// The CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            StatsMode::Full => "full",
            StatsMode::Incremental => "incremental",
        }
    }
}

/// Extraction knobs (cost bounds; defaults match the paper's pipeline
/// semantics at benchmark scale).
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Columns examined by the per-column detectors (KS, CDBD, ADWIN,
    /// HDDM-A); streams with more encoded columns use the first `n`.
    pub max_columns: usize,
    /// Rows per window sampled for the batch detectors.
    pub max_rows_per_window: usize,
    /// PERM settings.
    pub perm: PermConfig,
    /// Batch recompute vs maintained sufficient statistics.
    pub mode: StatsMode,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            max_columns: 16,
            max_rows_per_window: 512,
            perm: PermConfig {
                n_permutations: 12,
                ..Default::default()
            },
            mode: StatsMode::default(),
        }
    }
}

/// Average/maximum pair across windows or columns.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AvgMax {
    pub avg: f64,
    pub max: f64,
}

impl AvgMax {
    fn from_values(values: &[f64]) -> AvgMax {
        if values.is_empty() {
            return AvgMax::default();
        }
        AvgMax {
            avg: oeb_linalg::mean(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// The open-environment statistics of one stream.
#[derive(Debug, Clone)]
pub struct OeStats {
    /// Dataset name.
    pub name: String,
    /// Rows in the stream.
    pub n_rows: usize,
    /// Feature count (before one-hot).
    pub n_features: usize,
    /// Number of windows analysed.
    pub n_windows: usize,
    /// True for classification streams.
    pub classification: bool,

    /// Ratio of rows with at least one missing cell.
    pub missing_rows: f64,
    /// Ratio of columns containing missing cells.
    pub missing_cols: f64,
    /// Ratio of empty cells.
    pub missing_cells: f64,

    /// Fraction of windows flagged by HDDDM.
    pub drift_hdddm: f64,
    /// Fraction of windows flagged by the kdq-tree detector.
    pub drift_kdq: f64,
    /// Fraction of windows flagged by PCA-CD.
    pub drift_pcacd: f64,
    /// Per-column KS drift fraction (avg/max over columns).
    pub drift_ks: AvgMax,
    /// Per-column CDBD drift fraction.
    pub drift_cdbd: AvgMax,
    /// Per-column ADWIN drift events per 1k items.
    pub drift_adwin: AvgMax,
    /// Per-column HDDM-A drift events per 1k items.
    pub drift_hddm: AvgMax,

    /// Fraction of windows where DDM signalled drift.
    pub concept_ddm: f64,
    /// Fraction of windows where EDDM signalled drift.
    pub concept_eddm: f64,
    /// Fraction of windows where ADWIN-accuracy signalled drift.
    pub concept_adwin: f64,
    /// Fraction of windows the PERM test flagged.
    pub concept_perm: f64,

    /// ECOD window anomaly ratio (avg/max).
    pub anomaly_ecod: AvgMax,
    /// IForest window anomaly ratio (avg/max).
    pub anomaly_iforest: AvgMax,
}

impl OeStats {
    /// Composite missing-value score in [0, 1]. The column ratio is
    /// excluded: any nonzero missing rate marks every column eventually,
    /// so it saturates and carries no ranking information (it remains in
    /// the selection feature group, where PCA weights it by variance).
    pub fn missing_score(&self) -> f64 {
        (2.0 * self.missing_cells + self.missing_rows) / 3.0
    }

    /// Composite data-drift score.
    pub fn drift_score(&self) -> f64 {
        let parts = [
            self.drift_hdddm,
            self.drift_kdq,
            self.drift_pcacd,
            self.drift_ks.avg,
            self.drift_cdbd.avg,
            (self.drift_adwin.avg / 5.0).min(1.0),
            (self.drift_hddm.avg / 5.0).min(1.0),
        ];
        parts.iter().sum::<f64>() / parts.len() as f64
    }

    /// Composite concept-drift score.
    pub fn concept_score(&self) -> f64 {
        let parts = [
            self.concept_ddm,
            self.concept_eddm,
            self.concept_adwin,
            self.concept_perm,
        ];
        parts.iter().sum::<f64>() / parts.len() as f64
    }

    /// Composite anomaly score.
    pub fn anomaly_score(&self) -> f64 {
        (self.anomaly_ecod.avg + self.anomaly_iforest.avg) / 2.0
    }

    /// The "basic information" feature group used by the selection step.
    pub fn basic_features(&self) -> Vec<f64> {
        vec![
            (self.n_rows as f64).ln(),
            (self.n_features as f64).ln(),
            f64::from(u8::from(self.classification)),
        ]
    }

    /// The missing-value feature group.
    pub fn missing_features(&self) -> Vec<f64> {
        vec![self.missing_rows, self.missing_cols, self.missing_cells]
    }

    /// The data-drift feature group.
    pub fn drift_features(&self) -> Vec<f64> {
        vec![
            self.drift_hdddm,
            self.drift_kdq,
            self.drift_pcacd,
            self.drift_ks.avg,
            self.drift_ks.max,
            self.drift_cdbd.avg,
            self.drift_cdbd.max,
            self.drift_adwin.avg,
            self.drift_adwin.max,
            self.drift_hddm.avg,
            self.drift_hddm.max,
        ]
    }

    /// The concept-drift feature group.
    pub fn concept_features(&self) -> Vec<f64> {
        vec![
            self.concept_ddm,
            self.concept_eddm,
            self.concept_adwin,
            self.concept_perm,
        ]
    }

    /// The outlier feature group.
    pub fn outlier_features(&self) -> Vec<f64> {
        vec![
            self.anomaly_ecod.avg,
            self.anomaly_ecod.max,
            self.anomaly_iforest.avg,
            self.anomaly_iforest.max,
        ]
    }

    /// Every floating field as `(name, raw bits)` in a fixed order —
    /// the equivalence gate between [`StatsMode::Full`] and
    /// [`StatsMode::Incremental`] compares these for exact equality.
    pub fn field_bits(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("missing_rows", self.missing_rows.to_bits()),
            ("missing_cols", self.missing_cols.to_bits()),
            ("missing_cells", self.missing_cells.to_bits()),
            ("drift_hdddm", self.drift_hdddm.to_bits()),
            ("drift_kdq", self.drift_kdq.to_bits()),
            ("drift_pcacd", self.drift_pcacd.to_bits()),
            ("drift_ks.avg", self.drift_ks.avg.to_bits()),
            ("drift_ks.max", self.drift_ks.max.to_bits()),
            ("drift_cdbd.avg", self.drift_cdbd.avg.to_bits()),
            ("drift_cdbd.max", self.drift_cdbd.max.to_bits()),
            ("drift_adwin.avg", self.drift_adwin.avg.to_bits()),
            ("drift_adwin.max", self.drift_adwin.max.to_bits()),
            ("drift_hddm.avg", self.drift_hddm.avg.to_bits()),
            ("drift_hddm.max", self.drift_hddm.max.to_bits()),
            ("concept_ddm", self.concept_ddm.to_bits()),
            ("concept_eddm", self.concept_eddm.to_bits()),
            ("concept_adwin", self.concept_adwin.to_bits()),
            ("concept_perm", self.concept_perm.to_bits()),
            ("anomaly_ecod.avg", self.anomaly_ecod.avg.to_bits()),
            ("anomaly_ecod.max", self.anomaly_ecod.max.to_bits()),
            ("anomaly_iforest.avg", self.anomaly_iforest.avg.to_bits()),
            ("anomaly_iforest.max", self.anomaly_iforest.max.to_bits()),
        ]
    }
}

/// Extracts the full statistics vector for one stream.
///
/// With [`StatsMode::Incremental`] the decomposable statistics (missing
/// ratios, HDDDM, KS, CDBD, ECOD) are derived from maintained
/// sufficient statistics instead of per-window recomputation; the
/// result is bit-identical to [`StatsMode::Full`] (the mode-equivalence
/// tests and the CI smoke pin this).
pub fn extract_stats(dataset: &StreamDataset, cfg: &StatsConfig) -> OeStats {
    let missing = match cfg.mode {
        StatsMode::Full => dataset.table.missing_stats(),
        StatsMode::Incremental => incremental_missing_stats(&dataset.table),
    };
    let windows = dataset.windows();
    let n_windows = windows.len();

    // Preprocess exactly as §4.3: one-hot encode, KNN-impute (k=2),
    // normalise.
    let encoder = OneHotEncoder::fit(&dataset.table, &dataset.feature_cols());
    let imputer = KnnImputer { k: 2 };
    let mut encoded_windows: Vec<Matrix> = Vec::with_capacity(n_windows);
    for range in &windows {
        let mut w = encoder.encode(&dataset.table, range.clone());
        let reference = w.clone();
        if w.as_slice().iter().any(|x| !x.is_finite()) {
            imputer.impute(&mut w, &reference);
        }
        encoded_windows.push(subsample(&w, cfg.max_rows_per_window));
    }
    if let Some(first) = encoded_windows.first() {
        let scaler = StandardScaler::fit(first);
        for w in &mut encoded_windows {
            scaler.transform(w);
        }
    }

    // Per-column value universes for the maintained multisets; only the
    // incremental mode pays the upfront sort.
    let n_cols_enc = encoded_windows.first().map(|w| w.cols()).unwrap_or(0);
    let universes = match cfg.mode {
        StatsMode::Full => Vec::new(),
        StatsMode::Incremental => column_universes(&encoded_windows, n_cols_enc),
    };

    // ---- Multi-dimensional data-drift detectors + window outliers ----
    let sweep = match cfg.mode {
        StatsMode::Full => full_multi_sweep(&encoded_windows),
        StatsMode::Incremental => incremental_multi_sweep(&encoded_windows, &universes),
    };

    // ---- Per-column detectors ----
    let n_cols = n_cols_enc.min(cfg.max_columns);
    let (ks_fracs, cdbd_fracs, adwin_rates, hddm_rates) = match cfg.mode {
        StatsMode::Full => full_column_stats(&encoded_windows, n_cols, n_windows),
        StatsMode::Incremental => {
            incremental_column_stats(&encoded_windows, &universes, n_cols, n_windows)
        }
    };

    // ---- Concept drift on probe-model error streams ----
    // The probe/error loops are inherently sequential in row order; no
    // sufficient-statistic form exists, so both modes run the batch path.
    if cfg.mode == StatsMode::Incremental {
        STATS_FULL_FALLBACK.incr();
        STATS_FULL_FALLBACK.incr();
    }
    let (ddm_frac, eddm_frac, adwin_frac) = concept_drift_fracs(dataset, &encoded_windows);
    let perm_frac = perm_fraction(dataset, &encoded_windows, &cfg.perm);

    let per_window = n_windows.max(1) as f64;
    OeStats {
        name: dataset.name.clone(),
        n_rows: dataset.n_rows(),
        n_features: dataset.n_features(),
        n_windows,
        classification: dataset.task.is_classification(),
        missing_rows: missing.rows_with_missing,
        missing_cols: missing.missing_columns,
        missing_cells: missing.empty_cells,
        drift_hdddm: sweep.hdddm_hits as f64 / per_window,
        drift_kdq: sweep.kdq_hits as f64 / per_window,
        drift_pcacd: sweep.pcacd_hits as f64 / per_window,
        drift_ks: AvgMax::from_values(&ks_fracs),
        drift_cdbd: AvgMax::from_values(&cdbd_fracs),
        drift_adwin: AvgMax::from_values(&adwin_rates),
        drift_hddm: AvgMax::from_values(&hddm_rates),
        concept_ddm: ddm_frac,
        concept_eddm: eddm_frac,
        concept_adwin: adwin_frac,
        concept_perm: perm_frac,
        anomaly_ecod: AvgMax::from_values(&sweep.ecod_ratios),
        anomaly_iforest: AvgMax::from_values(&sweep.iforest_ratios),
    }
}

/// Output of the window sweep shared by the multi-dimensional drift
/// detectors and the window outlier detectors.
struct MultiSweep {
    hdddm_hits: usize,
    kdq_hits: usize,
    pcacd_hits: usize,
    ecod_ratios: Vec<f64>,
    iforest_ratios: Vec<f64>,
}

/// The retained batch path: every detector recomputes from scratch on
/// each window.
fn full_multi_sweep(windows: &[Matrix]) -> MultiSweep {
    let mut hdddm = Hdddm::default();
    let mut kdq = KdqTreeDetector::default();
    let mut pcacd = PcaCd::default();
    let mut hdddm_hits = 0usize;
    let mut kdq_hits = 0usize;
    let mut pcacd_hits = 0usize;
    for w in windows {
        if hdddm.update(w).is_drift() {
            hdddm_hits += 1;
        }
        if kdq.update(w).is_drift() {
            kdq_hits += 1;
        }
        if pcacd.update(w).is_drift() {
            pcacd_hits += 1;
        }
    }
    let mut ecod_ratios = Vec::with_capacity(windows.len());
    let mut iforest_ratios = Vec::with_capacity(windows.len());
    for (k, w) in windows.iter().enumerate() {
        if w.rows() < 8 {
            continue;
        }
        let ecod = Ecod::fit(w);
        ecod_ratios.push(anomaly_ratio(&ecod.score_all(w)));
        let forest = IsolationForest::fit(
            w,
            &IForestConfig {
                n_trees: 25,
                seed: k as u64,
                ..Default::default()
            },
        );
        iforest_ratios.push(anomaly_ratio(&forest.score_all(w)));
    }
    MultiSweep {
        hdddm_hits,
        kdq_hits,
        pcacd_hits,
        ecod_ratios,
        iforest_ratios,
    }
}

/// Maintain-and-slide path: one multiset per encoded column slides
/// across the windows; HDDDM decisions and ECOD models are derived from
/// the maintained counts, while kdq-tree, PCA-CD and IForest (no
/// sufficient-statistic form) fall back to the batch detectors.
fn incremental_multi_sweep(windows: &[Matrix], universes: &[Arc<EcdfUniverse>]) -> MultiSweep {
    let mut hdddm = HdddmDelta::default();
    let mut kdq = KdqTreeDetector::default();
    let mut pcacd = PcaCd::default();
    let mut cur: Vec<EcdfMultiset> = universes
        .iter()
        .map(|u| EcdfMultiset::new(Arc::clone(u)))
        .collect();
    let mut hdddm_hits = 0usize;
    let mut kdq_hits = 0usize;
    let mut pcacd_hits = 0usize;
    let mut ecod_ratios = Vec::with_capacity(windows.len());
    let mut iforest_ratios = Vec::with_capacity(windows.len());
    let mut prev: Option<&Matrix> = None;
    for (k, w) in windows.iter().enumerate() {
        slide_columns(&mut cur, prev, w);
        prev = Some(w);
        if hdddm.update(&cur).is_drift() {
            hdddm_hits += 1;
        }
        STATS_FULL_FALLBACK.incr();
        if kdq.update(w).is_drift() {
            kdq_hits += 1;
        }
        STATS_FULL_FALLBACK.incr();
        if pcacd.update(w).is_drift() {
            pcacd_hits += 1;
        }
        if w.rows() >= 8 {
            // The maintained multisets hold exactly this window's values,
            // so the snapshot model equals a fresh batch fit.
            let ecod = Ecod::from_sorted_columns(cur.iter().map(|m| m.to_sorted_vec()).collect());
            ecod_ratios.push(anomaly_ratio(&ecod.score_all(w)));
            STATS_FULL_FALLBACK.incr();
            let forest = IsolationForest::fit(
                w,
                &IForestConfig {
                    n_trees: 25,
                    seed: k as u64,
                    ..Default::default()
                },
            );
            iforest_ratios.push(anomaly_ratio(&forest.score_all(w)));
        }
    }
    MultiSweep {
        hdddm_hits,
        kdq_hits,
        pcacd_hits,
        ecod_ratios,
        iforest_ratios,
    }
}

/// Slides the per-column multisets from the previous window onto `w`:
/// retract every leaving value, absorb every entering one.
fn slide_columns(cur: &mut [EcdfMultiset], prev: Option<&Matrix>, w: &Matrix) {
    let mut retracted = 0u64;
    if let Some(p) = prev {
        for r in 0..p.rows() {
            for (c, &x) in p.row(r).iter().enumerate() {
                if cur[c].remove(x) {
                    retracted += 1;
                }
            }
        }
    }
    let mut absorbed = 0u64;
    for r in 0..w.rows() {
        for (c, &x) in w.row(r).iter().enumerate() {
            if cur[c].insert(x) {
                absorbed += 1;
            }
        }
    }
    STATS_DELTA_RETRACTED.add(retracted);
    STATS_DELTA_ABSORBED.add(absorbed);
}

/// Per-column value universes over every window of the stream.
fn column_universes(windows: &[Matrix], n_cols: usize) -> Vec<Arc<EcdfUniverse>> {
    (0..n_cols)
        .map(|c| {
            let mut values = Vec::new();
            for w in windows {
                values.extend(w.col(c));
            }
            Arc::new(EcdfUniverse::from_values(values))
        })
        .collect()
}

/// `(ks fracs, cdbd fracs, adwin rates, hddm rates)` per column.
type ColumnStats = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

/// The retained batch per-column loop.
fn full_column_stats(windows: &[Matrix], n_cols: usize, n_windows: usize) -> ColumnStats {
    let mut ks_fracs = Vec::with_capacity(n_cols);
    let mut cdbd_fracs = Vec::with_capacity(n_cols);
    let mut adwin_rates = Vec::with_capacity(n_cols);
    let mut hddm_rates = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let mut ks = KsDetector::new(0.05);
        let mut cdbd = Cdbd::default();
        let mut adwin = Adwin::new(0.002);
        let mut hddm = HddmA::default();
        let mut ks_hits = 0usize;
        let mut cdbd_hits = 0usize;
        let mut adwin_hits = 0usize;
        let mut hddm_hits = 0usize;
        let mut n_items = 0usize;
        for w in windows {
            let col = w.col(c);
            if ks.update(&col).is_drift() {
                ks_hits += 1;
            }
            if cdbd.update(&col).is_drift() {
                cdbd_hits += 1;
            }
            for &v in &col {
                if !v.is_finite() {
                    continue;
                }
                n_items += 1;
                // Normalise into [0, 1] for HDDM's Hoeffding bounds.
                let bounded = 0.5 + 0.5 * (v / 4.0).tanh();
                if adwin.insert(bounded) {
                    adwin_hits += 1;
                }
                if hddm.update(bounded).is_drift() {
                    hddm_hits += 1;
                }
            }
        }
        let per_window = n_windows.max(1) as f64;
        ks_fracs.push(ks_hits as f64 / per_window);
        cdbd_fracs.push(cdbd_hits as f64 / per_window);
        let per_k_items = (n_items.max(1)) as f64 / 1000.0;
        adwin_rates.push(adwin_hits as f64 / per_k_items);
        hddm_rates.push(hddm_hits as f64 / per_k_items);
    }
    (ks_fracs, cdbd_fracs, adwin_rates, hddm_rates)
}

/// The incremental per-column loop: each column slides its own multiset
/// across the windows and feeds the delta detectors. Columns are
/// independent and pure, so they run under [`parallel_map`], which is
/// bit-identical to the sequential order at any thread count.
fn incremental_column_stats(
    windows: &[Matrix],
    universes: &[Arc<EcdfUniverse>],
    n_cols: usize,
    n_windows: usize,
) -> ColumnStats {
    let threads = resolve_threads(None);
    let per_col = parallel_map(n_cols, threads, |c| {
        let mut cur = EcdfMultiset::new(Arc::clone(&universes[c]));
        let mut ks = KsDeltaDetector::new(0.05);
        let mut cdbd = CdbdDelta::default();
        let mut adwin = Adwin::new(0.002);
        let mut hddm = HddmA::default();
        let mut ks_hits = 0usize;
        let mut cdbd_hits = 0usize;
        let mut adwin_hits = 0usize;
        let mut hddm_hits = 0usize;
        let mut n_items = 0usize;
        let mut prev: Option<Vec<f64>> = None;
        for w in windows {
            let col = w.col(c);
            let mut retracted = 0u64;
            if let Some(p) = &prev {
                for &v in p {
                    if cur.remove(v) {
                        retracted += 1;
                    }
                }
            }
            let mut absorbed = 0u64;
            for &v in &col {
                if cur.insert(v) {
                    absorbed += 1;
                }
            }
            STATS_DELTA_RETRACTED.add(retracted);
            STATS_DELTA_ABSORBED.add(absorbed);
            if ks.update(&cur).is_drift() {
                ks_hits += 1;
            }
            if cdbd.update(&cur).is_drift() {
                cdbd_hits += 1;
            }
            for &v in &col {
                if !v.is_finite() {
                    continue;
                }
                n_items += 1;
                // ADWIN and HDDM-A are already streaming (per-item)
                // detectors; they consume the window in row order on both
                // paths.
                let bounded = 0.5 + 0.5 * (v / 4.0).tanh();
                if adwin.insert(bounded) {
                    adwin_hits += 1;
                }
                if hddm.update(bounded).is_drift() {
                    hddm_hits += 1;
                }
            }
            prev = Some(col);
        }
        let per_window = n_windows.max(1) as f64;
        let per_k_items = (n_items.max(1)) as f64 / 1000.0;
        (
            ks_hits as f64 / per_window,
            cdbd_hits as f64 / per_window,
            adwin_hits as f64 / per_k_items,
            hddm_hits as f64 / per_k_items,
        )
    });
    let mut ks_fracs = Vec::with_capacity(n_cols);
    let mut cdbd_fracs = Vec::with_capacity(n_cols);
    let mut adwin_rates = Vec::with_capacity(n_cols);
    let mut hddm_rates = Vec::with_capacity(n_cols);
    for (ks, cdbd, adwin, hddm) in per_col {
        ks_fracs.push(ks);
        cdbd_fracs.push(cdbd);
        adwin_rates.push(adwin);
        hddm_rates.push(hddm);
    }
    (ks_fracs, cdbd_fracs, adwin_rates, hddm_rates)
}

/// Whole-table missing statistics via the popcount delta accumulator —
/// bit-identical to [`Table::missing_stats`] (both count NaN cells of
/// the numeric row view).
fn incremental_missing_stats(table: &Table) -> oeb_tabular::MissingStats {
    let mut delta = MissingDelta::new(table.n_cols());
    for r in 0..table.n_rows() {
        delta.absorb(&table.numeric_row(r));
    }
    STATS_DELTA_ABSORBED.add(table.n_rows() as u64);
    delta.snapshot()
}

/// Runs the probe model window-by-window, feeding its error stream into
/// DDM, EDDM and ADWIN; probes are retrained on the latest window after
/// any drift alert (as in §4.3). Returns the fraction of windows in which
/// each detector fired.
fn concept_drift_fracs(dataset: &StreamDataset, windows: &[Matrix]) -> (f64, f64, f64) {
    if windows.len() < 2 {
        return (0.0, 0.0, 0.0);
    }
    let ranges = dataset.windows();
    enum Probe {
        Nb(GaussianNb),
        Lin(LinearProbe),
    }
    let fit = |w: &Matrix, range: &std::ops::Range<usize>| -> Probe {
        let ys: Vec<f64> = sample_targets(dataset, range, w.rows());
        match dataset.task {
            Task::Classification { n_classes } => Probe::Nb(GaussianNb::fit(w, &ys, n_classes)),
            Task::Regression => Probe::Lin(LinearProbe::fit(w, &ys)),
        }
    };
    let mut probe = fit(&windows[0], &ranges[0]);
    let mut ddm = Ddm::new();
    let mut eddm = Eddm::new();
    let mut adwin = Adwin::new(0.002);
    let mut ddm_windows = 0usize;
    let mut eddm_windows = 0usize;
    let mut adwin_windows = 0usize;

    for (k, w) in windows.iter().enumerate().skip(1) {
        let ys = sample_targets(dataset, &ranges[k], w.rows());
        let mut fired = (false, false, false);
        for r in 0..w.rows() {
            let err = match (&probe, dataset.task) {
                (Probe::Nb(nb), Task::Classification { .. }) => {
                    f64::from(nb.predict(w.row(r)) != ys[r] as usize)
                }
                (Probe::Lin(lin), Task::Regression) => {
                    // Bounded regression error indicator: large residual
                    // (in scaled-target units) counts as an error.
                    let resid = (lin.predict(w.row(r)) - ys[r]).abs();
                    f64::from(resid > 1.0)
                }
                _ => unreachable!("probe matches task"),
            };
            fired.0 |= ddm.update(err).is_drift();
            fired.1 |= eddm.update(err).is_drift();
            fired.2 |= adwin.update(err).is_drift();
        }
        if fired.0 {
            ddm_windows += 1;
        }
        if fired.1 {
            eddm_windows += 1;
        }
        if fired.2 {
            adwin_windows += 1;
        }
        if fired.0 || fired.1 || fired.2 {
            // Retrain the probe on the most recent data slice.
            probe = fit(w, &ranges[k]);
        }
    }
    let n = (windows.len() - 1) as f64;
    (
        ddm_windows as f64 / n,
        eddm_windows as f64 / n,
        adwin_windows as f64 / n,
    )
}

/// Fraction of windows flagged by the PERM resampling test.
fn perm_fraction(dataset: &StreamDataset, windows: &[Matrix], cfg: &PermConfig) -> f64 {
    if windows.is_empty() {
        return 0.0;
    }
    let ranges = dataset.windows();
    let mut flagged = 0usize;
    let mut tested = 0usize;
    for (k, w) in windows.iter().enumerate() {
        if w.rows() < 16 {
            continue;
        }
        tested += 1;
        let ys = sample_targets(dataset, &ranges[k], w.rows());
        let outcome = perm_test(w.rows(), cfg, |train, test| {
            let train_rows: Vec<Vec<f64>> = train.iter().map(|&i| w.row(i).to_vec()).collect();
            let train_ys: Vec<f64> = train.iter().map(|&i| ys[i]).collect();
            let tm = Matrix::from_rows(&train_rows);
            match dataset.task {
                Task::Classification { n_classes } => {
                    let nb = GaussianNb::fit(&tm, &train_ys, n_classes);
                    let errors = test
                        .iter()
                        .filter(|&&i| nb.predict(w.row(i)) != ys[i] as usize)
                        .count();
                    errors as f64 / test.len().max(1) as f64
                }
                Task::Regression => {
                    let lin = LinearProbe::fit(&tm, &train_ys);
                    test.iter()
                        .map(|&i| (lin.predict(w.row(i)) - ys[i]).powi(2))
                        .sum::<f64>()
                        / test.len().max(1) as f64
                }
            }
        });
        if outcome.state == DriftState::Drift {
            flagged += 1;
        }
    }
    flagged as f64 / tested.max(1) as f64
}

/// Targets aligned with a (possibly subsampled) window matrix: the
/// subsampler takes evenly spaced rows, so targets follow the same rule.
fn sample_targets(
    dataset: &StreamDataset,
    range: &std::ops::Range<usize>,
    n_rows: usize,
) -> Vec<f64> {
    let len = range.len();
    if n_rows >= len {
        return range.clone().map(|r| dataset.target_at(r)).collect();
    }
    (0..n_rows)
        .map(|i| dataset.target_at(range.start + i * len / n_rows))
        .collect()
}

/// Evenly spaced row subsample of a matrix.
fn subsample(m: &Matrix, max_rows: usize) -> Matrix {
    if m.rows() <= max_rows {
        return m.clone();
    }
    let rows: Vec<Vec<f64>> = (0..max_rows)
        .map(|i| m.row(i * m.rows() / max_rows).to_vec())
        .collect();
    Matrix::from_rows(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oeb_synth::{generate, registry_scaled, Level};

    fn stats_for(name: &str) -> OeStats {
        let entries = registry_scaled(0.04);
        let entry = entries.iter().find(|e| e.spec.name == name).unwrap();
        let d = generate(&entry.spec, 0);
        extract_stats(&d, &StatsConfig::default())
    }

    #[test]
    fn high_missing_dataset_scores_high_missing() {
        let high = stats_for("Indian Cities Weather Bangalore");
        let low = stats_for("Electricity Prices");
        assert!(
            high.missing_score() > low.missing_score() + 0.05,
            "high {} low {}",
            high.missing_score(),
            low.missing_score()
        );
    }

    #[test]
    fn drifting_dataset_scores_higher_than_stationary() {
        let drifting = stats_for("Power Consumption of Tetouan City");
        let stationary = stats_for("Safe Driver");
        assert!(
            drifting.drift_score() > stationary.drift_score(),
            "drifting {} stationary {}",
            drifting.drift_score(),
            stationary.drift_score()
        );
    }

    #[test]
    fn anomalous_dataset_scores_higher_than_clean() {
        let entries = registry_scaled(0.04);
        let anomalous = entries
            .iter()
            .find(|e| e.spec.anomaly_level == Level::High)
            .unwrap();
        let clean = entries
            .iter()
            .find(|e| e.spec.anomaly_level == Level::Low && e.spec.name == "Safe Driver")
            .unwrap();
        let sa = extract_stats(&generate(&anomalous.spec, 0), &StatsConfig::default());
        let sc = extract_stats(&generate(&clean.spec, 0), &StatsConfig::default());
        assert!(
            sa.anomaly_score() >= sc.anomaly_score(),
            "anomalous {} clean {}",
            sa.anomaly_score(),
            sc.anomaly_score()
        );
    }

    #[test]
    fn stats_fields_are_finite_and_bounded() {
        let s = stats_for("Electricity Prices");
        for group in [
            s.missing_features(),
            s.drift_features(),
            s.concept_features(),
            s.outlier_features(),
            s.basic_features(),
        ] {
            for v in group {
                assert!(v.is_finite());
            }
        }
        assert!(s.missing_cells >= 0.0 && s.missing_cells <= 1.0);
        assert!(s.drift_hdddm >= 0.0 && s.drift_hdddm <= 1.0);
    }

    #[test]
    fn incremental_mode_matches_full_bitwise() {
        let entries = registry_scaled(0.04);
        // One drifting stream, one heavy-missing stream: exercises the
        // reference slides, empty-window rules and imputation paths.
        for name in ["Electricity Prices", "Indian Cities Weather Bangalore"] {
            let entry = entries.iter().find(|e| e.spec.name == name).unwrap();
            let d = generate(&entry.spec, 0);
            let full = extract_stats(&d, &StatsConfig::default());
            let inc = extract_stats(
                &d,
                &StatsConfig {
                    mode: StatsMode::Incremental,
                    ..Default::default()
                },
            );
            assert_eq!(full.n_windows, inc.n_windows);
            for ((name_a, a), (_, b)) in full.field_bits().iter().zip(inc.field_bits()) {
                assert_eq!(
                    *a,
                    b,
                    "{name}: field {name_a} differs ({} vs {})",
                    f64::from_bits(*a),
                    f64::from_bits(b)
                );
            }
        }
    }

    #[test]
    fn stats_mode_parses_cli_spellings() {
        assert_eq!(StatsMode::parse("full"), Some(StatsMode::Full));
        assert_eq!(
            StatsMode::parse("incremental"),
            Some(StatsMode::Incremental)
        );
        assert_eq!(StatsMode::parse("delta"), None);
        assert_eq!(StatsMode::Incremental.label(), "incremental");
    }

    #[test]
    fn subsample_keeps_row_budget() {
        let m = Matrix::from_rows(&(0..100).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let s = subsample(&m, 10);
        assert_eq!(s.rows(), 10);
        assert_eq!(s[(0, 0)], 0.0);
    }
}
