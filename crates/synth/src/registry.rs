//! The 55-dataset registry.
//!
//! One entry per real-world dataset the paper collects (Tables 11 and 12),
//! carrying the paper's shape metadata (`paper_rows`, `paper_features`)
//! and a [`StreamSpec`] that regenerates the dataset's open-environment
//! phenomena at a tractable benchmark scale. The drift / anomaly /
//! missing-value levels are taken from the paper's Table 9 labels; drift
//! patterns follow the Table 13 visualisation audit (air quality datasets
//! are recurrent, elections abrupt, INSECTS variants follow their named
//! protocols, and so on).

use crate::spec::{
    AnomalyEvent, Balance, DriftPattern, FeatureAvailability, LabelMechanism, Level, StreamSpec,
    TaskSpec,
};
use oeb_tabular::Domain;

/// A registry entry: the paper's metadata plus the generator spec.
#[derive(Debug, Clone)]
pub struct DatasetEntry {
    /// Generator specification at benchmark scale.
    pub spec: StreamSpec,
    /// Instance count reported in the paper's Tables 11/12.
    pub paper_rows: usize,
    /// Feature count reported in the paper's Tables 11/12.
    pub paper_features: usize,
    /// `Some(short)` for the five representative datasets of Table 3
    /// (ROOM, ELECTRICITY, INSECTS, AIR, POWER).
    pub selected: Option<&'static str>,
}

impl DatasetEntry {
    /// True for classification entries.
    pub fn is_classification(&self) -> bool {
        matches!(self.spec.task, TaskSpec::Classification { .. })
    }
}

const ABRUPT1: DriftPattern = DriftPattern::Abrupt {
    breaks: [0.5, 0.0, 0.0],
    n_breaks: 1,
};
const ABRUPT3: DriftPattern = DriftPattern::Abrupt {
    breaks: [0.25, 0.5, 0.75],
    n_breaks: 3,
};

#[allow(clippy::too_many_arguments)]
fn entry(
    name: &str,
    domain: Domain,
    paper_rows: usize,
    paper_features: usize,
    bench_rows: usize,
    n_numeric: usize,
    categorical: Vec<usize>,
    task: TaskSpec,
    pattern: DriftPattern,
    drift: Level,
    anomaly: Level,
    missing: Level,
    seasonal_cycles: f64,
    window: usize,
    seed: u64,
) -> DatasetEntry {
    DatasetEntry {
        spec: StreamSpec {
            name: name.to_string(),
            domain,
            n_rows: bench_rows,
            n_numeric,
            categorical,
            task,
            drift_pattern: pattern,
            drift_level: drift,
            anomaly_level: anomaly,
            anomaly_events: Vec::new(),
            missing_level: missing,
            availability: Vec::new(),
            seasonal_cycles,
            default_window: window,
            seed,
        },
        paper_rows,
        paper_features,
        selected: None,
    }
}

fn clf(n_classes: usize, mechanism: LabelMechanism, balance: Balance) -> TaskSpec {
    TaskSpec::Classification {
        n_classes,
        mechanism,
        balance,
        label_noise: 0.03,
    }
}

fn reg() -> TaskSpec {
    TaskSpec::Regression { noise: 0.15 }
}

/// Builds the full 55-dataset registry at benchmark scale.
///
/// Entries are deterministic: each spec has a fixed seed, and the
/// generator mixes in the caller's run seed.
pub fn registry() -> Vec<DatasetEntry> {
    use Balance::*;
    use Domain::*;
    use LabelMechanism::*;
    use Level::*;

    let mut v: Vec<DatasetEntry> = Vec::with_capacity(55);

    // ---------------- Classification (Table 11) ----------------

    let mut e = entry(
        "BitcoinHeistRansomwareAddress",
        Commerce,
        2_916_697,
        6,
        48_000,
        6,
        vec![],
        clf(27, YToX, Imbalanced),
        ABRUPT1,
        High,
        High,
        Low,
        0.0,
        1_600,
        101,
    );
    e.spec.anomaly_events = vec![AnomalyEvent::Spike {
        at: 0.55,
        width: 0.01,
        magnitude: 8.0,
    }];
    v.push(e);

    let mut e = entry(
        "Room Occupancy Estimation",
        Others,
        10_129,
        16,
        10_129,
        16,
        vec![],
        clf(4, XToY, Balanced),
        DriftPattern::Incremental,
        MediumHigh,
        High,
        Low,
        18.0,
        200,
        102,
    );
    e.selected = Some("ROOM");
    v.push(e);

    let mut e = entry(
        "Electricity Prices",
        Commerce,
        45_312,
        7,
        45_312,
        7,
        vec![],
        clf(2, XToY, Balanced),
        DriftPattern::Gradual,
        MediumHigh,
        MediumHigh,
        Low,
        10.0,
        1_344,
        103,
    );
    e.selected = Some("ELECTRICITY");
    v.push(e);

    v.push(entry(
        "Airlines",
        Commerce,
        539_383,
        6,
        50_000,
        6,
        vec![],
        clf(2, XToY, Balanced),
        DriftPattern::Gradual,
        MediumLow,
        Low,
        Low,
        4.0,
        1_650,
        104,
    ));

    v.push(entry(
        "Forest Covertype",
        ScienceTech,
        581_012,
        54,
        50_000,
        10,
        vec![4, 40],
        clf(7, XToY, Imbalanced),
        DriftPattern::Incremental,
        MediumHigh,
        MediumHigh,
        Low,
        0.0,
        1_650,
        105,
    ));

    // The 11 INSECTS protocol variants (temperature-controlled drifts).
    let insects = |name: &str,
                   paper_rows: usize,
                   bench_rows: usize,
                   n_classes: usize,
                   balance: Balance,
                   pattern: DriftPattern,
                   drift: Level,
                   anomaly: Level,
                   window: usize,
                   seed: u64| {
        entry(
            name,
            ScienceTech,
            paper_rows,
            33,
            bench_rows,
            33,
            vec![],
            clf(n_classes, XToY, balance),
            pattern,
            drift,
            anomaly,
            Low,
            0.0,
            window,
            seed,
        )
    };
    v.push(insects(
        "INSECTS-Abrupt (balanced)",
        52_848,
        30_000,
        6,
        Balanced,
        ABRUPT3,
        MediumLow,
        MediumHigh,
        600,
        106,
    ));
    v.push(insects(
        "INSECTS-Abrupt (imbalanced)",
        355_275,
        45_000,
        6,
        Imbalanced,
        ABRUPT3,
        MediumLow,
        MediumHigh,
        900,
        107,
    ));
    v.push(insects(
        "INSECTS-Incremental (balanced)",
        57_018,
        30_000,
        6,
        Balanced,
        DriftPattern::Incremental,
        MediumHigh,
        MediumLow,
        600,
        108,
    ));
    v.push(insects(
        "INSECTS-Incremental (imbalanced)",
        452_044,
        45_000,
        6,
        Imbalanced,
        DriftPattern::Incremental,
        MediumLow,
        MediumHigh,
        900,
        109,
    ));
    v.push(insects(
        "INSECTS-Incremental-abrupt-reoccurring (balanced)",
        79_986,
        35_000,
        6,
        Balanced,
        DriftPattern::IncrementalReoccurring { cycles: 3.0 },
        MediumHigh,
        High,
        700,
        110,
    ));
    v.push(insects(
        "INSECTS-Incremental-abrupt-reoccurring (imbalanced)",
        452_044,
        45_000,
        6,
        Imbalanced,
        DriftPattern::IncrementalReoccurring { cycles: 3.0 },
        MediumHigh,
        MediumHigh,
        900,
        111,
    ));
    v.push(insects(
        "INSECTS-Incremental-gradual (balanced)",
        24_150,
        24_150,
        6,
        Balanced,
        DriftPattern::Gradual,
        MediumHigh,
        MediumHigh,
        500,
        112,
    ));
    v.push(insects(
        "INSECTS-Incremental-gradual (imbalanced)",
        143_323,
        40_000,
        6,
        Imbalanced,
        DriftPattern::Gradual,
        MediumHigh,
        MediumHigh,
        800,
        113,
    ));
    let mut e = insects(
        "INSECTS-Incremental-reoccurring (balanced)",
        79_986,
        35_000,
        6,
        Balanced,
        DriftPattern::IncrementalReoccurring { cycles: 2.0 },
        MediumLow,
        MediumHigh,
        700,
        114,
    );
    e.selected = Some("INSECTS");
    v.push(e);
    v.push(insects(
        "INSECTS-Incremental-reoccurring (imbalanced)",
        452_044,
        45_000,
        6,
        Imbalanced,
        DriftPattern::IncrementalReoccurring { cycles: 2.0 },
        MediumHigh,
        MediumHigh,
        900,
        115,
    ));
    v.push(insects(
        "INSECTS-Out-of-control",
        905_145,
        50_000,
        24,
        Imbalanced,
        DriftPattern::Stationary,
        Low,
        MediumHigh,
        1_000,
        116,
    ));

    v.push(entry(
        "KDDCUP99",
        ScienceTech,
        494_021,
        41,
        50_000,
        35,
        vec![3, 10, 11],
        clf(23, XToY, Imbalanced),
        DriftPattern::Abrupt {
            breaks: [0.3, 0.7, 0.0],
            n_breaks: 2,
        },
        MediumLow,
        Low,
        Low,
        0.0,
        1_650,
        117,
    ));

    v.push(entry(
        "NOAA Weather",
        Ecology,
        18_159,
        8,
        18_159,
        8,
        vec![],
        clf(2, XToY, Balanced),
        DriftPattern::Recurrent { cycles: 8.0 },
        MediumHigh,
        MediumLow,
        Low,
        8.0,
        360,
        118,
    ));

    v.push(entry(
        "Safe Driver",
        Commerce,
        595_212,
        57,
        50_000,
        40,
        vec![5, 5, 8],
        clf(2, XToY, Imbalanced),
        DriftPattern::Stationary,
        Low,
        Low,
        Low,
        0.0,
        1_650,
        119,
    ));

    v.push(entry(
        "BLE RSSI Indoor Localization",
        Others,
        9_984,
        5,
        9_984,
        5,
        vec![],
        clf(3, YToX, Balanced),
        ABRUPT3,
        MediumHigh,
        MediumHigh,
        Low,
        0.0,
        200,
        120,
    ));

    // ---------------- Regression (Table 12) ----------------

    v.push(entry(
        "Italian City Air Quality",
        Ecology,
        9_358,
        12,
        9_358,
        12,
        vec![],
        reg(),
        DriftPattern::Recurrent { cycles: 1.0 },
        High,
        MediumHigh,
        High,
        1.0,
        720,
        121,
    ));

    v.push(entry(
        "Energy Prediction",
        Power,
        19_735,
        25,
        19_735,
        25,
        vec![],
        reg(),
        DriftPattern::Incremental,
        High,
        High,
        Low,
        4.0,
        800,
        122,
    ));

    // 12 Beijing multi-site air-quality stations, all 30-day windows over
    // 4 years of hourly data (recurrent yearly drift).
    let air_site = |site: &str, drift: Level, anomaly: Level, missing: Level, seed: u64| {
        entry(
            &format!("Beijing Multi-Site Air-Quality {site}"),
            Ecology,
            35_064,
            11,
            35_064,
            11,
            vec![],
            reg(),
            DriftPattern::Recurrent { cycles: 4.0 },
            drift,
            anomaly,
            missing,
            4.0,
            720,
            seed,
        )
    };
    v.push(air_site("Aotizhongxin", MediumLow, MediumLow, Low, 123));
    v.push(air_site("Changping", MediumLow, MediumLow, Low, 124));
    v.push(air_site("Dingling", MediumLow, MediumLow, Low, 125));
    v.push(air_site("Dongsi", MediumLow, MediumHigh, Low, 126));
    v.push(air_site("Guanyuan", MediumLow, MediumLow, Low, 127));
    v.push(air_site("Gucheng", MediumLow, MediumLow, Low, 128));
    v.push(air_site("Huairou", MediumLow, MediumLow, Low, 129));
    v.push(air_site("Nongzhanguan", MediumLow, MediumLow, Low, 130));
    let mut e = air_site("Shunyi", Low, MediumLow, High, 131);
    // The AIR case study (§5.1 / Figure 4): one sensor appears mid-stream
    // (incremental feature), another drops out for a stretch (decremental).
    e.spec.availability = vec![
        FeatureAvailability {
            appears_at: 0.4,
            dropout: (0.68, 0.74),
            mcar: 0.1,
        },
        FeatureAvailability {
            appears_at: 0.0,
            dropout: (0.55, 0.62),
            mcar: 0.15,
        },
        FeatureAvailability::mcar(0.25),
        FeatureAvailability::mcar(0.2),
        FeatureAvailability::mcar(0.15),
        FeatureAvailability::mcar(0.1),
        FeatureAvailability::mcar(0.1),
        FeatureAvailability::mcar(0.08),
        FeatureAvailability::mcar(0.08),
        FeatureAvailability::mcar(0.05),
        FeatureAvailability::mcar(0.05),
    ];
    e.selected = Some("AIR");
    v.push(e);
    v.push(air_site("Tiantan", MediumLow, MediumHigh, Low, 132));
    v.push(air_site("Wanliu", MediumLow, Low, Low, 133));
    v.push(air_site("Wanshouxigong", MediumLow, MediumLow, Low, 134));

    v.push(entry(
        "Beijing PM2.5",
        Ecology,
        43_824,
        7,
        43_824,
        7,
        vec![],
        reg(),
        DriftPattern::Recurrent { cycles: 5.0 },
        MediumHigh,
        High,
        Low,
        5.0,
        720,
        135,
    ));

    // 7 Indian city weather streams: daily data over ~32 years, high
    // missing-value ratios.
    let indian = |city: &str, drift: Level, anomaly: Level, seed: u64| {
        entry(
            &format!("Indian Cities Weather {city}"),
            Ecology,
            11_894,
            5,
            11_894,
            5,
            vec![],
            reg(),
            DriftPattern::Recurrent { cycles: 32.0 },
            drift,
            anomaly,
            High,
            32.0,
            240,
            seed,
        )
    };
    v.push(indian("Bangalore", MediumLow, MediumLow, 136));
    v.push(indian("Bhubhneshwar", Low, Low, 137));
    v.push(indian("Chennai", Low, Low, 138));
    v.push(indian("Delhi", Low, Low, 139));
    v.push(indian("Lucknow", MediumLow, Low, 140));
    v.push(indian("Mumbai", Low, Low, 141));
    v.push(indian("Rajasthan", Low, MediumLow, 142));

    v.push(entry(
        "Household Electric Consumption",
        Power,
        2_075_259,
        6,
        60_000,
        6,
        vec![],
        reg(),
        DriftPattern::Recurrent { cycles: 4.0 },
        High,
        MediumHigh,
        Low,
        4.0,
        1_250,
        143,
    ));

    v.push(entry(
        "Metro Interstate Traffic Volume",
        Commerce,
        48_204,
        7,
        48_204,
        7,
        vec![],
        reg(),
        DriftPattern::Recurrent { cycles: 6.0 },
        Low,
        MediumLow,
        Low,
        6.0,
        960,
        144,
    ));

    // The five-cities PM2.5 streams; Beijing carries the §5.3 case-study
    // events (2012 flood spike at ~42% of the stream, 2014-15 haze at
    // 80-86%, and the absurd 999,990 precipitation cell at row ~51,278).
    let pm25 = |city: &str, drift: Level, anomaly: Level, seed: u64| {
        entry(
            &format!("5 cities PM2.5 ({city})"),
            Ecology,
            52_584,
            8,
            52_584,
            8,
            vec![],
            reg(),
            DriftPattern::Recurrent { cycles: 5.0 },
            drift,
            anomaly,
            High,
            5.0,
            720,
            seed,
        )
    };
    let mut e = pm25("Beijing", MediumHigh, MediumHigh, 145);
    e.spec.anomaly_events = vec![
        AnomalyEvent::Spike {
            at: 0.42,
            // ~1 day of hourly data against a 30-day window (the flood is
            // a small fraction of its window, so 3-sigma flagging sees it).
            width: 0.001,
            magnitude: 12.0,
        },
        AnomalyEvent::Sustained {
            from: 0.80,
            to: 0.86,
            shift: 4.0,
        },
        AnomalyEvent::CorruptCell {
            at: 51_278.0 / 52_584.0,
            feature: 6,
            value: 999_990.0,
        },
    ];
    // Figure 4's evolving sensors live on this stream too.
    e.spec.availability = vec![
        FeatureAvailability {
            appears_at: 0.45,
            dropout: (0.0, 0.0),
            mcar: 0.12,
        },
        FeatureAvailability {
            appears_at: 0.0,
            dropout: (0.62, 0.7),
            mcar: 0.06,
        },
        FeatureAvailability::mcar(0.18),
        FeatureAvailability::mcar(0.15),
        FeatureAvailability::mcar(0.1),
        FeatureAvailability::mcar(0.08),
        FeatureAvailability::mcar(0.05),
        FeatureAvailability::mcar(0.05),
    ];
    v.push(e);
    v.push(pm25("Chengdu", MediumHigh, High, 146));
    v.push(pm25("Guangzhou", High, MediumLow, 147));
    v.push(pm25("Shanghai", MediumHigh, MediumLow, 148));
    v.push(pm25("Shenyang", MediumHigh, High, 149));

    let mut e = entry(
        "Power Consumption of Tetouan City",
        Power,
        52_417,
        7,
        52_417,
        7,
        vec![],
        reg(),
        DriftPattern::Gradual,
        High,
        MediumLow,
        Low,
        1.0,
        2_160,
        150,
    );
    e.selected = Some("POWER");
    v.push(e);

    v.push(entry(
        "Bike Sharing Demand",
        Commerce,
        10_886,
        7,
        10_886,
        7,
        vec![],
        reg(),
        DriftPattern::Recurrent { cycles: 2.0 },
        MediumHigh,
        MediumLow,
        Low,
        2.0,
        240,
        151,
    ));

    v.push(entry(
        "Allstate Claims Severity",
        Commerce,
        188_318,
        130,
        30_000,
        20,
        vec![8, 8, 8, 8, 8, 8, 8, 8, 8, 8],
        reg(),
        DriftPattern::Stationary,
        Low,
        Low,
        Low,
        0.0,
        800,
        152,
    ));

    v.push(entry(
        "Portugal Parliamentary Election",
        Social,
        21_843,
        28,
        21_843,
        28,
        vec![],
        reg(),
        ABRUPT3,
        MediumHigh,
        MediumHigh,
        Low,
        0.0,
        440,
        153,
    ));

    v.push(entry(
        "News Popularity",
        Social,
        93_239,
        11,
        40_000,
        11,
        vec![],
        reg(),
        DriftPattern::Gradual,
        MediumLow,
        MediumLow,
        Low,
        0.0,
        800,
        154,
    ));

    v.push(entry(
        "Taxi Trip Duration",
        Commerce,
        1_458_644,
        11,
        60_000,
        11,
        vec![],
        reg(),
        DriftPattern::Recurrent { cycles: 2.0 },
        MediumHigh,
        MediumLow,
        Low,
        2.0,
        1_200,
        155,
    ));

    debug_assert_eq!(v.len(), 55);
    v
}

/// The registry scaled by `factor` (rows and windows shrink together);
/// useful for tests and smoke runs.
pub fn registry_scaled(factor: f64) -> Vec<DatasetEntry> {
    registry()
        .into_iter()
        .map(|mut e| {
            e.spec = e.spec.scaled(factor);
            e
        })
        .collect()
}

/// Looks up a registry entry by exact name.
pub fn by_name(name: &str) -> Option<DatasetEntry> {
    registry().into_iter().find(|e| e.spec.name == name)
}

/// Looks up one of the five representative datasets by its short name
/// (ROOM, ELECTRICITY, INSECTS, AIR, POWER).
pub fn selected(short: &str) -> Option<DatasetEntry> {
    registry().into_iter().find(|e| e.selected == Some(short))
}

/// The five representative datasets in the paper's Table 3/4 order.
pub fn selected_five() -> Vec<DatasetEntry> {
    ["ROOM", "ELECTRICITY", "INSECTS", "AIR", "POWER"]
        .iter()
        .map(
            #[expect(
                clippy::expect_used,
                reason = "the registry is a compile-time constant holding all five names"
            )]
            |s| selected(s).expect("registry contains all five selected datasets"),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_55_datasets() {
        let r = registry();
        assert_eq!(r.len(), 55);
    }

    #[test]
    fn names_are_unique() {
        let r = registry();
        for i in 0..r.len() {
            for j in (i + 1)..r.len() {
                assert_ne!(r[i].spec.name, r[j].spec.name);
            }
        }
    }

    #[test]
    fn split_is_20_classification_35_regression() {
        let r = registry();
        let clf = r.iter().filter(|e| e.is_classification()).count();
        assert_eq!(clf, 20);
        assert_eq!(r.len() - clf, 35);
    }

    #[test]
    fn paper_size_histogram_matches_table2() {
        // Table 2 of the paper: 13 / 17 / 13 / 12 datasets per size bucket.
        let r = registry();
        let bucket = |n: usize| match n {
            5_000..=20_000 => 0,
            20_001..=50_000 => 1,
            50_001..=200_000 => 2,
            _ => 3,
        };
        let mut counts = [0usize; 4];
        for e in &r {
            counts[bucket(e.paper_rows)] += 1;
        }
        assert_eq!(counts, [13, 17, 13, 12]);
    }

    #[test]
    fn five_selected_match_table3() {
        let five = selected_five();
        assert_eq!(five[0].spec.name, "Room Occupancy Estimation");
        assert_eq!(five[1].spec.name, "Electricity Prices");
        assert_eq!(
            five[2].spec.name,
            "INSECTS-Incremental-reoccurring (balanced)"
        );
        assert_eq!(five[3].spec.name, "Beijing Multi-Site Air-Quality Shunyi");
        assert_eq!(five[4].spec.name, "Power Consumption of Tetouan City");
    }

    #[test]
    fn every_entry_has_sane_windowing() {
        for e in registry() {
            let windows = e.spec.n_rows / e.spec.default_window;
            assert!(
                (5..=120).contains(&windows),
                "{}: {} windows",
                e.spec.name,
                windows
            );
        }
    }

    #[test]
    fn availability_overrides_match_feature_count() {
        for e in registry() {
            if !e.spec.availability.is_empty() {
                assert_eq!(
                    e.spec.availability.len(),
                    e.spec.n_numeric,
                    "{}",
                    e.spec.name
                );
            }
        }
    }

    #[test]
    fn scaled_registry_shrinks() {
        let small = registry_scaled(0.05);
        for e in &small {
            assert!(e.spec.n_rows <= 3_100, "{} too big", e.spec.name);
        }
        assert_eq!(small.len(), 55);
    }

    #[test]
    fn lookups_work() {
        assert!(by_name("KDDCUP99").is_some());
        assert!(by_name("nope").is_none());
        assert!(selected("AIR").is_some());
        assert!(selected("NOPE").is_none());
    }
}
