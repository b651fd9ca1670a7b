//! End-to-end kernels: a full prequential run (the Table 4 unit of
//! work), statistics extraction (the Table 3 / Figure 2 unit), and the
//! selection-pipeline math (PCA + K-Means + t-SNE behind Figures 2/6).

use criterion::{criterion_group, criterion_main, Criterion};
use oeb_core::{extract_stats, run_stream, Algorithm, HarnessConfig};
use oeb_linalg::{kmeans, tsne, KMeansConfig, Matrix, Pca, TsneConfig};
use oeb_synth::{generate, registry_scaled};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(name: &str) -> oeb_tabular::StreamDataset {
    let entries = registry_scaled(0.02);
    let entry = entries.iter().find(|e| e.spec.name == name).unwrap();
    generate(&entry.spec, 0)
}

fn bench_prequential_run(c: &mut Criterion) {
    let d = dataset("Electricity Prices");
    let mut group = c.benchmark_group("prequential_run_2pct");
    group.sample_size(10);
    for alg in [Algorithm::NaiveDt, Algorithm::NaiveNn, Algorithm::SeaGbdt] {
        group.bench_function(alg.name(), |b| {
            b.iter(|| std::hint::black_box(run_stream(&d, alg, &HarnessConfig::default())))
        });
    }
    group.finish();
}

fn bench_stats_extraction(c: &mut Criterion) {
    let d = dataset("Electricity Prices");
    let mut group = c.benchmark_group("stats_extraction_2pct");
    group.sample_size(10);
    group.bench_function("electricity", |b| {
        b.iter(|| std::hint::black_box(extract_stats(&d)))
    });
    group.finish();
}

fn bench_selection_math(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| (0..15).map(|j| ((i * 7 + j * 11) % 53) as f64).collect())
        .collect();
    let m = Matrix::from_rows(&rows);
    c.bench_function("pca_200x15_to_3", |b| {
        b.iter(|| std::hint::black_box(Pca::fit(&m, 3).transform(&m)))
    });
    c.bench_function("kmeans_200x15_k5", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            std::hint::black_box(kmeans(
                &m,
                &KMeansConfig {
                    k: 5,
                    ..Default::default()
                },
                &mut rng,
            ))
        })
    });
    let small: Vec<Vec<f64>> = rows.iter().take(120).cloned().collect();
    let sm = Matrix::from_rows(&small);
    let mut group = c.benchmark_group("tsne");
    group.sample_size(10);
    group.bench_function("tsne_120x15", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            std::hint::black_box(tsne(
                &sm,
                &TsneConfig {
                    iterations: 100,
                    ..Default::default()
                },
                &mut rng,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Plot generation and long measurement windows dominate wall-clock
    // on small machines; the numeric report is what the repro records.
    config = Criterion::default()
        .without_plots()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_prequential_run,
    bench_stats_extraction,
    bench_selection_math
}
criterion_main!(benches);
