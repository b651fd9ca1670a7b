//! K-Means clustering with K-Means++ initialisation.
//!
//! Used by the representative-dataset selection step (§4.4 of the paper):
//! the 55 datasets are clustered into five groups in the reduced
//! open-environment feature space and the dataset nearest each centroid is
//! selected.

use crate::kernels;
use crate::matrix::{sq_dist, Matrix};
use rand::Rng;

/// Result of a K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centroids, one per row (k x d).
    pub centroids: Matrix,
    /// Cluster index assigned to each input row.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of samples to their assigned centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations performed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Index of the input row nearest to each centroid (the "representative"
    /// per cluster). Empty clusters yield `None`.
    pub fn representatives(&self, data: &Matrix) -> Vec<Option<usize>> {
        let k = self.centroids.rows();
        let mut best: Vec<Option<(usize, f64)>> = vec![None; k];
        for r in 0..data.rows() {
            let c = self.assignments[r];
            let d = sq_dist(data.row(r), self.centroids.row(c));
            match best[c] {
                Some((_, bd)) if bd <= d => {}
                _ => best[c] = Some((r, d)),
            }
        }
        best.into_iter().map(|b| b.map(|(r, _)| r)).collect()
    }
}

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iter: usize,
    /// Convergence tolerance on total centroid movement.
    pub tol: f64,
    /// Number of random restarts; the best inertia wins.
    pub n_init: usize,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 5,
            max_iter: 300,
            tol: 1e-8,
            n_init: 5,
        }
    }
}

/// Runs K-Means with K-Means++ seeding.
///
/// # Panics
/// Panics when `data` has fewer rows than `config.k` or `k == 0`.
#[expect(clippy::expect_used, reason = "n_init.max(1) guarantees one iteration")]
pub fn kmeans<R: Rng>(data: &Matrix, config: &KMeansConfig, rng: &mut R) -> KMeansResult {
    assert!(config.k > 0, "k must be positive");
    assert!(
        data.rows() >= config.k,
        "k-means needs at least k={} rows, got {}",
        config.k,
        data.rows()
    );
    let mut best: Option<KMeansResult> = None;
    for _ in 0..config.n_init.max(1) {
        let result = kmeans_once(data, config, rng);
        match &best {
            Some(b) if b.inertia <= result.inertia => {}
            _ => best = Some(result),
        }
    }
    best.expect("at least one k-means restart runs")
}

fn kmeans_once<R: Rng>(data: &Matrix, config: &KMeansConfig, rng: &mut R) -> KMeansResult {
    let (n, d) = data.shape();
    let k = config.k;
    let mut centroids = plus_plus_init(data, k, rng);
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    // Accumulators reused across Lloyd iterations instead of reallocated.
    let mut sums = Matrix::zeros(k, d);
    let mut counts = vec![0usize; k];

    for it in 0..config.max_iter {
        iterations = it + 1;
        // Assignment step.
        for r in 0..n {
            let row = data.row(r);
            let mut best_c = 0;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let dist = sq_dist(row, centroids.row(c));
                if dist < best_d {
                    best_d = dist;
                    best_c = c;
                }
            }
            assignments[r] = best_c;
        }
        // Update step.
        sums.as_mut_slice().fill(0.0);
        counts.fill(0);
        for r in 0..n {
            let c = assignments[r];
            counts[c] += 1;
            kernels::add_assign(sums.row_mut(c), data.row(r));
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at a random data point.
                let r = rng.gen_range(0..n);
                movement += sq_dist(centroids.row(c), data.row(r));
                centroids.row_mut(c).copy_from_slice(data.row(r));
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            // Fused mean/movement/write-back: one pass, no temporary row.
            // `delta` starts at -0.0 and accumulates squared diffs in
            // column order — the same chain as `sq_dist(old, new)`.
            let mut delta = -0.0;
            for (cur, &s) in centroids.row_mut(c).iter_mut().zip(sums.row(c)) {
                let newv = s * inv;
                let diff = *cur - newv;
                delta += diff * diff;
                *cur = newv;
            }
            movement += delta;
        }
        if movement < config.tol {
            break;
        }
    }

    let inertia = (0..n)
        .map(|r| sq_dist(data.row(r), centroids.row(assignments[r])))
        .sum();
    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// K-Means++ initialisation: each subsequent centre is sampled with
/// probability proportional to its squared distance from the nearest chosen
/// centre.
fn plus_plus_init<R: Rng>(data: &Matrix, k: usize, rng: &mut R) -> Matrix {
    let n = data.rows();
    let mut centroids = Matrix::zeros(k, data.cols());
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut dists: Vec<f64> = (0..n)
        .map(|r| sq_dist(data.row(r), centroids.row(0)))
        .collect();

    for c in 1..k {
        let total: f64 = dists.iter().sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target <= d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
        for r in 0..n {
            let d = sq_dist(data.row(r), centroids.row(c));
            if d < dists[r] {
                dists[r] = d;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_blobs() -> Matrix {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)] {
            for i in 0..30 {
                let jx = (i % 5) as f64 * 0.1;
                let jy = (i % 7) as f64 * 0.1;
                rows.push(vec![cx + jx, cy + jy]);
            }
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = three_blobs();
        let mut rng = StdRng::seed_from_u64(42);
        let res = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        // All members of each blob share a cluster label.
        for blob in 0..3 {
            let first = res.assignments[blob * 30];
            for i in 0..30 {
                assert_eq!(res.assignments[blob * 30 + i], first);
            }
        }
        // Inertia for well-separated tight blobs is small.
        assert!(res.inertia < 50.0, "inertia = {}", res.inertia);
    }

    #[test]
    fn representatives_belong_to_their_cluster() {
        let data = three_blobs();
        let mut rng = StdRng::seed_from_u64(7);
        let res = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        let reps = res.representatives(&data);
        for (c, rep) in reps.iter().enumerate() {
            let r = rep.expect("non-empty cluster");
            assert_eq!(res.assignments[r], c);
        }
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = Matrix::from_rows(&[vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]]);
        let mut rng = StdRng::seed_from_u64(1);
        let res = kmeans(
            &data,
            &KMeansConfig {
                k: 3,
                n_init: 10,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(res.inertia < 1e-9);
    }

    #[test]
    #[should_panic(expected = "k-means needs at least")]
    fn too_few_rows_panics() {
        let data = Matrix::from_rows(&[vec![0.0]]);
        let mut rng = StdRng::seed_from_u64(1);
        let _ = kmeans(
            &data,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = three_blobs();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            kmeans(
                &data,
                &KMeansConfig {
                    k: 3,
                    ..Default::default()
                },
                &mut rng,
            )
            .assignments
        };
        assert_eq!(run(99), run(99));
    }
}
