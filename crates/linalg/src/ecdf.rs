//! Fenwick-indexed sorted multisets over a fixed value universe — the
//! sufficient statistic behind the incremental (delta) statistics
//! pipeline.
//!
//! A window slide retracts the leaving rows and absorbs the entering
//! ones; every ECDF-shaped statistic (KS distance, equal-width
//! histograms, ECOD tail ranks, min/max ranges) is then *derived* from
//! the maintained counts instead of being recomputed from a fresh sort.
//! Inserts and removals cost `O(log u)` in the universe size `u` via a
//! Fenwick (binary-indexed) tree; rank queries (`count_le`/`count_lt`)
//! are `O(log u)`; full-support walks (KS, histogram rebuild) are one
//! linear pass over the count array.
//!
//! ## Exactness contract
//!
//! Derived statistics are **bit-identical** to their batch
//! counterparts:
//!
//! * [`ks_between`] reproduces [`crate::ks_statistic`] on the expanded
//!   samples bit for bit (same merge points, same division order, same
//!   `max` accumulation);
//! * [`EcdfMultiset::histogram`] reproduces [`Histogram::new`] on the
//!   expanded sample (identical binning arithmetic per distinct value);
//! * [`EcdfMultiset::to_sorted_vec`] equals the `sort_by(f64::total_cmp)`
//!   of the inserted values.
//!
//! The one normalisation: `-0.0` is canonicalised to `+0.0` on insert
//! ([`canonical`]). Every derived statistic above is invariant under
//! that folding — IEEE comparisons treat the two zeros as equal, the
//! histogram bin of `±0.0` is the same bin, and `x - (-0.0)` and
//! `x - 0.0` round identically — so the contract still holds against
//! batch code that saw the uncanonicalised data (the tests pin this).
//! Non-finite values are rejected by [`EcdfMultiset::insert`]/
//! [`EcdfMultiset::remove`] (returning `false`), mirroring the
//! `is_finite` filters of the batch detectors.

use crate::stats::Histogram;
use std::sync::Arc;

/// Folds `-0.0` into `+0.0` and leaves every other value untouched
/// (round-to-nearest: `-0.0 + 0.0 == +0.0`, `x + 0.0 == x` otherwise).
#[inline]
pub fn canonical(x: f64) -> f64 {
    x + 0.0
}

/// The sorted, deduplicated set of values a stream's column can take:
/// the coordinate-compression domain shared by every multiset over that
/// column.
#[derive(Debug, Clone, PartialEq)]
pub struct EcdfUniverse {
    /// Ascending under `total_cmp`; finite; `-0.0`-free.
    values: Vec<f64>,
}

impl EcdfUniverse {
    /// Builds the universe of the finite values in `xs` (canonicalised,
    /// sorted, deduplicated).
    pub fn from_values<I: IntoIterator<Item = f64>>(xs: I) -> EcdfUniverse {
        let mut values: Vec<f64> = xs
            .into_iter()
            .filter(|x| x.is_finite())
            .map(canonical)
            .collect();
        values.sort_by(f64::total_cmp);
        values.dedup_by(|a, b| a.total_cmp(b).is_eq());
        EcdfUniverse { values }
    }

    /// Number of distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the universe holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The distinct value at `rank`.
    #[inline]
    pub fn value_at(&self, rank: usize) -> f64 {
        self.values[rank]
    }

    /// Rank of `x` (already canonical), or `None` when `x` is not in the
    /// universe.
    #[inline]
    fn rank_of(&self, x: f64) -> Option<usize> {
        let i = self.values.partition_point(|v| v.total_cmp(&x).is_lt());
        (i < self.values.len() && self.values[i].total_cmp(&x).is_eq()).then_some(i)
    }

    /// Number of universe values `<= x` (for arbitrary finite `x`).
    #[inline]
    fn ranks_le(&self, x: f64) -> usize {
        self.values.partition_point(|v| v.total_cmp(&x).is_le())
    }

    /// Number of universe values `< x`.
    #[inline]
    fn ranks_lt(&self, x: f64) -> usize {
        self.values.partition_point(|v| v.total_cmp(&x).is_lt())
    }
}

/// A multiset of finite `f64` values drawn from a shared
/// [`EcdfUniverse`], with `O(log u)` insert/remove and rank queries.
///
/// Holds a direct per-rank count array (for linear support walks) plus
/// a Fenwick tree over it (for logarithmic prefix counts).
#[derive(Debug, Clone)]
pub struct EcdfMultiset {
    universe: Arc<EcdfUniverse>,
    /// Multiplicity per universe rank.
    counts: Vec<u32>,
    /// Fenwick tree over `counts` (1-based internally).
    fenwick: Vec<u64>,
    len: usize,
}

impl EcdfMultiset {
    /// An empty multiset over `universe`.
    pub fn new(universe: Arc<EcdfUniverse>) -> EcdfMultiset {
        let u = universe.len();
        EcdfMultiset {
            universe,
            counts: vec![0; u],
            fenwick: vec![0; u + 1],
            len: 0,
        }
    }

    /// The shared universe.
    #[inline]
    pub fn universe(&self) -> &Arc<EcdfUniverse> {
        &self.universe
    }

    /// Number of values held (with multiplicity).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn fenwick_add(&mut self, rank: usize, delta: i64) {
        let mut i = rank + 1;
        while i < self.fenwick.len() {
            self.fenwick[i] = self.fenwick[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Count of values in ranks `0..rank` — `O(log u)`.
    fn fenwick_prefix(&self, rank: usize) -> usize {
        let mut i = rank;
        let mut total = 0u64;
        while i > 0 {
            total = total.wrapping_add(self.fenwick[i]);
            i -= i & i.wrapping_neg();
        }
        total as usize
    }

    /// Inserts one occurrence of `x`; returns `false` (no-op) for
    /// non-finite `x`.
    ///
    /// # Panics
    /// Panics when finite `x` is not in the universe — the universe must
    /// be built over every value the stream can present.
    pub fn insert(&mut self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "documented contract: universe covers the stream"
        )]
        let rank = self
            .universe
            .rank_of(canonical(x))
            .expect("value outside the multiset universe");
        self.counts[rank] += 1;
        self.fenwick_add(rank, 1);
        self.len += 1;
        true
    }

    /// Removes one occurrence of `x`; returns `false` (no-op) for
    /// non-finite `x`.
    ///
    /// # Panics
    /// Panics when finite `x` is not currently held (exact retraction:
    /// only previously absorbed values may leave).
    pub fn remove(&mut self, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "documented contract: universe covers the stream"
        )]
        let rank = self
            .universe
            .rank_of(canonical(x))
            .expect("value outside the multiset universe");
        assert!(self.counts[rank] > 0, "retracting a value never absorbed");
        self.counts[rank] -= 1;
        self.fenwick_add(rank, -1);
        self.len -= 1;
        true
    }

    /// Number of held values `<= x` — `O(log u)`.
    pub fn count_le(&self, x: f64) -> usize {
        self.fenwick_prefix(self.universe.ranks_le(canonical(x)))
    }

    /// Number of held values `< x` — `O(log u)`.
    pub fn count_lt(&self, x: f64) -> usize {
        self.fenwick_prefix(self.universe.ranks_lt(canonical(x)))
    }

    /// Smallest held value, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.iter_nonzero().next().map(|(v, _)| v)
    }

    /// Largest held value, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|r| self.universe.value_at(r))
    }

    /// Ascending `(value, multiplicity)` pairs over the support.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(r, &c)| (self.universe.value_at(r), c))
    }

    /// Expands the multiset into the ascending sorted sample — equal to
    /// sorting the inserted values with `f64::total_cmp` (after `-0.0`
    /// canonicalisation).
    pub fn to_sorted_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for (v, c) in self.iter_nonzero() {
            out.extend(std::iter::repeat_n(v, c as usize));
        }
        out
    }

    /// Equal-width histogram of the held values — bit-identical to
    /// `Histogram::new(&self.to_sorted_vec(), bins, lo, hi)` (one bin
    /// computation per distinct value instead of per sample).
    pub fn histogram(&self, bins: usize, lo: f64, hi: f64) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        let mut counts = vec![0usize; bins];
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mut total = 0usize;
        for (x, c) in self.iter_nonzero() {
            // Identical arithmetic to `Histogram::new`, applied once per
            // distinct value.
            let frac = ((x - lo) / span).clamp(0.0, 1.0);
            let mut b = (frac * bins as f64) as usize;
            if b >= bins {
                b = bins - 1;
            }
            counts[b] += c as usize;
            total += c as usize;
        }
        Histogram {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Adds every occurrence held by `other` (same universe) into this
    /// one — the HDDDM "append window to baseline" step, costing
    /// `O(support · log u)` instead of a full matrix rebuild.
    pub fn absorb_all(&mut self, other: &EcdfMultiset) {
        debug_assert!(Arc::ptr_eq(&self.universe, &other.universe));
        for rank in 0..other.counts.len() {
            let c = other.counts[rank];
            if c > 0 {
                self.counts[rank] += c;
                self.fenwick_add(rank, c as i64);
                self.len += c as usize;
            }
        }
    }

    /// Copies another multiset's contents (same universe) into this one
    /// — the "reference := current window" reset of the drift detectors.
    pub fn clone_from_set(&mut self, other: &EcdfMultiset) {
        debug_assert!(Arc::ptr_eq(&self.universe, &other.universe));
        self.counts.copy_from_slice(&other.counts);
        self.fenwick.copy_from_slice(&other.fenwick);
        self.len = other.len;
    }

    /// Empties the multiset.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.fenwick.fill(0);
        self.len = 0;
    }
}

/// Two-sample KS statistic between multisets over the same universe —
/// bit-identical to [`crate::ks_statistic`] on the expanded samples.
///
/// One linear walk over the shared support: at each distinct value
/// present in either sample the cumulative counts divide by the sample
/// sizes exactly as the batch merge does (`count_le / n`), and the
/// running `max` visits the same candidates in the same ascending
/// order. (The batch merge stops once one side is exhausted; the points
/// it skips cannot raise the supremum, so walking them is harmless.)
pub fn ks_between(a: &EcdfMultiset, b: &EcdfMultiset) -> f64 {
    debug_assert!(Arc::ptr_eq(&a.universe, &b.universe));
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0u64, 0u64);
    let mut d: f64 = 0.0;
    for r in 0..a.counts.len() {
        let (ca, cb) = (a.counts[r], b.counts[r]);
        if ca == 0 && cb == 0 {
            continue;
        }
        i += ca as u64;
        j += cb as u64;
        let fa = i as f64 / na;
        let fb = j as f64 / nb;
        d = d.max((fa - fb).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ks_statistic, Histogram};

    /// Deterministic LCG stream in [-1, 1] with a sprinkle of repeats,
    /// zeros of both signs, and non-finite values.
    fn messy_values(n: usize, seed: &mut u64) -> Vec<f64> {
        (0..n)
            .map(|k| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match *seed % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    4 => (k % 5) as f64, // forced repeats
                    _ => ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
                }
            })
            .collect()
    }

    fn multiset_of(universe: &Arc<EcdfUniverse>, xs: &[f64]) -> EcdfMultiset {
        let mut ms = EcdfMultiset::new(Arc::clone(universe));
        for &x in xs {
            ms.insert(x);
        }
        ms
    }

    #[test]
    fn sorted_expansion_matches_total_cmp_sort() {
        let mut seed = 7u64;
        let xs = messy_values(500, &mut seed);
        let universe = Arc::new(EcdfUniverse::from_values(xs.iter().copied()));
        let ms = multiset_of(&universe, &xs);
        let mut expect: Vec<f64> = xs
            .iter()
            .copied()
            .filter(|x| x.is_finite())
            .map(canonical)
            .collect();
        expect.sort_by(f64::total_cmp);
        let got = ms.to_sorted_vec();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn rank_queries_match_partition_point() {
        let mut seed = 11u64;
        let xs = messy_values(300, &mut seed);
        let universe = Arc::new(EcdfUniverse::from_values(xs.iter().copied()));
        let ms = multiset_of(&universe, &xs);
        let sorted = ms.to_sorted_vec();
        for &q in &[-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0] {
            assert_eq!(ms.count_le(q), sorted.partition_point(|&v| v <= q), "{q}");
            assert_eq!(ms.count_lt(q), sorted.partition_point(|&v| v < q), "{q}");
        }
    }

    #[test]
    fn ks_between_matches_batch_statistic_bitwise() {
        let mut seed = 3u64;
        for trial in 0..20 {
            let xs = messy_values(200 + trial * 17, &mut seed);
            let ys = messy_values(150 + trial * 11, &mut seed);
            let universe = Arc::new(EcdfUniverse::from_values(
                xs.iter().chain(ys.iter()).copied(),
            ));
            let (a, b) = (multiset_of(&universe, &xs), multiset_of(&universe, &ys));
            // The batch side sees the raw (uncanonicalised) samples, as
            // the detectors do.
            let clean =
                |v: &[f64]| -> Vec<f64> { v.iter().copied().filter(|x| x.is_finite()).collect() };
            let expect = ks_statistic(&clean(&xs), &clean(&ys));
            assert_eq!(ks_between(&a, &b).to_bits(), expect.to_bits(), "t{trial}");
        }
    }

    #[test]
    fn ks_between_empty_sides_are_zero() {
        let universe = Arc::new(EcdfUniverse::from_values([1.0, 2.0]));
        let empty = EcdfMultiset::new(Arc::clone(&universe));
        let full = multiset_of(&universe, &[1.0, 2.0]);
        assert_eq!(ks_between(&empty, &full), 0.0);
        assert_eq!(ks_between(&full, &empty), 0.0);
    }

    #[test]
    fn histogram_matches_batch_bitwise() {
        let mut seed = 5u64;
        let xs = messy_values(400, &mut seed);
        let universe = Arc::new(EcdfUniverse::from_values(xs.iter().copied()));
        let ms = multiset_of(&universe, &xs);
        for &(lo, hi) in &[(-1.0, 1.0), (-0.0, 0.5), (0.0, 0.0), (-2.0, 3.0)] {
            let got = ms.histogram(16, lo, hi);
            let expect = Histogram::new(&xs, 16, lo, hi);
            assert_eq!(got.counts, expect.counts, "lo={lo} hi={hi}");
            assert_eq!(got.total, expect.total);
        }
    }

    #[test]
    fn retraction_restores_counts_exactly() {
        let mut seed = 9u64;
        let xs = messy_values(100, &mut seed);
        let extra = messy_values(40, &mut seed);
        let universe = Arc::new(EcdfUniverse::from_values(
            xs.iter().chain(extra.iter()).copied(),
        ));
        let base = multiset_of(&universe, &xs);
        let mut ms = base.clone();
        for &x in &extra {
            ms.insert(x);
        }
        for &x in &extra {
            ms.remove(x);
        }
        assert_eq!(ms.len(), base.len());
        assert_eq!(ms.counts, base.counts);
        assert_eq!(ms.fenwick, base.fenwick);
    }

    #[test]
    fn min_max_and_clone_from_set() {
        let universe = Arc::new(EcdfUniverse::from_values([3.0, -1.0, 2.0, -1.0]));
        let ms = multiset_of(&universe, &[2.0, -1.0]);
        assert_eq!(ms.min(), Some(-1.0));
        assert_eq!(ms.max(), Some(2.0));
        let mut other = EcdfMultiset::new(Arc::clone(&universe));
        other.clone_from_set(&ms);
        assert_eq!(other.to_sorted_vec(), ms.to_sorted_vec());
        other.clear();
        assert!(other.is_empty());
        assert_eq!(other.min(), None);
    }

    #[test]
    fn absorb_all_merges_multisets() {
        let mut seed = 21u64;
        let xs = messy_values(120, &mut seed);
        let ys = messy_values(80, &mut seed);
        let universe = Arc::new(EcdfUniverse::from_values(
            xs.iter().chain(ys.iter()).copied(),
        ));
        let mut merged = multiset_of(&universe, &xs);
        merged.absorb_all(&multiset_of(&universe, &ys));
        let both: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        let expect = multiset_of(&universe, &both);
        assert_eq!(merged.len(), expect.len());
        assert_eq!(merged.counts, expect.counts);
        assert_eq!(merged.fenwick, expect.fenwick);
    }

    #[test]
    fn non_finite_values_are_rejected_not_stored() {
        let universe = Arc::new(EcdfUniverse::from_values([1.0, f64::NAN, f64::INFINITY]));
        assert_eq!(universe.len(), 1);
        let mut ms = EcdfMultiset::new(Arc::clone(&universe));
        assert!(!ms.insert(f64::NAN));
        assert!(!ms.remove(f64::NEG_INFINITY));
        assert!(ms.insert(1.0));
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn negative_zero_folds_into_positive_zero() {
        let universe = Arc::new(EcdfUniverse::from_values([-0.0, 0.0, 1.0]));
        assert_eq!(universe.len(), 2);
        let mut ms = EcdfMultiset::new(Arc::clone(&universe));
        ms.insert(-0.0);
        ms.insert(0.0);
        assert_eq!(ms.count_le(-0.0), 2);
        assert_eq!(ms.count_lt(0.0), 0);
        ms.remove(-0.0);
        ms.remove(0.0);
        assert!(ms.is_empty());
    }
}
