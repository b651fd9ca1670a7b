//! Finiteness bitmask over a row-major numeric buffer.
//!
//! The imputers and window statistics repeatedly ask "which cells of this
//! window are observed?". Re-answering that with `is_finite()` per cell on
//! every pass re-reads 8 bytes per cell; a [`FiniteMask`] answers it from
//! one bit per cell, built in a single scan and then shared by every
//! subsequent pass (distance pruning, per-column donor scans, missing-rate
//! stats).
//!
//! A bit is **set** when the cell is finite, i.e. *observed*: NaN is the
//! missing sentinel throughout the pipeline, and infinities are treated as
//! unusable by the same `is_finite` predicate the imputers already apply.

/// One bit per cell of a row-major `rows x cols` buffer; set = finite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiniteMask {
    rows: usize,
    cols: usize,
    /// 64-bit words per row; rows are padded to a word boundary so each
    /// row's words can be borrowed as an independent slice.
    words_per_row: usize,
    bits: Vec<u64>,
}

impl FiniteMask {
    /// Builds the mask for a row-major buffer in one scan.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_row_major(data: &[f64], rows: usize, cols: usize) -> FiniteMask {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        let words_per_row = cols.div_ceil(64);
        let mut bits = vec![0u64; rows * words_per_row];
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let words = &mut bits[r * words_per_row..(r + 1) * words_per_row];
            for (c, x) in row.iter().enumerate() {
                if x.is_finite() {
                    words[c / 64] |= 1u64 << (c % 64);
                }
            }
        }
        FiniteMask {
            rows,
            cols,
            words_per_row,
            bits,
        }
    }

    /// Number of rows covered.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns covered.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when cell `(r, c)` holds a finite (observed) value.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows && c < self.cols);
        self.bits[r * self.words_per_row + c / 64] >> (c % 64) & 1 == 1
    }

    /// The bit words of row `r` (low bit of word 0 = column 0).
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        debug_assert!(r < self.rows);
        &self.bits[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Number of observed cells in row `r`.
    #[inline]
    pub fn row_count(&self, r: usize) -> usize {
        self.row_words(r)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of observed cells shared by rows `a` and `b`.
    #[inline]
    pub fn shared_count(&self, a: usize, b: usize) -> usize {
        self.row_words(a)
            .iter()
            .zip(self.row_words(b))
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// Columns of row `r` that are missing (bit clear), in ascending order.
    pub fn missing_in_row(&self, r: usize, out: &mut Vec<usize>) {
        out.clear();
        for c in 0..self.cols {
            if !self.get(r, c) {
                out.push(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_finite_cells() {
        let data = [1.0, f64::NAN, 3.0, f64::INFINITY, 5.0, 6.0];
        let m = FiniteMask::from_row_major(&data, 2, 3);
        assert!(m.get(0, 0));
        assert!(!m.get(0, 1)); // NaN is missing
        assert!(m.get(0, 2));
        assert!(!m.get(1, 0)); // inf counts as unobserved too
        assert_eq!(m.row_count(0), 2);
        assert_eq!(m.row_count(1), 2);
    }

    #[test]
    fn shared_count_intersects_rows() {
        let data = [1.0, f64::NAN, 3.0, 4.0, 5.0, f64::NAN];
        let m = FiniteMask::from_row_major(&data, 2, 3);
        // Row 0 observes {0, 2}, row 1 observes {0, 1}; intersection {0}.
        assert_eq!(m.shared_count(0, 1), 1);
    }

    #[test]
    fn missing_in_row_lists_clear_bits_ascending() {
        let data = [f64::NAN, 2.0, f64::NAN, 4.0];
        let m = FiniteMask::from_row_major(&data, 1, 4);
        let mut out = Vec::new();
        m.missing_in_row(0, &mut out);
        assert_eq!(out, vec![0, 2]);
    }

    #[test]
    fn wide_rows_span_multiple_words() {
        let cols = 130;
        let mut data = vec![1.0; cols];
        data[0] = f64::NAN;
        data[64] = f64::NAN;
        data[129] = f64::NAN;
        let m = FiniteMask::from_row_major(&data, 1, cols);
        assert_eq!(m.row_count(0), cols - 3);
        assert!(!m.get(0, 64));
        assert!(m.get(0, 65));
        assert_eq!(m.row_words(0).len(), 3);
    }

    #[test]
    fn empty_shapes_are_fine() {
        let m = FiniteMask::from_row_major(&[], 0, 5);
        assert_eq!(m.rows(), 0);
        let m = FiniteMask::from_row_major(&[], 3, 0);
        assert_eq!(m.row_count(2), 0);
    }
}
