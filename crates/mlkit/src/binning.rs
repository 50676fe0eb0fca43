//! Feature quantization for histogram-based tree training.
//!
//! Every feature column is quantized **once per ensemble fit** into at most
//! [`MAX_BINS`] equal-frequency bins (LightGBM's scheme). Tree growth then
//! works on the small `u8` bin codes instead of raw `f64` values, turning
//! per-node split search from a sort-and-scan over samples into a
//! fixed-size histogram accumulation.
//!
//! Two invariants are load-bearing for training correctness (and pinned by
//! the property suite in `crates/mlkit/tests/proptests.rs`):
//!
//! 1. **Bin edges are strictly increasing** per feature, and the last edge
//!    is the column maximum, so the edges cover the data range.
//! 2. **Bin order agrees with value order**: `bin(v) <= b` if and only if
//!    `v <= edges[b]`. A split "bin <= b" learned on codes is therefore
//!    *exactly* the raw-value split "v <= edges[b]" — trees trained on bins
//!    predict on raw rows with no translation error.

use crate::dataset::Matrix;

/// Hard upper limit on bins per feature (bin codes are stored as `u8`).
pub const MAX_BINS: usize = 256;

/// The bin budget per feature the GBRT histogram kernel fits with.
pub const DEFAULT_BINS: usize = 256;

/// A feature matrix quantized to per-feature equal-frequency bins, shared
/// by every tree of an ensemble.
#[derive(Debug, Clone)]
pub struct BinnedMatrix {
    /// `bins[row * cols + col]` = bin code of that cell.
    bins: Vec<u8>,
    /// Per feature: the upper edge of each bin, strictly increasing; the
    /// last edge is the column maximum. Splitting at bin `b` means the raw
    /// threshold `thresholds[feature][b]` with `<=` going left.
    pub thresholds: Vec<Vec<f64>>,
    rows: usize,
    cols: usize,
}

impl BinnedMatrix {
    /// Quantize with the [`DEFAULT_BINS`] budget.
    pub fn from_matrix(x: &Matrix) -> BinnedMatrix {
        Self::with_bins(x, DEFAULT_BINS)
    }

    /// Quantize a matrix into at most `budget` equal-frequency bins per
    /// feature (clamped to `2..=`[`MAX_BINS`]). Edges are quantiles of the
    /// *distinct* sorted values, so constant columns collapse to one bin
    /// and heavy ties never split a bin.
    pub fn with_bins(x: &Matrix, budget: usize) -> BinnedMatrix {
        let budget = budget.clamp(2, MAX_BINS);
        let rows = x.rows();
        let cols = x.cols();
        let mut bins = vec![0u8; rows * cols];
        let mut thresholds = Vec::with_capacity(cols);
        for j in 0..cols {
            let mut vals = x.column(j);
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            if vals.is_empty() {
                thresholds.push(Vec::new());
                continue;
            }
            let nb = budget.min(vals.len());
            let mut cuts = Vec::with_capacity(nb);
            for b in 1..=nb {
                // Upper edge of bin b-1: the (b/nb)-quantile of the distinct
                // values. `idx >= 1` because `nb <= vals.len()`, and `b = nb`
                // lands exactly on the maximum, so the edges cover the range.
                let idx = (b * vals.len()) / nb;
                cuts.push(vals[idx - 1]);
            }
            cuts.dedup_by(|a, b| a == b);
            for i in 0..rows {
                let v = x.row(i)[j];
                let bin = cuts
                    .partition_point(|&c| c < v)
                    .min(cuts.len().saturating_sub(1));
                bins[i * cols + j] = bin as u8;
            }
            thresholds.push(cuts);
        }
        BinnedMatrix {
            bins,
            thresholds,
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of feature columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of bins actually used by feature `col`.
    pub fn n_bins(&self, col: usize) -> usize {
        self.thresholds[col].len()
    }

    /// The bin code of one cell.
    #[inline]
    pub fn bin(&self, row: usize, col: usize) -> usize {
        self.bins[row * self.cols + col] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_strictly_increasing_and_cover_range() {
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|i| vec![(i % 97) as f64 * 0.31, ((i * 7) % 13) as f64])
            .collect();
        let x = Matrix::from_rows(&rows);
        let b = BinnedMatrix::with_bins(&x, 32);
        for j in 0..x.cols() {
            let edges = &b.thresholds[j];
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "monotone edges");
            let max = x.column(j).iter().cloned().fold(f64::MIN, f64::max);
            assert_eq!(*edges.last().unwrap(), max, "last edge is the max");
        }
    }

    #[test]
    fn bin_order_agrees_with_value_order() {
        // bin(v) <= b  <=>  v <= edges[b]: the invariant that lets trees
        // trained on bin codes predict on raw values.
        let rows: Vec<Vec<f64>> = (0..300).map(|i| vec![((i * 37) % 101) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let b = BinnedMatrix::with_bins(&x, 16);
        for i in 0..x.rows() {
            let v = x.row(i)[0];
            for (bb, &edge) in b.thresholds[0].iter().enumerate() {
                assert_eq!(b.bin(i, 0) <= bb, v <= edge, "v={v} bin_edge={edge}");
            }
        }
    }

    #[test]
    fn bin_budget_is_respected_and_clamped() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        assert_eq!(BinnedMatrix::with_bins(&x, 8).n_bins(0), 8);
        assert_eq!(BinnedMatrix::with_bins(&x, 100_000).n_bins(0), MAX_BINS);
        assert_eq!(BinnedMatrix::with_bins(&x, 0).n_bins(0), 2);
    }

    #[test]
    fn constant_column_collapses_to_one_bin() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let b = BinnedMatrix::from_matrix(&x);
        assert_eq!(b.n_bins(0), 1);
    }

    #[test]
    fn tolerates_nan_features() {
        // A NaN feature value (e.g. a 0/0 ratio upstream) must not panic
        // the sort; total_cmp orders NaN after all numbers.
        let x = Matrix::from_rows(&[
            vec![1.0, f64::NAN],
            vec![2.0, 0.5],
            vec![3.0, f64::NAN],
            vec![4.0, 0.25],
        ]);
        let b = BinnedMatrix::from_matrix(&x);
        assert_eq!(b.thresholds.len(), 2);
    }

    #[test]
    fn fewer_distinct_values_than_bins() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![(i % 3) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let b = BinnedMatrix::with_bins(&x, 64);
        assert_eq!(b.n_bins(0), 3);
        for i in 0..50 {
            assert_eq!(b.bin(i, 0), i % 3);
        }
    }
}
