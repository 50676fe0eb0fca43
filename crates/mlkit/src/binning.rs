//! Feature quantization for histogram-based tree training.
//!
//! Every feature column is quantized **once per ensemble fit** into at most
//! [`MAX_BINS`] equal-frequency bins (LightGBM's scheme). Tree growth then
//! works on the small `u8` bin codes instead of raw `f64` values, turning
//! per-node split search from a sort-and-scan over samples into a
//! histogram accumulation with one slot per bin of each feature.
//!
//! Two invariants are load-bearing for training correctness (and pinned by
//! the property suite in `crates/mlkit/tests/proptests.rs`):
//!
//! 1. **Bin edges are strictly increasing** per feature, and the last
//!    numeric edge is the column maximum, so the edges cover the data
//!    range. A column with NaNs (of either sign) has one more bin after
//!    every number, holding all of them, with edge `NaN`.
//! 2. **Bin order agrees with value order**: for every bin `b` but the last,
//!    `bin(v) <= b` if and only if `v <= edges[b]`, NaN included (it sits
//!    in the last bin, and `NaN <= e` is false). The split search never
//!    cuts at the last bin, so a split "bin <= b" learned on codes is
//!    *exactly* the raw-value split "v <= edges[b]" — trees trained on
//!    bins predict on raw rows with no translation error, and send NaN
//!    right.

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
    /// Per feature: the upper edge of each bin, strictly increasing up to
    /// the column maximum, then `NaN` if the column has NaNs. Splitting at
    /// bin `b` means the raw threshold `thresholds[feature][b]` with `<=`
    /// going left.
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
    /// and heavy ties never split a bin. A column's NaNs, of either sign,
    /// share one extra last bin (edge `NaN`) after every number, and its
    /// numbers get one bin fewer of the budget.
    ///
    /// Each column's numbers are sorted once, as (value, row) pairs, and
    /// get their codes from one walk of the sorted pairs against the
    /// edges, so no cell needs a binary search.
    pub fn with_bins(x: &Matrix, budget: usize) -> BinnedMatrix {
        let budget = budget.clamp(2, MAX_BINS);
        let rows = x.rows();
        let cols = x.cols();
        let mut bins = vec![0u8; rows * cols];
        let mut thresholds = Vec::with_capacity(cols);
        // Reused by every column: its numbers with their rows in value
        // order, and its distinct numbers.
        let mut sorted: Vec<(f64, usize)> = Vec::with_capacity(rows);
        let mut distinct: Vec<f64> = Vec::with_capacity(rows);
        for j in 0..cols {
            sorted.clear();
            sorted.extend(
                (0..rows)
                    .map(|i| (x.row(i)[j], i))
                    .filter(|(v, _)| !v.is_nan()),
            );
            let has_nan = sorted.len() < rows;
            // `total_cmp` puts -0.0 first of the zeros, and the dedup keeps
            // the first of a run of equal values, so a column with both
            // zeros has the edge -0.0.
            sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            distinct.clear();
            for &(v, _) in &sorted {
                if distinct.last() != Some(&v) {
                    distinct.push(v);
                }
            }
            let nb = (budget - usize::from(has_nan)).min(distinct.len());
            let mut cuts = Vec::with_capacity(nb + usize::from(has_nan));
            // Upper edge of bin b-1: the (b/nb)-quantile of the distinct
            // values. `idx >= 1` because `nb <= distinct.len()`, the
            // indices strictly increase, and `b = nb` lands exactly on the
            // maximum, so the edges strictly increase and cover the range.
            for b in 1..=nb {
                cuts.push(distinct[(b * distinct.len()) / nb - 1]);
            }
            // A number's bin is the count of edges below it. The numbers
            // come in value order, so that count only grows, and it stops
            // at the last edge, the maximum.
            let mut code = 0;
            for &(v, i) in &sorted {
                while cuts[code] < v {
                    code += 1;
                }
                bins[i * cols + j] = code as u8;
            }
            if has_nan {
                let nan_bin = cuts.len() as u8;
                for i in (0..rows).filter(|&i| x.row(i)[j].is_nan()) {
                    bins[i * cols + j] = nan_bin;
                }
                cuts.push(f64::NAN);
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

    /// The bin codes of one row.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[u8] {
        &self.bins[row * self.cols..(row + 1) * self.cols]
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
    use proptest::prelude::*;

    /// The binning [`BinnedMatrix::with_bins`] replaced: a sort, a dedup
    /// and a binary search per cell. Kept as the reference it must match
    /// cell for cell and edge for edge.
    fn with_bins_per_cell(x: &Matrix, budget: usize) -> BinnedMatrix {
        let budget = budget.clamp(2, MAX_BINS);
        let rows = x.rows();
        let cols = x.cols();
        let mut bins = vec![0u8; rows * cols];
        let mut thresholds = Vec::with_capacity(cols);
        for j in 0..cols {
            let mut vals = x.column(j);
            let has_nan = vals.iter().any(|v| v.is_nan());
            vals.retain(|v| !v.is_nan());
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            let mut cuts = Vec::new();
            if !vals.is_empty() {
                let nb = (budget - usize::from(has_nan)).min(vals.len());
                cuts.reserve(nb + 1);
                for b in 1..=nb {
                    // Upper edge of bin b-1: the (b/nb)-quantile of the
                    // distinct values. `idx >= 1` because `nb <= vals.len()`,
                    // and `b = nb` lands exactly on the maximum, so the edges
                    // cover the range.
                    let idx = (b * vals.len()) / nb;
                    cuts.push(vals[idx - 1]);
                }
                cuts.dedup_by(|a, b| a == b);
            }
            let nan_bin = cuts.len();
            if has_nan {
                cuts.push(f64::NAN);
            }
            for i in 0..rows {
                let v = x.row(i)[j];
                let bin = if v.is_nan() {
                    nan_bin
                } else {
                    cuts[..nan_bin]
                        .partition_point(|&c| c < v)
                        .min(nan_bin.saturating_sub(1))
                };
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

    /// Column values that stress binning: NaN of both signs, signed zeros,
    /// infinities, a few small integers (heavy ties) and a wide spread of
    /// distinct values, more of them than any bin budget.
    fn stress_value(code: u32, spread: u32) -> f64 {
        match code % 16 {
            0 => f64::NAN,
            1 => f64::from_bits(0xfff8_0000_0000_0000),
            2 => -0.0,
            3 => 0.0,
            4 => f64::INFINITY,
            5 => f64::NEG_INFINITY,
            6..=9 => (code % 5) as f64,
            _ => (spread as f64 - 5e4) * 0.37,
        }
    }

    fn assert_same_binning(x: &Matrix, budget: usize) {
        let got = BinnedMatrix::with_bins(x, budget);
        let want = with_bins_per_cell(x, budget);
        assert_eq!(got.bins, want.bins, "bin codes, budget {budget}");
        let bits = |t: &[Vec<f64>]| -> Vec<Vec<u64>> {
            t.iter()
                .map(|c| c.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(&got.thresholds),
            bits(&want.thresholds),
            "edges, budget {budget}"
        );
    }

    proptest! {
        #[test]
        fn one_sort_binning_matches_per_cell_binning(
            cells in prop::collection::vec((0u32..64, 0u32..100_000), 1..400),
            cols in 1usize..6,
            budget in 0usize..300,
            tie_col in any::<bool>(),
        ) {
            let rows = cells.len().div_ceil(cols);
            let mut flat: Vec<f64> = (0..rows * cols)
                .map(|k| {
                    let (code, spread) = cells[k % cells.len()];
                    stress_value(code, spread)
                })
                .collect();
            // Column 0 is sometimes all ties: constant, or all NaN.
            if tie_col {
                let fill = if rows % 2 == 0 { f64::NAN } else { 2.5 };
                for i in 0..rows {
                    flat[i * cols] = fill;
                }
            }
            let x = Matrix::from_flat(cols, flat);
            assert_same_binning(&x, budget);
        }
    }

    #[test]
    fn one_sort_binning_matches_on_named_columns() {
        let neg_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let columns: [Vec<f64>; 7] = [
            vec![5.0; 40],
            vec![f64::NAN; 40],
            (0..40)
                .map(|i| if i % 2 == 0 { f64::NAN } else { neg_nan })
                .collect(),
            (0..40)
                .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
                .collect(),
            (0..40).map(|i| [0.0, -0.0, 1.0, neg_nan][i % 4]).collect(),
            (0..40).map(|i| (i % 2) as f64).collect(),
            (0..40).map(|i| (i * 7919 % 40) as f64 - 20.0).collect(),
        ];
        let cols = columns.len();
        let flat: Vec<f64> = (0..40)
            .flat_map(|i| columns.iter().map(move |c| c[i]))
            .collect();
        let x = Matrix::from_flat(cols, flat);
        for budget in [0, 2, 3, 7, 39, 40, 41, 256] {
            assert_same_binning(&x, budget);
        }
    }

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
        // the sort. NaNs of either sign share one last bin after every
        // number; `0.0 / 0.0` is the negative one on x86.
        let neg_nan = f64::from_bits(0xfff8_0000_0000_0000);
        assert!(neg_nan.is_nan() && neg_nan.is_sign_negative());
        let x = Matrix::from_rows(&[
            vec![1.0, f64::NAN, f64::NAN],
            vec![2.0, 0.5, neg_nan],
            vec![3.0, neg_nan, f64::NAN],
            vec![4.0, 0.25, neg_nan],
        ]);
        let b = BinnedMatrix::from_matrix(&x);
        assert_eq!(b.thresholds.len(), 3);
        assert_eq!(b.thresholds[0], vec![1.0, 2.0, 3.0, 4.0], "NaN-free column");
        let edges = &b.thresholds[1];
        assert_eq!(&edges[..2], &[0.25, 0.5]);
        assert!(edges.len() == 3 && edges[2].is_nan(), "{edges:?}");
        let codes: Vec<usize> = (0..4).map(|i| b.bin(i, 1)).collect();
        assert_eq!(codes, vec![2, 1, 2, 0]);
        // Order agreement holds at every bin a split may cut at.
        for i in 0..4 {
            let v = x.row(i)[1];
            for (c, &e) in edges[..2].iter().enumerate() {
                assert_eq!(b.bin(i, 1) <= c, v <= e, "v={v} edge={e}");
            }
        }
        // An all-NaN column is one bin: it can never split.
        assert_eq!(b.n_bins(2), 1);
        assert!((0..4).all(|i| b.bin(i, 2) == 0));
    }

    #[test]
    fn nan_bin_takes_one_slot_of_the_budget() {
        let mut rows: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64]).collect();
        rows.push(vec![f64::NAN]);
        let x = Matrix::from_rows(&rows);
        let b = BinnedMatrix::from_matrix(&x);
        assert_eq!(b.n_bins(0), MAX_BINS);
        assert_eq!(b.bin(300, 0), MAX_BINS - 1, "NaN gets the last code");
        assert_eq!(b.thresholds[0][MAX_BINS - 2], 299.0);
        assert!((0..300).all(|i| b.bin(i, 0) < MAX_BINS - 1));
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
