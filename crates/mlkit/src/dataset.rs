//! Row-major feature matrices and labelled datasets.

/// A dense row-major matrix of `f64` features.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// An empty matrix with `cols` columns.
    pub fn with_cols(cols: usize) -> Self {
        Matrix {
            data: Vec::new(),
            rows: 0,
            cols,
        }
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let cols = rows.first().map(|r| r.len()).unwrap_or(0);
        let mut m = Matrix::with_cols(cols);
        for r in rows {
            m.push_row(r);
        }
        m
    }

    /// Build from an already-flat row-major buffer — the zero-copy entry
    /// point for producers that fill a matrix row by row elsewhere (the
    /// SoA feature extractor hands its buffer over through this).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `cols` (a matrix with
    /// zero columns must be empty).
    pub fn from_flat(cols: usize, data: Vec<f64>) -> Self {
        let rows = if cols == 0 {
            assert!(data.is_empty(), "zero-column matrix must have no data");
            0
        } else {
            assert_eq!(data.len() % cols, 0, "flat buffer length mismatch");
            data.len() / cols
        };
        Matrix { data, rows, cols }
    }

    /// The underlying row-major buffer.
    pub fn flat(&self) -> &[f64] {
        &self.data
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the column count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Append one zero-filled row and return it for in-place filling —
    /// lets extractors write features straight into the matrix without a
    /// staging buffer.
    pub fn alloc_row(&mut self) -> &mut [f64] {
        self.data.resize(self.data.len() + self.cols, 0.0);
        self.rows += 1;
        let start = self.data.len() - self.cols;
        &mut self.data[start..]
    }

    /// Append every row of `other` — one flat copy, no per-row traffic.
    ///
    /// # Panics
    /// Panics if the column counts differ (a zero-row `other` merges into
    /// anything).
    pub fn extend(&mut self, other: &Matrix) {
        if other.rows == 0 {
            return;
        }
        assert_eq!(other.cols, self.cols, "column count mismatch");
        self.data.extend_from_slice(&other.data);
        self.rows += other.rows;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The `i`-th row.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable access to the `i`-th row.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over rows.
    pub fn iter_rows(&self) -> Rows<'_> {
        Rows(self, 0..self.rows)
    }

    /// Append a copy of the last row.
    ///
    /// # Panics
    /// Panics if the matrix has no rows.
    pub fn repeat_last_row(&mut self) {
        assert!(self.rows > 0, "no row to repeat");
        self.data.extend_from_within(self.data.len() - self.cols..);
        self.rows += 1;
    }

    /// A new matrix containing the given rows (by index).
    pub fn select(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::with_cols(self.cols);
        for &i in indices {
            m.push_row(self.row(i));
        }
        m
    }

    /// Column `j` as a vector.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i)[j]).collect()
    }
}

/// The rows of a [`Matrix`] in order, from [`Matrix::iter_rows`] or a
/// `for` loop over `&Matrix`: the matrix and the indices of the rows left.
/// A matrix of zero columns yields [`Matrix::rows`] empty rows.
pub struct Rows<'a>(&'a Matrix, std::ops::Range<usize>);

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<&'a [f64]> {
        self.1.next().map(|i| self.0.row(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.1.size_hint()
    }
}

impl<'a> IntoIterator for &'a Matrix {
    type Item = &'a [f64];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter_rows()
    }
}

/// A labelled dataset: features plus one target per row.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Feature matrix.
    pub x: Matrix,
    /// Targets, one per row.
    pub y: Vec<f64>,
}

impl Dataset {
    /// An empty dataset with `cols` feature columns.
    pub fn with_cols(cols: usize) -> Self {
        Dataset {
            x: Matrix::with_cols(cols),
            y: Vec::new(),
        }
    }

    /// Append a sample.
    pub fn push(&mut self, features: &[f64], target: f64) {
        self.x.push_row(features);
        self.y.push(target);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Subset by row indices.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            x: self.x.select(indices),
            y: indices.iter().map(|&i| self.y[i]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let mut d = Dataset::with_cols(2);
        for i in 0..n {
            d.push(&[i as f64, (i * 2) as f64], i as f64);
        }
        d
    }

    #[test]
    fn matrix_row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_rejected() {
        let mut m = Matrix::with_cols(3);
        m.push_row(&[1.0]);
    }

    #[test]
    fn matrix_extend_appends_flat() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        a.extend(&b);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row(2), &[5.0, 6.0]);
        // Empty other is a no-op even with mismatched cols.
        a.extend(&Matrix::with_cols(7));
        assert_eq!(a.rows(), 3);
    }

    #[test]
    fn zero_column_rows_are_still_rows() {
        let m = Matrix::from_rows(&[vec![], vec![], vec![]]);
        assert_eq!((m.rows(), m.cols()), (3, 0));
        assert_eq!(m.iter_rows().count(), 3);
        let rows: Vec<&[f64]> = (&m).into_iter().collect();
        assert_eq!(rows, vec![&[] as &[f64]; 3]);
    }

    #[test]
    fn row_iterators_and_copies_agree() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.repeat_last_row();
        assert_eq!(m.rows(), 3);
        let mut looped = Vec::new();
        for row in &m {
            looped.push(row);
        }
        assert_eq!(looped, m.iter_rows().collect::<Vec<_>>());
        assert_eq!(looped, [&[1.0, 2.0][..], &[3.0, 4.0], &[3.0, 4.0]]);
    }

    #[test]
    fn select_and_extend() {
        let d = toy(10);
        let sub = d.select(&[1, 3, 5]);
        assert_eq!(sub.y, vec![1.0, 3.0, 5.0]);
        let mut e = Matrix::with_cols(2);
        e.extend(&sub.x);
        e.extend(&sub.x);
        assert_eq!(e.rows(), 6);
        assert_eq!(e.row(4), sub.x.row(1));
    }
}
