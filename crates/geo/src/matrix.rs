//! Contiguous row-major matrices of per-country values.
//!
//! The reconstruction pipeline's hot collections — one view vector per
//! video, one aggregate per tag — were originally `Vec<CountryVec>`,
//! i.e. tens of thousands of separate heap allocations chased through
//! a pointer each. [`CountryMatrix`] stores the same data as a single
//! `Vec<f64>` in row-major order: row `i` of a `rows × cols` matrix is
//! the slice `data[i·cols .. (i+1)·cols]`, handed out as a borrowed
//! `&[f64]` view. Mutation goes through the element-wise
//! [`kernel`](crate::kernel) functions, whose per-element rounding is
//! independent of the order rows are processed in — the determinism
//! argument for merging parallel shards (DESIGN.md §9).

use crate::error::GeoError;
use crate::vec::CountryVec;

/// A dense `rows × cols` matrix of `f64` in one contiguous row-major
/// allocation; rows are per-entity (video, tag), columns per-country.
///
/// # Example
///
/// ```
/// use tagdist_geo::CountryMatrix;
///
/// let mut m = CountryMatrix::zeros(2, 3);
/// m.row_mut(0)[1] = 5.0;
/// assert_eq!(m.row(0), &[0.0, 5.0, 0.0]);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CountryMatrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl CountryMatrix {
    /// Creates a `rows × cols` matrix of zeros in one allocation.
    pub fn zeros(rows: usize, cols: usize) -> CountryMatrix {
        CountryMatrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Wraps an existing row-major buffer as a `rows × cols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::LengthMismatch`] if `data.len()` is not
    /// `rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<CountryMatrix, GeoError> {
        if data.len() != rows * cols {
            return Err(GeoError::LengthMismatch {
                left: data.len(),
                right: rows * cols,
            });
        }
        Ok(CountryMatrix { data, rows, cols })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the world size).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`; use [`get_row`](CountryMatrix::get_row)
    /// for the checked variant.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrowed view of row `i`, or `None` if out of range.
    pub fn get_row(&self, i: usize) -> Option<&[f64]> {
        if i < self.rows {
            Some(&self.data[i * self.cols..(i + 1) * self.cols])
        } else {
            None
        }
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterates over row slices in row order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// The whole row-major buffer (row `i` starts at `i * cols()`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Unwraps the row-major buffer, so a caller that rebuilds a matrix
    /// of about the same shape can reuse its allocation.
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Mutable view of the whole row-major buffer — the entry point
    /// for filling many rows in one parallel pass (e.g.
    /// `Pool::par_fill` with `stride = cols()`).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Adds `other` element-wise into `self` — the shard-merge
    /// operation of the parallel Eq. 3 fold, executed as one kernel
    /// pass over both buffers (equivalently: row `i += ` row `i` of
    /// `other`, for every `i` in row order).
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::LengthMismatch`] if the shapes differ.
    pub fn merge_add(&mut self, other: &CountryMatrix) -> Result<(), GeoError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(GeoError::LengthMismatch {
                left: self.data.len(),
                right: other.data.len(),
            });
        }
        crate::kernel::add_assign(&mut self.data, &other.data);
        Ok(())
    }

    /// Multiplies every element by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        crate::kernel::scale(&mut self.data, factor);
    }

    /// Sums the rows: `out[c] = Σ_i row(i)[c]`, accumulated in row
    /// order (sequential per element, so the result is deterministic).
    pub fn column_sums(&self) -> CountryVec {
        let mut out = vec![0.0; self.cols];
        for row in self.iter_rows() {
            crate::kernel::add_assign(&mut out, row);
        }
        CountryVec::from_values(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_row_views() {
        let mut m = CountryMatrix::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert!(!m.is_empty());
        m.row_mut(1).copy_from_slice(&[4.0, 5.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert_eq!(m.row(1), &[4.0, 5.0]);
        assert_eq!(m.get_row(2), Some(&[0.0, 0.0][..]));
        assert_eq!(m.get_row(3), None);
        assert_eq!(m.as_slice().len(), 6);
    }

    #[test]
    fn from_flat_validates_the_shape() {
        let m = CountryMatrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(matches!(
            CountryMatrix::from_flat(2, 2, vec![1.0]),
            Err(GeoError::LengthMismatch { left: 1, right: 4 })
        ));
    }

    #[test]
    fn iter_rows_walks_in_order() {
        let m = CountryMatrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn merge_add_is_elementwise() {
        let mut a = CountryMatrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = CountryMatrix::from_flat(2, 2, vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        a.merge_add(&b).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
        let wrong = CountryMatrix::zeros(1, 2);
        assert!(a.merge_add(&wrong).is_err());
    }

    #[test]
    fn scale_and_column_sums() {
        let mut m = CountryMatrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        m.scale(2.0);
        assert_eq!(m.column_sums().as_slice(), &[8.0, 12.0]);
    }

    #[test]
    fn zero_row_and_zero_col_edge_cases() {
        let empty = CountryMatrix::zeros(0, 5);
        assert!(empty.is_empty());
        assert_eq!(empty.iter_rows().count(), 0);
        assert_eq!(empty.column_sums().as_slice(), &[0.0; 5]);
        let thin = CountryMatrix::zeros(4, 0);
        assert_eq!(thin.iter_rows().count(), 4);
        assert_eq!(thin.row(3), &[] as &[f64]);
        assert_eq!(CountryMatrix::default(), CountryMatrix::zeros(0, 0));
    }
}
