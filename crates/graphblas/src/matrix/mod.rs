//! Sparse matrices (`GrB_Matrix`) in Compressed Sparse Row (CSR) format.
//!
//! CSR is the default row-oriented format of SuiteSparse:GraphBLAS and suits every
//! kernel used in the paper: row-wise reductions, Gustavson-style SpGEMM, and SpMV.
//! Column indices inside each row are kept sorted and duplicate-free.

mod builder;
mod dense;
mod dynamic;
mod transpose;

pub use builder::MatrixBuilder;
pub use dynamic::{DeltaLayout, DynamicMatrix, DynamicMatrixStats};

use crate::error::{Error, Result};
use crate::index::{LearnedSegments, RowIndex, DEFAULT_EPSILON, LEARNED_ROW_CUTOFF};
use crate::ops_traits::BinaryOp;
use crate::scalar::Scalar;
use crate::types::Index;

/// A sparse `nrows × ncols` matrix with elements of type `T`, stored in CSR form.
#[derive(Clone, Debug)]
pub struct Matrix<T> {
    nrows: Index,
    ncols: Index,
    /// `row_ptr[i]..row_ptr[i+1]` is the range of `col_idx` / `values` holding row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<T>,
    /// Learned per-row column indexes over the wide rows, built by
    /// [`Matrix::freeze_index`] and dropped by every structural mutation. Purely an
    /// acceleration cache: never part of the matrix's logical value (see the manual
    /// [`PartialEq`] below).
    row_index: Option<RowIndex>,
}

/// Equality is over the logical CSR content only — a frozen learned index is an
/// acceleration cache and must not distinguish otherwise-identical matrices (the
/// differential tests compare indexed against unindexed results).
impl<T: PartialEq> PartialEq for Matrix<T> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

impl<T: Scalar> Matrix<T> {
    /// Create an empty matrix with the given dimensions.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Matrix {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
            row_index: None,
        }
    }

    /// Build a matrix from `(row, col, value)` tuples (`GrB_Matrix_build`).
    ///
    /// Duplicate coordinates are combined with `dup` in input order.
    pub fn from_tuples<Op>(
        nrows: Index,
        ncols: Index,
        tuples: &[(Index, Index, T)],
        dup: Op,
    ) -> Result<Self>
    where
        Op: BinaryOp<T, T, Output = T>,
    {
        builder::from_tuples(nrows, ncols, tuples, dup)
    }

    /// Construct from raw CSR parts. Internal fast path for kernels; the invariants
    /// (monotone `row_ptr`, sorted duplicate-free columns per row, in-bounds indices)
    /// are checked with debug assertions only.
    pub(crate) fn from_csr_parts(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        #[cfg(debug_assertions)]
        {
            for r in 0..nrows {
                let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
                debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} not sorted");
                debug_assert!(row.iter().all(|&c| c < ncols), "row {r} col out of bounds");
            }
        }
        Matrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            row_index: None,
        }
    }

    /// Number of rows (`GrB_Matrix_nrows`).
    #[inline]
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns (`GrB_Matrix_ncols`).
    #[inline]
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored elements (`GrB_Matrix_nvals`).
    #[inline]
    pub fn nvals(&self) -> usize {
        self.col_idx.len()
    }

    /// Whether the matrix stores no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.col_idx.is_empty()
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Raw CSR row pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw CSR column index array.
    #[inline]
    pub fn col_indices(&self) -> &[Index] {
        &self.col_idx
    }

    /// Raw CSR value array, parallel to [`Matrix::col_indices`].
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: Index) -> (&[Index], &[T]) {
        let start = self.row_ptr[i];
        let end = self.row_ptr[i + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Number of stored elements in row `i`.
    #[inline]
    pub fn row_nvals(&self, i: Index) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Look up the element at `(row, col)` (`GrB_Matrix_extractElement`).
    ///
    /// Wide rows of a frozen matrix (see [`Matrix::freeze_index`]) are probed through
    /// their learned segment model — predict + bounded scan — instead of a binary
    /// search; narrow rows always take the binary search.
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        if row >= self.nrows {
            return None;
        }
        let (cols, vals) = self.row(row);
        if let Some(segments) = self.row_segments(row) {
            return segments.locate(cols, col).map(|pos| vals[pos]);
        }
        cols.binary_search(&col).ok().map(|pos| vals[pos])
    }

    /// The learned column model of `row`, when the matrix is frozen and the row is
    /// wide enough to carry one.
    #[inline]
    pub fn row_segments(&self, row: Index) -> Option<&LearnedSegments> {
        self.row_index.as_ref()?.row(row)
    }

    /// Build learned column indexes over the wide rows (those with at least
    /// [`LEARNED_ROW_CUTOFF`] stored elements) with corridor half-width
    /// [`DEFAULT_EPSILON`].
    ///
    /// Freezing is an explicit, amortised step: call it when the matrix will be read
    /// heavily without structural changes — after the initial bulk load, or inside
    /// [`DynamicMatrix::compact`], which does it automatically. Any subsequent
    /// mutation ([`Matrix::set`], [`Matrix::insert_tuples`], …) drops the index; the
    /// matrix then behaves exactly as before freezing.
    pub fn freeze_index(&mut self) {
        let mut rows = Vec::new();
        for r in 0..self.nrows {
            let (cols, _) = self.row(r);
            if cols.len() >= LEARNED_ROW_CUTOFF {
                rows.push((r, LearnedSegments::build(cols, DEFAULT_EPSILON)));
            }
        }
        self.row_index = if rows.is_empty() {
            None
        } else {
            Some(RowIndex::from_rows(rows))
        };
    }

    /// Whether a frozen learned index is currently attached (it may cover zero rows
    /// if none is wide enough; this reports the attachment, not the coverage).
    #[inline]
    pub fn has_frozen_index(&self) -> bool {
        self.row_index.is_some()
    }

    /// Per-row learned-index statistics of a frozen matrix: `(indexed rows, total
    /// fitted segments)`. `(0, 0)` when no index is attached.
    pub fn frozen_index_stats(&self) -> (usize, usize) {
        match &self.row_index {
            Some(index) => (index.indexed_rows(), index.total_segments()),
            None => (0, 0),
        }
    }

    /// Whether an element is stored at `(row, col)`.
    pub fn contains(&self, row: Index, col: Index) -> bool {
        self.get(row, col).is_some()
    }

    /// Store `value` at `(row, col)`, replacing any existing element
    /// (`GrB_Matrix_setElement`).
    ///
    /// Single-element insertion shifts the CSR tail and is `O(nvals)`; use
    /// [`Matrix::insert_tuples`] for bulk updates.
    pub fn set(&mut self, row: Index, col: Index, value: T) -> Result<()> {
        self.check_bounds(row, col, "Matrix::set")?;
        self.row_index = None;
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&col) {
            Ok(pos) => {
                self.values[start + pos] = value;
            }
            Err(pos) => {
                self.col_idx.insert(start + pos, col);
                self.values.insert(start + pos, value);
                for p in &mut self.row_ptr[row + 1..] {
                    *p += 1;
                }
            }
        }
        Ok(())
    }

    /// Accumulate `value` into `(row, col)` with `op`, inserting if absent.
    pub fn accumulate<Op>(&mut self, row: Index, col: Index, value: T, op: Op) -> Result<()>
    where
        Op: BinaryOp<T, T, Output = T>,
    {
        self.check_bounds(row, col, "Matrix::accumulate")?;
        self.row_index = None;
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&col) {
            Ok(pos) => {
                let slot = &mut self.values[start + pos];
                *slot = op.apply(*slot, value);
            }
            Err(pos) => {
                self.col_idx.insert(start + pos, col);
                self.values.insert(start + pos, value);
                for p in &mut self.row_ptr[row + 1..] {
                    *p += 1;
                }
            }
        }
        Ok(())
    }

    /// Remove the element at `(row, col)` (`GrB_Matrix_removeElement`). Returns the
    /// removed value, if any.
    pub fn remove(&mut self, row: Index, col: Index) -> Option<T> {
        if row >= self.nrows || col >= self.ncols {
            return None;
        }
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&col) {
            Ok(pos) => {
                self.row_index = None;
                self.col_idx.remove(start + pos);
                let value = self.values.remove(start + pos);
                for p in &mut self.row_ptr[row + 1..] {
                    *p -= 1;
                }
                Some(value)
            }
            Err(_) => None,
        }
    }

    /// Remove every stored element (`GrB_Matrix_clear`). Dimensions are unchanged.
    pub fn clear(&mut self) {
        self.row_index = None;
        self.row_ptr.iter_mut().for_each(|p| *p = 0);
        self.col_idx.clear();
        self.values.clear();
    }

    /// Bulk-insert `(row, col, value)` tuples, combining with existing elements (and
    /// duplicate new coordinates) via `dup`.
    ///
    /// This is the workhorse for applying changesets: it rebuilds the CSR arrays in a
    /// single merge pass, `O(nvals + k log k)` for `k` new tuples.
    pub fn insert_tuples<Op>(&mut self, tuples: &[(Index, Index, T)], dup: Op) -> Result<()>
    where
        Op: BinaryOp<T, T, Output = T>,
    {
        if tuples.is_empty() {
            return Ok(());
        }
        for &(r, c, _) in tuples {
            self.check_bounds(r, c, "Matrix::insert_tuples")?;
        }
        self.row_index = None;
        let mut sorted: Vec<(Index, Index, T)> = tuples.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let new_capacity = self.nvals() + sorted.len();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(new_capacity);
        let mut values = Vec::with_capacity(new_capacity);
        row_ptr.push(0);

        let mut t = 0; // cursor into `sorted`
        for r in 0..self.nrows {
            let (old_cols, old_vals) = self.row(r);
            let mut o = 0;
            while o < old_cols.len() || (t < sorted.len() && sorted[t].0 == r) {
                let take_new = if o >= old_cols.len() {
                    true
                } else if t >= sorted.len() || sorted[t].0 != r {
                    false
                } else {
                    sorted[t].1 <= old_cols[o]
                };
                if take_new {
                    let (_, c, v) = sorted[t];
                    t += 1;
                    let mut acc = v;
                    // fold in any further duplicates of (r, c) from the new tuples
                    while t < sorted.len() && sorted[t].0 == r && sorted[t].1 == c {
                        acc = dup.apply(acc, sorted[t].2);
                        t += 1;
                    }
                    if o < old_cols.len() && old_cols[o] == c {
                        // combine existing value with the new ones: existing ⊕ new
                        acc = dup.apply(old_vals[o], acc);
                        o += 1;
                    }
                    col_idx.push(c);
                    values.push(acc);
                } else {
                    col_idx.push(old_cols[o]);
                    values.push(old_vals[o]);
                    o += 1;
                }
            }
            row_ptr.push(col_idx.len());
        }

        self.row_ptr = row_ptr;
        self.col_idx = col_idx;
        self.values = values;
        Ok(())
    }

    /// Change the dimensions of the matrix (`GrB_Matrix_resize`).
    ///
    /// Growing keeps all elements. Shrinking drops elements that fall outside the new
    /// dimensions, matching the C API semantics.
    pub fn resize(&mut self, new_nrows: Index, new_ncols: Index) {
        self.row_index = None;
        // Rows: truncate or extend the row pointer array.
        if new_nrows < self.nrows {
            let keep = self.row_ptr[new_nrows];
            self.col_idx.truncate(keep);
            self.values.truncate(keep);
            self.row_ptr.truncate(new_nrows + 1);
        } else if new_nrows > self.nrows {
            let last = *self.row_ptr.last().expect("row_ptr never empty"); // lint: allow(panic) — CSR row_ptr always holds nrows+1 entries
            self.row_ptr.resize(new_nrows + 1, last);
        }
        self.nrows = new_nrows;

        // Columns: shrinking requires dropping out-of-range entries.
        if new_ncols < self.ncols {
            let mut row_ptr = Vec::with_capacity(self.nrows + 1);
            let mut col_idx = Vec::with_capacity(self.col_idx.len());
            let mut values = Vec::with_capacity(self.values.len());
            row_ptr.push(0);
            for r in 0..self.nrows {
                let (cols, vals) = self.row(r);
                for (pos, &c) in cols.iter().enumerate() {
                    if c < new_ncols {
                        col_idx.push(c);
                        values.push(vals[pos]);
                    }
                }
                row_ptr.push(col_idx.len());
            }
            self.row_ptr = row_ptr;
            self.col_idx = col_idx;
            self.values = values;
        }
        self.ncols = new_ncols;
    }

    /// Iterate over all stored `(row, col, value)` tuples in row-major order.
    pub fn iter(&self) -> MatrixIter<'_, T> {
        MatrixIter {
            matrix: self,
            row: 0,
            pos: 0,
        }
    }

    /// Iterate over `(row, column-indices, values)` triples for the non-empty rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Index, &[Index], &[T])> + '_ {
        (0..self.nrows).filter_map(move |r| {
            let (cols, vals) = self.row(r);
            if cols.is_empty() {
                None
            } else {
                Some((r, cols, vals))
            }
        })
    }

    /// Extract all stored `(row, col, value)` tuples (`GrB_Matrix_extractTuples`).
    pub fn extract_tuples(&self) -> Vec<(Index, Index, T)> {
        self.iter().collect()
    }

    fn check_bounds(&self, row: Index, col: Index, context: &'static str) -> Result<()> {
        if row >= self.nrows {
            return Err(Error::IndexOutOfBounds {
                index: row,
                bound: self.nrows,
                context,
            });
        }
        if col >= self.ncols {
            return Err(Error::IndexOutOfBounds {
                index: col,
                bound: self.ncols,
                context,
            });
        }
        Ok(())
    }
}

impl<T: crate::scalar::Ring> Matrix<T> {
    /// Build a pattern matrix (every stored value is `ONE`) from an edge list.
    pub fn from_edges(nrows: Index, ncols: Index, edges: &[(Index, Index)]) -> Result<Self> {
        let tuples: Vec<(Index, Index, T)> = edges.iter().map(|&(r, c)| (r, c, T::ONE)).collect();
        Self::from_tuples(nrows, ncols, &tuples, crate::ops_traits::First::new())
    }

    /// Build a square diagonal matrix whose diagonal entries come from `v`.
    pub fn diagonal(v: &crate::vector::Vector<T>) -> Self {
        let n = v.size();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(v.nvals());
        let mut values = Vec::with_capacity(v.nvals());
        row_ptr.push(0);
        let mut iter = v.iter().peekable();
        for r in 0..n {
            if let Some(&(i, val)) = iter.peek() {
                if i == r {
                    col_idx.push(r);
                    values.push(val);
                    iter.next();
                }
            }
            row_ptr.push(col_idx.len());
        }
        Matrix::from_csr_parts(n, n, row_ptr, col_idx, values)
    }
}

/// Iterator over the stored tuples of a [`Matrix`] in row-major order.
pub struct MatrixIter<'a, T> {
    matrix: &'a Matrix<T>,
    row: Index,
    pos: usize,
}

impl<'a, T: Scalar> Iterator for MatrixIter<'a, T> {
    type Item = (Index, Index, T);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.matrix.nrows {
            let end = self.matrix.row_ptr[self.row + 1];
            if self.pos < end {
                let item = (
                    self.row,
                    self.matrix.col_idx[self.pos],
                    self.matrix.values[self.pos],
                );
                self.pos += 1;
                return Some(item);
            }
            self.row += 1;
            if self.row < self.matrix.nrows {
                self.pos = self.matrix.row_ptr[self.row];
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.matrix.nvals().saturating_sub(self.pos);
        (remaining, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_traits::{First, Plus};
    use crate::vector::Vector;

    fn sample() -> Matrix<u64> {
        Matrix::from_tuples(
            3,
            4,
            &[(0, 1, 10), (0, 3, 30), (1, 0, 5), (2, 2, 7)],
            Plus::new(),
        )
        .unwrap()
    }

    #[test]
    fn new_matrix_is_empty() {
        let m: Matrix<u64> = Matrix::new(3, 4);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nvals(), 0);
        assert!(m.is_empty());
        assert!(!m.is_square());
        assert_eq!(m.get(0, 0), None);
    }

    #[test]
    fn get_and_contains() {
        let m = sample();
        assert_eq!(m.get(0, 1), Some(10));
        assert_eq!(m.get(0, 3), Some(30));
        assert_eq!(m.get(1, 0), Some(5));
        assert_eq!(m.get(2, 2), Some(7));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.get(9, 0), None);
        assert!(m.contains(2, 2));
        assert!(!m.contains(2, 3));
    }

    #[test]
    fn row_access() {
        let m = sample();
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[1, 3]);
        assert_eq!(vals, &[10, 30]);
        assert_eq!(m.row_nvals(0), 2);
        assert_eq!(m.row_nvals(1), 1);
    }

    #[test]
    fn set_insert_and_overwrite() {
        let mut m = sample();
        m.set(0, 2, 99).unwrap();
        assert_eq!(m.get(0, 2), Some(99));
        assert_eq!(m.nvals(), 5);
        m.set(0, 2, 100).unwrap();
        assert_eq!(m.get(0, 2), Some(100));
        assert_eq!(m.nvals(), 5);
        // other entries untouched and rows still consistent
        assert_eq!(m.get(1, 0), Some(5));
        assert_eq!(m.get(2, 2), Some(7));
        assert!(m.set(3, 0, 1).is_err());
        assert!(m.set(0, 4, 1).is_err());
    }

    #[test]
    fn accumulate_combines() {
        let mut m = sample();
        m.accumulate(0, 1, 5, Plus::new()).unwrap();
        assert_eq!(m.get(0, 1), Some(15));
        m.accumulate(2, 0, 3, Plus::new()).unwrap();
        assert_eq!(m.get(2, 0), Some(3));
    }

    #[test]
    fn remove_and_clear() {
        let mut m = sample();
        assert_eq!(m.remove(0, 1), Some(10));
        assert_eq!(m.remove(0, 1), None);
        assert_eq!(m.nvals(), 3);
        assert_eq!(m.get(1, 0), Some(5));
        m.clear();
        assert_eq!(m.nvals(), 0);
        assert_eq!(m.nrows(), 3);
    }

    #[test]
    fn from_tuples_combines_duplicates() {
        let m =
            Matrix::from_tuples(2, 2, &[(0, 0, 1u64), (0, 0, 2), (1, 1, 3)], Plus::new()).unwrap();
        assert_eq!(m.get(0, 0), Some(3));
        assert_eq!(m.nvals(), 2);
    }

    #[test]
    fn from_tuples_rejects_out_of_bounds() {
        assert!(Matrix::from_tuples(2, 2, &[(2, 0, 1u64)], Plus::new()).is_err());
        assert!(Matrix::from_tuples(2, 2, &[(0, 2, 1u64)], Plus::new()).is_err());
    }

    #[test]
    fn iter_row_major_order() {
        let m = sample();
        let tuples = m.extract_tuples();
        assert_eq!(tuples, vec![(0, 1, 10), (0, 3, 30), (1, 0, 5), (2, 2, 7)]);
        let (lo, hi) = m.iter().size_hint();
        assert_eq!(lo, 4);
        assert_eq!(hi, Some(4));
    }

    #[test]
    fn iter_rows_skips_empty_rows() {
        let m = Matrix::from_tuples(4, 4, &[(1, 2, 1u64), (3, 0, 2)], Plus::new()).unwrap();
        let rows: Vec<Index> = m.iter_rows().map(|(r, _, _)| r).collect();
        assert_eq!(rows, vec![1, 3]);
    }

    #[test]
    fn insert_tuples_merges_with_existing() {
        let mut m = sample();
        m.insert_tuples(&[(0, 1, 1), (0, 0, 2), (2, 3, 4), (0, 0, 8)], Plus::new())
            .unwrap();
        assert_eq!(m.get(0, 0), Some(10)); // 2 + 8, new duplicates combined
        assert_eq!(m.get(0, 1), Some(11)); // 10 existing + 1 new
        assert_eq!(m.get(2, 3), Some(4));
        assert_eq!(m.get(1, 0), Some(5)); // untouched
        assert_eq!(m.nvals(), 6);
        // tuples out of bounds are rejected without partial application
        assert!(m.insert_tuples(&[(0, 9, 1)], Plus::new()).is_err());
        assert_eq!(m.nvals(), 6);
    }

    #[test]
    fn insert_tuples_empty_is_noop() {
        let mut m = sample();
        let before = m.clone();
        m.insert_tuples(&[], Plus::new()).unwrap();
        assert_eq!(m, before);
    }

    #[test]
    fn resize_grow_rows_and_cols() {
        let mut m = sample();
        m.resize(5, 6);
        assert_eq!(m.nrows(), 5);
        assert_eq!(m.ncols(), 6);
        assert_eq!(m.nvals(), 4);
        m.set(4, 5, 42).unwrap();
        assert_eq!(m.get(4, 5), Some(42));
    }

    #[test]
    fn resize_shrink_drops_out_of_range() {
        let mut m = sample();
        m.resize(2, 2);
        assert_eq!(m.nrows(), 2);
        assert_eq!(m.ncols(), 2);
        // remaining: (1,0)=5; dropped: (0,1) is kept? col 1 < 2 -> kept; (0,3) dropped; (2,2) dropped
        assert_eq!(m.get(0, 1), Some(10));
        assert_eq!(m.get(1, 0), Some(5));
        assert_eq!(m.nvals(), 2);
    }

    #[test]
    fn from_edges_builds_pattern() {
        let m: Matrix<u8> = Matrix::from_edges(3, 3, &[(0, 1), (1, 2), (0, 1)]).unwrap();
        assert_eq!(m.get(0, 1), Some(1));
        assert_eq!(m.get(1, 2), Some(1));
        assert_eq!(m.nvals(), 2);
    }

    #[test]
    fn frozen_index_accelerates_and_invalidates() {
        // one wide row (>= LEARNED_ROW_CUTOFF) plus a narrow one
        let mut tuples: Vec<(usize, usize, u64)> = (0..200).map(|c| (0, c * 3, c as u64)).collect();
        tuples.push((1, 5, 99));
        let mut m = Matrix::from_tuples(3, 600, &tuples, Plus::new()).unwrap();
        assert!(!m.has_frozen_index());
        m.freeze_index();
        assert!(m.has_frozen_index());
        let (rows, segments) = m.frozen_index_stats();
        assert_eq!(rows, 1);
        assert!(segments >= 1);
        assert!(m.row_segments(0).is_some());
        assert!(m.row_segments(1).is_none(), "narrow rows carry no model");
        for c in 0..200 {
            assert_eq!(m.get(0, c * 3), Some(c as u64));
        }
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 5), Some(99));
        // every structural mutation drops the cache
        m.set(2, 0, 1).unwrap();
        assert!(!m.has_frozen_index());
        m.freeze_index();
        m.insert_tuples(&[(2, 1, 1)], Plus::new()).unwrap();
        assert!(!m.has_frozen_index());
        m.freeze_index();
        m.remove(2, 0);
        assert!(!m.has_frozen_index());
        m.freeze_index();
        m.resize(4, 700);
        assert!(!m.has_frozen_index());
        m.freeze_index();
        m.clear();
        assert!(!m.has_frozen_index());
        // equality ignores the cache
        let mut a = sample();
        let b = sample();
        a.freeze_index();
        assert_eq!(a, b);
    }

    #[test]
    fn diagonal_from_vector() {
        let v = Vector::from_tuples(4, &[(0, 1u64), (2, 5)], First::new()).unwrap();
        let d = Matrix::diagonal(&v);
        assert_eq!(d.nrows(), 4);
        assert_eq!(d.ncols(), 4);
        assert_eq!(d.get(0, 0), Some(1));
        assert_eq!(d.get(2, 2), Some(5));
        assert_eq!(d.get(1, 1), None);
        assert_eq!(d.nvals(), 2);
    }
}
