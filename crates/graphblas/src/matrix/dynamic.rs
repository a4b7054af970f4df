//! An updatable ("dynamic") sparse matrix representation.
//!
//! The paper's future-work item (1) proposes switching to updatable compressed
//! formats such as faimGraph or Hornet, which keep per-row slack so that edge
//! insertions do not require rebuilding the whole CSR structure. [`DynamicMatrix`] is
//! a CPU-side equivalent of that idea: a frozen CSR *base* plus a per-row *delta*
//! buffer of recent insertions. Point insertions touch only the row's delta, reads
//! merge base and delta on the fly, and [`DynamicMatrix::compact`] folds the deltas
//! back into a fresh CSR when they grow past a threshold (amortising the rebuild the
//! way Hornet's block reallocation does) — and freezes the new base's learned row
//! index while it is at it, since compaction is exactly the "CSR freeze" moment.
//!
//! Delta rows come in two layouts, selectable per matrix via [`DeltaLayout`]:
//!
//! * [`DeltaLayout::Gapped`] (the default) — each row is a [`crate::GappedList`]:
//!   a sorted array with interspersed slack slots, so a point insert shifts entries
//!   only up to the nearest gap instead of the whole tail, and wide delta rows carry
//!   a learned position model;
//! * [`DeltaLayout::Sorted`] — the original dense sorted `Vec<(col, value)>` rows
//!   (every insert shifts the tail), kept as the reference the differential tests
//!   and the `ablation_dynamic_matrix` bench compare against.
//!
//! The `ablation_dynamic_matrix` bench compares changeset application through this
//! format against the plain CSR [`Matrix::insert_tuples`] path used by the solution.

use crate::error::Result;
use crate::index::GappedList;
use crate::ops_traits::BinaryOp;
use crate::scalar::Scalar;
use crate::types::Index;

use super::Matrix;

/// Physical layout of the per-row delta buffers of a [`DynamicMatrix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaLayout {
    /// Dense sorted rows: `O(log d)` lookup, but every insert shifts the row tail.
    Sorted,
    /// Gap-slot rows ([`crate::GappedList`]): inserts shift only to the nearest
    /// slack slot; wide rows are probed through a learned model.
    Gapped,
}

/// When the delta holds more than this fraction of the base entries (and more than
/// 64 elements), [`DynamicMatrix::maybe_compact`] folds it into a fresh CSR base.
const COMPACTION_RATIO: f64 = 0.25;

/// Counters and occupancy numbers of a [`DynamicMatrix`], for the ablation bench.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynamicMatrixStats {
    /// Stored elements in the CSR base.
    pub base_nvals: usize,
    /// Elements currently waiting in the delta buffers (excluding overwrites of
    /// base entries).
    pub delta_nvals: usize,
    /// Live entries across all delta rows (including overwrites of base entries).
    pub delta_live: usize,
    /// Physical delta slots (live + slack). Equal to `delta_live` for the sorted
    /// layout; larger for the gapped layout.
    pub delta_slots: usize,
    /// Compactions performed since construction.
    pub compactions: usize,
}

impl DynamicMatrixStats {
    /// Fraction of delta slots holding live entries (1.0 for an empty delta).
    pub fn delta_occupancy(&self) -> f64 {
        if self.delta_slots == 0 {
            1.0
        } else {
            self.delta_live as f64 / self.delta_slots as f64
        }
    }
}

/// Per-row delta storage in one of the two layouts.
#[derive(Clone, Debug)]
enum DeltaRows<T> {
    Sorted(Vec<Vec<(Index, T)>>),
    Gapped(Vec<GappedList<T>>),
}

/// Iterator over one delta row's `(col, value)` entries in column order.
enum DeltaRowIter<'a, T> {
    Sorted(std::slice::Iter<'a, (Index, T)>),
    Gapped(crate::index::GappedIter<'a, T>),
}

impl<T: Copy> Iterator for DeltaRowIter<'_, T> {
    type Item = (Index, T);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            DeltaRowIter::Sorted(iter) => iter.next().copied(),
            DeltaRowIter::Gapped(iter) => iter.next(),
        }
    }
}

impl<T: Scalar> DeltaRows<T> {
    fn new(layout: DeltaLayout, nrows: Index) -> Self {
        match layout {
            DeltaLayout::Sorted => DeltaRows::Sorted(vec![Vec::new(); nrows]),
            DeltaLayout::Gapped => DeltaRows::Gapped(vec![GappedList::new(); nrows]),
        }
    }

    fn layout(&self) -> DeltaLayout {
        match self {
            DeltaRows::Sorted(_) => DeltaLayout::Sorted,
            DeltaRows::Gapped(_) => DeltaLayout::Gapped,
        }
    }

    fn get(&self, row: Index, col: Index) -> Option<T> {
        match self {
            DeltaRows::Sorted(rows) => rows[row]
                .binary_search_by_key(&col, |&(c, _)| c)
                .ok()
                .map(|pos| rows[row][pos].1),
            DeltaRows::Gapped(rows) => rows[row].get(col),
        }
    }

    /// Insert or overwrite; returns `true` when the column was newly inserted.
    fn set(&mut self, row: Index, col: Index, value: T) -> bool {
        match self {
            DeltaRows::Sorted(rows) => match rows[row].binary_search_by_key(&col, |&(c, _)| c) {
                Ok(pos) => {
                    rows[row][pos].1 = value;
                    false
                }
                Err(pos) => {
                    rows[row].insert(pos, (col, value));
                    true
                }
            },
            DeltaRows::Gapped(rows) => rows[row].insert(col, value),
        }
    }

    fn row_iter(&self, row: Index) -> DeltaRowIter<'_, T> {
        match self {
            DeltaRows::Sorted(rows) => DeltaRowIter::Sorted(rows[row].iter()),
            DeltaRows::Gapped(rows) => DeltaRowIter::Gapped(rows[row].iter()),
        }
    }

    fn row_len(&self, row: Index) -> usize {
        match self {
            DeltaRows::Sorted(rows) => rows[row].len(),
            DeltaRows::Gapped(rows) => rows[row].len(),
        }
    }

    fn live(&self) -> usize {
        match self {
            DeltaRows::Sorted(rows) => rows.iter().map(Vec::len).sum(),
            DeltaRows::Gapped(rows) => rows.iter().map(GappedList::len).sum(),
        }
    }

    fn slots(&self) -> usize {
        match self {
            DeltaRows::Sorted(rows) => rows.iter().map(Vec::len).sum(),
            DeltaRows::Gapped(rows) => rows.iter().map(GappedList::slots).sum(),
        }
    }

    fn is_all_empty(&self) -> bool {
        match self {
            DeltaRows::Sorted(rows) => rows.iter().all(Vec::is_empty),
            DeltaRows::Gapped(rows) => rows.iter().all(GappedList::is_empty),
        }
    }

    fn clear_all(&mut self) {
        match self {
            DeltaRows::Sorted(rows) => rows.iter_mut().for_each(Vec::clear),
            DeltaRows::Gapped(rows) => rows.iter_mut().for_each(GappedList::clear),
        }
    }

    fn resize(&mut self, nrows: Index) {
        match self {
            DeltaRows::Sorted(rows) => rows.resize(nrows, Vec::new()),
            DeltaRows::Gapped(rows) => rows.resize(nrows, GappedList::new()),
        }
    }
}

/// A sparse matrix optimised for interleaved reads and single-element insertions.
#[derive(Clone, Debug)]
pub struct DynamicMatrix<T> {
    base: Matrix<T>,
    /// Per-row buffers holding insertions newer than `base`.
    delta: DeltaRows<T>,
    delta_nvals: usize,
    compactions: usize,
}

impl<T: Scalar> DynamicMatrix<T> {
    /// Create an empty dynamic matrix (gapped delta layout).
    pub fn new(nrows: Index, ncols: Index) -> Self {
        DynamicMatrix::from_matrix(Matrix::new(nrows, ncols))
    }

    /// Wrap an existing CSR matrix as the frozen base (gapped delta layout).
    pub fn from_matrix(base: Matrix<T>) -> Self {
        DynamicMatrix::with_layout(base, DeltaLayout::Gapped)
    }

    /// Wrap an existing CSR matrix with an explicit delta-row layout.
    pub fn with_layout(base: Matrix<T>, layout: DeltaLayout) -> Self {
        let nrows = base.nrows();
        DynamicMatrix {
            base,
            delta: DeltaRows::new(layout, nrows),
            delta_nvals: 0,
            compactions: 0,
        }
    }

    /// The delta-row layout this matrix was built with.
    pub fn layout(&self) -> DeltaLayout {
        self.delta.layout()
    }

    /// Counters and delta occupancy (see [`DynamicMatrixStats`]).
    pub fn stats(&self) -> DynamicMatrixStats {
        DynamicMatrixStats {
            base_nvals: self.base.nvals(),
            delta_nvals: self.delta_nvals,
            delta_live: self.delta.live(),
            delta_slots: self.delta.slots(),
            compactions: self.compactions,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> Index {
        self.base.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> Index {
        self.base.ncols()
    }

    /// Number of stored elements (base + delta).
    pub fn nvals(&self) -> usize {
        self.base.nvals() + self.delta_nvals
    }

    /// Number of elements currently waiting in the delta buffers.
    pub fn pending_delta(&self) -> usize {
        self.delta_nvals
    }

    /// Look up an element, preferring the freshest value.
    pub fn get(&self, row: Index, col: Index) -> Option<T> {
        if row >= self.nrows() {
            return None;
        }
        if let Some(value) = self.delta.get(row, col) {
            return Some(value);
        }
        self.base.get(row, col)
    }

    /// Insert or overwrite an element without touching the CSR base.
    pub fn set(&mut self, row: Index, col: Index, value: T) -> Result<()> {
        if row >= self.nrows() || col >= self.ncols() {
            return Err(crate::Error::IndexOutOfBounds {
                index: if row >= self.nrows() { row } else { col },
                bound: if row >= self.nrows() {
                    self.nrows()
                } else {
                    self.ncols()
                },
                context: "DynamicMatrix::set",
            });
        }
        if self.delta.set(row, col, value) && self.base.get(row, col).is_none() {
            self.delta_nvals += 1;
        }
        Ok(())
    }

    /// Accumulate into an element with `op` (reads the freshest value first).
    pub fn accumulate<Op>(&mut self, row: Index, col: Index, value: T, op: Op) -> Result<()>
    where
        Op: BinaryOp<T, T, Output = T>,
    {
        let combined = match self.get(row, col) {
            Some(existing) => op.apply(existing, value),
            None => value,
        };
        self.set(row, col, combined)
    }

    /// Grow the dimensions (the case-study workload only ever grows).
    pub fn resize(&mut self, nrows: Index, ncols: Index) {
        self.base.resize(nrows, ncols);
        self.delta.resize(nrows);
    }

    /// Iterate all `(row, col, value)` tuples, delta entries overriding base entries.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        (0..self.nrows())
            .flat_map(move |r| self.row_merged(r).into_iter().map(move |(c, v)| (r, c, v)))
    }

    /// Merged (base + delta) contents of one row, sorted by column.
    pub fn row_merged(&self, row: Index) -> Vec<(Index, T)> {
        let (base_cols, base_vals) = self.base.row(row);
        let mut out = Vec::with_capacity(base_cols.len() + self.delta.row_len(row));
        let mut delta = self.delta.row_iter(row).peekable();
        let mut i = 0usize;
        while let Some(&(dc, dv)) = delta.peek() {
            // emit base entries strictly before the next delta column
            while i < base_cols.len() && base_cols[i] < dc {
                out.push((base_cols[i], base_vals[i]));
                i += 1;
            }
            if i < base_cols.len() && base_cols[i] == dc {
                i += 1; // same column: the delta value is newer
            }
            out.push((dc, dv));
            delta.next();
        }
        while i < base_cols.len() {
            out.push((base_cols[i], base_vals[i]));
            i += 1;
        }
        out
    }

    /// Fold the delta buffers into a fresh CSR base and freeze the new base's
    /// learned row index (compaction *is* the CSR freeze moment).
    pub fn compact(&mut self) {
        if self.delta_nvals == 0 && self.delta.is_all_empty() {
            return;
        }
        let nrows = self.nrows();
        let ncols = self.ncols();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(self.nvals());
        let mut values = Vec::with_capacity(self.nvals());
        row_ptr.push(0);
        for r in 0..nrows {
            for (c, v) in self.row_merged(r) {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        self.base = Matrix::from_csr_parts(nrows, ncols, row_ptr, col_idx, values);
        self.base.freeze_index();
        self.delta.clear_all();
        self.delta_nvals = 0;
        self.compactions += 1;
    }

    /// Compact only if the delta has grown past a quarter of the base (and 64 elements).
    /// Returns `true` if a compaction happened.
    pub fn maybe_compact(&mut self) -> bool {
        let threshold = (self.base.nvals() as f64 * COMPACTION_RATIO).max(64.0);
        if self.delta_nvals as f64 > threshold {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Materialise the current contents as a plain CSR [`Matrix`].
    pub fn to_matrix(&self) -> Matrix<T> {
        let mut copy = self.clone();
        copy.compact();
        copy.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops_traits::Plus;

    #[test]
    fn starts_equal_to_wrapped_matrix() {
        let base = Matrix::from_tuples(3, 3, &[(0, 1, 5u64), (2, 0, 7)], Plus::new()).unwrap();
        let dynamic = DynamicMatrix::from_matrix(base.clone());
        assert_eq!(dynamic.nrows(), 3);
        assert_eq!(dynamic.nvals(), 2);
        assert_eq!(dynamic.get(0, 1), Some(5));
        assert_eq!(dynamic.get(1, 1), None);
        assert_eq!(dynamic.to_matrix(), base);
        assert_eq!(dynamic.layout(), DeltaLayout::Gapped);
    }

    #[test]
    fn set_goes_to_delta_and_reads_merge() {
        let base = Matrix::from_tuples(2, 4, &[(0, 0, 1u64), (0, 2, 3)], Plus::new()).unwrap();
        let mut dynamic = DynamicMatrix::from_matrix(base);
        dynamic.set(0, 1, 2).unwrap();
        dynamic.set(1, 3, 9).unwrap();
        assert_eq!(dynamic.pending_delta(), 2);
        assert_eq!(dynamic.nvals(), 4);
        assert_eq!(dynamic.get(0, 1), Some(2));
        assert_eq!(dynamic.row_merged(0), vec![(0, 1), (1, 2), (2, 3)]);
        // overwrite of a base entry does not change nvals
        dynamic.set(0, 0, 100).unwrap();
        assert_eq!(dynamic.nvals(), 4);
        assert_eq!(dynamic.get(0, 0), Some(100));
    }

    #[test]
    fn accumulate_combines_base_and_delta_values() {
        let base = Matrix::from_tuples(1, 2, &[(0, 0, 10u64)], Plus::new()).unwrap();
        let mut dynamic = DynamicMatrix::from_matrix(base);
        dynamic.accumulate(0, 0, 5, Plus::new()).unwrap();
        dynamic.accumulate(0, 1, 7, Plus::new()).unwrap();
        dynamic.accumulate(0, 1, 3, Plus::new()).unwrap();
        assert_eq!(dynamic.get(0, 0), Some(15));
        assert_eq!(dynamic.get(0, 1), Some(10));
    }

    #[test]
    fn compact_folds_delta_into_base() {
        let mut dynamic: DynamicMatrix<u64> = DynamicMatrix::new(3, 3);
        for i in 0..3 {
            dynamic.set(i, i, i as u64 + 1).unwrap();
        }
        assert_eq!(dynamic.pending_delta(), 3);
        dynamic.compact();
        assert_eq!(dynamic.pending_delta(), 0);
        assert_eq!(dynamic.nvals(), 3);
        assert_eq!(dynamic.get(1, 1), Some(2));
        assert_eq!(dynamic.stats().compactions, 1);
        // compacting twice is a no-op
        dynamic.compact();
        assert_eq!(dynamic.nvals(), 3);
        assert_eq!(dynamic.stats().compactions, 1);
    }

    #[test]
    fn maybe_compact_uses_threshold() {
        let base = Matrix::from_tuples(2, 200, &[(0, 0, 1u64)], Plus::new()).unwrap();
        let mut dynamic = DynamicMatrix::from_matrix(base);
        for c in 1..50 {
            dynamic.set(0, c, c as u64).unwrap();
        }
        // 49 pending < max(0.25 * 1, 64) -> no compaction yet
        assert!(!dynamic.maybe_compact());
        for c in 50..120 {
            dynamic.set(1, c, c as u64).unwrap();
        }
        assert!(dynamic.maybe_compact());
        assert_eq!(dynamic.pending_delta(), 0);
        assert_eq!(dynamic.nvals(), 120);
    }

    #[test]
    fn stats_report_occupancy_and_compactions() {
        let mut dynamic: DynamicMatrix<u64> = DynamicMatrix::new(4, 4000);
        let empty = dynamic.stats();
        assert_eq!(empty.delta_nvals, 0);
        assert_eq!(empty.delta_occupancy(), 1.0);
        for c in 0..200 {
            dynamic.set(1, c * 7 % 4000, 1).unwrap();
        }
        let stats = dynamic.stats();
        assert_eq!(stats.delta_nvals, 200);
        assert_eq!(stats.delta_live, 200);
        assert!(stats.delta_slots >= stats.delta_live, "gapped keeps slack");
        let occ = stats.delta_occupancy();
        assert!(occ > 0.5 && occ <= 1.0, "occupancy {occ} out of range");
        dynamic.compact();
        let after = dynamic.stats();
        assert_eq!(after.compactions, 1);
        assert_eq!(after.base_nvals, 200);
        assert_eq!(after.delta_live, 0);
    }

    #[test]
    fn compact_freezes_the_base_index() {
        let mut dynamic: DynamicMatrix<u64> = DynamicMatrix::new(1, 4000);
        for c in 0..300 {
            dynamic.set(0, c * 13 % 4000, c as u64).unwrap();
        }
        dynamic.compact();
        let m = dynamic.to_matrix();
        assert!(m.has_frozen_index(), "compaction freezes the learned index");
        assert!(m.frozen_index_stats().0 >= 1);
    }

    #[test]
    fn equivalent_to_csr_insert_tuples() {
        // the dynamic path and the CSR merge path must produce the same matrix
        let base_tuples: Vec<(usize, usize, u64)> =
            vec![(0, 0, 1), (1, 2, 3), (2, 1, 4), (3, 3, 9)];
        let extra: Vec<(usize, usize, u64)> = vec![(0, 3, 2), (1, 2, 5), (3, 0, 7), (2, 2, 8)];

        let mut csr = Matrix::from_tuples(4, 4, &base_tuples, Plus::new()).unwrap();
        csr.insert_tuples(&extra, Plus::new()).unwrap();

        for layout in [DeltaLayout::Sorted, DeltaLayout::Gapped] {
            let mut dynamic = DynamicMatrix::with_layout(
                Matrix::from_tuples(4, 4, &base_tuples, Plus::new()).unwrap(),
                layout,
            );
            for &(r, c, v) in &extra {
                dynamic.accumulate(r, c, v, Plus::new()).unwrap();
            }
            assert_eq!(dynamic.to_matrix(), csr, "{layout:?}");
        }
    }

    #[test]
    fn layouts_stay_byte_identical_under_mixed_schedules() {
        // deterministic interleaved insert/read/compact schedule over both layouts
        let mut sorted: DynamicMatrix<u64> =
            DynamicMatrix::with_layout(Matrix::new(8, 512), DeltaLayout::Sorted);
        let mut gapped: DynamicMatrix<u64> =
            DynamicMatrix::with_layout(Matrix::new(8, 512), DeltaLayout::Gapped);
        let mut state = 0xC0FFEEu64;
        for step in 0..3_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = ((state >> 33) % 8) as usize;
            let c = ((state >> 13) % 512) as usize;
            match state % 5 {
                0..=2 => {
                    sorted.set(r, c, step).unwrap();
                    gapped.set(r, c, step).unwrap();
                }
                3 => {
                    assert_eq!(sorted.get(r, c), gapped.get(r, c));
                    sorted.accumulate(r, c, 1, Plus::new()).unwrap();
                    gapped.accumulate(r, c, 1, Plus::new()).unwrap();
                }
                _ => {
                    if state.is_multiple_of(97) {
                        sorted.compact();
                        gapped.compact();
                    }
                    assert_eq!(sorted.row_merged(r), gapped.row_merged(r));
                }
            }
            assert_eq!(sorted.nvals(), gapped.nvals(), "step {step}");
        }
        assert_eq!(sorted.to_matrix(), gapped.to_matrix());
    }

    #[test]
    fn resize_grows_delta_buffers() {
        let mut dynamic: DynamicMatrix<u64> = DynamicMatrix::new(1, 1);
        dynamic.resize(3, 5);
        dynamic.set(2, 4, 1).unwrap();
        assert_eq!(dynamic.get(2, 4), Some(1));
        assert!(dynamic.set(3, 0, 1).is_err());
        assert!(dynamic.set(0, 5, 1).is_err());
    }

    #[test]
    fn iter_yields_merged_tuples_in_order() {
        let base = Matrix::from_tuples(2, 3, &[(0, 2, 1u64), (1, 0, 2)], Plus::new()).unwrap();
        let mut dynamic = DynamicMatrix::from_matrix(base);
        dynamic.set(0, 0, 9).unwrap();
        let tuples: Vec<(usize, usize, u64)> = dynamic.iter().collect();
        assert_eq!(tuples, vec![(0, 0, 9), (0, 2, 1), (1, 0, 2)]);
    }
}
