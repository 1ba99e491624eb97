//! Delta structures: updates without touching immutable fragments.
//!
//! Paper §4.3 / Figure 8: vertical fragments are immutable objects.
//! *Deletes* add the tuple id to a deletion list; *inserts* append to
//! separate, uncompressed delta columns (stored together chunk-wise,
//! which equates PAX — here: parallel `ColumnData` appenders); an
//! *update* is a delete followed by an insert. When the deltas exceed a
//! small percentile of the table, storage is reorganized
//! ([`crate::table::Table::reorganize`]) and the deltas become empty.

use crate::column::ColumnData;
use std::ops::Range;
use x100_vector::{ScalarType, Value};

/// The deletion list: row ids (into the *stable* row id space:
/// fragment rows first, then delta rows) that are deleted.
#[derive(Debug, Clone, Default)]
pub struct DeleteList {
    /// Sorted row ids.
    ids: Vec<u32>,
}

impl DeleteList {
    /// Mark `rowid` deleted. Returns `false` if it already was.
    pub fn delete(&mut self, rowid: u32) -> bool {
        match self.ids.binary_search(&rowid) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, rowid);
                true
            }
        }
    }

    /// True if `rowid` is deleted.
    #[inline]
    pub fn contains(&self, rowid: u32) -> bool {
        self.ids.binary_search(&rowid).is_ok()
    }

    /// Number of deleted rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing is deleted.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The deleted row ids, sorted ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Count deleted row ids inside `[start, end)` and append their
    /// positions relative to `start` — used by scans to build the live
    /// selection for a vector-sized range.
    pub fn deleted_in_range(&self, start: u32, end: u32, out: &mut Vec<u32>) {
        let lo = self.ids.partition_point(|&id| id < start);
        let hi = self.ids.partition_point(|&id| id < end);
        out.extend(self.ids[lo..hi].iter().map(|&id| id - start));
    }

    /// The live row ids of `[start, end)` as maximal runs between
    /// deleted ids, relative to `start` — the copy plan of a
    /// reorganization.
    pub(crate) fn live_runs(&self, start: u32, end: u32) -> Vec<Range<usize>> {
        let lo = self.ids.partition_point(|&id| id < start);
        let hi = self.ids.partition_point(|&id| id < end);
        let mut runs = Vec::with_capacity(hi - lo + 1);
        let mut at = start;
        for &id in &self.ids[lo..hi] {
            if id > at {
                runs.push((at - start) as usize..(id - start) as usize);
            }
            at = id + 1;
        }
        if end > at {
            runs.push((at - start) as usize..(end - start) as usize);
        }
        runs
    }

    /// Drop all entries (after a reorganize).
    pub fn clear(&mut self) {
        self.ids.clear();
    }
}

/// Append-only insert deltas: one uncompressed column per table column.
///
/// Delta columns are never compressed (paper: "updates just go to the
/// delta columns (which are never compressed) and do not complicate the
/// compression scheme").
#[derive(Debug, Clone)]
pub struct InsertDelta {
    cols: Vec<ColumnData>,
    rows: usize,
}

impl InsertDelta {
    /// Empty deltas for a table with the given column types.
    pub fn new(types: &[ScalarType]) -> Self {
        InsertDelta {
            cols: types.iter().map(|&t| ColumnData::new(t)).collect(),
            rows: 0,
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if `row` arity or types mismatch.
    pub fn append(&mut self, row: &[Value]) {
        assert_eq!(row.len(), self.cols.len(), "row arity mismatch");
        for (col, v) in self.cols.iter_mut().zip(row.iter()) {
            col.push_value(v);
        }
        self.rows += 1;
    }

    /// Number of delta rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no rows were inserted.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The delta column for table column `i`.
    pub fn column(&self, i: usize) -> &ColumnData {
        &self.cols[i]
    }

    /// Drop all rows (after a reorganize), keeping column types.
    pub fn clear(&mut self) {
        let types: Vec<ScalarType> = self.cols.iter().map(|c| c.scalar_type()).collect();
        self.cols = types.iter().map(|&t| ColumnData::new(t)).collect();
        self.rows = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_list_dedups_and_sorts() {
        let mut dl = DeleteList::default();
        assert!(dl.delete(5));
        assert!(dl.delete(1));
        assert!(!dl.delete(5));
        assert_eq!(dl.ids(), &[1, 5]);
        assert!(dl.contains(1));
        assert!(!dl.contains(2));
        assert_eq!(dl.len(), 2);
    }

    #[test]
    fn deleted_in_range_relative_positions() {
        let mut dl = DeleteList::default();
        for id in [3, 10, 11, 25] {
            dl.delete(id);
        }
        let mut out = Vec::new();
        dl.deleted_in_range(10, 20, &mut out);
        assert_eq!(out, vec![0, 1]);
        out.clear();
        dl.deleted_in_range(0, 5, &mut out);
        assert_eq!(out, vec![3]);
        out.clear();
        dl.deleted_in_range(26, 100, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn live_runs_skip_deleted_ids() {
        let mut dl = DeleteList::default();
        for id in [0, 3, 4, 9, 12] {
            dl.delete(id);
        }
        assert_eq!(dl.live_runs(0, 10), vec![1..3, 5..9]);
        assert_eq!(dl.live_runs(10, 14), vec![0..2, 3..4]);
        assert_eq!(dl.live_runs(5, 9), vec![0..4]);
        assert!(dl.live_runs(3, 5).is_empty());
    }

    #[test]
    fn insert_delta_appends() {
        let mut d = InsertDelta::new(&[ScalarType::I32, ScalarType::Str]);
        d.append(&[Value::I32(1), Value::Str("a".into())]);
        d.append(&[Value::I32(2), Value::Str("b".into())]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.column(0).get_value(1), Value::I32(2));
        assert_eq!(d.column(1).get_value(0), Value::Str("a".into()));
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.column(0).scalar_type(), ScalarType::I32);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut d = InsertDelta::new(&[ScalarType::I32]);
        d.append(&[Value::I32(1), Value::I32(2)]);
    }
}
