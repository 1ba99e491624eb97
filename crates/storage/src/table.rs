//! Tables: schemas, immutable fragments, deltas, and reorganization.
//!
//! A [`Table`] is a set of equally long vertical fragments
//! ([`ColumnData`]), optionally enum-compressed and/or carrying a
//! summary index, plus the delta structures of §4.3: a deletion list
//! and uncompressed insert columns. Every table has a virtual `#rowId`
//! column — a densely ascending number from 0 (never stored), which
//! positional fetch-joins use as join key.

use crate::column::ColumnData;
use crate::columnbm::{FaultSite, FaultState, StorageFaultError};
use crate::compress::{sweep, ChunkFormat, CompressedColumn, Prior, SweepMemo};
use crate::delta::{DeleteList, InsertDelta};
use crate::durable::{DurableError, DurableOptions, DurableSource};
use crate::enumcol::{encode_f64, encode_i64, encode_str, reencode, EnumDict, Reencoded};
use crate::summary::SummaryIndex;
use std::path::Path;
use std::sync::Arc;
use x100_vector::{ScalarType, Value, Vector};

/// A named, typed column slot in a table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// The *logical* type queries see (enum columns decode to this).
    pub logical: ScalarType,
}

/// Per-fragment column statistics, harvested when the fragment is built
/// (`TableBuilder::build` / `Table::reorganize`) — the fragment is
/// immutable in between, so the stats stay exact until the next rebuild.
/// They are the *source facts* of the engine's plan-level abstract
/// interpretation (`engine::facts`): value range and sortedness of the
/// physical data (codes for enum columns). A checkpoint's compressed
/// chunks carry the same bounds per chunk (PFOR frame base/width);
/// these are the fragment-wide rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Minimum physical value. `None` for string or empty fragments, or
    /// when a float fragment contains NaN.
    pub min: Option<Value>,
    /// Maximum physical value (same caveats as `min`).
    pub max: Option<Value>,
    /// Whether the fragment is non-decreasing.
    pub sorted: bool,
}

impl ColumnStats {
    /// Compute stats over one fragment in a single pass.
    pub fn compute(data: &ColumnData) -> ColumnStats {
        fn ints<T: Copy + Ord>(v: &[T], mk: impl Fn(T) -> Value) -> ColumnStats {
            let Some(&first) = v.first() else {
                return ColumnStats {
                    min: None,
                    max: None,
                    sorted: true,
                };
            };
            let (mut mn, mut mx, mut sorted, mut prev) = (first, first, true, first);
            for &x in &v[1..] {
                mn = mn.min(x);
                mx = mx.max(x);
                sorted &= prev <= x;
                prev = x;
            }
            ColumnStats {
                min: Some(mk(mn)),
                max: Some(mk(mx)),
                sorted,
            }
        }
        match data {
            ColumnData::I8(v) => ints(v, Value::I8),
            ColumnData::I16(v) => ints(v, Value::I16),
            ColumnData::I32(v) => ints(v, Value::I32),
            ColumnData::I64(v) => ints(v, Value::I64),
            ColumnData::U8(v) => ints(v, Value::U8),
            ColumnData::U16(v) => ints(v, Value::U16),
            ColumnData::U32(v) => ints(v, Value::U32),
            ColumnData::U64(v) => ints(v, Value::U64),
            ColumnData::F64(v) => {
                if v.is_empty() {
                    return ColumnStats {
                        min: None,
                        max: None,
                        sorted: true,
                    };
                }
                if v.iter().any(|x| x.is_nan()) {
                    // NaN poisons both the ordering and the range; the
                    // analyzer treats the column as ⊤.
                    return ColumnStats {
                        min: None,
                        max: None,
                        sorted: false,
                    };
                }
                let (mut mn, mut mx, mut sorted, mut prev) = (v[0], v[0], true, v[0]);
                for &x in &v[1..] {
                    mn = mn.min(x);
                    mx = mx.max(x);
                    sorted &= prev <= x;
                    prev = x;
                }
                ColumnStats {
                    min: Some(Value::F64(mn)),
                    max: Some(Value::F64(mx)),
                    sorted,
                }
            }
            // Strings carry no numeric range; lexicographic order is of
            // no use to the analyzer.
            ColumnData::Str(_) => ColumnStats {
                min: None,
                max: None,
                sorted: false,
            },
        }
    }
}

/// One stored column: physical data + optional dictionary + optional
/// summary index.
#[derive(Debug, Clone)]
pub struct StoredColumn {
    pub(crate) field: Field,
    /// Physical fragment: plain values, or `U8`/`U16` codes when `dict`
    /// is present.
    pub(crate) data: ColumnData,
    pub(crate) dict: Option<EnumDict>,
    pub(crate) summary: Option<SummaryIndex>,
    /// Fragment statistics, refreshed whenever `data` is rebuilt.
    pub(crate) stats: Option<ColumnStats>,
    /// Compressed rewrite of `data`, present after a checkpoint. Scans
    /// prefer it; it always covers exactly the fragment rows.
    pub(crate) compressed: Option<CompressedColumn>,
    /// Monotonic fragment-data version; bumps when `data` is rebuilt
    /// (reorganize). The fragment is immutable in between.
    pub(crate) epoch: u64,
    /// The `epoch` at which the codec chooser last ran. `Some(epoch)`
    /// means the verdict in `compressed` (including `None` = stay raw)
    /// is current, and `checkpoint()` skips the full format sweep.
    pub(crate) codec_epoch: Option<u64>,
    /// What that chooser run learned (per-chunk candidate sizes), so the
    /// run after the next reorganize encodes only changed chunks. Kept
    /// in memory only: a table opened from disk starts without it.
    pub(crate) codec_memo: Option<SweepMemo>,
}

impl StoredColumn {
    /// The schema field.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// The physical fragment (codes for enum columns).
    pub fn physical(&self) -> &ColumnData {
        &self.data
    }

    /// The physical type stored in the fragment.
    pub fn physical_type(&self) -> ScalarType {
        self.data.scalar_type()
    }

    /// The enum dictionary, if this column is enumeration-typed.
    pub fn dict(&self) -> Option<&EnumDict> {
        self.dict.as_ref()
    }

    /// The summary index, if one was built.
    pub fn summary(&self) -> Option<&SummaryIndex> {
        self.summary.as_ref()
    }

    /// The compressed fragment rewrite, if the column was checkpointed
    /// and the format chooser found a paying format.
    pub fn compressed(&self) -> Option<&CompressedColumn> {
        self.compressed.as_ref()
    }

    /// Fragment statistics (physical values; codes for enum columns).
    /// Prefer [`Table::column_stats`], which widens under pending deltas.
    pub fn stats(&self) -> Option<&ColumnStats> {
        self.stats.as_ref()
    }

    /// Decode one fragment value to its logical form (slow path).
    fn get_logical(&self, row: usize) -> Value {
        match &self.dict {
            None => self.data.get_value(row),
            Some(dict) => {
                let code = match &self.data {
                    ColumnData::U8(c) => c[row] as usize,
                    ColumnData::U16(c) => c[row] as usize,
                    other => panic!("enum codes must be U8/U16, got {:?}", other.scalar_type()),
                };
                dict.decode(code)
            }
        }
    }
}

/// Builds a [`Table`] column by column.
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    columns: Vec<StoredColumn>,
}

impl TableBuilder {
    /// Start a table named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TableBuilder {
            name: name.into(),
            columns: Vec::new(),
        }
    }

    /// Add a plain (uncompressed) column.
    pub fn column(mut self, name: impl Into<String>, data: ColumnData) -> Self {
        let logical = data.scalar_type();
        self.columns.push(StoredColumn {
            field: Field {
                name: name.into(),
                logical,
            },
            data,
            dict: None,
            summary: None,
            stats: None,
            compressed: None,
            epoch: 0,
            codec_epoch: None,
            codec_memo: None,
        });
        self
    }

    /// Add an enumeration-typed column from pre-built codes + dictionary.
    pub fn enum_column(
        mut self,
        name: impl Into<String>,
        codes: ColumnData,
        dict: EnumDict,
    ) -> Self {
        assert!(
            matches!(codes.scalar_type(), ScalarType::U8 | ScalarType::U16),
            "enum codes must be U8 or U16"
        );
        self.columns.push(StoredColumn {
            field: Field {
                name: name.into(),
                logical: dict.value_type(),
            },
            data: codes,
            dict: Some(dict),
            summary: None,
            stats: None,
            compressed: None,
            epoch: 0,
            codec_epoch: None,
            codec_memo: None,
        });
        self
    }

    /// Try to enum-encode a string column; falls back to plain storage
    /// if the cardinality exceeds 2-byte codes.
    pub fn auto_enum_str(self, name: impl Into<String>, values: Vec<String>) -> Self {
        match encode_str(values.iter().map(String::as_str)) {
            Some(enc) => self.enum_column(name, enc.codes, enc.dict),
            None => {
                let col = ColumnData::Str(values.iter().map(String::as_str).collect());
                self.column(name, col)
            }
        }
    }

    /// Try to enum-encode an `f64` column (falls back to plain storage).
    pub fn auto_enum_f64(self, name: impl Into<String>, values: Vec<f64>) -> Self {
        match encode_f64(&values) {
            Some(enc) => self.enum_column(name, enc.codes, enc.dict),
            None => self.column(name, ColumnData::F64(values)),
        }
    }

    /// Try to enum-encode an `i64` column (falls back to plain storage).
    pub fn auto_enum_i64(self, name: impl Into<String>, values: Vec<i64>) -> Self {
        match encode_i64(&values) {
            Some(enc) => self.enum_column(name, enc.codes, enc.dict),
            None => self.column(name, ColumnData::I64(values)),
        }
    }

    /// Build a summary index on the most recently added column (must be
    /// an integer-comparable plain column: `I32` dates or `I64`).
    pub fn with_summary(mut self) -> Self {
        let col = self
            .columns
            .last_mut()
            .expect("with_summary after a column");
        assert!(
            matches!(col.data, ColumnData::I32(_) | ColumnData::I64(_)),
            "summary index needs I32/I64 column, got {:?}",
            col.data.scalar_type()
        );
        col.summary = summary_of(&col.data);
        self
    }

    /// Finish the table.
    ///
    /// # Panics
    /// Panics if columns differ in length.
    pub fn build(self) -> Table {
        let rows = self.columns.first().map_or(0, |c| c.data.len());
        let mut columns = self.columns;
        for c in &mut columns {
            assert_eq!(
                c.data.len(),
                rows,
                "column {} length mismatch",
                c.field.name
            );
            // Harvest fragment stats once at build: the fragment is
            // immutable until the next reorganize, which recomputes.
            c.stats = Some(ColumnStats::compute(&c.data));
        }
        let types: Vec<ScalarType> = columns.iter().map(|c| c.field.logical).collect();
        Table {
            name: self.name,
            columns,
            frag_rows: rows,
            deletes: DeleteList::default(),
            inserts: InsertDelta::new(&types),
            codec_sweeps: 0,
            chunks_encoded: 0,
            durable: None,
        }
    }
}

/// The summary index over a fragment: integer-comparable (`I32` dates,
/// `I64`) or empty fragments only.
pub(crate) fn summary_of(data: &ColumnData) -> Option<SummaryIndex> {
    let widened: Vec<i64> = match data {
        ColumnData::I32(v) => v.iter().map(|&x| x as i64).collect(),
        ColumnData::I64(v) => v.clone(),
        other if other.is_empty() => Vec::new(),
        _ => return None,
    };
    Some(SummaryIndex::build(&widened))
}

/// A vertically fragmented table with delta-based updates.
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) name: String,
    pub(crate) columns: Vec<StoredColumn>,
    pub(crate) frag_rows: usize,
    pub(crate) deletes: DeleteList,
    pub(crate) inserts: InsertDelta,
    /// Full format sweeps the codec chooser has run (cache misses).
    pub(crate) codec_sweeps: u64,
    /// Compressed chunks the codec chooser has encoded, over all
    /// candidate formats.
    pub(crate) chunks_encoded: u64,
    /// The on-disk checkpoint this table was opened from (or last
    /// committed to). Scans use it to heal corrupt chunks from a
    /// replica mid-query; `None` for purely in-memory tables, and reset
    /// by `reorganize()` (the disk copy no longer matches the
    /// fragments until the next durable checkpoint).
    pub(crate) durable: Option<Arc<DurableSource>>,
}

impl Table {
    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema fields, in column order.
    pub fn fields(&self) -> impl Iterator<Item = &Field> {
        self.columns.iter().map(|c| &c.field)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Resolve a column index by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.field.name == name)
    }

    /// The stored column at index `i`.
    pub fn column(&self, i: usize) -> &StoredColumn {
        &self.columns[i]
    }

    /// The stored column named `name`.
    ///
    /// # Panics
    /// Panics if absent.
    pub fn column_by_name(&self, name: &str) -> &StoredColumn {
        let i = self
            .column_index(name)
            .unwrap_or_else(|| panic!("no column `{name}` in table `{}`", self.name));
        &self.columns[i]
    }

    /// Rows in the immutable fragments.
    pub fn fragment_rows(&self) -> usize {
        self.frag_rows
    }

    /// Rows in the insert delta.
    pub fn delta_rows(&self) -> usize {
        self.inserts.len()
    }

    /// Fragment statistics for column `i`, *widened to unknown* while
    /// insert-delta rows are pending: delta values bypass the fragment
    /// and are not covered by the stats, so any range claim would be
    /// unsound. Deletes do not widen — visible rows are a subset of the
    /// fragment the stats describe. Reorganization merges the deltas
    /// and recomputes, restoring precision.
    pub fn column_stats(&self, i: usize) -> Option<&ColumnStats> {
        if !self.inserts.is_empty() {
            None
        } else {
            self.columns[i].stats.as_ref()
        }
    }

    /// Total row id space (fragments + deltas, including deleted rows).
    pub fn total_rows(&self) -> usize {
        self.frag_rows + self.inserts.len()
    }

    /// Live (visible) rows.
    pub fn live_rows(&self) -> usize {
        self.total_rows() - self.deletes.len()
    }

    /// The deletion list.
    pub fn deletes(&self) -> &DeleteList {
        &self.deletes
    }

    /// The insert delta columns.
    pub fn inserts(&self) -> &InsertDelta {
        &self.inserts
    }

    /// Total storage bytes (fragments + dictionaries + deltas).
    pub fn byte_size(&self) -> usize {
        let frag: usize = self
            .columns
            .iter()
            .map(|c| c.data.byte_size() + c.dict.as_ref().map_or(0, |d| d.values().byte_size()))
            .sum();
        let delta: usize = (0..self.columns.len())
            .map(|i| self.inserts.column(i).byte_size())
            .sum();
        frag + delta
    }

    /// Insert a row (logical values). Returns its `#rowId`.
    pub fn insert(&mut self, row: &[Value]) -> u32 {
        let id = self.total_rows() as u32;
        self.inserts.append(row);
        id
    }

    /// Delete a row by `#rowId`. Returns `false` if it did not exist or
    /// was already deleted.
    pub fn delete(&mut self, rowid: u32) -> bool {
        if (rowid as usize) < self.total_rows() {
            self.deletes.delete(rowid)
        } else {
            false
        }
    }

    /// Update = delete + insert (paper §4.3). Returns the new `#rowId`,
    /// or `None` if `rowid` did not exist.
    pub fn update(&mut self, rowid: u32, row: &[Value]) -> Option<u32> {
        if self.delete(rowid) {
            Some(self.insert(row))
        } else {
            None
        }
    }

    /// Delta fraction: delta rows + deletes relative to total rows.
    /// The paper reorganizes "whenever their size exceeds a (small)
    /// percentile of the total table size".
    pub fn delta_fraction(&self) -> f64 {
        if self.total_rows() == 0 {
            0.0
        } else {
            (self.inserts.len() + self.deletes.len()) as f64 / self.total_rows() as f64
        }
    }

    /// Read one row's logical values (slow path; tests and row display).
    ///
    /// # Panics
    /// Panics if `rowid` is deleted or out of range.
    pub fn get_row(&self, rowid: u32) -> Vec<Value> {
        assert!(!self.deletes.contains(rowid), "row {rowid} is deleted");
        let r = rowid as usize;
        if r < self.frag_rows {
            self.columns.iter().map(|c| c.get_logical(r)).collect()
        } else {
            let d = r - self.frag_rows;
            assert!(d < self.inserts.len(), "row {rowid} out of range");
            (0..self.columns.len())
                .map(|i| self.inserts.column(i).get_value(d))
                .collect()
        }
    }

    /// Read a fragment range of a column *logically* (decoding enums) into
    /// a vector buffer. `start + rows` must stay within the fragments.
    pub fn read_logical(&self, col: usize, start: usize, rows: usize, out: &mut Vector) {
        assert!(
            start + rows <= self.frag_rows,
            "read_logical beyond fragments"
        );
        let c = &self.columns[col];
        match &c.dict {
            None => c.data.read_into(start, rows, out),
            Some(dict) => {
                out.clear();
                match (&c.data, dict.values()) {
                    (ColumnData::U8(codes), vals) => {
                        gather_codes(vals, &codes[start..start + rows], out)
                    }
                    (ColumnData::U16(codes), vals) => {
                        gather_codes16(vals, &codes[start..start + rows], out)
                    }
                    _ => unreachable!("enum codes are U8/U16"),
                }
            }
        }
    }

    /// Read a delta range of a column (delta rows are always logical).
    /// `start` is relative to the delta (0 = first inserted row).
    pub fn read_delta(&self, col: usize, start: usize, rows: usize, out: &mut Vector) {
        self.inserts.column(col).read_into(start, rows, out);
    }

    /// Gather logical values of arbitrary (live, fragment-or-delta) row
    /// ids into a vector buffer — the storage half of `Fetch1Join`.
    pub fn gather_logical(&self, col: usize, rowids: &[u32], out: &mut Vector) {
        let c = &self.columns[col];
        let all_in_frag = rowids.iter().all(|&r| (r as usize) < self.frag_rows);
        if all_in_frag && c.dict.is_none() {
            c.data.gather_into(rowids, out);
            return;
        }
        // Slow path: mixed regions or enum decode.
        out.clear();
        for &r in rowids {
            out.push_value(&self.column_value(col, r));
        }
    }

    fn column_value(&self, col: usize, rowid: u32) -> Value {
        let r = rowid as usize;
        if r < self.frag_rows {
            self.columns[col].get_logical(r)
        } else {
            self.inserts.column(col).get_value(r - self.frag_rows)
        }
    }

    /// Flip one payload byte of column `col`'s compressed chunk `ci`
    /// in memory (see [`CompressedColumn::corrupt_payload_byte`]) —
    /// bit-rot simulation for fault injection and tests only. The
    /// durable copies on disk are untouched, so a scan hitting the bad
    /// chunk can heal from a replica. Returns `false` when the column
    /// has no compressed form or the chunk no payload byte at `at`.
    pub fn corrupt_compressed_payload(&mut self, col: usize, ci: usize, at: usize) -> bool {
        match &mut self.columns[col].compressed {
            Some(cc) => cc.corrupt_payload_byte(ci, at),
            None => false,
        }
    }

    /// Checkpoint: run the format chooser over every column fragment
    /// and rewrite paying columns as compressed chunks (paper §4.3/§5 —
    /// "light-weight compression" applied when data is reorganized).
    /// Returns per-column verdicts `(name, format, ratio_pct)`; raw
    /// columns report `ChunkFormat::Raw` at 100%.
    pub fn checkpoint(&mut self) -> Vec<(String, ChunkFormat, u64)> {
        match self.try_checkpoint(None) {
            Ok(v) => v,
            Err(_) => unreachable!("checkpoint without a fault plan cannot fail"),
        }
    }

    /// Fallible checkpoint: each column's compressed-chunk write is
    /// checked against the fault plan (site
    /// [`FaultSite::CheckpointWrite`]). On error, columns already
    /// checkpointed keep their new chunks (each column is independently
    /// consistent); the remainder stay as they were.
    pub fn try_checkpoint(
        &mut self,
        fault: Option<&FaultState>,
    ) -> Result<Vec<(String, ChunkFormat, u64)>, StorageFaultError> {
        let mut verdicts = Vec::with_capacity(self.columns.len());
        let mut sweeps = 0u64;
        let mut encoded = 0u64;
        for (i, col) in self.columns.iter_mut().enumerate() {
            // Codec-decision cache: the fragment is immutable between
            // reorganizations, so an unchanged epoch means the last
            // verdict (including "stay raw") still holds — nothing is
            // rewritten and the full format sweep is skipped.
            if col.codec_epoch != Some(col.epoch) {
                if let Some(f) = fault {
                    f.check_site(FaultSite::CheckpointWrite, i as u32)?;
                }
                let sorted = col
                    .stats
                    .as_ref()
                    .map_or_else(|| ColumnStats::compute(&col.data).sorted, |st| st.sorted);
                let s = sweep(&col.data, sorted, &Prior::default());
                col.compressed = s.compressed;
                col.codec_memo = Some(s.memo);
                col.codec_epoch = Some(col.epoch);
                sweeps += 1;
                encoded += s.chunks_encoded;
                // Torn-write injection: the write "succeeded" but a
                // payload byte is wrong. Nothing errors here — the
                // per-chunk checksum catches it on the next read.
                if let (Some(f), Some(c)) = (fault, col.compressed.as_mut()) {
                    for t in f.take_torn(i as u32) {
                        c.corrupt_payload_byte(t.chunk as usize, t.byte as usize);
                    }
                }
            }
            verdicts.push(match &col.compressed {
                Some(c) => (col.field.name.clone(), c.format(), c.ratio_pct()),
                None => (col.field.name.clone(), ChunkFormat::Raw, 100),
            });
        }
        self.codec_sweeps += sweeps;
        self.chunks_encoded += encoded;
        Ok(verdicts)
    }

    /// Full format sweeps run so far — a second `checkpoint()` over an
    /// unchanged table adds zero.
    pub fn codec_sweeps(&self) -> u64 {
        self.codec_sweeps
    }

    /// Compressed chunks the format chooser has encoded so far, over
    /// all candidate formats. A reorganize re-encodes only the chunks
    /// at or after a column's first changed row.
    pub fn chunks_encoded(&self) -> u64 {
        self.chunks_encoded
    }

    /// The durable checkpoint backing this table, if it was opened from
    /// disk or durably checkpointed since the last reorganize. Scans
    /// use it to heal a corrupt compressed chunk from a replica.
    pub fn durable_source(&self) -> Option<&Arc<DurableSource>> {
        self.durable.as_ref()
    }

    /// Durable checkpoint: compress (as [`Table::checkpoint`]), then
    /// persist every column — raw fragment, compressed chunks, and
    /// dictionary — to `dir` with [`DurableOptions::replicas`] copies
    /// each, committed by a versioned manifest written last. A crash at
    /// any point leaves the previous checkpoint fully readable; see
    /// [`Table::open`] for recovery.
    ///
    /// Pending deltas are merged first (`reorganize`) so the persisted
    /// state is the complete table.
    pub fn checkpoint_durable(
        &mut self,
        dir: &Path,
        opts: &DurableOptions,
    ) -> Result<Vec<(String, ChunkFormat, u64)>, DurableError> {
        self.try_checkpoint_durable(dir, opts, None)
    }

    /// Fallible durable checkpoint: every file write step consults the
    /// fault plan ([`FaultSite::DurableChunkWrite`] per chunk file,
    /// [`FaultSite::ManifestWrite`] for the manifest temp-write and the
    /// committing rename) with bounded-backoff retry. On error the
    /// directory may hold orphan files of the aborted version, but the
    /// previous manifest — and therefore the previous checkpoint — is
    /// untouched and fully readable.
    pub fn try_checkpoint_durable(
        &mut self,
        dir: &Path,
        opts: &DurableOptions,
        fault: Option<&FaultState>,
    ) -> Result<Vec<(String, ChunkFormat, u64)>, DurableError> {
        if !self.inserts.is_empty() || !self.deletes.is_empty() {
            self.reorganize();
        }
        let verdicts = self.try_checkpoint(fault)?;
        let source = crate::durable::commit_checkpoint(self, dir, opts, fault)?;
        self.durable = Some(source);
        Ok(verdicts)
    }

    /// Recover a table from its durable checkpoint directory: the
    /// newest manifest that parses and checksums clean wins (a crash
    /// mid-checkpoint leaves its version uncommitted, so recovery falls
    /// back to the previous one), every column loads from the first
    /// replica that passes its whole-file checksum, and bad replicas
    /// are healed in place from a good copy.
    pub fn open(dir: &Path) -> Result<Table, DurableError> {
        Table::try_open(dir, None)
    }

    /// [`Table::open`] with fault injection: replica reads consult
    /// [`FaultSite::DurableChunkRead`] / [`FaultSite::ManifestRead`]
    /// and a read that exhausts its retry budget counts as a bad copy,
    /// falling over to the next replica. A typed error surfaces only
    /// when *all* copies of some column fail.
    pub fn try_open(dir: &Path, fault: Option<&FaultState>) -> Result<Table, DurableError> {
        crate::durable::open_table(dir, fault)
    }

    /// Reorganize when the deltas exceed `threshold` of the table
    /// (paper §4.3: "whenever their size exceeds a (small) percentile of
    /// the total table size, data storage should be reorganized").
    /// Returns whether a reorganization ran.
    pub fn maybe_reorganize(&mut self, threshold: f64) -> bool {
        if self.delta_fraction() > threshold {
            self.reorganize();
            true
        } else {
            false
        }
    }

    /// Rebuild the immutable fragments with all deltas applied: deleted
    /// rows vanish, inserted rows append, enum columns re-encode, summary
    /// indices rebuild, and the delta structures empty (paper §4.3's
    /// "data storage should be reorganized").
    ///
    /// The cost follows the delta, not the table: live fragment runs
    /// between deletions are copied typed (enum codes stay codes), only
    /// inserted values are looked up in enum dictionaries (codes are
    /// remapped only when the distinct set changed), and checkpointed
    /// columns re-encode only the compressed chunks at or after their
    /// first changed row. The result is byte-identical to building the
    /// live rows from scratch with [`TableBuilder`] (plus
    /// [`Table::checkpoint`] for checkpointed columns).
    ///
    /// Row ids are re-densified (0..live_rows); callers holding old row
    /// ids (e.g. join indices) must re-derive them.
    pub fn reorganize(&mut self) {
        let (frag, total) = (self.frag_rows as u32, self.total_rows() as u32);
        let frag_runs = self.deletes.live_runs(0, frag);
        let delta_runs = self.deletes.live_runs(frag, total);
        let live_frag: usize = frag_runs.iter().map(|r| r.len()).sum();
        // Rows before the first deletion are where they were.
        let unmoved = self
            .deletes
            .ids()
            .first()
            .map_or(self.frag_rows, |&r| (r as usize).min(self.frag_rows));
        let live = self.live_rows();
        let mut chooser = (0u64, 0u64);
        for (i, col) in self.columns.iter_mut().enumerate() {
            let mut appended = ColumnData::new(col.field.logical);
            appended.extend_runs(self.inserts.column(i), &delta_runs);
            let old_rows = col.data.len();
            let mut kept = std::mem::replace(&mut col.data, ColumnData::new(ScalarType::U8));
            kept.retain_runs(&frag_runs);
            let (data, dict, same_rows) = match &col.dict {
                None => {
                    kept.extend_from(&appended);
                    (kept, None, unmoved)
                }
                // Remapped codes can differ before the first deletion.
                Some(d) => match reencode(d, kept, &appended) {
                    Reencoded::Enum { enc, same } => (enc.codes, Some(enc.dict), same.min(unmoved)),
                    Reencoded::Plain(values) => (values, None, 0),
                },
            };
            let stats = ColumnStats::compute(&data);
            let summary = col.summary.as_ref().and_then(|_| summary_of(&data));
            // Checkpointed columns stay checkpointed — including those
            // whose last verdict was "stay raw". The chooser re-runs
            // over the merged fragment (it may pick another format, or
            // raw) but encodes only what the old chunks cannot supply.
            let epoch = col.epoch + 1;
            let (compressed, codec_epoch, codec_memo) = if col.codec_epoch.is_some() {
                let prior = Prior {
                    memo: col.codec_memo.as_ref(),
                    old: col.compressed.as_ref(),
                    old_rows,
                    same_rows,
                    deleted: self.frag_rows - live_frag,
                };
                let s = sweep(&data, stats.sorted, &prior);
                chooser.0 += 1;
                chooser.1 += s.chunks_encoded;
                (s.compressed, Some(epoch), Some(s.memo))
            } else {
                (None, None, None)
            };
            *col = StoredColumn {
                field: col.field.clone(),
                data,
                dict,
                summary,
                stats: Some(stats),
                compressed,
                epoch,
                codec_epoch,
                codec_memo,
            };
        }
        self.codec_sweeps += chooser.0;
        self.chunks_encoded += chooser.1;
        self.frag_rows = live;
        self.deletes.clear();
        self.inserts.clear();
        // The disk checkpoint describes the *old* fragments; healing
        // from it would resurrect stale rows. Detach until the next
        // durable checkpoint rewrites it.
        self.durable = None;
    }
}

fn gather_codes(vals: &ColumnData, codes: &[u8], out: &mut Vector) {
    match (vals, out) {
        (ColumnData::F64(d), Vector::F64(o)) => o.extend(codes.iter().map(|&c| d[c as usize])),
        (ColumnData::I64(d), Vector::I64(o)) => o.extend(codes.iter().map(|&c| d[c as usize])),
        (ColumnData::I32(d), Vector::I32(o)) => o.extend(codes.iter().map(|&c| d[c as usize])),
        (ColumnData::Str(d), Vector::Str(o)) => {
            for &c in codes {
                o.push(d.get(c as usize));
            }
        }
        (v, o) => panic!(
            "enum decode mismatch: dict {:?}, out {:?}",
            v.scalar_type(),
            o.scalar_type()
        ),
    }
}

fn gather_codes16(vals: &ColumnData, codes: &[u16], out: &mut Vector) {
    match (vals, out) {
        (ColumnData::F64(d), Vector::F64(o)) => o.extend(codes.iter().map(|&c| d[c as usize])),
        (ColumnData::I64(d), Vector::I64(o)) => o.extend(codes.iter().map(|&c| d[c as usize])),
        (ColumnData::I32(d), Vector::I32(o)) => o.extend(codes.iter().map(|&c| d[c as usize])),
        (ColumnData::Str(d), Vector::Str(o)) => {
            for &c in codes {
                o.push(d.get(c as usize));
            }
        }
        (v, o) => panic!(
            "enum decode mismatch: dict {:?}, out {:?}",
            v.scalar_type(),
            o.scalar_type()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        TableBuilder::new("t")
            .column("id", ColumnData::I64((0..10).collect()))
            .auto_enum_str(
                "flag",
                (0..10)
                    .map(|i| if i % 2 == 0 { "A".into() } else { "B".into() })
                    .collect(),
            )
            .column(
                "price",
                ColumnData::F64((0..10).map(|i| i as f64 * 1.5).collect()),
            )
            .build()
    }

    #[test]
    fn build_and_inspect() {
        let t = small_table();
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.fragment_rows(), 10);
        assert_eq!(t.live_rows(), 10);
        assert_eq!(t.column_index("price"), Some(2));
        assert_eq!(t.column_by_name("flag").physical_type(), ScalarType::U8);
        assert_eq!(t.column_by_name("flag").field().logical, ScalarType::Str);
        assert!(t.column_by_name("flag").dict().is_some());
    }

    #[test]
    fn read_logical_decodes_enums() {
        let t = small_table();
        let mut v = Vector::with_capacity(ScalarType::Str, 4);
        t.read_logical(1, 2, 4, &mut v);
        assert_eq!(
            v.as_str().iter().collect::<Vec<_>>(),
            vec!["A", "B", "A", "B"]
        );
    }

    #[test]
    fn insert_delete_update_lifecycle() {
        let mut t = small_table();
        let id = t.insert(&[Value::I64(100), Value::Str("C".into()), Value::F64(9.9)]);
        assert_eq!(id, 10);
        assert_eq!(t.live_rows(), 11);
        assert_eq!(
            t.get_row(10),
            vec![Value::I64(100), Value::Str("C".into()), Value::F64(9.9)]
        );

        assert!(t.delete(3));
        assert!(!t.delete(3));
        assert_eq!(t.live_rows(), 10);

        let new_id = t
            .update(
                10,
                &[Value::I64(101), Value::Str("D".into()), Value::F64(1.0)],
            )
            .expect("exists");
        assert_eq!(new_id, 11);
        assert_eq!(t.live_rows(), 10);
        assert!(t.update(99, &[]).is_none());
    }

    #[test]
    fn gather_logical_mixed_regions() {
        let mut t = small_table();
        t.insert(&[Value::I64(42), Value::Str("Z".into()), Value::F64(0.5)]);
        let mut v = Vector::with_capacity(ScalarType::I64, 3);
        t.gather_logical(0, &[0, 10, 5], &mut v);
        assert_eq!(v.as_i64(), &[0, 42, 5]);
        let mut s = Vector::with_capacity(ScalarType::Str, 2);
        t.gather_logical(1, &[10, 1], &mut s);
        assert_eq!(s.as_str().get(0), "Z");
        assert_eq!(s.as_str().get(1), "B");
    }

    #[test]
    fn reorganize_applies_deltas() {
        let mut t = small_table();
        t.delete(0);
        t.delete(9);
        t.insert(&[Value::I64(77), Value::Str("B".into()), Value::F64(7.7)]);
        assert!(t.delta_fraction() > 0.0);
        t.reorganize();
        assert_eq!(t.fragment_rows(), 9);
        assert_eq!(t.delta_rows(), 0);
        assert_eq!(t.deletes().len(), 0);
        assert_eq!(t.delta_fraction(), 0.0);
        // Row ids are densified: first live row was old rowid 1.
        assert_eq!(t.get_row(0)[0], Value::I64(1));
        // The inserted row is last and re-encoded into the enum column.
        assert_eq!(
            t.get_row(8),
            vec![Value::I64(77), Value::Str("B".into()), Value::F64(7.7)]
        );
        assert!(
            t.column(1).dict().is_some(),
            "enum column stays enum after reorganize"
        );
    }

    #[test]
    fn maybe_reorganize_thresholds() {
        let mut t = small_table();
        t.insert(&[Value::I64(100), Value::Str("A".into()), Value::F64(0.0)]);
        // 1 delta row of 11 total ≈ 9%.
        assert!(!t.maybe_reorganize(0.5), "below threshold: no reorganize");
        assert_eq!(t.delta_rows(), 1);
        assert!(t.maybe_reorganize(0.05), "above threshold: reorganizes");
        assert_eq!(t.delta_rows(), 0);
        assert_eq!(t.fragment_rows(), 11);
    }

    #[test]
    fn summary_survives_reorganize() {
        let mut t = TableBuilder::new("dates")
            .column("d", ColumnData::I32((0..5000).collect()))
            .with_summary()
            .build();
        assert!(t.column(0).summary().is_some());
        t.insert(&[Value::I32(5000)]);
        t.reorganize();
        let s = t.column(0).summary().expect("rebuilt");
        let (lo, hi) = s.range_candidates(Some(4999), None);
        assert!(lo >= 4000 && hi == 5001);
    }

    #[test]
    fn byte_size_counts_dict_and_deltas() {
        let mut t = small_table();
        let before = t.byte_size();
        t.insert(&[Value::I64(1), Value::Str("Q".into()), Value::F64(0.0)]);
        assert!(t.byte_size() > before);
    }

    #[test]
    fn checkpoint_compresses_paying_columns() {
        let mut t = TableBuilder::new("t")
            .column("key", ColumnData::I64((0..100_000).collect()))
            .column(
                "price",
                ColumnData::F64((0..100_000).map(|i| (i % 9000) as f64 / 100.0).collect()),
            )
            .build();
        assert!(t.column(0).compressed().is_none());
        let verdicts = t.checkpoint();
        assert_eq!(verdicts.len(), 2);
        let key = t.column(0).compressed().expect("sorted keys compress");
        assert_eq!(key.format(), ChunkFormat::PforDelta);
        let price = t.column(1).compressed().expect("cents compress");
        assert!(price.ratio_pct() < 50);
        assert_eq!(price.rows(), t.fragment_rows());
    }

    #[test]
    fn checkpoint_caches_codec_decision_per_epoch() {
        let mut t = TableBuilder::new("t")
            .column("key", ColumnData::I64((0..100_000).collect()))
            .column(
                "price",
                ColumnData::F64((0..100_000).map(|i| (i % 9000) as f64 / 100.0).collect()),
            )
            // Full-width hashes: no format saves 10%, the verdict is raw.
            .column(
                "hash",
                ColumnData::U64(
                    (0..100_000u64)
                        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .collect(),
                ),
            )
            .build();
        let first = t.checkpoint();
        assert_eq!(t.codec_sweeps(), 3, "cold start sweeps every column");
        assert!(t.column(2).compressed().is_none(), "hashes stay raw");
        // Unchanged fragments: the verdicts replay from the cache.
        let second = t.checkpoint();
        assert_eq!(t.codec_sweeps(), 3, "no fragment changed, no sweep");
        assert_eq!(first, second);
        assert!(t.column(0).compressed().is_some());
        // Deltas alone don't invalidate (they live outside the
        // fragments); a reorganize rebuilds the fragment and re-sweeps
        // every checkpointed column, raw verdicts included.
        t.insert(&[Value::I64(100_000), Value::F64(1.0), Value::U64(u64::MAX)]);
        t.checkpoint();
        assert_eq!(t.codec_sweeps(), 3, "delta rows don't bump the epoch");
        t.reorganize();
        assert_eq!(t.codec_sweeps(), 6, "reorganize re-ran the chooser");
        assert!(t.column(2).compressed().is_none(), "still raw");
        t.checkpoint();
        assert_eq!(t.codec_sweeps(), 6, "reorganize verdict is already cached");
        assert_eq!(
            t.column(0).compressed().expect("still compressed").rows(),
            t.fragment_rows()
        );
    }

    #[test]
    fn reorganize_preserves_checkpoint() {
        let mut t = small_table();
        t.checkpoint();
        let before: Vec<bool> = (0..t.num_columns())
            .map(|i| t.column(i).compressed().is_some())
            .collect();
        t.delete(0);
        t.insert(&[Value::I64(50), Value::Str("A".into()), Value::F64(5.0)]);
        t.reorganize();
        assert_eq!(t.delta_rows(), 0);
        for (i, was) in before.iter().enumerate() {
            if *was {
                let c = t.column(i).compressed().expect("still checkpointed");
                assert_eq!(c.rows(), t.fragment_rows());
            }
        }
        // Never-checkpointed tables stay uncompressed through reorganize.
        let mut u = small_table();
        u.insert(&[Value::I64(11), Value::Str("B".into()), Value::F64(1.0)]);
        u.reorganize();
        assert!(u.column(0).compressed().is_none());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn checkpoint_write_faults_surface() {
        use crate::columnbm::FaultPlan;
        let mut t = small_table();
        let plan = FaultPlan {
            checkpoint_fault_rate: 1.0,
            max_retries: 2,
            backoff_base_us: 0,
            ..FaultPlan::default()
        };
        let fs = FaultState::new(plan);
        let err = t.try_checkpoint(Some(&fs)).expect_err("always faults");
        assert_eq!(err.site, FaultSite::CheckpointWrite);
        assert_eq!(err.attempts, 3);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn torn_checkpoint_write_caught_by_checksum() {
        use crate::columnbm::FaultPlan;
        use crate::compress::DecodeCursor;
        use x100_vector::Vector;
        let mut t = TableBuilder::new("t")
            .column(
                "key",
                ColumnData::I64((0..200_000).map(|i| i % 7000).collect()),
            )
            .build();
        // The write itself succeeds — no error here, just silent damage.
        let fs = FaultState::new(FaultPlan::default().tear(0, 1, 9));
        t.try_checkpoint(Some(&fs))
            .expect("torn writes don't error");
        assert_eq!(fs.injected(), 1);
        let c = t.column(0).compressed().expect("column compressed");
        // An untouched chunk decodes fine; the torn one is refused with
        // a checksum mismatch, so wrong rows can never escape.
        let mut v = Vector::zeroed(ScalarType::I64, 0);
        let mut cur = DecodeCursor::default();
        let mut scratch = Vec::new();
        c.decode_range(0, 1024, &mut v, &mut cur, &mut scratch)
            .expect("chunk 0 is intact");
        let err = c
            .decode_range(65_536, 1024, &mut v, &mut cur, &mut scratch)
            .expect_err("chunk 1 is torn");
        assert!(err.contains("checksum mismatch"), "typed mismatch: {err}");
        // The raw fragment is untouched: recovery reads stay correct.
        t.read_logical(0, 65_536, 4, &mut v);
        assert_eq!(
            v.as_i64()[..4],
            [65_536 % 7000, 65_537 % 7000, 65_538 % 7000, 65_539 % 7000]
        );
    }

    #[test]
    fn stats_harvested_at_build_and_widened_by_deltas() {
        let mut t = small_table();
        let id = t.column_stats(0).expect("built tables carry stats");
        assert_eq!(id.min, Some(Value::I64(0)));
        assert_eq!(id.max, Some(Value::I64(9)));
        assert!(id.sorted);
        // Enum stats cover the physical codes ("A"/"B" → 0/1).
        let flag = t.column_stats(1).expect("code stats");
        assert_eq!(flag.min, Some(Value::U8(0)));
        assert_eq!(flag.max, Some(Value::U8(1)));
        // Deletes don't widen (subset of the fragment)…
        t.delete(3);
        assert!(t.column_stats(0).is_some());
        // …but pending insert-delta rows do: they bypass the fragment.
        t.insert(&[Value::I64(999), Value::Str("A".into()), Value::F64(0.0)]);
        assert!(t.column_stats(0).is_none(), "delta rows widen stats");
        // Reorganize merges deltas and recomputes exact stats.
        t.reorganize();
        let id = t.column_stats(0).expect("recomputed");
        assert_eq!(id.max, Some(Value::I64(999)));
        assert!(id.sorted, "999 appended after an ascending prefix");
    }

    #[test]
    fn stats_edge_cases() {
        let empty = ColumnStats::compute(&ColumnData::I32(vec![]));
        assert_eq!(empty.min, None);
        assert!(empty.sorted);
        let nan = ColumnStats::compute(&ColumnData::F64(vec![1.0, f64::NAN]));
        assert_eq!(nan.min, None);
        assert!(!nan.sorted);
        let f = ColumnStats::compute(&ColumnData::F64(vec![2.5, 1.5, 3.5]));
        assert_eq!(f.min, Some(Value::F64(1.5)));
        assert_eq!(f.max, Some(Value::F64(3.5)));
        assert!(!f.sorted);
    }

    #[test]
    #[should_panic]
    fn get_deleted_row_panics() {
        let mut t = small_table();
        t.delete(2);
        t.get_row(2);
    }
}
