//! `Scan(Table) : Dataflow` — vector-at-a-time table scan.
//!
//! "The Scan operator retrieves data vector-at-a-time from Monet BATs.
//! Note that only attributes relevant for the query are actually
//! scanned" (§4.1.1). Enumeration-typed columns are decompressed on the
//! fly by an automatically added positional fetch — surfaced in traces
//! as the paper's `Fetch1Join(ENUM)` operator rows and
//! `map_fetch_uchr_col_*` primitive rows (§4.3, Table 5) — unless the
//! plan requests raw codes (direct aggregation groups on codes).
//!
//! The scan walks one list of morsels (row ranges): a full scan is the
//! whole (possibly pruned) fragment range followed by the insert delta,
//! a parallel worker gets its disjoint share. Deleted rows are masked
//! via the batch selection vector. Checkpoint-compressed columns are
//! read through [`ChunkReader`], the one recovery ladder every
//! compressed read shares (in-memory chunks, durable-replica heal, raw
//! fragment, typed `Io`).

use crate::batch::{Batch, OutField, SelPool, VecPool};
use crate::govern::{MemTracker, QueryContext};
use crate::ops::chunks::ChunkReader;
use crate::ops::Operator;
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_storage::{ColumnBM, ColumnData, Morsel, PushOp, Pushdown, Table};
use x100_vector::{Value, Vector};

/// How one scanned column is produced.
enum ColMode {
    /// Plain column: memcpy fragment range into the vector.
    Plain,
    /// Enum column decoded via fetch; holds the code scratch vector and
    /// the decode primitive signature.
    Decode { codes: Vector, sig: String },
    /// Enum column surfaced as raw codes (no decode).
    Codes,
}

/// A predicate pushed into the compressed scan (the fused
/// `CompressedScanSelect` refill path): the comparison runs in encoded
/// space over the packed lanes before anything is decoded, and only
/// surviving positions are ever materialized.
struct PushSpec {
    /// Index (into `cols`) of the predicate column.
    k: usize,
    /// The compiled encoded-space predicate.
    p: Pushdown,
    /// Window-relative surviving positions of the current vector.
    sel: Vec<u32>,
    /// Absolute-rowid scratch for PFOR-DELTA co-column seeks.
    abs: Vec<u32>,
    /// Whether the one-time dictionary-rewrite counter fired.
    counted: bool,
}

/// The scan operator.
pub struct ScanOp {
    table: Arc<Table>,
    cols: Vec<usize>,
    modes: Vec<ColMode>,
    fields: Vec<OutField>,
    pools: Vec<VecPool>,
    sel_pool: SelPool,
    out: Batch,
    /// The row ranges to scan, in order; `mcur`/`moff` is the cursor.
    morsels: Vec<Morsel>,
    mcur: usize,
    moff: usize,
    vector_size: usize,
    scratch_del: Vec<u32>,
    scratch_reads: Vec<(usize, u64, u64)>,
    /// Decode-on-refill reader per scanned column; `Some` iff the
    /// column was rewritten as compressed chunks by `Table::checkpoint`.
    /// Decompression stays inside the CPU cache at vector granularity.
    comp: Vec<Option<ChunkReader>>,
    /// Fused predicate pushdown; `Some` turns fragment refills into the
    /// `CompressedScanSelect` path (encoded-space select, lazy decode).
    push: Option<PushSpec>,
    /// Governor charge for the decode scratch buffers.
    mem: Option<MemTracker>,
    bm: Option<Arc<ColumnBM>>,
    ctx: Arc<QueryContext>,
    /// Cheap stand-in pushed for decode columns until the decode pass
    /// replaces it (keeps column ordering without an allocation).
    placeholder: std::rc::Rc<Vector>,
}

impl ScanOp {
    /// Build a scan of `col_names` over `table`, restricted to
    /// `morsels` (`x100_storage::plan_morsels` builds the list for a
    /// whole or summary-pruned range).
    ///
    /// `code_cols` lists enum columns to surface as raw codes.
    pub fn new(
        table: Arc<Table>,
        col_names: &[&str],
        code_cols: &[&str],
        morsels: Vec<Morsel>,
        vector_size: usize,
        bm: Option<Arc<ColumnBM>>,
        ctx: Arc<QueryContext>,
    ) -> Result<Self, crate::PlanError> {
        let mut cols = Vec::new();
        let mut modes = Vec::new();
        let mut fields = Vec::new();
        let mut pools = Vec::new();
        for &name in col_names {
            let ci = table
                .column_index(name)
                .ok_or_else(|| crate::PlanError::UnknownColumn(name.to_owned()))?;
            let sc = table.column(ci);
            let as_codes = code_cols.contains(&name);
            let (mode, ty) = match (sc.dict(), as_codes) {
                (None, _) => (ColMode::Plain, sc.field().logical),
                (Some(_), true) => (ColMode::Codes, sc.physical_type()),
                (Some(dict), false) => {
                    let code_ty = sc.physical_type();
                    let sig = format!(
                        "map_fetch_{}_col_{}_col",
                        code_ty.sig_name(),
                        dict.value_type().sig_name()
                    );
                    (
                        ColMode::Decode {
                            codes: Vector::with_capacity(code_ty, vector_size),
                            sig,
                        },
                        dict.value_type(),
                    )
                }
            };
            cols.push(ci);
            fields.push(OutField::new(name, ty));
            pools.push(VecPool::new(ty, vector_size));
            modes.push(mode);
        }
        // Raw codes cannot be served from the (logical-value) insert
        // delta: reject at bind time rather than panic mid-scan.
        if table.delta_rows() > 0 {
            if let Some((&name, _)) = col_names
                .iter()
                .zip(modes.iter())
                .find(|(_, m)| matches!(m, ColMode::Codes))
            {
                return Err(crate::PlanError::Invalid(format!(
                    "raw-code scan of column `{name}` with pending insert deltas; reorganize first"
                )));
            }
        }
        // Decode-on-refill state for compressed columns. The scratch
        // frame buffers are a real allocation the query keeps for its
        // lifetime, so charge them up front (worst case: one vector of
        // u64 frames plus a sync-interval replay window per column).
        let comp: Vec<Option<ChunkReader>> = cols
            .iter()
            .map(|&ci| table.column(ci).compressed().map(|_| ChunkReader::new(ci)))
            .collect();
        let n_comp = comp.iter().filter(|c| c.is_some()).count();
        let mem = if n_comp > 0 {
            let mut t = MemTracker::new(ctx.clone(), "Scan(decode)");
            t.ensure(n_comp * (vector_size + 1024) * std::mem::size_of::<u64>())?;
            Some(t)
        } else {
            None
        };
        Ok(ScanOp {
            table,
            cols,
            modes,
            fields,
            pools,
            sel_pool: SelPool::default(),
            out: Batch::new(),
            morsels,
            mcur: 0,
            moff: 0,
            vector_size,
            scratch_del: Vec::new(),
            scratch_reads: Vec::new(),
            comp,
            push: None,
            mem,
            bm,
            ctx,
            placeholder: std::rc::Rc::new(Vector::Bool(Vec::new())),
        })
    }

    /// Attach a fused predicate pushdown on scanned column `col` (the
    /// binder's `CompressedScanSelect` fusion). The column must be a
    /// plain (non-enum) checkpoint-compressed column whose codec
    /// supports encoded-space selection.
    pub fn set_pushdown(&mut self, col: &str, p: Pushdown) -> Result<(), PlanError> {
        let k = self
            .fields
            .iter()
            .position(|f| f.name == col)
            .ok_or_else(|| PlanError::UnknownColumn(col.to_owned()))?;
        if !matches!(self.modes[k], ColMode::Plain) || self.comp[k].is_none() {
            return Err(PlanError::Invalid(format!(
                "pushdown on `{col}` requires a plain compressed column"
            )));
        }
        self.push = Some(PushSpec {
            k,
            p,
            sel: Vec::new(),
            abs: Vec::new(),
            counted: false,
        });
        Ok(())
    }

    /// Read `len` bytes of column `ci` at `offset` through the buffer
    /// manager (if attached), under the query's fault-injection state.
    fn bm_read(&self, ci: usize, offset: u64, len: u64) -> Result<(), PlanError> {
        if let Some(bm) = &self.bm {
            bm.try_access(ci as u32, offset, len, self.ctx.fault_state())
                .map_err(|e| PlanError::Io {
                    site: x100_storage::FaultSite::ChunkRead,
                    unrecoverable: false,
                    detail: e.to_string(),
                })?;
        }
        Ok(())
    }

    /// Charge the governor for what the decode scratch buffers grew to
    /// (PFOR-DELTA sync replay can extend them past one vector), plus
    /// `extra` bytes of pushdown scratch.
    fn charge_scratch(&mut self, extra: usize) -> Result<(), PlanError> {
        if let Some(mem) = &mut self.mem {
            let total: usize = self
                .comp
                .iter()
                .flatten()
                .map(ChunkReader::scratch_bytes)
                .sum();
            mem.ensure(total + extra)?;
        }
        Ok(())
    }

    /// Produce one batch from the fragment region `[start, start+n)`.
    fn emit_fragment(
        &mut self,
        start: usize,
        n: usize,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        if self.push.is_some() {
            // Fused CompressedScanSelect: the spec is taken out for the
            // duration of the emit so the column loop can borrow freely.
            let mut ps = self.push.take().expect("checked is_some");
            let r = self.emit_fragment_pushed(&mut ps, start, n, prof);
            self.push = Some(ps);
            return r;
        }
        self.out.reset();
        self.out.len = n;
        let t_scan = prof.start();
        // Decode-on-refill accounting across all compressed columns in
        // this fragment (raw-equivalent bytes, compressed bytes touched,
        // exception patches applied).
        let mut dec_raw = 0u64;
        let mut dec_comp = 0u64;
        let mut dec_exc = 0u64;
        // Column reads to route through the buffer manager; collected
        // so the fallible I/O happens outside the &mut modes borrow.
        let mut reads: Vec<(usize, u64, u64)> = Vec::with_capacity(self.cols.len());
        // Plain/code reads first (the "Scan" operator's own work); enum
        // columns read their codes here and decode in a second pass.
        for (k, &ci) in self.cols.iter().enumerate() {
            let sc = self.table.column(ci);
            let reader = &mut self.comp[k];
            // Compressed chunk reads are their own fault-injection site.
            if reader.is_some() {
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(x100_storage::FaultSite::CompressedRead, ci as u32)
                        .map_err(site_io)?;
                }
            }
            let mut pooled = None;
            let dst: &mut Vector = match &mut self.modes[k] {
                ColMode::Decode { codes, .. } => codes,
                // Dense decode overwrites every position, so the
                // recycled vector can skip its clear + re-zero pass.
                ColMode::Plain | ColMode::Codes if reader.is_some() => {
                    pooled.insert(self.pools[k].writable_dirty())
                }
                ColMode::Plain | ColMode::Codes => pooled.insert(self.pools[k].writable()),
            };
            let t0 = prof.start();
            let decoded = match reader {
                Some(r) => r.read(&self.table, &self.ctx, prof, |cc, s| {
                    cc.decode_range(start, n, dst, &mut s.cursor, &mut s.frames)
                })?,
                None => None,
            };
            match (decoded, sc.compressed()) {
                (Some(st), Some(cc)) => {
                    prof.record_prim(
                        cc.decode_sig(),
                        t0,
                        n,
                        st.comp_len as usize + dst.byte_size(),
                    );
                    prof.max_counter("compress_ratio", cc.ratio_pct());
                    dec_raw += dst.byte_size() as u64;
                    dec_comp += st.comp_len;
                    dec_exc += st.exceptions;
                    reads.push((ci, st.comp_offset, st.comp_len));
                }
                _ => {
                    sc.physical().read_into(start, n, dst);
                    reads.push((
                        ci,
                        (start * sc.physical_type().width()) as u64,
                        dst.byte_size() as u64,
                    ));
                }
            }
            match pooled {
                Some(v) => self.pools[k].publish(v, &mut self.out),
                // Placeholder slot; replaced by the decode pass below.
                None => self.out.columns.push(self.placeholder.clone()),
            }
        }
        prof.record_op("Scan", t_scan, n);
        if dec_raw > 0 {
            prof.add_counter("scan_bytes_raw", dec_raw);
            prof.add_counter("scan_bytes_compressed", dec_comp);
            prof.add_counter("decode_exceptions", dec_exc);
        }
        self.charge_scratch(0)?;
        for (ci, offset, len) in reads {
            self.bm_read(ci, offset, len)?;
        }
        // Decode pass: one Fetch1Join(ENUM) per enum column. The
        // dictionary gather is its own fault-injection site.
        for (k, &ci) in self.cols.iter().enumerate() {
            if let ColMode::Decode { codes, sig } = &self.modes[k] {
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(x100_storage::FaultSite::DictLookup, ci as u32)
                        .map_err(site_io)?;
                }
                let dict = self.table.column(ci).dict().ok_or_else(|| {
                    PlanError::Invalid(format!(
                        "decode mode without dictionary on column `{}`",
                        self.fields[k].name
                    ))
                })?;
                let t0 = prof.start();
                let mut v = self.pools[k].writable();
                v.resize_zeroed(n);
                decode_codes(codes, dict.values(), &mut v);
                let bytes = codes.byte_size() + v.byte_size();
                prof.record_prim(sig, t0, n, bytes);
                prof.record_op("Fetch1Join(ENUM)", t0, n);
                self.pools[k].publish_at(v, &mut self.out, k);
            }
        }
        // Deletion mask.
        self.scratch_del.clear();
        self.table.deletes().deleted_in_range(
            start as u32,
            (start + n) as u32,
            &mut self.scratch_del,
        );
        if !self.scratch_del.is_empty() {
            let mut sel = self.sel_pool.writable();
            let buf = sel.buf_mut();
            let mut d = 0usize;
            for i in 0..n as u32 {
                if d < self.scratch_del.len() && self.scratch_del[d] == i {
                    d += 1;
                } else {
                    buf.push(i);
                }
            }
            self.sel_pool.publish(sel, &mut self.out);
        }
        Ok(())
    }

    /// Fused `CompressedScanSelect` refill: evaluate the pushed
    /// predicate in encoded space over `[start, start+n)` — PFOR lanes
    /// are compared packed, PDICT predicates were rewritten against the
    /// dictionary at bind — then decode *only* the surviving positions
    /// of every scanned column. The batch comes out compacted (no
    /// selection vector): unselected values are never materialized.
    fn emit_fragment_pushed(
        &mut self,
        ps: &mut PushSpec,
        start: usize,
        n: usize,
        prof: &mut Profiler,
    ) -> Result<(), PlanError> {
        self.out.reset();
        let t_op = prof.start();
        // Phase 1: selection over the packed lanes of the predicate
        // column, without unpacking.
        let kp = ps.k;
        let ci_p = self.cols[kp];
        if let Some(fs) = self.ctx.fault_state() {
            fs.check_site(x100_storage::FaultSite::CompressedRead, ci_p as u32)
                .map_err(site_io)?;
        }
        let sc_p = self.table.column(ci_p);
        let cc_p = sc_p.compressed().expect("pushdown on uncompressed column");
        let reader = self.comp[kp]
            .as_mut()
            .expect("pushdown without ChunkReader");
        let t0 = prof.start();
        let selected = reader.read(&self.table, &self.ctx, prof, |cc, s| {
            ps.sel.clear();
            cc.select_range(&ps.p, start, n, &mut ps.sel, &mut s.pos, &mut s.cursor)
        })?;
        // With no intact chunks left, filter the retained raw fragment
        // in value space (identical survivors); the payload columns
        // then gather from the raw fragment too.
        let recovered = selected.is_none();
        if recovered {
            ps.sel.clear();
            raw_filter(sc_p.physical(), start, n, &ps.p, &mut ps.sel);
        } else {
            prof.record_prim(ps.p.sig(), t0, n, n * sc_p.physical_type().width());
        }
        prof.add_counter("pushdown_vectors", 1);
        prof.max_counter("compress_ratio", cc_p.ratio_pct());
        if ps.p.is_dict_rewrite() && !ps.counted {
            ps.counted = true;
            prof.add_counter("dict_predicate_rewrites", 1);
        }
        // Deletion mask folds into the selection before any decode.
        self.scratch_del.clear();
        self.table.deletes().deleted_in_range(
            start as u32,
            (start + n) as u32,
            &mut self.scratch_del,
        );
        if !self.scratch_del.is_empty() {
            let dels = &self.scratch_del;
            let mut d = 0usize;
            ps.sel.retain(|&p| {
                while d < dels.len() && dels[d] < p {
                    d += 1;
                }
                !(d < dels.len() && dels[d] == p)
            });
        }
        prof.add_counter("decode_skipped_values", (n - ps.sel.len()) as u64);
        // Phase 2: lazy materialization — decode/gather only the
        // surviving positions of every scanned column.
        self.out.len = ps.sel.len();
        let mut reads = std::mem::take(&mut self.scratch_reads);
        reads.clear();
        for (k, &ci) in self.cols.iter().enumerate() {
            let sc = self.table.column(ci);
            let reader = &mut self.comp[k];
            if reader.is_some() {
                if let Some(fs) = self.ctx.fault_state() {
                    fs.check_site(x100_storage::FaultSite::CompressedRead, ci as u32)
                        .map_err(site_io)?;
                }
            }
            match &mut self.modes[k] {
                ColMode::Plain | ColMode::Codes => {
                    let mut v = self.pools[k].writable();
                    let t0 = prof.start();
                    let decoded = match (reader, sc.compressed()) {
                        (Some(r), Some(cc)) if !recovered => match cc.decode_sel_sig() {
                            Some(sig) => r
                                .read(&self.table, &self.ctx, prof, |cc, s| {
                                    cc.decode_positions(
                                        start,
                                        &ps.sel,
                                        &mut v,
                                        &mut s.pos,
                                        &mut s.cursor,
                                    )
                                })?
                                .map(|st| {
                                    let bytes = st.comp_len as usize + v.byte_size();
                                    prof.record_prim(sig, t0, ps.sel.len(), bytes);
                                    (st.comp_offset, st.comp_len)
                                }),
                            None => {
                                // PFOR-DELTA co-column: positional seek
                                // from the nearest sync point.
                                ps.abs.clear();
                                ps.abs.extend(ps.sel.iter().map(|&p| start as u32 + p));
                                r.read(&self.table, &self.ctx, prof, |cc, s| {
                                    cc.gather(
                                        &ps.abs,
                                        &mut v,
                                        &mut s.frames,
                                        &mut s.pos,
                                        &mut s.cursor,
                                    )
                                })?
                                .map(|()| {
                                    let sig = cc.decode_sig();
                                    prof.record_prim(sig, t0, ps.sel.len(), v.byte_size());
                                    (0, v.byte_size() as u64)
                                })
                            }
                        },
                        _ => None,
                    };
                    match decoded {
                        Some((offset, len)) => reads.push((ci, offset, len)),
                        None => {
                            // Raw fragment gather: only selected
                            // positions are touched.
                            gather_raw(sc.physical(), start, &ps.sel, &mut v);
                            reads.push((
                                ci,
                                (start * sc.physical_type().width()) as u64,
                                v.byte_size() as u64,
                            ));
                        }
                    }
                    self.pools[k].publish(v, &mut self.out);
                }
                ColMode::Decode { codes, sig } => {
                    // Gather surviving codes, then dictionary-decode the
                    // compacted code vector (Fetch1Join(ENUM) as usual,
                    // but over survivors only).
                    gather_raw(sc.physical(), start, &ps.sel, codes);
                    reads.push((
                        ci,
                        (start * sc.physical_type().width()) as u64,
                        codes.byte_size() as u64,
                    ));
                    if let Some(fs) = self.ctx.fault_state() {
                        fs.check_site(x100_storage::FaultSite::DictLookup, ci as u32)
                            .map_err(site_io)?;
                    }
                    let dict = self.table.column(ci).dict().ok_or_else(|| {
                        PlanError::Invalid(format!(
                            "decode mode without dictionary on column `{}`",
                            self.fields[k].name
                        ))
                    })?;
                    let t0 = prof.start();
                    let mut v = self.pools[k].writable();
                    v.resize_zeroed(ps.sel.len());
                    decode_codes(codes, dict.values(), &mut v);
                    prof.record_prim(sig, t0, ps.sel.len(), codes.byte_size() + v.byte_size());
                    prof.record_op("Fetch1Join(ENUM)", t0, ps.sel.len());
                    self.pools[k].publish(v, &mut self.out);
                }
            }
        }
        prof.record_op("CompressedScanSelect", t_op, n);
        self.charge_scratch((ps.sel.capacity() + ps.abs.capacity()) * std::mem::size_of::<u32>())?;
        for &(ci, offset, len) in &reads {
            self.bm_read(ci, offset, len)?;
        }
        self.scratch_reads = reads;
        Ok(())
    }

    /// Produce one batch from the delta region. Delta reads are their
    /// own fault-injection site, distinct from chunked fragment reads.
    fn emit_delta(&mut self, start: usize, n: usize, prof: &mut Profiler) -> Result<(), PlanError> {
        self.out.reset();
        self.out.len = n;
        let t_scan = prof.start();
        for (k, &ci) in self.cols.iter().enumerate() {
            if let Some(fs) = self.ctx.fault_state() {
                fs.check_site(x100_storage::FaultSite::DeltaRead, ci as u32)
                    .map_err(site_io)?;
            }
            let mut v = self.pools[k].writable();
            // Delta rows are stored logically; code columns cannot be
            // served from the delta (the binder rejects code scans on
            // tables with pending inserts).
            match self.modes[k] {
                ColMode::Codes => unreachable!(
                    "raw-code scan of column `{}` with pending insert deltas rejected at bind",
                    self.fields[k].name
                ),
                _ => self.table.read_delta(ci, start, n, &mut v),
            }
            self.pools[k].publish(v, &mut self.out);
        }
        prof.record_op("Scan(delta)", t_scan, n);
        let base = (self.table.fragment_rows() + start) as u32;
        self.scratch_del.clear();
        self.table
            .deletes()
            .deleted_in_range(base, base + n as u32, &mut self.scratch_del);
        if !self.scratch_del.is_empty() {
            let mut sel = self.sel_pool.writable();
            let buf = sel.buf_mut();
            let mut d = 0usize;
            for i in 0..n as u32 {
                if d < self.scratch_del.len() && self.scratch_del[d] == i {
                    d += 1;
                } else {
                    buf.push(i);
                }
            }
            self.sel_pool.publish(sel, &mut self.out);
        }
        Ok(())
    }
}

/// Typed I/O error for a storage-fault site that exhausted its retries.
fn site_io(e: x100_storage::StorageFaultError) -> PlanError {
    PlanError::Io {
        site: e.site,
        unrecoverable: false,
        detail: e.to_string(),
    }
}

/// Decode enum codes through the dictionary into a logical vector.
fn decode_codes(codes: &Vector, dict: &ColumnData, out: &mut Vector) {
    use x100_vector::fetch::{fetch_u16_codes, fetch_u8_codes};
    match (codes, dict, out) {
        (Vector::U8(c), ColumnData::F64(d), Vector::F64(o)) => fetch_u8_codes(o, d, c, None),
        (Vector::U8(c), ColumnData::I64(d), Vector::I64(o)) => fetch_u8_codes(o, d, c, None),
        (Vector::U8(c), ColumnData::I32(d), Vector::I32(o)) => fetch_u8_codes(o, d, c, None),
        (Vector::U16(c), ColumnData::F64(d), Vector::F64(o)) => fetch_u16_codes(o, d, c, None),
        (Vector::U16(c), ColumnData::I64(d), Vector::I64(o)) => fetch_u16_codes(o, d, c, None),
        (Vector::U16(c), ColumnData::I32(d), Vector::I32(o)) => fetch_u16_codes(o, d, c, None),
        (Vector::U8(c), ColumnData::Str(d), Vector::Str(o)) => {
            o.clear();
            for &code in c {
                o.push(d.get(code as usize));
            }
        }
        (Vector::U16(c), ColumnData::Str(d), Vector::Str(o)) => {
            o.clear();
            for &code in c {
                o.push(d.get(code as usize));
            }
        }
        (c, d, o) => panic!(
            "decode mismatch: codes {:?}, dict {:?}, out {:?}",
            c.scalar_type(),
            d.scalar_type(),
            o.scalar_type()
        ),
    }
}

/// Gather `data[start + sel[j]]` into a compacted vector: the raw-side
/// half of the lazy-materialization path (only survivors are touched).
fn gather_raw(data: &ColumnData, start: usize, sel: &[u32], out: &mut Vector) {
    macro_rules! g {
        ($b:expr, $o:expr) => {{
            $o.clear();
            $o.extend(sel.iter().map(|&p| $b[start + p as usize]));
        }};
    }
    match (data, out) {
        (ColumnData::I8(b), Vector::I8(o)) => g!(b, o),
        (ColumnData::I16(b), Vector::I16(o)) => g!(b, o),
        (ColumnData::I32(b), Vector::I32(o)) => g!(b, o),
        (ColumnData::I64(b), Vector::I64(o)) => g!(b, o),
        (ColumnData::U8(b), Vector::U8(o)) => g!(b, o),
        (ColumnData::U16(b), Vector::U16(o)) => g!(b, o),
        (ColumnData::U32(b), Vector::U32(o)) => g!(b, o),
        (ColumnData::U64(b), Vector::U64(o)) => g!(b, o),
        (ColumnData::F64(b), Vector::F64(o)) => g!(b, o),
        (ColumnData::Str(b), Vector::Str(o)) => {
            o.clear();
            for &p in sel {
                o.push(b.get(start + p as usize));
            }
        }
        (d, o) => panic!(
            "gather_raw mismatch: column {:?}, out {:?}",
            d.scalar_type(),
            o.scalar_type()
        ),
    }
}

/// Value-space twin of the encoded-space pushdown, over the retained raw
/// fragment — the torn-chunk recovery path. Semantics match the
/// compressed kernels exactly (native comparisons, `Between` inclusive).
fn raw_filter(data: &ColumnData, start: usize, n: usize, p: &Pushdown, out: &mut Vec<u32>) {
    fn keep<T: PartialOrd + Copy>(a: &[T], lo: T, hi: Option<T>, op: PushOp, out: &mut Vec<u32>) {
        for (i, &x) in a.iter().enumerate() {
            let hit = match op {
                PushOp::Eq => x == lo,
                PushOp::Ne => x != lo,
                PushOp::Lt => x < lo,
                PushOp::Le => x <= lo,
                PushOp::Gt => x > lo,
                PushOp::Ge => x >= lo,
                PushOp::Between => x >= lo && hi.is_some_and(|h| x <= h),
            };
            if hit {
                out.push(i as u32);
            }
        }
    }
    macro_rules! f {
        ($b:expr, $vv:ident) => {{
            let lo = match p.lo() {
                Value::$vv(x) => *x,
                _ => unreachable!("pushdown constant type-checked at compile"),
            };
            let hi = p.hi().map(|h| match h {
                Value::$vv(x) => *x,
                _ => unreachable!("pushdown constant type-checked at compile"),
            });
            keep(&$b[start..start + n], lo, hi, p.op(), out)
        }};
    }
    match data {
        ColumnData::I8(b) => f!(b, I8),
        ColumnData::I16(b) => f!(b, I16),
        ColumnData::I32(b) => f!(b, I32),
        ColumnData::I64(b) => f!(b, I64),
        ColumnData::U8(b) => f!(b, U8),
        ColumnData::U16(b) => f!(b, U16),
        ColumnData::U32(b) => f!(b, U32),
        ColumnData::U64(b) => f!(b, U64),
        ColumnData::F64(b) => f!(b, F64),
        ColumnData::Str(b) => {
            let lo = match p.lo() {
                Value::Str(x) => x.as_str(),
                _ => unreachable!("pushdown constant type-checked at compile"),
            };
            let hi = p.hi().map(|h| match h {
                Value::Str(x) => x.as_str(),
                _ => unreachable!("pushdown constant type-checked at compile"),
            });
            for i in 0..n {
                let x = b.get(start + i);
                let hit = match p.op() {
                    PushOp::Eq => x == lo,
                    PushOp::Ne => x != lo,
                    PushOp::Lt => x < lo,
                    PushOp::Le => x <= lo,
                    PushOp::Gt => x > lo,
                    PushOp::Ge => x >= lo,
                    PushOp::Between => x >= lo && hi.is_some_and(|h| x <= h),
                };
                if hit {
                    out.push(i as u32);
                }
            }
        }
    }
}

impl Operator for ScanOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        // One governance checkpoint per produced vector.
        self.ctx.check()?;
        loop {
            let Some(&m) = self.morsels.get(self.mcur) else {
                return Ok(None);
            };
            if self.moff >= m.len {
                self.mcur += 1;
                self.moff = 0;
                continue;
            }
            let n = (m.len - self.moff).min(self.vector_size);
            let start = m.start + self.moff;
            self.moff += n;
            if m.delta {
                self.emit_delta(start, n, prof)?;
            } else {
                self.emit_fragment(start, n, prof)?;
            }
            return Ok(Some(&self.out));
        }
    }

    fn reset(&mut self) {
        self.mcur = 0;
        self.moff = 0;
        // Drop sequential decode positions so a re-run starts clean.
        for r in self.comp.iter_mut().flatten() {
            r.rewind();
        }
    }
}
