//! `Fetch1Join` and `FetchNJoin`: positional joins on `#rowId` (§4.1.2).
//!
//! "Just like the void type in MonetDB, X100 gives each table a virtual
//! #rowId column, which is just a densely ascending number from 0. The
//! Fetch1Join allows to positionally fetch column values by #rowId."
//!
//! `Fetch1Join` is 1:1 — each dataflow tuple fetches one row of the
//! target table (join indices over foreign keys make FK joins this
//! cheap). `FetchNJoin` is 1:N — each tuple carries a contiguous
//! `[lo, lo+cnt)` `#rowId` range (e.g. an order fetching its clustered
//! lineitems), which changes the dataflow cardinality.

use crate::batch::{Batch, OutField, VecPool};
use crate::compile::ExprProg;
use crate::expr::Expr;
use crate::govern::QueryContext;
use crate::ops::chunks::ChunkReader;
use crate::ops::{push_from, Operator};
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_storage::{ColumnData, Table};
use x100_vector::{fetch as vfetch, ScalarType, SelVec, StrVec, Vector};

/// A column to fetch from the target table.
struct FetchCol {
    /// Column index in the target table.
    col: usize,
    /// Decode signature for the trace.
    sig: String,
    /// Fetch raw enum codes instead of decoded values.
    as_codes: bool,
    /// Reader for gathering straight from compressed chunks.
    chunks: ChunkReader,
}

/// Trace label of a gather served straight from compressed chunks. It
/// is deliberately not a primitive signature: no registered kernel ran,
/// the column's codec did (see `CompressedColumn::gather`).
pub const COMPRESSED_GATHER: &str = "fetch_compressed_gather";

impl FetchCol {
    fn new(col: usize, ty: ScalarType, as_codes: bool) -> Self {
        FetchCol {
            col,
            sig: format!("map_fetch_u32_col_{}_col", ty.sig_name()),
            as_codes,
            chunks: ChunkReader::new(col),
        }
    }

    /// Positional fetch with the compressed fast path: dense
    /// (unselected) rowid vectors against a checkpointed fragment
    /// column gather directly from the packed chunks — PFOR-DELTA
    /// `#rowId` columns seek from the nearest sync point instead of
    /// decoding whole chunks. The gather takes the recovery ladder every
    /// compressed read shares ([`ChunkReader::read`]): a torn chunk
    /// heals from a durable replica, else the raw fragment serves the
    /// vector, else a typed `Io`. Returns the trace signature of what
    /// served the vector.
    fn gather(
        &mut self,
        table: &Table,
        rowids: &[u32],
        sel: Option<&SelVec>,
        out: &mut Vector,
        ctx: &QueryContext,
        prof: &mut Profiler,
    ) -> Result<&str, PlanError> {
        let sc = table.column(self.col);
        let frag_rows = table.fragment_rows() as u32;
        if sc.compressed().is_some()
            && sel.is_none()
            && (self.as_codes || sc.dict().is_none())
            && rowids.iter().all(|&r| r < frag_rows)
        {
            let gathered = self.chunks.read(table, ctx, prof, |cc, s| {
                cc.gather(rowids, out, &mut s.frames, &mut s.pos, &mut s.cursor)
            })?;
            if gathered.is_some() {
                prof.add_counter("fetch_compressed_gathers", 1);
                return Ok(COMPRESSED_GATHER);
            }
        }
        gather_positional(table, self.col, self.as_codes, rowids, sel, out);
        Ok(&self.sig)
    }
}

/// Fetch `table[rowids[i]].col` positionally into `out` under `sel`:
/// one bounds-checked pass over the fragment (enum columns decode
/// through the dictionary). Only when a selected rowid lies outside
/// the fragment, in the insert delta, does the vector take the slow
/// value path.
fn gather_positional(
    table: &Table,
    col: usize,
    as_codes: bool,
    rowids: &[u32],
    sel: Option<&SelVec>,
    out: &mut Vector,
) {
    let sc = table.column(col);
    // String gathers rebuild their output; fixed-width ones (and the
    // selected slow path's `set_value_at`) write in place.
    if out.scalar_type() != ScalarType::Str {
        out.resize_zeroed(rowids.len());
    }
    // Code fetch: gather the physical code column directly.
    let dict = if as_codes { None } else { sc.dict() };
    let in_frag = match (dict, sc.physical()) {
        (Some(dict), ColumnData::U8(c)) => gather_decode(c, dict.values(), rowids, sel, out),
        (Some(dict), ColumnData::U16(c)) => gather_decode(c, dict.values(), rowids, sel, out),
        (Some(_), c) => panic!("enum codes are U8/U16, got {:?}", c.scalar_type()),
        (None, data) => match (data, &mut *out) {
            (ColumnData::I8(b), Vector::I8(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::I16(b), Vector::I16(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::I32(b), Vector::I32(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::I64(b), Vector::I64(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::U8(b), Vector::U8(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::U16(b), Vector::U16(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::U32(b), Vector::U32(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::U64(b), Vector::U64(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::F64(b), Vector::F64(o)) => vfetch::try_fetch(o, b, rowids, sel),
            (ColumnData::Str(b), Vector::Str(o)) => {
                gather_str(o, rowids, sel, |r| (r < b.len()).then(|| b.get(r)))
            }
            (d, o) => panic!(
                "fetch mismatch: column {:?}, out {:?}",
                d.scalar_type(),
                o.scalar_type()
            ),
        },
    };
    if in_frag {
        return;
    }
    assert!(
        !as_codes,
        "code fetch into the delta region (binder forbids this)"
    );
    // Slow path: some selected rowids live in the delta region.
    match sel {
        None => {
            out.clear();
            for &r in rowids {
                out.push_value(&row_value(table, col, r));
            }
        }
        Some(s) => {
            // Positional writes for fixed-width types only; strings
            // with deltas + selection are handled valuewise.
            if out.scalar_type() == ScalarType::Str {
                let strvec = out.as_str_mut();
                strvec.clear();
                let mut next = s.iter().peekable();
                for (i, &r) in rowids.iter().enumerate() {
                    if next.peek() == Some(&i) {
                        next.next();
                        match row_value(table, col, r) {
                            x100_vector::Value::Str(v) => strvec.push(&v),
                            other => panic!("expected string, got {other:?}"),
                        }
                    } else {
                        strvec.push("");
                    }
                }
            } else {
                for i in s.iter() {
                    set_value_at(out, i, &row_value(table, col, rowids[i]));
                }
            }
        }
    }
}

/// Enum decode gather: `out[i] = dict[codes[rowids[i]]]` in one pass,
/// `false` if a selected rowid lies outside the fragment's code column.
fn gather_decode<C: Copy + Into<usize>>(
    codes: &[C],
    dict: &ColumnData,
    rowids: &[u32],
    sel: Option<&SelVec>,
    out: &mut Vector,
) -> bool {
    fn decode<C: Copy + Into<usize>, T: Copy>(
        codes: &[C],
        dict: &[T],
        rowids: &[u32],
        sel: Option<&SelVec>,
        out: &mut [T],
    ) -> bool {
        let value = |r: u32| codes.get(r as usize).map(|&c| dict[c.into()]);
        match sel {
            None => {
                for (o, &r) in out.iter_mut().zip(rowids) {
                    match value(r) {
                        Some(v) => *o = v,
                        None => return false,
                    }
                }
            }
            Some(s) => {
                for i in s.iter() {
                    match value(rowids[i]) {
                        Some(v) => out[i] = v,
                        None => return false,
                    }
                }
            }
        }
        true
    }
    match (dict, out) {
        (ColumnData::F64(d), Vector::F64(o)) => decode(codes, d, rowids, sel, o),
        (ColumnData::I64(d), Vector::I64(o)) => decode(codes, d, rowids, sel, o),
        (ColumnData::I32(d), Vector::I32(o)) => decode(codes, d, rowids, sel, o),
        (ColumnData::Str(d), Vector::Str(o)) => {
            gather_str(o, rowids, sel, |r| codes.get(r).map(|&c| d.get(c.into())))
        }
        (d, o) => panic!(
            "enum fetch mismatch: dict {:?}, out {:?}",
            d.scalar_type(),
            o.scalar_type()
        ),
    }
}

/// String gather: rebuilds `o` positionally (unselected positions become
/// empty strings). `get` resolves a fragment row, `None` outside the
/// fragment, which fails the gather.
fn gather_str<'a>(
    o: &mut StrVec,
    rowids: &[u32],
    sel: Option<&SelVec>,
    get: impl Fn(usize) -> Option<&'a str>,
) -> bool {
    o.clear();
    let mut next = sel.map(|s| s.iter().peekable());
    for (i, &r) in rowids.iter().enumerate() {
        let selected = match &mut next {
            None => true,
            Some(it) => it.next_if_eq(&i).is_some(),
        };
        if !selected {
            o.push("");
            continue;
        }
        match get(r as usize) {
            Some(v) => o.push(v),
            None => return false,
        }
    }
    true
}

fn row_value(table: &Table, col: usize, rowid: u32) -> x100_vector::Value {
    // get_row is row-at-a-time; extract just one column.
    table.get_row(rowid)[col].clone()
}

fn set_value_at(out: &mut Vector, i: usize, v: &x100_vector::Value) {
    use x100_vector::Value;
    match (out, v) {
        (Vector::I8(o), Value::I8(x)) => o[i] = *x,
        (Vector::I16(o), Value::I16(x)) => o[i] = *x,
        (Vector::I32(o), Value::I32(x)) => o[i] = *x,
        (Vector::I64(o), Value::I64(x)) => o[i] = *x,
        (Vector::U8(o), Value::U8(x)) => o[i] = *x,
        (Vector::U16(o), Value::U16(x)) => o[i] = *x,
        (Vector::U32(o), Value::U32(x)) => o[i] = *x,
        (Vector::U64(o), Value::U64(x)) => o[i] = *x,
        (Vector::F64(o), Value::F64(x)) => o[i] = *x,
        (Vector::Bool(o), Value::Bool(x)) => o[i] = *x,
        (o, v) => panic!(
            "set_value_at mismatch: {:?} <- {:?}",
            o.scalar_type(),
            v.scalar_type()
        ),
    }
}

/// `Fetch1Join(Dataflow, Table, Exp<int>, List<Column>)` — 1:1
/// positional fetch; pass-through child columns plus fetched columns.
pub struct Fetch1JoinOp {
    child: Box<dyn Operator>,
    table: Arc<Table>,
    rowid_prog: ExprProg,
    fetch_cols: Vec<FetchCol>,
    fields: Vec<OutField>,
    pools: Vec<VecPool>,
    rowid_buf: Vec<u32>,
    out: Batch,
    ctx: Arc<QueryContext>,
}

impl Fetch1JoinOp {
    /// Bind: `rowid_expr` must produce `u32` row ids (a join-index
    /// column or an enum code widened to `u32`). `fetch_codes` columns
    /// must be enum-typed and are gathered as raw codes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        child: Box<dyn Operator>,
        table: Arc<Table>,
        rowid_expr: &Expr,
        fetch: &[(String, String)],
        fetch_codes: &[(String, String)],
        vector_size: usize,
        compound: bool,
        ctx: Arc<QueryContext>,
    ) -> Result<Self, PlanError> {
        let raw = ExprProg::compile(rowid_expr, child.fields(), vector_size, compound)?;
        let rowid_prog = if raw.result_type() == ScalarType::U32 {
            raw
        } else if matches!(raw.result_type(), ScalarType::U8 | ScalarType::U16) {
            ExprProg::compile(
                &Expr::Cast(ScalarType::U32, Box::new(rowid_expr.clone())),
                child.fields(),
                vector_size,
                compound,
            )?
        } else {
            return Err(PlanError::TypeMismatch(format!(
                "Fetch1Join rowid expression must be u32 (join index), got {}",
                raw.result_type()
            )));
        };
        let mut fetch_cols = Vec::new();
        let mut fields: Vec<OutField> = child.fields().to_vec();
        let mut pools: Vec<VecPool> = Vec::new();
        for (src, alias) in fetch {
            let ci = table
                .column_index(src)
                .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", table.name(), src)))?;
            let ty = table.column(ci).field().logical;
            fetch_cols.push(FetchCol::new(ci, ty, false));
            fields.push(OutField::new(alias.clone(), ty));
            pools.push(VecPool::new(ty, vector_size));
        }
        for (src, alias) in fetch_codes {
            let ci = table
                .column_index(src)
                .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", table.name(), src)))?;
            let sc = table.column(ci);
            if sc.dict().is_none() {
                return Err(PlanError::TypeMismatch(format!(
                    "column `{src}` is not enum-typed; use a plain fetch"
                )));
            }
            let ty = sc.physical_type();
            fetch_cols.push(FetchCol::new(ci, ty, true));
            fields.push(OutField::new(alias.clone(), ty));
            pools.push(VecPool::new(ty, vector_size));
        }
        Ok(Fetch1JoinOp {
            child,
            table,
            rowid_prog,
            fetch_cols,
            fields,
            pools,
            rowid_buf: Vec::new(),
            out: Batch::new(),
            ctx,
        })
    }
}

impl Operator for Fetch1JoinOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        let Some(batch) = self.child.next(prof)? else {
            return Ok(None);
        };
        let n = batch.len;
        let sel = batch.sel.as_deref();
        let live = batch.live();
        let t_op = prof.start();
        // Row ids.
        let rowids = self.rowid_prog.eval(batch, sel, prof);
        self.rowid_buf.clear();
        self.rowid_buf.extend_from_slice(rowids.as_u32());
        // Output: pass-through + fetched.
        self.out.reset();
        self.out.len = n;
        self.out.sel = batch.sel.clone();
        self.out.columns.extend(batch.columns.iter().cloned());
        for k in 0..self.fetch_cols.len() {
            let t0 = prof.start();
            let mut v = self.pools[k].writable();
            let rowids = &self.rowid_buf[..n];
            let sig =
                self.fetch_cols[k].gather(&self.table, rowids, sel, &mut v, &self.ctx, prof)?;
            prof.record_prim(sig, t0, live, live * 4 + v.byte_size());
            self.pools[k].publish(v, &mut self.out);
        }
        prof.record_op("Fetch1Join", t_op, live);
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
    }
}

/// `FetchNJoin(Dataflow, Table, Exp<int>, Exp<int>, Column,
/// List<Column>)` — 1:N positional fetch over contiguous `#rowId`
/// ranges; expands the dataflow cardinality.
pub struct FetchNJoinOp {
    child: Box<dyn Operator>,
    table: Arc<Table>,
    lo_prog: ExprProg,
    cnt_prog: ExprProg,
    fetch_cols: Vec<FetchCol>,
    fields: Vec<OutField>,
    child_arity: usize,
    pools: Vec<VecPool>,
    // Expansion state: the pending (child position, rowid range) queue.
    pending: Vec<(u32, u32, u32)>, // (child pos, lo, cnt)
    pend_idx: usize,
    pend_off: u32,
    // A retained copy of the current child batch (the child's buffers
    // are reused, so we must hold Rc clones while expanding).
    cur_cols: Vec<std::rc::Rc<Vector>>,
    rowid_scratch: Vec<u32>,
    out: Batch,
    vector_size: usize,
    done: bool,
    ctx: Arc<QueryContext>,
}

impl FetchNJoinOp {
    /// Bind: `lo` and `cnt` produce the `#rowId` range `[lo, lo+cnt)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        child: Box<dyn Operator>,
        table: Arc<Table>,
        lo: &Expr,
        cnt: &Expr,
        fetch: &[(String, String)],
        vector_size: usize,
        compound: bool,
        ctx: Arc<QueryContext>,
    ) -> Result<Self, PlanError> {
        let mk_u32 = |e: &Expr, child: &dyn Operator| -> Result<ExprProg, PlanError> {
            let raw = ExprProg::compile(e, child.fields(), vector_size, compound)?;
            if raw.result_type() == ScalarType::U32 {
                Ok(raw)
            } else {
                Err(PlanError::TypeMismatch(format!(
                    "FetchNJoin range expressions must be u32, got {}",
                    raw.result_type()
                )))
            }
        };
        let lo_prog = mk_u32(lo, child.as_ref())?;
        let cnt_prog = mk_u32(cnt, child.as_ref())?;
        let child_arity = child.fields().len();
        let mut fields: Vec<OutField> = child.fields().to_vec();
        let mut fetch_cols = Vec::new();
        let mut pools: Vec<VecPool> = fields
            .iter()
            .map(|f| VecPool::new(f.ty, vector_size))
            .collect();
        for (src, alias) in fetch {
            let ci = table
                .column_index(src)
                .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", table.name(), src)))?;
            let ty = table.column(ci).field().logical;
            fetch_cols.push(FetchCol::new(ci, ty, false));
            fields.push(OutField::new(alias.clone(), ty));
            pools.push(VecPool::new(ty, vector_size));
        }
        Ok(FetchNJoinOp {
            child,
            table,
            lo_prog,
            cnt_prog,
            fetch_cols,
            fields,
            child_arity,
            pools,
            pending: Vec::new(),
            pend_idx: 0,
            pend_off: 0,
            cur_cols: Vec::new(),
            rowid_scratch: Vec::new(),
            out: Batch::new(),
            vector_size,
            done: false,
            ctx,
        })
    }

    /// Pull the next child batch and compute its expansion ranges.
    fn refill(&mut self, prof: &mut Profiler) -> Result<bool, PlanError> {
        loop {
            let Some(batch) = self.child.next(prof)? else {
                return Ok(false);
            };
            let sel = batch.sel.as_deref();
            let lo = self.lo_prog.eval(batch, sel, prof).as_u32().to_vec();
            let cnt = self.cnt_prog.eval(batch, sel, prof).as_u32().to_vec();
            self.pending.clear();
            match sel {
                None => {
                    for i in 0..batch.len {
                        if cnt[i] > 0 {
                            self.pending.push((i as u32, lo[i], cnt[i]));
                        }
                    }
                }
                Some(s) => {
                    for i in s.iter() {
                        if cnt[i] > 0 {
                            self.pending.push((i as u32, lo[i], cnt[i]));
                        }
                    }
                }
            }
            if self.pending.is_empty() {
                continue;
            }
            self.cur_cols = batch.columns.clone();
            self.pend_idx = 0;
            self.pend_off = 0;
            return Ok(true);
        }
    }
}

impl Operator for FetchNJoinOp {
    fn fields(&self) -> &[OutField] {
        &self.fields
    }

    fn next(&mut self, prof: &mut Profiler) -> Result<Option<&Batch>, PlanError> {
        if self.done {
            return Ok(None);
        }
        if self.pend_idx >= self.pending.len() && !self.refill(prof)? {
            self.done = true;
            return Ok(None);
        }
        let t_op = prof.start();
        // Fill up to vector_size expanded tuples.
        self.rowid_scratch.clear();
        let mut child_pos: Vec<u32> = Vec::new();
        while self.rowid_scratch.len() < self.vector_size {
            if self.pend_idx >= self.pending.len() {
                break;
            }
            let (cpos, lo, cnt) = self.pending[self.pend_idx];
            let remaining = cnt - self.pend_off;
            let take = (self.vector_size - self.rowid_scratch.len()).min(remaining as usize) as u32;
            for k in 0..take {
                self.rowid_scratch.push(lo + self.pend_off + k);
                child_pos.push(cpos);
            }
            self.pend_off += take;
            if self.pend_off == cnt {
                self.pend_idx += 1;
                self.pend_off = 0;
            }
        }
        let n = self.rowid_scratch.len();
        self.out.reset();
        self.out.len = n;
        // Replicate child columns by position.
        for (k, colv) in self.cur_cols.iter().enumerate() {
            let mut v = self.pools[k].writable();
            for &cp in &child_pos {
                push_from(&mut v, colv, cp as usize);
            }
            self.pools[k].publish(v, &mut self.out);
        }
        // Fetch target columns.
        for j in 0..self.fetch_cols.len() {
            let t0 = prof.start();
            let mut v = self.pools[self.child_arity + j].writable();
            let rowids = &self.rowid_scratch;
            let sig =
                self.fetch_cols[j].gather(&self.table, rowids, None, &mut v, &self.ctx, prof)?;
            prof.record_prim(sig, t0, n, n * 4 + v.byte_size());
            self.pools[self.child_arity + j].publish(v, &mut self.out);
        }
        prof.record_op("FetchNJoin", t_op, n);
        Ok(Some(&self.out))
    }

    fn reset(&mut self) {
        self.child.reset();
        self.pending.clear();
        self.pend_idx = 0;
        self.pend_off = 0;
        self.cur_cols.clear();
        self.done = false;
    }
}
