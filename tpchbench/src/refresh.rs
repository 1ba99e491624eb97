//! RF1/RF2-style refresh batches that keep every join index valid.
//!
//! `reorganize()` re-densifies row ids, so deleting anywhere but the
//! tail of `orders`/`lineitem` would silently invalidate the
//! `li_*_idx` join indices and the `o_li_lo`/`o_li_cnt` ranges. Each
//! cycle therefore deletes exactly the batch the previous cycle
//! appended (the generated tail stands in for it on the first cycle),
//! and appends new orders whose join-index values are computed from
//! the live row counts left after that delete. Table sizes stay steady.

use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;
use x100_storage::Table;
use x100_vector::Value;

/// The rows the next RF2 deletes: one tail range per table.
#[derive(Debug, Clone)]
pub struct Tail {
    pub orders: Range<u32>,
    pub lineitems: Range<u32>,
}

/// One RF1 batch: new orders plus their lineitems, as logical rows in
/// column order.
pub struct Batch {
    pub orders: Vec<Vec<Value>>,
    pub lineitems: Vec<Vec<Value>>,
}

/// Column positions the batch generator rewrites.
pub struct Cols {
    o_orderkey: usize,
    o_li_lo: usize,
    o_li_cnt: usize,
    l_orderkey: usize,
    li_order_idx: usize,
}

fn col(t: &Table, name: &str) -> Result<usize, String> {
    t.column_index(name)
        .ok_or_else(|| format!("table {} has no column {name}", t.name()))
}

fn as_u32(v: &Value) -> Result<u32, String> {
    match v {
        Value::U32(x) => Ok(*x),
        other => Err(format!("expected a u32 join index, found {other:?}")),
    }
}

impl Cols {
    pub fn new(orders: &Table, lineitem: &Table) -> Result<Cols, String> {
        Ok(Cols {
            o_orderkey: col(orders, "o_orderkey")?,
            o_li_lo: col(orders, "o_li_lo")?,
            o_li_cnt: col(orders, "o_li_cnt")?,
            l_orderkey: col(lineitem, "l_orderkey")?,
            li_order_idx: col(lineitem, "li_order_idx")?,
        })
    }
}

/// The last `k` orders of freshly loaded tables and their lineitems,
/// which must be the lineitem tail (lineitem is clustered by order).
pub fn base_tail(orders: &Table, lineitem: &Table, cols: &Cols, k: usize) -> Result<Tail, String> {
    let n_o = orders.live_rows();
    let n_l = lineitem.live_rows();
    if orders.total_rows() != n_o || lineitem.total_rows() != n_l || k > n_o {
        return Err("refresh needs delta-free tables larger than one batch".into());
    }
    let first = (n_o - k) as u32;
    let lo = as_u32(&orders.get_row(first)[cols.o_li_lo])?;
    let cnt: u32 = (first..n_o as u32)
        .map(|r| as_u32(&orders.get_row(r)[cols.o_li_cnt]))
        .sum::<Result<u32, String>>()?;
    if lo as usize + cnt as usize != n_l {
        return Err("the last orders' lineitems are not the lineitem tail".into());
    }
    Ok(Tail {
        orders: first..n_o as u32,
        lineitems: lo..n_l as u32,
    })
}

/// Logical size of a row in bytes (strings by length).
pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::I8(_) | Value::U8(_) | Value::Bool(_) => 1,
            Value::I16(_) | Value::U16(_) => 2,
            Value::I32(_) | Value::U32(_) => 4,
            Value::I64(_) | Value::U64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// Logical bytes of the rows `tail` names (what RF2 deletes).
pub fn tail_bytes(orders: &Table, lineitem: &Table, tail: &Tail) -> u64 {
    let o: u64 = tail
        .orders
        .clone()
        .map(|r| row_bytes(&orders.get_row(r)))
        .sum();
    let l: u64 = tail
        .lineitems
        .clone()
        .map(|r| row_bytes(&lineitem.get_row(r)))
        .sum();
    o + l
}

/// Draw `k` new orders, each a copy of a random surviving order with
/// its lineitems, under fresh order keys from `next_key`. Join indices
/// point at the row ids the rows will get once `tail` is deleted and
/// the tables reorganized. Returns the batch and the tail it becomes.
pub fn make_batch(
    orders: &Table,
    lineitem: &Table,
    cols: &Cols,
    tail: &Tail,
    k: usize,
    next_key: &mut i64,
    rng: &mut StdRng,
) -> Result<(Batch, Tail), String> {
    let o_live = tail.orders.start;
    let l_live = tail.lineitems.start;
    let mut batch = Batch {
        orders: Vec::with_capacity(k),
        lineitems: Vec::new(),
    };
    for i in 0..k as u32 {
        let template = rng.gen_range(0..o_live);
        let mut order = orders.get_row(template);
        let lo = as_u32(&order[cols.o_li_lo])?;
        let cnt = as_u32(&order[cols.o_li_cnt])?;
        order[cols.o_orderkey] = Value::I64(*next_key);
        order[cols.o_li_lo] = Value::U32(l_live + batch.lineitems.len() as u32);
        for r in lo..lo + cnt {
            let mut li = lineitem.get_row(r);
            li[cols.l_orderkey] = Value::I64(*next_key);
            li[cols.li_order_idx] = Value::U32(o_live + i);
            batch.lineitems.push(li);
        }
        batch.orders.push(order);
        *next_key += 1;
    }
    let next = Tail {
        orders: o_live..o_live + k as u32,
        lineitems: l_live..l_live + batch.lineitems.len() as u32,
    };
    Ok((batch, next))
}

impl Batch {
    pub fn bytes(&self) -> u64 {
        self.orders
            .iter()
            .chain(&self.lineitems)
            .map(|r| row_bytes(r))
            .sum()
    }
}
