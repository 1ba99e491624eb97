//! Declarative X100 algebra plans (paper Fig. 7) and their binder.
//!
//! A [`Plan`] is the value-level form of the paper's algebra:
//!
//! ```text
//! Table(ID)                                          : Table
//! Scan(Table)                                        : Dataflow
//! Array(List<Exp<int>>)                              : Dataflow
//! Select(Dataflow, Exp<bool>)                        : Dataflow
//! Join(Dataflow, Table, Exp<bool>, List<Column>)     : Dataflow
//! CartProd(Dataflow, Table, List<Column>)
//! Fetch1Join(Dataflow, Table, Exp<int>, List<Column>)
//! FetchNJoin(Dataflow, Table, Exp<int>, Exp<int>, Column, List<Column>)
//! Project(Dataflow, List<Exp<*>>)                    : Dataflow
//! Aggr(Dataflow, List<Exp<*>>, List<AggrExp>)        : Dataflow
//! OrdAggr / DirectAggr / HashAggr(…)
//! TopN(Dataflow, List<OrdExp>, List<Exp<*>>, int)    : Dataflow
//! Order(Table, List<OrdExp>, List<AggrExp>)          : Table
//! ```
//!
//! [`Plan::bind`] resolves table and column names against a
//! [`crate::session::Database`] and produces the operator pipeline. Like
//! the paper's (planned) optimizer, the generic `Aggr` variant picks a
//! physical aggregation: *direct* when every key is a small-domain code
//! column, else *hash* (callers can force `OrdAggr`).

use crate::expr::{AggExpr, Expr};
use crate::govern::QueryContext;
use crate::ops::{
    ArrayOp, CartProdOp, DirectAggrOp, EmptyOp, Fetch1JoinOp, FetchNJoinOp, HashAggrOp, HashJoinOp,
    HashJoinProbeOp, JoinBuildTable, Operator, OrdAggrOp, OrdExp, ProjectOp, ScanOp, SelectOp,
    TopNOp,
};
use crate::ops::{DirectKey, JoinType, OrderOp};
use crate::session::{Database, ExecOptions};
use crate::PlanError;
use std::collections::HashMap;
use std::sync::Arc;
use x100_storage::{plan_morsels, EnumDict, Morsel, Table};

/// Pre-built shared join tables, keyed by the address of the
/// `Plan::HashJoin` node they were built for. The parallel driver builds
/// each join's table once on the main thread; worker binds look their
/// node up here and get a probe-only operator over the shared table.
/// Addresses are stable because driver and workers traverse the *same*
/// borrowed plan tree.
pub(crate) type SharedJoinMap = HashMap<usize, Arc<JoinBuildTable>>;

/// Key of a plan node in a [`SharedJoinMap`].
pub(crate) fn plan_key(p: &Plan) -> usize {
    p as *const Plan as usize
}

/// A key of a `DirectAggr`: must resolve to a code column with a known
/// small domain.
#[derive(Debug, Clone)]
pub struct DirectKeySpec {
    /// Output column name.
    pub name: String,
    /// Input (dataflow) column holding enum codes.
    pub col: String,
}

/// Range pruning hint for `Scan`: restricts fragment rows via the
/// column's summary index (§4.3). Conservative — an exact `Select` above
/// is still required.
#[derive(Debug, Clone)]
pub struct RangePrune {
    /// Clustered column carrying a summary index.
    pub col: String,
    /// Lower bound (inclusive), widened to i64.
    pub lo: Option<i64>,
    /// Upper bound (inclusive), widened to i64.
    pub hi: Option<i64>,
}

/// A declarative plan tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Vector-at-a-time scan; enum columns listed in `code_cols` are
    /// surfaced as raw codes (for direct aggregation), all others decode
    /// automatically via `Fetch1Join(ENUM)`.
    Scan {
        /// Table name in the database.
        table: String,
        /// Columns to scan (only these are touched).
        cols: Vec<String>,
        /// Enum columns to keep as codes.
        code_cols: Vec<String>,
        /// Optional summary-index pruning.
        prune: Option<RangePrune>,
    },
    /// Zero-copy selection.
    Select {
        /// Input dataflow.
        input: Box<Plan>,
        /// Boolean predicate.
        pred: Expr,
    },
    /// Expression calculation (no duplicate elimination).
    Project {
        /// Input dataflow.
        input: Box<Plan>,
        /// Named output expressions.
        exprs: Vec<(String, Expr)>,
    },
    /// Generic aggregation: binder picks direct or hash.
    Aggr {
        /// Input dataflow.
        input: Box<Plan>,
        /// Group-by keys (named expressions).
        keys: Vec<(String, Expr)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Force direct (array-indexed) aggregation on code columns.
    DirectAggr {
        /// Input dataflow.
        input: Box<Plan>,
        /// Code-column keys.
        keys: Vec<DirectKeySpec>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Force ordered aggregation (input clustered on the keys).
    OrdAggr {
        /// Input dataflow.
        input: Box<Plan>,
        /// Group-by keys.
        keys: Vec<(String, Expr)>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Positional 1:1 join by `#rowId`.
    Fetch1Join {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Row-id expression (u32).
        rowid: Expr,
        /// `(target column, output alias)` pairs to fetch (decoded).
        fetch: Vec<(String, String)>,
        /// Enum columns fetched as raw codes (dictionary metadata
        /// propagates, enabling code predicates and direct aggregation
        /// downstream).
        fetch_codes: Vec<(String, String)>,
    },
    /// Positional 1:N join over a contiguous `#rowId` range.
    FetchNJoin {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Range start expression (u32).
        lo: Expr,
        /// Range length expression (u32).
        cnt: Expr,
        /// Columns to fetch.
        fetch: Vec<(String, String)>,
    },
    /// Cross product with a table.
    CartProd {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Columns to fetch.
        fetch: Vec<(String, String)>,
    },
    /// Nested-loop join = `CartProd` + `Select` (the paper's default).
    Join {
        /// Input dataflow.
        input: Box<Plan>,
        /// Target table.
        table: String,
        /// Join predicate over input + fetched columns.
        pred: Expr,
        /// Columns to fetch.
        fetch: Vec<(String, String)>,
    },
    /// Hash equi-join between two dataflows.
    HashJoin {
        /// Build side (fully materialized into the hash table).
        build: Box<Plan>,
        /// Probe side (streamed).
        probe: Box<Plan>,
        /// Build key expressions.
        build_keys: Vec<Expr>,
        /// Probe key expressions.
        probe_keys: Vec<Expr>,
        /// `(build column, alias)` payload (inner joins only).
        payload: Vec<(String, String)>,
        /// Join semantics.
        join_type: JoinType,
    },
    /// Bounded top-N by sort keys.
    TopN {
        /// Input dataflow.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<OrdExp>,
        /// Row limit.
        limit: usize,
    },
    /// Materializing sort.
    Order {
        /// Input dataflow.
        input: Box<Plan>,
        /// Sort keys.
        keys: Vec<OrdExp>,
    },
    /// N-dimensional coordinate generator.
    Array {
        /// Dimension extents.
        dims: Vec<i64>,
    },
}

/// Binder output: the operator plus per-column enum dictionaries (for
/// downstream direct aggregation).
type Bound = (Box<dyn Operator>, Vec<Option<EnumDict>>);

impl Plan {
    /// Bind this plan against `db`, producing an executable pipeline
    /// with its own (unshared) governor context derived from `opts`.
    pub fn bind(&self, db: &Database, opts: &ExecOptions) -> Result<Box<dyn Operator>, PlanError> {
        let ctx = self.checked_context(db, opts)?;
        Ok(self.bind_inner(db, opts, None, None, &ctx)?.0)
    }

    /// Verify the plan statically (ill-formed programs must never reach
    /// a kernel, see `crate::check`) and return a fresh governor context
    /// carrying the facts analyzer's proofs, for the caller to bind
    /// under.
    pub(crate) fn checked_context(
        &self,
        db: &Database,
        opts: &ExecOptions,
    ) -> Result<Arc<QueryContext>, PlanError> {
        let summary = crate::check::check_plan(db, self, opts)?;
        let ctx = opts.query_context();
        ctx.provide_plan_facts(summary.facts);
        Ok(ctx)
    }

    /// Bind with an optional morsel restriction on the leaf `Scan`
    /// (parallel workers bind one pipeline clone per disjoint morsel
    /// set) and an optional map of pre-built shared join tables
    /// (`HashJoin` nodes present in the map bind as probe-only
    /// operators). `None, None` reproduces the ordinary full-range bind.
    pub(crate) fn bind_inner(
        &self,
        db: &Database,
        opts: &ExecOptions,
        morsels: Option<&[Morsel]>,
        shared: Option<&SharedJoinMap>,
        ctx: &Arc<QueryContext>,
    ) -> Result<Bound, PlanError> {
        let vs = opts.vector_size;
        let comp = opts.compound_primitives;
        match self {
            Plan::Scan {
                table,
                cols,
                code_cols,
                prune,
            } => {
                let (op, dicts) = bind_scan(
                    db,
                    opts,
                    morsels,
                    ctx,
                    table,
                    cols,
                    code_cols,
                    prune.as_ref(),
                )?;
                Ok((Box::new(op), dicts))
            }
            Plan::Select { input, pred } => {
                // Constant-fold sink (see `crate::facts`): a predicate
                // proven always-true binds to the child alone; proven
                // always-false binds to an empty pipeline. The verdict
                // is keyed by node address, so every worker's bind of
                // the same borrowed plan folds identically.
                match ctx
                    .plan_facts()
                    .and_then(|f| f.select_verdicts.get(&plan_key(self)).copied())
                {
                    Some(true) => return input.bind_inner(db, opts, morsels, shared, ctx),
                    Some(false) => {
                        let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                        let op = EmptyOp::new(child.fields().to_vec());
                        return Ok((Box::new(op), dicts));
                    }
                    None => {}
                }
                // Compression-aware fusion: Select over a Scan of a
                // checkpoint-compressed column pushes (part of) the
                // predicate into encoded space — the scan refill becomes
                // a CompressedScanSelect and only surviving positions
                // are decoded. Remaining conjuncts stay a normal Select.
                if let Plan::Scan {
                    table,
                    cols,
                    code_cols,
                    prune,
                } = input.as_ref()
                {
                    if let Some(f) = fuse_scan_select(db, table, cols, code_cols, pred, opts) {
                        let (mut scan, dicts) = bind_scan(
                            db,
                            opts,
                            morsels,
                            ctx,
                            table,
                            cols,
                            code_cols,
                            prune.as_ref(),
                        )?;
                        scan.set_pushdown(&f.col, f.push)?;
                        let child: Box<dyn Operator> = Box::new(scan);
                        return match f.residual {
                            None => Ok((child, dicts)),
                            Some(res) => {
                                let res = rewrite_enum_literals(&res, child.fields(), &dicts);
                                let op = SelectOp::new(
                                    child,
                                    &res,
                                    vs,
                                    comp,
                                    opts.select_strategy,
                                    ctx.clone(),
                                )?;
                                Ok((Box::new(op), dicts))
                            }
                        };
                    }
                }
                let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let pred = rewrite_enum_literals(pred, child.fields(), &dicts);
                let op = SelectOp::new(child, &pred, vs, comp, opts.select_strategy, ctx.clone())?;
                Ok((Box::new(op), dicts))
            }
            Plan::Project { input, exprs } => {
                let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let exprs: Vec<(String, Expr)> = exprs
                    .iter()
                    .map(|(n, e)| (n.clone(), rewrite_enum_literals(e, child.fields(), &dicts)))
                    .collect();
                // Pass-through column refs keep their dict metadata.
                let out_dicts = exprs
                    .iter()
                    .map(|(_, e)| match e {
                        Expr::Col(name) => child
                            .fields()
                            .iter()
                            .position(|f| &f.name == name)
                            .and_then(|i| dicts[i].clone()),
                        _ => None,
                    })
                    .collect();
                let op = ProjectOp::new(child, &exprs, vs, comp, ctx.clone())?;
                Ok((Box::new(op), out_dicts))
            }
            Plan::Aggr { input, keys, aggs } => {
                let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                // Direct aggregation if *every* key is a bare reference to
                // a code column with a dictionary.
                let direct: Option<Vec<DirectKeySpec>> = keys
                    .iter()
                    .map(|(name, e)| match e {
                        Expr::Col(c) => {
                            let i = child.fields().iter().position(|f| &f.name == c)?;
                            dicts[i].as_ref().map(|_| DirectKeySpec {
                                name: name.clone(),
                                col: c.clone(),
                            })
                        }
                        _ => None,
                    })
                    .collect();
                match direct {
                    Some(dkeys) if !dkeys.is_empty() => {
                        bind_direct(child, &dicts, &dkeys, aggs, vs, comp, ctx)
                    }
                    _ => {
                        // Mixed / non-code keys: hash aggregation, but
                        // code-typed keys still group on codes and
                        // decode only at emission.
                        let key_dicts: Vec<Option<EnumDict>> = keys
                            .iter()
                            .map(|(_, e)| match e {
                                Expr::Col(c) => child
                                    .fields()
                                    .iter()
                                    .position(|f| &f.name == c)
                                    .and_then(|i| dicts[i].clone()),
                                _ => None,
                            })
                            .collect();
                        let op =
                            HashAggrOp::new(child, keys, key_dicts, aggs, vs, comp, ctx.clone())?;
                        let nd = op.fields().len();
                        Ok((Box::new(op), vec![None; nd]))
                    }
                }
            }
            Plan::DirectAggr { input, keys, aggs } => {
                let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                bind_direct(child, &dicts, keys, aggs, vs, comp, ctx)
            }
            Plan::OrdAggr { input, keys, aggs } => {
                let (child, _) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let op = OrdAggrOp::new(child, keys, aggs, vs, comp, ctx.clone())?;
                let nd = op.fields().len();
                Ok((Box::new(op), vec![None; nd]))
            }
            Plan::Fetch1Join {
                input,
                table,
                rowid,
                fetch,
                fetch_codes,
            } => {
                let (child, mut dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let t = db.table(table)?;
                if !fetch_codes.is_empty() && (t.delta_rows() > 0 || !t.deletes().is_empty()) {
                    return Err(PlanError::Invalid(format!(
                        "code fetch from `{table}` requires a reorganized table"
                    )));
                }
                let op = Fetch1JoinOp::new(
                    child,
                    t.clone(),
                    rowid,
                    fetch,
                    fetch_codes,
                    vs,
                    comp,
                    ctx.clone(),
                )?;
                dicts.extend(fetch.iter().map(|_| None));
                dicts.extend(
                    fetch_codes
                        .iter()
                        .map(|(src, _)| t.column_by_name(src).dict().cloned()),
                );
                Ok((Box::new(op), dicts))
            }
            Plan::FetchNJoin {
                input,
                table,
                lo,
                cnt,
                fetch,
            } => {
                let (child, mut dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let t = db.table(table)?;
                let op = FetchNJoinOp::new(child, t, lo, cnt, fetch, vs, comp, ctx.clone())?;
                dicts.extend(fetch.iter().map(|_| None));
                Ok((Box::new(op), dicts))
            }
            Plan::CartProd {
                input,
                table,
                fetch,
            } => {
                let (child, mut dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let t = db.table(table)?;
                let op = CartProdOp::new(child, t, fetch, vs, ctx.clone())?;
                dicts.extend(fetch.iter().map(|_| None));
                Ok((Box::new(op), dicts))
            }
            Plan::Join {
                input,
                table,
                pred,
                fetch,
            } => {
                // The paper's default join: CartProd with a Select on top.
                let (child, mut dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let t = db.table(table)?;
                let cart = CartProdOp::new(child, t, fetch, vs, ctx.clone())?;
                let op = SelectOp::new(
                    Box::new(cart),
                    pred,
                    vs,
                    comp,
                    opts.select_strategy,
                    ctx.clone(),
                )?;
                dicts.extend(fetch.iter().map(|_| None));
                Ok((Box::new(op), dicts))
            }
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                payload,
                join_type,
            } => {
                // With a pre-built shared table for this node, bind only
                // the probe side (over the worker's morsels) and probe
                // the table through a shared-table operator.
                if let Some(table) = shared.and_then(|m| m.get(&plan_key(self))) {
                    let (p, pdicts) = probe.bind_inner(db, opts, morsels, shared, ctx)?;
                    let op = HashJoinProbeOp::new(
                        p,
                        table.clone(),
                        probe_keys,
                        *join_type,
                        opts,
                        ctx.clone(),
                    )?;
                    let mut dicts = pdicts;
                    dicts.extend(payload.iter().map(|_| None));
                    return Ok((Box::new(op), dicts));
                }
                // The morsel restriction flows into the probe side only;
                // the build side always materializes full-range.
                let (b, _) = build.bind_inner(db, opts, None, shared, ctx)?;
                let (p, pdicts) = probe.bind_inner(db, opts, morsels, shared, ctx)?;
                let mut op = HashJoinOp::new(
                    b,
                    p,
                    build_keys,
                    probe_keys,
                    payload,
                    *join_type,
                    opts,
                    ctx.clone(),
                )?;
                // Bloom sizing feedback: a probe side that dwarfs the
                // build justifies more filter bits per build key.
                op.set_probe_rows_hint(probe_rows_estimate(probe, db));
                let mut dicts = pdicts;
                dicts.extend(payload.iter().map(|_| None));
                Ok((Box::new(op), dicts))
            }
            Plan::TopN { input, keys, limit } => {
                let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let op = TopNOp::new(child, keys, *limit, vs, ctx.clone())?;
                Ok((Box::new(op), dicts))
            }
            Plan::Order { input, keys } => {
                let (child, dicts) = input.bind_inner(db, opts, morsels, shared, ctx)?;
                let op = OrderOp::new(child, keys, vs, ctx.clone())?;
                Ok((Box::new(op), dicts))
            }
            Plan::Array { dims } => {
                let op = ArrayOp::new(dims, vs)?;
                let nd = op.fields().len();
                Ok((Box::new(op), vec![None; nd]))
            }
        }
    }
}

/// Construct the leaf `ScanOp` (full-range or morsel-restricted) and its
/// per-column dictionary metadata. Shared between the `Scan` arm and the
/// `Select`-fusion path.
#[allow(clippy::too_many_arguments)]
fn bind_scan(
    db: &Database,
    opts: &ExecOptions,
    morsels: Option<&[Morsel]>,
    ctx: &Arc<QueryContext>,
    table: &str,
    cols: &[String],
    code_cols: &[String],
    prune: Option<&RangePrune>,
) -> Result<(ScanOp, Vec<Option<EnumDict>>), PlanError> {
    let (t, range) = scan_prune_range(db, table, prune)?;
    let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
    let code_refs: Vec<&str> = code_cols.iter().map(|s| s.as_str()).collect();
    // A full scan is one morsel for the (pruned) fragment range and one
    // for the insert delta: the same vector boundaries as a worker's.
    let morsels = match morsels {
        Some(ms) => ms.to_vec(),
        None => {
            let frag = t.fragment_rows();
            let (s, e) = range.unwrap_or((0, frag));
            plan_morsels((s.min(frag), e.min(frag)), t.delta_rows(), 0)
        }
    };
    let op = ScanOp::new(
        t.clone(),
        &col_refs,
        &code_refs,
        morsels,
        opts.vector_size,
        db.buffer_manager(),
        ctx.clone(),
    )?;
    let dicts = cols
        .iter()
        .map(|c| {
            if code_cols.contains(c) {
                t.column_by_name(c).dict().cloned()
            } else {
                None
            }
        })
        .collect();
    Ok((op, dicts))
}

/// A successful `Scan→Select` fusion decision: the encoded-space
/// predicate plus whatever conjuncts could not be pushed.
pub(crate) struct FusedPushdown {
    /// Scanned column the pushdown binds to.
    pub col: String,
    /// The compiled encoded-space predicate.
    pub push: x100_storage::Pushdown,
    /// Conjuncts left for a normal `Select` above the fused scan.
    pub residual: Option<Expr>,
}

/// Decide whether (part of) `pred` can run in encoded space over one of
/// the scanned columns. Conservative: any doubt — unknown column, type
/// mismatch, unsupported codec/op pair, pending deltas — declines and
/// the ordinary decode-then-select pipeline binds instead. The same
/// decision runs in [`crate::check`] so the plan verifier sees exactly
/// the operators the binder will construct.
pub(crate) fn fuse_scan_select(
    db: &Database,
    table: &str,
    cols: &[String],
    code_cols: &[String],
    pred: &Expr,
    opts: &ExecOptions,
) -> Option<FusedPushdown> {
    use x100_storage::{ChunkFormat, PushOp};
    use x100_vector::CmpOp;
    if !opts.compressed_pushdown {
        return None;
    }
    let t = db.table(table).ok()?;
    // Delta rows bypass the compressed fragments; fusing would leave
    // them unfiltered, so decline until the table is reorganized.
    if t.delta_rows() > 0 {
        return None;
    }
    let mut conj: Vec<Expr> = Vec::new();
    flatten_and(pred, &mut conj);
    struct Cand {
        i: usize,
        col: String,
        op: PushOp,
        v: x100_vector::Value,
    }
    let mut cands: Vec<Cand> = Vec::new();
    for (i, e) in conj.iter().enumerate() {
        let Some((col, cmp, lit)) = cmp_parts(e) else {
            continue;
        };
        if !cols.contains(&col) || code_cols.contains(&col) {
            continue;
        }
        let Some(ci) = t.column_index(&col) else {
            continue;
        };
        let sc = t.column(ci);
        // Enum columns have their own bind-time rewrite (string literal
        // → dictionary code); the lane pushdown handles plain columns.
        if sc.dict().is_some() {
            continue;
        }
        let Some(cc) = sc.compressed() else {
            continue;
        };
        if !matches!(cc.format(), ChunkFormat::Pfor | ChunkFormat::Pdict) {
            continue;
        }
        let op = match cmp {
            CmpOp::Eq => PushOp::Eq,
            CmpOp::Ne => PushOp::Ne,
            CmpOp::Lt => PushOp::Lt,
            CmpOp::Le => PushOp::Le,
            CmpOp::Gt => PushOp::Gt,
            CmpOp::Ge => PushOp::Ge,
        };
        let Some(v) = coerce_lit(&lit, sc.physical_type()) else {
            continue;
        };
        cands.push(Cand { i, col, op, v });
    }
    let cc_of = |col: &str| {
        let ci = t.column_index(col).expect("candidate column resolved");
        t.column(ci).compressed().expect("candidate is compressed")
    };
    // Prefer a range pair (`lo <= c AND c <= hi`) fused as one Between.
    for a in &cands {
        for b in &cands {
            if a.i == b.i || a.col != b.col || a.op != PushOp::Ge || b.op != PushOp::Le {
                continue;
            }
            if let Some(p) = cc_of(&a.col).compile_pushdown(PushOp::Between, &a.v, Some(&b.v)) {
                return Some(FusedPushdown {
                    col: a.col.clone(),
                    push: p,
                    residual: rebuild_residual(&conj, &[a.i, b.i]),
                });
            }
        }
    }
    for c in &cands {
        if let Some(p) = cc_of(&c.col).compile_pushdown(c.op, &c.v, None) {
            return Some(FusedPushdown {
                col: c.col.clone(),
                push: p,
                residual: rebuild_residual(&conj, &[c.i]),
            });
        }
    }
    None
}

/// Split an `And` tree into its conjunct list.
fn flatten_and(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// Extract `col ⊙ literal` from a comparison, normalizing the literal
/// to the right (flipping the operator when it was on the left).
fn cmp_parts(e: &Expr) -> Option<(String, x100_vector::CmpOp, x100_vector::Value)> {
    use x100_vector::CmpOp;
    let flip = |op: CmpOp| match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    };
    let Expr::Cmp(op, l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Col(c), Expr::Lit(v)) => Some((c.clone(), *op, v.clone())),
        (Expr::Lit(v), Expr::Col(c)) => Some((c.clone(), flip(*op), v.clone())),
        _ => None,
    }
}

/// Coerce a comparison literal to the column's physical type, declining
/// when the value does not fit (no silent truncation — an out-of-range
/// literal stays on the decode-then-select path, whose map layer
/// promotes instead).
fn coerce_lit(v: &x100_vector::Value, ty: x100_vector::ScalarType) -> Option<x100_vector::Value> {
    use x100_vector::{ScalarType, Value};
    if v.scalar_type() == ty {
        return Some(v.clone());
    }
    let as_i = match v {
        Value::I8(x) => *x as i64,
        Value::I16(x) => *x as i64,
        Value::I32(x) => *x as i64,
        Value::I64(x) => *x,
        Value::U8(x) => *x as i64,
        Value::U16(x) => *x as i64,
        Value::U32(x) => *x as i64,
        Value::U64(x) => i64::try_from(*x).ok()?,
        _ => return None,
    };
    match ty {
        ScalarType::I8 => i8::try_from(as_i).ok().map(Value::I8),
        ScalarType::I16 => i16::try_from(as_i).ok().map(Value::I16),
        ScalarType::I32 => i32::try_from(as_i).ok().map(Value::I32),
        ScalarType::I64 => Some(Value::I64(as_i)),
        ScalarType::U8 => u8::try_from(as_i).ok().map(Value::U8),
        ScalarType::U16 => u16::try_from(as_i).ok().map(Value::U16),
        ScalarType::U32 => u32::try_from(as_i).ok().map(Value::U32),
        ScalarType::U64 => u64::try_from(as_i).ok().map(Value::U64),
        // Integer literal against a float column is exact in f64 for
        // anything the PFOR scale trick can represent.
        ScalarType::F64 => Some(Value::F64(as_i as f64)),
        _ => None,
    }
}

/// Re-`And` the conjuncts not consumed by the pushdown.
fn rebuild_residual(conj: &[Expr], used: &[usize]) -> Option<Expr> {
    let mut it = conj
        .iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, e)| e.clone());
    let first = it.next()?;
    Some(it.fold(first, |acc, e| Expr::And(Box::new(acc), Box::new(e))))
}

/// Resolve a `Scan`'s table and optional summary-index prune range.
/// Shared between the sequential binder and the parallel driver (which
/// needs the pruned range up front to plan morsels).
#[allow(clippy::type_complexity)]
pub(crate) fn scan_prune_range(
    db: &Database,
    table: &str,
    prune: Option<&RangePrune>,
) -> Result<(Arc<Table>, Option<(usize, usize)>), PlanError> {
    let t = db.table(table)?;
    let range = match prune {
        None => None,
        Some(p) => {
            let ci = t
                .column_index(&p.col)
                .ok_or_else(|| PlanError::UnknownColumn(p.col.clone()))?;
            let summary = t.column(ci).summary().ok_or_else(|| {
                PlanError::Invalid(format!("column `{}` has no summary index", p.col))
            })?;
            Some(summary.range_candidates(p.lo, p.hi))
        }
    };
    Ok((t, range))
}

/// Conservative bind-time upper bound on the rows a subtree can stream,
/// used as the hash join's probe-cardinality hint for Bloom filter
/// sizing. `Scan` reads the table cardinality (respecting a prune
/// range); row-preserving and row-reducing shapes pass through or clamp;
/// anything that can grow the stream or whose output cardinality is
/// data-dependent in both directions (aggregation group counts, inner
/// joins, cross products) gives up with `None`.
pub(crate) fn probe_rows_estimate(plan: &Plan, db: &Database) -> Option<usize> {
    match plan {
        Plan::Scan { table, prune, .. } => {
            let (t, range) = scan_prune_range(db, table, prune.as_ref()).ok()?;
            let frag = match range {
                Some((s, e)) => e.saturating_sub(s),
                None => t.fragment_rows(),
            };
            Some(frag + t.delta_rows())
        }
        Plan::Select { input, .. }
        | Plan::Project { input, .. }
        | Plan::Fetch1Join { input, .. }
        | Plan::Order { input, .. } => probe_rows_estimate(input, db),
        Plan::TopN { input, limit, .. } => Some(probe_rows_estimate(input, db)?.min(*limit)),
        // Semi/anti joins emit at most one row per probe row.
        Plan::HashJoin {
            probe,
            join_type: JoinType::LeftSemi | JoinType::LeftAnti,
            ..
        } => probe_rows_estimate(probe, db),
        Plan::Array { dims } => dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(usize::try_from(d).ok()?)),
        _ => None,
    }
}

/// Rewrite string-literal equality comparisons on enum *code* columns
/// into comparisons on the dictionary code, so predicates never decode
/// (paper §4.3: enumeration types). Literals absent from the dictionary
/// fold to boolean constants.
pub(crate) fn rewrite_enum_literals(
    e: &Expr,
    fields: &[crate::batch::OutField],
    dicts: &[Option<EnumDict>],
) -> Expr {
    use x100_vector::{CmpOp, ScalarType, Value};
    let code_of = |name: &str, lit: &str| -> Option<Option<Value>> {
        // Outer None: not a code column. Inner: the code, if present.
        let i = fields.iter().position(|f| f.name == name)?;
        let dict = dicts.get(i)?.as_ref()?;
        if !matches!(fields[i].ty, ScalarType::U8 | ScalarType::U16) {
            return None;
        }
        let x100_storage::ColumnData::Str(d) = dict.values() else {
            return None;
        };
        let code = (0..d.len()).find(|&c| d.get(c) == lit);
        Some(code.map(|c| {
            if fields[i].ty == ScalarType::U8 {
                Value::U8(c as u8)
            } else {
                Value::U16(c as u16)
            }
        }))
    };
    match e {
        Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), l, r) => {
            // Normalize literal to the right.
            let rewritten = (|| {
                let (c, s) = match (l.as_ref(), r.as_ref()) {
                    (Expr::Col(c), Expr::Lit(Value::Str(s))) => (c, s),
                    (Expr::Lit(Value::Str(s)), Expr::Col(c)) => (c, s),
                    _ => return None,
                };
                Some(match code_of(c, s)? {
                    Some(code) => Expr::Cmp(
                        *op,
                        Box::new(Expr::Col(c.clone())),
                        Box::new(Expr::Lit(code)),
                    ),
                    None => Expr::Lit(Value::Bool(*op == CmpOp::Ne)),
                })
            })();
            rewritten.unwrap_or_else(|| e.clone())
        }
        Expr::And(l, r) => Expr::And(
            Box::new(rewrite_enum_literals(l, fields, dicts)),
            Box::new(rewrite_enum_literals(r, fields, dicts)),
        ),
        Expr::Or(l, r) => Expr::Or(
            Box::new(rewrite_enum_literals(l, fields, dicts)),
            Box::new(rewrite_enum_literals(r, fields, dicts)),
        ),
        Expr::Not(x) => Expr::Not(Box::new(rewrite_enum_literals(x, fields, dicts))),
        Expr::Cast(ty, x) => Expr::Cast(*ty, Box::new(rewrite_enum_literals(x, fields, dicts))),
        Expr::Arith(op, l, r) => Expr::Arith(
            *op,
            Box::new(rewrite_enum_literals(l, fields, dicts)),
            Box::new(rewrite_enum_literals(r, fields, dicts)),
        ),
        Expr::Cmp(op, l, r) => Expr::Cmp(
            *op,
            Box::new(rewrite_enum_literals(l, fields, dicts)),
            Box::new(rewrite_enum_literals(r, fields, dicts)),
        ),
        other => other.clone(),
    }
}

fn bind_direct(
    child: Box<dyn Operator>,
    dicts: &[Option<EnumDict>],
    keys: &[DirectKeySpec],
    aggs: &[AggExpr],
    vs: usize,
    comp: bool,
    ctx: &Arc<QueryContext>,
) -> Result<Bound, PlanError> {
    let mut dkeys = Vec::new();
    for k in keys {
        let i = child
            .fields()
            .iter()
            .position(|f| f.name == k.col)
            .ok_or_else(|| PlanError::UnknownColumn(k.col.clone()))?;
        let dict = dicts[i].clone();
        let card = match (&dict, child.fields()[i].ty) {
            (Some(d), _) => d.cardinality() as u32,
            (None, x100_vector::ScalarType::U8) => 256,
            (None, x100_vector::ScalarType::U16) => 65536,
            (None, ty) => {
                return Err(PlanError::TypeMismatch(format!(
                    "direct aggregation key `{}` is {ty}, not a code column",
                    k.col
                )))
            }
        };
        dkeys.push(DirectKey {
            name: k.name.clone(),
            col: i,
            card,
            dict,
        });
    }
    let op = DirectAggrOp::new(child, dkeys, aggs, vs, comp, ctx.clone())?;
    let nd = op.fields().len();
    Ok((Box::new(op), vec![None; nd]))
}

/// Fluent constructors, so plans read like the paper's Fig. 9.
impl Plan {
    /// `Scan(table, cols)` with automatic enum decode.
    pub fn scan(table: impl Into<String>, cols: &[&str]) -> Plan {
        Plan::Scan {
            table: table.into(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
            code_cols: Vec::new(),
            prune: None,
        }
    }

    /// `Scan` keeping the listed enum columns as raw codes.
    pub fn scan_with_codes(table: impl Into<String>, cols: &[&str], code_cols: &[&str]) -> Plan {
        Plan::Scan {
            table: table.into(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
            code_cols: code_cols.iter().map(|s| s.to_string()).collect(),
            prune: None,
        }
    }

    /// Attach a summary-index range prune to a `Scan`.
    pub fn pruned(self, col: impl Into<String>, lo: Option<i64>, hi: Option<i64>) -> Plan {
        match self {
            Plan::Scan {
                table,
                cols,
                code_cols,
                ..
            } => Plan::Scan {
                table,
                cols,
                code_cols,
                prune: Some(RangePrune {
                    col: col.into(),
                    lo,
                    hi,
                }),
            },
            other => panic!("pruned() applies to Scan, got {other:?}"),
        }
    }

    /// `Select(self, pred)`.
    pub fn select(self, pred: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// `Project(self, exprs)`.
    pub fn project(self, exprs: Vec<(&str, Expr)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(n, e)| (n.to_owned(), e)).collect(),
        }
    }

    /// `Aggr(self, keys, aggs)` — binder picks the physical operator.
    pub fn aggr(self, keys: Vec<(&str, Expr)>, aggs: Vec<AggExpr>) -> Plan {
        Plan::Aggr {
            input: Box::new(self),
            keys: keys.into_iter().map(|(n, e)| (n.to_owned(), e)).collect(),
            aggs,
        }
    }

    /// `Fetch1Join(self, table, rowid, fetch)`.
    pub fn fetch1(self, table: impl Into<String>, rowid: Expr, fetch: &[(&str, &str)]) -> Plan {
        Plan::Fetch1Join {
            input: Box::new(self),
            table: table.into(),
            rowid,
            fetch: fetch
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            fetch_codes: Vec::new(),
        }
    }

    /// `Fetch1Join` that additionally fetches enum columns as raw codes
    /// (their dictionaries propagate for code predicates / direct
    /// aggregation downstream).
    pub fn fetch1_with_codes(
        self,
        table: impl Into<String>,
        rowid: Expr,
        fetch: &[(&str, &str)],
        fetch_codes: &[(&str, &str)],
    ) -> Plan {
        Plan::Fetch1Join {
            input: Box::new(self),
            table: table.into(),
            rowid,
            fetch: fetch
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
            fetch_codes: fetch_codes
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    /// `TopN(self, keys, limit)`.
    pub fn topn(self, keys: Vec<OrdExp>, limit: usize) -> Plan {
        Plan::TopN {
            input: Box::new(self),
            keys,
            limit,
        }
    }

    /// `Order(self, keys)`.
    pub fn order(self, keys: Vec<OrdExp>) -> Plan {
        Plan::Order {
            input: Box::new(self),
            keys,
        }
    }
}
