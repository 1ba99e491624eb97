//! Bind-time plan and primitive-program verification.
//!
//! X100's expression compiler emits straight-line primitive programs
//! whose inner loops carry no per-tuple interpretation overhead (§4.2,
//! Table 5) — which also means every type or selection-vector mistake
//! the compiler makes becomes a silent wrong answer or a panic deep
//! inside a kernel. This module makes ill-formed programs unrepresentable
//! at bind time: [`check_plan`] walks a [`Plan`] exactly the way the
//! binder does — deriving each node's output shape and enum-dictionary
//! metadata without constructing operators — compiles every expression
//! the binder would compile, and validates each emitted primitive
//! instruction against the typed catalog
//! ([`x100_vector::PrimitiveRegistry`]).
//!
//! Four defect classes are rejected, each as a typed
//! [`PlanError::PlanCheck`] with a precise node path:
//!
//! 1. **Type mismatches** ([`CheckViolation::TypeMismatch`]) — a
//!    primitive fed operands that disagree with its registered
//!    signature, or an expression that cannot type at all.
//! 2. **Selection-vector misuse** ([`CheckViolation::SelVectorMisuse`])
//!    — a `select_*` output fed where a dense vector is required (e.g. a
//!    position-dependent scatter running under a selection); see
//!    [`verify_program`].
//! 3. **Undecoded enum columns**
//!    ([`CheckViolation::UndecodedEnumColumn`]) — a dictionary-code
//!    column used as an arithmetic or cast operand without the
//!    sanctioned `Fetch1Join(ENUM)` decode. Bare code references,
//!    equality predicates (rewritten to code comparisons), and group-by
//!    keys are fine; doing *math* on codes is always a bug.
//! 4. **Unknown signatures** ([`CheckViolation::UnknownSignature`]) — a
//!    compiled instruction whose signature the registry has never heard
//!    of, including instances the interpreter cannot dispatch (a
//!    `map_eq_u64_col_col` projection would panic in kernel dispatch;
//!    here it is rejected before execution).
//!
//! The checker runs automatically in [`crate::session::execute`] and
//! [`Plan::bind`]; [`explain_check`] renders the walk for humans.

use crate::batch::OutField;
use crate::compile::{CheckViolation, ExprProg, Instr, Src};
use crate::expr::{AggExpr, AggFunc, Expr};
use crate::facts::{self, ColFact, FactRange, NodeFacts, PlanFacts};
use crate::plan::{plan_key, DirectKeySpec, Plan};
use crate::session::{Database, ExecOptions};
use crate::PlanError;
use std::sync::OnceLock;
use x100_storage::EnumDict;
use x100_vector::{CmpOp, PrimitiveRegistry, ScalarType, Value, VecShape};

/// What one [`check_plan`] walk verified (also the `--explain-check`
/// data source).
#[derive(Debug, Default)]
pub struct CheckSummary {
    /// Plan nodes visited.
    pub nodes: usize,
    /// Expression programs compiled and verified.
    pub programs: usize,
    /// Primitive instructions validated against the registry.
    pub instrs: usize,
    /// Human-readable walk log, one line per node / program.
    pub report: Vec<String>,
    /// The abstract states and proof sinks the facts analyzer inferred
    /// during the same walk ([`crate::facts`]). The binder consumes
    /// `select_verdicts` (constant folding); `fetch_proofs` are reported
    /// (`--explain-facts`) and pick no kernel.
    pub facts: PlanFacts,
}

impl CheckSummary {
    /// Render the walk log (the `--explain-check` output body).
    pub fn render(&self) -> String {
        let mut s = String::new();
        for line in &self.report {
            s.push_str(line);
            s.push('\n');
        }
        s.push_str(&format!(
            "plan check OK: {} nodes, {} programs, {} primitive instructions verified\n",
            self.nodes, self.programs, self.instrs
        ));
        s
    }
}

/// The process-wide primitive catalog (built once; signatures are
/// 'static).
fn registry() -> &'static PrimitiveRegistry {
    static REG: OnceLock<PrimitiveRegistry> = OnceLock::new();
    REG.get_or_init(PrimitiveRegistry::builtin)
}

/// Node shape the walker threads: output fields plus per-column enum
/// dictionary metadata, exactly as the binder derives them.
type Shape = (Vec<OutField>, Vec<Option<EnumDict>>);

/// Statically verify `plan` against `db` without executing it.
///
/// Walks the plan tree the way [`Plan::bind`] would, compiles every
/// expression program, and validates primitive typing, selection-vector
/// discipline, enum-decode discipline, and registry membership.
/// Non-check errors the binder would raise anyway (unknown tables or
/// columns, structural problems) surface unwrapped.
pub fn check_plan(
    db: &Database,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<CheckSummary, PlanError> {
    let mut c = Checker {
        db,
        opts,
        reg: registry(),
        summary: CheckSummary::default(),
    };
    c.walk(plan, "root")?;
    Ok(c.summary)
}

/// Verify a linear primitive program, given as its signature list, for
/// registry membership and selection-vector discipline.
///
/// The discipline: a `select_*` (or any selection-producing) primitive
/// switches the rest of the program to run *under* that selection;
/// dense-only position-dependent primitives (scatters, Bloom inserts,
/// sort permutations, hash-table maintenance — `consumes_sel == false`
/// in the catalog) must never appear there, because they would read a
/// selection vector where a dense vector is required.
pub fn verify_program<'a, I>(sigs: I) -> Result<(), PlanError>
where
    I: IntoIterator<Item = &'a str>,
{
    let reg = registry();
    let mut under_sel = false;
    for (i, sig) in sigs.into_iter().enumerate() {
        let path = format!("program.instr[{i}]");
        let desc = reg.get(sig).ok_or_else(|| PlanError::PlanCheck {
            path: path.clone(),
            violation: CheckViolation::UnknownSignature {
                signature: sig.to_owned(),
            },
        })?;
        if under_sel && !desc.info.consumes_sel {
            return Err(PlanError::PlanCheck {
                path,
                violation: CheckViolation::SelVectorMisuse {
                    signature: sig.to_owned(),
                    detail: "dense-only primitive runs under a selection vector \
                             (a select_* output upstream feeds it positions, \
                             but it requires a dense vector)"
                        .to_owned(),
                },
            });
        }
        if desc.info.produces_sel {
            under_sel = true;
        }
    }
    Ok(())
}

/// Run [`check_plan`] and render the result for humans — the engine of
/// the `--explain-check` CLI flag.
pub fn explain_check(db: &Database, plan: &Plan, opts: &ExecOptions) -> String {
    match check_plan(db, plan, opts) {
        Ok(summary) => summary.render(),
        Err(PlanError::PlanCheck { path, violation }) => {
            let class = match &violation {
                CheckViolation::TypeMismatch { .. } => "type-mismatch",
                CheckViolation::SelVectorMisuse { .. } => "sel-vector-misuse",
                CheckViolation::UndecodedEnumColumn { .. } => "undecoded-enum-column",
                CheckViolation::UnknownSignature { .. } => "unknown-signature",
                CheckViolation::SpillUnsupported { .. } => "spill-unsupported",
                CheckViolation::FactViolation { .. } => "fact-violation",
            };
            format!("plan check FAILED [{class}]\n  at   {path}\n  why  {violation}\n")
        }
        Err(other) => format!("plan check could not run: {other}\n"),
    }
}

/// Run [`check_plan`] and render the per-node abstract-interpretation
/// dump ([`crate::facts`]) — the engine of the `--explain-facts` CLI
/// flag.
pub fn explain_facts(db: &Database, plan: &Plan, opts: &ExecOptions) -> String {
    match check_plan(db, plan, opts) {
        Ok(summary) => summary.facts.render(),
        Err(PlanError::PlanCheck { path, violation }) => {
            format!("facts unavailable: plan check FAILED\n  at   {path}\n  why  {violation}\n")
        }
        Err(other) => format!("facts unavailable: {other}\n"),
    }
}

struct Checker<'a> {
    db: &'a Database,
    opts: &'a ExecOptions,
    reg: &'static PrimitiveRegistry,
    summary: CheckSummary,
}

impl<'a> Checker<'a> {
    /// Compile `e` against `fields`, wrapping the compiler's type errors
    /// as `PlanCheck` at `path` (name-resolution errors pass through
    /// unwrapped, matching the binder).
    fn compile_at(
        &mut self,
        e: &Expr,
        fields: &[OutField],
        path: &str,
    ) -> Result<ExprProg, PlanError> {
        let prog = ExprProg::compile(
            e,
            fields,
            self.opts.vector_size,
            self.opts.compound_primitives,
        )
        .map_err(|err| match err {
            PlanError::TypeMismatch(detail) => PlanError::PlanCheck {
                path: path.to_owned(),
                violation: CheckViolation::TypeMismatch {
                    signature: format!("{e:?}"),
                    detail,
                },
            },
            other => other,
        })?;
        self.summary.programs += 1;
        Ok(prog)
    }

    /// Validate every instruction of a compiled program: registry
    /// membership, operand typing against the registered signature, and
    /// the enum-decode rule.
    fn verify_prog(
        &mut self,
        prog: &ExprProg,
        fields: &[OutField],
        dicts: &[Option<EnumDict>],
        path: &str,
    ) -> Result<(), PlanError> {
        let src_ty = |s: Src| -> ScalarType {
            match s {
                Src::Col(i) => fields[i as usize].ty,
                Src::Reg(i) => prog.reg_types()[i as usize],
            }
        };
        for (i, (instr, sig)) in prog.instr_list().iter().enumerate() {
            self.summary.instrs += 1;
            let ipath = format!("{path}.instr[{i}]");
            let desc = self.reg.get(sig).ok_or_else(|| PlanError::PlanCheck {
                path: ipath.clone(),
                violation: CheckViolation::UnknownSignature {
                    signature: sig.clone(),
                },
            })?;
            let (context, srcs) = col_operands(instr);
            // Positional typing: the instruction's column operands must
            // match the registered signature's column inputs.
            let col_tys: Vec<ScalarType> = desc
                .info
                .inputs
                .iter()
                .filter(|a| a.shape == VecShape::Col)
                .map(|a| a.ty)
                .collect();
            if col_tys.len() == srcs.len() {
                for (want, &s) in col_tys.iter().zip(srcs.iter()) {
                    let got = src_ty(s);
                    if got != *want {
                        return Err(PlanError::PlanCheck {
                            path: ipath,
                            violation: CheckViolation::TypeMismatch {
                                signature: sig.clone(),
                                detail: format!("operand is {got}, primitive expects {want}"),
                            },
                        });
                    }
                }
            }
            // Enum-decode discipline: codes may be referenced, compared,
            // and grouped on — never fed to arithmetic or casts.
            let escapes = matches!(
                instr,
                Instr::ArithCC { .. }
                    | Instr::ArithCV { .. }
                    | Instr::ArithVC { .. }
                    | Instr::Cast { .. }
                    | Instr::FusedSubValMul { .. }
                    | Instr::FusedAddValMul { .. }
            );
            if escapes {
                for &s in &srcs {
                    if let Src::Col(ci) = s {
                        if dicts.get(ci as usize).is_some_and(|d| d.is_some()) {
                            return Err(PlanError::PlanCheck {
                                path: ipath,
                                violation: CheckViolation::UndecodedEnumColumn {
                                    column: fields[ci as usize].name.clone(),
                                    context: context.to_owned(),
                                },
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Mirror the select operator's predicate splitting
    /// ([`crate::ops::SelectOp`]): derive the `select_*` signature chain
    /// a conjunction compiles to and validate each one. Returns the
    /// signature chain (also fed to [`verify_program`]).
    fn check_select(
        &mut self,
        pred: &Expr,
        fields: &[OutField],
        dicts: &[Option<EnumDict>],
        path: &str,
    ) -> Result<Vec<String>, PlanError> {
        let mut sigs = Vec::new();
        self.select_steps(pred, fields, dicts, path, &mut sigs)?;
        for (i, sig) in sigs.iter().enumerate() {
            if !self.reg.contains(sig) {
                return Err(PlanError::PlanCheck {
                    path: format!("{path}.step[{i}]"),
                    violation: CheckViolation::UnknownSignature {
                        signature: sig.clone(),
                    },
                });
            }
        }
        verify_program(sigs.iter().map(|s| s.as_str()))?;
        Ok(sigs)
    }

    fn select_steps(
        &mut self,
        pred: &Expr,
        fields: &[OutField],
        dicts: &[Option<EnumDict>],
        path: &str,
        out: &mut Vec<String>,
    ) -> Result<(), PlanError> {
        let sel_val_supported = |reg: &PrimitiveRegistry, ty: ScalarType| {
            reg.contains(&format!("select_eq_{ty}_col_val"))
        };
        let sel_col_supported = |reg: &PrimitiveRegistry, ty: ScalarType| {
            reg.contains(&format!("select_eq_{ty}_col_col"))
        };
        match pred {
            Expr::And(l, r) => {
                self.select_steps(l, fields, dicts, path, out)?;
                self.select_steps(r, fields, dicts, path, out)
            }
            Expr::Lit(Value::Bool(_)) => Ok(()),
            Expr::Cmp(op, l, r) => {
                let lty = self.compile_at(l, fields, path)?;
                self.verify_prog(&lty, fields, dicts, path)?;
                if lty.result_type() == ScalarType::Str {
                    match (op, r.as_ref()) {
                        (CmpOp::Eq | CmpOp::Ne, Expr::Lit(Value::Str(_))) => {
                            out.push("select_eq_str_col_val".to_owned());
                            Ok(())
                        }
                        _ => Err(PlanError::PlanCheck {
                            path: path.to_owned(),
                            violation: CheckViolation::TypeMismatch {
                                signature: "select_eq_str_col_val".to_owned(),
                                detail: "string predicates support only = / != literal".to_owned(),
                            },
                        }),
                    }
                } else if let Expr::Lit(v) = r.as_ref() {
                    if (lty.result_type().is_integer() && v.scalar_type() == ScalarType::F64)
                        || !sel_val_supported(self.reg, lty.result_type())
                    {
                        // Promoting / unsupported comparison: the
                        // boolean-map fallback path.
                        let prog = self.compile_at(pred, fields, path)?;
                        self.verify_prog(&prog, fields, dicts, path)?;
                        out.push("select_true_bool_col".to_owned());
                        Ok(())
                    } else {
                        out.push(format!(
                            "select_{}_{}_col_val",
                            op.sig_name(),
                            lty.result_type().sig_name()
                        ));
                        Ok(())
                    }
                } else {
                    let rty = self.compile_at(r, fields, path)?;
                    self.verify_prog(&rty, fields, dicts, path)?;
                    if rty.result_type() != lty.result_type()
                        || !sel_col_supported(self.reg, lty.result_type())
                    {
                        let prog = self.compile_at(pred, fields, path)?;
                        self.verify_prog(&prog, fields, dicts, path)?;
                        out.push("select_true_bool_col".to_owned());
                        Ok(())
                    } else {
                        out.push(format!(
                            "select_{}_{}_col_col",
                            op.sig_name(),
                            lty.result_type().sig_name()
                        ));
                        Ok(())
                    }
                }
            }
            other => {
                let prog = self.compile_at(other, fields, path)?;
                if prog.result_type() != ScalarType::Bool {
                    return Err(PlanError::PlanCheck {
                        path: path.to_owned(),
                        violation: CheckViolation::TypeMismatch {
                            signature: "select_true_bool_col".to_owned(),
                            detail: format!(
                                "selection predicate must be boolean, got {}",
                                prog.result_type()
                            ),
                        },
                    });
                }
                self.verify_prog(&prog, fields, dicts, path)?;
                out.push("select_true_bool_col".to_owned());
                Ok(())
            }
        }
    }

    /// Mirror one aggregate's binding ([`AggFunc`] typing rules), verify
    /// its argument program and update signature, and return its output
    /// field plus the abstract fact of the aggregate value (`cf` are the
    /// input column facts, `rows_max` bounds the rows any one group can
    /// absorb).
    fn check_agg(
        &mut self,
        spec: &AggExpr,
        fields: &[OutField],
        dicts: &[Option<EnumDict>],
        cf: &[ColFact],
        rows_max: Option<u64>,
        path: &str,
    ) -> Result<(OutField, ColFact), PlanError> {
        let (sig, out_ty, fact) = match spec.func {
            AggFunc::Count => (
                "aggr_count_u32_col".to_owned(),
                ScalarType::I64,
                facts::agg_fact(AggFunc::Count, None, rows_max),
            ),
            _ => {
                let arg = spec.arg.as_ref().ok_or_else(|| {
                    PlanError::Invalid(format!("aggregate {} needs an argument", spec.name))
                })?;
                let raw = self.compile_at(arg, fields, path)?;
                let want = match (spec.func, raw.result_type()) {
                    (AggFunc::Avg, _) => ScalarType::F64,
                    (_, t) if t.is_integer() => ScalarType::I64,
                    _ => ScalarType::F64,
                };
                let prog = if raw.result_type() == want {
                    raw
                } else {
                    self.compile_at(&Expr::Cast(want, Box::new(arg.clone())), fields, path)?
                };
                self.verify_prog(&prog, fields, dicts, path)?;
                let argf = facts::eval_prog(&prog, cf, self.reg);
                let fname = match spec.func {
                    AggFunc::Sum | AggFunc::Avg => "sum",
                    AggFunc::Min => "min",
                    AggFunc::Max => "max",
                    AggFunc::Count => unreachable!("handled above"),
                };
                let out_ty = match spec.func {
                    AggFunc::Avg => ScalarType::F64,
                    _ => want,
                };
                (
                    format!("aggr_{}_{}_col_u32_col", fname, want.sig_name()),
                    out_ty,
                    facts::agg_fact(spec.func, Some(&argf), rows_max),
                )
            }
        };
        if !self.reg.contains(&sig) {
            return Err(PlanError::PlanCheck {
                path: path.to_owned(),
                violation: CheckViolation::UnknownSignature { signature: sig },
            });
        }
        Ok((OutField::new(spec.name.clone(), out_ty), fact))
    }

    fn note(&mut self, path: &str, what: String) {
        self.summary.nodes += 1;
        self.summary.report.push(format!("{path}: {what}"));
    }

    /// Record `nf` as the inferred facts of `plan`: one
    /// `--explain-facts` line plus the per-node map entry the binder's
    /// proof sinks key into.
    fn put_facts(&mut self, plan: &Plan, path: &str, fields: &[OutField], nf: NodeFacts) {
        self.summary
            .facts
            .lines
            .push(facts::render_line(path, fields, &nf));
        self.summary.facts.nodes.insert(plan_key(plan), nf);
    }

    /// The already-recorded facts of a child node (⊤ of the right width
    /// if the child somehow was not modeled).
    fn child_facts(&self, p: &Plan, width: usize) -> NodeFacts {
        self.summary
            .facts
            .nodes
            .get(&plan_key(p))
            .cloned()
            .unwrap_or_else(|| NodeFacts::top(width))
    }

    /// Facts for a `Select` node: try the constant-fold verdict (binder
    /// sink), then refine the surviving rows' column facts by the
    /// predicate's conjuncts.
    fn select_facts(
        &mut self,
        plan: &Plan,
        input: &Plan,
        pred: &Expr,
        fields: &[OutField],
        path: &str,
    ) {
        let mut nf = self.child_facts(input, fields.len());
        if let Some(v) = facts::pred_verdict(pred, fields, &nf, self.reg) {
            self.summary.facts.select_verdicts.insert(plan_key(plan), v);
            if !v {
                nf.rows_max = Some(0);
            }
        }
        facts::refine_with_pred(pred, fields, &mut nf);
        self.put_facts(plan, path, fields, nf);
    }

    /// When a spill budget is configured, the buffering kernel this
    /// operator leans on must advertise spill capability in the catalog
    /// (`SigInfo::spills`) — otherwise the budget is a promise the
    /// executor cannot keep, and graceful degradation silently becomes
    /// a hard `ResourceExhausted`. Catches a new buffering operator
    /// wired in without spill support.
    fn check_spill_capable(
        &mut self,
        sig: &str,
        operator: &str,
        path: &str,
    ) -> Result<(), PlanError> {
        if self.opts.spill_budget.is_none() {
            return Ok(());
        }
        if !self.reg.get(sig).is_some_and(|d| d.info.spills) {
            return Err(PlanError::PlanCheck {
                path: path.to_owned(),
                violation: CheckViolation::SpillUnsupported {
                    signature: sig.to_owned(),
                    operator: operator.to_owned(),
                },
            });
        }
        Ok(())
    }

    /// Walk one plan node, returning its output shape. Mirrors
    /// [`Plan::bind_inner`]'s field and dictionary derivation without
    /// constructing operators.
    fn walk(&mut self, plan: &Plan, path: &str) -> Result<Shape, PlanError> {
        match plan {
            Plan::Scan {
                table,
                cols,
                code_cols,
                ..
            } => {
                let t = self.db.table(table)?;
                let mut fields = Vec::new();
                let mut dicts = Vec::new();
                let mut col_facts = Vec::new();
                for name in cols {
                    let ci = t
                        .column_index(name)
                        .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?;
                    let sc = t.column(ci);
                    // Checkpoint-compressed columns decode on refill:
                    // the decompress primitive the scan will call must
                    // be cataloged, same rule as the enum fetch below.
                    if let Some(cc) = sc.compressed() {
                        let sig = cc.decode_sig();
                        self.summary.instrs += 1;
                        if !self.reg.contains(sig) {
                            return Err(PlanError::PlanCheck {
                                path: format!("{path}.Scan.col[{name}]"),
                                violation: CheckViolation::UnknownSignature {
                                    signature: sig.to_owned(),
                                },
                            });
                        }
                    }
                    let as_codes = code_cols.contains(name);
                    let ty = match (sc.dict(), as_codes) {
                        (None, _) => sc.field().logical,
                        (Some(_), true) => sc.physical_type(),
                        (Some(dict), false) => {
                            // Auto-decode via Fetch1Join(ENUM): the
                            // gather signature must be cataloged.
                            let sig = format!(
                                "map_fetch_{}_col_{}_col",
                                sc.physical_type().sig_name(),
                                dict.value_type().sig_name()
                            );
                            self.summary.instrs += 1;
                            if !self.reg.contains(&sig) {
                                return Err(PlanError::PlanCheck {
                                    path: format!("{path}.Scan.col[{name}]"),
                                    violation: CheckViolation::UnknownSignature { signature: sig },
                                });
                            }
                            dict.value_type()
                        }
                    };
                    dicts.push(if as_codes { sc.dict().cloned() } else { None });
                    fields.push(OutField::new(name.clone(), ty));
                    col_facts.push(facts::source_col_fact(&t, ci, as_codes));
                }
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max: u64::try_from(t.total_rows()).ok(),
                };
                self.put_facts(plan, path, &fields, nf);
                self.note(path, format!("Scan `{table}` → {} cols", fields.len()));
                Ok((fields, dicts))
            }
            Plan::Select { input, pred } => {
                // Mirror the binder's fusion decision exactly: when the
                // child is a compressed scan and (part of) the predicate
                // compiles to encoded space, the binder emits a fused
                // `CompressedScanSelect` refill instead of Scan→Select.
                // The encoded-space comparison and the selective decode
                // it triggers must both be cataloged primitives.
                if let Plan::Scan {
                    table,
                    cols,
                    code_cols,
                    ..
                } = input.as_ref()
                {
                    if let Some(f) = crate::plan::fuse_scan_select(
                        self.db, table, cols, code_cols, pred, self.opts,
                    ) {
                        let (fields, dicts) = self.walk(input, &format!("{path}.Select.input"))?;
                        let t = self.db.table(table)?;
                        self.summary.instrs += 1;
                        if !self.reg.contains(f.push.sig()) {
                            return Err(PlanError::PlanCheck {
                                path: format!("{path}.Select.pushdown[{}]", f.col),
                                violation: CheckViolation::UnknownSignature {
                                    signature: f.push.sig().to_owned(),
                                },
                            });
                        }
                        // Co-columns materialize lazily: each compressed
                        // column with a positional decode kernel will
                        // call it, so it must be registered too.
                        for name in cols {
                            let ci = t
                                .column_index(name)
                                .ok_or_else(|| PlanError::UnknownColumn(name.clone()))?;
                            if let Some(sig) =
                                t.column(ci).compressed().and_then(|cc| cc.decode_sel_sig())
                            {
                                self.summary.instrs += 1;
                                if !self.reg.contains(sig) {
                                    return Err(PlanError::PlanCheck {
                                        path: format!("{path}.Select.decode_sel[{name}]"),
                                        violation: CheckViolation::UnknownSignature {
                                            signature: sig.to_owned(),
                                        },
                                    });
                                }
                            }
                        }
                        let steps = match &f.residual {
                            None => Vec::new(),
                            Some(res) => {
                                let res = crate::plan::rewrite_enum_literals(res, &fields, &dicts);
                                self.check_select(
                                    &res,
                                    &fields,
                                    &dicts,
                                    &format!("{path}.Select.residual"),
                                )?
                            }
                        };
                        let full = crate::plan::rewrite_enum_literals(pred, &fields, &dicts);
                        self.select_facts(plan, input, &full, &fields, path);
                        self.note(
                            path,
                            format!(
                                "CompressedScanSelect `{}` [{}] residual [{}]",
                                f.col,
                                f.push.sig(),
                                steps.join(", ")
                            ),
                        );
                        return Ok((fields, dicts));
                    }
                }
                let (fields, dicts) = self.walk(input, &format!("{path}.Select.input"))?;
                let pred = crate::plan::rewrite_enum_literals(pred, &fields, &dicts);
                let sigs =
                    self.check_select(&pred, &fields, &dicts, &format!("{path}.Select.pred"))?;
                self.select_facts(plan, input, &pred, &fields, path);
                self.note(path, format!("Select → steps [{}]", sigs.join(", ")));
                Ok((fields, dicts))
            }
            Plan::Project { input, exprs } => {
                let (fields, dicts) = self.walk(input, &format!("{path}.Project.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                let mut out_fields = Vec::new();
                let mut out_dicts = Vec::new();
                let mut col_facts = Vec::new();
                for (i, (name, e)) in exprs.iter().enumerate() {
                    let e = crate::plan::rewrite_enum_literals(e, &fields, &dicts);
                    let epath = format!("{path}.Project.expr[{i}]");
                    let prog = self.compile_at(&e, &fields, &epath)?;
                    self.verify_prog(&prog, &fields, &dicts, &epath)?;
                    out_dicts.push(match &e {
                        Expr::Col(c) => fields
                            .iter()
                            .position(|f| &f.name == c)
                            .and_then(|ci| dicts[ci].clone()),
                        _ => None,
                    });
                    col_facts.push(facts::eval_prog(&prog, &in_nf.cols, self.reg));
                    out_fields.push(OutField::new(name.clone(), prog.result_type()));
                }
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max: in_nf.rows_max,
                };
                self.put_facts(plan, path, &out_fields, nf);
                self.note(path, format!("Project → {} exprs", exprs.len()));
                Ok((out_fields, out_dicts))
            }
            Plan::Aggr { input, keys, aggs } => {
                let (fields, dicts) = self.walk(input, &format!("{path}.Aggr.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                // Mirror the binder's physical choice: direct iff every
                // key is a bare reference to a dictionary code column.
                let direct: Option<Vec<DirectKeySpec>> = keys
                    .iter()
                    .map(|(name, e)| match e {
                        Expr::Col(c) => {
                            let i = fields.iter().position(|f| &f.name == c)?;
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
                        self.check_direct(plan, &fields, &dicts, &in_nf, &dkeys, aggs, path)
                    }
                    _ => {
                        let mut out_fields = Vec::new();
                        let mut col_facts = Vec::new();
                        // Group count ≤ input rows, and ≤ the product of
                        // the keys' distinct bounds when all are known.
                        let mut key_distinct = Some(1u64);
                        for (i, (name, e)) in keys.iter().enumerate() {
                            let kpath = format!("{path}.Aggr.key[{i}]");
                            let prog = self.compile_at(e, &fields, &kpath)?;
                            self.verify_prog(&prog, &fields, &dicts, &kpath)?;
                            let key_dict = match e {
                                Expr::Col(c)
                                    if matches!(
                                        prog.result_type(),
                                        ScalarType::U8 | ScalarType::U16
                                    ) =>
                                {
                                    fields
                                        .iter()
                                        .position(|f| &f.name == c)
                                        .and_then(|ci| dicts[ci].as_ref())
                                }
                                _ => None,
                            };
                            let kf = match key_dict {
                                // Decoded at emission: only the distinct
                                // bound survives into value space.
                                Some(d) => ColFact {
                                    distinct_max: Some(d.cardinality() as u64),
                                    ..ColFact::top()
                                },
                                None => {
                                    let mut kf = facts::eval_prog(&prog, &in_nf.cols, self.reg);
                                    kf.sorted = false; // hash order is arbitrary
                                    kf
                                }
                            };
                            key_distinct = key_distinct
                                .and_then(|p| kf.distinct_max.and_then(|d| p.checked_mul(d)));
                            col_facts.push(kf);
                            let out_ty = key_dict.map_or(prog.result_type(), |d| d.value_type());
                            out_fields.push(OutField::new(name.clone(), out_ty));
                        }
                        for (i, spec) in aggs.iter().enumerate() {
                            let apath = format!("{path}.Aggr.agg[{i}]");
                            let (of, af) = self.check_agg(
                                spec,
                                &fields,
                                &dicts,
                                &in_nf.cols,
                                in_nf.rows_max,
                                &apath,
                            )?;
                            out_fields.push(of);
                            col_facts.push(af);
                        }
                        self.check_spill_capable(
                            "aggr_hashtable_maintain",
                            "HashAggr",
                            &format!("{path}.Aggr"),
                        )?;
                        let rows_max = match (in_nf.rows_max, key_distinct) {
                            (Some(r), Some(k)) => Some(r.min(k)),
                            (r, k) => r.or(k),
                        };
                        let nf = NodeFacts {
                            cols: col_facts,
                            rows_max,
                        };
                        self.put_facts(plan, path, &out_fields, nf);
                        self.note(
                            path,
                            format!("HashAggr → {} keys, {} aggs", keys.len(), aggs.len()),
                        );
                        let n = out_fields.len();
                        Ok((out_fields, vec![None; n]))
                    }
                }
            }
            Plan::DirectAggr { input, keys, aggs } => {
                let (fields, dicts) = self.walk(input, &format!("{path}.DirectAggr.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                self.check_direct(plan, &fields, &dicts, &in_nf, keys, aggs, path)
            }
            Plan::OrdAggr { input, keys, aggs } => {
                let (fields, dicts) = self.walk(input, &format!("{path}.OrdAggr.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                let mut out_fields = Vec::new();
                let mut col_facts = Vec::new();
                for (i, (name, e)) in keys.iter().enumerate() {
                    let kpath = format!("{path}.OrdAggr.key[{i}]");
                    let prog = self.compile_at(e, &fields, &kpath)?;
                    self.verify_prog(&prog, &fields, &dicts, &kpath)?;
                    // Ordered aggregation emits groups in input key
                    // order, so a sorted input key stays sorted.
                    col_facts.push(facts::eval_prog(&prog, &in_nf.cols, self.reg));
                    out_fields.push(OutField::new(name.clone(), prog.result_type()));
                }
                for (i, spec) in aggs.iter().enumerate() {
                    let apath = format!("{path}.OrdAggr.agg[{i}]");
                    let (of, af) =
                        self.check_agg(spec, &fields, &dicts, &in_nf.cols, in_nf.rows_max, &apath)?;
                    out_fields.push(of);
                    col_facts.push(af);
                }
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max: in_nf.rows_max,
                };
                self.put_facts(plan, path, &out_fields, nf);
                self.note(
                    path,
                    format!("OrdAggr → {} keys, {} aggs", keys.len(), aggs.len()),
                );
                let n = out_fields.len();
                Ok((out_fields, vec![None; n]))
            }
            Plan::Fetch1Join {
                input,
                table,
                rowid,
                fetch,
                fetch_codes,
            } => {
                let (mut fields, mut dicts) =
                    self.walk(input, &format!("{path}.Fetch1Join.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                let t = self.db.table(table)?;
                let rpath = format!("{path}.Fetch1Join.rowid");
                let raw = self.compile_at(rowid, &fields, &rpath)?;
                // The rowid may be a code column being decoded — that IS
                // the sanctioned decode, so the enum-escape rule does not
                // apply to its (widening) program.
                match raw.result_type() {
                    ScalarType::U32 | ScalarType::U8 | ScalarType::U16 => {}
                    other => {
                        return Err(PlanError::PlanCheck {
                            path: rpath,
                            violation: CheckViolation::TypeMismatch {
                                signature: "map_fetch_u32_col".to_owned(),
                                detail: format!(
                                "Fetch1Join rowid expression must be u32 (join index), got {other}"
                            ),
                            },
                        })
                    }
                }
                // Fetch-bounds proof: `#rowId ⊆ [0, fragment_rows)`, i.e.
                // the gather never leaves the contiguous fragment arrays
                // for the delta slow path. The proof is only attempted
                // for true u32 join indexes; enum code rowids decode
                // against the dictionary instead.
                let rid_range = if raw.result_type() == ScalarType::U32 {
                    facts::eval_prog(&raw, &in_nf.cols, self.reg)
                        .range
                        .and_then(|r| r.as_int())
                } else {
                    None
                };
                let frag = t.fragment_rows() as u64;
                let total = t.total_rows() as u64;
                let proved = rid_range
                    .is_some_and(|(lo, hi)| lo >= 0 && u64::try_from(hi).is_ok_and(|h| h < frag));
                self.summary
                    .facts
                    .fetch_proofs
                    .insert(plan_key(plan), proved);
                if self.opts.enforce_facts && in_nf.rows_max != Some(0) {
                    if let Some((lo, _)) = rid_range {
                        if u64::try_from(lo).is_ok_and(|l| l >= total) {
                            return Err(PlanError::PlanCheck {
                                path: rpath,
                                violation: CheckViolation::FactViolation {
                                    detail: format!(
                                        "every #rowId is proven >= {total}, but table \
                                         `{table}` has only {total} rows: the fetch is \
                                         certainly out of bounds"
                                    ),
                                },
                            });
                        }
                    }
                }
                let mut col_facts = in_nf.cols.clone();
                for (i, (src, alias)) in fetch.iter().enumerate() {
                    let ci = t
                        .column_index(src)
                        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), src)))?;
                    let ty = t.column(ci).field().logical;
                    let sig = format!("map_fetch_u32_col_{}_col", ty.sig_name());
                    self.summary.instrs += 1;
                    if !self.reg.contains(&sig) {
                        return Err(PlanError::PlanCheck {
                            path: format!("{path}.Fetch1Join.fetch[{i}]"),
                            violation: CheckViolation::UnknownSignature { signature: sig },
                        });
                    }
                    fields.push(OutField::new(alias.clone(), ty));
                    dicts.push(None);
                    let mut f = facts::source_col_fact(&t, ci, false);
                    f.sorted = false; // gather order follows the rowids
                    col_facts.push(f);
                }
                for (i, (src, alias)) in fetch_codes.iter().enumerate() {
                    let ci = t
                        .column_index(src)
                        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), src)))?;
                    let sc = t.column(ci);
                    let Some(dict) = sc.dict() else {
                        return Err(PlanError::PlanCheck {
                            path: format!("{path}.Fetch1Join.fetch_codes[{i}]"),
                            violation: CheckViolation::TypeMismatch {
                                signature: format!("map_fetch_u32_col_{}_col", src),
                                detail: format!(
                                    "code fetch of `{src}` requires an enum dictionary column"
                                ),
                            },
                        });
                    };
                    fields.push(OutField::new(alias.clone(), sc.physical_type()));
                    dicts.push(Some(dict.clone()));
                    let mut f = facts::source_col_fact(&t, ci, true);
                    f.sorted = false;
                    col_facts.push(f);
                }
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max: in_nf.rows_max,
                };
                self.put_facts(plan, path, &fields, nf);
                self.note(
                    path,
                    format!(
                        "Fetch1Join `{table}` → +{} fetched, +{} code cols",
                        fetch.len(),
                        fetch_codes.len()
                    ),
                );
                Ok((fields, dicts))
            }
            Plan::FetchNJoin {
                input,
                table,
                lo,
                cnt,
                fetch,
            } => {
                let (mut fields, mut dicts) =
                    self.walk(input, &format!("{path}.FetchNJoin.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                let t = self.db.table(table)?;
                let mut range_facts = Vec::new();
                for (which, e) in [("lo", lo), ("cnt", cnt)] {
                    let epath = format!("{path}.FetchNJoin.{which}");
                    let prog = self.compile_at(e, &fields, &epath)?;
                    self.verify_prog(&prog, &fields, &dicts, &epath)?;
                    if prog.result_type() != ScalarType::U32 {
                        return Err(PlanError::PlanCheck {
                            path: epath,
                            violation: CheckViolation::TypeMismatch {
                                signature: "map_fetch_u32_col".to_owned(),
                                detail: format!(
                                    "FetchNJoin range expressions must be u32, got {}",
                                    prog.result_type()
                                ),
                            },
                        });
                    }
                    range_facts.push(
                        facts::eval_prog(&prog, &in_nf.cols, self.reg)
                            .range
                            .and_then(|r| r.as_int()),
                    );
                }
                // Fetch-bounds proof: every gathered position is
                // `lo + k, k < cnt`, so the obligation is
                // `max(lo) + max(cnt) <= fragment_rows`.
                let frag = t.fragment_rows() as u64;
                let (lo_r, cnt_r) = (range_facts[0], range_facts[1]);
                let proved = match (lo_r, cnt_r) {
                    (Some((llo, lhi)), Some((_, chi))) if llo >= 0 => u64::try_from(lhi)
                        .ok()
                        .zip(u64::try_from(chi).ok())
                        .and_then(|(a, b)| a.checked_add(b))
                        .is_some_and(|end| end <= frag),
                    _ => false,
                };
                self.summary
                    .facts
                    .fetch_proofs
                    .insert(plan_key(plan), proved);
                let rows_max = in_nf.rows_max.and_then(|r| {
                    let chi = u64::try_from(cnt_r?.1).ok()?;
                    r.checked_mul(chi)
                });
                let mut col_facts = in_nf.cols.clone();
                for (src, alias) in fetch {
                    let ci = t
                        .column_index(src)
                        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), src)))?;
                    fields.push(OutField::new(alias.clone(), t.column(ci).field().logical));
                    dicts.push(None);
                    let mut f = facts::source_col_fact(&t, ci, false);
                    f.sorted = false;
                    col_facts.push(f);
                }
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max,
                };
                self.put_facts(plan, path, &fields, nf);
                self.note(
                    path,
                    format!("FetchNJoin `{table}` → +{} cols", fetch.len()),
                );
                Ok((fields, dicts))
            }
            Plan::CartProd {
                input,
                table,
                fetch,
            } => {
                let (mut fields, mut dicts) =
                    self.walk(input, &format!("{path}.CartProd.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                let t = self.db.table(table)?;
                let mut col_facts = in_nf.cols.clone();
                for (src, alias) in fetch {
                    let ci = t
                        .column_index(src)
                        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), src)))?;
                    fields.push(OutField::new(alias.clone(), t.column(ci).field().logical));
                    dicts.push(None);
                    let mut f = facts::source_col_fact(&t, ci, false);
                    f.sorted = false;
                    col_facts.push(f);
                }
                let rows_max = in_nf
                    .rows_max
                    .and_then(|r| r.checked_mul(t.total_rows() as u64));
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max,
                };
                self.put_facts(plan, path, &fields, nf);
                self.note(path, format!("CartProd `{table}` → +{} cols", fetch.len()));
                Ok((fields, dicts))
            }
            Plan::Join {
                input,
                table,
                pred,
                fetch,
            } => {
                let (mut fields, mut dicts) = self.walk(input, &format!("{path}.Join.input"))?;
                let in_nf = self.child_facts(input, fields.len());
                let t = self.db.table(table)?;
                let mut col_facts = in_nf.cols.clone();
                for (src, alias) in fetch {
                    let ci = t
                        .column_index(src)
                        .ok_or_else(|| PlanError::UnknownColumn(format!("{}.{}", t.name(), src)))?;
                    fields.push(OutField::new(alias.clone(), t.column(ci).field().logical));
                    dicts.push(None);
                    let mut f = facts::source_col_fact(&t, ci, false);
                    f.sorted = false;
                    col_facts.push(f);
                }
                let pred = crate::plan::rewrite_enum_literals(pred, &fields, &dicts);
                self.check_select(&pred, &fields, &dicts, &format!("{path}.Join.pred"))?;
                let rows_max = in_nf
                    .rows_max
                    .and_then(|r| r.checked_mul(t.total_rows() as u64));
                let mut nf = NodeFacts {
                    cols: col_facts,
                    rows_max,
                };
                facts::refine_with_pred(&pred, &fields, &mut nf);
                self.put_facts(plan, path, &fields, nf);
                self.note(path, format!("Join `{table}` → +{} cols", fetch.len()));
                Ok((fields, dicts))
            }
            Plan::HashJoin {
                build,
                probe,
                build_keys,
                probe_keys,
                payload,
                join_type,
            } => {
                let (bfields, bdicts) = self.walk(build, &format!("{path}.HashJoin.build"))?;
                let (mut fields, mut dicts) =
                    self.walk(probe, &format!("{path}.HashJoin.probe"))?;
                let build_nf = self.child_facts(build, bfields.len());
                let probe_nf = self.child_facts(probe, fields.len());
                let mut btys = Vec::new();
                for (i, e) in build_keys.iter().enumerate() {
                    let kpath = format!("{path}.HashJoin.build_key[{i}]");
                    let prog = self.compile_at(e, &bfields, &kpath)?;
                    self.verify_prog(&prog, &bfields, &bdicts, &kpath)?;
                    btys.push(prog.result_type());
                }
                for (i, e) in probe_keys.iter().enumerate() {
                    let kpath = format!("{path}.HashJoin.probe_key[{i}]");
                    let prog = self.compile_at(e, &fields, &kpath)?;
                    self.verify_prog(&prog, &fields, &dicts, &kpath)?;
                    if let Some(&bty) = btys.get(i) {
                        if prog.result_type() != bty {
                            return Err(PlanError::PlanCheck {
                                path: kpath,
                                violation: CheckViolation::TypeMismatch {
                                    signature: format!("map_hash_{}_col", bty.sig_name()),
                                    detail: format!(
                                        "join key {i} type mismatch: build {}, probe {}",
                                        bty,
                                        prog.result_type()
                                    ),
                                },
                            });
                        }
                    }
                }
                let mut col_facts: Vec<ColFact> = probe_nf
                    .cols
                    .iter()
                    .cloned()
                    .map(|mut f| {
                        f.sorted = false; // match order scrambles rows
                        f
                    })
                    .collect();
                for (src, alias) in payload {
                    let ci = bfields
                        .iter()
                        .position(|f| &f.name == src)
                        .ok_or_else(|| PlanError::UnknownColumn(src.clone()))?;
                    fields.push(OutField::new(alias.clone(), bfields[ci].ty));
                    dicts.push(None);
                    // LeftOuter fills unmatched rows with default values
                    // (0 / ""), which the build-side range need not
                    // contain — widen to ⊤ there.
                    col_facts.push(match join_type {
                        crate::ops::JoinType::LeftOuter => ColFact::top(),
                        _ => {
                            let mut f = build_nf.cols.get(ci).cloned().unwrap_or_else(ColFact::top);
                            f.sorted = false;
                            f
                        }
                    });
                }
                let rows_max = match join_type {
                    // Semi/anti emit each probe row at most once;
                    // LeftOuter at least once per probe row, at most
                    // once per match (plus the default row).
                    crate::ops::JoinType::LeftSemi | crate::ops::JoinType::LeftAnti => {
                        probe_nf.rows_max
                    }
                    crate::ops::JoinType::Inner => probe_nf
                        .rows_max
                        .and_then(|p| build_nf.rows_max.and_then(|b| p.checked_mul(b))),
                    crate::ops::JoinType::LeftOuter => probe_nf
                        .rows_max
                        .and_then(|p| build_nf.rows_max.and_then(|b| p.checked_mul(b.max(1)))),
                };
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max,
                };
                self.put_facts(plan, path, &fields, nf);
                self.note(
                    path,
                    format!(
                        "HashJoin → {} keys, +{} payload cols",
                        build_keys.len(),
                        payload.len()
                    ),
                );
                Ok((fields, dicts))
            }
            Plan::TopN { input, keys, .. } | Plan::Order { input, keys } => {
                let kind = if matches!(plan, Plan::TopN { .. }) {
                    "TopN"
                } else {
                    "Order"
                };
                let (fields, dicts) = self.walk(input, &format!("{path}.{kind}.input"))?;
                for k in keys {
                    if !fields.iter().any(|f| f.name == k.col) {
                        return Err(PlanError::UnknownColumn(k.col.clone()));
                    }
                }
                // The permutation sort is dense-only; it runs over the
                // operator's own compacted buffer, never under a
                // selection.
                self.summary.instrs += 1;
                self.check_spill_capable("sort_permutation", kind, &format!("{path}.{kind}"))?;
                let mut nf = self.child_facts(input, fields.len());
                for f in &mut nf.cols {
                    // `sorted` means sorted in *scan* order, which the
                    // permutation destroys (the sort key's own order is
                    // not tracked — keys may be descending).
                    f.sorted = false;
                }
                if let Plan::TopN { limit, .. } = plan {
                    let lim = *limit as u64;
                    nf.rows_max = Some(nf.rows_max.map_or(lim, |r| r.min(lim)));
                }
                self.put_facts(plan, path, &fields, nf);
                self.note(path, format!("{kind} → {} sort keys", keys.len()));
                Ok((fields, dicts))
            }
            Plan::Array { dims } => {
                let fields: Vec<OutField> = (0..dims.len())
                    .map(|i| OutField::new(format!("d{i}"), ScalarType::I64))
                    .collect();
                let n = fields.len();
                let col_facts = dims
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| ColFact {
                        range: (d > 0).then_some(FactRange::Int(0, d - 1)),
                        distinct_max: u64::try_from(d).ok(),
                        // Row-major enumeration: the outermost dimension
                        // is non-decreasing.
                        sorted: i == 0,
                        ..ColFact::top()
                    })
                    .collect();
                let rows_max = dims.iter().try_fold(1u64, |acc, &d| {
                    u64::try_from(d).ok().and_then(|d| acc.checked_mul(d))
                });
                let nf = NodeFacts {
                    cols: col_facts,
                    rows_max,
                };
                self.put_facts(plan, path, &fields, nf);
                self.note(path, format!("Array → {n} dims"));
                Ok((fields, vec![None; n]))
            }
        }
    }

    /// Mirror `bind_direct`: keys must be code columns (dictionary or
    /// raw u8/u16).
    #[allow(clippy::too_many_arguments)]
    fn check_direct(
        &mut self,
        plan: &Plan,
        fields: &[OutField],
        dicts: &[Option<EnumDict>],
        in_nf: &NodeFacts,
        keys: &[DirectKeySpec],
        aggs: &[AggExpr],
        path: &str,
    ) -> Result<Shape, PlanError> {
        let mut out_fields = Vec::new();
        let mut col_facts = Vec::new();
        // The direct-group table has one slot per code combination, so
        // the group count is bounded by the product of the key domains.
        let mut groups = Some(1u64);
        for k in keys {
            let i = fields
                .iter()
                .position(|f| f.name == k.col)
                .ok_or_else(|| PlanError::UnknownColumn(k.col.clone()))?;
            match (&dicts[i], fields[i].ty) {
                (Some(d), _) => {
                    out_fields.push(OutField::new(k.name.clone(), d.value_type()));
                    let card = d.cardinality() as u64;
                    groups = groups.and_then(|g| g.checked_mul(card));
                    col_facts.push(ColFact {
                        distinct_max: Some(card),
                        ..ColFact::top()
                    });
                }
                (None, ScalarType::U8 | ScalarType::U16) => {
                    out_fields.push(OutField::new(k.name.clone(), fields[i].ty));
                    let card = if fields[i].ty == ScalarType::U8 {
                        1u64 << 8
                    } else {
                        1u64 << 16
                    };
                    groups = groups.and_then(|g| g.checked_mul(card));
                    let mut kf = in_nf.cols.get(i).cloned().unwrap_or_else(ColFact::top);
                    kf.sorted = false;
                    col_facts.push(kf);
                }
                (None, ty) => {
                    return Err(PlanError::PlanCheck {
                        path: format!("{path}.DirectAggr.key[{}]", k.col),
                        violation: CheckViolation::TypeMismatch {
                            signature: "map_directgrp_u8_col".to_owned(),
                            detail: format!(
                                "direct aggregation key `{}` is {ty}, not a code column",
                                k.col
                            ),
                        },
                    })
                }
            }
        }
        for (i, spec) in aggs.iter().enumerate() {
            let apath = format!("{path}.DirectAggr.agg[{i}]");
            let (of, af) =
                self.check_agg(spec, fields, dicts, &in_nf.cols, in_nf.rows_max, &apath)?;
            out_fields.push(of);
            col_facts.push(af);
        }
        let rows_max = match (in_nf.rows_max, groups) {
            (Some(r), Some(g)) => Some(r.min(g)),
            (r, g) => r.or(g),
        };
        let nf = NodeFacts {
            cols: col_facts,
            rows_max,
        };
        self.put_facts(plan, path, &out_fields, nf);
        self.note(
            path,
            format!("DirectAggr → {} keys, {} aggs", keys.len(), aggs.len()),
        );
        let n = out_fields.len();
        Ok((out_fields, vec![None; n]))
    }
}

/// The batch-column operands of one instruction, with the context label
/// the enum-escape rule reports.
fn col_operands(instr: &Instr) -> (&'static str, Vec<Src>) {
    match instr {
        Instr::ArithCC { l, r, .. } => ("arithmetic operand", vec![*l, *r]),
        Instr::ArithCV { l, .. } => ("arithmetic operand", vec![*l]),
        Instr::ArithVC { r, .. } => ("arithmetic operand", vec![*r]),
        Instr::CmpCC { l, r, .. } => ("comparison operand", vec![*l, *r]),
        Instr::CmpCV { l, .. } => ("comparison operand", vec![*l]),
        Instr::StrEqCV { l, .. } => ("string comparison operand", vec![*l]),
        Instr::And { l, r, .. } | Instr::Or { l, r, .. } => ("boolean operand", vec![*l, *r]),
        Instr::Not { s, .. } => ("boolean operand", vec![*s]),
        Instr::Cast { s, .. } => ("cast operand", vec![*s]),
        Instr::Fill { .. } => ("constant", Vec::new()),
        Instr::FusedSubValMul { a, b, .. } | Instr::FusedAddValMul { a, b, .. } => {
            ("fused arithmetic operand", vec![*a, *b])
        }
        Instr::YearOf { s, .. } => ("year() operand", vec![*s]),
        Instr::StrContainsCV { s, .. } => ("contains() operand", vec![*s]),
    }
}
