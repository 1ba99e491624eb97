//! Soundness of the facts analyzer (`engine::facts`).
//!
//! The analyzer's contract is one-directional: whatever it claims must
//! hold on every row the query actually produces. These tests generate
//! random tables (raw and checkpoint-compressed, with delta inserts,
//! deletes, and enum columns) and random plans, then check the executed
//! output against the inferred facts: observed values inside the value
//! range, observed row counts under `rows_max`, and fetch-bounds proofs
//! that hold exactly when no gathered `#rowId` can reach the delta.

use proptest::prelude::*;
use x100_engine::check_plan;
use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::{AggExpr, CheckViolation, PlanError};
use x100_storage::{ColumnData, Table, TableBuilder};
use x100_vector::{ScalarType, Value};

/// Deterministic pseudo-data: spreads `i` over `[lo, lo+span]`.
fn keyed(i: usize, lo: i64, span: i64) -> i64 {
    lo + (i as i64).wrapping_mul(7919).rem_euclid(span + 1)
}

/// A table with an i64 key, an f64 measure, and a low-card string,
/// optionally checkpoint-compressed and mutated by delta ops.
fn gen_table(n: usize, lo: i64, span: i64, ckpt: bool, ndel: usize, nins: usize) -> Table {
    let mut t = TableBuilder::new("t")
        .column(
            "k",
            ColumnData::I64((0..n).map(|i| keyed(i, lo, span)).collect()),
        )
        .column(
            "v",
            ColumnData::F64((0..n).map(|i| (i % 997) as f64 * 0.5 - 100.0).collect()),
        )
        .column("tag", {
            let mut c = ColumnData::new(ScalarType::Str);
            for i in 0..n {
                c.push_value(&Value::Str(["a", "b", "c"][i % 3].into()));
            }
            c
        })
        .build();
    if ckpt {
        t.checkpoint();
    }
    for i in 0..nins {
        t.insert(&[
            Value::I64(keyed(n + i, lo, span) + 3), // may exceed the base range
            Value::F64(i as f64),
            Value::Str("b".into()),
        ]);
    }
    for i in 0..ndel {
        t.delete(((i * 13) % (n + nins)) as u32);
    }
    t
}

/// Every output value must sit inside the root node's inferred range
/// fact, and the output row count under `rows_max`.
fn assert_output_within_facts(db: &Database, plan: &Plan) {
    let opts = ExecOptions::default();
    let facts = check_plan(db, plan, &opts).expect("check").facts;
    let nf = facts.node(plan).expect("root facts").clone();
    let (res, _) = execute(db, plan, &opts).expect("runs");
    if let Some(max) = nf.rows_max {
        assert!(
            (res.num_rows() as u64) <= max,
            "rows {} > rows_max {max}",
            res.num_rows()
        );
    }
    for (ci, cf) in nf.cols.iter().enumerate() {
        let Some(range) = &cf.range else { continue };
        for r in 0..res.num_rows() {
            let v = res.value(r, ci);
            assert!(
                range.contains_value(&v),
                "col {ci} row {r}: {v:?} outside {range:?}"
            );
        }
        if let Some(dmax) = cf.distinct_max {
            let mut seen: Vec<String> = (0..res.num_rows())
                .map(|r| format!("{:?}", res.value(r, ci)))
                .collect();
            seen.sort();
            seen.dedup();
            assert!(
                (seen.len() as u64) <= dmax,
                "col {ci}: {} distinct > bound {dmax}",
                seen.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Scan → Select → (optional) Aggr over random mutated tables:
    /// observed values stay inside the inferred ranges.
    #[test]
    fn observed_values_within_facts(
        n in 1usize..300,
        lo in -500i64..500,
        span in 0i64..1500,
        ckpt in proptest::bool::ANY,
        ndel in 0usize..8,
        nins in 0usize..8,
        op in 0usize..5,
        litoff in -50i64..1600,
        aggr in proptest::bool::ANY,
    ) {
        let mut db = Database::new();
        db.register(gen_table(n, lo, span, ckpt, ndel, nins));
        let lit = lit_i64(lo + litoff);
        let pred = match op {
            0 => lt(col("k"), lit),
            1 => le(col("k"), lit),
            2 => gt(col("k"), lit),
            3 => ge(col("k"), lit),
            _ => eq(col("k"), lit),
        };
        let base = Plan::scan("t", &["k", "v", "tag"]).select(pred);
        let plan = if aggr {
            base.aggr(
                vec![("tag", col("tag"))],
                vec![
                    AggExpr::sum("sk", col("k")),
                    AggExpr::max("mx", col("v")),
                    AggExpr::min("mn", col("k")),
                    AggExpr::count("cnt"),
                ],
            )
        } else {
            base
        };
        assert_output_within_facts(&db, &plan);
    }

    /// Fetch-bounds proofs: a star join where the foreign key provably
    /// stays inside the dimension fragment gets a `true` proof, and any
    /// dimension insert the key can reach defeats it. Either way the
    /// gathered `pay` is exactly the dimension row each key selects —
    /// also under a selection whose vectors reach into the insert delta,
    /// where the single-pass gather fails over to the slow path.
    #[test]
    fn fetch_proofs_sound_and_gathers_exact(
        dim_n in 4usize..200,
        fact_m in 1usize..400,
        dim_ins in 0usize..3,
        fact_ckpt in proptest::bool::ANY,
        keep in 0i64..6,
    ) {
        let pay_of = |r: usize| {
            if r < dim_n {
                keyed(r, -50, 900)
            } else {
                2000 + (r - dim_n) as i64
            }
        };
        let mut dim = TableBuilder::new("dim")
            .column("pay", ColumnData::I64((0..dim_n).map(pay_of).collect()))
            .build();
        for i in 0..dim_ins {
            dim.insert(&[Value::I64(pay_of(dim_n + i))]);
        }
        let total = dim_n + dim_ins;
        let fk_of = |i: usize| (i * 31) % total;
        let mut facts_t = TableBuilder::new("facts")
            .column(
                "fk",
                ColumnData::U32((0..fact_m).map(|i| fk_of(i) as u32).collect()),
            )
            .column("s", ColumnData::I64((0..fact_m).map(|i| (i % 5) as i64).collect()))
            .build();
        if fact_ckpt {
            facts_t.checkpoint();
        }
        let mut db = Database::new();
        db.register(dim);
        db.register(facts_t);
        let fetch = |p: Plan| p.fetch1("dim", col("fk"), &[("pay", "pay")]);
        let plan = fetch(Plan::scan("facts", &["fk", "s"]));

        let opts = ExecOptions::default();
        let facts = check_plan(&db, &plan, &opts).expect("check").facts;
        let proved = facts.fetch_proved(&plan);
        // Delta rows live outside the fragment, so any insert on the
        // dimension that the key can actually reach kills the proof.
        let fk_max = (0..fact_m).map(fk_of).max().unwrap_or(0);
        if fk_max >= dim_n {
            prop_assert_eq!(proved, Some(false));
        } else {
            prop_assert_eq!(proved, Some(true));
        }

        // keep < 5 selects the rows with `s < keep` before the fetch.
        let plan = if keep < 5 {
            fetch(Plan::scan("facts", &["fk", "s"]).select(lt(col("s"), lit_i64(keep))))
        } else {
            plan
        };
        let (res, _) = execute(&db, &plan, &opts).expect("fetch run");
        let want: Vec<(Value, Value)> = (0..fact_m)
            .filter(|&i| ((i % 5) as i64) < keep)
            .map(|i| (Value::U32(fk_of(i) as u32), Value::I64(pay_of(fk_of(i)))))
            .collect();
        let (fk_col, pay_col) = (
            res.col_index("fk").expect("fk"),
            res.col_index("pay").expect("pay"),
        );
        let got: Vec<(Value, Value)> = (0..res.num_rows())
            .map(|r| (res.value(r, fk_col), res.value(r, pay_col)))
            .collect();
        prop_assert_eq!(got, want);
    }
}

/// Always-true predicates fold to a pass-through, always-false to an
/// empty dataflow — both verdicts recorded and both byte-identical to
/// the semantics of actually evaluating the predicate.
#[test]
fn select_folds_are_exact() {
    let mut db = Database::new();
    // Deletes keep visible rows a subset of the fragment, so the stats
    // (and the fold verdicts) stay valid; pending inserts would widen
    // the source range to ⊤ and correctly suppress both verdicts.
    db.register(gen_table(500, 10, 90, true, 5, 0));
    let scan = || Plan::scan("t", &["k", "v", "tag"]);

    let all = execute(&db, &scan(), &ExecOptions::default())
        .expect("scan")
        .0;

    // k ∈ [10, 103]: `k >= 10` is provably always true.
    let t = scan().select(ge(col("k"), lit_i64(10)));
    let facts = check_plan(&db, &t, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(facts.select_verdict(&t), Some(true));
    let (got, _) = execute(&db, &t, &ExecOptions::default()).expect("fold-true");
    assert_eq!(got.row_strings(), all.row_strings());

    // `k > 4000` is provably always false.
    let f = scan().select(gt(col("k"), lit_i64(4000)));
    let facts = check_plan(&db, &f, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(facts.select_verdict(&f), Some(false));
    let (got, _) = execute(&db, &f, &ExecOptions::default()).expect("fold-false");
    assert_eq!(got.num_rows(), 0);

    // A genuinely data-dependent predicate gets no verdict.
    let d = scan().select(gt(col("k"), lit_i64(50)));
    let facts = check_plan(&db, &d, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(facts.select_verdict(&d), None);
}

/// `--enforce-facts` turns a statically out-of-bounds fetch into a
/// bind-time `FactViolation` instead of a runtime trap.
#[test]
fn enforce_facts_rejects_certain_oob_fetch() {
    let dim = TableBuilder::new("dim")
        .column("pay", ColumnData::I64(vec![1, 2, 3]))
        .build();
    let facts_t = TableBuilder::new("facts")
        .column("fk", ColumnData::U32(vec![7, 8, 9])) // all ≥ dim.total_rows()
        .build();
    let mut db = Database::new();
    db.register(dim);
    db.register(facts_t);
    let plan = Plan::scan("facts", &["fk"]).fetch1("dim", col("fk"), &[("pay", "pay")]);

    // Without enforcement the plan checks (proof simply fails)…
    let summary = check_plan(&db, &plan, &ExecOptions::default()).expect("lenient");
    assert_eq!(summary.facts.fetch_proved(&plan), Some(false));

    // …with enforcement it is rejected at bind time, node-precisely.
    let opts = ExecOptions::default().with_enforce_facts(true);
    match check_plan(&db, &plan, &opts) {
        Err(PlanError::PlanCheck {
            path,
            violation: CheckViolation::FactViolation { detail },
        }) => {
            assert!(path.contains("Fetch1Join"), "path: {path}");
            assert!(detail.contains("rowId"), "detail: {detail}");
        }
        other => panic!("expected FactViolation, got {other:?}"),
    }
}

/// i32 arithmetic keeps its range fact only when the analyzer can prove
/// no overflow; a possibly-overflowing product widens to ⊤.
#[test]
fn i32_overflow_widens_to_top() {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("t")
            .column("small", ColumnData::I32((0..100).collect()))
            .column(
                "big",
                ColumnData::I32((0..100).map(|i| i * 21_000_000).collect()),
            )
            .build(),
    );
    let opts = ExecOptions::default();

    let safe = Plan::scan("t", &["small"]).project(vec![("s2", add(col("small"), lit_i32(1)))]);
    let facts = check_plan(&db, &safe, &opts).expect("check").facts;
    let nf = facts.node(&safe).expect("facts");
    assert_eq!(
        nf.cols[0].range.as_ref().and_then(|r| r.as_int()),
        Some((1, 100)),
        "in-bounds i32 add keeps its range"
    );

    let unsafe_p = Plan::scan("t", &["big"]).project(vec![("b2", add(col("big"), col("big")))]);
    let facts = check_plan(&db, &unsafe_p, &opts).expect("check").facts;
    let nf = facts.node(&unsafe_p).expect("facts");
    assert!(
        nf.cols[0].range.is_none(),
        "possible i32 overflow must widen to ⊤, got {:?}",
        nf.cols[0].range
    );
    assert_output_within_facts(&db, &safe);
}

/// A proven fetch join returns the same bytes at every thread count
/// under parallel morsel execution.
#[test]
fn fetch_join_parallel_byte_identical() {
    let dim = TableBuilder::new("dim")
        .column("pay", ColumnData::I64((0..1000).map(|i| i * 3).collect()))
        .build();
    let facts_t = TableBuilder::new("facts")
        .column(
            "fk",
            ColumnData::U32((0..20_000u32).map(|i| (i * 17) % 1000).collect()),
        )
        .column(
            "m",
            ColumnData::F64((0..20_000).map(|i| i as f64).collect()),
        )
        .build();
    let mut db = Database::new();
    db.register(dim);
    db.register(facts_t);
    let plan = Plan::scan("facts", &["fk", "m"])
        .fetch1("dim", col("fk"), &[("pay", "pay")])
        .aggr(
            vec![],
            vec![AggExpr::sum("s", col("pay")), AggExpr::count("c")],
        );
    let facts = check_plan(&db, &plan, &ExecOptions::default())
        .expect("check")
        .facts;
    assert_eq!(
        facts.fetch_proofs.values().copied().collect::<Vec<_>>(),
        [true]
    );
    let baseline = execute(&db, &plan, &ExecOptions::default().parallel(1))
        .expect("threads=1")
        .0
        .row_strings();
    for threads in [1, 2, 4, 8] {
        let opts = ExecOptions::default().parallel(threads);
        let (res, _) = execute(&db, &plan, &opts).expect("parallel");
        assert_eq!(res.row_strings(), baseline, "threads={threads}");
    }
}
