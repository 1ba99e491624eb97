//! Cross-crate integration: the whole system through the façade crate.

use monetdb_x100::engine::expr::*;
use monetdb_x100::engine::plan::Plan;
use monetdb_x100::engine::session::{execute, Database, ExecOptions};
use monetdb_x100::engine::AggExpr;
use monetdb_x100::storage::{ColumnData, Table, TableBuilder};
use monetdb_x100::tpch;
use monetdb_x100::vector::Value;

#[test]
fn facade_reexports_work_together() {
    let li = tpch::generate_lineitem_q1(&tpch::GenConfig { sf: 0.001, seed: 1 });
    let db = tpch::build_x100_q1_db(&li);
    let plan = tpch::queries::q01::x100_plan();
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("q1");
    assert_eq!(res.num_rows(), 4);
    let reference = tpch::run_hardcoded_q1(&li, tpch::queries::q01::q1_hi_date());
    let got = tpch::queries::q01::rows_from_x100(&res);
    for (a, b) in got.iter().zip(reference.iter()) {
        assert_eq!(a.count_order, b.count_order);
        assert!((a.sum_charge - b.sum_charge).abs() < 1e-6 * b.sum_charge.abs());
    }
}

#[test]
fn updates_flow_through_queries() {
    // Inserts/deletes made through the storage API are visible to the
    // vectorized engine without reorganization; reorganization must not
    // change query answers.
    let mut t = TableBuilder::new("t")
        .column("k", ColumnData::I64((0..100).collect()))
        .auto_enum_str(
            "tag",
            (0..100)
                .map(|i| {
                    if i % 2 == 0 {
                        "even".into()
                    } else {
                        "odd".into()
                    }
                })
                .collect(),
        )
        .build();
    t.delete(10);
    t.delete(11);
    t.insert(&[Value::I64(1000), Value::Str("even".into())]);
    let plan = Plan::scan("t", &["k", "tag"])
        .select(eq(col("tag"), lit_str("even")))
        .aggr(
            vec![],
            vec![AggExpr::sum("sum_k", col("k")), AggExpr::count("n")],
        );

    let mut db = Database::new();
    db.register(t.clone());
    let (before, _) = execute(&db, &plan, &ExecOptions::default()).expect("pre-reorg");

    t.reorganize();
    let mut db2 = Database::new();
    db2.register(t);
    let (after, _) = execute(&db2, &plan, &ExecOptions::default()).expect("post-reorg");
    assert_eq!(before.row_strings(), after.row_strings());
    // 50 evens, minus deleted k=10, plus inserted k=1000.
    assert_eq!(before.column_by_name("n").as_i64()[0], 50);
    let expect: i64 = (0..100).step_by(2).sum::<i64>() - 10 + 1000;
    assert_eq!(before.column_by_name("sum_k").as_i64()[0], expect);
}

#[test]
fn columnbm_accounts_scans() {
    use monetdb_x100::storage::ColumnBM;
    use std::sync::Arc;
    let n = 100_000i64;
    let mut db = Database::new();
    db.register(
        TableBuilder::new("wide")
            .column("a", ColumnData::I64((0..n).collect()))
            .column("b", ColumnData::F64(vec![0.5; n as usize]))
            .column("c", ColumnData::F64(vec![1.5; n as usize]))
            .column("unused", ColumnData::F64(vec![9.9; n as usize]))
            .build(),
    );
    let bm = Arc::new(ColumnBM::with_chunk_bytes(1024, 64 * 1024));
    db.attach_buffer_manager(bm.clone());

    let plan = Plan::scan("wide", &["a", "b"]).aggr(vec![], vec![AggExpr::sum("s", col("b"))]);
    let (_, _) = execute(&db, &plan, &ExecOptions::default()).expect("scan");
    let stats = bm.stats();
    // Only the two touched columns cost I/O: a (800KB) + b (800KB) in
    // 64KB chunks ≈ 26 chunk loads; the unused columns cost nothing.
    assert!(
        stats.misses >= 24 && stats.misses <= 30,
        "misses {}",
        stats.misses
    );
    assert_eq!(stats.bytes_read, stats.misses * 64 * 1024);

    // Rescanning is served from the buffer pool.
    let (_, _) = execute(&db, &plan, &ExecOptions::default()).expect("rescan");
    let stats2 = bm.stats();
    assert_eq!(stats2.misses, stats.misses, "rescan should hit the pool");
    assert!(stats2.hits > 0);
}

#[test]
fn engines_cross_check_on_custom_data() {
    // Build the same dataset for MIL and X100 and cross-check an
    // aggregation (mirrors the TPC-H cross-checks on non-TPC-H data).
    let n = 5_000i64;
    let vals: Vec<f64> = (0..n).map(|i| ((i * 37) % 100) as f64).collect();
    let flags: Vec<String> = (0..n)
        .map(|i| ["x", "y", "z"][(i % 3) as usize].to_owned())
        .collect();

    let mut db = Database::new();
    db.register(
        TableBuilder::new("d")
            .auto_enum_str("flag", flags.clone())
            .column("v", ColumnData::F64(vals.clone()))
            .build(),
    );
    let plan = Plan::scan("d", &["flag", "v"])
        .select(lt(col("v"), lit_f64(50.0)))
        .aggr(
            vec![("flag", col("flag"))],
            vec![AggExpr::sum("s", col("v")), AggExpr::count("n")],
        )
        .order(vec![monetdb_x100::engine::ops::OrdExp::asc("flag")]);
    let (x100, _) = execute(&db, &plan, &ExecOptions::default()).expect("x100");
    let (mil, _) = tpch::milql::run_plan(&db, &plan).expect("mil");
    assert_eq!(x100.row_strings(), mil.row_strings());

    // And against a plain Rust loop.
    let mut sums = std::collections::BTreeMap::new();
    for (f, v) in flags.iter().zip(vals.iter()) {
        if *v < 50.0 {
            let e = sums.entry(f.clone()).or_insert((0.0, 0i64));
            e.0 += v;
            e.1 += 1;
        }
    }
    assert_eq!(x100.num_rows(), sums.len());
    for (i, (flag, (s, cnt))) in sums.iter().enumerate() {
        assert_eq!(&x100.value(i, 0).to_string(), flag);
        assert!((x100.column_by_name("s").as_f64()[i] - s).abs() < 1e-9);
        assert_eq!(x100.column_by_name("n").as_i64()[i], *cnt);
    }
}

#[test]
fn array_operator_feeds_pipeline() {
    // The paper's Array operator (RAM front-end): aggregate over the
    // coordinates of a 3-D array.
    let db = Database::new();
    let plan = Plan::Array {
        dims: vec![4, 5, 6],
    }
    .select(eq(col("d2"), lit_i64(3)))
    .aggr(vec![("d0", col("d0"))], vec![AggExpr::count("n")]);
    let (res, _) = execute(&db, &plan, &ExecOptions::default()).expect("array");
    assert_eq!(res.num_rows(), 4);
    for i in 0..4 {
        assert_eq!(res.column_by_name("n").as_i64()[i], 5);
    }
}

/// One refresh cycle on orders and lineitem, the shape of TPC-H's
/// RF2/RF1 that keeps every join index valid: delete the last `k`
/// orders and their lineitems (the lineitem tail), reorganize, append
/// `k` copies of surviving orders with their lineitems under new keys
/// and with join indices pointing at the rows they land on, reorganize.
fn refresh_cycle(orders: &mut Table, lineitem: &mut Table, k: usize) {
    let col = |t: &Table, name: &str| t.column_index(name).expect("column");
    let (o_key, o_lo, o_cnt) = (
        col(orders, "o_orderkey"),
        col(orders, "o_li_lo"),
        col(orders, "o_li_cnt"),
    );
    let (l_key, l_order) = (col(lineitem, "l_orderkey"), col(lineitem, "li_order_idx"));
    let u32_at = |row: &[Value], c: usize| match row[c] {
        Value::U32(x) => x,
        ref other => panic!("expected a u32 join index, got {other:?}"),
    };
    let n_o = orders.live_rows() as u32;
    let n_l = lineitem.live_rows() as u32;
    let first = n_o - k as u32;
    let li_first = u32_at(&orders.get_row(first), o_lo);
    for r in first..n_o {
        assert!(orders.delete(r));
    }
    for r in li_first..n_l {
        assert!(lineitem.delete(r));
    }
    orders.reorganize();
    lineitem.reorganize();

    let next_key = match orders.column(o_key).stats().and_then(|s| s.max.clone()) {
        Some(Value::I64(m)) => m + 1,
        other => panic!("o_orderkey max: {other:?}"),
    };
    let mut li_at = li_first;
    for (i, key) in (0..k as u32).zip(next_key..) {
        let mut order = orders.get_row((i * 37) % first);
        let (lo, cnt) = (u32_at(&order, o_lo), u32_at(&order, o_cnt));
        for r in lo..lo + cnt {
            let mut li = lineitem.get_row(r);
            li[l_key] = Value::I64(key);
            li[l_order] = Value::U32(first + i);
            lineitem.insert(&li);
        }
        order[o_key] = Value::I64(key);
        order[o_lo] = Value::U32(li_at);
        orders.insert(&order);
        li_at += cnt;
    }
    orders.reorganize();
    lineitem.reorganize();
}

#[test]
fn refresh_on_checkpointed_tables_keeps_answers() {
    // Reorganizing checkpointed tables re-encodes only the changed
    // compressed chunks; queries over them must still answer exactly
    // what the MIL interpreter answers over raw copies given the same
    // writes.
    use monetdb_x100::tpch::queries::{all_specs, run_mil, run_x100};
    let data = tpch::generate(&tpch::GenConfig { sf: 0.01, seed: 3 });
    let base = tpch::build_x100_db(&data);
    let take = |name: &str| Table::clone(&base.table(name).expect("table"));
    let (mut orders, mut lineitem) = (take("orders"), take("lineitem"));
    let (mut raw_orders, mut raw_lineitem) = (orders.clone(), lineitem.clone());
    orders.checkpoint();
    lineitem.checkpoint();
    refresh_cycle(&mut orders, &mut lineitem, 15);
    refresh_cycle(&mut raw_orders, &mut raw_lineitem, 15);
    assert!(
        (0..lineitem.num_columns()).any(|i| lineitem.column(i).compressed().is_some()),
        "lineitem stays checkpointed"
    );
    let with = |o: Table, l: Table| {
        let mut db = Database::new();
        for name in base.table_names() {
            db.register_arc(base.table(name).expect("table"));
        }
        db.register(o);
        db.register(l);
        db
    };
    let db = with(orders, lineitem);
    let raw = with(raw_orders, raw_lineitem);
    for (q, spec) in all_specs() {
        let x100 = run_x100(&db, &spec, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("x100 q{q}: {e}"));
        let mil = run_mil(&raw, &spec).unwrap_or_else(|e| panic!("mil q{q}: {e}"));
        assert_eq!(mil.row_strings(), x100.row_strings(), "q{q} after refresh");
    }
}
