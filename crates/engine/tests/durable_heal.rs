//! Replicated self-healing end-to-end (DESIGN.md §14): a corrupt copy
//! of a durably checkpointed chunk — on disk or in memory — must never
//! change query results. Recovery order is retry → replica heal → raw
//! fragment, and a heal surfaces as the `chunk_heals` profile counter,
//! not as an error.

use std::path::PathBuf;

use x100_engine::expr::*;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::DurableOptions;
use x100_storage::{ChunkFormat, ColumnData, Table, TableBuilder};
use x100_vector::{ScalarType, Value};

const N: i64 = 20_000;

/// Fresh scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("x100-durable-heal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Same shape as the pushdown suite's fact table: a codec per column.
fn fact_table() -> Table {
    TableBuilder::new("fact")
        // Sorted with uneven steps: PFOR-DELTA with a non-empty payload.
        .column(
            "id",
            ColumnData::I64((0..N).map(|i| i * 8 + i % 7).collect()),
        )
        .column(
            "k",
            ColumnData::I64((0..N).map(|i| (i * 7) % 1000).collect()),
        )
        .column("tag", {
            let mut c = ColumnData::new(ScalarType::Str);
            for i in 0..N {
                let s = ["alpha", "beta", "gamma", "delta"][(i % 4) as usize];
                c.push_value(&Value::Str(s.into()));
            }
            c
        })
        .column(
            "qty",
            ColumnData::F64((0..N).map(|i| (i % 997) as f64 * 0.25).collect()),
        )
        // Enum with 2-byte codes that mostly fit one byte, so the code
        // column PFOR-compresses (1-byte codes never do).
        .auto_enum_i64(
            "band",
            (0..N)
                .map(|i| {
                    if i % 500 == 0 {
                        1000 + i / 500
                    } else {
                        i % 250
                    }
                })
                .collect(),
        )
        .column(
            "fk",
            ColumnData::U32((0..N).map(|i| (i * 7 % DIM) as u32).collect()),
        )
        .build()
}

const DIM: i64 = 1000;

/// The fetch-join target: one compressed value column.
fn dim_table() -> Table {
    TableBuilder::new("dim")
        .column(
            "val",
            ColumnData::I64((0..DIM).map(|i| i * 3 % 1009).collect()),
        )
        .build()
}

fn opts() -> ExecOptions {
    ExecOptions::default().profiled()
}

fn test_plan() -> Plan {
    Plan::scan("fact", &["id", "k", "tag", "qty"]).select(lt(col("k"), lit_i64(500)))
}

/// Expected rows from a plain in-memory checkpoint (no durability).
fn clean_rows(plan: &Plan) -> Vec<String> {
    let mut t = fact_table();
    t.checkpoint();
    let mut db = Database::new();
    db.register(t);
    let (res, _) = execute(&db, plan, &opts()).expect("clean");
    res.row_strings()
}

#[test]
fn open_heals_corrupt_disk_replica_and_queries_match() {
    let dir = scratch("open");
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    let version = t.durable_source().expect("durable").version();
    drop(t);

    // Corrupt replica 0 of the predicate column (`k` is col 1).
    let bad = dir.join(format!("col001-v{version:010}-r0.chunks"));
    let mut bytes = std::fs::read(&bad).expect("replica 0");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5a;
    std::fs::write(&bad, &bytes).expect("corrupt replica 0");

    let rec = Table::open(&dir).expect("open heals from the other copy");
    let ds = rec.durable_source().expect("durable").clone();
    let mut db = Database::new();
    db.register(rec);

    let (got, _) = execute(&db, &plan, &opts()).expect("query after heal");
    assert_eq!(
        got.row_strings(),
        want,
        "healed table must be byte-identical"
    );
    assert!(ds.heals() >= 1, "open must have healed the bad replica");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_query_bit_rot_heals_from_disk_replica() {
    let dir = scratch("midquery");
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    // Rot one payload byte of `k`'s first chunk *in memory only* —
    // both disk replicas stay intact, so the scan can heal.
    assert!(t.corrupt_compressed_payload(1, 0, 13));
    let ds = t.durable_source().expect("durable").clone();
    let mut db = Database::new();
    db.register(t);

    let (got, prof) = execute(&db, &plan, &opts()).expect("query heals mid-flight");
    assert_eq!(got.row_strings(), want);
    assert!(
        prof.counter("chunk_heals").unwrap_or(0) >= 1,
        "heal must surface in the profile"
    );
    assert_eq!(ds.heals(), 1, "one corrupt column, one heal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_queries_heal_the_same_chunk_exactly_once() {
    let dir = scratch("concurrent");
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint_durable(&dir, &DurableOptions::default())
        .expect("durable checkpoint");
    assert!(t.corrupt_compressed_payload(1, 0, 13));
    let ds = t.durable_source().expect("durable").clone();
    let mut db = Database::new();
    db.register(t);

    // Two queries race into the same corrupt chunk; the healed-column
    // cache (held across the disk read) makes exactly one of them pay
    // for the heal, and both must return correct rows.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let db = &db;
                let plan = &plan;
                s.spawn(move || {
                    let (res, _) = execute(db, plan, &opts()).expect("concurrent query");
                    res.row_strings()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread"), want);
        }
    });
    assert_eq!(ds.heals(), 1, "concurrent damage heals exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_query_rot_without_durable_copy_falls_back_to_raw() {
    // Control: the same bit rot on a non-durable table takes the raw
    // fragment fallback (PR 6 contract) — correct rows, a
    // `decode_recoveries` tick, and no heal counter.
    let plan = test_plan();
    let want = clean_rows(&plan);

    let mut t = fact_table();
    t.checkpoint();
    assert!(t.corrupt_compressed_payload(1, 0, 13));
    let mut db = Database::new();
    db.register(t);

    let (got, prof) = execute(&db, &plan, &opts()).expect("raw fallback");
    assert_eq!(got.row_strings(), want);
    assert!(prof.counter("decode_recoveries").unwrap_or(0) >= 1);
    assert_eq!(prof.counter("chunk_heals").unwrap_or(0), 0);
}

/// One compressed-read site of the recovery ladder, reached by `plan`
/// when chunk 0 of `table`'s column `col` rots in memory.
struct Site {
    name: &'static str,
    plan: Plan,
    table: &'static str,
    col: usize,
}

fn ladder_sites() -> Vec<Site> {
    let pushed = || Plan::scan("fact", &["id", "k", "qty"]).select(lt(col("k"), lit_i64(500)));
    vec![
        Site {
            name: "dense scan",
            plan: Plan::scan("fact", &["id", "k", "qty"]),
            table: "fact",
            col: 1,
        },
        Site {
            name: "enum-decoded scan column",
            plan: Plan::scan("fact", &["id", "band"]),
            table: "fact",
            col: 4,
        },
        Site {
            name: "pushdown predicate column",
            plan: pushed(),
            table: "fact",
            col: 1,
        },
        Site {
            name: "lazily decoded payload column",
            plan: pushed(),
            table: "fact",
            col: 3,
        },
        Site {
            name: "PFOR-DELTA co-column",
            plan: pushed(),
            table: "fact",
            col: 0,
        },
        Site {
            name: "Fetch1Join into a compressed dimension",
            plan: Plan::scan("fact", &["id", "fk"]).fetch1("dim", col("fk"), &[("val", "val")]),
            table: "dim",
            col: 0,
        },
    ]
}

/// Both tables checkpointed (durably into `dir` when given), with
/// chunk 0 of `rot`'s column rotted in memory only.
fn site_db(rot: Option<(&str, usize)>, dir: Option<&std::path::Path>) -> Database {
    let mut db = Database::new();
    for mut t in [fact_table(), dim_table()] {
        let verdicts = match dir {
            Some(d) => t
                .checkpoint_durable(&d.join(t.name()), &DurableOptions::default())
                .expect("durable checkpoint"),
            None => t.checkpoint(),
        };
        // Each site below relies on its column's codec.
        for (name, fmt, _) in &verdicts {
            let want = match name.as_str() {
                "id" => ChunkFormat::PforDelta,
                "tag" => ChunkFormat::Pdict,
                _ => ChunkFormat::Pfor,
            };
            assert_eq!(*fmt, want, "{name}");
        }
        if let Some((name, col)) = rot {
            if t.name() == name {
                assert!(t.corrupt_compressed_payload(col, 0, 13), "{name}.{col}");
            }
        }
        db.register(t);
    }
    db
}

#[test]
fn every_compressed_read_site_heals_from_a_durable_replica() {
    for site in ladder_sites() {
        let (want, _) = execute(&site_db(None, None), &site.plan, &opts()).expect("clean");
        let dir = scratch("site");
        let db = site_db(Some((site.table, site.col)), Some(&dir));
        let (got, prof) = execute(&db, &site.plan, &opts()).expect(site.name);
        assert_eq!(got.row_strings(), want.row_strings(), "{}", site.name);
        assert_eq!(prof.counter("chunk_heals"), Some(1), "{}", site.name);
        assert_eq!(prof.counter("decode_recoveries"), None, "{}", site.name);
        let _ = std::fs::remove_dir_all(&dir);

        // Control: without a durable copy the same rot takes the raw
        // fragment fallback.
        let db = site_db(Some((site.table, site.col)), None);
        let (got, prof) = execute(&db, &site.plan, &opts()).expect(site.name);
        assert_eq!(got.row_strings(), want.row_strings(), "{}", site.name);
        assert!(
            prof.counter("decode_recoveries").unwrap_or(0) > 0,
            "{}",
            site.name
        );
        assert_eq!(prof.counter("chunk_heals"), None, "{}", site.name);
    }
}
