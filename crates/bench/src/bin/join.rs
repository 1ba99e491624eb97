//! Cache-conscious parallel hash join: build cardinality × partition
//! bits × thread sweep (beyond the paper).
//!
//! Joins a probe stream against build sides of growing cardinality —
//! small enough for one cache-resident hash table up to far past L2 —
//! under every combination of radix partition bits (0 = the seed's
//! monolithic table, `derived` = the cache-budget heuristic) and morsel
//! worker counts. Every configuration is checked for exact equality
//! against the sequential monolithic answer (integer aggregates), and a
//! machine-readable `BENCH_join.json` is written to the working
//! directory.
//!
//! The speedup you observe is bounded by the cores actually available:
//! on a single-core host every configuration degenerates to ~1×, so the
//! JSON records `available_parallelism` alongside the timings.
//!
//! Usage: `join [--probe 2000000] [--reps 3] [--smoke]`

use std::time::Instant;
use x100_bench::{arg_flag, arg_usize, secs};
use x100_engine::expr::col;
use x100_engine::ops::JoinType;
use x100_engine::plan::Plan;
use x100_engine::session::{execute, Database, ExecOptions};
use x100_engine::AggExpr;
use x100_storage::{ColumnData, TableBuilder};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Fact/dim pair: probe keys cycle `0..2*card`, so half the probe
/// stream misses the build side and exercises the Bloom prepass.
fn star_db(card: usize, probe_rows: usize) -> Database {
    let mut db = Database::new();
    db.register(
        TableBuilder::new("dim")
            .column("k", ColumnData::I64((0..card as i64).collect()))
            .column(
                "payload",
                ColumnData::I64((0..card as i64).map(|i| i * 7).collect()),
            )
            .build(),
    );
    db.register(
        TableBuilder::new("facts")
            .column(
                "k",
                ColumnData::I64(
                    (0..probe_rows as i64)
                        .map(|i| (i * 2_654_435_761i64) % (2 * card as i64))
                        .collect(),
                ),
            )
            .column("v", ColumnData::I64((0..probe_rows as i64).collect()))
            // Positional foreign key for the Fetch1Join sweep, inside
            // [0, card). Left raw (no checkpoint) so the positional
            // gather, not the compressed fast path, serves the fetch.
            .column(
                "rid",
                ColumnData::U32((0..probe_rows).map(|i| (i % card) as u32).collect()),
            )
            .build(),
    );
    db
}

fn fetch_plan() -> Plan {
    Plan::scan("facts", &["rid", "v"])
        .fetch1("dim", col("rid"), &[("payload", "p")])
        .aggr(
            vec![],
            vec![
                AggExpr::count("cnt"),
                AggExpr::sum("sv", col("v")),
                AggExpr::sum("sp", col("p")),
            ],
        )
}

fn join_plan() -> Plan {
    Plan::HashJoin {
        build: Box::new(Plan::scan("dim", &["k", "payload"])),
        probe: Box::new(Plan::scan("facts", &["k", "v"])),
        build_keys: vec![col("k")],
        probe_keys: vec![col("k")],
        payload: vec![("payload".into(), "p".into())],
        join_type: JoinType::Inner,
    }
    .aggr(
        vec![],
        vec![
            AggExpr::count("cnt"),
            AggExpr::sum("sv", col("v")),
            AggExpr::sum("sp", col("p")),
        ],
    )
}

struct Run {
    card: usize,
    bits: Option<u32>, // None = derived from the cache budget
    threads: usize,
    median_s: f64,
    speedup: f64,
    ok: bool,
}

fn main() {
    let smoke = arg_flag("--smoke");
    let reps = arg_usize("--reps", if smoke { 1 } else { 3 });
    let probe_rows = arg_usize("--probe", if smoke { 20_000 } else { 2_000_000 });
    let cards: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let bits_axis: &[Option<u32>] = if smoke {
        &[Some(0), Some(4), None]
    } else {
        &[Some(0), Some(4), Some(8), None]
    };
    let threads_axis: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Single-core runs cannot show thread scaling; mark them so the
    // JSON consumer does not read the flat speedup curve as a regression.
    let degraded = cores == 1;
    if degraded {
        eprintln!(
            "warning: only 1 core available; speedups will be flat and this run is marked \"degraded\": true"
        );
    }
    let plan = join_plan();

    println!(
        "hash join sweep: probe {probe_rows} rows, reps {reps}, {cores} core(s) available{}",
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>10} {:>8} {:>8} {:>12} {:>9}  check",
        "build", "bits", "threads", "median (s)", "speedup"
    );

    let mut runs: Vec<Run> = Vec::new();
    for &card in cards {
        let db = star_db(card, probe_rows);
        let (seq, _) = execute(
            &db,
            &plan,
            &ExecOptions::default().with_join_partition_bits(0),
        )
        .expect("sequential monolithic join");
        let reference = seq.row_strings();
        let mut base = 0.0f64;
        for &bits in bits_axis {
            for &threads in threads_axis {
                let mut opts = ExecOptions::default().parallel(threads);
                if let Some(b) = bits {
                    opts = opts.with_join_partition_bits(b);
                }
                let mut times = Vec::with_capacity(reps);
                let mut ok = true;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let (res, _) = execute(&db, &plan, &opts).expect("join run");
                    times.push(secs(t0.elapsed()));
                    ok &= res.row_strings() == reference;
                }
                let med = median(times);
                // Speedup is against the monolithic single-thread run of
                // the same cardinality — the seed configuration.
                if bits == Some(0) && threads == 1 {
                    base = med;
                }
                let speedup = if med > 0.0 { base / med } else { 0.0 };
                let bits_str = bits.map_or("derived".to_string(), |b| b.to_string());
                println!(
                    "{card:>10} {bits_str:>8} {threads:>8} {med:>12.6} {speedup:>8.2}x  {}",
                    if ok { "match" } else { "MISMATCH" }
                );
                runs.push(Run {
                    card,
                    bits,
                    threads,
                    median_s: med,
                    speedup,
                    ok,
                });
            }
        }
    }

    // ---- Fetch1Join sweep: positional gathers at every thread count ----
    // Outputs must stay byte-identical to the single-thread run.
    println!("\nfetch sweep: positional Fetch1Join");
    println!(
        "{:>10} {:>8} {:>12}  check",
        "build", "threads", "median (s)"
    );
    let fplan = fetch_plan();
    let fetch_threads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut fetch_runs: Vec<(usize, usize, f64, bool)> = Vec::new();
    for &card in cards {
        let db = star_db(card, probe_rows);
        let (seq, _) = execute(&db, &fplan, &ExecOptions::default()).expect("sequential fetch");
        let reference = seq.row_strings();
        for &threads in fetch_threads {
            let opts = ExecOptions::default().parallel(threads);
            let mut times = Vec::with_capacity(reps);
            let mut ok = true;
            for _ in 0..reps {
                let t0 = Instant::now();
                let (res, _) = execute(&db, &fplan, &opts).expect("fetch run");
                times.push(secs(t0.elapsed()));
                ok &= res.row_strings() == reference;
            }
            let med = median(times);
            println!(
                "{card:>10} {threads:>8} {med:>12.6}  {}",
                if ok { "match" } else { "MISMATCH" }
            );
            fetch_runs.push((card, threads, med, ok));
        }
    }

    // Hand-rolled JSON — the workspace deliberately has no serde.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"hash_join_radix\",\n");
    json.push_str(&format!(
        "  \"probe_rows\": {probe_rows},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n"
    ));
    json.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    json.push_str(&format!("  \"degraded\": {degraded},\n"));
    json.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let bits = r.bits.map_or("\"derived\"".to_string(), |b| b.to_string());
        json.push_str(&format!(
            "    {{\"build_rows\": {}, \"partition_bits\": {bits}, \"threads\": {}, \"median_s\": {:.6}, \"speedup_vs_seed\": {:.3}, \"matches_sequential\": {}}}{}\n",
            r.card,
            r.threads,
            r.median_s,
            r.speedup,
            r.ok,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fetch_sweep\": [\n");
    for (i, (card, threads, med, ok)) in fetch_runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"build_rows\": {card}, \"threads\": {threads}, \"median_s\": {med:.6}, \"matches_sequential\": {ok}}}{}\n",
            if i + 1 < fetch_runs.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_join.json", &json).expect("write BENCH_join.json");
    println!("\nwrote BENCH_join.json");

    if runs.iter().any(|r| !r.ok) || fetch_runs.iter().any(|r| !r.3) {
        std::process::exit(1);
    }
}
