//! End-to-end TPC-H + refresh benchmark of the X100 engine.
//!
//! ```text
//! tpchbench --workload <tpch-raw|refresh>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates TPC-H data at SF 0.1 from `--seed`, sets the workload up, then runs
//! a closed loop (one client, the 22 queries in order, each starting
//! when the previous one finishes) for `--seconds`. Every answer is
//! checked against the MIL interpreter's answer on the same logical
//! state. The benchmark calls only public functions of the engine and
//! times each call from outside (see `trace.rs`).
//!
//! Times are CPU time of the process (`trace.rs`), and a run reports
//! each query's fastest run, not its median. On a host whose cores are
//! shared with other machines, every query of a round runs 1.3-1.6x
//! slower for tens of seconds at a time while a neighbour is busy; that
//! moves the median of a whole run, while the fastest of a query's runs
//! stays within a few percent. `setup_s` is the median of its set-ups.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! loop with an untraced and an `ExecOptions::profiled()` round per
//! slot, alternating which goes first, then on `tpch-raw` a few
//! profiled rounds at the host's available parallelism for the parallel
//! layer, and prints the per-layer metrics. The last stdout line is the
//! result object; the line before it records the run's facts (SF, seed,
//! threads, percentile, caveats).

mod layers;
mod refresh;
mod trace;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use tpch::gen::{generate, GenConfig};
use tpch::milql::MatFlow;
use tpch::queries::{all_specs, run_mil, QuerySpec};
use x100_engine::session::{execute, Database, ExecOptions, QueryResult};
use x100_engine::{check_plan, Profiler};
use x100_storage::{DurableOptions, Table};
use x100_vector::Value;

use layers::RoundLayers;
use trace::Tracer;

/// TPC-H scale factor of every workload (about 600k lineitems).
const SF: f64 = 0.1;
/// An untraced run sets up at least `MIN_SETUPS` times and goes on
/// until `SETUP_BUDGET_S` is spent; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 5.0;
/// Relative tolerance for f64 answers in the parallel rounds, where
/// sums are merged in worker order (as in engine/tests/parallel.rs).
const PARALLEL_F64_TOL: f64 = 1e-6;
/// Profiled rounds at the host's available parallelism in a traced
/// `tpch-raw` run.
const PARALLEL_ROUNDS: usize = 3;
/// Query rounds per refresh cycle. Fewer rounds give more cycles, and
/// so more samples of each write step, in a run of fixed length.
const ROUNDS_PER_CYCLE: usize = 4;
/// TPC-H refresh batches are 0.1% of orders (1500 per unit of SF).
const RF_ORDERS_PER_SF: f64 = 1500.0;
/// Output directory, relative to the working directory.
const OUT_DIR: &str = ".bench_data";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Raw,
    Refresh,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "tpch-raw" => Workload::Raw,
            "refresh" => Workload::Refresh,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Raw => "tpch-raw",
            Workload::Refresh => "refresh",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("missing value for {k}"))?;
        if !matches!(
            k.as_str(),
            "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument {k}"));
        }
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let seconds = get("--seconds")?;
    let workload = get("--workload")?;
    let trace = get("--trace")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_owned())?,
        seconds: seconds
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--seconds must be a positive number, got {seconds}"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got {trace}")),
        },
    })
}

/// The catalog's tables, owned so that refresh can mutate them.
struct State {
    tables: BTreeMap<String, Arc<Table>>,
}

impl State {
    fn from_db(db: Database) -> Result<State, String> {
        let tables = db
            .table_names()
            .map(|n| Ok((n.to_owned(), db.table(n).map_err(|e| e.to_string())?)))
            .collect::<Result<_, String>>()?;
        Ok(State { tables })
    }

    fn db(&self) -> Database {
        let mut db = Database::new();
        for t in self.tables.values() {
            db.register_arc(t.clone());
        }
        db
    }

    /// Take a table out for mutation; no catalog may be alive.
    fn take(&mut self, name: &str) -> Table {
        let arc = self.tables.remove(name).expect("table in catalog");
        Arc::try_unwrap(arc).unwrap_or_else(|_| panic!("table {name} is still shared"))
    }

    fn put(&mut self, t: Table) {
        self.tables.insert(t.name().to_owned(), Arc::new(t));
    }

    /// Resident bytes: fragments, dictionaries and deltas as
    /// `Table::byte_size` counts them, plus the compressed chunks kept
    /// beside the raw fragment.
    fn bytes(&self) -> (f64, f64) {
        let mut raw = 0usize;
        let mut compressed = 0u64;
        for t in self.tables.values() {
            raw += t.byte_size();
            for i in 0..t.num_columns() {
                compressed += t.column(i).compressed().map_or(0, |c| c.compressed_bytes());
            }
        }
        (raw as f64 / MB, compressed as f64 / MB)
    }

    fn heals(&self) -> u64 {
        self.tables
            .values()
            .filter_map(|t| t.durable_source().map(|d| d.heals()))
            .sum()
    }
}

const MB: f64 = (1u64 << 20) as f64;

/// The MIL interpreter's answer to one query, and its row strings.
struct Answer {
    result: MatFlow,
    rows: Vec<String>,
}

impl Answer {
    /// Whether `got` is this answer. Without a tolerance the rows must
    /// match as `row_strings` prints them. With `f64_tol`, values are
    /// compared column by column: an f64 may differ by that share of
    /// its magnitude (at least 1), every other value must match.
    fn matches(&self, got: &QueryResult, f64_tol: Option<f64>) -> bool {
        let Some(tol) = f64_tol else {
            return got.row_strings() == self.rows;
        };
        let want = &self.result;
        got.num_rows() == want.num_rows()
            && got.fields().len() == want.names().len()
            && want.names().iter().enumerate().all(|(c, name)| {
                let col = want.col(name);
                (0..want.num_rows()).all(|r| match (got.value(r, c), col.get(r)) {
                    (Value::F64(a), Value::F64(b)) => (a - b).abs() <= tol * b.abs().max(1.0),
                    (a, b) => a.to_string() == b.to_string(),
                })
            })
    }
}

/// Answers of one state, one per query.
type Reference = Vec<Answer>;

fn mil_reference(
    db: &Database,
    specs: &[(u32, QuerySpec)],
    tracer: &mut Tracer,
) -> Result<Reference, String> {
    tracer
        .time("reference.run_mil", || {
            specs
                .iter()
                .map(|(q, spec)| {
                    run_mil(db, spec)
                        .map(|result| Answer {
                            rows: result.row_strings(),
                            result,
                        })
                        .map_err(|e| format!("MIL reference of q{q} failed: {e}"))
                })
                .collect()
        })
        .0
}

/// Hash of every value of a result, f64s by bit pattern (the row
/// strings round to 4 decimals and hide last-bit drift).
fn fingerprint(r: &QueryResult) -> u64 {
    let mut h = DefaultHasher::new();
    for row in 0..r.num_rows() {
        for c in 0..r.fields().len() {
            match r.value(row, c) {
                Value::F64(x) => x.to_bits().hash(&mut h),
                v => v.to_string().hash(&mut h),
            }
        }
    }
    h.finish()
}

/// One query's run: its CPU and wall time (both excluding the separate
/// plan checks), check time, and result with per-phase profilers.
struct Outcome {
    ms: f64,
    wall_ms: f64,
    check_s: f64,
    result: Result<(QueryResult, Vec<Profiler>), String>,
}

fn run_query(
    db: &Database,
    spec: &QuerySpec,
    opts: &ExecOptions,
    check: bool,
    tracer: &mut Tracer,
) -> Outcome {
    let mut check_s = 0.0;
    let (result, idx) = tracer.span("engine.query", |tr| {
        let mut phase = |tr: &mut Tracer, plan: &x100_engine::plan::Plan| {
            if check {
                let (r, s) = tr.time("engine.check_plan", || check_plan(db, plan, opts));
                check_s += s;
                r.map_err(|e| e.to_string())?;
            }
            tr.time("engine.execute", || execute(db, plan, opts))
                .0
                .map_err(|e| e.to_string())
        };
        match spec {
            QuerySpec::Single(p) => phase(tr, p).map(|(r, prof)| (r, vec![prof])),
            QuerySpec::TwoPhase(tp) => {
                let (r1, p1) = phase(tr, &tp.phase1)?;
                let col = r1
                    .col_index(tp.scalar_col)
                    .filter(|_| r1.num_rows() == 1)
                    .ok_or("phase 1 must yield one row with the scalar column")?;
                let scalar = r1.value(0, col).as_f64();
                let (r2, p2) = phase(tr, &(tp.phase2)(scalar))?;
                Ok((r2, vec![p1, p2]))
            }
        }
    });
    let span = tracer.get(idx);
    Outcome {
        ms: (span.secs() - check_s) * 1e3,
        wall_ms: (span.wall_secs() - check_s) * 1e3,
        check_s,
        result,
    }
}

/// Everything the timed loop collects.
#[derive(Default)]
struct Collected {
    /// Per-round query times of untraced rounds.
    untraced: Vec<Vec<f64>>,
    /// Per-round query times of traced rounds.
    traced: Vec<Vec<f64>>,
    /// Per-layer values of each traced round.
    layers: Vec<BTreeMap<String, f64>>,
    other_ops: std::collections::BTreeSet<String>,
    attempted: u64,
    /// Failure message → how often it happened.
    failures: BTreeMap<String, u64>,
    /// Queries whose parallel answer differed bitwise from 1 thread.
    bit_mismatch: std::collections::BTreeSet<u32>,
}

impl Collected {
    fn fail(&mut self, msg: String) {
        *self.failures.entry(msg).or_default() += 1;
    }
}

struct Ctx<'a> {
    args: &'a Args,
    specs: Vec<(u32, QuerySpec)>,
    threads: usize,
    /// Tolerance of the answer check for f64 values, if any.
    f64_tol: Option<f64>,
}

impl Ctx<'_> {
    fn opts(&self, profiled: bool) -> ExecOptions {
        let o = ExecOptions::default().parallel(self.threads);
        if profiled {
            o.profiled()
        } else {
            o
        }
    }

    /// One 22-query round, every answer checked.
    fn round(
        &self,
        db: &Database,
        traced: bool,
        reference: &Reference,
        bits: Option<&[u64]>,
        tracer: &mut Tracer,
        out: &mut Collected,
    ) {
        let opts = self.opts(traced);
        let mut layers = RoundLayers::new(self.threads);
        let mut times = Vec::with_capacity(self.specs.len());
        tracer.span("suite.round", |tr| {
            for (i, (q, spec)) in self.specs.iter().enumerate() {
                let o = run_query(db, spec, &opts, traced, tr);
                out.attempted += 1;
                // CPU time adds up the workers of a parallel query, so
                // the parallel rounds are timed by the wall clock.
                times.push(if self.threads > 1 { o.wall_ms } else { o.ms });
                match o.result {
                    Err(e) => out.fail(format!("q{q}: error: {e}")),
                    Ok((r, profs)) => {
                        if !reference[i].matches(&r, self.f64_tol) {
                            out.fail(format!("q{q}: answer differs from the MIL reference"));
                        }
                        if bits.is_some_and(|b| b[i] != fingerprint(&r)) {
                            out.bit_mismatch.insert(*q);
                        }
                        if traced {
                            layers.add_query(*q, &profs, o.ms, o.wall_ms, o.check_s, r.num_rows());
                        }
                    }
                }
            }
        });
        if traced {
            out.other_ops.extend(layers.other_ops.iter().cloned());
            out.layers.push(layers.finish());
            out.traced.push(times);
        } else {
            out.untraced.push(times);
        }
    }

    /// The untraced round, or in a traced run an untraced and a traced
    /// round in alternating order.
    fn slot(&self, db: &Database, reference: &Reference, tracer: &mut Tracer, out: &mut Collected) {
        let n = out.untraced.len();
        let order: &[bool] = match (self.args.trace, n % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            self.round(db, traced, reference, None, tracer, out);
        }
    }
}

/// Generate, load, and checkpoint (durably for `refresh`): the state
/// under test and the seconds the timed steps took.
fn setup(ctx: &Ctx, tracer: &mut Tracer, ckpt_root: &Path) -> Result<(State, f64), String> {
    tracer.next_run();
    tracer.span("setup", |tr| setup_steps(ctx, tr, ckpt_root)).0
}

fn setup_steps(ctx: &Ctx, tracer: &mut Tracer, ckpt_root: &Path) -> Result<(State, f64), String> {
    let a = ctx.args;
    let (data, gen_s) = tracer.time("tpch.gen", || {
        generate(&GenConfig {
            sf: SF,
            seed: a.seed,
        })
    });
    let (db, load_s) = tracer.time("tpch.load", || tpch::build_x100_db(&data));
    drop(data);
    let mut state = State::from_db(db)?;
    let mut setup_s = gen_s + load_s;
    if a.workload == Workload::Refresh {
        let names: Vec<String> = state.tables.keys().cloned().collect();
        for name in names {
            let mut t = state.take(&name);
            setup_s += tracer.time("storage.checkpoint", || t.checkpoint()).1;
            let dir = ckpt_root.join(&name);
            let (r, s) = tracer.time("storage.durable_commit", || {
                t.checkpoint_durable(&dir, &DurableOptions::default())
            });
            r.map_err(|e| format!("durable checkpoint of {name}: {e}"))?;
            drop(t);
            let (r, s2) = tracer.time("storage.open", || Table::open(&dir));
            let t = r.map_err(|e| format!("open {name}: {e}"))?;
            setup_s += s + s2;
            state.put(t);
        }
    }
    Ok((state, setup_s))
}

/// The same data loaded again, untimed, into raw tables that are never
/// checkpointed: the state the MIL reference runs on.
fn raw_copy(ctx: &Ctx, tracer: &mut Tracer) -> Result<State, String> {
    let (db, _) = tracer.time("reference.load", || {
        tpch::build_x100_db(&generate(&GenConfig {
            sf: SF,
            seed: ctx.args.seed,
        }))
    });
    State::from_db(db)
}

/// What a refresh cycle does to orders and lineitem (RF2 delete,
/// reorganize, RF1 append, reorganize), applied to the raw copy the
/// reference runs on.
fn mirror_cycle(mirror: &mut State, tail: &refresh::Tail, batch: &refresh::Batch) {
    let mut o = mirror.take("orders");
    let mut l = mirror.take("lineitem");
    for r in tail.orders.clone() {
        o.delete(r);
    }
    for r in tail.lineitems.clone() {
        l.delete(r);
    }
    o.reorganize();
    l.reorganize();
    for row in &batch.orders {
        o.insert(row);
    }
    for row in &batch.lineitems {
        l.insert(row);
    }
    o.reorganize();
    l.reorganize();
    mirror.put(o);
    mirror.put(l);
}

/// Files under `dir`, recursively: path → size.
fn list_files(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in rd.flatten() {
            let p = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(p),
                Ok(m) => {
                    out.insert(p, m.len());
                }
                Err(_) => {}
            }
        }
    }
    out
}

/// Per-cycle storage numbers of the refresh workload.
#[derive(Default)]
struct RefreshStats {
    refresh_s: Vec<f64>,
    reopen_s: Vec<f64>,
    /// Per cycle, the times of its writes, reorganizes, checkpoints,
    /// commits and reopens, in the order they ran.
    write_steps: Vec<Vec<f64>>,
    write_s: Vec<f64>,
    reorganize_s: Vec<f64>,
    checkpoint_s: Vec<f64>,
    commit_s: Vec<f64>,
    /// Chunk heals of every table this loop retired.
    heals: u64,
    /// First cycle only, so that the counts repeat exactly per seed.
    files_written: f64,
    write_amp: f64,
    disk_mb: f64,
}

/// The closed loop of the `refresh` workload: per cycle RF2 (delete
/// the previous batch, reorganize), RF1 (append a new batch), durable
/// commit of the touched tables, reopen, then up to `ROUNDS_PER_CYCLE`
/// 22-query rounds (at least one; no more once the run's time is up).
/// The first two cycles draw new batches, A and B, from `mirror`, a raw
/// copy that gets the same writes untimed and that the MIL reference
/// runs on after the cycle. Later cycles append A and B in turn: a cycle
/// deletes the previous batch, which restores the state both first
/// cycles appended to, so the state after any cycle is the state after
/// cycle 0 or cycle 1, and that cycle's reference answers apply. The
/// untimed mirror writes and MIL runs then take no time from the cycles
/// after the first two.
fn refresh_loop(
    ctx: &Ctx,
    mut state: State,
    mut mirror: State,
    ckpt_root: &Path,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> Result<(RefreshStats, State), String> {
    let a = ctx.args;
    let k = ((SF * RF_ORDERS_PER_SF).round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(a.seed ^ 0x5246_3132);
    let mut stats = RefreshStats::default();
    let (cols, mut tail, mut next_key) = {
        let o = &mirror.tables["orders"];
        let l = &mirror.tables["lineitem"];
        let cols = refresh::Cols::new(o, l)?;
        let tail = refresh::base_tail(o, l, &cols, k)?;
        let max_key = o
            .column_by_name("o_orderkey")
            .physical()
            .as_i64()
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        (cols, tail, max_key + 1)
    };
    // The batch, the tail it leaves and the reference answers of cycles
    // 0 and 1.
    let mut made: Vec<(Rc<refresh::Batch>, refresh::Tail, Rc<Reference>)> = Vec::new();
    let start = std::time::Instant::now();
    while start.elapsed().as_secs_f64() < a.seconds || out.untraced.is_empty() {
        let run = tracer.next_run();
        let cycle = stats.write_steps.len();
        // Inputs for this cycle, made before anything is timed.
        let (batch, next_tail, deleted_bytes) = if cycle >= 2 {
            let (b, nt, _) = &made[cycle % 2];
            (b.clone(), nt.clone(), 0)
        } else {
            let o = &mirror.tables["orders"];
            let l = &mirror.tables["lineitem"];
            let (b, nt) = refresh::make_batch(o, l, &cols, &tail, k, &mut next_key, &mut rng)?;
            (Rc::new(b), nt, refresh::tail_bytes(o, l, &tail))
        };
        let user_bytes = (batch.bytes() + deleted_bytes) as f64;
        let before: Vec<_> = ["orders", "lineitem"]
            .iter()
            .map(|n| list_files(&ckpt_root.join(n)))
            .collect();
        let mut orders = state.take("orders");
        let mut lineitem = state.take("lineitem");
        stats.heals += [&orders, &lineitem]
            .iter()
            .filter_map(|t| t.durable_source().map(|d| d.heals()))
            .sum::<u64>();
        let rows_after = (
            tail.orders.start as usize + batch.orders.len(),
            tail.lineitems.start as usize + batch.lineitems.len(),
        );
        let (res, cycle_idx) = tracer.span("refresh.cycle", |tr| -> Result<(), String> {
            let deleted = tr
                .time("storage.write", || {
                    let o = tail.orders.clone().filter(|&r| orders.delete(r)).count();
                    o + tail
                        .lineitems
                        .clone()
                        .filter(|&r| lineitem.delete(r))
                        .count()
                })
                .0;
            if deleted != tail.orders.len() + tail.lineitems.len() {
                return Err("RF2 did not delete the whole previous batch".into());
            }
            tr.time("storage.reorganize", || orders.reorganize());
            tr.time("storage.reorganize", || lineitem.reorganize());
            tr.time("storage.write", || {
                for row in &batch.orders {
                    orders.insert(row);
                }
                for row in &batch.lineitems {
                    lineitem.insert(row);
                }
            });
            for t in [&mut orders, &mut lineitem] {
                let dir = ckpt_root.join(t.name());
                tr.time("storage.reorganize", || t.reorganize());
                tr.time("storage.checkpoint", || t.checkpoint());
                tr.time("storage.durable_commit", || {
                    t.checkpoint_durable(&dir, &DurableOptions::default())
                })
                .0
                .map_err(|e| format!("durable checkpoint of {}: {e}", t.name()))?;
            }
            drop((orders, lineitem));
            for (name, rows) in [("orders", rows_after.0), ("lineitem", rows_after.1)] {
                let dir = ckpt_root.join(name);
                let t = tr
                    .time("storage.open", || Table::open(&dir))
                    .0
                    .map_err(|e| format!("open {name}: {e}"))?;
                // Every committed write must be readable after reopening.
                if t.live_rows() != rows {
                    return Err(format!(
                        "{name} reopened with {} rows, expected {rows}",
                        t.live_rows()
                    ));
                }
                state.put(t);
            }
            Ok(())
        });
        out.attempted += 1;
        if let Err(e) = res {
            out.fail(format!("refresh cycle {run}: {e}"));
            break;
        }
        let sum = |name: &str| tracer.run_total(run, name);
        let (write, reorg, ckpt, commit, open) = (
            sum("storage.write"),
            sum("storage.reorganize"),
            sum("storage.checkpoint"),
            sum("storage.durable_commit"),
            sum("storage.open"),
        );
        stats.write_s.push(write);
        stats.reorganize_s.push(reorg);
        stats.checkpoint_s.push(ckpt);
        stats.commit_s.push(commit);
        stats.refresh_s.push(write + reorg + ckpt + commit);
        stats.reopen_s.push(open);
        if stats.write_steps.is_empty() {
            let mut files = 0u64;
            let mut bytes = 0u64;
            for (i, n) in ["orders", "lineitem"].iter().enumerate() {
                for (p, len) in list_files(&ckpt_root.join(n)) {
                    if before[i].get(&p) != Some(&len) {
                        files += 1;
                        bytes += len;
                    }
                }
            }
            stats.files_written = files as f64;
            stats.write_amp = bytes as f64 / user_bytes;
            stats.disk_mb = list_files(ckpt_root).values().sum::<u64>() as f64 / MB;
        }
        let reference = if cycle < 2 {
            tracer.time("reference.mirror", || {
                mirror_cycle(&mut mirror, &tail, &batch)
            });
            let r = Rc::new(mil_reference(&mirror.db(), &ctx.specs, tracer)?);
            made.push((batch.clone(), next_tail.clone(), r.clone()));
            r
        } else {
            made[cycle % 2].2.clone()
        };
        tail = next_tail;
        stats.write_steps.push(tracer.children_secs(cycle_idx));
        let db = state.db();
        for i in 0..ROUNDS_PER_CYCLE {
            if i > 0 && start.elapsed().as_secs_f64() >= a.seconds {
                break;
            }
            ctx.slot(&db, &reference, tracer, out);
        }
    }
    Ok((stats, state))
}

/// Profiled rounds at `threads` (the host's available parallelism) on
/// the raw tables, for the parallel layer's numbers: answers checked
/// with the f64 tolerance, and compared bit for bit with the 1-thread
/// X100 answers for `parallel.bit_mismatch_queries`.
fn parallel_rounds(
    ctx: &Ctx,
    db: &Database,
    reference: &Reference,
    threads: usize,
    tracer: &mut Tracer,
) -> Result<Collected, String> {
    let o = ExecOptions::default();
    let (bits, _) = tracer.time("reference.run_x100_1thread", || {
        ctx.specs
            .iter()
            .map(|(q, spec)| {
                tpch::queries::run_x100(db, spec, &o)
                    .map(|r| fingerprint(&r))
                    .map_err(|e| format!("1-thread q{q} failed: {e}"))
            })
            .collect::<Result<Vec<u64>, String>>()
    });
    let bits = bits?;
    let par_ctx = Ctx {
        args: ctx.args,
        specs: all_specs(),
        threads,
        f64_tol: Some(PARALLEL_F64_TOL),
    };
    let mut out = Collected::default();
    for _ in 0..PARALLEL_ROUNDS {
        tracer.next_run();
        par_ctx.round(db, true, reference, Some(&bits), tracer, &mut out);
    }
    Ok(out)
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of `v` that has at least ten samples beyond
/// it: `(value, percentile, samples beyond)`. Below 21 samples that
/// percentile would lie under the median, so the median is reported.
fn tail(v: &[f64]) -> (f64, f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 21 {
        return (median(v), 50.0, n / 2);
    }
    let k = n - 11;
    (s[k], 100.0 * k as f64 / (n - 1) as f64, 10)
}

/// Round totals (s) of a set of rounds, and each query's fastest run
/// (ms) over them.
fn summarize(rounds: &[Vec<f64>], nq: usize) -> (Vec<f64>, Vec<f64>) {
    let totals = rounds.iter().map(|r| r.iter().sum::<f64>() / 1e3).collect();
    let per_q = (0..nq)
        .map(|i| min(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect();
    (totals, per_q)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

const CAVEATS: [&str; 3] = [
    "operator time is keyed by operator kind, so several operators of one kind in a plan (Q9's three Fetch1Joins) merge into one number",
    "primitive time is keyed by the bind-time signature, so compressed gathers are counted under the _unchecked fetch signatures",
    "TopN records its time under the Order operator kind, so engine.op.topn_ms reads 0",
];

fn run(args: &Args) -> Result<(), String> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        args,
        specs: all_specs(),
        threads: 1,
        f64_tol: None,
    };
    let nq = ctx.specs.len();
    let out_dir = PathBuf::from(OUT_DIR);
    let ckpt_root = out_dir.join(format!("ckpt-{}", std::process::id()));
    let _cleanup = RemoveOnDrop(ckpt_root.clone());
    let mut tracer = Tracer::new();

    // Setup, repeated for a steady setup_s; the last one is kept.
    let min_setups = if args.trace { 1 } else { MIN_SETUPS };
    let setups_started = std::time::Instant::now();
    let mut setup_times = Vec::new();
    let mut kept = None;
    while setup_times.len() < min_setups
        || (!args.trace && setups_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        // Free the previous setup before building the next one.
        drop(kept.take());
        let _ = std::fs::remove_dir_all(&ckpt_root);
        let (s, secs) = setup(&ctx, &mut tracer, &ckpt_root)?;
        setup_times.push(secs);
        kept = Some(s);
    }
    let mut state = kept.expect("at least one setup");
    let setup_run = tracer.next_run() - 1;
    let (raw_mb, compressed_mb) = state.bytes();
    let mut out = Collected::default();
    let mut par = Collected::default();
    let refresh_stats = if args.workload == Workload::Refresh {
        // The reference runs on raw tables that are never checkpointed,
        // loaded a second time.
        let mirror = raw_copy(&ctx, &mut tracer)?;
        let (stats, s) = refresh_loop(&ctx, state, mirror, &ckpt_root, &mut tracer, &mut out)?;
        state = s;
        stats
    } else {
        let db = state.db();
        let reference = mil_reference(&db, &ctx.specs, &mut tracer)?;
        let start = std::time::Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds || out.untraced.is_empty() {
            tracer.next_run();
            ctx.slot(&db, &reference, &mut tracer, &mut out);
        }
        if args.trace {
            par = parallel_rounds(&ctx, &db, &reference, available, &mut tracer)?;
        }
        RefreshStats::default()
    };
    out.attempted += par.attempted;
    for (f, n) in std::mem::take(&mut par.failures) {
        *out.failures.entry(f).or_default() += n;
    }
    let heals = state.heals() + refresh_stats.heals;
    drop(state);

    let (totals, per_q) = summarize(&out.untraced, nq);
    let (tail_s, tail_pct, tail_beyond) = tail(&totals);
    // A round made of each query's fastest run (see the module docs).
    let suite_s = per_q.iter().sum::<f64>() / 1e3;
    let failed: u64 = out.failures.values().sum();
    let mut metrics = Vec::new();
    if !args.trace {
        // A cycle's writes made of each step's fastest run, plus a round.
        let steps = &refresh_stats.write_steps;
        let write_path_s: f64 = (0..steps.first().map_or(0, Vec::len))
            .map(|j| min(&steps.iter().map(|c| c[j]).collect::<Vec<_>>()))
            .sum();
        let cycle_s = write_path_s + suite_s;
        metrics.push(metric("setup_s", median(&setup_times), "s"));
        metrics.push(metric("suite_s", suite_s, "s"));
        metrics.push(metric("query_geomean_ms", geomean(&per_q), "ms"));
        metrics.push(metric("resident_mb", raw_mb + compressed_mb, "MB"));
        metrics.push(metric("cycle_s", cycle_s, "s"));
    } else {
        let rs = &refresh_stats;
        let refresh = args.workload == Workload::Refresh;
        let setup_sum = |name: &str| tracer.run_total(setup_run, name);
        metrics.push(metric("suite_median_s", median(&totals), "s"));
        metrics.push(metric("suite_tail_s", tail_s, "s"));
        metrics.push(metric("tpch.gen_s", setup_sum("tpch.gen"), "s"));
        metrics.push(metric("tpch.load_s", setup_sum("tpch.load"), "s"));
        let checkpoint_s = if refresh {
            median(&rs.checkpoint_s)
        } else {
            setup_sum("storage.checkpoint")
        };
        metrics.push(metric("storage.checkpoint_s", checkpoint_s, "s"));
        metrics.push(metric("storage.write_s", median(&rs.write_s), "s"));
        metrics.push(metric(
            "storage.reorganize_s",
            median(&rs.reorganize_s),
            "s",
        ));
        metrics.push(metric("storage.raw_mb", raw_mb, "MB"));
        metrics.push(metric("storage.compressed_mb", compressed_mb, "MB"));
        metrics.push(metric(
            "storage.durable_commit_s",
            median(&rs.commit_s),
            "s",
        ));
        metrics.push(metric("storage.open_s", median(&rs.reopen_s), "s"));
        metrics.push(metric("storage.files_written", rs.files_written, "count"));
        metrics.push(metric("storage.write_amp", rs.write_amp, "ratio"));
        metrics.push(metric("refresh_s", median(&rs.refresh_s), "s"));
        metrics.push(metric("reopen_s", median(&rs.reopen_s), "s"));
        metrics.push(metric("disk_mb", rs.disk_mb, "MB"));
        metrics.push(metric(
            "failed_frac",
            failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        ));
        metrics.push(metric("storage.chunk_heals", heals as f64, "count"));
        // Counts come from the first traced round, so that they repeat
        // exactly per seed (refresh cycles differ from each other);
        // times and time ratios are medians over traced rounds. The
        // parallel layer's numbers come from the parallel rounds (none
        // on `refresh`, where they read 0).
        let first = out.layers.first().cloned().unwrap_or_default();
        for name in first.keys() {
            let rounds = if name.starts_with("parallel.") {
                &par.layers
            } else {
                &out.layers
            };
            let unit = unit_of(name);
            let timed =
                matches!(unit, "ms" | "cycles/tuple") || name == "parallel.worker_busy_frac";
            let value = match rounds.first() {
                None => 0.0,
                Some(_) if timed => median(&rounds.iter().map(|m| m[name]).collect::<Vec<_>>()),
                Some(m) => m[name],
            };
            metrics.push(metric(name.clone(), value, unit));
        }
        metrics.push(metric(
            "parallel.bit_mismatch_queries",
            par.bit_mismatch.len() as f64,
            "count",
        ));
        let (_, par_per_q) = summarize(&par.traced, nq);
        let par_suite_s = if par.traced.is_empty() {
            0.0
        } else {
            par_per_q.iter().sum::<f64>() / 1e3
        };
        metrics.push(metric("parallel.suite_s", par_suite_s, "s"));
        let (_, traced_per_q) = summarize(&out.traced, nq);
        metrics.push(metric(
            "trace.overhead_frac",
            traced_per_q.iter().sum::<f64>() / 1e3 / suite_s - 1.0,
            "ratio",
        ));
    }

    // Facts of this run, then the result line.
    let trace_file = if args.trace {
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let p = out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&p, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", p.display()))?;
        json_str(&p.display().to_string())
    } else {
        "null".into()
    };
    let failures: Vec<String> = out
        .failures
        .iter()
        .map(|(f, n)| format!("{f} ({n}x)"))
        .collect();
    for f in &failures {
        eprintln!("FAILED {f}");
    }
    let list =
        |v: &mut dyn Iterator<Item = String>| v.map(|s| json_str(&s)).collect::<Vec<_>>().join(",");
    println!(
        "{{\"info\":{{\"workload\":{},\"sf\":{},\"seed\":{},\"threads\":1,\"parallel_threads\":{},\"available_parallelism\":{available},\"setups\":{},\"rounds\":{},\"traced_rounds\":{},\"suite_tail_percentile\":{},\"suite_tail_rounds_beyond\":{},\"trace_file\":{trace_file},\"failures\":[{}],\"other_operator_kinds\":[{}],\"caveats\":[{}]}}}}",
        json_str(args.workload.name()),
        json_num(SF),
        args.seed,
        if par.layers.is_empty() { 0 } else { available },
        setup_times.len(),
        totals.len(),
        out.traced.len(),
        json_num(tail_pct),
        tail_beyond,
        list(&mut failures.into_iter()),
        list(&mut out.other_ops.iter().cloned()),
        list(&mut CAVEATS.iter().map(|s| s.to_string())),
    );
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        failed == 0,
        out.attempted
    );
    Ok(())
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_cycles_per_tuple") {
        "cycles/tuple"
    } else if name.ends_with("_frac") || name.ends_with("_ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// Removes the refresh checkpoint directory on every exit path.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tpchbench: {e}");
            eprintln!("usage: tpchbench --workload <tpch-raw|refresh> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("tpchbench: {e}");
        std::process::exit(1);
    }
}
