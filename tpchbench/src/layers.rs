//! Per-layer numbers of one traced round, folded from the engine's
//! per-query [`Profiler`]s.
//!
//! Operator time is the profiler's self time per operator kind, under
//! the metric keys of [`OP_KINDS`]. Primitive time is grouped by
//! signature family, the paper's Table 5 view.

use std::collections::{BTreeMap, BTreeSet};
use x100_engine::profile::NOMINAL_GHZ;
use x100_engine::Profiler;

/// Profiler operator kinds and their `engine.op.<key>_ms` keys.
pub const OP_KINDS: [(&str, &str); 16] = [
    ("Scan", "scan"),
    ("CompressedScanSelect", "compressed_scan_select"),
    ("Select", "select"),
    ("Project", "project"),
    ("Fetch1Join", "fetch1join"),
    ("Fetch1Join(ENUM)", "fetch1join_enum"),
    ("FetchNJoin", "fetchnjoin"),
    ("HashJoin(build)", "hashjoin_build"),
    ("HashJoin(partition)", "hashjoin_partition"),
    ("HashJoin(probe)", "hashjoin_probe"),
    ("Aggr(HASH)", "aggr_hash"),
    ("Aggr(DIRECT)", "aggr_direct"),
    ("Aggr(ORDERED)", "aggr_ordered"),
    ("MergeAggr", "merge_aggr"),
    ("Order", "order"),
    ("TopN", "topn"),
];

/// Primitive signature families reported as `vector.<family>_ms` and
/// `vector.<family>_cycles_per_tuple`.
pub const FAMILIES: [&str; 8] = [
    "select", "map", "fetch", "hash", "aggr", "decode", "string", "sort",
];

/// The family of a primitive signature. Order matters: a compressed
/// gather (`map_fetch_..._pfor`) is a fetch, a string comparison
/// selection (`select_eq_str_...`) is a string primitive.
pub fn family(sig: &str) -> &'static str {
    let has = |p: &str| sig.contains(p);
    if has("str") || has("like") || has("contains") {
        "string"
    } else if has("fetch") || has("gather") {
        "fetch"
    } else if sig.starts_with("decode")
        || sig.starts_with("decompress")
        || has("pfor")
        || has("pdict")
    {
        "decode"
    } else if sig.starts_with("aggr") {
        "aggr"
    } else if has("hash") || has("bloom") || has("radix") {
        "hash"
    } else if has("sort") || has("perm") || has("topn") {
        "sort"
    } else if sig.starts_with("select") {
        "select"
    } else {
        "map"
    }
}

/// Accumulates one traced round.
#[derive(Default)]
pub struct RoundLayers {
    op_ns: BTreeMap<&'static str, u64>,
    fam: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<String, u64>,
    mem_peak: u64,
    parallel_queries: u64,
    worker_ns: u64,
    parallel_wall_ns: u64,
    threads: u64,
    rows_out: u64,
    check_s: f64,
    query_ms: BTreeMap<u32, f64>,
    /// Operator kinds outside [`OP_KINDS`] (named in the run's facts).
    pub other_ops: BTreeSet<String>,
}

impl RoundLayers {
    pub fn new(threads: usize) -> Self {
        RoundLayers {
            threads: threads as u64,
            ..Default::default()
        }
    }

    /// Fold one query: its profilers (one per plan phase), CPU and wall
    /// time, separate `check_plan` time, and result row count.
    pub fn add_query(
        &mut self,
        q: u32,
        profs: &[Profiler],
        ms: f64,
        wall_ms: f64,
        check_s: f64,
        rows: usize,
    ) {
        self.query_ms.insert(q, ms);
        self.check_s += check_s;
        self.rows_out += rows as u64;
        let mut parallel = false;
        for p in profs {
            for (kind, st) in p.operators() {
                match OP_KINDS.iter().find(|(k, _)| *k == kind) {
                    Some((_, key)) => *self.op_ns.entry(key).or_default() += st.nanos,
                    None => {
                        self.other_ops.insert(kind.to_owned());
                    }
                }
            }
            for (sig, st) in p.primitives() {
                let e = self.fam.entry(family(sig)).or_default();
                e.0 += st.nanos;
                e.1 += st.tuples;
            }
            for (name, n) in p.counters() {
                if name == "gov_mem_peak" {
                    self.mem_peak = self.mem_peak.max(n);
                } else {
                    *self.counters.entry(name.to_owned()).or_default() += n;
                }
            }
            if !p.workers().is_empty() {
                parallel = true;
                self.worker_ns += p.workers().iter().map(|w| w.wall_nanos).sum::<u64>();
            }
        }
        if parallel {
            self.parallel_queries += 1;
            self.parallel_wall_ns += (wall_ms * 1e6) as u64;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// The round's per-layer values by metric name.
    pub fn finish(&self) -> BTreeMap<String, f64> {
        const MB: f64 = (1u64 << 20) as f64;
        let mut m = BTreeMap::new();
        for (q, ms) in &self.query_ms {
            m.insert(format!("engine.q{q:02}_ms"), *ms);
        }
        m.insert("engine.check_ms".into(), self.check_s * 1e3);
        for (_, key) in OP_KINDS {
            let ns = self.op_ns.get(key).copied().unwrap_or(0);
            m.insert(format!("engine.op.{key}_ms"), ns as f64 * 1e-6);
        }
        for f in FAMILIES {
            let (ns, tuples) = self.fam.get(f).copied().unwrap_or((0, 0));
            m.insert(format!("vector.{f}_ms"), ns as f64 * 1e-6);
            let cpt = if tuples == 0 {
                0.0
            } else {
                ns as f64 / tuples as f64 * NOMINAL_GHZ
            };
            m.insert(format!("vector.{f}_cycles_per_tuple"), cpt);
        }
        m.insert(
            "storage.scan_raw_mb".into(),
            self.counter("scan_bytes_raw") / MB,
        );
        m.insert(
            "storage.scan_compressed_mb".into(),
            self.counter("scan_bytes_compressed") / MB,
        );
        for (metric, counter) in [
            ("storage.decode_skipped_values", "decode_skipped_values"),
            ("storage.decode_exceptions", "decode_exceptions"),
            (
                "storage.fetch_compressed_gathers",
                "fetch_compressed_gathers",
            ),
            ("engine.pushdown_vectors", "pushdown_vectors"),
            (
                "engine.fetch_unchecked_dispatches",
                "fetch_unchecked_dispatches",
            ),
            ("engine.bloom_tested", "join_bloom_tested"),
            ("engine.bloom_rejected", "join_bloom_rejected"),
        ] {
            m.insert(metric.into(), self.counter(counter));
        }
        let tested = self.counter("join_bloom_tested");
        let ratio = if tested == 0.0 {
            0.0
        } else {
            self.counter("join_bloom_rejected") / tested
        };
        m.insert("engine.bloom_reject_ratio".into(), ratio);
        m.insert("engine.gov_mem_peak_mb".into(), self.mem_peak as f64 / MB);
        m.insert("engine.rows_out".into(), self.rows_out as f64);
        m.insert(
            "parallel.parallel_queries".into(),
            self.parallel_queries as f64,
        );
        let busy = if self.parallel_wall_ns == 0 {
            0.0
        } else {
            self.worker_ns as f64 / (self.threads * self.parallel_wall_ns) as f64
        };
        m.insert("parallel.worker_busy_frac".into(), busy);
        m
    }
}
