//! Facts-analyzer coverage on the TPC-H corpus: the abstract
//! interpretation (`engine::facts`) must prove the fetch bounds of
//! EVERY `Fetch1Join`/`FetchNJoin` in every query — zero false
//! rejections — and every query must run identically with
//! `--enforce-facts` on and off.

use tpch::gen::{generate, GenConfig};
use tpch::queries::{all_specs, QuerySpec};
use x100_engine::check_plan;
use x100_engine::session::{execute, ExecOptions};
use x100_engine::Plan;

fn corpus_plans(
    db: &x100_engine::session::Database,
    opts: &ExecOptions,
) -> Vec<(u32, &'static str, Plan)> {
    let mut out = Vec::new();
    for (q, spec) in all_specs() {
        match spec {
            QuerySpec::Single(p) => out.push((q, "", p)),
            QuerySpec::TwoPhase(tp) => {
                let (r1, _) = execute(db, &tp.phase1, opts).expect("phase1");
                let scalar = r1
                    .value(0, r1.col_index(tp.scalar_col).expect("scalar"))
                    .as_f64();
                out.push((q, " phase1", tp.phase1.clone()));
                out.push((q, " phase2", (tp.phase2)(scalar)));
            }
        }
    }
    out
}

/// Every fetch node in every TPC-H plan gets a `true` proof: the
/// analyzer must never reject a bound it could have proven.
#[test]
fn fetch_bounds_proven_for_entire_corpus() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let db = tpch::build_x100_db(&data);
    let opts = ExecOptions::default();
    let mut rejected = Vec::new();
    let mut proven = 0usize;
    for (q, phase, plan) in corpus_plans(&db, &opts) {
        let facts = check_plan(&db, &plan, &opts).expect("check").facts;
        for ok in facts.fetch_proofs.values() {
            if *ok {
                proven += 1;
            } else {
                rejected.push(format!("q{q}{phase}"));
            }
        }
    }
    assert!(proven > 20, "suspiciously few fetch proofs: {proven}");
    assert!(
        rejected.is_empty(),
        "unproven fetch bounds in: {rejected:?}"
    );
}

/// `--enforce-facts` must be a no-op on well-formed plans.
#[test]
fn corpus_byte_identical_under_enforcement() {
    let data = generate(&GenConfig { sf: 0.002, seed: 3 });
    let db = tpch::build_x100_db(&data);
    // The default without `X100_ENFORCE_FACTS` in the environment.
    let lenient = ExecOptions::default().with_enforce_facts(false);
    let enforced = ExecOptions::default().with_enforce_facts(true);
    for (q, phase, plan) in corpus_plans(&db, &lenient) {
        let (want, _) = execute(&db, &plan, &lenient).expect("default run");
        let (got, _) = execute(&db, &plan, &enforced).expect("enforced run");
        assert_eq!(
            want.row_strings(),
            got.row_strings(),
            "q{q}{phase}: enforcement changed the output"
        );
    }
}
