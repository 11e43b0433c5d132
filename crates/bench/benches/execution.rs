//! Executor micro-benchmarks: the join algorithms on the Nasdaq skew example, which is
//! exactly the plan-flip scenario the paper's deep dives describe (a mis-estimated
//! intermediate makes the nested-loop strategy catastrophically slower than a hash join).

use criterion::{criterion_group, criterion_main, Criterion};
use reopt_bench::{Harness, HarnessConfig};
use reopt_core::Database;
use reopt_executor::Executor;
use reopt_planner::{CardinalityOverrides, Optimizer, OptimizerConfig};
use reopt_sql::parse_sql;
use reopt_workload::{load_nasdaq, NasdaqConfig};

/// Every group in this file pins the single-threaded engine: its numbers would
/// become incomparable across hosts if `default_thread_count()` silently switched
/// engines with the core count. The thread dimension is benchmarked explicitly in
/// `parallel_exec.rs`.
fn execute_single_threaded(
    plan: &reopt_planner::PhysicalPlan,
    storage: &reopt_storage::Storage,
) -> reopt_executor::ExecutionResult {
    Executor::new(storage)
        .with_threads(1)
        .execute(plan)
        .expect("executes")
}

const VOLUME_QUERY: &str = "SELECT count(*) AS c
FROM company AS c, trades AS tr
WHERE c.id = tr.company_id AND c.symbol = 'APPL'";

fn database() -> Database {
    let mut db = Database::new();
    load_nasdaq(
        &mut db,
        &NasdaqConfig {
            companies: 1_000,
            trades: 30_000,
            ..NasdaqConfig::default()
        },
    )
    .unwrap();
    db
}

fn join_algorithms(c: &mut Criterion) {
    let db = database();
    let statement = parse_sql(VOLUME_QUERY).unwrap();
    let select = statement.query().unwrap().clone();
    let overrides = CardinalityOverrides::new();

    let mut group = c.benchmark_group("join_algorithms_nasdaq");
    group.sample_size(10);
    for (label, hash, merge, inl) in [
        ("hash_join", true, false, false),
        ("merge_join", false, true, false),
        ("index_nested_loop", false, false, true),
    ] {
        let optimizer = Optimizer::new(OptimizerConfig {
            enable_hash_joins: hash,
            enable_merge_joins: merge,
            enable_index_nl_joins: inl,
            ..OptimizerConfig::default()
        });
        let planned = optimizer
            .plan_select(&select, db.storage(), db.catalog(), &overrides)
            .unwrap();
        group.bench_function(label, |b| {
            b.iter(|| execute_single_threaded(&planned.plan, db.storage()));
        });
    }
    group.finish();
}

fn full_query_execution(c: &mut Criterion) {
    let mut db = database();
    db.set_threads(Some(1));
    let mut group = c.benchmark_group("end_to_end_nasdaq");
    group.sample_size(10);
    group.bench_function("plan_and_execute", |b| {
        b.iter(|| db.execute(VOLUME_QUERY).expect("runs"));
    });
    group.finish();
}

/// Join-heavy JOB queries: many-to-many fan-out through several joins under an
/// aggregate, where the pipelined executor's win (no materialized intermediates) shows.
fn job_join_heavy(c: &mut Criterion) {
    let harness = Harness::new(HarnessConfig {
        scale: 0.03,
        stride: 1,
        threshold: 32.0,
        seed: 7,
        ..HarnessConfig::default()
    })
    .expect("harness builds");
    let mut group = c.benchmark_group("job_join_heavy");
    group.sample_size(10);
    for id in ["2a", "2d", "6a", "11a", "20a"] {
        let query = harness.queries.iter().find(|q| q.id == id).unwrap().clone();
        let statement = parse_sql(&query.sql).unwrap();
        let select = statement.query().unwrap().clone();
        let (planned, _) = harness.db.plan_select(&select).expect("plans");
        group.bench_function(id, |b| {
            b.iter(|| execute_single_threaded(&planned.plan, harness.db.storage()));
        });
    }
    group.finish();
}

criterion_group!(benches, join_algorithms, full_query_execution, job_join_heavy);
criterion_main!(benches);
