//! Morsel-driven parallel execution benchmarks: join-heavy JOB queries executed at
//! 1/2/4/8 worker threads through `Executor::with_threads`. Thread count 1 takes the
//! single-threaded engine (the exact code path of the `job_join_heavy` group in
//! `execution.rs`), so the 1-thread numbers double as the baseline of each query's
//! speedup curve.
//!
//! Interpreting results requires knowing the core count of the box: on a single-vCPU
//! machine the >1-thread numbers measure pure coordination overhead (workers
//! time-slice one core), not speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reopt_bench::{Harness, HarnessConfig};
use reopt_executor::Executor;
use reopt_planner::{CardinalityOverrides, Optimizer, OptimizerConfig, PlannedQuery};
use reopt_sql::parse_sql;

/// Join-heavy JOB queries whose plans the parallel engine fully supports (hash and
/// index-NL joins under a single-row aggregate).
const QUERIES: &[&str] = &["2a", "6a", "20a"];

/// Plan `sql` over the harness data under a specific optimizer configuration
/// (how the merge-join and NL-join scenarios force their plan family).
fn plan_with(harness: &Harness, sql: &str, config: OptimizerConfig) -> PlannedQuery {
    let statement = parse_sql(sql).expect("scenario SQL parses");
    let select = statement.query().expect("scenario SQL is a query");
    Optimizer::new(config)
        .plan_select(
            select,
            harness.db.storage(),
            harness.db.catalog(),
            &CardinalityOverrides::new(),
        )
        .expect("scenario plans")
}

/// The formerly-denylisted plan shapes, now parallel-supported: a merge join
/// (hash/index-NL disabled), a plain NL join (only NL enabled), and LIMIT roots
/// with and without a plan-defined order. All must scale with threads — or on a
/// single-vCPU box, cost only coordination overhead.
fn shape_scenarios(harness: &Harness) -> Vec<(&'static str, PlannedQuery)> {
    let merge_only = OptimizerConfig {
        enable_index_scans: false,
        enable_hash_joins: false,
        enable_index_nl_joins: false,
        ..OptimizerConfig::default()
    };
    let nl_only = OptimizerConfig {
        enable_index_scans: false,
        enable_hash_joins: false,
        enable_merge_joins: false,
        enable_index_nl_joins: false,
        ..OptimizerConfig::default()
    };
    vec![
        (
            "merge_join",
            plan_with(
                harness,
                "SELECT t.id AS id, mk.keyword_id AS kid
                 FROM title AS t, movie_keyword AS mk
                 WHERE t.id = mk.movie_id",
                merge_only,
            ),
        ),
        (
            "nl_join",
            plan_with(
                harness,
                "SELECT mk.movie_id AS mid, k.keyword AS kw
                 FROM movie_keyword AS mk, keyword AS k
                 WHERE mk.keyword_id = k.id",
                nl_only,
            ),
        ),
        (
            "limit_scan",
            plan_with(
                harness,
                "SELECT t.id AS id FROM title AS t LIMIT 100",
                OptimizerConfig::default(),
            ),
        ),
        (
            "limit_order_by",
            plan_with(
                harness,
                "SELECT t.id AS id FROM title AS t ORDER BY id DESC LIMIT 100",
                OptimizerConfig::default(),
            ),
        ),
    ]
}

fn parallel_exec(c: &mut Criterion) {
    let harness = Harness::new(HarnessConfig {
        scale: 0.03,
        stride: 1,
        threshold: 32.0,
        seed: 7,
        ..HarnessConfig::default()
    })
    .expect("harness builds");
    let mut group = c.benchmark_group("parallel_exec");
    group.sample_size(10);
    for id in QUERIES {
        let query = harness
            .queries
            .iter()
            .find(|q| &q.id == id)
            .expect("query exists")
            .clone();
        let statement = parse_sql(&query.sql).unwrap();
        let select = statement.query().unwrap().clone();
        let (planned, _) = harness.db.plan_select(&select).expect("plans");
        for threads in [1usize, 2, 4, 8] {
            group.bench_function(BenchmarkId::new(*id, threads), |b| {
                let executor = Executor::new(harness.db.storage()).with_threads(threads);
                b.iter(|| executor.execute(&planned.plan).expect("executes"));
            });
        }
    }
    for (name, planned) in shape_scenarios(&harness) {
        for threads in [1usize, 2, 4, 8] {
            group.bench_function(BenchmarkId::new(name, threads), |b| {
                let executor = Executor::new(harness.db.storage()).with_threads(threads);
                b.iter(|| executor.execute(&planned.plan).expect("executes"));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, parallel_exec);
criterion_main!(benches);
