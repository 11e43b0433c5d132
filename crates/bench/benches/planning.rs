//! Optimizer micro-benchmarks: planning latency vs. number of relations, DPccp vs.
//! greedy enumeration (the ablation behind `OptimizerConfig::greedy_threshold`), and
//! raw csg-cmp pair enumeration.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use reopt_bench::{Harness, HarnessConfig};
use reopt_planner::enumerate::enumerate_csg_cmp_pairs;
use reopt_planner::{bind_select, CardinalityOverrides, JoinGraph, Optimizer, OptimizerConfig};
use reopt_sql::parse_sql;

fn harness() -> Harness {
    Harness::new(HarnessConfig {
        scale: 0.02,
        stride: 1,
        threshold: 32.0,
        seed: 11,
        ..HarnessConfig::default()
    })
    .expect("harness builds")
}

fn planning_by_relation_count(c: &mut Criterion) {
    let harness = harness();
    let mut group = c.benchmark_group("planning_by_relation_count");
    group.sample_size(10);
    for table_count in [4usize, 7, 10, 12, 17] {
        let query = harness
            .queries
            .iter()
            .find(|q| q.table_count == table_count)
            .expect("suite covers this size")
            .clone();
        let statement = parse_sql(&query.sql).unwrap();
        let select = statement.query().unwrap().clone();

        // The estimator memoizes join-edge selectivities across DP pairs: every
        // subset estimate beyond the first touch of an edge must be a memo hit, and
        // the bigger the join graph the more the memo carries (a 17-relation DPccp
        // run walks each edge thousands of times). Above `greedy_threshold`
        // (empirically 12 — see `OptimizerConfig::greedy_threshold` for the
        // measurements behind the crossover) the default configuration enumerates
        // greedily instead, which makes far fewer subset estimates; the DP-strength
        // hit-rate floor only applies inside the DP regime.
        let (planned, _) = harness.db.plan_select(&select).expect("plans");
        let log = &planned.estimation_log;
        let hit_rate = log.selectivity_memo_hit_rate();
        assert!(
            hit_rate > 0.5,
            "{table_count}-relation planning: selectivity memo hit rate {hit_rate:.3} \
             ({} hits / {} misses) — memoization across DP pairs regressed",
            log.selectivity_memo_hits,
            log.selectivity_memo_misses,
        );
        let dp_regime = table_count <= OptimizerConfig::default().greedy_threshold;
        if table_count >= 10 && dp_regime {
            assert!(
                hit_rate > 0.9,
                "{table_count}-relation planning: expected >90% memo hits, got {hit_rate:.3}"
            );
        }

        group.bench_with_input(
            BenchmarkId::from_parameter(table_count),
            &select,
            |b, select| {
                b.iter(|| harness.db.plan_select(select).expect("plans"));
            },
        );
    }
    group.finish();
}

fn dpccp_vs_greedy(c: &mut Criterion) {
    let harness = harness();
    let query = harness
        .queries
        .iter()
        .find(|q| q.table_count == 12)
        .unwrap()
        .clone();
    let statement = parse_sql(&query.sql).unwrap();
    let select = statement.query().unwrap().clone();
    let overrides = CardinalityOverrides::new();

    let mut group = c.benchmark_group("enumeration_algorithm");
    group.sample_size(10);
    group.bench_function("dpccp_12_relations", |b| {
        let optimizer = Optimizer::new(OptimizerConfig::default());
        b.iter(|| {
            optimizer
                .plan_select(&select, harness.db.storage(), harness.db.catalog(), &overrides)
                .expect("plans")
        });
    });
    group.bench_function("greedy_12_relations", |b| {
        let optimizer = Optimizer::new(OptimizerConfig {
            greedy_threshold: 2,
            ..OptimizerConfig::default()
        });
        b.iter(|| {
            optimizer
                .plan_select(&select, harness.db.storage(), harness.db.catalog(), &overrides)
                .expect("plans")
        });
    });
    group.finish();
}

/// Raw csg-cmp-pair enumeration over the biggest JOB join graphs: the component the
/// bitset neighborhood-mask fast path targets (planning latency minus costing).
fn csg_cmp_pair_enumeration(c: &mut Criterion) {
    let harness = harness();
    let mut group = c.benchmark_group("csg_cmp_pair_enumeration");
    group.sample_size(10);
    for table_count in [12usize, 14, 17] {
        let query = harness
            .queries
            .iter()
            .find(|q| q.table_count == table_count)
            .expect("suite covers this size")
            .clone();
        let statement = parse_sql(&query.sql).unwrap();
        let spec = bind_select(statement.query().unwrap(), harness.db.storage()).unwrap();
        let graph = JoinGraph::new(&spec);
        let n = spec.relation_count();
        group.bench_function(BenchmarkId::from_parameter(table_count), |b| {
            b.iter(|| black_box(enumerate_csg_cmp_pairs(&graph, n)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    planning_by_relation_count,
    dpccp_vs_greedy,
    csg_cmp_pair_enumeration
);
criterion_main!(benches);
