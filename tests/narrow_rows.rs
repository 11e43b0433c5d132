//! Narrow rows: every plan node carries only the columns something above it reads
//! (`QuerySpec::column_uses`), and both rewrite paths of the re-optimization driver
//! materialize exactly that column set.

use reopt_repro::core::reopt::materialize_subset;
use reopt_repro::core::{
    connected_subsets_up_to, execute_with_reoptimization, Database, ReoptConfig, ReoptMode,
};
use reopt_repro::executor::Executor;
use reopt_repro::planner::{bind_select, JoinGraph, OptimizerConfig};
use reopt_repro::sql::{parse_sql, SelectExpr};
use reopt_repro::workload::job::{job_queries, job_query};
use reopt_repro::workload::{load_imdb, ImdbConfig};
use std::collections::BTreeSet;

/// Every node of every JOB plan, on both benchmark data seeds: access paths and joins
/// output exactly the columns visible at their relation set, and every expression of
/// every operator binds against its inputs (opening a single-threaded pipeline binds
/// them all without running anything).
#[test]
fn every_job_plan_node_carries_exactly_its_visible_columns() {
    for data_seed in [42, 7] {
        let mut db = Database::new();
        load_imdb(
            &mut db,
            &ImdbConfig {
                scale: 0.005,
                seed: data_seed,
            },
        )
        .unwrap();
        let queries = job_queries();
        assert_eq!(queries.len(), 113);
        for query in queries {
            let statement = parse_sql(&query.sql).unwrap();
            let (planned, _) = db.plan_select(statement.query().unwrap()).unwrap();
            let uses = planned.spec.column_uses();
            planned.plan.walk(&mut |node| {
                if node.is_scan() || node.is_join() {
                    assert_eq!(
                        node.schema,
                        uses.schema_of(&planned.spec, node.rel_set),
                        "{} (data seed {data_seed}): {}",
                        query.id,
                        node.label()
                    );
                }
            });
            // The root join feeds a MIN aggregate: only its arguments survive.
            let root_join = planned
                .plan
                .join_nodes()
                .first()
                .map(|node| node.schema.len())
                .unwrap();
            assert!(root_join <= planned.spec.output.len(), "{}", query.id);
            Executor::new(db.storage())
                .with_threads(1)
                .open(&planned.plan)
                .unwrap_or_else(|e| panic!("{} (data seed {data_seed}): {e}", query.id));
        }
    }
}

/// A restart's temp table and a mid-query collapse's virtual leaf hold the same
/// columns: `materialize_subset` projects exactly the columns visible at the subset,
/// for every connected proper subset of JOB 10a (a superset of what the restart
/// policies ever materialize on it).
#[test]
fn materialize_restart_keeps_the_visible_columns_of_every_10a_subset() {
    let mut db = Database::new();
    load_imdb(
        &mut db,
        &ImdbConfig {
            scale: 0.005,
            seed: 9,
        },
    )
    .unwrap();
    let query = job_query("10a").unwrap();
    let statement = parse_sql(&query.sql).unwrap();
    let select = statement.query().unwrap().clone();
    let spec = bind_select(&select, db.storage()).unwrap();
    let uses = spec.column_uses();
    let n = spec.relation_count();
    let subsets = connected_subsets_up_to(&JoinGraph::new(&spec), n, n - 1);
    assert!(subsets.len() > n);
    for subset in subsets {
        let (temp_query, _) = materialize_subset(&spec, &select, subset, "temp");
        let materialized: BTreeSet<String> = temp_query
            .items
            .iter()
            .filter_map(|item| match &item.expr {
                SelectExpr::Scalar(expr) => expr.as_column_ref().map(|r| r.to_string()),
                _ => None,
            })
            .collect();
        let visible: BTreeSet<String> = uses
            .schema_of(&spec, subset)
            .columns()
            .iter()
            .map(|column| column.qualified_name())
            .collect();
        assert_eq!(materialized, visible, "subset {subset}");
    }
}

/// The materialize restart policy on 10a still returns the plain run's rows when
/// its temp tables hold only the visible columns.
#[test]
fn materialize_restart_on_10a_matches_the_plain_run() {
    let mut db = Database::new();
    load_imdb(
        &mut db,
        &ImdbConfig {
            scale: 0.03,
            seed: 9,
        },
    )
    .unwrap();
    db.set_threads(Some(1));
    let query = job_query("10a").unwrap();
    let expected = db.execute(&query.sql).unwrap();
    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::Materialize,
        ..ReoptConfig::default()
    };
    let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
    assert!(report.reoptimized(), "the skewed keyword join must trigger");
    assert!(report.rounds.iter().all(|round| round.create_sql.is_some()));
    assert_eq!(report.final_rows, expected.rows);
}

/// A mid-query round collapses the query around a completed hash build that carries
/// only its visible columns, and the re-planned remainder binds against it and
/// returns the plain run's rows, on both engines.
#[test]
fn mid_query_collapse_around_a_narrow_build_matches_the_plain_run() {
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(
        &mut db,
        &ImdbConfig {
            scale: 0.03,
            seed: 9,
        },
    )
    .unwrap();
    let query = job_query("10a").unwrap();
    db.set_threads(Some(1));
    let expected = db.execute(&query.sql).unwrap();
    for threads in [1, 2] {
        db.set_threads(Some(threads));
        let config = ReoptConfig {
            threshold: 8.0,
            mode: ReoptMode::MidQuery,
            ..ReoptConfig::default()
        }
        .with_feedback(false);
        let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
        assert_eq!(report.final_rows, expected.rows, "threads {threads}");
        let reused: u64 = report
            .rounds
            .iter()
            .filter_map(|round| round.reused_rows)
            .sum();
        assert!(reused > 0, "threads {threads}: no build state was reused");
        // The final plan scans the last collapsed leaf and produces exactly its reused
        // rows: the leaf's narrow schema was enough for the remainder to bind.
        let round = report
            .rounds
            .iter()
            .rev()
            .find(|round| round.reused_rows.unwrap_or(0) > 0)
            .unwrap();
        let leaf = round.temp_table.clone().unwrap();
        let mut scanned = None;
        report
            .final_metrics
            .as_ref()
            .unwrap()
            .root
            .walk(&mut |node| {
                if node.metrics.label.contains(&leaf) {
                    scanned = Some(node.metrics.actual_rows);
                }
            });
        assert_eq!(scanned, round.reused_rows, "threads {threads}");
    }
}
