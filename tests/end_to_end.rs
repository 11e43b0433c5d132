//! Workspace-level integration tests: the whole stack (SQL → binder → optimizer →
//! executor → re-optimization) against the synthetic workloads.

use reopt_repro::core::{
    execute_with_reoptimization, q_error, Database, PerfectOracle, ReoptConfig, ReoptMode,
    ReoptRoundKind, ReoptTrigger, SelectiveConfig,
};
use reopt_repro::executor::{execute_plan, Executor, MemoryGovernor};
use reopt_repro::planner::{
    CardinalityOverrides, JoinGraph, Optimizer, OptimizerConfig, PlannedQuery, RelSet,
};
use reopt_repro::sql::parse_sql;
use reopt_repro::workload::job::{job_queries, job_query, JobQuery};
use reopt_repro::workload::{load_imdb, load_nasdaq, ImdbConfig, NasdaqConfig, APPL_QUERY};

fn imdb_database() -> Database {
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    db
}

/// Plan a suite query with greedy enumeration (exhaustive DPccp on the 14- and 17-table
/// families would dominate test time; greedy still runs the whole binder/estimator
/// stack).
fn plan_greedy(db: &Database, query: &JobQuery) -> PlannedQuery {
    let statement = parse_sql(&query.sql).unwrap();
    let select = statement.query().unwrap().clone();
    let optimizer = Optimizer::new(OptimizerConfig {
        greedy_threshold: 8,
        ..Default::default()
    });
    optimizer
        .plan_select(
            &select,
            db.storage(),
            db.catalog(),
            &CardinalityOverrides::new(),
        )
        .unwrap_or_else(|e| panic!("query {} failed to plan: {e}", query.id))
}

#[test]
fn a_cross_section_of_the_suite_plans_and_executes() {
    let mut db = imdb_database();
    // One query per family keeps the runtime reasonable while touching every join graph.
    // The 14- and 17-table families (20 and 21) are planned greedily (exhaustive DPccp
    // needs seconds per query); family 20 executes here too, while family 21's 17-table
    // fan-out at this scale (~240M joined rows) is CPU-bound even pipelined, so its
    // end-to-end execution runs at a smaller scale in
    // `large_job_families_execute_with_bounded_memory`.
    let mut seen_families = std::collections::HashSet::new();
    for query in job_queries() {
        if !seen_families.insert(query.family) {
            continue;
        }
        if query.table_count > 12 {
            let planned = plan_greedy(&db, &query);
            assert_eq!(
                planned.plan.rel_set.len(),
                query.table_count,
                "plan of {} covers all relations",
                query.id
            );
            if query.table_count <= 14 {
                let result = execute_plan(&planned.plan, db.storage())
                    .unwrap_or_else(|e| panic!("query {} failed to execute: {e}", query.id));
                assert_eq!(result.rows.len(), 1, "aggregate query {} returns one row", query.id);
            }
            continue;
        }
        let output = db
            .execute(&query.sql)
            .unwrap_or_else(|e| panic!("query {} failed: {e}", query.id));
        assert_eq!(output.row_count(), 1, "aggregate query {} returns one row", query.id);
        let plan = output.plan.as_ref().unwrap();
        assert_eq!(
            plan.rel_set.len(),
            query.table_count,
            "plan of {} covers all relations",
            query.id
        );
    }
}

#[test]
fn large_job_families_execute_with_bounded_memory() {
    // Families 20 (14 tables) and 21 (17 tables) were plan-only under the seed
    // executor: their many-to-many join graphs fan out to tens of millions of
    // materialized intermediate rows. The pipelined executor streams that fan-out
    // through the final aggregate, so peak buffered state is bounded by the pipeline
    // breakers (hash-join build sides, aggregate groups), not the join fan-out.
    // Scale 0.02 keeps family 21's ~14M joined rows inside the test budget while
    // still dwarfing the buffered state by orders of magnitude.
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale: 0.02, seed: 9 }).unwrap();
    for id in ["20a", "21a"] {
        let query = job_query(id).unwrap();
        let planned = plan_greedy(&db, &query);
        let result = execute_plan(&planned.plan, db.storage())
            .unwrap_or_else(|e| panic!("query {id} failed to execute: {e}"));
        assert_eq!(result.rows.len(), 1, "aggregate query {id} returns one row");

        let fan_out = result
            .metrics
            .root
            .joins_bottom_up()
            .iter()
            .map(|j| j.actual_rows)
            .max()
            .expect("query has joins");
        assert!(
            result.peak_buffered_rows > 0,
            "{id}: pipeline breakers must report buffered state"
        );
        assert!(
            result.peak_buffered_rows < fan_out,
            "{id}: peak buffered rows {} must stay below the join fan-out {}",
            result.peak_buffered_rows,
            fan_out
        );
    }
}

#[test]
fn pipelined_results_match_materialized_execution() {
    // Cross-check: for one query per executable family, the pipelined executor
    // (default batches) must produce the same rows as an effectively materializing
    // run (a batch size larger than any intermediate — the seed executor's
    // operator-at-a-time regime) and as a batch-size-1 run on the smaller families.
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale: 0.02, seed: 9 }).unwrap();
    let sort_rows = |mut rows: Vec<reopt_repro::storage::Row>| {
        rows.sort_by_key(|row| format!("{row}"));
        rows
    };
    let mut seen_families = std::collections::HashSet::new();
    for query in job_queries() {
        if !seen_families.insert(query.family) || query.table_count > 12 {
            continue;
        }
        let planned = plan_greedy(&db, &query);
        let pipelined = execute_plan(&planned.plan, db.storage())
            .unwrap_or_else(|e| panic!("query {} failed: {e}", query.id));
        let materialized = Executor::with_batch_size(db.storage(), usize::MAX)
            .execute(&planned.plan)
            .unwrap_or_else(|e| panic!("query {} failed materialized: {e}", query.id));
        assert_eq!(
            sort_rows(pipelined.rows.clone()),
            sort_rows(materialized.rows),
            "query {}: pipelined and materialized executions disagree",
            query.id
        );
        if query.table_count <= 6 {
            let row_at_a_time = Executor::with_batch_size(db.storage(), 1)
                .execute(&planned.plan)
                .unwrap_or_else(|e| panic!("query {} failed at batch size 1: {e}", query.id));
            assert_eq!(
                sort_rows(pipelined.rows),
                sort_rows(row_at_a_time.rows),
                "query {}: batch-size-1 execution disagrees",
                query.id
            );
        }
    }
}

#[test]
fn reoptimization_preserves_results_on_skewed_queries() {
    let mut db = imdb_database();
    for id in ["1a", "2a", "2d", "6a", "9a", "11a"] {
        let query = job_query(id).unwrap();
        let expected = db.execute(&query.sql).unwrap();
        for mode in [ReoptMode::Materialize, ReoptMode::InjectOnly, ReoptMode::MidQuery] {
            let config = ReoptConfig {
                threshold: 8.0,
                mode,
                ..ReoptConfig::default()
            };
            let report = execute_with_reoptimization(&mut db, &query.sql, &config)
                .unwrap_or_else(|e| panic!("re-optimizing {id} ({mode:?}) failed: {e}"));
            assert_eq!(
                report.final_rows, expected.rows,
                "query {id} under {mode:?} changed its result"
            );
        }
        // No temporary tables may survive.
        assert_eq!(db.storage().table_count(), 21, "temp tables left behind by {id}");
    }
}

#[test]
fn mid_query_reopt_reuses_hash_build_state_on_a_skewed_job_query() {
    // Force hash joins so the mis-estimated subtree deterministically lands on a
    // build side — the state mid-query re-optimization suspends on and reuses.
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();

    // Family 10's join-crossing correlation (franchise movies have both the popular
    // keywords and far more cast entries) mis-estimates a mid-plan subtree by three
    // orders of magnitude at this scale.
    let query = job_query("10a").unwrap();
    let expected = db.execute(&query.sql).unwrap();

    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::MidQuery,
        ..ReoptConfig::default()
    };
    let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
    assert_eq!(report.final_rows, expected.rows, "mid-query changed the result");
    assert!(report.reoptimized(), "the skewed keyword join must trigger");

    // At least one completed hash-build side crossed the re-plan, and the final
    // metrics prove it: the virtual table is scanned, producing exactly the reused
    // rows instead of re-executing the subtree behind it.
    let reused_round = report
        .rounds
        .iter()
        .find(|round| round.reused_rows.unwrap_or(0) > 0)
        .expect("a mid-query round reusing build state");
    let virt_name = reused_round.temp_table.clone().unwrap();
    let metrics = report.final_metrics.as_ref().unwrap();
    let mut reused_scan_rows = None;
    metrics.root.walk(&mut |node| {
        if node.metrics.label.contains(&virt_name) {
            reused_scan_rows = Some(node.metrics.actual_rows);
        }
    });
    assert_eq!(
        reused_scan_rows,
        Some(reused_round.reused_rows.unwrap()),
        "final plan must scan the reused state:\n{}",
        metrics.root.render()
    );
    // No virtual tables survive the report.
    assert!(!db.storage().contains_table(&virt_name));
}

#[test]
fn mid_query_report_counts_the_estimates_of_every_plan() {
    // The skewed family-10 run above, single-threaded and without feedback, so every
    // run of it plans the same sequence of queries.
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    db.set_threads(Some(1));
    let query = job_query("10a").unwrap();
    let statement = parse_sql(&query.sql).unwrap();
    let first = db.plan_select(statement.query().unwrap()).unwrap().0.estimation_log;
    let mut run = |max_rounds: usize| {
        let config = ReoptConfig {
            threshold: 8.0,
            mode: ReoptMode::MidQuery,
            max_rounds,
            ..ReoptConfig::default()
        }
        .with_feedback(false);
        execute_with_reoptimization(&mut db, &query.sql, &config).unwrap()
    };

    // With no round budget the run plans once: exactly the first plan's estimates.
    assert_eq!(run(0).estimation_log, first);

    let full = run(ReoptConfig::default().max_rounds);
    assert!(full.reoptimized(), "the skewed keyword join must trigger");
    assert!(full.estimation_log.total() > first.total());

    // A budget of k rounds replays the same first k + 1 plans, so each extra round
    // adds one re-plan's estimates, and the full run's log is the sum over its plans.
    let mut previous = first;
    for k in 1..=full.rounds.len() {
        let capped = run(k);
        assert_eq!(capped.rounds.len(), k);
        assert!(
            capped.estimation_log.total() > previous.total(),
            "re-plan {k} requested no estimate"
        );
        previous = capped.estimation_log;
    }
    assert_eq!(full.estimation_log, previous);
}

#[test]
fn mid_query_reopt_at_four_threads_reuses_a_parallel_built_hash_side() {
    // The same scenario as mid_query_reopt_reuses_hash_build_state_on_a_skewed_job_query,
    // but executed on the morsel-driven parallel engine: the skewed hash-build side is
    // assembled by partitioned parallel workers, the breaker-completion event funnels
    // to the policy, all workers quiesce on the suspension, and the partition-merged
    // build state crosses the re-plan as a virtual leaf.
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    let query = job_query("10a").unwrap();

    db.set_threads(Some(1));
    let expected = db.execute(&query.sql).unwrap();
    db.set_threads(Some(4));

    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::MidQuery,
        ..ReoptConfig::default()
    };
    let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
    assert_eq!(report.threads, 4);
    assert_eq!(
        report.final_rows, expected.rows,
        "parallel mid-query diverged from single-threaded execution"
    );
    assert!(report.reoptimized(), "the skewed keyword join must trigger");

    let reused_round = report
        .rounds
        .iter()
        .find(|round| round.reused_rows.unwrap_or(0) > 0)
        .expect("a mid-query round reusing a parallel-built hash side");
    let virt_name = reused_round.temp_table.clone().unwrap();
    let metrics = report.final_metrics.as_ref().unwrap();
    let mut reused_scan_rows = None;
    metrics.root.walk(&mut |node| {
        if node.metrics.label.contains(&virt_name) {
            reused_scan_rows = Some(node.metrics.actual_rows);
        }
    });
    assert_eq!(
        reused_scan_rows,
        Some(reused_round.reused_rows.unwrap()),
        "final plan must scan the reused parallel-built state:\n{}",
        metrics.root.render()
    );
    assert!(!db.storage().contains_table(&virt_name));
}

#[test]
fn parallel_execution_matches_single_threaded_across_the_suite_cross_section() {
    // Every ~10th suite query (plus both threads settings sharing one loaded
    // database): the morsel-driven engine must reproduce the single-threaded rows
    // exactly, modulo row order, which is not plan-defined for these aggregates.
    let mut db = imdb_database();
    let sorted = |rows: &[reopt_repro::storage::Row]| -> Vec<String> {
        let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
        rendered.sort();
        rendered
    };
    let mut compared = 0usize;
    for query in job_queries().iter().step_by(10) {
        if query.table_count > 8 {
            continue;
        }
        db.set_threads(Some(1));
        let reference = db.execute(&query.sql).unwrap();
        db.set_threads(Some(4));
        let parallel = db.execute(&query.sql).unwrap();
        assert_eq!(
            sorted(&parallel.rows),
            sorted(&reference.rows),
            "threads=4 changed the result of {}",
            query.id
        );
        // The flat-memory property survives parallelism: buffered rows stay within a
        // small constant factor of the single-threaded run (worker-partitioned builds
        // buffer the same rows, just spread across partitions).
        assert!(
            parallel.peak_buffered_rows <= reference.peak_buffered_rows.saturating_mul(4).max(64),
            "{}: parallel peak {} vs single-threaded {}",
            query.id,
            parallel.peak_buffered_rows,
            reference.peak_buffered_rows
        );
        compared += 1;
    }
    assert!(compared >= 5, "cross-section too small ({compared} queries)");
}

#[test]
fn index_nl_job_plans_replan_on_progress_signals() {
    // Under the default optimizer configuration the JOB plans at this scale lean on
    // index-nested-loop joins whose inners are base tables: no reusable breaker state
    // exists, so the old breaker-only MidQuery mode never fired here. Streaming
    // progress events close that gap: the skewed keyword join overshoots its estimate
    // after a few batches, the pipeline suspends, the observed bound is injected, and
    // the remainder re-plans — with the result still agreeing with plain execution.
    let mut db = imdb_database();
    let query = job_query("10a").unwrap();
    let expected = db.execute(&query.sql).unwrap();

    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::MidQuery,
        ..ReoptConfig::default()
    };
    let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
    assert_eq!(report.final_rows, expected.rows, "mid-query changed the result");
    assert!(
        report.reoptimized(),
        "streaming triggers must fire on index-NL plans:\n{}",
        report.final_sql
    );
    let progress_round = report
        .rounds
        .iter()
        .find(|round| round.trigger == ReoptTrigger::Progress)
        .expect("at least one progress-triggered round");
    assert_eq!(progress_round.kind, ReoptRoundKind::MidQuery);
    assert!(progress_round.corrections >= 1, "the observed bound is injected");
    assert!(report.render().contains("via progress"), "{}", report.render());
}

#[test]
fn restart_and_progress_policies_trigger_on_10a() {
    // 10a's skewed keyword join must trigger the restart policy and mid-query
    // re-optimization both where it lands on a hash build (hash joins only) and in
    // the default index-NL plan; at the paper's threshold of 32 the index-NL plan
    // re-plans on a streaming progress signal. Feedback is off, so no run learns from
    // the one before it on the same database. Every run keeps the plain result.
    let query = job_query("10a").unwrap();
    let mut hash_only = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut hash_only, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    let mut index_nl = imdb_database();
    for (label, hashed, threshold, mode) in [
        ("hash-only restart", true, 8.0, ReoptMode::Materialize),
        ("hash-only mid-query", true, 8.0, ReoptMode::MidQuery),
        ("index-NL restart", false, 32.0, ReoptMode::Materialize),
        ("index-NL mid-query", false, 32.0, ReoptMode::MidQuery),
    ] {
        let db = if hashed { &mut hash_only } else { &mut index_nl };
        let expected = db.execute(&query.sql).unwrap();
        let config = ReoptConfig {
            threshold,
            mode,
            ..ReoptConfig::default()
        }
        .with_feedback(false);
        let report = execute_with_reoptimization(db, &query.sql, &config).unwrap();
        assert_eq!(report.final_rows, expected.rows, "{label} changed the result");
        assert!(report.reoptimized(), "{label} must trigger on 10a");
        if !hashed && mode == ReoptMode::MidQuery {
            assert!(
                report.rounds.iter().any(|r| r.trigger == ReoptTrigger::Progress),
                "{label}: a streaming progress round must fire"
            );
        }
    }
}

#[test]
fn planning_estimates_each_connected_subset_once() {
    // The estimator caches every subset it estimates, so a planning call counts each
    // subset once however many csg-cmp pairs ask for it. Inside the DP regime DPccp
    // asks for exactly the connected subsets of the join graph (the base relations
    // included); above `greedy_threshold` greedy asks for a fraction of them.
    let db = imdb_database();
    let greedy_threshold = OptimizerConfig::default().greedy_threshold;
    for table_count in [4usize, 7, 10, 12, 17] {
        let query = job_queries()
            .into_iter()
            .find(|q| q.table_count == table_count)
            .expect("the suite covers this size");
        let statement = parse_sql(&query.sql).unwrap();
        let (planned, _) = db.plan_select(statement.query().unwrap()).unwrap();
        let graph = JoinGraph::new(&planned.spec);
        let connected = (1..1u64 << table_count)
            .filter(|mask| graph.is_connected(RelSet::from_mask(*mask)))
            .count() as u64;
        let estimated = planned.estimation_log.total();
        let context = format!(
            "{table_count}-relation planning ({}): {estimated} subsets estimated, \
             {connected} connected",
            query.id
        );
        assert_eq!(
            planned.estimation_log.count_for_size(1),
            table_count as u64,
            "{context}"
        );
        if table_count <= greedy_threshold {
            assert_eq!(estimated, connected, "{context}");
        } else {
            assert!(estimated < connected, "{context}");
        }
    }
}

#[test]
fn feedback_cache_cuts_rounds_on_a_repeated_job_workload() {
    // The cross-query feedback cache: running the same workload twice with feedback
    // on must make the second pass cheaper — the first pass's harvested true
    // cardinalities seed the second pass's initial plans, so fewer (ideally no)
    // violations fire, and the violations that do fire are milder. Results must be
    // identical to plain execution on every query of both passes.
    let mut db = imdb_database();
    let workload = ["1a", "2a", "2d", "6a", "9a", "11a"];
    let expected: Vec<_> = workload
        .iter()
        .map(|id| db.execute(&job_query(id).unwrap().sql).unwrap().rows)
        .collect();
    db.catalog_mut().feedback_mut().clear();

    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::Materialize,
        feedback: true,
        ..ReoptConfig::default()
    };
    let run_pass = |db: &mut Database| -> (usize, f64) {
        let mut rounds = 0usize;
        let mut q_errors: Vec<f64> = Vec::new();
        for (id, want) in workload.iter().zip(&expected) {
            let query = job_query(id).unwrap();
            let report = execute_with_reoptimization(db, &query.sql, &config)
                .unwrap_or_else(|e| panic!("feedback run of {id} failed: {e}"));
            assert_eq!(&report.final_rows, want, "{id}: feedback changed the result");
            rounds += report.rounds.len();
            q_errors.extend(report.rounds.iter().map(|round| round.q_error));
        }
        // Median violation q-error of the pass; 1.0 (no error) when nothing fired.
        q_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = if q_errors.is_empty() {
            1.0
        } else {
            q_errors[q_errors.len() / 2]
        };
        (rounds, median)
    };

    let (rounds_1, median_1) = run_pass(&mut db);
    assert!(rounds_1 > 0, "the first pass must hit violations to learn from");
    let (rounds_2, median_2) = run_pass(&mut db);
    assert!(
        rounds_2 < rounds_1,
        "the seeded pass must need fewer rounds ({rounds_2} vs {rounds_1})"
    );
    assert!(
        median_2 <= median_1,
        "the seeded pass's violations must be no worse ({median_2} vs {median_1})"
    );
}

#[test]
fn perfect_oracle_eliminates_large_estimation_errors() {
    let mut db = imdb_database();
    let query = job_query("2d").unwrap();
    let statement = parse_sql(&query.sql).unwrap();
    let select = statement.query().unwrap().clone();

    // Default run: record the worst join q-error.
    let default_output = db.execute_select(&select).unwrap();
    let worst_default = default_output
        .metrics
        .as_ref()
        .unwrap()
        .root
        .joins_bottom_up()
        .iter()
        .map(|j| j.q_error())
        .fold(1.0f64, f64::max);

    // Perfect run: every join estimate must be (essentially) exact.
    let mut oracle = PerfectOracle::new();
    let overrides = oracle.overrides_for(&mut db, &select, 17, "2d").unwrap();
    db.set_overrides(overrides);
    let perfect_output = db.execute_select(&select).unwrap();
    db.clear_overrides();
    let worst_perfect = perfect_output
        .metrics
        .as_ref()
        .unwrap()
        .root
        .joins_bottom_up()
        .iter()
        .map(|j| j.q_error())
        .fold(1.0f64, f64::max);

    assert!(
        worst_perfect < 1.5,
        "perfect estimates still show q-error {worst_perfect}"
    );
    assert!(
        worst_default >= worst_perfect,
        "default ({worst_default}) should not beat perfect ({worst_perfect})"
    );
    assert_eq!(perfect_output.rows, default_output.rows);
}

#[test]
fn nasdaq_example_shows_underestimation_and_reopt_fixes_the_plan() {
    let mut db = Database::new();
    load_nasdaq(&mut db, &NasdaqConfig::tiny()).unwrap();
    let output = db.execute(APPL_QUERY).unwrap();
    let actual = output.rows[0].value(0).as_int().unwrap() as f64;
    let estimate = output.plan.as_ref().unwrap().children[0].estimated_rows;
    assert!(q_error(estimate, actual) > 4.0, "expected a large estimation error");

    let report =
        execute_with_reoptimization(&mut db, APPL_QUERY, &ReoptConfig::with_threshold(4.0))
            .unwrap();
    assert!(report.reoptimized());
    assert_eq!(report.final_rows, output.rows);
}

#[test]
fn selective_improvement_converges_on_a_job_query() {
    let mut db = imdb_database();
    let query = job_query("2a").unwrap();
    let iterations = reopt_repro::core::selective_improvement(
        &mut db,
        &query.sql,
        &SelectiveConfig {
            threshold: 8.0,
            max_iterations: 24,
        },
    )
    .unwrap();
    assert!(!iterations.is_empty());
    let last = iterations.last().unwrap();
    assert!(
        last.corrected.is_none() || iterations.len() == 24,
        "simulation should converge or hit the cap"
    );
}

#[test]
fn explain_analyze_reports_estimates_and_actuals_for_job() {
    let mut db = imdb_database();
    let query = job_query("3a").unwrap();
    let text = db.explain_analyze(&query.sql).unwrap();
    assert!(text.contains("actual rows="));
    assert!(text.contains("q-error="));
    assert!(text.contains("Execution Time"));
}

/// Serializes the tests below that assert on the process-global
/// [`live_spill_files`] counter — concurrent spilling tests in the same binary
/// would otherwise observe each other's in-flight files.
static SPILL_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn spill_serial() -> std::sync::MutexGuard<'static, ()> {
    SPILL_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn large_job_families_spill_under_a_finite_budget_and_stay_row_identical() {
    // Families 20 (14 tables) and 21 (17 tables) were the last hold-outs kept
    // behind `REOPT_MAX_TABLES`-style caps: their build sides dwarf any fixed
    // memory budget at scale. Under the governor the same greedy plans now run
    // out of core — grace-hash partitioned builds and external sorts — and must
    // return exactly the rows of the unlimited in-memory run.
    let _serial = spill_serial();
    let mut db = Database::new();
    // Scale 0.01: hash-only plans pay the full join fan-out (no index shortcuts),
    // and family 21's 17-table graph is super-linear in scale — 0.02 costs minutes
    // here while 0.01 still builds multi-megabyte hash sides worth spilling.
    load_imdb(&mut db, &ImdbConfig { scale: 0.01, seed: 9 }).unwrap();
    // Hash joins only: the default greedy plans favour index-nested-loop joins at
    // this scale, which buffer almost nothing — the out-of-core path needs real
    // build sides to govern.
    let plan_hash_greedy = |db: &Database, query: &JobQuery| {
        let statement = parse_sql(&query.sql).unwrap();
        let select = statement.query().unwrap().clone();
        Optimizer::new(OptimizerConfig {
            greedy_threshold: 8,
            enable_index_scans: false,
            enable_index_nl_joins: false,
            ..Default::default()
        })
        .plan_select(&select, db.storage(), db.catalog(), &CardinalityOverrides::new())
        .unwrap_or_else(|e| panic!("query {} failed to plan: {e}", query.id))
    };
    for id in ["20a", "21a"] {
        let query = job_query(id).unwrap();
        let planned = plan_hash_greedy(&db, &query);
        let unlimited = execute_plan(&planned.plan, db.storage())
            .unwrap_or_else(|e| panic!("query {id} failed unlimited: {e}"));
        assert!(unlimited.peak_buffered_bytes > 0, "{id}: breakers must buffer");

        // A budget below half the unlimited footprint cannot hold the largest
        // build side in memory, so at least one breaker must go to disk.
        let budget = unlimited.peak_buffered_bytes / 2;
        let governor = std::sync::Arc::new(MemoryGovernor::new(Some(budget)));
        let constrained = Executor::new(db.storage())
            .with_governor(std::sync::Arc::clone(&governor))
            .execute(&planned.plan)
            .unwrap_or_else(|e| panic!("query {id} failed under budget {budget}: {e}"));
        assert_eq!(
            constrained.rows, unlimited.rows,
            "{id}: out-of-core execution diverged from the in-memory run"
        );
        let (spilled_bytes, spill_partitions) = constrained.metrics.root.total_spilled();
        assert!(
            spilled_bytes > 0 && spill_partitions > 0,
            "{id}: budget {budget} below peak {} must force a spill",
            unlimited.peak_buffered_bytes
        );
        assert!(governor.denials() > 0, "{id}: the governor must deny a grant");
        assert_eq!(
            reopt_repro::storage::live_spill_files(),
            0,
            "{id}: every spill file must be deleted when the pipeline drops"
        );
    }
}

#[test]
fn memory_pressure_replans_instead_of_spilling_on_a_skewed_job_query() {
    // The tentpole's decision point: when a breaker's grant is denied, the
    // governor surfaces `ExecEvent::MemoryPressure` through the observer *before*
    // the spill commits. A mid-query policy can therefore suspend and re-plan the
    // remainder with the buffered count as a lower bound — trading a re-planning
    // round for the disk I/O a plain run pays. The threshold is set beyond reach
    // so memory pressure is the *only* signal that can trigger a round.
    let _serial = spill_serial();
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    db.set_threads(Some(1));
    let query = job_query("10a").unwrap();

    // Unlimited reference: the rows every constrained run must reproduce, and
    // the footprint the budget must undercut.
    let unlimited = db.execute(&query.sql).unwrap();
    assert!(unlimited.peak_buffered_bytes > 0);
    let budget = unlimited.peak_buffered_bytes / 2;
    db.set_mem_budget(Some(budget));
    assert_eq!(db.mem_budget(), Some(budget));

    // A plain (no-reopt) run under the budget pays for the whole spill.
    let plain = db.execute(&query.sql).unwrap();
    assert_eq!(plain.rows, unlimited.rows, "plain spilling run diverged");
    let (plain_spilled, plain_partitions) =
        plain.metrics.as_ref().unwrap().root.total_spilled();
    assert!(
        plain_spilled > 0 && plain_partitions > 0,
        "budget {budget} below peak {} must force the plain run to spill",
        unlimited.peak_buffered_bytes
    );

    // Same query, same budget, mid-query policy: the memory-pressure suspension
    // re-plans the remainder instead, and the final rounds spill strictly less.
    let config = ReoptConfig {
        threshold: 1e9,
        mode: ReoptMode::MidQuery,
        feedback: false,
        ..ReoptConfig::default()
    };
    let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
    assert_eq!(report.final_rows, unlimited.rows, "re-planned run diverged");
    assert!(
        report
            .rounds
            .iter()
            .any(|round| round.trigger == ReoptTrigger::MemoryPressure),
        "a round must be triggered by memory pressure, got: {}",
        report.render()
    );
    assert!(
        report.spilled_bytes < plain_spilled,
        "re-planning must spill strictly less than the plain run ({} vs {plain_spilled})",
        report.spilled_bytes
    );
    assert!(report.render().contains("memory-pressure"));
    assert_eq!(
        reopt_repro::storage::live_spill_files(),
        0,
        "every spill file must be deleted after the report completes"
    );
    db.set_mem_budget(None);
}

#[test]
fn parallel_run_over_budget_spills_in_the_morsel_engine_with_its_settings() {
    // At threads > 1 a breaker sink whose grant is denied goes out of core in the
    // morsel engine itself — no restart — and keeps the settings the
    // run was opened with, which row identity alone cannot show. A multi-row output
    // makes the batch size visible in the root's batch count; hash joins only, so
    // the join carries a build side worth governing.
    let _serial = spill_serial();
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.02, seed: 9 }).unwrap();
    let sql = "SELECT t.id AS id, mk.keyword_id AS kw
               FROM title AS t, movie_keyword AS mk
               WHERE t.id = mk.movie_id";
    let sorted = |mut rows: Vec<reopt_repro::storage::Row>| {
        rows.sort_by_cached_key(|row| format!("{row}"));
        rows
    };
    db.set_batch_size(Some(48));

    db.set_threads(Some(1));
    let unlimited = db.execute(sql).unwrap();
    assert!(unlimited.rows.len() > 48, "the output must span several batches");
    let budget = unlimited.peak_buffered_bytes / 4;
    assert!(budget > 0, "the join must buffer a build side");
    db.set_mem_budget(Some(budget));
    let direct = db.execute(sql).unwrap();
    let direct_metrics = direct.metrics.unwrap();
    assert!(direct_metrics.root.total_spilled().0 > 0, "a quarter of the peak must spill");

    db.set_threads(Some(2));
    let spilled = db.execute(sql).unwrap();
    let metrics = spilled.metrics.unwrap();
    assert!(metrics.root.total_spilled().0 > 0, "the morsel engine must spill");
    assert!(
        metrics.root.metrics.batches >= (unlimited.rows.len() as u64).div_ceil(48),
        "no root batch may exceed the configured 48 rows"
    );
    assert_eq!(sorted(spilled.rows), sorted(unlimited.rows));
    assert_eq!(reopt_repro::storage::live_spill_files(), 0);
    assert_eq!(db.governor().reserved(), 0);
    db.set_mem_budget(None);
}

#[test]
fn a_build_row_wider_than_the_budget_fails_at_once() {
    // Under a one-byte budget every grace-hash partition is over budget, down to
    // partitions of a single row: repartitioning cannot split those, so the join
    // fails at once, naming the row's size and the budget, and leaves no spill file.
    let _serial = spill_serial();
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.005, seed: 9 }).unwrap();
    db.set_threads(Some(1));
    db.set_mem_budget(Some(1));
    let err = db
        .execute(
            "SELECT count(*) AS c FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id",
        )
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("grace-hash build row of ")
            && err.contains(" bytes exceeds the memory budget of 1 bytes"),
        "{err}"
    );
    assert_eq!(reopt_repro::storage::live_spill_files(), 0);
}

#[test]
fn unlimited_budget_keeps_reports_spill_free_across_policies_and_threads() {
    // The default (unlimited) governor must be invisible: no spill accounting in
    // reports, no "spilled" line in the rendering, and rows identical to plain
    // execution — at one thread and four, under every built-in policy.
    let mut db = imdb_database();
    let query = job_query("6a").unwrap();
    for threads in [1usize, 4] {
        db.set_threads(Some(threads));
        let plain = db.execute(&query.sql).unwrap();
        assert_eq!(
            plain.metrics.as_ref().unwrap().root.total_spilled(),
            (0, 0),
            "threads {threads}: plain unlimited run must not spill"
        );
        for mode in [ReoptMode::Materialize, ReoptMode::InjectOnly, ReoptMode::MidQuery] {
            let config = ReoptConfig {
                threshold: 8.0,
                mode,
                feedback: false,
                ..ReoptConfig::default()
            };
            let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
            assert_eq!(report.final_rows, plain.rows, "threads {threads} {mode:?}");
            assert_eq!(report.spilled_bytes, 0, "threads {threads} {mode:?}");
            assert_eq!(report.spill_partitions, 0, "threads {threads} {mode:?}");
            assert!(
                !report.render().contains("spilled"),
                "threads {threads} {mode:?}: unlimited reports must render byte-identically"
            );
        }
    }
}

/// Every MidQuery round of 10a and 15b, per batch size, as `(trigger, relation
/// set, observed rows)`: the events an inline run sends, and when, decide each of
/// them (job-plain data: scale 0.02, data seed 42; threshold 8, feedback off).
///
/// At batch size 1024 every source of both queries is under two morsels, so
/// every pipeline runs on the inline worker at any thread count, and the rounds
/// are checked at 1, 2 and 4 threads. Batch size 7 is checked at one thread
/// only: there the sources span many morsels and reach the pool, whose
/// per-morsel rule still moves the rounds (ROADMAP item 15).
const PINNED_ROUNDS: &[(&str, usize, &str)] = &[
    (
        "10a",
        7,
        "Progress RelSet(115) 56; Progress RelSet(51) 168; Progress RelSet(115) 504; \
         Progress RelSet(83) 616",
    ),
    (
        "10a",
        1024,
        "Progress RelSet(48) 60; Progress RelSet(51) 669; Progress RelSet(83) 669",
    ),
    (
        "15b",
        7,
        "Progress RelSet(239) 56; Progress RelSet(191) 56; Progress RelSet(251) 56; \
         Progress RelSet(255) 56; Progress RelSet(255) 504; Progress RelSet(159) 448; \
         Progress RelSet(231) 448; Progress RelSet(25) 77; Progress RelSet(111) 672; \
         Progress RelSet(187) 896; Progress RelSet(147) 504; Progress RelSet(23) 616; \
         Progress RelSet(7) 896; BreakerComplete RelSet(83) 90; Progress RelSet(11) 2072; \
         Progress RelSet(12) 2072",
    ),
    (
        "15b",
        1024,
        "Progress RelSet(96) 158; Progress RelSet(6) 39; Progress RelSet(24) 107; \
         Progress RelSet(15) 334; Progress RelSet(11) 334; Progress RelSet(27) 90; \
         Progress RelSet(255) 8192; Progress RelSet(80) 1856; Progress RelSet(68) 1040; \
         Progress RelSet(108) 8192",
    ),
];

#[test]
fn mid_query_rounds_are_pinned_across_thread_counts() {
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale: 0.02, seed: 42 }).unwrap();
    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::MidQuery,
        ..ReoptConfig::default()
    }
    .with_feedback(false);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &(id, batch_size, rounds) in PINNED_ROUNDS {
        let query = job_query(id).unwrap();
        db.set_batch_size(Some(batch_size));
        let thread_counts: &[usize] = if batch_size == 7 { &[1] } else { &[1, 2, 4] };
        for &threads in thread_counts {
            db.set_threads(Some(threads));
            let report = execute_with_reoptimization(&mut db, &query.sql, &config).unwrap();
            let observed: Vec<String> = report
                .rounds
                .iter()
                .map(|r| format!("{:?} {:?} {}", r.trigger, r.rel_set, r.actual_rows))
                .collect();
            got.push((id, batch_size, threads, observed.join("; ")));
            want.push((id, batch_size, threads, rounds.to_string()));
        }
    }
    assert_eq!(got, want);
}
