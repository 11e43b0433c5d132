//! The engine against an independent reference on the Join Order Benchmark.
//!
//! Each query is bound once and answered twice: by the engine (`Database::execute`,
//! at one thread, and at two threads with a batch size small enough to reach the
//! worker pool) and by the nested-loop evaluator of `oracle/mod.rs`,
//! which uses no planner plan and no executor operator. The `job-plain` slice of JOB runs
//! in the default test pass; every query on both benchmark data seeds runs in the
//! nightly pass:
//!
//! ```text
//! cargo test --release --test oracle_job -- --ignored --nocapture
//! ```

mod oracle;

use reopt_repro::core::Database;
use reopt_repro::planner::bind_select;
use reopt_repro::sql::parse_sql;
use reopt_repro::workload::job::job_queries;
use reopt_repro::workload::{load_imdb, ImdbConfig, JobQuery};

/// The dataset scale of both passes (the benchmark's).
const SCALE: f64 = 0.02;

/// The default pass's slice: the queries of at most this many relations (the
/// `job-plain` benchmark workload's 104), whose references take about two seconds
/// in all.
const SLICE_MAX_RELATIONS: usize = 12;

fn database(seed: u64) -> Database {
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale: SCALE, seed }).unwrap();
    db
}

/// Answer `query` with the reference and with the engine at one and at two
/// threads, and the same for its join's `count(*)`: a query's MIN values hardly
/// move when its join gains or loses rows, its count does. The two-thread pass
/// runs at batch size 16, so a morsel is 64 rows and every pipeline whose source
/// holds more than that runs as pool chains (71 pipelines of the slice on data
/// seed 42). At the default batch size every source is under two morsels, and so
/// it is at 64 for every plan of the slice: those pipelines run on the inline
/// worker, as at one thread. The differences, if any.
fn check(db: &mut Database, query: &JobQuery) -> Vec<String> {
    let from = query.sql.find("FROM").expect("a JOB query has a FROM clause");
    let counted = format!("SELECT count(*) AS c {}", &query.sql[from..]);
    let mut failures = Vec::new();
    for (label, sql) in [("", query.sql.as_str()), (" count(*)", counted.as_str())] {
        let statement = parse_sql(sql).unwrap();
        let spec = bind_select(statement.query().unwrap(), db.storage()).unwrap();
        let answer = match oracle::evaluate(&spec, db.storage()) {
            Ok(answer) => answer,
            Err(error) => {
                failures.push(format!("{}{label}: the reference failed: {error}", query.id));
                continue;
            }
        };
        for (threads, batch_size) in [(1, None), (2, Some(16))] {
            db.set_threads(Some(threads));
            db.set_batch_size(batch_size);
            let outcome = db
                .execute(sql)
                .map_err(|e| e.to_string())
                .and_then(|output| answer.check(&output.rows));
            if let Err(error) = outcome {
                failures.push(format!("{}{label} at {threads} threads: {error}", query.id));
            }
        }
    }
    db.set_threads(None);
    db.set_batch_size(None);
    failures
}

#[test]
fn a_job_slice_matches_the_reference() {
    let mut db = database(42);
    let slice: Vec<JobQuery> = job_queries()
        .into_iter()
        .filter(|q| q.table_count <= SLICE_MAX_RELATIONS)
        .collect();
    assert_eq!(slice.len(), 104);
    let mut failures = Vec::new();
    for query in &slice {
        failures.extend(check(&mut db, query));
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
#[ignore = "every JOB query on both data seeds; nightly CI runs it with --release -- --ignored"]
fn every_job_query_matches_the_reference_on_both_seeds() {
    let queries = job_queries();
    assert_eq!(queries.len(), 113);
    let mut failures = Vec::new();
    for seed in [42, 7] {
        let mut db = database(seed);
        for query in &queries {
            let start = std::time::Instant::now();
            let found = check(&mut db, query);
            eprintln!(
                "seed {seed} {}: {} ({:.2}s)",
                query.id,
                if found.is_empty() { "ok" } else { "MISMATCH" },
                start.elapsed().as_secs_f64()
            );
            failures.extend(found.into_iter().map(|f| format!("seed {seed}: {f}")));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
