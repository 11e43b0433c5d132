//! The full 113-query Join Order Benchmark battery.
//!
//! Ignored by default: the suite takes minutes even in release mode, so the
//! nightly CI job runs it explicitly:
//!
//! ```text
//! cargo test --release --test job_full -- --ignored --nocapture
//! ```
//!
//! Every JOB query executes under plain execution and under all three built-in
//! re-optimization policies; each run must match the independent nested-loop
//! reference of `oracle/mod.rs`. Along the way the battery tracks, per
//! policy, the distribution of re-optimization-round q-errors (how wrong the
//! estimates that triggered correction were) and of wall-clock runtimes, and
//! prints the p50/p95/p99 summaries — the full-suite view of the paper's
//! "re-optimization fixes bad plans without hurting good ones" claim.
//!
//! `REOPT_SCALE` overrides the dataset scale (default 0.02, the perf_smoke
//! scale). At the default scale the battery also pins each policy's total round
//! count ([`DEFAULT_SCALE_ROUNDS`]), so a change to the rewrite path cannot move
//! rounds silently.
//!
//! The constrained-memory pass re-runs the suite under a 512-byte budget
//! ([`MEM_BUDGET`]): every query must stay row-identical
//! to its unlimited reference while breaker sinks spill out of core, and every
//! spill file must be gone when the battery drains.

mod oracle;

use reopt_repro::core::{
    execute_with_reoptimization, Database, ReoptConfig, ReoptMode, ReoptReport,
};
use reopt_repro::planner::bind_select;
use reopt_repro::sql::parse_sql;
use reopt_repro::storage::Row;
use reopt_repro::workload::job::job_queries;
use reopt_repro::workload::{load_imdb, ImdbConfig, JobQuery};
use std::time::{Duration, Instant};

/// The byte budget of the constrained-memory pass. At scale 0.02 (data seed 13) a
/// budget of 1 MiB or 16 KiB spills no plain query; at 512 B, 8 plain queries spill
/// 75 637 B with 912 denied grants and the one-thread pass takes about 30 s on 2
/// vCPUs (2 KiB spills too, but with about 10 000 denials it takes about 160 s).
/// At this scale every pipeline runs on the inline worker at two threads as well,
/// so the two-thread pass reads the same: 912 denials, 75 637 B from 8 plain
/// queries.
const MEM_BUDGET: u64 = 512;

/// The dataset scale when `REOPT_SCALE` is unset.
const DEFAULT_SCALE: f64 = 0.02;

/// Rounds summed over the 113 queries at [`DEFAULT_SCALE`] (data seed 13, threshold 8,
/// feedback off), per policy in the battery's order: Materialize, InjectOnly,
/// MidQuery. Recorded at 3198020, before materialize restarts became collapses. At
/// this scale and the default batch size every source is under two morsels, so
/// every pipeline runs on the inline worker, and the totals are the same at any
/// thread count (the runner's core count picks it).
const DEFAULT_SCALE_ROUNDS: [usize; 3] = [201, 471, 366];

fn canonical(rows: &[Row]) -> Vec<String> {
    let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
    rendered.sort();
    rendered
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[derive(Default)]
struct PolicyStats {
    runtimes: Vec<f64>,
    q_errors: Vec<f64>,
    rounds: usize,
}

impl PolicyStats {
    fn absorb(&mut self, report: &ReoptReport, elapsed: Duration) {
        self.runtimes.push(elapsed.as_secs_f64() * 1e3);
        self.rounds += report.rounds.len();
        self.q_errors
            .extend(report.rounds.iter().map(|round| round.q_error));
    }

    fn summary(&mut self, name: &str) -> String {
        self.runtimes
            .sort_by(|a, b| a.partial_cmp(b).expect("runtimes are finite"));
        self.q_errors
            .sort_by(|a, b| a.partial_cmp(b).expect("q-errors are finite"));
        format!(
            "{name:<22} runtime ms p50 {:>8.2} p95 {:>8.2} p99 {:>8.2} max {:>8.2} | \
             {} rounds, violation q-error p50 {:.1} p95 {:.1} max {:.1}",
            percentile(&self.runtimes, 0.50),
            percentile(&self.runtimes, 0.95),
            percentile(&self.runtimes, 0.99),
            self.runtimes.last().copied().unwrap_or(0.0),
            self.rounds,
            percentile(&self.q_errors, 0.50),
            percentile(&self.q_errors, 0.95),
            self.q_errors.last().copied().unwrap_or(0.0),
        )
    }
}

#[test]
#[ignore = "full 113-query suite; nightly CI runs it with --release -- --ignored"]
fn full_job_suite_runs_every_query_under_every_policy() {
    let scale = std::env::var("REOPT_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale, seed: 13 }).unwrap();

    let queries = job_queries();
    assert_eq!(queries.len(), 113, "the JOB suite is 113 queries");

    let modes = [ReoptMode::Materialize, ReoptMode::InjectOnly, ReoptMode::MidQuery];
    let mut stats: Vec<PolicyStats> = modes.iter().map(|_| PolicyStats::default()).collect();
    let mut plain = PolicyStats::default();
    let mut failures = Vec::new();

    for (done, query) in queries.iter().enumerate() {
        let id = &query.id;
        let statement = parse_sql(&query.sql).unwrap();
        let spec = bind_select(statement.query().unwrap(), db.storage()).unwrap();
        let reference = match oracle::evaluate(&spec, db.storage()) {
            Ok(answer) => answer,
            Err(error) => {
                failures.push(format!("{id}: the reference failed: {error}"));
                continue;
            }
        };

        let start = Instant::now();
        match db.execute(&query.sql) {
            Ok(output) => {
                plain.runtimes.push(start.elapsed().as_secs_f64() * 1e3);
                if let Err(error) = reference.check(&output.rows) {
                    failures.push(format!("{id}: plain diverged from reference: {error}"));
                }
            }
            Err(error) => failures.push(format!("{id}: plain execution failed: {error}")),
        }

        for (idx, mode) in modes.iter().enumerate() {
            let config = ReoptConfig {
                threshold: 8.0,
                mode: *mode,
                feedback: false,
                ..ReoptConfig::default()
            };
            let start = Instant::now();
            match execute_with_reoptimization(&mut db, &query.sql, &config) {
                Ok(report) => {
                    stats[idx].absorb(&report, start.elapsed());
                    if let Err(error) = reference.check(&report.final_rows) {
                        failures.push(format!("{id}: {mode:?} diverged from reference: {error}"));
                    }
                }
                Err(error) => failures.push(format!("{id}: {mode:?} failed: {error}")),
            }
        }
        if (done + 1) % 20 == 0 {
            eprintln!("job_full: {}/{} queries done", done + 1, queries.len());
        }
    }

    plain.runtimes.sort_by(|a, b| a.partial_cmp(b).expect("runtimes are finite"));
    eprintln!(
        "job_full: scale {scale}: plain runtime ms p50 {:.2} p95 {:.2} p99 {:.2} max {:.2}",
        percentile(&plain.runtimes, 0.50),
        percentile(&plain.runtimes, 0.95),
        percentile(&plain.runtimes, 0.99),
        plain.runtimes.last().copied().unwrap_or(0.0),
    );
    for (idx, mode) in modes.iter().enumerate() {
        eprintln!("job_full: {}", stats[idx].summary(&format!("{mode:?}")));
    }

    assert!(
        failures.is_empty(),
        "{} of 113 queries failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    if scale == DEFAULT_SCALE {
        let rounds: Vec<usize> = stats.iter().map(|stats| stats.rounds).collect();
        assert_eq!(
            rounds, DEFAULT_SCALE_ROUNDS,
            "round totals per policy (Materialize, InjectOnly, MidQuery) moved"
        );
    }
}

#[test]
#[ignore = "full-suite constrained-memory pass; nightly CI runs it with --release -- --ignored"]
fn full_job_suite_is_row_identical_under_a_constrained_memory_budget() {
    let scale = std::env::var("REOPT_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale, seed: 13 }).unwrap();
    db.set_columnar(Some(false));
    let queries = job_queries();
    let mut failures = Vec::new();
    // One pass at one thread and one at two. At the default scale every pipeline
    // of both runs on the inline worker; a larger `REOPT_SCALE` can reach the pool.
    for threads in [1, 2] {
        budget_pass(&mut db, &queries, threads, &mut failures);
    }
    assert_eq!(
        reopt_repro::storage::live_spill_files(),
        0,
        "every spill file must be cleaned up once the suite drains"
    );
    assert!(
        failures.is_empty(),
        "{} runs failed under the memory budget:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// One budgeted pass over the suite at `threads`: every plain run and every
/// MidQuery run must return the unlimited run's rows, and the pass must deny
/// grants and make plain queries spill.
fn budget_pass(db: &mut Database, queries: &[JobQuery], threads: usize, failures: &mut Vec<String>) {
    db.set_threads(Some(threads));
    let start = Instant::now();
    let denials_before = db.governor().denials();
    let mut spilled_queries = 0usize;
    let mut spilled_bytes = 0u64;

    for (done, query) in queries.iter().enumerate() {
        let id = &query.id;
        db.set_mem_budget(None);
        let reference = match db.execute(&query.sql) {
            Ok(output) => canonical(&output.rows),
            Err(error) => {
                failures.push(format!("{id}: unlimited reference failed: {error}"));
                continue;
            }
        };

        db.set_mem_budget(Some(MEM_BUDGET));
        match db.execute(&query.sql) {
            Ok(output) => {
                if canonical(&output.rows) != reference {
                    failures.push(format!("{id}: plain run diverged under budget {MEM_BUDGET}"));
                }
                let metrics = output.metrics.as_ref();
                let (bytes, _) = metrics.map(|m| m.root.total_spilled()).unwrap_or((0, 0));
                if bytes > 0 {
                    spilled_queries += 1;
                    spilled_bytes += bytes;
                }
            }
            Err(error) => failures.push(format!("{id}: plain run failed under budget: {error}")),
        }

        // The re-plan-instead-of-spill path at suite breadth: memory pressure may
        // suspend and re-plan, and whatever still spills must not change rows.
        let config = ReoptConfig {
            threshold: 8.0,
            mode: ReoptMode::MidQuery,
            feedback: false,
            ..ReoptConfig::default()
        };
        match execute_with_reoptimization(db, &query.sql, &config) {
            Ok(report) => {
                if canonical(&report.final_rows) != reference {
                    failures.push(format!("{id}: MidQuery diverged under budget {MEM_BUDGET}"));
                }
            }
            Err(error) => failures.push(format!("{id}: MidQuery failed under budget: {error}")),
        }
        if (done + 1) % 20 == 0 {
            eprintln!("job_full(budget): {}/{} queries done", done + 1, queries.len());
        }
    }

    let denials = db.governor().denials() - denials_before;
    eprintln!(
        "job_full(budget): {threads} thread(s), budget {MEM_BUDGET} bytes: {spilled_queries} \
         plain queries spilled {spilled_bytes} bytes total, {denials} denied grant(s), pass \
         {:.1}s",
        start.elapsed().as_secs_f64()
    );
    assert!(
        denials > 0,
        "a {MEM_BUDGET}-byte budget across the whole suite must deny at least one grant \
         at {threads} thread(s)"
    );
    assert!(
        spilled_queries > 0,
        "a {MEM_BUDGET}-byte budget must make at least one plain query spill at {threads} \
         thread(s)"
    );
}
