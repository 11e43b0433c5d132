//! Concurrency stress battery: N client threads × mixed JOB queries through shared
//! [`Session`]s over one database, all multiplexed on the process-wide worker pool.
//!
//! What must hold under sharing:
//! * **Row identity** — every concurrent execution returns exactly the rows a
//!   single-threaded solo run returns (compared sorted; aggregates are one row).
//! * **No deadlocks** — the battery completes; admission slots always free.
//! * **Exactly-once observer events** — each query's breaker completions are
//!   delivered once per breaker to *its own* policy, never duplicated or leaked
//!   across concurrently running queries.
//! * **Suspension scoping** — one session's mid-query re-optimization corrects its
//!   query while concurrent sessions complete unaffected.
//!
//! The CI concurrent-smoke leg runs this file repeatedly (`REOPT_STRESS_ITERS`)
//! to shake out interleaving-dependent flakes.

use reopt_repro::core::{
    execute_with_policy_feedback, Database, PolicyContext, PolicyDecision, ReoptConfig, ReoptMode,
    ReoptPolicy, ReoptReport,
};
use reopt_repro::executor::{ExecEvent, QueryMetrics, WorkerPool};
use reopt_repro::planner::{OptimizerConfig, QuerySpec, RelSet};
use reopt_repro::sql::parse_sql;
use reopt_repro::storage::{live_spill_files, Row};
use reopt_repro::workload::job::{job_queries, job_query, JobQuery};
use reopt_repro::workload::{load_imdb, ImdbConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra battery repetitions (the CI leg raises this; locally 1 keeps it quick).
fn stress_iters() -> usize {
    std::env::var("REOPT_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

const CLIENTS: usize = 4;

/// The query mix: one variant per family with at most 8 tables — small enough to
/// plan exhaustively, varied enough to cover every operator shape.
fn query_mix() -> Vec<JobQuery> {
    let mut seen = HashSet::new();
    job_queries()
        .into_iter()
        .filter(|q| q.table_count <= 8 && seen.insert(q.family))
        .collect()
}

fn shared_database() -> Database {
    let mut db = Database::new();
    load_imdb(&mut db, &ImdbConfig { scale: 0.02, seed: 9 }).unwrap();
    db.set_threads(Some(2));
    // At the default 1024-row batches, a morsel (4 batches) swallows every table at
    // this scale and pipelines clamp to one inline worker — the battery would never
    // touch the shared pool. Shrink the batches so scans split into enough morsels
    // for real multi-worker chains.
    db.set_batch_size(Some(64));
    db
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn stress_battery_concurrent_sessions_match_single_threaded_reference() {
    let mut db = shared_database();

    // Single-threaded reference rows, computed before any concurrency.
    db.set_threads(Some(1));
    let mix = query_mix();
    let reference: Vec<Vec<Row>> = mix
        .iter()
        .map(|q| sorted(db.execute(&q.sql).unwrap().rows))
        .collect();
    db.set_threads(Some(2));

    let reference = Arc::new(reference);
    let mix = Arc::new(mix);

    for _round in 0..stress_iters() {
        let mut clients = Vec::new();
        for client in 0..CLIENTS {
            let mut session = db.connect();
            let mix = Arc::clone(&mix);
            let reference = Arc::clone(&reference);
            clients.push(std::thread::spawn(move || {
                // Each client walks the mix from a different offset so distinct
                // queries overlap in time.
                for step in 0..mix.len() {
                    let idx = (client + step) % mix.len();
                    let query = &mix[idx];
                    let out = session
                        .execute(&query.sql)
                        .unwrap_or_else(|e| panic!("client {client} query {}: {e}", query.id));
                    assert_eq!(
                        sorted(out.rows),
                        reference[idx],
                        "client {client} query {} diverged from the single-threaded reference",
                        query.id
                    );
                }
                session.server().inflight()
            }));
        }
        for client in clients {
            client.join().expect("client thread panicked");
        }
        assert_eq!(db.server().inflight(), 0, "admission slots must all free");
    }
    assert_eq!(
        db.server().admitted_total() as usize,
        CLIENTS * query_mix().len() * stress_iters(),
        "every query acquired exactly one admission slot"
    );
    assert!(
        WorkerPool::global().threads_spawned_total() > 0,
        "the battery must actually dispatch morsels to the resident pool"
    );
}

#[test]
fn constrained_budget_battery_spills_without_leaking_files() {
    // The out-of-core leg of the battery: the same shared-database mix, but under
    // a memory budget a quarter of the largest single-query footprint, so breaker
    // sinks are denied grants and spill concurrently from every client. What must
    // hold on top of the usual row identity: the process-wide spill-file counter
    // returns to zero once all clients drain — the RAII guards must delete every
    // run regardless of which worker or session owned it.
    let mut db = shared_database();

    db.set_threads(Some(1));
    let mix: Vec<JobQuery> = query_mix().into_iter().take(4).collect();
    let mut peak_bytes = 0u64;
    let reference: Vec<Vec<Row>> = mix
        .iter()
        .map(|q| {
            let out = db.execute(&q.sql).unwrap();
            peak_bytes = peak_bytes.max(out.peak_buffered_bytes);
            sorted(out.rows)
        })
        .collect();
    db.set_threads(Some(2));
    db.set_mem_budget(Some((peak_bytes / 4).max(1)));

    let mix = Arc::new(mix);
    let reference = Arc::new(reference);
    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let mut session = db.connect();
        let mix = Arc::clone(&mix);
        let reference = Arc::clone(&reference);
        clients.push(std::thread::spawn(move || {
            for step in 0..mix.len() {
                let idx = (client + step) % mix.len();
                let query = &mix[idx];
                let out = session
                    .execute(&query.sql)
                    .unwrap_or_else(|e| panic!("client {client} query {}: {e}", query.id));
                assert_eq!(
                    sorted(out.rows),
                    reference[idx],
                    "client {client} query {} diverged under the memory budget",
                    query.id
                );
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }
    assert!(
        db.governor().denials() > 0,
        "a budget a quarter of the peak footprint must deny at least one grant"
    );
    assert_eq!(
        live_spill_files(),
        0,
        "every spill file must be cleaned up once the battery drains"
    );
}

#[test]
fn admission_cap_is_respected_under_concurrent_load() {
    let mut db = shared_database();
    db.set_max_inflight(2);
    let mix = Arc::new(query_mix());
    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let mut session = db.connect();
        let mix = Arc::clone(&mix);
        clients.push(std::thread::spawn(move || {
            for step in 0..mix.len() {
                let query = &mix[(client + step) % mix.len()];
                session.execute(&query.sql).unwrap();
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }
    assert!(
        db.server().peak_inflight() <= 2,
        "peak in-flight {} exceeded the admission cap",
        db.server().peak_inflight()
    );
    assert_eq!(db.server().inflight(), 0);
}

/// A policy that records every breaker-completion event it sees and never
/// intervenes. `wants_events` makes the driver install an executor observer, so
/// this exercises the whole event funnel under concurrency.
struct EventRecorder {
    breakers: Vec<(RelSet, u64)>,
}

impl ReoptPolicy for EventRecorder {
    fn name(&self) -> &str {
        "event-recorder"
    }
    fn wants_events(&self) -> bool {
        true
    }
    fn on_event(&mut self, event: &ExecEvent, _ctx: &PolicyContext) -> PolicyDecision {
        if let ExecEvent::BreakerComplete(breaker) = event {
            self.breakers.push((breaker.rel_set, breaker.actual_rows));
        }
        PolicyDecision::Continue
    }
    fn on_complete(
        &mut self,
        _metrics: &QueryMetrics,
        _spec: &QuerySpec,
        _ctx: &PolicyContext,
    ) -> PolicyDecision {
        PolicyDecision::Continue
    }
}

#[test]
fn observer_events_are_exactly_once_per_query_under_concurrency() {
    let db = shared_database();
    let mix: Vec<JobQuery> = query_mix().into_iter().take(4).collect();
    let mix = Arc::new(mix);

    let mut clients = Vec::new();
    for client in 0..CLIENTS {
        let mut session = db.connect();
        let mix = Arc::clone(&mix);
        clients.push(std::thread::spawn(move || {
            for step in 0..mix.len() {
                let query = &mix[(client + step) % mix.len()];
                let mut recorder = EventRecorder { breakers: Vec::new() };
                let report = session
                    .execute_with_policy(&query.sql, &mut recorder)
                    .unwrap_or_else(|e| panic!("client {client} query {}: {e}", query.id));
                assert_eq!(report.rounds.len(), 0, "recorder never intervenes");
                // Exactly-once: within one run, no breaker subtree completes twice.
                // (Cross-run sets may differ — the shared feedback cache legitimately
                // changes later plans — but duplicates would mean a worker's event
                // leaked through the funnel more than once.)
                let mut seen = HashSet::new();
                for (rel_set, actual) in &recorder.breakers {
                    assert!(
                        seen.insert(*rel_set),
                        "client {client} query {}: breaker {rel_set:?} (actual {actual}) \
                         delivered more than once",
                        query.id
                    );
                }
                assert!(
                    !recorder.breakers.is_empty(),
                    "client {client} query {}: a multi-join query must complete breakers",
                    query.id
                );
            }
        }));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }
}

/// How long a held re-plan decision waits for the background session before the
/// test fails (a stalled pool would otherwise hang it).
const GATE_DEADLINE: Duration = Duration::from_secs(60);

/// The mid-query policy, except that its first re-plan decision is held until
/// the background session's completion counter advances. A background query
/// therefore completes *while* this query is mid-re-optimization by
/// construction, not by winning a wall-clock race; if the pool stalls instead,
/// the deadline fails the test rather than hanging it.
struct HeldReplan {
    inner: Box<dyn ReoptPolicy>,
    background_completed: Arc<AtomicU64>,
    held: bool,
}

impl ReoptPolicy for HeldReplan {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn max_rounds(&self) -> usize {
        self.inner.max_rounds()
    }
    fn wants_events(&self) -> bool {
        self.inner.wants_events()
    }
    fn on_event(&mut self, event: &ExecEvent, ctx: &PolicyContext) -> PolicyDecision {
        let decision = self.inner.on_event(event, ctx);
        if !self.held && matches!(decision, PolicyDecision::ReplanMidQuery { .. }) {
            self.held = true;
            let seen = self.background_completed.load(Ordering::SeqCst);
            let deadline = Instant::now() + GATE_DEADLINE;
            while self.background_completed.load(Ordering::SeqCst) == seen {
                assert!(
                    Instant::now() < deadline,
                    "the background session completed nothing in {GATE_DEADLINE:?} while \
                     this query held its re-plan decision (stalled, or its thread panicked)"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        decision
    }
    fn on_complete(
        &mut self,
        metrics: &QueryMetrics,
        spec: &QuerySpec,
        ctx: &PolicyContext,
    ) -> PolicyDecision {
        self.inner.on_complete(metrics, spec, ctx)
    }
}

/// Run `sql` under the mid-query policy (threshold 8) with its first re-plan held
/// until `background_completed` advances. Cross-query feedback is off: while the
/// decision is held the query's workers keep producing, so what a run records
/// depends on timing, and a later run planned from it might not re-plan at all.
fn reoptimize_holding_first_replan(
    db: &mut Database,
    sql: &str,
    background_completed: &Arc<AtomicU64>,
) -> ReoptReport {
    let config = ReoptConfig {
        threshold: 8.0,
        mode: ReoptMode::MidQuery,
        ..ReoptConfig::default()
    };
    let mut policy = HeldReplan {
        inner: config.policy(),
        background_completed: Arc::clone(background_completed),
        held: false,
    };
    execute_with_policy_feedback(db, sql, &mut policy, false).unwrap()
}

#[test]
fn limit_quiesce_races_mid_query_suspension_across_sessions() {
    // A LIMIT quiesces its run the moment the count is satisfied, and a streaming
    // scan dropped mid-stream quiesces its pool chains; a concurrent session's
    // mid-query suspension quiesces *its* workers through the same resident pool.
    // The teardown paths must stay scoped per query: LIMIT output stays
    // run-identical (exact order) and the dropped scan's chains retire while the
    // other session suspends, re-plans and resumes.
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    db.set_threads(Some(2));
    // 16-row batches split the ~240-row title table into four morsels, so the
    // background scan runs on pool workers rather than inline (a LIMIT runs its
    // child on the inline worker at every thread count).
    db.set_batch_size(Some(16));
    let scan = "SELECT t.id AS id FROM title AS t";

    let limits = [
        // No ORDER BY: the parallel engine must still return the scan-order prefix.
        "SELECT t.id AS id FROM title AS t LIMIT 37",
        // Plan-defined order, truncated after the sort.
        "SELECT t.id AS id FROM title AS t ORDER BY id DESC LIMIT 25",
    ];
    db.set_threads(Some(1));
    let expected: Vec<Vec<Row>> = limits
        .iter()
        .map(|sql| db.execute(sql).unwrap().rows)
        .collect();
    let skewed = job_query("10a").unwrap();
    let expected_skewed = db.execute(&skewed.sql).unwrap();
    let scan_ids: HashSet<String> = db
        .execute(scan)
        .unwrap()
        .rows
        .iter()
        .map(|row| format!("{row}"))
        .collect();
    db.set_threads(Some(2));
    let scan_statement = parse_sql(scan).unwrap();
    let scan_plan = db.plan_select(scan_statement.query().unwrap()).unwrap().0;

    let stop = Arc::new(AtomicBool::new(false));
    let stop_bg = Arc::clone(&stop);
    let completed = Arc::new(AtomicU64::new(0));
    let completed_bg = Arc::clone(&completed);
    let mut background = db.connect();
    let bg_expected = expected.clone();
    let bg_handle = std::thread::spawn(move || {
        while !stop_bg.load(Ordering::SeqCst) {
            for (sql, want) in limits.iter().zip(&bg_expected) {
                let out = background.execute(sql).unwrap();
                // Exact order, not sorted: LIMIT promises run-identical output even
                // while another query tears down mid-suspension.
                assert_eq!(
                    &out.rows, want,
                    "LIMIT output diverged while another session suspended mid-query"
                );
            }
            // A streaming scan on the pool, pulled for a few batches and dropped:
            // dropping the pipeline quiesces its chains mid-stream.
            let executor = background.database().executor();
            let mut pipeline = executor.open(&scan_plan.plan).unwrap();
            for _ in 0..3 {
                let batch = pipeline
                    .next_batch()
                    .unwrap()
                    .expect("the scan has more rows");
                assert!(
                    batch.iter().all(|row| scan_ids.contains(&format!("{row}"))),
                    "the pool scan produced a row the table does not hold"
                );
            }
            drop(pipeline);
            completed_bg.fetch_add(1, Ordering::SeqCst);
        }
    });

    // The foreground session repeatedly re-optimizes mid-query, so worker
    // quiesce-and-resume keeps overlapping the background LIMIT teardowns; each
    // run holds its first re-plan until a background iteration completes.
    let mut session = db.connect();
    for _ in 0..3 {
        let report =
            reoptimize_holding_first_replan(session.database_mut(), &skewed.sql, &completed);
        assert_eq!(
            report.final_rows, expected_skewed.rows,
            "mid-query re-optimization changed the skewed query's result"
        );
        assert!(
            report.reoptimized(),
            "the skewed keyword join must trigger re-optimization"
        );
    }

    stop.store(true, Ordering::SeqCst);
    bg_handle.join().expect("background session panicked");
    assert!(
        completed.load(Ordering::SeqCst) >= 1,
        "the background session must complete LIMIT queries and pool scans during \
         re-optimization"
    );
}

#[test]
fn mid_query_reopt_corrects_one_session_while_others_complete_unaffected() {
    // Force hash joins so the mis-estimated subtree deterministically lands on a
    // build side (same setup as the end-to-end mid-query tests), then run the
    // re-optimizing query in one session while another session loops unrelated
    // queries on the same worker pool. Quiesce must be scoped to the violating
    // query: the background session keeps completing with correct rows throughout.
    let mut db = Database::with_config(OptimizerConfig {
        enable_index_scans: false,
        enable_index_nl_joins: false,
        ..Default::default()
    });
    load_imdb(&mut db, &ImdbConfig { scale: 0.03, seed: 9 }).unwrap();
    db.set_threads(Some(2));
    db.set_batch_size(Some(64));

    let skewed = job_query("10a").unwrap();
    db.set_threads(Some(1));
    let expected_skewed = db.execute(&skewed.sql).unwrap();
    let background_query = job_query("1a").unwrap();
    let expected_background = sorted(db.execute(&background_query.sql).unwrap().rows);
    db.set_threads(Some(2));

    let stop = Arc::new(AtomicBool::new(false));
    let stop_bg = Arc::clone(&stop);
    let completed = Arc::new(AtomicU64::new(0));
    let completed_bg = Arc::clone(&completed);
    let mut background = db.connect();
    let bg_expected = expected_background.clone();
    let bg_handle = std::thread::spawn(move || {
        while !stop_bg.load(Ordering::SeqCst) {
            let out = background.execute(&background_query.sql).unwrap();
            assert_eq!(
                sorted(out.rows),
                bg_expected,
                "background session corrupted while another session re-optimized"
            );
            completed_bg.fetch_add(1, Ordering::SeqCst);
        }
    });

    // The foreground session re-optimizes mid-query (suspension, breaker-state
    // reuse, re-planning) while the background session hammers the same pool; its
    // first re-plan is held until a background query completes.
    let mut session = db.connect();
    let report =
        reoptimize_holding_first_replan(session.database_mut(), &skewed.sql, &completed);
    assert_eq!(
        report.final_rows, expected_skewed.rows,
        "mid-query re-optimization changed the skewed query's result"
    );
    assert!(
        report.reoptimized(),
        "the skewed keyword join must trigger re-optimization"
    );

    stop.store(true, Ordering::SeqCst);
    bg_handle.join().expect("background session panicked");
    assert!(
        completed.load(Ordering::SeqCst) >= 1,
        "the background session must complete queries during re-optimization"
    );
}
