//! Driving one query through the engine's public API: untraced, as a user calls
//! it, or traced, stepwise through the layer functions with a span around each.

use crate::digest::{digest_rows, digest_text, ResultDigest};
use crate::trace::Recorder;
use crate::workloads::{BenchQuery, REOPT_THRESHOLD};
use reopt_core::{
    execute_with_policy_feedback, Database, DbError, PolicyContext, PolicyDecision, QueryOutput,
    ReoptConfig, ReoptMode, ReoptPolicy, ReoptReport, ReoptTrigger, Session,
};
use reopt_executor::{ExecEvent, Executor, MetricsNode, QueryMetrics};
use reopt_planner::{bind_select, CardinalityOverrides, PhysicalPlan, QuerySpec};
use reopt_sql::parse_sql;
use reopt_storage::Row;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A workload query with what the checks need, prepared before any timing.
pub struct Prepared {
    pub id: String,
    pub sql: String,
    /// Whether the query has an ORDER BY, which makes its row order part of the
    /// answer.
    pub ordered: bool,
}

impl Prepared {
    pub fn new(query: BenchQuery) -> Result<Self, String> {
        let statement = parse_sql(&query.sql).map_err(|e| format!("query {}: {e}", query.id))?;
        let select = statement
            .query()
            .ok_or_else(|| format!("query {} is not a SELECT", query.id))?;
        Ok(Self {
            ordered: !select.order_by.is_empty(),
            id: query.id,
            sql: query.sql,
        })
    }
}

/// A client's handle on the engine: the database itself, or a session of it
/// (whose queries pass admission control).
pub enum Engine {
    Db(Database),
    Session(Session),
}

impl Engine {
    pub fn db(&self) -> &Database {
        match self {
            Engine::Db(db) => db,
            Engine::Session(session) => session.database(),
        }
    }

    fn execute(&mut self, sql: &str) -> Result<QueryOutput, DbError> {
        match self {
            Engine::Db(db) => db.execute(sql),
            Engine::Session(session) => session.execute(sql),
        }
    }

    /// Run under a policy. A database pins feedback off so every pass sees the
    /// same cold estimator; a session keeps the server default (on).
    fn execute_policy(
        &mut self,
        sql: &str,
        policy: &mut dyn ReoptPolicy,
    ) -> Result<ReoptReport, DbError> {
        match self {
            Engine::Db(db) => execute_with_policy_feedback(db, sql, policy, false),
            Engine::Session(session) => session.execute_with_policy(sql, policy),
        }
    }
}

fn mid_query_policy() -> Box<dyn ReoptPolicy> {
    ReoptConfig {
        mode: ReoptMode::MidQuery,
        ..ReoptConfig::with_threshold(REOPT_THRESHOLD)
    }
    .policy()
}

/// How one query is to be run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Execute,
    MidQueryPolicy,
    PlanOnly,
}

/// What a query produced, kept until the clock has stopped.
pub enum Output {
    Rows { rows: Vec<Row>, spilled_bytes: u64 },
    Plan(Box<PhysicalPlan>),
}

impl Output {
    /// The digest to compare with the expectation, and the bytes spilled.
    pub fn check(&self, ordered: bool) -> (ResultDigest, u64) {
        match self {
            Output::Rows {
                rows,
                spilled_bytes,
            } => (digest_rows(rows, ordered), *spilled_bytes),
            // No rows exist to digest. A planner change may pick another join
            // order, but never other relations or another output schema.
            Output::Plan(plan) => (
                ResultDigest {
                    rows: plan.rel_set.len() as u64,
                    digest: digest_text(&plan.schema.to_string()),
                },
                0,
            ),
        }
    }
}

/// Run a query the way a user of the engine would.
pub fn run_untraced(engine: &mut Engine, call: Call, sql: &str) -> Result<Output, DbError> {
    match call {
        Call::Execute => {
            let output = engine.execute(sql)?;
            Ok(Output::Rows {
                spilled_bytes: output
                    .metrics
                    .map_or(0, |metrics| metrics.root.total_spilled().0),
                rows: output.rows,
            })
        }
        Call::MidQueryPolicy => {
            let report = engine.execute_policy(sql, mid_query_policy().as_mut())?;
            Ok(Output::Rows {
                rows: report.final_rows,
                spilled_bytes: report.spilled_bytes,
            })
        }
        Call::PlanOnly => {
            let statement = parse_sql(sql)?;
            let select = statement
                .query()
                .ok_or_else(|| DbError::Reoptimization("not a SELECT".into()))?;
            Ok(Output::Plan(Box::new(
                engine.db().plan_select(select)?.0.plan,
            )))
        }
    }
}

/// Work counted at the layer boundaries during one traced pass. Times are
/// nanoseconds as the engine reports them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub statements: u64,
    pub plans_built: u64,
    pub estimates_requested: u64,
    pub rows_produced: u64,
    pub batches: u64,
    pub peak_buffered_bytes: u64,
    pub spill_bytes_written: u64,
    pub spill_partitions: u64,
    pub queries_spilled: u64,
    pub rounds_detection: u64,
    pub rounds_breaker: u64,
    pub rounds_progress: u64,
    pub rounds_memory_pressure: u64,
    pub reused_rows: u64,
    pub corrections: u64,
    pub policy_events: u64,
    pub policy_callback_ns: u64,
    pub replan_ns: u64,
    pub materialize_ns: u64,
    pub detection_ns: u64,
    pub final_execution_ns: u64,
    pub scan_ns: u64,
    pub hash_join_ns: u64,
    pub index_nl_ns: u64,
    pub merge_join_ns: u64,
    pub agg_sort_ns: u64,
    pub other_operator_ns: u64,
    pub scan_dictionary_ns: u64,
    pub scan_native_ns: u64,
    pub scan_fallback_row_ns: u64,
    pub scan_row_ns: u64,
}

impl Counters {
    pub fn rounds(&self) -> u64 {
        self.rounds_detection
            + self.rounds_breaker
            + self.rounds_progress
            + self.rounds_memory_pressure
    }

    /// Roll an executed plan's metrics tree up by operator class.
    fn add_operators(&mut self, root: &MetricsNode) {
        root.walk(&mut |node| {
            let m = &node.metrics;
            let ns = m.elapsed.as_nanos() as u64;
            self.rows_produced += m.actual_rows;
            self.batches += m.batches;
            if let Some(encoding) = m.encoding {
                self.scan_ns += ns;
                match encoding {
                    "dictionary" => self.scan_dictionary_ns += ns,
                    "native" => self.scan_native_ns += ns,
                    "fallback-row" => self.scan_fallback_row_ns += ns,
                    _ => self.scan_row_ns += ns,
                }
            } else if m.label.starts_with("Hash Join") {
                self.hash_join_ns += ns;
            } else if m.label.starts_with("Index Nested Loop") {
                self.index_nl_ns += ns;
            } else if m.label.starts_with("Merge Join") {
                self.merge_join_ns += ns;
            } else if m.label.starts_with("Aggregate")
                || m.label.starts_with("Group Aggregate")
                || m.label.starts_with("Sort")
            {
                self.agg_sort_ns += ns;
            } else {
                self.other_operator_ns += ns;
            }
        });
    }

    fn add_spill(&mut self, bytes: u64, partitions: u64) {
        self.spill_bytes_written += bytes;
        self.spill_partitions += partitions;
        self.queries_spilled += u64::from(bytes > 0);
    }
}

/// Delegates to a policy and times every callback: the only view of
/// `core::policy` available from outside the engine.
struct TimedPolicy {
    inner: Box<dyn ReoptPolicy>,
    callback: Duration,
    events: u64,
}

impl ReoptPolicy for TimedPolicy {
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
        let start = Instant::now();
        let decision = self.inner.on_event(event, ctx);
        self.callback += start.elapsed();
        self.events += 1;
        decision
    }

    fn on_complete(
        &mut self,
        metrics: &QueryMetrics,
        spec: &QuerySpec,
        ctx: &PolicyContext,
    ) -> PolicyDecision {
        let start = Instant::now();
        let decision = self.inner.on_complete(metrics, spec, ctx);
        self.callback += start.elapsed();
        self.events += 1;
        decision
    }
}

/// Run a query stepwise with a span around each layer call, as children of the
/// query span `parent`.
pub fn run_traced(
    engine: &mut Engine,
    call: Call,
    sql: &str,
    recorder: &mut Recorder,
    parent: u32,
    counters: &mut Counters,
) -> Result<Output, DbError> {
    counters.statements += 1;
    if call == Call::MidQueryPolicy {
        return run_policy_traced(engine, sql, recorder, parent, counters);
    }
    let db = engine.db();
    let statement = recorder.child(parent, "sql", "parse", || parse_sql(sql))?;
    let select = statement
        .query()
        .ok_or_else(|| DbError::Reoptimization("not a SELECT".into()))?;
    let spec = recorder.child(parent, "planner", "bind", || {
        bind_select(select, db.storage())
    })?;
    let planned = recorder
        .child(parent, "planner", "plan", || {
            db.plan_bound_with_overrides(spec, &CardinalityOverrides::new())
        })?
        .0;
    counters.plans_built += 1;
    counters.estimates_requested += planned.estimation_log.total();
    if call == Call::PlanOnly {
        return Ok(Output::Plan(Box::new(planned.plan)));
    }
    // The executor exactly as `Database::execute_select` configures it.
    let result = recorder.child(parent, "executor", "execute", || {
        Executor::with_batch_size(db.storage(), db.batch_size())
            .with_threads(db.threads())
            .with_columnar(db.columnar())
            .with_priority(db.priority())
            .with_governor(Arc::clone(db.governor()))
            .execute(&planned.plan)
    })?;
    counters.add_operators(&result.metrics.root);
    let (spilled_bytes, spill_partitions) = result.metrics.root.total_spilled();
    counters.add_spill(spilled_bytes, spill_partitions);
    counters.final_execution_ns += result.metrics.execution_time.as_nanos() as u64;
    counters.peak_buffered_bytes = counters.peak_buffered_bytes.max(result.peak_buffered_bytes);
    Ok(Output::Rows {
        spilled_bytes,
        rows: result.rows,
    })
}

/// A policy run is one call into `core`; its inner phases come from the
/// `ReoptReport` as durations, laid out one after another from the call's start.
fn run_policy_traced(
    engine: &mut Engine,
    sql: &str,
    recorder: &mut Recorder,
    parent: u32,
    counters: &mut Counters,
) -> Result<Output, DbError> {
    let mut policy = TimedPolicy {
        inner: mid_query_policy(),
        callback: Duration::ZERO,
        events: 0,
    };
    let call = recorder.open_child(parent, "core", "execute_with_policy");
    let start_ns = recorder.now_ns();
    let report = engine.execute_policy(sql, &mut policy);
    recorder.close(call);
    let report = report?;

    let first_plan = report
        .rounds
        .first()
        .map_or(report.planning_time, |round| round.planning_time);
    let replan = report.planning_time.saturating_sub(first_plan);
    let materialize: Duration = report.rounds.iter().map(|r| r.materialization_time).sum();
    let final_execution = report.execution_time.saturating_sub(materialize);
    let mut cursor = start_ns;
    for (layer, name, duration) in [
        ("planner", "plan", first_plan),
        ("planner", "replan", replan),
        ("executor", "detection", report.detection_time),
        ("catalog", "materialize_analyze", materialize),
        ("executor", "execute", final_execution),
    ] {
        let end = cursor + duration.as_nanos() as u64;
        if duration > Duration::ZERO {
            recorder.add_child(call, layer, name, (cursor, end));
        }
        cursor = end;
    }

    counters.plans_built += 1 + report.rounds.len() as u64;
    counters.replan_ns += replan.as_nanos() as u64;
    counters.materialize_ns += materialize.as_nanos() as u64;
    counters.detection_ns += report.detection_time.as_nanos() as u64;
    counters.final_execution_ns += final_execution.as_nanos() as u64;
    counters.policy_callback_ns += policy.callback.as_nanos() as u64;
    counters.policy_events += policy.events;
    counters.peak_buffered_bytes = counters.peak_buffered_bytes.max(report.peak_buffered_bytes);
    for round in &report.rounds {
        match round.trigger {
            ReoptTrigger::DetectionRun => counters.rounds_detection += 1,
            ReoptTrigger::BreakerComplete => counters.rounds_breaker += 1,
            ReoptTrigger::Progress => counters.rounds_progress += 1,
            ReoptTrigger::MemoryPressure => counters.rounds_memory_pressure += 1,
        }
        counters.reused_rows += round.reused_rows.unwrap_or(0);
        counters.corrections += round.corrections as u64;
    }
    // The metrics tree covers the final execution only; the report's spill totals
    // cover every round.
    if let Some(metrics) = &report.final_metrics {
        counters.add_operators(&metrics.root);
    }
    counters.add_spill(report.spilled_bytes, report.spill_partitions);
    Ok(Output::Rows {
        rows: report.final_rows,
        spilled_bytes: report.spilled_bytes,
    })
}
