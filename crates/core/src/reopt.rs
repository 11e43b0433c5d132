//! The re-optimization driver (Section V of the paper, generalized).
//!
//! The paper simulates a simple mid-query re-optimization scheme:
//!
//! 1. Run the query with EXPLAIN ANALYZE and compare, for every join operator, the true
//!    output cardinality with the optimizer's estimate.
//! 2. Take the **lowest** join whose Q-error exceeds a threshold (32 in the paper's
//!    chosen configuration) and rewrite that sub-join as `CREATE TEMP TABLE … AS SELECT`.
//! 3. Replace the materialized relations in the remainder of the query with the
//!    temporary table and re-plan.
//! 4. Repeat until no join operator exceeds the threshold.
//!
//! That scheme — and every variant this crate studies — is one instance of the same
//! control loop: *observe* cardinality truth, *decide*, *re-plan*. This module is the
//! mechanism half of that loop: [`execute_with_policy`] is a single driver that plans,
//! executes (forwarding the executor's [`ExecEvent`] stream to the policy), and applies
//! whatever a [`ReoptPolicy`] decides:
//!
//! * [`PolicyDecision::Restart`] with `materialize: true` — execute the violating
//!   subset's restriction of the bound query ([`QuerySpec::restrict`]), register its
//!   rows as a temporary table with true statistics, collapse the query around it
//!   ([`reopt_planner::collapse_spec`]) and start over (Figure 6 of the paper).
//! * [`PolicyDecision::Restart`] with `materialize: false` — inject the observed
//!   cardinalities into the estimator and re-plan the same query.
//! * [`PolicyDecision::ReplanMidQuery`] — suspend the running pipeline where the
//!   violation surfaced; when the trigger is a *reusable* completed breaker (hash-build
//!   side or nested-loop inner) its rows are registered and collapsed around exactly
//!   like a materialize restart's, and only the remainder is re-planned — the
//!   already-built state is never re-executed. When the trigger is a streaming
//!   [`Progress`](crate::policy::ReoptTrigger::Progress) observation (e.g. an index-NL
//!   pipeline overshooting its estimate, where no breaker state exists), the observed
//!   bound plus every exact observation from the aborted run is injected and the
//!   remainder re-planned from scratch — catching the mis-estimate after a few cheap
//!   batches instead of a full detection run.
//!
//! Both kinds of round therefore end on one path: the driver binds the query once and
//! from then on holds one [`QuerySpec`]; a round that has rows for a subset registers
//! them (with ANALYZE — the paper's "materialize and collect statistics" step),
//! collapses the spec around the new leaf, re-indexes the carried overrides and extends
//! the map back to the original relations. A round with nothing to collapse — an empty
//! subset, one covering the whole query, or no reusable state — injects what it
//! observed instead. Rounds of either kind mix freely.
//!
//! The paper's three modes survive as [`ReoptMode`], a thin constructor over the
//! built-in policies ([`ReoptConfig::policy`]); the selective-improvement simulation
//! drives the same loop through [`SelectivePolicy`](crate::SelectivePolicy).
//!
//! The reported *planning time* is the planning time of the original query plus every
//! re-planning round; the reported *execution time* is every materialization plus the
//! final run; work that was executed and then abandoned (full detection runs for the
//! restart policies, the partial run up to a suspension for mid-query rounds) is
//! surfaced separately as detection time. Detection only ever consumes **exhausted**
//! operator counts ([`OperatorMetrics::exhausted`](reopt_executor::OperatorMetrics)):
//! operators truncated by early termination under a LIMIT report partial `actual_rows`,
//! which must never be mistaken for true cardinalities. The *rewrite* additionally
//! requires the output to be plan-order-insensitive (single-row aggregates — see
//! `reopt_safe_under_limit`), because a multi-row output truncated by a LIMIT could
//! keep a different subset under a different join order. `SELECT *` needs no
//! exception: the binder expands it into explicit FROM-order columns, which a collapse
//! keeps like any other column the output reads.
//!
//! Every run also feeds the catalog's cross-query
//! [`FeedbackCache`](reopt_catalog::FeedbackCache): observed true cardinalities — exhausted
//! operators, completed breakers, progress lower bounds — are recorded under
//! normalized *(relation set, predicate signature)* keys in the **original** query's
//! indexing, and the next query over the same tables and predicates seeds its first
//! planning pass from them ([`reopt_planner::seed_overrides_from_cache`]). Feedback
//! defaults on and is controlled per-run by [`ReoptConfig::with_feedback`] /
//! [`execute_with_policy_feedback`].

use crate::database::Database;
use crate::error::DbError;
use crate::policy::{
    Correction, PolicyContext, PolicyDecision, ReoptPolicy, ReoptTrigger, Violation,
};
use crate::qerror::DEFAULT_REOPT_THRESHOLD;
use reopt_executor::{
    BreakerState, ExecError, ExecEvent, ExecutionObserver, ObserverDecision, ObserverHandle,
    QueryMetrics,
};
use reopt_expr::Expr;
use reopt_planner::{
    bind_select, collapse_spec, feedback_key, seed_overrides_from_cache, CardinalityOverrides,
    CollapsedSpec, EstimationLog, Exactness, PlannedQuery, QuerySpec, RelSet,
};
use reopt_sql::{parse_sql, SelectExpr, SelectStatement, Statement, TableRef};
use reopt_storage::Row;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The paper's three re-optimization schemes, kept as a thin constructor over the
/// policy API ([`ReoptConfig::policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptMode {
    /// Materialize the mis-estimated sub-join into a temporary table and rewrite the
    /// remainder of the query around it (the paper's simulation;
    /// [`RestartPolicy`](crate::RestartPolicy) with `materialize: true`).
    Materialize,
    /// Only inject the observed cardinality into the estimator and re-plan the original
    /// query (no materialization cost; an optimistic lower bound;
    /// [`RestartPolicy`](crate::RestartPolicy) with `materialize: false`).
    InjectOnly,
    /// Suspend the running pipeline where the mis-estimate surfaced — a completed
    /// breaker or a streaming progress report — reuse completed breaker state as a
    /// virtual leaf table where possible, and re-plan only the remaining join order
    /// ([`MidQueryPolicy`](crate::MidQueryPolicy)).
    MidQuery,
}

/// Whether a round restarted the query or re-planned it mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptRoundKind {
    /// The round came from a restart decision: the current execution was abandoned
    /// (usually after running to completion as a detection run) and the query
    /// restarted with what was learned.
    Restart,
    /// The round suspended a running pipeline mid-flight and resumed on a re-planned
    /// remainder.
    MidQuery,
}

impl std::fmt::Display for ReoptRoundKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReoptRoundKind::Restart => write!(f, "restart"),
            ReoptRoundKind::MidQuery => write!(f, "mid-query"),
        }
    }
}

/// Cross-query cardinality feedback is on unless a run pins it off.
const DEFAULT_FEEDBACK: bool = true;

/// Re-optimization configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptConfig {
    /// Q-error threshold that triggers re-optimization (the paper uses 32).
    pub threshold: f64,
    /// Maximum number of re-optimization rounds; past the budget the current plan
    /// runs to completion.
    pub max_rounds: usize,
    /// Which built-in policy to run.
    pub mode: ReoptMode,
    /// Whether the run consults and feeds the catalog's cross-query cardinality
    /// feedback cache. On by default.
    pub feedback: bool,
}

impl Default for ReoptConfig {
    fn default() -> Self {
        Self {
            threshold: DEFAULT_REOPT_THRESHOLD,
            max_rounds: 16,
            mode: ReoptMode::Materialize,
            feedback: DEFAULT_FEEDBACK,
        }
    }
}

impl ReoptConfig {
    /// A configuration with a specific threshold (used by the Figure-7 sweep).
    ///
    /// # Examples
    ///
    /// ```
    /// use reopt_core::{ReoptConfig, ReoptMode};
    ///
    /// // The paper's configuration: materialize-and-replan at q-error 32.
    /// let config = ReoptConfig::default();
    /// assert_eq!(config.threshold, 32.0);
    /// assert_eq!(config.mode, ReoptMode::Materialize);
    ///
    /// // A mid-query configuration with a custom trigger threshold.
    /// let config = ReoptConfig {
    ///     mode: ReoptMode::MidQuery,
    ///     ..ReoptConfig::with_threshold(8.0)
    /// };
    /// assert_eq!(config.threshold, 8.0);
    /// ```
    pub fn with_threshold(threshold: f64) -> Self {
        Self {
            threshold,
            ..Self::default()
        }
    }

    /// The same configuration with cross-query cardinality feedback forced on or off.
    /// Tests that assert exact
    /// round counts across several runs on one database pin this off; benchmark
    /// second-pass runs pin it on.
    pub fn with_feedback(mut self, feedback: bool) -> Self {
        self.feedback = feedback;
        self
    }

    /// The built-in [`ReoptPolicy`] this configuration stands for. `ReoptMode` is the
    /// backward-compatible constructor; new callers can implement the trait directly
    /// and pass it to [`execute_with_policy`].
    pub fn policy(&self) -> Box<dyn ReoptPolicy> {
        match self.mode {
            ReoptMode::Materialize => Box::new(crate::policy::RestartPolicy {
                threshold: self.threshold,
                materialize: true,
                max_rounds: self.max_rounds,
            }),
            ReoptMode::InjectOnly => Box::new(crate::policy::RestartPolicy {
                threshold: self.threshold,
                materialize: false,
                max_rounds: self.max_rounds,
            }),
            ReoptMode::MidQuery => Box::new(crate::policy::MidQueryPolicy {
                threshold: self.threshold,
                max_rounds: self.max_rounds,
            }),
        }
    }
}

/// One re-optimization round.
#[derive(Debug, Clone)]
pub struct ReoptRound {
    /// Whether this round restarted the query or re-planned it mid-flight.
    pub kind: ReoptRoundKind,
    /// Which event kind triggered the round: a completed detection run, a breaker
    /// completion, or a streaming progress report.
    pub trigger: ReoptTrigger,
    /// The violating relation subset, in the indexing of the plan that was running
    /// when the round triggered.
    pub rel_set: RelSet,
    /// The aliases of the relations that were materialized (or whose cardinality was
    /// injected).
    pub materialized_aliases: Vec<String>,
    /// The temporary table the query was collapsed around (materialize restarts and
    /// state-reusing mid-query rounds; `None` when the round injected instead).
    pub temp_table: Option<String>,
    /// The optimizer's estimate for the offending subset.
    pub estimated_rows: f64,
    /// The observed cardinality (a lower bound for progress-triggered rounds).
    pub actual_rows: u64,
    /// The Q-error that triggered this round.
    pub q_error: f64,
    /// The `CREATE TEMP TABLE` statement a materialize restart executed, rendered from
    /// the violating subset's restriction.
    pub create_sql: Option<String>,
    /// Execution time of the materialization plus registering and analyzing its rows.
    /// For mid-query rounds this is only the latter: the rows were already built.
    pub materialization_time: Duration,
    /// Rows of completed breaker state carried into the re-planned remainder instead
    /// of being re-executed (mid-query rounds only).
    pub reused_rows: Option<u64>,
    /// Planning time of the run that raised this round's trigger.
    pub planning_time: Duration,
    /// Executed-then-abandoned work of this round: a full detection run for restart
    /// rounds, the partial run up to the suspension for mid-query rounds (whose
    /// dominant component — any reused breaker build — is *not* actually discarded).
    pub detection_time: Duration,
    /// Number of cardinalities injected into the estimator by this round.
    pub corrections: usize,
}

/// The outcome of running a query under a re-optimization policy.
#[derive(Debug, Clone)]
pub struct ReoptReport {
    /// The name of the policy that drove the run ([`ReoptPolicy::name`]).
    pub policy: String,
    /// The executor worker count every run (detection, materialization and final)
    /// used. `1` runs every pipeline on the coordinator's inline worker; larger
    /// counts run pipelines of at least two morsels on the worker pool, and every
    /// other pipeline on the inline worker, so a query whose pipelines are all
    /// under two morsels takes the same rounds at every count.
    pub threads: usize,
    /// The rounds that were triggered (empty when the first plan was good enough).
    pub rounds: Vec<ReoptRound>,
    /// The rows of the final query.
    pub final_rows: Vec<Row>,
    /// Planning time: original query + every re-planning round.
    pub planning_time: Duration,
    /// Cardinality estimates requested by the first plan and every re-plan, merged
    /// (Table I's counts for the whole run, not just its final plan).
    pub estimation_log: EstimationLog,
    /// Execution time: every materialization + the final run.
    pub execution_time: Duration,
    /// Execution time spent in runs that were abandoned after triggering a round (not
    /// part of the paper's reported numbers; kept for transparency).
    pub detection_time: Duration,
    /// Largest peak of pipeline-breaker buffered rows across every executed statement
    /// (detection runs, materializations and the final run).
    pub peak_buffered_rows: u64,
    /// Largest peak of pipeline-breaker buffered bytes across the same statements
    /// (the byte-weighted companion of [`ReoptReport::peak_buffered_rows`]).
    pub peak_buffered_bytes: u64,
    /// Total bytes written to spill files across every executed statement
    /// (detection runs, materializations and the final run). `0` unless a finite
    /// memory budget forced some breaker out of core.
    pub spilled_bytes: u64,
    /// Total spill partitions / runs written across the same statements.
    pub spill_partitions: u64,
    /// The final re-optimized script: a CREATE TEMP TABLE statement per materialize
    /// restart, a comment line per reused breaker state, and the final SELECT over the
    /// collapsed query.
    pub final_sql: String,
    /// The metrics tree of the final execution, when one ran to completion. Lets
    /// callers verify plan shape and state reuse (a mid-query round's virtual table
    /// appears as a scan whose `actual_rows` equals the reused row count).
    pub final_metrics: Option<QueryMetrics>,
}

impl ReoptReport {
    /// Whether any re-optimization round was triggered.
    pub fn reoptimized(&self) -> bool {
        !self.rounds.is_empty()
    }

    /// Planning + execution time (the end-to-end latency the paper's Figure 1 reports).
    pub fn total_time(&self) -> Duration {
        self.planning_time + self.execution_time
    }
}

/// Run a query under one of the paper's re-optimization modes. Equivalent to
/// [`execute_with_policy`] with the mode's built-in policy ([`ReoptConfig::policy`]).
pub fn execute_with_reoptimization(
    db: &mut Database,
    sql: &str,
    config: &ReoptConfig,
) -> Result<ReoptReport, DbError> {
    let mut policy = config.policy();
    execute_with_policy_feedback(db, sql, policy.as_mut(), config.feedback)
}

/// Run a query under an arbitrary [`ReoptPolicy`]: the unified driver behind every
/// re-optimization scheme in this crate. See the [module documentation](self) for the
/// decision semantics and [`crate::policy`] for the built-in policies. Cross-query
/// cardinality feedback is on (the [`ReoptConfig`] default); use
/// [`execute_with_policy_feedback`] to pin it per-run.
pub fn execute_with_policy(
    db: &mut Database,
    sql: &str,
    policy: &mut dyn ReoptPolicy,
) -> Result<ReoptReport, DbError> {
    execute_with_policy_feedback(db, sql, policy, DEFAULT_FEEDBACK)
}

/// [`execute_with_policy`] with cross-query cardinality feedback explicitly on or
/// off for this run (seeding the first planning pass from the catalog's
/// `FeedbackCache` and recording every observed cardinality back into it).
pub fn execute_with_policy_feedback(
    db: &mut Database,
    sql: &str,
    policy: &mut dyn ReoptPolicy,
    feedback: bool,
) -> Result<ReoptReport, DbError> {
    let statement = parse_sql(sql)?;
    let select = statement
        .query()
        .ok_or_else(|| DbError::Reoptimization("re-optimization needs a SELECT".into()))?
        .clone();
    // Bind once: the bound original is the coordinate system of every feedback-cache
    // key this run reads or writes, and every round rewrites a copy of it.
    let spec = bind_select(&select, db.storage())?;
    let mut driver = Driver::new(select, spec, feedback);
    let result = driver.run(db, policy);
    // Never leak the driver's temp/virtual tables, even on error — but drop only the
    // tables *this* run created: a user's own session temp tables must survive a
    // policy that never materializes anything.
    db.drop_tables(&driver.created_tables);
    result
}

/// Whether re-planning this query can change *which* rows a LIMIT keeps. Detection
/// under a LIMIT is sound (the `exhausted` flags guarantee only true cardinalities
/// are consumed), but the *rewrite* is only result-preserving when the output is
/// plan-order-insensitive: a multi-row output (plain projection, or GROUP BY groups
/// emitted in first-seen order) truncated by a LIMIT would keep a different subset
/// under a different join order. A single-row aggregate — the common benchmark shape
/// — can never be truncated, so those queries stay re-optimizable under LIMIT.
fn reopt_safe_under_limit(select: &SelectStatement) -> bool {
    select.limit.is_none()
        || (select.group_by.is_empty()
            && select
                .items
                .iter()
                .any(|item| matches!(item.expr, SelectExpr::Aggregate { .. })))
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Forwards executor events to the policy and captures the first non-`Continue`
/// decision, which suspends the pipeline immediately.
struct PolicyObserver<'a> {
    policy: &'a mut dyn ReoptPolicy,
    ctx: PolicyContext,
    decision: Option<PolicyDecision>,
}

impl ExecutionObserver for PolicyObserver<'_> {
    fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
        if self.decision.is_some() {
            return ObserverDecision::Continue;
        }
        match self.policy.on_event(event, &self.ctx) {
            PolicyDecision::Continue => ObserverDecision::Continue,
            decision => {
                self.decision = Some(decision);
                ObserverDecision::Suspend
            }
        }
    }
}

/// How one pipeline run ended.
enum RunOutcome {
    /// The pipeline ran to completion.
    Completed(Vec<Row>, QueryMetrics),
    /// The policy suspended the pipeline; the completed breaker states were extracted
    /// and the partial run's metrics tree retained — every count in it is either a
    /// true cardinality (exhausted subtree) or a lower bound worth injecting.
    Suspended(Vec<BreakerState>, QueryMetrics),
}

/// One pipeline run plus the decision the policy took during it, if any.
struct RunResult {
    outcome: RunOutcome,
    decision: Option<PolicyDecision>,
    peak_buffered_rows: u64,
    peak_buffered_bytes: u64,
}

/// Every cardinality observation in a (possibly partial) metrics tree, shallowest
/// node first: exact counts for operators whose whole subtree ran to completion, and
/// produced-rows lower bounds where an unfinished operator already overshot its
/// estimate (truth >= produced > estimate, so the bound is strictly closer to the
/// truth). Only joins and leaf scans are harvested — their output is the filtered
/// cardinality of their relation set, which is exactly what a
/// [`CardinalityOverrides`] entry means; aggregates/sorts/projections share a rel_set
/// with different row semantics. Each observation is tagged: an exhausted subtree's
/// count is [`Exactness::Exact`]; an unfinished operator that merely overshot its
/// estimate has only produced a lower bound ([`Exactness::AtLeast`]).
fn harvest_observations(metrics: &QueryMetrics) -> Vec<(RelSet, f64, Exactness)> {
    let mut out = Vec::new();
    metrics.root.walk(&mut |node| {
        let m = &node.metrics;
        if m.rel_set.is_empty() || !(m.is_join || node.children.is_empty()) {
            return;
        }
        if m.exhausted {
            out.push((m.rel_set, m.actual_rows as f64, Exactness::Exact));
        } else if (m.actual_rows as f64) > m.estimated_rows {
            out.push((m.rel_set, m.actual_rows as f64, Exactness::AtLeast));
        }
    });
    out
}

/// The exactness of a violation's observed count: a completed detection run or
/// breaker completion saw the true cardinality; a streaming progress report or a
/// memory-pressure denial (rows buffered so far) has only a lower bound.
fn violation_exactness(trigger: ReoptTrigger) -> Exactness {
    match trigger {
        ReoptTrigger::Progress | ReoptTrigger::MemoryPressure => Exactness::AtLeast,
        _ => Exactness::Exact,
    }
}

/// The mutable state of one [`execute_with_policy`] call.
struct Driver {
    /// The statement as written: its LIMIT shape gates re-planning, and its text is
    /// the final script when no round collapsed the query.
    original: SelectStatement,
    /// The original query in bound form — the indexing every feedback-cache key uses.
    original_spec: QuerySpec,
    /// The current query: the original, collapsed around every table a round
    /// materialized or reused.
    spec: QuerySpec,
    /// Whether this run consults and feeds the catalog's cross-query feedback cache.
    feedback: bool,
    /// Per-relation mapping from the *current* query's indexing back to the original
    /// query's: identity at first, composed across every collapse (the new leaf
    /// expands to the subset it stands for). `None` marks a relation with no
    /// original-space image; observations touching it are never recorded — a
    /// driver-created leaf must not outlive its table in the cache.
    to_original: Vec<Option<RelSet>>,
    /// Corrections and carried observations, keyed in the current query's indexing.
    injected: CardinalityOverrides,
    rounds: Vec<ReoptRound>,
    planning_time: Duration,
    estimation_log: EstimationLog,
    materialization_time: Duration,
    detection_time: Duration,
    peak_buffered_rows: u64,
    peak_buffered_bytes: u64,
    spilled_bytes: u64,
    spill_partitions: u64,
    /// `CREATE TEMP TABLE` script lines (materialize restarts).
    created_sql: Vec<String>,
    /// Comment lines describing reused breaker state (mid-query rounds).
    annotations: Vec<String>,
    /// Every temp/virtual table this run registered, dropped on the way out.
    created_tables: Vec<String>,
    temp_counter: usize,
    virt_counter: usize,
}

impl Driver {
    fn new(original: SelectStatement, spec: QuerySpec, feedback: bool) -> Self {
        Self {
            original,
            to_original: (0..spec.relation_count())
                .map(|rel| Some(RelSet::single(rel)))
                .collect(),
            original_spec: spec.clone(),
            spec,
            feedback,
            injected: CardinalityOverrides::new(),
            rounds: Vec::new(),
            planning_time: Duration::ZERO,
            estimation_log: EstimationLog::default(),
            materialization_time: Duration::ZERO,
            detection_time: Duration::ZERO,
            peak_buffered_rows: 0,
            peak_buffered_bytes: 0,
            spilled_bytes: 0,
            spill_partitions: 0,
            created_sql: Vec::new(),
            annotations: Vec::new(),
            created_tables: Vec::new(),
            temp_counter: 0,
            virt_counter: 0,
        }
    }

    fn run(
        &mut self,
        db: &mut Database,
        policy: &mut dyn ReoptPolicy,
    ) -> Result<ReoptReport, DbError> {
        // LIMIT safety gate shared by every policy (see `reopt_safe_under_limit`);
        // unsafe queries execute plain, with no observer and no rounds.
        let limit_safe = reopt_safe_under_limit(&self.original);
        if self.feedback && limit_safe {
            // Seed the first planning pass from the cache. Queries whose LIMIT makes
            // re-planning order-sensitive plan unseeded: a seeded first plan could
            // keep a different row subset than the same query planned cold.
            let seeds = seed_overrides_from_cache(&self.original_spec, db.catalog().feedback());
            self.injected.merge(&seeds);
        }

        loop {
            let (planned, plan_time) =
                db.plan_bound_with_overrides(self.spec.clone(), &self.injected)?;
            self.planning_time += plan_time;
            self.estimation_log.merge(&planned.estimation_log);

            // Past the round budget the policy is simply not consulted: the final
            // plan runs to completion instead of failing the query (a mid-query
            // round leaves no way to "re-run the original" anyway).
            let budget_open = limit_safe && self.rounds.len() < policy.max_rounds();
            let ctx = PolicyContext {
                all_relations: planned.spec.all_relations(),
                rounds: self.rounds.len(),
            };
            let observe = budget_open && policy.wants_events();
            let run = run_pipeline(db, &planned, policy, ctx.clone(), observe)?;
            self.peak_buffered_rows = self.peak_buffered_rows.max(run.peak_buffered_rows);
            self.peak_buffered_bytes = self.peak_buffered_bytes.max(run.peak_buffered_bytes);

            // Harvest into the cross-query cache before anything remaps the indexing:
            // a run's exhausted counts are truths worth keeping whatever the policy
            // decides.
            let (decision, metrics, states, rows) = match run.outcome {
                RunOutcome::Completed(rows, metrics) => {
                    self.record_feedback(db, &harvest_observations(&metrics));
                    let decision = if budget_open {
                        policy.on_complete(&metrics, &planned.spec, &ctx)
                    } else {
                        PolicyDecision::Continue
                    };
                    (decision, metrics, Vec::new(), Some(rows))
                }
                RunOutcome::Suspended(states, metrics) => {
                    let mut observed = harvest_observations(&metrics);
                    if let Some(
                        PolicyDecision::Restart { violation, .. }
                        | PolicyDecision::ReplanMidQuery { violation },
                    ) = &run.decision
                    {
                        // The violation can exceed the metrics-tree count for the
                        // same subset (it includes the in-flight batch the
                        // suspension discarded); the cache's merge rules keep
                        // whichever observation says more.
                        if !violation.rel_set.is_empty() {
                            observed.push((
                                violation.rel_set,
                                violation.actual_rows as f64,
                                violation_exactness(violation.trigger),
                            ));
                        }
                    }
                    self.record_feedback(db, &observed);
                    let decision = run.decision.ok_or_else(|| {
                        DbError::Reoptimization(
                            "pipeline suspended without a policy decision".into(),
                        )
                    })?;
                    (decision, metrics, states, None)
                }
            };
            self.add_spilled(&metrics);

            // Continue accepts a completed run; a round abandons the run it decided
            // on (a full detection run, or the partial run up to a suspension), which
            // is detection time.
            match (decision, rows) {
                (PolicyDecision::Continue, Some(rows)) => {
                    return Ok(self.finalize(policy.name(), db.threads(), rows, metrics));
                }
                (PolicyDecision::Continue, None) => {
                    return Err(DbError::Reoptimization(
                        "pipeline suspended on a Continue decision".into(),
                    ));
                }
                (PolicyDecision::ReplanMidQuery { .. }, Some(_)) => {
                    return Err(DbError::Reoptimization(
                        "ReplanMidQuery is only valid from on_event — a completed \
                         run has nothing left to suspend"
                            .into(),
                    ));
                }
                (
                    PolicyDecision::Restart {
                        materialize,
                        violation,
                        corrections,
                    },
                    _,
                ) => {
                    self.detection_time += metrics.execution_time;
                    self.apply_restart(
                        db,
                        plan_time,
                        metrics.execution_time,
                        materialize,
                        violation,
                        &corrections,
                    )?;
                }
                (PolicyDecision::ReplanMidQuery { violation }, None) => {
                    self.detection_time += metrics.execution_time;
                    self.apply_mid_query(db, plan_time, violation, &metrics, states)?;
                }
            }
        }
    }

    /// Add a run's spill totals to the report's.
    fn add_spilled(&mut self, metrics: &QueryMetrics) {
        let (bytes, partitions) = metrics.root.total_spilled();
        self.spilled_bytes += bytes;
        self.spill_partitions += partitions;
    }

    /// A round over the violating subset of the current query, with nothing
    /// materialized or injected yet.
    fn round(
        &self,
        kind: ReoptRoundKind,
        violation: &Violation,
        plan_time: Duration,
        detection: Duration,
    ) -> ReoptRound {
        ReoptRound {
            kind,
            trigger: violation.trigger,
            rel_set: violation.rel_set,
            materialized_aliases: aliases_of(&self.spec, violation.rel_set),
            temp_table: None,
            estimated_rows: violation.estimated_rows,
            actual_rows: violation.actual_rows,
            q_error: violation.q_error(),
            create_sql: None,
            materialization_time: Duration::ZERO,
            reused_rows: None,
            planning_time: plan_time,
            detection_time: detection,
            corrections: 0,
        }
    }

    /// Apply a [`PolicyDecision::Restart`]: materialize the violating subset's
    /// restriction as a temporary table and collapse the query around it, or inject
    /// the policy's corrections — the violation's own count when a materialize restart
    /// has nothing to collapse — then loop.
    fn apply_restart(
        &mut self,
        db: &mut Database,
        plan_time: Duration,
        detection: Duration,
        materialize: bool,
        violation: Violation,
        corrections: &[Correction],
    ) -> Result<(), DbError> {
        let mut round = self.round(ReoptRoundKind::Restart, &violation, plan_time, detection);
        let subset = violation.rel_set;
        let name = format!("reopt_temp{}", self.temp_counter + 1);
        let collapsed = if materialize {
            let schema = self.spec.column_uses().schema_of(&self.spec, subset);
            collapse_spec(&self.spec, subset, &name, &name, schema)
        } else {
            None
        };
        match collapsed {
            Some(collapsed) => {
                // The paper's rewrite (Figure 6): execute the subset on its own, with
                // the session overrides only — the carried ones are keyed in the
                // whole query's indexing.
                let restricted = self.spec.restrict(subset);
                let create = Statement::CreateTableAs {
                    name: name.clone(),
                    temporary: true,
                    query: spec_to_statement(&restricted),
                }
                .to_sql();
                let output = db.execute_bound(restricted)?;
                self.peak_buffered_rows = self.peak_buffered_rows.max(output.peak_buffered_rows);
                self.peak_buffered_bytes =
                    self.peak_buffered_bytes.max(output.peak_buffered_bytes);
                if let Some(metrics) = &output.metrics {
                    self.add_spilled(metrics);
                }
                self.temp_counter += 1;
                let register = self.collapse(db, collapsed, output.rows, &[])?;
                round.materialization_time = output.execution_time + register;
                self.materialization_time += round.materialization_time;
                self.created_sql.push(format!("{create};"));
                round.create_sql = Some(create);
                round.temp_table = Some(name);
            }
            None => {
                // An inject-only restart injects the policy's corrections; a
                // materialize restart with nothing to collapse injects the
                // violation's own count.
                let observed = [Correction {
                    rel_set: subset,
                    rows: violation.actual_rows as f64,
                }];
                let injected = match materialize {
                    false => corrections,
                    true if subset.is_empty() => &[],
                    true => &observed,
                };
                let exactness = violation_exactness(violation.trigger);
                for correction in injected {
                    self.injected
                        .record(correction.rel_set, correction.rows, exactness);
                }
                round.corrections = injected.len();
            }
        }
        self.rounds.push(round);
        Ok(())
    }

    /// Register `rows` as the collapsed query's new leaf table (ANALYZE included) and
    /// make the collapse current: the carried overrides, then `observations` (in the
    /// pre-collapse indexing), are re-indexed into it, and the map back to the
    /// original relations learns that the leaf stands for the collapsed subset.
    /// Returns the registration time.
    fn collapse(
        &mut self,
        db: &mut Database,
        collapsed: CollapsedSpec,
        rows: Vec<Row>,
        observations: &[(RelSet, f64, Exactness)],
    ) -> Result<Duration, DbError> {
        let leaf = &collapsed.spec.relations[collapsed.virtual_index];
        let start = Instant::now();
        db.register_materialized_table(&leaf.table, leaf.schema.clone(), rows)?;
        let elapsed = start.elapsed();
        self.created_tables.push(leaf.table.clone());

        let mut overrides = CardinalityOverrides::new();
        let carried = self.injected.iter_entries();
        for (set, rows, exactness) in carried.chain(observations.iter().copied()) {
            if let Some(mapped) = collapsed.remap(set) {
                overrides.record(mapped, rows, exactness);
            }
        }
        self.injected = overrides;

        let mut to_original: Vec<Option<RelSet>> = vec![None; collapsed.virtual_index + 1];
        for (rel, new_index) in collapsed.mapping.iter().enumerate() {
            if let Some(new_index) = new_index {
                to_original[*new_index] = self.to_original[rel];
            }
        }
        to_original[collapsed.virtual_index] = self.original_image(collapsed.subset);
        self.to_original = to_original;
        self.spec = collapsed.spec;
        Ok(elapsed)
    }

    /// The original-space image of a relation set in the *current* query's indexing,
    /// or `None` when any member has no image (see [`Driver::to_original`]).
    fn original_image(&self, set: RelSet) -> Option<RelSet> {
        let mut out = RelSet::EMPTY;
        for rel in set.iter() {
            out = out.union((*self.to_original.get(rel)?)?);
        }
        (!out.is_empty()).then_some(out)
    }

    /// Record exactness-tagged observations (in the current indexing) into the
    /// catalog's cross-query feedback cache, translated back to the original query's
    /// indexing and keyed by its normalized predicate signature. Observations that
    /// touch a relation with no original-space image are discarded — a key must
    /// never reference a driver-created temp or virtual leaf.
    fn record_feedback(&self, db: &Database, observations: &[(RelSet, f64, Exactness)]) {
        if !self.feedback {
            return;
        }
        for (set, rows, exactness) in observations {
            let Some(original) = self.original_image(*set) else {
                continue;
            };
            let Some(key) = feedback_key(&self.original_spec, original) else {
                continue;
            };
            db.catalog()
                .feedback()
                .record(key, *rows, *exactness == Exactness::Exact);
        }
    }

    /// Apply a [`PolicyDecision::ReplanMidQuery`]: reuse completed breaker state as a
    /// virtual leaf where possible, re-inject every observation the aborted run
    /// produced (exact counts and overshooting lower bounds alike, harvested from its
    /// metrics tree), and re-plan the remainder.
    fn apply_mid_query(
        &mut self,
        db: &mut Database,
        plan_time: Duration,
        violation: Violation,
        partial_metrics: &QueryMetrics,
        states: Vec<BreakerState>,
    ) -> Result<(), DbError> {
        let partial_time = partial_metrics.execution_time;
        let mut observations = harvest_observations(partial_metrics);
        let mut round = self.round(ReoptRoundKind::MidQuery, &violation, plan_time, partial_time);

        // Exact reusable state to collapse around: the violating subset itself when
        // the trigger was a reusable breaker completion; otherwise — a streaming
        // progress overshoot, or a policy that triggered on a non-reusable breaker
        // (spilled builds and aggregate/sort inputs hold no exact materialization) —
        // the largest completed reusable breaker elsewhere in the suspended plan,
        // which may already have been partially consumed by its parent (the buffered
        // rows themselves are complete, so the collapse stays exact; the re-planned
        // remainder recomputes any partially-done probing). When nothing is
        // reusable the round falls back to pure injection below.
        let exact_idx = (violation.trigger == ReoptTrigger::BreakerComplete)
            .then(|| {
                states
                    .iter()
                    .position(|state| state.rel_set == violation.rel_set)
            })
            .flatten();
        let reuse = match exact_idx {
            Some(idx) => {
                let mut states = states;
                Some(states.swap_remove(idx))
            }
            None => best_reusable_state(states, violation.rel_set),
        };
        let name = format!("reopt_mq{}", self.virt_counter + 1);
        let collapsed = reuse.and_then(|state| {
            collapse_spec(&self.spec, state.rel_set, &name, &name, state.schema.clone())
                .map(|collapsed| (state, collapsed))
        });
        // The violating observation goes in last, and never downgrades: its count
        // includes the in-flight batch the suspension discarded, so it can exceed the
        // metrics-tree count harvested for the same subset (`record` keeps whichever
        // bound says more).
        let violation_observation = (
            violation.rel_set,
            violation.actual_rows as f64,
            violation_exactness(violation.trigger),
        );

        match collapsed {
            Some((state, collapsed)) => {
                let reused_rows = state.rows.len() as u64;
                self.virt_counter += 1;
                self.annotations.push(format!(
                    "-- {name}: reused in-flight {:?} state over [{}] ({reused_rows} rows)",
                    state.kind,
                    aliases_of(&self.spec, state.rel_set).join(", "),
                ));
                // When the collapse happened around a different subset than the
                // violation (progress triggers, or a non-reusable breaker trigger
                // that fell back to another state), the violating observation itself
                // still needs injecting. The collapsed subset's own cardinality is
                // carried by the registered table's statistics. Registration +
                // ANALYZE is the whole materialization cost — the rows were already
                // built by the suspended pipeline.
                if state.rel_set != violation.rel_set {
                    observations.push(violation_observation);
                }
                let register = self.collapse(db, collapsed, state.rows, &observations)?;
                round.materialization_time = register;
                self.materialization_time += register;
                round.corrections = self.injected.len();
                round.temp_table = Some(name);
                round.reused_rows = Some(reused_rows);
            }
            None => {
                // Nothing reusable (e.g. a pure index-NL pipeline buffers no breaker
                // state at all): inject the observed bound plus everything else the
                // aborted run learned and re-plan from scratch — the point of the
                // cheap trigger is that very little work is lost, and in a pipelined
                // plan the operators above the violation have usually produced most
                // of their output too, so one suspension corrects many estimates.
                for &(set, rows, exactness) in &observations {
                    self.injected.record(set, rows, exactness);
                }
                let mut corrections = observations.len();
                if !violation.rel_set.is_empty() {
                    if self.injected.get(violation.rel_set).is_none() {
                        corrections += 1;
                    }
                    let (set, rows, exactness) = violation_observation;
                    self.injected.record(set, rows, exactness);
                }
                round.corrections = corrections;
            }
        }
        self.rounds.push(round);
        Ok(())
    }

    /// Build the report once a run completed and the policy accepted it.
    fn finalize(
        &mut self,
        policy_name: &str,
        threads: usize,
        rows: Vec<Row>,
        metrics: QueryMetrics,
    ) -> ReoptReport {
        let mut parts: Vec<String> = std::mem::take(&mut self.created_sql);
        parts.append(&mut self.annotations);
        let statement_sql = if self.created_tables.is_empty() {
            self.original.to_sql()
        } else {
            // A collapsed query exists only as a bound spec; render it back to SQL
            // for the report (its leaves appear under their generated table names —
            // the text documents the executed shape, it is not meant to be re-run).
            spec_to_statement(&self.spec).to_sql()
        };
        parts.push(format!("{statement_sql};"));
        ReoptReport {
            policy: policy_name.to_string(),
            threads,
            rounds: std::mem::take(&mut self.rounds),
            final_rows: rows,
            planning_time: self.planning_time,
            estimation_log: std::mem::take(&mut self.estimation_log),
            execution_time: self.materialization_time + metrics.execution_time,
            detection_time: self.detection_time,
            peak_buffered_rows: self.peak_buffered_rows,
            peak_buffered_bytes: self.peak_buffered_bytes,
            spilled_bytes: self.spilled_bytes,
            spill_partitions: self.spill_partitions,
            final_sql: parts.join("\n"),
            final_metrics: Some(metrics),
        }
    }
}

/// Execute one plan, forwarding events to the policy when `observe` is set, until it
/// completes or the policy suspends it.
fn run_pipeline(
    db: &Database,
    planned: &PlannedQuery,
    policy: &mut dyn ReoptPolicy,
    ctx: PolicyContext,
    observe: bool,
) -> Result<RunResult, DbError> {
    let executor = db.executor();
    let adapter = observe.then(|| {
        Rc::new(RefCell::new(PolicyObserver {
            policy,
            ctx,
            decision: None,
        }))
    });

    let (outcome, peak_buffered_rows, peak_buffered_bytes) = {
        let handle = adapter
            .as_ref()
            .map(|a| Rc::clone(a) as ObserverHandle<'_>);
        let mut pipeline = executor.open_observed(&planned.plan, handle)?;
        let mut rows: Vec<Row> = Vec::new();
        let outcome = loop {
            match pipeline.next_batch() {
                Ok(Some(batch)) => rows.extend(batch),
                Ok(None) => break RunOutcome::Completed(rows, pipeline.metrics()),
                Err(ExecError::Suspended) => {
                    break RunOutcome::Suspended(
                        pipeline.take_breaker_states(),
                        pipeline.metrics(),
                    )
                }
                Err(error) => return Err(error.into()),
            }
        };
        (
            outcome,
            pipeline.peak_buffered_rows(),
            pipeline.peak_buffered_bytes(),
        )
    };

    let decision = match adapter {
        Some(adapter) => {
            // The pipeline (and with it every operator's handle clone) is dropped, so
            // the adapter is uniquely owned again.
            Rc::try_unwrap(adapter)
                .unwrap_or_else(|_| unreachable!("pipeline dropped all observer handles"))
                .into_inner()
                .decision
        }
        None => None,
    };
    Ok(RunResult {
        outcome,
        decision,
        peak_buffered_rows,
        peak_buffered_bytes,
    })
}

/// The aliases of a relation subset, in index order.
fn aliases_of(spec: &QuerySpec, subset: RelSet) -> Vec<String> {
    subset
        .iter()
        .map(|rel| spec.relations[rel].alias.clone())
        .collect()
}

/// The largest completed reusable breaker state that can seed a virtual leaf without
/// making the violating subset inexpressible after the collapse: it must be either
/// disjoint from or contained in the violating subset (a partial overlap would leave
/// the fresh bound un-injectable, and the same violation would immediately
/// re-trigger).
fn best_reusable_state(states: Vec<BreakerState>, violation_set: RelSet) -> Option<BreakerState> {
    states
        .into_iter()
        .filter(|state| {
            violation_set.is_disjoint(state.rel_set)
                || state.rel_set.is_subset_of(violation_set)
        })
        .max_by_key(|state| state.rel_set.len())
}

/// Render a bound (possibly collapsed or restricted) query back into a SELECT
/// statement for the report's `final_sql` and `create_sql`. Leaf tables a round
/// registered render under their generated names and keep the original aliases'
/// column references; the text documents the executed shape, it is not meant to be
/// re-runnable.
pub(crate) fn spec_to_statement(spec: &QuerySpec) -> SelectStatement {
    let mut predicates: Vec<Expr> = Vec::new();
    for rel_predicates in &spec.local_predicates {
        predicates.extend(rel_predicates.iter().cloned());
    }
    for edge in &spec.join_edges {
        predicates.push(edge.to_expr());
    }
    for (_, predicate) in &spec.complex_predicates {
        predicates.push(predicate.clone());
    }
    SelectStatement {
        items: spec.output.clone(),
        from: spec
            .relations
            .iter()
            .map(|relation| {
                if relation.alias.eq_ignore_ascii_case(&relation.table) {
                    TableRef::new(relation.table.clone())
                } else {
                    TableRef::aliased(relation.table.clone(), relation.alias.clone())
                }
            })
            .collect(),
        where_clause: reopt_expr::conjoin(&predicates),
        group_by: spec.group_by.clone(),
        order_by: spec.order_by.clone(),
        limit: spec.limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::test_database;
    use crate::qerror::q_error;
    use reopt_planner::bind_select;
    use reopt_storage::Value;

    /// The skewed query: keyword 'kw0' is attached to every movie, so the default
    /// estimator badly underestimates the mk ⋈ k join.
    const SKEWED_SQL: &str = "SELECT min(t.title) AS movie_title, count(*) AS c
        FROM title AS t, movie_keyword AS mk, keyword AS k
        WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
          AND k.keyword = 'kw0' AND t.production_year > 1985";

    #[test]
    fn rewrite_splits_query_like_figure_6() {
        let db = test_database();
        let statement = parse_sql(SKEWED_SQL).unwrap();
        let spec = bind_select(statement.query().unwrap(), db.storage()).unwrap();
        let mk = spec.relation_by_alias("mk").unwrap();
        let k = spec.relation_by_alias("k").unwrap();
        let subset = RelSet::from_indexes([mk, k]);

        // The temp query selects the join column needed by the remainder and applies
        // the keyword filter plus the mk-k join condition.
        let temp_sql = spec_to_statement(&spec.restrict(subset)).to_sql();
        assert_eq!(
            temp_sql,
            "SELECT mk.movie_id\nFROM movie_keyword AS mk,\n     keyword AS k\n\
             WHERE (k.keyword = 'kw0' AND mk.keyword_id = k.id)"
        );

        // The remainder references the temp table in place of the materialized
        // relations and keeps its own filter and the crossing edge.
        let schema = spec.column_uses().schema_of(&spec, subset);
        let collapsed = collapse_spec(&spec, subset, "temp1", "temp1", schema).unwrap();
        let rewritten_sql = spec_to_statement(&collapsed.spec).to_sql();
        assert!(rewritten_sql.contains("FROM title AS t,\n     temp1\n"), "{rewritten_sql}");
        assert!(rewritten_sql.contains("t.id = mk.movie_id"));
        assert!(rewritten_sql.contains("t.production_year > 1985"));
        assert!(!rewritten_sql.contains("movie_keyword"));
        assert!(!rewritten_sql.contains("keyword AS k"));

        // The temp query renders to SQL that parses.
        assert!(parse_sql(&format!("{temp_sql};")).is_ok());
    }

    #[test]
    fn materialize_mode_produces_correct_results() {
        let mut db = test_database();
        // Ground truth from a plain execution.
        let expected = db.execute(SKEWED_SQL).unwrap();

        let config = ReoptConfig {
            threshold: 4.0,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(report.reoptimized(), "expected at least one round");
        assert_eq!(report.final_rows, expected.rows);
        assert_eq!(report.policy, "materialize-restart");
        assert!(report.final_sql.contains("CREATE TEMP TABLE reopt_temp1"));
        assert!(report.rounds[0].q_error > 4.0);
        assert!(report.rounds[0].create_sql.is_some());
        assert_eq!(report.rounds[0].trigger, ReoptTrigger::DetectionRun);
        assert_eq!(report.rounds[0].corrections, 0, "the temp table carries the truth");
        assert!(!report.rounds[0].materialized_aliases.is_empty());
        // Temporary tables are cleaned up.
        assert!(!db.storage().contains_table("reopt_temp1"));
        assert!(report.total_time() >= report.execution_time);
    }

    #[test]
    fn high_threshold_never_triggers() {
        let mut db = test_database();
        let config = ReoptConfig::with_threshold(1e9);
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(!report.reoptimized());
        assert!(report.final_sql.ends_with(';'));
        assert_eq!(report.detection_time, Duration::ZERO);
        let expected = db.execute(SKEWED_SQL).unwrap();
        assert_eq!(report.final_rows, expected.rows);
    }

    #[test]
    fn inject_only_mode_matches_results_without_temp_tables() {
        let mut db = test_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::InjectOnly,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert_eq!(report.final_rows, expected.rows);
        assert!(report.reoptimized());
        assert_eq!(report.policy, "inject-only");
        assert!(report.rounds.iter().all(|r| r.temp_table.is_none()));
        assert!(report.rounds.iter().all(|r| r.corrections == 1));
        assert_eq!(db.storage().table_count(), 3, "no temp tables left behind");
    }

    #[test]
    fn materializing_the_whole_query_keeps_count_semantics() {
        // A two-relation query whose only join IS the whole query: the offending
        // subset covers every relation and the select list is bare count(*), so
        // the temp table must materialize one row per join row, not the count.
        let mut db = test_database();
        let sql = "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.keyword = 'kw0'";
        let expected = db.execute(sql).unwrap();
        let config = ReoptConfig::with_threshold(4.0);
        let report = execute_with_reoptimization(&mut db, sql, &config).unwrap();
        assert!(report.reoptimized(), "skewed kw0 join must trigger");
        assert_eq!(report.final_rows, expected.rows);
        // Nothing is left to plan around a temp table of the whole query: the round
        // injects the observed count instead.
        assert_eq!(report.rounds.len(), 1, "{}", report.render());
        assert!(report.rounds[0].temp_table.is_none());
        assert_eq!(report.rounds[0].corrections, 1);
        assert!(!db.storage().contains_table("reopt_temp1"));
    }

    /// Multiset equality: a re-planned join may emit rows in another order.
    fn sorted(rows: &[Row]) -> Vec<String> {
        let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
        rendered.sort();
        rendered
    }

    const WILDCARD_SQL: &str = "SELECT * FROM title AS t, movie_keyword AS mk, keyword AS k
        WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
          AND k.keyword = 'kw0' AND t.production_year > 1985";

    #[test]
    fn wildcard_selects_materialize_and_replan() {
        // The binder expands `*` into FROM-order columns, so a materialize restart
        // collapses a wildcard query like any other: the temp table holds the
        // subset's columns under their own qualifiers, and the output keeps every
        // column in FROM order.
        let mut db = test_database();
        let expected = db.execute(WILDCARD_SQL).unwrap();
        let report = execute_with_reoptimization(
            &mut db,
            WILDCARD_SQL,
            &ReoptConfig::with_threshold(4.0).with_feedback(false),
        )
        .unwrap();
        assert!(
            report.rounds.iter().any(|r| r.temp_table.is_some()),
            "the mis-estimated wildcard join must materialize: {}",
            report.render()
        );
        assert!(report.final_sql.contains("CREATE TEMP TABLE reopt_temp1 AS\nSELECT"), "{}", report.final_sql);
        assert_eq!(report.final_rows[0].len(), expected.rows[0].len());
        assert_eq!(
            sorted(&report.final_rows),
            sorted(&expected.rows),
            "re-planning changed the wildcard result set"
        );
        assert!(report.detection_time > Duration::ZERO);
    }

    #[test]
    fn truncated_joins_under_limit_never_trigger() {
        // The LIMIT stops the executor after 5 of the 300 join rows, so the join's
        // actual_rows is a truncated count: the metrics must flag it as not exhausted
        // and detection must ignore it under every policy.
        let mut db = test_database();
        let sql = "SELECT mk.movie_id AS m FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.keyword = 'kw0' LIMIT 5";
        let expected = db.execute(sql).unwrap();
        let metrics = expected.metrics.as_ref().unwrap();
        let truncated_joins: Vec<_> = metrics
            .root
            .joins_bottom_up()
            .into_iter()
            .filter(|join| !join.exhausted)
            .collect();
        assert!(
            !truncated_joins.is_empty(),
            "early termination must leave the join un-exhausted"
        );
        for mode in [ReoptMode::Materialize, ReoptMode::InjectOnly, ReoptMode::MidQuery] {
            let config = ReoptConfig {
                threshold: 1.1,
                mode,
                ..Default::default()
            };
            let report = execute_with_reoptimization(&mut db, sql, &config).unwrap();
            assert!(
                !report.reoptimized(),
                "truncated counts must not trigger rewrites ({mode:?})"
            );
            assert_eq!(report.final_rows, expected.rows, "{mode:?} changed the result");
        }
    }

    #[test]
    fn order_sensitive_limits_are_never_rewritten() {
        // The joins below a GROUP BY fully drain (they are exhausted and violate the
        // threshold), but LIMIT over a multi-group output keeps whichever groups the
        // plan emits first — re-planning could keep a *different* subset. Every policy
        // must leave such queries alone.
        let mut db = test_database();
        let sql = "SELECT mk.movie_id AS m, count(*) AS c
                   FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.keyword = 'kw0'
                   GROUP BY mk.movie_id LIMIT 5";
        let expected = db.execute(sql).unwrap();
        let metrics = expected.metrics.as_ref().unwrap();
        assert!(
            metrics.root.joins_bottom_up().iter().all(|j| j.exhausted),
            "the aggregate drains the joins even though the limit truncates groups"
        );
        for mode in [ReoptMode::Materialize, ReoptMode::InjectOnly, ReoptMode::MidQuery] {
            let config = ReoptConfig {
                threshold: 1.1,
                mode,
                ..Default::default()
            };
            let report = execute_with_reoptimization(&mut db, sql, &config).unwrap();
            assert!(
                !report.reoptimized(),
                "order-sensitive LIMIT output must not be re-optimized ({mode:?})"
            );
            assert_eq!(report.final_rows, expected.rows, "{mode:?} changed the result");
        }
    }

    #[test]
    fn exhausted_joins_under_limit_are_detected() {
        // An aggregate query always produces one row, so LIMIT 5 never terminates
        // early: every operator drains, the joins are exhausted, and re-optimization
        // under LIMIT works again (the ROADMAP's "Re-optimization under LIMIT" item).
        let mut db = test_database();
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk, keyword AS k
                   WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
                     AND k.keyword = 'kw0' AND t.production_year > 1985 LIMIT 5";
        let expected = db.execute(sql).unwrap();
        let metrics = expected.metrics.as_ref().unwrap();
        assert!(
            metrics.root.joins_bottom_up().iter().all(|j| j.exhausted),
            "an aggregate below the limit drains every join"
        );
        for mode in [ReoptMode::Materialize, ReoptMode::InjectOnly] {
            // Feedback off: this test runs both modes against the same database and
            // asserts each one re-discovers the violation from scratch.
            let config = ReoptConfig {
                threshold: 4.0,
                mode,
                feedback: false,
                ..Default::default()
            };
            let report = execute_with_reoptimization(&mut db, sql, &config).unwrap();
            assert!(
                report.reoptimized(),
                "exhausted counts under LIMIT must be detectable ({mode:?})"
            );
            assert_eq!(report.final_rows, expected.rows, "{mode:?} changed the result");
        }
    }

    /// A database whose plans only use hash joins (and sequential scans), so the
    /// skewed subtree deterministically lands on a hash-join build side — the state
    /// the mid-query policy reuses.
    fn hash_join_only_database() -> Database {
        crate::database::tests::test_database_with_config(reopt_planner::OptimizerConfig {
            enable_index_scans: false,
            enable_index_nl_joins: false,
            ..Default::default()
        })
    }

    /// A database whose plans lean exclusively on index nested-loop joins — streaming
    /// pipelines with no reusable breaker state at all, the shape the ROADMAP said
    /// MidQuery could never fire on before progress events existed.
    fn index_nl_only_database() -> Database {
        crate::database::tests::test_database_with_config(reopt_planner::OptimizerConfig {
            enable_hash_joins: false,
            ..Default::default()
        })
    }

    #[test]
    fn mid_query_mode_matches_plain_results_and_reuses_build_state() {
        let mut db = hash_join_only_database();
        let expected = db.execute(SKEWED_SQL).unwrap();

        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert_eq!(report.final_rows, expected.rows);
        assert!(report.reoptimized(), "the skewed build side must trigger");
        assert_eq!(report.policy, "mid-query");

        // Every round is a tagged mid-query round that reused breaker state.
        for round in &report.rounds {
            assert_eq!(round.kind, ReoptRoundKind::MidQuery);
            assert_eq!(round.trigger, ReoptTrigger::BreakerComplete);
            assert!(round.create_sql.is_none(), "no CREATE TEMP TABLE is issued");
            assert!(round.reused_rows.unwrap() > 0, "build state must be reused");
            assert!(round.q_error > 4.0);
        }
        let round = &report.rounds[0];
        let virt_name = round.temp_table.clone().unwrap();
        assert!(virt_name.starts_with("reopt_mq"));

        // Reuse is visible in the final metrics: the virtual table appears as a scan
        // producing exactly the reused rows — the subtree behind it never re-ran.
        let metrics = report.final_metrics.as_ref().expect("final run has metrics");
        let mut reused_scan_rows = None;
        metrics.root.walk(&mut |node| {
            if node.metrics.label.contains(&virt_name) {
                reused_scan_rows = Some(node.metrics.actual_rows);
            }
        });
        assert_eq!(
            reused_scan_rows,
            Some(round.reused_rows.unwrap()),
            "the re-planned query must scan the reused state: {}",
            metrics.root.render()
        );

        // The report documents the reuse and the collapsed final query.
        assert!(report.final_sql.contains(&virt_name), "{}", report.final_sql);
        assert!(report.final_sql.contains("-- reopt_mq1: reused in-flight"));
        // Virtual tables are temporary and cleaned up.
        assert!(!db.storage().contains_table(&virt_name));
        // The discarded work (detection) is accounted separately.
        assert!(report.total_time() >= report.execution_time);
    }

    #[test]
    fn index_nl_pipelines_replan_on_progress_overshoot() {
        // The ROADMAP's "mid-query triggers for index-NL pipelines" item: plans whose
        // joins are all index nested loops buffer no breaker state, so the old
        // breaker-only monitor never fired. Streaming progress events now surface the
        // overshoot (the skewed kw0 join produces 25x its estimate) and the policy
        // re-plans mid-flight by injecting the observed bound.
        let mut db = index_nl_only_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let metrics = expected.metrics.as_ref().unwrap();
        let worst = metrics
            .root
            .joins_bottom_up()
            .iter()
            .map(|j| j.q_error())
            .fold(1.0f64, f64::max);
        assert!(worst > 4.0, "the skewed join must be badly mis-estimated ({worst})");

        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(
            report.reoptimized(),
            "streaming progress must trigger where breakers cannot:\n{}",
            report.final_sql
        );
        assert_eq!(report.final_rows, expected.rows, "re-planning changed the result");
        let round = &report.rounds[0];
        assert_eq!(round.kind, ReoptRoundKind::MidQuery);
        assert_eq!(round.trigger, ReoptTrigger::Progress);
        assert!(round.corrections >= 1, "the observed bound must be injected");
        assert!(round.q_error > 4.0);
        // An index-NL pipeline has nothing to reuse; the round documents that.
        assert_eq!(round.reused_rows, None);
        assert!(round.temp_table.is_none());
        // The rendered report tags the trigger.
        assert!(report.render().contains("[mid-query via progress]"), "{}", report.render());
    }

    #[test]
    fn mid_query_triggers_on_default_plans() {
        // With the default optimizer configuration the synthetic-data plans lean on
        // index-NL joins — exactly the shape that previously made MidQuery a silent
        // no-op. Progress triggers close that gap.
        let mut db = test_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(report.reoptimized(), "default plans must now trigger mid-query rounds");
        assert_eq!(report.final_rows, expected.rows);
    }

    #[test]
    fn mid_query_report_renders_round_kinds() {
        let mut db = hash_join_only_database();
        // Feedback off: the second (restart) run must mis-estimate the same join
        // again rather than be seeded by what the first run learned.
        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            feedback: false,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        let rendered = report.render();
        assert!(rendered.contains("[mid-query via breaker]"), "{rendered}");
        assert!(rendered.contains("reused"), "{rendered}");
        assert!(rendered.contains("policy mid-query"), "{rendered}");
        assert!(!rendered.contains("[restart]"), "{rendered}");

        let restart = execute_with_reoptimization(
            &mut db,
            SKEWED_SQL,
            &ReoptConfig::with_threshold(4.0).with_feedback(false),
        )
        .unwrap();
        let rendered = restart.render();
        assert!(rendered.contains("[restart]"), "{rendered}");
        assert!(rendered.contains("materialized as"), "{rendered}");
    }

    #[test]
    fn mid_query_mode_works_under_limit() {
        // Mid-query detection observes breaker completions, which are full drains
        // even under a LIMIT — the mode needs no LIMIT carve-out at all.
        let mut db = hash_join_only_database();
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk, keyword AS k
                   WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
                     AND k.keyword = 'kw0' LIMIT 3";
        let expected = db.execute(sql).unwrap();
        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, sql, &config).unwrap();
        assert!(report.reoptimized(), "breaker completions are LIMIT-safe");
        assert_eq!(report.final_rows, expected.rows);
    }

    #[test]
    fn mid_query_high_threshold_never_triggers() {
        let mut db = test_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let config = ReoptConfig {
            threshold: 1e9,
            mode: ReoptMode::MidQuery,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(!report.reoptimized());
        assert_eq!(report.final_rows, expected.rows);
        assert_eq!(report.detection_time, Duration::ZERO);
        assert!(report.final_sql.ends_with(';'));
    }

    #[test]
    fn mid_query_wildcards_collapse_and_match_plain() {
        // A wildcard query observes events like any other: the skewed build side is
        // reused as a virtual leaf holding all of its columns.
        let mut db = hash_join_only_database();
        let expected = db.execute(WILDCARD_SQL).unwrap();
        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            feedback: false,
            ..Default::default()
        };
        let report = execute_with_reoptimization(&mut db, WILDCARD_SQL, &config).unwrap();
        assert!(
            report.rounds.iter().any(|r| r.reused_rows.unwrap_or(0) > 0),
            "the wildcard query must re-plan around reused state: {}",
            report.render()
        );
        assert_eq!(sorted(&report.final_rows), sorted(&expected.rows));
    }

    #[test]
    fn non_select_statements_are_rejected() {
        let mut db = test_database();
        // A parse failure surfaces as a parse error, not a panic.
        let err = execute_with_reoptimization(&mut db, "NOT SQL", &ReoptConfig::default());
        assert!(err.is_err());
    }

    /// The worst join Q-error observed when executing `sql` with the default
    /// estimator — the quantity the policies compare against their threshold.
    fn worst_join_q_error(db: &mut Database, sql: &str) -> f64 {
        let output = db.execute(sql).unwrap();
        output
            .metrics
            .as_ref()
            .unwrap()
            .root
            .joins_bottom_up()
            .iter()
            .map(|j| j.q_error())
            .fold(1.0f64, f64::max)
    }

    #[test]
    fn threshold_just_below_worst_q_error_triggers_replanning() {
        let mut db = test_database();
        let worst = worst_join_q_error(&mut db, SKEWED_SQL);
        assert!(worst > 1.0, "the skewed query must show estimation error");

        let config = ReoptConfig::with_threshold(worst * 0.99);
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(
            report.reoptimized(),
            "threshold {} below worst q-error {worst} must trigger",
            worst * 0.99
        );
        assert!(report.rounds[0].q_error > config.threshold);
    }

    #[test]
    fn threshold_just_above_worst_q_error_skips_replanning() {
        let mut db = test_database();
        let worst = worst_join_q_error(&mut db, SKEWED_SQL);

        let config = ReoptConfig::with_threshold(worst * 1.01);
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(
            !report.reoptimized(),
            "threshold {} above worst q-error {worst} must not trigger",
            worst * 1.01
        );
        // A skipped policy charges no detection time and leaves no rounds.
        assert!(report.rounds.is_empty());
        assert_eq!(report.detection_time, Duration::ZERO);
    }

    #[test]
    fn reoptimized_count_matches_plain_execution_on_unskewed_query() {
        let mut db = test_database();
        let sql = "SELECT count(*) AS c FROM title AS t, movie_keyword AS mk
                   WHERE t.id = mk.movie_id AND t.production_year > 2010";
        let expected = db.execute(sql).unwrap();
        let report =
            execute_with_reoptimization(&mut db, sql, &ReoptConfig::with_threshold(2.0)).unwrap();
        assert_eq!(report.final_rows[0].value(0), expected.rows[0].value(0));
        assert_eq!(
            report.final_rows[0].value(0).as_int().unwrap(),
            expected.rows[0].value(0).as_int().unwrap()
        );
        assert_ne!(expected.rows[0].value(0), &Value::Int(0));
    }

    // -----------------------------------------------------------------------
    // The policy API itself
    // -----------------------------------------------------------------------

    /// A policy that re-plans mid-query on ANY breaker violation, including
    /// non-reusable ones (spilled hash builds, aggregate/sort inputs) — the driver
    /// must fall back to injection instead of failing when no exact state is
    /// extractable. Records the `reusable` flag of every event it triggers on.
    struct ReplanOnAnyBreaker {
        threshold: f64,
        triggered: Vec<bool>,
    }

    impl ReoptPolicy for ReplanOnAnyBreaker {
        fn name(&self) -> &str {
            "replan-on-any-breaker"
        }

        fn wants_events(&self) -> bool {
            true
        }

        fn on_event(&mut self, event: &ExecEvent, ctx: &PolicyContext) -> PolicyDecision {
            let ExecEvent::BreakerComplete(breaker) = event else {
                return PolicyDecision::Continue;
            };
            if breaker.rel_set.is_empty()
                || !breaker.rel_set.is_proper_subset_of(ctx.all_relations)
                || q_error(breaker.estimated_rows, breaker.actual_rows as f64) <= self.threshold
            {
                return PolicyDecision::Continue;
            }
            self.triggered.push(breaker.reusable);
            PolicyDecision::ReplanMidQuery {
                violation: Violation {
                    rel_set: breaker.rel_set,
                    estimated_rows: breaker.estimated_rows,
                    actual_rows: breaker.actual_rows,
                    trigger: ReoptTrigger::BreakerComplete,
                },
            }
        }

        fn on_complete(
            &mut self,
            _: &QueryMetrics,
            _: &QuerySpec,
            _: &PolicyContext,
        ) -> PolicyDecision {
            PolicyDecision::Continue
        }
    }

    #[test]
    fn non_reusable_breaker_triggers_fall_back_to_injection() {
        // Hash-join-only plans under a 64-byte budget: the skewed mk ⋈ k build spills,
        // and a spilled build is no reusable materialization. Triggering on it must
        // degrade gracefully to a round that injects the observation, not error. One
        // thread: the rows are compared in order, and a spilled join's output order
        // depends on the thread count.
        let mut db = hash_join_only_database();
        db.set_threads(Some(1));
        let expected = db.execute(SKEWED_SQL).unwrap();
        db.set_mem_budget(Some(64));
        let mut policy = ReplanOnAnyBreaker {
            threshold: 4.0,
            triggered: Vec::new(),
        };
        let report = execute_with_policy(&mut db, SKEWED_SQL, &mut policy).unwrap();
        assert_eq!(report.final_rows, expected.rows);
        assert!(report.reoptimized(), "the skewed spilled build must trigger");
        assert_eq!(policy.triggered.first(), Some(&false), "a spilled build triggers first");
        let round = &report.rounds[0];
        assert_eq!(round.kind, ReoptRoundKind::MidQuery);
        assert_eq!(round.trigger, ReoptTrigger::BreakerComplete);
        assert!(round.corrections >= 1, "the observation must be injected");
    }

    #[test]
    fn custom_policies_can_restart_from_events() {
        let mut db = hash_join_only_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let mut policy = Scripted(vec![Step::RestartOnBreaker]);
        let report = execute_with_policy(&mut db, SKEWED_SQL, &mut policy).unwrap();
        assert_eq!(report.policy, "scripted");
        assert_eq!(report.final_rows, expected.rows);
        assert_eq!(report.rounds.len(), 1);
        let round = &report.rounds[0];
        // An event-triggered restart: restart semantics, in-flight trigger.
        assert_eq!(round.kind, ReoptRoundKind::Restart);
        assert_eq!(round.trigger, ReoptTrigger::BreakerComplete);
        assert_eq!(round.corrections, 1);
        assert!(round.temp_table.is_none());
        assert!(report.render().contains("[restart via breaker]"), "{}", report.render());
    }

    #[test]
    fn user_temp_tables_survive_every_policy() {
        // The driver drops exactly the temp/virtual tables it created — a session
        // temp table the user made beforehand must survive both non-materializing
        // and materializing policies.
        let mut db = test_database();
        db.execute(
            "CREATE TEMP TABLE user_temp AS SELECT k.id AS kid FROM keyword AS k",
        )
        .unwrap();
        for mode in [ReoptMode::InjectOnly, ReoptMode::MidQuery, ReoptMode::Materialize] {
            let config = ReoptConfig {
                threshold: 4.0,
                mode,
                ..Default::default()
            };
            execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
            assert!(
                db.storage().contains_table("user_temp"),
                "{mode:?} dropped a user-created temp table"
            );
        }
        assert!(!db.storage().contains_table("reopt_temp1"), "driver tables are dropped");
        db.drop_temporary_tables();
        assert!(!db.storage().contains_table("user_temp"));
    }

    /// One round kind per round, in order, each on the first subset it can take.
    #[derive(Clone, Copy)]
    enum Step {
        /// Re-plan mid-query around the first reusable proper-subset breaker.
        Collapse,
        /// Restart on that breaker, injecting its count: an event-triggered
        /// restart, which abandons the partial run instead of paying a full
        /// detection run.
        RestartOnBreaker,
        /// Restart, injecting the lowest exhausted proper join of the detection run.
        Inject,
        /// Restart, materializing that join.
        Materialize,
    }

    /// Follows a script of round kinds, so tests can mix them in any order.
    struct Scripted(Vec<Step>);

    impl ReoptPolicy for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }

        fn wants_events(&self) -> bool {
            matches!(self.0.first(), Some(Step::Collapse | Step::RestartOnBreaker))
        }

        fn on_event(&mut self, event: &ExecEvent, ctx: &PolicyContext) -> PolicyDecision {
            let ExecEvent::BreakerComplete(breaker) = event else {
                return PolicyDecision::Continue;
            };
            if !breaker.reusable || !breaker.rel_set.is_proper_subset_of(ctx.all_relations) {
                return PolicyDecision::Continue;
            }
            let violation = Violation {
                rel_set: breaker.rel_set,
                estimated_rows: breaker.estimated_rows,
                actual_rows: breaker.actual_rows,
                trigger: ReoptTrigger::BreakerComplete,
            };
            match self.0.remove(0) {
                Step::Collapse => PolicyDecision::ReplanMidQuery { violation },
                _ => PolicyDecision::Restart {
                    materialize: false,
                    violation,
                    corrections: vec![Correction {
                        rel_set: breaker.rel_set,
                        rows: breaker.actual_rows as f64,
                    }],
                },
            }
        }

        fn on_complete(
            &mut self,
            metrics: &QueryMetrics,
            _: &QuerySpec,
            ctx: &PolicyContext,
        ) -> PolicyDecision {
            let materialize = match self.0.first() {
                Some(Step::Inject) => false,
                Some(Step::Materialize) => true,
                _ => return PolicyDecision::Continue,
            };
            let Some(join) = metrics.root.joins_bottom_up().into_iter().find(|join| {
                join.exhausted && join.rel_set.is_proper_subset_of(ctx.all_relations)
            }) else {
                return PolicyDecision::Continue;
            };
            self.0.remove(0);
            let correction = Correction {
                rel_set: join.rel_set,
                rows: join.actual_rows as f64,
            };
            PolicyDecision::Restart {
                materialize,
                violation: Violation {
                    rel_set: join.rel_set,
                    estimated_rows: join.estimated_rows,
                    actual_rows: join.actual_rows,
                    trigger: ReoptTrigger::DetectionRun,
                },
                corrections: if materialize { Vec::new() } else { vec![correction] },
            }
        }
    }

    #[test]
    fn inject_then_materialize_rounds_compose() {
        // The materialize round's collapse re-indexes the override the inject round
        // left behind.
        let mut db = test_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let mut policy = Scripted(vec![Step::Inject, Step::Materialize]);
        let report = execute_with_policy(&mut db, SKEWED_SQL, &mut policy).unwrap();
        assert_eq!(report.final_rows, expected.rows);
        assert_eq!(report.rounds.len(), 2, "{}", report.render());
        assert!(report.rounds[0].temp_table.is_none());
        assert!(report.rounds[1].temp_table.is_some());
        assert!(!db.storage().contains_table("reopt_temp1"));
    }

    #[test]
    fn materialize_restart_after_a_mid_query_collapse_matches_plain() {
        // Four relations, so the collapsed query still has a proper sub-join to
        // materialize; hash joins only, so the first run buffers a reusable build.
        let mut db = hash_join_only_database();
        let sql = "SELECT min(t.title) AS movie_title, count(*) AS c
            FROM title AS t, movie_keyword AS mk, keyword AS k, movie_keyword AS mk2
            WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mk2.movie_id
              AND k.keyword = 'kw0'";
        let expected = db.execute(sql).unwrap();
        let mut policy = Scripted(vec![Step::Collapse, Step::Materialize]);
        let report = execute_with_policy_feedback(&mut db, sql, &mut policy, false).unwrap();
        assert_eq!(report.final_rows, expected.rows);
        let kinds: Vec<_> = report
            .rounds
            .iter()
            .map(|round| (round.kind, round.temp_table.as_deref()))
            .collect();
        assert_eq!(
            kinds,
            [
                (ReoptRoundKind::MidQuery, Some("reopt_mq1")),
                (ReoptRoundKind::Restart, Some("reopt_temp1")),
            ],
            "{}",
            report.render()
        );
        assert!(report.final_sql.contains("CREATE TEMP TABLE reopt_temp1 AS\nSELECT"));
        assert!(!db.storage().contains_table("reopt_mq1"));
        assert!(!db.storage().contains_table("reopt_temp1"));
    }

    #[test]
    fn zero_round_budget_runs_plain() {
        struct EagerButBudgetless;
        impl ReoptPolicy for EagerButBudgetless {
            fn name(&self) -> &str {
                "budgetless"
            }
            fn max_rounds(&self) -> usize {
                0
            }
            fn on_complete(
                &mut self,
                _: &QueryMetrics,
                _: &QuerySpec,
                _: &PolicyContext,
            ) -> PolicyDecision {
                panic!("a zero-budget policy must never be consulted");
            }
        }
        let mut db = test_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let report = execute_with_policy(&mut db, SKEWED_SQL, &mut EagerButBudgetless).unwrap();
        assert!(!report.reoptimized());
        assert_eq!(report.final_rows, expected.rows);
        assert_eq!(report.policy, "budgetless");
    }

    #[test]
    fn replan_mid_query_from_on_complete_is_rejected() {
        struct BadPolicy;
        impl ReoptPolicy for BadPolicy {
            fn name(&self) -> &str {
                "bad"
            }
            fn on_complete(
                &mut self,
                _: &QueryMetrics,
                _: &QuerySpec,
                _: &PolicyContext,
            ) -> PolicyDecision {
                PolicyDecision::ReplanMidQuery {
                    violation: Violation {
                        rel_set: RelSet::single(0),
                        estimated_rows: 1.0,
                        actual_rows: 100,
                        trigger: ReoptTrigger::DetectionRun,
                    },
                }
            }
        }
        let mut db = test_database();
        let err = execute_with_policy(&mut db, SKEWED_SQL, &mut BadPolicy);
        assert!(err.is_err(), "ReplanMidQuery from on_complete must be rejected");
    }

    #[test]
    fn feedback_seeds_the_next_run_of_the_same_template() {
        // The tentpole scenario: the first run of the skewed query discovers the
        // mis-estimate the hard way (re-optimization rounds); the harvested truths
        // land in the catalog's feedback cache and the second run of the same
        // template plans right from the start.
        let mut db = test_database();
        let expected = db.execute(SKEWED_SQL).unwrap();
        let config = ReoptConfig::with_threshold(4.0).with_feedback(true);

        let first = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(first.reoptimized(), "the first run must pay for the discovery");
        assert_eq!(first.final_rows, expected.rows);
        assert!(
            !db.catalog().feedback().is_empty(),
            "the run must leave observations behind"
        );

        let second = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert_eq!(second.final_rows, expected.rows, "seeding changed the result");
        assert!(
            second.rounds.len() < first.rounds.len(),
            "the seeded run must need fewer rounds ({} vs {})",
            second.rounds.len(),
            first.rounds.len()
        );
    }

    #[test]
    fn feedback_seeds_across_modes_and_query_variants() {
        // Observations are keyed by (relation set, predicate signature), not by the
        // whole query: a different SELECT list and alias spelling over the same
        // joins and predicates still hits the cached entries, and a different
        // policy consumes what another policy learned.
        let mut db = test_database();
        let config = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::InjectOnly,
            feedback: true,
            ..Default::default()
        };
        let first = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(first.reoptimized());

        // Same join graph and predicates, different aliases, projection and mode.
        let variant = "SELECT count(*) AS n
            FROM title AS film, movie_keyword AS link, keyword AS tag
            WHERE film.id = link.movie_id AND link.keyword_id = tag.id
              AND tag.keyword = 'kw0' AND film.production_year > 1985";
        let expected = db.execute(variant).unwrap();
        let report = execute_with_reoptimization(
            &mut db,
            variant,
            &ReoptConfig::with_threshold(4.0).with_feedback(true),
        )
        .unwrap();
        assert_eq!(report.final_rows, expected.rows);
        assert!(
            !report.reoptimized(),
            "the variant must be seeded by the first run's observations:\n{}",
            report.render()
        );
    }

    #[test]
    fn feedback_keys_never_reference_driver_created_tables() {
        // The stale-override hazard: materialize restarts re-index observations
        // against `reopt_temp*` tables and mid-query rounds against `reopt_mq*`
        // virtual leaves. Every recorded key must be mapped back to the original
        // relations (or discarded) — a key naming a driver-created table would
        // anchor a later, unrelated query on garbage.
        let mut db = test_database();
        let config = ReoptConfig::with_threshold(4.0).with_feedback(true);
        let report = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(
            report.rounds.iter().any(|r| r.temp_table.is_some()),
            "the scenario must actually rewrite through a temp table"
        );

        let mut db2 = hash_join_only_database();
        let mid = ReoptConfig {
            threshold: 4.0,
            mode: ReoptMode::MidQuery,
            feedback: true,
            ..Default::default()
        };
        let mid_report = execute_with_reoptimization(&mut db2, SKEWED_SQL, &mid).unwrap();
        assert!(
            mid_report.rounds.iter().any(|r| {
                r.temp_table.as_deref().is_some_and(|t| t.starts_with("reopt_mq"))
            }),
            "the scenario must collapse through a virtual leaf"
        );

        for db in [&db, &db2] {
            assert!(!db.catalog().feedback().is_empty());
            for (key, _, _) in db.catalog().feedback().iter() {
                for relation in &key.relations {
                    assert!(
                        !relation.table.starts_with("reopt_"),
                        "feedback key references a driver-created table: {key:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ingest_analyze_and_temp_drop_invalidate_feedback() {
        let mut db = test_database();
        let config = ReoptConfig::with_threshold(4.0).with_feedback(true);
        let references = |db: &Database, table: &str| {
            db.catalog()
                .feedback()
                .iter()
                .any(|(key, _, _)| key.references_table(table))
        };
        let populate = |db: &mut Database| {
            execute_with_reoptimization(db, SKEWED_SQL, &config).unwrap();
            assert!(references(db, "keyword") && references(db, "movie_keyword"));
        };

        // Ingest into a referenced table drops the stale entries immediately;
        // entries over unrelated subsets survive.
        populate(&mut db);
        db.ingest_rows(
            "keyword",
            vec![Row::from_values(vec![Value::Int(50), Value::from("kw50")])],
        )
        .unwrap();
        assert!(
            !references(&db, "keyword"),
            "ingest must evict entries referencing the table"
        );
        assert!(
            !db.catalog().feedback().is_empty(),
            "subsets not touching the ingested table must survive"
        );

        // ANALYZE refreshes statistics and likewise forgets what was learned
        // against the old ones.
        populate(&mut db);
        db.analyze("movie_keyword").unwrap();
        assert!(
            !references(&db, "movie_keyword"),
            "ANALYZE must evict entries referencing the table"
        );

        // Dropping a temporary table takes its feedback entries with it.
        populate(&mut db);
        db.execute(
            "CREATE TEMP TABLE kw0_links AS
               SELECT mk.movie_id AS movie_id FROM movie_keyword AS mk, keyword AS k
               WHERE mk.keyword_id = k.id AND k.keyword = 'kw0'",
        )
        .unwrap();
        execute_with_reoptimization(
            &mut db,
            "SELECT count(*) AS c FROM title AS t, kw0_links AS l WHERE t.id = l.movie_id",
            &config,
        )
        .unwrap();
        let references_temp = |db: &Database| {
            db.catalog()
                .feedback()
                .iter()
                .any(|(key, _, _)| key.references_table("kw0_links"))
        };
        assert!(references_temp(&db), "the temp-table query must record feedback");
        db.drop_temporary_tables();
        assert!(
            !references_temp(&db),
            "dropping the temp table must evict its feedback entries"
        );
        assert!(
            !db.catalog().feedback().is_empty(),
            "entries over base tables survive the temp drop"
        );
    }

    #[test]
    fn feedback_disabled_records_and_seeds_nothing() {
        let mut db = test_database();
        let config = ReoptConfig::with_threshold(4.0).with_feedback(false);
        let first = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert!(first.reoptimized());
        assert!(db.catalog().feedback().is_empty(), "feedback off must not record");
        let second = execute_with_reoptimization(&mut db, SKEWED_SQL, &config).unwrap();
        assert_eq!(
            second.rounds.len(),
            first.rounds.len(),
            "without feedback every run rediscovers the same violations"
        );
    }

    #[test]
    fn wildcard_join_corrects_through_inject_rounds() {
        // A badly mis-estimated `SELECT *` join must get corrected — the inject-only
        // rounds re-plan it with the observed counts injected — instead of silently
        // running the bad plan to completion.
        let mut db = test_database();
        let expected = db.execute(WILDCARD_SQL).unwrap();
        let config = ReoptConfig {
            mode: ReoptMode::InjectOnly,
            ..ReoptConfig::with_threshold(4.0).with_feedback(false)
        };
        let report = execute_with_reoptimization(&mut db, WILDCARD_SQL, &config).unwrap();
        assert!(report.reoptimized(), "the skewed wildcard join must trigger");
        assert!(report.rounds.iter().all(|r| r.temp_table.is_none()));
        assert_eq!(
            sorted(&report.final_rows),
            sorted(&expected.rows),
            "correction changed the wildcard result set"
        );
        // The final round's injected counts leave the re-planned query accurate:
        // its worst q-error must beat the original violation.
        let final_metrics = report.final_metrics.as_ref().unwrap();
        let worst_final = final_metrics
            .root
            .joins_bottom_up()
            .iter()
            .map(|j| j.q_error())
            .fold(1.0f64, f64::max);
        assert!(
            worst_final < report.rounds[0].q_error,
            "the corrected plan must estimate better than the violation \
             ({worst_final} vs {})",
            report.rounds[0].q_error
        );
    }
}
