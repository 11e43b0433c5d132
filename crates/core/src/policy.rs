//! The pluggable re-optimization control plane.
//!
//! Perron et al.'s central claim is that re-optimization is a *control loop*: observe
//! true cardinalities, decide, re-plan. This module is the decision half of that loop.
//! A [`ReoptPolicy`] watches a query run — through the executor's [`ExecEvent`] stream
//! while the pipeline is in flight, and through the full metrics tree once a run
//! completes — and answers one question at each observation point: keep going, restart
//! the query with what we learned, or re-plan it mid-flight. The mechanism that applies
//! those decisions (temp-table rewrites, cardinality injection, pipeline suspension and
//! breaker-state reuse) lives in the single driver
//! [`execute_with_policy`](crate::reopt::execute_with_policy).
//!
//! The paper's three schemes plus the LEO-style selective-improvement simulation are
//! built-in policies:
//!
//! * [`RestartPolicy`] with `materialize: true` — the paper's materialize-and-replan
//!   scheme ([`ReoptMode::Materialize`](crate::ReoptMode)).
//! * [`RestartPolicy`] with `materialize: false` — the inject-only ablation
//!   ([`ReoptMode::InjectOnly`](crate::ReoptMode)).
//! * [`MidQueryPolicy`] — true mid-flight re-planning
//!   ([`ReoptMode::MidQuery`](crate::ReoptMode)), now triggered by *two* event kinds:
//!   reusable pipeline-breaker completions (exact subtree truth, state reused as a
//!   virtual leaf) and streaming [`ProgressEvent`](reopt_executor::ProgressEvent)s
//!   (early lower bounds — an index-NL pipeline that overshoots its estimate re-plans
//!   long before any breaker completes).
//! * [`SelectivePolicy`] — the selective-improvement simulation of Section IV-E
//!   (correct the lowest mis-estimated operator and its exhausted subtree, re-plan,
//!   repeat), driving [`selective_improvement`](crate::selective_improvement).
//!
//! # Implementing a policy
//!
//! A minimal policy only needs a name and a completion handler. The one below accepts
//! every first plan as final (so it never re-optimizes), which is also the cheapest
//! way to run a query through the policy driver:
//!
//! ```
//! use reopt_core::{Database, PolicyContext, PolicyDecision, ReoptPolicy};
//! use reopt_executor::QueryMetrics;
//! use reopt_planner::QuerySpec;
//! use reopt_storage::{Column, DataType, Row, Schema, Table, Value};
//!
//! struct NeverReoptimize;
//!
//! impl ReoptPolicy for NeverReoptimize {
//!     fn name(&self) -> &str {
//!         "never"
//!     }
//!
//!     fn on_complete(
//!         &mut self,
//!         _metrics: &QueryMetrics,
//!         _spec: &QuerySpec,
//!         _ctx: &PolicyContext,
//!     ) -> PolicyDecision {
//!         PolicyDecision::Continue
//!     }
//! }
//!
//! let mut db = Database::new();
//! let mut t = Table::new("t", Schema::new(vec![Column::not_null("id", DataType::Int)]));
//! for i in 0..10i64 {
//!     t.push_row(Row::from_values(vec![i.into()])).unwrap();
//! }
//! db.create_table(t).unwrap();
//! db.analyze_all().unwrap();
//!
//! let report = db
//!     .execute_with_policy("SELECT count(*) AS c FROM t AS t", &mut NeverReoptimize)
//!     .unwrap();
//! assert!(!report.reoptimized());
//! assert_eq!(report.policy, "never");
//! assert_eq!(report.final_rows[0].value(0), &Value::Int(10));
//! ```

use crate::qerror::q_error;
use reopt_executor::{ExecEvent, QueryMetrics};
use reopt_planner::{QuerySpec, RelSet};

/// Which observation raised a decision. Recorded on every
/// [`ReoptRound`](crate::ReoptRound) so reports distinguish rounds that paid a full
/// detection restart from rounds triggered by cheap in-flight signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptTrigger {
    /// A completed detection run: the query executed to the end and its EXPLAIN
    /// ANALYZE tree was compared against the estimates (the restart schemes).
    DetectionRun,
    /// A pipeline-breaker completion observed mid-flight (exact subtree cardinality).
    BreakerComplete,
    /// A streaming-operator progress report (produced-vs-estimated overshoot, or an
    /// index-NL join whose outer side exhausted).
    Progress,
    /// A breaker sink exceeded its memory grant and was about to spill; the round
    /// re-planned the remainder instead of paying disk I/O. The observed count is
    /// the rows buffered at the denial — a lower bound on the subtree's truth.
    MemoryPressure,
}

impl std::fmt::Display for ReoptTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReoptTrigger::DetectionRun => write!(f, "detection"),
            ReoptTrigger::BreakerComplete => write!(f, "breaker"),
            ReoptTrigger::Progress => write!(f, "progress"),
            ReoptTrigger::MemoryPressure => write!(f, "memory-pressure"),
        }
    }
}

/// The observation backing a non-`Continue` decision: which relation subset missed its
/// estimate, by how much, and through which kind of signal.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The mis-estimated relation subset, in the indexing of the *currently running*
    /// plan's spec.
    pub rel_set: RelSet,
    /// The optimizer's estimate for that subset.
    pub estimated_rows: f64,
    /// The observed rows: exact for [`ReoptTrigger::DetectionRun`] and
    /// [`ReoptTrigger::BreakerComplete`]; a lower bound for a non-exhausted
    /// [`ReoptTrigger::Progress`] observation.
    pub actual_rows: u64,
    /// The signal that surfaced the violation.
    pub trigger: ReoptTrigger,
}

impl Violation {
    /// The q-error of the violation (for progress lower bounds this is itself a lower
    /// bound on the true q-error).
    pub fn q_error(&self) -> f64 {
        q_error(self.estimated_rows, self.actual_rows as f64)
    }
}

/// A cardinality the policy wants pinned before the next planning round.
#[derive(Debug, Clone, PartialEq)]
pub struct Correction {
    /// The relation subset, in the indexing of the currently running plan's spec.
    pub rel_set: RelSet,
    /// The observed cardinality to inject.
    pub rows: f64,
}

/// What the driver should do next.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyDecision {
    /// Keep executing the current plan (and accept a completed run as final).
    Continue,
    /// Abandon the current execution and restart with what was learned. With
    /// `materialize: true` the violating subset is split off into a
    /// `CREATE TEMP TABLE … AS SELECT` and the query rewritten around it (the paper's
    /// scheme; `corrections` are ignored because the temp table's ANALYZE statistics
    /// carry the truth). With `materialize: false` every correction is injected into
    /// the estimator and the same query is re-planned (the inject-only ablation and
    /// the selective-improvement simulation).
    Restart {
        /// Materialize the violating subset instead of only injecting cardinalities.
        materialize: bool,
        /// The observation that triggered the restart.
        violation: Violation,
        /// Cardinalities to pin before re-planning (inject restarts only).
        corrections: Vec<Correction>,
    },
    /// Suspend the running pipeline *now* and re-plan mid-flight: reuse the violating
    /// breaker state as a virtual leaf when the trigger is a reusable breaker
    /// completion, otherwise inject the observed bound (plus every exact observation
    /// seen so far) and re-plan the remainder. Only meaningful from
    /// [`ReoptPolicy::on_event`] — there is nothing to suspend once a run completed.
    ReplanMidQuery {
        /// The observation that triggered the re-plan.
        violation: Violation,
    },
}

/// Run-scoped context handed to every policy callback.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyContext {
    /// All relations of the currently running plan (post-collapse indexing, so this
    /// shrinks after a mid-query round reused breaker state).
    pub all_relations: RelSet,
    /// Rounds applied so far across the whole query.
    pub rounds: usize,
}

/// The decision half of the re-optimization control loop. See the [module
/// documentation](self) for the built-in implementations and a minimal example.
///
/// Implementations are consulted by
/// [`execute_with_policy`](crate::reopt::execute_with_policy): once per
/// [`ExecEvent`] while a plan is executing (if [`ReoptPolicy::wants_events`]), and
/// once per completed run. The driver stops consulting the policy after
/// [`ReoptPolicy::max_rounds`] decisions have been applied — the final plan always
/// runs to completion.
pub trait ReoptPolicy {
    /// Short human-readable name, recorded as [`ReoptReport::policy`](crate::ReoptReport).
    fn name(&self) -> &str;

    /// Round budget: the maximum number of non-`Continue` decisions the driver will
    /// apply before letting the current plan finish unconditionally.
    fn max_rounds(&self) -> usize {
        16
    }

    /// Whether the driver should install an executor observer for this policy. Leave
    /// `false` for policies that decide purely from completed runs; the executor then
    /// skips event dispatch and drops drained breaker subtrees eagerly.
    fn wants_events(&self) -> bool {
        false
    }

    /// Called once per executor event (breaker completions and streaming progress)
    /// when [`ReoptPolicy::wants_events`] is `true`. Any non-`Continue` decision
    /// suspends the pipeline.
    fn on_event(&mut self, event: &ExecEvent, ctx: &PolicyContext) -> PolicyDecision {
        let _ = (event, ctx);
        PolicyDecision::Continue
    }

    /// Called once after every run that executed to completion, with the full metrics
    /// tree and the bound spec of the plan that ran.
    fn on_complete(
        &mut self,
        metrics: &QueryMetrics,
        spec: &QuerySpec,
        ctx: &PolicyContext,
    ) -> PolicyDecision;
}

// ---------------------------------------------------------------------------
// Built-in policies
// ---------------------------------------------------------------------------

/// The paper's restart scheme: execute to completion, find the lowest exhausted join
/// whose q-error exceeds the threshold, then either materialize it as a temp table
/// (`materialize: true`, [`ReoptMode::Materialize`](crate::ReoptMode)) or inject its
/// observed cardinality (`materialize: false`,
/// [`ReoptMode::InjectOnly`](crate::ReoptMode)) and restart.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Q-error threshold (the paper settles on 32).
    pub threshold: f64,
    /// Materialize the violating sub-join instead of only injecting its cardinality.
    pub materialize: bool,
    /// Round budget.
    pub max_rounds: usize,
}

impl ReoptPolicy for RestartPolicy {
    fn name(&self) -> &str {
        if self.materialize {
            "materialize-restart"
        } else {
            "inject-only"
        }
    }

    fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    fn on_complete(
        &mut self,
        metrics: &QueryMetrics,
        _spec: &QuerySpec,
        _ctx: &PolicyContext,
    ) -> PolicyDecision {
        let Some(join) = metrics
            .root
            .joins_bottom_up()
            .into_iter()
            .find(|join| join.exhausted && join.q_error() > self.threshold)
        else {
            return PolicyDecision::Continue;
        };
        let violation = Violation {
            rel_set: join.rel_set,
            estimated_rows: join.estimated_rows,
            actual_rows: join.actual_rows,
            trigger: ReoptTrigger::DetectionRun,
        };
        let corrections = if self.materialize {
            Vec::new()
        } else {
            vec![Correction {
                rel_set: join.rel_set,
                rows: join.actual_rows as f64,
            }]
        };
        PolicyDecision::Restart {
            materialize: self.materialize,
            violation,
            corrections,
        }
    }
}

/// True mid-flight re-optimization ([`ReoptMode::MidQuery`](crate::ReoptMode)):
/// suspend the pipeline as soon as an in-flight signal proves the plan wrong.
///
/// Three signals trigger:
///
/// * a **reusable breaker completion** (hash-build side or nested-loop inner) over a
///   proper subset of the query whose exact cardinality misses its estimate by more
///   than the threshold — the completed state is reused as a virtual leaf;
/// * a **streaming progress report** over a proper subset that either *overshot* its
///   estimate by more than the threshold (the produced count is a lower bound, so an
///   overshoot is already proof of an underestimate) or, once exhausted, misses it in
///   either direction. This is what lets index-NL pipelines — which buffer no
///   intermediate breaker state at all — re-plan mid-query;
/// * a **memory-pressure event** over a proper subset: a breaker sink's reservation
///   was denied and it is about to go out of core. No q-error threshold applies —
///   the pressure itself is the violation (the chosen plan buffers more than the
///   budget allows), so the policy always prefers re-planning the remainder around
///   the observed lower bound over paying the spill's disk I/O. If the re-planned
///   query still exceeds the budget the round counter eventually closes the budget
///   and the final plan spills for real.
#[derive(Debug, Clone)]
pub struct MidQueryPolicy {
    /// Q-error threshold.
    pub threshold: f64,
    /// Round budget.
    pub max_rounds: usize,
}

impl ReoptPolicy for MidQueryPolicy {
    fn name(&self) -> &str {
        "mid-query"
    }

    fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    fn wants_events(&self) -> bool {
        true
    }

    fn on_event(&mut self, event: &ExecEvent, ctx: &PolicyContext) -> PolicyDecision {
        // Suspending on a subtree that covers the whole query would gain nothing
        // (there is no remaining join order to re-plan); empty sets carry no signal.
        let rel_set = event.rel_set();
        if rel_set.is_empty() || !rel_set.is_proper_subset_of(ctx.all_relations) {
            return PolicyDecision::Continue;
        }
        match event {
            ExecEvent::BreakerComplete(breaker) => {
                // Non-reusable state (spilled builds, aggregate/sort inputs) cannot
                // seed a virtual leaf; those observations are still recorded by the
                // driver and re-injected at the next re-plan.
                if breaker.reusable
                    && q_error(breaker.estimated_rows, breaker.actual_rows as f64)
                        > self.threshold
                {
                    return PolicyDecision::ReplanMidQuery {
                        violation: Violation {
                            rel_set,
                            estimated_rows: breaker.estimated_rows,
                            actual_rows: breaker.actual_rows,
                            trigger: ReoptTrigger::BreakerComplete,
                        },
                    };
                }
            }
            ExecEvent::Progress(progress) => {
                let exceeded = if progress.exhausted {
                    // The count is exact: q-error in either direction counts.
                    q_error(progress.estimated_rows, progress.produced_rows as f64)
                        > self.threshold
                } else {
                    // The count is a lower bound: only an overshoot is provable.
                    progress.produced_rows as f64
                        > self.threshold * progress.estimated_rows.max(1.0)
                };
                if exceeded {
                    return PolicyDecision::ReplanMidQuery {
                        violation: Violation {
                            rel_set,
                            estimated_rows: progress.estimated_rows,
                            actual_rows: progress.produced_rows,
                            trigger: ReoptTrigger::Progress,
                        },
                    };
                }
            }
            ExecEvent::MemoryPressure(pressure) => {
                // Re-plan instead of spill: no threshold — the denial itself proves
                // the plan's footprint exceeds the budget, and a suspension here
                // costs nothing (the spill has not committed yet).
                return PolicyDecision::ReplanMidQuery {
                    violation: Violation {
                        rel_set,
                        estimated_rows: pressure.estimated_rows,
                        actual_rows: pressure.buffered_rows,
                        trigger: ReoptTrigger::MemoryPressure,
                    },
                };
            }
        }
        PolicyDecision::Continue
    }

    fn on_complete(
        &mut self,
        _metrics: &QueryMetrics,
        _spec: &QuerySpec,
        _ctx: &PolicyContext,
    ) -> PolicyDecision {
        // Mid-query re-optimization never restarts a completed run.
        PolicyDecision::Continue
    }
}

/// The LEO-style selective-improvement simulation (Section IV-E, Figure 5): after each
/// completed run, correct the lowest mis-estimated *exhausted* operator — joins and
/// scans alike — and every exhausted operator below it to the observed truth, then
/// re-plan. Shows how many corrections a feedback loop needs before a good plan
/// appears, and that partial corrections can transiently make plans worse.
#[derive(Debug, Clone)]
pub struct SelectivePolicy {
    /// Q-error threshold above which an estimate counts as wrong.
    pub threshold: f64,
    /// Round budget.
    pub max_rounds: usize,
    /// Every distinct subset corrected so far (re-corrections of a subtree already
    /// corrected in an earlier round must not inflate the paper's "how many
    /// corrections does the feedback loop need" statistic).
    corrected: std::collections::BTreeSet<RelSet>,
    /// Snapshot of `corrected.len()` after each applied round.
    distinct_after_round: Vec<usize>,
}

impl SelectivePolicy {
    /// A selective-improvement policy with the given threshold and round budget.
    pub fn new(threshold: f64, max_rounds: usize) -> Self {
        Self {
            threshold,
            max_rounds,
            corrected: std::collections::BTreeSet::new(),
            distinct_after_round: Vec::new(),
        }
    }

    /// The cumulative number of *distinct* corrected subsets after each applied
    /// round (one entry per round, in order).
    pub fn distinct_corrections_by_round(&self) -> &[usize] {
        &self.distinct_after_round
    }
}

impl ReoptPolicy for SelectivePolicy {
    fn name(&self) -> &str {
        "selective-improvement"
    }

    fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    fn on_complete(
        &mut self,
        metrics: &QueryMetrics,
        _spec: &QuerySpec,
        _ctx: &PolicyContext,
    ) -> PolicyDecision {
        let Some(node) = metrics.root.lowest_mis_estimated(self.threshold) else {
            return PolicyDecision::Continue;
        };
        // Correct this operator's estimate and every exhausted estimate below it
        // (truncated counts are never true cardinalities).
        let mut corrections = Vec::new();
        node.walk(&mut |descendant| {
            if !descendant.metrics.rel_set.is_empty() && descendant.metrics.exhausted {
                self.corrected.insert(descendant.metrics.rel_set);
                corrections.push(Correction {
                    rel_set: descendant.metrics.rel_set,
                    rows: descendant.metrics.actual_rows as f64,
                });
            }
        });
        self.distinct_after_round.push(self.corrected.len());
        PolicyDecision::Restart {
            materialize: false,
            violation: Violation {
                rel_set: node.metrics.rel_set,
                estimated_rows: node.metrics.estimated_rows,
                actual_rows: node.metrics.actual_rows,
                trigger: ReoptTrigger::DetectionRun,
            },
            corrections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_executor::{
        BreakerEvent, BreakerKind, MemoryPressureEvent, ProgressEvent, ProgressSource,
    };

    fn ctx(n: usize) -> PolicyContext {
        PolicyContext {
            all_relations: RelSet::all(n),
            rounds: 0,
        }
    }

    fn breaker(rels: &[usize], est: f64, actual: u64, reusable: bool) -> ExecEvent {
        ExecEvent::BreakerComplete(BreakerEvent {
            kind: BreakerKind::HashBuild,
            rel_set: RelSet::from_indexes(rels.iter().copied()),
            estimated_rows: est,
            actual_rows: actual,
            reusable,
        })
    }

    fn progress(rels: &[usize], est: f64, produced: u64, exhausted: bool) -> ExecEvent {
        ExecEvent::Progress(ProgressEvent {
            source: if exhausted {
                ProgressSource::OuterExhausted
            } else {
                ProgressSource::OutputBatches
            },
            rel_set: RelSet::from_indexes(rels.iter().copied()),
            estimated_rows: est,
            produced_rows: produced,
            batches: 1,
            exhausted,
        })
    }

    #[test]
    fn mid_query_policy_triggers_on_reusable_breaker_violations_only() {
        let mut policy = MidQueryPolicy {
            threshold: 8.0,
            max_rounds: 16,
        };
        // Reusable, proper subset, q-error 100 → trigger.
        let decision = policy.on_event(&breaker(&[0, 1], 10.0, 1000, true), &ctx(3));
        let PolicyDecision::ReplanMidQuery { violation } = decision else {
            panic!("expected a mid-query decision, got {decision:?}");
        };
        assert_eq!(violation.trigger, ReoptTrigger::BreakerComplete);
        assert!(violation.q_error() > 8.0);
        // Non-reusable state cannot seed a virtual leaf.
        assert_eq!(
            policy.on_event(&breaker(&[0, 1], 10.0, 1000, false), &ctx(3)),
            PolicyDecision::Continue
        );
        // The full relation set leaves nothing to re-plan.
        assert_eq!(
            policy.on_event(&breaker(&[0, 1, 2], 10.0, 1000, true), &ctx(3)),
            PolicyDecision::Continue
        );
        // Within-threshold estimates pass.
        assert_eq!(
            policy.on_event(&breaker(&[0, 1], 900.0, 1000, true), &ctx(3)),
            PolicyDecision::Continue
        );
    }

    fn pressure(rels: &[usize], est: f64, buffered: u64) -> ExecEvent {
        ExecEvent::MemoryPressure(MemoryPressureEvent {
            kind: BreakerKind::HashBuild,
            rel_set: RelSet::from_indexes(rels.iter().copied()),
            estimated_rows: est,
            buffered_rows: buffered,
            buffered_bytes: 4096,
            budget_bytes: 4096,
        })
    }

    #[test]
    fn mid_query_policy_replans_on_memory_pressure_without_a_threshold() {
        let mut policy = MidQueryPolicy {
            threshold: 8.0,
            max_rounds: 16,
        };
        // No q-error needed: estimate 100, buffered 100 — still re-plans.
        let decision = policy.on_event(&pressure(&[0, 1], 100.0, 100), &ctx(3));
        let PolicyDecision::ReplanMidQuery { violation } = decision else {
            panic!("expected a mid-query decision, got {decision:?}");
        };
        assert_eq!(violation.trigger, ReoptTrigger::MemoryPressure);
        assert_eq!(violation.actual_rows, 100);
        // The whole query leaves nothing to re-plan: decline and let the sink spill.
        assert_eq!(
            policy.on_event(&pressure(&[0, 1, 2], 100.0, 100), &ctx(3)),
            PolicyDecision::Continue
        );
    }

    #[test]
    fn mid_query_policy_triggers_on_progress_overshoot_not_undershoot() {
        let mut policy = MidQueryPolicy {
            threshold: 8.0,
            max_rounds: 16,
        };
        // Overshoot: 1000 produced against an estimate of 10 proves an underestimate.
        let decision = policy.on_event(&progress(&[0, 1], 10.0, 1000, false), &ctx(3));
        let PolicyDecision::ReplanMidQuery { violation } = decision else {
            panic!("expected a mid-query decision, got {decision:?}");
        };
        assert_eq!(violation.trigger, ReoptTrigger::Progress);
        assert_eq!(violation.actual_rows, 1000);
        // A low produced count proves nothing while the operator is still running...
        assert_eq!(
            policy.on_event(&progress(&[0, 1], 1000.0, 10, false), &ctx(3)),
            PolicyDecision::Continue
        );
        // ...but once exhausted the same count is an overestimate violation.
        assert!(matches!(
            policy.on_event(&progress(&[0, 1], 1000.0, 10, true), &ctx(3)),
            PolicyDecision::ReplanMidQuery { .. }
        ));
    }

    #[test]
    fn restart_policy_names_and_corrections() {
        let mut materialize = RestartPolicy {
            threshold: 32.0,
            materialize: true,
            max_rounds: 16,
        };
        let mut inject = RestartPolicy {
            threshold: 32.0,
            materialize: false,
            max_rounds: 16,
        };
        assert_eq!(materialize.name(), "materialize-restart");
        assert_eq!(inject.name(), "inject-only");
        assert!(!materialize.wants_events());

        // A metrics tree with one badly under-estimated exhausted join.
        let join = reopt_executor::OperatorMetrics {
            label: "Hash Join".into(),
            rel_set: RelSet::from_indexes([0, 1]),
            is_join: true,
            estimated_rows: 10.0,
            actual_rows: 10_000,
            batches: 1,
            exhausted: true,
            elapsed: std::time::Duration::ZERO,
            encoding: None,
            probe: None,
            spilled_bytes: 0,
            spill_partitions: 0,
        };
        let metrics = QueryMetrics {
            root: reopt_executor::MetricsNode {
                metrics: join,
                children: vec![],
            },
            execution_time: std::time::Duration::ZERO,
        };
        let spec_ctx = ctx(2);
        let spec = dummy_spec();
        match materialize.on_complete(&metrics, &spec, &spec_ctx) {
            PolicyDecision::Restart {
                materialize: true,
                corrections,
                ..
            } => assert!(corrections.is_empty(), "temp-table statistics carry the truth"),
            other => panic!("unexpected decision {other:?}"),
        }
        match inject.on_complete(&metrics, &spec, &spec_ctx) {
            PolicyDecision::Restart {
                materialize: false,
                corrections,
                violation,
            } => {
                assert_eq!(corrections.len(), 1);
                assert_eq!(corrections[0].rows, 10_000.0);
                assert_eq!(violation.trigger, ReoptTrigger::DetectionRun);
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    fn dummy_spec() -> QuerySpec {
        QuerySpec {
            relations: vec![],
            local_predicates: vec![],
            join_edges: vec![],
            complex_predicates: vec![],
            output: vec![],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }
}
