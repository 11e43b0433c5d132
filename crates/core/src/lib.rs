//! # reopt-core
//!
//! The paper's contribution: mid-query re-optimization on top of a Selinger-style
//! optimizer, plus the instrumentation the paper uses to study it.
//!
//! * [`Database`] — the engine façade: storage + catalog + optimizer + executor, with
//!   SQL entry points (`execute`, `explain`, `explain_analyze`) and per-statement
//!   planning/execution timings, the two quantities every figure in the paper reports.
//! * [`q_error`] — the error metric (Moerkotte et al.) used as the re-optimization
//!   trigger: re-optimize when `max(est/actual, actual/est)` exceeds a threshold
//!   (Section V-A; the paper settles on a threshold of 32).
//! * [`oracle`] — the **perfect-(n)** cardinality oracle: true cardinalities for every
//!   connected relation subset of at most `n` relations, injected into the estimator
//!   (Sections III-B and V-B, Figures 1, 2 and 8).
//! * [`policy`] — the pluggable re-optimization control plane: the [`ReoptPolicy`]
//!   trait (observe executor events and completed runs, decide
//!   `Continue | Restart | ReplanMidQuery`) and the built-in policies the paper's
//!   schemes are expressed as.
//! * [`reopt`] — the unified driver ([`execute_with_policy`]) behind every scheme:
//!   temp-table materialization and query rewriting (Section V, Figure 6),
//!   cardinality injection, and mid-flight suspension with breaker-state reuse.
//!   [`ReoptMode`] survives as a thin constructor over the built-in policies.
//! * [`selective`] — the LEO-style *selective improvement* simulation of Section IV-E
//!   (Figure 5): iteratively correct the lowest mis-estimated operator's cardinality and
//!   re-plan, without materialization — now a built-in policy on the same driver.
//! * [`report`] — per-query and per-workload run records shared by the experiment
//!   harnesses in `reopt-bench`.
//! * [`session`] — the multi-query server front-end: [`Database::connect`] hands out
//!   [`Session`]s (copy-on-write snapshots sharing one feedback cache and admission
//!   semaphore) whose queries multiplex over the process-wide worker pool.

pub mod database;
pub mod error;
pub mod oracle;
pub mod policy;
pub mod qerror;
pub mod reopt;
pub mod report;
pub mod selective;
pub mod session;

pub use database::{Database, QueryOutput};
pub use error::DbError;
pub use oracle::{connected_subsets_up_to, PerfectOracle};
pub use policy::{
    Correction, MidQueryPolicy, PolicyContext, PolicyDecision, ReoptPolicy, ReoptTrigger,
    RestartPolicy, SelectivePolicy, Violation,
};
pub use qerror::{q_error, DEFAULT_REOPT_THRESHOLD};
pub use reopt::{
    execute_with_policy, execute_with_policy_feedback, execute_with_reoptimization,
    ReoptConfig, ReoptMode, ReoptReport, ReoptRound, ReoptRoundKind,
};
pub use report::{relative_runtime_buckets, QueryRun, RuntimeBucket, WorkloadRun};
pub use selective::{selective_improvement, SelectiveConfig, SelectiveIteration};
pub use session::{ServerState, Session, DEFAULT_MAX_INFLIGHT};
