//! # reopt-executor
//!
//! Pipelined, vectorized execution of physical plans with EXPLAIN ANALYZE style
//! instrumentation.
//!
//! Operators are *pull-based batch iterators*: every plan node becomes an operator
//! producing fixed-size batches ([`exec::DEFAULT_BATCH_SIZE`] rows by default,
//! configurable via [`Executor::with_batch_size`]). Internally a batch is either
//! columnar — typed column slices over the table's storage, on which scan and filter
//! kernels run tight vectorized loops (dictionary codes compare as integers) — or a
//! row batch; columnar batches are decoded to rows at the root seam, at breaker
//! materialization points, and in front of row-only operators, so the public
//! `next_batch() -> Option<RowBatch>` contract is unchanged (see
//! [`Executor::with_columnar`], the kill switch). Memory is
//! bounded to one in-flight batch per streaming operator plus the buffers of
//! *pipeline breakers* — the build side of a hash join, the inner side of a
//! nested-loop join, aggregate group states and sort buffers. The rows and bytes held by breakers are tracked and surfaced as
//! [`ExecutionResult::peak_buffered_rows`] / `peak_buffered_bytes`, which is what
//! lets the many-to-many JOB join graphs (tens of millions of intermediate rows)
//! execute in bounded memory instead of materializing every intermediate.
//!
//! The batch seam doubles as a suspend/resume point: [`Executor::open`] returns a
//! [`Pipeline`] that can be pulled one batch at a time, which is the hook a mid-query
//! re-optimizer (or an async scheduler) needs to pause execution between batches.
//! Going further, [`Executor::open_observed`] installs an [`ExecutionObserver`] that
//! receives a stream of [`ExecEvent`]s: every *pipeline-breaker completion* (the
//! points where true subtree cardinalities first become known, even mid-flight inside
//! a single root `next_batch` call) and the *progress reports* of streaming joins —
//! produced-vs-estimated rows every [`PROGRESS_INTERVAL`] output batches plus a
//! final report when an index-NL join's outer side exhausts — so a cardinality
//! overshoot is detectable
//! long before any breaker completes. The observer may suspend execution immediately
//! or on the root batch seam ([`ObserverDecision`]). A suspended [`Pipeline`]
//! surrenders its completed hash-build sides and nested-loop inners via
//! [`Pipeline::take_breaker_states`] so a re-optimizer can re-plan the remaining
//! joins around the already-computed state instead of restarting from scratch.
//!
//! Every executed node produces an [`OperatorMetrics`] record with the estimated and
//! actual output cardinality, the number of batches, and the time spent in its own
//! code (excluding children) — the information the paper extracts from `EXPLAIN
//! ANALYZE` to drive re-optimization. Both engines record it through one module, so
//! each field means the same whichever engine ran the plan.

mod agg;
pub mod error;
pub mod exact;
pub mod exec;
mod hash_join;
mod index_nl;
mod instrument;
pub mod metrics;
pub mod parallel;
pub mod pool;
mod sort;
pub mod spill;

pub use error::ExecError;
pub use pool::{TaskHandle, WorkerPool, MAX_POOL_THREADS};
pub use exec::{
    default_thread_count, execute_plan, BreakerEvent, BreakerKind, BreakerState, ExecConfig,
    ExecEvent, ExecutionObserver, ExecutionResult, Executor, MemoryPressureEvent, ObserverDecision,
    ObserverHandle, Pipeline, ProgressEvent, ProgressSource, RowBatch, DEFAULT_BATCH_SIZE,
    DEFAULT_COLUMNAR, DEFAULT_PRIORITY,
};
pub use instrument::PROGRESS_INTERVAL;
pub use metrics::{MetricsNode, OperatorMetrics, QueryMetrics};
pub use parallel::{lazy_builds_planned_total, lazy_builds_started_total, plan_fallbacks_total};
pub use spill::{MemoryGovernor, Reservation};
