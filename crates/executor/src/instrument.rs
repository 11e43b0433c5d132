//! What the engine records while it runs, and the one place it is recorded:
//! a counter node per plan node ([`OpStats`], in a [`StatsNode`] tree shaped like
//! the plan), its assembly into the public [`MetricsNode`] tree, the rows and
//! bytes breakers buffer ([`Buffered`]), the progress reports of streaming joins
//! ([`Progress`]), and the stop an observer's decision asks for ([`observe`]).
//!
//! Each field of [`OperatorMetrics`] means the same at every thread count:
//!
//! * `actual_rows` and `batches` count the node's output. A streaming step counts
//!   its own batches (`chain.rs`); a LIMIT counts each input batch it takes rows
//!   from, and an aggregate or sort each batch it hands over. A pool worker ends a
//!   step's input at each morsel's end, so a join there counts at most one partial
//!   batch more per morsel than the inline worker, whose input is the whole source.
//! * `elapsed` is the time spent in the node's own code: the engine times each
//!   source, chain step and merge on its own, and a sink charges its consume time
//!   to the breaker it feeds (a join's build, an aggregate). Worker times add up,
//!   so on the pool a node can report more than wall-clock time.
//! * `exhausted` holds when the node ran to completion and so did its whole
//!   subtree. A count cut short, by a LIMIT above it or by a suspension, is never
//!   read as a true cardinality.

use crate::exec::{ExecEvent, ObserverDecision, ObserverHandle, ProgressEvent, ProgressSource};
use crate::metrics::{MetricsNode, OperatorMetrics};
use crate::spill::SpillStats;
use reopt_planner::{PhysicalPlan, PlanKind, RelSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Streaming joins report their progress every this many output batches while an
/// observer is installed (see [`ProgressEvent`]).
pub const PROGRESS_INTERVAL: u64 = 8;

/// Rows (and their decoded byte widths) currently buffered by the pipeline breakers
/// of one run, in either engine, and the high-water marks.
#[derive(Debug, Default)]
pub(crate) struct Buffered {
    rows: AtomicU64,
    peak_rows: AtomicU64,
    bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl Buffered {
    pub(crate) fn acquire(&self, rows: u64, bytes: u64) {
        let now = self.rows.fetch_add(rows, Ordering::SeqCst) + rows;
        self.peak_rows.fetch_max(now, Ordering::SeqCst);
        let now = self.bytes.fetch_add(bytes, Ordering::SeqCst) + bytes;
        self.peak_bytes.fetch_max(now, Ordering::SeqCst);
    }

    /// Rows buffered now.
    pub(crate) fn rows(&self) -> u64 {
        self.rows.load(Ordering::SeqCst)
    }

    /// The high-water marks: `(rows, bytes)`.
    pub(crate) fn peaks(&self) -> (u64, u64) {
        (
            self.peak_rows.load(Ordering::SeqCst),
            self.peak_bytes.load(Ordering::SeqCst),
        )
    }
}

/// The counters of one plan node, shared by the code that runs it (on any worker)
/// and the metrics assembly. They are statistics and publish no other data, so
/// they are `Relaxed`: the coordinator reads a pipeline's counts after its workers
/// retired (the pool's gate orders them), and a progress snapshot is read under the
/// event-queue lock, which orders it after every count an earlier snapshot saw.
#[derive(Default)]
pub(crate) struct OpStats {
    rows: AtomicU64,
    batches: AtomicU64,
    /// Time spent in the node's own code.
    nanos: AtomicU64,
    /// Whether the node itself ran to completion (its subtree may not have).
    finished: AtomicBool,
    /// For scans: how the node read its input (see [`OperatorMetrics::encoding`]).
    pub(crate) encoding: OnceLock<&'static str>,
    /// For joins: how the node probed (see [`OperatorMetrics::probe`]).
    pub(crate) probe: OnceLock<&'static str>,
    /// What the node's kernel spilled, on any worker.
    pub(crate) spill: Arc<SpillStats>,
}

impl OpStats {
    /// Count `rows` rows of output, one batch unless there are none, and return the
    /// node's batch count.
    pub(crate) fn count(&self, rows: usize) -> u64 {
        if rows == 0 {
            return self.batches();
        }
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Charge `elapsed` to the node's own time.
    pub(crate) fn charge(&self, elapsed: Duration) {
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Mark the node run to completion.
    pub(crate) fn finish(&self) {
        self.finished.store(true, Ordering::Relaxed);
    }

    /// Rows counted so far.
    pub(crate) fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Batches counted so far.
    pub(crate) fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

/// The counters of one run, shaped like its plan.
pub(crate) struct StatsNode {
    pub(crate) stats: Arc<OpStats>,
    pub(crate) children: Vec<StatsNode>,
}

impl StatsNode {
    /// Fresh counters for every node of `plan`.
    pub(crate) fn new(plan: &PhysicalPlan) -> Self {
        Self {
            stats: Arc::default(),
            children: plan.children.iter().map(StatsNode::new).collect(),
        }
    }

    /// The metrics tree of `plan`, the plan these counters were made for, as
    /// counted so far.
    pub(crate) fn metrics(&self, plan: &PhysicalPlan) -> MetricsNode {
        let children: Vec<MetricsNode> = plan
            .children
            .iter()
            .zip(&self.children)
            .map(|(plan, stats)| stats.metrics(plan))
            .collect();
        let stats = &self.stats;
        // A count is a true cardinality only if the node ran to completion and so
        // did its whole subtree: a satisfied LIMIT stops without draining its input,
        // and its count is a truncated one for its relation set.
        let exhausted = stats.finished.load(Ordering::Relaxed)
            && children.iter().all(|child| child.metrics.exhausted);
        let (spilled_bytes, spill_partitions) = stats.spill.get();
        MetricsNode {
            metrics: OperatorMetrics {
                label: plan.label(),
                rel_set: plan.rel_set,
                is_join: plan.is_join(),
                estimated_rows: plan.estimated_rows,
                actual_rows: stats.rows(),
                batches: stats.batches(),
                exhausted,
                elapsed: Duration::from_nanos(stats.nanos.load(Ordering::Relaxed)),
                encoding: stats.encoding.get().copied(),
                probe: stats.probe.get().copied(),
                spilled_bytes,
                spill_partitions,
            },
            children,
        }
    }
}

/// The progress reports of one streaming join: every
/// [`PROGRESS_INTERVAL`] output batches the rows produced so far (a lower bound),
/// and for an index nested-loop join one exact report once its outer side is
/// drained, the earliest true cardinality a pipeline without a breaker yields.
pub(crate) struct Progress {
    rel_set: RelSet,
    estimated_rows: f64,
    /// Whether the join reports once more when its outer side drains.
    reports_end: bool,
    /// Set once that report went out.
    ended: AtomicBool,
}

impl Progress {
    /// The reports of the join node `plan`.
    pub(crate) fn new(plan: &PhysicalPlan) -> Self {
        Self {
            rel_set: plan.rel_set,
            estimated_rows: plan.estimated_rows,
            reports_end: matches!(plan.kind, PlanKind::IndexNestedLoopJoin { .. }),
            ended: AtomicBool::new(false),
        }
    }

    /// Whether output batch number `batches` is due a periodic report.
    pub(crate) fn due(batches: u64) -> bool {
        batches % PROGRESS_INTERVAL == 0
    }

    /// The periodic report of `rows` rows produced in `batches` batches.
    pub(crate) fn periodic(&self, rows: u64, batches: u64) -> ExecEvent {
        self.event(ProgressSource::OutputBatches, rows, batches)
    }

    /// The exact report of `rows` rows in `batches` batches once the outer side
    /// drained: `None` unless the join makes that report and has not made it yet.
    pub(crate) fn end(&self, rows: u64, batches: u64) -> Option<ExecEvent> {
        (self.reports_end && !self.ended.swap(true, Ordering::Relaxed))
            .then(|| self.event(ProgressSource::OuterExhausted, rows, batches))
    }

    fn event(&self, source: ProgressSource, rows: u64, batches: u64) -> ExecEvent {
        ExecEvent::Progress(ProgressEvent {
            source,
            rel_set: self.rel_set,
            estimated_rows: self.estimated_rows,
            produced_rows: rows,
            batches,
            exhausted: source == ProgressSource::OuterExhausted,
        })
    }
}

/// How a run stops when its observer asks it to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// [`ObserverDecision::Suspend`]: stop now and discard the in-flight output.
    Now,
    /// [`ObserverDecision::SuspendAtRootSeam`]: deliver the in-flight root batch,
    /// then stop.
    AtRootSeam,
}

/// Deliver `event` to the observer, when one is installed, and return the stop its
/// decision asks for.
pub(crate) fn observe(observer: Option<&ObserverHandle<'_>>, event: &ExecEvent) -> Option<Stop> {
    match observer?.borrow_mut().on_event(event) {
        ObserverDecision::Continue => None,
        ObserverDecision::Suspend => Some(Stop::Now),
        ObserverDecision::SuspendAtRootSeam => Some(Stop::AtRootSeam),
    }
}
