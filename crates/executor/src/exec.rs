//! The executor's public surface and the shapes every kernel shares.
//!
//! [`Executor`] opens a plan as a [`Pipeline`], the morsel-driven engine of
//! `parallel.rs`, which runs every plan at every thread count: at one thread each
//! pipeline of the plan runs on the coordinator's inline worker, with more on the
//! resident worker pool. This module holds what the engine and its kernels share:
//! the `Batch` shapes, the execution events an [`ExecutionObserver`] sees and the
//! [`BreakerState`] a suspended run surrenders, [`ExecConfig`], and the two read
//! paths every access and join kernel binds through, `TableRead` (a narrowed
//! base-table read) and `JoinRows` (a join's output layout and residual).
//!
//! Batches flow in one of two shapes: **columnar** ([`ColumnBatch`], produced by
//! sequential scans and preserved through filters and column-only projections,
//! where predicates run as vectorized mask kernels over typed vectors and
//! dictionary codes, and gathered by the join kernels) or **row-major**
//! (`RowBatch`, everything else). Columnar batches are decoded to rows only at the
//! root exchange, where the sort buffers rows, and on entry to kernels without a
//! columnar implementation; a join build keeps them as columns and the aggregate
//! folds them in place (`agg.rs`). Streaming steps hold no more than one batch of
//! state; only *pipeline breakers* buffer:
//!
//! * the build side of a hash join (the hash table),
//! * the inner side of a plain nested-loop join,
//! * the group states of an aggregate,
//! * the full input of a sort,
//! * the row-id list of an index scan (bounded by the base table).
//!
//! Buffered rows (and their decoded byte widths) are accounted per run; the peaks
//! are surfaced as [`ExecutionResult::peak_buffered_rows`] /
//! [`ExecutionResult::peak_buffered_bytes`] so tests can assert that memory is
//! bounded by pipeline-breaker output rather than join fan-out.

use crate::error::ExecError;
use crate::metrics::QueryMetrics;
use crate::spill::{MemoryGovernor, Reservation};
use reopt_expr::{collect_column_refs, filter_mask, Expr, MaskCache};
use reopt_planner::plan::IndexLookup;
use reopt_planner::{PhysicalPlan, PlanKind, RelSet};
use reopt_storage::{ColumnBatch, ColumnData, Index, Row, Schema, Storage, Table, Value};
use std::cell::RefCell;
use std::ops::{Bound, Range};
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

pub use crate::parallel::Pipeline;

/// Default number of rows per batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A batch of rows flowing between operators.
pub type RowBatch = Vec<Row>;

/// A batch in one of its two shapes: columnar (scans, filters, column-only
/// projections and the join kernels keep typed vectors and dictionary codes) or
/// row-major (breaker emissions and fallback paths). Decoding `Cols -> Rows`
/// happens only at the root exchange, where a sort buffers rows, and in kernels
/// without a columnar implementation; the aggregate reads both shapes.
pub(crate) enum Batch {
    /// Materialized rows.
    Rows(RowBatch),
    /// Typed column vectors.
    Cols(ColumnBatch),
}

impl Batch {
    pub(crate) fn len(&self) -> usize {
        match self {
            Batch::Rows(rows) => rows.len(),
            Batch::Cols(cols) => cols.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn into_rows(self) -> RowBatch {
        match self {
            Batch::Rows(rows) => rows,
            Batch::Cols(cols) => cols.into_rows(),
        }
    }

    /// The batch as columns: a row batch of rows `width` values wide converts to
    /// exact-value columns ([`ColumnBatch::from_rows`]), as it enters a columnar
    /// kernel.
    pub(crate) fn into_columns(self, width: usize) -> ColumnBatch {
        match self {
            Batch::Rows(rows) => ColumnBatch::from_rows(rows, width),
            Batch::Cols(cols) => cols,
        }
    }

    /// The decoded width of every value ([`Value::width`]), in either shape: what
    /// a breaker reserves for buffering the batch.
    pub(crate) fn width(&self) -> u64 {
        match self {
            Batch::Rows(rows) => rows.iter().map(|row| row.width() as u64).sum(),
            Batch::Cols(cols) => cols
                .columns()
                .iter()
                .map(|column| {
                    (0..cols.len())
                        .map(|row| column.width_at(row) as u64)
                        .sum::<u64>()
                })
                .sum(),
        }
    }
}

/// Which pipeline breaker finished materializing its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerKind {
    /// The build side of a hash join was fully drained into the hash table.
    HashBuild,
    /// The inner side of a plain nested-loop join was fully buffered.
    NestedLoopInner,
    /// An aggregate consumed its whole input.
    AggregateInput,
    /// A sort buffered its whole input.
    SortInput,
}

/// A completed pipeline-breaker input: the first point during execution where the
/// *true* cardinality of the subtree feeding the breaker becomes known — even under a
/// LIMIT, because breakers always drain their input completely before producing
/// anything.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerEvent {
    /// Which breaker completed.
    pub kind: BreakerKind,
    /// The base relations covered by the completed input subtree.
    pub rel_set: RelSet,
    /// The optimizer's estimate for that subtree.
    pub estimated_rows: f64,
    /// The observed (true) cardinality of the subtree.
    pub actual_rows: u64,
    /// Whether the breaker's buffered state is an exact, reusable materialization of
    /// `rel_set` (true for in-memory hash-build sides and nested-loop inners; false for
    /// a hash build that spilled to disk, and for aggregate/sort state).
    pub reusable: bool,
}

/// What prompted a streaming operator to report progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressSource {
    /// A periodic report: the operator produced another
    /// [`PROGRESS_INTERVAL`](crate::PROGRESS_INTERVAL) output batches.
    OutputBatches,
    /// The outer side of an index nested-loop join exhausted: every outer row has been
    /// probed, so the reported count is the join's final output cardinality.
    OuterExhausted,
}

/// An in-flight report from a *streaming* join operator: produced-vs-estimated rows,
/// available long before any pipeline breaker above the operator completes. Unless
/// [`ProgressEvent::exhausted`] is set the produced count is only a **lower bound** on
/// the operator's true cardinality — an observer can conclude that an estimate is an
/// underestimate (overshoot), never that it is an overestimate.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressEvent {
    /// What prompted the report.
    pub source: ProgressSource,
    /// The base relations covered by the reporting operator.
    pub rel_set: RelSet,
    /// The optimizer's estimate for the operator's output.
    pub estimated_rows: f64,
    /// Rows produced so far (a lower bound unless `exhausted`).
    pub produced_rows: u64,
    /// Output batches produced so far.
    pub batches: u64,
    /// When true the operator's output is complete and `produced_rows` is its true
    /// cardinality (e.g. an index-NL join whose outer side exhausted).
    pub exhausted: bool,
}

/// A breaker sink's reservation against the [`MemoryGovernor`] was denied: the sink
/// is about to switch to its out-of-core strategy (grace-hash partitioning for a
/// hash-join build, external merge sort for sort/aggregation buffers). The event is
/// delivered *before* the spill commits, so an observer can still suspend and
/// re-plan the remainder of the query — with every in-memory buffer intact — as the
/// cheap alternative to paying disk I/O.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPressureEvent {
    /// Which breaker sink hit the budget.
    pub kind: BreakerKind,
    /// The base relations covered by the buffering subtree.
    pub rel_set: RelSet,
    /// The optimizer's estimate for that subtree.
    pub estimated_rows: f64,
    /// Rows buffered so far (a lower bound on the subtree's true cardinality).
    pub buffered_rows: u64,
    /// Bytes the sink had reserved when the grant was denied.
    pub buffered_bytes: u64,
    /// The governor's budget at the time of the denial.
    pub budget_bytes: u64,
}

impl MemoryPressureEvent {
    /// The event of a denied `grant` at a `kind` breaker over the subtree
    /// `(rel_set, estimated_rows)` that buffers `buffered_rows`.
    pub(crate) fn denied(
        kind: BreakerKind,
        (rel_set, estimated_rows): (RelSet, f64),
        buffered_rows: u64,
        grant: &Reservation,
    ) -> ExecEvent {
        ExecEvent::MemoryPressure(MemoryPressureEvent {
            kind,
            rel_set,
            estimated_rows,
            buffered_rows,
            buffered_bytes: grant.bytes(),
            budget_bytes: grant.governor().budget().unwrap_or(0),
        })
    }
}

/// An execution event delivered to an [`ExecutionObserver`]: a pipeline breaker
/// finished materializing its input (a *true* subtree cardinality), a streaming
/// operator reported progress (a lower bound, available much earlier), or a breaker
/// sink is about to spill ([`MemoryPressureEvent`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecEvent {
    /// A pipeline breaker completed its input.
    BreakerComplete(BreakerEvent),
    /// A streaming operator reported produced-vs-estimated rows.
    Progress(ProgressEvent),
    /// A breaker sink exceeded its memory grant and will spill unless suspended.
    MemoryPressure(MemoryPressureEvent),
}

impl ExecEvent {
    /// The base relations the event's observation covers.
    pub fn rel_set(&self) -> RelSet {
        match self {
            ExecEvent::BreakerComplete(e) => e.rel_set,
            ExecEvent::Progress(e) => e.rel_set,
            ExecEvent::MemoryPressure(e) => e.rel_set,
        }
    }

    /// The optimizer's estimate for the observed subtree.
    pub fn estimated_rows(&self) -> f64 {
        match self {
            ExecEvent::BreakerComplete(e) => e.estimated_rows,
            ExecEvent::Progress(e) => e.estimated_rows,
            ExecEvent::MemoryPressure(e) => e.estimated_rows,
        }
    }

    /// The observed row count (exact iff [`ExecEvent::is_exact`]).
    pub fn observed_rows(&self) -> u64 {
        match self {
            ExecEvent::BreakerComplete(e) => e.actual_rows,
            ExecEvent::Progress(e) => e.produced_rows,
            ExecEvent::MemoryPressure(e) => e.buffered_rows,
        }
    }

    /// Whether the observed count is a true cardinality (breaker completions always
    /// are; progress reports only once the operator exhausted; memory-pressure
    /// counts are always lower bounds on an input still being drained) rather than a
    /// lower bound on one.
    pub fn is_exact(&self) -> bool {
        match self {
            ExecEvent::BreakerComplete(_) => true,
            ExecEvent::Progress(e) => e.exhausted,
            ExecEvent::MemoryPressure(_) => false,
        }
    }
}

/// Decision returned by an [`ExecutionObserver`] after each event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverDecision {
    /// Keep executing.
    Continue,
    /// Unwind out of `next_batch` with [`ExecError::Suspended`] immediately; the
    /// pipeline stops mid-pull, but its completed breaker state can still be extracted
    /// with [`Pipeline::take_breaker_states`]. Rows of the in-flight root batch are
    /// discarded, which is what a mid-query re-planner wants (it restarts the
    /// remainder anyway).
    Suspend,
    /// Let the current root `next_batch` pull finish and deliver its batch, then
    /// suspend on the root batch seam: the *next* pull returns
    /// [`ExecError::Suspended`]. This is the clean hand-off point for schedulers that
    /// must not lose produced rows. Note that whether any rows remain beyond the
    /// seam is unknowable without doing more work: if the event that armed the
    /// suspension fired during the pull that produced the *last* batch, the next
    /// pull still reports `Suspended` rather than exhaustion — callers must treat a
    /// seam suspension as "remainder unknown, possibly empty".
    SuspendAtRootSeam,
}

/// Observer of execution events: the mechanism a mid-query re-optimizer (or an async
/// scheduler) uses to watch cardinality truth appear during a run and suspend
/// execution when an estimate turns out badly wrong. The executor provides the
/// events — breaker completions (exact) and streaming progress (early lower bounds) —
/// the decision policy (for example a q-error threshold) lives in the caller.
pub trait ExecutionObserver {
    /// Called once per event, synchronously, from inside the producing operator.
    fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision;
}

/// Shared handle to an observer; operators borrow it mutably only for the duration of
/// a single callback. The lifetime lets callers install observers that borrow from
/// the surrounding control loop (e.g. a re-optimization policy).
pub type ObserverHandle<'p> = Rc<RefCell<dyn ExecutionObserver + 'p>>;

/// A completed breaker materialization extracted from a suspended pipeline: the exact
/// output of the subtree covering `rel_set`, with all predicates local to that subtree
/// already applied. A re-optimizer can register these rows as a virtual leaf table and
/// re-plan the remaining joins around it instead of re-executing the subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerState {
    /// Which breaker the state came from.
    pub kind: BreakerKind,
    /// The base relations the materialized rows cover.
    pub rel_set: RelSet,
    /// The schema of `rows` (columns qualified by the original relation aliases).
    pub schema: Schema,
    /// The materialized rows, in the order the subtree produced them (the same at
    /// every thread count).
    pub rows: Vec<Row>,
}

/// The thread count the executor uses when none is configured explicitly: the
/// machine's available parallelism, looked up once per process.
pub fn default_thread_count() -> usize {
    static MACHINE_PARALLELISM: OnceLock<usize> = OnceLock::new();
    *MACHINE_PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The result of executing one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Output rows.
    pub rows: Vec<Row>,
    /// Output schema (same as the plan root's schema).
    pub schema: Schema,
    /// Per-operator metrics.
    pub metrics: QueryMetrics,
    /// Peak number of rows buffered by pipeline breakers at any point of the run.
    pub peak_buffered_rows: u64,
    /// Peak decoded byte width of those buffered rows (same accounting points as
    /// `peak_buffered_rows`, using [`Value::width`] per value and 8 bytes per
    /// buffered index-scan row id).
    pub peak_buffered_bytes: u64,
}

/// Execute a plan against storage with the default batch size.
pub fn execute_plan(plan: &PhysicalPlan, storage: &Storage) -> Result<ExecutionResult, ExecError> {
    Executor::new(storage).execute(plan)
}

/// Vectorized columnar execution is on by default. Storage stays columnar either
/// way — with it off ([`Executor::with_columnar`]), scans decode every chunk to rows
/// immediately and predicates run through the row-wise evaluator.
pub const DEFAULT_COLUMNAR: bool = true;

/// The default scheduling priority for queries on the shared worker pool.
pub const DEFAULT_PRIORITY: u8 = 1;

/// Every execution setting, in one value: [`Executor`] owns it and hands a clone to
/// whichever engine runs the plan (the clone shares the governor). The progress
/// cadence of streaming joins is not a setting but the constant
/// [`PROGRESS_INTERVAL`](crate::PROGRESS_INTERVAL).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Rows per batch (at least one).
    pub batch_size: usize,
    /// Worker count: 1 runs every pipeline on the coordinator's inline worker, more
    /// run pipelines of at least two morsels on the shared worker pool.
    pub threads: usize,
    /// Whether scans emit columnar batches and predicates use the mask kernels.
    pub columnar: bool,
    /// Scheduling priority of this executor's tasks on the shared worker pool.
    pub priority: u8,
    /// The byte budget breaker sinks reserve against.
    pub governor: Arc<MemoryGovernor>,
}

impl Default for ExecConfig {
    /// The defaults, with an unlimited governor of its own.
    fn default() -> Self {
        Self {
            batch_size: DEFAULT_BATCH_SIZE,
            threads: default_thread_count(),
            columnar: DEFAULT_COLUMNAR,
            priority: DEFAULT_PRIORITY,
            governor: MemoryGovernor::unlimited(),
        }
    }
}

/// The plan executor: a factory for [`Pipeline`]s, configured through the `with_*`
/// builders (batch size, threads, governor, priority, columnar execution).
pub struct Executor<'a> {
    storage: &'a Storage,
    config: ExecConfig,
}

impl<'a> Executor<'a> {
    /// Create an executor over the given storage with the default [`ExecConfig`].
    pub fn new(storage: &'a Storage) -> Self {
        Self::with_config(storage, ExecConfig::default())
    }

    /// Create an executor with the given settings (batch size and thread count are
    /// clamped to at least one).
    pub fn with_config(storage: &'a Storage, mut config: ExecConfig) -> Self {
        config.batch_size = config.batch_size.max(1);
        config.threads = config.threads.max(1);
        Self { storage, config }
    }

    /// Create an executor with a custom batch size (clamped to at least one row).
    pub fn with_batch_size(storage: &'a Storage, batch_size: usize) -> Self {
        Self::with_config(
            storage,
            ExecConfig {
                batch_size,
                ..ExecConfig::default()
            },
        )
    }

    /// Install a shared [`MemoryGovernor`]: breaker sinks reserve their buffered
    /// bytes against it and spill (grace-hash partitioning / external merge sort)
    /// when a grant is denied. Defaults to an unlimited per-executor governor; a
    /// database installs its process-wide governor here so every session's queries
    /// share one budget.
    pub fn with_governor(mut self, governor: Arc<MemoryGovernor>) -> Self {
        self.config.governor = governor;
        self
    }

    /// Set the scheduling priority used when this executor's queries register as
    /// tasks on the shared worker pool: higher-priority tasks are served first,
    /// equal priorities round-robin at morsel granularity. Has no effect at
    /// `threads == 1`.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.config.priority = priority;
        self
    }

    /// Enable or disable vectorized columnar execution (defaults to
    /// [`DEFAULT_COLUMNAR`]). With columnar off, scans decode to rows immediately:
    /// the row-identity CI leg runs every query both ways and compares outputs.
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.config.columnar = columnar;
        self
    }

    /// Set the worker count of morsel-driven execution (clamped to at least one).
    /// `threads == 1` runs every pipeline on the coordinator's inline worker, which
    /// never touches the worker pool; with more threads, pipelines of at least two
    /// morsels run on the pool.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Open a pipeline over the plan without running it. Pulling batches from the
    /// pipeline is the suspend/resume seam a mid-query re-optimizer (or an async
    /// scheduler) needs: execution can stop between any two batches.
    ///
    /// # Examples
    ///
    /// Pull a query one batch at a time instead of running it to completion:
    ///
    /// ```
    /// use reopt_catalog::Catalog;
    /// use reopt_executor::Executor;
    /// use reopt_planner::{CardinalityOverrides, Optimizer};
    /// use reopt_sql::parse_sql;
    /// use reopt_storage::{Column, DataType, Row, Schema, Storage, Table};
    ///
    /// let mut storage = Storage::new();
    /// let mut t = Table::new("t", Schema::new(vec![Column::new("id", DataType::Int)]));
    /// for i in 0..10i64 {
    ///     t.push_row(Row::from_values(vec![i.into()])).unwrap();
    /// }
    /// storage.create_table(t).unwrap();
    /// let mut catalog = Catalog::new();
    /// catalog.analyze_all(&storage).unwrap();
    ///
    /// let statement = parse_sql("SELECT t.id AS id FROM t AS t").unwrap();
    /// let planned = Optimizer::default()
    ///     .plan_select(statement.query().unwrap(), &storage, &catalog, &CardinalityOverrides::new())
    ///     .unwrap();
    ///
    /// let executor = Executor::with_batch_size(&storage, 4);
    /// let mut pipeline = executor.open(&planned.plan).unwrap();
    /// let mut rows = 0;
    /// while let Some(batch) = pipeline.next_batch().unwrap() {
    ///     rows += batch.len(); // execution can pause between any two batches
    /// }
    /// assert_eq!(rows, 10);
    /// ```
    pub fn open<'p>(&self, plan: &'p PhysicalPlan) -> Result<Pipeline<'p>, ExecError>
    where
        'a: 'p,
    {
        self.open_observed(plan, None)
    }

    /// Open a pipeline with an [`ExecutionObserver`] installed: the observer sees every
    /// pipeline-breaker completion (the points where true subtree cardinalities first
    /// become known) *and* the progress reports of streaming joins (early lower bounds
    /// on those cardinalities), and can suspend execution — either immediately or on
    /// the root batch seam. This is the hook the re-optimization control plane
    /// attaches to.
    pub fn open_observed<'p>(
        &self,
        plan: &'p PhysicalPlan,
        observer: Option<ObserverHandle<'p>>,
    ) -> Result<Pipeline<'p>, ExecError>
    where
        'a: 'p,
    {
        Ok(Pipeline::new(plan, self.storage, self.config.clone(), observer))
    }

    /// Execute a plan to completion, returning rows and metrics.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<ExecutionResult, ExecError> {
        let mut pipeline = self.open(plan)?;
        let mut rows = Vec::new();
        while let Some(batch) = pipeline.next_batch()? {
            rows.extend(batch);
        }
        let metrics = pipeline.metrics();
        Ok(ExecutionResult {
            rows,
            schema: plan.schema.clone(),
            peak_buffered_rows: pipeline.peak_buffered_rows(),
            peak_buffered_bytes: pipeline.peak_buffered_bytes(),
            metrics,
        })
    }
}

pub(crate) fn bind(expr: &Expr, schema: &Schema) -> Result<Expr, ExecError> {
    expr.bind(schema)
        .map_err(|e| ExecError::BindError(e.to_string()))
}

pub(crate) fn bind_opt(expr: Option<&Expr>, schema: &Schema) -> Result<Option<Expr>, ExecError> {
    expr.map(|e| bind(e, schema)).transpose()
}

pub(crate) fn key_index(
    schema: &Schema,
    reference: &reopt_expr::ColumnRef,
) -> Result<usize, ExecError> {
    schema
        .index_of(reference.qualifier.as_deref(), &reference.name)
        .map_err(ExecError::from)
}

/// Resolve a table to its shared chunk handle, which `'static` chain jobs and steps
/// can hold without borrowing from the storage map.
pub(crate) fn lookup_table_arc(storage: &Storage, name: &str) -> Result<Arc<Table>, ExecError> {
    storage
        .table_arc(name)
        .map_err(|_| ExecError::TableNotFound(name.to_string()))
}

/// Resolve the sorted, deduplicated row-id list of an index lookup (an index-scan
/// source).
pub(crate) fn resolve_index_row_ids(index: &Index, lookup: &IndexLookup) -> Vec<usize> {
    let mut row_ids: Vec<usize> = match lookup {
        IndexLookup::Equality(value) => index.lookup(value).to_vec(),
        IndexLookup::InList(values) => {
            let mut ids = Vec::new();
            for value in values {
                ids.extend_from_slice(index.lookup(value));
            }
            ids
        }
        IndexLookup::Range { low, high } => {
            let low_bound = match low {
                Some((value, true)) => Bound::Included(value),
                Some((value, false)) => Bound::Excluded(value),
                None => Bound::Unbounded,
            };
            let high_bound = match high {
                Some((value, true)) => Bound::Included(value),
                Some((value, false)) => Bound::Excluded(value),
                None => Bound::Unbounded,
            };
            index.range(low_bound, high_bound)
        }
    };
    row_ids.sort_unstable();
    row_ids.dedup();
    row_ids
}

/// The schema an access path's predicates bind against: the table's columns,
/// qualified by the relation alias. A registered materialization (a mid-query
/// virtual leaf) already qualifies its columns by the aliases they came from, and
/// keeps them.
pub(crate) fn relation_schema(table: &Table, alias: &str) -> Schema {
    Schema::new(
        table
            .schema()
            .columns()
            .iter()
            .map(|column| match column.qualifier() {
                Some(_) => column.clone(),
                None => column.with_qualifier(alias),
            })
            .collect(),
    )
}

/// The position of column `qualifier.name` in `schema`, as a bind failure.
fn position_in(schema: &Schema, qualifier: Option<&str>, name: &str) -> Result<usize, ExecError> {
    schema
        .index_of(qualifier, name)
        .map_err(|e| ExecError::BindError(e.to_string()))
}

/// The positions (in `schema`) of every column of `columns`, in order.
fn positions_in(schema: &Schema, columns: &Schema) -> Result<Vec<usize>, ExecError> {
    columns
        .columns()
        .iter()
        .map(|column| position_in(schema, column.qualifier(), column.name()))
        .collect()
}

/// The distinct positions (in `schema`) of the columns an expression reads, in first
/// use order.
pub(crate) fn read_positions(expr: &Expr, schema: &Schema) -> Result<Vec<usize>, ExecError> {
    let mut refs = Vec::new();
    collect_column_refs(expr, &mut refs);
    let mut positions = Vec::with_capacity(refs.len());
    for reference in &refs {
        let pos = position_in(schema, reference.qualifier.as_deref(), &reference.name)?;
        if !positions.contains(&pos) {
            positions.push(pos);
        }
    }
    Ok(positions)
}

/// A base-table read narrowed to what its plan node needs. It decodes the node's
/// output columns, in output order, followed by any other column its predicate
/// reads. The predicate binds against the relation's full qualified schema,
/// restricted to those columns.
pub(crate) struct TableRead {
    /// Table column ordinals: the output columns, then predicate-only columns.
    columns: Vec<usize>,
    /// How many of `columns` are output columns.
    output: usize,
    /// The predicate, bound to the `columns` layout. Boxed so its nodes keep their
    /// addresses, which key a [`MaskCache`]'s truth tables, when the read moves into
    /// a compiled source after the kernel probe.
    predicate: Option<Box<Expr>>,
    /// Positions (into `columns`) the predicate reads: decoded before it runs.
    first: Vec<usize>,
    /// The other output positions: decoded only for rows that pass.
    rest: Vec<usize>,
}

impl TableRead {
    /// A read producing the columns of `output` (each a column of `full`, the
    /// relation's qualified schema) and filtering on `predicate`.
    pub(crate) fn new(
        full: &Schema,
        output: &Schema,
        predicate: Option<&Expr>,
    ) -> Result<Self, ExecError> {
        let mut columns = positions_in(full, output)?;
        let output = columns.len();
        let mut first = Vec::new();
        if let Some(predicate) = predicate {
            for col in read_positions(predicate, full)? {
                let pos = match columns.iter().position(|&c| c == col) {
                    Some(pos) => pos,
                    None => {
                        columns.push(col);
                        columns.len() - 1
                    }
                };
                first.push(pos);
            }
        }
        let predicate = bind_opt(predicate, &full.project(&columns))?.map(Box::new);
        let rest = (0..output).filter(|pos| !first.contains(pos)).collect();
        Ok(Self {
            columns,
            output,
            predicate,
            first,
            rest,
        })
    }

    /// Whether the vectorized kernel covers the predicate (true without one), probed
    /// against a zero-row slice that carries the table's real column encodings.
    pub(crate) fn kernel_covers(&self, table: &Table, cache: &mut MaskCache) -> bool {
        self.predicate.as_ref().map_or(true, |predicate| {
            filter_mask(predicate, &table.scan_range(0..0, &self.columns), cache).is_some()
        })
    }

    /// Read the rows in `range`: only the read columns are sliced. With `columnar`
    /// (the kernel covers the predicate) the batch stays columnar; otherwise the
    /// chunk is decoded and filtered row by row. Either way only the output columns
    /// leave.
    pub(crate) fn scan(
        &self,
        table: &Table,
        range: Range<usize>,
        columnar: bool,
        cache: &mut MaskCache,
    ) -> Result<Batch, ExecError> {
        let mut cols = table.scan_range(range, &self.columns);
        if columnar {
            let Some(predicate) = &self.predicate else {
                return Ok(Batch::Cols(cols));
            };
            // The build-time probe said the kernel covers this predicate; fall back
            // row-wise rather than failing if it ever declines a chunk at runtime.
            if let Some(mask) = filter_mask(predicate, &cols, cache) {
                cols.truncate_columns(self.output);
                return Ok(Batch::Cols(cols.filter(&mask)));
            }
        }
        let mut rows = cols.into_rows();
        if let Some(predicate) = &self.predicate {
            predicate.filter_batch(&mut rows)?;
            if self.columns.len() > self.output {
                for row in &mut rows {
                    row.values_mut().truncate(self.output);
                }
            }
        }
        Ok(Batch::Rows(rows))
    }

    /// The table column at read position `pos`.
    pub(crate) fn column(&self, pos: usize) -> usize {
        self.columns[pos]
    }

    /// A scratch row shaped for [`TableRead::fetch`].
    pub(crate) fn scratch(&self) -> Row {
        Row::from_values(vec![Value::Null; self.columns.len()])
    }

    /// Decode row `id` into `scratch` and apply the predicate: `false` when the row
    /// does not exist or fails. The predicate's columns are decoded first and the
    /// remaining output columns only for rows that pass; the output is
    /// `scratch.values()[..output]` (see [`TableRead::output`]).
    pub(crate) fn fetch(
        &self,
        table: &Table,
        id: usize,
        scratch: &mut Row,
    ) -> Result<bool, ExecError> {
        if id >= table.row_count() {
            return Ok(false);
        }
        let values = scratch.values_mut();
        for &pos in &self.first {
            values[pos] = table.value_at(id, self.columns[pos]);
        }
        if let Some(predicate) = &self.predicate {
            if !predicate.eval_predicate(scratch)? {
                return Ok(false);
            }
        }
        let values = scratch.values_mut();
        for &pos in &self.rest {
            values[pos] = table.value_at(id, self.columns[pos]);
        }
        Ok(true)
    }

    /// The output columns of a fetched scratch row.
    pub(crate) fn output<'r>(&self, scratch: &'r Row) -> &'r [Value] {
        &scratch.values()[..self.output]
    }

    /// [`TableRead::fetch`] of each row of `ids`, those that pass as output rows of
    /// their own (the index-scan case).
    pub(crate) fn fetch_rows(
        &self,
        table: &Table,
        ids: &[usize],
        scratch: &mut Row,
    ) -> Result<RowBatch, ExecError> {
        let mut out = Vec::new();
        for &id in ids {
            if self.fetch(table, id, scratch)? {
                out.push(Row::from_values(self.output(scratch).to_vec()));
            }
        }
        Ok(out)
    }
}

/// How a join assembles its output rows from its two sides. The residual binds
/// against `outer ++ inner` (the children carry every column it reads) and runs
/// first, on a compact scratch row of just those columns; a pair that passes costs
/// one allocation, its output row, filled through a column map from both sides.
/// Every join lays out its output here: the columnar kernels read
/// the column map and the residual through `index_nl::PairColumns`, and the
/// index-NL row path builds its rows with [`JoinRows::join`].
pub(crate) struct JoinRows {
    /// Per output column, its position in `outer ++ inner`.
    output: Vec<usize>,
    /// Number of outer columns: positions from here on index the inner side.
    outer_len: usize,
    /// The residual, bound to the layout of `residual_reads`.
    residual: Option<Expr>,
    /// Positions in `outer ++ inner` the residual reads.
    residual_reads: Vec<usize>,
}

impl JoinRows {
    /// The assembly of `output` (the join node's schema) from rows of `outer` and
    /// `inner`, keeping only pairs that pass `residual`.
    pub(crate) fn new(
        outer: &Schema,
        inner: &Schema,
        output: &Schema,
        residual: Option<&Expr>,
    ) -> Result<Self, ExecError> {
        let both = outer.join(inner);
        let output = positions_in(&both, output)?;
        let residual_reads = match residual {
            Some(residual) => read_positions(residual, &both)?,
            None => Vec::new(),
        };
        Ok(Self {
            output,
            outer_len: outer.len(),
            residual: bind_opt(residual, &both.project(&residual_reads))?,
            residual_reads,
        })
    }

    /// Number of outer columns.
    pub(crate) fn outer_len(&self) -> usize {
        self.outer_len
    }

    /// Per output column, its position in `outer ++ inner`.
    pub(crate) fn output(&self) -> &[usize] {
        &self.output
    }

    /// The residual, bound to the layout of [`JoinRows::residual_reads`].
    pub(crate) fn residual(&self) -> Option<&Expr> {
        self.residual.as_ref()
    }

    /// The positions in `outer ++ inner` the residual reads.
    pub(crate) fn residual_reads(&self) -> &[usize] {
        &self.residual_reads
    }

    fn value<'v>(&self, pos: usize, outer: &'v [Value], inner: &'v [Value]) -> &'v Value {
        match pos.checked_sub(self.outer_len) {
            Some(inner_pos) => &inner[inner_pos],
            None => &outer[pos],
        }
    }

    /// The output row of one matching pair, or `None` when the residual rejects it.
    /// `scratch` is any reusable row (the residual's compact row).
    pub(crate) fn join(
        &self,
        outer: &[Value],
        inner: &[Value],
        scratch: &mut Row,
    ) -> Result<Option<Row>, ExecError> {
        if let Some(residual) = &self.residual {
            let values = scratch.values_mut();
            values.clear();
            values.extend(
                self.residual_reads
                    .iter()
                    .map(|&pos| self.value(pos, outer, inner).clone()),
            );
            if !residual.eval_predicate(scratch)? {
                return Ok(None);
            }
        }
        Ok(Some(Row::from_values(
            self.output
                .iter()
                .map(|&pos| self.value(pos, outer, inner).clone())
                .collect(),
        )))
    }
}

/// The inner read and the row assembly of an index nested-loop join node. Per match
/// it decodes only the inner columns the node outputs or its residual reads (those the
/// inner predicate reads first), and the residual binds against the outer columns
/// followed by those inner columns.
pub(crate) fn index_nl_join(
    plan: &PhysicalPlan,
    table: &Table,
) -> Result<(TableRead, JoinRows), ExecError> {
    let PlanKind::IndexNestedLoopJoin {
        inner_alias,
        inner_predicate,
        residual,
        ..
    } = &plan.kind
    else {
        return Err(ExecError::InvalidPlan(
            "expected an index nested-loop join".into(),
        ));
    };
    let full = relation_schema(table, inner_alias);
    let mut residual_reads = Vec::new();
    if let Some(residual) = residual {
        collect_column_refs(residual, &mut residual_reads);
    }
    let inner = Schema::new(
        full.columns()
            .iter()
            .filter(|column| {
                plan.schema.contains(column.qualifier(), column.name())
                    || residual_reads.iter().any(|reference| {
                        column.matches(reference.qualifier.as_deref(), &reference.name)
                    })
            })
            .cloned()
            .collect(),
    );
    let outer = &plan.children[0].schema;
    Ok((
        TableRead::new(&full, &inner, inner_predicate.as_ref())?,
        JoinRows::new(outer, &inner, &plan.schema, residual.as_ref())?,
    ))
}

/// The probe label an index nested-loop join reports in EXPLAIN ANALYZE (see
/// [`OperatorMetrics::probe`](crate::OperatorMetrics::probe)).
pub(crate) fn probe_label(columnar: bool) -> &'static str {
    if columnar {
        "columnar"
    } else {
        "row"
    }
}

/// The encoding label a scan reports in EXPLAIN ANALYZE (see
/// [`OperatorMetrics::encoding`](crate::OperatorMetrics::encoding)).
pub(crate) fn scan_encoding_label(columnar: bool, kernel: bool, table: &Table) -> &'static str {
    if !columnar {
        "row"
    } else if !kernel {
        "fallback-row"
    } else if (0..table.schema().len())
        .any(|idx| matches!(table.column(idx), ColumnData::Dict { .. }))
    {
        "dictionary"
    } else {
        "native"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_catalog::Catalog;
    use reopt_planner::{CardinalityOverrides, JoinAlgorithm, Optimizer};
    use reopt_sql::parse_sql;
    use reopt_storage::{Column, DataType, IndexKind};

    /// A small movie database with known contents so results can be checked exactly.
    fn build_env() -> (Storage, Catalog) {
        let mut storage = Storage::new();

        let mut title = Table::new(
            "title",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("production_year", DataType::Int),
            ]),
        );
        for i in 0..100i64 {
            title
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("movie {i:03}")),
                    Value::Int(1990 + (i % 30)),
                ]))
                .unwrap();
        }
        title.create_index("title_pkey", "id", IndexKind::BTree).unwrap();

        let mut keyword = Table::new(
            "keyword",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("keyword", DataType::Text),
            ]),
        );
        for i in 0..10i64 {
            keyword
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("kw{i}")),
                ]))
                .unwrap();
        }

        let mut movie_keyword = Table::new(
            "movie_keyword",
            Schema::new(vec![
                Column::not_null("movie_id", DataType::Int),
                Column::not_null("keyword_id", DataType::Int),
            ]),
        );
        // Every movie i has keywords i%10 and (i+1)%10.
        for i in 0..100i64 {
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i), Value::Int(i % 10)]))
                .unwrap();
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i), Value::Int((i + 1) % 10)]))
                .unwrap();
        }
        movie_keyword
            .create_index("mk_movie", "movie_id", IndexKind::Hash)
            .unwrap();
        movie_keyword
            .create_index("mk_keyword", "keyword_id", IndexKind::Hash)
            .unwrap();

        storage.create_table(title).unwrap();
        storage.create_table(keyword).unwrap();
        storage.create_table(movie_keyword).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        (storage, catalog)
    }

    fn plan(
        sql: &str,
        storage: &Storage,
        catalog: &Catalog,
    ) -> reopt_planner::PlannedQuery {
        let optimizer = Optimizer::default();
        let statement = parse_sql(sql).unwrap();
        optimizer
            .plan_select(
                statement.query().unwrap(),
                storage,
                catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap()
    }

    // This module is the one-thread battery, so every helper pins `with_threads(1)`:
    // without the pin, `default_thread_count()` would silently route these tests
    // through the worker pool on multi-core hosts, losing the coverage of the
    // inline worker. The pool has its own battery in `crate::parallel::tests`,
    // which pins 2/4/8 explicitly.
    fn run(sql: &str, storage: &Storage, catalog: &Catalog) -> ExecutionResult {
        let planned = plan(sql, storage, catalog);
        Executor::new(storage)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap()
    }

    fn run_with_batch_size(
        sql: &str,
        storage: &Storage,
        catalog: &Catalog,
        batch_size: usize,
    ) -> ExecutionResult {
        let planned = plan(sql, storage, catalog);
        Executor::with_batch_size(storage, batch_size)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap()
    }

    #[test]
    fn seq_scan_with_filter() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT * FROM title AS t WHERE t.production_year >= 2015",
            &storage,
            &catalog,
        );
        // Years 2015..=2019 appear for i%30 in 25..=29 → 5 values × 3 movies each.
        assert_eq!(result.rows.len(), 15);
        assert_eq!(result.schema.len(), 3);
    }

    #[test]
    fn index_scan_equality_and_range() {
        let (storage, catalog) = build_env();
        let result = run("SELECT * FROM title AS t WHERE t.id = 42", &storage, &catalog);
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].value(0), &Value::Int(42));
        let result = run(
            "SELECT * FROM title AS t WHERE t.id BETWEEN 10 AND 19",
            &storage,
            &catalog,
        );
        assert_eq!(result.rows.len(), 10);
    }

    #[test]
    fn two_way_join_counts() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT count(*) AS c
             FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id AND k.keyword = 'kw3'",
            &storage,
            &catalog,
        );
        // keyword_id = 3 appears for movies with i%10==3 (10 movies) and (i+1)%10==3
        // (10 movies) → 20 movie_keyword rows.
        assert_eq!(result.rows[0].value(0), &Value::Int(20));
    }

    #[test]
    fn three_way_join_with_aggregate() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT min(t.title) AS first_movie, count(*) AS c
             FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
               AND k.keyword = 'kw3' AND t.production_year >= 2000",
            &storage,
            &catalog,
        );
        assert_eq!(result.rows.len(), 1);
        // Check against a brute-force count.
        let mut expected = 0;
        let mut first: Option<String> = None;
        for i in 0..100i64 {
            let year = 1990 + (i % 30);
            if year < 2000 {
                continue;
            }
            let kws = [i % 10, (i + 1) % 10];
            for kw in kws {
                if kw == 3 {
                    expected += 1;
                    let name = format!("movie {i:03}");
                    if first.as_ref().map(|f| &name < f).unwrap_or(true) {
                        first = Some(name);
                    }
                }
            }
        }
        assert_eq!(result.rows[0].value(1), &Value::Int(expected));
        assert_eq!(
            result.rows[0].value(0),
            &Value::from(first.unwrap().as_str())
        );
    }

    #[test]
    fn metrics_record_actual_cardinalities() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT count(*) AS c
             FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        assert_eq!(result.rows[0].value(0), &Value::Int(200));
        let joins = result.metrics.root.joins_bottom_up();
        assert_eq!(joins.len(), 1);
        assert_eq!(joins[0].actual_rows, 200);
        assert!(joins[0].q_error() < 10.0);
        assert!(result.metrics.execution_time.as_nanos() > 0);
        let rendered = result.metrics.root.render();
        assert!(rendered.contains("actual rows=200"));
    }

    #[test]
    fn group_by_order_by_limit() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT t.production_year, count(*) AS movies
             FROM title AS t
             GROUP BY t.production_year
             ORDER BY movies DESC, t.production_year ASC
             LIMIT 3",
            &storage,
            &catalog,
        );
        assert_eq!(result.rows.len(), 3);
        // Years 1990..=1999 have 4 movies each (i%30 in 0..10 for i in 0..100 → 4 each);
        // later years have 3. Ordered by count desc then year asc → 1990, 1991, 1992.
        assert_eq!(result.rows[0].value(0), &Value::Int(1990));
        assert_eq!(result.rows[0].value(1), &Value::Int(4));
        assert_eq!(result.rows[2].value(0), &Value::Int(1992));
    }

    #[test]
    fn projection_and_aliases() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT t.title AS name, t.production_year + 1 AS next_year
             FROM title AS t WHERE t.id = 5",
            &storage,
            &catalog,
        );
        assert_eq!(result.schema.column(0).unwrap().name(), "name");
        assert_eq!(result.rows[0].value(1), &Value::Int(1996));
    }

    #[test]
    fn aggregates_over_empty_input() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT min(t.title) AS m, count(*) AS c, sum(t.id) AS s, avg(t.id) AS a
             FROM title AS t WHERE t.production_year > 3000",
            &storage,
            &catalog,
        );
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].value(0), &Value::Null);
        assert_eq!(result.rows[0].value(1), &Value::Int(0));
        assert_eq!(result.rows[0].value(2), &Value::Null);
        assert_eq!(result.rows[0].value(3), &Value::Null);
    }

    #[test]
    fn like_and_in_filters_execute() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT count(*) AS c FROM title AS t WHERE t.title LIKE 'movie 09%'",
            &storage,
            &catalog,
        );
        // movie 090..099
        assert_eq!(result.rows[0].value(0), &Value::Int(10));
        let result = run(
            "SELECT count(*) AS c FROM keyword AS k WHERE k.keyword IN ('kw1', 'kw2', 'nope')",
            &storage,
            &catalog,
        );
        assert_eq!(result.rows[0].value(0), &Value::Int(2));
    }

    #[test]
    fn join_results_match_across_algorithms() {
        // Force each join algorithm in turn and check identical results.
        let (storage, catalog) = build_env();
        let statement = parse_sql(
            "SELECT count(*) AS c
             FROM title AS t, movie_keyword AS mk
             WHERE t.id = mk.movie_id AND t.production_year >= 2010",
        )
        .unwrap();

        let mut results = Vec::new();
        for (hash, inl, algorithm) in [
            (true, false, JoinAlgorithm::Hash),
            (false, true, JoinAlgorithm::IndexNestedLoop),
            // Neither enabled: the plain nested loop is the fallback.
            (false, false, JoinAlgorithm::NestedLoop),
        ] {
            let config = reopt_planner::OptimizerConfig {
                enable_hash_joins: hash,
                enable_index_nl_joins: inl,
                ..Default::default()
            };
            let optimizer = Optimizer::new(config);
            let planned = optimizer
                .plan_select(
                    statement.query().unwrap(),
                    &storage,
                    &catalog,
                    &CardinalityOverrides::new(),
                )
                .unwrap();
            let mut joins = Vec::new();
            planned.plan.walk(&mut |n| joins.extend(n.join_algorithm()));
            assert_eq!(joins, [algorithm]);
            let result = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            results.push(result.rows[0].value(0).clone());
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        let spec = reopt_planner::bind_select(statement.query().unwrap(), &storage).unwrap();
        let answer = crate::oracle::evaluate(&spec, &storage).unwrap();
        assert_eq!(answer.rows()[0].value(0), &results[0]);
    }

    #[test]
    fn missing_table_at_execution_time() {
        let (storage, catalog) = build_env();
        let optimizer = Optimizer::default();
        let statement = parse_sql("SELECT * FROM keyword AS k").unwrap();
        let planned = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap();
        let mut emptied = storage.clone();
        emptied.drop_table("keyword").unwrap();
        let err = execute_plan(&planned.plan, &emptied).unwrap_err();
        assert!(matches!(err, ExecError::TableNotFound(_)));
    }

    // -----------------------------------------------------------------------
    // Batch-boundary edge cases
    // -----------------------------------------------------------------------

    /// Rows sorted into a canonical order for ordering-insensitive comparison.
    fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| {
            format!("{a}").cmp(&format!("{b}"))
        });
        rows
    }

    /// Queries covering every operator kind, used by the batch-size sweeps.
    const SWEEP_QUERIES: &[&str] = &[
        // Streaming scans and filters.
        "SELECT * FROM title AS t WHERE t.production_year >= 2015",
        // Empty input through joins and aggregates.
        "SELECT count(*) AS c FROM title AS t, movie_keyword AS mk
         WHERE t.id = mk.movie_id AND t.production_year > 3000",
        // Exactly one output row (single-batch output).
        "SELECT * FROM title AS t WHERE t.id = 42",
        // Join + group + sort + limit.
        "SELECT t.production_year, count(*) AS movies
         FROM title AS t, movie_keyword AS mk
         WHERE t.id = mk.movie_id
         GROUP BY t.production_year ORDER BY movies DESC, t.production_year ASC LIMIT 5",
        // Multi-way join with aggregates.
        "SELECT min(t.title) AS m, count(*) AS c
         FROM title AS t, movie_keyword AS mk, keyword AS k
         WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw3'",
    ];

    #[test]
    fn batch_size_one_matches_default() {
        let (storage, catalog) = build_env();
        for sql in SWEEP_QUERIES {
            let reference = run(sql, &storage, &catalog);
            let tiny = run_with_batch_size(sql, &storage, &catalog, 1);
            assert_eq!(
                sorted_rows(tiny.rows),
                sorted_rows(reference.rows.clone()),
                "batch size 1 changed the result of {sql}"
            );
        }
    }

    #[test]
    fn oversized_batch_matches_default() {
        // A batch size larger than any intermediate result degenerates to
        // operator-at-a-time materialization (the seed executor's regime).
        let (storage, catalog) = build_env();
        for sql in SWEEP_QUERIES {
            let reference = run(sql, &storage, &catalog);
            let huge = run_with_batch_size(sql, &storage, &catalog, 1 << 20);
            assert_eq!(
                sorted_rows(huge.rows),
                sorted_rows(reference.rows.clone()),
                "oversized batches changed the result of {sql}"
            );
        }
    }

    #[test]
    fn input_of_exactly_one_batch() {
        let (storage, catalog) = build_env();
        // keyword has exactly 10 rows: batch size 10 consumes it in one batch.
        let result = run_with_batch_size(
            "SELECT count(*) AS c FROM keyword AS k",
            &storage,
            &catalog,
            10,
        );
        assert_eq!(result.rows[0].value(0), &Value::Int(10));
    }

    #[test]
    fn empty_inputs_flow_through_every_operator() {
        let (storage, catalog) = build_env();
        // No movie has production_year > 3000: scans, joins, sorts and projections all
        // see empty inputs.
        let result = run(
            "SELECT t.title AS name FROM title AS t, movie_keyword AS mk
             WHERE t.id = mk.movie_id AND t.production_year > 3000
             ORDER BY name LIMIT 10",
            &storage,
            &catalog,
        );
        assert!(result.rows.is_empty());
        assert_eq!(result.peak_buffered_rows, 0);
    }

    #[test]
    fn limit_stops_pulling_upstream() {
        let (storage, catalog) = build_env();
        let planned = plan("SELECT * FROM title AS t LIMIT 3", &storage, &catalog);
        let result = Executor::with_batch_size(&storage, 2).with_threads(1)
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(result.rows.len(), 3);
        // The scan must not have produced the whole table: with batch size 2 the limit
        // needs at most two batches (4 rows), not 100.
        let mut scan_rows = None;
        let mut scan_exhausted = None;
        result.metrics.root.walk(&mut |node| {
            if node.metrics.label.starts_with("Seq Scan") {
                scan_rows = Some(node.metrics.actual_rows);
                scan_exhausted = Some(node.metrics.exhausted);
            }
        });
        assert!(scan_rows.unwrap() <= 4, "scan produced {scan_rows:?} rows");
        // The truncated scan is flagged so its count is never mistaken for a true
        // cardinality — and the flag propagates up: the root Limit's actual_rows is
        // a truncated count for its relation set, so it must not be exhausted either.
        assert_eq!(scan_exhausted, Some(false));
        assert!(!result.metrics.root.metrics.exhausted);
    }

    #[test]
    fn operators_are_exhausted_after_a_full_run() {
        let (storage, catalog) = build_env();
        let result = run(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        result
            .metrics
            .root
            .walk(&mut |node| assert!(node.metrics.exhausted, "{}", node.metrics.label));
    }

    /// An observer that suspends at the first completed hash build covering more than
    /// `min_rels` relations, recording everything it saw.
    struct SuspendOnBuild {
        min_rels: usize,
        events: Vec<BreakerEvent>,
    }

    impl ExecutionObserver for SuspendOnBuild {
        fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
            let ExecEvent::BreakerComplete(event) = event else {
                return ObserverDecision::Continue;
            };
            self.events.push(event.clone());
            if event.kind == BreakerKind::HashBuild && event.rel_set.len() >= self.min_rels {
                ObserverDecision::Suspend
            } else {
                ObserverDecision::Continue
            }
        }
    }

    #[test]
    fn monitor_suspension_extracts_completed_build_state() {
        let (storage, catalog) = build_env();
        // Force hash joins so the plan has extractable build sides.
        let statement = parse_sql(
            "SELECT count(*) AS c
             FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw3'",
        )
        .unwrap();
        let optimizer = Optimizer::new(reopt_planner::OptimizerConfig {
            enable_index_scans: false,
            enable_index_nl_joins: false,
            ..Default::default()
        });
        let planned = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap();

        let monitor = Rc::new(RefCell::new(SuspendOnBuild {
            min_rels: 2,
            events: Vec::new(),
        }));
        let executor = Executor::new(&storage).with_threads(1);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(monitor.clone() as ObserverHandle))
            .unwrap();
        let err = pipeline.next_batch().unwrap_err();
        assert_eq!(err, ExecError::Suspended);
        assert!(pipeline.is_suspended());
        // Further pulls keep failing with the same signal.
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);

        // The two-relation build side (mk ⋈ k) was completed and is extractable,
        // with all its predicates applied: 20 rows for keyword 3.
        let states = pipeline.take_breaker_states();
        let build = states
            .iter()
            .find(|s| s.rel_set.len() == 2)
            .expect("two-relation build state");
        assert_eq!(build.kind, BreakerKind::HashBuild);
        assert_eq!(build.rows.len(), 20);
        // Only what the rest of the query reads leaves the build: mk.movie_id, for
        // the join with t, under its original qualifier.
        assert_eq!(build.schema.len(), 1, "{}", build.schema);
        assert!(build.schema.index_of(Some("mk"), "movie_id").is_ok());
        assert!(build.rows.iter().all(|row| row.len() == 1));
        // The monitor saw the inner (single-relation) build complete first.
        let events = &monitor.borrow().events;
        assert!(events.len() >= 2);
        assert_eq!(events[0].rel_set.len(), 1);
        assert!(events.iter().all(|e| e.kind == BreakerKind::HashBuild));
    }

    #[test]
    fn unmonitored_pipelines_never_suspend() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        let executor = Executor::new(&storage).with_threads(1);
        let mut pipeline = executor.open_observed(&planned.plan, None).unwrap();
        let mut rows = 0;
        while let Some(batch) = pipeline.next_batch().unwrap() {
            rows += batch.len();
        }
        assert_eq!(rows, 1);
        assert!(!pipeline.is_suspended());
    }

    #[test]
    fn pipeline_surfaces_batches_and_buffered_rows() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        let executor = Executor::with_batch_size(&storage, 16).with_threads(1);
        let mut pipeline = executor.open(&planned.plan).unwrap();
        let mut total = 0usize;
        while let Some(batch) = pipeline.next_batch().unwrap() {
            assert!(!batch.is_empty(), "operators must not emit empty batches");
            assert!(batch.len() <= 16, "batch exceeded the configured size");
            total += batch.len();
        }
        assert_eq!(total, 1);
        let metrics = pipeline.metrics();
        let joins = metrics.root.joins_bottom_up();
        assert_eq!(joins[0].actual_rows, 200);
        assert!(joins[0].batches >= 200 / 16, "join output must be batched");
        // The only buffered state is the hash-join build side (10 keyword rows at most,
        // plus index-scan row ids if any) — far below the 200-row join output.
        let peak = pipeline.peak_buffered_rows();
        assert!(peak > 0 && peak < 200, "peak buffered rows {peak}");
    }

    #[test]
    fn join_batches_respect_batch_size_under_fanout() {
        // Every movie_keyword row matches keyword 3 ten+ten times; with batch size 4 the
        // join must split its output across many batches, suspending mid-match-list.
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        for batch_size in [1usize, 3, 7, 200, 1024] {
            let result = Executor::with_batch_size(&storage, batch_size)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(result.rows[0].value(0), &Value::Int(200), "batch {batch_size}");
        }
    }

    /// Records every event; Progress events get a configurable decision back.
    struct RecordingObserver {
        events: Vec<ExecEvent>,
        on_progress: ObserverDecision,
    }

    impl RecordingObserver {
        fn new(on_progress: ObserverDecision) -> Rc<RefCell<Self>> {
            Rc::new(RefCell::new(Self {
                events: Vec::new(),
                on_progress,
            }))
        }
    }

    impl ExecutionObserver for RecordingObserver {
        fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
            self.events.push(event.clone());
            match event {
                ExecEvent::Progress(_) => self.on_progress,
                ExecEvent::BreakerComplete(_) | ExecEvent::MemoryPressure(_) => {
                    ObserverDecision::Continue
                }
            }
        }
    }

    /// An index-NL-only plan over the 200-row mk ⋈ k join (inner mk via its
    /// keyword_id index).
    fn index_nl_plan(storage: &Storage, catalog: &Catalog) -> reopt_planner::PlannedQuery {
        let statement = parse_sql(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let optimizer = Optimizer::new(reopt_planner::OptimizerConfig {
            enable_hash_joins: false,
            enable_index_nl_joins: true,
            ..Default::default()
        });
        optimizer
            .plan_select(
                statement.query().unwrap(),
                storage,
                catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap()
    }

    #[test]
    fn streaming_joins_report_progress_and_final_cardinality() {
        let (storage, catalog) = build_env();
        let planned = index_nl_plan(&storage, &catalog);
        let observer = RecordingObserver::new(ObserverDecision::Continue);
        let executor = Executor::with_batch_size(&storage, 4).with_threads(1);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
            .unwrap();
        while pipeline.next_batch().unwrap().is_some() {}

        let events = &observer.borrow().events;
        let progress: Vec<&ProgressEvent> = events
            .iter()
            .filter_map(|e| match e {
                ExecEvent::Progress(p) => Some(p),
                _ => None,
            })
            .collect();
        // 200 join rows at batch size 4 → 50 batches → a periodic report every
        // PROGRESS_INTERVAL (8) of them.
        let periodic: Vec<_> = progress
            .iter()
            .filter(|p| p.source == ProgressSource::OutputBatches)
            .collect();
        assert!(periodic.len() >= 4, "expected periodic reports, got {progress:?}");
        assert!(periodic.windows(2).all(|w| w[0].produced_rows < w[1].produced_rows));
        assert!(periodic.iter().all(|p| !p.exhausted && p.rel_set.len() == 2));

        // The outer side exhausted exactly once, reporting the true cardinality.
        let finals: Vec<_> = progress
            .iter()
            .filter(|p| p.source == ProgressSource::OuterExhausted)
            .collect();
        assert_eq!(finals.len(), 1);
        assert!(finals[0].exhausted);
        assert_eq!(finals[0].produced_rows, 200);
        let event = ExecEvent::Progress((*finals[0]).clone());
        assert!(event.is_exact());
        assert_eq!(event.observed_rows(), 200);
    }

    #[test]
    fn root_seam_suspension_delivers_the_inflight_batch_first() {
        let (storage, catalog) = build_env();
        // A projection root (no aggregate): the join's first progress report arms the
        // root seam mid-pull, but the pull's batch must still be delivered.
        let statement = parse_sql(
            "SELECT mk.movie_id AS m FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let optimizer = Optimizer::new(reopt_planner::OptimizerConfig {
            enable_hash_joins: false,
            enable_index_nl_joins: true,
            ..Default::default()
        });
        let planned = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap();
        let observer = RecordingObserver::new(ObserverDecision::SuspendAtRootSeam);
        let executor = Executor::with_batch_size(&storage, 2).with_threads(1);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
            .unwrap();

        // The join's first report falls on its PROGRESS_INTERVAL-th output batch.
        for pull in 1..=crate::PROGRESS_INTERVAL {
            let batch = pipeline.next_batch().unwrap();
            assert_eq!(batch.map(|b| b.len()), Some(2), "pull {pull} delivers its batch");
            assert!(!pipeline.is_suspended(), "suspension waits for the seam");
        }
        assert_eq!(observer.borrow().events.len(), 1, "the report armed the seam");
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
        assert!(pipeline.is_suspended());
        // Suspension on the seam keeps breaker state extractable, like mid-drain
        // suspension does (here there are no reusable breakers in an index-NL plan).
        let states = pipeline.take_breaker_states();
        assert!(states.is_empty());
    }

    // -----------------------------------------------------------------------
    // Out-of-core execution: memory governor + spill paths
    // -----------------------------------------------------------------------

    use reopt_storage::spill_file::live_spill_files;

    /// Spill tests assert the process-global live spill-file counter, so they
    /// serialize against each other (the rest of the battery never spills — the
    /// default governor is unlimited).
    fn spill_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Plan with hash joins only, so every join build is a governed breaker sink.
    fn hash_only_plan(
        sql: &str,
        storage: &Storage,
        catalog: &Catalog,
    ) -> reopt_planner::PlannedQuery {
        let optimizer = Optimizer::new(reopt_planner::OptimizerConfig {
            enable_index_scans: false,
            enable_index_nl_joins: false,
            ..Default::default()
        });
        let statement = parse_sql(sql).unwrap();
        optimizer
            .plan_select(
                statement.query().unwrap(),
                storage,
                catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap()
    }

    /// Order-insensitive row rendering for multiset identity checks.
    fn row_strings(rows: &[Row]) -> Vec<String> {
        let mut out: Vec<String> = rows.iter().map(|r| format!("{:?}", r.values())).collect();
        out.sort();
        out
    }

    #[test]
    fn grace_hash_join_matches_in_memory_and_cleans_up() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        // Text output columns: dictionary-coded values must round-trip through the
        // spill files.
        let sql = "SELECT mk.movie_id, k.keyword FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id";
        let planned = hash_only_plan(sql, &storage, &catalog);
        let reference = Executor::with_batch_size(&storage, 16)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(reference.metrics.root.total_spilled(), (0, 0));

        // 64 bytes is far below the ~110-byte keyword build side, but above every
        // grace-hash partition of it (1-2 rows each).
        let governor = MemoryGovernor::new(Some(64));
        let spilled = Executor::with_batch_size(&storage, 16)
            .with_threads(1)
            .with_governor(Arc::clone(&governor))
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(spilled.rows.len(), 200);
        assert_eq!(
            row_strings(&spilled.rows),
            row_strings(&reference.rows),
            "spilled run must be row-identical (as a multiset) to the in-memory run"
        );
        let (bytes, partitions) = spilled.metrics.root.total_spilled();
        assert!(bytes > 0 && partitions > 0, "join must have spilled: {bytes}/{partitions}");
        assert!(
            spilled.metrics.root.render().contains("spilled:"),
            "{}",
            spilled.metrics.root.render()
        );
        assert!(governor.denials() >= 1);
        assert_eq!(governor.reserved(), 0, "reservations released with the pipeline");
        assert_eq!(live_spill_files(), 0, "spill files removed with the pipeline");
    }

    #[test]
    fn spilled_join_skips_empty_partitions() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        // Two distinct build keys across a fanout of 8: most partitions are empty
        // and must be skipped without opening readers or losing rows.
        let sql = "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.id < 2";
        let planned = hash_only_plan(sql, &storage, &catalog);
        // The build carries k.id only: two 8-byte rows; spills 3 434 B in 16 runs.
        for threads in [1, 4] {
            let governor = MemoryGovernor::new(Some(8));
            let result = Executor::with_batch_size(&storage, 16)
                .with_threads(threads)
                .with_governor(governor)
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(result.rows[0].value(0), &Value::Int(40), "{threads} threads");
            assert!(result.metrics.root.total_spilled().0 > 0, "{threads} threads");
            assert_eq!(live_spill_files(), 0);
        }
    }

    #[test]
    fn external_sort_is_identical_to_in_memory() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        // A non-unique sort key: ties expose any stability divergence between the
        // in-memory stable sort and the k-way run merge.
        let sql = "SELECT t.title AS title, t.production_year AS year FROM title AS t
                   ORDER BY year";
        let planned = plan(sql, &storage, &catalog);
        let reference = Executor::with_batch_size(&storage, 16)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap();
        let governor = MemoryGovernor::new(Some(600));
        let spilled = Executor::with_batch_size(&storage, 16)
            .with_threads(1)
            .with_governor(Arc::clone(&governor))
            .execute(&planned.plan)
            .unwrap();
        let render = |rows: &[Row]| -> Vec<String> {
            rows.iter().map(|r| format!("{:?}", r.values())).collect()
        };
        assert_eq!(
            render(&spilled.rows),
            render(&reference.rows),
            "external sort must reproduce the in-memory order exactly, ties included"
        );
        let (bytes, runs) = spilled.metrics.root.total_spilled();
        assert!(bytes > 0 && runs >= 2, "expected multiple runs, got {bytes} bytes in {runs}");
        assert!(governor.denials() >= 1);
        assert_eq!(live_spill_files(), 0);
    }

    #[test]
    fn external_aggregation_merges_partial_states() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        let (agg_storage, agg_catalog) = agg_env();
        // Every accumulator kind crosses the spill encoding; groups recur across
        // runs (a flushed key reappears in later input), forcing state merges. The
        // `g` cases key on a native-int and on a dictionary column, whose group
        // caches must forget every flushed group; `sum(g.i)` carries an exact
        // integer total past 2^53 through the encoding.
        let agg_cases = "count(*) AS c, min(g.d) AS first, max(g.f) AS top, sum(g.i) AS total,
                         avg(g.v) AS mean, count(g.b) AS flags";
        for (storage, catalog, sql, budget, groups) in [
            (
                &storage,
                &catalog,
                "SELECT t.production_year AS y, count(*) AS c, min(t.title) AS first,
                        avg(t.id) AS mean
                 FROM title AS t GROUP BY t.production_year"
                    .to_string(),
                80,
                30,
            ),
            (
                &agg_storage,
                &agg_catalog,
                format!("SELECT g.k AS k, {agg_cases} FROM g AS g GROUP BY g.k"),
                10,
                4,
            ),
            (
                &agg_storage,
                &agg_catalog,
                format!("SELECT g.d AS d, {agg_cases} FROM g AS g GROUP BY g.d"),
                10,
                5,
            ),
        ] {
            let planned = plan(&sql, storage, catalog);
            let reference = Executor::with_batch_size(storage, 16)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            let governor = MemoryGovernor::new(Some(budget));
            let spilled = Executor::with_batch_size(storage, 16)
                .with_threads(1)
                .with_governor(Arc::clone(&governor))
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(spilled.rows.len(), groups, "{sql}");
            // External emission is in sorted-key order (in-memory is first-seen), so
            // compare as multisets.
            assert_eq!(row_strings(&spilled.rows), row_strings(&reference.rows), "{sql}");
            let (bytes, runs) = spilled.metrics.root.total_spilled();
            assert!(bytes > 0 && runs >= 2, "{sql}: {bytes} bytes in {runs} runs");
            assert_eq!(live_spill_files(), 0);
        }
    }

    #[test]
    fn memory_pressure_fires_before_spill_commits() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        let planned = hash_only_plan(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        for threads in [1, 4] {
            let observer = RecordingObserver::new(ObserverDecision::Continue);
            let governor = MemoryGovernor::new(Some(64));
            let executor = Executor::with_batch_size(&storage, 16)
                .with_threads(threads)
                .with_governor(governor);
            let mut pipeline = executor
                .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
                .unwrap();
            let mut rows = 0;
            while let Some(batch) = pipeline.next_batch().unwrap() {
                rows += batch.len();
            }
            assert_eq!(rows, 1);
            let events = &observer.borrow().events;
            let pressure_at = events
                .iter()
                .position(|e| matches!(e, ExecEvent::MemoryPressure(_)))
                .expect("a memory-pressure event");
            let build_at = events
                .iter()
                .position(|e| {
                    matches!(e, ExecEvent::BreakerComplete(b) if b.kind == BreakerKind::HashBuild)
                })
                .expect("the build completion");
            assert!(pressure_at < build_at, "pressure must precede the spilled build");
            let ExecEvent::MemoryPressure(pressure) = &events[pressure_at] else {
                unreachable!()
            };
            assert_eq!(pressure.kind, BreakerKind::HashBuild);
            assert_eq!(pressure.budget_bytes, 64);
            assert!(!events[pressure_at].is_exact(), "buffered counts are lower bounds");
            let build = events
                .iter()
                .find_map(|e| match e {
                    ExecEvent::BreakerComplete(b) if b.kind == BreakerKind::HashBuild => Some(b),
                    _ => None,
                })
                .unwrap();
            assert!(!build.reusable, "a spilled build is not a reusable materialization");
            assert_eq!(build.actual_rows, 10, "{threads} threads");
            drop(pipeline);
            assert_eq!(live_spill_files(), 0);
        }
    }

    /// Suspends the moment memory pressure is reported (the re-plan-instead-of-spill
    /// policy shape).
    struct SuspendOnPressure {
        saw: Option<MemoryPressureEvent>,
    }

    impl ExecutionObserver for SuspendOnPressure {
        fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
            if let ExecEvent::MemoryPressure(pressure) = event {
                self.saw = Some(pressure.clone());
                return ObserverDecision::Suspend;
            }
            ObserverDecision::Continue
        }
    }

    #[test]
    fn suspending_on_pressure_preempts_the_spill() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        let planned = hash_only_plan(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        for threads in [1, 4] {
            let monitor = Rc::new(RefCell::new(SuspendOnPressure { saw: None }));
            let governor = MemoryGovernor::new(Some(64));
            let executor = Executor::with_batch_size(&storage, 16)
                .with_threads(threads)
                .with_governor(Arc::clone(&governor));
            let mut pipeline = executor
                .open_observed(&planned.plan, Some(monitor.clone() as ObserverHandle))
                .unwrap();
            assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
            assert!(pipeline.is_suspended());
            let pressure = monitor.borrow().saw.clone().expect("pressure was observed");
            assert_eq!(pressure.kind, BreakerKind::HashBuild);
            // The suspension preempted the spill: no file was ever written, and the
            // re-optimizer takes over with every in-memory buffer intact.
            assert_eq!(live_spill_files(), 0, "suspension must preempt the spill");
            drop(pipeline);
            assert_eq!(live_spill_files(), 0);
            assert_eq!(governor.reserved(), 0, "{threads} threads");
        }
    }

    #[test]
    fn single_key_partition_over_budget_joins_at_depth_cap() {
        let _guard = spill_serial();
        // Every row shares one join key: no amount of repartitioning can split the
        // partition below the budget, so at the depth cap it joins by block nested
        // loop, one budget-sized build block per scan of its probe run.
        let mut storage = Storage::new();
        let mut build = Table::new(
            "skew_build",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::new("pad", DataType::Int),
            ]),
        );
        for i in 0..40i64 {
            build
                .push_row(Row::from_values(vec![Value::Int(1), Value::Int(i)]))
                .unwrap();
        }
        let mut probe = Table::new(
            "skew_probe",
            Schema::new(vec![Column::not_null("k", DataType::Int)]),
        );
        for _ in 0..200 {
            probe.push_row(Row::from_values(vec![Value::Int(1)])).unwrap();
        }
        storage.create_table(build).unwrap();
        storage.create_table(probe).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        let planned = hash_only_plan(
            "SELECT count(*) AS c FROM skew_probe AS p, skew_build AS b WHERE p.k = b.k",
            &storage,
            &catalog,
        );
        let unlimited = Executor::with_batch_size(&storage, 16)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap();
        for threads in [1, 4] {
            let governor = MemoryGovernor::new(Some(64));
            let result = Executor::with_batch_size(&storage, 16)
                .with_threads(threads)
                .with_governor(governor)
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(
                result.rows,
                vec![Row::from_values(vec![Value::Int(40 * 200)])]
            );
            assert_eq!(result.rows, unlimited.rows);
            assert!(
                result.metrics.root.total_spilled().0 > 0,
                "the join went out of core at {threads} threads"
            );
            drop(result);
            assert_eq!(live_spill_files(), 0, "every run is removed once joined");
        }
    }

    #[test]
    fn unsplittable_partition_joins_via_block_nested_loop_under_contention() {
        let _guard = spill_serial();
        // Every build row shares one join key, so repartitioning cannot split the
        // partition — but unlike the depth-cap case above, the partition fits the
        // *whole* budget: only the currently available grant is small,
        // because another operator's reservation holds most of the budget. The
        // join must fall back to block nested-loop (grant-sized build blocks,
        // probe run re-scanned per block) and still produce every match.
        let mut storage = Storage::new();
        let mut build = Table::new(
            "skew_build",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::new("pad", DataType::Int),
            ]),
        );
        for i in 0..40i64 {
            build
                .push_row(Row::from_values(vec![Value::Int(1), Value::Int(i)]))
                .unwrap();
        }
        let mut probe = Table::new(
            "skew_probe",
            Schema::new(vec![Column::not_null("k", DataType::Int)]),
        );
        for _ in 0..200 {
            probe.push_row(Row::from_values(vec![Value::Int(1)])).unwrap();
        }
        storage.create_table(build).unwrap();
        storage.create_table(probe).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        let planned = hash_only_plan(
            "SELECT count(*) AS c FROM skew_probe AS p, skew_build AS b WHERE p.k = b.k",
            &storage,
            &catalog,
        );
        let governor = MemoryGovernor::new(Some(4096));
        let mut contention = governor.reservation();
        assert!(contention.grow(4000), "the contending reservation must fit");
        let result = Executor::with_batch_size(&storage, 16)
            .with_threads(1)
            .with_governor(std::sync::Arc::clone(&governor))
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(
            result.rows,
            vec![Row::from_values(vec![Value::Int(8000)])],
            "block nested-loop must emit every cross match (40 build x 200 probe)"
        );
        let (spilled_bytes, partitions) = result.metrics.root.total_spilled();
        assert!(
            spilled_bytes > 0 && partitions > 0,
            "the unsplittable partition must have gone through the spill path"
        );
        drop(result);
        drop(contention);
        assert_eq!(live_spill_files(), 0, "chunked runs are removed once joined");
    }

    #[test]
    fn limit_early_exit_cleans_up_half_drained_spill() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        let governor = MemoryGovernor::new(Some(300));
        // LIMIT stops pulling long before the k-way merge drains its runs.
        let limited = plan(
            "SELECT t.title AS title FROM title AS t ORDER BY title LIMIT 5",
            &storage,
            &catalog,
        );
        // Dropping a pipeline mid-merge (runs still open) also cleans up.
        let unlimited = plan(
            "SELECT t.title AS title FROM title AS t ORDER BY title",
            &storage,
            &catalog,
        );
        for threads in [1, 4] {
            let executor = Executor::with_batch_size(&storage, 4)
                .with_threads(threads)
                .with_governor(Arc::clone(&governor));
            let result = executor.execute(&limited.plan).unwrap();
            assert_eq!(result.rows.len(), 5);
            assert_eq!(result.rows[0].value(0), &Value::from("movie 000"));
            let (bytes, runs) = result.metrics.root.total_spilled();
            assert!(bytes > 0 && runs >= 2, "{bytes} bytes in {runs} runs at {threads} threads");
            assert_eq!(live_spill_files(), 0, "abandoned runs die with the pipeline");
            assert_eq!(governor.reserved(), 0);

            let mut pipeline = executor.open(&unlimited.plan).unwrap();
            let first = pipeline.next_batch().unwrap().expect("first sorted batch");
            assert!(!first.is_empty());
            assert!(live_spill_files() > 0, "the merge holds live runs mid-flight");
            drop(pipeline);
            assert_eq!(live_spill_files(), 0);
            assert_eq!(governor.reserved(), 0);
        }
    }

    #[test]
    fn parallel_run_spills_in_the_morsel_engine() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        let planned = hash_only_plan(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id",
            &storage,
            &catalog,
        );
        let governor = MemoryGovernor::new(Some(64));
        // The parallel build sink's grant is denied: the build goes out of core in
        // the morsel engine itself, with the same rows out.
        let result = Executor::with_batch_size(&storage, 16)
            .with_threads(4)
            .with_governor(Arc::clone(&governor))
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(result.rows[0].value(0), &Value::Int(200));
        assert!(governor.denials() >= 1, "the parallel sink must have been denied");
        let (bytes, _) = result.metrics.root.total_spilled();
        assert!(bytes > 0, "the morsel engine spilled");
        assert_eq!(live_spill_files(), 0);
        assert_eq!(governor.reserved(), 0, "every grant released");
    }

    #[test]
    fn grouped_sort_over_a_join_spills_every_breaker_at_every_thread_count() {
        let _guard = spill_serial();
        let (storage, catalog) = build_env();
        let planned = hash_only_plan(
            "SELECT t.production_year AS y, count(*) AS c, min(mk.keyword_id) AS kw
             FROM movie_keyword AS mk, title AS t WHERE mk.movie_id = t.id
             GROUP BY t.production_year ORDER BY t.production_year",
            &storage,
            &catalog,
        );
        let reference = Executor::with_batch_size(&storage, 8)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(reference.rows.len(), 30);
        for threads in [1, 2, 4] {
            // 64 bytes deny the build, the group table and the sort buffer alike.
            let governor = MemoryGovernor::new(Some(64));
            let result = Executor::with_batch_size(&storage, 8)
                .with_threads(threads)
                .with_governor(Arc::clone(&governor))
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(result.rows, reference.rows, "{threads} threads");
            let mut spilled = Vec::new();
            let mut stack = vec![&result.metrics.root];
            while let Some(node) = stack.pop() {
                if node.metrics.spilled_bytes > 0 {
                    spilled.push(node.metrics.label.split(' ').take(2).collect::<Vec<_>>());
                }
                stack.extend(&node.children);
            }
            spilled.sort();
            let expected = [["Group", "Aggregate"], ["Hash", "Join"], ["Sort", "(1"]];
            assert_eq!(spilled, expected, "{threads} threads");
            assert_eq!(live_spill_files(), 0);
            assert_eq!(governor.reserved(), 0);
        }
    }

    /// Run `planned` at `threads` with the columnar path on and 8-row batches, so a
    /// 100-row table is several morsels and two threads really split it.
    fn run_at(
        planned: &reopt_planner::PlannedQuery,
        storage: &Storage,
        threads: usize,
    ) -> ExecutionResult {
        Executor::with_batch_size(storage, 8)
            .with_threads(threads)
            .with_columnar(true)
            .execute(&planned.plan)
            .unwrap()
    }

    #[test]
    fn count_star_counts_zero_column_scans_at_one_and_two_threads() {
        let (storage, catalog) = build_env();
        for (sql, expected) in [
            ("SELECT count(*) AS c FROM title AS t", 100),
            ("SELECT count(*) AS c FROM movie_keyword AS mk", 200),
            // production_year = 1990 + i % 30: i % 30 in 25..30, three times over.
            (
                "SELECT count(*) AS c FROM title AS t WHERE t.production_year >= 2015",
                15,
            ),
        ] {
            let planned = plan(sql, &storage, &catalog);
            // No column leaves the scan: its batches carry only a row count.
            assert!(planned.plan.children[0].schema.is_empty(), "{sql}");
            for threads in [1, 2] {
                let result = run_at(&planned, &storage, threads);
                assert_eq!(
                    result.rows,
                    vec![Row::from_values(vec![Value::Int(expected)])],
                    "{sql} at {threads} threads"
                );
            }
        }
    }

    /// `a(x, y, pad) ⋈ b(y, z, pad) ⋈ c(z, x, pad)` on the cycle `a.y = b.y`,
    /// `b.z = c.z`, `c.x = a.x`, indexed on `b.y`, `c.z` and `a.x`.
    /// Returns the storage, its statistics and each table's `[first, second]` pairs.
    fn cyclic_env() -> (Storage, Catalog, Vec<Vec<[i64; 2]>>) {
        let mut storage = Storage::new();
        let shapes: [(&str, [&str; 2], usize, [i64; 2]); 3] = [
            ("a", ["x", "y"], 40, [10, 7]),
            ("b", ["y", "z"], 30, [7, 5]),
            ("c", ["z", "x"], 25, [5, 10]),
        ];
        let mut data = Vec::new();
        for (name, [first, second], rows, [m1, m2]) in shapes {
            let mut table = Table::new(
                name,
                Schema::new(vec![
                    Column::not_null(first, DataType::Int),
                    Column::not_null(second, DataType::Int),
                    Column::new("pad", DataType::Text),
                ]),
            );
            let mut values = Vec::new();
            for i in 0..rows as i64 {
                let pair = [i % m1, (i * 3) % m2];
                table
                    .push_row(Row::from_values(vec![
                        Value::Int(pair[0]),
                        Value::Int(pair[1]),
                        Value::from(format!("{name}{i:02}")),
                    ]))
                    .unwrap();
                values.push(pair);
            }
            table
                .create_index(format!("{name}_idx"), first, IndexKind::Hash)
                .unwrap();
            storage.create_table(table).unwrap();
            data.push(values);
        }
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        (storage, catalog, data)
    }

    #[test]
    fn cyclic_join_residual_reads_columns_narrowed_away_above_it() {
        let (storage, catalog, data) = cyclic_env();
        let [a, b, c] = [&data[0], &data[1], &data[2]];
        // Brute force: a = (x, y), b = (y, z), c = (z, x); the pad of a is "a" + index.
        let mut expected_count = 0i64;
        let mut expected_min: Option<String> = None;
        for (ai, &[ax, ay]) in a.iter().enumerate() {
            for &[by, bz] in b {
                for &[cz, cx] in c {
                    if ay == by && bz == cz && cx == ax {
                        expected_count += 1;
                        let pad = format!("a{ai:02}");
                        if expected_min.as_ref().map_or(true, |m| &pad < m) {
                            expected_min = Some(pad);
                        }
                    }
                }
            }
        }
        assert!(expected_count > 0);
        let expected = vec![Row::from_values(vec![
            Value::Int(expected_count),
            Value::from(expected_min.unwrap()),
        ])];
        let sql = "SELECT count(*) AS n, min(a.pad) AS p FROM a AS a, b AS b, c AS c
                   WHERE a.y = b.y AND b.z = c.z AND c.x = a.x";
        let configs = [
            ("default", reopt_planner::OptimizerConfig::default()),
            (
                "index-nl",
                reopt_planner::OptimizerConfig {
                    enable_hash_joins: false,
                    ..Default::default()
                },
            ),
            (
                "nested-loop",
                reopt_planner::OptimizerConfig {
                    enable_hash_joins: false,
                    enable_index_nl_joins: false,
                    ..Default::default()
                },
            ),
            (
                "merge",
                reopt_planner::OptimizerConfig {
                    enable_hash_joins: false,
                    enable_index_nl_joins: false,
                    ..Default::default()
                },
            ),
        ];
        for (name, config) in configs {
            let statement = parse_sql(sql).unwrap();
            let planned = Optimizer::new(config)
                .plan_select(
                    statement.query().unwrap(),
                    &storage,
                    &catalog,
                    &CardinalityOverrides::new(),
                )
                .unwrap();
            let top = &planned.plan.children[0];
            assert_eq!(
                top.schema.len(),
                1,
                "{name}: only a.pad leaves the top join"
            );
            if name == "index-nl" || name == "nested-loop" {
                // The edge that closes the cycle is checked as a residual (or the
                // nested loop's predicate) over a column the join does not output.
                let residual = match &top.kind {
                    PlanKind::IndexNestedLoopJoin { residual, .. } => residual.clone(),
                    PlanKind::NestedLoopJoin { predicate } => predicate.clone(),
                    other => panic!("{name}: unexpected top join {other:?}"),
                }
                .expect("the cycle's third edge");
                let mut refs = Vec::new();
                collect_column_refs(&residual, &mut refs);
                assert!(
                    refs.iter()
                        .any(|r| !top.schema.contains(r.qualifier.as_deref(), &r.name)),
                    "{name}: {}",
                    residual.to_sql()
                );
            }
            for threads in [1, 2] {
                let result = run_at(&planned, &storage, threads);
                assert_eq!(result.rows, expected, "{name} at {threads} threads");
                // The index-NL residual runs on gathered columns; its batch
                // boundaries (carried pairs included) must not change the answer.
                for batch_size in [1, 7, 1024] {
                    let result = Executor::with_batch_size(&storage, batch_size)
                        .with_threads(threads)
                        .execute(&planned.plan)
                        .unwrap();
                    assert_eq!(
                        result.rows, expected,
                        "{name} at {threads} threads, batch {batch_size}"
                    );
                }
            }
        }
    }

    /// `g(k, d, i, f, b, v)`: 61 rows covering every column encoding the
    /// aggregation kernel reads in place — `k` a native-int key (0..4), `d` a
    /// dictionary with NULLs and the empty string, `i` ints with NULLs (all NULL
    /// where `k = 3`) and one value past 2^53, `f` floats with NULLs, `-0.0` and
    /// magnitudes whose naive sum rounds, `b` bools with NULLs, and `v` a float
    /// column holding ints too, which promotes it to exact `Val` storage.
    fn agg_env() -> (Storage, Catalog) {
        let mut g = Table::new(
            "g",
            Schema::new(vec![
                Column::not_null("k", DataType::Int),
                Column::new("d", DataType::Text),
                Column::new("i", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("b", DataType::Bool),
                Column::new("v", DataType::Float),
            ]),
        );
        for n in 0..61i64 {
            let k = n % 4;
            let d = match n % 5 {
                0 => Value::Null,
                1 => Value::from(""),
                2 => Value::from("gamma"),
                3 => Value::from("delta!"),
                _ => Value::from("b"),
            };
            let i = match (k, n) {
                (3, _) => Value::Null,
                (_, 17) => Value::Int(9_007_199_254_740_993),
                _ => Value::Int((n * 7919) % 101 - 50),
            };
            let f = match n % 6 {
                0 => Value::Null,
                1 => Value::Float(-0.0),
                2 => Value::Float(1e16),
                3 => Value::Float(-1e16),
                _ => Value::Float(0.1 * n as f64),
            };
            let b = if n % 3 == 0 { Value::Null } else { Value::Bool(n % 2 == 0) };
            let v = match n % 7 {
                0 => Value::Null,
                1 | 4 => Value::Int(n),
                _ => Value::Float(n as f64 + 0.25),
            };
            g.push_row(Row::from_values(vec![Value::Int(k), d, i, f, b, v]))
                .unwrap();
        }
        let mut storage = Storage::new();
        storage.create_table(g).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        (storage, catalog)
    }

    #[test]
    fn a_moved_table_read_scans_with_its_probe_truth_tables() {
        // The kernel probe builds the dictionary predicate's truth table; the read
        // then moves (as it does into a compiled source), and scanning with a copy
        // of the probe's cache finds the table instead of building another.
        let (storage, _) = agg_env();
        let table = lookup_table_arc(&storage, "g").unwrap();
        let full = relation_schema(&table, "g");
        let predicate = Expr::InList {
            expr: Box::new(Expr::Column(reopt_expr::ColumnRef::qualified("g", "d"))),
            list: vec![Value::from("gamma"), Value::from("b")],
            negated: false,
        };
        let read = TableRead::new(&full, &full.project(&[0]), Some(&predicate)).unwrap();
        let mut probed = MaskCache::new();
        assert!(read.kernel_covers(&table, &mut probed));
        assert_eq!(probed.len(), 1);
        let moved = Box::new(read);
        let mut cache = probed.clone();
        let batch = moved
            .scan(&table, 0..table.row_count(), true, &mut cache)
            .unwrap();
        assert_eq!(cache.len(), 1, "the scan reused the probe's truth table");
        // Rows 2, 4, 7, 9, ... of the 61: d is "gamma" at n % 5 == 2, "b" at 4.
        assert_eq!(
            batch.len(),
            (0..61).filter(|n| n % 5 == 2 || n % 5 == 4).count()
        );
    }

    #[test]
    fn aggregation_kernel_matches_the_row_engine() {
        let (storage, catalog) = agg_env();
        let aggs = "count(*) AS n,
            min(g.d) AS d1, max(g.d) AS d2, count(g.d) AS d3, sum(g.d) AS d4, avg(g.d) AS d5,
            min(g.i) AS i1, max(g.i) AS i2, count(g.i) AS i3, sum(g.i) AS i4, avg(g.i) AS i5,
            min(g.f) AS f1, max(g.f) AS f2, count(g.f) AS f3, sum(g.f) AS f4, avg(g.f) AS f5,
            min(g.b) AS b1, max(g.b) AS b2, count(g.b) AS b3, sum(g.b) AS b4, avg(g.b) AS b5,
            min(g.v) AS v1, max(g.v) AS v2, count(g.v) AS v3, sum(g.v) AS v4, avg(g.v) AS v5";
        let queries = [
            format!("SELECT {aggs} FROM g AS g"),
            format!("SELECT g.d AS d, {aggs} FROM g AS g GROUP BY g.d"),
            format!("SELECT g.k AS k, {aggs} FROM g AS g GROUP BY g.k"),
            format!("SELECT g.i AS i, {aggs} FROM g AS g GROUP BY g.i"),
            format!("SELECT g.b AS b, {aggs} FROM g AS g GROUP BY g.b"),
            format!("SELECT g.v AS v, {aggs} FROM g AS g GROUP BY g.v"),
            format!("SELECT g.k AS k, g.d AS d, {aggs} FROM g AS g GROUP BY g.k, g.d"),
            // Expression keys and arguments read rows (the one fallback).
            format!("SELECT {aggs} FROM g AS g GROUP BY g.k + 1"),
            format!("SELECT sum(g.i + g.k) AS e1, min(g.k * 2) AS e2, {aggs} FROM g AS g"),
            format!(
                "SELECT g.k AS k, sum(g.i + g.k) AS e1, min(g.k * 2) AS e2, {aggs}
                 FROM g AS g GROUP BY g.k"
            ),
            // A kernel-covered filter keeps the batches columnar (masked).
            format!("SELECT g.d AS d, {aggs} FROM g AS g WHERE g.k < 3 GROUP BY g.d"),
            // Empty input, with and without GROUP BY.
            format!("SELECT {aggs} FROM g AS g WHERE g.k > 100"),
            format!("SELECT g.k AS k, {aggs} FROM g AS g WHERE g.k > 100 GROUP BY g.k"),
        ];
        // `{:?}` tells `Int(2)` from `Float(2.0)` and renders every float
        // bit-exactly, which `Value`'s numeric equality would not.
        let render = |rows: &[Row]| format!("{rows:?}");
        for sql in &queries {
            let planned = plan(sql, &storage, &catalog);
            let reference = Executor::new(&storage)
                .with_threads(1)
                .with_columnar(false)
                .execute(&planned.plan)
                .unwrap();
            for threads in [1, 2] {
                for batch_size in [1, 7, 1024] {
                    for columnar in [true, false] {
                        let result = Executor::with_batch_size(&storage, batch_size)
                            .with_threads(threads)
                            .with_columnar(columnar)
                            .execute(&planned.plan)
                            .unwrap();
                        assert_eq!(
                            render(&result.rows),
                            render(&reference.rows),
                            "{sql}: threads {threads}, batch {batch_size}, columnar {columnar}"
                        );
                    }
                }
            }
        }

        // A budget far below one batch's groups flushes mid-batch: each flush must
        // also empty the code / int caches, or later rows would update groups that
        // are already on disk. External emission is key-sorted, so compare as sets.
        let _guard = spill_serial();
        for key in ["g.d", "g.k", "g.k, g.d", "g.i"] {
            let sql = format!("SELECT {key}, {aggs} FROM g AS g GROUP BY {key}");
            let planned = plan(&sql, &storage, &catalog);
            let reference = Executor::new(&storage)
                .with_threads(1)
                .with_columnar(false)
                .execute(&planned.plan)
                .unwrap();
            for threads in [1, 2] {
                for batch_size in [7, 1024] {
                    let governor = MemoryGovernor::new(Some(10));
                    let result = Executor::with_batch_size(&storage, batch_size)
                        .with_threads(threads)
                        .with_governor(Arc::clone(&governor))
                        .execute(&planned.plan)
                        .unwrap();
                    assert_eq!(
                        row_strings(&result.rows),
                        row_strings(&reference.rows),
                        "{sql}: threads {threads}, batch {batch_size}"
                    );
                    let (bytes, runs) = result.metrics.root.total_spilled();
                    assert!(runs >= 2, "{sql}: {bytes} bytes in {runs} runs");
                    assert_eq!(live_spill_files(), 0);
                }
            }
        }
    }

    #[test]
    fn integer_sum_is_exact_and_overflow_is_an_error() {
        let table = |values: &[i64]| {
            let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
            for &a in values {
                t.push_row(Row::from_values(vec![Value::Int(a)])).unwrap();
            }
            let mut storage = Storage::new();
            storage.create_table(t).unwrap();
            let mut catalog = Catalog::new();
            catalog.analyze_all(&storage).unwrap();
            (storage, catalog)
        };
        let sql = "SELECT sum(t.a) AS s, max(t.a) AS m FROM t AS t";
        // 2^53 + 1 has no f64: summing through floats returned 2^53.
        let (storage, catalog) = table(&[9_007_199_254_740_993, 0]);
        let planned = plan(sql, &storage, &catalog);
        let (over_storage, over_catalog) = table(&[i64::MAX, 1]);
        let over = plan(sql, &over_storage, &over_catalog);
        for threads in [1, 2] {
            for columnar in [true, false] {
                let result = Executor::with_batch_size(&storage, 1)
                    .with_threads(threads)
                    .with_columnar(columnar)
                    .execute(&planned.plan)
                    .unwrap();
                assert_eq!(
                    format!("{:?}", result.rows),
                    format!(
                        "{:?}",
                        vec![Row::from_values(vec![
                            Value::Int(9_007_199_254_740_993),
                            Value::Int(9_007_199_254_740_993)
                        ])]
                    ),
                    "threads {threads}, columnar {columnar}"
                );
                // A total outside i64 is an error, never a saturated value.
                let error = Executor::with_batch_size(&over_storage, 1)
                    .with_threads(threads)
                    .with_columnar(columnar)
                    .execute(&over.plan)
                    .unwrap_err();
                assert!(
                    matches!(&error, ExecError::Eval(detail) if detail.contains("out of range")),
                    "threads {threads}, columnar {columnar}: {error}"
                );
            }
        }
    }
}
