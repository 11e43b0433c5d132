//! Morsel-driven parallel execution.
//!
//! The plan is decomposed into *pipelines* at pipeline-breaker seams, exactly the
//! decomposition HyPer-style morsel-driven schedulers use: every hash-join build side
//! is a pipeline that terminates in a build sink, the probe spine is a pipeline that
//! terminates at the root (or at an aggregate/sort sink), and pipelines execute in
//! dependency order — a join's build pipeline completes (and fires its
//! [`BreakerEvent`]) before the probe pipeline that consumes the hash table starts.
//!
//! Within one pipeline the driving source (a table heap, an index-scan row-id list, or
//! a materialized breaker output) is split into **morsels** — runs of
//! [`MORSEL_BATCHES`] batches — claimed through an atomic work-stealing cursor by
//! *chain jobs* running on the process-wide resident [`WorkerPool`]: each query
//! registers as a pool task, and each chain job processes one morsel then re-enqueues
//! itself at the back of its task's queue, so concurrent queries interleave at morsel
//! granularity under the pool's priority + round-robin discipline (see
//! [`crate::pool`]). A chain job pushes its morsel through the pipeline's operator
//! chain (filters, projections, hash probes against the shared immutable partitioned
//! hash table, index-NL probes against shared storage) and feeds the pipeline sink:
//!
//! * **root / sort sinks** exchange row batches through a *bounded* channel to the
//!   coordinator, so streaming operators keep flat memory no matter how fast workers
//!   produce; for streaming-shaped roots the exchange stays live across `next_batch`
//!   pulls — the pool keeps producing (up to the channel bound) while the client
//!   consumes, instead of buffering the whole root result in the first pull;
//! * **hash-join build sinks** partition rows by join-key hash into per-worker,
//!   per-partition buffers; the merge step assembles one hash-table partition per
//!   worker in parallel once every worker finished, ordering every bucket by the
//!   build rows' `(morsel, sequence)` tags so probe fan-out order is run-identical
//!   to the single-threaded build order;
//! * **aggregation sinks** fold their batches with the same aggregation kernel as
//!   the single-threaded engine into per-worker group tables, merged by the
//!   coordinator at the breaker. Accumulator merging is *exact* for every
//!   aggregate — SUM/AVG accumulate float terms into a fixed-point
//!   superaccumulator ([`crate::exact::ExactSum`]) and integer terms into an `i128`,
//!   and round once at emission — and groups are emitted in first-seen
//!   `(morsel, sequence)` order, so results are bit-identical across runs, thread
//!   counts and merge orders;
//! * **nested-loop inners** are collected in morsel order and probed block-wise:
//!   every outer morsel loops the shared buffered inner (`StepKind::NlProbe`);
//! * **LIMIT roots** use a morsel-ordered exchange: workers tag batches with their
//!   morsel index and the coordinator reassembles them in morsel order, quiescing
//!   the query through the per-query quiesce flag the moment the limit is
//!   satisfied — output is run-identical to the single-threaded engine.
//!
//! Pipelines whose source is smaller than two morsels run *inline* on the coordinator
//! through the same chain/sink code, so tiny dimension-table builds never pay thread
//! spawn latency.
//!
//! # The observer contract under parallelism
//!
//! The installed [`ExecutionObserver`](crate::exec::ExecutionObserver) is only ever
//! invoked from the coordinator thread (observers are deliberately not `Send`). Events
//! funnel to it in a defined order:
//!
//! * workers enqueue [`ProgressEvent`]s into a mutex-ordered queue (snapshots are taken
//!   under the queue lock, so produced-row counts are monotonic in delivery order);
//! * the coordinator drains that queue — in queue order — before delivering any
//!   coordinator-generated event, and emits exactly one [`BreakerEvent`] per breaker,
//!   carrying worker-aggregated actual rows, when the merge step completes;
//! * breaker events therefore arrive innermost-first, exactly as in single-threaded
//!   execution.
//!
//! A `Suspend` decision sets the *query's own* quiesce flag; its chain jobs observe it
//! on the next batch boundary and retire, the coordinator waits for its gate, and the
//! pipeline reports
//! [`ExecError::Suspended`] with every *completed* build retained so
//! [`Pipeline::take_breaker_states`](crate::exec::Pipeline::take_breaker_states) still
//! extracts reusable state — mid-query re-optimization works unchanged at
//! `threads > 1`. `SuspendAtRootSeam` also quiesces, but the first already-produced
//! root batch is delivered before the next pull reports `Suspended`.
//!
//! Per-operator metrics aggregate across workers: `actual_rows`/`batches` are summed
//! atomics, `elapsed` is the summed per-operator CPU time across all workers (so it
//! can exceed wall clock), `exhausted` is only set when an operator's whole pipeline
//! ran to completion, and buffered rows are tracked through one shared atomic
//! high-water mark.
//!
//! # Lazy build scheduling
//!
//! Pipelines form a dependency DAG: a probe pipeline depends on its hash-build and
//! nested-loop-inner pipelines, which in turn depend on whatever breakers feed
//! *them*. `Engine::compile` walks the probe spine collecting the chain steps and
//! **registering** build pipelines without executing them; builds run only after the
//! spine's own source is runnable, innermost-first, with a stop check between each —
//! so a suspension decision taken on an inner breaker (the common mid-query
//! re-optimization case) skips every outer build the re-plan is about to discard
//! instead of paying for it eagerly. [`lazy_builds_planned_total`] /
//! [`lazy_builds_started_total`] count registered vs actually-started builds
//! process-wide.
//!
//! Every plan shape now has a parallel implementation; [`fallback_reason`] exists so
//! a future regression (a new plan kind without parallel support) degrades to an
//! *observable* single-threaded fallback — the reason is surfaced in
//! `EXPLAIN ANALYZE` and counted in [`plan_fallbacks_total`] — rather than a silent
//! one.

use crate::error::ExecError;
use crate::exec::{
    bind as bind_exec, bind_opt as bind_exec_opt, extract_key,
    key_index as key_index_exec, open_single, probe_label, relation_schema, resolve_index_row_ids,
    scan_encoding_label, Batch, BreakerEvent, BreakerKind, BreakerState, ExecConfig,
    ExecEvent, JoinRows, MemoryPressureEvent, ObserverHandle, ProgressEvent, ProgressSource,
    RowBatch, SinglePipeline, TableRead,
};
use crate::agg::{AggKernel, GroupTable, Tag};
use crate::index_nl::{Cursor, IndexNlKernel, Pairs};
use crate::metrics::{MetricsNode, OperatorMetrics, QueryMetrics};
use crate::pool::{Gate, TaskHandle, WorkerPool};
use reopt_expr::{Expr, MaskCache};
use reopt_planner::{PhysicalPlan, PlanKind, RelSet};
use reopt_storage::{Index, IndexKind, Row, Schema, Storage, Table, Value};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Rows per morsel, in units of the executor batch size: each morsel is a contiguous
/// run of this many batches of the pipeline's driving source.
pub const MORSEL_BATCHES: usize = 4;

/// Why a plan would fall back to the single-threaded engine, or `None` when the
/// parallel engine implements every operator in it. Every current plan shape —
/// including plain nested-loop joins, LIMIT and float SUM/AVG — has a
/// parallel implementation, so today this always returns `None`; it exists so that a
/// future plan kind without parallel support degrades to an *observable* fallback
/// (surfaced in `EXPLAIN ANALYZE` / `ReoptReport` and counted in
/// [`plan_fallbacks_total`]) rather than a silent single-core run.
pub fn fallback_reason(plan: &PhysicalPlan) -> Option<&'static str> {
    // LIMIT is parallelized as a morsel-ordered root exchange; anywhere below the
    // root the planner never places it, and the spine compiler has no step for it.
    fn below_root(plan: &PhysicalPlan) -> Option<&'static str> {
        if matches!(plan.kind, PlanKind::Limit { .. }) {
            return Some("LIMIT below the plan root");
        }
        plan.children.iter().find_map(below_root)
    }
    plan.children.iter().find_map(below_root)
}

/// Whether the parallel engine implements every operator in the plan. Plans that fail
/// this check execute on the single-threaded engine regardless of the configured
/// thread count (see [`fallback_reason`] for the why).
pub fn plan_supported(plan: &PhysicalPlan) -> bool {
    fallback_reason(plan).is_none()
}

/// Plans that fell back to the single-threaded engine because of their *shape*
/// (`fallback_reason` returned `Some`) despite `threads > 1`, process-wide.
/// Memory-budget spill restarts are deliberately not counted — they are a resource
/// decision, not a coverage gap.
static PLAN_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of plan-shape fallbacks to the single-threaded engine at
/// `threads > 1` (see [`fallback_reason`]). perf_smoke asserts this stays zero
/// across the whole 56-query workload.
pub fn plan_fallbacks_total() -> u64 {
    PLAN_FALLBACKS.load(Ordering::SeqCst)
}

pub(crate) fn note_plan_fallback() {
    PLAN_FALLBACKS.fetch_add(1, Ordering::SeqCst);
}

/// Build pipelines registered by the lazy scheduler (see the module docs).
static BUILDS_PLANNED: AtomicU64 = AtomicU64::new(0);
/// Build pipelines actually executed (`<= BUILDS_PLANNED`; the difference is builds
/// skipped because the query suspended before they became runnable).
static BUILDS_STARTED: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of build pipelines registered in compiled probe spines.
pub fn lazy_builds_planned_total() -> u64 {
    BUILDS_PLANNED.load(Ordering::SeqCst)
}

/// Process-wide count of build pipelines actually executed. Strictly less than
/// [`lazy_builds_planned_total`] whenever suspensions skipped builds a re-plan
/// discarded.
pub fn lazy_builds_started_total() -> u64 {
    BUILDS_STARTED.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Shared (Sync) run state
// ---------------------------------------------------------------------------

/// Why the coordinator stopped the run before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopMode {
    /// `ObserverDecision::Suspend`: discard in-flight output, report `Suspended`.
    Immediate,
    /// `ObserverDecision::SuspendAtRootSeam`: deliver the first produced root batch,
    /// then report `Suspended`.
    Seam,
}

/// State shared between the coordinator and the workers (everything here is `Sync`).
struct Shared {
    /// Set by the coordinator to quiesce every worker at the next batch boundary.
    quiesce: AtomicBool,
    /// Set alongside `quiesce` for a root-seam suspension: workers finish their
    /// in-flight batch (so it can be delivered) instead of dropping it mid-step.
    seam: AtomicBool,
    /// Whether an observer is installed (workers skip event bookkeeping otherwise).
    observer_active: bool,
    /// The executor's settings; breaker sinks reserve against `config.governor`.
    config: ExecConfig,
    /// Worker-enqueued events, drained by the coordinator in FIFO order.
    events: Mutex<VecDeque<ExecEvent>>,
    /// First worker error; its presence also quiesces the run.
    error: Mutex<Option<ExecError>>,
    /// Rows currently buffered by breakers (partial and merged states alike).
    buffered_current: AtomicU64,
    /// High-water mark of `buffered_current`.
    buffered_peak: AtomicU64,
    /// Bytes currently buffered by breakers (same accounting points as rows).
    buffered_bytes_current: AtomicU64,
    /// High-water mark of `buffered_bytes_current`.
    buffered_bytes_peak: AtomicU64,
    /// Bytes this run currently holds from the governor (released when the run's
    /// shared state drops, matching the single-threaded reservation lifetime).
    reserved: AtomicU64,
    /// A breaker sink's reservation was denied: the parallel engine has no spill
    /// path of its own, so the run aborts with [`ExecError::Spill`] and the
    /// pipeline facade restarts it on the single-threaded spill engine (unless
    /// the observer chose to suspend on the memory-pressure event instead).
    spill_needed: AtomicBool,
}

impl Shared {
    fn acquire(&self, rows: u64, bytes: u64) {
        let current = self.buffered_current.fetch_add(rows, Ordering::SeqCst) + rows;
        self.buffered_peak.fetch_max(current, Ordering::SeqCst);
        let current_bytes = self
            .buffered_bytes_current
            .fetch_add(bytes, Ordering::SeqCst)
            + bytes;
        self.buffered_bytes_peak
            .fetch_max(current_bytes, Ordering::SeqCst);
    }

    fn fail(&self, error: ExecError) {
        let mut slot = self.error.lock().expect("error lock");
        if slot.is_none() {
            *slot = Some(error);
        }
        self.quiesce.store(true, Ordering::SeqCst);
    }

    /// Try to reserve `bytes` of the run's memory budget. Unlimited budgets (the
    /// default) return immediately without touching shared counters.
    fn try_reserve(&self, bytes: u64) -> bool {
        if self.config.governor.is_unlimited() {
            return true;
        }
        if self.config.governor.try_reserve(bytes) {
            self.reserved.fetch_add(bytes, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// The memory-pressure event describing a denied reservation at `kind`.
    fn pressure_event(&self, kind: BreakerKind, rel_set: RelSet, estimated_rows: f64) -> ExecEvent {
        ExecEvent::MemoryPressure(MemoryPressureEvent {
            kind,
            rel_set,
            estimated_rows,
            buffered_rows: self.buffered_current.load(Ordering::SeqCst),
            buffered_bytes: self.reserved.load(Ordering::SeqCst),
            budget_bytes: self.config.governor.budget().unwrap_or(0),
        })
    }

    /// Worker-side reservation: on denial, surface memory pressure to the observer
    /// (via the event queue), mark the run as needing the spill engine, and return
    /// the [`ExecError::Spill`] that aborts it. If the observer suspends on the
    /// pressure event the coordinator resolves the abort as a suspension instead.
    fn reserve_or_spill(
        &self,
        bytes: u64,
        kind: BreakerKind,
        rel_set: RelSet,
        estimated_rows: f64,
    ) -> Result<(), ExecError> {
        if self.try_reserve(bytes) {
            return Ok(());
        }
        if self.observer_active {
            self.events
                .lock()
                .expect("event queue")
                .push_back(self.pressure_event(kind, rel_set, estimated_rows));
        }
        self.spill_needed.store(true, Ordering::SeqCst);
        Err(ExecError::Spill(
            "memory budget exceeded in the parallel engine; restarting on the single-threaded spill engine"
                .into(),
        ))
    }

    /// Whether in-flight work should be abandoned mid-step (immediate suspension or
    /// an error — but not a seam suspension, whose in-flight batch is delivered).
    fn drop_inflight(&self) -> bool {
        self.quiesce.load(Ordering::Relaxed) && !self.seam.load(Ordering::Relaxed)
    }

    /// Worker-side backpressure behind the observer: yield (bounded) until the
    /// coordinator drained the event queue. The single-threaded engine dispatches
    /// events synchronously from inside the producing operator; this approximates
    /// that under parallelism, so a suspension decision stops the pool after at most
    /// one in-flight step per worker instead of however much work the pool can race
    /// through while the coordinator thread waits for CPU (which on few-core hosts
    /// can be milliseconds).
    fn wait_for_event_drain(&self) {
        if !self.observer_active {
            return;
        }
        for _ in 0..100_000 {
            if self.quiesce.load(Ordering::Relaxed) {
                return;
            }
            if self.events.lock().expect("event queue").is_empty() {
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // The run's breaker buffers die with its shared state (chains, tables and
        // partial sinks all hold an `Arc<Shared>`), so this is where the governor
        // reservation is returned — mirroring the single-threaded engine, whose
        // `Reservation` releases when the operator tree drops.
        self.config.governor.release(*self.reserved.get_mut());
    }
}

/// Per-plan-node execution counters (the parallel analogue of `OpStats`).
#[derive(Default)]
struct ParStats {
    rows: AtomicU64,
    batches: AtomicU64,
    nanos: AtomicU64,
    exhausted: AtomicBool,
    /// For scans: how the source read its input (set once at pipeline compile).
    encoding: OnceLock<&'static str>,
    /// For index nested-loop joins: how the probe step runs (set at compile).
    probe: OnceLock<&'static str>,
}

impl ParStats {
    fn record(&self, rows: usize, elapsed: Duration) {
        if rows > 0 {
            self.rows.fetch_add(rows as u64, Ordering::SeqCst);
            self.batches.fetch_add(1, Ordering::SeqCst);
        }
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::SeqCst);
    }
}

/// The stats tree, shaped like the plan tree.
struct StatsTree {
    stats: std::sync::Arc<ParStats>,
    children: Vec<StatsTree>,
}

fn build_stats_tree(plan: &PhysicalPlan) -> StatsTree {
    StatsTree {
        stats: std::sync::Arc::new(ParStats::default()),
        children: plan.children.iter().map(build_stats_tree).collect(),
    }
}

fn assemble_metrics(plan: &PhysicalPlan, stats: &StatsTree) -> MetricsNode {
    let children: Vec<MetricsNode> = plan
        .children
        .iter()
        .zip(&stats.children)
        .map(|(p, s)| assemble_metrics(p, s))
        .collect();
    let own = stats.stats.exhausted.load(Ordering::SeqCst);
    // A satisfied LIMIT is a finished operator even though its (truncated-early)
    // child is not — matching the single-threaded `LimitOp`, which stops pulling.
    let exhausted = if matches!(plan.kind, PlanKind::Limit { .. }) {
        own
    } else {
        own && children.iter().all(|child| child.metrics.exhausted)
    };
    MetricsNode {
        metrics: OperatorMetrics {
            label: plan.label(),
            rel_set: plan.rel_set,
            is_join: plan.is_join(),
            estimated_rows: plan.estimated_rows,
            actual_rows: stats.stats.rows.load(Ordering::SeqCst),
            batches: stats.stats.batches.load(Ordering::SeqCst),
            exhausted,
            elapsed: Duration::from_nanos(stats.stats.nanos.load(Ordering::SeqCst)),
            encoding: stats.stats.encoding.get().copied(),
            probe: stats.stats.probe.get().copied(),
            // The parallel engine never spills: a denied reservation aborts the run
            // and the facade restarts it on the single-threaded spill engine.
            spilled_bytes: 0,
            spill_partitions: 0,
        },
        children,
    }
}

// ---------------------------------------------------------------------------
// Shared hash table for parallel joins
// ---------------------------------------------------------------------------

/// Rows of one build partition buffer: output tag, pre-extracted join key, row.
type KeyedRows = Vec<(Tag, Vec<Value>, Row)>;

/// One merged hash-table partition: join key → matching build rows.
type PartitionMap = HashMap<Vec<Value>, Vec<Row>>;

/// The merged, immutable result of a partitioned parallel hash-join build: one hash
/// map per partition (partitioned by join-key hash), probed concurrently by every
/// worker of the probe pipeline. NULL-key rows never match an equi-join but are part
/// of the breaker's materialization, so they are retained for state extraction.
#[derive(Clone)]
struct JoinTable {
    hasher: RandomState,
    parts: Vec<PartitionMap>,
    unkeyed: Vec<Row>,
    total_rows: u64,
}

impl JoinTable {
    fn partition_of(&self, key: &[Value]) -> usize {
        (self.hasher.hash_one(key) as usize) % self.parts.len()
    }

    fn lookup(&self, key: &[Value]) -> &[Row] {
        self.parts[self.partition_of(key)]
            .get(key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Flatten back into the breaker's materialized rows (bag semantics; the order is
    /// unspecified, like any registered virtual table).
    fn into_rows(self) -> Vec<Row> {
        let mut rows = self.unkeyed;
        for part in self.parts {
            for (_, mut bucket) in part {
                rows.append(&mut bucket);
            }
        }
        rows
    }
}

/// The materialized payload of a completed parallel breaker.
enum BuildPayload {
    Hash(std::sync::Arc<JoinTable>),
    Rows(std::sync::Arc<Vec<Row>>),
}

/// A completed parallel build retained (only for observed pipelines) so that
/// suspension can surrender it as a [`BreakerState`].
struct CompletedBuild {
    kind: BreakerKind,
    rel_set: reopt_planner::RelSet,
    schema: Schema,
    payload: BuildPayload,
}

// ---------------------------------------------------------------------------
// Pipeline sources and operator chain steps
// ---------------------------------------------------------------------------

/// The driving input of one pipeline, split into morsels. Sources own `Arc`
/// handles to their tables (not borrows) so a compiled pipeline is `'static` and
/// its chain jobs can run on the resident pool, outliving any one stack frame.
enum Source {
    /// A sequential scan over a table's column chunks. Each morsel chunk slices
    /// only the columns the predicate or the output reads (see [`TableRead`]);
    /// when the vectorized kernel covers the predicate the selection runs over the
    /// typed columns (dictionary codes compare as integers). The masked column
    /// batch enters the chain as it is: an index probe reads it in place, every
    /// other step decodes it, and a pipeline without steps hands it to its sink.
    Table {
        table: Arc<Table>,
        read: TableRead,
        /// Whether the vectorized kernel covers the predicate (probed at compile
        /// time against a zero-row slice, which preserves the real column
        /// representations).
        kernel: bool,
        stats: Arc<ParStats>,
    },
    /// An index scan: the row-id list is resolved up front by the coordinator;
    /// each fetched row decodes only the columns its residual or output reads.
    TableIds {
        table: Arc<Table>,
        ids: Vec<usize>,
        read: TableRead,
        stats: Arc<ParStats>,
    },
    /// A materialized upstream breaker output (aggregate/sort emission).
    Rows(Vec<Row>),
}

impl Source {
    fn len(&self) -> usize {
        match self {
            Source::Table { table, .. } => table.row_count(),
            Source::TableIds { ids, .. } => ids.len(),
            Source::Rows(rows) => rows.len(),
        }
    }

    /// Materialize one batch-sized chunk of the source, applying the scan predicate.
    /// `mask_cache` is the calling worker's private kernel cache (truth tables are
    /// rebuilt per worker rather than shared behind a lock).
    fn scan(
        &self,
        range: std::ops::Range<usize>,
        mask_cache: &mut MaskCache,
    ) -> Result<Batch, ExecError> {
        let start = Instant::now();
        let out = match self {
            Source::Table {
                table,
                read,
                kernel,
                ..
            } => read.scan(table, range, *kernel, mask_cache)?,
            Source::TableIds {
                table, ids, read, ..
            } => {
                let mut scratch = read.scratch();
                let mut out = Vec::new();
                for &row_id in &ids[range] {
                    out.extend(read.fetch_row(table, row_id, &mut scratch)?);
                }
                Batch::Rows(out)
            }
            Source::Rows(rows) => Batch::Rows(rows[range].to_vec()),
        };
        match self {
            Source::Table { stats, .. } | Source::TableIds { stats, .. } => {
                stats.record(out.len(), start.elapsed());
            }
            Source::Rows(_) => {}
        }
        Ok(out)
    }

    fn mark_exhausted(&self) {
        match self {
            Source::Table { stats, .. } | Source::TableIds { stats, .. } => {
                stats.exhausted.store(true, Ordering::SeqCst);
            }
            Source::Rows(_) => {}
        }
    }
}

/// Progress metadata of a join step (mirrors the single-threaded `ProgressMeter`).
struct ProgressInfo {
    rel_set: reopt_planner::RelSet,
    estimated_rows: f64,
    /// Index-NL joins report a final exact cardinality once their pipeline drains.
    reports_exhaustion: bool,
}

/// One streaming operator of a pipeline chain.
enum StepKind {
    Filter(Expr),
    Project(Vec<Expr>),
    HashProbe {
        table: Arc<JoinTable>,
        keys: Vec<usize>,
        rows: JoinRows,
    },
    IndexProbe {
        table: Arc<Table>,
        /// The inner join-key column; the index over it (when `use_index`) is
        /// re-resolved per batch because an `&Index` borrow into the `Arc`'d
        /// table cannot live in a `'static` chain job. The lookup scans the
        /// table's few indexes — negligible next to probing a batch.
        inner_key_idx: usize,
        use_index: bool,
        /// Without a usable index: one built over the key column at compile time.
        transient: Option<Arc<Index>>,
        /// The shared kernel (its row read and assembly serve the row path).
        kernel: Box<IndexNlKernel>,
        /// Whether the step runs the kernel over column batches (`columnar`), or
        /// one outer row at a time.
        columnar: bool,
    },
    /// Plain nested-loop probe: every outer row of the morsel loops the shared
    /// buffered inner side (block-partitioned outer, exactly the single-threaded
    /// operator's pairing order per outer row).
    NlProbe {
        inner: Arc<Vec<Row>>,
        /// Output-row assembly; the join predicate is its residual.
        rows: JoinRows,
    },
}

struct Step {
    kind: StepKind,
    stats: Arc<ParStats>,
    progress: Option<ProgressInfo>,
}

impl Step {
    /// Apply the step to one batch, recording stats in output-batch units (a fan-out
    /// join may produce several batches' worth of rows from one input chunk) and, for
    /// join steps with an observer installed, enqueueing periodic progress events. The
    /// index probe reads and emits column batches; the other steps decode on entry.
    fn apply(
        &self,
        batch: Batch,
        shared: &Shared,
        batch_size: usize,
        cache: &mut MaskCache,
    ) -> Result<Batch, ExecError> {
        let start = Instant::now();
        // The join residual's compact row, reused across the batch.
        let mut scratch = Row::default();
        let out = match &self.kind {
            StepKind::Filter(predicate) => {
                let mut batch = batch.into_rows();
                predicate.filter_batch(&mut batch)?;
                Batch::Rows(batch)
            }
            StepKind::Project(exprs) => {
                let batch = batch.into_rows();
                let mut out = Vec::with_capacity(batch.len());
                for row in &batch {
                    let mut values = Vec::with_capacity(exprs.len());
                    for expr in exprs {
                        values.push(expr.eval(row)?);
                    }
                    out.push(Row::from_values(values));
                }
                Batch::Rows(out)
            }
            StepKind::HashProbe { table, keys, rows } => {
                let mut out = Vec::new();
                for row in &batch.into_rows() {
                    // An immediate quiesce request (suspension or a peer worker's
                    // error) stops fan-out work promptly: the partial output is
                    // still accounted, the worker drains at the next boundary.
                    if shared.drop_inflight() {
                        break;
                    }
                    let Some(key) = extract_key(row, keys) else {
                        continue;
                    };
                    for build_row in table.lookup(&key) {
                        if let Some(joined) =
                            rows.join(row.values(), build_row.values(), &mut scratch)?
                        {
                            out.push(joined);
                        }
                    }
                }
                Batch::Rows(out)
            }
            StepKind::IndexProbe {
                table,
                inner_key_idx,
                use_index,
                transient,
                kernel,
                columnar,
            } => {
                let index = if *use_index {
                    table.index_on_column(*inner_key_idx, false)
                } else {
                    transient.as_deref()
                };
                match index {
                    None => Batch::Rows(Vec::new()),
                    Some(index) if *columnar => {
                        let outer = kernel.outer_columns(batch);
                        let mut cursor = Cursor::default();
                        let mut pairs = Pairs::default();
                        while !cursor.done(&outer) && !shared.drop_inflight() {
                            kernel.probe(table, index, &outer, &mut cursor, &mut pairs, cache)?;
                        }
                        Batch::Cols(kernel.gather(table, &outer, &pairs, 0..pairs.len()))
                    }
                    Some(index) => {
                        let mut inner_scratch = kernel.read.scratch();
                        let mut out = Vec::new();
                        for outer_row in &batch.into_rows() {
                            if shared.drop_inflight() {
                                break;
                            }
                            kernel.join_row(
                                table,
                                index,
                                outer_row,
                                &mut inner_scratch,
                                &mut scratch,
                                &mut out,
                            )?;
                        }
                        Batch::Rows(out)
                    }
                }
            }
            StepKind::NlProbe { inner, rows } => {
                let mut out = Vec::new();
                for outer_row in &batch.into_rows() {
                    if shared.drop_inflight() {
                        break;
                    }
                    for inner_row in inner.iter() {
                        if let Some(joined) =
                            rows.join(outer_row.values(), inner_row.values(), &mut scratch)?
                        {
                            out.push(joined);
                        }
                    }
                }
                Batch::Rows(out)
            }
        };
        let elapsed = start.elapsed();
        self.stats
            .nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::SeqCst);
        // Account in output-batch units so `batches` and the progress cadence match
        // the single-threaded engine, which paces join output at the batch size.
        let mut remaining = out.len();
        while remaining > 0 {
            let len = remaining.min(batch_size);
            remaining -= len;
            self.stats.rows.fetch_add(len as u64, Ordering::SeqCst);
            let batches = self.stats.batches.fetch_add(1, Ordering::SeqCst) + 1;
            if let Some(progress) = &self.progress {
                if shared.observer_active
                    && shared.config.progress_every > 0
                    && batches % shared.config.progress_every == 0
                {
                    // Snapshot the produced count under the queue lock: later events
                    // in the queue always carry counts >= earlier ones.
                    let mut queue = shared.events.lock().expect("event queue");
                    let produced = self.stats.rows.load(Ordering::SeqCst);
                    queue.push_back(ExecEvent::Progress(ProgressEvent {
                        source: ProgressSource::OutputBatches,
                        rel_set: progress.rel_set,
                        estimated_rows: progress.estimated_rows,
                        produced_rows: produced,
                        batches,
                        exhausted: false,
                    }));
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Pipeline sinks
// ---------------------------------------------------------------------------

/// Per-worker partial state of a hash-join build sink: rows partitioned by key hash,
/// tagged with their `(morsel, sequence)` position so the merge step can order every
/// bucket identically to the single-threaded build.
struct BuildLocal {
    parts: Vec<KeyedRows>,
    unkeyed: Vec<(Tag, Row)>,
    seq: u64,
}

/// The aggregate computation of one pipeline sink (shared by workers by reference).
/// Each worker folds its batches into a private [`GroupTable`] whose groups carry
/// their first-seen `(morsel, sequence)` tag, for deterministic emission order.
struct AggSpec {
    kernel: AggKernel,
    /// The aggregate input's relation set and estimate (for memory-pressure events).
    rel_set: RelSet,
    estimated_rows: f64,
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// The per-run coordinator: owns the (non-`Send`) observer handle and drives every
/// pipeline of the plan. Worker-shared state lives behind `Arc`s so chain jobs on
/// the resident pool are `'static`; the engine itself stays on the session thread.
struct Engine<'p> {
    storage: &'p Storage,
    observer: Option<ObserverHandle<'p>>,
    shared: Arc<Shared>,
    stop: std::cell::Cell<Option<StopMode>>,
    completed_builds: Vec<CompletedBuild>,
    /// Per-run lazy-build counters (the process-wide analogues are
    /// [`lazy_builds_planned_total`] / [`lazy_builds_started_total`]).
    builds_planned: std::cell::Cell<u64>,
    builds_started: std::cell::Cell<u64>,
    /// The resident pool this query's chain jobs run on.
    pool: &'static WorkerPool,
    /// This query's task registration: all jobs submit through it, so the pool's
    /// fairness discipline sees one queue per query.
    task: TaskHandle,
}

/// Resolve a table to its shared chunk handle, which `'static` chain jobs can hold
/// without borrowing from the storage map.
fn lookup_table_arc(storage: &Storage, name: &str) -> Result<Arc<Table>, ExecError> {
    storage
        .table_arc(name)
        .map_err(|_| ExecError::TableNotFound(name.to_string()))
}

impl<'p> Engine<'p> {
    fn stopped(&self) -> bool {
        self.stop.get().is_some()
    }

    /// Drain worker-enqueued events into the observer, in queue order. After a
    /// suspension decision the rest of the queue is discarded (matching the
    /// single-threaded contract: a suspended pipeline delivers no further events).
    fn pump_events(&self) {
        if !self.shared.observer_active {
            return;
        }
        loop {
            let event = {
                let mut queue = self.shared.events.lock().expect("event queue");
                if self.stopped() {
                    queue.clear();
                    return;
                }
                queue.pop_front()
            };
            let Some(event) = event else {
                return;
            };
            self.dispatch(&event);
        }
    }

    /// Deliver one coordinator-generated event, after flushing queued worker events so
    /// the funnel order is preserved.
    fn deliver_event(&self, event: ExecEvent) {
        if !self.shared.observer_active {
            return;
        }
        self.pump_events();
        if self.stopped() {
            return;
        }
        self.dispatch(&event);
    }

    fn dispatch(&self, event: &ExecEvent) {
        use crate::exec::ObserverDecision;
        let Some(observer) = &self.observer else {
            return;
        };
        match observer.borrow_mut().on_event(event) {
            ObserverDecision::Continue => {}
            ObserverDecision::Suspend => {
                self.stop.set(Some(StopMode::Immediate));
                self.shared.quiesce.store(true, Ordering::SeqCst);
            }
            ObserverDecision::SuspendAtRootSeam => {
                self.stop.set(Some(StopMode::Seam));
                self.shared.seam.store(true, Ordering::SeqCst);
                self.shared.quiesce.store(true, Ordering::SeqCst);
            }
        }
    }

    fn take_error(&self) -> Option<ExecError> {
        self.shared.error.lock().expect("error lock").take()
    }

    // -- plan evaluation ----------------------------------------------------

    /// Evaluate a plan node to its materialized output rows.
    fn eval_rows(&mut self, plan: &'p PhysicalPlan, stats: &StatsTree) -> Result<Vec<Row>, ExecError> {
        if self.stopped() {
            return Ok(Vec::new());
        }
        match &plan.kind {
            PlanKind::Aggregate {
                group_by,
                aggregates,
            } => {
                let child = &plan.children[0];
                let child_stats = &stats.children[0];
                let input_schema = &child.schema;
                let spec = Arc::new(AggSpec {
                    kernel: AggKernel::new(
                        group_by
                            .iter()
                            .map(|e| bind_exec(e, input_schema))
                            .collect::<Result<Vec<_>, _>>()?,
                        aggregates.iter().map(|a| a.func).collect(),
                        aggregates
                            .iter()
                            .map(|a| bind_exec_opt(a.arg.as_ref(), input_schema))
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    rel_set: child.rel_set,
                    estimated_rows: child.estimated_rows,
                });
                let locals = self.run_pipeline_agg(child, child_stats, Arc::clone(&spec))?;
                if self.stopped() {
                    return Ok(Vec::new());
                }
                let merge_start = Instant::now();
                let input_rows = child_stats.stats.rows.load(Ordering::SeqCst);
                self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
                    kind: BreakerKind::AggregateInput,
                    rel_set: child.rel_set,
                    estimated_rows: child.estimated_rows,
                    actual_rows: input_rows,
                    reusable: false,
                }));
                if self.stopped() {
                    return Ok(Vec::new());
                }
                let rows = merge_aggregates(&spec.kernel, locals, &self.shared)?;
                stats.stats.record(rows.len(), merge_start.elapsed());
                stats.stats.exhausted.store(true, Ordering::SeqCst);
                Ok(rows)
            }
            PlanKind::Sort { keys } => {
                let child = &plan.children[0];
                let child_stats = &stats.children[0];
                let input_schema = &child.schema;
                let bound_keys: Vec<(Expr, bool)> = keys
                    .iter()
                    .map(|(e, asc)| Ok((bind_exec(e, input_schema)?, *asc)))
                    .collect::<Result<Vec<_>, ExecError>>()?;
                let rows = self.run_pipeline_collect(child, child_stats)?;
                if self.stopped() {
                    return Ok(Vec::new());
                }
                let sort_start = Instant::now();
                let bytes: u64 = rows.iter().map(|row| row.width() as u64).sum();
                // Coordinator-side reservation: deliver the pressure event inline so
                // the observer can suspend before the run aborts to the spill engine.
                if !self.shared.try_reserve(bytes) {
                    self.deliver_event(self.shared.pressure_event(
                        BreakerKind::SortInput,
                        child.rel_set,
                        child.estimated_rows,
                    ));
                    if self.stopped() {
                        return Ok(Vec::new());
                    }
                    self.shared.spill_needed.store(true, Ordering::SeqCst);
                    return Err(ExecError::Spill(
                        "memory budget exceeded in the parallel engine; restarting on the single-threaded spill engine"
                            .into(),
                    ));
                }
                self.shared.acquire(rows.len() as u64, bytes);
                self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
                    kind: BreakerKind::SortInput,
                    rel_set: child.rel_set,
                    estimated_rows: child.estimated_rows,
                    actual_rows: child_stats.stats.rows.load(Ordering::SeqCst),
                    reusable: false,
                }));
                if self.stopped() {
                    return Ok(Vec::new());
                }
                let rows = sort_rows(rows, &bound_keys)?;
                stats.stats.record(rows.len(), sort_start.elapsed());
                stats.stats.exhausted.store(true, Ordering::SeqCst);
                Ok(rows)
            }
            _ => self.run_pipeline_collect(plan, stats),
        }
    }

    /// Build a hash-join table from a build-side subtree: a pipeline ending in a
    /// partitioned build sink, plus the breaker completion event and (for observed
    /// runs) the retained state.
    fn eval_build(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsTree,
        keys: Vec<usize>,
        join_stats: &Arc<ParStats>,
    ) -> Result<Arc<JoinTable>, ExecError> {
        let compiled = Arc::new(self.compile(plan, stats)?);
        let hasher = RandomState::new();
        let factory = BuildSinkFactory {
            hasher: hasher.clone(),
            keys,
            nparts: compiled.workers.max(1),
            shared: Arc::clone(&self.shared),
            rel_set: plan.rel_set,
            estimated_rows: plan.estimated_rows,
        };
        let worker_locals = self.execute_pipeline(&compiled, factory)?;
        if self.stopped() {
            return Ok(Arc::new(JoinTable {
                hasher,
                parts: vec![HashMap::new()],
                unkeyed: Vec::new(),
                total_rows: 0,
            }));
        }

        // The merge step: one hash map per partition, assembled in parallel (on the
        // resident pool) when the build is large enough to be worth it.
        let merge_start = Instant::now();
        let table = merge_build(hasher, worker_locals, self);
        join_stats
            .nanos
            .fetch_add(merge_start.elapsed().as_nanos() as u64, Ordering::SeqCst);

        let table = Arc::new(table);
        if self.shared.observer_active {
            self.completed_builds.push(CompletedBuild {
                kind: BreakerKind::HashBuild,
                rel_set: plan.rel_set,
                schema: plan.schema.clone(),
                payload: BuildPayload::Hash(Arc::clone(&table)),
            });
        }
        self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
            kind: BreakerKind::HashBuild,
            rel_set: plan.rel_set,
            estimated_rows: plan.estimated_rows,
            actual_rows: table.total_rows,
            reusable: true,
        }));
        Ok(table)
    }

    /// Buffer a plain nested-loop join's inner side: a pipeline collected in
    /// `(morsel, sequence)` order (the global scan order), shared read-only by every
    /// probe worker — exactly the single-threaded operator's buffered inner.
    fn eval_nl_inner(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsTree,
    ) -> Result<Arc<Vec<Row>>, ExecError> {
        let compiled = Arc::new(self.compile(plan, stats)?);
        let rows = self.collect_compiled(&compiled)?;
        if self.stopped() {
            return Ok(Arc::new(rows));
        }
        let bytes: u64 = rows.iter().map(|row| row.width() as u64).sum();
        self.shared.acquire(rows.len() as u64, bytes);
        let rows = Arc::new(rows);
        if self.shared.observer_active {
            self.completed_builds.push(CompletedBuild {
                kind: BreakerKind::NestedLoopInner,
                rel_set: plan.rel_set,
                schema: plan.schema.clone(),
                payload: BuildPayload::Rows(Arc::clone(&rows)),
            });
        }
        self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
            kind: BreakerKind::NestedLoopInner,
            rel_set: plan.rel_set,
            estimated_rows: plan.estimated_rows,
            actual_rows: rows.len() as u64,
            reusable: true,
        }));
        Ok(rows)
    }

    /// Execute a LIMIT-rooted plan. The child pipeline runs through a morsel-ordered
    /// exchange: workers tag every batch with its morsel index and send a done marker
    /// per fully-processed morsel; the coordinator reassembles batches in morsel
    /// order (batches within one morsel arrive in order — one morsel is processed by
    /// exactly one worker and the channel preserves per-sender order) and sets the
    /// query's quiesce flag the moment the limit is satisfied, so all workers retire
    /// at their next batch boundary. Output is run-identical to the single-threaded
    /// engine, which truncates the same scan-ordered stream.
    fn eval_limit(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsTree,
        count: usize,
    ) -> Result<Vec<Row>, ExecError> {
        let child = &plan.children[0];
        let child_stats = &stats.children[0];
        let start = Instant::now();
        // LIMIT over a breaker root (aggregate / sort) truncates the materialized
        // output directly — the breaker drains its input completely either way.
        if matches!(child.kind, PlanKind::Aggregate { .. } | PlanKind::Sort { .. }) {
            let mut rows = self.eval_rows(child, child_stats)?;
            if self.stopped() {
                return Ok(Vec::new());
            }
            rows.truncate(count);
            self.record_limit(stats, &rows, start);
            return Ok(rows);
        }
        let compiled = Arc::new(self.compile(child, child_stats)?);
        if self.stopped() {
            return Ok(Vec::new());
        }
        let mut out: Vec<Row> = Vec::new();
        if compiled.workers <= 1 {
            // Inline: morsels are claimed in order by construction; stop claiming
            // the moment the limit is satisfied.
            let cursor = AtomicUsize::new(0);
            let shared = Arc::clone(&self.shared);
            let out_ref = &mut out;
            let result = worker_loop(
                &compiled,
                &self.shared,
                &cursor,
                &mut |_, batch| {
                    if let Some(batch) = batch {
                        for row in batch.into_rows() {
                            if out_ref.len() >= count {
                                break;
                            }
                            out_ref.push(row);
                        }
                        if out_ref.len() >= count {
                            shared.quiesce.store(true, Ordering::SeqCst);
                        }
                    }
                    Ok(())
                },
                &|| self.pump_events(),
            );
            result?;
        } else {
            let (tx, rx) = sync_channel::<LimitMsg>(compiled.workers * 2);
            let ctx = self.launch_chains(
                &compiled,
                LimitSink {
                    tx,
                    shared: Arc::clone(&self.shared),
                    task: self.task.clone(),
                },
            );
            // Reassemble in morsel order: the frontier morsel's batches flow
            // straight to the output; later morsels park until every earlier morsel
            // delivered its done marker. Parked buffers are truncated to the limit —
            // at most `count` rows of any one morsel can ever be emitted — so the
            // reorder buffer is bounded by `workers x count` rows.
            let mut next = 0usize;
            let mut pending: HashMap<usize, (Vec<Row>, bool)> = HashMap::new();
            let mut satisfied = false;
            loop {
                match rx.recv_timeout(Duration::from_micros(100)) {
                    Ok(msg) => {
                        let entry = pending.entry(msg.morsel).or_default();
                        match msg.batch {
                            Some(batch) => {
                                let room = count.saturating_sub(entry.0.len());
                                entry.0.extend(batch.into_iter().take(room));
                            }
                            None => entry.1 = true,
                        }
                        while let Some((rows, done)) = pending.get_mut(&next) {
                            for row in rows.drain(..) {
                                if out.len() >= count {
                                    break;
                                }
                                out.push(row);
                            }
                            if out.len() >= count {
                                satisfied = true;
                                break;
                            }
                            if !*done {
                                break;
                            }
                            pending.remove(&next);
                            next += 1;
                        }
                        if satisfied {
                            self.shared.quiesce.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if ctx.gate.finished() {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                self.pump_events();
                if self.stopped() {
                    break;
                }
            }
            // Teardown: close the exchange so senders blocked on the bounded channel
            // unblock (their sends fail and quiesce the query), then wait for every
            // chain to retire. Remaining exchange contents are discarded — either
            // the limit is satisfied or the run is stopping.
            drop(rx);
            ctx.gate.wait_pumping(&|| self.pump_events());
            self.pump_events();
        }
        if let Some(error) = self.take_error() {
            return Err(error);
        }
        if self.stopped() {
            return Ok(out);
        }
        // A truncated limit leaves the child pipeline non-exhausted (the quiesce
        // flag is set, skipping `finish_pipeline`) exactly like the single-threaded
        // `LimitOp`, which simply stops pulling; a naturally drained child under the
        // limit is marked exhausted as usual.
        if !self.shared.quiesce.load(Ordering::SeqCst) {
            self.finish_pipeline(&compiled);
        }
        self.record_limit(stats, &out, start);
        Ok(out)
    }

    /// Record the LIMIT node's own output stats in batch-size units and mark it
    /// exhausted (a satisfied limit is a finished operator even though its child
    /// is not — see `assemble_metrics`).
    fn record_limit(&self, stats: &StatsTree, rows: &[Row], start: Instant) {
        let mut offset = 0;
        while offset < rows.len() {
            let len = (rows.len() - offset).min(self.shared.config.batch_size);
            stats.stats.record(len, Duration::ZERO);
            offset += len;
        }
        stats
            .stats
            .nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::SeqCst);
        stats.stats.exhausted.store(true, Ordering::SeqCst);
    }

    /// Compile the streaming segment rooted at `plan` down to its driving source.
    /// Hash-join builds and nested-loop inners are **registered, not executed**,
    /// while walking the spine (their probe steps get placeholder payloads); they
    /// run lazily after the spine's own source is known to be runnable,
    /// innermost-first, with a stop check between each — a suspension taken on an
    /// inner breaker skips every outer build a re-plan is about to discard.
    /// Mid-chain breakers that *drive* the pipeline (aggregate/sort outputs) still
    /// materialize during the walk: they are the source, without which nothing
    /// downstream is runnable.
    fn compile<'s>(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &'s StatsTree,
    ) -> Result<Compiled, ExecError> {
        /// The payload a lazily-registered build patches into its probe step.
        enum BuildKind {
            Hash { keys: Vec<usize> },
            NlInner,
        }
        struct BuildRequest<'p, 's> {
            /// Index of the probe step (in collection order) holding the placeholder.
            step: usize,
            plan: &'p PhysicalPlan,
            stats: &'s StatsTree,
            /// The join node's own stats (the build merge time lands there).
            join_stats: Arc<ParStats>,
            kind: BuildKind,
        }
        let mut requests: Vec<BuildRequest<'p, 's>> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut exhaust_marks: Vec<Arc<ParStats>> = Vec::new();
        let mut node = plan;
        let mut node_stats = stats;
        let source = loop {
            if self.stopped() {
                break Source::Rows(Vec::new());
            }
            match &node.kind {
                PlanKind::Filter { predicate } => {
                    steps.push(Step {
                        kind: StepKind::Filter(bind_exec(predicate, &node.children[0].schema)?),
                        stats: std::sync::Arc::clone(&node_stats.stats),
                        progress: None,
                    });
                    exhaust_marks.push(std::sync::Arc::clone(&node_stats.stats));
                    node = &node.children[0];
                    node_stats = &node_stats.children[0];
                }
                PlanKind::Project { exprs } => {
                    let input_schema = &node.children[0].schema;
                    steps.push(Step {
                        kind: StepKind::Project(
                            exprs
                                .iter()
                                .map(|e| bind_exec(&e.expr, input_schema))
                                .collect::<Result<Vec<_>, _>>()?,
                        ),
                        stats: std::sync::Arc::clone(&node_stats.stats),
                        progress: None,
                    });
                    exhaust_marks.push(std::sync::Arc::clone(&node_stats.stats));
                    node = &node.children[0];
                    node_stats = &node_stats.children[0];
                }
                PlanKind::HashJoin { keys, residual } => {
                    let probe_schema = &node.children[0].schema;
                    let build_schema = &node.children[1].schema;
                    let probe_keys = keys
                        .iter()
                        .map(|(probe, _)| key_index_exec(probe_schema, probe))
                        .collect::<Result<Vec<_>, _>>()?;
                    let build_keys = keys
                        .iter()
                        .map(|(_, build)| key_index_exec(build_schema, build))
                        .collect::<Result<Vec<_>, _>>()?;
                    requests.push(BuildRequest {
                        step: steps.len(),
                        plan: &node.children[1],
                        stats: &node_stats.children[1],
                        join_stats: Arc::clone(&node_stats.stats),
                        kind: BuildKind::Hash { keys: build_keys },
                    });
                    steps.push(Step {
                        kind: StepKind::HashProbe {
                            // Placeholder: patched once the registered build runs.
                            table: Arc::new(JoinTable {
                                hasher: RandomState::new(),
                                parts: vec![HashMap::new()],
                                unkeyed: Vec::new(),
                                total_rows: 0,
                            }),
                            keys: probe_keys,
                            rows: JoinRows::new(
                                probe_schema,
                                build_schema,
                                &node.schema,
                                residual.as_ref(),
                            )?,
                        },
                        stats: std::sync::Arc::clone(&node_stats.stats),
                        progress: Some(ProgressInfo {
                            rel_set: node.rel_set,
                            estimated_rows: node.estimated_rows,
                            reports_exhaustion: false,
                        }),
                    });
                    exhaust_marks.push(std::sync::Arc::clone(&node_stats.stats));
                    node = &node.children[0];
                    node_stats = &node_stats.children[0];
                }
                PlanKind::NestedLoopJoin { predicate } => {
                    requests.push(BuildRequest {
                        step: steps.len(),
                        plan: &node.children[1],
                        stats: &node_stats.children[1],
                        join_stats: Arc::clone(&node_stats.stats),
                        kind: BuildKind::NlInner,
                    });
                    steps.push(Step {
                        kind: StepKind::NlProbe {
                            // Placeholder: patched once the registered inner runs.
                            inner: Arc::new(Vec::new()),
                            rows: JoinRows::new(
                                &node.children[0].schema,
                                &node.children[1].schema,
                                &node.schema,
                                predicate.as_ref(),
                            )?,
                        },
                        stats: std::sync::Arc::clone(&node_stats.stats),
                        progress: Some(ProgressInfo {
                            rel_set: node.rel_set,
                            estimated_rows: node.estimated_rows,
                            reports_exhaustion: false,
                        }),
                    });
                    exhaust_marks.push(std::sync::Arc::clone(&node_stats.stats));
                    node = &node.children[0];
                    node_stats = &node_stats.children[0];
                }
                PlanKind::IndexNestedLoopJoin {
                    inner_table,
                    inner_key,
                    ..
                } => {
                    let table = lookup_table_arc(self.storage, inner_table)?;
                    let inner_key_idx = table.schema().index_of(None, inner_key)?;
                    let kernel = Box::new(IndexNlKernel::new(node, &table)?);
                    let use_index = table.index_on_column(inner_key_idx, false).is_some();
                    let transient = if !use_index {
                        // No usable index: build a transient one once, shared
                        // read-only by every worker (bounded by the base table, like
                        // the single-threaded operator). Only the key column is read.
                        let index = Index::from_column(
                            IndexKind::Hash,
                            "transient",
                            inner_key_idx,
                            table.column(inner_key_idx),
                        );
                        let entries = index.entry_count() as u64;
                        self.shared.acquire(entries, 8 * entries);
                        Some(Arc::new(index))
                    } else {
                        None
                    };
                    let columnar = self.shared.config.columnar;
                    let _ = node_stats.stats.probe.set(probe_label(columnar));
                    steps.push(Step {
                        kind: StepKind::IndexProbe {
                            table,
                            inner_key_idx,
                            use_index,
                            transient,
                            kernel,
                            columnar,
                        },
                        stats: std::sync::Arc::clone(&node_stats.stats),
                        progress: Some(ProgressInfo {
                            rel_set: node.rel_set,
                            estimated_rows: node.estimated_rows,
                            reports_exhaustion: true,
                        }),
                    });
                    exhaust_marks.push(std::sync::Arc::clone(&node_stats.stats));
                    node = &node.children[0];
                    node_stats = &node_stats.children[0];
                }
                PlanKind::SeqScan {
                    table,
                    alias,
                    predicate,
                    ..
                } => {
                    let table = lookup_table_arc(self.storage, table)?;
                    let read = TableRead::new(
                        &relation_schema(&table, alias),
                        &node.schema,
                        predicate.as_ref(),
                    )?;
                    // Probe kernel support against a zero-row slice: it carries the
                    // table's real column representations, so the decision holds for
                    // every morsel of the scan.
                    let kernel = self.shared.config.columnar
                        && read.kernel_covers(&table, &mut MaskCache::new());
                    let _ = node_stats
                        .stats
                        .encoding
                        .set(scan_encoding_label(self.shared.config.columnar, kernel, &table));
                    break Source::Table {
                        table,
                        read,
                        kernel,
                        stats: Arc::clone(&node_stats.stats),
                    };
                }
                PlanKind::IndexScan {
                    table,
                    alias,
                    column,
                    lookup,
                    residual,
                    ..
                } => {
                    let table = lookup_table_arc(self.storage, table)?;
                    let column_idx = table.schema().index_of(None, column)?;
                    let needs_range =
                        matches!(lookup, reopt_planner::plan::IndexLookup::Range { .. });
                    let index = table
                        .index_on_column(column_idx, needs_range)
                        .ok_or_else(|| {
                            ExecError::InvalidPlan(format!("no usable index on column '{column}'"))
                        })?;
                    let ids = resolve_index_row_ids(index, lookup);
                    self.shared.acquire(ids.len() as u64, 8 * ids.len() as u64);
                    let _ = node_stats.stats.encoding.set("row");
                    let read = TableRead::new(
                        &relation_schema(&table, alias),
                        &node.schema,
                        residual.as_ref(),
                    )?;
                    break Source::TableIds {
                        table,
                        ids,
                        read,
                        stats: Arc::clone(&node_stats.stats),
                    };
                }
                PlanKind::Aggregate { .. } | PlanKind::Sort { .. } => {
                    // A breaker in the middle of the chain: materialize its output and
                    // use it as the driving source of this pipeline.
                    break Source::Rows(self.eval_rows(node, node_stats)?);
                }
                PlanKind::Limit { .. } => {
                    // The planner only places LIMIT at the plan root (where
                    // `eval_limit` handles it); `fallback_reason` gates the rest.
                    return Err(ExecError::InvalidPlan(
                        "LIMIT below the plan root has no parallel implementation".into(),
                    ));
                }
            }
        };
        // Execute the registered builds lazily, now that the spine's own source is
        // runnable. Requests were collected root-down, so reverse order runs them
        // innermost-first — matching the single-threaded engine, where the deepest
        // probe pulls (and therefore builds) first — and a stop between builds
        // (suspension on an inner breaker) skips every outer build.
        if !requests.is_empty() {
            BUILDS_PLANNED.fetch_add(requests.len() as u64, Ordering::SeqCst);
            self.builds_planned
                .set(self.builds_planned.get() + requests.len() as u64);
            for request in requests.into_iter().rev() {
                if self.stopped() {
                    break;
                }
                BUILDS_STARTED.fetch_add(1, Ordering::SeqCst);
                self.builds_started.set(self.builds_started.get() + 1);
                match request.kind {
                    BuildKind::Hash { keys } => {
                        let table =
                            self.eval_build(request.plan, request.stats, keys, &request.join_stats)?;
                        if let StepKind::HashProbe { table: slot, .. } =
                            &mut steps[request.step].kind
                        {
                            *slot = table;
                        }
                    }
                    BuildKind::NlInner => {
                        let inner = self.eval_nl_inner(request.plan, request.stats)?;
                        if let StepKind::NlProbe { inner: slot, .. } =
                            &mut steps[request.step].kind
                        {
                            *slot = inner;
                        }
                    }
                }
            }
        }
        // Steps were collected root-down; they apply source-up.
        steps.reverse();
        let total = source.len();
        let config = &self.shared.config;
        let morsel_rows = config.batch_size.saturating_mul(MORSEL_BATCHES).max(1);
        let morsels = total.div_ceil(morsel_rows).max(1);
        let workers = config.threads.min(morsels).max(1);
        Ok(Compiled {
            source,
            steps,
            exhaust_marks,
            morsel_rows,
            morsels,
            workers,
        })
    }

    /// Launch one chain job per worker on the resident pool and return the shared
    /// run context. Each job processes one morsel then re-enqueues itself at the
    /// back of this query's task queue, so concurrent queries interleave at morsel
    /// granularity. Chains retire (push their sink local, count down the gate) when
    /// the cursor is exhausted or the query quiesces.
    fn launch_chains<S: SinkFactory>(
        &self,
        compiled: &Arc<Compiled>,
        factory: S,
    ) -> Arc<ChainCtx<S>> {
        let workers = compiled.workers;
        let ctx = Arc::new(ChainCtx {
            compiled: Arc::clone(compiled),
            shared: Arc::clone(&self.shared),
            cursor: AtomicUsize::new(0),
            sink: factory,
            locals: Mutex::new(Vec::new()),
            gate: Gate::new(workers),
            task: self.task.clone(),
        });
        self.pool.ensure_available(workers);
        for _ in 0..workers {
            let local = ctx.sink.make();
            let job_ctx = Arc::clone(&ctx);
            ctx.task
                .submit(move || run_chain_slice(job_ctx, local, MaskCache::new()));
        }
        ctx
    }

    /// Run a compiled pipeline into per-worker sink states, returning one local state
    /// per worker. Inline (single worker) execution uses the same sink code on the
    /// coordinator thread, with the event pump interleaved after every chain batch.
    fn execute_pipeline<S: SinkFactory>(
        &self,
        compiled: &Arc<Compiled>,
        factory: S,
    ) -> Result<Vec<S::Local>, ExecError> {
        let worker_locals: Vec<S::Local> = if compiled.workers <= 1 {
            let cursor = AtomicUsize::new(0);
            let mut local = factory.make();
            worker_loop(
                compiled,
                &self.shared,
                &cursor,
                &mut |morsel, batch| match batch {
                    Some(batch) => factory.consume(&mut local, morsel, batch),
                    None => factory.morsel_done(&mut local, morsel),
                },
                &|| self.pump_events(),
            )?;
            vec![local]
        } else {
            let ctx = self.launch_chains(compiled, factory);
            // The coordinator pumps worker-enqueued events while the pool drains
            // the morsel queue.
            ctx.gate.wait_pumping(&|| self.pump_events());
            self.pump_events();
            let locals = std::mem::take(&mut *ctx.locals.lock().expect("chain locals"));
            locals
        };
        if let Some(error) = self.take_error() {
            return Err(error);
        }
        if !self.stopped() && !self.shared.quiesce.load(Ordering::SeqCst) {
            self.finish_pipeline(compiled);
        }
        Ok(worker_locals)
    }

    /// Mark a fully-drained pipeline's operators exhausted and emit the one-shot
    /// exact-cardinality progress reports of its index-NL joins (outer side drained:
    /// the produced count is the join's true output cardinality).
    fn finish_pipeline(&self, compiled: &Compiled) {
        compiled.source.mark_exhausted();
        for mark in &compiled.exhaust_marks {
            mark.exhausted.store(true, Ordering::SeqCst);
        }
        for step in &compiled.steps {
            if let Some(progress) = &step.progress {
                if progress.reports_exhaustion {
                    self.deliver_event(ExecEvent::Progress(ProgressEvent {
                        source: ProgressSource::OuterExhausted,
                        rel_set: progress.rel_set,
                        estimated_rows: progress.estimated_rows,
                        produced_rows: step.stats.rows.load(Ordering::SeqCst),
                        batches: step.stats.batches.load(Ordering::SeqCst),
                        exhausted: true,
                    }));
                    if self.stopped() {
                        return;
                    }
                }
            }
        }
    }

    /// Run a pipeline that collects its output rows: workers exchange batches through
    /// a bounded channel; the coordinator consumes them (so memory stays flat at
    /// `workers x channel depth` batches) while pumping observer events.
    fn run_pipeline_collect(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsTree,
    ) -> Result<Vec<Row>, ExecError> {
        let compiled = Arc::new(self.compile(plan, stats)?);
        self.collect_compiled(&compiled)
    }

    /// Drain an already-compiled pipeline into a row vector (inline on the
    /// coordinator at `workers <= 1`, through the exchange otherwise).
    fn collect_compiled(&self, compiled: &Arc<Compiled>) -> Result<Vec<Row>, ExecError> {
        if self.stopped() {
            return Ok(Vec::new());
        }
        let mut out_rows: Vec<Row> = Vec::new();
        if compiled.workers <= 1 {
            let cursor = AtomicUsize::new(0);
            let out = &mut out_rows;
            let result = worker_loop(
                compiled,
                &self.shared,
                &cursor,
                &mut |_, batch| {
                    if let Some(batch) = batch {
                        out.extend(batch.into_rows());
                    }
                    Ok(())
                },
                &|| self.pump_events(),
            );
            result?;
        } else {
            let (tx, rx) = sync_channel::<(Tag, RowBatch)>(compiled.workers * 2);
            let ctx = self.launch_chains(
                compiled,
                TaggedChannelSink {
                    tx,
                    shared: Arc::clone(&self.shared),
                    task: self.task.clone(),
                },
            );
            // Consume the exchange while the chains drain the cursor. The context
            // itself holds a sender, so end-of-stream is detected through the gate
            // (all chains retired) rather than channel disconnection.
            let mut tagged: Vec<(Tag, RowBatch)> = Vec::new();
            loop {
                match rx.recv_timeout(Duration::from_micros(100)) {
                    Ok(entry) => tagged.push(entry),
                    Err(RecvTimeoutError::Timeout) => {
                        if ctx.gate.finished() {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                self.pump_events();
            }
            while let Ok(entry) = rx.try_recv() {
                tagged.push(entry);
            }
            self.pump_events();
            // Reassemble in `(morsel, sequence)` order: run-identical to the inline
            // (single-worker) collection, which is the global scan order.
            tagged.sort_by_key(|(tag, _)| *tag);
            for (_, batch) in tagged {
                out_rows.extend(batch);
            }
        }
        if let Some(error) = self.take_error() {
            return Err(error);
        }
        if !self.stopped() && !self.shared.quiesce.load(Ordering::SeqCst) {
            self.finish_pipeline(compiled);
        }
        Ok(out_rows)
    }

    /// Run a pipeline into per-worker partial-aggregation states.
    fn run_pipeline_agg(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsTree,
        spec: Arc<AggSpec>,
    ) -> Result<Vec<GroupTable>, ExecError> {
        let compiled = Arc::new(self.compile(plan, stats)?);
        if self.stopped() {
            return Ok(Vec::new());
        }
        let factory = AggSinkFactory {
            spec,
            shared: Arc::clone(&self.shared),
        };
        self.execute_pipeline(&compiled, factory)
    }

    fn breaker_states(&mut self) -> Vec<BreakerState> {
        self.completed_builds
            .drain(..)
            .map(|build| {
                let rows = match build.payload {
                    BuildPayload::Hash(table) => std::sync::Arc::try_unwrap(table)
                        .unwrap_or_else(|shared| (*shared).clone())
                        .into_rows(),
                    BuildPayload::Rows(rows) => std::sync::Arc::try_unwrap(rows)
                        .unwrap_or_else(|shared| (*shared).clone()),
                };
                BreakerState {
                    kind: build.kind,
                    rel_set: build.rel_set,
                    schema: build.schema,
                    rows,
                }
            })
            .collect()
    }
}

/// A compiled pipeline: driving source, operator chain, and parallelism parameters.
/// Fully owned (`Send + Sync + 'static`): chain jobs on the resident pool share it
/// through an `Arc` and may outlive the stack frame that compiled it.
struct Compiled {
    source: Source,
    steps: Vec<Step>,
    /// Stats of every chain operator, marked exhausted when the pipeline drains.
    exhaust_marks: Vec<Arc<ParStats>>,
    morsel_rows: usize,
    morsels: usize,
    workers: usize,
}

/// Compile-time proof that compiled pipelines (and their shared run state) can be
/// handed to `'static` pool jobs.
fn _assert_pool_safe() {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<Compiled>();
    assert_send_sync::<Shared>();
}

/// Claim and process **one** morsel: push each batch-sized chunk through the chain
/// and feed the sink with `(morsel, Some(batch))` per produced batch, then a
/// `(morsel, None)` done marker once the morsel is fully processed (a quiesced
/// morsel sends no marker — its partial output is abandoned). Returns `Ok(true)` if
/// the cursor may hold more morsels, `Ok(false)` when the source is exhausted or
/// the query quiesced.
fn process_one_morsel(
    compiled: &Compiled,
    shared: &Shared,
    cursor: &AtomicUsize,
    mask_cache: &mut MaskCache,
    sink: &mut dyn FnMut(usize, Option<Batch>) -> Result<(), ExecError>,
    pump: &dyn Fn(),
) -> Result<bool, ExecError> {
    if shared.quiesce.load(Ordering::SeqCst) {
        return Ok(false);
    }
    let morsel = cursor.fetch_add(1, Ordering::SeqCst);
    if morsel >= compiled.morsels {
        return Ok(false);
    }
    let total = compiled.source.len();
    let start = morsel.saturating_mul(compiled.morsel_rows).min(total);
    let end = start.saturating_add(compiled.morsel_rows).min(total);
    let mut pos = start;
    let chunk = (compiled.morsel_rows / MORSEL_BATCHES.max(1)).max(1);
    while pos < end {
        if shared.quiesce.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let chunk_end = pos.saturating_add(chunk).min(end);
        let batch = compiled.source.scan(pos..chunk_end, mask_cache)?;
        pos = chunk_end;
        if batch.is_empty() {
            continue;
        }
        // The sink takes the chain's last batch as it is (an aggregate reads a
        // column batch in place; other sinks decode it).
        push_chain(
            &compiled.steps,
            batch,
            shared,
            chunk,
            mask_cache,
            &mut |batch| sink(morsel, Some(batch)),
            pump,
        )?;
    }
    sink(morsel, None)?;
    Ok(true)
}

/// The morsel loop of the inline (single-worker) path: drain the cursor on the
/// coordinator thread, pumping observer events after every chain step.
fn worker_loop(
    compiled: &Compiled,
    shared: &Shared,
    cursor: &AtomicUsize,
    sink: &mut dyn FnMut(usize, Option<Batch>) -> Result<(), ExecError>,
    pump: &dyn Fn(),
) -> Result<(), ExecError> {
    // Worker-private kernel cache: truth tables are cheap to rebuild per worker and
    // this keeps the hot mask loop lock-free.
    let mut mask_cache = MaskCache::new();
    while process_one_morsel(compiled, shared, cursor, &mut mask_cache, sink, pump)? {}
    Ok(())
}

/// The shared context of one pipeline run's chain jobs on the resident pool.
struct ChainCtx<S: SinkFactory> {
    compiled: Arc<Compiled>,
    shared: Arc<Shared>,
    cursor: AtomicUsize,
    sink: S,
    /// Retired chains' sink locals, collected for the merge step.
    locals: Mutex<Vec<S::Local>>,
    /// Counts down as chains retire; the coordinator waits on it.
    gate: Gate,
    task: TaskHandle,
}

/// One scheduling quantum of a chain: process a single morsel, then either
/// re-enqueue at the back of this query's task queue (giving equal-priority peers
/// a turn) or retire. Runs on a pool worker; `'static` by construction.
fn run_chain_slice<S: SinkFactory>(ctx: Arc<ChainCtx<S>>, mut local: S::Local, mut cache: MaskCache) {
    // Catch panics from operator code: an uncaught unwind would skip this chain's
    // `Gate::done_one`, leaving the coordinating `wait_pumping` spinning forever
    // (the pool's own catch_unwind only keeps the worker thread alive).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sink_ref = &ctx.sink;
        let mut sink = |morsel: usize, batch: Option<Batch>| match batch {
            Some(batch) => sink_ref.consume(&mut local, morsel, batch),
            None => sink_ref.morsel_done(&mut local, morsel),
        };
        process_one_morsel(
            &ctx.compiled,
            &ctx.shared,
            &ctx.cursor,
            &mut cache,
            &mut sink,
            &|| ctx.shared.wait_for_event_drain(),
        )
    }));
    match outcome {
        Ok(Ok(true)) => {
            let job_ctx = Arc::clone(&ctx);
            ctx.task
                .submit(move || run_chain_slice(job_ctx, local, cache));
        }
        Ok(Ok(false)) => {
            ctx.locals.lock().expect("chain locals").push(local);
            ctx.gate.done_one();
        }
        Ok(Err(error)) => {
            ctx.shared.fail(error);
            ctx.locals.lock().expect("chain locals").push(local);
            ctx.gate.done_one();
        }
        Err(payload) => {
            // The local may be mid-update; the error poisons the query before any
            // merge step could miss this chain's dropped local.
            ctx.shared
                .fail(ExecError::Eval(format!("worker panicked: {}", panic_message(&payload))));
            ctx.gate.done_one();
        }
    }
}

/// Best-effort rendering of a panic payload (`&str` and `String` cover `panic!`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Push one batch through the remaining chain steps, re-chunking fan-out output to
/// the batch size between steps so every downstream operator (and the sink exchange)
/// sees batch-sized units (a column batch is re-chunked by slicing). `pump` runs after
/// every step (the inline coordinator drains observer events there, so a suspension
/// decision stops the descent after at most one step's output instead of a whole
/// morsel's fan-out; threaded workers pass a no-op — their coordinator pumps
/// concurrently).
fn push_chain(
    steps: &[Step],
    batch: Batch,
    shared: &Shared,
    batch_size: usize,
    cache: &mut MaskCache,
    sink: &mut dyn FnMut(Batch) -> Result<(), ExecError>,
    pump: &dyn Fn(),
) -> Result<(), ExecError> {
    let Some((step, rest)) = steps.split_first() else {
        return sink(batch);
    };
    let out = step.apply(batch, shared, batch_size, cache)?;
    pump();
    if out.is_empty() || shared.drop_inflight() {
        return Ok(());
    }
    if out.len() <= batch_size {
        return push_chain(rest, out, shared, batch_size, cache, sink, pump);
    }
    match out {
        Batch::Rows(rows) => {
            let mut iter = rows.into_iter();
            loop {
                let chunk: RowBatch = iter.by_ref().take(batch_size).collect();
                if chunk.is_empty() {
                    return Ok(());
                }
                push_chain(rest, Batch::Rows(chunk), shared, batch_size, cache, sink, pump)?;
                if shared.drop_inflight() {
                    return Ok(());
                }
            }
        }
        Batch::Cols(cols) => {
            for start in (0..cols.len()).step_by(batch_size) {
                let chunk = cols.slice(start..(start + batch_size).min(cols.len()));
                push_chain(rest, Batch::Cols(chunk), shared, batch_size, cache, sink, pump)?;
                if shared.drop_inflight() {
                    break;
                }
            }
            Ok(())
        }
    }
}

/// A pipeline sink with per-worker local state: `make` is called once per chain,
/// `consume` once per produced chain batch (tagged with the morsel index it came
/// from), and `morsel_done` once per fully-processed morsel. `execute_pipeline`
/// returns every chain's local state for the merge step. `'static` because sinks
/// ride inside pool jobs that may outlive the coordinating stack frame.
trait SinkFactory: Send + Sync + 'static {
    type Local: Send + 'static;
    fn make(&self) -> Self::Local;
    /// `batch` is the source's own batch when the pipeline has no chain step (a
    /// column batch stays undecoded); sinks that buffer rows decode it on entry.
    fn consume(
        &self,
        local: &mut Self::Local,
        morsel: usize,
        batch: Batch,
    ) -> Result<(), ExecError>;
    /// Called after the last batch of a fully-processed morsel (quiesced morsels
    /// never report done).
    fn morsel_done(&self, _local: &mut Self::Local, _morsel: usize) -> Result<(), ExecError> {
        Ok(())
    }
}

/// Partitioned hash-join build sink: rows land in per-worker, per-partition buffers,
/// keyed and pre-hashed with the table's shared hasher.
struct BuildSinkFactory {
    hasher: RandomState,
    keys: Vec<usize>,
    nparts: usize,
    shared: Arc<Shared>,
    /// The build subtree's relation set and estimate (for memory-pressure events).
    rel_set: RelSet,
    estimated_rows: f64,
}

impl SinkFactory for BuildSinkFactory {
    type Local = BuildLocal;

    fn make(&self) -> BuildLocal {
        BuildLocal {
            parts: (0..self.nparts).map(|_| Vec::new()).collect(),
            unkeyed: Vec::new(),
            seq: 0,
        }
    }

    fn consume(&self, local: &mut BuildLocal, morsel: usize, batch: Batch) -> Result<(), ExecError> {
        let batch = batch.into_rows();
        let bytes: u64 = batch.iter().map(|row| row.width() as u64).sum();
        self.shared.reserve_or_spill(
            bytes,
            BreakerKind::HashBuild,
            self.rel_set,
            self.estimated_rows,
        )?;
        self.shared.acquire(batch.len() as u64, bytes);
        for row in batch {
            let tag = (morsel, local.seq);
            local.seq += 1;
            match extract_key(&row, &self.keys) {
                Some(key) => {
                    let part = (self.hasher.hash_one(&key[..]) as usize) % local.parts.len();
                    local.parts[part].push((tag, key, row));
                }
                None => local.unkeyed.push((tag, row)),
            }
        }
        Ok(())
    }
}

/// Partial-aggregation sink: one accumulator set per group per worker.
struct AggSinkFactory {
    spec: Arc<AggSpec>,
    shared: Arc<Shared>,
}

impl SinkFactory for AggSinkFactory {
    type Local = GroupTable;

    fn make(&self) -> GroupTable {
        self.spec.kernel.new_table()
    }

    fn consume(&self, local: &mut GroupTable, morsel: usize, batch: Batch) -> Result<(), ExecError> {
        let spec = &self.spec;
        spec.kernel.consume(local, batch, morsel, &mut |_, key_bytes| {
            self.shared.reserve_or_spill(
                key_bytes,
                BreakerKind::AggregateInput,
                spec.rel_set,
                spec.estimated_rows,
            )?;
            self.shared.acquire(1, key_bytes);
            Ok(())
        })
    }
}

/// Exchange sink: chain batches flow through a bounded channel to whichever
/// thread holds the receiver (the coordinator for mid-plan collection, the
/// client-pulled pipeline facade for a streaming root). Each chain sends through
/// its own cloned handle. A send can only fail once the receiver is gone for
/// good — the pipeline was suspended or dropped — so it quiesces the query
/// rather than letting orphaned chains keep scanning.
struct ChannelSink {
    tx: SyncSender<RowBatch>,
    shared: Arc<Shared>,
    /// The owning query's task handle: sends run inside its blocking section so a
    /// worker stalled behind a slow-pulling client stops counting against the
    /// pool's thread cap (see [`TaskHandle::blocking`]).
    task: TaskHandle,
}

impl SinkFactory for ChannelSink {
    type Local = SyncSender<RowBatch>;

    fn make(&self) -> SyncSender<RowBatch> {
        self.tx.clone()
    }

    fn consume(
        &self,
        local: &mut SyncSender<RowBatch>,
        _morsel: usize,
        batch: Batch,
    ) -> Result<(), ExecError> {
        let batch = batch.into_rows();
        if self.task.blocking(|| local.send(batch)).is_err() {
            self.shared.quiesce.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// Tag-ordered exchange sink: like [`ChannelSink`], but every batch carries its
/// `(morsel, sequence)` tag so the coordinator can reassemble the collection in
/// global scan order — materialized mid-plan collections (sort inputs, nested-loop
/// inners) become run-identical to the inline (single-worker) collection order.
struct TaggedChannelSink {
    tx: SyncSender<(Tag, RowBatch)>,
    shared: Arc<Shared>,
    task: TaskHandle,
}

/// Per-chain sender plus its batch sequence counter.
struct TaggedSender {
    tx: SyncSender<(Tag, RowBatch)>,
    seq: u64,
}

impl SinkFactory for TaggedChannelSink {
    type Local = TaggedSender;

    fn make(&self) -> TaggedSender {
        TaggedSender {
            tx: self.tx.clone(),
            seq: 0,
        }
    }

    fn consume(&self, local: &mut TaggedSender, morsel: usize, batch: Batch) -> Result<(), ExecError> {
        let batch = batch.into_rows();
        let tag = (morsel, local.seq);
        local.seq += 1;
        if self.task.blocking(|| local.tx.send((tag, batch))).is_err() {
            self.shared.quiesce.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// One message of the LIMIT root exchange: a produced batch of `morsel`, or (with
/// `batch == None`) the marker that `morsel` is fully processed.
struct LimitMsg {
    morsel: usize,
    batch: Option<RowBatch>,
}

/// Morsel-ordered exchange sink for LIMIT roots: batches carry their morsel index
/// and every fully-processed morsel is terminated by a done marker, letting the
/// coordinator reassemble the stream in morsel order and quiesce the query the
/// moment the limit is satisfied (see [`Engine::eval_limit`]).
struct LimitSink {
    tx: SyncSender<LimitMsg>,
    shared: Arc<Shared>,
    task: TaskHandle,
}

impl SinkFactory for LimitSink {
    type Local = SyncSender<LimitMsg>;

    fn make(&self) -> SyncSender<LimitMsg> {
        self.tx.clone()
    }

    fn consume(
        &self,
        local: &mut SyncSender<LimitMsg>,
        morsel: usize,
        batch: Batch,
    ) -> Result<(), ExecError> {
        let msg = LimitMsg {
            morsel,
            batch: Some(batch.into_rows()),
        };
        if self.task.blocking(|| local.send(msg)).is_err() {
            self.shared.quiesce.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    fn morsel_done(&self, local: &mut SyncSender<LimitMsg>, morsel: usize) -> Result<(), ExecError> {
        let msg = LimitMsg {
            morsel,
            batch: None,
        };
        if self.task.blocking(|| local.send(msg)).is_err() {
            self.shared.quiesce.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

/// Merge the per-worker partitioned build buffers into one [`JoinTable`], in parallel
/// across partitions (on the resident pool) when the build is large. Rows are
/// inserted in `(morsel, sequence)` order — the global scan order — so every bucket's
/// fan-out order during probing is run-identical to the single-threaded build.
fn merge_build(hasher: RandomState, locals: Vec<BuildLocal>, engine: &Engine<'_>) -> JoinTable {
    fn merge_one(buckets: Vec<KeyedRows>) -> PartitionMap {
        let mut rows: KeyedRows = buckets.into_iter().flatten().collect();
        rows.sort_by_key(|a| a.0);
        let mut map: PartitionMap = HashMap::new();
        for (_, key, row) in rows {
            map.entry(key).or_default().push(row);
        }
        map
    }
    let nparts = locals.iter().map(|l| l.parts.len()).max().unwrap_or(1);
    let keyed_total: usize = locals
        .iter()
        .map(|l| l.parts.iter().map(Vec::len).sum::<usize>())
        .sum();
    // Transpose into per-partition buckets of per-worker buffers, moving the NULL-key
    // rows out along the way (also tag-ordered, for deterministic state extraction).
    let mut unkeyed_tagged: Vec<(Tag, Row)> = Vec::new();
    let mut partition_inputs: Vec<Vec<KeyedRows>> = (0..nparts).map(|_| Vec::new()).collect();
    for mut local in locals {
        unkeyed_tagged.append(&mut local.unkeyed);
        for (part, bucket) in local.parts.into_iter().enumerate() {
            partition_inputs[part].push(bucket);
        }
    }
    unkeyed_tagged.sort_by_key(|a| a.0);
    let unkeyed: Vec<Row> = unkeyed_tagged.into_iter().map(|(_, row)| row).collect();
    let parts: Vec<PartitionMap> = if engine.shared.config.threads > 1 && keyed_total > 65_536 {
        // One pool job per partition; inputs and outputs live behind Arc'd slots
        // so the jobs are 'static.
        type MergeWork = (
            Vec<Mutex<Option<Vec<KeyedRows>>>>,
            Vec<Mutex<Option<PartitionMap>>>,
        );
        let work: Arc<MergeWork> = Arc::new((
            partition_inputs
                .into_iter()
                .map(|i| Mutex::new(Some(i)))
                .collect(),
            (0..nparts).map(|_| Mutex::new(None)).collect(),
        ));
        let gate = Arc::new(Gate::new(nparts));
        engine.pool.ensure_available(nparts.min(engine.shared.config.threads));
        for part in 0..nparts {
            let work = Arc::clone(&work);
            let gate = Arc::clone(&gate);
            let shared = Arc::clone(&engine.shared);
            engine.task.submit(move || {
                // As in `run_chain_slice`: a panic must still retire the gate and
                // fail the query, or the coordinator below waits forever.
                let map = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let input = work.0[part].lock().expect("merge input").take().unwrap_or_default();
                    merge_one(input)
                }));
                match map {
                    Ok(map) => *work.1[part].lock().expect("merge slot") = Some(map),
                    Err(payload) => shared.fail(ExecError::Eval(format!(
                        "build merge panicked: {}",
                        panic_message(&payload)
                    ))),
                }
                gate.done_one();
            });
        }
        gate.wait_pumping(&|| engine.pump_events());
        work.1
            .iter()
            .map(|slot| slot.lock().expect("merge slot").take().unwrap_or_default())
            .collect()
    } else {
        partition_inputs.into_iter().map(merge_one).collect()
    };
    let total_rows = (keyed_total + unkeyed.len()) as u64;
    JoinTable {
        hasher,
        parts,
        unkeyed,
        total_rows,
    }
}

/// Merge per-worker partial aggregation states and emit the result rows. Locals
/// arrive in worker *completion* order, which is nondeterministic — that is safe
/// because every accumulator merges exactly (float SUM/AVG accumulate into a
/// [`crate::exact::ExactSum`] fixed-point superaccumulator and round once at
/// emission), making the merged values independent of merge order. Groups are
/// emitted in first-seen `(morsel, sequence)` order — the global scan order — so the
/// output row order is also run-identical across thread counts and matches the
/// single-threaded engine's first-seen emission.
fn merge_aggregates(
    kernel: &AggKernel,
    locals: Vec<GroupTable>,
    shared: &Shared,
) -> Result<Vec<Row>, ExecError> {
    let mut merged = kernel.new_table();
    for local in locals {
        for group in local.into_states() {
            merged.merge_group(group);
        }
    }
    if !kernel.grouped() {
        shared.acquire(1, 8);
    }
    let mut groups = merged.into_states();
    groups.sort_by_key(|group| group.tag);
    groups.into_iter().map(|group| group.finish()).collect()
}

/// Sort materialized rows by the bound sort keys (the parallel analogue of `SortOp`).
fn sort_rows(rows: Vec<Row>, keys: &[(Expr, bool)]) -> Result<Vec<Row>, ExecError> {
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let mut key = Vec::with_capacity(keys.len());
        for (expr, _) in keys {
            key.push(expr.eval(&row)?);
        }
        keyed.push((key, row));
    }
    let directions: Vec<bool> = keys.iter().map(|(_, asc)| *asc).collect();
    keyed.sort_by(|a, b| {
        for (idx, ascending) in directions.iter().enumerate() {
            let ordering = a.0[idx].cmp(&b.0[idx]);
            let ordering = if *ascending { ordering } else { ordering.reverse() };
            if ordering != std::cmp::Ordering::Equal {
                return ordering;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, row)| row).collect())
}

// ---------------------------------------------------------------------------
// The public pipeline facade
// ---------------------------------------------------------------------------

/// A streaming root: the live exchange between this query's chain jobs (still
/// running on the resident pool) and the client pulling `next_batch`.
struct StreamingRoot {
    rx: Receiver<RowBatch>,
    /// Keeps the chain-job context (and its retirement gate) reachable.
    ctx: Arc<ChainCtx<ChannelSink>>,
    compiled: Arc<Compiled>,
    /// Seam suspension: whether the one in-flight batch was already delivered.
    seam_delivered: bool,
}

/// How far a parallel pipeline has progressed.
enum RunState {
    NotStarted,
    /// A materialized root (aggregate/sort breaker, inline run, or seam tail):
    /// rows are served in batch-size chunks.
    Serving {
        rows: Vec<Row>,
        pos: usize,
        /// Seam suspension: once `rows` is exhausted, report `Suspended` instead of
        /// end-of-stream.
        seam: bool,
    },
    /// A streaming-shaped root: chain jobs stay live on the pool across pulls,
    /// producing into a bounded exchange as fast as the client consumes.
    Streaming(StreamingRoot),
    Suspended,
    Poisoned,
    /// A streaming root that ran to completion.
    Done,
}

/// A morsel-driven parallel execution of one plan, behind the same contract as the
/// single-threaded [`Pipeline`](crate::exec::Pipeline).
///
/// Breaker-rooted plans (aggregate/sort) materialize their result inside the first
/// `next_batch` call and serve it in batch-size chunks — the breaker buffers
/// everything by definition. Streaming-shaped roots (scan/filter/project/join
/// spines) instead keep a **live root exchange**: the first pull registers the query
/// as a pool task and launches its chain jobs; every pull (including the first)
/// receives the next produced batch from a bounded channel while the jobs keep
/// running between pulls, so the root result is never buffered and a slow consumer
/// back-pressures the pool through the channel bound. The root buffer of
/// breaker-rooted plans is intentionally *not* charged to `peak_buffered_rows`,
/// which keeps its cross-engine meaning of breaker-buffered rows.
pub(crate) struct ParallelPipeline<'p> {
    plan: &'p PhysicalPlan,
    storage: &'p Storage,
    config: ExecConfig,
    observer: Option<ObserverHandle<'p>>,
    stats: StatsTree,
    /// The per-run coordinator; lives for the whole pipeline (streaming roots keep
    /// delivering events and surrender breaker state long after the first pull).
    engine: Option<Engine<'p>>,
    state: RunState,
    breaker_states: Vec<BreakerState>,
    peak_buffered_rows: u64,
    peak_buffered_bytes: u64,
    started: Option<Instant>,
    wall: Duration,
}

impl<'p> ParallelPipeline<'p> {
    pub(crate) fn new(
        plan: &'p PhysicalPlan,
        storage: &'p Storage,
        config: ExecConfig,
        observer: Option<ObserverHandle<'p>>,
    ) -> Self {
        let stats = build_stats_tree(plan);
        Self {
            plan,
            storage,
            config,
            observer,
            stats,
            engine: None,
            state: RunState::NotStarted,
            breaker_states: Vec::new(),
            peak_buffered_rows: 0,
            peak_buffered_bytes: 0,
            started: None,
            wall: Duration::ZERO,
        }
    }

    /// Start executing on the resident pool. Called on the first pull. Breaker
    /// roots run to completion here; streaming roots launch their chain jobs and
    /// return with the exchange open.
    fn run(&mut self) -> Result<(), ExecError> {
        self.started = Some(Instant::now());
        let pool = WorkerPool::global();
        let task = pool.register(self.config.priority);
        self.engine = Some(Engine {
            storage: self.storage,
            observer: self.observer.clone(),
            shared: Arc::new(Shared {
                quiesce: AtomicBool::new(false),
                seam: AtomicBool::new(false),
                observer_active: self.observer.is_some(),
                config: self.config.clone(),
                events: Mutex::new(VecDeque::new()),
                error: Mutex::new(None),
                buffered_current: AtomicU64::new(0),
                buffered_peak: AtomicU64::new(0),
                buffered_bytes_current: AtomicU64::new(0),
                buffered_bytes_peak: AtomicU64::new(0),
                reserved: AtomicU64::new(0),
                spill_needed: AtomicBool::new(false),
            }),
            stop: std::cell::Cell::new(None),
            completed_builds: Vec::new(),
            builds_planned: std::cell::Cell::new(0),
            builds_started: std::cell::Cell::new(0),
            pool,
            task,
        });
        let plan = self.plan;
        if let PlanKind::Limit { count } = plan.kind {
            let result = {
                let engine = self.engine.as_mut().expect("engine");
                engine.eval_limit(plan, &self.stats, count)
            };
            return self.settle_materialized(result);
        }
        if matches!(plan.kind, PlanKind::Aggregate { .. } | PlanKind::Sort { .. }) {
            let result = {
                let engine = self.engine.as_mut().expect("engine");
                engine.eval_rows(plan, &self.stats)
            };
            return self.settle_materialized(result);
        }
        // A streaming-shaped root: compile the spine (registered builds run lazily
        // at the end of the compile), then serve through a live exchange.
        let compiled = {
            let engine = self.engine.as_mut().expect("engine");
            engine.compile(plan, &self.stats)
        };
        let compiled = match compiled {
            Ok(compiled) => Arc::new(compiled),
            Err(error) => return self.settle_materialized(Err(error)),
        };
        let engine = self.engine.as_ref().expect("engine");
        if engine.stopped() || compiled.workers <= 1 {
            // Stopped during the builds, or a source too small to parallelize:
            // collect inline on the coordinator (tiny inputs never pay the pool).
            let result = engine.collect_compiled(&compiled);
            return self.settle_materialized(result);
        }
        let (tx, rx) = sync_channel::<RowBatch>(compiled.workers * 2);
        let ctx = engine.launch_chains(
            &compiled,
            ChannelSink {
                tx,
                shared: Arc::clone(&engine.shared),
                task: engine.task.clone(),
            },
        );
        self.state = RunState::Streaming(StreamingRoot {
            rx,
            ctx,
            compiled,
            seam_delivered: false,
        });
        Ok(())
    }

    /// Resolve a materialized run result into the serving/suspended/poisoned state,
    /// mirroring the single-threaded suspension contract.
    fn settle_materialized(&mut self, result: Result<Vec<Row>, ExecError>) -> Result<(), ExecError> {
        let engine = self.engine.as_mut().expect("engine");
        engine.pump_events();
        let stop = engine.stop.get();
        // A spill abort whose memory-pressure event led the observer to suspend
        // resolves as a suspension: the policy chose to re-plan instead of paying
        // for disk, so completed builds stay extractable and no error surfaces.
        let spill_suspended = stop.is_some() && matches!(result, Err(ExecError::Spill(_)));
        let states = match &result {
            Ok(_) => engine.breaker_states(),
            Err(_) if spill_suspended => engine.breaker_states(),
            Err(_) => Vec::new(),
        };
        self.finalize_counters();
        match result {
            Err(_) if spill_suspended => {
                self.breaker_states = states;
                self.state = RunState::Suspended;
                Err(ExecError::Suspended)
            }
            Err(error) => {
                self.state = RunState::Poisoned;
                Err(error)
            }
            Ok(rows) => {
                self.breaker_states = states;
                match stop {
                    Some(StopMode::Immediate) => {
                        // In-flight output is discarded, exactly like a mid-pull
                        // suspension of the single-threaded root.
                        self.state = RunState::Suspended;
                        Err(ExecError::Suspended)
                    }
                    Some(StopMode::Seam) => {
                        // Deliver the first produced root batch, then suspend: the
                        // clean hand-off for schedulers that must not lose the batch
                        // that was in flight when the decision was made.
                        let mut rows = rows;
                        rows.truncate(self.config.batch_size);
                        self.state = RunState::Serving {
                            rows,
                            pos: 0,
                            seam: true,
                        };
                        Ok(())
                    }
                    None => {
                        self.stats.stats.exhausted.store(true, Ordering::SeqCst);
                        self.state = RunState::Serving {
                            rows,
                            pos: 0,
                            seam: false,
                        };
                        Ok(())
                    }
                }
            }
        }
    }

    /// Capture the peak-buffer counters and wall time from the engine.
    fn finalize_counters(&mut self) {
        if let Some(engine) = &self.engine {
            self.peak_buffered_rows = engine.shared.buffered_peak.load(Ordering::SeqCst);
            self.peak_buffered_bytes = engine.shared.buffered_bytes_peak.load(Ordering::SeqCst);
        }
        if let Some(started) = self.started {
            self.wall = started.elapsed();
        }
    }

    /// Tear down a live stream: quiesce this query's chains, close the exchange so
    /// blocked senders unblock, and wait (pumping events) until every chain retired.
    /// Only this query's task drains — other queries' tasks on the pool keep running.
    fn shed_stream(&mut self) {
        let state = std::mem::replace(&mut self.state, RunState::Suspended);
        if let RunState::Streaming(stream) = state {
            let engine = self.engine.as_ref().expect("engine");
            engine.shared.quiesce.store(true, Ordering::SeqCst);
            drop(stream.rx);
            stream.ctx.gate.wait_pumping(&|| engine.pump_events());
        }
    }

    fn collect_stream_breakers(&mut self) {
        self.breaker_states = self.engine.as_mut().expect("engine").breaker_states();
    }

    /// One pull from a live streaming root.
    fn stream_next(&mut self) -> Result<Option<RowBatch>, ExecError> {
        loop {
            self.engine.as_ref().expect("engine").pump_events();
            let stop_pending = self.engine.as_ref().expect("engine").stop.get().is_some();
            if let Some(error) = self.engine.as_ref().expect("engine").take_error() {
                // A spill abort is superseded by a suspension decision taken on its
                // memory-pressure event: fall through to the stop-mode handling so
                // the run suspends (with breaker states) instead of erroring.
                if !(stop_pending && matches!(error, ExecError::Spill(_))) {
                    self.shed_stream();
                    self.state = RunState::Poisoned;
                    self.finalize_counters();
                    return Err(error);
                }
            }
            match self.engine.as_ref().expect("engine").stop.get() {
                Some(StopMode::Immediate) => {
                    // Rows still in the exchange are discarded.
                    self.shed_stream();
                    self.collect_stream_breakers();
                    self.state = RunState::Suspended;
                    self.finalize_counters();
                    return Err(ExecError::Suspended);
                }
                Some(StopMode::Seam) => {
                    let RunState::Streaming(stream) = &mut self.state else {
                        unreachable!("stream_next outside Streaming state");
                    };
                    if !stream.seam_delivered {
                        // Chains finish their in-flight batch under a seam quiesce;
                        // deliver it (if any materialized) before suspending.
                        loop {
                            match stream.rx.recv_timeout(Duration::from_micros(100)) {
                                Ok(batch) => {
                                    stream.seam_delivered = true;
                                    return Ok(Some(batch));
                                }
                                Err(RecvTimeoutError::Timeout) => {
                                    if stream.ctx.gate.finished() {
                                        if let Ok(batch) = stream.rx.try_recv() {
                                            stream.seam_delivered = true;
                                            return Ok(Some(batch));
                                        }
                                        break;
                                    }
                                }
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    }
                    self.shed_stream();
                    self.collect_stream_breakers();
                    self.state = RunState::Suspended;
                    self.finalize_counters();
                    return Err(ExecError::Suspended);
                }
                None => {}
            }
            let RunState::Streaming(stream) = &mut self.state else {
                unreachable!("stream_next outside Streaming state");
            };
            match stream.rx.recv_timeout(Duration::from_micros(100)) {
                Ok(batch) => return Ok(Some(batch)),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    if !stream.ctx.gate.finished() {
                        continue;
                    }
                    if let Ok(batch) = stream.rx.try_recv() {
                        return Ok(Some(batch));
                    }
                    // Every chain retired and the exchange is drained. Check for a
                    // late error, then finish: exhaustion marks plus the one-shot
                    // index-NL exact-cardinality reports (which may themselves
                    // suspend — handled at the top of the loop).
                    let compiled = Arc::clone(&stream.compiled);
                    if let Some(error) = self.engine.as_ref().expect("engine").take_error() {
                        // Surface the late error here and now: `take_error`
                        // consumed the slot, so deferring to the top-of-loop check
                        // (which would find nothing while quiesce stays set) would
                        // spin forever and lose the error.
                        self.shed_stream();
                        self.state = RunState::Poisoned;
                        self.finalize_counters();
                        return Err(error);
                    }
                    let engine = self.engine.as_ref().expect("engine");
                    if engine.shared.quiesce.load(Ordering::SeqCst) {
                        // Quiesced without an error: a suspension decision is in
                        // flight; the next pump at the top of the loop dispatches
                        // it and the stop-mode check takes over.
                        continue;
                    }
                    engine.finish_pipeline(&compiled);
                    if engine.stop.get().is_some() {
                        continue;
                    }
                    self.collect_stream_breakers();
                    self.stats.stats.exhausted.store(true, Ordering::SeqCst);
                    self.state = RunState::Done;
                    self.finalize_counters();
                    return Ok(None);
                }
            }
        }
    }

    pub(crate) fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError> {
        match &mut self.state {
            RunState::NotStarted => {
                self.run()?;
                self.next_batch()
            }
            RunState::Suspended => Err(ExecError::Suspended),
            RunState::Poisoned => Err(ExecError::InvalidPlan(
                "pipeline poisoned by an earlier execution error".into(),
            )),
            RunState::Done => Ok(None),
            RunState::Streaming(_) => self.stream_next(),
            RunState::Serving { rows, pos, seam } => {
                if *pos >= rows.len() {
                    if *seam {
                        self.state = RunState::Suspended;
                        return Err(ExecError::Suspended);
                    }
                    return Ok(None);
                }
                let end = (*pos + self.config.batch_size).min(rows.len());
                let batch = rows[*pos..end].to_vec();
                *pos = end;
                Ok(Some(batch))
            }
        }
    }

    pub(crate) fn is_suspended(&self) -> bool {
        matches!(self.state, RunState::Suspended)
    }

    pub(crate) fn take_breaker_states(&mut self) -> Vec<BreakerState> {
        std::mem::take(&mut self.breaker_states)
    }

    pub(crate) fn metrics(&self) -> QueryMetrics {
        let execution_time = if self.wall > Duration::ZERO {
            self.wall
        } else {
            self.started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO)
        };
        QueryMetrics {
            root: assemble_metrics(self.plan, &self.stats),
            execution_time,
            engine: "parallel",
            fallback: None,
        }
    }

    pub(crate) fn peak_buffered_rows(&self) -> u64 {
        self.peak_buffered_rows
    }

    pub(crate) fn peak_buffered_bytes(&self) -> u64 {
        self.peak_buffered_bytes
    }

    /// The plan this pipeline executes (the facade restarts it on the
    /// single-threaded spill engine after a memory-budget abort).
    /// Open the same plan, with the same settings and observer, on the
    /// single-threaded engine.
    pub(crate) fn reopen_single(&self) -> Result<SinglePipeline<'p>, ExecError> {
        open_single(
            self.plan,
            self.storage,
            self.config.clone(),
            self.observer.clone(),
        )
    }

    /// Whether the run aborted because a breaker sink's memory reservation was
    /// denied — the signal for the facade to restart on the spill engine.
    pub(crate) fn needs_spill_fallback(&self) -> bool {
        self.engine
            .as_ref()
            .map(|engine| engine.shared.spill_needed.load(Ordering::SeqCst))
            .unwrap_or(false)
    }
}

impl Drop for ParallelPipeline<'_> {
    fn drop(&mut self) {
        // A pipeline dropped mid-stream abandons its chains gracefully: quiesce the
        // query and close the exchange; the pool drains the remaining jobs (each
        // observes the quiesce flag and retires) without blocking this thread.
        if let (RunState::Streaming(_), Some(engine)) = (&self.state, &self.engine) {
            engine.shared.quiesce.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{
        ExecutionObserver, Executor, ObserverDecision, ObserverHandle, DEFAULT_BATCH_SIZE,
    };
    use reopt_catalog::Catalog;
    use reopt_planner::{CardinalityOverrides, Optimizer, OptimizerConfig};
    use reopt_sql::parse_sql;
    use reopt_storage::{Column, DataType, IndexKind};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A movie database big enough that default-batch-size pipelines split into
    /// several morsels (title: 12k rows, movie_keyword: 24k rows).
    fn build_env() -> (Storage, Catalog) {
        let mut storage = Storage::new();

        let mut title = Table::new(
            "title",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("production_year", DataType::Int),
                Column::new("rating", DataType::Float),
            ]),
        );
        for i in 0..12_000i64 {
            title
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("movie {i:05}")),
                    Value::Int(1970 + (i % 50)),
                    Value::Float((i % 100) as f64 / 10.0),
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
        for i in 0..40i64 {
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
        for i in 0..12_000i64 {
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i), Value::Int(i % 40)]))
                .unwrap();
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i), Value::Int((i + 1) % 40)]))
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

    fn plan_with(
        sql: &str,
        storage: &Storage,
        catalog: &Catalog,
        config: OptimizerConfig,
    ) -> reopt_planner::PlannedQuery {
        let statement = parse_sql(sql).unwrap();
        Optimizer::new(config)
            .plan_select(
                statement.query().unwrap(),
                storage,
                catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap()
    }

    fn plan(sql: &str, storage: &Storage, catalog: &Catalog) -> reopt_planner::PlannedQuery {
        plan_with(sql, storage, catalog, OptimizerConfig::default())
    }

    fn sorted_rows(rows: &[Row]) -> Vec<String> {
        let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
        rendered.sort();
        rendered
    }

    /// Queries covering scans, filters, projections, hash and index-NL joins, grouped
    /// and single-row aggregation, and sorting.
    const SWEEP_QUERIES: &[&str] = &[
        "SELECT count(*) AS c FROM title AS t WHERE t.production_year >= 2010",
        "SELECT t.id AS id, t.title AS name FROM title AS t WHERE t.id < 50",
        "SELECT min(t.title) AS m, count(*) AS c
         FROM title AS t, movie_keyword AS mk, keyword AS k
         WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw3'",
        "SELECT t.production_year, count(*) AS movies
         FROM title AS t, movie_keyword AS mk
         WHERE t.id = mk.movie_id AND t.production_year >= 2015
         GROUP BY t.production_year",
        "SELECT t.production_year, count(*) AS movies
         FROM title AS t
         GROUP BY t.production_year
         ORDER BY movies DESC, t.production_year ASC",
        "SELECT sum(t.id) AS s, avg(t.id) AS a FROM title AS t WHERE t.id < 1000",
    ];

    #[test]
    fn parallel_matches_single_threaded_on_every_operator_shape() {
        let (storage, catalog) = build_env();
        for sql in SWEEP_QUERIES {
            let planned = plan(sql, &storage, &catalog);
            let reference = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            for threads in [2usize, 4, 8] {
                let parallel = Executor::new(&storage)
                    .with_threads(threads)
                    .execute(&planned.plan)
                    .unwrap();
                assert_eq!(
                    sorted_rows(&parallel.rows),
                    sorted_rows(&reference.rows),
                    "threads={threads} changed the result of {sql}"
                );
            }
        }
    }

    #[test]
    fn batch_size_one_parallel_matches_default() {
        let (storage, catalog) = build_env();
        let sql = "SELECT min(t.title) AS m, count(*) AS c
                   FROM title AS t, movie_keyword AS mk
                   WHERE t.id = mk.movie_id AND t.production_year >= 2018";
        let planned = plan(sql, &storage, &catalog);
        let reference = Executor::new(&storage)
            .with_threads(1)
            .execute(&planned.plan)
            .unwrap();
        let tiny = Executor::with_batch_size(&storage, 1)
            .with_threads(4)
            .execute(&planned.plan)
            .unwrap();
        assert_eq!(sorted_rows(&tiny.rows), sorted_rows(&reference.rows));
    }

    #[test]
    fn empty_inputs_flow_through_parallel_pipelines() {
        let (storage, catalog) = build_env();
        // No title survives the predicate: scans, joins and aggregates all see empty
        // inputs, across every batch size.
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk
                   WHERE t.id = mk.movie_id AND t.production_year > 3000";
        let planned = plan(sql, &storage, &catalog);
        for batch_size in [1usize, 7, DEFAULT_BATCH_SIZE] {
            let result = Executor::with_batch_size(&storage, batch_size)
                .with_threads(4)
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(result.rows.len(), 1, "batch {batch_size}");
            assert_eq!(result.rows[0].value(0), &Value::Int(0), "batch {batch_size}");
        }
    }

    #[test]
    fn more_threads_than_morsels_degrades_gracefully() {
        let (storage, catalog) = build_env();
        // keyword has 40 rows: at the default batch size that is a single morsel, so
        // the pipeline runs inline no matter how many threads are configured; with
        // batch size 2 (8-row morsels) it splits into 5 morsels, capping the pool at
        // 5 workers. Both must produce the exact table.
        let sql = "SELECT count(*) AS c FROM keyword AS k";
        let planned = plan(sql, &storage, &catalog);
        for batch_size in [2usize, DEFAULT_BATCH_SIZE] {
            let result = Executor::with_batch_size(&storage, batch_size)
                .with_threads(64)
                .execute(&planned.plan)
                .unwrap();
            assert_eq!(result.rows[0].value(0), &Value::Int(40), "batch {batch_size}");
        }
    }

    #[test]
    fn parallel_metrics_aggregate_across_workers() {
        let (storage, catalog) = build_env();
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk
                   WHERE t.id = mk.movie_id";
        let planned = plan(sql, &storage, &catalog);
        let executor = Executor::with_batch_size(&storage, 256).with_threads(4);
        let mut pipeline = executor.open(&planned.plan).unwrap();
        let mut rows = 0usize;
        while let Some(batch) = pipeline.next_batch().unwrap() {
            assert!(batch.len() <= 256);
            rows += batch.len();
        }
        assert_eq!(rows, 1);
        let metrics = pipeline.metrics();
        let joins = metrics.root.joins_bottom_up();
        assert_eq!(joins[0].actual_rows, 24_000, "worker counts must sum exactly");
        assert!(joins[0].batches >= 24_000 / 256, "join output is batched");
        metrics
            .root
            .walk(&mut |node| assert!(node.metrics.exhausted, "{}", node.metrics.label));
        assert!(metrics.execution_time > Duration::ZERO);
        // Only breaker state is buffered (a build side or index lookaside), never the
        // 24k-row join output.
        let peak = pipeline.peak_buffered_rows();
        assert!(peak > 0 && peak < 24_000, "peak buffered rows {peak}");
    }

    /// Suspends on the first event that satisfies `trigger`, recording every event.
    struct SuspendWhen {
        events: Vec<ExecEvent>,
        trigger: fn(&ExecEvent) -> bool,
        decision: crate::exec::ObserverDecision,
    }

    impl ExecutionObserver for SuspendWhen {
        fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
            self.events.push(event.clone());
            if (self.trigger)(event) {
                self.decision
            } else {
                ObserverDecision::Continue
            }
        }
    }

    /// Hash-joins-only configuration so the plan deterministically has build sides.
    fn hash_only() -> OptimizerConfig {
        OptimizerConfig {
            enable_index_scans: false,
            enable_index_nl_joins: false,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn suspension_races_breaker_completion_without_losing_state() {
        let (storage, catalog) = build_env();
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk, keyword AS k
                   WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw3'";
        let planned = plan_with(sql, &storage, &catalog, hash_only());
        // Suspend on the first *progress* event of the probe spine: the decision
        // lands while the worker pool is mid-pipeline, after at least one build
        // completed — the parallel engine must quiesce every worker and still
        // surrender the completed builds.
        let observer = Rc::new(RefCell::new(SuspendWhen {
            events: Vec::new(),
            trigger: |event| matches!(event, ExecEvent::Progress(_)),
            decision: ObserverDecision::Suspend,
        }));
        let executor = Executor::with_batch_size(&storage, 64)
            .with_threads(4)
            .with_progress_interval(1);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
            .unwrap();
        let err = pipeline.next_batch().unwrap_err();
        assert_eq!(err, ExecError::Suspended);
        assert!(pipeline.is_suspended());
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);

        let states = pipeline.take_breaker_states();
        assert!(!states.is_empty(), "completed builds survive the race");
        for state in &states {
            assert_eq!(state.kind, BreakerKind::HashBuild);
        }
        // Events stopped at the suspension decision: exactly one progress event was
        // delivered, and every breaker event preceding it completed innermost-first.
        let events = &observer.borrow().events;
        let progress_count = events
            .iter()
            .filter(|e| matches!(e, ExecEvent::Progress(_)))
            .count();
        assert_eq!(progress_count, 1, "no events are delivered after suspension");
        let breaker_sizes: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                ExecEvent::BreakerComplete(b) => Some(b.rel_set.len()),
                _ => None,
            })
            .collect();
        assert!(!breaker_sizes.is_empty());
        assert!(
            breaker_sizes.windows(2).all(|w| w[0] <= w[1]),
            "breaker completions funnel innermost-first: {breaker_sizes:?}"
        );
    }

    #[test]
    fn suspending_on_a_breaker_keeps_that_build_extractable() {
        let (storage, catalog) = build_env();
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk, keyword AS k
                   WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw3'";
        let planned = plan_with(sql, &storage, &catalog, hash_only());
        let observer = Rc::new(RefCell::new(SuspendWhen {
            events: Vec::new(),
            trigger: |event| match event {
                ExecEvent::BreakerComplete(b) => b.rel_set.len() >= 2,
                _ => false,
            },
            decision: ObserverDecision::Suspend,
        }));
        let executor = Executor::new(&storage).with_threads(4);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
            .unwrap();
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
        let states = pipeline.take_breaker_states();
        let build = states
            .iter()
            .find(|s| s.rel_set.len() == 2)
            .expect("two-relation build state");
        // kw3 is attached to movies with id % 40 in {3} plus (id+1) % 40 == 3:
        // 2 * 12000/40 = 600 rows, built in parallel partitions and reassembled.
        assert_eq!(build.rows.len(), 600);
        // Only what the rest of the query reads leaves the build: mk.movie_id, for
        // the join with t, under its original qualifier.
        assert_eq!(build.schema.len(), 1, "{}", build.schema);
        assert!(build.schema.index_of(Some("mk"), "movie_id").is_ok());
        assert!(build.rows.iter().all(|row| row.len() == 1));
    }

    #[test]
    fn root_seam_suspension_delivers_one_batch_then_suspends() {
        let (storage, catalog) = build_env();
        let sql = "SELECT mk.movie_id AS m FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id";
        let planned = plan_with(sql, &storage, &catalog, hash_only());
        let observer = Rc::new(RefCell::new(SuspendWhen {
            events: Vec::new(),
            trigger: |event| matches!(event, ExecEvent::Progress(_)),
            decision: ObserverDecision::SuspendAtRootSeam,
        }));
        let executor = Executor::with_batch_size(&storage, 32)
            .with_threads(4)
            .with_progress_interval(1);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
            .unwrap();
        let first = pipeline.next_batch().unwrap().expect("in-flight batch delivered");
        assert!(!first.is_empty() && first.len() <= 32);
        assert!(!pipeline.is_suspended(), "suspension waits for the seam");
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
        assert!(pipeline.is_suspended());
    }

    #[test]
    fn every_plan_shape_is_parallel_supported() {
        let (storage, catalog) = build_env();
        // The former denylist entries — LIMIT, float SUM/AVG, plain NL joins — all
        // have parallel implementations now.
        for sql in [
            "SELECT t.id AS id FROM title AS t LIMIT 3",
            "SELECT avg(t.rating) AS a FROM title AS t",
            "SELECT sum(t.id) AS s, min(t.title) AS m FROM title AS t",
        ] {
            let planned = plan(sql, &storage, &catalog);
            assert!(plan_supported(&planned.plan), "{sql}");
            assert_eq!(fallback_reason(&planned.plan), None, "{sql}");
        }
        let result = Executor::new(&storage)
            .with_threads(4)
            .execute(&plan("SELECT t.id AS id FROM title AS t LIMIT 3", &storage, &catalog).plan)
            .unwrap();
        assert_eq!(result.rows.len(), 3);
    }

    /// Render float cells as their exact bit patterns (other values as display text),
    /// so equality means *bit* identity, not approximate equality.
    fn float_bits(rows: &[Row]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|value| match value {
                        Value::Float(f) => format!("bits:{:016x}", f.to_bits()),
                        other => format!("{other}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn float_aggregates_bit_identical_across_threads_and_runs() {
        let (storage, catalog) = build_env();
        for sql in [
            "SELECT sum(t.rating) AS s, avg(t.rating) AS a FROM title AS t",
            "SELECT t.production_year, sum(t.rating) AS s, avg(t.rating) AS a
             FROM title AS t GROUP BY t.production_year",
        ] {
            let planned = plan(sql, &storage, &catalog);
            assert!(plan_supported(&planned.plan), "{sql}");
            let reference = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            let want = float_bits(&reference.rows);
            for threads in [2usize, 4] {
                for run in 0..3 {
                    let result = Executor::new(&storage)
                        .with_threads(threads)
                        .execute(&planned.plan)
                        .unwrap();
                    // Unsorted comparison: group emission order (first-seen in scan
                    // order) must also be deterministic.
                    assert_eq!(
                        float_bits(&result.rows),
                        want,
                        "threads={threads} run={run} {sql}"
                    );
                }
            }
        }
    }

    #[test]
    fn limit_rows_identical_to_single_threaded() {
        let (storage, catalog) = build_env();
        for sql in [
            // Order-insensitive shapes: parallel truncation must still pick the
            // same (scan-order) prefix as the single-threaded engine.
            "SELECT t.id AS id FROM title AS t LIMIT 10",
            "SELECT t.id AS id, t.title AS name FROM title AS t
             WHERE t.production_year >= 1990 LIMIT 257",
            // ORDER BY ... LIMIT: plan-defined order, truncated after the sort.
            "SELECT t.id AS id FROM title AS t ORDER BY id DESC LIMIT 7",
            "SELECT t.production_year, count(*) AS c FROM title AS t
             GROUP BY t.production_year ORDER BY c DESC, t.production_year ASC LIMIT 5",
            // LIMIT larger than the result: the child drains completely.
            "SELECT t.id AS id FROM title AS t WHERE t.id < 20 LIMIT 1000",
        ] {
            let planned = plan(sql, &storage, &catalog);
            assert!(plan_supported(&planned.plan), "{sql}");
            let reference = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            let want: Vec<String> = reference.rows.iter().map(|r| format!("{r}")).collect();
            for threads in [2usize, 4] {
                for run in 0..2 {
                    let parallel = Executor::new(&storage)
                        .with_threads(threads)
                        .execute(&planned.plan)
                        .unwrap();
                    let got: Vec<String> = parallel.rows.iter().map(|r| format!("{r}")).collect();
                    assert_eq!(got, want, "threads={threads} run={run} {sql}");
                }
            }
        }
    }

    fn has_kind(plan: &PhysicalPlan, f: &dyn Fn(&PlanKind) -> bool) -> bool {
        f(&plan.kind) || plan.children.iter().any(|child| has_kind(child, f))
    }

    /// Plain-NL-joins-only configuration (every other join algorithm disabled).
    fn nl_only() -> OptimizerConfig {
        OptimizerConfig {
            enable_index_scans: false,
            enable_hash_joins: false,
            enable_index_nl_joins: false,
            ..OptimizerConfig::default()
        }
    }

    #[test]
    fn nl_join_parallel_matches_single_threaded() {
        let (storage, catalog) = build_env();
        for sql in [
            "SELECT mk.movie_id AS mid, k.keyword AS kw
             FROM movie_keyword AS mk, keyword AS k
             WHERE mk.keyword_id = k.id AND mk.movie_id < 50",
            "SELECT t.id AS id, mk.keyword_id AS kid
             FROM title AS t, movie_keyword AS mk
             WHERE t.id = mk.movie_id AND mk.keyword_id < 5",
            "SELECT count(*) AS c, min(t.title) AS m
             FROM title AS t, movie_keyword AS mk
             WHERE t.id = mk.movie_id AND t.production_year >= 2010",
        ] {
            let planned = plan_with(sql, &storage, &catalog, nl_only());
            assert_eq!(fallback_reason(&planned.plan), None, "{sql}");
            assert!(
                has_kind(&planned.plan, &|k| matches!(k, PlanKind::NestedLoopJoin { .. })),
                "expected a nested-loop join: {sql}"
            );
            // The reference is an independent plan: the same query joined by hashing.
            let hashed = plan_with(sql, &storage, &catalog, hash_only());
            assert!(!has_kind(&hashed.plan, &|k| matches!(k, PlanKind::NestedLoopJoin { .. })));
            let reference = Executor::new(&storage)
                .with_threads(1)
                .execute(&hashed.plan)
                .unwrap();
            assert!(!reference.rows.is_empty(), "{sql}");
            for threads in [1usize, 2, 4] {
                let result = Executor::new(&storage)
                    .with_threads(threads)
                    .execute(&planned.plan)
                    .unwrap();
                assert_eq!(
                    sorted_rows(&result.rows),
                    sorted_rows(&reference.rows),
                    "threads={threads} {sql}"
                );
            }
        }
    }

    #[test]
    fn suspension_on_an_inner_breaker_skips_outer_builds() {
        let (storage, catalog) = build_env();
        // Two relations each joining directly to `t`: the plan is a left-deep spine
        // with both hash builds registered on it (no derivable mk1-mk2 join exists,
        // so a bushy shape is off the table).
        let sql = "SELECT count(*) AS c
                   FROM title AS t, movie_keyword AS mk1, movie_keyword AS mk2
                   WHERE t.id = mk1.movie_id AND t.id = mk2.movie_id";
        let planned = plan_with(sql, &storage, &catalog, hash_only());
        // Baseline: an unsuspended run starts every registered build.
        let mut baseline = ParallelPipeline::new(
            &planned.plan,
            &storage,
            ExecConfig {
                threads: 4,
                progress_every: 0,
                ..ExecConfig::default()
            },
            None,
        );
        while baseline.next_batch().unwrap().is_some() {}
        let engine = baseline.engine.as_ref().expect("engine");
        let planned_builds = engine.builds_planned.get();
        assert_eq!(planned_builds, engine.builds_started.get());
        assert!(planned_builds >= 2, "both builds ride the probe spine");

        // Suspending on the first (innermost) breaker completion must skip the
        // outer build entirely — the lazy scheduler never starts it.
        let observer = Rc::new(RefCell::new(SuspendWhen {
            events: Vec::new(),
            trigger: |event| matches!(event, ExecEvent::BreakerComplete(_)),
            decision: ObserverDecision::Suspend,
        }));
        let mut pipeline = ParallelPipeline::new(
            &planned.plan,
            &storage,
            ExecConfig {
                threads: 4,
                progress_every: 0,
                ..ExecConfig::default()
            },
            Some(observer as ObserverHandle),
        );
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
        let engine = pipeline.engine.as_ref().expect("engine");
        assert_eq!(engine.builds_planned.get(), planned_builds);
        assert!(
            engine.builds_started.get() < planned_builds,
            "suspension must schedule fewer builds than the eager baseline ({} of {})",
            engine.builds_started.get(),
            planned_builds
        );
    }

    #[test]
    fn errors_inside_workers_poison_the_pipeline() {
        let (storage, catalog) = build_env();
        let planned = plan("SELECT count(*) AS c FROM keyword AS k", &storage, &catalog);
        let mut emptied = storage.clone();
        emptied.drop_table("keyword").unwrap();
        let executor = Executor::new(&emptied).with_threads(4);
        let mut pipeline = executor.open(&planned.plan).unwrap();
        let err = pipeline.next_batch().unwrap_err();
        assert!(matches!(err, ExecError::TableNotFound(_)));
        // Poisoned thereafter.
        assert!(pipeline.next_batch().is_err());
    }

    #[test]
    fn late_worker_error_surfaces_instead_of_hanging_the_stream() {
        let (storage, catalog) = build_env();
        // The filter divides by zero only on the very last title row (id 11999),
        // so the error lands while the stream is already draining: chains are
        // about to retire and earlier batches were delivered. The terminal branch
        // of `stream_next` must surface the error (then poison the pipeline)
        // rather than consume it and spin on the quiesce flag forever.
        let sql = "SELECT t.id AS id FROM title AS t WHERE 1 / (11999 - t.id) >= 0";
        let planned = plan(sql, &storage, &catalog);
        let executor = Executor::with_batch_size(&storage, 64).with_threads(4);
        let mut pipeline = executor.open(&planned.plan).unwrap();
        let error = loop {
            match pipeline.next_batch() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("stream ended without surfacing the worker error"),
                Err(error) => break error,
            }
        };
        assert!(matches!(error, ExecError::Eval(_)), "unexpected error: {error}");
        assert!(pipeline.next_batch().is_err(), "poisoned thereafter");
    }
}

