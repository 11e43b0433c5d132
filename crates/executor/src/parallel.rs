//! The execution engine: morsel-driven, at every thread count.
//!
//! The plan is decomposed into *pipelines* at pipeline-breaker seams, exactly the
//! decomposition HyPer-style morsel-driven schedulers use: the build side of every
//! hash join (and the inner side of every plain nested-loop join) is a pipeline that
//! terminates in a build sink, the probe spine is a pipeline that terminates at the
//! root (or at an aggregate/sort sink), and pipelines execute in dependency order — a
//! join's build pipeline completes (and fires its [`BreakerEvent`]) before the probe
//! pipeline that consumes its join table starts.
//!
//! Within one pipeline the driving source (a table heap, an index-scan row-id list, or
//! a materialized breaker output) is split into **morsels** — runs of
//! [`MORSEL_BATCHES`] batches — and each morsel is pushed, a batch at a time, through
//! the pipeline's chain of streaming steps (`chain.rs`: filters, projections, hash
//! and nested-loop probes against a shared immutable join table, index-NL probes
//! against shared storage). Every batch a step yields goes down the chain at once,
//! so no fan-out is held in memory beyond one batch per step.
//!
//! Who runs the morsels:
//!
//! * **one thread**: the coordinator's *inline worker* runs every pipeline, taking
//!   the whole source as one input, as a morsel-driven engine runs one worker (Leis
//!   et al., SIGMOD 2014): step states carry across morsels, and the chain ends
//!   once, source-up (`end_chain`). Registered join builds run root-down. A run
//!   that never launches chain jobs never registers with the pool;
//! * **more threads**: *chain jobs* on the process-wide resident [`WorkerPool`]
//!   claim morsels through an atomic work-stealing cursor. Each query registers as
//!   a pool task, and each chain job processes one morsel then re-enqueues itself at
//!   the back of its task's queue, so concurrent queries interleave at morsel
//!   granularity under the pool's priority + round-robin discipline (see
//!   [`crate::pool`]). Each worker has its own step states, and the end of a morsel
//!   is the end of the steps' input; a pipeline ends once every worker retired
//!   (`Engine::finish_pipeline`). Builds run innermost-first. A source smaller
//!   than two morsels runs on the inline worker, morsel by morsel, so tiny
//!   dimension-table builds never pay the pool.
//!
//! The chain feeds the pipeline sink:
//!
//! * **streaming roots** on the pool exchange row batches through a *bounded*
//!   channel that stays live across `next_batch` pulls — the pool keeps producing
//!   (up to the channel bound) while the client consumes; a one-thread root runs
//!   a morsel, or the end of its input, on a pull that finds no batch to serve;
//! * **collection sinks** (sort inputs, small or spilled streaming roots) keep each
//!   worker's batches with their `(morsel, sequence)` tags, reassembled in tag order;
//! * **join build sinks** buffer each worker's rows with their tags; once every
//!   worker finished, the coordinator inserts them in tag order into one join table
//!   (`hash_join.rs`), so probe fan-out order and extracted breaker-state rows are
//!   the same at every thread count. A hash build reserves its bytes against the
//!   governor, and the table's grant lives as long as the step that probes it; a
//!   nested-loop inner (a join table on zero keys) reserves nothing;
//! * **aggregation sinks** fold their batches with the aggregation kernel into
//!   per-worker group tables, merged by the coordinator at the breaker.
//!   Accumulator merging is *exact* for every aggregate — SUM/AVG accumulate float
//!   terms into a fixed-point superaccumulator ([`crate::exact::ExactSum`]) and
//!   integer terms into an `i128`, and round once at emission — and groups are
//!   emitted in first-seen `(morsel, sequence)` order, so results are bit-identical
//!   across runs, thread counts and merge orders;
//! * **LIMIT roots** use a morsel-ordered exchange: workers tag batches with their
//!   morsel index and the coordinator reassembles them in morsel order, quiescing
//!   the query through the per-query quiesce flag the moment the limit is
//!   satisfied — output is run-identical at every thread count.
//!
//! # Out of core
//!
//! Under a memory budget the engine spills in place, through the kernels. A denied
//! grant first reports memory pressure: inline and on the coordinator the event is
//! delivered before the kernel spills, so a suspending observer stops the run
//! before anything is written; a pool worker waits (bounded) until the coordinator
//! took the event off the queue, and a file it writes while the decision is in
//! flight goes with the stopped run. Then a denied build worker starts the join's
//! grace-hash partitioning (`GraceJoin`), and every later build batch goes there;
//! the probe step of a spilled join partitions its probe rows, and once its input
//! ended the same step joins the partitions and pushes each output batch down the
//! chain above the join into the same sink (on the pool the coordinator does this
//! after the main pass, as one more morsel). A denied aggregation worker flushes
//! its group table as a key-sorted run for the coordinator's merge, and the
//! coordinator runs the sort (`SortBuffer`).
//!
//! # The observer contract
//!
//! The installed [`ExecutionObserver`](crate::exec::ExecutionObserver) is only ever
//! invoked from the coordinator thread (observers are deliberately not `Send`). Events
//! funnel to it in a defined order:
//!
//! * steps enqueue [`ProgressEvent`](crate::ProgressEvent)s into a mutex-ordered
//!   queue (snapshots are taken under the queue lock, so produced-row counts are
//!   monotonic in delivery order); the inline worker delivers them after every
//!   batch a step yields, and a pool worker waits (bounded) after each batch until
//!   the coordinator delivered them, so a suspension stops a worker within a batch;
//! * the coordinator drains that queue — in queue order — before delivering any
//!   coordinator-generated event, and emits exactly one [`BreakerEvent`] per breaker,
//!   carrying worker-aggregated actual rows, when the merge step completes.
//!
//! A `Suspend` decision sets the *query's own* quiesce flag; its workers observe it
//! on the next batch boundary and retire, and the pipeline reports
//! [`ExecError::Suspended`] with every *completed* build retained so
//! [`Pipeline::take_breaker_states`] still extracts reusable state, innermost first.
//! `SuspendAtRootSeam` also quiesces, but the first already-produced root batch is
//! delivered before the next pull reports `Suspended`. A one-thread root serves
//! every batch it made before a stop first, as a pull-based run had delivered
//! them (an immediate stop drops the in-flight one, a seam stop ends with it).
//!
//! Per-operator metrics are recorded on one counter tree (the `instrument`
//! module): workers add to a node's rows, batches and own time (so `elapsed` can
//! exceed wall clock), a sink charges its consume time to the breaker it feeds, an
//! aggregate or sort counts the batches it hands over, and a node is exhausted
//! only when it and its whole subtree ran to completion. On the pool a streaming
//! step counts at most one batch more per morsel than a one-thread run (its
//! partial batch at the morsel's end). Buffered rows are tracked through one
//! shared atomic high-water mark.
//!
//! # Lazy build scheduling
//!
//! Pipelines form a dependency DAG: a probe pipeline depends on its hash-build and
//! nested-loop-inner pipelines, which in turn depend on whatever breakers feed
//! *them*. `Engine::compile` walks the probe spine collecting the chain steps and
//! **registering** build pipelines without executing them; builds run only after the
//! spine's own source is runnable, with a stop check between each, so a suspension
//! skips every build not yet started. [`lazy_builds_planned_total`] /
//! [`lazy_builds_started_total`] count registered vs actually-started builds
//! process-wide.
//!
//! The engine runs every plan the planner emits. The planner places LIMIT only at
//! the plan root; a hand-built plan with a LIMIT below it fails to compile with
//! [`ExecError::InvalidPlan`].

use crate::error::ExecError;
use crate::exec::{
    lookup_table_arc, relation_schema, resolve_index_row_ids, scan_encoding_label, Batch,
    BreakerEvent, BreakerKind, BreakerState, ExecConfig, ExecEvent, MemoryPressureEvent,
    ObserverHandle, RowBatch, TableRead,
};
use crate::agg::{AggKernel, GroupSpill, GroupTable, Tag};
use crate::chain::{lock, Built, Events, Step, StepState};
use crate::hash_join::{GraceJoin, JoinTable};
use crate::instrument::{observe, Buffered, OpStats, StatsNode, Stop};
use crate::metrics::QueryMetrics;
use crate::pool::{Gate, TaskHandle, WorkerPool};
use crate::sort::{SortBuffer, Sorted};
use crate::spill::Reservation;
use reopt_expr::MaskCache;
use reopt_planner::{PhysicalPlan, PlanKind, RelSet};
use reopt_storage::{Row, Storage, Table};
use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rows per morsel, in units of the executor batch size: each morsel is a contiguous
/// run of this many batches of the pipeline's driving source.
pub const MORSEL_BATCHES: usize = 4;

/// Always 0: there is one engine, so no plan falls back to another and nothing
/// counts fallbacks. The function stays only because the benchmark package
/// (`benchmark/src/run.rs`) still reports it as a metric; the next change allowed
/// to edit `benchmark/` removes both.
pub fn plan_fallbacks_total() -> u64 {
    0
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

/// State shared between the coordinator and the workers (everything here is `Sync`).
struct Shared {
    /// Set by the coordinator to quiesce every worker at the next batch boundary.
    quiesce: AtomicBool,
    /// Set alongside `quiesce` for a root-seam suspension: workers finish their
    /// in-flight batch (so it can be delivered) instead of dropping it mid-step.
    seam: AtomicBool,
    /// Whether an observer is installed (workers skip event bookkeeping otherwise).
    observer_active: bool,
    /// The executor's settings; breaker sinks reserve against `config.governor`
    /// through grants of their own (the kernels' [`Reservation`]s).
    config: ExecConfig,
    /// Worker-enqueued events, drained by the coordinator in FIFO order.
    events: Mutex<VecDeque<ExecEvent>>,
    /// First worker error; its presence also quiesces the run.
    error: Mutex<Option<ExecError>>,
    /// Rows and bytes buffered by breakers (partial and merged states alike).
    buffered: Buffered,
}

impl Shared {
    /// Stop the run on a worker error. A suspension reported from inside a sink (its
    /// memory-pressure event stopped the run) is the stop itself, not a failure.
    fn fail(&self, error: ExecError) {
        if error != ExecError::Suspended {
            let mut slot = self.error.lock().expect("error lock");
            if slot.is_none() {
                *slot = Some(error);
            }
        }
        self.quiesce.store(true, Ordering::SeqCst);
    }

    /// A sink's memory-pressure callback: enqueue the event of its denied `grant`
    /// and let the coordinator take it (`pump`). Returns [`ExecError::Suspended`]
    /// once the run is stopping, so the kernel commits no spill.
    fn pressure(
        &self,
        kind: BreakerKind,
        meta: (RelSet, f64),
        grant: &Reservation,
        pump: &dyn Fn(),
    ) -> Result<(), ExecError> {
        if self.observer_active {
            let rows = self.buffered.rows();
            self.send(&|| MemoryPressureEvent::denied(kind, meta, rows, grant))?;
            pump();
        }
        if self.quiesce.load(Ordering::SeqCst) {
            return Err(ExecError::Suspended);
        }
        Ok(())
    }

    /// Whether the run is a one-thread run, whose worker takes each pipeline's
    /// source as one input and ends each step's input as it runs out
    /// ([`end_chain`]). With more threads each morsel is an input and
    /// [`Engine::finish_pipeline`] ends a pipeline once it drained (ROADMAP item 15
    /// settles one rule).
    fn one_input(&self) -> bool {
        self.config.threads == 1
    }

    /// Whether in-flight work should be abandoned mid-step (immediate suspension or
    /// an error — but not a seam suspension, whose in-flight batch is delivered).
    fn drop_inflight(&self) -> bool {
        self.quiesce.load(Ordering::Relaxed) && !self.seam.load(Ordering::Relaxed)
    }

    /// Worker-side backpressure behind the observer: yield (bounded) until the
    /// coordinator drained the event queue. The inline worker delivers events after
    /// every batch a step yields; this approximates that under parallelism, so a
    /// suspension decision stops the pool after at most
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
            // The queue is never poisoned: nothing that holds it can panic.
            if self.events.lock().expect("event queue").is_empty() {
                return;
            }
            std::thread::yield_now();
        }
    }
}

impl Events for Shared {
    fn active(&self) -> bool {
        self.observer_active
    }

    fn send(&self, event: &dyn Fn() -> ExecEvent) -> Result<(), ExecError> {
        let mut queue = self
            .events
            .lock()
            .map_err(|_| ExecError::Eval("event queue poisoned by a worker panic".into()))?;
        queue.push_back(event());
        Ok(())
    }
}

/// A completed build retained (only for observed pipelines) so that suspension
/// can surrender it as a [`BreakerState`].
struct CompletedBuild<'p> {
    kind: BreakerKind,
    /// The build subtree.
    side: &'p PhysicalPlan,
    table: Arc<JoinTable>,
}

// ---------------------------------------------------------------------------
// Pipeline sources
// ---------------------------------------------------------------------------

/// The driving input of one pipeline, split into morsels (the chain steps over it
/// are `chain.rs`'s). Sources own `Arc`
/// handles to their tables (not borrows) so a compiled pipeline is `'static` and
/// its chain jobs can run on the resident pool, outliving any one stack frame.
enum Source {
    /// A sequential scan over a table's column chunks. Each morsel chunk slices
    /// only the columns the predicate or the output reads (see [`TableRead`]);
    /// when the vectorized kernel covers the predicate the selection runs over the
    /// typed columns (dictionary codes compare as integers). The masked column
    /// batch enters the chain as it is: the steps read it in place where their
    /// kernels cover it (`chain.rs`), and a pipeline without steps hands it to its
    /// sink.
    Table {
        table: Arc<Table>,
        read: TableRead,
        /// Whether the vectorized kernel covers the predicate (probed at compile
        /// time against a zero-row slice, which preserves the real column
        /// representations).
        kernel: bool,
        /// The truth tables the probe built (one per dictionary predicate): each
        /// worker's cache starts as a copy instead of building them again.
        probed: MaskCache,
        stats: Arc<OpStats>,
    },
    /// An index scan: the row-id list is resolved up front by the coordinator;
    /// each fetched row decodes only the columns its residual or output reads.
    TableIds {
        table: Arc<Table>,
        ids: Vec<usize>,
        read: TableRead,
        stats: Arc<OpStats>,
    },
    /// An aggregate's or sort's output, counted on the breaker's node as it is
    /// scanned (`None`: the empty source of a stopped run).
    Rows(Vec<Row>, Option<Arc<OpStats>>),
}

impl Source {
    fn len(&self) -> usize {
        match self {
            Source::Table { table, .. } => table.row_count(),
            Source::TableIds { ids, .. } => ids.len(),
            Source::Rows(rows, _) => rows.len(),
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
            } => Batch::Rows(read.fetch_rows(table, &ids[range], &mut read.scratch())?),
            Source::Rows(rows, _) => Batch::Rows(rows[range].to_vec()),
        };
        if let Some(stats) = self.stats() {
            stats.charge(start.elapsed());
            stats.count(out.len());
        }
        Ok(out)
    }

    /// A worker's starting kernel cache: the probe's truth tables for a table scan.
    fn probed_cache(&self) -> MaskCache {
        match self {
            Source::Table { probed, .. } => probed.clone(),
            _ => MaskCache::new(),
        }
    }

    /// The node that counts the source's batches.
    fn stats(&self) -> Option<&OpStats> {
        match self {
            Source::Table { stats, .. } | Source::TableIds { stats, .. } => Some(stats),
            Source::Rows(_, stats) => stats.as_deref(),
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline sinks
// ---------------------------------------------------------------------------

/// Per-worker partial state of a join build sink: batches tagged with their
/// `(morsel, sequence)` position, so the merge step appends them in scan order, and
/// their grant.
struct BuildLocal {
    batches: Vec<(Tag, Batch)>,
    seq: u64,
    grant: Reservation,
}

/// The aggregate computation of one pipeline sink (shared by workers by reference).
/// Each worker folds its batches into a private [`GroupTable`] whose groups carry
/// their first-seen `(morsel, sequence)` tag, for deterministic emission order.
struct AggSpec {
    kernel: AggKernel,
    /// The aggregate input's relation set and estimate (for memory-pressure events).
    meta: (RelSet, f64),
    /// The aggregate node: its consume time and spill volume.
    node: Arc<OpStats>,
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
    stop: std::cell::Cell<Option<Stop>>,
    completed_builds: Vec<CompletedBuild<'p>>,
    /// Per-run lazy-build counters (the process-wide analogues are
    /// [`lazy_builds_planned_total`] / [`lazy_builds_started_total`]).
    builds_planned: std::cell::Cell<u64>,
    builds_started: std::cell::Cell<u64>,
    /// Time spent in the observer's callbacks, which is not execution time.
    observer_time: std::cell::Cell<Duration>,
    /// This query's task registration on the resident pool, made when the run
    /// first launches chain jobs (a run on the inline worker never does): all
    /// jobs submit through it, so the pool's fairness discipline sees one queue
    /// per query.
    task: OnceCell<TaskHandle>,
}

impl<'p> Engine<'p> {
    /// This query's pool task, registered on first use.
    fn task(&self) -> &TaskHandle {
        self.task
            .get_or_init(|| WorkerPool::global().register(self.shared.config.priority))
    }

    fn stopped(&self) -> bool {
        self.stop.get().is_some()
    }

    /// Drain worker-enqueued events into the observer, in queue order. After a
    /// suspension decision the rest of the queue is discarded (a suspended pipeline
    /// delivers no further events).
    fn pump_events(&self) {
        if !self.shared.observer_active {
            return;
        }
        // The queue is never poisoned: nothing that holds it can panic.
        let queue = || self.shared.events.lock().expect("event queue");
        loop {
            let event = {
                let mut queue = queue();
                if self.stopped() {
                    queue.clear();
                    return;
                }
                queue.front().cloned()
            };
            let Some(event) = event else {
                return;
            };
            self.dispatch(&event);
            // The event leaves the queue only once it is delivered: a worker waiting
            // for the queue to drain sees the stop it asked for first.
            queue().pop_front();
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

    /// Deliver one event and quiesce the workers on the stop it asks for (a seam
    /// stop lets them finish their in-flight batch).
    fn dispatch(&self, event: &ExecEvent) {
        let start = Instant::now();
        let stop = observe(self.observer.as_ref(), event);
        self.observer_time
            .set(self.observer_time.get() + start.elapsed());
        let Some(stop) = stop else {
            return;
        };
        self.stop.set(Some(stop));
        if stop == Stop::AtRootSeam {
            self.shared.seam.store(true, Ordering::SeqCst);
        }
        self.shared.quiesce.store(true, Ordering::SeqCst);
    }

    fn take_error(&self) -> Option<ExecError> {
        self.shared.error.lock().expect("error lock").take()
    }

    // -- plan evaluation ----------------------------------------------------

    /// Aggregate an `Aggregate` node's input into per-worker group tables, merged on
    /// the coordinator: its output rows, which the caller hands over in batch-size
    /// batches (counted on the node as they are, like a sort's).
    fn eval_aggregate(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsNode,
    ) -> Result<Option<Vec<Row>>, ExecError> {
        if self.stopped() {
            return Ok(None);
        }
        let child = &plan.children[0];
        let child_stats = &stats.children[0];
        let spec = Arc::new(AggSpec {
            kernel: AggKernel::new(plan)?,
            meta: (child.rel_set, child.estimated_rows),
            node: Arc::clone(&stats.stats),
        });
        let compiled = Arc::new(self.compile(child, child_stats)?);
        if self.stopped() {
            return Ok(None);
        }
        let factory = AggSinkFactory {
            spec: Arc::clone(&spec),
            shared: Arc::clone(&self.shared),
        };
        let locals = self.execute_pipeline(&compiled, factory)?;
        if self.stopped() {
            return Ok(None);
        }
        let merge_start = Instant::now();
        self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
            kind: BreakerKind::AggregateInput,
            rel_set: child.rel_set,
            estimated_rows: child.estimated_rows,
            actual_rows: child_stats.stats.rows(),
            reusable: false,
        }));
        if self.stopped() {
            return Ok(None);
        }
        // Locals arrive in worker completion order, which is safe: every accumulator
        // merges exactly (`crate::exact`). Groups come in first-seen `(morsel,
        // sequence)` order, one worker's insertion order, or in key order once
        // merged from spilled runs.
        if !spec.kernel.grouped() {
            self.shared.buffered.acquire(1, 8);
        }
        let rows = GroupSpill::finish(&spec.kernel, locals)?.next_batch(usize::MAX);
        stats.stats.charge(merge_start.elapsed());
        rows
    }

    /// Sort a `Sort` node's input on the coordinator with the sort kernel: in
    /// memory, or, once a grant is denied, through sorted runs served by a merge.
    fn eval_sort(&mut self, plan: &'p PhysicalPlan, stats: &StatsNode) -> Result<Sorted, ExecError> {
        let governor = Arc::clone(&self.shared.config.governor);
        let none = || Ok(Sorted::memory(Vec::new(), governor.reservation()));
        let (child, child_stats) = (&plan.children[0], &stats.children[0]);
        let spill = Arc::clone(&stats.stats.spill);
        let mut buffer = SortBuffer::new(plan, governor.reservation(), spill)?;
        let compiled = Arc::new(self.compile(child, child_stats)?);
        let batches = self.collect_compiled(&compiled)?;
        if self.stopped() {
            return none();
        }
        let start = Instant::now();
        let meta = (child.rel_set, child.estimated_rows);
        let mut pressure = |_, grant: &Reservation| {
            let buffered = self.shared.buffered.rows();
            self.deliver_event(MemoryPressureEvent::denied(BreakerKind::SortInput, meta, buffered, grant));
            if self.stopped() {
                return Err(ExecError::Suspended);
            }
            Ok(())
        };
        for batch in batches {
            let (len, bytes) = (batch.len() as u64, batch.iter().map(|row| row.width() as u64).sum());
            match buffer.push(batch, bytes, &mut pressure) {
                Ok(granted) if granted => self.shared.buffered.acquire(len, bytes),
                Ok(_) => {}
                Err(ExecError::Suspended) if self.stopped() => return none(),
                Err(error) => return Err(error),
            }
        }
        self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
            kind: BreakerKind::SortInput,
            rel_set: child.rel_set,
            estimated_rows: child.estimated_rows,
            actual_rows: child_stats.stats.rows(),
            reusable: false,
        }));
        if self.stopped() {
            return none();
        }
        let sorted = buffer.finish()?;
        stats.stats.charge(start.elapsed());
        Ok(sorted)
    }

    /// Build the join table of `step` from its build-side subtree (a hash build or a
    /// nested-loop inner): a pipeline ending in a build sink, plus the breaker
    /// completion event and (for observed runs) the retained state. A build that
    /// spilled installs its sealed partitions instead.
    fn eval_build(
        &mut self,
        step: &mut Step,
        plan: &'p PhysicalPlan,
        stats: &StatsNode,
    ) -> Result<(), ExecError> {
        let (Some((mut table, kind)), join_stats) = (step.build_table(), &step.stats) else {
            return Ok(());
        };
        let compiled = Arc::new(self.compile(plan, stats)?);
        let grace = Arc::new(Mutex::new(None));
        let factory = BuildSinkFactory {
            kind,
            shared: Arc::clone(&self.shared),
            meta: (plan.rel_set, plan.estimated_rows),
            keys: table.keys().to_vec(),
            grace: Arc::clone(&grace),
            spilled: Arc::default(),
            join: Arc::clone(join_stats),
        };
        let locals = self.execute_pipeline(&compiled, factory)?;
        if self.stopped() {
            return Ok(());
        }
        let merge_start = Instant::now();
        let spilled = lock(&grace)?.take();
        let mut batches: Vec<(Tag, Batch)> = Vec::new();
        let mut grant = self.shared.config.governor.reservation();
        for local in locals {
            batches.extend(local.batches);
            // A spilled build's batches go to the partitions: their grants go.
            if spilled.is_none() {
                grant.absorb(local.grant);
            }
        }
        // Tag order is the global scan order: the table (its probe fan-out order and
        // its extracted rows) is the same at any thread count.
        batches.sort_unstable_by_key(|(tag, _)| *tag);
        let batches = batches.into_iter().map(|(_, batch)| batch);
        let (built, actual_rows) = match spilled {
            Some(mut grace) => {
                for batch in batches {
                    grace.write_build(batch, table.keys())?;
                }
                grace.seal_build()?;
                let input_rows = grace.input_rows;
                (Built::Spilled(Box::new(Mutex::new(grace))), input_rows)
            }
            None => {
                batches.for_each(|batch| table.append(batch));
                table.seal();
                let table = Arc::new(table);
                if self.shared.observer_active {
                    self.completed_builds.push(CompletedBuild {
                        kind,
                        side: plan,
                        table: Arc::clone(&table),
                    });
                }
                let rows = table.len() as u64;
                (Built::Table(table), rows)
            }
        };
        join_stats.charge(merge_start.elapsed());
        self.deliver_event(ExecEvent::BreakerComplete(BreakerEvent {
            kind,
            rel_set: plan.rel_set,
            estimated_rows: plan.estimated_rows,
            actual_rows,
            reusable: matches!(built, Built::Table(_)),
        }));
        // The table's grant lives as long as the step that probes it: once the
        // pipeline that probes it drained, both go.
        step.install(built, grant);
        Ok(())
    }

    /// Execute a LIMIT-rooted plan: its child's first `count` rows, from the
    /// morsel-ordered exchange of [`Engine::limit_stream`]. Output is the same
    /// scan-ordered prefix at every thread count, and so are the counts: the LIMIT
    /// counts each input batch it takes rows from as one output batch, and an
    /// aggregate or sort below it (the chain's source) counts only the batches it
    /// handed over before the LIMIT was satisfied.
    fn eval_limit(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &StatsNode,
        count: usize,
    ) -> Result<Vec<Row>, ExecError> {
        let node = &stats.stats;
        let compiled = Arc::new(self.compile(&plan.children[0], &stats.children[0])?);
        let out = if compiled.spilled() {
            // A spilled join's partitions re-enter the chain after the main pass,
            // where no morsel-ordered cut can follow them: take from its collected
            // output.
            let batches = self.collect_compiled(&compiled)?;
            let start = Instant::now();
            let mut out = Vec::new();
            for batch in batches {
                if out.len() >= count {
                    break;
                }
                limit_take(&mut out, batch, count, node);
            }
            node.charge(start.elapsed());
            out
        } else {
            self.limit_stream(&compiled, node, count)?
        };
        if self.stopped() {
            return Ok(out);
        }
        // A satisfied LIMIT stops without draining its input: it ran to completion
        // only when its input ran out first.
        if out.len() < count {
            node.finish();
        }
        Ok(out)
    }

    /// The first `count` rows of a compiled child pipeline in scan order. Workers tag
    /// every batch with its morsel index and send a done marker per fully-processed
    /// morsel; the coordinator reassembles batches in morsel order (batches within
    /// one morsel arrive in order — one morsel is processed by exactly one worker and
    /// the channel preserves per-sender order) and sets the query's quiesce flag the
    /// moment the limit is satisfied, so all workers retire at their next batch
    /// boundary. The reassembly time is charged to the LIMIT's `node`. A chain over
    /// materialized rows runs inline, so the breaker that made them hands over only
    /// the batches the LIMIT takes.
    fn limit_stream(
        &mut self,
        compiled: &Arc<Compiled>,
        node: &OpStats,
        count: usize,
    ) -> Result<Vec<Row>, ExecError> {
        if self.stopped() {
            return Ok(Vec::new());
        }
        let mut out: Vec<Row> = Vec::new();
        if compiled.workers <= 1 || matches!(compiled.source, Source::Rows(..)) {
            // Inline: morsels are claimed in order by construction; stop claiming
            // the moment the limit is satisfied.
            let shared = Arc::clone(&self.shared);
            let out_ref = &mut out;
            run_inline(
                compiled,
                &self.shared,
                &mut |_, batch| {
                    let start = Instant::now();
                    if let Some(batch) = batch {
                        limit_take(out_ref, batch.into_rows(), count, node);
                        if out_ref.len() >= count {
                            shared.quiesce.store(true, Ordering::SeqCst);
                        }
                    }
                    node.charge(start.elapsed());
                    Ok(())
                },
                &|| self.pump_events(),
            );
        } else {
            let (tx, rx) = sync_channel::<LimitMsg>(compiled.workers * 2);
            let ctx = self.launch_chains(
                compiled,
                ChannelSink {
                    tx,
                    shared: Arc::clone(&self.shared),
                    task: self.task().clone(),
                },
            );
            // Reassemble in morsel order: the frontier morsel's batches flow
            // straight to the output; later morsels park until every earlier morsel
            // delivered its done marker. A morsel parks no batch once it parked
            // `count` rows — no more of it can ever be emitted — so the reorder
            // buffer is bounded by `workers x (count + batch_size)` rows.
            let mut next = 0usize;
            // Per morsel: its parked batches, the rows they hold and whether the done
            // marker arrived.
            let mut pending: HashMap<usize, (Vec<RowBatch>, usize, bool)> = HashMap::new();
            let mut satisfied = false;
            loop {
                match rx.recv_timeout(Duration::from_micros(100)) {
                    Ok(msg) => {
                        let start = Instant::now();
                        let (batches, rows, done) = pending.entry(msg.morsel).or_default();
                        match msg.batch {
                            Some(batch) if *rows < count => {
                                *rows += batch.len();
                                batches.push(batch);
                            }
                            Some(_) => {}
                            None => *done = true,
                        }
                        while let Some((batches, _, done)) = pending.get_mut(&next) {
                            for batch in batches.drain(..) {
                                if out.len() >= count {
                                    break;
                                }
                                limit_take(&mut out, batch, count, node);
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
                        node.charge(start.elapsed());
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
        // A truncated limit leaves the child pipeline non-exhausted (the quiesce
        // flag is set, skipping `finish_pipeline`); a naturally drained child under
        // the limit is marked exhausted as usual (by a one-thread run as it ends).
        if !self.shared.one_input() && !self.stopped() && !self.shared.quiesce.load(Ordering::SeqCst) {
            self.finish_pipeline(compiled)?;
        }
        Ok(out)
    }

    /// Compile the streaming segment rooted at `plan` down to its driving source.
    /// Hash-join builds and nested-loop inners are **registered, not executed**,
    /// while walking the spine (their probe steps get an empty table); they
    /// run lazily after the spine's own source is known to be runnable, with a
    /// stop check between each. A one-thread run takes them root-down, so a
    /// suspension on an inner build finds every outer one complete; the pool
    /// takes them innermost-first, so a suspension on an inner breaker skips every
    /// outer build.
    /// Mid-chain breakers that *drive* the pipeline (aggregate/sort outputs) still
    /// materialize during the walk: they are the source, without which nothing
    /// downstream is runnable.
    fn compile<'s>(
        &mut self,
        plan: &'p PhysicalPlan,
        stats: &'s StatsNode,
    ) -> Result<Compiled, ExecError> {
        struct BuildRequest<'p, 's> {
            /// Index of the probe step (in collection order) waiting for its table.
            step: usize,
            plan: &'p PhysicalPlan,
            stats: &'s StatsNode,
        }
        let mut requests: Vec<BuildRequest<'p, 's>> = Vec::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut node = plan;
        let mut node_stats = stats;
        let source = loop {
            if self.stopped() {
                break Source::Rows(Vec::new(), None);
            }
            match &node.kind {
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
                    // every morsel of the scan. The truth tables it builds are the
                    // whole dictionaries', so the workers reuse them.
                    let mut probed = MaskCache::new();
                    let kernel =
                        self.shared.config.columnar && read.kernel_covers(&table, &mut probed);
                    let _ = node_stats
                        .stats
                        .encoding
                        .set(scan_encoding_label(self.shared.config.columnar, kernel, &table));
                    break Source::Table {
                        table,
                        read,
                        kernel,
                        probed,
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
                    self.shared.buffered.acquire(ids.len() as u64, 8 * ids.len() as u64);
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
                    let rows = match node.kind {
                        PlanKind::Sort { .. } => {
                            self.eval_sort(node, node_stats)?.next_batch(usize::MAX)?
                        }
                        _ => self.eval_aggregate(node, node_stats)?,
                    };
                    let stats = Some(Arc::clone(&node_stats.stats));
                    break Source::Rows(rows.unwrap_or_default(), stats);
                }
                PlanKind::Limit { .. } => {
                    // The planner only places LIMIT at the plan root, where
                    // `eval_limit` handles it.
                    return Err(ExecError::InvalidPlan(
                        "LIMIT below the plan root has no parallel implementation".into(),
                    ));
                }
                _ => {
                    let config = &self.shared.config;
                    let Some(step) = Step::new(node, self.storage, config, &node_stats.stats)?
                    else {
                        return Err(ExecError::InvalidPlan(format!(
                            "{} is no chain step",
                            node.label()
                        )));
                    };
                    // An index-NL join without an index on its key builds a transient
                    // one now, shared read-only by every worker.
                    step.prepare(&self.shared.buffered);
                    if step.build_table().is_some() {
                        // The table is installed once the registered build runs.
                        requests.push(BuildRequest {
                            step: steps.len(),
                            plan: &node.children[1],
                            stats: &node_stats.children[1],
                        });
                    }
                    steps.push(step);
                    node = &node.children[0];
                    node_stats = &node_stats.children[0];
                }
            }
        };
        // Execute the registered builds lazily, now that the spine's own source is
        // runnable, with a stop check between builds. Requests were collected
        // root-down. One thread runs them in that order, as a pull-based run
        // reaches them (each join builds on its first pull), so a suspension on an
        // inner build finds every outer one complete and reusable. The pool runs
        // them innermost-first, so a suspension on an inner breaker skips every
        // outer build instead (ROADMAP item 15 settles one order).
        if !self.shared.one_input() {
            requests.reverse();
        }
        BUILDS_PLANNED.fetch_add(requests.len() as u64, Ordering::SeqCst);
        self.builds_planned
            .set(self.builds_planned.get() + requests.len() as u64);
        for request in requests {
            if self.stopped() {
                break;
            }
            BUILDS_STARTED.fetch_add(1, Ordering::SeqCst);
            self.builds_started.set(self.builds_started.get() + 1);
            self.eval_build(&mut steps[request.step], request.plan, request.stats)?;
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
            task: self.task().clone(),
        });
        WorkerPool::global().ensure_available(workers);
        for _ in 0..workers {
            let local = ctx.sink.make();
            let chain = WorkerChain::new(&compiled.steps, compiled.source.probed_cache());
            let job_ctx = Arc::clone(&ctx);
            ctx.task
                .submit(move || run_chain_slice(job_ctx, local, chain));
        }
        ctx
    }

    /// Run a compiled pipeline into per-worker sink states: one per worker (the
    /// inline worker, or each pool worker) and one per spilled join. A one-thread
    /// run ended each step's input as it ran out ([`end_chain`]). With more threads,
    /// after the main pass, each spilled join in the chain, source-up, joins its
    /// partitions on the coordinator through its step, and the output goes down the
    /// rest of the chain as one more morsel (the output of a lower join feeds the
    /// probe partitions of a higher one); then [`Engine::finish_pipeline`].
    fn execute_pipeline<S: SinkFactory + Clone>(
        &self,
        compiled: &Arc<Compiled>,
        factory: S,
    ) -> Result<Vec<S::Local>, ExecError> {
        let pump = || self.pump_events();
        let mut locals = if compiled.workers <= 1 {
            let mut local = factory.make();
            run_inline(
                compiled,
                &self.shared,
                &mut |morsel, batch| feed(&factory, &mut local, morsel, batch, &pump),
                &pump,
            );
            vec![local]
        } else {
            let ctx = self.launch_chains(compiled, factory.clone());
            // The coordinator pumps worker-enqueued events while the pool drains
            // the morsel queue.
            ctx.gate.wait_pumping(&pump);
            self.pump_events();
            let locals = std::mem::take(&mut *ctx.locals.lock().expect("chain locals"));
            locals
        };
        if let Some(error) = self.take_error() {
            return Err(error);
        }
        if self.shared.one_input() {
            return Ok(locals);
        }
        for (at, step) in compiled.steps.iter().enumerate() {
            if !step.spilled() || self.shared.quiesce.load(Ordering::SeqCst) {
                continue;
            }
            let rest = &compiled.steps[at + 1..];
            let mut chain = WorkerChain::new(rest, MaskCache::new());
            let (mut state, mut grant) = (step.state(), self.shared.config.governor.reservation());
            // Its tag follows the main pass's morsels and those of lower joins.
            let (morsel, mut local) = (compiled.morsels + at, factory.make());
            let mut sink = |batch| feed(&factory, &mut local, morsel, Some(batch), &pump);
            let joined = |step: &Step, state: &mut StepState, events: &dyn Events| {
                step.next_spilled(state, &mut grant, events)
            };
            let shared = &self.shared;
            let states = &mut chain.states;
            let result = pass_on(
                step,
                &mut state,
                (rest, states),
                shared,
                &mut sink,
                &pump,
                joined,
            )
            .and_then(|()| flush_chain(rest, states, shared, &mut sink, &pump))
            .and_then(|()| feed(&factory, &mut local, morsel, None, &pump));
            if let Err(error) = result {
                shared.fail(error);
            }
            if let Some(error) = self.take_error() {
                return Err(error);
            }
            locals.push(local);
        }
        if !self.stopped() && !self.shared.quiesce.load(Ordering::SeqCst) {
            self.finish_pipeline(compiled)?;
        }
        Ok(locals)
    }

    /// Mark a pipeline the pool fully drained exhausted and send the one-shot
    /// exact-cardinality reports of its index-NL joins (outer side drained: the
    /// produced count is the join's true output cardinality). The inline worker
    /// does both as each step's input ends instead ([`end_chain`]).
    fn finish_pipeline(&self, compiled: &Compiled) -> Result<(), ExecError> {
        if let Some(stats) = compiled.source.stats() {
            stats.finish();
        }
        for step in compiled.steps.iter() {
            step.stats.finish();
        }
        for step in compiled.steps.iter() {
            step.end(0, &*self.shared)?;
            self.pump_events();
            if self.stopped() {
                break;
            }
        }
        Ok(())
    }

    /// Drain an already-compiled pipeline into its output batches, in `(morsel,
    /// sequence)` order: the global scan order, run-identical to an inline
    /// collection.
    fn collect_compiled(&self, compiled: &Arc<Compiled>) -> Result<Vec<RowBatch>, ExecError> {
        if self.stopped() {
            return Ok(Vec::new());
        }
        let mut batches: Vec<(Tag, RowBatch)> =
            self.execute_pipeline(compiled, CollectSink)?.into_iter().flatten().collect();
        batches.sort_by_key(|(tag, _)| *tag);
        Ok(batches.into_iter().map(|(_, batch)| batch).collect())
    }

    /// The completed builds of `plan`'s run as breaker states, innermost first: in
    /// plan post-order, a join's probe side before its build side before the join.
    fn breaker_states(&mut self, plan: &PhysicalPlan) -> Vec<BreakerState> {
        fn build_sides<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a PhysicalPlan>) {
            for child in &plan.children {
                build_sides(child, out);
            }
            if let Some(side) = plan.children.get(1) {
                out.push(side);
            }
        }
        let mut order = Vec::new();
        build_sides(plan, &mut order);
        let position = |side: &PhysicalPlan| order.iter().position(|s| std::ptr::eq(*s, side));
        self.completed_builds.sort_by_key(|build| position(build.side));
        self.completed_builds
            .drain(..)
            .map(|build| {
                let rows = match Arc::try_unwrap(build.table) {
                    Ok(mut table) => table.take_rows(),
                    Err(shared) => shared.to_rows(),
                };
                BreakerState {
                    kind: build.kind,
                    rel_set: build.side.rel_set,
                    schema: build.side.schema.clone(),
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
    /// The chain, source-up.
    steps: Vec<Step>,
    morsel_rows: usize,
    morsels: usize,
    workers: usize,
}

impl Compiled {
    /// Whether a join in the chain spilled its build.
    fn spilled(&self) -> bool {
        self.steps.iter().any(Step::spilled)
    }
}

/// Compile-time proof that compiled pipelines (and their shared run state) can be
/// handed to `'static` pool jobs.
fn _assert_pool_safe() {
    fn assert_send_sync<T: Send + Sync + 'static>() {}
    assert_send_sync::<Compiled>();
    assert_send_sync::<Shared>();
}

/// One worker's chain state: a [`StepState`] per chain step the source feeds, and
/// the scan's kernel cache (a private copy, starting from the compile-time probe's
/// truth tables, keeps the hot mask loop lock-free).
struct WorkerChain {
    states: Vec<StepState>,
    cache: MaskCache,
}

impl WorkerChain {
    fn new(steps: &[Step], cache: MaskCache) -> Self {
        Self {
            states: steps.iter().map(Step::state).collect(),
            cache,
        }
    }
}

/// Claim **one** morsel and push each batch-sized chunk of it through the chain,
/// feeding the sink with `(morsel, Some(batch))` per batch the chain yields. The
/// steps' input does not end here. Returns the morsel, or `None` when the source is
/// exhausted or the query quiesced (a morsel cut short by the quiesce is
/// abandoned).
fn push_one_morsel(
    compiled: &Compiled,
    shared: &Shared,
    cursor: &AtomicUsize,
    chain: &mut WorkerChain,
    sink: &mut dyn FnMut(usize, Option<Batch>) -> Result<(), ExecError>,
    pump: &dyn Fn(),
) -> Result<Option<usize>, ExecError> {
    if shared.quiesce.load(Ordering::SeqCst) {
        return Ok(None);
    }
    let morsel = cursor.fetch_add(1, Ordering::SeqCst);
    if morsel >= compiled.morsels {
        return Ok(None);
    }
    let total = compiled.source.len();
    let start = morsel.saturating_mul(compiled.morsel_rows).min(total);
    let end = start.saturating_add(compiled.morsel_rows).min(total);
    let mut pos = start;
    let chunk = (compiled.morsel_rows / MORSEL_BATCHES.max(1)).max(1);
    // The sink takes the chain's last batch as it is (an aggregate reads a column
    // batch in place and a join build keeps it; other sinks decode it).
    let mut chain_sink = |batch| sink(morsel, Some(batch));
    while pos < end {
        if shared.quiesce.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let chunk_end = pos.saturating_add(chunk).min(end);
        let batch = compiled.source.scan(pos..chunk_end, &mut chain.cache)?;
        pos = chunk_end;
        if !batch.is_empty() {
            push_chain(
                &compiled.steps,
                &mut chain.states,
                batch,
                shared,
                &mut chain_sink,
                pump,
            )?;
        }
    }
    Ok(Some(morsel))
}

/// A pool worker's quantum: one morsel, whose end is the end of the steps' input
/// (each step's remainder goes down the chain), then the morsel's `(morsel, None)`
/// done marker. `Ok(false)` once the source is exhausted or the query quiesced.
fn process_one_morsel(
    compiled: &Compiled,
    shared: &Shared,
    cursor: &AtomicUsize,
    chain: &mut WorkerChain,
    sink: &mut dyn FnMut(usize, Option<Batch>) -> Result<(), ExecError>,
    pump: &dyn Fn(),
) -> Result<bool, ExecError> {
    let Some(morsel) = push_one_morsel(compiled, shared, cursor, chain, sink, pump)? else {
        return Ok(false);
    };
    let mut chain_sink = |batch| sink(morsel, Some(batch));
    flush_chain(&compiled.steps, &mut chain.states, shared, &mut chain_sink, pump)?;
    sink(morsel, None)?;
    Ok(true)
}

/// The inline worker: the source on the coordinator thread, observer events
/// delivered after every batch a step yields. In a one-thread run the source is
/// one input ([`Shared::one_input`]): step states carry across morsels, and once
/// the last morsel is pushed the chain ends once, source-up ([`end_chain`]). With
/// more threads each morsel is an input of its own, as on a pool worker. A run
/// that quiesced (a suspension, or a satisfied LIMIT) ends nothing: its counts stay
/// truncated.
struct InlineWorker {
    compiled: Arc<Compiled>,
    cursor: AtomicUsize,
    chain: WorkerChain,
    /// The last morsel pushed, which the chain's end is tagged with.
    last: usize,
}

impl InlineWorker {
    fn new(compiled: &Arc<Compiled>) -> Self {
        let chain = WorkerChain::new(&compiled.steps, compiled.source.probed_cache());
        let (compiled, cursor) = (Arc::clone(compiled), AtomicUsize::new(0));
        Self { compiled, cursor, chain, last: 0 }
    }

    /// One quantum: push the next morsel, or end the input once the source ran out.
    /// `Ok(false)` once the input ended or the query quiesced; the worker is not
    /// advanced again after that.
    fn advance(
        &mut self,
        shared: &Shared,
        sink: &mut dyn FnMut(usize, Option<Batch>) -> Result<(), ExecError>,
        pump: &dyn Fn(),
    ) -> Result<bool, ExecError> {
        let (compiled, cursor, chain) = (&*self.compiled, &self.cursor, &mut self.chain);
        if !shared.one_input() {
            return process_one_morsel(compiled, shared, cursor, chain, sink, pump);
        }
        if let Some(morsel) = push_one_morsel(compiled, shared, cursor, chain, sink, pump)? {
            self.last = morsel;
            return Ok(true);
        }
        if !shared.quiesce.load(Ordering::SeqCst) {
            let last = self.last;
            let mut chain_sink = |batch| sink(last, Some(batch));
            end_chain(compiled, &mut chain.states, shared, &mut chain_sink, pump)?;
            sink(last, None)?;
        }
        Ok(false)
    }
}

/// Run the whole source on the inline worker. An error fails the run as a pool
/// worker's would.
fn run_inline(
    compiled: &Arc<Compiled>,
    shared: &Shared,
    sink: &mut dyn FnMut(usize, Option<Batch>) -> Result<(), ExecError>,
    pump: &dyn Fn(),
) {
    let mut worker = InlineWorker::new(compiled);
    loop {
        match worker.advance(shared, sink, pump) {
            Ok(true) => {}
            Ok(false) => return,
            Err(error) => return shared.fail(error),
        }
    }
}

/// End the inline worker's input, source-up. The source ran out; then at each
/// step, once its input ended — a spilled join's only after its partitions are
/// joined, their output going down the rest of the chain — an index-NL join sends
/// its exact report (counting the rows it still carries), the step's remainder
/// goes down the chain, and the step is marked exhausted. A stop along the way,
/// such as a LIMIT the remainder satisfied, leaves the step and every step above
/// it unfinished: whoever stopped took no more of their output.
fn end_chain(
    compiled: &Compiled,
    states: &mut [StepState],
    shared: &Shared,
    sink: &mut ChainSink<'_>,
    pump: &dyn Fn(),
) -> Result<(), ExecError> {
    if let Some(stats) = compiled.source.stats() {
        stats.finish();
    }
    let mut grant = shared.config.governor.reservation();
    let stopped = || shared.quiesce.load(Ordering::SeqCst);
    let steps = &compiled.steps;
    for at in 0..steps.len() {
        let (Some((step, rest)), Some((state, rest_states))) =
            (steps[at..].split_first(), states[at..].split_first_mut())
        else {
            break;
        };
        if step.spilled() {
            let joined = |step: &Step, state: &mut StepState, events: &dyn Events| {
                step.next_spilled(state, &mut grant, events)
            };
            pass_on(step, state, (rest, rest_states), shared, sink, pump, joined)?;
        }
        if stopped() {
            return Ok(());
        }
        step.end(state.pending(), shared)?;
        pump();
        if stopped() {
            return Ok(());
        }
        pass_on(step, state, (rest, rest_states), shared, sink, pump, Step::flush)?;
        if stopped() {
            return Ok(());
        }
        step.stats.finish();
    }
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
fn run_chain_slice<S: SinkFactory>(
    ctx: Arc<ChainCtx<S>>,
    mut local: S::Local,
    mut chain: WorkerChain,
) {
    // Catch panics from operator code: an uncaught unwind would skip this chain's
    // `Gate::done_one`, leaving the coordinating `wait_pumping` spinning forever
    // (the pool's own catch_unwind only keeps the worker thread alive).
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let pump = || ctx.shared.wait_for_event_drain();
        let mut sink = |morsel, batch| feed(&ctx.sink, &mut local, morsel, batch, &pump);
        process_one_morsel(
            &ctx.compiled,
            &ctx.shared,
            &ctx.cursor,
            &mut chain,
            &mut sink,
            &pump,
        )
    }));
    match outcome {
        Ok(Ok(true)) => {
            let job_ctx = Arc::clone(&ctx);
            ctx.task
                .submit(move || run_chain_slice(job_ctx, local, chain));
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

/// The output of a chain: the sink, fed each batch the last step yields.
type ChainSink<'s> = dyn FnMut(Batch) -> Result<(), ExecError> + 's;

/// Push one batch into the first of `steps` and pass every batch it yields down the
/// rest of the chain. `pump` runs after every yielded batch (the inline coordinator
/// delivers observer events there, so a suspension stops the descent after one
/// batch; a pool worker waits there until the coordinator took its events).
fn push_chain(
    steps: &[Step],
    states: &mut [StepState],
    batch: Batch,
    shared: &Shared,
    sink: &mut ChainSink<'_>,
    pump: &dyn Fn(),
) -> Result<(), ExecError> {
    let (Some((step, steps)), Some((state, states))) =
        (steps.split_first(), states.split_first_mut())
    else {
        return sink(batch);
    };
    let start = Instant::now();
    let pushed = step.push(state, batch);
    step.stats.charge(start.elapsed());
    pushed?;
    pass_on(step, state, (steps, states), shared, sink, pump, Step::next)
}

/// End the input of every step, source-up: each remainder goes down the rest of
/// the chain before the next step's input ends.
fn flush_chain(
    steps: &[Step],
    states: &mut [StepState],
    shared: &Shared,
    sink: &mut ChainSink<'_>,
    pump: &dyn Fn(),
) -> Result<(), ExecError> {
    for at in 0..steps.len() {
        let (Some((step, rest)), Some((state, rest_states))) =
            (steps[at..].split_first(), states[at..].split_first_mut())
        else {
            break;
        };
        pass_on(
            step,
            state,
            (rest, rest_states),
            shared,
            sink,
            pump,
            Step::flush,
        )?;
    }
    Ok(())
}

/// Pass every batch `yields` takes from `step` ([`Step::next`], [`Step::flush`] at
/// the end of a morsel, or [`Step::next_spilled`]) down the rest of the chain,
/// charging the step's time, until it yields none or the run drops its in-flight
/// work.
fn pass_on(
    step: &Step,
    state: &mut StepState,
    (steps, states): (&[Step], &mut [StepState]),
    shared: &Shared,
    sink: &mut ChainSink<'_>,
    pump: &dyn Fn(),
    mut yields: impl FnMut(&Step, &mut StepState, &dyn Events) -> Result<Option<Batch>, ExecError>,
) -> Result<(), ExecError> {
    while !shared.drop_inflight() {
        let start = Instant::now();
        let out = yields(step, state, shared);
        step.stats.charge(start.elapsed());
        let Some(batch) = out? else {
            break;
        };
        pump();
        if shared.drop_inflight() {
            break;
        }
        push_chain(steps, states, batch, shared, sink, pump)?;
    }
    Ok(())
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
    /// `pump` lets the coordinator deliver queued events (a memory-pressure event
    /// before a spill).
    fn consume(
        &self,
        local: &mut Self::Local,
        morsel: usize,
        batch: Batch,
        pump: &dyn Fn(),
    ) -> Result<(), ExecError>;
    /// Called after the last batch of a fully-processed morsel (quiesced morsels
    /// never report done).
    fn morsel_done(&self, _local: &mut Self::Local, _morsel: usize) -> Result<(), ExecError> {
        Ok(())
    }
    /// The breaker node the sink feeds, charged with the sink's consume time (a
    /// join's build, an aggregate); `None` for the exchanges and collections.
    fn node(&self) -> Option<&OpStats> {
        None
    }
}

/// Hand one chain batch (or, with `None`, the done marker of `morsel`) to a sink,
/// charging the consume time to the node it feeds.
fn feed<S: SinkFactory>(
    sink: &S,
    local: &mut S::Local,
    morsel: usize,
    batch: Option<Batch>,
    pump: &dyn Fn(),
) -> Result<(), ExecError> {
    let Some(batch) = batch else {
        return sink.morsel_done(local, morsel);
    };
    let start = Instant::now();
    let out = sink.consume(local, morsel, batch, pump);
    if let Some(node) = sink.node() {
        node.charge(start.elapsed());
    }
    out
}

/// Join build sink: each worker buffers its batches, as they come, with their tags.
/// A hash build reserves their bytes; on a denial (after the memory-pressure event)
/// the first denied worker starts the join's grace-hash partitioning. From then on
/// every batch goes to the partitions unbuffered, and each worker first moves its
/// buffered batches there: only rows a build keeps in memory count as buffered. A
/// nested-loop inner reserves nothing.
#[derive(Clone)]
struct BuildSinkFactory {
    kind: BreakerKind,
    shared: Arc<Shared>,
    /// The build subtree's relation set and estimate (for memory-pressure events).
    meta: (RelSet, f64),
    /// The build-side key columns.
    keys: Vec<usize>,
    grace: Arc<Mutex<Option<GraceJoin>>>,
    /// Set once `grace` holds the partitions.
    spilled: Arc<AtomicBool>,
    /// The join node: its build's consume time and spill volume.
    join: Arc<OpStats>,
}

impl SinkFactory for BuildSinkFactory {
    type Local = BuildLocal;

    fn node(&self) -> Option<&OpStats> {
        Some(&self.join)
    }

    fn make(&self) -> BuildLocal {
        BuildLocal {
            batches: Vec::new(),
            seq: 0,
            grant: self.shared.config.governor.reservation(),
        }
    }

    fn consume(
        &self,
        local: &mut BuildLocal,
        morsel: usize,
        batch: Batch,
        pump: &dyn Fn(),
    ) -> Result<(), ExecError> {
        let bytes = batch.width();
        let spilled = self.spilled.load(Ordering::SeqCst);
        if !spilled && (self.kind == BreakerKind::NestedLoopInner || local.grant.grow(bytes)) {
            self.shared.buffered.acquire(batch.len() as u64, bytes);
            local.batches.push(((morsel, local.seq), batch));
            local.seq += 1;
            return Ok(());
        }
        let mut grace = lock(&self.grace)?;
        let grace = match &mut *grace {
            Some(grace) => grace,
            slot => {
                let kind = BreakerKind::HashBuild;
                self.shared.pressure(kind, self.meta, &local.grant, pump)?;
                self.spilled.store(true, Ordering::SeqCst);
                slot.insert(GraceJoin::new(Arc::clone(&self.join.spill))?)
            }
        };
        for (_, buffered) in local.batches.drain(..) {
            grace.write_build(buffered, &self.keys)?;
        }
        local.grant.release_all();
        grace.write_build(batch, &self.keys)
    }
}

/// Partial-aggregation sink: one accumulator set per group per worker, and the
/// worker's grant and spilled runs.
#[derive(Clone)]
struct AggSinkFactory {
    spec: Arc<AggSpec>,
    shared: Arc<Shared>,
}

impl SinkFactory for AggSinkFactory {
    type Local = (GroupTable, GroupSpill);

    fn node(&self) -> Option<&OpStats> {
        Some(&self.spec.node)
    }

    fn make(&self) -> Self::Local {
        let kernel = &self.spec.kernel;
        let grant = self.shared.config.governor.reservation();
        let spill = GroupSpill::new(kernel.key_len(), grant, Arc::clone(&self.spec.node.spill));
        (kernel.new_table(), spill)
    }

    fn consume(
        &self,
        (table, spill): &mut Self::Local,
        morsel: usize,
        batch: Batch,
        pump: &dyn Fn(),
    ) -> Result<(), ExecError> {
        let spec = &self.spec;
        spec.kernel.consume(table, batch, morsel, &mut |table, key_bytes| {
            let mut pressure = |_, grant: &Reservation| {
                self.shared.pressure(BreakerKind::AggregateInput, spec.meta, grant, pump)
            };
            if spill.admit(table, key_bytes, &mut pressure)? {
                self.shared.buffered.acquire(1, key_bytes);
            }
            Ok(())
        })
    }
}

/// Collection sink: each worker keeps its batches with their `(morsel, sequence)`
/// tags, so the coordinator reassembles the collection in global scan order.
#[derive(Clone)]
struct CollectSink;

impl SinkFactory for CollectSink {
    type Local = Vec<(Tag, RowBatch)>;

    fn make(&self) -> Self::Local {
        Vec::new()
    }

    fn consume(
        &self,
        local: &mut Self::Local,
        morsel: usize,
        batch: Batch,
        _pump: &dyn Fn(),
    ) -> Result<(), ExecError> {
        let tag = (morsel, local.len() as u64);
        local.push((tag, batch.into_rows()));
        Ok(())
    }
}

/// One message of the LIMIT root exchange: a produced batch of `morsel`, or (with
/// `batch == None`) the marker that `morsel` is fully processed.
struct LimitMsg {
    morsel: usize,
    batch: Option<RowBatch>,
}

/// Hand `batch` to a LIMIT that holds `out` and stops at `count` rows: it takes what
/// fits and counts what it took as one output batch on its `node`.
fn limit_take(out: &mut Vec<Row>, batch: RowBatch, count: usize, node: &OpStats) {
    let room = count.saturating_sub(out.len());
    node.count(batch.len().min(room));
    out.extend(batch.into_iter().take(room));
}

/// Exchange sink of a root: chain output flows through a bounded channel to the
/// coordinator, each chain sending through its own cloned handle. A streaming root
/// sends row batches, which the client-pulled pipeline facade serves. A LIMIT root
/// sends [`LimitMsg`]s, which carry their morsel and end each fully processed
/// morsel with a done marker, so the coordinator reassembles the stream in morsel
/// order and quiesces the query the moment the limit is satisfied (see
/// [`Engine::limit_stream`]). A send can only fail once the receiver is gone for
/// good — the pipeline was suspended or dropped, or the limit is satisfied — so it
/// quiesces the query rather than letting orphaned chains keep scanning.
struct ChannelSink<M> {
    tx: SyncSender<M>,
    shared: Arc<Shared>,
    /// The owning query's task handle: sends run inside its blocking section so a
    /// worker stalled behind a slow-pulling client stops counting against the
    /// pool's thread cap (see [`TaskHandle::blocking`]).
    task: TaskHandle,
}

impl<M> ChannelSink<M> {
    fn send(&self, local: &SyncSender<M>, msg: M) -> Result<(), ExecError> {
        if self.task.blocking(|| local.send(msg)).is_err() {
            self.shared.quiesce.store(true, Ordering::SeqCst);
        }
        Ok(())
    }
}

impl SinkFactory for ChannelSink<RowBatch> {
    type Local = SyncSender<RowBatch>;

    fn make(&self) -> SyncSender<RowBatch> {
        self.tx.clone()
    }

    fn consume(
        &self,
        local: &mut SyncSender<RowBatch>,
        _morsel: usize,
        batch: Batch,
        _pump: &dyn Fn(),
    ) -> Result<(), ExecError> {
        self.send(local, batch.into_rows())
    }
}

impl SinkFactory for ChannelSink<LimitMsg> {
    type Local = SyncSender<LimitMsg>;

    fn make(&self) -> SyncSender<LimitMsg> {
        self.tx.clone()
    }

    fn consume(
        &self,
        local: &mut SyncSender<LimitMsg>,
        morsel: usize,
        batch: Batch,
        _pump: &dyn Fn(),
    ) -> Result<(), ExecError> {
        let batch = Some(batch.into_rows());
        self.send(local, LimitMsg { morsel, batch })
    }

    fn morsel_done(
        &self,
        local: &mut SyncSender<LimitMsg>,
        morsel: usize,
    ) -> Result<(), ExecError> {
        self.send(
            local,
            LimitMsg {
                morsel,
                batch: None,
            },
        )
    }
}

// ---------------------------------------------------------------------------
// The public pipeline facade
// ---------------------------------------------------------------------------

/// A streaming root: the live exchange between this query's chain jobs (still
/// running on the resident pool) and the client pulling `next_batch`.
struct StreamingRoot {
    rx: Receiver<RowBatch>,
    /// Keeps the chain-job context (and its retirement gate) reachable.
    ctx: Arc<ChainCtx<ChannelSink<RowBatch>>>,
    compiled: Arc<Compiled>,
    /// Seam suspension: whether the one in-flight batch was already delivered.
    seam_delivered: bool,
}

/// How far a pipeline has progressed.
enum RunState {
    NotStarted,
    /// A materialized root (aggregate/sort breaker, inline or spilled run, or seam
    /// tail): rows are served in batch-size chunks, a spilled sort's straight from
    /// its run merge.
    Serving {
        rows: Sorted,
        /// Seam suspension: once `rows` is exhausted, report `Suspended` instead of
        /// end-of-stream.
        seam: bool,
        /// A breaker root's node: it counts each served batch, and ran to
        /// completion once the last one was served.
        node: Option<Arc<OpStats>>,
    },
    /// A streaming-shaped root: chain jobs stay live on the pool across pulls,
    /// producing into a bounded exchange as fast as the client consumes.
    Streaming(StreamingRoot),
    /// A streaming-shaped root of a one-thread run: a pull that finds no produced
    /// batch left to serve advances the inline worker (`None` once its input
    /// ended) by one quantum.
    Inline(Option<InlineWorker>, VecDeque<RowBatch>),
    Suspended,
    Poisoned,
    /// A streaming root that ran to completion.
    Done,
}

/// An opened plan, ready to produce batches: one morsel-driven run, at any thread
/// count (see the module docs).
///
/// Breaker-rooted plans (aggregate/sort) materialize their result inside the first
/// `next_batch` call and serve it in batch-size chunks — the breaker buffers
/// everything by definition — and so does a plan whose spine runs on the inline
/// worker of a run with more threads (a source smaller than two morsels). A
/// one-thread streaming-shaped root runs a morsel on a pull that finds no batch
/// to serve.
/// A streaming-shaped root on the pool instead keeps a **live root exchange**: the
/// first pull launches its chain jobs; every pull (including the first) receives
/// the next produced batch from a bounded channel while the jobs keep running
/// between pulls, so the root result is never buffered and a slow consumer
/// back-pressures the pool through the channel bound. A materialized root is
/// intentionally *not* charged to `peak_buffered_rows`, which counts what
/// breakers buffer.
pub struct Pipeline<'p> {
    plan: &'p PhysicalPlan,
    storage: &'p Storage,
    config: ExecConfig,
    observer: Option<ObserverHandle<'p>>,
    stats: StatsNode,
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

impl<'p> Pipeline<'p> {
    pub(crate) fn new(
        plan: &'p PhysicalPlan,
        storage: &'p Storage,
        config: ExecConfig,
        observer: Option<ObserverHandle<'p>>,
    ) -> Self {
        let stats = StatsNode::new(plan);
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
                buffered: Buffered::default(),
            }),
            stop: std::cell::Cell::new(None),
            completed_builds: Vec::new(),
            builds_planned: std::cell::Cell::new(0),
            builds_started: std::cell::Cell::new(0),
            observer_time: std::cell::Cell::new(Duration::ZERO),
            task: OnceCell::new(),
        });
        let plan = self.plan;
        let engine = self.engine.as_mut().expect("engine");
        let governor = Arc::clone(&self.config.governor);
        let rows = move |rows: Vec<Row>| Sorted::memory(rows, governor.reservation());
        let (result, node) = match plan.kind {
            PlanKind::Limit { count } => {
                (engine.eval_limit(plan, &self.stats, count).map(rows), None)
            }
            PlanKind::Aggregate { .. } => {
                let node = Arc::clone(&self.stats.stats);
                (
                    engine
                        .eval_aggregate(plan, &self.stats)
                        .map(|r| rows(r.unwrap_or_default())),
                    Some(node),
                )
            }
            PlanKind::Sort { .. } => {
                let node = Arc::clone(&self.stats.stats);
                (engine.eval_sort(plan, &self.stats), Some(node))
            }
            _ => return self.run_streaming(),
        };
        self.settle_materialized(result, node)
    }

    /// Start a streaming-shaped root.
    fn run_streaming(&mut self) -> Result<(), ExecError> {
        let plan = self.plan;
        // A streaming-shaped root: compile the spine (registered builds run lazily
        // at the end of the compile), then serve through a live exchange.
        let compiled = {
            let engine = self.engine.as_mut().expect("engine");
            engine.compile(plan, &self.stats)
        };
        let compiled = match compiled {
            Ok(compiled) => Arc::new(compiled),
            Err(error) => return self.settle_materialized(Err(error), None),
        };
        let engine = self.engine.as_ref().expect("engine");
        if engine.shared.one_input() {
            self.state = RunState::Inline(Some(InlineWorker::new(&compiled)), VecDeque::new());
            return Ok(());
        }
        if engine.stopped() || compiled.workers <= 1 || compiled.spilled() {
            // Stopped during the builds, a source too small to parallelize (tiny
            // inputs never pay the pool), or a spilled join, whose partition passes
            // follow the main pass: collect on the coordinator.
            let result = engine.collect_compiled(&compiled).map(Sorted::batches);
            return self.settle_materialized(result, None);
        }
        let (tx, rx) = sync_channel::<RowBatch>(compiled.workers * 2);
        let ctx = engine.launch_chains(
            &compiled,
            ChannelSink {
                tx,
                shared: Arc::clone(&engine.shared),
                task: engine.task().clone(),
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

    /// Resolve a materialized run result into the serving/suspended/poisoned state.
    /// `node` is a breaker
    /// root's, which counts the batches served.
    fn settle_materialized(
        &mut self,
        result: Result<Sorted, ExecError>,
        node: Option<Arc<OpStats>>,
    ) -> Result<(), ExecError> {
        let engine = self.engine.as_mut().expect("engine");
        engine.pump_events();
        let stop = engine.stop.get();
        let result = match (result, stop) {
            // Deliver the first produced root batch, then suspend: the clean hand-off
            // for schedulers that must not lose the batch that was in flight when the
            // decision was made.
            (Ok(mut rows), Some(Stop::AtRootSeam)) => rows.next_batch(self.config.batch_size).map(|first| {
                Sorted::memory(first.unwrap_or_default(), self.config.governor.reservation())
            }),
            (result, _) => result,
        };
        let states = match &result {
            Ok(_) => engine.breaker_states(self.plan),
            Err(_) => Vec::new(),
        };
        self.finalize_counters();
        let rows = match result {
            Ok(rows) => rows,
            Err(error) => {
                self.state = RunState::Poisoned;
                return Err(error);
            }
        };
        self.breaker_states = states;
        match stop {
            Some(Stop::Now) => {
                // In-flight output is discarded.
                self.state = RunState::Suspended;
                Err(ExecError::Suspended)
            }
            seam => {
                let seam = seam.is_some();
                self.state = RunState::Serving { rows, seam, node };
                Ok(())
            }
        }
    }

    /// Capture the peak-buffer counters and wall time from the engine.
    fn finalize_counters(&mut self) {
        if let Some(engine) = &self.engine {
            (self.peak_buffered_rows, self.peak_buffered_bytes) = engine.shared.buffered.peaks();
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
        self.breaker_states = self.engine.as_mut().expect("engine").breaker_states(self.plan);
    }

    /// End a streaming root that ran to completion.
    fn finish(&mut self) -> Result<Option<RowBatch>, ExecError> {
        self.collect_stream_breakers();
        self.state = RunState::Done;
        self.finalize_counters();
        Ok(None)
    }

    /// Fail the pipeline: every later pull fails too.
    fn poison(&mut self, error: ExecError) -> Result<Option<RowBatch>, ExecError> {
        self.state = RunState::Poisoned;
        self.finalize_counters();
        Err(error)
    }

    /// Suspend a streaming root whose run stopped, keeping its completed builds.
    fn suspend(&mut self) -> Result<Option<RowBatch>, ExecError> {
        self.collect_stream_breakers();
        self.state = RunState::Suspended;
        self.finalize_counters();
        Err(ExecError::Suspended)
    }

    /// One pull from a one-thread streaming root. The batches a quantum made are
    /// served before the next quantum runs, or a stop taken during it suspends the
    /// pipeline, as a pull-based run had delivered them.
    fn inline_next(&mut self) -> Result<Option<RowBatch>, ExecError> {
        loop {
            let engine = self.engine.as_ref().expect("engine");
            let RunState::Inline(worker, out) = &mut self.state else {
                unreachable!("inline_next outside Inline state");
            };
            engine.pump_events();
            if let Some(error) = engine.take_error() {
                return self.poison(error);
            }
            if let Some(batch) = out.pop_front() {
                return Ok(Some(batch));
            }
            if engine.stopped() {
                return self.suspend();
            }
            let Some(running) = worker else {
                return self.finish();
            };
            let seam = &engine.shared.seam;
            let mut sink = |_, batch: Option<Batch>| {
                if let Some(batch) = batch {
                    out.push_back(batch.into_rows());
                    // Under a seam stop the in-flight batch is the last one made.
                    seam.store(false, Ordering::SeqCst);
                }
                Ok(())
            };
            match running.advance(&engine.shared, &mut sink, &|| engine.pump_events()) {
                Ok(true) => {}
                Ok(false) => *worker = None,
                Err(error) => engine.shared.fail(error),
            }
        }
    }

    /// One pull from a live streaming root.
    fn stream_next(&mut self) -> Result<Option<RowBatch>, ExecError> {
        loop {
            self.engine.as_ref().expect("engine").pump_events();
            if let Some(error) = self.engine.as_ref().expect("engine").take_error() {
                self.shed_stream();
                return self.poison(error);
            }
            match self.engine.as_ref().expect("engine").stop.get() {
                Some(Stop::Now) => {
                    // Rows still in the exchange are discarded.
                    self.shed_stream();
                    return self.suspend();
                }
                Some(Stop::AtRootSeam) => {
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
                    return self.suspend();
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
                        return self.poison(error);
                    }
                    let engine = self.engine.as_ref().expect("engine");
                    if engine.shared.quiesce.load(Ordering::SeqCst) {
                        // Quiesced without an error: a suspension decision is in
                        // flight; the next pump at the top of the loop dispatches
                        // it and the stop-mode check takes over.
                        continue;
                    }
                    if let Err(error) = engine.finish_pipeline(&compiled) {
                        return self.poison(error);
                    }
                    if engine.stop.get().is_some() {
                        continue;
                    }
                    return self.finish();
                }
            }
        }
    }

    /// Produce the next (non-empty) batch of output rows, or `None` when exhausted.
    ///
    /// An `Err` poisons the pipeline: kernels may hold partially-buffered state, so
    /// every subsequent pull fails rather than risking silently wrong results. The one
    /// exception is [`ExecError::Suspended`] (an
    /// [`ExecutionObserver`](crate::ExecutionObserver) stopped execution, either
    /// mid-run or on the root batch seam): the pipeline refuses further pulls but its
    /// completed breaker state stays extractable via [`Pipeline::take_breaker_states`].
    pub fn next_batch(&mut self) -> Result<Option<RowBatch>, ExecError> {
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
            RunState::Inline(..) => self.inline_next(),
            RunState::Serving { rows, seam, node } => match rows.next_batch(self.config.batch_size)
            {
                Ok(None) if *seam => {
                    self.state = RunState::Suspended;
                    Err(ExecError::Suspended)
                }
                Err(error) => {
                    self.state = RunState::Poisoned;
                    Err(error)
                }
                Ok(batch) => {
                    if let Some(node) = node {
                        match &batch {
                            Some(batch) => {
                                node.count(batch.len());
                            }
                            None => node.finish(),
                        }
                    }
                    Ok(batch)
                }
            },
        }
    }

    /// Whether an [`ExecutionObserver`](crate::ExecutionObserver) suspended this
    /// pipeline.
    pub fn is_suspended(&self) -> bool {
        matches!(self.state, RunState::Suspended)
    }

    /// Move every *completed* breaker materialization out of the pipeline (hash-join
    /// build sides and nested-loop inners, innermost first). Used after an observer
    /// suspension: the extracted rows become virtual leaf tables for the re-planned
    /// remainder of the query, so the work of building them is not lost. The pipeline
    /// must not be pulled again afterwards.
    pub fn take_breaker_states(&mut self) -> Vec<BreakerState> {
        std::mem::take(&mut self.breaker_states)
    }

    /// The metrics tree observed so far (complete once `next_batch` returned `None`):
    /// per-operator counters summed across workers, and the run's wall-clock time
    /// less the time the observer's callbacks took.
    pub fn metrics(&self) -> QueryMetrics {
        let wall = if self.wall > Duration::ZERO {
            self.wall
        } else {
            self.started.map(|s| s.elapsed()).unwrap_or(Duration::ZERO)
        };
        let observed = self.engine.as_ref().map(|e| e.observer_time.get());
        let execution_time = wall.saturating_sub(observed.unwrap_or_default());
        QueryMetrics {
            root: self.stats.metrics(self.plan),
            execution_time,
        }
    }

    /// Peak number of rows buffered by pipeline breakers so far.
    pub fn peak_buffered_rows(&self) -> u64 {
        self.peak_buffered_rows
    }

    /// Peak decoded byte width of the rows buffered by pipeline breakers so far.
    pub fn peak_buffered_bytes(&self) -> u64 {
        self.peak_buffered_bytes
    }
}

impl Drop for Pipeline<'_> {
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
    use crate::metrics::MetricsNode;
    use reopt_catalog::Catalog;
    use reopt_storage::Value;
    use reopt_planner::{CardinalityOverrides, Optimizer, OptimizerConfig};
    use reopt_sql::parse_sql;
    use reopt_storage::{Column, DataType, IndexKind, Schema};
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

    /// The independent reference's answer to `sql` (`tests/oracle`).
    fn reference(sql: &str, storage: &Storage) -> crate::oracle::Answer {
        let statement = parse_sql(sql).unwrap();
        let spec = reopt_planner::bind_select(statement.query().unwrap(), storage).unwrap();
        crate::oracle::evaluate(&spec, storage).unwrap()
    }

    #[test]
    fn parallel_matches_single_threaded_on_every_operator_shape() {
        let (storage, catalog) = build_env();
        for sql in SWEEP_QUERIES {
            let planned = plan(sql, &storage, &catalog);
            let answer = reference(sql, &storage);
            let single = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            answer.check(&single.rows).unwrap_or_else(|e| panic!("threads=1 {sql}: {e}"));
            for threads in [2usize, 4, 8] {
                let parallel = Executor::new(&storage)
                    .with_threads(threads)
                    .execute(&planned.plan)
                    .unwrap();
                answer
                    .check(&parallel.rows)
                    .unwrap_or_else(|e| panic!("threads={threads} {sql}: {e}"));
                assert_eq!(
                    sorted_rows(&parallel.rows),
                    sorted_rows(&single.rows),
                    "threads={threads} changed the result of {sql}"
                );
            }
        }
    }

    /// The nodes of `plan` with their metrics in two runs, in pre-order, each with
    /// whether it lies below a LIMIT.
    fn node_pairs<'m>(
        plan: &'m PhysicalPlan,
        (a, b): (&'m MetricsNode, &'m MetricsNode),
        below_limit: bool,
        out: &mut Vec<(&'m PhysicalPlan, &'m MetricsNode, &'m MetricsNode, bool)>,
    ) {
        out.push((plan, a, b, below_limit));
        let below = below_limit || matches!(plan.kind, PlanKind::Limit { .. });
        for ((child, a), b) in plan.children.iter().zip(&a.children).zip(&b.children) {
            node_pairs(child, (a, b), below, out);
        }
    }

    /// How many morsels drive the pipeline `plan` streams in: its source's rows (a
    /// scanned table's, or a breaker's output as `metrics` counted it) in runs of
    /// [`MORSEL_BATCHES`] batches.
    fn pipeline_morsels(
        plan: &PhysicalPlan,
        metrics: &MetricsNode,
        storage: &Storage,
        batch_size: usize,
    ) -> u64 {
        let rows = match &plan.kind {
            PlanKind::SeqScan { table, .. } => storage.table(table).unwrap().row_count() as u64,
            PlanKind::IndexScan { .. } | PlanKind::Aggregate { .. } | PlanKind::Sort { .. } => {
                metrics.metrics.actual_rows
            }
            _ => {
                return pipeline_morsels(
                    &plan.children[0],
                    &metrics.children[0],
                    storage,
                    batch_size,
                )
            }
        };
        rows.div_ceil((batch_size * MORSEL_BATCHES) as u64).max(1)
    }

    #[test]
    fn metrics_mean_the_same_on_both_engines() {
        let (storage, catalog) = build_env();
        // 240 titles of 12k match, so the LIMIT stops its scan early at both counts.
        let limited = "SELECT t.id AS id FROM title AS t WHERE t.production_year = 1973 LIMIT 5";
        // The LIMIT stops pulling the sort, so the sort is not exhausted.
        let sorted = "SELECT t.id AS id FROM title AS t ORDER BY id DESC LIMIT 7";
        for batch_size in [16, DEFAULT_BATCH_SIZE] {
            for sql in SWEEP_QUERIES.iter().copied().chain([limited, sorted]) {
                let planned = plan(sql, &storage, &catalog);
                let run = |threads| {
                    let executor =
                        Executor::with_batch_size(&storage, batch_size).with_threads(threads);
                    executor.execute(&planned.plan).unwrap().metrics.root
                };
                let (single, morsel) = (run(1), run(4));
                let mut pairs = Vec::new();
                node_pairs(&planned.plan, (&single, &morsel), false, &mut pairs);
                for (node, one, four, below_limit) in pairs {
                    let label = format!("{}: {sql} at batch size {batch_size}", one.metrics.label);
                    let (one_m, four_m) = (&one.metrics, &four.metrics);
                    assert_eq!(one_m.label, four_m.label, "{sql}");
                    assert_eq!(one_m.exhausted, four_m.exhausted, "{label}");
                    match &node.kind {
                        // The LIMIT and the breakers count the batches they hand over,
                        // the scans their non-empty chunks.
                        PlanKind::Limit { .. }
                        | PlanKind::Aggregate { .. }
                        | PlanKind::Sort { .. } => {
                            assert_eq!(one_m.batches, four_m.batches, "{label}");
                        }
                        _ if below_limit => {}
                        PlanKind::SeqScan { .. } | PlanKind::IndexScan { .. } => {
                            assert_eq!(one_m.batches, four_m.batches, "{label}");
                        }
                        // A streaming step ends its input once per morsel: at most one
                        // partial batch more per morsel.
                        _ => {
                            let morsels = pipeline_morsels(node, one, &storage, batch_size);
                            assert!(
                                (one_m.batches..=one_m.batches + morsels).contains(&four_m.batches),
                                "{label}: {} batches at one thread, {} at four, {morsels} morsels",
                                one_m.batches,
                                four_m.batches
                            );
                        }
                    }
                    if !below_limit {
                        assert_eq!(one_m.actual_rows, four_m.actual_rows, "{label}");
                    }
                }
                if sql == limited || sql == sorted {
                    assert!(
                        !morsel.metrics.exhausted,
                        "a satisfied LIMIT is a truncated count"
                    );
                }
            }
        }
    }

    /// Suspends on the first progress report.
    struct SuspendOnProgress;

    impl ExecutionObserver for SuspendOnProgress {
        fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
            match event {
                ExecEvent::Progress(_) => ObserverDecision::Suspend,
                _ => ObserverDecision::Continue,
            }
        }
    }

    #[test]
    fn a_fan_out_probe_suspends_within_a_batch_per_worker() {
        const BATCH: usize = 16;
        // Every outer row matches 500 inner rows, so each morsel of outer rows fans
        // out to thousands of batches. One morsel runs inline; two run on two workers.
        for (outer_rows, workers) in [(8, 1), (2 * BATCH * MORSEL_BATCHES, 2)] {
            let mut storage = Storage::new();
            let mut outer =
                Table::new("o", Schema::new(vec![Column::not_null("k", DataType::Int)]));
            for _ in 0..outer_rows {
                outer
                    .push_row(Row::from_values(vec![Value::Int(1)]))
                    .unwrap();
            }
            let mut inner = Table::new(
                "i",
                Schema::new(vec![
                    Column::not_null("k", DataType::Int),
                    Column::not_null("v", DataType::Int),
                ]),
            );
            for v in 0..500 {
                inner
                    .push_row(Row::from_values(vec![Value::Int(1), Value::Int(v)]))
                    .unwrap();
            }
            inner.create_index("i_k", "k", IndexKind::Hash).unwrap();
            storage.create_table(outer).unwrap();
            storage.create_table(inner).unwrap();
            let mut catalog = Catalog::new();
            catalog.analyze_all(&storage).unwrap();
            let config = OptimizerConfig {
                enable_hash_joins: false,
                ..OptimizerConfig::default()
            };
            let sql = "SELECT count(*) AS c FROM o AS o, i AS i WHERE o.k = i.k";
            let planned = plan_with(sql, &storage, &catalog, config);
            for columnar in [true, false] {
                let observer: ObserverHandle = Rc::new(RefCell::new(SuspendOnProgress));
                let executor = Executor::with_batch_size(&storage, BATCH)
                    .with_threads(2)
                    .with_columnar(columnar);
                let mut pipeline = executor
                    .open_observed(&planned.plan, Some(observer))
                    .unwrap();
                assert!(matches!(pipeline.next_batch(), Err(ExecError::Suspended)));
                let mut join = None;
                pipeline.metrics().root.walk(&mut |node| {
                    if node.metrics.label.starts_with("Index Nested Loop") {
                        join = Some(node.metrics.actual_rows);
                    }
                });
                let rows = join.expect("an index nested-loop join") as usize;
                let reported = crate::PROGRESS_INTERVAL as usize * BATCH;
                let bound = (crate::PROGRESS_INTERVAL as usize + workers) * BATCH;
                assert!(
                    (reported..=bound).contains(&rows),
                    "{workers} worker(s), columnar {columnar}: the join made {rows} rows, \
                     the report fired at {reported} and the bound is {bound}"
                );
            }
        }
    }

    #[test]
    fn morsel_engine_charges_aggregation_to_the_aggregate() {
        let mut storage = Storage::new();
        let mut big = Table::new(
            "big",
            Schema::new(vec![Column::not_null("id", DataType::Int)]),
        );
        for i in 0..200_000i64 {
            big.push_row(Row::from_values(vec![Value::Int(i)])).unwrap();
        }
        storage.create_table(big).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        let planned = plan("SELECT sum(t.id) AS s FROM big AS t", &storage, &catalog);
        // The aggregate's own time, the median of three runs.
        let aggregate_time = |threads| {
            let mut times: Vec<Duration> = (0..3)
                .map(|_| {
                    let executor = Executor::new(&storage).with_threads(threads);
                    let result = executor.execute(&planned.plan).unwrap();
                    let mut time = None;
                    result.metrics.root.walk(&mut |node| {
                        if node.metrics.label.starts_with("Aggregate") {
                            time = Some(node.metrics.elapsed);
                        }
                    });
                    time.expect("an aggregate node")
                })
                .collect();
            times.sort();
            times[1]
        };
        let (single, morsel) = (aggregate_time(1), aggregate_time(4));
        // Folding 200k rows is the aggregate's work at both thread counts; the
        // pool's workers charge it from their sinks.
        assert!(
            morsel * 10 >= single,
            "aggregate time: {morsel:?} at 4 threads against {single:?} at 1"
        );
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
        // At batch size 8 the first report falls after 64 output rows.
        let executor = Executor::with_batch_size(&storage, 8).with_threads(4);
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
        // At batch size 4 the first report falls after 32 output rows.
        let executor = Executor::with_batch_size(&storage, 4).with_threads(4);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer.clone() as ObserverHandle))
            .unwrap();
        // The pull during which the report arrives delivers its in-flight batch, and
        // the next one suspends. Workers send batches before the report is made, so
        // earlier pulls may return those; the report is due by the join's
        // PROGRESS_INTERVAL-th batch, so it arrives within that many pulls.
        let reported = || {
            let events = &observer.borrow().events;
            events
                .iter()
                .any(|event| matches!(event, ExecEvent::Progress(_)))
        };
        for _ in 1..=crate::PROGRESS_INTERVAL {
            let batch = pipeline
                .next_batch()
                .unwrap()
                .expect("in-flight batch delivered");
            assert!(!batch.is_empty() && batch.len() <= 4);
            if reported() {
                break;
            }
        }
        assert!(reported(), "the report arrives within PROGRESS_INTERVAL pulls");
        assert!(!pipeline.is_suspended(), "suspension waits for the seam");
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
        assert!(pipeline.is_suspended());
    }

    #[test]
    fn limit_below_the_root_is_an_invalid_plan() {
        let (storage, catalog) = build_env();
        // The planner places LIMIT only at the root; move a planned one under an
        // aggregate by hand.
        let limited = plan(
            "SELECT t.id AS id FROM title AS t LIMIT 3",
            &storage,
            &catalog,
        )
        .plan;
        let mut counted = plan("SELECT count(*) AS c FROM title AS t", &storage, &catalog).plan;
        assert!(matches!(counted.kind, PlanKind::Aggregate { .. }));
        counted.children = vec![limited];
        for threads in [1, 4] {
            let err = Executor::new(&storage)
                .with_threads(threads)
                .execute(&counted)
                .unwrap_err();
            assert!(matches!(err, ExecError::InvalidPlan(_)), "threads={threads}: {err}");
        }
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
            let single = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            // The reference adds its float terms through its own exact sum.
            reference(sql, &storage)
                .check(&single.rows)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let want = float_bits(&single.rows);
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
            // same (scan-order) prefix as one thread.
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
            let single = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            reference(sql, &storage)
                .check(&single.rows)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let want: Vec<String> = single.rows.iter().map(|r| format!("{r}")).collect();
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
            assert!(
                has_kind(&planned.plan, &|k| matches!(k, PlanKind::NestedLoopJoin { .. })),
                "expected a nested-loop join: {sql}"
            );
            let answer = reference(sql, &storage);
            assert!(!answer.rows().is_empty(), "{sql}");
            let single = Executor::new(&storage)
                .with_threads(1)
                .execute(&planned.plan)
                .unwrap();
            for threads in [1usize, 2, 4] {
                let result = Executor::new(&storage)
                    .with_threads(threads)
                    .execute(&planned.plan)
                    .unwrap();
                answer
                    .check(&result.rows)
                    .unwrap_or_else(|e| panic!("threads={threads} {sql}: {e}"));
                assert_eq!(
                    sorted_rows(&result.rows),
                    sorted_rows(&single.rows),
                    "threads={threads} {sql}"
                );
            }
        }
    }

    /// The breaker states a run surrenders when it suspends once every join build
    /// completed, ordered by relation set.
    fn states_after_builds(
        planned: &reopt_planner::PlannedQuery,
        storage: &Storage,
        threads: usize,
    ) -> Vec<(RelSet, BreakerKind, Vec<Row>)> {
        struct SuspendAtBreaker {
            left: usize,
        }
        impl ExecutionObserver for SuspendAtBreaker {
            fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
                if matches!(event, ExecEvent::BreakerComplete(_)) {
                    self.left -= 1;
                    if self.left == 0 {
                        return ObserverDecision::Suspend;
                    }
                }
                ObserverDecision::Continue
            }
        }
        let builds = planned.plan.join_nodes().len();
        let observer = Rc::new(RefCell::new(SuspendAtBreaker { left: builds }));
        let executor = Executor::with_batch_size(storage, 64).with_threads(threads);
        let mut pipeline = executor
            .open_observed(&planned.plan, Some(observer as ObserverHandle))
            .unwrap();
        assert_eq!(pipeline.next_batch().unwrap_err(), ExecError::Suspended);
        let mut states: Vec<_> = pipeline
            .take_breaker_states()
            .into_iter()
            .map(|state| (state.rel_set, state.kind, state.rows))
            .collect();
        states.sort_by_key(|(rel_set, _, _)| *rel_set);
        states
    }

    #[test]
    fn extracted_build_rows_are_identical_across_thread_counts() {
        let (storage, catalog) = build_env();
        // At batch size 64 a morsel is 256 rows, so every build below spans many
        // morsels and, at more than one thread, many workers.
        let cases = [
            (
                "SELECT count(*) AS c
                 FROM title AS t, movie_keyword AS mk, keyword AS k
                 WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword < 'kw2'",
                hash_only(),
                BreakerKind::HashBuild,
            ),
            (
                "SELECT count(*) AS c
                 FROM title AS t, movie_keyword AS mk
                 WHERE t.id = mk.movie_id AND mk.keyword_id < 3 AND t.production_year >= 2015",
                nl_only(),
                BreakerKind::NestedLoopInner,
            ),
        ];
        for (sql, config, kind) in cases {
            let planned = plan_with(sql, &storage, &catalog, config);
            let reference = states_after_builds(&planned, &storage, 1);
            assert!(
                reference
                    .iter()
                    .any(|(_, k, rows)| *k == kind && rows.len() > 256),
                "{sql}: a multi-morsel {kind:?} state"
            );
            for threads in [2, 4] {
                let states = states_after_builds(&planned, &storage, threads);
                assert_eq!(states, reference, "threads={threads} {sql}");
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
        let mut baseline = Pipeline::new(
            &planned.plan,
            &storage,
            ExecConfig {
                threads: 4,
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
        let mut pipeline = Pipeline::new(
            &planned.plan,
            &storage,
            ExecConfig {
                threads: 4,
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

