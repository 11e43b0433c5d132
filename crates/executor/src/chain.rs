//! The streaming steps of both engines: filter, projection, the hash and
//! nested-loop join probe, and the index nested-loop join probe.
//!
//! A [`Step`] is one streaming plan node, compiled once and read-only while it runs
//! (the morsel engine's workers share one chain through an `Arc`). Whoever drives
//! a step owns a [`StepState`]: the pushed input, the probe cursor, the pairs and
//! columns carried toward the next output batch, a mask cache and scratch rows. The
//! caller pushes an input batch ([`Step::push`]) and takes output batches
//! ([`Step::next`]) until the step needs more input; at the end of its input it
//! takes the remainder ([`Step::flush`]). The single-threaded engine's operator
//! shell pulls its child until the step yields, and the child's end is the end of
//! input; the morsel engine drives a chain of steps per morsel, and the end of the
//! morsel is the end of input.
//!
//! One batching rule per kind:
//!
//! * a filter passes each non-empty result on, a projection each batch; a column
//!   batch stays columnar when the mask kernel covers the predicate or the
//!   projection only picks columns;
//! * a join emits exactly `batch_size` rows, carrying rows across input batches,
//!   and emits the remainder at the end of input.
//!
//! Both columnar joins, the hash or nested-loop probe (`hash_join.rs`) and the index
//! probe (`index_nl.rs`), run through one emit loop: the kernel finds the passing
//! `(outer position, inner row)` pairs of the outer batch a chunk at a time, and the
//! loop gathers a column batch of exactly `batch_size` pairs, carrying the
//! remainder. Only the index probe's row path (`columnar == false`) joins row by row.
//!
//! One accounting: a step counts each output batch on its node and sends the
//! progress report a join is due every [`PROGRESS_INTERVAL`](crate::PROGRESS_INTERVAL)
//! batches through the caller's [`Events`]; an index nested-loop join sends its
//! exact cardinality once its whole outer side is drained ([`Step::end`]).

use crate::error::ExecError;
use crate::exec::{
    bind, lookup_table_arc, probe_label, Batch, BreakerKind, ExecConfig, ExecEvent, RowBatch,
};
use crate::hash_join::{GraceJoin, JoinKernel, JoinTable};
use crate::index_nl::{Cursor, IndexNlKernel, Pairs};
use crate::instrument::{Buffered, OpStats, Progress};
use crate::spill::Reservation;
use reopt_expr::{filter_mask, Expr, MaskCache};
use reopt_planner::{PhysicalPlan, PlanKind};
use reopt_storage::{ColumnBatch, Index, IndexKind, Row, Storage, Table};
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Where a step's progress reports go: to the observer, synchronously, in the
/// single-threaded engine; onto the coordinator's queue in the morsel engine.
pub(crate) trait Events {
    /// Whether an observer is installed (no report is built otherwise).
    fn active(&self) -> bool;

    /// Deliver the event `event` builds. The morsel engine builds it under its queue
    /// lock, so the counts of queued reports never decrease in queue order.
    fn send(&self, event: &dyn Fn() -> ExecEvent) -> Result<(), ExecError>;
}

/// A completed join build: the shared table, or the grace-hash partitions of a
/// build that went out of core.
pub(crate) enum Built {
    Table(Arc<JoinTable>),
    Spilled(Box<Mutex<GraceJoin>>),
}

/// Lock a join's grace-hash state, shared by the workers that spill into it. A
/// worker that panicked while holding it left it half-written, and has failed the
/// query.
pub(crate) fn lock<T>(grace: &Mutex<T>) -> Result<MutexGuard<'_, T>, ExecError> {
    grace
        .lock()
        .map_err(|_| ExecError::Spill("grace-hash partitions poisoned by a worker panic".into()))
}

enum Kind {
    Filter(Expr),
    /// The output expressions, and their input columns when every one is a plain
    /// column reference.
    Project(Vec<Expr>, Option<Vec<usize>>),
    /// A hash or nested-loop join probing its build.
    Probe {
        kernel: JoinKernel,
        build: Built,
    },
    IndexProbe {
        table: Arc<Table>,
        /// The inner join-key column. Its index is looked up per call: a borrow into
        /// the `Arc`'d table cannot live in the step.
        inner_key: usize,
        /// Without an index on the key: one built over the key column ([`Step::prepare`]).
        transient: OnceLock<Index>,
        kernel: Box<IndexNlKernel>,
        /// Whether the kernel runs over column batches, or one outer row at a time
        /// (the reference row path).
        columnar: bool,
    },
}

/// One streaming plan node, compiled for both engines.
pub(crate) struct Step {
    kind: Kind,
    /// The node's counters.
    pub(crate) stats: Arc<OpStats>,
    /// A join's progress reports.
    progress: Option<Progress>,
    batch_size: usize,
}

/// What one caller of a [`Step`] holds between calls.
#[derive(Default)]
pub(crate) struct StepState {
    /// A filter's or projection's pushed batch.
    input: Option<Batch>,
    /// A columnar join's outer batch, pairs and carried columns.
    join: JoinState,
    /// The index probe's row path: its outer rows, and the rows carried toward the
    /// next full batch.
    outer_rows: RowBatch,
    rows: Vec<Row>,
    mask_cache: MaskCache,
    /// The row an inner fetch decodes into, and a join residual's compact row.
    inner: Row,
    scratch: Row,
    /// A spilled join's loaded partition block.
    block: Option<JoinTable>,
}

/// A columnar join's position: the outer batch, the probe position in it, its
/// passing pairs found so far, and the output columns carried toward the next full
/// batch.
#[derive(Default)]
struct JoinState {
    outer: Option<ColumnBatch>,
    cursor: Cursor,
    /// Passing pairs of `outer`; those before `emitted` are output already.
    pairs: Pairs,
    emitted: usize,
    carried: Option<ColumnBatch>,
}

impl StepState {
    /// Output rows produced but not yet emitted.
    pub(crate) fn pending(&self) -> usize {
        self.rows.len() + self.join.carried.as_ref().map_or(0, ColumnBatch::len)
    }
}

impl Step {
    /// The step of the streaming node `plan`, counting on `stats`, or `None` when
    /// `plan` is not a filter, a projection or a join. A hash or nested-loop join
    /// probes an empty table until its build is installed ([`Step::install`]).
    pub(crate) fn new(
        plan: &PhysicalPlan,
        storage: &Storage,
        config: &ExecConfig,
        stats: &Arc<OpStats>,
    ) -> Result<Option<Self>, ExecError> {
        let input = || {
            plan.children
                .first()
                .map(|child| &child.schema)
                .ok_or_else(|| ExecError::InvalidPlan(format!("{} has no input", plan.label())))
        };
        let kind = match &plan.kind {
            PlanKind::Filter { predicate } => Kind::Filter(bind(predicate, input()?)?),
            PlanKind::Project { exprs } => {
                let schema = input()?;
                let exprs = exprs
                    .iter()
                    .map(|e| bind(&e.expr, schema))
                    .collect::<Result<Vec<_>, _>>()?;
                let columns = exprs
                    .iter()
                    .map(|e| match e {
                        Expr::BoundColumn { index, .. } => Some(*index),
                        _ => None,
                    })
                    .collect();
                Kind::Project(exprs, columns)
            }
            PlanKind::HashJoin { .. } | PlanKind::NestedLoopJoin { .. } => {
                let kernel = JoinKernel::new(plan)?;
                let build = Built::Table(Arc::new(kernel.table()));
                Kind::Probe { kernel, build }
            }
            PlanKind::IndexNestedLoopJoin {
                inner_table,
                inner_key,
                ..
            } => {
                let table = lookup_table_arc(storage, inner_table)?;
                let inner_key = table.schema().index_of(None, inner_key)?;
                let kernel = Box::new(IndexNlKernel::new(plan, &table)?);
                let _ = stats.probe.set(probe_label(config.columnar));
                Kind::IndexProbe {
                    table,
                    inner_key,
                    transient: OnceLock::new(),
                    kernel,
                    columnar: config.columnar,
                }
            }
            _ => return Ok(None),
        };
        Ok(Some(Self {
            kind,
            stats: Arc::clone(stats),
            progress: plan.is_join().then(|| Progress::new(plan)),
            batch_size: config.batch_size,
        }))
    }

    /// A join's empty build table and the breaker its build completes.
    pub(crate) fn build_table(&self) -> Option<(JoinTable, BreakerKind)> {
        match &self.kind {
            Kind::Probe { kernel, .. } => Some((kernel.table(), kernel.kind)),
            _ => None,
        }
    }

    /// Install a join's completed build (a sealed table, or the sealed build
    /// partitions), naming an in-memory table's form on the node.
    pub(crate) fn install(&mut self, built: Built) {
        if let Kind::Probe { build, .. } = &mut self.kind {
            if let Built::Table(table) = &built {
                let _ = self.stats.probe.set(table.form());
            }
            *build = built;
        }
    }

    /// Whether the step is a join whose build spilled.
    pub(crate) fn spilled(&self) -> bool {
        matches!(
            self.kind,
            Kind::Probe {
                build: Built::Spilled(_),
                ..
            }
        )
    }

    /// Move the rows out of a join's in-memory build table, which the step owns.
    pub(crate) fn take_build_rows(&mut self) -> Option<Vec<Row>> {
        match &mut self.kind {
            Kind::Probe {
                build: Built::Table(table),
                ..
            } => Arc::get_mut(table).map(JoinTable::take_rows),
            _ => None,
        }
    }

    /// Build an index nested-loop join's transient index over the inner key when
    /// the inner table has none (once; its entries count as buffered). Only the key
    /// column is read: the other columns stay compressed until a probe hits.
    pub(crate) fn prepare(&self, buffered: &Buffered) {
        let Kind::IndexProbe {
            table,
            inner_key,
            transient,
            ..
        } = &self.kind
        else {
            return;
        };
        if table.index_on_column(*inner_key, false).is_none() {
            transient.get_or_init(|| {
                let index = Index::from_column(
                    IndexKind::Hash,
                    "transient",
                    *inner_key,
                    table.column(*inner_key),
                );
                let entries = index.entry_count() as u64;
                buffered.acquire(entries, 8 * entries);
                index
            });
        }
    }

    /// A fresh state for one caller of the step.
    pub(crate) fn state(&self) -> StepState {
        let mut state = StepState::default();
        if let Kind::IndexProbe { kernel, .. } = &self.kind {
            state.inner = kernel.read.scratch();
        }
        state
    }

    /// Offer the next input batch, once [`Step::next`] returned `None` for the
    /// previous one. A spilled join writes it to its probe partitions instead.
    pub(crate) fn push(&self, state: &mut StepState, batch: Batch) -> Result<(), ExecError> {
        match &self.kind {
            Kind::Filter(_) | Kind::Project(..) => state.input = Some(batch),
            Kind::Probe {
                kernel,
                build: Built::Table(_),
            } => state.join.start(kernel.probe_columns(batch)),
            Kind::Probe {
                kernel,
                build: Built::Spilled(grace),
            } => lock(grace)?.write(batch, kernel.probe_keys())?,
            Kind::IndexProbe {
                kernel, columnar, ..
            } => {
                if *columnar {
                    state.join.start(kernel.outer_columns(batch));
                } else {
                    state.join.cursor = Cursor::default();
                    state.outer_rows = batch.into_rows();
                }
            }
        }
        Ok(())
    }

    /// The next output batch from the input pushed so far, or `None` once the step
    /// needs more input.
    pub(crate) fn next(
        &self,
        state: &mut StepState,
        events: &dyn Events,
    ) -> Result<Option<Batch>, ExecError> {
        let batch_size = self.batch_size;
        let out = match &self.kind {
            Kind::Filter(predicate) => match state.input.take() {
                Some(batch) => filter(predicate, batch, &mut state.mask_cache)?,
                None => None,
            },
            Kind::Project(exprs, columns) => match state.input.take() {
                Some(batch) => Some(project(exprs, columns.as_deref(), batch)?),
                None => None,
            },
            Kind::Probe { kernel, build } => {
                // A spilled join probes the partition block loaded into the state.
                let table = match (build, &state.block) {
                    (Built::Table(table), _) => table,
                    (Built::Spilled(_), Some(block)) => block,
                    (Built::Spilled(_), None) => return Ok(None),
                };
                state.join.emit(
                    batch_size,
                    |outer, cursor, pairs| {
                        kernel.probe(table, outer, cursor, pairs, &mut state.mask_cache)
                    },
                    |outer, pairs, range| kernel.gather(table, outer, pairs, range),
                )?
            }
            Kind::IndexProbe {
                table,
                inner_key,
                transient,
                kernel,
                columnar,
            } => {
                let index = table
                    .index_on_column(*inner_key, false)
                    .or_else(|| transient.get());
                match index {
                    Some(index) if *columnar => state.join.emit(
                        batch_size,
                        |outer, cursor, pairs| {
                            kernel.probe(table, index, outer, cursor, pairs, &mut state.mask_cache)
                        },
                        |outer, pairs, range| kernel.gather(table, outer, pairs, range),
                    )?,
                    Some(index) => index_rows(kernel, table, index, state, batch_size)?,
                    None => None,
                }
            }
        };
        self.emit(out, events)
    }

    /// The remainder at the end of the caller's input: the rows carried toward a
    /// batch that will not fill.
    pub(crate) fn flush(
        &self,
        state: &mut StepState,
        events: &dyn Events,
    ) -> Result<Option<Batch>, ExecError> {
        let out = match state.join.carried.take() {
            Some(cols) => Some(Batch::Cols(cols)),
            None if !state.rows.is_empty() => Some(Batch::Rows(std::mem::take(&mut state.rows))),
            None => None,
        };
        self.emit(out, events)
    }

    /// Send an index nested-loop join's exact report once its whole outer side is
    /// drained, with `pending` output rows not counted yet: the earliest true
    /// cardinality a pipeline without a breaker yields.
    pub(crate) fn end(&self, pending: usize, events: &dyn Events) -> Result<(), ExecError> {
        let Some(progress) = self.progress.as_ref().filter(|_| events.active()) else {
            return Ok(());
        };
        let rows = self.stats.rows() + pending as u64;
        match progress.end(rows, self.stats.batches()) {
            Some(event) => events.send(&|| event.clone()),
            None => Ok(()),
        }
    }

    /// The next output batch of a spilled join once its whole probe input is in the
    /// partitions: each loaded build block is probed under the same batching rule,
    /// and the remainder comes once every partition pair is joined. `grant` covers
    /// the loaded blocks. `None` for any other step.
    pub(crate) fn next_spilled(
        &self,
        state: &mut StepState,
        grant: &mut Reservation,
        events: &dyn Events,
    ) -> Result<Option<Batch>, ExecError> {
        let Kind::Probe {
            kernel,
            build: Built::Spilled(grace),
        } = &self.kind
        else {
            return Ok(None);
        };
        let mut grace = lock(grace)?;
        grace.seal_probe()?;
        loop {
            if let Some(batch) = self.next(state, events)? {
                return Ok(Some(batch));
            }
            let block = state.block.get_or_insert_with(|| kernel.table());
            match grace.next_probe_batch(kernel, block, grant, self.batch_size)? {
                Some(probe) => {
                    let _ = self.stats.probe.set(block.form());
                    state.join.start(probe);
                }
                None => return self.flush(state, events),
            }
        }
    }

    /// Count an output batch on the step's node and send the progress report it is
    /// due. A suspension discards the batch, so its count is taken back.
    fn emit(&self, out: Option<Batch>, events: &dyn Events) -> Result<Option<Batch>, ExecError> {
        let Some(batch) = out else {
            return Ok(None);
        };
        let batches = self.stats.count(batch.len());
        if let Some(progress) = &self.progress {
            if events.active() && Progress::due(batches) {
                if let Err(error) = events.send(&|| progress.periodic(self.stats.rows(), batches)) {
                    self.stats.discount(batch.len());
                    return Err(error);
                }
            }
        }
        Ok(Some(batch))
    }
}

impl JoinState {
    /// Probe the next outer batch from its start.
    fn start(&mut self, outer: ColumnBatch) {
        self.outer = Some(outer);
        self.cursor = Cursor::default();
    }

    /// The columnar emit loop of both joins: probe the outer batch (`probe` finds
    /// the next chunk of passing pairs) until a full batch of pairs is found, and
    /// gather it (`gather`) after the columns carried from earlier outer batches.
    /// Once every pair of the outer batch is found and fewer than a batch remain,
    /// they are gathered into the carried columns and the outer batch is released.
    fn emit(
        &mut self,
        batch_size: usize,
        mut probe: impl FnMut(&ColumnBatch, &mut Cursor, &mut Pairs) -> Result<(), ExecError>,
        gather: impl Fn(&ColumnBatch, &Pairs, Range<usize>) -> ColumnBatch,
    ) -> Result<Option<Batch>, ExecError> {
        let Some(outer) = &self.outer else {
            return Ok(None);
        };
        loop {
            let carried = self.carried.as_ref().map_or(0, ColumnBatch::len);
            let pending = self.pairs.len() - self.emitted;
            if carried + pending >= batch_size {
                let end = self.emitted + (batch_size - carried);
                let head = gather(outer, &self.pairs, self.emitted..end);
                self.emitted = end;
                return Ok(Some(Batch::Cols(match self.carried.take() {
                    Some(mut out) => {
                        out.append(head);
                        out
                    }
                    None => head,
                })));
            }
            if !self.cursor.done(outer.len()) {
                // Only the pending pairs are kept: a fan-out outer batch would otherwise
                // grow the pair list by its whole output.
                self.pairs.discard(self.emitted);
                self.emitted = 0;
                probe(outer, &mut self.cursor, &mut self.pairs)?;
                continue;
            }
            if pending > 0 {
                let tail = gather(outer, &self.pairs, self.emitted..self.pairs.len());
                match &mut self.carried {
                    Some(carried) => carried.append(tail),
                    None => self.carried = Some(tail),
                }
            }
            self.pairs.clear();
            self.emitted = 0;
            self.outer = None;
            return Ok(None);
        }
    }
}

/// The carried rows as one batch once they fill it.
fn full(rows: &mut Vec<Row>, batch_size: usize) -> Option<Batch> {
    (rows.len() >= batch_size).then(|| Batch::Rows(std::mem::take(rows)))
}

fn filter(
    predicate: &Expr,
    batch: Batch,
    cache: &mut MaskCache,
) -> Result<Option<Batch>, ExecError> {
    let out = match batch {
        Batch::Cols(cols) => match filter_mask(predicate, &cols, cache) {
            Some(mask) => Batch::Cols(cols.filter(&mask)),
            None => filter_rows(predicate, cols.into_rows())?,
        },
        Batch::Rows(rows) => filter_rows(predicate, rows)?,
    };
    Ok((!out.is_empty()).then_some(out))
}

fn filter_rows(predicate: &Expr, mut rows: RowBatch) -> Result<Batch, ExecError> {
    predicate.filter_batch(&mut rows)?;
    Ok(Batch::Rows(rows))
}

fn project(exprs: &[Expr], columns: Option<&[usize]>, batch: Batch) -> Result<Batch, ExecError> {
    if let (Batch::Cols(cols), Some(columns)) = (&batch, columns) {
        return Ok(Batch::Cols(cols.project(columns)));
    }
    let rows = batch.into_rows();
    let mut out = Vec::with_capacity(rows.len());
    for row in &rows {
        let values = exprs
            .iter()
            .map(|expr| expr.eval(row))
            .collect::<Result<_, _>>()?;
        out.push(Row::from_values(values));
    }
    Ok(Batch::Rows(out))
}

/// The row path of the index probe (`columnar == false`, the reference engine):
/// one outer row at a time and one fetched inner row per match, until a full batch
/// of rows is carried; `None` once every outer row is probed with fewer carried.
fn index_rows(
    kernel: &IndexNlKernel,
    table: &Table,
    index: &Index,
    state: &mut StepState,
    batch_size: usize,
) -> Result<Option<Batch>, ExecError> {
    let (read, cursor) = (&kernel.read, &mut state.join.cursor);
    while let Some(outer) = state.outer_rows.get(cursor.outer) {
        let matches = index.lookup(outer.value(kernel.outer_key()));
        while let Some(&id) = matches.get(cursor.matched) {
            if state.rows.len() >= batch_size {
                return Ok(full(&mut state.rows, batch_size));
            }
            cursor.matched += 1;
            if read.fetch(table, id, &mut state.inner)? {
                let inner = read.output(&state.inner);
                state.rows.extend(
                    kernel
                        .rows
                        .join(outer.values(), inner, &mut state.scratch)?,
                );
            }
        }
        cursor.outer += 1;
        cursor.matched = 0;
    }
    Ok(full(&mut state.rows, batch_size))
}

#[cfg(test)]
mod tests {
    //! Each step's batching rule against brute force: the expected rows come from
    //! plain loops over the input rows, with the predicates written as Rust closures.

    use super::*;
    use reopt_expr::{BinaryOp, ColumnRef};
    use reopt_planner::cost::Cost;
    use reopt_planner::plan::OutputExpr;
    use reopt_planner::RelSet;
    use reopt_storage::{Column, DataType, Schema, Value};

    /// No observer.
    struct Silent;

    impl Events for Silent {
        fn active(&self) -> bool {
            false
        }

        fn send(&self, _: &dyn Fn() -> ExecEvent) -> Result<(), ExecError> {
            Ok(())
        }
    }

    fn int(v: Option<i64>) -> Value {
        Value::from(v)
    }

    /// `t(k, v)`, the input: NULL keys, keys without a match, keys with one and a
    /// key (3) with 1 100.
    fn input_rows() -> Vec<Row> {
        (0..40i64)
            .map(|i| {
                let k = if i % 9 == 4 { None } else { Some(i % 7) };
                Row::from_values(vec![int(k), int(Some(i))])
            })
            .collect()
    }

    /// `u(k, w)`, the build and inner side, indexed on `k`. Key 3's matches outnumber
    /// one index probe's candidates, so an outer row is probed over several calls.
    fn inner_rows() -> Vec<Row> {
        let mut rows: Vec<Row> = (0..1100i64)
            .map(|w| Row::from_values(vec![int(Some(3)), int(Some(w))]))
            .collect();
        rows.push(Row::from_values(vec![int(Some(5)), int(Some(50))]));
        rows.push(Row::from_values(vec![int(None), int(Some(60))]));
        rows.push(Row::from_values(vec![int(Some(9)), int(Some(90))]));
        rows
    }

    fn schema(alias: &str, columns: [&str; 2]) -> Schema {
        Schema::new(
            columns
                .iter()
                .map(|c| Column::new(*c, DataType::Int))
                .collect(),
        )
        .qualified(alias)
    }

    fn storage() -> Storage {
        let mut storage = Storage::new();
        let mut u = Table::new(
            "u",
            Schema::new(vec![
                Column::new("k", DataType::Int),
                Column::new("w", DataType::Int),
            ]),
        );
        for row in inner_rows() {
            u.push_row(row).unwrap();
        }
        u.create_index("u_k", "k", IndexKind::Hash).unwrap();
        storage.create_table(u).unwrap();
        storage
    }

    fn node(
        kind: PlanKind,
        children: Vec<PhysicalPlan>,
        schema: Schema,
        rels: &[usize],
    ) -> PhysicalPlan {
        PhysicalPlan {
            kind,
            children,
            schema,
            estimated_rows: 1.0,
            cost: Cost::ZERO,
            rel_set: RelSet::from_indexes(rels.iter().copied()),
        }
    }

    fn scan(alias: &str, columns: [&str; 2], rel: usize) -> PhysicalPlan {
        let kind = PlanKind::SeqScan {
            rel,
            alias: alias.into(),
            table: alias.into(),
            predicate: None,
        };
        node(kind, Vec::new(), schema(alias, columns), &[rel])
    }

    /// A join of `t` with `u` outputting `t.v, u.w`.
    fn join(kind: PlanKind) -> PhysicalPlan {
        let (t, u) = (scan("t", ["k", "v"], 0), scan("u", ["k", "w"], 1));
        let output = t.schema.join(&u.schema).project(&[1, 3]);
        let children = match kind {
            PlanKind::IndexNestedLoopJoin { .. } => vec![t],
            _ => vec![t, u],
        };
        node(kind, children, output, &[0, 1])
    }

    fn col(alias: &str, name: &str) -> Expr {
        Expr::col(alias, name)
    }

    fn value(row: &Row, at: usize) -> Option<i64> {
        match row.value(at) {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// A kind of step, its plan, and its output per input batch by brute force (the
    /// joins' output as one run).
    struct Case {
        name: &'static str,
        plan: PhysicalPlan,
        /// Whether the step emits full batches (a join) or one per input batch.
        joins: bool,
        expected: fn(&[Row]) -> Vec<Row>,
    }

    fn pairs(input: &[Row], test: impl Fn(&Row, &Row) -> bool) -> Vec<Row> {
        let mut out = Vec::new();
        for t in input {
            for u in &inner_rows() {
                if test(t, u) {
                    out.push(Row::from_values(vec![
                        t.value(1).clone(),
                        u.value(1).clone(),
                    ]));
                }
            }
        }
        out
    }

    fn equal_keys(t: &Row, u: &Row) -> bool {
        value(t, 0).is_some() && value(t, 0) == value(u, 0)
    }

    fn cases() -> Vec<Case> {
        let input = scan("t", ["k", "v"], 0);
        let keys = vec![(
            ColumnRef::qualified("t", "k"),
            ColumnRef::qualified("u", "k"),
        )];
        let index = |residual| PlanKind::IndexNestedLoopJoin {
            inner_rel: 1,
            inner_alias: "u".into(),
            inner_table: "u".into(),
            outer_key: ColumnRef::qualified("t", "k"),
            inner_key: "k".into(),
            inner_predicate: None,
            residual,
        };
        vec![
            Case {
                name: "filter",
                plan: node(
                    PlanKind::Filter {
                        predicate: Expr::binary(BinaryOp::Gt, col("t", "v"), Expr::lit(25i64)),
                    },
                    vec![input.clone()],
                    input.schema.clone(),
                    &[0],
                ),
                joins: false,
                expected: |rows| {
                    rows.iter()
                        .filter(|r| value(r, 1) > Some(25))
                        .cloned()
                        .collect()
                },
            },
            Case {
                name: "column projection",
                plan: node(
                    PlanKind::Project {
                        exprs: vec![
                            OutputExpr {
                                expr: col("t", "v"),
                                name: "v".into(),
                            },
                            OutputExpr {
                                expr: col("t", "k"),
                                name: "k".into(),
                            },
                        ],
                    },
                    vec![input.clone()],
                    schema("t", ["v", "k"]),
                    &[0],
                ),
                joins: false,
                expected: |rows| {
                    rows.iter()
                        .map(|r| Row::from_values(vec![r.value(1).clone(), r.value(0).clone()]))
                        .collect()
                },
            },
            Case {
                name: "expression projection",
                plan: node(
                    PlanKind::Project {
                        exprs: vec![OutputExpr {
                            expr: Expr::binary(BinaryOp::Add, col("t", "v"), Expr::lit(1i64)),
                            name: "v1".into(),
                        }],
                    },
                    vec![input.clone()],
                    Schema::new(vec![Column::new("v1", DataType::Int)]),
                    &[0],
                ),
                joins: false,
                expected: |rows| {
                    rows.iter()
                        .map(|r| Row::from_values(vec![int(value(r, 1).map(|v| v + 1))]))
                        .collect()
                },
            },
            Case {
                name: "hash join",
                plan: join(PlanKind::HashJoin {
                    keys,
                    residual: None,
                }),
                joins: true,
                expected: |rows| pairs(rows, equal_keys),
            },
            Case {
                name: "nested-loop join",
                plan: join(PlanKind::NestedLoopJoin {
                    predicate: Some(Expr::binary(BinaryOp::Lt, col("t", "v"), col("u", "w"))),
                }),
                joins: true,
                expected: |rows| {
                    pairs(rows, |t, u| {
                        value(t, 1).zip(value(u, 1)).is_some_and(|(v, w)| v < w)
                    })
                },
            },
            Case {
                name: "index nested-loop join",
                plan: join(index(None)),
                joins: true,
                expected: |rows| pairs(rows, equal_keys),
            },
            Case {
                name: "index nested-loop join with a residual",
                plan: join(index(Some(Expr::binary(
                    BinaryOp::Gt,
                    col("u", "w"),
                    col("t", "v"),
                )))),
                joins: true,
                expected: |rows| pairs(rows, |t, u| equal_keys(t, u) && value(u, 1) > value(t, 1)),
            },
        ]
    }

    /// The input in batches of 1, 3, 5, 2 and 8 rows, in turn, alternately as
    /// columns and as rows.
    fn input_batches() -> Vec<Vec<Row>> {
        let mut rows = input_rows().into_iter();
        let mut batches = Vec::new();
        for len in [1, 3, 5, 2, 8].into_iter().cycle() {
            let batch: Vec<Row> = rows.by_ref().take(len).collect();
            if batch.is_empty() {
                return batches;
            }
            batches.push(batch);
        }
        unreachable!("the cycle ends when the rows do")
    }

    #[test]
    fn every_step_batches_by_its_rule() {
        let storage = storage();
        for case in cases() {
            for columnar in [true, false] {
                for batch_size in [1, 7, 1024] {
                    let label = format!(
                        "{}, columnar {columnar}, batch size {batch_size}",
                        case.name
                    );
                    let config = ExecConfig {
                        batch_size,
                        columnar,
                        ..ExecConfig::default()
                    };
                    let stats = Arc::default();
                    let mut step = Step::new(&case.plan, &storage, &config, &stats)
                        .unwrap()
                        .unwrap();
                    if let Some((mut table, _)) = step.build_table() {
                        table.append(Batch::Rows(inner_rows()));
                        table.seal();
                        step.install(Built::Table(Arc::new(table)));
                    }
                    step.prepare(&Buffered::default());
                    let mut state = step.state();
                    let (mut out, mut expected) = (Vec::new(), Vec::new());
                    for (at, batch) in input_batches().into_iter().enumerate() {
                        let each = (case.expected)(&batch);
                        if !case.joins && !each.is_empty() {
                            expected.push(each);
                        } else if case.joins {
                            expected.extend(each.into_iter().map(|row| vec![row]));
                        }
                        let batch = if at % 2 == 0 {
                            Batch::Cols(ColumnBatch::from_rows(batch, 2))
                        } else {
                            Batch::Rows(batch)
                        };
                        step.push(&mut state, batch).unwrap();
                        while let Some(batch) = step.next(&mut state, &Silent).unwrap() {
                            out.push(batch.into_rows());
                        }
                    }
                    out.extend(
                        step.flush(&mut state, &Silent)
                            .unwrap()
                            .map(Batch::into_rows),
                    );
                    assert_eq!(state.pending(), 0, "{label}");
                    if case.joins {
                        // Exactly `batch_size` rows a batch, the remainder last.
                        let rows: Vec<Row> = expected.concat();
                        let sizes: Vec<usize> = rows.chunks(batch_size).map(<[Row]>::len).collect();
                        assert_eq!(
                            out.iter().map(Vec::len).collect::<Vec<_>>(),
                            sizes,
                            "{label}"
                        );
                        assert_eq!(out.concat(), rows, "{label}");
                    } else {
                        // One batch per input batch with a result.
                        assert_eq!(out, expected, "{label}");
                    }
                    let rows = out.iter().map(Vec::len).sum::<usize>() as u64;
                    assert_eq!(
                        (stats.rows(), stats.batches()),
                        (rows, out.len() as u64),
                        "{label}"
                    );
                }
            }
        }
    }
}
