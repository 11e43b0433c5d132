//! The aggregation kernel.
//!
//! [`AggKernel::consume`] folds one batch into a [`GroupTable`] as the batch
//! arrives: a column batch stays undecoded and a row batch is read in place. No
//! input row costs a `Row` or a key `Vec`, and no argument value is cloned:
//!
//! * an argument that is a bound column is read by reference — from the row, or
//!   as `(column, index)` straight out of the typed vector, where MIN/MAX compare
//!   native `i64`/`f64` and dictionary strings as `&str` and clone only a winner;
//! * `COUNT(*)` over a column batch adds the batch length;
//! * a single key column of dictionary or native-int encoding resolves its group
//!   through a code → group (or `i64` → group) cache in front of the value-keyed
//!   table, and a single bound key of a row is looked up where it lies; every
//!   other key shape is gathered into one reused key buffer. A key is copied
//!   only when it inserts a new group.
//!
//! A column batch whose keys or arguments are not all bound columns (an
//! expression key, `SUM(a + b)`) is decoded to rows: that is the one fallback.
//!
//! The value-keyed table decides group identity, so a dictionary holding a string
//! twice, or `Int(2)` beside `Float(2.0)`, still lands in one group; the caches
//! only remember where the table put a key. New groups go through the caller's
//! admission callback, which reserves their key bytes through [`GroupSpill`].
//!
//! A table whose grant is denied goes out of core: after the engine's pressure
//! callback lets it, [`GroupSpill`] flushes the states as one key-sorted run
//! (`sort.rs`), emptying the table and its caches together, and keeps folding into
//! the emptied table. [`GroupSpill::finish`] merges every run — a morsel engine's
//! workers each flush their own — combining the partial states of each key.

use crate::error::ExecError;
use crate::exact::ExactSum;
use crate::exec::{bind, bind_opt, Batch};
use crate::sort::{Merge, Runs};
use crate::spill::{Pressure, Reservation, SpillStats};
use reopt_expr::Expr;
use reopt_planner::{PhysicalPlan, PlanKind};
use reopt_sql::AggregateFunc;
use reopt_storage::{ColumnBatch, ColumnData, Row, StringDict, Value, NULL_CODE};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic position in a pipeline's output: `(morsel index, per-worker
/// sequence)`. A morsel is processed in full by exactly one worker, whose sequence
/// counter grows monotonically, so sorting by tag reproduces the global scan order
/// regardless of which worker claimed which morsel. A group's tag is where it was
/// first seen.
pub(crate) type Tag = (usize, u64);

/// One group: its key, one accumulator per aggregate, and its first-seen tag.
#[derive(Debug)]
pub(crate) struct Group {
    pub(crate) key: Vec<Value>,
    pub(crate) accs: Vec<Accumulator>,
    pub(crate) tag: Tag,
}

impl Group {
    /// The output row: the key followed by every aggregate's final value.
    pub(crate) fn finish(self) -> Result<Row, ExecError> {
        let mut values = self.key;
        values.reserve(self.accs.len());
        for acc in self.accs {
            values.push(acc.finish()?);
        }
        Ok(Row::from_values(values))
    }
}

/// Called before a new group is inserted, with the table and the decoded width of
/// the new key: reserves memory for it, and may flush the table's states to a
/// spill run (see [`GroupTable::take_states`]).
pub(crate) type Admit<'a> = dyn FnMut(&mut GroupTable, u64) -> Result<(), ExecError> + 'a;

/// Group lookup in front of the value-keyed table for a single key column. It is
/// sized by the groups seen, never by the dictionary, so it grows only as the
/// governed group table does.
#[derive(Default)]
enum KeyCache {
    #[default]
    Empty,
    /// Dictionary code → group, for one dictionary (pinned so its address, the
    /// identity the cache is keyed on, cannot be reused). NULL is [`NULL_CODE`].
    Codes {
        dict: Arc<StringDict>,
        groups: HashMap<u32, usize>,
    },
    /// Native integer → group; `None` is NULL (whose stored payload is a
    /// placeholder).
    Ints(HashMap<Option<i64>, usize>),
}

/// Group key → state index, plus the states in first-seen order. Spill, merge and
/// emission order work on this layout directly.
#[derive(Default)]
pub(crate) struct GroupTable {
    groups: HashMap<Vec<Value>, usize>,
    states: Vec<Group>,
    /// Next first-seen sequence number.
    seq: u64,
    cache: KeyCache,
}

impl GroupTable {
    /// Number of groups held.
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Move every state out (key-to-index map and caches cleared): the spill flush.
    fn take_states(&mut self) -> Vec<Group> {
        self.groups.clear();
        self.cache = KeyCache::Empty;
        std::mem::take(&mut self.states)
    }

    /// The states in first-seen order.
    fn into_states(self) -> Vec<Group> {
        self.states
    }

    /// Fold a partial group (the merge step of parallel partial aggregation): merge
    /// it into the group with the same key, keeping the earliest tag, or add it.
    fn merge_group(&mut self, group: Group) {
        match self.groups.get(&group.key) {
            Some(&idx) => {
                let state = &mut self.states[idx];
                for (acc, partial) in state.accs.iter_mut().zip(group.accs) {
                    acc.merge(partial);
                }
                state.tag = state.tag.min(group.tag);
            }
            None => {
                self.groups.insert(group.key.clone(), self.states.len());
                self.states.push(group);
            }
        }
    }

    /// The group of `key`, which is copied only when it is new and inserted.
    fn find_or_insert(
        &mut self,
        key: &[Value],
        funcs: &[AggregateFunc],
        morsel: usize,
        admit: &mut Admit<'_>,
    ) -> Result<usize, ExecError> {
        if let Some(&idx) = self.groups.get(key) {
            return Ok(idx);
        }
        let key_bytes: u64 = key.iter().map(|v| v.width() as u64).sum();
        admit(self, key_bytes)?;
        let idx = self.states.len();
        self.groups.insert(key.to_vec(), idx);
        self.states.push(Group {
            key: key.to_vec(),
            accs: funcs.iter().map(|&f| Accumulator::new(f)).collect(),
            tag: (morsel, self.seq),
        });
        self.seq += 1;
        Ok(idx)
    }

    fn cached_code(&self, dict: &Arc<StringDict>, code: u32) -> Option<usize> {
        match &self.cache {
            KeyCache::Codes { dict: d, groups } if Arc::ptr_eq(d, dict) => {
                groups.get(&code).copied()
            }
            _ => None,
        }
    }

    fn cache_code(&mut self, dict: &Arc<StringDict>, code: u32, idx: usize) {
        match &mut self.cache {
            KeyCache::Codes { dict: d, groups } if Arc::ptr_eq(d, dict) => {
                groups.insert(code, idx);
            }
            cache => {
                *cache = KeyCache::Codes {
                    dict: Arc::clone(dict),
                    groups: [(code, idx)].into_iter().collect(),
                };
            }
        }
    }

    fn cached_int(&self, value: Option<i64>) -> Option<usize> {
        match &self.cache {
            KeyCache::Ints(groups) => groups.get(&value).copied(),
            _ => None,
        }
    }

    fn cache_int(&mut self, value: Option<i64>, idx: usize) {
        match &mut self.cache {
            KeyCache::Ints(groups) => {
                groups.insert(value, idx);
            }
            cache => *cache = KeyCache::Ints([(value, idx)].into_iter().collect()),
        }
    }
}

/// The memory grant of one [`GroupTable`] and, once a grant was denied, the
/// key-sorted runs its states were flushed to. A global aggregate's one group is
/// never reserved or spilled.
pub(crate) struct GroupSpill {
    reservation: Reservation,
    runs: Option<Runs>,
    key_len: usize,
    stats: Arc<SpillStats>,
}

impl GroupSpill {
    pub(crate) fn new(key_len: usize, reservation: Reservation, stats: Arc<SpillStats>) -> Self {
        Self {
            reservation,
            runs: None,
            key_len,
            stats,
        }
    }

    /// Admit a new group of `table`: reserve its key bytes, and on a denial flush
    /// the table as one run, then reserve again. The first denial reports
    /// `pressure` before anything is written. Returns whether the bytes were
    /// granted before the table went out of core (an engine's buffered-rows
    /// accounting counts only those).
    pub(crate) fn admit(
        &mut self,
        table: &mut GroupTable,
        key_bytes: u64,
        pressure: &mut Pressure<'_>,
    ) -> Result<bool, ExecError> {
        if self.reservation.grow(key_bytes) {
            return Ok(self.runs.is_none());
        }
        let runs = match &mut self.runs {
            Some(runs) => runs,
            None => {
                pressure(table.len() as u64, &self.reservation)?;
                let directions = vec![true; self.key_len];
                self.runs.insert(Runs::new(directions, Arc::clone(&self.stats))?)
            }
        };
        flush(runs, table)?;
        self.reservation.release_all();
        let _ = self.reservation.grow(key_bytes);
        Ok(false)
    }

    /// The groups to emit from one or more tables (the morsel engine's workers'),
    /// each with its spill. In memory they are merged and emitted in first-seen
    /// `(morsel, sequence)` order. Once any table spilled, every table is flushed
    /// as a last run and the runs are merged, emitting in key order: the in-memory
    /// order and the out-of-core order differ only under a finite budget.
    pub(crate) fn finish(
        kernel: &AggKernel,
        mut parts: Vec<(GroupTable, GroupSpill)>,
    ) -> Result<Groups, ExecError> {
        let spilled: Vec<Runs> = parts.iter_mut().filter_map(|(_, spill)| spill.runs.take()).collect();
        let mut spilled = spilled.into_iter();
        let Some(mut runs) = spilled.next() else {
            let mut parts = parts.into_iter().map(|(table, _)| table);
            let mut merged = parts.next().unwrap_or_else(|| kernel.new_table());
            for table in parts {
                for group in table.into_states() {
                    merged.merge_group(group);
                }
            }
            let mut groups = merged.into_states();
            groups.sort_by_key(|group| group.tag);
            return Ok(Groups::Memory(groups.into_iter()));
        };
        spilled.for_each(|more| runs.absorb(more));
        for (mut table, mut spill) in parts {
            flush(&mut runs, &mut table)?;
            spill.reservation.release_all();
        }
        Ok(Groups::Merged(runs.merge()?, kernel.funcs.clone()))
    }
}

/// Seal a table's states as one key-sorted run of `key ++ encoded states` records.
fn flush(runs: &mut Runs, table: &mut GroupTable) -> Result<(), ExecError> {
    let records = table
        .take_states()
        .into_iter()
        .map(|group| (group.key, group.accs))
        .collect();
    runs.write(records, |accs, record| {
        for acc in accs {
            acc.spill_encode(record);
        }
    })
}

/// The groups an aggregate emits.
pub(crate) enum Groups {
    Memory(std::vec::IntoIter<Group>),
    /// The merge of spilled runs, and the functions their states decode to.
    Merged(Merge, Vec<AggregateFunc>),
}

impl Groups {
    fn next_group(&mut self) -> Result<Option<Group>, ExecError> {
        let (merge, funcs) = match self {
            Groups::Memory(groups) => return Ok(groups.next()),
            Groups::Merged(merge, funcs) => (merge, funcs),
        };
        let Some(mut key) = merge.next()? else {
            return Ok(None);
        };
        let mut accs = decode_accumulators(funcs, key.split_off(merge.key_len()))?;
        // A key's partial states sit in consecutive records, one per run.
        while merge.peek().is_some_and(|next| next.starts_with(&key)) {
            let Some(mut next) = merge.next()? else { break };
            let partial = decode_accumulators(funcs, next.split_off(key.len()))?;
            for (acc, partial) in accs.iter_mut().zip(partial) {
                acc.merge(partial);
            }
        }
        Ok(Some(Group {
            key,
            accs,
            tag: (0, 0),
        }))
    }

    /// The next (at most `batch_size`) result rows, or `None` once every group was
    /// emitted.
    pub(crate) fn next_batch(&mut self, batch_size: usize) -> Result<Option<Vec<Row>>, ExecError> {
        let mut out = Vec::new();
        while out.len() < batch_size {
            let Some(group) = self.next_group()? else { break };
            out.push(group.finish()?);
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

/// Decode the accumulator states of one spilled group record.
fn decode_accumulators(
    funcs: &[AggregateFunc],
    values: Vec<Value>,
) -> Result<Vec<Accumulator>, ExecError> {
    let mut values = values.into_iter();
    funcs
        .iter()
        .map(|&func| Accumulator::spill_decode(func, &mut values))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| ExecError::Spill("truncated aggregate state record".into()))
}

/// The bound aggregation of one `Aggregate` plan node, shared by every worker.
#[derive(Debug)]
pub(crate) struct AggKernel {
    group_exprs: Vec<Expr>,
    funcs: Vec<AggregateFunc>,
    args: Vec<Option<Expr>>,
    /// The key columns, when every key is a bound column.
    key_cols: Option<Vec<usize>>,
    /// The argument columns (`None` for `COUNT(*)`), when every argument is a bound
    /// column or absent.
    arg_cols: Option<Vec<Option<usize>>>,
}

fn bound_index(expr: &Expr) -> Option<usize> {
    match expr {
        Expr::BoundColumn { index, .. } => Some(*index),
        _ => None,
    }
}

impl AggKernel {
    /// Compile an `Aggregate` node: its keys and arguments bound to the input schema.
    pub(crate) fn new(plan: &PhysicalPlan) -> Result<Self, ExecError> {
        let (PlanKind::Aggregate { group_by, aggregates }, [input]) = (&plan.kind, &plan.children[..])
        else {
            return Err(ExecError::InvalidPlan("expected an aggregate over one input".into()));
        };
        let group_exprs = group_by
            .iter()
            .map(|e| bind(e, &input.schema))
            .collect::<Result<Vec<_>, _>>()?;
        let funcs = aggregates.iter().map(|a| a.func).collect();
        let args = aggregates
            .iter()
            .map(|a| bind_opt(a.arg.as_ref(), &input.schema))
            .collect::<Result<Vec<_>, _>>()?;
        let key_cols = group_exprs.iter().map(bound_index).collect();
        let arg_cols = args
            .iter()
            .map(|arg| match arg {
                None => Some(None),
                Some(expr) => bound_index(expr).map(Some),
            })
            .collect();
        Ok(Self {
            group_exprs,
            funcs,
            args,
            key_cols,
            arg_cols,
        })
    }

    /// Number of key columns.
    pub(crate) fn key_len(&self) -> usize {
        self.group_exprs.len()
    }

    /// Whether the aggregate has a GROUP BY.
    pub(crate) fn grouped(&self) -> bool {
        !self.group_exprs.is_empty()
    }

    /// An empty state table. Without GROUP BY it already holds the one group (empty
    /// key, tag `(0, 0)`): a global aggregate yields one row even over no input,
    /// and its state is never reserved or spilled.
    pub(crate) fn new_table(&self) -> GroupTable {
        let mut table = GroupTable::default();
        if !self.grouped() {
            table.groups.insert(Vec::new(), 0);
            table.states.push(Group {
                key: Vec::new(),
                accs: self.funcs.iter().map(|&f| Accumulator::new(f)).collect(),
                tag: (0, 0),
            });
        }
        table
    }

    /// Fold one batch of `morsel` into `table`. Column batches whose keys and
    /// arguments are all bound columns are read in place; any other batch is read
    /// as rows.
    pub(crate) fn consume(
        &self,
        table: &mut GroupTable,
        batch: Batch,
        morsel: usize,
        admit: &mut Admit<'_>,
    ) -> Result<(), ExecError> {
        match (batch, &self.key_cols, &self.arg_cols) {
            (Batch::Cols(cols), Some(keys), Some(args)) => {
                self.consume_cols(table, &cols, keys, args, morsel, admit)
            }
            (batch, ..) => self.consume_rows(table, &batch.into_rows(), morsel, admit),
        }
    }

    fn consume_rows(
        &self,
        table: &mut GroupTable,
        rows: &[Row],
        morsel: usize,
        admit: &mut Admit<'_>,
    ) -> Result<(), ExecError> {
        let mut key = Vec::with_capacity(self.group_exprs.len());
        for row in rows {
            let idx = match self.key_cols.as_deref() {
                Some([]) => 0,
                // A single bound key is looked up where it lies in the row.
                Some([col]) => {
                    let key = std::slice::from_ref(row.value(*col));
                    table.find_or_insert(key, &self.funcs, morsel, admit)?
                }
                _ => {
                    key.clear();
                    for expr in &self.group_exprs {
                        key.push(match expr {
                            Expr::BoundColumn { index, .. } => row.value(*index).clone(),
                            expr => expr.eval(row)?,
                        });
                    }
                    table.find_or_insert(&key, &self.funcs, morsel, admit)?
                }
            };
            for (acc, arg) in table.states[idx].accs.iter_mut().zip(&self.args) {
                match arg {
                    None => acc.count_rows(1),
                    Some(Expr::BoundColumn { index, .. }) => acc.update(row.value(*index)),
                    Some(expr) => acc.update(&expr.eval(row)?),
                }
            }
        }
        Ok(())
    }

    fn consume_cols(
        &self,
        table: &mut GroupTable,
        cols: &ColumnBatch,
        keys: &[usize],
        args: &[Option<usize>],
        morsel: usize,
        admit: &mut Admit<'_>,
    ) -> Result<(), ExecError> {
        let len = cols.len();
        let update = |accs: &mut [Accumulator], row: usize| {
            for (acc, arg) in accs.iter_mut().zip(args) {
                match arg {
                    None => acc.count_rows(1),
                    Some(col) => acc.update_at(cols.column(*col), row),
                }
            }
        };
        match keys {
            [] => {
                for (acc, arg) in table.states[0].accs.iter_mut().zip(args) {
                    match arg {
                        None => acc.count_rows(len as u64),
                        Some(col) => acc.update_column(cols.column(*col)),
                    }
                }
            }
            [key] => match cols.column(*key) {
                ColumnData::Dict { codes, dict } => {
                    for (row, &code) in codes.iter().enumerate() {
                        let idx = match table.cached_code(dict, code) {
                            Some(idx) => idx,
                            None => {
                                let key = [if code == NULL_CODE {
                                    Value::Null
                                } else {
                                    Value::Text(dict.get_shared(code))
                                }];
                                let idx = table.find_or_insert(&key, &self.funcs, morsel, admit)?;
                                table.cache_code(dict, code, idx);
                                idx
                            }
                        };
                        update(&mut table.states[idx].accs, row);
                    }
                }
                ColumnData::Int { values, validity } => {
                    for (row, &v) in values.iter().enumerate() {
                        let value = validity.get(row).then_some(v);
                        let idx = match table.cached_int(value) {
                            Some(idx) => idx,
                            None => {
                                let key = [value.map_or(Value::Null, Value::Int)];
                                let idx = table.find_or_insert(&key, &self.funcs, morsel, admit)?;
                                table.cache_int(value, idx);
                                idx
                            }
                        };
                        update(&mut table.states[idx].accs, row);
                    }
                }
                column => {
                    for row in 0..len {
                        let key = [column.value_at(row)];
                        let idx = table.find_or_insert(&key, &self.funcs, morsel, admit)?;
                        update(&mut table.states[idx].accs, row);
                    }
                }
            },
            keys => {
                let mut key = Vec::with_capacity(keys.len());
                for row in 0..len {
                    key.clear();
                    key.extend(keys.iter().map(|&col| cols.column(col).value_at(row)));
                    let idx = table.find_or_insert(&key, &self.funcs, morsel, admit)?;
                    update(&mut table.states[idx].accs, row);
                }
            }
        }
        Ok(())
    }
}

/// An exact numeric sum: integers in an `i128`, floats in an [`ExactSum`], and the
/// number of numeric terms. Both halves are order-independent, so partial sums
/// merge to the same value in any order.
#[derive(Debug, Clone, Default)]
pub(crate) struct NumSum {
    floats: ExactSum,
    ints: i128,
    any_float: bool,
    terms: u64,
}

impl NumSum {
    fn add_int(&mut self, v: i64) {
        self.ints += i128::from(v);
        self.terms += 1;
    }

    fn add_float(&mut self, v: f64) {
        self.floats.add(v);
        self.any_float = true;
        self.terms += 1;
    }

    /// Add a numeric value; anything else is not a term.
    fn add_value(&mut self, value: &Value) {
        match value {
            Value::Int(v) => self.add_int(*v),
            Value::Float(v) => self.add_float(*v),
            _ => {}
        }
    }

    fn merge(&mut self, other: &NumSum) {
        self.floats.merge(&other.floats);
        self.ints += other.ints;
        self.any_float |= other.any_float;
        self.terms += other.terms;
    }

    /// The whole sum rounded once to `f64`: the integer half enters the exact
    /// accumulator in 32-bit pieces, each of which an `f64` holds exactly.
    fn to_f64(&self) -> f64 {
        let mut total = self.floats.clone();
        let mut rest = self.ints;
        let mut scale = 1.0f64;
        while rest != 0 {
            let piece = rest & 0xffff_ffff;
            total.add(piece as f64 * scale);
            rest >>= 32;
            // -1 >> 32 stays -1: the final negative piece is -(2^32) + piece.
            if rest == -1 {
                total.add(-4_294_967_296.0 * scale);
                break;
            }
            scale *= 4_294_967_296.0;
        }
        total.to_f64()
    }

    /// The value of an integer-only SUM: exact, or an error outside `i64`.
    fn to_int(&self) -> Result<Value, ExecError> {
        i64::try_from(self.ints)
            .map(Value::Int)
            .map_err(|_| ExecError::Eval(format!("integer SUM {} is out of range", self.ints)))
    }

    /// Append `[flags, limbs…, ints high, ints low, any_float, terms]`.
    fn encode(&self, out: &mut Vec<Value>) {
        let (flags, limbs) = self.floats.encode();
        out.push(Value::Int(flags));
        out.extend(limbs.iter().map(|&limb| Value::Int(limb)));
        out.push(Value::Int((self.ints >> 64) as i64));
        out.push(Value::Int(self.ints as i64));
        out.push(Value::Bool(self.any_float));
        out.push(Value::Int(self.terms as i64));
    }

    fn decode(values: &mut impl Iterator<Item = Value>) -> Option<Self> {
        let flags = values.next()?.as_int()?;
        let mut limbs = Vec::with_capacity(ExactSum::ENCODED_LIMBS);
        for _ in 0..ExactSum::ENCODED_LIMBS {
            limbs.push(values.next()?.as_int()?);
        }
        let floats = ExactSum::decode(flags, limbs.into_iter())?;
        let high = i128::from(values.next()?.as_int()?);
        let low = i128::from(values.next()?.as_int()? as u64);
        Some(NumSum {
            floats,
            ints: (high << 64) | low,
            any_float: values.next()?.as_bool()?,
            terms: values.next()?.as_int()? as u64,
        })
    }
}

/// Aggregate accumulator state.
#[derive(Debug, Clone)]
pub(crate) enum Accumulator {
    /// MIN (`keep: Less`) or MAX (`keep: Greater`): the best non-NULL value so far.
    Best {
        keep: Ordering,
        value: Option<Value>,
    },
    /// COUNT: rows (`COUNT(*)`) or non-NULL values.
    Count(u64),
    /// SUM: NULL without terms; an integer-only sum stays an exact integer.
    Sum(NumSum),
    /// AVG: always a float, NULL without terms.
    Avg(NumSum),
}

impl Accumulator {
    fn new(func: AggregateFunc) -> Self {
        match func {
            AggregateFunc::Min => Accumulator::Best {
                keep: Ordering::Less,
                value: None,
            },
            AggregateFunc::Max => Accumulator::Best {
                keep: Ordering::Greater,
                value: None,
            },
            AggregateFunc::Count => Accumulator::Count(0),
            AggregateFunc::Sum => Accumulator::Sum(NumSum::default()),
            AggregateFunc::Avg => Accumulator::Avg(NumSum::default()),
        }
    }

    /// Offer a MIN/MAX candidate: `cmp` orders it against the current best, and
    /// `make` builds it only when it wins.
    fn offer(&mut self, cmp: impl FnOnce(&Value) -> Ordering, make: impl FnOnce() -> Value) {
        if let Accumulator::Best { keep, value } = self {
            if value.as_ref().map_or(true, |best| cmp(best) == *keep) {
                *value = Some(make());
            }
        }
    }

    /// `COUNT(*)` over `rows` rows (no other function takes `*`).
    fn count_rows(&mut self, rows: u64) {
        if let Accumulator::Count(count) = self {
            *count += rows;
        }
    }

    /// Fold one argument value, read in place; NULL is never a term.
    fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        match self {
            Accumulator::Best { .. } => self.offer(|best| value.cmp(best), || value.clone()),
            Accumulator::Count(count) => *count += 1,
            Accumulator::Sum(sum) | Accumulator::Avg(sum) => sum.add_value(value),
        }
    }

    fn update_int(&mut self, v: i64) {
        match self {
            Accumulator::Best { .. } => self.offer(
                |best| match best {
                    Value::Int(best) => v.cmp(best),
                    best => Value::Int(v).cmp(best),
                },
                || Value::Int(v),
            ),
            Accumulator::Count(count) => *count += 1,
            Accumulator::Sum(sum) | Accumulator::Avg(sum) => sum.add_int(v),
        }
    }

    fn update_float(&mut self, v: f64) {
        match self {
            Accumulator::Best { .. } => self.offer(
                |best| match best {
                    Value::Float(best) => v.total_cmp(best),
                    best => Value::Float(v).cmp(best),
                },
                || Value::Float(v),
            ),
            Accumulator::Count(count) => *count += 1,
            Accumulator::Sum(sum) | Accumulator::Avg(sum) => sum.add_float(v),
        }
    }

    fn update_text(&mut self, dict: &StringDict, code: u32) {
        match self {
            Accumulator::Best { .. } => self.offer(
                |best| match best {
                    Value::Text(best) => dict.get(code).cmp(best),
                    best => Value::Text(dict.get_shared(code)).cmp(best),
                },
                || Value::Text(dict.get_shared(code)),
            ),
            Accumulator::Count(count) => *count += 1,
            // Text is not a SUM/AVG term.
            Accumulator::Sum(_) | Accumulator::Avg(_) => {}
        }
    }

    /// Fold the value at `row` of a column, read in place.
    fn update_at(&mut self, column: &ColumnData, row: usize) {
        match column {
            ColumnData::Int { values, validity } => {
                if validity.get(row) {
                    self.update_int(values[row]);
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.get(row) {
                    self.update_float(values[row]);
                }
            }
            ColumnData::Dict { codes, dict } => {
                if codes[row] != NULL_CODE {
                    self.update_text(dict, codes[row]);
                }
            }
            ColumnData::Bool { values, validity } => {
                if validity.get(row) {
                    self.update(&Value::Bool(values[row]));
                }
            }
            ColumnData::Val(values) => self.update(&values[row]),
        }
    }

    /// Fold every value of a column (the one group of a global aggregate).
    fn update_column(&mut self, column: &ColumnData) {
        match self {
            Accumulator::Count(count) => *count += (column.len() - column.null_count()) as u64,
            _ => {
                for row in 0..column.len() {
                    self.update_at(column, row);
                }
            }
        }
    }

    /// Merge another partial state of the same aggregate into this one (the merge
    /// step of parallel partial aggregation and of spilled runs). Merging is exact
    /// for every function: MIN/MAX/COUNT trivially so, SUM/AVG because [`NumSum`]
    /// keeps the true sum and rounds once at [`Accumulator::finish`] — which is what
    /// makes float aggregates bit-identical across thread counts, merge orders and
    /// repeated runs.
    pub(crate) fn merge(&mut self, other: Accumulator) {
        match (self, other) {
            (this @ Accumulator::Best { .. }, Accumulator::Best { value: Some(v), .. }) => {
                this.offer(|best| v.cmp(best), || v.clone());
            }
            (Accumulator::Count(count), Accumulator::Count(other)) => *count += other,
            (Accumulator::Sum(sum), Accumulator::Sum(other))
            | (Accumulator::Avg(sum), Accumulator::Avg(other)) => sum.merge(&other),
            // Mismatched or empty partials carry nothing to merge.
            _ => {}
        }
    }

    /// Append this accumulator's state to a spill record. Each function uses a
    /// fixed number of values, so decoding needs no per-record framing:
    /// MIN/MAX → `[value-or-NULL]` (unambiguous because no update stores a NULL),
    /// COUNT → `[count]`, SUM/AVG → the [`NumSum`] fields (the exact-sum state
    /// bit-cast to ints — spilling must not round, or merge order would become
    /// observable again).
    pub(crate) fn spill_encode(self, out: &mut Vec<Value>) {
        match self {
            Accumulator::Best { value, .. } => out.push(value.unwrap_or(Value::Null)),
            Accumulator::Count(count) => out.push(Value::Int(count as i64)),
            Accumulator::Sum(sum) | Accumulator::Avg(sum) => sum.encode(out),
        }
    }

    /// Rebuild an accumulator from the values [`Accumulator::spill_encode`] wrote.
    /// Returns `None` when the record is truncated or mistyped (a corrupt run).
    pub(crate) fn spill_decode(
        func: AggregateFunc,
        values: &mut impl Iterator<Item = Value>,
    ) -> Option<Self> {
        Some(match Accumulator::new(func) {
            Accumulator::Best { keep, .. } => {
                let v = values.next()?;
                Accumulator::Best {
                    keep,
                    value: (!v.is_null()).then_some(v),
                }
            }
            Accumulator::Count(_) => Accumulator::Count(values.next()?.as_int()? as u64),
            Accumulator::Sum(_) => Accumulator::Sum(NumSum::decode(values)?),
            Accumulator::Avg(_) => Accumulator::Avg(NumSum::decode(values)?),
        })
    }

    /// The final value. An integer-only SUM whose total leaves `i64` is an error,
    /// never a saturated value.
    fn finish(self) -> Result<Value, ExecError> {
        Ok(match self {
            Accumulator::Best { value, .. } => value.unwrap_or(Value::Null),
            Accumulator::Count(count) => Value::Int(count as i64),
            Accumulator::Sum(sum) if sum.terms == 0 => Value::Null,
            Accumulator::Sum(sum) if sum.any_float => Value::Float(sum.to_f64()),
            Accumulator::Sum(sum) => sum.to_int()?,
            Accumulator::Avg(sum) if sum.terms == 0 => Value::Null,
            Accumulator::Avg(sum) => Value::Float(sum.to_f64() / sum.terms as f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(values: &[Value]) -> NumSum {
        let mut sum = NumSum::default();
        for v in values {
            sum.add_value(v);
        }
        sum
    }

    #[test]
    fn integer_halves_enter_the_float_sum_exactly() {
        for ints in [
            0i128,
            1,
            -1,
            3,
            -3,
            1 << 40,
            -(1 << 40),
            i128::from(i64::MAX) * 5,
            i128::from(i64::MIN) * 7,
        ] {
            let sum = NumSum {
                ints,
                ..NumSum::default()
            };
            assert_eq!(sum.to_f64(), ints as f64, "{ints}");
        }
        // Mixed inputs round once: 2^53 + 1 + 0.5 is not representable step by step.
        let sum = sum_of(&[Value::Int((1 << 53) + 1), Value::Float(0.5)]);
        assert_eq!(sum.to_f64(), 9007199254740994.0);
    }

    #[test]
    fn integer_sum_is_exact_and_overflow_is_an_error() {
        let sum = sum_of(&[Value::Int(9007199254740993), Value::Int(0)]);
        assert_eq!(sum.to_int().unwrap(), Value::Int(9007199254740993));
        let over = sum_of(&[Value::Int(i64::MAX), Value::Int(1)]);
        assert!(matches!(
            Accumulator::Sum(over).finish(),
            Err(ExecError::Eval(_))
        ));
        let back = sum_of(&[Value::Int(i64::MAX), Value::Int(1), Value::Int(-2)]);
        assert_eq!(
            Accumulator::Sum(back).finish().unwrap(),
            Value::Int(i64::MAX - 1)
        );
    }

    #[test]
    fn num_sum_survives_the_spill_encoding() {
        let sum = sum_of(&[
            Value::Int(i64::MIN),
            Value::Int(i64::MIN),
            Value::Float(0.25),
        ]);
        let mut record = Vec::new();
        sum.encode(&mut record);
        let decoded = NumSum::decode(&mut record.into_iter()).unwrap();
        assert_eq!(decoded.ints, 2 * i128::from(i64::MIN));
        assert_eq!(decoded.terms, 3);
        assert!(decoded.any_float);
        assert_eq!(decoded.to_f64().to_bits(), sum.to_f64().to_bits());
    }
}
