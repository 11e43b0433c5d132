//! The hash join kernel; a plain nested-loop join is its zero-key case.
//!
//! A [`JoinTable`] holds a join's build side as columns: every build batch is
//! appended to one [`ColumnBatch`] as it arrives (a row batch enters as exact-value
//! columns), so the table holds every build row in insertion order. Once the build is
//! complete ([`JoinTable::seal`]) the first key column is indexed as a stored
//! column is ([`Index::from_column`]): an int key column takes the CSR form (direct
//! addressing when dense, binary search otherwise), any other key column a map. A
//! row with a NULL first key never joins under equi-join semantics, so it stays out
//! of the index, but it stays in the columns: a completed build surrendered as a
//! breaker state is the whole build input.
//!
//! A nested-loop join is a join on zero keys: its table has no index, and every
//! outer row pairs with every build row, in insertion order; the join predicate runs
//! as the residual.
//!
//! [`JoinKernel::probe`] reads the probe batch's first key column natively (an int
//! column probes [`Index::lookup_int`]), collects `(probe position, build row)`
//! candidates in chunks through `index_nl`'s [`collect`], checks any further keys on
//! the candidates (by [`Value::total_cmp`], so `Int(2)` matches `Float(2.0)` and NULL
//! matches nothing), and filters them on the residual with the mask kernel.
//! [`JoinKernel::gather`] then gathers the output columns by row id from the probe
//! batch and the build's columns. No `Row`, key vector or hash of a `Value` is made
//! per build, probe or output row of an int key; the aggregate above reads the
//! gathered columns in place. The streaming step (`chain.rs`) drives both calls
//! through the same emit loop as an index nested-loop join; the engine's build
//! sink keeps the build, its breaker event and its memory accounting.
//!
//! A hash build whose grant is denied goes out of core through [`GraceJoin`],
//! grace-hash partitioning that the engine drives in one order: write the build
//! rows, seal, write the probe rows, seal, then load each partition block into a
//! join table and probe it with the same kernel. The spill files hold rows: a
//! column batch is encoded row by row straight from its columns
//! ([`SpillWriter::write_columns`], the bytes its decoded rows would spill), and a
//! block is read back into columns of the side's declared types
//! ([`SpillReader::push_row`]): ints native, text as codes of the run's dictionary.

use crate::error::ExecError;
use crate::exec::{key_index, Batch, BreakerKind, JoinRows};
use crate::index_nl::{collect, Cursor, PairColumns, Pairs};
use crate::spill::{spill_err, Reservation, SpillStats};
use reopt_expr::MaskCache;
use reopt_planner::{PhysicalPlan, PlanKind};
use reopt_storage::spill_file::{SpillDir, SpillReader, SpillRun, SpillWriter};
use reopt_storage::{
    ColumnBatch, ColumnData, DataType, Index, IndexKind, Row, RowId, Schema, Value, NULL_CODE,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Fan-out of one grace-hash partitioning pass (and of recursive repartitioning).
const SPILL_FANOUT: usize = 8;

/// Maximum grace-hash recursion depth. A partition that still exceeds its grant
/// this deep is dominated by one join key, which repartitioning can never split: it
/// joins by block nested loop instead of recursing forever.
const SPILL_MAX_DEPTH: u32 = 6;

/// The build side of a hash or nested-loop join.
pub(crate) struct JoinTable {
    /// Build-side key columns (none for a nested-loop join).
    keys: Vec<usize>,
    /// The build row's column types (a row batch converts at their count).
    types: Vec<DataType>,
    /// Every build row, in insertion order.
    cols: ColumnBatch,
    /// How a probe row finds its candidates; no candidates until sealed.
    lookup: Lookup,
}

/// How a probe row finds its candidate build rows.
enum Lookup {
    /// Every listed row is every probe row's candidate: the whole build of a
    /// nested-loop join, and nothing before a table is sealed.
    Cross(Vec<RowId>),
    /// The rows whose first key equals the probe row's (NULL keys left out).
    Index(Index),
}

impl JoinTable {
    fn new(keys: Vec<usize>, types: Vec<DataType>) -> Self {
        Self {
            keys,
            cols: ColumnBatch::from_rows(Vec::new(), types.len()),
            types,
            lookup: Lookup::Cross(Vec::new()),
        }
    }

    /// The build-side key columns.
    pub(crate) fn keys(&self) -> &[usize] {
        &self.keys
    }

    pub(crate) fn len(&self) -> usize {
        self.cols.len()
    }

    /// Append a batch of build rows. A column batch is kept in its encodings (scan
    /// batches of one table share its dictionaries, so they append natively).
    pub(crate) fn append(&mut self, batch: Batch) {
        let batch = batch.into_columns(self.types.len());
        if self.cols.is_empty() {
            self.cols = batch;
        } else {
            self.cols.append(batch);
        }
    }

    /// Index the completed build: the first key column, or (zero keys) every row.
    pub(crate) fn seal(&mut self) {
        self.lookup = match self.keys.first() {
            Some(&key) => Lookup::Index(Index::from_column(
                IndexKind::Hash,
                "join",
                key,
                self.cols.column(key),
            )),
            None => Lookup::Cross((0..self.len()).collect()),
        };
    }

    /// How a sealed table finds a probe row's candidates, as EXPLAIN ANALYZE names
    /// it: `"int"` (the CSR form over an int key column), `"map"` (any other key
    /// column) or `"cross"` (a nested-loop join: every build row).
    pub(crate) fn form(&self) -> &'static str {
        match &self.lookup {
            Lookup::Cross(_) => "cross",
            Lookup::Index(index) if index.is_int_keyed() => "int",
            Lookup::Index(_) => "map",
        }
    }

    /// Empty the table.
    pub(crate) fn clear(&mut self) {
        self.take();
    }

    /// The build rows, decoded, in insertion order.
    pub(crate) fn to_rows(&self) -> Vec<Row> {
        (0..self.len()).map(|row| self.cols.row(row)).collect()
    }

    /// Empty the table, returning its rows in insertion order.
    pub(crate) fn take(&mut self) -> ColumnBatch {
        let cols = std::mem::replace(
            &mut self.cols,
            ColumnBatch::from_rows(Vec::new(), self.types.len()),
        );
        self.lookup = Lookup::Cross(Vec::new());
        cols
    }

    /// Empty the table, returning its rows (decoded) in insertion order.
    pub(crate) fn take_rows(&mut self) -> Vec<Row> {
        self.take().into_rows()
    }
}

/// One hash or nested-loop join node, compiled for the kernel. Shared read-only by
/// every worker of the morsel engine; callers own their probe batches, cursors and
/// pairs.
pub(crate) struct JoinKernel {
    /// The breaker the build side completes: a hash build or a nested-loop inner.
    pub(crate) kind: BreakerKind,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    /// The column types of a probe and of a build row (row batches convert at
    /// their counts, spilled rows read back into them).
    probe_types: Vec<DataType>,
    build_types: Vec<DataType>,
    /// The residual (a nested-loop join's predicate) and the output, gathered from
    /// the probe batch and the build's columns.
    columns: PairColumns,
}

impl JoinKernel {
    /// Compile a `HashJoin` or `NestedLoopJoin` node (probe or outer side first).
    pub(crate) fn new(plan: &PhysicalPlan) -> Result<Self, ExecError> {
        let (kind, keys, residual) = match &plan.kind {
            PlanKind::HashJoin { keys, residual } => (BreakerKind::HashBuild, &keys[..], residual),
            PlanKind::NestedLoopJoin { predicate } => {
                (BreakerKind::NestedLoopInner, &[][..], predicate)
            }
            _ => {
                return Err(ExecError::InvalidPlan(
                    "expected a hash or nested-loop join".into(),
                ))
            }
        };
        let [probe, build] = &plan.children[..] else {
            return Err(ExecError::InvalidPlan("a join has two children".into()));
        };
        let rows = JoinRows::new(
            &probe.schema,
            &build.schema,
            &plan.schema,
            residual.as_ref(),
        )?;
        Ok(Self {
            kind,
            probe_keys: keys
                .iter()
                .map(|(column, _)| key_index(&probe.schema, column))
                .collect::<Result<_, _>>()?,
            build_keys: keys
                .iter()
                .map(|(_, column)| key_index(&build.schema, column))
                .collect::<Result<_, _>>()?,
            probe_types: column_types(&probe.schema),
            build_types: column_types(&build.schema),
            columns: PairColumns::new(&rows, |pos| pos),
        })
    }

    /// An empty build table keyed on this join's build-side keys.
    pub(crate) fn table(&self) -> JoinTable {
        JoinTable::new(self.build_keys.clone(), self.build_types.clone())
    }

    /// The probe-side key columns.
    pub(crate) fn probe_keys(&self) -> &[usize] {
        &self.probe_keys
    }

    /// A probe batch in column form (a row batch converts to exact-value columns).
    pub(crate) fn probe_columns(&self, batch: Batch) -> ColumnBatch {
        batch.into_columns(self.probe_types.len())
    }

    /// Probe `probe` from `cursor` on against `table`: collect a chunk of candidates
    /// (or the rest of the batch), keep those whose further keys match and that pass
    /// the residual, and append them to `pairs`. Pairs come in probe-row order and,
    /// within a row, in ascending build row.
    pub(crate) fn probe(
        &self,
        table: &JoinTable,
        probe: &ColumnBatch,
        cursor: &mut Cursor,
        pairs: &mut Pairs,
        cache: &mut MaskCache,
    ) -> Result<(), ExecError> {
        let start = pairs.len();
        let len = probe.len();
        match (&table.lookup, self.probe_keys.first()) {
            (Lookup::Index(index), Some(&key)) => match probe.column(key) {
                ColumnData::Int { values, validity } => collect(len, cursor, pairs, |pos| {
                    if validity.get(pos) {
                        index.lookup_int(values[pos])
                    } else {
                        &[]
                    }
                }),
                keys => collect(len, cursor, pairs, |pos| index.lookup(&keys.value_at(pos))),
            },
            (Lookup::Cross(rows), _) => collect(len, cursor, pairs, |_| rows),
            // Only a keyed join's table is indexed.
            (Lookup::Index(_), None) => cursor.outer = len,
        }
        let further = self.probe_keys.iter().zip(&self.build_keys).skip(1);
        if start < pairs.len() && further.len() > 0 {
            let keep: Vec<bool> = pairs
                .iter_from(start)
                .map(|(at, row)| {
                    further
                        .clone()
                        .all(|(&p, &b)| keys_equal(probe.column(p), at, table.cols.column(b), row))
                })
                .collect();
            pairs.retain_from(start, &keep);
        }
        if start < pairs.len() {
            let residual =
                self.columns
                    .residual_mask(table.cols.columns(), probe, pairs, start, cache)?;
            if let Some(keep) = residual {
                pairs.retain_from(start, &keep);
            }
        }
        Ok(())
    }

    /// The output batch of the pairs in `range`.
    pub(crate) fn gather(
        &self,
        table: &JoinTable,
        probe: &ColumnBatch,
        pairs: &Pairs,
        range: Range<usize>,
    ) -> ColumnBatch {
        self.columns
            .gather(table.cols.columns(), probe, pairs, range)
    }
}

fn column_types(schema: &Schema) -> Vec<DataType> {
    schema
        .columns()
        .iter()
        .map(|column| column.data_type())
        .collect()
}

/// Whether the key at `a[i]` joins the key at `b[j]`: both non-NULL and equal by
/// [`Value::total_cmp`]. Native ints and codes of one dictionary compare in place.
fn keys_equal(a: &ColumnData, i: usize, b: &ColumnData, j: usize) -> bool {
    match (a, b) {
        (
            ColumnData::Int { values, validity },
            ColumnData::Int {
                values: other,
                validity: other_validity,
            },
        ) => validity.get(i) && other_validity.get(j) && values[i] == other[j],
        (
            ColumnData::Dict { codes, dict },
            ColumnData::Dict {
                codes: other,
                dict: other_dict,
            },
        ) if Arc::ptr_eq(dict, other_dict) => codes[i] != NULL_CODE && codes[i] == other[j],
        _ => a.value_at(i).sql_eq(&b.value_at(j)) == Some(true),
    }
}

/// Grace-hash state of a join whose build exceeded its memory grant. Build and probe
/// rows hash-partition into on-disk runs ([`SPILL_FANOUT`] per pass, salted by
/// recursion depth); partitions are then joined one pair at a time by loading the
/// build run into the join table, repartitioning a partition that still exceeds the
/// grant. At [`SPILL_MAX_DEPTH`] a partition is joined by block nested loop instead:
/// one grant-sized build block at a time, re-scanning the partition's probe run per
/// block. Dropping the state removes every file.
pub(crate) struct GraceJoin {
    /// Build-input rows seen (NULL-key rows included), for the breaker event.
    pub(crate) input_rows: u64,
    /// Open partition writers of the side being written: the build side, then
    /// (once it is sealed) the probe side.
    writers: Vec<SpillWriter>,
    /// Sealed build runs awaiting their probe counterparts.
    build_runs: Vec<SpillRun>,
    /// `(build, probe, depth)` partition pairs still to join.
    pending: VecDeque<(SpillRun, SpillRun, u32)>,
    /// The build block in the join table, and the scan of its probe run.
    loaded: Option<LoadedBlock>,
    stats: Arc<SpillStats>,
    dir: SpillDir,
}

/// Rows read back from a spill run into columns of their declared types, decoded
/// in place ([`SpillReader::push_row`]): ints stay native and text stays codes of
/// the run's dictionary. A value of another type turns its column into exact
/// values, as in a table.
struct Block {
    columns: Vec<ColumnData>,
    rows: usize,
}

impl Block {
    /// Empty columns of `types`; text columns share `run`'s dictionary.
    fn new(types: &[DataType], run: &SpillRun) -> Self {
        let column = |data_type| match data_type {
            DataType::Text => ColumnData::Dict {
                codes: Vec::new(),
                dict: Arc::clone(run.dict()),
            },
            data_type => ColumnData::new_for(data_type),
        };
        Self {
            columns: types.iter().copied().map(column).collect(),
            rows: 0,
        }
    }

    /// Append the row `reader` has read.
    fn push(&mut self, reader: &SpillReader) -> Result<(), ExecError> {
        reader.push_row(&mut self.columns).map_err(spill_err)?;
        self.rows += 1;
        Ok(())
    }

    fn finish(self) -> ColumnBatch {
        ColumnBatch::new(self.columns, self.rows)
    }
}

/// A build block of one partition pair, loaded into the join table, with the scan of
/// the pair's probe run. The runs are kept alive beside the reader: dropping a run
/// deletes its file.
struct LoadedBlock {
    build: SpillRun,
    /// The build-run row the next block starts at (the run's row count once the
    /// whole partition is loaded).
    next: u64,
    depth: u32,
    probe: SpillRun,
    reader: SpillReader,
}

/// One open run writer per grace-hash partition.
fn spill_writers(dir: &SpillDir) -> Result<Vec<SpillWriter>, ExecError> {
    (0..SPILL_FANOUT)
        .map(|_| SpillWriter::create(dir).map_err(spill_err))
        .collect()
}

/// The grace-hash partition of a join key, or `None` when a key value is NULL (NULL
/// never joins under equi-join semantics): deterministic (SipHash with fixed keys
/// over the key values), salted by recursion depth so each repartitioning pass
/// splits differently.
fn spill_partition<'v>(salt: u32, key: impl IntoIterator<Item = &'v Value>) -> Option<usize> {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    salt.hash(&mut hasher);
    for value in key {
        if value.is_null() {
            return None;
        }
        value.hash(&mut hasher);
    }
    Some((hasher.finish() as usize) % SPILL_FANOUT)
}

/// Write `row` to the partition among `writers` of its `keys` columns (nowhere for a
/// NULL key).
fn write_partitioned(
    writers: &mut [SpillWriter],
    salt: u32,
    row: &[Value],
    keys: &[usize],
) -> Result<(), ExecError> {
    match spill_partition(salt, keys.iter().map(|&key| &row[key])) {
        Some(partition) => writers[partition].write_row(row).map_err(spill_err),
        None => Ok(()),
    }
}

impl GraceJoin {
    /// Empty build partitions.
    pub(crate) fn new(stats: Arc<SpillStats>) -> Result<Self, ExecError> {
        let dir = SpillDir::create().map_err(spill_err)?;
        Ok(Self {
            input_rows: 0,
            writers: spill_writers(&dir)?,
            build_runs: Vec::new(),
            pending: VecDeque::new(),
            loaded: None,
            stats,
            dir,
        })
    }

    /// Write build rows to their partitions. NULL-key rows count as input but never
    /// join, and a spilled build is not a reusable materialization, so they go.
    pub(crate) fn write_build(&mut self, batch: Batch, keys: &[usize]) -> Result<(), ExecError> {
        self.input_rows += batch.len() as u64;
        self.write(batch, keys)
    }

    /// Write rows of the side being written (the probe side once the build is
    /// sealed) to their partitions. A column batch's rows are written from their
    /// columns: only the key values are decoded, to pick the partition.
    pub(crate) fn write(&mut self, batch: Batch, keys: &[usize]) -> Result<(), ExecError> {
        match batch {
            Batch::Rows(rows) => {
                for row in &rows {
                    write_partitioned(&mut self.writers, 0, row.values(), keys)?;
                }
            }
            Batch::Cols(cols) => {
                let mut key = Vec::with_capacity(keys.len());
                for row in 0..cols.len() {
                    key.clear();
                    key.extend(keys.iter().map(|&column| cols.column(column).value_at(row)));
                    if let Some(partition) = spill_partition(0, &key) {
                        self.writers[partition]
                            .write_columns(cols.columns(), row)
                            .map_err(spill_err)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Seal the build partitions and open the probe side's.
    pub(crate) fn seal_build(&mut self) -> Result<(), ExecError> {
        let probe_writers = spill_writers(&self.dir)?;
        for writer in std::mem::replace(&mut self.writers, probe_writers) {
            let run = writer.finish().map_err(spill_err)?;
            self.stats.record(&run);
            self.build_runs.push(run);
        }
        Ok(())
    }

    /// Seal the probe partitions, pairing each with its build counterpart. Empty
    /// pairs are skipped outright.
    pub(crate) fn seal_probe(&mut self) -> Result<(), ExecError> {
        for (build_run, writer) in self.build_runs.drain(..).zip(self.writers.drain(..)) {
            let probe_run = writer.finish().map_err(spill_err)?;
            self.stats.record(&probe_run);
            if build_run.rows() > 0 && probe_run.rows() > 0 {
                self.pending.push_back((build_run, probe_run, 0));
            }
        }
        Ok(())
    }

    /// The next probe rows (at most `batch_size`) of the block loaded in `table`,
    /// as columns, loading the next build block or partition pair when a
    /// probe run is drained. `None` once every partition is joined; `table` is then
    /// empty and the grant released.
    pub(crate) fn next_probe_batch(
        &mut self,
        kernel: &JoinKernel,
        table: &mut JoinTable,
        reservation: &mut Reservation,
        batch_size: usize,
    ) -> Result<Option<ColumnBatch>, ExecError> {
        let probe_keys = kernel.probe_keys();
        loop {
            if let Some(mut loaded) = self.loaded.take() {
                let mut block = Block::new(&kernel.probe_types, &loaded.probe);
                while block.rows < batch_size && loaded.reader.advance().map_err(spill_err)? {
                    block.push(&loaded.reader)?;
                }
                if block.rows > 0 {
                    self.loaded = Some(loaded);
                    return Ok(Some(block.finish()));
                }
                // The probe run is drained: a block-nested-loop partition re-scans it
                // against its next build block.
                if loaded.next < loaded.build.rows() {
                    let pair = (loaded.build, loaded.probe, loaded.depth);
                    self.load(table, reservation, probe_keys, pair, loaded.next)?;
                    continue;
                }
            }
            let Some(pair) = self.pending.pop_front() else {
                table.clear();
                reservation.release_all();
                return Ok(None);
            };
            self.load(table, reservation, probe_keys, pair, 0)?;
        }
    }

    /// Load build rows `start..` of a partition pair into the join table, as many as
    /// the grant allows, seal it, and open a scan of its probe run. A partition that
    /// exceeds the grant is repartitioned with a deeper salt instead (back onto
    /// `pending`); at [`SPILL_MAX_DEPTH`] it loads as one block of a block nested
    /// loop, whose first row loads even when its grant is denied — a bounded
    /// overcommit of one row that guarantees progress when enclosing operators hold
    /// the budget. A partition of one row wider than the whole budget fails at once:
    /// no repartitioning can split it.
    fn load(
        &mut self,
        table: &mut JoinTable,
        reservation: &mut Reservation,
        probe_keys: &[usize],
        (build, probe, depth): (SpillRun, SpillRun, u32),
        start: u64,
    ) -> Result<(), ExecError> {
        table.clear();
        reservation.release_all();
        let mut reader = build.read().map_err(spill_err)?;
        let mut block = Block::new(&table.types, &build);
        let mut next = 0u64;
        while reader.advance().map_err(spill_err)? {
            if next < start {
                next += 1;
                continue;
            }
            let width = reader.row_width().map_err(spill_err)?;
            if !reservation.grow(width as u64) {
                let budget = reservation.governor().budget().unwrap_or(u64::MAX);
                if build.rows() == 1 && width as u64 > budget {
                    return Err(ExecError::Spill(format!(
                        "grace-hash build row of {width} bytes exceeds the memory budget of \
                         {budget} bytes; repartitioning cannot split a single row",
                    )));
                }
                if depth < SPILL_MAX_DEPTH {
                    drop(reader);
                    reservation.release_all();
                    return self.repartition(table.keys(), probe_keys, build, probe, depth);
                }
                if block.rows > 0 {
                    break;
                }
            }
            block.push(&reader)?;
            next += 1;
        }
        drop(reader);
        table.append(Batch::Cols(block.finish()));
        table.seal();
        let reader = probe.read().map_err(spill_err)?;
        self.loaded = Some(LoadedBlock {
            build,
            next,
            depth,
            probe,
            reader,
        });
        Ok(())
    }

    /// Split an over-budget partition pair into [`SPILL_FANOUT`] sub-pairs using a
    /// deeper salt, queueing the non-empty ones at `depth + 1`.
    fn repartition(
        &mut self,
        build_keys: &[usize],
        probe_keys: &[usize],
        build: SpillRun,
        probe: SpillRun,
        depth: u32,
    ) -> Result<(), ExecError> {
        let salt = depth + 1;
        let mut sides = [spill_writers(&self.dir)?, spill_writers(&self.dir)?];
        let keys = [build_keys, probe_keys];
        let mut row = Vec::new();
        for (side, source) in [&build, &probe].into_iter().enumerate() {
            let mut reader = source.read().map_err(spill_err)?;
            while reader.next_row_into(&mut row).map_err(spill_err)? {
                write_partitioned(&mut sides[side], salt, &row, keys[side])?;
            }
        }
        let [build_writers, probe_writers] = sides;
        for (build_writer, probe_writer) in build_writers.into_iter().zip(probe_writers) {
            let sub_build = build_writer.finish().map_err(spill_err)?;
            let sub_probe = probe_writer.finish().map_err(spill_err)?;
            self.stats.record(&sub_build);
            self.stats.record(&sub_probe);
            if sub_build.rows() > 0 && sub_probe.rows() > 0 {
                self.pending.push_back((sub_build, sub_probe, salt));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The kernel against brute force: a nested loop over the two row lists, with the
    //! key comparison and the residual written as Rust closures, so nothing here
    //! shares code with the kernel it checks. The kernel runs through the streaming
    //! step (`chain.rs`), whose emit loop batches its pairs.

    use super::*;
    use crate::chain::{Built, Events, Step};
    use crate::exec::{ExecConfig, ExecEvent, Executor};
    use reopt_expr::{BinaryOp, ColumnRef, Expr};
    use reopt_planner::cost::Cost;
    use reopt_planner::RelSet;
    use reopt_storage::{Column, DataType, Schema, Storage, Table};

    type PairTest = fn(&Row, &Row) -> bool;

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

    /// Both sides' columns: `k` dense ints, `s` ints spread over ±2^40, `f` floats,
    /// `t` text, `k2` a second int key, `v` a payload.
    const COLUMNS: [(&str, DataType); 6] = [
        ("k", DataType::Int),
        ("s", DataType::Int),
        ("f", DataType::Float),
        ("t", DataType::Text),
        ("k2", DataType::Int),
        ("v", DataType::Int),
    ];
    const T: usize = 3;
    const V: usize = 5;

    const SPARSE: [i64; 7] = [-(1 << 35), -7, 3, 5, 1 << 33, 1 << 40, 3];

    fn row(
        k: Option<i64>,
        s: Option<i64>,
        f: Option<f64>,
        t: Option<&str>,
        k2: Option<i64>,
        v: i64,
    ) -> Row {
        Row::from_values(vec![
            Value::from(k),
            Value::from(s),
            f.map_or(Value::Null, Value::Float),
            t.map_or(Value::Null, Value::from),
            Value::from(k2),
            Value::Int(v),
        ])
    }

    /// Sixty varied rows, NULL keys among them: `k` spans -5..=20 (the direct CSR
    /// form), `s` the sparse keys (the binary-search form). Then 1 100 rows of key
    /// 99, whose probe rows' matches span several output batches and more than one
    /// probe chunk.
    fn build_rows() -> Vec<Row> {
        let mut rows: Vec<Row> = (0..60i64)
            .map(|i| {
                let u = i as usize;
                row(
                    (i % 11 != 4).then_some(i % 26 - 5),
                    (i % 13 != 6).then_some(SPARSE[u % 7]),
                    (i % 9 != 0).then_some(i as f64 / 2.0),
                    [Some("a"), Some("b"), None, Some("c")][u % 4],
                    (i % 5 != 2).then_some(i % 3),
                    i,
                )
            })
            .collect();
        rows.extend(
            (0..1100).map(|i| row(Some(99), Some(99), None, Some("fan"), Some(1), 1000 + i)),
        );
        rows
    }

    /// Probe rows: absent, NULL, fan-out and beyond-`i32` keys in every key column;
    /// floats that equal an int key (`2.0`, `0.0`, `5.0`, `99.0`) and one that does
    /// not (`-0.0` is not `0`).
    fn probe_rows() -> Vec<Row> {
        let dense = [5, -3, 99, 0, 20, 2, 1000].map(Some);
        let sparse = [
            Some(5),
            Some(1 << 40),
            Some(-(1 << 35)),
            None,
            Some(3),
            Some(99),
        ];
        let floats = [2.0, -0.0, 2.5, 5.0, 0.0, 99.0].map(Some);
        let texts = [
            Some("a"),
            Some("c"),
            None,
            Some("zz"),
            Some("fan"),
            Some("b"),
        ];
        (0..28i64)
            .map(|i| {
                let u = i as usize;
                row(
                    if u % 9 == 1 { None } else { dense[u % 7] },
                    sparse[u % 6],
                    if u % 8 == 3 { None } else { floats[u % 6] },
                    texts[u % 6],
                    [Some(0), Some(2), None, Some(1)][u % 4],
                    i * 3,
                )
            })
            .collect()
    }

    fn schema(alias: &str) -> Schema {
        Schema::new(COLUMNS.iter().map(|&(c, t)| Column::new(c, t)).collect()).qualified(alias)
    }

    fn side(alias: &str, rel: usize) -> PhysicalPlan {
        PhysicalPlan {
            kind: PlanKind::SeqScan {
                rel,
                alias: alias.into(),
                table: alias.into(),
                predicate: None,
            },
            children: Vec::new(),
            schema: schema(alias),
            estimated_rows: 1.0,
            cost: Cost::ZERO,
            rel_set: RelSet::from_indexes([rel]),
        }
    }

    /// A join of `p` (probe / outer) with `b` (build / inner) on `keys` (none: a
    /// nested-loop join, whose predicate is `residual`), outputting
    /// `p.v, b.t, b.v, p.f`.
    fn plan(keys: &[(&str, &str)], residual: Option<Expr>) -> PhysicalPlan {
        let (p, b) = (side("p", 0), side("b", 1));
        let both = p.schema.join(&b.schema);
        let schema = both.project(&[V, 6 + T, 6 + V, 2]);
        let kind = if keys.is_empty() {
            PlanKind::NestedLoopJoin {
                predicate: residual,
            }
        } else {
            PlanKind::HashJoin {
                keys: keys
                    .iter()
                    .map(|&(p, b)| (ColumnRef::qualified("p", p), ColumnRef::qualified("b", b)))
                    .collect(),
                residual,
            }
        };
        PhysicalPlan {
            kind,
            children: vec![p, b],
            schema,
            estimated_rows: 1.0,
            cost: Cost::ZERO,
            rel_set: RelSet::from_indexes([0, 1]),
        }
    }

    /// Pairs in probe order, then build order, whose key columns are all non-NULL
    /// and equal and that pass `residual`.
    fn brute_force(
        probe: &[Row],
        build: &[Row],
        keys: &[(usize, usize)],
        residual: Option<PairTest>,
    ) -> Vec<Row> {
        let mut out = Vec::new();
        for p in probe {
            for b in build {
                let keys_match = keys.iter().all(|&(pk, bk)| {
                    !p.value(pk).is_null() && !b.value(bk).is_null() && p.value(pk) == b.value(bk)
                });
                if keys_match && residual.map_or(true, |test| test(p, b)) {
                    out.push(Row::from_values(vec![
                        p.value(V).clone(),
                        b.value(T).clone(),
                        b.value(V).clone(),
                        p.value(2).clone(),
                    ]));
                }
            }
        }
        out
    }

    /// How a side's batches are fed: as native column batches, as row batches, or
    /// alternately.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        Cols,
        Rows,
        Mixed,
    }

    /// `rows` in batches of `len`, shaped by `feed`. A column batch holds native
    /// encodings, with a dictionary of its own per batch.
    fn batches(rows: &[Row], len: usize, feed: Feed) -> Vec<Batch> {
        rows.chunks(len)
            .enumerate()
            .map(|(at, chunk)| match (feed, at % 2) {
                (Feed::Rows, _) | (Feed::Mixed, 1) => Batch::Rows(chunk.to_vec()),
                (Feed::Cols, _) | (Feed::Mixed, _) => {
                    let mut columns: Vec<ColumnData> = COLUMNS
                        .iter()
                        .map(|&(_, t)| ColumnData::new_for(t))
                        .collect();
                    for row in chunk {
                        for (column, value) in columns.iter_mut().zip(row.values()) {
                            column.push(value.clone());
                        }
                    }
                    Batch::Cols(ColumnBatch::new(columns, chunk.len()))
                }
            })
            .collect()
    }

    /// A sealed table of `build`, fed in batches of 100.
    fn table(kernel: &JoinKernel, build: &[Row], feed: Feed) -> JoinTable {
        let mut table = kernel.table();
        for batch in batches(build, 100, feed) {
            table.append(batch);
        }
        table.seal();
        table
    }

    /// Join `probe` (fed in batches of five) against a table built from `build`
    /// through the streaming step, at output batches of `batch_size` rows.
    fn run(
        plan: &PhysicalPlan,
        probe: &[Row],
        build: &[Row],
        batch_size: usize,
        feed: Feed,
    ) -> Vec<Vec<Row>> {
        let config = ExecConfig {
            batch_size,
            ..ExecConfig::default()
        };
        let stats = Arc::default();
        let mut step = Step::new(plan, &Storage::new(), &config, &stats)
            .unwrap()
            .unwrap();
        let kernel = JoinKernel::new(plan).unwrap();
        step.install(
            Built::Table(Arc::new(table(&kernel, build, feed))),
            config.governor.reservation(),
        );
        let mut state = step.state();
        let mut out = Vec::new();
        for batch in batches(probe, 5, feed) {
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
        out
    }

    #[test]
    fn kernel_matches_a_brute_force_nested_loop() {
        let (probe, build) = (probe_rows(), build_rows());
        let covered = || Expr::binary(BinaryOp::Gt, Expr::col("b", "v"), Expr::lit(30i64));
        let covered_test: PairTest = |_, b| b.value(V).as_int() > Some(30);
        // Comparing two columns has no mask kernel: it runs row-wise.
        let declined = || Expr::binary(BinaryOp::Gt, Expr::col("b", "v"), Expr::col("p", "v"));
        let declined_test: PairTest = |p, b| b.value(V).as_int() > p.value(V).as_int();
        // (name, key columns, residual, the table's form)
        type Case = (
            &'static str,
            &'static [(&'static str, &'static str)],
            Option<(fn() -> Expr, PairTest)>,
            &'static str,
        );
        let cases: Vec<Case> = vec![
            ("dense int key", &[("k", "k")], None, "int"),
            ("sparse int key", &[("s", "s")], None, "int"),
            (
                "float probe key against an int build",
                &[("f", "k")],
                None,
                "int",
            ),
            ("text key", &[("t", "t")], None, "map"),
            (
                "two keys, NULL in the second",
                &[("k", "k"), ("k2", "k2")],
                None,
                "int",
            ),
            (
                "one key and a covered residual",
                &[("k", "k")],
                Some((covered, covered_test)),
                "int",
            ),
            (
                "one key and a declined residual",
                &[("k", "k")],
                Some((declined, declined_test)),
                "int",
            ),
            ("zero keys (nested loop)", &[], None, "cross"),
            (
                "zero keys and a residual",
                &[],
                Some((declined, declined_test)),
                "cross",
            ),
        ];
        let column = |name: &str| COLUMNS.iter().position(|&(c, _)| c == name).unwrap();
        for (name, keys, residual, form) in cases {
            let plan = plan(keys, residual.map(|(expr, _)| expr()));
            let test = residual.map(|(_, test)| test);
            let key_columns: Vec<(usize, usize)> =
                keys.iter().map(|&(p, b)| (column(p), column(b))).collect();
            let kernel = JoinKernel::new(&plan).unwrap();
            let kind = if keys.is_empty() {
                BreakerKind::NestedLoopInner
            } else {
                BreakerKind::HashBuild
            };
            assert_eq!(kernel.kind, kind, "{name}");
            for feed in [Feed::Cols, Feed::Rows, Feed::Mixed] {
                let label = format!("{name}, {feed:?}");
                // Every build row comes back, NULL keys included, in insertion order.
                let mut sealed = table(&kernel, &build, feed);
                assert_eq!(sealed.form(), form, "{label}");
                assert_eq!(sealed.take_rows(), build, "{label}");
                assert_eq!((sealed.len(), sealed.form()), (0, "cross"), "{label}");
                for (probe, build) in [
                    (&probe[..], &build[..]),
                    (&[][..], &build[..]),
                    (&probe[..], &[][..]),
                ] {
                    let expected = brute_force(probe, build, &key_columns, test);
                    if !probe.is_empty() && !build.is_empty() {
                        assert!(
                            expected.len() > 1100,
                            "{label}: the case joins a fan-out row"
                        );
                    }
                    for batch_size in [1, 7, 1024] {
                        let label = format!("{label}, batch {batch_size}");
                        let batches = run(&plan, probe, build, batch_size, feed);
                        let (last, full) = batches
                            .split_last()
                            .map_or((0, &[][..]), |(last, full)| (last.len(), full));
                        assert!(
                            full.iter().all(|batch| batch.len() == batch_size),
                            "{label}"
                        );
                        assert!(last <= batch_size, "{label}");
                        assert_eq!(batches.concat(), expected, "{label}");
                    }
                }
            }
        }
        // The float key's equality is `Value::total_cmp`: `2.0` and `0.0` join the
        // int keys 2 and 0, `-0.0` joins nothing.
        let plan = plan(&[("f", "k")], None);
        let out = run(&plan, &probe, &build, 1024, Feed::Cols).concat();
        // `Value` equality is `total_cmp` too, so `-0.0` and `0.0` count apart.
        let joined = |f: f64| {
            out.iter()
                .filter(|row| row.value(3) == &Value::Float(f))
                .count()
        };
        assert!(joined(2.0) > 0 && joined(0.0) > 0);
        assert_eq!(joined(-0.0), 0);
    }

    /// A stored table holding `rows` under the join's side schema.
    fn stored(name: &str, rows: Vec<Row>) -> Table {
        let mut table = Table::new(
            name,
            Schema::new(COLUMNS.iter().map(|&(c, t)| Column::new(c, t)).collect()),
        );
        for row in rows {
            table.push_row(row).unwrap();
        }
        table
    }

    #[test]
    fn explain_analyze_names_the_build_form() {
        let mut storage = Storage::new();
        storage.create_table(stored("p", probe_rows())).unwrap();
        storage.create_table(stored("b", build_rows())).unwrap();
        for (keys, form) in [
            (&[("k", "k")][..], "int"),
            (&[("t", "t")][..], "map"),
            (&[][..], "cross"),
        ] {
            let plan = plan(keys, None);
            for threads in [1, 2] {
                let result = Executor::new(&storage)
                    .with_threads(threads)
                    .execute(&plan)
                    .unwrap();
                let root = &result.metrics.root;
                assert_eq!(
                    root.metrics.probe,
                    Some(form),
                    "{keys:?} at {threads} thread(s)"
                );
                assert!(
                    root.render().contains(&format!(" probe={form} ")),
                    "{keys:?}"
                );
            }
        }
    }
}
