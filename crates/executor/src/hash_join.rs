//! The hash join kernel of both engines; a plain nested-loop join is its zero-key case.
//!
//! A [`JoinTable`] holds a join's build side: every build row in insertion order, and
//! a map from join key to the indices of the rows carrying it. A row with a NULL key
//! column never joins under equi-join semantics, so it stays out of the map, but it
//! stays in the rows: a completed build surrendered as a breaker state is the whole
//! build input.
//!
//! A nested-loop join is a join on zero keys. Every row's key is `[]`, so the one
//! bucket holds the whole inner side in insertion order, every outer row pairs with
//! all of it, and the join predicate runs as the residual.
//!
//! [`JoinKernel::probe`] is the one probe loop. It resumes a [`ProbeBatch`] at its
//! cursor (probe row, match position), so a probe row whose matches overflow one
//! output batch continues in the next, and assembles output rows through
//! [`JoinRows`]. The one probe step of both engines (`chain.rs`) calls it; each
//! engine keeps its own build, breaker events and memory accounting.
//!
//! A hash build whose grant is denied goes out of core through [`GraceJoin`],
//! grace-hash partitioning that both engines drive the same way: write the build
//! rows, seal, write the probe rows, seal, then probe each loaded partition block
//! with the same probe loop.

use crate::error::ExecError;
use crate::exec::{key_index, Batch, BreakerKind, JoinRows};
use crate::spill::{spill_err, Reservation, SpillStats};
use reopt_planner::{PhysicalPlan, PlanKind};
use reopt_storage::spill_file::{SpillDir, SpillReader, SpillRun, SpillWriter};
use reopt_storage::{Row, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Fan-out of one grace-hash partitioning pass (and of recursive repartitioning).
const SPILL_FANOUT: usize = 8;

/// Maximum grace-hash recursion depth. A partition that still exceeds its grant
/// this deep is dominated by one join key, which repartitioning can never split: it
/// joins by block nested loop instead of recursing forever.
const SPILL_MAX_DEPTH: u32 = 6;

/// The build side of a hash or nested-loop join.
#[derive(Default)]
pub(crate) struct JoinTable {
    /// Build-side key columns (none for a nested-loop join).
    keys: Vec<usize>,
    /// Every build row, in insertion order.
    rows: Vec<Row>,
    /// Join key → ascending indices into `rows`.
    map: HashMap<Vec<Value>, Vec<usize>>,
}

impl JoinTable {
    /// The build-side key columns.
    pub(crate) fn keys(&self) -> &[usize] {
        &self.keys
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The build rows, in insertion order.
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn push(&mut self, row: Row) {
        if let Some(key) = extract_key(&row, &self.keys) {
            self.map.entry(key).or_default().push(self.rows.len());
        }
        self.rows.push(row);
    }

    /// Empty the table, returning its rows in insertion order.
    pub(crate) fn take_rows(&mut self) -> Vec<Row> {
        self.map.clear();
        std::mem::take(&mut self.rows)
    }
}

/// One batch of probe rows with their join keys (`None` for a NULL key), and the
/// cursor of [`JoinKernel::probe`] in it.
#[derive(Default)]
pub(crate) struct ProbeBatch {
    rows: Vec<Row>,
    keys: Vec<Option<Vec<Value>>>,
    /// The next probe row.
    row: usize,
    /// How many of that row's matches were already visited.
    matched: usize,
}

/// One hash or nested-loop join node, compiled for the kernel. Shared read-only by
/// every worker of the morsel engine; callers own their probe batches.
pub(crate) struct JoinKernel {
    /// The breaker the build side completes: a hash build or a nested-loop inner.
    pub(crate) kind: BreakerKind,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    /// Output-row assembly; the residual (a nested-loop join's predicate) runs first.
    rows: JoinRows,
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
            rows: JoinRows::new(
                &probe.schema,
                &build.schema,
                &plan.schema,
                residual.as_ref(),
            )?,
        })
    }

    /// An empty build table keyed on this join's build-side keys.
    pub(crate) fn table(&self) -> JoinTable {
        JoinTable {
            keys: self.build_keys.clone(),
            ..JoinTable::default()
        }
    }

    /// The probe-side key columns.
    pub(crate) fn probe_keys(&self) -> &[usize] {
        &self.probe_keys
    }

    /// Decode a probe batch and extract its keys, with the cursor at its start. A
    /// column batch extracts them with the typed key kernel, before decoding.
    pub(crate) fn batch(&self, batch: Batch) -> ProbeBatch {
        let (rows, keys) = match batch {
            Batch::Cols(cols) => {
                let keys = cols.extract_keys(&self.probe_keys);
                (cols.into_rows(), keys)
            }
            Batch::Rows(rows) => {
                let keys = rows
                    .iter()
                    .map(|row| extract_key(row, &self.probe_keys))
                    .collect();
                (rows, keys)
            }
        };
        ProbeBatch {
            rows,
            keys,
            row: 0,
            matched: 0,
        }
    }

    /// Join `probe` from its cursor against `table`, pushing output rows onto `out`
    /// until it holds `cap` rows or every probe row is joined. Pairs come in probe-row
    /// order and, within a row, in build insertion order. `scratch` is any reusable
    /// row (the residual's compact row).
    pub(crate) fn probe(
        &self,
        table: &JoinTable,
        probe: &mut ProbeBatch,
        cap: usize,
        scratch: &mut Row,
        out: &mut Vec<Row>,
    ) -> Result<(), ExecError> {
        while probe.row < probe.rows.len() {
            let matches = match &probe.keys[probe.row] {
                Some(key) => table.map.get(key).map_or(&[][..], Vec::as_slice),
                None => &[],
            };
            let outer = probe.rows[probe.row].values();
            while probe.matched < matches.len() {
                if out.len() >= cap {
                    return Ok(());
                }
                let inner = table.rows[matches[probe.matched]].values();
                probe.matched += 1;
                out.extend(self.rows.join(outer, inner, scratch)?);
            }
            probe.row += 1;
            probe.matched = 0;
        }
        Ok(())
    }
}

/// Extract a join key from a row; `None` when any key column is NULL (NULL never
/// joins under equi-join semantics).
fn extract_key(row: &Row, columns: &[usize]) -> Option<Vec<Value>> {
    let mut key = Vec::with_capacity(columns.len());
    for &idx in columns {
        let value = row.value(idx);
        if value.is_null() {
            return None;
        }
        key.push(value.clone());
    }
    Some(key)
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

/// The grace-hash partition of a join key: deterministic (SipHash with fixed keys),
/// salted by recursion depth so each repartitioning pass splits differently, and
/// independent of the `RandomState`-seeded in-memory hash table.
fn spill_partition(salt: u32, key: &[Value]) -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    salt.hash(&mut hasher);
    for value in key {
        value.hash(&mut hasher);
    }
    (hasher.finish() as usize) % SPILL_FANOUT
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

    /// Commit a build to grace-hash partitioning: move `table`'s rows into
    /// [`SPILL_FANOUT`] on-disk partitions and release the grant.
    pub(crate) fn start(
        table: &mut JoinTable,
        reservation: &mut Reservation,
        stats: Arc<SpillStats>,
    ) -> Result<Self, ExecError> {
        let mut grace = Self::new(stats)?;
        let rows = table.take_rows();
        grace.write_build(rows, &table.keys)?;
        reservation.release_all();
        Ok(grace)
    }

    /// Write build rows to their partitions. NULL-key rows count as input but never
    /// join, and a spilled build is not a reusable materialization, so they go.
    pub(crate) fn write_build(&mut self, rows: Vec<Row>, keys: &[usize]) -> Result<(), ExecError> {
        self.input_rows += rows.len() as u64;
        self.write(rows, keys)
    }

    /// Write rows of the side being written (the probe side once the build is
    /// sealed) to their partitions.
    pub(crate) fn write(&mut self, rows: Vec<Row>, keys: &[usize]) -> Result<(), ExecError> {
        for row in rows {
            if let Some(key) = extract_key(&row, keys) {
                self.writers[spill_partition(0, &key)]
                    .write_row(row.values())
                    .map_err(spill_err)?;
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
    /// loading the next build block or partition pair when a probe run is drained.
    /// `None` once every partition is joined; `table` is then empty and the grant
    /// released.
    pub(crate) fn next_probe_rows(
        &mut self,
        table: &mut JoinTable,
        reservation: &mut Reservation,
        probe_keys: &[usize],
        batch_size: usize,
    ) -> Result<Option<Vec<Row>>, ExecError> {
        loop {
            if let Some(mut loaded) = self.loaded.take() {
                let mut rows = Vec::new();
                while rows.len() < batch_size {
                    let Some(values) = loaded.reader.next_row().map_err(spill_err)? else {
                        break;
                    };
                    rows.push(Row::from_values(values));
                }
                if !rows.is_empty() {
                    self.loaded = Some(loaded);
                    return Ok(Some(rows));
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
                table.take_rows();
                reservation.release_all();
                return Ok(None);
            };
            self.load(table, reservation, probe_keys, pair, 0)?;
        }
    }

    /// Load build rows `start..` of a partition pair into the join table, as many as
    /// the grant allows, and open a scan of its probe run. A partition that exceeds
    /// the grant is repartitioned with a deeper salt instead (back onto `pending`);
    /// at [`SPILL_MAX_DEPTH`] it loads as one block of a block nested loop, whose
    /// first row loads even when its grant is denied — a bounded overcommit of one
    /// row that guarantees progress when enclosing operators hold the budget. A
    /// partition of one row wider than the whole budget fails at once: no
    /// repartitioning can split it.
    fn load(
        &mut self,
        table: &mut JoinTable,
        reservation: &mut Reservation,
        probe_keys: &[usize],
        (build, probe, depth): (SpillRun, SpillRun, u32),
        start: u64,
    ) -> Result<(), ExecError> {
        table.take_rows();
        reservation.release_all();
        let mut reader = build.read().map_err(spill_err)?;
        let mut next = 0u64;
        while let Some(values) = reader.next_row().map_err(spill_err)? {
            if next < start {
                next += 1;
                continue;
            }
            let row = Row::from_values(values);
            if !reservation.grow(row.width() as u64) {
                let budget = reservation.governor().budget().unwrap_or(u64::MAX);
                if build.rows() == 1 && row.width() as u64 > budget {
                    return Err(ExecError::Spill(format!(
                        "grace-hash build row of {} bytes exceeds the memory budget of \
                         {budget} bytes; repartitioning cannot split a single row",
                        row.width(),
                    )));
                }
                if depth < SPILL_MAX_DEPTH {
                    drop(reader);
                    table.take_rows();
                    reservation.release_all();
                    return self.repartition(table.keys(), probe_keys, build, probe, depth);
                }
                if !table.is_empty() {
                    break;
                }
            }
            table.push(row);
            next += 1;
        }
        drop(reader);
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
        for (side, source) in [&build, &probe].into_iter().enumerate() {
            let mut reader = source.read().map_err(spill_err)?;
            while let Some(values) = reader.next_row().map_err(spill_err)? {
                let row = Row::from_values(values);
                if let Some(key) = extract_key(&row, keys[side]) {
                    sides[side][spill_partition(salt, &key)]
                        .write_row(row.values())
                        .map_err(spill_err)?;
                }
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
    //! shares code with the kernel it checks.

    use super::*;
    use reopt_expr::{BinaryOp, ColumnRef, Expr};
    use reopt_planner::cost::Cost;
    use reopt_planner::RelSet;
    use reopt_storage::{Column, ColumnBatch, DataType, Schema};

    type PairTest = fn(&Row, &Row) -> bool;

    /// `(k1 INT, k2 TEXT, v INT)` rows; `None` is NULL.
    fn rows(values: &[(Option<i64>, Option<&str>, i64)]) -> Vec<Row> {
        values
            .iter()
            .map(|&(k1, k2, v)| {
                Row::from_values(vec![
                    Value::from(k1),
                    k2.map(Value::from).unwrap_or(Value::Null),
                    Value::Int(v),
                ])
            })
            .collect()
    }

    fn side(alias: &str, rel: usize) -> PhysicalPlan {
        let schema = Schema::new(vec![
            Column::new("k1", DataType::Int),
            Column::new("k2", DataType::Text),
            Column::new("v", DataType::Int),
        ])
        .qualified(alias);
        PhysicalPlan {
            kind: PlanKind::SeqScan {
                rel,
                alias: alias.into(),
                table: alias.into(),
                predicate: None,
            },
            children: Vec::new(),
            schema,
            estimated_rows: 1.0,
            cost: Cost::ZERO,
            rel_set: RelSet::from_indexes([rel]),
        }
    }

    /// A join of `p` (probe / outer) with `b` (build / inner) on `keys` (none: a
    /// nested-loop join, whose predicate is `residual`), outputting `p.v, b.k1, b.v`.
    fn plan(keys: &[&str], residual: Option<Expr>) -> PhysicalPlan {
        let (p, b) = (side("p", 0), side("b", 1));
        let both = p.schema.join(&b.schema);
        let schema = both.project(&[2, 3, 5]);
        let kind = if keys.is_empty() {
            PlanKind::NestedLoopJoin {
                predicate: residual,
            }
        } else {
            PlanKind::HashJoin {
                keys: keys
                    .iter()
                    .map(|&k| (ColumnRef::qualified("p", k), ColumnRef::qualified("b", k)))
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
        keys: &[usize],
        residual: Option<PairTest>,
    ) -> Vec<Row> {
        let mut out = Vec::new();
        for p in probe {
            for b in build {
                let keys_match = keys.iter().all(|&k| {
                    !p.value(k).is_null() && !b.value(k).is_null() && p.value(k) == b.value(k)
                });
                if keys_match && residual.map_or(true, |test| test(p, b)) {
                    out.push(Row::from_values(vec![
                        p.value(2).clone(),
                        b.value(0).clone(),
                        b.value(2).clone(),
                    ]));
                }
            }
        }
        out
    }

    /// Join `probe` (fed in batches of five, as rows or as columns) against a table
    /// built from `build`, emitting output batches of `cap` rows.
    fn run(
        kernel: &JoinKernel,
        probe: &[Row],
        build: &[Row],
        cap: usize,
        columnar: bool,
    ) -> Vec<Vec<Row>> {
        let mut table = kernel.table();
        for row in build {
            table.push(row.clone());
        }
        assert_eq!(table.rows(), build, "every build row is kept, in order");
        let mut batches = Vec::new();
        let mut out = Vec::new();
        let mut scratch = Row::default();
        for chunk in probe.chunks(5) {
            let batch = if columnar {
                Batch::Cols(ColumnBatch::from_rows(chunk.to_vec(), 3))
            } else {
                Batch::Rows(chunk.to_vec())
            };
            let mut batch = kernel.batch(batch);
            // The probe stops short of `cap` rows only once the batch is joined.
            loop {
                kernel
                    .probe(&table, &mut batch, cap, &mut scratch, &mut out)
                    .unwrap();
                if out.len() < cap {
                    break;
                }
                batches.push(std::mem::take(&mut out));
            }
        }
        if !out.is_empty() {
            batches.push(out);
        }
        batches
    }

    #[test]
    fn kernel_matches_a_brute_force_nested_loop() {
        let probe = rows(&[
            (Some(1), Some("a"), 10),
            (None, Some("a"), 11),
            (Some(5), Some("x"), 12),
            (Some(1), None, 13),
            (Some(2), Some("b"), 14),
            (Some(1), Some("a"), 15),
            (Some(9), Some("z"), 16),
            (Some(5), Some("y"), 120),
            (Some(3), Some("c"), 18),
            (Some(2), Some("c"), 19),
            (None, None, 20),
        ]);
        // Key 5 appears forty times: probe rows 2 and 7 each match forty build rows,
        // spanning several output batches at the small batch sizes (the residual
        // keeps all of row 2's matches and about half of row 7's).
        let mut spec: Vec<(Option<i64>, Option<&str>, i64)> = vec![
            (Some(1), Some("a"), 1),
            (None, Some("a"), 2),
            (Some(1), Some("b"), 3),
            (Some(2), Some("b"), 4),
            (Some(1), Some("a"), 5),
            (Some(2), None, 6),
            (Some(3), Some("c"), 7),
        ];
        spec.extend((0..40).map(|i| (Some(5), Some(if i % 2 == 0 { "x" } else { "y" }), 100 + i)));
        spec.push((Some(3), Some("d"), 8));
        let build = rows(&spec);
        let greater = || Expr::binary(BinaryOp::Gt, Expr::col("b", "v"), Expr::col("p", "v"));
        let greater_test: PairTest = |p, b| b.value(2).as_int() > p.value(2).as_int();
        // (name, key columns, whether the residual `b.v > p.v` applies)
        let cases: [(&str, &[&str], bool); 5] = [
            ("one key", &["k1"], false),
            ("two keys", &["k1", "k2"], false),
            ("one key and a residual", &["k1"], true),
            ("zero keys (nested loop)", &[], false),
            ("zero keys and a residual", &[], true),
        ];
        for (name, keys, with_residual) in cases {
            let residual = with_residual.then(greater);
            let test = with_residual.then_some(greater_test);
            let key_columns: Vec<usize> = keys.iter().map(|&k| usize::from(k == "k2")).collect();
            let plan = plan(keys, residual);
            let kernel = JoinKernel::new(&plan).unwrap();
            let kind = if keys.is_empty() {
                BreakerKind::NestedLoopInner
            } else {
                BreakerKind::HashBuild
            };
            assert_eq!(kernel.kind, kind, "{name}");
            for (probe, build) in [
                (&probe[..], &build[..]),
                (&[][..], &build[..]),
                (&probe[..], &[][..]),
            ] {
                let expected = brute_force(probe, build, &key_columns, test);
                if !probe.is_empty() && !build.is_empty() {
                    assert!(expected.len() > 40, "{name}: the case joins a fan-out row");
                }
                for cap in [1, 7, 1024] {
                    for columnar in [false, true] {
                        let label = format!("{name}, batch {cap}, columnar {columnar}");
                        let batches = run(&kernel, probe, build, cap, columnar);
                        let (last, full) = batches
                            .split_last()
                            .map_or((0, &[][..]), |(last, full)| (last.len(), full));
                        assert!(full.iter().all(|batch| batch.len() == cap), "{label}");
                        assert!(last <= cap, "{label}");
                        assert_eq!(batches.concat(), expected, "{label}");
                    }
                }
            }
        }
    }
}
