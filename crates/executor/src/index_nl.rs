//! The index nested-loop join kernel of both engines, and the pair machinery it
//! shares with the hash join kernel (`hash_join.rs`).
//!
//! An index-NL join probes the inner table's index once per outer row and emits one
//! output row per matching inner row. The kernel keeps that spine columnar: it takes a
//! whole [`ColumnBatch`] of outer rows, reads the key column natively (an int column
//! probes [`Index::lookup_int`], any other encoding [`Index::lookup`]), collects
//! `(outer position, inner row id)` candidates, filters them on columns gathered by
//! row id, and gathers the output batch from the outer batch and the inner table's
//! columns ([`ColumnData::gather`]). No `Value`, `Row` or reference count is created
//! per output row; the aggregate above reads the gathered columns in place.
//!
//! Filtering runs the vectorized mask kernel ([`filter_mask`]) on the gathered
//! columns — dictionary predicates compare codes through the [`MaskCache`] — with one
//! fallback each: an inner predicate the mask kernel declines runs through
//! [`TableRead::fetch`] per candidate, and a residual it declines runs row-wise over
//! the gathered columns. Either way a pair passes exactly when the row path of the
//! reference engine (`columnar == false`) would join it.
//!
//! The candidate collection ([`collect`], [`Cursor`], [`Pairs`]) and the residual and
//! output gathers ([`PairColumns`]) read the inner side as a slice of columns: a
//! stored table's here, a hash build's `ColumnBatch` in the hash join kernel. Both
//! engines run either kernel through one streaming step (`chain.rs`), which owns the
//! batching: it emits exactly `batch_size` rows a batch and carries the rest across
//! outer batches.

use crate::error::ExecError;
use crate::exec::{
    bind_opt, index_nl_join, key_index, read_positions, relation_schema, Batch, JoinRows, TableRead,
};
use reopt_expr::{filter_mask, Expr, MaskCache};
use reopt_planner::{PhysicalPlan, PlanKind};
use reopt_storage::{ColumnBatch, ColumnData, Index, RowId, Table};
use std::ops::Range;

/// Candidates one probe call collects before filtering them: it bounds the scratch a
/// fan-out outer row (or a nested-loop cross product) can allocate at once.
const PROBE_CHUNK: usize = 1024;

/// Where a gathered column comes from.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// A column of the outer batch (its position).
    Outer(usize),
    /// A column of the inner side (its position in the inner columns).
    Inner(usize),
}

/// A probe position inside one outer batch: the next outer row, and how many of its
/// matches were already collected (a fan-out row can span several probe calls).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Cursor {
    pub(crate) outer: usize,
    pub(crate) matched: usize,
}

impl Cursor {
    /// Whether every row of an outer batch of `len` rows has been probed.
    pub(crate) fn done(&self, len: usize) -> bool {
        self.outer >= len
    }
}

/// Matching pairs, in outer-row order and ascending row id within an outer row.
#[derive(Debug, Default)]
pub(crate) struct Pairs {
    outer: Vec<usize>,
    inner: Vec<RowId>,
}

impl Pairs {
    pub(crate) fn len(&self) -> usize {
        self.outer.len()
    }

    pub(crate) fn clear(&mut self) {
        self.outer.clear();
        self.inner.clear();
    }

    /// Drop the first `count` pairs (those already emitted).
    pub(crate) fn discard(&mut self, count: usize) {
        self.outer.drain(..count);
        self.inner.drain(..count);
    }

    /// The pairs from `start` on, as `(outer position, inner row id)`.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = (usize, RowId)> + '_ {
        self.outer[start..]
            .iter()
            .copied()
            .zip(self.inner[start..].iter().copied())
    }

    /// Keep the pairs from `start` on whose `keep` bit is set.
    pub(crate) fn retain_from(&mut self, start: usize, keep: &[bool]) {
        let mut to = start;
        for (from, &kept) in (start..self.len()).zip(keep) {
            if kept {
                self.outer[to] = self.outer[from];
                self.inner[to] = self.inner[from];
                to += 1;
            }
        }
        self.outer.truncate(to);
        self.inner.truncate(to);
    }
}

/// Append candidates from `cursor` on until [`PROBE_CHUNK`] are collected or the
/// batch of `len` outer rows is exhausted; `matches(pos)` is outer row `pos`'s run of
/// inner row ids, ascending.
pub(crate) fn collect<'i>(
    len: usize,
    cursor: &mut Cursor,
    pairs: &mut Pairs,
    matches: impl Fn(usize) -> &'i [RowId],
) {
    let mut room = PROBE_CHUNK;
    while cursor.outer < len && room > 0 {
        let ids = matches(cursor.outer);
        let rest = ids.get(cursor.matched..).unwrap_or(&[]);
        let take = rest.len().min(room);
        pairs.inner.extend_from_slice(&rest[..take]);
        pairs
            .outer
            .extend(std::iter::repeat(cursor.outer).take(take));
        room -= take;
        if take < rest.len() {
            cursor.matched += take;
        } else {
            cursor.outer += 1;
            cursor.matched = 0;
        }
    }
}

/// A join's output columns and its residual, over matching pairs: each column is
/// gathered by row id from the outer batch or from the inner side's columns. Both
/// columnar join kernels assemble their output here.
pub(crate) struct PairColumns {
    /// The residual, bound to the layout of `residual_reads`.
    residual: Option<Expr>,
    /// The columns the residual reads, in its bound layout.
    residual_reads: Vec<Side>,
    /// The output columns, in the join node's schema order.
    output: Vec<Side>,
}

impl PairColumns {
    /// The output and residual columns of `rows`; `inner(pos)` is the inner column
    /// holding position `pos` of `rows`' inner side.
    pub(crate) fn new(rows: &JoinRows, inner: impl Fn(usize) -> usize) -> Self {
        let side = |pos: usize| match pos.checked_sub(rows.outer_len()) {
            Some(pos) => Side::Inner(inner(pos)),
            None => Side::Outer(pos),
        };
        Self {
            residual: rows.residual().cloned(),
            residual_reads: rows.residual_reads().iter().map(|&pos| side(pos)).collect(),
            output: rows.output().iter().map(|&pos| side(pos)).collect(),
        }
    }

    /// Which pairs from `start` on pass the residual (`None`: there is none).
    pub(crate) fn residual_mask(
        &self,
        inner: &[ColumnData],
        outer: &ColumnBatch,
        pairs: &Pairs,
        start: usize,
        cache: &mut MaskCache,
    ) -> Result<Option<Vec<bool>>, ExecError> {
        let Some(residual) = &self.residual else {
            return Ok(None);
        };
        let gathered = gather_sides(
            &self.residual_reads,
            inner,
            outer,
            pairs,
            start..pairs.len(),
        );
        if let Some(mask) = filter_mask(residual, &gathered, cache) {
            return Ok(Some(mask));
        }
        (0..gathered.len())
            .map(|row| Ok(residual.eval_predicate(&gathered.row(row))?))
            .collect::<Result<Vec<bool>, ExecError>>()
            .map(Some)
    }

    /// The output batch of the pairs in `range`.
    pub(crate) fn gather(
        &self,
        inner: &[ColumnData],
        outer: &ColumnBatch,
        pairs: &Pairs,
        range: Range<usize>,
    ) -> ColumnBatch {
        gather_sides(&self.output, inner, outer, pairs, range)
    }
}

fn gather_sides(
    sides: &[Side],
    inner: &[ColumnData],
    outer: &ColumnBatch,
    pairs: &Pairs,
    range: Range<usize>,
) -> ColumnBatch {
    let outer_ids = &pairs.outer[range.clone()];
    let inner_ids = &pairs.inner[range];
    ColumnBatch::new(
        sides
            .iter()
            .map(|side| match *side {
                Side::Outer(pos) => outer.column(pos).gather(outer_ids),
                Side::Inner(col) => inner[col].gather(inner_ids),
            })
            .collect(),
        outer_ids.len(),
    )
}

/// One index nested-loop join node, compiled for the kernel. Shared read-only by
/// every worker of the morsel engine; callers own their cursors, pairs and caches.
pub(crate) struct IndexNlKernel {
    /// The outer join-key column (a position in the outer batch).
    outer_key: usize,
    /// The inner read: the row path's per-candidate fetch, and the kernel's fallback
    /// for an inner predicate the mask kernel declines.
    pub(crate) read: TableRead,
    /// Output-row assembly of the row path; its residual binds to `residual_reads`.
    pub(crate) rows: JoinRows,
    /// The inner predicate, bound to the layout of `predicate_reads`.
    predicate: Option<Expr>,
    /// Inner table columns the predicate reads.
    predicate_reads: Vec<usize>,
    /// Whether the mask kernel covers the predicate over the table's encodings.
    predicate_kernel: bool,
    /// The residual and the output, gathered from the outer batch and the table.
    columns: PairColumns,
    /// Width of an outer row (a row outer batch converts at this width).
    outer_width: usize,
}

impl IndexNlKernel {
    /// Compile an index nested-loop join node over its inner `table`.
    pub(crate) fn new(plan: &PhysicalPlan, table: &Table) -> Result<Self, ExecError> {
        let PlanKind::IndexNestedLoopJoin {
            inner_alias,
            inner_predicate,
            outer_key,
            ..
        } = &plan.kind
        else {
            return Err(ExecError::InvalidPlan(
                "expected an index nested-loop join".into(),
            ));
        };
        let outer_schema = &plan.children[0].schema;
        let (read, rows) = index_nl_join(plan, table)?;
        let full = relation_schema(table, inner_alias);
        let predicate_reads = match inner_predicate {
            Some(predicate) => read_positions(predicate, &full)?,
            None => Vec::new(),
        };
        let predicate = bind_opt(inner_predicate.as_ref(), &full.project(&predicate_reads))?;
        let mut kernel = Self {
            outer_key: key_index(outer_schema, outer_key)?,
            columns: PairColumns::new(&rows, |pos| read.column(pos)),
            outer_width: outer_schema.len(),
            read,
            rows,
            predicate,
            predicate_reads,
            predicate_kernel: false,
        };
        // Probe kernel support once against zero gathered rows: they carry the
        // table's real column encodings, which never change during a query.
        kernel.predicate_kernel = kernel.predicate.as_ref().map_or(true, |predicate| {
            let empty = kernel.gather_inner(table, &kernel.predicate_reads, &[]);
            filter_mask(predicate, &empty, &mut MaskCache::new()).is_some()
        });
        Ok(kernel)
    }

    /// The outer join-key column.
    pub(crate) fn outer_key(&self) -> usize {
        self.outer_key
    }

    /// An outer batch in column form (a row batch converts to exact-value columns).
    pub(crate) fn outer_columns(&self, batch: Batch) -> ColumnBatch {
        batch.into_columns(self.outer_width)
    }

    /// Probe `outer` from `cursor` on: collect about [`PROBE_CHUNK`] candidates (or
    /// the rest of the batch), filter them on the inner predicate and the residual,
    /// and append the passing pairs to `pairs`.
    pub(crate) fn probe(
        &self,
        table: &Table,
        index: &Index,
        outer: &ColumnBatch,
        cursor: &mut Cursor,
        pairs: &mut Pairs,
        cache: &mut MaskCache,
    ) -> Result<(), ExecError> {
        let start = pairs.len();
        match outer.column(self.outer_key) {
            ColumnData::Int { values, validity } => collect(outer.len(), cursor, pairs, |pos| {
                if validity.get(pos) {
                    index.lookup_int(values[pos])
                } else {
                    &[]
                }
            }),
            keys => collect(outer.len(), cursor, pairs, |pos| {
                index.lookup(&keys.value_at(pos))
            }),
        }
        if start < pairs.len() {
            if let Some(keep) = self.predicate_mask(table, &pairs.inner[start..], cache)? {
                pairs.retain_from(start, &keep);
            }
        }
        if start < pairs.len() {
            let residual =
                self.columns
                    .residual_mask(table.columns(), outer, pairs, start, cache)?;
            if let Some(keep) = residual {
                pairs.retain_from(start, &keep);
            }
        }
        Ok(())
    }

    /// Which candidates pass the inner predicate (`None`: there is none).
    fn predicate_mask(
        &self,
        table: &Table,
        ids: &[RowId],
        cache: &mut MaskCache,
    ) -> Result<Option<Vec<bool>>, ExecError> {
        let Some(predicate) = &self.predicate else {
            return Ok(None);
        };
        if self.predicate_kernel {
            let gathered = self.gather_inner(table, &self.predicate_reads, ids);
            if let Some(mask) = filter_mask(predicate, &gathered, cache) {
                return Ok(Some(mask));
            }
        }
        let mut scratch = self.read.scratch();
        ids.iter()
            .map(|&id| self.read.fetch(table, id, &mut scratch))
            .collect::<Result<Vec<bool>, _>>()
            .map(Some)
    }

    /// The output batch of the pairs in `range`.
    pub(crate) fn gather(
        &self,
        table: &Table,
        outer: &ColumnBatch,
        pairs: &Pairs,
        range: Range<usize>,
    ) -> ColumnBatch {
        self.columns.gather(table.columns(), outer, pairs, range)
    }

    fn gather_inner(&self, table: &Table, columns: &[usize], ids: &[RowId]) -> ColumnBatch {
        ColumnBatch::new(
            columns
                .iter()
                .map(|&col| table.column(col).gather(ids))
                .collect(),
            ids.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    //! The kernel against brute force: a plain nested loop over `Table::row`, with
    //! the join condition, inner predicate and residual written as Rust closures, so
    //! nothing here shares code with the engine it checks.

    use super::*;
    use crate::exec::{ExecutionObserver, Executor, ObserverDecision, ObserverHandle};
    use crate::ExecEvent;
    use reopt_expr::BinaryOp;
    use reopt_planner::cost::Cost;
    use reopt_planner::RelSet;
    use reopt_storage::{Column, DataType, IndexKind, Row, Schema, Storage, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    type RowTest = Box<dyn Fn(&Row) -> bool>;
    type PairTest = Box<dyn Fn(&Row, &Row) -> bool>;

    fn int(v: Option<i64>) -> Value {
        Value::from(v)
    }

    fn text(v: Option<&str>) -> Value {
        v.map(Value::from).unwrap_or(Value::Null)
    }

    fn table(name: &str, columns: &[(&str, DataType)], rows: Vec<Vec<Value>>) -> Table {
        let mut table = Table::new(
            name,
            Schema::new(columns.iter().map(|&(c, t)| Column::new(c, t)).collect()),
        );
        for row in rows {
            table.push_row(Row::from_values(row)).unwrap();
        }
        table
    }

    /// `o(id, k, f, s, v)`: 60 outer rows with NULL, duplicate, negative, absent and
    /// beyond-`i32` int keys, float keys (integral, fractional, NULL) and text keys.
    /// `dense(k, x, t, g)`: int keys -5..=20 (direct form), key 5 forty times (one
    /// outer row's matches span several batches), NULL keys. `sparse(k, x)`: keys
    /// spread over ±2^40 (binary-search form). `words(k, x)`: a text key (the map
    /// form). `none(k, x)`: empty, indexed.
    fn storage() -> Storage {
        let outer_keys = [
            Some(5),
            None,
            Some(-3),
            Some(5),
            Some(1 << 33),
            Some(7),
            Some(99),
            Some(-(1 << 35)),
            Some(0),
            Some(20),
            Some(3),
            Some(1 << 40),
        ];
        let floats = [
            Some(2.0),
            Some(2.5),
            None,
            Some(-3.0),
            Some(5.0),
            Some(-0.0),
        ];
        let words = [Some("a"), Some("b"), None, Some("zz"), Some("b")];
        let o = table(
            "o",
            &[
                ("id", DataType::Int),
                ("k", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Text),
                ("v", DataType::Int),
            ],
            (0..60i64)
                .map(|i| {
                    let u = i as usize;
                    vec![
                        Value::Int(i),
                        int(outer_keys[u % outer_keys.len()]),
                        floats[u % floats.len()]
                            .map(Value::Float)
                            .unwrap_or(Value::Null),
                        text(words[u % words.len()]),
                        int((i % 4 != 3).then_some(i % 9 - 2)),
                    ]
                })
                .collect(),
        );
        let mut dense = table(
            "dense",
            &[
                ("k", DataType::Int),
                ("x", DataType::Int),
                ("t", DataType::Text),
                ("g", DataType::Float),
            ],
            (0..90i64)
                .map(|i| {
                    let key = match i {
                        0..=39 => Some(5),
                        _ if i % 11 == 0 => None,
                        _ => Some(i % 26 - 5),
                    };
                    vec![
                        int(key),
                        int((i % 5 != 0).then_some(i % 7)),
                        text([Some("p"), Some("q"), None][i as usize % 3]),
                        if i % 6 == 1 {
                            Value::Null
                        } else {
                            Value::Float(i as f64 / 4.0 - 3.0)
                        },
                    ]
                })
                .collect(),
        );
        dense.create_index("dense_k", "k", IndexKind::Hash).unwrap();
        let sparse_keys = [-(1i64 << 35), -7, 3, 5, 1 << 33, 1 << 40, 3];
        let mut sparse = table(
            "sparse",
            &[("k", DataType::Int), ("x", DataType::Int)],
            (0..21i64)
                .map(|i| vec![int(Some(sparse_keys[i as usize % 7])), int(Some(i))])
                .collect(),
        );
        sparse
            .create_index("sparse_k", "k", IndexKind::BTree)
            .unwrap();
        let mut words_table = table(
            "words",
            &[("k", DataType::Text), ("x", DataType::Int)],
            (0..12i64)
                .map(|i| {
                    vec![
                        text([Some("b"), Some("a"), None, Some("c")][i as usize % 4]),
                        int(Some(i)),
                    ]
                })
                .collect(),
        );
        words_table
            .create_index("words_k", "k", IndexKind::Hash)
            .unwrap();
        let mut none = table(
            "none",
            &[("k", DataType::Int), ("x", DataType::Int)],
            Vec::new(),
        );
        none.create_index("none_k", "k", IndexKind::Hash).unwrap();
        let mut storage = Storage::new();
        for t in [o, dense, sparse, words_table, none] {
            storage.create_table(t).unwrap();
        }
        storage
    }

    /// A hand-built `o ⋈ inner` index nested-loop plan (the planner is not under
    /// test): `output` lists `(alias, column)` pairs, `outer_predicate` filters the
    /// outer scan.
    struct Case {
        name: &'static str,
        inner: &'static str,
        outer_key: &'static str,
        outer_predicate: Option<Expr>,
        inner_predicate: Option<(Expr, RowTest)>,
        residual: Option<(Expr, PairTest)>,
        output: Vec<(&'static str, &'static str)>,
        /// Whether the mask kernel covers the inner predicate.
        covered: bool,
    }

    fn qualified(table: &Table, alias: &str) -> Schema {
        Schema::new(
            table
                .schema()
                .columns()
                .iter()
                .map(|c| c.with_qualifier(alias))
                .collect(),
        )
    }

    fn plan(storage: &Storage, case: &Case) -> PhysicalPlan {
        let o = storage.table("o").unwrap();
        let inner = storage.table(case.inner).unwrap();
        let outer_schema = qualified(o, "o");
        let both = outer_schema.join(&qualified(inner, "i"));
        let pick = |cols: &[(&str, &str)]| {
            Schema::new(
                cols.iter()
                    .map(|(q, c)| both.columns()[both.index_of(Some(q), c).unwrap()].clone())
                    .collect(),
            )
        };
        // The outer scan carries what the join reads from it.
        let mut outer_cols: Vec<(&str, &str)> = vec![("o", case.outer_key)];
        for &(q, c) in &case.output {
            if q == "o" && !outer_cols.contains(&(q, c)) {
                outer_cols.push((q, c));
            }
        }
        if case.residual.is_some() && !outer_cols.contains(&("o", "v")) {
            outer_cols.push(("o", "v"));
        }
        let scan = PhysicalPlan {
            kind: PlanKind::SeqScan {
                rel: 0,
                alias: "o".into(),
                table: "o".into(),
                predicate: case.outer_predicate.clone(),
            },
            children: Vec::new(),
            schema: pick(&outer_cols),
            estimated_rows: 60.0,
            cost: Cost::ZERO,
            rel_set: RelSet::from_indexes([0]),
        };
        PhysicalPlan {
            kind: PlanKind::IndexNestedLoopJoin {
                inner_rel: 1,
                inner_alias: "i".into(),
                inner_table: case.inner.into(),
                outer_key: reopt_expr::ColumnRef::qualified("o", case.outer_key),
                inner_key: "k".into(),
                inner_predicate: case.inner_predicate.as_ref().map(|(e, _)| e.clone()),
                residual: case.residual.as_ref().map(|(e, _)| e.clone()),
            },
            children: vec![scan],
            schema: pick(&case.output),
            estimated_rows: 1.0,
            cost: Cost::ZERO,
            rel_set: RelSet::from_indexes([0, 1]),
        }
    }

    /// The expected output, in outer order and ascending inner row id.
    fn brute_force(storage: &Storage, case: &Case) -> Vec<Row> {
        let o = storage.table("o").unwrap();
        let inner = storage.table(case.inner).unwrap();
        let at = |table: &Table, row: &Row, name: &str| {
            row.value(table.schema().index_of(None, name).unwrap())
                .clone()
        };
        let mut out = Vec::new();
        for outer in o.iter_rows() {
            if case.outer_predicate.is_some() && at(o, &outer, "v").is_null() {
                continue; // the fallback outer predicate below rejects NULL v
            }
            let key = at(o, &outer, case.outer_key);
            for id in 0..inner.row_count() {
                let row = inner.row(id).unwrap();
                if key.sql_eq(&at(inner, &row, "k")) != Some(true) {
                    continue;
                }
                if !case
                    .inner_predicate
                    .as_ref()
                    .map_or(true, |(_, test)| test(&row))
                {
                    continue;
                }
                if !case
                    .residual
                    .as_ref()
                    .map_or(true, |(_, test)| test(&outer, &row))
                {
                    continue;
                }
                out.push(Row::from_values(
                    case.output
                        .iter()
                        .map(|&(q, c)| {
                            if q == "o" {
                                at(o, &outer, c)
                            } else {
                                at(inner, &row, c)
                            }
                        })
                        .collect(),
                ));
            }
        }
        out
    }

    /// Rows rendered so that floats compare by their bits.
    fn bits(rows: &[Row]) -> Vec<String> {
        rows.iter()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("F{:x}", f.to_bits()),
                        v => format!("{v:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect()
    }

    fn get(row: &Row, idx: usize) -> Option<i64> {
        row.value(idx).as_int()
    }

    fn cases() -> Vec<Case> {
        // dense(k, x, t, g); o(id, k, f, s, v)
        let dict_eq = || -> (Expr, RowTest) {
            (
                Expr::eq(Expr::col("i", "t"), Expr::lit("p")),
                Box::new(|r: &Row| r.value(2) == &Value::from("p")),
            )
        };
        let arithmetic = || -> (Expr, RowTest) {
            (
                Expr::binary(
                    BinaryOp::Gt,
                    Expr::binary(BinaryOp::Mul, Expr::col("i", "x"), Expr::lit(2i64)),
                    Expr::lit(5i64),
                ),
                Box::new(|r: &Row| get(r, 1).is_some_and(|x| x * 2 > 5)),
            )
        };
        vec![
            Case {
                name: "dense int keys, covered predicate",
                inner: "dense",
                outer_key: "k",
                outer_predicate: None,
                inner_predicate: Some(dict_eq()),
                residual: None,
                output: vec![("o", "id"), ("i", "g"), ("i", "t"), ("o", "k")],
                covered: true,
            },
            Case {
                name: "dense int keys, fallback predicate, covered residual",
                inner: "dense",
                outer_key: "k",
                outer_predicate: None,
                inner_predicate: Some(arithmetic()),
                residual: Some((
                    Expr::binary(BinaryOp::LtEq, Expr::col("o", "v"), Expr::col("i", "x")),
                    Box::new(|o: &Row, i: &Row| match (get(o, 4), get(i, 1)) {
                        (Some(v), Some(x)) => v <= x,
                        _ => false,
                    }),
                )),
                output: vec![("i", "x"), ("o", "id")],
                covered: false,
            },
            Case {
                name: "dense int keys, fallback residual, row outer",
                inner: "dense",
                outer_key: "k",
                // An arithmetic scan predicate has no mask kernel: the outer scan
                // emits row batches, which enter the kernel as exact-value columns.
                outer_predicate: Some(Expr::binary(
                    BinaryOp::GtEq,
                    Expr::binary(BinaryOp::Mul, Expr::col("o", "v"), Expr::lit(1i64)),
                    Expr::lit(-100i64),
                )),
                inner_predicate: None,
                residual: Some((
                    Expr::binary(
                        BinaryOp::Gt,
                        Expr::binary(BinaryOp::Add, Expr::col("o", "v"), Expr::col("i", "x")),
                        Expr::lit(4i64),
                    ),
                    Box::new(|o: &Row, i: &Row| match (get(o, 4), get(i, 1)) {
                        (Some(v), Some(x)) => v + x > 4,
                        _ => false,
                    }),
                )),
                output: vec![("o", "v"), ("i", "t"), ("i", "k")],
                covered: true,
            },
            Case {
                name: "sparse int keys beyond i32",
                inner: "sparse",
                outer_key: "k",
                outer_predicate: None,
                inner_predicate: None,
                residual: None,
                output: vec![("o", "k"), ("i", "x")],
                covered: true,
            },
            Case {
                name: "float probe keys against an int index",
                inner: "dense",
                outer_key: "f",
                outer_predicate: None,
                inner_predicate: None,
                residual: None,
                output: vec![("o", "f"), ("i", "k"), ("i", "g")],
                covered: true,
            },
            Case {
                name: "text keys (the map form)",
                inner: "words",
                outer_key: "s",
                outer_predicate: None,
                inner_predicate: None,
                residual: None,
                output: vec![("o", "s"), ("i", "x"), ("o", "id")],
                covered: true,
            },
            Case {
                name: "empty inner table",
                inner: "none",
                outer_key: "k",
                outer_predicate: None,
                inner_predicate: None,
                residual: None,
                output: vec![("o", "id"), ("i", "x")],
                covered: true,
            },
            Case {
                name: "zero-column output (count(*))",
                inner: "dense",
                outer_key: "k",
                outer_predicate: None,
                inner_predicate: Some(dict_eq()),
                residual: None,
                output: Vec::new(),
                covered: true,
            },
        ]
    }

    fn run(
        storage: &Storage,
        plan: &PhysicalPlan,
        threads: usize,
        batch: usize,
        columnar: bool,
    ) -> crate::exec::ExecutionResult {
        Executor::with_batch_size(storage, batch)
            .with_threads(threads)
            .with_columnar(columnar)
            .execute(plan)
            .unwrap()
    }

    /// The join node's batch count and its probe label.
    fn join_metrics(result: &crate::exec::ExecutionResult) -> (u64, Option<&'static str>) {
        let join = &result.metrics.root.metrics;
        (join.batches, join.probe)
    }

    #[test]
    fn kernel_matches_a_brute_force_nested_loop() {
        let storage = storage();
        let o = storage.table("o").unwrap();
        for case in cases() {
            let plan = plan(&storage, &case);
            let inner = storage.table(case.inner).unwrap();
            let kernel = IndexNlKernel::new(&plan, inner).unwrap();
            assert_eq!(kernel.predicate_kernel, case.covered, "{}", case.name);
            let expected = brute_force(&storage, &case);
            assert!(o.row_count() > 0);
            if case.inner != "none" {
                assert!(
                    !expected.is_empty(),
                    "{}: the case joins something",
                    case.name
                );
            }
            for batch in [1, 7, 1024] {
                let reference = run(&storage, &plan, 1, batch, false);
                assert_eq!(
                    bits(&reference.rows),
                    bits(&expected),
                    "{}: row path",
                    case.name
                );
                for threads in [1, 2] {
                    let result = run(&storage, &plan, threads, batch, true);
                    let label = format!("{} at {threads} thread(s), batch {batch}", case.name);
                    assert_eq!(result.rows.len(), expected.len(), "{label}");
                    if threads == 1 {
                        // Order is defined: outer order, ascending inner row id.
                        // Batches are full but the last, as on the row path.
                        assert_eq!(bits(&result.rows), bits(&expected), "{label}");
                        assert_eq!(
                            join_metrics(&result),
                            (expected.len().div_ceil(batch) as u64, Some("columnar")),
                            "{label}"
                        );
                        assert_eq!(join_metrics(&reference).0, join_metrics(&result).0);
                    } else {
                        let (mut got, mut want) = (bits(&result.rows), bits(&expected));
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "{label}");
                        assert_eq!(join_metrics(&result).1, Some("columnar"), "{label}");
                    }
                }
                assert_eq!(join_metrics(&reference).1, Some("row"));
            }
        }
    }

    /// Suspends on the `at`-th progress report.
    struct SuspendAt {
        at: usize,
        seen: usize,
    }

    impl ExecutionObserver for SuspendAt {
        fn on_event(&mut self, event: &ExecEvent) -> ObserverDecision {
            if matches!(event, ExecEvent::Progress(_)) {
                self.seen += 1;
                if self.seen == self.at {
                    return ObserverDecision::Suspend;
                }
            }
            ObserverDecision::Continue
        }
    }

    #[test]
    fn suspension_between_batches_delivers_the_same_prefix_as_the_row_path() {
        let storage = storage();
        let case = &cases()[0];
        let plan = plan(&storage, case);
        let expected = brute_force(&storage, case);
        for at in [1, 3, 6] {
            let mut delivered = Vec::new();
            for columnar in [true, false] {
                let observer: ObserverHandle = Rc::new(RefCell::new(SuspendAt { at, seen: 0 }));
                let executor = Executor::with_batch_size(&storage, 3)
                    .with_threads(1)
                    .with_columnar(columnar);
                let mut pipeline = executor.open_observed(&plan, Some(observer)).unwrap();
                let mut rows = Vec::new();
                let error = loop {
                    match pipeline.next_batch() {
                        Ok(Some(batch)) => rows.extend(batch),
                        Ok(None) => panic!("ran to completion before report {at}"),
                        Err(error) => break error,
                    }
                };
                assert_eq!(error, ExecError::Suspended);
                assert!(pipeline.is_suspended());
                // Report `at` fires on batch `at * PROGRESS_INTERVAL`, which is lost to
                // the suspension.
                let batch = at * crate::PROGRESS_INTERVAL as usize;
                assert_eq!(
                    rows.len(),
                    (batch - 1) * 3,
                    "columnar {columnar}, report {at}"
                );
                assert_eq!(bits(&rows), bits(&expected[..rows.len()]));
                delivered.push(bits(&rows));
            }
            assert_eq!(delivered[0], delivered[1]);
        }
    }
}
