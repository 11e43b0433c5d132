//! An independent reference evaluator for bound queries.
//!
//! [`evaluate`] answers a [`QuerySpec`] without a planner plan and without any
//! executor operator, so a result the engine shares with it is not a result the
//! engine shares with itself:
//!
//! * relations are joined by nested loops in FROM order, one tuple at a time;
//! * each predicate is applied, through the row-wise `reopt_expr` evaluator, as
//!   soon as every relation it reads is bound: a relation's local predicates when
//!   it is read, a join edge or a multi-relation predicate at the loop of the last
//!   relation it reads;
//! * the inner loop of a relation joined by an equality edge to one bound before it
//!   visits only the rows whose key equals the bound value (its rows grouped by that
//!   key in an ordered map, without hashing); the edge itself is still evaluated;
//! * grouping keeps groups in an ordered map, again without hashing, and ORDER BY
//!   is a stable sort;
//! * float sums and averages add their terms through the order-free
//!   [`ExactSum`], so float aggregates compare bit for bit with the engine's.
//!
//! The result is an [`Answer`], which checks an engine's rows with
//! [`Answer::check`]: the same multiset of rows, and under ORDER BY the same
//! sequence of sort keys. Rows are compared through their `Debug` rendering, which
//! spells every float exactly.
//!
//! The file is shared by the root integration tests (`mod oracle;`) and the
//! executor's unit tests, which include it by path.

#![allow(dead_code)]

use reopt_executor::exact::ExactSum;
use reopt_expr::Expr;
use reopt_planner::{QuerySpec, RelSet};
use reopt_sql::{AggregateFunc, SelectExpr};
use reopt_storage::{Column, DataType, Row, Schema, Storage, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The reference answer to one query.
#[derive(Debug)]
pub struct Answer {
    /// Every result row before LIMIT, in ORDER BY order (FROM-order nested-loop
    /// order breaks ties and orders an unsorted result).
    pub all: Vec<Row>,
    /// The LIMIT, if any.
    pub limit: Option<usize>,
    /// The ORDER BY keys, bound to the output row, with their directions.
    order: Vec<(Expr, bool)>,
}

impl Answer {
    /// The rows the query returns: [`Answer::all`] cut at the LIMIT.
    pub fn rows(&self) -> &[Row] {
        let end = self.limit.map_or(self.all.len(), |n| n.min(self.all.len()));
        &self.all[..end]
    }

    /// Whether `rows`, an engine's result, answers the query:
    ///
    /// * without LIMIT, the same multiset of rows;
    /// * with LIMIT, as many rows as [`Answer::rows`], each taken from the full
    ///   result (a multiset inclusion);
    /// * under ORDER BY, also the same sequence of sort keys, which pins every key
    ///   group before the last one a LIMIT cuts into.
    pub fn check(&self, rows: &[Row]) -> Result<(), String> {
        let expected = self.rows();
        if rows.len() != expected.len() {
            return Err(format!(
                "{} rows, the reference has {}",
                rows.len(),
                expected.len()
            ));
        }
        if !self.order.is_empty() {
            let keys = |rows: &[Row]| -> Result<Vec<Vec<Value>>, String> {
                rows.iter().map(|row| self.sort_key(row)).collect()
            };
            let (got, want) = (keys(rows)?, keys(expected)?);
            if let Some(at) = (0..got.len()).find(|&i| got[i] != want[i]) {
                return Err(format!(
                    "sort key {at} is {:?}, the reference has {:?}",
                    got[at], want[at]
                ));
            }
        }
        let got = rendered(rows);
        let mut pool = rendered(if self.limit.is_some() { &self.all } else { expected });
        for row in got {
            match pool.binary_search(&row) {
                Ok(at) => {
                    pool.remove(at);
                }
                Err(_) => return Err(format!("row {row} is not in the reference result")),
            }
        }
        Ok(())
    }

    fn sort_key(&self, row: &Row) -> Result<Vec<Value>, String> {
        self.order
            .iter()
            .map(|(expr, _)| expr.eval(row).map_err(|e| e.to_string()))
            .collect()
    }
}

/// Rows rendered exactly (`Debug` spells floats bit for bit), sorted.
pub fn rendered(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|row| format!("{:?}", row.values())).collect();
    out.sort();
    out
}

/// Answer `spec` over `storage` (see the module docs).
pub fn evaluate(spec: &QuerySpec, storage: &Storage) -> Result<Answer, String> {
    let n = spec.relations.len();
    let levels: Vec<Level> = (0..n)
        .map(|at| Level::new(spec, storage, at))
        .collect::<Result<_, _>>()?;
    let full = spec.schema_of(RelSet::all(n));
    let mut output = Output::new(spec, &full)?;
    let mut tuple = Row::from_values(Vec::with_capacity(full.len()));
    join(&levels, 0, &mut tuple, &mut output)?;
    output.finish(spec)
}

/// One loop of the nest: a relation's rows that pass its local predicates, and
/// what to check once it is bound.
struct Level {
    rows: Vec<Row>,
    /// The join edges and multi-relation predicates whose last relation this is,
    /// bound to the tuple of the relations up to it.
    checks: Vec<Expr>,
    /// An equality edge to a relation bound earlier: the outer key's position in
    /// the tuple, and this relation's rows grouped by the inner key.
    lookup: Option<(usize, BTreeMap<Value, Vec<usize>>)>,
}

impl Level {
    fn new(spec: &QuerySpec, storage: &Storage, at: usize) -> Result<Self, String> {
        let relation = &spec.relations[at];
        let table = storage
            .table(&relation.table)
            .map_err(|e| format!("table {}: {e}", relation.table))?;
        let locals = spec.local_predicates[at]
            .iter()
            .map(|p| p.bind(&relation.schema).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut rows = Vec::new();
        'rows: for row in table.iter_rows() {
            for predicate in &locals {
                if !predicate.eval_predicate(&row).map_err(|e| e.to_string())? {
                    continue 'rows;
                }
            }
            rows.push(row);
        }
        let bound = spec.schema_of(RelSet::all(at + 1));
        let last = |set: RelSet| set.iter().max().unwrap_or(0);
        let mut checks = Vec::new();
        let mut lookup = None;
        for edge in &spec.join_edges {
            if edge.left_rel.max(edge.right_rel) != at {
                continue;
            }
            checks.push(edge.to_expr().bind(&bound).map_err(|e| e.to_string())?);
            if lookup.is_some() || edge.left_rel == edge.right_rel {
                continue;
            }
            let (inner, outer) = if edge.left_rel == at {
                (&edge.left_column, &edge.right_column)
            } else {
                (&edge.right_column, &edge.left_column)
            };
            let position = |schema: &Schema, column: &reopt_expr::ColumnRef| {
                schema
                    .index_of(column.qualifier.as_deref(), &column.name)
                    .map_err(|e| e.to_string())
            };
            let inner = position(&relation.schema, inner)?;
            let outer = position(&bound, outer)?;
            let mut groups: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
            for (id, row) in rows.iter().enumerate() {
                let key = row.value(inner);
                if !key.is_null() {
                    groups.entry(key.clone()).or_default().push(id);
                }
            }
            lookup = Some((outer, groups));
        }
        for (set, predicate) in &spec.complex_predicates {
            if last(*set) == at {
                checks.push(predicate.bind(&bound).map_err(|e| e.to_string())?);
            }
        }
        Ok(Self {
            rows,
            checks,
            lookup,
        })
    }
}

/// Bind the relation of `levels[at]` to each of its rows in turn, after the
/// relations before it are bound in `tuple`, and hand every complete tuple to
/// `output`.
fn join(levels: &[Level], at: usize, tuple: &mut Row, output: &mut Output) -> Result<(), String> {
    let Some(level) = levels.get(at) else {
        return output.add(tuple);
    };
    let width = tuple.values().len();
    let ids: Box<dyn Iterator<Item = usize>> = match &level.lookup {
        Some((outer, groups)) => match groups.get(tuple.value(*outer)) {
            Some(ids) => Box::new(ids.iter().copied()),
            None => return Ok(()),
        },
        None => Box::new(0..level.rows.len()),
    };
    'rows: for id in ids {
        tuple.values_mut().truncate(width);
        tuple
            .values_mut()
            .extend(level.rows[id].values().iter().cloned());
        for check in &level.checks {
            if !check.eval_predicate(tuple).map_err(|e| e.to_string())? {
                continue 'rows;
            }
        }
        join(levels, at + 1, tuple, output)?;
    }
    tuple.values_mut().truncate(width);
    Ok(())
}

/// What the complete tuples become: output rows, or group states.
enum Output {
    Rows {
        exprs: Vec<Expr>,
        rows: Vec<Row>,
    },
    Groups {
        keys: Vec<Expr>,
        aggregates: Vec<(AggregateFunc, Option<Expr>)>,
        groups: BTreeMap<Vec<Value>, Vec<Acc>>,
    },
}

impl Output {
    fn new(spec: &QuerySpec, full: &Schema) -> Result<Self, String> {
        let bind = |expr: &Expr| expr.bind(full).map_err(|e| e.to_string());
        let aggregated = !spec.group_by.is_empty()
            || spec
                .output
                .iter()
                .any(|item| matches!(item.expr, SelectExpr::Aggregate { .. }));
        if !aggregated {
            let exprs = spec
                .output
                .iter()
                .map(|item| match &item.expr {
                    SelectExpr::Scalar(expr) => bind(expr),
                    other => Err(format!("unexpanded select item {}", other.to_sql())),
                })
                .collect::<Result<_, _>>()?;
            return Ok(Output::Rows {
                exprs,
                rows: Vec::new(),
            });
        }
        let keys = spec.group_by.iter().map(bind).collect::<Result<_, _>>()?;
        let mut aggregates = Vec::new();
        for item in &spec.output {
            if let SelectExpr::Aggregate { func, arg } = &item.expr {
                aggregates.push((*func, arg.as_ref().map(bind).transpose()?));
            }
        }
        let mut groups = BTreeMap::new();
        if spec.group_by.is_empty() {
            // A global aggregate has its one group even over no rows.
            groups.insert(Vec::new(), aggregates.iter().map(|_| Acc::default()).collect());
        }
        Ok(Output::Groups {
            keys,
            aggregates,
            groups,
        })
    }

    fn add(&mut self, tuple: &Row) -> Result<(), String> {
        let eval = |expr: &Expr| expr.eval(tuple).map_err(|e| e.to_string());
        match self {
            Output::Rows { exprs, rows } => {
                rows.push(Row::from_values(exprs.iter().map(eval).collect::<Result<_, _>>()?));
            }
            Output::Groups {
                keys,
                aggregates,
                groups,
            } => {
                let key = keys.iter().map(eval).collect::<Result<Vec<_>, _>>()?;
                let accs = groups
                    .entry(key)
                    .or_insert_with(|| aggregates.iter().map(|_| Acc::default()).collect());
                for (acc, (func, arg)) in accs.iter_mut().zip(aggregates.iter()) {
                    match arg {
                        Some(arg) => acc.add(*func, eval(arg)?),
                        None => acc.rows += 1,
                    }
                }
            }
        }
        Ok(())
    }

    /// The output rows and schema, sorted and cut as the query asks.
    fn finish(self, spec: &QuerySpec) -> Result<Answer, String> {
        let (mut rows, schema) = match self {
            Output::Rows { rows, .. } => (rows, project_schema(spec)),
            Output::Groups {
                aggregates, groups, ..
            } => {
                let mut rows = Vec::with_capacity(groups.len());
                for (key, accs) in groups {
                    let mut values = key;
                    for (acc, (func, _)) in accs.into_iter().zip(&aggregates) {
                        values.push(acc.finish(*func)?);
                    }
                    rows.push(Row::from_values(values));
                }
                (rows, aggregate_schema(spec))
            }
        };
        let order = spec
            .order_by
            .iter()
            .map(|item| {
                let expr = item.expr.bind(&schema).map_err(|e| e.to_string())?;
                Ok((expr, item.ascending))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut keyed = rows
            .drain(..)
            .map(|row| {
                let key = order
                    .iter()
                    .map(|(expr, _)| expr.eval(&row).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((key, row))
            })
            .collect::<Result<Vec<_>, String>>()?;
        keyed.sort_by(|(a, _), (b, _)| {
            a.iter()
                .zip(b)
                .zip(&order)
                .map(|((x, y), (_, ascending))| if *ascending { x.cmp(y) } else { y.cmp(x) })
                .find(|o| *o != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
        Ok(Answer {
            all: keyed.into_iter().map(|(_, row)| row).collect(),
            limit: spec.limit,
            order,
        })
    }
}

/// The output schema of a query without aggregates: an unaliased column keeps
/// its name and qualifier; anything else is named by its alias.
fn project_schema(spec: &QuerySpec) -> Schema {
    Schema::new(
        spec.output
            .iter()
            .enumerate()
            .map(|(idx, item)| {
                let SelectExpr::Scalar(expr) = &item.expr else {
                    return Column::new(format!("column_{idx}"), DataType::Text);
                };
                match (&item.alias, expr.as_column_ref()) {
                    (Some(alias), _) => Column::new(alias.clone(), DataType::Text),
                    (None, Some(r)) => qualified(&r.name, r.qualifier.as_deref()),
                    (None, None) => Column::new(format!("column_{idx}"), DataType::Text),
                }
            })
            .collect(),
    )
}

/// The output schema of an aggregate query: the GROUP BY keys (a column keeps its
/// name and qualifier), then one column per aggregate, named by its alias.
fn aggregate_schema(spec: &QuerySpec) -> Schema {
    let keys = spec.group_by.iter().enumerate().map(|(idx, key)| match key.as_column_ref() {
        Some(r) => qualified(&r.name, r.qualifier.as_deref()),
        None => Column::new(format!("group_{idx}"), DataType::Text),
    });
    let aggregates = spec.output.iter().enumerate().filter_map(|(idx, item)| {
        let SelectExpr::Aggregate { func, .. } = &item.expr else {
            return None;
        };
        let name = item
            .alias
            .clone()
            .unwrap_or_else(|| format!("{}_{idx}", func.name().to_ascii_lowercase()));
        Some(Column::new(name, DataType::Text))
    });
    Schema::new(keys.chain(aggregates).collect())
}

fn qualified(name: &str, qualifier: Option<&str>) -> Column {
    let column = Column::new(name.to_string(), DataType::Text);
    match qualifier {
        Some(qualifier) => column.with_qualifier(qualifier),
        None => column,
    }
}

/// One aggregate's state: every function keeps what it needs of the same terms.
#[derive(Default)]
struct Acc {
    /// Rows seen (`COUNT(*)`).
    rows: u64,
    /// Non-NULL terms.
    terms: u64,
    min: Option<Value>,
    max: Option<Value>,
    ints: i128,
    floats: ExactSum,
    any_float: bool,
    numeric: u64,
}

impl Acc {
    fn add(&mut self, func: AggregateFunc, value: Value) {
        if value.is_null() {
            return;
        }
        self.terms += 1;
        match func {
            AggregateFunc::Min => {
                if self.min.as_ref().map_or(true, |best| value < *best) {
                    self.min = Some(value);
                }
            }
            AggregateFunc::Max => {
                if self.max.as_ref().map_or(true, |best| value > *best) {
                    self.max = Some(value);
                }
            }
            AggregateFunc::Count => {}
            AggregateFunc::Sum | AggregateFunc::Avg => match value {
                Value::Int(v) => {
                    self.ints += i128::from(v);
                    self.numeric += 1;
                }
                Value::Float(v) => {
                    self.floats.add(v);
                    self.any_float = true;
                    self.numeric += 1;
                }
                _ => {}
            },
        }
    }

    /// The integer terms and the float terms summed exactly, rounded once.
    fn float_total(&self) -> f64 {
        let mut total = self.floats.clone();
        // Each 32-bit piece of the integer total is exact in an f64.
        let sign = if self.ints < 0 { -1.0 } else { 1.0 };
        let mut rest = self.ints.unsigned_abs();
        let mut scale = 1.0f64;
        while rest != 0 {
            total.add(sign * (rest & 0xffff_ffff) as f64 * scale);
            rest >>= 32;
            scale *= 4_294_967_296.0;
        }
        total.to_f64()
    }

    fn finish(self, func: AggregateFunc) -> Result<Value, String> {
        Ok(match func {
            AggregateFunc::Min => self.min.unwrap_or(Value::Null),
            AggregateFunc::Max => self.max.unwrap_or(Value::Null),
            // `COUNT(*)` counts rows, `COUNT(expr)` non-NULL terms: one of the two.
            AggregateFunc::Count => Value::Int((self.rows + self.terms) as i64),
            _ if self.numeric == 0 => Value::Null,
            AggregateFunc::Sum if self.any_float => Value::Float(self.float_total()),
            AggregateFunc::Sum => Value::Int(
                i64::try_from(self.ints).map_err(|_| format!("integer SUM {} overflows", self.ints))?,
            ),
            AggregateFunc::Avg => Value::Float(self.float_total() / self.numeric as f64),
        })
    }
}
