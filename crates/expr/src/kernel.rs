//! Vectorized filter kernels over columnar batches.
//!
//! [`filter_mask`] evaluates a predicate against a [`ColumnBatch`] with tight typed
//! loops — `i64`/`f64` comparisons over native vectors and `u32` code comparisons or
//! cached per-code truth tables over dictionary columns — instead of decoding rows and
//! dispatching on boxed [`Value`]s.
//!
//! The kernels support only *total* predicate shapes: sub-expressions that can never
//! raise an evaluation error (no arithmetic, no `LIKE` on non-text columns, no `NOT`).
//! Anything else returns `None` and the caller falls back to row-wise
//! [`Expr::eval_predicate`], which preserves the engine's error behavior exactly. For
//! supported shapes the mask is bit-for-bit identical to the row-wise result: SQL
//! three-valued logic collapses NULL to "reject" at the WHERE clause, and under that
//! collapse `AND`/`OR` compose as plain boolean `&`/`|` (`NULL AND x` rejects unless
//! `x` rejects first either way; `NULL OR x` keeps exactly when `x` keeps).
//!
//! Dictionary columns get two strategies:
//!
//! * `=` / `<>` against a text literal resolve the literal to a code once per batch
//!   and compare codes.
//! * Ordering comparisons, `IN` lists and `LIKE` build a per-code truth table — one
//!   row-wise evaluation per *distinct string* — cached in a [`MaskCache`] keyed by
//!   (predicate node, dictionary allocation), so repeated batches over the same table
//!   reuse it.

use crate::expr::{BinaryOp, Expr};
use crate::like::like_match;
use reopt_storage::{Bitmap, ColumnBatch, ColumnData, StringDict, Value, NULL_CODE};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache of per-code truth tables for dictionary-encoded predicates.
///
/// Keyed by the address of the predicate node and the address of the dictionary
/// allocation; the cached entry holds an `Arc` to the dictionary so the allocation
/// (and therefore the key) cannot be reused while the entry is alive. One cache is
/// expected to live as long as the operator that owns the predicate; a clone serves
/// the same predicate nodes (a scan's workers start from its compile-time probe's).
#[derive(Debug, Default, Clone)]
pub struct MaskCache {
    tables: HashMap<(usize, usize), CachedTruth>,
}

#[derive(Debug, Clone)]
struct CachedTruth {
    /// Pins the dictionary allocation so the pointer key stays unambiguous.
    _dict: Arc<StringDict>,
    /// Truth value per dictionary code (NULL rows are always false).
    truth: Vec<bool>,
}

impl MaskCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached truth tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether no truth table is cached.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Look up or build the truth table for (`key`, `dict`).
    fn truth_table(
        &mut self,
        key: usize,
        dict: &Arc<StringDict>,
        build: impl Fn(&str) -> bool,
    ) -> &[bool] {
        let entry = self
            .tables
            .entry((key, Arc::as_ptr(dict) as usize))
            .or_insert_with(|| CachedTruth {
                _dict: Arc::clone(dict),
                truth: dict.values().iter().map(|s| build(s)).collect(),
            });
        &entry.truth
    }
}

/// Evaluate `expr` as a WHERE-clause mask over `batch`: `mask[i]` is whether row `i`
/// passes (NULL collapses to false, as in [`Expr::eval_predicate`]).
///
/// Returns `None` when the predicate shape is not kernel-supported; the caller must
/// then fall back to row-wise evaluation. `Some` masks are exact — same kept rows,
/// and no errors are possible for supported shapes.
pub fn filter_mask(expr: &Expr, batch: &ColumnBatch, cache: &mut MaskCache) -> Option<Vec<bool>> {
    let key = expr as *const Expr as usize;
    match expr {
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => {
                let mut mask = filter_mask(left, batch, cache)?;
                let rhs = filter_mask(right, batch, cache)?;
                for (m, r) in mask.iter_mut().zip(rhs) {
                    *m &= r;
                }
                Some(mask)
            }
            BinaryOp::Or => {
                let mut mask = filter_mask(left, batch, cache)?;
                let rhs = filter_mask(right, batch, cache)?;
                for (m, r) in mask.iter_mut().zip(rhs) {
                    *m |= r;
                }
                Some(mask)
            }
            op if op.is_comparison() => {
                if let (Some(idx), Some(lit)) = (bound_index(left), right.as_literal()) {
                    cmp_mask(*op, batch.column(idx), lit, key, cache)
                } else if let (Some(lit), Some(idx)) = (left.as_literal(), bound_index(right)) {
                    cmp_mask(op.swap_operands(), batch.column(idx), lit, key, cache)
                } else {
                    None
                }
            }
            _ => None,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => in_list_mask(batch.column(bound_index(expr)?), list, *negated, key, cache),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let column = batch.column(bound_index(expr)?);
            let (low, high) = (low.as_literal()?, high.as_literal()?);
            if low.is_null() || high.is_null() {
                return None;
            }
            between_mask(column, low, high, *negated)
        }
        Expr::IsNull { expr, negated } => Some(is_null_mask(batch.column(bound_index(expr)?), *negated)),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => match batch.column(bound_index(expr)?) {
            ColumnData::Dict { codes, dict } => {
                let truth = cache.truth_table(key, dict, |s| like_match(s, pattern) != *negated);
                Some(codes.iter().map(|&c| c != NULL_CODE && truth[c as usize]).collect())
            }
            _ => None,
        },
        _ => None,
    }
}

/// The input ordinal of a bound column reference, if that is what `expr` is.
fn bound_index(expr: &Expr) -> Option<usize> {
    match expr {
        Expr::BoundColumn { index, .. } => Some(*index),
        _ => None,
    }
}

/// Whether a comparison outcome passes under `op`.
fn keep(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("non-comparison operator"),
    }
}

/// [`Value::total_cmp`] of a native `i64` against a non-NULL literal.
fn int_ord(a: i64, lit: &Value) -> Ordering {
    match lit {
        Value::Int(b) => a.cmp(b),
        Value::Float(b) => (a as f64).total_cmp(b),
        Value::Bool(_) => Ordering::Greater,
        Value::Text(_) => Ordering::Less,
        Value::Null => unreachable!("callers reject NULL literals"),
    }
}

/// [`Value::total_cmp`] of a native `f64` against a non-NULL literal.
fn float_ord(a: f64, lit: &Value) -> Ordering {
    match lit {
        Value::Int(b) => a.total_cmp(&(*b as f64)),
        Value::Float(b) => a.total_cmp(b),
        Value::Bool(_) => Ordering::Greater,
        Value::Text(_) => Ordering::Less,
        Value::Null => unreachable!("callers reject NULL literals"),
    }
}

/// [`Value::total_cmp`] of a dictionary string against a non-NULL literal.
fn text_ord(s: &str, lit: &Value) -> Ordering {
    match lit {
        Value::Text(t) => s.cmp(t),
        Value::Int(_) | Value::Float(_) | Value::Bool(_) => Ordering::Greater,
        Value::Null => unreachable!("callers reject NULL literals"),
    }
}

/// Comparison mask `column op lit` (NULL rows and NULL literals are false).
fn cmp_mask(
    op: BinaryOp,
    column: &ColumnData,
    lit: &Value,
    key: usize,
    cache: &mut MaskCache,
) -> Option<Vec<bool>> {
    if lit.is_null() {
        // `col op NULL` is NULL for every row, which a WHERE clause rejects.
        return Some(vec![false; column.len()]);
    }
    match column {
        ColumnData::Int { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &a)| validity.get(i) && keep(op, int_ord(a, lit)))
                .collect(),
        ),
        ColumnData::Float { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &a)| validity.get(i) && keep(op, float_ord(a, lit)))
                .collect(),
        ),
        ColumnData::Dict { codes, dict } => {
            if matches!(op, BinaryOp::Eq | BinaryOp::NotEq) {
                if let Value::Text(t) = lit {
                    // Resolve the literal to a code once and compare codes.
                    let target = dict.lookup(t);
                    let mask = codes
                        .iter()
                        .map(|&c| {
                            c != NULL_CODE && (Some(c) == target) == (op == BinaryOp::Eq)
                        })
                        .collect();
                    return Some(mask);
                }
            }
            let truth = cache.truth_table(key, dict, |s| keep(op, text_ord(s, lit)));
            Some(codes.iter().map(|&c| c != NULL_CODE && truth[c as usize]).collect())
        }
        ColumnData::Bool { .. } | ColumnData::Val(_) => None,
    }
}

/// `IN` / `NOT IN` result for one non-NULL probe outcome, mirroring the row-wise
/// evaluator: found → `!negated`; not found but the list holds a NULL → NULL (reject);
/// otherwise `negated`.
fn in_list_result(found: bool, list_has_null: bool, negated: bool) -> bool {
    if found {
        !negated
    } else if list_has_null {
        false
    } else {
        negated
    }
}

/// `IN`-list mask over a column (NULL rows are false).
fn in_list_mask(
    column: &ColumnData,
    list: &[Value],
    negated: bool,
    key: usize,
    cache: &mut MaskCache,
) -> Option<Vec<bool>> {
    let list_has_null = list.iter().any(Value::is_null);
    match column {
        ColumnData::Int { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    validity.get(i) && {
                        let found = list
                            .iter()
                            .any(|v| !v.is_null() && int_ord(a, v) == Ordering::Equal);
                        in_list_result(found, list_has_null, negated)
                    }
                })
                .collect(),
        ),
        ColumnData::Float { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    validity.get(i) && {
                        let found = list
                            .iter()
                            .any(|v| !v.is_null() && float_ord(a, v) == Ordering::Equal);
                        in_list_result(found, list_has_null, negated)
                    }
                })
                .collect(),
        ),
        ColumnData::Dict { codes, dict } => {
            let truth = cache.truth_table(key, dict, |s| {
                let found = list
                    .iter()
                    .any(|v| !v.is_null() && text_ord(s, v) == Ordering::Equal);
                in_list_result(found, list_has_null, negated)
            });
            Some(codes.iter().map(|&c| c != NULL_CODE && truth[c as usize]).collect())
        }
        ColumnData::Bool { .. } | ColumnData::Val(_) => None,
    }
}

/// `BETWEEN` mask over numeric columns with non-NULL literal bounds.
fn between_mask(
    column: &ColumnData,
    low: &Value,
    high: &Value,
    negated: bool,
) -> Option<Vec<bool>> {
    match column {
        ColumnData::Int { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    validity.get(i) && {
                        let in_range = int_ord(a, low) != Ordering::Less
                            && int_ord(a, high) != Ordering::Greater;
                        in_range != negated
                    }
                })
                .collect(),
        ),
        ColumnData::Float { values, validity } => Some(
            values
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    validity.get(i) && {
                        let in_range = float_ord(a, low) != Ordering::Less
                            && float_ord(a, high) != Ordering::Greater;
                        in_range != negated
                    }
                })
                .collect(),
        ),
        _ => None,
    }
}

/// `IS [NOT] NULL` mask (total for every column representation).
fn is_null_mask(column: &ColumnData, negated: bool) -> Vec<bool> {
    fn from_validity(validity: &Bitmap, negated: bool) -> Vec<bool> {
        (0..validity.len()).map(|i| validity.get(i) == negated).collect()
    }
    match column {
        ColumnData::Int { validity, .. }
        | ColumnData::Float { validity, .. }
        | ColumnData::Bool { validity, .. } => from_validity(validity, negated),
        ColumnData::Dict { codes, .. } => codes
            .iter()
            .map(|&c| (c == NULL_CODE) != negated)
            .collect(),
        ColumnData::Val(values) => values.iter().map(|v| v.is_null() != negated).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_storage::{Column, DataType, Row, Schema};

    /// Build a columnar batch plus the equivalent rows for oracle comparison.
    fn sample() -> (Schema, ColumnBatch, Vec<Row>) {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("rating", DataType::Float),
            Column::new("genre", DataType::Text),
            Column::new("flag", DataType::Bool),
        ])
        .qualified("t");
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(7.5), Value::from("drama"), Value::Bool(true)],
            vec![Value::Int(2), Value::Null, Value::from("comedy"), Value::Bool(false)],
            vec![Value::Null, Value::Float(3.0), Value::Null, Value::Null],
            vec![Value::Int(4), Value::Float(9.1), Value::from(""), Value::Bool(true)],
            vec![Value::Int(5), Value::Float(7.5), Value::from("drama"), Value::Null],
        ]
        .into_iter()
        .map(Row::from_values)
        .collect();
        let mut columns: Vec<ColumnData> = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new_for(c.data_type()))
            .collect();
        for row in &rows {
            for (idx, column) in columns.iter_mut().enumerate() {
                column.push(row.value(idx).clone());
            }
        }
        let len = rows.len();
        (schema, ColumnBatch::new(columns, len), rows)
    }

    /// Assert the kernel mask matches row-wise `eval_predicate` exactly.
    fn assert_mask_matches_rows(expr: Expr) {
        let (schema, batch, rows) = sample();
        let bound = expr.bind(&schema).unwrap();
        let mut cache = MaskCache::new();
        let mask = filter_mask(&bound, &batch, &mut cache)
            .unwrap_or_else(|| panic!("kernel rejected {}", bound.to_sql()));
        let oracle: Vec<bool> = rows
            .iter()
            .map(|r| bound.eval_predicate(r).unwrap())
            .collect();
        assert_eq!(mask, oracle, "mask mismatch for {}", bound.to_sql());
    }

    #[test]
    fn comparisons_match_row_wise_evaluation() {
        for op in [
            BinaryOp::Eq,
            BinaryOp::NotEq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
        ] {
            assert_mask_matches_rows(Expr::binary(op, Expr::col("t", "id"), Expr::lit(2)));
            assert_mask_matches_rows(Expr::binary(op, Expr::col("t", "rating"), Expr::lit(7.5)));
            assert_mask_matches_rows(Expr::binary(op, Expr::col("t", "genre"), Expr::lit("drama")));
            // Literal-on-the-left normalizes by swapping the operator.
            assert_mask_matches_rows(Expr::binary(op, Expr::lit(2), Expr::col("t", "id")));
        }
    }

    #[test]
    fn cross_type_literals_follow_total_order() {
        // Int column vs float and text literals; text column vs int literal.
        assert_mask_matches_rows(Expr::binary(BinaryOp::Eq, Expr::col("t", "id"), Expr::lit(2.0)));
        assert_mask_matches_rows(Expr::binary(BinaryOp::Lt, Expr::col("t", "id"), Expr::lit("a")));
        assert_mask_matches_rows(Expr::binary(BinaryOp::Gt, Expr::col("t", "genre"), Expr::lit(0)));
        assert_mask_matches_rows(Expr::binary(BinaryOp::Lt, Expr::col("t", "rating"), Expr::lit(8)));
    }

    #[test]
    fn null_literal_comparison_rejects_every_row() {
        let (schema, batch, _) = sample();
        let e = Expr::binary(BinaryOp::Eq, Expr::col("t", "id"), Expr::Literal(Value::Null))
            .bind(&schema)
            .unwrap();
        let mask = filter_mask(&e, &batch, &mut MaskCache::new()).unwrap();
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn and_or_compose_under_null_collapse() {
        assert_mask_matches_rows(Expr::and(
            Expr::binary(BinaryOp::Gt, Expr::col("t", "id"), Expr::lit(1)),
            Expr::binary(BinaryOp::Lt, Expr::col("t", "rating"), Expr::lit(9.0)),
        ));
        assert_mask_matches_rows(Expr::or(
            Expr::eq(Expr::col("t", "genre"), Expr::lit("comedy")),
            Expr::binary(BinaryOp::GtEq, Expr::col("t", "rating"), Expr::lit(9.0)),
        ));
    }

    #[test]
    fn in_lists_match_row_wise_evaluation() {
        for negated in [false, true] {
            assert_mask_matches_rows(Expr::InList {
                expr: Box::new(Expr::col("t", "id")),
                list: vec![Value::Int(1), Value::Float(4.0)],
                negated,
            });
            // NULL in the list: NOT IN rejects everything, IN behaves as usual.
            assert_mask_matches_rows(Expr::InList {
                expr: Box::new(Expr::col("t", "id")),
                list: vec![Value::Int(1), Value::Null],
                negated,
            });
            assert_mask_matches_rows(Expr::InList {
                expr: Box::new(Expr::col("t", "genre")),
                list: vec![Value::from("drama"), Value::from("")],
                negated,
            });
        }
    }

    #[test]
    fn between_matches_row_wise_evaluation() {
        for negated in [false, true] {
            assert_mask_matches_rows(Expr::Between {
                expr: Box::new(Expr::col("t", "id")),
                low: Box::new(Expr::lit(2)),
                high: Box::new(Expr::lit(4)),
                negated,
            });
            assert_mask_matches_rows(Expr::Between {
                expr: Box::new(Expr::col("t", "rating")),
                low: Box::new(Expr::lit(3.5)),
                high: Box::new(Expr::lit(8)),
                negated,
            });
        }
    }

    #[test]
    fn is_null_supports_every_column_kind() {
        for negated in [false, true] {
            for col in ["id", "rating", "genre", "flag"] {
                assert_mask_matches_rows(Expr::IsNull {
                    expr: Box::new(Expr::col("t", col)),
                    negated,
                });
            }
        }
    }

    #[test]
    fn like_runs_on_dictionary_columns_only() {
        for negated in [false, true] {
            assert_mask_matches_rows(Expr::Like {
                expr: Box::new(Expr::col("t", "genre")),
                pattern: "%dram%".into(),
                negated,
            });
        }
        // LIKE on an int column can raise a type error row-wise; the kernel refuses.
        let (schema, batch, _) = sample();
        let e = Expr::Like {
            expr: Box::new(Expr::col("t", "id")),
            pattern: "%1%".into(),
            negated: false,
        }
        .bind(&schema)
        .unwrap();
        assert!(filter_mask(&e, &batch, &mut MaskCache::new()).is_none());
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let (schema, batch, _) = sample();
        let mut cache = MaskCache::new();
        // NOT is not mask-composable under the NULL collapse.
        let e = Expr::Not(Box::new(Expr::eq(Expr::col("t", "id"), Expr::lit(1))))
            .bind(&schema)
            .unwrap();
        assert!(filter_mask(&e, &batch, &mut cache).is_none());
        // Column-vs-column comparisons are join territory, not scan kernels.
        let e = Expr::eq(Expr::col("t", "id"), Expr::col("t", "rating"))
            .bind(&schema)
            .unwrap();
        assert!(filter_mask(&e, &batch, &mut cache).is_none());
        // Arithmetic can raise division-by-zero; the kernel refuses.
        let e = Expr::binary(
            BinaryOp::Gt,
            Expr::binary(BinaryOp::Div, Expr::col("t", "id"), Expr::lit(0)),
            Expr::lit(0),
        )
        .bind(&schema)
        .unwrap();
        assert!(filter_mask(&e, &batch, &mut cache).is_none());
        // Bool columns only support IS NULL.
        let e = Expr::eq(Expr::col("t", "flag"), Expr::lit(true)).bind(&schema).unwrap();
        assert!(filter_mask(&e, &batch, &mut cache).is_none());
    }

    #[test]
    fn truth_tables_are_cached_per_predicate_and_dictionary() {
        let (schema, batch, _) = sample();
        let e = Expr::Like {
            expr: Box::new(Expr::col("t", "genre")),
            pattern: "%a%".into(),
            negated: false,
        }
        .bind(&schema)
        .unwrap();
        let mut cache = MaskCache::new();
        let first = filter_mask(&e, &batch, &mut cache).unwrap();
        assert_eq!(cache.tables.len(), 1);
        let second = filter_mask(&e, &batch, &mut cache).unwrap();
        assert_eq!(cache.tables.len(), 1, "same batch must reuse the table");
        assert_eq!(first, second);
    }

    #[test]
    fn empty_batch_probes_report_support() {
        // Operators probe kernel support with an empty batch at construction time.
        let (schema, _, _) = sample();
        let batch = ColumnBatch::empty_for(&schema);
        let e = Expr::eq(Expr::col("t", "genre"), Expr::lit("drama"))
            .bind(&schema)
            .unwrap();
        let mask = filter_mask(&e, &batch, &mut MaskCache::new()).unwrap();
        assert!(mask.is_empty());
    }
}
