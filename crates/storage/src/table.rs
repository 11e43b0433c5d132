//! Tables: a schema, typed column chunks, and secondary indexes.
//!
//! Since the columnar refactor a table stores one [`ColumnData`] per schema column —
//! native vectors for ints/floats/bools, dictionary codes for text — instead of a
//! `Vec<Row>` heap. Row ids are positions in append order, exactly as before;
//! [`Table::row`] decodes one row on demand and [`Table::scan_range`] hands a scan a
//! columnar batch without decoding anything. Per-column [`ColumnMeta`] (NULL count,
//! min/max, byte width) is maintained on every append so ANALYZE and the cost model
//! can read it instead of rescanning.

use crate::column::{ColumnBatch, ColumnData, ColumnMeta};
use crate::error::StorageError;
use crate::index::{Index, IndexKind};
use crate::row::{Row, RowId};
use crate::schema::Schema;
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Range;

/// An in-memory columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<ColumnData>,
    meta: Vec<ColumnMeta>,
    row_count: usize,
    indexes: BTreeMap<String, Index>,
    temporary: bool,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .columns()
            .iter()
            .map(|c| ColumnData::new_for(c.data_type()))
            .collect();
        let meta = schema.columns().iter().map(|_| ColumnMeta::default()).collect();
        Self {
            name: name.into().to_ascii_lowercase(),
            schema,
            columns,
            meta,
            row_count: 0,
            indexes: BTreeMap::new(),
            temporary: false,
        }
    }

    /// Create a table pre-populated with rows (no schema validation per row; use
    /// [`Table::push_row`] when validation matters).
    pub fn with_rows(name: impl Into<String>, schema: Schema, rows: Vec<Row>) -> Self {
        let mut table = Self::new(name, schema);
        for row in rows {
            table.push_row_unchecked(row);
        }
        table
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether this table is a temporary table created during re-optimization.
    pub fn is_temporary(&self) -> bool {
        self.temporary
    }

    /// Mark or unmark the table as temporary.
    pub fn set_temporary(&mut self, temporary: bool) {
        self.temporary = temporary;
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// The stored column chunks, in schema order.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// One stored column chunk.
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// Incrementally maintained metadata for one column.
    pub fn column_meta(&self, idx: usize) -> &ColumnMeta {
        &self.meta[idx]
    }

    /// The exact value at (`row`, `col`), decoded on demand.
    pub fn value_at(&self, row: RowId, col: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Decode a single row by id.
    pub fn row(&self, id: RowId) -> Option<Row> {
        if id >= self.row_count {
            return None;
        }
        Some(Row::from_values(
            self.columns.iter().map(|c| c.value_at(id)).collect(),
        ))
    }

    /// Iterate over all rows, decoding each in append order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.row_count).map(move |id| {
            Row::from_values(self.columns.iter().map(|c| c.value_at(id)).collect())
        })
    }

    /// Decode every row (tests and one-off consumers; hot paths should use
    /// [`Table::scan_range`]).
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter_rows().collect()
    }

    /// A columnar batch of the listed columns (ordinals, in the listed order) over the
    /// rows in `range` (end clamped to the row count). Only those columns are copied:
    /// native values and codes are copied, string dictionaries shared by `Arc`. An
    /// empty column list yields a batch that carries just the row count.
    pub fn scan_range(&self, range: Range<usize>, columns: &[usize]) -> ColumnBatch {
        let start = range.start.min(self.row_count);
        let end = range.end.min(self.row_count);
        let range = start..end.max(start);
        ColumnBatch::new(
            columns
                .iter()
                .map(|&c| self.columns[c].slice(range.clone()))
                .collect(),
            range.len(),
        )
    }

    /// Average row width in bytes (exact, from per-column byte sums maintained on
    /// append; used by ANALYZE / cost model).
    pub fn average_row_width(&self) -> usize {
        if self.row_count == 0 {
            return self.schema.nominal_width();
        }
        let total: u64 = self.meta.iter().map(|m| m.byte_sum).sum();
        ((total / self.row_count as u64) as usize).max(1)
    }

    /// Validate a row against the schema and append it, maintaining all indexes.
    pub fn push_row(&mut self, row: Row) -> Result<RowId, StorageError> {
        if row.len() != self.schema.len() {
            return Err(StorageError::SchemaMismatch {
                detail: format!(
                    "table '{}' expects {} columns, row has {}",
                    self.name,
                    self.schema.len(),
                    row.len()
                ),
            });
        }
        for (idx, value) in row.values().iter().enumerate() {
            if let Some(value_type) = value.data_type() {
                let column = self.schema.column(idx).expect("column exists");
                if !value_type.coercible_to(column.data_type()) {
                    return Err(StorageError::SchemaMismatch {
                        detail: format!(
                            "column '{}' of table '{}' has type {}, got {}",
                            column.name(),
                            self.name,
                            column.data_type(),
                            value_type
                        ),
                    });
                }
            }
        }
        Ok(self.push_row_unchecked(row))
    }

    /// Append many rows with validation.
    pub fn push_rows(&mut self, rows: Vec<Row>) -> Result<(), StorageError> {
        for row in rows {
            self.push_row(row)?;
        }
        Ok(())
    }

    /// Append a row without validation (bulk-load path used by data generators).
    pub fn push_row_unchecked(&mut self, row: Row) -> RowId {
        let row_id = self.row_count;
        // A short row (only possible through the unchecked path) is padded with NULLs
        // so every column keeps one entry per row id.
        for index in self.indexes.values_mut() {
            let key = row.values().get(index.column()).unwrap_or(&Value::Null);
            index.insert(key, row_id);
        }
        for (idx, column) in self.columns.iter_mut().enumerate() {
            let value = row.values().get(idx).cloned().unwrap_or(Value::Null);
            self.meta[idx].observe(&value);
            column.push(value);
        }
        self.row_count += 1;
        row_id
    }

    /// Create an index over a column (by name). Fails if the name is taken or the column
    /// does not exist.
    pub fn create_index(
        &mut self,
        index_name: impl Into<String>,
        column_name: &str,
        kind: IndexKind,
    ) -> Result<(), StorageError> {
        let index_name = index_name.into().to_ascii_lowercase();
        if self.indexes.contains_key(&index_name) {
            return Err(StorageError::IndexExists(index_name));
        }
        let column = self.schema.index_of(None, column_name)?;
        let index = Index::from_column(kind, index_name.clone(), column, &self.columns[column]);
        self.indexes.insert(index_name, index);
        Ok(())
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, index_name: &str) -> Result<(), StorageError> {
        self.indexes
            .remove(&index_name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| StorageError::IndexNotFound(index_name.to_string()))
    }

    /// All indexes on this table.
    pub fn indexes(&self) -> impl Iterator<Item = &Index> {
        self.indexes.values()
    }

    /// The first index (if any) over the given column ordinal, preferring B-trees when
    /// `need_range` is set.
    pub fn index_on_column(&self, column: usize, need_range: bool) -> Option<&Index> {
        let mut fallback = None;
        for index in self.indexes.values() {
            if index.column() != column {
                continue;
            }
            if need_range {
                if index.supports_range() {
                    return Some(index);
                }
            } else {
                if matches!(index.kind(), IndexKind::Hash) {
                    return Some(index);
                }
                fallback = Some(index);
            }
        }
        if need_range {
            None
        } else {
            fallback
        }
    }

    /// Whether any index exists on the given column ordinal.
    pub fn has_index_on(&self, column: usize) -> bool {
        self.indexes.values().any(|i| i.column() == column)
    }

    /// Total number of distinct non-NULL values in a column, computed exactly.
    /// For dictionary-coded text columns this is just the dictionary size; other
    /// encodings scan. Used by tests and by the perfect-cardinality oracle; ANALYZE
    /// uses sampling.
    pub fn exact_distinct(&self, column: usize) -> usize {
        match &self.columns[column] {
            ColumnData::Dict { dict, .. } => dict.len(),
            data => {
                let mut seen: std::collections::HashSet<Value> = std::collections::HashSet::new();
                for id in 0..data.len() {
                    let v = data.value_at(id);
                    if !v.is_null() {
                        seen.insert(v);
                    }
                }
                seen.len()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn title_table() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("title", DataType::Text),
            Column::new("production_year", DataType::Int),
        ]);
        Table::new("title", schema)
    }

    #[test]
    fn push_row_validates_arity() {
        let mut t = title_table();
        let err = t
            .push_row(Row::from_values(vec![Value::Int(1)]))
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn push_row_validates_types() {
        let mut t = title_table();
        let err = t
            .push_row(Row::from_values(vec![
                Value::from("not an int"),
                Value::from("x"),
                Value::Int(2000),
            ]))
            .unwrap_err();
        assert!(err.to_string().contains("has type int"));
    }

    #[test]
    fn push_row_accepts_nulls_and_int_to_float() {
        let schema = Schema::new(vec![Column::new("score", DataType::Float)]);
        let mut t = Table::new("scores", schema);
        t.push_row(Row::from_values(vec![Value::Int(3)])).unwrap();
        t.push_row(Row::from_values(vec![Value::Null])).unwrap();
        assert_eq!(t.row_count(), 2);
        // Exact decode fidelity: the Int stays an Int even in a Float column (the
        // column silently promotes to the exact-value encoding).
        assert_eq!(t.row(0).unwrap().values(), &[Value::Int(3)]);
        assert_eq!(t.row(1).unwrap().values(), &[Value::Null]);
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let mut t = title_table();
        for i in 0..5 {
            t.push_row(Row::from_values(vec![
                Value::Int(i),
                if i == 2 { Value::Null } else { Value::from(format!("movie {i}")) },
                Value::Int(1990 + i),
            ]))
            .unwrap();
        }
        assert_eq!(t.row(2).unwrap().values()[1], Value::Null);
        assert_eq!(t.row(4).unwrap().values()[1], Value::from("movie 4"));
        assert!(t.row(5).is_none());
        assert_eq!(t.to_rows().len(), 5);
        assert_eq!(t.iter_rows().count(), 5);
        assert_eq!(t.value_at(3, 2), Value::Int(1993));
    }

    #[test]
    fn scan_range_slices_and_clamps() {
        let mut t = title_table();
        for i in 0..10 {
            t.push_row(Row::from_values(vec![
                Value::Int(i),
                Value::from("x"),
                Value::Int(2000),
            ]))
            .unwrap();
        }
        let all: Vec<usize> = (0..t.schema().len()).collect();
        let batch = t.scan_range(3..6, &all);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.value_at(0, 0), Value::Int(3));
        // Oversized and empty ranges clamp instead of panicking (the morsel cursor
        // can overshoot the last chunk).
        assert_eq!(t.scan_range(8..100, &all).len(), 2);
        assert_eq!(t.scan_range(20..30, &all).len(), 0);
        assert_eq!(t.scan_range(4..4, &all).len(), 0);
        // Batch-size-1 split.
        assert_eq!(t.scan_range(9..10, &all).len(), 1);
        // Only the listed columns are sliced, in the listed order; none at all
        // still carries the row count.
        let narrow = t.scan_range(3..6, &[2, 0]);
        assert_eq!(narrow.column_count(), 2);
        assert_eq!(narrow.value_at(0, 1), Value::Int(3));
        let counted = t.scan_range(3..6, &[]);
        assert_eq!((counted.column_count(), counted.len()), (0, 3));
    }

    #[test]
    fn column_meta_is_maintained_on_append() {
        let mut t = title_table();
        for (id, year) in [(4, 1994), (1, 1991), (3, 1993)] {
            t.push_row(Row::from_values(vec![
                Value::Int(id),
                Value::Null,
                Value::Int(year),
            ]))
            .unwrap();
        }
        assert_eq!(t.column_meta(0).min, Some(Value::Int(1)));
        assert_eq!(t.column_meta(0).max, Some(Value::Int(4)));
        assert_eq!(t.column_meta(1).null_count, 3);
        assert_eq!(t.column_meta(2).max, Some(Value::Int(1994)));
    }

    #[test]
    fn index_creation_and_maintenance() {
        let mut t = title_table();
        for i in 0..10 {
            t.push_row(Row::from_values(vec![
                Value::Int(i),
                Value::from(format!("movie {i}")),
                Value::Int(1990 + (i % 5)),
            ]))
            .unwrap();
        }
        t.create_index("title_year", "production_year", IndexKind::BTree)
            .unwrap();
        // New inserts must be reflected by the index.
        t.push_row(Row::from_values(vec![
            Value::Int(10),
            Value::from("movie 10"),
            Value::Int(1991),
        ]))
        .unwrap();
        let idx = t.index_on_column(2, true).unwrap();
        assert_eq!(idx.lookup(&Value::Int(1991)).len(), 3);
        assert!(t.has_index_on(2));
        assert!(!t.has_index_on(1));
    }

    #[test]
    fn push_rows_keeps_every_index_exact() {
        let mut t = title_table();
        let row = |id: i64, title: &str, year: Option<i64>| {
            Row::from_values(vec![Value::Int(id), Value::from(title), Value::from(year)])
        };
        t.push_rows((0..6).map(|i| row(i, "a", Some(2000 + i % 3))).collect())
            .unwrap();
        t.create_index("title_year", "production_year", IndexKind::BTree)
            .unwrap();
        t.create_index("title_name", "title", IndexKind::Hash).unwrap();
        // Rows before an invalid one are appended (and indexed); the rest are not.
        let bad = Row::from_values(vec![Value::from("x"), Value::from("b"), Value::Int(1)]);
        let late = row(9, "c", Some(2001));
        assert!(t.push_rows(vec![row(6, "b", Some(2001)), bad, late]).is_err());
        assert_eq!(t.row_count(), 7);
        t.push_rows(vec![row(7, "a", None), row(8, "b", Some(1999))])
            .unwrap();
        let years = t.index_on_column(2, true).unwrap();
        assert!(years.is_int_keyed());
        assert_eq!(years.lookup(&Value::Int(2001)), &[1, 4, 6]);
        assert_eq!(years.lookup_int(1999), &[8]);
        assert_eq!(years.entry_count(), 8);
        let names = t.index_on_column(1, false).unwrap();
        assert_eq!(names.lookup(&Value::from("b")), &[6, 8]);
        assert_eq!(names.lookup(&Value::from("a")).len(), 7);
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut t = title_table();
        t.create_index("ix", "id", IndexKind::Hash).unwrap();
        assert!(matches!(
            t.create_index("ix", "id", IndexKind::Hash),
            Err(StorageError::IndexExists(_))
        ));
        t.drop_index("ix").unwrap();
        assert!(matches!(
            t.drop_index("ix"),
            Err(StorageError::IndexNotFound(_))
        ));
    }

    #[test]
    fn index_on_column_prefers_right_kind() {
        let mut t = title_table();
        t.create_index("hash_id", "id", IndexKind::Hash).unwrap();
        t.create_index("btree_id", "id", IndexKind::BTree).unwrap();
        assert_eq!(
            t.index_on_column(0, false).unwrap().kind(),
            IndexKind::Hash
        );
        assert_eq!(t.index_on_column(0, true).unwrap().kind(), IndexKind::BTree);
        assert!(t.index_on_column(1, false).is_none());
    }

    #[test]
    fn exact_distinct_ignores_nulls() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let mut t = Table::new("t", schema);
        for v in [Value::Int(1), Value::Int(1), Value::Int(2), Value::Null] {
            t.push_row(Row::from_values(vec![v])).unwrap();
        }
        assert_eq!(t.exact_distinct(0), 2);
    }

    #[test]
    fn exact_distinct_reads_text_from_the_dictionary() {
        let schema = Schema::new(vec![Column::new("s", DataType::Text)]);
        let mut t = Table::new("t", schema);
        for v in ["a", "b", "a", "c"] {
            t.push_row(Row::from_values(vec![Value::from(v)])).unwrap();
        }
        t.push_row(Row::from_values(vec![Value::Null])).unwrap();
        assert_eq!(t.exact_distinct(0), 3);
    }

    #[test]
    fn average_row_width_has_floor() {
        let t = title_table();
        assert!(t.average_row_width() > 0);
    }

    #[test]
    fn temporary_flag_roundtrip() {
        let mut t = title_table();
        assert!(!t.is_temporary());
        t.set_temporary(true);
        assert!(t.is_temporary());
    }
}
