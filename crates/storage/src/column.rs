//! Typed column storage: native vectors with validity bitmaps, dictionary-coded text.
//!
//! One [`ColumnData`] holds every value of one column, in row-id order. The same enum
//! is the unit of columnar *batches* ([`ColumnBatch`]): a scan slices each table
//! column over a row range (copying native values and codes, sharing the string
//! dictionary by `Arc`), and downstream kernels run tight typed loops over the
//! vectors instead of dispatching on boxed [`Value`]s per row.
//!
//! Encodings:
//!
//! * `Int` / `Float` / `Bool` — native vectors plus a validity [`Bitmap`]; a NULL row
//!   stores a default payload and a cleared validity bit.
//! * `Dict` — `u32` codes into an [`Arc<StringDict>`]; NULL stores [`NULL_CODE`].
//! * `Val` — a plain `Vec<Value>` escape hatch. A column is *promoted* to `Val` the
//!   first time a value arrives whose variant does not exactly match the column's
//!   native encoding (e.g. `Value::Int` pushed into a `Float` column, which the
//!   schema's `coercible_to` allows). Promotion guarantees that decoding always
//!   reproduces the exact `Value` that was stored — `Int(3)` never silently becomes
//!   `Float(3.0)` — which the engine's `SUM` typing and SQL-literal rendering rely on.

use crate::dict::{StringDict, NULL_CODE};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::ops::Range;
use std::sync::Arc;

/// A fixed-meaning bit vector: bit `i` set means row `i` is valid (non-NULL).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// The bit at `idx` (false when out of range).
    pub fn get(&self, idx: usize) -> bool {
        if idx >= self.len {
            return false;
        }
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// A new bitmap holding bits `range`, in order.
    pub fn slice(&self, range: Range<usize>) -> Bitmap {
        let mut out = Bitmap::new();
        for idx in range {
            out.push(self.get(idx));
        }
        out
    }

    /// A new bitmap holding the bits at `ids`, in that order.
    pub fn gather(&self, ids: &[usize]) -> Bitmap {
        let mut words = vec![0u64; ids.len().div_ceil(64)];
        for (bit, &id) in ids.iter().enumerate() {
            if self.get(id) {
                words[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        Bitmap {
            words,
            len: ids.len(),
        }
    }

    /// Append every bit of `other`.
    pub fn extend(&mut self, other: &Bitmap) {
        for idx in 0..other.len {
            self.push(other.get(idx));
        }
    }
}

/// All values of one column (or of one column of a batch), in row order.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Native 64-bit integers.
    Int { values: Vec<i64>, validity: Bitmap },
    /// Native 64-bit floats.
    Float { values: Vec<f64>, validity: Bitmap },
    /// Native booleans.
    Bool { values: Vec<bool>, validity: Bitmap },
    /// Dictionary-coded text; NULL rows hold [`NULL_CODE`].
    Dict {
        codes: Vec<u32>,
        dict: Arc<StringDict>,
    },
    /// Uncompressed fallback: exact `Value`s (mixed-variant columns).
    Val(Vec<Value>),
}

impl ColumnData {
    /// An empty column with the native encoding for a declared type.
    pub fn new_for(data_type: DataType) -> Self {
        match data_type {
            DataType::Int => ColumnData::Int {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Float => ColumnData::Float {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Bool => ColumnData::Bool {
                values: Vec::new(),
                validity: Bitmap::new(),
            },
            DataType::Text => ColumnData::Dict {
                codes: Vec::new(),
                dict: Arc::new(StringDict::new()),
            },
        }
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Bool { values, .. } => values.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Val(values) => values.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value, promoting the column to [`ColumnData::Val`] when the value's
    /// variant does not exactly match the native encoding (see the module docs).
    pub fn push(&mut self, value: Value) {
        match (&mut *self, value) {
            (ColumnData::Int { values, validity }, Value::Int(v)) => {
                values.push(v);
                validity.push(true);
            }
            (ColumnData::Int { values, validity }, Value::Null) => {
                values.push(0);
                validity.push(false);
            }
            (ColumnData::Float { values, validity }, Value::Float(v)) => {
                values.push(v);
                validity.push(true);
            }
            (ColumnData::Float { values, validity }, Value::Null) => {
                values.push(0.0);
                validity.push(false);
            }
            (ColumnData::Bool { values, validity }, Value::Bool(v)) => {
                values.push(v);
                validity.push(true);
            }
            (ColumnData::Bool { values, validity }, Value::Null) => {
                values.push(false);
                validity.push(false);
            }
            (ColumnData::Dict { codes, dict }, Value::Text(s)) => {
                codes.push(Arc::make_mut(dict).intern(&s));
            }
            (ColumnData::Dict { codes, .. }, Value::Null) => {
                codes.push(NULL_CODE);
            }
            (ColumnData::Val(values), value) => {
                values.push(value);
            }
            (_, value) => {
                // Variant mismatch (e.g. an Int in a Float column): decode what is
                // already stored and fall back to exact values for this column.
                let mut decoded: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
                decoded.push(value);
                *self = ColumnData::Val(decoded);
            }
        }
    }

    /// The exact stored value at `idx` (owned).
    pub fn value_at(&self, idx: usize) -> Value {
        match self {
            ColumnData::Int { values, validity } => {
                if validity.get(idx) {
                    Value::Int(values[idx])
                } else {
                    Value::Null
                }
            }
            ColumnData::Float { values, validity } => {
                if validity.get(idx) {
                    Value::Float(values[idx])
                } else {
                    Value::Null
                }
            }
            ColumnData::Bool { values, validity } => {
                if validity.get(idx) {
                    Value::Bool(values[idx])
                } else {
                    Value::Null
                }
            }
            ColumnData::Dict { codes, dict } => {
                let code = codes[idx];
                if code == NULL_CODE {
                    Value::Null
                } else {
                    Value::Text(dict.get_shared(code))
                }
            }
            ColumnData::Val(values) => values[idx].clone(),
        }
    }

    /// Whether the value at `idx` is NULL.
    pub fn is_null_at(&self, idx: usize) -> bool {
        match self {
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Bool { validity, .. } => !validity.get(idx),
            ColumnData::Dict { codes, .. } => codes[idx] == NULL_CODE,
            ColumnData::Val(values) => values[idx].is_null(),
        }
    }

    /// Number of NULL values.
    pub fn null_count(&self) -> usize {
        match self {
            ColumnData::Int { validity, .. }
            | ColumnData::Float { validity, .. }
            | ColumnData::Bool { validity, .. } => validity.len() - validity.count_set(),
            ColumnData::Dict { codes, .. } => codes.iter().filter(|&&c| c == NULL_CODE).count(),
            ColumnData::Val(values) => values.iter().filter(|v| v.is_null()).count(),
        }
    }

    /// Copy the values in `range` into a new column. Dictionary columns share the
    /// dictionary (an `Arc` clone), so slicing never re-interns strings.
    pub fn slice(&self, range: Range<usize>) -> ColumnData {
        match self {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: values[range.clone()].to_vec(),
                validity: validity.slice(range),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: values[range.clone()].to_vec(),
                validity: validity.slice(range),
            },
            ColumnData::Bool { values, validity } => ColumnData::Bool {
                values: values[range.clone()].to_vec(),
                validity: validity.slice(range),
            },
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: codes[range].to_vec(),
                dict: Arc::clone(dict),
            },
            ColumnData::Val(values) => ColumnData::Val(values[range].to_vec()),
        }
    }

    /// The values at `ids`, in that order (an id may repeat): the index nested-loop
    /// join's output columns, gathered by row id. Dictionary columns share the
    /// dictionary (an `Arc` clone), so gathering never re-interns strings.
    pub fn gather(&self, ids: &[usize]) -> ColumnData {
        match self {
            ColumnData::Int { values, validity } => ColumnData::Int {
                values: ids.iter().map(|&id| values[id]).collect(),
                validity: validity.gather(ids),
            },
            ColumnData::Float { values, validity } => ColumnData::Float {
                values: ids.iter().map(|&id| values[id]).collect(),
                validity: validity.gather(ids),
            },
            ColumnData::Bool { values, validity } => ColumnData::Bool {
                values: ids.iter().map(|&id| values[id]).collect(),
                validity: validity.gather(ids),
            },
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: ids.iter().map(|&id| codes[id]).collect(),
                dict: Arc::clone(dict),
            },
            ColumnData::Val(values) => {
                ColumnData::Val(ids.iter().map(|&id| values[id].clone()).collect())
            }
        }
    }

    /// Append the values of `other`. Two columns of one native encoding (dictionary
    /// columns: over the same dictionary) extend their vectors; any other pair falls
    /// back to exact values, like a variant mismatch on [`ColumnData::push`].
    pub fn append(&mut self, other: ColumnData) {
        match (&mut *self, other) {
            (
                ColumnData::Int { values, validity },
                ColumnData::Int {
                    values: more,
                    validity: more_validity,
                },
            ) => {
                values.extend(more);
                validity.extend(&more_validity);
            }
            (
                ColumnData::Float { values, validity },
                ColumnData::Float {
                    values: more,
                    validity: more_validity,
                },
            ) => {
                values.extend(more);
                validity.extend(&more_validity);
            }
            (
                ColumnData::Bool { values, validity },
                ColumnData::Bool {
                    values: more,
                    validity: more_validity,
                },
            ) => {
                values.extend(more);
                validity.extend(&more_validity);
            }
            (
                ColumnData::Dict { codes, dict },
                ColumnData::Dict {
                    codes: more,
                    dict: more_dict,
                },
            ) if Arc::ptr_eq(dict, &more_dict) => codes.extend(more),
            (ColumnData::Val(values), other) => {
                values.extend((0..other.len()).map(|idx| other.value_at(idx)));
            }
            (_, other) => {
                let mut values: Vec<Value> = (0..self.len()).map(|idx| self.value_at(idx)).collect();
                values.extend((0..other.len()).map(|idx| other.value_at(idx)));
                *self = ColumnData::Val(values);
            }
        }
    }

    /// Keep only the values whose mask bit is set (mask length == column length).
    pub fn filter(&self, mask: &[bool]) -> ColumnData {
        match self {
            ColumnData::Int { values, validity } => {
                let mut out_values = Vec::new();
                let mut out_validity = Bitmap::new();
                for (i, &keep) in mask.iter().enumerate() {
                    if keep {
                        out_values.push(values[i]);
                        out_validity.push(validity.get(i));
                    }
                }
                ColumnData::Int {
                    values: out_values,
                    validity: out_validity,
                }
            }
            ColumnData::Float { values, validity } => {
                let mut out_values = Vec::new();
                let mut out_validity = Bitmap::new();
                for (i, &keep) in mask.iter().enumerate() {
                    if keep {
                        out_values.push(values[i]);
                        out_validity.push(validity.get(i));
                    }
                }
                ColumnData::Float {
                    values: out_values,
                    validity: out_validity,
                }
            }
            ColumnData::Bool { values, validity } => {
                let mut out_values = Vec::new();
                let mut out_validity = Bitmap::new();
                for (i, &keep) in mask.iter().enumerate() {
                    if keep {
                        out_values.push(values[i]);
                        out_validity.push(validity.get(i));
                    }
                }
                ColumnData::Bool {
                    values: out_values,
                    validity: out_validity,
                }
            }
            ColumnData::Dict { codes, dict } => ColumnData::Dict {
                codes: codes
                    .iter()
                    .zip(mask)
                    .filter_map(|(&c, &keep)| keep.then_some(c))
                    .collect(),
                dict: Arc::clone(dict),
            },
            ColumnData::Val(values) => ColumnData::Val(
                values
                    .iter()
                    .zip(mask)
                    .filter(|&(_, &keep)| keep)
                    .map(|(v, _)| v.clone())
                    .collect(),
            ),
        }
    }

    /// Approximate decoded width in bytes of the value at `idx` (matches
    /// [`Value::width`]).
    pub fn width_at(&self, idx: usize) -> usize {
        match self {
            ColumnData::Int { validity, .. } | ColumnData::Float { validity, .. } => {
                if validity.get(idx) {
                    8
                } else {
                    1
                }
            }
            ColumnData::Bool { .. } => 1,
            ColumnData::Dict { codes, dict } => {
                let code = codes[idx];
                if code == NULL_CODE {
                    1
                } else {
                    dict.get(code).len().max(1)
                }
            }
            ColumnData::Val(values) => values[idx].width(),
        }
    }
}

/// Incrementally maintained per-column metadata: exact NULL count, min/max, and the
/// total decoded byte width. ANALYZE and the cost model read these instead of
/// rescanning (see `Table::average_row_width` and `reopt-catalog`).
#[derive(Debug, Clone, Default)]
pub struct ColumnMeta {
    /// Exact number of NULL values.
    pub null_count: u64,
    /// Smallest non-NULL value (by [`Value::total_cmp`]).
    pub min: Option<Value>,
    /// Largest non-NULL value.
    pub max: Option<Value>,
    /// Sum of [`Value::width`] over all values.
    pub byte_sum: u64,
}

impl ColumnMeta {
    /// Fold one appended value into the metadata.
    pub fn observe(&mut self, value: &Value) {
        self.byte_sum += value.width() as u64;
        if value.is_null() {
            self.null_count += 1;
            return;
        }
        if self.min.as_ref().map(|m| value < m).unwrap_or(true) {
            self.min = Some(value.clone());
        }
        if self.max.as_ref().map(|m| value > m).unwrap_or(true) {
            self.max = Some(value.clone());
        }
    }
}

/// A columnar batch: one [`ColumnData`] per output column plus the row count. The
/// columnar analogue of `RowBatch`, produced by scans and the join kernels and
/// consumed by the filter, projection, join and aggregation kernels, which read it
/// in place; decoded to rows ([`ColumnBatch::into_rows`]) only at the root
/// exchange, where the sort buffers rows, and where a spilling join writes them.
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    columns: Vec<ColumnData>,
    len: usize,
}

impl ColumnBatch {
    /// Assemble a batch of `len` rows from columns (each must hold `len` values). The
    /// row count is explicit because a batch may carry no columns at all: a scan whose
    /// parent reads no column (an unfiltered `count(*)`) still emits its rows.
    pub fn new(columns: Vec<ColumnData>, len: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Self { columns, len }
    }

    /// An empty batch shaped for `schema` (used to probe kernel support).
    pub fn empty_for(schema: &Schema) -> Self {
        Self {
            columns: schema
                .columns()
                .iter()
                .map(|c| ColumnData::new_for(c.data_type()))
                .collect(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    /// One column.
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// The exact value at (`row`, `col`), owned.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value_at(row)
    }

    /// Decode one row.
    pub fn row(&self, idx: usize) -> Row {
        Row::from_values(self.columns.iter().map(|c| c.value_at(idx)).collect())
    }

    /// Decode every row (the root-exchange / breaker materialization boundary).
    pub fn into_rows(self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// A batch of exact-value columns holding `rows` (each `width` values wide): how a
    /// row batch enters a columnar kernel.
    pub fn from_rows(rows: Vec<Row>, width: usize) -> ColumnBatch {
        let len = rows.len();
        let mut columns: Vec<Vec<Value>> = (0..width).map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            let mut values = row.into_values();
            values.resize(width, Value::Null);
            for (column, value) in columns.iter_mut().zip(values) {
                column.push(value);
            }
        }
        ColumnBatch {
            columns: columns.into_iter().map(ColumnData::Val).collect(),
            len,
        }
    }

    /// The rows in `range`, copied column by column (dictionaries shared).
    pub fn slice(&self, range: Range<usize>) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.slice(range.clone())).collect(),
            len: range.len(),
        }
    }

    /// Append the rows of `other`, which must have the same column count (see
    /// [`ColumnData::append`]).
    pub fn append(&mut self, other: ColumnBatch) {
        debug_assert_eq!(self.columns.len(), other.columns.len());
        for (column, more) in self.columns.iter_mut().zip(other.columns) {
            column.append(more);
        }
        self.len += other.len;
    }

    /// Keep only the rows whose mask bit is set.
    pub fn filter(&self, mask: &[bool]) -> ColumnBatch {
        debug_assert_eq!(mask.len(), self.len);
        let columns: Vec<ColumnData> = self.columns.iter().map(|c| c.filter(mask)).collect();
        let len = mask.iter().filter(|&&b| b).count();
        ColumnBatch { columns, len }
    }

    /// Keep only the first `count` columns (the rows are unchanged).
    pub fn truncate_columns(&mut self, count: usize) {
        self.columns.truncate(count);
    }

    /// A batch holding the listed columns (projection to bound column ordinals).
    pub fn project(&self, indices: &[usize]) -> ColumnBatch {
        ColumnBatch {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    #[test]
    fn bitmap_push_get_slice() {
        let mut b = Bitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert!(b.get(0));
        assert!(!b.get(1));
        assert!(b.get(129));
        assert!(!b.get(1000));
        assert_eq!(b.count_set(), 44);
        let s = b.slice(63..66);
        assert_eq!(s.len(), 3);
        assert_eq!([s.get(0), s.get(1), s.get(2)], [b.get(63), b.get(64), b.get(65)]);
    }

    #[test]
    fn native_int_round_trips_with_nulls() {
        let mut c = ColumnData::new_for(DataType::Int);
        c.push(Value::Int(7));
        c.push(Value::Null);
        c.push(Value::Int(-1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(0), Value::Int(7));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(-1));
        assert_eq!(c.null_count(), 1);
        assert!(c.is_null_at(1));
    }

    #[test]
    fn dict_column_round_trips_and_shares_dictionary_on_slice() {
        let mut c = ColumnData::new_for(DataType::Text);
        c.push(Value::from("a"));
        c.push(Value::Null);
        c.push(Value::from("b"));
        c.push(Value::from("a"));
        assert_eq!(c.value_at(0), Value::from("a"));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(3), Value::from("a"));
        let s = c.slice(1..4);
        assert_eq!(s.value_at(0), Value::Null);
        assert_eq!(s.value_at(2), Value::from("a"));
        if let (ColumnData::Dict { dict: a, .. }, ColumnData::Dict { dict: b, .. }) = (&c, &s) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected dict columns");
        }
    }

    #[test]
    fn variant_mismatch_promotes_to_exact_values() {
        // An Int pushed into a Float column must decode back as Int(3), not
        // Float(3.0): promotion trades compression for exact fidelity.
        let mut c = ColumnData::new_for(DataType::Float);
        c.push(Value::Float(1.5));
        c.push(Value::Null);
        c.push(Value::Int(3));
        assert!(matches!(c, ColumnData::Val(_)));
        assert_eq!(c.value_at(0), Value::Float(1.5));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(3));
    }

    #[test]
    fn all_null_text_column_has_empty_dictionary() {
        let mut c = ColumnData::new_for(DataType::Text);
        c.push(Value::Null);
        c.push(Value::Null);
        assert_eq!(c.null_count(), 2);
        assert_eq!(c.value_at(0), Value::Null);
        if let ColumnData::Dict { dict, .. } = &c {
            assert!(dict.is_empty());
        } else {
            panic!("expected dict column");
        }
    }

    #[test]
    fn single_value_column_has_one_dict_entry() {
        let mut c = ColumnData::new_for(DataType::Text);
        for _ in 0..100 {
            c.push(Value::from("only"));
        }
        if let ColumnData::Dict { dict, codes } = &c {
            assert_eq!(dict.len(), 1);
            assert!(codes.iter().all(|&code| code == 0));
        } else {
            panic!("expected dict column");
        }
    }

    #[test]
    fn filter_keeps_masked_rows() {
        let mut c = ColumnData::new_for(DataType::Int);
        for i in 0..5 {
            c.push(Value::Int(i));
        }
        let f = c.filter(&[true, false, true, false, true]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.value_at(1), Value::Int(2));
    }

    #[test]
    fn batch_filter_project_and_keys() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ]);
        let mut id = ColumnData::new_for(DataType::Int);
        let mut name = ColumnData::new_for(DataType::Text);
        for (i, n) in [(1, Some("a")), (2, None), (3, Some("b"))] {
            id.push(Value::Int(i));
            name.push(n.map(Value::from).unwrap_or(Value::Null));
        }
        let batch = ColumnBatch::new(vec![id, name], 3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.column_count(), 2);
        let filtered = batch.filter(&[true, false, true]);
        assert_eq!(filtered.len(), 2);
        assert_eq!(filtered.row(1).values(), &[Value::Int(3), Value::from("b")]);
        let projected = batch.project(&[1]);
        assert_eq!(projected.row(0).values(), &[Value::from("a")]);
        let rows = batch.into_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].values(), &[Value::Int(2), Value::Null]);
        let empty = ColumnBatch::empty_for(&schema);
        assert!(empty.is_empty());
        assert_eq!(empty.column_count(), 2);
    }

    #[test]
    fn gather_reads_by_id_and_append_joins_two_tails() {
        let mut ints = ColumnData::new_for(DataType::Int);
        let mut text = ColumnData::new_for(DataType::Text);
        for i in 0..70 {
            ints.push(if i % 7 == 3 { Value::Null } else { Value::Int(i - 35) });
            text.push(if i % 5 == 1 { Value::Null } else { Value::from(format!("s{}", i % 3)) });
        }
        let ids = [69, 3, 3, 0, 66, 10, 1];
        for column in [&ints, &text] {
            let gathered = column.gather(&ids);
            assert_eq!(gathered.len(), ids.len());
            for (at, &id) in ids.iter().enumerate() {
                assert_eq!(gathered.value_at(at), column.value_at(id));
            }
            // Two gathers over one dictionary append natively; the result reads like
            // one gather over the concatenated ids.
            let mut head = column.gather(&ids[..4]);
            head.append(column.gather(&ids[4..]));
            assert_eq!(std::mem::discriminant(&head), std::mem::discriminant(column));
            for (at, &id) in ids.iter().enumerate() {
                assert_eq!(head.value_at(at), column.value_at(id));
            }
        }
        if let (ColumnData::Dict { dict: a, .. }, ColumnData::Dict { dict: b, .. }) =
            (&text, &text.gather(&ids))
        {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected dict columns");
        }
        // Different dictionaries or encodings fall back to exact values.
        let mut other = ColumnData::new_for(DataType::Text);
        other.push(Value::from("x"));
        let mut mixed = text.gather(&[0, 1]);
        mixed.append(other);
        mixed.append(ints.gather(&[2]));
        assert!(matches!(mixed, ColumnData::Val(_)));
        let expected = [text.value_at(0), Value::Null, Value::from("x"), ints.value_at(2)];
        assert_eq!((0..4).map(|i| mixed.value_at(i)).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn batches_from_rows_slice_and_append() {
        let rows = vec![
            Row::from_values(vec![Value::Int(1), Value::from("a")]),
            Row::from_values(vec![Value::Null, Value::from("b")]),
            Row::from_values(vec![Value::Int(3), Value::Null]),
        ];
        let mut batch = ColumnBatch::from_rows(rows.clone(), 2);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.clone().into_rows(), rows);
        let tail = batch.slice(1..3);
        assert_eq!(tail.into_rows(), rows[1..].to_vec());
        batch.append(batch.slice(0..1));
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.row(3), rows[0]);
        let counted = ColumnBatch::from_rows(vec![Row::default(); 4], 0);
        assert_eq!((counted.column_count(), counted.len()), (0, 4));
    }

    #[test]
    fn zero_column_batch_keeps_its_row_count() {
        let mut batch = ColumnBatch::new(Vec::new(), 5);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.filter(&[true, false, true, false, false]).len(), 2);
        batch.truncate_columns(0);
        let rows = batch.into_rows();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(Row::is_empty));
    }

    #[test]
    fn column_meta_tracks_nulls_min_max_width() {
        let mut meta = ColumnMeta::default();
        for v in [Value::Int(5), Value::Null, Value::Int(2), Value::Int(9)] {
            meta.observe(&v);
        }
        assert_eq!(meta.null_count, 1);
        assert_eq!(meta.min, Some(Value::Int(2)));
        assert_eq!(meta.max, Some(Value::Int(9)));
        assert_eq!(meta.byte_sum, 25);
    }
}
