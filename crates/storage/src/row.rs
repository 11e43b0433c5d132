//! Rows (tuples) and row identifiers.

use crate::value::Value;
use std::fmt;

/// Identifier of a row within a table heap (its position in insertion order).
pub type RowId = usize;

/// A materialized tuple.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Create a row from a vector of values.
    pub fn from_values(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Create an empty row with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Number of values in the row.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Value at position `idx`. Callers resolve indices against the row's schema, so an
    /// out-of-range index is a mis-mapped column: debug builds assert, and release
    /// builds read NULL rather than panic mid-query.
    pub fn value(&self, idx: usize) -> &Value {
        static NULL: Value = Value::Null;
        debug_assert!(
            idx < self.values.len(),
            "column {idx} read from a {}-column row",
            self.values.len()
        );
        self.values.get(idx).unwrap_or(&NULL)
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values, by move.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Mutable access to all values.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Append a value.
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Concatenate two rows (the row of a join result).
    pub fn join(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row::from_values(values)
    }

    /// Return a row consisting of the values at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row::from_values(indices.iter().map(|&i| self.value(i).clone()).collect())
    }

    /// Approximate width in bytes (for cost accounting and statistics).
    pub fn width(&self) -> usize {
        self.values.iter().map(Value::width).sum()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::from_values(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An out-of-range read never reads past the row: release builds see NULL, and
    /// debug builds (tier-1 runs with debug assertions) stop on the mis-mapped column.
    #[test]
    fn value_access_is_safe_out_of_range() {
        let row = Row::from_values(vec![Value::Int(1)]);
        assert_eq!(row.value(0), &Value::Int(1));
        let read = std::panic::catch_unwind(|| row.value(5).clone());
        if cfg!(debug_assertions) {
            let payload = read.expect_err("debug builds assert on an out-of-range read");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(message, "column 5 read from a 1-column row");
        } else {
            assert_eq!(read.expect("release builds read NULL"), Value::Null);
        }
    }

    #[test]
    fn join_concatenates_values() {
        let a = Row::from_values(vec![Value::Int(1), Value::from("x")]);
        let b = Row::from_values(vec![Value::Int(2)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        assert_eq!(j.value(2), &Value::Int(2));
    }

    #[test]
    fn project_reorders_values() {
        let row = Row::from_values(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let p = row.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn width_sums_value_widths() {
        let row = Row::from_values(vec![Value::Int(1), Value::from("abcd")]);
        assert_eq!(row.width(), 12);
    }

    #[test]
    fn display_formats_values() {
        let row = Row::from_values(vec![Value::Int(1), Value::Null]);
        assert_eq!(row.to_string(), "[1, NULL]");
    }

    #[test]
    fn push_and_capacity() {
        let mut row = Row::with_capacity(2);
        assert!(row.is_empty());
        row.push(Value::Bool(true));
        assert_eq!(row.len(), 1);
    }
}
