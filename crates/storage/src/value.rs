//! Scalar values and data types.
//!
//! The Join Order Benchmark only needs integers, strings and the occasional numeric
//! column, so the type system is deliberately small. `Value` implements a *total* order
//! and a consistent `Hash` so it can be used directly as a key in hash-join tables,
//! B-tree indexes and most-common-value statistics. NULL sorts before every non-NULL
//! value and is never equal to anything in SQL comparison semantics (see
//! [`Value::sql_eq`]), but compares equal to itself for the purposes of grouping and
//! indexing, mirroring how real engines separate "comparison" from "identity".

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Supported column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Whether a value of this type can be stored in a column of type `other`
    /// without loss that matters to the engine (ints are accepted by float columns).
    pub fn coercible_to(self, other: DataType) -> bool {
        self == other || (self == DataType::Int && other == DataType::Float)
    }

    /// Short lowercase name, used in EXPLAIN output and error messages.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Text => "text",
            DataType::Bool => "bool",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, shared: a value decoded from a dictionary column points at the
    /// dictionary's own string, so copying a text value never copies its bytes.
    Text(Arc<str>),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret the value as an integer if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Interpret the value as a float if possible (ints are widened).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret the value as a string slice if it is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret the value as a boolean if possible.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(i) => Some(*i != 0),
            _ => None,
        }
    }

    /// SQL three-valued equality: NULL = anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL three-valued comparison: NULL compared to anything is unknown (`None`).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order over all values, used for sorting, B-tree indexes and histograms.
    ///
    /// NULL < Bool < numeric (Int/Float compared numerically) < Text.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Int(_) | Float(_), Text(_)) => Ordering::Less,
            (Text(_), Int(_) | Float(_)) => Ordering::Greater,
            (Text(a), Text(b)) => a.cmp(b),
        }
    }

    /// A coarse "width" in bytes used by the cost model (PostgreSQL tracks average
    /// tuple widths similarly).
    pub fn width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => s.len().max(1),
        }
    }

    /// Render the value as a SQL literal (used when re-optimization rewrites queries).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and floats that compare equal must hash equally (e.g. 2 and 2.0),
            // so hash every numeric through its f64 bit pattern when it is integral.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(Arc::from(v))
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Text));
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
        assert_eq!(Value::Null.data_type(), None);
    }

    #[test]
    fn coercion_rules() {
        assert!(DataType::Int.coercible_to(DataType::Float));
        assert!(!DataType::Float.coercible_to(DataType::Int));
        assert!(DataType::Text.coercible_to(DataType::Text));
        assert!(!DataType::Text.coercible_to(DataType::Int));
    }

    #[test]
    fn total_order_across_types() {
        let mut values = vec![
            Value::from("abc"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::Bool(false),
        ];
        values.sort();
        assert_eq!(
            values,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(3),
                Value::from("abc"),
            ]
        );
    }

    #[test]
    fn numeric_cross_type_equality_and_hash() {
        let a = Value::Int(2);
        let b = Value::Float(2.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn sql_eq_is_three_valued() {
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_orders_numbers() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::Null.sql_cmp(&Value::Int(0)), None);
    }

    #[test]
    fn sql_literal_rendering() {
        assert_eq!(Value::Int(5).to_sql_literal(), "5");
        assert_eq!(Value::from("O'Brien").to_sql_literal(), "'O''Brien'");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Bool(true).to_sql_literal(), "TRUE");
        assert_eq!(Value::Float(2.0).to_sql_literal(), "2.0");
    }

    #[test]
    fn conversions_from_rust_types() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(Some(4i64)), Value::Int(4));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from("x".to_string()), Value::Text("x".into()));
    }

    #[test]
    fn widths_are_reasonable() {
        assert_eq!(Value::Int(1).width(), 8);
        assert_eq!(Value::from("hello").width(), 5);
        assert_eq!(Value::Null.width(), 1);
    }

    #[test]
    fn text_values_share_their_bytes_and_fit_in_24_bytes() {
        let a = Value::from("shared");
        let b = a.clone();
        match (&a, &b) {
            (Value::Text(x), Value::Text(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => panic!("expected text values"),
        }
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn as_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::from("s").as_str(), Some("s"));
        assert_eq!(Value::Int(0).as_bool(), Some(false));
        assert_eq!(Value::from("s").as_int(), None);
    }
}
