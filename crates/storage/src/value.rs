//! Scalar values and their dynamic type.

use crate::column::DataType;

/// A dynamically-typed scalar cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: ints widen to floats (SQL-style comparisons between
    /// INT and FLOAT columns work through this).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// SQL-style comparison: `None` for incomparable values or nulls.
    pub fn compare(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bytes(a), Bytes(b)) => Some(a.cmp(b)),
            _ => {
                let a = self.as_float()?;
                let b = other.as_float()?;
                a.partial_cmp(&b)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "x'{}...' ({} bytes)", hex_prefix(b), b.len()),
        }
    }
}

fn hex_prefix(b: &[u8]) -> String {
    b.iter().take(4).map(|v| format!("{v:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn type_dispatch() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Float(1.0).data_type(), Some(DataType::Float));
        assert_eq!(Value::from("x").data_type(), Some(DataType::Str));
        assert_eq!(Value::from(vec![1u8]).data_type(), Some(DataType::Bytes));
        assert_eq!(Value::Null.data_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(5).as_float(), Some(5.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(vec![1u8, 2]).as_bytes(), Some(&[1u8, 2][..]));
    }

    #[test]
    fn comparisons() {
        assert_eq!(Value::Int(1).compare(&Value::Int(2)), Some(Ordering::Less));
        // Mixed numeric comparison widens.
        assert_eq!(
            Value::Int(2).compare(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::from("a").compare(&Value::from("b")),
            Some(Ordering::Less)
        );
        // Nulls and mismatched types are incomparable.
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::from("a").compare(&Value::Int(1)), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::from("x").to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert!(Value::from(vec![0xABu8; 10])
            .to_string()
            .contains("10 bytes"));
    }
}
