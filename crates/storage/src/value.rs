//! Attribute values.
//!
//! BANKS treats the database as text-bearing tuples; only a handful of
//! scalar types are needed. [`Value`] is a small tagged union with a total
//! order (so values can be used as index keys and sort keys in browsing
//! views) and a stable hash.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single attribute value.
///
/// Floats are wrapped so that `Value` can implement `Eq`/`Ord`/`Hash`:
/// NaN is normalized to a single representation that sorts after every
/// other float, mirroring the "NULLs last, NaNs last" convention of most
/// SQL engines.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Sorts before everything else.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The textual content of the value, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content of the value, if it is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float content, widening integers (useful for chart templates).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// A rank used to order values of *different* types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }

    /// Normalized float bits: all NaNs collapse to one pattern, and
    /// `-0.0`/`+0.0` collapse together, so `Eq`/`Hash` are consistent.
    fn float_key(v: f64) -> u64 {
        if v.is_nan() {
            u64::MAX
        } else if v == 0.0 {
            0f64.to_bits()
        } else {
            v.to_bits()
        }
    }

    /// Compare two numeric values (Int/Float), NaN greatest.
    fn numeric_cmp(a: f64, b: f64) -> Ordering {
        match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Value::numeric_cmp(*a, *b),
            (Int(a), Float(b)) => Value::numeric_cmp(*a as f64, *b),
            (Float(a), Int(b)) => Value::numeric_cmp(*a, *b as f64),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and equal-valued floats must hash alike because they
            // compare equal (`Int(2) == Float(2.0)`).
            Value::Int(v) => {
                state.write_u8(2);
                state.write_u64(Value::float_key(*v as f64));
            }
            Value::Float(v) => {
                state.write_u8(2);
                state.write_u64(Value::float_key(*v));
            }
            Value::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
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

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
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
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::text(""));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn nan_is_greatest_numeric_and_self_equal() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, Value::Float(f64::NAN));
        assert!(Value::Float(f64::MAX) < nan);
        assert!(nan < Value::text("a"));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(
            hash_of(&Value::Float(f64::NAN)),
            hash_of(&Value::Float(-f64::NAN))
        );
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::text("BANKS").to_string(), "BANKS");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert!(Value::Null.is_null());
        assert_eq!(Value::text("x").as_int(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("a"), Value::text("a"));
        assert_eq!(Value::from(1i64), Value::Int(1));
        assert_eq!(Value::from(1.5f64), Value::Float(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
