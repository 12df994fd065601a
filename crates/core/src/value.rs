//! Runtime values for event parameters, object fields, and mask
//! evaluation.
//!
//! O++ masks are C++ boolean expressions over event parameters and object
//! state (`after withdraw(Item i, int q) && q > 1000`, Section 3.2). This
//! module provides the dynamically-typed value universe those expressions
//! evaluate over, including records so that parameter member access like
//! `i.balance` (trigger T2, Section 3.5) works.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MaskError;

/// How deeply a stored or sent format may nest a [`Value`] inside its
/// own arrays and objects. The deepest today is a checkpoint's captured
/// arguments (8: snapshot, objects, object, triggers, trigger,
/// captured, the event/arguments pair, arguments); a replication
/// bootstrap's field defaults sit 6 deep, and request lines, replies,
/// firings, query rows and log records at most 5. The rest is room for
/// new formats; a round-trip test in `ode-server` measures every one.
pub const VALUE_ENVELOPE_DEPTH: usize = 63;

/// The deepest record nesting a [`Value`] may have where it enters the
/// engine (a call's arguments, creation overrides, activation
/// parameters, the user) or is stored in a field. Each record level
/// costs the JSON reader two arrays or objects (`{"Record":{…}}`) and
/// the innermost scalar one more, so a value this deep inside
/// [`VALUE_ENVELOPE_DEPTH`] levels of envelope still reads back under
/// `serde::json::MAX_DEPTH`. A deeper value would leave a log record or
/// checkpoint that no restart could read.
pub const MAX_VALUE_DEPTH: usize = (serde::json::MAX_DEPTH - VALUE_ENVELOPE_DEPTH - 1) / 2;

/// A dynamically typed value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absent / SQL-ish null.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer (O++ `int`/`long`).
    Int(i64),
    /// Double-precision float (O++ `float`/`double`).
    Float(f64),
    /// String.
    Str(String),
    /// A record with named fields — models O++ struct/class values such
    /// as the `Item` parameter of `withdraw(Item i, int q)`.
    Record(BTreeMap<String, Value>),
}

impl Value {
    /// Build a record from `(name, value)` pairs.
    pub fn record<I, S>(fields: I) -> Value
    where
        I: IntoIterator<Item = (S, Value)>,
        S: Into<String>,
    {
        Value::Record(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Truthiness for mask evaluation: `Bool` is itself; every other type
    /// is a type error (masks must be boolean-valued, Section 3.3).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view, coercing `Int` to `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Record member access (`i.balance`).
    pub fn member(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(m) => m.get(name),
            _ => None,
        }
    }

    /// `Err(MaskError::TooDeep)` if this value nests records deeper
    /// than [`MAX_VALUE_DEPTH`]. Stops descending at the limit.
    pub fn check_depth(&self) -> Result<(), MaskError> {
        fn deeper_than(v: &Value, levels: usize) -> bool {
            match v {
                Value::Record(m) => levels == 0 || m.values().any(|f| deeper_than(f, levels - 1)),
                _ => false,
            }
        }
        if deeper_than(self, MAX_VALUE_DEPTH) {
            return Err(MaskError::TooDeep {
                max: MAX_VALUE_DEPTH,
            });
        }
        Ok(())
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Record(_) => "record",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Record(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
    }

    #[test]
    fn as_float_coerces_int() {
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Bool(true).as_float(), None);
    }

    #[test]
    fn record_member_access() {
        let item = Value::record([("balance", Value::Int(40)), ("name", "bolt".into())]);
        assert_eq!(item.member("balance"), Some(&Value::Int(40)));
        assert_eq!(item.member("missing"), None);
        assert_eq!(Value::Int(1).member("x"), None);
    }

    #[test]
    fn display_is_stable() {
        let item = Value::record([("a", Value::Int(1))]);
        assert_eq!(item.to_string(), "{a: 1}");
        assert_eq!(Value::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn bool_strictness() {
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
    }
}
