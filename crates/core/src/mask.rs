//! Masks — the predicates that refine basic events into logical events.
//!
//! > "A *mask* is a predicate that is used to hide or 'mask' the
//! > occurrence of an event." (Section 3.2)
//!
//! A mask may reference:
//!
//! * the **parameters** of the basic event it guards
//!   (`after withdraw(i, q) && q > 1000`),
//! * the **state of the object** the event was posted to, evaluated *as
//!   of the time the basic event occurred*
//!   (`i.balance < reorder(i)` in trigger T2),
//! * registered **functions** standing in for O++ member functions used
//!   inside predicates (`authorized(user())` in trigger T1).
//!
//! Masks applied to *composite* events take no parameters and see only
//! the current database state (Section 3.3); the same AST is used, and
//! the compiler enforces the no-parameters rule.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::MaskError;
use crate::value::Value;

/// Binary operators available in mask expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (inside masks; the event-level `&&` is handled by the
    /// expression grammar)
    And,
    /// `||`
    Or,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div => 6,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnOp {
    /// Logical negation `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
}

/// A mask expression AST.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MaskExpr {
    /// Boolean literal.
    Bool(bool),
    /// Integer literal.
    Int(i64),
    /// Float literal (bit pattern ordered/hased for structural identity).
    Float(FloatBits),
    /// String literal.
    Str(String),
    /// A name — resolved at evaluation time: event parameter first, then
    /// object field.
    Name(String),
    /// Member access `expr.member` (record field).
    Member(Box<MaskExpr>, String),
    /// Function call `f(args…)` — resolved against the environment's
    /// registered functions.
    Call(String, Vec<MaskExpr>),
    /// Unary operation.
    Unary(UnOp, Box<MaskExpr>),
    /// Binary operation.
    Binary(BinOp, Box<MaskExpr>, Box<MaskExpr>),
}

/// An `f64` wrapper giving structural `Eq`/`Hash` via the bit pattern, so
/// mask expressions can key minterm tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FloatBits(pub u64);

impl FloatBits {
    /// Wrap a float.
    pub fn from_f64(f: f64) -> Self {
        FloatBits(f.to_bits())
    }
    /// Unwrap.
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// The environment a mask evaluates in: event parameters, object fields,
/// and registered functions. The `ode-db` engine implements this over
/// its object store; tests use simple map-backed fakes.
pub trait MaskEnv {
    /// Look up an event parameter by name.
    fn param(&self, name: &str) -> Option<Value>;
    /// Look up a field of the object the event was posted to.
    fn field(&self, name: &str) -> Option<Value>;
    /// Invoke a registered (side-effect-free) function.
    fn call(&self, name: &str, args: &[Value]) -> Option<Value>;
}

/// An empty environment: no parameters, fields, or functions.
pub struct EmptyEnv;

impl MaskEnv for EmptyEnv {
    fn param(&self, _: &str) -> Option<Value> {
        None
    }
    fn field(&self, _: &str) -> Option<Value> {
        None
    }
    fn call(&self, _: &str, _: &[Value]) -> Option<Value> {
        None
    }
}

impl From<bool> for MaskExpr {
    fn from(b: bool) -> Self {
        MaskExpr::Bool(b)
    }
}

impl From<i64> for MaskExpr {
    fn from(i: i64) -> Self {
        MaskExpr::Int(i)
    }
}

impl From<i32> for MaskExpr {
    fn from(i: i32) -> Self {
        MaskExpr::Int(i as i64)
    }
}

impl From<f64> for MaskExpr {
    fn from(f: f64) -> Self {
        MaskExpr::Float(FloatBits::from_f64(f))
    }
}

impl From<&str> for MaskExpr {
    fn from(s: &str) -> Self {
        MaskExpr::Str(s.to_string())
    }
}

impl From<String> for MaskExpr {
    fn from(s: String) -> Self {
        MaskExpr::Str(s)
    }
}

impl MaskExpr {
    /// Convenience: `Name` reference.
    pub fn name(n: impl Into<String>) -> MaskExpr {
        MaskExpr::Name(n.into())
    }

    /// Convenience: comparison builder.
    pub fn cmp(op: BinOp, lhs: MaskExpr, rhs: MaskExpr) -> MaskExpr {
        MaskExpr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Convenience: `name > value`.
    pub fn gt(name: impl Into<String>, v: impl Into<MaskExpr>) -> MaskExpr {
        MaskExpr::cmp(BinOp::Gt, MaskExpr::name(name), v.into())
    }

    /// Convenience: `name < value`.
    pub fn lt(name: impl Into<String>, v: impl Into<MaskExpr>) -> MaskExpr {
        MaskExpr::cmp(BinOp::Lt, MaskExpr::name(name), v.into())
    }

    /// Convenience: literal from a [`Value`]. Only scalar values have a
    /// literal form in the mask grammar; `null` and records are rejected
    /// with [`MaskError::UnsupportedLiteral`].
    pub fn lit(v: impl Into<Value>) -> Result<MaskExpr, MaskError> {
        match v.into() {
            Value::Bool(b) => Ok(MaskExpr::Bool(b)),
            Value::Int(i) => Ok(MaskExpr::Int(i)),
            Value::Float(f) => Ok(MaskExpr::Float(FloatBits::from_f64(f))),
            Value::Str(s) => Ok(MaskExpr::Str(s)),
            other => Err(MaskError::UnsupportedLiteral {
                got: other.type_name(),
            }),
        }
    }

    /// Evaluate to a [`Value`].
    pub fn eval(&self, env: &dyn MaskEnv) -> Result<Value, MaskError> {
        match self {
            MaskExpr::Bool(b) => Ok(Value::Bool(*b)),
            MaskExpr::Int(i) => Ok(Value::Int(*i)),
            MaskExpr::Float(f) => Ok(Value::Float(f.as_f64())),
            MaskExpr::Str(s) => Ok(Value::Str(s.clone())),
            MaskExpr::Name(n) => env
                .param(n)
                .or_else(|| env.field(n))
                .ok_or_else(|| MaskError::UnknownField(n.clone())),
            MaskExpr::Member(e, m) => {
                let v = e.eval(env)?;
                v.member(m).cloned().ok_or_else(|| MaskError::NotARecord {
                    member: m.clone(),
                    got: v.type_name(),
                })
            }
            MaskExpr::Call(f, args) => {
                let vals: Vec<Value> =
                    args.iter().map(|a| a.eval(env)).collect::<Result<_, _>>()?;
                env.call(f, &vals)
                    .ok_or_else(|| MaskError::UnknownFunction(f.clone()))
            }
            MaskExpr::Unary(op, e) => {
                let v = e.eval(env)?;
                match op {
                    UnOp::Not => v
                        .as_bool()
                        .map(|b| Value::Bool(!b))
                        .ok_or(MaskError::NotBoolean { got: v.type_name() }),
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(MaskError::TypeMismatch {
                            op: "-".into(),
                            types: other.type_name().into(),
                        }),
                    },
                }
            }
            MaskExpr::Binary(op, a, b) => {
                // Short-circuit logical operators.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let la = a.eval(env)?;
                    let la = la.as_bool().ok_or(MaskError::NotBoolean {
                        got: la.type_name(),
                    })?;
                    return match (op, la) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let lb = b.eval(env)?;
                            lb.as_bool().map(Value::Bool).ok_or(MaskError::NotBoolean {
                                got: lb.type_name(),
                            })
                        }
                    };
                }
                let va = a.eval(env)?;
                let vb = b.eval(env)?;
                eval_binary(*op, &va, &vb)
            }
        }
    }

    /// Evaluate as a boolean (the only legal top-level mask type).
    pub fn eval_bool(&self, env: &dyn MaskEnv) -> Result<bool, MaskError> {
        let v = self.eval(env)?;
        v.as_bool()
            .ok_or(MaskError::NotBoolean { got: v.type_name() })
    }
}

fn eval_binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, MaskError> {
    use BinOp::*;
    let mismatch = || MaskError::TypeMismatch {
        op: op.symbol().into(),
        types: format!("{} and {}", a.type_name(), b.type_name()),
    };
    match op {
        Add | Sub | Mul | Div => match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Add => Ok(Value::Int(x.wrapping_add(*y))),
                Sub => Ok(Value::Int(x.wrapping_sub(*y))),
                Mul => Ok(Value::Int(x.wrapping_mul(*y))),
                Div => {
                    if *y == 0 {
                        Err(MaskError::DivisionByZero)
                    } else {
                        Ok(Value::Int(x / y))
                    }
                }
                _ => unreachable!(),
            },
            _ => {
                let (x, y) = (
                    a.as_float().ok_or_else(mismatch)?,
                    b.as_float().ok_or_else(mismatch)?,
                );
                Ok(Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                }))
            }
        },
        Lt | Le | Gt | Ge => {
            // Numeric comparison with int→float coercion; strings compare
            // lexicographically.
            let r = match (a, b) {
                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                _ => {
                    let (x, y) = (
                        a.as_float().ok_or_else(mismatch)?,
                        b.as_float().ok_or_else(mismatch)?,
                    );
                    x.partial_cmp(&y).ok_or_else(mismatch)?
                }
            };
            Ok(Value::Bool(match op {
                Lt => r.is_lt(),
                Le => r.is_le(),
                Gt => r.is_gt(),
                Ge => r.is_ge(),
                _ => unreachable!(),
            }))
        }
        Eq | Ne => {
            let equal = match (a, b) {
                (Value::Int(x), Value::Float(_)) => Some(*x as f64) == b.as_float(),
                (Value::Float(_), Value::Int(y)) => a.as_float() == Some(*y as f64),
                _ => a == b,
            };
            Ok(Value::Bool(if op == Eq { equal } else { !equal }))
        }
        And | Or => unreachable!("handled by short-circuit path"),
    }
}

impl fmt::Display for MaskExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(e: &MaskExpr, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match e {
                MaskExpr::Bool(b) => write!(f, "{b}"),
                MaskExpr::Int(i) => write!(f, "{i}"),
                MaskExpr::Float(x) => {
                    let v = x.as_f64();
                    if v.fract() == 0.0 && v.is_finite() {
                        write!(f, "{v:.1}")
                    } else {
                        write!(f, "{v}")
                    }
                }
                MaskExpr::Str(s) => write!(f, "{s:?}"),
                MaskExpr::Name(n) => write!(f, "{n}"),
                MaskExpr::Member(e, m) => {
                    go(e, f, 10)?;
                    write!(f, ".{m}")
                }
                MaskExpr::Call(name, args) => {
                    write!(f, "{name}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        go(a, f, 0)?;
                    }
                    write!(f, ")")
                }
                MaskExpr::Unary(op, e) => {
                    write!(f, "{}", if *op == UnOp::Not { "!" } else { "-" })?;
                    go(e, f, 9)
                }
                MaskExpr::Binary(op, a, b) => {
                    let p = op.precedence();
                    let need = p < prec;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, p)?;
                    write!(f, " {} ", op.symbol())?;
                    go(b, f, p + 1)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
pub(crate) mod test_env {
    use super::*;
    use std::collections::HashMap;

    /// Map-backed environment for tests.
    #[derive(Default)]
    pub struct MapEnv {
        pub params: HashMap<String, Value>,
        pub fields: HashMap<String, Value>,
    }

    impl MapEnv {
        pub fn with_param(mut self, k: &str, v: impl Into<Value>) -> Self {
            self.params.insert(k.into(), v.into());
            self
        }
        pub fn with_field(mut self, k: &str, v: impl Into<Value>) -> Self {
            self.fields.insert(k.into(), v.into());
            self
        }
    }

    impl MaskEnv for MapEnv {
        fn param(&self, name: &str) -> Option<Value> {
            self.params.get(name).cloned()
        }
        fn field(&self, name: &str) -> Option<Value> {
            self.fields.get(name).cloned()
        }
        fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
            match name {
                // "doubles its argument" — used by tests
                "double" => args.first()?.as_int().map(|i| Value::Int(i * 2)),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_env::MapEnv;
    use super::*;

    #[test]
    fn large_withdrawal_mask() {
        // after withdraw(i, q) && q > 1000   (paper, Section 3.2)
        let mask = MaskExpr::gt("q", 1000i64);
        let env = MapEnv::default().with_param("q", 1500i64);
        assert!(mask.eval_bool(&env).unwrap());
        let env = MapEnv::default().with_param("q", 1000i64);
        assert!(!mask.eval_bool(&env).unwrap());
    }

    #[test]
    fn object_state_mask() {
        // balance < 500.00   (paper, Section 3.3)
        let mask = MaskExpr::lt("balance", 500.0);
        let env = MapEnv::default().with_field("balance", 499.5);
        assert!(mask.eval_bool(&env).unwrap());
    }

    #[test]
    fn params_shadow_fields() {
        let mask = MaskExpr::gt("x", 0i64);
        let env = MapEnv::default()
            .with_param("x", 5i64)
            .with_field("x", -5i64);
        assert!(mask.eval_bool(&env).unwrap());
    }

    #[test]
    fn member_access_on_record_param() {
        // i.balance < 50   (trigger T2 shape)
        let mask = MaskExpr::cmp(
            BinOp::Lt,
            MaskExpr::Member(Box::new(MaskExpr::name("i")), "balance".into()),
            MaskExpr::Int(50),
        );
        let env = MapEnv::default().with_param("i", Value::record([("balance", Value::Int(40))]));
        assert!(mask.eval_bool(&env).unwrap());
    }

    #[test]
    fn member_access_on_scalar_fails() {
        let mask = MaskExpr::Member(Box::new(MaskExpr::Int(3)), "x".into());
        assert!(matches!(
            mask.eval(&EmptyEnv),
            Err(MaskError::NotARecord { .. })
        ));
    }

    #[test]
    fn function_calls_resolve() {
        let mask = MaskExpr::cmp(
            BinOp::Eq,
            MaskExpr::Call("double".into(), vec![MaskExpr::Int(21)]),
            MaskExpr::Int(42),
        );
        assert!(mask.eval_bool(&MapEnv::default()).unwrap());
    }

    #[test]
    fn unknown_function_errors() {
        let mask = MaskExpr::Call("nope".into(), vec![]);
        assert_eq!(
            mask.eval(&EmptyEnv),
            Err(MaskError::UnknownFunction("nope".into()))
        );
    }

    #[test]
    fn short_circuit_and() {
        // false && <error> must not evaluate the error side.
        let mask = MaskExpr::cmp(
            BinOp::And,
            MaskExpr::Bool(false),
            MaskExpr::Call("nope".into(), vec![]),
        );
        assert!(!mask.eval_bool(&EmptyEnv).unwrap());
    }

    #[test]
    fn short_circuit_or() {
        let mask = MaskExpr::cmp(
            BinOp::Or,
            MaskExpr::Bool(true),
            MaskExpr::Call("nope".into(), vec![]),
        );
        assert!(mask.eval_bool(&EmptyEnv).unwrap());
    }

    #[test]
    fn arithmetic_and_mixed_comparison() {
        // (q + 10) * 2 >= 40.0 with q = 10
        let mask = MaskExpr::cmp(
            BinOp::Ge,
            MaskExpr::cmp(
                BinOp::Mul,
                MaskExpr::cmp(BinOp::Add, MaskExpr::name("q"), MaskExpr::Int(10)),
                MaskExpr::Int(2),
            ),
            MaskExpr::Float(FloatBits::from_f64(40.0)),
        );
        let env = MapEnv::default().with_param("q", 10i64);
        assert!(mask.eval_bool(&env).unwrap());
    }

    #[test]
    fn division_by_zero_reported() {
        let mask = MaskExpr::cmp(BinOp::Div, MaskExpr::Int(1), MaskExpr::Int(0));
        assert_eq!(mask.eval(&EmptyEnv), Err(MaskError::DivisionByZero));
    }

    #[test]
    fn eq_coerces_numerics() {
        let m = MaskExpr::cmp(BinOp::Eq, MaskExpr::Int(2), MaskExpr::lit(2.0).unwrap());
        assert!(m.eval_bool(&EmptyEnv).unwrap());
        let m = MaskExpr::cmp(BinOp::Ne, MaskExpr::Int(2), MaskExpr::lit(2.5).unwrap());
        assert!(m.eval_bool(&EmptyEnv).unwrap());
    }

    #[test]
    fn string_comparison() {
        let m = MaskExpr::cmp(
            BinOp::Lt,
            MaskExpr::Str("abc".into()),
            MaskExpr::Str("abd".into()),
        );
        assert!(m.eval_bool(&EmptyEnv).unwrap());
    }

    #[test]
    fn non_boolean_mask_rejected() {
        let m = MaskExpr::Int(7);
        assert!(matches!(
            m.eval_bool(&EmptyEnv),
            Err(MaskError::NotBoolean { got: "int" })
        ));
    }

    #[test]
    fn lit_accepts_scalars() {
        assert_eq!(MaskExpr::lit(true).unwrap(), MaskExpr::Bool(true));
        assert_eq!(MaskExpr::lit(7i64).unwrap(), MaskExpr::Int(7));
        assert_eq!(MaskExpr::lit("x").unwrap(), MaskExpr::Str("x".into()));
    }

    #[test]
    fn lit_rejects_null_and_records() {
        assert_eq!(
            MaskExpr::lit(Value::Null),
            Err(MaskError::UnsupportedLiteral { got: "null" })
        );
        let r = MaskExpr::lit(Value::record([("balance", Value::Int(1))]));
        assert_eq!(r, Err(MaskError::UnsupportedLiteral { got: "record" }));
    }

    #[test]
    fn display_round_trip_shapes() {
        let mask = MaskExpr::cmp(
            BinOp::And,
            MaskExpr::gt("q", 100i64),
            MaskExpr::Unary(UnOp::Not, Box::new(MaskExpr::name("frozen"))),
        );
        assert_eq!(mask.to_string(), "q > 100 && !frozen");
    }

    #[test]
    fn display_parenthesizes_by_precedence() {
        // (a || b) && c needs parens around the ||
        let mask = MaskExpr::cmp(
            BinOp::And,
            MaskExpr::cmp(BinOp::Or, MaskExpr::name("a"), MaskExpr::name("b")),
            MaskExpr::name("c"),
        );
        assert_eq!(mask.to_string(), "(a || b) && c");
    }
}
