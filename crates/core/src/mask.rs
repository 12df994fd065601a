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
//!
//! Every mask the system evaluates is bound once, by
//! [`MaskExpr::resolve`]: a trigger's group and composite masks when its
//! alphabet is built, a class's method and mask-function bodies when the
//! class is defined. The [`Resolved`] tree is walked by reference
//! against a [`Scope`], which every [`MaskEnv`] is. [`MaskExpr::eval`],
//! which resolves every name through a [`MaskEnv`] at each step, is the
//! reference the tests compare against; both share one set of operator
//! rules.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

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
    /// Invoke a registered (side-effect-free) function; `user()` is the
    /// call of `user` with no arguments.
    fn call(&self, name: &str, args: &[Value]) -> Option<Value>;
}

/// What a [`Resolved`] expression reads besides its arguments. Every
/// [`MaskEnv`] is one; the engine lends an object's fields, the
/// transaction's user and the class's mask functions without copying.
pub trait Scope {
    /// The object's field `name`.
    fn read_field(&self, name: &str) -> Option<Cow<'_, Value>>;
    /// The calling transaction's user, where there is one.
    fn user(&self) -> Option<Cow<'_, Value>>;
    /// Call the class's mask function `name`.
    fn call_fn(&self, name: &str, args: &[Value]) -> Result<Value, MaskError>;
}

impl<E: MaskEnv + ?Sized> Scope for E {
    fn read_field(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.field(name).map(Cow::Owned)
    }
    fn user(&self) -> Option<Cow<'_, Value>> {
        self.call("user", &[]).map(Cow::Owned)
    }
    fn call_fn(&self, name: &str, args: &[Value]) -> Result<Value, MaskError> {
        self.call(name, args)
            .ok_or_else(|| MaskError::UnknownFunction(name.into()))
    }
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
            MaskExpr::Member(e, m) => member(Cow::Owned(e.eval(env)?), m).map(Cow::into_owned),
            MaskExpr::Call(f, args) => {
                let vals: Vec<Value> =
                    args.iter().map(|a| a.eval(env)).collect::<Result<_, _>>()?;
                env.call(f, &vals)
                    .ok_or_else(|| MaskError::UnknownFunction(f.clone()))
            }
            MaskExpr::Unary(op, e) => eval_unary(*op, &e.eval(env)?),
            MaskExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) => {
                let la = truth(&a.eval(env)?)?;
                let short = la == (*op == BinOp::Or);
                Ok(Value::Bool(if short { la } else { truth(&b.eval(env)?)? }))
            }
            MaskExpr::Binary(op, a, b) => eval_binary(*op, &a.eval(env)?, &b.eval(env)?),
        }
    }

    /// Evaluate as a boolean (the only legal top-level mask type).
    pub fn eval_bool(&self, env: &dyn MaskEnv) -> Result<bool, MaskError> {
        truth(&self.eval(env)?)
    }

    /// Bind this expression's names once, for a body or event declared
    /// with `params`: a parameter becomes its position (parameters
    /// shadow fields), any other name an object field looked up by name
    /// when evaluated. A call binds the builtins `get`, `put`, `ifelse`
    /// and `type`, and `user()`, first; any other name is a mask
    /// function of the class, which the [`Scope`] answers when called.
    pub fn resolve(&self, params: &[String]) -> Resolved {
        let sub = |e: &MaskExpr| Box::new(e.resolve(params));
        match self {
            MaskExpr::Bool(b) => Resolved::Lit(Value::Bool(*b)),
            MaskExpr::Int(i) => Resolved::Lit(Value::Int(*i)),
            MaskExpr::Float(f) => Resolved::Lit(Value::Float(f.as_f64())),
            MaskExpr::Str(s) => Resolved::Lit(Value::Str(s.clone())),
            MaskExpr::Name(n) => Resolved::Name(params.iter().position(|p| p == n), n.clone()),
            MaskExpr::Member(e, m) => Resolved::Member(sub(e), m.clone()),
            MaskExpr::Call(f, args) => {
                let args: Vec<_> = args.iter().map(|a| a.resolve(params)).collect();
                let func = match f.as_str() {
                    "get" => Func::Get,
                    "put" => Func::Put,
                    "ifelse" => Func::IfElse,
                    "type" => Func::Type,
                    "user" if args.is_empty() => return Resolved::User,
                    _ => return Resolved::MaskFn(f.clone(), args),
                };
                Resolved::Call(func, f.clone(), args)
            }
            MaskExpr::Unary(op, e) => Resolved::Unary(*op, sub(e)),
            MaskExpr::Binary(op, a, b) => Resolved::Binary(*op, sub(a), sub(b)),
        }
    }
}

/// A mask expression whose names were bound once, by
/// [`MaskExpr::resolve`]. Evaluation borrows arguments, fields and
/// literals; only values the expression computes are allocated.
#[derive(Clone, Debug)]
pub enum Resolved {
    /// A literal, built once.
    Lit(Value),
    /// A name and, if it is a declared parameter, its position. Any
    /// other name, or a parameter the call passed no argument for (as
    /// in [`MaskExpr::eval`]), reads the field of that name.
    Name(Option<usize>, String),
    /// Member access.
    Member(Box<Resolved>, String),
    /// A builtin call: the builtin, its name as written, and its
    /// arguments.
    Call(Func, String, Vec<Resolved>),
    /// `user()`: the calling transaction's user value.
    User,
    /// A call of the class's mask function of that name.
    MaskFn(String, Vec<Resolved>),
    /// Unary operation.
    Unary(UnOp, Box<Resolved>),
    /// Binary operation.
    Binary(BinOp, Box<Resolved>, Box<Resolved>),
}

/// A builtin function of a [`Resolved`] expression.
#[derive(Clone, Copy, Debug)]
pub enum Func {
    /// `get(rec, key)`; `get(rec, key, default)` answers `default` for
    /// a missing key.
    Get,
    /// `put(rec, key, val)`: `rec` with `key` set to `val`.
    Put,
    /// `ifelse(cond, a, b)`.
    IfElse,
    /// `type(v)`: the value's type name (`"string"`, `"int"`, …).
    Type,
}

/// A side-effect-free function usable inside masks (the paper's
/// `authorized(user())`, `reorder(i)`, …). Reads its arguments and the
/// object's scope; an error it answers fails the mask that called it.
pub type MaskFn = Arc<dyn Fn(&[Value], &ObjectScope<'_>) -> Result<Value, MaskError> + Send + Sync>;

/// An object's [`Scope`], all borrowed: its fields, the calling
/// transaction's user where there is one, and the class's mask
/// functions where a mask may call them. A mask function's body calls
/// none.
pub struct ObjectScope<'a> {
    /// The object's fields.
    pub fields: &'a BTreeMap<String, Value>,
    /// The calling transaction's user value.
    pub user: Option<&'a Value>,
    /// The class's mask functions, by name.
    pub fns: Option<&'a BTreeMap<String, MaskFn>>,
}

impl Scope for ObjectScope<'_> {
    fn read_field(&self, name: &str) -> Option<Cow<'_, Value>> {
        self.fields.get(name).map(Cow::Borrowed)
    }
    fn user(&self) -> Option<Cow<'_, Value>> {
        self.user.map(Cow::Borrowed)
    }
    fn call_fn(&self, name: &str, args: &[Value]) -> Result<Value, MaskError> {
        let f = self.fns.and_then(|fns| fns.get(name));
        let f = f.ok_or_else(|| MaskError::UnknownFunction(name.into()))?;
        f(args, &ObjectScope { fns: None, ..*self })
    }
}

impl Resolved {
    /// Evaluate with `args` bound to the declared parameters and `s`
    /// answering the rest, borrowing what the expression only reads.
    pub fn eval<'a, S: Scope + ?Sized>(
        &'a self,
        args: &'a [Value],
        s: &'a S,
    ) -> Result<Cow<'a, Value>, MaskError> {
        Ok(match self {
            Resolved::Lit(v) => Cow::Borrowed(v),
            Resolved::Name(i, n) => i
                .and_then(|i| args.get(i))
                .map(Cow::Borrowed)
                .or_else(|| s.read_field(n))
                .ok_or_else(|| MaskError::UnknownField(n.clone()))?,
            Resolved::Member(e, m) => member(e.eval(args, s)?, m)?,
            Resolved::Call(f, name, call_args) => {
                // No builtin reads past its third argument, but every
                // argument is evaluated, so its errors surface.
                let mut vals = [None, None, None];
                for (k, a) in call_args.iter().enumerate() {
                    let v = Some(a.eval(args, s)?);
                    if k < vals.len() {
                        vals[k] = v;
                    }
                }
                f.apply(name, vals)?
            }
            Resolved::User => s
                .user()
                .ok_or_else(|| MaskError::UnknownFunction("user".into()))?,
            Resolved::MaskFn(name, call_args) => {
                let vals = call_args
                    .iter()
                    .map(|a| a.eval(args, s).map(Cow::into_owned))
                    .collect::<Result<Vec<_>, _>>()?;
                Cow::Owned(s.call_fn(name, &vals)?)
            }
            Resolved::Unary(op, e) => Cow::Owned(eval_unary(*op, &*e.eval(args, s)?)?),
            Resolved::Binary(op @ (BinOp::And | BinOp::Or), x, y) => {
                let lx = truth(&*x.eval(args, s)?)?;
                let short = lx == (*op == BinOp::Or);
                Cow::Owned(Value::Bool(if short {
                    lx
                } else {
                    truth(&*y.eval(args, s)?)?
                }))
            }
            Resolved::Binary(op, x, y) => {
                Cow::Owned(eval_binary(*op, &*x.eval(args, s)?, &*y.eval(args, s)?)?)
            }
        })
    }

    /// Evaluate as a boolean.
    pub fn eval_bool<S: Scope + ?Sized>(&self, args: &[Value], s: &S) -> Result<bool, MaskError> {
        truth(&*self.eval(args, s)?)
    }
}

impl Func {
    /// Apply to the first three arguments; arguments a builtin cannot
    /// use are a [`MaskError::TypeMismatch`] naming it.
    fn apply<'a>(
        self,
        name: &str,
        [a, k, c]: [Option<Cow<'a, Value>>; 3],
    ) -> Result<Cow<'a, Value>, MaskError> {
        let types = [&a, &k, &c].map(|v| v.as_deref().map_or("", Value::type_name));
        let out = match self {
            Func::Get => match (a, k.as_deref()) {
                (Some(rec), Some(Value::Str(key))) => member(rec, key).ok().or(c),
                _ => None,
            },
            Func::Put => match (a.map(Cow::into_owned), k.as_deref(), c) {
                (Some(Value::Record(mut m)), Some(Value::Str(key)), Some(v)) => {
                    m.insert(key.clone(), v.into_owned());
                    Some(Cow::Owned(Value::Record(m)))
                }
                _ => None,
            },
            Func::IfElse => match a.as_deref().and_then(Value::as_bool) {
                Some(true) => k,
                Some(false) => c,
                None => None,
            },
            Func::Type => a.map(|v| Cow::Owned(Value::Str(v.type_name().into()))),
        };
        out.ok_or_else(|| MaskError::TypeMismatch {
            op: name.into(),
            types: format!("({})", types.join(", ").trim_end_matches(", ")),
        })
    }
}

/// Member `m` of `v`, borrowed when `v` is.
fn member<'a>(v: Cow<'a, Value>, m: &str) -> Result<Cow<'a, Value>, MaskError> {
    let found = match &v {
        Cow::Borrowed(r) => r.member(m).map(Cow::Borrowed),
        Cow::Owned(r) => r.member(m).cloned().map(Cow::Owned),
    };
    found.ok_or_else(|| MaskError::NotARecord {
        member: m.to_string(),
        got: v.type_name(),
    })
}

/// `v` as a boolean, or why not.
fn truth(v: &Value) -> Result<bool, MaskError> {
    v.as_bool()
        .ok_or(MaskError::NotBoolean { got: v.type_name() })
}

fn eval_unary(op: UnOp, v: &Value) -> Result<Value, MaskError> {
    match (op, v) {
        (UnOp::Not, _) => truth(v).map(|b| Value::Bool(!b)),
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
        (UnOp::Neg, other) => Err(MaskError::TypeMismatch {
            op: "-".into(),
            types: other.type_name().into(),
        }),
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
                        Ok(Value::Int(x.wrapping_div(*y)))
                    }
                }
                _ => unreachable!(),
            },
            _ => {
                let (x, y) = (
                    a.as_float().ok_or_else(mismatch)?,
                    b.as_float().ok_or_else(mismatch)?,
                );
                let r = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                };
                if r.is_finite() {
                    Ok(Value::Float(r))
                } else {
                    Err(MaskError::NonFiniteFloat { op: op.symbol() })
                }
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
    fn non_finite_float_arithmetic_is_an_error() {
        let big = || MaskExpr::lit(1e300).unwrap();
        let overflow = MaskExpr::cmp(BinOp::Mul, big(), big());
        assert_eq!(
            overflow.eval(&EmptyEnv),
            Err(MaskError::NonFiniteFloat { op: "*" })
        );
        let zero = MaskExpr::lit(0.0).unwrap();
        let nan = MaskExpr::cmp(BinOp::Div, zero.clone(), zero.clone());
        assert_eq!(
            nan.eval(&EmptyEnv),
            Err(MaskError::NonFiniteFloat { op: "/" })
        );
        let inf = MaskExpr::cmp(BinOp::Div, MaskExpr::Int(1), zero);
        assert_eq!(
            inf.eval(&EmptyEnv),
            Err(MaskError::NonFiniteFloat { op: "/" })
        );
        let fine = MaskExpr::cmp(BinOp::Sub, big(), big());
        assert_eq!(fine.eval(&EmptyEnv), Ok(Value::Float(0.0)));
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
