//! Declarative class specifications — how a network client defines an
//! O++ class over the wire.
//!
//! A [`ClassSpec`] is pure data: field defaults, method bodies written
//! as small sequences of [`MethodOp`]s whose expressions use the mask
//! grammar (parsed with [`ode_core::parse_mask`]), side-effect-free mask
//! functions, and triggers whose composite events are given as *text* in
//! the paper's §3 surface syntax (parsed with [`ode_core::parse_event`]).
//! [`compile_class`] lowers the spec to an [`ode_db::ClassDef`]; all
//! parse errors surface at define time, never at call time.
//!
//! Method and mask expressions evaluate against an environment binding
//! the declared parameters positionally and the object's fields by name,
//! plus three record builtins: `get(rec, key)`, `put(rec, key, val)`
//! (functional update), and `ifelse(cond, a, b)`. Mask-function bodies
//! additionally see `user()`, the calling transaction's user value.

use std::collections::BTreeMap;
use std::sync::Arc;

use ode_core::{parse_mask, MaskEnv, MaskExpr, Value};
use ode_db::{Action, ActionCtx, ClassDef, Database, MaskFnCtx, MethodCtx, MethodKind, OdeError};
use serde::{Deserialize, Serialize};

/// A wire-transmissible class definition.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassSpec {
    /// Class name.
    pub name: String,
    /// Fields with default values.
    pub fields: Vec<FieldSpec>,
    /// Public member functions.
    pub methods: Vec<MethodSpec>,
    /// Mask functions (usable inside trigger-event masks).
    pub masks: Vec<MaskFnSpec>,
    /// Triggers, in declaration order.
    pub triggers: Vec<TriggerSpec>,
    /// Triggers auto-activated in the constructor.
    pub activate_on_create: Vec<String>,
}

/// A field with its default value.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Field name.
    pub name: String,
    /// Default value for new objects.
    pub default: Value,
}

/// A member function.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MethodSpec {
    /// Method name.
    pub name: String,
    /// `true` posts `before/after update` events, `false` posts
    /// `before/after read` (Section 3.1).
    pub update: bool,
    /// Declared parameter names (bound positionally at call time).
    pub params: Vec<String>,
    /// The body, executed in order.
    pub body: Vec<MethodOp>,
}

/// One step of a method body.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum MethodOp {
    /// Evaluate `expr` and store the result into `field`.
    Set {
        /// Target field.
        field: String,
        /// Mask-grammar expression over params, fields, and builtins.
        expr: String,
    },
    /// Append `text` to the output log, substituting `{param}`
    /// placeholders with argument values.
    Emit {
        /// The template text.
        text: String,
    },
    /// Fail the call (engine error, transaction continues) unless
    /// `expr` evaluates to true.
    Require {
        /// Mask-grammar condition.
        expr: String,
        /// Error message on failure.
        message: String,
    },
}

/// A side-effect-free mask function, e.g. the paper's
/// `authorized(user())` or `reorder(i)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MaskFnSpec {
    /// Function name.
    pub name: String,
    /// Parameter names (bound positionally).
    pub params: Vec<String>,
    /// Mask-grammar body; also sees object fields and `user()`.
    pub expr: String,
}

/// A trigger declaration: `name: [perpetual] event ==> action`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TriggerSpec {
    /// Trigger name.
    pub name: String,
    /// Perpetual triggers stay active after firing; once-only triggers
    /// deactivate (Section 2).
    pub perpetual: bool,
    /// The composite event, in §3 surface syntax.
    pub event: String,
    /// The action run when the trigger fires.
    pub action: ActionSpec,
    /// Capture constituent-event arguments as the composite unfolds.
    pub capture: bool,
    /// Monitor the full history including aborted transactions
    /// (Section 6).
    pub full_history: bool,
}

/// A declarative trigger action.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ActionSpec {
    /// Abort the surrounding transaction (`==> tabort`).
    Abort,
    /// Append a line to the output log.
    Emit(String),
    /// Call a member function with no arguments.
    Call(String),
    /// Call a member function with the completing event's arguments —
    /// the shape of the paper's T2 `order(i)`.
    CallWithEventArgs {
        /// Method to call.
        method: String,
    },
    /// Re-activate this trigger (T2 "must be explicitly reactivated").
    Reactivate,
    /// Run several actions in order.
    Seq(Vec<ActionSpec>),
}

/// Record/value builtins shared by method and mask-function
/// environments.
fn builtin(name: &str, args: &[Value]) -> Option<Value> {
    match name {
        "get" => {
            let key = match args.get(1)? {
                Value::Str(s) => s.as_str(),
                _ => return None,
            };
            args.first()?.member(key).cloned()
        }
        "put" => {
            let mut rec = match args.first()? {
                Value::Record(m) => m.clone(),
                _ => return None,
            };
            let key = match args.get(1)? {
                Value::Str(s) => s.clone(),
                _ => return None,
            };
            rec.insert(key, args.get(2)?.clone());
            Some(Value::Record(rec))
        }
        "ifelse" => {
            if args.first()?.as_bool()? {
                args.get(1).cloned()
            } else {
                args.get(2).cloned()
            }
        }
        _ => None,
    }
}

/// Mask-grammar environment for method bodies: params positionally,
/// fields by name, record builtins.
struct MethodOpEnv<'a, 'b> {
    names: &'a [String],
    ctx: &'a MethodCtx<'b>,
}

impl MaskEnv for MethodOpEnv<'_, '_> {
    fn param(&self, name: &str) -> Option<Value> {
        let i = self.names.iter().position(|n| n == name)?;
        self.ctx.args().get(i).cloned()
    }
    fn field(&self, name: &str) -> Option<Value> {
        self.ctx.get(name).cloned()
    }
    fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
        builtin(name, args)
    }
}

/// Mask-grammar environment for mask-function bodies: params
/// positionally, fields by name, `user()` plus record builtins.
struct MaskSpecEnv<'a> {
    names: &'a [String],
    args: &'a [Value],
    fields: &'a BTreeMap<String, Value>,
    user: &'a Value,
}

impl MaskEnv for MaskSpecEnv<'_> {
    fn param(&self, name: &str) -> Option<Value> {
        let i = self.names.iter().position(|n| n == name)?;
        self.args.get(i).cloned()
    }
    fn field(&self, name: &str) -> Option<Value> {
        self.fields.get(name).cloned()
    }
    fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
        if name == "user" && args.is_empty() {
            return Some(self.user.clone());
        }
        builtin(name, args)
    }
}

enum CompiledOp {
    Set { field: String, expr: MaskExpr },
    Emit { text: String },
    Require { expr: MaskExpr, message: String },
}

fn compile_ops(body: &[MethodOp]) -> Result<Vec<CompiledOp>, OdeError> {
    body.iter()
        .map(|op| {
            Ok(match op {
                MethodOp::Set { field, expr } => CompiledOp::Set {
                    field: field.clone(),
                    expr: parse_mask(expr).map_err(OdeError::Event)?,
                },
                MethodOp::Emit { text } => CompiledOp::Emit { text: text.clone() },
                MethodOp::Require { expr, message } => CompiledOp::Require {
                    expr: parse_mask(expr).map_err(OdeError::Event)?,
                    message: message.clone(),
                },
            })
        })
        .collect()
}

fn substitute(template: &str, names: &[String], ctx: &MethodCtx<'_>) -> String {
    let mut out = template.to_string();
    for (i, name) in names.iter().enumerate() {
        let needle = format!("{{{name}}}");
        if out.contains(&needle) {
            let val = ctx.args().get(i).map(|v| v.to_string()).unwrap_or_default();
            out = out.replace(&needle, &val);
        }
    }
    out
}

fn run_ops(
    ops: &[CompiledOp],
    names: &[String],
    ctx: &mut MethodCtx<'_>,
) -> Result<Value, OdeError> {
    for op in ops {
        match op {
            CompiledOp::Set { field, expr } => {
                let v = {
                    let env = MethodOpEnv { names, ctx };
                    expr.eval(&env).map_err(OdeError::Mask)?
                };
                ctx.set(field.clone(), v);
            }
            CompiledOp::Emit { text } => {
                let line = substitute(text, names, ctx);
                ctx.emit(line);
            }
            CompiledOp::Require { expr, message } => {
                let ok = {
                    let env = MethodOpEnv { names, ctx };
                    expr.eval_bool(&env).map_err(OdeError::Mask)?
                };
                if !ok {
                    return Err(OdeError::Method(message.clone()));
                }
            }
        }
    }
    Ok(Value::Null)
}

fn run_action(spec: &ActionSpec, ctx: &mut ActionCtx<'_>) -> Result<(), OdeError> {
    match spec {
        ActionSpec::Abort => ctx.tabort(),
        ActionSpec::Emit(s) => {
            ctx.emit(s.clone());
            Ok(())
        }
        ActionSpec::Call(m) => ctx.call(m, &[]).map(|_| ()),
        ActionSpec::CallWithEventArgs { method } => {
            let args = ctx.event_args().to_vec();
            ctx.call(method, &args).map(|_| ())
        }
        ActionSpec::Reactivate => {
            let t = ctx.trigger().to_string();
            ctx.activate(&t, &[])
        }
        ActionSpec::Seq(items) => {
            for s in items {
                run_action(s, ctx)?;
            }
            Ok(())
        }
    }
}

fn compile_action(spec: &ActionSpec) -> Action {
    match spec {
        ActionSpec::Abort => Action::Abort,
        ActionSpec::Emit(s) => Action::Emit(s.clone()),
        ActionSpec::Call(m) => Action::Call(m.clone()),
        other => {
            let owned = other.clone();
            Action::Native(Arc::new(move |ctx| run_action(&owned, ctx)))
        }
    }
}

/// Lower a [`ClassSpec`] to an engine [`ClassDef`]. Event-syntax and
/// mask-grammar errors surface here, at define time.
pub fn compile_class(spec: &ClassSpec) -> Result<ClassDef, OdeError> {
    let mut b = ClassDef::builder(&spec.name);
    for f in &spec.fields {
        b = b.field(&f.name, f.default.clone());
    }
    for m in &spec.methods {
        let ops = compile_ops(&m.body)?;
        let names = m.params.clone();
        let kind = if m.update {
            MethodKind::Update
        } else {
            MethodKind::Read
        };
        let param_refs: Vec<&str> = m.params.iter().map(String::as_str).collect();
        b = b.method(&m.name, kind, &param_refs, move |ctx| {
            run_ops(&ops, &names, ctx)
        });
    }
    for mf in &spec.masks {
        let expr = parse_mask(&mf.expr).map_err(OdeError::Event)?;
        let names = mf.params.clone();
        b = b.mask_fn(&mf.name, move |ctx: &MaskFnCtx<'_>, args: &[Value]| {
            let env = MaskSpecEnv {
                names: &names,
                args,
                fields: ctx.fields,
                user: ctx.user,
            };
            expr.eval(&env).ok()
        });
    }
    for t in &spec.triggers {
        b = b.trigger(&t.name, t.perpetual, &t.event, compile_action(&t.action));
        if t.capture {
            b = b.capture_params();
        }
        if t.full_history {
            b = b.full_history();
        }
    }
    let activate: Vec<&str> = spec.activate_on_create.iter().map(String::as_str).collect();
    b = b.activate_on_create(&activate);
    b.build()
}

/// Compile and define `specs`, in order, on `db`.
pub fn define_specs(db: &mut Database, specs: &[ClassSpec]) -> Result<(), OdeError> {
    for spec in specs {
        db.define_class(compile_class(spec)?)?;
    }
    Ok(())
}

/// A ready-made stockroom-shaped spec (the paper's running example):
/// a record field of item quantities, `withdraw`/`deposit` methods
/// written with the record builtins, an `authorized` mask function,
/// an abort trigger T1 and an emit trigger T6. Shared by the
/// integration tests, the examples, and bench E11.
pub fn stockroom_spec() -> ClassSpec {
    ClassSpec {
        name: "room".into(),
        fields: vec![FieldSpec {
            name: "items".into(),
            default: Value::record([("bolt", Value::Int(500)), ("gear", Value::Int(100))]),
        }],
        methods: vec![
            MethodSpec {
                name: "withdraw".into(),
                update: true,
                params: vec!["i".into(), "q".into()],
                body: vec![MethodOp::Set {
                    field: "items".into(),
                    expr: "put(items, i, get(items, i) - q)".into(),
                }],
            },
            MethodSpec {
                name: "deposit".into(),
                update: true,
                params: vec!["i".into(), "q".into()],
                body: vec![MethodOp::Set {
                    field: "items".into(),
                    expr: "put(items, i, get(items, i) + q)".into(),
                }],
            },
        ],
        masks: vec![MaskFnSpec {
            name: "authorized".into(),
            params: vec!["u".into()],
            expr: "u != \"mallory\"".into(),
        }],
        triggers: vec![
            TriggerSpec {
                name: "T1".into(),
                perpetual: true,
                event: "before withdraw && !authorized(user())".into(),
                action: ActionSpec::Abort,
                capture: false,
                full_history: false,
            },
            TriggerSpec {
                name: "T6".into(),
                perpetual: true,
                event: "after withdraw(i, q) && q > 100".into(),
                action: ActionSpec::Emit("large withdrawal".into()),
                capture: false,
                full_history: false,
            },
        ],
        activate_on_create: vec!["T1".into(), "T6".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = stockroom_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ClassSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, "room");
        assert_eq!(back.methods.len(), 2);
        assert_eq!(back.triggers.len(), 2);
    }

    #[test]
    fn compiled_spec_runs_the_paper_semantics() {
        let mut db = Database::new();
        db.define_class(compile_class(&stockroom_spec()).unwrap())
            .unwrap();

        let txn = db.begin_as(Value::Str("alice".into()));
        let room = db.create_object(txn, "room", &[]).unwrap();
        db.call(
            txn,
            room,
            "withdraw",
            &[Value::Str("bolt".into()), Value::Int(150)],
        )
        .unwrap();
        db.commit(txn).unwrap();

        assert_eq!(
            db.peek_field(room, "items").unwrap().member("bolt"),
            Some(&Value::Int(350))
        );
        assert!(db.output().iter().any(|l| l.contains("large withdrawal")));

        // T1: mallory's withdraw aborts the whole transaction.
        let txn = db.begin_as(Value::Str("mallory".into()));
        let r = db.call(
            txn,
            room,
            "withdraw",
            &[Value::Str("bolt".into()), Value::Int(1)],
        );
        assert!(matches!(r, Err(OdeError::Aborted(_))));
        assert_eq!(
            db.peek_field(room, "items").unwrap().member("bolt"),
            Some(&Value::Int(350)),
            "aborted withdraw must roll back"
        );
    }

    #[test]
    fn require_op_fails_the_call_without_aborting() {
        let spec = ClassSpec {
            name: "guarded".into(),
            fields: vec![FieldSpec {
                name: "n".into(),
                default: Value::Int(0),
            }],
            methods: vec![MethodSpec {
                name: "bump".into(),
                update: true,
                params: vec!["by".into()],
                body: vec![
                    MethodOp::Require {
                        expr: "by > 0".into(),
                        message: "bump must be positive".into(),
                    },
                    MethodOp::Set {
                        field: "n".into(),
                        expr: "n + by".into(),
                    },
                    MethodOp::Emit {
                        text: "bumped by {by}".into(),
                    },
                ],
            }],
            masks: vec![],
            triggers: vec![],
            activate_on_create: vec![],
        };
        let mut db = Database::new();
        db.define_class(compile_class(&spec).unwrap()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "guarded", &[]).unwrap();
        let r = db.call(txn, obj, "bump", &[Value::Int(-1)]);
        assert!(matches!(r, Err(OdeError::Method(_))));
        db.call(txn, obj, "bump", &[Value::Int(3)]).unwrap();
        db.commit(txn).unwrap();
        assert_eq!(db.peek_field(obj, "n"), Some(Value::Int(3)));
        assert!(db.output().iter().any(|l| l == "bumped by 3"));
    }

    #[test]
    fn bad_event_syntax_fails_at_compile() {
        let mut spec = stockroom_spec();
        spec.triggers[0].event = "before tcommit".into();
        assert!(compile_class(&spec).is_err());
    }

    #[test]
    fn bad_method_expr_fails_at_compile() {
        let mut spec = stockroom_spec();
        spec.methods[0].body = vec![MethodOp::Set {
            field: "items".into(),
            expr: "put(items, i,".into(),
        }];
        assert!(compile_class(&spec).is_err());
    }
}
