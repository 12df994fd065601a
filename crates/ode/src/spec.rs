//! Declarative class specifications: a class written as data.
//!
//! A [`ClassSpec`] is pure data: field defaults, method bodies written
//! as small sequences of [`MethodOp`]s whose expressions use the mask
//! grammar (parsed with [`ode_core::parse_mask`]), side-effect-free mask
//! functions, and triggers whose composite events are given as *text* in
//! the paper's §3 surface syntax (parsed with [`ode_core::parse_event`]).
//! [`compile_class`] lowers the spec to a [`ClassDef`]; all parse errors
//! surface at define time, never at call time. Because a spec is data,
//! every executor reads the same form: a network client defines a class
//! by sending one, a WAL directory's schema log
//! ([`crate::durability::SchemaLog`]) records it for recovery, a replica
//! receives it in its stream, and [`crate::demo`] writes the paper's
//! §3.5 `stockRoom` as one.
//!
//! Method and mask-function bodies bind their names once, when the
//! class is defined ([`ode_core::MaskExpr::resolve`]): a declared
//! parameter becomes its position, and any other name is a field, looked
//! up by name when the body runs (objects have an open field set: `New`
//! may override fields, and `Set` may add them). The builtins are bound
//! then too: `get(rec, key)` (`get(rec, key, default)` answers
//! `default` for a missing key), `put(rec, key, val)` (functional
//! update), `ifelse(cond, a, b)`, and `type(v)` (the value's type name:
//! `"string"`, `"int"`, …); mask-function bodies also see `user()`, the
//! calling transaction's user value. Any other function fails when it
//! is called. Trigger masks bind the same way, when the class's
//! alphabets are built, and may also call the class's mask functions.
//! Bodies are evaluated by reference ([`ode_core::Resolved`]):
//! fields, arguments and literals are borrowed, and only computed values
//! are allocated. `Emit` and `Require` texts are split into literal and
//! `{param}` pieces at define time. A `Set` refuses a value nested
//! deeper than [`ode_core::MAX_VALUE_DEPTH`] records with
//! [`ode_core::MaskError::TooDeep`], and [`compile_class`] refuses such
//! a field default, so every field stays checkpointable.

use std::borrow::Cow;
use std::fmt::Write;
use std::sync::Arc;

use ode_core::{parse_mask, ObjectScope, Resolved, Value};
use serde::{Deserialize, Serialize};

use crate::class::{Action, ActionCtx, ClassDef, MethodCtx, MethodKind};
use crate::engine::Database;
use crate::error::OdeError;

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
        /// Error message on failure, with `{param}` placeholders
        /// substituted as in [`MethodOp::Emit`].
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
    /// Call a member function with the completing event's arguments.
    CallWithEventArgs {
        /// Method to call.
        method: String,
    },
    /// Call a member function with the completing event's arguments at
    /// `positions`, in that order — the paper's T2 `order(i)` after
    /// `withdraw(i, q)` is `positions: [0]`. A position the event does
    /// not have fails the action with an [`OdeError::Method`] error.
    CallWithEventArgsAt {
        /// Method to call.
        method: String,
        /// Argument positions of the completing event.
        positions: Vec<usize>,
    },
    /// Re-activate this trigger (T2 "must be explicitly reactivated").
    Reactivate,
    /// Run several actions in order.
    Seq(Vec<ActionSpec>),
}

enum CompiledOp {
    Set { field: String, expr: Resolved },
    Emit { text: Template },
    Require { expr: Resolved, message: Template },
}

fn compile_ops(body: &[MethodOp], params: &[String]) -> Result<Vec<CompiledOp>, OdeError> {
    let resolve = |expr: &str| parse_mask(expr).map(|e| e.resolve(params));
    body.iter()
        .map(|op| {
            Ok(match op {
                MethodOp::Set { field, expr } => CompiledOp::Set {
                    field: field.clone(),
                    expr: resolve(expr)?,
                },
                MethodOp::Emit { text } => CompiledOp::Emit {
                    text: Template::split(text, params),
                },
                MethodOp::Require { expr, message } => CompiledOp::Require {
                    expr: resolve(expr)?,
                    message: Template::split(message, params),
                },
            })
        })
        .collect()
}

/// An `Emit` or `Require` text split once into pieces, each a
/// `{param}` placeholder's position (none for the first) and the
/// literal text after it. Arguments are written into the output, never
/// scanned for placeholders themselves.
struct Template(Vec<(Option<usize>, String)>);

impl Template {
    fn split(text: &str, params: &[String]) -> Template {
        let mut chunks = text.split('{');
        let mut pieces = vec![(None, chunks.next().unwrap_or_default().to_string())];
        for chunk in chunks {
            let param = params
                .iter()
                .enumerate()
                .find_map(|(i, p)| Some((i, chunk.strip_prefix(p.as_str())?.strip_prefix('}')?)));
            match param {
                Some((i, rest)) => pieces.push((Some(i), rest.to_string())),
                None => pieces.last_mut().expect("a first piece").1 += &format!("{{{chunk}"),
            }
        }
        Template(pieces)
    }

    fn render(&self, args: &[Value]) -> String {
        let mut out = String::new();
        for (param, literal) in &self.0 {
            if let Some(v) = param.and_then(|i| args.get(i)) {
                let _ = write!(out, "{v}");
            }
            out.push_str(literal);
        }
        out
    }
}

/// What a method body's expressions read besides its arguments: the
/// object's fields.
fn scope<'a>(ctx: &'a MethodCtx<'_>) -> ObjectScope<'a> {
    ObjectScope {
        fields: ctx.fields,
        user: None,
        fns: None,
    }
}

fn run_ops(ops: &[CompiledOp], ctx: &mut MethodCtx<'_>) -> Result<Value, OdeError> {
    for op in ops {
        match op {
            CompiledOp::Set { field, expr } => {
                let v = expr
                    .eval(ctx.args, &scope(ctx))
                    .map_err(OdeError::Mask)?
                    .into_owned();
                v.check_depth().map_err(OdeError::Mask)?;
                ctx.set(field.clone(), v);
            }
            CompiledOp::Emit { text } => {
                let line = text.render(ctx.args);
                ctx.emit(line);
            }
            CompiledOp::Require { expr, message } => {
                if !expr
                    .eval_bool(ctx.args, &scope(ctx))
                    .map_err(OdeError::Mask)?
                {
                    return Err(OdeError::Method(message.render(ctx.args)));
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
        ActionSpec::CallWithEventArgsAt { method, positions } => {
            let event_args = ctx.event_args();
            let args = positions
                .iter()
                .map(|&i| {
                    event_args.get(i).cloned().ok_or_else(|| {
                        OdeError::Method(format!(
                            "{method}: the event has no argument at position {i}"
                        ))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
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
        f.default.check_depth().map_err(OdeError::Mask)?;
        b = b.field(&f.name, f.default.clone());
    }
    for m in &spec.methods {
        let ops = compile_ops(&m.body, &m.params)?;
        let kind = if m.update {
            MethodKind::Update
        } else {
            MethodKind::Read
        };
        let param_refs: Vec<&str> = m.params.iter().map(String::as_str).collect();
        b = b.method(&m.name, kind, &param_refs, move |ctx| run_ops(&ops, ctx));
    }
    for mf in &spec.masks {
        let body = parse_mask(&mf.expr)
            .map_err(OdeError::Event)?
            .resolve(&mf.params);
        b = b.mask_fn(&mf.name, move |args, s| {
            body.eval(args, s).map(Cow::into_owned)
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
    use ode_core::{MaskError, MAX_VALUE_DEPTH};

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

    /// A method `name(i, q)` whose body is `body`.
    fn two_param_method(name: &str, body: Vec<MethodOp>) -> MethodSpec {
        MethodSpec {
            name: name.into(),
            update: true,
            params: vec!["i".into(), "q".into()],
            body,
        }
    }

    /// A `Require` message substitutes `{param}` with the argument's
    /// value, as `Emit` does; text without a placeholder, or with one
    /// naming no parameter, stays as written.
    #[test]
    fn require_messages_substitute_parameters() {
        let require = |name: &str, message: &str| {
            two_param_method(
                name,
                vec![MethodOp::Require {
                    expr: "q > 0".into(),
                    message: message.into(),
                }],
            )
        };
        let spec = ClassSpec {
            name: "checked".into(),
            fields: vec![],
            methods: vec![
                require("both", "{q} of {i}: not positive"),
                require("plain", "quantity must be positive"),
                require("stranger", "{x} stays, {q} goes"),
            ],
            masks: vec![],
            triggers: vec![],
            activate_on_create: vec![],
        };
        let mut db = Database::new();
        db.define_class(compile_class(&spec).unwrap()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "checked", &[]).unwrap();
        let args = [Value::Str("bolt".into()), Value::Int(-1)];
        for (method, message) in [
            ("both", r#"-1 of "bolt": not positive"#),
            ("plain", "quantity must be positive"),
            ("stranger", "{x} stays, -1 goes"),
        ] {
            match db.call(txn, obj, method, &args) {
                Err(OdeError::Method(m)) => assert_eq!(m, message, "{method}"),
                other => panic!("{method}: expected a Method error, got {other:?}"),
            }
        }
        db.call(
            txn,
            obj,
            "both",
            &[Value::Str("bolt".into()), Value::Int(1)],
        )
        .expect("a passing Require");
    }

    /// Arguments are written into an `Emit` or `Require` text as they
    /// are: a placeholder inside an argument is not substituted again.
    #[test]
    fn templates_do_not_substitute_inside_arguments() {
        let spec = ClassSpec {
            name: "notes".into(),
            fields: vec![],
            methods: vec![
                two_param_method(
                    "note",
                    vec![MethodOp::Emit {
                        text: "item {i} qty {q}".into(),
                    }],
                ),
                two_param_method(
                    "check",
                    vec![MethodOp::Require {
                        expr: "false".into(),
                        message: "item {i} qty {q}".into(),
                    }],
                ),
            ],
            masks: vec![],
            triggers: vec![],
            activate_on_create: vec![],
        };
        let mut db = Database::new();
        db.define_class(compile_class(&spec).unwrap()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "notes", &[]).unwrap();
        let args = [Value::Str("{q}".into()), Value::Int(5)];
        db.call(txn, obj, "note", &args).unwrap();
        assert_eq!(db.take_output(), vec![r#"item "{q}" qty 5"#.to_string()]);
        match db.call(txn, obj, "check", &args) {
            Err(OdeError::Method(m)) => assert_eq!(m, r#"item "{q}" qty 5"#),
            other => panic!("expected a Method error, got {other:?}"),
        }
    }

    /// A mask function whose body fails fails the call with the body's
    /// own error, and a builtin given arguments it cannot use names
    /// itself; neither is reported as an unknown function.
    #[test]
    fn a_failing_mask_function_reports_its_own_error() {
        let class = |body: &str| ClassSpec {
            name: "room".into(),
            fields: vec![FieldSpec {
                name: "items".into(),
                default: Value::record([("bolt", Value::Int(5))]),
            }],
            methods: vec![two_param_method("withdraw", vec![])],
            masks: vec![MaskFnSpec {
                name: "stock".into(),
                params: vec!["i".into()],
                expr: body.into(),
            }],
            triggers: vec![TriggerSpec {
                name: "low".into(),
                perpetual: true,
                event: "after withdraw(i, q) && stock(i) < 10".into(),
                action: ActionSpec::Emit("low".into()),
                capture: false,
                full_history: false,
            }],
            activate_on_create: vec!["low".into()],
        };
        let bolt = Value::Str("bolt".into());
        let get_error = MaskError::TypeMismatch {
            op: "get".into(),
            types: "(record, int)".into(),
        };
        for (body, key, want) in [
            ("get(items, i)", Value::Int(7), get_error),
            ("get(items, i) / 0", bolt.clone(), MaskError::DivisionByZero),
            (
                "get(itemz, i)",
                bolt.clone(),
                MaskError::UnknownField("itemz".into()),
            ),
        ] {
            let mut db = Database::new();
            db.define_class(compile_class(&class(body)).unwrap())
                .unwrap();
            let txn = db.begin();
            let room = db.create_object(txn, "room", &[]).unwrap();
            match db.call(txn, room, "withdraw", &[key, Value::Int(1)]) {
                Err(OdeError::Mask(e)) => assert_eq!(e, want, "{body}"),
                other => panic!("{body}: expected a mask error, got {other:?}"),
            }
        }
        let mut db = Database::new();
        db.define_class(compile_class(&class("get(items, i)")).unwrap())
            .unwrap();
        let txn = db.begin();
        let room = db.create_object(txn, "room", &[]).unwrap();
        db.call(txn, room, "withdraw", &[bolt, Value::Int(1)])
            .unwrap();
        let fired = db.take_output();
        assert!(
            matches!(&fired[..], [line] if line.ends_with("] low")),
            "{fired:?}"
        );
    }

    /// A trigger mask binds calls as a mask-function body does: the
    /// builtins first, in a group mask and in a composite mask alike.
    #[test]
    fn a_trigger_mask_may_call_a_builtin() {
        for event in [
            "after withdraw(i, q) && get(items, i) < 10",
            "(after withdraw) && type(items) == \"record\"",
        ] {
            let spec = ClassSpec {
                name: "room".into(),
                fields: vec![FieldSpec {
                    name: "items".into(),
                    default: Value::record([("bolt", Value::Int(5))]),
                }],
                methods: vec![two_param_method("withdraw", vec![])],
                masks: vec![],
                triggers: vec![TriggerSpec {
                    name: "low".into(),
                    perpetual: true,
                    event: event.into(),
                    action: ActionSpec::Emit("low".into()),
                    capture: false,
                    full_history: false,
                }],
                activate_on_create: vec!["low".into()],
            };
            let mut db = Database::new();
            db.define_class(compile_class(&spec).unwrap()).unwrap();
            let txn = db.begin();
            let room = db.create_object(txn, "room", &[]).unwrap();
            db.call(
                txn,
                room,
                "withdraw",
                &[Value::Str("bolt".into()), Value::Int(1)],
            )
            .unwrap_or_else(|e| panic!("{event}: {e:?}"));
            let fired = db.take_output();
            assert!(
                matches!(&fired[..], [line] if line.ends_with("] low")),
                "{event}: {fired:?}"
            );
        }
    }

    /// `CallWithEventArgsAt` calls with the completing event's arguments
    /// at the chosen positions; a position the event does not have fails
    /// the call that posted it.
    #[test]
    fn call_with_event_args_at_picks_positions() {
        let class = |name: &str, positions: Vec<usize>| ClassSpec {
            name: name.into(),
            fields: vec![],
            methods: vec![
                two_param_method("note", vec![]),
                MethodSpec {
                    name: "order".into(),
                    update: true,
                    params: vec!["x".into()],
                    body: vec![MethodOp::Emit {
                        text: "order({x})".into(),
                    }],
                },
            ],
            masks: vec![],
            triggers: vec![TriggerSpec {
                name: "pick".into(),
                perpetual: true,
                event: "after note".into(),
                action: ActionSpec::CallWithEventArgsAt {
                    method: "order".into(),
                    positions,
                },
                capture: false,
                full_history: false,
            }],
            activate_on_create: vec!["pick".into()],
        };
        let mut db = Database::new();
        db.define_class(compile_class(&class("second", vec![1])).unwrap())
            .unwrap();
        db.define_class(compile_class(&class("third", vec![2])).unwrap())
            .unwrap();
        let txn = db.begin();
        let second = db.create_object(txn, "second", &[]).unwrap();
        let third = db.create_object(txn, "third", &[]).unwrap();
        let args = [Value::Str("bolt".into()), Value::Int(7)];
        db.call(txn, second, "note", &args).unwrap();
        assert_eq!(db.take_output(), vec!["order(7)".to_string()]);
        match db.call(txn, third, "note", &args) {
            Err(OdeError::Method(m)) => {
                assert_eq!(m, "order: the event has no argument at position 2")
            }
            other => panic!("expected a Method error, got {other:?}"),
        }
    }

    /// A `Set` stores values nested up to `MAX_VALUE_DEPTH` records, and
    /// a checkpoint holding the deepest one reads back; one level more
    /// is `TooDeep` and leaves the field as it was.
    #[test]
    fn set_refuses_values_a_checkpoint_could_not_reread() {
        let spec = ClassSpec {
            name: "nest".into(),
            fields: vec![FieldSpec {
                name: "f".into(),
                default: Value::Int(0),
            }],
            methods: vec![MethodSpec {
                name: "wrap".into(),
                update: true,
                params: vec!["empty".into()],
                body: vec![MethodOp::Set {
                    field: "f".into(),
                    expr: "put(empty, \"k\", f)".into(),
                }],
            }],
            masks: vec![],
            triggers: vec![],
            activate_on_create: vec![],
        };
        let mut db = Database::new();
        db.define_class(compile_class(&spec).unwrap()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "nest", &[]).unwrap();
        let empty = [Value::record(Vec::<(String, Value)>::new())];
        for _ in 0..MAX_VALUE_DEPTH {
            db.call(txn, obj, "wrap", &empty).unwrap();
        }
        let r = db.call(txn, obj, "wrap", &empty);
        assert!(
            matches!(r, Err(OdeError::Mask(MaskError::TooDeep { max })) if max == MAX_VALUE_DEPTH),
            "{r:?}"
        );
        db.commit(txn).unwrap();
        let deepest = db.peek_field(obj, "f").unwrap();
        assert!(deepest.check_depth().is_ok());
        assert!(Value::record([("k", deepest.clone())])
            .check_depth()
            .is_err());
        let json = db.snapshot().unwrap().to_json().unwrap();
        let back = crate::persist::Snapshot::from_json(&json).expect("the checkpoint reads back");
        let mut restored = Database::new();
        restored
            .define_class(compile_class(&spec).unwrap())
            .unwrap();
        restored.restore(&back).unwrap();
        assert_eq!(restored.peek_field(obj, "f"), Some(deepest.clone()));
        // A field default is held to the same limit.
        let mut deep_default = spec;
        deep_default.fields[0].default = Value::record([("k", deepest)]);
        assert!(matches!(
            compile_class(&deep_default),
            Err(OdeError::Mask(MaskError::TooDeep { .. }))
        ));
    }
}
