//! The resolved evaluator agrees with the reference.
//!
//! A class's method and mask-function bodies, and a trigger's group and
//! composite masks, are bound once by [`MaskExpr::resolve`] and
//! evaluated by reference; [`MaskExpr::eval`] over a map-backed
//! [`MaskEnv`] that answers every name by string, and the builtins
//! through a string `match`, is the reference. For random
//! expressions over names that are parameters, fields, both (a
//! parameter shadows the field) or neither, calls to the builtins with
//! good and bad arguments, short-circuit operators, int/float mixes,
//! division by zero and overflow, both give the same value or the same
//! error. The one difference is intended: a builtin given arguments it
//! cannot use is a `TypeMismatch` naming it, where the reference can
//! only answer "unknown function". As a trigger mask, each expression
//! puts a posting in the minterm its reference value says, both through
//! the trigger's own [`Alphabet::classify`] and through the class's
//! [`ClassRouter`].

use std::collections::BTreeMap;

use ode_core::{
    Alphabet, BasicEvent, BinOp, ClassRouter, EventExpr, LogicalEvent, MaskEnv, MaskError,
    MaskExpr, MaskMemo, ObjectScope, UnOp, Value,
};
use proptest::prelude::*;

/// Declared parameters: `f` is also a field, so it shadows it.
const PARAMS: [&str; 3] = ["p", "q", "f"];

/// The reference environment: parameters by name, fields by name, the
/// record builtins by a string `match`, and `user()` when a user is set.
struct RefEnv<'a> {
    args: &'a [Value],
    fields: &'a BTreeMap<String, Value>,
    user: Option<&'a Value>,
}

impl MaskEnv for RefEnv<'_> {
    fn param(&self, name: &str) -> Option<Value> {
        let i = PARAMS.iter().position(|n| *n == name)?;
        self.args.get(i).cloned()
    }
    fn field(&self, name: &str) -> Option<Value> {
        self.fields.get(name).cloned()
    }
    fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
        match (name, self.user) {
            ("user", Some(user)) if args.is_empty() => Some(user.clone()),
            ("get", _) => {
                let key = match args.get(1)? {
                    Value::Str(s) => s.as_str(),
                    _ => return None,
                };
                args.first()?.member(key).or(args.get(2)).cloned()
            }
            ("type", _) => Some(Value::Str(args.first()?.type_name().into())),
            ("put", _) => {
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
            ("ifelse", _) => {
                if args.first()?.as_bool()? {
                    args.get(1).cloned()
                } else {
                    args.get(2).cloned()
                }
            }
            _ => None,
        }
    }
}

fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        (-3i64..4).prop_map(Value::Int),
        prop::sample::select(vec![i64::MAX, i64::MIN]).prop_map(Value::Int),
        prop::sample::select(vec![0.0, 0.5, -2.5, 1e308]).prop_map(Value::Float),
        prop::sample::select(vec!["k", "j", "p", "{q}"]).prop_map(|s| Value::Str(s.into())),
    ]
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => scalar(),
        1 => (scalar(), scalar()).prop_map(|(k, j)| Value::record([("k", k), ("j", j)])),
    ]
}

fn leaf() -> impl Strategy<Value = MaskExpr> {
    prop_oneof![
        scalar().prop_map(|v| MaskExpr::lit(v).unwrap()),
        prop::sample::select(vec!["p", "q", "f", "g", "r", "x"]).prop_map(MaskExpr::name),
    ]
}

fn expr() -> impl Strategy<Value = MaskExpr> {
    leaf().prop_recursive(4, 24, 4, |inner| {
        let ops = vec![
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Lt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
        ];
        let funcs = vec!["get", "put", "ifelse", "type", "user", "nope"];
        prop_oneof![
            (prop::sample::select(ops), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| MaskExpr::cmp(op, a, b)),
            (
                prop::sample::select(vec![UnOp::Not, UnOp::Neg]),
                inner.clone()
            )
                .prop_map(|(op, e)| MaskExpr::Unary(op, Box::new(e))),
            (prop::sample::select(vec!["k", "j"]), inner.clone())
                .prop_map(|(m, e)| MaskExpr::Member(Box::new(e), m.into())),
            (
                prop::sample::select(funcs),
                prop::collection::vec(inner.clone(), 0..5)
            )
                .prop_map(|(f, args)| MaskExpr::Call(f.into(), args)),
        ]
    })
}

/// Fields `f` (shadowed by a parameter), `g` and `r`; `x` is neither.
fn fields() -> impl Strategy<Value = BTreeMap<String, Value>> {
    (value(), value(), value()).prop_map(|(f, g, r)| {
        [("f", f), ("g", g), ("r", r)]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    })
}

/// The reference's error, or the one the resolved form may give
/// instead: a builtin's bad arguments name the builtin.
fn agrees(want: &Result<Value, MaskError>, got: &Result<Value, MaskError>) -> bool {
    match (want, got) {
        (Err(MaskError::UnknownFunction(f)), Err(MaskError::TypeMismatch { op, .. })) => {
            f == op && ["get", "put", "ifelse", "type"].contains(&f.as_str())
        }
        _ => want == got,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn resolved_evaluation_matches_the_reference(
        e in expr(),
        // Fewer arguments than parameters, as a mask function may be
        // called with: a missing one falls back to the field.
        args in prop::collection::vec(value(), 0..4),
        fields in fields(),
        user in prop::option::of(value()),
    ) {
        let params: Vec<String> = PARAMS.iter().map(|p| p.to_string()).collect();
        let reference = RefEnv { args: &args, fields: &fields, user: user.as_ref() };
        let want = e.eval(&reference);
        let resolved = e.resolve(&params);
        let scope = ObjectScope { fields: &fields, user: user.as_ref(), fns: None };
        let got = resolved.eval(&args, &scope).map(|v| v.into_owned());
        prop_assert!(agrees(&want, &got), "{e}: reference {want:?}, resolved {got:?}");
        let want_bool = e.eval_bool(&reference);
        let got_bool = resolved.eval_bool(&args, &scope);
        prop_assert!(
            agrees(&want_bool.clone().map(Value::Bool), &got_bool.clone().map(Value::Bool)),
            "{e}: reference {want_bool:?}, resolved {got_bool:?}"
        );
    }

    #[test]
    fn event_masks_classify_as_the_reference_evaluates(
        e in expr(),
        args in prop::collection::vec(value(), 0..4),
        fields in fields(),
        user in prop::option::of(value()),
    ) {
        let m = BasicEvent::after_method("m");
        let masked = LogicalEvent::bare(m.clone()).with_params(PARAMS).with_mask(e.clone());
        let group = Alphabet::build(&EventExpr::Logical(masked.clone())).unwrap();
        let composite = Alphabet::build(&EventExpr::after_method("m").masked(e.clone())).unwrap();
        // Classification reads no parameter by name: it binds `args` by
        // position itself.
        let env = RefEnv { args: &[], fields: &fields, user: user.as_ref() };
        let router = ClassRouter::build([(0, &group), (1, &composite)]);
        let mut memo = MaskMemo::default();
        memo.begin(&router);
        let code = router.code(&m).unwrap();
        for (trigger, alphabet, holds, reference) in [
            (0, &group, group.symbols_for_logical(&masked).unwrap(), RefEnv { args: &args, ..env }),
            (1, &composite, composite.symbols_for_composite_mask(&e), RefEnv { args: &[], ..env }),
        ] {
            let want = e.eval_bool(&reference).map(Value::Bool);
            let classified = alphabet.classify(&m, &args, &env);
            let got = classified.clone().map(|s| Value::Bool(holds.contains(&s.unwrap())));
            prop_assert!(agrees(&want, &got), "{e}: reference {want:?}, classified {got:?}");
            let route = router.routes(code).iter().find(|r| r.trigger == trigger).unwrap();
            let routed = router.symbol(route, &args, &env, &mut memo);
            prop_assert_eq!(routed, classified.map(Option::unwrap), "{}", e);
        }
    }
}
