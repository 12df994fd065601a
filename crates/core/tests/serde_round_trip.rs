//! Serialization round trips: a persistent database must persist its
//! trigger definitions, so event specifications, masks, and values
//! serialize losslessly.

use ode_core::{parse_event, EventExpr, Value};

fn round_trip(e: &EventExpr) {
    let json = serde_json::to_string(e).expect("serializes");
    let back: EventExpr = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(&back, e, "round trip changed the expression:\n{json}");
}

#[test]
fn event_expressions_round_trip() {
    for src in [
        "after withdraw(Item i, int q) && q > 1000",
        "relative(after motorStart, after motorStop)",
        "fa(after tbegin, prior(after update, after tcommit), \
         (after tcommit | after tabort))",
        "choose 5 (after tcommit)",
        "every 5 (after access)",
        "balance < 500.0",
        "at time(HR=9)",
        "after time(HR=2, M=30)",
        "after deposit; before withdraw; after withdraw",
        "!(before deposit | after deposit)",
        "relative+(after a)",
        "relative 5 (after a)",
        "empty",
    ] {
        round_trip(&parse_event(src).unwrap());
    }
}

#[test]
fn values_round_trip() {
    let v = Value::record([
        ("name", Value::Str("bolt".into())),
        ("balance", Value::Int(42)),
        ("weight", Value::Float(2.5)),
        ("tags", Value::record([("fragile", Value::Bool(false))])),
        ("note", Value::Null),
    ]);
    let json = serde_json::to_string(&v).unwrap();
    let back: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(back, v);
}

#[test]
fn serialized_spec_still_compiles() {
    let e = parse_event("fa(after tbegin, after update, after tabort)").unwrap();
    let json = serde_json::to_string(&e).unwrap();
    let back: EventExpr = serde_json::from_str(&json).unwrap();
    let c1 = ode_core::CompiledEvent::compile(&e).unwrap();
    let c2 = ode_core::CompiledEvent::compile(&back).unwrap();
    assert!(c1.dfa().equivalent(c2.dfa()));
}

#[test]
fn float_masks_preserve_bit_patterns() {
    // 500.00 in a mask must survive exactly (FloatBits).
    let e = parse_event("balance < 500.0").unwrap();
    round_trip(&e);
    let e2 = parse_event("x == 0.1").unwrap();
    round_trip(&e2);
}
