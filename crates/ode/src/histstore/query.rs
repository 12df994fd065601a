//! Ad-hoc queries over the event history: predicate model, planning
//! against the dictionaries, zone pruning and the predicates a scan
//! evaluates.
//!
//! A query runs in three tiers, cheapest first. `zone_may_match`
//! refutes whole segments from their in-memory zone metadata. In a
//! segment that survives, the scan (`segment::scan`) evaluates the
//! fixed-column conjuncts (`Plan::keeps`: class, object, kind,
//! qualifier, seq and time ranges) on the decoded columns, then parses
//! the JSON args of only the rows those select and applies the argument
//! predicates (`Plan::args_hold`); an [`EventRow`] is built only for a
//! row that passes both. The in-memory active set runs the same two
//! predicates row by row (`Plan::matches`).

use std::cmp::Ordering;

use ode_core::{Qualifier, Value};

use super::row::{EventRow, KindDict, QUAL_AFTER, QUAL_BEFORE};
use super::segment::{bit_get, ZoneMeta};

/// Comparison operator for an argument predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Parse the wire spelling (`eq`, `ne`, `lt`, `le`, `gt`, `ge`).
    pub fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }
}

/// A predicate on one positional argument of the posting.
#[derive(Clone, Debug)]
pub struct ArgPred {
    /// Argument position.
    pub index: usize,
    /// Comparison.
    pub op: CmpOp,
    /// Right-hand value.
    pub value: Value,
}

/// A history query: every field is a conjunct, `None`/empty = no
/// constraint. Ranges are inclusive.
#[derive(Clone, Debug, Default)]
pub struct HistQuery {
    /// Class name.
    pub class: Option<String>,
    /// Object id.
    pub object: Option<u64>,
    /// Event kind: a fixed kind name (`create` … `tabort`, `start`,
    /// `time`) or a method name.
    pub kind: Option<String>,
    /// Qualifier (`before`/`after`); only `Db` events have one.
    pub qualifier: Option<Qualifier>,
    /// Argument predicates (all must hold).
    pub args: Vec<ArgPred>,
    /// Minimum posting seq.
    pub min_seq: Option<u64>,
    /// Maximum posting seq.
    pub max_seq: Option<u64>,
    /// Minimum commit-time virtual clock (ms).
    pub min_time: Option<u64>,
    /// Maximum commit-time virtual clock (ms).
    pub max_time: Option<u64>,
    /// Row cap; matching stops once reached.
    pub limit: Option<usize>,
}

/// Answer to a query, rows in store order (= commit order, posting
/// order within a transaction).
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Matching rows.
    pub rows: Vec<EventRow>,
    /// The limit cut matching short — more rows exist.
    pub truncated: bool,
    /// Segments whose bodies were decoded.
    pub segments_scanned: usize,
    /// Segments pruned by zone metadata alone.
    pub segments_skipped: usize,
}

/// A query compiled against the store's dictionaries: names resolved
/// to codes, ranges closed.
#[derive(Clone, Debug)]
pub(crate) struct Plan {
    class: Option<u32>,
    object: Option<u64>,
    kind: Option<u32>,
    qual: Option<u8>,
    args: Vec<ArgPred>,
    min_seq: u64,
    max_seq: u64,
    min_time: u64,
    max_time: u64,
    /// A named class or kind is unknown to the dictionaries — nothing
    /// can match.
    impossible: bool,
    pub(crate) limit: usize,
}

impl Plan {
    /// The plan that selects every row: the full decode of a segment.
    pub(crate) fn all() -> Plan {
        compile(&HistQuery::default(), &[], &KindDict::default())
    }

    /// The fixed-column conjuncts, evaluated on one row's column values.
    pub(crate) fn keeps(
        &self,
        class: u32,
        object: u64,
        kind: u32,
        qual: u8,
        seq: u64,
        time: u64,
    ) -> bool {
        !self.impossible
            && self.class.map_or(true, |c| c == class)
            && self.object.map_or(true, |o| o == object)
            && self.kind.map_or(true, |k| k == kind)
            && self.qual.map_or(true, |q| q == qual)
            && (self.min_seq..=self.max_seq).contains(&seq)
            && (self.min_time..=self.max_time).contains(&time)
    }

    /// The argument predicates, all of which must hold.
    pub(crate) fn args_hold(&self, args: &[Value]) -> bool {
        self.args.iter().all(|p| pred_holds(p, args))
    }

    /// Both tiers on an in-memory row.
    pub(crate) fn matches(&self, row: &EventRow) -> bool {
        self.keeps(row.class, row.object, row.kind, row.qual, row.seq, row.time)
            && self.args_hold(&row.args)
    }
}

pub(crate) fn compile(q: &HistQuery, classes: &[String], dict: &KindDict) -> Plan {
    let mut impossible = false;
    let class = q
        .class
        .as_ref()
        .map(|name| match classes.iter().position(|c| c == name) {
            Some(i) => i as u32,
            None => {
                impossible = true;
                u32::MAX
            }
        });
    let kind = q.kind.as_ref().map(|name| match dict.lookup_kind(name) {
        Some(c) => c,
        None => {
            impossible = true;
            u32::MAX
        }
    });
    Plan {
        class,
        object: q.object,
        kind,
        qual: q.qualifier.map(|qu| match qu {
            Qualifier::Before => QUAL_BEFORE,
            Qualifier::After => QUAL_AFTER,
        }),
        args: q.args.clone(),
        min_seq: q.min_seq.unwrap_or(0),
        max_seq: q.max_seq.unwrap_or(u64::MAX),
        min_time: q.min_time.unwrap_or(0),
        max_time: q.max_time.unwrap_or(u64::MAX),
        impossible,
        limit: q.limit.unwrap_or(usize::MAX),
    }
}

/// Can any row of a segment with these zones match? `false` = skip the
/// segment without decoding it.
pub(crate) fn zone_may_match(plan: &Plan, meta: &ZoneMeta) -> bool {
    if plan.impossible || meta.rows == 0 {
        return false;
    }
    if let Some(c) = plan.class {
        if !bit_get(&meta.class_bits, c) {
            return false;
        }
    }
    if let Some(k) = plan.kind {
        if !bit_get(&meta.kind_bits, k) {
            return false;
        }
    }
    if let Some(o) = plan.object {
        if o < meta.min_object || o > meta.max_object {
            return false;
        }
    }
    plan.min_seq <= meta.max_seq
        && plan.max_seq >= meta.min_seq
        && plan.min_time <= meta.max_time
        && plan.max_time >= meta.min_time
}

/// Ordering between two values, when they are comparable: numbers with
/// numbers (ints and floats mix), strings with strings, bools with
/// bools. Incomparable pairs fail ordered predicates.
pub fn value_cmp(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// Equality with the masks' Int/Float coercion (`3 == 3.0`), so an
/// `eq`/`ne` predicate agrees with `ge && le` and with a §3.2 mask.
fn values_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) => *x as f64 == *y,
        (Value::Float(x), Value::Int(y)) => *x == *y as f64,
        _ => a == b,
    }
}

fn pred_holds(p: &ArgPred, args: &[Value]) -> bool {
    let Some(v) = args.get(p.index) else {
        return false;
    };
    match p.op {
        CmpOp::Eq => values_eq(v, &p.value),
        CmpOp::Ne => !values_eq(v, &p.value),
        CmpOp::Lt => value_cmp(v, &p.value) == Some(Ordering::Less),
        CmpOp::Le => matches!(
            value_cmp(v, &p.value),
            Some(Ordering::Less | Ordering::Equal)
        ),
        CmpOp::Gt => value_cmp(v, &p.value) == Some(Ordering::Greater),
        CmpOp::Ge => matches!(
            value_cmp(v, &p.value),
            Some(Ordering::Greater | Ordering::Equal)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_comparisons() {
        assert_eq!(
            value_cmp(&Value::Int(3), &Value::Float(3.5)),
            Some(Ordering::Less)
        );
        assert_eq!(value_cmp(&Value::Int(3), &Value::Str("x".into())), None);
        assert!(pred_holds(
            &ArgPred {
                index: 0,
                op: CmpOp::Gt,
                value: Value::Int(10)
            },
            &[Value::Int(11)]
        ));
        assert!(!pred_holds(
            &ArgPred {
                index: 1,
                op: CmpOp::Eq,
                value: Value::Int(10)
            },
            &[Value::Int(10)]
        ));
    }

    #[test]
    fn eq_and_ne_coerce_numerics_like_masks() {
        let pred = |op, value| ArgPred {
            index: 0,
            op,
            value,
        };
        let three = [Value::Int(3)];
        assert!(pred_holds(&pred(CmpOp::Eq, Value::Float(3.0)), &three));
        assert!(!pred_holds(&pred(CmpOp::Ne, Value::Float(3.0)), &three));
        assert!(pred_holds(&pred(CmpOp::Ne, Value::Float(3.5)), &three));
        assert!(pred_holds(
            &pred(CmpOp::Eq, Value::Int(2)),
            &[Value::Float(2.0)]
        ));
        // Other types still compare exactly: no string/number coercion.
        assert!(!pred_holds(
            &pred(CmpOp::Eq, Value::Str("3".into())),
            &three
        ));
        // Agrees with the closed band `ge 3.0 && le 3.0` on the same row.
        let band = [
            pred(CmpOp::Ge, Value::Float(3.0)),
            pred(CmpOp::Le, Value::Float(3.0)),
        ];
        assert!(band.iter().all(|p| pred_holds(p, &three)));
    }
}
