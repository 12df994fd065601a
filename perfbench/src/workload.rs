//! The five workloads, the two classes they use, and the seeded plan
//! of requests each writer sends.
//!
//! Everything here is a pure function of the workload and the seed:
//! the server sees only the requests this module plans.

use ode_core::Value;
use ode_server::{
    ActionSpec, ClassSpec, Command, FieldSpec, MaskFnSpec, MethodOp, MethodSpec, TriggerSpec,
};

use crate::rng::{Rng, Zipf};

pub const CLASS_NAME: &str = "room";
pub const ITEMS: [&str; 4] = ["bolt", "gear", "nut", "cog"];
pub const INITIAL_STOCK: i64 = 1_000_000;
/// Quantities are drawn from `1..=MAX_QTY`; the masks split this range.
pub const MAX_QTY: i64 = 64;
/// The name of the perpetual `after withdraw` trigger whose firing
/// echoes the call's tag back to the subscribers.
pub const PROBE: &str = "probe";
/// The `q > t` query of `hist_mixed` and the history probes.
pub const SCAN_QTY_ABOVE: i64 = 60;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassKind {
    /// Fields, three methods, the probe and one composite that never
    /// completes; every trigger monitors the full history and there is
    /// no mask function, so the engine keeps no per-object history.
    Light,
    /// The same methods under 32 perpetual triggers that all mention
    /// the posted events.
    Dense,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pick {
    Uniform,
    /// Zipf with exponent 1.0 over the writer's own objects.
    Zipf,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// One `PeekField` of one of the writer's objects, after every
    /// 16th transaction.
    Peek,
    /// A closed-loop reader on thread 1 refreshing three `Query`s.
    HistRefresh,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub class: ClassKind,
    pub wal: bool,
    pub history: bool,
    pub shards: usize,
    /// Closed-loop writer connections, one per generator thread
    /// starting at thread 0.
    pub writers: usize,
    pub objects_per_writer: usize,
    pub pick: Pick,
    pub calls_per_txn: usize,
    /// One transaction in this many touches one object on each shard
    /// (0: never).
    pub cross_shard_one_in: u64,
    /// Subscriber sockets multiplexed on generator thread 0 and 1.
    pub subs: [usize; 2],
    /// The writer starts its next transaction only when every
    /// subscriber has the firing of the current one.
    pub closed_on_delivery: bool,
    pub read: ReadKind,
    /// Share of calls that are `withdraw`, in percent; the rest are
    /// `deposit`.
    pub withdraw_pct: u64,
    /// Calls sent before the measurement to fill the history store.
    pub preload_calls: usize,
    /// Every so-many-th preloaded call is an `audit` (0: never), so every
    /// seed leaves the same number of segments that hold one. The
    /// measured writers never audit: the rare-kind query of a refresh
    /// finds its rows in the preloaded segments only, and its work does
    /// not grow with what the writer has ingested.
    pub preload_audit_every: u64,
    /// Transactions per writer the traced run replays in process.
    pub replay_txns: usize,
}

/// Calls per preload transaction.
pub const PRELOAD_CALLS_PER_TXN: usize = 8;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wire_light",
        why: "three round trips around almost no engine work: protocol, codec, reactor and the worker hand-off dominate",
        class: ClassKind::Light,
        wal: false,
        history: false,
        shards: 1,
        writers: 2,
        objects_per_writer: 2048,
        pick: Pick::Uniform,
        calls_per_txn: 1,
        cross_shard_one_in: 0,
        subs: [1, 0],
        closed_on_delivery: false,
        read: ReadKind::Peek,
        withdraw_pct: 60,
        preload_calls: 0,
        preload_audit_every: 0,
        replay_txns: 4000,
    },
    Workload {
        name: "trigger_dense",
        why: "32 relevant triggers per posting on long-lived hot objects: router, masks, DFA steps and engine commit dominate",
        class: ClassKind::Dense,
        wal: false,
        history: false,
        shards: 1,
        writers: 2,
        objects_per_writer: 256,
        pick: Pick::Zipf,
        calls_per_txn: 8,
        cross_shard_one_in: 0,
        subs: [1, 0],
        closed_on_delivery: false,
        read: ReadKind::Peek,
        withdraw_pct: 60,
        preload_calls: 0,
        preload_audit_every: 0,
        replay_txns: 1500,
    },
    Workload {
        name: "durable_commit",
        why: "default WAL on two shards with 1 in 8 transactions cross-shard: append, wait_durable, flusher wake-up and 2PC dominate",
        class: ClassKind::Light,
        wal: true,
        history: false,
        shards: 2,
        writers: 2,
        objects_per_writer: 512,
        pick: Pick::Uniform,
        calls_per_txn: 2,
        cross_shard_one_in: 8,
        subs: [1, 0],
        closed_on_delivery: false,
        read: ReadKind::Peek,
        withdraw_pct: 60,
        preload_calls: 0,
        preload_audit_every: 0,
        replay_txns: 3000,
    },
    Workload {
        name: "fanout",
        why: "one writer, 32 subscribers, next transaction only when all 32 have the firing: the reactor's push direction dominates",
        class: ClassKind::Light,
        wal: false,
        history: false,
        shards: 1,
        writers: 1,
        objects_per_writer: 2048,
        pick: Pick::Uniform,
        calls_per_txn: 1,
        cross_shard_one_in: 0,
        subs: [0, 32],
        closed_on_delivery: true,
        read: ReadKind::Peek,
        // Every transaction must produce a firing to wait for.
        withdraw_pct: 100,
        preload_calls: 0,
        preload_audit_every: 0,
        replay_txns: 4000,
    },
    Workload {
        name: "hist_mixed",
        why: "durable writes feeding the history indexer beside a reader refreshing three queries over ten sealed segments",
        class: ClassKind::Light,
        wal: true,
        history: true,
        shards: 1,
        writers: 1,
        objects_per_writer: 512,
        pick: Pick::Uniform,
        calls_per_txn: 1,
        cross_shard_one_in: 0,
        subs: [0, 1],
        closed_on_delivery: false,
        read: ReadKind::HistRefresh,
        withdraw_pct: 60,
        preload_calls: 5600,
        // Rare enough that most 4096-row segments hold none, so the kind
        // bitmap in their zone metadata prunes them.
        preload_audit_every: 1400,
        replay_txns: 3000,
    },
];

/// Why a workload name was refused.
#[derive(Debug)]
pub struct UnknownWorkload(pub String);

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        write!(
            f,
            "unknown workload {:?}; expected one of {}",
            self.0,
            names.join(", ")
        )
    }
}

impl std::error::Error for UnknownWorkload {}

pub fn find(name: &str) -> Result<&'static Workload, UnknownWorkload> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| UnknownWorkload(name.to_string()))
}

impl Workload {
    pub fn objects(&self) -> usize {
        self.writers * self.objects_per_writer
    }

    /// Subscriber sockets over both generator threads.
    pub fn subscribers(&self) -> usize {
        self.subs[0] + self.subs[1]
    }
}

// ------------------------------------------------------------- classes

fn method(name: &str, update: bool, params: &[&str], body: Vec<MethodOp>) -> MethodSpec {
    MethodSpec {
        name: name.into(),
        update,
        params: params.iter().map(|p| p.to_string()).collect(),
        body,
    }
}

fn trigger(name: &str, event: &str, full_history: bool, capture: bool) -> TriggerSpec {
    TriggerSpec {
        name: name.into(),
        perpetual: true,
        event: event.into(),
        // The firing notice is the product; an `Emit` action would only
        // grow the server's output log without bound.
        action: ActionSpec::Seq(Vec::new()),
        capture,
        full_history,
    }
}

/// The quantity thresholds of the dense class's eight overlapping
/// masks on `after withdraw`.
pub const MASK_THRESHOLDS: [i64; 8] = [33, 37, 41, 45, 49, 53, 57, 61];
/// `bulk(q)`, the dense class's mask function, is `q > BULK_ABOVE`.
pub const BULK_ABOVE: i64 = 48;

/// The events a call's envelope posts besides `after <method>`, and
/// the transaction events around it.
const ENVELOPE: [&str; 9] = [
    "before access",
    "before update",
    "before withdraw",
    "before deposit",
    "after update",
    "after access",
    "after tbegin",
    "before tcomplete",
    "after tcommit",
];

/// `event`, made relevant to every posting of a call: the envelope
/// events (except `completes_on`, where `event` itself occurs) join its
/// alphabet under a negation, so the automaton steps on each of them
/// and still accepts exactly where `event` does.
fn watching(event: &str, completes_on: &[&str]) -> String {
    let rest: Vec<&str> = ENVELOPE
        .iter()
        .copied()
        .filter(|e| !completes_on.contains(e))
        .collect();
    format!("({event}) & !({})", rest.join(" | "))
}

/// The dense class's 32 triggers. Every §3 operator family appears and
/// every trigger mentions every event a call posts, so each posting
/// steps all 32 automata — the §5 cost model under test. The `every n`
/// wrappers keep the firing volume near two notices per call so that
/// detection, not delivery, stays the subject.
fn dense_triggers() -> Vec<TriggerSpec> {
    let w = "after withdraw";
    let d = "after deposit";
    let on_method = |name: &str, event: String, full_history: bool, capture: bool| {
        trigger(name, &watching(&event, &[]), full_history, capture)
    };
    let mut t = vec![
        on_method(PROBE, w.to_string(), true, false),
        on_method("rel", format!("every 8 (relative({w}, {d}))"), true, false),
        on_method("rel_plus", format!("every 8 (relative+({d}))"), true, false),
        on_method("rel_n", format!("every 8 (relative 3 ({w}))"), true, false),
        on_method("prior", format!("every 8 (prior({d}, {w}))"), true, false),
        on_method(
            "seq",
            format!("every 8 (before withdraw; {w})"),
            true,
            false,
        ),
        on_method("choose_w", format!("choose 3 ({w})"), true, false),
        on_method("choose_d", format!("choose 5 ({d})"), true, false),
        on_method("every_w", format!("every 12 ({w})"), true, false),
        on_method("every_d", format!("every 9 ({d})"), true, false),
        on_method(
            "fa",
            format!("every 8 (fa(after tbegin, {w}, after tcommit))"),
            true,
            false,
        ),
        on_method(
            "fa_abs",
            format!("every 8 (faAbs(after tbegin, {d}, after tcommit))"),
            true,
            false,
        ),
        on_method(
            "and_not",
            format!("every 16 (({w} | {d}) & !after audit)"),
            true,
            false,
        ),
        on_method("or", format!("after audit | every 16 ({d})"), true, false),
        trigger(
            "not_and",
            &watching(
                &format!("every 16 (!({d}) & after update)"),
                &["after update"],
            ),
            true,
            false,
        ),
        trigger(
            "sys",
            &watching("every 8 (after tcommit)", &["after tcommit"]),
            true,
            false,
        ),
        on_method(
            "bulk",
            "every 4 (after deposit(i, q, tag) && bulk(q))".to_string(),
            true,
            false,
        ),
        on_method(
            "cap_prior",
            format!("every 16 (prior({w}, {d}))"),
            true,
            true,
        ),
        on_method("cap_rel", format!("relative(after audit, {w})"), true, true),
        on_method("cap_every", format!("every 10 ({w})"), true, true),
        on_method(
            "cap_seq",
            format!("every 8 (before deposit; {d})"),
            true,
            true,
        ),
        // The two committed-history monitors: their automaton state is
        // object data, and they make the engine keep the object history.
        on_method("hist_every", format!("every 14 ({w})"), false, false),
        on_method(
            "hist_fa",
            format!("every 8 (fa(after tbegin, {d}, after tcommit))"),
            false,
            false,
        ),
    ];
    // Eight triggers, each with two of the eight `q > t` masks on the
    // same basic event: four minterms per trigger, eight distinct masks
    // for the class router to share. (One more trigger closes the 32.)
    for (k, &a) in MASK_THRESHOLDS.iter().enumerate() {
        let b = MASK_THRESHOLDS[(k + 3) % 8];
        t.push(on_method(
            &format!("mask{k}"),
            format!(
                "every 4 (relative(after withdraw(i, q, tag) && q > {a}, \
                 after withdraw(i, q, tag) && q > {b}))"
            ),
            true,
            false,
        ));
    }
    t.push(on_method(
        "seq_n",
        format!("every 8 (sequence 2 (before deposit | {d}))"),
        true,
        false,
    ));
    t
}

fn light_triggers() -> Vec<TriggerSpec> {
    vec![
        trigger(PROBE, "after withdraw", true, false),
        // Both constituents are posted all the time, so the automaton
        // steps, but no quantity is ever above MAX_QTY.
        trigger(
            "never",
            "relative(after withdraw, after deposit(i, q, tag) && q > 1000)",
            true,
            false,
        ),
    ]
}

pub fn class_spec(kind: ClassKind) -> ClassSpec {
    let triggers = match kind {
        ClassKind::Light => light_triggers(),
        ClassKind::Dense => dense_triggers(),
    };
    let masks = match kind {
        ClassKind::Light => Vec::new(),
        ClassKind::Dense => vec![MaskFnSpec {
            name: "bulk".into(),
            params: vec!["q".into()],
            expr: format!("q > {BULK_ABOVE}"),
        }],
    };
    let set_items = |sign: &str| {
        vec![MethodOp::Set {
            field: "items".into(),
            expr: format!("put(items, i, get(items, i) {sign} q)"),
        }]
    };
    ClassSpec {
        name: CLASS_NAME.into(),
        fields: vec![FieldSpec {
            name: "items".into(),
            default: Value::record(ITEMS.iter().map(|i| (*i, Value::Int(INITIAL_STOCK)))),
        }],
        methods: vec![
            method("withdraw", true, &["i", "q", "tag"], set_items("-")),
            method("deposit", true, &["i", "q", "tag"], set_items("+")),
            method("audit", false, &["tag"], Vec::new()),
        ],
        masks,
        activate_on_create: triggers.iter().map(|t| t.name.clone()).collect(),
        triggers,
    }
}

// ---------------------------------------------------------------- plan

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Withdraw,
    Deposit,
    Audit,
}

impl Method {
    pub fn name(self) -> &'static str {
        match self {
            Method::Withdraw => "withdraw",
            Method::Deposit => "deposit",
            Method::Audit => "audit",
        }
    }
}

/// One planned `Call`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallPlan {
    /// Global object id (objects are created in one sequence, so the
    /// id is the creation ordinal plus one).
    pub object: u64,
    pub method: Method,
    pub item: usize,
    pub qty: i64,
    /// Unique per call: `writer << 32 | call ordinal` (ordinals start
    /// at 1; the preload uses writer 255).
    pub tag: u64,
}

impl CallPlan {
    pub fn args(&self) -> Vec<Value> {
        match self.method {
            Method::Audit => vec![Value::Int(self.tag as i64)],
            _ => vec![
                Value::Str(ITEMS[self.item].to_string()),
                Value::Int(self.qty),
                Value::Int(self.tag as i64),
            ],
        }
    }

    pub fn command(&self) -> Command {
        Command::Call {
            object: self.object,
            method: self.method.name().to_string(),
            args: self.args(),
        }
    }
}

/// One planned transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnPlan {
    pub calls: Vec<CallPlan>,
    /// The object to `PeekField` after the commit, on every 16th
    /// transaction of a `ReadKind::Peek` workload.
    pub peek: Option<u64>,
}

pub const PRELOAD_WRITER: u64 = 255;

pub fn tag_of(writer: u64, ordinal: u64) -> u64 {
    writer << 32 | ordinal
}

/// The endless, seeded sequence of one writer's transactions.
pub struct Planner {
    wl: &'static Workload,
    writer: u64,
    rng: Rng,
    zipf: Option<Zipf>,
    /// First object id of this writer's own range.
    base: u64,
    span: u64,
    txns: u64,
    calls: u64,
}

impl Planner {
    pub fn new(wl: &'static Workload, seed: u64, writer: usize) -> Planner {
        Planner {
            wl,
            writer: writer as u64,
            rng: Rng::new(seed, writer as u64),
            zipf: (wl.pick == Pick::Zipf).then(|| Zipf::new(wl.objects_per_writer, 1.0)),
            base: 1 + (writer * wl.objects_per_writer) as u64,
            span: wl.objects_per_writer as u64,
            txns: 0,
            calls: 0,
        }
    }

    /// The preload of `hist_mixed`: one more writer's worth of traffic
    /// over the whole object range, in transactions of
    /// [`PRELOAD_CALLS_PER_TXN`] calls.
    pub fn preload(wl: &'static Workload, seed: u64) -> Planner {
        Planner {
            wl,
            writer: PRELOAD_WRITER,
            rng: Rng::new(seed, PRELOAD_WRITER),
            zipf: None,
            base: 1,
            span: wl.objects() as u64,
            txns: 0,
            calls: 0,
        }
    }

    fn pick_object(&mut self) -> u64 {
        let k = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) as u64,
            None => self.rng.below(self.span),
        };
        self.base + k
    }

    /// An object of this writer's range on the given shard (objects are
    /// placed round-robin, so shard = (id - 1) mod shards).
    fn pick_on_shard(&mut self, shard: u64) -> u64 {
        let shards = self.wl.shards as u64;
        loop {
            let o = self.pick_object();
            if (o - 1) % shards == shard {
                return o;
            }
        }
    }

    fn call(&mut self, object: u64) -> CallPlan {
        self.calls += 1;
        let every = self.wl.preload_audit_every;
        let method =
            if self.writer == PRELOAD_WRITER && every > 0 && self.calls.is_multiple_of(every) {
                Method::Audit
            } else if self.rng.below(100) < self.wl.withdraw_pct {
                Method::Withdraw
            } else {
                Method::Deposit
            };
        CallPlan {
            object,
            method,
            item: self.rng.below(ITEMS.len() as u64) as usize,
            qty: 1 + self.rng.below(MAX_QTY as u64) as i64,
            tag: tag_of(self.writer, self.calls),
        }
    }

    pub fn next_txn(&mut self) -> TxnPlan {
        self.txns += 1;
        let k = if self.writer == PRELOAD_WRITER {
            PRELOAD_CALLS_PER_TXN
        } else {
            self.wl.calls_per_txn
        };
        let shards = self.wl.shards as u64;
        let cross = shards > 1
            && self.wl.cross_shard_one_in > 0
            && self.rng.below(self.wl.cross_shard_one_in) == 0;
        let mut calls = Vec::with_capacity(k);
        let first = self.pick_object();
        let home = (first - 1) % shards;
        calls.push(self.call(first));
        for j in 1..k {
            // A sharded workload keeps a transaction on one shard, except
            // the cross-shard ones, which alternate between two.
            let object = if shards == 1 {
                self.pick_object()
            } else if cross {
                self.pick_on_shard((home + j as u64) % shards)
            } else {
                self.pick_on_shard(home)
            };
            calls.push(self.call(object));
        }
        let peek = (self.writer != PRELOAD_WRITER
            && self.wl.read == ReadKind::Peek
            && self.txns.is_multiple_of(16))
        .then(|| self.pick_object());
        TxnPlan { calls, peek }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::encode_request;
    use ode_core::Value;

    /// The request lines one writer's connection would carry for its
    /// first `n` transactions.
    fn request_stream(wl: &'static Workload, seed: u64, writer: usize, n: usize) -> String {
        let mut p = Planner::new(wl, seed, writer);
        let mut id = 0;
        let mut out = String::new();
        let mut push = |cmd: Command| {
            id += 1;
            out.push_str(&encode_request(id, cmd));
        };
        for _ in 0..n {
            let t = p.next_txn();
            push(Command::Begin {
                user: Value::Str("w".into()),
            });
            for c in &t.calls {
                push(c.command());
            }
            push(Command::Commit);
            if let Some(o) = t.peek {
                push(Command::PeekField {
                    object: o,
                    field: "items".into(),
                });
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for wl in &WORKLOADS {
            for writer in 0..wl.writers {
                let a = request_stream(wl, 11, writer, 200);
                let b = request_stream(wl, 11, writer, 200);
                assert_eq!(a, b, "{} writer {writer}", wl.name);
                let c = request_stream(wl, 12, writer, 200);
                assert_ne!(a, c, "{}: seeds must differ", wl.name);
            }
        }
        let w = find("wire_light").unwrap();
        assert_ne!(
            request_stream(w, 11, 0, 50),
            request_stream(w, 11, 1, 50),
            "writers must differ"
        );
    }

    #[test]
    fn writers_stay_on_their_own_objects_and_tags_are_unique() {
        for wl in &WORKLOADS {
            let mut tags = std::collections::HashSet::new();
            for writer in 0..wl.writers {
                let lo = 1 + (writer * wl.objects_per_writer) as u64;
                let hi = lo + wl.objects_per_writer as u64;
                let mut p = Planner::new(wl, 3, writer);
                for _ in 0..500 {
                    let t = p.next_txn();
                    assert_eq!(t.calls.len(), wl.calls_per_txn);
                    for c in &t.calls {
                        assert!((lo..hi).contains(&c.object), "{}", wl.name);
                        assert!((1..=MAX_QTY).contains(&c.qty));
                        assert!(tags.insert(c.tag), "tag reused");
                    }
                    if let Some(o) = t.peek {
                        assert!((lo..hi).contains(&o));
                    }
                }
            }
        }
    }

    #[test]
    fn sharded_transactions_cross_shards_one_time_in_eight() {
        let wl = find("durable_commit").unwrap();
        let mut p = Planner::new(wl, 5, 0);
        let mut cross = 0;
        let n = 8000;
        for _ in 0..n {
            let t = p.next_txn();
            let shards: std::collections::BTreeSet<u64> =
                t.calls.iter().map(|c| (c.object - 1) % 2).collect();
            cross += (shards.len() == 2) as u32;
        }
        let share = f64::from(cross) / f64::from(n);
        assert!((share - 0.125).abs() < 0.015, "cross-shard share {share}");
    }

    #[test]
    fn every_sixteenth_transaction_is_followed_by_a_read() {
        let wl = find("wire_light").unwrap();
        let mut p = Planner::new(wl, 1, 0);
        let reads: Vec<usize> = (1..=64).filter(|_| p.next_txn().peek.is_some()).collect();
        assert_eq!(reads.len(), 4);
        // hist_mixed reads from its own reader connection instead.
        let wl = find("hist_mixed").unwrap();
        let mut p = Planner::new(wl, 1, 0);
        assert!((0..64).all(|_| p.next_txn().peek.is_none()));
    }

    #[test]
    fn benchmark_json_names_these_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        for wl in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", wl.name, wl.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }

    #[test]
    fn closed_on_delivery_needs_a_firing_from_every_transaction() {
        for wl in WORKLOADS.iter().filter(|w| w.closed_on_delivery) {
            assert_eq!((wl.withdraw_pct, wl.calls_per_txn), (100, 1));
            assert_eq!(wl.subs[0], 0, "subscribers wake the writers from thread 1");
        }
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let e = find("nope").unwrap_err();
        assert!(e.to_string().contains("wire_light"));
    }

    #[test]
    fn both_classes_compile_and_have_the_advertised_shape() {
        let light = ode_server::spec::compile_class(&class_spec(ClassKind::Light)).unwrap();
        assert!(light.mask_fns.is_empty());
        assert!(light
            .triggers
            .iter()
            .all(|t| t.monitoring == ode_db::Monitoring::FullHistory));
        let dense = ode_server::spec::compile_class(&class_spec(ClassKind::Dense)).unwrap();
        assert_eq!(dense.triggers.len(), 32);
        assert!(dense.triggers.iter().all(|t| t.perpetual));
        assert_eq!(dense.triggers.iter().filter(|t| t.capture).count(), 4);
        assert_eq!(
            dense
                .triggers
                .iter()
                .filter(|t| t.monitoring == ode_db::Monitoring::Committed)
                .count(),
            2
        );
        assert_eq!(dense.mask_fns.len(), 1);
    }
}
