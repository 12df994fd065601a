//! The JSON bytes the system writes, frozen: seeded instances of every
//! wire message and every logged or checkpointed record type, encoded
//! with `serde_json::to_string` and compared byte for byte against
//! `fixtures/golden_json.txt` (one `label<TAB>json` line each). Each
//! line must also decode back to the value it was encoded from.
//!
//! The fixture was recorded before the serializer was rewritten; it is
//! the reference the "no byte changes" claim rests on. Never regenerate
//! it to make this test pass unless the format change is the point.

use std::collections::BTreeMap;
use std::fmt::Debug;

use ode_core::{BasicEvent, EventKind, Qualifier, TimeEvent, TimeSpec, Value};
use ode_db::histstore::ZoneMeta;
use ode_db::persist::{ObjectSnapshot, TriggerSnapshot};
use ode_db::{EpochRecord, LogOp, ObjectId, Recurrence, Snapshot, Timer, TimerScope};
use ode_server::{
    ActionSpec, CapturedEvent, ClassSpec, Command, FieldSpec, Firing, MaskFnSpec, MethodOp,
    MethodSpec, Reply, ReplyResult, Request, ServerMsg, TriggerSpec, WireError, WireRow, WireStats,
};
use serde::{Deserialize, Serialize};

const FIXTURE: &str = include_str!("fixtures/golden_json.txt");

/// Checks that a text decodes to a value whose `Debug` form equals the
/// original's.
type DecodeCheck = Box<dyn Fn(&str) -> Result<(), String>>;

/// One corpus entry: its label, its encoding, and its decode check.
struct Entry {
    label: String,
    json: String,
    decodes_back: DecodeCheck,
}

fn entry<T: Serialize + Deserialize + Debug + 'static>(label: &str, value: T) -> Entry {
    let json = serde_json::to_string(&value).expect("corpus values serialize");
    let want = format!("{value:?}");
    Entry {
        label: label.to_string(),
        json,
        decodes_back: Box::new(move |text| {
            let back: T = serde_json::from_str(text).map_err(|e| e.to_string())?;
            let got = format!("{back:?}");
            if got == want {
                Ok(())
            } else {
                Err(format!("decoded {got}, encoded {want}"))
            }
        }),
    }
}

/// Values chosen for the encoder's edge cases: every escape, text that
/// is not ASCII or needs a surrogate pair in `\u` form, signed zero,
/// large and tiny floats, and the integer extremes.
fn values() -> Vec<(&'static str, Value)> {
    vec![
        ("null", Value::Null),
        ("true", Value::Bool(true)),
        ("false", Value::Bool(false)),
        ("int_zero", Value::Int(0)),
        ("int_neg", Value::Int(-42)),
        ("int_min", Value::Int(i64::MIN)),
        ("int_max", Value::Int(i64::MAX)),
        ("float_one", Value::Float(1.0)),
        ("float_neg_zero", Value::Float(-0.0)),
        ("float_tenth", Value::Float(0.1)),
        ("float_1e300", Value::Float(1e300)),
        ("float_neg_small", Value::Float(-2.5e-8)),
        ("float_1e16", Value::Float(1e16)),
        ("float_max", Value::Float(f64::MAX)),
        ("float_min_subnormal", Value::Float(5e-324)),
        ("str_empty", Value::Str(String::new())),
        ("str_plain", Value::Str("bolt".into())),
        (
            "str_escapes",
            Value::Str("q\" b\\ n\n r\r t\t b\u{8} f\u{c} nul\u{0} us\u{1f} del\u{7f} /".into()),
        ),
        ("str_non_ascii", Value::Str("café ü 中文 ΑΩ".into())),
        ("str_surrogate_pair", Value::Str("😀 𝄞 \u{10ffff}".into())),
        (
            "record",
            Value::record([
                ("balance", Value::Float(12.5)),
                ("name", Value::Str("acct \"7\"".into())),
                ("nested", Value::record([("deep", Value::Int(-1))])),
                ("tags", Value::Null),
            ]),
        ),
        ("record_empty", Value::Record(BTreeMap::new())),
    ]
}

fn time_spec() -> TimeSpec {
    TimeSpec {
        yr: None,
        mo: Some(2),
        day: Some(30),
        hr: Some(9),
        min: None,
        sec: Some(0),
        ms: Some(999),
    }
}

fn class_spec() -> ClassSpec {
    ClassSpec {
        name: "acct".into(),
        fields: vec![
            FieldSpec {
                name: "balance".into(),
                default: Value::Float(0.0),
            },
            FieldSpec {
                name: "owner".into(),
                default: Value::Str("nobody".into()),
            },
        ],
        methods: vec![MethodSpec {
            name: "deposit".into(),
            update: true,
            params: vec!["amt".into()],
            body: vec![
                MethodOp::Require {
                    expr: "amt > 0".into(),
                    message: "positive \"amt\" only".into(),
                },
                MethodOp::Set {
                    field: "balance".into(),
                    expr: "balance + amt".into(),
                },
                MethodOp::Emit {
                    text: "deposit {amt}\n".into(),
                },
            ],
        }],
        masks: vec![MaskFnSpec {
            name: "big".into(),
            params: vec!["q".into()],
            expr: "q > 1000".into(),
        }],
        triggers: vec![
            TriggerSpec {
                name: "T1".into(),
                perpetual: true,
                event: "after deposit(a) && big(a)".into(),
                action: ActionSpec::Seq(vec![
                    ActionSpec::Emit("big".into()),
                    ActionSpec::Call("audit".into()),
                    ActionSpec::CallWithEventArgs {
                        method: "log".into(),
                    },
                ]),
                capture: true,
                full_history: false,
            },
            TriggerSpec {
                name: "T2".into(),
                perpetual: false,
                event: "at time(HR=9)".into(),
                action: ActionSpec::Reactivate,
                capture: false,
                full_history: true,
            },
            TriggerSpec {
                name: "T3".into(),
                perpetual: false,
                event: "after deposit".into(),
                action: ActionSpec::Abort,
                capture: false,
                full_history: false,
            },
        ],
        activate_on_create: vec!["T1".into(), "T2".into()],
    }
}

fn commands() -> Vec<(&'static str, Command)> {
    vec![
        ("Ping", Command::Ping),
        ("DefineClass", Command::DefineClass(class_spec())),
        (
            "Begin",
            Command::Begin {
                user: Value::Str("alice".into()),
            },
        ),
        ("Commit", Command::Commit),
        ("Abort", Command::Abort),
        (
            "New",
            Command::New {
                class: "acct".into(),
                overrides: vec![
                    ("balance".into(), Value::Float(-0.0)),
                    ("owner".into(), Value::Str("ünïcødé".into())),
                ],
            },
        ),
        (
            "Call",
            Command::Call {
                object: u64::MAX,
                method: "deposit".into(),
                args: vec![Value::Int(i64::MIN), Value::Float(1e300)],
            },
        ),
        ("Delete", Command::Delete { object: 3 }),
        (
            "Activate",
            Command::Activate {
                object: 3,
                trigger: "T3".into(),
                params: vec![Value::Bool(false)],
                replay_history: true,
            },
        ),
        (
            "Deactivate",
            Command::Deactivate {
                object: 3,
                trigger: "T3".into(),
            },
        ),
        ("AdvanceClockBy", Command::AdvanceClockBy { ms: 60_000 }),
        ("AdvanceClockTo", Command::AdvanceClockTo { ms: 0 }),
        ("Snapshot", Command::Snapshot),
        (
            "Restore",
            Command::Restore {
                snapshot: "{\"next_object\":1}".into(),
            },
        ),
        ("Checkpoint", Command::Checkpoint),
        ("Stats", Command::Stats),
        ("Subscribe", Command::Subscribe),
        ("Unsubscribe", Command::Unsubscribe),
        ("TakeOutput", Command::TakeOutput),
        (
            "PeekField",
            Command::PeekField {
                object: 9,
                field: "balance".into(),
            },
        ),
        (
            "Replicate",
            Command::Replicate {
                from_lsns: vec![0, 17, u64::MAX],
                epoch: 2,
            },
        ),
        ("Promote", Command::Promote { force: true }),
        ("Demote", Command::Demote { epoch: 5 }),
        (
            "Query",
            Command::Query {
                class: Some("acct".into()),
                object: None,
                kind: Some("deposit".into()),
                qualifier: Some("after".into()),
                args: vec![(0, ">".into(), Value::Float(2.5))],
                min_seq: Some(1),
                max_seq: None,
                min_time: None,
                max_time: Some(86_400_000),
                limit: Some(100),
            },
        ),
        (
            "Query_empty",
            Command::Query {
                class: None,
                object: None,
                kind: None,
                qualifier: None,
                args: vec![],
                min_seq: None,
                max_seq: None,
                min_time: None,
                max_time: None,
                limit: None,
            },
        ),
    ]
}

fn wire_stats() -> WireStats {
    WireStats {
        events_posted: 1,
        symbols_stepped: 2,
        triggers_fired: 3,
        txns_committed: 4,
        txns_aborted: 5,
        clock_ms: 6,
        subscriber_drops: 7,
        conns_open: 8,
        conns_rejected: 9,
        read_only: true,
        wal_lsn: Some(10),
        durable_lsn: None,
        fsyncs_total: 11,
        group_commit_batches: 12,
        group_commit_max_batch: 13,
        replica: false,
        repl_connected: true,
        last_applied_lsn: None,
        replica_lag_lsn: Some(0),
        shards: 2,
        shard_commits: vec![14, 15],
        shard_lock_wait_us: vec![],
        hist_enabled: true,
        hist_segments: 16,
        hist_rows: 17,
        hist_disk_bytes: 18,
        hist_indexed_lsns: vec![19, u64::MAX],
        hist_queries: 20,
        hist_rows_returned: 21,
        hist_segments_skipped: 22,
        hist_retro_replays: 23,
        epoch: 24,
        deposed: false,
        repl_heartbeat_age_ms: Some(25),
        stale_epoch_rejections: 26,
        recovery_ms: 27,
        segments_replayed: 28,
        archive_segments: 29,
        archive_bytes: 30,
        archive_lag_segments: 31,
    }
}

fn replies() -> Vec<(&'static str, Reply)> {
    vec![
        ("Unit", Reply::Unit),
        ("Pong", Reply::Pong),
        ("Object", Reply::Object { id: 42 }),
        ("Value", Reply::Value(Value::Float(-0.0))),
        ("Begun", Reply::Begun { txn: 7 }),
        ("Stats", Reply::Stats(Box::new(wire_stats()))),
        (
            "SnapshotTaken",
            Reply::SnapshotTaken {
                json: "{\"seq\":1,\"s\":\"a\\\"b\"}".into(),
            },
        ),
        (
            "Output",
            Reply::Output(vec!["line one".into(), "tab\there".into(), String::new()]),
        ),
        (
            "Checkpointed",
            Reply::Checkpointed {
                lsn: 100,
                swept_segments: 2,
                stall_ms: 0,
            },
        ),
        (
            "Replicating",
            Reply::Replicating {
                start_lsns: vec![1, 2],
                heads: vec![3, 4],
                epoch: 1,
            },
        ),
        ("Promoted", Reply::Promoted { lsn: 9, epoch: 3 }),
        ("Demoted", Reply::Demoted { epoch: 4 }),
        (
            "QueryDone",
            Reply::QueryDone {
                rows: 5,
                truncated: true,
                segments_scanned: 6,
                segments_skipped: 7,
            },
        ),
        (
            "Replayed",
            Reply::Replayed {
                fired: 1,
                scanned: 2,
                active: false,
            },
        ),
    ]
}

fn wire_row() -> WireRow {
    WireRow {
        seq: 11,
        shard: 1,
        time: 3_600_000,
        txn: 4,
        object: 5,
        class: "acct".into(),
        event: "after deposit".into(),
        args: vec![Value::Float(12.5), Value::Str("é".into())],
    }
}

fn firing() -> Firing {
    Firing {
        shard: 0,
        seq: 99,
        txn: 12,
        object: 3,
        class: "room".into(),
        trigger: "T6".into(),
        event: "after withdraw(i, q) && q > 100".into(),
        args: vec![Value::Str("bolt".into()), Value::Int(120)],
        captured: vec![CapturedEvent {
            event: "after withdraw".into(),
            args: vec![Value::Int(-7), Value::Null],
        }],
        retro: false,
    }
}

fn server_msgs() -> Vec<(&'static str, ServerMsg)> {
    vec![
        (
            "Reply_ok",
            ServerMsg::Reply {
                id: 1,
                result: ReplyResult::Ok(Reply::Pong),
            },
        ),
        (
            "Reply_err",
            ServerMsg::Reply {
                id: 0,
                result: ReplyResult::Err(WireError::new("parse", "expected `,` at byte 7")),
            },
        ),
        ("Firing", ServerMsg::Firing(firing())),
        (
            "Rows",
            ServerMsg::Rows {
                id: 3,
                rows: vec![wire_row(), wire_row()],
            },
        ),
        (
            "ReplSnapshot",
            ServerMsg::ReplSnapshot {
                shard: 1,
                lsn: 2,
                schema: vec![class_spec()],
                snapshot: Some("{}".into()),
                epoch: 3,
                fence_lsn: None,
            },
        ),
        (
            "ReplOp",
            ServerMsg::ReplOp {
                shard: 0,
                lsn: 5,
                head: 6,
                frame: "00ff7a".into(),
                epoch: 1,
            },
        ),
        (
            "ReplArchive",
            ServerMsg::ReplArchive {
                shard: 2,
                base_lsn: 0,
                records: 10,
                data: "deadbeef".into(),
                epoch: 1,
            },
        ),
        ("ReplSchema", ServerMsg::ReplSchema(class_spec())),
        (
            "ReplHeartbeat",
            ServerMsg::ReplHeartbeat {
                shard: 0,
                head: 77,
                epoch: 2,
            },
        ),
    ]
}

fn log_ops() -> Vec<(&'static str, LogOp)> {
    vec![
        (
            "Begin",
            LogOp::Begin {
                txn: 1,
                user: Value::Str("alice".into()),
            },
        ),
        (
            "Create",
            LogOp::Create {
                txn: 1,
                obj: 2,
                class: "acct".into(),
                overrides: vec![("owner".into(), Value::Str("bob".into()))],
            },
        ),
        ("Delete", LogOp::Delete { txn: 1, obj: 2 }),
        (
            "Call",
            LogOp::Call {
                txn: u64::MAX,
                obj: 2,
                method: "deposit".into(),
                args: vec![Value::Float(1e300), Value::Int(i64::MIN)],
            },
        ),
        (
            "Activate",
            LogOp::Activate {
                txn: 1,
                obj: 2,
                trigger: "T1".into(),
                params: vec![Value::Int(5)],
            },
        ),
        (
            "Deactivate",
            LogOp::Deactivate {
                txn: 1,
                obj: 2,
                trigger: "T1".into(),
            },
        ),
        ("Commit", LogOp::Commit { txn: 1 }),
        ("Prepare", LogOp::Prepare { txn: 1 }),
        (
            "Commit2pc",
            LogOp::Commit2pc {
                txn: 1,
                gtxn: 8,
                parts: vec![0, 3],
            },
        ),
        (
            "ActivateRetro",
            LogOp::ActivateRetro {
                txn: 1,
                obj: 2,
                trigger: "T2".into(),
                params: vec![],
                state: 4,
                active: true,
                fired: 2,
            },
        ),
        ("EpochBump", LogOp::EpochBump { epoch: 3 }),
        ("Abort", LogOp::Abort { txn: 1 }),
        ("AdvanceClock", LogOp::AdvanceClock { to: 86_400_000 }),
    ]
}

fn snapshot() -> Snapshot {
    Snapshot {
        next_object: 3,
        next_txn: 9,
        seq: 40,
        clock_now: 3_600_000,
        timers: vec![
            (
                32_400_000,
                Timer {
                    object: ObjectId(1),
                    scope: TimerScope::Object,
                    event: TimeEvent::At(time_spec()),
                    recurrence: Recurrence::Pattern(time_spec()),
                },
            ),
            (
                3_660_000,
                Timer {
                    object: ObjectId(2),
                    scope: TimerScope::Trigger(1),
                    event: TimeEvent::Every(TimeSpec {
                        min: Some(1),
                        ..TimeSpec::default()
                    }),
                    recurrence: Recurrence::Periodic(60_000),
                },
            ),
            (
                3_600_500,
                Timer {
                    object: ObjectId(2),
                    scope: TimerScope::Trigger(0),
                    event: TimeEvent::After(TimeSpec {
                        ms: Some(500),
                        ..TimeSpec::default()
                    }),
                    recurrence: Recurrence::OneShot,
                },
            ),
        ],
        gtxn_floor: 0,
        objects: vec![
            ObjectSnapshot {
                id: 1,
                class: "acct".into(),
                fields: [
                    ("balance".to_string(), Value::Float(-0.0)),
                    ("owner".to_string(), Value::Str("zoë".into())),
                ]
                .into_iter()
                .collect(),
                deleted: false,
                triggers: vec![TriggerSnapshot {
                    name: "T1".into(),
                    active: true,
                    state: 2,
                    params: vec![Value::Int(3)],
                    fired: 1,
                    captured: vec![
                        (
                            BasicEvent::Db(Qualifier::After, EventKind::Method("deposit".into())),
                            vec![Value::Float(1500.0)],
                        ),
                        (
                            BasicEvent::Db(Qualifier::Before, EventKind::TCommit),
                            vec![],
                        ),
                        (BasicEvent::Time(TimeEvent::At(time_spec())), vec![]),
                        (BasicEvent::Start, vec![]),
                    ],
                }],
            },
            ObjectSnapshot {
                id: 2,
                class: "acct".into(),
                fields: BTreeMap::new(),
                deleted: true,
                triggers: vec![],
            },
        ],
    }
}

fn zone_meta() -> ZoneMeta {
    ZoneMeta {
        rows: 512,
        min_seq: 1,
        max_seq: 900,
        min_time: 0,
        max_time: 86_400_000,
        min_lsn: 3,
        max_lsn: 1_000,
        min_object: 1,
        max_object: u64::MAX,
        covered_lsn: 1_001,
        class_bits: vec![5, 0, u64::MAX],
        kind_bits: vec![],
        methods: vec!["deposit".into(), "withdraw".into()],
        classes: vec!["acct".into(), "room".into()],
    }
}

fn corpus() -> Vec<Entry> {
    let mut out = Vec::new();
    for (label, v) in values() {
        out.push(entry(&format!("Value::{label}"), v));
    }
    for (label, c) in commands() {
        out.push(entry(
            &format!("Request::{label}"),
            Request { id: 7, cmd: c },
        ));
    }
    for (label, r) in replies() {
        out.push(entry(&format!("Reply::{label}"), r));
    }
    for (label, m) in server_msgs() {
        out.push(entry(&format!("ServerMsg::{label}"), m));
    }
    for (label, op) in log_ops() {
        out.push(entry(&format!("LogOp::{label}"), op));
    }
    out.push(entry("Snapshot", snapshot()));
    out.push(entry("ZoneMeta", zone_meta()));
    out.push(entry("ClassSpec", class_spec()));
    for (label, rec) in [
        (
            "Start",
            EpochRecord::Start {
                epoch: 2,
                shard: 1,
                lsn: 40,
            },
        ),
        ("Deposed", EpochRecord::Deposed { epoch: 3 }),
        ("Reset", EpochRecord::Reset { shard: 0 }),
    ] {
        out.push(entry(&format!("EpochRecord::{label}"), rec));
    }
    out.push(entry("WireRow", wire_row()));
    for (label, ev) in [
        ("At", TimeEvent::At(time_spec())),
        ("Every", TimeEvent::Every(TimeSpec::default())),
        (
            "After",
            TimeEvent::After(TimeSpec {
                yr: Some(u32::MAX),
                ..TimeSpec::default()
            }),
        ),
    ] {
        out.push(entry(&format!("TimeEvent::{label}"), ev));
    }
    out
}

#[test]
fn every_encoding_matches_the_recorded_bytes_and_decodes_back() {
    let corpus = corpus();
    let actual: String = corpus
        .iter()
        .map(|e| format!("{}\t{}\n", e.label, e.json))
        .collect();
    if actual != FIXTURE {
        // Leave the encoder's output beside the build for a diff.
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_json.actual");
        std::fs::write(&path, &actual).expect("write actual corpus");
        let expected: Vec<&str> = FIXTURE.lines().collect();
        for (i, line) in actual.lines().enumerate() {
            assert_eq!(
                Some(&line),
                expected.get(i),
                "corpus line {} differs; full output in {}",
                i + 1,
                path.display()
            );
        }
        assert_eq!(
            actual.lines().count(),
            expected.len(),
            "corpus length differs"
        );
    }
    for (e, line) in corpus.iter().zip(FIXTURE.lines()) {
        let (_, json) = line.split_once('\t').expect("label<TAB>json");
        if let Err(msg) = (e.decodes_back)(json) {
            panic!("{} does not decode back: {msg}", e.label);
        }
    }
}
