//! End-to-end durability: a WAL-backed server restarted from its log
//! directory serves exactly the state committed before it went down —
//! wire-defined classes, object fields, trigger automata — and a WAL
//! write failure degrades the live server to read-only instead of
//! panicking or silently serving un-durable writes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use ode_core::{Value, MAX_VALUE_DEPTH, VALUE_ENVELOPE_DEPTH};
use ode_db::{
    recover_sharded, shard_dir, shard_of, Database, FaultyIo, FsyncPolicy, LogOp, ObjectId,
    ShardedDatabase, SharedDatabase, SharedIo, Snapshot, StdIo, WalConfig,
};
use ode_server::protocol::{CapturedEvent, Command, Firing, Reply, Request, WireRow};
use ode_server::spec::{define_specs, stockroom_spec};
use ode_server::{
    ActionSpec, ClassSpec, Client, ClientError, FieldSpec, MethodOp, MethodSpec, ReplyResult,
    Server, ServerMsg, TriggerSpec,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-wal-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny segments so even a short session rotates; every record forces
/// a flush, so rotation and recovery see many small writes.
fn small_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 512,
        fsync: FsyncPolicy::Always,
        archive: false,
    }
}

fn start_server(dir: &Path) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(small_cfg())
        .start()
        .expect("server starts")
}

fn bolt(c: &mut Client, room: u64) -> i64 {
    c.peek_field(room, "items")
        .expect("peek")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt is an int")
}

#[test]
fn committed_state_survives_a_restart() {
    let dir = tmp_dir("restart");

    // Generation one: define the class over the wire, mutate, go down.
    let (room, bolt_before) = {
        let mut server = start_server(&dir);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
        c.define_class(stockroom_spec()).expect("define");
        let room = c.txn("admin", |c| c.new_object("room", &[])).expect("room");
        for _ in 0..3 {
            c.txn("alice", |c| {
                c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(120)])
            })
            .expect("withdraw");
        }
        // An uncommitted transaction must NOT survive.
        c.begin("alice").expect("begin");
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(99)])
            .expect("call in doomed txn");
        let bolt_before = 500 - 3 * 120;
        server.shutdown();
        (room, bolt_before)
    };

    // Generation two: a fresh engine recovered purely from the
    // directory.
    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    assert_eq!(
        bolt(&mut c, room),
        bolt_before,
        "committed withdrawals only"
    );
    let stats = c.stats().expect("stats");
    assert!(!stats.read_only);
    assert!(stats.wal_lsn.expect("wal-backed") > 0);
    assert_eq!(stats.subscriber_drops, 0);

    // The schema came back through schema.wal: methods, masks, and
    // trigger automata all work without re-defining anything.
    c.txn("alice", |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(1)])
    })
    .expect("class recovered");
    c.begin("mallory").expect("begin");
    match c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(1)]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "aborted", "T1 still guards"),
        other => panic!("mallory must still be aborted by T1, got {other:?}"),
    }
    c.abort().expect("abort");
    assert_eq!(bolt(&mut c, room), bolt_before - 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_and_recovery_stays_exact() {
    let dir = tmp_dir("checkpoint");
    let room;
    {
        let mut server = start_server(&dir);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
        c.define_class(stockroom_spec()).expect("define");
        room = c.txn("admin", |c| c.new_object("room", &[])).expect("room");
        for _ in 0..4 {
            c.txn("alice", |c| {
                c.call(room, "withdraw", &[Value::from("gear"), Value::Int(5)])
            })
            .expect("withdraw");
        }

        // Restore is a state jump the log would never see: refused.
        let snap = c.snapshot().expect("snapshot");
        match c.restore(snap) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, "restore_unsupported"),
            other => panic!("Restore must be refused on a WAL-backed server, got {other:?}"),
        }

        match c.request(Command::Checkpoint).expect("checkpoint") {
            ode_server::protocol::Reply::Checkpointed {
                lsn,
                swept_segments,
                ..
            } => {
                assert!(lsn > 0);
                // Generation zero had live segments; the sweep must
                // report reclaiming them.
                assert!(swept_segments > 0, "checkpoint swept no segments");
            }
            other => panic!("expected Checkpointed, got {other:?}"),
        }
        // And the log keeps growing after the checkpoint.
        c.txn("bob", |c| {
            c.call(room, "withdraw", &[Value::from("gear"), Value::Int(7)])
        })
        .expect("post-checkpoint withdraw");
        server.shutdown();

        // The checkpoint superseded generation zero's segments; the
        // background thread's drains (the last one at shutdown) removed them.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("checkpoint-")),
            "no checkpoint file in {names:?}"
        );
        assert!(
            !names.iter().any(|n| n.starts_with("segment-0000000000-")),
            "generation 0 segments survived the checkpoint: {names:?}"
        );
    }

    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    let gear = c
        .peek_field(room, "items")
        .expect("peek")
        .member("gear")
        .and_then(Value::as_int)
        .expect("gear is an int");
    assert_eq!(gear, 100 - 4 * 5 - 7, "checkpoint + tail replay is exact");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_refused_checkpoint_leaves_every_shard_untouched() {
    let dir = tmp_dir("refused-checkpoint");
    let mut server = Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .shards(2)
        .wal_dir(&dir)
        .wal_config(small_cfg())
        .start()
        .expect("server starts");
    let addr = server.tcp_addr().unwrap();
    let mut a = Client::connect_tcp(addr).expect("connect A");
    a.define_class(stockroom_spec()).expect("define");
    let room = (0..4)
        .map(|_| a.txn("admin", |c| c.new_object("room", &[])).expect("room"))
        .find(|&id| shard_of(ObjectId(id), 2) == 1)
        .expect("a room on shard 1");

    // A leaves a transaction open on shard 1 only.
    a.begin("alice").expect("begin");
    a.call(room, "withdraw", &[Value::from("gear"), Value::Int(5)])
        .expect("call");

    let checkpoints = || -> usize {
        (0..2)
            .map(|s| {
                std::fs::read_dir(shard_dir(&dir, s, 2))
                    .expect("shard dir")
                    .filter(|e| {
                        let name = e.as_ref().unwrap().file_name();
                        name.to_string_lossy().starts_with("checkpoint-")
                    })
                    .count()
            })
            .sum()
    };
    let mut b = Client::connect_tcp(addr).expect("connect B");
    for cmd in [Command::Checkpoint, Command::Snapshot] {
        match b.request(cmd) {
            Err(ClientError::Server(e)) => {
                assert_eq!(e.code, "txn_in_flight", "{e:?}");
                assert!(e.retryable, "a refusal for A's transaction is retryable");
            }
            other => panic!("expected a txn_in_flight refusal, got {other:?}"),
        }
    }
    assert_eq!(checkpoints(), 0, "no shard was checkpointed");

    // Once A's transaction ends, the same Checkpoint goes through.
    a.commit().expect("commit");
    match b.request(Command::Checkpoint) {
        Ok(ode_server::protocol::Reply::Checkpointed { .. }) => {}
        other => panic!("expected Checkpointed, got {other:?}"),
    }
    assert_eq!(checkpoints(), 2, "every shard checkpointed");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_failure_latches_read_only_and_the_prefix_recovers() {
    let dir = tmp_dir("degrade");

    // A healthy disk that the test kills *between* transactions — the
    // flusher batches by timing, so a fault planned at a fixed op index
    // could land on the fsync of a commit already written, which
    // recovery would rightly keep though it was never acknowledged.
    // At a quiescent point everything acked is on disk and nothing
    // else is in flight, so the durable prefix is exact.
    let io = FaultyIo::counting();
    let disk_dead = io.crashed_flag();
    let io = SharedIo::new(io);
    let mut server = Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(&dir)
        .wal_config(small_cfg())
        .wal_io(io)
        .start()
        .expect("server starts");
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    c.define_class(stockroom_spec()).expect("define");
    let room = c.txn("admin", |c| c.new_object("room", &[])).expect("room");

    // Withdraw until the dead disk bites.
    let mut committed = 0i64;
    let failure = loop {
        if committed == 3 {
            disk_dead.store(true, Ordering::SeqCst);
        }
        let r = c
            .begin("alice")
            .and_then(|_| c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)]))
            .and_then(|_| c.commit());
        match r {
            Ok(()) => committed += 1,
            Err(ClientError::Server(e)) => break e,
            Err(other) => panic!("unexpected client failure: {other}"),
        }
        assert!(committed <= 3, "the dead disk acknowledged a commit");
    };
    assert_eq!(failure.code, "wal", "first failure surfaces as a wal error");
    assert!(failure.retryable, "the client may retry (and learn worse)");

    // The server is alive but read-only: reads fine, writes refused.
    c.abort().expect("abort still allowed");
    let stats = c.stats().expect("stats still allowed");
    assert!(stats.read_only, "read-only latched");
    assert!(bolt(&mut c, room) <= 500, "peek still allowed");
    match c.begin("alice") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "read_only");
            assert!(!e.retryable);
        }
        other => panic!("Begin must be refused in read-only mode, got {other:?}"),
    }
    server.shutdown();

    // Recovery with a healthy io serves the durable prefix: every
    // withdrawal acknowledged before the failure, nothing after it.
    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    let recovered = bolt(&mut c, room);
    assert_eq!(
        recovered,
        500 - committed * 10,
        "exactly the acknowledged transactions survive"
    );
    assert!(
        !c.stats().expect("stats").read_only,
        "fresh start is writable"
    );
    c.txn("alice", |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)])
    })
    .expect("writes work again after recovery");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for entry in std::fs::read_dir(from).expect("read_dir") {
        let entry = entry.expect("entry");
        let dest = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).expect("copy");
        }
    }
}

fn shard_states(db: &ShardedDatabase) -> Vec<String> {
    db.shards()
        .iter()
        .map(|shard| shard.with(|db| db.snapshot().unwrap().to_json().unwrap()))
        .collect()
}

/// Every way of bringing a WAL directory up is the same interpreter:
/// one directory, restarted as a plain primary, as a `--history`
/// primary, and recovered in-process by `recover_sharded`, yields
/// byte-identical engines shard for shard.
#[test]
fn every_bring_up_path_recovers_the_same_engines() {
    let dir = tmp_dir("one-arm");
    let rooms;
    let start = |dir: &Path, history: bool| {
        Server::builder(SharedDatabase::new(Database::new()))
            .tcp("127.0.0.1:0")
            .shards(2)
            .wal_dir(dir)
            .wal_config(small_cfg())
            .history(history)
            .start()
            .expect("server starts")
    };
    {
        let mut server = start(&dir, false);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
        c.define_class(stockroom_spec()).expect("define");
        // Round-robin placement: one room per shard, created by a
        // cross-shard commit.
        let (a, b) = c
            .txn("admin", |c| {
                Ok((c.new_object("room", &[])?, c.new_object("room", &[])?))
            })
            .expect("rooms");
        let withdraw = |c: &mut Client, room: u64, n: i64| {
            c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(n)])
                .map(|_| ())
        };
        c.txn("alice", |c| withdraw(c, a, 120))
            .expect("single-shard");
        c.txn("alice", |c| {
            withdraw(c, a, 5)?;
            withdraw(c, b, 7)
        })
        .expect("cross-shard");
        // T1 aborts mallory: the aborted transaction is part of the log.
        c.begin("mallory").expect("begin");
        assert!(withdraw(&mut c, b, 1).is_err());
        c.abort().expect("abort");
        c.request(Command::Checkpoint).expect("checkpoint");
        // The tail past the checkpoint: both kinds of commit again.
        c.txn("bob", |c| withdraw(c, b, 150))
            .expect("tail single-shard");
        c.txn("bob", |c| {
            withdraw(c, b, 3)?;
            withdraw(c, a, 4)
        })
        .expect("tail cross-shard");
        rooms = (a, b);
        server.shutdown();
    }
    let with_history = tmp_dir("one-arm-history");
    let in_process = tmp_dir("one-arm-in-process");
    copy_dir(&dir, &with_history);
    copy_dir(&dir, &in_process);

    let mut plain = start(&dir, false);
    let mut c = Client::connect_tcp(plain.tcp_addr().unwrap()).expect("reconnect");
    assert_eq!(bolt(&mut c, rooms.0), 500 - 120 - 5 - 4);
    assert_eq!(bolt(&mut c, rooms.1), 500 - 7 - 150 - 3);
    drop(c);
    let want = shard_states(plain.db());
    plain.shutdown();
    assert_eq!(want.len(), 2);
    assert_ne!(want[0], want[1], "the shards hold different rooms");

    let mut indexed = start(&with_history, true);
    assert_eq!(shard_states(indexed.db()), want, "history primary");
    indexed.shutdown();

    let (_wal, db, report) = recover_sharded(
        &in_process,
        2,
        small_cfg(),
        SharedIo::new(StdIo::new()),
        |db| define_specs(db, &[stockroom_spec()]),
    )
    .expect("in-process recovery");
    assert!(report.demoted.is_empty());
    assert_eq!(shard_states(&db), want, "recover_sharded");

    for d in [dir, with_history, in_process] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A class whose `note(x)` logs its argument untouched and whose
/// `square(x)` stores `x * x` in `v`.
fn gauge_spec() -> ClassSpec {
    let method = |name: &str, body: Vec<MethodOp>| MethodSpec {
        name: name.into(),
        update: true,
        params: vec!["x".into()],
        body,
    };
    ClassSpec {
        name: "gauge".into(),
        fields: vec![FieldSpec {
            name: "v".into(),
            default: Value::Float(0.0),
        }],
        methods: vec![
            method("note", vec![]),
            method(
                "square",
                vec![MethodOp::Set {
                    field: "v".into(),
                    expr: "x * x".into(),
                }],
            ),
        ],
        masks: vec![],
        triggers: vec![],
        activate_on_create: vec![],
    }
}

/// Send one raw request line and read the next server message.
fn exchange(stream: &mut BufReader<TcpStream>, line: &str) -> ServerMsg {
    stream.get_mut().write_all(line.as_bytes()).unwrap();
    stream.get_mut().write_all(b"\n").unwrap();
    let mut reply = String::new();
    stream.read_line(&mut reply).expect("reply line");
    serde_json::from_str(&reply).expect("server message")
}

fn expect_ok(msg: ServerMsg, id: u64) {
    match msg {
        ServerMsg::Reply {
            id: got,
            result: ReplyResult::Ok(_),
        } if got == id => {}
        other => panic!("request {id} failed: {other:?}"),
    }
}

/// JSON cannot spell an infinite float: the writer puts `null` there,
/// which the reader refuses. A wire literal that overflows (`1e999`)
/// is therefore refused when the request is parsed, and arithmetic
/// that overflows fails the call, so neither reaches a WAL record or
/// a checkpoint and the directory always recovers.
#[test]
fn a_non_finite_float_never_reaches_the_log() {
    let dir = tmp_dir("non-finite");

    // Generation one: a committed `Call` whose argument overflows.
    let (gauge, overflow_reply) = {
        let mut server = start_server(&dir);
        let addr = server.tcp_addr().unwrap();
        let mut c = Client::connect_tcp(addr).expect("connect");
        c.define_class(gauge_spec()).expect("define");
        let gauge = c
            .txn("admin", |c| c.new_object("gauge", &[]))
            .expect("gauge");
        // The client's encoder cannot produce the literal: send raw lines.
        let stream = TcpStream::connect(addr).expect("raw connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = BufReader::new(stream);
        expect_ok(
            exchange(
                &mut raw,
                r#"{"id":1,"cmd":{"Begin":{"user":{"Str":"raw"}}}}"#,
            ),
            1,
        );
        let overflow_reply = exchange(
            &mut raw,
            &format!(
                r#"{{"id":2,"cmd":{{"Call":{{"object":{gauge},"method":"note","args":[{{"Float":1e999}}]}}}}}}"#
            ),
        );
        expect_ok(exchange(&mut raw, r#"{"id":3,"cmd":"Commit"}"#), 3);
        server.shutdown();
        (gauge, overflow_reply)
    };

    // Generation two: recovers, then overflows in arithmetic and checkpoints.
    let square = {
        let mut server = start_server(&dir);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
        c.begin("alice").expect("begin");
        let square = c.call(gauge, "square", &[Value::Float(1e300)]);
        c.commit().expect("commit");
        c.request(Command::Checkpoint).expect("checkpoint");
        server.shutdown();
        square
    };

    // Generation three: recovers from that checkpoint.
    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    assert_eq!(c.peek_field(gauge, "v").expect("peek"), Value::Float(0.0));
    server.shutdown();

    match overflow_reply {
        ServerMsg::Reply {
            id: 0,
            result: ReplyResult::Err(e),
        } => {
            assert_eq!(e.code, "parse");
            assert!(e.message.contains("number out of range"), "{e:?}");
        }
        other => panic!("expected a parse notice, got {other:?}"),
    }
    match square {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "bad_mask", "{e:?}"),
        other => panic!("expected bad_mask, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `depth` records nested around an `Int`.
fn nested(depth: usize) -> Value {
    (0..depth).fold(Value::Int(1), |v, _| Value::record([("k", v)]))
}

/// A class whose trigger `seen` captures the arguments of `note(x)`,
/// so a checkpoint holds them inside its deepest envelope.
fn capture_spec() -> ClassSpec {
    ClassSpec {
        name: "box".into(),
        fields: vec![FieldSpec {
            name: "f".into(),
            default: Value::Int(0),
        }],
        methods: vec![MethodSpec {
            name: "note".into(),
            update: true,
            params: vec!["x".into()],
            body: vec![],
        }],
        masks: vec![],
        triggers: vec![TriggerSpec {
            name: "seen".into(),
            perpetual: true,
            event: "after note".into(),
            action: ActionSpec::Emit("seen".into()),
            capture: true,
            full_history: false,
        }],
        activate_on_create: vec!["seen".into()],
    }
}

fn expect_bad_value<T: std::fmt::Debug>(r: Result<T, ClientError>) {
    match r {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "bad_value", "{e:?}"),
        other => panic!("expected bad_value, got {other:?}"),
    }
}

/// A request line may nest a value deeper than a checkpoint can hold
/// it (4 levels of request envelope against 8 around captured
/// arguments). Every value entering the engine is therefore refused past
/// `MAX_VALUE_DEPTH` records, so the checkpoint taken after a capture
/// trigger saw the deepest accepted argument still recovers.
#[test]
fn arguments_too_deep_for_a_checkpoint_are_refused() {
    let dir = tmp_dir("deep-args");
    let deep = nested(60);
    let obj = {
        let mut server = start_server(&dir);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
        c.define_class(capture_spec()).expect("define");
        expect_bad_value(c.begin(deep.clone()));
        c.begin("alice").expect("begin");
        expect_bad_value(c.new_object("box", &[("f", deep.clone())]));
        let obj = c.new_object("box", &[]).expect("box");
        c.call(obj, "note", &[nested(MAX_VALUE_DEPTH)])
            .expect("the deepest accepted argument");
        expect_bad_value(c.call(obj, "note", std::slice::from_ref(&deep)));
        expect_bad_value(c.request(Command::Activate {
            object: obj,
            trigger: "seen".into(),
            params: vec![deep.clone()],
            replay_history: false,
        }));
        c.commit().expect("the refusals left the transaction open");
        c.request(Command::Checkpoint).expect("checkpoint");
        server.shutdown();
        obj
    };

    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    c.txn("alice", |c| c.call(obj, "note", &[Value::Int(2)]))
        .expect("the recovered object takes calls");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// How deeply `json` nests arrays and objects.
fn nesting(json: &str) -> usize {
    let (mut depth, mut max, mut in_str, mut escaped) = (0usize, 0, false, false);
    for ch in json.chars() {
        match (in_str, ch) {
            (true, _) if escaped => escaped = false,
            (true, '\\') => escaped = true,
            (true, '"') | (false, '"') => in_str = !in_str,
            (false, '[' | '{') => {
                depth += 1;
                max = max.max(depth);
            }
            (false, ']' | '}') => depth -= 1,
            _ => {}
        }
    }
    max
}

/// Every format that carries a [`Value`] — request lines, replies,
/// firings, query rows, replication messages, log records, checkpoints —
/// reads back a value at `MAX_VALUE_DEPTH` records, which is what
/// `VALUE_ENVELOPE_DEPTH` promises. A format that wraps values deeper
/// than that fails here before it can write something no restart reads.
#[test]
fn every_format_rereads_a_value_at_the_depth_limit() {
    let v = nested(MAX_VALUE_DEPTH);
    let mut spec = capture_spec();
    spec.fields[0].default = v.clone();

    // A real checkpoint: a field and a capture trigger's arguments.
    let mut db = Database::new();
    define_specs(&mut db, &[capture_spec()]).unwrap();
    let t = db.begin();
    let obj = db.create_object(t, "box", &[("f", v.clone())]).unwrap();
    db.call(t, obj, "note", std::slice::from_ref(&v)).unwrap();
    db.commit(t).unwrap();
    let checkpoint = db.snapshot().unwrap().to_json().unwrap();

    let request = |cmd| serde_json::to_string(&Request { id: 1, cmd }).unwrap();
    let reply = |msg: ServerMsg| serde_json::to_string(&msg).unwrap();
    let log = |op: LogOp| op.to_json_line().unwrap();
    let firing = Firing {
        shard: 0,
        seq: 1,
        txn: 1,
        object: 1,
        class: "box".into(),
        trigger: "seen".into(),
        event: "after note".into(),
        args: vec![v.clone()],
        captured: vec![CapturedEvent {
            event: "after note".into(),
            args: vec![v.clone()],
        }],
        retro: false,
    };
    let row = WireRow {
        seq: 1,
        shard: 0,
        time: 0,
        txn: 1,
        object: 1,
        class: "box".into(),
        event: "after note".into(),
        args: vec![v.clone()],
    };
    type Reread = fn(&str) -> bool;
    let as_request: Reread = |j| serde_json::from_str::<Request>(j).is_ok();
    let as_msg: Reread = |j| serde_json::from_str::<ServerMsg>(j).is_ok();
    let as_op: Reread = |j| LogOp::from_json_line(j).is_ok();
    let cases: Vec<(&str, String, Reread)> = vec![
        (
            "Begin",
            request(Command::Begin { user: v.clone() }),
            as_request,
        ),
        (
            "New",
            request(Command::New {
                class: "box".into(),
                overrides: vec![("f".into(), v.clone())],
            }),
            as_request,
        ),
        (
            "Call",
            request(Command::Call {
                object: 1,
                method: "note".into(),
                args: vec![v.clone()],
            }),
            as_request,
        ),
        (
            "Activate",
            request(Command::Activate {
                object: 1,
                trigger: "seen".into(),
                params: vec![v.clone()],
                replay_history: false,
            }),
            as_request,
        ),
        (
            "DefineClass",
            request(Command::DefineClass(spec.clone())),
            as_request,
        ),
        (
            "Reply",
            reply(ServerMsg::Reply {
                id: 1,
                result: ReplyResult::Ok(Reply::Value(v.clone())),
            }),
            as_msg,
        ),
        ("Firing", reply(ServerMsg::Firing(firing)), as_msg),
        (
            "Rows",
            reply(ServerMsg::Rows {
                id: 1,
                rows: vec![row],
            }),
            as_msg,
        ),
        (
            "ReplSchema",
            reply(ServerMsg::ReplSchema(spec.clone())),
            as_msg,
        ),
        (
            "ReplSnapshot",
            reply(ServerMsg::ReplSnapshot {
                shard: 0,
                lsn: 0,
                schema: vec![spec.clone()],
                snapshot: None,
                epoch: 0,
                fence_lsn: None,
            }),
            as_msg,
        ),
        (
            "LogOp::Begin",
            log(LogOp::Begin {
                txn: 1,
                user: v.clone(),
            }),
            as_op,
        ),
        (
            "LogOp::Create",
            log(LogOp::Create {
                txn: 1,
                obj: 1,
                class: "box".into(),
                overrides: vec![("f".into(), v.clone())],
            }),
            as_op,
        ),
        (
            "LogOp::Call",
            log(LogOp::Call {
                txn: 1,
                obj: 1,
                method: "note".into(),
                args: vec![v.clone()],
            }),
            as_op,
        ),
        (
            "LogOp::Activate",
            log(LogOp::Activate {
                txn: 1,
                obj: 1,
                trigger: "seen".into(),
                params: vec![v.clone()],
            }),
            as_op,
        ),
        ("schema log", serde_json::to_string(&spec).unwrap(), |j| {
            serde_json::from_str::<ClassSpec>(j).is_ok()
        }),
        (
            "history row",
            serde_json::to_string(&vec![v.clone()]).unwrap(),
            |j| serde_json::from_str::<Vec<Value>>(j).is_ok(),
        ),
        ("checkpoint", checkpoint, |j| Snapshot::from_json(j).is_ok()),
    ];
    let value_levels = 2 * MAX_VALUE_DEPTH + 1;
    assert_eq!(nesting(&serde_json::to_string(&v).unwrap()), value_levels);
    let mut deepest = 0;
    for (name, json, reread) in &cases {
        let envelope = nesting(json) - value_levels;
        deepest = deepest.max(envelope);
        assert!(
            envelope <= VALUE_ENVELOPE_DEPTH,
            "{name}: envelope {envelope}"
        );
        assert!(reread(json), "{name} does not read back at the limit");
    }
    // The captured arguments are the deepest envelope in use.
    assert_eq!(deepest, 8);
}
