//! End-to-end durability: a WAL-backed server restarted from its log
//! directory serves exactly the state committed before it went down —
//! wire-defined classes, object fields, trigger automata — and a WAL
//! write failure degrades the live server to read-only instead of
//! panicking or silently serving un-durable writes.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use ode_core::Value;
use ode_db::{
    recover_sharded, shard_dir, shard_of, Database, FaultyIo, FsyncPolicy, ObjectId,
    ShardedDatabase, SharedDatabase, SharedIo, StdIo, WalConfig,
};
use ode_server::protocol::Command;
use ode_server::spec::{define_specs, stockroom_spec};
use ode_server::{Client, ClientError, Server};

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
        // retire thread's final drain at shutdown has removed them.
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
