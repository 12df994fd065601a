//! Robustness: malformed and overlong input answers with structured
//! errors on a still-usable connection, disconnects and shutdowns
//! release transaction locks, idle transactions expire, and the
//! session-level transaction protocol rejects misuse.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use ode_core::Value;
use ode_db::{Database, SharedDatabase};
use ode_server::spec::stockroom_spec;
use ode_server::{
    Client, ClientError, Command, Reply, ReplyResult, Request, Server, ServerConfig, ServerMsg,
};

fn start_server(config: ServerConfig) -> (Server, std::net::SocketAddr) {
    let db = SharedDatabase::new(Database::new());
    let server = Server::builder(db)
        .tcp("127.0.0.1:0")
        .config(config)
        .start()
        .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");
    (server, addr)
}

fn define_stockroom(addr: std::net::SocketAddr) -> (Client, u64) {
    stockroom_on(Client::connect_tcp(addr).expect("connect"))
}

/// Define the stockroom class and create one room over `admin`.
fn stockroom_on(mut admin: Client) -> (Client, u64) {
    admin.define_class(stockroom_spec()).expect("define");
    let room = admin
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("create room");
    (admin, room)
}

/// Read one NDJSON server message from a raw socket.
fn read_msg<S: Read>(reader: &mut BufReader<S>) -> ServerMsg {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read server line");
    serde_json::from_str(&line).expect("valid server message")
}

#[test]
fn malformed_request_gets_structured_error_and_connection_survives() {
    let (mut server, addr) = start_server(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writer.write_all(b"this is not json\n").unwrap();
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id: 0,
            result: ReplyResult::Err(e),
        } => assert_eq!(e.code, "parse"),
        other => panic!("expected a parse notice, got {other:?}"),
    }

    // The same connection still answers real requests.
    writer.write_all(b"{\"id\":1,\"cmd\":\"Ping\"}\n").unwrap();
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id: 1,
            result: ReplyResult::Ok(_),
        } => {}
        other => panic!("expected a pong, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn overlong_line_is_discarded_with_notice() {
    let (mut server, addr) = start_server(ServerConfig {
        max_line_bytes: 64,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut big = vec![b'x'; 500];
    big.push(b'\n');
    writer.write_all(&big).unwrap();
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id: 0,
            result: ReplyResult::Err(e),
        } => assert_eq!(e.code, "overlong"),
        other => panic!("expected an overlong notice, got {other:?}"),
    }

    writer.write_all(b"{\"id\":7,\"cmd\":\"Ping\"}\n").unwrap();
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id: 7,
            result: ReplyResult::Ok(_),
        } => {}
        other => panic!("expected a pong, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn disconnect_mid_txn_releases_object_locks() {
    let (mut server, addr) = start_server(ServerConfig::default());
    let (mut admin, room) = define_stockroom(addr);

    // Client A opens a transaction and touches the room (write lock),
    // then vanishes without committing.
    {
        let mut a = Client::connect_tcp(addr).expect("connect A");
        a.begin("a").expect("begin");
        a.call(room, "withdraw", &[Value::from("bolt"), Value::Int(50)])
            .expect("withdraw");
        // Drop: the socket closes, the server aborts A's transaction.
    }

    // Client B can lock the same object once the server has noticed;
    // Client::txn retries through the race.
    let mut b = Client::connect_tcp(addr).expect("connect B");
    b.txn("b", |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(70)])
    })
    .expect("B's withdraw commits after A's lock is released");

    // A's uncommitted withdrawal rolled back; only B's counts.
    let bolt = admin
        .peek_field(room, "items")
        .expect("peek")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt");
    assert_eq!(bolt, 500 - 70);
    server.shutdown();
}

#[test]
fn idle_transaction_expires_with_notice() {
    let (mut server, addr) = start_server(ServerConfig {
        txn_idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });
    let (_admin, room) = define_stockroom(addr);

    let mut c = Client::connect_tcp(addr).expect("connect");
    c.begin("sleepy").expect("begin");
    std::thread::sleep(Duration::from_millis(400));

    // The server aborted the idle transaction: the next transactional
    // command answers `no_txn`, and the timeout notice is buffered.
    match c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "no_txn"),
        other => panic!("expected no_txn after idle expiry, got {other:?}"),
    }
    assert!(
        c.drain_notices().iter().any(|n| n.code == "txn_timeout"),
        "the session was told its transaction timed out"
    );
    server.shutdown();
}

#[test]
fn session_txn_protocol_misuse_is_rejected() {
    let (mut server, addr) = start_server(ServerConfig::default());
    let mut c = Client::connect_tcp(addr).expect("connect");

    // Commit with nothing open.
    match c.commit() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "no_txn"),
        other => panic!("expected no_txn, got {other:?}"),
    }
    // Abort is idempotent even with nothing open.
    c.abort().expect("abort with no txn is Ok");
    // Begin twice.
    c.begin("u").expect("begin");
    match c.request(ode_server::Command::Begin {
        user: Value::from("u"),
    }) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "txn_open"),
        other => panic!("expected txn_open, got {other:?}"),
    }
    c.abort().expect("abort");
    server.shutdown();
}

#[test]
fn graceful_shutdown_aborts_open_txns_and_closes_sessions() {
    let (mut server, addr) = start_server(ServerConfig::default());
    let (_admin, room) = define_stockroom(addr);
    let db = server.db().clone();

    let mut c = Client::connect_tcp(addr).expect("connect");
    c.begin("c").expect("begin");
    c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(200)])
        .expect("withdraw");

    // Shut down with the transaction still open: the session aborts it
    // and every thread joins (shutdown returns).
    server.shutdown();

    // The client sees the connection close.
    match c.ping() {
        Err(_) => {}
        Ok(()) => panic!("server should have closed the session"),
    }

    // The lock is gone and the withdrawal rolled back: the database is
    // immediately usable in-process.
    let bolt = db
        .run_txn("after", |t| {
            t.db.call(
                t.txn,
                ode_db::ObjectId(room),
                "deposit",
                &[Value::from("bolt"), Value::Int(1)],
            )
        })
        .map(|_| db.with(|d| d.peek_field(ode_db::ObjectId(room), "items")))
        .expect("db usable after shutdown")
        .and_then(|v| v.member("bolt").and_then(Value::as_int))
        .expect("bolt");
    assert_eq!(bolt, 500 + 1, "uncommitted withdrawal rolled back");
}

#[test]
fn unix_socket_sessions_work() {
    let dir = std::env::temp_dir().join(format!("ode-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ode.sock");

    let db = SharedDatabase::new(Database::new());
    let mut server = Server::builder(db).unix(&path).start().expect("bind unix");
    let mut c = Client::connect_unix(server.unix_path().unwrap()).expect("connect unix");
    c.ping().expect("pong over unix");
    c.define_class(stockroom_spec()).expect("define over unix");
    let room = c.txn("u", |c| c.new_object("room", &[])).expect("create");
    let v = c.peek_field(room, "items").expect("peek");
    assert!(v.member("bolt").is_some());

    server.shutdown();
    assert!(!path.exists(), "socket file removed on shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A Unix-socket server (so Nagle never sets the pace of a pipelined
/// burst) with the stockroom class defined and one room created.
fn start_unix_stockroom(tag: &str) -> (Server, PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("ode-sock-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = SharedDatabase::new(Database::new());
    let server = Server::builder(db)
        .unix(dir.join("ode.sock"))
        .start()
        .expect("bind unix");
    let admin = Client::connect_unix(server.unix_path().unwrap()).expect("connect");
    let (_admin, room) = stockroom_on(admin);
    (server, dir, room)
}

/// `Begin`, then `calls` one-bolt `method` calls on `room`.
fn open_txn_cmds(room: u64, method: &str, calls: usize) -> Vec<Command> {
    let mut cmds = vec![Command::Begin {
        user: Value::from("pipeliner"),
    }];
    cmds.extend((0..calls).map(|_| Command::Call {
        object: room,
        method: method.into(),
        args: vec![Value::from("bolt"), Value::Int(1)],
    }));
    cmds
}

/// The commands as request lines with ids 1.. in order, concatenated
/// into one byte burst.
fn pipeline(cmds: Vec<Command>) -> Vec<u8> {
    let mut burst = String::new();
    for (i, cmd) in cmds.into_iter().enumerate() {
        let req = Request {
            id: i as u64 + 1,
            cmd,
        };
        burst.push_str(&serde_json::to_string(&req).unwrap());
        burst.push('\n');
    }
    burst.into_bytes()
}

/// Read replies until EOF, asserting each is `Ok` and that ids count up
/// from 1; returns how many arrived.
fn read_ok_replies_in_order(reader: &mut BufReader<UnixStream>, stop_after: Option<u64>) -> u64 {
    let mut seen = 0u64;
    let mut line = String::new();
    while stop_after != Some(seen) {
        line.clear();
        if reader.read_line(&mut line).expect("read server line") == 0 {
            break;
        }
        match serde_json::from_str(&line).expect("valid server message") {
            ServerMsg::Reply {
                id,
                result: ReplyResult::Ok(_),
            } => {
                seen += 1;
                assert_eq!(id, seen, "replies arrive in request order");
            }
            other => panic!("expected an Ok reply, got {other:?}"),
        }
    }
    seen
}

#[test]
fn thousand_pipelined_requests_are_answered_in_order_across_the_read_gate() {
    let (mut server, dir, room) = start_unix_stockroom("pipeline");
    let stream = UnixStream::connect(server.unix_path().unwrap()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // Begin + 997 deposits, then Commit and a read-back: 1 000 lines in
    // one write, several times the loop's 128-line read gate.
    const CALLS: usize = 997;
    let mut cmds = open_txn_cmds(room, "deposit", CALLS);
    cmds.push(Command::Commit);
    cmds.push(Command::PeekField {
        object: room,
        field: "items".into(),
    });
    writer.write_all(&pipeline(cmds)).unwrap();

    let total = CALLS as u64 + 3;
    assert_eq!(
        read_ok_replies_in_order(&mut reader, Some(total - 1)),
        total - 1
    );
    // The last reply proves the lines also *executed* in order: every
    // deposit ran inside the transaction and before the commit.
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id,
            result: ReplyResult::Ok(Reply::Value(items)),
        } => {
            assert_eq!(id, total);
            let bolt = items.member("bolt").and_then(Value::as_int).expect("bolt");
            assert_eq!(bolt, 500 + CALLS as i64);
        }
        other => panic!("expected the peeked items, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn half_closed_pipeline_gets_every_reply_then_eof_and_its_locks_are_released() {
    let (mut server, dir, room) = start_unix_stockroom("halfclose");
    let stream = UnixStream::connect(server.unix_path().unwrap()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // An open transaction holding the room's write lock, never
    // committed; then the client half-closes.
    const CALLS: usize = 299;
    writer
        .write_all(&pipeline(open_txn_cmds(room, "withdraw", CALLS)))
        .unwrap();
    writer.shutdown(Shutdown::Write).unwrap();

    // Every queued command still executes and every reply still
    // flushes before the server closes its side.
    assert_eq!(
        read_ok_replies_in_order(&mut reader, None),
        CALLS as u64 + 1,
        "all replies, then EOF"
    );

    // The abandoned transaction is aborted by the same teardown that
    // closed the socket: its lock frees (`Client::txn` retries through
    // the instant between the two) and its withdrawals roll back.
    let mut b = Client::connect_unix(server.unix_path().unwrap()).expect("connect B");
    b.txn("b", |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(70)])
    })
    .expect("B's withdraw commits once the abandoned lock is released");
    let bolt = b
        .peek_field(room, "items")
        .expect("peek")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt");
    assert_eq!(bolt, 500 - 70);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
