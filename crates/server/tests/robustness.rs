//! Robustness: malformed and overlong input (an operator count past the
//! cap included) answers with structured errors on a still-usable
//! connection, disconnects and shutdowns
//! release transaction locks, idle transactions expire, and the
//! session-level transaction protocol rejects misuse. Replies and
//! notices keep send order whether a command ran on the loop thread or
//! on a worker, and the loop thread never does WAL I/O.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ode_core::Value;
use ode_db::{Database, SharedDatabase, SharedIo, StdIo, WalIo};
use ode_server::spec::stockroom_spec;
use ode_server::{
    Client, ClientError, Command, QuerySpec, Reply, ReplyResult, Request, Server, ServerBuilder,
    ServerConfig, ServerMsg,
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

/// One request line nested 20 000 arrays deep (40 KB, well under the
/// line limit) is refused with a `parse` notice instead of overflowing
/// the loop thread's stack, and the same connection keeps working.
#[test]
fn deeply_nested_request_line_is_refused_and_the_server_stays_up() {
    let (mut server, addr) = start_server(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let depth = 20_000;
    let line = format!(
        "{{\"id\":1,\"x\":{}{},\"cmd\":\"Ping\"}}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    writer.write_all(line.as_bytes()).unwrap();
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id: 0,
            result: ReplyResult::Err(e),
        } => {
            assert_eq!(e.code, "parse");
            assert!(e.message.contains("nesting too deep"), "{e:?}");
        }
        other => panic!("expected a parse notice, got {other:?}"),
    }
    writer.write_all(b"{\"id\":2,\"cmd\":\"Ping\"}\n").unwrap();
    match read_msg(&mut reader) {
        ServerMsg::Reply {
            id: 2,
            result: ReplyResult::Ok(_),
        } => {}
        other => panic!("expected a pong, got {other:?}"),
    }
    server.shutdown();
}

/// A count past the operator cap would ask the compiler for billions of
/// automaton states; `DefineClass` refuses it as a bad event instead,
/// and the connection stays usable.
#[test]
fn oversized_operator_count_is_refused_as_bad_event() {
    let (mut server, addr) = start_server(ServerConfig::default());
    let mut c = Client::connect_tcp(addr).expect("connect");
    let mut spec = stockroom_spec();
    spec.triggers[0].event = "choose 4000000000 (after m)".into();
    match c.define_class(spec) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "bad_event", "{e:?}"),
        other => panic!("expected bad_event, got {other:?}"),
    }
    c.ping().expect("connection survives");
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
    let room = ode_db::ObjectId(room);
    db.run_txn("after", |db, g| {
        db.call(g, room, "deposit", &[Value::from("bolt"), Value::Int(1)])
    })
    .expect("db usable after shutdown");
    let bolt = db
        .with_obj(room, |d, o| d.peek_field(o, "items"))
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
/// burst), configured further by `setup`, with the stockroom class
/// defined and one room created.
fn start_unix_stockroom(
    tag: &str,
    setup: impl FnOnce(ServerBuilder) -> ServerBuilder,
) -> (Server, PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("ode-sock-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = SharedDatabase::new(Database::new());
    let server = setup(Server::builder(db).unix(dir.join("ode.sock")))
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
    let (mut server, dir, room) = start_unix_stockroom("pipeline", |b| b);
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
    let (mut server, dir, room) = start_unix_stockroom("halfclose", |b| b);
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

/// A fresh temporary WAL directory for `tag`.
fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The next message must be the `id: 0` notice `code`.
fn expect_notice(reader: &mut BufReader<UnixStream>, code: &str) {
    match read_msg(reader) {
        ServerMsg::Reply {
            id: 0,
            result: ReplyResult::Err(e),
        } => assert_eq!(e.code, code),
        other => panic!("expected the {code} notice in send order, got {other:?}"),
    }
}

#[test]
fn replies_and_notices_keep_send_order_across_inline_and_worker_execution() {
    let wal = temp_wal_dir("fifo");
    let (mut server, dir, room) = start_unix_stockroom("fifo", |b| {
        b.wal_dir(&wal).config(ServerConfig {
            max_line_bytes: 1024,
            ..ServerConfig::default()
        })
    });
    let sock = server.unix_path().unwrap().to_path_buf();
    let stream = UnixStream::connect(&sock).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    // 200 × [Begin, Call, Commit, PeekField] in one write. With a WAL the
    // Commit waits for its flush on a worker, and the other three run on
    // the loop whenever the connection is idle. Halfway through, one
    // malformed and one overlong line.
    const GROUPS: usize = 200;
    let mut cmds = Vec::new();
    for _ in 0..GROUPS {
        cmds.extend(open_txn_cmds(room, "deposit", 1));
        cmds.push(Command::Commit);
        cmds.push(Command::PeekField {
            object: room,
            field: "items".into(),
        });
    }
    let mut burst = pipeline(cmds);
    let half = burst
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .nth(GROUPS * 2 - 1)
        .map(|(at, _)| at + 1)
        .expect("midpoint");
    let mut bad = b"this is not json\n".to_vec();
    bad.extend(vec![b'x'; 4096]);
    bad.push(b'\n');
    burst.splice(half..half, bad);
    writer.write_all(&burst).unwrap();

    for k in 0..GROUPS {
        if k == GROUPS / 2 {
            expect_notice(&mut reader, "parse");
            expect_notice(&mut reader, "overlong");
            // A second session checkpoints mid-stream: a worker takes
            // every shard lock while the pipeline's inline commands wait
            // for theirs. It is answered (a refusal while a transaction
            // is open counts), and the pipeline carries on.
            let mut admin = Client::connect_unix(&sock).expect("connect admin");
            match admin.request(Command::Checkpoint) {
                Ok(Reply::Checkpointed { .. }) | Err(ClientError::Server(_)) => {}
                other => panic!("expected an answer to Checkpoint, got {other:?}"),
            }
        }
        for i in 0..4 {
            let want = (k * 4 + i + 1) as u64;
            let (id, reply) = match read_msg(&mut reader) {
                ServerMsg::Reply {
                    id,
                    result: ReplyResult::Ok(reply),
                } => (id, reply),
                other => panic!("expected the Ok reply to request {want}, got {other:?}"),
            };
            assert_eq!(id, want, "replies arrive in request order");
            if let Reply::Value(items) = reply {
                if i == 3 {
                    // The peek follows its own durable commit.
                    let bolt = items.member("bolt").and_then(Value::as_int).expect("bolt");
                    assert_eq!(bolt, 500 + k as i64 + 1, "group {k}");
                }
            }
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&wal);
}

/// A `WalIo` that notes which thread made each call, and which thread
/// removed each file.
#[derive(Default)]
struct ThreadNotingIo {
    io: StdIo,
    threads: Arc<Mutex<BTreeSet<String>>>,
    /// `(thread, file name)` per `remove`.
    removes: Arc<Mutex<Vec<(String, String)>>>,
}

impl ThreadNotingIo {
    fn note(&self) -> String {
        let name = std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string();
        self.threads.lock().unwrap().insert(name.clone());
        name
    }
}

impl WalIo for ThreadNotingIo {
    fn create_dir_all(&mut self, dir: &Path) -> std::io::Result<()> {
        self.note();
        self.io.create_dir_all(dir)
    }
    fn list(&mut self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.note();
        self.io.list(dir)
    }
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.note();
        self.io.read(path)
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.note();
        self.io.append(path, bytes)
    }
    fn fsync(&mut self, path: &Path) -> std::io::Result<()> {
        self.note();
        self.io.fsync(path)
    }
    fn fsync_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        self.note();
        self.io.fsync_dir(dir)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.note();
        self.io.rename(from, to)
    }
    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        let thread = self.note();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        self.removes.lock().unwrap().push((thread, file));
        self.io.remove(path)
    }
    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        self.note();
        self.io.truncate(path, len)
    }
}

#[test]
fn the_loop_thread_never_touches_the_disk() {
    let wal = temp_wal_dir("loop-io");
    let noting = ThreadNotingIo::default();
    let threads = Arc::clone(&noting.threads);
    let io = SharedIo::new(noting);
    // The helper's DefineClass and room creation are part of the drive.
    let (mut server, dir, room) =
        start_unix_stockroom("loop-io", |b| b.wal_dir(&wal).history(true).wal_io(io));
    let sock = server.unix_path().unwrap().to_path_buf();
    let deposit = [Value::from("bolt"), Value::Int(5)];

    let mut c = Client::connect_unix(&sock).expect("connect");
    c.txn("io", |c| c.call(room, "deposit", &deposit))
        .expect("durable commit");
    c.begin("io").expect("begin");
    c.call(room, "deposit", &deposit).expect("call");
    c.abort().expect("abort");
    match c.request(Command::Checkpoint) {
        Ok(Reply::Checkpointed { .. }) => {}
        other => panic!("expected a checkpoint, got {other:?}"),
    }
    let q = c.query(QuerySpec::default()).expect("query");
    assert!(!q.rows.is_empty(), "the history store answers");

    // Disconnect with an open transaction: the loop's teardown aborts it.
    {
        let mut d = Client::connect_unix(&sock).expect("connect");
        d.begin("gone").expect("begin");
        d.call(room, "deposit", &deposit).expect("call");
    }
    c.txn("io", |c| c.call(room, "deposit", &deposit))
        .expect("the abandoned lock is released");
    server.shutdown();

    let threads = threads.lock().unwrap().clone();
    assert!(
        threads.contains("wal-flusher") && threads.iter().any(|t| t.starts_with("ode-worker-")),
        "the recorder saw the flusher and the workers: {threads:?}"
    );
    assert!(
        !threads.contains("ode-reactor"),
        "the loop thread made WAL I/O calls: {threads:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn checkpoint_retirement_runs_on_the_background_thread() {
    for archive in [false, true] {
        let tag = if archive {
            "retire-archive"
        } else {
            "retire-plain"
        };
        let wal = temp_wal_dir(tag);
        let noting = ThreadNotingIo::default();
        let removes = Arc::clone(&noting.removes);
        let io = SharedIo::new(noting);
        let (mut server, dir, room) = start_unix_stockroom(tag, |b| {
            b.wal_dir(&wal).shards(2).wal_archive(archive).wal_io(io)
        });
        let mut c = Client::connect_unix(server.unix_path().unwrap()).expect("connect");
        c.txn("io", |c| {
            c.call(room, "deposit", &[Value::from("bolt"), Value::Int(5)])
        })
        .expect("durable commit");
        match c.request(Command::Checkpoint) {
            Ok(Reply::Checkpointed { swept_segments, .. }) => assert!(swept_segments > 0),
            other => panic!("{tag}: expected a checkpoint, got {other:?}"),
        }
        server.shutdown();

        // Every superseded segment or checkpoint was unlinked by the
        // background thread — never by the worker that ran the checkpoint.
        let removes = removes.lock().unwrap().clone();
        let retired: Vec<&(String, String)> = removes
            .iter()
            .filter(|(_, f)| f.starts_with("segment-") || f.starts_with("checkpoint-"))
            .collect();
        assert!(!retired.is_empty(), "{tag}: the checkpoint retired files");
        assert!(
            retired.iter().all(|(thread, _)| thread == "ode-background"),
            "{tag}: superseded files removed off the background thread: {retired:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&wal);
    }
}

/// Every command that needs a role the node was not started with is
/// refused with that role's code: no WAL (`no_wal`), no history store
/// (`no_history`), not a replica (`not_replica`); a WAL-backed node
/// refuses a state jump its log never saw (`restore_unsupported`).
#[test]
fn role_gated_commands_refuse_with_the_missing_roles_code() {
    let query = || Command::Query {
        class: None,
        object: None,
        kind: None,
        qualifier: None,
        args: Vec::new(),
        min_seq: None,
        max_seq: None,
        min_time: None,
        max_time: None,
        limit: None,
    };
    let replay = Command::Activate {
        object: 1,
        trigger: "T1".into(),
        params: Vec::new(),
        replay_history: true,
    };
    let replicate = Command::Replicate {
        from_lsns: vec![0],
        epoch: 0,
    };
    let refused = |c: &mut Client, cmd: Command| match c.request(cmd) {
        Err(ClientError::Server(e)) => e.code,
        other => panic!("expected a refusal, got {other:?}"),
    };

    let (mut server, addr) = start_server(ServerConfig::default());
    let (mut c, _room) = define_stockroom(addr);
    c.begin("admin").expect("begin");
    let in_memory = [
        (Command::Checkpoint, "no_wal"),
        (replicate, "no_wal"),
        (query(), "no_history"),
        (replay, "no_history"),
        (Command::Promote { force: false }, "not_replica"),
    ];
    for (cmd, code) in in_memory {
        let what = format!("{cmd:?}");
        assert_eq!(refused(&mut c, cmd), code, "in-memory node: {what}");
    }
    c.abort().expect("abort");
    server.shutdown();

    let wal = temp_wal_dir("roles");
    let mut server = Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(&wal)
        .start()
        .expect("start");
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    let snapshot = c.snapshot().expect("snapshot");
    let durable = [
        (query(), "no_history"),
        (Command::Restore { snapshot }, "restore_unsupported"),
    ];
    for (cmd, code) in durable {
        let what = format!("{cmd:?}");
        assert_eq!(refused(&mut c, cmd), code, "WAL node: {what}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal);
}
