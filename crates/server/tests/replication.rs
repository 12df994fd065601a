//! End-to-end replication: a read replica tailing a primary's WAL
//! serves the same committed state, fires the same triggers in the
//! same order with the same sequence numbers — through stream faults,
//! a restart mid-stream, and a checkpoint-based snapshot bootstrap —
//! and a promoted replica takes writes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_db::{
    shard_dir, shard_of, Database, FsyncPolicy, ObjectId, SegmentReader, SharedDatabase, SharedIo,
    StdIo, WalConfig, WalIo, SCHEMA_FILE,
};
use ode_server::protocol::{Command, Firing, Reply};
use ode_server::spec::stockroom_spec;
use ode_server::{Client, ClientError, ReplSource, Server, StreamFault};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-replication-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny segments so even short sessions rotate; fsync every op so the
/// replica's local WAL head is exact at any restart boundary.
fn cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 512,
        fsync: FsyncPolicy::Always,
        archive: false,
    }
}

fn start_primary(dir: &Path) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(cfg())
        .start()
        .expect("primary starts")
}

fn start_replica(dir: &Path, primary: &Server, plan: HashMap<u64, StreamFault>) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(cfg())
        .replicate_from(ReplSource::Tcp(
            primary.tcp_addr().expect("primary tcp").to_string(),
        ))
        .repl_fault_plan(plan)
        .start()
        .expect("replica starts")
}

/// Poll the replica's stats until it has applied everything the
/// primary has logged (`target` = the primary's `wal_lsn`).
fn wait_applied(c: &mut Client, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.stats().expect("replica stats");
        if stats.last_applied_lsn == Some(target) {
            assert_eq!(stats.replica_lag_lsn, Some(0), "caught up means zero lag");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never reached LSN {target}: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn collect_firings(c: &mut Client, n: usize) -> Vec<Firing> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < n {
        assert!(
            Instant::now() < deadline,
            "expected {n} firings, got {} so far: {got:?}",
            got.len()
        );
        if let Some(f) = c.poll_firing(Duration::from_millis(100)).expect("poll") {
            got.push(f);
        }
    }
    got
}

/// The observable identity of a firing sequence.
fn keys(firings: &[Firing]) -> Vec<(u64, u64, u64, String, String)> {
    firings
        .iter()
        .map(|f| (f.seq, f.txn, f.object, f.trigger.clone(), f.event.clone()))
        .collect()
}

/// The committed record stream of a (shut-down) server's WAL
/// directory, as `(lsn, line)` pairs.
fn wal_records(dir: &Path) -> Vec<(u64, String)> {
    let scan = SegmentReader::scan(dir, &SharedIo::new(StdIo::new())).expect("scan");
    scan.records_from(0)
        .map(|(lsn, p)| (lsn, String::from_utf8(p.to_vec()).expect("utf8")))
        .collect()
}

fn bolt(c: &mut Client, room: u64) -> i64 {
    c.peek_field(room, "items")
        .expect("peek")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt is an int")
}

fn withdraw(c: &mut Client, room: u64, user: &str, qty: i64) {
    c.txn(user, |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(qty)])
    })
    .expect("withdraw");
}

fn start_primary_sharded(dir: &Path, shards: usize) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .shards(shards)
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(cfg())
        .start()
        .expect("sharded primary starts")
}

fn start_replica_sharded(dir: &Path, primary: &Server, shards: usize) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .shards(shards)
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(cfg())
        .replicate_from(ReplSource::Tcp(
            primary.tcp_addr().expect("primary tcp").to_string(),
        ))
        .start()
        .expect("sharded replica starts")
}

/// The observable identity of a sharded firing set. Per-shard streams
/// guarantee order *within* a shard, not across shards, so compare
/// sorted by (shard, seq).
fn shard_keys(firings: &[Firing]) -> Vec<(u64, u64, u64, u64, String, String)> {
    let mut v: Vec<_> = firings
        .iter()
        .map(|f| {
            (
                f.shard,
                f.seq,
                f.txn,
                f.object,
                f.trigger.clone(),
                f.event.clone(),
            )
        })
        .collect();
    v.sort();
    v
}

/// A cross-shard withdrawal: one transaction touching both rooms, so
/// commit runs the ordered 2PC and stamps both shards' WALs.
fn cross_withdraw(c: &mut Client, rooms: (u64, u64), user: &str, qty: i64) {
    c.txn(user, |c| {
        c.call(rooms.0, "withdraw", &[Value::from("bolt"), Value::Int(qty)])?;
        c.call(rooms.1, "withdraw", &[Value::from("bolt"), Value::Int(qty)])
    })
    .expect("cross-shard withdraw");
}

#[test]
fn sharded_replica_mirrors_per_shard_streams_exactly() {
    let pdir = tmp_dir("sharded-p");
    let rdir = tmp_dir("sharded-r");

    let mut primary = start_primary_sharded(&pdir, 2);
    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    // Round-robin placement: the first room lands on shard 0, the
    // second on shard 1.
    let room_a = pc.txn("admin", |c| c.new_object("room", &[])).expect("a");
    let room_b = pc.txn("admin", |c| c.new_object("room", &[])).expect("b");
    let rooms = (room_a, room_b);
    assert_ne!(
        shard_of(ObjectId(room_a), 2),
        shard_of(ObjectId(room_b), 2),
        "rooms live on distinct shards"
    );
    let mut psub = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    psub.subscribe().expect("subscribe");

    let mut replica = start_replica_sharded(&rdir, &primary, 2);
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    let mut rsub = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    rsub.subscribe().expect("subscribe");

    // Two single-shard T6 withdrawals plus one cross-shard transaction
    // that fires T6 on both shards: four firings, two per shard.
    withdraw(&mut pc, room_a, "alice", 101);
    withdraw(&mut pc, room_b, "alice", 102);
    cross_withdraw(&mut pc, rooms, "bob", 103);
    let p1 = collect_firings(&mut psub, 4);
    let r1 = collect_firings(&mut rsub, 4);
    assert_eq!(shard_keys(&p1), shard_keys(&r1));
    for s in [0u64, 1] {
        assert!(p1.iter().any(|f| f.shard == s), "shard {s} fired: {p1:?}");
    }
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(bolt(&mut rc, room_a), 500 - 101 - 103);
    assert_eq!(bolt(&mut rc, room_b), 500 - 102 - 103);

    // Down the replica mid-stream, commit a cross-shard transaction it
    // never saw, and restart it: per-shard cursors resume, no repeats,
    // no holes, and the per-shard firing counters ride through.
    replica.shutdown();
    cross_withdraw(&mut pc, rooms, "alice", 104);
    let p2 = collect_firings(&mut psub, 2);

    let mut replica = start_replica_sharded(&rdir, &primary, 2);
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("reconnect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    let mut rsub = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    rsub.subscribe().expect("subscribe");

    cross_withdraw(&mut pc, rooms, "bob", 105);
    let p3 = collect_firings(&mut psub, 2);
    let r3 = collect_firings(&mut rsub, 2);
    assert_eq!(shard_keys(&p3), shard_keys(&r3));
    for f in &r3 {
        let prev = p2.iter().find(|p| p.shard == f.shard).expect("same shard");
        assert_eq!(
            f.seq,
            prev.seq + 1,
            "shard {}'s firing counter rode through the restart",
            f.shard
        );
    }

    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    let (ps, rs) = (pc.stats().expect("stats"), rc.stats().expect("stats"));
    assert_eq!(ps.triggers_fired, rs.triggers_fired);
    assert_eq!(ps.txns_committed, rs.txns_committed);
    assert_eq!(ps.shards, 2);
    assert_eq!(ps.shard_commits.len(), 2);
    assert!(
        ps.shard_commits.iter().all(|&c| c > 0),
        "both shards committed: {:?}",
        ps.shard_commits
    );
    assert_eq!(bolt(&mut rc, room_a), bolt(&mut pc, room_a));
    assert_eq!(bolt(&mut rc, room_b), bolt(&mut pc, room_b));

    // Record-for-record equivalence, now per shard stream.
    replica.shutdown();
    primary.shutdown();
    for s in 0..2 {
        let p_log = wal_records(&shard_dir(&pdir, s, 2));
        let r_log = wal_records(&shard_dir(&rdir, s, 2));
        assert!(!p_log.is_empty(), "shard {s} logged");
        assert_eq!(p_log, r_log, "shard {s}: replica WAL mirrors the primary");
    }
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn replica_fires_identically_even_across_a_restart_mid_stream() {
    let pdir = tmp_dir("determinism-p");
    let rdir = tmp_dir("determinism-r");

    let mut primary = start_primary(&pdir);
    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    let mut psub = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    psub.subscribe().expect("subscribe");

    // The replica bootstraps from the full log (no checkpoint yet), so
    // its firing counter replays from zero exactly like the primary's.
    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    let mut rsub = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    rsub.subscribe().expect("subscribe");

    // Three large withdrawals, each firing T6 on the primary — and,
    // through the log stream, on the replica.
    for _ in 0..3 {
        withdraw(&mut pc, room, "alice", 120);
    }
    let p1 = collect_firings(&mut psub, 3);
    let r1 = collect_firings(&mut rsub, 3);
    assert_eq!(
        keys(&p1),
        keys(&r1),
        "identical (seq, txn, object, trigger, event) on both sides"
    );
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));

    // Take the replica down mid-stream, advance the primary, and
    // restart the replica from its own directory: it resumes from its
    // local WAL head, catches up, and the firing sequence continues
    // exactly where the primary's did — no repeats, no holes.
    replica.shutdown();
    for _ in 0..2 {
        withdraw(&mut pc, room, "bob", 150);
    }
    let p2 = collect_firings(&mut psub, 2);

    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("reconnect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    let mut rsub = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    rsub.subscribe().expect("subscribe");
    withdraw(&mut pc, room, "alice", 130);
    let p3 = collect_firings(&mut psub, 1);
    let r3 = collect_firings(&mut rsub, 1);
    assert_eq!(keys(&p3), keys(&r3));
    assert_eq!(
        r3[0].seq,
        p2[1].seq + 1,
        "the replica's counter rode through the restart"
    );

    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    let (ps, rs) = (pc.stats().expect("stats"), rc.stats().expect("stats"));
    assert_eq!(
        ps.triggers_fired, rs.triggers_fired,
        "every firing happened exactly once on each side"
    );
    assert_eq!(ps.txns_committed, rs.txns_committed);
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));

    // The strongest determinism check: the replica re-logged what it
    // applied, and the two logs are record-for-record identical.
    replica.shutdown();
    primary.shutdown();
    let (p_log, r_log) = (wal_records(&pdir), wal_records(&rdir));
    assert!(!p_log.is_empty());
    assert_eq!(p_log, r_log, "replica WAL mirrors the primary exactly");
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn stream_faults_collapse_to_exactly_once_apply() {
    let pdir = tmp_dir("faults-p");
    let rdir = tmp_dir("faults-r");

    let mut primary = start_primary(&pdir);
    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");

    // Deterministic damage, keyed by received-record count across
    // reconnects: a dropped connection mid-catch-up, a duplicated
    // frame, a CRC flip, and a torn (truncated) frame. Every one must
    // collapse to "reconnect and resume from the cursor".
    let plan: HashMap<u64, StreamFault> = [
        (1, StreamFault::Disconnect),
        (3, StreamFault::Duplicate),
        (6, StreamFault::CorruptFrame),
        (9, StreamFault::TornFrame),
    ]
    .into_iter()
    .collect();
    let mut replica = start_replica(&rdir, &primary, plan);
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");

    for _ in 0..4 {
        withdraw(&mut pc, room, "alice", 120);
    }
    let head = pc.stats().expect("stats").wal_lsn.expect("wal");
    wait_applied(&mut rc, head);
    let rstats = rc.stats().expect("stats");
    assert!(rstats.repl_connected, "recovered from every injected fault");
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));
    assert_eq!(
        rstats.triggers_fired,
        pc.stats().expect("stats").triggers_fired
    );

    replica.shutdown();
    primary.shutdown();
    assert_eq!(
        wal_records(&pdir),
        wal_records(&rdir),
        "duplicates were skipped and gaps re-fetched: the logs agree"
    );
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn replica_refuses_writes_until_promoted() {
    let pdir = tmp_dir("promote-p");
    let rdir = tmp_dir("promote-r");

    let mut primary = start_primary(&pdir);
    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    withdraw(&mut pc, room, "alice", 120);

    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));

    // Reads are served, writes are typed refusals that name the cure.
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));
    for refused in [
        rc.begin("alice").err(),
        rc.define_class(stockroom_spec()).err(),
    ] {
        match refused {
            Some(ClientError::Server(e)) => {
                assert_eq!(e.code, "read_only_replica");
                assert!(!e.retryable);
            }
            other => panic!("replica must refuse writes, got {other:?}"),
        }
    }
    let stats = rc.stats().expect("stats");
    assert!(stats.replica && stats.read_only && stats.repl_connected);

    // Promote is only meaningful on a replica.
    match pc.promote() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "not_replica"),
        other => panic!("primary must refuse Promote, got {other:?}"),
    }

    // Promotion drains the stream, detaches, and flips writable —
    // idempotently.
    let lsn = rc.promote().expect("promote");
    assert_eq!(lsn, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(rc.promote().expect("promote again"), lsn);
    let stats = rc.stats().expect("stats");
    assert!(stats.replica, "history: it started as a replica");
    assert!(!stats.read_only && !stats.repl_connected);
    assert_eq!(stats.replica_lag_lsn, None, "lag is meaningless now");

    // The ex-replica takes writes, and its triggers still guard.
    withdraw(&mut rc, room, "alice", 10);
    assert_eq!(bolt(&mut rc, room), 500 - 120 - 10);
    rc.begin("mallory").expect("begin");
    match rc.call(room, "withdraw", &[Value::from("bolt"), Value::Int(1)]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "aborted", "T1 still guards"),
        other => panic!("mallory must be aborted, got {other:?}"),
    }
    rc.abort().expect("abort");

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn late_replica_bootstraps_from_a_checkpoint_snapshot() {
    let pdir = tmp_dir("snapshot-p");
    let rdir = tmp_dir("snapshot-r");

    // The primary checkpoints and keeps writing, so generation zero's
    // records are gone: a fresh replica cannot replay from LSN 0 and
    // must take the snapshot path.
    let mut primary = start_primary(&pdir);
    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    for _ in 0..3 {
        withdraw(&mut pc, room, "alice", 120);
    }
    match pc.request(Command::Checkpoint).expect("checkpoint") {
        Reply::Checkpointed { lsn, .. } => assert!(lsn > 0),
        other => panic!("expected Checkpointed, got {other:?}"),
    }
    withdraw(&mut pc, room, "bob", 150);

    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(bolt(&mut rc, room), 500 - 3 * 120 - 150);

    // The stream stays live past the bootstrap: new commits flow, and
    // the replica's own subscribers hear their firings.
    let mut rsub = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    rsub.subscribe().expect("subscribe");
    withdraw(&mut pc, room, "alice", 110);
    let fired = collect_firings(&mut rsub, 1);
    assert_eq!(fired[0].trigger, "T6");
    assert_eq!(fired[0].object, room);
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));

    // A restart of a snapshot-bootstrapped replica recovers from the
    // checkpoint it persisted locally and rejoins the stream.
    replica.shutdown();
    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("reconnect");
    withdraw(&mut pc, room, "alice", 5);
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// The `segment-` files of local generation 0 in a one-shard WAL dir.
fn generation0_segments(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("segment-0000000000-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_snapshot_jump_leaves_no_superseded_local_generation_after_shutdown() {
    let pdir = tmp_dir("jump-drain-p");
    let rdir = tmp_dir("jump-drain-r");
    let mut primary = start_primary(&pdir);
    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    withdraw(&mut pc, room, "alice", 10);

    // The replica tails the primary's first records into its own log.
    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    replica.shutdown();
    assert!(
        !generation0_segments(&rdir).is_empty(),
        "the replica logged the stream locally"
    );

    // While it is down the primary checkpoints past the replica's
    // cursor, so the restarted replica must jump to the snapshot.
    withdraw(&mut pc, room, "bob", 20);
    match pc.request(Command::Checkpoint).expect("checkpoint") {
        Reply::Checkpointed { lsn, .. } => assert!(lsn > 0),
        other => panic!("expected Checkpointed, got {other:?}"),
    }
    withdraw(&mut pc, room, "alice", 30);
    let mut replica = start_replica(&rdir, &primary, HashMap::new());
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut rc, pc.stats().expect("stats").wal_lsn.expect("wal"));
    assert_eq!(bolt(&mut rc, room), bolt(&mut pc, room));

    // The jump's checkpoint retired the local generation; the drain the
    // replica queued for it (or, at the latest, shutdown's) removed it.
    replica.shutdown();
    assert_eq!(generation0_segments(&rdir), Vec::<String>::new());
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// The replica's disk refuses appends to its schema log and nothing
/// else.
struct SchemaAppendFails(StdIo);

impl WalIo for SchemaAppendFails {
    fn create_dir_all(&mut self, dir: &Path) -> std::io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn list(&mut self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.0.list(dir)
    }
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if path.file_name().and_then(|n| n.to_str()) == Some(SCHEMA_FILE) {
            return Err(std::io::Error::other("injected schema log failure"));
        }
        self.0.append(path, bytes)
    }
    fn fsync(&mut self, path: &Path) -> std::io::Result<()> {
        self.0.fsync(path)
    }
    fn fsync_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        self.0.fsync_dir(dir)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        self.0.remove(path)
    }
    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        self.0.truncate(path, len)
    }
}

/// A replica that cannot log a shipped class stops replicating before
/// it applies any op on that class: an op in its local WAL on a class
/// its schema log lacks would make the directory unrecoverable.
#[test]
fn a_failed_schema_log_append_stops_the_replica_and_its_directory_reopens() {
    let pdir = tmp_dir("schema-fail-primary");
    let rdir = tmp_dir("schema-fail-replica");
    let mut primary = start_primary(&pdir);
    let mut replica = Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(&rdir)
        .wal_config(cfg())
        .wal_io(SharedIo::new(SchemaAppendFails(StdIo::new())))
        .replicate_from(ReplSource::Tcp(
            primary.tcp_addr().expect("primary tcp").to_string(),
        ))
        .start()
        .expect("replica starts");
    let mut rc = Client::connect_tcp(replica.tcp_addr().unwrap()).expect("replica");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !rc.stats().expect("stats").repl_connected {
        assert!(Instant::now() < deadline, "the replica never connected");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut pc = Client::connect_tcp(primary.tcp_addr().unwrap()).expect("primary");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    withdraw(&mut pc, room, "alice", 10);
    let head = pc
        .stats()
        .expect("stats")
        .wal_lsn
        .expect("primary has a WAL");

    // Either the runner stops, or (without the check) it applies all.
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = rc.stats().expect("stats");
        if !stats.repl_connected || stats.last_applied_lsn == Some(head) {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "replica neither stopped nor caught up"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    // Promoted, the node still refuses writes: one on the class would
    // reach the local WAL without the class in the schema log.
    let _ = rc.promote_force();
    match rc.txn("admin", |c| c.new_object("room", &[])) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "read_only", "{e:?}"),
        other => panic!("a write on the unlogged class must be refused, got {other:?}"),
    }
    replica.shutdown();
    let reopened = Server::builder(SharedDatabase::new(Database::new()))
        .wal_dir(&rdir)
        .wal_config(cfg())
        .start();
    assert!(
        reopened.is_ok(),
        "the replica's WAL directory must reopen: {:?}",
        reopened.err()
    );
    assert_eq!(
        stats.last_applied_lsn,
        Some(0),
        "no op on the unlogged class was applied"
    );
    assert!(!stats.repl_connected, "the runner stopped for good");
    drop(reopened);
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}
