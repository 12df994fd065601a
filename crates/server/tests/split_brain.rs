//! Split-brain fencing end to end: a deterministic partition forks the
//! history, a forced promotion bumps the epoch, the deposed primary
//! latches read-only with typed refusals, and a rejoining forked node
//! is fenced and healed until every surviving WAL is record-for-record
//! identical. Plus the cascading-tree shape the epochs make safe: a
//! depth-2 replica tree that mirrors state and firing seqs exactly,
//! and a leaf that re-parents to a fallback upstream when its mid-tier
//! dies.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_db::{Database, FsyncPolicy, SegmentReader, SharedDatabase, SharedIo, StdIo, WalConfig};
use ode_server::protocol::{Command, Firing};
use ode_server::spec::stockroom_spec;
use ode_server::{Client, ClientError, QuerySpec, ReplSource, Server, ServerBuilder, StreamFault};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-split-brain-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny segments, fsync every op: every commit ships immediately and
/// the replica's cursor is exact at any fault boundary.
fn cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 512,
        fsync: FsyncPolicy::Always,
        archive: false,
    }
}

fn node(dir: &Path) -> ServerBuilder {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(cfg())
}

fn start_primary(dir: &Path) -> Server {
    node(dir).start().expect("primary starts")
}

fn tcp_source(upstream: &Server) -> ReplSource {
    ReplSource::Tcp(upstream.tcp_addr().expect("upstream tcp").to_string())
}

/// A replica with an explicit upstream list (the first entry is the
/// preferred parent, the rest are re-parenting fallbacks).
fn start_replica_chain(
    dir: &Path,
    sources: Vec<ReplSource>,
    plan: HashMap<u64, StreamFault>,
) -> Server {
    let mut b = node(dir).repl_fault_plan(plan);
    for s in sources {
        b = b.replicate_from(s);
    }
    b.start().expect("replica starts")
}

fn start_replica(dir: &Path, upstream: &Server, plan: HashMap<u64, StreamFault>) -> Server {
    start_replica_chain(dir, vec![tcp_source(upstream)], plan)
}

fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Poll a replica until its applied cursor reaches `target` records.
fn wait_applied(c: &mut Client, target: u64) {
    wait_until(
        || c.stats().expect("stats").last_applied_lsn == Some(target),
        &format!("replica to apply {target} records"),
    );
}

fn collect_firings(c: &mut Client, n: usize) -> Vec<Firing> {
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
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

/// The full split-brain story on one pair of nodes: partition, forced
/// promotion at a known fork point, typed fencing of the deposed
/// primary, and a fence-driven heal on rejoin that ends with both WALs
/// record-for-record identical — with the bumped epoch surviving a
/// restart of the promoted node.
#[test]
fn forced_promotion_fences_the_forked_primary() {
    let adir = tmp_dir("fence-a");
    let bdir = tmp_dir("fence-b");

    // The node that will fork indexes its committed events, so the
    // heal below must carry its history store along with its log.
    let mut a = node(&adir).history(true).start().expect("primary starts");
    let mut ac = Client::connect_tcp(a.tcp_addr().unwrap()).expect("connect");
    ac.define_class(stockroom_spec()).expect("define");
    let room = ac
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    withdraw(&mut ac, room, "alice", 120);
    let fork_lsn = ac.stats().expect("stats").wal_lsn.expect("wal");

    // The partition fires on receipt of record `fork_lsn`, so the
    // replica applies exactly the shared prefix and nothing after — a
    // deterministic fork point, however far ahead the primary runs.
    let plan: HashMap<u64, StreamFault> =
        [(fork_lsn, StreamFault::Partition)].into_iter().collect();
    let mut b = start_replica(&bdir, &a, plan);
    let mut bc = Client::connect_tcp(b.tcp_addr().unwrap()).expect("connect");
    wait_until(
        || {
            let s = bc.stats().expect("stats");
            s.last_applied_lsn == Some(fork_lsn) && s.repl_connected
        },
        "replica to reach the fork point",
    );
    assert!(
        bc.stats().expect("stats").repl_heartbeat_age_ms.is_some(),
        "a live stream reports its upstream's heartbeat age"
    );

    // The old primary keeps taking writes into the partition: the fork.
    for _ in 0..3 {
        withdraw(&mut ac, room, "alice", 7);
    }
    wait_until(
        || !bc.stats().expect("stats").repl_connected,
        "the partition to cut the stream",
    );
    assert_eq!(
        bc.stats().expect("stats").last_applied_lsn,
        Some(fork_lsn),
        "the partition pinned the replica at the fork point"
    );

    // An un-forced Promote refuses: the replica knows it lags the last
    // head its upstream reported.
    match bc.promote() {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "promote_lagging");
            assert!(e.retryable, "retryable: the lag may drain");
        }
        other => panic!("a lagging promote must refuse, got {other:?}"),
    }

    // Forced promotion: accept losing the un-applied tail, bump the
    // epoch durably, take writes.
    let (lsn, epoch) = bc.promote_force().expect("forced promote");
    assert_eq!(lsn, fork_lsn);
    assert_eq!(epoch, 1);
    let stats = bc.stats().expect("stats");
    assert_eq!(stats.epoch, 1);
    assert!(!stats.read_only && !stats.deposed);
    assert_eq!(
        stats.repl_heartbeat_age_ms, None,
        "a promoted node has no upstream to age"
    );

    // The new lineage diverges from the fork with different writes.
    withdraw(&mut bc, room, "bob", 11);
    withdraw(&mut bc, room, "bob", 13);
    assert_ne!(bolt(&mut ac, room), bolt(&mut bc, room), "histories forked");

    // Fencing: announcing the new epoch latches the old primary
    // read-only with a typed refusal naming the cure.
    assert_eq!(ac.demote(1).expect("demote"), 1);
    match ac.begin("alice") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "deposed"),
        other => panic!("a deposed primary must refuse writes, got {other:?}"),
    }
    let stats = ac.stats().expect("stats");
    assert!(stats.deposed);
    assert_eq!(stats.epoch, 1, "it knows the epoch that deposed it");

    // A deposed node also refuses to serve replication: a handshake
    // claiming the new epoch is stale (this log never held bump 1),
    // and one claiming the old epoch hits the deposed latch.
    match ac.request(Command::Replicate {
        from_lsns: vec![0],
        epoch: 1,
    }) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "stale_epoch"),
        other => panic!("expected stale_epoch, got {other:?}"),
    }
    match ac.request(Command::Replicate {
        from_lsns: vec![0],
        epoch: 0,
    }) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "deposed"),
        other => panic!("expected deposed, got {other:?}"),
    }
    assert!(ac.stats().expect("stats").stale_epoch_rejections >= 1);

    // Rejoin: restart the old primary's directory as a replica of the
    // new one. Its cursor runs past the fence (it kept writing after
    // the fork), so the upstream answers with a fencing snapshot and
    // the shard discards its forked history and re-replicates from
    // zero — no acked-post-deposal write survives anywhere.
    a.shutdown();
    let mut a = node(&adir)
        .history(true)
        .replicate_from(tcp_source(&b))
        .start()
        .expect("replica starts");
    let mut ac = Client::connect_tcp(a.tcp_addr().unwrap()).expect("reconnect");
    let target = bc.stats().expect("stats").wal_lsn.expect("wal");
    wait_applied(&mut ac, target);
    assert_eq!(
        bolt(&mut ac, room),
        500 - 120 - 11 - 13,
        "the healed node holds the new lineage, fork debris demoted"
    );
    // Rows index once the replica's *local* log has made them durable,
    // which trails `last_applied_lsn` by a flush.
    let mut withdrawn: Vec<i64> = Vec::new();
    wait_until(
        || {
            let q = QuerySpec {
                kind: Some("withdraw".into()),
                qualifier: Some("after".into()),
                ..QuerySpec::default()
            };
            let rows = ac.query(q).expect("query").rows;
            withdrawn = rows
                .iter()
                .map(|r| r.args[1].as_int().expect("qty"))
                .collect();
            withdrawn.len() >= 3
        },
        "the healed store to index the re-shipped rows",
    );
    assert_eq!(
        withdrawn,
        [120, 11, 13],
        "the history store was reset with the log: no fork rows, every re-shipped row"
    );
    let stats = ac.stats().expect("stats");
    assert_eq!(stats.epoch, 1, "the bump arrived in-band");
    assert!(!stats.deposed, "catching up to the bump clears the latch");
    assert!(stats.replica && stats.read_only);

    // Record-for-record identity across the surviving fork.
    a.shutdown();
    b.shutdown();
    let (a_log, b_log) = (wal_records(&adir), wal_records(&bdir));
    assert!(!a_log.is_empty());
    assert_eq!(a_log, b_log, "healed WAL mirrors the new lineage exactly");

    // The bumped epoch is durable: the promoted node restarts as a
    // plain primary, still at epoch 1, still writable.
    let mut b = start_primary(&bdir);
    let mut bc = Client::connect_tcp(b.tcp_addr().unwrap()).expect("reconnect");
    let stats = bc.stats().expect("stats");
    assert_eq!(stats.epoch, 1);
    assert!(!stats.deposed && !stats.read_only);
    withdraw(&mut bc, room, "alice", 1);
    b.shutdown();

    let _ = std::fs::remove_dir_all(&adir);
    let _ = std::fs::remove_dir_all(&bdir);
}

/// A depth-2 tree — primary → mid-tier → two leaves — mirrors state
/// and trigger firing sequences exactly at every level, and every
/// node's WAL is record-for-record identical. The primary holds one
/// stream no matter how wide the tree below the mid-tier grows.
#[test]
fn depth_two_tree_mirrors_state_and_firing_seqs() {
    let pdir = tmp_dir("tree-p");
    let mdir = tmp_dir("tree-m");
    let l1dir = tmp_dir("tree-l1");
    let l2dir = tmp_dir("tree-l2");

    let mut p = start_primary(&pdir);
    let mut pc = Client::connect_tcp(p.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");

    // The mid-tier replicates from the primary; the leaves replicate
    // from the mid-tier — its re-logged WAL re-serves the stream.
    let mut m = start_replica(&mdir, &p, HashMap::new());
    let mut l1 = start_replica(&l1dir, &m, HashMap::new());
    let mut l2 = start_replica(&l2dir, &m, HashMap::new());
    let mut mc = Client::connect_tcp(m.tcp_addr().unwrap()).expect("connect");
    let mut c1 = Client::connect_tcp(l1.tcp_addr().unwrap()).expect("connect");
    let mut c2 = Client::connect_tcp(l2.tcp_addr().unwrap()).expect("connect");
    let head = pc.stats().expect("stats").wal_lsn.expect("wal");
    for c in [&mut mc, &mut c1, &mut c2] {
        wait_applied(c, head);
    }

    let mut subs: Vec<Client> = [&p, &m, &l1, &l2]
        .iter()
        .map(|s| {
            let mut c = Client::connect_tcp(s.tcp_addr().unwrap()).expect("connect");
            c.subscribe().expect("subscribe");
            c
        })
        .collect();

    // Three T6-firing withdrawals ripple down both levels of the tree.
    for _ in 0..3 {
        withdraw(&mut pc, room, "alice", 120);
    }
    let head = pc.stats().expect("stats").wal_lsn.expect("wal");
    for c in [&mut mc, &mut c1, &mut c2] {
        wait_applied(c, head);
    }
    let fired: Vec<_> = subs.iter_mut().map(|c| collect_firings(c, 3)).collect();
    for f in &fired[1..] {
        assert_eq!(
            keys(&fired[0]),
            keys(f),
            "identical (seq, txn, object, trigger, event) at every tree level"
        );
    }
    let want = bolt(&mut pc, room);
    for c in [&mut mc, &mut c1, &mut c2] {
        assert_eq!(bolt(c, room), want);
    }

    // The mid-tier is both a follower (it ages its upstream's
    // heartbeats) and a server (the leaves are connected through it).
    let ms = mc.stats().expect("stats");
    assert!(ms.repl_connected && ms.repl_heartbeat_age_ms.is_some());
    for c in [&mut c1, &mut c2] {
        let s = c.stats().expect("stats");
        assert!(s.repl_connected && s.repl_heartbeat_age_ms.is_some());
        assert_eq!(s.epoch, 0);
    }

    l1.shutdown();
    l2.shutdown();
    m.shutdown();
    p.shutdown();
    let p_log = wal_records(&pdir);
    assert!(!p_log.is_empty());
    for dir in [&mdir, &l1dir, &l2dir] {
        assert_eq!(p_log, wal_records(dir), "every tree level mirrors the log");
    }
    for dir in [pdir, mdir, l1dir, l2dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Mid-tree failure: a leaf configured with a fallback upstream list
/// re-parents from the dead mid-tier to the primary and keeps
/// applying, without repeating or losing a record.
#[test]
fn leaf_reparents_to_fallback_when_mid_tier_dies() {
    let pdir = tmp_dir("reparent-p");
    let mdir = tmp_dir("reparent-m");
    let ldir = tmp_dir("reparent-l");

    let mut p = start_primary(&pdir);
    let mut pc = Client::connect_tcp(p.tcp_addr().unwrap()).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("room");
    withdraw(&mut pc, room, "alice", 120);

    let mut m = start_replica(&mdir, &p, HashMap::new());
    let mut l = start_replica_chain(&ldir, vec![tcp_source(&m), tcp_source(&p)], HashMap::new());
    let mut lc = Client::connect_tcp(l.tcp_addr().unwrap()).expect("connect");
    wait_applied(&mut lc, pc.stats().expect("stats").wal_lsn.expect("wal"));

    // Kill the mid-tier and keep writing: the leaf's stream breaks, it
    // rotates to the fallback, and catches up directly from the
    // primary.
    m.shutdown();
    for _ in 0..2 {
        withdraw(&mut pc, room, "bob", 9);
    }
    let head = pc.stats().expect("stats").wal_lsn.expect("wal");
    wait_applied(&mut lc, head);
    let stats = lc.stats().expect("stats");
    assert!(stats.repl_connected, "re-parented to the fallback");
    assert_eq!(bolt(&mut lc, room), bolt(&mut pc, room));

    l.shutdown();
    p.shutdown();
    assert_eq!(
        wal_records(&pdir),
        wal_records(&ldir),
        "no repeats, no holes across the re-parent"
    );
    for dir in [pdir, mdir, ldir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A leaf that registered with a mid-tier *before* the mid-tier had
/// heard of a class must still learn it: the mid-tier's own handshake
/// delivers the class inside `ReplSnapshot`, and that path has to
/// cascade it downstream exactly like a live `ReplSchema` — otherwise
/// the leaf applies a `Create` of a class it never heard of, diverges,
/// and parks for good (the `wait_applied` timeouts this suite used to
/// show under load).
#[test]
fn class_learned_at_handshake_cascades_to_registered_leaves() {
    let pdir = tmp_dir("late-class-p");
    let mdir = tmp_dir("late-class-m");
    let ldir = tmp_dir("late-class-l");
    let sock = tmp_dir("late-class-sock").with_extension("sock");

    // A primary's history, written ahead of time.
    let (room, head) = {
        let mut p = start_primary(&pdir);
        let mut pc = Client::connect_tcp(p.tcp_addr().unwrap()).expect("connect");
        pc.define_class(stockroom_spec()).expect("define");
        let room = pc
            .txn("admin", |c| c.new_object("room", &[]))
            .expect("room");
        withdraw(&mut pc, room, "alice", 120);
        let head = pc.stats().expect("stats").wal_lsn.expect("wal");
        p.shutdown();
        (room, head)
    };

    // The tree comes up bottom-first: the mid-tier's upstream does not
    // exist yet, so the leaf registers with a mid-tier that knows no
    // class and holds no record.
    let mut m = start_replica_chain(&mdir, vec![ReplSource::Unix(sock.clone())], HashMap::new());
    let mut l = start_replica(&ldir, &m, HashMap::new());
    let mut lc = Client::connect_tcp(l.tcp_addr().unwrap()).expect("connect");
    wait_until(
        || lc.stats().expect("stats").repl_connected,
        "the leaf to register with the empty mid-tier",
    );

    // Now the primary appears, with the class and the records already
    // in its log.
    let mut p = node(&pdir).unix(&sock).start().expect("primary restarts");
    wait_applied(&mut lc, head);
    assert_eq!(bolt(&mut lc, room), 500 - 120);

    l.shutdown();
    m.shutdown();
    p.shutdown();
    assert_eq!(wal_records(&pdir), wal_records(&ldir));
    for dir in [pdir, mdir, ldir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
