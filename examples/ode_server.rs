//! Serve the active database over the wire.
//!
//! ```text
//! cargo run --release --example ode_server -- --unix /tmp/ode.sock
//! cargo run --release --example ode_server -- --tcp 127.0.0.1:7878
//! cargo run --release --example ode_server -- --tcp 127.0.0.1:7878 --seconds 60
//! cargo run --release --example ode_server -- --wal-dir /var/lib/ode --fsync commit
//! cargo run --release --example ode_server -- \
//!     --tcp 127.0.0.1:7879 --wal-dir /tmp/ode-replica --replicate-from 127.0.0.1:7878
//! ```
//!
//! Starts an empty database — clients define classes over the wire
//! (see `examples/ode_client.rs`). With `--shards N` objects and
//! trigger state hash-partition into N engine shards, each with its
//! own engine lock, WAL stream, and flusher thread (a WAL
//! directory written with one shard count refuses another). With
//! `--wal-dir DIR` every engine op is written to a crash-safe log in
//! DIR, the directory is recovered on startup, and clients may issue
//! `Checkpoint`; `--fsync` picks which records force a flush
//! (`always`: every record; `commit` [default]: one flush per
//! transaction; `never`: the same schedule without the fsync call —
//! concurrent commits share flushes under all three). With
//! `--history` (requires `--wal-dir`) every committed event is also
//! indexed into a per-shard columnar history store under
//! `DIR/hist`, enabling `Query` over past events and retroactive
//! trigger activation (`replay_history`). With
//! `--replicate-from SOURCES` (a comma-separated list, repeatable) the
//! server runs as a read replica of the first reachable upstream
//! (`host:port` for TCP, a leading `/` or `.` for a Unix socket
//! path): it tails that node's WAL, refuses writes with
//! `read_only_replica`, serves reads and subscriptions, and a client
//! may `Promote` it. With `--max-conns N` at most N connections are
//! admitted at once; later clients get a retryable `server_full`
//! notice and should back off and retry (freed slots are reusable
//! immediately). The upstream may itself be a replica — point a
//! leaf's `--replicate-from` at a mid-tier replica to build a
//! cascading tree where the primary holds O(1) streams; extra
//! entries are re-parenting fallbacks tried in order when the
//! current upstream dies. With
//! `--seconds N` the server shuts down gracefully after N seconds
//! (every session's open transaction is aborted and all threads are
//! joined); otherwise it runs until the process is killed.
//!
//! WAL lifecycle flags (both require `--wal-dir`): with
//! `--wal-archive` the server's background thread compresses every segment
//! a checkpoint supersedes into `DIR/archive/` before unlinking it, so
//! the full committed history stays restorable. With
//! `--wal-restore LSN` the server does not start at all: it rebuilds
//! the database as of exactly `LSN` logged ops — from the
//! checkpoint + archive chain + live segments — prints a state
//! fingerprint, and exits (a point-in-time inspection tool). A target
//! inside a transaction restores to the last LSN before it at which no
//! transaction is open, and prints the LSN it used; a target past the
//! log's head exits 3.

use ode_db::durability::{frame, restore_to_lsn, SegmentReader, SharedIo, StdIo};
use ode_db::{recover_shard, Database, FsyncPolicy, SchemaLog, SharedDatabase, WalConfig};
use ode_server::{ReplSource, Server};
use std::path::Path;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut seconds: Option<u64> = None;
    let mut wal_dir: Option<String> = None;
    let mut replicate_from: Vec<ReplSource> = Vec::new();
    let mut fsync = FsyncPolicy::OnCommit;
    let mut shards: usize = 1;
    let mut history = false;
    let mut max_conns: Option<u64> = None;
    let mut wal_archive = false;
    let mut wal_restore: Option<u64> = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().expect("flag value");
        match flag.as_str() {
            "--tcp" => tcp = Some(value()),
            "--unix" => unix = Some(value()),
            "--seconds" => seconds = Some(value().parse().expect("numeric --seconds")),
            "--wal-dir" => wal_dir = Some(value()),
            // Repeatable, and each operand may be a comma-separated
            // list: the first entry is the preferred upstream (which
            // may itself be a replica — a cascading tree), the rest
            // are re-parenting fallbacks.
            "--replicate-from" => replicate_from.extend(value().split(',').map(ReplSource::parse)),
            "--history" => history = true,
            "--wal-archive" => wal_archive = true,
            "--wal-restore" => {
                wal_restore = Some(value().parse().expect("numeric --wal-restore LSN"));
            }
            "--max-conns" => {
                let n = value().parse().expect("numeric --max-conns");
                if n == 0 {
                    eprintln!("--max-conns must be at least 1");
                    std::process::exit(2);
                }
                max_conns = Some(n);
            }
            "--shards" => {
                shards = value().parse().expect("numeric --shards");
                if shards == 0 {
                    eprintln!("--shards must be at least 1");
                    std::process::exit(2);
                }
            }
            "--fsync" => {
                fsync = match FsyncPolicy::parse(&value()) {
                    Ok(p) => p,
                    Err(msg) => {
                        eprintln!("bad --fsync: {msg}");
                        std::process::exit(2);
                    }
                };
            }
            other => {
                eprintln!(
                    "unknown flag {other}; use --tcp ADDR, --unix PATH, --seconds N, \
                     --wal-dir DIR, --history, --wal-archive, --wal-restore LSN, \
                     --replicate-from SRC[,FALLBACK...], --shards N, \
                     --max-conns N, --fsync always|commit|never"
                );
                std::process::exit(2);
            }
        }
    }
    if tcp.is_none() && unix.is_none() {
        tcp = Some("127.0.0.1:7878".to_string());
    }

    // Point-in-time restore is a one-shot: rebuild the database as of
    // `target` logged ops, print a fingerprint, and exit — no sockets,
    // no flushers, no background thread.
    if let Some(target) = wal_restore {
        let Some(dir) = &wal_dir else {
            eprintln!("--wal-restore requires --wal-dir");
            std::process::exit(2);
        };
        if shards != 1 {
            eprintln!("--wal-restore operates on one shard directory; use --shards 1");
            std::process::exit(2);
        }
        let io = SharedIo::new(StdIo::new());
        let dir = Path::new(dir);
        let schema = SchemaLog::load(&io, dir).unwrap_or_else(|e| {
            eprintln!("restore: {e}");
            std::process::exit(1);
        });
        // Bring the prefix up to `lsn`, noting the last LSN in it at
        // which no transaction was open.
        let bring_up = |lsn: u64| {
            let rec = restore_to_lsn(dir, &io, lsn).unwrap_or_else(|e| {
                eprintln!("restore to LSN {lsn} failed: {e}");
                let past_head = SegmentReader::scan(dir, &io).is_ok_and(|s| lsn > s.head_lsn());
                std::process::exit(if past_head { 3 } else { 1 });
            });
            let mut db = Database::new();
            let mut quiet = rec.base_lsn;
            let replayed = recover_shard(&mut db, schema.specs(), &rec, |at, db| {
                if db.open_user_txns().is_empty() {
                    quiet = at;
                }
            });
            if let Err(e) = replayed {
                eprintln!("restore replay failed: {e}");
                std::process::exit(1);
            }
            if db.open_user_txns().is_empty() {
                quiet = lsn;
            }
            (rec, db, quiet)
        };
        let (mut rec, mut db, used) = bring_up(target);
        if used < target {
            println!(
                "ode-server: LSN {target} falls inside a transaction; restoring to LSN {used}, \
                 the last before it at which no transaction is open"
            );
            (rec, db, _) = bring_up(used);
        }
        let fingerprint = db
            .snapshot()
            .and_then(|s| s.to_json())
            .map(|j| frame::crc32(j.as_bytes()))
            .unwrap_or_else(|e| {
                eprintln!("restore snapshot failed: {e}");
                std::process::exit(1);
            });
        println!(
            "ode-server restored {} to LSN {used}: checkpoint base {}, {} ops replayed \
             from {} source segments, state crc32 {fingerprint:08x}",
            dir.display(),
            rec.base_lsn,
            rec.ops.len(),
            rec.segments,
        );
        return;
    }

    let db = SharedDatabase::new(Database::new());
    let mut builder = Server::builder(db).shards(shards);
    if let Some(n) = max_conns {
        builder = builder.max_conns(n);
    }
    if let Some(addr) = &tcp {
        builder = builder.tcp(addr.clone());
    }
    if let Some(path) = &unix {
        builder = builder.unix(path.clone());
    }
    if let Some(dir) = &wal_dir {
        builder = builder.wal_dir(dir).wal_config(WalConfig {
            fsync,
            archive: wal_archive,
            ..WalConfig::default()
        });
    } else if wal_archive {
        eprintln!("--wal-archive requires --wal-dir");
        std::process::exit(2);
    }
    if history {
        if wal_dir.is_none() {
            eprintln!("--history requires --wal-dir");
            std::process::exit(2);
        }
        builder = builder.history(true);
    }
    let replica = !replicate_from.is_empty();
    for source in replicate_from {
        builder = builder.replicate_from(source);
    }
    let mut server = builder.start().expect("failed to bind or recover");

    if let Some(dir) = &wal_dir {
        println!("ode-server recovered write-ahead log in {dir}");
    }
    if shards > 1 {
        println!("ode-server running {shards} engine shards");
    }
    if history {
        println!("ode-server indexing committed events (Query / replay_history enabled)");
    }
    if wal_archive {
        println!("ode-server archiving swept WAL segments (point-in-time restore enabled)");
    }
    if replica {
        println!("ode-server running as a read replica (Promote to take writes)");
    }
    if let Some(n) = max_conns {
        println!("ode-server admitting at most {n} concurrent connections");
    }
    if let Some(addr) = server.tcp_addr() {
        println!("ode-server listening on tcp {addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("ode-server listening on unix {}", path.display());
    }

    match seconds {
        Some(n) => {
            std::thread::sleep(std::time::Duration::from_secs(n));
            println!("ode-server: time limit reached, shutting down");
            server.shutdown();
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}
