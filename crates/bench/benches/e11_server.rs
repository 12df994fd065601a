//! E11 — wire-protocol server throughput over TCP loopback.
//!
//! Measures posted events per second through `ode-server` with 1, 4,
//! and 8 concurrent TCP clients, in two workloads:
//!
//! * **shared** — every client withdraws from the *same* stock room
//!   (the paper's stockroom scenario): object-level locking serializes
//!   the transactions and clients retry on `lock_conflict`, so this
//!   measures the contended path end to end.
//! * **disjoint** — each client owns its own room: transactions never
//!   conflict, so this measures how the thread-per-connection front
//!   end scales when the engine itself is not the bottleneck.
//!
//! Results are printed as a table and written to
//! `BENCH_e11_server.json` at the repository root.

use std::thread;
use std::time::Instant;

use ode_core::Value;
use ode_db::{Database, SharedDatabase};
use ode_server::spec::stockroom_spec;
use ode_server::{Client, Server};

const TXNS_PER_CLIENT: usize = 400;

/// Run `clients` workers, each committing `TXNS_PER_CLIENT` withdraw
/// transactions against its assigned room. Returns (events/sec,
/// txns/sec, seconds).
fn run(
    server: &Server,
    addr: std::net::SocketAddr,
    rooms: &[u64],
    clients: usize,
) -> (f64, f64, f64) {
    let before = server.db().with_shard(0, |db| db.stats());
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|w| {
            let room = rooms[w % rooms.len()];
            thread::spawn(move || {
                let mut c = Client::connect_tcp(addr).expect("connect");
                for _ in 0..TXNS_PER_CLIENT {
                    c.txn(&format!("w{w}"), |c| {
                        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(1)])
                    })
                    .expect("withdraw commits");
                }
            })
        })
        .collect();
    for h in workers {
        h.join().expect("worker");
    }
    let secs = t0.elapsed().as_secs_f64();
    let after = server.db().with_shard(0, |db| db.stats());
    let events = (after.events_posted - before.events_posted) as f64;
    let txns = (after.txns_committed - before.txns_committed) as f64;
    (events / secs, txns / secs, secs)
}

/// Create one freshly stocked room per entry via the wire.
fn make_rooms(admin: &mut Client, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            admin
                .txn("admin", |c| {
                    c.new_object(
                        "room",
                        &[(
                            "items",
                            Value::record([
                                ("bolt", Value::Int(100_000_000)),
                                ("gear", Value::Int(100_000_000)),
                            ]),
                        )],
                    )
                })
                .expect("create room")
        })
        .collect()
}

fn main() {
    let db = SharedDatabase::new(Database::new());
    let server = Server::builder(db)
        .tcp("127.0.0.1:0")
        .start()
        .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");

    let mut admin = Client::connect_tcp(addr).expect("connect admin");
    admin.define_class(stockroom_spec()).expect("define");

    let mut json = String::from("{\n  \"experiment\": \"e11_server\",\n");
    json.push_str(&format!("  \"txns_per_client\": {TXNS_PER_CLIENT},\n"));

    eprintln!("\n== E11: wire-protocol server throughput (TCP loopback) ==");

    for (mode, disjoint) in [("shared", false), ("disjoint", true)] {
        eprintln!("\n-- {mode} room(s) --");
        json.push_str(&format!("  \"{mode}\": [\n"));
        let mut first = true;
        for &clients in &[1usize, 4, 8] {
            let rooms = make_rooms(&mut admin, if disjoint { clients } else { 1 });
            // Warm up connections, locks, and the allocator.
            run(&server, addr, &rooms, clients);
            let (eps, tps, secs) = run(&server, addr, &rooms, clients);
            eprintln!(
                "{clients:>2} client(s): {eps:>9.0} posted events/sec  {tps:>7.0} txns/sec  ({secs:.2}s)"
            );
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"clients\": {clients}, \"events_per_sec\": {eps:.0}, \"txns_per_sec\": {tps:.0}, \"secs\": {secs:.3}}}"
            ));
        }
        json.push_str("\n  ],\n");
    }

    // Trim the trailing comma from the last section.
    if json.ends_with("\n  ],\n") {
        json.truncate(json.len() - 2);
        json.push('\n');
    }
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e11_server.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
