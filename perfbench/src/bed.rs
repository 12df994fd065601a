//! Set-up: a real `ode_server::Server` in this process, its class and
//! objects defined over the wire, every connection the run needs, and
//! (for `hist_mixed`) the preloaded history.
//!
//! One call to [`Bed::set_up`] is what `setup_s` times.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ode_core::Value;
use ode_db::{Database, SharedDatabase, SharedIo};
use ode_server::{Command, Reply, Server, WireStats};

use crate::modelio::{IoCounters, ModelIo};
use crate::net::Line;
use crate::workload::{
    class_spec, Method, Planner, TxnPlan, Workload, CLASS_NAME, INITIAL_STOCK, ITEMS,
    SCAN_QTY_ABOVE,
};

/// How the wire renders the system round's event.
pub const TCOMMIT: &str = "after tcommit";

/// Objects created per set-up transaction.
pub const CREATE_BATCH: usize = 64;

/// The generator's model of every object's `items` field, indexed by
/// object id − 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    pub items: Vec<[i64; ITEMS.len()]>,
}

impl Model {
    pub fn new(objects: usize) -> Model {
        Model {
            items: vec![[INITIAL_STOCK; ITEMS.len()]; objects],
        }
    }

    pub fn apply(&mut self, txn: &TxnPlan) {
        for c in &txn.calls {
            let slot = &mut self.items[(c.object - 1) as usize][c.item];
            match c.method {
                Method::Withdraw => *slot -= c.qty,
                Method::Deposit => *slot += c.qty,
                Method::Audit => {}
            }
        }
    }

    pub fn record(&self, object: u64) -> Value {
        let row = &self.items[(object - 1) as usize];
        Value::record(ITEMS.iter().zip(row).map(|(k, v)| (*k, Value::Int(*v))))
    }
}

/// What the preload left behind, for the history queries and their
/// expected row counts.
#[derive(Clone, Debug, Default)]
pub struct Preloaded {
    /// Every preloaded transaction, in order (the oracle replays them).
    pub txns: Vec<TxnPlan>,
    /// Highest posting seq of set-up and preload.
    pub max_seq: u64,
    /// The object + seq-band query: this object, between a quarter and
    /// a half of `max_seq`, so zone metadata prunes most segments.
    pub band_object: u64,
    pub band: (u64, u64),
    /// Rows the band query must return: `after tcommit` rows, and all
    /// others.
    pub band_tcommits: u64,
    pub band_rows: u64,
    /// Rows the `q > t` scan over the band must return.
    pub scan_rows: u64,
    /// `audit` calls committed by the preload.
    pub audits: u64,
}

pub struct Bed {
    pub wl: &'static Workload,
    pub server: Server,
    /// This bed's directory under the run directory (WAL, history).
    pub dir: PathBuf,
    pub io_counters: Option<Arc<IoCounters>>,
    pub admin: Line,
    pub writers: Vec<Line>,
    /// Subscriber sockets of generator thread 0 and 1.
    pub subs: [Vec<Line>; 2],
    pub reader: Option<Line>,
    pub model: Model,
    pub preloaded: Preloaded,
}

fn bad(what: &str, got: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("{what}: unexpected reply {got:?}"))
}

pub fn begin() -> Command {
    Command::Begin {
        user: Value::Str("perfbench".into()),
    }
}

/// Run one planned transaction, one round trip per request. (Set-up
/// is a closed loop like the traffic: the server leaves Nagle's
/// algorithm on, so a pipelined burst of requests stalls on the
/// delayed ACK of its first reply — see the README's observations.)
fn run_txn(line: &mut Line, txn: &TxnPlan) -> io::Result<()> {
    line.call(begin())?;
    for c in &txn.calls {
        line.call(c.command())?;
    }
    line.call(Command::Commit).map(|_| ())
}

pub fn stats(line: &mut Line) -> io::Result<WireStats> {
    match line.call(Command::Stats)? {
        Reply::Stats(s) => Ok(*s),
        other => Err(bad("Stats", other)),
    }
}

fn query_cmd(
    object: Option<u64>,
    kind: Option<&str>,
    qty_above: Option<i64>,
    min_seq: Option<u64>,
    max_seq: Option<u64>,
) -> Command {
    Command::Query {
        class: None,
        object,
        kind: kind.map(str::to_string),
        qualifier: kind.map(|_| "after".to_string()),
        args: qty_above
            .map(|t| (1, "gt".to_string(), Value::Int(t)))
            .into_iter()
            .collect(),
        min_seq,
        max_seq,
        min_time: None,
        max_time: None,
        limit: None,
    }
}

/// The three queries of one `hist_mixed` refresh: the rare kind
/// (zone-pruned, unbounded, so it sees fresh rows), one object over the
/// preloaded seq band, and the `q > t` predicate over the band.
pub fn refresh_queries(p: &Preloaded) -> [Command; 3] {
    [
        query_cmd(None, Some("audit"), None, None, None),
        query_cmd(
            Some(p.band_object),
            None,
            None,
            Some(p.band.0),
            Some(p.band.1),
        ),
        query_cmd(
            None,
            Some("withdraw"),
            Some(SCAN_QTY_ABOVE),
            None,
            Some(p.max_seq),
        ),
    ]
}

impl Bed {
    /// Start a server for `wl` under `dir` and bring it to the state
    /// the measurement starts from.
    pub fn set_up(wl: &'static Workload, seed: u64, dir: &Path) -> io::Result<Bed> {
        std::fs::create_dir_all(dir)?;
        let mut builder = Server::builder(SharedDatabase::new(Database::new()))
            .tcp("127.0.0.1:0")
            .shards(wl.shards);
        let mut io_counters = None;
        if wl.wal {
            let (io, counters) = ModelIo::new();
            io_counters = Some(counters);
            builder = builder
                .wal_dir(dir.join("wal"))
                .wal_io(SharedIo::new(io))
                .history(wl.history);
        }
        let server = builder.start()?;
        let addr = server.tcp_addr().expect("tcp was requested");

        let mut admin = Line::connect(addr)?;
        admin.call(Command::DefineClass(class_spec(wl.class)))?;

        // Objects come from one connection, in one sequence, so that ids
        // are the creation ordinals (placement is round-robin over the
        // shards) and the planned requests can name them in advance.
        let mut next_id = 1u64;
        let total = wl.objects() as u64;
        while next_id <= total {
            admin.call(begin())?;
            for _ in 0..CREATE_BATCH.min((total - next_id + 1) as usize) {
                let new = Command::New {
                    class: CLASS_NAME.into(),
                    overrides: Vec::new(),
                };
                match admin.call(new)? {
                    Reply::Object { id } if id == next_id => next_id += 1,
                    other => return Err(bad("New", other)),
                }
            }
            admin.call(Command::Commit)?;
        }

        let mut model = Model::new(wl.objects());
        let mut preloaded = Preloaded::default();
        if wl.preload_calls > 0 {
            let mut planner = Planner::preload(wl, seed);
            let mut calls = 0;
            while calls < wl.preload_calls {
                let txn = planner.next_txn();
                run_txn(&mut admin, &txn)?;
                model.apply(&txn);
                calls += txn.calls.len();
                preloaded.txns.push(txn);
            }
            let all = preloaded.txns.iter().flat_map(|t| &t.calls);
            preloaded.audits = all.clone().filter(|c| c.method == Method::Audit).count() as u64;
            preloaded.scan_rows = all
                .clone()
                .filter(|c| c.method == Method::Withdraw && c.qty > SCAN_QTY_ABOVE)
                .count() as u64;
            // Seqs and the band's row count come from the posting model,
            // not from the server: the refresh checks the server's
            // answers against them.
            let object = preloaded.txns[0].calls[0].object;
            let mut rows_of_object = Vec::new();
            crate::oracle::walk_postings(wl.objects() as u64, &preloaded.txns, |seq, o, p| {
                preloaded.max_seq = seq;
                if o == object {
                    rows_of_object.push((seq, p.basic.to_string() == TCOMMIT));
                }
            });
            preloaded.band_object = object;
            preloaded.band = (preloaded.max_seq / 4, preloaded.max_seq / 2);
            let (lo, hi) = preloaded.band;
            let in_band = rows_of_object
                .iter()
                .filter(|(seq, _)| (lo..=hi).contains(seq));
            preloaded.band_tcommits =
                in_band.clone().filter(|(_, tcommit)| *tcommit).count() as u64;
            preloaded.band_rows = in_band.count() as u64 - preloaded.band_tcommits;
        }

        let connect_subs = |n: usize| -> io::Result<Vec<Line>> {
            (0..n)
                .map(|_| {
                    let mut s = Line::connect(addr)?;
                    s.call(Command::Subscribe)?;
                    Ok(s)
                })
                .collect()
        };
        let subs = [connect_subs(wl.subs[0])?, connect_subs(wl.subs[1])?];
        let writers = (0..wl.writers)
            .map(|_| Line::connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        let reader = match wl.read {
            crate::workload::ReadKind::HistRefresh => Some(Line::connect(addr)?),
            crate::workload::ReadKind::Peek => None,
        };

        Ok(Bed {
            wl,
            server,
            dir: dir.to_path_buf(),
            io_counters,
            admin,
            writers,
            subs,
            reader,
            model,
            preloaded,
        })
    }

    /// Stop the server (joining its threads) and delete the bed's files.
    pub fn tear_down(mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
