//! The per-layer metrics of a traced run, measured from outside.
//!
//! Times are direct probes: the traced run's own seeded inputs are
//! replayed in process — a plain `Database` with a log sink, an event
//! tap and a firing sink installed, which also yields the workload's
//! `LogOp`s, committed event batches and firing notices — and each
//! layer's public entry points are timed on those inputs. A time is
//! therefore measured, and varies, on every workload, including the
//! ones whose server configuration bypasses the layer. Counts and
//! ratios come from the wire run's `Stats` and the counting `WalIo`,
//! and read 0 where the configuration bypasses the layer.

use std::error::Error;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ode_core::{
    parse_event, BasicEvent, ClassRouter, CombinedDetector, CombinedEvent, CompiledEvent, Detector,
    MaskMemo, Qualifier, Value,
};
use ode_db::{
    ArgPred, Batch, ClassDef, CmpOp, Database, DiskWal, FiringNotice, HistConfig, HistQuery,
    HistStore, LogOp, ObjectId, ShardedDatabase, SharedIo, Snapshot, TapEvent, TxnId, WalConfig,
};
use ode_server::codec::{LineEvent, LineReader};
use ode_server::spec::compile_class;
use ode_server::{Command, Firing, Reply, ReplyResult, Request, ServerMsg};

use crate::bed::{begin, Preloaded, CREATE_BATCH};
use crate::modelio::{real_fsync_us, ModelIo};
use crate::net::encode_request;
use crate::oracle::{OracleEnv, Posting};
use crate::report::{metric, Metric, WireRun, WARM_UP_WINDOWS};
use crate::span::{Recorder, ROOT};
use crate::stats::{median, percentile, window_median};
use crate::workload::{class_spec, Planner, TxnPlan, Workload, CLASS_NAME, SCAN_QTY_ABOVE};
use crate::Args;

/// Tight-loop probes repeat their input until they have run this long.
const MIN_LOOP_NS: u64 = 20_000_000;
/// Commits of the replay the WAL probe waits on (each costs a modeled
/// flush).
const WAL_WAITS: usize = 1000;
/// Triggers per footnote-5 product automaton. The full product of a
/// 32-trigger class does not fit (its eight two-mask triggers alone
/// have 564 992 product states over 257 symbols), so the class is
/// combined in declaration-order groups of this size.
const COMBINED_GROUP: usize = 4;
/// Firing notices kept for `protocol.firing_encode_ns`.
const KEPT_NOTICES: usize = 4000;
/// Transactions whose request lines feed the protocol/codec probes.
const PROTOCOL_TXNS: usize = 2000;
/// Cross-shard transactions the sharded probe commits.
const TWO_PC_TXNS: usize = 300;
/// The checkpoint probe snapshots the replay after this many
/// transactions: a class that keeps object histories outgrows the
/// WAL's 64 MiB frame limit (and `DiskWal::checkpoint` panics) a few
/// thousand transactions in.
const CHECKPOINT_AFTER_TXNS: usize = 1000;

/// Times closures against the run's clock and records one span each.
struct Probe<'a> {
    epoch: Instant,
    spans: &'a mut Recorder,
}

impl Probe<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(name, start, end, ROOT, 0);
        (out, end - start)
    }

    /// Run `pass` (which returns how many operations it did) until
    /// [`MIN_LOOP_NS`] has passed; ns per operation.
    fn per_op(&mut self, name: &'static str, mut pass: impl FnMut() -> u64) -> f64 {
        let (mut ops, mut ns) = (0u64, 0u64);
        while ns < MIN_LOOP_NS {
            let (n, t) = self.time(name, &mut pass);
            if n == 0 {
                return 0.0;
            }
            ops += n;
            ns += t;
        }
        ns as f64 / ops as f64
    }
}

fn mean_us(ns: &[u64]) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
}

fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 50.0) / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the in-process replay of the run's inputs yields.
struct Replay {
    /// The store [`CHECKPOINT_AFTER_TXNS`] transactions in.
    snapshot: Snapshot,
    ops: Vec<LogOp>,
    /// Ops of set-up and preload come first; the traffic starts here.
    run_ops_from: usize,
    batches: Vec<Batch>,
    /// Highest posting seq of set-up and preload.
    setup_max_seq: u64,
    /// Every basic event of the replay, as the engine posted it.
    postings: Vec<Posting>,
    notices: Vec<FiringNotice>,
    /// The replayed traffic, writers interleaved.
    txns: Vec<TxnPlan>,
    call_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    /// Events posted inside the timed calls.
    call_events: u64,
    history_len_max: usize,
}

/// Objects are created in transactions of the bed's size.
fn creation_batches(n: usize) -> impl Iterator<Item = usize> {
    (0..n)
        .step_by(CREATE_BATCH)
        .map(move |done| (n - done).min(CREATE_BATCH))
}

fn create_objects(db: &mut Database, n: usize) -> Result<(), Box<dyn Error>> {
    for batch in creation_batches(n) {
        let t = db.begin();
        for _ in 0..batch {
            db.create_object(t, CLASS_NAME, &[])?;
        }
        db.commit(t)?;
    }
    Ok(())
}

fn run_txn(db: &mut Database, plan: &TxnPlan) -> Result<(), Box<dyn Error>> {
    let t = db.begin_as(Value::Str("perfbench".into()));
    for c in &plan.calls {
        db.call(t, ObjectId(c.object), c.method.name(), &c.args())?;
    }
    Ok(db.commit(t)?)
}

/// The first `replay_txns` transactions of every writer, interleaved.
fn replay_plans(wl: &'static Workload, seed: u64) -> Vec<TxnPlan> {
    let mut planners: Vec<Planner> = (0..wl.writers).map(|w| Planner::new(wl, seed, w)).collect();
    (0..wl.replay_txns)
        .flat_map(|_| {
            planners
                .iter_mut()
                .map(Planner::next_txn)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn replay(
    wl: &'static Workload,
    def: &ClassDef,
    seed: u64,
    preloaded: &Preloaded,
    probe: &mut Probe<'_>,
) -> Result<Replay, Box<dyn Error>> {
    let mut db = Database::new();
    db.define_class(def.clone())?;
    let ops: Arc<Mutex<Vec<LogOp>>> = Arc::default();
    let batches: Arc<Mutex<Vec<Batch>>> = Arc::default();
    let notices: Arc<Mutex<Vec<FiringNotice>>> = Arc::default();
    let sink_ops = Arc::clone(&ops);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        sink_ops.lock().expect("probe sink").push(op.clone());
    })));
    // The commit record is the last op appended before the engine
    // delivers the committed batch, so its index is the batch's LSN —
    // the pairing the server's own tap makes.
    let (tap_ops, tap_batches) = (Arc::clone(&ops), Arc::clone(&batches));
    db.set_event_tap(Some(Arc::new(
        move |txn: TxnId, now: u64, events: &[TapEvent]| {
            let lsn = tap_ops.lock().expect("probe sink").len() as u64 - 1;
            tap_batches.lock().expect("probe tap").push(Batch {
                lsn,
                txn: txn.0,
                time: now,
                events: events.to_vec(),
            });
        },
    )));
    let sink_notices = Arc::clone(&notices);
    db.set_firing_sink(Some(Arc::new(move |n: &FiringNotice| {
        let mut kept = sink_notices.lock().expect("probe sink");
        if kept.len() < KEPT_NOTICES {
            kept.push(n.clone());
        }
    })));

    create_objects(&mut db, wl.objects())?;
    for plan in &preloaded.txns {
        run_txn(&mut db, plan)?;
    }
    let run_ops_from = ops.lock().expect("probe sink").len();
    let setup_max_seq = batches
        .lock()
        .expect("probe tap")
        .iter()
        .flat_map(|b| b.events.iter().map(|e| e.seq))
        .max()
        .unwrap_or(0);

    let txns = replay_plans(wl, seed);
    let (mut call_ns, mut commit_ns) = (Vec::new(), Vec::new());
    let mut call_events = 0;
    let mut snapshot = None;
    for (n, plan) in txns.iter().enumerate() {
        if n == CHECKPOINT_AFTER_TXNS.min(txns.len() - 1) {
            snapshot = Some(db.snapshot()?);
        }
        let t = db.begin_as(Value::Str("perfbench".into()));
        for c in &plan.calls {
            let args = c.args();
            let before = db.stats().events_posted;
            let (r, ns) = probe.time("engine.call", || {
                db.call(t, ObjectId(c.object), c.method.name(), &args)
            });
            r?;
            call_events += db.stats().events_posted - before;
            call_ns.push(ns);
        }
        let (r, ns) = probe.time("engine.commit", || db.commit(t));
        r?;
        commit_ns.push(ns);
    }
    db.set_log_sink(None);
    db.set_event_tap(None);
    db.set_firing_sink(None);
    let history_len_max = db.objects().map(|o| o.history.len()).max().unwrap_or(0);
    let batches = std::mem::take(&mut *batches.lock().expect("probe tap"));
    let postings = batches
        .iter()
        .flat_map(|b| &b.events)
        .map(|e| Posting {
            basic: e.basic.clone(),
            args: e.args.clone(),
        })
        .collect();
    let ops = std::mem::take(&mut *ops.lock().expect("probe sink"));
    let notices = std::mem::take(&mut *notices.lock().expect("probe sink"));
    Ok(Replay {
        snapshot: snapshot.expect("taken inside the loop"),
        ops,
        run_ops_from,
        batches,
        setup_max_seq,
        postings,
        notices,
        txns,
        call_ns,
        commit_ns,
        call_events,
        history_len_max,
    })
}

/// `automata.*` and `core.*`: the class's compiled triggers fed the
/// replay's posting stream.
fn detection(
    def: &ClassDef,
    texts: &[String],
    rp: &Replay,
    probe: &mut Probe<'_>,
    out: &mut Vec<Metric>,
) {
    let env = OracleEnv;

    // Each trigger's own symbol stream, classified ahead of the timing.
    let streams: Vec<Vec<ode_automata::Symbol>> = def
        .triggers
        .iter()
        .map(|t| {
            rp.postings
                .iter()
                .filter_map(|p| {
                    t.event
                        .alphabet()
                        .classify(&p.basic, &p.args, &env)
                        .expect("benchmark masks evaluate")
                })
                .collect()
        })
        .collect();
    let step_ns = probe.per_op("automata.step", || {
        let mut steps = 0;
        for (t, stream) in def.triggers.iter().zip(&streams) {
            let dfa = t.event.dfa();
            let mut state = dfa.start();
            for &sym in stream {
                state = dfa.step(state, sym);
            }
            black_box(state);
            steps += stream.len() as u64;
        }
        steps
    });
    out.push(metric("automata.step_ns", step_ns, "ns"));
    let dfa_states: usize = def
        .triggers
        .iter()
        .map(|t| t.event.dfa().num_states())
        .sum();
    out.push(metric("automata.dfa_states", dfa_states as f64, "count"));

    let parse_ns = probe.per_op("core.parse", || {
        for text in texts {
            black_box(parse_event(black_box(text)).expect("the class compiled from these"));
        }
        texts.len() as u64
    });
    out.push(metric("core.parse_us", parse_ns / 1e3, "us"));

    let compile_ms: Vec<f64> = (0..5)
        .map(|_| {
            probe
                .time("core.compile", || {
                    for t in &def.triggers {
                        black_box(CompiledEvent::compile(&t.expr).expect("triggers compile"));
                    }
                })
                .1 as f64
                / 1e6
        })
        .collect();
    out.push(metric("core.compile_ms", median(&compile_ms), "ms"));

    let router = ClassRouter::build(
        def.triggers
            .iter()
            .enumerate()
            .map(|(i, t)| (i, t.event.alphabet())),
    );
    let mut memo = MaskMemo::default();
    let route_ns = probe.per_op("core.route", || {
        let mut routed = 0;
        for p in &rp.postings {
            let Some(code) = router.code(&p.basic) else {
                continue;
            };
            memo.begin(&router);
            for route in router.routes(code) {
                black_box(
                    router
                        .symbol(route, &p.args, &env, &mut memo)
                        .expect("benchmark masks evaluate"),
                );
                routed += 1;
            }
        }
        routed
    });
    out.push(metric("core.route_ns", route_ns, "ns"));

    // Mask evaluations per posting under the router's per-posting memo:
    // the distinct (parameters, mask) pairs among the groups of the
    // triggers that mention the posted event. Worked out from the
    // public alphabets, so it counts what the memo's contract promises.
    let mut distinct_for: std::collections::HashMap<&BasicEvent, u64> = Default::default();
    let mut evals = 0u64;
    for p in &rp.postings {
        evals += *distinct_for.entry(&p.basic).or_insert_with(|| {
            let mut masks = Vec::new();
            for t in &def.triggers {
                let alphabet = t.event.alphabet();
                if let Some(slot) = alphabet.group_position(&p.basic) {
                    for m in &alphabet.groups()[slot].masks {
                        if !masks.contains(&m) {
                            masks.push(m);
                        }
                    }
                }
            }
            masks.len() as u64
        });
    }
    out.push(metric(
        "core.mask_evals_per_post",
        ratio(evals as f64, rp.postings.len() as f64),
        "count",
    ));

    // One trigger's detector: the class's last (a masked one in both
    // classes).
    let last = def.triggers.last().expect("classes have triggers");
    let mut det = Detector::new(Arc::clone(&last.event));
    det.activate(&env).expect("start has no failing mask");
    let detect_ns = probe.per_op("core.detect", || {
        for p in &rp.postings {
            black_box(
                det.post(&p.basic, &p.args, &env)
                    .expect("benchmark masks evaluate"),
            );
        }
        rp.postings.len() as u64
    });
    out.push(metric("core.detect_ns", detect_ns, "ns"));

    let exprs: Vec<_> = def.triggers.iter().map(|t| t.expr.clone()).collect();
    let (combined, _) = probe.time("core.combined_compile", || {
        exprs
            .chunks(COMBINED_GROUP)
            .map(|group| Arc::new(CombinedEvent::compile(group).expect("triggers compile")))
            .collect::<Vec<_>>()
    });
    let states: usize = combined.iter().map(|c| c.num_states()).sum();
    out.push(metric("core.combined_states", states as f64, "count"));
    let mut detectors: Vec<CombinedDetector> = combined
        .iter()
        .map(|c| {
            let mut d = CombinedDetector::new(Arc::clone(c));
            d.activate(&env).expect("start has no failing mask");
            d
        })
        .collect();
    let combined_ns = probe.per_op("core.combined_post", || {
        for p in &rp.postings {
            for d in &mut detectors {
                black_box(
                    d.post(&p.basic, &p.args, &env)
                        .expect("benchmark masks evaluate"),
                );
            }
        }
        rp.postings.len() as u64
    });
    out.push(metric("core.combined_post_ns", combined_ns, "ns"));
}

struct ShardedTimes {
    call_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    commit_2pc_ns: Vec<u64>,
    txn_ns: Vec<u64>,
}

/// The replayed traffic on a `ShardedDatabase` of `shards` engines; on
/// two shards, [`TWO_PC_TXNS`] more transactions that pair each call
/// with one on the neighbouring object (the other shard).
fn sharded(
    def: &ClassDef,
    wl: &Workload,
    shards: usize,
    txns: &[TxnPlan],
    probe: &mut Probe<'_>,
) -> Result<ShardedTimes, Box<dyn Error>> {
    let db = ShardedDatabase::new(shards);
    db.define_class(def)?;
    for batch in creation_batches(wl.objects()) {
        let t = db.begin("perfbench");
        for _ in 0..batch {
            db.create_object(t, CLASS_NAME, &[])?;
        }
        db.commit(t)?;
    }
    let mut times = ShardedTimes {
        call_ns: Vec::new(),
        commit_ns: Vec::new(),
        commit_2pc_ns: Vec::new(),
        txn_ns: Vec::new(),
    };
    let mut run =
        |plan: &TxnPlan, pair: bool, times: &mut ShardedTimes| -> Result<(), Box<dyn Error>> {
            let started = Instant::now();
            let t = db.begin("perfbench");
            let mut touched = std::collections::BTreeSet::new();
            for c in &plan.calls {
                let mut targets = vec![c.object];
                if pair {
                    // Ids alternate between the two shards.
                    targets.push(if c.object % 2 == 1 {
                        c.object + 1
                    } else {
                        c.object - 1
                    });
                }
                for object in targets {
                    touched.insert(db.shard_of(ObjectId(object)));
                    let args = c.args();
                    let (r, ns) = probe.time("sharded.call", || {
                        db.call(t, ObjectId(object), c.method.name(), &args)
                    });
                    r?;
                    times.call_ns.push(ns);
                }
            }
            let (r, ns) = probe.time("sharded.commit", || db.commit(t));
            r?;
            if touched.len() > 1 {
                times.commit_2pc_ns.push(ns);
            } else {
                times.commit_ns.push(ns);
            }
            if !pair {
                times.txn_ns.push(started.elapsed().as_nanos() as u64);
            }
            Ok(())
        };
    for plan in txns {
        run(plan, false, &mut times)?;
    }
    if shards == 2 {
        for plan in txns.iter().take(TWO_PC_TXNS) {
            run(plan, true, &mut times)?;
        }
    }
    Ok(times)
}

/// `wal.*` times: the replay's `LogOp`s on a probe `DiskWal` with the
/// flusher attached and the modeled flush.
/// Returns `wal.wait_durable_us` for the latency budget.
fn wal(
    rp: &Replay,
    dir: &Path,
    probe: &mut Probe<'_>,
    out: &mut Vec<Metric>,
) -> Result<f64, Box<dyn Error>> {
    let wal_dir = dir.join("probe-wal");
    let (io, _) = ModelIo::new();
    let (wal, _) = DiskWal::open(&wal_dir, WalConfig::default(), SharedIo::new(io))?;
    let flusher = wal.start_flusher();
    let (mut append_ns, mut wait_ns) = (Vec::new(), Vec::new());
    for (i, op) in rp.ops.iter().enumerate() {
        let (lsn, ns) = probe.time("wal.append", || wal.append(op));
        let lsn = lsn?;
        append_ns.push(ns);
        if op.ends_txn() && i >= rp.run_ops_from && wait_ns.len() < WAL_WAITS {
            let (r, ns) = probe.time("wal.wait_durable", || wal.wait_durable(lsn));
            r?;
            wait_ns.push(ns);
        }
    }
    wal.sync()?;
    drop(flusher);
    drop(wal);
    let wait_durable_us = p50_us(&mut wait_ns);
    out.push(metric("wal.append_us", mean_us(&append_ns), "us"));
    out.push(metric("wal.wait_durable_us", wait_durable_us, "us"));

    let (io, _) = ModelIo::new();
    let (reopened, ns) = probe.time("wal.recover", || {
        DiskWal::open(&wal_dir, WalConfig::default(), SharedIo::new(io))
    });
    let (wal, recovery) = reopened?;
    if recovery.ops.len() != rp.ops.len() {
        return Err(format!(
            "probe WAL recovered {} of {} records",
            recovery.ops.len(),
            rp.ops.len()
        )
        .into());
    }
    out.push(metric(
        "wal.recover_ms_per_krec",
        ratio(ns as f64 / 1e6, rp.ops.len() as f64 / 1e3),
        "ms",
    ));
    let (r, ns) = probe.time("wal.checkpoint", || wal.checkpoint(&rp.snapshot));
    r?;
    out.push(metric("wal.checkpoint_ms", ns as f64 / 1e6, "ms"));
    out.push(metric(
        "wal.real_fsync_us",
        real_fsync_us(&dir.join("probe-fsync"))?,
        "us",
    ));
    Ok(wait_durable_us)
}

/// `hist.*` times: the replay's committed batches on a probe
/// `HistStore`, then the three queries of a refresh.
fn hist(
    wl: &Workload,
    rp: &Replay,
    preloaded: &Preloaded,
    dir: &Path,
    probe: &mut Probe<'_>,
    out: &mut Vec<Metric>,
) -> Result<(), Box<dyn Error>> {
    let store = HistStore::open(&dir.join("probe-hist"), HistConfig::default(), 0)?;
    store.observe_class(0, CLASS_NAME);
    let rows: usize = rp.batches.iter().map(|b| b.events.len()).sum();
    let last_lsn = rp.batches.last().map_or(0, |b| b.lsn);
    let (_, ingest_ns) = probe.time("hist.ingest", || {
        for b in &rp.batches {
            store.submit(b.clone());
        }
        store.advance_durable_through(last_lsn);
        store.sync();
    });
    // Workloads without a preload scan everything they replayed.
    let band_end = (wl.preload_calls > 0).then_some(rp.setup_max_seq);
    let band_object = if preloaded.band_object > 0 {
        preloaded.band_object
    } else {
        rp.txns[0].calls[0].object
    };
    let queries = [
        HistQuery {
            kind: Some("audit".into()),
            qualifier: Some(Qualifier::After),
            ..HistQuery::default()
        },
        HistQuery {
            object: Some(band_object),
            min_seq: band_end.map(|end| end / 4),
            max_seq: band_end.map(|end| end / 2),
            ..HistQuery::default()
        },
        HistQuery {
            kind: Some("withdraw".into()),
            qualifier: Some(Qualifier::After),
            args: vec![ArgPred {
                index: 1,
                op: CmpOp::Gt,
                value: Value::Int(SCAN_QTY_ABOVE),
            }],
            max_seq: band_end,
            ..HistQuery::default()
        },
    ];
    let names = ["hist.query_pruned", "hist.query_band", "hist.query_scan"];
    let metrics = [
        "hist.query_pruned_us",
        "hist.query_band_us",
        "hist.query_scan_us",
    ];
    let (mut skipped, mut scanned) = (0usize, 0usize);
    for ((q, name), metric_name) in queries.iter().zip(names).zip(metrics) {
        // Up to 20 samples, but no more than a quarter second's worth
        // of a slow query (never fewer than 3).
        let mut ns: Vec<u64> = Vec::new();
        while ns.len() < 20 && (ns.len() < 3 || ns.iter().sum::<u64>() < 250_000_000) {
            let (r, t) = probe.time(name, || store.query(q));
            let r = r?;
            if ns.is_empty() {
                skipped += r.segments_skipped;
                scanned += r.segments_scanned;
            }
            black_box(r.rows.len());
            ns.push(t);
        }
        out.push(metric(metric_name, p50_us(&mut ns), "us"));
    }
    out.push(metric(
        "hist.segments_skipped_pct",
        100.0 * ratio(skipped as f64, (skipped + scanned) as f64),
        "%",
    ));
    store.barrier_seal(last_lsn + 1)?;
    let stats = store.stats();
    out.push(metric(
        "hist.disk_bytes_per_event",
        ratio(stats.disk_bytes as f64, stats.rows as f64),
        "bytes",
    ));
    out.push(metric(
        "hist.ingest_us_per_krow",
        ratio(ingest_ns as f64 / 1e3, rows as f64 / 1e3),
        "us",
    ));
    Ok(())
}

/// `protocol.*` and `codec.*`: the workload's own request lines, the
/// replies that answer them and the firings they cause.
fn protocol(rp: &Replay, probe: &mut Probe<'_>, out: &mut Vec<Metric>) {
    let mut requests = Vec::new();
    let mut replies = Vec::new();
    let mut id = 0u64;
    for plan in rp.txns.iter().take(PROTOCOL_TXNS) {
        let mut push = |cmd: Command, reply: Reply| {
            id += 1;
            requests.push(encode_request(id, cmd));
            replies.push(ServerMsg::Reply {
                id,
                result: ReplyResult::Ok(reply),
            });
        };
        push(begin(), Reply::Begun { txn: 1 });
        for c in &plan.calls {
            push(c.command(), Reply::Value(Value::Null));
        }
        push(Command::Commit, Reply::Unit);
    }
    let parse_ns = probe.per_op("protocol.request_parse", || {
        for line in &requests {
            black_box(
                serde_json::from_str::<Request>(line.trim_end()).expect("own request lines parse"),
            );
        }
        requests.len() as u64
    });
    out.push(metric("protocol.request_parse_ns", parse_ns, "ns"));
    let encode_ns = probe.per_op("protocol.reply_encode", || {
        for msg in &replies {
            black_box(serde_json::to_string(msg).expect("replies serialize"));
        }
        replies.len() as u64
    });
    out.push(metric("protocol.reply_encode_ns", encode_ns, "ns"));
    let firing_ns = probe.per_op("protocol.firing_encode", || {
        for n in &rp.notices {
            let msg = ServerMsg::Firing(Firing::from_notice(n, 0, 1));
            black_box(serde_json::to_string(&msg).expect("firings serialize"));
        }
        rp.notices.len() as u64
    });
    out.push(metric("protocol.firing_encode_ns", firing_ns, "ns"));

    let stream: Vec<u8> = requests.concat().into_bytes();
    let line_ns = probe.per_op("codec.line_read", || {
        let mut reader = LineReader::new(256 * 1024);
        let mut source = Cursor::new(&stream);
        let mut lines = 0;
        while let Ok(LineEvent::Line(l)) = reader.read_event(&mut source) {
            black_box(l);
            lines += 1;
        }
        lines
    });
    out.push(metric("codec.line_read_ns", line_ns, "ns"));
}

pub fn per_layer(
    wl: &'static Workload,
    args: &Args,
    run: &mut WireRun,
    preloaded: &Preloaded,
    dir: &Path,
) -> Result<Vec<Metric>, Box<dyn Error>> {
    let def = compile_class(&class_spec(wl.class))?;
    let mut spans = std::mem::take(&mut run.spans);
    let mut probe = Probe {
        epoch: run.epoch,
        spans: &mut spans,
    };
    let mut out = Vec::new();

    let spec = class_spec(wl.class);
    let texts: Vec<String> = spec.triggers.iter().map(|t| t.event.clone()).collect();
    let rp = replay(wl, &def, args.seed, preloaded, &mut probe)?;
    detection(&def, &texts, &rp, &mut probe, &mut out);

    let engine_call_us = mean_us(&rp.call_ns);
    let d = |after: u64, before: u64| (after - before) as f64;
    let (s0, s1) = (&run.stats_before, &run.stats_after);
    let d_events = d(s1.events_posted, s0.events_posted);
    let d_txns = d(s1.txns_committed, s0.txns_committed);
    out.push(metric("engine.call_us", engine_call_us, "us"));
    out.push(metric(
        "engine.post_ns",
        ratio(rp.call_ns.iter().sum::<u64>() as f64, rp.call_events as f64),
        "ns",
    ));
    out.push(metric("engine.commit_us", mean_us(&rp.commit_ns), "us"));
    out.push(metric(
        "engine.events_per_txn",
        ratio(d_events, d_txns),
        "count",
    ));
    out.push(metric(
        "engine.steps_per_event",
        ratio(d(s1.symbols_stepped, s0.symbols_stepped), d_events),
        "count",
    ));
    out.push(metric(
        "engine.history_len_max",
        rp.history_len_max as f64,
        "count",
    ));

    let mut two = sharded(&def, wl, 2, &rp.txns, &mut probe)?;
    let sharded_commit_us = mean_us(&two.commit_ns);
    out.push(metric("sharded.call_us", mean_us(&two.call_ns), "us"));
    out.push(metric("sharded.commit_us", sharded_commit_us, "us"));
    out.push(metric(
        "sharded.commit_2pc_us",
        mean_us(&two.commit_2pc_ns),
        "us",
    ));
    let lock_wait_us = d(
        s1.shard_lock_wait_us.iter().sum(),
        s0.shard_lock_wait_us.iter().sum(),
    );
    out.push(metric(
        "sharded.lock_wait_pct",
        100.0 * ratio(lock_wait_us, run.seconds as f64 * 1e6 * wl.writers as f64),
        "%",
    ));

    let wait_durable_us = wal(&rp, dir, &mut probe, &mut out)?;
    let txns = run.txns as f64;
    out.push(metric(
        "wal.fsyncs_per_txn",
        ratio(run.io.flushes as f64, txns),
        "count",
    ));
    out.push(metric(
        "wal.commits_per_batch",
        ratio(d_txns, d(s1.group_commit_batches, s0.group_commit_batches)),
        "count",
    ));
    out.push(metric(
        "wal.writes_per_txn",
        ratio(run.io.writes as f64, txns),
        "count",
    ));
    out.push(metric(
        "wal.bytes_per_txn",
        ratio(run.io.bytes as f64, txns),
        "bytes",
    ));

    hist(wl, &rp, preloaded, dir, &mut probe, &mut out)?;
    out.push(metric(
        "hist.index_lag_lsn",
        median(&run.index_lag),
        "count",
    ));

    protocol(&rp, &mut probe, &mut out);
    out.push(metric(
        "protocol.bytes_per_txn",
        ratio(run.bytes as f64, txns),
        "bytes",
    ));

    out.push(metric("reactor.ping_rtt_us", run.ping_rtt_us, "us"));
    out.push(metric(
        "reactor.deliveries_per_s",
        ratio(run.deliveries as f64, run.seconds as f64),
        "1/s",
    ));
    out.push(metric(
        "reactor.delivery_us_per_sub",
        median(&run.delivery_us_per_sub),
        "us",
    ));
    out.push(metric(
        "reactor.subscriber_drops",
        d(s1.subscriber_drops, s0.subscriber_drops),
        "count",
    ));

    // The same requests on an in-process coordinator with the server's
    // shard count: what is left of the wire latency is the wire.
    let txn_p50_us = run.txn_p50_us();
    let inproc_txn_us = if wl.shards == 2 {
        p50_us(&mut two.txn_ns)
    } else {
        p50_us(&mut sharded(&def, wl, wl.shards, &rp.txns, &mut probe)?.txn_ns)
    };
    out.push(metric(
        "server.wire_overhead_us",
        txn_p50_us - inproc_txn_us,
        "us",
    ));
    let k = wl.calls_per_txn as f64;
    let explained = (2.0 + k) * run.ping_rtt_us
        + k * engine_call_us
        + sharded_commit_us
        + if wl.wal { wait_durable_us } else { 0.0 };
    out.push(metric(
        "server.unexplained_pct",
        100.0 * ratio(txn_p50_us - explained, txn_p50_us),
        "%",
    ));

    out.push(metric("proc.cpu_ms_per_txn", ratio(run.cpu_ms, txns), "ms"));
    // Spans go on a third of the way in; compare the windows on either
    // side (the warm-up window belongs to neither).
    let third = (run.seconds / 3) as usize;
    let off = window_median(&run.windows[..third], WARM_UP_WINDOWS as usize);
    let on = median(&run.windows[third..]);
    out.push(metric(
        "trace.overhead_pct",
        100.0 * ratio(off - on, off),
        "%",
    ));
    out.push(metric("proc.rss_peak_mb", run.rss_peak_mb, "MB"));

    run.spans = spans;
    Ok(out)
}
