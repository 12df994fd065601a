//! One run from set-up to the result line: set up the bed, drive the
//! two lanes, verify, and reduce the samples to the metrics
//! `BENCHMARK.json` names.

use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

use ode_server::{Command, Firing, WireStats};

use crate::bed::{self, Bed, Model};
use crate::driver::{lanes, CallSent, Lane, Shared};
use crate::layers;
use crate::modelio::{IoCounts, MODELED_FLUSH};
use crate::oracle;
use crate::span::{self, Recorder, ROOT};
use crate::stats::{lower_half_mean, median, percentile, quartile_spread, window_median, Samples};
use crate::workload::{self, CallPlan, Workload};
use crate::Args;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Windows dropped as warm-up.
pub const WARM_UP_WINDOWS: u32 = 1;
/// `Ping` round trips for `reactor.ping_rtt_us`.
const PINGS: usize = 2000;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the wire run produced, reduced to samples and counters.
pub struct WireRun {
    pub seconds: u64,
    /// Committed transactions per one-second window of the measurement.
    pub windows: Vec<f64>,
    pub txns: u64,
    pub reads: u64,
    pub withdraws: u64,
    pub subscribers: u64,
    pub txn_lat: Samples,
    pub fire_lat: Samples,
    pub read_lat: Samples,
    /// Per probe firing: (last subscriber arrival − call written) ÷
    /// subscribers, µs.
    pub delivery_us_per_sub: Vec<f64>,
    pub deliveries: u64,
    pub missing_deliveries: u64,
    pub failed_requests: u64,
    /// Bytes written and read on the generator's traffic sockets.
    pub bytes: u64,
    pub stats_before: WireStats,
    pub stats_after: WireStats,
    pub io: IoCounts,
    pub cpu_ms: f64,
    /// Peak resident set when the wire run ended (before the probes).
    pub rss_peak_mb: f64,
    /// `durable_lsn − Σ hist_indexed_lsns`, sampled each second.
    pub index_lag: Vec<f64>,
    /// The clock every span of this run is stamped against.
    pub epoch: Instant,
    pub ping_rtt_us: f64,
    pub wrong: Vec<String>,
    pub spans: Recorder,
}

impl WireRun {
    fn measured(&self) -> (u32, u32) {
        (WARM_UP_WINDOWS, self.seconds as u32)
    }

    pub fn txn_per_s(&self) -> f64 {
        window_median(&self.windows, WARM_UP_WINDOWS as usize)
    }

    /// Median in µs of the samples in the measured windows.
    fn p50_us(&self, s: &Samples) -> f64 {
        let (from, to) = self.measured();
        percentile(&s.sorted(from, to), 50.0) / 1e3
    }

    /// The 99th percentile in µs, as the mean of the lower half of the
    /// per-window p99s: host gaps of 0.1–1 ms land on about one
    /// transaction in a hundred, at a rate that changes from second to
    /// second, so the pooled p99 and the p99 of a disturbed window read
    /// the host, not the program.
    fn p99_us(&self, s: &Samples) -> f64 {
        let (from, to) = self.measured();
        lower_half_mean(&s.window_percentiles(from, to, 99.0)) / 1e3
    }

    pub fn txn_p50_us(&self) -> f64 {
        self.p50_us(&self.txn_lat)
    }

    pub fn attempted(&self) -> u64 {
        self.txns + self.reads + self.withdraws * self.subscribers
    }

    pub fn failed(&self) -> u64 {
        self.failed_requests + self.missing_deliveries
    }
}

/// `utime + stime` of this process in ms, from `/proc/self/stat`
/// (clock ticks; Linux reports them at USER_HZ = 100).
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after ") ".
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    (field(11) + field(12)) * 10.0
}

/// `VmHWM` of this process in MB, from `/proc/self/status`.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn machine_line(args: &Args, host: &str) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "workload={} seed={} seconds={} trace={} {host} generator_threads=2 fsync=modeled:{}us \
         rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        MODELED_FLUSH.as_micros(),
        rustc
    )
}

/// Run the lanes on two threads while this thread samples `Stats`
/// once a second (traced runs only).
fn drive(
    lanes: &mut [Lane; 2],
    models: &mut [Model; 2],
    shared: &Shared,
    admin: &mut crate::net::Line,
    sample_lag: bool,
) -> Result<Vec<f64>, Box<dyn Error>> {
    let mut lag = Vec::new();
    std::thread::scope(|scope| -> Result<(), Box<dyn Error>> {
        let [lane0, lane1] = lanes;
        let [model0, model1] = models;
        let handles = [
            scope.spawn(|| lane0.run(shared, model0)),
            scope.spawn(|| lane1.run(shared, model1)),
        ];
        let mut next = Duration::from_secs(1);
        while sample_lag && !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(10));
            if shared.epoch.elapsed() >= next && shared.now_ns() < shared.deadline_ns {
                next += Duration::from_secs(1);
                let s = bed::stats(admin)?;
                if s.hist_enabled {
                    let indexed: u64 = s.hist_indexed_lsns.iter().sum();
                    lag.push(s.durable_lsn.unwrap_or(0).saturating_sub(indexed) as f64);
                }
            }
        }
        for h in handles {
            h.join().map_err(|_| "a generator thread panicked")??;
        }
        Ok(())
    })?;
    Ok(lag)
}

/// What [`merge_writers`] hands on: the merged field model and, per
/// writer, what it remembers of its calls and its log of calls on
/// sampled objects.
struct Merged {
    model: Model,
    call_sent: Vec<Vec<CallSent>>,
    sampled_logs: Vec<Vec<(u64, CallPlan)>>,
}

/// Fold the writers and the reader into `run`: windows, latencies,
/// spans, and the field model (each writer updated only its own objects'
/// rows in its lane's copy).
fn merge_writers(
    run: &mut WireRun,
    lanes: &mut [Lane; 2],
    models: [Model; 2],
    wl: &Workload,
) -> Merged {
    let [model, lane1_model] = models;
    let mut model = model;
    let mut writers = Vec::new();
    for (k, lane) in lanes.iter_mut().enumerate() {
        if let Some(r) = lane.reader.take() {
            run.reads += r.refreshes;
            run.read_lat.extend(&r.refresh_lat);
            run.failed_requests += r.failed;
            run.bytes += r.bytes();
            run.wrong.extend(r.wrong);
            run.spans.absorb(r.spans);
        }
        for w in lane.writers.drain(..) {
            if k == 1 {
                let lo = w.id * wl.objects_per_writer;
                model.items[lo..lo + wl.objects_per_writer]
                    .copy_from_slice(&lane1_model.items[lo..lo + wl.objects_per_writer]);
            }
            writers.push(w);
        }
    }
    writers.sort_by_key(|w| w.id);
    let mut call_sent = Vec::new();
    let mut sampled_logs = Vec::new();
    for w in writers {
        for (i, &n) in w.commits.iter().enumerate().take(run.windows.len()) {
            run.windows[i] += n as f64;
        }
        run.txns += w.commits.iter().sum::<u64>();
        run.reads += w.reads;
        run.withdraws += w.withdraws;
        run.failed_requests += w.failed;
        run.bytes += w.bytes();
        run.txn_lat.extend(&w.txn_lat);
        run.read_lat.extend(&w.read_lat);
        run.wrong.extend(w.wrong);
        // Re-base the call spans before absorbing so deliveries can
        // name them.
        let base = run.spans.spans.len() as u32;
        call_sent.push(
            w.calls
                .iter()
                .map(|c| CallSent {
                    span: if c.span == ROOT { ROOT } else { c.span + base },
                    ..*c
                })
                .collect::<Vec<_>>(),
        );
        sampled_logs.push(w.sampled_log);
        run.spans.absorb(w.spans);
    }

    Merged {
        model,
        call_sent,
        sampled_logs,
    }
}

/// Match every probe firing to the call that caused it, compare the
/// subscribers' streams with each other and with the server's count
/// `fired`, and return the firings kept for the detection oracle.
fn match_deliveries(
    run: &mut WireRun,
    lanes: &mut [Lane; 2],
    call_sent: &[Vec<CallSent>],
    fired: u64,
) -> Vec<Firing> {
    let mut observed = Vec::new();
    let mut first_sub: Option<(u64, u64)> = None;
    let mut last_arrival: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for lane in lanes {
        for sub in lane.subs.drain(..) {
            run.bytes += sub.bytes();
            run.deliveries += sub.deliveries.len() as u64;
            run.missing_deliveries += run.withdraws.saturating_sub(sub.deliveries.len() as u64);
            for d in &sub.deliveries {
                let (writer, ordinal) = ((d.tag >> 32) as usize, (d.tag & 0xffff_ffff) as usize);
                let Some(call) = call_sent
                    .get(writer)
                    .and_then(|c| c.get(ordinal.wrapping_sub(1)))
                else {
                    run.wrong
                        .push(format!("firing with an unknown tag {:#x}", d.tag));
                    continue;
                };
                let lat = d.at_ns.saturating_sub(call.sent_ns);
                run.fire_lat.push((d.at_ns / 1_000_000_000) as u32, lat);
                let slot = last_arrival.entry(d.tag).or_insert(0);
                *slot = (*slot).max(lat);
                if call.span != ROOT {
                    run.spans.push(
                        "delivery",
                        call.sent_ns,
                        d.at_ns,
                        call.span,
                        (writer as u64) << 32 | call.txn_no,
                    );
                }
            }
            if sub.deliveries.len() as u64 > run.withdraws {
                run.wrong.push(format!(
                    "a subscriber received {} probe firings for {} withdraw calls",
                    sub.deliveries.len(),
                    run.withdraws
                ));
            }
            // Exactly once, the same stream for everyone.
            match first_sub {
                None => first_sub = Some((sub.firings, sub.seq_hash)),
                Some(first) if first != (sub.firings, sub.seq_hash) => run
                    .wrong
                    .push("two subscribers received different firing streams".into()),
                Some(_) => {}
            }
            run.wrong.extend(sub.wrong);
            observed.extend(sub.sampled_firings);
        }
    }
    run.delivery_us_per_sub = last_arrival
        .values()
        .map(|&ns| ns as f64 / 1e3 / run.subscribers.max(1) as f64)
        .collect();
    if run.missing_deliveries == 0 && first_sub.is_some_and(|(n, _)| n != fired) {
        run.wrong.push(format!(
            "subscribers received {} firings, the server counted {fired}",
            first_sub.map_or(0, |f| f.0)
        ));
    }
    observed
}

/// Drive the bed for `args.seconds`, verify, and shut the server down.
fn measure(bed: Bed, args: &Args) -> Result<WireRun, Box<dyn Error>> {
    let wl = bed.wl;
    let Bed {
        mut server,
        dir,
        io_counters,
        mut admin,
        writers,
        subs,
        reader,
        model,
        preloaded,
        ..
    } = bed;
    let sampled = oracle::sampled_objects(wl, args.seed);
    let mut lanes = lanes(wl, args.seed, writers, subs, reader, &preloaded, &sampled)?;
    let mut models = [model.clone(), model];

    let stats_before = bed::stats(&mut admin)?;
    let io_now = || {
        io_counters
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or_default()
    };
    let io_before = io_now();
    let cpu_before = cpu_ms();
    let shared = Shared::new(args.seconds, args.trace, wl.writers);
    let index_lag = drive(&mut lanes, &mut models, &shared, &mut admin, args.trace)?;
    let cpu_ms = cpu_ms() - cpu_before;
    let stats_after = bed::stats(&mut admin)?;
    let fired = stats_after.triggers_fired - stats_before.triggers_fired;
    for lane in &mut lanes {
        let late = lane.drain_firings(fired, &shared)?;
        if late > 0 {
            eprintln!("perfbench: {late} firings arrived after the last probe delivery");
        }
    }
    let io_after = io_now();

    let mut run = WireRun {
        seconds: args.seconds,
        windows: vec![0.0; args.seconds as usize],
        txns: 0,
        reads: 0,
        withdraws: 0,
        subscribers: wl.subscribers() as u64,
        txn_lat: Samples::default(),
        fire_lat: Samples::default(),
        read_lat: Samples::default(),
        delivery_us_per_sub: Vec::new(),
        deliveries: 0,
        missing_deliveries: 0,
        failed_requests: 0,
        bytes: 0,
        stats_before,
        stats_after,
        io: IoCounts {
            writes: io_after.writes - io_before.writes,
            bytes: io_after.bytes - io_before.bytes,
            flushes: io_after.flushes - io_before.flushes,
            other: io_after.other - io_before.other,
        },
        cpu_ms,
        rss_peak_mb: rss_peak_mb(),
        index_lag,
        epoch: shared.epoch,
        ping_rtt_us: 0.0,
        wrong: Vec::new(),
        spans: Recorder {
            on: args.trace,
            ..Recorder::default()
        },
    };

    let Merged {
        model,
        call_sent,
        sampled_logs,
    } = merge_writers(&mut run, &mut lanes, models, wl);
    let observed = match_deliveries(&mut run, &mut lanes, &call_sent, fired);

    if args.trace {
        let mut rtts = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let start = run.epoch.elapsed().as_nanos() as u64;
            admin.call(Command::Ping)?;
            let end = run.epoch.elapsed().as_nanos() as u64;
            run.spans.push("ping", start, end, ROOT, 0);
            rtts.push((end - start) as f64 / 1e3);
        }
        run.ping_rtt_us = median(&rtts);
    }

    // The oracle: fields, firings, recovery.
    let t = Instant::now();
    run.wrong.extend(oracle::sweep_fields(&mut admin, &model)?);
    let swept = t.elapsed();
    run.wrong.extend(oracle::check_firings(
        wl,
        &sampled,
        &preloaded.txns,
        &sampled_logs,
        &observed,
    ));
    let replayed = t.elapsed();
    server.shutdown();
    if wl.wal {
        run.wrong
            .extend(oracle::check_recovery(wl, &dir.join("wal"), &model));
    }
    eprintln!(
        "perfbench: verified in {:.2?}: field sweep {swept:.2?}, {} sampled firings against the \
         naive replay {:.2?}, shutdown and recovery {:.2?}",
        t.elapsed(),
        observed.len(),
        replayed - swept,
        t.elapsed() - replayed
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(run)
}

fn end_to_end(run: &WireRun, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("txn_per_s", run.txn_per_s(), "1/s"),
        metric("txn_p50_us", run.txn_p50_us(), "us"),
        metric("txn_p99_us", run.p99_us(&run.txn_lat), "us"),
        metric("fire_p50_us", run.p50_us(&run.fire_lat), "us"),
        metric("fire_p99_us", run.p99_us(&run.fire_lat), "us"),
        metric("read_p50_us", run.p50_us(&run.read_lat), "us"),
        metric("setup_s", setup_s, "s"),
    ]
}

fn result_line(run: &WireRun, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value would not be JSON; it reads 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.wrong.is_empty() && run.failed() == 0,
        run.attempted().max(1),
        run.failed(),
        body.join(", ")
    )
}

pub fn run(args: &Args, host: &str, dir: &Path) -> Result<String, Box<dyn Error>> {
    let wl: &'static Workload = workload::find(&args.workload)?;
    let machine = machine_line(args, host);
    eprintln!("perfbench: {machine}");
    eprintln!("perfbench: {}: {}", wl.name, wl.why);

    // Set up: several times for the end-to-end run (the median is
    // `setup_s`), once for the traced run (which does not report it).
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut bed = None;
    for k in 0..setups {
        if let Some(old) = bed.take() {
            Bed::tear_down(old);
        }
        let t = Instant::now();
        bed = Some(Bed::set_up(wl, args.seed, &dir.join(format!("bed{k}")))?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_times);
    eprintln!("perfbench: set-ups took {setup_times:.3?} s");
    let bed = bed.expect("at least one set-up");
    let preloaded = bed.preloaded.clone();

    let mut run = measure(bed, args)?;
    let (from, to) = run.measured();
    eprintln!(
        "perfbench: {} txns ({} in the measured windows), {} reads, {} probe deliveries to {} \
         subscribers ({} firings of any trigger); window spread of txn_per_s {:.3}",
        run.txns,
        run.txn_lat.sorted(from, to).len(),
        run.reads,
        run.deliveries,
        run.subscribers,
        run.stats_after.triggers_fired - run.stats_before.triggers_fired,
        quartile_spread(&run.windows[from as usize..])
    );
    eprintln!("perfbench: transactions per window {:?}", run.windows);
    for (name, s) in [
        ("txn", &run.txn_lat),
        ("fire", &run.fire_lat),
        ("read", &run.read_lat),
    ] {
        let windows: Vec<Vec<u64>> = (0..to).map(|w| s.sorted(w, w + 1)).collect();
        for p in [50.0, 99.0] {
            let v: Vec<f64> = windows
                .iter()
                .map(|w| (percentile(w, p) / 1e3).round())
                .collect();
            eprintln!("perfbench: {name} p{p} per window, us {v:?}");
        }
    }
    for w in run.wrong.iter().take(16) {
        eprintln!("perfbench: WRONG: {w}");
    }

    let metrics = if args.trace {
        let metrics = layers::per_layer(wl, args, &mut run, &preloaded, dir)?;
        let summary = span::summarize(&run.spans.spans);
        for (name, (count, total, own)) in &summary {
            eprintln!(
                "perfbench: span {name:>14}: {count:>8} spans, {:>12.1} us total, {:>12.1} us self",
                *total as f64 / 1e3,
                *own as f64 / 1e3
            );
        }
        let path = crate::run_root().join(format!("trace-{}-{}.jsonl", wl.name, args.seed));
        let header = format!(
            "{{\"machine\": {:?}, \"spans_recorded\": {}}}",
            machine,
            run.spans.spans.len()
        );
        span::write_jsonl(&path, &header, &run.spans.spans)?;
        eprintln!("perfbench: trace written to {}", path.display());
        metrics
    } else {
        end_to_end(&run, setup_s)
    };
    Ok(result_line(&run, &metrics))
}
