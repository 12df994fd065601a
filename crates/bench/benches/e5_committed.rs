//! E5 — the Section 6 Claim: committed-history monitoring via the
//! pair-construction automaton `A'`.
//!
//! Charts (a) the state blowup of `A'` against the `|Q|²` bound the
//! proof implies, and (b) online detection throughput of `A'` (one step
//! per event, no rollback machinery) versus the filter-and-replay
//! implementation (recompute the committed view and rerun `A` at every
//! point), across abort ratios.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ode_automata::committed::{committed_filter, committed_view, TxnSymbols};
use ode_bench::{txn_symbol_history, TxnHistorySpec};
use ode_core::{parse_event, CompiledEvent};

fn setup(src: &str) -> (CompiledEvent, TxnSymbols, Vec<u32>) {
    // Pad the expression so the txn markers are in the alphabet.
    let padded = format!("({src}) & !(empty & (after tbegin | after tcommit | after tabort))");
    let compiled = CompiledEvent::compile(&parse_event(&padded).unwrap()).unwrap();
    let alphabet = compiled.alphabet();
    let sym = |s: &str| {
        let e = parse_event(s).unwrap();
        match e {
            ode_core::EventExpr::Logical(le) => alphabet.symbols_for_logical(&le).unwrap()[0],
            _ => unreachable!(),
        }
    };
    let syms = TxnSymbols {
        tbegin: sym("after tbegin"),
        tcommit: sym("after tcommit"),
        tabort: sym("after tabort"),
    };
    let ops = vec![sym("after poke")];
    (compiled, syms, ops)
}

fn bench_committed(c: &mut Criterion) {
    eprintln!("\n== E5: committed-history pair construction ==");
    eprintln!("{:<34} {:>6} {:>6} {:>8}", "event", "|Q|", "|Q'|", "|Q|^2");
    let sources = [
        "relative(after poke, after poke)",
        "choose 3 (after poke)",
        "after poke; after poke",
        "every 4 (after poke)",
    ];
    for src in sources {
        let (compiled, syms, _) = setup(src);
        let a = compiled.dfa();
        let ap = committed_view(a, syms);
        eprintln!(
            "{:<34} {:>6} {:>6} {:>8}",
            src,
            a.num_states(),
            ap.num_states(),
            a.num_states() * a.num_states()
        );
        assert!(ap.num_states() <= a.num_states() * a.num_states());
    }

    let mut group = c.benchmark_group("e5_online_detection");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(600));

    let (compiled, syms, ops) = setup("relative(after poke, after poke)");
    let a = compiled.dfa().clone();
    let ap = committed_view(&a, syms);

    for &abort_pct in &[0u32, 10, 50] {
        let h = txn_symbol_history(
            &TxnHistorySpec {
                txns: 200,
                max_ops: 5,
                abort_ratio: abort_pct as f64 / 100.0,
                tbegin: syms.tbegin,
                tcommit: syms.tcommit,
                tabort: syms.tabort,
                op_symbols: &ops,
            },
            9,
        );
        group.throughput(Throughput::Elements(h.len() as u64));

        // A': one constant-time step per event.
        group.bench_with_input(BenchmarkId::new("pair_automaton", abort_pct), &h, |b, h| {
            b.iter(|| {
                let mut st = ap.start();
                let mut hits = 0u32;
                for &sym in h {
                    st = ap.step(st, sym);
                    hits += u32::from(ap.is_accepting(st));
                }
                std::hint::black_box(hits)
            })
        });

        // Filter-and-replay: at every point, recompute the committed view
        // and rerun A — what an implementation without the claim's
        // construction (or without state rollback) must do online.
        group.bench_with_input(
            BenchmarkId::new("filter_and_replay", abort_pct),
            &h,
            |b, h| {
                b.iter(|| {
                    let mut hits = 0u32;
                    for cut in 1..=h.len() {
                        let filtered = committed_filter(&h[..cut], syms);
                        hits += u32::from(a.run(filtered.iter().copied()));
                    }
                    std::hint::black_box(hits)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_committed);
criterion_main!(benches);
