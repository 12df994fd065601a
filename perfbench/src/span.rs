//! Generator-side spans for the traced run.
//!
//! A span is one timed interval at a layer boundary — a transaction,
//! one of its round trips, a delivery, a probe call into a layer —
//! with the span that caused it and the transaction id every span of
//! one request shares. Spans are kept in memory and written out when
//! the run ends; with tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// No parent: the span is a root.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Request identifier: `writer << 32 | transaction ordinal` for
    /// traffic, 0 for probe spans.
    pub txn: u64,
}

/// An append-only span buffer; one per generator thread, merged at
/// the end of the run.
#[derive(Default)]
pub struct Recorder {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// Record a finished span and return its index (for children to
    /// name as their parent). With recording off this is a no-op that
    /// returns [`ROOT`].
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        txn: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserve a span whose end is not known yet (a transaction that
    /// is about to start its round trips); close it with
    /// [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, start_ns: u64, parent: u32, txn: u64) -> u32 {
        self.push(name, start_ns, start_ns, parent, txn)
    }

    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Append another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its own
/// interval that its direct children cover (overlapping children are
/// counted once; a child reaching outside its parent is clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = spans.get(s.parent as usize) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: `(count, total ns, total self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// The most spans one trace file holds (about 25 MB of JSON lines);
/// the header line says how many were recorded.
const MAX_WRITTEN: usize = 250_000;

/// Write `header` (one JSON object) and then one JSON line per span.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for (id, s) in spans.iter().enumerate().take(MAX_WRITTEN) {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            w,
            "{{\"id\":{id},\"parent\":{parent},\"txn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.txn, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // txn 0..100 { begin 0..20, call 30..70 { delivery 40..90 }, commit 80..100 }
        let spans = vec![
            span("txn", 0, 100, ROOT),
            span("begin", 0, 20, 0),
            span("call", 30, 70, 0),
            span("delivery", 40, 90, 2),
            span("commit", 80, 100, 0),
        ];
        // txn: 100 - (20 + 40 + 20) = 20 (the gaps 20..30 and 70..80)
        // call: 40 - 30 (delivery clipped to 40..70) = 10
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two deliveries of one call overlap on 30..50.
        let spans = vec![
            span("call", 0, 100, ROOT),
            span("delivery", 10, 50, 0),
            span("delivery", 30, 80, 0),
            span("delivery", 40, 45, 0),
        ];
        // union = 10..80 = 70 -> self 30
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_off_records_nothing_and_absorb_rebases_parents() {
        let mut off = Recorder::default();
        assert_eq!(off.push("txn", 0, 1, ROOT, 1), ROOT);
        assert!(off.spans.is_empty());

        let mut a = Recorder {
            on: true,
            ..Recorder::default()
        };
        let t = a.open("txn", 0, ROOT, 1);
        a.push("begin", 0, 5, t, 1);
        a.close(t, 9);
        let mut b = Recorder {
            on: true,
            ..Recorder::default()
        };
        let t2 = b.open("txn", 10, ROOT, 2);
        b.push("begin", 10, 12, t2, 2);
        a.absorb(b);
        assert_eq!(a.spans[0].end_ns, 9);
        assert_eq!(a.spans[3].parent, 2);
        assert_eq!(a.spans[2].parent, ROOT);
        let sum = summarize(&a.spans);
        assert_eq!(sum["txn"], (2, 9, 4));
        assert_eq!(sum["begin"], (2, 7, 7));
    }
}
