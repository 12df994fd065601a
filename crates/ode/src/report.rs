//! Human-readable database reports: classes, trigger automata, object
//! populations, and monitoring state — the operator's view of an active
//! database.

use std::fmt::Write as _;

use crate::engine::Database;

/// Render a multi-line report of the database's schema and state.
pub fn describe(db: &Database) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== database report ==");
    let _ = writeln!(out, "virtual time: {} ms", db.now());

    // Classes and their trigger automata.
    for id in db.class_ids() {
        let class = db.class(id);
        let _ = writeln!(
            out,
            "\nclass `{}` ({} fields)",
            class.name,
            class.fields.len()
        );
        if let Some(parent) = &class.parent {
            let _ = writeln!(out, "  extends `{parent}`");
        }
        for m in class.methods.values() {
            let _ = writeln!(
                out,
                "  method {}({}) [{:?}]",
                m.name,
                m.params.join(", "),
                m.kind
            );
        }
        for t in &class.triggers {
            let stats = t.event.stats();
            let _ = writeln!(
                out,
                "  trigger {}{}: {} => {:?}",
                t.name,
                if t.perpetual { " (perpetual)" } else { "" },
                t.expr,
                t.action,
            );
            let _ = writeln!(
                out,
                "    automaton: {} states x {} symbols ({} table bytes, {:?} monitoring)",
                stats.dfa_states,
                stats.alphabet_len,
                stats.dfa_states * stats.alphabet_len * 4,
                t.monitoring,
            );
        }
    }

    // Object population.
    let mut by_class: std::collections::BTreeMap<String, (usize, usize)> = Default::default();
    for o in db.objects() {
        let class = db.class(o.class);
        let entry = by_class.entry(class.name.clone()).or_default();
        entry.0 += 1;
        entry.1 += o.monitoring_bytes();
    }
    let _ = writeln!(out, "\nobjects:");
    for (name, (count, bytes)) in &by_class {
        let _ = writeln!(out, "  {count} x `{name}`: {bytes} monitoring bytes");
    }

    let s = db.stats();
    let _ = writeln!(
        out,
        "\ntotals: {} events posted, {} automaton steps, {} firings, \
         {} commits, {} aborts",
        s.events_posted, s.symbols_stepped, s.triggers_fired, s.txns_committed, s.txns_aborted
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;

    #[test]
    fn report_covers_schema_and_population() {
        let (mut db, room) = demo::setup();
        demo::withdraw_txn(&mut db, "alice", room, "bolt", 5).unwrap();
        let r = describe(&db);
        assert!(r.contains("class `stockRoom`"), "{r}");
        for t in ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"] {
            assert!(r.contains(&format!("trigger {t}")), "missing {t}:\n{r}");
        }
        assert!(r.contains("1 x `stockRoom`"), "{r}");
        assert!(r.contains("monitoring bytes"), "{r}");
        assert!(r.contains("events posted"), "{r}");
    }

    #[test]
    fn report_shows_inheritance() {
        let mut db = Database::new();
        db.define_class(crate::class::ClassDef::builder("base").build().unwrap())
            .unwrap();
        db.define_class(
            crate::class::ClassDef::builder("child")
                .extends("base")
                .build()
                .unwrap(),
        )
        .unwrap();
        let r = describe(&db);
        assert!(r.contains("extends `base`"), "{r}");
    }
}
