//! # ode-core — composite trigger events for an active OODB
//!
//! A faithful reproduction of the event-specification model of
//! **Gehani, Jagadish & Shmueli, "Event Specification in an Active
//! Object-Oriented Database" (SIGMOD 1992)**: basic events, masks,
//! composite-event operators, the formal point-set semantics of
//! Section 4, and the Section 5 compilation into finite automata with
//! one word of monitoring state per active trigger per object.
//!
//! ## Pipeline
//!
//! ```text
//! "fa(after tbegin, …)"        — §3.3 surface syntax
//!        │ parser
//!        ▼
//! EventExpr                    — §3.3 algebra (expr)
//!        │ Alphabet::build     — §5 mask-minterm disjointness rewrite
//!        ▼
//! SymExpr over Σ               — §4 core form (lower)
//!        │ compile             — occurrence-language constructions
//!        ▼
//! minimal DFA                  — shared per trigger definition
//!        │ Detector            — one u32 per object-trigger
//!        ▼
//! post(basic event) → occurred?
//! ```
//!
//! The reference semantics ([`semantics::occurrences`]) evaluates the
//! Section 4 denotation directly and is property-tested against the DFA
//! pipeline.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use ode_core::{parse_event, CompiledEvent, Detector, BasicEvent, EmptyEnv};
//!
//! // Trigger T8 of the paper: print the log when a deposit is
//! // immediately followed by a withdrawal.
//! let expr = parse_event(
//!     "after deposit; before withdraw; after withdraw",
//! ).unwrap();
//! let compiled = Arc::new(CompiledEvent::compile(&expr).unwrap());
//!
//! let mut monitor = Detector::new(Arc::clone(&compiled));
//! monitor.activate(&EmptyEnv).unwrap();
//! assert!(!monitor.post(&BasicEvent::after_method("deposit"), &[], &EmptyEnv).unwrap());
//! assert!(!monitor.post(&BasicEvent::before_method("withdraw"), &[], &EmptyEnv).unwrap());
//! assert!(monitor.post(&BasicEvent::after_method("withdraw"), &[], &EmptyEnv).unwrap());
//! ```

#![warn(missing_docs)]

pub mod alphabet;
pub mod combined;
pub mod compile;
pub mod detector;
pub mod diagnostics;
pub mod error;
pub mod event;
pub mod expr;
pub mod lower;
pub mod mask;
pub mod parser;
pub mod router;
pub mod semantics;
pub mod simplify;
pub mod value;

pub use alphabet::Alphabet;
pub use combined::{CombinedDetector, CombinedEvent};
pub use compile::MAX_COUNT;
pub use detector::{CompileStats, CompiledEvent, Detector};
pub use diagnostics::{diagnose, Diagnosis};
pub use error::{EventError, MaskError};
pub use event::{BasicEvent, EventKind, Qualifier, TimeEvent, TimeSpec};
pub use expr::{EventExpr, LogicalEvent};
pub use lower::SymExpr;
pub use mask::{BinOp, EmptyEnv, MaskEnv, MaskExpr, UnOp};
pub use parser::{parse_event, parse_mask};
pub use router::{ClassRouter, EventCode, EventInterner, MaskMemo, Route};
pub use simplify::simplify;
pub use value::{Value, MAX_VALUE_DEPTH, VALUE_ENVELOPE_DEPTH};
