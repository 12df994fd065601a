//! Error types for the active-database engine.

use std::fmt;

use ode_core::{EventError, MaskError};

use crate::ids::{ObjectId, TxnId};

/// Why a transaction was aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbortReason {
    /// The application called `abort`.
    Explicit,
    /// A trigger action executed `tabort` (e.g. trigger T1: unauthorized
    /// withdrawal).
    TriggerAbort {
        /// Name of the trigger whose action aborted.
        trigger: String,
    },
    /// The `before tcomplete` fixpoint did not converge within the
    /// configured number of rounds (Section 6: "this process goes on
    /// until no triggers fire" — a divergent trigger set is a bug in the
    /// schema).
    TCompleteDivergence,
    /// Trigger cascades exceeded the configured depth.
    CascadeOverflow,
    /// An internal error forced the abort.
    Error(String),
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Explicit => write!(f, "explicit abort"),
            AbortReason::TriggerAbort { trigger } => {
                write!(f, "trigger `{trigger}` executed tabort")
            }
            AbortReason::TCompleteDivergence => {
                write!(f, "before-tcomplete trigger fixpoint did not converge")
            }
            AbortReason::CascadeOverflow => write!(f, "trigger cascade depth exceeded"),
            AbortReason::Error(e) => write!(f, "internal error: {e}"),
        }
    }
}

/// Engine errors.
#[derive(Clone, Debug, PartialEq)]
pub enum OdeError {
    /// A class with this name is already defined.
    ClassExists(String),
    /// Unknown class name.
    UnknownClass(String),
    /// Unknown object id (never existed).
    UnknownObject(ObjectId),
    /// The object has been deleted.
    ObjectDeleted(ObjectId),
    /// The class has no such method.
    UnknownMethod {
        /// Class name.
        class: String,
        /// Requested method.
        method: String,
    },
    /// The class has no such trigger.
    UnknownTrigger {
        /// Class name.
        class: String,
        /// Requested trigger.
        trigger: String,
    },
    /// The method was called with the wrong number of arguments.
    WrongArgCount {
        /// Method name.
        method: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        got: usize,
    },
    /// Unknown transaction id (never began, or already finished).
    UnknownTxn(TxnId),
    /// The object is locked by another transaction (object-level locking,
    /// Section 6).
    LockConflict {
        /// The contended object.
        object: ObjectId,
        /// The transaction holding the lock.
        holder: TxnId,
    },
    /// A snapshot was refused because this transaction is in flight;
    /// it can succeed once the transaction ends.
    TxnInFlight(TxnId),
    /// The transaction was aborted.
    Aborted(AbortReason),
    /// An event specification failed to validate or compile.
    Event(EventError),
    /// A mask failed to evaluate while classifying a posted event.
    Mask(MaskError),
    /// A method body reported an application error.
    Method(String),
    /// A trigger-event specification can never occur (empty occurrence
    /// language) — reported at class-definition time.
    ImpossibleEvent {
        /// Trigger name.
        trigger: String,
    },
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::ClassExists(c) => write!(f, "class `{c}` already defined"),
            OdeError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            OdeError::UnknownObject(o) => write!(f, "unknown object {o:?}"),
            OdeError::ObjectDeleted(o) => write!(f, "object {o:?} has been deleted"),
            OdeError::UnknownMethod { class, method } => {
                write!(f, "class `{class}` has no method `{method}`")
            }
            OdeError::UnknownTrigger { class, trigger } => {
                write!(f, "class `{class}` has no trigger `{trigger}`")
            }
            OdeError::WrongArgCount {
                method,
                expected,
                got,
            } => write!(
                f,
                "method `{method}` takes {expected} argument(s), got {got}"
            ),
            OdeError::UnknownTxn(t) => write!(f, "unknown transaction {t:?}"),
            OdeError::LockConflict { object, holder } => {
                write!(f, "object {object:?} is locked by transaction {holder:?}")
            }
            OdeError::TxnInFlight(t) => write!(f, "cannot snapshot with {t} in flight"),
            OdeError::Aborted(r) => write!(f, "transaction aborted: {r}"),
            OdeError::Event(e) => write!(f, "event error: {e}"),
            OdeError::Mask(e) => write!(f, "mask error: {e}"),
            OdeError::Method(m) => write!(f, "method error: {m}"),
            OdeError::ImpossibleEvent { trigger } => write!(
                f,
                "trigger `{trigger}` specifies an event that can never occur"
            ),
        }
    }
}

impl std::error::Error for OdeError {}

impl From<EventError> for OdeError {
    fn from(e: EventError) -> Self {
        OdeError::Event(e)
    }
}

impl From<MaskError> for OdeError {
    fn from(e: MaskError) -> Self {
        OdeError::Mask(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OdeError::LockConflict {
            object: ObjectId(3),
            holder: TxnId(7),
        };
        assert!(e.to_string().contains("locked"));
        let e = OdeError::Aborted(AbortReason::TriggerAbort {
            trigger: "T1".into(),
        });
        assert!(e.to_string().contains("T1"));
    }
}
