//! Identifier newtypes.
//!
//! "Each persistent object is identified by a unique identifier, called
//! the object identity" (Section 2, citing Khoshafian & Copeland).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A persistent object's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// A class identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClassId(pub u32);

/// A transaction identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The pseudo-transaction used by the system to post
    /// `after tcommit` / `after tabort` / time events (Sections 5–6).
    pub const SYSTEM: TxnId = TxnId(0);
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == TxnId::SYSTEM {
            write!(f, "txn#system")
        } else {
            write!(f, "txn#{}", self.0)
        }
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}
