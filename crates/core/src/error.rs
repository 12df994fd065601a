//! Error types for event specification, compilation, and detection.

use std::fmt;

/// Errors raised while validating or compiling an event specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventError {
    /// An illegal qualifier/kind pairing, e.g. `before tcommit`.
    InvalidQualifier {
        /// Rendered event text.
        event: String,
        /// Why the pairing is illegal.
        reason: &'static str,
    },
    /// An operator received a count it cannot accept: 0 (`choose 0 (…)`)
    /// or one above [`crate::compile::MAX_COUNT`].
    InvalidCount {
        /// Operator name.
        operator: &'static str,
        /// The offending count.
        count: u32,
    },
    /// An n-ary operator received an empty argument list.
    EmptyOperands {
        /// Operator name.
        operator: &'static str,
    },
    /// The `+` modifier applied to `prior` or `sequence` — the paper
    /// proves `prior+(E) ≡ E` and `sequence+(E) ≡ E`, so the forms are
    /// not provided (Section 3.4).
    RedundantPlus {
        /// Operator name.
        operator: &'static str,
    },
    /// Too many distinct masks on one basic event: the disjointness
    /// rewrite (Section 5) needs `2^k` minterms.
    TooManyMasks {
        /// Rendered basic event.
        event: String,
        /// Number of distinct masks found.
        masks: usize,
        /// Maximum supported.
        max: usize,
    },
    /// The combined alphabet (minterms × composite-mask bits) exceeds the
    /// configured limit.
    AlphabetTooLarge {
        /// Computed alphabet size.
        size: usize,
        /// Maximum supported.
        max: usize,
    },
    /// A masked logical event lowered against an alphabet that was not
    /// built with its mask, so no symbol set denotes it.
    MaskNotInAlphabet {
        /// Rendered logical event.
        event: String,
    },
    /// A mask failed to evaluate (type error, unknown name, …).
    Mask(MaskError),
    /// A parse error with position information.
    Parse {
        /// Byte offset in the source text.
        offset: usize,
        /// Description.
        message: String,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::InvalidQualifier { event, reason } => {
                write!(f, "event `{event}` is not allowed: {reason}")
            }
            EventError::InvalidCount { operator, count } => {
                write!(
                    f,
                    "`{operator} {count} (…)` requires a count from 1 to {}",
                    crate::compile::MAX_COUNT
                )
            }
            EventError::EmptyOperands { operator } => {
                write!(f, "`{operator}` requires at least one operand")
            }
            EventError::RedundantPlus { operator } => write!(
                f,
                "`{operator}+` is not provided: `{operator}+(E)` is equivalent to `E` \
                 (paper, Section 3.4)"
            ),
            EventError::TooManyMasks { event, masks, max } => write!(
                f,
                "basic event `{event}` carries {masks} distinct masks; the disjointness \
                 rewrite needs 2^{masks} minterms which exceeds the supported maximum of \
                 2^{max}"
            ),
            EventError::AlphabetTooLarge { size, max } => write!(
                f,
                "compiled alphabet would have {size} symbols (maximum {max}); simplify \
                 masks or split the trigger"
            ),
            EventError::MaskNotInAlphabet { event } => write!(
                f,
                "logical event `{event}` carries a mask its alphabet was not built with; \
                 build the alphabet from an expression that contains it"
            ),
            EventError::Mask(e) => write!(f, "mask error: {e}"),
            EventError::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for EventError {}

impl From<MaskError> for EventError {
    fn from(e: MaskError) -> Self {
        EventError::Mask(e)
    }
}

/// Errors raised while evaluating a mask predicate at run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaskError {
    /// Reference to an unbound parameter name.
    UnknownParam(String),
    /// Reference to an unknown object field.
    UnknownField(String),
    /// Call to an unregistered function.
    UnknownFunction(String),
    /// An operator was applied to incompatible types.
    TypeMismatch {
        /// The operation attempted.
        op: String,
        /// Rendered operand types.
        types: String,
    },
    /// The mask did not evaluate to a boolean.
    NotBoolean {
        /// The non-boolean type produced.
        got: &'static str,
    },
    /// Member access on a non-record value.
    NotARecord {
        /// The member requested.
        member: String,
        /// The actual type.
        got: &'static str,
    },
    /// Division by zero.
    DivisionByZero,
    /// Float arithmetic produced an infinity or NaN. JSON has no
    /// spelling for either, so no log record or checkpoint could hold
    /// the result.
    NonFiniteFloat {
        /// The operation attempted.
        op: &'static str,
    },
    /// A value to be stored nests records deeper than
    /// [`crate::MAX_VALUE_DEPTH`]: no checkpoint could re-read it.
    TooDeep {
        /// The nesting limit.
        max: usize,
    },
    /// A [`crate::Value`] with no literal form in the mask grammar
    /// (`null`, records) was offered as a literal.
    UnsupportedLiteral {
        /// The type of the rejected value.
        got: &'static str,
    },
}

impl fmt::Display for MaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaskError::UnknownParam(n) => write!(f, "unknown event parameter `{n}`"),
            MaskError::UnknownField(n) => write!(f, "unknown object field `{n}`"),
            MaskError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            MaskError::TypeMismatch { op, types } => {
                write!(f, "cannot apply `{op}` to {types}")
            }
            MaskError::NotBoolean { got } => {
                write!(f, "mask must evaluate to a boolean, got {got}")
            }
            MaskError::NotARecord { member, got } => {
                write!(f, "cannot access member `{member}` of a {got}")
            }
            MaskError::DivisionByZero => write!(f, "division by zero"),
            MaskError::NonFiniteFloat { op } => {
                write!(f, "`{op}` produced a float that is not finite")
            }
            MaskError::TooDeep { max } => {
                write!(f, "value nests records more than {max} deep")
            }
            MaskError::UnsupportedLiteral { got } => {
                write!(f, "a {got} value has no literal form in the mask grammar")
            }
        }
    }
}

impl std::error::Error for MaskError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_paper_rules() {
        let e = EventError::RedundantPlus { operator: "prior" };
        assert!(e.to_string().contains("equivalent to `E`"));
        let e = EventError::InvalidCount {
            operator: "choose",
            count: 0,
        };
        assert!(e.to_string().contains("choose 0"));
    }

    #[test]
    fn mask_error_converts() {
        let e: EventError = MaskError::DivisionByZero.into();
        assert!(e.to_string().contains("division by zero"));
    }
}
