//! Interpreter errors and non-local control flow.

use crate::value::Value;
use std::fmt;

/// Why an evaluation stopped abnormally.
#[derive(Debug, Clone)]
pub enum JsError {
    /// A JavaScript exception was thrown and not yet caught.
    Thrown(Value),
    /// The execution budget (steps, stack depth or loop iterations) was
    /// exhausted. Not catchable by `try`/`catch`: the approximate
    /// interpreter uses this to abort long-running explorations (§3 of the
    /// paper).
    Budget(BudgetKind),
    /// An internal interpreter error (unsupported construct, bad state).
    Internal(String),
}

/// Which budget was exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Total evaluation steps.
    Steps,
    /// Call-stack depth.
    Stack,
    /// Iterations of a single loop.
    Loop,
    /// Length of a string being built.
    StringLength,
}

impl JsError {
    /// Convenience constructor for throwing a plain string as an error
    /// value (the interpreter usually throws proper `Error` objects; this
    /// is for internal fast paths).
    pub fn thrown_str(msg: impl AsRef<str>) -> JsError {
        JsError::Thrown(Value::str(msg))
    }

    /// Whether the error is catchable by `try`/`catch`.
    pub fn is_catchable(&self) -> bool {
        matches!(self, JsError::Thrown(_))
    }
}

impl fmt::Display for JsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsError::Thrown(v) => write!(f, "uncaught exception: {}", v),
            JsError::Budget(k) => write!(f, "execution budget exhausted ({:?})", k),
            JsError::Internal(m) => write!(f, "internal interpreter error: {}", m),
        }
    }
}

impl std::error::Error for JsError {}

/// Result of executing a statement: how control continues.
#[derive(Debug, Clone)]
pub enum Flow {
    /// Fall through to the next statement.
    Normal,
    /// `return v` unwinding to the nearest call.
    Return(Value),
    /// `break [label]` unwinding to the matching loop/switch.
    Break(Option<Box<str>>),
    /// `continue [label]` unwinding to the matching loop.
    Continue(Option<Box<str>>),
}

impl Flow {
    /// Whether this is [`Flow::Normal`].
    pub fn is_normal(&self) -> bool {
        matches!(self, Flow::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catchability() {
        assert!(JsError::thrown_str("boom").is_catchable());
        assert!(!JsError::Budget(BudgetKind::Steps).is_catchable());
        assert!(!JsError::Internal("x".into()).is_catchable());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            JsError::thrown_str("boom").to_string(),
            "uncaught exception: boom"
        );
        assert!(JsError::Budget(BudgetKind::Loop)
            .to_string()
            .contains("Loop"));
    }
}
