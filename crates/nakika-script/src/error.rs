//! Script engine errors.

use std::fmt;

/// Errors raised while lexing, parsing, or executing NkScript code.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// A lexical error (unterminated string, bad character) at a line number.
    Lex {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A syntax error at a line number.
    Parse {
        /// 1-based source line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A runtime type error (e.g. calling a non-function).
    Type(String),
    /// A reference to an undeclared variable.
    Reference(String),
    /// A user-thrown error (`throw` statement) carrying the stringified value.
    Thrown(String),
    /// The script exhausted its CPU fuel budget.
    FuelExhausted,
    /// The script exceeded the sandbox's hard memory cap.
    MemoryExceeded {
        /// The cap, in bytes.
        limit: usize,
    },
    /// The pipeline owning this context was terminated by the resource
    /// manager (congestion control kill).
    Terminated,
    /// A vocabulary (native host function) reported an error.
    Host(String),
    /// Recursion exceeded the interpreter's stack depth limit.
    StackOverflow,
}

impl ScriptError {
    /// True if this error was caused by resource-control intervention rather
    /// than a bug in the script.
    pub fn is_resource_kill(&self) -> bool {
        matches!(
            self,
            ScriptError::FuelExhausted
                | ScriptError::MemoryExceeded { .. }
                | ScriptError::Terminated
        )
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Lex { line, message } => write!(f, "lex error (line {line}): {message}"),
            ScriptError::Parse { line, message } => {
                write!(f, "syntax error (line {line}): {message}")
            }
            ScriptError::Type(m) => write!(f, "type error: {m}"),
            ScriptError::Reference(m) => write!(f, "reference error: {m} is not defined"),
            ScriptError::Thrown(m) => write!(f, "uncaught exception: {m}"),
            ScriptError::FuelExhausted => write!(f, "script exceeded its CPU budget"),
            ScriptError::MemoryExceeded { limit } => {
                write!(f, "script exceeded the {limit}-byte memory cap")
            }
            ScriptError::Terminated => write!(f, "script terminated by resource manager"),
            ScriptError::Host(m) => write!(f, "vocabulary error: {m}"),
            ScriptError::StackOverflow => write!(f, "recursion too deep"),
        }
    }
}

impl std::error::Error for ScriptError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_culprit() {
        assert!(ScriptError::Reference("foo".into())
            .to_string()
            .contains("foo"));
    }

    #[test]
    fn resource_kill_classification() {
        assert!(ScriptError::Terminated.is_resource_kill());
        assert!(ScriptError::MemoryExceeded { limit: 1 }.is_resource_kill());
        assert!(!ScriptError::Type("t".into()).is_resource_kill());
    }
}
