//! Runtime errors.

use std::error::Error;
use std::fmt;

/// An error raised while interpreting a program.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The program has no `main` function.
    NoMain,
    /// Dereference of a null pointer.
    NullDeref,
    /// A member access on a value that is not an object.
    NotAnObject(String),
    /// A member name that the object does not contain.
    UnknownMember(String),
    /// A call with the wrong number of arguments.
    ArityMismatch {
        /// The callee's display name.
        function: String,
        /// Declared parameter count.
        expected: usize,
        /// Call-site argument count.
        got: usize,
    },
    /// Integer division or remainder by zero.
    DivideByZero,
    /// Array or pointer index out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: i64,
        /// The container length.
        len: usize,
    },
    /// The step budget was exhausted (likely an infinite loop).
    OutOfFuel,
    /// Calls nested past the call-depth budget (likely runaway
    /// recursion); carries the budget.
    CallDepth(usize),
    /// A construct the interpreter does not model.
    Unsupported(String),
    /// A value had the wrong shape for an operation.
    TypeMismatch(String),
    /// Member lookup failed at runtime.
    Lookup(String),
    /// A call to a pure-virtual / body-less function.
    MissingBody(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoMain => write!(f, "program has no `main` function"),
            RuntimeError::NullDeref => write!(f, "null pointer dereference"),
            RuntimeError::NotAnObject(what) => write!(f, "member access on non-object: {what}"),
            RuntimeError::UnknownMember(name) => write!(f, "object has no member `{name}`"),
            RuntimeError::ArityMismatch {
                function,
                expected,
                got,
            } => write!(f, "`{function}` expects {expected} arguments, got {got}"),
            RuntimeError::DivideByZero => write!(f, "integer division by zero"),
            RuntimeError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            RuntimeError::OutOfFuel => write!(f, "execution step budget exhausted"),
            RuntimeError::CallDepth(limit) => {
                write!(f, "call depth budget exhausted ({limit} nested calls)")
            }
            RuntimeError::Unsupported(what) => write!(f, "unsupported at runtime: {what}"),
            RuntimeError::TypeMismatch(what) => write!(f, "type mismatch: {what}"),
            RuntimeError::Lookup(what) => write!(f, "member lookup failed: {what}"),
            RuntimeError::MissingBody(name) => {
                write!(f, "call to function without a body: `{name}`")
            }
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(RuntimeError::NullDeref.to_string().contains("null"));
        let e = RuntimeError::ArityMismatch {
            function: "f".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("expects 2"));
        assert!(RuntimeError::IndexOutOfBounds { index: 9, len: 4 }
            .to_string()
            .contains("9"));
    }
}
