//! Runtime values.

use std::fmt;
use std::rc::Rc;

/// Handle to an object in the [`crate::heap::Heap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Index into the heap's object table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A JavaScript value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// `undefined`.
    #[default]
    Undefined,
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Number (IEEE 754 double, like JavaScript's Number).
    Num(f64),
    /// Immutable string.
    Str(Rc<str>),
    /// Reference to a heap object (plain object, array, function, ...).
    Obj(ObjId),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// JavaScript truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Obj(_) => true,
        }
    }

    /// Whether the value is `undefined` or `null`.
    pub fn is_nullish(&self) -> bool {
        matches!(self, Value::Undefined | Value::Null)
    }

    /// The object handle, if this is an object.
    pub fn as_obj(&self) -> Option<ObjId> {
        match self {
            Value::Obj(id) => Some(*id),
            _ => None,
        }
    }

    /// Identity / strict-equality comparison for primitives and object
    /// identity for objects (JavaScript `===` except that `NaN !== NaN` is
    /// honored).
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) | (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            _ => false,
        }
    }

    /// The `typeof` tag, modulo functions (the heap distinguishes callables;
    /// the interpreter overrides this for function objects).
    pub fn type_of_non_callable(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Obj(_) => "object",
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Rc::from(s.as_str()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => write!(f, "undefined"),
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{}", b),
            Value::Num(n) => write!(f, "{}", aji_ast::number::to_string(*n)),
            Value::Str(s) => write!(f, "{}", s),
            Value::Obj(id) => write!(f, "[object #{}]", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Num(0.0).is_truthy());
        assert!(!Value::Num(f64::NAN).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::Num(1.0).is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(Value::Obj(ObjId(0)).is_truthy());
    }

    #[test]
    fn strict_equality() {
        assert!(Value::Num(1.0).strict_eq(&Value::Num(1.0)));
        assert!(!Value::Num(f64::NAN).strict_eq(&Value::Num(f64::NAN)));
        assert!(Value::str("a").strict_eq(&Value::str("a")));
        assert!(!Value::Num(1.0).strict_eq(&Value::str("1")));
        assert!(Value::Obj(ObjId(3)).strict_eq(&Value::Obj(ObjId(3))));
        assert!(!Value::Obj(ObjId(3)).strict_eq(&Value::Obj(ObjId(4))));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Num(3.0).to_string(), "3");
        assert_eq!(Value::Num(3.5).to_string(), "3.5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::Undefined.to_string(), "undefined");
    }
}
