//! JavaScript value conversions and operator semantics that do not need
//! heap access. The number grammar itself is `aji_ast::number`.

use crate::value::Value;
use aji_ast::number::{str_to_number, to_string};

/// `ToNumber` for primitive values; objects must be converted to a
/// primitive by the caller first (the interpreter does that with
/// `toString`/`valueOf` lookups).
pub fn prim_to_number(v: &Value) -> f64 {
    match v {
        Value::Undefined => f64::NAN,
        Value::Null => 0.0,
        Value::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        Value::Num(n) => *n,
        Value::Str(s) => str_to_number(s),
        Value::Obj(_) => f64::NAN,
    }
}

/// `ToString` for primitive values.
pub fn prim_to_string(v: &Value) -> String {
    match v {
        Value::Undefined => "undefined".to_string(),
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(n) => to_string(*n),
        Value::Str(s) => s.to_string(),
        Value::Obj(_) => "[object Object]".to_string(),
    }
}

/// Loose equality (`==`) over primitives. Object-vs-primitive cases must
/// be reduced by the caller (via `ToPrimitive`) before calling this.
pub fn prim_loose_eq(a: &Value, b: &Value) -> bool {
    use Value::*;
    match (a, b) {
        (Undefined | Null, Undefined | Null) => true,
        (Num(x), Num(y)) => x == y,
        (Str(x), Str(y)) => x == y,
        (Bool(x), Bool(y)) => x == y,
        (Num(x), Str(y)) => *x == str_to_number(y),
        (Str(x), Num(y)) => str_to_number(x) == *y,
        (Bool(_), _) => prim_loose_eq(&Num(prim_to_number(a)), b),
        (_, Bool(_)) => prim_loose_eq(a, &Num(prim_to_number(b))),
        (Obj(x), Obj(y)) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_number_conversions() {
        assert!(prim_to_number(&Value::Undefined).is_nan());
        assert_eq!(prim_to_number(&Value::Null), 0.0);
        assert_eq!(prim_to_number(&Value::Bool(true)), 1.0);
        assert_eq!(prim_to_number(&Value::str("8")), 8.0);
    }

    #[test]
    fn loose_equality() {
        assert!(prim_loose_eq(&Value::Null, &Value::Undefined));
        assert!(prim_loose_eq(&Value::Num(1.0), &Value::str("1")));
        assert!(prim_loose_eq(&Value::Bool(true), &Value::Num(1.0)));
        assert!(prim_loose_eq(&Value::Bool(false), &Value::str("0")));
        assert!(!prim_loose_eq(&Value::Num(1.0), &Value::Num(2.0)));
        assert!(!prim_loose_eq(&Value::Null, &Value::Num(0.0)));
    }
}
