//! Dynamically-typed runtime values.

use std::fmt;
use std::rc::Rc;

use crate::bytecode::FuncId;

/// Index of an array object in the runtime's array table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrId(pub u32);

/// Index of a plain object in the runtime's object table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub u32);

/// A minijs runtime value.
///
/// All numbers are IEEE-754 doubles, as in JavaScript. Arrays and objects
/// are references into the [`crate::runtime::Runtime`] stores; copying a
/// `Value` copies the reference, not the storage.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// A double-precision number.
    Number(f64),
    /// A boolean.
    Bool(bool),
    /// An immutable string.
    Str(Rc<str>),
    /// The `undefined` value.
    #[default]
    Undefined,
    /// The `null` value.
    Null,
    /// Reference to an array.
    Array(ArrId),
    /// Reference to a plain object.
    Object(ObjId),
    /// Reference to a function.
    Function(FuncId),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl Into<Rc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// JavaScript truthiness.
    #[inline]
    pub fn truthy(&self) -> bool {
        match self {
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Bool(b) => *b,
            Value::Str(s) => !s.is_empty(),
            Value::Undefined | Value::Null => false,
            Value::Array(_) | Value::Object(_) | Value::Function(_) => true,
        }
    }

    /// Numeric coercion (`+x` in JS). Non-numeric references become NaN.
    #[inline]
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Bool(true) => 1.0,
            Value::Bool(false) => 0.0,
            Value::Str(s) => s.trim().parse().unwrap_or(f64::NAN),
            Value::Null => 0.0,
            Value::Undefined | Value::Array(_) | Value::Object(_) | Value::Function(_) => f64::NAN,
        }
    }

    /// 32-bit signed integer coercion (`x | 0`).
    #[inline]
    pub fn to_i32(&self) -> i32 {
        let n = self.to_number();
        if !n.is_finite() {
            return 0;
        }
        n as i64 as i32
    }

    /// 32-bit unsigned integer coercion (`x >>> 0`).
    #[inline]
    pub fn to_u32(&self) -> u32 {
        self.to_i32() as u32
    }

    /// Loose equality (`==`), with the cross-type cases minijs supports.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Undefined | Value::Null, Value::Undefined | Value::Null) => true,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            (Value::Function(a), Value::Function(b)) => a == b,
            (Value::Number(_), Value::Str(_)) => self.to_number() == other.to_number(),
            (Value::Str(_), Value::Number(_)) => self.to_number() == other.to_number(),
            (Value::Bool(_), Value::Number(_)) | (Value::Number(_), Value::Bool(_)) => {
                self.to_number() == other.to_number()
            }
            _ => false,
        }
    }

    /// Strict equality (`===`).
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Undefined, Value::Undefined) => true,
            (Value::Null, Value::Null) => true,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => a == b,
            (Value::Function(a), Value::Function(b)) => a == b,
            _ => false,
        }
    }

    /// The `typeof` string for this value.
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Str(_) => "string",
            Value::Undefined => "undefined",
            Value::Null | Value::Array(_) | Value::Object(_) => "object",
            Value::Function(_) => "function",
        }
    }

    /// A short type tag used in diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::Bool(_) => "bool",
            Value::Str(_) => "string",
            Value::Undefined => "undefined",
            Value::Null => "null",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
            Value::Function(_) => "function",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(n) => write!(f, "{}", format_number(*n)),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Undefined => write!(f, "undefined"),
            Value::Null => write!(f, "null"),
            Value::Array(id) => write!(f, "[array #{}]", id.0),
            Value::Object(id) => write!(f, "[object #{}]", id.0),
            Value::Function(id) => write!(f, "[function #{}]", id.0),
        }
    }
}

/// Formats a number the way JavaScript's `String(n)` does for the common
/// cases (integers without a trailing `.0`).
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_owned()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_owned()
    } else if n == 0.0 {
        "0".to_owned()
    } else if n.fract() == 0.0 && n.abs() < 1e21 {
        format!("{}", n as i128)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_js() {
        assert!(!Value::Number(0.0).truthy());
        assert!(!Value::Number(f64::NAN).truthy());
        assert!(Value::Number(-1.0).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::Array(ArrId(0)).truthy());
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::str(" 42 ").to_number(), 42.0);
        assert!(Value::Undefined.to_number().is_nan());
        assert_eq!(Value::Number(-1.5).to_i32(), -1);
        assert_eq!(Value::Number(-1.0).to_u32(), u32::MAX);
        assert_eq!(Value::Number(f64::INFINITY).to_i32(), 0);
    }

    #[test]
    fn equality_semantics() {
        assert!(Value::Undefined.loose_eq(&Value::Null));
        assert!(!Value::Undefined.strict_eq(&Value::Null));
        assert!(Value::Number(1.0).loose_eq(&Value::str("1")));
        assert!(!Value::Number(1.0).strict_eq(&Value::str("1")));
        assert!(Value::Array(ArrId(3)).strict_eq(&Value::Array(ArrId(3))));
        assert!(!Value::Array(ArrId(3)).strict_eq(&Value::Array(ArrId(4))));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(45.0), "45");
        assert_eq!(format_number(-0.5), "-0.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
        assert_eq!(format_number(0.0), "0");
    }

    #[test]
    fn typeof_strings() {
        assert_eq!(Value::Number(1.0).type_of(), "number");
        assert_eq!(Value::Null.type_of(), "object");
        assert_eq!(Value::Function(FuncId(0)).type_of(), "function");
    }
}
