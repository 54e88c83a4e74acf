//! Runtime values for NkScript.
//!
//! Objects, arrays and byte arrays are reference types shared through
//! `Arc<RwLock<..>>` so that host code (vocabularies) running on other threads
//! of a Na Kika node — for example the resource monitor — can observe them,
//! and so that the same `Value` type can cross thread boundaries when the
//! proxy processes connections concurrently.

use crate::error::ScriptError;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ast::FunctionLiteral;
use crate::context::Scope;

/// A native (Rust) function exposed to scripts through a vocabulary.
///
/// Receives the `this` value and the call arguments.  Host functions are the
/// *only* way a script can affect the outside world (paper §3.2).
pub type NativeFn =
    Arc<dyn Fn(&Value, &[Value]) -> Result<Value, ScriptError> + Send + Sync + 'static>;

/// Shared, mutable object storage.
pub type ObjectRef = Arc<RwLock<ObjectData>>;

/// Shared, mutable array storage.
pub(crate) type ArrayRef = Arc<RwLock<Vec<Value>>>;

/// Shared, mutable byte-array storage (the paper's SpiderMonkey extension).
pub(crate) type BytesRef = Arc<RwLock<Vec<u8>>>;

/// Property map of a script object.
#[derive(Default)]
pub struct ObjectData {
    /// Named properties in sorted order (deterministic iteration).
    pub properties: BTreeMap<String, Value>,
    /// Class tag for objects created by `new Name()` — lets vocabularies such
    /// as `Policy` recognise their own instances.
    pub(crate) class: Option<String>,
}

impl ObjectData {
    /// Creates an empty object with the given class tag.
    pub(crate) fn with_class(class: &str) -> ObjectData {
        ObjectData {
            properties: BTreeMap::new(),
            class: Some(class.to_string()),
        }
    }
}

/// A user-defined script function together with its captured environment.
pub struct Closure {
    /// The function's parameters and body.
    pub literal: Arc<FunctionLiteral>,
    /// The lexical scope captured at creation time.
    pub(crate) scope: Scope,
}

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// IEEE-754 double, like JavaScript numbers.
    Number(f64),
    /// Immutable UTF-8 string.
    Str(Arc<str>),
    /// Mutable byte array.
    Bytes(BytesRef),
    /// Array of values.
    Array(ArrayRef),
    /// Object with named properties.
    Object(ObjectRef),
    /// User-defined function (closure).
    Function(Arc<Closure>),
    /// Native host function (vocabulary entry point).
    Native(NativeFn),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn string(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for a fresh empty object.
    pub fn new_object() -> Value {
        Value::Object(Arc::new(RwLock::new(ObjectData::default())))
    }

    /// Convenience constructor for a fresh array.
    pub fn new_array(items: Vec<Value>) -> Value {
        Value::Array(Arc::new(RwLock::new(items)))
    }

    /// Convenience constructor for a byte array.
    pub fn new_bytes(data: Vec<u8>) -> Value {
        Value::Bytes(Arc::new(RwLock::new(data)))
    }

    /// Wraps a Rust closure as a native function value.
    pub fn native<F>(f: F) -> Value
    where
        F: Fn(&Value, &[Value]) -> Result<Value, ScriptError> + Send + Sync + 'static,
    {
        Value::Native(Arc::new(f))
    }

    /// JavaScript-style truthiness.
    pub(crate) fn truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.read().is_empty(),
            Value::Array(_) | Value::Object(_) | Value::Function(_) | Value::Native(_) => true,
        }
    }

    /// `typeof` result.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
            Value::Bytes(_) => "bytearray",
            Value::Array(_) | Value::Object(_) => "object",
            Value::Function(_) | Value::Native(_) => "function",
        }
    }

    /// Numeric coercion (`Number(v)` semantics, simplified).
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Undefined => f64::NAN,
            Value::Null => 0.0,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Number(n) => *n,
            Value::Str(s) => {
                let t = s.trim();
                if t.is_empty() {
                    0.0
                } else {
                    t.parse().unwrap_or(f64::NAN)
                }
            }
            Value::Bytes(b) => b.read().len() as f64,
            Value::Array(a) => {
                let a = a.read();
                match a.len() {
                    0 => 0.0,
                    1 => a[0].to_number(),
                    _ => f64::NAN,
                }
            }
            Value::Object(_) | Value::Function(_) | Value::Native(_) => f64::NAN,
        }
    }

    /// String coercion (used by `+` concatenation and `String(v)`).
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Undefined => "undefined".to_string(),
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Number(n) => number_to_string(*n),
            Value::Str(s) => s.to_string(),
            Value::Bytes(b) => String::from_utf8_lossy(&b.read()).into_owned(),
            Value::Array(a) => {
                let a = a.read();
                a.iter()
                    .map(|v| v.to_display_string())
                    .collect::<Vec<_>>()
                    .join(",")
            }
            Value::Object(o) => {
                let o = o.read();
                match &o.class {
                    Some(c) => format!("[object {c}]"),
                    None => "[object Object]".to_string(),
                }
            }
            Value::Function(_) | Value::Native(_) => "[function]".to_string(),
        }
    }

    /// Strict (`===`) equality.
    pub(crate) fn strict_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Undefined, Value::Undefined) => true,
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => Arc::ptr_eq(a, b),
            (Value::Array(a), Value::Array(b)) => Arc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Arc::ptr_eq(a, b),
            (Value::Function(a), Value::Function(b)) => Arc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Loose (`==`) equality: like strict equality plus number/string/bool
    /// coercions and `null == undefined`.
    pub(crate) fn loose_equals(&self, other: &Value) -> bool {
        if self.strict_equals(other) {
            return true;
        }
        match (self, other) {
            (Value::Null, Value::Undefined) | (Value::Undefined, Value::Null) => true,
            (Value::Number(_), Value::Str(_))
            | (Value::Str(_), Value::Number(_))
            | (Value::Bool(_), _)
            | (_, Value::Bool(_)) => {
                let a = self.to_number();
                let b = other.to_number();
                !a.is_nan() && !b.is_nan() && a == b
            }
            _ => false,
        }
    }

    /// Reads a property from an object/array/string/bytes value.  Returns
    /// `Undefined` for missing properties, mirroring JavaScript.
    pub fn get_property(&self, name: &str) -> Value {
        match self {
            Value::Object(o) => o
                .read()
                .properties
                .get(name)
                .cloned()
                .unwrap_or(Value::Undefined),
            Value::Array(a) => {
                if name == "length" {
                    Value::Number(a.read().len() as f64)
                } else if let Ok(idx) = name.parse::<usize>() {
                    a.read().get(idx).cloned().unwrap_or(Value::Undefined)
                } else {
                    Value::Undefined
                }
            }
            Value::Str(s) => {
                if name == "length" {
                    Value::Number(s.chars().count() as f64)
                } else if let Ok(idx) = name.parse::<usize>() {
                    s.chars()
                        .nth(idx)
                        .map(|c| Value::string(c.to_string()))
                        .unwrap_or(Value::Undefined)
                } else {
                    Value::Undefined
                }
            }
            Value::Bytes(b) => {
                if name == "length" {
                    Value::Number(b.read().len() as f64)
                } else if let Ok(idx) = name.parse::<usize>() {
                    b.read()
                        .get(idx)
                        .map(|byte| Value::Number(*byte as f64))
                        .unwrap_or(Value::Undefined)
                } else {
                    Value::Undefined
                }
            }
            _ => Value::Undefined,
        }
    }

    /// Writes a property on an object or an indexed slot on an array /
    /// byte array.  Errors for primitives.
    pub fn set_property(&self, name: &str, value: Value) -> Result<(), ScriptError> {
        match self {
            Value::Object(o) => {
                o.write().properties.insert(name.to_string(), value);
                Ok(())
            }
            Value::Array(a) => {
                if let Ok(idx) = name.parse::<usize>() {
                    let mut arr = a.write();
                    if idx >= arr.len() {
                        arr.resize(idx + 1, Value::Undefined);
                    }
                    arr[idx] = value;
                    Ok(())
                } else if name == "length" {
                    let len = value.to_number().max(0.0) as usize;
                    a.write().resize(len, Value::Undefined);
                    Ok(())
                } else {
                    Err(ScriptError::Type(format!(
                        "cannot set property '{name}' on array"
                    )))
                }
            }
            Value::Bytes(b) => {
                if let Ok(idx) = name.parse::<usize>() {
                    let mut bytes = b.write();
                    if idx >= bytes.len() {
                        bytes.resize(idx + 1, 0);
                    }
                    bytes[idx] = value.to_number() as u8;
                    Ok(())
                } else {
                    Err(ScriptError::Type(format!(
                        "cannot set property '{name}' on byte array"
                    )))
                }
            }
            other => Err(ScriptError::Type(format!(
                "cannot set property '{name}' on {}",
                other.type_name()
            ))),
        }
    }

    /// `self[index]`: an element of an array, byte array or string when
    /// `index` is a number naming one, else the property named by the
    /// index's display string — the same answer without the string.
    pub(crate) fn get_index(&self, index: &Value) -> Value {
        if let Some(i) = index.as_element_index() {
            let element = match self {
                Value::Array(a) => a.read().get(i).cloned(),
                Value::Bytes(b) => b.read().get(i).map(|byte| Value::Number(*byte as f64)),
                Value::Str(s) => s.chars().nth(i).map(|c| Value::string(c.to_string())),
                _ => None,
            };
            if let Some(element) = element {
                return element;
            }
        }
        self.get_property(&index.to_display_string())
    }

    /// `self[index] = value`: overwrites an existing element of an array or
    /// byte array in place when `index` is a number naming one; everything
    /// else (growth, named properties, errors) is [`Value::set_property`] on
    /// the index's display string.
    pub(crate) fn set_index(&self, index: &Value, value: Value) -> Result<(), ScriptError> {
        if let Some(i) = index.as_element_index() {
            match self {
                Value::Array(a) => {
                    if let Some(slot) = a.write().get_mut(i) {
                        *slot = value;
                        return Ok(());
                    }
                }
                Value::Bytes(b) => {
                    if let Some(byte) = b.write().get_mut(i) {
                        *byte = value.to_number() as u8;
                        return Ok(());
                    }
                }
                _ => {}
            }
        }
        self.set_property(&index.to_display_string(), value)
    }

    /// The element position a number names: itself when it is a non-negative
    /// integer (`-0` is `0`, as its display string is).
    fn as_element_index(&self) -> Option<usize> {
        let Value::Number(n) = self else {
            return None;
        };
        let i = *n as usize;
        (i as f64 == *n).then_some(i)
    }

    /// Approximate heap footprint contributed by creating this value
    /// (shallow), used for the sandbox's memory accounting.
    pub(crate) fn shallow_size(&self) -> usize {
        match self {
            Value::Str(s) => s.len() + 24,
            Value::Bytes(b) => b.read().len() + 32,
            Value::Array(a) => a.read().len() * 16 + 32,
            Value::Object(o) => o.read().properties.len() * 48 + 48,
            _ => 16,
        }
    }

    /// Extracts the bytes of a `Bytes` or `Str` value; errors otherwise.
    pub fn as_bytes_vec(&self) -> Result<Vec<u8>, ScriptError> {
        match self {
            Value::Bytes(b) => Ok(b.read().clone()),
            Value::Str(s) => Ok(s.as_bytes().to_vec()),
            other => Err(ScriptError::Type(format!(
                "expected bytes, found {}",
                other.type_name()
            ))),
        }
    }

    /// Returns the object reference if this value is an object.
    pub fn as_object(&self) -> Option<ObjectRef> {
        match self {
            Value::Object(o) => Some(o.clone()),
            _ => None,
        }
    }

    /// Returns the array reference if this value is an array.
    pub(crate) fn as_array(&self) -> Option<ArrayRef> {
        match self {
            Value::Array(a) => Some(a.clone()),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.strict_equals(other)
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Function(_) => write!(f, "[function]"),
            Value::Native(_) => write!(f, "[native]"),
            other => write!(f, "{}", other.to_display_string()),
        }
    }
}

/// Formats a number the way JavaScript's `toString` does for the common
/// cases: integers without a decimal point, NaN/Infinity spelled out.
pub(crate) fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Undefined.truthy());
        assert!(!Value::Null.truthy());
        assert!(!Value::Number(0.0).truthy());
        assert!(!Value::Number(f64::NAN).truthy());
        assert!(!Value::string("").truthy());
        assert!(Value::string("x").truthy());
        assert!(Value::Number(-1.0).truthy());
        assert!(Value::new_object().truthy());
        assert!(Value::new_array(vec![]).truthy());
        assert!(!Value::new_bytes(vec![]).truthy());
        assert!(Value::new_bytes(vec![1]).truthy());
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::string("42").to_number(), 42.0);
        assert_eq!(Value::string("  3.5 ").to_number(), 3.5);
        assert!(Value::string("abc").to_number().is_nan());
        assert_eq!(Value::Null.to_number(), 0.0);
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::Number(3.0).to_display_string(), "3");
        assert_eq!(Value::Number(3.25).to_display_string(), "3.25");
        assert_eq!(Value::Undefined.to_display_string(), "undefined");
    }

    #[test]
    fn equality_semantics() {
        assert!(Value::Number(1.0).loose_equals(&Value::string("1")));
        assert!(!Value::Number(1.0).strict_equals(&Value::string("1")));
        assert!(Value::Null.loose_equals(&Value::Undefined));
        assert!(!Value::Null.strict_equals(&Value::Undefined));
        assert!(Value::Bool(true).loose_equals(&Value::Number(1.0)));
        let a = Value::new_object();
        let b = a.clone();
        assert!(a.strict_equals(&b));
        assert!(!Value::new_object().strict_equals(&Value::new_object()));
    }

    #[test]
    fn property_access_on_builtin_shapes() {
        let arr = Value::new_array(vec![Value::Number(10.0), Value::Number(20.0)]);
        assert_eq!(arr.get_property("length"), Value::Number(2.0));
        assert_eq!(arr.get_property("1"), Value::Number(20.0));
        assert_eq!(arr.get_property("5"), Value::Undefined);
        arr.set_property("3", Value::Number(40.0)).unwrap();
        assert_eq!(arr.get_property("length"), Value::Number(4.0));

        let s = Value::string("hi");
        assert_eq!(s.get_property("length"), Value::Number(2.0));
        assert_eq!(s.get_property("0"), Value::string("h"));

        let b = Value::new_bytes(vec![7, 8]);
        assert_eq!(b.get_property("length"), Value::Number(2.0));
        assert_eq!(b.get_property("1"), Value::Number(8.0));
        b.set_property("2", Value::Number(9.0)).unwrap();
        assert_eq!(b.get_property("2"), Value::Number(9.0));

        assert!(Value::Number(1.0).set_property("x", Value::Null).is_err());
    }

    #[test]
    fn object_properties() {
        let o = Value::new_object();
        assert_eq!(o.get_property("missing"), Value::Undefined);
        o.set_property("x", Value::Number(1.0)).unwrap();
        assert_eq!(o.get_property("x"), Value::Number(1.0));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number_to_string(42.0), "42");
        assert_eq!(number_to_string(-3.0), "-3");
        assert_eq!(number_to_string(0.5), "0.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
    }

    #[test]
    fn shallow_sizes_scale_with_content() {
        let small = Value::string("a");
        let big = Value::string("a".repeat(1000));
        assert!(big.shallow_size() > small.shallow_size());
        assert!(Value::new_bytes(vec![0; 100]).shallow_size() >= 100);
    }

    #[test]
    fn bytes_extraction() {
        assert_eq!(Value::string("ab").as_bytes_vec().unwrap(), b"ab");
        assert_eq!(
            Value::new_bytes(vec![1, 2]).as_bytes_vec().unwrap(),
            vec![1, 2]
        );
        assert!(Value::Number(1.0).as_bytes_vec().is_err());
    }
}
