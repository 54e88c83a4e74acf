//! The NkScript standard library: built-in methods on primitives and the
//! small set of ambient globals every context receives.
//!
//! Na Kika's security argument is that the platform starts from a *bare*
//! scripting engine and selectively adds functionality (paper §3.2).  The
//! standard library therefore contains only pure computation — string, array,
//! byte-array and math helpers — and no I/O.  All I/O goes through
//! vocabularies installed by the host (see `nakika-core::vocab`).

use crate::context::Context;
use crate::error::ScriptError;
use crate::value::{number_to_string, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Installs the ambient globals into a context: `Math`, `ByteArray`,
/// `parseInt`, `parseFloat`, `isNaN`, `String`, `Number`, and `NaN`.
pub fn install(ctx: &Context) {
    ctx.set_global("NaN", Value::Number(f64::NAN));
    ctx.set_global("Infinity", Value::Number(f64::INFINITY));

    ctx.set_global(
        "parseInt",
        Value::native(|_, args| {
            let s = arg(args, 0).to_display_string();
            let radix = match arg(args, 1) {
                Value::Undefined => 10,
                v => v.to_number() as u32,
            };
            let t = s.trim();
            let (neg, t) = match t.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, t.strip_prefix('+').unwrap_or(t)),
            };
            let t = if radix == 16 {
                t.trim_start_matches("0x").trim_start_matches("0X")
            } else {
                t
            };
            let digits: String = t
                .chars()
                .take_while(|c| c.is_digit(radix.clamp(2, 36)))
                .collect();
            if digits.is_empty() {
                return Ok(Value::Number(f64::NAN));
            }
            let n = i64::from_str_radix(&digits, radix.clamp(2, 36)).unwrap_or(0) as f64;
            Ok(Value::Number(if neg { -n } else { n }))
        }),
    );

    ctx.set_global(
        "parseFloat",
        Value::native(|_, args| {
            let s = arg(args, 0).to_display_string();
            let t = s.trim();
            let end = t
                .char_indices()
                .take_while(|(i, c)| {
                    c.is_ascii_digit() || *c == '.' || ((*c == '-' || *c == '+') && *i == 0)
                })
                .map(|(i, c)| i + c.len_utf8())
                .last()
                .unwrap_or(0);
            Ok(Value::Number(t[..end].parse().unwrap_or(f64::NAN)))
        }),
    );

    ctx.set_global(
        "isNaN",
        Value::native(|_, args| Ok(Value::Bool(arg(args, 0).to_number().is_nan()))),
    );

    ctx.set_global(
        "String",
        Value::native(|_, args| Ok(Value::string(arg(args, 0).to_display_string()))),
    );

    ctx.set_global(
        "Number",
        Value::native(|_, args| Ok(Value::Number(arg(args, 0).to_number()))),
    );

    // `new ByteArray()` or `new ByteArray(initialString)`.  The constructor is
    // the byte-array extension the paper added to SpiderMonkey.
    ctx.set_global(
        "ByteArray",
        Value::native(|_, args| {
            let initial = match arg(args, 0) {
                Value::Undefined => Vec::new(),
                other => other.as_bytes_vec().unwrap_or_default(),
            };
            Ok(Value::new_bytes(initial))
        }),
    );

    // `new Object()` / `new Array()` for completeness.
    ctx.set_global("Object", Value::native(|_, _| Ok(Value::new_object())));
    ctx.set_global(
        "Array",
        Value::native(|_, args| Ok(Value::new_array(args.to_vec()))),
    );

    let math = Value::new_object();
    let unary = |f: fn(f64) -> f64| {
        Value::native(move |_, args| Ok(Value::Number(f(arg(args, 0).to_number()))))
    };
    math.set_property("floor", unary(f64::floor)).unwrap();
    math.set_property("ceil", unary(f64::ceil)).unwrap();
    math.set_property("round", unary(f64::round)).unwrap();
    math.set_property("abs", unary(f64::abs)).unwrap();
    math.set_property("sqrt", unary(f64::sqrt)).unwrap();
    math.set_property("log", unary(f64::ln)).unwrap();
    math.set_property("exp", unary(f64::exp)).unwrap();
    math.set_property(
        "pow",
        Value::native(|_, args| {
            Ok(Value::Number(
                arg(args, 0).to_number().powf(arg(args, 1).to_number()),
            ))
        }),
    )
    .unwrap();
    math.set_property(
        "min",
        Value::native(|_, args| {
            Ok(Value::Number(
                args.iter()
                    .map(|v| v.to_number())
                    .fold(f64::INFINITY, f64::min),
            ))
        }),
    )
    .unwrap();
    math.set_property(
        "max",
        Value::native(|_, args| {
            Ok(Value::Number(
                args.iter()
                    .map(|v| v.to_number())
                    .fold(f64::NEG_INFINITY, f64::max),
            ))
        }),
    )
    .unwrap();
    math.set_property(
        "random",
        Value::native(|_, _| Ok(Value::Number(next_pseudo_random()))),
    )
    .unwrap();
    math.set_property("PI", Value::Number(std::f64::consts::PI))
        .unwrap();
    ctx.set_global("Math", math);
}

/// Deterministic-seeded xorshift used for `Math.random()`; scripts inside the
/// sandbox have no access to entropy sources, and the simulator benefits from
/// reproducibility.
fn next_pseudo_random() -> f64 {
    static STATE: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);
    let mut x = STATE.load(Ordering::Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    STATE.store(x, Ordering::Relaxed);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Undefined)
}

/// Dispatches built-in methods on primitive values (strings, numbers, arrays,
/// byte arrays).  Returns `None` when no such method exists, so the caller
/// can report a type error.
pub(crate) fn call_builtin_method(
    this: &Value,
    name: &str,
    args: &[Value],
) -> Option<Result<Value, ScriptError>> {
    match this {
        Value::Str(s) => string_method(s, name, args),
        Value::Array(_) => array_method(this, name, args),
        Value::Bytes(_) => bytes_method(this, name, args),
        Value::Number(n) => number_method(*n, name, args),
        Value::Object(_) => object_method(this, name, args),
        _ => None,
    }
}

fn string_method(s: &str, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
    let a0 = arg(args, 0);
    let result = match name {
        "indexOf" => Value::Number(
            s.find(&a0.to_display_string())
                .map(|i| s[..i].chars().count() as f64)
                .unwrap_or(-1.0),
        ),
        "lastIndexOf" => Value::Number(
            s.rfind(&a0.to_display_string())
                .map(|i| s[..i].chars().count() as f64)
                .unwrap_or(-1.0),
        ),
        "includes" | "contains" => Value::Bool(s.contains(&a0.to_display_string())),
        "startsWith" => Value::Bool(s.starts_with(&a0.to_display_string())),
        "endsWith" => Value::Bool(s.ends_with(&a0.to_display_string())),
        "charAt" => {
            let i = a0.to_number().max(0.0) as usize;
            Value::string(s.chars().nth(i).map(|c| c.to_string()).unwrap_or_default())
        }
        "charCodeAt" => {
            let i = a0.to_number().max(0.0) as usize;
            s.chars()
                .nth(i)
                .map(|c| Value::Number(c as u32 as f64))
                .unwrap_or(Value::Number(f64::NAN))
        }
        "substring" | "slice" | "substr" => {
            let chars: Vec<char> = s.chars().collect();
            let len = chars.len() as f64;
            let mut start = a0.to_number();
            let mut end = match arg(args, 1) {
                Value::Undefined => len,
                v => v.to_number(),
            };
            if name == "substr" {
                end += start;
            }
            if name == "slice" {
                if start < 0.0 {
                    start += len;
                }
                if end < 0.0 {
                    end += len;
                }
            }
            let start = start.clamp(0.0, len) as usize;
            let end = end.clamp(0.0, len) as usize;
            let (start, end) = if start <= end {
                (start, end)
            } else {
                (end, start)
            };
            Value::string(chars[start..end].iter().collect::<String>())
        }
        "toUpperCase" => Value::string(s.to_uppercase()),
        "toLowerCase" => Value::string(s.to_lowercase()),
        "trim" => Value::string(s.trim()),
        "split" => {
            let sep = a0.to_display_string();
            let parts: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::string(c.to_string())).collect()
            } else {
                s.split(&sep).map(Value::string).collect()
            };
            Value::new_array(parts)
        }
        "replace" => {
            let from = a0.to_display_string();
            let to = arg(args, 1).to_display_string();
            Value::string(s.replacen(&from, &to, 1))
        }
        "replaceAll" => {
            let from = a0.to_display_string();
            let to = arg(args, 1).to_display_string();
            Value::string(s.replace(&from, &to))
        }
        "concat" => {
            let mut out = s.to_string();
            for a in args {
                out.push_str(&a.to_display_string());
            }
            Value::string(out)
        }
        "toString" => Value::string(s),
        _ => return None,
    };
    Some(Ok(result))
}

fn number_method(n: f64, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
    let result = match name {
        "toString" => Value::string(number_to_string(n)),
        "toFixed" => {
            let digits = arg(args, 0).to_number().max(0.0) as usize;
            Value::string(format!("{n:.digits$}"))
        }
        _ => return None,
    };
    Some(Ok(result))
}

fn array_method(this: &Value, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
    let arr = this.as_array()?;
    let result = match name {
        "push" => {
            let mut a = arr.write();
            for v in args {
                a.push(v.clone());
            }
            Value::Number(a.len() as f64)
        }
        "pop" => {
            let mut a = arr.write();
            a.pop().unwrap_or(Value::Undefined)
        }
        "shift" => {
            let mut a = arr.write();
            if a.is_empty() {
                Value::Undefined
            } else {
                a.remove(0)
            }
        }
        "unshift" => {
            let mut a = arr.write();
            for (i, v) in args.iter().enumerate() {
                a.insert(i, v.clone());
            }
            Value::Number(a.len() as f64)
        }
        "join" => {
            let sep = match arg(args, 0) {
                Value::Undefined => ",".to_string(),
                v => v.to_display_string(),
            };
            let a = arr.read();
            Value::string(
                a.iter()
                    .map(|v| v.to_display_string())
                    .collect::<Vec<_>>()
                    .join(&sep),
            )
        }
        "indexOf" => {
            let target = arg(args, 0);
            let a = arr.read();
            Value::Number(
                a.iter()
                    .position(|v| v.strict_equals(&target))
                    .map(|i| i as f64)
                    .unwrap_or(-1.0),
            )
        }
        "includes" | "contains" => {
            let target = arg(args, 0);
            Value::Bool(
                arr.read()
                    .iter()
                    .any(|v| v.strict_equals(&target) || v.loose_equals(&target)),
            )
        }
        "slice" => {
            let a = arr.read();
            let len = a.len() as f64;
            let mut start = arg(args, 0).to_number();
            let mut end = match arg(args, 1) {
                Value::Undefined => len,
                v => v.to_number(),
            };
            if start < 0.0 {
                start += len;
            }
            if end < 0.0 {
                end += len;
            }
            let start = start.clamp(0.0, len) as usize;
            let end = end.clamp(start as f64, len) as usize;
            Value::new_array(a[start..end].to_vec())
        }
        "concat" => {
            let mut out = arr.read().clone();
            for v in args {
                match v {
                    Value::Array(other) => out.extend(other.read().iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Value::new_array(out)
        }
        "reverse" => {
            arr.write().reverse();
            this.clone()
        }
        "sort" => {
            let mut a = arr.write();
            a.sort_by_key(|x| x.to_display_string());
            drop(a);
            this.clone()
        }
        "toString" => Value::string(this.to_display_string()),
        _ => return None,
    };
    Some(Ok(result))
}

fn bytes_method(this: &Value, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
    let bytes = match this {
        Value::Bytes(b) => b.clone(),
        _ => return None,
    };
    let result = match name {
        // `body.append(buff)` from the paper's Figure 2.
        "append" | "push" => match arg(args, 0).as_bytes_vec() {
            Ok(data) => {
                bytes.write().extend_from_slice(&data);
                Value::Number(bytes.read().len() as f64)
            }
            Err(e) => return Some(Err(e)),
        },
        "toString" | "decode" => Value::string(String::from_utf8_lossy(&bytes.read())),
        "slice" => {
            let b = bytes.read();
            let len = b.len() as f64;
            let mut start = arg(args, 0).to_number();
            let mut end = match arg(args, 1) {
                Value::Undefined => len,
                v => v.to_number(),
            };
            if start < 0.0 {
                start += len;
            }
            if end < 0.0 {
                end += len;
            }
            let start = start.clamp(0.0, len) as usize;
            let end = end.clamp(start as f64, len) as usize;
            Value::new_bytes(b[start..end].to_vec())
        }
        "indexOf" => {
            let needle = match arg(args, 0).as_bytes_vec() {
                Ok(n) => n,
                Err(e) => return Some(Err(e)),
            };
            let b = bytes.read();
            let pos = if needle.is_empty() || needle.len() > b.len() {
                None
            } else {
                b.windows(needle.len()).position(|w| w == &needle[..])
            };
            Value::Number(pos.map(|p| p as f64).unwrap_or(-1.0))
        }
        "clear" => {
            bytes.write().clear();
            Value::Undefined
        }
        _ => return None,
    };
    Some(Ok(result))
}

fn object_method(this: &Value, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
    let obj = this.as_object()?;
    let result = match name {
        "hasOwnProperty" => {
            let key = arg(args, 0).to_display_string();
            Value::Bool(obj.read().properties.contains_key(&key))
        }
        "keys" => Value::new_array(obj.read().properties.keys().map(Value::string).collect()),
        "toString" => Value::string(this.to_display_string()),
        _ => return None,
    };
    Some(Ok(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;

    #[test]
    fn string_methods() {
        assert_eq!(
            eval("'hello world'.indexOf('world')").unwrap(),
            Value::Number(6.0)
        );
        assert_eq!(eval("'hello'.indexOf('x')").unwrap(), Value::Number(-1.0));
        assert_eq!(
            eval("'Hello'.toUpperCase()").unwrap(),
            Value::string("HELLO")
        );
        assert_eq!(
            eval("'Hello'.toLowerCase()").unwrap(),
            Value::string("hello")
        );
        assert_eq!(eval("'  x  '.trim()").unwrap(), Value::string("x"));
        assert_eq!(
            eval("'abcdef'.substring(1, 3)").unwrap(),
            Value::string("bc")
        );
        assert_eq!(eval("'abcdef'.slice(-2)").unwrap(), Value::string("ef"));
        assert_eq!(
            eval("'a,b,c'.split(',').length").unwrap(),
            Value::Number(3.0)
        );
        assert_eq!(
            eval("'a-b-a'.replace('a', 'x')").unwrap(),
            Value::string("x-b-a")
        );
        assert_eq!(
            eval("'a-b-a'.replaceAll('a', 'x')").unwrap(),
            Value::string("x-b-x")
        );
        assert_eq!(
            eval("'image/png'.startsWith('image/')").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval("'file.nkp'.endsWith('.nkp')").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval("'abc'.charAt(1)").unwrap(), Value::string("b"));
        assert_eq!(eval("'A'.charCodeAt(0)").unwrap(), Value::Number(65.0));
    }

    #[test]
    fn array_methods() {
        assert_eq!(
            eval("var a = [1]; a.push(2, 3); a.length").unwrap(),
            Value::Number(3.0)
        );
        assert_eq!(eval("[1,2,3].pop()").unwrap(), Value::Number(3.0));
        assert_eq!(eval("[1,2,3].shift()").unwrap(), Value::Number(1.0));
        assert_eq!(eval("['a','b'].join('-')").unwrap(), Value::string("a-b"));
        assert_eq!(eval("[1,2,3].indexOf(2)").unwrap(), Value::Number(1.0));
        assert_eq!(eval("[1,2,3].indexOf(9)").unwrap(), Value::Number(-1.0));
        assert_eq!(
            eval("[1,2,3,4].slice(1,3).join(',')").unwrap(),
            Value::string("2,3")
        );
        assert_eq!(
            eval("[1,2].concat([3,4]).length").unwrap(),
            Value::Number(4.0)
        );
        assert_eq!(
            eval("[3,1,2].sort().join('')").unwrap(),
            Value::string("123")
        );
        assert_eq!(
            eval("[1,2,3].reverse().join('')").unwrap(),
            Value::string("321")
        );
        assert_eq!(eval("[1,2].includes(2)").unwrap(), Value::Bool(true));
    }

    #[test]
    fn byte_array_methods() {
        assert_eq!(
            eval("var b = new ByteArray(); b.append('ab'); b.append('cd'); b.toString()").unwrap(),
            Value::string("abcd")
        );
        assert_eq!(
            eval("var b = new ByteArray('hello'); b.slice(1, 3).toString()").unwrap(),
            Value::string("el")
        );
        assert_eq!(
            eval("new ByteArray('hello').indexOf('llo')").unwrap(),
            Value::Number(2.0)
        );
        assert_eq!(
            eval("new ByteArray('xyz').length").unwrap(),
            Value::Number(3.0)
        );
    }

    #[test]
    fn math_and_number_globals() {
        assert_eq!(eval("Math.floor(3.7)").unwrap(), Value::Number(3.0));
        assert_eq!(eval("Math.ceil(3.2)").unwrap(), Value::Number(4.0));
        assert_eq!(eval("Math.max(1, 5, 3)").unwrap(), Value::Number(5.0));
        assert_eq!(eval("Math.min(4, 2, 8)").unwrap(), Value::Number(2.0));
        assert_eq!(eval("Math.abs(-2)").unwrap(), Value::Number(2.0));
        assert_eq!(eval("Math.pow(2, 10)").unwrap(), Value::Number(1024.0));
        assert_eq!(eval("parseInt('42px')").unwrap(), Value::Number(42.0));
        assert_eq!(eval("parseInt('-17')").unwrap(), Value::Number(-17.0));
        assert_eq!(eval("parseInt('ff', 16)").unwrap(), Value::Number(255.0));
        assert_eq!(eval("parseFloat('3.5kg')").unwrap(), Value::Number(3.5));
        assert_eq!(eval("isNaN('abc')").unwrap(), Value::Bool(true));
        assert_eq!(eval("isNaN('12')").unwrap(), Value::Bool(false));
        assert_eq!(eval("String(42)").unwrap(), Value::string("42"));
        assert_eq!(eval("Number('3.5')").unwrap(), Value::Number(3.5));
        assert_eq!(eval("(3.14159).toFixed(2)").unwrap(), Value::string("3.14"));
        let v = eval("Math.random()").unwrap();
        let n = v.to_number();
        assert!((0.0..1.0).contains(&n));
    }

    #[test]
    fn object_helpers() {
        assert_eq!(
            eval("var o = {a: 1}; o.hasOwnProperty('a')").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval("var o = {a: 1}; o.hasOwnProperty('b')").unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval("var o = {a: 1, b: 2}; o.keys().join(',')").unwrap(),
            Value::string("a,b")
        );
    }

    #[test]
    fn unknown_method_is_type_error() {
        assert!(eval("'abc'.frobnicate()").is_err());
        assert!(eval("[1].frobnicate()").is_err());
    }
}
