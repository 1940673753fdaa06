//! A JSON value whose objects keep insertion order, and its writer: the
//! result files, `BENCHMARK.json` and the trace files list their members
//! in the order the benchmark names them, so they diff cleanly. Files are
//! read back with `subsub_telemetry::json::parse`.

use std::fmt::{self, Write as _};
use subsub_telemetry::json::Json as Parsed;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders with one member per line at the top two levels — compact
    /// enough for big metric tables, readable enough to diff.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, 2);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize, break_depth: usize) {
        // One member per line above `break_depth`, one line below it.
        let broken = depth < break_depth;
        let lead = |out: &mut String, i: usize, d: usize| {
            if i > 0 {
                out.push(',');
            }
            if broken {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            } else if i > 0 {
                out.push(' ');
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a metric that is one is a bug
            // the reader should see, not a parse error.
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    lead(out, i, depth + 1);
                    v.write(out, depth + 1, break_depth);
                }
                if broken && !items.is_empty() {
                    lead(out, 0, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    lead(out, i, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1, break_depth);
                }
                if broken && !pairs.is_empty() {
                    lead(out, 0, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Single-line rendering.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, 0);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed value as one that can be written again (objects come back
/// in key order).
impl From<&Parsed> for Json {
    fn from(v: &Parsed) -> Json {
        match v {
            Parsed::Null => Json::Null,
            Parsed::Bool(b) => Json::Bool(*b),
            Parsed::Num(n) => Json::Num(*n),
            Parsed::Str(s) => Json::Str(s.clone()),
            Parsed::Arr(items) => Json::Arr(items.iter().map(Json::from).collect()),
            Parsed::Obj(m) => Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::from(v)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsub_telemetry::json::parse;

    #[test]
    fn what_is_written_reads_back_with_all_digits() {
        let v = Json::obj([
            ("count", Json::Num(1000.0)),
            (
                "list",
                Json::Arr(vec![Json::Num(-1.5e-9), Json::obj([("k", Json::Num(2.0))])]),
            ),
            ("name", Json::str("a \"quoted\"\nline\u{1}")),
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
            ("value", Json::Num(1.203_456_789_012_345_6)),
        ]);
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(Json::from(&parse(&text).unwrap()), v, "{text}");
        }
        assert!(v.to_string().starts_with("{\"count\": 1000,"));
        assert!(!v.to_string().contains('\n'));
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn members_keep_the_order_they_were_given_in() {
        let v = Json::obj([("b", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.to_string(), "{\"b\": 1, \"a\": 2}");
        assert_eq!(v.get("a"), Some(&Json::Num(2.0)));
        assert!(v.get("missing").is_none());
    }
}
