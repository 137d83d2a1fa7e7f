//! Minimal deterministic JSON emission for experiment results.
//!
//! Every JSON document the repository emits (suite results, scenario
//! verdicts, search reports) is rendered through this tiny value tree;
//! the build has no registry access, so there is no serialization
//! framework behind it. Output is fully deterministic: object keys keep insertion
//! order, floats render with Rust's shortest-roundtrip formatting, and
//! non-finite floats become `null`. That determinism is load-bearing —
//! the CI gate diffs the bytes of `--jobs 1` vs `--jobs N` suite runs.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (shortest-roundtrip formatting; non-finite → `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object builder.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a field to an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_owned(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Serializes the value to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` is shortest-roundtrip and never uses exponent
                    // notation, so appending `.0` when no decimal point
                    // appeared keeps integral floats typed as floats.
                    let start = out.len();
                    let _ = write!(out, "{v}");
                    if !out[start..].contains('.') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        (v as u64).into()
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Conversion of an experiment result into its JSON form.
pub trait ToJson {
    /// The JSON representation of this value.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_nesting() {
        let value = Json::obj()
            .field("name", "fig4")
            .field("ok", true)
            .field("count", 24u32)
            .field("fraction", 0.125)
            .field("missing", Json::Null)
            .field("rows", vec![1.5f64, 2.0, 3.25]);
        assert_eq!(
            value.render(),
            r#"{"name":"fig4","ok":true,"count":24,"fraction":0.125,"missing":null,"rows":[1.5,2.0,3.25]}"#
        );
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(1.0).render(), "1.0");
        assert_eq!(Json::Num(-3.0).render(), "-3.0");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(1e-9).render(), "0.000000001");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::from(Option::<f64>::None).render(), "null");
        assert_eq!(Json::from(Some(2.5f64)).render(), "2.5");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || Json::obj().field("b", 2u32).field("a", vec![Json::Null, Json::Bool(false)]);
        assert_eq!(build().render(), build().render());
        assert_eq!(build().render(), r#"{"b":2,"a":[null,false]}"#);
    }
}
