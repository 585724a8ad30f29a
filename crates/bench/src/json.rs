//! The one JSON writer behind every `BENCH_*.json` file and the blessed
//! perf baseline (no serde in the tree). The layout is fixed so files
//! diff textually: an object inside an object takes one field per line,
//! an array of objects one object per line, and all else sits on one
//! line.

use std::fmt::{Display, Write as _};

/// A JSON value. Numbers are preformatted literals, so each writer picks
/// its own precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number literal (or `null`), written verbatim.
    Num(String),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number in its `Display` form (`20` for `20.0`).
    pub fn num(v: impl Display) -> Json {
        Json::Num(v.to_string())
    }

    /// A float with `places` decimals.
    pub fn fixed(v: f64, places: usize) -> Json {
        Json::Num(format!("{v:.places$}"))
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The file text: this value as a document, newline-terminated.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, 0, false);
        s + "\n"
    }

    fn write(&self, s: &mut String, indent: usize, inline: bool) {
        let (open, close, entries): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(n) => return s.push_str(n),
            Json::Str(v) => return escape(s, v),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            ),
        };
        let holds_obj = entries.iter().any(|(_, v)| matches!(v, Json::Obj(_)));
        let block = !inline && (matches!(self, Json::Obj(_)) || holds_obj);
        let pad = |n: usize| {
            if block {
                format!("\n{}", " ".repeat(n))
            } else {
                String::new()
            }
        };
        s.push(open);
        for (i, (key, v)) in entries.iter().enumerate() {
            s.push_str(match (i, block) {
                (0, _) => "",
                (_, true) => ",",
                (_, false) => ", ",
            });
            s.push_str(&pad(indent + 2));
            if let Some(k) = key {
                escape(s, k);
                s.push_str(": ");
            }
            // Object fields lay out as blocks in turn; array elements inline.
            v.write(s, indent + 2, !block || key.is_none());
        }
        s.push_str(&pad(indent));
        s.push(close);
    }
}

fn escape(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_nests_blocks_and_inlines_rows() {
        let doc = Json::obj([
            ("name", Json::str("a \"b\"\n")),
            ("n", Json::num(20.0)),
            ("x", Json::fixed(1.0 / 3.0, 3)),
            ("none", Json::Num("null".into())),
            ("tags", Json::Arr(vec![Json::str("p"), Json::str("q")])),
            ("empty_rows", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj([("k", Json::num(1)), ("v", Json::Arr(vec![Json::num(2)]))]),
                    Json::obj([("k", Json::num(3))]),
                ]),
            ),
            (
                "nested",
                Json::obj([("a", Json::num(1)), ("b", Json::num(2))]),
            ),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        assert_eq!(
            doc.render(),
            "{\n  \"name\": \"a \\\"b\\\"\\n\",\n  \"n\": 20,\n  \"x\": 0.333,\n  \
             \"none\": null,\n  \"tags\": [\"p\", \"q\"],\n  \"empty_rows\": [],\n  \
             \"rows\": [\n    {\"k\": 1, \"v\": [2]},\n    {\"k\": 3}\n  ],\n  \
             \"nested\": {\n    \"a\": 1,\n    \"b\": 2\n  },\n  \"empty\": {\n  }\n}\n"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(Json::str("\u{1}\t\\").render(), "\"\\u0001\\t\\\\\"\n");
    }
}
