//! The text codec of campaign reproducers, fuzz corpus files and crash
//! cases alike: a stable, hand-editable RON subset (no serde in the
//! offline build).
//!
//! ```text
//! // header comment
//! Name(
//!     key: value,
//!     plan: Variant(k: v, k: v),
//!     list: [
//!         (k: v, k: v),
//!     ],
//! )
//! ```
//!
//! One `key: value` per line, one list tuple per line, `//` comments
//! anywhere. Values are integers, booleans, words, or a word with a
//! parenthesized field list — never `,`, `:` or `//`. Each case type only
//! maps its fields onto this shape.

use std::str::FromStr;

/// Writes record `name`: `header` as comment lines, the `fields`, then
/// list `list.0` of preformatted `(k: v, ..)` tuples.
pub fn write(
    header: &[&str],
    name: &str,
    fields: &[(&str, String)],
    list: (&str, Vec<String>),
) -> String {
    let mut s: String = header.iter().map(|l| format!("// {l}\n")).collect();
    s += &format!("{name}(\n");
    for (k, v) in fields {
        s += &format!("    {k}: {v},\n");
    }
    s += &format!("    {}: [\n", list.0);
    for item in list.1 {
        s += &format!("        {item},\n");
    }
    s + "    ],\n)\n"
}

/// `key: value` pairs: a record's top-level fields, one list tuple, or
/// the fields of a `Variant(..)` value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fields(Vec<(String, String)>);

impl Fields {
    fn parse(body: &str) -> Result<Self, String> {
        body.split(',')
            .map(split_kv)
            .collect::<Result<_, _>>()
            .map(Fields)
    }

    /// The text of field `key`; an error names it when it is missing or
    /// duplicated.
    pub fn raw(&self, key: &str) -> Result<&str, String> {
        let mut found = self.0.iter().filter(|(k, _)| k == key);
        match (found.next(), found.next()) {
            (Some((_, v)), None) => Ok(v),
            (None, _) => Err(format!("missing field `{key}`")),
            (Some(_), Some(_)) => Err(format!("duplicate field `{key}`")),
        }
    }

    /// Field `key` parsed as `T`.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.raw(key)?;
        v.parse()
            .map_err(|_| format!("field `{key}` has a bad value `{v}`"))
    }
}

/// A parsed record: its `key: value` lines and its list's tuples.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// The top-level fields.
    pub fields: Fields,
    /// The list's tuples, in order.
    pub list: Vec<Fields>,
}

impl Record {
    /// Parses the text of record `name`; an error names the line that is
    /// neither a comment, a delimiter, a `key: value` line nor a tuple.
    pub fn parse(text: &str, name: &str) -> Result<Self, String> {
        let mut rec = Record::default();
        let mut in_list = false;
        for (num, raw) in text.lines().enumerate() {
            let line = raw.split("//").next().unwrap_or_default().trim();
            let at = |e: String| format!("line {}: {e}", num + 1);
            let body = line.strip_suffix(',').unwrap_or(line);
            if line.is_empty() || line == ")" || line.strip_suffix('(') == Some(name) {
                continue;
            }
            if line.ends_with(": [") || body == "]" {
                in_list = body != "]";
            } else if in_list {
                let tuple = body.strip_prefix('(').and_then(|b| b.strip_suffix(')'));
                let tuple = tuple
                    .ok_or_else(|| at(format!("expected `(key: value, ..)`, got `{line}`")))?;
                rec.list.push(Fields::parse(tuple).map_err(at)?);
            } else {
                rec.fields.0.push(split_kv(body).map_err(at)?);
            }
        }
        Ok(rec)
    }
}

/// Splits a `Variant(k: v, ..)` value into the variant and its fields; a
/// bare word such as `None` has none.
pub fn variant(value: &str) -> Result<(&str, Fields), String> {
    let Some((name, rest)) = value.split_once('(') else {
        return Ok((value, Fields::default()));
    };
    let body = rest
        .strip_suffix(')')
        .ok_or_else(|| format!("unbalanced `{value}`"))?;
    Ok((name.trim(), Fields::parse(body)?))
}

fn split_kv(part: &str) -> Result<(String, String), String> {
    let (k, v) = part
        .split_once(':')
        .ok_or_else(|| format!("expected `key: value`, got `{}`", part.trim()))?;
    Ok((k.trim().to_string(), v.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let fields = [
            ("seed", 42.to_string()),
            ("on", true.to_string()),
            ("plan", "Planted(line: 3, on_read: 1)".to_string()),
        ];
        write(
            &["a header", "two lines"],
            "Thing",
            &fields,
            ("ops", vec!["(op: read, line: 1)".into()]),
        )
    }

    #[test]
    fn writer_lays_out_the_shape() {
        assert_eq!(
            sample(),
            "// a header\n// two lines\nThing(\n    seed: 42,\n    on: true,\n    \
             plan: Planted(line: 3, on_read: 1),\n    ops: [\n        \
             (op: read, line: 1),\n    ],\n)\n"
        );
    }

    #[test]
    fn reader_inverts_the_writer() {
        let rec = Record::parse(&sample(), "Thing").unwrap();
        assert_eq!(rec.fields.get::<u64>("seed"), Ok(42));
        assert_eq!(rec.fields.get::<bool>("on"), Ok(true));
        let (name, args) = variant(rec.fields.raw("plan").unwrap()).unwrap();
        assert_eq!((name, args.get::<u64>("on_read")), ("Planted", Ok(1)));
        assert_eq!(variant("None").unwrap(), ("None", Fields::default()));
        assert_eq!(rec.list.len(), 1);
        assert_eq!(rec.list[0].raw("op"), Ok("read"));
        let empty = Record::parse("Thing(\n    seed: 1,\n)\n", "Thing").unwrap();
        assert!(empty.list.is_empty());
    }

    #[test]
    fn errors_name_the_line_or_the_field() {
        let err = Record::parse("Thing(\n  garbage\n)", "Thing").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Record::parse("Thing(\n    ops: [\n        (op: re", "Thing").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let err = Record::parse("Other(\n)", "Thing").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let rec = Record::parse("Thing(\n  a: 1,\n  a: 2,\n  b: x,\n)", "Thing").unwrap();
        assert!(rec
            .fields
            .raw("a")
            .unwrap_err()
            .contains("duplicate field `a`"));
        assert!(rec
            .fields
            .raw("c")
            .unwrap_err()
            .contains("missing field `c`"));
        assert!(rec.fields.get::<u64>("b").unwrap_err().contains("`b`"));
        assert!(variant("Planted(line: 3").is_err());
    }
}
