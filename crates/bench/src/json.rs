//! One JSON layout for every document a harness binary writes, and
//! the one parser that reads documents back.
//!
//! The workspace vendors no serializer. A document is built as a
//! [`Json`] tree and rendered by [`Json::render`] in a fixed,
//! diff-friendly layout: an [`Json::Obj`] puts one field per line and a
//! [`Json::List`] one item per line, while a [`Json::Row`]
//! (`{"k": v, "k2": w}`) and an [`Json::Arr`] (`[a, b]`) stay on one
//! line. The committed `BENCH_*.json` baselines are in this layout. A
//! gate reads them back with `parse`, and `trace_check` reads the
//! flight-recorder exports with [`parse_prefix`]. Parsing what
//! [`Json::render`] wrote gives back the same tree, layout included.

/// A JSON value, with the layout it renders in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, `true`, `false` or `null`, kept as written (`3`, `-1`,
    /// `0.05`, `7.90`), so a fixed-precision column survives a round
    /// trip unchanged.
    Lit(String),
    /// A string.
    Str(String),
    /// An array on one line.
    Arr(Vec<Json>),
    /// An array with one item per line.
    List(Vec<Json>),
    /// An object on one line.
    Row(Vec<(String, Json)>),
    /// An object with one field per line.
    Obj(Vec<(String, Json)>),
}

macro_rules! from_literal {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Lit(v.to_string())
            }
        }
    )*};
}
from_literal!(bool, u32, u64, u128, usize, i64, f64);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Lit("null".into()), Into::into)
    }
}

fn fields(fields: Vec<(&str, Json)>) -> Vec<(String, Json)> {
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

impl Json {
    /// An object with one field per line.
    pub fn obj(f: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields(f))
    }

    /// An object on one line.
    pub fn row(f: Vec<(&str, Json)>) -> Json {
        Json::Row(fields(f))
    }

    /// `x` with `digits` decimals.
    pub fn fixed(x: f64, digits: usize) -> Json {
        Json::Lit(format!("{x:.digits$}"))
    }

    /// The document text: this value in the layout above, then a
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Lit(v) => out.push_str(v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) | Json::List(items) => {
                let items = items.iter().map(|v| (None, v)).collect();
                let block = matches!(self, Json::List(_));
                write_seq(out, indent, ('[', ']'), block, items);
            }
            Json::Row(fields) | Json::Obj(fields) => {
                let items = fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect();
                let block = matches!(self, Json::Obj(_));
                write_seq(out, indent, ('{', '}'), block, items);
            }
        }
    }

    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(f) | Json::Row(f) => f.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The items of an array; empty for any other value.
    pub(crate) fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) | Json::List(v) => v,
            _ => &[],
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A count: a literal read as `u64`, or the number of items of an
    /// array.
    pub fn count(&self) -> Option<u64> {
        match self {
            Json::Arr(v) | Json::List(v) => Some(v.len() as u64),
            v => v.lit(),
        }
    }

    /// A literal read as `T` (`u64`, `i64`, `f64`, `bool`, ...); `None`
    /// for other values and for literals `T` cannot hold.
    pub fn lit<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Lit(v) => v.parse().ok(),
            _ => None,
        }
    }
}

/// `open`, the `key: value` (or bare value) items, `close`: on one
/// line, or as a `block` with one item per line at `indent + 2` and
/// `close` on its own line at `indent` (so an empty block still spans
/// two lines).
fn write_seq(
    out: &mut String,
    indent: usize,
    (open, close): (char, char),
    block: bool,
    items: Vec<(Option<&str>, &Json)>,
) {
    out.push(open);
    for (i, (key, v)) in items.into_iter().enumerate() {
        if block {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&" ".repeat(indent + 2));
        } else if i > 0 {
            out.push_str(", ");
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(": ");
        }
        v.write(out, indent + 2);
    }
    if block {
        out.push('\n');
        out.push_str(&" ".repeat(indent));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a whole document: `None` unless `text` is exactly one JSON
/// value (surrounding whitespace allowed).
pub(crate) fn parse(text: &str) -> Option<Json> {
    let (v, rest) = parse_prefix(text)?;
    rest.trim().is_empty().then_some(v)
}

/// Parse the JSON value at the start of `text`, returning it and the
/// text after it (a JSONL line, or one event line of a Chrome trace
/// with its trailing comma). An object or array whose opening bracket
/// ends its line parses as [`Json::Obj`] / [`Json::List`], otherwise as
/// [`Json::Row`] / [`Json::Arr`].
pub fn parse_prefix(text: &str) -> Option<(Json, &str)> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value()?;
    Some((v, &text[p.i..]))
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.s[self.i..];
        self.i += rest.len() - rest.trim_start().len();
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                self.i += 1;
                let block = self.s.as_bytes().get(self.i) == Some(&b'\n');
                let close = if open == b'{' { b'}' } else { b']' };
                let mut items = Vec::new();
                if !self.eat(close) {
                    loop {
                        let key = if open == b'{' {
                            let k = self.string()?;
                            self.eat(b':').then_some(k)?
                        } else {
                            String::new()
                        };
                        items.push((key, self.value()?));
                        if self.eat(close) {
                            break;
                        }
                        self.eat(b',').then_some(())?;
                    }
                }
                Some(match (open, block) {
                    (b'{', true) => Json::Obj(items),
                    (b'{', false) => Json::Row(items),
                    (_, true) => Json::List(items.into_iter().map(|(_, v)| v).collect()),
                    (_, false) => Json::Arr(items.into_iter().map(|(_, v)| v).collect()),
                })
            }
            b'"' => self.string().map(Json::Str),
            _ => {
                let rest = &self.s[self.i..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                    .unwrap_or(rest.len());
                let word = &rest[..len];
                self.i += len;
                let literal = matches!(word, "null" | "true" | "false")
                    || word.parse::<f64>().is_ok_and(f64::is_finite);
                literal.then(|| Json::Lit(word.to_string()))
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"').then_some(())?;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.i..];
            let run = rest.find(['"', '\\'])?;
            out.push_str(&rest[..run]);
            self.i += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Some(out);
            }
            let esc = *self.s.as_bytes().get(self.i)?;
            self.i += 1;
            out.push(match esc {
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let hex = self.s.get(self.i..self.i + 4)?;
                    self.i += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                b'"' | b'\\' | b'/' => esc as char,
                _ => return None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_kind_reads_back_through_the_parser() {
        let doc = Json::obj(vec![
            ("str", "a \"quoted\" \\ path\n".into()),
            ("u64", u64::MAX.into()),
            ("i64", (-3i64).into()),
            ("f64", 0.05.into()),
            ("fixed", Json::fixed(7.9, 2)),
            ("bool", true.into()),
            ("null", None::<u32>.into()),
            ("arr", Json::Arr(vec![1u64.into(), 2u64.into()])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_list", Json::List(vec![])),
            (
                "rows",
                Json::List(vec![
                    Json::row(vec![("k", "v".into()), ("n", Some(4u32).into())]),
                    Json::row(vec![]),
                ]),
            ),
            (
                "nested",
                Json::List(vec![Json::obj(vec![("x", false.into())])]),
            ),
        ]);
        let text = doc.render();
        assert!(text.contains("  \"empty_list\": [\n  ],\n"), "{text}");
        assert!(text.contains("    {\"k\": \"v\", \"n\": 4},\n"), "{text}");
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text);
        assert_eq!(
            back.get("str").and_then(Json::as_str),
            Some("a \"quoted\" \\ path\n")
        );
        assert_eq!(back.get("u64").and_then(Json::lit), Some(u64::MAX));
        assert_eq!(back.get("i64").and_then(Json::lit), Some(-3i64));
        assert_eq!(back.get("f64").and_then(Json::lit), Some(0.05f64));
        assert_eq!(back.get("fixed").and_then(Json::lit), Some(7.9f64));
        assert_eq!(back.get("bool").and_then(Json::lit), Some(true));
        assert_eq!(back.get("null"), Some(&Json::Lit("null".into())));
        assert_eq!(back.get("empty_list").map(Json::items), Some(&[][..]));
        let rows = back.get("rows").map(Json::items).unwrap_or_default();
        assert_eq!(rows[0].get("n").and_then(Json::lit), Some(4u32));
    }

    #[test]
    fn the_committed_baselines_are_in_the_writer_layout() {
        for text in [
            include_str!("../../../BENCH_throughput.json"),
            include_str!("../../../BENCH_throughput_quick.json"),
            include_str!("../../../BENCH_chaos.json"),
            include_str!("../../../BENCH_checker.json"),
        ] {
            assert_eq!(parse(text).expect("parses").render(), text);
        }
    }

    #[test]
    fn a_line_parses_with_its_trailing_text_left_over() {
        let (ev, rest) = parse_prefix(r#"  {"ph": "X", "args": {"a": -1}},"#).unwrap();
        assert_eq!(rest, ",");
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            ev.get("args").and_then(|a| a.get("a")).and_then(Json::lit),
            Some(-1i64)
        );
        assert_eq!(parse("{\"a\": 1} trailing"), None);
        assert_eq!(parse("[1, ]"), None);
        assert_eq!(parse("{\"a\" 1}"), None);
        assert_eq!(parse("[inf]"), None);
    }
}
