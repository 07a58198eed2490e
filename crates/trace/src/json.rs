//! A minimal JSON parser and writer, just enough to parse and emit the
//! workspace's own artifacts (Chrome traces, the tracer's registry dump,
//! `serve-bench`/`cluster-bench`/`analyze --json` reports) without a serde
//! dependency.
//! The parser accepts standard JSON; numbers are f64. The [`JsonWriter`]
//! builder is the shared emission path: every field goes through one
//! escaping/formatting routine, so anything it produces parses back with
//! [`parse`] — asserted by the round-trip tests below.

/// A parsed JSON value. Object keys keep document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Builder for one JSON object, the workspace's shared writer: keyed
/// fields are appended in call order, strings are escaped, and non-finite
/// floats become `null` (never bare `NaN`, which is not JSON). Nested
/// objects/arrays are composed by passing an inner writer's output to
/// [`JsonWriter::raw`] / [`JsonWriter::arr`].
#[derive(Clone, Debug, Default)]
pub struct JsonWriter {
    body: String,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        self.body.push('"');
        self.body.push_str(&escape(key));
        self.body.push_str("\":");
        &mut self.body
    }

    /// An escaped string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        let escaped = escape(v);
        let out = self.key(key);
        out.push('"');
        out.push_str(&escaped);
        out.push('"');
        self
    }

    pub fn u64(mut self, key: &str, v: u64) -> Self {
        use std::fmt::Write as _;
        let _ = write!(self.key(key), "{v}");
        self
    }

    pub fn usize(self, key: &str, v: usize) -> Self {
        self.u64(key, v as u64)
    }

    pub fn bool(mut self, key: &str, v: bool) -> Self {
        use std::fmt::Write as _;
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A float with fixed decimal places; non-finite values emit `null`.
    pub fn f64(mut self, key: &str, v: f64, decimals: usize) -> Self {
        use std::fmt::Write as _;
        let out = self.key(key);
        if v.is_finite() {
            let _ = write!(out, "{v:.decimals$}");
        } else {
            out.push_str("null");
        }
        self
    }

    /// A pre-rendered JSON value (nested object, array, number).
    pub fn raw(mut self, key: &str, v: &str) -> Self {
        self.key(key).push_str(v);
        self
    }

    /// An array of pre-rendered JSON values.
    pub fn arr<S: AsRef<str>>(mut self, key: &str, items: &[S]) -> Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(item.as_ref());
        }
        out.push(']');
        self
    }

    /// Close the object and return the document.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Escape a string for embedding in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", ch as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number `{text}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = utf8_len(c);
                let chunk = b.get(*pos..*pos + ch_len).ok_or("truncated UTF-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, -2.5, 1e-6], "b": "x\n", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(-2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn nested_objects_roundtrip() {
        let v = parse(r#"{"m": {"k": {"deep": [{"x": 0.125}]}}}"#).unwrap();
        let deep = v.get("m").unwrap().get("k").unwrap().get("deep").unwrap();
        assert_eq!(deep.as_arr().unwrap()[0].get("x").unwrap().as_num(), Some(0.125));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse(r#""café ☕""#).unwrap();
        assert_eq!(v.as_str(), Some("café ☕"));
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        let inner = JsonWriter::new().u64("hits", 3).f64("rate", 0.5, 4).finish();
        let doc = JsonWriter::new()
            .str("label", "a \"quoted\"\nlabel")
            .u64("requests", 1000)
            .f64("p99_ms", 1.23456, 3)
            .f64("bad", f64::NAN, 3)
            .bool("ok", true)
            .raw("cache", &inner)
            .arr("xs", &["1", "2.5", "\"s\""])
            .finish();
        let v = parse(&doc).expect("writer emits valid JSON");
        assert_eq!(v.get("label").unwrap().as_str(), Some("a \"quoted\"\nlabel"));
        assert_eq!(v.get("requests").unwrap().as_num(), Some(1000.0));
        assert_eq!(v.get("p99_ms").unwrap().as_num(), Some(1.235));
        assert_eq!(v.get("bad"), Some(&Value::Null));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("cache").unwrap().get("hits").unwrap().as_num(), Some(3.0));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn writer_empty_object_is_valid() {
        assert_eq!(JsonWriter::new().finish(), "{}");
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }
}
