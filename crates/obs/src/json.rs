//! Dependency-free JSON encoding and decoding.
//!
//! The observability layer needs two things from JSON: writing
//! records/metric exports, and reading back what it wrote — the flat
//! objects of JSONL traces and recordings, perf reports, Chrome traces
//! — through the one decoder [`parse`]. Both are small enough to
//! implement here, which keeps the workspace free of registry
//! dependencies.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number (non-finite values become 0, which
/// JSON cannot represent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// An incremental JSON object writer.
///
/// # Examples
///
/// ```
/// use airtime_obs::json::Obj;
///
/// let mut o = Obj::new();
/// o.str("type", "collision").u64("node", 2).f64("share", 0.5);
/// assert_eq!(o.finish(), r#"{"type":"collision","node":2,"share":0.5}"#);
/// ```
#[derive(Debug)]
pub struct Obj {
    buf: String,
}

impl Default for Obj {
    fn default() -> Self {
        Self::new()
    }
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) -> &mut Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(k));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", escape(v));
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field.
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        self.buf.push_str(&num(v));
        self
    }

    /// Adds a float field that may be absent: `null` for `None`.
    pub fn opt_f64(&mut self, k: &str, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.f64(k, v),
            None => self.raw(k, "null"),
        }
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON (an object, an
    /// array, …).
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns it, leaving `self` empty (so it
    /// can end a builder chain that returned `&mut Obj`).
    pub fn finish(&mut self) -> String {
        let mut buf = std::mem::take(&mut self.buf);
        buf.push('}');
        buf
    }
}

/// Renders a `u64` slice as a JSON array.
pub fn array_u64(xs: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

/// Renders an `f64` slice as a JSON array.
pub fn array_f64(xs: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&num(*x));
    }
    s.push(']');
    s
}

/// A parsed JSON value, nesting included.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Any JSON number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The value as object members, if an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(kvs) => Some(kvs),
            _ => None,
        }
    }

    /// Member lookup on an object (first match wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Parses one complete JSON document of any shape.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing garbage after document".to_string());
    }
    Ok(v)
}

/// Nesting deeper than this is rejected rather than risking a stack
/// overflow on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected '{}', got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => s.push(b as char),
                Some(b) => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = if b >> 5 == 0b110 {
                        2
                    } else if b >> 4 == 0b1110 {
                        3
                    } else {
                        4
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|e| format!("invalid UTF-8 in string: {e}"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| format!("bad number '{text}': {e}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.bytes() {
            if self.next() != Some(want) {
                return Err(format!("bad literal (expected '{word}')"));
            }
        }
        Ok(value)
    }

    /// One JSON value of any shape, recursing into arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut kvs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(kvs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    kvs.push((key, v));
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(kvs)),
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut xs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                loop {
                    self.skip_ws();
                    xs.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(xs)),
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            _ => self.scalar(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_objects() {
        let mut o = Obj::new();
        o.str("a", "x\"y")
            .u64("b", 7)
            .f64("c", 1.5)
            .bool("d", false);
        let s = o.finish();
        assert_eq!(s, r#"{"a":"x\"y","b":7,"c":1.5,"d":false}"#);
        let v = parse(&s).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("c").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn empty_object() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse(" { } ").unwrap(), Json::Obj(vec![]));
        assert_eq!(Obj::new().finish(), "{}");
    }

    #[test]
    fn numbers_round_trip() {
        for v in [0.0, -1.25, 1e9, 123456789.0, 1e-6, -0.0, 2.5e-300] {
            let s = Obj::new().f64("v", v).finish();
            let back = parse(&s).unwrap();
            assert_eq!(back.get("v").and_then(Json::as_f64), Some(v), "{s}");
        }
        // Exponents, signs and integers too large for a float's exact
        // range read back as the nearest float; non-numbers are errors.
        assert_eq!(parse("1E3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("-2e-2").unwrap(), Json::Num(-0.02));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert!(parse("1.2.3").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let raw = "quote\" back\\ nl\n cr\r tab\t bell\u{7}";
        let s = Obj::new().str("k", raw).finish();
        assert_eq!(s, r#"{"k":"quote\" back\\ nl\n cr\r tab\t bell\u0007"}"#);
        assert_eq!(
            parse(&s).unwrap().get("k").and_then(Json::as_str),
            Some(raw)
        );
        // Escapes the writer never emits still decode.
        assert_eq!(
            parse(r#""\/\b\f\u00e9""#).unwrap(),
            Json::Str("/\u{8}\u{c}é".into())
        );
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""open"#).is_err());
    }

    #[test]
    fn non_finite_floats_become_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
    }

    #[test]
    fn unicode_round_trips() {
        let s = Obj::new().str("k", "héllo • 日本 🎉").finish();
        let v = parse(&s).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some("héllo • 日本 🎉"));
    }

    #[test]
    fn nested_parse_round_trips_structured_documents() {
        let doc = r#"{"bench":"profile","combos":[{"label":"a b","events_per_sec":3.5e6,"pass":true},{"label":"c","events_per_sec":1200,"extra":null}],"meta":{"seed":42}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("profile"));
        let combos = v.get("combos").and_then(Json::as_arr).unwrap();
        assert_eq!(combos.len(), 2);
        assert_eq!(
            combos[0].get("events_per_sec").and_then(Json::as_f64),
            Some(3.5e6)
        );
        assert_eq!(combos[1].get("extra"), Some(&Json::Null));
        assert_eq!(
            v.get("meta")
                .and_then(|m| m.get("seed"))
                .and_then(Json::as_u64),
            Some(42)
        );
    }

    #[test]
    fn nested_parse_accepts_top_level_arrays_and_scalars() {
        assert_eq!(
            parse("[1, [2, 3], []]").unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Arr(vec![Json::Num(2.0), Json::Num(3.0)]),
                Json::Arr(vec![]),
            ])
        );
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("\"x\"").unwrap(), Json::Str("x".into()));
    }

    #[test]
    fn nested_parse_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a": 1} extra"#).is_err());
        assert!(parse(&("[".repeat(200) + &"]".repeat(200))).is_err());
    }

    #[test]
    fn arrays_render() {
        assert_eq!(array_u64(&[1, 2, 3]), "[1,2,3]");
        assert_eq!(array_f64(&[0.5]), "[0.5]");
        assert_eq!(array_u64(&[]), "[]");
    }
}
