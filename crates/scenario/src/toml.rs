//! A dependency-free parser for the TOML subset scenario files use.
//!
//! The container this workspace builds in has no access to crates.io,
//! so scenario files cannot lean on the `toml` crate. This module
//! implements exactly the grammar the scenario format needs — which is
//! also the subset most TOML files in the wild stick to:
//!
//! - comments (`# …`), blank lines
//! - `[table]` and `[[array-of-tables]]` headers with dotted paths
//! - `key = value` pairs; keys are bare (`a-zA-Z0-9_.-`) or quoted
//! - values: basic strings, integers (with `_` separators), floats,
//!   booleans, and (possibly multi-line) arrays of those
//!
//! Not supported, by design: inline tables, datetimes, literal/
//! multi-line strings, and key re-definition. Every error carries the
//! 1-based line number it was found on, so `airtime-cli` can print
//! `file:line: message` diagnostics.
//!
//! Parsing produces a [`Doc`]: a root table of the entries before the
//! first header plus the tables in file order. Array-of-tables headers
//! append a new [`Table`] per occurrence, which is what the scenario
//! compiler iterates. The parser walks the lines lazily and reads a
//! value straight from its line. A value still open at the end of its
//! line (a multi-line array) copies the following lines into one buffer
//! as its parse reaches them, so every line is read once and parsing
//! stays linear in the document.
//!
//! The child index: a `[[station.flow]]` table belongs to the
//! `[[station]]` above it. [`Doc::families`] finds every `[[parent]]`
//! and the range of tables up to the next one in a single pass, so the
//! compiler reads each station's sub-tables from its own range instead
//! of scanning the whole document once per station. A sub-table above
//! every `[[parent]]` belongs to none and is an error at its line.
//!
//! The sweep engine rewrites parsed documents through [`Doc::set_path`]
//! before compilation, so one base document expands into a job matrix
//! without string-level templating.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Basic string.
    Str(String),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Array of values.
    Array(Vec<Value>),
}

impl Value {
    /// A short name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Array(_) => "array",
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric value (integers widen to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// An integer value (floats do not narrow).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(xs) => Some(xs),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    /// Renders the value the way a sweep axis label shows it: strings
    /// bare (no quotes), numbers and booleans as written.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Array(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// One `key = value` pair with its source line.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The key exactly as written (dotted keys stay one string).
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line.
    pub line: usize,
}

/// One `[table]` or `[[table]]` instance with its entries.
#[derive(Clone, Debug)]
pub struct Table {
    /// Header path segments (`[station.flow]` → `["station","flow"]`).
    pub path: Vec<String>,
    /// Whether the header was the `[[…]]` array-of-tables form.
    pub array: bool,
    /// 1-based line of the header.
    pub line: usize,
    /// Entries in file order.
    pub entries: Vec<Entry>,
}

impl Table {
    /// Looks up an entry by key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// A parsed document: root entries plus tables in file order.
#[derive(Clone, Debug)]
pub struct Doc {
    /// Entries before the first table header, as a table with an empty
    /// path on line 1.
    pub root: Table,
    /// Tables in file order (each `[[x]]` occurrence is one element).
    pub tables: Vec<Table>,
}

/// One `[[parent]]` table and the tables after it up to the next
/// `[[parent]]`: the range its `[[parent.child]]` sub-tables sit in
/// (see [`Doc::families`]).
#[derive(Clone, Copy, Debug)]
pub struct Family<'a> {
    /// The `[[parent]]` table itself.
    pub table: &'a Table,
    range: &'a [Table],
}

impl<'a> Family<'a> {
    /// Its `[[parent.child]]` tables, in file order.
    pub fn children(self, child: &'a str) -> impl Iterator<Item = &'a Table> {
        let parent = &self.table.path[0];
        self.range.iter().filter(move |t| {
            t.array && t.path.len() == 2 && t.path[0] == *parent && t.path[1] == child
        })
    }
}

/// A parse or path-rewrite failure with its source line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line the problem was found on (0 when not line-bound).
    pub line: usize,
    /// What went wrong and what was expected.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Strips a trailing comment, respecting `#` inside strings. Returns
/// the content and whether the line ended inside an unclosed string.
/// Scans bytes: the delimiters are ASCII, and no byte of a multi-byte
/// UTF-8 character is.
fn strip_comment(line: &str) -> (&str, bool) {
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else if b == b'"' {
            in_str = true;
        } else if b == b'#' {
            return (&line[..i], false);
        }
    }
    (line, in_str)
}

fn is_bare_key_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b'*')
}

/// Parses a `[…]` / `[[…]]` header body (without brackets) into path
/// segments.
fn parse_header_path(body: &str, line: usize) -> Result<Vec<String>, ParseError> {
    let body = body.trim();
    if body.is_empty() {
        return err(line, "empty table name; expected [name] or [name.sub]");
    }
    let mut segs = Vec::new();
    for seg in body.split('.') {
        let seg = seg.trim();
        if seg.is_empty()
            || !seg
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return err(
                line,
                format!("bad table name segment '{seg}'; expected letters, digits, '_' or '-'"),
            );
        }
        segs.push(seg.to_string());
    }
    Ok(segs)
}

/// A cursor over the text of one value. The text starts as the rest of
/// the key's line; a value still open at its end (a multi-line array)
/// appends the following lines from `more` as it reaches them, so each
/// line is read once.
struct ValueCursor<'a, 'm> {
    text: Cow<'a, str>,
    pos: usize,
    line: usize,
    more: &'m mut dyn Iterator<Item = (&'a str, usize)>,
}

impl<'a, 'm> ValueCursor<'a, 'm> {
    fn new(
        text: &'a str,
        line: usize,
        more: &'m mut dyn Iterator<Item = (&'a str, usize)>,
    ) -> Self {
        ValueCursor {
            text: Cow::Borrowed(text),
            pos: 0,
            line,
            more,
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Appends the next line, its comment stripped; false when the
    /// document has no more lines.
    fn pull(&mut self) -> Result<bool, ParseError> {
        let Some((next, line)) = self.more.next() else {
            return Ok(false);
        };
        let (next, unclosed) = strip_comment(next);
        if unclosed {
            return err(line, "unclosed string; expected closing '\"'");
        }
        let text = self.text.to_mut();
        text.push('\n');
        text.push_str(next);
        Ok(true)
    }

    /// Skips whitespace and comments. With `pull` (where a value is
    /// still open), the end of the text pulls in the next line.
    fn skip_ws(&mut self, pull: bool) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some('\n') => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(c) if c.is_whitespace() => self.pos += c.len_utf8(),
                Some('#') => {
                    // Comment inside a multi-line array: skip to newline.
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            self.line += 1;
                            break;
                        }
                    }
                }
                Some(_) => return Ok(()),
                None if pull && self.pull()? => {}
                None => return Ok(()),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws(true)?;
        match self.peek() {
            None => err(self.line, "expected a value, found end of input"),
            Some('"') => self.parse_string(),
            Some('[') => self.parse_array(),
            Some(_) => self.parse_scalar(),
        }
    }

    fn parse_string(&mut self) -> Result<Value, ParseError> {
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return err(self.line, "unclosed string; expected closing '\"'"),
                Some('"') => return Ok(Value::Str(out)),
                Some('\n') => {
                    return err(self.line, "newline inside string; expected closing '\"'")
                }
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some(c) => {
                        return err(self.line, format!("unsupported escape '\\{c}' in string"))
                    }
                    None => return err(self.line, "unclosed string; expected closing '\"'"),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.bump(); // opening bracket
        let mut items = Vec::new();
        loop {
            self.skip_ws(true)?;
            match self.peek() {
                None => return err(self.line, "unclosed array; expected ']'"),
                Some(']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                Some(',') if !items.is_empty() => {
                    self.bump();
                    self.skip_ws(true)?;
                    // Trailing comma before ']' is fine.
                    if self.peek() == Some(']') {
                        self.bump();
                        return Ok(Value::Array(items));
                    }
                    items.push(self.parse_value()?);
                }
                Some(',') => return err(self.line, "expected a value before ',' in array"),
                Some(_) if items.is_empty() => items.push(self.parse_value()?),
                Some(c) => {
                    return err(
                        self.line,
                        format!("expected ',' or ']' in array, found '{c}'"),
                    )
                }
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == ',' || c == ']' || c == '\n' || c == '#' {
                break;
            }
            self.pos += c.len_utf8();
        }
        let tok = self.text[start..self.pos].trim();
        if tok.is_empty() {
            return err(self.line, "expected a value");
        }
        match tok {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        let num = if tok.contains('_') {
            Cow::Owned(tok.replace('_', ""))
        } else {
            Cow::Borrowed(tok)
        };
        if let Ok(i) = num.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if !num.contains("0x") {
            if let Ok(f) = num.parse::<f64>() {
                if f.is_finite() {
                    return Ok(Value::Float(f));
                }
            }
        }
        err(
            self.line,
            format!(
                "unrecognised value '{tok}'; expected a string (quoted), number, boolean, or array"
            ),
        )
    }

    /// Checks nothing but whitespace/comments remains on the value's
    /// last line.
    fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws(false)?;
        if let Some(c) = self.peek() {
            return err(self.line, format!("unexpected '{c}' after value"));
        }
        Ok(())
    }
}

/// Parses a document. Every error names the offending line.
pub fn parse(text: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc {
        root: Table {
            path: Vec::new(),
            array: false,
            line: 1,
            entries: Vec::new(),
        },
        // Sized by the lines that open with '[', most of them headers.
        tables: Vec::with_capacity(text.matches("\n[").count() + 1),
    };
    // The hashes of the `[table]` paths seen so far. A repeated hash is
    // confirmed against the tables themselves, so the check stays exact
    // and each header costs one lookup.
    let mut single_paths = HashSet::new();
    let mut lines = text.lines().zip(1usize..);
    while let Some((line, lineno)) = lines.next() {
        let (content, unclosed) = strip_comment(line);
        if unclosed {
            return err(lineno, "unclosed string; expected closing '\"'");
        }
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        if let Some(rest) = content.strip_prefix("[[") {
            let Some(body) = rest.strip_suffix("]]") else {
                return err(lineno, "expected ']]' closing the array-of-tables header");
            };
            let path = parse_header_path(body, lineno)?;
            doc.tables.push(Table {
                path,
                array: true,
                line: lineno,
                entries: Vec::new(),
            });
            continue;
        }
        if let Some(rest) = content.strip_prefix('[') {
            let Some(body) = rest.strip_suffix(']') else {
                return err(lineno, "expected ']' closing the table header");
            };
            let path = parse_header_path(body, lineno)?;
            let mut h = DefaultHasher::new();
            path.hash(&mut h);
            if !single_paths.insert(h.finish())
                && doc.tables.iter().any(|t| !t.array && t.path == path)
            {
                return err(lineno, format!("table [{body}] defined twice"));
            }
            doc.tables.push(Table {
                path,
                array: false,
                line: lineno,
                entries: Vec::new(),
            });
            continue;
        }

        // key = value
        let Some(eq) = find_eq(content) else {
            return err(
                lineno,
                format!("expected 'key = value', a [table] header, or a comment; got '{content}'"),
            );
        };
        let key = parse_key(content[..eq].trim(), lineno)?;
        let mut cur = ValueCursor::new(&content[eq + 1..], lineno, &mut lines);
        let value = cur.parse_value()?;
        cur.finish()?;
        push_entry(&mut doc, key, value, lineno)?;
    }
    Ok(doc)
}

fn find_eq(content: &str) -> Option<usize> {
    let mut in_str = false;
    for (i, &b) in content.as_bytes().iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'=' if !in_str => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_key(raw: &str, line: usize) -> Result<String, ParseError> {
    if raw.is_empty() {
        return err(line, "missing key before '='");
    }
    if let Some(inner) = raw.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return err(line, format!("unclosed quoted key {raw}"));
        };
        if inner.is_empty() {
            return err(line, "empty quoted key");
        }
        return Ok(inner.to_string());
    }
    if !raw.bytes().all(is_bare_key_byte) {
        return err(
            line,
            format!(
                "bad key '{raw}'; expected letters, digits, '_', '-', '.', '*' or a quoted key"
            ),
        );
    }
    Ok(raw.to_string())
}

fn push_entry(doc: &mut Doc, key: String, value: Value, line: usize) -> Result<(), ParseError> {
    let slot = match doc.tables.last_mut() {
        Some(t) => &mut t.entries,
        None => &mut doc.root.entries,
    };
    if slot.iter().any(|e| e.key == key) {
        return err(line, format!("key '{key}' set twice in the same table"));
    }
    slot.push(Entry { key, value, line });
    Ok(())
}

impl Doc {
    /// Looks up a root entry by key.
    pub fn get(&self, key: &str) -> Option<&Entry> {
        self.root.get(key)
    }

    /// The single non-array table named `name`, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| !t.array && t.path.len() == 1 && t.path[0] == name)
    }

    /// All `[[name]]` tables in file order.
    pub fn array_tables(&self, name: &str) -> Vec<&Table> {
        self.tables
            .iter()
            .filter(|t| t.array && t.path.len() == 1 && t.path[0] == name)
            .collect()
    }

    /// Every `[[parent]]` table with the range of tables its
    /// `[[parent.child]]` sub-tables sit in (up to the next
    /// `[[parent]]`), found in one pass. A sub-table that comes before
    /// every `[[parent]]` belongs to none and fails at its line.
    pub fn families(&self, parent: &str) -> Result<Vec<Family<'_>>, ParseError> {
        let mut starts = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            if !t.array || t.path[0] != parent {
                continue;
            }
            if t.path.len() == 1 {
                starts.push(i);
            } else if starts.is_empty() {
                return err(
                    t.line,
                    format!(
                        "[[{}]] comes before every [[{parent}]] table; a sub-table belongs \
                         to the [[{parent}]] above it",
                        t.path.join(".")
                    ),
                );
            }
        }
        let ends = starts.iter().skip(1).copied().chain([self.tables.len()]);
        Ok(starts
            .iter()
            .zip(ends)
            .map(|(&s, e)| Family {
                table: &self.tables[s],
                range: &self.tables[s + 1..e],
            })
            .collect())
    }

    /// Rewrites one value addressed by a dotted path — the sweep
    /// engine's override mechanism. Supported shapes:
    ///
    /// - `key` — a root entry
    /// - `<table>.key` — an entry of a single `[table]` (created if the
    ///   table exists but lacks the key)
    /// - `<array>.<index|*>.key` — an entry of the i-th (or every)
    ///   `[[array]]` table
    ///
    /// `line` attributes errors (unknown table, index out of range) to
    /// the sweep axis that requested the rewrite.
    pub fn set_path(&mut self, path: &str, value: Value, line: usize) -> Result<(), ParseError> {
        let segs: Vec<&str> = path.split('.').collect();
        match segs.as_slice() {
            [key] => {
                set_in(&mut self.root.entries, key, value, line);
                Ok(())
            }
            [table, key] => {
                let Some(t) = self
                    .tables
                    .iter_mut()
                    .find(|t| !t.array && t.path.len() == 1 && t.path[0] == *table)
                else {
                    return err(
                        line,
                        format!("sweep axis '{path}': no [{table}] table in this scenario"),
                    );
                };
                set_in(&mut t.entries, key, value, line);
                Ok(())
            }
            [array, index, key] => {
                let targets: Vec<usize> = {
                    let tables: Vec<usize> = self
                        .tables
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.array && t.path.len() == 1 && t.path[0] == *array)
                        .map(|(i, _)| i)
                        .collect();
                    if tables.is_empty() {
                        return err(
                            line,
                            format!("sweep axis '{path}': no [[{array}]] tables in this scenario"),
                        );
                    }
                    if *index == "*" {
                        tables
                    } else {
                        let Ok(i) = index.parse::<usize>() else {
                            return err(
                                line,
                                format!(
                                    "sweep axis '{path}': expected a station index or '*', got '{index}'"
                                ),
                            );
                        };
                        if i >= tables.len() {
                            return err(
                                line,
                                format!(
                                    "sweep axis '{path}': index {i} out of range ({} [[{array}]] tables)",
                                    tables.len()
                                ),
                            );
                        }
                        vec![tables[i]]
                    }
                };
                for ti in targets {
                    set_in(&mut self.tables[ti].entries, key, value.clone(), line);
                }
                Ok(())
            }
            _ => err(
                line,
                format!("sweep axis '{path}': expected key, table.key, or table.index.key"),
            ),
        }
    }
}

fn set_in(entries: &mut Vec<Entry>, key: &str, value: Value, line: usize) {
    match entries.iter_mut().find(|e| e.key == key) {
        Some(e) => e.value = value,
        None => entries.push(Entry {
            key: key.to_string(),
            value,
            line,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_tables() {
        let doc = parse(
            r#"
# a scenario
name = "demo"
seed = 7
duration_s = 2.5
strict = false

[scheduler]
kind = "tbr"
bucket_ms = 20

[[station]]
rate = "11"

[[station]]
rate = 5.5
fer = 0.02
"#,
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().value, Value::Str("demo".into()));
        assert_eq!(doc.get("seed").unwrap().value, Value::Int(7));
        assert_eq!(doc.get("duration_s").unwrap().value, Value::Float(2.5));
        assert_eq!(doc.get("strict").unwrap().value, Value::Bool(false));
        let sched = doc.table("scheduler").unwrap();
        assert_eq!(sched.get("kind").unwrap().value, Value::Str("tbr".into()));
        let stations = doc.array_tables("station");
        assert_eq!(stations.len(), 2);
        assert_eq!(stations[1].get("fer").unwrap().value, Value::Float(0.02));
    }

    #[test]
    fn parses_arrays_including_multiline() {
        let doc = parse("xs = [1, 2, 3]\nys = [\n  \"a\", # comment\n  \"b\",\n]\n").unwrap();
        assert_eq!(
            doc.get("xs").unwrap().value,
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            doc.get("ys").unwrap().value,
            Value::Array(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
    }

    /// The parser before values pulled their continuation lines: each
    /// time a value ran past the text so far, it re-parsed the joined
    /// lines from the start. Returns what it parsed and the lines after
    /// the first that it used.
    fn restart_reference(first: &str, rest: &[&str]) -> (Result<Value, ParseError>, usize) {
        let mut span = first.to_string();
        let mut used = 0;
        loop {
            let mut none = std::iter::empty();
            let mut cur = ValueCursor::new(&span, 1, &mut none);
            let e = match cur.parse_value() {
                Ok(v) => return (cur.finish().map(|_| v), used),
                Err(e) => e,
            };
            let continuable = e.msg.starts_with("unclosed array")
                || e.msg.starts_with("expected a value, found end of input");
            if !continuable || used == rest.len() {
                return (Err(e), used);
            }
            let (next, unclosed) = strip_comment(rest[used]);
            used += 1;
            if unclosed {
                return (
                    err(1 + used, "unclosed string; expected closing '\"'"),
                    used,
                );
            }
            span.push('\n');
            span.push_str(next);
        }
    }

    /// Pulling continuation lines on demand parses every value, and
    /// fails on every bad one, exactly as re-parsing the joined lines
    /// did, and uses the same lines.
    #[test]
    fn pulled_lines_parse_like_rejoined_ones() {
        const PARTS: &[&str] = &[
            "[", "]", ",", " ", "\t", "1", "2.5", "1_000", "-", "true", "nope", "\"s\"", "\"a#b\"",
            "\"\\\"\"", "\"open", "# note", "[1,", "]]", "", "0x1f",
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for _ in 0..20_000 {
            let lines: Vec<String> = (0..1 + next(6))
                .map(|_| (0..next(5)).map(|_| PARTS[next(PARTS.len())]).collect())
                .collect();
            let (first, rest) = (lines[0].as_str(), &lines[1..]);
            let rest: Vec<&str> = rest.iter().map(String::as_str).collect();
            let (want, want_used) = restart_reference(first, &rest);
            let mut more = rest.iter().copied().zip(2usize..);
            let mut cur = ValueCursor::new(first, 1, &mut more);
            let got = cur.parse_value().and_then(|v| cur.finish().map(|_| v));
            let used = rest.len() - more.count();
            assert_eq!(got, want, "for {lines:?}");
            if want.is_ok() {
                assert_eq!(used, want_used, "for {lines:?}");
            }
        }
    }

    #[test]
    fn quoted_and_dotted_keys() {
        let doc = parse("[sweep]\n\"station.1.rate\" = [1, 2]\nstation.0.fer = 0.5\n").unwrap();
        let sweep = doc.table("sweep").unwrap();
        assert!(sweep.get("station.1.rate").is_some());
        assert!(sweep.get("station.0.fer").is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, line, needle) in [
            ("a = \n", 1, "expected a value"),
            ("x = 1\ny = [1,\n", 2, "expected a value"),
            ("z = \"oops\n", 1, "unclosed string"),
            ("k = 1\nk = 2\n", 2, "set twice"),
            ("w = nope\n", 1, "unrecognised value"),
            ("[bad name]\n", 1, "bad table name"),
            ("[t]\n[t]\n", 2, "defined twice"),
            ("just words\n", 1, "expected 'key = value'"),
            ("a = 1 extra\n", 1, "unrecognised value"),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, line, "for {text:?}: {e}");
            assert!(e.msg.contains(needle), "for {text:?}: {e}");
        }
    }

    #[test]
    fn set_path_overrides() {
        let mut doc = parse(
            "seed = 1\n[scheduler]\nkind = \"fifo\"\n[[station]]\nrate = \"11\"\n[[station]]\nrate = \"11\"\n",
        )
        .unwrap();
        doc.set_path("seed", Value::Int(9), 0).unwrap();
        doc.set_path("scheduler.kind", Value::Str("tbr".into()), 0)
            .unwrap();
        doc.set_path("station.1.rate", Value::Str("1".into()), 0)
            .unwrap();
        doc.set_path("station.*.fer", Value::Float(0.05), 0)
            .unwrap();
        assert_eq!(doc.get("seed").unwrap().value, Value::Int(9));
        assert_eq!(
            doc.table("scheduler").unwrap().get("kind").unwrap().value,
            Value::Str("tbr".into())
        );
        let st = doc.array_tables("station");
        assert_eq!(st[0].get("rate").unwrap().value, Value::Str("11".into()));
        assert_eq!(st[1].get("rate").unwrap().value, Value::Str("1".into()));
        assert_eq!(st[0].get("fer").unwrap().value, Value::Float(0.05));
        assert_eq!(st[1].get("fer").unwrap().value, Value::Float(0.05));

        assert!(doc.set_path("station.5.rate", Value::Int(1), 3).is_err());
        assert!(doc.set_path("nosuch.key", Value::Int(1), 3).is_err());
    }

    #[test]
    fn sub_tables_attach_to_preceding_parent() {
        let doc = parse(
            "[[station]]\nrate = \"11\"\n[[station.flow]]\ntransport = \"tcp\"\n[[station.flow]]\ntransport = \"udp\"\n[[station]]\nrate = \"1\"\n",
        )
        .unwrap();
        let stations = doc.families("station").unwrap();
        assert_eq!(stations.len(), 2);
        assert_eq!(stations[0].children("flow").count(), 2);
        assert_eq!(stations[1].children("flow").count(), 0);
        // Other tables between a parent and its children do not end the
        // parent's range; the next parent does.
        let doc =
            parse("[[station]]\n[[cells]]\n[[station.mobility]]\n[[station]]\n[[station.flow]]\n")
                .unwrap();
        let stations = doc.families("station").unwrap();
        assert_eq!(stations[0].children("mobility").count(), 1);
        assert_eq!(stations[0].children("flow").count(), 0);
        assert_eq!(
            stations[1]
                .children("flow")
                .map(|t| t.line)
                .collect::<Vec<_>>(),
            [5]
        );
        // A sub-table above every parent belongs to none.
        let doc = parse("[[station.flow]]\n[[station]]\n").unwrap();
        let e = doc.families("station").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
        assert!(e.msg.contains("comes before every [[station]]"), "{e}");
    }
}
