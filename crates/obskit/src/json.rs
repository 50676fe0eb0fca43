//! The workspace's one JSON module (no serde in-tree): writing helpers
//! for the sinks, the ledger and the wire, plus a small strict reader for
//! the documents that come back in — fault plans, model artifacts, wire
//! frames, journals and bench baselines.
//!
//! The reader is a pull [`Reader`] over the full JSON value grammar: a
//! decoder walks an object key by key, reads number arrays, strings and
//! numbers straight into its own fields, and skips what it does not
//! read, so a hot document (a wire reply, a model artifact) never becomes
//! a tree. [`parse`] is the reader's tree-building consumer, for the
//! documents that are easier to query as a [`Value`]. Both are strict
//! about structure (no trailing commas, no comments) and cap nesting at
//! [`MAX_DEPTH`], so hostile input gets a typed [`JsonError`] instead of
//! a stack overflow.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s);
    out
}

/// A quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

/// A JSON number literal. Non-finite floats have no JSON form and become
/// `null`; everything else round-trips via Rust's shortest representation.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    write_number(&mut out, v);
    out
}

/// Append `s` escaped for inclusion inside JSON double quotes. Runs of
/// bytes that need no escape are copied whole; every byte that does is
/// ASCII, so the runs end on character boundaries.
fn write_escaped(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Append `s` as a quoted, escaped JSON string literal.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_escaped(out, s);
    out.push('"');
}

/// Append `v` as a JSON number literal (`null` when not finite). `{:?}`
/// keeps a decimal point or exponent, so the value re-parses as the same
/// f64. An integral value below 2^53 in magnitude, which `{:?}` prints
/// as its digits then `.0`, is written that way without the float
/// formatter.
pub fn write_number(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < MAX_EXACT_INTEGER {
        // Exact: every integer below 2^53 converts without rounding.
        let mut n = v.abs() as u64;
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v.is_sign_negative() {
            out.push('-'); // -0.0 included: `{:?}` prints "-0.0"
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        out.push_str(".0");
    } else if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// 2^53: every integer below it is exactly representable as an `f64`.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// A parsed JSON value. Objects use a [`BTreeMap`], so re-serialization is
/// deterministic (keys sorted), which keeps written documents diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer below 2^53.
    /// Numbers are `f64`s, which hold every integer only up to there: a
    /// larger one may already have been rounded to a neighbour, so it is
    /// refused rather than read back as a different integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// Look up a key on an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Serialize back to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A JSON parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting a [`Reader`] accepts. Reading recurses
/// once per level, so without a cap a frame of `[[[[…` off the wire
/// overflows the stack and aborts the process. The deepest document the
/// workspace writes (a model artifact) is 4 levels.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (one top-level value, optionally
/// surrounded by whitespace) into a [`Value`] tree: the [`Reader`]'s
/// tree-building consumer.
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first problem,
/// including nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut reader = Reader::new(input);
    let value = reader.tree()?;
    reader.finish()?;
    Ok(value)
}

/// The kind of value a [`Reader`] is at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one JSON document: the caller walks the document
/// value by value and decodes each straight into its own fields, with no
/// [`Value`] tree in between.
///
/// Every read consumes exactly one value. A typed read of a value of
/// another kind skips that value and reports the mismatch (`None` or
/// `false`), so a decoder can record a field of the wrong type and still
/// read the rest; only malformed JSON is an error. Every value is
/// checked as strictly as [`parse`] checks it, skipped ones included, and
/// arrays and objects nest at most [`MAX_DEPTH`] levels, so a document
/// the reader walks to [`Reader::finish`] is exactly one [`parse`]
/// accepts.
///
/// ```
/// use obskit::json::Reader;
///
/// let mut r = Reader::new(r#"{"xs": [1, 2.5], "skip": {"a": null}, "s": "hi"}"#);
/// let (mut xs, mut s) = (Vec::new(), None);
/// r.object(|key, r| {
///     match key {
///         "xs" => {
///             r.numbers(&mut xs)?;
///         }
///         "s" => s = r.string()?,
///         _ => r.skip()?,
///     }
///     Ok(())
/// })?;
/// r.finish()?;
/// assert_eq!((xs, s.as_deref()), (vec![1.0, 2.5], Some("hi")));
/// # Ok::<(), obskit::json::JsonError>(())
/// ```
pub struct Reader<'a> {
    text: &'a str,
    /// Byte offset into `text`; always on a character boundary.
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The kind of the next value, after whitespace, or `None` when the
    /// next byte starts no JSON value (reading it is then an error).
    pub fn peek(&mut self) -> Option<Kind> {
        self.skip_ws();
        Some(match self.byte()? {
            b'{' => Kind::Obj,
            b'[' => Kind::Arr,
            b'"' => Kind::Str,
            b't' | b'f' => Kind::Bool,
            b'n' => Kind::Null,
            c if c == b'-' || c.is_ascii_digit() => Kind::Num,
            _ => return None,
        })
    }

    /// Walk an object key by key: `member(key, reader)` runs once per
    /// member in document order and must read or skip the member's
    /// value. Returns `false`, having skipped the value, when the next
    /// value is not an object.
    ///
    /// # Errors
    /// Malformed JSON, or an error `member` returns.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.peek() != Some(Kind::Obj) {
            self.skip()?;
            return Ok(false);
        }
        self.open()?;
        self.skip_ws();
        if self.byte() == Some(b'}') {
            return Ok(self.close());
        }
        loop {
            self.skip_ws();
            let key = self.string_text()?;
            self.skip_ws();
            self.expect(b':')?;
            member(&key, self)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => return Ok(self.close()),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Walk an array: `item(reader)` runs once per element in order and
    /// must read or skip it. Returns `false`, having skipped the value,
    /// when the next value is not an array.
    ///
    /// # Errors
    /// Malformed JSON, or an error `item` returns.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<bool, JsonError> {
        if self.peek() != Some(Kind::Arr) {
            self.skip()?;
            return Ok(false);
        }
        self.open()?;
        self.skip_ws();
        if self.byte() == Some(b']') {
            return Ok(self.close());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b']') => return Ok(self.close()),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Read an array of numbers into `out`, which is cleared first.
    /// Returns `false`, having skipped the whole value, when it is not an
    /// array or holds anything but numbers (`null` included); `out` then
    /// holds no meaningful values.
    ///
    /// # Errors
    /// Malformed JSON.
    pub fn numbers(&mut self, out: &mut Vec<f64>) -> Result<bool, JsonError> {
        out.clear();
        let mut all = true;
        let array = self.array(|r| {
            if all && r.peek() == Some(Kind::Num) {
                out.push(r.num()?);
                Ok(())
            } else {
                all = false;
                r.skip()
            }
        })?;
        Ok(array && all)
    }

    /// Read a number; `None`, having skipped the value, for any other
    /// kind.
    ///
    /// # Errors
    /// Malformed JSON.
    pub fn number(&mut self) -> Result<Option<f64>, JsonError> {
        if self.peek() == Some(Kind::Num) {
            self.num().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Read a non-negative integer below 2^53 (the rule of
    /// [`Value::as_u64`]); `None`, having read or skipped the value, for
    /// any other number or kind.
    ///
    /// # Errors
    /// Malformed JSON.
    pub fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        Ok(self.number()?.and_then(exact_u64))
    }

    /// Read a string; `None`, having skipped the value, for any other
    /// kind.
    ///
    /// # Errors
    /// Malformed JSON.
    pub fn string(&mut self) -> Result<Option<String>, JsonError> {
        if self.peek() == Some(Kind::Str) {
            self.string_text().map(|s| Some(s.into_owned()))
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Skip the next value, checking it as strictly as reading it.
    ///
    /// # Errors
    /// Malformed JSON.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(Kind::Obj) => self.object(|_, r| r.skip()).map(drop),
            Some(Kind::Arr) => self.array(Self::skip).map(drop),
            Some(Kind::Str) => self.string_text().map(drop),
            Some(Kind::Num) => self.num().map(drop),
            Some(Kind::Bool | Kind::Null) => self.literal().map(drop),
            None => Err(self.err("expected a JSON value")),
        }
    }

    /// End the document: only whitespace may follow the value read.
    ///
    /// # Errors
    /// Trailing data after the top-level value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing data after top-level value"))
        }
    }

    /// Read the next value whole, as a tree.
    fn tree(&mut self) -> Result<Value, JsonError> {
        Ok(match self.peek() {
            Some(Kind::Obj) => {
                let mut map = BTreeMap::new();
                self.object(|key, r| {
                    let value = r.tree()?;
                    map.insert(key.to_string(), value);
                    Ok(())
                })?;
                Value::Obj(map)
            }
            Some(Kind::Arr) => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.tree()?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Some(Kind::Str) => Value::Str(self.string_text()?.into_owned()),
            Some(Kind::Num) => Value::Num(self.num()?),
            Some(Kind::Bool | Kind::Null) => self.literal()?,
            None => return Err(self.err("expected a JSON value")),
        })
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.byte() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    /// Step into the array or object at `pos`, one level deeper, refusing
    /// to go past [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Step past the closing bracket at `pos`; always `true`, the
    /// container walks' answer for a value of their kind.
    fn close(&mut self) -> bool {
        self.depth -= 1;
        self.pos += 1;
        true
    }

    fn literal(&mut self) -> Result<Value, JsonError> {
        let (word, value) = match self.byte() {
            Some(b't') => ("true", Value::Bool(true)),
            Some(b'f') => ("false", Value::Bool(false)),
            _ => ("null", Value::Null),
        };
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn num(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.byte(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match exact_integer(text) {
            Some(v) => Ok(v),
            None => text
                .parse::<f64>()
                .map_err(|_| self.err(&format!("bad number `{text}`"))),
        }
    }

    /// The string at `pos`, borrowed from the input when it holds no
    /// escape.
    fn string_text(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let text = self.text;
        let start = self.pos;
        let plain = text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        if let Some(len) = plain {
            if text.as_bytes()[start + len] == b'"' {
                self.pos = start + len + 1;
                return Ok(Cow::Borrowed(&text[start..start + len]));
            }
        }
        let mut out = String::new();
        loop {
            // Copy the run of characters up to the next quote or escape in
            // one slice (both are ASCII, so the run ends on a character
            // boundary), keeping a long string linear in its length.
            let run = self.pos;
            while !matches!(self.byte(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&text[run..self.pos]);
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    self.pos += 1;
                    match self.byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are replaced, not paired — no
                            // document the workspace writes contains them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

/// `n` as a `u64` if it is a non-negative integer below 2^53.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n < MAX_EXACT_INTEGER).then_some(n as u64)
}

/// A number token read from its digits, when it is an integer below 2^53
/// in magnitude, bare or with a trailing `.0`: the bits
/// `str::parse::<f64>` gives (`-0` included), without the float parser.
/// Every other token is left to that parser.
fn exact_integer(token: &str) -> Option<f64> {
    let (negative, magnitude) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let digits = magnitude.strip_suffix(".0").unwrap_or(magnitude);
    // Sixteen digits cannot overflow a u64; more are left to the parser.
    if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let n = digits
        .bytes()
        .fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
    // Exact: every integer below 2^53 converts without rounding.
    let v = (n < 1 << 53).then_some(n as f64)?;
    Some(if negative { -v } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    /// The writer as it was before `Value::write` formatted in place: one
    /// `String` per number, string and key.
    fn per_value_json(v: &Value) -> String {
        fn escape_chars(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let join = |parts: Vec<String>| parts.join(",");
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::Num(n) if n.is_finite() => format!("{n:?}"),
            Value::Num(_) => "null".into(),
            Value::Str(s) => format!("\"{}\"", escape_chars(s)),
            Value::Arr(items) => format!("[{}]", join(items.iter().map(per_value_json).collect())),
            Value::Obj(map) => format!(
                "{{{}}}",
                join(
                    map.iter()
                        .map(|(k, v)| format!("\"{}\":{}", escape_chars(k), per_value_json(v)))
                        .collect()
                )
            ),
        }
    }

    #[test]
    fn in_place_writer_matches_per_value_formatting() {
        let nums = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e300,
            -1e300,
            f64::MAX,
            0.1,
            1.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            18_446_744_073_709_551_616.0,
            -9_007_199_254_740_996.0,
            42.0,
        ];
        let text = "plain \"q\" back\\slash \n\r\t \u{1}\u{1f} é ß \u{7f} 日本";
        let mut obj = BTreeMap::new();
        obj.insert(
            text.to_string(),
            Value::Arr(nums.iter().map(|&n| Value::Num(n)).collect()),
        );
        obj.insert("".into(), Value::Str(String::new()));
        obj.insert("s".into(), Value::Str(text.into()));
        obj.insert("\u{0}k\"".into(), Value::Null);
        obj.insert(
            "nested".into(),
            Value::Arr(vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Obj(BTreeMap::new()),
            ]),
        );
        let doc = Value::Obj(obj);
        assert_eq!(doc.to_json(), per_value_json(&doc));
        for &n in &nums {
            assert_eq!(
                Value::Num(n).to_json(),
                per_value_json(&Value::Num(n)),
                "{n:?}"
            );
            assert_eq!(number(n), per_value_json(&Value::Num(n)), "{n:?}");
        }
        assert_eq!(string(text), per_value_json(&Value::Str(text.into())));
    }

    #[test]
    fn integer_fast_path_prints_what_debug_prints() {
        let debug = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        };
        // splitmix64: a fixed, seedable stream of 64-bit words.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            MAX_EXACT_INTEGER - 1.0,
            -(MAX_EXACT_INTEGER - 1.0),
            MAX_EXACT_INTEGER,
            -MAX_EXACT_INTEGER,
            1e15,
            1e16,
            -1e16,
            0.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for _ in 0..20_000 {
            let word = next();
            // An integer below 2^53 of either sign, of any digit count.
            let digits = (word >> 58) % 17;
            let magnitude = (word & ((1 << 53) - 1)) % 10u64.pow(digits as u32).max(1);
            let sign = if word >> 57 & 1 == 1 { -1.0 } else { 1.0 };
            values.push(sign * magnitude as f64);
            // Any bit pattern: subnormals, NaN payloads, huge exponents.
            values.push(f64::from_bits(next()));
        }
        for v in values {
            let mut out = String::new();
            write_number(&mut out, v);
            assert_eq!(out, debug(v), "{:#018x}", v.to_bits());
        }
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny"}, "d": true, "e": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Null));
    }

    #[test]
    fn roundtrips_through_to_json() {
        let src = r#"{"rules":[{"design":"d \"q\"","p":0.5}],"seed":42.0}"#;
        let v = parse(src).unwrap();
        let again = parse(&v.to_json()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let e = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.pos, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        // Far past the cap: this input overflows an uncapped parser's stack.
        let e = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_with_escapes_and_multibyte_characters() {
        let text = format!("é\"{}\\ü\n{}", "a".repeat(200_000), "ß");
        let doc = format!("{{\"t\":\"{}\",\"u\":\"\\u00e9x\"}}", escape(&text));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("t").unwrap().as_str(), Some(text.as_str()));
        assert_eq!(v.get("u").unwrap().as_str(), Some("éx"));
        assert!(parse("\"ab\\u00\"").is_err());
    }

    /// The recursive-descent parser `parse` was before it became the
    /// reader's tree-building consumer, kept as the reference the reader
    /// is checked against.
    mod former {
        use super::super::{JsonError, Value, MAX_DEPTH};
        use std::collections::BTreeMap;

        pub fn parse(input: &str) -> Result<Value, JsonError> {
            let mut p = Parser {
                text: input,
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos != input.len() {
                return Err(p.err("trailing data after top-level value"));
            }
            Ok(v)
        }

        struct Parser<'a> {
            text: &'a str,
            pos: usize,
            depth: usize,
        }

        impl Parser<'_> {
            fn err(&self, message: &str) -> JsonError {
                JsonError {
                    pos: self.pos,
                    message: message.to_string(),
                }
            }

            fn peek(&self) -> Option<u8> {
                self.text.as_bytes().get(self.pos).copied()
            }

            fn skip_ws(&mut self) {
                while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                    self.pos += 1;
                }
            }

            fn expect(&mut self, c: u8) -> Result<(), JsonError> {
                if self.peek() == Some(c) {
                    self.pos += 1;
                    Ok(())
                } else {
                    Err(self.err(&format!("expected `{}`", c as char)))
                }
            }

            fn value(&mut self) -> Result<Value, JsonError> {
                match self.peek() {
                    Some(b'{') => self.nested(Self::object),
                    Some(b'[') => self.nested(Self::array),
                    Some(b'"') => Ok(Value::Str(self.string()?)),
                    Some(b't') => self.literal("true", Value::Bool(true)),
                    Some(b'f') => self.literal("false", Value::Bool(false)),
                    Some(b'n') => self.literal("null", Value::Null),
                    Some(c) if c == b'-' || c.is_ascii_digit() => self.num(),
                    _ => Err(self.err("expected a JSON value")),
                }
            }

            fn nested(
                &mut self,
                container: fn(&mut Self) -> Result<Value, JsonError>,
            ) -> Result<Value, JsonError> {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = container(self);
                self.depth -= 1;
                value
            }

            fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
                if self.text[self.pos..].starts_with(word) {
                    self.pos += word.len();
                    Ok(value)
                } else {
                    Err(self.err(&format!("expected `{word}`")))
                }
            }

            fn num(&mut self) -> Result<Value, JsonError> {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    self.pos += 1;
                }
                let text = &self.text[start..self.pos];
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| self.err(&format!("bad number `{text}`")))
            }

            fn string(&mut self) -> Result<String, JsonError> {
                self.expect(b'"')?;
                let mut out = String::new();
                loop {
                    let run = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[run..self.pos]);
                    match self.peek() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(out);
                        }
                        _ => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => out.push('"'),
                                Some(b'\\') => out.push('\\'),
                                Some(b'/') => out.push('/'),
                                Some(b'n') => out.push('\n'),
                                Some(b'r') => out.push('\r'),
                                Some(b't') => out.push('\t'),
                                Some(b'b') => out.push('\u{8}'),
                                Some(b'f') => out.push('\u{c}'),
                                Some(b'u') => {
                                    let hex = self
                                        .text
                                        .get(self.pos + 1..self.pos + 5)
                                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                                    let code = u32::from_str_radix(hex, 16)
                                        .map_err(|_| self.err("bad \\u escape"))?;
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    self.pos += 4;
                                }
                                _ => return Err(self.err("bad escape")),
                            }
                            self.pos += 1;
                        }
                    }
                }
            }

            fn array(&mut self) -> Result<Value, JsonError> {
                self.expect(b'[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }

            fn object(&mut self) -> Result<Value, JsonError> {
                self.expect(b'{')?;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.value()?;
                    map.insert(key, value);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
        }
    }

    /// splitmix64: a fixed, seedable stream of 64-bit words.
    fn words(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// `parse` and the former parser agree on `text`: the same tree
    /// (`Debug` tells `-0.0` from `0.0`) or the same error.
    fn agrees_with_the_former_parser(text: &str) {
        let now = parse(text).map(|v| format!("{v:?}"));
        let then = former::parse(text).map(|v| format!("{v:?}"));
        assert_eq!(now, then, "{text:?}");
    }

    #[test]
    fn the_tree_consumer_parses_what_the_former_parser_did() {
        let doc = r#" {"a": [1, -0, -0.0, 2.5e-3, 1E400, 9007199254740993, 007, [], {}],
            "s": "q\"\\\/\b\f\n\r\t\u00e9 \ud800 日本", "t": true, "f": false, "n": null,
            "o": {"a": 1, "a": [null, "x"], "": {"deep": [[[{"k": []}]]]}}} "#;
        let mut cases: Vec<String> = vec![doc.to_string()];
        // Every cut, and every single-byte deletion.
        for (i, _) in doc.char_indices() {
            cases.push(doc[..i].to_string());
            let next = doc[i..].chars().next().map_or(0, char::len_utf8);
            cases.push(format!("{}{}", &doc[..i], &doc[i + next..]));
        }
        for n in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
            cases.push(format!("{}{}", "[".repeat(n), "]".repeat(n)));
            cases.push(format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n)));
            cases.push(format!(
                "{}\"x\"{}",
                "[{\"k\":".repeat(n / 2),
                "}]".repeat(n / 2)
            ));
        }
        // Bad documents, and whitespace alone.
        let bad = r#"[1,] {"a"_1} {"a":1,} [1_2] 1_2 tru nul - 1e --1 1.0.0 "\x" "\u12"
            "\uzzzz" {1:2} []] {}_{}"#;
        cases.extend(bad.split_whitespace().map(|b| b.replace('_', " ")));
        cases.extend([String::new(), " ".into()]);
        // Soup of JSON's own bytes.
        let alphabet = b"[]{}:,\" \\-0123456789.eE+truefalsn";
        let mut next = words(0x5eed_0001);
        for _ in 0..20_000 {
            let len = (next() % 24) as usize;
            let soup: String = (0..len)
                .map(|_| char::from(alphabet[(next() % alphabet.len() as u64) as usize]))
                .collect();
            cases.push(soup);
        }
        for text in &cases {
            agrees_with_the_former_parser(text);
        }
    }

    #[test]
    fn integer_tokens_read_from_digits_match_the_float_parser() {
        let mut next = words(0x5eed_0002);
        // The empty token, then the awkward ones.
        let awkward = "0 -0 0.0 -0.0 00 -00.0 1 -1 9007199254740991 -9007199254740991 \
                       9007199254740992 9007199254740993 9007199254740991.0 0000000000000001 \
                       00000000000000001 9999999999999999 10000000000000000 1. -.0 .0 1.00 \
                       1.5 1e3 - 1-2";
        let mut tokens: Vec<String> = std::iter::once("")
            .chain(awkward.split_whitespace())
            .map(str::to_string)
            .collect();
        for _ in 0..50_000 {
            let word = next();
            // An integer of any digit count, either sign, maybe `.0`.
            let digits = 1 + (word % 18) as usize;
            let mut t: String = (0..digits)
                .map(|_| char::from(b'0' + (next() % 10) as u8))
                .collect();
            if word >> 60 & 1 == 1 {
                t.insert(0, '-');
            }
            if word >> 61 & 1 == 1 {
                t.push_str(".0");
            }
            tokens.push(t);
            // Any token of the number alphabet.
            let alphabet = b"-0123456789.eE+";
            let len = 1 + (next() % 8) as usize;
            tokens.push(
                (0..len)
                    .map(|_| char::from(alphabet[(next() % alphabet.len() as u64) as usize]))
                    .collect(),
            );
        }
        let mut fast = 0;
        for t in &tokens {
            let parsed = t.parse::<f64>().ok();
            if let Some(v) = exact_integer(t) {
                fast += 1;
                assert_eq!(Some(v.to_bits()), parsed.map(f64::to_bits), "{t:?}");
            }
            let read = Reader::new(t).number().ok().flatten();
            if t.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
                assert_eq!(read.map(f64::to_bits), parsed.map(f64::to_bits), "{t:?}");
            }
        }
        assert!(
            fast > tokens.len() / 4,
            "the fast path was taken {fast} times"
        );
    }

    #[test]
    fn typed_reads_skip_values_of_another_kind() {
        let text = r#"{"n": "1", "s": 2, "xs": [1, null, 3], "o": [1], "a": {"k": [1]}, "u": 1.5}"#;
        let mut r = Reader::new(text);
        let mut seen = Vec::new();
        let mut xs = Vec::new();
        assert!(r
            .object(|key, r| {
                let got = match key {
                    "n" => format!("{:?}", r.number()?),
                    "s" => format!("{:?}", r.string()?),
                    "xs" => format!("{:?}", r.numbers(&mut xs)?),
                    "o" => format!("{:?}", r.object(|_, r| r.skip())?),
                    "a" => format!("{:?}", r.array(Reader::skip)?),
                    _ => format!("{:?}", r.u64()?),
                };
                seen.push(format!("{key}={got}"));
                Ok(())
            })
            .unwrap());
        r.finish().unwrap();
        assert_eq!(
            seen,
            ["n=None", "s=None", "xs=false", "o=false", "a=false", "u=None"]
        );
        // A skipped value is still checked: bad JSON inside it fails.
        let mut r = Reader::new(r#"{"s": 2, "bad": [1, tru]}"#);
        assert!(r.object(|_, r| r.string().map(drop)).is_err());
        let mut r = Reader::new("[1] 2");
        r.skip().unwrap();
        assert_eq!(r.finish().unwrap_err().pos, 4);
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        let max = (1u64 << 53) - 1;
        assert_eq!(parse(&max.to_string()).unwrap().as_u64(), Some(max));
        for too_big in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
        ] {
            assert_eq!(parse(too_big).unwrap().as_u64(), None, "{too_big}");
        }
    }
}
