//! The workspace's one JSON module (no serde in-tree): writing helpers
//! for the sinks and the ledger, plus a small strict reader for the
//! documents that come back in — fault plans, checkpoint metadata, model
//! artifacts, wire frames, journals and bench baselines.
//!
//! The reader is a recursive-descent parser over the full JSON value
//! grammar; it is strict about structure (no trailing commas, no comments)
//! and caps nesting at [`MAX_DEPTH`], so hostile input gets a typed
//! [`JsonError`] instead of a stack overflow.

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
/// deterministic (keys sorted), which keeps checkpoint files diffable.
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
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < MAX_EXACT_INTEGER => {
                Some(*n as u64)
            }
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

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap a frame of `[[[[…` off the wire
/// overflows the stack and aborts the process. The deepest document the
/// workspace writes (a model artifact) is 4 levels.
pub const MAX_DEPTH: usize = 64;

/// Parse a complete JSON document (one top-level value, optionally
/// surrounded by whitespace).
///
/// # Errors
/// Returns a [`JsonError`] with the byte offset of the first problem,
/// including nesting deeper than [`MAX_DEPTH`].
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
    /// Byte offset into `text`; always on a character boundary.
    pos: usize,
    /// Arrays/objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    /// Parse one array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
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
            // Copy the run of characters up to the next quote or escape in
            // one slice (both are ASCII, so the run ends on a character
            // boundary), keeping a long string linear in its length.
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
