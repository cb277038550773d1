//! A minimal JSON reader for the wire protocol.
//!
//! The workspace is dependency-free by policy, so `svd` parses its
//! newline-delimited JSON requests with this ~200-line recursive-descent
//! reader instead of serde. It accepts standard JSON (objects, arrays,
//! strings with escapes, numbers, booleans, null) and rejects trailing
//! garbage; numbers are held as `f64`, which covers every id and knob the
//! protocol uses (integers up to 2^53 round-trip exactly).

use std::collections::BTreeMap;

/// The writer-side twin of [`parse`]: the workspace's one JSON string
/// escaper.
pub use sv_core::json_escape as escape;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is irrelevant to the protocol, so a sorted
    /// map keeps lookups simple.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if exact.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest container nesting the reader accepts. The parser is
/// recursive-descent, so without a bound an adversarial line of a few
/// kilobytes of `[` would overflow the stack and abort the process;
/// with it, deep nesting is a typed parse error like any other. 128
/// levels is far beyond anything the protocol produces (requests nest
/// three deep).
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { b: text.as_bytes(), at: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.b.len() && matches!(self.b[self.at], b' ' | b'\t' | b'\n' | b'\r') {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.b.get(self.at).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.at))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' | b'[' => {
                if self.depth >= MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.at
                    ));
                }
                self.depth += 1;
                let v = if self.b[self.at] == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.lit("true", Value::Bool(true)),
            b'f' => self.lit("false", Value::Bool(false)),
            b'n' => self.lit("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected `{}` at byte {}", c as char, self.at)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        if self.peek()? == b'}' {
            self.at += 1;
            return Ok(Value::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            m.insert(key, self.value()?);
            match self.peek()? {
                b',' => self.at += 1,
                b'}' => {
                    self.at += 1;
                    return Ok(Value::Obj(m));
                }
                c => return Err(format!("expected `,` or `}}`, got `{}`", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        if self.peek()? == b']' {
            self.at += 1;
            return Ok(Value::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek()? {
                b',' => self.at += 1,
                b']' => {
                    self.at += 1;
                    return Ok(Value::Arr(v));
                }
                c => return Err(format!("expected `,` or `]`, got `{}`", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.at)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.at += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.at)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.at..self.at + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-ascii \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.at += 4;
                            // Surrogate pairs are not needed by this
                            // protocol (loop text is ASCII); reject them
                            // rather than mis-decode.
                            let ch = char::from_u32(cp)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                            out.push(ch);
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the full sequence through.
                    let start = self.at - 1;
                    let len = utf8_len(c);
                    let end = start + len;
                    let chunk = self
                        .b
                        .get(start..end)
                        .ok_or_else(|| "truncated utf-8 sequence".to_string())?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(s);
                    self.at = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        if self.b[self.at] == b'-' {
            self.at += 1;
        }
        while self.at < self.b.len()
            && matches!(self.b[self.at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.at]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"verb":"compile","id":3,"opts":{"degrade":true,"slack":-2.5},"tags":["a","b"],"none":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("verb").unwrap().as_str(), Some("compile"));
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("opts").unwrap().get("degrade").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("opts").unwrap().get("slack"), Some(&Value::Num(-2.5)));
        assert_eq!(v.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("none"), Some(&Value::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in ["plain", "a\"b\\c", "line\nbreak\ttab", "unicode: é π", "ctrl\u{1}"] {
            let doc = format!("{{\"k\":\"{}\"}}", escape(s));
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str(), Some(s), "doc: {doc}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1} x", "\"unterminated", "{'a':1}"] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // Within the bound: parses fine.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // One past the bound — and far past it — must return an error,
        // never recurse to an abort.
        for depth in [MAX_DEPTH + 1, 100_000] {
            let bad = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            let e = parse(&bad).unwrap_err();
            assert!(e.contains("nesting deeper"), "{e}");
        }
    }

    #[test]
    fn numbers_and_ids() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap(), Value::Num(1000.0));
    }
}
