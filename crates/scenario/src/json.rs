//! A small generic JSON value model with a strict parser and a canonical
//! writer — the same hand-rolled discipline as the `hotnoc-bench-v2` report
//! schema (the container has no registry access, so `serde_json` is not
//! available).
//!
//! The writer is **canonical**: object fields serialize in insertion order,
//! numbers that are mathematically integers (and fit `i64`) print without a
//! fractional part, and everything else uses Rust's shortest-roundtrip `f64`
//! formatting. Canonical output is what makes campaign artifacts
//! byte-comparable across thread counts and across resume boundaries: a
//! value parsed back from a manifest re-serializes to exactly the bytes it
//! was written as.

use std::collections::HashSet;
use std::fmt;

/// A parsed JSON value. Objects preserve field order (insertion order on
/// construction, document order after parsing).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers are exact up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object as an ordered field list (duplicate keys are rejected by
    /// the parser).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Convenience constructor for an integer value.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 2^53 (not exactly representable as `f64`).
    pub fn int(n: u64) -> Json {
        assert!(n <= (1 << 53), "integer {n} exceeds exact f64 range");
        Json::Num(n as f64)
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) if v.is_finite() => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v >= 0.0 && v.fract() == 0.0 && v <= (1u64 << 53) as f64).then_some(v as u64)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Required-field accessors used by the spec/schema decoders: a missing
    /// or wrongly-typed field becomes a contextual error message.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Required string field.
    pub fn req_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} is not a string"))
    }

    /// Required finite number field.
    pub fn req_f64(&self, key: &str) -> Result<f64, String> {
        self.req(key)?
            .as_f64()
            .ok_or_else(|| format!("field {key:?} is not a finite number"))
    }

    /// Required non-negative integer field.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
    }

    /// Required array field.
    pub fn req_array(&self, key: &str) -> Result<&[Json], String> {
        self.req(key)?
            .as_array()
            .ok_or_else(|| format!("field {key:?} is not an array"))
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax violation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// 64-bit FNV-1a hash of the canonical text, as 16 lowercase hex
    /// digits: two hosts agree on it iff they agree on the canonical bytes.
    pub(crate) fn fingerprint(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => out.push_str(&fmt_num(*v)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&esc(s));
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&esc(k));
                    out.push_str("\": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Canonical number formatting: integers (within `i64`) print without a
/// fractional part, everything else uses Rust's shortest-roundtrip `{}`
/// formatting (parse-format stable, which resume byte-identity relies on).
fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Maximum container nesting the parser accepts. Campaign documents nest a
/// handful of levels; the bound exists so hostile or garbage input fails
/// with a validation error instead of overflowing the stack (the parser
/// recurses per nesting level).
const MAX_DEPTH: usize = 128;

/// Minimal strict recursive-descent parser.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b" \t\r\n".contains(b))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = self.value_inner();
        self.depth -= 1;
        v
    }

    fn value_inner(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        let mut keys = HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hi = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // UTF-16 surrogate pair (how standard
                                // encoders escape non-BMP characters): the
                                // low half must follow immediately.
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err("unpaired high surrogate in \\u escape".into());
                                }
                                let lo = self.hex4(self.pos + 3)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate in \\u escape".into());
                                }
                                self.pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, which never occurs inside a multi-byte
                    // UTF-8 sequence, so the run is whole characters.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Four hex digits starting at byte `at`, as a code unit.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
            .map_err(|e| e.to_string())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_byte_stable() {
        let doc = Json::object(vec![
            ("name", Json::str("smoke")),
            ("seed", Json::int(42)),
            ("peak", Json::Num(85.44)),
            ("tiny", Json::Num(1.059e-6)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Array(vec![Json::int(1), Json::Num(-2.5), Json::str("a\"b")]),
            ),
            ("raw", Json::str("café 😀 \\ é")),
        ]);
        let text = doc.to_string();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
        // Canonical: a parsed document re-serializes to identical bytes.
        assert_eq!(parsed.to_string(), text);
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn float_formatting_roundtrips_exactly() {
        for v in [85.44, 1.0 / 3.0, 6.02e23, 1.059e-6, f64::MIN_POSITIVE] {
            let s = fmt_num(v);
            let back: f64 = s.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s}");
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // Standard encoders (e.g. Python's ensure_ascii) escape non-BMP
        // characters as UTF-16 surrogate pairs.
        let doc = Json::parse("{\"name\": \"\\ud83d\\ude00 sweep\"}").expect("parses");
        assert_eq!(doc.req_str("name").unwrap(), "\u{1F600} sweep");
        // Unpaired or malformed surrogates are rejected, not mangled.
        assert!(Json::parse("{\"a\": \"\\ud83d\"}").is_err());
        assert!(Json::parse("{\"a\": \"\\ud83d x\"}").is_err());
        assert!(Json::parse("{\"a\": \"\\ud83d\\u0041\"}").is_err());
        assert!(Json::parse("{\"a\": \"\\udc00\"}").is_err());
    }

    #[test]
    fn rejects_duplicate_keys_and_trailing_garbage() {
        assert!(Json::parse("{\"a\": 1, \"a\": 2}").is_err());
        let err = Json::parse("{\"a\": 1, \"b\": 2, \"a\": 3}").unwrap_err();
        assert_eq!(err, "duplicate key \"a\"");
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1, ]").is_err());
    }

    #[test]
    fn deep_nesting_fails_cleanly_instead_of_overflowing() {
        // Hostile/garbage input (e.g. 200k '[') must produce a validation
        // error, not a stack-overflow abort of the CLI.
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper"), "got: {err}");
        // Reasonable nesting still parses.
        let ok = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn long_strings_and_wide_objects_parse_in_linear_time() {
        // Parse time must stay linear in string length and object width:
        // `serve` accepts request lines of up to 4 MiB.
        let long = format!("\"{}é\"", "x".repeat(1 << 20));
        let wide = format!(
            "{{{}}}",
            (0..100_000)
                .map(|i| format!("\"k{i}\": {i}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let start = std::time::Instant::now();
        let s = Json::parse(&long).expect("long string parses");
        assert_eq!(s, Json::Str(format!("{}é", "x".repeat(1 << 20))));
        let o = Json::parse(&wide).expect("wide object parses");
        assert_eq!(o.req_u64("k99999").unwrap(), 99_999);
        let took = start.elapsed();
        assert!(took.as_secs_f64() < 2.0, "parsing took {took:?}");
    }

    #[test]
    fn accessors() {
        let doc = Json::parse("{\"s\": \"x\", \"n\": 3, \"a\": [1], \"b\": false}").unwrap();
        assert_eq!(doc.req_str("s").unwrap(), "x");
        assert_eq!(doc.req_u64("n").unwrap(), 3);
        assert_eq!(doc.req_array("a").unwrap().len(), 1);
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert!(doc.req_str("missing").is_err());
        assert!(doc.req_u64("s").is_err());
    }
}
