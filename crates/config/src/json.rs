//! The workspace's one JSON codec: a small [`Value`] tree, one strict
//! [`parse`], and one canonical string escaper ([`write_string`]).
//!
//! Every committed artifact (`CONTRACTS.json`, `BENCH_*.json`, the verify
//! report) and every `qei-served-v1` request line is read through
//! [`parse`], so all of them are held to the same rules, with no options:
//!
//! * the grammar is RFC 8259 and nothing more — no comments, no trailing
//!   commas, no leading zeros, no bytes after the document;
//! * duplicate object keys, raw control characters inside strings, unknown
//!   escapes, and `\u` escapes naming a surrogate are rejected (raw UTF-8
//!   passes through; the escaper never emits a surrogate escape);
//! * a number with no `-`, `.`, or exponent that fits in a `u64` parses
//!   exactly as [`Value::UInt`], so `u64::MAX` survives; every other number
//!   is a finite [`Value::Float`];
//! * arrays and objects nest at most [`MAX_DEPTH`] deep, so a hostile line
//!   of `[[[[…` fed to the daemon returns an error instead of overflowing
//!   the parser's stack.
//!
//! Rules that belong to one format — field sets, a schema tag that must
//! come first, integer narrowing — stay in that format's reader, which
//! walks the `Value`. Encoders never build a `Value`: each streams its
//! fixed layout straight into a `String` and calls [`write_string`] for
//! every string literal, so report bytes do not depend on this module's
//! data structures.
//!
//! `qei-trace` keeps its own escaper for the Chrome-trace export: that crate
//! has no dependencies, and making it depend on this one would rewrite the
//! lock file of the standalone benchmark package.
//!
//! # Example
//!
//! ```
//! use qei_config::json::{parse, quote, Value};
//!
//! let doc = parse(&format!("{{\"name\":{},\"n\":{}}}", quote("a\"b"), u64::MAX)).unwrap();
//! assert_eq!(doc.get("name"), Some(&Value::Str("a\"b".into())));
//! assert_eq!(doc.get("n"), Some(&Value::UInt(u64::MAX)));
//! assert!(parse("{\"k\":1,\"k\":2}").is_err());
//! ```

/// How deep arrays and objects may nest; deeper input is rejected.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON document, limited to the shapes the artifacts use.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer that fits in a `u64`, kept exact.
    UInt(u64),
    /// Any other number (always finite).
    Float(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's members in document order; keys are unique.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::UInt(_) => "unsigned integer",
            Value::Float(_) => "floating-point number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
}

/// Parses one JSON document under the rules in the module docs.
///
/// # Errors
///
/// A message naming the first violation and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(format!(
            "trailing bytes after the document (byte {})",
            p.pos
        ));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string: `\"`, `\\`, `\n`, `\r`,
/// `\t`, `\u00XX` for every other control character, and everything else
/// (non-ASCII included) verbatim.
pub fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// [`write_string`] into a fresh `String`.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_string(&mut out, s);
    out
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn eat_word(&mut self, word: &str) -> bool {
        let hit = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        self.pos += if hit { word.len() } else { 0 };
        hit
    }

    fn fail<T>(&self, wanted: &str) -> Result<T, String> {
        match self
            .text
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
        {
            Some(c) => Err(format!(
                "expected {wanted} at byte {}, found {c:?}",
                self.pos
            )),
            None => Err(format!("unexpected end of input, expected {wanted}")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ if self.eat_word("true") => Ok(Value::Bool(true)),
            _ if self.eat_word("false") => Ok(Value::Bool(false)),
            _ if self.eat_word("null") => Ok(Value::Null),
            _ => self.fail("a value"),
        }
    }

    /// Consumes an opening bracket at nesting level `depth`.
    fn open(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.open(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return self.fail("',' or ']'");
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        let start = self.pos;
        self.open(depth)?;
        let mut members = Vec::new();
        if !self.eat(b'}') {
            loop {
                self.skip_ws();
                if self.peek() != Some(b'"') {
                    return self.fail("a string key");
                }
                let key = self.string()?;
                self.skip_ws();
                if !self.eat(b':') {
                    return self.fail("':'");
                }
                members.push((key, self.value(depth)?));
                self.skip_ws();
                if self.eat(b'}') {
                    break;
                }
                if !self.eat(b',') {
                    return self.fail("',' or '}'");
                }
            }
        }
        // Sorting keeps the check O(n log n) on hostile many-key lines.
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!(
                "duplicate key \"{}\" in the object at byte {start}",
                pair[0]
            ));
        }
        Ok(Value::Obj(members))
    }

    /// A string literal; `pos` is on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b >= 0x20 && b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            // Stopped on an ASCII byte or the end: a char boundary.
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => {
                    return Err(format!(
                        "raw control character in a string at byte {}",
                        self.pos
                    ))
                }
                None => return Err("unexpected end of input inside a string".to_string()),
            }
        }
    }

    /// One escape sequence; `pos` is on its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        self.pos += 2;
        let c = match self.text.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let code = self
                    .text
                    .get(at + 2..at + 6)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                self.pos += 4;
                char::from_u32(code)
                    .ok_or_else(|| format!("\\u escape at byte {at} names a surrogate"))?
            }
            _ => return Err(format!("unknown escape at byte {at}")),
        };
        Ok(c)
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        if !self.eat(b'0') && !self.digits() {
            return self.fail("a digit");
        }
        let int_end = self.pos;
        if self.eat(b'.') && !self.digits() {
            return self.fail("a digit after '.'");
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _sign = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return self.fail("an exponent digit");
            }
        }
        let literal = &self.text[start..self.pos];
        if !negative && int_end == self.pos {
            if let Ok(n) = literal.parse() {
                return Ok(Value::UInt(n));
            }
        }
        match literal.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Float(f)),
            _ => Err(format!("number {literal} at byte {start} is out of range")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    /// A document using every shape the artifacts use.
    const DOC: &str = "{\n  \"schema\": \"x-v1\",\n  \"ok\": true,\n  \"none\": null,\n  \
        \"n\": [0, 18446744073709551615, -3, 2.5e-3],\n  \"s\": \"t\\u00e9\\n\\\"q\\\"\",\n  \
        \"o\": {\"k\": [], \"e\": {}}\n}\n";

    fn obj(members: &[(&str, Value)]) -> Value {
        Value::Obj(
            members
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn parses_every_shape_in_document_order() {
        let expected = obj(&[
            ("schema", Value::Str("x-v1".into())),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            (
                "n",
                Value::Arr(vec![
                    Value::UInt(0),
                    Value::UInt(u64::MAX),
                    Value::Float(-3.0),
                    Value::Float(0.0025),
                ]),
            ),
            ("s", Value::Str("té\n\"q\"".into())),
            (
                "o",
                obj(&[("k", Value::Arr(vec![])), ("e", Value::Obj(vec![]))]),
            ),
        ]);
        let doc = parse(DOC).unwrap();
        assert_eq!(doc, expected);
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Value::Null.get("ok"), None);
        assert_eq!(doc.get("n").and_then(|n| n.get("k")), None);
        assert_eq!(Value::UInt(3).as_f64(), Some(3.0));
        assert_eq!(Value::Str("3".into()).as_f64(), None);
    }

    #[test]
    fn numbers_split_into_exact_integers_and_floats() {
        assert_eq!(parse("0").unwrap(), Value::UInt(0));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        // One past u64::MAX, negatives, fractions, and exponents are floats.
        assert_eq!(
            parse("18446744073709551616").unwrap(),
            Value::Float(18446744073709551616.0)
        );
        assert_eq!(parse("-0").unwrap(), Value::Float(-0.0));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("1E2").unwrap(), Value::Float(100.0));
        assert_eq!(parse("1e+2").unwrap(), Value::Float(100.0));
        for bad in [
            "01", "-", "1.", ".5", "1e", "+1", "0x10", "1e999", "--1", "1.e3",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_what_rfc_8259_rejects() {
        for bad in [
            "",
            " ",
            "{} {}",
            "{} x",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\" 1}",
            "[1 2]",
            "'x'",
            "tru",
            "nul",
            "True",
            "\"open",
            "// c\n1",
            "\u{c}1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(parse(" \t\r\n[ ] \n").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn rejects_duplicates_control_characters_and_bad_escapes() {
        let err = parse("{\"k\":1,\"j\":2,\"k\":3}").unwrap_err();
        assert!(err.contains("duplicate key \"k\""), "{err}");
        assert!(parse("[{\"a\":{\"b\":1,\"b\":1}}]").is_err());
        let err = parse("\"a\nb\"").unwrap_err();
        assert!(err.contains("control character"), "{err}");
        assert!(parse("\"\u{1f}\"").is_err());
        let err = parse("\"\\q\"").unwrap_err();
        assert!(err.contains("unknown escape"), "{err}");
        let err = parse("\"\\ud83d\\ude00\"").unwrap_err();
        assert!(err.contains("surrogate"), "{err}");
        for bad in ["\"\\u12\"", "\"\\u+123\"", "\"\\u12g4\"", "\"\\", "\"\\u00"] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        // Every escape the grammar allows decodes.
        assert_eq!(
            parse("\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\uFFFF\"").unwrap(),
            Value::Str("\"\\/\u{8}\u{c}\n\r\té\u{ffff}".into())
        );
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn every_truncation_is_rejected() {
        // Cuts inside the trailing newline still hold a complete document.
        let end = DOC.trim_end().len();
        for cut in 0..end {
            if DOC.is_char_boundary(cut) {
                assert!(parse(&DOC[..cut]).is_err(), "cut at {cut}");
            }
        }
        assert!(parse(&DOC[..end]).is_ok());
    }

    #[test]
    fn mutated_documents_never_panic() {
        let mut rng = SimRng::seed_from_u64(0x15_0C0D);
        let printable: Vec<u8> = (0x20u8..0x7F).chain([b'\n', 0xC3, 0xA9]).collect();
        let mut accepted = 0;
        for _ in 0..400 {
            let mut bytes = DOC.as_bytes().to_vec();
            let pick = |rng: &mut SimRng| printable[rng.below(printable.len() as u64) as usize];
            match rng.below(4) {
                0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
                1 => {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] = pick(&mut rng);
                }
                2 => {
                    let at = rng.below(bytes.len() as u64 + 1) as usize;
                    bytes.insert(at, pick(&mut rng));
                }
                _ => {
                    bytes.remove(rng.below(bytes.len() as u64) as usize);
                }
            }
            if let Ok(text) = String::from_utf8(bytes) {
                accepted += usize::from(parse(&text).is_ok());
            }
        }
        // Some mutations (whitespace, digits) keep the document valid.
        assert!(accepted > 0);
    }

    #[test]
    fn the_escaper_round_trips_every_character_class() {
        let every_control: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslash/",
            "line\nbreak\rreturn\ttab",
            every_control.as_str(),
            "\u{7f} del, ünïcode, 日本, 😀, \u{2028}",
        ] {
            let quoted = quote(s);
            assert_eq!(
                parse(&quoted).unwrap(),
                Value::Str(s.to_string()),
                "{quoted}"
            );
        }
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}\u{1f}\r\t"), "\"\\u0001\\u001f\\r\\t\"");
        assert_eq!(quote("é"), "\"é\"");
        let mut out = String::from("x:");
        write_string(&mut out, "y");
        assert_eq!(out, "x:\"y\"");
    }
}
