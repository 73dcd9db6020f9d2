//! A minimal, dependency-free JSON codec for study reports.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `serde`/`serde_json` from a registry. This module is the stand-in: a
//! small [`Json`] value type with a deterministic compact emitter and a
//! strict recursive-descent parser. Determinism matters more than speed
//! here — the Study API's parallel-vs-sequential test compares reports
//! byte-for-byte, so object keys are emitted in insertion order and
//! numbers use Rust's shortest round-trip formatting.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Emitted with shortest-round-trip formatting, so parsing
    /// the emitted text recovers the exact `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (and therefore deterministic).
    Obj(Vec<(String, Json)>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a cap one hostile body of
/// nested `[` would overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 128;

/// A parse or shape error from the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with enough context to locate the problem.
    pub message: String,
    /// Which kind of error this is.
    pub kind: JsonErrorKind,
}

/// The kind of a [`JsonError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed text, or a value of the wrong shape.
    Invalid,
    /// Nesting deeper than [`MAX_DEPTH`]; `pos` is the byte offset of
    /// the bracket that opened the level past the cap.
    TooDeep {
        /// Byte offset of the offending `[` or `{`.
        pos: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn invalid(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
        kind: JsonErrorKind::Invalid,
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(invalid(message))
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of numbers from a float slice.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, or a shape error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a number (or one of
    /// the emitter's tagged non-finite strings, which decode back).
    pub fn as_num(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Str(s) if s == "NaN" => Ok(f64::NAN),
            Json::Str(s) if s == "+Inf" => Ok(f64::INFINITY),
            Json::Str(s) if s == "-Inf" => Ok(f64::NEG_INFINITY),
            other => err(format!("expected number for {what}, got {other:?}")),
        }
    }

    /// The value as a string slice, or a shape error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not a string.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string for {what}, got {other:?}")),
        }
    }

    /// The value as an array slice, or a shape error naming `what`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the value is not an array.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array for {what}, got {other:?}")),
        }
    }

    /// Fetches `key` from an object, erroring if absent.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if `self` is not an object or lacks the key.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => err(format!("missing field `{key}`")),
        }
    }

    /// Emits compact JSON text. Deterministic: key order is preserved and
    /// floats use shortest round-trip formatting.
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // `Display` for f64 is shortest-round-trip, like
                    // `Debug`, but drops the trailing `.0` on integers.
                    out.push_str(&format!("{v}"));
                } else {
                    // Non-finite values are not representable in strict
                    // JSON; encode them as tagged strings.
                    out.push('"');
                    out.push_str(if v.is_nan() {
                        "NaN"
                    } else if *v > 0.0 {
                        "+Inf"
                    } else {
                        "-Inf"
                    });
                    out.push('"');
                }
            }
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(JsonError {
            message: format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos),
            kind: JsonErrorKind::TooDeep { pos: *pos },
        });
    }
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes
        .get(*pos..)
        .is_some_and(|r| r.starts_with(word.as_bytes()))
    {
        *pos += word.len();
        Ok(value)
    } else {
        err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| invalid("truncated \\u escape"))
                            .and_then(|h| {
                                std::str::from_utf8(h).map_err(|_| invalid("non-ASCII \\u escape"))
                            })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| invalid(format!("bad \\u escape `{hex}`")))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a boundary).
                let rest = std::str::from_utf8(bytes.get(*pos..).unwrap_or(&[]))
                    .map_err(|_| invalid("invalid UTF-8"))?;
                match rest.chars().next() {
                    Some(c) => {
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                    None => return err("unterminated string"),
                }
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    ) {
        *pos += 1;
    }
    // The consumed range is all ASCII, so this never fails; an empty
    // or malformed span falls through to the number-parse error below.
    let text = bytes
        .get(start..*pos)
        .and_then(|s| std::str::from_utf8(s).ok())
        .unwrap_or("");
    match text.parse::<f64>() {
        Ok(v) => Ok(Json::Num(v)),
        Err(_) => err(format!("invalid number `{text}` at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_roundtrip() {
        let v = Json::obj(vec![
            ("name", Json::Str("study \"A\"\n".into())),
            ("count", Json::Num(3.0)),
            ("pi", Json::Num(0.1 + 0.2)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::nums(&[1.5, -2.25, 1e-9])),
        ]);
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e308, -0.0] {
            let text = Json::Num(v).emit();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(v.to_bits(), back.to_bits(), "{text}"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_numbers_roundtrip_via_tagged_strings() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let text = Json::Num(v).emit();
            let back = Json::parse(&text).unwrap().as_num("v").unwrap();
            assert_eq!(v.is_nan(), back.is_nan());
            if !v.is_nan() {
                assert_eq!(v, back, "{text}");
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nested_structures_parse() {
        let v = Json::parse(r#"{"a": [1, {"b": "c"}, null], "d": false}"#).unwrap();
        assert_eq!(v.field("a").unwrap().as_arr("a").unwrap().len(), 3);
        assert_eq!(v.field("d").unwrap(), &Json::Bool(false));
    }

    #[test]
    fn nesting_is_capped_with_a_positioned_error() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!(
            " {}{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let e = Json::parse(&past_cap).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep { pos: MAX_DEPTH + 1 });
        assert!(
            e.message.contains(&format!("byte {}", MAX_DEPTH + 1)),
            "{e}"
        );
        // A hostile body far past the cap fails the same way instead of
        // overflowing the stack; objects count toward the same cap.
        let hostile = "[".repeat(400 * 1024);
        let e = Json::parse(&hostile).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep { pos: MAX_DEPTH });
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(matches!(
            Json::parse(&objects).unwrap_err().kind,
            JsonErrorKind::TooDeep { .. }
        ));
        assert_eq!(
            Json::parse("[1,]").unwrap_err().kind,
            JsonErrorKind::Invalid
        );
    }

    #[test]
    fn key_order_is_preserved() {
        let v = Json::obj(vec![("z", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        assert_eq!(v.emit(), r#"{"z":1,"a":2}"#);
    }
}
