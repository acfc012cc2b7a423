//! Deterministic JSON encoding for the grid artifacts.
//!
//! The machine-readable artifacts the CI pipeline gates on are encoded
//! by this module: a small JSON value type, a byte-deterministic
//! emitter, and a parser. The workspace uses no `serde`, because
//! determinism is a hard requirement `serde_json` would not promise as
//! a contract — the shard-invariance gate compares artifact *bytes*
//! across thread counts — so the emitter pins key order (insertion
//! order of [`Json::Obj`]) and number formatting (Rust's shortest
//! round-trip `Display`, which `parse::<f64>()` inverts exactly).

use std::fmt::Write as _;

/// A JSON document. Objects preserve insertion order; all numbers are
/// `f64` (every count this workspace serializes is < 2^53, so the
/// mapping is exact).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Error from parsing or typed decoding.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// The number value, if any.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(v) => Ok(*v),
            other => err(format!("expected number, got {}", other.kind())),
        }
    }

    /// The number value as an exact unsigned integer.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let v = self.as_f64()?;
        if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) {
            Ok(v as u64)
        } else {
            err(format!("expected unsigned integer, got {v}"))
        }
    }

    /// The bool value, if any.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {}", other.kind())),
        }
    }

    /// The string value, if any.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.kind())),
        }
    }

    /// The array elements, if any.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, got {}", other.kind())),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Serialize to a deterministic pretty-printed string (2-space
    /// indent, `\n` line ends, trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize to a deterministic single-line string (no spaces, no
    /// newline) — the wire form of line-delimited protocols. Parsing a
    /// compact document and re-emitting it with [`Json::to_pretty`]
    /// reproduces the pretty bytes exactly (and vice versa): both
    /// emitters share the same key order and number formatting, so the
    /// two forms are interchangeable representations of the same value.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON artifacts must hold finite numbers");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON artifacts must hold finite numbers");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        err(format!(
            "expected `{}` at byte {}, got {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number slice");
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        _ => err(format!("invalid number `{text}` at byte {start}")),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                            .ok_or_else(|| JsonError("bad \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError(format!("bad \\u escape `{hex}`")))?;
                        // Surrogate pairs never occur in this workspace's
                        // artifacts (ASCII labels); reject rather than
                        // mis-decode.
                        let c = char::from_u32(code)
                            .ok_or_else(|| JsonError(format!("unpaired surrogate \\u{hex}")))?;
                        out.push(c);
                        *pos += 4;
                    }
                    other => return err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the maximal run up to the next quote or
                // escape in one shot — one UTF-8 validation per run,
                // not per character (per-character revalidation of the
                // remainder made parsing quadratic).
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError("invalid utf-8 in string".into()))?;
                out.push_str(run);
            }
        }
    }
}

/// Types that encode themselves as [`Json`].
pub trait ToJson {
    /// Deterministic JSON form.
    fn to_json(&self) -> Json;
}

/// Types that decode themselves from [`Json`].
pub trait FromJson: Sized {
    /// Parse from the JSON form produced by [`ToJson`].
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str("Heat-irt \"ws\"\n".into())),
            ("count".into(), Json::Num(3.0)),
            ("share".into(), Json::Num(0.004)),
            ("neg".into(), Json::Num(-1.5e-9)),
            ("flag".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.25)]),
            ),
            ("empty".into(), Json::Arr(vec![])),
        ])
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let first = doc().to_pretty();
        let reparsed = Json::parse(&first).unwrap();
        assert_eq!(reparsed, doc());
        assert_eq!(reparsed.to_pretty(), first);
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for v in [0.004, 1.0 / 3.0, 6.02e23, 123456789.123456, 1e-12] {
            let text = Json::Num(v).to_pretty();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn accessors_and_errors() {
        let d = doc();
        assert_eq!(d.field("count").unwrap().as_u64().unwrap(), 3);
        assert_eq!(
            d.field("name").unwrap().as_str().unwrap().chars().count(),
            14
        );
        assert!(d.field("missing").is_err());
        assert!(
            d.field("share").unwrap().as_u64().is_err(),
            "0.004 not integral"
        );
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("1e999").is_err(), "non-finite rejected");
    }

    #[test]
    fn escapes_parse_back() {
        let j = Json::parse(r#""aA\t\\\"""#).unwrap();
        assert_eq!(j.as_str().unwrap(), "aA\t\\\"");
    }

    #[test]
    fn compact_is_single_line_and_interchangeable_with_pretty() {
        let compact = doc().to_compact();
        assert!(!compact.contains('\n'), "wire form must be one line");
        assert!(!compact.contains(": "), "no pretty separators");
        let reparsed = Json::parse(&compact).unwrap();
        assert_eq!(reparsed, doc());
        // Round-tripping between the two emitters is lossless at the
        // byte level in both directions.
        assert_eq!(reparsed.to_pretty(), doc().to_pretty());
        assert_eq!(
            Json::parse(&doc().to_pretty()).unwrap().to_compact(),
            compact
        );
    }
}
