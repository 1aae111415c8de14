//! Minimal JSON parsing and serialization for the service protocol.
//!
//! The wire format only needs objects, arrays, strings, 64-bit integers,
//! booleans and null — exactly what the query/facts endpoints exchange —
//! so a small hand-rolled parser in the offline-shims mold keeps the
//! service dependency-free. Numbers are parsed as `i64` (the engine's
//! [`recstep::Value`] domain); floats are rejected rather than silently
//! truncated.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value over the service's wire domain.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A 64-bit integer (floats are rejected at parse time).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps serialization deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, and a request body may hold millions of `[`,
/// so deeper input is an error rather than a stack overflow.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error, and so
    /// is nesting deeper than [`MAX_DEPTH`]).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut pos = 0;
        let v = parse_value(src, &mut pos, 0)?;
        skip_ws(src.as_bytes(), &mut pos);
        if pos != src.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// The object field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Array content, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

/// Serialize compactly (no whitespace); `to_string()` comes with it.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_value(self, &mut out);
        f.write_str(&out)
    }
}

/// Convenience: build a JSON object from key/value pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Convenience: escape-and-wrap a string literal.
pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Convenience: an integer value (anything that fits `i64`).
pub fn int(n: impl TryInto<i64>) -> Json {
    Json::Int(n.try_into().unwrap_or(i64::MAX))
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        )),
        Some(b'{') => parse_obj(s, pos, depth + 1),
        Some(b'[') => parse_arr(s, pos, depth + 1),
        Some(b'"') => parse_str(s, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_int(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at offset {pos}", *c as char)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_int(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if matches!(b.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
        return Err(format!(
            "floating-point numbers are not supported (offset {start})"
        ));
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ascii");
    text.parse::<i64>()
        .map(Json::Int)
        .map_err(|e| format!("bad integer '{text}': {e}"))
}

fn parse_str(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash as one slice:
        // both are ASCII, so the run ends on a char boundary of `s`.
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(&s[*pos..*pos + run]);
        *pos += run;
        if b[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        let esc = b.get(*pos + 1).ok_or("unterminated escape")?;
        *pos += 2;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = s
                    .get(*pos..*pos + 4)
                    .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                    .ok_or("bad \\u escape")?;
                let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                *pos += 4;
                // Surrogate pairs are out of scope for this protocol;
                // map them to the replacement character.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(format!("unknown escape '\\{}'", *other as char)),
        }
    }
}

fn parse_arr(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = parse_str(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        map.insert(key, parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn write_value(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let src = r#"{"program":"tc(x,y) :- arc(x,y).","rows":[[1,2],[3,-4]],"ok":true,"n":null}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(
            v.get("rows").unwrap().as_arr().unwrap()[1],
            Json::Arr(vec![Json::Int(3), Json::Int(-4)])
        );
        let re = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, re);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let s = v.to_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(
            Json::parse("9223372036854775807").unwrap().as_int(),
            Some(i64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap().as_int(),
            Some(i64::MIN)
        );
        assert!(Json::parse("9223372036854775808").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting deeper"));
        let deep_obj = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&deep_obj).is_err());
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past_cap).is_err());
    }

    #[test]
    fn long_mixed_string_roundtrips() {
        let mut text = String::new();
        while text.len() < 1 << 20 {
            text.push_str("aé∆😀\"\\\n\t\u{1}/x");
        }
        let v = Json::Str(text);
        let wire = v.to_string();
        assert_eq!(Json::parse(&wire).unwrap(), v);
        // Escapes the writer never emits decode too.
        assert_eq!(
            Json::parse(r#""\/\b\f\u00e9\u2206\ud83d""#).unwrap(),
            Json::Str("/\u{8}\u{c}é∆\u{fffd}".into())
        );
        assert!(Json::parse(r#""\u+abc""#).is_err());
        assert!(Json::parse(r#""\u00é""#).is_err());
    }

    /// Byte flips, truncations and insertions of structural bytes over
    /// valid `/query` and `/facts` bodies: `parse` never panics, and every
    /// document it accepts survives `to_string` → `parse` unchanged.
    #[test]
    fn mutated_bodies_never_panic_and_accepted_ones_roundtrip() {
        let seeds = [
            r#"{"program":"tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).","output":["tc"]}"#,
            r#"{"program":"cc(x, MIN(x)) :- arc(x, _).","limit":10,"explain":false}"#,
            r#"{"insert":{"arc":[[1,2],[2,3],[-4,9223372036854775807]]},"delete":{"arc":[[0,1]]}}"#,
            r#"{"delete":{"blocked":[[7]]},"note":"é∆ \"q\" \\ \u0041","x":null}"#,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..4000 {
            let mut bytes = seeds[round % seeds.len()].as_bytes().to_vec();
            for _ in 0..1 + next(3) {
                let at = next(bytes.len() + 1);
                match next(3) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << next(8),
                    1 => bytes.truncate(at),
                    _ => bytes.insert(at, b"[{\"\\-"[next(5)]),
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match Json::parse(&text) {
                Ok(v) => {
                    accepted += 1;
                    let wire = v.to_string();
                    assert_eq!(Json::parse(&wire).as_ref(), Ok(&v), "{text:?} -> {wire:?}");
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(
            accepted >= 100 && rejected >= 100,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
