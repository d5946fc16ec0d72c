//! The workspace's one JSON codec: a minimal, fuzz-safe value parser
//! with a nesting cap, and string escaping for the hand-rolled
//! writers.
//!
//! The grammar is the subset the failure telemetry and the service
//! wire protocol need — objects, arrays, strings with escapes,
//! unsigned integers, `true`/`false`/`null`. [`crate::telemetry`]
//! parses its records with it and `metaform-service` parses request
//! bodies with it. Every index is bounds-checked and nesting is
//! capped: arbitrary bytes must produce `Err`, never a panic or a
//! stack overflow (`crates/service/tests/prop_wire.rs` fuzzes this).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number shape the protocol uses).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in arrival order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON value spanning the whole input.
    pub fn parse(src: &[u8]) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: src, at: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(value)
    }

    /// Field of an object, by name.
    pub fn field(&self, name: &str) -> Result<&JsonValue, String> {
        match self {
            JsonValue::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {name:?}")),
            _ => Err(format!("not an object (looking for {name:?})")),
        }
    }

    /// The string payload, or an error.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::Str(s) => Ok(s),
            _ => Err("expected a string".to_string()),
        }
    }

    /// The numeric payload, or an error.
    pub fn as_num(&self) -> Result<u64, String> {
        match self {
            JsonValue::Num(n) => Ok(*n),
            _ => Err("expected a number".to_string()),
        }
    }

    /// The array payload, or an error.
    pub fn as_arr(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Arr(items) => Ok(items),
            _ => Err("expected an array".to_string()),
        }
    }

    /// Serializes the value back to JSON text (compact, fields in
    /// arrival order). `parse(v.to_json()) == v` for every value this
    /// parser produces — the daemon uses this to re-frame a submission
    /// line as a `POST /v1/batches` body.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Str(s) => push_json_str(out, s),
            JsonValue::Arr(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (index, (name, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.push_str(", ");
                    }
                    push_json_str(out, name);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Nesting cap: deeper input is rejected rather than recursed into —
/// a hostile body must not blow the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\n' | b'\r' | b'\t') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn literal(&mut self, word: &[u8], value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.at..].starts_with(word) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.bytes.get(self.at) != Some(&b':') {
                        return Err(format!("expected ':' at byte {}", self.at));
                    }
                    self.at += 1;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(JsonValue::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.at)),
                    }
                }
            }
            Some(b) if b.is_ascii_digit() => {
                let start = self.at;
                while self.bytes.get(self.at).is_some_and(u8::is_ascii_digit) {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(JsonValue::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            _ => Err(format!("unexpected byte at {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.at));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad codepoint at byte {}", self.at))?,
                            );
                            self.at += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.at)),
                    }
                    self.at += 1;
                }
                Some(_) => {
                    let start = self.at;
                    while self
                        .bytes
                        .get(self.at)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.at += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.at])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parser_handles_escapes_and_depth() {
        let v =
            JsonValue::parse(r#"{"s": "a\"b\\c\ndé", "n": 7, "b": true, "z": null}"#.as_bytes())
                .expect("parses");
        assert_eq!(v.field("s").unwrap().as_str().unwrap(), "a\"b\\c\ndé");
        assert_eq!(v.field("n").unwrap().as_num().unwrap(), 7);
        assert_eq!(v.field("b").unwrap(), &JsonValue::Bool(true));
        assert_eq!(v.field("z").unwrap(), &JsonValue::Null);
        // Deep nesting is rejected, not recursed into.
        let deep = format!("{}{}", "[".repeat(200), "]".repeat(200));
        assert!(JsonValue::parse(deep.as_bytes()).is_err());
        // Escape round trip through our own writer.
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}é");
        let back = JsonValue::parse(out.as_bytes()).unwrap();
        assert_eq!(back.as_str().unwrap(), "a\"b\\c\nd\u{1}é");
    }

    #[test]
    fn to_json_round_trips_through_the_parser() {
        for src in [
            r#"{"pages": ["<form>a</form>", {"html": "x\"y\n", "revisit": true}], "n": 7}"#,
            r#"[null, true, false, 0, "", {}]"#,
            "\"a\\u0001b\"",
        ] {
            let value = JsonValue::parse(src.as_bytes()).expect("parses");
            let text = value.to_json();
            assert_eq!(JsonValue::parse(text.as_bytes()).unwrap(), value, "{src}");
        }
    }
}
