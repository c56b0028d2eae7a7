//! Minimal JSON *reader* (the environment has no serde_json).
//!
//! The input side of [`JsonBuf`](crate::json::JsonBuf): parse a
//! document into a [`JsonValue`] tree and walk it with [`JsonValue::get`] /
//! [`JsonValue::as_f64`] and the public variants. Parsing is linear in the
//! input and its recursion is bounded by `MAX_DEPTH`, so a file read from
//! disk can make it fail but not abort.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The workspace
/// writes a handful of levels; the bound keeps a hostile document from
/// overflowing the parsing thread's stack.
const MAX_DEPTH: usize = 256;

/// A parsed JSON value. Objects use a sorted map so traversal order (and
/// any re-rendering) is deterministic regardless of input order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced by the workspace writer for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(c) = self.peek() {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(m));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(a));
        }
        loop {
            self.skip_ws();
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(a));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one slice:
            // both are ASCII, so the cut lands on a char boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            s.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(s);
            }
            match self.peek() {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'/') => s.push('/'),
                Some(b'n') => s.push('\n'),
                Some(b'r') => s.push('\r'),
                Some(b't') => s.push('\t'),
                Some(b'b') => s.push('\u{8}'),
                Some(b'f') => s.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    // Surrogate pairs are not produced by the workspace
                    // writer; map them to U+FFFD.
                    s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {:?}", other.map(|b| b as char))),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: &JsonValue, key: &str) -> Option<f64> {
        v.get(key).and_then(JsonValue::as_f64)
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v =
            JsonValue::parse(r#"{"a":1.5,"b":[true,null,"x\n"],"c":{"d":-2e3},"e":""}"#).unwrap();
        assert_eq!(num(&v, "a"), Some(1.5));
        assert_eq!(
            v.get("b"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Bool(true),
                JsonValue::Null,
                JsonValue::Str("x\n".into()),
            ]))
        );
        assert_eq!(v.get("c").and_then(|c| num(c, "d")), Some(-2000.0));
        assert_eq!(v.get("e"), Some(&JsonValue::Str(String::new())));
        // Lookups on the wrong shape answer `None`, they do not panic.
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("a").and_then(|a| a.get("x")), None);
        assert_eq!(v.get("e").and_then(JsonValue::as_f64), None);
    }

    #[test]
    fn field_filter_selects_matching_array_element() {
        // What `tiers[ranks=4096].rate` is without a selector language.
        let v = JsonValue::parse(r#"{"tiers":[{"ranks":1024,"rate":10},{"ranks":4096,"rate":7}]}"#)
            .unwrap();
        let Some(JsonValue::Arr(tiers)) = v.get("tiers") else {
            panic!("tiers is an array");
        };
        let rate_at = |ranks: f64| {
            let tier = tiers.iter().find(|t| num(t, "ranks") == Some(ranks))?;
            num(tier, "rate")
        };
        assert_eq!(rate_at(4096.0), Some(7.0));
        assert_eq!(rate_at(2048.0), None);
        assert_eq!(num(&tiers[0], "rate"), Some(10.0));
    }

    #[test]
    fn roundtrips_workspace_writer_output() {
        use crate::json_mod::JsonBuf;
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.key("name").str_val("a \"quoted\" name");
        j.key("nan").num_val(f64::NAN);
        j.key("vals")
            .begin_arr()
            .uint_val(3)
            .num_val(0.25)
            .end_arr();
        j.end_obj();
        let v = JsonValue::parse(&j.finish()).unwrap();
        assert_eq!(
            v.get("name"),
            Some(&JsonValue::Str("a \"quoted\" name".into()))
        );
        assert_eq!(v.get("nan"), Some(&JsonValue::Null));
        assert_eq!(
            v.get("vals"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(3.0),
                JsonValue::Num(0.25)
            ]))
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("{} x").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let value = "ñ€😀 \"\\".repeat(1 << 17);
        assert!(value.len() >= 1 << 20);
        let doc = format!("\"{}\"", crate::json_mod::escape(&value));
        let t0 = std::time::Instant::now();
        assert_eq!(JsonValue::parse(&doc), Ok(JsonValue::Str(value)));
        assert!(t0.elapsed().as_secs_f64() < 1.0, "took {:?}", t0.elapsed());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = JsonValue::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 256"), "{err}");
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&deepest).is_ok());
    }
}
