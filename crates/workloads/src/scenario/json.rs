//! The JSON syntax of scenario files: a value tree that records the line
//! every value starts on, the reader that builds it from text, and the
//! writer that prints one back. Nothing here knows what a scenario is.

use super::{err, Result, ScenarioError, ScenarioErrorKind};

/// Deepest nesting the reader follows before it gives up with a syntax
/// error. The deepest value the format defines
/// (`workload[i].phases[j].cost`) sits six levels down; the reader
/// recurses once a level, so an unbounded depth is an unbounded stack.
const MAX_DEPTH: usize = 32;

pub(super) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

/// A value and the line it starts on (0 for a value built to be written).
pub(super) struct Node {
    pub(super) line: usize,
    pub(super) v: Json,
}

impl From<Json> for Node {
    fn from(v: Json) -> Node {
        Node { line: 0, v }
    }
}

impl Node {
    pub(super) fn type_name(&self) -> &'static str {
        match self.v {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// The value of `key` in an object (`None` for any other value).
    pub(super) fn get(&self, key: &str) -> Option<&Node> {
        match &self.v {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The line of `key`'s value, or of the node where the key is absent.
    pub(super) fn line_of(&self, key: &str) -> usize {
        self.get(key).map_or(self.line, |n| n.line)
    }

    /// The items of an array (none for any other value).
    pub(super) fn items(&self) -> &[Node] {
        match &self.v {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Read one JSON document.
pub(super) fn parse(text: &str) -> Result<Node> {
    let mut reader = Reader {
        bytes: text.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let root = reader.parse_value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(reader.syntax("trailing characters after the document"));
    }
    Ok(root)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Reader<'_> {
    fn syntax(&self, msg: impl Into<String>) -> ScenarioError {
        err(self.line, "$", ScenarioErrorKind::Syntax(msg.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                Err(self.syntax(format!("expected '{}', found '{}'", b as char, got as char)))
            }
            None => Err(self.syntax(format!("expected '{}', found end of input", b as char))),
        }
    }

    fn parse_value(&mut self) -> Result<Node> {
        self.skip_ws();
        let line = self.line;
        let v = match self.peek() {
            Some(b'{') => self.nested(|r| {
                let mut fields = Vec::new();
                r.seq(b'}', "object", |r| {
                    let key = r.parse_string()?;
                    r.skip_ws();
                    r.expect(b':')?;
                    fields.push((key, r.parse_value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            })?,
            Some(b'[') => self.nested(|r| {
                let mut items = Vec::new();
                r.seq(b']', "array", |r| {
                    items.push(r.parse_value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            })?,
            Some(b'"') => Json::Str(self.parse_string()?),
            Some(b't') => self.parse_word("true", Json::Bool(true))?,
            Some(b'f') => self.parse_word("false", Json::Bool(false))?,
            Some(b'n') => self.parse_word("null", Json::Null)?,
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number()?,
            Some(c) => return Err(self.syntax(format!("unexpected character '{}'", c as char))),
            None => return Err(self.syntax("unexpected end of input")),
        };
        Ok(Node { line, v })
    }

    /// Parse an array or object, from its opening bracket, one level
    /// further down, unless that is deeper than any scenario goes.
    fn nested(&mut self, parse: impl FnOnce(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(self.syntax(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.bump();
        let v = parse(self);
        self.depth -= 1;
        v
    }

    /// The comma-separated members of an array or object, through the
    /// `close` bracket.
    fn seq(
        &mut self,
        close: u8,
        what: &str,
        mut member: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.bump();
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(c) if c == close => return Ok(()),
                _ => {
                    let msg = format!("expected ',' or '{}' in {what}", close as char);
                    return Err(self.syntax(msg));
                }
            }
        }
    }

    fn parse_word(&mut self, word: &str, v: Json) -> Result<Json> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let malformed = |_| self.syntax(format!("malformed number '{text}'"));
        text.parse().map(Json::Num).map_err(malformed)
    }

    /// The four hex digits of a `\u` escape.
    fn parse_hex4(&mut self) -> Result<u32> {
        let mut code = 0;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.syntax("malformed \\u escape"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = self.parse_hex4()?;
                        // A character above U+FFFF is escaped as a surrogate
                        // pair; a lone half of one is no character.
                        if (0xD800..0xDC00).contains(&code)
                            && self.bytes[self.pos..].starts_with(b"\\u")
                        {
                            self.pos += 2;
                            let low = self.parse_hex4()?;
                            if (0xDC00..0xE000).contains(&low) {
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.syntax("\\u escape is not a scalar value"))?,
                        );
                    }
                    _ => return Err(self.syntax("unknown escape sequence")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.syntax("unescaped control character in string"))
                }
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-assemble the UTF-8 sequence the byte starts.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.syntax("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }
}

impl Json {
    /// The value as indented text, one line per member except in a
    /// container that holds no container, which is written on one line.
    pub(super) fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            // `f64`'s `Display` has no exponent and no `.0`: an integer
            // is written exactly, digit for digit.
            Json::Num(n) => return out.push_str(&n.to_string()),
            Json::Str(s) => return push_escaped(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|n| (None, &n.v)).collect()),
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, n)| (Some(k.as_str()), &n.v));
                ('{', '}', members.collect())
            }
        };
        let flat = !members
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let pad = |out: &mut String, indent: usize| {
            if flat {
                out.push(' ');
            } else {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', indent));
            }
        };
        out.push(open);
        for (i, (key, v)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            pad(out, indent + 2);
            if let Some(key) = key {
                push_escaped(out, key);
                out.push_str(": ");
            }
            v.write(out, indent + 2);
        }
        if !members.is_empty() {
            pad(out, indent);
        }
        out.push(close);
    }
}

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
