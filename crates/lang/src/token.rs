//! Lexer for the PAX parallel-language constructs.
//!
//! The token set covers exactly the four language forms shown in the
//! paper's "Language Construction" section, plus the small amount of
//! control flow its examples rely on (`IF (IMOD(LOOPCOUNTER,10).NE.0)
//! THEN GO TO branch-target`, labels, `GO TO rejoin`) and phase
//! definitions with cost models so whole scripts are runnable.

use crate::parser::ParseError;
use std::fmt;

/// Source position (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Lexical token kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Keyword or identifier (uppercased keywords are distinguished by the
    /// parser; identifiers keep their case).
    Ident(String),
    /// Unsigned integer literal.
    Int(u64),
    /// `/`
    Slash,
    /// `=`
    Equals,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// Fortran-style dotted operator: `.NE.`, `.EQ.`, `.LT.`, `.GE.` …
    DotOp(String),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "'{s}'"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Slash => write!(f, "'/'"),
            Tok::Equals => write!(f, "'='"),
            Tok::LBracket => write!(f, "'['"),
            Tok::RBracket => write!(f, "']'"),
            Tok::LParen => write!(f, "'('"),
            Tok::RParen => write!(f, "')'"),
            Tok::Comma => write!(f, "','"),
            Tok::Colon => write!(f, "':'"),
            Tok::DotOp(s) => write!(f, "'.{s}.'"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Kind and payload.
    pub tok: Tok,
    /// Where it begins.
    pub pos: Pos,
}

/// Tokenize a script. Comments run from `!` or `;` to end of line.
/// Identifiers may contain letters, digits, `-` and `_` (the paper uses
/// names like `phase-name-1`).
pub fn lex(src: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let mut line: u32 = 1;
    let mut col: u32 = 1;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        let pos = Pos { line, col };
        match c {
            '\n' => {
                chars.next();
                line += 1;
                col = 1;
            }
            ' ' | '\t' | '\r' => {
                chars.next();
                col += 1;
            }
            '!' | ';' => {
                // comment to end of line
                while let Some(&c2) = chars.peek() {
                    if c2 == '\n' {
                        break;
                    }
                    chars.next();
                    col += 1;
                }
            }
            '/' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::Slash,
                    pos,
                });
            }
            '=' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::Equals,
                    pos,
                });
            }
            '[' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::LBracket,
                    pos,
                });
            }
            ']' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::RBracket,
                    pos,
                });
            }
            '(' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::LParen,
                    pos,
                });
            }
            ')' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::RParen,
                    pos,
                });
            }
            ',' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::Comma,
                    pos,
                });
            }
            ':' => {
                chars.next();
                col += 1;
                out.push(Token {
                    tok: Tok::Colon,
                    pos,
                });
            }
            '.' => {
                // dotted operator .XX.
                chars.next();
                col += 1;
                let mut op = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_ascii_alphabetic() {
                        op.push(c2.to_ascii_uppercase());
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                if chars.peek() == Some(&'.') {
                    chars.next();
                    col += 1;
                } else {
                    return Err(ParseError {
                        message: format!("unterminated dotted operator '.{op}'"),
                        pos,
                    });
                }
                if op.is_empty() {
                    return Err(ParseError {
                        message: "empty dotted operator".into(),
                        pos,
                    });
                }
                out.push(Token {
                    tok: Tok::DotOp(op),
                    pos,
                });
            }
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(&c2) = chars.peek() {
                    if let Some(d) = c2.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|x| x.checked_add(d as u64))
                            .ok_or_else(|| ParseError {
                                message: "integer literal overflows u64".into(),
                                pos,
                            })?;
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Int(n),
                    pos,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c2) = chars.peek() {
                    if c2.is_ascii_alphanumeric() || c2 == '_' || c2 == '-' {
                        s.push(c2);
                        chars.next();
                        col += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    tok: Tok::Ident(s),
                    pos,
                });
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character '{other}'"),
                    pos,
                });
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_dispatch_enable() {
        let toks = kinds("DISPATCH sweep ENABLE/MAPPING=IDENTITY");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("DISPATCH".into()),
                Tok::Ident("sweep".into()),
                Tok::Ident("ENABLE".into()),
                Tok::Slash,
                Tok::Ident("MAPPING".into()),
                Tok::Equals,
                Tok::Ident("IDENTITY".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_bracketed_enable_list() {
        let toks = kinds("ENABLE [phase-name-1/MAPPING=UNIVERSAL]");
        assert!(toks.contains(&Tok::LBracket));
        assert!(toks.contains(&Tok::Ident("phase-name-1".into())));
        assert!(toks.contains(&Tok::RBracket));
    }

    #[test]
    fn lexes_if_imod() {
        let toks = kinds("IF (IMOD(LOOPCOUNTER,10).NE.0) THEN GO TO branch-target");
        assert!(toks.contains(&Tok::DotOp("NE".into())));
        assert!(toks.contains(&Tok::Int(10)));
        assert!(toks.contains(&Tok::Ident("branch-target".into())));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("DISPATCH a ! this is ignored\nDISPATCH b");
        assert_eq!(
            toks.iter().filter(|t| matches!(t, Tok::Ident(_))).count(),
            4
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = lex("A\nBB CC").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(toks[1].pos, Pos { line: 2, col: 1 });
        assert_eq!(toks[2].pos, Pos { line: 2, col: 4 });
    }

    #[test]
    fn error_on_stray_character() {
        let err = lex("DISPATCH @").unwrap_err();
        assert!(err.message.contains('@'));
        assert_eq!(err.pos.line, 1);
    }

    #[test]
    fn error_on_unterminated_dotop() {
        assert!(lex("a .NE b").is_err());
    }

    #[test]
    fn labels_lex() {
        let toks = kinds("rejoin:");
        assert_eq!(
            toks,
            vec![Tok::Ident("rejoin".into()), Tok::Colon, Tok::Eof]
        );
    }
}
