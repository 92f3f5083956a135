//! Recursive-descent parser for PAX language scripts.

use crate::ast::*;
use crate::token::{lex, Pos, Tok, Token};
use pax_core::mapping::MappingKind;
use pax_sim::dist::DurationDist;
use std::fmt;

/// Lex or parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.i]
    }

    fn next(&mut self) -> Token {
        let t = self.toks[self.i].clone();
        if self.i + 1 < self.toks.len() {
            self.i += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            pos: self.peek().pos,
        })
    }

    /// Consume an identifier token and return its text.
    fn ident(&mut self, what: &str) -> Result<(String, Pos), ParseError> {
        let t = self.next();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.pos)),
            other => Err(ParseError {
                message: format!("expected {what}, found {other}"),
                pos: t.pos,
            }),
        }
    }

    /// Consume a keyword (case-insensitive match on an identifier).
    fn keyword(&mut self, kw: &str) -> Result<Pos, ParseError> {
        let t = self.next();
        match &t.tok {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(t.pos),
            other => Err(ParseError {
                message: format!("expected '{kw}', found {other}"),
                pos: t.pos,
            }),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn int(&mut self, what: &str) -> Result<u64, ParseError> {
        let t = self.next();
        match t.tok {
            Tok::Int(n) => Ok(n),
            other => Err(ParseError {
                message: format!("expected {what}, found {other}"),
                pos: t.pos,
            }),
        }
    }

    /// An integer that must fit `T`, whose largest value is `max`: an
    /// operand of counter arithmetic (`i64`) or a line count (`u32`).
    fn fits<T: TryFrom<u64>>(
        &mut self,
        what: &str,
        max: impl fmt::Display,
    ) -> Result<T, ParseError> {
        let pos = self.peek().pos;
        let n = self.int(what)?;
        T::try_from(n).map_err(|_| ParseError {
            message: format!("{what} {n} exceeds {max}"),
            pos,
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<Pos, ParseError> {
        let t = self.next();
        if t.tok == tok {
            Ok(t.pos)
        } else {
            Err(ParseError {
                message: format!("expected {tok}, found {}", t.tok),
                pos: t.pos,
            })
        }
    }

    fn mapping_option(&mut self) -> Result<MappingKind, ParseError> {
        let (s, pos) = self.ident("mapping option")?;
        match MAPPING_KEYWORDS
            .iter()
            .find(|(kw, _)| s.eq_ignore_ascii_case(kw))
        {
            Some(&(_, kind)) => Ok(kind),
            None => {
                let known: Vec<&str> = MAPPING_KEYWORDS.iter().map(|&(kw, _)| kw).collect();
                Err(ParseError {
                    message: format!(
                        "unknown mapping option '{}' (expected one of {})",
                        s.to_ascii_uppercase(),
                        known.join(", ")
                    ),
                    pos,
                })
            }
        }
    }

    /// `name/MAPPING=option`
    fn enable_item(&mut self) -> Result<EnableItem, ParseError> {
        let (phase, pos) = self.ident("successor phase name")?;
        self.expect(Tok::Slash)?;
        self.keyword("MAPPING")?;
        self.expect(Tok::Equals)?;
        let mapping = self.mapping_option()?;
        Ok(EnableItem {
            phase,
            mapping,
            pos,
        })
    }

    /// `[ item item … ]`
    fn enable_list(&mut self) -> Result<Vec<EnableItem>, ParseError> {
        self.expect(Tok::LBracket)?;
        let mut items = Vec::new();
        while self.peek().tok != Tok::RBracket {
            if self.peek().tok == Tok::Eof {
                return self.err("unterminated ENABLE list (missing ']')");
            }
            items.push(self.enable_item()?);
        }
        self.expect(Tok::RBracket)?;
        if items.is_empty() {
            return self.err("empty ENABLE list");
        }
        Ok(items)
    }

    /// The optional ENABLE clause of a DISPATCH.
    fn enable_clause(&mut self) -> Result<EnableClause, ParseError> {
        if !self.peek_keyword("ENABLE") {
            return Ok(EnableClause::None);
        }
        self.keyword("ENABLE")?;
        match &self.peek().tok {
            Tok::Slash => {
                self.next();
                let (word, pos) = self.ident("MAPPING, BRANCHINDEPENDENT or BRANCHDEPENDENT")?;
                match word.to_ascii_uppercase().as_str() {
                    "MAPPING" => {
                        self.expect(Tok::Equals)?;
                        Ok(EnableClause::Bare(self.mapping_option()?))
                    }
                    "BRANCHINDEPENDENT" => Ok(EnableClause::BranchIndependent(self.enable_list()?)),
                    "BRANCHDEPENDENT" => Ok(EnableClause::BranchDependent),
                    other => Err(ParseError {
                        message: format!("unknown ENABLE form '/{other}'"),
                        pos,
                    }),
                }
            }
            Tok::LBracket => Ok(EnableClause::Named(self.enable_list()?)),
            other => self.err(format!("expected '/' or '[' after ENABLE, found {other}")),
        }
    }

    fn cost(&mut self) -> Result<DurationDist, ParseError> {
        let (kind, pos) = self.ident("cost kind (CONST, UNIFORM, EXP)")?;
        match kind.to_ascii_uppercase().as_str() {
            "CONST" => Ok(DurationDist::constant(self.int("constant cost")?)),
            "UNIFORM" => {
                let lo = self.int("uniform lower bound")?;
                let hi = self.int("uniform upper bound")?;
                if lo > hi {
                    return Err(ParseError {
                        message: format!("uniform bounds inverted ({lo} > {hi})"),
                        pos,
                    });
                }
                Ok(DurationDist::uniform(lo, hi))
            }
            "EXP" => Ok(DurationDist::exponential(self.int("exponential mean")?)),
            other => Err(ParseError {
                message: format!("unknown cost kind '{other}'"),
                pos,
            }),
        }
    }

    /// `DEFINE PHASE name GRANULES n [COST …] [LINES n] [ENABLE [...]]`
    fn define(&mut self) -> Result<DefinePhase, ParseError> {
        let pos = self.keyword("DEFINE")?;
        self.keyword("PHASE")?;
        let (name, _) = self.ident("phase name")?;
        let mut granules: Option<u32> = None;
        let mut cost = DurationDist::constant(100);
        let mut lines = None;
        let mut enables = Vec::new();
        loop {
            if self.peek_keyword("GRANULES") {
                self.keyword("GRANULES")?;
                let n = self.int("granule count")?;
                if n == 0 || n > u32::MAX as u64 {
                    return self.err("granule count must be in 1..2^32");
                }
                granules = Some(n as u32);
            } else if self.peek_keyword("COST") {
                self.keyword("COST")?;
                cost = self.cost()?;
            } else if self.peek_keyword("LINES") {
                self.keyword("LINES")?;
                lines = Some(self.fits("line count", u32::MAX)?);
            } else if self.peek_keyword("ENABLE") {
                self.keyword("ENABLE")?;
                enables = self.enable_list()?;
            } else {
                break;
            }
        }
        let granules = granules.ok_or(ParseError {
            message: format!("DEFINE PHASE {name} is missing GRANULES"),
            pos,
        })?;
        Ok(DefinePhase {
            name,
            granules,
            cost,
            lines,
            enables,
            pos,
        })
    }

    /// `IF (IMOD(c,k).NE.m) THEN GO TO label` and relational variants.
    fn if_stmt(&mut self) -> Result<AstStmt, ParseError> {
        let pos = self.keyword("IF")?;
        self.expect(Tok::LParen)?;
        let cond = if self.peek_keyword("IMOD") {
            self.keyword("IMOD")?;
            self.expect(Tok::LParen)?;
            let (counter, _) = self.ident("counter name")?;
            self.expect(Tok::Comma)?;
            let modulus = self.fits("modulus", i64::MAX)?;
            if modulus == 0 {
                return self.err("IMOD modulus must be positive");
            }
            self.expect(Tok::RParen)?;
            let op = self.next();
            let residue = self.fits("residue", i64::MAX)?;
            match op.tok {
                Tok::DotOp(ref s) if s == "NE" => CondExpr::ImodNe {
                    counter,
                    modulus,
                    residue,
                },
                Tok::DotOp(ref s) if s == "EQ" => CondExpr::ImodEq {
                    counter,
                    modulus,
                    residue,
                },
                other => {
                    return Err(ParseError {
                        message: format!("expected .NE. or .EQ., found {other}"),
                        pos: op.pos,
                    })
                }
            }
        } else {
            let (counter, _) = self.ident("counter name")?;
            let op = self.next();
            let value = self.fits("comparison value", i64::MAX)?;
            match op.tok {
                Tok::DotOp(ref s) if s == "LT" => CondExpr::Lt { counter, value },
                other => {
                    return Err(ParseError {
                        message: format!("expected .LT., found {other}"),
                        pos: op.pos,
                    })
                }
            }
        };
        self.expect(Tok::RParen)?;
        self.keyword("THEN")?;
        self.goto_keyword()?;
        let (target, _) = self.ident("branch target label")?;
        Ok(AstStmt::If { cond, target, pos })
    }

    /// `GO TO x` or `GOTO x`.
    fn goto_keyword(&mut self) -> Result<(), ParseError> {
        if self.peek_keyword("GOTO") {
            self.keyword("GOTO")?;
            return Ok(());
        }
        self.keyword("GO")?;
        self.keyword("TO")?;
        Ok(())
    }

    fn stmt(&mut self) -> Result<Option<AstStmt>, ParseError> {
        match &self.peek().tok {
            Tok::Eof => Ok(None),
            Tok::Ident(s) if s.eq_ignore_ascii_case("DEFINE") => {
                Ok(Some(AstStmt::Define(self.define()?)))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("DISPATCH") => {
                let pos = self.keyword("DISPATCH")?;
                let (phase, _) = self.ident("phase name")?;
                let enable = self.enable_clause()?;
                Ok(Some(AstStmt::Dispatch { phase, enable, pos }))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("SERIAL") => {
                let pos = self.keyword("SERIAL")?;
                let ticks = self.int("serial duration in ticks")?;
                let label = if let Tok::Ident(w) = &self.peek().tok {
                    // a following bare identifier that is not a statement
                    // keyword is taken as the serial label
                    let upper = w.to_ascii_uppercase();
                    let is_kw = [
                        "DEFINE",
                        "DISPATCH",
                        "SERIAL",
                        "IF",
                        "GO",
                        "GOTO",
                        "INCREMENT",
                    ]
                    .contains(&upper.as_str());
                    // labels of the form `name:` must also be left alone
                    let next_is_colon = self
                        .toks
                        .get(self.i + 1)
                        .map(|t| t.tok == Tok::Colon)
                        .unwrap_or(false);
                    if !is_kw && !next_is_colon {
                        Some(self.ident("label")?.0)
                    } else {
                        None
                    }
                } else {
                    None
                };
                Ok(Some(AstStmt::Serial { ticks, label, pos }))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("IF") => Ok(Some(self.if_stmt()?)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("GO") || s.eq_ignore_ascii_case("GOTO") => {
                let pos = self.peek().pos;
                self.goto_keyword()?;
                let (target, _) = self.ident("label")?;
                Ok(Some(AstStmt::Goto { target, pos }))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("INCREMENT") => {
                let pos = self.keyword("INCREMENT")?;
                let (counter, _) = self.ident("counter name")?;
                let by = if self.peek_keyword("BY") {
                    self.keyword("BY")?;
                    self.fits("increment step", i64::MAX)?
                } else {
                    1
                };
                Ok(Some(AstStmt::Increment { counter, by, pos }))
            }
            Tok::Ident(_) => {
                // `label:` form
                let (name, pos) = self.ident("label")?;
                self.expect(Tok::Colon).map_err(|mut e| {
                    e.message = format!(
                        "unknown statement '{name}' (expected DEFINE, DISPATCH, SERIAL, IF, \
                         GO TO, INCREMENT, or 'label:')"
                    );
                    e
                })?;
                Ok(Some(AstStmt::Label { name, pos }))
            }
            other => self.err(format!("unexpected token {other}")),
        }
    }
}

/// Parse a script from source text.
pub fn parse(src: &str) -> Result<Script, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, i: 0 };
    let mut stmts = Vec::new();
    while let Some(s) = p.stmt()? {
        stmts.push(s);
    }
    Ok(Script { stmts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_form_one() {
        let s = parse("DISPATCH phase-name ENABLE/MAPPING=IDENTITY").unwrap();
        assert_eq!(s.stmts.len(), 1);
        match &s.stmts[0] {
            AstStmt::Dispatch { phase, enable, .. } => {
                assert_eq!(phase, "phase-name");
                assert_eq!(enable, &EnableClause::Bare(MappingKind::Identity));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_paper_form_two() {
        let s = parse("DISPATCH p ENABLE [q/MAPPING=UNIVERSAL]").unwrap();
        match &s.stmts[0] {
            AstStmt::Dispatch { enable, .. } => match enable {
                EnableClause::Named(items) => {
                    assert_eq!(items.len(), 1);
                    assert_eq!(items[0].phase, "q");
                    assert_eq!(items[0].mapping, MappingKind::Universal);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_paper_form_three_with_branch() {
        let src = "
            DISPATCH phase-name
              ENABLE/BRANCHINDEPENDENT
              [phase-name-1/MAPPING=IDENTITY
               phase-name-2/MAPPING=UNIVERSAL]
            IF (IMOD(LOOPCOUNTER,10).NE.0) THEN GO TO branch-target
            DISPATCH phase-name-1
            GO TO rejoin
            branch-target:
            DISPATCH phase-name-2
            rejoin:
        ";
        let s = parse(src).unwrap();
        assert_eq!(s.stmts.len(), 7);
        match &s.stmts[0] {
            AstStmt::Dispatch { enable, .. } => match enable {
                EnableClause::BranchIndependent(items) => assert_eq!(items.len(), 2),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&s.stmts[1], AstStmt::If { .. }));
        assert!(matches!(&s.stmts[4], AstStmt::Label { name, .. } if name == "branch-target"));
    }

    #[test]
    fn parses_paper_form_four() {
        let src = "
            DEFINE PHASE phase-name GRANULES 64 ENABLE [
              phase-name-1/MAPPING=IDENTITY
              phase-name-2/MAPPING=UNIVERSAL
              phase-name-3/MAPPING=NULL
            ]
            DISPATCH phase-name ENABLE/BRANCHDEPENDENT
        ";
        let s = parse(src).unwrap();
        let d = s.define_of("phase-name").unwrap();
        assert_eq!(d.enables.len(), 3);
        assert_eq!(d.granules, 64);
        match &s.stmts[1] {
            AstStmt::Dispatch { enable, .. } => {
                assert_eq!(enable, &EnableClause::BranchDependent)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_define_with_cost_and_lines() {
        let s = parse("DEFINE PHASE p GRANULES 10 COST UNIFORM 5 50 LINES 37").unwrap();
        let d = s.define_of("p").unwrap();
        assert_eq!(d.cost, DurationDist::uniform(5, 50));
        assert_eq!(d.lines, Some(37));
        let s = parse("DEFINE PHASE p GRANULES 10").unwrap();
        assert_eq!(s.define_of("p").unwrap().cost, DurationDist::constant(100));
        // A line count above `u32` is an error at the count, not 0 lines.
        let src = "DEFINE PHASE p GRANULES 10 LINES 4294967296";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("4294967296"), "{}", err.message);
        assert_eq!(err.pos.col as usize, src.find("4294967296").unwrap() + 1);
        let max = parse("DEFINE PHASE p GRANULES 10 LINES 4294967295").unwrap();
        assert_eq!(max.define_of("p").unwrap().lines, Some(u32::MAX));
    }

    #[test]
    fn parses_serial_and_increment() {
        let s = parse("SERIAL 500 convergence-check\nINCREMENT LOOPCOUNTER BY 2").unwrap();
        assert!(matches!(
            &s.stmts[0],
            AstStmt::Serial { ticks: 500, label: Some(l), .. } if l == "convergence-check"
        ));
        assert!(matches!(&s.stmts[1], AstStmt::Increment { by: 2, .. }));
    }

    #[test]
    fn counter_operands_above_i64_max_are_errors_at_the_operand() {
        let big = "9223372036854775808";
        for src in [
            "INCREMENT K BY 9223372036854775808",
            "IF (IMOD(K,9223372036854775808).EQ.0) THEN GO TO x",
            "IF (IMOD(K,3).NE.9223372036854775808) THEN GO TO x",
            "IF (K .LT. 9223372036854775808) THEN GO TO x",
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.message.contains(big), "{src}: {}", err.message);
            assert_eq!(err.pos.line, 1, "{src}");
            assert_eq!(err.pos.col as usize, src.find(big).unwrap() + 1, "{src}");
        }
        let max = parse("IF (K .LT. 9223372036854775807) THEN GO TO x").unwrap();
        assert!(matches!(
            &max.stmts[0],
            AstStmt::If {
                cond: CondExpr::Lt {
                    value: i64::MAX,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse("DISPATCH p ENABLE/MAPPING=SIDEWAYS").unwrap_err();
        assert!(err.message.contains("SIDEWAYS"));
        assert_eq!(err.pos.line, 1);
    }

    #[test]
    fn error_on_missing_granules() {
        let err = parse("DEFINE PHASE p COST CONST 5").unwrap_err();
        assert!(err.message.contains("GRANULES"));
    }

    #[test]
    fn error_on_empty_enable_list() {
        assert!(parse("DISPATCH p ENABLE []").is_err());
    }

    #[test]
    fn error_on_unterminated_list() {
        let err = parse("DISPATCH p ENABLE [q/MAPPING=IDENTITY").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn error_on_unknown_statement() {
        let err = parse("FROBNICATE x").unwrap_err();
        assert!(err.message.contains("FROBNICATE"));
    }
}
