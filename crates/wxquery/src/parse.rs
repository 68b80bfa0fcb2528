//! Recursive-descent parser for WXQuery (Definition 2.1).
//!
//! The grammar mixes XML syntax (direct element constructors) with XQuery
//! syntax (FLWR expressions, `{ }` enclosures, comparison operators), so the
//! parser works directly on a character cursor instead of a separate token
//! stream — `<` means "start tag" in expression position and "less than"
//! inside conditions, which a modeless lexer cannot distinguish.

use dss_predicate::CompOp;
use dss_properties::AggOp;
use dss_xml::{text, Decimal, Path};

use crate::ast::{
    Clause, Condition, Content, ElementCtor, Expr, Flwr, ForSource, PredAtom, PredTerm, VarPath,
    WindowAst,
};
use crate::error::QueryError;

/// How deep expressions and element constructors may nest. The parser
/// recurses once per level, and so do compile, properties, display and
/// the AST's drop: past this cap a query is a syntax error, not a stack
/// overflow. One level costs about 510 bytes of parser stack (x86-64,
/// measured: release build; 4.4 KiB unoptimised), so the cap stays inside
/// a spawned thread's 2 MiB either way.
const MAX_NESTING: usize = 256;

/// Parses a complete WXQuery subscription.
pub fn parse_query(input: &str) -> Result<Expr, QueryError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    let expr = p.parse_expr(None)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(expr)
}

type Parsed<T> = Result<T, QueryError>;

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Levels of [`Parser::nested`] calls open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// Runs `parse` one nesting level deeper, refusing past
    /// [`MAX_NESTING`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skips whitespace and XQuery comments `(: … :)`.
    fn skip_ws(&mut self) {
        loop {
            let before = self.pos;
            while self.peek().is_some_and(char::is_whitespace) {
                self.bump();
            }
            if self.rest().starts_with("(:") {
                match self.rest().find(":)") {
                    Some(end) => self.pos += end + 2,
                    None => {
                        self.pos = self.input.len();
                        return;
                    }
                }
            }
            if self.pos == before {
                return;
            }
        }
    }

    /// Consumes the literal `s` if it is next (after whitespace).
    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), QueryError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    /// `true` if the keyword `kw` is next (whole word).
    fn peek_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        rest.starts_with(kw)
            && !rest[kw.len()..]
                .chars()
                .next()
                .is_some_and(text::is_name_char)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw:?}")))
        }
    }

    /// Parses an XML-name-like identifier.
    fn ident(&mut self) -> Result<String, QueryError> {
        self.skip_ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if text::is_name_start(c) => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while self.peek().is_some_and(text::is_name_char) {
            self.bump();
        }
        Ok(self.input[start..self.pos].to_string())
    }

    /// Parses a decimal number with optional sign.
    fn number(&mut self) -> Result<Decimal, QueryError> {
        self.skip_ws();
        let start = self.pos;
        if matches!(self.peek(), Some('-') | Some('+')) {
            self.bump();
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some('.') {
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if self.pos == digits_start {
            return Err(self.err("expected a number"));
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.err("invalid decimal literal"))
    }

    /// Parses a double-quoted string literal.
    fn string_lit(&mut self) -> Result<String, QueryError> {
        self.expect("\"")?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == '"' {
                let s = self.input[start..self.pos].to_string();
                self.bump();
                return Ok(s);
            }
            self.bump();
        }
        Err(self.err("unterminated string literal"))
    }

    /// Parses `step/step/…` (no leading slash).
    fn rel_path(&mut self) -> Result<Path, QueryError> {
        let mut path = Path::this();
        loop {
            let step = self.ident()?;
            path = path.child(&step).map_err(|e| self.err(e.to_string()))?;
            // A following '/' continues the path only if a name follows
            // (otherwise it may be the '/' of "/>").
            let save = self.pos;
            if self.peek() == Some('/') {
                self.bump();
                if self.peek().is_some_and(text::is_name_start) {
                    continue;
                }
                self.pos = save;
            }
            return Ok(path);
        }
    }

    /// `$var` with optional `/path`.
    fn var_path(&mut self) -> Result<VarPath, QueryError> {
        self.expect("$")?;
        let var = self.ident()?;
        let path = if self.peek() == Some('/') {
            self.bump();
            self.rel_path()?
        } else {
            Path::this()
        };
        Ok(VarPath::new(var, path))
    }

    // ----- expressions ------------------------------------------------

    /// Parses one WXQuery expression. `ctx_var` is the variable that bare
    /// paths in conditions refer to (set inside `[p]` path conditions).
    fn parse_expr(&mut self, ctx_var: Option<&str>) -> Result<Expr, QueryError> {
        self.skip_ws();
        self.nested(|p| match p.peek() {
            Some('<') => Ok(Expr::Element(p.element_ctor()?)),
            Some('(') => p.sequence(ctx_var),
            Some('$') => Ok(Expr::PathOutput(p.var_path()?)),
            _ if p.peek_keyword("for") || p.peek_keyword("let") => Ok(Expr::Flwr(p.flwr(ctx_var)?)),
            _ if p.peek_keyword("if") => p.if_expr(ctx_var),
            _ => Err(p.err("expected an expression")),
        })
    }

    fn sequence(&mut self, ctx_var: Option<&str>) -> Result<Expr, QueryError> {
        self.expect("(")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(')') {
            self.bump();
            return Ok(Expr::Sequence(items));
        }
        loop {
            items.push(self.parse_expr(ctx_var)?);
            if self.eat(",") {
                continue;
            }
            self.expect(")")?;
            return Ok(Expr::Sequence(items));
        }
    }

    fn if_expr(&mut self, ctx_var: Option<&str>) -> Result<Expr, QueryError> {
        self.expect_keyword("if")?;
        let cond = self.condition(ctx_var)?;
        self.expect_keyword("then")?;
        let then = self.parse_expr(ctx_var)?;
        self.expect_keyword("else")?;
        let els = self.parse_expr(ctx_var)?;
        Ok(Expr::If {
            cond,
            then: Box::new(then),
            els: Box::new(els),
        })
    }

    fn flwr(&mut self, ctx_var: Option<&str>) -> Result<Flwr, QueryError> {
        let mut clauses = Vec::new();
        loop {
            if self.peek_keyword("for") {
                self.pos += 3;
                clauses.push(self.for_clause()?);
            } else if self.peek_keyword("let") {
                self.pos += 3;
                clauses.push(self.let_clause()?);
            } else {
                break;
            }
        }
        if clauses.is_empty() {
            return Err(self.err("FLWR expression needs at least one for/let clause"));
        }
        // Bare paths in the where clause default to the innermost for var.
        let for_var: Option<String> = clauses.iter().rev().find_map(|c| match c {
            Clause::For { var, .. } => Some(var.clone()),
            Clause::Let { .. } => None,
        });
        let where_ = if self.eat_keyword("where") {
            self.condition(for_var.as_deref().or(ctx_var))?
        } else {
            Vec::new()
        };
        self.expect_keyword("return")?;
        let ret = self.parse_expr(for_var.as_deref().or(ctx_var))?;
        Ok(Flwr {
            clauses,
            where_,
            ret: Box::new(ret),
        })
    }

    fn for_clause(&mut self) -> Result<Clause, QueryError> {
        self.expect("$")?;
        let var = self.ident()?;
        self.expect_keyword("in")?;
        self.skip_ws();
        let source = if self.peek_keyword("stream") {
            self.pos += "stream".len();
            self.expect("(")?;
            self.skip_ws();
            let name = self.string_lit()?;
            self.expect(")")?;
            ForSource::Stream(name)
        } else if self.peek_keyword("doc") {
            self.pos += "doc".len();
            self.expect("(")?;
            self.skip_ws();
            let name = self.string_lit()?;
            self.expect(")")?;
            ForSource::Doc(name)
        } else if self.peek() == Some('$') {
            self.bump();
            ForSource::Var(self.ident()?)
        } else {
            return Err(self.err("expected stream(…), doc(…), or $var"));
        };
        // Path after the source, with optional [p] condition blocks. The
        // flat fragment only evaluates conditions attached to the *final*
        // step (they then constrain the bound item).
        let mut path = Path::this();
        let mut conditions: Condition = Vec::new();
        let mut condition_depth: Option<usize> = None;
        loop {
            self.skip_ws();
            if self.peek() == Some('/') {
                self.bump();
                let step = self.ident()?;
                path = path.child(&step).map_err(|e| self.err(e.to_string()))?;
                continue;
            }
            if self.peek() == Some('[') {
                self.bump();
                let mut block = self.condition(Some(&var))?;
                self.expect("]")?;
                conditions.append(&mut block);
                condition_depth = Some(path.len());
                continue;
            }
            break;
        }
        if let Some(depth) = condition_depth {
            if depth != path.len() {
                return Err(QueryError::Unsupported(
                    "path conditions are only supported on the final step of a for-clause path"
                        .into(),
                ));
            }
        }
        // Optional window |count Δ step µ| / |π diff Δ step µ|.
        self.skip_ws();
        let window = if self.peek() == Some('|') {
            self.bump();
            Some(self.window()?)
        } else {
            None
        };
        Ok(Clause::For {
            var,
            source,
            path,
            conditions,
            window,
        })
    }

    fn window(&mut self) -> Result<WindowAst, QueryError> {
        self.skip_ws();
        let w = if self.peek_keyword("count") {
            self.pos += "count".len();
            let size = self.number()?;
            let step = if self.eat_keyword("step") {
                Some(self.number()?)
            } else {
                None
            };
            WindowAst::Count { size, step }
        } else {
            let reference = self.rel_path()?;
            self.expect_keyword("diff")?;
            let size = self.number()?;
            let step = if self.eat_keyword("step") {
                Some(self.number()?)
            } else {
                None
            };
            WindowAst::Diff {
                reference,
                size,
                step,
            }
        };
        self.expect("|")?;
        Ok(w)
    }

    fn let_clause(&mut self) -> Result<Clause, QueryError> {
        self.expect("$")?;
        let var = self.ident()?;
        self.expect(":=")?;
        let op_name = self.ident()?;
        let op = AggOp::parse(&op_name)
            .ok_or_else(|| self.err(format!("unknown aggregation operator {op_name:?}")))?;
        self.expect("(")?;
        let source = self.var_path()?;
        self.expect(")")?;
        Ok(Clause::Let { var, op, source })
    }

    // ----- conditions ---------------------------------------------------

    fn condition(&mut self, ctx_var: Option<&str>) -> Result<Condition, QueryError> {
        let mut atoms = vec![self.atom(ctx_var)?];
        while self.eat_keyword("and") {
            atoms.push(self.atom(ctx_var)?);
        }
        Ok(atoms)
    }

    /// One operand of an atomic predicate.
    fn operand(&mut self, ctx_var: Option<&str>) -> Result<Operand, QueryError> {
        self.skip_ws();
        match self.peek() {
            Some('$') => Ok(Operand::Var(self.var_path()?)),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' || c == '.' => {
                Ok(Operand::Const(self.number()?))
            }
            Some(c) if text::is_name_start(c) => {
                let path = self.rel_path()?;
                match ctx_var {
                    Some(v) => Ok(Operand::Var(VarPath::new(v, path))),
                    None => Err(self.err(
                        "bare paths in this condition have no context variable; \
                         write $var/path",
                    )),
                }
            }
            _ => Err(self.err("expected a predicate operand")),
        }
    }

    fn comp_op(&mut self) -> Result<CompOp, QueryError> {
        self.skip_ws();
        for (s, op) in [
            ("<=", CompOp::Le),
            (">=", CompOp::Ge),
            ("=", CompOp::Eq),
            ("<", CompOp::Lt),
            (">", CompOp::Gt),
        ] {
            if self.rest().starts_with(s) {
                self.pos += s.len();
                return Ok(op);
            }
        }
        Err(self.err("expected a comparison operator (=, <, <=, >, >=)"))
    }

    fn atom(&mut self, ctx_var: Option<&str>) -> Result<PredAtom, QueryError> {
        let lhs = self.operand(ctx_var)?;
        let op = self.comp_op()?;
        let rhs = self.operand(ctx_var)?;
        // Optional "± c" after a variable right-hand side ($v θ $w + c).
        let rhs = match rhs {
            Operand::Var(v) => {
                self.skip_ws();
                let offset = if self.peek() == Some('+') {
                    self.bump();
                    self.number()?
                } else if self.rest().starts_with('-') && !self.rest()[1..].trim_start().is_empty()
                {
                    // Only a numeric offset; '-' not followed by digits is
                    // left alone (would be a syntax error downstream).
                    let save = self.pos;
                    self.bump();
                    match self.number() {
                        Ok(n) => -n,
                        Err(_) => {
                            self.pos = save;
                            Decimal::ZERO
                        }
                    }
                } else {
                    Decimal::ZERO
                };
                Operand::VarPlus(v, offset)
            }
            other => other,
        };
        // Normalize so the left side is a variable.
        match (lhs, rhs) {
            (Operand::Var(v), Operand::Const(c)) => Ok(PredAtom {
                lhs: v,
                op,
                rhs: PredTerm::Const(c),
            }),
            (Operand::Var(v), Operand::VarPlus(w, c)) => Ok(PredAtom {
                lhs: v,
                op,
                rhs: PredTerm::VarPlus(w, c),
            }),
            (Operand::Var(v), Operand::Var(w)) => Ok(PredAtom {
                lhs: v,
                op,
                rhs: PredTerm::VarPlus(w, Decimal::ZERO),
            }),
            (Operand::Const(c), Operand::Var(v)) | (Operand::Const(c), Operand::VarPlus(v, _)) => {
                // c θ $v  ⇔  $v θ.flip() c (offsets on a left constant are
                // not part of the grammar).
                Ok(PredAtom {
                    lhs: v,
                    op: op.flip(),
                    rhs: PredTerm::Const(c),
                })
            }
            (Operand::Const(_), Operand::Const(_)) => {
                Err(self.err("a predicate must reference at least one element path"))
            }
            (Operand::VarPlus(..), _) => unreachable!("offsets only parsed on the right"),
        }
    }

    // ----- element constructors ------------------------------------------

    fn element_ctor(&mut self) -> Result<ElementCtor, QueryError> {
        self.expect("<")?;
        let tag = self.ident()?;
        self.skip_ws();
        if self.eat("/>") {
            return Ok(ElementCtor {
                tag,
                content: Vec::new(),
            });
        }
        self.expect(">")?;
        let mut content = Vec::new();
        loop {
            // Text runs up to the next markup character.
            let text_start = self.pos;
            while let Some(c) = self.peek() {
                if c == '<' || c == '{' {
                    break;
                }
                self.bump();
            }
            let raw = &self.input[text_start..self.pos];
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                content.push(Content::Text(trimmed.to_string()));
            }
            match self.peek() {
                Some('<') => {
                    if self.rest().starts_with("</") {
                        self.pos += 2;
                        let close = self.ident()?;
                        self.expect(">")?;
                        if close != tag {
                            return Err(self.err(format!(
                                "mismatched element constructor: <{tag}> closed by </{close}>"
                            )));
                        }
                        return Ok(ElementCtor { tag, content });
                    }
                    content.push(Content::Element(self.nested(Self::element_ctor)?));
                }
                Some('{') => {
                    self.bump();
                    let inner = self.parse_expr(None)?;
                    self.expect("}")?;
                    content.push(Content::Enclosed(inner));
                }
                _ => return Err(self.err(format!("unclosed element constructor <{tag}>"))),
            }
        }
    }
}

/// Intermediate operand representation during atom parsing.
enum Operand {
    Const(Decimal),
    Var(VarPath),
    VarPlus(VarPath, Decimal),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// 50 000 nested element constructors — deep enough to overflow even
    /// the main thread's stack without the cap — are a syntax error at the
    /// constructor that would open level `MAX_NESTING + 1`, found at once.
    #[test]
    fn nesting_past_the_cap_is_a_syntax_error() {
        let levels = 50_000;
        let prefix = "for $p in stream(\"photons\")/photons/photon return ";
        let text = format!(
            "{prefix}{}{{$p/en}}{}",
            "<a>".repeat(levels),
            "</a>".repeat(levels)
        );
        let started = Instant::now();
        let parsed = parse_query(&text);
        assert!(started.elapsed() < Duration::from_secs(1));
        // The query and its return clause take two levels; each `<a>`
        // after the first one more.
        let offset = prefix.len() + "<a>".len() * (MAX_NESTING - 1);
        match parsed {
            Err(QueryError::Parse {
                message,
                offset: at,
            }) => {
                assert_eq!(at, offset, "{message}");
                assert!(message.contains("nested deeper"), "{message}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
        // One level less parses.
        let levels = MAX_NESTING - 2;
        let text = format!(
            "{prefix}{}{{$p/en}}{}",
            "<a>".repeat(levels),
            "</a>".repeat(levels)
        );
        assert!(parse_query(&text).is_ok());
    }
}
