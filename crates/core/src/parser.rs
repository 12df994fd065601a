//! Parser for the textual event-specification language (Section 3.3 BNF).
//!
//! The accepted syntax follows the paper's O++ trigger-event grammar:
//!
//! ```text
//! after withdraw(Item i, int q) && q > 1000
//! relative(after motorStart, after motorStop)
//! choose 5 (after tcommit)
//! every 5 (after access)
//! fa(after tbegin, prior(after update, after tcommit),
//!    (after tcommit | after tabort))
//! after deposit; before withdraw; after withdraw
//! balance < 500.0                      -- object-state shorthand
//! deposit                              -- method shorthand
//! at time(HR=9)                        -- time events
//! after time(HR=2, M=30)
//! ```
//!
//! Notes:
//!
//! * `prior+` and `sequence+` are rejected with the Section 3.4
//!   explanation (`prior+(E) ≡ E`).
//! * A mask following a *bare logical event* attaches to that event
//!   (parameters in scope); a mask following any other form is a
//!   composite mask (current database state only).
//! * Parameter declarations may carry C-style types, which are accepted
//!   and discarded: `withdraw(Item i, int q)` declares names `i`, `q`.

use crate::error::EventError;
use crate::event::{BasicEvent, EventKind, Qualifier, TimeEvent, TimeSpec};
use crate::expr::{EventExpr, LogicalEvent};
use crate::mask::{BinOp, FloatBits, MaskExpr, UnOp};

/// Parse an event specification.
pub fn parse_event(input: &str) -> Result<EventExpr, EventError> {
    let mut p = Parser::new(input)?;
    let e = p.event()?;
    p.expect_eof()?;
    e.validate()?;
    Ok(e)
}

/// Parse a bare mask expression (used by tools and tests).
pub fn parse_mask(input: &str) -> Result<MaskExpr, EventError> {
    let mut p = Parser::new(input)?;
    let m = p.mask()?;
    p.expect_eof()?;
    Ok(m)
}

// ---------------------------------------------------------------- lexer

#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::enum_variant_names)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Semi,
    Pipe,     // |
    PipePipe, // ||
    Amp,      // &
    AmpAmp,   // &&
    Bang,     // !
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    Assign, // =
    Plus,
    Minus,
    StarTok,
    Slash,
    Dot,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Float(x) => write!(f, "`{x}`"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Eof => write!(f, "end of input"),
            other => {
                let s = match other {
                    Tok::LParen => "(",
                    Tok::RParen => ")",
                    Tok::Comma => ",",
                    Tok::Semi => ";",
                    Tok::Pipe => "|",
                    Tok::PipePipe => "||",
                    Tok::Amp => "&",
                    Tok::AmpAmp => "&&",
                    Tok::Bang => "!",
                    Tok::Lt => "<",
                    Tok::Le => "<=",
                    Tok::Gt => ">",
                    Tok::Ge => ">=",
                    Tok::EqEq => "==",
                    Tok::Ne => "!=",
                    Tok::Assign => "=",
                    Tok::Plus => "+",
                    Tok::Minus => "-",
                    Tok::StarTok => "*",
                    Tok::Slash => "/",
                    Tok::Dot => ".",
                    _ => unreachable!(),
                };
                write!(f, "`{s}`")
            }
        }
    }
}

fn lex(input: &str) -> Result<Vec<(Tok, usize)>, EventError> {
    let b = input.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    let err = |offset: usize, message: String| EventError::Parse { offset, message };
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            b',' => {
                out.push((Tok::Comma, i));
                i += 1;
            }
            b';' => {
                out.push((Tok::Semi, i));
                i += 1;
            }
            b'.' => {
                out.push((Tok::Dot, i));
                i += 1;
            }
            b'+' => {
                out.push((Tok::Plus, i));
                i += 1;
            }
            b'-' => {
                out.push((Tok::Minus, i));
                i += 1;
            }
            b'*' => {
                out.push((Tok::StarTok, i));
                i += 1;
            }
            b'/' => {
                // `//` line comment
                if b.get(i + 1) == Some(&b'/') {
                    while i < b.len() && b[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    out.push((Tok::Slash, i));
                    i += 1;
                }
            }
            b'|' => {
                if b.get(i + 1) == Some(&b'|') {
                    out.push((Tok::PipePipe, i));
                    i += 2;
                } else {
                    out.push((Tok::Pipe, i));
                    i += 1;
                }
            }
            b'&' => {
                if b.get(i + 1) == Some(&b'&') {
                    out.push((Tok::AmpAmp, i));
                    i += 2;
                } else {
                    out.push((Tok::Amp, i));
                    i += 1;
                }
            }
            b'!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ne, i));
                    i += 2;
                } else {
                    out.push((Tok::Bang, i));
                    i += 1;
                }
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Le, i));
                    i += 2;
                } else {
                    out.push((Tok::Lt, i));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Ge, i));
                    i += 2;
                } else {
                    out.push((Tok::Gt, i));
                    i += 1;
                }
            }
            b'=' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push((Tok::EqEq, i));
                    i += 2;
                } else {
                    out.push((Tok::Assign, i));
                    i += 1;
                }
            }
            b'"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match b.get(i) {
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match b.get(i + 1) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                other => {
                                    return Err(err(
                                        i,
                                        format!("unknown escape {:?}", other.map(|&c| c as char)),
                                    ))
                                }
                            }
                            i += 2;
                        }
                        Some(&c) => {
                            s.push(c as char);
                            i += 1;
                        }
                        None => return Err(err(start, "unterminated string".into())),
                    }
                }
                out.push((Tok::Str(s), start));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let is_float = i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit();
                if is_float {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    let v: f64 = text
                        .parse()
                        .map_err(|e| err(start, format!("bad float `{text}`: {e}")))?;
                    if !v.is_finite() {
                        return Err(err(start, format!("float `{text}` is out of range")));
                    }
                    out.push((Tok::Float(v), start));
                } else {
                    let text = &input[start..i];
                    let v: i64 = text
                        .parse()
                        .map_err(|e| err(start, format!("bad integer `{text}`: {e}")))?;
                    out.push((Tok::Int(v), start));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push((Tok::Ident(input[start..i].to_string()), start));
            }
            other => {
                return Err(err(i, format!("unexpected character `{}`", other as char)));
            }
        }
    }
    out.push((Tok::Eof, b.len()));
    Ok(out)
}

// --------------------------------------------------------------- parser

/// Maximum expression nesting depth — bounds recursion so hostile input
/// errors instead of overflowing the stack (debug-build parser frames
/// are large; 64 comfortably fits a 2 MiB test-thread stack while being
/// far beyond any realistic trigger specification).
const MAX_DEPTH: usize = 64;

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, EventError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn offset(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), EventError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), EventError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn error(&self, message: String) -> EventError {
        EventError::Parse {
            offset: self.offset(),
            message,
        }
    }

    fn ident_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    // event := or
    fn event(&mut self) -> Result<EventExpr, EventError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!(
                "expression nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        let r = self.or_expr();
        self.depth -= 1;
        r
    }

    fn or_expr(&mut self) -> Result<EventExpr, EventError> {
        let mut e = self.and_expr()?;
        while self.eat(&Tok::Pipe) {
            e = e.or(self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<EventExpr, EventError> {
        let mut e = self.seq_expr()?;
        while self.eat(&Tok::Amp) {
            e = e.and(self.seq_expr()?);
        }
        Ok(e)
    }

    // `;` sequencing: E1; E2; E3  →  sequence(E1, E2, E3)
    fn seq_expr(&mut self) -> Result<EventExpr, EventError> {
        let first = self.unary_expr()?;
        if self.peek() != &Tok::Semi {
            return Ok(first);
        }
        let mut items = vec![first];
        while self.eat(&Tok::Semi) {
            items.push(self.unary_expr()?);
        }
        Ok(EventExpr::Sequence(items))
    }

    fn unary_expr(&mut self) -> Result<EventExpr, EventError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(self.error(format!(
                "expression nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        let r = self.unary_expr_inner();
        self.depth -= 1;
        r
    }

    fn unary_expr_inner(&mut self) -> Result<EventExpr, EventError> {
        if self.eat(&Tok::Bang) {
            // `!E` — but `!name(...)` or `!name.x` is a state-mask
            // shorthand (e.g. `!authorized(user())`).
            if let Tok::Ident(name) = self.peek().clone() {
                if !is_event_keyword(&name) && matches!(self.peek2(), Tok::LParen | Tok::Dot) {
                    self.bump();
                    let m = self.mask_from_ident(name)?;
                    let m = self.mask_binary_tail(MaskExpr::Unary(UnOp::Not, Box::new(m)), 0)?;
                    return Ok(EventExpr::state(m));
                }
            }
            return Ok(self.unary_expr()?.not());
        }
        self.postfix_expr()
    }

    // postfix: primary [&& mask] — composite mask unless primary was a
    // bare logical event, in which case the mask attaches to it.
    fn postfix_expr(&mut self) -> Result<EventExpr, EventError> {
        let (mut e, is_logical) = self.primary()?;
        let mut first = true;
        while self.eat(&Tok::AmpAmp) {
            let m = self.mask()?;
            if first && is_logical {
                if let EventExpr::Logical(le) = &mut e {
                    le.mask = Some(m);
                    first = false;
                    continue;
                }
            }
            e = e.masked(m);
            first = false;
        }
        Ok(e)
    }

    /// Returns `(expr, was-a-bare-logical-event)`.
    fn primary(&mut self) -> Result<(EventExpr, bool), EventError> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let e = self.event()?;
                self.expect(&Tok::RParen)?;
                Ok((e, false))
            }
            Tok::Ident(name) => match name.as_str() {
                "empty" => {
                    self.bump();
                    Ok((EventExpr::Empty, false))
                }
                "before" | "after" => {
                    let e = self.qualified_event()?;
                    Ok((e, true))
                }
                "at" => {
                    self.bump();
                    let spec = self.time_literal()?;
                    Ok((
                        EventExpr::basic(BasicEvent::Time(TimeEvent::At(spec))),
                        true,
                    ))
                }
                "relative" => {
                    self.bump();
                    if self.eat(&Tok::Plus) {
                        self.expect(&Tok::LParen)?;
                        let inner = self.event()?;
                        self.expect(&Tok::RParen)?;
                        return Ok((inner.relative_plus(), false));
                    }
                    if let Tok::Int(n) = self.peek().clone() {
                        self.bump();
                        let n = self.check_u32(n, "relative")?;
                        self.expect(&Tok::LParen)?;
                        let inner = self.event()?;
                        self.expect(&Tok::RParen)?;
                        return Ok((inner.relative_n(n), false));
                    }
                    let list = self.event_list()?;
                    Ok((EventExpr::Relative(list), false))
                }
                "prior" => {
                    self.bump();
                    self.curried_no_plus("prior")
                }
                "sequence" => {
                    self.bump();
                    self.curried_no_plus("sequence")
                }
                "choose" => {
                    self.bump();
                    let n = self.count("choose")?;
                    self.expect(&Tok::LParen)?;
                    let inner = self.event()?;
                    self.expect(&Tok::RParen)?;
                    Ok((inner.choose(n), false))
                }
                "every" => {
                    self.bump();
                    // `every time(...)` is a time event; `every N (E)` is
                    // the counting operator.
                    if self.ident_is("time") {
                        let spec = self.time_literal()?;
                        return Ok((
                            EventExpr::basic(BasicEvent::Time(TimeEvent::Every(spec))),
                            true,
                        ));
                    }
                    let n = self.count("every")?;
                    self.expect(&Tok::LParen)?;
                    let inner = self.event()?;
                    self.expect(&Tok::RParen)?;
                    Ok((inner.every(n), false))
                }
                "fa" | "faAbs" => {
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let a = self.event()?;
                    self.expect(&Tok::Comma)?;
                    let b = self.event()?;
                    self.expect(&Tok::Comma)?;
                    let c = self.event()?;
                    self.expect(&Tok::RParen)?;
                    let e = if name == "fa" {
                        EventExpr::fa(a, b, c)
                    } else {
                        EventExpr::fa_abs(a, b, c)
                    };
                    Ok((e, false))
                }
                "state" => {
                    // explicit object-state shorthand: state(mask)
                    self.bump();
                    self.expect(&Tok::LParen)?;
                    let m = self.mask()?;
                    self.expect(&Tok::RParen)?;
                    Ok((EventExpr::state(m), false))
                }
                _ => {
                    // Bare identifier: method shorthand, or the
                    // object-state boolean-expression shorthand.
                    self.bump();
                    match self.peek() {
                        Tok::Lt
                        | Tok::Le
                        | Tok::Gt
                        | Tok::Ge
                        | Tok::EqEq
                        | Tok::Ne
                        | Tok::Plus
                        | Tok::Minus
                        | Tok::StarTok
                        | Tok::Slash
                        | Tok::Dot
                        | Tok::LParen => {
                            let m = self.mask_from_ident(name)?;
                            let m = self.mask_binary_tail(m, 0)?;
                            Ok((EventExpr::state(m), false))
                        }
                        _ => Ok((EventExpr::method(name), false)),
                    }
                }
            },
            other => Err(self.error(format!("expected an event, found {other}"))),
        }
    }

    fn curried_no_plus(&mut self, op: &'static str) -> Result<(EventExpr, bool), EventError> {
        if self.peek() == &Tok::Plus {
            return Err(EventError::RedundantPlus { operator: op });
        }
        if let Tok::Int(n) = self.peek().clone() {
            self.bump();
            let n = self.check_u32(n, op)?;
            self.expect(&Tok::LParen)?;
            let inner = self.event()?;
            self.expect(&Tok::RParen)?;
            let e = if op == "prior" {
                inner.prior_n(n)
            } else {
                inner.sequence_n(n)
            };
            return Ok((e, false));
        }
        let list = self.event_list()?;
        let e = if op == "prior" {
            EventExpr::Prior(list)
        } else {
            EventExpr::Sequence(list)
        };
        Ok((e, false))
    }

    fn event_list(&mut self) -> Result<Vec<EventExpr>, EventError> {
        self.expect(&Tok::LParen)?;
        let mut list = vec![self.event()?];
        while self.eat(&Tok::Comma) {
            list.push(self.event()?);
        }
        self.expect(&Tok::RParen)?;
        Ok(list)
    }

    fn count(&mut self, op: &'static str) -> Result<u32, EventError> {
        match self.bump() {
            Tok::Int(n) => self.check_u32(n, op),
            other => Err(self.error(format!("`{op}` requires an integer count, found {other}"))),
        }
    }

    fn check_u32(&self, n: i64, op: &'static str) -> Result<u32, EventError> {
        if n < 1 || n > u32::MAX as i64 {
            Err(EventError::InvalidCount {
                operator: match op {
                    "relative" => "relative",
                    "prior" => "prior",
                    "sequence" => "sequence",
                    "choose" => "choose",
                    _ => "every",
                },
                count: n.max(0) as u32,
            })
        } else {
            Ok(n as u32)
        }
    }

    // before/after <kind-or-method> [params] | after time(...)
    fn qualified_event(&mut self) -> Result<EventExpr, EventError> {
        let q = match self.bump() {
            Tok::Ident(s) if s == "before" => Qualifier::Before,
            Tok::Ident(s) if s == "after" => Qualifier::After,
            other => return Err(self.error(format!("expected before/after, found {other}"))),
        };
        let name = match self.bump() {
            Tok::Ident(s) => s,
            other => return Err(self.error(format!("expected an event name, found {other}"))),
        };
        if name == "time" {
            if q == Qualifier::Before {
                return Err(self.error("`before time(...)` is not a valid event".into()));
            }
            // rewind to parse the literal including `time`
            self.pos -= 1;
            let spec = self.time_literal()?;
            return Ok(EventExpr::basic(BasicEvent::Time(TimeEvent::After(spec))));
        }
        let kind = match name.as_str() {
            "create" => EventKind::Create,
            "delete" => EventKind::Delete,
            "update" => EventKind::Update,
            "read" => EventKind::Read,
            "access" => EventKind::Access,
            "tbegin" => EventKind::TBegin,
            "tcomplete" => EventKind::TComplete,
            "tcommit" => EventKind::TCommit,
            "tabort" => EventKind::TAbort,
            _ => EventKind::Method(name),
        };
        let mut le = LogicalEvent::bare(BasicEvent::Db(q, kind));
        // optional parameter declaration `(Item i, int q)` / `(i, q)`
        if matches!(kind_of(&le.basic), Some(EventKind::Method(_))) && self.peek() == &Tok::LParen {
            self.bump();
            let mut params = Vec::new();
            if self.peek() != &Tok::RParen {
                loop {
                    let first = match self.bump() {
                        Tok::Ident(s) => s,
                        other => {
                            return Err(
                                self.error(format!("expected a parameter name, found {other}"))
                            )
                        }
                    };
                    // optional C-style type before the name
                    let name = if let Tok::Ident(second) = self.peek().clone() {
                        self.bump();
                        second
                    } else {
                        first
                    };
                    params.push(name);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
            le.params = params;
        }
        Ok(EventExpr::Logical(le))
    }

    // time(YR=…, MO=…, DAY=…, HR=…, M=…, SEC=…, MS=…)
    fn time_literal(&mut self) -> Result<TimeSpec, EventError> {
        match self.bump() {
            Tok::Ident(s) if s == "time" => {}
            other => return Err(self.error(format!("expected `time`, found {other}"))),
        }
        self.expect(&Tok::LParen)?;
        let mut spec = TimeSpec::default();
        if self.peek() != &Tok::RParen {
            loop {
                let field = match self.bump() {
                    Tok::Ident(s) => s,
                    other => {
                        return Err(self.error(format!("expected a time field, found {other}")))
                    }
                };
                self.expect(&Tok::Assign)?;
                let v = match self.bump() {
                    Tok::Int(n) if n >= 0 => n as u32,
                    other => {
                        return Err(
                            self.error(format!("expected a non-negative integer, found {other}"))
                        )
                    }
                };
                let slot = match field.as_str() {
                    "YR" => &mut spec.yr,
                    "MO" => &mut spec.mo,
                    "DAY" => &mut spec.day,
                    "HR" => &mut spec.hr,
                    "M" | "MIN" => &mut spec.min,
                    "SEC" => &mut spec.sec,
                    "MS" => &mut spec.ms,
                    other => {
                        return Err(self.error(format!(
                            "unknown time field `{other}` (expected YR/MO/DAY/HR/M/SEC/MS)"
                        )))
                    }
                };
                if slot.is_some() {
                    return Err(self.error(format!("duplicate time field `{field}`")));
                }
                *slot = Some(v);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(spec)
    }

    // ----------------------------------------------------------- masks

    fn mask(&mut self) -> Result<MaskExpr, EventError> {
        let lhs = self.mask_unary()?;
        self.mask_binary_tail(lhs, 0)
    }

    /// Precedence-climbing over binary operators with minimum binding
    /// power `min_prec`.
    fn mask_binary_tail(
        &mut self,
        mut lhs: MaskExpr,
        min_prec: u8,
    ) -> Result<MaskExpr, EventError> {
        loop {
            let (op, prec) = match self.peek() {
                Tok::PipePipe => (BinOp::Or, 1),
                Tok::AmpAmp => (BinOp::And, 2),
                Tok::EqEq => (BinOp::Eq, 3),
                Tok::Ne => (BinOp::Ne, 3),
                Tok::Lt => (BinOp::Lt, 4),
                Tok::Le => (BinOp::Le, 4),
                Tok::Gt => (BinOp::Gt, 4),
                Tok::Ge => (BinOp::Ge, 4),
                Tok::Plus => (BinOp::Add, 5),
                Tok::Minus => (BinOp::Sub, 5),
                Tok::StarTok => (BinOp::Mul, 6),
                Tok::Slash => (BinOp::Div, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let mut rhs = self.mask_unary()?;
            // left-associative: bind tighter operators into rhs
            loop {
                let next_prec = match self.peek() {
                    Tok::PipePipe => 1,
                    Tok::AmpAmp => 2,
                    Tok::EqEq | Tok::Ne => 3,
                    Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge => 4,
                    Tok::Plus | Tok::Minus => 5,
                    Tok::StarTok | Tok::Slash => 6,
                    _ => 0,
                };
                if next_prec > prec {
                    rhs = self.mask_binary_tail(rhs, next_prec)?;
                } else {
                    break;
                }
            }
            lhs = MaskExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mask_unary(&mut self) -> Result<MaskExpr, EventError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            self.depth -= 1;
            return Err(self.error(format!(
                "mask nesting exceeds the maximum depth of {MAX_DEPTH}"
            )));
        }
        let r = self.mask_unary_inner();
        self.depth -= 1;
        r
    }

    fn mask_unary_inner(&mut self) -> Result<MaskExpr, EventError> {
        if self.eat(&Tok::Bang) {
            return Ok(MaskExpr::Unary(UnOp::Not, Box::new(self.mask_unary()?)));
        }
        if self.eat(&Tok::Minus) {
            return Ok(MaskExpr::Unary(UnOp::Neg, Box::new(self.mask_unary()?)));
        }
        self.mask_postfix()
    }

    fn mask_postfix(&mut self) -> Result<MaskExpr, EventError> {
        let mut e = self.mask_atom()?;
        while self.eat(&Tok::Dot) {
            match self.bump() {
                Tok::Ident(m) => e = MaskExpr::Member(Box::new(e), m),
                other => return Err(self.error(format!("expected a member name, found {other}"))),
            }
        }
        Ok(e)
    }

    fn mask_atom(&mut self) -> Result<MaskExpr, EventError> {
        match self.bump() {
            Tok::Int(i) => Ok(MaskExpr::Int(i)),
            Tok::Float(f) => Ok(MaskExpr::Float(FloatBits::from_f64(f))),
            Tok::Str(s) => Ok(MaskExpr::Str(s)),
            Tok::Ident(s) if s == "true" => Ok(MaskExpr::Bool(true)),
            Tok::Ident(s) if s == "false" => Ok(MaskExpr::Bool(false)),
            Tok::Ident(name) => self.mask_call_or_name(name),
            Tok::LParen => {
                let m = self.mask()?;
                self.expect(&Tok::RParen)?;
                Ok(m)
            }
            other => Err(self.error(format!("expected a mask term, found {other}"))),
        }
    }

    /// Continue a mask after having consumed an identifier.
    fn mask_from_ident(&mut self, name: String) -> Result<MaskExpr, EventError> {
        let base = self.mask_call_or_name(name)?;
        // allow member chains
        let mut e = base;
        while self.eat(&Tok::Dot) {
            match self.bump() {
                Tok::Ident(m) => e = MaskExpr::Member(Box::new(e), m),
                other => return Err(self.error(format!("expected a member name, found {other}"))),
            }
        }
        Ok(e)
    }

    fn mask_call_or_name(&mut self, name: String) -> Result<MaskExpr, EventError> {
        if self.eat(&Tok::LParen) {
            let mut args = Vec::new();
            if self.peek() != &Tok::RParen {
                loop {
                    args.push(self.mask()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
            Ok(MaskExpr::Call(name, args))
        } else {
            Ok(MaskExpr::Name(name))
        }
    }
}

fn kind_of(b: &BasicEvent) -> Option<&EventKind> {
    match b {
        BasicEvent::Db(_, k) => Some(k),
        _ => None,
    }
}

fn is_event_keyword(s: &str) -> bool {
    matches!(
        s,
        "before"
            | "after"
            | "at"
            | "relative"
            | "prior"
            | "sequence"
            | "choose"
            | "every"
            | "fa"
            | "faAbs"
            | "empty"
            | "state"
            | "time"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn round_trip(src: &str) {
        let e1 = parse_event(src).unwrap();
        let printed = e1.to_string();
        let e2 = parse_event(&printed)
            .unwrap_or_else(|err| panic!("re-parse of `{printed}` failed: {err}"));
        assert_eq!(
            e1, e2,
            "print/parse round trip changed `{src}` → `{printed}`"
        );
    }

    #[test]
    fn parses_basic_events() {
        let e = parse_event("after read").unwrap();
        assert_eq!(e, EventExpr::basic(BasicEvent::after(EventKind::Read)));
        let e = parse_event("before tcomplete").unwrap();
        assert_eq!(
            e,
            EventExpr::basic(BasicEvent::before(EventKind::TComplete))
        );
    }

    #[test]
    fn rejects_before_tcommit() {
        let err = parse_event("before tcommit").unwrap_err();
        assert!(err.to_string().contains("not allowed"), "{err}");
    }

    #[test]
    fn parses_method_with_params_and_mask() {
        // paper: after withdraw (Item i, int q) && q>1000
        let e = parse_event("after withdraw(Item i, int q) && q > 1000").unwrap();
        match e {
            EventExpr::Logical(le) => {
                assert_eq!(le.basic, BasicEvent::after_method("withdraw"));
                assert_eq!(le.params, vec!["i", "q"]);
                assert!(le.mask.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_untyped_params() {
        let e = parse_event("after withdraw(i, q) && q > 100").unwrap();
        match e {
            EventExpr::Logical(le) => assert_eq!(le.params, vec!["i", "q"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn method_shorthand() {
        let e = parse_event("deposit").unwrap();
        assert_eq!(e, EventExpr::method("deposit"));
        // !deposit = !(before deposit | after deposit)
        let e = parse_event("!deposit").unwrap();
        assert_eq!(e, EventExpr::method("deposit").not());
    }

    #[test]
    fn state_shorthand() {
        // paper: balance < 500.00
        let e = parse_event("balance < 500.0").unwrap();
        assert_eq!(e, EventExpr::state(MaskExpr::lt("balance", 500.0)));
        let e2 = parse_event("state(balance < 500.0)").unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn state_shorthand_with_call() {
        // trigger T1 shape: !authorized(user())
        let e = parse_event("!authorized(user())").unwrap();
        match e {
            EventExpr::Masked(_, m) => {
                assert_eq!(m.to_string(), "!authorized(user())");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_operators() {
        round_trip("relative(after motorStart, after motorStop)");
        round_trip("prior(after update, after tcommit)");
        round_trip("sequence(after tbegin, before access, after access, before tcomplete)");
        round_trip("choose 5 (after tcommit)");
        round_trip("every 5 (after access)");
        round_trip("relative+(after deposit)");
        round_trip("relative 5 (after deposit)");
        round_trip("prior 3 (after deposit)");
        round_trip(
            "fa(after tbegin, prior(after update, after tcommit), (after tcommit | after tabort))",
        );
        round_trip("faAbs(after a, after b, after c)");
        round_trip("!(before deposit | after deposit)");
        round_trip("after a & after b");
        round_trip("empty");
    }

    #[test]
    fn semicolon_sequencing() {
        let e = parse_event("after tbegin; before access; after access; before tcomplete").unwrap();
        let f =
            parse_event("sequence(after tbegin, before access, after access, before tcomplete)")
                .unwrap();
        assert_eq!(e, f);
    }

    #[test]
    fn prior_plus_rejected_with_explanation() {
        let err = parse_event("prior+(after a)").unwrap_err();
        assert!(err.to_string().contains("equivalent to `E`"), "{err}");
        let err = parse_event("sequence+(after a)").unwrap_err();
        assert!(err.to_string().contains("equivalent"), "{err}");
    }

    #[test]
    fn zero_counts_rejected() {
        assert!(parse_event("choose 0 (after a)").is_err());
        assert!(parse_event("relative 0 (after a)").is_err());
    }

    #[test]
    fn time_events() {
        let e = parse_event("at time(HR=9)").unwrap();
        assert_eq!(
            e,
            EventExpr::basic(BasicEvent::Time(TimeEvent::At(TimeSpec::at_hour(9))))
        );
        let e = parse_event("after time(HR=2, M=30)").unwrap();
        match e {
            EventExpr::Logical(le) => {
                assert!(matches!(le.basic, BasicEvent::Time(TimeEvent::After(_))));
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_event("every time(DAY=7)").unwrap();
        assert!(matches!(
            e,
            EventExpr::Logical(LogicalEvent {
                basic: BasicEvent::Time(TimeEvent::Every(_)),
                ..
            })
        ));
        round_trip("at time(HR=9)");
        round_trip("every time(DAY=7)");
        round_trip("after time(HR=2, M=30)");
    }

    #[test]
    fn time_literal_errors() {
        assert!(parse_event("at time(XX=1)").is_err());
        assert!(parse_event("at time(HR=1, HR=2)").is_err());
        assert!(parse_event("before time(HR=1)").is_err());
    }

    #[test]
    fn composite_mask_binds_to_parenthesized_event() {
        let e = parse_event("(after update | after create) && balance < 500.0").unwrap();
        assert!(matches!(e, EventExpr::Masked(_, _)));
    }

    #[test]
    fn logical_mask_binds_to_bare_event() {
        let e = parse_event("after withdraw && amount > 3").unwrap();
        match e {
            EventExpr::Logical(le) => assert!(le.mask.is_some()),
            other => panic!("expected logical-event mask, got {other:?}"),
        }
    }

    #[test]
    fn double_mask_becomes_composite() {
        // first && attaches to the logical event, second is composite
        let e = parse_event("after w && a > 1 && b > 2").unwrap();
        // mask grammar consumes `a > 1 && b > 2` as one mask
        match e {
            EventExpr::Logical(le) => {
                assert_eq!(le.mask.unwrap().to_string(), "a > 1 && b > 2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_or_lower_than_and() {
        let e = parse_event("after a | after b & after c").unwrap();
        assert!(matches!(e, EventExpr::Or(_, _)));
        let e = parse_event("(after a | after b) & after c").unwrap();
        assert!(matches!(e, EventExpr::And(_, _)));
    }

    #[test]
    fn mask_precedence() {
        let m = parse_mask("1 + 2 * 3 == 7").unwrap();
        assert_eq!(m.to_string(), "1 + 2 * 3 == 7");
        let m = parse_mask("(1 + 2) * 3 == 9").unwrap();
        assert_eq!(m.to_string(), "(1 + 2) * 3 == 9");
        let m = parse_mask("a < 1 && b > 2 || c == 3").unwrap();
        assert_eq!(m.to_string(), "a < 1 && b > 2 || c == 3");
    }

    #[test]
    fn mask_member_chains() {
        let m = parse_mask("i.balance < reorder(i)").unwrap();
        assert_eq!(m.to_string(), "i.balance < reorder(i)");
    }

    #[test]
    fn a_float_literal_past_f64_range_is_refused() {
        let huge = format!("q > 1{}.0", "0".repeat(400));
        assert!(parse_mask(&huge).is_err());
        assert!(parse_mask("q > 1000000.5").is_ok());
    }

    #[test]
    fn comments_are_skipped() {
        let e = parse_event("after a // fire on a\n | after b").unwrap();
        assert!(matches!(e, EventExpr::Or(_, _)));
    }

    #[test]
    fn error_positions_reported() {
        let err = parse_event("after a |").unwrap_err();
        match err {
            EventError::Parse { offset, .. } => assert_eq!(offset, 9),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trip_complex_triggers() {
        // the paper's T4 and T7 shapes
        round_trip(
            "relative(at time(HR=9), prior(choose 5 (after tcommit), after tcommit) & \
             !prior(at time(HR=9), after tcommit))",
        );
        round_trip("fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))");
        round_trip("after deposit; before withdraw; after withdraw");
    }

    #[test]
    fn unbalanced_parens_error() {
        assert!(parse_event("(after a").is_err());
        assert!(parse_event("relative(after a, after b").is_err());
    }
}
