//! Recursive-descent parser for MiniHLS.

use super::ast::*;
use super::pragma::{parse_pragma, Pragma};
use super::token::{Token, TokenKind};
use super::{CompileError, Stage};

/// Deepest nesting [`parse`] accepts. Each parenthesised, bracketed or
/// call-argument expression, ternary branch, unary operator, nested block
/// and left-folded binary operator (`a + a + … + a` is a tree one level
/// deeper per `+`) is one level; parsing and lowering recurse per level, so
/// uncapped, a few thousand levels overflow the stack and abort the
/// process. The Rosetta kernels reach at most 10.
pub const MAX_NESTING: usize = 256;

/// Parse a token stream into a [`Program`].
///
/// # Errors
/// Returns a [`CompileError`] on syntax errors, including nesting deeper
/// than [`MAX_NESTING`].
pub fn parse(tokens: &[Token]) -> Result<Program, CompileError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Nesting levels open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> &'a Token {
        let t = &self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(Stage::Parse, self.line(), msg.into())
    }

    /// Open one more nesting level, refusing to go past [`MAX_NESTING`].
    /// An error ends the parse, so only successful paths close levels.
    fn descend(&mut self) -> Result<(), CompileError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), CompileError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn int(&mut self) -> Result<i64, CompileError> {
        let neg = self.eat(&TokenKind::Minus);
        match *self.peek() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(if neg { -v } else { v })
            }
            ref other => Err(self.err(format!("expected integer, found {other}"))),
        }
    }

    /// Parse a type name such as `int32` or `uint7`. `void` returns None.
    fn type_name(&mut self) -> Result<Option<TypeName>, CompileError> {
        let name = self.ident()?;
        parse_type_text(&name).ok_or_else(|| self.err(format!("unknown type `{name}`")))
    }

    fn program(&mut self) -> Result<Program, CompileError> {
        let mut functions = Vec::new();
        let mut pending: Vec<Pragma> = Vec::new();
        loop {
            match self.peek().clone() {
                TokenKind::Eof => break,
                TokenKind::Pragma(raw) => {
                    let line = self.line();
                    self.bump();
                    if let Some(p) = parse_pragma(&raw, line)? {
                        pending.push(p);
                    }
                }
                _ => {
                    let mut f = self.function()?;
                    f.pragmas.append(&mut pending);
                    functions.push(f);
                }
            }
        }
        if functions.is_empty() {
            return Err(self.err("source contains no functions"));
        }
        Ok(Program { functions })
    }

    fn function(&mut self) -> Result<FuncDecl, CompileError> {
        let line = self.line();
        let ret = self.type_name()?;
        let name = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pline = self.line();
                let ty = self
                    .type_name()?
                    .ok_or_else(|| self.err("void parameter not allowed"))?;
                let pname = self.ident()?;
                let array_len = if self.eat(&TokenKind::LBracket) {
                    let len = self.int()?;
                    self.expect(&TokenKind::RBracket)?;
                    if len <= 0 {
                        return Err(self.err("array length must be positive"));
                    }
                    Some(len as u32)
                } else {
                    None
                };
                params.push(ParamDecl {
                    name: pname,
                    ty,
                    array_len,
                    line: pline,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        let body = self.block()?;
        Ok(FuncDecl {
            name,
            ret,
            params,
            body,
            pragmas: Vec::new(),
            line,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.descend()?;
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        let mut pending: Vec<Pragma> = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if let TokenKind::Pragma(raw) = self.peek().clone() {
                let line = self.line();
                self.bump();
                if let Some(p) = parse_pragma(&raw, line)? {
                    match p {
                        Pragma::Unroll { .. } | Pragma::Pipeline { .. } => pending.push(p),
                        other => stmts.push(Stmt::PragmaStmt {
                            pragma: other,
                            line,
                        }),
                    }
                }
                continue;
            }
            let stmt = self.statement()?;
            let stmt = match stmt {
                Stmt::For {
                    var,
                    start,
                    bound,
                    step,
                    body,
                    mut pragmas,
                    line,
                } => {
                    pragmas.append(&mut pending);
                    Stmt::For {
                        var,
                        start,
                        bound,
                        step,
                        body,
                        pragmas,
                        line,
                    }
                }
                other => {
                    if !pending.is_empty() {
                        return Err(
                            self.err("unroll/pipeline pragma must immediately precede a for loop")
                        );
                    }
                    other
                }
            };
            stmts.push(stmt);
        }
        if !pending.is_empty() {
            return Err(self.err("dangling loop pragma at end of block"));
        }
        self.depth -= 1;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Ident(word) => match word.as_str() {
                "if" => self.if_stmt(),
                "for" => self.for_stmt(),
                "return" => {
                    self.bump();
                    let value = if self.eat(&TokenKind::Semi) {
                        None
                    } else {
                        let e = self.expr()?;
                        self.expect(&TokenKind::Semi)?;
                        Some(e)
                    };
                    Ok(Stmt::Return { value, line })
                }
                _ if parse_type_text(&word).is_some() && !matches!(word.as_str(), "void") => {
                    self.decl_stmt()
                }
                _ => self.assign_or_expr_stmt(),
            },
            _ => self.assign_or_expr_stmt(),
        }
    }

    fn decl_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let ty = self
            .type_name()?
            .ok_or_else(|| self.err("cannot declare a void variable"))?;
        let name = self.ident()?;
        if self.eat(&TokenKind::LBracket) {
            let len = self.int()?;
            self.expect(&TokenKind::RBracket)?;
            self.expect(&TokenKind::Semi)?;
            if len <= 0 {
                return Err(self.err("array length must be positive"));
            }
            return Ok(Stmt::Decl {
                name,
                ty,
                array_len: Some(len as u32),
                init: None,
                line,
            });
        }
        let init = if self.eat(&TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&TokenKind::Semi)?;
        Ok(Stmt::Decl {
            name,
            ty,
            array_len: None,
            init,
            line,
        })
    }

    fn assign_or_expr_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let e = self.expr()?;
        match self.peek() {
            TokenKind::Assign | TokenKind::PlusAssign => {
                let compound = matches!(self.peek(), TokenKind::PlusAssign);
                self.bump();
                let target = match &e {
                    Expr::Var(name, _) => LValue::Var(name.clone()),
                    Expr::Index(name, idx, _) => LValue::Index(name.clone(), idx.clone()),
                    _ => return Err(self.err("invalid assignment target")),
                };
                let rhs = self.expr()?;
                self.expect(&TokenKind::Semi)?;
                let value = if compound {
                    Expr::Binary(BinOp::Add, Box::new(e), Box::new(rhs), line)
                } else {
                    rhs
                };
                Ok(Stmt::Assign {
                    target,
                    value,
                    line,
                })
            }
            _ => {
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::ExprStmt { expr: e, line })
            }
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.bump(); // `if`
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_body = self.block()?;
        let else_body = if matches!(self.peek(), TokenKind::Ident(w) if w == "else") {
            self.bump();
            self.block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            line,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        self.bump(); // `for`
        self.expect(&TokenKind::LParen)?;
        // Optional type before the induction variable.
        if let TokenKind::Ident(w) = self.peek().clone() {
            if parse_type_text(&w).is_some() && w != "void" {
                self.bump();
            }
        }
        let var = self.ident()?;
        self.expect(&TokenKind::Assign)?;
        let start = self.int()?;
        self.expect(&TokenKind::Semi)?;
        let var2 = self.ident()?;
        if var2 != var {
            return Err(self.err("for-loop condition must test the induction variable"));
        }
        let strict = if self.eat(&TokenKind::Lt) {
            true
        } else if self.eat(&TokenKind::Le) {
            false
        } else {
            return Err(self.err("for-loop condition must be `<` or `<=`"));
        };
        let mut bound = self.int()?;
        if !strict {
            bound += 1;
        }
        self.expect(&TokenKind::Semi)?;
        let var3 = self.ident()?;
        if var3 != var {
            return Err(self.err("for-loop increment must update the induction variable"));
        }
        let step = if self.eat(&TokenKind::PlusPlus) {
            1
        } else if self.eat(&TokenKind::PlusAssign) {
            let s = self.int()?;
            if s <= 0 {
                return Err(self.err("for-loop step must be positive"));
            }
            s
        } else {
            return Err(self.err("for-loop increment must be `++` or `+= N`"));
        };
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Stmt::For {
            var,
            start,
            bound,
            step,
            body,
            pragmas: Vec::new(),
            line,
        })
    }

    // Expression parsing: precedence climbing.

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.descend()?;
        let e = self.ternary()?;
        self.depth -= 1;
        Ok(e)
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let cond = self.binary(0)?;
        if self.eat(&TokenKind::Question) {
            let line = self.line();
            let a = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let b = self.expr()?;
            Ok(Expr::Ternary(
                Box::new(cond),
                Box::new(a),
                Box::new(b),
                line,
            ))
        } else {
            Ok(cond)
        }
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let outer = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binop_of(self.peek()) {
            if prec < min_prec {
                break;
            }
            // Each fold puts `lhs` one level further down the tree.
            self.descend()?;
            let line = self.line();
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), line);
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Tilde => UnOp::Not,
            TokenKind::Bang => UnOp::LNot,
            _ => return self.postfix(),
        };
        self.bump();
        self.descend()?;
        let operand = self.unary()?;
        self.depth -= 1;
        Ok(Expr::Unary(op, Box::new(operand), line))
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                match self.peek() {
                    TokenKind::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if !self.eat(&TokenKind::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if !self.eat(&TokenKind::Comma) {
                                    break;
                                }
                            }
                            self.expect(&TokenKind::RParen)?;
                        }
                        Ok(Expr::Call(name, args, line))
                    }
                    TokenKind::LBracket => {
                        self.bump();
                        let idx = self.expr()?;
                        self.expect(&TokenKind::RBracket)?;
                        Ok(Expr::Index(name, Box::new(idx), line))
                    }
                    _ => Ok(Expr::Var(name, line)),
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

fn binop_of(t: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match t {
        TokenKind::PipePipe => (BinOp::LOr, 0),
        TokenKind::AmpAmp => (BinOp::LAnd, 1),
        TokenKind::Pipe => (BinOp::Or, 2),
        TokenKind::Caret => (BinOp::Xor, 3),
        TokenKind::Amp => (BinOp::And, 4),
        TokenKind::EqEq => (BinOp::Eq, 5),
        TokenKind::Ne => (BinOp::Ne, 5),
        TokenKind::Lt => (BinOp::Lt, 6),
        TokenKind::Le => (BinOp::Le, 6),
        TokenKind::Gt => (BinOp::Gt, 6),
        TokenKind::Ge => (BinOp::Ge, 6),
        TokenKind::Shl => (BinOp::Shl, 7),
        TokenKind::Shr => (BinOp::Shr, 7),
        TokenKind::Plus => (BinOp::Add, 8),
        TokenKind::Minus => (BinOp::Sub, 8),
        TokenKind::Star => (BinOp::Mul, 9),
        TokenKind::Slash => (BinOp::Div, 9),
        TokenKind::Percent => (BinOp::Rem, 9),
        _ => return None,
    })
}

/// Parse a type token: `intN`, `uintN`, or `void` (None).
pub fn parse_type_text(s: &str) -> Option<Option<TypeName>> {
    if s == "void" {
        return Some(None);
    }
    let (signed, digits) = if let Some(d) = s.strip_prefix("uint") {
        (false, d)
    } else if let Some(d) = s.strip_prefix("int") {
        (true, d)
    } else if s == "bool" {
        return Some(Some(TypeName {
            signed: false,
            bits: 1,
        }));
    } else {
        return None;
    };
    let bits: u16 = digits.parse().ok()?;
    if (1..=64).contains(&bits) {
        Some(Some(TypeName { signed, bits }))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::lexer::lex;

    fn parse_src(src: &str) -> Result<Program, CompileError> {
        parse(&lex(src).unwrap())
    }

    #[test]
    fn minimal_function() {
        let p = parse_src("int32 f(int32 x) { return x; }").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].name, "f");
        assert_eq!(p.functions[0].params.len(), 1);
    }

    #[test]
    fn array_params_and_decls() {
        let p = parse_src("void f(int8 a[16]) { int8 buf[4]; buf[0] = a[1]; }").unwrap();
        let f = &p.functions[0];
        assert_eq!(f.params[0].array_len, Some(16));
        assert!(matches!(
            f.body[0],
            Stmt::Decl {
                array_len: Some(4),
                ..
            }
        ));
    }

    #[test]
    fn for_loop_with_pragma() {
        let src = "void f() {\n#pragma HLS unroll factor=4\nfor (i = 0; i < 16; i++) { }\n}";
        let p = parse_src(src).unwrap();
        match &p.functions[0].body[0] {
            Stmt::For {
                pragmas,
                start,
                bound,
                step,
                ..
            } => {
                assert_eq!(pragmas.len(), 1);
                assert_eq!((*start, *bound, *step), (0, 16, 1));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn le_bound_normalized() {
        let p = parse_src("void f() { for (i = 1; i <= 10; i += 2) { } }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::For { bound, step, .. } => {
                assert_eq!(*bound, 11);
                assert_eq!(*step, 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn precedence() {
        let p = parse_src("int32 f() { return 1 + 2 * 3; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return {
                value: Some(Expr::Binary(BinOp::Add, _, rhs, _)),
                ..
            } => assert!(matches!(**rhs, Expr::Binary(BinOp::Mul, _, _, _))),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn ternary_and_calls() {
        let p = parse_src("int32 f(int32 x) { return x > 0 ? g(x, 1) : 0 - x; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Return {
                value: Some(Expr::Ternary(..)),
                ..
            } => {}
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn compound_assign_desugars() {
        let p = parse_src("void f(int32 x) { x += 2; }").unwrap();
        match &p.functions[0].body[0] {
            Stmt::Assign {
                value: Expr::Binary(BinOp::Add, ..),
                ..
            } => {}
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn function_pragma_attaches() {
        let src = "#pragma HLS inline\nint32 f(int32 x) { return x; }";
        let p = parse_src(src).unwrap();
        assert_eq!(p.functions[0].pragmas.len(), 1);
    }

    #[test]
    fn dangling_loop_pragma_rejected() {
        let src = "void f() {\n#pragma HLS unroll\nint32 x = 1;\n}";
        assert!(parse_src(src).is_err());
    }

    #[test]
    fn bad_loop_shape_rejected() {
        assert!(parse_src("void f() { for (i = 0; j < 4; i++) { } }").is_err());
        assert!(parse_src("void f() { for (i = 0; i < 4; j++) { } }").is_err());
    }

    #[test]
    fn type_text_parsing() {
        assert_eq!(
            parse_type_text("int13"),
            Some(Some(TypeName {
                signed: true,
                bits: 13
            }))
        );
        assert_eq!(parse_type_text("void"), Some(None));
        assert_eq!(parse_type_text("int0"), None);
        assert_eq!(parse_type_text("uint65"), None);
        assert_eq!(parse_type_text("float"), None);
    }
}
