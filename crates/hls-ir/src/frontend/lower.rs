//! AST → IR lowering.
//!
//! Control flow is lowered structurally: `for` loops become [`Region::Loop`]
//! regions (with loop-carried scalars turned into `Phi` ops), and `if`/`else`
//! is lowered by **predication** — assignments under a condition become
//! `select` ops, conditional stores read-modify-write. This mirrors how HLS
//! tools flatten control flow into datapaths, and it is exactly the structure
//! the congestion features measure.

use super::ast::*;
use super::pragma::Pragma;
use super::{CompileError, Stage};
use crate::builder::FunctionBuilder;
use crate::directives::{Directives, FULL_UNROLL};
use crate::function::{ArrayId, FuncId};
use crate::module::Module;
use crate::op::{CmpPred, OpId, OpKind, Operand, Operation};
use crate::source::SourceLoc;
use crate::types::IrType;
use std::collections::{BTreeSet, HashMap};

/// Lower a parsed program to an IR module (the last function becomes the
/// top) plus the directives harvested from its pragmas.
///
/// # Errors
/// Returns a [`CompileError`] on semantic problems (unknown names, bad
/// calls, returns under conditions, …).
pub fn lower(program: &Program, name: &str) -> Result<(Module, Directives), CompileError> {
    let mut module = Module::new(name);
    let mut directives = Directives::new();

    // Pass 1: register signatures.
    let mut sigs: HashMap<String, (FuncId, Option<IrType>, Vec<ParamDecl>)> = HashMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        if sigs.contains_key(&f.name) {
            return Err(CompileError::new(
                Stage::Lower,
                f.line,
                format!("duplicate function `{}`", f.name),
            ));
        }
        let ret = f.ret.map(to_ir_type);
        sigs.insert(f.name.clone(), (FuncId(i as u32), ret, f.params.clone()));
    }

    // Pass 2: lower each function.
    for f in &program.functions {
        let lowered = FuncLowerer::new(f, &sigs, &mut directives).run()?;
        module.push_function(lowered);
    }
    module.top = FuncId(program.functions.len() as u32 - 1);
    Ok((module, directives))
}

fn to_ir_type(t: TypeName) -> IrType {
    if t.signed {
        IrType::int(t.bits)
    } else {
        IrType::uint(t.bits)
    }
}

/// A scalar variable binding: current value + declared type.
#[derive(Debug, Clone, Copy)]
struct Binding {
    value: OpId,
    ty: IrType,
}

struct FuncLowerer<'a> {
    decl: &'a FuncDecl,
    sigs: &'a HashMap<String, (FuncId, Option<IrType>, Vec<ParamDecl>)>,
    directives: &'a mut Directives,
    b: FunctionBuilder,
    env: HashMap<String, Binding>,
    arrays: HashMap<String, ArrayId>,
    returned: bool,
}

impl<'a> FuncLowerer<'a> {
    fn new(
        decl: &'a FuncDecl,
        sigs: &'a HashMap<String, (FuncId, Option<IrType>, Vec<ParamDecl>)>,
        directives: &'a mut Directives,
    ) -> Self {
        FuncLowerer {
            decl,
            sigs,
            directives,
            b: FunctionBuilder::new(decl.name.clone()),
            env: HashMap::new(),
            arrays: HashMap::new(),
            returned: false,
        }
    }

    fn err(&self, line: u32, msg: impl Into<String>) -> CompileError {
        CompileError::new(Stage::Lower, line, msg.into())
    }

    fn run(mut self) -> Result<crate::function::Function, CompileError> {
        // Function-level pragmas.
        for p in &self.decl.pragmas {
            match p {
                Pragma::Inline { off } => {
                    self.directives.set_inline(&self.decl.name, !off);
                }
                Pragma::ArrayPartition { variable, scheme } => {
                    self.directives
                        .set_partition(&format!("{}/{}", self.decl.name, variable), *scheme);
                }
                _ => {
                    return Err(self.err(
                        self.decl.line,
                        "only inline/array_partition pragmas may precede a function",
                    ))
                }
            }
        }

        self.b.set_loc(SourceLoc::new(self.decl.line, 1));
        if let Some(r) = self.decl.ret {
            self.b.set_ret_type(to_ir_type(r));
        }

        // Parameters.
        for p in &self.decl.params {
            let ty = to_ir_type(p.ty);
            match p.array_len {
                Some(len) => {
                    let id = self.b.array_param(&p.name, ty, len);
                    self.arrays.insert(p.name.clone(), id);
                }
                None => {
                    let v = self.b.scalar_param(&p.name, ty);
                    self.env.insert(p.name.clone(), Binding { value: v, ty });
                }
            }
        }

        self.stmts(&self.decl.body.to_vec(), None)?;

        if self.decl.ret.is_some() && !self.returned {
            return Err(self.err(self.decl.line, "missing return in non-void function"));
        }
        if self.decl.ret.is_none() && !self.returned {
            self.b.ret(None);
        }

        let mut f = self.b.finish();
        // Apply partition pragmas recorded for this function's arrays.
        for a in &mut f.arrays {
            let key = format!("{}/{}", f.name, a.name);
            let p = self.directives.partition(&key);
            if p != crate::directives::Partition::None {
                a.partition = p;
            }
        }
        f.inline = self.directives.inline(&f.name);
        Ok(f)
    }

    fn stmts(&mut self, body: &[Stmt], pred: Option<OpId>) -> Result<(), CompileError> {
        for s in body {
            self.stmt(s, pred)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, pred: Option<OpId>) -> Result<(), CompileError> {
        match s {
            Stmt::Decl {
                name,
                ty,
                array_len,
                init,
                line,
            } => {
                self.b.set_loc(SourceLoc::new(*line, 1));
                let ty = to_ir_type(*ty);
                match array_len {
                    Some(len) => {
                        if self.arrays.contains_key(name) {
                            return Err(self.err(*line, format!("array `{name}` redeclared")));
                        }
                        let id = self.b.local_array(name, ty, *len);
                        self.arrays.insert(name.clone(), id);
                    }
                    None => {
                        let v = match init {
                            Some(e) => {
                                let v = self.expr(e)?;
                                self.b.cast(v, ty)
                            }
                            None => self.b.constant(0, ty),
                        };
                        self.name_op(v, name);
                        self.env.insert(name.clone(), Binding { value: v, ty });
                    }
                }
                Ok(())
            }
            Stmt::Assign {
                target,
                value,
                line,
            } => {
                self.b.set_loc(SourceLoc::new(*line, 1));
                let rhs = self.expr(value)?;
                match target {
                    LValue::Var(name) => {
                        let binding = *self
                            .env
                            .get(name)
                            .ok_or_else(|| self.err(*line, format!("unknown variable `{name}`")))?;
                        let rhs = self.b.cast(rhs, binding.ty);
                        let new = match pred {
                            Some(p) => self.b.select(p, rhs, binding.value),
                            None => rhs,
                        };
                        self.name_op(new, name);
                        self.env.insert(
                            name.clone(),
                            Binding {
                                value: new,
                                ty: binding.ty,
                            },
                        );
                    }
                    LValue::Index(name, idx) => {
                        let arr = *self
                            .arrays
                            .get(name)
                            .ok_or_else(|| self.err(*line, format!("unknown array `{name}`")))?;
                        let idx = self.expr(idx)?;
                        let elem = self.b.function_mut().array(arr).elem;
                        let rhs = self.b.cast(rhs, elem);
                        match pred {
                            Some(p) => {
                                // Predicated store: read-modify-write.
                                let old = self.b.load(arr, idx);
                                let v = self.b.select(p, rhs, old);
                                self.b.store(arr, idx, v);
                            }
                            None => {
                                self.b.store(arr, idx, rhs);
                            }
                        }
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                line,
            } => {
                self.b.set_loc(SourceLoc::new(*line, 1));
                let c = self.expr(cond)?;
                let c = self.pred_of(c);
                let then_pred = match pred {
                    Some(p) => self.b.binary(OpKind::And, p, c),
                    None => c,
                };
                self.stmts(then_body, Some(then_pred))?;
                if !else_body.is_empty() {
                    let one = self.b.constant(1, IrType::bool());
                    let not_c = self.b.binary(OpKind::Xor, c, one);
                    let else_pred = match pred {
                        Some(p) => self.b.binary(OpKind::And, p, not_c),
                        None => not_c,
                    };
                    self.stmts(else_body, Some(else_pred))?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                start,
                bound,
                step,
                body,
                pragmas,
                line,
            } => {
                if pred.is_some() {
                    return Err(self.err(*line, "for loops inside if are not supported"));
                }
                self.b.set_loc(SourceLoc::new(*line, 1));
                let trip = if bound > start {
                    ((bound - start) as u64).div_ceil(*step as u64)
                } else {
                    0
                };
                if trip == 0 {
                    return Err(self.err(*line, "loop with zero iterations"));
                }

                let mut pipeline_ii = None;
                let mut unroll = None;
                for p in pragmas {
                    match p {
                        Pragma::Pipeline { ii } => pipeline_ii = Some(*ii),
                        Pragma::Unroll { factor } => unroll = Some(factor.unwrap_or(FULL_UNROLL)),
                        _ => {
                            return Err(
                                self.err(*line, "only unroll/pipeline pragmas allowed on loops")
                            )
                        }
                    }
                }

                let (label, iv) = self.b.begin_loop(trip, pipeline_ii);
                if let Some(f) = unroll {
                    self.directives.set_unroll(&label, f);
                }

                // Induction-variable value: start + iv * step.
                let max_val = *start + (trip as i64 - 1) * step;
                let iv_ty = IrType::for_range(max_val.max(0) as u64);
                let mut value = iv;
                if *step != 1 {
                    let c = self.b.constant(*step, IrType::for_const(*step));
                    value = self.b.binary(OpKind::Mul, value, c);
                }
                if *start != 0 {
                    let c = self.b.constant(*start, IrType::for_const(*start));
                    value = self.b.binary(OpKind::Add, value, c);
                }
                let value = self.b.cast(value, iv_ty);
                let shadowed = self.env.insert(var.clone(), Binding { value, ty: iv_ty });

                // Loop-carried scalars: any outer variable assigned in the
                // body gets a Phi at loop entry, in name order so the op
                // order (and everything scheduled from it) is the same on
                // every compile.
                let mut assigned = BTreeSet::new();
                collect_assigned(body, &mut assigned);
                let mut carried: Vec<(String, OpId, IrType)> = Vec::new();
                for name in &assigned {
                    if name == var {
                        continue;
                    }
                    if let Some(binding) = self.env.get(name).copied() {
                        let mut op = Operation::new(OpId(0), OpKind::Phi, binding.ty);
                        op.name = name.clone();
                        op.operands
                            .push(Operand::new(binding.value, binding.ty.bits()));
                        let phi = self.emit_raw(op);
                        carried.push((name.clone(), phi, binding.ty));
                        self.env.insert(
                            name.clone(),
                            Binding {
                                value: phi,
                                ty: binding.ty,
                            },
                        );
                    }
                }

                self.stmts(body, None)?;

                // Close the phis with their latch values.
                for (name, phi, ty) in &carried {
                    let latch = self.env[name].value;
                    let latch = self.b.cast(latch, *ty);
                    self.b.function_mut().add_operand(*phi, latch, ty.bits());
                    // After the loop the register holding the phi carries the
                    // final value.
                    self.env.insert(
                        name.clone(),
                        Binding {
                            value: *phi,
                            ty: *ty,
                        },
                    );
                }

                self.b.end_loop();
                match shadowed {
                    Some(old) => {
                        self.env.insert(var.clone(), old);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
                Ok(())
            }
            Stmt::Return { value, line } => {
                if pred.is_some() {
                    return Err(self.err(*line, "return inside if is not supported"));
                }
                if self.returned {
                    return Err(self.err(*line, "multiple returns"));
                }
                self.b.set_loc(SourceLoc::new(*line, 1));
                let v = match value {
                    Some(e) => {
                        let v = self.expr(e)?;
                        let ret_ty = self
                            .decl
                            .ret
                            .map(to_ir_type)
                            .ok_or_else(|| self.err(*line, "void function returns a value"))?;
                        Some(self.b.cast(v, ret_ty))
                    }
                    None => None,
                };
                self.b.ret(v);
                self.returned = true;
                Ok(())
            }
            Stmt::ExprStmt { expr, line } => {
                self.b.set_loc(SourceLoc::new(*line, 1));
                self.expr(expr)?;
                Ok(())
            }
            Stmt::PragmaStmt { pragma, line } => {
                match pragma {
                    Pragma::ArrayPartition { variable, scheme } => {
                        self.directives
                            .set_partition(&format!("{}/{}", self.decl.name, variable), *scheme);
                    }
                    Pragma::Inline { off } => {
                        self.directives.set_inline(&self.decl.name, !off);
                    }
                    _ => {
                        return Err(self.err(*line, "pragma not allowed here"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Attach a variable name to an op for diagnostics (kept only if the op
    /// is still anonymous, so reads of other variables keep their names).
    fn name_op(&mut self, id: OpId, name: &str) {
        let op = self.b.function_mut().op_mut(id);
        if op.name.is_empty() {
            op.name = name.to_string();
        }
    }

    /// Emit an op into the current region via the builder's internals.
    fn emit_raw(&mut self, op: Operation) -> OpId {
        // Route through a trivial builder method: constant then overwrite.
        // Cleaner: expose an emit on the builder. We use binary ops normally;
        // phis are the only raw case, so we add them via a dedicated path.
        self.b.emit_op(op)
    }

    /// Reduce a value to a 1-bit predicate (compare with 0 if needed).
    fn pred_of(&mut self, v: OpId) -> OpId {
        let ty = self.b.function_mut().op(v).ty;
        if ty.bits() == 1 {
            return v;
        }
        let zero = self.b.constant(0, ty);
        self.b.icmp(CmpPred::Ne, v, zero)
    }

    fn expr(&mut self, e: &Expr) -> Result<OpId, CompileError> {
        if e.line() != 0 {
            self.b.set_loc(SourceLoc::new(e.line(), 1));
        }
        match e {
            Expr::Int(v) => Ok(self.b.constant(*v, IrType::for_const(*v))),
            Expr::Var(name, line) => self
                .env
                .get(name)
                .map(|b| b.value)
                .ok_or_else(|| self.err(*line, format!("unknown variable `{name}`"))),
            Expr::Index(name, idx, line) => {
                let arr = *self
                    .arrays
                    .get(name)
                    .ok_or_else(|| self.err(*line, format!("unknown array `{name}`")))?;
                let idx = self.expr(idx)?;
                Ok(self.b.load(arr, idx))
            }
            Expr::Unary(op, inner, _) => {
                let v = self.expr(inner)?;
                Ok(match op {
                    UnOp::Neg => {
                        let ty = self.b.function_mut().op(v).ty;
                        let zero = self.b.constant(0, ty);
                        self.b.binary(OpKind::Sub, zero, v)
                    }
                    UnOp::Not => {
                        let ty = self.b.function_mut().op(v).ty;
                        let mut op = Operation::new(OpId(0), OpKind::Not, ty);
                        op.operands.push(Operand::new(v, ty.bits()));
                        self.emit_raw(op)
                    }
                    UnOp::LNot => {
                        let p = self.pred_of(v);
                        let one = self.b.constant(1, IrType::bool());
                        self.b.binary(OpKind::Xor, p, one)
                    }
                })
            }
            Expr::Binary(op, a, b, _) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                let signed = {
                    let f = self.b.function_mut();
                    f.op(va).ty.is_signed() || f.op(vb).ty.is_signed()
                };
                Ok(match op {
                    BinOp::Add => self.b.binary(OpKind::Add, va, vb),
                    BinOp::Sub => self.b.binary(OpKind::Sub, va, vb),
                    BinOp::Mul => self.b.binary(OpKind::Mul, va, vb),
                    BinOp::Div => {
                        self.b
                            .binary(if signed { OpKind::SDiv } else { OpKind::UDiv }, va, vb)
                    }
                    BinOp::Rem => {
                        self.b
                            .binary(if signed { OpKind::SRem } else { OpKind::URem }, va, vb)
                    }
                    BinOp::Shl => self.b.binary(OpKind::Shl, va, vb),
                    BinOp::Shr => {
                        self.b
                            .binary(if signed { OpKind::AShr } else { OpKind::LShr }, va, vb)
                    }
                    BinOp::And => self.b.binary(OpKind::And, va, vb),
                    BinOp::Or => self.b.binary(OpKind::Or, va, vb),
                    BinOp::Xor => self.b.binary(OpKind::Xor, va, vb),
                    BinOp::Lt => self.b.icmp(CmpPred::Lt, va, vb),
                    BinOp::Le => self.b.icmp(CmpPred::Le, va, vb),
                    BinOp::Gt => self.b.icmp(CmpPred::Gt, va, vb),
                    BinOp::Ge => self.b.icmp(CmpPred::Ge, va, vb),
                    BinOp::Eq => self.b.icmp(CmpPred::Eq, va, vb),
                    BinOp::Ne => self.b.icmp(CmpPred::Ne, va, vb),
                    BinOp::LAnd => {
                        let pa = self.pred_of(va);
                        let pb = self.pred_of(vb);
                        self.b.binary(OpKind::And, pa, pb)
                    }
                    BinOp::LOr => {
                        let pa = self.pred_of(va);
                        let pb = self.pred_of(vb);
                        self.b.binary(OpKind::Or, pa, pb)
                    }
                })
            }
            Expr::Ternary(c, a, b, _) => {
                let vc = self.expr(c)?;
                let p = self.pred_of(vc);
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                Ok(self.b.select(p, va, vb))
            }
            Expr::Call(name, args, line) => self.call(name, args, *line),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<OpId, CompileError> {
        // Builtins first.
        match name {
            "min" | "max" => {
                if args.len() != 2 {
                    return Err(self.err(line, format!("{name} takes 2 arguments")));
                }
                let a = self.expr(&args[0])?;
                let b = self.expr(&args[1])?;
                let pred = if name == "min" {
                    CmpPred::Lt
                } else {
                    CmpPred::Gt
                };
                let c = self.b.icmp(pred, a, b);
                return Ok(self.b.select(c, a, b));
            }
            "abs" => {
                if args.len() != 1 {
                    return Err(self.err(line, "abs takes 1 argument"));
                }
                let v = self.expr(&args[0])?;
                let ty = self.b.function_mut().op(v).ty;
                let zero = self.b.constant(0, ty);
                let c = self.b.icmp(CmpPred::Lt, v, zero);
                let n = self.b.binary(OpKind::Sub, zero, v);
                return Ok(self.b.select(c, n, v));
            }
            "sqrt" => {
                if args.len() != 1 {
                    return Err(self.err(line, "sqrt takes 1 argument"));
                }
                let v = self.expr(&args[0])?;
                let ty = self.b.function_mut().op(v).ty;
                let out = IrType::uint(ty.bits().div_ceil(2).max(1));
                let mut op = Operation::new(OpId(0), OpKind::Sqrt, out);
                op.operands.push(Operand::new(v, ty.bits()));
                return Ok(self.emit_raw(op));
            }
            "popcount" => {
                if args.len() != 1 {
                    return Err(self.err(line, "popcount takes 1 argument"));
                }
                let v = self.expr(&args[0])?;
                return Ok(self.popcount(v));
            }
            _ => {}
        }

        let (callee, ret, params) = self
            .sigs
            .get(name)
            .ok_or_else(|| self.err(line, format!("unknown function `{name}`")))?
            .clone();
        if args.len() != params.len() {
            return Err(self.err(
                line,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    params.len(),
                    args.len()
                ),
            ));
        }
        let mut scalar_args = Vec::new();
        let mut array_args = Vec::new();
        for (arg, param) in args.iter().zip(&params) {
            match param.array_len {
                Some(_) => {
                    let Expr::Var(aname, aline) = arg else {
                        return Err(self.err(
                            line,
                            format!(
                                "argument for array parameter `{}` must be an array name",
                                param.name
                            ),
                        ));
                    };
                    let arr = *self
                        .arrays
                        .get(aname)
                        .ok_or_else(|| self.err(*aline, format!("unknown array `{aname}`")))?;
                    array_args.push(arr);
                }
                None => {
                    let v = self.expr(arg)?;
                    let v = self.b.cast(v, to_ir_type(param.ty));
                    scalar_args.push(v);
                }
            }
        }
        let ret_ty = ret.unwrap_or(IrType::bool());
        let id = self.b.call(callee, &scalar_args, ret_ty);
        self.b.function_mut().op_mut(id).array_args = array_args;
        Ok(id)
    }

    /// SWAR population count: a logarithmic shift/mask/add tree, which is a
    /// realistic hardware structure (and a congestion generator in BNNs).
    fn popcount(&mut self, v: OpId) -> OpId {
        let bits = self.b.function_mut().op(v).ty.bits();
        let w = bits.next_power_of_two().max(2);
        let ty = IrType::uint(w);
        let mut x = self.b.cast(v, ty);
        let mut shift = 1u16;
        while shift < w {
            let mask_val = swar_mask(w, shift);
            let mask = self.b.constant(mask_val, ty);
            let lo = self.b.binary(OpKind::And, x, mask);
            let sc = self.b.constant(shift as i64, IrType::uint(7));
            let hi_shift = self.b.binary(OpKind::LShr, x, sc);
            let hi = self.b.binary(OpKind::And, hi_shift, mask);
            let sum = self.b.binary(OpKind::Add, lo, hi);
            x = self.b.cast(sum, ty);
            shift *= 2;
        }
        let out = IrType::uint((bits.ilog2() as u16 + 1).max(1));
        self.b.cast(x, out)
    }
}

/// The SWAR mask for a given field width at `shift` granularity, truncated
/// to `w` bits.
fn swar_mask(w: u16, shift: u16) -> i64 {
    let mut mask: u128 = 0;
    let field = shift as u32 * 2;
    let mut pos = 0u32;
    while pos < w as u32 {
        mask |= ((1u128 << shift) - 1) << pos;
        pos += field;
    }
    let trunc = if w >= 64 {
        u64::MAX as u128
    } else {
        (1u128 << w) - 1
    };
    ((mask & trunc) & (i64::MAX as u128)) as i64
}

fn collect_assigned(body: &[Stmt], out: &mut BTreeSet<String>) {
    for s in body {
        match s {
            Stmt::Assign {
                target: LValue::Var(name),
                ..
            } => {
                out.insert(name.clone());
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_assigned(then_body, out);
                collect_assigned(else_body, out);
            }
            Stmt::For { body, var, .. } => {
                let mut inner = BTreeSet::new();
                collect_assigned(body, &mut inner);
                inner.remove(var);
                out.extend(inner);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{lexer::lex, parser::parse};
    use crate::Region;

    fn lower_src(src: &str) -> (Module, Directives) {
        let toks = lex(src).unwrap();
        let prog = parse(&toks).unwrap();
        lower(&prog, "t").unwrap()
    }

    #[test]
    fn simple_function_lowers() {
        let (m, _) = lower_src("int32 f(int32 x) { return x + 1; }");
        let f = m.top_function();
        assert_eq!(f.name, "f");
        let h = f.kind_histogram();
        assert_eq!(h[OpKind::Add.index()], 1);
        assert_eq!(h[OpKind::Return.index()], 1);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn if_lowered_to_select() {
        let (m, _) = lower_src(
            "int32 f(int32 x) { int32 y = 0; if (x > 0) { y = x; } else { y = 0 - x; } return y; }",
        );
        let f = m.top_function();
        let h = f.kind_histogram();
        assert!(h[OpKind::Select.index()] >= 2);
        assert_eq!(f.body.loop_count(), 0);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn loop_carried_accumulator_gets_phi() {
        let (m, _) = lower_src(
            "int32 f(int32 a[8]) { int32 acc = 0; for (i = 0; i < 8; i++) { acc = acc + a[i]; } return acc; }",
        );
        let f = m.top_function();
        let h = f.kind_histogram();
        // one phi for the induction variable + one for acc
        assert_eq!(h[OpKind::Phi.index()], 2);
        assert_eq!(f.body.loop_count(), 1);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn predicated_store_read_modify_writes() {
        let (m, _) = lower_src("void f(int8 a[4], int8 v) { if (v > 0) { a[0] = v; } }");
        let f = m.top_function();
        let h = f.kind_histogram();
        assert_eq!(h[OpKind::Load.index()], 1);
        assert_eq!(h[OpKind::Store.index()], 1);
        assert_eq!(h[OpKind::Select.index()], 1);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn call_with_array_args() {
        let (m, _) = lower_src(
            "int32 g(int32 a[4], int32 k) { return a[0] + k; }\nint32 f(int32 a[4]) { return g(a, 2); }",
        );
        let f = m.function_by_name("f").unwrap();
        let call = &f.ops[f.call_sites()[0].index()];
        assert_eq!(call.array_args.len(), 1);
        assert_eq!(call.operands.len(), 1);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn pragmas_become_directives() {
        let src = r#"
#pragma HLS inline
int32 g(int32 x) { return x * 3; }
int32 f(int32 x) {
    int32 buf[16];
    #pragma HLS array_partition variable=buf cyclic factor=4
    int32 s = 0;
    #pragma HLS unroll factor=4
    for (i = 0; i < 16; i++) { buf[i] = x; }
    #pragma HLS pipeline II=2
    for (i = 0; i < 16; i++) { s = s + buf[i]; }
    return s + g(x);
}
"#;
        let (m, d) = lower_src(src);
        assert!(d.inline("g"));
        assert_eq!(d.loop_directives("f/loop0").unroll, 4);
        assert_eq!(
            d.partition("f/buf"),
            crate::directives::Partition::Cyclic(4)
        );
        let f = m.function_by_name("f").unwrap();
        assert_eq!(
            f.array_by_name("buf").unwrap().partition,
            crate::directives::Partition::Cyclic(4)
        );
        // pipeline recorded on the second loop region
        let mut pipelined = 0;
        fn walk(r: &Region, n: &mut u32) {
            match r {
                Region::Loop {
                    pipeline_ii: Some(_),
                    body,
                    ..
                } => {
                    *n += 1;
                    walk(body, n);
                }
                Region::Loop { body, .. } => walk(body, n),
                Region::Seq(rs) => rs.iter().for_each(|r| walk(r, n)),
                Region::Block(_) => {}
            }
        }
        walk(&f.body, &mut pipelined);
        assert_eq!(pipelined, 1);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn builtins_lower() {
        let (m, _) = lower_src(
            "int32 f(int32 x, int32 y) { return min(x, y) + max(x, y) + abs(x) + sqrt(x) + popcount(x); }",
        );
        let f = m.top_function();
        let h = f.kind_histogram();
        assert_eq!(h[OpKind::Sqrt.index()], 1);
        assert!(h[OpKind::Select.index()] >= 3);
        assert!(h[OpKind::LShr.index()] >= 4, "popcount SWAR tree present");
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn errors_reported() {
        let bad = [
            "int32 f() { return y; }",                             // unknown var
            "int32 f() { y = 1; return 0; }",                      // assign unknown
            "int32 f(int32 x) { if (x) { return 1; } return 0; }", // return in if
            "int32 f() { }",                                       // missing return
            "void f() { g(1); }",                                  // unknown function
        ];
        for src in bad {
            let toks = lex(src).unwrap();
            let prog = parse(&toks).unwrap();
            assert!(lower(&prog, "t").is_err(), "should fail: {src}");
        }
    }

    #[test]
    fn swar_masks() {
        assert_eq!(swar_mask(8, 1), 0x55);
        assert_eq!(swar_mask(8, 2), 0x33);
        assert_eq!(swar_mask(8, 4), 0x0F);
        assert_eq!(swar_mask(16, 4), 0x0F0F);
    }

    #[test]
    fn last_function_is_top() {
        let (m, _) = lower_src("int32 a(int32 x) { return x; } int32 b(int32 x) { return a(x); }");
        assert_eq!(m.top_function().name, "b");
    }
}
