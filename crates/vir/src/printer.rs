//! Textual printing of VIR modules in an LLVM-flavored syntax.
//!
//! The printed form round-trips through [`crate::parser`], which the test
//! suite checks property-style. Float constants print in Rust's shortest
//! round-trip decimal form when finite and as raw `0x` bit patterns
//! otherwise, so printing never loses bits.
//!
//! The writers stream tokens into any [`fmt::Write`] sink, so a consumer
//! that only hashes the text (the study key) never builds it.

use std::{borrow::Cow, collections::HashSet, fmt, fmt::Write};

use crate::constant::{sext, ConstData, Constant};
use crate::function::{Function, Module};
use crate::inst::{InstId, InstKind, Operand, Terminator};
use crate::types::{ScalarTy, Type};

/// Print a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    write_module(&mut out, m).expect("writing to a String cannot fail");
    out
}

/// Write a whole module, exactly as [`print_module`] prints it.
pub fn write_module<W: Write>(out: &mut W, m: &Module) -> fmt::Result {
    if !m.name.is_empty() {
        writeln!(out, "; ModuleID = '{}'", m.name)?;
    }
    for d in &m.decls {
        write!(out, "declare {} @{}(", d.ret, d.name)?;
        write_list(out, &d.params, |out, t| write!(out, "{t}"))?;
        if d.vararg {
            out.write_str(if d.params.is_empty() { "..." } else { ", ..." })?;
        }
        out.write_str(")\n")?;
    }
    if !m.decls.is_empty() {
        out.write_char('\n')?;
    }
    for (i, f) in m.functions.iter().enumerate() {
        if i > 0 {
            out.write_char('\n')?;
        }
        write_function(out, f)?;
    }
    Ok(())
}

/// Write `items` separated by `, `.
fn write_list<W: Write, T>(
    out: &mut W,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        each(out, item)?;
    }
    Ok(())
}

/// Compute collision-free display names for every SSA value of `f`.
/// Duplicate source names get LLVM-style numeric suffixes, and anonymous
/// values print as `%vN`. A source name that is free is borrowed; only
/// generated names are owned, and each is cloned once into `taken`.
fn value_names(f: &Function) -> Vec<Cow<'_, str>> {
    let mut taken: HashSet<Cow<str>> = HashSet::with_capacity(f.values.len());
    let mut names = Vec::with_capacity(f.values.len());
    for (i, info) in f.values.iter().enumerate() {
        let base = match &info.name {
            Some(n) => Cow::Borrowed(n.as_str()),
            None => Cow::Owned(format!("v{i}")),
        };
        let name = if taken.contains(&base) {
            let free = (1..)
                .map(|k| format!("{base}.{k}"))
                .find(|n| !taken.contains(n.as_str()));
            Cow::Owned(free.expect("some suffix is free"))
        } else {
            base
        };
        taken.insert(name.clone());
        names.push(name);
    }
    names
}

/// Write one function definition.
fn write_function<W: Write>(out: &mut W, f: &Function) -> fmt::Result {
    let names = value_names(f);
    write!(out, "define {} @{}(", f.ret, f.name)?;
    write_list(out, f.params.iter().zip(&names), |out, ((_, t), n)| {
        write!(out, "{t} %{n}")
    })?;
    out.write_str(") {\n")?;
    for b in &f.blocks {
        writeln!(out, "{}:", b.name)?;
        for &iid in &b.insts {
            out.write_str("  ")?;
            write_inst(out, f, iid, &names)?;
            out.write_char('\n')?;
        }
        out.write_str("  ")?;
        write_term(out, f, &b.term, &names)?;
        out.write_char('\n')?;
    }
    out.write_str("}\n")
}

/// Write one scalar constant payload of the given element type.
fn write_scalar_bits<W: Write>(out: &mut W, bits: u64, ty: ScalarTy) -> fmt::Result {
    match ty {
        ScalarTy::I1 => out.write_str(if bits & 1 == 1 { "true" } else { "false" }),
        ScalarTy::I8 | ScalarTy::I16 | ScalarTy::I32 | ScalarTy::I64 => {
            write!(out, "{}", sext(bits, ty.bits()))
        }
        ScalarTy::F32 => {
            let v = f32::from_bits(bits as u32);
            // `{:?}` of f32 round-trips through f32 parsing.
            if v.is_finite() {
                write!(out, "{v:?}")
            } else {
                write!(out, "0x{:08X}", bits as u32)
            }
        }
        ScalarTy::F64 => {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                write!(out, "{v:?}")
            } else {
                write!(out, "0x{bits:016X}")
            }
        }
        ScalarTy::Ptr if bits == 0 => out.write_str("null"),
        ScalarTy::Ptr => write!(out, "0x{bits:X}"),
    }
}

/// Write a constant (without its leading type).
fn write_constant<W: Write>(out: &mut W, c: &Constant) -> fmt::Result {
    match (&c.data, c.ty) {
        (ConstData::Undef, _) => out.write_str("undef"),
        (ConstData::Zero, Type::Vector(..)) => out.write_str("zeroinitializer"),
        (ConstData::Zero, Type::Scalar(s)) => write_scalar_bits(out, 0, s),
        (ConstData::Zero, Type::Void) => out.write_str("void"),
        (ConstData::Scalar(b), Type::Scalar(s)) => write_scalar_bits(out, *b, s),
        (ConstData::Scalar(b), _) => write!(out, "0x{b:X}"),
        (ConstData::Vector(v), Type::Vector(s, _)) => {
            out.write_char('<')?;
            write_list(out, v, |out, &b| {
                write!(out, "{s} ")?;
                write_scalar_bits(out, b, s)
            })?;
            out.write_char('>')
        }
        (ConstData::Vector(_), _) => out.write_str("<malformed>"),
    }
}

/// Write an operand without a type prefix.
fn write_operand<W: Write>(out: &mut W, op: &Operand, names: &[Cow<str>]) -> fmt::Result {
    match op {
        Operand::Value(v) => write!(out, "%{}", names[v.index()]),
        Operand::Const(c) => write_constant(out, c),
    }
}

/// Write operands with their type prefixes (`i32 %x, float 1.0`).
fn write_typed<'o, W: Write>(
    out: &mut W,
    f: &Function,
    ops: impl IntoIterator<Item = &'o Operand>,
    names: &[Cow<str>],
) -> fmt::Result {
    write_list(out, ops, |out, op| {
        write!(out, "{} ", f.operand_type(op))?;
        write_operand(out, op, names)
    })
}

fn write_inst<W: Write>(out: &mut W, f: &Function, iid: InstId, names: &[Cow<str>]) -> fmt::Result {
    let inst = f.inst(iid);
    if let Some(v) = inst.result {
        write!(out, "%{} = ", names[v.index()])?;
    }
    // `<op> <type> <lhs>, <rhs>`: binary ops and compares.
    let pair = |out: &mut W, head: &str, op: &str, lhs: &Operand, rhs: &Operand| -> fmt::Result {
        write!(out, "{head}{op} {} ", f.operand_type(lhs))?;
        write_operand(out, lhs, names)?;
        out.write_str(", ")?;
        write_operand(out, rhs, names)
    };
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => pair(out, "", op.mnemonic(), lhs, rhs),
        InstKind::ICmp { pred, lhs, rhs } => pair(out, "icmp ", pred.mnemonic(), lhs, rhs),
        InstKind::FCmp { pred, lhs, rhs } => pair(out, "fcmp ", pred.mnemonic(), lhs, rhs),
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => {
            out.write_str("select ")?;
            write_typed(out, f, [cond, on_true, on_false], names)
        }
        InstKind::Cast { op, val } => {
            write!(out, "{} ", op.mnemonic())?;
            write_typed(out, f, [val], names)?;
            write!(out, " to {}", inst.ty)
        }
        InstKind::Alloca { elem, count } => {
            write!(out, "alloca {elem}, ")?;
            write_typed(out, f, [count], names)
        }
        InstKind::Load { ptr } => {
            write!(out, "load {}, ", inst.ty)?;
            write_typed(out, f, [ptr], names)
        }
        InstKind::Store { val, ptr } => {
            out.write_str("store ")?;
            write_typed(out, f, [val, ptr], names)
        }
        InstKind::Gep { elem, base, index } => {
            write!(out, "getelementptr {elem}, ")?;
            write_typed(out, f, [base, index], names)
        }
        InstKind::ExtractElement { vec, idx } => {
            out.write_str("extractelement ")?;
            write_typed(out, f, [vec, idx], names)
        }
        InstKind::InsertElement { vec, elt, idx } => {
            out.write_str("insertelement ")?;
            write_typed(out, f, [vec, elt, idx], names)
        }
        InstKind::ShuffleVector { a, b, mask } => {
            out.write_str("shufflevector ")?;
            write_typed(out, f, [a, b], names)?;
            write!(out, ", <{} x i32> <", mask.len())?;
            write_list(out, mask, |out, &m| {
                if m < 0 {
                    out.write_str("i32 undef")
                } else {
                    write!(out, "i32 {m}")
                }
            })?;
            out.write_char('>')
        }
        InstKind::Phi { incomings } => {
            write!(out, "phi {} ", inst.ty)?;
            write_list(out, incomings, |out, (blk, op)| {
                out.write_str("[ ")?;
                write_operand(out, op, names)?;
                write!(out, ", %{} ]", f.block(*blk).name)
            })
        }
        InstKind::Call { callee, args } => {
            write!(out, "call {} @{}(", inst.ty, callee)?;
            write_typed(out, f, args, names)?;
            out.write_char(')')
        }
    }
}

fn write_term<W: Write>(
    out: &mut W,
    f: &Function,
    t: &Terminator,
    names: &[Cow<str>],
) -> fmt::Result {
    match t {
        Terminator::Br(b) => write!(out, "br label %{}", f.block(*b).name),
        Terminator::CondBr {
            cond,
            on_true,
            on_false,
        } => {
            out.write_str("br ")?;
            write_typed(out, f, [cond], names)?;
            let (t, e) = (&f.block(*on_true).name, &f.block(*on_false).name);
            write!(out, ", label %{t}, label %{e}")
        }
        Terminator::Ret(Some(op)) => {
            out.write_str("ret ")?;
            write_typed(out, f, [op], names)
        }
        Terminator::Ret(None) => out.write_str("ret void"),
        Terminator::Unreachable => out.write_str("unreachable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{BinOp, ICmpPred};

    fn print_constant(c: &Constant) -> String {
        let mut s = String::new();
        write_constant(&mut s, c).unwrap();
        s
    }

    fn print_function(f: &Function) -> String {
        let mut s = String::new();
        write_function(&mut s, f).unwrap();
        s
    }

    #[test]
    fn prints_constants() {
        assert_eq!(print_constant(&Constant::i32(-5)), "-5");
        assert_eq!(print_constant(&Constant::bool(true)), "true");
        assert_eq!(print_constant(&Constant::f32(1.5)), "1.5");
        assert_eq!(print_constant(&Constant::f64(0.1)), "0.1");
        assert_eq!(print_constant(&Constant::f32(f32::INFINITY)), "0x7F800000");
        assert_eq!(
            print_constant(&Constant::zero(Type::vec(ScalarTy::I32, 4))),
            "zeroinitializer"
        );
        assert_eq!(print_constant(&Constant::undef(Type::F32)), "undef");
        assert_eq!(
            print_constant(&Constant::vec_i32(&[0, 1])),
            "<i32 0, i32 1>"
        );
        assert_eq!(print_constant(&Constant::ptr(0)), "null");
    }

    #[test]
    fn prints_simple_function() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::I32);
        let entry = b.add_block("entry");
        b.position_at(entry);
        let x = b.param(0);
        let y = b.bin(BinOp::Add, x, Constant::i32(1).into(), "y");
        b.ret(Some(y));
        let s = print_function(&b.finish());
        assert!(s.contains("define i32 @f(i32 %x) {"), "{s}");
        assert!(s.contains("%y = add i32 %x, 1"), "{s}");
        assert!(s.contains("ret i32 %y"), "{s}");
    }

    #[test]
    fn prints_condbr_and_phi() {
        let mut b = FuncBuilder::new("g", vec![("n".into(), Type::I32)], Type::I32);
        let entry = b.add_block("entry");
        let loop_bb = b.add_block("loop");
        let exit = b.add_block("exit");
        b.position_at(entry);
        b.br(loop_bb);
        b.position_at(loop_bb);
        let i = b.phi(Type::I32, "i");
        let i2 = b.bin(BinOp::Add, i.clone(), Constant::i32(1).into(), "i2");
        let c = b.icmp(ICmpPred::Slt, i2.clone(), b.param(0), "c");
        b.cond_br(c, loop_bb, exit);
        b.add_incoming(&i, entry, Constant::i32(0).into());
        b.add_incoming(&i, loop_bb, i2);
        b.position_at(exit);
        b.ret(Some(i));
        let s = print_function(&b.finish());
        assert!(
            s.contains("%i = phi i32 [ 0, %entry ], [ %i2, %loop ]"),
            "{s}"
        );
        assert!(s.contains("br i1 %c, label %loop, label %exit"), "{s}");
    }

    #[test]
    fn prints_vector_ops_like_fig5() {
        use crate::intrinsics::maskload_name;
        let vty = Type::vec(ScalarTy::F32, 8);
        let mut b = FuncBuilder::new(
            "v",
            vec![("p".into(), Type::PTR), ("m".into(), vty)],
            Type::Void,
        );
        let entry = b.add_block("entry");
        b.position_at(entry);
        let p = b.param(0);
        let m = b.param(1);
        let ld = b.call(
            maskload_name(8, ScalarTy::F32),
            vec![p, m.clone()],
            vty,
            "0",
        );
        let e = b.extract(ld.clone(), Constant::i32(0).into(), "ext0");
        b.insert(ld, e, Constant::i32(0).into(), "ins0");
        b.ret(None);
        let s = print_function(&b.finish());
        assert!(
            s.contains("call <8 x float> @llvm.x86.avx.maskload.ps.256(ptr %p, <8 x float> %m)"),
            "{s}"
        );
        assert!(s.contains("extractelement <8 x float> %0, i32 0"), "{s}");
        assert!(
            s.contains("insertelement <8 x float> %0, float %ext0, i32 0"),
            "{s}"
        );
    }
}

#[cfg(test)]
mod decl_tests {
    use super::*;
    use crate::function::FuncDecl;

    #[test]
    fn prints_declarations_with_and_without_varargs() {
        let mut m = Module::new("d");
        for (name, params, vararg) in [
            ("f", vec![Type::I32, Type::PTR], false),
            ("g", vec![Type::I32], true),
            ("h", vec![], true),
            ("k", vec![], false),
        ] {
            m.declare(FuncDecl {
                name: name.to_string(),
                ret: Type::Void,
                params,
                vararg,
            });
        }
        assert_eq!(
            print_module(&m),
            "; ModuleID = 'd'\n\
             declare void @f(i32, ptr)\n\
             declare void @g(i32, ...)\n\
             declare void @h(...)\n\
             declare void @k()\n\n"
        );
    }
}

#[cfg(test)]
mod name_tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::BinOp;

    #[test]
    fn duplicate_names_get_suffixes_and_roundtrip() {
        // The SPMD-C compiler can emit the same source-level name twice
        // (full body + partial body); printing must uniquify.
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::I32);
        let e = b.add_block("entry");
        b.position_at(e);
        let a = b.bin(BinOp::Add, b.param(0), Constant::i32(1).into(), "t");
        let c = b.bin(BinOp::Add, a, Constant::i32(2).into(), "t");
        b.ret(Some(c));
        let mut m = crate::function::Module::new("dup");
        m.add_function(b.finish());
        let text = print_module(&m);
        assert!(text.contains("%t = "), "{text}");
        assert!(text.contains("%t.1 = "), "{text}");
        let m2 = crate::parser::parse_module(&text).unwrap();
        crate::verify::verify_module(&m2).unwrap();
        assert_eq!(print_module(&m2), text);
    }

    #[test]
    fn anonymous_values_never_collide_with_named_ones() {
        let mut b = FuncBuilder::new("g", vec![("v1".into(), Type::I32)], Type::I32);
        let e = b.add_block("entry");
        b.position_at(e);
        // Anonymous result would default to "v1" (value index 1) — must be
        // disambiguated against the parameter named v1.
        let a = b.bin(BinOp::Add, b.param(0), Constant::i32(1).into(), "");
        b.ret(Some(a));
        let mut m = crate::function::Module::new("anon");
        m.add_function(b.finish());
        let text = print_module(&m);
        let m2 = crate::parser::parse_module(&text).unwrap();
        assert_eq!(print_module(&m2), text, "{text}");
    }
}
