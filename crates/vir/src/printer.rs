//! Textual printing of VIR modules in an LLVM-flavored syntax.
//!
//! The printed form round-trips through [`crate::parser`], which the test
//! suite checks property-style. Float constants print in Rust's shortest
//! round-trip decimal form when finite and as raw `0x` bit patterns
//! otherwise, so printing never loses bits.

use std::fmt::Write;

use crate::constant::{sext, ConstData, Constant};
use crate::function::{FuncDecl, Function, Module};
use crate::inst::{BlockId, InstKind, Operand, Terminator};
use crate::types::{ScalarTy, Type};

/// Print a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    if !m.name.is_empty() {
        let _ = writeln!(out, "; ModuleID = '{}'", m.name);
    }
    for d in &m.decls {
        let _ = writeln!(out, "{}", print_decl(d));
    }
    if !m.decls.is_empty() {
        out.push('\n');
    }
    for (i, f) in m.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&print_function(f));
    }
    out
}

fn print_decl(d: &FuncDecl) -> String {
    let mut params: Vec<String> = d.params.iter().map(|t| t.to_string()).collect();
    if d.vararg {
        params.push("...".to_string());
    }
    format!("declare {} @{}({})", d.ret, d.name, params.join(", "))
}

/// Compute collision-free display names for every SSA value of `f`.
/// Duplicate source names get LLVM-style numeric suffixes, and anonymous
/// values print as `%vN`.
pub fn value_names(f: &Function) -> Vec<String> {
    let mut taken = std::collections::HashSet::new();
    let mut names = Vec::with_capacity(f.values.len());
    for (i, info) in f.values.iter().enumerate() {
        let base = match &info.name {
            Some(n) => n.clone(),
            None => format!("v{i}"),
        };
        let mut name = base.clone();
        let mut k = 0;
        while !taken.insert(name.clone()) {
            k += 1;
            name = format!("{base}.{k}");
        }
        names.push(name);
    }
    names
}

/// Print one function definition.
pub fn print_function(f: &Function) -> String {
    let names = value_names(f);
    let mut out = String::new();
    let params = f
        .params
        .iter()
        .enumerate()
        .map(|(i, (_, t))| format!("{t} %{}", names[i]))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "define {} @{}({}) {{", f.ret, f.name, params);
    for b in &f.blocks {
        let _ = writeln!(out, "{}:", b.name);
        for &iid in &b.insts {
            let _ = writeln!(out, "  {}", print_inst_named(f, iid, &names));
        }
        let _ = writeln!(out, "  {}", print_term(f, &b.term, &names));
    }
    out.push_str("}\n");
    out
}

/// Print one scalar constant payload of the given element type.
fn print_scalar_bits(bits: u64, ty: ScalarTy) -> String {
    match ty {
        ScalarTy::I1 => {
            if bits & 1 == 1 {
                "true".to_string()
            } else {
                "false".to_string()
            }
        }
        ScalarTy::I8 | ScalarTy::I16 | ScalarTy::I32 | ScalarTy::I64 => {
            format!("{}", sext(bits, ty.bits()))
        }
        ScalarTy::F32 => {
            let v = f32::from_bits(bits as u32);
            if v.is_finite() {
                let s = format!("{v:?}");
                // `{:?}` of f32 round-trips through f32 parsing.
                s
            } else {
                format!("0x{:08X}", bits as u32)
            }
        }
        ScalarTy::F64 => {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                format!("{v:?}")
            } else {
                format!("0x{bits:016X}")
            }
        }
        ScalarTy::Ptr => {
            if bits == 0 {
                "null".to_string()
            } else {
                format!("0x{bits:X}")
            }
        }
    }
}

/// Print a constant (without its leading type).
pub fn print_constant(c: &Constant) -> String {
    match (&c.data, c.ty) {
        (ConstData::Undef, _) => "undef".to_string(),
        (ConstData::Zero, Type::Scalar(ScalarTy::Ptr)) => "null".to_string(),
        (ConstData::Zero, Type::Vector(..)) => "zeroinitializer".to_string(),
        (ConstData::Zero, Type::Scalar(s)) => print_scalar_bits(0, s),
        (ConstData::Zero, Type::Void) => "void".to_string(),
        (ConstData::Scalar(b), Type::Scalar(s)) => print_scalar_bits(*b, s),
        (ConstData::Scalar(b), _) => format!("0x{b:X}"),
        (ConstData::Vector(v), Type::Vector(s, _)) => {
            let elems = v
                .iter()
                .map(|&b| format!("{} {}", s.name(), print_scalar_bits(b, s)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("<{elems}>")
        }
        (ConstData::Vector(_), _) => "<malformed>".to_string(),
    }
}

/// Print an operand without a type prefix.
fn op_str(_f: &Function, op: &Operand, names: &[String]) -> String {
    match op {
        Operand::Value(v) => format!("%{}", names[v.index()]),
        Operand::Const(c) => print_constant(c),
    }
}

/// Print an operand with its type prefix (`i32 %x`).
fn typed_op(f: &Function, op: &Operand, names: &[String]) -> String {
    format!("{} {}", f.operand_type(op), op_str(f, op, names))
}

fn bb(f: &Function, b: BlockId) -> String {
    format!("%{}", f.block(b).name)
}

fn print_inst_named(f: &Function, iid: crate::inst::InstId, names: &[String]) -> String {
    let inst = f.inst(iid);
    let lhs_prefix = match inst.result {
        Some(v) => format!("%{} = ", names[v.index()]),
        None => String::new(),
    };
    let body = match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => format!(
            "{} {} {}, {}",
            op.mnemonic(),
            f.operand_type(lhs),
            op_str(f, lhs, names),
            op_str(f, rhs, names)
        ),
        InstKind::ICmp { pred, lhs, rhs } => format!(
            "icmp {} {} {}, {}",
            pred.mnemonic(),
            f.operand_type(lhs),
            op_str(f, lhs, names),
            op_str(f, rhs, names)
        ),
        InstKind::FCmp { pred, lhs, rhs } => format!(
            "fcmp {} {} {}, {}",
            pred.mnemonic(),
            f.operand_type(lhs),
            op_str(f, lhs, names),
            op_str(f, rhs, names)
        ),
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => format!(
            "select {}, {}, {}",
            typed_op(f, cond, names),
            typed_op(f, on_true, names),
            typed_op(f, on_false, names)
        ),
        InstKind::Cast { op, val } => format!(
            "{} {} to {}",
            op.mnemonic(),
            typed_op(f, val, names),
            inst.ty
        ),
        InstKind::Alloca { elem, count } => {
            format!("alloca {}, {}", elem, typed_op(f, count, names))
        }
        InstKind::Load { ptr } => format!("load {}, {}", inst.ty, typed_op(f, ptr, names)),
        InstKind::Store { val, ptr } => {
            format!(
                "store {}, {}",
                typed_op(f, val, names),
                typed_op(f, ptr, names)
            )
        }
        InstKind::Gep { elem, base, index } => format!(
            "getelementptr {}, {}, {}",
            elem,
            typed_op(f, base, names),
            typed_op(f, index, names)
        ),
        InstKind::ExtractElement { vec, idx } => format!(
            "extractelement {}, {}",
            typed_op(f, vec, names),
            typed_op(f, idx, names)
        ),
        InstKind::InsertElement { vec, elt, idx } => format!(
            "insertelement {}, {}, {}",
            typed_op(f, vec, names),
            typed_op(f, elt, names),
            typed_op(f, idx, names)
        ),
        InstKind::ShuffleVector { a, b, mask } => {
            let mask_elems = mask
                .iter()
                .map(|&m| {
                    if m < 0 {
                        "i32 undef".to_string()
                    } else {
                        format!("i32 {m}")
                    }
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "shufflevector {}, {}, <{} x i32> <{}>",
                typed_op(f, a, names),
                typed_op(f, b, names),
                mask.len(),
                mask_elems
            )
        }
        InstKind::Phi { incomings } => {
            let inc = incomings
                .iter()
                .map(|(blk, op)| format!("[ {}, {} ]", op_str(f, op, names), bb(f, *blk)))
                .collect::<Vec<_>>()
                .join(", ");
            format!("phi {} {}", inst.ty, inc)
        }
        InstKind::Call { callee, args } => {
            let a = args
                .iter()
                .map(|op| typed_op(f, op, names))
                .collect::<Vec<_>>()
                .join(", ");
            format!("call {} @{}({})", inst.ty, callee, a)
        }
    };
    format!("{lhs_prefix}{body}")
}

fn print_term(f: &Function, t: &Terminator, names: &[String]) -> String {
    match t {
        Terminator::Br(b) => format!("br label {}", bb(f, *b)),
        Terminator::CondBr {
            cond,
            on_true,
            on_false,
        } => format!(
            "br {}, label {}, label {}",
            typed_op(f, cond, names),
            bb(f, *on_true),
            bb(f, *on_false)
        ),
        Terminator::Ret(Some(op)) => format!("ret {}", typed_op(f, op, names)),
        Terminator::Ret(None) => "ret void".to_string(),
        Terminator::Unreachable => "unreachable".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::{BinOp, ICmpPred};

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
