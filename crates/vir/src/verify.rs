//! Module verifier: structural and type rules plus SSA dominance.

use std::collections::HashSet;

use crate::analysis::{Cfg, DomTree};
use crate::function::{Function, Module, ValueDef};
use crate::inst::{BlockId, CastOp, InstId, InstKind, Operand, Terminator, ValueId};
use crate::intrinsics;
use crate::types::Type;

/// A verification failure, with enough context to locate the offender.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub function: String,
    pub block: Option<String>,
    pub msg: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.block {
            Some(b) => write!(f, "in @{}, block %{}: {}", self.function, b, self.msg),
            None => write!(f, "in @{}: {}", self.function, self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module; returns the first error found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut seen = HashSet::new();
    for f in &m.functions {
        if !seen.insert(f.name.as_str()) {
            return Err(VerifyError {
                function: f.name.clone(),
                block: None,
                msg: "duplicate function definition".into(),
            });
        }
        verify_function(m, f)?;
    }
    Ok(())
}

/// Verify a single function within its module context.
pub fn verify_function(m: &Module, f: &Function) -> Result<(), VerifyError> {
    let fail = |block: Option<BlockId>, msg: String| -> VerifyError {
        VerifyError {
            function: f.name.clone(),
            block: block.map(|b| f.block(b).name.clone()),
            msg,
        }
    };

    if f.blocks.is_empty() {
        return Err(fail(None, "function has no blocks".into()));
    }

    // Every instruction placed exactly once; result defs consistent.
    let mut placed: Vec<Option<BlockId>> = vec![None; f.insts.len()];
    for (b, iid) in f.placed_insts() {
        if iid.index() >= f.insts.len() {
            return Err(fail(Some(b), format!("dangling instruction id {iid:?}")));
        }
        if let Some(prev) = placed[iid.index()] {
            return Err(fail(
                Some(b),
                format!(
                    "instruction placed twice (blocks %{} and %{})",
                    f.block(prev).name,
                    f.block(b).name
                ),
            ));
        }
        placed[iid.index()] = Some(b);
    }

    // Values are defined by what they claim.
    for (vi, info) in f.values.iter().enumerate() {
        match info.def {
            ValueDef::Param(p) => {
                if p as usize >= f.params.len() {
                    return Err(fail(None, format!("value v{vi} claims bad param {p}")));
                }
            }
            ValueDef::Inst(iid) => {
                if iid.index() >= f.insts.len() {
                    return Err(fail(None, format!("value v{vi} claims bad inst")));
                }
                if f.inst(iid).result != Some(ValueId(vi as u32)) {
                    return Err(fail(
                        None,
                        format!("value v{vi} not the result of its defining inst"),
                    ));
                }
            }
        }
    }

    let cfg = Cfg::build(f);
    let dom = DomTree::build(&cfg, f.entry());

    // Per-block checks.
    for (bi, block) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        for s in block.term.successors() {
            if s.index() >= f.blocks.len() {
                return Err(fail(Some(bid), "branch to nonexistent block".into()));
            }
        }
        match &block.term {
            Terminator::CondBr { cond, .. } => {
                let t = f.operand_type(cond);
                if t != Type::I1 {
                    return Err(fail(Some(bid), format!("condbr condition has type {t}")));
                }
            }
            Terminator::Ret(Some(op)) => {
                let t = f.operand_type(op);
                if t != f.ret {
                    return Err(fail(
                        Some(bid),
                        format!("ret type {t} does not match function type {}", f.ret),
                    ));
                }
            }
            Terminator::Ret(None) if !f.ret.is_void() => {
                return Err(fail(Some(bid), "ret void in non-void function".into()));
            }
            _ => {}
        }

        // Phis must be a prefix of the block and match predecessors.
        let mut past_phis = false;
        for &iid in &block.insts {
            let inst = f.inst(iid);
            if inst.is_phi() {
                if past_phis {
                    return Err(fail(Some(bid), "phi after non-phi instruction".into()));
                }
                if bid == f.entry() {
                    return Err(fail(Some(bid), "phi in entry block".into()));
                }
                if let InstKind::Phi { incomings } = &inst.kind {
                    if dom.is_reachable(bid) {
                        let preds: HashSet<_> = cfg.preds(bid).iter().copied().collect();
                        let inc: HashSet<_> = incomings.iter().map(|(b, _)| *b).collect();
                        if preds != inc {
                            return Err(fail(
                                Some(bid),
                                format!(
                                    "phi incoming blocks {:?} do not match predecessors {:?}",
                                    inc.iter().map(|b| &f.block(*b).name).collect::<Vec<_>>(),
                                    preds.iter().map(|b| &f.block(*b).name).collect::<Vec<_>>()
                                ),
                            ));
                        }
                    }
                    for (_, op) in incomings {
                        let t = f.operand_type(op);
                        if t != inst.ty {
                            return Err(fail(Some(bid), "phi incoming type mismatch".into()));
                        }
                    }
                }
            } else {
                past_phis = true;
            }
            check_inst_types(m, f, iid).map_err(|msg| fail(Some(bid), msg))?;
        }
    }

    // SSA dominance: each use must be dominated by its definition.
    check_dominance(f, &cfg, &dom).map_err(|(b, msg)| fail(b, msg))?;

    Ok(())
}

fn check_inst_types(m: &Module, f: &Function, iid: InstId) -> Result<(), String> {
    let inst = f.inst(iid);
    let t = |op: &Operand| f.operand_type(op);
    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            let (a, b) = (t(lhs), t(rhs));
            if a != b {
                return Err(format!("binop operand types differ: {a} vs {b}"));
            }
            if a != inst.ty {
                return Err("binop result type differs from operands".into());
            }
            if op.is_float() && !a.is_float() {
                return Err(format!("float op {} on non-float type {a}", op.mnemonic()));
            }
            if op.is_int() && !a.is_int() {
                return Err(format!("int op {} on non-int type {a}", op.mnemonic()));
            }
        }
        InstKind::ICmp { lhs, rhs, .. } => {
            let (a, b) = (t(lhs), t(rhs));
            if a != b {
                return Err("icmp operand types differ".into());
            }
            if !(a.is_int() || a.is_ptr()) {
                return Err(format!("icmp on non-integer type {a}"));
            }
            if inst.ty != a.mask_type() {
                return Err("icmp result must be the operand's mask type".into());
            }
        }
        InstKind::FCmp { lhs, rhs, .. } => {
            let (a, b) = (t(lhs), t(rhs));
            if a != b {
                return Err("fcmp operand types differ".into());
            }
            if !a.is_float() {
                return Err(format!("fcmp on non-float type {a}"));
            }
            if inst.ty != a.mask_type() {
                return Err("fcmp result must be the operand's mask type".into());
            }
        }
        InstKind::Select {
            cond,
            on_true,
            on_false,
        } => {
            let (ct, tt, ft) = (t(cond), t(on_true), t(on_false));
            if tt != ft || tt != inst.ty {
                return Err("select arm types must match the result".into());
            }
            match ct {
                Type::Scalar(crate::types::ScalarTy::I1) => {}
                Type::Vector(crate::types::ScalarTy::I1, n) => {
                    if tt.lanes() != n {
                        return Err("vector select lane mismatch".into());
                    }
                }
                _ => return Err(format!("select condition has type {ct}")),
            }
        }
        InstKind::Cast { op, val } => {
            let from = t(val);
            let to = inst.ty;
            if from.lanes() != to.lanes() {
                return Err("cast cannot change lane count".into());
            }
            let (fe, te) = match (from.elem(), to.elem()) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err("cast on void".into()),
            };
            let ok = match op {
                CastOp::Trunc => fe.is_int() && te.is_int() && fe.bits() > te.bits(),
                CastOp::ZExt | CastOp::SExt => fe.is_int() && te.is_int() && fe.bits() < te.bits(),
                CastOp::FpToSi => fe.is_float() && te.is_int(),
                CastOp::SiToFp => fe.is_int() && te.is_float(),
                CastOp::FpExt => fe.is_float() && te.is_float() && fe.bits() < te.bits(),
                CastOp::FpTrunc => fe.is_float() && te.is_float() && fe.bits() > te.bits(),
                CastOp::Bitcast => fe.bits() == te.bits(),
                CastOp::PtrToInt => fe == crate::types::ScalarTy::Ptr && te.is_int(),
                CastOp::IntToPtr => fe.is_int() && te == crate::types::ScalarTy::Ptr,
            };
            if !ok {
                return Err(format!("invalid {} from {from} to {to}", op.mnemonic()));
            }
        }
        InstKind::Alloca { count, .. } => {
            if !t(count).is_int() || t(count).is_vector() {
                return Err("alloca count must be a scalar integer".into());
            }
            if inst.ty != Type::PTR {
                return Err("alloca must produce ptr".into());
            }
        }
        InstKind::Load { ptr } => {
            if t(ptr) != Type::PTR {
                return Err(format!("load pointer has type {}", t(ptr)));
            }
            if inst.ty.is_void() {
                return Err("load of void".into());
            }
        }
        InstKind::Store { val, ptr } => {
            if t(ptr) != Type::PTR {
                return Err(format!("store pointer has type {}", t(ptr)));
            }
            if t(val).is_void() {
                return Err("store of void".into());
            }
        }
        InstKind::Gep { base, index, elem } => {
            if t(base) != Type::PTR {
                return Err(format!("gep base has type {}", t(base)));
            }
            if !t(index).is_int() || t(index).is_vector() {
                return Err("gep index must be a scalar integer".into());
            }
            if elem.size_bytes() == 0 {
                return Err("gep element type has zero size".into());
            }
            if inst.ty != Type::PTR {
                return Err("gep must produce ptr".into());
            }
        }
        InstKind::ExtractElement { vec, idx } => {
            let vt = t(vec);
            if !vt.is_vector() {
                return Err("extractelement on non-vector".into());
            }
            if !t(idx).is_int() || t(idx).is_vector() {
                return Err("extractelement index must be a scalar integer".into());
            }
            if inst.ty != Type::Scalar(vt.elem().unwrap()) {
                return Err("extractelement result type mismatch".into());
            }
        }
        InstKind::InsertElement { vec, elt, idx } => {
            let vt = t(vec);
            if !vt.is_vector() {
                return Err("insertelement on non-vector".into());
            }
            if t(elt) != Type::Scalar(vt.elem().unwrap()) {
                return Err("insertelement element type mismatch".into());
            }
            if !t(idx).is_int() || t(idx).is_vector() {
                return Err("insertelement index must be a scalar integer".into());
            }
            if inst.ty != vt {
                return Err("insertelement result type mismatch".into());
            }
        }
        InstKind::ShuffleVector { a, b, mask } => {
            let (at, bt) = (t(a), t(b));
            if !at.is_vector() || at != bt {
                return Err("shufflevector operands must be vectors of one type".into());
            }
            let in_lanes = at.lanes() as i32;
            for &mi in mask {
                if mi >= 2 * in_lanes || mi < -1 {
                    return Err(format!("shuffle index {mi} out of range"));
                }
            }
            let expect = Type::vec(at.elem().unwrap(), mask.len() as u32);
            if inst.ty != expect {
                return Err("shufflevector result type mismatch".into());
            }
        }
        InstKind::Phi { incomings } => {
            if incomings.is_empty() {
                return Err("phi with no incomings".into());
            }
        }
        InstKind::Call { callee, args } => {
            // Intrinsics: check against the registry.
            if let Some(intr) = intrinsics::parse(callee) {
                if intr.result_type() != inst.ty {
                    return Err(format!(
                        "intrinsic @{callee} returns {}, call typed {}",
                        intr.result_type(),
                        inst.ty
                    ));
                }
                let params = intr.param_types();
                if params.len() != args.len() {
                    return Err(format!(
                        "intrinsic @{callee} takes {} arguments, call passes {}",
                        params.len(),
                        args.len()
                    ));
                }
                for (i, (pt, a)) in params.iter().zip(args).enumerate() {
                    if !intr.accepts_arg(i, t(a)) {
                        return Err(format!(
                            "intrinsic @{callee} argument {i} has type {}, expected {pt}",
                            t(a)
                        ));
                    }
                }
                return Ok(());
            }
            if callee.starts_with("llvm.") {
                return Err(format!("unknown intrinsic @{callee}"));
            }
            // Defined functions: exact signature.
            if let Some(def) = m.function(callee) {
                if def.ret != inst.ty {
                    return Err(format!("call result type mismatch for @{callee}"));
                }
                if def.params.len() != args.len() {
                    return Err(format!("call to @{callee} with wrong arity"));
                }
                for ((_, pt), a) in def.params.iter().zip(args) {
                    if *pt != t(a) {
                        return Err(format!("call to @{callee} with wrong argument type"));
                    }
                }
                return Ok(());
            }
            // Declarations: prefix match, vararg-lenient.
            if let Some(d) = m.decl(callee) {
                if d.ret != inst.ty {
                    return Err(format!("call result type mismatch for @{callee}"));
                }
                if args.len() < d.params.len() || (!d.vararg && args.len() > d.params.len()) {
                    return Err(format!("call to @{callee} with wrong arity"));
                }
                for (pt, a) in d.params.iter().zip(args) {
                    if *pt != t(a) {
                        return Err(format!("call to @{callee} with wrong argument type"));
                    }
                }
                return Ok(());
            }
            return Err(format!("call to undeclared function @{callee}"));
        }
    }
    Ok(())
}

/// Dominance: a use of value `v` in instruction `u` is legal iff the
/// definition of `v` dominates `u` (for phi incomings: dominates the end of
/// the incoming block). Only checked for reachable blocks.
fn check_dominance(
    f: &Function,
    cfg: &Cfg,
    dom: &DomTree,
) -> Result<(), (Option<BlockId>, String)> {
    let _ = cfg;
    // Location of every instruction: (block, index within block).
    let mut loc = vec![None; f.insts.len()];
    for (bi, b) in f.blocks.iter().enumerate() {
        for (k, &iid) in b.insts.iter().enumerate() {
            loc[iid.index()] = Some((BlockId(bi as u32), k));
        }
    }
    let def_site = |v: ValueId| -> Option<(BlockId, usize)> {
        match f.value(v).def {
            ValueDef::Param(_) => None, // params dominate everything
            ValueDef::Inst(iid) => loc[iid.index()],
        }
    };
    let dominates_use =
        |v: ValueId, ub: BlockId, ui: usize, use_is_phi_from: Option<BlockId>| -> bool {
            let Some((db, di)) = def_site(v) else {
                return true;
            };
            match use_is_phi_from {
                Some(inc) => {
                    // Def must dominate the *end* of the incoming block.
                    db == inc || dom.dominates(db, inc)
                }
                None => {
                    if db == ub {
                        di < ui
                    } else {
                        dom.dominates(db, ub)
                    }
                }
            }
        };

    for (bi, b) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        if !dom.is_reachable(bid) {
            continue;
        }
        for (k, &iid) in b.insts.iter().enumerate() {
            let inst = f.inst(iid);
            if let InstKind::Phi { incomings } = &inst.kind {
                for (inc, op) in incomings {
                    if let Some(v) = op.value() {
                        if dom.is_reachable(*inc) && !dominates_use(v, bid, k, Some(*inc)) {
                            return Err((
                                Some(bid),
                                format!(
                                    "phi use of %{} not dominated by its definition",
                                    f.value_display_name(v)
                                ),
                            ));
                        }
                    }
                }
            } else {
                for op in inst.operands() {
                    if let Some(v) = op.value() {
                        if !dominates_use(v, bid, k, None) {
                            return Err((
                                Some(bid),
                                format!(
                                    "use of %{} not dominated by its definition",
                                    f.value_display_name(v)
                                ),
                            ));
                        }
                    }
                }
            }
        }
        for op in b.term.operands() {
            if let Some(v) = op.value() {
                if !dominates_use(v, bid, b.insts.len(), None) {
                    return Err((
                        Some(bid),
                        format!(
                            "terminator use of %{} not dominated by its definition",
                            f.value_display_name(v)
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::constant::Constant;
    use crate::inst::BinOp;
    use crate::parser::parse_module;

    fn module_of(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn accepts_valid_loop() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_type_mismatched_binop() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::I32);
        let e = b.add_block("entry");
        b.position_at(e);
        let bad = b.bin(BinOp::Add, b.param(0), Constant::i64(1).into(), "bad");
        b.ret(Some(bad));
        let m = module_of(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("binop operand types differ"), "{err}");
    }

    #[test]
    fn rejects_float_op_on_ints() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::I32);
        let e = b.add_block("entry");
        b.position_at(e);
        let bad = b.bin(BinOp::FAdd, b.param(0), Constant::i32(1).into(), "bad");
        b.ret(Some(bad));
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("float op"), "{err}");
    }

    #[test]
    fn rejects_use_before_def() {
        // %y used in entry but defined in a later block that doesn't dominate.
        let src = r#"
define i32 @f(i32 %x) {
entry:
  %z = add i32 %y, 1
  br label %later
later:
  %y = add i32 %x, 1
  ret i32 %z
}
"#;
        let m = parse_module(src).unwrap();
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("not dominated"), "{err}");
    }

    #[test]
    fn rejects_phi_with_wrong_preds() {
        let src = r#"
define i32 @f(i32 %x) {
entry:
  br label %a
a:
  %p = phi i32 [ 0, %entry ], [ 1, %a ]
  ret i32 %p
}
"#;
        let m = parse_module(src).unwrap();
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("incoming blocks"), "{err}");
    }

    #[test]
    fn rejects_call_to_undeclared() {
        let mut b = FuncBuilder::new("f", vec![], Type::Void);
        let e = b.add_block("entry");
        b.position_at(e);
        b.call("missing", vec![], Type::Void, "");
        b.ret(None);
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("undeclared"), "{err}");
    }

    #[test]
    fn accepts_known_intrinsic_and_rejects_unknown() {
        let vty = Type::vec(crate::types::ScalarTy::F32, 8);
        let mut b = FuncBuilder::new(
            "f",
            vec![("p".into(), Type::PTR), ("m".into(), vty)],
            Type::Void,
        );
        let e = b.add_block("entry");
        b.position_at(e);
        b.call(
            "llvm.x86.avx.maskload.ps.256",
            vec![b.param(0), b.param(1)],
            vty,
            "v",
        );
        b.ret(None);
        verify_module(&module_of(b.finish())).unwrap();

        let mut b = FuncBuilder::new("g", vec![], Type::Void);
        let e = b.add_block("entry");
        b.position_at(e);
        b.call("llvm.nonsense.xyz", vec![], Type::Void, "");
        b.ret(None);
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("unknown intrinsic"), "{err}");
    }

    #[test]
    fn rejects_vararg_violations_and_accepts_valid() {
        let mut m = Module::new("t");
        m.declare(crate::function::FuncDecl {
            name: "vulfi.inject.f32".into(),
            ret: Type::F32,
            params: vec![Type::F32],
            vararg: true,
        });
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::F32)], Type::F32);
        let e = b.add_block("entry");
        b.position_at(e);
        let r = b.call(
            "vulfi.inject.f32",
            vec![b.param(0), Constant::i64(3).into()],
            Type::F32,
            "r",
        );
        b.ret(Some(r));
        m.add_function(b.finish());
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_bad_condbr_type() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::Void);
        let e = b.add_block("entry");
        let t = b.add_block("t");
        b.position_at(e);
        b.cond_br(b.param(0), t, t);
        b.position_at(t);
        b.ret(None);
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("condbr condition"), "{err}");
    }

    #[test]
    fn rejects_entry_phi() {
        let mut b = FuncBuilder::new("f", vec![], Type::Void);
        let e = b.add_block("entry");
        b.position_at(e);
        let p = b.phi(Type::I32, "p");
        b.add_incoming(&p, e, Constant::i32(0).into());
        b.ret(None);
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("phi in entry"), "{err}");
    }

    #[test]
    fn icmp_result_type_checked() {
        let src = r#"
define i1 @f(i32 %x) {
entry:
  %c = icmp eq i32 %x, 0
  ret i1 %c
}
"#;
        verify_module(&parse_module(src).unwrap()).unwrap();
    }

    #[test]
    fn vector_select_lane_mismatch_rejected() {
        let v8 = Type::vec(crate::types::ScalarTy::F32, 8);
        let m4 = Type::vec(crate::types::ScalarTy::I1, 4);
        let mut b = FuncBuilder::new(
            "f",
            vec![("m".into(), m4), ("a".into(), v8), ("b".into(), v8)],
            v8,
        );
        let e = b.add_block("entry");
        b.position_at(e);
        let s = b.select(b.param(0), b.param(1), b.param(2), "s");
        b.ret(Some(s));
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("lane mismatch"), "{err}");
    }

    #[test]
    fn use_in_same_block_order_checked() {
        let cond_src = r#"
define i32 @f(i32 %x) {
entry:
  %a = add i32 %b, 1
  %b = add i32 %x, 1
  ret i32 %a
}
"#;
        let m = parse_module(cond_src).unwrap();
        let err = verify_module(&m).unwrap_err();
        assert!(err.msg.contains("not dominated"), "{err}");
    }

    #[test]
    fn valid_icmp_on_vectors() {
        let src = r#"
define <4 x i1> @f(<4 x i32> %a, <4 x i32> %b) {
entry:
  %c = icmp slt <4 x i32> %a, %b
  ret <4 x i1> %c
}
"#;
        verify_module(&parse_module(src).unwrap()).unwrap();
    }

    #[test]
    fn gep_checks() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::PTR);
        let e = b.add_block("entry");
        b.position_at(e);
        // base is not a pointer
        let g = b.gep(Type::F32, b.param(0), Constant::i32(0).into(), "g");
        b.ret(Some(g));
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("gep base"), "{err}");
    }

    #[test]
    fn trunc_must_shrink() {
        let mut b = FuncBuilder::new("f", vec![("x".into(), Type::I32)], Type::I64);
        let e = b.add_block("entry");
        b.position_at(e);
        let c = b.cast(crate::inst::CastOp::Trunc, b.param(0), Type::I64, "c");
        b.ret(Some(c));
        let err = verify_module(&module_of(b.finish())).unwrap_err();
        assert!(err.msg.contains("invalid trunc"), "{err}");
    }

    #[test]
    fn good_function_with_everything_passes() {
        let src = r#"
declare float @vulfi.inject.f32(float, float, ...)

define float @k(ptr %a, i32 %n) {
entry:
  %cmp = icmp sgt i32 %n, 0
  br i1 %cmp, label %loop, label %exit
loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %acc = phi float [ 0.0, %entry ], [ %acc2, %loop ]
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %vi = call float @vulfi.inject.f32(float %v, float 1.0, i64 0)
  %acc2 = fadd float %acc, %vi
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %loop, label %exit
exit:
  %r = phi float [ 0.0, %entry ], [ %acc2, %loop ]
  ret float %r
}
"#;
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_intrinsic_arguments_of_the_wrong_shape() {
        // A 4-lane mask on an 8-lane masked load: the result type is right,
        // but executing it would read mask lanes that do not exist.
        let src = r#"
define <8 x float> @f(ptr %a, <4 x float> %m) {
entry:
  %v = call <8 x float> @llvm.x86.avx.maskload.ps.256(ptr %a, <4 x float> %m)
  ret <8 x float> %v
}
"#;
        let err = verify_module(&parse_module(src).unwrap()).unwrap_err();
        assert!(err.msg.contains("argument 1 has type <4 x float>"), "{err}");
        let src = r#"
define float @f(float %x) {
entry:
  %r = call float @llvm.pow.f32(float %x)
  ret float %r
}
"#;
        let err = verify_module(&parse_module(src).unwrap()).unwrap_err();
        assert!(
            err.msg.contains("takes 2 arguments, call passes 1"),
            "{err}"
        );
    }
}
