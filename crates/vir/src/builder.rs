//! Ergonomic construction of VIR functions.
//!
//! [`FuncBuilder`] wraps a [`Function`] with an insertion cursor, so code
//! generators and tests can emit instructions in LLVM-builder style:
//!
//! ```
//! use vir::builder::FuncBuilder;
//! use vir::{BinOp, Constant, Terminator, Type};
//!
//! let mut b = FuncBuilder::new("double_it", vec![("x".into(), Type::I32)], Type::I32);
//! let entry = b.add_block("entry");
//! b.position_at(entry);
//! let x = b.param(0);
//! let doubled = b.bin(BinOp::Mul, x, Constant::i32(2).into(), "d");
//! b.ret(Some(doubled));
//! let f = b.finish();
//! assert_eq!(f.num_placed_insts(), 1);
//! ```

use crate::constant::Constant;
use crate::function::Function;
use crate::inst::{BinOp, BlockId, CastOp, FCmpPred, ICmpPred, InstKind, Operand, Terminator};
use crate::types::Type;

/// A function under construction.
pub struct FuncBuilder {
    f: Function,
    cur: Option<BlockId>,
}

impl FuncBuilder {
    pub fn new(name: impl Into<String>, params: Vec<(String, Type)>, ret: Type) -> FuncBuilder {
        FuncBuilder {
            f: Function::new(name, params, ret),
            cur: None,
        }
    }

    /// Add a block (does not move the cursor).
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.f.add_block(name)
    }

    /// Move the insertion cursor to the end of `b`.
    pub fn position_at(&mut self, b: BlockId) {
        self.cur = Some(b);
    }

    pub fn current_block(&self) -> BlockId {
        self.cur.expect("builder has no current block")
    }

    /// The operand for parameter `i`.
    pub fn param(&self, i: usize) -> Operand {
        self.f.param_value(i).into()
    }

    pub fn func(&self) -> &Function {
        &self.f
    }

    /// Type of an operand.
    pub fn ty_of(&self, op: &Operand) -> Type {
        self.f.operand_type(op)
    }

    fn emit(&mut self, kind: InstKind, ty: Type, name: &str) -> Operand {
        let block = self.current_block();
        let name = if name.is_empty() {
            None
        } else {
            Some(name.to_string())
        };
        let (_, res) = self.f.append_inst(block, kind, ty, name);
        match res {
            Some(v) => v.into(),
            None => Operand::Const(Constant::zero(Type::I32)), // void; callers ignore
        }
    }

    /// Emit a binary operation; the result type is the lhs type.
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand, name: &str) -> Operand {
        let ty = self.ty_of(&lhs);
        self.emit(InstKind::Bin { op, lhs, rhs }, ty, name)
    }

    pub fn icmp(&mut self, pred: ICmpPred, lhs: Operand, rhs: Operand, name: &str) -> Operand {
        let ty = self.ty_of(&lhs).mask_type();
        self.emit(InstKind::ICmp { pred, lhs, rhs }, ty, name)
    }

    pub fn fcmp(&mut self, pred: FCmpPred, lhs: Operand, rhs: Operand, name: &str) -> Operand {
        let ty = self.ty_of(&lhs).mask_type();
        self.emit(InstKind::FCmp { pred, lhs, rhs }, ty, name)
    }

    pub fn select(
        &mut self,
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
        name: &str,
    ) -> Operand {
        let ty = self.ty_of(&on_true);
        self.emit(
            InstKind::Select {
                cond,
                on_true,
                on_false,
            },
            ty,
            name,
        )
    }

    pub fn cast(&mut self, op: CastOp, val: Operand, to: Type, name: &str) -> Operand {
        self.emit(InstKind::Cast { op, val }, to, name)
    }

    pub fn alloca(&mut self, elem: Type, count: Operand, name: &str) -> Operand {
        self.emit(InstKind::Alloca { elem, count }, Type::PTR, name)
    }

    pub fn load(&mut self, ty: Type, ptr: Operand, name: &str) -> Operand {
        self.emit(InstKind::Load { ptr }, ty, name)
    }

    pub fn store(&mut self, val: Operand, ptr: Operand) {
        self.emit(InstKind::Store { val, ptr }, Type::Void, "");
    }

    /// `getelementptr`: `base + index * sizeof(elem)`.
    pub fn gep(&mut self, elem: Type, base: Operand, index: Operand, name: &str) -> Operand {
        self.emit(InstKind::Gep { elem, base, index }, Type::PTR, name)
    }

    pub fn extract(&mut self, vec: Operand, idx: Operand, name: &str) -> Operand {
        let ty = self
            .ty_of(&vec)
            .elem()
            .map(Type::Scalar)
            .expect("extractelement on non-vector");
        self.emit(InstKind::ExtractElement { vec, idx }, ty, name)
    }

    pub fn insert(&mut self, vec: Operand, elt: Operand, idx: Operand, name: &str) -> Operand {
        let ty = self.ty_of(&vec);
        self.emit(InstKind::InsertElement { vec, elt, idx }, ty, name)
    }

    pub fn shuffle(&mut self, a: Operand, b: Operand, mask: Vec<i32>, name: &str) -> Operand {
        let elem = self.ty_of(&a).elem().expect("shuffle on non-vector");
        let ty = Type::vec(elem, mask.len() as u32);
        self.emit(InstKind::ShuffleVector { a, b, mask }, ty, name)
    }

    /// Broadcast a scalar to all lanes using the exact two-instruction ISPC
    /// pattern from paper Fig. 9: `insertelement undef` + `shufflevector
    /// zeroinitializer-mask`.
    pub fn broadcast(&mut self, scalar: Operand, lanes: u32, name: &str) -> Operand {
        let elem = match self.ty_of(&scalar) {
            Type::Scalar(s) => s,
            t => panic!("broadcast of non-scalar type {t}"),
        };
        let vty = Type::vec(elem, lanes);
        let init = self.insert(
            Constant::undef(vty).into(),
            scalar,
            Constant::i32(0).into(),
            &format!("{name}_broadcast_init"),
        );
        self.shuffle(
            init,
            Constant::undef(vty).into(),
            vec![0; lanes as usize],
            &format!("{name}_broadcast"),
        )
    }

    /// Phi with no incomings yet; fill via [`FuncBuilder::add_incoming`].
    pub fn phi(&mut self, ty: Type, name: &str) -> Operand {
        self.emit(InstKind::Phi { incomings: vec![] }, ty, name)
    }

    /// Append an incoming edge to a previously created phi.
    pub fn add_incoming(&mut self, phi: &Operand, block: BlockId, val: Operand) {
        let vid = phi.value().expect("phi operand must be a value");
        let def = match self.f.value(vid).def {
            crate::function::ValueDef::Inst(i) => i,
            _ => panic!("add_incoming on non-instruction value"),
        };
        match &mut self.f.inst_mut(def).kind {
            InstKind::Phi { incomings } => incomings.push((block, val)),
            _ => panic!("add_incoming on non-phi instruction"),
        }
    }

    pub fn call(
        &mut self,
        callee: impl Into<String>,
        args: Vec<Operand>,
        ret: Type,
        name: &str,
    ) -> Operand {
        self.emit(
            InstKind::Call {
                callee: callee.into(),
                args,
            },
            ret,
            name,
        )
    }

    // Terminators ---------------------------------------------------------

    pub fn br(&mut self, target: BlockId) {
        let b = self.current_block();
        self.f.block_mut(b).term = Terminator::Br(target);
    }

    pub fn cond_br(&mut self, cond: Operand, on_true: BlockId, on_false: BlockId) {
        let b = self.current_block();
        self.f.block_mut(b).term = Terminator::CondBr {
            cond,
            on_true,
            on_false,
        };
    }

    pub fn ret(&mut self, val: Option<Operand>) {
        let b = self.current_block();
        self.f.block_mut(b).term = Terminator::Ret(val);
    }

    pub fn unreachable(&mut self) {
        let b = self.current_block();
        self.f.block_mut(b).term = Terminator::Unreachable;
    }

    /// Finish construction and return the function.
    pub fn finish(self) -> Function {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScalarTy;

    #[test]
    fn builder_builds_loop_with_phi() {
        // sum 0..n
        let mut b = FuncBuilder::new("sum", vec![("n".into(), Type::I32)], Type::I32);
        let entry = b.add_block("entry");
        let header = b.add_block("header");
        let body = b.add_block("body");
        let exit = b.add_block("exit");

        b.position_at(entry);
        b.br(header);

        b.position_at(header);
        let i = b.phi(Type::I32, "i");
        let acc = b.phi(Type::I32, "acc");
        let n = b.param(0);
        let cond = b.icmp(ICmpPred::Slt, i.clone(), n, "cond");
        b.cond_br(cond, body, exit);

        b.position_at(body);
        let acc2 = b.bin(BinOp::Add, acc.clone(), i.clone(), "acc2");
        let i2 = b.bin(BinOp::Add, i.clone(), Constant::i32(1).into(), "i2");
        b.br(header);

        b.add_incoming(&i, entry, Constant::i32(0).into());
        b.add_incoming(&i, body, i2);
        b.add_incoming(&acc, entry, Constant::i32(0).into());
        b.add_incoming(&acc, body, acc2);

        b.position_at(exit);
        b.ret(Some(acc));

        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.num_placed_insts(), 5);
    }

    #[test]
    fn broadcast_emits_ispc_pattern() {
        let mut b = FuncBuilder::new("bc", vec![("x".into(), Type::F32)], Type::Void);
        let entry = b.add_block("entry");
        b.position_at(entry);
        let x = b.param(0);
        let v = b.broadcast(x, 8, "uval");
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.operand_type(&v), Type::vec(ScalarTy::F32, 8));
        // insertelement followed by shufflevector, as in paper Fig. 9.
        let kinds: Vec<_> = f
            .placed_insts()
            .map(|(_, i)| std::mem::discriminant(&f.inst(i).kind))
            .collect();
        assert_eq!(kinds.len(), 2);
        assert!(matches!(
            f.inst(f.block(entry).insts[0]).kind,
            InstKind::InsertElement { .. }
        ));
        assert!(matches!(
            f.inst(f.block(entry).insts[1]).kind,
            InstKind::ShuffleVector { .. }
        ));
    }

    #[test]
    fn select_and_casts() {
        let mut b = FuncBuilder::new(
            "c",
            vec![("x".into(), Type::I32), ("c".into(), Type::I1)],
            Type::F32,
        );
        let entry = b.add_block("entry");
        b.position_at(entry);
        let x = b.param(0);
        let c = b.param(1);
        let sel = b.select(c, x.clone(), Constant::i32(0).into(), "sel");
        let f32v = b.cast(CastOp::SiToFp, sel, Type::F32, "f");
        b.ret(Some(f32v.clone()));
        let f = b.finish();
        assert_eq!(f.operand_type(&f32v), Type::F32);
    }
}
