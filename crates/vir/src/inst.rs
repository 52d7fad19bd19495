//! Instructions, operands and terminators.

use crate::constant::Constant;
use crate::types::Type;

/// Index of an instruction within a function's instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of an SSA value (parameter or instruction result) within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl InstId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl ValueId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An instruction operand: an SSA value reference or an inline constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    Value(ValueId),
    Const(Constant),
}

impl Operand {
    pub fn value(&self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }

    pub fn constant(&self) -> Option<&Constant> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Value(_) => None,
        }
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Operand {
        Operand::Value(v)
    }
}

impl From<Constant> for Operand {
    fn from(c: Constant) -> Operand {
        Operand::Const(c)
    }
}

/// Binary opcodes. Integer and float arithmetic share one enum, like LLVM's
/// instruction namespace; the verifier enforces the operand domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FRem,
}

impl BinOp {
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem
        )
    }

    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// Division-family ops that can trap on a zero divisor.
    pub fn can_trap(self) -> bool {
        matches!(self, BinOp::SDiv | BinOp::UDiv | BinOp::SRem | BinOp::URem)
    }

    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
            BinOp::FRem => "frem",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::SDiv,
            "udiv" => BinOp::UDiv,
            "srem" => BinOp::SRem,
            "urem" => BinOp::URem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            "fadd" => BinOp::FAdd,
            "fsub" => BinOp::FSub,
            "fmul" => BinOp::FMul,
            "fdiv" => BinOp::FDiv,
            "frem" => BinOp::FRem,
            _ => return None,
        })
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ICmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl ICmpPred {
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
            ICmpPred::Ult => "ult",
            ICmpPred::Ule => "ule",
            ICmpPred::Ugt => "ugt",
            ICmpPred::Uge => "uge",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<ICmpPred> {
        Some(match s {
            "eq" => ICmpPred::Eq,
            "ne" => ICmpPred::Ne,
            "slt" => ICmpPred::Slt,
            "sle" => ICmpPred::Sle,
            "sgt" => ICmpPred::Sgt,
            "sge" => ICmpPred::Sge,
            "ult" => ICmpPred::Ult,
            "ule" => ICmpPred::Ule,
            "ugt" => ICmpPred::Ugt,
            "uge" => ICmpPred::Uge,
            _ => return None,
        })
    }
}

/// Floating-point comparison predicates (ordered subset plus `ord`/`uno`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
    Ord,
    Uno,
    Ueq,
    Une,
}

impl FCmpPred {
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmpPred::Oeq => "oeq",
            FCmpPred::One => "one",
            FCmpPred::Olt => "olt",
            FCmpPred::Ole => "ole",
            FCmpPred::Ogt => "ogt",
            FCmpPred::Oge => "oge",
            FCmpPred::Ord => "ord",
            FCmpPred::Uno => "uno",
            FCmpPred::Ueq => "ueq",
            FCmpPred::Une => "une",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<FCmpPred> {
        Some(match s {
            "oeq" => FCmpPred::Oeq,
            "one" => FCmpPred::One,
            "olt" => FCmpPred::Olt,
            "ole" => FCmpPred::Ole,
            "ogt" => FCmpPred::Ogt,
            "oge" => FCmpPred::Oge,
            "ord" => FCmpPred::Ord,
            "uno" => FCmpPred::Uno,
            "ueq" => FCmpPred::Ueq,
            "une" => FCmpPred::Une,
            _ => return None,
        })
    }
}

/// Cast opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    Trunc,
    ZExt,
    SExt,
    FpToSi,
    SiToFp,
    FpExt,
    FpTrunc,
    Bitcast,
    PtrToInt,
    IntToPtr,
}

impl CastOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastOp::Trunc => "trunc",
            CastOp::ZExt => "zext",
            CastOp::SExt => "sext",
            CastOp::FpToSi => "fptosi",
            CastOp::SiToFp => "sitofp",
            CastOp::FpExt => "fpext",
            CastOp::FpTrunc => "fptrunc",
            CastOp::Bitcast => "bitcast",
            CastOp::PtrToInt => "ptrtoint",
            CastOp::IntToPtr => "inttoptr",
        }
    }

    pub fn from_mnemonic(s: &str) -> Option<CastOp> {
        Some(match s {
            "trunc" => CastOp::Trunc,
            "zext" => CastOp::ZExt,
            "sext" => CastOp::SExt,
            "fptosi" => CastOp::FpToSi,
            "sitofp" => CastOp::SiToFp,
            "fpext" => CastOp::FpExt,
            "fptrunc" => CastOp::FpTrunc,
            "bitcast" => CastOp::Bitcast,
            "ptrtoint" => CastOp::PtrToInt,
            "inttoptr" => CastOp::IntToPtr,
            _ => return None,
        })
    }
}

/// The instruction payload.
#[derive(Debug, Clone, PartialEq)]
pub enum InstKind {
    /// `add`/`fmul`/... — elementwise on vectors.
    Bin {
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Integer comparison; vector operands yield an `<n x i1>` result.
    ICmp {
        pred: ICmpPred,
        lhs: Operand,
        rhs: Operand,
    },
    /// Float comparison.
    FCmp {
        pred: FCmpPred,
        lhs: Operand,
        rhs: Operand,
    },
    /// `select cond, t, f`; a vector `i1` condition blends per lane.
    Select {
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    },
    /// Conversion; the destination type is the instruction's result type.
    Cast { op: CastOp, val: Operand },
    /// Stack allocation of `count` elements of `elem`; yields a pointer.
    Alloca { elem: Type, count: Operand },
    /// Memory load; the loaded type is the instruction's result type.
    Load { ptr: Operand },
    /// Memory store (no result; the paper treats the *value operand* as the
    /// fault site since there is no Lvalue).
    Store { val: Operand, ptr: Operand },
    /// Simplified `getelementptr`: `base + index * sizeof(elem)`.
    /// This is the *address-calculation* instruction the site classifier
    /// keys on (paper §II-C).
    Gep {
        elem: Type,
        base: Operand,
        index: Operand,
    },
    /// Extract one scalar from a vector register (paper §II-A).
    ExtractElement { vec: Operand, idx: Operand },
    /// Insert one scalar into a vector register (paper §II-A).
    InsertElement {
        vec: Operand,
        elt: Operand,
        idx: Operand,
    },
    /// Lane shuffle of two vectors; `-1` mask entries produce undef lanes.
    ShuffleVector {
        a: Operand,
        b: Operand,
        mask: Vec<i32>,
    },
    /// SSA phi node.
    Phi { incomings: Vec<(BlockId, Operand)> },
    /// Call to a defined function, an `llvm.*` intrinsic, or a host function
    /// (e.g. VULFI's runtime injection API).
    Call { callee: String, args: Vec<Operand> },
}

/// An instruction: payload plus result type (`Void` when it produces no
/// value) and an optional result value.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    pub kind: InstKind,
    pub ty: Type,
    /// Result SSA value; `None` for `store` and void calls.
    pub result: Option<ValueId>,
}

impl Inst {
    /// Vector instruction per the paper's definition (§II-A): at least one
    /// vector-typed operand *or* a vector result.
    pub fn is_vector(&self) -> bool {
        if self.ty.is_vector() {
            return true;
        }
        self.operand_types_unknown_as_scalar()
    }

    fn operand_types_unknown_as_scalar(&self) -> bool {
        // Only constants carry inline type info; value operand types are
        // resolved by `Function::inst_is_vector`, which should be preferred.
        self.operands()
            .iter()
            .any(|op| matches!(op, Operand::Const(c) if c.ty.is_vector()))
    }

    /// All operands, in a stable order.
    pub fn operands(&self) -> Vec<&Operand> {
        match &self.kind {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => vec![lhs, rhs],
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => vec![cond, on_true, on_false],
            InstKind::Cast { val, .. } => vec![val],
            InstKind::Alloca { count, .. } => vec![count],
            InstKind::Load { ptr } => vec![ptr],
            InstKind::Store { val, ptr } => vec![val, ptr],
            InstKind::Gep { base, index, .. } => vec![base, index],
            InstKind::ExtractElement { vec, idx } => vec![vec, idx],
            InstKind::InsertElement { vec, elt, idx } => vec![vec, elt, idx],
            InstKind::ShuffleVector { a, b, .. } => vec![a, b],
            InstKind::Phi { incomings } => incomings.iter().map(|(_, op)| op).collect(),
            InstKind::Call { args, .. } => args.iter().collect(),
        }
    }

    /// Visit every operand mutably (used by use-rewriting passes).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match &mut self.kind {
            InstKind::Bin { lhs, rhs, .. }
            | InstKind::ICmp { lhs, rhs, .. }
            | InstKind::FCmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(cond);
                f(on_true);
                f(on_false);
            }
            InstKind::Cast { val, .. } => f(val),
            InstKind::Alloca { count, .. } => f(count),
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { val, ptr } => {
                f(val);
                f(ptr);
            }
            InstKind::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            InstKind::ExtractElement { vec, idx } => {
                f(vec);
                f(idx);
            }
            InstKind::InsertElement { vec, elt, idx } => {
                f(vec);
                f(elt);
                f(idx);
            }
            InstKind::ShuffleVector { a, b, .. } => {
                f(a);
                f(b);
            }
            InstKind::Phi { incomings } => {
                for (_, op) in incomings {
                    f(op);
                }
            }
            InstKind::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
        }
    }

    pub fn is_phi(&self) -> bool {
        matches!(self.kind, InstKind::Phi { .. })
    }

    pub fn is_store(&self) -> bool {
        matches!(self.kind, InstKind::Store { .. })
    }

    /// Operand at position `ix` in [`Inst::operands`] order.
    pub fn operand_at(&self, ix: usize) -> Option<&Operand> {
        self.operands().into_iter().nth(ix)
    }

    /// Replace the operand at position `ix` (same order as
    /// [`Inst::operands`]). Returns false if out of range.
    pub fn set_operand_at(&mut self, ix: usize, new: Operand) -> bool {
        let mut k = 0;
        let mut done = false;
        self.for_each_operand_mut(|op| {
            if k == ix {
                *op = new.clone();
                done = true;
            }
            k += 1;
        });
        done
    }

    /// Mnemonic of this instruction's opcode (for profiles and reports).
    pub fn opcode(&self) -> &'static str {
        match &self.kind {
            InstKind::Bin { op, .. } => op.mnemonic(),
            InstKind::ICmp { .. } => "icmp",
            InstKind::FCmp { .. } => "fcmp",
            InstKind::Select { .. } => "select",
            InstKind::Cast { op, .. } => op.mnemonic(),
            InstKind::Alloca { .. } => "alloca",
            InstKind::Load { .. } => "load",
            InstKind::Store { .. } => "store",
            InstKind::Gep { .. } => "getelementptr",
            InstKind::ExtractElement { .. } => "extractelement",
            InstKind::InsertElement { .. } => "insertelement",
            InstKind::ShuffleVector { .. } => "shufflevector",
            InstKind::Phi { .. } => "phi",
            InstKind::Call { .. } => "call",
        }
    }

    /// Callee name, if this is a call.
    pub fn callee(&self) -> Option<&str> {
        match &self.kind {
            InstKind::Call { callee, .. } => Some(callee.as_str()),
            _ => None,
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    Br(BlockId),
    CondBr {
        cond: Operand,
        on_true: BlockId,
        on_false: BlockId,
    },
    Ret(Option<Operand>),
    Unreachable,
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                on_true, on_false, ..
            } => vec![*on_true, *on_false],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }

    pub fn operands(&self) -> Vec<&Operand> {
        match self {
            Terminator::CondBr { cond, .. } => vec![cond],
            Terminator::Ret(Some(op)) => vec![op],
            _ => vec![],
        }
    }

    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::CondBr { cond, .. } => f(cond),
            Terminator::Ret(Some(op)) => f(op),
            _ => {}
        }
    }

    /// True for terminators the site classifier counts as "control-flow
    /// instructions" (paper §II-C): only branches whose direction depends on
    /// a data value.
    pub fn is_conditional(&self) -> bool {
        matches!(self, Terminator::CondBr { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constant::Constant;

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::UDiv,
            BinOp::SRem,
            BinOp::URem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
            BinOp::FRem,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("bogus"), None);
    }

    #[test]
    fn icmp_fcmp_cast_roundtrip() {
        for p in [
            ICmpPred::Eq,
            ICmpPred::Ne,
            ICmpPred::Slt,
            ICmpPred::Sle,
            ICmpPred::Sgt,
            ICmpPred::Sge,
            ICmpPred::Ult,
            ICmpPred::Ule,
            ICmpPred::Ugt,
            ICmpPred::Uge,
        ] {
            assert_eq!(ICmpPred::from_mnemonic(p.mnemonic()), Some(p));
        }
        for p in [
            FCmpPred::Oeq,
            FCmpPred::One,
            FCmpPred::Olt,
            FCmpPred::Ole,
            FCmpPred::Ogt,
            FCmpPred::Oge,
            FCmpPred::Ord,
            FCmpPred::Uno,
            FCmpPred::Ueq,
            FCmpPred::Une,
        ] {
            assert_eq!(FCmpPred::from_mnemonic(p.mnemonic()), Some(p));
        }
        for c in [
            CastOp::Trunc,
            CastOp::ZExt,
            CastOp::SExt,
            CastOp::FpToSi,
            CastOp::SiToFp,
            CastOp::FpExt,
            CastOp::FpTrunc,
            CastOp::Bitcast,
            CastOp::PtrToInt,
            CastOp::IntToPtr,
        ] {
            assert_eq!(CastOp::from_mnemonic(c.mnemonic()), Some(c));
        }
    }

    #[test]
    fn operand_accessors() {
        let v = Operand::Value(ValueId(3));
        assert_eq!(v.value(), Some(ValueId(3)));
        assert!(v.constant().is_none());
        let c = Operand::Const(Constant::i32(5));
        assert!(c.value().is_none());
        assert_eq!(c.constant().unwrap().as_i64(), Some(5));
    }

    #[test]
    fn store_has_two_operands_in_order() {
        let st = Inst {
            kind: InstKind::Store {
                val: Constant::i32(1).into(),
                ptr: Operand::Value(ValueId(0)),
            },
            ty: Type::Void,
            result: None,
        };
        let ops = st.operands();
        assert_eq!(ops.len(), 2);
        assert!(ops[0].constant().is_some());
        assert_eq!(ops[1].value(), Some(ValueId(0)));
        assert!(st.is_store());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Operand::Const(Constant::bool(true)),
            on_true: BlockId(1),
            on_false: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(t.is_conditional());
        assert!(!Terminator::Br(BlockId(0)).is_conditional());
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn for_each_operand_mut_visits_all() {
        let mut inst = Inst {
            kind: InstKind::Select {
                cond: Operand::Value(ValueId(0)),
                on_true: Operand::Value(ValueId(1)),
                on_false: Operand::Value(ValueId(2)),
            },
            ty: Type::I32,
            result: Some(ValueId(3)),
        };
        let mut seen = 0;
        inst.for_each_operand_mut(|_| seen += 1);
        assert_eq!(seen, 3);
    }
}
