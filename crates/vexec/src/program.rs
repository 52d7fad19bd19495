//! The decoded program: a [`vir::Module`] translated once into the form
//! the interpreter executes.
//!
//! Decoding resolves everything the tree-walking form looked up per
//! executed instruction:
//!
//! - **Lane storage.** Every SSA value of a function owns a fixed run of
//!   `u64` words (one per lane, masked to the element width) at a fixed
//!   offset in the function's frame. An operand is that offset; a vector
//!   lane is one more word. Types are resolved statically, so the
//!   interpreter never tags, clones or allocates a register value.
//! - **Constants** are materialised once into the frame template, after
//!   the value words; a call copies the template into its frame.
//! - **Callees** resolve to a defined function index, an intrinsic
//!   specialised into its own op, a host function name, or an unknown
//!   `llvm.*` name that traps when (and only when) it executes.
//! - **Hook metadata.** Every decoded instruction and block keeps its
//!   `InstId`/`BlockId`, opcode, and the lane width and active-lane source
//!   the instruction-mix profile reports, so profiles, traces and engine
//!   hooks observe exactly what they observed on the tree-walking form.
//!
//! Shapes the verifier rules out (mismatched operand widths, malformed
//! constants, dangling ids) decode into a trapping op that raises the
//! engine fault when executed, so decoding itself never fails or panics.

use std::collections::HashMap;

use vir::intrinsics::{self, Intrinsic, MathOp};
use vir::{
    BinOp, CastOp, ConstData, Constant, FCmpPred, Function, ICmpPred, InstKind, Module, Operand,
    ScalarTy, Terminator, Type,
};

use crate::mem::Trap;

/// A module decoded for execution. Immutable once built; share it
/// between any number of interpreters (see [`crate::Interp::with_program`]).
#[derive(Debug)]
pub struct Program {
    pub(crate) funcs: Vec<Func>,
    by_name: HashMap<String, u32>,
    /// Largest frame of any function, in words.
    pub(crate) max_frame: usize,
}

/// A statically typed run of words in a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    pub off: u32,
    pub ty: Type,
}

impl Slot {
    pub fn lanes(self) -> usize {
        self.ty.lanes() as usize
    }
}

/// One decoded function.
#[derive(Debug)]
pub(crate) struct Func {
    pub name: String,
    /// Declared parameter count (the arity `run` checks).
    pub n_params: usize,
    /// Slots of the leading values, which hold the arguments of a call.
    pub arg_slots: Vec<Slot>,
    /// Frame template: constants in place, every value word zero.
    pub frame: Vec<u64>,
    pub blocks: Vec<DBlock>,
    pub insts: Vec<DInst>,
    pub meta: Vec<Meta>,
    /// Phi arms: `(predecessor block, source offset)`.
    pub arms: Vec<(u32, u32)>,
    /// Operand pool of calls and shuffles.
    pub pool: Vec<Slot>,
    /// Host callee names.
    pub names: Vec<String>,
}

/// One basic block: phis in `start..body`, the rest in `body..end`.
#[derive(Debug)]
pub(crate) struct DBlock {
    pub start: u32,
    pub body: u32,
    pub end: u32,
    pub term: Term,
}

#[derive(Debug)]
pub(crate) enum Term {
    Br(u32),
    CondBr {
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    Ret(Option<Slot>),
    Unreachable,
    /// A terminator only unverified IR produces.
    Trap(Box<Trap>),
}

/// One decoded instruction writing its result at `dst`.
#[derive(Debug)]
pub(crate) struct DInst {
    pub op: Op,
    pub dst: u32,
}

/// A range of a function's pool or arm list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub start: u32,
    pub len: u32,
}

impl Span {
    pub fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug)]
pub(crate) enum Op {
    Bin {
        op: BinOp,
        ty: ScalarTy,
        n: u32,
        a: u32,
        b: u32,
    },
    ICmp {
        pred: ICmpPred,
        ty: ScalarTy,
        n: u32,
        a: u32,
        b: u32,
    },
    FCmp {
        pred: FCmpPred,
        ty: ScalarTy,
        n: u32,
        a: u32,
        b: u32,
    },
    /// Scalar condition: copy one arm whole.
    Select {
        c: u32,
        t: u32,
        e: u32,
        n: u32,
    },
    /// Vector condition: per lane, bit 0 of the condition picks the arm.
    SelectLanes {
        c: u32,
        t: u32,
        e: u32,
        n: u32,
    },
    Cast {
        op: CastOp,
        from: ScalarTy,
        to: ScalarTy,
        n: u32,
        v: u32,
    },
    Alloca {
        size: u64,
        count: u32,
        count_ty: ScalarTy,
    },
    Load {
        ty: ScalarTy,
        n: u32,
        vector: bool,
        ptr: u32,
    },
    Store {
        ty: ScalarTy,
        n: u32,
        val: u32,
        ptr: u32,
    },
    Gep {
        size: u64,
        base: u32,
        index: u32,
        index_ty: ScalarTy,
    },
    Extract {
        n: u32,
        vec: u32,
        idx: u32,
    },
    Insert {
        n: u32,
        vec: u32,
        elt: u32,
        idx: u32,
    },
    /// Gather: lane `k` of the result is the word at `pool[k].off`.
    Shuffle {
        srcs: Span,
    },
    Phi {
        arms: Span,
        n: u32,
    },
    /// Call a defined function; `args` in the pool. `result`: the call
    /// names a value, which the callee's return writes.
    Call {
        func: u32,
        args: Span,
        result: bool,
    },
    /// Call a host function `names[name]`; `ret` is the call's type.
    Host {
        name: u32,
        args: Span,
        ret: Type,
    },
    MaskLoad {
        lanes: u32,
        elem: ScalarTy,
        ptr: u32,
        mask: u32,
    },
    MaskStore {
        lanes: u32,
        elem: ScalarTy,
        ptr: u32,
        mask: u32,
        val: u32,
    },
    Math {
        op: MathOp,
        elem: ScalarTy,
        n: u32,
        a: u32,
        b: u32,
    },
    Movmsk {
        lanes: u32,
        v: u32,
    },
    MaskAny {
        lanes: u32,
        v: u32,
    },
    MaskAll {
        lanes: u32,
        v: u32,
    },
    /// Raise this trap when executed.
    Trap(Box<Trap>),
}

/// What the instruction-mix profile records for one instruction.
#[derive(Debug)]
pub(crate) struct Meta {
    pub iid: u32,
    pub opcode: &'static str,
    /// Widest operand or result, in lanes.
    pub width: u32,
    pub is_vec: bool,
    pub active: Active,
}

/// Where an instruction's active-lane count comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Active {
    /// Every lane runs.
    Full,
    /// Masked memory op: lanes of the mask (`n` words of `elem`) whose
    /// sign bit is set.
    Mask { off: u32, n: u32, elem: ScalarTy },
    /// Vector select: condition lanes with bit 0 set.
    Cond { off: u32, n: u32 },
}

impl Program {
    /// Decode every function of `m`.
    pub fn decode(m: &Module) -> Program {
        let mut by_name = HashMap::new();
        for (i, f) in m.functions.iter().enumerate() {
            by_name.entry(f.name.clone()).or_insert(i as u32);
        }
        let funcs: Vec<Func> = m
            .functions
            .iter()
            .map(|f| Decoder::new(f, &by_name, m).run())
            .collect();
        let max_frame = funcs.iter().map(|f| f.frame.len()).max().unwrap_or(0);
        Program {
            funcs,
            by_name,
            max_frame,
        }
    }

    /// Index of the first function named `name`.
    pub(crate) fn function(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).map(|&i| i as usize)
    }
}

/// The most words one frame may hold: 2 MiB of lanes, far above any
/// benchmark kernel. IR whose values or constants need more decodes into
/// a trap, not into an allocation sized by the input (64 nested calls
/// stay within 128 MiB).
const MAX_FRAME_WORDS: usize = 1 << 18;

fn fault(msg: impl Into<String>) -> Trap {
    Trap::EngineFault(msg.into())
}

/// Word pattern of a constant, masked to its element width.
fn const_words(c: &Constant) -> Result<Vec<u64>, Trap> {
    let elem = c.ty.elem().ok_or_else(|| fault("constant of void type"))?;
    let n = c.ty.lanes() as usize;
    if n > MAX_FRAME_WORDS {
        return Err(fault("constant wider than a frame"));
    }
    let words = match (&c.data, c.ty) {
        (ConstData::Scalar(b), Type::Scalar(_)) => vec![*b],
        (ConstData::Scalar(b), _) => vec![*b; n],
        (ConstData::Vector(v), Type::Vector(..)) if v.len() == n => v.clone(),
        (ConstData::Zero | ConstData::Undef, _) => vec![0; n],
        _ => return Err(fault("malformed constant payload")),
    };
    Ok(words.into_iter().map(|b| b & elem.bit_mask()).collect())
}

struct Decoder<'a> {
    f: &'a Function,
    m: &'a Module,
    funcs: &'a HashMap<String, u32>,
    /// Offset of every value (`None` for void values, and for values
    /// past the frame limit).
    value_off: Vec<Option<u32>>,
    frame: Vec<u64>,
    /// Where each distinct constant already sits in the frame.
    scalars: HashMap<(ScalarTy, u64), u32>,
    vectors: HashMap<(Type, Vec<u64>), u32>,
    out: Func,
}

impl<'a> Decoder<'a> {
    fn new(f: &'a Function, funcs: &'a HashMap<String, u32>, m: &'a Module) -> Decoder<'a> {
        let mut words = 0usize;
        let value_off: Vec<Option<u32>> = f
            .values
            .iter()
            .map(|v| {
                let off = words;
                words = words.saturating_add(v.ty.lanes() as usize);
                (!v.ty.is_void() && words <= MAX_FRAME_WORDS).then_some(off as u32)
            })
            .collect();
        let placed = f.blocks.iter().map(|b| b.insts.len()).sum();
        let mut d = Decoder {
            f,
            m,
            funcs,
            value_off,
            frame: vec![0; words.min(MAX_FRAME_WORDS)],
            scalars: HashMap::new(),
            vectors: HashMap::new(),
            out: Func {
                name: f.name.clone(),
                n_params: f.params.len(),
                arg_slots: Vec::new(),
                frame: Vec::new(),
                blocks: Vec::with_capacity(f.blocks.len().max(1)),
                insts: Vec::with_capacity(placed),
                meta: Vec::with_capacity(placed),
                arms: Vec::new(),
                pool: Vec::new(),
                names: Vec::new(),
            },
        };
        d.out.arg_slots = (0..f.params.len().min(f.values.len()))
            .map(|i| Slot {
                off: d.value_off[i].unwrap_or(0),
                ty: f.values[i].ty,
            })
            .collect();
        d
    }

    fn run(mut self) -> Func {
        let f = self.f;
        if self
            .value_off
            .iter()
            .zip(&f.values)
            .any(|(o, v)| o.is_none() && !v.ty.is_void())
        {
            let trap = self.too_big();
            self.out.blocks.push(DBlock {
                start: 0,
                body: 0,
                end: 0,
                term: Term::Trap(Box::new(trap)),
            });
            self.out.arg_slots.clear();
            self.out.frame = self.frame;
            return self.out;
        }
        for block in &f.blocks {
            let start = self.out.insts.len() as u32;
            let mut body = start;
            let mut in_phis = true;
            for &iid in &block.insts {
                let Some(inst) = f.insts.get(iid.index()) else {
                    in_phis = false;
                    self.out.insts.push(DInst {
                        op: Op::Trap(Box::new(fault("dangling instruction id"))),
                        dst: 0,
                    });
                    self.out.meta.push(Meta {
                        iid: iid.0,
                        opcode: "invalid",
                        width: 1,
                        is_vec: false,
                        active: Active::Full,
                    });
                    continue;
                };
                in_phis &= inst.is_phi();
                self.inst(iid.0, inst);
                if in_phis {
                    body = self.out.insts.len() as u32;
                }
            }
            let term = self.term(&block.term);
            self.out.blocks.push(DBlock {
                start,
                body,
                end: self.out.insts.len() as u32,
                term,
            });
        }
        if f.blocks.is_empty() {
            self.out.blocks.push(DBlock {
                start: 0,
                body: 0,
                end: 0,
                term: Term::Trap(Box::new(fault(format!("@{} has no blocks", f.name)))),
            });
        }
        // A study holds its program for its whole run: keep no slack.
        self.frame.shrink_to_fit();
        self.out.pool.shrink_to_fit();
        self.out.arms.shrink_to_fit();
        self.out.frame = self.frame;
        self.out
    }

    /// The slot an operand reads.
    fn operand(&mut self, op: &Operand) -> Result<Slot, Trap> {
        match op {
            Operand::Value(v) => {
                let info = self
                    .f
                    .values
                    .get(v.index())
                    .ok_or_else(|| fault(format!("use of nonexistent value v{}", v.0)))?;
                let off = self.value_off[v.index()]
                    .ok_or_else(|| fault(format!("value v{} has no frame slot", v.0)))?;
                Ok(Slot { off, ty: info.ty })
            }
            Operand::Const(c) => {
                let off = match (&c.data, c.ty) {
                    (
                        ConstData::Scalar(_) | ConstData::Zero | ConstData::Undef,
                        Type::Scalar(e),
                    ) => {
                        let w = c.scalar_bits().unwrap_or(0) & e.bit_mask();
                        match self.scalars.get(&(e, w)) {
                            Some(&off) => off,
                            None => {
                                let off = self.place(&[w])?;
                                self.scalars.insert((e, w), off);
                                off
                            }
                        }
                    }
                    _ => {
                        let words = const_words(c)?;
                        match self.vectors.get(&(c.ty, words.clone())) {
                            Some(&off) => off,
                            None => {
                                let off = self.place(&words)?;
                                self.vectors.insert((c.ty, words), off);
                                off
                            }
                        }
                    }
                };
                Ok(Slot { off, ty: c.ty })
            }
        }
    }

    /// Append `words` to the frame template, within the frame limit.
    fn place(&mut self, words: &[u64]) -> Result<u32, Trap> {
        let off = self.frame.len();
        if words.len() > MAX_FRAME_WORDS - off {
            return Err(self.too_big());
        }
        self.frame.extend_from_slice(words);
        Ok(off as u32)
    }

    /// Fresh zeroed scratch words for a result nothing reads.
    fn scratch(&mut self, ty: Type) -> Result<u32, Trap> {
        let off = self.frame.len();
        let n = ty.lanes() as usize;
        if n > MAX_FRAME_WORDS - off {
            return Err(self.too_big());
        }
        self.frame.resize(off + n, 0);
        Ok(off as u32)
    }

    fn too_big(&self) -> Trap {
        fault(format!(
            "@{} needs a frame over {MAX_FRAME_WORDS} words",
            self.f.name
        ))
    }

    fn inst(&mut self, iid: u32, inst: &vir::Inst) {
        let f = self.f;
        let (mut width, mut is_vec) = (inst.ty.lanes(), inst.ty.is_vector());
        for op in inst.operands() {
            let ty = match op {
                Operand::Value(v) => f.values.get(v.index()).map_or(Type::Void, |i| i.ty),
                Operand::Const(c) => c.ty,
            };
            width = width.max(ty.lanes());
            is_vec |= ty.is_vector();
        }
        let decoded = self
            .dst(inst)
            .and_then(|dst| self.op(inst).map(|(op, active)| (op, active, dst)));
        let (op, active, dst) =
            decoded.unwrap_or_else(|t| (Op::Trap(Box::new(t)), Active::Full, 0));
        self.out.insts.push(DInst { op, dst });
        self.out.meta.push(Meta {
            iid,
            opcode: inst.opcode(),
            width,
            is_vec,
            active,
        });
    }

    /// Where an instruction writes: its result value's words, or fresh
    /// scratch words when the IR names no result.
    fn dst(&mut self, inst: &vir::Inst) -> Result<u32, Trap> {
        let Some(v) = inst.result else {
            return self.scratch(inst.ty);
        };
        match (self.f.values.get(v.index()), self.value_off.get(v.index())) {
            (Some(info), Some(&Some(off))) if info.ty == inst.ty => Ok(off),
            _ => Err(fault("result value does not match its instruction")),
        }
    }

    /// Decode one instruction kind.
    fn op(&mut self, inst: &vir::Inst) -> Result<(Op, Active), Trap> {
        let ty = inst.ty;
        let full = |op| Ok((op, Active::Full));
        let shape = |what: &str| fault(format!("malformed {what}"));
        let elem_of = |t: Type| t.elem().ok_or_else(|| fault("operand of void type"));
        match &inst.kind {
            InstKind::Bin { op, lhs, rhs } => {
                let (a, b) = (self.operand(lhs)?, self.operand(rhs)?);
                if a.ty != b.ty || a.ty != ty {
                    return Err(shape("binop"));
                }
                full(Op::Bin {
                    op: *op,
                    ty: elem_of(ty)?,
                    n: ty.lanes(),
                    a: a.off,
                    b: b.off,
                })
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                let (a, b) = (self.operand(lhs)?, self.operand(rhs)?);
                if a.ty != b.ty || ty != a.ty.mask_type() {
                    return Err(shape("icmp"));
                }
                let e = elem_of(a.ty)?;
                full(Op::ICmp {
                    pred: *pred,
                    ty: e,
                    n: ty.lanes(),
                    a: a.off,
                    b: b.off,
                })
            }
            InstKind::FCmp { pred, lhs, rhs } => {
                let (a, b) = (self.operand(lhs)?, self.operand(rhs)?);
                if a.ty != b.ty || ty != a.ty.mask_type() {
                    return Err(shape("fcmp"));
                }
                let e = elem_of(a.ty)?;
                full(Op::FCmp {
                    pred: *pred,
                    ty: e,
                    n: ty.lanes(),
                    a: a.off,
                    b: b.off,
                })
            }
            InstKind::Select {
                cond,
                on_true,
                on_false,
            } => {
                let (c, t, e) = (
                    self.operand(cond)?,
                    self.operand(on_true)?,
                    self.operand(on_false)?,
                );
                if t.ty != ty || e.ty != ty || ty.is_void() {
                    return Err(shape("select"));
                }
                let n = ty.lanes();
                match c.ty {
                    Type::Scalar(_) => full(Op::Select {
                        c: c.off,
                        t: t.off,
                        e: e.off,
                        n,
                    }),
                    Type::Vector(_, cn) if cn == n => Ok((
                        Op::SelectLanes {
                            c: c.off,
                            t: t.off,
                            e: e.off,
                            n,
                        },
                        Active::Cond { off: c.off, n },
                    )),
                    _ => Err(fault("select arms narrower than the condition vector")),
                }
            }
            InstKind::Cast { op, val } => {
                let v = self.operand(val)?;
                let to = ty.elem().ok_or_else(|| fault("cast to void type"))?;
                if v.ty.lanes() != ty.lanes() {
                    return Err(shape("cast"));
                }
                full(Op::Cast {
                    op: *op,
                    from: elem_of(v.ty)?,
                    to,
                    n: ty.lanes(),
                    v: v.off,
                })
            }
            InstKind::Alloca { elem, count } => {
                let c = self.operand(count)?;
                match c.ty {
                    Type::Scalar(count_ty) if ty == Type::PTR => full(Op::Alloca {
                        size: elem.size_bytes(),
                        count: c.off,
                        count_ty,
                    }),
                    _ => Err(shape("alloca")),
                }
            }
            InstKind::Load { ptr } => {
                let p = self.operand(ptr)?;
                let Type::Scalar(_) = p.ty else {
                    return Err(shape("load"));
                };
                let t = ty.elem().ok_or_else(|| fault("load of void type"))?;
                full(Op::Load {
                    ty: t,
                    n: ty.lanes(),
                    vector: ty.is_vector(),
                    ptr: p.off,
                })
            }
            InstKind::Store { val, ptr } => {
                let (v, p) = (self.operand(val)?, self.operand(ptr)?);
                if !p.ty.is_scalar() {
                    return Err(shape("store"));
                }
                full(Op::Store {
                    ty: elem_of(v.ty)?,
                    n: v.ty.lanes(),
                    val: v.off,
                    ptr: p.off,
                })
            }
            InstKind::Gep { elem, base, index } => {
                let (b, i) = (self.operand(base)?, self.operand(index)?);
                match (b.ty, i.ty) {
                    (Type::Scalar(_), Type::Scalar(index_ty)) if ty == Type::PTR => full(Op::Gep {
                        size: elem.size_bytes(),
                        base: b.off,
                        index: i.off,
                        index_ty,
                    }),
                    _ => Err(shape("getelementptr")),
                }
            }
            InstKind::ExtractElement { vec, idx } => {
                let (v, i) = (self.operand(vec)?, self.operand(idx)?);
                if v.ty.lanes() == 0 {
                    return Err(fault("extractelement from empty vector"));
                }
                if !i.ty.is_scalar() || v.ty.elem().map(Type::Scalar) != Some(ty) {
                    return Err(shape("extractelement"));
                }
                full(Op::Extract {
                    n: v.ty.lanes(),
                    vec: v.off,
                    idx: i.off,
                })
            }
            InstKind::InsertElement { vec, elt, idx } => {
                let (v, e, i) = (self.operand(vec)?, self.operand(elt)?, self.operand(idx)?);
                if v.ty.lanes() == 0 {
                    return Err(fault("insertelement into empty vector"));
                }
                if !i.ty.is_scalar() || v.ty != ty || v.ty.elem().map(Type::Scalar) != Some(e.ty) {
                    return Err(shape("insertelement"));
                }
                full(Op::Insert {
                    n: v.ty.lanes(),
                    vec: v.off,
                    elt: e.off,
                    idx: i.off,
                })
            }
            InstKind::ShuffleVector { a, b, mask } => {
                let (va, vb) = (self.operand(a)?, self.operand(b)?);
                let (na, nb) = (va.ty.lanes(), vb.ty.lanes());
                if na == 0 {
                    return Err(fault("shufflevector of empty vector"));
                }
                let elem = elem_of(va.ty)?;
                if va.ty != vb.ty || ty != Type::Vector(elem, mask.len() as u32) {
                    return Err(shape("shufflevector"));
                }
                let zero = self.operand(&Operand::Const(Constant::zero(Type::Scalar(elem))))?;
                let start = self.out.pool.len() as u32;
                for &mi in mask {
                    let off = if mi < 0 {
                        zero.off
                    } else if (mi as u32) < na {
                        va.off + mi as u32
                    } else if (mi as u32) < na + nb {
                        vb.off + mi as u32 - na
                    } else {
                        return Err(fault(format!(
                            "shufflevector mask index {mi} out of range for {na} + {nb} lanes"
                        )));
                    };
                    self.out.pool.push(Slot {
                        off,
                        ty: Type::Scalar(elem),
                    });
                }
                full(Op::Shuffle {
                    srcs: Span {
                        start,
                        len: mask.len() as u32,
                    },
                })
            }
            InstKind::Phi { incomings } => {
                let start = self.out.arms.len() as u32;
                for (b, op) in incomings {
                    let s = self.operand(op)?;
                    if s.ty != ty {
                        return Err(shape("phi"));
                    }
                    self.out.arms.push((b.0, s.off));
                }
                full(Op::Phi {
                    arms: Span {
                        start,
                        len: incomings.len() as u32,
                    },
                    n: ty.lanes(),
                })
            }
            InstKind::Call { callee, args } => self.call(callee, args, ty, inst.result.is_some()),
        }
    }

    fn call(
        &mut self,
        callee: &str,
        args: &[Operand],
        ty: Type,
        has_result: bool,
    ) -> Result<(Op, Active), Trap> {
        let slots = args
            .iter()
            .map(|a| self.operand(a))
            .collect::<Result<Vec<_>, _>>()?;
        let intrinsic = intrinsics::parse(callee);
        // Occupancy reads the mask operand of any masked-intrinsic name,
        // whatever the call resolves to.
        let active = match intrinsic {
            Some(Intrinsic::MaskLoad { lanes, .. } | Intrinsic::MaskStore { lanes, .. }) => {
                match slots.get(1).map(|s| (s, s.ty.elem())) {
                    Some((s, Some(elem))) => Active::Mask {
                        off: s.off,
                        n: lanes.min(s.ty.lanes()),
                        elem,
                    },
                    _ => Active::Full,
                }
            }
            _ => Active::Full,
        };
        if let Some(&func) = self.funcs.get(callee) {
            let def = &self.m.functions[func as usize];
            let params_ok = def.params.len() == slots.len()
                && def
                    .params
                    .iter()
                    .zip(&slots)
                    .all(|((_, pt), s)| *pt == s.ty);
            if !params_ok {
                return Err(fault(format!(
                    "call to @{callee} does not match its signature"
                )));
            }
            if has_result && def.ret != ty {
                return Err(fault(format!(
                    "call to @{callee} does not match its return type"
                )));
            }
            let args = self.pool(&slots);
            return Ok((
                Op::Call {
                    func,
                    args,
                    result: has_result,
                },
                active,
            ));
        }
        if let Some(intr) = intrinsic {
            let params = intr.param_types();
            if slots.len() < params.len() {
                return Err(fault(format!(
                    "intrinsic expects {} arguments, got {}",
                    params.len(),
                    slots.len()
                )));
            }
            if (0..params.len()).any(|i| !intr.accepts_arg(i, slots[i].ty)) {
                return Err(fault(format!(
                    "intrinsic @{callee} arguments do not match its signature"
                )));
            }
            if intr.result_type() != ty {
                return Err(fault(format!("intrinsic @{callee} does not return {ty}")));
            }
            let s = |i: usize| slots[i].off;
            let op = match intr {
                Intrinsic::MaskLoad { lanes, elem } => Op::MaskLoad {
                    lanes,
                    elem,
                    ptr: s(0),
                    mask: s(1),
                },
                Intrinsic::MaskStore { lanes, elem } => Op::MaskStore {
                    lanes,
                    elem,
                    ptr: s(0),
                    mask: s(1),
                    val: s(2),
                },
                Intrinsic::Math { op, ty } => Op::Math {
                    op,
                    elem: ty
                        .elem()
                        .ok_or_else(|| fault("math intrinsic with void type"))?,
                    n: ty.lanes(),
                    a: s(0),
                    b: if op.arity() == 2 { s(1) } else { s(0) },
                },
                Intrinsic::Movmsk { lanes } => Op::Movmsk { lanes, v: s(0) },
                Intrinsic::MaskAny { lanes } => Op::MaskAny { lanes, v: s(0) },
                Intrinsic::MaskAll { lanes } => Op::MaskAll { lanes, v: s(0) },
            };
            return Ok((op, active));
        }
        if callee.starts_with("llvm.") {
            let unknown = Trap::UnknownFunction(callee.to_string());
            return Ok((Op::Trap(Box::new(unknown)), active));
        }
        let name = match self.out.names.iter().position(|n| n == callee) {
            Some(i) => i as u32,
            None => {
                self.out.names.push(callee.to_string());
                (self.out.names.len() - 1) as u32
            }
        };
        let args = self.pool(&slots);
        Ok((
            Op::Host {
                name,
                args,
                ret: ty,
            },
            active,
        ))
    }

    fn pool(&mut self, slots: &[Slot]) -> Span {
        let start = self.out.pool.len() as u32;
        self.out.pool.extend_from_slice(slots);
        Span {
            start,
            len: slots.len() as u32,
        }
    }

    fn term(&mut self, t: &Terminator) -> Term {
        let nblocks = self.f.blocks.len();
        let target = |b: vir::BlockId| (b.index() < nblocks).then_some(b.0);
        let decoded = match t {
            Terminator::Br(b) => target(*b)
                .map(Term::Br)
                .ok_or_else(|| fault("branch to nonexistent block")),
            Terminator::CondBr {
                cond,
                on_true,
                on_false,
            } => {
                self.operand(cond)
                    .and_then(|c| match (c.ty, target(*on_true), target(*on_false)) {
                        (Type::Scalar(_), Some(on_true), Some(on_false)) => Ok(Term::CondBr {
                            cond: c.off,
                            on_true,
                            on_false,
                        }),
                        _ => Err(fault("malformed conditional branch")),
                    })
            }
            Terminator::Ret(Some(op)) => match self.operand(op) {
                Ok(s) if s.ty == self.f.ret => Ok(Term::Ret(Some(s))),
                Ok(_) => Err(fault("ret type does not match the function")),
                Err(t) => Err(t),
            },
            Terminator::Ret(None) => Ok(Term::Ret(None)),
            Terminator::Unreachable => Ok(Term::Unreachable),
        };
        decoded.unwrap_or_else(|t| Term::Trap(Box::new(t)))
    }
}
