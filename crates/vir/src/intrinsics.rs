//! The intrinsic registry.
//!
//! VULFI "maintains an inbuilt list of x86 intrinsics, which classifies
//! whether any given intrinsic performs a masked vector operation" (paper
//! §II-D). This module is that list: it maps intrinsic names to structured
//! descriptors, including which argument carries the execution mask.
//!
//! Name families:
//! - AVX masked f32 ops, exactly as in paper Fig. 5:
//!   `llvm.x86.avx.maskload.ps.256`, `llvm.x86.avx.maskstore.ps.256`
//!   (8 × f32, mask = `<8 x float>` with the sign bit selecting the lane).
//! - AVX2 masked i32 ops: `llvm.x86.avx2.maskload.d.256`,
//!   `llvm.x86.avx2.maskstore.d.256` (8 × i32, sign-bit mask).
//! - SSE4 pseudo-intrinsics `llvm.x86.sse41.maskload.ps` / `.maskstore.ps`
//!   / `.maskload.d` / `.maskstore.d` (4 lanes). Real SSE4 has no masked
//!   load/store; ISPC emulates them with blends. We register dedicated
//!   pseudo-intrinsics so the SSE code path stays structurally identical to
//!   the AVX one, which is what the paper's AVX-vs-SSE comparison needs.
//! - Generic math (`llvm.sqrt.f32`, `llvm.sqrt.v8f32`, `llvm.exp.*`, ...),
//!   elementwise over vectors.
//! - Mask reductions: `llvm.x86.avx.movmsk.ps.256`, `llvm.x86.sse.movmsk.ps`
//!   (sign-bit bitmask of a float vector), and the SPMD helper
//!   `llvm.vulfi.mask.any.vNi1` used to drive varying loops.

use crate::types::{ScalarTy, Type};

/// Elementwise math operations shared by scalar and vector intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathOp {
    Sqrt,
    Exp,
    Log,
    Sin,
    Cos,
    Fabs,
    Floor,
    Ceil,
    /// Two-argument `pow`.
    Pow,
    /// Two-argument IEEE minNum.
    MinNum,
    /// Two-argument IEEE maxNum.
    MaxNum,
}

impl MathOp {
    pub fn name(self) -> &'static str {
        match self {
            MathOp::Sqrt => "sqrt",
            MathOp::Exp => "exp",
            MathOp::Log => "log",
            MathOp::Sin => "sin",
            MathOp::Cos => "cos",
            MathOp::Fabs => "fabs",
            MathOp::Floor => "floor",
            MathOp::Ceil => "ceil",
            MathOp::Pow => "pow",
            MathOp::MinNum => "minnum",
            MathOp::MaxNum => "maxnum",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            MathOp::Pow | MathOp::MinNum | MathOp::MaxNum => 2,
            _ => 1,
        }
    }

    fn from_name(s: &str) -> Option<MathOp> {
        Some(match s {
            "sqrt" => MathOp::Sqrt,
            "exp" => MathOp::Exp,
            "log" => MathOp::Log,
            "sin" => MathOp::Sin,
            "cos" => MathOp::Cos,
            "fabs" => MathOp::Fabs,
            "floor" => MathOp::Floor,
            "ceil" => MathOp::Ceil,
            "pow" => MathOp::Pow,
            "minnum" => MathOp::MinNum,
            "maxnum" => MathOp::MaxNum,
            _ => return None,
        })
    }
}

/// A recognized intrinsic with its structural parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Intrinsic {
    /// Masked vector load: `(ptr, mask) -> <lanes x elem>`. Lanes whose mask
    /// is inactive produce 0.0/0 and *do not touch memory*.
    MaskLoad { lanes: u32, elem: ScalarTy },
    /// Masked vector store: `(ptr, mask, value) -> void`. Inactive lanes do
    /// not touch memory.
    MaskStore { lanes: u32, elem: ScalarTy },
    /// Elementwise math, scalar or vector according to `ty`.
    Math { op: MathOp, ty: Type },
    /// Sign-bit bitmask of a float vector: `(<lanes x f32>) -> i32`.
    Movmsk { lanes: u32 },
    /// OR-reduction of an i1 vector: `(<lanes x i1>) -> i1`. ISPC's
    /// `any(mask)` used for varying loop back-edges.
    MaskAny { lanes: u32 },
    /// AND-reduction of an i1 vector: `(<lanes x i1>) -> i1`.
    MaskAll { lanes: u32 },
}

impl Intrinsic {
    /// Result type of the intrinsic.
    pub fn result_type(&self) -> Type {
        match *self {
            Intrinsic::MaskLoad { lanes, elem } => Type::vec(elem, lanes),
            Intrinsic::MaskStore { .. } => Type::Void,
            Intrinsic::Math { ty, .. } => ty,
            Intrinsic::Movmsk { .. } => Type::I32,
            Intrinsic::MaskAny { .. } | Intrinsic::MaskAll { .. } => Type::I1,
        }
    }

    /// Parameter types of the intrinsic, in call order. Masks have the
    /// shape of the data they guard (sign bit selects the lane).
    pub fn param_types(&self) -> Vec<Type> {
        match *self {
            Intrinsic::MaskLoad { lanes, elem } => vec![Type::PTR, Type::vec(elem, lanes)],
            Intrinsic::MaskStore { lanes, elem } => {
                vec![Type::PTR, Type::vec(elem, lanes), Type::vec(elem, lanes)]
            }
            Intrinsic::Math { op, ty } => vec![ty; op.arity()],
            Intrinsic::Movmsk { lanes } => vec![Type::vec(ScalarTy::F32, lanes)],
            Intrinsic::MaskAny { lanes } | Intrinsic::MaskAll { lanes } => {
                vec![Type::vec(ScalarTy::I1, lanes)]
            }
        }
    }

    /// Whether a value of type `ty` may be argument `i`: its parameter
    /// type or, for a mask, the integer vector of the same shape (LLVM
    /// declares the AVX masks `<8 x i32>`). Only each mask lane's sign
    /// bit is read, and both spellings put it in the same place.
    pub fn accepts_arg(&self, i: usize, ty: Type) -> bool {
        let Some(&pt) = self.param_types().get(i) else {
            return false;
        };
        let bits = |t: Type| t.elem().map(ScalarTy::bits);
        ty == pt
            || (self.mask_arg() == Some(i)
                && ty.is_vector()
                && ty.is_int()
                && ty.lanes() == pt.lanes()
                && bits(ty) == bits(pt))
    }

    /// For masked memory operations: the index of the mask argument.
    /// Mirrors the AVX intrinsic signatures used in paper Fig. 5.
    pub fn mask_arg(&self) -> Option<usize> {
        match self {
            Intrinsic::MaskLoad { .. } => Some(1),
            Intrinsic::MaskStore { .. } => Some(1),
            _ => None,
        }
    }

    /// For `MaskStore`: the index of the stored-value argument.
    pub fn store_value_arg(&self) -> Option<usize> {
        match self {
            Intrinsic::MaskStore { .. } => Some(2),
            _ => None,
        }
    }

    pub fn is_masked_memop(&self) -> bool {
        matches!(
            self,
            Intrinsic::MaskLoad { .. } | Intrinsic::MaskStore { .. }
        )
    }
}

/// The canonical name for a masked load on the given target shape.
pub fn maskload_name(lanes: u32, elem: ScalarTy) -> String {
    match (lanes, elem) {
        (8, ScalarTy::F32) => "llvm.x86.avx.maskload.ps.256".to_string(),
        (8, ScalarTy::I32) => "llvm.x86.avx2.maskload.d.256".to_string(),
        (4, ScalarTy::F32) => "llvm.x86.sse41.maskload.ps".to_string(),
        (4, ScalarTy::I32) => "llvm.x86.sse41.maskload.d".to_string(),
        _ => format!("llvm.vulfi.maskload.v{}{}", lanes, elem.suffix()),
    }
}

/// The canonical name for a masked store on the given target shape.
pub fn maskstore_name(lanes: u32, elem: ScalarTy) -> String {
    match (lanes, elem) {
        (8, ScalarTy::F32) => "llvm.x86.avx.maskstore.ps.256".to_string(),
        (8, ScalarTy::I32) => "llvm.x86.avx2.maskstore.d.256".to_string(),
        (4, ScalarTy::F32) => "llvm.x86.sse41.maskstore.ps".to_string(),
        (4, ScalarTy::I32) => "llvm.x86.sse41.maskstore.d".to_string(),
        _ => format!("llvm.vulfi.maskstore.v{}{}", lanes, elem.suffix()),
    }
}

/// Name of an elementwise math intrinsic for the given type
/// (`llvm.sqrt.f32`, `llvm.exp.v8f32`, ...).
pub fn math_name(op: MathOp, ty: Type) -> String {
    format!("llvm.{}.{}", op.name(), ty.intrinsic_suffix())
}

/// Name of the mask-any reduction for a lane count.
pub fn mask_any_name(lanes: u32) -> String {
    format!("llvm.vulfi.mask.any.v{lanes}i1")
}

/// Name of the movmsk intrinsic for a float-vector lane count.
pub fn movmsk_name(lanes: u32) -> String {
    match lanes {
        8 => "llvm.x86.avx.movmsk.ps.256".to_string(),
        4 => "llvm.x86.sse.movmsk.ps".to_string(),
        _ => format!("llvm.vulfi.movmsk.v{lanes}f32"),
    }
}

/// Parse a type suffix like `f32`, `i32`, `v8f32`, `v4i1`.
fn parse_ty_suffix(s: &str) -> Option<Type> {
    fn scalar(s: &str) -> Option<ScalarTy> {
        Some(match s {
            "i1" => ScalarTy::I1,
            "i8" => ScalarTy::I8,
            "i16" => ScalarTy::I16,
            "i32" => ScalarTy::I32,
            "i64" => ScalarTy::I64,
            "f32" => ScalarTy::F32,
            "f64" => ScalarTy::F64,
            "p0" => ScalarTy::Ptr,
            _ => return None,
        })
    }
    if let Some(rest) = s.strip_prefix('v') {
        let split = rest.find(|c: char| !c.is_ascii_digit())?;
        let lanes: u32 = rest[..split].parse().ok()?;
        if lanes == 0 {
            return None;
        }
        return Some(Type::vec(scalar(&rest[split..])?, lanes));
    }
    scalar(s).map(Type::Scalar)
}

/// Recognize an intrinsic by name. Returns `None` for non-`llvm.` names and
/// unknown intrinsics (the interpreter traps on calls to the latter).
pub fn parse(name: &str) -> Option<Intrinsic> {
    let body = name.strip_prefix("llvm.")?;

    // Exact x86 names first (the paper's Fig. 5 spellings).
    match body {
        "x86.avx.maskload.ps.256" => {
            return Some(Intrinsic::MaskLoad {
                lanes: 8,
                elem: ScalarTy::F32,
            })
        }
        "x86.avx.maskstore.ps.256" => {
            return Some(Intrinsic::MaskStore {
                lanes: 8,
                elem: ScalarTy::F32,
            })
        }
        "x86.avx2.maskload.d.256" => {
            return Some(Intrinsic::MaskLoad {
                lanes: 8,
                elem: ScalarTy::I32,
            })
        }
        "x86.avx2.maskstore.d.256" => {
            return Some(Intrinsic::MaskStore {
                lanes: 8,
                elem: ScalarTy::I32,
            })
        }
        "x86.sse41.maskload.ps" => {
            return Some(Intrinsic::MaskLoad {
                lanes: 4,
                elem: ScalarTy::F32,
            })
        }
        "x86.sse41.maskstore.ps" => {
            return Some(Intrinsic::MaskStore {
                lanes: 4,
                elem: ScalarTy::F32,
            })
        }
        "x86.sse41.maskload.d" => {
            return Some(Intrinsic::MaskLoad {
                lanes: 4,
                elem: ScalarTy::I32,
            })
        }
        "x86.sse41.maskstore.d" => {
            return Some(Intrinsic::MaskStore {
                lanes: 4,
                elem: ScalarTy::I32,
            })
        }
        "x86.avx.movmsk.ps.256" => return Some(Intrinsic::Movmsk { lanes: 8 }),
        "x86.sse.movmsk.ps" => return Some(Intrinsic::Movmsk { lanes: 4 }),
        _ => {}
    }

    // Generic vulfi.* fallbacks: maskload/maskstore/mask.any/movmsk.
    if let Some(rest) = body.strip_prefix("vulfi.") {
        if let Some(sfx) = rest.strip_prefix("maskload.") {
            if let Some(Type::Vector(elem, lanes)) = parse_ty_suffix(sfx) {
                return Some(Intrinsic::MaskLoad { lanes, elem });
            }
            return None;
        }
        if let Some(sfx) = rest.strip_prefix("maskstore.") {
            if let Some(Type::Vector(elem, lanes)) = parse_ty_suffix(sfx) {
                return Some(Intrinsic::MaskStore { lanes, elem });
            }
            return None;
        }
        if let Some(sfx) = rest.strip_prefix("mask.any.") {
            if let Some(Type::Vector(ScalarTy::I1, lanes)) = parse_ty_suffix(sfx) {
                return Some(Intrinsic::MaskAny { lanes });
            }
            return None;
        }
        if let Some(sfx) = rest.strip_prefix("mask.all.") {
            if let Some(Type::Vector(ScalarTy::I1, lanes)) = parse_ty_suffix(sfx) {
                return Some(Intrinsic::MaskAll { lanes });
            }
            return None;
        }
        if let Some(sfx) = rest.strip_prefix("movmsk.") {
            if let Some(Type::Vector(ScalarTy::F32, lanes)) = parse_ty_suffix(sfx) {
                return Some(Intrinsic::Movmsk { lanes });
            }
            return None;
        }
        return None;
    }

    // Math intrinsics: llvm.<op>.<tysuffix>.
    let (op_name, ty_sfx) = body.rsplit_once('.')?;
    let op = MathOp::from_name(op_name)?;
    let ty = parse_ty_suffix(ty_sfx)?;
    if !ty.is_float() {
        return None;
    }
    Some(Intrinsic::Math { op, ty })
}

/// True when `name` denotes a *masked* vector operation — the property the
/// instrumentation pass consults to decide whether a lane is a valid fault
/// site (paper §II-D).
pub fn is_masked_op(name: &str) -> bool {
    parse(name).is_some_and(|i| i.is_masked_memop())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig5_names_parse() {
        assert_eq!(
            parse("llvm.x86.avx.maskload.ps.256"),
            Some(Intrinsic::MaskLoad {
                lanes: 8,
                elem: ScalarTy::F32
            })
        );
        assert_eq!(
            parse("llvm.x86.avx.maskstore.ps.256"),
            Some(Intrinsic::MaskStore {
                lanes: 8,
                elem: ScalarTy::F32
            })
        );
    }

    #[test]
    fn sse_pseudo_names_parse() {
        assert_eq!(
            parse("llvm.x86.sse41.maskload.ps"),
            Some(Intrinsic::MaskLoad {
                lanes: 4,
                elem: ScalarTy::F32
            })
        );
        assert_eq!(
            parse("llvm.x86.sse41.maskstore.d"),
            Some(Intrinsic::MaskStore {
                lanes: 4,
                elem: ScalarTy::I32
            })
        );
    }

    #[test]
    fn canonical_names_roundtrip() {
        for (lanes, elem) in [
            (8, ScalarTy::F32),
            (8, ScalarTy::I32),
            (4, ScalarTy::F32),
            (4, ScalarTy::I32),
            (16, ScalarTy::F32),
        ] {
            let ld = maskload_name(lanes, elem);
            assert_eq!(
                parse(&ld),
                Some(Intrinsic::MaskLoad { lanes, elem }),
                "{ld}"
            );
            let st = maskstore_name(lanes, elem);
            assert_eq!(
                parse(&st),
                Some(Intrinsic::MaskStore { lanes, elem }),
                "{st}"
            );
        }
    }

    #[test]
    fn math_intrinsics_parse() {
        assert_eq!(
            parse("llvm.sqrt.f32"),
            Some(Intrinsic::Math {
                op: MathOp::Sqrt,
                ty: Type::F32
            })
        );
        assert_eq!(
            parse("llvm.exp.v8f32"),
            Some(Intrinsic::Math {
                op: MathOp::Exp,
                ty: Type::vec(ScalarTy::F32, 8)
            })
        );
        assert_eq!(
            parse(&math_name(MathOp::Pow, Type::vec(ScalarTy::F32, 4))),
            Some(Intrinsic::Math {
                op: MathOp::Pow,
                ty: Type::vec(ScalarTy::F32, 4)
            })
        );
        // Integer math is not a thing.
        assert_eq!(parse("llvm.sqrt.i32"), None);
    }

    #[test]
    fn reductions_parse() {
        assert_eq!(
            parse(&mask_any_name(8)),
            Some(Intrinsic::MaskAny { lanes: 8 })
        );
        assert_eq!(parse(&movmsk_name(8)), Some(Intrinsic::Movmsk { lanes: 8 }));
        assert_eq!(parse(&movmsk_name(4)), Some(Intrinsic::Movmsk { lanes: 4 }));
    }

    #[test]
    fn unknown_names_rejected() {
        assert_eq!(parse("not.an.intrinsic"), None);
        assert_eq!(parse("llvm.bogus.f32"), None);
        assert_eq!(parse("llvm.vulfi.maskload.f32"), None); // not a vector
        assert_eq!(parse("llvm.vulfi.mask.any.v8f32"), None); // not i1
    }

    #[test]
    fn masked_op_classification() {
        assert!(is_masked_op("llvm.x86.avx.maskload.ps.256"));
        assert!(is_masked_op("llvm.x86.avx.maskstore.ps.256"));
        assert!(!is_masked_op("llvm.sqrt.v8f32"));
        assert!(!is_masked_op("vulfi.inject.f32"));
    }

    #[test]
    fn mask_arg_positions_match_avx_signatures() {
        let ld = parse("llvm.x86.avx.maskload.ps.256").unwrap();
        assert_eq!(ld.mask_arg(), Some(1));
        let st = parse("llvm.x86.avx.maskstore.ps.256").unwrap();
        assert_eq!(st.mask_arg(), Some(1));
        assert_eq!(st.store_value_arg(), Some(2));
        assert_eq!(st.result_type(), Type::Void);
        assert_eq!(ld.result_type(), Type::vec(ScalarTy::F32, 8));
    }
}
