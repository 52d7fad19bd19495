//! Constant values.
//!
//! All scalar payloads are stored as raw little-endian bit patterns in a
//! `u64`. A uniform bit-pattern representation keeps the fault injector's
//! single-bit-flip primitive trivially type-agnostic (paper §II-B).

use crate::types::{ScalarTy, Type};

/// A compile-time constant of any VIR type.
#[derive(Debug, Clone, PartialEq)]
pub struct Constant {
    pub ty: Type,
    pub data: ConstData,
}

/// Constant payloads. Scalars are raw bit patterns of the declared type.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstData {
    /// A single scalar bit pattern (low `ty.bits()` bits are significant).
    Scalar(u64),
    /// One bit pattern per lane.
    Vector(Vec<u64>),
    /// LLVM `zeroinitializer` / integer `0` / float `0.0` / `null`.
    Zero,
    /// LLVM `undef`; VIR evaluates it deterministically to all-zero bits.
    Undef,
}

impl Constant {
    pub fn new(ty: Type, data: ConstData) -> Constant {
        Constant { ty, data }
    }

    /// `i1` constant.
    pub fn bool(v: bool) -> Constant {
        Constant::new(Type::I1, ConstData::Scalar(v as u64))
    }

    pub fn i8(v: i8) -> Constant {
        Constant::new(Type::I8, ConstData::Scalar(v as u8 as u64))
    }

    pub fn i16(v: i16) -> Constant {
        Constant::new(Type::I16, ConstData::Scalar(v as u16 as u64))
    }

    pub fn i32(v: i32) -> Constant {
        Constant::new(Type::I32, ConstData::Scalar(v as u32 as u64))
    }

    pub fn i64(v: i64) -> Constant {
        Constant::new(Type::I64, ConstData::Scalar(v as u64))
    }

    pub fn f32(v: f32) -> Constant {
        Constant::new(Type::F32, ConstData::Scalar(v.to_bits() as u64))
    }

    pub fn f64(v: f64) -> Constant {
        Constant::new(Type::F64, ConstData::Scalar(v.to_bits()))
    }

    /// A raw pointer constant (used mainly in tests; programs receive
    /// pointers as parameters).
    pub fn ptr(addr: u64) -> Constant {
        Constant::new(Type::PTR, ConstData::Scalar(addr))
    }

    /// `zeroinitializer` of an arbitrary type.
    pub fn zero(ty: Type) -> Constant {
        Constant::new(ty, ConstData::Zero)
    }

    /// `undef` of an arbitrary type.
    pub fn undef(ty: Type) -> Constant {
        Constant::new(ty, ConstData::Undef)
    }

    /// Splat a scalar bit pattern across all lanes of a vector type.
    pub fn splat(elem: ScalarTy, lanes: u32, bits: u64) -> Constant {
        Constant::new(
            Type::vec(elem, lanes),
            ConstData::Vector(vec![bits & elem.bit_mask(); lanes as usize]),
        )
    }

    /// Splat an `f32` value.
    pub fn splat_f32(lanes: u32, v: f32) -> Constant {
        Constant::splat(ScalarTy::F32, lanes, v.to_bits() as u64)
    }

    /// Splat an `i32` value.
    pub fn splat_i32(lanes: u32, v: i32) -> Constant {
        Constant::splat(ScalarTy::I32, lanes, v as u32 as u64)
    }

    /// Vector constant from explicit `i32` lane values (e.g. the lane-index
    /// vector `<0, 1, 2, ..., Vl-1>` that SPMD code generation emits).
    pub fn vec_i32(vals: &[i32]) -> Constant {
        Constant::new(
            Type::vec(ScalarTy::I32, vals.len() as u32),
            ConstData::Vector(vals.iter().map(|&v| v as u32 as u64).collect()),
        )
    }

    /// The lane-index constant `<0, 1, ..., lanes-1>` of `i32` lanes.
    pub fn lane_ids(lanes: u32) -> Constant {
        Constant::vec_i32(&(0..lanes as i32).collect::<Vec<_>>())
    }

    /// Materialize the per-lane bit patterns (length 1 for scalars).
    /// `Undef` and `Zero` become all-zero bits.
    pub fn lane_bits(&self) -> Vec<u64> {
        let lanes = self.ty.lanes().max(1) as usize;
        match &self.data {
            ConstData::Scalar(b) => vec![*b],
            ConstData::Vector(v) => v.clone(),
            ConstData::Zero | ConstData::Undef => vec![0; lanes],
        }
    }

    /// Scalar payload, if this is a scalar constant.
    pub fn scalar_bits(&self) -> Option<u64> {
        match (&self.data, self.ty) {
            (ConstData::Scalar(b), _) => Some(*b),
            (ConstData::Zero | ConstData::Undef, Type::Scalar(_)) => Some(0),
            _ => None,
        }
    }

    /// Interpret a scalar constant as a signed integer, if it is one.
    pub fn as_i64(&self) -> Option<i64> {
        match self.ty {
            Type::Scalar(s) if s.is_int() => self.scalar_bits().map(|b| sext(b, s.bits())),
            _ => None,
        }
    }
}

/// Sign-extend the low `bits` bits of `v` to 64 bits.
pub fn sext(v: u64, bits: u32) -> i64 {
    if bits >= 64 {
        return v as i64;
    }
    let shift = 64 - bits;
    ((v << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constants_store_bit_patterns() {
        assert_eq!(Constant::i32(-1).scalar_bits(), Some(0xffff_ffff));
        assert_eq!(Constant::f32(1.0).scalar_bits(), Some(0x3f80_0000));
        assert_eq!(Constant::f64(-2.0).scalar_bits(), Some((-2.0f64).to_bits()));
        assert_eq!(Constant::bool(true).scalar_bits(), Some(1));
    }

    #[test]
    fn splat_replicates_lanes() {
        let c = Constant::splat_f32(8, 3.5);
        assert_eq!(c.ty, Type::vec(ScalarTy::F32, 8));
        let lanes = c.lane_bits();
        assert_eq!(lanes.len(), 8);
        assert!(lanes.iter().all(|&b| b == 3.5f32.to_bits() as u64));
    }

    #[test]
    fn lane_ids_are_sequential() {
        let c = Constant::lane_ids(4);
        assert_eq!(c.lane_bits(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_and_undef_materialize_as_zero_bits() {
        let z = Constant::zero(Type::vec(ScalarTy::I32, 4));
        assert_eq!(z.lane_bits(), vec![0; 4]);
        let u = Constant::undef(Type::F32);
        assert_eq!(u.lane_bits(), vec![0]);
        assert_eq!(u.scalar_bits(), Some(0));
    }

    #[test]
    fn sext_works() {
        assert_eq!(sext(0xff, 8), -1);
        assert_eq!(sext(0x7f, 8), 127);
        assert_eq!(sext(1, 1), -1);
        assert_eq!(sext(0xffff_ffff, 32), -1);
        assert_eq!(sext(5, 64), 5);
    }

    #[test]
    fn as_i64_only_for_ints() {
        assert_eq!(Constant::i32(-7).as_i64(), Some(-7));
        assert_eq!(Constant::i64(1 << 40).as_i64(), Some(1 << 40));
        assert_eq!(Constant::f32(1.0).as_i64(), None);
        assert_eq!(Constant::splat_i32(4, 1).as_i64(), None);
    }
}
