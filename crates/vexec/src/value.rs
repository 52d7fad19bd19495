//! Runtime values: raw bit patterns tagged with their scalar type.
//!
//! Keeping every scalar as a `u64` bit pattern makes the injector's
//! single-bit-flip primitive (paper §II-B) uniform across integer, float,
//! and pointer registers.

use vir::{ConstData, Constant, ScalarTy, Type};

/// One scalar register value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scalar {
    pub ty: ScalarTy,
    /// Raw bits; only the low `ty.bits()` bits are significant.
    pub bits: u64,
}

impl Scalar {
    pub fn new(ty: ScalarTy, bits: u64) -> Scalar {
        Scalar {
            ty,
            bits: bits & ty.bit_mask(),
        }
    }

    pub fn i1(v: bool) -> Scalar {
        Scalar::new(ScalarTy::I1, v as u64)
    }

    pub fn i8(v: i8) -> Scalar {
        Scalar::new(ScalarTy::I8, v as u8 as u64)
    }

    pub fn i16(v: i16) -> Scalar {
        Scalar::new(ScalarTy::I16, v as u16 as u64)
    }

    pub fn i32(v: i32) -> Scalar {
        Scalar::new(ScalarTy::I32, v as u32 as u64)
    }

    pub fn i64(v: i64) -> Scalar {
        Scalar::new(ScalarTy::I64, v as u64)
    }

    pub fn f32(v: f32) -> Scalar {
        Scalar::new(ScalarTy::F32, v.to_bits() as u64)
    }

    pub fn f64(v: f64) -> Scalar {
        Scalar::new(ScalarTy::F64, v.to_bits())
    }

    pub fn ptr(addr: u64) -> Scalar {
        Scalar::new(ScalarTy::Ptr, addr)
    }

    /// Interpret as a signed integer (sign-extended).
    pub fn as_i64(self) -> i64 {
        vir::constant::sext(self.bits, self.ty.bits())
    }

    /// Interpret as an unsigned integer.
    pub fn as_u64(self) -> u64 {
        self.bits
    }

    pub fn as_f32(self) -> f32 {
        f32::from_bits(self.bits as u32)
    }

    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.bits)
    }

    /// Generic float view: `f32` widened, `f64` direct.
    #[inline]
    pub fn as_float(self) -> f64 {
        match self.ty {
            ScalarTy::F32 => self.as_f32() as f64,
            ScalarTy::F64 => self.as_f64(),
            _ => panic!("as_float on {:?}", self.ty),
        }
    }

    /// Build from a generic float, narrowing for `f32`.
    #[inline]
    pub fn from_float(ty: ScalarTy, v: f64) -> Scalar {
        match ty {
            ScalarTy::F32 => Scalar::f32(v as f32),
            ScalarTy::F64 => Scalar::f64(v),
            _ => panic!("from_float for {ty:?}"),
        }
    }

    pub fn is_true(self) -> bool {
        self.bits & 1 == 1
    }

    /// Lane-active test per the AVX masked-op convention: the element's
    /// most-significant bit selects the lane (sign bit for f32/i32 masks;
    /// the single bit for i1).
    pub fn mask_active(self) -> bool {
        (self.bits >> (self.ty.bits() - 1)) & 1 == 1
    }

    /// Flip one bit (0-based, must be < `ty.bits()`): the fault-injection
    /// primitive.
    pub fn flip_bit(self, bit: u32) -> Scalar {
        debug_assert!(bit < self.ty.bits());
        Scalar::new(self.ty, self.bits ^ (1u64 << bit))
    }
}

/// A register value: one scalar or a packed vector of scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum RtVal {
    Scalar(Scalar),
    /// Element type plus per-lane bit patterns.
    Vector(ScalarTy, Vec<u64>),
}

impl RtVal {
    pub fn ty(&self) -> Type {
        match self {
            RtVal::Scalar(s) => Type::Scalar(s.ty),
            RtVal::Vector(e, v) => Type::vec(*e, v.len() as u32),
        }
    }

    pub fn scalar(&self) -> Scalar {
        match self {
            RtVal::Scalar(s) => *s,
            RtVal::Vector(..) => panic!("scalar() on vector value"),
        }
    }

    /// Per-lane scalars (a scalar yields one lane).
    pub fn lanes(&self) -> Vec<Scalar> {
        match self {
            RtVal::Scalar(s) => vec![*s],
            RtVal::Vector(e, v) => v.iter().map(|&b| Scalar::new(*e, b)).collect(),
        }
    }

    pub fn lane(&self, i: usize) -> Scalar {
        match self {
            RtVal::Scalar(s) => {
                debug_assert_eq!(i, 0);
                *s
            }
            RtVal::Vector(e, v) => Scalar::new(*e, v[i]),
        }
    }

    pub fn num_lanes(&self) -> usize {
        match self {
            RtVal::Scalar(_) => 1,
            RtVal::Vector(_, v) => v.len(),
        }
    }

    /// Replace lane `i` (panics for scalars unless `i == 0`).
    pub fn with_lane(&self, i: usize, s: Scalar) -> RtVal {
        match self {
            RtVal::Scalar(_) => {
                debug_assert_eq!(i, 0);
                RtVal::Scalar(s)
            }
            RtVal::Vector(e, v) => {
                debug_assert_eq!(*e, s.ty);
                let mut v = v.clone();
                v[i] = s.bits;
                RtVal::Vector(*e, v)
            }
        }
    }

    /// Build a vector from lane scalars.
    pub fn from_lanes(ty: ScalarTy, lanes: impl IntoIterator<Item = Scalar>) -> RtVal {
        RtVal::Vector(ty, lanes.into_iter().map(|s| s.bits).collect())
    }

    /// Materialize a constant.
    pub fn from_constant(c: &Constant) -> RtVal {
        match c.ty {
            Type::Scalar(s) => {
                let bits = match &c.data {
                    ConstData::Scalar(b) => *b,
                    ConstData::Zero | ConstData::Undef => 0,
                    ConstData::Vector(_) => panic!("vector payload on scalar constant"),
                };
                RtVal::Scalar(Scalar::new(s, bits))
            }
            Type::Vector(s, n) => {
                let lanes = match &c.data {
                    ConstData::Vector(v) => v.clone(),
                    ConstData::Zero | ConstData::Undef => vec![0; n as usize],
                    ConstData::Scalar(b) => vec![*b; n as usize],
                };
                debug_assert_eq!(lanes.len(), n as usize);
                RtVal::Vector(s, lanes.iter().map(|&b| b & s.bit_mask()).collect())
            }
            Type::Void => panic!("void constant"),
        }
    }

    /// Zero value of a type.
    pub fn zero(ty: Type) -> RtVal {
        match ty {
            Type::Scalar(s) => RtVal::Scalar(Scalar::new(s, 0)),
            Type::Vector(s, n) => RtVal::Vector(s, vec![0; n as usize]),
            Type::Void => panic!("zero of void"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_views() {
        assert_eq!(Scalar::i32(-3).as_i64(), -3);
        assert_eq!(Scalar::i32(-3).as_u64(), 0xffff_fffd);
        assert_eq!(Scalar::f32(1.5).as_f32(), 1.5);
        assert_eq!(Scalar::f64(-0.25).as_f64(), -0.25);
        assert!(Scalar::i1(true).is_true());
        assert!(!Scalar::i1(false).is_true());
    }

    #[test]
    fn mask_active_uses_sign_bit() {
        assert!(Scalar::f32(-1.0).mask_active()); // sign bit set
        assert!(!Scalar::f32(1.0).mask_active());
        assert!(Scalar::i32(-1).mask_active());
        assert!(!Scalar::i32(0x7fff_ffff).mask_active());
        assert!(Scalar::i1(true).mask_active());
        assert!(!Scalar::i1(false).mask_active());
        // All-ones bit pattern (ISPC's "on" mask) is active.
        assert!(Scalar::new(ScalarTy::F32, 0xffff_ffff).mask_active());
    }

    #[test]
    fn flip_bit_is_involutive_and_masked() {
        let s = Scalar::f32(1.0);
        for bit in 0..32 {
            let flipped = s.flip_bit(bit);
            assert_ne!(flipped, s);
            assert_eq!(flipped.flip_bit(bit), s);
        }
        let b = Scalar::i1(false).flip_bit(0);
        assert!(b.is_true());
    }

    #[test]
    fn vector_lane_ops() {
        let v = RtVal::from_lanes(ScalarTy::I32, (0..4).map(Scalar::i32));
        assert_eq!(v.num_lanes(), 4);
        assert_eq!(v.lane(2).as_i64(), 2);
        let v2 = v.with_lane(2, Scalar::i32(9));
        assert_eq!(v2.lane(2).as_i64(), 9);
        assert_eq!(v.lane(2).as_i64(), 2, "with_lane does not mutate");
        assert_eq!(v.ty(), Type::vec(ScalarTy::I32, 4));
    }

    #[test]
    fn constants_materialize() {
        let c = Constant::splat_f32(8, 2.0);
        let v = RtVal::from_constant(&c);
        assert_eq!(v.num_lanes(), 8);
        assert_eq!(v.lane(7).as_f32(), 2.0);
        let z = RtVal::from_constant(&Constant::zero(Type::vec(ScalarTy::I32, 4)));
        assert_eq!(z, RtVal::zero(Type::vec(ScalarTy::I32, 4)));
        let u = RtVal::from_constant(&Constant::undef(Type::F32));
        assert_eq!(u.scalar().bits, 0);
    }
}
