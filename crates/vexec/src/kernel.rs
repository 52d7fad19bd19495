//! Lane kernels: the elementwise work of `Bin`, `ICmp`, `FCmp` and
//! `Cast` instructions, one function per operation and element type.
//!
//! The decoder picks an instruction's kernel once ([`bin`], [`icmp`],
//! [`fcmp`], [`cast`]), so the interpreter runs an elementwise
//! instruction as one call whose lane loop neither dispatches on the
//! operation nor builds a [`crate::Scalar`]. A kernel computes on every
//! lane exactly what the matching `eval_*` function of [`crate::interp`]
//! computes, which stay the semantics of record: operands are masked to
//! their width, integer operations wrap, `f32` is widened to `f64` and
//! narrowed back, and results are masked to the element width. Pairs on
//! which those functions would panic (a float operation on integer
//! lanes, which the verifier rejects) have no kernel; the decoder turns
//! them into a trap.

use vir::constant::sext;
use vir::{BinOp, CastOp, FCmpPred, ICmpPred, ScalarTy};

/// A lane kernel over the register arena `r`: lane `i` of `dst` from
/// lane `i` of `a` and of `b` (ignored by one-operand kernels), for `n`
/// lanes. Only integer division and remainder fail.
pub(crate) type Kernel = fn(r: &mut [u64], dst: usize, a: usize, b: usize, n: usize) -> Lanes;

/// What a kernel returns: `Err` when a division lane divided by zero.
pub(crate) type Lanes = Result<(), DivByZero>;

/// A division or remainder lane had a zero divisor.
#[derive(Debug)]
pub(crate) struct DivByZero;

/// The low `w` bits.
const fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1 << w) - 1
    }
}

/// How a float element type's lane words read and write as `f64`.
trait Float {
    fn get(w: u64) -> f64;
    fn put(v: f64) -> u64;
}

struct F32;
struct F64;

impl Float for F32 {
    #[inline(always)]
    fn get(w: u64) -> f64 {
        f64::from(f32::from_bits(w as u32))
    }
    #[inline(always)]
    fn put(v: f64) -> u64 {
        u64::from((v as f32).to_bits())
    }
}

impl Float for F64 {
    #[inline(always)]
    fn get(w: u64) -> f64 {
        f64::from_bits(w)
    }
    #[inline(always)]
    fn put(v: f64) -> u64 {
        v.to_bits()
    }
}

/// The lane loop of a two-operand kernel.
#[inline(always)]
fn lanes2(
    r: &mut [u64],
    dst: usize,
    a: usize,
    b: usize,
    n: usize,
    f: impl Fn(u64, u64) -> Result<u64, DivByZero>,
) -> Lanes {
    for i in 0..n {
        r[dst + i] = f(r[a + i], r[b + i])?;
    }
    Ok(())
}

/// The lane loop of a one-operand kernel.
#[inline(always)]
fn lanes1(r: &mut [u64], dst: usize, a: usize, n: usize, f: impl Fn(u64) -> u64) -> Lanes {
    for i in 0..n {
        r[dst + i] = f(r[a + i]);
    }
    Ok(())
}

/// `$e` with `$w` bound, as a `const`, to the width `$bits` (1, 8, 16,
/// 32 or 64) of a scalar type.
macro_rules! by_width {
    ($bits:expr, $w:ident => $e:expr) => {
        match $bits {
            1 => {
                const $w: u32 = 1;
                $e
            }
            8 => {
                const $w: u32 = 8;
                $e
            }
            16 => {
                const $w: u32 = 16;
                $e
            }
            32 => {
                const $w: u32 = 32;
                $e
            }
            _ => {
                const $w: u32 = 64;
                $e
            }
        }
    };
}

/// `$e` (an `Option<Kernel>`) with `$t` the float lane type of `$ty`;
/// `None` for an integer type.
macro_rules! by_float {
    ($ty:expr, $t:ident => $e:expr) => {
        match $ty {
            ScalarTy::F32 => {
                type $t = F32;
                $e
            }
            ScalarTy::F64 => {
                type $t = F64;
                $e
            }
            _ => None,
        }
    };
}

/// Two-operand kernels `name::<W>` over `W`-bit lanes: `$x` and `$y` are
/// the operands masked to `W` bits, and the result is masked likewise.
macro_rules! int_kernels {
    ($($name:ident($x:ident, $y:ident) $body:expr;)*) => {$(
        fn $name<const W: u32>(r: &mut [u64], dst: usize, a: usize, b: usize, n: usize) -> Lanes {
            lanes2(r, dst, a, b, n, |$x, $y| {
                let ($x, $y) = ($x & mask(W), $y & mask(W));
                Ok($body & mask(W))
            })
        }
    )*};
}

int_kernels! {
    add(x, y) x.wrapping_add(y);
    sub(x, y) x.wrapping_sub(y);
    mul(x, y) x.wrapping_mul(y);
    and(x, y) x & y;
    or(x, y) x | y;
    xor(x, y) x ^ y;
    // Shift amounts at or past the width give 0 (sign fill for `ashr`).
    shl(x, y) if y >= u64::from(W) { 0 } else { x << y };
    lshr(x, y) if y >= u64::from(W) { 0 } else { x >> y };
    ashr(x, y) (sext(x, W) >> y.min(63)) as u64;
    sdiv(x, y) {
        if y == 0 {
            return Err(DivByZero);
        }
        sext(x, W).wrapping_div(sext(y, W)) as u64
    };
    udiv(x, y) {
        if y == 0 {
            return Err(DivByZero);
        }
        x / y
    };
    srem(x, y) {
        if y == 0 {
            return Err(DivByZero);
        }
        sext(x, W).wrapping_rem(sext(y, W)) as u64
    };
    urem(x, y) {
        if y == 0 {
            return Err(DivByZero);
        }
        x % y
    };
}

/// Integer comparison kernels `name::<W>`: `$x`, `$y` as in
/// `int_kernels`, and the lane is the `i1` of `$body`.
macro_rules! icmp_kernels {
    ($($name:ident($x:ident, $y:ident) $body:expr;)*) => {$(
        fn $name<const W: u32>(r: &mut [u64], dst: usize, a: usize, b: usize, n: usize) -> Lanes {
            lanes2(r, dst, a, b, n, |$x, $y| {
                let ($x, $y) = ($x & mask(W), $y & mask(W));
                Ok(u64::from($body))
            })
        }
    )*};
}

icmp_kernels! {
    eq(x, y) x == y;
    ne(x, y) x != y;
    slt(x, y) sext(x, W) < sext(y, W);
    sle(x, y) sext(x, W) <= sext(y, W);
    sgt(x, y) sext(x, W) > sext(y, W);
    sge(x, y) sext(x, W) >= sext(y, W);
    ult(x, y) x < y;
    ule(x, y) x <= y;
    ugt(x, y) x > y;
    uge(x, y) x >= y;
}

/// Float kernels `name::<T>`: `$x`, `$y` are the operands as `f64`, and
/// the lane is `$body` written back as a `T`.
macro_rules! float_kernels {
    ($($name:ident($x:ident, $y:ident) $body:expr;)*) => {$(
        fn $name<T: Float>(r: &mut [u64], dst: usize, a: usize, b: usize, n: usize) -> Lanes {
            lanes2(r, dst, a, b, n, |$x, $y| {
                let ($x, $y) = (T::get($x), T::get($y));
                Ok(T::put($body))
            })
        }
    )*};
}

float_kernels! {
    fadd(x, y) x + y;
    fsub(x, y) x - y;
    fmul(x, y) x * y;
    fdiv(x, y) x / y;
    frem(x, y) x % y;
}

/// Float comparison kernels `name::<T>`: `$x`, `$y` are the operands as
/// `f64`, `$uno` whether either is NaN, and the lane is the `i1` of
/// `$body`.
macro_rules! fcmp_kernels {
    ($($name:ident($x:ident, $y:ident, $uno:ident) $body:expr;)*) => {$(
        fn $name<T: Float>(r: &mut [u64], dst: usize, a: usize, b: usize, n: usize) -> Lanes {
            lanes2(r, dst, a, b, n, |$x, $y| {
                let ($x, $y) = (T::get($x), T::get($y));
                let $uno = $x.is_nan() || $y.is_nan();
                Ok(u64::from($body))
            })
        }
    )*};
}

fcmp_kernels! {
    oeq(x, y, uno) !uno && x == y;
    one(x, y, uno) !uno && x != y;
    olt(x, y, uno) !uno && x < y;
    ole(x, y, uno) !uno && x <= y;
    ogt(x, y, uno) !uno && x > y;
    oge(x, y, uno) !uno && x >= y;
    ord(x, y, uno) { let _ = (x, y); !uno };
    uno(x, y, uno) { let _ = (x, y); uno };
    ueq(x, y, uno) uno || x == y;
    une(x, y, uno) uno || x != y;
}

/// `trunc`, `zext`, `bitcast`, `ptrtoint`, `inttoptr`: the low `W` bits,
/// `W` the narrower of the two widths.
fn keep<const W: u32>(r: &mut [u64], dst: usize, a: usize, _: usize, n: usize) -> Lanes {
    lanes1(r, dst, a, n, |x| x & mask(W))
}

/// `sext` from `F` to `T` bits.
fn sext_lanes<const F: u32, const T: u32>(
    r: &mut [u64],
    dst: usize,
    a: usize,
    _: usize,
    n: usize,
) -> Lanes {
    lanes1(r, dst, a, n, |x| sext(x, F) as u64 & mask(T))
}

/// `fptosi` to `T` bits; NaN and out-of-range values give 0.
fn fptosi<S: Float, const T: u32>(
    r: &mut [u64],
    dst: usize,
    a: usize,
    _: usize,
    n: usize,
) -> Lanes {
    lanes1(r, dst, a, n, |x| {
        let f = S::get(x);
        let i = if f.is_nan() || f < i64::MIN as f64 || f > i64::MAX as f64 {
            0
        } else {
            f as i64
        };
        i as u64 & mask(T)
    })
}

/// `sitofp` from `F` bits.
fn sitofp<const F: u32, T: Float>(
    r: &mut [u64],
    dst: usize,
    a: usize,
    _: usize,
    n: usize,
) -> Lanes {
    lanes1(r, dst, a, n, |x| T::put(sext(x, F) as f64))
}

/// `fpext` and `fptrunc`.
fn fpconv<S: Float, T: Float>(r: &mut [u64], dst: usize, a: usize, _: usize, n: usize) -> Lanes {
    lanes1(r, dst, a, n, |x| T::put(S::get(x)))
}

/// The kernel of `op` on lanes of `ty`, if `eval_bin` defines one.
pub(crate) fn bin(op: BinOp, ty: ScalarTy) -> Option<Kernel> {
    by_width!(ty.bits(), W => int_bin::<W>(op)).or_else(|| by_float!(ty, T => float_bin::<T>(op)))
}

fn int_bin<const W: u32>(op: BinOp) -> Option<Kernel> {
    let k: Kernel = match op {
        BinOp::Add => add::<W>,
        BinOp::Sub => sub::<W>,
        BinOp::Mul => mul::<W>,
        BinOp::SDiv => sdiv::<W>,
        BinOp::UDiv => udiv::<W>,
        BinOp::SRem => srem::<W>,
        BinOp::URem => urem::<W>,
        BinOp::And => and::<W>,
        BinOp::Or => or::<W>,
        BinOp::Xor => xor::<W>,
        BinOp::Shl => shl::<W>,
        BinOp::LShr => lshr::<W>,
        BinOp::AShr => ashr::<W>,
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem => return None,
    };
    Some(k)
}

fn float_bin<T: Float>(op: BinOp) -> Option<Kernel> {
    let k: Kernel = match op {
        BinOp::FAdd => fadd::<T>,
        BinOp::FSub => fsub::<T>,
        BinOp::FMul => fmul::<T>,
        BinOp::FDiv => fdiv::<T>,
        BinOp::FRem => frem::<T>,
        _ => return None,
    };
    Some(k)
}

/// The kernel of `icmp pred` on lanes of `ty`.
pub(crate) fn icmp(pred: ICmpPred, ty: ScalarTy) -> Kernel {
    by_width!(ty.bits(), W => match pred {
        ICmpPred::Eq => eq::<W>,
        ICmpPred::Ne => ne::<W>,
        ICmpPred::Slt => slt::<W>,
        ICmpPred::Sle => sle::<W>,
        ICmpPred::Sgt => sgt::<W>,
        ICmpPred::Sge => sge::<W>,
        ICmpPred::Ult => ult::<W>,
        ICmpPred::Ule => ule::<W>,
        ICmpPred::Ugt => ugt::<W>,
        ICmpPred::Uge => uge::<W> as Kernel,
    })
}

/// The kernel of `fcmp pred` on lanes of `ty`, if `ty` is a float.
pub(crate) fn fcmp(pred: FCmpPred, ty: ScalarTy) -> Option<Kernel> {
    by_float!(ty, T => Some(match pred {
        FCmpPred::Oeq => oeq::<T>,
        FCmpPred::One => one::<T>,
        FCmpPred::Olt => olt::<T>,
        FCmpPred::Ole => ole::<T>,
        FCmpPred::Ogt => ogt::<T>,
        FCmpPred::Oge => oge::<T>,
        FCmpPred::Ord => ord::<T>,
        FCmpPred::Uno => uno::<T>,
        FCmpPred::Ueq => ueq::<T>,
        FCmpPred::Une => une::<T> as Kernel,
    }))
}

/// The kernel of cast `op` from lanes of `from` to lanes of `to`, if
/// `eval_cast` defines one.
pub(crate) fn cast(op: CastOp, from: ScalarTy, to: ScalarTy) -> Option<Kernel> {
    match op {
        CastOp::Trunc | CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr | CastOp::ZExt => {
            Some(by_width!(from.bits().min(to.bits()), W => keep::<W> as Kernel))
        }
        CastOp::SExt => Some(by_width!(from.bits(), F => sext_to::<F>(to))),
        CastOp::FpToSi => by_float!(from, S => Some(fptosi_to::<S>(to))),
        CastOp::SiToFp => {
            by_width!(from.bits(), F => by_float!(to, T => Some(sitofp::<F, T> as Kernel)))
        }
        CastOp::FpExt | CastOp::FpTrunc => {
            by_float!(from, S => by_float!(to, T => Some(fpconv::<S, T> as Kernel)))
        }
    }
}

fn sext_to<const F: u32>(to: ScalarTy) -> Kernel {
    by_width!(to.bits(), T => sext_lanes::<F, T> as Kernel)
}

fn fptosi_to<S: Float>(to: ScalarTy) -> Kernel {
    by_width!(to.bits(), T => fptosi::<S, T> as Kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{eval_bin, eval_cast, eval_fcmp, eval_icmp};
    use crate::value::Scalar;

    const TYS: [ScalarTy; 8] = [
        ScalarTy::I1,
        ScalarTy::I8,
        ScalarTy::I16,
        ScalarTy::I32,
        ScalarTy::I64,
        ScalarTy::F32,
        ScalarTy::F64,
        ScalarTy::Ptr,
    ];

    /// Words that reach the edges: zero, one, sign bits, all ones, NaN
    /// and infinity patterns, and a few arbitrary ones.
    fn words() -> Vec<u64> {
        let mut w = vec![
            0, 1, 2, 3, 7, 31, 32, 63, 64, 100, 0x80, 0xff, 0x7fff, 0x8000,
        ];
        w.extend([
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            0x7fc0_0000,
            0x7f80_0000,
        ]);
        w.extend([0x3f80_0000, 0xbf80_0000, 0x4f00_0000, 0xdf00_0000]);
        w.extend([u64::MAX, 1 << 63, (1 << 63) - 1, 0x7ff8_0000_0000_0000]);
        w.extend([
            0x3ff0_0000_0000_0000,
            0xc3e0_0000_0000_0000,
            0x43e0_0000_0000_0000,
        ]);
        w.extend([0x1234_5678_9abc_def0, 0xdead_beef]);
        w
    }

    /// Run `k` on one lane pair, through an arena whose operands sit
    /// before and after the result.
    fn run(k: Kernel, x: u64, y: u64) -> Result<u64, DivByZero> {
        let mut r = [x, 0, y];
        k(&mut r, 1, 0, 2, 1).map(|()| r[1])
    }

    const BIN_OPS: [BinOp; 18] = [
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
    ];

    #[test]
    fn bin_kernels_match_eval_bin() {
        for op in BIN_OPS {
            for ty in TYS {
                let float_op = matches!(
                    op,
                    BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv | BinOp::FRem
                );
                let Some(k) = bin(op, ty) else {
                    assert!(float_op && !ty.is_float(), "{op:?} {ty:?} has no kernel");
                    continue;
                };
                for x in words() {
                    for y in words() {
                        let want = eval_bin(op, Scalar::new(ty, x), Scalar::new(ty, y));
                        let got = run(k, x, y);
                        match (want, got) {
                            (Ok(s), Ok(w)) => {
                                assert_eq!(s.bits, w, "{op:?} {ty:?} {x:#x} {y:#x}")
                            }
                            (Err(_), Err(DivByZero)) => {}
                            (want, got) => {
                                panic!("{op:?} {ty:?} {x:#x} {y:#x}: {want:?} vs {got:?}")
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cmp_kernels_match_eval_cmp() {
        let ipreds = [
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
        ];
        let fpreds = [
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
        ];
        for ty in TYS {
            for x in words() {
                for y in words() {
                    let (sx, sy) = (Scalar::new(ty, x), Scalar::new(ty, y));
                    for p in ipreds {
                        let got = run(icmp(p, ty), x, y).unwrap();
                        assert_eq!(
                            got,
                            eval_icmp(p, sx, sy) as u64,
                            "{p:?} {ty:?} {x:#x} {y:#x}"
                        );
                    }
                    for p in fpreds {
                        match fcmp(p, ty) {
                            Some(k) => assert_eq!(
                                run(k, x, y).unwrap(),
                                eval_fcmp(p, sx, sy) as u64,
                                "{p:?} {ty:?} {x:#x} {y:#x}"
                            ),
                            None => assert!(!ty.is_float(), "fcmp {p:?} {ty:?} has no kernel"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cast_kernels_match_eval_cast() {
        let ops = [
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
        ];
        for op in ops {
            for from in TYS {
                for to in TYS {
                    let Some(k) = cast(op, from, to) else {
                        let float_in =
                            matches!(op, CastOp::FpToSi | CastOp::FpExt | CastOp::FpTrunc);
                        let float_out =
                            matches!(op, CastOp::SiToFp | CastOp::FpExt | CastOp::FpTrunc);
                        assert!(
                            (float_in && !from.is_float()) || (float_out && !to.is_float()),
                            "{op:?} {from:?} -> {to:?} has no kernel"
                        );
                        continue;
                    };
                    for x in words() {
                        let want = eval_cast(op, Scalar::new(from, x), to).bits;
                        assert_eq!(
                            run(k, x, 0).unwrap(),
                            want,
                            "{op:?} {from:?} -> {to:?} {x:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernels_run_every_lane() {
        let mut r = [1, 2, 3, 10, 20, 30, 0, 0, 0];
        add::<32>(&mut r, 6, 0, 3, 3).unwrap();
        assert_eq!(r[6..], [11, 22, 33]);
        let mut r = [4, 5, 1, 0, 9, 9];
        assert!(
            udiv::<32>(&mut r, 4, 0, 2, 2).is_err(),
            "lane 1 divides by zero"
        );
    }
}
