//! The uniform-broadcast checker pass (paper §III-B).
//!
//! ISPC shares a `uniform` value across lanes by storing it in a scalar
//! register and broadcasting it with `insertelement undef` +
//! `shufflevector zeroinitializer` (paper Fig. 9). The invariant: *all
//! lanes of the broadcast register hold the same value*. A bit flip in any
//! lane of the broadcast register violates it and "can be detected by
//! inserting a piece of checker code ... (inexpensively achieved by
//! XORing)".
//!
//! The paper leaves this detector as future work ("implementing the
//! detector described in §III-B will be part of our future work"); this
//! pass implements it. For every broadcast pattern it inserts
//! `call void @vulfi.check.uniform(<vec>)` immediately after the
//! `shufflevector`. Run before VULFI instrumentation, so the injection
//! chain feeds the checker the same (possibly corrupted) register the
//! program consumes.

use vir::inst::InstKind;
use vir::{ConstData, FuncDecl, Function, InstId, Module, Type, ValueDef};

/// Name of the runtime check function.
pub const CHECK_UNIFORM: &str = "vulfi.check.uniform";

/// A matched broadcast: the `shufflevector` producing the splat register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Broadcast {
    pub shuffle: InstId,
}

/// Find every Fig. 9 broadcast pattern in `f`.
pub fn find_broadcasts(f: &Function) -> Vec<Broadcast> {
    let mut out = Vec::new();
    for (_, iid) in f.placed_insts() {
        let inst = f.inst(iid);
        let InstKind::ShuffleVector { a, b, mask } = &inst.kind else {
            continue;
        };
        // Mask must splat lane 0.
        if !mask.iter().all(|&m| m == 0) {
            continue;
        }
        // Second operand is undef.
        let b_is_undef = matches!(b.constant().map(|c| &c.data), Some(ConstData::Undef));
        if !b_is_undef {
            continue;
        }
        // First operand is `insertelement undef, %scalar, 0`.
        let Some(a_val) = a.value() else { continue };
        let ValueDef::Inst(a_def) = f.value(a_val).def else {
            continue;
        };
        let InstKind::InsertElement { vec, idx, .. } = &f.inst(a_def).kind else {
            continue;
        };
        let vec_is_undef = matches!(vec.constant().map(|c| &c.data), Some(ConstData::Undef));
        let idx_is_zero = idx.constant().and_then(|c| c.as_i64()) == Some(0);
        if vec_is_undef && idx_is_zero {
            out.push(Broadcast { shuffle: iid });
        }
    }
    out
}

/// Declare the runtime check in `m`.
pub fn declare_uniform_runtime(m: &mut Module) {
    m.declare(FuncDecl {
        name: CHECK_UNIFORM.to_string(),
        ret: Type::Void,
        params: vec![],
        vararg: true,
    });
}

/// Insert uniform-broadcast checkers into `func`; returns how many were
/// inserted.
pub fn insert_uniform_detectors(m: &mut Module, func: &str) -> Result<usize, String> {
    declare_uniform_runtime(m);
    let f = m
        .function_mut(func)
        .ok_or_else(|| format!("no function @{func}"))?;
    let broadcasts = find_broadcasts(f);
    for bc in &broadcasts {
        let result = f.inst(bc.shuffle).result.expect("shuffle has a result");
        let block = f.block_of(bc.shuffle).expect("shuffle is placed");
        let call = f.create_inst(
            InstKind::Call {
                callee: CHECK_UNIFORM.to_string(),
                args: vec![result.into()],
            },
            Type::Void,
            None,
        );
        f.insert_after(block, bc.shuffle, call);
    }
    if let Err(e) = vir::verify::verify_module(m) {
        return Err(format!("uniform-checker pass broke the module: {e}"));
    }
    Ok(broadcasts.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmdc::{compile, VectorIsa};
    use vir::printer::print_module;

    const SCALE: &str = r#"
export void scale(uniform float a[], uniform int n, uniform float s) {
    foreach (i = 0 ... n) {
        a[i] = a[i] * s;
    }
}
"#;

    #[test]
    fn finds_broadcasts_in_compiled_code() {
        let m = compile(SCALE, VectorIsa::Avx, "scale").unwrap();
        let f = m.function("scale").unwrap();
        let bcs = find_broadcasts(f);
        // `s` broadcast in the full body, the partial body, plus the index
        // and nextras smears.
        assert!(!bcs.is_empty());
    }

    #[test]
    fn inserts_checkers_after_broadcasts() {
        let mut m = compile(SCALE, VectorIsa::Avx, "scale").unwrap();
        let n = insert_uniform_detectors(&mut m, "scale").unwrap();
        assert!(n >= 2);
        let text = print_module(&m);
        assert!(text.contains("call void @vulfi.check.uniform"), "{text}");
    }

    #[test]
    fn checker_flags_corrupted_broadcast() {
        use vexec::{Interp, RtVal, Scalar};
        use vir::analysis::SiteCategory;
        use vulfi::{instrument_module, InstrumentOptions, VulfiHost};

        let mut m = compile(SCALE, VectorIsa::Avx, "scale").unwrap();
        insert_uniform_detectors(&mut m, "scale").unwrap();
        // Now instrument pure-data sites (the broadcast register included).
        let r = instrument_module(
            &mut m,
            "scale",
            InstrumentOptions::new(SiteCategory::PureData),
        )
        .unwrap();
        assert!(!r.sites.is_empty());

        // Profile run to learn the dynamic-site count.
        let run = |host: &mut VulfiHost| {
            let mut interp = Interp::new(&m);
            let n = 16;
            let a = interp
                .mem
                .alloc_f32_slice(&(0..n).map(|i| i as f32).collect::<Vec<_>>())
                .unwrap();
            interp
                .run(
                    "scale",
                    &[
                        RtVal::Scalar(Scalar::ptr(a)),
                        RtVal::Scalar(Scalar::i32(n)),
                        RtVal::Scalar(Scalar::f32(3.0)),
                    ],
                    host,
                )
                .unwrap();
        };
        let mut profile = VulfiHost::profile();
        run(&mut profile);
        let total = profile.dynamic_sites;
        assert!(total > 0);
        assert_eq!(profile.detectors.violations, 0);

        // Inject into every dynamic site in turn; whenever the injection
        // lands on a broadcast lane, the checker must fire. We only assert
        // that it fires for *some* site (the broadcast sites exist).
        let mut any_detected = false;
        for target in 1..=total {
            let mut host = VulfiHost::inject(target, 12); // bit 12: mantissa
            run(&mut host);
            if host.detectors.violations > 0 {
                any_detected = true;
                break;
            }
        }
        assert!(any_detected, "no injection tripped the uniform checker");
    }

    #[test]
    fn no_broadcasts_in_pure_scalar_code() {
        let src = r#"
define i32 @f(i32 %x) {
entry:
  %y = add i32 %x, 1
  ret i32 %y
}
"#;
        let m = vir::parser::parse_module(src).unwrap();
        assert!(find_broadcasts(m.function("f").unwrap()).is_empty());
    }
}
