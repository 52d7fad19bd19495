//! The VULFI instrumentation pass (paper §II-D, Figs. 4–5).
//!
//! For every selected fault site the pass splices a call to the runtime
//! fault-injection API into the instruction stream:
//!
//! - a **scalar Lvalue** gets a single
//!   `%inj = call T @vulfi.inject.<ty>(T %v, <mask>, i64 site, i32 lane)`
//!   and all users of `%v` are redirected to `%inj`;
//! - a **vector Lvalue** is cloned lane by lane — `extractelement` the
//!   scalar, extract its execution-mask element (for masked intrinsics),
//!   call the runtime API, `insertelement` the result back — exactly the
//!   workflow of paper Fig. 4, producing IR shaped like paper Fig. 5;
//! - a **store's value operand** gets the same treatment *before* the
//!   store, and only the store's operand is redirected (the defining
//!   instruction's own Lvalue site covers the other users).
//!
//! Masked vector operations pass each lane's execution-mask element to the
//! runtime so that masked-off lanes are never counted as fault sites. The
//! `mask_aware` flag exists as an ablation: switching it off reproduces a
//! scalar-era injector that targets dead lanes too.

use vir::analysis::SiteCategory;
use vir::{Constant, FuncDecl, Function, InstId, InstKind, Module, Operand, ScalarTy, Type};

use crate::sites::{enumerate_operand_sites, enumerate_sites, SiteKind, StaticSite};

/// What the injector targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetMode {
    /// Instruction Lvalues plus store value operands — the paper's fault
    /// model (§II-B).
    #[default]
    Lvalue,
    /// Every source operand of every instruction — the ablation used to
    /// check the paper's claim that Lvalue targeting subsumes
    /// operand/unit faults.
    SourceOperands,
}

/// Options for the instrumentation pass.
#[derive(Debug, Clone, Copy)]
pub struct InstrumentOptions {
    /// Which fault-site category to target (paper §II-C heuristics).
    pub category: SiteCategory,
    /// Honor execution masks (VULFI behaviour). `false` is the ablation
    /// that ignores masks.
    pub mask_aware: bool,
    /// Lvalue (paper) vs source-operand (ablation) targeting.
    pub mode: TargetMode,
}

impl InstrumentOptions {
    pub fn new(category: SiteCategory) -> InstrumentOptions {
        InstrumentOptions {
            category,
            mask_aware: true,
            mode: TargetMode::Lvalue,
        }
    }

    pub fn operands(category: SiteCategory) -> InstrumentOptions {
        InstrumentOptions {
            category,
            mask_aware: true,
            mode: TargetMode::SourceOperands,
        }
    }
}

/// Result of instrumenting a module.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The instrumented sites, in site-id order.
    pub sites: Vec<StaticSite>,
}

/// Runtime API function name for an element type.
pub fn inject_fn_name(elem: ScalarTy) -> String {
    format!("vulfi.inject.{}", elem.suffix())
}

/// Declare the runtime API functions in `m`.
pub fn declare_runtime(m: &mut Module) {
    for elem in [
        ScalarTy::I1,
        ScalarTy::I8,
        ScalarTy::I16,
        ScalarTy::I32,
        ScalarTy::I64,
        ScalarTy::F32,
        ScalarTy::F64,
        ScalarTy::Ptr,
    ] {
        m.declare(FuncDecl {
            name: inject_fn_name(elem),
            ret: Type::Scalar(elem),
            params: vec![Type::Scalar(elem)],
            vararg: true,
        });
    }
}

/// Instrument `func` in `m`, targeting sites in `opts.category`.
/// Returns the instrumented site list (ids match the `site` argument the
/// runtime receives).
pub fn instrument_module(
    m: &mut Module,
    func: &str,
    opts: InstrumentOptions,
) -> Result<Instrumented, String> {
    declare_runtime(m);
    let f = m
        .function_mut(func)
        .ok_or_else(|| format!("no function @{func}"))?;
    let all_sites = match opts.mode {
        TargetMode::Lvalue => enumerate_sites(f),
        TargetMode::SourceOperands => enumerate_operand_sites(f),
    };
    let selected: Vec<StaticSite> = all_sites
        .into_iter()
        .filter(|s| s.in_category(opts.category))
        .collect();
    for site in &selected {
        instrument_site(f, site, opts.mask_aware);
    }
    if let Err(e) = vir::verify::verify_module(m) {
        return Err(format!("instrumentation broke the module: {e}"));
    }
    Ok(Instrumented { sites: selected })
}

/// Where to splice the chain.
enum Splice {
    After(InstId),
    Before(InstId),
}

fn instrument_site(f: &mut Function, site: &StaticSite, mask_aware: bool) {
    let block = f
        .block_of(site.inst)
        .expect("site instruction must be placed");

    // The value being targeted and the splice position.
    let (value_op, splice) = match site.kind {
        SiteKind::Lvalue => {
            let result = f.inst(site.inst).result.expect("lvalue site has result");
            let anchor = if f.inst(site.inst).is_phi() {
                // Chains cannot sit between phis: anchor after the last phi.
                *f.block(block)
                    .insts
                    .iter()
                    .take_while(|&&i| f.inst(i).is_phi())
                    .last()
                    .expect("phi block has phis")
            } else {
                site.inst
            };
            (Operand::Value(result), Splice::After(anchor))
        }
        SiteKind::StoreValue { operand_index } => {
            let op = f
                .inst(site.inst)
                .operand_at(operand_index)
                .expect("operand site index valid")
                .clone();
            (op, Splice::Before(site.inst))
        }
    };

    // Execution-mask operand (a vector register) if present and honored.
    let mask_op: Option<Operand> = if mask_aware {
        site.mask.map(|ms| match &f.inst(site.inst).kind {
            InstKind::Call { args, .. } => args[ms.arg_index].clone(),
            _ => unreachable!("mask source on non-call"),
        })
    } else {
        None
    };

    let elem = site.elem();
    let callee = inject_fn_name(elem);
    let site_const: Operand = Constant::i64(site.id as i64).into();

    let mut chain: Vec<InstId> = Vec::new();
    let result_op: Operand = if site.ty.is_vector() {
        // Per-lane clone-and-instrument workflow (paper Fig. 4).
        let lanes = site.lanes();
        let mut prev = value_op;
        for k in 0..lanes {
            let k_const: Operand = Constant::i32(k as i32).into();
            let ext = f.create_inst(
                InstKind::ExtractElement {
                    vec: prev.clone(),
                    idx: k_const.clone(),
                },
                Type::Scalar(elem),
                Some(format!("ext{k}.s{}", site.id)),
            );
            chain.push(ext);
            let ext_val = Operand::Value(f.inst(ext).result.unwrap());
            let mask_elt: Operand = match &mask_op {
                Some(mv) => {
                    let mask_elem = f.operand_type(mv).elem().expect("vector mask");
                    let me = f.create_inst(
                        InstKind::ExtractElement {
                            vec: mv.clone(),
                            idx: k_const.clone(),
                        },
                        Type::Scalar(mask_elem),
                        Some(format!("extmask{k}.s{}", site.id)),
                    );
                    chain.push(me);
                    Operand::Value(f.inst(me).result.unwrap())
                }
                None => Constant::bool(true).into(),
            };
            let call = f.create_inst(
                InstKind::Call {
                    callee: callee.clone(),
                    args: vec![ext_val, mask_elt, site_const.clone(), k_const.clone()],
                },
                Type::Scalar(elem),
                Some(format!("inj{k}.s{}", site.id)),
            );
            chain.push(call);
            let call_val = Operand::Value(f.inst(call).result.unwrap());
            let ins = f.create_inst(
                InstKind::InsertElement {
                    vec: prev.clone(),
                    elt: call_val,
                    idx: k_const,
                },
                site.ty,
                Some(format!("ins{k}.s{}", site.id)),
            );
            chain.push(ins);
            prev = Operand::Value(f.inst(ins).result.unwrap());
        }
        prev
    } else {
        let call = f.create_inst(
            InstKind::Call {
                callee,
                args: vec![
                    value_op,
                    Constant::bool(true).into(),
                    site_const,
                    Constant::i32(0).into(),
                ],
            },
            site.ty,
            Some(format!("inj.s{}", site.id)),
        );
        chain.push(call);
        Operand::Value(f.inst(call).result.unwrap())
    };

    // Splice the chain into the block, preserving order.
    match splice {
        Splice::After(mut anchor) => {
            for &c in &chain {
                f.insert_after(block, anchor, c);
                anchor = c;
            }
        }
        Splice::Before(target) => {
            for &c in &chain {
                f.insert_before(block, target, c);
            }
        }
    }

    // Redirect users.
    match site.kind {
        SiteKind::Lvalue => {
            let result = f.inst(site.inst).result.unwrap();
            f.replace_uses(result, result_op, &chain);
        }
        SiteKind::StoreValue { operand_index } => {
            let ok = f
                .inst_mut(site.inst)
                .set_operand_at(operand_index, result_op);
            debug_assert!(ok, "operand index valid");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vir::printer::print_module;

    fn parse(src: &str) -> Module {
        vir::parser::parse_module(src).unwrap()
    }

    const SCALAR_LOOP: &str = r#"
define i32 @sum(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr i32, ptr %a, i32 %i
  %v = load i32, ptr %p
  %acc2 = add i32 %acc, %v
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;

    #[test]
    fn instruments_scalar_lvalues_and_verifies() {
        for cat in SiteCategory::ALL {
            let mut m = parse(SCALAR_LOOP);
            let r = instrument_module(&mut m, "sum", InstrumentOptions::new(cat)).unwrap();
            assert!(!r.sites.is_empty(), "{cat} selected no sites");
            let text = print_module(&m);
            assert!(text.contains("@vulfi.inject.i32"), "{text}");
        }
    }

    #[test]
    fn pure_data_instrumentation_excludes_control_values() {
        let mut m = parse(SCALAR_LOOP);
        let r = instrument_module(
            &mut m,
            "sum",
            InstrumentOptions::new(SiteCategory::PureData),
        )
        .unwrap();
        let f = m.function("sum").unwrap();
        for s in &r.sites {
            // None of the pure-data sites may be named i/i2/cond/p.
            if let Some(res) = f.inst(s.inst).result {
                let name = f.value(res).name.clone().unwrap_or_default();
                assert!(
                    !["i", "i2", "cond", "p"].contains(&name.as_str()),
                    "{name} wrongly selected as pure-data"
                );
            }
        }
    }

    #[test]
    fn vector_site_produces_fig5_chain() {
        let src = r#"
declare <8 x float> @llvm.x86.avx.maskload.ps.256(ptr, <8 x float>)
declare void @llvm.x86.avx.maskstore.ps.256(ptr, <8 x float>, <8 x float>)

define void @copy(ptr %s, ptr %d, <8 x float> %floatmask.i) {
entry:
  %0 = call <8 x float> @llvm.x86.avx.maskload.ps.256(ptr %s, <8 x float> %floatmask.i)
  call void @llvm.x86.avx.maskstore.ps.256(ptr %d, <8 x float> %floatmask.i, <8 x float> %0)
  ret void
}
"#;
        let mut m = parse(src);
        let r = instrument_module(
            &mut m,
            "copy",
            InstrumentOptions::new(SiteCategory::PureData),
        )
        .unwrap();
        assert_eq!(r.sites.len(), 2); // maskload Lvalue + maskstore value
        let text = print_module(&m);
        // Per-lane extract of both value and mask, as in paper Fig. 5(B).
        assert!(
            text.contains("extractelement <8 x float> %0, i32 0"),
            "{text}"
        );
        assert!(
            text.contains("extractelement <8 x float> %floatmask.i, i32 0"),
            "{text}"
        );
        assert!(
            text.contains("call float @vulfi.inject.f32(float"),
            "{text}"
        );
        assert!(text.contains("insertelement <8 x float>"), "{text}");
        // 8 lanes × 2 sites = 16 inject calls.
        assert_eq!(text.matches("@vulfi.inject.f32(").count(), 16 + 1, "{text}"); // +1 declare
                                                                                  // The maskstore's stored value must now be the final insertelement.
        assert!(
            text.contains("<8 x float> %floatmask.i, <8 x float> %ins7.s1)"),
            "{text}"
        );
    }

    #[test]
    fn unmasked_vector_ops_get_constant_true_mask() {
        let src = r#"
define <4 x i32> @v(<4 x i32> %a) {
entry:
  %b = add <4 x i32> %a, %a
  ret <4 x i32> %b
}
"#;
        let mut m = parse(src);
        instrument_module(&mut m, "v", InstrumentOptions::new(SiteCategory::PureData)).unwrap();
        let text = print_module(&m);
        assert!(
            text.contains("call i32 @vulfi.inject.i32(i32 %ext0.s0, i1 true"),
            "{text}"
        );
    }

    #[test]
    fn phi_lvalues_are_instrumented_after_phi_group() {
        let mut m = parse(SCALAR_LOOP);
        instrument_module(&mut m, "sum", InstrumentOptions::new(SiteCategory::Control)).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let f = m.function("sum").unwrap();
        let header = f.block_by_name("header").unwrap();
        let insts = &f.block(header).insts;
        // Phis must still be a contiguous prefix.
        let mut seen_non_phi = false;
        for &iid in insts {
            if f.inst(iid).is_phi() {
                assert!(!seen_non_phi, "phi after non-phi");
            } else {
                seen_non_phi = true;
            }
        }
    }

    #[test]
    fn instrumented_module_executes_transparently_without_injection() {
        use vexec::{HostCall, HostEnv, Interp, RtVal, Scalar, Trap};
        struct Passthrough;
        impl HostEnv for Passthrough {
            fn resolve(&self, name: &str) -> Option<u32> {
                assert!(name.starts_with("vulfi.inject."));
                Some(0)
            }

            fn call(&mut self, _: u32, call: HostCall<'_>) -> Result<bool, Trap> {
                call.ret.copy_from_slice(call.args.get(0).unwrap().words);
                Ok(true)
            }
        }
        let mut m = parse(SCALAR_LOOP);
        instrument_module(&mut m, "sum", InstrumentOptions::new(SiteCategory::Control)).unwrap();
        let mut interp = Interp::new(&m);
        let a = interp.mem.alloc_i32_slice(&[5, 6, 7]).unwrap();
        let r = interp
            .run(
                "sum",
                &[RtVal::Scalar(Scalar::ptr(a)), RtVal::Scalar(Scalar::i32(3))],
                &mut Passthrough,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 18);
    }

    #[test]
    fn mask_oblivious_ablation_drops_mask_extracts() {
        let src = r#"
declare <8 x float> @llvm.x86.avx.maskload.ps.256(ptr, <8 x float>)

define <8 x float> @ld(ptr %s, <8 x float> %m) {
entry:
  %v = call <8 x float> @llvm.x86.avx.maskload.ps.256(ptr %s, <8 x float> %m)
  ret <8 x float> %v
}
"#;
        let mut m = parse(src);
        let opts = InstrumentOptions {
            category: SiteCategory::PureData,
            mask_aware: false,
            mode: TargetMode::Lvalue,
        };
        instrument_module(&mut m, "ld", opts).unwrap();
        let text = print_module(&m);
        assert!(!text.contains("extractelement <8 x float> %m"), "{text}");
        assert!(text.contains("i1 true"), "{text}");
    }
}

#[cfg(test)]
mod operand_mode_tests {
    use super::*;
    use crate::runtime::VulfiHost;
    use vexec::{Interp, RtVal, Scalar};

    const LOOP_SRC: &str = r#"
define i32 @sum(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr i32, ptr %a, i32 %i
  %v = load i32, ptr %p
  %acc2 = add i32 %acc, %v
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;

    #[test]
    fn operand_mode_selects_more_sites_than_lvalue_mode() {
        // Every value is defined once but used possibly many times, and
        // constants become sites too: across all categories, operand mode
        // enumerates more sites.
        let m = vir::parser::parse_module(LOOP_SRC).unwrap();
        let f = m.function("sum").unwrap();
        let lv = crate::sites::enumerate_sites(f);
        let op = crate::sites::enumerate_operand_sites(f);
        assert!(
            op.len() > lv.len(),
            "operand {} vs lvalue {}",
            op.len(),
            lv.len()
        );
    }

    #[test]
    fn operand_mode_is_transparent_and_runnable() {
        let mut m = vir::parser::parse_module(LOOP_SRC).unwrap();
        instrument_module(
            &mut m,
            "sum",
            InstrumentOptions::operands(SiteCategory::Control),
        )
        .unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        let a = interp.mem.alloc_i32_slice(&[5, 6, 7]).unwrap();
        let mut host = VulfiHost::profile();
        let r = interp
            .run(
                "sum",
                &[RtVal::Scalar(Scalar::ptr(a)), RtVal::Scalar(Scalar::i32(3))],
                &mut host,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 18);
        assert!(host.dynamic_sites > 0);
    }

    #[test]
    fn operand_mode_instruments_constants_too() {
        let src = r#"
define i32 @f(i32 %x) {
entry:
  %y = add i32 %x, 41
  ret i32 %y
}
"#;
        let mut m = vir::parser::parse_module(src).unwrap();
        let r = instrument_module(
            &mut m,
            "f",
            InstrumentOptions::operands(SiteCategory::PureData),
        )
        .unwrap();
        // Both the %x use and the literal 41 are operand sites.
        assert_eq!(r.sites.len(), 2);
        // Injecting into the constant operand corrupts the result.
        let mut interp = Interp::new(&m);
        let mut host = VulfiHost::inject(2, 0); // second site = the constant, bit 0
        let out = interp
            .run("f", &[RtVal::Scalar(Scalar::i32(1))], &mut host)
            .unwrap();
        assert_eq!(out.ret.unwrap().scalar().as_i64(), 1 + 40); // 41 ^ 1 = 40
    }

    #[test]
    fn phi_and_terminator_operands_are_not_operand_sites() {
        let m = vir::parser::parse_module(LOOP_SRC).unwrap();
        let f = m.function("sum").unwrap();
        let sites = crate::sites::enumerate_operand_sites(f);
        for s in &sites {
            assert!(!f.inst(s.inst).is_phi(), "phi operand became a site");
        }
    }
}
