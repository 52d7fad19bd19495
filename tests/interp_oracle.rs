//! Differential check of the decoded interpreter against the tree-walking
//! interpreter it replaced, kept here as the reference semantics.
//!
//! The decoder is a translation of `vir` into slot-indexed operands, so it
//! is checked the way translated loops are: by running both forms on the
//! same programs and inputs and comparing everything observable, bit for
//! bit — the return value, dynamic instruction count or trap, the output
//! memory, the `VulfiHost` census and injection, the engine injector's
//! census and injection, the architectural event stream, and the
//! instruction-mix and hotspot profiles.
//!
//! The corpus is every paper and micro benchmark, on both ISAs, instrumented
//! for each site category, plus verifier-accepted mutants of their printed
//! IR. Each case runs with no host, a `VulfiHost` injecting a random value
//! model, or an engine fault model with a random target, under a budget
//! that is sometimes small enough to stop the run part-way.

use std::sync::OnceLock;

use proptest::prelude::*;
use spmdc::VectorIsa;
use vbench::{micro_benchmarks, study_benchmarks, Scale, SpmdWorkload};
use vexec::{
    EngineInjection, EngineInjector, EngineModel, ExecResult, HotLoc, InstMix, Interp, NoHost,
    TraceEvent, TraceSink, Trap,
};
use vir::analysis::SiteCategory;
use vir::Module;
use vulfi::workload::Workload;
use vulfi::{prepare, DetectorStats, FaultModel, InjectionRecord, VulfiHost};

/// The tree-walking interpreter, as it stood before programs were
/// decoded: one `RtVal` per SSA value, operands evaluated by cloning,
/// callees looked up by name, and calls recursing on the Rust stack.
mod reference {
    use vexec::interp::{eval_bin, eval_cast, eval_fcmp, eval_icmp};
    use vexec::trace::fold_bits;
    use vexec::{
        EngineInjector, ExecResult, HostEnv, HotLoc, HotProfile, InstMix, Memory, RtVal, Scalar,
        TraceEvent, TraceSink, Trap,
    };
    use vir::intrinsics::{self, Intrinsic, MathOp};
    use vir::{BlockId, Function, InstKind, Module, Operand, ScalarTy, Terminator, Type, ValueId};

    /// Maximum call depth.
    const MAX_DEPTH: usize = 64;

    /// The interpreter. One instance executes programs from one module.
    pub struct RefInterp<'m> {
        pub module: &'m Module,
        pub mem: Memory,
        budget: u64,
        executed: u64,
        mix: Option<InstMix>,
        hot: Option<HotProfile>,
        trace: Option<&'m mut dyn TraceSink>,
        fault: Option<&'m mut EngineInjector>,
    }

    impl<'m> RefInterp<'m> {
        pub fn new(module: &'m Module) -> RefInterp<'m> {
            RefInterp {
                module,
                mem: Memory::default(),
                budget: u64::MAX / 2,
                executed: 0,
                mix: None,
                hot: None,
                trace: None,
                fault: None,
            }
        }

        /// Install an engine-level fault injector .
        ///
        /// Value-register fault models never need this; it exists for the
        /// models that corrupt interpreter state the instrumented injection
        /// API cannot reach: mask registers, address operands, and guarded
        /// memory cells. With no injector installed the hooks cost a single
        /// `Option` test, exactly like the trace sink.
        pub fn set_engine_injector(&mut self, inj: &'m mut EngineInjector) {
            self.fault = Some(inj);
        }

        /// Route a guarded-access address through the engine injector.
        fn fault_addr(&mut self, addr: u64) -> u64 {
            match self.fault.as_deref_mut() {
                Some(inj) => inj.on_mem_access(self.executed, addr),
                None => addr,
            }
        }

        /// Route a masked-intrinsic mask register through the engine
        /// injector. `None` when no injector is installed (use the original
        /// mask, avoiding a clone on the default path).
        fn fault_mask(&mut self, mask: &RtVal) -> Option<RtVal> {
            let inj = self.fault.as_deref_mut()?;
            Some(inj.on_mask(self.executed, mask))
        }

        /// Install an architectural-event observer .
        ///
        /// The sink only observes; execution, results, and dynamic
        /// instruction counts are bit-identical with or without one. When no
        /// sink is installed the hooks cost a single `Option` test on paths
        /// that already touch memory or control flow.
        pub fn set_trace_sink(&mut self, sink: &'m mut dyn TraceSink) {
            self.trace = Some(sink);
        }

        fn note_event(&mut self, ev: TraceEvent) {
            if let Some(t) = self.trace.as_deref_mut() {
                t.event(self.executed, ev);
            }
        }

        /// Enable dynamic instruction-mix profiling (Table I / Fig. 10 style
        /// dynamic composition). Adds per-instruction bookkeeping cost.
        pub fn enable_profiling(&mut self) {
            self.mix = Some(InstMix::default());
        }

        /// Take the collected profile, if profiling was enabled.
        pub fn take_mix(&mut self) -> Option<InstMix> {
            self.mix.take()
        }

        /// Enable hot-path profiling: per-site dynamic counts with batched
        /// wall-time attribution (see `HotProfile`). Independent of
        /// `enable_profiling`; both may be on at once. Like the
        /// mix and the trace sink, the hooks are purely observational —
        /// execution stays bit-identical .
        pub fn enable_hotspots(&mut self) {
            self.hot = Some(HotProfile::default());
        }

        /// Take the collected hotspot profile (trailing partial wall-time
        /// batch flushed), if hotspot profiling was enabled.
        pub fn take_hotspots(&mut self) -> Option<HotProfile> {
            let mut h = self.hot.take()?;
            h.finish();
            Some(h)
        }

        fn note_inst(&mut self, f: &Function, frame: &[Option<RtVal>], iid: vir::InstId) {
            if self.mix.is_none() && self.hot.is_none() {
                return;
            }
            let inst = f.inst(iid);
            if let Some(hot) = &mut self.hot {
                hot.record(
                    f as *const Function as usize,
                    &f.name,
                    HotLoc::Inst(iid.0),
                    inst.opcode(),
                );
            }
            if self.mix.is_none() {
                return;
            }
            let width = inst
                .operands()
                .iter()
                .map(|op| f.operand_type(op).lanes())
                .chain(std::iter::once(inst.ty.lanes()))
                .max()
                .unwrap_or(1);
            let is_vec = inst.ty.is_vector()
                || inst
                    .operands()
                    .iter()
                    .any(|op| f.operand_type(op).is_vector());
            if !is_vec {
                self.mix.as_mut().unwrap().record(inst.opcode(), false);
                return;
            }
            // Active-lane count: masked memory ops consult their mask operand
            // and vector selects their condition; everything else executes all
            // lanes. An unevaluable mask (never in verified IR) falls back to
            // full width rather than perturbing execution.
            let active = self
                .active_lanes(f, frame, &inst.kind)
                .unwrap_or(width)
                .min(width);
            self.mix
                .as_mut()
                .unwrap()
                .record_vector_lanes(inst.opcode(), active, width);
        }

        /// How many lanes of a vector instruction are architecturally live,
        /// or `None` when the instruction is unconditionally full-width (or
        /// its mask cannot be read). Purely observational: evaluates already
        /// computed operands, never memory or side effects.
        fn active_lanes(
            &self,
            f: &Function,
            frame: &[Option<RtVal>],
            kind: &InstKind,
        ) -> Option<u32> {
            let count_mask = |op: &Operand, lanes: u32| -> Option<u32> {
                let m = self.eval_operand(f, frame, op).ok()?;
                let n = (lanes as usize).min(m.num_lanes());
                Some((0..n).filter(|&i| m.lane(i).mask_active()).count() as u32)
            };
            match kind {
                InstKind::Call { callee, args } => match intrinsics::parse(callee)? {
                    Intrinsic::MaskLoad { lanes, .. } => count_mask(args.get(1)?, lanes),
                    Intrinsic::MaskStore { lanes, .. } => count_mask(args.get(1)?, lanes),
                    _ => None,
                },
                InstKind::Select { cond, .. } if f.operand_type(cond).is_vector() => {
                    // Select semantics test lane bit 0 (see `exec_inst`), not
                    // the sign bit the AVX mask convention uses.
                    let c = self.eval_operand(f, frame, cond).ok()?;
                    Some(c.lanes().iter().filter(|s| s.bits & 1 == 1).count() as u32)
                }
                _ => None,
            }
        }

        fn note_term(&mut self, f: &Function, block: BlockId, opcode: &'static str) {
            if let Some(hot) = &mut self.hot {
                hot.record(
                    f as *const Function as usize,
                    &f.name,
                    HotLoc::Term(block.0),
                    opcode,
                );
            }
            if let Some(mix) = &mut self.mix {
                mix.record(opcode, false);
            }
        }

        /// Cap the number of dynamic instructions; exceeding it traps with
        /// [`Trap::HangBudget`]. Campaigns set this from the golden run to
        /// detect fault-induced infinite loops.
        pub fn set_budget(&mut self, budget: u64) {
            self.budget = budget;
        }

        /// Cap the simulated memory: allocations beyond `bytes` trap with
        /// [`Trap::OutOfMemory`]. Convenience forwarding to
        /// `Memory::set_limit`.
        pub fn set_memory_limit(&mut self, bytes: u64) {
            self.mem.set_limit(bytes);
        }

        pub fn executed(&self) -> u64 {
            self.executed
        }

        /// Execute `func` with `args`.
        pub fn run(
            &mut self,
            func: &str,
            args: &[RtVal],
            host: &mut dyn HostEnv,
        ) -> Result<ExecResult, Trap> {
            let f = self
                .module
                .function(func)
                .ok_or_else(|| Trap::UnknownFunction(func.to_string()))?;
            if f.params.len() != args.len() {
                return Err(Trap::HostError(format!(
                    "@{func} expects {} arguments, got {}",
                    f.params.len(),
                    args.len()
                )));
            }
            let ret = self.call_function(f, args.to_vec(), host, 0)?;
            if self.trace.is_some() {
                let bits = match &ret {
                    None => 0,
                    Some(v) => v
                        .lanes()
                        .into_iter()
                        .fold(0, |acc, s| fold_bits(acc, s.bits)),
                };
                self.note_event(TraceEvent::Ret { bits });
            }
            Ok(ExecResult {
                ret,
                dyn_insts: self.executed,
            })
        }

        fn tick(&mut self) -> Result<(), Trap> {
            self.executed += 1;
            if self.executed > self.budget {
                return Err(Trap::HangBudget);
            }
            if let Some(inj) = self.fault.as_deref_mut() {
                inj.on_step(self.executed, &mut self.mem);
            }
            Ok(())
        }

        fn call_function(
            &mut self,
            f: &'m Function,
            args: Vec<RtVal>,
            host: &mut dyn HostEnv,
            depth: usize,
        ) -> Result<Option<RtVal>, Trap> {
            if depth >= MAX_DEPTH {
                return Err(Trap::StackOverflow);
            }
            if args.len() > f.values.len() {
                return Err(Trap::EngineFault(format!(
                    "call to @{} with {} arguments but only {} value slots",
                    f.name,
                    args.len(),
                    f.values.len()
                )));
            }
            let mut frame: Vec<Option<RtVal>> = vec![None; f.values.len()];
            for (i, a) in args.into_iter().enumerate() {
                frame[i] = Some(a);
            }

            let mut cur = f.entry();
            let mut prev: Option<BlockId> = None;
            loop {
                let block = f.block(cur);

                // Phase 1: evaluate all phis against the *incoming* frame.
                let mut phi_updates: Vec<(ValueId, RtVal)> = Vec::new();
                let mut body_start = 0;
                for (k, &iid) in block.insts.iter().enumerate() {
                    let inst = f.inst(iid);
                    if let InstKind::Phi { incomings } = &inst.kind {
                        self.tick()?;
                        self.note_inst(f, &frame, iid);
                        let pb = prev.ok_or_else(|| {
                            Trap::HostError("phi in entry block at runtime".into())
                        })?;
                        let (_, op) = incomings
                            .iter()
                            .find(|(b, _)| *b == pb)
                            .ok_or_else(|| Trap::HostError("phi missing incoming edge".into()))?;
                        let v = self.eval_operand(f, &frame, op)?;
                        let res = inst.result.ok_or_else(|| {
                            Trap::EngineFault("phi without a result value".into())
                        })?;
                        phi_updates.push((res, v));
                        body_start = k + 1;
                    } else {
                        break;
                    }
                }
                for (v, val) in phi_updates {
                    frame[v.index()] = Some(val);
                }

                // Phase 2: straight-line body.
                for &iid in &block.insts[body_start..] {
                    self.tick()?;
                    self.note_inst(f, &frame, iid);
                    let inst = f.inst(iid);
                    let result = self.exec_inst(f, &frame, &inst.kind, inst.ty, host, depth)?;
                    if let Some(res_v) = inst.result {
                        frame[res_v.index()] = Some(result.ok_or_else(|| {
                            Trap::HostError("non-void instruction produced no value".into())
                        })?);
                    }
                }

                // Terminator.
                self.tick()?;
                match &block.term {
                    Terminator::Br(b) => {
                        self.note_term(f, cur, "br");
                        prev = Some(cur);
                        cur = *b;
                    }
                    Terminator::CondBr {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        self.note_term(f, cur, "condbr");
                        let c = self.eval_operand(f, &frame, cond)?.scalar();
                        prev = Some(cur);
                        cur = if c.is_true() { *on_true } else { *on_false };
                        self.note_event(TraceEvent::Branch { block: cur.0 });
                    }
                    Terminator::Ret(Some(op)) => {
                        self.note_term(f, cur, "ret");
                        return Ok(Some(self.eval_operand(f, &frame, op)?));
                    }
                    Terminator::Ret(None) => {
                        self.note_term(f, cur, "ret");
                        return Ok(None);
                    }
                    Terminator::Unreachable => return Err(Trap::Unreachable),
                }
            }
        }

        fn eval_operand(
            &self,
            _f: &Function,
            frame: &[Option<RtVal>],
            op: &Operand,
        ) -> Result<RtVal, Trap> {
            match op {
                Operand::Const(c) => Ok(RtVal::from_constant(c)),
                Operand::Value(v) => frame[v.index()]
                    .clone()
                    .ok_or_else(|| Trap::HostError(format!("use of undefined value v{}", v.0))),
            }
        }

        fn exec_inst(
            &mut self,
            f: &'m Function,
            frame: &[Option<RtVal>],
            kind: &InstKind,
            ty: Type,
            host: &mut dyn HostEnv,
            depth: usize,
        ) -> Result<Option<RtVal>, Trap> {
            let ev = |i: &RefInterp<'m>, op: &Operand| i.eval_operand(f, frame, op);
            match kind {
                InstKind::Bin { op, lhs, rhs } => {
                    let a = ev(self, lhs)?;
                    let b = ev(self, rhs)?;
                    Ok(Some(zip_lanes(&a, &b, |x, y| eval_bin(*op, x, y))?))
                }
                InstKind::ICmp { pred, lhs, rhs } => {
                    let a = ev(self, lhs)?;
                    let b = ev(self, rhs)?;
                    Ok(Some(zip_lanes_to(ScalarTy::I1, &a, &b, |x, y| {
                        Ok(Scalar::i1(eval_icmp(*pred, x, y)))
                    })?))
                }
                InstKind::FCmp { pred, lhs, rhs } => {
                    let a = ev(self, lhs)?;
                    let b = ev(self, rhs)?;
                    Ok(Some(zip_lanes_to(ScalarTy::I1, &a, &b, |x, y| {
                        Ok(Scalar::i1(eval_fcmp(*pred, x, y)))
                    })?))
                }
                InstKind::Select {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = ev(self, cond)?;
                    let t = ev(self, on_true)?;
                    let e = ev(self, on_false)?;
                    match c {
                        RtVal::Scalar(s) => Ok(Some(if s.is_true() { t } else { e })),
                        RtVal::Vector(_, lanes) => {
                            if t.num_lanes() < lanes.len() || e.num_lanes() < lanes.len() {
                                return Err(Trap::EngineFault(
                                    "select arms narrower than the condition vector".into(),
                                ));
                            }
                            let elem = t.lane(0).ty;
                            let out = lanes.iter().enumerate().map(|(i, &cb)| {
                                if cb & 1 == 1 {
                                    t.lane(i)
                                } else {
                                    e.lane(i)
                                }
                            });
                            Ok(Some(RtVal::from_lanes(elem, out)))
                        }
                    }
                }
                InstKind::Cast { op, val } => {
                    let v = ev(self, val)?;
                    let to_elem = ty
                        .elem()
                        .ok_or_else(|| Trap::EngineFault("cast to void type".into()))?;
                    let out = v
                        .lanes()
                        .into_iter()
                        .map(|s| eval_cast(*op, s, to_elem))
                        .collect::<Vec<_>>();
                    Ok(Some(if ty.is_vector() {
                        RtVal::from_lanes(to_elem, out)
                    } else {
                        RtVal::Scalar(out[0])
                    }))
                }
                InstKind::Alloca { elem, count } => {
                    let n = ev(self, count)?.scalar().as_i64();
                    if n < 0 {
                        return Err(Trap::OutOfMemory);
                    }
                    let base = self.mem.alloc(elem.size_bytes() * n as u64)?;
                    Ok(Some(RtVal::Scalar(Scalar::ptr(base))))
                }
                InstKind::Load { ptr } => {
                    let addr = ev(self, ptr)?.scalar().as_u64();
                    let addr = self.fault_addr(addr);
                    match ty {
                        Type::Scalar(s) => Ok(Some(RtVal::Scalar(self.mem.read_scalar(s, addr)?))),
                        Type::Vector(s, n) => {
                            let mut lanes = Vec::with_capacity(n as usize);
                            for i in 0..n as u64 {
                                lanes.push(self.mem.read_scalar(s, addr + i * s.bytes())?);
                            }
                            Ok(Some(RtVal::from_lanes(s, lanes)))
                        }
                        Type::Void => Err(Trap::EngineFault("load of void type".into())),
                    }
                }
                InstKind::Store { val, ptr } => {
                    let v = ev(self, val)?;
                    let addr = ev(self, ptr)?.scalar().as_u64();
                    let addr = self.fault_addr(addr);
                    match &v {
                        RtVal::Scalar(s) => self.mem.write_scalar(addr, *s)?,
                        RtVal::Vector(e, lanes) => {
                            for (i, &b) in lanes.iter().enumerate() {
                                self.mem.write_scalar(
                                    addr + i as u64 * e.bytes(),
                                    Scalar::new(*e, b),
                                )?;
                            }
                        }
                    }
                    if self.trace.is_some() {
                        let bits = v
                            .lanes()
                            .into_iter()
                            .fold(0, |acc, s| fold_bits(acc, s.bits));
                        self.note_event(TraceEvent::Store { addr, bits });
                    }
                    Ok(None)
                }
                InstKind::Gep { elem, base, index } => {
                    let b = ev(self, base)?.scalar().as_u64();
                    let i = ev(self, index)?.scalar().as_i64();
                    let addr = b.wrapping_add((elem.size_bytes() as i64).wrapping_mul(i) as u64);
                    Ok(Some(RtVal::Scalar(Scalar::ptr(addr))))
                }
                InstKind::ExtractElement { vec, idx } => {
                    let v = ev(self, vec)?;
                    if v.num_lanes() == 0 {
                        return Err(Trap::EngineFault("extractelement from empty vector".into()));
                    }
                    let i = ev(self, idx)?.scalar().as_u64() as usize % v.num_lanes();
                    Ok(Some(RtVal::Scalar(v.lane(i))))
                }
                InstKind::InsertElement { vec, elt, idx } => {
                    let v = ev(self, vec)?;
                    if v.num_lanes() == 0 {
                        return Err(Trap::EngineFault("insertelement into empty vector".into()));
                    }
                    let e = ev(self, elt)?.scalar();
                    let i = ev(self, idx)?.scalar().as_u64() as usize % v.num_lanes();
                    Ok(Some(v.with_lane(i, e)))
                }
                InstKind::ShuffleVector { a, b, mask } => {
                    let va = ev(self, a)?;
                    let vb = ev(self, b)?;
                    let n = va.num_lanes();
                    if n == 0 {
                        return Err(Trap::EngineFault("shufflevector of empty vector".into()));
                    }
                    let elem = va.lane(0).ty;
                    let out: Result<Vec<Scalar>, Trap> = mask
                        .iter()
                        .map(|&mi| {
                            if mi < 0 {
                                Ok(Scalar::new(elem, 0)) // undef lane
                            } else if (mi as usize) < n {
                                Ok(va.lane(mi as usize))
                            } else if (mi as usize) < n + vb.num_lanes() {
                                Ok(vb.lane(mi as usize - n))
                            } else {
                                Err(Trap::EngineFault(format!(
                                    "shufflevector mask index {mi} out of range for {} + {} lanes",
                                    n,
                                    vb.num_lanes()
                                )))
                            }
                        })
                        .collect();
                    Ok(Some(RtVal::from_lanes(elem, out?)))
                }
                InstKind::Phi { .. } => Err(Trap::HostError("phi outside block header".into())),
                InstKind::Call { callee, args } => {
                    let argv: Vec<RtVal> = args
                        .iter()
                        .map(|a| self.eval_operand(f, frame, a))
                        .collect::<Result<_, _>>()?;
                    // Defined function?
                    if let Some(callee_f) = self.module.function(callee) {
                        return self.call_function(callee_f, argv, host, depth + 1);
                    }
                    // Intrinsic?
                    if let Some(intr) = intrinsics::parse(callee) {
                        return self.eval_intrinsic(intr, &argv);
                    }
                    if callee.starts_with("llvm.") {
                        return Err(Trap::UnknownFunction(callee.clone()));
                    }
                    // Host function. Mirror the dynamic-instruction clock into
                    // memory so host environments (e.g. the fault injector)
                    // can timestamp their actions without a wider interface.
                    self.mem.set_host_clock(self.executed);
                    let ret = host.call(callee, &argv, &mut self.mem)?;
                    if ret.is_none() && !ty.is_void() {
                        return Err(Trap::HostError(format!(
                            "host @{callee} returned nothing for a non-void call"
                        )));
                    }
                    Ok(ret)
                }
            }
        }

        fn eval_intrinsic(
            &mut self,
            intr: Intrinsic,
            args: &[RtVal],
        ) -> Result<Option<RtVal>, Trap> {
            let need = |n: usize| -> Result<(), Trap> {
                if args.len() < n {
                    Err(Trap::EngineFault(format!(
                        "intrinsic expects {n} arguments, got {}",
                        args.len()
                    )))
                } else {
                    Ok(())
                }
            };
            match intr {
                Intrinsic::MaskLoad { lanes, elem } => {
                    need(2)?;
                    let addr = self.fault_addr(args[0].scalar().as_u64());
                    let faulted = self.fault_mask(&args[1]);
                    let mask = faulted.as_ref().unwrap_or(&args[1]);
                    let mut out = Vec::with_capacity(lanes as usize);
                    for i in 0..lanes as usize {
                        if mask.lane(i).mask_active() {
                            out.push(self.mem.read_scalar(elem, addr + i as u64 * elem.bytes())?);
                        } else {
                            out.push(Scalar::new(elem, 0));
                        }
                    }
                    Ok(Some(RtVal::from_lanes(elem, out)))
                }
                Intrinsic::MaskStore { lanes, elem } => {
                    need(3)?;
                    let addr = self.fault_addr(args[0].scalar().as_u64());
                    let faulted = self.fault_mask(&args[1]);
                    let mask = faulted.as_ref().unwrap_or(&args[1]);
                    let val = &args[2];
                    for i in 0..lanes as usize {
                        if mask.lane(i).mask_active() {
                            self.mem
                                .write_scalar(addr + i as u64 * elem.bytes(), val.lane(i))?;
                        }
                    }
                    if self.trace.is_some() {
                        // Fold which lanes were active along with their bits,
                        // so a mask flip with identical data still registers.
                        let mut bits = 0;
                        for i in 0..lanes as usize {
                            if mask.lane(i).mask_active() {
                                bits = fold_bits(fold_bits(bits, i as u64), val.lane(i).bits);
                            }
                        }
                        self.note_event(TraceEvent::Store { addr, bits });
                    }
                    Ok(None)
                }
                Intrinsic::Math { op, ty } => {
                    match op {
                        MathOp::Pow | MathOp::MinNum | MathOp::MaxNum => need(2)?,
                        _ => need(1)?,
                    }
                    let elem = ty
                        .elem()
                        .ok_or_else(|| Trap::EngineFault("math intrinsic with void type".into()))?;
                    let unary = |g: fn(f64) -> f64, v: &RtVal| -> RtVal {
                        let mut out = v
                            .lanes()
                            .into_iter()
                            .map(|s| Scalar::from_float(elem, g(s.as_float())));
                        if ty.is_vector() {
                            RtVal::from_lanes(elem, out)
                        } else {
                            RtVal::Scalar(out.next_back().unwrap())
                        }
                    };
                    let binary = |g: fn(f64, f64) -> f64, a: &RtVal, b: &RtVal| -> RtVal {
                        let out: Vec<Scalar> = a
                            .lanes()
                            .into_iter()
                            .zip(b.lanes())
                            .map(|(x, y)| Scalar::from_float(elem, g(x.as_float(), y.as_float())))
                            .collect();
                        if ty.is_vector() {
                            RtVal::from_lanes(elem, out)
                        } else {
                            RtVal::Scalar(out[0])
                        }
                    };
                    let r = match op {
                        MathOp::Sqrt => unary(f64::sqrt, &args[0]),
                        MathOp::Exp => unary(f64::exp, &args[0]),
                        MathOp::Log => unary(f64::ln, &args[0]),
                        MathOp::Sin => unary(f64::sin, &args[0]),
                        MathOp::Cos => unary(f64::cos, &args[0]),
                        MathOp::Fabs => unary(f64::abs, &args[0]),
                        MathOp::Floor => unary(f64::floor, &args[0]),
                        MathOp::Ceil => unary(f64::ceil, &args[0]),
                        MathOp::Pow => binary(f64::powf, &args[0], &args[1]),
                        MathOp::MinNum => binary(f64::min, &args[0], &args[1]),
                        MathOp::MaxNum => binary(f64::max, &args[0], &args[1]),
                    };
                    Ok(Some(r))
                }
                Intrinsic::Movmsk { lanes } => {
                    need(1)?;
                    let mut bits: u64 = 0;
                    for i in 0..lanes as usize {
                        if args[0].lane(i).mask_active() {
                            bits |= 1 << i;
                        }
                    }
                    Ok(Some(RtVal::Scalar(Scalar::i32(bits as i32))))
                }
                Intrinsic::MaskAny { lanes } => {
                    need(1)?;
                    let any = (0..lanes as usize).any(|i| args[0].lane(i).is_true());
                    Ok(Some(RtVal::Scalar(Scalar::i1(any))))
                }
                Intrinsic::MaskAll { lanes } => {
                    need(1)?;
                    let all = (0..lanes as usize).all(|i| args[0].lane(i).is_true());
                    Ok(Some(RtVal::Scalar(Scalar::i1(all))))
                }
            }
        }
    }

    /// Elementwise zip of two register values, same element type as inputs.
    fn zip_lanes(
        a: &RtVal,
        b: &RtVal,
        f: impl Fn(Scalar, Scalar) -> Result<Scalar, Trap>,
    ) -> Result<RtVal, Trap> {
        match (a, b) {
            (RtVal::Scalar(x), RtVal::Scalar(y)) => Ok(RtVal::Scalar(f(*x, *y)?)),
            _ => {
                let elem = a.lane(0).ty;
                let out: Result<Vec<Scalar>, Trap> = a
                    .lanes()
                    .into_iter()
                    .zip(b.lanes())
                    .map(|(x, y)| f(x, y))
                    .collect();
                Ok(RtVal::from_lanes(elem, out?))
            }
        }
    }

    /// Elementwise zip with a different output element type.
    fn zip_lanes_to(
        out_ty: ScalarTy,
        a: &RtVal,
        b: &RtVal,
        f: impl Fn(Scalar, Scalar) -> Result<Scalar, Trap>,
    ) -> Result<RtVal, Trap> {
        match (a, b) {
            (RtVal::Scalar(x), RtVal::Scalar(y)) => Ok(RtVal::Scalar(f(*x, *y)?)),
            _ => {
                let out: Result<Vec<Scalar>, Trap> = a
                    .lanes()
                    .into_iter()
                    .zip(b.lanes())
                    .map(|(x, y)| f(x, y))
                    .collect();
                Ok(RtVal::from_lanes(out_ty, out?))
            }
        }
    }
}

/// One program of the corpus: an instrumented benchmark module.
struct Entry {
    name: String,
    module: Module,
    entry: String,
    workload: usize,
}

struct Corpus {
    workloads: Vec<SpmdWorkload>,
    entries: Vec<Entry>,
}

/// The 9 paper and 3 micro benchmarks × 2 ISAs × 3 site categories.
fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let workloads: Vec<SpmdWorkload> = VectorIsa::ALL
            .into_iter()
            .flat_map(|isa| {
                let mut ws = study_benchmarks(isa, Scale::Test);
                ws.extend(micro_benchmarks(isa, Scale::Test));
                ws
            })
            .collect();
        let mut entries = Vec::new();
        for (wi, w) in workloads.iter().enumerate() {
            for category in [
                SiteCategory::PureData,
                SiteCategory::Control,
                SiteCategory::Address,
            ] {
                let prog = prepare(w, category).expect("benchmarks instrument");
                entries.push(Entry {
                    name: format!("{}/{:?}/{:?}", w.name(), w.isa(), category),
                    module: prog.module,
                    entry: prog.entry,
                    workload: wi,
                });
            }
        }
        Corpus { workloads, entries }
    })
}

/// Corpus program `pick`: instrumented, or, for a case without a host
/// (where the first injection call would trap), the benchmark's
/// uninstrumented module.
fn program(
    pick: usize,
    mode: Mode,
) -> (String, &'static Module, &'static str, &'static SpmdWorkload) {
    let c = corpus();
    let e = &c.entries[pick % c.entries.len()];
    let w = &c.workloads[e.workload];
    match mode {
        Mode::NoHost => (
            format!("{}/{:?}", w.name(), w.isa()),
            w.module(),
            w.entry(),
            w,
        ),
        _ => (e.name.clone(), &e.module, &e.entry, w),
    }
}

/// How a case is driven.
#[derive(Debug, Clone, Copy)]
enum Mode {
    NoHost,
    /// `VulfiHost::inject_model(target, entropy, model)`.
    Value(u64, u64, FaultModel),
    /// A profiling `VulfiHost` beside `EngineInjector::inject(model,
    /// target, entropy)`.
    Engine(EngineModel, u64, u64),
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    let value = (1u64..3000, any::<u64>(), 0u32..4).prop_map(|(t, e, m)| {
        let model = match m {
            0 => FaultModel::SingleBitFlip,
            1 => FaultModel::MultiBitBurst { width: 2 },
            2 => FaultModel::StuckAt {
                bit: 3,
                value: true,
            },
            _ => FaultModel::TemporalPair { gap: 8 },
        };
        Mode::Value(t, e, model)
    });
    let engine = (0u32..3, 1u64..3000, any::<u64>(), 0u32..64).prop_map(|(m, t, e, bit)| {
        let model = match m {
            0 => EngineModel::MaskCorrupt,
            1 => EngineModel::AddressLine { bit },
            _ => EngineModel::MemoryCell,
        };
        Mode::Engine(model, t, e)
    });
    prop_oneof![Just(Mode::NoHost), value, engine]
}

/// A dynamic-instruction budget: often small enough to stop the run.
fn arb_budget() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..60_000, Just(3_000_000u64)]
}

/// Collects every architectural event with its dynamic index.
#[derive(Default)]
struct Events(Vec<(u64, TraceEvent)>);

impl TraceSink for Events {
    fn event(&mut self, dyn_index: u64, ev: TraceEvent) {
        self.0.push((dyn_index, ev));
    }
}

/// The host's observable state after a run.
type HostState = (
    u64,
    Option<InjectionRecord>,
    Option<u64>,
    DetectorStats,
    Option<Vec<(u32, u32)>>,
);

/// Everything one run makes observable.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<ExecResult, Trap>,
    executed: u64,
    outputs: Vec<Result<Vec<u8>, Trap>>,
    allocated: u64,
    events: Vec<(u64, TraceEvent)>,
    host: Option<HostState>,
    engine: Option<(u64, Option<EngineInjection>)>,
    mix: Option<InstMix>,
    hot: Option<Vec<(String, HotLoc, &'static str, u64)>>,
}

/// Run `module` under one interpreter type (both share the method names
/// used here) and collect what it makes observable.
macro_rules! observe {
    ($interp:expr, $module:expr, $entry:expr, $w:expr, $input:expr, $mode:expr, $budget:expr, $profile:expr) => {{
        let mut events = Events::default();
        let mut host = match $mode {
            Mode::NoHost => None,
            Mode::Value(t, e, m) => Some(VulfiHost::inject_model(t, e, m)),
            Mode::Engine(..) => Some(VulfiHost::profile()),
        };
        let mut injector = match $mode {
            Mode::Engine(m, t, e) => Some(EngineInjector::inject(m, t, e)),
            _ => None,
        };
        let mut interp = $interp($module);
        interp.set_budget($budget);
        let setup = $w.setup(&mut interp.mem, $input).expect("setup");
        interp.set_memory_limit(4 << 20);
        interp.set_trace_sink(&mut events);
        if let Some(inj) = injector.as_mut() {
            interp.set_engine_injector(inj);
        }
        if $profile {
            interp.enable_profiling();
            interp.enable_hotspots();
        }
        let result = match host.as_mut() {
            Some(h) => interp.run($entry, &setup.args, h),
            None => interp.run($entry, &setup.args, &mut NoHost),
        };
        let executed = interp.executed();
        let outputs = setup
            .outputs
            .iter()
            .map(|r| interp.mem.snapshot(r.addr, r.bytes))
            .collect();
        let allocated = interp.mem.allocated_bytes();
        let mix = interp.take_mix();
        let hot = interp.take_hotspots().map(|h| {
            h.sites()
                .into_iter()
                .map(|s| (s.func, s.loc, s.opcode, s.count))
                .collect()
        });
        drop(interp);
        Observed {
            result,
            executed,
            outputs,
            allocated,
            events: events.0,
            host: host.map(|h| {
                (
                    h.dynamic_sites,
                    h.injection,
                    h.injection_at,
                    h.detectors,
                    h.site_log,
                )
            }),
            engine: injector.map(|i| (i.events(), i.injection())),
            mix,
            hot,
        }
    }};
}

/// Run `module` on both interpreters and fail on the first difference.
#[allow(clippy::too_many_arguments)]
fn check(
    name: &str,
    module: &Module,
    entry: &str,
    w: &dyn Workload,
    input: u64,
    mode: Mode,
    budget: u64,
    profile: bool,
) -> Result<(), String> {
    let reference = observe!(
        reference::RefInterp::new,
        module,
        entry,
        w,
        input,
        mode,
        budget,
        profile
    );
    let decoded = observe!(Interp::new, module, entry, w, input, mode, budget, profile);
    prop_assert!(
        reference == decoded,
        "{name} input {input} {mode:?} budget {budget}: decoded run differs\nreference: {:?}\ndecoded:   {:?}",
        summary(&reference),
        summary(&decoded)
    );
    Ok(())
}

/// The short form of an observation, for failure messages.
fn summary(o: &Observed) -> String {
    format!(
        "{:?} after {} insts, {} events, host {:?}, engine {:?}",
        o.result.as_ref().map(|r| r.dyn_insts),
        o.executed,
        o.events.len(),
        o.host.as_ref().map(|h| (h.0, &h.1, h.2)),
        o.engine
    )
}

const INT_OPS: [&str; 13] = [
    "add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr", "sdiv", "udiv", "srem", "urem",
];
const FLOAT_OPS: [&str; 5] = ["fadd", "fsub", "fmul", "fdiv", "frem"];
const ICMP_PREDS: [&str; 10] = [
    "eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge",
];
const FCMP_PREDS: [&str; 10] = [
    "oeq", "one", "olt", "ole", "ogt", "oge", "ord", "uno", "ueq", "une",
];
const INTS: [i64; 8] = [-1, 0, 1, 2, 3, 7, 255, 100_000];

/// Apply one random token-level edit to printed IR: an integer literal,
/// an arithmetic opcode or comparison predicate, or a value use.
fn mutate_once(text: &str, rng: &mut PropRng) -> String {
    let tokens: Vec<&str> = text.split(' ').collect();
    let pick = |rng: &mut PropRng, n: usize| rng.below(n as u64) as usize;
    let same_class = |tok: &str, rng: &mut PropRng| -> Option<String> {
        let (word, rest) = tok.split_at(tok.find([',', ')', '\n']).unwrap_or(tok.len()));
        for class in [&INT_OPS[..], &FLOAT_OPS, &ICMP_PREDS, &FCMP_PREDS] {
            if class.contains(&word) {
                return Some(format!("{}{rest}", class[pick(rng, class.len())]));
            }
        }
        if word.parse::<i64>().is_ok() {
            return Some(format!("{}{rest}", INTS[pick(rng, INTS.len())]));
        }
        None
    };
    let values: Vec<&str> = tokens
        .iter()
        .filter(|t| t.starts_with('%') && !t.contains('\n'))
        .map(|t| t.trim_end_matches([',', ')']))
        .collect();
    let mut out: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
    for _ in 0..64 {
        let i = pick(rng, tokens.len());
        let tok = tokens[i];
        let edit = if rng.below(3) == 0 && tok.starts_with('%') && !values.is_empty() {
            let rest = &tok[tok.trim_end_matches([',', ')']).len()..];
            Some(format!("{}{rest}", values[pick(rng, values.len())]))
        } else {
            same_class(tok, rng)
        };
        if let Some(e) = edit {
            out[i] = e;
            break;
        }
    }
    out.join(" ")
}

/// A verifier-accepted mutant of `module` with one to three edits, if
/// one turns up within a few tries.
fn mutant(module: &Module, rng: &mut PropRng) -> Option<Module> {
    let text = vir::printer::print_module(module);
    for _ in 0..32 {
        let mut t = text.clone();
        for _ in 0..1 + rng.below(3) {
            t = mutate_once(&t, rng);
        }
        if t == text {
            continue;
        }
        let Ok(m) = vir::parser::parse_module(&t) else {
            continue;
        };
        if vir::verify::verify_module(&m).is_ok() {
            return Some(m);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every benchmark program, on any input, under any host or engine
    /// fault and budget, runs identically on both interpreters.
    #[test]
    fn decoded_interpreter_matches_reference_on_benchmarks(
        pick in 0usize..1_000_000,
        input in 0u64..64,
        mode in arb_mode(),
        budget in arb_budget(),
        profile: bool,
    ) {
        let (name, module, entry, w) = program(pick, mode);
        let input = input % w.num_inputs().max(1);
        check(&name, module, entry, w, input, mode, budget, profile)?;
    }

    /// The same over verifier-accepted mutants of the benchmarks' printed
    /// IR: changed constants, opcodes, predicates and operands reach
    /// traps, hangs and paths the benchmarks themselves never take.
    #[test]
    fn decoded_interpreter_matches_reference_on_mutants(
        pick in 0usize..1_000_000,
        seed: u64,
        mode in arb_mode(),
        budget in arb_budget(),
        profile: bool,
    ) {
        let (name, module, entry, w) = program(pick, mode);
        let mut rng = PropRng::for_case("mutant", seed as u32);
        if let Some(m) = mutant(module, &mut rng) {
            let name = format!("mutant of {name} (seed {seed})");
            check(&name, &m, entry, w, 0, mode, budget, profile)?;
        }
    }
}
