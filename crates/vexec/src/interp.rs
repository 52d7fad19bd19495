//! The VIR interpreter: a virtual vector machine.
//!
//! Executes one module function (plus anything it calls) against the
//! guarded [`Memory`] model. All "crash" conditions of the paper's outcome
//! taxonomy surface as [`Trap`]s: invalid memory references, division by
//! zero, runaway execution (hang budget), unknown calls.
//!
//! The interpreter runs a [`Program`]: the module decoded once into
//! slot-indexed operands over flat `u64` lane storage (see
//! [`crate::program`]). Each call gets one frame of words in a register
//! arena that is reused across calls and runs, and calls push onto an
//! explicit frame stack instead of recursing, so executing an instruction
//! allocates nothing. [`Interp::new`] decodes its module on construction;
//! [`Interp::with_program`] shares a program decoded earlier, which is how
//! a study decodes each module once for all of its runs.
//!
//! Host functions — VULFI's runtime injection API, the detector runtime,
//! and anything else declared but not defined — are dispatched through the
//! [`HostEnv`] trait, mirroring how an instrumented native binary links
//! against the fault-injection runtime library. [`RtVal`] appears only at
//! that boundary and at [`Interp::run`]'s arguments and result.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vir::intrinsics::MathOp;
use vir::{BinOp, CastOp, FCmpPred, ICmpPred, Module, ScalarTy, Type};

use crate::fault::EngineInjector;
use crate::mem::{Memory, Trap};
use crate::profile::{HotLoc, HotProfile, InstMix};
use crate::program::{Active, DBlock, Func, Op, Program, Slot, Term};
use crate::trace::{fold_bits, TraceEvent, TraceSink};
use crate::value::{RtVal, Scalar};

/// Host-function dispatcher.
pub trait HostEnv {
    /// Handle a call to an external function. Return `Ok(None)` for void
    /// functions. `mem` allows host functions to inspect program memory.
    fn call(&mut self, name: &str, args: &[RtVal], mem: &mut Memory)
        -> Result<Option<RtVal>, Trap>;
}

/// A host environment that rejects every call.
pub struct NoHost;

impl HostEnv for NoHost {
    fn call(&mut self, name: &str, _: &[RtVal], _: &mut Memory) -> Result<Option<RtVal>, Trap> {
        Err(Trap::UnknownFunction(name.to_string()))
    }
}

/// Result of a completed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    pub ret: Option<RtVal>,
    /// Dynamic instruction count (instructions + terminators executed).
    pub dyn_insts: u64,
}

/// Maximum call depth.
const MAX_DEPTH: usize = 64;

/// How many instructions run between wall-clock deadline checks. A power
/// of two so the check compiles to a mask test; large enough that
/// `Instant::now()` never shows up in profiles, small enough that a
/// runaway loop overshoots its deadline by microseconds, not seconds.
const WALL_CHECK_MASK: u64 = (1 << 13) - 1;

/// A suspended caller: where its frame starts and where it resumes.
struct Frame {
    func: usize,
    base: usize,
    block: usize,
    pc: usize,
}

/// The interpreter. One instance executes programs from one module.
pub struct Interp<'m> {
    program: Arc<Program>,
    pub mem: Memory,
    budget: u64,
    executed: u64,
    deadline: Option<Instant>,
    mix: Option<InstMix>,
    hot: Option<HotProfile>,
    trace: Option<&'m mut dyn TraceSink>,
    fault: Option<&'m mut EngineInjector>,
    /// Every live frame's words, innermost last.
    regs: Vec<u64>,
    /// Suspended callers, outermost first.
    frames: Vec<Frame>,
    /// A block's phi results, held until every phi has read its input.
    phi_buf: Vec<u64>,
    /// Host-call arguments, reused call to call.
    host_args: Vec<RtVal>,
    /// A masked intrinsic's mask as the engine injector left it.
    mask_buf: Vec<u64>,
}

impl<'m> Interp<'m> {
    /// An interpreter for `module`, decoding it first.
    pub fn new(module: &'m Module) -> Interp<'m> {
        Interp::with_program(Arc::new(Program::decode(module)))
    }

    /// An interpreter for an already decoded program.
    pub fn with_program(program: Arc<Program>) -> Interp<'m> {
        let words = program.max_frame;
        Interp {
            program,
            mem: Memory::default(),
            budget: u64::MAX / 2,
            executed: 0,
            deadline: None,
            mix: None,
            hot: None,
            trace: None,
            fault: None,
            regs: Vec::with_capacity(words),
            frames: Vec::new(),
            phi_buf: Vec::new(),
            host_args: Vec::new(),
            mask_buf: Vec::new(),
        }
    }

    /// Install an engine-level fault injector (see [`crate::fault`]).
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

    /// Route the `lanes`-word mask register at `at` through the engine
    /// injector. True when it did, leaving the mask to use in
    /// `mask_buf`; false (and no copy) when no injector is installed.
    fn fault_mask(&mut self, at: usize, lanes: usize, elem: ScalarTy) -> bool {
        let Some(inj) = self.fault.as_deref_mut() else {
            return false;
        };
        self.mask_buf.clear();
        self.mask_buf.extend_from_slice(&self.regs[at..at + lanes]);
        inj.on_mask_lanes(self.executed, elem, &mut self.mask_buf);
        true
    }

    /// Install an architectural-event observer (see [`crate::trace`]).
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
    /// wall-time attribution (see [`HotProfile`]). Independent of
    /// [`Interp::enable_profiling`]; both may be on at once. Like the
    /// mix and the trace sink, the hooks are purely observational —
    /// execution stays bit-identical (property-tested below).
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

    /// Profile instruction `pc` of function `fi` (frame at `base`) before
    /// it executes.
    fn note_inst(&mut self, fi: usize, f: &Func, pc: usize, base: usize) {
        let m = &f.meta[pc];
        if let Some(hot) = &mut self.hot {
            hot.record(fi, &f.name, HotLoc::Inst(m.iid), m.opcode);
        }
        let Some(mix) = &mut self.mix else {
            return;
        };
        if !m.is_vec {
            mix.record(m.opcode, false);
            return;
        }
        // Active-lane count: masked memory ops consult their mask operand
        // and vector selects their condition; everything else executes all
        // lanes. Purely observational: reads already computed operands.
        let lanes = |off: u32, n: u32| &self.regs[base + off as usize..][..n as usize];
        let active = match m.active {
            Active::Full => m.width,
            Active::Mask { off, n, elem } => lanes(off, n)
                .iter()
                .filter(|&&w| Scalar::new(elem, w).mask_active())
                .count() as u32,
            // Select semantics test lane bit 0 (see `exec_op`), not the
            // sign bit the AVX mask convention uses.
            Active::Cond { off, n } => lanes(off, n).iter().filter(|&&w| w & 1 == 1).count() as u32,
        };
        mix.record_vector_lanes(m.opcode, active.min(m.width), m.width);
    }

    fn note_term(&mut self, fi: usize, f: &Func, block: usize, opcode: &'static str) {
        if let Some(hot) = &mut self.hot {
            hot.record(fi, &f.name, HotLoc::Term(block as u32), opcode);
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

    /// Arm the wall-clock watchdog: execution trap with
    /// [`Trap::WallClock`] once `limit` of real time has elapsed
    /// (checked every few thousand instructions). Unlike the instruction
    /// budget this is **not deterministic** — it exists as a last-resort
    /// containment bound for faulted executions whose per-instruction
    /// cost explodes (e.g. allocation churn), and should be set
    /// generously above any plausible honest runtime.
    pub fn set_wall_limit(&mut self, limit: Duration) {
        self.deadline = Some(Instant::now() + limit);
    }

    /// Cap the simulated memory: allocations beyond `bytes` trap with
    /// [`Trap::OutOfMemory`]. Convenience forwarding to
    /// [`Memory::set_limit`].
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
        let program = Arc::clone(&self.program);
        let fi = program
            .function(func)
            .ok_or_else(|| Trap::UnknownFunction(func.to_string()))?;
        let f = &program.funcs[fi];
        if f.n_params != args.len() {
            return Err(Trap::HostError(format!(
                "@{func} expects {} arguments, got {}",
                f.n_params,
                args.len()
            )));
        }
        if args.len() > f.arg_slots.len() {
            return Err(too_few_slots(f, args.len()));
        }
        self.regs.clear();
        self.frames.clear();
        self.regs.extend_from_slice(&f.frame);
        for (a, s) in args.iter().zip(&f.arg_slots) {
            let at = s.off as usize;
            store_val(&mut self.regs[at..at + s.lanes()], s.ty, a);
        }
        let ret = self.exec(&program, fi, host)?;
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
        if self.executed & WALL_CHECK_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(Trap::WallClock);
                }
            }
        }
        if let Some(inj) = self.fault.as_deref_mut() {
            inj.on_step(self.executed, &mut self.mem);
        }
        Ok(())
    }

    /// Run function `fi`, whose frame the caller has set up at the bottom
    /// of the arena, to its return.
    fn exec(
        &mut self,
        prog: &Program,
        mut fi: usize,
        host: &mut dyn HostEnv,
    ) -> Result<Option<RtVal>, Trap> {
        let observe = self.mix.is_some() || self.hot.is_some();
        let mut base = 0;
        let mut block = 0;
        let mut prev = None;
        'enter: loop {
            // Enter `block` of `fi` from `prev`: phis read the incoming
            // frame all at once, then the body starts.
            let f = &prog.funcs[fi];
            let b = &f.blocks[block];
            self.phis(fi, f, b, base, prev, observe)?;
            let mut pc = b.body as usize;
            'resume: loop {
                let f = &prog.funcs[fi];
                let b = &f.blocks[block];
                while pc < b.end as usize {
                    self.tick()?;
                    if observe {
                        self.note_inst(fi, f, pc, base);
                    }
                    let inst = &f.insts[pc];
                    if let Op::Call { func, args, .. } = inst.op {
                        if self.frames.len() + 1 >= MAX_DEPTH {
                            return Err(Trap::StackOverflow);
                        }
                        let callee = &prog.funcs[func as usize];
                        if args.len as usize > callee.arg_slots.len() {
                            return Err(too_few_slots(callee, args.len as usize));
                        }
                        let new_base = self.regs.len();
                        self.regs.extend_from_slice(&callee.frame);
                        for (a, p) in f.pool[args.range()].iter().zip(&callee.arg_slots) {
                            let src = base + a.off as usize;
                            let n = a.lanes().min(p.lanes());
                            self.regs
                                .copy_within(src..src + n, new_base + p.off as usize);
                        }
                        self.frames.push(Frame {
                            func: fi,
                            base,
                            block,
                            pc: pc + 1,
                        });
                        (fi, base, block, prev) = (func as usize, new_base, 0, None);
                        continue 'enter;
                    }
                    self.exec_op(f, &inst.op, inst.dst as usize, base, host)?;
                    pc += 1;
                }

                self.tick()?;
                match b.term {
                    Term::Br(t) => {
                        if observe {
                            self.note_term(fi, f, block, "br");
                        }
                        (prev, block) = (Some(block), t as usize);
                        continue 'enter;
                    }
                    Term::CondBr {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        if observe {
                            self.note_term(fi, f, block, "condbr");
                        }
                        let taken = self.regs[base + cond as usize] & 1 == 1;
                        prev = Some(block);
                        block = if taken { on_true } else { on_false } as usize;
                        self.note_event(TraceEvent::Branch {
                            block: block as u32,
                        });
                        continue 'enter;
                    }
                    Term::Ret(ret) => {
                        if observe {
                            self.note_term(fi, f, block, "ret");
                        }
                        let Some(caller) = self.frames.pop() else {
                            return Ok(ret.map(|s| load_val(&self.regs, base, s)));
                        };
                        let call = &prog.funcs[caller.func].insts[caller.pc - 1];
                        if let Op::Call { result: true, .. } = call.op {
                            let s = ret.ok_or_else(|| {
                                Trap::HostError("non-void instruction produced no value".into())
                            })?;
                            let src = base + s.off as usize;
                            self.regs
                                .copy_within(src..src + s.lanes(), caller.base + call.dst as usize);
                        }
                        self.regs.truncate(base);
                        (fi, base, block, pc) = (caller.func, caller.base, caller.block, caller.pc);
                        continue 'resume;
                    }
                    Term::Unreachable => return Err(Trap::Unreachable),
                    Term::Trap(ref t) => return Err((**t).clone()),
                }
            }
        }
    }

    /// Execute block `b`'s phis, entered from `prev`.
    fn phis(
        &mut self,
        fi: usize,
        f: &Func,
        b: &DBlock,
        base: usize,
        prev: Option<usize>,
        observe: bool,
    ) -> Result<(), Trap> {
        if b.start == b.body {
            return Ok(());
        }
        self.phi_buf.clear();
        for pc in b.start as usize..b.body as usize {
            self.tick()?;
            if observe {
                self.note_inst(fi, f, pc, base);
            }
            let (arms, n) = match &f.insts[pc].op {
                Op::Phi { arms, n } => (*arms, *n as usize),
                Op::Trap(t) => return Err((**t).clone()),
                _ => return Err(Trap::EngineFault("non-phi in a block header".into())),
            };
            let pb = prev.ok_or_else(|| Trap::HostError("phi in entry block at runtime".into()))?;
            let &(_, src) = f.arms[arms.range()]
                .iter()
                .find(|(p, _)| *p as usize == pb)
                .ok_or_else(|| Trap::HostError("phi missing incoming edge".into()))?;
            let src = base + src as usize;
            self.phi_buf.extend_from_slice(&self.regs[src..src + n]);
        }
        let mut k = 0;
        for inst in &f.insts[b.start as usize..b.body as usize] {
            if let Op::Phi { n, .. } = inst.op {
                let dst = base + inst.dst as usize;
                let n = n as usize;
                self.regs[dst..dst + n].copy_from_slice(&self.phi_buf[k..k + n]);
                k += n;
            }
        }
        Ok(())
    }

    /// Execute one non-call instruction of `f` writing at `dst`, in the
    /// frame at `base`.
    fn exec_op(
        &mut self,
        f: &Func,
        op: &Op,
        dst: usize,
        base: usize,
        host: &mut dyn HostEnv,
    ) -> Result<(), Trap> {
        let at = |off: u32| base + off as usize;
        let dst = base + dst;
        let r = &mut self.regs;
        match *op {
            Op::Bin { op, ty, n, a, b } => {
                for i in 0..n as usize {
                    let x = Scalar::new(ty, r[at(a) + i]);
                    let y = Scalar::new(ty, r[at(b) + i]);
                    r[dst + i] = eval_bin(op, x, y)?.bits;
                }
            }
            Op::ICmp { pred, ty, n, a, b } => {
                for i in 0..n as usize {
                    let x = Scalar::new(ty, r[at(a) + i]);
                    let y = Scalar::new(ty, r[at(b) + i]);
                    r[dst + i] = eval_icmp(pred, x, y) as u64;
                }
            }
            Op::FCmp { pred, ty, n, a, b } => {
                for i in 0..n as usize {
                    let x = Scalar::new(ty, r[at(a) + i]);
                    let y = Scalar::new(ty, r[at(b) + i]);
                    r[dst + i] = eval_fcmp(pred, x, y) as u64;
                }
            }
            Op::Select { c, t, e, n } => {
                let src = if r[at(c)] & 1 == 1 { at(t) } else { at(e) };
                r.copy_within(src..src + n as usize, dst);
            }
            Op::SelectLanes { c, t, e, n } => {
                for i in 0..n as usize {
                    let arm = if r[at(c) + i] & 1 == 1 { t } else { e };
                    r[dst + i] = r[at(arm) + i];
                }
            }
            Op::Cast { op, from, to, n, v } => {
                for i in 0..n as usize {
                    r[dst + i] = eval_cast(op, Scalar::new(from, r[at(v) + i]), to).bits;
                }
            }
            Op::Alloca {
                size,
                count,
                count_ty,
            } => {
                let n = Scalar::new(count_ty, r[at(count)]).as_i64();
                if n < 0 {
                    return Err(Trap::OutOfMemory);
                }
                let p = self.mem.alloc(size.wrapping_mul(n as u64))?;
                self.regs[dst] = p;
            }
            Op::Load { ty, n, vector, ptr } => {
                let addr = self.fault_addr(self.regs[at(ptr)]);
                let out = &mut self.regs[dst..dst + n as usize];
                if vector {
                    self.mem.read_lanes(ty, addr, out)?;
                } else {
                    out[0] = self.mem.read_scalar(ty, addr)?.bits;
                }
            }
            Op::Store { ty, n, val, ptr } => {
                let addr = self.fault_addr(self.regs[at(ptr)]);
                let v = &self.regs[at(val)..at(val) + n as usize];
                self.mem.write_lanes(ty, addr, v)?;
                if self.trace.is_some() {
                    let bits = v.iter().fold(0, |acc, &w| fold_bits(acc, w));
                    self.note_event(TraceEvent::Store { addr, bits });
                }
            }
            Op::Gep {
                size,
                base: b,
                index,
                index_ty,
            } => {
                let i = Scalar::new(index_ty, r[at(index)]).as_i64();
                r[dst] = r[at(b)].wrapping_add((size as i64).wrapping_mul(i) as u64);
            }
            Op::Extract { n, vec, idx } => {
                let i = r[at(idx)] as usize % n as usize;
                r[dst] = r[at(vec) + i];
            }
            Op::Insert { n, vec, elt, idx } => {
                let i = r[at(idx)] as usize % n as usize;
                r.copy_within(at(vec)..at(vec) + n as usize, dst);
                r[dst + i] = r[at(elt)];
            }
            Op::Shuffle { srcs } => {
                for (k, s) in f.pool[srcs.range()].iter().enumerate() {
                    r[dst + k] = r[at(s.off)];
                }
            }
            Op::Host { name, args, ret } => {
                // Reuse the argument vector, and each vector argument's
                // lane buffer, from the previous host call.
                let mut argv = std::mem::take(&mut self.host_args);
                argv.truncate(args.len as usize);
                for (k, s) in f.pool[args.range()].iter().enumerate() {
                    let words = &self.regs[at(s.off)..at(s.off) + s.lanes()];
                    match argv.get_mut(k) {
                        Some(v) => refill_val(v, s.ty, words),
                        None => argv.push(new_val(s.ty, words)),
                    }
                }
                // Mirror the dynamic-instruction clock into memory so host
                // environments (e.g. the fault injector) can timestamp
                // their actions without a wider interface.
                self.mem.set_host_clock(self.executed);
                let callee = &f.names[name as usize];
                let out = host.call(callee, &argv, &mut self.mem);
                self.host_args = argv;
                match out? {
                    // A void call's value, if any, is dropped.
                    Some(v) => store_val(&mut self.regs[dst..dst + ret.lanes() as usize], ret, &v),
                    None if !ret.is_void() => {
                        return Err(Trap::HostError(format!(
                            "host @{callee} returned nothing for a non-void call"
                        )));
                    }
                    None => {}
                }
            }
            Op::MaskLoad {
                lanes,
                elem,
                ptr,
                mask,
            } => {
                let addr = self.fault_addr(self.regs[at(ptr)]);
                let faulted = self.fault_mask(at(mask), lanes as usize, elem);
                for i in 0..lanes as usize {
                    let m = if faulted {
                        self.mask_buf[i]
                    } else {
                        self.regs[at(mask) + i]
                    };
                    self.regs[dst + i] = if Scalar::new(elem, m).mask_active() {
                        let a = addr.wrapping_add(i as u64 * elem.bytes());
                        self.mem.read_scalar(elem, a)?.bits
                    } else {
                        0
                    };
                }
            }
            Op::MaskStore {
                lanes,
                elem,
                ptr,
                mask,
                val,
            } => {
                let addr = self.fault_addr(self.regs[at(ptr)]);
                let faulted = self.fault_mask(at(mask), lanes as usize, elem);
                let mut bits = 0;
                for i in 0..lanes as usize {
                    let m = if faulted {
                        self.mask_buf[i]
                    } else {
                        self.regs[at(mask) + i]
                    };
                    if Scalar::new(elem, m).mask_active() {
                        let v = Scalar::new(elem, self.regs[at(val) + i]);
                        let a = addr.wrapping_add(i as u64 * elem.bytes());
                        self.mem.write_scalar(a, v)?;
                        // Fold which lanes were active along with their
                        // bits, so a mask flip with identical data still
                        // registers.
                        bits = fold_bits(fold_bits(bits, i as u64), v.bits);
                    }
                }
                if self.trace.is_some() {
                    self.note_event(TraceEvent::Store { addr, bits });
                }
            }
            Op::Math { op, elem, n, a, b } => {
                for i in 0..n as usize {
                    let x = Scalar::new(elem, r[at(a) + i]).as_float();
                    let y = Scalar::new(elem, r[at(b) + i]).as_float();
                    r[dst + i] = Scalar::from_float(elem, eval_math(op, x, y)).bits;
                }
            }
            Op::Movmsk { lanes, v } => {
                let mut bits: u64 = 0;
                for i in 0..lanes as usize {
                    if Scalar::new(ScalarTy::F32, r[at(v) + i]).mask_active() {
                        bits |= 1 << i;
                    }
                }
                r[dst] = Scalar::i32(bits as i32).bits;
            }
            Op::MaskAny { lanes, v } => {
                r[dst] = r[at(v)..at(v) + lanes as usize].iter().any(|w| w & 1 == 1) as u64;
            }
            Op::MaskAll { lanes, v } => {
                r[dst] = r[at(v)..at(v) + lanes as usize].iter().all(|w| w & 1 == 1) as u64;
            }
            Op::Phi { .. } => return Err(Trap::HostError("phi outside block header".into())),
            Op::Call { .. } => {
                return Err(Trap::EngineFault("call dispatched as a plain op".into()))
            }
            Op::Trap(ref t) => return Err((**t).clone()),
        }
        Ok(())
    }
}

fn too_few_slots(f: &Func, args: usize) -> Trap {
    Trap::EngineFault(format!(
        "call to @{} with {args} arguments but only {} value slots",
        f.name,
        f.arg_slots.len()
    ))
}

/// Lane `i` of a host value, zero past its end.
fn lane_word(v: &RtVal, i: usize) -> u64 {
    match v {
        RtVal::Scalar(s) if i == 0 => s.bits,
        RtVal::Scalar(_) => 0,
        RtVal::Vector(_, ws) => ws.get(i).copied().unwrap_or(0),
    }
}

/// Write a host value into `out`, lane by lane, masked to `ty`'s element
/// width (nothing for `void`).
fn store_val(out: &mut [u64], ty: Type, v: &RtVal) {
    let mask = ty.elem().map_or(0, ScalarTy::bit_mask);
    for (i, w) in out.iter_mut().enumerate() {
        *w = lane_word(v, i) & mask;
    }
}

/// Slot `s` of the frame at `base` as a host value.
fn load_val(regs: &[u64], base: usize, s: Slot) -> RtVal {
    let at = base + s.off as usize;
    new_val(s.ty, &regs[at..at + s.lanes()])
}

fn new_val(ty: Type, words: &[u64]) -> RtVal {
    match ty {
        Type::Vector(e, _) => RtVal::Vector(e, words.to_vec()),
        _ => RtVal::Scalar(Scalar::new(ty.elem().unwrap_or(ScalarTy::I64), words[0])),
    }
}

/// Overwrite `v` with `words` of type `ty`, reusing its lane buffer.
fn refill_val(v: &mut RtVal, ty: Type, words: &[u64]) {
    match (v, ty) {
        (RtVal::Vector(e, ws), Type::Vector(elem, _)) => {
            *e = elem;
            ws.clear();
            ws.extend_from_slice(words);
        }
        (v, _) => *v = new_val(ty, words),
    }
}

/// One elementwise math intrinsic lane; `y` is ignored by unary ops.
fn eval_math(op: MathOp, x: f64, y: f64) -> f64 {
    match op {
        MathOp::Sqrt => x.sqrt(),
        MathOp::Exp => x.exp(),
        MathOp::Log => x.ln(),
        MathOp::Sin => x.sin(),
        MathOp::Cos => x.cos(),
        MathOp::Fabs => x.abs(),
        MathOp::Floor => x.floor(),
        MathOp::Ceil => x.ceil(),
        MathOp::Pow => x.powf(y),
        MathOp::MinNum => x.min(y),
        MathOp::MaxNum => x.max(y),
    }
}

/// One scalar binary operation. Integer ops wrap; division by zero traps;
/// shift amounts at or beyond the width produce 0 (sign-fill for `ashr`),
/// giving bit-flipped shift amounts a *defined* faulty semantics instead of
/// UB.
pub fn eval_bin(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, Trap> {
    let ty = a.ty;
    let bits = ty.bits();
    let out = match op {
        BinOp::Add => a.bits.wrapping_add(b.bits),
        BinOp::Sub => a.bits.wrapping_sub(b.bits),
        BinOp::Mul => a.bits.wrapping_mul(b.bits),
        BinOp::SDiv => {
            if b.as_i64() == 0 {
                return Err(Trap::DivByZero);
            }
            a.as_i64().wrapping_div(b.as_i64()) as u64
        }
        BinOp::UDiv => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            a.bits / b.bits
        }
        BinOp::SRem => {
            if b.as_i64() == 0 {
                return Err(Trap::DivByZero);
            }
            a.as_i64().wrapping_rem(b.as_i64()) as u64
        }
        BinOp::URem => {
            if b.bits == 0 {
                return Err(Trap::DivByZero);
            }
            a.bits % b.bits
        }
        BinOp::And => a.bits & b.bits,
        BinOp::Or => a.bits | b.bits,
        BinOp::Xor => a.bits ^ b.bits,
        BinOp::Shl => {
            let amt = b.bits;
            if amt >= bits as u64 {
                0
            } else {
                a.bits << amt
            }
        }
        BinOp::LShr => {
            let amt = b.bits;
            if amt >= bits as u64 {
                0
            } else {
                a.bits >> amt
            }
        }
        BinOp::AShr => {
            let amt = b.bits;
            if amt >= bits as u64 {
                if a.as_i64() < 0 {
                    u64::MAX
                } else {
                    0
                }
            } else {
                (a.as_i64() >> amt) as u64
            }
        }
        BinOp::FAdd => return Ok(Scalar::from_float(ty, a.as_float() + b.as_float())),
        BinOp::FSub => return Ok(Scalar::from_float(ty, a.as_float() - b.as_float())),
        BinOp::FMul => return Ok(Scalar::from_float(ty, a.as_float() * b.as_float())),
        BinOp::FDiv => return Ok(Scalar::from_float(ty, a.as_float() / b.as_float())),
        BinOp::FRem => return Ok(Scalar::from_float(ty, a.as_float() % b.as_float())),
    };
    Ok(Scalar::new(ty, out))
}

/// One scalar integer comparison.
pub fn eval_icmp(pred: ICmpPred, a: Scalar, b: Scalar) -> bool {
    match pred {
        ICmpPred::Eq => a.bits == b.bits,
        ICmpPred::Ne => a.bits != b.bits,
        ICmpPred::Slt => a.as_i64() < b.as_i64(),
        ICmpPred::Sle => a.as_i64() <= b.as_i64(),
        ICmpPred::Sgt => a.as_i64() > b.as_i64(),
        ICmpPred::Sge => a.as_i64() >= b.as_i64(),
        ICmpPred::Ult => a.bits < b.bits,
        ICmpPred::Ule => a.bits <= b.bits,
        ICmpPred::Ugt => a.bits > b.bits,
        ICmpPred::Uge => a.bits >= b.bits,
    }
}

/// One scalar float comparison.
pub fn eval_fcmp(pred: FCmpPred, a: Scalar, b: Scalar) -> bool {
    let (x, y) = (a.as_float(), b.as_float());
    let unordered = x.is_nan() || y.is_nan();
    match pred {
        FCmpPred::Oeq => !unordered && x == y,
        FCmpPred::One => !unordered && x != y,
        FCmpPred::Olt => !unordered && x < y,
        FCmpPred::Ole => !unordered && x <= y,
        FCmpPred::Ogt => !unordered && x > y,
        FCmpPred::Oge => !unordered && x >= y,
        FCmpPred::Ord => !unordered,
        FCmpPred::Uno => unordered,
        FCmpPred::Ueq => unordered || x == y,
        FCmpPred::Une => unordered || x != y,
    }
}

/// One scalar cast. Out-of-range `fptosi` (including NaN) produces 0 — a
/// defined semantics so that bit-flipped floats keep execution
/// deterministic.
pub fn eval_cast(op: CastOp, v: Scalar, to: ScalarTy) -> Scalar {
    match op {
        CastOp::Trunc | CastOp::Bitcast | CastOp::PtrToInt | CastOp::IntToPtr | CastOp::ZExt => {
            Scalar::new(to, v.bits)
        }
        CastOp::SExt => Scalar::new(to, v.as_i64() as u64),
        CastOp::FpToSi => {
            let f = v.as_float();
            let i = if f.is_nan() || f < i64::MIN as f64 || f > i64::MAX as f64 {
                0
            } else {
                f as i64
            };
            Scalar::new(to, i as u64)
        }
        CastOp::SiToFp => Scalar::from_float(to, v.as_i64() as f64),
        CastOp::FpExt | CastOp::FpTrunc => Scalar::from_float(to, v.as_float()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vir::parser::parse_module;

    fn run_i32(src: &str, func: &str, args: &[RtVal]) -> Result<i64, Trap> {
        let m = parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp.run(func, args, &mut NoHost)?;
        Ok(r.ret.unwrap().scalar().as_i64())
    }

    #[test]
    fn runs_sum_loop() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;
        assert_eq!(
            run_i32(src, "sum", &[RtVal::Scalar(Scalar::i32(10))]).unwrap(),
            45
        );
        assert_eq!(
            run_i32(src, "sum", &[RtVal::Scalar(Scalar::i32(0))]).unwrap(),
            0
        );
    }

    #[test]
    fn vector_arithmetic_elementwise() {
        let src = r#"
define <4 x i32> @vadd(<4 x i32> %a, <4 x i32> %b) {
entry:
  %s = add <4 x i32> %a, %b
  ret <4 x i32> %s
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let a = RtVal::from_lanes(ScalarTy::I32, (0..4).map(Scalar::i32));
        let b = RtVal::from_lanes(ScalarTy::I32, (10..14).map(Scalar::i32));
        let r = interp.run("vadd", &[a, b], &mut NoHost).unwrap();
        let lanes: Vec<i64> = r.ret.unwrap().lanes().iter().map(|s| s.as_i64()).collect();
        assert_eq!(lanes, vec![10, 12, 14, 16]);
    }

    #[test]
    fn div_by_zero_traps() {
        let src = r#"
define i32 @d(i32 %a, i32 %b) {
entry:
  %q = sdiv i32 %a, %b
  ret i32 %q
}
"#;
        let e = run_i32(
            src,
            "d",
            &[RtVal::Scalar(Scalar::i32(1)), RtVal::Scalar(Scalar::i32(0))],
        );
        assert_eq!(e, Err(Trap::DivByZero));
    }

    #[test]
    fn hang_budget_traps() {
        let src = r#"
define void @spin() {
entry:
  br label %entry2
entry2:
  br label %entry2
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.set_budget(1000);
        let e = interp.run("spin", &[], &mut NoHost);
        assert_eq!(e.unwrap_err(), Trap::HangBudget);
    }

    #[test]
    fn wall_clock_watchdog_traps_infinite_loop() {
        let src = r#"
define void @spin() {
entry:
  br label %entry2
entry2:
  br label %entry2
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        // Budget effectively unbounded: only the wall clock can stop this.
        interp.set_wall_limit(std::time::Duration::from_millis(20));
        let started = std::time::Instant::now();
        let e = interp.run("spin", &[], &mut NoHost);
        assert_eq!(e.unwrap_err(), Trap::WallClock);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "watchdog must fire promptly"
        );
    }

    #[test]
    fn memory_ceiling_traps_alloca() {
        let src = r#"
define void @gulp(i32 %n) {
entry:
  %p = alloca float, i32 %n
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.set_memory_limit(1024);
        let e = interp.run("gulp", &[RtVal::Scalar(Scalar::i32(4096))], &mut NoHost);
        assert_eq!(e.unwrap_err(), Trap::OutOfMemory);
        // Under the ceiling, the same program is fine.
        let mut interp = Interp::new(&m);
        interp.set_memory_limit(1024);
        interp
            .run("gulp", &[RtVal::Scalar(Scalar::i32(8))], &mut NoHost)
            .unwrap();
    }

    #[test]
    fn engine_faults_trap_instead_of_panicking() {
        // A call with mismatched arity inside the module (bypassing the
        // top-level arity check) must trap, not panic.
        let src = r#"
define i32 @callee(i32 %a) {
entry:
  ret i32 %a
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        // Top-level arity mismatch is a HostError (caller bug)...
        let e = interp.run("callee", &[], &mut NoHost);
        assert!(matches!(e, Err(Trap::HostError(_))));
        // ...but an intrinsic short on arguments is an EngineFault.
        let short = parse_module(
            "define float @s() {\nentry:\n  %r = call float @llvm.sqrt.f32()\n  ret float %r\n}\n",
        )
        .unwrap();
        let e = Interp::new(&short).run("s", &[], &mut NoHost);
        assert!(matches!(e, Err(Trap::EngineFault(_))), "{e:?}");
    }

    #[test]
    fn oversized_frames_trap_instead_of_allocating() {
        // A million-lane value would need a frame far past the decoder's
        // limit: the function decodes to a trap, not a giant allocation.
        let src = "define void @f() {\nentry:\n  %v = add <1000000 x i8> zeroinitializer, zeroinitializer\n  ret void\n}\n";
        let m = parse_module(src).unwrap();
        let e = Interp::new(&m).run("f", &[], &mut NoHost);
        assert!(matches!(e, Err(Trap::EngineFault(_))), "{e:?}");
    }

    #[test]
    fn memory_ops_and_gep() {
        let src = r#"
define i32 @second(ptr %a) {
entry:
  %p = getelementptr i32, ptr %a, i32 1
  %v = load i32, ptr %p
  ret i32 %v
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_i32_slice(&[7, 42, 9]).unwrap();
        let r = interp
            .run("second", &[RtVal::Scalar(Scalar::ptr(base))], &mut NoHost)
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 42);
    }

    #[test]
    fn oob_load_traps() {
        let src = r#"
define i32 @past(ptr %a) {
entry:
  %p = getelementptr i32, ptr %a, i32 100
  %v = load i32, ptr %p
  ret i32 %v
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_i32_slice(&[1, 2, 3]).unwrap();
        let e = interp.run("past", &[RtVal::Scalar(Scalar::ptr(base))], &mut NoHost);
        assert!(matches!(e, Err(Trap::OutOfBounds { .. })));
    }

    #[test]
    fn masked_load_skips_inactive_lanes_and_oob() {
        // Mask covers only the first 2 lanes; the other 6 would be OOB but
        // must not be touched — the whole point of masked tails.
        let src = r#"
declare <8 x float> @llvm.x86.avx.maskload.ps.256(ptr, <8 x float>)

define <8 x float> @tail(ptr %a, <8 x float> %m) {
entry:
  %v = call <8 x float> @llvm.x86.avx.maskload.ps.256(ptr %a, <8 x float> %m)
  ret <8 x float> %v
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_f32_slice(&[1.5, 2.5]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if i < 2 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let r = interp
            .run(
                "tail",
                &[RtVal::Scalar(Scalar::ptr(base)), mask],
                &mut NoHost,
            )
            .unwrap();
        let lanes = r.ret.unwrap();
        assert_eq!(lanes.lane(0).as_f32(), 1.5);
        assert_eq!(lanes.lane(1).as_f32(), 2.5);
        for i in 2..8 {
            assert_eq!(lanes.lane(i).as_f32(), 0.0);
        }
    }

    #[test]
    fn masked_store_writes_only_active_lanes() {
        let src = r#"
declare void @llvm.x86.avx.maskstore.ps.256(ptr, <8 x float>, <8 x float>)

define void @st(ptr %a, <8 x float> %m, <8 x float> %v) {
entry:
  call void @llvm.x86.avx.maskstore.ps.256(ptr %a, <8 x float> %m, <8 x float> %v)
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let base = interp.mem.alloc_f32_slice(&[0.0; 8]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if i % 2 == 0 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let val = RtVal::from_lanes(ScalarTy::F32, (0..8).map(|i| Scalar::f32(i as f32 + 1.0)));
        interp
            .run(
                "st",
                &[RtVal::Scalar(Scalar::ptr(base)), mask, val],
                &mut NoHost,
            )
            .unwrap();
        let out = interp.mem.read_f32_slice(base, 8).unwrap();
        assert_eq!(out, vec![1.0, 0.0, 3.0, 0.0, 5.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn math_intrinsics() {
        let src = r#"
define float @hyp(float %a, float %b) {
entry:
  %aa = fmul float %a, %a
  %bb = fmul float %b, %b
  %s = fadd float %aa, %bb
  %r = call float @llvm.sqrt.f32(float %s)
  ret float %r
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run(
                "hyp",
                &[
                    RtVal::Scalar(Scalar::f32(3.0)),
                    RtVal::Scalar(Scalar::f32(4.0)),
                ],
                &mut NoHost,
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_f32(), 5.0);
    }

    #[test]
    fn function_calls_and_recursion_limit() {
        let src = r#"
define i32 @inc(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define i32 @twice(i32 %x) {
entry:
  %a = call i32 @inc(i32 %x)
  %b = call i32 @inc(i32 %a)
  ret i32 %b
}

define i32 @forever(i32 %x) {
entry:
  %r = call i32 @forever(i32 %x)
  ret i32 %r
}
"#;
        assert_eq!(
            run_i32(src, "twice", &[RtVal::Scalar(Scalar::i32(5))]).unwrap(),
            7
        );
        let e = run_i32(src, "forever", &[RtVal::Scalar(Scalar::i32(5))]);
        assert_eq!(e, Err(Trap::StackOverflow));
    }

    #[test]
    fn host_calls_dispatch() {
        struct Doubler;
        impl HostEnv for Doubler {
            fn call(
                &mut self,
                name: &str,
                args: &[RtVal],
                _mem: &mut Memory,
            ) -> Result<Option<RtVal>, Trap> {
                assert_eq!(name, "ext.double");
                Ok(Some(RtVal::Scalar(Scalar::i32(
                    args[0].scalar().as_i64() as i32 * 2,
                ))))
            }
        }
        let src = r#"
declare i32 @ext.double(i32)

define i32 @f(i32 %x) {
entry:
  %r = call i32 @ext.double(i32 %x)
  ret i32 %r
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run("f", &[RtVal::Scalar(Scalar::i32(21))], &mut Doubler)
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 42);
    }

    #[test]
    fn dyn_inst_count_is_deterministic() {
        let src = r#"
define i32 @sum(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret i32 %acc
}
"#;
        let m = parse_module(src).unwrap();
        let count = |n: i32| {
            let mut interp = Interp::new(&m);
            interp
                .run("sum", &[RtVal::Scalar(Scalar::i32(n))], &mut NoHost)
                .unwrap()
                .dyn_insts
        };
        assert_eq!(count(10), count(10));
        assert!(count(20) > count(10));
    }

    #[test]
    fn shuffles_and_inserts() {
        let src = r#"
define <8 x float> @bcast(float %x) {
entry:
  %i = insertelement <8 x float> undef, float %x, i32 0
  %b = shufflevector <8 x float> %i, <8 x float> undef, <8 x i32> <i32 0, i32 0, i32 0, i32 0, i32 0, i32 0, i32 0, i32 0>
  ret <8 x float> %b
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run("bcast", &[RtVal::Scalar(Scalar::f32(2.5))], &mut NoHost)
            .unwrap();
        let v = r.ret.unwrap();
        for i in 0..8 {
            assert_eq!(v.lane(i).as_f32(), 2.5);
        }
    }

    #[test]
    fn shift_overflow_defined() {
        assert_eq!(
            eval_bin(BinOp::Shl, Scalar::i32(1), Scalar::i32(40))
                .unwrap()
                .bits,
            0
        );
        assert_eq!(
            eval_bin(BinOp::AShr, Scalar::i32(-1), Scalar::i32(99))
                .unwrap()
                .as_i64(),
            -1
        );
        assert_eq!(
            eval_bin(BinOp::LShr, Scalar::i32(-1), Scalar::i32(99))
                .unwrap()
                .bits,
            0
        );
    }

    #[test]
    fn fcmp_nan_semantics() {
        let nan = Scalar::f32(f32::NAN);
        let one = Scalar::f32(1.0);
        assert!(!eval_fcmp(FCmpPred::Oeq, nan, one));
        assert!(eval_fcmp(FCmpPred::Une, nan, one));
        assert!(eval_fcmp(FCmpPred::Uno, nan, nan));
        assert!(eval_fcmp(FCmpPred::Ord, one, one));
    }

    #[test]
    fn casts() {
        assert_eq!(
            eval_cast(CastOp::SExt, Scalar::i8(-1), ScalarTy::I32).as_i64(),
            -1
        );
        assert_eq!(
            eval_cast(CastOp::ZExt, Scalar::i8(-1), ScalarTy::I32).as_i64(),
            255
        );
        assert_eq!(
            eval_cast(CastOp::Trunc, Scalar::i32(0x1ff), ScalarTy::I8).as_u64(),
            0xff
        );
        assert_eq!(
            eval_cast(CastOp::SiToFp, Scalar::i32(-3), ScalarTy::F32).as_f32(),
            -3.0
        );
        assert_eq!(
            eval_cast(CastOp::FpToSi, Scalar::f32(2.9), ScalarTy::I32).as_i64(),
            2
        );
        assert_eq!(
            eval_cast(CastOp::FpToSi, Scalar::f32(f32::NAN), ScalarTy::I32).as_i64(),
            0
        );
        assert_eq!(
            eval_cast(CastOp::Bitcast, Scalar::f32(1.0), ScalarTy::I32).as_u64(),
            0x3f80_0000
        );
    }
}

#[cfg(test)]
mod profiling_tests {
    use super::*;
    use vir::parser::parse_module;

    /// Masked store with 3 of 8 lanes active, plus a full-width fmul.
    const MASKED: &str = r#"
declare void @llvm.x86.avx.maskstore.ps.256(ptr, <8 x float>, <8 x float>)

define void @k(ptr %a, <8 x float> %m, <8 x float> %v) {
entry:
  %d = fmul <8 x float> %v, %v
  call void @llvm.x86.avx.maskstore.ps.256(ptr %a, <8 x float> %m, <8 x float> %d)
  ret void
}
"#;

    fn masked_args(interp: &mut Interp) -> Vec<RtVal> {
        let base = interp.mem.alloc_f32_slice(&[0.0; 8]).unwrap();
        let on = f32::from_bits(0xffff_ffff);
        let mask = RtVal::from_lanes(
            ScalarTy::F32,
            (0..8).map(|i| {
                if i < 3 {
                    Scalar::f32(on)
                } else {
                    Scalar::f32(0.0)
                }
            }),
        );
        let val = RtVal::from_lanes(ScalarTy::F32, (0..8).map(|i| Scalar::f32(i as f32)));
        vec![RtVal::Scalar(Scalar::ptr(base)), mask, val]
    }

    #[test]
    fn occupancy_tracks_masked_lanes() {
        let m = parse_module(MASKED).unwrap();
        let mut interp = Interp::new(&m);
        interp.enable_profiling();
        let args = masked_args(&mut interp);
        interp.run("k", &args, &mut NoHost).unwrap();
        let mix = interp.take_mix().unwrap();
        // fmul runs all 8 lanes; the maskstore only 3.
        assert_eq!(mix.lanes_total, 16);
        assert_eq!(mix.lanes_active, 11);
        assert_eq!(mix.occupancy_histogram(), vec![(3, 1), (8, 1)]);
        assert!((mix.avg_active_lanes() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn occupancy_tracks_vector_select_condition() {
        let src = r#"
define <4 x i32> @sel(<4 x i1> %c, <4 x i32> %a, <4 x i32> %b) {
entry:
  %r = select <4 x i1> %c, <4 x i32> %a, <4 x i32> %b
  ret <4 x i32> %r
}
"#;
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.enable_profiling();
        let c = RtVal::from_lanes(ScalarTy::I1, [true, false, true, false].map(Scalar::i1));
        let a = RtVal::from_lanes(ScalarTy::I32, (0..4).map(Scalar::i32));
        let b = RtVal::from_lanes(ScalarTy::I32, (4..8).map(Scalar::i32));
        interp.run("sel", &[c, a, b], &mut NoHost).unwrap();
        let mix = interp.take_mix().unwrap();
        assert_eq!(mix.occupancy_histogram(), vec![(2, 1)]);
    }

    /// Profiling must be purely observational: identical results, memory,
    /// and dynamic instruction counts with it on or off — the same
    /// bit-identity contract tracing holds to.
    #[test]
    fn profiling_is_observational_bit_for_bit() {
        let m = parse_module(MASKED).unwrap();
        let run = |profile: bool| {
            let mut interp = Interp::new(&m);
            if profile {
                interp.enable_profiling();
            }
            let args = masked_args(&mut interp);
            let base = args[0].scalar().as_u64();
            let r = interp.run("k", &args, &mut NoHost).unwrap();
            (r, interp.mem.read_f32_slice(base, 8).unwrap())
        };
        let (plain, mem_plain) = run(false);
        let (profiled, mem_profiled) = run(true);
        assert_eq!(plain, profiled, "profiling must not perturb execution");
        assert_eq!(mem_plain, mem_profiled);
    }

    /// The hotspot profile attributes every executed instruction to a
    /// static site: counts must reconcile exactly with the dynamic
    /// instruction count, and opcodes rank by dynamic frequency.
    #[test]
    fn hotspots_attribute_counts_to_sites() {
        let src = r#"
define i32 @loop(i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %i2, %head ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %head ]
  %acc2 = add i32 %acc, %i
  %i2 = add i32 %i, 1
  %c = icmp slt i32 %i2, %n
  br i1 %c, label %head, label %exit
exit:
  ret i32 %acc2
}
"#;
        let m = parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        interp.enable_hotspots();
        let r = interp
            .run("loop", &[RtVal::Scalar(Scalar::i32(10))], &mut NoHost)
            .unwrap();
        let hot = interp.take_hotspots().unwrap();
        assert_eq!(
            hot.total(),
            r.dyn_insts,
            "every dynamic instruction must land at exactly one site"
        );
        let table = hot.hotspots();
        // 10 iterations × (2 phis + 2 adds + 1 icmp) dominate the mix:
        // add leads with 20 dynamic executions over 2 static sites.
        assert_eq!(
            (table[0].opcode, table[0].count, table[0].sites),
            ("add", 20, 2)
        );
        let folded = hot.folded();
        assert!(folded.contains("loop;add 20"), "{folded}");
        assert!(folded.contains("loop;condbr"), "{folded}");
        // Terminators and body instructions are distinct sites.
        assert!(hot
            .sites()
            .iter()
            .any(|s| matches!(s.loc, crate::profile::HotLoc::Term(_))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Hotspot profiling must be purely observational over arbitrary
        /// inputs: results, memory, and dynamic instruction counts stay
        /// bit-identical with it on or off — the same contract the mix
        /// profiler and the trace sink hold to.
        #[test]
        fn hotspot_profiling_is_observational_bit_for_bit(
            lanes in proptest::prop::collection::vec(proptest::prelude::any::<u32>(), 8),
            mask_bits in proptest::prelude::any::<u8>(),
        ) {
            let m = parse_module(MASKED).unwrap();
            let run = |hotspots: bool| {
                let mut interp = Interp::new(&m);
                if hotspots {
                    interp.enable_hotspots();
                }
                let base = interp.mem.alloc_f32_slice(&[0.0; 8]).unwrap();
                let on = f32::from_bits(0xffff_ffff);
                let mask = RtVal::from_lanes(
                    ScalarTy::F32,
                    (0..8).map(|i| {
                        if mask_bits & (1 << i) != 0 {
                            Scalar::f32(on)
                        } else {
                            Scalar::f32(0.0)
                        }
                    }),
                );
                let val = RtVal::from_lanes(
                    ScalarTy::F32,
                    lanes.iter().map(|&b| Scalar::f32(f32::from_bits(b))),
                );
                let args = vec![RtVal::Scalar(Scalar::ptr(base)), mask, val];
                let r = interp.run("k", &args, &mut NoHost).unwrap();
                let snapshot: Vec<u32> = interp
                    .mem
                    .read_f32_slice(base, 8)
                    .unwrap()
                    .into_iter()
                    .map(f32::to_bits)
                    .collect();
                (r, snapshot, interp.take_hotspots())
            };
            let (plain, mem_plain, _) = run(false);
            let (hot, mem_hot, profile) = run(true);
            proptest::prop_assert_eq!(plain.dyn_insts, hot.dyn_insts);
            proptest::prop_assert_eq!(plain, hot);
            proptest::prop_assert_eq!(mem_plain, mem_hot);
            let profile = profile.expect("hotspots enabled");
            proptest::prop_assert_eq!(profile.total(), 3, "fmul + maskstore call + ret");
        }
    }
}

#[cfg(test)]
mod intrinsic_tests {
    use super::*;
    use vir::parser::parse_module;

    fn run_ret(src: &str, func: &str, args: &[RtVal]) -> RtVal {
        let m = parse_module(src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let mut interp = Interp::new(&m);
        interp.run(func, args, &mut NoHost).unwrap().ret.unwrap()
    }

    #[test]
    fn movmsk_collects_sign_bits() {
        let src = r#"
define i32 @m(<8 x float> %v) {
entry:
  %r = call i32 @llvm.x86.avx.movmsk.ps.256(<8 x float> %v)
  ret i32 %r
}
"#;
        let v = RtVal::from_lanes(
            ScalarTy::F32,
            [1.0f32, -1.0, 2.0, -0.5, 0.0, -0.0, 3.0, -9.0]
                .iter()
                .map(|&x| Scalar::f32(x)),
        );
        let r = run_ret(src, "m", &[v]);
        // Negative lanes: 1, 3, 5 (-0.0 has the sign bit set!), 7.
        assert_eq!(r.scalar().as_i64(), 0b1010_1010);
    }

    #[test]
    fn mask_any_and_all() {
        let src = r#"
define i1 @any(<4 x i1> %m) {
entry:
  %r = call i1 @llvm.vulfi.mask.any.v4i1(<4 x i1> %m)
  ret i1 %r
}

define i1 @all(<4 x i1> %m) {
entry:
  %r = call i1 @llvm.vulfi.mask.all.v4i1(<4 x i1> %m)
  ret i1 %r
}
"#;
        let mk =
            |bits: [bool; 4]| RtVal::from_lanes(ScalarTy::I1, bits.iter().map(|&b| Scalar::i1(b)));
        let m = parse_module(src).unwrap();
        let run = |f: &str, v: RtVal| {
            Interp::new(&m)
                .run(f, &[v], &mut NoHost)
                .unwrap()
                .ret
                .unwrap()
                .scalar()
                .is_true()
        };
        assert!(run("any", mk([false, true, false, false])));
        assert!(!run("any", mk([false, false, false, false])));
        assert!(run("all", mk([true, true, true, true])));
        assert!(!run("all", mk([true, true, false, true])));
    }

    #[test]
    fn minnum_maxnum_and_pow() {
        let src = r#"
define float @f(float %a, float %b) {
entry:
  %mn = call float @llvm.minnum.f32(float %a, float %b)
  %mx = call float @llvm.maxnum.f32(float %a, float %b)
  %p = call float @llvm.pow.f32(float %mx, float 2.0)
  %r = fadd float %mn, %p
  ret float %r
}
"#;
        let r = run_ret(
            src,
            "f",
            &[
                RtVal::Scalar(Scalar::f32(-3.0)),
                RtVal::Scalar(Scalar::f32(4.0)),
            ],
        );
        assert_eq!(r.scalar().as_f32(), -3.0 + 16.0);
    }

    #[test]
    fn vector_math_is_elementwise() {
        let src = r#"
define <4 x float> @s(<4 x float> %v) {
entry:
  %r = call <4 x float> @llvm.sqrt.v4f32(<4 x float> %v)
  ret <4 x float> %r
}
"#;
        let v = RtVal::from_lanes(
            ScalarTy::F32,
            [1.0f32, 4.0, 9.0, 16.0].iter().map(|&x| Scalar::f32(x)),
        );
        let r = run_ret(src, "s", &[v]);
        let lanes: Vec<f32> = r.lanes().iter().map(|s| s.as_f32()).collect();
        assert_eq!(lanes, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn unknown_intrinsic_traps_cleanly() {
        let src = r#"
define void @f() {
entry:
  call void @llvm.x86.avx.maskstore.ps.256(ptr null, <8 x float> zeroinitializer, <8 x float> zeroinitializer)
  ret void
}
"#;
        // All lanes masked off: the null pointer is never dereferenced.
        let m = parse_module(src).unwrap();
        let mut interp = Interp::new(&m);
        interp.run("f", &[], &mut NoHost).unwrap();
    }
}
