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
//! A run can also stop part-way: [`Interp::start`] sets a call up and
//! [`Interp::run_to`] runs it to the first safe point at or after a
//! dynamic instruction count, where [`Interp::checkpoint`] copies its
//! state. [`Interp::restore`] continues from such a copy, in this or
//! another interpreter, and [`Interp::matches`] compares a paused run with
//! one. A campaign forks each faulty run from a checkpoint of its golden
//! run this way, and stops it early once its state equals a later one.
//! [`Interp::run`] is `start` plus an unbounded `run_to`.
//!
//! Host functions — VULFI's runtime injection API, the detector runtime,
//! and anything else declared but not defined — are dispatched through the
//! [`HostEnv`] trait, mirroring how an instrumented native binary links
//! against the fault-injection runtime library. A host resolves each
//! callee name to an id once per program and host type; a call passes
//! that id, its arguments as typed views of the caller's register words,
//! and the result lanes to write ([`HostCall`]). [`RtVal`] appears only
//! in [`Interp::run`]'s arguments and result.
//! Profiles and traces watch a run through one [`Observer`] type
//! parameter (see [`crate::observe`]); the engine injector, which perturbs
//! the run, is a field instead (see [`Interp::set_engine_injector`]).

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vir::intrinsics::MathOp;
use vir::{BinOp, CastOp, FCmpPred, ICmpPred, Module, ScalarTy, Type};

use crate::fault::EngineInjector;
use crate::kernel::DivByZero;
use crate::mem::{Memory, Trap};
use crate::observe::{At, Observer, Step};
use crate::program::{DBlock, Func, Op, Program, Slot, Term, NO_CALLEE};
use crate::trace::{fold_bits, TraceEvent};
use crate::value::{RtVal, Scalar};

/// Host-function dispatcher: the functions a program declares but does
/// not define.
pub trait HostEnv: Any {
    /// This host's id for the function `name`, or `None` when it has no
    /// such function (a call to it then traps with
    /// [`Trap::UnknownFunction`] when, and only when, it executes). The
    /// answer must depend on the name and the host's type alone: a
    /// program keeps it for every later run under a host of that type.
    fn resolve(&self, name: &str) -> Option<u32>;

    /// Run function `id` (an id [`HostEnv::resolve`] returned). Return
    /// `Ok(true)` when it produced the call's value in `call.ret`, and
    /// `Ok(false)` when it produced none, which a non-void call turns
    /// into a [`Trap::HostError`].
    fn call(&mut self, id: u32, call: HostCall<'_>) -> Result<bool, Trap>;
}

/// One host call.
pub struct HostCall<'a> {
    /// The callee's name, as the program declares it.
    pub name: &'a str,
    pub args: HostArgs<'a>,
    /// The result lanes, zeroed, one word per lane (none for a void
    /// call). The interpreter masks them to the element width after the
    /// call.
    pub ret: &'a mut [u64],
    /// Dynamic instructions executed so far, the call included.
    pub executed: u64,
    pub mem: &'a mut Memory,
}

/// A host call's arguments: typed runs of lane words, read in place from
/// the caller's frame.
#[derive(Clone, Copy)]
pub struct HostArgs<'a> {
    slots: &'a [Slot],
    /// The words before the result lanes; a slot's offset counts from
    /// the start of `lo` and continues into `hi` past `skip` words.
    lo: &'a [u64],
    skip: usize,
    hi: &'a [u64],
}

/// One argument of a host call.
#[derive(Debug, Clone, Copy)]
pub struct HostArg<'a> {
    pub ty: Type,
    /// One word per lane, masked to the element width.
    pub words: &'a [u64],
}

impl<'a> HostArgs<'a> {
    /// Arguments laid out in one run of `words`, each at its slot.
    pub fn new(slots: &'a [Slot], words: &'a [u64]) -> HostArgs<'a> {
        HostArgs {
            slots,
            lo: words,
            skip: 0,
            hi: &[],
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Argument `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<HostArg<'a>> {
        let s = self.slots.get(i)?;
        let (at, n) = (s.off as usize, s.lanes());
        let words = match at.checked_sub(self.lo.len()) {
            None => self.lo.get(at..at + n)?,
            Some(past) => self.hi.get(past.checked_sub(self.skip)?..)?.get(..n)?,
        };
        Some(HostArg { ty: s.ty, words })
    }

    /// Lane 0 of argument `i`.
    pub fn scalar(&self, i: usize) -> Option<Scalar> {
        self.get(i)?.lane(0)
    }
}

impl HostArg<'_> {
    /// Lane `i`.
    pub fn lane(&self, i: usize) -> Option<Scalar> {
        Some(Scalar::new(self.ty.elem()?, *self.words.get(i)?))
    }
}

/// A host environment that defines no function.
pub struct NoHost;

impl HostEnv for NoHost {
    fn resolve(&self, _: &str) -> Option<u32> {
        None
    }

    fn call(&mut self, _: u32, call: HostCall<'_>) -> Result<bool, Trap> {
        Err(Trap::UnknownFunction(call.name.to_string()))
    }
}

/// A run's host and its ids for the program's host callees.
struct Host<'a> {
    env: &'a mut dyn HostEnv,
    names: &'a [String],
    ids: &'a [u32],
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

/// A frame: its function, where its words start in the register arena,
/// and where it resumes (the innermost frame's `pc` is the next
/// instruction; a caller's is the one after its call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    func: usize,
    base: usize,
    block: usize,
    pc: usize,
}

/// Why [`Interp::exec`] stopped early: a trap, or a pause at a safe point.
enum Halt {
    Trap(Trap),
    Pause,
}

impl From<Trap> for Halt {
    fn from(t: Trap) -> Halt {
        Halt::Trap(t)
    }
}

/// Where [`Interp::run_to`] handed back control.
#[derive(Debug, Clone, PartialEq)]
pub enum Progress {
    /// Paused at a safe point; [`Interp::run_to`] continues the run.
    Paused,
    /// The run returned.
    Done(ExecResult),
}

/// A paused run's state: what [`Interp::restore`] continues from. It
/// holds the dynamic instruction count, the memory, the live register
/// words and the frames, innermost last; never a phi group's half-read
/// inputs, since a run only pauses at a safe point.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    executed: u64,
    mem: Memory,
    regs: Vec<u64>,
    frames: Vec<Frame>,
}

impl Checkpoint {
    /// Dynamic instructions executed before the pause.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The memory at the pause.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The bytes it holds: its memory image, register words and frames.
    pub fn bytes(&self) -> usize {
        self.mem.bytes()
            + std::mem::size_of_val(&self.regs[..])
            + std::mem::size_of_val(&self.frames[..])
    }
}

/// The interpreter. One instance executes programs from one module,
/// reporting to the observer `O` (none by default).
pub struct Interp<'m, O = ()> {
    program: Arc<Program>,
    pub mem: Memory,
    budget: u64,
    /// `min(budget, pause count)`: the one bound `tick` compares against.
    limit: u64,
    executed: u64,
    deadline: Option<Instant>,
    obs: O,
    fault: Option<&'m mut EngineInjector>,
    /// Every live frame's words, innermost last.
    regs: Vec<u64>,
    /// Suspended callers, outermost first.
    frames: Vec<Frame>,
    /// A block's phi results, held until every phi has read its input.
    phi_buf: Vec<u64>,
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
        Interp::observed(program, ())
    }
}

impl<'m, O: Observer> Interp<'m, O> {
    /// An interpreter for an already decoded program, observed by `obs`
    /// (read it back with [`Interp::into_observer`], or pass `&mut obs`).
    pub fn observed(program: Arc<Program>, obs: O) -> Interp<'m, O> {
        let words = program.max_frame;
        Interp {
            program,
            mem: Memory::default(),
            budget: u64::MAX / 2,
            limit: u64::MAX / 2,
            executed: 0,
            deadline: None,
            obs,
            fault: None,
            regs: Vec::with_capacity(words),
            frames: Vec::new(),
            phi_buf: Vec::new(),
            mask_buf: Vec::new(),
        }
    }

    /// Install an engine-level fault injector (see [`crate::fault`]).
    ///
    /// Value-register fault models never need this; it exists for the
    /// models that corrupt interpreter state the instrumented injection
    /// API cannot reach: mask registers, address operands, and guarded
    /// memory cells. With no injector installed the hooks cost a single
    /// `Option` test.
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

    /// The observer, as it stands mid-run.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// The installed engine injector, if any.
    pub fn engine_injector(&self) -> Option<&EngineInjector> {
        self.fault.as_deref()
    }

    /// Give up the interpreter, keeping what its observer saw.
    pub fn into_observer(self) -> O {
        self.obs
    }

    /// Execute `func` with `args`.
    pub fn run(
        &mut self,
        func: &str,
        args: &[RtVal],
        host: &mut dyn HostEnv,
    ) -> Result<ExecResult, Trap> {
        self.start(func, args)?;
        match self.run_to(u64::MAX, host)? {
            Progress::Done(r) => Ok(r),
            Progress::Paused => Err(Trap::EngineFault("paused without a pause count".into())),
        }
    }

    /// Set up a call of `func` with `args` for [`Interp::run_to`],
    /// executing nothing.
    pub fn start(&mut self, func: &str, args: &[RtVal]) -> Result<(), Trap> {
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
        // A `pc` before the entry block's body: the call has not entered
        // its block yet (see `exec`).
        let pc = f.blocks.first().map_or(0, |b| b.start as usize);
        self.frames.push(Frame {
            func: fi,
            base: 0,
            block: 0,
            pc,
        });
        Ok(())
    }

    /// Run the call that [`Interp::start`] set up, or that a pause or
    /// [`Interp::restore`] left, until the first *safe point* at or after
    /// `until` dynamic instructions, or to its return. A safe point is
    /// the moment before an instruction or terminator is counted, outside
    /// a block's phi group; a paused run's state is then exactly its
    /// [`Interp::checkpoint`]. Pausing and continuing changes nothing
    /// about the run: its traps, counts and events are those of
    /// [`Interp::run`].
    pub fn run_to(&mut self, until: u64, host: &mut dyn HostEnv) -> Result<Progress, Trap> {
        let cur = self
            .frames
            .pop()
            .ok_or_else(|| Trap::EngineFault("no started or paused call to run".into()))?;
        self.limit = self.budget.min(until);
        let program = Arc::clone(&self.program);
        let ids = program.host_ids(host);
        let mut host = Host {
            env: host,
            names: &program.hosts,
            ids: &ids,
        };
        let ret = match self.exec(&program, cur, &mut host) {
            Ok(ret) => ret,
            Err(Halt::Pause) => return Ok(Progress::Paused),
            Err(Halt::Trap(t)) => return Err(t),
        };
        self.obs.event(self.executed, || TraceEvent::Ret {
            bits: match &ret {
                None => 0,
                Some(v) => v
                    .lanes()
                    .into_iter()
                    .fold(0, |acc, s| fold_bits(acc, s.bits)),
            },
        });
        Ok(Progress::Done(ExecResult {
            ret,
            dyn_insts: self.executed,
        }))
    }

    /// The state of a run paused by [`Interp::run_to`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            executed: self.executed,
            mem: self.mem.clone(),
            regs: self.regs.clone(),
            frames: self.frames.clone(),
        }
    }

    /// Make this interpreter's run the paused run `cp` holds, for
    /// [`Interp::run_to`] to continue. The memory comes with the ceiling
    /// it had; set a different one afterwards.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.executed = cp.executed;
        self.mem = cp.mem.clone();
        self.regs.clear();
        self.regs.extend_from_slice(&cp.regs);
        self.frames.clear();
        self.frames.extend_from_slice(&cp.frames);
    }

    /// Is this paused run in exactly `cp`'s state: the same count,
    /// frames, register words and memory (see [`Memory::same_contents`])?
    /// Equal states run on identically, so a run that matches a
    /// checkpoint of another run finishes as that run does.
    pub fn matches(&self, cp: &Checkpoint) -> bool {
        self.executed == cp.executed
            && self.frames == cp.frames
            && self.regs == cp.regs
            && self.mem.same_contents(&cp.mem)
    }

    /// Count one instruction or terminator. `at` is the running frame
    /// when this is a safe point to pause at, `None` inside a phi group.
    #[inline]
    fn tick(&mut self, at: Option<&Frame>) -> Result<(), Halt> {
        self.executed += 1;
        if self.executed > self.limit {
            self.over_limit(at)?;
        }
        if self.executed & WALL_CHECK_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(Trap::WallClock.into());
                }
            }
        }
        if let Some(inj) = self.fault.as_deref_mut() {
            inj.on_step(self.executed, &mut self.mem);
        }
        Ok(())
    }

    /// `tick` passed `limit`: past the budget that is a hang; otherwise
    /// it is the pause count, and a safe point uncounts the tick and
    /// parks the running frame `at`, while a phi group runs on to the
    /// next safe point.
    #[cold]
    #[inline(never)]
    fn over_limit(&mut self, at: Option<&Frame>) -> Result<(), Halt> {
        if self.executed > self.budget {
            return Err(Trap::HangBudget.into());
        }
        match at {
            Some(cur) => {
                self.executed -= 1;
                self.frames.push(*cur);
                Err(Halt::Pause)
            }
            None => Ok(()),
        }
    }

    /// Run frame `cur`, the innermost, to the return of the outermost
    /// frame. `cur` either has not entered its block yet (its `pc` lies
    /// before the block's body: a fresh call) or resumes at its `pc` (a
    /// paused or restored run). Being generic over the observer, this
    /// loop is compiled in the crate that picks one, so the helpers it
    /// calls per lane are `#[inline]` to stay inlinable.
    fn exec(
        &mut self,
        prog: &Program,
        mut cur: Frame,
        host: &mut Host,
    ) -> Result<Option<RtVal>, Halt> {
        let mut prev = None;
        let mut resuming = cur.pc >= prog.funcs[cur.func].blocks[cur.block].body as usize;
        'enter: loop {
            // Enter `cur.block` from `prev`: phis read the incoming frame
            // all at once, then the body starts.
            if !resuming {
                let f = &prog.funcs[cur.func];
                let b = &f.blocks[cur.block];
                self.phis(cur.func, f, b, cur.base, prev)?;
                cur.pc = b.body as usize;
            }
            resuming = false;
            'resume: loop {
                let f = &prog.funcs[cur.func];
                let b = &f.blocks[cur.block];
                while cur.pc < b.end as usize {
                    self.tick(Some(&cur))?;
                    let (fi, pc, base) = (cur.func, cur.pc, cur.base);
                    self.obs.step(Step(fi, f, At::Inst(pc, &self.regs, base)));
                    let inst = &f.insts[pc];
                    if let Op::Call { func, args, .. } = inst.op {
                        if self.frames.len() + 1 >= MAX_DEPTH {
                            return Err(Trap::StackOverflow.into());
                        }
                        let callee = &prog.funcs[func as usize];
                        if args.len as usize > callee.arg_slots.len() {
                            return Err(too_few_slots(callee, args.len as usize).into());
                        }
                        let new_base = self.regs.len();
                        self.regs.extend_from_slice(&callee.frame);
                        for (a, p) in f.pool[args.range()].iter().zip(&callee.arg_slots) {
                            let src = base + a.off as usize;
                            let n = a.lanes().min(p.lanes());
                            self.regs
                                .copy_within(src..src + n, new_base + p.off as usize);
                        }
                        self.frames.push(Frame { pc: pc + 1, ..cur });
                        cur = Frame {
                            func: func as usize,
                            base: new_base,
                            block: 0,
                            pc: 0,
                        };
                        prev = None;
                        continue 'enter;
                    }
                    self.exec_op(f, &inst.op, inst.dst as usize, base, host)?;
                    cur.pc += 1;
                }

                self.tick(Some(&cur))?;
                let (fi, block, base) = (cur.func, cur.block, cur.base);
                match b.term {
                    Term::Br(t) => {
                        self.obs.step(Step(fi, f, At::Term(block as u32, "br")));
                        (prev, cur.block) = (Some(block), t as usize);
                        continue 'enter;
                    }
                    Term::CondBr {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        self.obs.step(Step(fi, f, At::Term(block as u32, "condbr")));
                        let taken = self.regs[base + cond as usize] & 1 == 1;
                        prev = Some(block);
                        cur.block = if taken { on_true } else { on_false } as usize;
                        self.obs.event(self.executed, || TraceEvent::Branch {
                            block: cur.block as u32,
                        });
                        continue 'enter;
                    }
                    Term::Ret(ret) => {
                        self.obs.step(Step(fi, f, At::Term(block as u32, "ret")));
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
                        cur = caller;
                        continue 'resume;
                    }
                    Term::Unreachable => return Err(Trap::Unreachable.into()),
                    Term::Trap(ref t) => return Err((**t).clone().into()),
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
    ) -> Result<(), Halt> {
        if b.start == b.body {
            return Ok(());
        }
        self.phi_buf.clear();
        for pc in b.start as usize..b.body as usize {
            self.tick(None)?;
            self.obs.step(Step(fi, f, At::Inst(pc, &self.regs, base)));
            let (arms, n) = match &f.insts[pc].op {
                Op::Phi { arms, n } => (*arms, *n as usize),
                Op::Trap(t) => return Err((**t).clone().into()),
                _ => return Err(Trap::EngineFault("non-phi in a block header".into()).into()),
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
        host: &mut Host,
    ) -> Result<(), Trap> {
        let at = |off: u32| base + off as usize;
        let dst = base + dst;
        let r = &mut self.regs;
        match *op {
            Op::Lanes { kernel, n, a, b } => {
                kernel(r, dst, at(a), at(b), n as usize).map_err(|DivByZero| Trap::DivByZero)?;
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
                self.obs.event(self.executed, || TraceEvent::Store {
                    addr,
                    bits: v.iter().fold(0, |acc, &w| fold_bits(acc, w)),
                });
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
            Op::ExtractAt { src } => r[dst] = r[at(src)],
            Op::Insert { n, vec, elt, idx } => {
                let i = r[at(idx)] as usize % n as usize;
                r.copy_within(at(vec)..at(vec) + n as usize, dst);
                r[dst + i] = r[at(elt)];
            }
            Op::InsertAt { n, vec, elt, lane } => {
                r.copy_within(at(vec)..at(vec) + n as usize, dst);
                r[dst + lane as usize] = r[at(elt)];
            }
            Op::Shuffle { srcs } => {
                for (k, s) in f.pool[srcs.range()].iter().enumerate() {
                    r[dst + k] = r[at(s.off)];
                }
            }
            Op::Host { callee, args, ret } => {
                let name = &host.names[callee as usize];
                let id = host.ids[callee as usize];
                if id == NO_CALLEE {
                    return Err(Trap::UnknownFunction(name.clone()));
                }
                let n = ret.lanes() as usize;
                let (lo, rest) = self.regs.split_at_mut(dst);
                let (out, hi) = rest.split_at_mut(n);
                out.fill(0);
                let call = HostCall {
                    name,
                    args: HostArgs {
                        slots: &f.pool[args.range()],
                        lo: &lo[base..],
                        skip: n,
                        hi,
                    },
                    ret: out,
                    executed: self.executed,
                    mem: &mut self.mem,
                };
                if !host.env.call(id, call)? && !ret.is_void() {
                    return Err(Trap::HostError(format!(
                        "host @{name} returned nothing for a non-void call"
                    )));
                }
                let mask = ret.elem().map_or(0, ScalarTy::bit_mask);
                for w in &mut self.regs[dst..dst + n] {
                    *w &= mask;
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
                self.obs
                    .event(self.executed, || TraceEvent::Store { addr, bits });
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

/// Lane `i` of a run argument, zero past its end.
fn lane_word(v: &RtVal, i: usize) -> u64 {
    match v {
        RtVal::Scalar(s) if i == 0 => s.bits,
        RtVal::Scalar(_) => 0,
        RtVal::Vector(_, ws) => ws.get(i).copied().unwrap_or(0),
    }
}

/// Write a run argument into `out`, lane by lane, masked to `ty`'s
/// element width.
fn store_val(out: &mut [u64], ty: Type, v: &RtVal) {
    let mask = ty.elem().map_or(0, ScalarTy::bit_mask);
    for (i, w) in out.iter_mut().enumerate() {
        *w = lane_word(v, i) & mask;
    }
}

/// Slot `s` of the frame at `base` as a run's result.
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

    /// A loop that stores and calls, so a pause can land in a callee, at a
    /// phi-group block or at a terminator.
    const WALK: &str = r#"
define i32 @inc(i32 %x) {
entry:
  %r = add i32 %x, 1
  ret i32 %r
}

define i32 @walk(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %acc = phi i32 [ 0, %entry ], [ %acc2, %body ]
  %cond = icmp slt i32 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %p = getelementptr i32, ptr %a, i32 %i
  store i32 %acc, ptr %p
  %acc2 = call i32 @inc(i32 %acc)
  %i2 = call i32 @inc(i32 %i)
  br label %header
exit:
  ret i32 %acc
}
"#;

    /// `walk` started over a fresh 8-word array, with the array's address.
    fn start_walk(m: &Module) -> (Interp<'_>, u64) {
        let mut interp = Interp::new(m);
        let a = interp.mem.alloc_i32_slice(&[0; 8]).unwrap();
        let args = [RtVal::Scalar(Scalar::ptr(a)), RtVal::Scalar(Scalar::i32(8))];
        interp.start("walk", &args).unwrap();
        (interp, a)
    }

    #[test]
    fn pausing_and_restoring_change_nothing() {
        let m = parse_module(WALK).unwrap();
        let (mut whole, a) = start_walk(&m);
        let want = match whole.run_to(u64::MAX, &mut NoHost).unwrap() {
            Progress::Done(r) => r,
            Progress::Paused => panic!("paused without a pause count"),
        };
        let want_mem = whole.mem.read_i32_slice(a, 8).unwrap();
        for c in 0..want.dyn_insts {
            let (mut interp, _) = start_walk(&m);
            assert_eq!(interp.run_to(c, &mut NoHost).unwrap(), Progress::Paused);
            // The first safe point at or after `c`: at most a phi group on.
            assert!(
                (c..c + 3).contains(&interp.executed()),
                "paused at {}",
                interp.executed()
            );
            let cp = interp.checkpoint();
            assert!(interp.matches(&cp));
            // A fresh interpreter continues from the copy exactly as the
            // paused one continues itself.
            let mut restored = Interp::new(&m);
            restored.restore(&cp);
            for run in [&mut interp, &mut restored] {
                assert_eq!(
                    run.run_to(u64::MAX, &mut NoHost).unwrap(),
                    Progress::Done(want.clone())
                );
                assert_eq!(run.mem.read_i32_slice(a, 8).unwrap(), want_mem);
            }
        }
        // A diverged run no longer matches: one flipped array word.
        let (mut interp, _) = start_walk(&m);
        interp.run_to(want.dyn_insts / 2, &mut NoHost).unwrap();
        let cp = interp.checkpoint();
        interp.mem.write_scalar(a, Scalar::i32(-1)).unwrap();
        assert!(!interp.matches(&cp));
    }

    #[test]
    fn a_pause_past_the_budget_is_the_hang_trap() {
        let m = parse_module(WALK).unwrap();
        let (mut interp, _) = start_walk(&m);
        interp.set_budget(40);
        assert_eq!(interp.run_to(20, &mut NoHost).unwrap(), Progress::Paused);
        assert_eq!(interp.run_to(u64::MAX, &mut NoHost), Err(Trap::HangBudget));
        assert_eq!(interp.executed(), 41, "the same count as an unpaused run");
    }

    /// Doubles an `i32` as `ext.double`; `ext.nothing` returns nothing.
    struct Doubler;

    impl HostEnv for Doubler {
        fn resolve(&self, name: &str) -> Option<u32> {
            match name {
                "ext.double" => Some(7),
                "ext.nothing" => Some(8),
                _ => None,
            }
        }

        fn call(&mut self, id: u32, call: HostCall<'_>) -> Result<bool, Trap> {
            match (id, call.name) {
                (7, "ext.double") => {
                    let x = call.args.scalar(0).unwrap().as_i64();
                    call.ret[0] = (x as i32 * 2) as u32 as u64;
                    Ok(true)
                }
                (8, "ext.nothing") => Ok(false),
                other => panic!("called {other:?}"),
            }
        }
    }

    const HOST_CALLS: &str = r#"
declare i32 @ext.double(i32)
declare i32 @ext.nothing(i32)
declare i32 @ext.missing(i32)

define i32 @f(i32 %x) {
entry:
  %r = call i32 @ext.double(i32 %x)
  ret i32 %r
}

define i32 @g(i32 %x) {
entry:
  %r = call i32 @ext.nothing(i32 %x)
  ret i32 %r
}

define i32 @h(i32 %x) {
entry:
  %r = call i32 @ext.missing(i32 %x)
  ret i32 %r
}
"#;

    #[test]
    fn host_calls_dispatch() {
        let m = parse_module(HOST_CALLS).unwrap();
        let mut interp = Interp::new(&m);
        let r = interp
            .run("f", &[RtVal::Scalar(Scalar::i32(21))], &mut Doubler)
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 42);
    }

    #[test]
    fn a_non_void_host_call_that_writes_nothing_traps() {
        let m = parse_module(HOST_CALLS).unwrap();
        let e = Interp::new(&m).run("g", &[RtVal::Scalar(Scalar::i32(1))], &mut Doubler);
        assert_eq!(
            e,
            Err(Trap::HostError(
                "host @ext.nothing returned nothing for a non-void call".into()
            ))
        );
    }

    #[test]
    fn unknown_host_functions_trap_only_when_called() {
        let m = parse_module(HOST_CALLS).unwrap();
        let program = Arc::new(Program::decode(&m));
        let x = [RtVal::Scalar(Scalar::i32(5))];
        let e = Interp::with_program(Arc::clone(&program)).run("h", &x, &mut Doubler);
        assert_eq!(e, Err(Trap::UnknownFunction("ext.missing".into())));
        // The same program under another host type resolves anew: NoHost
        // defines nothing, and Doubler still finds its functions after.
        let e = Interp::with_program(Arc::clone(&program)).run("f", &x, &mut NoHost);
        assert_eq!(e, Err(Trap::UnknownFunction("ext.double".into())));
        let r = Interp::with_program(program)
            .run("f", &x, &mut Doubler)
            .unwrap();
        assert_eq!(r.ret.unwrap().scalar().as_i64(), 10);
    }

    #[test]
    fn a_host_call_reading_its_own_result_traps() {
        let src = "declare i32 @ext.double(i32)\n\ndefine i32 @f() {\nentry:\n  %r = call i32 @ext.double(i32 %r)\n  ret i32 %r\n}\n";
        let m = parse_module(src).unwrap();
        let e = Interp::new(&m).run("f", &[], &mut Doubler);
        assert!(matches!(e, Err(Trap::EngineFault(_))), "{e:?}");
    }

    /// Lanes `10, 11, 12, 13` through `extractelement`/`insertelement`
    /// at index `idx`: the lane read, and the vector with 99 written.
    fn lane_ops(idx: &str, args: &[RtVal]) -> (i64, Vec<i64>) {
        let params = if args.is_empty() { "" } else { "i32 %i" };
        let src = format!(
            "define i32 @x({params}) {{\nentry:\n  %e = extractelement <4 x i32> <i32 10, i32 11, i32 12, i32 13>, i32 {idx}\n  ret i32 %e\n}}\n\n\
             define <4 x i32> @y({params}) {{\nentry:\n  %v = insertelement <4 x i32> <i32 10, i32 11, i32 12, i32 13>, i32 99, i32 {idx}\n  ret <4 x i32> %v\n}}\n"
        );
        let m = parse_module(&src).unwrap();
        vir::verify::verify_module(&m).unwrap();
        let e = Interp::new(&m).run("x", args, &mut NoHost).unwrap();
        let v = Interp::new(&m).run("y", args, &mut NoHost).unwrap();
        let lanes = v.ret.unwrap().lanes().iter().map(|s| s.as_i64()).collect();
        (e.ret.unwrap().scalar().as_i64(), lanes)
    }

    #[test]
    fn constant_lanes_wrap_like_runtime_ones() {
        // Index 6 of 4 lanes is lane 2, at decode as at run time.
        assert_eq!(lane_ops("6", &[]), (12, vec![10, 11, 99, 13]));
        let six = [RtVal::Scalar(Scalar::i32(6))];
        assert_eq!(lane_ops("%i", &six), (12, vec![10, 11, 99, 13]));
        // A negative index is its unsigned bits: 0xffff_fffd % 4 = 1.
        assert_eq!(lane_ops("-3", &[]), (11, vec![10, 99, 12, 13]));
        let minus_three = [RtVal::Scalar(Scalar::i32(-3))];
        assert_eq!(lane_ops("%i", &minus_three), (11, vec![10, 99, 12, 13]));
        // Zero and undef select lane 0.
        assert_eq!(lane_ops("0", &[]), (10, vec![99, 11, 12, 13]));
        assert_eq!(lane_ops("undef", &[]), (10, vec![99, 11, 12, 13]));
        assert_eq!(lane_ops("3", &[]), (13, vec![10, 11, 12, 99]));
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
    use crate::profile::{HotLoc, HotProfile, InstMix};
    use crate::trace::DivergenceTracer;
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

    /// The mask of the first 3 lanes.
    const FIRST_3: u8 = 0b111;

    /// The lanes `0.0, 1.0, .., 7.0` as bits.
    fn ramp() -> Vec<u32> {
        (0..8).map(|i| (i as f32).to_bits()).collect()
    }

    fn observed<O: Observer>(m: &Module, obs: O) -> Interp<'_, O> {
        Interp::observed(Arc::new(Program::decode(m)), obs)
    }

    /// Run MASKED's `@k` on `lanes` (as f32 bits) under `mask_bits` (bit
    /// `i` set: lane `i` active), reporting to `obs`: the result (with
    /// the dynamic instruction count) and the output lanes' bits.
    fn run_masked<O: Observer>(
        m: &Module,
        lanes: &[u32],
        mask_bits: u8,
        obs: O,
    ) -> (ExecResult, Vec<u32>) {
        let mut interp = observed(m, obs);
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
        let snapshot = interp
            .mem
            .read_f32_slice(base, 8)
            .unwrap()
            .into_iter()
            .map(f32::to_bits)
            .collect();
        (r, snapshot)
    }

    /// A hotspot profile's deterministic part: every site and its count.
    fn site_counts(hot: &HotProfile) -> Vec<(String, HotLoc, &'static str, u64)> {
        hot.sites()
            .into_iter()
            .map(|s| (s.func, s.loc, s.opcode, s.count))
            .collect()
    }

    #[test]
    fn occupancy_tracks_masked_lanes() {
        let m = parse_module(MASKED).unwrap();
        let mut mix = InstMix::default();
        run_masked(&m, &ramp(), FIRST_3, &mut mix);
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
        let mut mix = InstMix::default();
        let mut interp = observed(&m, &mut mix);
        let c = RtVal::from_lanes(ScalarTy::I1, [true, false, true, false].map(Scalar::i1));
        let a = RtVal::from_lanes(ScalarTy::I32, (0..4).map(Scalar::i32));
        let b = RtVal::from_lanes(ScalarTy::I32, (4..8).map(Scalar::i32));
        interp.run("sel", &[c, a, b], &mut NoHost).unwrap();
        drop(interp);
        assert_eq!(mix.occupancy_histogram(), vec![(2, 1)]);
    }

    /// Profiling must be purely observational: identical results, memory,
    /// and dynamic instruction counts with it on or off — the same
    /// bit-identity contract tracing holds to.
    #[test]
    fn profiling_is_observational_bit_for_bit() {
        let m = parse_module(MASKED).unwrap();
        let plain = run_masked(&m, &ramp(), FIRST_3, ());
        let profiled = run_masked(&m, &ramp(), FIRST_3, InstMix::default());
        assert_eq!(plain, profiled, "profiling must not perturb execution");
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
        let mut hot = HotProfile::default();
        let r = observed(&m, &mut hot)
            .run("loop", &[RtVal::Scalar(Scalar::i32(10))], &mut NoHost)
            .unwrap();
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
        assert!(hot.sites().iter().any(|s| matches!(s.loc, HotLoc::Term(_))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Hotspot profiling must be purely observational over arbitrary
        /// inputs: results, memory, and dynamic instruction counts stay
        /// bit-identical with it on or off — the same contract the mix
        /// profiler and the divergence tracer hold to.
        #[test]
        fn hotspot_profiling_is_observational_bit_for_bit(
            lanes in proptest::prop::collection::vec(proptest::prelude::any::<u32>(), 8),
            mask_bits in proptest::prelude::any::<u8>(),
        ) {
            let m = parse_module(MASKED).unwrap();
            let (plain, mem_plain) = run_masked(&m, &lanes, mask_bits, ());
            let mut profile = HotProfile::default();
            let (hot, mem_hot) = run_masked(&m, &lanes, mask_bits, &mut profile);
            proptest::prop_assert_eq!(plain.dyn_insts, hot.dyn_insts);
            proptest::prop_assert_eq!(plain, hot);
            proptest::prop_assert_eq!(mem_plain, mem_hot);
            proptest::prop_assert_eq!(profile.total(), 3, "fmul + maskstore call + ret");
        }

        /// Observers compose: a run under the mix, the hotspot profile and
        /// the divergence tracer at once is bit-identical to a bare run,
        /// and each of the three ends exactly as it does observing alone.
        #[test]
        fn composed_observers_match_bare_runs_and_solo_observers(
            lanes in proptest::prop::collection::vec(proptest::prelude::any::<u32>(), 8),
            mask_bits in proptest::prelude::any::<u8>(),
        ) {
            let m = parse_module(MASKED).unwrap();
            let bare = run_masked(&m, &lanes, mask_bits, ());
            let mut all = (
                InstMix::default(),
                (HotProfile::default(), DivergenceTracer::record()),
            );
            let composed = run_masked(&m, &lanes, mask_bits, &mut all);
            proptest::prop_assert_eq!(&bare, &composed);

            let mut mix = InstMix::default();
            let mut hot = HotProfile::default();
            let mut tracer = DivergenceTracer::record();
            proptest::prop_assert_eq!(&bare, &run_masked(&m, &lanes, mask_bits, &mut mix));
            proptest::prop_assert_eq!(&bare, &run_masked(&m, &lanes, mask_bits, &mut hot));
            proptest::prop_assert_eq!(&bare, &run_masked(&m, &lanes, mask_bits, &mut tracer));
            let (all_mix, (all_hot, all_tracer)) = all;
            proptest::prop_assert_eq!(all_mix, mix);
            proptest::prop_assert_eq!(site_counts(&all_hot), site_counts(&hot));
            proptest::prop_assert_eq!(all_tracer.events(), 2, "maskstore + ret");
            proptest::prop_assert_eq!(all_tracer.events(), tracer.events());
            proptest::prop_assert_eq!(all_tracer.into_stream(), tracer.into_stream());
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
