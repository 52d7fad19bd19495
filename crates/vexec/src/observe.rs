//! The interpreter's one observation hook: [`Interp`](crate::Interp) is
//! generic over an [`Observer`] (the instruction mix, the hotspot profile
//! or the divergence tracer). Both methods default to nothing and take
//! their arguments lazily, so an observer pays only for what it overrides
//! and the bare interpreter's `()` compiles to no hook code. `Option<O>`
//! picks an observer at run time, `(A, B)` runs two at once, and `&mut O`
//! leaves the caller owning its observer.

use crate::program::Func;
use crate::trace::TraceEvent;

/// One instruction or terminator about to execute: the index of the
/// executing function in its program, the function, and where in it.
/// Observers read the decoded program on demand, so building one computes
/// nothing.
#[derive(Clone, Copy)]
pub struct Step<'a>(pub(crate) usize, pub(crate) &'a Func, pub(crate) At<'a>);

#[derive(Clone, Copy)]
pub(crate) enum At<'a> {
    /// Instruction `pc`, whose frame starts at `base` of the register
    /// arena: `Inst(pc, arena, base)`.
    Inst(usize, &'a [u64], usize),
    /// The terminator of a block, and its opcode.
    Term(u32, &'static str),
}

/// Watches an [`Interp`](crate::Interp) run without affecting it:
/// results, memory and dynamic instruction counts are bit-identical under
/// any observer.
pub trait Observer {
    /// An instruction or terminator is about to execute.
    #[inline]
    fn step(&mut self, _step: Step<'_>) {}

    /// An architectural event retired at dynamic instruction `dyn_index`;
    /// `ev` builds it.
    #[inline]
    fn event(&mut self, _dyn_index: u64, _ev: impl Fn() -> TraceEvent) {}
}

impl Observer for () {}

impl<O: Observer> Observer for Option<O> {
    fn step(&mut self, step: Step<'_>) {
        if let Some(o) = self {
            o.step(step);
        }
    }

    fn event(&mut self, dyn_index: u64, ev: impl Fn() -> TraceEvent) {
        if let Some(o) = self {
            o.event(dyn_index, ev);
        }
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    fn step(&mut self, step: Step<'_>) {
        self.0.step(step);
        self.1.step(step);
    }

    fn event(&mut self, dyn_index: u64, ev: impl Fn() -> TraceEvent) {
        self.0.event(dyn_index, &ev);
        self.1.event(dyn_index, ev);
    }
}

impl<O: Observer> Observer for &mut O {
    fn step(&mut self, step: Step<'_>) {
        (**self).step(step);
    }

    fn event(&mut self, dyn_index: u64, ev: impl Fn() -> TraceEvent) {
        (**self).event(dyn_index, ev);
    }
}
