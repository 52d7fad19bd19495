//! # vexec — the VIR interpreter / virtual vector machine
//!
//! Executes [`vir`] modules with:
//!
//! - a **guarded flat memory model** ([`mem::Memory`]) where every access
//!   must fall inside a live allocation — invalid pointers trap, giving the
//!   fault-injection study its "Crash" outcome class;
//! - full scalar + vector instruction semantics, including the masked
//!   AVX/SSE intrinsics of the paper's Fig. 5 (inactive lanes never touch
//!   memory);
//! - **dynamic instruction accounting** (the paper's Table I metric) and a
//!   hang budget that converts fault-induced infinite loops into traps;
//! - a [`interp::HostEnv`] callback interface through which VULFI's runtime
//!   injection API and the detector runtime are linked in.
//!
//! ## Example
//!
//! ```
//! use vexec::{Interp, NoHost, RtVal, Scalar};
//!
//! let src = r#"
//! define float @axpy1(float %a, float %x, float %y) {
//! entry:
//!   %ax = fmul float %a, %x
//!   %r = fadd float %ax, %y
//!   ret float %r
//! }
//! "#;
//! let m = vir::parser::parse_module(src).unwrap();
//! let mut interp = Interp::new(&m);
//! let args = [
//!     RtVal::Scalar(Scalar::f32(2.0)),
//!     RtVal::Scalar(Scalar::f32(3.0)),
//!     RtVal::Scalar(Scalar::f32(1.0)),
//! ];
//! let out = interp.run("axpy1", &args, &mut NoHost).unwrap();
//! assert_eq!(out.ret.unwrap().scalar().as_f32(), 7.0);
//! ```

pub mod fault;
pub mod interp;
pub mod mem;
pub mod opt;
pub mod profile;
pub mod program;
pub mod trace;
pub mod value;

pub use fault::{EngineInjection, EngineInjector, EngineModel};
pub use interp::{ExecResult, HostEnv, Interp, NoHost};
pub use mem::{Memory, Trap};
pub use profile::{HotLoc, HotProfile, HotSite, Hotspot, InstMix};
pub use program::Program;
pub use trace::{Divergence, DivergenceTracer, TraceEvent, TraceSink};
pub use value::{RtVal, Scalar};
