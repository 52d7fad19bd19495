//! The interpreter allocates nothing per executed instruction.
//!
//! A counting global allocator scoped to one thread and one closure
//! measures `Interp::run` alone, as a study runs it: the instrumented
//! module decoded once into a shared `Program`, then a profiling golden
//! run and an injecting faulty run on one AVX and one SSE paper
//! benchmark. What remains is per run (the simulated memory growing for
//! an `alloca`, a host-visible vector argument), never per instruction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use spmdc::VectorIsa;
use vbench::{study_benchmark, Scale};
use vexec::{Interp, Program};
use vir::analysis::SiteCategory;
use vulfi::workload::Workload;
use vulfi::{prepare, VulfiHost};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches const-initialized
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f`, returning its result and the allocations it made on this
/// thread.
fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (r, ALLOCS.with(Cell::get) - before)
}

/// Allocations per 1,000 dynamic instructions a run may make.
const MAX_ALLOCS_PER_KINST: u64 = 10;

/// Allocations and dynamic instructions of one run of `program` on
/// input 0 under `host`, capped at `budget` dyn insts.
fn measure(
    program: &Arc<Program>,
    w: &dyn Workload,
    entry: &str,
    host: &mut VulfiHost,
    budget: u64,
) -> (u64, u64) {
    let mut interp = Interp::with_program(Arc::clone(program));
    interp.set_budget(budget);
    let setup = w.setup(&mut interp.mem, 0).expect("setup");
    let (_, allocs) = count(|| interp.run(entry, &setup.args, host));
    (allocs, interp.executed())
}

#[test]
fn golden_and_faulty_runs_allocate_nothing_per_instruction() {
    for (name, isa) in [
        ("Blackscholes", VectorIsa::Avx),
        ("Stencil", VectorIsa::Sse4),
    ] {
        let w = study_benchmark(name, isa, Scale::Test).expect("paper benchmark");
        let prog = prepare(&w, SiteCategory::PureData).expect("instruments");
        let program = Arc::new(Program::decode(&prog.module));

        let mut golden = VulfiHost::profile();
        let (allocs, insts) = measure(&program, &w, &prog.entry, &mut golden, u64::MAX / 2);
        assert!(
            allocs * 1000 < MAX_ALLOCS_PER_KINST * insts,
            "{name}/{isa} golden: {allocs} allocations in {insts} dyn insts"
        );

        // Flip a bit half-way through the census, under the campaign's
        // hang budget; whatever the outcome, no per-instruction
        // allocation either.
        let target = (golden.dynamic_sites / 2).max(1);
        let mut faulty = VulfiHost::inject(target, 0x5eed);
        let budget = insts * 10 + 100_000;
        let (allocs, insts) = measure(&program, &w, &prog.entry, &mut faulty, budget);
        assert!(faulty.injection.is_some(), "{name}/{isa}: nothing injected");
        assert!(
            allocs * 1000 < MAX_ALLOCS_PER_KINST * insts,
            "{name}/{isa} faulty: {allocs} allocations in {insts} dyn insts"
        );
    }
}
