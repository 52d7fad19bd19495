//! The interpreter allocates nothing per executed instruction.
//!
//! A counting global allocator scoped to one thread and one closure
//! measures `Interp::run` alone, as a study runs it: the instrumented
//! module decoded once into a shared `Program`, then a profiling golden
//! run and an injecting faulty run on one AVX and one SSE paper
//! benchmark, the faulty run both bare and observed by a divergence
//! tracer comparing against the golden event stream, as a traced study
//! runs it, and a faulty run restored from a golden checkpoint and resumed
//! through `Interp::run_to`, pausing on the way, as a forked faulty run
//! does. A detector-wrapped faulty run, whose uniform checks take an
//! `<8 x i32>` argument, shows host calls with vector arguments
//! allocate nothing either. What remains is per run (the simulated memory
//! growing for an `alloca`), never per instruction or per host call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use detectors::{CheckPlacement, DetectorConfig, WithDetectors};
use spmdc::VectorIsa;
use vbench::{study_benchmark, Scale};
use vexec::{DivergenceTracer, Interp, Observer, Program, Progress};
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
/// input 0 under `host` and `obs`, capped at `budget` dyn insts.
fn measure(
    program: &Arc<Program>,
    w: &dyn Workload,
    entry: &str,
    host: &mut VulfiHost,
    budget: u64,
    obs: impl Observer,
) -> (u64, u64) {
    let mut interp = Interp::observed(Arc::clone(program), obs);
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
        let (allocs, insts) = measure(&program, &w, &prog.entry, &mut golden, u64::MAX / 2, ());
        assert!(
            allocs * 1000 < MAX_ALLOCS_PER_KINST * insts,
            "{name}/{isa} golden: {allocs} allocations in {insts} dyn insts"
        );
        let golden_insts = insts;

        // Flip a bit half-way through the census, under the campaign's
        // hang budget; whatever the outcome, no per-instruction
        // allocation either.
        let target = (golden.dynamic_sites / 2).max(1);
        let mut faulty = VulfiHost::inject(target, 0x5eed);
        let budget = insts * 10 + 100_000;
        let (allocs, insts) = measure(&program, &w, &prog.entry, &mut faulty, budget, ());
        assert!(faulty.injection.is_some(), "{name}/{isa}: nothing injected");
        assert!(
            allocs * 1000 < MAX_ALLOCS_PER_KINST * insts,
            "{name}/{isa} faulty: {allocs} allocations in {insts} dyn insts"
        );

        // The same faulty run in a traced study: the tracer compares each
        // event against the golden stream, recorded in a run not counted.
        let mut recorder = DivergenceTracer::record();
        let mut host = VulfiHost::profile();
        measure(
            &program,
            &w,
            &prog.entry,
            &mut host,
            u64::MAX / 2,
            &mut recorder,
        );
        let stream = recorder.into_stream();
        let mut comparer = DivergenceTracer::compare(&stream);
        let mut faulty = VulfiHost::inject(target, 0x5eed);
        let (allocs, insts) = measure(
            &program,
            &w,
            &prog.entry,
            &mut faulty,
            budget,
            &mut comparer,
        );
        assert!(faulty.injection.is_some(), "{name}/{isa}: nothing injected");
        assert!(comparer.events() > 0, "{name}/{isa}: no events traced");
        assert!(
            allocs * 1000 < MAX_ALLOCS_PER_KINST * insts,
            "{name}/{isa} traced faulty: {allocs} allocations in {insts} dyn insts"
        );

        // A faulty run forked from a golden checkpoint half-way through,
        // resumed to its end with a pause every 1,024 dyn insts. The
        // restore copies the checkpoint once, outside the count.
        let mut interp = Interp::with_program(Arc::clone(&program));
        let setup = w.setup(&mut interp.mem, 0).expect("setup");
        interp.start(&prog.entry, &setup.args).expect("start");
        let mut golden = VulfiHost::profile();
        let paused = interp
            .run_to(golden_insts / 2, &mut golden)
            .expect("golden prefix");
        assert_eq!(paused, Progress::Paused, "{name}/{isa}: no pause");
        let checkpoint = interp.checkpoint();
        let mut faulty = VulfiHost::inject(golden.dynamic_sites + 1, 0x5eed);
        faulty.dynamic_sites = golden.dynamic_sites;
        let mut interp = Interp::with_program(Arc::clone(&program));
        interp.set_budget(budget);
        interp.restore(&checkpoint);
        let (end, allocs) = count(|| loop {
            let next = interp.executed() + 1024;
            match interp.run_to(next, &mut faulty) {
                Ok(Progress::Paused) => continue,
                other => break other,
            }
        });
        let insts = interp.executed() - checkpoint.executed();
        assert!(faulty.injection.is_some(), "{name}/{isa}: nothing injected");
        assert!(insts > 0, "{name}/{isa}: {end:?}");
        assert!(
            allocs * 1000 < MAX_ALLOCS_PER_KINST * insts,
            "{name}/{isa} restored faulty: {allocs} allocations in {insts} dyn insts"
        );
    }
}

#[test]
fn host_calls_with_vector_arguments_allocate_nothing() {
    let w = study_benchmark("Stencil", VectorIsa::Avx, Scale::Test).expect("paper benchmark");
    let cfg = DetectorConfig {
        uniform_broadcast: true,
        placement: CheckPlacement::EveryIteration,
        ..DetectorConfig::default()
    };
    let wd = WithDetectors::new(&w, cfg).expect("detectors insert");
    let prog = prepare(&wd, SiteCategory::PureData).expect("instruments");
    let text = vir::printer::print_module(&prog.module);
    assert!(
        text.contains("call void @vulfi.check.uniform(<8 x i32>"),
        "no uniform check on an 8-lane vector"
    );
    let program = Arc::new(Program::decode(&prog.module));
    let mut golden = VulfiHost::profile();
    let (_, insts) = measure(&program, &wd, &prog.entry, &mut golden, u64::MAX / 2, ());
    let mut faulty = VulfiHost::inject((golden.dynamic_sites / 2).max(1), 0x5eed);
    let budget = insts * 10 + 100_000;
    let (allocs, insts) = measure(&program, &wd, &prog.entry, &mut faulty, budget, ());
    let calls = faulty.dynamic_sites + faulty.detectors.checks;
    assert!(faulty.injection.is_some(), "nothing injected");
    assert!(
        faulty.detectors.checks > 100,
        "{} checks",
        faulty.detectors.checks
    );
    assert!(
        allocs * 1000 < MAX_ALLOCS_PER_KINST * insts && allocs * 100 < calls,
        "{allocs} allocations in {insts} dyn insts and {calls} host calls"
    );
}
