//! The differential fence for forked faulty runs: every record and trace
//! span `run_range` produces, forking each faulty run from a golden
//! checkpoint and stopping it where it reconverges, equals a full
//! re-execution through the public `Interp::run` path, with a fresh
//! `setup` for the golden and the faulty run and no checkpoint (the
//! oracle the benchmark's replay uses too).
//!
//! The paper benchmarks here run long enough (thousands of dynamic
//! instructions) to keep several checkpoints per input, so the fence
//! actually forks; it checks that the runs interpreted fewer instructions
//! than their logical faulty runs, and that reconvergence happened.

use std::sync::Arc;

use rand::Rng;
use vexec::{DivergenceTracer, EngineInjector, Interp, Memory, Program, RtVal, Scalar, Trap};
use vir::analysis::SiteCategory;
use vir::Module;
use vulfi::workload::snapshot_outputs;
use vulfi::{
    campaign_seed, experiment_rng, prepare, run_range, Experiment, ExperimentTrace, FaultModel,
    GoldenSet, InjectionRecord, Outcome, OutputRegion, Prepared, SetupResult, TraceInjection,
    VulfiHost, Workload,
};

mod common;
use common::MODELS;

const EXPERIMENTS: usize = 20;

/// The opcode and category names of a site, as a span reports them.
fn provenance(prog: &Prepared, site_id: u32) -> (String, Vec<String>) {
    let Some(site) = prog.sites.iter().find(|s| s.id == site_id) else {
        return ("?".to_string(), Vec::new());
    };
    let opcode = prog
        .module
        .function(&prog.entry)
        .map(|f| f.inst(site.inst).opcode().to_string())
        .unwrap_or_else(|| "?".to_string());
    let categories = SiteCategory::ALL
        .iter()
        .filter(|c| c.matches(site.flags))
        .map(|c| c.name().to_string())
        .collect();
    (opcode, categories)
}

/// Experiment `i` of the campaign seeded `cseed`, executed in full: the
/// golden run and then the faulty run, each from a fresh `setup`, drawing
/// from the RNG in the runner's order. Returns the record and its span.
fn reexecute(
    prog: &Prepared,
    program: &Arc<Program>,
    w: &dyn Workload,
    cseed: u64,
    i: usize,
) -> (Experiment, ExperimentTrace) {
    let mut rng = experiment_rng(cseed, i);
    let input = rng.gen_range(0..w.num_inputs().max(1));
    let engine = prog.model.engine_model();

    let mut recorder = DivergenceTracer::record();
    let mut counter = engine.map(EngineInjector::count);
    let mut interp = Interp::observed(Arc::clone(program), &mut recorder);
    let setup = w.setup(&mut interp.mem, input).expect("setup");
    if let Some(c) = counter.as_mut() {
        interp.set_engine_injector(c);
    }
    let mut host = VulfiHost::profile();
    let golden = interp
        .run(&prog.entry, &setup.args, &mut host)
        .expect("golden run");
    let golden_out = snapshot_outputs(&interp.mem, &setup.outputs, &golden.ret).expect("snapshot");
    drop(interp);
    let stream = recorder.into_stream();
    let n = match engine {
        None => host.dynamic_sites,
        Some(vexec::EngineModel::MemoryCell) => golden.dyn_insts,
        Some(_) => counter.map_or(0, |c| c.events()),
    };
    let mut record = Experiment {
        outcome: Outcome::Benign,
        detected: false,
        injection: None,
        input,
        dynamic_sites: n,
        golden_dyn_insts: golden.dyn_insts,
    };
    let mut span = ExperimentTrace {
        index: i,
        outcome: Outcome::Benign,
        detected: false,
        input,
        injection: None,
        golden_dyn_insts: golden.dyn_insts,
        faulty_dyn_insts: 0,
        dyn_inst_delta: -(golden.dyn_insts as i64),
        propagation: None,
        trap: None,
        wall_ns: 0,
    };
    if n == 0 {
        return (record, span);
    }
    let target = rng.gen_range(1..=n);
    let entropy: u64 = rng.gen();

    let mut comparer = DivergenceTracer::compare(&stream);
    let mut injector = engine.map(|m| EngineInjector::inject(m, target, entropy));
    let mut interp = Interp::observed(Arc::clone(program), &mut comparer);
    interp.set_budget(
        golden
            .dyn_insts
            .saturating_mul(prog.limits.hang_factor)
            .saturating_add(prog.limits.hang_slack),
    );
    let setup = w.setup(&mut interp.mem, input).expect("setup");
    if prog.limits.mem_bytes > 0 {
        interp.set_memory_limit(prog.limits.mem_bytes);
    }
    if let Some(inj) = injector.as_mut() {
        interp.set_engine_injector(inj);
    }
    let mut host = match engine {
        Some(_) => VulfiHost::profile(),
        None => VulfiHost::inject_model(target, entropy, prog.model),
    };
    let result = interp.run(&prog.entry, &setup.args, &mut host);
    let faulty_insts = interp.executed();
    record.outcome = match &result {
        Err(Trap::HostError(m)) => panic!("runtime bug: {m}"),
        Err(_) => Outcome::Crash,
        Ok(r) => {
            let out = snapshot_outputs(&interp.mem, &setup.outputs, &r.ret).expect("snapshot");
            if out == golden_out {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    };
    drop(interp);
    record.detected = host.detectors.detected();
    let (injection, injected_at) = match injector.and_then(|inj| inj.injection()) {
        Some(inj) => (
            Some(InjectionRecord {
                site_id: 0,
                lane: 0,
                occurrence: inj.event,
                bit: inj.bit,
                bits_before: inj.bits_before,
                bits_after: inj.bits_after,
                model: prog.model,
            }),
            Some(inj.at_dyn_inst),
        ),
        None => (host.injection, host.injection_at),
    };
    if result.is_ok() {
        comparer.finish(faulty_insts);
    }
    let trap = result.err().map(|t| t.to_string());
    span.injection = injection.as_ref().map(|inj| {
        let (opcode, categories) = provenance(prog, inj.site_id);
        TraceInjection {
            site_id: inj.site_id,
            opcode,
            categories,
            lane: inj.lane,
            bit: inj.bit,
            occurrence: inj.occurrence,
            at_dyn_inst: injected_at.unwrap_or(0),
        }
    });
    let anchor = comparer
        .divergence()
        .map(|d| d.dyn_index)
        .or_else(|| trap.as_ref().map(|_| faulty_insts));
    span.propagation = match (&span.injection, anchor) {
        (Some(inj), Some(at)) => Some(at.saturating_sub(inj.at_dyn_inst)),
        _ => None,
    };
    record.injection = injection;
    span.outcome = record.outcome;
    span.detected = record.detected;
    span.faulty_dyn_insts = faulty_insts;
    span.dyn_inst_delta = faulty_insts as i64 - golden.dyn_insts as i64;
    span.trap = trap;
    (record, span)
}

/// What one fenced range cost: the faulty dynamic instructions the forked
/// runs interpreted, the logical ones of the full re-execution, and the
/// reconverged experiments; and how many experiments a detector flagged.
#[derive(Default)]
struct Cost {
    interpreted: u64,
    logical: u64,
    reconverged: u64,
    detected: usize,
}

/// Run experiments `0..EXPERIMENTS` of campaign 0 forked, traced and
/// untraced, and assert both equal the full re-execution.
fn fence(prog: &Prepared, w: &dyn Workload, what: &str) -> Cost {
    let cseed = campaign_seed(0xF04C, 0);
    let program = Arc::new(Program::decode(&prog.module));
    let (records, spans): (Vec<_>, Vec<_>) = (0..EXPERIMENTS)
        .map(|i| reexecute(prog, &program, w, cseed, i))
        .unzip();

    let plain = run_range(prog, w, &GoldenSet::new(w, false), cseed, 0..EXPERIMENTS)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(plain.experiments, records, "{what}: records");

    let traced = run_range(prog, w, &GoldenSet::new(w, true), cseed, 0..EXPERIMENTS)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(traced.experiments, records, "{what}: traced records");
    let mut got = traced.spans;
    for s in &mut got {
        s.wall_ns = 0;
    }
    for (g, want) in got.iter().zip(&spans) {
        assert_eq!(g, want, "{what}: span of experiment {}", want.index);
    }
    assert_eq!(got.len(), spans.len(), "{what}: span count");
    assert_eq!(
        (plain.interpreted_dyn_insts, plain.reconverged),
        (traced.interpreted_dyn_insts, traced.reconverged),
        "{what}: tracing changed what the forked runs executed"
    );
    Cost {
        interpreted: plain.interpreted_dyn_insts,
        logical: spans.iter().map(|s| s.faulty_dyn_insts).sum(),
        reconverged: plain.reconverged,
        detected: records.iter().filter(|e| e.detected).count(),
    }
}

#[test]
fn forked_runs_equal_full_reexecution_on_paper_benchmarks() {
    let mut reconverged = 0;
    for name in ["Blackscholes", "Stencil", "Jacobi"] {
        let mut cells: Vec<(spmdc::VectorIsa, FaultModel)> =
            MODELS.iter().map(|&m| (spmdc::VectorIsa::Avx, m)).collect();
        cells.push((spmdc::VectorIsa::Sse4, FaultModel::SingleBitFlip));
        let mut cost = Cost::default();
        for (isa, model) in cells {
            let w = vbench::study_benchmark(name, isa, vbench::Scale::Test).unwrap();
            let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
            prog.model = model;
            let c = fence(&prog, &w, &format!("{name}/{isa}/{model}"));
            cost.interpreted += c.interpreted;
            cost.logical += c.logical;
            cost.reconverged += c.reconverged;
        }
        assert!(
            cost.interpreted < cost.logical,
            "{name}: forked runs interpreted {} of {} logical faulty dyn insts",
            cost.interpreted,
            cost.logical
        );
        reconverged += cost.reconverged;
    }
    assert!(reconverged > 0, "no faulty run reconverged");
}

#[test]
fn detector_flags_equal_full_reexecution() {
    let mut detected = 0;
    for name in ["Stencil", "Jacobi"] {
        let w = vbench::study_benchmark(name, spmdc::VectorIsa::Avx, vbench::Scale::Test).unwrap();
        let cfg = detectors::DetectorConfig {
            uniform_broadcast: true,
            placement: detectors::CheckPlacement::EveryIteration,
            ..detectors::DetectorConfig::default()
        };
        let wd = detectors::WithDetectors::new(&w, cfg).unwrap();
        for category in [SiteCategory::Control, SiteCategory::PureData] {
            let prog = prepare(&wd, category).unwrap();
            detected += fence(&prog, &wd, &format!("{name} with detectors/{category:?}")).detected;
        }
    }
    assert!(
        detected > 0,
        "no detector fired, so the fence checked nothing"
    );
}

/// Sums an array, then allocates a scratch buffer and sums again: a golden
/// run whose allocation comes only after a few checkpoints.
struct LateAllocWorkload {
    module: Module,
}

impl LateAllocWorkload {
    fn new() -> LateAllocWorkload {
        let src = r#"
define void @late(ptr %a, i32 %n) {
entry:
  br label %h1
h1:
  %i = phi i32 [ 0, %entry ], [ %i2, %b1 ]
  %c1 = icmp slt i32 %i, %n
  br i1 %c1, label %b1, label %mid
b1:
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %d = fadd float %v, 1.0
  store float %d, ptr %p
  %i2 = add i32 %i, 1
  br label %h1
mid:
  %buf = alloca float, i32 1024
  br label %h2
h2:
  %j = phi i32 [ 0, %mid ], [ %j2, %b2 ]
  %c2 = icmp slt i32 %j, %n
  br i1 %c2, label %b2, label %exit
b2:
  %q = getelementptr float, ptr %a, i32 %j
  %w = load float, ptr %q
  %e = fmul float %w, 2.0
  store float %e, ptr %buf
  store float %e, ptr %q
  %j2 = add i32 %j, 1
  br label %h2
exit:
  ret void
}
"#;
        LateAllocWorkload {
            module: vir::parser::parse_module(src).unwrap(),
        }
    }
}

impl Workload for LateAllocWorkload {
    fn name(&self) -> &str {
        "late"
    }
    fn entry(&self) -> &str {
        "late"
    }
    fn module(&self) -> &Module {
        &self.module
    }
    fn num_inputs(&self) -> u64 {
        2
    }
    fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
        let n = 600 + 100 * input;
        let vals: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let a = mem.alloc_f32_slice(&vals)?;
        Ok(SetupResult {
            args: vec![
                RtVal::Scalar(Scalar::ptr(a)),
                RtVal::Scalar(Scalar::i32(n as i32)),
            ],
            outputs: vec![OutputRegion {
                addr: a,
                bytes: n * 4,
            }],
        })
    }
}

#[test]
fn checkpoints_past_the_memory_ceiling_are_not_forked_from() {
    let w = LateAllocWorkload::new();
    let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
    // The setup's array fits; the 4 KiB `alloca` after the first loop does
    // not, so every full faulty run that gets that far traps there.
    prog.limits.mem_bytes = 3 * 1024;
    let cost = fence(&prog, &w, "late alloc");
    assert!(cost.logical > 0);
    assert_eq!(cost.reconverged, 0, "the golden suffix trips the ceiling");
    let plain = run_range(&prog, &w, &GoldenSet::new(&w, false), 1, 0..EXPERIMENTS).unwrap();
    assert!(
        plain
            .experiments
            .iter()
            .any(|e| e.outcome == Outcome::Crash),
        "the alloca must trap on the ceiling"
    );
}

/// Adds one to each element through a value that is multiplied by zero
/// before use: a flip there is (nearly always) masked, and the run's state
/// soon equals the golden one again, while flips of the other sites reach
/// the output.
struct MaskedWorkload {
    module: Module,
}

impl MaskedWorkload {
    fn new() -> MaskedWorkload {
        let src = r#"
define void @masked(ptr %a, i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %i2, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %t = fadd float %v, 1.0
  %u = fmul float %t, 0.0
  %s = fadd float %v, %u
  %r = fadd float %s, 1.0
  store float %r, ptr %p
  %i2 = add i32 %i, 1
  br label %header
exit:
  ret void
}
"#;
        MaskedWorkload {
            module: vir::parser::parse_module(src).unwrap(),
        }
    }
}

impl Workload for MaskedWorkload {
    fn name(&self) -> &str {
        "masked"
    }
    fn entry(&self) -> &str {
        "masked"
    }
    fn module(&self) -> &Module {
        &self.module
    }
    fn num_inputs(&self) -> u64 {
        1
    }
    fn setup(&self, mem: &mut Memory, _input: u64) -> Result<SetupResult, Trap> {
        let n = 1500u64;
        let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        let a = mem.alloc_f32_slice(&vals)?;
        Ok(SetupResult {
            args: vec![
                RtVal::Scalar(Scalar::ptr(a)),
                RtVal::Scalar(Scalar::i32(n as i32)),
            ],
            outputs: vec![OutputRegion {
                addr: a,
                bytes: n * 4,
            }],
        })
    }
}

#[test]
fn masked_faults_reconverge_but_not_before_a_pending_second_flip() {
    let w = MaskedWorkload::new();
    let mut prog = prepare(&w, SiteCategory::PureData).unwrap();
    let cost = fence(&prog, &w, "masked single-bit-flip");
    assert!(cost.reconverged > 0, "masked flips must reconverge");
    // The second flip of a pair lands 1,500 dyn insts after the first,
    // past the next checkpoint, where a masked first flip has already
    // reconverged: stopping there would miss it.
    prog.model = FaultModel::TemporalPair { gap: 1500 };
    fence(&prog, &w, "masked temporal-pair");
}
