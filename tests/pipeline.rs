//! Cross-crate integration tests: the full VULFI pipeline over the entire
//! benchmark suite on both vector targets.

use spmdc::VectorIsa;
use vbench::{study_benchmarks, Scale};
use vexec::{InstMix, Interp, NoHost};
use vir::analysis::SiteCategory;
use vulfi::workload::{observed_golden_run, snapshot_outputs, Workload};
use vulfi::{prepare, run_campaign, VulfiHost};

#[test]
fn every_benchmark_module_roundtrips_through_text() {
    for isa in VectorIsa::ALL {
        for w in study_benchmarks(isa, Scale::Test) {
            let text = vir::printer::print_module(w.module());
            let reparsed = vir::parser::parse_module(&text)
                .unwrap_or_else(|e| panic!("{}/{isa}: {e}", w.name()));
            vir::verify::verify_module(&reparsed)
                .unwrap_or_else(|e| panic!("{}/{isa}: {e}", w.name()));
            assert_eq!(
                vir::printer::print_module(&reparsed),
                text,
                "{}/{isa} print/parse not a fixpoint",
                w.name()
            );
        }
    }
}

#[test]
fn instrumentation_is_transparent_without_injection() {
    // A profile-mode (no-injection) run of the instrumented module must
    // produce bit-identical outputs to the uninstrumented module.
    for isa in VectorIsa::ALL {
        for w in study_benchmarks(isa, Scale::Test) {
            // Plain run.
            let mut plain = Interp::new(w.module());
            let setup = w.setup(&mut plain.mem, 0).unwrap();
            let ret = plain
                .run(w.entry(), &setup.args, &mut NoHost)
                .unwrap_or_else(|e| panic!("{}/{isa}: {e}", w.name()))
                .ret;
            let golden = snapshot_outputs(&plain.mem, &setup.outputs, &ret).unwrap();

            // Instrumented profile run (pure-data covers the most sites).
            let prog = prepare(&w, SiteCategory::PureData).unwrap();
            let mut instr = Interp::new(&prog.module);
            let setup2 = w.setup(&mut instr.mem, 0).unwrap();
            let mut host = VulfiHost::profile();
            let ret2 = instr
                .run(&prog.entry, &setup2.args, &mut host)
                .unwrap_or_else(|e| panic!("{} instrumented/{isa}: {e}", w.name()))
                .ret;
            let out = snapshot_outputs(&instr.mem, &setup2.outputs, &ret2).unwrap();
            assert_eq!(golden, out, "{}/{isa} outputs diverge", w.name());
            assert!(
                host.dynamic_sites > 0,
                "{}/{isa}: no dynamic sites observed",
                w.name()
            );
        }
    }
}

#[test]
fn campaigns_complete_for_all_benchmarks_and_categories() {
    for w in study_benchmarks(VectorIsa::Avx, Scale::Test) {
        for cat in SiteCategory::ALL {
            let prog = prepare(&w, cat).unwrap_or_else(|e| panic!("{} {cat}: {e}", w.name()));
            assert!(!prog.sites.is_empty(), "{} has no {cat} sites", w.name());
            let c = run_campaign(&prog, &w, 12, 0xAB)
                .unwrap_or_else(|e| panic!("{} {cat}: {e}", w.name()));
            assert_eq!(c.counts.total(), 12, "{} {cat}", w.name());
        }
    }
}

#[test]
fn experiments_reproducible_across_campaign_reruns() {
    let w = vbench::study_benchmark("Stencil", VectorIsa::Sse4, Scale::Test).unwrap();
    let prog = prepare(&w, SiteCategory::Control).unwrap();
    let a = run_campaign(&prog, &w, 30, 77).unwrap();
    let b = run_campaign(&prog, &w, 30, 77).unwrap();
    assert_eq!(a.counts, b.counts);
    for (x, y) in a.experiments.iter().zip(&b.experiments) {
        assert_eq!(x.outcome, y.outcome);
        assert_eq!(x.injection, y.injection);
    }
    // A different seed must eventually choose different injections.
    let c = run_campaign(&prog, &w, 30, 78).unwrap();
    assert_ne!(
        a.experiments
            .iter()
            .map(|e| e.injection.clone())
            .collect::<Vec<_>>(),
        c.experiments
            .iter()
            .map(|e| e.injection.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn sse_and_avx_site_populations_differ_in_lane_width() {
    for w_avx in study_benchmarks(VectorIsa::Avx, Scale::Test) {
        let name = w_avx.name().to_string();
        let w_sse = vbench::study_benchmark(&name, VectorIsa::Sse4, Scale::Test).unwrap();
        let f_avx = w_avx.module().function(w_avx.entry()).unwrap();
        let f_sse = w_sse.module().function(w_sse.entry()).unwrap();
        let max_lanes_avx = vulfi::enumerate_sites(f_avx)
            .iter()
            .map(|s| s.lanes())
            .max()
            .unwrap();
        let max_lanes_sse = vulfi::enumerate_sites(f_sse)
            .iter()
            .map(|s| s.lanes())
            .max()
            .unwrap();
        assert_eq!(max_lanes_avx, 8, "{name}");
        assert_eq!(max_lanes_sse, 4, "{name}");
    }
}

#[test]
fn detectors_compose_with_full_pipeline_on_study_benchmark() {
    use detectors::{DetectorConfig, WithDetectors};
    let w = vbench::study_benchmark("Jacobi", VectorIsa::Avx, Scale::Test).unwrap();
    let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
    assert!(
        wd.foreach_detectors >= 2,
        "jacobi has several foreach loops"
    );
    let prog = prepare(&wd, SiteCategory::Control).unwrap();
    let c = run_campaign(&prog, &wd, 60, 3).unwrap();
    assert_eq!(c.counts.total(), 60);
    assert!(
        c.counts.detected > 0,
        "control faults in Jacobi loops must trip the invariants sometimes: {:?}",
        c.counts
    );
}

#[test]
fn uniform_checker_composes_with_campaigns() {
    use detectors::{CheckPlacement, DetectorConfig, WithDetectors};
    let w = vbench::study_benchmark("Blackscholes", VectorIsa::Avx, Scale::Test).unwrap();
    let cfg = DetectorConfig {
        foreach_invariants: true,
        uniform_broadcast: true,
        placement: CheckPlacement::OnExit,
    };
    let wd = WithDetectors::new(&w, cfg).unwrap();
    let prog = prepare(&wd, SiteCategory::PureData).unwrap();
    let c = run_campaign(&prog, &wd, 40, 5).unwrap();
    assert_eq!(c.counts.total(), 40);
    // The uniform checker *can* detect pure-data faults (broadcast lanes
    // are pure data); unlike the foreach invariants it is not structurally
    // blind to this category. No hard rate asserted, just plumbing.
}

#[test]
fn dynamic_instruction_mix_profiles_vector_share() {
    // Dynamic Fig. 10: vector instructions dominate the executed stream of
    // a foreach-vectorized kernel.
    let w = vbench::study_benchmark("Blackscholes", VectorIsa::Avx, Scale::Test).unwrap();
    let (r, out, mix) = observed_golden_run(&w, 0, InstMix::default()).unwrap();
    assert_eq!(mix.total, r.dyn_insts, "profile covers every instruction");
    assert!(
        mix.vector_pct() > 40.0,
        "blackscholes executes mostly vector instructions, got {:.1}%",
        mix.vector_pct()
    );
    assert!(mix.by_opcode.contains_key("fmul"));
    assert!(mix.by_opcode.contains_key("condbr"));
    // Second run without an observer: same result, dynamic count and
    // output.
    let (r2, out2, ()) = observed_golden_run(&w, 0, ()).unwrap();
    assert_eq!(r, r2);
    assert_eq!(out, out2);
}
