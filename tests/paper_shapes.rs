//! The paper's qualitative findings, asserted as tests.
//!
//! These are the claims of §IV-D/§IV-E that must hold in *shape* for the
//! reproduction to be faithful, independent of absolute rates:
//!
//! 1. Fig. 2 / §IV-E: faults at pure-data sites are never flagged by the
//!    foreach loop invariants (the loop iterator can never be pure-data).
//! 2. §IV-E: control-site faults have high SDC rates and substantial
//!    detection rates; address-site faults mostly crash.
//! 3. §IV-D: the address category produces the most crashes overall.
//! 4. §II-D: masked-off lanes are not fault sites (mask-aware counting is
//!    strictly smaller than the mask-oblivious ablation on a masked tail).

use detectors::{DetectorConfig, WithDetectors};
use spmdc::VectorIsa;
use vbench::{micro_benchmark, study_benchmark, Scale};
use vexec::{Interp, NoHost};
use vir::analysis::SiteCategory;
use vulfi::workload::Workload;
use vulfi::{prepare, prepare_with, run_campaign, InstrumentOptions, VulfiHost};

const N_EXP: usize = 250;
const SEED: u64 = 0x2016;

#[test]
fn pure_data_faults_never_detected_by_foreach_invariants() {
    for name in ["vector copy", "dot product", "vector sum"] {
        let w = micro_benchmark(name, VectorIsa::Avx, Scale::Test).unwrap();
        let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
        let prog = prepare(&wd, SiteCategory::PureData).unwrap();
        let c = run_campaign(&prog, &wd, N_EXP, SEED).unwrap();
        assert_eq!(
            c.counts.detected, 0,
            "{name}: pure-data fault detected by loop invariants (impossible per Fig. 2): {:?}",
            c.counts
        );
        assert!(c.counts.sdc > 0, "{name}: no SDC at all is implausible");
    }
}

#[test]
fn control_faults_have_high_sdc_and_substantial_detection() {
    for name in ["vector copy", "dot product", "vector sum"] {
        let w = micro_benchmark(name, VectorIsa::Avx, Scale::Test).unwrap();
        let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
        let prog = prepare(&wd, SiteCategory::Control).unwrap();
        let c = run_campaign(&prog, &wd, N_EXP, SEED).unwrap();
        assert!(
            c.counts.sdc_rate() > 30.0,
            "{name}: control SDC rate too low: {:?}",
            c.counts
        );
        assert!(
            c.counts.sdc_detection_rate() > 20.0,
            "{name}: detectors should catch a sizable share of control SDCs \
             (paper: ~49-57%): {:?}",
            c.counts
        );
    }
}

#[test]
fn address_faults_crash_most() {
    for name in ["vector copy", "dot product"] {
        let w = micro_benchmark(name, VectorIsa::Avx, Scale::Test).unwrap();
        let crash_rate = |cat: SiteCategory| {
            let prog = prepare(&w, cat).unwrap();
            run_campaign(&prog, &w, N_EXP, SEED)
                .unwrap()
                .counts
                .crash_rate()
        };
        let addr = crash_rate(SiteCategory::Address);
        let data = crash_rate(SiteCategory::PureData);
        let ctrl = crash_rate(SiteCategory::Control);
        assert!(
            addr > ctrl && addr > data,
            "{name}: address crashes ({addr:.1}%) must exceed control ({ctrl:.1}%) \
             and pure-data ({data:.1}%)"
        );
    }
}

#[test]
fn study_benchmarks_follow_crash_ordering_too() {
    let w = study_benchmark("Blackscholes", VectorIsa::Sse4, Scale::Test).unwrap();
    let crash_rate = |cat: SiteCategory| {
        let prog = prepare(&w, cat).unwrap();
        run_campaign(&prog, &w, 120, SEED)
            .unwrap()
            .counts
            .crash_rate()
    };
    assert!(crash_rate(SiteCategory::Address) > crash_rate(SiteCategory::PureData));
}

#[test]
fn masked_lanes_are_not_fault_sites() {
    // On an input whose size is NOT a lane multiple, the partial region
    // runs masked. Mask-aware counting (VULFI) must see strictly fewer
    // dynamic sites than the mask-oblivious ablation.
    let w = micro_benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();

    let count_sites = |mask_aware: bool| -> u64 {
        let prog = prepare_with(
            &w,
            InstrumentOptions {
                category: SiteCategory::PureData,
                mask_aware,
                mode: Default::default(),
            },
        )
        .unwrap();
        let mut interp = Interp::new(&prog.module);
        let setup = w.setup(&mut interp.mem, 0).unwrap(); // n = 33 (33 % 8 != 0)
        let mut host = VulfiHost::profile();
        interp.run(&prog.entry, &setup.args, &mut host).unwrap();
        host.dynamic_sites
    };

    let aware = count_sites(true);
    let oblivious = count_sites(false);
    assert!(
        aware < oblivious,
        "mask-aware ({aware}) must count fewer dynamic sites than mask-oblivious ({oblivious})"
    );
}

#[test]
fn hang_inducing_faults_classify_as_crash() {
    // Control faults on loop counters sometimes produce runaway loops;
    // the hang budget must fold them into the Crash class, and the whole
    // campaign must still terminate quickly.
    let w = micro_benchmark("vector sum", VectorIsa::Avx, Scale::Test).unwrap();
    let prog = prepare(&w, SiteCategory::Control).unwrap();
    let c = run_campaign(&prog, &w, N_EXP, SEED).unwrap();
    assert!(
        c.counts.crash > 0,
        "control faults should crash (incl. hangs) sometimes: {:?}",
        c.counts
    );
}

#[test]
fn detector_overhead_stays_low() {
    // The paper reports ~8% runtime overhead for exit-only checks; our
    // dynamic-instruction analogue must stay in the single digits.
    for name in ["vector copy", "dot product", "vector sum"] {
        let w = micro_benchmark(name, VectorIsa::Avx, Scale::Test).unwrap();
        let wd = WithDetectors::new(&w, DetectorConfig::default()).unwrap();
        let plain = vulfi::campaign::measure_dyn_insts(&w, 0).unwrap();
        let with = vulfi::campaign::measure_dyn_insts(&wd, 0).unwrap();
        let overhead = 100.0 * (with as f64 - plain as f64) / plain as f64;
        assert!(
            overhead < 9.0,
            "{name}: exit-only detector overhead {overhead:.2}% not low"
        );
    }
}

#[test]
fn every_iteration_checks_cost_more_than_exit_only() {
    use detectors::CheckPlacement;
    let w = micro_benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();
    let overhead = |placement: CheckPlacement| {
        let cfg = DetectorConfig {
            foreach_invariants: true,
            uniform_broadcast: false,
            placement,
        };
        let wd = WithDetectors::new(&w, cfg).unwrap();
        vulfi::campaign::measure_dyn_insts(&wd, 1).unwrap()
    };
    assert!(
        overhead(CheckPlacement::EveryIteration) > overhead(CheckPlacement::OnExit),
        "per-iteration checking must cost more (the paper's rationale for exit-only)"
    );
}

#[test]
fn sdc_comparison_is_bit_exact() {
    // Even a single mantissa-bit flip in one output element must count as
    // SDC: sweep one specific injection and confirm.
    let w = micro_benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();
    let prog = prepare(&w, SiteCategory::PureData).unwrap();

    // Golden.
    let mut interp = Interp::new(&prog.module);
    let setup = w.setup(&mut interp.mem, 0).unwrap();
    let mut host = VulfiHost::profile();
    interp.run(&prog.entry, &setup.args, &mut host).unwrap();
    let golden = interp
        .mem
        .snapshot(setup.outputs[0].addr, setup.outputs[0].bytes)
        .unwrap();
    assert!(host.dynamic_sites > 0);

    // Inject bit 0 (lowest mantissa-ish bit of an i32 here) at site 1.
    let mut interp = Interp::new(&prog.module);
    let setup = w.setup(&mut interp.mem, 0).unwrap();
    let mut host = VulfiHost::inject(1, 0);
    let r = interp.run(&prog.entry, &setup.args, &mut host);
    assert!(r.is_ok());
    let out = interp
        .mem
        .snapshot(setup.outputs[0].addr, setup.outputs[0].bytes)
        .unwrap();
    assert!(host.injection.is_some());
    assert_ne!(golden, out, "single-bit corruption must be observable");
    // And exactly one 4-byte word differs by exactly one bit.
    let diffs: Vec<usize> = golden
        .iter()
        .zip(&out)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(diffs.len(), 1);
    assert_eq!(
        (golden[diffs[0]] ^ out[diffs[0]]).count_ones(),
        1,
        "exactly one bit flipped"
    );
    let _ = NoHost; // (imported for symmetry with other tests)
}

#[test]
fn lvalue_model_approximates_operand_model() {
    // §II-B argues that targeting Lvalues "covers the scenarios where a
    // bit-flip either occurs in one of the source operands ... or in the
    // arithmetic unit". The ablation: campaigns under the two fault models
    // must tell the same qualitative story (SDCs present, same crash
    // ordering), even though site populations differ.
    use vulfi::instrument::TargetMode;
    let w = micro_benchmark("vector copy", VectorIsa::Avx, Scale::Test).unwrap();
    let run_mode = |mode: TargetMode, cat: SiteCategory| {
        let prog = prepare_with(
            &w,
            InstrumentOptions {
                category: cat,
                mask_aware: true,
                mode,
            },
        )
        .unwrap();
        run_campaign(&prog, &w, N_EXP, SEED).unwrap().counts
    };
    for cat in [SiteCategory::PureData, SiteCategory::Address] {
        let lv = run_mode(TargetMode::Lvalue, cat);
        let op = run_mode(TargetMode::SourceOperands, cat);
        assert!(lv.sdc > 0 && op.sdc > 0, "{cat}: {lv:?} vs {op:?}");
        if cat == SiteCategory::Address {
            assert!(
                lv.crash_rate() > 30.0 && op.crash_rate() > 30.0,
                "address faults crash heavily under both models: {lv:?} vs {op:?}"
            );
        } else {
            assert!(
                lv.crash_rate() < 15.0 && op.crash_rate() < 15.0,
                "pure-data faults rarely crash under both models: {lv:?} vs {op:?}"
            );
        }
    }
}
