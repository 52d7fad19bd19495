//! Per-experiment trace spans: the structured record of what one fault
//! *did* between injection and outcome.
//!
//! A campaign's persisted [`Experiment`](crate::Experiment) keeps only
//! the outcome-level facts the statistics need. The trace span recorded
//! here carries the observability detail the paper's aggregate figures
//! throw away:
//!
//! - **site provenance** — which static site was hit, its opcode, and
//!   which §II-C categories its forward slice matches;
//! - **injection coordinates** — lane, bit, dynamic occurrence, and the
//!   dynamic instruction index at which the flip landed;
//! - **propagation profile** — dynamic instructions executed between the
//!   injection and the first architectural divergence from the golden
//!   run (first differing store / branch decision / return), with the
//!   trap site standing in as the divergence point on Crash;
//! - **latency** — wall time of the experiment: its faulty run, plus its
//!   input's golden run when this experiment was the one that ran it.
//!
//! Tracing is opt-in and purely observational: a traced run produces the
//! bit-identical `Experiment` list of an untraced run (the study key and
//! all persisted results are unchanged).

use std::time::Instant;

use vir::analysis::SiteCategory;

use crate::campaign::{Experiment, Outcome, Prepared};

/// Raw measurements collected by the experiment body while tracing
/// (internal hand-off between `campaign` and the span builder).
#[derive(Debug, Clone, Default)]
pub(crate) struct TraceCapture {
    /// Dynamic instruction index at which the bit flip landed.
    pub injected_at: Option<u64>,
    /// Dynamic instruction index of the first architectural divergence.
    pub divergence: Option<u64>,
    /// Dynamic instructions the faulty run executed before finishing or
    /// trapping.
    pub faulty_dyn_insts: u64,
    /// Trap description when the faulty run crashed.
    pub trap: Option<String>,
}

/// Provenance of the injected static site (from `sites.rs`
/// classification).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TraceInjection {
    pub site_id: u32,
    /// Opcode of the instruction owning the site (`"?"` if the site id
    /// cannot be resolved against the instrumented module).
    pub opcode: String,
    /// §II-C categories the site's forward slice matches
    /// (`pure-data` / `control` / `address`; the latter two may overlap).
    pub categories: Vec<String>,
    pub lane: u32,
    pub bit: u32,
    /// 1-based dynamic occurrence index of the site.
    pub occurrence: u64,
    /// Dynamic instruction index at which the flip landed.
    pub at_dyn_inst: u64,
}

/// One experiment's trace span.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentTrace {
    /// Experiment index within its campaign.
    pub index: usize,
    pub outcome: Outcome,
    pub detected: bool,
    pub input: u64,
    /// `None` when no injection happened (no dynamic sites for this
    /// input, or the engine died before injecting).
    pub injection: Option<TraceInjection>,
    pub golden_dyn_insts: u64,
    pub faulty_dyn_insts: u64,
    /// Faulty minus golden dynamic instructions (positive under
    /// fault-induced extra work, negative under early crashes).
    pub dyn_inst_delta: i64,
    /// Dynamic instructions from injection to first architectural
    /// divergence (trap site on Crash). `None` when the fault never
    /// became architecturally visible (masked) or never landed.
    pub propagation: Option<u64>,
    /// Trap description when the faulty run crashed.
    pub trap: Option<String>,
    /// Wall time of the experiment, in nanoseconds: its faulty run, plus
    /// its input's golden run when this experiment was the one that ran it
    /// (a study runs each input's golden run once).
    pub wall_ns: u64,
}

/// Resolve a site id to its opcode and category names.
fn site_provenance(prog: &Prepared, site_id: u32) -> (String, Vec<String>) {
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

pub(crate) fn build_trace(
    prog: &Prepared,
    index: usize,
    e: &Experiment,
    cap: &TraceCapture,
    started: Instant,
) -> ExperimentTrace {
    let wall_ns = started.elapsed().as_nanos() as u64;
    let injection = e.injection.as_ref().map(|inj| {
        let (opcode, categories) = site_provenance(prog, inj.site_id);
        TraceInjection {
            site_id: inj.site_id,
            opcode,
            categories,
            lane: inj.lane,
            bit: inj.bit,
            occurrence: inj.occurrence,
            at_dyn_inst: cap.injected_at.unwrap_or(0),
        }
    });
    // The divergence anchor: first differing architectural event, or the
    // trap site when the run crashed before any event differed.
    let anchor = cap
        .divergence
        .or_else(|| cap.trap.as_ref().map(|_| cap.faulty_dyn_insts));
    let propagation = match (&injection, anchor) {
        (Some(inj), Some(at)) => Some(at.saturating_sub(inj.at_dyn_inst)),
        _ => None,
    };
    ExperimentTrace {
        index,
        outcome: e.outcome,
        detected: e.detected,
        input: e.input,
        injection,
        golden_dyn_insts: e.golden_dyn_insts,
        faulty_dyn_insts: cap.faulty_dyn_insts,
        dyn_inst_delta: cap.faulty_dyn_insts as i64 - e.golden_dyn_insts as i64,
        propagation,
        trap: cap.trap.clone(),
        wall_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{
        campaign_seed, prepare, run_experiment_range, run_experiment_range_traced, StudyConfig,
    };
    use crate::workload::{observed_golden_run, OutputRegion, SetupResult, Workload};
    use vexec::{Memory, RtVal, Scalar, Trap};

    /// Scale-by-two over a small buffer: a mix of SDC / Benign / Crash
    /// under pure-data injection.
    struct ScaleWorkload {
        m: vir::Module,
    }

    impl ScaleWorkload {
        fn new() -> ScaleWorkload {
            let src = r#"
define void @scale(ptr %a, i32 %n) {
entry:
  br label %head
head:
  %i = phi i32 [ 0, %entry ], [ %inext, %body ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  %p = getelementptr float, ptr %a, i32 %i
  %v = load float, ptr %p
  %d = fmul float %v, 2.0
  store float %d, ptr %p
  %inext = add i32 %i, 1
  br label %head
exit:
  ret void
}
"#;
            ScaleWorkload {
                m: vir::parser::parse_module(src).unwrap(),
            }
        }
    }

    impl Workload for ScaleWorkload {
        fn name(&self) -> &str {
            "scale"
        }
        fn entry(&self) -> &str {
            "scale"
        }
        fn module(&self) -> &vir::Module {
            &self.m
        }
        fn num_inputs(&self) -> u64 {
            4
        }
        fn setup(&self, mem: &mut Memory, input: u64) -> Result<SetupResult, Trap> {
            let data: Vec<f32> = (0..8).map(|i| (i as f32) + (input as f32)).collect();
            let a = mem.alloc_f32_slice(&data)?;
            Ok(SetupResult {
                args: vec![RtVal::Scalar(Scalar::ptr(a)), RtVal::Scalar(Scalar::i32(8))],
                outputs: vec![OutputRegion { addr: a, bytes: 32 }],
            })
        }
    }

    #[test]
    fn traced_experiments_match_untraced_bit_for_bit() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let cfg = StudyConfig::default();
        let seed = campaign_seed(cfg.seed, 0);
        let plain = run_experiment_range(&prog, &w, seed, 0..24).unwrap();
        let (traced, spans) = run_experiment_range_traced(&prog, &w, seed, 0..24).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb results");
        assert_eq!(spans.len(), 24);
        for (k, span) in spans.iter().enumerate() {
            assert_eq!(span.index, k);
        }

        // Lane-occupancy profiling holds the same contract: campaigns run
        // with no profile observer (no hook code at all), and a profiled
        // golden execution of the same workload is bit-identical to the
        // unprofiled one the experiments above measured.
        let (r_plain, out_plain, ()) = observed_golden_run(&w, 0, ()).unwrap();
        let (r_prof, out_prof, mix) =
            observed_golden_run(&w, 0, vexec::InstMix::default()).unwrap();
        assert_eq!(r_plain, r_prof, "profiling must not perturb execution");
        assert_eq!(out_plain, out_prof);
        assert_eq!(mix.total, r_prof.dyn_insts);
    }

    #[test]
    fn spans_carry_provenance_and_propagation() {
        let w = ScaleWorkload::new();
        let prog = prepare(&w, SiteCategory::PureData).unwrap();
        let seed = campaign_seed(7, 0);
        let (exps, spans) = run_experiment_range_traced(&prog, &w, seed, 0..40).unwrap();

        let mut saw_sdc_with_propagation = false;
        for (e, span) in exps.iter().zip(&spans) {
            assert_eq!(span.outcome, e.outcome);
            assert_eq!(span.golden_dyn_insts, e.golden_dyn_insts);
            if let Some(inj) = &span.injection {
                assert_ne!(inj.opcode, "?", "site must resolve to an opcode");
                assert!(
                    inj.categories.iter().any(|c| c == "pure-data"),
                    "pure-data study must hit pure-data sites: {:?}",
                    inj.categories
                );
                assert!(inj.at_dyn_inst > 0, "injection clock must be recorded");
            }
            match e.outcome {
                Outcome::Sdc => {
                    // A corrupted output implies an architecturally
                    // visible divergence.
                    let p = span.propagation.expect("SDC must have diverged");
                    assert!(span.injection.is_some());
                    saw_sdc_with_propagation = true;
                    // Divergence cannot precede injection.
                    let inj = span.injection.as_ref().unwrap();
                    assert!(inj.at_dyn_inst + p <= span.faulty_dyn_insts + 1);
                }
                Outcome::Crash => {
                    assert!(span.trap.is_some(), "crash span records the trap site");
                }
                Outcome::Benign => {}
            }
        }
        assert!(
            saw_sdc_with_propagation,
            "expected at least one SDC over 40 experiments"
        );
    }
}
